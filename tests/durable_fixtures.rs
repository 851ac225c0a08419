//! Golden snapshot fixtures: one checked-in `.sipd` file per persisted
//! type (Fp61 + Fp127 where field-typed), each compared byte-for-byte
//! against what today's encoder produces for the same deterministically
//! constructed state — an accidental format change fails here before it
//! strands anyone's checkpoints. Every fixture is additionally subjected
//! to an exhaustive single-byte corruption sweep: flip any byte and the
//! decoder must return a typed error — never panic, never restore
//! silently-wrong state.
//!
//! Regenerate after an *intentional* format change (bump
//! `SNAPSHOT_VERSION` first!) with:
//!
//! ```text
//! cargo test --test durable_fixtures -- --ignored regenerate_fixtures
//! ```

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::{ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier, ShardedLde};
use sip::core::heavy_hitters::CountTreeHasher;
use sip::core::subvector::{StreamingRootHasher, SubVectorVerifier};
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::sumcheck::general_ell::GeneralF2Verifier;
use sip::core::sumcheck::inner_product::InnerProductVerifier;
use sip::core::sumcheck::moments::MomentVerifier;
use sip::core::sumcheck::range_sum::RangeSumVerifier;
use sip::durable::{snapshot_to_bytes, Persist, SnapshotError};
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{Client, CloudStore, KvServer, QueryBudget, ShardedClient};
use sip::lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip::server::registry::{Dataset, DatasetData};
use sip::streaming::{FrequencyVector, ShardPlan, Update};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A deterministic stream: fixed updates, no RNG involved.
fn stream(u: u64) -> Vec<Update> {
    (0..60u64)
        .map(|i| {
            Update::new(
                (i * 37 + 5) % u,
                if i % 7 == 3 {
                    -((i % 9) as i64 + 1)
                } else {
                    (i % 11) as i64 + 1
                },
            )
        })
        .collect()
}

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0xD15C_0000 + salt)
}

struct Fixture {
    name: &'static str,
    bytes: Vec<u8>,
    /// Decodes the bytes as the fixture's own type (used by the corruption
    /// sweep, which must exercise the *typed* decode path).
    decode: fn(&[u8]) -> Result<(), SnapshotError>,
}

fn fx<T: Persist>(name: &'static str, value: &T) -> Fixture {
    fn decode_as<T: Persist>(bytes: &[u8]) -> Result<(), SnapshotError> {
        sip::durable::snapshot_from_bytes::<T>(bytes).map(|_| ())
    }
    Fixture {
        name,
        bytes: snapshot_to_bytes(value),
        decode: decode_as::<T>,
    }
}

fn field_fixtures<F: PrimeField>(tag: &str) -> Vec<Fixture> {
    // `tag` selects the deterministic seeds; the names embed it.
    let salt = if tag == "61" { 0 } else { 100 };
    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };

    let params3 = LdeParams::new(3, 4);
    let mut lde = StreamingLdeEvaluator::<F>::random(params3, &mut rng(salt + 1));
    lde.update_batch(&stream(params3.universe()));

    let params2 = LdeParams::binary(8);
    let mut multi = MultiLdeEvaluator::<F>::random(params2, 3, &mut rng(salt + 2));
    multi.update_batch(&stream(1 << 8));

    let mut f2 = F2Verifier::<F>::new(8, &mut rng(salt + 3));
    f2.update_batch(&stream(1 << 8));

    let mut rs = RangeSumVerifier::<F>::new(8, &mut rng(salt + 4));
    rs.update_batch(&stream(1 << 8));

    let mut moment = MomentVerifier::<F>::new(3, 8, &mut rng(salt + 5));
    moment.update_batch(&stream(1 << 8));

    let params16 = LdeParams::new(16, 2);
    let mut general = GeneralF2Verifier::<F>::new(params16, &mut rng(salt + 6));
    general.update_batch(&stream(params16.universe()));

    let mut ip = InnerProductVerifier::<F>::new(8, &mut rng(salt + 7));
    let full = stream(1 << 8);
    ip.update_a_batch(&full);
    ip.update_b_batch(&full[..30]);

    let mut hasher = StreamingRootHasher::<F>::random(
        8,
        sip::core::subvector::HashKind::Affine,
        &mut rng(salt + 8),
    );
    hasher.update_batch(&stream(1 << 8));

    let mut sub = SubVectorVerifier::<F>::new(8, &mut rng(salt + 9));
    sub.update_batch(&stream(1 << 8));

    let inserts: Vec<Update> = stream(1 << 8)
        .iter()
        .map(|up| Update::new(up.index, up.delta.unsigned_abs() as i64))
        .collect();
    let mut tree = CountTreeHasher::<F>::random(8, &mut rng(salt + 10));
    tree.update_batch(&inserts);

    let mut kv = Client::<F>::new(
        8,
        QueryBudget {
            reporting: 2,
            aggregate: 2,
            heavy: 1,
        },
        &mut rng(salt + 11),
    );
    let mut store = CloudStore::<F>::new(8);
    kv.put(3, 10, &mut store);
    kv.put(200, 55, &mut store);

    let mut sharded = ShardedClient::<F>::new(
        8,
        2,
        QueryBudget {
            reporting: 1,
            aggregate: 1,
            heavy: 1,
        },
        &mut rng(salt + 12),
    )
    .unwrap();
    let mut fleet: Vec<Box<dyn KvServer<F>>> = vec![
        Box::new(CloudStore::<F>::new(8)),
        Box::new(CloudStore::<F>::new(8)),
    ];
    sharded.put_batch(&[(3, 9), (200, 7)], &mut fleet).unwrap();

    let plan = ShardPlan::new(8, 4);
    let mut slde = ShardedLde::<F>::random(plan, &mut rng(salt + 13));
    slde.update_batch(&stream(1 << 8));
    let mut cf2 = ClusterF2Verifier::<F>::new(plan, &mut rng(salt + 14));
    cf2.update_batch(&stream(1 << 8));
    let mut crs = ClusterRangeSumVerifier::<F>::new(plan, &mut rng(salt + 15));
    crs.update_batch(&stream(1 << 8));
    let mut crep = ClusterReportVerifier::<F>::new(plan, &mut rng(salt + 16));
    crep.update_batch(&stream(1 << 8));

    vec![
        fx(leak(format!("streaming_lde_{tag}")), &lde),
        fx(leak(format!("multi_lde_{tag}")), &multi),
        fx(leak(format!("f2_verifier_{tag}")), &f2),
        fx(leak(format!("range_sum_verifier_{tag}")), &rs),
        fx(leak(format!("moment_verifier_{tag}")), &moment),
        fx(leak(format!("general_f2_verifier_{tag}")), &general),
        fx(leak(format!("inner_product_verifier_{tag}")), &ip),
        fx(leak(format!("root_hasher_{tag}")), &hasher),
        fx(leak(format!("subvector_verifier_{tag}")), &sub),
        fx(leak(format!("count_tree_{tag}")), &tree),
        fx(leak(format!("kv_client_{tag}")), &kv),
        fx(leak(format!("sharded_kv_client_{tag}")), &sharded),
        fx(leak(format!("sharded_lde_{tag}")), &slde),
        fx(leak(format!("cluster_f2_{tag}")), &cf2),
        fx(leak(format!("cluster_range_sum_{tag}")), &crs),
        fx(leak(format!("cluster_report_{tag}")), &crep),
    ]
}

fn all_fixtures() -> Vec<Fixture> {
    let mut out = field_fixtures::<Fp61>("61");
    out.extend(field_fixtures::<Fp127>("127"));

    // Field-independent types.
    let dense = FrequencyVector::from_stream(64, &stream(64));
    out.push(fx("frequency_dense", &dense));
    let mut sparse = FrequencyVector::new_sparse(1 << 30);
    for up in stream(1 << 30) {
        sparse.apply(up);
    }
    out.push(fx("frequency_sparse", &sparse));

    let mut cloud = CloudStore::<Fp61>::new_sparse(10);
    cloud.ingest(Update::new(9, 43));
    cloud.ingest(Update::new(900, 8));
    out.push(fx("cloud_store", &cloud));

    let mut fv = FrequencyVector::new_sparse(1 << 8);
    fv.apply_batch(&stream(1 << 8));
    out.push(fx(
        "dataset_raw",
        &Dataset::<Fp61>::new(
            "golden-raw".into(),
            8,
            Some(sip::wire::ShardSpec::new(1, 2)),
            DatasetData::Raw(fv),
        ),
    ));
    let mut store = CloudStore::<Fp61>::new_sparse(8);
    store.ingest(Update::new(17, 6));
    out.push(fx(
        "dataset_kv",
        &Dataset::<Fp61>::new("golden-kv".into(), 8, None, DatasetData::Kv(store)),
    ));
    out
}

/// Writes the fixture set. Run explicitly after intentional format
/// changes; the verifying tests below fail loudly until you do.
#[test]
#[ignore = "regenerates the checked-in golden files"]
fn regenerate_fixtures() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for f in all_fixtures() {
        std::fs::write(dir.join(format!("{}.sipd", f.name)), &f.bytes).unwrap();
    }
}

/// Every fixture file must match today's encoder byte-for-byte and decode
/// back to a value that re-encodes identically.
#[test]
fn golden_fixtures_match_current_format() {
    let dir = fixtures_dir();
    for f in all_fixtures() {
        let path = dir.join(format!("{}.sipd", f.name));
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `cargo test --test durable_fixtures -- --ignored regenerate_fixtures`",
                path.display()
            )
        });
        assert_eq!(
            on_disk, f.bytes,
            "{}: snapshot format drifted from the golden file — if intentional, \
             bump SNAPSHOT_VERSION and regenerate",
            f.name
        );
        (f.decode)(&on_disk).unwrap_or_else(|e| panic!("{}: golden decode failed: {e}", f.name));
    }
}

/// Exhaustive single-byte corruption: flipping any byte of any fixture
/// must produce a typed error — never a panic, never an accepted decode.
#[test]
fn every_byte_corruption_of_every_fixture_is_refused() {
    for f in all_fixtures() {
        for i in 0..f.bytes.len() {
            let mut bad = f.bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                (f.decode)(&bad).is_err(),
                "{}: byte {i} corrupted yet decoded",
                f.name
            );
        }
        // Truncation at a few representative points, including mid-header.
        for cut in [0, 3, 9, f.bytes.len() / 2, f.bytes.len() - 1] {
            assert!(
                (f.decode)(&f.bytes[..cut]).is_err(),
                "{}: truncated to {cut} bytes yet decoded",
                f.name
            );
        }
    }
}
