//! Durability costs: checkpoint/restore latency and snapshot sizes for
//! the verifier digests (bytes vs `log_u` — the paper's polylog
//! verifier-space claim made visible on disk), plus server dataset
//! save/load throughput. Emitted as machine-readable `BENCH_durable.json`
//! (plus human-readable CSV on stdout).
//!
//! What is measured, per `log_u ∈ {12, 16, 18}`:
//!
//! * `digests` — for F2, RANGE-SUM, SUB-VECTOR, HEAVY (count tree), and
//!   the whole kv client: snapshot size in bytes, encode (checkpoint)
//!   latency, and decode + rebuild-derived-tables (restore) latency. The
//!   byte column should grow *linearly in `log_u`* while the data grows
//!   as `2^log_u` — that is Theorem 1's space bound on disk;
//! * `datasets` — a dense raw dataset of `2^log_u` entries: snapshot
//!   bytes, atomic save throughput (write-temp-rename-fsync) and load
//!   throughput.
//!
//! Usage: `cargo run --release -p sip-bench --bin bench_durable
//! [--max-log-u N] [--out PATH]`

use std::fmt::Write as _;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_bench::{arg_string, arg_u32, csv_header, time_mean, time_once};
use sip_core::heavy_hitters::CountTreeHasher;
use sip_core::subvector::SubVectorVerifier;
use sip_core::sumcheck::f2::F2Verifier;
use sip_core::sumcheck::range_sum::RangeSumVerifier;
use sip_durable::{load_snapshot, save_snapshot, snapshot_from_bytes, snapshot_to_bytes, Persist};
use sip_field::Fp61;
use sip_kvstore::{Client, CloudStore, QueryBudget};
use sip_server::registry::{Dataset, DatasetData};
use sip_streaming::{workloads, FrequencyVector};

struct DigestPoint {
    log_u: u32,
    digest: &'static str,
    bytes: usize,
    encode_us: f64,
    restore_us: f64,
}

fn measure_digest<T: Persist>(log_u: u32, digest: &'static str, value: &T) -> DigestPoint {
    let bytes = snapshot_to_bytes(value);
    let encode = time_mean(Duration::from_millis(30), || {
        std::hint::black_box(snapshot_to_bytes(value))
    });
    let restore = time_mean(Duration::from_millis(30), || {
        std::hint::black_box(snapshot_from_bytes::<T>(&bytes).expect("own snapshot restores"))
    });
    DigestPoint {
        log_u,
        digest,
        bytes: bytes.len(),
        encode_us: encode.as_secs_f64() * 1e6,
        restore_us: restore.as_secs_f64() * 1e6,
    }
}

struct DatasetPoint {
    log_u: u32,
    bytes: usize,
    save_mb_s: f64,
    load_mb_s: f64,
}

fn main() {
    let max_log_u = arg_u32("--max-log-u", 18);
    let out_path = arg_string("--out", "BENCH_durable.json");
    let log_us: Vec<u32> = [12u32, 16, 18]
        .into_iter()
        .filter(|&d| d <= max_log_u)
        .collect();

    let mut digests: Vec<DigestPoint> = Vec::new();
    let mut datasets: Vec<DatasetPoint> = Vec::new();

    csv_header(&[
        "log_u",
        "digest",
        "snapshot_bytes",
        "encode_us",
        "restore_us",
    ]);
    for &log_u in &log_us {
        let u = 1u64 << log_u;
        // A substantial stream so digests are "mid-flight", not empty.
        let n = (u / 4).clamp(1 << 10, 1 << 16);
        let stream = workloads::with_deletions(n as usize, u, 0.1, 7);
        let inserts: Vec<_> = stream
            .iter()
            .map(|up| sip_streaming::Update::new(up.index, up.delta.unsigned_abs() as i64))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);

        let mut f2 = F2Verifier::<Fp61>::new(log_u, &mut rng);
        f2.update_batch(&stream);
        let mut rs = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
        rs.update_batch(&stream);
        let mut sub = SubVectorVerifier::<Fp61>::new(log_u, &mut rng);
        sub.update_batch(&stream);
        let mut heavy = CountTreeHasher::<Fp61>::random(log_u, &mut rng);
        heavy.update_batch(&inserts);
        let mut kv = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
        let mut store = CloudStore::<Fp61>::new_sparse(log_u);
        let pairs: Vec<(u64, u64)> = stream
            .iter()
            .take(512)
            .enumerate()
            .map(|(i, up)| ((up.index / 2) * 2 + (i as u64 % 2), up.delta.unsigned_abs()))
            .collect::<std::collections::BTreeMap<u64, u64>>()
            .into_iter()
            .collect();
        kv.put_batch(&pairs, &mut store);

        for point in [
            measure_digest(log_u, "f2", &f2),
            measure_digest(log_u, "range_sum", &rs),
            measure_digest(log_u, "subvector", &sub),
            measure_digest(log_u, "heavy", &heavy),
            measure_digest(log_u, "kv_client", &kv),
        ] {
            println!(
                "{},{},{},{:.2},{:.2}",
                point.log_u, point.digest, point.bytes, point.encode_us, point.restore_us
            );
            digests.push(point);
        }

        // Server dataset save/load throughput (dense raw vector).
        let fv = FrequencyVector::from_stream(u.min(1 << 20), &{
            let small_u = u.min(1 << 20);
            workloads::with_deletions((small_u / 2) as usize, small_u, 0.0, 3)
        });
        let ds = Dataset::<Fp61>::new(
            format!("bench-{log_u}"),
            log_u.min(20),
            None,
            DatasetData::Raw(fv),
        );
        let bytes = snapshot_to_bytes(&ds).len();
        let dir = std::env::temp_dir().join(format!("sip-bench-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.sipd");
        let (_, save_d) = time_once(|| save_snapshot(&path, &ds).unwrap());
        let (_, load_d) = time_once(|| {
            std::hint::black_box(load_snapshot::<Dataset<Fp61>>(&path).unwrap());
        });
        let mb = bytes as f64 / 1e6;
        datasets.push(DatasetPoint {
            log_u,
            bytes,
            save_mb_s: mb / save_d.as_secs_f64(),
            load_mb_s: mb / load_d.as_secs_f64(),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!();
    csv_header(&["log_u", "dataset_bytes", "save_mb_s", "load_mb_s"]);
    for p in &datasets {
        println!(
            "{},{},{:.1},{:.1}",
            p.log_u, p.bytes, p.save_mb_s, p.load_mb_s
        );
    }

    // The headline: snapshot bytes stay polylog while the data explodes.
    if let (Some(lo), Some(hi)) = (
        digests.iter().find(|p| p.digest == "f2"),
        digests.iter().rev().find(|p| p.digest == "f2"),
    ) {
        println!(
            "\nF2 digest snapshot: {} B at log_u = {} → {} B at log_u = {} \
             (universe ×{}, snapshot ×{:.2}) — polylog on disk",
            lo.bytes,
            lo.log_u,
            hi.bytes,
            hi.log_u,
            1u64 << (hi.log_u - lo.log_u),
            hi.bytes as f64 / lo.bytes as f64
        );
    }

    // ---- JSON ----
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"durable\",").unwrap();
    writeln!(json, "  \"field\": \"Fp61\",").unwrap();
    writeln!(
        json,
        "  \"snapshot_version\": {},",
        sip_durable::SNAPSHOT_VERSION
    )
    .unwrap();
    writeln!(json, "  \"digests\": [").unwrap();
    for (i, p) in digests.iter().enumerate() {
        let comma = if i + 1 < digests.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"log_u\": {}, \"digest\": \"{}\", \"snapshot_bytes\": {}, \
             \"encode_us\": {:.2}, \"restore_us\": {:.2}}}{comma}",
            p.log_u, p.digest, p.bytes, p.encode_us, p.restore_us
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"datasets\": [").unwrap();
    for (i, p) in datasets.iter().enumerate() {
        let comma = if i + 1 < datasets.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"log_u\": {}, \"dataset_bytes\": {}, \"save_mb_s\": {:.1}, \
             \"load_mb_s\": {:.1}}}{comma}",
            p.log_u, p.bytes, p.save_mb_s, p.load_mb_s
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write BENCH_durable.json");
    println!("\nwrote {out_path}");
}
