//! [`Persist`] snapshots of the cluster verifier books.
//!
//! The aggregating verifier's whole state per query family is `S + log u`
//! words (one accumulator per shard at one shared point) or `S` hash
//! trees — checkpointing it is as cheap as the single-prover digests, and
//! restoring one lets an operator resume a fleet-wide verification after a
//! coordinator restart. Payload discipline matches `sip-durable`: plan +
//! protocol state only, derived weight tables rebuilt on first use.

use sip_core::subvector::SubVectorVerifier;
use sip_durable::persist::{decode_plan, decode_point, decode_root_hasher, encode_root_hasher};
use sip_durable::{Persist, SnapshotError, SnapshotKind};
use sip_field::PrimeField;
use sip_wire::codec::Writer;
use sip_wire::{FieldId, Reader};

use crate::digest::{
    ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier, ShardedLde,
};

fn field_id_of<F: PrimeField>() -> u8 {
    FieldId::of::<F>().to_byte()
}

fn invalid(detail: String) -> SnapshotError {
    SnapshotError::Invalid(detail)
}

fn encode_sharded_lde<F: PrimeField>(lde: &ShardedLde<F>, w: &mut Writer) {
    let plan = lde.plan();
    w.u32(plan.log_u()).u32(plan.shards());
    for &c in lde.point() {
        w.field(c);
    }
    for &v in lde.values() {
        w.field(v);
    }
    w.u64(lde.updates());
}

fn decode_sharded_lde<F: PrimeField>(r: &mut Reader<'_>) -> Result<ShardedLde<F>, SnapshotError> {
    let plan = decode_plan(r)?;
    let point = decode_point::<F>(r, plan.log_u() as usize)?;
    let accs = decode_point::<F>(r, plan.shards() as usize)?;
    let updates = r.u64()?;
    Ok(ShardedLde::from_saved(plan, point, accs, updates))
}

impl<F: PrimeField> Persist for ShardedLde<F> {
    const KIND: SnapshotKind = SnapshotKind::ShardedLde;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_sharded_lde(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_sharded_lde(r)
    }
}

macro_rules! sharded_lde_wrapped {
    ($ty:ident, $kind:expr, $from:path) => {
        impl<F: PrimeField> Persist for $ty<F> {
            const KIND: SnapshotKind = $kind;

            fn field_id() -> u8 {
                field_id_of::<F>()
            }

            fn update_count(&self) -> u64 {
                self.lde().updates()
            }

            fn encode_state(&self, w: &mut Writer) {
                encode_sharded_lde(self.lde(), w);
            }

            fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok($from(decode_sharded_lde::<F>(r)?))
            }
        }
    };
}

sharded_lde_wrapped!(
    ClusterF2Verifier,
    SnapshotKind::ClusterF2Verifier,
    ClusterF2Verifier::from_lde
);
sharded_lde_wrapped!(
    ClusterRangeSumVerifier,
    SnapshotKind::ClusterRangeSumVerifier,
    ClusterRangeSumVerifier::from_lde
);

impl<F: PrimeField> Persist for ClusterReportVerifier<F> {
    const KIND: SnapshotKind = SnapshotKind::ClusterReportVerifier;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.shard_verifiers()
            .iter()
            .flatten()
            .map(|v| v.hasher().updates())
            .sum()
    }

    fn encode_state(&self, w: &mut Writer) {
        let plan = self.plan();
        w.u32(plan.log_u()).u32(plan.shards());
        for slot in self.shard_verifiers() {
            match slot {
                Some(v) => {
                    w.bool(true);
                    encode_root_hasher(v.hasher(), w);
                }
                None => {
                    w.bool(false);
                }
            }
        }
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let plan = decode_plan(r)?;
        let mut verifiers = Vec::with_capacity(plan.shards() as usize);
        for _ in 0..plan.shards() {
            if r.bool()? {
                let h = decode_root_hasher::<F>(r)?;
                if h.depth() != plan.log_u() {
                    return Err(invalid(format!(
                        "shard tree depth {} disagrees with plan log_u {}",
                        h.depth(),
                        plan.log_u()
                    )));
                }
                verifiers.push(Some(SubVectorVerifier::from_hasher(h)));
            } else {
                verifiers.push(None);
            }
        }
        Ok(ClusterReportVerifier::from_shard_verifiers(plan, verifiers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_durable::{snapshot_from_bytes, snapshot_to_bytes};
    use sip_field::Fp61;
    use sip_streaming::{workloads, ShardPlan};

    #[test]
    fn cluster_books_roundtrip() {
        let plan = ShardPlan::new(8, 4);
        let stream = workloads::with_deletions(300, 1 << 8, 0.2, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let mut lde = ShardedLde::<Fp61>::random(plan, &mut rng);
        lde.update_batch(&stream);
        let back: ShardedLde<Fp61> = snapshot_from_bytes(&snapshot_to_bytes(&lde)).unwrap();
        assert_eq!(back.values(), lde.values());
        assert_eq!(back.point(), lde.point());
        assert_eq!(back.combined(), lde.combined());
        assert_eq!(back.updates(), lde.updates());

        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        f2.update_all(&stream);
        let back: ClusterF2Verifier<Fp61> = snapshot_from_bytes(&snapshot_to_bytes(&f2)).unwrap();
        assert_eq!(back.lde().values(), f2.lde().values());

        let mut report = ClusterReportVerifier::<Fp61>::new(plan, &mut rng);
        report.update_all(&stream);
        let back: ClusterReportVerifier<Fp61> =
            snapshot_from_bytes(&snapshot_to_bytes(&report)).unwrap();
        for (a, b) in back.shard_verifiers().iter().zip(report.shard_verifiers()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.hasher().keys(), b.hasher().keys());
            assert_eq!(a.hasher().root(), b.hasher().root());
        }
    }
}
