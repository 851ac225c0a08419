//! The data-stream input model of Cormode–Thaler–Yi, plus synthetic
//! workloads and ground-truth evaluation.
//!
//! Every protocol in this workspace operates over the paper's input model
//! (Section 2, "Input Model"): the input implicitly defines a vector
//! `a = (a_0, …, a_{u−1})`, initially zero; each stream element is a pair
//! `(i, δ)` applying `a_i ← a_i + δ`. Positive `δ` models insertions or
//! value-associations, negative `δ` deletions.
//!
//! This crate provides:
//!
//! * [`Update`] — one stream element;
//! * [`FrequencyVector`] — dense or sparse materialisation of `a`, used by
//!   honest provers and by tests/benches as the ground truth oracle
//!   (self-join size, frequency moments, range queries, predecessor, heavy
//!   hitters, `F0`, `F_max`, inverse distribution, …);
//! * [`workloads`] — seeded generators for the synthetic streams used in the
//!   paper's experimental study (Section 5: `u = n`, per-item frequency
//!   uniform in `[0, 1000]`) and for the key-value-store scenarios of the
//!   motivating example;
//! * [`shard`] — the deterministic index-range partition a sharded prover
//!   fleet and its aggregating verifier must agree on (`sip-cluster`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frequency;
pub mod shard;
pub mod update;
pub mod workloads;

pub use frequency::{CellOverflow, Entries, FrequencyVector};
pub use shard::ShardPlan;
pub use update::Update;
