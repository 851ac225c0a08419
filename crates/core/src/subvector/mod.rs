//! The SUB-VECTOR protocol (Section 4.1, Theorem 5).
//!
//! The workhorse behind every reporting query: given a range `[q_L, q_R]`
//! fixed *after* the stream, the prover reports the `k` nonzero entries of
//! `(a_{q_L}, …, a_{q_R})` and then proves them correct against a
//! linear "hash tree" whose root the verifier maintained over the stream in
//! `O(log u)` space. A `(log u, log u + k)`-protocol with failure
//! probability `O(log u / p)`.
//!
//! * [`tree`] — the level-keyed linear hash tree: streaming root
//!   computation (equation (8)) for `V`;
//! * [`protocol`] — the `log u − 1`-round interactive reconstruction, and
//!   the prover that hashes each requested sibling straight from its cells.

pub mod protocol;
pub mod tree;

pub use protocol::{
    drive_subvector, run_subvector, run_subvector_with_adversary, ReportingSession, RoundReply,
    RoundRequest, Step, SubVectorAnswer, SubVectorProver, SubVectorSession, SubVectorVerifier,
    Verified,
};
pub use tree::{HashKind, StreamingRootHasher};
