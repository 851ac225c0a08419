//! The streaming interactive proof protocols of Cormode–Thaler–Yi
//! (VLDB 2011).
//!
//! A space-limited verifier `V` observes a stream of updates to an implicit
//! frequency vector `a ∈ Z_p^u`, retaining only `O(log u)` words, then runs a
//! short interactive protocol with an untrusted prover `P` holding the full
//! data. An honest prover always convinces `V`; a cheating prover is caught
//! except with probability `O(log u / p)` — about `10⁻¹⁶` over the default
//! field [`sip_field::Fp61`].
//!
//! | Query | Protocol | Paper | Cost `(space, comm)` |
//! |---|---|---|---|
//! | SELF-JOIN SIZE (F₂) | [`sumcheck::f2`] | §3.1 | `(log u, log u)` |
//! | frequency moments F_k | [`sumcheck::moments`] | §3.2 | `(log u, k·log u)` |
//! | INNER PRODUCT | [`sumcheck::inner_product`] | §3.2 | `(log u, log u)` |
//! | RANGE-SUM | [`sumcheck::range_sum`] | §3.2 | `(log u, log u)` |
//! | SUB-VECTOR | [`subvector`] | §4.1 | `(log u, log u + k)` |
//! | INDEX, DICTIONARY, PREDECESSOR, … | [`reporting`] | §4.2 | `(log u, log u + k)` |
//! | HEAVY HITTERS | [`heavy_hitters`] | §6.1 | `(log u, φ⁻¹·log u)` |
//! | F₀, F_max, inverse distribution | [`frequency_fn`] | §6.2 | `(log u, √u·log u)` |
//! | F₂ one-round baseline of \[6\] | [`one_round`] | §5 | `(√u, √u)` |
//!
//! Every protocol separates three roles:
//!
//! * a **streaming verifier state** fed update-by-update while the data is
//!   uploaded (this is all `V` ever stores about the data);
//! * an honest **prover** holding the materialised
//!   [`sip_streaming::FrequencyVector`];
//! * a **verification session** consuming prover *messages* — never prover
//!   internals — so the failure-injection suite can deliver corrupted
//!   messages through exactly the honest code path.
//!
//! Orchestration helpers (`run_*`) execute the honest interaction and return
//! a [`CostReport`] whose word counts regenerate the paper's space and
//! communication figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod channel;
pub mod digest_bank;
pub mod engine;
pub mod error;
pub mod fold;
pub mod frequency_fn;
pub mod heavy_hitters;
pub mod one_round;
pub mod reporting;
pub mod subvector;
pub mod sumcheck;
pub mod transcript;

pub use channel::{
    ClusterCostReport, CostReport, Fault, FaultPlan, FaultTransport, FramedTcpTransport,
    InMemoryTransport, LatencyTransport, RetryPolicy, Transport, TransportError, TransportStats,
};
pub use engine::{Combine, FoldSource};
pub use error::{IoFault, Rejection};
pub use sumcheck::{OneShotProof, ProverWalk, SumCheckSession};
pub use transcript::{digest_words, query_transcript, Transcript};
