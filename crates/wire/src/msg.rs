//! The typed protocol messages: everything that crosses the wire after the
//! handshake, in both directions.

use sip_core::error::Rejection;
use sip_core::heavy_hitters::LevelDisclosure;
use sip_core::subvector::{RoundReply, RoundRequest, SubVectorAnswer};
use sip_core::CostReport;
use sip_field::PrimeField;
use sip_streaming::Update;

use crate::codec::{field_width, update_from_wire, Reader, WireCodec, Writer};
use crate::error::WireError;

/// A query the verifier can open after the stream ends.
///
/// Ranges are inclusive `[l, r]`; `threshold` is the absolute heavy-hitter
/// cutoff (`⌈φ·n⌉` for a fraction φ).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// SELF-JOIN SIZE / F₂ over the session vector (§3.1).
    SelfJoin,
    /// RANGE-SUM over `[l, r]` (§3.2).
    RangeSum {
        /// Left end (inclusive).
        l: u64,
        /// Right end (inclusive).
        r: u64,
    },
    /// Range *count* over `[l, r]` (RANGE-SUM on the presence vector).
    RangeCount {
        /// Left end (inclusive).
        l: u64,
        /// Right end (inclusive).
        r: u64,
    },
    /// SUB-VECTOR reporting over `[l, r]` (§4.1).
    Report {
        /// Left end (inclusive).
        l: u64,
        /// Right end (inclusive).
        r: u64,
    },
    /// HEAVY HITTERS at an absolute threshold (§6.1).
    Heavy {
        /// Absolute cutoff (≥ 1).
        threshold: u64,
    },
    /// The claimed predecessor of `q` (kv-store sessions).
    Predecessor {
        /// The probe key.
        q: u64,
    },
    /// The claimed successor of `q` (kv-store sessions).
    Successor {
        /// The probe key.
        q: u64,
    },
}

impl Query {
    /// A short stable name, used in trace spans and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Query::SelfJoin => "self-join",
            Query::RangeSum { .. } => "range-sum",
            Query::RangeCount { .. } => "range-count",
            Query::Report { .. } => "report",
            Query::Heavy { .. } => "heavy",
            Query::Predecessor { .. } => "predecessor",
            Query::Successor { .. } => "successor",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Query::SelfJoin => 0,
            Query::RangeSum { .. } => 1,
            Query::RangeCount { .. } => 2,
            Query::Report { .. } => 3,
            Query::Heavy { .. } => 4,
            Query::Predecessor { .. } => 5,
            Query::Successor { .. } => 6,
        }
    }
}

impl WireCodec for Query {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.tag());
        match *self {
            Query::SelfJoin => {}
            Query::RangeSum { l, r } | Query::RangeCount { l, r } | Query::Report { l, r } => {
                w.u64(l).u64(r);
            }
            Query::Heavy { threshold } => {
                w.u64(threshold);
            }
            Query::Predecessor { q } | Query::Successor { q } => {
                w.u64(q);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Query::SelfJoin,
            1 => Query::RangeSum {
                l: r.u64()?,
                r: r.u64()?,
            },
            2 => Query::RangeCount {
                l: r.u64()?,
                r: r.u64()?,
            },
            3 => Query::Report {
                l: r.u64()?,
                r: r.u64()?,
            },
            4 => Query::Heavy {
                threshold: r.u64()?,
            },
            5 => Query::Predecessor { q: r.u64()? },
            6 => Query::Successor { q: r.u64()? },
            tag => {
                return Err(WireError::BadTag {
                    context: "query",
                    tag,
                })
            }
        })
    }
}

/// Declares which slice of the universe a sharded session serves: shard
/// `index` of a fleet of `count` provers under the deterministic
/// [`sip_streaming::ShardPlan`] split. Sent by the aggregating verifier
/// right after the handshake; the prover then refuses updates outside its
/// range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This prover's shard id, `< count`.
    pub index: u32,
    /// Fleet size `S`.
    pub count: u32,
    /// Which replica of the shard this session claims to be (0 for an
    /// unreplicated fleet). The replica id names a *copy*, not a slice: it
    /// participates in the hello (so a pinned prover can refuse a
    /// mis-addressed client) but is deliberately excluded from query
    /// transcripts — honest replicas of one shard must produce identical
    /// proofs, which is what lets the verifier cross-examine them.
    pub replica: u32,
}

impl ShardSpec {
    /// Shard `index` of `count`, replica 0 (the unreplicated default).
    pub fn new(index: u32, count: u32) -> Self {
        ShardSpec {
            index,
            count,
            replica: 0,
        }
    }

    /// Shard `index` of `count`, replica `replica` of its replica set.
    pub fn with_replica(index: u32, count: u32, replica: u32) -> Self {
        ShardSpec {
            index,
            count,
            replica,
        }
    }

    /// Whether two specs name the same *slice* of the universe, ignoring
    /// the replica id — the compatibility notion for datasets and
    /// snapshots, which describe data, not copies.
    pub fn same_slice(&self, other: &ShardSpec) -> bool {
        self.index == other.index && self.count == other.count
    }
}

impl WireCodec for ShardSpec {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.index).u32(self.count).u32(self.replica);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardSpec {
            index: r.u32()?,
            count: r.u32()?,
            replica: r.u32()?,
        })
    }
}

/// One post-handshake protocol message.
///
/// Direction is by convention (the state machines enforce it): the verifier
/// sends `Ingest`/`EndStream`/`Query`/`Challenge`/`BroadcastChallenge`/
/// `ShardHello`/`SubVectorRound`/`HhKeys`/`Accept`/`Reject`/`Bye`; the
/// prover sends the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg<F> {
    // ----- verifier → prover -----
    /// A batch of stream updates to ingest.
    Ingest(Vec<Update>),
    /// The stream is complete; queries follow.
    EndStream,
    /// Open a query session.
    Query(Query),
    /// A revealed sum-check challenge `r_j`.
    Challenge(F),
    /// A sub-vector round: the revealed level key plus sibling requests.
    SubVectorRound(RoundRequest<F>),
    /// Heavy hitters: reveal the level keys `(r_level, s_level)`.
    HhKeys {
        /// The level whose disclosure should come next.
        level: u32,
        /// The hash key `r_level`.
        r: F,
        /// The count key `s_level`.
        s: F,
    },
    /// This connection serves one shard of a fleet (v2): must precede any
    /// [`Msg::Ingest`] on a sharded session.
    ShardHello(ShardSpec),
    /// A sum-check challenge broadcast by an aggregating verifier to every
    /// shard of a fleet (v2). `round` is the 1-based index of the round
    /// polynomial the challenge answers — the prover checks it against its
    /// own round counter so a desynchronised fleet fails loudly instead of
    /// binding the wrong variable.
    BroadcastChallenge {
        /// Index of the round polynomial this challenge responds to.
        round: u32,
        /// The revealed randomness `r_round`.
        challenge: F,
    },
    /// Freeze this session's ingested data and publish it server-wide under
    /// `dataset_id` (v3): later sessions may [`Msg::Attach`] to it, and this
    /// session keeps querying the now-frozen snapshot. Answered with
    /// [`Msg::DatasetAck`].
    Publish {
        /// Registry name for the frozen dataset.
        dataset_id: String,
    },
    /// Serve this session's queries from the published dataset
    /// `dataset_id` instead of session-local ingest (v3): the session's
    /// handshake mode and `log_u` must match the dataset's. Answered with
    /// [`Msg::DatasetAck`].
    Attach {
        /// Registry name of the dataset to attach to.
        dataset_id: String,
    },
    /// Persist this session's current (session-private) data as a durable
    /// named checkpoint in the server's data directory (v4): the session
    /// keeps ingesting and querying, and after a server crash a fresh
    /// session can [`Msg::Resume`] the checkpoint. Re-saving under the
    /// same id overwrites (checkpoints progress). Answered with
    /// [`Msg::StateAck`] enumerating everything durable. Refused when the
    /// server has no data directory.
    SaveState {
        /// Durable name for the checkpoint.
        dataset_id: String,
    },
    /// Serve this session from the durable state saved under `dataset_id`
    /// (v4): a named checkpoint thaws into a session-private store (ingest
    /// continues where it stopped), a published dataset attaches frozen,
    /// exactly like [`Msg::Attach`]. Must precede any ingest; mode,
    /// `log_u`, and shard identity must agree with the saved state.
    /// Answered with [`Msg::StateAck`] naming the resumed id.
    Resume {
        /// Durable name of the checkpoint or published dataset.
        dataset_id: String,
    },
    /// Ask the server for its live metrics snapshot (ops, not protocol:
    /// the answer is advisory operator telemetry, never verified data).
    /// Answered with [`Msg::StatsReply`]. A v4-compatible extension — the
    /// tag is new but nothing existing changed encoding, so older peers
    /// refuse it explicitly as a bad tag instead of misparsing.
    Stats,
    /// Adopt this causal trace context for the session (ops, not
    /// protocol): subsequent server-side spans and flight-recorder dumps
    /// join trace `trace_id` as children of the verifier's `parent_span`,
    /// so one sharded query exports as a single span tree. Advisory
    /// telemetry with no reply; sent only when client-side tracing is on.
    /// A v4-compatible extension like [`Msg::Stats`] — the tag is new but
    /// nothing existing changed encoding, so older peers refuse it
    /// explicitly as a bad tag instead of misparsing.
    TraceContext {
        /// The verifier-minted 64-bit id of the whole trace.
        trace_id: u64,
        /// The verifier-side span the server's work nests under.
        parent_span: u64,
    },
    /// Open a query *and* reveal the sum-check challenge prefix
    /// `r_1, …, r_{d−1}` in one frame (v5): the prover walks every round
    /// locally and answers with a single [`Msg::Proof`], collapsing the
    /// `O(log u)` interactive round trips into one. The last coordinate
    /// `r_d` stays secret — the final check still evaluates `g_d` there
    /// against the verifier's streamed LDE value.
    QueryOneShot {
        /// Which aggregate query to answer (self-join, range-sum,
        /// range-count).
        query: Query,
        /// The revealed challenge prefix, length `log_u − 1`.
        challenges: Vec<F>,
    },
    /// The verifier accepted the current query's proof.
    Accept,
    /// The verifier rejected; the payload says why (the prover lost).
    Reject(Rejection),
    /// End of session; the prover may close the connection.
    Bye,

    // ----- prover → verifier -----
    /// The prover's claimed answer to an aggregate query, as a field
    /// element (the LDE-checked value the sum-check will bind).
    ClaimedValue(F),
    /// A sum-check round polynomial, as `degree + 1` evaluations.
    RoundPoly(Vec<F>),
    /// The claimed nonzero entries of a sub-vector query.
    SubVectorAnswer(SubVectorAnswer<F>),
    /// Sibling hashes answering a [`Msg::SubVectorRound`].
    SubVectorReply(RoundReply<F>),
    /// One level of the heavy-hitters skeleton.
    HhDisclosure(LevelDisclosure<F>),
    /// A claimed predecessor/successor key (`None` = no such key).
    KeyClaim(Option<u64>),
    /// Confirms a [`Msg::Publish`] or [`Msg::Attach`] (v3), echoing the
    /// dataset id the session is now bound to.
    DatasetAck {
        /// The dataset the session now serves.
        dataset_id: String,
    },
    /// Confirms a [`Msg::SaveState`] or [`Msg::Resume`] (v4), listing the
    /// durable dataset ids now on the server's disk (for `SaveState`: the
    /// full enumeration; for `Resume`: the one resumed id).
    StateAck {
        /// Durable dataset ids, sorted.
        dataset_ids: Vec<String>,
    },
    /// The server's metrics snapshot answering [`Msg::Stats`]: the same
    /// JSON document the `--metrics-addr` listener serves at `/stats`.
    /// Advisory and unauthenticated, like [`Msg::Cost`].
    StatsReply {
        /// JSON snapshot of the server's metrics registry.
        json: String,
    },
    /// The complete one-shot sum-check proof answering a
    /// [`Msg::QueryOneShot`] (v5): claimed output, every round polynomial,
    /// and the prover's transcript digest over the query context and proof
    /// body. The verifier replays the hash chain and runs all round checks
    /// deferred (see `sip_core::sumcheck::oneshot`).
    Proof {
        /// The claimed query output `Σ_{x∈[ℓ]} g_1(x)`.
        claimed: F,
        /// Round polynomials `g_1, …, g_d`, each as `degree + 1`
        /// evaluations.
        rounds: Vec<Vec<F>>,
        /// 32-byte transcript digest sealing the proof to its context.
        digest: [u8; 32],
    },
    /// The prover's own cumulative cost accounting for the connection,
    /// sent in reply to [`Msg::Bye`] (advisory; the verifier keeps its own
    /// books).
    Cost(CostReport),
    /// The prover cannot continue (bad state, internal error). Human
    /// readable; never trusted.
    Error(String),
}

impl<F> Msg<F> {
    /// A short stable name, used in `UnexpectedMessage` errors.
    pub fn name(&self) -> &'static str {
        match self {
            Msg::Ingest(_) => "ingest",
            Msg::EndStream => "end-stream",
            Msg::Query(_) => "query",
            Msg::Challenge(_) => "challenge",
            Msg::SubVectorRound(_) => "subvector-round",
            Msg::HhKeys { .. } => "hh-keys",
            Msg::ShardHello(_) => "shard-hello",
            Msg::BroadcastChallenge { .. } => "broadcast-challenge",
            Msg::Publish { .. } => "publish",
            Msg::Attach { .. } => "attach",
            Msg::SaveState { .. } => "save-state",
            Msg::Resume { .. } => "resume",
            Msg::DatasetAck { .. } => "dataset-ack",
            Msg::StateAck { .. } => "state-ack",
            Msg::Stats => "stats",
            Msg::TraceContext { .. } => "trace-context",
            Msg::StatsReply { .. } => "stats-reply",
            Msg::QueryOneShot { .. } => "query-oneshot",
            Msg::Proof { .. } => "proof",
            Msg::Accept => "accept",
            Msg::Reject(_) => "reject",
            Msg::Bye => "bye",
            Msg::ClaimedValue(_) => "claimed-value",
            Msg::RoundPoly(_) => "round-poly",
            Msg::SubVectorAnswer(_) => "subvector-answer",
            Msg::SubVectorReply(_) => "subvector-reply",
            Msg::HhDisclosure(_) => "hh-disclosure",
            Msg::KeyClaim(_) => "key-claim",
            Msg::Cost(_) => "cost",
            Msg::Error(_) => "error",
        }
    }
}

const TAG_INGEST: u8 = 0x01;
const TAG_END_STREAM: u8 = 0x02;
const TAG_QUERY: u8 = 0x03;
const TAG_CHALLENGE: u8 = 0x04;
const TAG_SUBVECTOR_ROUND: u8 = 0x05;
const TAG_HH_KEYS: u8 = 0x06;
const TAG_ACCEPT: u8 = 0x07;
const TAG_REJECT: u8 = 0x08;
const TAG_BYE: u8 = 0x09;
const TAG_SHARD_HELLO: u8 = 0x0A;
const TAG_BROADCAST_CHALLENGE: u8 = 0x0B;
const TAG_PUBLISH: u8 = 0x0C;
const TAG_ATTACH: u8 = 0x0D;
const TAG_SAVE_STATE: u8 = 0x0E;
const TAG_RESUME: u8 = 0x0F;
const TAG_STATS: u8 = 0x10;
const TAG_TRACE_CONTEXT: u8 = 0x11;
const TAG_QUERY_ONESHOT: u8 = 0x12;
const TAG_CLAIMED_VALUE: u8 = 0x81;
const TAG_ROUND_POLY: u8 = 0x82;
const TAG_SUBVECTOR_ANSWER: u8 = 0x83;
const TAG_SUBVECTOR_REPLY: u8 = 0x84;
const TAG_HH_DISCLOSURE: u8 = 0x85;
const TAG_KEY_CLAIM: u8 = 0x86;
const TAG_COST: u8 = 0x87;
const TAG_ERROR: u8 = 0x88;
const TAG_DATASET_ACK: u8 = 0x89;
const TAG_STATE_ACK: u8 = 0x8A;
const TAG_STATS_REPLY: u8 = 0x8B;
const TAG_PROOF: u8 = 0x8C;

/// Upper bound on the sum-check round count a decoder accepts in a
/// [`Msg::QueryOneShot`] challenge prefix or a [`Msg::Proof`] frame —
/// comfortably above the servers' `MAX_LOG_U` (40) yet small enough that a
/// forged count cannot drive a large allocation.
pub const MAX_PROOF_ROUNDS: usize = 64;

/// Refuses round counts beyond [`MAX_PROOF_ROUNDS`].
fn bounded_rounds(n: usize) -> Result<(), WireError> {
    if n > MAX_PROOF_ROUNDS {
        return Err(WireError::CountTooLarge {
            count: n,
            have: MAX_PROOF_ROUNDS,
        });
    }
    Ok(())
}

impl<F: PrimeField> WireCodec for Msg<F> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Msg::Ingest(ups) => {
                w.u8(TAG_INGEST).count(ups.len());
                for up in ups {
                    up.encode(w);
                }
            }
            Msg::EndStream => {
                w.u8(TAG_END_STREAM);
            }
            Msg::Query(q) => {
                w.u8(TAG_QUERY);
                q.encode(w);
            }
            Msg::Challenge(x) => {
                w.u8(TAG_CHALLENGE).field(*x);
            }
            Msg::SubVectorRound(req) => {
                w.u8(TAG_SUBVECTOR_ROUND);
                req.encode(w);
            }
            Msg::HhKeys { level, r, s } => {
                w.u8(TAG_HH_KEYS).u32(*level).field(*r).field(*s);
            }
            Msg::ShardHello(spec) => {
                w.u8(TAG_SHARD_HELLO);
                spec.encode(w);
            }
            Msg::BroadcastChallenge { round, challenge } => {
                w.u8(TAG_BROADCAST_CHALLENGE).u32(*round).field(*challenge);
            }
            Msg::Publish { dataset_id } => {
                w.u8(TAG_PUBLISH).string(dataset_id);
            }
            Msg::Attach { dataset_id } => {
                w.u8(TAG_ATTACH).string(dataset_id);
            }
            Msg::SaveState { dataset_id } => {
                w.u8(TAG_SAVE_STATE).string(dataset_id);
            }
            Msg::Resume { dataset_id } => {
                w.u8(TAG_RESUME).string(dataset_id);
            }
            Msg::DatasetAck { dataset_id } => {
                w.u8(TAG_DATASET_ACK).string(dataset_id);
            }
            Msg::StateAck { dataset_ids } => {
                w.u8(TAG_STATE_ACK).count(dataset_ids.len());
                for id in dataset_ids {
                    w.string(id);
                }
            }
            Msg::Stats => {
                w.u8(TAG_STATS);
            }
            Msg::TraceContext {
                trace_id,
                parent_span,
            } => {
                w.u8(TAG_TRACE_CONTEXT).u64(*trace_id).u64(*parent_span);
            }
            Msg::StatsReply { json } => {
                w.u8(TAG_STATS_REPLY).string(json);
            }
            Msg::QueryOneShot { query, challenges } => {
                w.u8(TAG_QUERY_ONESHOT);
                query.encode(w);
                w.count(challenges.len());
                for &c in challenges {
                    w.field(c);
                }
            }
            Msg::Proof {
                claimed,
                rounds,
                digest,
            } => {
                w.u8(TAG_PROOF).field(*claimed).count(rounds.len());
                for g in rounds {
                    w.count(g.len());
                    for &e in g {
                        w.field(e);
                    }
                }
                w.raw(digest);
            }
            Msg::Accept => {
                w.u8(TAG_ACCEPT);
            }
            Msg::Reject(rej) => {
                w.u8(TAG_REJECT);
                rej.encode(w);
            }
            Msg::Bye => {
                w.u8(TAG_BYE);
            }
            Msg::ClaimedValue(x) => {
                w.u8(TAG_CLAIMED_VALUE).field(*x);
            }
            Msg::RoundPoly(evals) => {
                w.u8(TAG_ROUND_POLY).count(evals.len());
                for &e in evals {
                    w.field(e);
                }
            }
            Msg::SubVectorAnswer(ans) => {
                w.u8(TAG_SUBVECTOR_ANSWER);
                ans.encode(w);
            }
            Msg::SubVectorReply(rep) => {
                w.u8(TAG_SUBVECTOR_REPLY);
                rep.encode(w);
            }
            Msg::HhDisclosure(disc) => {
                w.u8(TAG_HH_DISCLOSURE);
                disc.encode(w);
            }
            Msg::KeyClaim(k) => {
                w.u8(TAG_KEY_CLAIM).option(*k, |w, v| {
                    w.u64(v);
                });
            }
            Msg::Cost(c) => {
                w.u8(TAG_COST);
                c.encode(w);
            }
            Msg::Error(e) => {
                w.u8(TAG_ERROR).string(e);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            TAG_INGEST => Msg::Ingest(r.seq_fixed(update_from_wire)?),
            TAG_END_STREAM => Msg::EndStream,
            TAG_QUERY => Msg::Query(Query::decode(r)?),
            TAG_CHALLENGE => Msg::Challenge(r.field()?),
            TAG_SUBVECTOR_ROUND => Msg::SubVectorRound(RoundRequest::decode(r)?),
            TAG_HH_KEYS => Msg::HhKeys {
                level: r.u32()?,
                r: r.field()?,
                s: r.field()?,
            },
            TAG_SHARD_HELLO => Msg::ShardHello(ShardSpec::decode(r)?),
            TAG_BROADCAST_CHALLENGE => Msg::BroadcastChallenge {
                round: r.u32()?,
                challenge: r.field()?,
            },
            TAG_PUBLISH => Msg::Publish {
                dataset_id: r.string()?,
            },
            TAG_ATTACH => Msg::Attach {
                dataset_id: r.string()?,
            },
            TAG_SAVE_STATE => Msg::SaveState {
                dataset_id: r.string()?,
            },
            TAG_RESUME => Msg::Resume {
                dataset_id: r.string()?,
            },
            TAG_DATASET_ACK => Msg::DatasetAck {
                dataset_id: r.string()?,
            },
            TAG_STATE_ACK => Msg::StateAck {
                dataset_ids: r.seq(4, |r| r.string())?,
            },
            TAG_STATS => Msg::Stats,
            TAG_TRACE_CONTEXT => Msg::TraceContext {
                trace_id: r.u64()?,
                parent_span: r.u64()?,
            },
            TAG_STATS_REPLY => Msg::StatsReply { json: r.string()? },
            TAG_QUERY_ONESHOT => {
                let query = Query::decode(r)?;
                let challenges = r.seq(field_width::<F>(), |r| r.field())?;
                bounded_rounds(challenges.len())?;
                Msg::QueryOneShot { query, challenges }
            }
            TAG_PROOF => {
                let claimed = r.field()?;
                let n = r.count(4 + field_width::<F>())?;
                bounded_rounds(n)?;
                let mut rounds = Vec::with_capacity(n);
                for _ in 0..n {
                    rounds.push(r.seq(field_width::<F>(), |r| r.field())?);
                }
                let digest: [u8; 32] = r.raw(32)?.try_into().unwrap();
                Msg::Proof {
                    claimed,
                    rounds,
                    digest,
                }
            }
            TAG_ACCEPT => Msg::Accept,
            TAG_REJECT => Msg::Reject(Rejection::decode(r)?),
            TAG_BYE => Msg::Bye,
            TAG_CLAIMED_VALUE => Msg::ClaimedValue(r.field()?),
            TAG_ROUND_POLY => Msg::RoundPoly(r.seq(field_width::<F>(), |r| r.field())?),
            TAG_SUBVECTOR_ANSWER => Msg::SubVectorAnswer(SubVectorAnswer::decode(r)?),
            TAG_SUBVECTOR_REPLY => Msg::SubVectorReply(RoundReply::decode(r)?),
            TAG_HH_DISCLOSURE => Msg::HhDisclosure(LevelDisclosure::decode(r)?),
            TAG_KEY_CLAIM => Msg::KeyClaim(r.option(|r| r.u64())?),
            TAG_COST => Msg::Cost(CostReport::decode(r)?),
            TAG_ERROR => Msg::Error(r.string()?),
            tag => {
                return Err(WireError::BadTag {
                    context: "message",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_core::heavy_hitters::DisclosedNode;
    use sip_field::Fp61;

    fn f(x: u64) -> Fp61 {
        Fp61::from_u64(x)
    }

    fn roundtrip(msg: Msg<Fp61>) {
        let bytes = msg.to_bytes();
        assert_eq!(
            Msg::<Fp61>::from_bytes(&bytes).unwrap(),
            msg,
            "{}",
            msg.name()
        );
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Msg::Ingest(vec![
            Update::new(0, 1),
            Update::new(u64::MAX, -5),
        ]));
        roundtrip(Msg::EndStream);
        roundtrip(Msg::Query(Query::SelfJoin));
        roundtrip(Msg::Query(Query::RangeSum { l: 3, r: 900 }));
        roundtrip(Msg::Query(Query::RangeCount { l: 0, r: 0 }));
        roundtrip(Msg::Query(Query::Report { l: 7, r: 8 }));
        roundtrip(Msg::Query(Query::Heavy { threshold: 42 }));
        roundtrip(Msg::Query(Query::Predecessor { q: 11 }));
        roundtrip(Msg::Query(Query::Successor { q: 12 }));
        roundtrip(Msg::Challenge(f(999)));
        roundtrip(Msg::SubVectorRound(RoundRequest {
            level: 3,
            challenge: f(17),
            left: Some(4),
            right: None,
        }));
        roundtrip(Msg::HhKeys {
            level: 2,
            r: f(5),
            s: f(6),
        });
        roundtrip(Msg::ShardHello(ShardSpec::new(3, 8)));
        roundtrip(Msg::BroadcastChallenge {
            round: 7,
            challenge: f(424242),
        });
        roundtrip(Msg::Publish {
            dataset_id: "trades-2026-07".into(),
        });
        roundtrip(Msg::Attach {
            dataset_id: String::new(),
        });
        roundtrip(Msg::SaveState {
            dataset_id: "checkpoint-α".into(),
        });
        roundtrip(Msg::Resume {
            dataset_id: "checkpoint-α".into(),
        });
        roundtrip(Msg::StateAck {
            dataset_ids: vec![],
        });
        roundtrip(Msg::StateAck {
            dataset_ids: vec!["a".into(), "trades-2026-07".into()],
        });
        roundtrip(Msg::DatasetAck {
            dataset_id: "δatasets-are-utf8 ✓".into(),
        });
        roundtrip(Msg::Stats);
        roundtrip(Msg::TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 7,
        });
        roundtrip(Msg::TraceContext {
            trace_id: 1,
            parent_span: 0,
        });
        roundtrip(Msg::StatsReply {
            json: "{\"counters\": {}}".into(),
        });
        roundtrip(Msg::StatsReply {
            json: String::new(),
        });
        roundtrip(Msg::QueryOneShot {
            query: Query::SelfJoin,
            challenges: vec![f(1), f(2), f(3)],
        });
        roundtrip(Msg::QueryOneShot {
            query: Query::RangeSum { l: 9, r: 200 },
            challenges: vec![],
        });
        roundtrip(Msg::Proof {
            claimed: f(55),
            rounds: vec![vec![f(1), f(2), f(3)], vec![f(4), f(5), f(6)]],
            digest: [7u8; 32],
        });
        roundtrip(Msg::Proof {
            claimed: f(0),
            rounds: vec![],
            digest: [0u8; 32],
        });
        roundtrip(Msg::Accept);
        roundtrip(Msg::Reject(Rejection::RootMismatch));
        roundtrip(Msg::Reject(Rejection::blame(
            5,
            Rejection::RoundSumMismatch { round: 3 },
        )));
        roundtrip(Msg::Bye);
        roundtrip(Msg::ClaimedValue(f(123)));
        roundtrip(Msg::RoundPoly(vec![f(1), f(2), f(3)]));
        roundtrip(Msg::RoundPoly(vec![]));
        roundtrip(Msg::SubVectorAnswer(SubVectorAnswer {
            entries: vec![(3, f(9)), (5, f(1))],
        }));
        roundtrip(Msg::SubVectorReply(RoundReply {
            left: None,
            right: Some(f(7)),
        }));
        roundtrip(Msg::HhDisclosure(LevelDisclosure {
            level: 1,
            nodes: vec![
                DisclosedNode {
                    index: 0,
                    count: 10,
                    hash: None,
                },
                DisclosedNode {
                    index: 9,
                    count: 1,
                    hash: Some(f(77)),
                },
            ],
        }));
        roundtrip(Msg::KeyClaim(None));
        roundtrip(Msg::KeyClaim(Some(31337)));
        roundtrip(Msg::Cost(CostReport {
            rounds: 1,
            p_to_v_words: 2,
            v_to_p_words: 3,
            verifier_space_words: 4,
        }));
        roundtrip(Msg::Error("session state does not allow this".into()));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Msg::<Fp61>::from_bytes(&[0x40]).unwrap_err(),
            WireError::BadTag {
                context: "message",
                tag: 0x40
            }
        ));
    }

    #[test]
    fn truncated_message_rejected() {
        let msg = Msg::RoundPoly(vec![f(1), f(2), f(3)]);
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            let err = Msg::<Fp61>::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn truncated_proof_rejected() {
        let msg = Msg::Proof {
            claimed: f(55),
            rounds: vec![vec![f(1), f(2), f(3)], vec![f(4), f(5), f(6)]],
            digest: [9u8; 32],
        };
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Msg::<Fp61>::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn proof_round_count_is_bounded() {
        // A frame claiming more rounds than MAX_PROOF_ROUNDS is refused
        // before any allocation, even if the byte budget would allow it.
        let inner = vec![f(0); 1];
        let rounds = vec![inner; MAX_PROOF_ROUNDS + 1];
        let msg = Msg::Proof {
            claimed: f(1),
            rounds,
            digest: [0u8; 32],
        };
        let bytes = msg.to_bytes();
        assert!(matches!(
            Msg::<Fp61>::from_bytes(&bytes).unwrap_err(),
            WireError::CountTooLarge { .. }
        ));
        let msg = Msg::QueryOneShot {
            query: Query::SelfJoin,
            challenges: vec![f(0); MAX_PROOF_ROUNDS + 1],
        };
        let bytes = msg.to_bytes();
        assert!(matches!(
            Msg::<Fp61>::from_bytes(&bytes).unwrap_err(),
            WireError::CountTooLarge { .. }
        ));
    }

    #[test]
    fn extended_message_rejected() {
        let mut bytes = Msg::Challenge(f(4)).to_bytes();
        bytes.push(0);
        assert_eq!(
            Msg::<Fp61>::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
