//! `sip-prover`: a deployable prover process — one shard of a fleet, or a
//! standalone prover.
//!
//! ```text
//! sip-prover --listen 0.0.0.0:4017 --shard 2 --of 4 --log-u 20
//! ```
//!
//! * `--listen ADDR` — bind address (default `127.0.0.1:4017`; port 0 picks
//!   a free port, printed on startup for scripts).
//! * `--shard I --of N` — serve shard `I` of a fleet of `N` under the
//!   deterministic `ShardPlan` split; updates outside the shard's index
//!   range are refused, and a client `ShardHello` must agree. Omit both for
//!   a standalone (whole-universe) prover.
//! * `--log-u D` — require every session to run over `[2^D]` (fleet members
//!   must agree on the universe or the shard ranges would not line up).
//! * `--field 61|127` — Mersenne field (default 61).
//! * `--max-sessions N` — concurrent-session cap (default 64).
//! * `--threads N` — accepted and ignored: the prover engine is serial
//!   (EXPERIMENTS.md, "Why the engines are serial"). The flag is parsed
//!   only because the frozen `sipbench` harness still passes
//!   `--threads 1`; it goes when the harness stops sending it.
//! * `--metrics-addr ADDR` — bind a read-only ops listener: `/metrics` is
//!   Prometheus text, `/stats` a JSON snapshot. Runs on its own thread and
//!   never touches a serving session.
//! * `--log-json PATH` — append structured events to `PATH` as JSON lines
//!   (without it, `warn`+ events go to stderr).
//! * `--strict-load` — with `--data-dir`, exit nonzero if any snapshot on
//!   disk fails to reload instead of skipping it with a warning.
//! * `--trace` — enable causal span tracing (default off): sessions join
//!   verifier-announced traces, spans export at the ops listener's
//!   `/trace` as Chrome trace-event JSON, and flight-recorder dumps carry
//!   span trees.
//!
//! The process serves until killed. Soundness never depends on this binary
//! behaving: the verifier rejects anything inconsistent with its digests.

use std::process::exit;

use sip_field::{Fp127, Fp61};
use sip_server::{spawn, ServerConfig};
use sip_wire::ShardSpec;

struct Args {
    listen: String,
    shard: Option<u32>,
    of: Option<u32>,
    replica: u32,
    log_u: Option<u32>,
    field: u32,
    max_sessions: usize,
    data_dir: Option<String>,
    metrics_addr: Option<String>,
    log_json: Option<String>,
    strict_load: bool,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sip-prover [--listen ADDR] [--shard I --of N [--replica R]] [--log-u D] \
         [--field 61|127] [--max-sessions N] [--data-dir PATH] \
         [--metrics-addr ADDR] [--log-json PATH] [--strict-load] \
         [--trace]\n\
         \n\
         --replica R    which replica of shard I this prover is (default 0);\n\
         \x20              replicas of a shard ingest the identical sub-stream\n\
         --data-dir P   persist published datasets and checkpoints under P\n\
         \x20              and reload them on startup (crash recovery); omit\n\
         \x20              for a memory-only prover\n\
         --metrics-addr A  read-only ops listener: /metrics (Prometheus\n\
         \x20              text), /stats (JSON), /trace (Chrome trace JSON)\n\
         --log-json P   append structured events to P as JSON lines\n\
         --strict-load  exit nonzero if any --data-dir snapshot fails to\n\
         \x20              reload, instead of skipping it with a warning\n\
         --trace        enable causal span tracing (spans export at /trace;\n\
         \x20              rejection dumps carry span trees)"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:4017".to_string(),
        shard: None,
        of: None,
        replica: 0,
        log_u: None,
        field: 61,
        max_sessions: 64,
        data_dir: None,
        metrics_addr: None,
        log_json: None,
        strict_load: false,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--shard" => args.shard = Some(parse_u32(&value("--shard"), "--shard")),
            "--of" => args.of = Some(parse_u32(&value("--of"), "--of")),
            "--replica" => args.replica = parse_u32(&value("--replica"), "--replica"),
            "--log-u" => args.log_u = Some(parse_u32(&value("--log-u"), "--log-u")),
            "--field" => args.field = parse_u32(&value("--field"), "--field"),
            "--max-sessions" => {
                args.max_sessions = parse_u32(&value("--max-sessions"), "--max-sessions") as usize
            }
            "--threads" => {
                if parse_u32(&value("--threads"), "--threads") > 1 {
                    eprintln!("--threads: the prover engine is serial; see EXPERIMENTS.md");
                }
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--log-json" => args.log_json = Some(value("--log-json")),
            "--strict-load" => args.strict_load = true,
            "--trace" => args.trace = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_u32(s: &str, name: &str) -> u32 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{name}: not a number: {s}");
        usage()
    })
}

fn main() {
    let args = parse_args();
    if args.trace {
        sip_obs::trace::set_tracing(true);
    }
    if let Some(path) = &args.log_json {
        match sip_obs::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => sip_obs::add_sink(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("--log-json {path}: {e}");
                exit(1);
            }
        }
    }
    let shard = match (args.shard, args.of) {
        (Some(index), Some(count)) => {
            if index >= count {
                eprintln!("--shard {index} must be below --of {count}");
                exit(2);
            }
            Some(ShardSpec::with_replica(index, count, args.replica))
        }
        (None, None) => {
            if args.replica != 0 {
                eprintln!("--replica requires --shard and --of");
                exit(2);
            }
            None
        }
        _ => {
            eprintln!("--shard and --of must be given together");
            exit(2);
        }
    };
    if let Some(spec) = shard {
        // A shard's index range depends on log_u; without pinning it, two
        // sessions could carve the universe differently.
        let Some(log_u) = args.log_u else {
            eprintln!("--shard requires --log-u so every session agrees on the split");
            exit(2);
        };
        // Catch an impossible fleet shape now, not one refusal per session.
        if let Err(detail) = sip_streaming::ShardPlan::validate(log_u, spec.count) {
            eprintln!("invalid fleet shape: {detail}");
            exit(2);
        }
    }
    let config = ServerConfig {
        max_sessions: args.max_sessions,
        shard,
        require_log_u: args.log_u,
        data_dir: args.data_dir.as_ref().map(std::path::PathBuf::from),
        metrics_addr: args.metrics_addr.clone(),
        strict_load: args.strict_load,
        ..ServerConfig::default()
    };
    let handle = match args.field {
        61 => spawn::<Fp61, _>(args.listen.as_str(), config),
        127 => spawn::<Fp127, _>(args.listen.as_str(), config),
        other => {
            eprintln!("--field must be 61 or 127, got {other}");
            exit(2);
        }
    };
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            // Covers both a failed bind and a --strict-load refusal; the
            // error text names which.
            eprintln!("sip-prover: startup failed on {}: {e}", args.listen);
            exit(1);
        }
    };
    if let Some(dir) = &args.data_dir {
        println!("sip-prover: durable data dir {dir}");
    }
    if let Some(ops) = handle.ops_addr() {
        println!("sip-prover: metrics on http://{ops}/metrics (stats: /stats)");
    }
    match shard {
        Some(spec) => println!(
            "sip-prover: shard {}/{} (Fp{}) listening on {}",
            spec.index,
            spec.count,
            args.field,
            handle.local_addr()
        ),
        None => println!(
            "sip-prover: standalone (Fp{}) listening on {}",
            args.field,
            handle.local_addr()
        ),
    }
    handle.wait();
}
