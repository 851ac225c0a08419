//! Metric-name stability golden test: every metric the workspace
//! registers during a full serving session (plus a fleet-scraper round)
//! must appear in `obs::METRIC_HELP` — the pinned scrape-surface
//! contract. Renaming a metric, or adding one without `# HELP` text, is
//! a conscious reviewed change to that table, never a refactor side
//! effect.
//!
//! Shares the process-global registry with the other root-level test
//! binaries' rules: register plenty, assert on *names*, not values.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::sumcheck::f2::F2Verifier;
use sip::field::Fp61;
use sip::fleetobs::{FleetConfig, FleetScraper, Target};
use sip::obs;
use sip::server::client::RawClient;
use sip::server::{spawn, ServerConfig};
use sip::streaming::workloads;

/// Strips a histogram-series suffix down to the registered base name.
fn base_name(mut name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            // Only histogram families use these suffixes; plain counters
            // ending in e.g. `_total` never collide with them.
            name = stripped;
            break;
        }
    }
    name
}

#[test]
fn every_registered_metric_is_in_the_help_table() {
    // 1. A real session touches the server/ingest/registry/cost families.
    let log_u = 4u32;
    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let mut verifiers: Vec<_> = (0..3)
        .map(|_| F2Verifier::<Fp61>::new(log_u, &mut rng))
        .collect();
    for up in workloads::paper_f2(1 << log_u, 11) {
        for verifier in verifiers.iter_mut() {
            verifier.update(up);
        }
        client.send_update(up);
    }
    client.end_stream().unwrap();
    let mut verify = |client: &mut RawClient<Fp61, _>| {
        let verifier = verifiers.pop().expect("one digest per query");
        client.verify_f2(verifier).expect("honest prover accepted");
    };
    verify(&mut client);
    client.publish("golden-ds").unwrap();
    // Two F₂ queries over the now-published dataset, both from the head
    // the publish built.
    verify(&mut client);
    verify(&mut client);
    client.bye().unwrap();

    // 2. One scraper round registers the sip_fleet_* family.
    let ops = server.ops_addr().unwrap().to_string();
    let scraper = FleetScraper::new(
        FleetConfig::default(),
        vec![Target {
            shard: 0,
            replica: 0,
            addr: ops,
        }],
    );
    scraper.scrape_once();
    server.shutdown();

    // 3. Every base name the registry now renders must be pinned in
    //    METRIC_HELP, and must therefore carry a # HELP line.
    let text = obs::registry().render_prometheus();
    let mut missing = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap_or("");
        let base = base_name(name);
        if obs::help_for(base).is_none() && !missing.contains(&base.to_string()) {
            missing.push(base.to_string());
        }
        assert!(
            text.contains(&format!("# HELP {base} ")) || obs::help_for(base).is_none(),
            "{base} is pinned but renders without its # HELP line"
        );
    }
    assert!(
        missing.is_empty(),
        "metrics registered outside the METRIC_HELP stability table \
         (add them to crates/obs/src/metrics.rs METRIC_HELP): {missing:?}"
    );

    // The publish built the dataset's head, counted, timed and sized; the
    // query before it swept the private store (an array too full to pack,
    // which no query builds a head for), the two after started from the
    // head, and
    // each was booked under its start. Which source a
    // head-started proof's k-variable bind read has a series per source
    // (at log_u = 4 the head answers every round, so neither has counted).
    // The private store went dense once the updates reached u/8 = 2.
    for series in [
        "sip_server_store_promotions_total ",
        "sip_registry_f2_head_builds_total ",
        "sip_registry_f2_head_build_us_count ",
        "sip_registry_f2_head_bytes_count ",
        "sip_fold_binds_total{source=\"array\"} ",
        "sip_fold_binds_total{source=\"packed\"} ",
        "sip_server_sumcheck_provers_total{query=\"self-join\",start=\"sweep\"} ",
        "sip_server_sumcheck_provers_total{query=\"self-join\",start=\"head\"} ",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "{series}missing from the exposition"
        );
    }

    // 4. And the reverse direction cannot rot silently either: every
    //    pinned name that did get registered in this session renders with
    //    exactly one HELP line.
    for (name, _) in obs::METRIC_HELP {
        let help_lines = text
            .lines()
            .filter(|l| l.starts_with(&format!("# HELP {name} ")))
            .count();
        assert!(help_lines <= 1, "{name} renders {help_lines} HELP lines");
    }
}
