//! Crash recovery against the real `sip-prover` *process*: ingest half a
//! stream, checkpoint, `SIGKILL` the prover mid-session, restart it with
//! the same `--data-dir`, resume, finish the stream, and verify — the
//! answer must equal the ground truth computed over the whole stream.
//!
//! This is the strongest recovery claim the test suite makes: no orderly
//! shutdown, no flush-on-exit — whatever the kill leaves on disk is what
//! the write-temp-then-rename discipline left there.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_core::sumcheck::f2::F2Verifier;
use sip_durable::{snapshot_from_bytes, snapshot_to_bytes};
use sip_field::{Fp61, PrimeField};
use sip_server::client::RawClient;
use sip_streaming::{workloads, FrequencyVector};

struct Prover {
    child: Child,
    addr: SocketAddr,
}

fn spawn_prover(data_dir: &std::path::Path) -> Prover {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sip-prover"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            // Still sent by the frozen benchmark harness; parsed and ignored.
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("sip-prover spawns");
    // The prover prints "… listening on ADDR" once bound; port 0 makes
    // this the only way to learn the port.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("prover exited before binding")
            .expect("prover stdout readable");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.trim().parse().expect("printed address parses");
        }
    };
    Prover { child, addr }
}

#[test]
fn sigkill_mid_session_then_resume() {
    let data_dir =
        std::env::temp_dir().join(format!("sip-process-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    let log_u = 10;
    let stream = workloads::with_deletions(500, 1 << log_u, 0.2, 77);
    let cut = stream.len() / 2;
    let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();

    // ---- Session 1: half the stream, checkpoint, SIGKILL. ----
    let mut prover = spawn_prover(&data_dir);
    let mut client: RawClient<Fp61, _> =
        RawClient::connect_with_timeout(prover.addr, log_u, Duration::from_secs(10)).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
    digest.update_batch(&stream[..cut]);
    client.send_batch(&stream[..cut]);
    client.save_state("half-done").unwrap();
    let digest_snapshot = snapshot_to_bytes(&digest);

    // Kill -9: the process gets no chance to flush anything.
    prover.child.kill().expect("kill");
    prover.child.wait().expect("wait");
    drop(client);
    drop(digest);

    // ---- Session 2: fresh process, same data dir, resume, finish. ----
    let mut prover = spawn_prover(&data_dir);
    let mut client: RawClient<Fp61, _> =
        RawClient::connect_with_timeout(prover.addr, log_u, Duration::from_secs(10)).unwrap();
    let resumed = client.resume("half-done").unwrap();
    assert_eq!(resumed, vec!["half-done".to_string()]);
    let mut digest: F2Verifier<Fp61> = snapshot_from_bytes(&digest_snapshot).unwrap();
    digest.update_batch(&stream[cut..]);
    client.send_batch(&stream[cut..]);
    let got = client.verify_f2(digest).expect("recovered prover accepted");
    assert_eq!(got.value, Fp61::from_u128(truth as u128));
    client.bye().unwrap();

    prover.child.kill().ok();
    prover.child.wait().ok();
    let _ = std::fs::remove_dir_all(&data_dir);
}
