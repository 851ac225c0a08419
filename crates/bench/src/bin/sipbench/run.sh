#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the program under test
# (`sip-prover`, from the workspace) and the benchmark (this directory's
# package) into one target directory, then hands every argument to
# `sipbench`, which finds `sip-prover` beside its own executable.
#
# Run from the repository root:
#   bash crates/bench/src/bin/sipbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#   bash crates/bench/src/bin/sipbench/run.sh test      # the unit tests, smoke pass included
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p sip-server --bin sip-prover
if [ "${1:-}" = test ]; then
    shift
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml" "$@"
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/sipbench" "$@"
