#!/usr/bin/env bash
# Builds the `scd` binary and the benchmark from source, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload detect --seed 7 --seconds 10 --trace 0 [--smoke]
#
# Cargo's output goes to stderr; the result object is the last stdout line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p scd-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --scd "$CARGO_TARGET_DIR/release/scd" "$@"
