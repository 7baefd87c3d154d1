#!/usr/bin/env bash
# The one command: builds the program's release binaries and the benchmark
# driver from source, then runs the driver with the arguments given.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR] [--trace]
#       every workload, each in a fresh driver process
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (the harness's spelling)
#   benchmark/run.sh compare A_DIR B_DIR
#
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --bins >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sparqlog-benchmark" "$@"
