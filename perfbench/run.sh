#!/usr/bin/env bash
# Builds the benchmark from source (release profile, offline) and runs it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build) and to stderr, so the last line on stdout is the
# benchmark's JSON result.
set -euo pipefail
manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
