#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it:
#   bash canonbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/canonbench" "$@"
