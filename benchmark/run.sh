#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. See README.md.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload W         one workload, untraced then traced
#   benchmark/run.sh --selfcheck          the A/A self-check
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the driver's result line last
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export EGRAPH_BENCH_DIR="$here"
if [ -z "${EGRAPH_BENCH_COMMIT:-}" ]; then
    EGRAPH_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
    export EGRAPH_BENCH_COMMIT
fi

# Build output goes to stderr so stdout carries only the report.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/egraph-benchmark" "$@"
