#!/usr/bin/env bash
# Builds lsd-serve and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#   bash perfbench/run.sh --workload match-small --seed 1 --seconds 15 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p lsd-bench --bin lsd-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/lsd-serve" "$@"
