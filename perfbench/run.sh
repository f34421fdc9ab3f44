#!/usr/bin/env bash
# Builds the release server and the benchmark program from source, then
# runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to stderr so that
# stdout carries only the benchmark's report.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin maxmin-lp 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" --server "$target/release/maxmin-lp" "$@"
