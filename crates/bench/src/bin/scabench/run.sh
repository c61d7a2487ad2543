#!/usr/bin/env bash
# Build the shipped `scaguard` binary and the benchmark from source, then
# run the benchmark with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/scabench/run.sh --workload interactive --seed 1
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), where the benchmark finds `scaguard` next to itself. Build
# output goes to stderr; stdout carries only the benchmark's report.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path Cargo.toml --workspace --bin scaguard >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/scabench" "$@"
