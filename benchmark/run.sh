#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--runs K] [--out FILE]
#       every workload, each in a fresh process; writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the result object (BENCHMARK.json's command)
#   benchmark/run.sh --compare A.json B.json
#       judge two result files against the bounds in BENCHMARK.json
#
# See benchmark/README.md.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Run cargo from the repo root so .cargo/config.toml (target-cpu=native)
# applies and a relative CARGO_TARGET_DIR resolves where the caller meant.
cd "$ROOT"
TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout belongs to the benchmark's results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

IDES_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
IDES_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export IDES_BENCH_RUSTC IDES_BENCH_COMMIT

exec "$TARGET_DIR/release/ides_benchmark" --out-dir benchmark/out "$@"
