#!/usr/bin/env bash
# Figure 12 benchmark run at SF-0.001.
#
# Runs the BerlinMOD query suite on both engines. The human-readable
# table lands in results/. The run also writes two machine-readable
# reports at the repo root: `BENCH_queries.json` (per-query runtimes +
# peak memory per engine/thread-count) and `BENCH_operators.json` (the
# vectorized engine's per-operator EXPLAIN ANALYZE breakdown, including
# per-operator memory). Both are generated output of this run, not a
# committed baseline, and are git-ignored.
#
#   RUNS=5 scripts/bench.sh        # more samples per query (default 3)
#   SF=0.002 scripts/bench.sh      # a different scale factor

set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-3}"
SF="${SF:-0.001}"

mkdir -p results

echo "== build (release) =="
cargo build --release -p mduck-bench

echo "== fig12 @ SF-${SF}, ${RUNS} runs =="
./target/release/fig12_berlinmod --sf "$SF" --runs "$RUNS" \
  | tee "results/fig12_sf${SF#0.}_baseline.txt"

echo "bench: wrote BENCH_queries.json, BENCH_operators.json, results/fig12_sf${SF#0.}_baseline.txt"
