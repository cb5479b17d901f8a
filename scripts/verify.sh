#!/usr/bin/env bash
# Full verify path: build, tests, clippy, and the panic-lint gate.
#
# Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`; this
# script is the superset CI should run. Clippy denies every default
# warning plus the lints that catch the bug classes this codebase has
# actually shipped (panicking slices/arithmetic in parsers), without
# flagging the vetted remainder that scripts/panic_allowlist.txt already
# tracks.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== observability tests =="
# The obs crate and the cross-engine introspection surface get an
# explicit pass: these are the gates for the EXPLAIN ANALYZE golden and
# the PRAGMA metrics contract.
cargo test -q -p mduck-obs
cargo test -q -p mduck-integration --test observability --test guard_limits

echo "== worker pool stress =="
# The process-wide pool of parked helpers (mduck_sync::pool): four
# submitters run thousands of stages over two helpers, and every morsel
# must be claimed exactly once. Run optimized, where races are likeliest.
cargo test -q --release -p mduck-sync stress_every_morsel_is_claimed_once

echo "== parallel execution matrix =="
# Morsel-driven parallelism must be byte-identical to serial execution.
# MDUCK_THREADS overrides the auto-detected worker count, so the matrix
# exercises the serial path (threads=1), two workers (threads=2, a
# 2-core host's own count) and a larger pool (threads=4) regardless of
# the host's core count. The differential
# suite itself also pins thread counts per-connection via set_threads.
# The fused-scan differential suite (scan_pushdown) runs the same
# matrix: its filtered scans fan out one window per morsel. So does the
# index-join differential suite (index_join): its probes fan out one left
# chunk per morsel. So does the join-order differential suite
# (join_order): reordered joins and decorrelated ALL/ANY subqueries
# against the row engine's FROM-order, per-row results. So does the
# fusion differential suite (fused_predicates): each fusion rule's fused
# kernel against the row engine's written composition. So does the
# statement-cache suite (plan_cache): instantiated templates against the
# same statements bound and planned afresh, and against the row engine.
# So does the column-pruning suite (column_pruning): pruned scans, joins
# and Filters against the row engine, which never prunes, and the plan
# check that no node hands on a column nothing above it reads.
# So does resource observability (resource_obs): memory-limit trips,
# progress monotonicity, and the query-log contract must hold on the
# serial path and with a real worker pool, since one routine
# (`EngineCtx::morsels`) does the progress and memory accounting for
# both, and parallel workers charge the same statement scope and must
# surface the trip.
for threads in 1 2 4; do
  MDUCK_THREADS=$threads cargo test -q -p mduck-integration --test parallel_exec \
    --test scan_pushdown --test index_join --test join_order --test fused_predicates \
    --test plan_cache --test column_pruning --test resource_obs
done

echo "== durability / crash torture =="
# Crash-simulate at every registered failpoint (the torture harness
# enumerates ≥50 distinct (site, hit) crash points per engine from a
# clean run, then replays each with a simulated process death) and
# assert the recovered state equals the committed statement prefix.
# Runs serially and with a 4-worker pool: the WAL commit path must be
# identical under parallel execution. MDUCK_FAILPOINTS itself is
# exercised in-process via the programmatic API the env var feeds. The
# front-door contract (front_door) runs one script of DDL, DML, pragmas
# and utility statements on both engines and requires identical results.
cargo test -q -p mduck-wal
cargo test -q -p mduck-integration --test durability --test crash_torture --test front_door
MDUCK_THREADS=4 cargo test -q -p mduck-integration --test durability --test crash_torture \
  --test front_door

echo "== benchmark self-check =="
# The benchmark's own tests (perfbench/, a separate Cargo workspace):
# every workload runs at a tiny scale and its results are checked
# against the row engine, so an engine change that breaks a workload's
# correctness oracle fails here, before anyone runs the benchmark.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== Query 5 formulations agree =="
# The §6.3 ablation at SF-0.001: the WKB proxy-layer and the native `_gs`
# formulations of Query 5 must return the same license pairs at the same
# distances on generated trajectories. Nothing else runs both.
cargo run --release -q -p mduck-bench --bin ablation_gs -- --small

echo "== clippy =="
# Every default warning fails the gate, and so do the lints for the bug
# classes this codebase has actually shipped (panicking arithmetic/slicing
# in parsers); unwrap/expect policing is owned by scripts/lint_panics.sh,
# which carries the audited allowlist.
cargo clippy --workspace --all-targets -- \
  -D warnings \
  -D clippy::panicking_overflow_checks \
  -D clippy::manual_strip \
  -D clippy::out_of_bounds_indexing \
  -D clippy::unchecked_time_subtraction

echo "== rustdoc links =="
# Broken, ambiguous or private intra-doc links fail the build, so a
# moved or renamed item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== panic lint =="
scripts/lint_panics.sh

echo "== metric-name lint =="
scripts/lint_metrics.sh

echo "verify: all gates passed"
