#!/usr/bin/env sh
# Offline CI gate: build, test, lint. No network access required —
# the workspace has zero external dependencies, so a vendored registry
# or plain `--offline` both work from a cold cache.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release (offline) =="
cargo build --release --workspace --offline

echo "== cargo test (offline) =="
cargo test -q --workspace --offline

echo "== release-mode integration tests (offline) =="
cargo test -q --release --workspace --offline

echo "== e2e_sweep package tests (the benchmark builds against the crates' public API) =="
cargo test -q --offline --manifest-path e2e_sweep/Cargo.toml

echo "== optimizer rules go through RewriteCtx, not raw derivation =="
if grep -rn "props::unique_sets\|vdm_plan::unique_sets" \
    crates/optimizer/src/asj.rs crates/optimizer/src/prune.rs \
    crates/optimizer/src/filters.rs crates/optimizer/src/limit_pushdown.rs \
    crates/optimizer/src/precision.rs; then
  echo "rule files must probe properties via RewriteCtx"; exit 1
fi

echo "== opt_sweep smoke run (tiny inputs, scratch dir) =="
SWEEP_DIR="$(mktemp -d)"
(cd "$SWEEP_DIR" && "$OLDPWD/target/release/opt_sweep" 500 10 50 > opt_sweep.log) \
  || { cat "$SWEEP_DIR/opt_sweep.log"; rm -rf "$SWEEP_DIR"; exit 1; }
test -s "$SWEEP_DIR/BENCH_optimize.json"
rm -rf "$SWEEP_DIR"

echo "== par_sweep thread-scaling smoke gate (reduced rows, scratch dir) =="
# Sweeps threads 1 and t = min(4, cores) over reduced datasets and fails if
# the agg_over_join workload's speedup over the same engine at threads=1
# drops below 0.6*t — the canary for core-scaling regressions in the morsel
# engine. On a single core the binary prints the gate as unresolved and
# passes.
PAR_DIR="$(mktemp -d)"
(cd "$PAR_DIR" && "$OLDPWD/target/release/par_sweep" 150000 8000 \
    --threads=1,4 --gate-scaling-efficiency=0.6 > par_sweep.log) \
  || { cat "$PAR_DIR/par_sweep.log"; rm -rf "$PAR_DIR"; exit 1; }
grep "^gate:" "$PAR_DIR/par_sweep.log"
test -s "$PAR_DIR/BENCH_parallel.json"
rm -rf "$PAR_DIR"

echo "== cache_sweep incremental-maintenance smoke gate (reduced rows, scratch dir) =="
# Maintains an agg-over-join DCV across delta fractions over a reduced
# base and fails if the 1%-delta incremental fold is not at least 5x
# faster than a full recompute — the canary for O(delta) regressions
# in the view-maintenance engine. Digest equivalence is asserted inside
# the binary every round.
CACHE_DIR="$(mktemp -d)"
(cd "$CACHE_DIR" && "$OLDPWD/target/release/cache_sweep" 200000 \
    --gate-delta-speedup=5 > cache_sweep.log) \
  || { cat "$CACHE_DIR/cache_sweep.log"; rm -rf "$CACHE_DIR"; exit 1; }
test -s "$CACHE_DIR/BENCH_cache.json"
rm -rf "$CACHE_DIR"

echo "== serve_sweep multi-session smoke gate (reduced load, scratch dir) =="
# 64 interactive sessions against one server: the highest step's p99
# per-query latency and plan-cache hit rate must clear the gates — the
# canary for serving-layer and plan-cache regressions.
SERVE_DIR="$(mktemp -d)"
(cd "$SERVE_DIR" && "$OLDPWD/target/release/serve_sweep" \
    --sessions 64 --queries 6 --journal-rows 500 --think-ms 400 \
    --gate-p99-ms 150 --gate-hit-rate 0.95 > serve_sweep.log) \
  || { cat "$SERVE_DIR/serve_sweep.log"; rm -rf "$SERVE_DIR"; exit 1; }
test -s "$SERVE_DIR/BENCH_serve.json"
rm -rf "$SERVE_DIR"

echo "== obs_sweep observability-overhead smoke gate (reduced load, scratch dir) =="
# Per-query interleaved comparison of observed (tracing + query store on)
# vs dark execution on the browser workload: the median overhead must
# stay under 3% — the canary for observability-cost regressions. The
# binary also asserts the store's JSONL save/reload round-trip.
OBS_DIR="$(mktemp -d)"
(cd "$OBS_DIR" && "$OLDPWD/target/release/obs_sweep" \
    --journal-rows 500 --queries 150 --rounds 5 \
    --gate-overhead-pct 3 > obs_sweep.log) \
  || { cat "$OBS_DIR/obs_sweep.log"; rm -rf "$OBS_DIR"; exit 1; }
test -s "$OBS_DIR/BENCH_obs.json"
test -s "$OBS_DIR/query_store.jsonl"
rm -rf "$OBS_DIR"

echo "== join_sweep feedback-reoptimization smoke gate (scratch dir) =="
# Skewed 6-join ERP-shaped workload where static zone-map estimates
# mis-price the hot dimension filter: the feedback-corrected join order
# must beat the estimate-only order by at least 2x, and the live
# plan-cache loop must re-optimize at least once — the canary for
# cardinality-estimation and feedback-loop regressions. The fact table is
# 800k rows: on the columnar kernels the fact scan both orders share
# hides the gap at small sizes (1.5x at 60k, 2.3-2.4x here). Multiset-digest
# equivalence of all orderings is asserted inside the binary.
JOIN_DIR="$(mktemp -d)"
(cd "$JOIN_DIR" && "$OLDPWD/target/release/join_sweep" \
    --shapes=erp --joins=6 --rows=800000 --gate=2 > join_sweep.log) \
  || { cat "$JOIN_DIR/join_sweep.log"; rm -rf "$JOIN_DIR"; exit 1; }
test -s "$JOIN_DIR/BENCH_join.json"
rm -rf "$JOIN_DIR"

echo "== optimizer never reads the query store (feedback flows through CardOverrides) =="
if grep -rn "QueryStore\|vdm_obs::store" crates/optimizer/src; then
  echo "crates/optimizer must receive observed cardinalities as CardOverrides, not read the store"; exit 1
fi

echo "== one optimizer call behind every statement (core, serve and cache reach it through session.rs) =="
OPT_SITES="$(grep -rln "optimize_traced_with\|\.optimize(" crates/core/src crates/serve/src crates/cache/src || true)"
if [ "$OPT_SITES" != "crates/core/src/session.rs" ]; then
  echo "the optimizer must only run in crates/core/src/session.rs (QueryEnv::optimize_bound); found in:"
  echo "$OPT_SITES"; exit 1
fi

echo "== metrics are registered only through vdm-obs (no stray metric name literals) =="
if grep -rn '"vdm_' crates --include='*.rs' | grep -v '^crates/obs/src'; then
  echo "metric names must come from vdm_obs::names, not string literals"; exit 1
fi

echo "== cargo clippy -D warnings (offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --no-deps (offline) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "CI OK"
