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
# Also the allocation-count gate of a cold optimize (tests/cold_plan_budget.rs):
# its budgets bind in release builds only.
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

# sweep <bin> <BENCH_file> <args...>: runs one vdm-bench sweep in a scratch
# directory (so the committed BENCH_*.json stay untouched), prints its
# `gate:` lines, and fails if the binary fails or leaves no report.
sweep() {
  bin="$1"; bench_file="$2"; shift 2
  dir="$(mktemp -d)"
  (cd "$dir" && "$OLDPWD/target/release/$bin" "$@" > log) \
    || { cat "$dir/log"; rm -rf "$dir"; exit 1; }
  grep "^gate:" "$dir/log" || true
  test -s "$dir/$bench_file"
  rm -rf "$dir"
}

echo "== opt_sweep smoke run (tiny inputs) =="
sweep opt_sweep BENCH_optimize.json --journal-rows 500 --views 10 --rows-per-table 50

echo "== par_sweep thread-scaling smoke gate (reduced rows) =="
# Sweeps threads 1 and t = min(4, cores) over reduced datasets and fails if
# the agg_over_join workload's speedup over the same engine at threads=1
# drops below 0.6*t — the canary for core-scaling regressions in the morsel
# engine. On a single core the gate is unresolved and passes.
sweep par_sweep BENCH_parallel.json --rows 150000 --journal-rows 8000 \
  --threads 1,4 --gate-scaling-efficiency 0.6

echo "== cache_sweep incremental-maintenance smoke gate (reduced rows) =="
# Maintains an agg-over-join DCV across delta fractions over a reduced
# base and fails if the 1%-delta incremental fold is not at least 5x
# faster than a full recompute — the canary for O(delta) regressions
# in the view-maintenance engine. Digest equivalence is asserted inside
# the binary every pair.
sweep cache_sweep BENCH_cache.json --rows 200000 --gate-delta-speedup 5

echo "== serve_sweep multi-session smoke gate (reduced load) =="
# 64 interactive sessions against one server: the highest step's p99
# per-query latency and plan-cache hit rate must clear the gates — the
# canary for serving-layer and plan-cache regressions.
sweep serve_sweep BENCH_serve.json --sessions 64 --queries 6 --journal-rows 500 \
  --think-ms 400 --gate-p99-ms 150 --gate-hit-rate 0.95

echo "== obs_sweep observability-overhead smoke gate (reduced load) =="
# Per-query paired comparison of observed (tracing + query store on) vs
# dark execution on the browser workload: the median per-query delta
# (`median_pair_delta_us`) must stay under 30 µs — the canary for
# observability-cost regressions. The cost is fixed per query, so it is
# bounded in µs, not as a share of a query that gets faster. Six runs of
# this invocation before the bound was set, on the 2-vCPU reference host:
# 4.8, 7.8, 13.0, 3.8, 7.5, 5.0 µs; the bound is over 2x the largest. The
# binary also asserts the store's JSONL save/reload round-trip.
sweep obs_sweep BENCH_obs.json --journal-rows 500 --queries 150 --rounds 5 \
  --gate-overhead-us 30

echo "== join_sweep feedback-reoptimization smoke gate =="
# Skewed 6-join ERP-shaped workload where static zone-map estimates
# mis-price the hot dimension filter: the feedback-corrected join order
# must beat the estimate-only order by at least 2x (one paired call, so
# host drift cannot land on one side of the ratio), and the live
# plan-cache loop must re-optimize at least once — the canary for
# cardinality-estimation and feedback-loop regressions. The fact table is
# 800k rows: on the columnar kernels the fact scan both orders share
# hides the gap at small sizes (1.5x at 60k, 2.3-2.7x here). Multiset-digest
# equivalence of all orderings is asserted inside the binary.
sweep join_sweep BENCH_join.json --shapes erp --joins 6 --rows 800000 --gate 2

echo "== one bench harness (args, exit and file writes only in harness.rs) =="
HARNESS_ONLY="$(grep -rlE "std::env::args|process::exit|fs::write" crates/bench/src || true)"
if [ "$HARNESS_ONLY" != "crates/bench/src/harness.rs" ]; then
  echo "only crates/bench/src/harness.rs may read argv, exit the process or write files; found in:"
  echo "$HARNESS_ONLY"; exit 1
fi

echo "== optimizer never reads the query store (feedback flows through CardOverrides) =="
if grep -rn "QueryStore\|vdm_obs::store" crates/optimizer/src; then
  echo "crates/optimizer must receive observed cardinalities as CardOverrides, not read the store"; exit 1
fi

echo "== one optimizer call behind every statement (core, serve and cache reach it through session.rs) =="
# Only QueryEnv::optimize_bound optimizes. The view cache applies one rule
# itself (filter pushdown, to narrow a MIN/MAX group rebuild) but never
# calls optimize.
OPT_SITES="$(grep -rln "optimize_traced_with\|\.optimize(" crates/core/src crates/serve/src crates/cache/src || true)"
if [ "$OPT_SITES" != "crates/core/src/session.rs" ]; then
  echo "the optimizer must only run in crates/core/src/session.rs (QueryEnv::optimize_bound); found in:"
  echo "$OPT_SITES"; exit 1
fi

echo "== cold planning pays for what it rewrites (O(changed) trace, schema-preserving rebuilds) =="
# The rewrite collector sizes subtrees with a nodes-only count, never the
# three-walk plan_stats; and filter pushdown rebuilds a node it pushed
# through via vdm_plan::map_children (which keeps the node's schema when the
# children kept theirs), not via the validating constructors.
if grep -n "plan_stats(" crates/obs/src/rewrite.rs \
    || awk '/^fn push_conjuncts/ { body = 1 } body && /^}/ { body = 0 }
        body && /LogicalPlan::(join|project|union_all)\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/optimizer/src/filters.rs; then
  echo "rewrite.rs must not call plan_stats; push_conjuncts rebuilds through map_children"; exit 1
fi

echo "== one ledger, one walker in vdm-exec (the per-node profile; class totals are its roll-up) =="
if grep -rnE "profiler\.is_none|profile: (true|false)|Metrics::merge|fn run_budgeted" crates/ \
    || grep -rnE "metrics\.[a-z_]+ \+=" crates/exec/src; then
  echo "the executor records per-node stats only: no profile switch, no class counters, no second plan walker"; exit 1
fi

echo "== one scan body, one hash join (rows stop at the engine's edge) =="
# The morsel scan is a selection + gather and the partitioned join serves
# every input size: no pruned twin, no row-wise fork, no value-materializing
# take; store.rs builds no rows (below).
if grep -rnE "scan_morsel_pruned|hash_join_build_left|fn take\(" crates/; then
  echo "the pruned scan twin, the row-wise join fork and take() are deleted; use scan_morsel / hash_join / gather"; exit 1
fi
JOINS="$(find crates/exec/src -name '*.rs' ! -name '*_tests.rs' -exec awk \
  'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test && /fn hash_join/ { n++ } END { print n + 0 }' {} +)"
if [ "$JOINS" != "1" ]; then
  echo "vdm-exec must define exactly one hash join outside test modules; found $JOINS"; exit 1
fi
# A pushed filter refines the one read body (no filtered twin), and neither
# the join nor the aggregate keeps a materialized key: row ids chain
# (JoinTable, group_rows) and cells compare in place, so no `Vec<Value>`-keyed
# map, `key_at` or whole-row `.row(` anywhere in executor.rs outside tests.
READS="$(awk '/^#\[cfg\(test\)\]/ { exit } /fn read\(/ { n++ } END { print n + 0 }' crates/storage/src/store.rs)"
if [ "$READS" != "1" ] || grep -rnE "fn (scan_morsel|read)_(filtered|refined|pushed)" crates/storage/src; then
  echo "store.rs must define exactly one read body (fn read) and no filtered twin; found $READS"; exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } /FxHashMap<Vec<Value>|HashMap<Vec<Value>|fn key_at|\.row\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/exec/src/executor.rs; then
  echo "executor.rs keeps no Vec<Value> keys and builds no rows: chain row ids and compare cells in place"; exit 1
fi
# A morsel stays a morsel: the pipeline is the only streaming body. One
# `parallel_map(` call feeds streaming steps (run_pipeline's; the other two
# build a join's hash tables, and one line is the definition), and no
# operator-at-a-time filter/project wave body is left beside it.
DISPATCHES="$(awk '/^#\[cfg\(test\)\]/ { exit } /parallel_map\(/ { n++ } END { print n + 0 }' crates/exec/src/executor.rs)"
STREAMING="$(awk '/^#\[cfg\(test\)\]/ { exit } /^fn / { body = $2 } body ~ /^run_pipeline/ && /parallel_map\(/ { n++ }
    END { print n + 0 }' crates/exec/src/executor.rs)"
if [ "$DISPATCHES" != "3" ] || [ "$STREAMING" != "1" ] \
    || grep -nE "^fn (filter|project|aggregate|agg_partial)\(" crates/exec/src/executor.rs; then
  echo "executor.rs: one parallel_map call in run_pipeline (+ two in the join build), no wave bodies; found $DISPATCHES/$STREAMING"; exit 1
fi
# Storage keeps no rows: main, the delta and the tombstone log are one
# Fragment type (typed columns + stamps), so no row container, per-row
# tombstone or batch built from rows is left in store.rs.
if awk '/^#\[cfg\(test\)\]/ { exit } /from_rows|Vec<Vec<Value>>|struct Tombstone/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/storage/src/store.rs; then
  echo "store.rs keeps no rows: main, delta and tombstones are Fragments, and no batch is built from rows"; exit 1
fi
# Writes stop paying for the whole table: a delete reads main and the delta
# a chunk at a time (no row built cell by cell), and a merge re-derives
# zone-map blocks only from the first main row it changed (0 only when it
# compacts).
if awk '/^#\[cfg\(test\)\]/ { exit } /\.map\(\|c\| c\.get\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/storage/src/store.rs; then
  echo "store.rs builds no row of a fragment cell by cell: read it into a reused buffer a chunk at a time"; exit 1
fi
if ! awk '/^#\[cfg\(test\)\]/ { exit } /fn merge_delta/ { body = 1 } body && /^    }$/ { body = 0 }
    body && /zone_maps\.extend\(&self\.main\.columns, first_changed\)/ { ok = 1 } END { exit !ok }' crates/storage/src/store.rs; then
  echo "merge_delta extends the zone maps from its first changed row (zone_maps.extend(&self.main.columns, first_changed))"; exit 1
fi

echo "== a posting cycle pays for its rows (typed key index, kept join sides) =="
# Storage checks uniqueness through typed hashes of row references (no
# materialized key tuples, released by fragment and row), and view
# maintenance probes the kept build of a frozen or unchanged right side
# instead of executing it again on every pass.
KEY_TUPLES="$(for f in crates/storage/src/*.rs; do
  awk '/^#\[cfg\(test\)\]/ { exit } /HashSet<Vec<Value>>|fn remove_keys/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$KEY_TUPLES" ] || grep -n "snap(right, now)" crates/exec/src/delta.rs; then
  echo "$KEY_TUPLES"
  echo "storage keeps no HashSet<Vec<Value>> key index; delta.rs probes kept right sides"; exit 1
fi

echo "== touched fields only (rows are built from referenced columns; one predicate evaluator) =="
# Outside test modules, vdm-exec never materializes a whole row (`.row(`):
# filters, projections, sort keys, join residuals and aggregate arguments
# evaluate through kernels::RowScratch, which loads the referenced columns
# only, and DISTINCT and GROUP BY keys compare cells in place.
WIDE_ROWS="$(for f in crates/exec/src/*.rs; do
  case "$f" in *_tests.rs) continue ;; esac
  awk '/^#\[cfg\(test\)\]/ { exit } /\.row\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$WIDE_ROWS" ]; then
  echo "$WIDE_ROWS"
  echo "evaluate row-wise through kernels::RowScratch (referenced columns only), not Batch::row"; exit 1
fi
# FilterKernel is the predicate evaluator: one columnar form (`Pred::mask`),
# one entry point (`select`), and no conjunction-only sibling beside it.
EVALUATORS="$(awk '/^#\[cfg\(test\)\]/ { exit } /fn mask\(|fn select\(/ { n++ } END { print n + 0 }' \
  crates/exec/src/kernels.rs)"
if [ "$EVALUATORS" != "2" ] || grep -rnE "CompiledPredicate|CompiledAtom|fn eval_into" crates/exec/src; then
  echo "kernels.rs must define exactly one predicate evaluator (FilterKernel::select over Pred::mask)"; exit 1
fi

echo "== one front door, one dispatch (two handles on one Runtime, waves broadcast on a pool) =="
# Database and vdm-serve's Server hold one vdm_core::Runtime: Runtime::run
# is the one place a read statement opens its trace root, neither handle
# keeps a pool or a second read body, and the executor broadcasts every
# dispatched wave on the installed pool or the process pool — it never
# spawns threads.
SCOPED="$(for f in crates/exec/src/*.rs; do
  case "$f" in *_tests.rs) continue ;; esac
  awk '/^#\[cfg\(test\)\]/ { exit } /std::thread::scope/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
ROOTS="$(grep -rn "mode\.root()" crates/ | wc -l)"
if [ -n "$SCOPED" ] || [ "$ROOTS" != "1" ] \
    || grep -rnE "WorkerPool::new|with_worker_pool" crates/core/src crates/serve/src crates/cache/src \
    || grep -rnE "DatabaseParts|fn with_env|fn run_sql" crates/; then
  echo "$SCOPED"
  echo "one read body (mode.root() once, found $ROOTS), no pool in core/serve/cache, no scoped threads"; exit 1
fi

echo "== one dispatch loop (a wave's roles claim morsels from one shared cursor) =="
# executor::parallel_map runs a one-worker wave in a plain loop and broadcasts
# a wider one, whose roles claim items one at a time from one AtomicUsize
# cursor: no scheduler module, per-worker range deques, claim sizer or
# stealing is left in vdm-exec.
if [ -e crates/exec/src/scheduler.rs ] \
    || grep -rnE "VecDeque<Range|ClaimSizer|steal_back|fn run_with" crates/exec/src; then
  echo "vdm-exec keeps no scheduler.rs, range deques, ClaimSizer, steal_back or run_with"; exit 1
fi

echo "== one maintenance body per cached view (the mode decides when, never how) =="
# A static refresh is a maintain on a tick: CachedView::refresh has no body
# of its own, and materialize( runs only in recompute, the one full-recompute
# body (registration's materialization and maintain's fallback). A MIN/MAX
# group rebuild pushes its key filter to the scans.
MATERIALIZE="$(awk '/^#\[cfg\(test\)\]/ { exit } /^ *(pub )?fn / { f = $0; sub(/^ *(pub )?fn /, "", f); sub(/[(<].*/, "", f) }
    /materialize\(/ && !/fn materialize\(/ { print f }' crates/cache/src/lib.rs)"
PUSHED="$(awk '/^#\[cfg\(test\)\]/ { exit } /^ *(pub )?fn / { f = $0; sub(/^ *(pub )?fn /, "", f); sub(/[(<].*/, "", f) }
    /pushdown_filters\(/ { print f }' crates/cache/src/lib.rs)"
if [ "$MATERIALIZE" != "recompute" ] || [ "$PUSHED" != "recompute_groups" ]; then
  echo "materialize( only in recompute (found in: $MATERIALIZE); pushdown_filters( in recompute_groups (found in: $PUSHED)"; exit 1
fi

echo "== non-test source size (scripts/loc.sh) =="
# The size to beat is 24 435 lines, set when the unique-key index came to
# hash typed row references and cached views came to keep the hash builds
# of unchanged join sides (+200 over 24 235); a change that lowers it
# rebases it here.
LOC_TOTAL="$(scripts/loc.sh | awk '$1 == "total" { print $2 }')"
echo "total $LOC_TOTAL"
if [ "$LOC_TOTAL" -gt 24435 ]; then
  echo "non-test source grew past 24 435 lines"; exit 1
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
