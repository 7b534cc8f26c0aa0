//! One run of one workload: set-up, warm-up, the timed window, and the
//! verification that follows it.
//!
//! The untraced and the traced pass run the same window code; the traced
//! pass hands it an enabled [`Recorder`] and a [`Twin`], and every
//! operation is then followed by its staged replay.

use crate::golden::Golden;
use crate::spans::Recorder;
use crate::stats;
use crate::system::{Config, System, Twin};
use crate::workloads::{self, Op, Scripted, Workload, CACHED_VIEWS, SHAPES};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vdm_cache::multiset_digest;
use vdm_core::PlanCacheStats;
use vdm_obs::{names, MetricsRegistry};
use vdm_optimizer::Profile;
use vdm_types::{Result, VdmError};

/// One round of the window: the same mix of operations as every other.
#[derive(Debug, Default)]
pub struct Round {
    /// Latency of every primary operation, in execution order.
    pub primary_ms: Vec<f64>,
    /// Time in primary and scripted operations, without the harness's
    /// own digesting and replaying.
    pub busy: Duration,
}

/// What the timed window measured, and the checks made around it.
#[derive(Debug, Default)]
pub struct Window {
    pub rounds: Vec<Round>,
    pub attempted: usize,
    pub failed: usize,
    /// Why operations failed (first few), for the log.
    pub failures: Vec<String>,
    /// Digest per distinct read operation, by [`Op::key`].
    pub digests: BTreeMap<String, u64>,
    /// Read operations executed (each scans the journal once).
    pub reads: usize,
}

impl Window {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Counts one verification: a mismatch is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    fn round(&mut self) -> &mut Round {
        self.rounds.last_mut().expect("operations run inside a round")
    }

    /// The fastest half of the rounds: the ones the host disturbed least.
    fn kept(&self) -> Vec<&Round> {
        let mut rounds: Vec<&Round> = self.rounds.iter().collect();
        rounds.sort_by_key(|r| r.busy);
        rounds.truncate(self.rounds.len().div_ceil(2));
        rounds
    }

    /// Primary latencies of the kept rounds, ascending.
    pub fn kept_primary_ms(&self) -> Vec<f64> {
        stats::sorted(self.kept().iter().flat_map(|r| r.primary_ms.iter().copied()).collect())
    }

    /// Median primary latency over *all* rounds (what the traced pass
    /// compares with and without the recorder).
    pub fn p50_ms(&self) -> f64 {
        let all = self.rounds.iter().flat_map(|r| r.primary_ms.iter().copied()).collect();
        stats::percentile(&stats::sorted(all), 0.5)
    }

    /// Primary operations per second of busy time, over the kept rounds.
    pub fn ops_per_s(&self) -> f64 {
        let kept = self.kept();
        let ops: usize = kept.iter().map(|r| r.primary_ms.len()).sum();
        ops as f64 / kept.iter().map(|r| r.busy).sum::<Duration>().as_secs_f64()
    }

    pub fn busy(&self) -> Duration {
        self.rounds.iter().map(|r| r.busy).sum()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets the system up and warms it, returning it with the set-up time.
pub fn set_up_warm(cfg: &Config) -> Result<(System, Duration)> {
    let started = Instant::now();
    let mut sys = System::set_up(cfg)?;
    sys.warm_up(None)?;
    Ok((sys, started.elapsed()))
}

/// Runs the timed window into `w`: `cfg.scale.rounds` rounds of
/// `round_ops` primary operations and, on `htap_mixed`, the scripted
/// operations between them.
pub fn timed_window(
    cfg: &Config,
    sys: &mut System,
    twin: Option<&Twin>,
    rec: &mut Recorder,
    w: &mut Window,
) {
    for i in 0..cfg.scale.primary_ops() {
        if i % cfg.scale.round_ops == 0 {
            w.rounds.push(Round::default());
        }
        if cfg.workload != Workload::HtapMixed {
            read_op(sys, twin, rec, w, &sys.ops[i], true);
            continue;
        }
        posting_cycle(sys, twin, rec, w);
        for scripted in workloads::scripted_after(i) {
            match scripted {
                Scripted::DeltaPageRead => read_op(sys, twin, rec, w, &sys.ops[i], false),
                Scripted::Reversal => reversal(sys, twin, rec, w),
                Scripted::Refresh => {
                    let call = || sys.server.refresh_cached_views().map(|_| ());
                    operation(twin, rec, w, "refresh", call, Twin::replay_refresh);
                }
                Scripted::Merge => {
                    let call = || sys.server.engine().merge_delta("acdoca");
                    operation(twin, rec, w, "merge", call, Twin::replay_merge);
                }
            }
        }
    }
}

/// Times `call` as one operation of kind `kind`, then replays it on the
/// twin. Returns the call's latency and result.
fn operation<R>(
    twin: Option<&Twin>,
    rec: &mut Recorder,
    w: &mut Window,
    kind: &'static str,
    call: impl FnOnce() -> Result<R>,
    replay: impl FnOnce(&Twin, &mut Recorder) -> Result<()>,
) -> (Duration, Option<R>) {
    w.attempted += 1;
    let root = rec.begin("op");
    rec.attr(root, "kind", kind);
    let span = rec.begin("serve.call");
    let started = Instant::now();
    let result = call();
    let latency = started.elapsed();
    rec.end(span);
    w.round().busy += latency;
    let result = match result {
        Ok(r) => Some(r),
        Err(e) => {
            w.fail(|| format!("{kind}: {e}"));
            None
        }
    };
    if let Some(twin) = twin {
        let staged = rec.begin("staged");
        let replayed = replay(twin, rec);
        rec.end(staged);
        if let Err(e) = replayed {
            w.fail(|| format!("{kind} replay: {e}"));
        }
    }
    rec.end(root);
    (latency, result)
}

/// One read operation. Its digest must equal every earlier digest of the
/// same operation (read-only workloads) and the twin's replayed digest.
fn read_op(
    sys: &System,
    twin: Option<&Twin>,
    rec: &mut Recorder,
    w: &mut Window,
    op: &Op,
    primary: bool,
) {
    let mut replayed_digest = None;
    let (latency, batch) = operation(
        twin,
        rec,
        w,
        SHAPES[op.shape].name,
        || sys.execute(op),
        |twin, rec| {
            // The program's own trace of the call just made, for the
            // cross-check against the outside-in spans.
            if let Some(trace) = sys.session.last_trace() {
                let open = rec.begin("obs.program_trace");
                rec.end(open);
                rec.attr(open, "total_ns", trace.total_nanos());
            }
            replayed_digest = Some(twin.replay_read(rec, op)?);
            Ok(())
        },
    );
    w.reads += 1;
    if primary {
        w.round().primary_ms.push(ms(latency));
    }
    let Some(batch) = batch else { return };
    let digest = multiset_digest(&batch);
    if let Some(replayed) = replayed_digest {
        w.check(replayed == digest, || format!("{}: twin replay digest differs", op.key()));
    }
    // Over a table that is being written the same page legitimately changes.
    if sys.workload != Workload::HtapMixed {
        let first = *w.digests.entry(op.key()).or_insert(digest);
        if first != digest {
            w.fail(|| format!("{}: result changed between executions", op.key()));
        }
    }
}

/// The primary operation of `htap_mixed`, one *time-to-fresh cycle*:
/// post a batch, then read every dynamic view up to date.
fn posting_cycle(sys: &mut System, twin: Option<&Twin>, rec: &mut Recorder, w: &mut Window) {
    let rows = sys.posting.next();
    let twin_rows = twin.map(|_| rows.clone());
    let (latency, _) = operation(
        twin,
        rec,
        w,
        "cycle",
        || {
            sys.post(rows)?;
            sys.read_dynamic_views()
        },
        |twin, rec| twin.replay_post(rec, twin_rows.expect("cloned for the twin")),
    );
    w.round().primary_ms.push(ms(latency));
}

/// Reverses the batch just posted, then reads the dynamic views: the
/// group's `MAX(PostingDate)` is retracted and the group recomputed.
fn reversal(sys: &mut System, twin: Option<&Twin>, rec: &mut Recorder, w: &mut Window) {
    let batch = sys.posting.next_batch - 1;
    operation(
        twin,
        rec,
        w,
        "reversal",
        || {
            sys.reverse(batch)?;
            sys.read_dynamic_views()
        },
        |twin, rec| twin.replay_reverse(rec, batch),
    );
}

/// Verification (a): every digest of the window against the committed
/// golden digests. Only the default seed and scale have golden digests.
pub fn verify_golden(cfg: &Config, golden: &Golden, w: &mut Window) {
    if !golden.covers(cfg) {
        return;
    }
    for (key, digest) in w.digests.clone() {
        let expected = golden.get(cfg.workload, &key);
        w.check(expected == Some(digest), || {
            format!("{key}: digest {digest:016x}, golden {expected:016x?}")
        });
    }
}

/// Verification (b): the paper's claim that the rewrites preserve
/// results, as the oracle. One operation per shape is run again under the
/// HANA profile and under System X (no UAJ/ASJ/limit rewrites); the two
/// digests must be equal.
pub fn verify_profiles(sys: &System, w: &mut Window) {
    let mut sample: Vec<&Op> = Vec::new();
    for op in &sys.ops {
        if !sample.iter().any(|s| s.shape == op.shape) {
            sample.push(op);
        }
    }
    let digests = |w: &mut Window| -> Vec<Option<u64>> {
        sample
            .iter()
            .map(|op| match sys.execute(op) {
                Ok(batch) => Some(multiset_digest(&batch)),
                Err(e) => {
                    w.fail(|| format!("{}: {e}", op.key()));
                    None
                }
            })
            .collect()
    };
    let hana = digests(w);
    sys.server.set_profile(Profile::system_x());
    let system_x = digests(w);
    sys.server.set_profile(Profile::hana());
    for ((op, a), b) in sample.iter().zip(hana).zip(system_x) {
        w.check(a.is_some() && a == b, || {
            format!("{}: HANA and System X digests differ", op.key())
        });
    }
}

/// Digest of every cached view as the session reads it now.
pub fn view_digests(sys: &System) -> Result<Vec<(&'static str, u64)>> {
    CACHED_VIEWS
        .iter()
        .map(|&(name, _, _)| Ok((name, multiset_digest(&*sys.session.read_cached(name)?))))
        .collect()
}

/// Verification (a) for `htap_mixed`, whose results depend on how many
/// batches were posted: the views' digests are golden per batch count
/// (after warm-up, and after each blessed window length).
pub fn verify_view_goldens(
    cfg: &Config,
    sys: &System,
    golden: &Golden,
    w: &mut Window,
) -> Result<()> {
    if cfg.workload != Workload::HtapMixed || !golden.covers(cfg) {
        return Ok(());
    }
    for (name, digest) in view_digests(sys)? {
        let key = format!("{name}@{}", sys.posting.next_batch);
        if let Some(expected) = golden.get(cfg.workload, &key) {
            w.check(expected == digest, || format!("{key}: digest differs from golden"));
        }
    }
    Ok(())
}

/// Verification (c), `htap_mixed`: every dynamic view equals a fresh
/// query of its defining SQL, every static view does after a refresh, and
/// the journal holds `loaded + posted − reversed` rows.
fn verify_views(sys: &System, w: &mut Window) -> Result<()> {
    sys.server.refresh_cached_views()?;
    for ((name, cached), (_, sql, _)) in view_digests(sys)?.into_iter().zip(CACHED_VIEWS) {
        let fresh = multiset_digest(&sys.session.query(sql)?);
        w.check(cached == fresh, || format!("{name}: cached view differs from its defining query"));
    }
    let engine = sys.server.engine();
    let rows = engine.row_count("acdoca", engine.snapshot())?;
    let expected = sys.loaded_rows + sys.posting.posted_rows - sys.posting.reversed_rows;
    w.check(rows == expected, || format!("acdoca holds {rows} rows, expected {expected}"));
    Ok(())
}

/// All verification after a window, in the order (a), (b), (c).
pub fn verify(cfg: &Config, sys: &System, golden: &Golden, w: &mut Window) -> Result<()> {
    verify_golden(cfg, golden, w);
    verify_profiles(sys, w);
    if cfg.workload == Workload::HtapMixed {
        verify_views(sys, w)?;
        verify_view_goldens(cfg, sys, golden, w)?;
    }
    Ok(())
}

/// Counters of the real server the traced pass reads before and after
/// its window.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    pub plan_cache: PlanCacheStats,
    pub reoptimizations: u64,
    pub blocks_skipped: u64,
    pub group_recomputes: usize,
    pub minmax_full_refreshes: usize,
}

impl ServerCounters {
    pub fn read(sys: &System) -> Result<ServerCounters> {
        let views =
            CACHED_VIEWS.iter().filter_map(|v| sys.server.cached_view(v.0)).map(|v| v.stats());
        let (group_recomputes, minmax_full_refreshes) =
            views.fold((0, 0), |(g, m), s| (g + s.group_recomputes, m + s.minmax_full_refreshes));
        Ok(ServerCounters {
            plan_cache: sys.server.plan_cache().stats(),
            reoptimizations: MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL),
            blocks_skipped: sys.server.engine().blocks_skipped("acdoca")?,
            group_recomputes,
            minmax_full_refreshes,
        })
    }
}

/// `VmHWM` of this process in MB: the peak resident set.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| VdmError::Exec(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| VdmError::Exec("no VmHWM in /proc/self/status".into()))
}
