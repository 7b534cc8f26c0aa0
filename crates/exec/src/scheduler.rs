//! Work-stealing morsel scheduler with adaptive claim sizing.
//!
//! Each worker owns a deque of contiguous item ranges. Workers claim a
//! small run of items from the *front* of their own deque; when it runs
//! dry they steal the *back half* of a victim's rearmost range, so a
//! thief walks off with the work its victim would have reached last and
//! contiguity (cache locality for the victim) is preserved. The claim
//! size adapts per worker from an EWMA of observed per-item latency:
//! claims shrink under skew (expensive items must stay stealable) and
//! grow when dispatch overhead dominates (cheap items amortize the
//! deque lock).
//!
//! Dispatch: a run over more than one worker is one
//! [`WorkerPool::broadcast`](crate::pool::WorkerPool::broadcast) — worker 0
//! on the calling thread, the others as roles on the pool installed with
//! [`with_worker_pool`](crate::pool::with_worker_pool), else on the process
//! pool. A role cancelled before it starts leaves no work behind: the
//! started workers steal its share.
//!
//! Determinism contract: item `i`'s result always lands in output slot
//! `i` and every item runs exactly once, so the output vector — and
//! anything merged from it in slot order — is schedule-independent. On
//! error, the *lowest-index* error wins regardless of which worker hit
//! an error first, matching what a serial left-to-right run would
//! report.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vdm_types::{Result, VdmError};

/// Target wall time for one claim batch: long enough that deque locking
/// is noise, short enough that a straggler's remaining work stays
/// stealable.
const TARGET_CLAIM_NANOS: u64 = 500_000;

/// Upper bound on items claimed at once, independent of how cheap they
/// look — a cap on how much work a single claim can hide from thieves.
const MAX_CLAIM: usize = 64;

/// Aggregate telemetry from one scheduler run.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Times a worker took work from another worker's deque.
    pub steals: usize,
    /// Claim batches executed (own-deque pops + steals).
    pub claims: usize,
    /// Items dispatched (always `n` on success).
    pub items: usize,
    /// Per-worker nanoseconds spent inside the item closure.
    pub busy_nanos: Vec<u64>,
    /// Wall-clock nanoseconds for the whole run.
    pub wall_nanos: u64,
}

impl SchedulerStats {
    /// Largest per-worker idle fraction: 1 − busy/wall. Used by skew
    /// tests to assert no worker sat out the run.
    pub fn max_idle_fraction(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.busy_nanos
            .iter()
            .map(|&b| 1.0 - (b.min(self.wall_nanos) as f64 / self.wall_nanos as f64))
            .fold(0.0, f64::max)
    }
}

/// Per-worker claim-size controller: EWMA of per-item nanos, claim size
/// chosen so one batch lands near [`TARGET_CLAIM_NANOS`].
struct ClaimSizer {
    ewma_item_nanos: f64,
}

impl ClaimSizer {
    fn new() -> ClaimSizer {
        ClaimSizer { ewma_item_nanos: 0.0 }
    }

    /// Items to claim next. The first claim is always 1 — latency is
    /// unknown and a misjudged large claim is exactly what starves
    /// thieves under skew.
    fn next_claim(&self) -> usize {
        if self.ewma_item_nanos <= 0.0 {
            return 1;
        }
        ((TARGET_CLAIM_NANOS as f64 / self.ewma_item_nanos) as usize).clamp(1, MAX_CLAIM)
    }

    fn observe(&mut self, items: usize, nanos: u64) {
        if items == 0 {
            return;
        }
        let per_item = nanos as f64 / items as f64;
        self.ewma_item_nanos = if self.ewma_item_nanos <= 0.0 {
            per_item
        } else {
            0.7 * self.ewma_item_nanos + 0.3 * per_item
        };
    }
}

/// One worker's share of the item space.
struct WorkerQueue {
    ranges: Mutex<VecDeque<Range<usize>>>,
}

/// Pops up to `want` items off the front of `q`'s first range.
fn claim_front(q: &WorkerQueue, want: usize) -> Option<Range<usize>> {
    let mut ranges = q.ranges.lock().unwrap();
    let first = ranges.front_mut()?;
    let take = want.min(first.len());
    let claimed = first.start..first.start + take;
    first.start += take;
    if first.start >= first.end {
        ranges.pop_front();
    }
    Some(claimed)
}

/// Steals the back half of `q`'s rearmost range (the whole range when it
/// holds a single item).
fn steal_back(q: &WorkerQueue) -> Option<Range<usize>> {
    let mut ranges = q.ranges.lock().unwrap();
    let last = ranges.back_mut()?;
    let keep = last.len() / 2;
    let stolen = last.start + keep..last.end;
    last.end = stolen.start;
    if last.start >= last.end {
        ranges.pop_back();
    }
    Some(stolen)
}

/// Runs items `0..n` across `threads` workers with work stealing.
///
/// Each worker builds its own scratch state via `mk_state`; the states
/// come back in worker-index order so the caller can merge them
/// deterministically. `f(item, state)` produces the item's result, which
/// lands in output slot `item`.
pub fn run_with<T, S, F>(
    threads: usize,
    n: usize,
    mk_state: impl Fn() -> S + Sync,
    f: F,
) -> Result<(Vec<T>, Vec<S>, SchedulerStats)>
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut S) -> Result<T> + Sync,
{
    let start = Instant::now();
    if threads <= 1 || n <= 1 {
        // Inline serial path: same closure contract, no thread overhead.
        let mut state = mk_state();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(f(i, &mut state)?);
        }
        let wall = start.elapsed().as_nanos() as u64;
        let stats = SchedulerStats {
            steals: 0,
            claims: n,
            items: n,
            busy_nanos: vec![wall],
            wall_nanos: wall,
        };
        return Ok((out, vec![state], stats));
    }

    let threads = threads.min(n);
    // Contiguous initial split: worker w starts where a static range
    // partition would put it, so with zero steals the claim order per
    // worker matches the static schedule.
    let queues: Vec<WorkerQueue> = (0..threads)
        .map(|w| {
            let per = n / threads;
            let extra = n % threads;
            let start = w * per + w.min(extra);
            let end = start + per + usize::from(w < extra);
            WorkerQueue { ranges: Mutex::new(std::iter::once(start..end).collect()) }
        })
        .collect();

    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicUsize::new(0);
    let claims = AtomicUsize::new(0);
    let state_slots: Vec<Mutex<Option<S>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let busy: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();

    let worker = |w: usize| {
        let mut state = mk_state();
        let mut sizer = ClaimSizer::new();
        let mut my_busy = 0u64;
        // Every item runs even after another item failed: slots are
        // all filled on exit, so the error reported below is the
        // lowest-index one regardless of scheduling.
        'work: loop {
            let run = match claim_front(&queues[w], sizer.next_claim()) {
                Some(r) => r,
                None => {
                    // Own deque dry: sweep victims once, then quit
                    // if everyone is dry. Queues are monotone-empty
                    // (nothing is ever pushed back), so a full sweep
                    // observing all of them empty stays true.
                    let mut stolen = None;
                    for off in 1..threads {
                        let v = (w + off) % threads;
                        if let Some(r) = steal_back(&queues[v]) {
                            stolen = Some(r);
                            break;
                        }
                    }
                    match stolen {
                        Some(r) => {
                            steals.fetch_add(1, Ordering::Relaxed);
                            r
                        }
                        None => break 'work,
                    }
                }
            };
            claims.fetch_add(1, Ordering::Relaxed);
            let items = run.len();
            let t0 = Instant::now();
            for i in run {
                *slots[i].lock().unwrap() = Some(f(i, &mut state));
            }
            let spent = t0.elapsed().as_nanos() as u64;
            my_busy += spent;
            sizer.observe(items, spent);
        }
        busy[w].fetch_add(my_busy as usize, Ordering::Relaxed);
        *state_slots[w].lock().unwrap() = Some(state);
    };

    // Worker 0 is the calling thread; the rest are roles on the installed
    // pool or the process pool (see `pool` on why nesting is safe).
    crate::pool::dispatch_pool().broadcast(threads, &worker);

    let stats = SchedulerStats {
        steals: steals.load(Ordering::Relaxed),
        claims: claims.load(Ordering::Relaxed),
        items: n,
        busy_nanos: busy.iter().map(|b| b.load(Ordering::Relaxed) as u64).collect(),
        wall_nanos: start.elapsed().as_nanos() as u64,
    };

    // Lowest-index error wins — schedule-independent, matches serial.
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap() {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => return Err(VdmError::Exec(format!("parallel worker dropped morsel {i}"))),
        }
    }

    // Pool dispatch may cancel a role whose share was already stolen; such
    // a role never builds a state, so slots can be empty. Surviving states
    // still come back in worker-index order.
    let states = state_slots.into_iter().filter_map(|s| s.into_inner().unwrap()).collect();
    Ok((out, states, stats))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::{with_worker_pool, WorkerPool};
    use std::sync::atomic::AtomicU64;
    use std::sync::Condvar;

    /// A two-party meeting point that fails the test instead of hanging:
    /// [`Rendezvous::meet`] returns once both parties have called it.
    #[derive(Default)]
    pub(crate) struct Rendezvous(Mutex<usize>, Condvar);

    impl Rendezvous {
        pub(crate) fn meet(&self) {
            let mut arrived = self.0.lock().unwrap();
            *arrived += 1;
            self.1.notify_all();
            let timeout = std::time::Duration::from_secs(60);
            let (arrived, wait) = self.1.wait_timeout_while(arrived, timeout, |n| *n < 2).unwrap();
            drop(arrived);
            assert!(!wait.timed_out(), "the other party never arrived");
        }
    }

    /// The calling thread's name (`vdm-pool-N` on a pool thread).
    pub(crate) fn thread_name() -> String {
        std::thread::current().name().unwrap_or_default().to_string()
    }

    /// A role that dispatches a wave of its own completes — on the process
    /// pool, and on an installed one-thread pool whose only thread is
    /// provably busy in the outer wave while the caller's inner wave is
    /// dispatched onto it: a broadcast never waits on a role that has not
    /// started.
    #[test]
    fn a_role_that_dispatches_a_wave_completes() {
        let nested = || {
            let (met, released) = (Rendezvous::default(), Rendezvous::default());
            let inner = || Ok(run_with(2, 64, || (), |i, _| Ok(i))?.0.into_iter().sum::<usize>());
            let (out, _, _) = run_with(
                2,
                2,
                || (),
                |i, _| {
                    // Item 0 is the caller's, item 1 a pool thread's: each
                    // blocks until the other has started.
                    met.meet();
                    let sum = if i == 0 {
                        // The pool thread waits below until this inner
                        // wave is done, so no pool thread can take its role.
                        let sum = inner();
                        released.meet();
                        sum
                    } else {
                        released.meet();
                        inner()
                    };
                    Ok((sum?, thread_name()))
                },
            )
            .unwrap();
            assert_eq!(out[0].0, 64 * 63 / 2);
            assert_eq!(out[1].0, 64 * 63 / 2);
            assert!(out[1].1.starts_with("vdm-pool-"), "{out:?}");
        };
        nested();
        with_worker_pool(&WorkerPool::new(1), nested);
    }

    #[test]
    fn covers_every_item_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 100, 1000] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let (out, states, stats) = run_with(
                    threads,
                    n,
                    || 0usize,
                    |i, s: &mut usize| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        *s += 1;
                        Ok(i * 3)
                    },
                )
                .unwrap();
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                assert_eq!(states.iter().sum::<usize>(), n, "threads={threads} n={n}");
                assert_eq!(stats.items, n);
            }
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Serial path reports the first error left-to-right.
        let err = run_with(
            1,
            10,
            || (),
            |i, _| {
                if i >= 3 {
                    Err(VdmError::Exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, VdmError::Exec("boom 3".into()));
        // Parallel path: all items run, and the lowest failing index is
        // reported no matter which worker hit an error first.
        let err = run_with(
            4,
            100,
            || (),
            |i, _| {
                if i >= 57 {
                    Err(VdmError::Exec(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, VdmError::Exec("boom 57".into()));
    }

    #[test]
    fn an_installed_pool_keeps_the_contract() {
        let pool = WorkerPool::new(3);
        with_worker_pool(&pool, || {
            for n in [2, 7, 100, 1000] {
                let (out, states, stats) = run_with(
                    4,
                    n,
                    || 0usize,
                    |i, s: &mut usize| {
                        *s += 1;
                        Ok(i * 3)
                    },
                )
                .unwrap();
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                // Cancelled roles publish no state, but every item ran
                // exactly once somewhere.
                assert_eq!(states.iter().sum::<usize>(), n);
                assert_eq!(stats.items, n);
            }
            // Errors keep the lowest-index-wins contract through the pool.
            let err = run_with(
                4,
                100,
                || (),
                |i, _| {
                    if i >= 57 {
                        Err(VdmError::Exec(format!("boom {i}")))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, VdmError::Exec("boom 57".into()));
        });
    }

    #[test]
    fn claim_sizer_adapts_both_ways() {
        let mut s = ClaimSizer::new();
        assert_eq!(s.next_claim(), 1, "first claim probes with a single item");
        // Cheap items → larger claims (dispatch overhead dominates).
        s.observe(1, 1_000);
        assert!(s.next_claim() > 16, "cheap items should batch: {}", s.next_claim());
        // Then a skewed, expensive item drags the claim size back down.
        for _ in 0..8 {
            s.observe(1, 4 * TARGET_CLAIM_NANOS);
        }
        assert_eq!(s.next_claim(), 1, "expensive items must stay stealable");
    }

    #[test]
    fn steal_back_takes_rear_half() {
        let q = WorkerQueue { ranges: Mutex::new(std::iter::once(0..8).collect()) };
        assert_eq!(steal_back(&q), Some(4..8));
        assert_eq!(steal_back(&q), Some(2..4));
        assert_eq!(steal_back(&q), Some(1..2));
        assert_eq!(steal_back(&q), Some(0..1));
        assert_eq!(steal_back(&q), None);
    }

    #[test]
    fn skewed_work_is_stolen_and_results_stay_exact() {
        // Worker 0's initial share holds one hot item that takes ~40ms of
        // spinning while everything else is free. Even on one core the
        // OS preempts the hot worker, so thieves drain its remaining
        // share and the steal counter must move.
        let n = 256;
        let (out, _, stats) = run_with(
            4,
            n,
            || (),
            |i, _| {
                if i == 1 {
                    let t0 = Instant::now();
                    let mut x = 0u64;
                    while t0.elapsed().as_millis() < 40 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                        std::hint::black_box(x);
                    }
                }
                Ok(i as u64)
            },
        )
        .unwrap();
        assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
        assert!(stats.steals > 0, "idle workers must steal the hot worker's share: {stats:?}");
        assert!(stats.max_idle_fraction() <= 1.0);
    }
}
