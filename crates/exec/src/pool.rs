//! The worker pools the executor dispatches waves of morsels onto.
//!
//! Every wave the executor dispatches is one [`WorkerPool::broadcast`]: on
//! the pool installed on the calling thread with [`with_worker_pool`] if
//! there is one, else on the *process pool* — one per process, built on
//! first dispatch with as many threads as the executor dispatches workers at
//! most (the host's cores, floor 2). Threads stay parked between waves, so no
//! wave spawns a thread and the thread count stays flat however many queries
//! or sessions run.
//!
//! # Dispatch contract
//!
//! [`WorkerPool::broadcast`] runs `f(0)` on the *calling* thread and ships
//! roles `1..roles` to pool threads. The borrow of `f` (and everything it
//! captures from the caller's stack) is erased to a raw pointer so it can
//! cross into the long-lived pool threads; soundness comes from the
//! completion latch: `broadcast` does not return until every shipped role
//! has either finished or been cancelled before starting, so the erased
//! borrow never outlives the frame it points into. Roles still queued when
//! the caller's own role completes are cancelled: a wave's roles claim items
//! from one shared cursor until it passes the item count, so the caller's
//! role returns only once every item is claimed, a role that never starts
//! leaves nothing behind, and cancelling keeps tail latency tight when the
//! pool is saturated by other queries.
//!
//! Nested waves need no special case. A role that dispatches a wave of its
//! own broadcasts it like any caller (pool threads have no installed pool, so
//! theirs go to the process pool), and a broadcast only ever waits on roles
//! that have *started*: those are running on some thread, and queued ones
//! are cancelled. By induction over the nesting depth every wave completes,
//! even when every pool thread is busy in an outer role.
//!
//! Panics on a pool thread are caught, the latch is still released, and the
//! panic is re-raised on the calling thread after the wait.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One broadcast in flight: the erased role closure plus its latch.
struct Run {
    /// Borrow of the caller's closure with the lifetime erased. Valid until
    /// the latch releases (`pending == 0`), which `broadcast` awaits before
    /// returning.
    f: *const (dyn Fn(usize) + Sync),
    /// Roles shipped to the pool that have not yet finished or been
    /// cancelled.
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

// SAFETY: `f` is only dereferenced while `broadcast` blocks on the latch,
// so the pointee is live; the pointee is `Sync`, so calling it from several
// pool threads at once is allowed.
unsafe impl Send for Run {}
unsafe impl Sync for Run {}

struct Task {
    run: Arc<Run>,
    role: usize,
}

struct PoolInner {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Joins the pool threads when the last external [`WorkerPool`] handle
/// drops. Separate from [`PoolInner`] because the worker threads themselves
/// keep `PoolInner` alive.
struct JoinGuard {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for JoinGuard {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// A fixed-size pool of parked worker threads shared by every wave
/// dispatched onto it. Cloning is cheap (one `Arc`); the threads exit when
/// the last clone drops.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    _guard: Arc<JoinGuard>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` parked threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("vdm-pool-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
            handles.push(h);
        }
        WorkerPool {
            _guard: Arc::new(JoinGuard { inner: Arc::clone(&inner), handles: Mutex::new(handles) }),
            inner,
            workers,
        }
    }

    /// Number of pool threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(role)` for every role in `0..roles`: role 0 inline on the
    /// calling thread, the rest on pool threads. Returns once every role
    /// has finished or was cancelled before starting (see module docs for
    /// why cancellation is sound for the executor's waves).
    pub fn broadcast(&self, roles: usize, f: &(dyn Fn(usize) + Sync)) {
        if roles <= 1 {
            f(0);
            return;
        }
        // Erase the borrow's lifetime; the latch below keeps it sound.
        #[allow(clippy::missing_transmute_annotations)]
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
        let run = Arc::new(Run {
            f: erased,
            pending: Mutex::new(roles - 1),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        {
            let mut q = self.inner.queue.lock().unwrap();
            for role in 1..roles {
                q.push_back(Task { run: Arc::clone(&run), role });
            }
        }
        self.inner.available.notify_all();

        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));

        // Our role is done: anything of ours still queued can only hold
        // already-drained queues — cancel it rather than wait for a slot.
        let cancelled = {
            let mut q = self.inner.queue.lock().unwrap();
            let before = q.len();
            q.retain(|t| !Arc::ptr_eq(&t.run, &run));
            before - q.len()
        };
        let mut pending = run.pending.lock().unwrap();
        *pending -= cancelled;
        while *pending > 0 {
            pending = run.done.wait(pending).unwrap();
        }
        drop(pending);

        if let Err(p) = caller {
            resume_unwind(p);
        }
        if run.panicked.load(Ordering::SeqCst) {
            panic!("worker pool task panicked");
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let task = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.available.wait(q).unwrap();
            }
        };
        // SAFETY: the originating `broadcast` is blocked on this run's
        // latch, so the closure (and the stack it borrows) is live.
        let f = unsafe { &*task.run.f };
        let res = catch_unwind(AssertUnwindSafe(|| f(task.role)));
        if res.is_err() {
            task.run.panicked.store(true, Ordering::SeqCst);
        }
        let mut pending = task.run.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            task.run.done.notify_all();
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerPool>> = const { RefCell::new(None) };
}

/// Installs `pool` as the executor's dispatch target for the duration of
/// `f` on this thread. Nested installs restore the previous pool on exit.
pub fn with_worker_pool<R>(pool: &WorkerPool, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(pool.clone()));
    struct Restore(Option<WorkerPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The pool a wave dispatched from this thread broadcasts on: the installed
/// one, else the process pool.
pub(crate) fn dispatch_pool() -> WorkerPool {
    static PROCESS: OnceLock<WorkerPool> = OnceLock::new();
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        PROCESS.get_or_init(|| WorkerPool::new(crate::executor::pool_workers(usize::MAX))).clone()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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

    #[test]
    fn broadcast_runs_every_role() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(4, &|role| {
            hits[role].fetch_add(1, Ordering::SeqCst);
        });
        // Role 0 always runs on the caller; shipped roles run unless
        // cancelled after the caller finished (here the caller is instant,
        // so some helpers may be cancelled — but role 0 is guaranteed).
        assert_eq!(hits[0].load(Ordering::SeqCst), 1);
        let total: usize = hits.iter().map(|h| h.load(Ordering::SeqCst)).sum();
        assert!((1..=4).contains(&total), "no role may run twice: {total}");
    }

    #[test]
    fn broadcast_waits_for_started_helpers() {
        let pool = WorkerPool::new(2);
        let sum = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.broadcast(3, &|role| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                sum.fetch_add(role + 1, Ordering::SeqCst);
            });
        }
        // Every *started* role completed before broadcast returned; the
        // caller role alone contributes 50.
        assert!(sum.load(Ordering::SeqCst) >= 50);
    }

    #[test]
    fn pool_panics_propagate() {
        let pool = WorkerPool::new(2);
        // Roles 0 and 1 meet, so role 1 has provably started on a pool
        // thread (it is not cancelled) before it panics.
        let met = Rendezvous::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|role| {
                met.meet();
                assert_ne!(role, 1, "role 1 panics");
            });
        }));
        assert!(caught.is_err(), "a pool thread's panic must reach the caller");
        // The same pool still runs both roles of the next broadcast.
        let (again, ran) = (Rendezvous::default(), AtomicUsize::new(0));
        pool.broadcast(2, &|_| {
            again.meet();
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn with_worker_pool_installs_and_restores() {
        let dispatches_to = |p: &WorkerPool| Arc::ptr_eq(&dispatch_pool().inner, &p.inner);
        let process = dispatch_pool();
        let pool = WorkerPool::new(1);
        with_worker_pool(&pool, || {
            assert!(dispatches_to(&pool));
            let inner = WorkerPool::new(1);
            with_worker_pool(&inner, || assert!(dispatches_to(&inner)));
            assert!(dispatches_to(&pool));
        });
        assert!(dispatches_to(&process), "without an installed pool, waves use the process pool");
        assert_eq!(process.workers(), crate::executor::pool_workers(usize::MAX));
    }
}
