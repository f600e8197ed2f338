//! The persistent worker pool and its fork-join "parallel region" protocol.
//!
//! A [`ThreadPool`] owns `N - 1` background worker threads; the thread
//! that calls [`ThreadPool::broadcast`] always participates as worker 0,
//! so a pool of size 1 runs everything inline and spawns no threads at
//! all (important on single-core machines, where the experiments still
//! run the exact same code path).
//!
//! A parallel region executes one `Fn(WorkerId)` closure once on every
//! worker. All higher-level operations (chunked loops, reductions,
//! prefix sums) are built from this single primitive plus shared
//! atomics, mirroring how the paper's Cilk runtime distributes chunks of
//! a shared work queue among threads.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// A panic payload carried from a worker back to the caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Identifier of the worker executing a region closure.
///
/// Worker ids are dense in `0..num_threads` and stable for the lifetime
/// of a region, which makes them suitable for indexing per-thread
/// scratch buffers (e.g. the per-thread histograms of the radix sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId(pub(crate) usize);

impl WorkerId {
    /// Returns the dense index of this worker in `0..num_threads`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Type-erased pointer to the region closure.
///
/// The pointee lives on the caller's stack; `broadcast` blocks until all
/// workers have finished running it, which is what makes the erasure of
/// its lifetime sound.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(WorkerId) + Sync));

// SAFETY: the pointee is `Sync` (shared access from many threads is
// allowed) and `broadcast` does not return until every worker is done
// with the pointer, so it never dangles while shared.
unsafe impl Send for JobPtr {}

struct RegionSlot {
    /// Monotonically increasing region counter; workers use it to detect
    /// fresh work.
    epoch: u64,
    /// The closure to run, present while a region is active.
    job: Option<JobPtr>,
    /// Background workers that have not yet finished the current region.
    remaining: usize,
    /// First panic payload captured in the current region, if any.
    /// Re-thrown on the calling thread once the region has drained.
    panic: Option<PanicPayload>,
}

struct Shared {
    num_threads: usize,
    slot: Mutex<RegionSlot>,
    /// Workers sleep here between regions.
    work_cv: Condvar,
    /// The caller sleeps here while workers drain the region.
    done_cv: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// Worker id of the region currently executing on this thread, if
    /// any. Used both to hand out ids and to detect nested regions,
    /// which run inline (Cilk-style serialization of nested spawns).
    static CURRENT_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
    /// Pool override installed by [`with_pool`] on this thread, if any.
    /// Raw pointer because the override is strictly scoped: `with_pool`
    /// borrows the pool for the closure's duration and restores the
    /// previous value (panic-safe) before returning.
    static SCOPED_POOL: Cell<Option<*const ThreadPool>> = const { Cell::new(None) };
    /// Thread count of the region currently executing on this thread
    /// (0 outside any region). Nested operations on worker threads size
    /// their per-worker scratch from this, so they match the pool that
    /// is actually broadcasting rather than the global one.
    static REGION_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Restores the worker-identity thread-locals even if the region
/// closure unwinds.
struct WorkerScope {
    prev_worker: Option<usize>,
    prev_threads: usize,
}

impl WorkerScope {
    fn enter(index: usize, region_threads: usize) -> Self {
        let prev_worker = CURRENT_WORKER.with(|c| c.replace(Some(index)));
        let prev_threads = REGION_THREADS.with(|c| c.replace(region_threads));
        Self {
            prev_worker,
            prev_threads,
        }
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|c| c.set(self.prev_worker));
        REGION_THREADS.with(|c| c.set(self.prev_threads));
    }
}

/// Runs `f` with `pool` installed as the calling thread's active pool:
/// for the duration of the closure, [`current_num_threads`] and every
/// parallel operation in this crate (and operations built on it in
/// `egraph-core` / `egraph-sort`) broadcast on `pool` instead of the
/// process-wide [`global_pool`].
///
/// Overrides nest: the previous override (if any) is restored when `f`
/// returns or unwinds. The override is per-thread and does not
/// propagate to threads spawned inside `f`.
///
/// This is what lets a single test process exercise the same algorithm
/// at thread counts {1, 2, 4, 8} deterministically, without mutating
/// `EGRAPH_THREADS` or the global pool.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const ThreadPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_POOL.with(|c| c.set(self.0));
        }
    }
    let prev = SCOPED_POOL.with(|c| c.replace(Some(pool as *const ThreadPool)));
    let _restore = Restore(prev);
    f()
}

/// The number of workers parallel operations started from this thread
/// will run on: the active region's width when called from inside a
/// region, otherwise the scoped pool installed by [`with_pool`],
/// otherwise the [`global_pool`].
///
/// Per-worker scratch (reduction slots, histograms, worker-local
/// buffers) must be sized from this, never from `global_pool()`
/// directly, so that scoped pools of any width stay in bounds.
#[inline]
pub fn current_num_threads() -> usize {
    let region = REGION_THREADS.with(Cell::get);
    if region > 0 {
        return region;
    }
    if let Some(ptr) = SCOPED_POOL.with(Cell::get) {
        // SAFETY: `with_pool` keeps the pool borrowed while the
        // override is installed and uninstalls it before returning.
        return unsafe { (*ptr).num_threads() };
    }
    global_pool().num_threads()
}

/// Runs `f` once per worker on the calling thread's active pool (see
/// [`current_num_threads`] for the resolution order). Inside a region
/// this serializes onto the current worker exactly like a nested
/// [`ThreadPool::broadcast`].
pub fn broadcast_current(f: &(dyn Fn(WorkerId) + Sync)) {
    if let Some(current) = CURRENT_WORKER.with(Cell::get) {
        // Nested region: serialize inline without touching any pool
        // (the global pool may not even exist yet on worker threads).
        f(WorkerId(current));
        return;
    }
    if let Some(ptr) = SCOPED_POOL.with(Cell::get) {
        // SAFETY: see `current_num_threads`.
        unsafe { (*ptr).broadcast(f) };
        return;
    }
    global_pool().broadcast(f);
}

/// Runs `f` on the calling thread as worker 0 of a one-wide region that
/// no pool is asked to open. Every parallel operation inside `f` takes
/// the nested-region path and runs inline, [`current_num_threads`] is 1
/// (so a [`crate::WorkerLocal`] created inside has one slot), and no
/// worker wakes, so nothing is counted as a region or as busy time.
/// Inside a region already, `f` simply runs on the current worker.
///
/// This is granularity control for work that is known to be small
/// before it starts (Ligra / GBBS): a region costs a wake-up of every
/// background worker, which a few hundred vertices of work does not
/// repay.
///
/// # Examples
///
/// ```
/// let slots = egraph_parallel::run_inline(|| {
///     egraph_parallel::WorkerLocal::new(Vec::<u32>::new).num_slots()
/// });
/// assert_eq!(slots, 1);
/// ```
pub fn run_inline<R>(f: impl FnOnce() -> R) -> R {
    if CURRENT_WORKER.with(Cell::get).is_some() {
        return f();
    }
    let _scope = WorkerScope::enter(0, 1);
    f()
}

/// A fixed-size fork-join worker pool.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use egraph_parallel::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.broadcast(&|_worker| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool that runs regions on `num_threads` threads in
    /// total (the calling thread plus `num_threads - 1` background
    /// workers). `num_threads` is clamped to `1..=256`.
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.clamp(1, 256);
        let shared = Arc::new(Shared {
            num_threads,
            slot: Mutex::new(RegionSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (1..num_threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("egraph-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("failed to spawn egraph worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Creates a pool sized from `EGRAPH_THREADS` or, failing that, the
    /// machine's available parallelism.
    pub fn with_default_size() -> Self {
        Self::new(default_num_threads())
    }

    /// Returns the total number of threads regions run on, including the
    /// caller.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.shared.num_threads
    }

    /// Runs `f` once on every worker (including the calling thread as
    /// worker 0) and returns when all invocations have completed.
    ///
    /// Nested calls from inside a region run `f` inline on the current
    /// worker instead of deadlocking, so parallel operations compose
    /// (they merely lose parallelism when nested). Calls from different
    /// threads on one pool take turns, one region at a time.
    ///
    /// # Panics
    ///
    /// If any worker's invocation of `f` panics, the region still
    /// drains cleanly (every worker finishes or unwinds, the pool stays
    /// usable) and the first captured payload is re-thrown on the
    /// calling thread — a worker panic can never hang the pool or be
    /// silently swallowed.
    pub fn broadcast(&self, f: &(dyn Fn(WorkerId) + Sync)) {
        if let Some(current) = CURRENT_WORKER.with(Cell::get) {
            // Nested region: serialize on the current worker. Nested
            // work is already inside the outer region's busy window, so
            // it is not counted again.
            f(WorkerId(current));
            return;
        }
        crate::telemetry::on_region();
        crate::fault::on_region();
        if self.shared.num_threads == 1 {
            let _scope = WorkerScope::enter(0, 1);
            run_timed(f, WorkerId(0));
            return;
        }

        let ptr: *const (dyn Fn(WorkerId) + Sync) = f;
        // SAFETY: we only erase the lifetime of the trait object; the
        // pointer is stored in the shared slot and `broadcast` blocks
        // below until `remaining == 0`, i.e. until no worker can still
        // dereference it.
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(WorkerId) + Sync),
                *const (dyn Fn(WorkerId) + Sync + 'static),
            >(ptr)
        });

        {
            let mut slot = self.shared.slot.lock();
            // Regions from different caller threads (concurrent tests
            // sharing the global pool) take turns: wait out the one in
            // flight instead of overwriting its job.
            while slot.job.is_some() {
                self.shared.done_cv.wait(&mut slot);
            }
            slot.epoch += 1;
            slot.job = Some(job);
            slot.remaining = self.shared.num_threads - 1;
            slot.panic = None;
            self.shared.work_cv.notify_all();
        }

        // The caller participates as worker 0. Catch its unwind so the
        // job pointer stays published until every background worker has
        // finished with it, then re-throw.
        let caller_result = {
            let _scope = WorkerScope::enter(0, self.shared.num_threads);
            std::panic::catch_unwind(AssertUnwindSafe(|| run_timed(f, WorkerId(0))))
        };

        let panic = {
            let mut slot = self.shared.slot.lock();
            while slot.remaining > 0 {
                self.shared.done_cv.wait(&mut slot);
            }
            slot.job = None;
            self.shared.done_cv.notify_all();
            slot.panic.take()
        };
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _slot = self.shared.slot.lock();
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one worker's share of a region, attributing its wall time to
/// the telemetry busy counters and the timeline (when they are
/// collecting — each costs one relaxed load otherwise).
#[inline]
fn run_timed(f: &(dyn Fn(WorkerId) + Sync), worker: WorkerId) {
    let _span = crate::timeline::span(crate::timeline::SpanKind::Region, "region", "");
    crate::fault::on_worker_run(worker.index());
    if crate::telemetry::enabled() {
        let start = std::time::Instant::now();
        f(worker);
        crate::telemetry::on_busy(worker.index(), start.elapsed().as_nanos() as u64);
    } else {
        f(worker);
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match slot.job {
                    Some(job) if slot.epoch != last_epoch => {
                        last_epoch = slot.epoch;
                        break job;
                    }
                    _ => shared.work_cv.wait(&mut slot),
                }
            }
        };

        let result = {
            let _scope = WorkerScope::enter(index, shared.num_threads);
            // SAFETY: `broadcast` keeps the pointee alive until
            // `remaining` drops to zero, which happens strictly after
            // this call returns (or unwinds into the catch below).
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_timed(unsafe { &*job.0 }, WorkerId(index))
            }))
        };

        // Decrement unconditionally: a panicking worker must still
        // retire from the region or `broadcast` would wait forever.
        let mut slot = shared.slot.lock();
        if let Err(payload) = result {
            if slot.panic.is_none() {
                slot.panic = Some(payload);
            }
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Returns the index of the worker currently executing a parallel
/// region on this thread, or `None` outside any region.
///
/// Worker-local storage ([`crate::WorkerLocal`]) uses this to pick the
/// calling worker's private slot without threading a [`WorkerId`]
/// through every closure layer.
#[inline]
pub fn current_worker_index() -> Option<usize> {
    CURRENT_WORKER.with(Cell::get)
}

/// Computes the default pool size: `EGRAPH_THREADS` if set and valid,
/// otherwise the available parallelism of the machine.
pub fn default_num_threads() -> usize {
    if let Ok(value) = std::env::var("EGRAPH_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Returns the process-wide pool, creating it on first use.
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::with_default_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broadcast_runs_once_per_worker() {
        let pool = ThreadPool::new(8);
        let flags: Vec<AtomicBool> = (0..8).map(|_| AtomicBool::new(false)).collect();
        pool.broadcast(&|w| {
            assert!(!flags[w.index()].swap(true, Ordering::SeqCst));
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst)));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|w| {
            assert_eq!(w.index(), 0);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_broadcast_serializes() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            // A nested region must not deadlock; it runs inline, once.
            pool.broadcast(&|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn run_inline_is_a_one_wide_region_on_the_caller() {
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        with_pool(&pool, || {
            let calls = AtomicUsize::new(0);
            run_inline(|| {
                assert_eq!(current_num_threads(), 1);
                assert_eq!(current_worker_index(), Some(0));
                broadcast_current(&|w| {
                    assert_eq!((w.index(), std::thread::current().id()), (0, caller));
                    calls.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(calls.load(Ordering::SeqCst), 1);
            // The scope is gone again: full-width regions resume.
            assert_eq!(current_num_threads(), 4);
            assert!(current_worker_index().is_none());
        });
        // Inside a region it keeps the worker it runs on.
        pool.broadcast(&|w| {
            run_inline(|| assert_eq!(current_worker_index(), Some(w.index())));
        });
    }

    #[test]
    fn repeated_regions_reuse_workers() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(&|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn concurrent_callers_take_turns() {
        // Two threads broadcasting on one pool (test threads sharing
        // the global pool): every region must still run exactly once
        // per worker, never overwritten by the other caller's job.
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let count = AtomicUsize::new(0);
                        pool.broadcast(&|_| {
                            count.fetch_add(1, Ordering::SeqCst);
                        });
                        assert_eq!(count.load(Ordering::SeqCst), 4);
                    }
                });
            }
        });
    }

    #[test]
    fn clamps_thread_count() {
        assert_eq!(ThreadPool::new(0).num_threads(), 1);
        assert_eq!(ThreadPool::new(1_000_000).num_threads(), 256);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w.index() == 2 {
                    panic!("injected worker panic");
                }
            });
        }));
        let payload = result.expect_err("worker panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("injected worker panic"), "{message}");
        // The region drained cleanly: the pool still runs full regions.
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn caller_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w.index() == 0 {
                    panic!("caller-side panic");
                }
            });
        }));
        assert!(result.is_err());
        assert!(current_worker_index().is_none(), "worker scope must reset");
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn single_thread_panic_restores_worker_scope() {
        let pool = ThreadPool::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|_| panic!("inline panic"));
        }));
        assert!(result.is_err());
        assert!(current_worker_index().is_none());
        assert_eq!(REGION_THREADS.with(Cell::get), 0);
    }

    #[test]
    fn with_pool_overrides_current_pool() {
        let wide = ThreadPool::new(8);
        let narrow = ThreadPool::new(2);
        with_pool(&wide, || {
            assert_eq!(current_num_threads(), 8);
            let seen = AtomicUsize::new(0);
            broadcast_current(&|_| {
                seen.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(seen.load(Ordering::SeqCst), 8);
            with_pool(&narrow, || {
                assert_eq!(current_num_threads(), 2);
            });
            // Inner override is restored on exit.
            assert_eq!(current_num_threads(), 8);
        });
    }

    #[test]
    fn region_threads_visible_to_nested_code() {
        let pool = ThreadPool::new(4);
        with_pool(&pool, || {
            broadcast_current(&|_| {
                // Nested per-worker sizing must see the broadcasting
                // pool's width, not the global pool's.
                assert_eq!(current_num_threads(), 4);
            });
        });
    }

    #[test]
    fn with_pool_restores_override_on_panic() {
        let pool = ThreadPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || panic!("escape"));
        }));
        assert!(result.is_err());
        assert!(SCOPED_POOL.with(Cell::get).is_none());
    }

    #[test]
    fn borrows_caller_stack_data() {
        let pool = ThreadPool::new(4);
        let data = vec![1u64; 1024];
        let sum = AtomicUsize::new(0);
        pool.broadcast(&|w| {
            let chunk = 1024 / 4;
            let start = w.index() * chunk;
            let local: u64 = data[start..start + chunk].iter().sum();
            sum.fetch_add(local as usize, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 1024);
    }
}
