//! Opt-in runtime counters of one pool: parallel regions, chunks
//! executed and per-worker busy time.
//!
//! Every [`ThreadPool`](crate::ThreadPool) owns one [`PoolCounters`],
//! sized to its own width and read through
//! [`ThreadPool::counters`](crate::ThreadPool::counters), so two pools
//! never mix their numbers. The counters sit behind one `enabled` gate,
//! so when counting is off a region pays one relaxed load and a chunk
//! loop one per worker — the same zero-cost contract as the
//! `NullRecorder` in the core crate, adapted to a crate that the core
//! depends on (so it cannot use that trait directly).
//!
//! The free functions [`enable`], [`disable`] and [`snapshot`] are
//! shorthands for the [`global_pool`](crate::global_pool)'s counters.
//! They stay for the standing benchmark, whose batch workloads run on
//! the global pool, until ROADMAP item 2(e) reads the product's
//! records instead.
//!
//! Relaxed orderings are deliberate: the counters feed end-of-run
//! reports, not synchronization, and every `broadcast` joins all
//! workers before `snapshot` can observe their updates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The counters of one pool.
#[derive(Debug)]
pub struct PoolCounters {
    enabled: AtomicBool,
    regions: AtomicU64,
    chunks: AtomicU64,
    busy_nanos: Box<[AtomicU64]>,
}

impl PoolCounters {
    /// Counters for a pool of `workers` threads, off.
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            regions: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Turns the counters on and zeroes them, starting a fresh
    /// collection window. Off by default.
    ///
    /// The zeroing matters for pool reuse: the pool survives across
    /// runs (including after a worker panic), so without it a second
    /// instrumented run would report the first run's regions and busy
    /// time on top of its own.
    pub fn enable(&self) {
        self.reset();
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns the counters off (the counts keep their values).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the counters are currently collecting.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zeroes every counter (collection state is unchanged).
    fn reset(&self) {
        self.regions.store(0, Ordering::Relaxed);
        self.chunks.store(0, Ordering::Relaxed);
        for slot in self.busy_nanos.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Reads the current counter values, one busy entry per worker.
    ///
    /// The view is only guaranteed consistent when no region is in
    /// flight on the pool (the intended use: snapshot after the
    /// instrumented run finishes).
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            regions: self.regions.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            steals: 0,
            busy_seconds: self
                .busy_nanos
                .iter()
                .map(|n| n.load(Ordering::Relaxed) as f64 * 1e-9)
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn on_region(&self) {
        if self.enabled() {
            self.regions.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn on_busy(&self, worker: usize, nanos: u64) {
        self.busy_nanos[worker].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Counts `chunks` chunks on the counters of the pool running this
/// worker. A loop counts its chunks in a local and calls this once per
/// worker per region, so a chunk costs no thread-local lookup and no
/// atomic.
pub(crate) fn on_chunks(chunks: u64) {
    let counters = crate::pool::current_shared().map(|shared| &shared.counters);
    if let Some(counters) = counters.filter(|c| c.enabled()) {
        counters.chunks.fetch_add(chunks, Ordering::Relaxed);
    }
}

/// Turns the [`global_pool`](crate::global_pool)'s counters on,
/// zeroing them first ([`PoolCounters::enable`]).
pub fn enable() {
    crate::global_pool().counters().enable();
}

/// Turns the global pool's counters off ([`PoolCounters::disable`]).
pub fn disable() {
    crate::global_pool().counters().disable();
}

/// Reads the global pool's counters ([`PoolCounters::snapshot`]).
pub fn snapshot() -> PoolSnapshot {
    crate::global_pool().counters().snapshot()
}

/// A point-in-time copy of one pool's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Parallel regions broadcast to the pool.
    pub regions: u64,
    /// Chunks grabbed from shared-counter loops.
    pub chunks: u64,
    /// Always 0: the runtime has no stealing scheduler. Kept only
    /// because the standing benchmark still reads it as
    /// `parallel.steals`; ROADMAP item 2(e) removes that read, and
    /// this field with it.
    pub steals: u64,
    /// Busy seconds per worker, indexed by `WorkerId`; only workers
    /// that ran at least one region appear as non-zero.
    pub busy_seconds: Vec<f64>,
}

impl PoolSnapshot {
    /// Total busy seconds summed over workers.
    pub fn total_busy_seconds(&self) -> f64 {
        self.busy_seconds.iter().sum()
    }

    /// Max-over-mean busy time across workers that did any work: 1.0
    /// is a perfectly balanced run, higher means the slowest worker
    /// carried proportionally more of the load. Returns 1.0 when no
    /// busy time was recorded.
    pub fn load_imbalance(&self) -> f64 {
        let active: Vec<f64> = self
            .busy_seconds
            .iter()
            .copied()
            .filter(|&s| s > 0.0)
            .collect();
        if active.is_empty() {
            return 1.0;
        }
        let max = active.iter().cloned().fold(0.0f64, f64::max);
        let mean = active.iter().sum::<f64>() / active.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_pool, ThreadPool};

    #[test]
    fn disabled_counters_stay_zero() {
        // Counting is off by default; instrumented ops must not count.
        let pool = ThreadPool::new(2);
        with_pool(&pool, || crate::parallel_for(0..100_000, 1024, |_r| {}));
        let snap = pool.counters().snapshot();
        assert_eq!(snap.regions, 0);
        assert_eq!(snap.chunks, 0);
        assert_eq!(snap.busy_seconds, [0.0, 0.0]);
    }

    #[test]
    fn a_pool_counts_only_its_own_regions() {
        let (counted, other) = (ThreadPool::new(3), ThreadPool::new(2));
        counted.counters().enable();
        with_pool(&counted, || crate::parallel_for(0..100, 10, |_r| {}));
        with_pool(&other, || crate::parallel_for(0..100, 10, |_r| {}));
        let snap = counted.counters().snapshot();
        assert_eq!((snap.regions, snap.chunks), (1, 10));
        assert_eq!(snap.busy_seconds.len(), 3);
        assert_eq!(other.counters().snapshot().regions, 0);
    }

    #[test]
    fn load_imbalance_of_balanced_run_is_one() {
        let snap = PoolSnapshot {
            regions: 1,
            chunks: 4,
            steals: 0,
            busy_seconds: vec![2.0, 2.0, 2.0, 2.0],
        };
        assert!((snap.load_imbalance() - 1.0).abs() < 1e-12);
        assert!((snap.total_busy_seconds() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_ignores_idle_workers() {
        let snap = PoolSnapshot {
            regions: 1,
            chunks: 4,
            steals: 0,
            busy_seconds: vec![3.0, 1.0, 0.0, 0.0],
        };
        // max 3, mean over active workers (3+1)/2 = 2 -> 1.5.
        assert!((snap.load_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_reports_balance_one() {
        let snap = PoolSnapshot {
            regions: 0,
            chunks: 0,
            steals: 0,
            busy_seconds: vec![],
        };
        assert!((snap.load_imbalance() - 1.0).abs() < 1e-12);
    }
}
