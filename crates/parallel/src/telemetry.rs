//! Opt-in runtime counters for the pool: parallel regions, chunks
//! executed, dynamic tasks, and per-worker busy time.
//!
//! The counters are process-global atomics behind a single `enabled`
//! gate, so the instrumented fast paths pay one relaxed load when
//! telemetry is off — the same zero-cost contract as the
//! `NullRecorder` in the core crate, adapted to a crate that the core
//! depends on (so it cannot use that trait directly). Enable with [`enable`], read a consistent-enough view
//! with [`snapshot`], and clear between runs with [`reset`].
//!
//! Relaxed orderings are deliberate: the counters feed end-of-run
//! reports, not synchronization, and every `broadcast` joins all
//! workers before `snapshot` can observe their updates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Upper bound on tracked workers; matches the `ThreadPool` clamp.
const MAX_WORKERS: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGIONS: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];

/// Turns the pool counters on and zeroes them, starting a fresh
/// collection window. Off by default.
///
/// The zeroing matters for pool reuse: the pool survives across runs
/// (including after a worker panic), so without it a second
/// instrumented run would report the first run's regions and busy time
/// on top of its own. Call [`reset`] instead to zero without changing
/// the collection state.
pub fn enable() {
    reset();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the pool counters off (the counts keep their values).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the counters are currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (collection state is unchanged).
pub fn reset() {
    REGIONS.store(0, Ordering::Relaxed);
    CHUNKS.store(0, Ordering::Relaxed);
    TASKS.store(0, Ordering::Relaxed);
    for slot in &BUSY_NANOS {
        slot.store(0, Ordering::Relaxed);
    }
}

#[inline]
pub(crate) fn on_region() {
    if enabled() {
        REGIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
pub(crate) fn on_chunk() {
    if enabled() {
        CHUNKS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
pub(crate) fn on_task() {
    if enabled() {
        TASKS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
pub(crate) fn on_busy(worker: usize, nanos: u64) {
    if worker < MAX_WORKERS {
        BUSY_NANOS[worker].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the pool counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Parallel regions broadcast to the pool.
    pub regions: u64,
    /// Chunks grabbed from shared-counter loops.
    pub chunks: u64,
    /// Always 0: the runtime has no stealing scheduler. Kept only
    /// because the standing benchmark still reads it as
    /// `parallel.steals`; ROADMAP item 2(b) removes that read, and
    /// this field with it.
    pub steals: u64,
    /// Dynamic tasks executed.
    pub tasks: u64,
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

/// Reads the current counter values.
///
/// `busy_seconds` covers the global pool's workers. The view is only
/// guaranteed consistent when no parallel region is in flight (the
/// intended use: snapshot after the instrumented run finishes).
pub fn snapshot() -> PoolSnapshot {
    let workers = crate::current_num_threads().min(MAX_WORKERS);
    PoolSnapshot {
        regions: REGIONS.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        steals: 0,
        tasks: TASKS.load(Ordering::Relaxed),
        busy_seconds: BUSY_NANOS[..workers]
            .iter()
            .map(|n| n.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counters_stay_zero() {
        // Telemetry is off by default; instrumented ops must not count.
        // (Runs first in the module namespace; other tests here are the
        // only ones that enable the gate, and they reset after.)
        reset();
        crate::parallel_for(0..100_000, 1024, |_r| {});
        let snap = snapshot();
        assert_eq!(snap.regions, 0);
        assert_eq!(snap.chunks, 0);
    }

    #[test]
    fn load_imbalance_of_balanced_run_is_one() {
        let snap = PoolSnapshot {
            regions: 1,
            chunks: 4,
            steals: 0,
            tasks: 0,
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
            tasks: 0,
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
            tasks: 0,
            busy_seconds: vec![],
        };
        assert!((snap.load_imbalance() - 1.0).abs() < 1e-12);
    }
}
