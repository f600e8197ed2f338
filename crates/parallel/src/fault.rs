//! Deterministic, seeded fault injection for the worker pool.
//!
//! The conformance harness (`egraph-testkit`) needs to prove that the
//! runtime never hangs and never silently corrupts results when the
//! schedule degenerates: workers that stall and workers that die. This
//! module provides a [`FaultPlan`] that [`FaultGuard::install`] puts on
//! one pool, which consults it at region entry.
//!
//! The disabled-path cost is a single relaxed atomic load per region
//! entry (the same pattern as [`crate::telemetry`]), so production runs
//! pay nothing. All injected behavior is a pure function of
//! `(seed, region ordinal, worker id)`, which makes every failure
//! reproducible from the logged seed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::ThreadPool;

/// A deterministic schedule of pool-level faults.
///
/// Installed on a pool by [`FaultGuard::install`] and removed when the
/// guard drops, which is panic-safe: injected panics unwind through
/// caller code by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every injected decision.
    pub seed: u64,
    /// Sleep each worker for a deterministic 0–200µs at region entry,
    /// derived from `(seed, region, worker)`. Stresses imbalance and
    /// termination without changing results.
    pub delay_workers: bool,
    /// Panic inside this worker's region-entry hook.
    pub panic_worker: Option<usize>,
    /// First region ordinal (1-based, counted from the install) at
    /// which `panic_worker` fires. Lets a test run a few clean regions
    /// before the fault lands.
    pub panic_from_region: u64,
}

impl FaultPlan {
    /// A plan with no faults enabled, carrying `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            delay_workers: false,
            panic_worker: None,
            panic_from_region: 1,
        }
    }

    /// Enables deterministic per-worker delays.
    pub fn delay_workers(mut self) -> Self {
        self.delay_workers = true;
        self
    }

    /// Panics `worker` in every region starting from `from_region`
    /// (1-based ordinal counted from the install).
    pub fn panic_worker(mut self, worker: usize, from_region: u64) -> Self {
        self.panic_worker = Some(worker);
        self.panic_from_region = from_region.max(1);
        self
    }
}

/// The fault plan of one pool: installed through [`FaultGuard`], consulted
/// by the pool at region entry.
#[derive(Debug, Default)]
pub(crate) struct PoolFaults {
    enabled: AtomicBool,
    regions: AtomicU64,
    plan: Mutex<Option<FaultPlan>>,
}

impl PoolFaults {
    /// Called by `broadcast` once per top-level region.
    #[inline]
    pub(crate) fn on_region(&self) {
        if self.enabled.load(Ordering::Relaxed) {
            self.regions.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Called once per worker at region entry; applies delays and panics.
    #[inline]
    pub(crate) fn on_worker_run(&self, worker: usize) {
        if self.enabled.load(Ordering::Relaxed) {
            self.on_worker_run_slow(worker);
        }
    }

    #[cold]
    fn on_worker_run_slow(&self, worker: usize) {
        let Some(plan) = *self.plan.lock() else {
            return;
        };
        let region = self.regions.load(Ordering::SeqCst);
        if let Some(target) = plan.panic_worker {
            if worker == target && region >= plan.panic_from_region {
                panic!(
                    "injected fault (seed {}): worker {worker} panicked in region {region}",
                    plan.seed
                );
            }
        }
        if plan.delay_workers {
            let micros =
                mix(plan.seed ^ region.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ worker as u64) % 200;
            if micros > 0 {
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
    }
}

/// A fault plan installed on one pool; dropping the guard clears it,
/// even when an injected panic unwinds through the test body.
#[derive(Debug)]
pub struct FaultGuard<'a>(&'a PoolFaults);

impl<'a> FaultGuard<'a> {
    /// Installs `plan` on `pool`, restarting the region ordinal at 0,
    /// and returns a guard that clears it on drop. Other pools run
    /// fault-free.
    #[must_use]
    pub fn install(pool: &'a ThreadPool, plan: FaultPlan) -> Self {
        let faults = &pool.shared.faults;
        let mut guard = faults.plan.lock();
        faults.regions.store(0, Ordering::SeqCst);
        *guard = Some(plan);
        faults.enabled.store(true, Ordering::SeqCst);
        Self(faults)
    }
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        self.0.enabled.store(false, Ordering::SeqCst);
        *self.0.plan.lock() = None;
    }
}

/// SplitMix64 finalizer — decorrelates the (seed, region, worker) mix.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_mixes() {
        assert_eq!(mix(42), mix(42));
        assert_ne!(mix(1), mix(2));
    }

    #[test]
    fn builder_sets_fields() {
        let plan = FaultPlan::new(7).delay_workers().panic_worker(3, 2);
        assert_eq!(plan.seed, 7);
        assert!(plan.delay_workers);
        assert_eq!(plan.panic_worker, Some(3));
        assert_eq!(plan.panic_from_region, 2);
    }

    #[test]
    fn a_plan_faults_only_its_own_pool() {
        let (faulted, clean) = (ThreadPool::new(2), ThreadPool::new(2));
        let guard = FaultGuard::install(&faulted, FaultPlan::new(1).panic_worker(1, 1));
        clean.broadcast(&|_| {});
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulted.broadcast(&|_| {});
        }));
        assert!(hit.is_err(), "worker 1 of the faulted pool panics");
        drop(guard);
        faulted.broadcast(&|_| {});
    }

    #[test]
    fn panic_from_region_is_at_least_one() {
        let plan = FaultPlan::new(0).panic_worker(0, 0);
        assert_eq!(plan.panic_from_region, 1);
    }
}
