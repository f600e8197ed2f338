//! A dynamic task pool for irregular, recursive parallel work.
//!
//! The recursive MSD radix sort of §3.2 produces an unpredictable tree
//! of bucket-sorting tasks; this module runs such workloads by letting
//! every task spawn follow-up tasks into a shared [`crossbeam`] injector
//! that all pool workers drain — this runtime's equivalent of Cilk's
//! `spawn`.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::deque::{Injector, Steal};

use crate::pool::broadcast_current;

/// Handle through which a running task submits follow-up tasks.
pub struct Spawner<'a, T> {
    queue: &'a Injector<T>,
    in_flight: &'a AtomicUsize,
}

impl<T> Spawner<'_, T> {
    /// Enqueues `task` for execution by any worker.
    #[inline]
    pub fn spawn(&self, task: T) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.queue.push(task);
    }
}

/// Runs `initial` tasks — and every task they transitively spawn — to
/// completion on the calling thread's active pool (the global pool
/// unless overridden with [`crate::pool::with_pool`]).
///
/// `f` is invoked once per task and may spawn additional tasks through
/// the provided [`Spawner`]. The call returns once no task is left
/// running or queued.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // Sum 0..16 by recursive halving.
/// let total = AtomicU64::new(0);
/// egraph_parallel::dynamic_tasks(vec![(0u64, 16u64)], |(lo, hi), spawner| {
///     if hi - lo <= 2 {
///         total.fetch_add((lo..hi).sum::<u64>(), Ordering::Relaxed);
///     } else {
///         let mid = (lo + hi) / 2;
///         spawner.spawn((lo, mid));
///         spawner.spawn((mid, hi));
///     }
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 120);
/// ```
pub fn dynamic_tasks<T, F>(initial: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T, &Spawner<'_, T>) + Sync,
{
    if initial.is_empty() {
        return;
    }
    let queue = Injector::new();
    let in_flight = AtomicUsize::new(initial.len());
    for task in initial {
        queue.push(task);
    }
    broadcast_current(&|_worker| {
        let spawner = Spawner {
            queue: &queue,
            in_flight: &in_flight,
        };
        loop {
            match queue.steal() {
                Steal::Success(task) => {
                    crate::telemetry::on_task();
                    f(task, &spawner);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                Steal::Retry => continue,
                Steal::Empty => {
                    if in_flight.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        }
    });
    debug_assert_eq!(in_flight.load(Ordering::SeqCst), 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn flat_tasks_all_run() {
        let count = AtomicU64::new(0);
        dynamic_tasks((0..1000).collect::<Vec<u32>>(), |_t, _s| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_initial_returns_immediately() {
        dynamic_tasks(Vec::<u32>::new(), |_, _| panic!("no tasks expected"));
    }

    #[test]
    fn recursive_spawns_complete() {
        // Count the leaves of a binary recursion of depth 10.
        let leaves = AtomicU64::new(0);
        dynamic_tasks(vec![0u32], |depth, spawner| {
            if depth == 10 {
                leaves.fetch_add(1, Ordering::Relaxed);
            } else {
                spawner.spawn(depth + 1);
                spawner.spawn(depth + 1);
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 1024);
    }

    #[test]
    fn skewed_task_sizes_balance() {
        // One huge task spawning many small ones.
        let sum = AtomicU64::new(0);
        dynamic_tasks(vec![(0u64, 100_000u64)], |(lo, hi), spawner| {
            if hi - lo <= 1024 {
                sum.fetch_add((lo..hi).sum::<u64>(), Ordering::Relaxed);
            } else {
                let mid = lo + (hi - lo) / 8;
                spawner.spawn((lo, mid));
                spawner.spawn((mid, hi));
            }
        });
        let expected: u64 = (0..100_000u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }
}
