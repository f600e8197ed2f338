//! Offline stub of `crossbeam`: the `deque` module's
//! [`deque::Injector`] and [`deque::Steal`], backed by a
//! mutex-protected `VecDeque`. Semantics match the real crate (FIFO);
//! throughput is lower, which only matters for benchmarks, not
//! correctness.

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Mutex, PoisonError};

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried.
        Retry,
    }

    /// A shared FIFO injector queue all workers push into and drain.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Self {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Enqueues a task.
        pub fn push(&self, task: T) {
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(task);
        }

        /// Attempts to dequeue the oldest task.
        pub fn steal(&self) -> Steal<T> {
            match self
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn injector_is_fifo() {
            let inj = Injector::new();
            inj.push('a');
            inj.push('b');
            assert_eq!(inj.steal(), Steal::Success('a'));
            assert_eq!(inj.steal(), Steal::Success('b'));
            assert_eq!(inj.steal(), Steal::Empty);
        }
    }
}
