//! A small fork-join parallel runtime used by every EverythingGraph crate.
//!
//! The paper parallelizes both pre-processing and computation with the
//! Cilk 4.8 runtime: "the subset of vertices or edges to be processed
//! during a computation step is kept in a work queue. Threads take work
//! items from the queue in large enough chunks to reduce the work
//! distribution overheads" (§2). This crate reproduces that execution
//! model in safe-to-use Rust:
//!
//! * a persistent [`ThreadPool`] of worker threads (plus the calling
//!   thread, which always participates in a parallel region),
//! * chunked self-scheduling loops ([`parallel_for`], [`parallel_reduce`],
//!   [`for_each_chunk`]) in which workers grab fixed-size chunks from a
//!   shared queue — the paper's "work queue" model,
//! * parallel prefix sums ([`scan`]) used by the count-sort and CSR
//!   builders,
//! * worker-local accumulation buffers ([`WorkerLocal`]) with an
//!   order-preserving prefix-sum collector
//!   ([`parallel_collect_ordered`]), which replace shared locked
//!   collections on the frontier and pre-processing hot paths, and
//! * atomic float cells ([`atomicf`]) whose `fetch_min` SSSP and the
//!   serve tier's distance lanes relax through, and
//! * a bounded bucket queue ([`buckets`]) for algorithms that process
//!   vertices in priority order between parallel rounds (bucketed
//!   SSSP).
//!
//! The number of workers defaults to the machine's available parallelism
//! and can be overridden with the `EGRAPH_THREADS` environment variable
//! or per-pool with [`ThreadPool::new`].
//!
//! # Examples
//!
//! ```
//! let data: Vec<u64> = (0..10_000).collect();
//! let sum = egraph_parallel::parallel_reduce(
//!     0..data.len(),
//!     1024,
//!     || 0u64,
//!     |acc, range| acc + data[range].iter().sum::<u64>(),
//!     |a, b| a + b,
//! );
//! assert_eq!(sum, 10_000 * 9_999 / 2);
//! ```

pub mod atomicf;
pub mod buckets;
pub mod fault;
pub mod ops;
pub mod pool;
pub mod scan;
pub mod telemetry;
pub mod timeline;
pub mod worker_local;

pub use ops::{
    for_each_chunk, for_each_chunk_mut, parallel_for, parallel_init, parallel_reduce, DEFAULT_GRAIN,
};
pub use pool::{
    broadcast_current, current_num_threads, current_worker_index, global_pool, run_inline,
    with_pool, ThreadPool, WorkerId,
};
pub use scan::exclusive_prefix_sum;
pub use worker_local::{parallel_collect_ordered, OrderedBuf, WorkerGuard, WorkerLocal};
