//! Differential conformance oracle + deterministic fault injection.
//!
//! The paper is a technique-isolation study: its claims only hold if
//! every {layout × iteration model × direction × lock strategy}
//! combination computes the *same answer*. This crate enforces that
//! systematically:
//!
//! * [`corpus`] — a shared set of generated graphs (RMAT, small-world,
//!   road-shaped) plus adversarial shapes (empty, single-vertex,
//!   self-loops, duplicate edges, star, chain, disconnected);
//! * [`matrix`] — enumerates every algorithm variant over every graph
//!   at thread counts {1, 2, 4, 8} and checks each result against two
//!   oracles: a serial analytic reference (`bfs::reference`, union-find
//!   WCC, Dijkstra, power-iteration PageRank, serial SpMV) and the same
//!   variant's own single-threaded run (bit-identical for
//!   deterministic variants, bounded relative error for variants whose
//!   float accumulation order legitimately depends on the schedule).
//!
//! Fault injection lives next to the code it stresses —
//! [`egraph_parallel::fault`] (delayed workers, worker panics) and
//! [`egraph_storage::fault`] (short reads, truncation, mid-stream I/O
//! errors) — and this crate's integration tests drive
//! both, asserting typed errors and clean panic propagation: never a
//! hang, never a silently wrong result.
//!
//! Every random choice derives from one seed, overridable with the
//! `EGRAPH_TEST_SEED` environment variable; failures log the seed so
//! any CI failure reproduces locally.

pub mod corpus;
pub mod matrix;
pub mod update;

pub use corpus::{
    exhaustive_corpus, quick_corpus, ratings_graph, test_seed, weighted, wide_rounds, NamedGraph,
    DEFAULT_SEED,
};
pub use matrix::{check_variant, run_matrix, MatrixConfig, MatrixReport, Mismatch};
pub use update::{run_update_matrix, UpdateConfig, UpdateReport};

/// Runs `f` on a fresh pool of `threads` workers; with `faults` set,
/// under the seeded scheduler fault plan (delayed workers) installed
/// on that pool alone.
pub(crate) fn on_pool<R>(threads: usize, faults: bool, seed: u64, f: impl FnOnce() -> R) -> R {
    let pool = egraph_parallel::ThreadPool::new(threads);
    let plan = egraph_parallel::fault::FaultPlan::new(seed).delay_workers();
    let _faults = faults.then(|| egraph_parallel::fault::FaultGuard::install(&pool, plan));
    egraph_parallel::with_pool(&pool, f)
}

/// Thread counts exercised by the quick tier (inside `cargo test -q`).
pub const QUICK_THREADS: &[usize] = &[1, 4, 8];

/// Thread counts exercised by the exhaustive tier.
pub const EXHAUSTIVE_THREADS: &[usize] = &[1, 2, 4, 8];
