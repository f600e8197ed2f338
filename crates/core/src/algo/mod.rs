//! The six study algorithms (§2), each implemented for every data
//! layout × information flow × synchronization combination the paper
//! evaluates.
//!
//! | Algorithm | Kind | Active set per step | Layout variants |
//! |---|---|---|---|
//! | [`bfs`] | traversal | small subset | adj push/pull/push-pull, edge array, grid |
//! | [`wcc`] | union-find (undirected) | every edge once, every vertex once | adj, edge array, grid |
//! | [`sssp`] | traversal (weighted) | lowest distance bucket, re-activation | adj push, edge array |
//! | [`pagerank`] | ranking | whole graph | adj push/pull, edge array, grid push/pull |
//! | [`spmv`] | single pass | whole graph | adj push, edge array, adj pull |
//! | [`als`] | machine learning (bipartite) | one side per half-step | adj pull |
//!
//! Three algorithms additionally ship an **incremental** engine for the
//! mutable delta layout (DESIGN.md §16): [`pagerank::IncrementalPagerank`]
//! (residual propagation from the endpoints of changed edges),
//! [`wcc::IncrementalWcc`] (union-find over inserted edges) and
//! [`bfs::IncrementalBfs`] (affected-subgraph invalidation + repair).
//! Each falls back to from-scratch recompute when the applied batch
//! exceeds [`INCREMENTAL_FALLBACK_FRACTION`] of the merged edge count,
//! reporting which path ran via [`IncrementalOutcome`].

use egraph_cachesim::MemProbe;

use crate::metrics::{frontier_density, DirectionDecision, StepMode};
use crate::telemetry::{ExecContext, IterRecord, Recorder};

pub mod als;
pub mod bfs;
pub mod pagerank;
pub mod spmv;
pub mod sssp;
pub mod wcc;

/// Delta fraction (batch ops / merged edges) above which the
/// incremental engines recompute from scratch instead of repairing —
/// past this point the affected subgraph approaches the whole graph and
/// repair bookkeeping only adds overhead.
pub const INCREMENTAL_FALLBACK_FRACTION: f64 = 0.05;

/// What an incremental engine did with one applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalOutcome {
    /// The batch exceeded the fallback threshold (or was otherwise
    /// unrepairable) and the engine recomputed from scratch.
    pub fallback: bool,
    /// Vertices whose value was recomputed (the whole graph on
    /// fallback).
    pub touched: usize,
}

/// Reports one incremental batch repair as an iteration record — the
/// touched vertices as the frontier, the batch size as the scanned
/// edges, the repair-vs-fallback threshold as the decision log — and
/// advances the engine's batch counter.
pub(crate) fn record_repair<P: MemProbe, R: Recorder>(
    ctx: &ExecContext<'_, P, R>,
    batches_applied: &mut usize,
    outcome: IncrementalOutcome,
    batch_len: usize,
    num_edges: usize,
    seconds: f64,
) {
    if ctx.recorder.enabled() {
        ctx.recorder.record_iteration(IterRecord {
            step: *batches_applied,
            frontier_size: outcome.touched,
            edges_scanned: batch_len,
            seconds,
            mode: StepMode::Push,
            density: frontier_density(batch_len, num_edges),
            decision: DirectionDecision::repair(
                batch_len,
                num_edges,
                INCREMENTAL_FALLBACK_FRACTION,
            ),
        });
    }
    *batches_applied += 1;
}
