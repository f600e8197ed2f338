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
//! Each solves from scratch with its batch kernel (pull PageRank to a
//! tolerance, direction-optimizing BFS, the concurrent union-find) at
//! construction and when the applied batch exceeds
//! [`INCREMENTAL_FALLBACK_FRACTION`] of the merged edge count,
//! reporting which path ran via [`IncrementalOutcome`].

use crate::engine::PushOp;
use crate::exec::ExecCtx;
use crate::metrics::{frontier_density, DirectionDecision, IterStat, StepMode};
use crate::types::EdgeRecord;
use crate::util::UnsyncSlice;

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
pub(crate) fn record_repair(
    ctx: &ExecCtx<'_>,
    batches_applied: &mut usize,
    outcome: IncrementalOutcome,
    batch_len: usize,
    num_edges: usize,
    seconds: f64,
) {
    if ctx.recorder.enabled() {
        let stat = IterStat {
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
        };
        ctx.recorder.record_iteration(*batches_applied, &stat);
    }
    *batches_applied += 1;
}

/// Per-worker partial sums for all-active push accumulation on layouts
/// whose rounds do not own their destinations (DESIGN.md §9): one
/// `nv`-long `f32` stripe per worker of the active pool, written with
/// plain adds, so no edge touches a cache line another worker writes.
/// Allocated once per run; [`Self::drain`] reduces and re-zeroes it.
pub(crate) struct Stripes {
    cells: Vec<f32>,
    nv: usize,
}

/// The push rule of [`Stripes::add`]: adds `value(e)` into the calling
/// worker's cell for `e.dst()`.
pub(crate) struct StripedAdd<'a, F> {
    cells: UnsyncSlice<'a, f32>,
    nv: usize,
    value: F,
}

impl<E: EdgeRecord, F: Fn(&E) -> f32 + Sync> PushOp<E> for StripedAdd<'_, F> {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let i = egraph_parallel::current_worker_index().unwrap_or(0) * self.nv + e.dst() as usize;
        // SAFETY: this rule is built only by `Stripes::add` over
        // stripes no other run shares, and handed only to one push
        // round, whose chunks run on the workers of one region (or on
        // the calling thread alone, as worker 0). Worker ids are dense
        // in `0..current_num_threads()` and each id is one thread
        // inside a region (a nested region runs inline on the outer
        // worker's id), so stripe `w` has one writer. `i` is
        // bounds-checked: an id past the width the stripes were sized
        // for panics instead of aliasing.
        unsafe { self.cells.update(i, |a| *a += (self.value)(e)) };
        false
    }
}

impl Stripes {
    /// Zeroed stripes for `nv` vertices, one per worker of the calling
    /// thread's active pool.
    pub(crate) fn new(nv: usize) -> Self {
        let cells = vec![0.0; egraph_parallel::current_num_threads() * nv];
        Self { cells, nv }
    }

    /// The push rule adding `value(e)` for every edge it is handed.
    pub(crate) fn add<F>(&mut self, value: F) -> StripedAdd<'_, F> {
        let (nv, cells) = (self.nv, UnsyncSlice::new(&mut self.cells));
        StripedAdd { cells, nv, value }
    }

    /// One parallel pass returning `Σ_w stripe[w][v]` for every `v`,
    /// summed in fixed worker order, zeroing each cell it reads.
    pub(crate) fn drain(&mut self) -> Vec<f32> {
        let (nv, cells) = (self.nv, UnsyncSlice::new(&mut self.cells));
        egraph_parallel::ops::parallel_init(nv, 1 << 14, |v| {
            let mut sum = 0.0;
            for i in (v..cells.len()).step_by(nv) {
                // SAFETY: `v` is one task's, so column `v` of every
                // stripe has one reader and writer in this pass.
                unsafe { cells.update(i, |c| sum += std::mem::take(c)) };
            }
            sum
        })
    }
}

/// Lanes of [`span_sum`]'s fixed association.
const SPAN_LANES: usize = 8;

/// Sums `term(e)` over one pull span (PageRank's `contrib[src]`,
/// SpMV's `weight · x[src]`) with a fixed association: eight lane
/// accumulators fed round-robin by edge position, the tail folded into
/// lanes `0..tail`, then a fixed pairwise tree, with no FMA
/// contraction. Changing the association changes results.
#[inline]
pub(crate) fn span_sum<E>(edges: &[E], term: impl Fn(&E) -> f32) -> f32 {
    let mut l = [0.0f32; SPAN_LANES];
    let mut groups = edges.chunks_exact(SPAN_LANES);
    for group in &mut groups {
        for (lane, e) in l.iter_mut().zip(group) {
            *lane += term(e);
        }
    }
    for (lane, e) in l.iter_mut().zip(groups.remainder()) {
        *lane += term(e);
    }
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{
        DeltaBatch, DeltaList, DeltaLog, DeltaOp, EdgeDirection, NeighborAccess, VertexLayout,
    };
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::telemetry::TraceRecorder;
    use crate::types::{Edge, EdgeList};

    /// The merged both-direction view the engines repair over, with its
    /// out-degrees.
    fn view(base: &EdgeList<Edge>, log: &DeltaLog<Edge>) -> (DeltaList<Edge>, Vec<u32>) {
        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .build(base)
            .into_parts();
        let view = DeltaList::new(out, inc, log);
        let degrees = (0..base.num_vertices() as u32)
            .map(|v| view.out().degree(v) as u32)
            .collect();
        (view, degrees)
    }

    #[test]
    fn lane_association_is_order_sensitive_but_fixed() {
        // The documented spec: lanes fed round-robin, fixed tree.
        let table = [1.0f32, 2.0, 4.0, 8.0];
        let edges: Vec<Edge> = (0..4).map(|s| Edge::new(s, 0)).collect();
        // Tail of 4 folds into lanes 0..4: (1+2)+(4+8) = 15.
        assert_eq!(span_sum(&edges, |e| table[e.src() as usize]), 15.0);
        // Edge 8 lands in lane 0 beside edge 0 and cancels it, so the
        // seven ones survive; a left-to-right sum absorbs them into 1e8.
        let terms = [1e8f32, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e8];
        let edges: Vec<Edge> = (0..9).map(|s| Edge::new(s, 0)).collect();
        assert_eq!(span_sum(&edges, |e| terms[e.src() as usize]), 7.0);
        assert_eq!(terms.iter().sum::<f32>(), 0.0);
    }

    /// Every incremental engine reports each applied batch as one
    /// iteration record: a small batch (repair) and an oversized one
    /// (fallback), numbered by batch, with the threshold comparison as
    /// the decision log.
    #[test]
    fn every_incremental_engine_records_one_iteration_per_batch() {
        type Apply<'a> = Box<
            dyn FnMut(
                    &EdgeList<Edge>,
                    &DeltaLog<Edge>,
                    &DeltaBatch<Edge>,
                    &ExecCtx<'_>,
                ) -> IncrementalOutcome
                + 'a,
        >;
        // Two chains of 100 vertices: 198 edges, fallback above 9 ops.
        let edges = (0..99)
            .chain(100..199)
            .map(|v| Edge::new(v, v + 1))
            .collect();
        let base = EdgeList::new(200, edges).unwrap();
        let (initial, degrees) = view(&base, &DeltaLog::new());
        let mut bfs = bfs::IncrementalBfs::new(&initial, 0);
        let mut pagerank = pagerank::IncrementalPagerank::new(&initial, &degrees, 0.85);
        let mut wcc = wcc::IncrementalWcc::new(&base);
        let engines: [(&str, Apply<'_>); 3] = [
            (
                "bfs",
                Box::new(|base, log, batch, ctx| bfs.apply_ctx(&view(base, log).0, batch, ctx)),
            ),
            (
                "pagerank",
                Box::new(|base, log, batch, ctx| {
                    let (merged, degrees) = view(base, log);
                    pagerank.apply_ctx(&merged, &degrees, batch, ctx)
                }),
            ),
            (
                "wcc",
                Box::new(|base, log, batch, ctx| wcc.apply_ctx(&log.merge_into(base), batch, ctx)),
            ),
        ];
        let batches = [
            vec![Edge::new(50, 150)],
            (0..30).map(|v| Edge::new(v, v + 100)).collect(),
        ];
        for (name, mut apply) in engines {
            let recorder = TraceRecorder::new();
            let ctx = ExecCtx::default().recorder(&recorder);
            let mut log = DeltaLog::new();
            let mut num_edges = base.num_edges();
            for (step, inserts) in batches.iter().enumerate() {
                let mut batch = DeltaBatch::new();
                for &e in inserts {
                    batch.ops.push(DeltaOp::Insert(e));
                    log.push(DeltaOp::Insert(e));
                }
                num_edges += inserts.len();
                let outcome = apply(&base, &log, &batch, &ctx);
                assert_eq!(outcome.fallback, step == 1, "{name} batch {step}");
                let records = recorder.iterations();
                assert_eq!(records.len(), step + 1, "{name}: one record per batch");
                assert_eq!(records[step].step, step, "{name}");
                let record = records[step].stat;
                assert_eq!(record.frontier_size, outcome.touched, "{name}");
                assert_eq!(record.edges_scanned, inserts.len(), "{name}");
                let cutoff = (INCREMENTAL_FALLBACK_FRACTION * num_edges as f64) as usize;
                assert_eq!(record.decision.cutoff, cutoff, "{name}");
                assert_eq!(record.decision.observed, inserts.len(), "{name}");
                assert!(!record.decision.forced, "{name}");
                assert_eq!(record.decision.says_pull(), outcome.fallback, "{name}");
            }
        }
    }
}
