//! The execution engine: iteration models × information flow.
//!
//! The paper structures algorithm execution along two dimensions (§1):
//! *how the graph is iterated* — vertex-centric over adjacency lists,
//! edge-centric over edge arrays, or cell-centric over grids — and *how
//! information flows* — **push** (an active vertex writes its
//! out-neighbors) or **pull** (a vertex reads its in-neighbors and
//! updates itself). This module provides the step drivers — one per
//! direction for indexed layouts, one `scan_push` for every streamed
//! one and one `scan_pull` for the streamed cut that owns its
//! destinations (the grid's columns) — and the traits that put a
//! layout's rounds behind them: [`EngineLayout`] (the push side, every
//! layout) and [`PullLayout`] (the layouts that can also pull).
//! Algorithms supply the per-edge semantics through the [`PushOp`] /
//! [`PullOp`] traits and own their vertex state (atomics, locked arrays,
//! or exclusive writes, depending on the synchronization strategy being
//! measured). Frontier algorithms hand whole runs to [`edge_map`], the
//! one loop that picks and records a direction per iteration, on any
//! layout — under a [`Policy`] that can only ask for a pull where the
//! layout is a [`PullLayout`] and the rule a [`PullAlgo`].
//!
//! Every driver takes an [`ExecCtx`] carrying a [`Recorder`] (so a
//! traced run can report edges examined per step) as a trait object: a
//! driver is compiled once per layout and rule, whatever the
//! instrumentation, and reads `recorder.enabled()` once per chunk, so
//! tracing costs no virtual call per edge. Each driver has one inner
//! loop. The LLC model of §5 is not fed from here: `egraph-bench`
//! replays the push drivers' access order offline (its `trace` module).

mod edge_map;
mod layout;

pub(crate) use edge_map::record_iter;
pub use edge_map::{edge_map, Flow, FrontierAlgo, Policy, PullAlgo, PushOnly, INLINE_GRAIN};
pub use layout::{EngineLayout, Indexed, PullLayout, Scanned};

use std::ops::Range;

use egraph_parallel::timeline;

use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, NextFrontier, VertexSubset};
use crate::layout::{EdgeStream, Grid, NeighborAccess};
use crate::telemetry::Recorder;
use crate::types::{EdgeRecord, VertexId};

/// Counter name drivers report examined edges under.
pub const EDGES_EXAMINED: &str = "engine.edges_examined";

/// Run counter: rounds [`edge_map`] ran on the calling thread because
/// their load was at most [`INLINE_GRAIN`].
pub const INLINE_ROUNDS: &str = "engine.inline_rounds";

/// Per-edge semantics of a push-mode step.
///
/// `push` is called once per edge whose source is in the round's
/// frontier — the driver decides that, never the rule; it updates the
/// destination's state (with whatever synchronization the
/// implementation chose) and reports whether the destination was
/// *newly* activated, in which case the engine adds it to the next
/// frontier.
pub trait PushOp<E: EdgeRecord>: Sync {
    /// Processes one edge; returns `true` if the destination became
    /// active for the next step.
    fn push(&self, e: &E) -> bool;
}

/// Per-edge semantics of a pull-mode step.
pub trait PullOp<E: EdgeRecord>: Sync {
    /// Whether `dst` should scan its in-edges this step (e.g. BFS skips
    /// already-discovered vertices).
    fn wants_pull(&self, dst: VertexId) -> bool;

    /// Processes one in-edge of `dst` (`e.src()` is the providing
    /// neighbor). Returns `true` to stop scanning the remaining
    /// in-edges — the mid-iteration early termination that only pull
    /// mode allows (§6.1.1).
    fn pull(&self, dst: VertexId, e: &E) -> bool;

    /// Processes one span (at most [`crate::layout::SPAN_EDGES`]
    /// in-edges) of `dst` and returns how many edges it consumed;
    /// consuming fewer than `edges.len()` stops the scan (the span
    /// form of [`Self::pull`]'s early termination, so `i + 1` when
    /// edge `i` stopped).
    ///
    /// The default forwards to [`Self::pull`] edge by edge. PageRank
    /// and SpMV pull override it with one fixed-association sum over
    /// the span. `vertex_pull` hands every neighbor list over through
    /// this alone.
    #[inline]
    fn pull_span(&self, dst: VertexId, edges: &[E]) -> usize {
        for (i, e) in edges.iter().enumerate() {
            if self.pull(dst, e) {
                return i + 1;
            }
        }
        edges.len()
    }

    /// After the scan: did `dst` activate for the next step?
    fn activated(&self, dst: VertexId) -> bool;
}

/// Flushes one chunk's examined-edge count to the recorder.
#[inline]
fn flush_examined(recorder: &dyn Recorder, examined: usize) {
    if recorder.enabled() && examined > 0 {
        recorder.record_counter(EDGES_EXAMINED, examined as u64);
    }
}

/// Vertex-centric push over an out-direction (uncompressed or ccsr):
/// processes the out-edges of every frontier vertex and returns the
/// next frontier.
pub fn vertex_push<E, A, O>(
    out: &A,
    frontier: &VertexSubset,
    op: &O,
    ctx: &ExecCtx<'_>,
    next_kind: FrontierKind,
) -> VertexSubset
where
    E: EdgeRecord,
    A: NeighborAccess<E>,
    O: PushOp<E>,
{
    let _step = timeline::span(timeline::SpanKind::Step, "vertex_push", "push");
    let next = NextFrontier::new(next_kind, out.num_vertices());
    // Each chunk borrows its worker's activation sink once and pushes
    // straight into the persistent per-worker buffer — no per-chunk
    // allocation, no shared-state flush.
    let process =
        |v: VertexId, sink: &mut crate::frontier::FrontierSink<'_>, examined: &mut usize| {
            out.for_each_span(v, |span| {
                *examined += span.len();
                for e in span {
                    if op.push(e) {
                        sink.add(e.dst());
                    }
                }
                span.len()
            });
        };
    match frontier {
        VertexSubset::Sparse(list) => {
            egraph_parallel::parallel_for(0..list.len(), 64, |r| {
                let mut sink = next.sink(r.start as u64);
                let mut examined = 0;
                for i in r {
                    process(list[i], &mut sink, &mut examined);
                }
                flush_examined(ctx.recorder, examined);
            });
        }
        VertexSubset::Dense { bitmap, .. } => {
            egraph_parallel::parallel_for(0..out.num_vertices(), 1024, |r| {
                let mut sink = next.sink(r.start as u64);
                let mut examined = 0;
                for v in r {
                    if bitmap.get(v) {
                        process(v as VertexId, &mut sink, &mut examined);
                    }
                }
                flush_examined(ctx.recorder, examined);
            });
        }
    }
    next.finish()
}

/// Push over a streamed layout (the edge array, the grid by columns or
/// by cells): every task streams its units of `stream`, applying `op`
/// to each edge whose source `active` admits. The scan itself does not
/// depend on `active` — the "full scan" drawback of §4.1. Rounds reach
/// it through [`EngineLayout::push_round`], where `active` is
/// membership in the round's frontier.
pub(crate) fn scan_push<E, S, O>(
    stream: &S,
    active: impl Fn(VertexId) -> bool + Sync,
    op: &O,
    ctx: &ExecCtx<'_>,
    next_kind: FrontierKind,
) -> VertexSubset
where
    E: EdgeRecord,
    S: EdgeStream<E>,
    O: PushOp<E>,
{
    let _step = timeline::span(timeline::SpanKind::Step, S::PUSH_SPAN, "push");
    let next = NextFrontier::new(next_kind, stream.num_vertices());
    egraph_parallel::parallel_for(0..stream.num_units(), S::GRAIN, |units| {
        let mut sink = next.sink(units.start as u64);
        let mut examined = 0;
        for (_, run) in stream.runs(units) {
            examined += run.len();
            for e in run {
                if active(e.src()) && op.push(e) {
                    sink.add(e.dst());
                }
            }
        }
        flush_examined(ctx.recorder, examined);
    });
    next.finish()
}

/// Vertex-centric pull over an in-direction (uncompressed or ccsr):
/// every vertex of `receivers` that `wants_pull` scans its in-edges
/// (with early termination) and updates only its own state — no
/// synchronization required (§6.1.2). Each neighbor list is handed to
/// the operator span by span through [`PullOp::pull_span`], the only
/// path. A pull round passes every vertex; PageRank's block-ordered
/// solve passes one block at a time.
pub fn vertex_pull<E, A, O>(
    incoming: &A,
    receivers: Range<usize>,
    op: &O,
    ctx: &ExecCtx<'_>,
    next_kind: FrontierKind,
) -> VertexSubset
where
    E: EdgeRecord,
    A: NeighborAccess<E>,
    O: PullOp<E>,
{
    let _step = timeline::span(timeline::SpanKind::Step, "vertex_pull", "pull");
    let next = NextFrontier::new(next_kind, incoming.num_vertices());
    egraph_parallel::parallel_for(receivers, 1024, |r| {
        let mut sink = next.sink(r.start as u64);
        let mut examined = 0;
        for v in r {
            let v = v as VertexId;
            // The pass over all vertices to check activity is the
            // inherent pull overhead the paper describes.
            if !op.wants_pull(v) {
                continue;
            }
            incoming.for_each_span(v, |span| {
                let consumed = op.pull_span(v, span);
                examined += consumed;
                consumed
            });
            if op.activated(v) {
                sink.add(v);
            }
        }
        flush_examined(ctx.recorder, examined);
    });
    next.finish()
}

/// Pull over the grid's columns: a column holds every edge into its
/// vertex range, so the task that streams it owns those receivers and
/// `op` updates them without locks (§6.1.2). Each stored edge is offered
/// once — `pull(e.dst(), e)`, `e.src()` providing — to a receiver that
/// `wants_pull`; a receiver's in-edges are spread over its column's
/// cells, so a `pull` that asks to stop only ends that receiver's turn
/// where `wants_pull` then says so (BFS: once discovered).
pub(crate) fn scan_pull<E, O>(
    grid: &Grid<E>,
    op: &O,
    ctx: &ExecCtx<'_>,
    next_kind: FrontierKind,
) -> VertexSubset
where
    E: EdgeRecord,
    O: PullOp<E>,
{
    let _step = timeline::span(timeline::SpanKind::Step, "grid_pull_columns", "pull");
    let next = NextFrontier::new(next_kind, grid.num_vertices());
    egraph_parallel::parallel_for(0..grid.side(), 1, |columns| {
        let mut sink = next.sink(columns.start as u64);
        let mut examined = 0;
        for (_, run) in grid.runs(columns.clone()) {
            examined += run.len();
            for e in run {
                if op.wants_pull(e.dst()) {
                    let _ = op.pull(e.dst(), e);
                }
            }
        }
        // Collect activations inside the owned columns' vertex ranges.
        for v in columns.flat_map(|col| grid.vertex_range(col)) {
            if op.activated(v) {
                sink.add(v);
            }
        }
        flush_examined(ctx.recorder, examined);
    });
    next.finish()
}

#[cfg(test)]
mod tests;
