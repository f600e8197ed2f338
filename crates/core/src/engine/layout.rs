//! What a layout shows the engine: [`EngineLayout`], and [`PullLayout`]
//! where it can pull.
//!
//! Iteration model, layout and information flow are independent axes
//! (§4.1, §5.1, §6.1), so the round loop (`edge_map`) and the all-active
//! kernels (PageRank, SpMV) are written once against these traits and
//! every layout supplies the rounds. There are two families, each
//! implemented once: layouts with a per-vertex index
//! ([`VertexLayout`]: adj, ccsr, delta) run `vertex_push`, and layouts
//! that can only be streamed ([`EdgeStream`]: the edge array, the grid
//! by columns or by cells) run `scan_push`. A new layout implements one
//! of those two traits and inherits every frontier algorithm and the
//! serve waves.
//!
//! **Pulling is a capability, stated as a trait.** [`PullLayout`] is
//! implemented by the indexed family (`vertex_pull` over the
//! in-direction) and by the grid over its column cut (`scan_pull`) —
//! the layouts whose rounds can give every receiver one writer. The edge
//! array and the grid's cells are not `PullLayout`s, so a pull over them
//! is not a panic at run time but a call that does not compile.
//!
//! **The frontier is the activity.** A push round is handed the round's
//! frontier and pushes from its members only; an indexed layout iterates
//! them, a scanning layout streams every edge and tests the (dense)
//! frontier for each source. No push rule answers "is this source
//! active" itself, so rule state left over from earlier rounds (BFS
//! levels, a wave's lane words) can never push.

use super::{scan_pull, scan_push, vertex_pull, vertex_push, PullOp, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{EdgeStream, Grid, NeighborAccess, VertexLayout};
use crate::types::EdgeRecord;

/// Family marker of [`EngineLayout`]: layouts with a per-vertex index.
#[derive(Debug)]
pub struct Indexed;

/// Family marker of [`EngineLayout`]: layouts that are streamed whole.
#[derive(Debug)]
pub struct Scanned;

/// What the engine needs of every layout: its size and a push round.
///
/// `Family` ([`Indexed`] or [`Scanned`]) only keeps the two blanket
/// implementations apart; callers stay generic over it and the compiler
/// infers it from the layout type.
pub trait EngineLayout<E: EdgeRecord, Family>: Sync {
    /// Push rounds stream every edge, whatever the frontier: they need
    /// it dense (one bit test per edge), collect the next one densely
    /// and always examine `|E|` edges.
    const SCANS: bool;

    /// Push rounds give every destination a single writer, so a push
    /// rule may use plain writes.
    const DST_EXCLUSIVE: bool;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges.
    fn num_edges(&self) -> usize;

    /// Edges a push round from `frontier` examines: the frontier's
    /// out-degree sum on an indexed layout, `|E|` on a scanning one.
    fn push_load(&self, frontier: &VertexSubset) -> usize;

    /// One push round: applies `op` to every edge whose source is in
    /// `frontier` and returns the activated destinations.
    fn push_round<O: PushOp<E>>(
        &self,
        frontier: &VertexSubset,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset;
}

/// A layout that can also run a pull round: every receiving vertex is
/// updated by one worker only, so pull rules write without
/// synchronization (§6.1.2). The indexed layouts have one (their
/// in-direction); of the streamed cuts only the grid's columns do —
/// the edge array and the grid's cells own no destination, and simply
/// do not implement this.
pub trait PullLayout<E: EdgeRecord, Family>: EngineLayout<E, Family> {
    /// One pull round: `op` pulls over the in-edges of every vertex
    /// that wants to, and the vertices it activated are returned.
    fn pull_round<O: PullOp<E>>(
        &self,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset;
}

impl<E: EdgeRecord, L: VertexLayout<E>> EngineLayout<E, Indexed> for L {
    const SCANS: bool = false;
    const DST_EXCLUSIVE: bool = false;

    #[inline]
    fn num_vertices(&self) -> usize {
        VertexLayout::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        VertexLayout::num_edges(self)
    }

    fn push_load(&self, frontier: &VertexSubset) -> usize {
        let out = self.out();
        frontier.out_edge_count(|v| out.degree(v))
    }

    fn push_round<O: PushOp<E>>(
        &self,
        frontier: &VertexSubset,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset {
        vertex_push(self.out(), frontier, op, ctx, next_kind)
    }
}

impl<E: EdgeRecord, L: VertexLayout<E>> PullLayout<E, Indexed> for L {
    fn pull_round<O: PullOp<E>>(
        &self,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset {
        vertex_pull(self.incoming(), 0..self.num_vertices(), op, ctx, next_kind)
    }
}

impl<E: EdgeRecord, S: EdgeStream<E>> EngineLayout<E, Scanned> for S {
    const SCANS: bool = true;
    const DST_EXCLUSIVE: bool = S::DST_EXCLUSIVE;

    #[inline]
    fn num_vertices(&self) -> usize {
        EdgeStream::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        EdgeStream::num_edges(self)
    }

    #[inline]
    fn push_load(&self, _frontier: &VertexSubset) -> usize {
        EdgeStream::num_edges(self)
    }

    fn push_round<O: PushOp<E>>(
        &self,
        frontier: &VertexSubset,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset {
        let VertexSubset::Dense { bitmap, count } = frontier else {
            panic!("a scanning round tests a dense frontier once per edge")
        };
        if *count == EdgeStream::num_vertices(self) {
            // Every vertex is active (PageRank, SpMV): no test at all.
            scan_push(self, |_| true, op, ctx, next_kind)
        } else {
            scan_push(self, |v| bitmap.get(v as usize), op, ctx, next_kind)
        }
    }
}

/// The grid pulls over the cut it pushes over: a column holds every
/// edge into its vertex range, so its worker owns the receivers.
impl<E: EdgeRecord> PullLayout<E, Scanned> for Grid<E> {
    fn pull_round<O: PullOp<E>>(
        &self,
        op: &O,
        ctx: &ExecCtx<'_>,
        next_kind: FrontierKind,
    ) -> VertexSubset {
        scan_pull(self, op, ctx, next_kind)
    }
}
