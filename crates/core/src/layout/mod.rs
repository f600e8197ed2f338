//! In-memory graph data layouts (§3.1, §5.1).
//!
//! * **Edge array** — the input [`crate::types::EdgeList`] itself; zero
//!   pre-processing, edge-centric computation only.
//! * **Adjacency list** ([`Adjacency`], [`AdjacencyList`]) — per-vertex
//!   edge arrays, either contiguous (CSR, built by sorting) or
//!   per-vertex allocated (built dynamically); enables vertex-centric
//!   computation on the active subset.
//! * **Compressed CSR** ([`ccsr::CcsrAdjacency`], [`ccsr::CcsrList`]) —
//!   sorted neighbor lists as delta streams bit-packed at one width per
//!   chunk, with chunked random access; trades decode cycles for memory
//!   bandwidth (DESIGN.md §14).
//! * **Grid** ([`Grid`]) — a P×P matrix of edge cells (GridGraph's
//!   layout adapted to in-memory processing); improves cache locality
//!   and enables lock-free push and pull (column ownership: a column
//!   holds every edge into its vertex range).
//! * **Delta** ([`delta::DeltaAdjacency`], [`delta::DeltaList`]) — a
//!   frozen CSR plus an append-only insert/delete log overlay; the
//!   mutable layout, compacted into fresh snapshots behind an
//!   epoch-published pointer flip (DESIGN.md §16).

pub mod ccsr;
pub mod csr;
pub mod delta;
pub mod grid;

pub use ccsr::{CcsrAdjacency, CcsrError, CcsrList};
pub use csr::{Adjacency, AdjacencyList, EdgeDirection, Storage};
pub use delta::{
    for_each_neighbor, CompactStats, DeltaAdjacency, DeltaBatch, DeltaError, DeltaGraph, DeltaList,
    DeltaLog, DeltaOp, EpochCell, GraphSnapshot,
};
pub use grid::{Grid, GridCells};

use std::ops::Range;

use crate::types::{EdgeList, EdgeRecord, VertexId};

/// Maximum edges per iteration span (and per ccsr chunk).
///
/// Every vertex-centric driver visits neighbor lists in spans of at
/// most this many edges, for **every** layout — so float accumulations
/// that reassociate at span boundaries (PageRank/SpMV pull's
/// `span_sum`) produce bit-identical results on uncompressed and
/// compressed adjacencies alike.
pub const SPAN_EDGES: usize = 64;

/// Uniform per-vertex neighbor access for the vertex-centric engine
/// drivers: one direction of an uncompressed [`Adjacency`] or a
/// compressed [`ccsr::CcsrAdjacency`].
pub trait NeighborAccess<E: EdgeRecord>: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges in this direction.
    fn num_edges(&self) -> usize;

    /// Degree of vertex `v` in this direction.
    fn degree(&self, v: VertexId) -> usize;

    /// Visits `v`'s neighbor list in spans of at most [`SPAN_EDGES`]
    /// edges. `f` returns how many edges it consumed; returning fewer
    /// than the span's length stops the iteration (early termination).
    /// Span boundaries are identical across layouts (see
    /// [`SPAN_EDGES`]).
    fn for_each_span<F: FnMut(&[E]) -> usize>(&self, v: VertexId, f: F);
}

impl<E: EdgeRecord> NeighborAccess<E> for Adjacency<E> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_span<F: FnMut(&[E]) -> usize>(&self, v: VertexId, mut f: F) {
        for span in self.neighbors(v).chunks(SPAN_EDGES) {
            if f(span) < span.len() {
                return;
            }
        }
    }
}

/// Uniform streaming access for the scanning engine driver: a layout
/// without a per-vertex index hands out its whole edge stream, cut into
/// *units* that parallel tasks claim [`GRAIN`](Self::GRAIN) at a time.
/// The three cuts of the study: the edge array in fixed-grain chunks
/// ([`EdgeList`]), the grid by columns ([`Grid`]) and by cells
/// ([`GridCells`]).
pub trait EdgeStream<E: EdgeRecord>: Sync {
    /// Timeline span name of a push round over this cut.
    const PUSH_SPAN: &'static str;

    /// Units per parallel task.
    const GRAIN: usize;

    /// Every edge into a destination lies in units of one task, so a
    /// push round gives each destination a single writer. The
    /// plain-write push rules (`unsafe` slice updates in PageRank and
    /// SpMV) run on exactly the layouts that declare this, so declare
    /// it only for a cut that partitions the destinations.
    const DST_EXCLUSIVE: bool = false;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges in the stream.
    fn num_edges(&self) -> usize;

    /// Number of units the stream is cut into.
    fn num_units(&self) -> usize;

    /// The contiguous runs of edges in `units`, in stream order, as
    /// `(i, run)` — `i` being the stream index of the run's first edge,
    /// by which the offline cache replay of `egraph-bench` addresses
    /// edge `k` of the run (`i + k`).
    fn runs(&self, units: Range<usize>) -> impl Iterator<Item = (u64, &[E])>;
}

/// The edge array, one edge per unit: "at every iteration of the
/// computation the whole edge array is scanned" (§4.1).
impl<E: EdgeRecord> EdgeStream<E> for EdgeList<E> {
    const PUSH_SPAN: &'static str = "edge_push";
    const GRAIN: usize = egraph_parallel::DEFAULT_GRAIN;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn num_units(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn runs(&self, units: Range<usize>) -> impl Iterator<Item = (u64, &[E])> {
        std::iter::once((units.start as u64, &self.edges()[units]))
    }
}

/// A vertex-centric layout holding up to two [`NeighborAccess`]
/// directions — implemented by [`AdjacencyList`] (CSR) and
/// [`ccsr::CcsrList`] (compressed), so the algorithm drivers run on
/// either without per-call-site changes.
pub trait VertexLayout<E: EdgeRecord>: Sync {
    /// One direction of this layout.
    type Dir: NeighborAccess<E>;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges (from whichever direction is present).
    fn num_edges(&self) -> usize;

    /// The out-direction.
    ///
    /// # Panics
    ///
    /// Panics if the layout was built without out-edges.
    #[inline]
    fn out(&self) -> &Self::Dir {
        (self.out_opt()).expect("layout was built without out-edges")
    }

    /// The in-direction.
    ///
    /// # Panics
    ///
    /// Panics if the layout was built without in-edges.
    #[inline]
    fn incoming(&self) -> &Self::Dir {
        (self.incoming_opt()).expect("layout was built without in-edges")
    }

    /// The out-direction, if present.
    fn out_opt(&self) -> Option<&Self::Dir>;

    /// The in-direction, if present.
    fn incoming_opt(&self) -> Option<&Self::Dir>;
}

impl<E: EdgeRecord> VertexLayout<E> for AdjacencyList<E> {
    type Dir = Adjacency<E>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn out_opt(&self) -> Option<&Adjacency<E>> {
        self.out_opt()
    }

    #[inline]
    fn incoming_opt(&self) -> Option<&Adjacency<E>> {
        self.incoming_opt()
    }
}

/// A lone direction as a [`VertexLayout`], for the kernels whose public
/// entry points take one [`NeighborAccess`]: the out-direction for the
/// push kernels, the in-direction for the pull ones.
#[derive(Debug)]
pub struct OneWay<'a, A> {
    dir: &'a A,
    incoming: bool,
}

impl<'a, A> OneWay<'a, A> {
    /// `dir` as a layout's out-direction.
    pub fn out(dir: &'a A) -> Self {
        Self {
            dir,
            incoming: false,
        }
    }

    /// `dir` as a layout's in-direction.
    pub fn incoming(dir: &'a A) -> Self {
        Self {
            dir,
            incoming: true,
        }
    }
}

impl<E: EdgeRecord, A: NeighborAccess<E>> VertexLayout<E> for OneWay<'_, A> {
    type Dir = A;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.dir.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.dir.num_edges()
    }

    #[inline]
    fn out_opt(&self) -> Option<&A> {
        (!self.incoming).then_some(self.dir)
    }

    #[inline]
    fn incoming_opt(&self) -> Option<&A> {
        self.incoming.then_some(self.dir)
    }
}
