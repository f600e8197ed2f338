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
//!
//! Direction is an axis of its own: the three indexed layouts keep
//! their out- and in-direction in one container, [`Sides`]
//! (`AdjacencyList`, `CcsrList` and `DeltaList` are aliases of it), so
//! its constructor rule, accessors and [`VertexLayout`] impl are written
//! once, and a `Sides<&D>` borrows directions built apart.

pub mod ccsr;
pub mod csr;
pub mod delta;
pub mod grid;

pub use ccsr::{CcsrAdjacency, CcsrError, CcsrList};
pub use csr::{Adjacency, AdjacencyList, EdgeDirection, Storage};
pub use delta::{
    CompactStats, DeltaAdjacency, DeltaBatch, DeltaError, DeltaGraph, DeltaList, DeltaLog, DeltaOp,
    EpochCell, GraphSnapshot,
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

/// A borrowed direction reads as the direction itself, so a
/// `Sides<&D>` view runs every kernel its owner runs.
impl<E: EdgeRecord, T: NeighborAccess<E>> NeighborAccess<E> for &T {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn for_each_span<F: FnMut(&[E]) -> usize>(&self, v: VertexId, f: F) {
        (**self).for_each_span(v, f)
    }
}

impl<E: EdgeRecord> Resident for Adjacency<E> {
    fn resident_bytes(&self) -> u64 {
        Adjacency::resident_bytes(self)
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
/// directions — implemented once, by [`Sides`], so the algorithm
/// drivers run on every indexed layout (and on borrowed views of one)
/// without per-call-site changes.
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

/// Heap bytes one direction keeps resident.
pub trait Resident {
    /// Resident heap bytes.
    fn resident_bytes(&self) -> u64;
}

/// The out- and in-direction of an indexed layout, either of which may
/// be absent (push reads out-edges, pull in-edges, push-pull both;
/// §6.1.3). The one pair container: [`AdjacencyList`],
/// [`ccsr::CcsrList`] and [`delta::DeltaList`] are this over their
/// direction type, and a `Sides<&D>` borrows directions built and
/// cached apart. Every constructor holds one rule: at least one
/// direction is present, and two present directions have the same
/// vertex count.
#[derive(Debug, Clone)]
pub struct Sides<D> {
    num_vertices: usize,
    out: Option<D>,
    inc: Option<D>,
}

impl<D> Sides<D> {
    /// Pairs two directions.
    ///
    /// # Panics
    ///
    /// Panics if both directions are absent or their vertex counts
    /// disagree.
    pub(crate) fn pair<E: EdgeRecord>(out: Option<D>, inc: Option<D>) -> Self
    where
        D: NeighborAccess<E>,
    {
        let num_vertices = match (&out, &inc) {
            (Some(o), Some(i)) => {
                assert_eq!(
                    o.num_vertices(),
                    i.num_vertices(),
                    "direction vertex counts"
                );
                o.num_vertices()
            }
            (Some(d), None) | (None, Some(d)) => d.num_vertices(),
            (None, None) => panic!("a layout needs at least one direction"),
        };
        Self {
            num_vertices,
            out,
            inc,
        }
    }

    /// Builds the directions `direction` names, each by `side(by_dst)`
    /// (`by_dst` is `true` for the in-direction).
    pub(crate) fn build<E: EdgeRecord>(
        direction: EdgeDirection,
        mut side: impl FnMut(bool) -> D,
    ) -> Self
    where
        D: NeighborAccess<E>,
    {
        let out = (direction != EdgeDirection::In).then(|| side(false));
        let inc = (direction != EdgeDirection::Out).then(|| side(true));
        Self::pair(out, inc)
    }

    /// Maps one per-direction build over the present directions.
    ///
    /// # Panics
    ///
    /// Panics if `f` changes the vertex count of one direction only.
    pub(crate) fn map<E: EdgeRecord, T: NeighborAccess<E>>(
        self,
        mut f: impl FnMut(D) -> T,
    ) -> Sides<T> {
        Sides::pair(self.out.map(&mut f), self.inc.map(f))
    }

    /// A view borrowing both directions: a kernel run on it is the
    /// copy [`run_variant`](crate::variant::run_variant) runs on its
    /// cached builds.
    pub fn as_ref(&self) -> Sides<&D> {
        Sides {
            num_vertices: self.num_vertices,
            out: self.out.as_ref(),
            inc: self.inc.as_ref(),
        }
    }

    /// Decomposes the layout into its owned directions.
    pub fn into_parts(self) -> (Option<D>, Option<D>) {
        (self.out, self.inc)
    }
}

impl<D: Resident> Sides<D> {
    /// Resident heap bytes across both directions.
    pub fn resident_bytes(&self) -> u64 {
        self.out.as_ref().map_or(0, D::resident_bytes)
            + self.inc.as_ref().map_or(0, D::resident_bytes)
    }
}

impl<E: EdgeRecord, D: NeighborAccess<E>> VertexLayout<E> for Sides<D> {
    type Dir = D;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.out
            .as_ref()
            .or(self.inc.as_ref())
            .map_or(0, D::num_edges)
    }

    #[inline]
    fn out_opt(&self) -> Option<&D> {
        self.out.as_ref()
    }

    #[inline]
    fn incoming_opt(&self) -> Option<&D> {
        self.inc.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::preprocess::compress_adjacency;
    use crate::types::Edge;

    /// `0 -> 1, 0 -> 2, 2 -> 0` over `nv` vertices, one direction.
    fn sample(nv: usize, by_dst: bool) -> Adjacency<Edge> {
        let mut offsets = vec![3u64; nv + 1];
        offsets[..3].copy_from_slice(&[0, 2, 2]);
        let edges = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 0)];
        Adjacency::from_csr(nv, offsets, edges, by_dst)
    }

    /// The panic message of `f`, if it panics.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        Some(match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |s| s.to_string()),
        })
    }

    /// The three pair layouts are one container: the same accessors,
    /// the same missing-direction message and the same constructor
    /// rule (at least one direction, equal vertex counts).
    #[test]
    fn every_pair_layout_follows_one_rule() {
        fn check<D: NeighborAccess<Edge>>(
            layout: &str,
            new: impl Fn(Option<Adjacency<Edge>>, Option<Adjacency<Edge>>) -> Sides<D>,
        ) {
            let list = new(Some(sample(3, false)), None);
            assert_eq!(list.num_vertices(), 3, "{layout}");
            assert_eq!(list.num_edges(), 3, "{layout}");
            assert_eq!(list.out().degree(0), 2, "{layout}");
            assert!(list.incoming_opt().is_none(), "{layout}");
            let missing = panic_of(|| {
                list.incoming();
            });
            assert!(missing.unwrap().contains("without in-edges"), "{layout}");
            let both = new(Some(sample(3, false)), Some(sample(3, true)));
            assert_eq!(both.incoming().num_vertices(), 3, "{layout}");
            let none = panic_of(|| {
                new(None, None);
            });
            assert!(none.unwrap().contains("at least one direction"), "{layout}");
            let mismatched = panic_of(|| {
                new(Some(sample(3, false)), Some(sample(4, true)));
            });
            assert!(
                mismatched.unwrap().contains("direction vertex counts"),
                "{layout}"
            );
        }
        check("adj", AdjacencyList::new);
        check("ccsr", |out, inc| {
            CcsrList::new(
                out.as_ref().map(compress_adjacency),
                inc.as_ref().map(compress_adjacency),
            )
        });
        check("delta", |out, inc| {
            DeltaList::new(out, inc, &DeltaLog::new())
        });
    }
}
