//! The graph input model: vertices, edge records and edge lists.
//!
//! "Edge arrays are the simplest and the default way to distribute
//! graphs […] Graphs are stored as an array containing pairs of
//! integers corresponding to the source and the destination vertex of
//! each edge. In the remainder of the paper, we assume the graph input
//! takes the form of an edge array and needs to be further converted
//! into other formats." (§3.1)

use std::fmt;

/// Dense vertex identifier.
pub type VertexId = u32;

/// Marker for an unknown/absent vertex (e.g. an undiscovered BFS
/// parent).
pub const INVALID_VERTEX: VertexId = VertexId::MAX;

/// A fixed-size edge record stored in edge arrays, CSRs and grids.
///
/// Two implementations exist: [`Edge`] (8 bytes, unweighted — BFS, WCC,
/// PageRank) and [`WEdge`] (12 bytes, `f32` weight — SSSP, SpMV, ALS).
/// Keeping the weight inline preserves the memory-traffic
/// characteristics the paper measures: unweighted algorithms never
/// touch (or pay bandwidth for) weights they do not need.
///
/// # Sealed
///
/// The trait cannot be implemented outside this crate: [`Edge`] and
/// [`WEdge`] are its only implementations. Both are padding-free
/// `#[repr(C)]` structs of `u32` / `f32` fields, so on a little-endian
/// target the bytes of a `[E]` *are* the records of the binary edge
/// file, and every bit pattern is a valid record. `egraph-storage`
/// reads files straight into a `Vec<E>` and writes the byte view of a
/// `&[E]` on the strength of exactly that; an outside implementation
/// with padding, a `bool` or a reference field would make that view
/// undefined behaviour, so it is rejected at compile time:
///
/// ```compile_fail,E0277
/// use egraph_core::types::{EdgeRecord, VertexId};
///
/// #[derive(Clone, Copy)]
/// struct Tagged {
///     src: VertexId,
///     dst: VertexId,
///     live: bool,
/// }
///
/// impl EdgeRecord for Tagged {
///     const WEIGHTED: bool = false;
///     fn new(src: VertexId, dst: VertexId, _weight: f32) -> Self {
///         Self { src, dst, live: true }
///     }
///     fn src(&self) -> VertexId {
///         self.src
///     }
///     fn dst(&self) -> VertexId {
///         self.dst
///     }
///     fn weight(&self) -> f32 {
///         1.0
///     }
/// }
/// ```
pub trait EdgeRecord: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Whether this record carries a weight.
    const WEIGHTED: bool;

    /// Creates a record. Unweighted implementations ignore `weight`.
    fn new(src: VertexId, dst: VertexId, weight: f32) -> Self;
    /// The source vertex.
    fn src(&self) -> VertexId;
    /// The destination vertex.
    fn dst(&self) -> VertexId;
    /// The weight (1.0 for unweighted records).
    fn weight(&self) -> f32;
}

mod sealed {
    /// Private supertrait of [`super::EdgeRecord`]: the list of
    /// implementations below is the whole list.
    pub trait Sealed {}
    impl Sealed for super::Edge {}
    impl Sealed for super::WEdge {}
}

/// An unweighted edge: two 32-bit vertex ids, 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Creates an unweighted edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Self { src, dst }
    }
}

impl EdgeRecord for Edge {
    const WEIGHTED: bool = false;

    #[inline]
    fn new(src: VertexId, dst: VertexId, _weight: f32) -> Self {
        Self { src, dst }
    }

    #[inline]
    fn src(&self) -> VertexId {
        self.src
    }

    #[inline]
    fn dst(&self) -> VertexId {
        self.dst
    }

    #[inline]
    fn weight(&self) -> f32 {
        1.0
    }
}

/// A weighted edge: two vertex ids plus an `f32` weight, 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct WEdge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (a distance for SSSP, a matrix entry for SpMV, a
    /// rating for ALS).
    pub weight: f32,
}

impl WEdge {
    /// Creates a weighted edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Self { src, dst, weight }
    }
}

impl EdgeRecord for WEdge {
    const WEIGHTED: bool = true;

    #[inline]
    fn new(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Self { src, dst, weight }
    }

    #[inline]
    fn src(&self) -> VertexId {
        self.src
    }

    #[inline]
    fn dst(&self) -> VertexId {
        self.dst
    }

    #[inline]
    fn weight(&self) -> f32 {
        self.weight
    }
}

/// The canonical graph input: an edge array plus its vertex count.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList<E: EdgeRecord = Edge> {
    num_vertices: usize,
    edges: Vec<E>,
}

/// Errors produced when validating an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex id outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending id.
        vertex: VertexId,
        /// The declared vertex count.
        num_vertices: usize,
    },
    /// The vertex count exceeds what a `u32` id can address.
    TooManyVertices(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "edge references vertex {vertex} but the graph has {num_vertices} vertices"
            ),
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the 32-bit id space")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl<E: EdgeRecord> EdgeList<E> {
    /// Creates an edge list after validating every endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any edge endpoint is
    /// `>= num_vertices`, and [`GraphError::TooManyVertices`] if
    /// `num_vertices` does not fit 32-bit ids.
    pub fn new(num_vertices: usize, edges: Vec<E>) -> Result<Self, GraphError> {
        if num_vertices > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(num_vertices));
        }
        for e in &edges {
            for v in [e.src(), e.dst()] {
                if v as usize >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v,
                        num_vertices,
                    });
                }
            }
        }
        Ok(Self {
            num_vertices,
            edges,
        })
    }

    /// Creates an edge list without validating endpoints.
    ///
    /// Intended for generators that construct edges in range by design;
    /// invariants are still checked in debug builds.
    pub fn from_parts_unchecked(num_vertices: usize, edges: Vec<E>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|e| (e.src() as usize) < num_vertices && (e.dst() as usize) < num_vertices));
        Self {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, in input order.
    #[inline]
    pub fn edges(&self) -> &[E] {
        &self.edges
    }

    /// Consumes the list, returning the raw edge vector.
    pub fn into_edges(self) -> Vec<E> {
        self.edges
    }

    /// Out-degree of every vertex, computed in parallel.
    pub fn out_degrees(&self) -> Vec<u64> {
        egraph_sort::key_histogram(&self.edges, self.num_vertices.max(1), |e| e.src() as u64)
    }

    /// In-degree of every vertex, computed in parallel.
    pub fn in_degrees(&self) -> Vec<u64> {
        egraph_sort::key_histogram(&self.edges, self.num_vertices.max(1), |e| e.dst() as u64)
    }

    /// Returns the vertex with the largest out-degree and that degree,
    /// or `None` for a graph with no vertices. Ties break toward the
    /// smaller vertex id.
    ///
    /// Useful for picking a well-connected root for traversals.
    pub fn max_degree_vertex(&self) -> Option<(VertexId, u64)> {
        if self.num_vertices == 0 {
            return None;
        }
        let degrees = self.out_degrees();
        let (v, d) = degrees
            .iter()
            .enumerate()
            .max_by(|(va, da), (vb, db)| da.cmp(db).then(vb.cmp(va)))
            .expect("at least one vertex");
        Some((v as VertexId, *d))
    }

    /// Maps the records into a different edge type (e.g. attach unit
    /// weights to an unweighted graph).
    pub fn map_records<F: EdgeRecord>(&self, f: impl Fn(&E) -> F + Sync) -> EdgeList<F> {
        let edges = egraph_parallel::ops::parallel_init(
            self.edges.len(),
            egraph_parallel::DEFAULT_GRAIN,
            |i| f(&self.edges[i]),
        );
        EdgeList {
            num_vertices: self.num_vertices,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_sizes_are_packed() {
        assert_eq!(std::mem::size_of::<Edge>(), 8);
        assert_eq!(std::mem::size_of::<WEdge>(), 12);
    }

    #[test]
    fn max_degree_vertex_picks_hub() {
        let graph = EdgeList::new(
            4,
            vec![
                Edge::new(2, 0),
                Edge::new(2, 1),
                Edge::new(2, 3),
                Edge::new(0, 1),
            ],
        )
        .unwrap();
        assert_eq!(graph.max_degree_vertex(), Some((2, 3)));
        // Empty vertex set has no hub; ties break to the smaller id.
        assert_eq!(
            EdgeList::<Edge>::new(0, vec![])
                .unwrap()
                .max_degree_vertex(),
            None
        );
        let tied = EdgeList::new(3, vec![Edge::new(1, 0), Edge::new(2, 0)]).unwrap();
        assert_eq!(tied.max_degree_vertex(), Some((1, 1)));
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let err = EdgeList::new(2, vec![Edge::new(0, 2)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 2,
                num_vertices: 2
            }
        );
    }

    #[test]
    fn validation_accepts_valid() {
        let list = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(2, 0)]).unwrap();
        assert_eq!(list.num_vertices(), 3);
        assert_eq!(list.num_edges(), 2);
    }

    #[test]
    fn degrees_count_correctly() {
        let list = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 2),
                Edge::new(3, 0),
            ],
        )
        .unwrap();
        assert_eq!(list.out_degrees(), vec![2, 1, 0, 1]);
        assert_eq!(list.in_degrees(), vec![1, 1, 2, 0]);
    }

    #[test]
    fn map_records_attaches_weights() {
        let list = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let weighted: EdgeList<WEdge> =
            list.map_records(|e| WEdge::new(e.src, e.dst, (e.src + e.dst) as f32));
        assert_eq!(weighted.edges()[1].weight, 3.0);
    }

    #[test]
    fn unweighted_weight_is_one() {
        assert_eq!(Edge::new(0, 1).weight(), 1.0);
    }
}
