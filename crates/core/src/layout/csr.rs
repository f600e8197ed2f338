//! Adjacency lists: per-vertex edge arrays.
//!
//! Two storage shapes exist, matching the paper's two construction
//! techniques (§3.2):
//!
//! * [`Storage::Csr`] — edges sorted by key vertex in one contiguous
//!   array, with per-vertex offsets into it ("vertices use an index in
//!   the sorted edge array to point to their outgoing edge array […]
//!   corresponding to compressed sparse row format"). Built by count
//!   sort or radix sort.
//! * [`Storage::PerVertex`] — individually allocated, growable
//!   per-vertex arrays, built dynamically while scanning (or loading)
//!   the input.
//!
//! Both expose the same `neighbors(v)` interface, so every algorithm
//! runs unchanged on either; what differs is construction cost and
//! memory locality — exactly the trade-off the paper measures.

use super::Sides;
use crate::types::{EdgeRecord, VertexId};

/// Which per-vertex arrays an adjacency list holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDirection {
    /// Outgoing edges only (push-style computation).
    Out,
    /// Incoming edges only (pull-style computation).
    In,
    /// Both (required by push-pull on directed graphs; doubles the
    /// pre-processing cost, see Fig. 1 and §6.1.3).
    Both,
}

/// Physical storage of one direction of adjacency.
#[derive(Debug, Clone)]
pub enum Storage<E> {
    /// Contiguous CSR: `offsets[v]..offsets[v+1]` indexes `edges`.
    Csr {
        /// `num_vertices + 1` exclusive prefix offsets.
        offsets: Vec<u64>,
        /// Edges grouped by key vertex.
        edges: Vec<E>,
    },
    /// Individually allocated per-vertex arrays (dynamic construction).
    PerVertex(Vec<Vec<E>>),
}

/// One direction of adjacency (out-edges or in-edges).
#[derive(Debug, Clone)]
pub struct Adjacency<E> {
    num_vertices: usize,
    num_edges: usize,
    /// `true` when edges are grouped by destination (an in-CSR).
    by_dst: bool,
    storage: Storage<E>,
}

impl<E: EdgeRecord> Adjacency<E> {
    /// Wraps CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a monotone `num_vertices + 1` prefix
    /// table ending at `edges.len()`.
    pub fn from_csr(num_vertices: usize, offsets: Vec<u64>, edges: Vec<E>, by_dst: bool) -> Self {
        assert_eq!(offsets.len(), num_vertices + 1, "offsets length");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            edges.len(),
            "offsets total"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            num_vertices,
            num_edges: edges.len(),
            by_dst,
            storage: Storage::Csr { offsets, edges },
        }
    }

    /// Wraps dynamically built per-vertex arrays.
    ///
    /// # Panics
    ///
    /// Panics if `lists.len() != num_vertices`.
    pub fn from_per_vertex(num_vertices: usize, lists: Vec<Vec<E>>, by_dst: bool) -> Self {
        assert_eq!(lists.len(), num_vertices, "one list per vertex");
        let num_edges = lists.iter().map(Vec::len).sum();
        Self {
            num_vertices,
            num_edges,
            by_dst,
            storage: Storage::PerVertex(lists),
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
        self.num_edges
    }

    /// Whether edges are grouped by destination vertex.
    #[inline]
    pub fn is_by_dst(&self) -> bool {
        self.by_dst
    }

    /// The storage shape (CSR or per-vertex).
    #[inline]
    pub fn storage(&self) -> &Storage<E> {
        &self.storage
    }

    /// The edges of vertex `v` (out-edges for an out-adjacency,
    /// in-edges for an in-adjacency).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[E] {
        match &self.storage {
            Storage::Csr { offsets, edges } => {
                &edges[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
            }
            Storage::PerVertex(lists) => &lists[v as usize],
        }
    }

    /// Degree of vertex `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Resident heap bytes of this direction (offset table or
    /// per-vertex headers, plus edge arrays) — the uncompressed
    /// baseline the ccsr compression experiment compares against.
    pub fn resident_bytes(&self) -> u64 {
        let esize = std::mem::size_of::<E>() as u64;
        match &self.storage {
            Storage::Csr { offsets, edges } => {
                offsets.len() as u64 * 8 + edges.len() as u64 * esize
            }
            Storage::PerVertex(lists) => lists
                .iter()
                .map(|l| std::mem::size_of::<Vec<E>>() as u64 + l.capacity() as u64 * esize)
                .sum(),
        }
    }

    /// Sorts every per-vertex edge array by neighbor id — the "adj.
    /// sorted" variant of §5.1, whose extra pre-processing the paper
    /// shows never pays off.
    ///
    /// The sort is unstable: records with equal neighbor id (parallel
    /// edges) end up in no particular order. The order is still a pure
    /// function of the vertex's list as it was before the call, so
    /// layouts built from the same input by any of the (stable)
    /// construction strategies, at any thread count, sort identically.
    pub fn sort_neighbor_arrays(&mut self) {
        let by_dst = self.by_dst;
        let key = move |e: &E| {
            if by_dst {
                e.src()
            } else {
                e.dst()
            }
        };
        match &mut self.storage {
            Storage::Csr { offsets, edges } => {
                let nv = self.num_vertices;
                let offsets = &*offsets;
                // Per-vertex ranges are disjoint: sort them in parallel
                // through raw pointers.
                let base = EdgesPtr(edges.as_mut_ptr());
                egraph_parallel::parallel_for(0..nv, 1024, |r| {
                    for v in r {
                        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                        // SAFETY: vertex ranges `[lo, hi)` are disjoint
                        // across `v`, and the borrow lives for the
                        // whole (blocking) parallel region.
                        let slice =
                            unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
                        slice.sort_unstable_by_key(|e| key(e));
                    }
                });
            }
            Storage::PerVertex(lists) => {
                egraph_parallel::for_each_chunk_mut(lists, 1024, |_, chunk| {
                    for list in chunk {
                        list.sort_unstable_by_key(|e| key(e));
                    }
                });
            }
        }
    }
}

struct EdgesPtr<E>(*mut E);
impl<E> EdgesPtr<E> {
    #[inline]
    fn get(&self) -> *mut E {
        self.0
    }
}
// SAFETY: only used for disjoint per-vertex ranges (see call site).
unsafe impl<E: Send> Send for EdgesPtr<E> {}
// SAFETY: same disjointness argument.
unsafe impl<E: Send> Sync for EdgesPtr<E> {}

/// A full adjacency-list layout: out-edges, in-edges, or both.
pub type AdjacencyList<E> = Sides<Adjacency<E>>;

impl<E: EdgeRecord> AdjacencyList<E> {
    /// Assembles a layout from its directions.
    ///
    /// # Panics
    ///
    /// Panics if both directions are absent or their vertex counts
    /// disagree.
    pub fn new(out: Option<Adjacency<E>>, inc: Option<Adjacency<E>>) -> Self {
        Self::pair(out, inc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn sample_csr() -> Adjacency<Edge> {
        // 0 -> 1, 0 -> 2, 2 -> 0
        Adjacency::from_csr(
            3,
            vec![0, 2, 2, 3],
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 0)],
            false,
        )
    }

    #[test]
    fn csr_neighbors() {
        let adj = sample_csr();
        assert_eq!(adj.neighbors(0), &[Edge::new(0, 1), Edge::new(0, 2)]);
        assert_eq!(adj.neighbors(1), &[]);
        assert_eq!(adj.degree(2), 1);
        assert_eq!(adj.num_edges(), 3);
    }

    #[test]
    fn per_vertex_neighbors() {
        let adj = Adjacency::from_per_vertex(2, vec![vec![Edge::new(0, 1)], vec![]], false);
        assert_eq!(adj.neighbors(0).len(), 1);
        assert_eq!(adj.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "offsets length")]
    fn csr_rejects_bad_offsets() {
        let _ = Adjacency::<Edge>::from_csr(3, vec![0, 1], vec![Edge::new(0, 1)], false);
    }

    #[test]
    fn sorting_neighbor_arrays() {
        let mut adj = Adjacency::from_csr(
            2,
            vec![0, 3, 3],
            vec![Edge::new(0, 5), Edge::new(0, 1), Edge::new(0, 3)],
            false,
        );
        adj.sort_neighbor_arrays();
        let dsts: Vec<u32> = adj.neighbors(0).iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![1, 3, 5]);
    }
}
