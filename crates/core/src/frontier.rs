//! Vertex subsets (frontiers) and their sparse/dense duality.
//!
//! Frontier-driven algorithms keep "the subset of vertices or edges to
//! be processed during a computation step […] in a work queue" (§2).
//! Small frontiers are cheapest as sparse vertex lists; large frontiers
//! (and pull-mode membership tests) want a dense bitmap. The engine
//! switches representation based on frontier density, like Ligra.

use egraph_parallel::{parallel_collect_ordered, OrderedBuf, WorkerGuard, WorkerLocal};

use crate::types::VertexId;
use crate::util::AtomicBitmap;

/// A set of active vertices.
#[derive(Debug)]
pub enum VertexSubset {
    /// An unordered list of distinct vertex ids.
    Sparse(Vec<VertexId>),
    /// A bitmap over all vertices plus the number of set bits.
    Dense {
        /// Membership bitmap (length = number of graph vertices).
        bitmap: AtomicBitmap,
        /// Number of set bits.
        count: usize,
    },
}

impl VertexSubset {
    /// The empty subset.
    pub fn empty() -> Self {
        VertexSubset::Sparse(Vec::new())
    }

    /// A singleton subset.
    pub fn single(v: VertexId) -> Self {
        VertexSubset::Sparse(vec![v])
    }

    /// The full vertex set `0..num_vertices`, dense.
    pub fn all(num_vertices: usize) -> Self {
        let bitmap = AtomicBitmap::new(num_vertices);
        egraph_parallel::parallel_for(0..num_vertices, 1 << 14, |r| {
            for v in r {
                bitmap.set(v);
            }
        });
        VertexSubset::Dense {
            bitmap,
            count: num_vertices,
        }
    }

    /// Builds a sparse subset from a vertex list (must be duplicate
    /// free).
    pub fn from_vec(vertices: Vec<VertexId>) -> Self {
        VertexSubset::Sparse(vertices)
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse(v) => v.len(),
            VertexSubset::Dense { count, .. } => *count,
        }
    }

    /// Whether no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test. Sparse subsets fall back to a linear scan, so
    /// callers needing many tests should convert to dense first.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            VertexSubset::Sparse(list) => list.contains(&v),
            VertexSubset::Dense { bitmap, .. } => bitmap.get(v as usize),
        }
    }

    /// Calls `f` for every active vertex, in parallel.
    pub fn for_each(&self, f: impl Fn(VertexId) + Sync) {
        match self {
            VertexSubset::Sparse(list) => {
                egraph_parallel::parallel_for(0..list.len(), 256, |r| {
                    for i in r {
                        f(list[i]);
                    }
                });
            }
            VertexSubset::Dense { bitmap, .. } => {
                bitmap.for_each_set(|v| f(v as VertexId));
            }
        }
    }

    /// Returns a dense version of this subset (self if already dense).
    pub fn into_dense(self, num_vertices: usize) -> Self {
        match self {
            VertexSubset::Sparse(list) => {
                let bitmap = AtomicBitmap::new(num_vertices);
                let count = list.len();
                egraph_parallel::parallel_for(0..list.len(), 1 << 12, |r| {
                    for i in r {
                        bitmap.set(list[i] as usize);
                    }
                });
                VertexSubset::Dense { bitmap, count }
            }
            dense => dense,
        }
    }

    /// Returns a sparse version of this subset (self if already
    /// sparse). The list is sorted for dense inputs.
    pub fn into_sparse(self) -> Self {
        match self {
            VertexSubset::Dense { bitmap, .. } => VertexSubset::Sparse(bitmap.to_vec()),
            sparse => sparse,
        }
    }

    /// Sum of out-degrees of the active vertices — the quantity
    /// direction-optimizing BFS compares against the push/pull switch
    /// threshold. Runs as a parallel reduction over per-worker partial
    /// sums; no shared counter (this runs before every switch decision,
    /// so a contended atomic here taxes the whole traversal).
    pub fn out_edge_count(&self, degree_of: impl Fn(VertexId) -> usize + Sync) -> usize {
        match self {
            VertexSubset::Sparse(list) => egraph_parallel::parallel_reduce(
                0..list.len(),
                1024,
                || 0usize,
                |acc, r| list[r].iter().map(|&v| degree_of(v)).sum::<usize>() + acc,
                |a, b| a + b,
            ),
            VertexSubset::Dense { bitmap, .. } => bitmap.sum_over_set(|v| degree_of(v as VertexId)),
        }
    }
}

/// Which representation a step should produce for the next frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierKind {
    /// Collect activated vertices into per-chunk lists (small
    /// frontiers).
    Sparse,
    /// Mark activated vertices in a bitmap (large frontiers, or when
    /// duplicate activations are possible).
    Dense,
}

/// Concurrent accumulator for the next frontier.
///
/// Sparse accumulation is lock-free: every pool worker owns a private
/// buffer ([`WorkerLocal`]) and [`finish`](NextFrontier::finish)
/// concatenates them with a prefix-sum [`parallel_collect_ordered`] —
/// the frontier-collection scheme of Ligra/GBBS, replacing the former
/// global `Mutex<Vec>`. Engine drivers tag each chunk's activations
/// with the chunk's start index ([`sink`](NextFrontier::sink)), so the
/// collected frontier comes out in serial processing order no matter
/// which worker ran which chunk. Dense accumulation writes an atomic
/// bitmap and defers counting to `finish`, so no shared counter is
/// touched on the per-activation path either.
#[derive(Debug)]
pub enum NextFrontier {
    /// Sparse accumulation into per-worker chunk-ordered buffers.
    Sparse(WorkerLocal<OrderedBuf<VertexId>>),
    /// Dense accumulation via an atomic bitmap; the cardinality is
    /// computed once at `finish`.
    Dense {
        /// Activation bitmap.
        bitmap: AtomicBitmap,
    },
}

impl NextFrontier {
    /// Creates an accumulator of the requested kind for a graph of
    /// `num_vertices`.
    pub fn new(kind: FrontierKind, num_vertices: usize) -> Self {
        match kind {
            FrontierKind::Sparse => NextFrontier::Sparse(WorkerLocal::new(OrderedBuf::new)),
            FrontierKind::Dense => NextFrontier::Dense {
                bitmap: AtomicBitmap::new(num_vertices),
            },
        }
    }

    /// Records one activated vertex. For sparse accumulation the caller
    /// must guarantee each vertex is recorded at most once (push rules
    /// do this by claiming the vertex atomically before reporting it),
    /// or deduplicate the finished list (`edge_map`'s inline rounds do,
    /// for a rule that collects densely).
    ///
    /// Inside a chunk loop, prefer [`sink`](NextFrontier::sink), which
    /// amortizes the worker-buffer borrow over the whole chunk and
    /// gives the chunk a deterministic position in the collected
    /// frontier. Loose `add`s collate after all ordered chunks.
    #[inline]
    pub fn add(&self, v: VertexId) {
        match self {
            NextFrontier::Sparse(locals) => locals.with(|buf| {
                buf.begin_unordered_chunk();
                buf.push(v);
            }),
            NextFrontier::Dense { bitmap } => {
                bitmap.set(v as usize);
            }
        }
    }

    /// Appends a batch of activated vertices.
    pub fn extend(&self, batch: &[VertexId]) {
        match self {
            NextFrontier::Sparse(locals) => locals.with(|buf| {
                buf.begin_unordered_chunk();
                buf.extend_from_slice(batch);
            }),
            NextFrontier::Dense { bitmap } => {
                for &v in batch {
                    bitmap.set(v as usize);
                }
            }
        }
    }

    /// Borrows the calling worker's activation sink for the duration of
    /// a chunk. Engine drivers hold one sink per chunk and push
    /// activations straight into the worker's persistent buffer — no
    /// per-chunk `Vec` allocation, no flush, no lock.
    ///
    /// `order` is the chunk's position key (drivers pass the chunk's
    /// start index): collected sparse frontiers are sorted by it, so
    /// the frontier order matches a serial execution regardless of
    /// which worker processed which chunk, at any thread count.
    #[inline]
    pub fn sink(&self, order: u64) -> FrontierSink<'_> {
        match self {
            NextFrontier::Sparse(locals) => {
                let mut buf = locals.borrow();
                buf.begin_chunk(order);
                FrontierSink::Sparse(buf)
            }
            NextFrontier::Dense { bitmap } => FrontierSink::Dense(bitmap),
        }
    }

    /// Finalizes into a [`VertexSubset`].
    pub fn finish(self) -> VertexSubset {
        match self {
            NextFrontier::Sparse(locals) => VertexSubset::Sparse(parallel_collect_ordered(locals)),
            NextFrontier::Dense { bitmap } => {
                let count = bitmap.count_ones();
                VertexSubset::Dense { bitmap, count }
            }
        }
    }
}

/// A per-worker activation sink borrowed from a [`NextFrontier`] for
/// the duration of one chunk of work.
pub enum FrontierSink<'a> {
    /// Exclusive access to the worker's sparse buffer.
    Sparse(WorkerGuard<'a, OrderedBuf<VertexId>>),
    /// Shared atomic bitmap (safe to write from any worker).
    Dense(&'a AtomicBitmap),
}

impl FrontierSink<'_> {
    /// Records one activated vertex.
    #[inline]
    pub fn add(&mut self, v: VertexId) {
        match self {
            FrontierSink::Sparse(buf) => buf.push(v),
            FrontierSink::Dense(bitmap) => {
                bitmap.set(v as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        assert!(VertexSubset::empty().is_empty());
        let s = VertexSubset::single(7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
        assert!(!s.contains(6));
    }

    #[test]
    fn all_is_full() {
        let s = VertexSubset::all(100);
        assert_eq!(s.len(), 100);
        assert!(s.contains(0));
        assert!(s.contains(99));
    }

    #[test]
    fn dense_sparse_roundtrip() {
        let s = VertexSubset::from_vec(vec![3, 1, 4, 15]);
        let dense = s.into_dense(16);
        assert_eq!(dense.len(), 4);
        assert!(dense.contains(15));
        let sparse = dense.into_sparse();
        if let VertexSubset::Sparse(mut v) = sparse {
            v.sort_unstable();
            assert_eq!(v, vec![1, 3, 4, 15]);
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn for_each_visits_every_member() {
        let s = VertexSubset::from_vec((0..1000).collect());
        let seen = AtomicBitmap::new(1000);
        s.for_each(|v| {
            assert!(seen.set(v as usize));
        });
        assert_eq!(seen.count_ones(), 1000);
    }

    #[test]
    fn out_edge_count_sums_degrees() {
        let s = VertexSubset::from_vec(vec![0, 2]);
        let count = s.out_edge_count(|v| (v as usize + 1) * 10);
        assert_eq!(count, 10 + 30);
    }

    #[test]
    fn next_frontier_sparse_collects() {
        let nf = NextFrontier::new(FrontierKind::Sparse, 100);
        nf.add(5);
        nf.extend(&[7, 9]);
        let s = nf.finish();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn next_frontier_sparse_parallel_every_vertex_once() {
        // Stress the per-worker buffers: many chunks, each holding a
        // sink across its whole body, must collect every activation
        // exactly once.
        let n = 100_000usize;
        let nf = NextFrontier::new(FrontierKind::Sparse, n);
        egraph_parallel::parallel_for(0..n, 173, |r| {
            let mut sink = nf.sink(r.start as u64);
            for v in r {
                sink.add(v as VertexId);
            }
        });
        let s = nf.finish();
        assert_eq!(s.len(), n);
        if let VertexSubset::Sparse(mut list) = s {
            list.sort_unstable();
            for (i, &v) in list.iter().enumerate() {
                assert_eq!(v as usize, i);
            }
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn next_frontier_sparse_order_matches_serial_execution() {
        // Chunk-order keys make the collected frontier independent of
        // which worker processed which chunk: the result must equal
        // what a serial scan would produce, at any thread count.
        let n = 50_000usize;
        let nf = NextFrontier::new(FrontierKind::Sparse, n);
        egraph_parallel::parallel_for(0..n, 173, |r| {
            let mut sink = nf.sink(r.start as u64);
            for v in r {
                if v % 7 == 0 {
                    sink.add(v as VertexId);
                }
            }
        });
        let expected: Vec<VertexId> = (0..n).filter(|v| v % 7 == 0).map(|v| v as u32).collect();
        match nf.finish() {
            VertexSubset::Sparse(list) => assert_eq!(list, expected),
            _ => panic!("expected sparse"),
        }
    }

    #[test]
    fn dense_count_reflects_dedup_after_finish() {
        let nf = NextFrontier::new(FrontierKind::Dense, 64);
        let mut sink = nf.sink(0);
        for v in [1u32, 2, 2, 3, 1] {
            sink.add(v);
        }
        drop(sink);
        assert_eq!(nf.finish().len(), 3);
    }

    #[test]
    fn out_edge_count_dense_sums_degrees() {
        let s = VertexSubset::from_vec(vec![0, 2, 65]).into_dense(128);
        let count = s.out_edge_count(|v| v as usize + 1);
        assert_eq!(count, 1 + 3 + 66);
    }

    #[test]
    fn next_frontier_dense_dedups() {
        let nf = NextFrontier::new(FrontierKind::Dense, 100);
        egraph_parallel::parallel_for(0..1000, 16, |r| {
            for i in r {
                nf.add((i % 10) as u32);
            }
        });
        let s = nf.finish();
        assert_eq!(s.len(), 10);
    }
}
