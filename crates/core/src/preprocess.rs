//! Pre-processing: converting the edge-array input into adjacency
//! lists and grids, with the three construction strategies of §3.2.
//! Callers time a `build` with [`crate::metrics::timed`] for the
//! paper's end-to-end view.

use egraph_parallel::ops::parallel_init;
use egraph_parallel::{
    broadcast_current, current_num_threads, current_worker_index, parallel_for, DEFAULT_GRAIN,
};

use crate::layout::ccsr::{encode_vertex, encoded_len};
use crate::layout::{
    Adjacency, AdjacencyList, CcsrAdjacency, CcsrList, EdgeDirection, Grid, Sides, VertexLayout,
};
use crate::types::{EdgeList, EdgeRecord};
use crate::util::UnsyncSlice;

/// Below this many edges the dynamic grouping paths run serially; the
/// per-worker block machinery is not worth its setup cost on tiny
/// inputs, and the serial path produces the identical output.
const DYNAMIC_SERIAL_CUTOFF: usize = 4 * DEFAULT_GRAIN;

/// A raw pointer that may cross thread boundaries. Every dereference
/// site carries its own disjointness argument.
struct SendPtr<T>(*mut T);

// SAFETY: the wrapper only moves the pointer between threads; the
// `unsafe` blocks that dereference it guarantee disjoint access.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: same argument.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

/// How per-vertex (or per-cell) edge arrays are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Grow per-vertex arrays while scanning the input. No sorting, but
    /// reallocations and poor locality; fully overlappable with
    /// loading (§3.4).
    Dynamic,
    /// Two passes: count degrees, then scatter to final offsets.
    /// Pass-optimal but cache-hostile; the counting pass can overlap
    /// with loading.
    CountSort,
    /// Most-significant-digit-first radix partition of the borrowed
    /// input (`egraph_sort::radix_partition_by_key`): every pass writes
    /// a few hundred sequential streams through an L1-resident cursor
    /// table, which gives the best locality (Table 2), but nothing
    /// overlaps with loading.
    RadixSort,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Dynamic, Strategy::CountSort, Strategy::RadixSort];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Dynamic => "dynamic",
            Strategy::CountSort => "count-sort",
            Strategy::RadixSort => "radix-sort",
        }
    }
}

/// Builder for adjacency-list layouts.
///
/// # Examples
///
/// ```
/// use egraph_core::preprocess::{CsrBuilder, Strategy};
/// use egraph_core::layout::{EdgeDirection, VertexLayout};
/// use egraph_core::types::{Edge, EdgeList};
///
/// let edges = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(0, 2)]).unwrap();
/// let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&edges);
/// assert_eq!(adj.out().degree(0), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    strategy: Strategy,
    direction: EdgeDirection,
    sort_neighbors: bool,
}

impl CsrBuilder {
    /// Creates a builder with the given strategy and edge direction.
    pub fn new(strategy: Strategy, direction: EdgeDirection) -> Self {
        Self {
            strategy,
            direction,
            sort_neighbors: false,
        }
    }

    /// Additionally sorts each per-vertex array by neighbor id (the
    /// "adj. sorted" variant of §5). Parallel edges — records with
    /// equal neighbor id — keep no particular order, but the same one
    /// for every strategy and thread count (see
    /// [`Adjacency::sort_neighbor_arrays`]).
    pub fn sort_neighbors(mut self, yes: bool) -> Self {
        self.sort_neighbors = yes;
        self
    }

    /// Builds the layout.
    pub fn build<E: EdgeRecord>(&self, input: &EdgeList<E>) -> AdjacencyList<E> {
        let _span = egraph_parallel::timeline::span(
            egraph_parallel::timeline::SpanKind::Phase,
            "preprocess_csr",
            self.strategy.name(),
        );
        Sides::build(self.direction, |by_dst| self.side(input, by_dst))
    }

    /// Builds one direction (`by_dst` for the in-direction).
    fn side<E: EdgeRecord>(&self, input: &EdgeList<E>, by_dst: bool) -> Adjacency<E> {
        let mut adj = build_one_direction(input, self.strategy, by_dst);
        if self.sort_neighbors {
            adj.sort_neighbor_arrays();
        }
        adj
    }
}

/// Builds one direction of adjacency (`by_dst = true` groups by
/// destination, producing an in-adjacency).
pub fn build_one_direction<E: EdgeRecord>(
    input: &EdgeList<E>,
    strategy: Strategy,
    by_dst: bool,
) -> Adjacency<E> {
    let nv = input.num_vertices();
    let key = move |e: &E| -> u64 {
        if by_dst {
            e.dst() as u64
        } else {
            e.src() as u64
        }
    };
    match strategy {
        Strategy::Dynamic => {
            let lists = dynamic_group(input.edges(), nv, key);
            Adjacency::from_per_vertex(nv, lists, by_dst)
        }
        // The two sorts hand back the same thing — records grouped by
        // key in input order plus the `nv + 1` group offsets — from the
        // borrowed input.
        Strategy::CountSort => {
            let grouped = egraph_sort::count_sort_by_key(input.edges(), nv, key);
            Adjacency::from_csr(nv, grouped.offsets, grouped.sorted, by_dst)
        }
        Strategy::RadixSort => {
            let grouped = egraph_sort::radix_partition_by_key(input.edges(), nv, key);
            Adjacency::from_csr(nv, grouped.offsets, grouped.sorted, by_dst)
        }
    }
}

/// Groups edges into growable per-vertex vectors — the "dynamically
/// allocating and resizing" technique.
///
/// Workers never contend on a vertex: each worker scans a contiguous
/// input block into **private** shard buffers (a shard is a contiguous
/// vertex range), then a parallel merge walks each shard's buffers in
/// ascending worker order, so no locks or atomics touch the per-vertex
/// lists. Because blocks are contiguous and merged in worker order,
/// every vertex sees its edges in global input order — the result is
/// identical at any thread count (and to the serial path).
fn dynamic_group<E: EdgeRecord>(
    edges: &[E],
    nv: usize,
    key: impl Fn(&E) -> u64 + Sync,
) -> Vec<Vec<E>> {
    if nv == 0 {
        return Vec::new();
    }
    let workers = current_num_threads();
    if edges.len() < DYNAMIC_SERIAL_CUTOFF || workers == 1 || current_worker_index().is_some() {
        let mut lists: Vec<Vec<E>> = (0..nv).map(|_| Vec::new()).collect();
        for e in edges {
            lists[key(e) as usize].push(*e);
        }
        return lists;
    }

    // Phase 1: each worker scans its contiguous block into private
    // per-shard buffers. A few shards per worker keeps the later merge
    // load-balanced without allocating `workers * nv` vectors.
    let num_shards = (4 * workers).min(nv);
    let shard_size = nv.div_ceil(num_shards);
    let block = edges.len().div_ceil(workers);
    let mut sharded: Vec<Vec<Vec<E>>> = (0..workers)
        .map(|_| (0..num_shards).map(|_| Vec::new()).collect())
        .collect();
    {
        let rows = SendPtr(sharded.as_mut_ptr());
        broadcast_current(&|worker| {
            let w = worker.index();
            let start = (w * block).min(edges.len());
            let end = ((w + 1) * block).min(edges.len());
            // SAFETY: each worker index occurs exactly once per
            // top-level region, so row `w` has a single writer.
            let row = unsafe { &mut *rows.get().add(w) };
            for e in &edges[start..end] {
                row[key(e) as usize / shard_size].push(*e);
            }
        });
    }

    // Phase 2: merge shards in parallel. Each shard owns a disjoint
    // vertex range, so per-vertex pushes need no synchronization.
    let mut lists: Vec<Vec<E>> = (0..nv).map(|_| Vec::new()).collect();
    {
        let out = UnsyncSlice::new(&mut lists);
        let sharded = &sharded;
        parallel_for(0..num_shards, 1, |shards| {
            for s in shards {
                for row in sharded {
                    for e in &row[s] {
                        // SAFETY: `key(e) / shard_size == s`, and shard
                        // `s` is processed by exactly one loop
                        // iteration across all workers.
                        unsafe { out.update(key(e) as usize, |list| list.push(*e)) };
                    }
                }
            }
        });
    }
    lists
}

/// Groups edges into flat cell-major storage (offsets + edge array)
/// with growable per-cell buffers — the grid flavor of the dynamic
/// strategy.
///
/// Same shape as [`dynamic_group`]: per-worker private buffers over
/// contiguous input blocks, then an atomics-free parallel scatter that
/// concatenates each cell's buffers in ascending worker order into its
/// exclusive output range. Output is identical at any thread count.
fn dynamic_cells<E: EdgeRecord>(
    edges: &[E],
    num_cells: usize,
    cell_of: impl Fn(&E) -> usize + Sync,
) -> (Vec<u64>, Vec<E>) {
    let workers = current_num_threads();
    if edges.len() < DYNAMIC_SERIAL_CUTOFF || workers == 1 || current_worker_index().is_some() {
        let mut cells: Vec<Vec<E>> = (0..num_cells).map(|_| Vec::new()).collect();
        for e in edges {
            cells[cell_of(e)].push(*e);
        }
        let mut offsets = Vec::with_capacity(num_cells + 1);
        let mut out = Vec::with_capacity(edges.len());
        offsets.push(0u64);
        for cell in cells {
            out.extend_from_slice(&cell);
            offsets.push(out.len() as u64);
        }
        return (offsets, out);
    }

    // Phase 1: per-worker private cell buffers over contiguous blocks.
    let block = edges.len().div_ceil(workers);
    let mut rows: Vec<Vec<Vec<E>>> = (0..workers)
        .map(|_| (0..num_cells).map(|_| Vec::new()).collect())
        .collect();
    {
        let rows_ptr = SendPtr(rows.as_mut_ptr());
        broadcast_current(&|worker| {
            let w = worker.index();
            let start = (w * block).min(edges.len());
            let end = ((w + 1) * block).min(edges.len());
            // SAFETY: each worker index occurs exactly once per
            // top-level region, so row `w` has a single writer.
            let row = unsafe { &mut *rows_ptr.get().add(w) };
            for e in &edges[start..end] {
                row[cell_of(e)].push(*e);
            }
        });
    }

    // Per-cell totals summed over workers, then an exclusive prefix
    // sum hands every cell a disjoint output range.
    let totals = parallel_init(num_cells, 1024, |c| {
        rows.iter().map(|row| row[c].len() as u64).sum::<u64>()
    });
    let mut offsets = Vec::with_capacity(num_cells + 1);
    offsets.push(0u64);
    for t in totals {
        offsets.push(offsets.last().copied().unwrap_or(0) + t);
    }

    // Phase 2: scatter each cell's buffers, worker-major, into its
    // exclusive range of the output.
    let total = *offsets.last().unwrap() as usize;
    let mut out: Vec<E> = Vec::with_capacity(total);
    {
        let out_ptr = SendPtr(out.as_mut_ptr());
        let rows = &rows;
        let offsets = &offsets;
        parallel_for(0..num_cells, 256, |cells| {
            for c in cells {
                let mut cursor = offsets[c] as usize;
                for row in rows {
                    let buf = &row[c];
                    // SAFETY: cell `c` is handled by exactly one loop
                    // iteration, and `offsets[c]..offsets[c + 1]` is
                    // its exclusive slice of the reserved output.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            buf.as_ptr(),
                            out_ptr.get().add(cursor),
                            buf.len(),
                        );
                    }
                    cursor += buf.len();
                }
                debug_assert_eq!(cursor, offsets[c + 1] as usize);
            }
        });
    }
    // SAFETY: the scatter ranges tile `0..total` exactly.
    unsafe { out.set_len(total) };
    (offsets, out)
}

/// Builder for grid layouts.
///
/// # Examples
///
/// ```
/// use egraph_core::preprocess::{GridBuilder, Strategy};
/// use egraph_core::types::{Edge, EdgeList};
///
/// let edges = EdgeList::new(4, vec![Edge::new(0, 3), Edge::new(2, 1)]).unwrap();
/// let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&edges);
/// assert_eq!(grid.cell(0, 1), &[Edge::new(0, 3)]);
/// assert_eq!(grid.cell(1, 0), &[Edge::new(2, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct GridBuilder {
    strategy: Strategy,
    side: usize,
}

impl GridBuilder {
    /// Creates a builder with the default 256×256 grid.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            side: crate::layout::grid::DEFAULT_GRID_SIDE,
        }
    }

    /// Sets the grid side P (the grid gets P×P cells).
    pub fn side(mut self, side: usize) -> Self {
        assert!(side > 0, "grid side must be positive");
        self.side = side;
        self
    }

    /// Builds the grid.
    pub fn build<E: EdgeRecord>(&self, input: &EdgeList<E>) -> Grid<E> {
        let _span = egraph_parallel::timeline::span(
            egraph_parallel::timeline::SpanKind::Phase,
            "preprocess_grid",
            self.strategy.name(),
        );
        let nv = input.num_vertices();
        let side = self.side;
        let range_len = nv.div_ceil(side).max(1);
        let num_cells = side * side;
        let key = move |e: &E| -> u64 {
            (e.src() as usize / range_len * side + e.dst() as usize / range_len) as u64
        };

        match self.strategy {
            Strategy::RadixSort => {
                let grouped = egraph_sort::radix_partition_by_key(input.edges(), num_cells, key);
                Grid::from_parts(nv, side, grouped.offsets, grouped.sorted)
            }
            Strategy::CountSort => {
                let grouped = egraph_sort::count_sort_by_key(input.edges(), num_cells, key);
                Grid::from_parts(nv, side, grouped.offsets, grouped.sorted)
            }
            Strategy::Dynamic => {
                let (offsets, edges) = dynamic_cells(input.edges(), num_cells, |e| key(e) as usize);
                Grid::from_parts(nv, side, offsets, edges)
            }
        }
    }
}

/// Builder for compressed-CSR layouts (DESIGN.md §14): sorted neighbor
/// lists encoded per chunk as a header byte, the first-neighbor delta
/// and gaps bit-packed at one width, chunked so workers decode one
/// vertex without touching its neighbors' chunks.
///
/// Neighbor lists are always sorted — gap encoding requires it — so a
/// ccsr build is, direction by direction, a
/// `CsrBuilder::sort_neighbors(true)` build of that direction followed
/// by [`compress_adjacency`]; only one uncompressed direction is
/// resident at a time. The weight
/// side array follows that sort: among parallel edges the weights keep
/// no particular order, only a deterministic one.
///
/// # Examples
///
/// ```
/// use egraph_core::preprocess::{CcsrBuilder, Strategy};
/// use egraph_core::layout::{EdgeDirection, VertexLayout};
/// use egraph_core::types::{Edge, EdgeList};
///
/// let edges = EdgeList::new(3, vec![Edge::new(0, 2), Edge::new(0, 1)]).unwrap();
/// let ccsr = CcsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&edges);
/// assert_eq!(ccsr.out().decode_neighbors(0).unwrap(), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct CcsrBuilder {
    strategy: Strategy,
    direction: EdgeDirection,
}

impl CcsrBuilder {
    /// Creates a builder with the given strategy and edge direction.
    pub fn new(strategy: Strategy, direction: EdgeDirection) -> Self {
        Self {
            strategy,
            direction,
        }
    }

    /// Builds the layout: the intermediate sorted-CSR build and the
    /// compression passes, so timing `build` counts both —
    /// pre-processing is end-to-end, as everywhere else in the repo.
    pub fn build<E: EdgeRecord>(&self, input: &EdgeList<E>) -> CcsrList<E> {
        let _span = egraph_parallel::timeline::span(
            egraph_parallel::timeline::SpanKind::Phase,
            "preprocess_ccsr",
            self.strategy.name(),
        );
        let csr = CsrBuilder::new(self.strategy, self.direction).sort_neighbors(true);
        Sides::build(self.direction, |by_dst| {
            compress_adjacency(&csr.side(input, by_dst))
        })
    }
}

/// Compresses every direction of an already-neighbor-sorted adjacency
/// list. Panics (inside [`compress_adjacency`]) if a neighbor array is
/// not sorted.
pub fn compress_sorted_csr<E: EdgeRecord>(csr: &AdjacencyList<E>) -> CcsrList<E> {
    let (out, inc) = (csr.out_opt(), csr.incoming_opt());
    CcsrList::new(out.map(compress_adjacency), inc.map(compress_adjacency))
}

/// Encodes one neighbor-sorted [`Adjacency`] into its compressed form,
/// in parallel: pass 1 measures every vertex's encoded stream length,
/// a prefix sum hands each vertex an exclusive byte range, pass 2
/// encodes into those disjoint ranges with no synchronization.
///
/// # Panics
///
/// Panics if any neighbor array is not sorted by neighbor id (build
/// the input with `CsrBuilder::sort_neighbors(true)`).
pub fn compress_adjacency<E: EdgeRecord>(adj: &Adjacency<E>) -> CcsrAdjacency<E> {
    let nv = adj.num_vertices();
    let by_dst = adj.is_by_dst();
    let nbr = move |e: &E| -> u32 {
        if by_dst {
            e.src()
        } else {
            e.dst()
        }
    };

    // Pass 1: per-vertex encoded byte lengths, then serial prefix sums
    // for the byte and edge offset tables (O(nv) additions — cheap
    // next to the encode passes).
    let lens = parallel_init(nv, 1 << 12, |v| {
        encoded_len(v as u32, adj.neighbors(v as u32).iter().map(nbr)) as u64
    });
    let mut byte_offsets = Vec::with_capacity(nv + 1);
    byte_offsets.push(0u64);
    let mut edge_offsets = Vec::with_capacity(nv + 1);
    edge_offsets.push(0u64);
    for v in 0..nv {
        byte_offsets.push(byte_offsets[v] + lens[v]);
        edge_offsets.push(edge_offsets[v] + adj.degree(v as u32) as u64);
    }
    let total_bytes = *byte_offsets.last().unwrap() as usize;
    let total_edges = *edge_offsets.last().unwrap() as usize;

    // Pass 2: encode each vertex into its exclusive byte range.
    let mut bytes: Vec<u8> = Vec::with_capacity(total_bytes);
    {
        let out_ptr = SendPtr(bytes.as_mut_ptr());
        let byte_offsets = &byte_offsets;
        parallel_for(0..nv, 1 << 10, |vs| {
            let mut buf: Vec<u8> = Vec::new();
            for v in vs {
                buf.clear();
                encode_vertex(v as u32, adj.neighbors(v as u32).iter().map(nbr), &mut buf);
                debug_assert_eq!(buf.len() as u64, byte_offsets[v + 1] - byte_offsets[v]);
                // SAFETY: vertex `v` is processed by exactly one loop
                // iteration, and `byte_offsets[v]..byte_offsets[v + 1]`
                // is its exclusive slice of the reserved output.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        buf.as_ptr(),
                        out_ptr.get().add(byte_offsets[v] as usize),
                        buf.len(),
                    );
                }
            }
        });
    }
    // SAFETY: the encode ranges tile `0..total_bytes` exactly (pass 1
    // measured with the same `encoded_len` the encoder asserts against).
    unsafe { bytes.set_len(total_bytes) };

    // Weights stay uncompressed in a flat side array aligned with the
    // edge offsets — delta-coding f32s buys nothing.
    let weights = if E::WEIGHTED {
        let mut w = vec![0.0f32; total_edges];
        {
            let ws = UnsyncSlice::new(&mut w);
            let edge_offsets = &edge_offsets;
            parallel_for(0..nv, 1 << 10, |vs| {
                for v in vs {
                    let base = edge_offsets[v] as usize;
                    for (k, e) in adj.neighbors(v as u32).iter().enumerate() {
                        // SAFETY: vertex `v` has a single writer and
                        // `edge_offsets[v]..edge_offsets[v + 1]` is its
                        // exclusive range.
                        unsafe { ws.write(base + k, e.weight()) };
                    }
                }
            });
        }
        w
    } else {
        Vec::new()
    };

    CcsrAdjacency::from_parts(nv, by_dst, edge_offsets, byte_offsets, bytes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn sample_input() -> EdgeList<Edge> {
        EdgeList::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(2, 3),
            ],
        )
        .unwrap()
    }

    fn degrees_of(adj: &Adjacency<Edge>) -> Vec<usize> {
        (0..adj.num_vertices())
            .map(|v| adj.degree(v as u32))
            .collect()
    }

    #[test]
    fn all_strategies_agree_on_out_degrees() {
        let input = sample_input();
        for strategy in Strategy::ALL {
            let adj = CsrBuilder::new(strategy, EdgeDirection::Out).build(&input);
            assert_eq!(degrees_of(adj.out()), vec![3, 1, 1, 0], "{strategy:?}");
        }
    }

    #[test]
    fn all_strategies_agree_on_in_degrees() {
        let input = sample_input();
        for strategy in Strategy::ALL {
            let adj = CsrBuilder::new(strategy, EdgeDirection::In).build(&input);
            assert_eq!(degrees_of(adj.incoming()), vec![1, 1, 1, 2], "{strategy:?}");
        }
    }

    #[test]
    fn both_directions_built_together() {
        let input = sample_input();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        assert!(adj.out_opt().is_some() && adj.incoming_opt().is_some());
    }

    #[test]
    fn neighbors_contain_expected_edges() {
        let input = sample_input();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&input);
        let mut dsts: Vec<u32> = adj.out().neighbors(0).iter().map(|e| e.dst).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![1, 2, 3]);
    }

    #[test]
    fn sorted_neighbors_are_sorted() {
        let input = sample_input();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&input);
        let dsts: Vec<u32> = adj.out().neighbors(0).iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![1, 2, 3]);
    }

    #[test]
    fn grid_strategies_agree() {
        // Every strategy is stable, so cells agree in order, not just
        // as multisets.
        let input = sample_input();
        let reference = GridBuilder::new(Strategy::RadixSort).side(2).build(&input);
        for strategy in [Strategy::CountSort, Strategy::Dynamic] {
            let grid = GridBuilder::new(strategy).side(2).build(&input);
            for r in 0..2 {
                for c in 0..2 {
                    assert_eq!(
                        grid.cell(r, c),
                        reference.cell(r, c),
                        "{strategy:?} cell ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graphs_build() {
        // No vertices, and vertices without edges, on every builder.
        for nv in [0usize, 5] {
            let input: EdgeList<Edge> = EdgeList::new(nv, vec![]).unwrap();
            for strategy in Strategy::ALL {
                let adj = CsrBuilder::new(strategy, EdgeDirection::Both).build(&input);
                assert_eq!(adj.num_vertices(), nv, "{strategy:?}");
                assert_eq!(adj.num_edges(), 0, "{strategy:?}");
                assert!((0..nv as u32).all(|v| adj.out().degree(v) == 0));
                let grid = GridBuilder::new(strategy).side(2).build(&input);
                assert!((0..2).all(|r| (0..2).all(|c| grid.cell(r, c).is_empty())));
                let ccsr = CcsrBuilder::new(strategy, EdgeDirection::Both).build(&input);
                assert_eq!(ccsr.num_vertices(), nv, "{strategy:?}");
                assert_eq!(ccsr.num_edges(), 0, "{strategy:?}");
            }
        }
    }

    #[test]
    fn sparse_giant_id_space_builds_in_time_linear_in_it() {
        // 23-bit keys are a three-level digit plan in which almost
        // every bucket of every level is empty.
        let nv = (1usize << 22) + 3;
        let edges: Vec<Edge> = (0..10u32)
            .map(|i| Edge::new((nv as u32 - 1) / 9 * (i % 10), (i * 419_431) % nv as u32))
            .collect();
        let input = EdgeList::new(nv, edges.clone()).unwrap();
        let reference = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both).build(&input);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        assert_eq!(adj.num_edges(), 10);
        for e in &edges {
            assert_eq!(adj.out().neighbors(e.src), reference.out().neighbors(e.src));
            assert_eq!(
                adj.incoming().neighbors(e.dst),
                reference.incoming().neighbors(e.dst)
            );
        }
        assert_eq!(degrees_of(adj.out()), degrees_of(reference.out()));
        assert_eq!(degrees_of(adj.incoming()), degrees_of(reference.incoming()));
    }

    #[test]
    fn dynamic_and_count_sort_preserve_input_order() {
        // Construction must be *stable*: each vertex's neighbor list
        // equals the input-order reference exactly (not just as a
        // multiset). Stability makes the layout a pure function of the
        // input, i.e. bit-identical at any thread count. The input is
        // large enough to take the parallel grouping paths and skewed
        // so a hub vertex collects a long cross-block list.
        let nv = 500usize;
        let mut state = 99u64;
        let mut edges = Vec::new();
        for i in 0..30_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = if i % 4 == 0 {
                7
            } else {
                ((state >> 33) % nv as u64) as u32
            };
            edges.push(Edge::new(src, i % nv as u32));
        }
        let input = EdgeList::new(nv, edges.clone()).unwrap();
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); nv];
        for e in &edges {
            reference[e.src as usize].push(e.dst);
        }
        for strategy in [Strategy::Dynamic, Strategy::CountSort] {
            let adj = CsrBuilder::new(strategy, EdgeDirection::Out).build(&input);
            for v in 0..nv as u32 {
                let got: Vec<u32> = adj.out().neighbors(v).iter().map(|e| e.dst).collect();
                assert_eq!(got, reference[v as usize], "{strategy:?} vertex {v}");
            }
        }
    }

    #[test]
    fn dynamic_grid_preserves_input_order_per_cell() {
        let nv = 256usize;
        let side = 4;
        let mut state = 5u64;
        let mut edges = Vec::new();
        for _ in 0..40_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((state >> 33) % nv as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dst = ((state >> 33) % nv as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        let input = EdgeList::new(nv, edges.clone()).unwrap();
        let grid = GridBuilder::new(Strategy::Dynamic).side(side).build(&input);
        let range_len = nv.div_ceil(side);
        let mut reference: Vec<Vec<(u32, u32)>> = vec![Vec::new(); side * side];
        for e in &edges {
            reference[e.src as usize / range_len * side + e.dst as usize / range_len]
                .push((e.src, e.dst));
        }
        for r in 0..side {
            for c in 0..side {
                let got: Vec<(u32, u32)> = grid.cell(r, c).iter().map(|e| (e.src, e.dst)).collect();
                assert_eq!(got, reference[r * side + c], "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn ccsr_roundtrips_sample_graph() {
        let input = sample_input();
        for strategy in Strategy::ALL {
            let ccsr = CcsrBuilder::new(strategy, EdgeDirection::Both).build(&input);
            assert_eq!(ccsr.num_vertices(), 4);
            assert_eq!(ccsr.num_edges(), 5);
            assert_eq!(ccsr.out().decode_neighbors(0).unwrap(), vec![1, 2, 3]);
            assert_eq!(ccsr.incoming().decode_neighbors(3).unwrap(), vec![0, 2]);
            ccsr.out().validate().unwrap();
            ccsr.incoming().validate().unwrap();
        }
    }

    #[test]
    fn ccsr_parallel_encoder_matches_sorted_csr() {
        // Large skewed multigraph (hub vertex, duplicates, self-loops)
        // so the parallel passes actually split work; every vertex's
        // decoded list must equal the sorted CSR's neighbor ids.
        let nv = 700usize;
        let mut state = 42u64;
        let mut edges = Vec::new();
        for i in 0..50_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = if i % 5 == 0 {
                3
            } else {
                ((state >> 33) % nv as u64) as u32
            };
            edges.push(Edge::new(src, ((state >> 11) % nv as u64) as u32));
        }
        let input = EdgeList::new(nv, edges).unwrap();
        let csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(&input);
        let ccsr = compress_sorted_csr(&csr);
        for v in 0..nv as u32 {
            let expect: Vec<u32> = csr.out().neighbors(v).iter().map(|e| e.dst).collect();
            assert_eq!(ccsr.out().decode_neighbors(v).unwrap(), expect, "out {v}");
            let expect: Vec<u32> = csr.incoming().neighbors(v).iter().map(|e| e.src).collect();
            assert_eq!(
                ccsr.incoming().decode_neighbors(v).unwrap(),
                expect,
                "in {v}"
            );
        }
        assert!(ccsr.resident_bytes() > 0);
    }

    #[test]
    fn ccsr_preserves_weights_in_csr_order() {
        use crate::types::WEdge;
        let edges = vec![
            WEdge::new(0, 2, 2.5),
            WEdge::new(0, 1, 1.5),
            WEdge::new(2, 0, 9.0),
            WEdge::new(0, 1, 7.0),
        ];
        let input = EdgeList::new(3, edges).unwrap();
        let ccsr = CcsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&input);
        assert_eq!(ccsr.out().decode_neighbors(0).unwrap(), vec![1, 1, 2]);
        // Weights follow their edges through the neighbor sort, which
        // promises no order among the duplicate (0→1) edges.
        let weights = ccsr.out().weights_of(0);
        assert!(weights[..2] == [1.5, 7.0] || weights[..2] == [7.0, 1.5]);
        assert_eq!(weights[2], 2.5);
        assert_eq!(ccsr.out().weights_of(2), &[9.0]);
    }

    #[test]
    fn neighbor_sort_of_a_hub_is_unordered_within_an_id_but_deterministic() {
        // 200 parallel edges from vertex 0 to neighbors {1, 2, 3},
        // weight = input position. The neighbor sort is unstable, so
        // within a neighbor id the weights need not come out in input
        // order; what holds is that none is lost, and that the order is
        // a function of the vertex's input-order list alone — every
        // (stable) builder at every pool width produces the same one.
        use crate::types::WEdge;
        let edges: Vec<WEdge> = (0..200u32)
            .map(|i| WEdge::new(0, 1 + (i * 7 + i / 3) % 3, i as f32))
            .collect();
        let input = EdgeList::new(4, edges.clone()).unwrap();
        let mut builds = Vec::new();
        for strategy in Strategy::ALL {
            for threads in [1, 2, 4] {
                let pool = egraph_parallel::ThreadPool::new(threads);
                let ccsr = egraph_parallel::with_pool(&pool, || {
                    CcsrBuilder::new(strategy, EdgeDirection::Out).build(&input)
                });
                let ids = ccsr.out().decode_neighbors(0).unwrap();
                assert!(ids.windows(2).all(|w| w[0] <= w[1]));
                builds.push((ids, ccsr.out().weights_of(0).to_vec()));
            }
        }
        let (ids, weights) = &builds[0];
        for id in 1..=3u32 {
            let mut got: Vec<u32> = ids
                .iter()
                .zip(weights)
                .filter(|(&n, _)| n == id)
                .map(|(_, &w)| w as u32)
                .collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..200).filter(|&i| edges[i as usize].dst == id).collect();
            assert_eq!(got, want, "weights of neighbor {id}");
        }
        assert!(builds.iter().all(|b| b == &builds[0]));
    }

    #[test]
    fn large_random_graph_all_strategies_equal() {
        // Deterministic pseudo-random multigraph with self-loops and
        // duplicates; every strategy is stable, so every strategy must
        // produce identical neighbor lists, order included.
        let nv = 1000usize;
        let mut state = 12345u64;
        let mut edges = Vec::new();
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((state >> 33) % nv as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dst = ((state >> 33) % nv as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        let input = EdgeList::new(nv, edges).unwrap();
        let reference = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        for strategy in [Strategy::CountSort, Strategy::Dynamic] {
            let adj = CsrBuilder::new(strategy, EdgeDirection::Both).build(&input);
            for v in 0..nv as u32 {
                assert_eq!(
                    adj.out().neighbors(v),
                    reference.out().neighbors(v),
                    "{strategy:?} out {v}"
                );
                assert_eq!(
                    adj.incoming().neighbors(v),
                    reference.incoming().neighbors(v),
                    "{strategy:?} in {v}"
                );
            }
        }
    }
}
