//! Offline replays of the kernels' memory-access order, the input of
//! the LLC model ([`crate::llc`]). Nothing in the product is
//! instrumented: each function here walks a layout in the order the
//! corresponding code touches memory and hands every access to a
//! [`MemProbe`], serially — so a replay prints the same numbers at every
//! pool width.
//!
//! * **Construction (Table 2's "LLC misses" column).** The three
//!   adjacency-list building techniques: sequential input scans,
//!   per-vertex scattered appends (dynamic), random counter increments
//!   and offset scatters (count sort), or the radix partition's passes
//!   (sequential bucket streams through a cache-resident cursor row).
//!   The paper's explanation (§3.3) is that radix sort wins *because* of
//!   this difference, so the replay makes the explanation measurable.
//! * **Push rounds (Table 4 and §5's grid ablations).** The engine's two
//!   push drivers: `vertex_push` goes over a CSR direction in frontier
//!   order — the edge at its CSR offset, then the source's metadata,
//!   then the destination's; `scan_push` streams an [`EdgeStream`]'s
//!   runs — the edge, then the source, then the destination only for an
//!   active source. Around them sit the rounds of `bfs/*/push`
//!   ([`replay_bfs`], over a serial BFS that yields the engine's
//!   per-round frontiers) and the all-active PageRank round
//!   ([`replay_pagerank_round`]), each with its algorithm's metadata
//!   stride (§5.2).

use crate::llc::probe::regions;
use crate::llc::{AccessKind, MemProbe};
use egraph_core::layout::{Adjacency, EdgeStream, Grid, Storage};
use egraph_core::types::{EdgeList, EdgeRecord, VertexId};

/// BFS metadata footprint: one byte of visited state per vertex ("a
/// cache line only contains the metadata associated with very few
/// vertices (64 in the case of BFS)", §5.2).
pub(crate) const BFS_STRIDE: u64 = 1;

/// PageRank metadata footprint: rank + degree + accumulator ≈ 12 bytes
/// ("a cache line can fit at most 6 vertices for Pagerank", §5.2 —
/// 64 / 6 ≈ 11).
///
/// The replay models the paper's one shared accumulator per vertex,
/// not the product's: `SyncMode::Atomics` push on a layout that does
/// not own its destinations adds into one `f32` stripe per worker and
/// sums the stripes after the round (DESIGN.md §9), which this serial
/// replay of the paper's access order leaves out.
pub(crate) const PAGERANK_STRIDE: u64 = 12;

/// A layout whose push rounds the replay reproduces: the three of
/// Table 4, each to be built as `PreparedGraph` builds it.
#[derive(Debug, Clone, Copy)]
pub enum ReplayLayout<'a, E: EdgeRecord> {
    /// A CSR out-direction (`bfs/adj/push`, `pagerank/adj/push`).
    Adj(&'a Adjacency<E>),
    /// The edge array, streamed in stream order.
    Edges(&'a EdgeList<E>),
    /// The grid by columns — the cut its push rounds run on.
    Grid(&'a Grid<E>),
}

impl<E: EdgeRecord> ReplayLayout<'_, E> {
    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> usize {
        match self {
            Self::Adj(out) => out.num_vertices(),
            Self::Edges(edges) => edges.num_vertices(),
            Self::Grid(grid) => grid.num_vertices(),
        }
    }

    /// Calls `visit(i, e, active)` for every edge a push round from
    /// `frontier` examines, in the order the layout's driver examines
    /// them on one worker: `i` is the edge's index in the layout's edge
    /// storage, `active` whether its source is in `frontier`.
    ///
    /// # Panics
    ///
    /// Panics on an adjacency without CSR storage (a `Dynamic`-built
    /// list has no edge offsets to address).
    fn for_each_examined(&self, frontier: &[VertexId], mut visit: impl FnMut(u64, &E, bool)) {
        match self {
            Self::Adj(out) => {
                let Storage::Csr { offsets, edges } = out.storage() else {
                    panic!("the push replay addresses edges by their CSR offset")
                };
                for &v in frontier {
                    let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
                    for (i, e) in (lo..).zip(&edges[lo as usize..hi as usize]) {
                        visit(i, e, true);
                    }
                }
            }
            Self::Edges(edges) => scan(*edges, frontier, visit),
            Self::Grid(grid) => scan(*grid, frontier, visit),
        }
    }
}

/// [`ReplayLayout::for_each_examined`] of a streamed layout: every edge,
/// in the order of `runs(0..num_units)`.
fn scan<E: EdgeRecord, S: EdgeStream<E>>(
    stream: &S,
    frontier: &[VertexId],
    mut visit: impl FnMut(u64, &E, bool),
) {
    let mut active = vec![false; stream.num_vertices()];
    for &v in frontier {
        active[v as usize] = true;
    }
    for (base, run) in stream.runs(0..stream.num_units()) {
        for (i, e) in (base..).zip(run) {
            visit(i, e, active[e.src() as usize]);
        }
    }
}

/// Replays one push round from `frontier` (in the order given) with
/// `stride` bytes of metadata per vertex: per examined edge the edge
/// itself, then its source's metadata, then — where the source is in
/// the frontier — its destination's.
fn replay_push_round<E: EdgeRecord, P: MemProbe>(
    layout: &ReplayLayout<'_, E>,
    frontier: &[VertexId],
    stride: u64,
    probe: &P,
) {
    let esize = std::mem::size_of::<E>() as u64;
    layout.for_each_examined(frontier, |i, e, active| {
        probe.touch(AccessKind::Edge, regions::EDGES + i * esize);
        probe.touch(
            AccessKind::SrcMeta,
            regions::SRC_META + e.src() as u64 * stride,
        );
        if active {
            probe.touch(
                AccessKind::DstMeta,
                regions::DST_META + e.dst() as u64 * stride,
            );
        }
    });
}

/// The frontiers of `bfs/{layout}/push` from `root`, one per round. A
/// round's frontier lists the vertices the previous round discovered in
/// discovery order — the order the engine collects a sparse frontier in
/// (by chunk, whichever worker ran it), so on the CSR it is the order
/// the next round visits them.
fn bfs_frontiers<E: EdgeRecord>(
    layout: &ReplayLayout<'_, E>,
    root: VertexId,
) -> Vec<Vec<VertexId>> {
    let mut seen = vec![false; layout.num_vertices()];
    seen[root as usize] = true;
    let (mut frontiers, mut frontier) = (Vec::new(), vec![root]);
    while !frontier.is_empty() {
        let mut next = Vec::new();
        layout.for_each_examined(&frontier, |_, e, active| {
            if active && !std::mem::replace(&mut seen[e.dst() as usize], true) {
                next.push(e.dst());
            }
        });
        frontiers.push(std::mem::replace(&mut frontier, next));
    }
    frontiers
}

/// Replays a whole `bfs/{layout}/push` run from `root`.
pub fn replay_bfs<E: EdgeRecord, P: MemProbe>(
    layout: &ReplayLayout<'_, E>,
    root: VertexId,
    probe: &P,
) {
    for frontier in bfs_frontiers(layout, root) {
        replay_push_round(layout, &frontier, BFS_STRIDE, probe);
    }
}

/// Replays one power iteration of `pagerank/{layout}/push`: a push
/// round from every vertex.
pub fn replay_pagerank_round<E: EdgeRecord, P: MemProbe>(layout: &ReplayLayout<'_, E>, probe: &P) {
    let all: Vec<VertexId> = (0..layout.num_vertices() as VertexId).collect();
    replay_push_round(layout, &all, PAGERANK_STRIDE, probe);
}

/// Replays the dynamic per-vertex building pass: a sequential input
/// scan plus one append (and occasional reallocation copy) per edge
/// into per-vertex arrays scattered over the heap.
pub fn trace_dynamic<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    let esize = std::mem::size_of::<E>() as u64;
    let mut lens = vec![0u32; nv];
    let heap_base = |v: u32| -> u64 {
        // Per-vertex arrays live at hashed heap locations.
        regions::DST_META + (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 36)
    };
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        let v = e.src();
        let len = lens[v as usize];
        // Read the vertex's length/capacity header, then append.
        probe.touch(AccessKind::SrcMeta, regions::SRC_META + v as u64 * 16);
        probe.touch(AccessKind::DstMeta, heap_base(v) + len as u64 * esize);
        // Reallocation: growing past a power of two copies the array
        // to a fresh location ("32 million reallocations for an
        // RMAT26 graph").
        if len > 0 && len.is_power_of_two() {
            let new_base = heap_base(v) ^ ((len as u64) << 20);
            for k in 0..len as u64 {
                probe.touch(AccessKind::DstMeta, heap_base(v) + k * esize);
                probe.touch(AccessKind::DstMeta, new_base + k * esize);
            }
        }
        lens[v as usize] = len + 1;
    }
}

/// Replays count sort: a counting pass with random per-vertex counter
/// increments, a sequential prefix pass, and a scatter pass whose
/// writes "jump between distant positions in the array".
pub fn trace_count_sort<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    let esize = std::mem::size_of::<E>() as u64;
    // Pass 1: count degrees.
    let mut counts = vec![0u64; nv + 1];
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        probe.touch(AccessKind::SrcMeta, regions::INDEX + e.src() as u64 * 8);
        counts[e.src() as usize] += 1;
    }
    // Prefix sum: sequential scan of the counter array.
    let mut run = 0u64;
    for (v, c) in counts.iter_mut().enumerate() {
        probe.touch(AccessKind::SrcMeta, regions::INDEX + v as u64 * 8);
        let cur = *c;
        *c = run;
        run += cur;
    }
    // Pass 2: scatter each edge to its final offset.
    for (i, e) in edges.iter().enumerate() {
        probe.touch(AccessKind::Edge, regions::EDGES + i as u64 * esize);
        let v = e.src() as usize;
        probe.touch(AccessKind::SrcMeta, regions::INDEX + v as u64 * 8);
        let pos = counts[v];
        counts[v] += 1;
        probe.touch(AccessKind::DstMeta, regions::DST_META + pos * esize);
    }
}

/// Replays the radix partition the builders run
/// (`egraph_sort::radix_partition_by_key`, one worker's view), level by
/// level with the kernel's own [`egraph_sort::digit_plan`]: level 1
/// reads the input twice (histogram, scatter) and writes one sequential
/// stream per bucket into the output; every later level takes one
/// bucket of the output at a time — copy it to the staging buffer,
/// histogram the copy, scatter it back over the bucket's own range.
/// The cursor row and the staging buffer are reused by every bucket, so
/// they stay cache-resident; that, and the sequential streams, is the
/// locality that makes radix the fastest builder (Table 2).
pub fn trace_radix_sort<E: EdgeRecord, P: MemProbe>(edges: &[E], nv: usize, probe: &P) {
    /// The staging buffer, apart from the cursor row at `SRC_META`.
    const STAGE: u64 = regions::SRC_META + (1 << 32);
    let esize = std::mem::size_of::<E>() as u64;
    let plan = egraph_sort::digit_plan(egraph_sort::key_bits(nv));
    let mut keys: Vec<u32> = edges.iter().map(|e| e.src()).collect();
    let mut bounds = vec![0usize, keys.len()];
    let mut shift: u32 = plan.iter().sum();
    for (level, &bits) in plan.iter().enumerate() {
        shift -= bits;
        let digit = |key: u32| ((key >> shift) & ((1 << bits) - 1)) as usize;
        let cursor_at = |d: usize| regions::SRC_META + d as u64 * 8;
        let out_at = |k: usize| regions::DST_META + k as u64 * esize;
        // Level 1 reads the input, later levels the staged bucket.
        let src_at = |k: usize| match level {
            0 => regions::EDGES + k as u64 * esize,
            _ => STAGE + k as u64 * esize,
        };
        let mut partitioned = keys.clone();
        let mut next = vec![0usize];
        for range in bounds.windows(2) {
            let (lo, bucket) = (range[0], &keys[range[0]..range[1]]);
            if level > 0 {
                for k in 0..bucket.len() {
                    probe.touch(AccessKind::Edge, out_at(lo + k));
                    probe.touch(AccessKind::Edge, src_at(k));
                }
            }
            let mut cursors = vec![0usize; 1 << bits];
            for (k, &key) in bucket.iter().enumerate() {
                probe.touch(AccessKind::Edge, src_at(k));
                probe.touch(AccessKind::SrcMeta, cursor_at(digit(key)));
                cursors[digit(key)] += 1;
            }
            let mut start = lo;
            for (d, cursor) in cursors.iter_mut().enumerate() {
                probe.touch(AccessKind::SrcMeta, cursor_at(d));
                start += std::mem::replace(cursor, start);
                next.push(start);
            }
            for (k, &key) in bucket.iter().enumerate() {
                probe.touch(AccessKind::Edge, src_at(k));
                probe.touch(AccessKind::SrcMeta, cursor_at(digit(key)));
                probe.touch(AccessKind::DstMeta, out_at(cursors[digit(key)]));
                partitioned[cursors[digit(key)]] = key;
                cursors[digit(key)] += 1;
            }
        }
        keys = partitioned;
        bounds = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc;
    use crate::llc::{CacheConfig, LlcProbe};
    use egraph_core::algo::pagerank::PagerankConfig;
    use egraph_core::exec::ExecCtx;
    use egraph_core::layout::{EdgeDirection, VertexLayout};
    use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use egraph_core::telemetry::{TraceIteration, TraceRecorder};
    use egraph_core::types::Edge;
    use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantRun};

    /// The graphs the replay is pinned to the product on, each with a
    /// BFS root.
    fn corpus() -> Vec<(&'static str, EdgeList<Edge>, VertexId)> {
        let rmat = egraph_graphgen::rmat(9, 8, 5);
        let root = crate::graphs::best_root(&rmat);
        let spokes = (1..33).map(|v| Edge::new(0, v));
        let star = spokes.clone().chain(spokes.map(|e| Edge::new(e.dst, 0)));
        vec![
            ("rmat", rmat, root),
            ("ordered road", egraph_graphgen::road_like(8, 16), 0),
            ("star", EdgeList::new(33, star.collect()).unwrap(), 0),
            ("edgeless", EdgeList::new(6, Vec::new()).unwrap(), 2),
            ("single vertex", EdgeList::new(1, Vec::new()).unwrap(), 0),
        ]
    }

    /// Runs `spec` on `graph` under a recorder; returns the run and its
    /// iteration records.
    fn traced(
        spec: &str,
        graph: &PreparedGraph<'_, Edge>,
        params: &RunParams<'_>,
    ) -> (VariantRun, Vec<TraceIteration>) {
        let recorder = TraceRecorder::new();
        let ctx = ExecCtx::new(None).recorder(&recorder);
        let run = run_variant(&spec.parse().unwrap(), &ctx, graph, params).unwrap();
        (run, recorder.iterations())
    }

    /// `[Edge, SrcMeta, DstMeta]` accesses of a replay: an LLC probe
    /// counts every touch.
    fn touches(replay: impl FnOnce(&LlcProbe)) -> [u64; 3] {
        let probe = LlcProbe::new(CacheConfig::tiny(4096, 4));
        replay(&probe);
        probe.report().per_kind.map(|s| s.accesses)
    }

    #[test]
    fn the_replay_runs_the_rounds_the_product_runs() {
        for (name, graph, root) in corpus() {
            let side = graph.num_vertices().min(4);
            let prepared = PreparedGraph::new(&graph)
                .strategy(Strategy::RadixSort)
                .side(side);
            let csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
            let grid = GridBuilder::new(Strategy::RadixSort)
                .side(side)
                .build(&graph);
            let degrees = graph.out_degrees();
            let bfs_params = RunParams {
                root,
                ..RunParams::default()
            };
            let pr_params = RunParams {
                pagerank: PagerankConfig {
                    iterations: 1,
                    ..PagerankConfig::default()
                },
                ..RunParams::default()
            };
            for (cut, layout) in [
                ("adj", ReplayLayout::Adj(csr.out())),
                ("edge", ReplayLayout::Edges(&graph)),
                ("grid", ReplayLayout::Grid(&grid)),
            ] {
                let (run, rounds) = traced(&format!("bfs/{cut}/push"), &prepared, &bfs_params);
                let frontiers = bfs_frontiers(&layout, root);
                assert_eq!(frontiers.len(), rounds.len(), "{name}: bfs/{cut}");
                let mut level = vec![u32::MAX; graph.num_vertices()];
                for (depth, (frontier, round)) in frontiers.iter().zip(&rounds).enumerate() {
                    let at = format!("{name}: bfs/{cut} round {depth}");
                    assert_eq!(round.step, depth, "{at}");
                    assert_eq!(frontier.len(), round.stat.frontier_size, "{at}");
                    let [edge, src, dst] =
                        touches(|p| replay_push_round(&layout, frontier, BFS_STRIDE, p));
                    let scanned = round.stat.edges_scanned as u64;
                    assert_eq!((edge, src), (scanned, scanned), "{at}");
                    let out: u64 = frontier.iter().map(|&v| degrees[v as usize]).sum();
                    assert_eq!(dst, out, "{at}");
                    for &v in frontier {
                        level[v as usize] = depth as u32;
                    }
                }
                assert_eq!(
                    level,
                    run.output.as_bfs().unwrap().level,
                    "{name}: bfs/{cut}"
                );

                let (_, rounds) = traced(&format!("pagerank/{cut}/push"), &prepared, &pr_params);
                let [round] = &rounds[..] else {
                    panic!("{name}: pagerank/{cut} ran {} rounds", rounds.len())
                };
                let scanned = round.stat.edges_scanned as u64;
                assert_eq!(scanned, graph.num_edges() as u64);
                let counts = touches(|p| replay_pagerank_round(&layout, p));
                assert_eq!(counts, [scanned; 3], "{name}: pagerank/{cut}");
            }
        }
    }

    #[test]
    fn replay_reproduces_grid_cache_advantage() {
        // Table 4's direction: the grid's PageRank miss ratio is lower
        // than the edge array's.
        let graph = egraph_graphgen::rmat(13, 16, 21);
        let grid = GridBuilder::new(Strategy::RadixSort).side(16).build(&graph);
        let miss_ratio = |layout: ReplayLayout<'_, Edge>| {
            // A small simulated LLC so the metadata does not fit.
            let probe = LlcProbe::new(CacheConfig::tiny(16 * 1024, 16));
            replay_pagerank_round(&layout, &probe);
            probe.report().overall_miss_ratio()
        };
        let edge_miss = miss_ratio(ReplayLayout::Edges(&graph));
        let grid_miss = miss_ratio(ReplayLayout::Grid(&grid));
        assert!(
            grid_miss < 0.8 * edge_miss,
            "grid {grid_miss} should clearly beat edge array {edge_miss}"
        );
    }

    fn skewed_edges(nv: usize, ne: usize) -> Vec<Edge> {
        let mut state = 11u64;
        (0..ne)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Square the uniform sample for mild skew.
                let r = ((state >> 33) as f64 / (1u64 << 31) as f64).powi(2);
                let src = (r * nv as f64) as u32 % nv as u32;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dst = ((state >> 33) % nv as u64) as u32;
                Edge::new(src, dst)
            })
            .collect()
    }

    #[test]
    fn radix_has_lowest_miss_ratio() {
        // The Table 2 ordering: radix << count, radix << dynamic.
        let nv = 1 << 14;
        let edges = skewed_edges(nv, 1 << 18);
        let ratios: Vec<f64> = [
            trace_dynamic::<Edge, crate::llc::HierarchyProbe>
                as fn(&[Edge], usize, &crate::llc::HierarchyProbe),
            trace_count_sort::<Edge, crate::llc::HierarchyProbe>,
            trace_radix_sort::<Edge, crate::llc::HierarchyProbe>,
        ]
        .iter()
        .map(|f| {
            let probe = llc::probe_for(nv, 8);
            f(&edges, nv, &probe);
            probe.report().overall_miss_ratio()
        })
        .collect();
        let (dynamic, count, radix) = (ratios[0], ratios[1], ratios[2]);
        assert!(radix < 0.6 * dynamic, "radix {radix} vs dynamic {dynamic}");
        assert!(radix < 0.6 * count, "radix {radix} vs count {count}");
    }
}
