//! Multi-source wave kernels with bit-packed frontiers.
//!
//! One wave answers up to [`MAX_WAVE`] point queries with a *single*
//! traversal: every vertex carries one `u64` lane word, one bit per
//! query, so the per-round edge scan (the dominant cost on large
//! graphs) is shared by the whole wave — the cache-sharing thesis of
//! the fork-processing-patterns line of work applied to the paper's
//! push kernels.
//!
//! Determinism: the per-lane results are bit-identical to the
//! single-query kernels. BFS levels are exact hop distances (the round
//! a bit first reaches a vertex), independent of scan order; SSSP
//! distances converge to the unique least fixpoint of the relaxation
//! equations under `f32` `fetch_min`, which is order-independent. The
//! conformance tests in this module assert both properties.

use std::sync::atomic::{AtomicU64, Ordering};

use egraph_parallel::atomicf::AtomicF32;
use egraph_parallel::{parallel_collect, parallel_for, WorkerLocal};

use crate::exec::ExecCtx;
use crate::layout::{Grid, NeighborAccess};
use crate::telemetry::Recorder;
use crate::types::{EdgeRecord, VertexId};
use crate::util::UnsyncSlice;

/// Lane capacity of one wave: the width of the frontier word.
pub const MAX_WAVE: usize = 64;

/// Chunk grain for the per-round scans.
const GRAIN: usize = 256;

/// Telemetry counter: wave rounds executed.
pub const WAVE_ROUNDS: &str = "serve.wave_rounds";
/// Telemetry counter: edges examined across all wave rounds.
pub const WAVE_EDGES: &str = "serve.wave_edges";

/// Multi-source BFS over any out-[`NeighborAccess`] (uncompressed CSR
/// or ccsr): one lane per source, levels truncated at `max_depth`
/// rounds (pass `u32::MAX` for a full traversal). Returns one level
/// vector per source, `u32::MAX` marking vertices not reached within
/// the depth bound.
///
/// # Panics
///
/// Panics if `sources` is empty, longer than [`MAX_WAVE`], or contains
/// an out-of-range vertex — the serve engine validates queries before
/// forming waves.
pub fn multi_bfs<E: EdgeRecord, A: NeighborAccess<E>>(
    out: &A,
    sources: &[VertexId],
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<u32>> {
    let nv = out.num_vertices();
    let lanes = sources.len();
    assert!(
        (1..=MAX_WAVE).contains(&lanes),
        "wave size {lanes} outside 1..={MAX_WAVE}"
    );
    let mut levels = vec![u32::MAX; nv * lanes];
    let recorder = ctx.context();
    let recorder = recorder.recorder;

    {
        let visited: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
        let next: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
        let mut frontier_words: Vec<u64> = vec![0; nv];
        let level_cells = UnsyncSlice::new(&mut levels);

        // Seed the lanes. The serve engine passes distinct sources (its
        // duplicate queries ride one lane); a direct caller's duplicates
        // coexist, each lane tracking its own bit.
        let mut active: Vec<VertexId> = Vec::with_capacity(lanes);
        for (q, &s) in sources.iter().enumerate() {
            let v = s as usize;
            assert!(v < nv, "source {s} out of range ({nv} vertices)");
            // SAFETY: seeding runs before any parallel region.
            unsafe { level_cells.write(v * lanes + q, 0) };
            if visited[v].fetch_or(1 << q, Ordering::Relaxed) == 0 {
                active.push(s);
            }
            frontier_words[v] |= 1 << q;
        }

        let mut depth = 0u32;
        let mut edges_examined = 0u64;
        let mut rounds = 0u64;
        while !active.is_empty() && depth < max_depth {
            depth += 1;
            rounds += 1;
            if recorder.enabled() {
                edges_examined += active.iter().map(|&v| out.degree(v) as u64).sum::<u64>();
            }
            let frontier = &frontier_words;
            let locals: WorkerLocal<Vec<VertexId>> = WorkerLocal::new(Vec::new);
            parallel_for(0..active.len(), GRAIN, |range| {
                let mut buf = locals.borrow();
                for i in range {
                    let u = active[i] as usize;
                    let word = frontier[u];
                    out.for_each_span(u as VertexId, |span| {
                        for e in span {
                            let v = e.dst() as usize;
                            let prop = word & !visited[v].load(Ordering::Relaxed);
                            if prop == 0 {
                                continue;
                            }
                            let old = visited[v].fetch_or(prop, Ordering::Relaxed);
                            let mut won = prop & !old;
                            if won == 0 {
                                continue;
                            }
                            if next[v].fetch_or(won, Ordering::Relaxed) == 0 {
                                buf.push(v as VertexId);
                            }
                            while won != 0 {
                                let q = won.trailing_zeros() as usize;
                                // SAFETY: `fetch_or` on `visited[v]`
                                // admits exactly one winner per
                                // (vertex, lane) bit, so no other
                                // thread writes this element.
                                unsafe { level_cells.write(v * lanes + q, depth) };
                                won &= won - 1;
                            }
                        }
                        span.len()
                    });
                }
            });
            active = parallel_collect(locals);
            for &v in &active {
                let v = v as usize;
                frontier_words[v] = next[v].swap(0, Ordering::Relaxed);
            }
        }
        if recorder.enabled() {
            recorder.record_counter(WAVE_ROUNDS, rounds);
            recorder.record_counter(WAVE_EDGES, edges_examined);
        }
    }

    demux(&levels, nv, lanes)
}

/// Multi-source SSSP over any out-[`NeighborAccess`]: label-correcting
/// relaxation with per-lane `f32` `fetch_min`, one lane per source.
/// Returns one distance vector per source (`f32::INFINITY` for
/// unreachable vertices), bit-identical to the single-source kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`multi_bfs`].
pub fn multi_sssp<E: EdgeRecord, A: NeighborAccess<E>>(
    out: &A,
    sources: &[VertexId],
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<f32>> {
    let nv = out.num_vertices();
    let lanes = sources.len();
    assert!(
        (1..=MAX_WAVE).contains(&lanes),
        "wave size {lanes} outside 1..={MAX_WAVE}"
    );
    let recorder = ctx.context();
    let recorder = recorder.recorder;

    let dist: Vec<AtomicF32> = (0..nv * lanes)
        .map(|_| AtomicF32::new(f32::INFINITY))
        .collect();
    let next: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
    let mut frontier_words: Vec<u64> = vec![0; nv];

    let mut active: Vec<VertexId> = Vec::with_capacity(lanes);
    for (q, &s) in sources.iter().enumerate() {
        let v = s as usize;
        assert!(v < nv, "source {s} out of range ({nv} vertices)");
        dist[v * lanes + q].store(0.0, Ordering::Relaxed);
        if frontier_words[v] == 0 {
            active.push(s);
        }
        frontier_words[v] |= 1 << q;
    }

    let mut edges_examined = 0u64;
    let mut rounds = 0u64;
    while !active.is_empty() {
        rounds += 1;
        if recorder.enabled() {
            edges_examined += active.iter().map(|&v| out.degree(v) as u64).sum::<u64>();
        }
        let frontier = &frontier_words;
        let dist_ref = &dist;
        let locals: WorkerLocal<Vec<VertexId>> = WorkerLocal::new(Vec::new);
        parallel_for(0..active.len(), GRAIN, |range| {
            let mut buf = locals.borrow();
            let mut du = [0.0f32; MAX_WAVE];
            for i in range {
                let u = active[i] as usize;
                let mut word = frontier[u];
                // Snapshot the active lanes' distances once per source
                // vertex; the edge loop below reuses them.
                let mut w = word;
                while w != 0 {
                    let q = w.trailing_zeros() as usize;
                    du[q] = dist_ref[u * lanes + q].load(Ordering::Relaxed);
                    w &= w - 1;
                }
                out.for_each_span(u as VertexId, |span| {
                    for e in span {
                        let v = e.dst() as usize;
                        let weight = e.weight();
                        word = frontier[u];
                        let mut improved = 0u64;
                        let mut w = word;
                        while w != 0 {
                            let q = w.trailing_zeros() as usize;
                            let nd = du[q] + weight;
                            if dist_ref[v * lanes + q].fetch_min(nd, Ordering::Relaxed) {
                                improved |= 1 << q;
                            }
                            w &= w - 1;
                        }
                        if improved != 0 && next[v].fetch_or(improved, Ordering::Relaxed) == 0 {
                            buf.push(v as VertexId);
                        }
                    }
                    span.len()
                });
            }
        });
        active = parallel_collect(locals);
        for &v in &active {
            let v = v as usize;
            frontier_words[v] = next[v].swap(0, Ordering::Relaxed);
        }
    }
    if recorder.enabled() {
        recorder.record_counter(WAVE_ROUNDS, rounds);
        recorder.record_counter(WAVE_EDGES, edges_examined);
    }

    let flat: Vec<f32> = dist
        .into_iter()
        .map(|d| d.load(Ordering::Relaxed))
        .collect();
    (0..lanes)
        .map(|q| (0..nv).map(|v| flat[v * lanes + q]).collect())
        .collect()
}

/// Multi-source BFS over a grid layout. The grid has no per-vertex
/// neighbor index, so every round is a full cell scan that only
/// propagates from frontier sources. A level is the round a lane's bit
/// first reaches a vertex — scan-order independent — so the per-lane
/// results are bit-identical to [`multi_bfs`] on an adjacency.
///
/// # Panics
///
/// Panics under the same conditions as [`multi_bfs`].
pub fn multi_bfs_grid<E: EdgeRecord>(
    grid: &Grid<E>,
    sources: &[VertexId],
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<u32>> {
    let nv = grid.num_vertices();
    let lanes = sources.len();
    assert!(
        (1..=MAX_WAVE).contains(&lanes),
        "wave size {lanes} outside 1..={MAX_WAVE}"
    );
    let mut levels = vec![u32::MAX; nv * lanes];
    let recorder = ctx.context();
    let recorder = recorder.recorder;

    {
        let visited: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
        let next: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
        let mut frontier_words: Vec<u64> = vec![0; nv];
        let level_cells = UnsyncSlice::new(&mut levels);

        let mut active: Vec<VertexId> = Vec::with_capacity(lanes);
        for (q, &s) in sources.iter().enumerate() {
            let v = s as usize;
            assert!(v < nv, "source {s} out of range ({nv} vertices)");
            // SAFETY: seeding runs before any parallel region.
            unsafe { level_cells.write(v * lanes + q, 0) };
            if visited[v].fetch_or(1 << q, Ordering::Relaxed) == 0 {
                active.push(s);
            }
            frontier_words[v] |= 1 << q;
        }

        let side = grid.side();
        let num_cells = side * side;
        let mut depth = 0u32;
        let mut edges_examined = 0u64;
        let mut rounds = 0u64;
        while !active.is_empty() && depth < max_depth {
            depth += 1;
            rounds += 1;
            if recorder.enabled() {
                edges_examined += grid.num_edges() as u64;
            }
            let frontier = &frontier_words;
            let locals: WorkerLocal<Vec<VertexId>> = WorkerLocal::new(Vec::new);
            parallel_for(0..num_cells, 1, |cells| {
                let mut buf = locals.borrow();
                for c in cells {
                    for e in grid.cell(c / side, c % side) {
                        let word = frontier[e.src() as usize];
                        if word == 0 {
                            continue;
                        }
                        let v = e.dst() as usize;
                        let prop = word & !visited[v].load(Ordering::Relaxed);
                        if prop == 0 {
                            continue;
                        }
                        let old = visited[v].fetch_or(prop, Ordering::Relaxed);
                        let mut won = prop & !old;
                        if won == 0 {
                            continue;
                        }
                        if next[v].fetch_or(won, Ordering::Relaxed) == 0 {
                            buf.push(v as VertexId);
                        }
                        while won != 0 {
                            let q = won.trailing_zeros() as usize;
                            // SAFETY: `fetch_or` on `visited[v]` admits
                            // exactly one winner per (vertex, lane)
                            // bit, so no other thread writes this
                            // element.
                            unsafe { level_cells.write(v * lanes + q, depth) };
                            won &= won - 1;
                        }
                    }
                }
            });
            for &v in &active {
                frontier_words[v as usize] = 0;
            }
            active = parallel_collect(locals);
            for &v in &active {
                let v = v as usize;
                frontier_words[v] = next[v].swap(0, Ordering::Relaxed);
            }
        }
        if recorder.enabled() {
            recorder.record_counter(WAVE_ROUNDS, rounds);
            recorder.record_counter(WAVE_EDGES, edges_examined);
        }
    }

    demux(&levels, nv, lanes)
}

/// Multi-source SSSP over a grid layout: full cell scans per round,
/// per-lane `f32` `fetch_min` relaxation. Distances converge to the
/// same least fixpoint as [`multi_sssp`], so per-lane results are
/// bit-identical to the adjacency kernels.
///
/// # Panics
///
/// Panics under the same conditions as [`multi_bfs`].
pub fn multi_sssp_grid<E: EdgeRecord>(
    grid: &Grid<E>,
    sources: &[VertexId],
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<f32>> {
    let nv = grid.num_vertices();
    let lanes = sources.len();
    assert!(
        (1..=MAX_WAVE).contains(&lanes),
        "wave size {lanes} outside 1..={MAX_WAVE}"
    );
    let recorder = ctx.context();
    let recorder = recorder.recorder;

    let dist: Vec<AtomicF32> = (0..nv * lanes)
        .map(|_| AtomicF32::new(f32::INFINITY))
        .collect();
    let next: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
    let mut frontier_words: Vec<u64> = vec![0; nv];

    let mut active: Vec<VertexId> = Vec::with_capacity(lanes);
    for (q, &s) in sources.iter().enumerate() {
        let v = s as usize;
        assert!(v < nv, "source {s} out of range ({nv} vertices)");
        dist[v * lanes + q].store(0.0, Ordering::Relaxed);
        if frontier_words[v] == 0 {
            active.push(s);
        }
        frontier_words[v] |= 1 << q;
    }

    let side = grid.side();
    let num_cells = side * side;
    let mut edges_examined = 0u64;
    let mut rounds = 0u64;
    while !active.is_empty() {
        rounds += 1;
        if recorder.enabled() {
            edges_examined += grid.num_edges() as u64;
        }
        let frontier = &frontier_words;
        let dist_ref = &dist;
        let locals: WorkerLocal<Vec<VertexId>> = WorkerLocal::new(Vec::new);
        parallel_for(0..num_cells, 1, |cells| {
            let mut buf = locals.borrow();
            for c in cells {
                for e in grid.cell(c / side, c % side) {
                    let u = e.src() as usize;
                    let word = frontier[u];
                    if word == 0 {
                        continue;
                    }
                    let v = e.dst() as usize;
                    let weight = e.weight();
                    let mut improved = 0u64;
                    let mut w = word;
                    while w != 0 {
                        let q = w.trailing_zeros() as usize;
                        let nd = dist_ref[u * lanes + q].load(Ordering::Relaxed) + weight;
                        if dist_ref[v * lanes + q].fetch_min(nd, Ordering::Relaxed) {
                            improved |= 1 << q;
                        }
                        w &= w - 1;
                    }
                    if improved != 0 && next[v].fetch_or(improved, Ordering::Relaxed) == 0 {
                        buf.push(v as VertexId);
                    }
                }
            }
        });
        for &v in &active {
            frontier_words[v as usize] = 0;
        }
        active = parallel_collect(locals);
        for &v in &active {
            let v = v as usize;
            frontier_words[v] = next[v].swap(0, Ordering::Relaxed);
        }
    }
    if recorder.enabled() {
        recorder.record_counter(WAVE_ROUNDS, rounds);
        recorder.record_counter(WAVE_EDGES, edges_examined);
    }

    let flat: Vec<f32> = dist
        .into_iter()
        .map(|d| d.load(Ordering::Relaxed))
        .collect();
    (0..lanes)
        .map(|q| (0..nv).map(|v| flat[v * lanes + q]).collect())
        .collect()
}

/// Splits the `(vertex, lane)`-major flat array into per-lane vectors.
fn demux(flat: &[u32], nv: usize, lanes: usize) -> Vec<Vec<u32>> {
    (0..lanes)
        .map(|q| (0..nv).map(|v| flat[v * lanes + q]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, sssp};
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::{Edge, EdgeList, WEdge};

    fn ring_with_chords(nv: usize) -> EdgeList<Edge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            edges.push(Edge::new(v, (v + 1) % nv as u32));
            edges.push(Edge::new(v, (v + 7) % nv as u32));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn weighted_ring(nv: usize) -> EdgeList<WEdge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            let w1 = 1.0 + (v % 5) as f32 * 0.25;
            let w2 = 2.0 + (v % 3) as f32 * 0.5;
            edges.push(WEdge::new(v, (v + 1) % nv as u32, w1));
            edges.push(WEdge::new(v, (v + 7) % nv as u32, w2));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    #[test]
    fn multi_bfs_matches_single_query_levels_bit_for_bit() {
        let g = ring_with_chords(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let sources: Vec<VertexId> = (0..64).map(|q| (q * 5) % 300).collect();
        let waves = multi_bfs(adj.out(), &sources, u32::MAX, &ExecCtx::new(None));
        assert_eq!(waves.len(), sources.len());
        for (q, &s) in sources.iter().enumerate() {
            let single = bfs::push(&adj, s);
            assert_eq!(waves[q], single.level, "lane {q} source {s}");
        }
    }

    #[test]
    fn multi_bfs_truncates_at_max_depth() {
        let g = ring_with_chords(100);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_bfs(adj.out(), &[0, 3], 2, &ExecCtx::new(None));
        for lane in &waves {
            assert!(lane.iter().all(|&l| l == u32::MAX || l <= 2));
            assert!(lane.contains(&1));
        }
        // Depth-2 neighborhood of a degree-2 expander is small.
        let within: usize = waves[0].iter().filter(|&&l| l != u32::MAX).count();
        assert!(within > 1 && within < 100, "{within}");
    }

    #[test]
    fn multi_bfs_handles_duplicate_sources() {
        let g = ring_with_chords(50);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_bfs(adj.out(), &[7, 7, 7], u32::MAX, &ExecCtx::new(None));
        assert_eq!(waves[0], waves[1]);
        assert_eq!(waves[1], waves[2]);
    }

    #[test]
    fn multi_sssp_handles_duplicate_sources() {
        let g = weighted_ring(60);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_sssp(adj.out(), &[9, 4, 9, 9], &ExecCtx::new(None));
        let single = sssp::push(&adj, 9);
        assert_eq!(waves[0], single.dist);
        assert_eq!(waves[2], single.dist);
        assert_eq!(waves[3], single.dist);
        assert_eq!(waves[1], sssp::push(&adj, 4).dist);
    }

    #[test]
    fn multi_sssp_matches_single_query_distances_bit_for_bit() {
        let g = weighted_ring(200);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let sources: Vec<VertexId> = (0..32).map(|q| (q * 11) % 200).collect();
        let waves = multi_sssp(adj.out(), &sources, &ExecCtx::new(None));
        for (q, &s) in sources.iter().enumerate() {
            let single = sssp::push(&adj, s);
            assert_eq!(waves[q], single.dist, "lane {q} source {s}");
        }
    }

    #[test]
    fn wave_records_telemetry_when_enabled() {
        let g = ring_with_chords(64);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::new(None).recorder(&recorder);
        multi_bfs(adj.out(), &[0, 1, 2], u32::MAX, &ctx);
        let counters = recorder.counters();
        assert!(counters.get(WAVE_ROUNDS).copied().unwrap_or(0.0) > 0.0);
        assert!(counters.get(WAVE_EDGES).copied().unwrap_or(0.0) > 0.0);
    }
}
