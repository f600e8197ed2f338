//! Single-source shortest paths (frontier-driven Bellman-Ford).
//!
//! "SSSP is very similar to BFS […] The only difference is that BFS
//! discovers a vertex only once, whereas in SSSP a vertex may update
//! its path many times during the computation, leading to an increase
//! both in the number of iterations and the number of vertices active
//! in each iteration." (§8)
//!
//! This file holds the distance state, its relaxation rules and the
//! result conversion; the frontier loop lives in `engine::edge_map`.

use std::sync::atomic::Ordering;

use egraph_cachesim::MemProbe;
use egraph_parallel::atomicf::AtomicF32;

use crate::engine::{self, EngineLayout, FrontierAlgo, NoPull, PushOp};
use crate::frontier::{FrontierKind, NextFrontier, VertexSubset};
use crate::layout::{AdjacencyList, VertexLayout};
use crate::metrics::{
    direction_cutoff, frontier_density, timed, Direction, DirectionDecision, IterStat, StepMode,
};
use crate::telemetry::{ExecContext, Recorder};
use crate::types::{EdgeList, EdgeRecord, VertexId};
use crate::util::AtomicBitmap;

/// The result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Shortest distance from the source (`f32::INFINITY` when
    /// unreachable).
    pub dist: Vec<f32>,
    /// Per-iteration statistics.
    pub iterations: Vec<IterStat>,
}

impl SsspResult {
    /// Number of vertices with a finite distance.
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_finite()).count()
    }

    /// Total algorithm seconds.
    pub fn algorithm_seconds(&self) -> f64 {
        self.iterations.iter().map(|s| s.seconds).sum()
    }
}

/// Tentative distances, all infinite but the source's. As a [`PushOp`]
/// it relaxes an edge with an atomic minimum.
struct SsspState {
    dist: Vec<AtomicF32>,
}

impl SsspState {
    fn new(nv: usize, source: VertexId) -> Self {
        let dist: Vec<AtomicF32> = (0..nv).map(|_| AtomicF32::new(f32::INFINITY)).collect();
        dist[source as usize].store(0.0, Ordering::Relaxed);
        Self { dist }
    }

    fn into_result(self, iterations: Vec<IterStat>) -> SsspResult {
        SsspResult {
            dist: (self.dist.iter().map(|d| d.load(Ordering::Relaxed))).collect(),
            iterations,
        }
    }
}

impl<E: EdgeRecord> PushOp<E> for SsspState {
    const META_BYTES: u64 = 4; // one f32 distance per vertex

    #[inline]
    fn push(&self, e: &E) -> bool {
        let d = self.dist[e.src() as usize].load(Ordering::Relaxed);
        if !d.is_finite() {
            return false;
        }
        self.dist[e.dst() as usize].fetch_min(d + e.weight(), Ordering::Relaxed)
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for SsspState {
    type Pull<'a> = NoPull;

    // Dense accumulation: a vertex improved several times in one step
    // must appear once in the next frontier — which stays small, so it
    // is re-listed for the next round.
    const PUSH_NEXT: FrontierKind = FrontierKind::Dense;
    const RELIST: bool = true;

    fn pull_op<'a>(&'a self, _: &'a AtomicBitmap, _: &'a AtomicBitmap) -> NoPull {
        unreachable!("SSSP is push-only")
    }
}

/// Vertex-centric push SSSP over an out-adjacency. Distances relax via
/// atomic minimum; re-activated vertices re-enter the (deduplicated)
/// frontier.
///
/// Negative edge weights are a caller bug (the relaxation still
/// terminates only for non-negative weights).
pub fn push<E: EdgeRecord, L: VertexLayout<E>>(adj: &L, source: VertexId) -> SsspResult {
    push_impl(adj, source, &ExecContext::new())
}

/// Frontier Bellman-Ford on any layout: an indexed layout relaxes the
/// out-edges of the vertices that improved last round, a scanning one
/// streams every edge and relaxes those whose source did.
pub(crate) fn push_impl<E: EdgeRecord, F, L: EngineLayout<E, F>, P: MemProbe, R: Recorder>(
    adj: &L,
    source: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> SsspResult {
    let state = SsspState::new(adj.num_vertices(), source);
    let frontier = VertexSubset::single(source);
    let iterations = engine::edge_map(adj, frontier, &state, Direction::Push, *ctx);
    state.into_result(iterations)
}

/// Edge-centric SSSP: every iteration streams the whole edge array,
/// relaxing edges whose source improved last round.
pub fn edge_centric<E: EdgeRecord>(edges: &EdgeList<E>, source: VertexId) -> SsspResult {
    push_impl(edges, source, &ExecContext::new())
}

/// Delta-stepping SSSP (Meyer & Sanders) — an extension beyond the
/// paper's frontier Bellman-Ford, provided for the ablation benches.
///
/// Vertices are bucketed by `floor(dist / delta)`; each bucket is
/// settled by repeated *light*-edge relaxations (weight ≤ delta, which
/// can re-activate within the bucket) followed by one round of *heavy*
/// relaxations into later buckets. Small deltas approach Dijkstra
/// (little wasted work, many rounds); large deltas approach
/// Bellman-Ford.
///
/// # Panics
///
/// Panics if `delta` is not strictly positive.
pub fn delta_stepping<E: EdgeRecord>(
    adj: &AdjacencyList<E>,
    source: VertexId,
    delta: f32,
) -> SsspResult {
    assert!(delta > 0.0, "delta must be positive");
    let out = adj.out();
    let nv = out.num_vertices();
    let state = SsspState::new(nv, source);
    let dist = &state.dist;
    let mut iterations = Vec::new();

    let bucket_of = |d: f32| -> usize { (d / delta) as usize };
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut current = 0usize;

    while current < buckets.len() {
        // Settle this bucket with light-edge rounds.
        loop {
            let frontier: Vec<VertexId> = {
                let b = &mut buckets[current];
                // A vertex may have been re-bucketed upward after
                // insertion; only process ones still in range.
                let members: Vec<VertexId> = b
                    .drain(..)
                    .filter(|&v| {
                        let d = dist[v as usize].load(Ordering::Relaxed);
                        d.is_finite() && bucket_of(d) == current
                    })
                    .collect();
                members
            };
            if frontier.is_empty() {
                break;
            }
            let (light_activations, seconds) = timed(|| {
                let next = NextFrontier::new(FrontierKind::Dense, nv);
                egraph_parallel::parallel_for(0..frontier.len(), 64, |r| {
                    for &u in &frontier[r] {
                        let du = dist[u as usize].load(Ordering::Relaxed);
                        for e in out.neighbors(u) {
                            if e.weight() <= delta
                                && dist[e.dst() as usize]
                                    .fetch_min(du + e.weight(), Ordering::Relaxed)
                            {
                                next.add(e.dst());
                            }
                        }
                    }
                });
                next.finish()
            });
            iterations.push(IterStat {
                frontier_size: frontier.len(),
                edges_scanned: 0,
                seconds,
                mode: StepMode::Push,
                // Bucketed relaxation has no pull alternative; the
                // bucket membership alone is the observed load.
                density: frontier_density(frontier.len(), out.num_edges()),
                decision: DirectionDecision::forced(
                    frontier.len(),
                    direction_cutoff(out.num_edges()),
                ),
            });
            // Re-bucket light activations (serially — `buckets` is not
            // shared); heavy edges are handled after the round.
            if let VertexSubset::Dense { bitmap, .. } = &light_activations {
                for v in bitmap.to_vec() {
                    let d = dist[v as usize].load(Ordering::Relaxed);
                    let b = bucket_of(d);
                    if b >= buckets.len() {
                        buckets.resize(b + 1, Vec::new());
                    }
                    buckets[b].push(v);
                }
            }
            // Heavy relaxations of this round's frontier.
            let next = NextFrontier::new(FrontierKind::Dense, nv);
            egraph_parallel::parallel_for(0..frontier.len(), 64, |r| {
                for &u in &frontier[r] {
                    let du = dist[u as usize].load(Ordering::Relaxed);
                    for e in out.neighbors(u) {
                        if e.weight() > delta
                            && dist[e.dst() as usize].fetch_min(du + e.weight(), Ordering::Relaxed)
                        {
                            next.add(e.dst());
                        }
                    }
                }
            });
            if let VertexSubset::Dense { bitmap, .. } = &next.finish() {
                for v in bitmap.to_vec() {
                    let d = dist[v as usize].load(Ordering::Relaxed);
                    let b = bucket_of(d);
                    if b >= buckets.len() {
                        buckets.resize(b + 1, Vec::new());
                    }
                    buckets[b].push(v);
                }
            }
        }
        current += 1;
    }
    state.into_result(iterations)
}

/// Serial Dijkstra reference for validation.
pub fn reference<E: EdgeRecord>(edges: &EdgeList<E>, source: VertexId) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let nv = edges.num_vertices();
    let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nv];
    for e in edges.edges() {
        adj[e.src() as usize].push((e.dst(), e.weight()));
    }
    let mut dist = vec![f32::INFINITY; nv];
    dist[source as usize] = 0.0;
    let mut heap: BinaryHeap<Reverse<(ordered::F32, u32)>> = BinaryHeap::new();
    heap.push(Reverse((ordered::F32(0.0), source)));
    while let Some(Reverse((ordered::F32(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in &adj[u as usize] {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((ordered::F32(nd), v)));
            }
        }
    }
    dist
}

/// A totally ordered `f32` wrapper for the reference Dijkstra's heap.
mod ordered {
    /// `f32` with total ordering (no NaNs expected in distances).
    #[derive(PartialEq, Clone, Copy)]
    pub struct F32(pub f32);

    impl Eq for F32 {}

    impl PartialOrd for F32 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for F32 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::WEdge;

    fn weighted_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<WEdge> {
        let mut state = seed | 1;
        let mut edges = Vec::with_capacity(ne + nv / 2);
        for v in 0..nv as u32 / 2 {
            edges.push(WEdge::new(v, v + 1, 1.0 + (v % 7) as f32));
        }
        for _ in 0..ne {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((state >> 33) % nv as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dst = ((state >> 33) % nv as u64) as u32;
            let w = 0.5 + ((state >> 16) % 100) as f32 / 10.0;
            edges.push(WEdge::new(src, dst, w));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn assert_dists_match(got: &[f32], expected: &[f32]) {
        for v in 0..got.len() {
            if expected[v].is_infinite() {
                assert!(got[v].is_infinite(), "vertex {v} should be unreachable");
            } else {
                assert!(
                    (got[v] - expected[v]).abs() < 1e-3,
                    "vertex {v}: {} vs {}",
                    got[v],
                    expected[v]
                );
            }
        }
    }

    #[test]
    fn push_matches_dijkstra() {
        let input = weighted_graph(400, 3000, 77);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let result = push(&adj, 0);
        assert_dists_match(&result.dist, &reference(&input, 0));
        assert!(result.reachable_count() > 100);
    }

    #[test]
    fn edge_centric_matches_dijkstra() {
        let input = weighted_graph(300, 2000, 33);
        let result = edge_centric(&input, 0);
        assert_dists_match(&result.dist, &reference(&input, 0));
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let input = EdgeList::new(4, vec![WEdge::new(0, 1, 2.0)]).unwrap();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let result = push(&adj, 0);
        assert_eq!(result.dist[1], 2.0);
        assert!(result.dist[2].is_infinite());
        assert_eq!(result.reachable_count(), 2);
    }

    #[test]
    fn shorter_path_wins_over_fewer_hops() {
        // 0 -> 2 direct costs 10; 0 -> 1 -> 2 costs 3.
        let input = EdgeList::new(
            3,
            vec![
                WEdge::new(0, 2, 10.0),
                WEdge::new(0, 1, 1.0),
                WEdge::new(1, 2, 2.0),
            ],
        )
        .unwrap();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&input);
        let result = push(&adj, 0);
        assert_eq!(result.dist[2], 3.0);
    }

    #[test]
    fn delta_stepping_matches_dijkstra() {
        let input = weighted_graph(400, 3000, 88);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let expected = reference(&input, 0);
        for delta in [0.5f32, 2.0, 8.0, 100.0] {
            let result = delta_stepping(&adj, 0, delta);
            assert_dists_match(&result.dist, &expected);
        }
    }

    #[test]
    fn delta_stepping_small_delta_on_chain() {
        // A weighted chain exercises many buckets.
        let edges: Vec<WEdge> = (0..50u32).map(|v| WEdge::new(v, v + 1, 1.5)).collect();
        let input = EdgeList::new(51, edges).unwrap();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let result = delta_stepping(&adj, 0, 1.0);
        assert_eq!(result.dist[50], 75.0);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn delta_stepping_rejects_zero_delta() {
        let input = weighted_graph(10, 10, 1);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let _ = delta_stepping(&adj, 0, 0.0);
    }

    #[test]
    fn sssp_runs_more_iterations_than_bfs_levels() {
        // Weighted relaxations revisit vertices; iterations recorded.
        let input = weighted_graph(200, 1500, 11);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
        let result = push(&adj, 0);
        assert!(!result.iterations.is_empty());
        assert!(result.algorithm_seconds() >= 0.0);
    }
}
