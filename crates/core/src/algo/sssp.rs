//! Single-source shortest paths: bucketed (Δ-stepping) frontiers.
//!
//! "SSSP is very similar to BFS […] The only difference is that BFS
//! discovers a vertex only once, whereas in SSSP a vertex may update
//! its path many times during the computation, leading to an increase
//! both in the number of iterations and the number of vertices active
//! in each iteration." (§8)
//!
//! That increase is the cost of relaxing in *arrival* order: frontier
//! Bellman-Ford pushes from every vertex that improved last round,
//! however far its tentative distance still is from final. Δ-stepping
//! (Meyer & Sanders) relaxes in *distance* order instead: improved
//! vertices wait in buckets of width Δ by `⌊dist / Δ⌋`, and a round
//! pushes from the lowest non-empty bucket only, so a vertex is rarely
//! relaxed before its distance has settled to within Δ. Δ = ∞ is one
//! bucket — frontier Bellman-Ford, which is what a scanning layout
//! runs, since each of its rounds costs `|E|` whatever the frontier.
//!
//! This file holds the distance state, the one relaxation rule
//! ([`SsspState::push`]) and the binning of activated vertices
//! ([`FrontierAlgo::next_frontier`] over a
//! [`BucketQueue`](egraph_parallel::buckets::BucketQueue)); the round
//! loop is `engine::edge_map`.
//!
//! **Every round is a Jacobi step.** `begin_round` copies the frontier's
//! distances aside and `push` reads the copy, so a round computes
//! `min(dist[v], min over frontier edges (u, v) of old[u] + w)` — a
//! function of the state the round started from, whatever the schedule.
//! The activated *set* (vertices whose distance fell) follows, the bins
//! are filled from it in id order, and so the distances **and** the
//! iteration records are the same at every thread count. The distances
//! are also exactly Dijkstra's: `f32` addition is monotone, so the
//! least fixpoint of the relaxation is the same left-to-right path sum
//! whichever order reaches it.

use std::sync::atomic::Ordering;

use egraph_parallel::atomicf::AtomicF32;
use egraph_parallel::buckets::BucketQueue;
use parking_lot::Mutex;

use crate::engine::{self, EngineLayout, FrontierAlgo, PushOnly, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{AdjacencyList, NeighborAccess, VertexLayout};
use crate::metrics::IterStat;
use crate::types::{EdgeList, EdgeRecord, VertexId};

/// Run counter: the bucket width Δ in thousandths (counters are
/// integers); saturated for Δ = ∞.
pub const DELTA_MILLI: &str = "sssp.delta_milli";

/// Run counter: distinct buckets drained.
pub const BUCKETS_OPENED: &str = "sssp.buckets_opened";

/// Run counter: vertices the bucket queue moved out of its overflow
/// bucket when its window of open buckets advanced.
pub const REBINNED: &str = "sssp.rebinned";

/// The result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Shortest distance from the source (`f32::INFINITY` when
    /// unreachable).
    pub dist: Vec<f32>,
    /// Per-iteration statistics.
    pub iterations: Vec<IterStat>,
    /// The bucket each iteration drained (`⌊dist / delta⌋` of its
    /// frontier), one per entry of `iterations`.
    pub buckets: Vec<u64>,
    /// The bucket width the run used.
    pub delta: f32,
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

/// The bins activated vertices wait in, and the bucket of every round
/// handed out so far.
struct Bins {
    queue: BucketQueue,
    round_buckets: Vec<u64>,
}

/// Tentative distances, all infinite but the source's. As a [`PushOp`]
/// it relaxes an edge with an atomic minimum.
struct SsspState {
    dist: Vec<AtomicF32>,
    /// The current frontier's distances as of the round's start — what
    /// [`push`](PushOp::push) reads, so no relaxation sees another of
    /// the same round.
    round_dist: Vec<AtomicF32>,
    delta: f32,
    bins: Mutex<Bins>,
}

impl SsspState {
    fn new(nv: usize, source: VertexId, delta: f32) -> Self {
        let infinite = || -> Vec<AtomicF32> {
            egraph_parallel::parallel_init(nv, 1 << 14, |_| AtomicF32::new(f32::INFINITY))
        };
        let state = Self {
            dist: infinite(),
            round_dist: infinite(),
            delta,
            bins: Mutex::new(Bins {
                queue: BucketQueue::new(nv),
                round_buckets: Vec::new(),
            }),
        };
        state.dist[source as usize].store(0.0, Ordering::Relaxed);
        state
    }

    /// Files `activated` under their current distances and hands out
    /// the lowest non-empty bucket (empty when every bucket is).
    fn bin_and_pop(&self, activated: Vec<VertexId>) -> VertexSubset {
        let mut bins = self.bins.lock();
        for v in activated {
            let d = self.dist[v as usize].load(Ordering::Relaxed);
            // Saturating: a quotient past `u64` (or Δ = ∞'s zero) is
            // still a bucket.
            bins.queue.insert(v, (d / self.delta) as u64);
        }
        match bins.queue.pop_lowest() {
            Some((bucket, members)) => {
                bins.round_buckets.push(bucket);
                VertexSubset::Sparse(members)
            }
            None => VertexSubset::empty(),
        }
    }
}

impl<E: EdgeRecord> PushOp<E> for SsspState {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let d = self.round_dist[e.src() as usize].load(Ordering::Relaxed);
        self.dist[e.dst() as usize].fetch_min(d + e.weight(), Ordering::Relaxed)
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for SsspState {
    // Dense accumulation: a vertex improved several times in one round
    // must be binned once, and the bitmap lists it in id order (as does
    // the sorted, deduplicated list of a round under the grain).
    const PUSH_NEXT: FrontierKind = FrontierKind::Dense;

    fn begin_round(&self, frontier: &VertexSubset) {
        frontier.for_each(|u| {
            let d = self.dist[u as usize].load(Ordering::Relaxed);
            self.round_dist[u as usize].store(d, Ordering::Relaxed);
        });
    }

    fn next_frontier(&self, activated: VertexSubset) -> VertexSubset {
        self.bin_and_pop(match activated {
            VertexSubset::Sparse(list) => list,
            VertexSubset::Dense { bitmap, .. } => bitmap.to_vec(),
        })
    }
}

/// Bucketed SSSP on any layout with bucket width `delta`: an indexed
/// layout relaxes the out-edges of the lowest bucket's members, a
/// scanning one (which callers give `delta = ∞`) streams every edge and
/// relaxes those whose source improved last round.
pub(crate) fn push_impl<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    adj: &L,
    source: VertexId,
    delta: f32,
    ctx: &ExecCtx<'_>,
) -> SsspResult {
    let state = SsspState::new(adj.num_vertices(), source, delta);
    // The first frontier is a popped bucket like every other.
    let frontier = state.bin_and_pop(vec![source]);
    let iterations = engine::edge_map(adj, frontier, &state, PushOnly, ctx);
    let bins = state.bins.into_inner();
    if ctx.recorder.enabled() {
        let recorder = ctx.recorder;
        recorder.record_counter(DELTA_MILLI, (delta * 1e3).round() as u64);
        recorder.record_counter(BUCKETS_OPENED, bins.queue.buckets_opened());
        recorder.record_counter(REBINNED, bins.queue.rebinned());
    }
    SsspResult {
        dist: (state.dist.iter().map(|d| d.load(Ordering::Relaxed))).collect(),
        iterations,
        buckets: bins.round_buckets,
        delta,
    }
}

/// The `sssp/adj/push` kernel with an explicit bucket width, for the Δ
/// ablation: small deltas approach Dijkstra (little wasted work, many
/// rounds), large ones frontier Bellman-Ford. A width that is not a positive number
/// means no bucketing (Δ = ∞).
pub fn delta_stepping<E: EdgeRecord>(
    adj: &AdjacencyList<E>,
    source: VertexId,
    delta: f32,
) -> SsspResult {
    let delta = if delta > 0.0 { delta } else { f32::INFINITY };
    push_impl(adj, source, delta, &ExecCtx::default())
}

/// How many vertices [`derive_delta`] samples.
const DELTA_SAMPLE: usize = 1024;

/// Out-edges per vertex [`derive_delta`] aims to keep inside one bucket.
const LIGHT_EDGES: f64 = 4.0;

/// The bucket width for `adj`, read off the graph: the Δ at which a
/// vertex has about [`LIGHT_EDGES`] out-edges no heavier than Δ
/// (Meyer & Sanders' `Δ = Θ(max weight / degree)`), taking weights as
/// uniform up to twice their mean — `Δ = 2 · LIGHT_EDGES · mean weight
/// / mean out-degree`. The mean weight comes from the first span of
/// every `|V| / 1024`-th vertex, the mean degree from the layout's
/// counts, so the pass costs microseconds and its answer depends on
/// nothing but the graph. High-degree graphs get narrow buckets (their
/// rounds are few and each wasted relaxation is one of many), sparse
/// high-diameter ones wide buckets (their rounds are many and nearly
/// empty); EXPERIMENTS.md "PR 16" has the sweep behind the constant.
/// A graph whose sampled weights are all zero has nothing to order: ∞.
pub fn derive_delta<E: EdgeRecord, L: VertexLayout<E>>(adj: &L) -> f32 {
    let out = adj.out();
    let nv = out.num_vertices();
    let stride = nv.div_ceil(DELTA_SAMPLE).max(1);
    let (mut sum, mut count) = (0.0f64, 0usize);
    for v in (0..nv).step_by(stride) {
        // Stopping after the first span bounds the cost on a hub.
        out.for_each_span(v as VertexId, |span| {
            sum += span.iter().map(|e| f64::from(e.weight())).sum::<f64>();
            count += span.len();
            0
        });
    }
    let mean_weight = sum / count as f64;
    let mean_degree = out.num_edges() as f64 / nv as f64;
    let delta = (2.0 * LIGHT_EDGES * mean_weight / mean_degree) as f32;
    if delta > 0.0 {
        delta
    } else {
        f32::INFINITY
    }
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
    use proptest::prelude::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A half-chain plus `ne` random edges, weighted by `weight(r)` of a
    /// random `r`.
    fn weighted_graph(
        nv: usize,
        ne: usize,
        seed: u64,
        weight: impl Fn(u64) -> f32,
    ) -> EdgeList<WEdge> {
        let mut state = seed | 1;
        let mut edges = Vec::with_capacity(ne + nv / 2);
        for v in 0..nv as u32 / 2 {
            edges.push(WEdge::new(v, v + 1, weight(lcg(&mut state))));
        }
        for _ in 0..ne {
            let src = (lcg(&mut state) % nv as u64) as u32;
            let dst = (lcg(&mut state) % nv as u64) as u32;
            edges.push(WEdge::new(src, dst, weight(lcg(&mut state))));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn tenths(r: u64) -> f32 {
        0.5 + (r % 100) as f32 / 10.0
    }

    fn out_csr(input: &EdgeList<WEdge>) -> AdjacencyList<WEdge> {
        CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(input)
    }

    /// SSSP from vertex 0 at the bucket width the graph derives.
    fn derived(adj: &AdjacencyList<WEdge>) -> SsspResult {
        push_impl(adj, 0, derive_delta(adj), &ExecCtx::default())
    }

    fn assert_bit_equal(got: &[f32], expected: &[f32], what: &str) {
        assert_eq!(got.len(), expected.len(), "{what}");
        for (v, (g, e)) in got.iter().zip(expected).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "{what}: vertex {v}: {g} vs {e}");
        }
    }

    #[test]
    fn push_and_edge_centric_equal_dijkstra() {
        let input = weighted_graph(400, 3000, 77, tenths);
        let expected = reference(&input, 0);
        let result = derived(&out_csr(&input));
        assert_bit_equal(&result.dist, &expected, "push");
        assert!(result.reachable_count() > 100);
        assert_eq!(result.buckets.len(), result.iterations.len());
        assert!(result.buckets.windows(2).all(|w| w[0] <= w[1]));
        let scanned = push_impl(&input, 0, f32::INFINITY, &ExecCtx::default());
        assert_bit_equal(&scanned.dist, &expected, "edge_centric");
        assert!(scanned.buckets.iter().all(|&b| b == 0), "one bucket");
        let ne = input.num_edges();
        assert!(scanned.iterations.iter().all(|s| s.edges_scanned == ne));
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let input = EdgeList::new(4, vec![WEdge::new(0, 1, 2.0)]).unwrap();
        let result = derived(&out_csr(&input));
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
        assert_eq!(derived(&out_csr(&input)).dist[2], 3.0);
    }

    #[test]
    fn small_delta_walks_a_chain_bucket_by_bucket() {
        let edges: Vec<WEdge> = (0..50u32).map(|v| WEdge::new(v, v + 1, 1.5)).collect();
        let input = EdgeList::new(51, edges).unwrap();
        let result = delta_stepping(&out_csr(&input), 0, 1.0);
        assert_eq!(result.dist[50], 75.0);
        // Vertex k waits in bucket ⌊1.5 k⌋ and is drained alone.
        let expected: Vec<u64> = (0..=50u64).map(|k| k * 3 / 2).collect();
        assert_eq!(result.buckets, expected);
        assert!(result.iterations.iter().all(|s| s.frontier_size == 1));
    }

    #[test]
    fn a_delta_that_is_not_a_positive_number_means_one_bucket() {
        let input = weighted_graph(60, 200, 1, tenths);
        let adj = out_csr(&input);
        let expected = reference(&input, 0);
        for delta in [0.0, -3.0, f32::NAN, f32::INFINITY] {
            let result = delta_stepping(&adj, 0, delta);
            assert_bit_equal(&result.dist, &expected, "no bucketing");
            assert!(result.delta.is_infinite());
            assert!(result.buckets.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn extreme_weight_ranges_run_in_bounded_memory() {
        // Twelve orders of magnitude between the lightest and the
        // heaviest edge, zero-weight edges, and vertices nothing
        // reaches: ⌊dist / Δ⌋ runs to ~1e12, which a bucket *vector*
        // would try to allocate. The queue holds 128 open buckets.
        let spread = |r: u64| match r % 5 {
            0 => 0.0,
            1 => 1e-3,
            2 => 1.0 + (r % 7) as f32,
            3 => 1e4,
            _ => 1e9,
        };
        let mut edges = weighted_graph(300, 1200, 9, spread).edges().to_vec();
        edges.retain(|e| e.dst() < 290 && e.src() < 290);
        let input = EdgeList::new(300, edges).unwrap();
        let adj = out_csr(&input);
        let expected = reference(&input, 0);
        assert!(expected[295].is_infinite());
        for delta in [1e-3, 0.5, 1e9] {
            let result = delta_stepping(&adj, 0, delta);
            assert_bit_equal(&result.dist, &expected, &format!("delta {delta}"));
        }
        assert_bit_equal(&derived(&adj).dist, &expected, "derived delta");

        // All-equal weights with Δ above every distance: one bucket.
        let flat = weighted_graph(200, 800, 3, |_| 2.0);
        let result = delta_stepping(&out_csr(&flat), 0, 1e6);
        assert_bit_equal(&result.dist, &reference(&flat, 0), "equal weights");
        assert!(result.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn counters_say_how_the_run_was_bucketed() {
        let input = weighted_graph(400, 3000, 5, tenths);
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::default().recorder(&recorder);
        let result = push_impl(&out_csr(&input), 0, 2.0, &ctx);
        let counters = recorder.counters();
        assert_eq!(counters[DELTA_MILLI], 2000.0);
        let mut distinct = result.buckets.clone();
        distinct.dedup();
        assert_eq!(counters[BUCKETS_OPENED], distinct.len() as f64);
        assert!(counters.contains_key(REBINNED));
        assert_eq!(recorder.iterations().len(), result.iterations.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Integer weights, every bucket width: exactly Dijkstra.
        #[test]
        fn bucketed_sssp_bit_equals_dijkstra(
            nv in 2usize..120,
            ne in 0usize..600,
            seed in any::<u64>(),
            max_weight in 1u64..40,
        ) {
            let input = weighted_graph(nv, ne, seed, |r| (r % (max_weight + 1)) as f32);
            let adj = out_csr(&input);
            let expected = reference(&input, 0);
            for delta in [derive_delta(&adj), 0.5, 8.0, f32::INFINITY] {
                let result = delta_stepping(&adj, 0, delta);
                for (g, e) in result.dist.iter().zip(&expected) {
                    prop_assert_eq!(g.to_bits(), e.to_bits(), "delta {}", delta);
                }
            }
        }
    }
}
