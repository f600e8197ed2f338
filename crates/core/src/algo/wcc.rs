//! Weakly connected components: one concurrent union-find pass.
//!
//! The paper runs WCC as label propagation, and its §8 warning is what
//! that costs: a label travels one hop per round, so a high-diameter
//! graph pays thousands of rounds and re-activates every vertex many
//! times over, and adjacency lists must first be built from a doubled
//! (undirected) edge list. Connectivity does not need rounds. A
//! union-find forest hooked once over the stored edges — in either
//! direction, an edge joins its endpoints — and flattened once over the
//! vertices is `O(|E| α(|V|))` work on every layout, with no
//! symmetrized copy and no direction to choose (the work-efficient
//! connectivity of GBBS, PAPERS.md).
//!
//! [`UnionFind`] is the forest: `parent[v] <= v` always, `find` halves
//! paths as it walks, and `unite` hooks the *larger* root under the
//! *smaller* with one CAS. Ids fall towards the root, so no cycle can
//! form, and the vertex left as a component's root is its minimum id —
//! which makes the labels a function of the graph alone: bit-identical
//! to [`reference`] at every thread count and on every schedule.
//!
//! A run is two passes, each one iteration record: the **hook** pass is
//! a single `engine::edge_map` push round from the full frontier whose
//! rule unites the endpoints and activates nothing (so the engine's
//! loop ends after it, on any `EngineLayout`), and the **label** pass
//! writes `find(v)` per vertex.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::engine::{self, EngineLayout, FrontierAlgo, PushOnly, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::metrics::{
    direction_cutoff, frontier_density, timed, DirectionDecision, IterStat, StepMode,
};
use crate::types::{EdgeList, EdgeRecord};

/// Run counter: successful hooks, `|V|` minus the component count.
pub const UNIONS: &str = "wcc.unions";

/// Run counter: path-halving hops `find` took during the hook pass —
/// the forest's depth as the pass met it (schedule-dependent, unlike
/// everything else a run reports).
pub const FIND_STEPS: &str = "wcc.find_steps";

/// The result of a WCC run.
#[derive(Debug, Clone)]
pub struct WccResult {
    /// Component label per vertex (the minimum vertex id in the
    /// component).
    pub label: Vec<u32>,
    /// The hook pass and the label pass.
    pub iterations: Vec<IterStat>,
}

impl WccResult {
    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        // A component's label is its root's id, and only the root
        // carries its own id.
        (self.label.iter().enumerate())
            .filter(|&(v, &l)| l as usize == v)
            .count()
    }

    /// Total algorithm seconds.
    pub fn algorithm_seconds(&self) -> f64 {
        self.iterations.iter().map(|s| s.seconds).sum()
    }
}

/// A concurrent union-find forest over vertex ids, every vertex
/// starting as its own root. As a [`PushOp`] it unites the endpoints of
/// each edge it is shown.
///
/// Every value ever stored in `parent[v]` is `v` itself or a vertex
/// `v` has been united with that has a smaller id, so a reader that
/// sees a stale parent still walks towards the root, and all accesses
/// can be `Relaxed`: the pool's join is what publishes the finished
/// forest to the label pass.
struct UnionFind {
    parent: Vec<AtomicU32>,
    /// Where `find` counts its hops, on a traced run.
    find_steps: Option<AtomicU64>,
}

impl UnionFind {
    fn new(nv: usize, traced: bool) -> Self {
        Self {
            parent: egraph_parallel::parallel_init(nv, 1 << 14, |v| AtomicU32::new(v as u32)),
            find_steps: traced.then(|| AtomicU64::new(0)),
        }
    }

    /// The root of `v`'s tree, halving the path on the way: every
    /// vertex visited is re-pointed at its grandparent. A non-root
    /// never becomes a root again, so the plain store cannot undo a
    /// hook.
    #[inline]
    fn find(&self, mut v: u32) -> u32 {
        let mut hops = 0u64;
        let root = loop {
            let p = self.parent[v as usize].load(Ordering::Relaxed);
            if p == v {
                break v;
            }
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp == p {
                break p;
            }
            self.parent[v as usize].store(gp, Ordering::Relaxed);
            v = gp;
            hops += 1;
        };
        if let (Some(steps), true) = (&self.find_steps, hops > 0) {
            steps.fetch_add(hops, Ordering::Relaxed);
        }
        root
    }

    /// Joins the trees of `a` and `b`; returns whether this call hooked
    /// one root under the other. The CAS only succeeds on a vertex that
    /// is still a root, and losing it to a concurrent hook just means
    /// finding the new roots and trying again.
    #[inline]
    fn unite(&self, mut a: u32, mut b: u32) -> bool {
        // A shared parent is a shared tree (and covers self-loops and,
        // once the forest is flat, almost every edge) in two loads.
        if self.parent[a as usize].load(Ordering::Relaxed)
            == self.parent[b as usize].load(Ordering::Relaxed)
        {
            return false;
        }
        loop {
            a = self.find(a);
            b = self.find(b);
            if a == b {
                return false;
            }
            let (hi, lo) = if a > b { (a, b) } else { (b, a) };
            if self.parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

impl<E: EdgeRecord> PushOp<E> for UnionFind {
    #[inline]
    fn push(&self, e: &E) -> bool {
        self.unite(e.src(), e.dst());
        false
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for UnionFind {
    // Nothing is ever activated.
    const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;
}

/// WCC on any layout — the body behind every `wcc/*/push` variant and
/// [`IncrementalWcc`]. Stored edges are read as undirected, whichever
/// way (and however many times) they are stored.
pub(crate) fn run<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    layout: &L,
    ctx: &ExecCtx<'_>,
) -> WccResult {
    let nv = layout.num_vertices();
    let forest = UnionFind::new(nv, ctx.recorder.enabled());
    // Hook: the rule activates nothing, so this is exactly one round.
    let frontier = VertexSubset::all(nv);
    let mut iterations = engine::edge_map(layout, frontier, &forest, PushOnly, ctx);
    let (label, seconds) =
        timed(|| egraph_parallel::parallel_init(nv, 1 << 12, |v| forest.find(v as u32)));
    // Label: every vertex, no edge.
    let num_edges = layout.num_edges();
    let label_pass = IterStat {
        frontier_size: nv,
        edges_scanned: 0,
        seconds,
        mode: StepMode::Push,
        density: frontier_density(nv, num_edges),
        decision: DirectionDecision::forced(nv, direction_cutoff(num_edges)),
    };
    engine::record_iter(ctx, &mut iterations, label_pass);
    let result = WccResult { label, iterations };
    if let Some(steps) = forest.find_steps {
        let unions = nv - result.component_count();
        ctx.recorder.record_counter(UNIONS, unions as u64);
        ctx.recorder.record_counter(FIND_STEPS, steps.into_inner());
    }
    result
}

/// Serial union-find reference for validation.
pub fn reference<E: EdgeRecord>(edges: &EdgeList<E>) -> Vec<u32> {
    let nv = edges.num_vertices();
    let mut parent: Vec<u32> = (0..nv as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for e in edges.edges() {
        let a = find(&mut parent, e.src());
        let b = find(&mut parent, e.dst());
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    // Normalize every vertex to its component's minimum id.
    let mut label = vec![0u32; nv];
    for v in 0..nv as u32 {
        label[v as usize] = find(&mut parent, v);
    }
    label
}

/// Incremental WCC over the delta layout (DESIGN.md §16): keeps the
/// per-vertex component labels (component minima, the same shape
/// [`reference`] emits) and repairs them per applied batch.
///
/// Edge insertions only ever merge components, so an insert-only batch
/// is a [`UnionFind`] pass over the *labels* of the inserted endpoints
/// followed by a relabel — no graph traversal at all. Deletions can
/// split components, which connectivity labels cannot repair locally,
/// so any batch with a delete (or one exceeding
/// [`super::INCREMENTAL_FALLBACK_FRACTION`]) recomputes from scratch on
/// the merged edge list, with the same kernel every `wcc` variant runs.
#[derive(Debug, Clone)]
pub struct IncrementalWcc {
    labels: Vec<u32>,
    batches_applied: usize,
}

impl IncrementalWcc {
    /// Labels the initial graph (treated as undirected, like every WCC
    /// variant).
    pub fn new<E: EdgeRecord>(edges: &EdgeList<E>) -> Self {
        Self {
            labels: run(edges, &ExecCtx::default()).label,
            batches_applied: 0,
        }
    }

    /// The current per-vertex component labels (component minima).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Repairs the labels after `batch` was applied. `merged` is the
    /// post-batch edge list (only traversed on the fallback path).
    pub fn apply<E: EdgeRecord>(
        &mut self,
        merged: &EdgeList<E>,
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome {
        self.apply_ctx(merged, batch, &ExecCtx::default())
    }

    /// [`apply`](Self::apply) with telemetry: each batch repair is
    /// recorded as one iteration, with the batch-size-vs-fallback
    /// threshold as the decision log (deletes force the fallback
    /// regardless of the comparison).
    pub fn apply_ctx<E: EdgeRecord>(
        &mut self,
        merged: &EdgeList<E>,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, batch, ctx));
        super::record_repair(
            ctx,
            &mut self.batches_applied,
            outcome,
            batch.len(),
            merged.num_edges(),
            seconds,
        );
        outcome
    }

    fn apply_inner<E: EdgeRecord>(
        &mut self,
        merged: &EdgeList<E>,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome {
        let fraction = batch.len() as f64 / merged.num_edges().max(1) as f64;
        if batch.has_deletes() || fraction > super::INCREMENTAL_FALLBACK_FRACTION {
            // Unrecorded, so the batch stays one iteration record.
            let quiet = ExecCtx::new(ctx.pool());
            self.labels = quiet.scoped(|| run(merged, &quiet).label);
            return super::IncrementalOutcome {
                fallback: true,
                touched: merged.num_vertices(),
            };
        }
        // Union-find over label values: labels are component minima, and
        // hooking towards the smaller root keeps them minima.
        let forest = UnionFind::new(self.labels.len(), false);
        let merged_components = (batch.ops.iter())
            .filter(|op| {
                let (src, dst) = op.endpoints();
                forest.unite(self.labels[src as usize], self.labels[dst as usize])
            })
            .count();
        if merged_components > 0 {
            egraph_parallel::for_each_chunk_mut(&mut self.labels, 1 << 12, |_, chunk| {
                for label in chunk {
                    *label = forest.find(*label);
                }
            });
        }
        super::IncrementalOutcome {
            fallback: false,
            touched: merged_components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use crate::types::Edge;

    fn graph(nv: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> EdgeList<Edge> {
        let edges = edges.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
        EdgeList::new(nv, edges).unwrap()
    }

    fn random_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<Edge> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % nv as u64) as u32
        };
        graph(nv, (0..ne).map(|_| (next(), next())))
    }

    /// Runs the kernel over the adjacency (out-lists of the directed
    /// input), the edge array and a grid, checks each against
    /// [`reference`] and for the two pass records, and returns the
    /// labels.
    fn check_all_layouts(input: &EdgeList<Edge>) -> Vec<u32> {
        let expected = reference(input);
        let (nv, ne) = (input.num_vertices(), input.num_edges());
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(input);
        let cells = GridBuilder::new(Strategy::CountSort).side(4).build(input);
        for (layout, result) in [
            ("adj", run(&adj, &ExecCtx::default())),
            ("edge", run(input, &ExecCtx::default())),
            ("grid", run(&cells.cells(), &ExecCtx::default())),
        ] {
            assert_eq!(result.label, expected, "{layout}");
            let passes: Vec<_> = (result.iterations.iter())
                .map(|s| (s.frontier_size, s.edges_scanned, s.mode))
                .collect();
            let expected_passes = [(nv, ne, StepMode::Push), (nv, 0, StepMode::Push)];
            assert_eq!(passes, expected_passes, "{layout}: hook pass, label pass");
        }
        expected
    }

    #[test]
    fn reference_labels() {
        // Component {0,1,2,3}, component {4,5}, isolated {6}.
        let input = graph(7, [(1, 0), (2, 1), (3, 2), (5, 4)]);
        assert_eq!(reference(&input), vec![0, 0, 0, 0, 4, 4, 6]);
        let result = run(&input, &ExecCtx::default());
        assert_eq!(result.label, reference(&input));
        assert_eq!(result.component_count(), 3);
    }

    #[test]
    fn random_graphs_agree_on_every_layout() {
        for (nv, ne, seed) in [(600, 900, 21), (500, 1200, 31), (400, 700, 77)] {
            check_all_layouts(&random_graph(nv, ne, seed));
        }
    }

    #[test]
    fn chain_stored_against_the_scan_order_takes_two_passes() {
        // The minimum id sits at the far end of every stored edge — the
        // order that cost label propagation one round per hop (§8).
        let n = 4096u32;
        let input = graph(n as usize, (0..n - 1).rev().map(|v| (v + 1, v)));
        let labels = check_all_layouts(&input);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn star_hooks_every_leaf_under_one_contended_root() {
        let n = 5000u32;
        // The hub is the *largest* id, so it is re-hooked again and
        // again while the leaves race to link under it.
        let input = graph(n as usize, (0..n - 1).map(|v| (n - 1, v)));
        let labels = check_all_layouts(&input);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn many_small_components_stay_apart() {
        // 10 000 vertices: pairs (4k, 4k+1) and singletons.
        let input = graph(10_000, (0..2_500u32).map(|k| (4 * k + 1, 4 * k)));
        let labels = check_all_layouts(&input);
        let result = run(&input, &ExecCtx::default());
        assert_eq!(result.component_count(), 7_500);
        assert_eq!(labels[4001], 4000);
        assert_eq!(labels[4002], 4002);
    }

    #[test]
    fn self_loops_duplicates_and_no_edges() {
        let input = graph(6, [(3, 3), (1, 2), (2, 1), (1, 2), (1, 2), (5, 5), (4, 5)]);
        assert_eq!(check_all_layouts(&input), vec![0, 1, 1, 3, 4, 4]);
        let no_edges = graph(5, []);
        assert_eq!(check_all_layouts(&no_edges), vec![0, 1, 2, 3, 4]);
        let no_vertices = graph(0, []);
        let result = run(&no_vertices, &ExecCtx::default());
        assert!(result.label.is_empty());
        assert_eq!(result.component_count(), 0);
    }

    #[test]
    fn four_workers_race_the_hook_and_the_halving_to_the_same_labels() {
        // Long chains under a shuffled edge order keep `find` walking
        // (and halving) paths other workers are hooking into.
        let pool = egraph_parallel::ThreadPool::new(4);
        let nv = 20_000u32;
        let mut edges: Vec<(u32, u32)> = (0..nv - 1)
            .filter(|v| v % 5_000 != 4_999)
            .map(|v| (v + 1, v))
            .collect();
        let mut state = 7u64;
        for i in (1..edges.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.swap(i, (state >> 33) as usize % (i + 1));
        }
        let input = graph(nv as usize, edges);
        let expected = reference(&input);
        for round in 0..50 {
            let label =
                egraph_parallel::with_pool(&pool, || run(&input, &ExecCtx::default()).label);
            assert_eq!(label, expected, "round {round}");
        }
    }

    #[test]
    fn all_time_is_inside_the_two_records() {
        let input = random_graph(2000, 6000, 5);
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::default().recorder(&recorder);
        let result = run(&input, &ctx);
        assert!(result.algorithm_seconds() > 0.0);
        let recorded: f64 = recorder.iterations().iter().map(|r| r.stat.seconds).sum();
        assert_eq!(result.algorithm_seconds(), recorded);
        let counters = recorder.counters();
        let components = result.component_count();
        assert_eq!(counters[UNIONS], (2000 - components) as f64);
        assert!(counters.contains_key(FIND_STEPS));
        assert_eq!(counters[engine::EDGES_EXAMINED], 6000.0);
    }

    #[test]
    fn incremental_wcc_unions_inserts_and_falls_back_on_deletes() {
        use crate::layout::{DeltaBatch, DeltaLog, DeltaOp};
        use crate::types::Edge;
        // Two chains: components {0..29} and {30..59}.
        let mut edges: Vec<Edge> = (0..29).map(|v| Edge::new(v, v + 1)).collect();
        edges.extend((30..59).map(|v| Edge::new(v, v + 1)));
        let base = EdgeList::new(60, edges).unwrap();
        let mut log = DeltaLog::new();
        let mut engine = IncrementalWcc::new(&base);
        assert_eq!(engine.labels()[37], 30);

        // Inserting a bridge merges the components without traversal.
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Insert(Edge::new(2, 37)));
        for op in &batch.ops {
            log.push(*op);
        }
        let merged = log.merge_into(&base);
        let outcome = engine.apply(&merged, &batch);
        assert!(!outcome.fallback);
        assert_eq!(outcome.touched, 1, "one component merge");
        assert_eq!(engine.labels(), &reference(&merged)[..]);
        assert!(engine.labels().iter().all(|&l| l == 0));

        // Deleting the bridge cannot be repaired locally: fallback.
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Delete { src: 2, dst: 37 });
        for op in &batch.ops {
            log.push(*op);
        }
        let merged = log.merge_into(&base);
        let outcome = engine.apply(&merged, &batch);
        assert!(outcome.fallback, "deletes force recompute");
        assert_eq!(engine.labels(), &reference(&merged)[..]);
        assert_eq!(engine.labels()[37], 30, "split restored");
    }
}
