//! Weakly connected components via label propagation.
//!
//! WCC runs on the undirected view of the graph. The paper's §8
//! observation: adjacency lists must be built from a doubled
//! (undirected) edge list — extra pre-processing — while the
//! edge-centric kernel simply propagates labels in both directions of
//! each stored edge at no pre-processing cost. Which side wins depends
//! on the diameter: low-diameter graphs converge in few iterations
//! (edge array wins), high-diameter graphs need many (adjacency list
//! wins).
//!
//! This file holds the label state, its push/pull rules and the result
//! conversion; the vertex-centric iteration loop — and the direction
//! choice — live in `engine::edge_map`.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use egraph_cachesim::MemProbe;

use crate::engine::{self, FrontierAlgo, PullOp, PushOp};
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{EdgeStream, VertexLayout};
use crate::metrics::{timed, Direction, IterStat};
use crate::telemetry::{ExecContext, Recorder};
use crate::types::VertexId;
use crate::types::{EdgeList, EdgeRecord};
use crate::util::AtomicBitmap;

/// The result of a WCC run.
#[derive(Debug, Clone)]
pub struct WccResult {
    /// Component label per vertex (the minimum vertex id in the
    /// component).
    pub label: Vec<u32>,
    /// Per-iteration statistics.
    pub iterations: Vec<IterStat>,
}

impl WccResult {
    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        let mut labels: Vec<u32> = self.label.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Total algorithm seconds.
    pub fn algorithm_seconds(&self) -> f64 {
        self.iterations.iter().map(|s| s.seconds).sum()
    }
}

/// The label array, every vertex starting in its own component. As a
/// [`PushOp`] it lowers the destination's label to the source's.
struct WccState {
    label: Vec<AtomicU32>,
}

impl WccState {
    fn new(nv: usize) -> Self {
        Self {
            label: (0..nv as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Propagates the smaller label of `e`'s endpoints to the other one
    /// (the direction-free rule of the edge-array and grid kernels);
    /// returns whether a label moved.
    #[inline]
    fn relax_both<E: EdgeRecord>(&self, e: &E) -> bool {
        let (s, d) = (e.src() as usize, e.dst() as usize);
        let ls = self.label[s].load(Ordering::Relaxed);
        let ld = self.label[d].load(Ordering::Relaxed);
        if ls < ld {
            self.label[d].fetch_min(ls, Ordering::Relaxed) > ls
        } else if ld < ls {
            self.label[s].fetch_min(ld, Ordering::Relaxed) > ld
        } else {
            false
        }
    }

    fn into_result(self, iterations: Vec<IterStat>) -> WccResult {
        WccResult {
            label: self.label.into_iter().map(AtomicU32::into_inner).collect(),
            iterations,
        }
    }
}

impl<E: EdgeRecord> PushOp<E> for WccState {
    const META_BYTES: u64 = 4;

    #[inline]
    fn push(&self, e: &E) -> bool {
        let l = self.label[e.src() as usize].load(Ordering::Relaxed);
        // `fetch_min` returns the previous value; the label moved (and
        // the destination re-activates) iff the previous value was
        // larger.
        self.label[e.dst() as usize].fetch_min(l, Ordering::Relaxed) > l
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for WccState {
    type Pull<'a> = WccPullOp<'a>;

    // A label can drop several times in one round.
    const PUSH_NEXT: FrontierKind = FrontierKind::Dense;
    const SYMMETRIC: bool = true;

    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> WccPullOp<'a> {
        WccPullOp {
            label: &self.label,
            activated,
            in_frontier,
        }
    }
}

/// Pull rule for label propagation: a vertex folds the minimum of its
/// neighbors' labels into its own slot — single writer per vertex, no
/// synchronization beyond atomic loads/stores. Labels only decrease,
/// so racing with a neighbor's concurrent update can only read an
/// *earlier or newer-but-smaller* value; both preserve convergence.
struct WccPullOp<'a> {
    label: &'a [AtomicU32],
    activated: &'a AtomicBitmap,
    in_frontier: &'a AtomicBitmap,
}

impl<E: EdgeRecord> PullOp<E> for WccPullOp<'_> {
    const META_BYTES: u64 = 4;

    #[inline]
    fn wants_pull(&self, _dst: VertexId) -> bool {
        true
    }

    #[inline]
    fn pull(&self, dst: VertexId, e: &E) -> bool {
        // Works over an in-adjacency (neighbor = src) or, for
        // undirected graphs, an out-adjacency (neighbor = dst).
        let u = if e.src() == dst { e.dst() } else { e.src() };
        // Only labels that moved last round can lower ours.
        if !self.in_frontier.get(u as usize) {
            return false;
        }
        let lu = self.label[u as usize].load(Ordering::Relaxed);
        if lu < self.label[dst as usize].load(Ordering::Relaxed) {
            self.label[dst as usize].store(lu, Ordering::Relaxed);
            self.activated.set(dst as usize);
        }
        false
    }

    #[inline]
    fn prefetch_src(&self, e: &E) {
        // The hot random read is the frontier bit of the neighbor; the
        // neighbor is `src` over an in-adjacency and `dst` over an
        // undirected out-adjacency, so hint both endpoints.
        self.in_frontier.prefetch(e.src() as usize);
        self.in_frontier.prefetch(e.dst() as usize);
    }

    #[inline]
    fn activated(&self, dst: VertexId) -> bool {
        self.activated.get(dst as usize)
    }
}

/// Vertex-centric WCC in the given `direction` over an **undirected**
/// adjacency — the body behind [`push`], [`pull`] and [`push_pull`].
/// Every vertex starts active.
pub(crate) fn run<E: EdgeRecord, L: VertexLayout<E>, P: MemProbe, R: Recorder>(
    adj: &L,
    direction: Direction,
    ctx: &ExecContext<'_, P, R>,
) -> WccResult {
    let nv = adj.num_vertices();
    let state = WccState::new(nv);
    let iterations = engine::edge_map(adj, VertexSubset::all(nv), &state, direction, *ctx);
    state.into_result(iterations)
}

/// Vertex-centric push WCC over an **undirected** adjacency (build it
/// from [`EdgeList::to_undirected`], which is what doubles the
/// pre-processing cost). Runs on any [`VertexLayout`].
pub fn push<E: EdgeRecord, L: VertexLayout<E>>(adj: &L) -> WccResult {
    run(adj, Direction::Push, &ExecContext::new())
}

/// Vertex-centric pull WCC over an **undirected** adjacency list: no
/// locks, no CAS — each vertex writes only itself (§6.1.2 applied to
/// label propagation).
pub fn pull<E: EdgeRecord, L: VertexLayout<E>>(adj: &L) -> WccResult {
    run(adj, Direction::Pull, &ExecContext::new())
}

/// Direction-optimizing WCC: push rounds while the active set is
/// small, pull rounds while it is large (the Ligra recipe applied to
/// label propagation). Requires an undirected adjacency list.
pub fn push_pull<E: EdgeRecord, L: VertexLayout<E>>(adj: &L) -> WccResult {
    run(adj, Direction::PushPull, &ExecContext::new())
}

/// Edge-centric WCC over the raw (directed) edge array: each stored
/// edge propagates the smaller label to the other endpoint, so no
/// undirected copy — and no pre-processing at all — is needed.
pub fn edge_centric<E: EdgeRecord>(edges: &EdgeList<E>) -> WccResult {
    scan_impl(edges, &ExecContext::new())
}

/// Grid WCC: like [`edge_centric`] but iterating cells in grid order,
/// so the labels of a cell's two vertex ranges stay cache-resident —
/// the §5 locality argument applied to label propagation.
pub fn grid<E: EdgeRecord>(grid: &crate::layout::Grid<E>) -> WccResult {
    scan_impl(&grid.cells(), &ExecContext::new())
}

/// Direction-free WCC over any streamed layout: full-scan rounds, each
/// streaming every edge once through [`WccState::relax_both`], until a
/// pass moves no label. Every vertex counts as active each round, and
/// the final no-change pass is recorded too.
pub(crate) fn scan_impl<E: EdgeRecord, S: EdgeStream<E>, P: MemProbe, R: Recorder>(
    stream: &S,
    ctx: &ExecContext<'_, P, R>,
) -> WccResult {
    let nv = stream.num_vertices();
    let state = WccState::new(nv);
    let mut iterations = Vec::new();
    loop {
        let changed = AtomicBool::new(false);
        let ((), seconds) = timed(|| {
            egraph_parallel::parallel_for(0..stream.num_units(), S::GRAIN, |units| {
                let mut any = false;
                for (_, run) in stream.runs(units) {
                    for e in run {
                        any |= state.relax_both(e);
                    }
                }
                if any {
                    changed.store(true, Ordering::Relaxed);
                }
            });
        });
        engine::record_full_scan(*ctx, &mut iterations, nv, stream.num_edges(), seconds);
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    state.into_result(iterations)
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
/// is a union-find pass over the *labels* of the inserted endpoints
/// followed by a relabel — no graph traversal at all. Deletions can
/// split components, which connectivity labels cannot repair locally,
/// so any batch with a delete (or one exceeding
/// [`super::INCREMENTAL_FALLBACK_FRACTION`]) recomputes from scratch on
/// the merged edge list.
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
            labels: reference(edges),
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
        self.apply_ctx(merged, batch, &ExecContext::new())
    }

    /// [`apply`](Self::apply) with telemetry: each batch repair is
    /// recorded as one iteration, with the batch-size-vs-fallback
    /// threshold as the decision log (deletes force the fallback
    /// regardless of the comparison).
    pub fn apply_ctx<E: EdgeRecord, P: MemProbe, R: Recorder>(
        &mut self,
        merged: &EdgeList<E>,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecContext<'_, P, R>,
    ) -> super::IncrementalOutcome {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, batch));
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
    ) -> super::IncrementalOutcome {
        let fraction = batch.len() as f64 / merged.num_edges().max(1) as f64;
        if batch.has_deletes() || fraction > super::INCREMENTAL_FALLBACK_FRACTION {
            self.labels = reference(merged);
            return super::IncrementalOutcome {
                fallback: true,
                touched: merged.num_vertices(),
            };
        }
        // Union-find over label values: labels are component minima, so
        // unioning toward the smaller root keeps them minima.
        let nv = self.labels.len();
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
        let mut merged_components = 0usize;
        for op in &batch.ops {
            let (src, dst) = op.endpoints();
            let a = find(&mut parent, self.labels[src as usize]);
            let b = find(&mut parent, self.labels[dst as usize]);
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
                merged_components += 1;
            }
        }
        if merged_components > 0 {
            for label in self.labels.iter_mut() {
                *label = find(&mut parent, *label);
            }
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
    use crate::metrics::StepMode;
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::Edge;

    fn components_graph() -> EdgeList<Edge> {
        // Component {0,1,2,3}, component {4,5}, isolated {6}.
        EdgeList::new(
            7,
            vec![
                Edge::new(1, 0),
                Edge::new(2, 1),
                Edge::new(3, 2),
                Edge::new(5, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn reference_labels() {
        let labels = reference(&components_graph());
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 4, 6]);
    }

    #[test]
    fn push_matches_reference() {
        let input = components_graph();
        let undirected = input.to_undirected();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&undirected);
        let result = push(&adj);
        assert_eq!(result.label, reference(&input));
        assert_eq!(result.component_count(), 3);
    }

    #[test]
    fn edge_centric_matches_reference() {
        let input = components_graph();
        let result = edge_centric(&input);
        assert_eq!(result.label, reference(&input));
    }

    #[test]
    fn random_graph_agreement() {
        let nv = 600usize;
        let mut state = 21u64;
        let mut edges = Vec::new();
        for _ in 0..900 {
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
        let expected = reference(&input);
        let undirected = input.to_undirected();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&undirected);
        assert_eq!(push(&adj).label, expected);
        assert_eq!(edge_centric(&input).label, expected);
    }

    #[test]
    fn pull_matches_reference() {
        let input = components_graph();
        let undirected = input.to_undirected();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&undirected);
        let result = pull(&adj);
        assert_eq!(result.label, reference(&input));
        assert!(result.iterations.iter().all(|s| s.mode == StepMode::Pull));
    }

    #[test]
    fn push_pull_matches_reference_random() {
        let nv = 500usize;
        let mut state = 31u64;
        let mut edges = Vec::new();
        for _ in 0..1200 {
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
        let expected = reference(&input);
        let undirected = input.to_undirected();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&undirected);
        assert_eq!(pull(&adj).label, expected, "pull");
        let pp = push_pull(&adj);
        assert_eq!(pp.label, expected, "push-pull");
        // A dense random graph starts with a full frontier: the first
        // round must be a pull.
        assert_eq!(pp.iterations[0].mode, StepMode::Pull);
    }

    #[test]
    fn grid_matches_reference() {
        use crate::preprocess::GridBuilder;
        let input = components_graph();
        let g = GridBuilder::new(Strategy::RadixSort).side(2).build(&input);
        assert_eq!(grid(&g).label, reference(&input));
    }

    #[test]
    fn grid_matches_reference_random() {
        use crate::preprocess::GridBuilder;
        let nv = 400usize;
        let mut state = 77u64;
        let mut edges = Vec::new();
        for _ in 0..700 {
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
        let g = GridBuilder::new(Strategy::CountSort).side(8).build(&input);
        assert_eq!(grid(&g).label, reference(&input));
    }

    #[test]
    fn empty_graph_has_all_singletons() {
        let input: EdgeList<Edge> = EdgeList::new(5, vec![]).unwrap();
        let result = edge_centric(&input);
        assert_eq!(result.component_count(), 5);
    }

    #[test]
    fn chain_needs_many_iterations_edge_centric() {
        // A long path whose edges are stored *against* the scan order,
        // so the minimum label travels roughly one hop per pass — the
        // high-diameter behaviour that §8 says favours adjacency lists.
        let n = 64u32;
        let edges: Vec<Edge> = (0..n - 1).rev().map(|v| Edge::new(v, v + 1)).collect();
        let input = EdgeList::new(n as usize, edges).unwrap();
        let result = edge_centric(&input);
        assert_eq!(result.component_count(), 1);
        assert!(result.label.iter().all(|&l| l == 0));
        assert!(
            result.iterations.len() > 5,
            "{} iterations",
            result.iterations.len()
        );
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
