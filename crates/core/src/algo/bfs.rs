//! Breadth-first search in every configuration the paper studies:
//! vertex-centric push (atomics or locks), vertex-centric pull with
//! early termination, direction-optimizing push-pull (Beamer's
//! heuristic, as in Ligra), edge-centric, and grid.
//!
//! This file holds BFS's state, its push/pull rules and the result
//! conversion; the iteration loop — and the direction choice — live in
//! `engine::edge_map`.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::engine::{
    self, EngineLayout, Flow, FrontierAlgo, Policy, PullAlgo, PullOp, PushOnly, PushOp,
};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{Adjacency, NeighborAccess, Sides, VertexLayout};
use crate::metrics::{timed, Direction, IterStat, SyncMode};
use crate::types::{EdgeRecord, VertexId, INVALID_VERTEX};
use crate::util::{AtomicBitmap, StripedLocks};

/// The result of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS tree: `parent[v]` is the predecessor of `v`, or
    /// [`INVALID_VERTEX`] if `v` is unreachable. `parent[root] == root`.
    pub parent: Vec<VertexId>,
    /// Discovery depth per vertex (`u32::MAX` if unreachable).
    pub level: Vec<u32>,
    /// Per-iteration statistics (Fig. 6).
    pub iterations: Vec<IterStat>,
}

impl BfsResult {
    /// Number of vertices reachable from the root (including it).
    pub fn reachable_count(&self) -> usize {
        self.parent.iter().filter(|&&p| p != INVALID_VERTEX).count()
    }

    /// Total algorithm seconds across iterations.
    pub fn algorithm_seconds(&self) -> f64 {
        self.iterations.iter().map(|s| s.seconds).sum()
    }
}

/// Shared BFS state: atomically claimed parents plus discovery levels.
/// As a [`PushOp`] it claims destinations with a compare-and-swap (the
/// baseline "adj. push" configuration).
pub(crate) struct BfsState {
    parent: Vec<AtomicU32>,
    level: Vec<AtomicU32>,
    round: AtomicU32,
}

impl BfsState {
    fn new(nv: usize, root: VertexId) -> Self {
        let state = Self {
            parent: (0..nv).map(|_| AtomicU32::new(INVALID_VERTEX)).collect(),
            level: (0..nv).map(|_| AtomicU32::new(u32::MAX)).collect(),
            round: AtomicU32::new(0),
        };
        state.parent[root as usize].store(root, Ordering::Relaxed);
        state.level[root as usize].store(0, Ordering::Relaxed);
        state
    }

    /// Records `dst` as discovered from `src` in the current round.
    #[inline]
    fn discover(&self, dst: usize, src: VertexId) {
        self.parent[dst].store(src, Ordering::Relaxed);
        self.level[dst].store(self.round.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn into_result(self, iterations: Vec<IterStat>) -> BfsResult {
        BfsResult {
            parent: self.parent.into_iter().map(AtomicU32::into_inner).collect(),
            level: self.level.into_iter().map(AtomicU32::into_inner).collect(),
            iterations,
        }
    }
}

impl<E: EdgeRecord> PushOp<E> for BfsState {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let dst = e.dst() as usize;
        if self.parent[dst].load(Ordering::Relaxed) != INVALID_VERTEX {
            return false;
        }
        let won = self.parent[dst]
            .compare_exchange(
                INVALID_VERTEX,
                e.src(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok();
        if won {
            self.level[dst].store(self.round.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        won
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for BfsState {
    // A claim succeeds once per vertex, so activations need no dedup.
    const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;

    fn begin_round(&self, _frontier: &VertexSubset) {
        self.round.fetch_add(1, Ordering::Relaxed);
    }
}

impl<E: EdgeRecord> PullAlgo<E> for BfsState {
    type Pull<'a> = BfsPull<'a>;

    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> BfsPull<'a> {
        BfsPull {
            state: self,
            in_frontier,
            activated,
        }
    }
}

/// Pull rule: an undiscovered vertex scans its in-neighbors for a
/// member of the previous frontier and stops at the first hit — no
/// synchronization needed, since each vertex only writes itself.
pub(crate) struct BfsPull<'a> {
    state: &'a BfsState,
    in_frontier: &'a AtomicBitmap,
    activated: &'a AtomicBitmap,
}

impl<E: EdgeRecord> PullOp<E> for BfsPull<'_> {
    #[inline]
    fn wants_pull(&self, dst: VertexId) -> bool {
        self.state.parent[dst as usize].load(Ordering::Relaxed) == INVALID_VERTEX
    }

    #[inline]
    fn pull(&self, dst: VertexId, e: &E) -> bool {
        let u = e.src();
        if self.in_frontier.get(u as usize) {
            // Only this thread writes `dst`'s state in pull mode.
            self.state.discover(dst as usize, u);
            self.activated.set(dst as usize);
            return true; // Early termination (§6.1.1).
        }
        false
    }

    #[inline]
    fn activated(&self, dst: VertexId) -> bool {
        self.activated.get(dst as usize)
    }
}

/// Push rule claiming destinations under per-vertex (striped) locks —
/// the paper's "push (with locks)" configuration (§6.1.2). Every access
/// to a destination's state happens under its stripe lock, so the
/// relaxed loads and stores inside are plain memory operations.
struct LockedBfs<'a> {
    state: &'a BfsState,
    locks: StripedLocks,
}

impl<E: EdgeRecord> PushOp<E> for LockedBfs<'_> {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let dst = e.dst();
        self.locks.with(dst, || {
            if self.state.parent[dst as usize].load(Ordering::Relaxed) != INVALID_VERTEX {
                return false;
            }
            self.state.discover(dst as usize, e.src());
            true
        })
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for LockedBfs<'_> {
    const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;

    fn begin_round(&self, _frontier: &VertexSubset) {
        self.state.round.fetch_add(1, Ordering::Relaxed);
    }
}

/// BFS from `root` under `policy` on any layout — the body behind every
/// `bfs/*` variant and [`IncrementalBfs`]: a [`Direction`] on a layout
/// that can pull, [`PushOnly`] on any. `sync` picks the push rule; only
/// pure push has a locked flavor.
pub(crate) fn run<E, F, L, P>(
    adj: &L,
    root: VertexId,
    policy: P,
    sync: SyncMode,
    ctx: &ExecCtx<'_>,
) -> BfsResult
where
    E: EdgeRecord,
    L: EngineLayout<E, F>,
    P: Policy<E, F, L, BfsState>,
{
    let state = BfsState::new(adj.num_vertices(), root);
    let frontier = VertexSubset::single(root);
    let iterations = if sync == SyncMode::Locks && matches!(policy.flow(), Flow::Push) {
        let locked = LockedBfs {
            state: &state,
            locks: StripedLocks::default(),
        };
        engine::edge_map(adj, frontier, &locked, PushOnly, ctx)
    } else {
        engine::edge_map(adj, frontier, &state, policy, ctx)
    };
    state.into_result(iterations)
}

/// A serial reference BFS used by tests and result validation.
pub fn reference<E: EdgeRecord>(out: &Adjacency<E>, root: VertexId) -> Vec<u32> {
    let nv = out.num_vertices();
    let mut level = vec![u32::MAX; nv];
    level[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for e in out.neighbors(u) {
            let v = e.dst() as usize;
            if level[v] == u32::MAX {
                level[v] = level[u as usize] + 1;
                queue.push_back(e.dst());
            }
        }
    }
    level
}

/// Incremental BFS over the delta layout (DESIGN.md §16): keeps the
/// level array of a fixed root and repairs only the affected subgraph
/// per applied batch.
///
/// Insertions are decrease-relaxations. Deletions run a two-phase
/// repair: first an *invalidation* fix-point — a vertex whose every
/// in-neighbor at `level-1` has itself been invalidated loses its
/// level, cascading down the tree — then a unit-weight Dijkstra over
/// the invalid region seeded from the still-valid boundary. The initial
/// levels, and the levels after a batch over
/// [`super::INCREMENTAL_FALLBACK_FRACTION`], are a direction-optimizing
/// batch run (the `bfs/*/push-pull` kernel) on the merged view.
#[derive(Debug, Clone)]
pub struct IncrementalBfs {
    root: VertexId,
    level: Vec<u32>,
    batches_applied: usize,
}

impl IncrementalBfs {
    /// Runs the initial direction-optimizing BFS from `root` on
    /// `merged` (a layout with both directions — the delta layout in
    /// the intended use).
    pub fn new<E, D>(merged: &Sides<D>, root: VertexId) -> Self
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let ctx = ExecCtx::default();
        let view = merged.as_ref();
        Self {
            root,
            level: run(&view, root, Direction::PushPull, SyncMode::Atomics, &ctx).level,
            batches_applied: 0,
        }
    }

    /// The current shortest-hop levels (`u32::MAX` = unreached).
    pub fn level(&self) -> &[u32] {
        &self.level
    }

    /// Repairs the levels after `batch` was applied; `merged` is the
    /// post-batch graph with both directions present.
    pub fn apply<E, D>(
        &mut self,
        merged: &Sides<D>,
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        self.apply_ctx(merged, batch, &ExecCtx::default())
    }

    /// [`apply`](Self::apply) with telemetry: each batch repair is
    /// recorded as one iteration — the touched vertices as the
    /// frontier, the batch size as the scanned edges, and the
    /// repair-vs-fallback threshold as the decision log.
    pub fn apply_ctx<E, D>(
        &mut self,
        merged: &Sides<D>,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, batch, ctx));
        super::record_repair(
            ctx,
            &mut self.batches_applied,
            outcome,
            batch.len(),
            VertexLayout::num_edges(merged),
            seconds,
        );
        outcome
    }

    fn apply_inner<E, D>(
        &mut self,
        merged: &Sides<D>,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let merged = merged.as_ref();
        let fraction = batch.len() as f64 / VertexLayout::num_edges(&merged).max(1) as f64;
        if fraction > super::INCREMENTAL_FALLBACK_FRACTION {
            // Unrecorded, so the batch stays one iteration record.
            let quiet = ExecCtx::new(ctx.pool());
            let policy = Direction::PushPull;
            self.level =
                quiet.scoped(|| run(&merged, self.root, policy, SyncMode::Atomics, &quiet).level);
            return super::IncrementalOutcome {
                fallback: true,
                touched: VertexLayout::num_vertices(&merged),
            };
        }
        let nv = VertexLayout::num_vertices(&merged);
        let mut invalid = vec![false; nv];
        let mut suspects = std::collections::VecDeque::new();
        for op in &batch.ops {
            if let crate::layout::DeltaOp::Delete { src, dst } = op {
                // Only a deleted tree-edge candidate (dst one level
                // below src) can unsupport dst.
                if self.level[*src as usize] != u32::MAX
                    && self.level[*dst as usize] == self.level[*src as usize].saturating_add(1)
                {
                    suspects.push_back(*dst);
                }
            }
        }
        // Phase 1: invalidation fix-point. A suspect keeps its level
        // while any valid in-neighbor sits exactly one level above it;
        // losing the last supporter cascades to the out-subtree.
        let mut invalidated = 0usize;
        while let Some(v) = suspects.pop_front() {
            if v == self.root || invalid[v as usize] || self.level[v as usize] == u32::MAX {
                continue;
            }
            let want = self.level[v as usize] - 1;
            let mut supported = false;
            merged.incoming().for_each_span(v, |span| {
                for (k, e) in span.iter().enumerate() {
                    let u = e.src();
                    if !invalid[u as usize] && self.level[u as usize] == want {
                        supported = true;
                        return k;
                    }
                }
                span.len()
            });
            if !supported {
                invalid[v as usize] = true;
                invalidated += 1;
                let below = self.level[v as usize] + 1;
                merged.out().for_each_span(v, |span| {
                    for e in span {
                        let w = e.dst();
                        if !invalid[w as usize] && self.level[w as usize] == below {
                            suspects.push_back(w);
                        }
                    }
                    span.len()
                });
            }
        }
        // Phase 2: repair. Invalid vertices drop to unreached, then a
        // unit-weight Dijkstra seeded from their valid in-boundary (and
        // from insert-relaxations) restores shortest levels.
        use std::cmp::Reverse;
        let mut heap = std::collections::BinaryHeap::new();
        for v in 0..nv as VertexId {
            if invalid[v as usize] {
                self.level[v as usize] = u32::MAX;
            }
        }
        for v in 0..nv as VertexId {
            if !invalid[v as usize] {
                continue;
            }
            let mut best = u32::MAX;
            merged.incoming().for_each_span(v, |span| {
                for e in span {
                    let u = e.src() as usize;
                    if !invalid[u] && self.level[u] != u32::MAX {
                        best = best.min(self.level[u].saturating_add(1));
                    }
                }
                span.len()
            });
            if best != u32::MAX {
                heap.push(Reverse((best, v)));
            }
        }
        for op in &batch.ops {
            if let crate::layout::DeltaOp::Insert(e) = op {
                let (src, dst) = (e.src() as usize, e.dst() as usize);
                if self.level[src] != u32::MAX
                    && self.level[src].saturating_add(1) < self.level[dst]
                {
                    heap.push(Reverse((self.level[src] + 1, e.dst())));
                }
            }
        }
        let mut improved = 0usize;
        while let Some(Reverse((cand, v))) = heap.pop() {
            if cand >= self.level[v as usize] {
                continue;
            }
            self.level[v as usize] = cand;
            improved += 1;
            merged.out().for_each_span(v, |span| {
                for e in span {
                    let w = e.dst();
                    if cand + 1 < self.level[w as usize] {
                        heap.push(Reverse((cand + 1, w)));
                    }
                }
                span.len()
            });
        }
        super::IncrementalOutcome {
            fallback: false,
            touched: invalidated + improved,
        }
    }
}

/// Validates that a BFS result is a correct shortest-hop tree for the
/// graph; returns the number of reachable vertices.
///
/// # Panics
///
/// Panics (with a description) if the parent array or levels are
/// inconsistent with `reference` levels.
pub fn validate<E: EdgeRecord>(out: &Adjacency<E>, root: VertexId, result: &BfsResult) -> usize {
    let expected = reference(out, root);
    assert_eq!(expected.len(), result.level.len());
    for v in 0..expected.len() {
        assert_eq!(
            result.level[v], expected[v],
            "vertex {v}: level {} != reference {}",
            result.level[v], expected[v]
        );
        if expected[v] != u32::MAX && v as u32 != root {
            let p = result.parent[v];
            assert_ne!(p, INVALID_VERTEX, "reachable vertex {v} has no parent");
            assert_eq!(
                expected[p as usize] + 1,
                expected[v],
                "vertex {v}: parent {p} is not one level up"
            );
        }
    }
    expected.iter().filter(|&&l| l != u32::MAX).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AdjacencyList, EdgeDirection, Grid};
    use crate::metrics::StepMode;
    use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use crate::types::{Edge, EdgeList};

    /// A deterministic pseudo-random graph with a giant component.
    fn test_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<Edge> {
        let mut state = seed | 1;
        let mut edges = Vec::with_capacity(ne + nv);
        // A chain guarantees reachability structure worth testing.
        for v in 0..nv as u32 / 2 {
            edges.push(Edge::new(v, v + 1));
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
            edges.push(Edge::new(src, dst));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn layouts(input: &EdgeList<Edge>) -> (AdjacencyList<Edge>, Grid<Edge>) {
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(input);
        let grid = GridBuilder::new(Strategy::RadixSort).side(8).build(input);
        (adj, grid)
    }

    /// BFS from vertex 0 under the default context.
    fn bfs0<F, L, P>(layout: &L, policy: P, sync: SyncMode) -> BfsResult
    where
        L: EngineLayout<Edge, F>,
        P: Policy<Edge, F, L, BfsState>,
    {
        run(layout, 0, policy, sync, &ExecCtx::default())
    }

    #[test]
    fn push_matches_reference() {
        let input = test_graph(500, 2000, 42);
        let (adj, _) = layouts(&input);
        let result = bfs0(&adj, Direction::Push, SyncMode::Atomics);
        let reachable = validate(adj.out(), 0, &result);
        assert!(reachable > 200);
        assert_eq!(result.reachable_count(), reachable);
    }

    #[test]
    fn push_locked_matches_reference() {
        let input = test_graph(400, 1500, 7);
        let (adj, _) = layouts(&input);
        let result = bfs0(&adj, Direction::Push, SyncMode::Locks);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn pull_matches_reference() {
        let input = test_graph(400, 1500, 11);
        let (adj, _) = layouts(&input);
        let result = bfs0(&adj, Direction::Pull, SyncMode::Atomics);
        validate(adj.out(), 0, &result);
        assert!(result.iterations.iter().all(|s| s.mode == StepMode::Pull));
    }

    #[test]
    fn push_pull_matches_reference_and_switches() {
        let input = test_graph(2000, 30_000, 13);
        let (adj, _) = layouts(&input);
        let result = bfs0(&adj, Direction::PushPull, SyncMode::Atomics);
        validate(adj.out(), 0, &result);
        // A dense random graph must trigger at least one pull step.
        assert!(result.iterations.iter().any(|s| s.mode == StepMode::Pull));
        assert!(result.iterations.iter().any(|s| s.mode == StepMode::Push));
    }

    #[test]
    fn edge_centric_matches_reference() {
        let input = test_graph(300, 1000, 17);
        let (adj, _) = layouts(&input);
        let result = bfs0(&input, PushOnly, SyncMode::Atomics);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn grid_matches_reference() {
        let input = test_graph(300, 1000, 19);
        let (adj, grid_layout) = layouts(&input);
        let result = bfs0(&grid_layout, PushOnly, SyncMode::Atomics);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn grid_side_larger_than_vertices() {
        // A side past the vertex count, which `run_variant` refuses: the
        // kernel itself copes with the empty rows and columns.
        let graph = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let grid = GridBuilder::new(Strategy::CountSort).side(8).build(&graph);
        assert_eq!(grid.num_edges(), 2);
        let r = bfs0(&grid, PushOnly, SyncMode::Atomics);
        assert_eq!(r.reachable_count(), 3);
    }

    #[test]
    fn disconnected_root_only() {
        let input = EdgeList::new(5, vec![Edge::new(1, 2)]).unwrap();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        let result = bfs0(&adj, Direction::Push, SyncMode::Atomics);
        assert_eq!(result.reachable_count(), 1);
        assert_eq!(result.parent[0], 0);
        assert_eq!(result.parent[3], INVALID_VERTEX);
    }

    #[test]
    fn self_loops_and_duplicates_are_harmless() {
        let input = EdgeList::new(
            3,
            vec![
                Edge::new(0, 0),
                Edge::new(0, 1),
                Edge::new(0, 1),
                Edge::new(1, 2),
            ],
        )
        .unwrap();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both).build(&input);
        for result in [
            bfs0(&adj, Direction::Push, SyncMode::Atomics),
            bfs0(&adj, Direction::Pull, SyncMode::Atomics),
            bfs0(&adj, Direction::PushPull, SyncMode::Atomics),
        ] {
            assert_eq!(result.reachable_count(), 3);
            assert_eq!(result.level[2], 2);
        }
    }

    #[test]
    fn all_variants_agree_on_levels() {
        let input = test_graph(800, 5000, 23);
        let (adj, grid_layout) = layouts(&input);
        let baseline = reference(adj.out(), 0);
        for (name, result) in [
            ("push", bfs0(&adj, Direction::Push, SyncMode::Atomics)),
            ("push_locked", bfs0(&adj, Direction::Push, SyncMode::Locks)),
            ("pull", bfs0(&adj, Direction::Pull, SyncMode::Atomics)),
            (
                "push_pull",
                bfs0(&adj, Direction::PushPull, SyncMode::Atomics),
            ),
            ("edge", bfs0(&input, PushOnly, SyncMode::Atomics)),
            ("grid", bfs0(&grid_layout, PushOnly, SyncMode::Atomics)),
        ] {
            assert_eq!(result.level, baseline, "{name}");
        }
    }

    #[test]
    fn recorder_matches_result_iterations_on_diamond() {
        let input = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
        .unwrap();
        let (adj, _) = layouts(&input);
        let recorder = crate::telemetry::TraceRecorder::new();
        let result = run(
            &adj,
            0,
            Direction::Push,
            SyncMode::Atomics,
            &ExecCtx::default().recorder(&recorder),
        );
        let recorded = recorder.iterations();
        assert_eq!(recorded.len(), result.iterations.len());
        for (step, (rec, stat)) in recorded.iter().zip(&result.iterations).enumerate() {
            assert_eq!((rec.step, &rec.stat), (step, stat));
        }
        // Diamond levels: 0, 1, 1, 2 — three push steps discover, the
        // fourth finds an empty next frontier.
        assert_eq!(recorded[0].stat.frontier_size, 1);
        assert_eq!(recorded[0].stat.edges_scanned, 2);
    }

    #[test]
    fn null_recorder_results_identical_to_traced() {
        let input = test_graph(600, 4000, 31);
        let (adj, _) = layouts(&input);
        // One thread: which frontier vertex claims a child is otherwise
        // schedule-dependent, and the parents must match exactly.
        let pool = egraph_parallel::ThreadPool::new(1);
        let recorder = crate::telemetry::TraceRecorder::new();
        let (plain, traced) = egraph_parallel::with_pool(&pool, || {
            let ctx = ExecCtx::default().recorder(&recorder);
            let traced = run(&adj, 0, Direction::Push, SyncMode::Atomics, &ctx);
            (bfs0(&adj, Direction::Push, SyncMode::Atomics), traced)
        });
        assert_eq!(plain.parent, traced.parent);
        assert_eq!(plain.level, traced.level);
        assert!(recorder.counters()[crate::engine::EDGES_EXAMINED] > 0.0);
    }

    #[test]
    fn iteration_stats_recorded() {
        let input = test_graph(500, 3000, 29);
        let (adj, _) = layouts(&input);
        let result = bfs0(&adj, Direction::Push, SyncMode::Atomics);
        assert!(!result.iterations.is_empty());
        assert_eq!(result.iterations[0].frontier_size, 1);
        assert!(result.algorithm_seconds() >= 0.0);
    }

    /// The merged delta layout the incremental engine repairs over.
    fn delta_view(
        base: &EdgeList<Edge>,
        log: &crate::layout::DeltaLog<Edge>,
    ) -> crate::layout::DeltaList<Edge> {
        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(base)
            .into_parts();
        crate::layout::DeltaList::new(out, inc, log)
    }

    /// Reference levels of the merged graph (fresh CSR, serial BFS).
    fn merged_levels(base: &EdgeList<Edge>, log: &crate::layout::DeltaLog<Edge>) -> Vec<u32> {
        let merged = log.merge_into(base);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&merged);
        reference(adj.out(), 0)
    }

    #[test]
    fn incremental_bfs_repairs_inserts_and_deletes() {
        use crate::layout::{DeltaBatch, DeltaLog, DeltaOp};
        let base = test_graph(200, 900, 41);
        let mut log = DeltaLog::new();
        let mut engine = IncrementalBfs::new(&delta_view(&base, &log), 0);
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);

        // Mixed small batch: shortcut inserts plus deletions that hit
        // tree edges (every (s, d) one level apart is a candidate).
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Insert(Edge::new(0, 150)));
        batch.ops.push(DeltaOp::Insert(Edge::new(150, 151)));
        let lv = engine.level().to_vec();
        let tree_edge = base
            .edges()
            .iter()
            .find(|e| {
                lv[e.src() as usize] != u32::MAX && lv[e.dst() as usize] == lv[e.src() as usize] + 1
            })
            .copied()
            .expect("some tree edge exists");
        batch.ops.push(DeltaOp::Delete {
            src: tree_edge.src(),
            dst: tree_edge.dst(),
        });
        for op in &batch.ops {
            log.push(*op);
        }
        let outcome = engine.apply(&delta_view(&base, &log), &batch);
        assert!(!outcome.fallback, "3 ops on 900 edges stays incremental");
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);

        // Severing a chain leaves the tail unreached.
        let chain = EdgeList::new(40, (0..39).map(|v| Edge::new(v, v + 1)).collect()).unwrap();
        let mut clog = DeltaLog::new();
        let mut ce = IncrementalBfs::new(&delta_view(&chain, &clog), 0);
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Delete { src: 20, dst: 21 });
        clog.push(batch.ops[0]);
        let outcome = ce.apply(&delta_view(&chain, &clog), &batch);
        assert!(!outcome.fallback);
        assert_eq!(ce.level(), &merged_levels(&chain, &clog)[..]);
        assert_eq!(ce.level()[21], u32::MAX);

        // Oversized batches fall back to from-scratch.
        let mut big = DeltaBatch::new();
        for v in 0..60u32 {
            big.ops.push(DeltaOp::Insert(Edge::new(v, v + 100)));
        }
        for op in &big.ops {
            log.push(*op);
        }
        let outcome = engine.apply(&delta_view(&base, &log), &big);
        assert!(outcome.fallback, "60 ops on ~900 edges exceeds 5%");
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);
    }
}
