//! Direct unit tests of the engine drivers, with instrumented toy
//! operators (the algorithms provide end-to-end coverage; these tests
//! pin the driver contracts themselves).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use super::*;
use crate::layout::{EdgeDirection, VertexLayout};
use crate::metrics::{Direction, DirectionDecision, IterStat, StepMode};
use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
use crate::telemetry::TraceRecorder;
use crate::types::{Edge, EdgeList};
use crate::util::AtomicBitmap;

fn diamond() -> EdgeList<Edge> {
    // 0 -> {1,2} -> 3, plus a stray 3 -> 0 back edge.
    EdgeList::new(
        4,
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 3),
            Edge::new(2, 3),
            Edge::new(3, 0),
        ],
    )
    .unwrap()
}

/// Counts and logs pushes; activates every destination exactly once.
struct CountingOp {
    pushes: AtomicUsize,
    pushed: Mutex<Vec<(VertexId, VertexId)>>,
    activated: AtomicBitmap,
}

impl CountingOp {
    fn new(nv: usize) -> Self {
        Self {
            pushes: AtomicUsize::new(0),
            pushed: Mutex::new(Vec::new()),
            activated: AtomicBitmap::new(nv),
        }
    }

    /// The pushed edges as sorted `(src, dst)` pairs.
    fn pushed_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut pushed = self.pushed.lock().unwrap().clone();
        pushed.sort_unstable();
        pushed
    }
}

impl<E: EdgeRecord> PushOp<E> for CountingOp {
    fn push(&self, e: &E) -> bool {
        self.pushes.fetch_add(1, Ordering::Relaxed);
        self.pushed.lock().unwrap().push((e.src(), e.dst()));
        self.activated.set(e.dst() as usize)
    }
}

/// The sorted `(src, dst)` pairs of `graph` whose source `keep` admits.
fn edges_from(
    graph: &EdgeList<Edge>,
    keep: impl Fn(VertexId) -> bool,
) -> Vec<(VertexId, VertexId)> {
    let mut edges: Vec<_> = (graph.edges().iter())
        .filter(|e| keep(e.src()))
        .map(|e| (e.src(), e.dst()))
        .collect();
    edges.sort_unstable();
    edges
}

/// A dense frontier of `members` over `nv` vertices — what a scanning
/// round takes.
fn dense(nv: usize, members: &[u32]) -> VertexSubset {
    VertexSubset::from_vec(members.to_vec()).into_dense(nv)
}

#[test]
fn vertex_push_processes_only_frontier_edges() {
    let graph = diamond();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    let op = CountingOp::new(4);
    let frontier = VertexSubset::from_vec(vec![0]);
    let next = vertex_push(
        adj.out(),
        &frontier,
        &op,
        &ExecCtx::default(),
        FrontierKind::Sparse,
    );
    assert_eq!(op.pushes.load(Ordering::Relaxed), 2, "only 0's out-edges");
    assert_eq!(next.len(), 2);
    let mut v = match next {
        VertexSubset::Sparse(v) => v,
        _ => panic!("sparse requested"),
    };
    v.sort_unstable();
    assert_eq!(v, vec![1, 2]);
}

#[test]
fn vertex_push_dense_frontier_equivalent() {
    let graph = diamond();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    let op = CountingOp::new(4);
    let frontier = VertexSubset::from_vec(vec![0]).into_dense(4);
    let next = vertex_push(
        adj.out(),
        &frontier,
        &op,
        &ExecCtx::default(),
        FrontierKind::Dense,
    );
    assert_eq!(op.pushes.load(Ordering::Relaxed), 2);
    assert_eq!(next.len(), 2);
}

#[test]
fn vertex_push_processes_every_out_edge_of_every_frontier_member() {
    let graph = diamond();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    for frontier in [
        VertexSubset::from_vec(vec![3, 1, 0, 2]),
        VertexSubset::all(4),
    ] {
        let op = CountingOp::new(4);
        vertex_push(
            adj.out(),
            &frontier,
            &op,
            &ExecCtx::default(),
            FrontierKind::Dense,
        );
        assert_eq!(op.pushed_edges(), edges_from(&graph, |_| true));
    }
}

#[test]
fn scan_push_pushes_only_from_the_frontier() {
    let graph = diamond();
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    // Exactly the edges out of 1 and 2 fire — (1,3) and (2,3) — on
    // every cut.
    let frontier = dense(4, &[1, 2]);
    let ctx = &ExecCtx::default();
    let (edge, columns, cells) = (CountingOp::new(4), CountingOp::new(4), CountingOp::new(4));
    for (op, next) in [
        (
            &edge,
            graph.push_round(&frontier, &edge, ctx, FrontierKind::Dense),
        ),
        (
            &columns,
            grid.push_round(&frontier, &columns, ctx, FrontierKind::Dense),
        ),
        (
            &cells,
            (grid.cells()).push_round(&frontier, &cells, ctx, FrontierKind::Dense),
        ),
    ] {
        assert_eq!(op.pushes.load(Ordering::Relaxed), 2);
        assert_eq!(op.pushed_edges(), edges_from(&graph, |v| v == 1 || v == 2));
        assert_eq!(next.len(), 1, "3 activated once (dense dedup)");
        assert!(next.contains(3));
    }
}

#[test]
fn scan_push_from_every_vertex_covers_all_edges_once() {
    let graph = diamond();
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    let all = VertexSubset::all(4);
    let ctx = &ExecCtx::default();
    let (columns, cells) = (CountingOp::new(4), CountingOp::new(4));
    let next = grid.push_round(&all, &columns, ctx, FrontierKind::Dense);
    assert_eq!(columns.pushes.load(Ordering::Relaxed), graph.num_edges());
    assert_eq!(next.len(), 4);
    (grid.cells()).push_round(&all, &cells, ctx, FrontierKind::Dense);
    assert_eq!(cells.pushes.load(Ordering::Relaxed), graph.num_edges());
}

#[test]
#[should_panic(expected = "dense frontier")]
fn scan_push_rejects_a_sparse_frontier() {
    let frontier = VertexSubset::from_vec(vec![1, 2]);
    let op = CountingOp::new(4);
    diamond().push_round(&frontier, &op, &ExecCtx::default(), FrontierKind::Dense);
}

/// Pull operator that records scan lengths and stops after the first
/// in-edge (early termination).
struct EarlyStopPull {
    scanned: AtomicUsize,
}

impl<E: EdgeRecord> PullOp<E> for EarlyStopPull {
    fn wants_pull(&self, dst: VertexId) -> bool {
        dst == 3
    }

    fn pull(&self, dst: VertexId, e: &E) -> bool {
        assert_eq!(
            (dst, e.dst()),
            (3, 3),
            "offered to a receiver that does not pull"
        );
        self.scanned.fetch_add(1, Ordering::Relaxed);
        true // stop immediately
    }

    fn activated(&self, dst: VertexId) -> bool {
        dst == 3
    }
}

#[test]
fn vertex_pull_early_termination_and_filtering() {
    let graph = diamond();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build(&graph);
    let op = EarlyStopPull {
        scanned: AtomicUsize::new(0),
    };
    let next = vertex_pull(
        adj.incoming(),
        0..4,
        &op,
        &ExecCtx::default(),
        FrontierKind::Sparse,
    );
    // Vertex 3 has two in-edges but stops after one.
    assert_eq!(op.scanned.load(Ordering::Relaxed), 1);
    assert_eq!(next.len(), 1);
    assert!(next.contains(3));

    // A receiver range leaves the vertices outside it alone.
    let next = vertex_pull(
        adj.incoming(),
        0..3,
        &op,
        &ExecCtx::default(),
        FrontierKind::Sparse,
    );
    assert_eq!(op.scanned.load(Ordering::Relaxed), 1);
    assert!(next.is_empty());
}

#[test]
fn grid_pull_reads_a_provider_only_where_the_receiver_wants_to_pull() {
    // Only vertex 3 wants to pull. Its two in-edges lie in different
    // cells, so both are offered: a `pull` that asks to stop cannot end
    // a scan the grid does not keep together.
    let graph = diamond();
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    let pull = EarlyStopPull {
        scanned: AtomicUsize::new(0),
    };
    grid.pull_round(&pull, &ExecCtx::default(), FrontierKind::Sparse);
    assert_eq!(pull.scanned.load(Ordering::Relaxed), 2);
}

#[test]
fn grid_pull_round_offers_each_edge_to_its_receiver_inside_its_column() {
    let graph = diamond();
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    // Counts pulls per receiver, checks the provider, and logs which
    // worker task asked each vertex whether it activated.
    struct RecordingPull<'a> {
        graph: &'a EdgeList<Edge>,
        per_vertex: Vec<AtomicUsize>,
        asked: Mutex<Vec<VertexId>>,
    }
    impl PullOp<Edge> for RecordingPull<'_> {
        fn wants_pull(&self, _dst: VertexId) -> bool {
            true
        }
        fn pull(&self, receiver: VertexId, e: &Edge) -> bool {
            assert_eq!(receiver, e.dst(), "the receiver is the edge's destination");
            assert!(self.graph.edges().contains(e), "stored as given: {e:?}");
            self.per_vertex[receiver as usize].fetch_add(1, Ordering::Relaxed);
            false
        }
        fn activated(&self, dst: VertexId) -> bool {
            self.asked.lock().unwrap().push(dst);
            dst % 2 == 1
        }
    }
    for threads in [1, 2] {
        let op = RecordingPull {
            graph: &graph,
            per_vertex: (0..4).map(|_| AtomicUsize::new(0)).collect(),
            asked: Mutex::new(Vec::new()),
        };
        let pool = egraph_parallel::ThreadPool::new(threads);
        let next = egraph_parallel::with_pool(&pool, || {
            grid.pull_round(&op, &ExecCtx::default(), FrontierKind::Sparse)
        });
        let counts: Vec<usize> = (op.per_vertex.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // In-degrees of the diamond: 0<-3 (1), 1<-0 (1), 2<-0 (1), 3<-1,2 (2).
        assert_eq!(counts, vec![1, 1, 1, 2]);
        // Activations are collected per owned column range — column 0
        // holds {0, 1}, column 1 holds {2, 3} — so every vertex is asked
        // exactly once, and the round returns what the rule reported.
        let mut asked = op.asked.into_inner().unwrap();
        asked.sort_unstable();
        assert_eq!(asked, vec![0, 1, 2, 3]);
        let VertexSubset::Sparse(mut activated) = next else {
            panic!("sparse requested")
        };
        activated.sort_unstable();
        assert_eq!(activated, vec![1, 3]);
    }
}

#[test]
fn recorder_counts_edges_examined() {
    let graph = diamond();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    let recorder = TraceRecorder::new();
    let op = CountingOp::new(4);
    let frontier = VertexSubset::from_vec(vec![0, 1, 2, 3]);
    vertex_push(
        adj.out(),
        &frontier,
        &op,
        &ExecCtx::default().recorder(&recorder),
        FrontierKind::Dense,
    );
    assert_eq!(
        recorder.counters()[EDGES_EXAMINED],
        graph.num_edges() as f64
    );

    let recorder = TraceRecorder::new();
    let ctx = &ExecCtx::default().recorder(&recorder);
    graph.push_round(&dense(4, &[0]), &op, ctx, FrontierKind::Dense);
    assert_eq!(
        recorder.counters()[EDGES_EXAMINED],
        graph.num_edges() as f64,
        "edge-centric scans the whole edge array"
    );
}

#[test]
fn empty_graph_drivers_are_noops() {
    let graph: EdgeList<Edge> = EdgeList::new(0, vec![]).unwrap();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    let op = CountingOp::new(0);
    assert!(vertex_push(
        adj.out(),
        &VertexSubset::empty(),
        &op,
        &ExecCtx::default(),
        FrontierKind::Sparse
    )
    .is_empty());
    let none = dense(0, &[]);
    let ctx = &ExecCtx::default();
    assert!((graph.push_round(&none, &op, ctx, FrontierKind::Sparse)).is_empty());
    assert!((grid.push_round(&none, &op, ctx, FrontierKind::Sparse)).is_empty());
    assert_eq!(op.pushes.load(Ordering::Relaxed), 0);
}

/// A toy frontier algorithm for the driver tests: every vertex ends up
/// with the smallest id that reaches it along edge direction. It also
/// checks the `begin_round` contract: the frontier it is handed is the
/// one the round then scans.
struct MinLabel {
    label: Vec<AtomicU32>,
    /// The sorted frontier of every round begun so far.
    frontiers: Mutex<Vec<Vec<VertexId>>>,
}

impl MinLabel {
    fn new(nv: usize) -> Self {
        Self {
            label: (0..nv as u32).map(AtomicU32::new).collect(),
            frontiers: Mutex::new(Vec::new()),
        }
    }

    fn in_round_frontier(&self, v: VertexId) -> bool {
        let frontiers = self.frontiers.lock().unwrap();
        frontiers.last().unwrap().binary_search(&v).is_ok()
    }

    fn labels(&self) -> Vec<u32> {
        (self.label.iter().map(|l| l.load(Ordering::Relaxed))).collect()
    }
}

impl<E: EdgeRecord> PushOp<E> for MinLabel {
    fn push(&self, e: &E) -> bool {
        assert!(self.in_round_frontier(e.src()), "pushed from {}", e.src());
        let l = self.label[e.src() as usize].load(Ordering::Relaxed);
        self.label[e.dst() as usize].fetch_min(l, Ordering::Relaxed) > l
    }
}

struct MinLabelPull<'a> {
    label: &'a [AtomicU32],
    in_frontier: &'a AtomicBitmap,
    activated: &'a AtomicBitmap,
}

impl<E: EdgeRecord> PullOp<E> for MinLabelPull<'_> {
    fn wants_pull(&self, _dst: VertexId) -> bool {
        true
    }

    fn pull(&self, dst: VertexId, e: &E) -> bool {
        if self.in_frontier.get(e.src() as usize) {
            let l = self.label[e.src() as usize].load(Ordering::Relaxed);
            if self.label[dst as usize].fetch_min(l, Ordering::Relaxed) > l {
                self.activated.set(dst as usize);
            }
        }
        false
    }

    fn activated(&self, dst: VertexId) -> bool {
        self.activated.get(dst as usize)
    }
}

impl<E: EdgeRecord> FrontierAlgo<E> for MinLabel {
    const PUSH_NEXT: FrontierKind = FrontierKind::Dense;

    fn begin_round(&self, frontier: &VertexSubset) {
        let mut members = match frontier {
            VertexSubset::Sparse(list) => list.clone(),
            VertexSubset::Dense { bitmap, .. } => bitmap.to_vec(),
        };
        members.sort_unstable();
        self.frontiers.lock().unwrap().push(members);
    }
}

impl<E: EdgeRecord> PullAlgo<E> for MinLabel {
    type Pull<'a> = MinLabelPull<'a>;

    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> MinLabelPull<'a> {
        let frontiers = self.frontiers.lock().unwrap();
        assert_eq!(frontiers.last(), Some(&in_frontier.to_vec()));
        MinLabelPull {
            label: &self.label,
            in_frontier,
            activated,
        }
    }
}

const POLICIES: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::PushPull];

/// Runs [`MinLabel`] over `layout` from `frontier` under `policy`.
fn min_label_on<F, L, P>(layout: &L, frontier: VertexSubset, policy: P) -> (Vec<u32>, Vec<IterStat>)
where
    L: EngineLayout<Edge, F>,
    P: Policy<Edge, F, L, MinLabel> + std::fmt::Debug,
{
    let algo = MinLabel::new(layout.num_vertices());
    let log = edge_map(layout, frontier, &algo, policy, &ExecCtx::default());
    // One `begin_round` per recorded round, each handed that round's
    // frontier (and `MinLabel::push` saw no source outside it).
    let begun: Vec<usize> = (algo.frontiers.lock().unwrap().iter().map(Vec::len)).collect();
    let scanned: Vec<usize> = log.iter().map(|stat| stat.frontier_size).collect();
    assert_eq!(begun, scanned, "{policy:?}");
    (algo.labels(), log)
}

/// [`min_label_on`] the two-direction CSR of `graph`.
fn min_label_run(
    graph: &EdgeList<Edge>,
    frontier: VertexSubset,
    policy: Direction,
) -> (Vec<u32>, Vec<IterStat>) {
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(graph);
    min_label_on(&adj, frontier, policy)
}

#[test]
fn edge_map_reaches_one_fixpoint_under_every_policy_and_on_every_layout() {
    // A hub (0 -> 1 -> 300 spokes -> sink) next to an unreached pair,
    // and a chain next to a second, shorter one.
    let mut hub = vec![Edge::new(0, 1), Edge::new(310, 311)];
    for spoke in 2..302 {
        hub.push(Edge::new(1, spoke));
        hub.push(Edge::new(spoke, 302));
    }
    let hub = EdgeList::new(312, hub).unwrap();
    let mut hub_expected = vec![0u32; 312];
    for (v, l) in hub_expected.iter_mut().enumerate().skip(303) {
        *l = if v == 311 { 310 } else { v as u32 };
    }
    let mut chain: Vec<Edge> = (0..60).map(|v| Edge::new(v, v + 1)).collect();
    chain.extend((70..75).map(|v| Edge::new(v, v + 1)));
    let chain = EdgeList::new(76, chain).unwrap();
    let mut chain_expected = vec![0u32; 76];
    for (v, l) in chain_expected.iter_mut().enumerate().skip(61) {
        *l = if v < 70 { v as u32 } else { 70 };
    }

    for (graph, expected) in [(&hub, &hub_expected), (&chain, &chain_expected)] {
        for threads in [1, 2, 4] {
            let pool = egraph_parallel::ThreadPool::new(threads);
            for policy in POLICIES {
                let all = || VertexSubset::all(graph.num_vertices());
                let (labels, log) =
                    egraph_parallel::with_pool(&pool, || min_label_run(graph, all(), policy));
                assert_eq!(&labels, expected, "{policy:?} at {threads} threads");
                assert!(!log.is_empty());
            }
            // Push over the streamed layouts: the same fixpoint from
            // rounds that each scan every edge.
            let grid = GridBuilder::new(Strategy::RadixSort).side(4).build(graph);
            let streamed = egraph_parallel::with_pool(&pool, || {
                let all = || VertexSubset::all(graph.num_vertices());
                [
                    ("edge", min_label_on(graph, all(), PushOnly)),
                    ("columns", min_label_on(&grid, all(), PushOnly)),
                    ("cells", min_label_on(&grid.cells(), all(), PushOnly)),
                ]
            });
            for (cut, (labels, log)) in streamed {
                assert_eq!(&labels, expected, "{cut} at {threads} threads");
                for stat in &log {
                    assert_eq!(stat.edges_scanned, graph.num_edges(), "{cut}");
                    assert!(stat.mode == StepMode::Push && stat.decision.forced);
                }
            }
            // The grid's columns can pull too: every run-time policy,
            // the same fixpoint, and the forced ones hold their mode.
            for policy in POLICIES {
                let all = VertexSubset::all(graph.num_vertices());
                let (labels, log) =
                    egraph_parallel::with_pool(&pool, || min_label_on(&grid, all, policy));
                assert_eq!(&labels, expected, "grid {policy:?} at {threads} threads");
                for stat in &log {
                    assert_eq!(stat.edges_scanned, graph.num_edges(), "grid {policy:?}");
                    assert_eq!(stat.mode == StepMode::Push, policy == Direction::Push);
                }
            }
        }
    }
}

/// Vertex 0 fans out to `fan` vertices; a far-away chain pads the graph
/// to exactly 200 edges, so the switch cutoff is 10.
fn fan_graph(fan: u32) -> EdgeList<Edge> {
    let mut edges: Vec<Edge> = (1..=fan).map(|v| Edge::new(0, v)).collect();
    edges.extend((0..200 - fan).map(|i| Edge::new(100 + i, 101 + i)));
    EdgeList::new(400, edges).unwrap()
}

#[test]
fn heuristic_flips_exactly_above_the_cutoff_and_forced_policies_never_flip() {
    // observed = out-degree + 1: fan 9 sits on the cutoff, fan 10 is
    // one above it.
    for (fan, first_mode) in [(9, StepMode::Push), (10, StepMode::Pull)] {
        let graph = fan_graph(fan);
        let (_, log) = min_label_run(&graph, VertexSubset::single(0), Direction::PushPull);
        assert_eq!(log[0].mode, first_mode, "fan {fan}");
        assert_eq!(
            log[0].decision,
            DirectionDecision::heuristic(fan as usize + 1, 10)
        );
        for stat in &log {
            let says_pull = stat.decision.observed > stat.decision.cutoff;
            assert_eq!(stat.mode == StepMode::Pull, says_pull, "{stat:?}");
            assert!(!stat.decision.forced);
        }
        for (policy, mode) in [
            (Direction::Push, StepMode::Push),
            (Direction::Pull, StepMode::Pull),
        ] {
            // Every vertex active: far above the cutoff, yet forced
            // push never pulls; a lone vertex never makes forced pull
            // push.
            for frontier in [VertexSubset::all(400), VertexSubset::single(0)] {
                let (_, log) = min_label_run(&graph, frontier, policy);
                assert!(log.iter().all(|s| s.mode == mode && s.decision.forced));
                assert!(log.iter().all(|s| s.decision.cutoff == 10));
            }
        }
    }
}

/// [`MinLabel`] with a log: every edge it pushes, and what each round
/// hands `next_frontier` — `(sparse?, members in the order given)`.
struct Logged {
    rule: MinLabel,
    pushed: Mutex<Vec<(VertexId, VertexId)>>,
    activated: Mutex<Vec<(bool, Vec<VertexId>)>>,
}

impl Logged {
    fn new(nv: usize) -> Self {
        Self {
            rule: MinLabel::new(nv),
            pushed: Mutex::new(Vec::new()),
            activated: Mutex::new(Vec::new()),
        }
    }
}

impl PushOp<Edge> for Logged {
    fn push(&self, e: &Edge) -> bool {
        self.pushed.lock().unwrap().push((e.src(), e.dst()));
        PushOp::<Edge>::push(&self.rule, e)
    }
}

impl FrontierAlgo<Edge> for Logged {
    const PUSH_NEXT: FrontierKind = <MinLabel as FrontierAlgo<Edge>>::PUSH_NEXT;

    fn begin_round(&self, frontier: &VertexSubset) {
        FrontierAlgo::<Edge>::begin_round(&self.rule, frontier);
    }

    fn next_frontier(&self, activated: VertexSubset) -> VertexSubset {
        let entry = match &activated {
            VertexSubset::Sparse(list) => (true, list.clone()),
            VertexSubset::Dense { bitmap, .. } => (false, bitmap.to_vec()),
        };
        self.activated.lock().unwrap().push(entry);
        activated
    }
}

impl PullAlgo<Edge> for Logged {
    type Pull<'a> = MinLabelPull<'a>;

    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> MinLabelPull<'a> {
        PullAlgo::<Edge>::pull_op(&self.rule, in_frontier, activated)
    }
}

#[test]
fn a_small_round_of_a_dense_rule_lists_its_successor_sorted_and_once() {
    // 7 and then 4 lower vertex 9's label in one round, so 9 is
    // activated twice; 8 once.
    let graph = EdgeList::new(10, vec![Edge::new(7, 9), Edge::new(4, 9), Edge::new(7, 8)]).unwrap();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    let seed = || VertexSubset::from_vec(vec![7, 4]);
    // What the bitmap a large round collects into lists.
    let bitmap = MinLabel::new(10);
    FrontierAlgo::<Edge>::begin_round(&bitmap, &seed());
    let listed = vertex_push(
        adj.out(),
        &seed(),
        &bitmap,
        &ExecCtx::default(),
        FrontierKind::Dense,
    );
    let VertexSubset::Sparse(listed) = listed.into_sparse() else {
        unreachable!("into_sparse lists")
    };
    assert_eq!(listed, [8, 9]);
    for threads in [1, 2] {
        let pool = egraph_parallel::ThreadPool::new(threads);
        let logged = Logged::new(10);
        let log = egraph_parallel::with_pool(&pool, || {
            edge_map(&adj, seed(), &logged, PushOnly, &ExecCtx::default())
        });
        assert_eq!(log.len(), 2);
        let activated = logged.activated.into_inner().unwrap();
        assert_eq!(activated[0], (true, listed.clone()), "{threads} threads");
        assert_eq!(logged.rule.labels()[8..], [7, 4]);
    }
}

#[test]
fn a_small_push_round_after_a_pull_pushes_exactly_its_members() {
    // Twelve sources (0..12) over a 200-edge graph: load 2 + 12 above
    // the cutoff of 10, so round 0 pulls and hands round 1 a dense
    // frontier {50, 51}, whose load 3 + 2 is pushed inline from the
    // bitmap.
    let mut edges = vec![
        Edge::new(0, 50),
        Edge::new(1, 51),
        Edge::new(50, 60),
        Edge::new(50, 61),
        Edge::new(51, 61),
    ];
    edges.extend((0..195).map(|i| Edge::new(200 + i, 201 + i)));
    let graph = EdgeList::new(400, edges).unwrap();
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let logged = Logged::new(400);
    let recorder = TraceRecorder::new();
    let ctx = ExecCtx::default().recorder(&recorder);
    let frontier = VertexSubset::from_vec((0..12).collect());
    let log = edge_map(&adj, frontier, &logged, Direction::PushPull, &ctx);
    let rounds: Vec<_> = (log.iter())
        .map(|s| (s.frontier_size, s.edges_scanned, s.mode))
        .collect();
    assert_eq!(
        rounds,
        [
            (12, 2, StepMode::Pull),
            (2, 3, StepMode::Push),
            (2, 0, StepMode::Push),
        ]
    );
    // The pull round collected densely; the push rounds after it
    // pushed the out-edges of its members and nothing else.
    let activated = logged.activated.into_inner().unwrap();
    assert_eq!(activated[0], (false, vec![50, 51]));
    let mut pushed = logged.pushed.into_inner().unwrap();
    pushed.sort_unstable();
    assert_eq!(pushed, edges_from(&graph, |v| v == 50 || v == 51));
    assert_eq!(recorder.counters()[INLINE_ROUNDS], 2.0);
    assert_eq!(logged.rule.labels()[60..62], [0, 0]);
}

#[test]
fn scanning_and_pulling_rounds_never_run_inline() {
    let graph = diamond();
    let recorder = TraceRecorder::new();
    let ctx = ExecCtx::default().recorder(&recorder);
    let rule = MinLabel::new(4);
    edge_map(&graph, VertexSubset::single(0), &rule, PushOnly, &ctx);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let rule = MinLabel::new(4);
    edge_map(&adj, VertexSubset::single(0), &rule, Direction::Pull, &ctx);
    assert!(!recorder.iterations().is_empty());
    assert_eq!(recorder.counters()[INLINE_ROUNDS], 0.0);
}

#[test]
fn forced_directions_skip_the_degree_sum_on_dense_frontiers() {
    let graph = fan_graph(10);
    // Partial dense frontier, forced direction: the vertex term alone.
    let chain_only: Vec<u32> = (100..400).collect();
    let (_, log) = min_label_run(&graph, dense(400, &chain_only), Direction::Push);
    assert_eq!((log[0].edges_scanned, log[0].decision.observed), (0, 300));
    // The full frontier under forced push is the whole graph.
    let (_, log) = min_label_run(&graph, VertexSubset::all(400), Direction::Push);
    assert_eq!((log[0].edges_scanned, log[0].decision.observed), (200, 600));
    let (_, log) = min_label_run(&graph, VertexSubset::single(0), Direction::Pull);
    assert_eq!((log[0].edges_scanned, log[0].decision.observed), (0, 1));
    // Sparse frontier under forced push, and any frontier under the
    // heuristic: the out-degree sum joins the vertex term.
    let (_, log) = min_label_run(&graph, VertexSubset::single(0), Direction::Push);
    assert_eq!((log[0].edges_scanned, log[0].decision.observed), (10, 11));
    let (_, log) = min_label_run(&graph, VertexSubset::all(400), Direction::PushPull);
    assert_eq!((log[0].edges_scanned, log[0].decision.observed), (200, 600));
}
