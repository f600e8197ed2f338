//! WCC and SSSP repeat exactly: the answer **and** the iteration records
//! (frontier size, edges scanned, mode of every round) are the same at
//! 1, 2 and 4 threads, on every layout that runs them.
//!
//! Label-propagation WCC and live-distance SSSP relaxed asynchronously,
//! so their round counts moved with thread timing and only the fixpoint
//! could be checked. Union-find WCC is two passes whatever the schedule,
//! and bucketed SSSP rounds are Jacobi steps over buckets filled in id
//! order.
//!
//! PageRank on the grid repeats too, and in both directions at once:
//! pull and unlocked push stream the same columns of the same grid.

use egraph_core::exec::ExecCtx;
use egraph_core::metrics::{IterStat, StepMode};
use egraph_core::preprocess::Strategy;
use egraph_core::types::{Edge, EdgeList, EdgeRecord};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId, VariantOutput};
use egraph_parallel::ThreadPool;
use egraph_testkit::corpus::{exhaustive_corpus, weighted, NamedGraph};
use egraph_testkit::test_seed;

const VARIANTS: [&str; 9] = [
    "wcc/adj/push",
    "wcc/edge/push",
    "wcc/grid/push",
    "wcc/ccsr/push",
    "wcc/delta/push",
    "sssp/adj/push",
    "sssp/ccsr/push",
    "sssp/delta/push",
    "sssp/edge/push",
];

/// What must repeat: the answer's bits and every round's shape.
type Outcome = (Vec<u32>, Vec<(usize, usize, StepMode)>);

fn rounds(log: &[IterStat]) -> Vec<(usize, usize, StepMode)> {
    let round = |s: &IterStat| (s.frontier_size, s.edges_scanned, s.mode);
    log.iter().map(round).collect()
}

fn outcome<E: EdgeRecord>(id: &VariantId, graph: &EdgeList<E>, threads: usize) -> Outcome {
    let pool = ThreadPool::new(threads);
    let run = run_variant(
        id,
        &ExecCtx::new(&pool),
        &PreparedGraph::new(graph).side(graph.num_vertices().clamp(1, 8)),
        &RunParams::default(),
    )
    .unwrap();
    match run.output {
        VariantOutput::Wcc(r) => (r.label, rounds(&r.iterations)),
        VariantOutput::Sssp(r) => (
            r.dist.iter().map(|d| d.to_bits()).collect(),
            rounds(&r.iterations),
        ),
        other => panic!("unexpected output {other:?}"),
    }
}

/// The exhaustive corpus plus the shuffled lattice.
fn corpus(seed: u64) -> Vec<NamedGraph> {
    let mut graphs = exhaustive_corpus(seed);
    let lattice = egraph_graphgen::shuffle_edges(&egraph_graphgen::road_like(64, 256), seed);
    graphs.push(NamedGraph {
        name: "road_64x256_shuffled".to_string(),
        graph: lattice,
    });
    graphs
}

/// The grid pulls over the columns it pushes over, so `pagerank/grid/pull`
/// and unlocked `pagerank/grid/push` are one stream of plain writes over
/// one grid: the same rank bits from both, at every thread count.
#[test]
fn pagerank_grid_pull_and_push_are_one_path() {
    let seed = test_seed();
    let (pull, push): (VariantId, VariantId) = (
        "pagerank/grid/pull".parse().unwrap(),
        "pagerank/grid/push".parse().unwrap(),
    );
    for NamedGraph { name, graph } in &corpus(seed) {
        if graph.num_vertices() == 0 {
            continue;
        }
        let ranks_at = |threads: usize| {
            let pool = ThreadPool::new(threads);
            let ctx = ExecCtx::new(&pool);
            // Count sort keeps the within-cell edge order at every
            // worker count; both variants run on the one cached grid.
            let prepared = PreparedGraph::new(graph)
                .grid_strategy(Strategy::CountSort)
                .side(graph.num_vertices().clamp(1, 8));
            let bits = |id: &VariantId| -> Vec<u32> {
                let run = run_variant(id, &ctx, &prepared, &RunParams::default()).unwrap();
                let ranks = &run.output.as_pagerank().unwrap().ranks;
                ranks.iter().map(|r| r.to_bits()).collect()
            };
            (bits(&pull), bits(&push))
        };
        let one = ranks_at(1);
        assert!(
            one.0 == one.1,
            "{name}: pull and push ranks differ (seed {seed:#x})"
        );
        for threads in [2, 4] {
            assert!(
                ranks_at(threads) == one,
                "{name}: ranks differ at {threads} threads (seed {seed:#x})"
            );
        }
    }
}

#[test]
fn wcc_and_sssp_repeat_answers_and_records_at_every_thread_count() {
    let seed = test_seed();
    for NamedGraph { name, graph } in &corpus(seed) {
        if graph.num_vertices() == 0 {
            continue;
        }
        let wgraph = weighted(graph);
        for spec in VARIANTS {
            let id: VariantId = spec.parse().unwrap();
            let at = |threads| {
                if id.algo.needs_weights() {
                    outcome(&id, &wgraph, threads)
                } else {
                    outcome::<Edge>(&id, graph, threads)
                }
            };
            let one = at(1);
            assert!(!one.1.is_empty(), "{name} {spec}: no records");
            for threads in [2, 4] {
                let many = at(threads);
                assert!(
                    one.0 == many.0,
                    "{name} {spec}: answer differs at {threads} threads (seed {seed:#x})"
                );
                assert_eq!(
                    one.1, many.1,
                    "{name} {spec}: records differ at {threads} threads (seed {seed:#x})"
                );
            }
        }
    }
}
