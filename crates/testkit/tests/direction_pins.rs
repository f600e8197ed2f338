//! Pins the per-step direction decisions of the two direction-
//! optimizing variants on corpus graphs. The literals were captured
//! from the hand-written push-pull loops the frontier driver
//! (`egraph_core::engine::edge_map`) replaced: the driver must execute
//! the same push/pull sequence from the same `{observed, cutoff}`
//! comparison at every step.

use egraph_core::exec::ExecCtx;
use egraph_core::metrics::StepMode::{self, Pull, Push};
use egraph_core::telemetry::TraceRecorder;
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::ThreadPool;
use egraph_testkit::corpus::{exhaustive_corpus, DEFAULT_SEED};

/// `(mode, observed, cutoff)` per step.
type Pin = (StepMode, usize, usize);

const PINS: [(&str, &str, &[Pin]); 4] = [
    (
        "rmat_s8",
        "bfs/adj/push-pull",
        &[
            (Pull, 239, 102),
            (Pull, 1508, 102),
            (Pull, 432, 102),
            (Push, 27, 102),
        ],
    ),
    (
        "rmat_s8",
        "wcc/adj/push-pull",
        &[(Pull, 4352, 204), (Pull, 3835, 204), (Push, 25, 204)],
    ),
    (
        "small_world_512",
        "bfs/adj/push-pull",
        &[
            (Push, 13, 307),
            (Push, 156, 307),
            (Pull, 429, 307),
            (Pull, 1599, 307),
            (Pull, 3016, 307),
            (Pull, 1417, 307),
            (Push, 26, 307),
        ],
    ),
    (
        "small_world_512",
        "wcc/adj/push-pull",
        &[(Pull, 12800, 614), (Pull, 12774, 614)],
    ),
];

#[test]
fn push_pull_decisions_match_the_replaced_loops() {
    // The corpus is seeded from the default, not EGRAPH_TEST_SEED: the
    // pins describe these exact graphs. One worker keeps WCC's racy
    // label reads (and so its frontier sizes) deterministic.
    let corpus = exhaustive_corpus(DEFAULT_SEED);
    let pool = ThreadPool::new(1);
    for (graph, spec, expected) in PINS {
        let graph = &corpus.iter().find(|g| g.name == graph).unwrap().graph;
        let id: VariantId = spec.parse().unwrap();
        let recorder = TraceRecorder::new();
        run_variant(
            &id,
            &ExecCtx::new(&pool).recorder(&recorder),
            &PreparedGraph::new(graph).sort_neighbors(true),
            &RunParams::default(),
        )
        .unwrap();
        let log: Vec<Pin> = (recorder.iterations().iter())
            .map(|r| {
                assert!(!r.decision.forced, "{spec}: the heuristic chose");
                (r.mode, r.decision.observed, r.decision.cutoff)
            })
            .collect();
        assert_eq!(log, expected, "{spec}");
    }
}
