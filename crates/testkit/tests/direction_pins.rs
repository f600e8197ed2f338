//! Pins the per-step direction decisions of the two direction-
//! optimizing variants on corpus graphs. The literals were captured
//! from the hand-written push-pull loops the frontier driver
//! (`egraph_core::engine::edge_map`) replaced: the driver must execute
//! the same push/pull sequence from the same `{observed, cutoff}`
//! comparison at every step.
//!
//! The forced-push entries pin the scanning layouts (edge array, grid)
//! the same way: captured from the `scan_map` rounds that `edge_map`
//! replaced, every round a full scan of `|E|` edges from the same
//! frontier.

use egraph_core::exec::ExecCtx;
use egraph_core::metrics::StepMode::{self, Pull, Push};
use egraph_core::telemetry::{IterRecord, TraceRecorder};
use egraph_core::types::{EdgeList, EdgeRecord};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::ThreadPool;
use egraph_testkit::corpus::{exhaustive_corpus, weighted, DEFAULT_SEED};

/// `(mode, observed, cutoff)` per step.
type Pin = (StepMode, usize, usize);

/// `(graph, variant, forced, pins, frontier size per step)`.
type Pinned = (
    &'static str,
    &'static str,
    bool,
    &'static [Pin],
    &'static [usize],
);

const PINS: [Pinned; 10] = [
    (
        "rmat_s8",
        "bfs/adj/push-pull",
        false,
        &[
            (Pull, 239, 102),
            (Pull, 1508, 102),
            (Pull, 432, 102),
            (Push, 27, 102),
        ],
        &[1, 84, 95, 11],
    ),
    (
        "rmat_s8",
        "wcc/adj/push-pull",
        false,
        &[(Pull, 4352, 204), (Pull, 3835, 204), (Push, 25, 204)],
        &[256, 203, 8],
    ),
    (
        "rmat_s8",
        "bfs/edge/push",
        true,
        &[
            (Push, 2049, 102),
            (Push, 2132, 102),
            (Push, 2143, 102),
            (Push, 2059, 102),
        ],
        &[1, 84, 95, 11],
    ),
    (
        "rmat_s8",
        "bfs/grid/push",
        true,
        &[
            (Push, 2049, 102),
            (Push, 2132, 102),
            (Push, 2143, 102),
            (Push, 2059, 102),
        ],
        &[1, 84, 95, 11],
    ),
    (
        "rmat_s8",
        "sssp/edge/push",
        true,
        &[
            (Push, 2049, 102),
            (Push, 2132, 102),
            (Push, 2195, 102),
            (Push, 2122, 102),
            (Push, 2066, 102),
            (Push, 2050, 102),
        ],
        &[1, 84, 147, 74, 18, 2],
    ),
    (
        "small_world_512",
        "bfs/adj/push-pull",
        false,
        &[
            (Push, 13, 307),
            (Push, 156, 307),
            (Pull, 429, 307),
            (Pull, 1599, 307),
            (Pull, 3016, 307),
            (Pull, 1417, 307),
            (Push, 26, 307),
        ],
        &[1, 12, 33, 123, 232, 109, 2],
    ),
    (
        "small_world_512",
        "wcc/adj/push-pull",
        false,
        &[(Pull, 12800, 614), (Pull, 12774, 614)],
        &[512, 511],
    ),
    (
        "small_world_512",
        "bfs/edge/push",
        true,
        &[
            (Push, 6145, 307),
            (Push, 6156, 307),
            (Push, 6177, 307),
            (Push, 6267, 307),
            (Push, 6376, 307),
            (Push, 6253, 307),
            (Push, 6146, 307),
        ],
        &[1, 12, 33, 123, 232, 109, 2],
    ),
    (
        "small_world_512",
        "bfs/grid/push",
        true,
        &[
            (Push, 6145, 307),
            (Push, 6156, 307),
            (Push, 6177, 307),
            (Push, 6267, 307),
            (Push, 6376, 307),
            (Push, 6253, 307),
            (Push, 6146, 307),
        ],
        &[1, 12, 33, 123, 232, 109, 2],
    ),
    (
        "small_world_512",
        "sssp/edge/push",
        true,
        &[
            (Push, 6145, 307),
            (Push, 6156, 307),
            (Push, 6182, 307),
            (Push, 6284, 307),
            (Push, 6464, 307),
            (Push, 6472, 307),
            (Push, 6374, 307),
            (Push, 6267, 307),
            (Push, 6198, 307),
            (Push, 6169, 307),
            (Push, 6159, 307),
            (Push, 6154, 307),
            (Push, 6150, 307),
            (Push, 6149, 307),
        ],
        &[1, 12, 38, 140, 320, 328, 230, 123, 54, 25, 15, 10, 6, 5],
    ),
];

/// The iteration records of one traced single-worker run.
fn trace<E: EdgeRecord>(id: &VariantId, graph: &EdgeList<E>) -> Vec<IterRecord> {
    // One worker keeps WCC's racy label reads (and so its frontier
    // sizes) deterministic.
    let pool = ThreadPool::new(1);
    let recorder = TraceRecorder::new();
    run_variant(
        id,
        &ExecCtx::new(&pool).recorder(&recorder),
        &PreparedGraph::new(graph).sort_neighbors(true),
        &RunParams::default(),
    )
    .unwrap();
    recorder.iterations()
}

#[test]
fn decisions_match_the_replaced_loops() {
    // The corpus is seeded from the default, not EGRAPH_TEST_SEED: the
    // pins describe these exact graphs.
    let corpus = exhaustive_corpus(DEFAULT_SEED);
    for (graph, spec, forced, expected, frontiers) in PINS {
        let graph = &corpus.iter().find(|g| g.name == graph).unwrap().graph;
        let id: VariantId = spec.parse().unwrap();
        let records = if id.algo.needs_weights() {
            trace(&id, &weighted(graph))
        } else {
            trace(&id, graph)
        };
        let log: Vec<Pin> = (records.iter())
            .map(|r| {
                assert_eq!(r.decision.forced, forced, "{spec}: who chose");
                (r.mode, r.decision.observed, r.decision.cutoff)
            })
            .collect();
        assert_eq!(log, expected, "{spec}");
        let sizes: Vec<usize> = records.iter().map(|r| r.frontier_size).collect();
        assert_eq!(sizes, frontiers, "{spec}");
    }
}
