//! Pins the per-step direction decisions of direction-optimizing BFS
//! on corpus graphs. The literals were captured from the hand-written
//! push-pull loops the frontier driver (`egraph_core::engine::edge_map`)
//! replaced: the driver must execute the same push/pull sequence from
//! the same `{observed, cutoff}` comparison at every step.
//!
//! The forced-push entries pin the scanning layouts (edge array, grid)
//! the same way, every round a full scan of `|E|` edges from the same
//! frontier. The BFS ones were captured from the `scan_map` rounds that
//! `edge_map` replaced; the `sssp/edge/push` ones were re-captured when
//! SSSP rounds became Jacobi steps (PR 16): the old literals were what
//! one worker relaxing in stream order happened to produce, these hold
//! at every thread count.
//!
//! `sssp/adj/push` is pinned by what its rounds drain: the frontier size
//! and the distance bucket of every round, under the bucket width the
//! kernel derives from the graph.

use egraph_core::exec::ExecCtx;
use egraph_core::metrics::StepMode::{self, Pull, Push};
use egraph_core::telemetry::{TraceIteration, TraceRecorder};
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

const PINS: [Pinned; 8] = [
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
            (Push, 2190, 102),
            (Push, 2164, 102),
            (Push, 2107, 102),
            (Push, 2064, 102),
            (Push, 2050, 102),
        ],
        &[1, 84, 142, 116, 59, 16, 2],
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
            (Push, 6287, 307),
            (Push, 6487, 307),
            (Push, 6529, 307),
            (Push, 6459, 307),
            (Push, 6384, 307),
            (Push, 6316, 307),
            (Push, 6272, 307),
            (Push, 6244, 307),
            (Push, 6214, 307),
            (Push, 6188, 307),
            (Push, 6175, 307),
            (Push, 6159, 307),
            (Push, 6154, 307),
            (Push, 6151, 307),
            (Push, 6148, 307),
            (Push, 6145, 307),
        ],
        &[
            1, 12, 38, 143, 343, 385, 315, 240, 172, 128, 100, 70, 44, 31, 15, 10, 7, 4, 1,
        ],
    ),
];

/// The iteration records of one traced single-worker run.
fn trace<E: EdgeRecord>(id: &VariantId, graph: &EdgeList<E>) -> Vec<TraceIteration> {
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
        let log: Vec<Pin> = (records.iter().enumerate())
            .map(|(step, r)| {
                assert_eq!(r.step, step, "{spec}: step index");
                let d = r.stat.decision;
                assert_eq!(d.forced, forced, "{spec}: who chose");
                (r.stat.mode, d.observed, d.cutoff)
            })
            .collect();
        assert_eq!(log, expected, "{spec}");
        let sizes: Vec<usize> = records.iter().map(|r| r.stat.frontier_size).collect();
        assert_eq!(sizes, frontiers, "{spec}");
    }
}

/// `(frontier size, bucket)` of every `sssp/adj/push` round.
const SSSP_ADJ_ROUNDS: [(&str, &[(usize, u64)]); 2] = [
    (
        "rmat_s8",
        &[
            (1, 0),
            (35, 0),
            (58, 0),
            (59, 0),
            (25, 0),
            (6, 0),
            (1, 0),
            (50, 1),
            (4, 1),
            (11, 2),
        ],
    ),
    (
        "small_world_512",
        &[
            (1, 0),
            (4, 0),
            (7, 0),
            (1, 0),
            (18, 1),
            (18, 1),
            (18, 1),
            (10, 1),
            (6, 1),
            (1, 1),
            (69, 2),
            (54, 2),
            (46, 2),
            (24, 2),
            (16, 2),
            (8, 2),
            (3, 2),
            (2, 2),
            (146, 3),
            (98, 3),
            (45, 3),
            (21, 3),
            (6, 3),
            (1, 3),
            (16, 4),
            (3, 4),
        ],
    ),
];

#[test]
fn sssp_adj_rounds_drain_the_pinned_buckets() {
    let corpus = exhaustive_corpus(DEFAULT_SEED);
    let id: VariantId = "sssp/adj/push".parse().unwrap();
    for (name, expected) in SSSP_ADJ_ROUNDS {
        let graph = weighted(&corpus.iter().find(|g| g.name == name).unwrap().graph);
        let run = run_variant(
            &id,
            &ExecCtx::new(None),
            &PreparedGraph::new(&graph).sort_neighbors(true),
            &RunParams::default(),
        )
        .unwrap();
        let result = run.output.as_sssp().unwrap();
        let rounds: Vec<(usize, u64)> = (result.iterations.iter())
            .map(|s| s.frontier_size)
            .zip(result.buckets.iter().copied())
            .collect();
        assert_eq!(rounds, expected, "{name}");
    }
}
