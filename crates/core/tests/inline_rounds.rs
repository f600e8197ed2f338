//! A round under the grain opens no parallel region, so the regions a
//! run opens are a function of the graph, not of the schedule.
//!
//! Without that rule a lattice BFS on two threads opened a region for
//! every round of more than 64 members, and a second one to collect the
//! next frontier whenever the other worker happened to claim a chunk:
//! the same levels took a different number of regions from run to run.
//! The pool counters are process-global, so this file is a test binary
//! of its own and holds a single test.

use egraph_core::engine::INLINE_GRAIN;
use egraph_core::exec::ExecCtx;
use egraph_core::types::{Edge, EdgeList};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::{telemetry, ThreadPool};

/// A `width × height` lattice with both directions of every 4-neighbor
/// edge; vertex `(x, y)` is `y * width + x`.
fn lattice(width: u32, height: u32) -> EdgeList<Edge> {
    let id = |x: u32, y: u32| y * width + x;
    let mut edges = Vec::new();
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push(Edge::new(id(x, y), id(x + 1, y)));
                edges.push(Edge::new(id(x + 1, y), id(x, y)));
            }
            if y + 1 < height {
                edges.push(Edge::new(id(x, y), id(x, y + 1)));
                edges.push(Edge::new(id(x, y + 1), id(x, y)));
            }
        }
    }
    EdgeList::new((width * height) as usize, edges).unwrap()
}

#[test]
fn a_lattice_bfs_under_the_grain_opens_the_same_zero_regions_on_every_run() {
    let graph = lattice(64, 1024);
    let prepared = PreparedGraph::new(&graph);
    let id: VariantId = "bfs/adj/push".parse().unwrap();
    // From the middle two wavefronts of up to 64 vertices each travel
    // up and down: rounds of up to ~128 members, all under the grain.
    let params = RunParams {
        root: 512 * 64 + 32,
        ..RunParams::default()
    };
    let pool = ThreadPool::new(2);
    let ctx = ExecCtx::new(&pool);
    let bfs = || run_variant(&id, &ctx, &prepared, &params).unwrap().output;
    // Builds the out-adjacency outside the counted window.
    bfs();
    let regions: Vec<u64> = (0..5)
        .map(|_| {
            telemetry::enable();
            let output = bfs();
            telemetry::disable();
            let run = output.as_bfs().unwrap();
            assert!(run.iterations.len() > 500);
            assert!(run.iterations.iter().any(|s| s.frontier_size > 64));
            assert!(run
                .iterations
                .iter()
                .all(|s| s.decision.observed <= INLINE_GRAIN));
            telemetry::snapshot().regions
        })
        .collect();
    assert_eq!(regions, [0; 5]);
}
