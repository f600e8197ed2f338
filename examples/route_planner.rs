//! Route planning on a road-network-shaped graph: single-source
//! shortest paths with travel-time weights, run as the variant the §9
//! roadmap picks for this graph.
//!
//! Run with: `cargo run --release --example route_planner`

use everything_graph::core::prelude::*;
use everything_graph::core::roadmap;
use everything_graph::graphgen;

fn main() {
    // A 256x128 road lattice: intersections connected to their
    // neighbors with travel-time weights.
    let (width, height) = (256usize, 128usize);
    let roads = graphgen::road_like(width, height);
    let weighted: EdgeList<WEdge> = roads.map_records(|e| {
        // Deterministic per-segment travel time between 1 and 5 min.
        let h = (e.src as u64 ^ ((e.dst as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        WEdge::new(e.src, e.dst, 1.0 + (h >> 40) as f32 % 4.0)
    });
    println!(
        "road network: {}x{} grid, {} segments",
        width,
        height,
        weighted.num_edges()
    );

    // Ask the roadmap which variant to run for shortest paths on a
    // graph of this average degree.
    let avg_degree = weighted.num_edges() as f64 / weighted.num_vertices() as f64;
    let advice = roadmap::recommend(Algo::Sssp, avg_degree);
    println!("\nroadmap advice: {}", advice.variant);
    for line in &advice.rationale {
        println!("  - {line}");
    }

    // Follow the advice.
    let depot = 0u32; // top-left corner of the map
    let run = run_variant(
        &advice.variant,
        &ExecCtx::new(None),
        &PreparedGraph::new(&weighted),
        &RunParams {
            root: depot,
            ..RunParams::default()
        },
    )
    .expect("the roadmap names a runnable variant");
    let result = run.output.as_sssp().expect("sssp output");
    println!(
        "\nSSSP from depot {}: pre-process {:.3}s, algorithm {:.3}s, {} iterations",
        depot,
        run.preprocess_seconds,
        run.algorithm_seconds,
        result.iterations.len()
    );

    // Sample a few destinations.
    println!("\nsample travel times from the depot:");
    for (x, y) in [(10, 5), (128, 64), (255, 127)] {
        let dest = (y * width + x) as u32;
        println!(
            "  to intersection ({x:>3},{y:>3}): {:>6.1} min",
            result.dist[dest as usize]
        );
    }
    let reachable = result.reachable_count();
    assert_eq!(reachable, weighted.num_vertices(), "a connected road grid");
    println!("\nall {reachable} intersections reachable.");
}
