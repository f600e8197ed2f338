//! Importing a real-world-style dataset: read a SNAP text edge list,
//! inspect its structure, convert it to the fast binary format, and
//! run the §9-recommended configuration.
//!
//! Run with: `cargo run --release --example dataset_importer`

use everything_graph::core::inspect;
use everything_graph::core::prelude::*;
use everything_graph::core::roadmap;
use everything_graph::graphgen;
use everything_graph::storage::{read_snap, write_edge_list, write_snap};

fn main() {
    // Pretend this came from snap.stanford.edu: a text edge list.
    let original = graphgen::twitter_like(13, 99);
    let mut text = Vec::new();
    write_snap(&mut text, &original).expect("in-memory write");
    println!(
        "'downloaded' a SNAP text file: {:.1} MB, first lines:",
        text.len() as f64 / 1e6
    );
    for line in String::from_utf8_lossy(&text).lines().take(4) {
        println!("    {line}");
    }

    // 1. Import.
    let graph: EdgeList<Edge> =
        read_snap(&text[..], Some(original.num_vertices())).expect("valid SNAP file");

    // 2. Inspect.
    let summary = inspect::summarize(&graph);
    println!("\nstructure:");
    println!(
        "    {} vertices, {} edges, avg degree {:.1}, max out-degree {}",
        summary.num_vertices, summary.num_edges, summary.avg_degree, summary.max_out_degree
    );
    println!(
        "    self-loops {}, duplicate edges {}, symmetric: {}",
        summary.self_loops, summary.duplicate_edges, summary.symmetric
    );

    // 3. Convert to the binary format for fast future loads.
    let mut binary = Vec::new();
    write_edge_list(&mut binary, &graph).expect("binary write");
    println!(
        "\nconverted to binary: {:.1} MB ({}% of the text size)",
        binary.len() as f64 / 1e6,
        100 * binary.len() / text.len().max(1)
    );

    // 4. Ask the roadmap, then follow it.
    let advice = roadmap::recommend(Algo::Bfs, summary.avg_degree);
    println!("\nroadmap: {}", advice.variant);
    for line in &advice.rationale {
        println!("    * {line}");
    }

    let (root, _) = graph.max_degree_vertex().unwrap_or((0, 0));
    let run = run_variant(
        &advice.variant,
        &ExecCtx::new(None),
        &PreparedGraph::new(&graph),
        &RunParams {
            root,
            ..RunParams::default()
        },
    )
    .expect("the roadmap names a runnable variant");
    let result = run.output.as_bfs().expect("bfs output");
    println!(
        "BFS from {}: {} reachable in {} levels (pre {:.3}s + algo {:.3}s)",
        root,
        result.reachable_count(),
        result.iterations.len(),
        run.preprocess_seconds,
        run.algorithm_seconds
    );
}
