//! The §9 roadmap as an advisor: for a set of workloads, read the
//! average degree off the generated graph, print the variant the
//! roadmap picks and its reasoning, then run that variant.
//!
//! Run with: `cargo run --release --example layout_advisor`

use everything_graph::core::prelude::*;
use everything_graph::core::roadmap::recommend;
use everything_graph::graphgen;

fn main() {
    // Unit weights, so SSSP and SpMV run on the same graphs as the
    // unweighted algorithms (which ignore the weights).
    let unit = |g: EdgeList<Edge>| g.map_records(|e| WEdge::new(e.src, e.dst, 1.0));
    let twitter = unit(graphgen::twitter_like(12, 7));
    let rmat = unit(graphgen::rmat(12, 16, 7));
    let road = unit(graphgen::road_like(64, 64));
    let workloads: [(&str, Algo, &EdgeList<WEdge>); 6] = [
        ("BFS on Twitter-like", Algo::Bfs, &twitter),
        ("PageRank on Twitter-like", Algo::Pagerank, &twitter),
        ("PageRank on a road lattice", Algo::Pagerank, &road),
        ("WCC on RMAT", Algo::Wcc, &rmat),
        ("SpMV on RMAT", Algo::Spmv, &rmat),
        ("SSSP on a road lattice", Algo::Sssp, &road),
    ];

    for (name, algo, graph) in workloads {
        let avg_degree = graph.num_edges() as f64 / graph.num_vertices() as f64;
        let r = recommend(algo, avg_degree);
        println!("\n{name} (avg degree {avg_degree:.1})");
        println!("  -> {}", r.variant);
        for line in &r.rationale {
            println!("     * {line}");
        }
        let run = run_variant(
            &r.variant,
            &ExecCtx::new(None),
            &PreparedGraph::new(graph),
            &RunParams::default(),
        )
        .expect("the roadmap names a runnable variant");
        println!(
            "     ran: pre-process {:.2} ms + algorithm {:.2} ms",
            run.preprocess_seconds * 1e3,
            run.algorithm_seconds * 1e3
        );
    }
}
