//! Quickstart: the end-to-end life of a graph computation.
//!
//! Generates a power-law graph, wraps it in a [`PreparedGraph`], runs
//! BFS and PageRank through the unified [`run_variant`] API, and
//! prints the end-to-end time breakdown the paper argues everyone
//! should look at.
//!
//! Run with: `cargo run --release --example quickstart`

use everything_graph::core::prelude::*;
use everything_graph::graphgen;

fn main() {
    // 1. The input: an edge array (the universal input format).
    let graph = graphgen::rmat(16, 16, 42);
    println!(
        "graph: {} vertices, {} edges (RMAT-16)",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Pre-processing policy: radix sort is the fastest way to build
    //    adjacency lists from an in-memory edge array (Table 2). The
    //    PreparedGraph builds each layout lazily, on first use, and
    //    caches it for later runs.
    let prepared = PreparedGraph::new(&graph).strategy(Strategy::RadixSort);

    // 3. BFS from the highest-degree vertex, in push mode — the best
    //    configuration for traversals (§9) — with a trace recorder
    //    attached so every level reports its frontier and edge work.
    //    Variants are named `algo/layout/direction`; unsupported
    //    combinations return a typed error instead of panicking.
    let (root, root_degree) = graph.max_degree_vertex().unwrap_or((0, 0));
    let recorder = TraceRecorder::new();
    let bfs_id: VariantId = "bfs/adj/push".parse().expect("valid variant spec");
    let bfs_run = run_variant(
        &bfs_id,
        &ExecCtx::new(None).recorder(&recorder),
        &prepared,
        &RunParams {
            root,
            ..RunParams::default()
        },
    )
    .expect("bfs/adj/push is in the support matrix");
    println!(
        "pre-processing (radix sort, out direction): {:.3}s",
        bfs_run.preprocess_seconds
    );
    let result = bfs_run.output.as_bfs().expect("bfs output");
    println!(
        "BFS from {} (out-degree {}): {} vertices reachable in {} levels, {:.3}s",
        root,
        root_degree,
        result.reachable_count(),
        result.iterations.len(),
        bfs_run.algorithm_seconds
    );
    for rec in recorder.iterations() {
        println!(
            "  level {:>2}: frontier {:>6}, edges scanned {:>8}, {:.4}s ({})",
            rec.step,
            rec.stat.frontier_size,
            rec.stat.edges_scanned,
            rec.stat.seconds,
            rec.stat.mode.as_str()
        );
    }

    // 4. PageRank in pull mode (no locks) over the in-edges — a second
    //    variant through the same API; only the in-direction CSR is
    //    built for it.
    let pr_id: VariantId = "pagerank/adj/pull".parse().expect("valid variant spec");
    let pr_run = run_variant(
        &pr_id,
        &ExecCtx::new(None),
        &prepared,
        &RunParams::default(),
    )
    .expect("pagerank/adj/pull is in the support matrix");
    let pr = pr_run.output.as_pagerank().expect("pagerank output");
    let top = pr.top_k(5);
    println!(
        "PageRank (10 iterations, pull, no locks): {:.3}s",
        pr_run.algorithm_seconds
    );
    println!("top-5 vertices by rank: {top:?}");

    // 5. The end-to-end view: pre-processing is part of the bill.
    let breakdown = TimeBreakdown {
        load: 0.0,
        preprocess: bfs_run.preprocess_seconds + pr_run.preprocess_seconds,
        algorithm: bfs_run.algorithm_seconds + pr_run.algorithm_seconds,
        store: 0.0,
    };
    println!(
        "end-to-end: {:.3}s total ({:.0}% of it pre-processing)",
        breakdown.total(),
        100.0 * breakdown.preprocess / breakdown.total()
    );
}
