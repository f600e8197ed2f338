//! Table 7 (informational): the feature matrix of the systems whose
//! techniques EverythingGraph isolates, and where each technique lives
//! in this reproduction.

use egraph_bench::ResultTable;

fn main() {
    println!("=== exp_table7 — Table 7 (systems that inspired the techniques) ===\n");
    let mut table = ResultTable::new(
        "table7_systems",
        &[
            "system",
            "data layout",
            "iteration model",
            "push or pull",
            "without locks",
            "NUMA-aware",
        ],
    );
    for row in [
        [
            "Ligra",
            "Adj list",
            "Vertex-centric",
            "Push&Pull",
            "Yes",
            "-",
        ],
        [
            "Polymer",
            "Adj list",
            "Vertex-centric",
            "Push&Pull",
            "Yes",
            "Yes",
        ],
        [
            "Gemini",
            "Adj list",
            "Vertex-centric",
            "Push&Pull",
            "Yes",
            "Yes",
        ],
        ["X-Stream", "Edge array", "Edge-centric", "Push", "-", "-"],
        ["GridGraph", "Grid", "Grid-cell", "Push", "Yes", "-"],
    ] {
        table.add_row(row.iter().map(|s| s.to_string()).collect());
    }
    table.print();

    println!();
    println!("where each technique lives in this reproduction:");
    println!("  push-pull (Ligra/Beamer)        -> the bfs/adj/push-pull variant (run_variant)");
    println!("  radix-sort CSR building (Ligra) -> egraph_core::preprocess + egraph_sort::radix");
    println!("  edge-centric model (X-Stream)   -> egraph_core::engine::scan_push over EdgeList");
    println!("  grid layout (GridGraph)         -> egraph_core::layout::{{Grid, GridCells}}");
    println!("  NUMA partitioning (Polymer/Gemini) -> egraph_bench::numa::partition_by_target");
    println!("  lock removal (all of the above) -> engine column/row ownership + pull mode");
    let _ = table.save_csv(std::path::Path::new("bench_results"));
}
