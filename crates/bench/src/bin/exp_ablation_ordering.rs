//! Ablation: how much of each layout's cache behaviour is the layout,
//! and how much is input friendliness?
//!
//! Real inputs carry two accidental kinds of locality: spatially
//! correlated **vertex ids** (DIMACS road vertices are numbered along
//! the geometry) and spatially correlated **edge order** (arcs grouped
//! by tail). This run measures one PageRank iteration's simulated LLC
//! miss ratio on the edge array and the grid for the natural input,
//! the edge-shuffled input, and the vertex-permuted input.
//!
//! Expected: the edge array's good numbers on road-like inputs
//! evaporate under either perturbation, while the grid — which
//! re-imposes locality structurally — barely moves. This is the
//! mechanism behind the paper's "no approach fits every graph" (§9).

use egraph_bench::trace::ReplayLayout;
use egraph_bench::{fmt_pct, graphs, llc, ExperimentCtx, ResultTable};
use egraph_core::preprocess::{GridBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList};

/// One PageRank iteration's simulated miss ratio on the edge array and
/// on the grid sized to the simulated LLC.
fn miss_ratios(graph: &EdgeList<Edge>) -> (f64, f64) {
    let grid = GridBuilder::new(Strategy::RadixSort)
        .side(llc::matched_grid_side(graph.num_vertices()))
        .build(graph);
    (
        llc::pagerank_miss_ratio(&ReplayLayout::Edges(graph)),
        llc::pagerank_miss_ratio(&ReplayLayout::Grid(&grid)),
    )
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_ablation_ordering",
        "ablation: input friendliness vs layout (edge order & vertex ids)",
    );

    let natural = graphs::road_like_ordered(ctx.scale);
    let variants: Vec<(&str, EdgeList<Edge>)> = vec![
        ("natural order", natural.clone()),
        (
            "edges shuffled",
            egraph_graphgen::shuffle_edges(&natural, 0xBEEF),
        ),
        (
            "vertices permuted",
            egraph_graphgen::permute_vertices(&natural, 0xBEEF),
        ),
    ];

    let mut table = ResultTable::new(
        "ablation_ordering",
        &["road-like input", "edge-array miss", "grid miss"],
    );
    for (name, graph) in &variants {
        let (edge_miss, grid_miss) = miss_ratios(graph);
        table.add_row(vec![(*name).into(), fmt_pct(edge_miss), fmt_pct(grid_miss)]);
    }
    table.print();
    println!();
    println!("expected shape: the edge array's near-zero miss ratio on the natural");
    println!("input is *inherited from the input*, not earned by the layout — either");
    println!("perturbation destroys it. The grid re-creates locality structurally and");
    println!("stays low throughout.");
    ctx.save(&table);
}
