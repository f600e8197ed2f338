//! Table 2 companion: peak heap footprint of building each data
//! layout (edge list, CSR adjacency, grid) at RMAT scales 16/18/20.
//!
//! The paper reports layout build *time* (Table 2) and notes the 2D
//! grid's metadata overhead in passing; this experiment pins down the
//! memory side with the tracking allocator: bytes allocated, the peak
//! live over each build window, and the process RSS after it.
//!
//! The binary installs the tracking allocator as its global allocator,
//! so the peak and allocated columns are real allocator numbers.

use egraph_bench::{graphs, ExperimentCtx, ResultTable};
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};
use egraph_core::variant::default_grid_side;
use egraph_metrics::alloc;

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

fn fmt_bytes(b: u64) -> String {
    format!("{:.1}", b as f64 / (1 << 20) as f64)
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_table2_memory",
        "Table 2 companion (peak memory per layout build)",
    );

    let mut table = ResultTable::new(
        "table2_layout_memory",
        &[
            "scale",
            "vertices",
            "edges",
            "layout",
            "peak_MiB",
            "allocated_MiB",
            "end_rss_MiB",
            "peak_bytes",
            "allocated_bytes",
            "end_rss_bytes",
        ],
    );

    // The paper's scales: 16, 18, 20 with the default --scale 16.
    for scale in [ctx.scale, ctx.scale + 2, ctx.scale + 4] {
        let w = alloc::window("edgelist");
        let graph = graphs::rmat(scale);
        let edgelist = w.finish();
        let mut record = |layout: &str, stats: alloc::PhaseAllocStats| {
            let rss = alloc::rss_bytes().unwrap_or(0);
            table.add_row(vec![
                scale.to_string(),
                graph.num_vertices().to_string(),
                graph.num_edges().to_string(),
                layout.to_string(),
                fmt_bytes(stats.peak_bytes),
                fmt_bytes(stats.allocated_bytes),
                fmt_bytes(rss),
                stats.peak_bytes.to_string(),
                stats.allocated_bytes.to_string(),
                rss.to_string(),
            ]);
        };
        record("edgelist", edgelist);

        // Each build window re-baselines the peak to the live bytes at
        // entry, so the peak column is the layout's own transient +
        // resident footprint on top of the edge list it reads.
        let w = alloc::window("csr");
        let csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
        record("csr", w.finish());
        drop(csr);

        let w = alloc::window("grid");
        let grid = GridBuilder::new(Strategy::RadixSort)
            .side(default_grid_side(graph.num_vertices()))
            .build(&graph);
        record("grid", w.finish());
        drop(grid);
    }

    table.print();
    println!();
    println!(
        "paper context: the grid's per-block metadata makes it the heaviest \
         layout; a radix build holds the input and the output it returns \
         (plus one staged bucket per worker), nothing array-sized in between"
    );
    ctx.save(&table);
}
