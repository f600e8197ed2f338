//! Table 3: adjacency-list creation with loading time included.
//! Dynamic building fully overlaps with loading, count sort overlaps
//! its first pass, radix sort overlaps nothing — so on a slow disk the
//! dynamic approach wins, while on SSD radix wins or ties.
//!
//! Pre-processing times are measured for real; loading times come from
//! the storage medium's bandwidth and the overlap model of
//! `egraph_bench::loading` (see DESIGN.md §4).

use egraph_bench::loading::{Medium, OverlapPlan};
use egraph_bench::{fmt_secs, graphs, ExperimentCtx, ResultTable};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::timed;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_table3",
        "Table 3 (loading + pre-processing, SSD vs HDD)",
    );

    let graph = graphs::rmat(ctx.scale);
    let bytes = (graph.num_edges() * std::mem::size_of::<egraph_core::types::Edge>()) as u64;
    println!(
        "graph: RMAT{} — {} edges, {:.1} MB on storage\n",
        ctx.scale,
        graph.num_edges(),
        bytes as f64 / 1e6
    );

    // Measure each strategy's pure pre-processing, out and in-out.
    let mut measured = Vec::new();
    for direction in [EdgeDirection::Out, EdgeDirection::Both] {
        let (_, dyn_s) = timed(|| CsrBuilder::new(Strategy::Dynamic, direction).build(&graph));
        let (_, radix_s) = timed(|| CsrBuilder::new(Strategy::RadixSort, direction).build(&graph));
        // Split count sort into its two passes: the counting pass (the
        // overlappable half) and the scatter.
        let (_, count_pass) = timed(|| {
            let _ = graph.out_degrees();
            if direction == EdgeDirection::Both {
                let _ = graph.in_degrees();
            }
        });
        let (_, count_total) =
            timed(|| CsrBuilder::new(Strategy::CountSort, direction).build(&graph));
        measured.push((direction, dyn_s, radix_s, count_pass, count_total));
    }

    let mut table = ResultTable::new(
        "table3_loading_included",
        &["pre-processing approach", "out(s)", "in-out(s)"],
    );
    for medium in [Medium::ssd(), Medium::hdd()] {
        let mut row_dynamic = vec![format!("dynamic, loaded from {}", medium.name)];
        let mut row_radix = vec![format!("radix-sort, loaded from {}", medium.name)];
        let mut row_count = vec![format!("count-sort, loaded from {}", medium.name)];
        for &(_, dyn_s, radix_s, count_pass, count_total) in &measured {
            row_dynamic.push(fmt_secs(
                OverlapPlan::dynamic(dyn_s).makespan(medium, bytes),
            ));
            row_radix.push(fmt_secs(
                OverlapPlan::radix(radix_s).makespan(medium, bytes),
            ));
            row_count.push(fmt_secs(
                OverlapPlan::count_sort(count_pass, (count_total - count_pass).max(0.0))
                    .makespan(medium, bytes),
            ));
        }
        table.add_row(row_dynamic);
        table.add_row(row_radix);
        table.add_row(row_count);
    }
    table.print();

    println!();
    println!("paper reference (RMAT26): SSD dynamic 20.7/40.0, SSD radix 21.2/27.0;");
    println!("                          HDD dynamic 61.0/61.1, HDD radix 65.0/71.0");
    println!("expected shape: radix wins/ties on SSD (in-out especially); dynamic wins on HDD.");
    ctx.save(&table);
}
