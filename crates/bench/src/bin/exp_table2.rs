//! Table 2: adjacency-list creation cost (dynamic vs count sort vs
//! radix sort) for out-only and in+out directions, plus the simulated
//! LLC miss percentage of each construction technique.
//!
//! Paper (Twitter, machine B): dynamic 20.0/27.2 s @ 69% misses,
//! count 19.5/23.9 s @ 71%, radix 4.0/8.5 s @ 26%.

use egraph_bench::{fmt_pct, fmt_ratio, fmt_secs, graphs, llc, trace, ExperimentCtx, ResultTable};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::timed;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_table2",
        "Table 2 (adjacency-list creation cost + LLC misses)",
    );

    let graph = graphs::twitter_like(ctx.scale);
    println!(
        "graph: {} vertices, {} edges (twitter-shaped)\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut table = ResultTable::new(
        "table2_adjlist_creation",
        &["variation", "out(s)", "in-out(s)", "LLC misses"],
    );

    let mut radix_out = 0.0f64;
    let mut count_out = 0.0f64;
    let mut dynamic_out = 0.0f64;
    let reps = egraph_bench::reps();
    for strategy in Strategy::ALL {
        let ((), out_secs) = egraph_bench::min_time(reps, || {
            let (_, secs) = timed(|| CsrBuilder::new(strategy, EdgeDirection::Out).build(&graph));
            ((), secs)
        });
        let ((), both_secs) = egraph_bench::min_time(reps, || {
            let (_, secs) = timed(|| CsrBuilder::new(strategy, EdgeDirection::Both).build(&graph));
            ((), secs)
        });

        // Replay the construction's access stream against the scaled
        // LLC (index metadata: ~8 B per vertex).
        let probe = llc::probe_for(graph.num_vertices(), 8);
        match strategy {
            Strategy::Dynamic => trace::trace_dynamic(graph.edges(), graph.num_vertices(), &probe),
            Strategy::CountSort => {
                trace::trace_count_sort(graph.edges(), graph.num_vertices(), &probe)
            }
            Strategy::RadixSort => {
                trace::trace_radix_sort(graph.edges(), graph.num_vertices(), &probe)
            }
        }
        let miss = probe.report().overall_miss_ratio();

        match strategy {
            Strategy::Dynamic => dynamic_out = out_secs,
            Strategy::CountSort => count_out = out_secs,
            Strategy::RadixSort => radix_out = out_secs,
        }
        table.add_row(vec![
            strategy.name().into(),
            fmt_secs(out_secs),
            fmt_secs(both_secs),
            fmt_pct(miss),
        ]);
    }
    table.print();

    println!();
    println!(
        "radix speedup vs count sort: {}   (paper: 4.8x)",
        fmt_ratio(count_out / radix_out.max(1e-9))
    );
    println!(
        "radix speedup vs dynamic:    {}   (paper: 4.9x)",
        fmt_ratio(dynamic_out / radix_out.max(1e-9))
    );
    println!("paper reference (Twitter, machine B): dynamic 20.0/27.2 69% | count 19.5/23.9 71% | radix 4.0/8.5 26%");
    ctx.save(&table);
}
