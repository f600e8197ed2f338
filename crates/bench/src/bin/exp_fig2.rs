//! Figure 2: pre-processing time of the three construction techniques
//! across RMAT sizes — all scale linearly, radix sort is always
//! fastest (3.3× vs count sort and 3.8× vs dynamic on RMAT26).

use egraph_bench::{fmt_ratio, fmt_secs, graphs, ExperimentCtx, ResultTable};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::timed;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig2",
        "Figure 2 (pre-processing scaling across RMAT sizes)",
    );

    let scales: Vec<u32> = (ctx.scale.saturating_sub(4)..=ctx.scale).collect();
    let mut table = ResultTable::new(
        "fig2_preprocessing_scaling",
        &["graph", "edges", "radix(s)", "dynamic(s)", "count(s)"],
    );

    let mut last: Option<[f64; 3]> = None;
    let mut ratios_ok = true;
    for &scale in &scales {
        let graph = graphs::rmat(scale);
        let reps = egraph_bench::reps();
        let mut secs = [0.0f64; 3];
        for (i, strategy) in [Strategy::RadixSort, Strategy::Dynamic, Strategy::CountSort]
            .into_iter()
            .enumerate()
        {
            let ((), best) = egraph_bench::min_time(reps, || {
                let (_, secs) =
                    timed(|| CsrBuilder::new(strategy, EdgeDirection::Out).build(&graph));
                ((), secs)
            });
            secs[i] = best;
        }
        table.add_row(vec![
            format!("RMAT{scale}"),
            graph.num_edges().to_string(),
            fmt_secs(secs[0]),
            fmt_secs(secs[1]),
            fmt_secs(secs[2]),
        ]);
        if let Some(prev) = last {
            // Doubling the graph should roughly double each time.
            for i in 0..3 {
                let growth = secs[i] / prev[i].max(1e-9);
                if !(1.2..=4.0).contains(&growth) {
                    ratios_ok = false;
                }
            }
        }
        last = Some(secs);
    }
    table.print();

    if let Some(secs) = last {
        println!();
        println!(
            "radix vs count at RMAT{}:   {} (paper: 3.3x)",
            ctx.scale,
            fmt_ratio(secs[2] / secs[0].max(1e-9))
        );
        println!(
            "radix vs dynamic at RMAT{}: {} (paper: 3.8x)",
            ctx.scale,
            fmt_ratio(secs[1] / secs[0].max(1e-9))
        );
        println!(
            "linear scaling across doublings: {}",
            if ratios_ok {
                "yes (~2x per step)"
            } else {
                "noisy at this scale"
            }
        );
    }
    ctx.save(&table);
}
