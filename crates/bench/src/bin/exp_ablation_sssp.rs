//! Ablation: the bucket width of SSSP — one kernel from the paper's
//! frontier Bellman-Ford (Δ = ∞, one bucket) down to near-Dijkstra
//! small deltas, and the width `sssp/adj/push` derives from the graph.
//!
//! Bucketing bounds the wasted relaxations that make plain frontier
//! SSSP re-process vertices "many times during the computation" (§8);
//! this run shows the rounds/relaxations/time trade-off on both graph
//! shapes.

use egraph_bench::{fmt_secs, graphs, min_time, reps, ExperimentCtx, ResultTable};
use egraph_core::algo::sssp;
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_ablation_sssp",
        "ablation: SSSP bucket width, Bellman-Ford (inf) to near-Dijkstra",
    );
    let reps = reps();

    let mut table = ResultTable::new(
        "ablation_sssp",
        &["graph", "delta", "iterations", "relaxed", "algorithm(s)"],
    );

    for (name, base) in [
        ("RMAT", graphs::rmat(ctx.scale)),
        ("US-Road", graphs::road_like(ctx.scale)),
    ] {
        let weighted = graphs::with_weights(&base);
        let root = graphs::best_root(&base);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&weighted);

        let derived = sssp::derive_delta(&adj);
        let mut reachable = None;
        for (label, delta) in [
            ("inf (bellman-ford)".to_string(), f32::INFINITY),
            ("8".to_string(), 8.0),
            ("2".to_string(), 2.0),
            ("0.5".to_string(), 0.5),
            (format!("{derived:.3} (derived)"), derived),
        ] {
            let (r, secs) = min_time(reps, || {
                let r = sssp::delta_stepping(&adj, root, delta);
                let s = r.algorithm_seconds();
                (r, s)
            });
            // Same answer at every width.
            let reached = *reachable.get_or_insert(r.reachable_count());
            assert_eq!(r.reachable_count(), reached, "delta {label}");
            let relaxed: usize = r.iterations.iter().map(|s| s.edges_scanned).sum();
            table.add_row(vec![
                name.into(),
                label,
                r.iterations.len().to_string(),
                relaxed.to_string(),
                fmt_secs(secs),
            ]);
        }
    }
    table.print();
    println!();
    println!("expected shape: on the weighted road graph any finite delta cuts the");
    println!("wasted relaxations of plain Bellman-Ford several-fold (more the larger");
    println!("the graph); on low-diameter RMAT narrow buckets trade a few more rounds");
    println!("for a little less work.");
    ctx.save(&table);
}
