//! Table 6: best approaches for WCC, SpMV, SSSP and ALS across the
//! datasets, with the end-to-end breakdown.
//!
//! Paper: WCC → edge array on low-diameter graphs (undirected copy
//! makes adjacency pre-processing too expensive) but adj. list on the
//! high-diameter road graph; SpMV → always edge array; SSSP → adj.
//! list push; ALS → adj. list pull (no lock). Each row also runs the
//! paper's loser to verify the ordering. All timings are minimum-of-N
//! (EGRAPH_REPS) to filter host noise.
//!
//! The WCC reading differs from the paper's since PR 16: WCC here is one
//! union-find pass, not label propagation, so the road graph no longer
//! costs the edge array a pass per hop and the adjacency list no longer
//! needs an undirected copy — no layout earns back its pre-processing,
//! and the edge array wins end to end on both graphs (EXPERIMENTS.md
//! "PR 16").

use egraph_bench::{fmt_secs, graphs, min_time, reps, ExperimentCtx, ResultTable};
use egraph_core::algo::{als, spmv, sssp, wcc};
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_table6",
        "Table 6 (best approaches: WCC, SpMV, SSSP, ALS)",
    );
    let reps = reps();

    let mut table = ResultTable::new(
        "table6_other_algorithms",
        &[
            "algo",
            "graph",
            "layout",
            "model",
            "preprocess(s)",
            "algorithm(s)",
            "total(s)",
        ],
    );
    let row = |t: &mut ResultTable,
               algo: &str,
               graph: &str,
               layout: &str,
               model: &str,
               pre: f64,
               alg: f64| {
        t.add_row(vec![
            algo.into(),
            graph.into(),
            layout.into(),
            model.into(),
            fmt_secs(pre),
            fmt_secs(alg),
            fmt_secs(pre + alg),
        ]);
    };

    // --- WCC on RMAT and road: one pass on either layout, so the
    // edge array (no pre-processing) should win on both. ---
    for (name, graph) in [
        ("RMAT", graphs::rmat(ctx.scale)),
        ("US-Road", graphs::road_like(ctx.scale)),
    ] {
        let (r, wcc_edge) = min_time(reps, || {
            let r = wcc::edge_centric(&graph);
            let s = r.algorithm_seconds();
            (r, s)
        });
        row(&mut table, "WCC", name, "Edge array", "Push", 0.0, wcc_edge);

        let (adj, wcc_pre) = min_time(reps, || {
            let (a, s) =
                CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&graph);
            (a, s.seconds)
        });
        let (r2, wcc_adj) = min_time(reps, || {
            let r = wcc::push(&adj);
            let s = r.algorithm_seconds();
            (r, s)
        });
        assert_eq!(
            r.component_count(),
            r2.component_count(),
            "WCC variants agree"
        );
        row(
            &mut table,
            "WCC",
            name,
            "Adj. list",
            "Push",
            wcc_pre,
            wcc_adj,
        );
    }

    // --- SpMV: edge array vs adjacency list on RMAT. ---
    {
        let graph = graphs::rmat(ctx.scale);
        let weighted = graphs::with_weights(&graph);
        let x: Vec<f32> = (0..graph.num_vertices()).map(|i| (i % 13) as f32).collect();
        let ((), spmv_edge) = min_time(reps, || {
            let r = spmv::edge_centric(&weighted, &x);
            ((), r.seconds)
        });
        row(
            &mut table,
            "SpMV",
            "RMAT",
            "Edge array",
            "Push",
            0.0,
            spmv_edge,
        );
        let (wadj, wpre) = min_time(reps, || {
            let (a, s) =
                CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&weighted);
            (a, s.seconds)
        });
        let ((), spmv_adj) = min_time(reps, || {
            let r = spmv::push(wadj.out(), &x);
            ((), r.seconds)
        });
        row(
            &mut table,
            "SpMV",
            "RMAT",
            "Adj. list",
            "Push",
            wpre,
            spmv_adj,
        );
    }

    // --- SSSP: adjacency push vs edge array on RMAT and road. ---
    for (name, base) in [
        ("RMAT", graphs::rmat(ctx.scale)),
        ("US-Road", graphs::road_like(ctx.scale)),
    ] {
        let weighted = graphs::with_weights(&base);
        let root = graphs::best_root(&base);
        let (wadj, wpre) = min_time(reps, || {
            let (a, s) =
                CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&weighted);
            (a, s.seconds)
        });
        let (r, sssp_adj) = min_time(reps, || {
            let r = sssp::push(&wadj, root);
            let s = r.algorithm_seconds();
            (r, s)
        });
        row(
            &mut table,
            "SSSP",
            name,
            "Adj. list",
            "Push",
            wpre,
            sssp_adj,
        );
        let sssp_reps = if name == "US-Road" { 1 } else { reps };
        let (r2, sssp_edge) = min_time(sssp_reps, || {
            let r = sssp::edge_centric(&weighted, root);
            let s = r.algorithm_seconds();
            (r, s)
        });
        assert_eq!(
            r.reachable_count(),
            r2.reachable_count(),
            "SSSP variants agree"
        );
        row(
            &mut table,
            "SSSP",
            name,
            "Edge array",
            "Push",
            0.0,
            sssp_edge,
        );
    }

    // --- ALS on the Netflix-shaped bipartite graph. ---
    let (ratings, num_users) = graphs::netflix_like(ctx.scale.min(16));
    let (radj, rpre) = min_time(reps, || {
        let (a, s) =
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build_timed(&ratings);
        (a, s.seconds)
    });
    let (r, als_secs) = min_time(reps, || {
        let r = als::als(
            radj.out(),
            radj.incoming(),
            num_users,
            als::AlsConfig::default(),
        );
        let s = r.seconds;
        (r, s)
    });
    row(
        &mut table,
        "ALS",
        "Netflix",
        "Adj. list",
        "Pull (no lock)",
        rpre,
        als_secs,
    );
    println!(
        "(ALS trained to RMSE {:.3} over {} ratings)\n",
        r.rmse_history.last().copied().unwrap_or(f64::NAN),
        ratings.num_edges()
    );

    table.print();
    println!();
    println!("paper Table 6: WCC RMAT edge 11.0 / Twitter edge 19.2 / US-Road adj 57.4;");
    println!("SpMV always edge array; SSSP always adj push; ALS Netflix adj pull 8.1.");
    println!("(WCC here is one union-find pass: the edge array wins on the road graph too.)");
    ctx.save(&table);
}
