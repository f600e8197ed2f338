//! Figure 8: PageRank synchronization strategies — push with locks vs
//! pull without locks, on adjacency lists and grids.
//!
//! Expected shape: removing locks wins. On adjacency lists, pull
//! (no locks) ~40% faster end-to-end than push (locks); on grids, the
//! no-lock (column/row ownership) version gains ~1.5× over the locked
//! one.

use egraph_bench::{fmt_ratio, fmt_secs, graphs, ExperimentCtx, ResultTable};
use egraph_core::algo::pagerank;
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::SyncMode;
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig8",
        "Figure 8 (PageRank: locks vs no locks, adj vs grid)",
    );

    let graph = graphs::rmat(ctx.scale);
    let degrees = graphs::out_degrees_u32(&graph);
    let side = graphs::grid_side(graph.num_vertices());
    let cfg = pagerank::PagerankConfig::default();

    let reps = egraph_bench::reps();
    let (adj_out, pre_out) = egraph_bench::min_time(reps, || {
        let (a, s) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&graph);
        (a, s.seconds)
    });
    let (adj_in, pre_in) = egraph_bench::min_time(reps, || {
        let (a, s) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build_timed(&graph);
        (a, s.seconds)
    });
    let (grid, pre_grid) = egraph_bench::min_time(reps, || {
        let (g, s) = GridBuilder::new(Strategy::RadixSort)
            .side(side)
            .build_timed(&graph);
        (g, s.seconds)
    });

    let (push_locks, _) = egraph_bench::min_time(reps, || {
        let r = pagerank::push(adj_out.out(), &degrees, cfg, SyncMode::Locks);
        let s = r.seconds;
        (r, s)
    });
    let (pull_nolock, _) = egraph_bench::min_time(reps, || {
        let r = pagerank::pull(adj_in.incoming(), &degrees, cfg);
        let s = r.seconds;
        (r, s)
    });
    let (grid_locks, _) = egraph_bench::min_time(reps, || {
        let r = pagerank::grid_push(&grid, &degrees, cfg, SyncMode::Locks);
        let s = r.seconds;
        (r, s)
    });
    let (grid_nolock, _) = egraph_bench::min_time(reps, || {
        let r = pagerank::grid_push(&grid, &degrees, cfg, SyncMode::Atomics);
        let s = r.seconds;
        (r, s)
    });

    let mut table = ResultTable::new(
        "fig8_pagerank_sync",
        &["config", "preprocess(s)", "algorithm(s)", "total(s)"],
    );
    let rows = [
        ("adj. push (locks)", pre_out, push_locks.seconds),
        ("adj. pull (no lock)", pre_in, pull_nolock.seconds),
        ("grid (locks)", pre_grid, grid_locks.seconds),
        ("grid (no lock)", pre_grid, grid_nolock.seconds),
    ];
    for (name, pre, algo) in rows {
        table.add_row(vec![
            name.into(),
            fmt_secs(pre),
            fmt_secs(algo),
            fmt_secs(pre + algo),
        ]);
    }
    table.print();

    println!();
    println!(
        "adj: pull(no lock) end-to-end gain over push(locks): {} (paper: ~40%)",
        fmt_ratio((pre_out + push_locks.seconds) / (pre_in + pull_nolock.seconds).max(1e-9))
    );
    println!(
        "grid: no-lock end-to-end gain over locks:            {} (paper: ~1.5x)",
        fmt_ratio((pre_grid + grid_locks.seconds) / (pre_grid + grid_nolock.seconds).max(1e-9))
    );
    ctx.save(&table);
}
