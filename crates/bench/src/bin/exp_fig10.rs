//! Figure 10: memory-bus contention on high-diameter graphs — BFS on
//! the US-Road-shaped lattice, machine B, interleaved vs NUMA-aware.
//!
//! Expected shape: the NUMA-aware version is many times slower
//! end-to-end (the paper reports 12×): partitioning dwarfs the short
//! BFS, and the localized wavefront turns the partitioned layout into
//! a serial sequence of memory-controller hotspots.

use egraph_bench::numa::{
    bfs_locality, partition_by_target, CostModel, DataPolicy, MemoryBoundness, Topology,
};
use egraph_bench::{fmt_ratio, fmt_secs, graphs, measure, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig10",
        "Figure 10 (BFS on road graph, NUMA contention)",
    );

    let graph = graphs::road_like(ctx.scale);
    println!(
        "graph: road-like, {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let topo = Topology::machine_b();
    let model = CostModel::new(topo.clone());
    let id: VariantId = "bfs/adj/push-pull".parse().expect("valid variant spec");
    let prepare = || PreparedGraph::new(&graph);
    let params = RunParams::default();
    let bfs = measure(
        &ExecCtx::new(None),
        prepare,
        &id,
        &params,
        egraph_bench::reps(),
    );
    let partition = partition_by_target(&graph, topo.num_nodes);

    let mut table = ResultTable::new(
        "fig10_road_bfs_numa",
        &[
            "policy",
            "preprocess(s)",
            "partition(s)",
            "algorithm(s)",
            "total(s)",
            "peak-node-share",
        ],
    );
    let mut totals = Vec::new();
    for policy in [DataPolicy::Interleaved, DataPolicy::NumaAware] {
        let profile = bfs_locality(&graph, 0, policy, topo.num_nodes);
        let modeled = profile.modeled(&model, bfs.algorithm_seconds, MemoryBoundness::TRAVERSAL);
        let partition_s = match policy {
            DataPolicy::Interleaved => 0.0,
            DataPolicy::NumaAware => partition.seconds,
        };
        let total = bfs.preprocess_seconds + partition_s + modeled.modeled_seconds;
        totals.push(total);
        table.add_row(vec![
            match policy {
                DataPolicy::Interleaved => "B inter.".into(),
                DataPolicy::NumaAware => "B NUMA".into(),
            },
            fmt_secs(bfs.preprocess_seconds),
            fmt_secs(partition_s),
            fmt_secs(modeled.modeled_seconds),
            fmt_secs(total),
            format!("{:.2}", profile.weighted_peak_share),
        ]);
    }
    table.print();

    println!();
    println!(
        "NUMA / interleaved end-to-end: {} (paper: 12x slower)",
        fmt_ratio(totals[1] / totals[0].max(1e-9))
    );
    println!("the localized BFS wavefront concentrates all traffic on one node at a time;");
    println!("partitioning time alone dwarfs this short algorithm.");
    ctx.save(&table);
}
