//! Figure 9: NUMA-aware data placement vs interleaving, for BFS and
//! PageRank on machines A (2 NUMA nodes) and B (4 nodes).
//!
//! Partitioning cost is measured for real (`egraph_bench::numa::partition_by_target`);
//! the algorithm bar is the measured single-node time scaled by the
//! locality cost model (DESIGN.md §4). Expected shape: NUMA-awareness
//! pays end-to-end only for PageRank and only on machine B; for BFS it
//! loses on both machines (partitioning dwarfs the run, and frontier
//! concentration causes memory contention).

use egraph_bench::numa::{
    bfs_locality, pagerank_locality, partition_by_target, CostModel, DataPolicy, MemoryBoundness,
    Topology,
};
use egraph_bench::{fmt_ratio, fmt_secs, graphs, measure, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig9",
        "Figure 9 (NUMA-aware vs interleaved, BFS & PageRank, machines A/B)",
    );

    let graph = graphs::rmat(ctx.scale);
    let root = graphs::best_root(&graph);

    // Best algorithm configurations per the earlier sections:
    // push-pull BFS (both directions built), pull-without-locks
    // PageRank (the in-direction only).
    let params = RunParams {
        root,
        ..RunParams::default()
    };
    let [bfs, pagerank] = ["bfs/adj/push-pull", "pagerank/adj/pull"].map(|spec| {
        let id: VariantId = spec.parse().expect("valid variant spec");
        let prepare = || PreparedGraph::new(&graph);
        measure(
            &ExecCtx::new(None),
            prepare,
            &id,
            &params,
            egraph_bench::reps(),
        )
    });

    let mut table = ResultTable::new(
        "fig9_numa",
        &[
            "algo",
            "machine",
            "policy",
            "preprocess(s)",
            "partition(s)",
            "algorithm(s)",
            "total(s)",
        ],
    );

    let mut totals = std::collections::BTreeMap::new();
    for topo in [Topology::machine_a(), Topology::machine_b()] {
        let model = CostModel::new(topo.clone());
        let partition = partition_by_target(&graph, topo.num_nodes);
        for policy in [DataPolicy::Interleaved, DataPolicy::NumaAware] {
            let partition_s = match policy {
                DataPolicy::Interleaved => 0.0,
                DataPolicy::NumaAware => partition.seconds,
            };
            let policy_name = match policy {
                DataPolicy::Interleaved => "inter.",
                DataPolicy::NumaAware => "NUMA",
            };
            // BFS.
            let profile = bfs_locality(&graph, root, policy, topo.num_nodes);
            let modeled =
                profile.modeled(&model, bfs.algorithm_seconds, MemoryBoundness::TRAVERSAL);
            let total = bfs.preprocess_seconds + partition_s + modeled.modeled_seconds;
            totals.insert(format!("bfs/{}/{policy_name}", topo.name), total);
            table.add_row(vec![
                "bfs".into(),
                topo.name.into(),
                policy_name.into(),
                fmt_secs(bfs.preprocess_seconds),
                fmt_secs(partition_s),
                fmt_secs(modeled.modeled_seconds),
                fmt_secs(total),
            ]);
            // PageRank.
            let profile = pagerank_locality(&graph, policy, topo.num_nodes);
            let modeled = profile.modeled(
                &model,
                pagerank.algorithm_seconds,
                MemoryBoundness::PAGERANK,
            );
            let total = pagerank.preprocess_seconds + partition_s + modeled.modeled_seconds;
            totals.insert(format!("pagerank/{}/{policy_name}", topo.name), total);
            table.add_row(vec![
                "pagerank".into(),
                topo.name.into(),
                policy_name.into(),
                fmt_secs(pagerank.preprocess_seconds),
                fmt_secs(partition_s),
                fmt_secs(modeled.modeled_seconds),
                fmt_secs(total),
            ]);
        }
    }
    table.print();

    println!();
    let ratio = |a: &str, b: &str| totals[a] / totals[b].max(1e-9);
    println!(
        "PR machine B: interleaved/NUMA total = {} (paper: NUMA wins, ~2x algorithm gain)",
        fmt_ratio(ratio(
            "pagerank/machine-B/inter.",
            "pagerank/machine-B/NUMA"
        ))
    );
    println!(
        "PR machine A: interleaved/NUMA total = {} (paper: NUMA does NOT pay end-to-end)",
        fmt_ratio(ratio(
            "pagerank/machine-A/inter.",
            "pagerank/machine-A/NUMA"
        ))
    );
    println!(
        "BFS machine B: NUMA/interleaved total = {} (paper: ~1.8x slower)",
        fmt_ratio(ratio("bfs/machine-B/NUMA", "bfs/machine-B/inter."))
    );
    println!(
        "BFS machine A: NUMA/interleaved total = {} (paper: ~3.5x slower)",
        fmt_ratio(ratio("bfs/machine-A/NUMA", "bfs/machine-A/inter."))
    );
    ctx.save(&table);
}
