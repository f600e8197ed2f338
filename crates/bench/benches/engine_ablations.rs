//! Ablations of design choices DESIGN.md calls out: synchronization
//! strategy (locks vs atomics vs structural no-lock), grid side P, and
//! the work-queue grain size of the parallel runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_core::algo::pagerank::PagerankConfig;
use egraph_core::exec::ExecCtx;
use egraph_core::metrics::SyncMode;
use egraph_core::types::Edge;
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use std::hint::black_box;

/// One PageRank iteration of `spec` under `sync` on `graph`, whose
/// layout the first call builds, so call it once outside the timed loop.
fn pagerank_step(spec: &str, graph: &PreparedGraph<'_, Edge>, sync: SyncMode) -> f32 {
    let id: VariantId = spec.parse().expect("valid variant spec");
    let params = RunParams {
        pagerank: PagerankConfig {
            iterations: 1,
            ..Default::default()
        },
        sync,
        ..RunParams::default()
    };
    let run = run_variant(&id, &ExecCtx::new(None), graph, &params).expect("supported variant");
    run.output.as_pagerank().expect("a PageRank run").ranks[0]
}

fn bench_sync_strategies(c: &mut Criterion) {
    let graph = egraph_bench::graphs::rmat(14);
    let prepared = PreparedGraph::new(&graph);

    let mut group = c.benchmark_group("sync_strategy_ablation");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for (name, spec, sync) in [
        ("push_locks", "pagerank/adj/push", SyncMode::Locks),
        ("push_atomics", "pagerank/adj/push", SyncMode::Atomics),
        ("pull_no_sync", "pagerank/adj/pull", SyncMode::Atomics),
    ] {
        pagerank_step(spec, &prepared, sync);
        group.bench_function(name, |b| {
            b.iter(|| black_box(pagerank_step(spec, &prepared, sync)))
        });
    }
    group.finish();
}

fn bench_grid_side(c: &mut Criterion) {
    // "The optimal number of cells in the grid depends on the graph
    // shape and size" (§5.1) — sweep P.
    let graph = egraph_bench::graphs::rmat(15);
    let mut group = c.benchmark_group("grid_side_ablation");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for side in [4usize, 16, 64, 256] {
        let prepared = PreparedGraph::new(&graph).side(side);
        let step = || pagerank_step("pagerank/grid/push", &prepared, SyncMode::Atomics);
        step();
        group.bench_with_input(BenchmarkId::new("pagerank_step", side), &side, |b, _| {
            b.iter(|| black_box(step()))
        });
    }
    group.finish();
}

fn bench_grain_size(c: &mut Criterion) {
    // The paper's "large enough chunks to reduce the work distribution
    // overheads" (§2) — sweep the chunk size of the shared work queue.
    let data: Vec<u64> = (0..1u64 << 20).collect();
    let mut group = c.benchmark_group("work_queue_grain");
    group.throughput(Throughput::Elements(data.len() as u64));
    for grain in [64usize, 1024, 16384, 262144] {
        group.bench_with_input(
            BenchmarkId::new("reduce_sum", grain),
            &grain,
            |b, &grain| {
                b.iter(|| {
                    black_box(egraph_parallel::parallel_reduce(
                        0..data.len(),
                        grain,
                        || 0u64,
                        |acc, r| acc + data[r].iter().sum::<u64>(),
                        |a, b| a + b,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sync_strategies,
    bench_grid_side,
    bench_grain_size
);
criterion_main!(benches);
