//! Per-layout edge-iteration throughput: one PageRank accumulation
//! step over an adjacency list, an edge array and a grid — the raw
//! cost behind Fig. 3 and Fig. 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_core::algo::pagerank::PagerankConfig;
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use std::hint::black_box;

fn bench_layouts(c: &mut Criterion) {
    let scale = 15u32;
    let graph = egraph_bench::graphs::rmat(scale);
    let prepared = PreparedGraph::new(&graph).side(16);
    let params = RunParams {
        pagerank: PagerankConfig {
            iterations: 1,
            ..Default::default()
        },
        ..RunParams::default()
    };

    let mut group = c.benchmark_group("pagerank_one_iteration");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for (name, spec) in [
        ("adj_pull_nolock", "pagerank/adj/pull"),
        ("adj_push_atomics", "pagerank/adj/push"),
        ("edge_array_atomics", "pagerank/edge/push"),
        ("grid_columns_nolock", "pagerank/grid/push"),
    ] {
        let id: VariantId = spec.parse().expect("valid variant spec");
        let step = || {
            let run = run_variant(&id, &ExecCtx::new(None), &prepared, &params);
            run.expect("supported variant")
                .output
                .as_pagerank()
                .expect("a PageRank run")
                .ranks[0]
        };
        // The first run builds the layout, outside the timed loop.
        step();
        group.bench_function(BenchmarkId::new(name, scale), |b| {
            b.iter(|| black_box(step()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
