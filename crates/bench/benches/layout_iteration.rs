//! Per-layout edge-iteration throughput: one PageRank accumulation
//! step over an adjacency list, an edge array and a grid — the raw
//! cost behind Fig. 3 and Fig. 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_core::algo::pagerank::{self, PagerankConfig};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::SyncMode;
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};
use std::hint::black_box;

fn bench_layouts(c: &mut Criterion) {
    let scale = 15u32;
    let graph = egraph_bench::graphs::rmat(scale);
    let degrees = egraph_bench::graphs::out_degrees_u32(&graph);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let grid = GridBuilder::new(Strategy::RadixSort).side(16).build(&graph);
    let cfg = PagerankConfig {
        iterations: 1,
        ..Default::default()
    };

    let mut group = c.benchmark_group("pagerank_one_iteration");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));

    group.bench_function(BenchmarkId::new("adj_pull_nolock", scale), |b| {
        b.iter(|| black_box(pagerank::pull(adj.incoming(), &degrees, cfg).ranks[0]))
    });
    group.bench_function(BenchmarkId::new("adj_push_atomics", scale), |b| {
        b.iter(|| black_box(pagerank::push(adj.out(), &degrees, cfg, SyncMode::Atomics).ranks[0]))
    });
    group.bench_function(BenchmarkId::new("edge_array_atomics", scale), |b| {
        b.iter(|| {
            black_box(pagerank::edge_centric(&graph, &degrees, cfg, SyncMode::Atomics).ranks[0])
        })
    });
    group.bench_function(BenchmarkId::new("grid_columns_nolock", scale), |b| {
        b.iter(|| black_box(pagerank::grid_push(&grid, &degrees, cfg, SyncMode::Atomics).ranks[0]))
    });
    group.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
