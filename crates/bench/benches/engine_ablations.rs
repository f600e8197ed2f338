//! Ablations of design choices DESIGN.md calls out: synchronization
//! strategy (locks vs atomics vs structural no-lock), grid side P, and
//! the work-queue grain size of the parallel runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_core::algo::pagerank::{self, PagerankConfig};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::SyncMode;
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};
use std::hint::black_box;

fn bench_sync_strategies(c: &mut Criterion) {
    let graph = egraph_bench::graphs::rmat(14);
    let degrees = egraph_bench::graphs::out_degrees_u32(&graph);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let cfg = PagerankConfig {
        iterations: 1,
        ..Default::default()
    };

    let mut group = c.benchmark_group("sync_strategy_ablation");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("push_locks", |b| {
        b.iter(|| black_box(pagerank::push(adj.out(), &degrees, cfg, SyncMode::Locks).ranks[0]))
    });
    group.bench_function("push_atomics", |b| {
        b.iter(|| black_box(pagerank::push(adj.out(), &degrees, cfg, SyncMode::Atomics).ranks[0]))
    });
    group.bench_function("pull_no_sync", |b| {
        b.iter(|| black_box(pagerank::pull(adj.incoming(), &degrees, cfg).ranks[0]))
    });
    group.finish();
}

fn bench_grid_side(c: &mut Criterion) {
    // "The optimal number of cells in the grid depends on the graph
    // shape and size" (§5.1) — sweep P.
    let graph = egraph_bench::graphs::rmat(15);
    let degrees = egraph_bench::graphs::out_degrees_u32(&graph);
    let cfg = PagerankConfig {
        iterations: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("grid_side_ablation");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for side in [4usize, 16, 64, 256] {
        let grid = GridBuilder::new(Strategy::RadixSort)
            .side(side)
            .build(&graph);
        group.bench_with_input(BenchmarkId::new("pagerank_step", side), &grid, |b, grid| {
            b.iter(|| {
                black_box(pagerank::grid_push(grid, &degrees, cfg, SyncMode::Atomics).ranks[0])
            })
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

fn bench_schedulers(c: &mut Criterion) {
    // Shared-counter chunk queue vs per-worker-deque work stealing, on
    // an even loop and on a pathologically skewed one.
    let n = 1usize << 18;
    let mut group = c.benchmark_group("scheduler_ablation");
    group.throughput(Throughput::Elements(n as u64));

    let even_work = |r: std::ops::Range<usize>| {
        let mut acc = 0u64;
        for i in r {
            acc = acc.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
        }
        black_box(acc);
    };
    group.bench_function("chunk_queue_even", |b| {
        b.iter(|| egraph_parallel::parallel_for(0..n, 1024, even_work))
    });
    group.bench_function("work_stealing_even", |b| {
        b.iter(|| egraph_parallel::stealing::stealing_for(0..n, 1024, even_work))
    });

    let skewed_work = |r: std::ops::Range<usize>| {
        let mut acc = 0u64;
        for i in r {
            // The first 64 indices cost ~1000x the rest.
            let reps = if i < 64 { 1000 } else { 1 };
            for _ in 0..reps {
                acc = acc.wrapping_add(i as u64);
            }
        }
        black_box(acc);
    };
    group.bench_function("chunk_queue_skewed", |b| {
        b.iter(|| egraph_parallel::parallel_for(0..n, 1024, skewed_work))
    });
    group.bench_function("work_stealing_skewed", |b| {
        b.iter(|| egraph_parallel::stealing::stealing_for(0..n, 1024, skewed_work))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sync_strategies,
    bench_grid_side,
    bench_grain_size,
    bench_schedulers
);
criterion_main!(benches);
