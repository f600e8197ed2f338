//! NUMA substrate throughput: the real partitioning pass and the
//! locality-profile computation the §7 experiments run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_bench::numa::{bfs_locality, pagerank_locality, partition_by_target, DataPolicy};
use std::hint::black_box;

fn bench_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("numa_partition");
    for scale in [14u32, 16] {
        let graph = egraph_bench::graphs::rmat(scale);
        group.throughput(Throughput::Elements(graph.num_edges() as u64));
        for nodes in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("partition_{nodes}nodes"), scale),
                &graph,
                |b, graph| b.iter(|| black_box(partition_by_target(graph, nodes).num_edges())),
            );
        }
    }
    group.finish();
}

fn bench_locality_profiles(c: &mut Criterion) {
    let graph = egraph_bench::graphs::rmat(15);
    let mut group = c.benchmark_group("locality_profile");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for policy in [DataPolicy::Interleaved, DataPolicy::NumaAware] {
        let label = match policy {
            DataPolicy::Interleaved => "interleaved",
            DataPolicy::NumaAware => "numa_aware",
        };
        group.bench_function(BenchmarkId::new("pagerank", label), |b| {
            b.iter(|| black_box(pagerank_locality(&graph, policy, 4).weighted_peak_share))
        });
        group.bench_function(BenchmarkId::new("bfs", label), |b| {
            b.iter(|| black_box(bfs_locality(&graph, 0, policy, 4).weighted_peak_share))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioning, bench_locality_profiles);
criterion_main!(benches);
