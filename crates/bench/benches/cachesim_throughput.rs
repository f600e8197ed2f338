//! Throughput of the LLC simulator itself — how much a replayed
//! measurement costs per simulated access, and the relative price of
//! sequential vs random streams.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use egraph_cachesim::{AccessKind, CacheConfig, LlcProbe, MemProbe, SetAssocCache};
use std::hint::black_box;

const N: u64 = 1 << 18;

fn bench_cache_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(N));
    group.bench_function("sequential", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::machine_b_llc());
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..N {
                hits += u64::from(cache.access(i * 8));
            }
            black_box(hits)
        })
    });
    group.bench_function("random", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::machine_b_llc());
        b.iter(|| {
            let mut hits = 0u64;
            let mut state = 0x12345678u64;
            for _ in 0..N {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                hits += u64::from(cache.access((state >> 16) % (1 << 32)));
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_touch");
    group.throughput(Throughput::Elements(N));
    let probe = LlcProbe::new(CacheConfig::machine_b_llc());
    group.bench_function("llc_probe", |b| {
        b.iter(|| {
            for i in 0..N {
                probe.touch(AccessKind::Edge, i * 8);
            }
            black_box(probe.report().total().accesses)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_core, bench_probe_overhead);
criterion_main!(benches);
