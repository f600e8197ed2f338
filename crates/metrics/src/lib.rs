//! Live metrics and memory observability for the EverythingGraph runtime.
//!
//! Three layers, all zero-external-dependency:
//!
//! * [`registry`] — a process-global metrics registry holding counters,
//!   gauges and fixed-log-bucket histograms. Hot-path increments land in
//!   cache-line-padded per-worker shards ([`sharded`]) indexed by
//!   [`egraph_parallel::current_worker_index`], so workers never contend
//!   on a shared cache line and a concurrent scrape never blocks a
//!   worker. (The registry deliberately does *not* reuse
//!   [`egraph_parallel::WorkerLocal`] directly: `WorkerLocal`'s
//!   exclusive-borrow protocol panics on concurrent access, which is
//!   exactly what a live `/metrics` scrape from a server thread would
//!   trigger. The padded-shard layout keeps the same worker-local idea
//!   while staying lock-free for readers.)
//! * [`expose`] — Prometheus text exposition format 0.0.4 rendering with
//!   full label escaping, cumulative histogram buckets and a `+Inf`
//!   terminal bucket.
//! * [`server`] — an opt-in `/metrics` + `/healthz` HTTP endpoint on a
//!   plain `std::net::TcpListener` accept thread.
//!
//! The fourth piece, [`alloc`], is a tracking [`core::alloc::GlobalAlloc`]
//! wrapper over the system allocator that attributes allocated / freed /
//! peak-live bytes to the current telemetry phase, plus a
//! `/proc/self/statm` RSS sampler as the always-available fallback.
//! A binary turns it on by installing [`alloc::TrackingAlloc`] as its
//! `#[global_allocator]` (the `egraph` CLI always does); the stats API
//! is always safe to call and reads as zero when the allocator is not
//! installed.

pub mod alloc;
pub mod expose;
pub mod registry;
pub mod server;
pub mod sharded;

use std::ops::Deref;

use egraph_parallel::telemetry::PoolSnapshot;
use egraph_parallel::ThreadPool;

pub use registry::{
    global, sanitize_metric_name, Counter, Gauge, Histogram, MetricsRegistry, Unit,
};
pub use server::{health, healthz_response, serve, set_health, BindError, Health, MetricsServer};

/// Register gauges/counters for one `egraph-parallel` pool's counters
/// (busy seconds, regions, chunks, load imbalance): the `pool` handle
/// is the global pool (`egraph_parallel::global_pool()`) or an
/// `Arc<ThreadPool>` such as a serve engine's wave pool.
///
/// The callbacks read the pool's counter snapshot on every scrape, so
/// `/metrics` always reports exactly the totals that a final `RunTrace`
/// records from the same source. The pool counts only while its
/// counters are enabled. Idempotent: repeated calls keep the first
/// pool's registrations.
pub fn register_pool_metrics<P>(pool: P)
where
    P: Deref<Target = ThreadPool> + Clone + Send + Sync + 'static,
{
    let r = global();
    let read = move |f: fn(&PoolSnapshot) -> f64| {
        let pool = pool.clone();
        move || f(&pool.counters().snapshot())
    };
    r.counter_fn(
        "egraph_pool_regions_total",
        "Parallel regions executed by the pool.",
        read(|s| s.regions as f64),
    );
    r.counter_fn(
        "egraph_pool_chunks_total",
        "Chunks claimed from shared work queues.",
        read(|s| s.chunks as f64),
    );
    r.counter_fn(
        "egraph_pool_busy_seconds_total",
        "Total worker busy time across all workers.",
        read(PoolSnapshot::total_busy_seconds),
    );
    r.gauge_fn(
        "egraph_pool_load_imbalance",
        "Max worker busy time divided by mean worker busy time (1.0 = perfectly balanced).",
        read(PoolSnapshot::load_imbalance),
    );
}

/// Register gauges/counters for the tracking-allocator statistics and the
/// `/proc/self/statm` RSS fallback. Safe to call whether or not
/// [`alloc::TrackingAlloc`] is installed; uninstalled stats read as zero.
pub fn register_alloc_metrics() {
    let r = global();
    r.gauge_fn(
        "egraph_alloc_live_bytes",
        "Heap bytes currently live according to the tracking allocator (0 if not installed).",
        || alloc::live_bytes() as f64,
    );
    r.gauge_fn(
        "egraph_alloc_peak_bytes",
        "Peak live heap bytes observed by the tracking allocator (0 if not installed).",
        || alloc::peak_bytes() as f64,
    );
    r.counter_fn(
        "egraph_alloc_allocated_bytes_total",
        "Total heap bytes allocated since process start (0 if the tracking allocator is not installed).",
        || alloc::totals().allocated_bytes as f64,
    );
    r.counter_fn(
        "egraph_alloc_freed_bytes_total",
        "Total heap bytes freed since process start (0 if the tracking allocator is not installed).",
        || alloc::totals().freed_bytes as f64,
    );
    r.gauge_fn(
        "egraph_process_resident_bytes",
        "Resident set size sampled from /proc/self/statm (0 where unavailable).",
        || alloc::rss_bytes().unwrap_or(0) as f64,
    );
}
