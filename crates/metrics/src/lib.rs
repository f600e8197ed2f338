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

pub use registry::{
    global, sanitize_metric_name, Counter, Gauge, Histogram, MetricsRegistry, Unit,
};
pub use server::{health, healthz_response, serve, set_health, BindError, Health, MetricsServer};

/// Register gauges/counters for the `egraph-parallel` pool telemetry
/// (busy seconds, regions, chunks, tasks, load imbalance).
///
/// The callbacks read [`egraph_parallel::telemetry::snapshot`] on every
/// scrape, so `/metrics` always reports exactly the totals that a final
/// `RunTrace` records from the same source. Idempotent: repeated calls
/// reuse the existing registrations.
pub fn register_pool_metrics() {
    let r = global();
    r.counter_fn(
        "egraph_pool_regions_total",
        "Parallel regions executed by the pool.",
        || egraph_parallel::telemetry::snapshot().regions as f64,
    );
    r.counter_fn(
        "egraph_pool_chunks_total",
        "Chunks claimed from shared work queues.",
        || egraph_parallel::telemetry::snapshot().chunks as f64,
    );
    r.counter_fn(
        "egraph_pool_busy_seconds_total",
        "Total worker busy time across all workers.",
        || egraph_parallel::telemetry::snapshot().total_busy_seconds(),
    );
    r.gauge_fn(
        "egraph_pool_load_imbalance",
        "Max worker busy time divided by mean worker busy time (1.0 = perfectly balanced).",
        || egraph_parallel::telemetry::snapshot().load_imbalance(),
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
