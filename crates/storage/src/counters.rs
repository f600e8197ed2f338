//! Opt-in storage counters: bytes read, records parsed, and time
//! spent in the readers.
//!
//! Process-global atomics behind one `enabled` gate (the shape of a
//! pool's `egraph_parallel::telemetry::PoolCounters`, but global: the
//! readers take no context yet) so the read paths pay a single relaxed
//! load when collection is off. Enable with [`enable`] before loading,
//! read with [`snapshot`] after, and [`reset`] between runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES_READ: AtomicU64 = AtomicU64::new(0);
static RECORDS_PARSED: AtomicU64 = AtomicU64::new(0);
static READ_NANOS: AtomicU64 = AtomicU64::new(0);

/// Turns the storage counters on and zeroes them, starting a fresh
/// collection window (same semantics as
/// `egraph_parallel::telemetry::PoolCounters::enable`). Off by default.
pub fn enable() {
    reset();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Registers scrape-time metrics for the storage counters on the
/// global `egraph-metrics` registry. The callbacks read [`snapshot`] on
/// every scrape — the same source an end-of-run `RunTrace` records —
/// so a live `/metrics` scrape and the final trace always agree.
/// Idempotent.
pub fn register_metrics() {
    let r = egraph_metrics::global();
    r.counter_fn(
        "egraph_storage_bytes_read_total",
        "Payload bytes consumed by the storage readers.",
        || snapshot().bytes_read as f64,
    );
    r.counter_fn(
        "egraph_storage_records_parsed_total",
        "Edge records decoded by the storage readers.",
        || snapshot().records_parsed as f64,
    );
    r.counter_fn(
        "egraph_storage_read_seconds_total",
        "Wall seconds spent inside the storage readers.",
        || snapshot().read_seconds,
    );
    r.gauge_fn(
        "egraph_storage_throughput_bytes_per_sec",
        "Read throughput (0 when no read time has been recorded).",
        || snapshot().throughput_bytes_per_sec(),
    );
}

/// Turns the storage counters off (the counts keep their values).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the counters are currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (collection state is unchanged).
pub fn reset() {
    BYTES_READ.store(0, Ordering::Relaxed);
    RECORDS_PARSED.store(0, Ordering::Relaxed);
    READ_NANOS.store(0, Ordering::Relaxed);
}

#[inline]
pub(crate) fn on_read(bytes: u64, records: u64) {
    if enabled() {
        BYTES_READ.fetch_add(bytes, Ordering::Relaxed);
        RECORDS_PARSED.fetch_add(records, Ordering::Relaxed);
    }
}

/// Guard that attributes the time between construction and drop to the
/// reader-seconds counter (only when collection is on at construction).
pub(crate) struct ReadTimer(Option<Instant>);

impl ReadTimer {
    pub(crate) fn start() -> Self {
        Self(enabled().then(Instant::now))
    }
}

impl Drop for ReadTimer {
    fn drop(&mut self) {
        if let Some(start) = self.0 {
            READ_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the storage counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageSnapshot {
    /// Payload bytes consumed by the readers (headers included).
    pub bytes_read: u64,
    /// Edge records decoded.
    pub records_parsed: u64,
    /// Wall seconds spent inside the readers.
    pub read_seconds: f64,
}

impl StorageSnapshot {
    /// Read throughput in bytes per second (0.0 when no time was
    /// recorded).
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        if self.read_seconds > 0.0 {
            self.bytes_read as f64 / self.read_seconds
        } else {
            0.0
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> StorageSnapshot {
    StorageSnapshot {
        bytes_read: BYTES_READ.load(Ordering::Relaxed),
        records_parsed: RECORDS_PARSED.load(Ordering::Relaxed),
        read_seconds: READ_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_handles_zero_time() {
        let snap = StorageSnapshot {
            bytes_read: 100,
            records_parsed: 10,
            read_seconds: 0.0,
        };
        assert_eq!(snap.throughput_bytes_per_sec(), 0.0);
    }

    #[test]
    fn throughput_is_bytes_over_seconds() {
        let snap = StorageSnapshot {
            bytes_read: 1_000,
            records_parsed: 125,
            read_seconds: 2.0,
        };
        assert!((snap.throughput_bytes_per_sec() - 500.0).abs() < 1e-9);
    }
}
