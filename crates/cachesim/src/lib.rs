//! A last-level-cache (LLC) simulator for graph-kernel miss-ratio
//! measurements.
//!
//! The paper reports LLC miss percentages measured with hardware
//! performance counters (Tables 2 and 4) and attributes them to the
//! three memory accesses every graph kernel performs per edge: fetching
//! the **edge** itself, fetching the **source vertex metadata** and
//! fetching the **destination vertex metadata** (§5). This crate is the
//! software model that stands in for those counters, driven by replayed
//! access streams — nothing in the engine is instrumented;
//! `egraph-bench`'s `trace` module walks a layout in the order a kernel
//! touches memory and feeds each access to a probe:
//!
//! * [`SetAssocCache`] — a set-associative, LRU, 64-byte-line cache
//!   sized like the evaluation machines' LLCs (16 MB for machine B,
//!   20 MB for machine A), and [`CacheHierarchy`] — a private L2 in
//!   front of it plus a stream prefetcher,
//! * [`MemProbe`] — the sink a replay feeds, one access at a time; an
//!   [`LlcProbe`] (or a [`HierarchyProbe`], which counts only the
//!   traffic that reaches the LLC, like `perf`) produces
//!   per-access-kind hit/miss statistics.
//!
//! Address streams use real byte distances (`edge_index * edge_size`,
//! `vertex_id * metadata_stride`) in disjoint address regions, so
//! spatial and temporal locality — the whole point of the paper's §5 —
//! are modelled faithfully.
//!
//! # Examples
//!
//! ```
//! use egraph_cachesim::{AccessKind, CacheConfig, LlcProbe, MemProbe};
//!
//! let probe = LlcProbe::new(CacheConfig::machine_b_llc());
//! // A sequential scan mostly hits (one miss per 64-byte line).
//! for i in 0..10_000u64 {
//!     probe.touch(AccessKind::Edge, i * 8);
//! }
//! let report = probe.report();
//! assert!(report.overall_miss_ratio() < 0.15);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod probe;

pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use hierarchy::{AccessOutcome, CacheHierarchy, StreamPrefetcher};
pub use probe::{AccessKind, HierarchyProbe, LlcProbe, MemProbe, MissReport};
