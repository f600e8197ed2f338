//! The storage-medium model behind Table 3 (§3.4–3.5): loading time
//! included in the pre-processing comparison.
//!
//! The paper loads its graphs from an SSD (380 MB/s) and a spinning disk
//! (100 MB/s). Construction techniques differ in how much of their work
//! can *overlap* with loading — dynamic building overlaps fully, count
//! sort's first pass overlaps, radix sort not at all — which flips the
//! Table 2 ranking on slow media. Throttling a real read to those
//! rates would make sleeping dominate the run at bench scale, so
//! `exp_table3` combines measured pre-processing with:
//!
//! * [`medium`] — storage-medium presets (memory / SSD / HDD);
//! * [`pipeline`] — the virtual-clock overlap model.
//!
//! Real streaming through a bandwidth-limited reader is
//! `egraph_storage::ThrottledReader`, which the tests and
//! `examples/loading_pipeline.rs` use.

pub mod medium;
pub mod pipeline;

pub use medium::Medium;
pub use pipeline::OverlapPlan;
