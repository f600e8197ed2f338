//! Storage: the binary edge-array format and the loading model.
//!
//! §3.4–3.5 of the paper extend the pre-processing comparison to
//! include the time to load the graph from storage: an SSD
//! (380 MB/s) and a spinning disk (100 MB/s). The key observation is
//! that construction techniques differ in how much of their work can
//! *overlap* with loading — dynamic building overlaps fully, count
//! sort's first pass overlaps, radix sort not at all — which flips the
//! Table 2 ranking on slow media (Table 3).
//!
//! This crate provides:
//!
//! * [`format`](mod@format) — a validated binary edge-array format ("the layout of
//!   edge arrays matches the format of the input file", §3.2, taken
//!   literally: records are read straight into the vector the loader
//!   returns and written as the bytes of the slice, with no decode
//!   step), with whole-file and chunked readers that allocate for what
//!   has arrived rather than for what the header claims;
//! * [`results`] — per-vertex result arrays, the same way;
//! * [`medium`] — storage-medium presets (memory / SSD / HDD);
//! * [`throttle`] — a real token-bucket throttled reader, for
//!   integration tests that exercise actual streaming;
//! * [`pipeline`] — the virtual-clock overlap model used by the
//!   Table 3 experiment at scales where real sleeping would dominate;
//! * [`fault`] — deterministic I/O fault injection (short reads,
//!   truncation, mid-stream errors) for the conformance harness.

pub mod counters;
pub mod fault;
pub mod format;
pub mod medium;
pub mod pipeline;
mod pod;
pub mod results;
pub mod text;
pub mod throttle;

pub use fault::{FaultedReader, IoFault};
pub use format::{read_edge_list, read_edge_list_chunked, write_edge_list, FormatError};
pub use medium::Medium;
pub use pipeline::OverlapPlan;
pub use results::{read_f32_result, read_u32_result, write_f32_result, write_u32_result};
pub use text::{read_dimacs, read_snap, write_snap, TextError};
pub use throttle::ThrottledReader;
