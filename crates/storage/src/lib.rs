//! Storage: the binary edge-array format, text import and real
//! throttled loading.
//!
//! §3.4–3.5 of the paper extend the pre-processing comparison to
//! include the time to load the graph from storage: an SSD
//! (380 MB/s) and a spinning disk (100 MB/s). This crate holds only the
//! real I/O path; the medium presets and the load/pre-process overlap
//! model behind Table 3 stand in for the paper's disks, and live with
//! the experiment in `egraph-bench`'s `loading` module.
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
//! * [`text`] — SNAP / DIMACS text import and export;
//! * [`throttle`] — a real token-bucket throttled reader, for
//!   integration tests and examples that exercise actual streaming;
//! * [`fault`] — deterministic I/O fault injection (short reads,
//!   truncation, mid-stream errors) for the conformance harness.
//!
//! The readers keep no counters and no process state. A load is
//! measured by its caller, which already has every number: the
//! file's length, the edges returned and the seconds its own clock
//! took (`egraph run` reports these as its `storage.*` counters).

pub mod fault;
pub mod format;
mod pod;
pub mod results;
pub mod text;
pub mod throttle;

pub use fault::{FaultedReader, IoFault};
pub use format::{read_edge_list, read_edge_list_chunked, write_edge_list, FormatError};
pub use results::{read_f32_result, read_u32_result, write_f32_result, write_u32_result};
pub use text::{read_dimacs, read_snap, write_snap, TextError};
pub use throttle::ThrottledReader;
