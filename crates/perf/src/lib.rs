//! Hardware performance counters via raw `perf_event_open`.
//!
//! The paper's headline evidence — Table 4's LLC miss ratios, Table 2's
//! pre-processing miss counts — was measured with hardware performance
//! counters, not simulation. This crate gives the reproduction the same
//! footing: a thin, dependency-free wrapper over the Linux
//! `perf_event_open(2)` syscall (invoked directly through the
//! already-linked libc, no external crate) exposing the counter kinds
//! the paper's methodology needs, read in windows: a
//! [`PerfCounters::reading`] opens one and [`PerfCounters::delta_since`]
//! closes it. A run's phases are its recorder's windows
//! (`egraph_core::telemetry::TraceRecorder`), not a guard of this crate.
//!
//! # Graceful degradation — the central contract
//!
//! Reading the PMU is a privilege, not a given: non-Linux hosts have no
//! `perf_event_open`, containers commonly filter the syscall with
//! seccomp, `kernel.perf_event_paranoid` may forbid unprivileged use,
//! and virtual machines often expose no PMU at all (hardware events
//! fail with `ENOENT` while software events still work). A
//! [`PerfCounters`] handle therefore *never fails to construct* — each
//! counter that cannot be opened is individually left out of
//! [`PerfCounters::available_kinds`], and a window over a handle with no
//! live counter simply carries no values. Callers write one code path;
//! runs never abort because the host is restricted.
//!
//! # Multiplexing
//!
//! More counters than PMU slots means the kernel time-multiplexes them.
//! Every counter is opened with `PERF_FORMAT_TOTAL_TIME_ENABLED |
//! PERF_FORMAT_TOTAL_TIME_RUNNING`, and [`PerfCounters::delta_since`]
//! scales each delta by `enabled/running` for the window — the same
//! estimate `perf stat` reports.
//!
//! # Worker-thread coverage
//!
//! Counters are opened with `inherit = 1`, so threads spawned *after*
//! the handle is created (in particular the worker pool, which is built
//! lazily on first parallel operation) are counted too. Open the handle
//! before the first parallel region for full coverage; threads that
//! already exist when the handle opens are not retroactively attached.
//!
//! # Examples
//!
//! ```
//! use egraph_perf::{CounterKind, PerfCounters};
//!
//! let counters = PerfCounters::open();   // never fails
//! let start = counters.reading();
//! let mut acc = 0u64;
//! for i in 0..100_000u64 {
//!     acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
//! }
//! assert!(acc != 0);
//! let sample = counters.delta_since(&start);
//! // On a permissive Linux host this records real CPU time; on a
//! // restricted host the kind reports None — never a panic.
//! let kind = CounterKind::TaskClockNanos;
//! if counters.available_kinds().contains(&kind) {
//!     assert!(sample.get(kind).is_some());
//! }
//! ```

mod counters;
#[cfg(target_os = "linux")]
mod sys;

pub use counters::{CounterKind, CounterReading, CounterSample, PerfCounters};
