//! The portable counter surface: [`PerfCounters`], its
//! [`CounterReading`] windows, and [`CounterSample`] deltas.

use std::fmt;

/// The counter kinds this crate knows how to open — the hardware
/// events behind the paper's Tables 2 and 4, plus three software
/// events that work even on PMU-less hosts (containers, VMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterKind {
    /// Retired CPU cycles (`PERF_COUNT_HW_CPU_CYCLES`).
    Cycles,
    /// Retired instructions (`PERF_COUNT_HW_INSTRUCTIONS`).
    Instructions,
    /// Last-level-cache read accesses (`PERF_COUNT_HW_CACHE_LL`, read,
    /// access) — the denominator of the paper's "LLC misses (%)".
    LlcLoads,
    /// Last-level-cache read misses — the numerator of the paper's
    /// "LLC misses (%)".
    LlcLoadMisses,
    /// Mispredicted branches (`PERF_COUNT_HW_BRANCH_MISSES`).
    BranchMisses,
    /// Nanoseconds of CPU time (`PERF_COUNT_SW_TASK_CLOCK`); software,
    /// available even without a PMU.
    TaskClockNanos,
    /// Page faults (`PERF_COUNT_SW_PAGE_FAULTS`); software.
    PageFaults,
    /// Context switches (`PERF_COUNT_SW_CONTEXT_SWITCHES`); software.
    ContextSwitches,
}

impl CounterKind {
    /// Every kind, in canonical report order.
    pub const ALL: [CounterKind; 8] = [
        CounterKind::Cycles,
        CounterKind::Instructions,
        CounterKind::LlcLoads,
        CounterKind::LlcLoadMisses,
        CounterKind::BranchMisses,
        CounterKind::TaskClockNanos,
        CounterKind::PageFaults,
        CounterKind::ContextSwitches,
    ];

    /// The canonical snake_case name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Cycles => "cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::LlcLoads => "llc_loads",
            CounterKind::LlcLoadMisses => "llc_load_misses",
            CounterKind::BranchMisses => "branch_misses",
            CounterKind::TaskClockNanos => "task_clock_nanos",
            CounterKind::PageFaults => "page_faults",
            CounterKind::ContextSwitches => "context_switches",
        }
    }

    /// Parses the canonical name back.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for CounterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counter deltas for one phase window. Each kind is `Some(value)` when
/// its counter was open and counting, `None` when unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSample {
    values: [Option<u64>; CounterKind::ALL.len()],
}

impl CounterSample {
    /// The delta for one kind, if that counter was available.
    pub fn get(&self, kind: CounterKind) -> Option<u64> {
        self.values[kind.index()]
    }

    /// Sets the delta for one kind (used by the platform backends and
    /// by tests constructing known samples).
    pub fn set(&mut self, kind: CounterKind, value: u64) {
        self.values[kind.index()] = Some(value);
    }

    /// `(kind, value)` pairs for the available counters, in canonical
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterKind, u64)> + '_ {
        CounterKind::ALL
            .into_iter()
            .filter_map(|k| self.get(k).map(|v| (k, v)))
    }

    /// The hardware LLC miss ratio `llc_load_misses / llc_loads`, when
    /// both counters were available and any loads happened — the
    /// measured analogue of the cache simulator's
    /// `overall_miss_ratio()`.
    pub fn llc_miss_ratio(&self) -> Option<f64> {
        let loads = self.get(CounterKind::LlcLoads)?;
        let misses = self.get(CounterKind::LlcLoadMisses)?;
        if loads == 0 {
            None
        } else {
            Some(misses as f64 / loads as f64)
        }
    }
}

/// A set of perf counters for this process (and the threads it spawns
/// after opening). Construction never fails; on restricted hosts some
/// or all counters are simply unavailable.
pub struct PerfCounters {
    inner: imp::Backend,
}

impl PerfCounters {
    /// Opens every counter kind that the host allows. Kinds the kernel
    /// refuses (no PMU, seccomp, `perf_event_paranoid`) are marked
    /// unavailable individually; the handle itself always constructs.
    pub fn open() -> Self {
        Self {
            inner: imp::Backend::open(),
        }
    }

    /// The kinds that opened successfully, in canonical order.
    pub fn available_kinds(&self) -> Vec<CounterKind> {
        self.inner.available_kinds().collect()
    }

    /// Takes a point-in-time reading for later use with
    /// [`delta_since`](Self::delta_since). The reading does not borrow
    /// the handle, so a stream of back-to-back windows (one per
    /// algorithm iteration) can keep the previous reading around.
    pub fn reading(&self) -> CounterReading {
        CounterReading {
            raw: self.inner.read_raw(),
        }
    }

    /// The multiplex-scaled counter deltas accumulated between `start`
    /// and now. The reading must come from this handle; mixing handles
    /// yields meaningless (but safe) numbers.
    pub fn delta_since(&self, start: &CounterReading) -> CounterSample {
        self.inner.delta_since(&start.raw)
    }
}

/// An opaque point-in-time counter reading from
/// [`PerfCounters::reading`]; feed it back to
/// [`PerfCounters::delta_since`] to close the window.
pub struct CounterReading {
    raw: imp::RawReading,
}

impl fmt::Debug for CounterReading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CounterReading")
    }
}

impl fmt::Debug for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfCounters")
            .field("available", &self.available_kinds())
            .finish()
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{CounterKind, CounterSample};
    use crate::sys;

    fn event_spec(kind: CounterKind) -> (u32, u64) {
        match kind {
            CounterKind::Cycles => (sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_CPU_CYCLES),
            CounterKind::Instructions => (sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_INSTRUCTIONS),
            CounterKind::LlcLoads => (
                sys::PERF_TYPE_HW_CACHE,
                sys::hw_cache_config(
                    sys::PERF_COUNT_HW_CACHE_LL,
                    sys::PERF_COUNT_HW_CACHE_OP_READ,
                    sys::PERF_COUNT_HW_CACHE_RESULT_ACCESS,
                ),
            ),
            CounterKind::LlcLoadMisses => (
                sys::PERF_TYPE_HW_CACHE,
                sys::hw_cache_config(
                    sys::PERF_COUNT_HW_CACHE_LL,
                    sys::PERF_COUNT_HW_CACHE_OP_READ,
                    sys::PERF_COUNT_HW_CACHE_RESULT_MISS,
                ),
            ),
            CounterKind::BranchMisses => {
                (sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_BRANCH_MISSES)
            }
            CounterKind::TaskClockNanos => (sys::PERF_TYPE_SOFTWARE, sys::PERF_COUNT_SW_TASK_CLOCK),
            CounterKind::PageFaults => (sys::PERF_TYPE_SOFTWARE, sys::PERF_COUNT_SW_PAGE_FAULTS),
            CounterKind::ContextSwitches => {
                (sys::PERF_TYPE_SOFTWARE, sys::PERF_COUNT_SW_CONTEXT_SWITCHES)
            }
        }
    }

    /// One slot per kind: `None` when the host refused that counter.
    pub(super) struct Backend {
        slots: [Option<sys::EventFd>; CounterKind::ALL.len()],
    }

    pub(super) struct RawReading {
        counts: [Option<sys::Counts>; CounterKind::ALL.len()],
    }

    impl Backend {
        pub(super) fn open() -> Self {
            Self {
                slots: CounterKind::ALL.map(|kind| {
                    let (typ, config) = event_spec(kind);
                    sys::EventFd::open(typ, config).ok()
                }),
            }
        }

        pub(super) fn available_kinds(&self) -> impl Iterator<Item = CounterKind> + '_ {
            CounterKind::ALL
                .into_iter()
                .zip(&self.slots)
                .filter_map(|(k, s)| s.is_some().then_some(k))
        }

        pub(super) fn read_raw(&self) -> RawReading {
            RawReading {
                counts: CounterKind::ALL.map(|kind| {
                    self.slots[kind as usize]
                        .as_ref()
                        .and_then(|fd| fd.read_counts().ok())
                }),
            }
        }

        pub(super) fn delta_since(&self, start: &RawReading) -> CounterSample {
            let end = self.read_raw();
            let mut sample = CounterSample::default();
            for kind in CounterKind::ALL {
                let (Some(a), Some(b)) = (start.counts[kind as usize], end.counts[kind as usize])
                else {
                    continue;
                };
                let value = b.value.saturating_sub(a.value);
                let enabled = b.time_enabled.saturating_sub(a.time_enabled);
                let running = b.time_running.saturating_sub(a.time_running);
                // Multiplex scaling: extrapolate to the full window, as
                // `perf stat` does. `running == enabled` (no
                // multiplexing) leaves the value untouched.
                let scaled = if running > 0 && running < enabled {
                    (value as f64 * enabled as f64 / running as f64) as u64
                } else {
                    value
                };
                sample.set(kind, scaled);
            }
            sample
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{CounterKind, CounterSample};

    /// Non-Linux backend: there is no `perf_event_open`; every counter
    /// is permanently unavailable and every sample is empty.
    pub(super) struct Backend;

    pub(super) struct RawReading;

    impl Backend {
        pub(super) fn open() -> Self {
            Backend
        }

        pub(super) fn available_kinds(&self) -> impl Iterator<Item = CounterKind> + '_ {
            std::iter::empty()
        }

        pub(super) fn read_raw(&self) -> RawReading {
            RawReading
        }

        pub(super) fn delta_since(&self, _start: &RawReading) -> CounterSample {
            CounterSample::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_windows_chain_without_borrowing() {
        let counters = PerfCounters::open();
        let mut last = counters.reading();
        for _ in 0..3 {
            let mut x = 1u64;
            for i in 0..500_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            let sample = counters.delta_since(&last);
            last = counters.reading();
            // On restricted hosts a kind is legitimately absent; each
            // kind that opened must have registered the spin loop, and
            // none that did not may report.
            let available = counters.available_kinds();
            for kind in [CounterKind::TaskClockNanos, CounterKind::Cycles] {
                if available.contains(&kind) {
                    assert!(sample.get(kind).unwrap_or(0) > 0, "{kind}");
                }
            }
            assert!(sample.iter().all(|(kind, _)| available.contains(&kind)));
        }
    }

    #[test]
    fn sample_ratios() {
        let mut s = CounterSample::default();
        s.set(CounterKind::LlcLoads, 200);
        s.set(CounterKind::LlcLoadMisses, 50);
        s.set(CounterKind::Cycles, 1000);
        s.set(CounterKind::Instructions, 1500);
        assert_eq!(s.llc_miss_ratio(), Some(0.25));
        assert_eq!(s.iter().count(), 4);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in CounterKind::ALL {
            assert_eq!(CounterKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CounterKind::parse("bogus"), None);
    }
}
