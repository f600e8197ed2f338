//! Allocation tracking: a [`GlobalAlloc`] wrapper over the system
//! allocator that attributes allocated / freed / peak-live bytes to the
//! current telemetry phase, plus a `/proc/self/statm` RSS sampler as the
//! always-available fallback.
//!
//! # Design constraints
//!
//! The accounting path runs *inside* `alloc`/`dealloc`, so it must never
//! allocate, lock, or re-enter the allocator: it touches only `static`
//! atomics and one `const`-initialized thread-local `Cell` (read through
//! [`std::thread::LocalKey::try_with`] so allocations during TLS
//! teardown stay safe).
//!
//! # Phase attribution
//!
//! A phase *window* ([`window`]) publishes its phase id to a process-wide
//! atomic; threads (including pool workers spawned inside the window)
//! attribute to that phase unless they carry a thread-local override set
//! with [`set_thread_phase`]. Windows are how the trace recorder
//! (`egraph_core::telemetry::TraceRecorder`) brackets the
//! load/preprocess/algorithm/store phases: entering a window
//! re-baselines the phase's peak to the current live bytes, so the
//! reported `peak_bytes` is the maximum *total live heap* observed while
//! the window was open.
//!
//! # Installation
//!
//! The wrapper only observes anything when a binary installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: egraph_metrics::alloc::TrackingAlloc = egraph_metrics::alloc::TrackingAlloc;
//! ```
//!
//! The `egraph` binary and the memory experiments (`exp_table2_memory`,
//! `exp_compress`) install it unconditionally. Every stats accessor is
//! safe to call in any binary and reads as zero when the allocator is
//! not installed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of distinct phase tags (slot 0 is the untagged
/// catch-all; phases past the limit also fold into slot 0).
pub const MAX_PHASES: usize = 32;

/// Sentinel for "no thread-local override".
const NO_PHASE: usize = usize::MAX;

struct PhaseSlot {
    allocated: AtomicU64,
    freed: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
    /// Peak total-live bytes observed while this phase was current.
    /// Re-baselined by [`window`] at entry.
    peak_live: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SLOT: PhaseSlot = PhaseSlot {
    allocated: AtomicU64::new(0),
    freed: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    peak_live: AtomicU64::new(0),
};

static PHASES: [PhaseSlot; MAX_PHASES] = [ZERO_SLOT; MAX_PHASES];

static LIVE: AtomicU64 = AtomicU64::new(0);
static GLOBAL_PEAK: AtomicU64 = AtomicU64::new(0);
/// Process-wide current phase, published by [`window`].
static CURRENT_PHASE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_PHASE: Cell<usize> = const { Cell::new(NO_PHASE) };
}

#[inline]
fn current_phase() -> usize {
    let tl = THREAD_PHASE.try_with(Cell::get).unwrap_or(NO_PHASE);
    let phase = if tl != NO_PHASE {
        tl
    } else {
        CURRENT_PHASE.load(Ordering::Relaxed)
    };
    if phase < MAX_PHASES {
        phase
    } else {
        0
    }
}

#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    let slot = &PHASES[current_phase()];
    slot.allocated.fetch_add(size, Ordering::Relaxed);
    slot.allocs.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    slot.peak_live.fetch_max(live, Ordering::Relaxed);
    GLOBAL_PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_free(size: usize) {
    let size = size as u64;
    let slot = &PHASES[current_phase()];
    slot.freed.fetch_add(size, Ordering::Relaxed);
    slot.frees.fetch_add(1, Ordering::Relaxed);
    // Saturating: a shrinking realloc races LIVE through two updates, and
    // the counter must never wrap past zero.
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(size))
    });
}

/// Tracking wrapper over [`std::alloc::System`]. Install as
/// `#[global_allocator]` to activate accounting.
pub struct TrackingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the extra
// bookkeeping touches only atomics and a const-init thread-local.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Heap bytes currently live (0 when not installed).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live heap bytes since process start (0 when not installed).
pub fn peak_bytes() -> u64 {
    GLOBAL_PEAK.load(Ordering::Relaxed)
}

/// Totals across every phase slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    pub allocated_bytes: u64,
    pub freed_bytes: u64,
    pub alloc_calls: u64,
    pub free_calls: u64,
}

/// Sum allocation totals across all phases.
pub fn totals() -> AllocTotals {
    let mut t = AllocTotals::default();
    for slot in &PHASES {
        t.allocated_bytes += slot.allocated.load(Ordering::Relaxed);
        t.freed_bytes += slot.freed.load(Ordering::Relaxed);
        t.alloc_calls += slot.allocs.load(Ordering::Relaxed);
        t.free_calls += slot.frees.load(Ordering::Relaxed);
    }
    t
}

/// Set (or clear, with `None`) this thread's phase override. Overrides
/// win over the process-wide window phase.
pub fn set_thread_phase(phase: Option<usize>) {
    let _ = THREAD_PHASE.try_with(|c| c.set(phase.unwrap_or(NO_PHASE)));
}

/// Stats captured by a finished [`PhaseWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAllocStats {
    /// Bytes allocated while the window was open.
    pub allocated_bytes: u64,
    /// Bytes freed while the window was open.
    pub freed_bytes: u64,
    /// Maximum total live heap bytes observed while the window was open.
    pub peak_bytes: u64,
    /// Live heap bytes when the window opened (subtract from
    /// `peak_bytes` for the window's incremental footprint).
    pub entry_live_bytes: u64,
}

/// An open phase attribution window; see [`window`].
#[derive(Debug)]
pub struct PhaseWindow {
    phase: usize,
    prev: usize,
    start_allocated: u64,
    start_freed: u64,
    entry_live: u64,
}

/// Open an attribution window for `name`: allocations on every thread
/// without a thread-local override are attributed to this phase until
/// [`PhaseWindow::finish`] runs. Windows are meant to be sequential
/// (phases of one run), not nested across threads.
pub fn window(name: &str) -> PhaseWindow {
    let phase = phase_id(name);
    let entry_live = LIVE.load(Ordering::Relaxed);
    let slot = &PHASES[phase];
    // Re-baseline the peak so it reflects this window, not an earlier
    // window that reused the slot.
    slot.peak_live.store(entry_live, Ordering::Relaxed);
    let prev = CURRENT_PHASE.swap(phase, Ordering::Relaxed);
    PhaseWindow {
        phase,
        prev,
        start_allocated: slot.allocated.load(Ordering::Relaxed),
        start_freed: slot.freed.load(Ordering::Relaxed),
        entry_live,
    }
}

impl PhaseWindow {
    /// Close the window and return what it observed.
    pub fn finish(self) -> PhaseAllocStats {
        let slot = &PHASES[self.phase];
        CURRENT_PHASE.store(self.prev, Ordering::Relaxed);
        PhaseAllocStats {
            allocated_bytes: slot
                .allocated
                .load(Ordering::Relaxed)
                .saturating_sub(self.start_allocated),
            freed_bytes: slot
                .freed
                .load(Ordering::Relaxed)
                .saturating_sub(self.start_freed),
            peak_bytes: slot.peak_live.load(Ordering::Relaxed),
            entry_live_bytes: self.entry_live,
        }
    }
}

/// Intern `name` to a stable phase id (1..MAX_PHASES); unknown names
/// past the table fold into slot 0.
fn phase_id(name: &str) -> usize {
    use parking_lot::Mutex;
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i + 1;
    }
    if names.len() + 1 >= MAX_PHASES {
        return 0;
    }
    names.push(Box::leak(name.to_string().into_boxed_str()));
    names.len()
}

/// Resident set size in bytes from `/proc/self/statm`, or `None` where
/// procfs is unavailable (non-Linux, restricted sandboxes).
pub fn rss_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * page_size())
}

/// System page size, read once from `/proc/self/auxv` (`AT_PAGESZ`),
/// defaulting to 4096.
fn page_size() -> u64 {
    static PAGE: OnceLock<u64> = OnceLock::new();
    *PAGE.get_or_init(|| {
        const AT_PAGESZ: u64 = 6;
        if let Ok(raw) = std::fs::read("/proc/self/auxv") {
            for pair in raw.chunks_exact(16) {
                let key = u64::from_ne_bytes(pair[..8].try_into().unwrap());
                let val = u64::from_ne_bytes(pair[8..].try_into().unwrap());
                if key == AT_PAGESZ && val > 0 {
                    return val;
                }
            }
        }
        4096
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this module does NOT install TrackingAlloc, so
    // these tests cover the uninstalled/fallback paths; the installed
    // paths live in tests/alloc_track.rs (its own binary with a
    // #[global_allocator]).

    #[test]
    fn uninstalled_stats_read_zero() {
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 0);
        assert_eq!(totals(), AllocTotals::default());
    }

    #[test]
    fn rss_sampler_reports_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/statm").exists() {
            let rss = rss_bytes().expect("statm parse");
            assert!(rss > 0, "resident set should be non-zero, got {rss}");
        }
    }

    #[test]
    fn windows_restore_previous_phase() {
        let w1 = window("load");
        let inner = window("algorithm");
        let _ = inner.finish();
        let s = w1.finish();
        assert_eq!(CURRENT_PHASE.load(Ordering::Relaxed), 0);
        // Nothing installed: all byte counts are zero.
        assert_eq!(s.allocated_bytes, 0);
        assert_eq!(s.peak_bytes, 0);
    }

    #[test]
    fn thread_phase_override_roundtrip() {
        set_thread_phase(Some(3));
        assert_eq!(current_phase(), 3);
        set_thread_phase(Some(MAX_PHASES + 10));
        assert_eq!(current_phase(), 0, "out-of-range folds to untagged");
        set_thread_phase(None);
        assert_eq!(current_phase(), 0);
    }
}
