//! Tests that run with `TrackingAlloc` actually installed as the global
//! allocator. This integration-test binary installs it the way the
//! `egraph` binary does, so tier-1 `cargo test` exercises the installed
//! code path.

use std::sync::Mutex;

use egraph_metrics::alloc::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

// Phase windows publish to a process-global tag; serialize the tests
// that open windows so concurrent test threads don't cross-attribute.
static WINDOW_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn installed_allocator_accounts_bytes_and_peaks() {
    let _guard = WINDOW_LOCK.lock().unwrap();
    let before = alloc::totals();
    const N: usize = 1 << 20;
    let window = alloc::window("algorithm");
    let buf: Vec<u8> = vec![42u8; N];
    std::hint::black_box(&buf);
    let held_live = alloc::live_bytes();
    drop(buf);
    let stats = window.finish();
    let after = alloc::totals();

    assert!(
        after.allocated_bytes >= before.allocated_bytes + N as u64,
        "1 MiB allocation must be counted: {} -> {}",
        before.allocated_bytes,
        after.allocated_bytes
    );
    assert!(after.alloc_calls > before.alloc_calls);
    assert!(
        held_live >= N as u64,
        "live bytes track the held buffer: {held_live}"
    );
    assert!(
        stats.allocated_bytes >= N as u64,
        "window attributes the allocation to its phase: {stats:?}"
    );
    assert!(
        stats.freed_bytes >= N as u64,
        "drop inside the window is attributed too: {stats:?}"
    );
    assert!(
        stats.peak_bytes >= N as u64,
        "peak covers the buffer: {stats:?}"
    );
    assert!(alloc::peak_bytes() >= stats.peak_bytes);
}

#[test]
fn worker_thread_allocations_attribute_to_open_window() {
    let _guard = WINDOW_LOCK.lock().unwrap();
    let window = alloc::window("preprocess");
    let handle = std::thread::spawn(|| {
        let v: Vec<u64> = (0..100_000).collect();
        std::hint::black_box(&v);
        drop(v);
    });
    handle.join().unwrap();
    let stats = window.finish();
    assert!(
        stats.allocated_bytes >= 800_000,
        "allocations from a thread spawned inside the window count: {stats:?}"
    );
}

#[test]
fn thread_local_override_beats_window_phase() {
    let _guard = WINDOW_LOCK.lock().unwrap();
    let window = alloc::window("load");
    let handle = std::thread::spawn(|| {
        // This thread opts out of the window's phase; its allocations
        // must not be attributed to `load`.
        alloc::set_thread_phase(Some(0));
        let v: Vec<u64> = (0..200_000).collect();
        std::hint::black_box(&v);
        drop(v);
        alloc::set_thread_phase(None);
    });
    handle.join().unwrap();
    let stats = window.finish();
    assert!(
        stats.allocated_bytes < 800_000,
        "overridden thread's 1.6 MB must not land in the window: {stats:?}"
    );
}

#[test]
fn rss_and_live_agree_on_order_of_magnitude() {
    if let Some(rss) = alloc::rss_bytes() {
        assert!(
            rss >= alloc::live_bytes() / 4,
            "RSS ({rss}) should not be wildly below live heap ({})",
            alloc::live_bytes()
        );
    }
}
