//! Atomic floating-point cells.
//!
//! Rust's standard library has no atomic floats, so these wrappers store
//! the bit pattern in an atomic integer. Their one read-modify-write is
//! [`AtomicF32::fetch_min`], a compare-exchange loop that only ever
//! lowers the cell: SSSP's relaxations and the serve tier's SSSP lanes,
//! where a tentative distance only decreases.
//!
//! Accumulation does not go through here. All-active push sums
//! (PageRank, SpMV) add into per-worker stripes with plain writes and
//! reduce them once per round, and pull kernels and ALS give every
//! output cell a single writer (DESIGN.md §9).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

macro_rules! atomic_float {
    ($name:ident, $float:ty, $atomic:ty, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Default)]
        pub struct $name {
            bits: $atomic,
        }

        impl $name {
            /// Creates a new cell holding `value`.
            #[inline]
            pub fn new(value: $float) -> Self {
                Self {
                    bits: <$atomic>::new(value.to_bits()),
                }
            }

            /// Returns the current value.
            #[inline]
            pub fn load(&self, order: Ordering) -> $float {
                <$float>::from_bits(self.bits.load(order))
            }

            /// Stores `value`.
            #[inline]
            pub fn store(&self, value: $float, order: Ordering) {
                self.bits.store(value.to_bits(), order);
            }

            /// Atomically lowers the cell to `min(current, value)` and
            /// returns whether the stored value changed.
            ///
            /// Used by SSSP's relaxations, where a vertex distance only
            /// ever decreases.
            #[inline]
            pub fn fetch_min(&self, value: $float, order: Ordering) -> bool {
                let mut current = self.bits.load(Ordering::Relaxed);
                loop {
                    if <$float>::from_bits(current) <= value {
                        return false;
                    }
                    match self.bits.compare_exchange_weak(
                        current,
                        value.to_bits(),
                        order,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(observed) => current = observed,
                    }
                }
            }
        }
    };
}

atomic_float!(
    AtomicF32,
    f32,
    AtomicU32,
    "An `f32` that can be updated atomically from many threads."
);
atomic_float!(
    AtomicF64,
    f64,
    AtomicU64,
    "An `f64` that can be updated atomically from many threads."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for;

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(Ordering::SeqCst), 1.5);
        a.store(-2.25, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), -2.25);
    }

    #[test]
    fn fetch_min_keeps_minimum() {
        let a = AtomicF32::new(f32::INFINITY);
        assert!(a.fetch_min(10.0, Ordering::Relaxed));
        assert!(!a.fetch_min(11.0, Ordering::Relaxed));
        assert!(a.fetch_min(3.0, Ordering::Relaxed));
        assert_eq!(a.load(Ordering::SeqCst), 3.0);
    }

    #[test]
    fn concurrent_fetch_min_converges() {
        let a = AtomicF64::new(f64::INFINITY);
        parallel_for(0..10_000, 64, |r| {
            for i in r {
                a.fetch_min(i as f64, Ordering::Relaxed);
            }
        });
        assert_eq!(a.load(Ordering::SeqCst), 0.0);
    }

    #[test]
    fn default_is_zero() {
        let a = AtomicF64::default();
        assert_eq!(a.load(Ordering::SeqCst), 0.0);
    }
}
