//! Explicitly vectorized hot-path helpers for the pull kernels:
//! gather/sum over span-sized edge batches and software prefetch of
//! source metadata (`prev[src]`) a fixed distance ahead.
//!
//! Everything here is **feature-gated and bit-exact**: the AVX2 paths
//! (behind the `simd` cargo feature, runtime-detected, disabled under
//! miri) use the same fixed 8-lane accumulator association as the
//! scalar fallback — partial sums per lane, a fixed reduction tree at
//! the end, the tail folded element-wise into lanes `0..tail`, and no
//! FMA contraction — so enabling the feature never changes results.
//! DESIGN.md §14 documents the flags.

use crate::types::EdgeRecord;

/// Lanes of the fixed-association accumulator.
pub const GATHER_LANES: usize = 8;

/// Software-prefetch distance, in edges ahead of the current one. Far
/// enough to cover an L2 miss at pull-loop issue rates, near enough not
/// to thrash the fill buffers.
pub const DEFAULT_PREFETCH_DIST: usize = 8;

/// The prefetch distance in use: [`DEFAULT_PREFETCH_DIST`], or `0`
/// (off) without the `simd` feature and under miri, matching the
/// feature gate of [`prefetch_read`].
#[inline]
pub fn prefetch_distance() -> usize {
    if cfg!(all(feature = "simd", not(miri))) {
        DEFAULT_PREFETCH_DIST
    } else {
        0
    }
}

/// Hints the CPU to load the cache line of `p` into all cache levels.
/// A no-op without the `simd` feature, under miri, and off x86-64.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
    // SAFETY: prefetch is a pure hint; it never faults, so any pointer
    // value (even dangling) is sound to pass.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// The fixed reduction tree shared by every path: pairwise within each
/// half, then across halves. Changing this changes results — don't.
#[inline(always)]
fn reduce_lanes(l: &[f32; GATHER_LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Scalar spec for [`gather_sum`]: 8 lane accumulators fed round-robin
/// by edge position, tail folded into lanes `0..tail`.
fn gather_sum_scalar<E: EdgeRecord>(table: &[f32], edges: &[E]) -> f32 {
    let mut lanes = [0.0f32; GATHER_LANES];
    let full = edges.len() / GATHER_LANES * GATHER_LANES;
    for g in (0..full).step_by(GATHER_LANES) {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += table[edges[g + j].src() as usize];
        }
    }
    for (j, e) in edges[full..].iter().enumerate() {
        lanes[j] += table[e.src() as usize];
    }
    reduce_lanes(&lanes)
}

/// Scalar spec for [`gather_mul_sum`]: like [`gather_sum_scalar`] but
/// each term is `weight * table[src]`, multiplied and added as two
/// separately rounded operations (no FMA — the AVX2 path matches).
fn gather_mul_sum_scalar<E: EdgeRecord>(table: &[f32], edges: &[E]) -> f32 {
    let mut lanes = [0.0f32; GATHER_LANES];
    let full = edges.len() / GATHER_LANES * GATHER_LANES;
    for g in (0..full).step_by(GATHER_LANES) {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let e = &edges[g + j];
            *lane += e.weight() * table[e.src() as usize];
        }
    }
    for (j, e) in edges[full..].iter().enumerate() {
        lanes[j] += e.weight() * table[e.src() as usize];
    }
    reduce_lanes(&lanes)
}

#[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
mod avx2 {
    use super::{EdgeRecord, GATHER_LANES};
    use std::arch::x86_64::*;

    #[inline]
    pub(super) fn available() -> bool {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
    }

    /// # Safety
    ///
    /// Requires AVX2, and every `e.src()` must index into `table` —
    /// guaranteed by [`crate::types::EdgeList`] endpoint validation
    /// when `table` is a per-vertex array.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_sum<E: EdgeRecord>(table: &[f32], edges: &[E]) -> [f32; 8] {
        let mut acc = _mm256_setzero_ps();
        let mut idx = [0i32; GATHER_LANES];
        let full = edges.len() / GATHER_LANES * GATHER_LANES;
        for g in (0..full).step_by(GATHER_LANES) {
            for (j, slot) in idx.iter_mut().enumerate() {
                *slot = edges[g + j].src() as i32;
            }
            let iv = _mm256_loadu_si256(idx.as_ptr() as *const __m256i);
            let gathered = _mm256_i32gather_ps::<4>(table.as_ptr(), iv);
            acc = _mm256_add_ps(acc, gathered);
        }
        let mut lanes = [0.0f32; GATHER_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, e) in edges[full..].iter().enumerate() {
            lanes[j] += table[e.src() as usize];
        }
        lanes
    }

    /// # Safety
    ///
    /// Same contract as [`gather_sum`]. Uses separate mul + add (never
    /// FMA) to stay bit-identical to the scalar spec.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_mul_sum<E: EdgeRecord>(table: &[f32], edges: &[E]) -> [f32; 8] {
        let mut acc = _mm256_setzero_ps();
        let mut idx = [0i32; GATHER_LANES];
        let mut wbuf = [0.0f32; GATHER_LANES];
        let full = edges.len() / GATHER_LANES * GATHER_LANES;
        for g in (0..full).step_by(GATHER_LANES) {
            for j in 0..GATHER_LANES {
                let e = &edges[g + j];
                idx[j] = e.src() as i32;
                wbuf[j] = e.weight();
            }
            let iv = _mm256_loadu_si256(idx.as_ptr() as *const __m256i);
            let gathered = _mm256_i32gather_ps::<4>(table.as_ptr(), iv);
            let wv = _mm256_loadu_ps(wbuf.as_ptr());
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, gathered));
        }
        let mut lanes = [0.0f32; GATHER_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, e) in edges[full..].iter().enumerate() {
            lanes[j] += e.weight() * table[e.src() as usize];
        }
        lanes
    }
}

/// Sums `table[e.src()]` over a span of edges — the PageRank pull inner
/// loop. AVX2-gathered when the `simd` feature is on and the CPU has
/// it; the scalar fallback computes the exact same fixed-lane
/// association, so both paths return bit-identical sums.
///
/// # Panics
///
/// The scalar path panics if an `e.src()` is out of `table`'s bounds;
/// the AVX2 path requires the same in-bounds contract (upheld by edge
/// endpoint validation at graph construction).
#[inline]
pub fn gather_sum<E: EdgeRecord>(table: &[f32], edges: &[E]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
    if avx2::available() {
        debug_assert!(edges.iter().all(|e| (e.src() as usize) < table.len()));
        // SAFETY: AVX2 presence checked above; indices validated by
        // `EdgeList::new` (debug-asserted here).
        let lanes = unsafe { avx2::gather_sum(table, edges) };
        return reduce_lanes(&lanes);
    }
    gather_sum_scalar(table, edges)
}

/// Sums `e.weight() * table[e.src()]` over a span of edges — the SpMV
/// pull inner loop. Same bit-exactness contract as [`gather_sum`].
#[inline]
pub fn gather_mul_sum<E: EdgeRecord>(table: &[f32], edges: &[E]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
    if avx2::available() {
        debug_assert!(edges.iter().all(|e| (e.src() as usize) < table.len()));
        // SAFETY: as in `gather_sum`.
        let lanes = unsafe { avx2::gather_mul_sum(table, edges) };
        return reduce_lanes(&lanes);
    }
    gather_mul_sum_scalar(table, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Edge, WEdge};

    fn span(srcs: &[u32]) -> Vec<Edge> {
        srcs.iter().map(|&s| Edge::new(s, 0)).collect()
    }

    #[test]
    fn gather_sum_matches_scalar_spec_at_every_length() {
        let table: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
        for len in 0..=70 {
            let edges = span(&(0..len).map(|i| (i * 37) % 256).collect::<Vec<_>>());
            let got = gather_sum(&table, &edges);
            let want = gather_sum_scalar(&table, &edges);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn gather_mul_sum_matches_scalar_spec_at_every_length() {
        let table: Vec<f32> = (0..256).map(|i| (i as f32).cos()).collect();
        for len in 0..=70u32 {
            let edges: Vec<WEdge> = (0..len)
                .map(|i| WEdge::new((i * 53) % 256, 0, 0.25 + i as f32))
                .collect();
            let got = gather_mul_sum(&table, &edges);
            let want = gather_mul_sum_scalar(&table, &edges);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn lane_association_is_order_sensitive_but_fixed() {
        // The documented spec: lanes fed round-robin, fixed tree.
        let table = [1.0f32, 2.0, 4.0, 8.0];
        let edges = span(&[0, 1, 2, 3]);
        // Tail of 4 folds into lanes 0..4: (1+2)+(4+8) = 15.
        assert_eq!(gather_sum(&table, &edges), 15.0);
    }

    #[test]
    fn prefetch_is_a_safe_hint() {
        let data = [0u8; 64];
        prefetch_read(data.as_ptr());
        prefetch_read(std::ptr::null::<u8>()); // never faults
    }

    #[test]
    fn prefetch_distance_is_zero_without_the_feature() {
        if cfg!(all(feature = "simd", not(miri))) {
            assert!(prefetch_distance() <= 1 << 20);
        } else {
            assert_eq!(prefetch_distance(), 0);
        }
    }
}
