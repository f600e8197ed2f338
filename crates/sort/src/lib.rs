//! Sorting kernels for graph pre-processing.
//!
//! §3.2 of the paper compares two ways of turning an edge array into
//! adjacency lists (CSR): the ubiquitous **count sort** — one pass to
//! count per-vertex degrees, one pass to scatter edges to their final
//! offsets — and a **parallel radix sort** in the style of Zagha &
//! Blelloch that buckets the keys digit by digit. The paper's
//! surprising result (Table 2) is that radix sort wins, because every
//! pass writes a few sequential streams through a small cursor table
//! while count sort's scatter jumps between distant offsets.
//!
//! Both are provided here, generic over the record type and a
//! key-extraction function, and both hand a builder the same thing — a
//! [`CountSorted`]: the records grouped by key in input order plus the
//! group offset table — so the same code builds out-CSRs (key = source
//! vertex), in-CSRs (key = destination vertex) and grids (key = cell
//! id):
//!
//! * [`count_sort_by_key`] — per-worker histograms over the whole key
//!   range, one scatter ([`count`]).
//! * [`radix_partition_by_key`] — a stable, out-of-place partition,
//!   most significant digit first, one [level](radix) per digit of
//!   [`digit_plan`] (`⌈key_bits / 11⌉` digits of even width, so a
//!   level's cursor row fits L1); the offsets fall out of the last
//!   level's histograms ([`radix`]).
//! * [`radix_sort_by_key`] — the same level run over a whole slice once
//!   per digit, for callers that want a slice sorted in place.
//!
//! What was measured on this crate (2 threads, RMAT edge arrays,
//! EXPERIMENTS.md "PR 20"): the two builders tie while count sort's
//! `threads × keys` cursor matrix still fits the private caches (2^18
//! keys, 4 M records), and the radix partition leads by 1.6× at 2^20
//! keys and 17 M records — the paper's ordering, at a smaller ratio
//! than its 4.8× on the Twitter graph.
//!
//! # Examples
//!
//! ```
//! let mut pairs: Vec<(u32, u32)> = vec![(3, 0), (1, 1), (3, 2), (0, 3)];
//! egraph_sort::radix_sort_by_key(&mut pairs, 8, |&(k, _)| k as u64);
//! assert_eq!(pairs, vec![(0, 3), (1, 1), (3, 0), (3, 2)]);
//! ```

pub mod count;
pub mod radix;

pub use count::{count_sort_by_key, key_histogram, CountSorted};
pub use radix::{digit_plan, radix_partition_by_key, radix_sort_by_key};

/// Returns the number of bits needed to represent keys in `0..n`.
///
/// Used to size the radix digit plan: a graph with `n` vertices needs
/// `key_bits(n)` bits of vertex-id key, i.e. `digit_plan(key_bits(n))`
/// levels.
///
/// # Examples
///
/// ```
/// assert_eq!(egraph_sort::key_bits(0), 1);
/// assert_eq!(egraph_sort::key_bits(256), 8);
/// assert_eq!(egraph_sort::key_bits(257), 9);
/// ```
pub fn key_bits(n: usize) -> u32 {
    let max_key = n.saturating_sub(1) as u64;
    (64 - max_key.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bits_boundaries() {
        assert_eq!(key_bits(1), 1);
        assert_eq!(key_bits(2), 1);
        assert_eq!(key_bits(3), 2);
        assert_eq!(key_bits(1 << 20), 20);
        assert_eq!(key_bits((1 << 20) + 1), 21);
    }
}
