//! Byte views of plain-old-data slices — the crate's only `unsafe`.
//!
//! Every binary file of this crate is a small header followed by an
//! array of fixed-size elements made of 4-byte little-endian words: edge
//! records ([`EdgeRecord`]) or result scalars (`u32`, `f32`). On a
//! little-endian target the bytes of such an array in memory are its
//! bytes on disk, so the codec moves an element exactly once in each
//! direction: [`Pod::land`] reads a stream into the `Vec<T>` the caller
//! keeps, [`Pod::write_all`] writes the bytes of a `&[T]` as they
//! stand. Big-endian targets swap the words of each step in place
//! ([`swap_words`], a no-op that is compiled out everywhere else).
//!
//! A [`Pod<T>`] value is the proof that `T` may be viewed that way; its
//! three constructors are the whole list of such types.

use std::io::{self, ErrorKind, Read, Write};

use egraph_core::types::EdgeRecord;

use crate::format::{record_len, FormatError};

/// Bytes landed per step of [`Pod::land`] — the size of the slices the
/// chunked reader hands its sink. Small enough to stay cache resident
/// between the zero fill and the read.
const LAND_STEP_BYTES: usize = 256 << 10;

/// The most [`Pod::land`] reserves on the word of a length field alone.
/// Growing in place is not something an allocator promises: measured
/// inside the benchmark (a heap that has already served and freed
/// graph-sized blocks), a vector doubled up from one landing step is
/// moved on the way and a 32 MiB load takes 18 ms instead of 7. So a
/// stream is trusted for its first 32 MiB — one exact allocation for
/// anything that size or smaller, untouched address space if it lied —
/// and grown from there, where every block is past glibc's largest
/// `mmap` threshold and growing it is a page remap.
const TRUSTED_BYTES: usize = 32 << 20;

/// Bytes per `write_all` of [`Pod::write_all`].
const WRITE_STEP_BYTES: usize = 4 << 20;

/// Witness that a `[T]` is, byte for byte, an array of little-endian
/// 4-byte words with no padding, and that every bit pattern is a valid
/// `T`. Carries the all-zero `T` that fresh landing space is filled
/// with.
pub(crate) struct Pod<T> {
    zero: T,
}

impl<E: EdgeRecord> Pod<E> {
    /// The witness for an edge record type.
    ///
    /// `EdgeRecord` is sealed (`egraph_core::types`): its only
    /// implementations are `Edge` and `WEdge`, padding-free
    /// `#[repr(C)]` structs of `u32` / `f32` fields. The assertion
    /// pins the part of that the compiler can see — the struct is
    /// exactly as long as the disk record, so it has no padding.
    pub(crate) fn record() -> Self {
        const { assert!(size_of::<E>() == record_len::<E>()) };
        Self {
            zero: E::new(0, 0, 0.0),
        }
    }
}

impl Pod<u32> {
    /// The witness for `u32` result values.
    pub(crate) const U32: Self = Self { zero: 0 };
}

impl Pod<f32> {
    /// The witness for `f32` result values.
    pub(crate) const F32: Self = Self { zero: 0.0 };
}

impl<T: Copy> Pod<T> {
    /// Elements per landing step.
    pub(crate) const fn step_len() -> usize {
        LAND_STEP_BYTES / size_of::<T>()
    }

    fn bytes<'a>(&self, values: &'a [T]) -> &'a [u8] {
        // SAFETY: a `Pod<T>` exists only for the sealed `EdgeRecord`
        // types (size asserted equal to the disk record in `record`)
        // and for `u32` / `f32`: none has padding, so every byte of
        // `values` is initialized; `u8` has alignment 1; the length is
        // the slice's own size in bytes and the borrow is carried over.
        unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values)) }
    }

    fn bytes_mut<'a>(&self, values: &'a mut [T]) -> &'a mut [u8] {
        // SAFETY: as in `bytes`; and because every bit pattern is a
        // valid `u32` / `f32`, hence a valid `T` (the `EdgeRecord` seal
        // again), whatever is written through the view leaves `values`
        // valid.
        unsafe {
            std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), size_of_val(values))
        }
    }

    /// Lands a stream of `total` elements in `buf`, a bounded step at a
    /// time, calling `landed(buf, n)` after each step that appended `n`
    /// whole elements. A stream that ends early is
    /// [`FormatError::Truncated`] with the exact number of whole
    /// elements it delivered (a trailing partial element is dropped).
    ///
    /// `total` is a claim, not a fact: when `buf` is short of room for
    /// the next step it grows by at most `max(buf.len(), 32 MiB)`, so
    /// its capacity stays under twice what has actually arrived plus
    /// 32 MiB, and an honest stream gets exactly `total`. Fresh space
    /// is zero filled a step at a time before the reader sees it (a
    /// `Read` implementation is safe code and may look at the buffer it
    /// is given) and cut back to the whole elements received on every
    /// path, errors included.
    ///
    /// `landed` may drain `buf` — the chunked reader does — in which
    /// case a buffer with room for one step is never grown.
    pub(crate) fn land<R: Read>(
        &self,
        r: &mut R,
        total: u64,
        buf: &mut Vec<T>,
        mut landed: impl FnMut(&mut Vec<T>, usize),
    ) -> Result<(), FormatError> {
        let size = size_of::<T>();
        let mut found = 0u64;
        while found < total {
            let remaining = usize::try_from(total - found).unwrap_or(usize::MAX);
            let want = remaining.min(Self::step_len());
            let start = buf.len();
            if buf.capacity() - start < want {
                buf.reserve_exact(remaining.min(start.max(TRUSTED_BYTES / size)));
            }
            buf.resize(start + want, self.zero);

            let bytes = self.bytes_mut(&mut buf[start..]);
            let (got, result) = read_full(r, bytes);
            let whole = got / size;
            swap_words(&mut bytes[..whole * size]);
            buf.truncate(start + whole);
            result?;

            if whole > 0 {
                landed(buf, whole);
                found += whole as u64;
            }
            if whole < want {
                return Err(FormatError::Truncated {
                    expected_edges: total,
                    found_edges: found,
                });
            }
        }
        Ok(())
    }

    /// Writes the bytes of `values` as they stand, 4 MiB per
    /// `write_all`.
    pub(crate) fn write_all<W: Write>(&self, w: &mut W, values: &[T]) -> io::Result<()> {
        for step in self.bytes(values).chunks(WRITE_STEP_BYTES) {
            if cfg!(target_endian = "big") {
                let mut swapped = step.to_vec();
                swap_words(&mut swapped);
                w.write_all(&swapped)?;
            } else {
                w.write_all(step)?;
            }
        }
        Ok(())
    }
}

/// Fills `buf` from `r`, tolerating short reads and `Interrupted`.
/// Returns the bytes received — short of `buf.len()` at end of stream
/// or on an error — and the error, if any.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> (usize, io::Result<()>) {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return (got, Err(e)),
        }
    }
    (got, Ok(()))
}

/// Converts each 4-byte word of `bytes` between little-endian and
/// native order, in place. The identity on little-endian targets.
fn swap_words(bytes: &mut [u8]) {
    if cfg!(target_endian = "big") {
        for word in bytes.chunks_exact_mut(4) {
            word.reverse();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::types::{Edge, WEdge};

    #[test]
    fn steps_are_whole_elements() {
        assert_eq!(Pod::<Edge>::step_len() * 8, LAND_STEP_BYTES);
        assert!(Pod::<WEdge>::step_len() * 12 <= LAND_STEP_BYTES);
        assert_eq!(Pod::<u32>::step_len() * 4, LAND_STEP_BYTES);
    }

    /// `Truncated` with these counts, or a panic.
    fn assert_truncated(result: Result<(), FormatError>, expected: u64, found: usize) {
        match result {
            Err(FormatError::Truncated {
                expected_edges,
                found_edges,
            }) => assert_eq!((expected_edges, found_edges), (expected, found as u64)),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn capacity_follows_what_arrived_not_what_was_claimed() {
        // A little over the trusted 32 MiB of data behind a claim of
        // 2^50 elements: one trusted block, then one doubling.
        let trusted = TRUSTED_BYTES / 4;
        let data = vec![0xABu8; TRUSTED_BYTES + 10 * LAND_STEP_BYTES + 3];
        let mut buf = Vec::new();
        let mut caps = Vec::new();
        let result = Pod::U32.land(&mut &data[..], 1 << 50, &mut buf, |buf, _| {
            caps.push((buf.len(), buf.capacity()))
        });
        assert_truncated(result, 1 << 50, data.len() / 4);
        assert_eq!(buf.len(), data.len() / 4);
        assert!(buf.iter().all(|&v| v == 0xABAB_ABAB));
        assert_eq!(caps[0].1, trusted);
        assert_eq!(caps.last().unwrap().1, 2 * trusted);
        for (len, cap) in caps {
            assert!(cap <= 2 * len + trusted, "len {len} cap {cap}");
        }
    }

    #[test]
    fn honest_stream_gets_exact_capacity() {
        let n = 5 * Pod::<u32>::step_len() + 7;
        let data = vec![1u8; n * 4];
        let mut buf = Vec::new();
        Pod::U32
            .land(&mut &data[..], n as u64, &mut buf, |_, _| {})
            .unwrap();
        assert_eq!((buf.len(), buf.capacity()), (n, n));
    }

    #[test]
    fn drained_buffer_is_never_grown() {
        let step = Pod::<u32>::step_len();
        let data = vec![2u8; 4 * step * 4];
        let mut buf = Vec::with_capacity(step);
        let mut steps = 0;
        let result = Pod::U32.land(&mut &data[..], 1 << 50, &mut buf, |buf, n| {
            assert_eq!((buf.len(), n), (step, step));
            buf.clear();
            steps += 1;
        });
        assert_truncated(result, 1 << 50, 4 * step);
        assert_eq!(steps, 4);
        assert_eq!(buf.capacity(), step);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Flaky<'a>(&'a [u8], bool);
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(self.0.len()).min(5);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let data: Vec<u8> = (0..40).collect();
        let mut buf = Vec::new();
        Pod::U32
            .land(&mut Flaky(&data, false), 10, &mut buf, |_, _| {})
            .unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], u32::from_le_bytes([36, 37, 38, 39]));
    }

    #[test]
    fn error_keeps_only_whole_elements() {
        let data = [7u8; 64];
        let mut r = crate::FaultedReader::new(&data[..], crate::IoFault::ErrorAt { offset: 14 });
        let mut buf = Vec::new();
        match Pod::U32.land(&mut r, 16, &mut buf, |_, _| {}) {
            Err(FormatError::Io(e)) => assert_eq!(e.kind(), ErrorKind::Other),
            other => panic!("expected Io, got {other:?}"),
        }
        assert_eq!(buf, vec![0x0707_0707; 3]);
    }

    #[test]
    fn word_swap_is_the_identity_here_and_an_involution_everywhere() {
        let mut bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        swap_words(&mut bytes);
        if cfg!(target_endian = "little") {
            assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 7, 8]);
        } else {
            assert_eq!(bytes, [4, 3, 2, 1, 8, 7, 6, 5]);
        }
        swap_words(&mut bytes);
        assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
