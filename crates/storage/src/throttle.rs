//! A wall-clock token-bucket throttled reader.
//!
//! Used by integration tests to exercise *real* streaming at a bounded
//! rate; the large-scale Table 3 experiment uses the virtual-clock
//! overlap model in `egraph-bench`'s `loading` module instead (sleeping
//! 60+ seconds per configuration would dominate bench time without
//! adding fidelity).

use std::io::Read;
use std::time::Instant;

/// Wraps a reader, limiting sustained throughput to a byte rate.
#[derive(Debug)]
pub struct ThrottledReader<R> {
    inner: R,
    bytes_per_sec: f64,
    started: Option<Instant>,
    consumed: u64,
}

impl<R: Read> ThrottledReader<R> {
    /// Creates a reader limited to `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(inner: R, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "throughput must be positive"
        );
        Self {
            inner,
            bytes_per_sec,
            started: None,
            consumed: 0,
        }
    }

    /// Total bytes delivered so far.
    pub fn bytes_read(&self) -> u64 {
        self.consumed
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for ThrottledReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let started = *self.started.get_or_insert_with(Instant::now);
        // How long the bytes delivered so far *should* have taken.
        let due = self.consumed as f64 / self.bytes_per_sec;
        let elapsed = started.elapsed().as_secs_f64();
        if due > elapsed {
            std::thread::sleep(std::time::Duration::from_secs_f64(due - elapsed));
        }
        // Deliver at most ~50 ms worth of data per call so the rate
        // stays smooth even for huge buffers.
        let max_chunk = ((self.bytes_per_sec * 0.05) as usize).max(1);
        let take = buf.len().min(max_chunk);
        let n = self.inner.read(&mut buf[..take])?;
        self.consumed += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_all_bytes() {
        let data = vec![7u8; 10_000];
        let mut out = Vec::new();
        let mut r = ThrottledReader::new(&data[..], 1e9);
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.bytes_read(), 10_000);
    }

    #[test]
    fn rate_is_enforced() {
        // 50 KB at 500 KB/s should take ~100 ms.
        let data = vec![0u8; 50_000];
        let mut out = Vec::new();
        let start = Instant::now();
        ThrottledReader::new(&data[..], 500_000.0)
            .read_to_end(&mut out)
            .unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.08, "finished too fast: {elapsed}s");
        assert!(elapsed < 1.0, "finished too slow: {elapsed}s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        let _ = ThrottledReader::new(&[][..], 0.0);
    }
}
