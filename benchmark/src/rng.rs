//! SplitMix64: the benchmark's own seeded generator, so schedules and
//! delta batches are byte-identical for a seed regardless of what the
//! product (or its `rand` stub) does.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so the
    /// graph, the schedule and the batches never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload generation and
        // free of the modulo's low-bit artefacts.
        ((u128::from(self.next_u64()) * u128::from(n.max(1))) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer; also used as a stateless edge hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
