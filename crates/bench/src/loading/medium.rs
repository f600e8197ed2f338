//! Storage-medium presets matching the paper's evaluation hardware.

/// A storage medium with a sustained sequential-read bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Medium {
    /// Display name used in experiment tables.
    pub name: &'static str,
    /// Sustained read bandwidth in bytes/second; `None` means the
    /// input is already in memory (loading is free).
    pub bandwidth: Option<f64>,
}

impl Medium {
    /// The paper's SSD: 380 MB/s maximum bandwidth.
    pub const fn ssd() -> Self {
        Self {
            name: "ssd",
            bandwidth: Some(380.0 * 1e6),
        }
    }

    /// The paper's spinning disk: 100 MB/s.
    pub const fn hdd() -> Self {
        Self {
            name: "hdd",
            bandwidth: Some(100.0 * 1e6),
        }
    }

    /// Seconds needed to sequentially read `bytes` from this medium.
    pub fn load_seconds(&self, bytes: u64) -> f64 {
        match self.bandwidth {
            None => 0.0,
            Some(bw) => bytes as f64 / bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_medium_without_bandwidth_loads_instantly() {
        let memory = Medium {
            name: "memory",
            bandwidth: None,
        };
        assert_eq!(memory.load_seconds(1 << 30), 0.0);
    }

    #[test]
    fn hdd_slower_than_ssd() {
        let bytes = 1_000_000_000;
        let ssd = Medium::ssd().load_seconds(bytes);
        let hdd = Medium::hdd().load_seconds(bytes);
        assert!(hdd > 3.0 * ssd);
        assert!(
            (hdd - 10.0).abs() < 0.1,
            "1 GB at 100 MB/s = 10 s, got {hdd}"
        );
    }
}
