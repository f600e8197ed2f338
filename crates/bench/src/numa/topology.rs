//! Descriptions of the evaluation machines.

/// A NUMA machine model.
///
/// Latency figures are representative of the machine *class*
/// (dual-socket Sandy Bridge Xeon; quad-socket Interlagos Opteron);
/// they parameterize the cost model of [`super::cost`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Human-readable name used in experiment output.
    pub name: &'static str,
    /// Number of NUMA nodes (sockets).
    pub num_nodes: usize,
    /// DRAM latency for node-local accesses, nanoseconds.
    pub local_latency_ns: f64,
    /// DRAM latency for remote (cross-socket) accesses, nanoseconds.
    pub remote_latency_ns: f64,
}

impl Topology {
    /// The paper's machine A: 2× Intel Xeon E5-2630 (8 cores each,
    /// 20 MB LLC), 128 GB RAM, 2 NUMA nodes.
    pub fn machine_a() -> Self {
        Self {
            name: "machine-A",
            num_nodes: 2,
            local_latency_ns: 80.0,
            remote_latency_ns: 130.0,
        }
    }

    /// The paper's machine B: 4× AMD Opteron 6272 (8 cores each, 16 MB
    /// LLC), 256 GB RAM, 4 NUMA nodes. The default experiment machine.
    pub fn machine_b() -> Self {
        Self {
            name: "machine-B",
            num_nodes: 4,
            local_latency_ns: 95.0,
            remote_latency_ns: 190.0,
        }
    }

    /// The latency penalty factor of a remote access relative to a
    /// local one.
    pub fn remote_penalty(&self) -> f64 {
        self.remote_latency_ns / self.local_latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let a = Topology::machine_a();
        assert_eq!(a.num_nodes, 2);
        let b = Topology::machine_b();
        assert_eq!(b.num_nodes, 4);
        assert!(b.remote_penalty() > a.remote_penalty());
    }
}
