//! The interface between a replayed access stream and the cache model:
//! [`MemProbe`] takes one access at a time, and the probes here drive a
//! cache or a hierarchy with it and keep per-kind statistics.

use parking_lot::Mutex;

use super::cache::{CacheConfig, CacheStats, SetAssocCache};
use super::hierarchy::{AccessOutcome, CacheHierarchy};

/// The three access classes of a graph kernel (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Fetching an edge from the layout (streamed for edge arrays and
    /// grids, mostly streamed for adjacency lists).
    Edge,
    /// Fetching the metadata of the edge's source vertex.
    SrcMeta,
    /// Fetching the metadata of the edge's destination vertex.
    DstMeta,
}

impl AccessKind {
    fn index(self) -> usize {
        match self {
            AccessKind::Edge => 0,
            AccessKind::SrcMeta => 1,
            AccessKind::DstMeta => 2,
        }
    }
}

/// The sink of a replayed access stream: one call per simulated memory
/// access, in program order.
pub trait MemProbe: Sync {
    /// Records one access of `kind` at simulated byte address `addr`.
    fn touch(&self, kind: AccessKind, addr: u64);
}

/// Per-kind and overall miss statistics produced by an [`LlcProbe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MissReport {
    /// Counters per [`AccessKind`] (indexed Edge, SrcMeta, DstMeta).
    pub per_kind: [CacheStats; 3],
}

impl MissReport {
    /// Counters for one access kind.
    pub fn kind(&self, kind: AccessKind) -> CacheStats {
        self.per_kind[kind.index()]
    }

    /// Total counters across all kinds.
    pub fn total(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for s in &self.per_kind {
            t.accesses += s.accesses;
            t.misses += s.misses;
        }
        t
    }

    /// The overall miss ratio, the number the paper's Tables 2 and 4
    /// report as "LLC misses (%)".
    pub fn overall_miss_ratio(&self) -> f64 {
        self.total().miss_ratio()
    }
}

/// A probe that drives a shared [`SetAssocCache`], modelling the LLC
/// that all cores of a socket share.
///
/// The cache sits behind a mutex, so a probe can be shared by
/// reference.
pub struct LlcProbe {
    inner: Mutex<ProbeInner>,
}

struct ProbeInner {
    cache: SetAssocCache,
    per_kind: [CacheStats; 3],
}

impl LlcProbe {
    /// Creates a probe over an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            inner: Mutex::new(ProbeInner {
                cache: SetAssocCache::new(config),
                per_kind: [CacheStats::default(); 3],
            }),
        }
    }

    /// Returns the statistics accumulated so far.
    pub fn report(&self) -> MissReport {
        let inner = self.inner.lock();
        MissReport {
            per_kind: inner.per_kind,
        }
    }
}

impl MemProbe for LlcProbe {
    fn touch(&self, kind: AccessKind, addr: u64) {
        let mut inner = self.inner.lock();
        let hit = inner.cache.access(addr);
        let stats = &mut inner.per_kind[kind.index()];
        stats.accesses += 1;
        if !hit {
            stats.misses += 1;
        }
    }
}

/// A probe that drives a two-level [`CacheHierarchy`] and reports
/// LLC-level statistics — the closest software analogue of the
/// hardware counters the paper used.
///
/// Accesses absorbed by the private L2 never reach the counters, so
/// the reported "LLC miss %" has the same semantics as `perf`'s.
pub struct HierarchyProbe {
    inner: Mutex<HierarchyInner>,
}

struct HierarchyInner {
    hierarchy: CacheHierarchy,
    per_kind: [CacheStats; 3],
}

impl HierarchyProbe {
    /// Creates a probe over an empty hierarchy.
    pub fn new(hierarchy: CacheHierarchy) -> Self {
        Self {
            inner: Mutex::new(HierarchyInner {
                hierarchy,
                per_kind: [CacheStats::default(); 3],
            }),
        }
    }

    /// Returns the LLC-level statistics accumulated so far.
    pub fn report(&self) -> MissReport {
        let inner = self.inner.lock();
        MissReport {
            per_kind: inner.per_kind,
        }
    }
}

impl MemProbe for HierarchyProbe {
    fn touch(&self, kind: AccessKind, addr: u64) {
        let mut inner = self.inner.lock();
        let outcome = inner.hierarchy.access(addr);
        let stats = &mut inner.per_kind[kind.index()];
        match outcome {
            AccessOutcome::L2Hit => {}
            AccessOutcome::LlcHit => stats.accesses += 1,
            AccessOutcome::LlcMiss => {
                stats.accesses += 1;
                stats.misses += 1;
            }
        }
    }
}

/// Well-separated base addresses for the simulated regions, so a replay
/// can place edges and vertex metadata in non-overlapping parts of the
/// simulated address space.
pub mod regions {
    /// Base address of the edge storage region.
    pub const EDGES: u64 = 0x0100_0000_0000;
    /// Base address of the source-metadata region.
    pub const SRC_META: u64 = 0x0200_0000_0000;
    /// Base address of the destination-metadata region.
    pub const DST_META: u64 = 0x0300_0000_0000;
    /// Base address of the per-vertex offset/index region (CSR index).
    pub const INDEX: u64 = 0x0400_0000_0000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llc_probe_counts_per_kind() {
        let p = LlcProbe::new(CacheConfig::tiny(4096, 4));
        p.touch(AccessKind::Edge, 0);
        p.touch(AccessKind::Edge, 0);
        p.touch(AccessKind::DstMeta, 1 << 30);
        let r = p.report();
        assert_eq!(r.kind(AccessKind::Edge).accesses, 2);
        assert_eq!(r.kind(AccessKind::Edge).misses, 1);
        assert_eq!(r.kind(AccessKind::DstMeta).misses, 1);
        assert_eq!(r.kind(AccessKind::SrcMeta).accesses, 0);
        assert_eq!(r.total().accesses, 3);
    }

    #[test]
    fn random_vs_sequential_miss_ratios_order() {
        // The miss ratio of a random stream over a large footprint must
        // exceed the miss ratio of a sequential stream — the §5 effect.
        let cfg = CacheConfig::tiny(256 * 1024, 16);
        let seq = LlcProbe::new(cfg);
        for i in 0..200_000u64 {
            seq.touch(AccessKind::Edge, i * 8);
        }
        let rand = LlcProbe::new(cfg);
        let mut state = 0x9E37_79B9u64;
        for _ in 0..200_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rand.touch(AccessKind::DstMeta, (state >> 16) % (64 << 20));
        }
        // A stride-8 scan touches each 64-byte line 8 times: exactly
        // 1/8 of accesses miss.
        assert!((seq.report().overall_miss_ratio() - 0.125).abs() < 1e-9);
        assert!(rand.report().overall_miss_ratio() > 0.5);
    }

    #[test]
    fn regions_do_not_collide_within_large_footprints() {
        // 1 TiB apart: even multi-billion-edge simulations stay in
        // their own region.
        const { assert!(regions::SRC_META - regions::EDGES >= 1 << 40) };
        const { assert!(regions::DST_META - regions::SRC_META >= 1 << 40) };
        const { assert!(regions::INDEX - regions::DST_META >= 1 << 40) };
    }
}
