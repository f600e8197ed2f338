//! The set-associative cache model.

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line_size: usize,
}

impl CacheConfig {
    /// The LLC of the paper's machine B (4× AMD Opteron 6272, 16 MB
    /// LLC per socket) — the default measurement machine.
    pub fn machine_b_llc() -> Self {
        Self {
            capacity: 16 * 1024 * 1024,
            ways: 16,
            line_size: 64,
        }
    }

    /// A tiny cache, useful in tests where evictions must happen fast.
    pub fn tiny(capacity: usize, ways: usize) -> Self {
        Self {
            capacity,
            ways,
            line_size: 64,
        }
    }

    fn num_sets(&self) -> usize {
        (self.capacity / (self.line_size * self.ways)).max(1)
    }
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that missed in the cache.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of accesses that missed (0 when nothing was accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement.
///
/// Addresses are plain `u64` byte addresses; callers lay out their
/// simulated data structures in any disjoint address regions they like.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets * ways` tags; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Per-way last-access timestamps for LRU.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "cache must have at least one way");
        let sets = config.num_sets().next_power_of_two();
        Self {
            config,
            tags: vec![u64::MAX; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: sets as u64 - 1,
            line_shift: config.line_size.trailing_zeros(),
        }
    }

    /// Simulates one access to byte address `addr`; returns `true` on a
    /// hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.config.ways;
        let base = set * ways;

        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + ways {
            if self.tags[i] == line {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        self.stats.misses += 1;
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }

    /// Returns the counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = SetAssocCache::new(CacheConfig::tiny(64 * 1024, 8));
        for addr in 0..4096u64 {
            c.access(addr);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 4096);
        assert_eq!(s.misses, 4096 / 64);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = SetAssocCache::new(CacheConfig::tiny(4096, 4));
        assert!(!c.access(128));
        assert!(c.access(128));
        assert!(c.access(130)); // same line
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::tiny(4096, 4);
        let mut c = SetAssocCache::new(cfg);
        // Touch 4x the capacity cyclically with 64-byte strides: LRU on
        // a cyclic pattern larger than capacity misses every time.
        let lines = (4 * cfg.capacity / cfg.line_size) as u64;
        for round in 0..4 {
            for i in 0..lines {
                c.access(i * 64);
            }
            let _ = round;
        }
        let s = c.stats();
        assert_eq!(s.misses, s.accesses);
    }

    #[test]
    fn working_set_within_cache_hits_after_warmup() {
        let cfg = CacheConfig::tiny(64 * 1024, 16);
        let mut c = SetAssocCache::new(cfg);
        let lines = (cfg.capacity / cfg.line_size / 2) as u64;
        for _ in 0..8 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        // Only the cold misses of the first round.
        assert_eq!(s.misses, lines);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set of 2 ways: line size 64, capacity 128.
        let mut c = SetAssocCache::new(CacheConfig {
            capacity: 128,
            ways: 2,
            line_size: 64,
        });
        assert!(!c.access(0)); // A
        assert!(!c.access(1 << 20)); // B (same set, different tag)
        assert!(c.access(0)); // A again -> B is LRU
        assert!(!c.access(2 << 20)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(1 << 20)); // B was evicted
    }

    #[test]
    fn miss_ratio_of_empty_stats_is_zero() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
