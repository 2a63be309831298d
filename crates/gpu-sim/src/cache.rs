//! Set-associative L2 cache model (tags only).
//!
//! On Fermi GPUs the L2 is the coherence point: the paper stores GPU-STM's
//! global metadata so that it is cached at L2 only (the non-coherent L1 is
//! bypassed with `volatile`). The simulator therefore routes every global
//! memory transaction through this L2 model to decide between the L2-hit
//! and DRAM latencies. Data correctness is unaffected — the backing
//! [`GlobalMemory`](crate::memory::GlobalMemory) is always authoritative —
//! so only tags are tracked.

/// Configuration of the L2 model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Fermi C2070-like 768 KiB L2 with 128-byte lines, 16-way:
    /// 768 KiB / 128 B / 16 ways = 384 sets (rounded to 512 for power of 2).
    pub fn fermi_l2() -> Self {
        CacheConfig { sets: 512, ways: 16 }
    }

    /// A tiny cache, useful to exercise eviction paths in tests.
    pub fn tiny() -> Self {
        CacheConfig { sets: 2, ways: 2 }
    }

    /// Total lines (capacity / line size).
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::fermi_l2()
    }
}

/// Outcome of a cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present in L2.
    Hit,
    /// Line fetched from DRAM (and now resident).
    Miss,
}

/// LRU set-associative tag store over 128-byte segments.
#[derive(Clone, Debug)]
pub struct L2Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`: segment id + 1, or 0 for invalid.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
}

impl L2Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sets` is not a power of two or `cfg.ways == 0`.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be nonzero");
        L2Cache { cfg, tags: vec![0; cfg.lines()], stamps: vec![0; cfg.lines()], tick: 0 }
    }

    /// Configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accesses `segment` (a 128-byte line id), updating LRU state and
    /// allocating on miss.
    // Inlined into the warp-instruction path, which calls it once per
    // transaction: up to 32 times per simulated instruction.
    #[inline]
    pub fn access(&mut self, segment: u32) -> CacheOutcome {
        self.tick += 1;
        let set = (segment as usize) & (self.cfg.sets - 1);
        let ways = set * self.cfg.ways..(set + 1) * self.cfg.ways;
        let key = segment as u64 + 1;
        // Nearly every access hits, so the victim is sought only on a miss.
        let tags = &self.tags[ways.clone()];
        if let Some(way) = tags.iter().position(|&t| t == key) {
            self.stamps[ways.start + way] = self.tick;
            return CacheOutcome::Hit;
        }
        // Least recently used way, the lowest-numbered among equals.
        let stamps = &self.stamps[ways.clone()];
        let lru = (0..stamps.len()).min_by_key(|&w| stamps[w]).expect("ways is nonzero");
        self.tags[ways.start + lru] = key;
        self.stamps[ways.start + lru] = self.tick;
        CacheOutcome::Miss
    }

    /// Drops all cached lines.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
        self.tick = 0;
    }

    /// Captures the full tag/LRU state for crash-recovery snapshots.
    /// The L2 persists across launches, so replaying a batch stream on a
    /// fresh simulator only reproduces cycle counts byte-exactly when
    /// the cache is restored along with memory.
    pub fn checkpoint(&self) -> CacheCheckpoint {
        CacheCheckpoint { tags: self.tags.clone(), stamps: self.stamps.clone(), tick: self.tick }
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint geometry does not match this cache.
    pub fn restore(&mut self, ck: &CacheCheckpoint) {
        assert_eq!(ck.tags.len(), self.tags.len(), "cache checkpoint geometry mismatch");
        assert_eq!(ck.stamps.len(), self.stamps.len(), "cache checkpoint geometry mismatch");
        self.tags.copy_from_slice(&ck.tags);
        self.stamps.copy_from_slice(&ck.stamps);
        self.tick = ck.tick;
    }
}

/// Serializable L2 tag/LRU state (see [`L2Cache::checkpoint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheCheckpoint {
    /// Tag words, `sets × ways` entries.
    pub tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`.
    pub stamps: Vec<u64>,
    /// LRU tick counter.
    pub tick: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = L2Cache::new(CacheConfig::tiny());
        assert_eq!(c.access(3), CacheOutcome::Miss);
        assert_eq!(c.access(3), CacheOutcome::Hit);
    }

    #[test]
    fn lru_eviction() {
        // tiny: 2 sets, 2 ways. Segments 0, 2, 4 all map to set 0.
        let mut c = L2Cache::new(CacheConfig::tiny());
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(2), CacheOutcome::Miss);
        // Touch 0 so 2 becomes LRU.
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(4), CacheOutcome::Miss); // evicts 2
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(2), CacheOutcome::Miss);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = L2Cache::new(CacheConfig::tiny());
        assert_eq!(c.access(0), CacheOutcome::Miss); // set 0
        assert_eq!(c.access(1), CacheOutcome::Miss); // set 1
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(1), CacheOutcome::Hit);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = L2Cache::new(CacheConfig::tiny());
        c.access(7);
        c.clear();
        assert_eq!(c.access(7), CacheOutcome::Miss);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = L2Cache::new(CacheConfig { sets: 3, ways: 1 });
    }

    #[test]
    fn fermi_config_capacity() {
        let cfg = CacheConfig::fermi_l2();
        assert_eq!(cfg.lines(), 512 * 16);
    }
}
