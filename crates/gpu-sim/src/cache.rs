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
    /// Bit `set % 64` of word `set / 64` is set when `set` may hold a
    /// line: it was allocated into since the last [`clear`](Self::clear),
    /// or [`restore`](Self::restore) loaded it. Sized for every set in
    /// `new`, so recording never allocates.
    dirty: Vec<u64>,
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
        L2Cache {
            cfg,
            tags: vec![0; cfg.lines()],
            stamps: vec![0; cfg.lines()],
            tick: 0,
            dirty: vec![0; cfg.sets.div_ceil(64)],
        }
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
        // An unconditional bit store: a test for the set's first miss,
        // inlined here, measured slower on `sim_prims`.
        self.dirty[set / 64] |= 1 << (set % 64);
        self.tags[ways.start + lru] = key;
        self.stamps[ways.start + lru] = self.tick;
        CacheOutcome::Miss
    }

    /// Drops all cached lines, zeroing only the sets allocated into since
    /// the last clear.
    pub fn clear(&mut self) {
        let ways = self.cfg.ways;
        for (i, word) in self.dirty.iter_mut().enumerate() {
            while *word != 0 {
                let set = i * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                self.tags[set * ways..(set + 1) * ways].fill(0);
                self.stamps[set * ways..(set + 1) * ways].fill(0);
            }
        }
        self.tick = 0;
    }

    /// Returns to the state of `L2Cache::new(cfg)`, keeping the tag and
    /// stamp buffers when the geometry is unchanged.
    pub fn reset(&mut self, cfg: CacheConfig) {
        if cfg == self.cfg {
            self.clear();
        } else {
            *self = L2Cache::new(cfg);
        }
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
        // A checkpoint need not come from this cache's history: every set
        // may hold lines.
        for set in 0..self.cfg.sets {
            self.dirty[set / 64] |= 1 << (set % 64);
        }
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

    /// `n` accesses to segments drawn from `0..span`, seeded.
    fn trace(seed: u64, span: u32, n: usize) -> Vec<u32> {
        let mut state = seed;
        (0..n).map(|_| (crate::rng::splitmix64(&mut state) % u64::from(span)) as u32).collect()
    }

    fn outcomes(c: &mut L2Cache, segments: &[u32]) -> Vec<CacheOutcome> {
        segments.iter().map(|&s| c.access(s)).collect()
    }

    #[test]
    fn dirty_set_clear_equals_a_fresh_cache() {
        for cfg in [CacheConfig { sets: 64, ways: 4 }, CacheConfig::tiny(), CacheConfig::fermi_l2()]
        {
            let n = 50 * cfg.sets;
            let fresh = L2Cache::new(cfg);
            let follow_up = trace(99, 1 << 12, n);
            let mut reference = L2Cache::new(cfg);
            let want = outcomes(&mut reference, &follow_up);

            let mut c = L2Cache::new(cfg);
            for seed in 1..=6 {
                // Narrow spans dirty a few sets; wide ones evict in every set.
                let span = 1 << (seed * 2);
                outcomes(&mut c, &trace(seed, span, n));
                if span >= 16 * cfg.sets as u32 {
                    assert!(
                        c.stamps.chunks(cfg.ways).all(|set| set[0] != 0),
                        "{cfg:?} seed {seed}"
                    );
                }
                c.clear();
                assert_eq!(c.checkpoint(), fresh.checkpoint(), "{cfg:?} seed {seed}");
                assert_eq!(outcomes(&mut c, &follow_up), want, "{cfg:?} seed {seed}");
                c.clear();
            }

            // A checkpoint of another cache's history, restored, then cleared.
            let mut other = L2Cache::new(cfg);
            outcomes(&mut other, &trace(7, 1 << 12, n));
            c.restore(&other.checkpoint());
            c.access(5);
            c.clear();
            assert_eq!(c.checkpoint(), fresh.checkpoint(), "{cfg:?}");
            assert_eq!(outcomes(&mut c, &follow_up), want, "{cfg:?}");
        }
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
