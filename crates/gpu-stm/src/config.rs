//! GPU-STM runtime configuration.

/// Configuration shared by all lock-based STM variants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StmConfig {
    /// Number of global version locks (the paper's default is 2^20 = 1M).
    /// Must be a power of two.
    pub n_locks: u32,
    /// Run the optional value-based validation *before* acquiring commit
    /// locks (Algorithm 3 line 71) to shed doomed transactions early and
    /// reduce lock contention.
    pub pre_commit_vbv: bool,
    /// Organise read-/write-sets in the coalesced warp-merged layout
    /// (Section 3.1). Disabling models a naive per-thread layout and
    /// charges one local transaction per active lane instead of one per
    /// warp — used by the ablation benches.
    pub coalesced_sets: bool,
    /// Buckets in the order-preserving lock-log hash table. `1` degrades
    /// to the flat O(n²) sorted list the paper describes as the
    /// unoptimised baseline. The log is one sorted array host-side either
    /// way: the bucket count sets only the comparisons each insert charges.
    pub locklog_buckets: u32,
    /// Lock *read* stripes at commit as well as written ones. GPU-STM
    /// requires this under lockstep execution (Section 3.2.2's T1/T2
    /// starvation example); disabling reproduces the CPU-STM convention
    /// (TL2-style write-only locking) and is used by the ablation benches
    /// and the starvation test.
    pub lock_read_set: bool,
    /// Use the per-lane Bloom filter for the read barrier's write-set
    /// lookup (Algorithm 3 line 22). Disabling falls back to a full
    /// write-set scan, charged accordingly.
    pub write_set_bloom: bool,
    /// Maximum read-set addresses one parking lane may register in the
    /// waker registry (`gpu_stm::park`). A `retry()` whose validated read
    /// set exceeds this aborts the park and falls back to abort-respin
    /// rather than flooding the registry. Must be non-zero.
    pub max_parked_per_warp: u32,
    /// Cycles a parked transaction waits before waking itself to revalidate
    /// (`u64::MAX` = trust the registry and wait forever). A finite budget
    /// bounds the damage of a lost wakeup at the cost of spurious wakes.
    pub park_budget_cycles: u64,
    /// Fault injection: per-mille probability (0–1000) that a park is given
    /// an artificially short budget, forcing a spurious wake that must
    /// revalidate and re-park. Exercises the waker loop; 0 disables.
    pub spurious_wake_rate: u32,
}

impl StmConfig {
    /// Paper defaults, scaled: 2^20 global version locks, hash-table
    /// lock-log, coalesced sets, no pre-commit validation.
    ///
    /// # Panics
    ///
    /// Panics if `n_locks` is not a power of two; use [`StmConfig::try_new`]
    /// for a structured error instead.
    pub fn new(n_locks: u32) -> Self {
        StmConfig::try_new(n_locks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for user-supplied lock-table sizes.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if `n_locks` is
    /// not a power of two.
    pub fn try_new(n_locks: u32) -> Result<Self, String> {
        let cfg = StmConfig {
            n_locks,
            pre_commit_vbv: false,
            coalesced_sets: true,
            // Bucket count cannot exceed the lock-table size; tiny test
            // tables get a correspondingly smaller (still pow2) default.
            locklog_buckets: 16.min(n_locks.max(1)),
            lock_read_set: true,
            write_set_bloom: true,
            max_parked_per_warp: 32,
            park_budget_cycles: u64::MAX,
            spurious_wake_rate: 0,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the cross-field invariants of a (possibly hand-assembled)
    /// configuration. Called by [`StmShared::init`](crate::StmShared::init)
    /// so that a bad config surfaces as a structured launch error instead
    /// of a panic deep inside kernel state construction.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.n_locks.is_power_of_two() {
            return Err(format!("n_locks must be a power of two, got {}", self.n_locks));
        }
        if !self.locklog_buckets.is_power_of_two() {
            return Err(format!(
                "locklog_buckets must be a power of two, got {}",
                self.locklog_buckets
            ));
        }
        if self.locklog_buckets > self.n_locks {
            return Err(format!(
                "locklog_buckets ({}) must not exceed n_locks ({})",
                self.locklog_buckets, self.n_locks
            ));
        }
        if self.max_parked_per_warp == 0 {
            return Err("max_parked_per_warp must be non-zero".to_string());
        }
        if self.park_budget_cycles == 0 {
            return Err(
                "park_budget_cycles must be non-zero (use u64::MAX to wait forever)".to_string()
            );
        }
        if self.spurious_wake_rate > 1000 {
            return Err(format!(
                "spurious_wake_rate is per-mille and must be at most 1000, got {}",
                self.spurious_wake_rate
            ));
        }
        Ok(())
    }
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig::new(1 << 20)
    }
}

/// Which conflict-detection strategy a [`LockStm`](crate::variants::LockStm)
/// uses (Section 3.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Validation {
    /// Timestamp-based validation only (TL2-style): a stale snapshot
    /// aborts the transaction, so stripe aliasing causes false conflicts.
    Tbv,
    /// Hierarchical validation: timestamps first, falling back to
    /// value-based validation to filter false conflicts.
    Hv,
}

/// How commit-time locks are acquired without livelocking under lockstep
/// execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Locking {
    /// Encounter-time lock-sorting: all transactions acquire locks in
    /// ascending global lock-id order (Section 3.1).
    Sorted,
    /// GPU-specific backoff: warp lanes first try in parallel in encounter
    /// order; lanes that fail retry one at a time while the rest of the
    /// warp waits (Section 4.2's STM-HV-Backoff).
    Backoff,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = StmConfig::default();
        assert_eq!(c.n_locks, 1 << 20);
        assert!(c.coalesced_sets);
        assert!(!c.pre_commit_vbv);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_locks_rejected() {
        let _ = StmConfig::new(1000);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        assert!(StmConfig::try_new(1 << 12).is_ok());
        let err = StmConfig::try_new(1000).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }

    #[test]
    fn validate_catches_hand_assembled_invariant_breaks() {
        let good = StmConfig::new(1 << 8);
        assert!(good.validate().is_ok());

        let mut bad = good;
        bad.locklog_buckets = 3;
        assert!(bad.validate().unwrap_err().contains("locklog_buckets"));

        let mut bad = good;
        bad.locklog_buckets = good.n_locks * 2;
        assert!(bad.validate().unwrap_err().contains("exceed"));
    }

    #[test]
    fn park_knob_defaults() {
        let c = StmConfig::default();
        assert_eq!(c.max_parked_per_warp, 32);
        assert_eq!(c.park_budget_cycles, u64::MAX);
        assert_eq!(c.spurious_wake_rate, 0);
    }

    #[test]
    fn validate_catches_bad_park_knobs() {
        let good = StmConfig::new(1 << 8);

        let mut bad = good;
        bad.max_parked_per_warp = 0;
        assert!(bad.validate().unwrap_err().contains("max_parked_per_warp"));

        let mut bad = good;
        bad.park_budget_cycles = 0;
        assert!(bad.validate().unwrap_err().contains("park_budget_cycles"));

        let mut bad = good;
        bad.spurious_wake_rate = 1001;
        assert!(bad.validate().unwrap_err().contains("per-mille"));
        bad.spurious_wake_rate = 1000;
        assert!(bad.validate().is_ok(), "1000 per-mille (always) is a legal rate");
    }
}
