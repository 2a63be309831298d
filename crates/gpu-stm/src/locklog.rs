//! Encounter-time lock-sorting: the per-transaction local lock table
//! (Sections 3.1 and 3.2.1).
//!
//! On every transactional read or write, the global lock index guarding the
//! accessed stripe is inserted — *in sorted position* — into the
//! transaction's lock-log, together with read-/write-bits. At commit the
//! log is walked in ascending lock-id order, so all transactions
//! system-wide acquire locks in one global order and livelock is impossible
//! even under lockstep execution.
//!
//! A flat sorted list makes insertion O(n²) over the transaction's life;
//! the paper reduces this with an *order-preserving hash table*: an
//! incoming lock is hashed to a bucket by its high bits (so bucket order =
//! lock order) and inserted in sorted position within the bucket. Walking
//! buckets in order then yields the globally sorted sequence.
//!
//! The simulator keeps the log host-side as that sequence — one sorted
//! array, the buckets laid end to end — and charges each insertion the
//! comparisons a scan of its bucket would make. The bucket count sets only
//! that charge: which entries the log holds, and in what order, is the
//! same for every bucket count.

/// One lock-log entry: a global lock index plus whether the transaction
/// read from / wrote to the stripe it guards.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LockEntry {
    /// Index into the global lock table.
    pub lock: u32,
    /// The stripe was transactionally read (commit must validate it).
    pub read: bool,
    /// The stripe was transactionally written (commit publishes a new
    /// version to it).
    pub write: bool,
}

/// A per-lane order-preserving hash table of lock indices.
#[derive(Clone, Debug)]
pub struct LockLog {
    /// Every entry, ascending by lock. A bucket's entries are one
    /// contiguous run of it.
    sorted: Vec<LockEntry>,
    /// `lock >> shift` is the bucket a lock hashes to.
    shift: u32,
    /// Lock ids in first-insertion (encounter) order. The commit path never
    /// uses this — it exists so the seeded `unsorted_locks` mutant can
    /// acquire in the order the paper's sorting deliberately avoids, and so
    /// diagnostics can report where a lock entered the transaction.
    order: Vec<u32>,
}

impl LockLog {
    /// Creates a log with `n_buckets` buckets for a global table of
    /// `n_locks` locks. `n_buckets == 1` degrades to the flat sorted list.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are powers of two and
    /// `n_buckets <= n_locks`.
    pub fn new(n_buckets: u32, n_locks: u32) -> Self {
        assert!(n_buckets.is_power_of_two(), "bucket count must be a power of two");
        assert!(n_locks.is_power_of_two(), "lock count must be a power of two");
        assert!(n_buckets <= n_locks, "more buckets than locks");
        LockLog {
            sorted: Vec::new(),
            // High bits preserve order across buckets.
            shift: n_locks.trailing_zeros() - n_buckets.trailing_zeros(),
            order: Vec::new(),
        }
    }

    /// Number of distinct locks recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no lock has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inserts `lock` with the given intent, merging bits if it is already
    /// present (duplication is avoided, Section 3.1). Returns the number
    /// of comparison steps performed — the cost the timing model charges:
    /// a scan of the lock's bucket compares every entry below it, plus the
    /// equal or greater entry it stops at, if the bucket holds one.
    pub fn insert(&mut self, lock: u32, read: bool, write: bool) -> u32 {
        // Linear walks down from the top: logs are short, mostly grow
        // upward, and the second walk is as long as the charge.
        let bucket = lock >> self.shift;
        let mut at = self.sorted.len();
        while at > 0 && self.sorted[at - 1].lock >= lock {
            at -= 1;
        }
        let mut first = at;
        while first > 0 && self.sorted[first - 1].lock >> self.shift == bucket {
            first -= 1;
        }
        let below = (at - first) as u32;
        let comparisons = match self.sorted.get_mut(at) {
            Some(e) if e.lock == lock => {
                e.read |= read;
                e.write |= write;
                return below + 1;
            }
            Some(e) => below + u32::from(e.lock >> self.shift == bucket),
            None => below,
        };
        self.sorted.insert(at, LockEntry { lock, read, write });
        self.order.push(lock);
        comparisons
    }

    /// Looks up the entry for `lock`, if present.
    pub fn get(&self, lock: u32) -> Option<LockEntry> {
        self.sorted.binary_search_by_key(&lock, |e| e.lock).ok().map(|i| self.sorted[i])
    }

    /// Iterates entries in ascending global lock order — the commit-time
    /// acquisition order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = LockEntry> + '_ {
        self.sorted.iter().copied()
    }

    /// The `k`-th entry in sorted order: lockstep round `k` of commit's
    /// acquire and release walks.
    #[inline]
    pub fn nth_sorted(&self, k: usize) -> Option<LockEntry> {
        self.sorted.get(k).copied()
    }

    /// The `k`-th entry in first-insertion (encounter) order, with its
    /// *current* merged read/write bits. See the `order` field for why
    /// this exists.
    pub fn nth_inserted(&self, k: usize) -> Option<LockEntry> {
        self.order.get(k).and_then(|&lock| self.get(lock))
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.sorted.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(log: &LockLog) -> Vec<u32> {
        log.iter_sorted().map(|e| e.lock).collect()
    }

    #[test]
    fn insert_keeps_global_order() {
        let mut log = LockLog::new(4, 64);
        for lock in [50, 3, 17, 40, 9, 0, 63] {
            log.insert(lock, true, false);
        }
        assert_eq!(collect(&log), vec![0, 3, 9, 17, 40, 50, 63]);
        assert_eq!(log.len(), 7);
    }

    #[test]
    fn duplicates_merge_bits() {
        let mut log = LockLog::new(4, 64);
        log.insert(5, true, false);
        log.insert(5, false, true);
        assert_eq!(log.len(), 1);
        let e = log.get(5).unwrap();
        assert!(e.read && e.write);
    }

    #[test]
    fn flat_single_bucket_still_sorted_but_more_comparisons() {
        let mut flat = LockLog::new(1, 64);
        let mut hashed = LockLog::new(16, 64);
        let locks: Vec<u32> = (0..32).map(|i| (i * 37) % 64).collect();
        let mut flat_cmp = 0;
        let mut hashed_cmp = 0;
        for &l in &locks {
            flat_cmp += flat.insert(l, true, false);
            hashed_cmp += hashed.insert(l, true, false);
        }
        assert_eq!(collect(&flat), collect(&hashed));
        assert!(
            hashed_cmp < flat_cmp,
            "hash table should reduce comparisons: {hashed_cmp} vs {flat_cmp}"
        );
    }

    #[test]
    fn nth_sorted_matches_iteration() {
        let mut log = LockLog::new(4, 64);
        for lock in [9, 1, 33, 62] {
            log.insert(lock, false, true);
        }
        let via_iter = collect(&log);
        for (k, expect) in via_iter.iter().enumerate() {
            assert_eq!(log.nth_sorted(k).unwrap().lock, *expect);
        }
        assert!(log.nth_sorted(4).is_none());
    }

    #[test]
    fn clear_empties() {
        let mut log = LockLog::new(2, 16);
        log.insert(3, true, true);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.nth_sorted(0), None);
        assert_eq!(log.nth_inserted(0), None);
    }

    #[test]
    fn nth_inserted_keeps_encounter_order_and_merged_bits() {
        let mut log = LockLog::new(4, 64);
        log.insert(50, true, false);
        log.insert(3, false, true);
        log.insert(50, false, true); // duplicate: merges, no new position
        log.insert(17, true, false);
        let inserted: Vec<u32> = (0..3).map(|k| log.nth_inserted(k).unwrap().lock).collect();
        assert_eq!(inserted, vec![50, 3, 17]);
        let e = log.nth_inserted(0).unwrap();
        assert!(e.read && e.write, "bits merge across duplicate inserts");
        assert_eq!(log.nth_inserted(3), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bucket_count_rejected() {
        let _ = LockLog::new(3, 16);
    }

    #[test]
    fn bucket_order_uses_high_bits() {
        // With 2 buckets over 16 locks, locks 0-7 land in bucket 0 and 8-15
        // in bucket 1, so cross-bucket iteration is globally sorted.
        let mut log = LockLog::new(2, 16);
        log.insert(12, true, false);
        log.insert(2, true, false);
        log.insert(8, true, false);
        log.insert(7, true, false);
        assert_eq!(collect(&log), vec![2, 7, 8, 12]);
    }
}
