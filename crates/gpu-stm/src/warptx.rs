//! Per-warp transaction state: the thread-local metadata of Algorithm 2,
//! merged warp-wide (coalesced organisation) with one logical transaction
//! per lane.

use crate::config::StmConfig;
use crate::locklog::LockLog;
use crate::sets::{WarpLog, WriteSet};
use crate::stats::{Breakdown, Phase, NUM_PHASES};
use gpu_sim::{LaneMask, WARP_SIZE};

/// The warp's transactional descriptor — the object `STM_NEW_WARP()`
/// returns in the paper's Figure 1 example.
///
/// Holds, per lane: the read-set, write-set (with Bloom filter), sorted
/// lock-log, clock snapshot, opacity flag and TBV pass flag; plus warp-wide
/// phase-timing scratch state.
#[derive(Debug)]
pub struct WarpTx {
    /// Read-set: (address, value) pairs per lane, coalesced layout.
    pub reads: WarpLog,
    /// Write-set with per-lane Bloom filters.
    pub writes: WriteSet,
    /// Per-lane encounter-time sorted lock-logs.
    pub locklog: Vec<LockLog>,
    /// Per-lane global-clock snapshot (Algorithm 3 line 4).
    pub snapshot: [u32; WARP_SIZE],
    /// Per-lane opacity flags: cleared when a lane observes an
    /// inconsistent view and must abort (Algorithm 3 line 33).
    pub opaque: LaneMask,
    /// Per-lane commit-time TBV outcome (Algorithm 3 line 51).
    pub pass_tbv: [bool; WARP_SIZE],
    /// Per-lane count of commit locks currently held (for release paths).
    pub acquired: [usize; WARP_SIZE],
    /// Warp-local backoff state for retry jitter.
    pub backoff: u64,
    /// Per-lane count of *consecutive* aborted attempts of the current
    /// logical transaction. Deliberately **not** cleared by
    /// [`reset_lane`](Self::reset_lane) — an abort resets the lane for
    /// its retry, and the streak must survive that. The escalation policy
    /// of a [`Pipeline`](crate::Pipeline) maintains it (zeroing on commit)
    /// and escalates starving lanes to the serialized fallback path.
    pub consec_aborts: [u32; WARP_SIZE],
    /// Lanes that called `retry()` this attempt: instead of committing,
    /// they want to block until an address of their read-set is
    /// overwritten (see [`Pipeline::retry`](crate::Pipeline::retry)). Cleared by
    /// [`reset_lane`](Self::reset_lane) and consumed by
    /// `commit_or_park` / `or_else`.
    pub retrying: LaneMask,

    cur_phase: Phase,
    phase_start: u64,
    attempt: [f64; NUM_PHASES],
}

impl WarpTx {
    /// Creates a descriptor for one warp under `cfg`.
    pub fn new(cfg: &StmConfig) -> Self {
        WarpTx {
            reads: WarpLog::new(),
            writes: WriteSet::new(),
            locklog: (0..WARP_SIZE)
                .map(|_| LockLog::new(cfg.locklog_buckets, cfg.n_locks))
                .collect(),
            snapshot: [0; WARP_SIZE],
            opaque: LaneMask::FULL,
            pass_tbv: [true; WARP_SIZE],
            acquired: [0; WARP_SIZE],
            backoff: 0,
            consec_aborts: [0; WARP_SIZE],
            retrying: LaneMask::EMPTY,
            cur_phase: Phase::Native,
            phase_start: 0,
            attempt: [0.0; NUM_PHASES],
        }
    }

    /// Resets `lane` for a fresh transaction (the `TXBegin` line 2–3
    /// state initialisation).
    pub fn reset_lane(&mut self, lane: usize) {
        self.reads.clear_lane(lane);
        self.writes.clear_lane(lane);
        self.locklog[lane].clear();
        self.opaque |= LaneMask::lane(lane);
        self.pass_tbv[lane] = true;
        self.acquired[lane] = 0;
        self.retrying = self.retrying.without(lane);
    }

    /// Marks `lane` inconsistent: it must abort (its reads no longer form
    /// a consistent snapshot).
    pub fn mark_inconsistent(&mut self, lane: usize) {
        self.opaque = self.opaque.without(lane);
    }

    /// Whether `lane` buffered no writes (read-only transaction).
    pub fn is_read_only(&self, lane: usize) -> bool {
        self.writes.is_empty(lane)
    }

    // ---- phase accounting (Figure 5 breakdown) ----

    /// Switches the warp's current phase, attributing the elapsed span to
    /// the previous phase. `now` is the current simulated cycle.
    pub fn enter_phase(&mut self, now: u64, phase: Phase) {
        let span = now.saturating_sub(self.phase_start) as f64;
        self.attempt[self.cur_phase as usize] += span;
        self.cur_phase = phase;
        self.phase_start = now;
    }

    /// Flushes the attempt buffer into `breakdown` at the end of a commit
    /// call. Native and `Parked` time are attributed directly — parked
    /// cycles are *waiting*, never wasted work, so they must not land in
    /// the `Aborted` bucket. Transactional time is split between committed
    /// phases and the `Aborted` bucket in proportion to how many lanes
    /// committed vs aborted.
    pub fn flush_attempt(&mut self, breakdown: &mut Breakdown, committed: u32, aborted: u32) {
        let before = breakdown.total();
        let native = std::mem::replace(&mut self.attempt[Phase::Native as usize], 0.0);
        breakdown.add(Phase::Native, native);
        let parked = std::mem::replace(&mut self.attempt[Phase::Parked as usize], 0.0);
        breakdown.add(Phase::Parked, parked);
        let total_lanes = committed + aborted;
        if total_lanes == 0 {
            // Nothing resolved; keep accumulating for the next flush.
            Self::check_conservation(breakdown, before, native + parked);
            return;
        }
        let cf = committed as f64 / total_lanes as f64;
        let af = aborted as f64 / total_lanes as f64;
        let mut tx_total = 0.0;
        for (i, slot) in self.attempt.iter_mut().enumerate() {
            if i == Phase::Native as usize || i == Phase::Parked as usize {
                continue;
            }
            let v = std::mem::replace(slot, 0.0);
            tx_total += v;
            breakdown.add_index(i, v * cf);
        }
        breakdown.add(Phase::Aborted, tx_total * af);
        Self::check_conservation(breakdown, before, native + parked + tx_total);
    }

    /// Debug-build cross-check: a flush must grow the breakdown's total by
    /// exactly the cycles it drained from the attempt buffer — the
    /// proportional committed/aborted split redistributes time between
    /// phases but must never create or lose any (silent phase-attribution
    /// drift would corrupt the Figure 5 reproduction).
    #[inline]
    fn check_conservation(breakdown: &Breakdown, before: f64, drained: f64) {
        let _ = (breakdown, before, drained);
        debug_assert!(
            (breakdown.total() - before - drained).abs() <= 1e-6 * drained.abs().max(1.0),
            "breakdown drift: total went {before} -> {} but {drained} cycles were drained",
            breakdown.total()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Addr;

    fn cfg() -> StmConfig {
        StmConfig::new(1 << 10)
    }

    #[test]
    fn reset_clears_lane_state() {
        let mut w = WarpTx::new(&cfg());
        w.reads.push(3, Addr(1), 2);
        w.writes.insert(3, Addr(1), 5);
        w.locklog[3].insert(1, true, true);
        w.mark_inconsistent(3);
        w.pass_tbv[3] = false;
        w.acquired[3] = 2;
        w.reset_lane(3);
        assert!(w.reads.is_empty(3));
        assert!(w.writes.is_empty(3));
        assert!(w.locklog[3].is_empty());
        assert!(w.opaque.contains(3));
        assert!(w.pass_tbv[3]);
        assert_eq!(w.acquired[3], 0);
    }

    #[test]
    fn read_only_until_first_write() {
        let mut w = WarpTx::new(&cfg());
        assert!(w.is_read_only(0));
        w.writes.insert(0, Addr(9), 1);
        assert!(!w.is_read_only(0));
    }

    #[test]
    fn phase_flush_all_committed() {
        let mut w = WarpTx::new(&cfg());
        let mut b = Breakdown::new();
        w.enter_phase(0, Phase::Init);
        w.enter_phase(10, Phase::Buffering); // 10 cycles of Init
        w.enter_phase(25, Phase::Native); // 15 cycles of Buffering
        w.flush_attempt(&mut b, 32, 0);
        assert_eq!(b.get(Phase::Init), 10.0);
        assert_eq!(b.get(Phase::Buffering), 15.0);
        assert_eq!(b.get(Phase::Aborted), 0.0);
    }

    #[test]
    fn phase_flush_split_between_commit_and_abort() {
        let mut w = WarpTx::new(&cfg());
        let mut b = Breakdown::new();
        w.enter_phase(0, Phase::Commit);
        w.enter_phase(100, Phase::Native);
        w.flush_attempt(&mut b, 1, 3);
        assert_eq!(b.get(Phase::Commit), 25.0);
        assert_eq!(b.get(Phase::Aborted), 75.0);
    }

    #[test]
    fn native_time_not_charged_to_aborts() {
        let mut w = WarpTx::new(&cfg());
        let mut b = Breakdown::new();
        // 50 cycles of native work, then an aborted attempt of 10 cycles.
        w.enter_phase(50, Phase::Init); // Native phase ran 0..50
        w.enter_phase(60, Phase::Native);
        w.flush_attempt(&mut b, 0, 32);
        assert_eq!(b.get(Phase::Native), 50.0);
        assert_eq!(b.get(Phase::Aborted), 10.0);
    }

    #[test]
    fn zero_resolution_keeps_tx_time_buffered() {
        let mut w = WarpTx::new(&cfg());
        let mut b = Breakdown::new();
        w.enter_phase(0, Phase::Locking);
        w.enter_phase(30, Phase::Native);
        w.flush_attempt(&mut b, 0, 0);
        assert_eq!(b.total(), 0.0);
        // A later successful flush drains the buffered locking time.
        w.enter_phase(40, Phase::Commit);
        w.enter_phase(50, Phase::Native);
        w.flush_attempt(&mut b, 32, 0);
        assert_eq!(b.get(Phase::Locking), 30.0);
        assert_eq!(b.get(Phase::Commit), 10.0);
    }

    #[test]
    fn flush_conserves_attributed_cycles() {
        // Phase cycles drained from the attempt buffer must land in the
        // breakdown exactly, whatever the committed/aborted split.
        for (committed, aborted) in [(32, 0), (0, 32), (1, 3), (7, 11), (0, 0)] {
            let mut w = WarpTx::new(&cfg());
            let mut b = Breakdown::new();
            w.enter_phase(5, Phase::Init); // 5 native cycles
            w.enter_phase(10, Phase::Buffering);
            w.enter_phase(40, Phase::Consistency);
            w.enter_phase(41, Phase::Locking);
            w.enter_phase(100, Phase::Commit);
            w.enter_phase(163, Phase::Native);
            w.flush_attempt(&mut b, committed, aborted);
            let expected = if committed + aborted == 0 { 5.0 } else { 163.0 };
            assert!(
                (b.total() - expected).abs() < 1e-9,
                "split {committed}/{aborted}: total {} != {expected}",
                b.total()
            );
            if committed + aborted > 0 {
                // The residue drains on the next resolving flush.
                w.flush_attempt(&mut b, 1, 0);
                assert!((b.total() - 163.0).abs() < 1e-9);
            }
        }
    }
}
