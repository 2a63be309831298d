//! Graceful degradation under contention: bounded randomized backoff,
//! starvation tracking, and an HTM-style serialized fallback path.
//!
//! GPU-STM's lock-sorting rules out livelock among transactions that
//! reach their commit point, but nothing in the base runtime bounds how
//! often one *particular* transaction loses: under a pathological access
//! pattern (or injected faults — see `gpu_sim::fault`) a lane can abort
//! indefinitely while the rest of the grid commits around it. The
//! escalation policy of a [`Pipeline`] adds the standard progress ladder
//! used by hybrid/best-effort TM systems:
//!
//! 1. **Bounded backoff** — after an abort, the warp idles for a seeded,
//!    capped exponential backoff derived from the worst per-lane
//!    consecutive-abort streak, decorrelating lockstep retries.
//! 2. **Starvation tracking** — `WarpTx::consec_aborts` counts each
//!    lane's losing streak; the longest streak observed is reported in
//!    [`TxStats::max_consec_aborts`](crate::TxStats::max_consec_aborts).
//! 3. **Escalation** — once a lane's streak reaches
//!    [`RobustConfig::fallback_after`], it grabs a global fallback lock
//!    (CAS `0 -> tid+1` on a device word). While the lock is held,
//!    `begin` refuses admission to every other transaction, so the
//!    starving one runs essentially alone and must commit; committing
//!    releases the lock. This is the software analogue of an HTM
//!    fallback path and bounds per-transaction aborts: a streak can only
//!    grow past `fallback_after` while an earlier escalatee drains.
//!
//! When the pipeline also runs admission, backoff reads its AIMD storm
//! flag ([`Pipeline::abort_storm`]): during a storm backoff jumps
//! straight to its cap instead of climbing to it.
//!
//! [`Pipeline`]: crate::Pipeline
//! [`Pipeline::abort_storm`]: crate::Pipeline::abort_storm

use crate::ledger::Ledger;
use crate::trace::TxEventKind;
use crate::warptx::WarpTx;
use gpu_sim::rng::splitmix64;
use gpu_sim::{Addr, LaneMask, Sim, SimError, WarpCtx};
use std::cell::Cell;
use std::rc::Rc;

/// Tuning knobs for the degradation ladder.
#[derive(Copy, Clone, Debug)]
pub struct RobustConfig {
    /// Seed for the backoff jitter stream.
    pub seed: u64,
    /// Base backoff span in cycles; doubles per consecutive abort.
    pub backoff_base: u64,
    /// Upper bound on a single backoff span.
    pub backoff_cap: u64,
    /// Consecutive aborts of one lane before it escalates to the
    /// serialized fallback path.
    pub fallback_after: u32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig { seed: 1, backoff_base: 32, backoff_cap: 4096, fallback_after: 8 }
    }
}

impl RobustConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// a zero `backoff_base`, a cap below the base, or a zero
    /// `fallback_after` (which would escalate *every* abort and
    /// serialize the whole run).
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff_base == 0 {
            return Err("backoff_base must be at least 1 cycle".into());
        }
        if self.backoff_cap < self.backoff_base {
            return Err(format!(
                "backoff_cap ({}) must be at least backoff_base ({})",
                self.backoff_cap, self.backoff_base
            ));
        }
        if self.fallback_after == 0 {
            return Err("fallback_after must be at least 1 abort".into());
        }
        Ok(())
    }
}

/// The escalation policy's state: its configuration, the device
/// fallback-lock word and the backoff-jitter RNG (shared by clones, like
/// the rest of a [`Pipeline`](crate::Pipeline)'s policy state).
#[derive(Clone, Debug)]
pub(crate) struct Escalation {
    cfg: RobustConfig,
    /// Device word: 0 = free, `tid + 1` = escalated holder.
    pub(crate) lock: Addr,
    pub(crate) rng: Rc<Cell<u64>>,
}

impl Escalation {
    /// Allocates the device fallback-lock word for a configuration that
    /// passed [`RobustConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the lock word does not fit.
    pub(crate) fn init(sim: &mut Sim, cfg: RobustConfig) -> Result<Self, SimError> {
        Ok(Escalation { cfg, lock: sim.alloc(1)?, rng: Rc::new(Cell::new(cfg.seed)) })
    }

    /// The `begin` gate: while an escalated transaction holds the
    /// fallback lock, only it may run. Returns the lanes that may go on
    /// to admission, or `None` when the warp was refused (after idling).
    pub(crate) async fn gate(&self, ctx: &WarpCtx, want: LaneMask) -> Option<LaneMask> {
        let Some(leader) = want.leader() else {
            return Some(want);
        };
        let holder = ctx.load_one(leader, self.lock).await;
        if holder == 0 {
            return Some(want);
        }
        // Serialized mode: only the escalated transaction may run.
        let ours = want.filter(|l| ctx.id().thread_id(l) + 1 == holder);
        if ours.none() {
            ctx.idle(self.cfg.backoff_base.max(50)).await;
            return None;
        }
        Some(ours)
    }

    /// Starvation accounting after a commit of `mask`, then the fallback
    /// lock: a committed escalatee releases it, otherwise the most-starved
    /// lane past the threshold tries to take it. Returns the worst losing
    /// streak among the aborted lanes, for [`backoff_span`](Self::backoff_span).
    pub(crate) async fn settle(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        committed: LaneMask,
        ledger: &Ledger,
    ) -> u32 {
        let aborted = mask & !committed;

        // Starvation accounting: commits end a streak, aborts extend it.
        for l in committed.iter() {
            w.consec_aborts[l] = 0;
        }
        let mut worst = 0u32;
        for l in aborted.iter() {
            w.consec_aborts[l] += 1;
            worst = worst.max(w.consec_aborts[l]);
        }
        if worst > 0 {
            let mut st = ledger.stats.borrow_mut();
            st.max_consec_aborts = st.max_consec_aborts.max(worst as u64);
        }

        if mask.any() {
            let leader = mask.leader().expect("non-empty mask");
            let holder = ctx.load_one(leader, self.lock).await;

            // A committed escalatee releases the fallback lock.
            if holder != 0 {
                if let Some(l) = committed.iter().find(|&l| ctx.id().thread_id(l) + 1 == holder) {
                    ctx.store_one(l, self.lock, 0).await;
                    ctx.fence(LaneMask::lane(l)).await;
                    ledger.stats.borrow_mut().fallback_commits += 1;
                }
            } else {
                // Escalate the most-starved lane once it crosses the
                // threshold. A lost CAS means another transaction
                // escalated first; this lane keeps its streak and wins a
                // later round.
                let esc = aborted.filter(|l| w.consec_aborts[l] >= self.cfg.fallback_after);
                if let Some(l) = esc.iter().max_by_key(|&l| w.consec_aborts[l]) {
                    let tid = ctx.id().thread_id(l) + 1;
                    let old = ctx.atomic_cas_one(l, self.lock, 0, tid).await;
                    if old == 0 {
                        ledger.stats.borrow_mut().escalations += 1;
                        ledger.emit(ctx, TxEventKind::Escalate { tid: tid - 1 });
                    }
                }
            }
        }
        worst
    }

    /// Backoff span before the next retry, given the worst losing streak
    /// in the warp: capped exponential with jitter in `[span/2, span]`,
    /// jumping straight to the cap during an abort storm.
    pub(crate) fn backoff_span(&self, worst_streak: u32, storm: bool) -> u64 {
        let exp = worst_streak.min(20);
        let mut span = self.cfg.backoff_base.saturating_shl(exp).min(self.cfg.backoff_cap);
        if storm {
            span = self.cfg.backoff_cap;
        }
        let mut rng = self.rng.get();
        let r = splitmix64(&mut rng);
        self.rng.set(rng);
        span / 2 + r % (span / 2 + 1)
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (a 64-abort
/// streak must not shift the base back down to zero).
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs > self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Stm;
    use crate::api::{lane_addrs, lane_vals};
    use crate::config::StmConfig;
    use crate::pipeline::{Pipeline, Policies};
    use crate::shared::StmShared;
    use crate::variants::LockStm;
    use gpu_sim::{LaunchConfig, SimConfig};

    fn robust(
        sim: &mut Sim,
        inner: LockStm,
        cfg: StmConfig,
        robust_cfg: RobustConfig,
    ) -> Result<Pipeline<LockStm>, SimError> {
        let policies = Policies { escalation: Some(robust_cfg), ..Policies::default() };
        Pipeline::new(sim, inner, &cfg, policies)
    }

    #[test]
    fn default_config_is_valid() {
        RobustConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let ok = RobustConfig::default();
        let c = RobustConfig { backoff_base: 0, ..ok };
        assert!(c.validate().is_err());
        let c = RobustConfig { backoff_cap: ok.backoff_base - 1, ..ok };
        assert!(c.validate().is_err());
        let c = RobustConfig { fallback_after: 0, ..ok };
        assert!(c.validate().is_err());
    }

    #[test]
    fn init_rejects_invalid_config() {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 14));
        let cfg = StmConfig::new(1 << 6);
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        let inner = LockStm::hv_sorting(shared, cfg);
        let bad = RobustConfig { fallback_after: 0, ..RobustConfig::default() };
        assert!(matches!(robust(&mut sim, inner, cfg, bad), Err(SimError::BadLaunch(_))));
    }

    #[test]
    fn saturating_shl_saturates() {
        assert_eq!(32u64.saturating_shl(2), 128);
        assert_eq!(32u64.saturating_shl(63), u64::MAX);
        assert_eq!(32u64.saturating_shl(64), u64::MAX);
    }

    fn contended_run(
        robust_cfg: RobustConfig,
        n_counters: u32,
        grid: LaunchConfig,
        incr: u32,
    ) -> (crate::TxStats, u64, u64) {
        let mut simcfg = SimConfig::with_memory(1 << 18);
        simcfg.watchdog_cycles = 1 << 33;
        let mut sim = Sim::new(simcfg);
        let cfg = StmConfig::new(1 << 6);
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        let counters = sim.alloc(n_counters).unwrap();
        let stm =
            Rc::new(robust(&mut sim, LockStm::hv_sorting(shared, cfg), cfg, robust_cfg).unwrap());
        let kstm = Rc::clone(&stm);
        sim.launch(grid, move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = gpu_sim::WarpRng::new(7, ctx.id().thread_id(0));
                let mut remaining = [incr; 32];
                loop {
                    let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let addrs = lane_addrs(active, |l| counters.offset(rng.below(l, n_counters)));
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    let upd = lane_vals(ok, |l| vals[l] + 1);
                    stm.write(&mut w, &ctx, ok, &addrs, &upd).await;
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                }
            }
        })
        .unwrap();
        let total = sim.read_slice(counters, n_counters).iter().map(|v| *v as u64).sum();
        let expected = grid.total_threads() * incr as u64;
        let stats = stm.stats().borrow().clone();
        (stats, total, expected)
    }

    #[test]
    fn robust_preserves_correctness_under_contention() {
        let (stats, total, expected) =
            contended_run(RobustConfig::default(), 2, LaunchConfig::new(4, 64), 3);
        assert_eq!(total, expected);
        assert!(stats.aborts > 0, "workload should actually contend");
    }

    #[test]
    fn fallback_lock_released_after_escalated_commit() {
        // Aggressive escalation: every abort streak of 1 escalates, so
        // the fallback path is exercised constantly; the lock must still
        // end the run free and the counters exact.
        let cfg = RobustConfig { fallback_after: 1, ..RobustConfig::default() };
        let mut simcfg = SimConfig::with_memory(1 << 18);
        simcfg.watchdog_cycles = 1 << 33;
        let mut sim = Sim::new(simcfg);
        let stm_cfg = StmConfig::new(1 << 6);
        let shared = StmShared::init(&mut sim, &stm_cfg).unwrap();
        let counters = sim.alloc(2).unwrap();
        let stm =
            Rc::new(robust(&mut sim, LockStm::hv_sorting(shared, stm_cfg), stm_cfg, cfg).unwrap());
        let lock_addr = stm.fallback_lock_addr().expect("escalation is on");
        let kstm = Rc::clone(&stm);
        sim.launch(LaunchConfig::new(2, 64), move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut pending = ctx.id().launch_mask;
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let addrs = lane_addrs(active, |l| counters.offset((l % 2) as u32));
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    let upd = lane_vals(ok, |l| vals[l] + 1);
                    stm.write(&mut w, &ctx, ok, &addrs, &upd).await;
                    pending &= !stm.commit(&mut w, &ctx, active).await;
                }
            }
        })
        .unwrap();
        assert_eq!(sim.read(lock_addr), 0, "fallback lock must end free");
        let total: u64 = sim.read_slice(counters, 2).iter().map(|v| *v as u64).sum();
        assert_eq!(total, 2 * 64);
        let handle = stm.stats();
        let stats = handle.borrow();
        assert!(stats.escalations > 0, "threshold 1 must trigger escalation");
        assert_eq!(stats.fallback_commits, stats.escalations);
    }

    #[test]
    fn starvation_streaks_are_tracked_and_bounded() {
        // Same maximally-contended workload (one counter) with escalation
        // effectively disabled vs enabled: the fallback path must not
        // worsen the worst starvation streak, and must actually engage.
        let disabled = RobustConfig { fallback_after: u32::MAX, ..RobustConfig::default() };
        let (without, total, expected) = contended_run(disabled, 1, LaunchConfig::new(4, 64), 2);
        assert_eq!(total, expected);
        assert!(without.max_consec_aborts > 0, "single counter must starve someone");
        assert_eq!(without.escalations, 0);

        let enabled = RobustConfig { fallback_after: 4, ..RobustConfig::default() };
        let (with, total, expected) = contended_run(enabled, 1, LaunchConfig::new(4, 64), 2);
        assert_eq!(total, expected);
        assert!(with.escalations > 0, "threshold 4 must trigger under total conflict");
        assert_eq!(with.fallback_commits, with.escalations);
        assert!(
            with.max_consec_aborts <= without.max_consec_aborts,
            "escalation must not worsen starvation: {} vs {}",
            with.max_consec_aborts,
            without.max_consec_aborts
        );
    }

    #[test]
    fn degradation_rescues_pathological_cross_readwrite() {
        // Write-only locking + two lanes that read each other's write
        // target: in lockstep this mutually aborts forever (the
        // `write_only_locking_starves_on_cross_readwrite` integration
        // test proves the bare runtime hits the progress watchdog).
        // The escalation policy's randomized backoff + serialized fallback must turn
        // that unbounded starvation into completion.
        let mut simcfg = SimConfig::with_memory(1 << 16);
        simcfg.watchdog_cycles = 1 << 33;
        let mut sim = Sim::new(simcfg);
        let mut cfg = StmConfig::new(1 << 6);
        cfg.lock_read_set = false;
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        let data = sim.alloc(2).unwrap();
        let robust_cfg = RobustConfig { fallback_after: 3, ..RobustConfig::default() };
        let stm =
            Rc::new(robust(&mut sim, LockStm::hv_sorting(shared, cfg), cfg, robust_cfg).unwrap());
        let kstm = Rc::clone(&stm);
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut pending = gpu_sim::LaneMask::first_n(2);
                // Lane 0: read data[1], write data[0]; lane 1 vice versa.
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let raddr = lane_addrs(active, |l| data.offset(1 - l as u32));
                    let vals = stm.read(&mut w, &ctx, active, &raddr).await;
                    let ok = active & stm.opaque(&w);
                    let waddr = lane_addrs(ok, |l| data.offset(l as u32));
                    let upd = lane_vals(ok, |l| vals[l] + 1);
                    stm.write(&mut w, &ctx, ok, &waddr, &upd).await;
                    pending &= !stm.commit(&mut w, &ctx, active).await;
                }
            }
        })
        .unwrap();
        assert_eq!(sim.read(stm.fallback_lock_addr().expect("escalation is on")), 0);
        let handle = stm.stats();
        let stats = handle.borrow();
        assert_eq!(stats.commits, 2, "both cross transactions must land");
        assert!(stats.max_consec_aborts > 0, "the pathology must have bitten first");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = |seed| {
            let cfg = RobustConfig { seed, ..RobustConfig::default() };
            let (stats, total, expected) = contended_run(cfg, 2, LaunchConfig::new(2, 64), 2);
            assert_eq!(total, expected);
            (stats.commits, stats.aborts)
        };
        assert_eq!(run(3), run(3), "same seed must reproduce exactly");
    }
}
