//! An adaptive transaction scheduler — the paper's stated future work
//! (Section 4.2): *"the increasing number of threads can result in more
//! conflicts among transactions thus higher abort rates. This is a
//! tradeoff between concurrency and efficiency … a transaction scheduler
//! that dynamically adjusts concurrency would simplify the optimization
//! of GPU-STM programs."*
//!
//! The admission policy of a [`Pipeline`] throttles how many
//! transactions may be in flight at once. Admission happens in `begin`
//! (lanes beyond the current limit are refused and retry later — the
//! kernel's pending-mask loop already handles that); the limit adapts by
//! additive-increase/multiplicative-decrease on the abort rate observed
//! over a sliding window. High-conflict workloads such as k-means collapse
//! to a small concurrency where they stop thrashing; low-conflict
//! workloads ramp to full parallelism.
//!
//! [`Pipeline`]: crate::Pipeline

use gpu_sim::LaneMask;

/// Tuning knobs for the adaptive scheduler.
#[derive(Copy, Clone, Debug)]
pub struct SchedulerConfig {
    /// Initial concurrency limit (in-flight transactions).
    pub initial_limit: u32,
    /// Lower bound on the limit (never throttle below this).
    pub min_limit: u32,
    /// Upper bound on the limit.
    pub max_limit: u32,
    /// Attempts per adaptation window.
    pub window: u64,
    /// Abort rate above which the limit is halved.
    pub high_water: f64,
    /// Abort rate below which the limit grows.
    pub low_water: f64,
    /// Additive increase step, applied when the abort rate sits between
    /// the watermarks' comfortable zone; below `low_water` the limit
    /// doubles (slow-start) so uncontended workloads reach full
    /// concurrency quickly.
    pub step: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            initial_limit: 1024,
            min_limit: 8,
            max_limit: 1 << 20,
            window: 512,
            high_water: 0.5,
            low_water: 0.1,
            step: 32,
        }
    }
}

impl SchedulerConfig {
    /// Checks the configuration for internal consistency: non-zero window
    /// and limits, `min_limit <= max_limit`, and watermarks in `(0, 1)`
    /// with `low_water < high_water` (an inversion would make the AIMD
    /// loop oscillate between growing and halving on the same rate).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("scheduler window must be at least 1 attempt".into());
        }
        if self.min_limit == 0 {
            return Err("min_limit must be at least 1 (0 admits no lanes, ever)".into());
        }
        if self.min_limit > self.max_limit {
            return Err(format!(
                "min_limit ({}) exceeds max_limit ({})",
                self.min_limit, self.max_limit
            ));
        }
        if !(self.high_water > 0.0 && self.high_water <= 1.0) {
            return Err(format!("high_water ({}) must lie in (0, 1]", self.high_water));
        }
        if !(self.low_water >= 0.0 && self.low_water < 1.0) {
            return Err(format!("low_water ({}) must lie in [0, 1)", self.low_water));
        }
        if self.low_water >= self.high_water {
            return Err(format!(
                "low_water ({}) must be below high_water ({})",
                self.low_water, self.high_water
            ));
        }
        Ok(())
    }
}

/// The admission policy's host state: the AIMD concurrency limit and
/// the window it adapts over. [`Pipeline`](crate::Pipeline) admits in
/// `begin` and records each resolved attempt in `commit`.
#[derive(Debug)]
pub(crate) struct SchedState {
    cfg: SchedulerConfig,
    limit: u32,
    pub(crate) in_flight: u32,
    window_commits: u64,
    window_aborts: u64,
    adaptations: u64,
    /// Set while the last completed window's abort rate exceeded the
    /// high-water mark — the abort-storm signal escalation's backoff
    /// jumps to its cap on.
    pub(crate) storm: bool,
}

impl SchedState {
    /// Fresh state for a configuration that passed
    /// [`SchedulerConfig::validate`].
    pub(crate) fn new(cfg: SchedulerConfig) -> Self {
        SchedState {
            limit: cfg.initial_limit.clamp(cfg.min_limit, cfg.max_limit),
            cfg,
            in_flight: 0,
            window_commits: 0,
            window_aborts: 0,
            adaptations: 0,
            storm: false,
        }
    }

    /// Admission control: takes as many lanes of `want` as the limit
    /// allows and counts them in flight.
    pub(crate) fn admit(&mut self, want: LaneMask) -> LaneMask {
        let slots = self.limit.saturating_sub(self.in_flight);
        if slots == 0 {
            return LaneMask::EMPTY;
        }
        let mut granted = LaneMask::EMPTY;
        for l in want.iter().take(slots as usize) {
            granted |= LaneMask::lane(l);
        }
        self.in_flight += granted.count();
        granted
    }

    /// Folds one resolved attempt into the window; at a window boundary
    /// the AIMD step runs and the new limit is returned when it changed.
    pub(crate) fn record(&mut self, committed: u32, aborted: u32) -> Option<u32> {
        self.window_commits += committed as u64;
        self.window_aborts += aborted as u64;
        let total = self.window_commits + self.window_aborts;
        let mut changed = None;
        if total >= self.cfg.window {
            let before = self.limit;
            let rate = self.window_aborts as f64 / total as f64;
            self.storm = rate > self.cfg.high_water;
            if rate > self.cfg.high_water {
                self.limit = (self.limit / 2).max(self.cfg.min_limit);
            } else if rate < self.cfg.low_water {
                // Slow-start: double while conflicts stay rare.
                self.limit = (self.limit * 2).min(self.cfg.max_limit);
            } else if rate < self.cfg.high_water / 2.0 {
                self.limit = (self.limit + self.cfg.step).min(self.cfg.max_limit);
            }
            self.window_commits = 0;
            self.window_aborts = 0;
            self.adaptations += 1;
            if self.limit != before {
                changed = Some(self.limit);
            }
        }
        changed
    }

    /// The adaptive-control state (limit, in-flight count, window
    /// counters, storm flag) for crash-recovery snapshots. The AIMD loop
    /// is deterministic, so restoring this alongside the device state
    /// reproduces subsequent admission decisions exactly.
    pub(crate) fn checkpoint(&self) -> SchedulerCheckpoint {
        SchedulerCheckpoint {
            limit: self.limit,
            in_flight: self.in_flight,
            window_commits: self.window_commits,
            window_aborts: self.window_aborts,
            adaptations: self.adaptations,
            storm: self.storm,
        }
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint). The
    /// configuration is not part of the checkpoint.
    pub(crate) fn restore(&mut self, ck: &SchedulerCheckpoint) {
        self.limit = ck.limit;
        self.in_flight = ck.in_flight;
        self.window_commits = ck.window_commits;
        self.window_aborts = ck.window_aborts;
        self.adaptations = ck.adaptations;
        self.storm = ck.storm;
    }
}

/// Serializable adaptive-scheduler state (see
/// [`Pipeline::checkpoint`](crate::Pipeline::checkpoint)).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchedulerCheckpoint {
    /// Current concurrency limit.
    pub limit: u32,
    /// Transactions currently admitted.
    pub in_flight: u32,
    /// Commits folded into the open adaptation window.
    pub window_commits: u64,
    /// Aborts folded into the open adaptation window.
    pub window_aborts: u64,
    /// Completed adaptation windows.
    pub adaptations: u64,
    /// Abort-storm flag from the last completed window.
    pub storm: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Stm;
    use crate::config::StmConfig;
    use crate::pipeline::{Pipeline, Policies};
    use crate::shared::StmShared;
    use crate::variants::LockStm;
    use gpu_sim::{LaunchConfig, Sim, SimConfig, SimError};
    use std::rc::Rc;

    fn scheduled(
        sim: &mut Sim,
        inner: LockStm,
        cfg: StmConfig,
        sched: SchedulerConfig,
    ) -> Pipeline<LockStm> {
        let policies = Policies { admission: Some(sched), ..Policies::default() };
        Pipeline::new(sim, inner, &cfg, policies).unwrap()
    }

    fn setup(locks: u32) -> (Sim, StmShared, StmConfig) {
        let mut simcfg = SimConfig::with_memory(1 << 18);
        simcfg.watchdog_cycles = 1 << 33;
        let mut sim = Sim::new(simcfg);
        let cfg = StmConfig::new(locks);
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        (sim, shared, cfg)
    }

    /// Runs a contended counter workload under the scheduler; returns the
    /// wrapper for limit inspection plus total of counters.
    fn run_contended(
        sched_cfg: SchedulerConfig,
        n_counters: u32,
        grid: LaunchConfig,
        incr: u32,
    ) -> (SchedulerCheckpoint, u64, u64) {
        let (mut sim, shared, cfg) = setup(1 << 6);
        let counters = sim.alloc(n_counters).unwrap();
        let stm = Rc::new(scheduled(&mut sim, LockStm::hv_sorting(shared, cfg), cfg, sched_cfg));
        let kstm = Rc::clone(&stm);
        sim.launch(grid, move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = gpu_sim::WarpRng::new(1, ctx.id().thread_id(0));
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
                    let addrs = crate::api::lane_addrs(active, |l| {
                        counters.offset(rng.below(l, n_counters))
                    });
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    let upd = crate::api::lane_vals(ok, |l| vals[l] + 1);
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
        (stm.checkpoint().expect("admission is on"), total, expected)
    }

    #[test]
    fn scheduler_preserves_correctness() {
        let (_, total, expected) =
            run_contended(SchedulerConfig::default(), 64, LaunchConfig::new(4, 64), 3);
        assert_eq!(total, expected);
    }

    #[test]
    fn high_conflict_throttles_limit() {
        let cfg = SchedulerConfig { initial_limit: 1024, window: 64, ..SchedulerConfig::default() };
        // 2 counters, 256 threads: extreme conflict.
        let (stm, total, expected) = run_contended(cfg, 2, LaunchConfig::new(4, 64), 4);
        assert_eq!(total, expected);
        assert!(stm.adaptations > 0, "windows must have completed");
        assert!(stm.limit < 256, "limit should shrink under conflict, is {}", stm.limit);
    }

    #[test]
    fn low_conflict_grows_limit() {
        let cfg = SchedulerConfig { initial_limit: 16, window: 64, ..SchedulerConfig::default() };
        // Many counters, few threads: nearly conflict-free.
        let (stm, total, expected) = run_contended(cfg, 4096, LaunchConfig::new(4, 64), 4);
        assert_eq!(total, expected);
        assert!(stm.limit > 16, "limit should grow when aborts are rare, is {}", stm.limit);
    }

    #[test]
    fn validate_rejects_each_degenerate_knob() {
        let ok = SchedulerConfig::default();
        assert!(ok.validate().is_ok());

        let cases: &[(&str, SchedulerConfig)] = &[
            ("window", SchedulerConfig { window: 0, ..ok }),
            ("min_limit", SchedulerConfig { min_limit: 0, ..ok }),
            ("max_limit", SchedulerConfig { min_limit: 64, max_limit: 8, ..ok }),
            ("high_water", SchedulerConfig { high_water: 1.5, ..ok }),
            ("high_water", SchedulerConfig { high_water: 0.0, ..ok }),
            ("low_water", SchedulerConfig { low_water: -0.1, ..ok }),
            ("low_water", SchedulerConfig { low_water: 0.6, high_water: 0.5, ..ok }),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn inverted_watermarks_rejected_at_construction() {
        let (mut sim, shared, cfg) = setup(1 << 6);
        let bad = SchedulerConfig { low_water: 0.9, high_water: 0.2, ..SchedulerConfig::default() };
        let policies = Policies { admission: Some(bad), ..Policies::default() };
        let built = Pipeline::new(&mut sim, LockStm::hv_sorting(shared, cfg), &cfg, policies);
        assert!(matches!(built, Err(SimError::BadLaunch(e)) if e.contains("low_water")));
    }

    #[test]
    fn initial_limit_is_clamped_into_bounds() {
        let limit = |sched| {
            let (mut sim, shared, cfg) = setup(1 << 6);
            let stm = scheduled(&mut sim, LockStm::hv_sorting(shared, cfg), cfg, sched);
            stm.checkpoint().expect("admission is on").limit
        };
        let sched = SchedulerConfig {
            initial_limit: 1 << 30,
            max_limit: 128,
            ..SchedulerConfig::default()
        };
        assert_eq!(limit(sched), 128);

        let sched =
            SchedulerConfig { initial_limit: 1, min_limit: 16, ..SchedulerConfig::default() };
        assert_eq!(limit(sched), 16);
    }

    /// Drives `SchedState::record` directly to pin the window-boundary
    /// semantics: adaptation happens exactly when the attempt count
    /// reaches the window, never before, and the counters reset after.
    #[test]
    fn adaptation_fires_exactly_at_window_boundary() {
        let cfg = SchedulerConfig { window: 10, ..SchedulerConfig::default() };
        let mut st = SchedState { limit: 64, ..SchedState::new(cfg) };
        st.record(9, 0); // one short of the window
        assert_eq!(st.adaptations, 0);
        assert_eq!(st.limit, 64, "no adaptation before the boundary");
        st.record(1, 0); // 10th attempt: zero-abort window -> slow-start
        assert_eq!(st.adaptations, 1);
        assert_eq!(st.limit, 128);
        assert_eq!(st.window_commits + st.window_aborts, 0, "window must reset");
        // A single record() overshooting the window still counts once.
        st.record(25, 0);
        assert_eq!(st.adaptations, 2);
    }

    #[test]
    fn record_clamps_at_both_limits_and_flags_storms() {
        let cfg = SchedulerConfig {
            min_limit: 8,
            max_limit: 32,
            window: 4,
            ..SchedulerConfig::default()
        };
        let mut st = SchedState { limit: 8, ..SchedState::new(cfg) };
        // All-abort windows: halving must not go below min_limit, and the
        // storm flag must latch on.
        st.record(0, 4);
        assert_eq!(st.limit, 8);
        assert!(st.storm, "an all-abort window is a storm");
        // Clean windows: doubling saturates at max_limit and clears storm.
        for _ in 0..4 {
            st.record(4, 0);
        }
        assert_eq!(st.limit, 32);
        assert!(!st.storm, "clean windows must clear the storm flag");
    }

    #[test]
    fn limit_respects_floor() {
        let cfg = SchedulerConfig {
            initial_limit: 16,
            min_limit: 8,
            window: 32,
            ..SchedulerConfig::default()
        };
        let (stm, total, expected) = run_contended(cfg, 1, LaunchConfig::new(4, 64), 2);
        assert_eq!(total, expected);
        assert!(stm.limit >= 8);
    }
}
