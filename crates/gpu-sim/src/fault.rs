//! Deterministic fault injection (seed-controlled adversarial execution).
//!
//! A GPU gives no scheduling guarantees: warps interleave arbitrarily,
//! memory latencies vary with contention, and atomics may fail spuriously
//! on some architectures. The simulator's determinism is what makes
//! correctness checking exact, but it also means each run explores exactly
//! one interleaving. A [`FaultPlan`] re-introduces the adversity *under
//! seed control*: every perturbation is drawn from a splitmix64 stream, so
//! a run with a given plan is still fully reproducible while exploring a
//! different (and deliberately hostile) schedule.
//!
//! Three perturbations are available, individually or combined:
//!
//! - **Schedule shuffle** — warps that become ready at the same cycle are
//!   dispatched in seeded-random order instead of FIFO issue order,
//!   breaking the round-robin tie-breaking that real hardware does not
//!   promise.
//! - **Latency jitter** — every warp-instruction latency gains a random
//!   extra delay in `[0, latency_jitter]` cycles, desynchronising warps
//!   the way DRAM contention and partition camping do.
//! - **Spurious CAS failure** — a compare-and-swap that would have
//!   succeeded instead fails (no store; a reported old value different
//!   from `cmp`) with probability `cas_fail_num / cas_fail_den` per lane.
//!   The same injection covers `Or`-based atomic test-and-set — the
//!   lock-acquisition idiom of the STM's version locks — by reporting
//!   the requested bits as already held without storing. Failures are
//!   always *conservative*: a victim retries or aborts, so correctness
//!   invariants (e.g. STM opacity) must survive, which is exactly what
//!   the stress harness asserts.

use crate::rng::splitmix64;

/// Seed-controlled fault-injection configuration, part of
/// [`SimConfig`](crate::SimConfig).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every perturbation stream. Two runs with equal plans are
    /// identical.
    pub seed: u64,
    /// Dispatch same-cycle warps in seeded-random order instead of FIFO.
    pub shuffle_schedule: bool,
    /// Maximum extra latency (cycles) added to each warp instruction;
    /// 0 disables jitter.
    pub latency_jitter: u64,
    /// Numerator of the per-lane spurious atomic-failure probability
    /// (applies to CAS and to `Or`-based test-and-set).
    pub cas_fail_num: u32,
    /// Denominator of the failure probability; must be non-zero.
    pub cas_fail_den: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults: the unperturbed deterministic schedule.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            shuffle_schedule: false,
            latency_jitter: 0,
            cas_fail_num: 0,
            cas_fail_den: 1,
        }
    }

    /// Seeded shuffle of same-cycle warp dispatch order.
    pub const fn schedule_shuffle(seed: u64) -> Self {
        FaultPlan { seed, shuffle_schedule: true, ..FaultPlan::none() }
    }

    /// Seeded per-instruction latency jitter of up to `max_extra` cycles.
    pub const fn latency_jitter(seed: u64, max_extra: u64) -> Self {
        FaultPlan { seed, latency_jitter: max_extra, ..FaultPlan::none() }
    }

    /// Seeded spurious CAS failures at rate `num / den` per lane.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    pub const fn cas_failures(seed: u64, num: u32, den: u32) -> Self {
        assert!(den != 0, "cas_fail_den must be non-zero");
        assert!(num <= den, "failure probability must be at most 1");
        FaultPlan { seed, cas_fail_num: num, cas_fail_den: den, ..FaultPlan::none() }
    }

    /// Whether any perturbation is enabled.
    pub const fn is_active(&self) -> bool {
        self.shuffle_schedule || self.latency_jitter > 0 || self.cas_fail_num > 0
    }
}

/// Per-launch mutable fault state: the plan plus independent RNG streams
/// for each perturbation (so enabling one does not shift another's draws).
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    jitter_rng: u64,
    cas_rng: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            jitter_rng: plan.seed ^ 0x6a09_e667_f3bc_c908, // sqrt(2) bits
            cas_rng: plan.seed ^ 0xbb67_ae85_84ca_a73b,    // sqrt(3) bits
        }
    }

    /// Extra latency for one warp instruction, in `[0, latency_jitter]`.
    pub(crate) fn jitter(&mut self) -> u64 {
        if self.plan.latency_jitter == 0 {
            return 0;
        }
        splitmix64(&mut self.jitter_rng) % (self.plan.latency_jitter + 1)
    }

    /// Whether the next CAS lane-operation should fail spuriously.
    pub(crate) fn cas_should_fail(&mut self) -> bool {
        if self.plan.cas_fail_num == 0 {
            return false;
        }
        (splitmix64(&mut self.cas_rng) % self.plan.cas_fail_den as u64)
            < self.plan.cas_fail_num as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        let mut st = FaultState::new(p);
        for _ in 0..100 {
            assert_eq!(st.jitter(), 0);
            assert!(!st.cas_should_fail());
        }
    }

    #[test]
    fn constructors_enable_exactly_one_fault() {
        assert!(FaultPlan::schedule_shuffle(1).shuffle_schedule);
        assert_eq!(FaultPlan::schedule_shuffle(1).latency_jitter, 0);
        assert_eq!(FaultPlan::latency_jitter(1, 64).latency_jitter, 64);
        assert!(!FaultPlan::latency_jitter(1, 64).shuffle_schedule);
        let c = FaultPlan::cas_failures(1, 1, 8);
        assert_eq!((c.cas_fail_num, c.cas_fail_den), (1, 8));
        assert!(c.is_active());
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let draw = || {
            let mut st = FaultState::new(FaultPlan::latency_jitter(42, 10));
            (0..1000).map(|_| st.jitter()).collect::<Vec<_>>()
        };
        let a = draw();
        assert_eq!(a, draw());
        assert!(a.iter().all(|&j| j <= 10));
        assert!(a.iter().any(|&j| j > 0));
    }

    #[test]
    fn cas_failure_rate_roughly_matches() {
        let mut st = FaultState::new(FaultPlan::cas_failures(7, 1, 4));
        let fails = (0..4000).filter(|_| st.cas_should_fail()).count();
        // 1/4 of 4000 = 1000; allow a broad deterministic tolerance.
        assert!((700..1300).contains(&fails), "fails = {fails}");
    }

    #[test]
    fn streams_are_independent() {
        // Enabling jitter must not change the CAS stream for the same seed.
        let mut only_cas = FaultState::new(FaultPlan::cas_failures(9, 1, 2));
        let mut both =
            FaultState::new(FaultPlan { latency_jitter: 5, ..FaultPlan::cas_failures(9, 1, 2) });
        for _ in 0..100 {
            let _ = both.jitter();
            assert_eq!(only_cas.cas_should_fail(), both.cas_should_fail());
        }
    }

    #[test]
    #[should_panic(expected = "cas_fail_den")]
    fn zero_denominator_rejected() {
        let _ = FaultPlan::cas_failures(0, 1, 0);
    }
}
