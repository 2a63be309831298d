//! The schedule controller: a [`SchedulePolicy`] that replays a *forced
//! prefix* of scheduling choices and then follows a deterministic default
//! continuation, recording per-decision state for the explorer's
//! backtrack generation.
//!
//! A schedule is identified not by the full pick sequence (which can run
//! to tens of thousands of decisions) but by the short list of
//! [`ForcedChoice`]s where it deviates from the default continuation.
//! Because the default continuation is a pure function of the decision
//! history, `(forced choices, model) → execution` is deterministic, which
//! is what makes stateless replay — and `.sched` repro files — possible.

use gpu_sim::{RunnableWarp, SchedulePolicy, StepEffect, StepRecord};
use std::ops::Range;

/// Identity of a warp: `(block, warp_in_block)`.
pub type WarpKey = (u32, u32);

/// After this many consecutive picks of the same warp the default
/// continuation involuntarily yields to the next warp (round-robin).
///
/// This is what rescues benign spins — a transaction polling a lock held
/// by a suspended warp — without counting a preemption: the switch is
/// part of the *default* policy, so CHESS-style preemption bounding only
/// charges for forced mid-run switches.
pub const SPIN_YIELD_STEPS: u32 = 256;

/// The default continuation also yields once the current warp has held
/// the simulator clock for this many cycles, even before
/// [`SPIN_YIELD_STEPS`] instructions.
///
/// Spin loops with exponential backoff advance the clock by thousands of
/// cycles per instruction; a purely step-counted quantum would let a
/// single spinning warp monopolise hundreds of thousands of cycles while
/// the lock holder sits unscheduled, tripping the simulator's stall
/// watchdog on perfectly healthy code. Cycle-bounding the quantum keeps
/// every warp's scheduling latency well inside the stall window, so the
/// watchdog only fires on genuine deadlock/livelock.
pub const SPIN_YIELD_CYCLES: u64 = 10_000;

/// One deviation from the default continuation: at decision index
/// `decision`, pick `warp` instead of whatever the default would pick.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ForcedChoice {
    /// Zero-based index into the run's sequence of scheduling decisions.
    pub decision: u64,
    /// The warp to force at that decision.
    pub warp: WarpKey,
}

/// A complete schedule: the forced choices (sorted by decision index)
/// plus the implicit default continuation everywhere else.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Deviations from the default continuation, sorted by `decision`.
    pub choices: Vec<ForcedChoice>,
}

/// One *visible* memory event of the executed trace.
#[derive(Clone, Debug)]
pub struct Event {
    /// The warp that issued the instruction.
    pub warp: WarpKey,
    /// Its shared-memory effect.
    pub effect: StepEffect,
    /// The decision index at which it was scheduled.
    pub decision: u64,
}

/// What the controller knew at one scheduling decision — the raw material
/// for constructing backtrack schedules.
#[derive(Clone, Debug)]
pub struct DecisionRecord {
    /// Where the warps runnable at this decision, sorted by identity, sit
    /// in the run's pool; read them with [`Controller::runnable`].
    pub runnable: Range<usize>,
    /// The warp that ran the previous instruction, if still alive.
    pub current_before: Option<WarpKey>,
    /// The warp actually picked.
    pub chosen: WarpKey,
    /// The warp the default continuation would have picked.
    pub default_choice: WarpKey,
    /// Preemptions charged strictly before this decision.
    pub preemptions_before: u32,
    /// Whether the default continuation would have involuntarily yielded
    /// here ([`SPIN_YIELD_STEPS`] or [`SPIN_YIELD_CYCLES`] reached) —
    /// switching away is then free.
    pub spin_yield: bool,
}

/// Per-warp provably-private address regions, from the TXL footprint
/// analysis: accesses falling entirely inside the owning warp's regions
/// are *invisible* — they cannot conflict with any other warp, so the
/// explorer neither traces them nor branches on their order.
#[derive(Clone, Debug, Default)]
pub struct FootprintFilter {
    regions: Vec<(WarpKey, Vec<(gpu_sim::Addr, gpu_sim::Addr)>)>,
}

impl FootprintFilter {
    /// Builds a filter from per-warp inclusive address intervals.
    ///
    /// Returns `None` when any two warps' regions overlap — the analysis
    /// then proves nothing and filtering would be unsound.
    pub fn new(regions: Vec<(WarpKey, Vec<(gpu_sim::Addr, gpu_sim::Addr)>)>) -> Option<Self> {
        for (i, (wa, ra)) in regions.iter().enumerate() {
            for (wb, rb) in regions.iter().skip(i + 1) {
                if wa == wb {
                    return None; // one region list per warp, by construction
                }
                for &(alo, ahi) in ra {
                    for &(blo, bhi) in rb {
                        if alo <= bhi && blo <= ahi {
                            return None;
                        }
                    }
                }
            }
        }
        Some(FootprintFilter { regions })
    }

    /// Whether `effect`, issued by `warp`, is provably private to it.
    pub fn invisible(&self, warp: WarpKey, effect: &StepEffect) -> bool {
        match effect {
            StepEffect::Local | StepEffect::Retire | StepEffect::Fence => false,
            _ => {
                let Some((_, regions)) = self.regions.iter().find(|(w, _)| *w == warp) else {
                    return false;
                };
                let addrs = effect.addrs();
                !addrs.is_empty()
                    && addrs.iter().all(|a| regions.iter().any(|&(lo, hi)| lo <= *a && *a <= hi))
            }
        }
    }
}

/// The policy driven by the explorer: forced-prefix replay + default
/// continuation, with full decision/trace recording.
#[derive(Debug)]
pub struct Controller {
    forced: Vec<ForcedChoice>,
    next_forced: usize,
    decision: u64,
    current: Option<WarpKey>,
    consecutive: u32,
    quantum_start: u64,
    preemptions: u32,
    filter: Option<FootprintFilter>,
    /// Whether a forced choice named a warp that was not runnable —
    /// replay drifted off the recorded execution (should not happen for
    /// schedules generated by the explorer).
    pub diverged: bool,
    /// One record per scheduling decision, in order.
    pub decisions: Vec<DecisionRecord>,
    /// Every decision's runnable set, back to back.
    runnable_pool: Vec<WarpKey>,
    /// The forced choices that actually *diverged* from the default
    /// continuation this run. A forced choice matching the default pick
    /// is a no-op — dropping it replays identically — so backtrack
    /// schedules are built from this canonical list, which keeps
    /// generations of backtracking from accumulating dead choices.
    pub effective: Vec<ForcedChoice>,
    /// The visible memory-event trace.
    pub trace: Vec<Event>,
    /// Events demoted to invisible by the footprint filter.
    pub invisible_pruned: u64,
}

impl Controller {
    /// Creates a controller replaying `schedule` under an optional
    /// footprint filter.
    pub fn new(schedule: Schedule, filter: Option<FootprintFilter>) -> Self {
        let mut forced = schedule.choices;
        forced.sort_by_key(|c| c.decision);
        Controller {
            forced,
            next_forced: 0,
            decision: 0,
            current: None,
            consecutive: 0,
            quantum_start: 0,
            preemptions: 0,
            filter,
            diverged: false,
            decisions: Vec::new(),
            runnable_pool: Vec::new(),
            effective: Vec::new(),
            trace: Vec::new(),
            invisible_pruned: 0,
        }
    }

    /// Preemptions charged over the whole run.
    pub fn preemptions(&self) -> u32 {
        self.preemptions
    }

    /// The warps that were runnable at `rec`, sorted by identity.
    pub fn runnable(&self, rec: &DecisionRecord) -> &[WarpKey] {
        &self.runnable_pool[rec.runnable.clone()]
    }

    /// The deterministic default continuation: keep running the current
    /// warp; at [`SPIN_YIELD_STEPS`] yield round-robin to the next warp;
    /// with no current warp (start, or after a retire) take the first.
    fn default_pick(&self, keys: &[WarpKey], spin_yield: bool) -> usize {
        match self.current {
            Some(c) => match keys.iter().position(|&k| k == c) {
                Some(i) if !spin_yield => i,
                Some(i) => (i + 1) % keys.len(),
                // Current warp vanished without a Retire (defensive):
                // resume at its successor in identity order.
                None => keys.iter().position(|&k| k > c).unwrap_or(0),
            },
            None => 0,
        }
    }
}

impl SchedulePolicy for Controller {
    fn pick(&mut self, now: u64, runnable: &[RunnableWarp]) -> usize {
        let start = self.runnable_pool.len();
        self.runnable_pool.extend(runnable.iter().map(|r| (r.block, r.warp_in_block)));
        let keys = &self.runnable_pool[start..];
        let spin_yield = self.current.is_some()
            && (self.consecutive >= SPIN_YIELD_STEPS
                || now.saturating_sub(self.quantum_start) >= SPIN_YIELD_CYCLES);

        let default_idx = self.default_pick(keys, spin_yield);
        let mut idx = None;
        if let Some(fc) = self.forced.get(self.next_forced) {
            if fc.decision == self.decision {
                self.next_forced += 1;
                match keys.iter().position(|&k| k == fc.warp) {
                    Some(i) => {
                        if i != default_idx {
                            self.effective.push(*fc);
                        }
                        idx = Some(i);
                    }
                    None => self.diverged = true,
                }
            }
        }
        let idx = idx.unwrap_or(default_idx);
        let chosen = keys[idx];

        let preemptions_before = self.preemptions;
        if let Some(c) = self.current {
            if !spin_yield {
                // A switch away from a still-runnable current warp is a
                // preemption.
                if chosen != c && keys.contains(&c) {
                    self.preemptions += 1;
                }
            } else if idx != default_idx {
                // Fairness charge: at an involuntary yield the default
                // rotates round-robin, and *any* forced deviation —
                // staying on the spinning warp, or redirecting the
                // rotation past its target — starves somebody. Left
                // free, the explorer chains such deviations into an
                // unbounded starvation schedule and reports "livelock"
                // on perfectly healthy lock implementations (or parks a
                // preempted lock holder forever). Charged, monopolies
                // stay finite: the demonic-but-fair scheduler of CHESS.
                self.preemptions += 1;
            }
        }
        let default_choice = keys[default_idx];
        self.decisions.push(DecisionRecord {
            runnable: start..self.runnable_pool.len(),
            current_before: self.current,
            chosen,
            default_choice,
            preemptions_before,
            spin_yield,
        });

        if self.current == Some(chosen) {
            if spin_yield {
                // Yield came due but the pick stayed (e.g. only this warp
                // is runnable): start a fresh quantum rather than
                // re-yielding every step.
                self.consecutive = 1;
                self.quantum_start = now;
            } else {
                self.consecutive += 1;
            }
        } else {
            self.current = Some(chosen);
            self.consecutive = 1;
            self.quantum_start = now;
        }
        self.decision += 1;
        idx
    }

    fn observe(&mut self, step: StepRecord) {
        let warp = (step.block, step.warp_in_block);
        match step.effect {
            StepEffect::Retire => {
                if self.current == Some(warp) {
                    self.current = None;
                    self.consecutive = 0;
                }
            }
            StepEffect::Local => {}
            eff => {
                if let Some(f) = &self.filter {
                    if f.invisible(warp, &eff) {
                        self.invisible_pruned += 1;
                        return;
                    }
                }
                // `pick` already advanced the counter for this step.
                let decision = self.decision.saturating_sub(1);
                self.trace.push(Event { warp, effect: eff, decision });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Addr;

    fn runnable(keys: &[WarpKey]) -> Vec<RunnableWarp> {
        keys.iter().map(|&(b, w)| RunnableWarp { block: b, warp_in_block: w, ready: 0 }).collect()
    }

    #[test]
    fn default_continuation_sticks_to_current_then_yields() {
        let mut c = Controller::new(Schedule::default(), None);
        let r = runnable(&[(0, 0), (0, 1)]);
        assert_eq!(c.pick(0, &r), 0);
        for _ in 0..SPIN_YIELD_STEPS - 1 {
            assert_eq!(c.pick(0, &r), 0);
        }
        // Quantum exhausted: involuntary round-robin yield, not a preemption.
        assert_eq!(c.pick(0, &r), 1);
        assert_eq!(c.preemptions(), 0);
    }

    #[test]
    fn forced_choice_counts_a_preemption() {
        let sched = Schedule { choices: vec![ForcedChoice { decision: 2, warp: (0, 1) }] };
        let mut c = Controller::new(sched, None);
        let r = runnable(&[(0, 0), (0, 1)]);
        assert_eq!(c.pick(0, &r), 0);
        assert_eq!(c.pick(0, &r), 0);
        assert_eq!(c.pick(0, &r), 1); // forced switch away from runnable current
        assert_eq!(c.preemptions(), 1);
        assert!(!c.diverged);
        assert_eq!(c.decisions[2].preemptions_before, 0);
        assert_eq!(c.decisions[2].chosen, (0, 1));
    }

    #[test]
    fn deviating_from_the_rotation_at_a_yield_is_charged() {
        // At an involuntary yield the default rotates (0,0) -> (0,1);
        // forcing the rotation past its target to (0,2) starves (0,1)
        // and must cost a preemption, or chains of free redirects could
        // starve one warp forever.
        let sched = Schedule {
            choices: vec![ForcedChoice { decision: u64::from(SPIN_YIELD_STEPS), warp: (0, 2) }],
        };
        let mut c = Controller::new(sched, None);
        let r = runnable(&[(0, 0), (0, 1), (0, 2)]);
        for _ in 0..SPIN_YIELD_STEPS {
            assert_eq!(c.pick(0, &r), 0);
        }
        assert_eq!(c.pick(0, &r), 2);
        assert_eq!(c.preemptions(), 1);
        let rec = c.decisions.last().expect("recorded");
        assert!(rec.spin_yield);
        assert_eq!(rec.default_choice, (0, 1));
    }

    #[test]
    fn forcing_at_decision_zero_is_free() {
        let sched = Schedule { choices: vec![ForcedChoice { decision: 0, warp: (0, 1) }] };
        let mut c = Controller::new(sched, None);
        let r = runnable(&[(0, 0), (0, 1)]);
        assert_eq!(c.pick(0, &r), 1);
        assert_eq!(c.preemptions(), 0);
    }

    #[test]
    fn retire_clears_current_and_trace_skips_local() {
        let mut c = Controller::new(Schedule::default(), None);
        let r = runnable(&[(0, 0), (0, 1)]);
        c.pick(0, &r);
        c.observe(StepRecord { block: 0, warp_in_block: 0, effect: StepEffect::Local });
        c.observe(StepRecord {
            block: 0,
            warp_in_block: 0,
            effect: StepEffect::Store(vec![Addr(7)]),
        });
        c.observe(StepRecord { block: 0, warp_in_block: 0, effect: StepEffect::Retire });
        assert_eq!(c.trace.len(), 1);
        assert_eq!(c.trace[0].decision, 0);
        // After retire the default continuation starts the next warp.
        assert_eq!(c.pick(0, &runnable(&[(0, 1)])), 0);
        assert_eq!(c.preemptions(), 0);
    }

    #[test]
    fn footprint_filter_demotes_private_accesses() {
        let f = FootprintFilter::new(vec![
            ((0, 0), vec![(Addr(10), Addr(13))]),
            ((1, 0), vec![(Addr(14), Addr(17))]),
        ])
        .expect("disjoint");
        assert!(f.invisible((0, 0), &StepEffect::Store(vec![Addr(10), Addr(12)])));
        assert!(!f.invisible((0, 0), &StepEffect::Store(vec![Addr(14)])));
        assert!(!f.invisible((1, 0), &StepEffect::Fence));
        assert!(!f.invisible((2, 0), &StepEffect::Load(vec![Addr(10)])));
    }

    #[test]
    fn overlapping_footprints_are_rejected() {
        assert!(FootprintFilter::new(vec![
            ((0, 0), vec![(Addr(10), Addr(14))]),
            ((1, 0), vec![(Addr(14), Addr(17))]),
        ])
        .is_none());
    }
}
