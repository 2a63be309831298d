//! Dynamic partial-order reduction over the schedule space.
//!
//! The explorer repeatedly runs a *model* — a closure that executes one
//! complete simulation under a given [`PolicyHandle`] and reports the
//! checked outcome — under different [`Schedule`]s. After each run it
//! performs a happens-before analysis of the visible memory trace
//! (program order + conflict edges, per the independence relation of
//! [`StepEffect::conflicts`](gpu_sim::StepEffect::conflicts)) and, for
//! every *racing pair* of events whose order is not already forced,
//! queues a backtrack schedule that flips the pair. Done-sets (the
//! persistent-set bookkeeping) and schedule/trace hashing keep the search
//! from revisiting equivalent interleavings; iterative preemption
//! bounding (CHESS) explores all 0-preemption schedules, then 1, then 2…
//! so the cheapest witnesses surface first.

use crate::controller::{Controller, Event, FootprintFilter, ForcedChoice, Schedule, WarpKey};
/// FNV-1a, used for all exploration-internal hashing (deterministic
/// across runs and platforms, with no dependency on hasher seeding).
pub use gpu_sim::rng::Fnv;
use gpu_sim::PolicyHandle;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Classification of a property violation found in one explored run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The recorded transaction history is not opaque-serializable.
    Opacity,
    /// The happens-before race detector flagged unordered conflicting
    /// non-speculative accesses.
    Race,
    /// Final device memory disagrees with the committed history.
    FinalState,
    /// The workload's own invariant did not hold.
    Invariant,
    /// The run deadlocked (no progress, memory quiescent).
    Deadlock,
    /// The run livelocked (no progress, memory still churning).
    Livelock,
    /// Any other simulator-level failure.
    Sim,
}

impl ViolationKind {
    /// Whether this is a progress failure (deadlock or livelock). The two
    /// are a heuristic split of the same watchdog signal — "was device
    /// memory still churning when the stall fired" — and can flip into
    /// each other under small schedule perturbations.
    pub fn is_progress_failure(self) -> bool {
        matches!(self, ViolationKind::Deadlock | ViolationKind::Livelock)
    }

    /// Whether a violation of kind `other` counts as reproducing this
    /// one: exact match, except the two progress-failure kinds are
    /// interchangeable.
    pub fn matches(self, other: ViolationKind) -> bool {
        self == other || (self.is_progress_failure() && other.is_progress_failure())
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::Opacity => "opacity",
            ViolationKind::Race => "race",
            ViolationKind::FinalState => "final-state",
            ViolationKind::Invariant => "invariant",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Sim => "sim",
        };
        f.write_str(s)
    }
}

/// One violation reported by the model for one run.
#[derive(Clone, Debug)]
pub struct ModelViolation {
    /// What property failed.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub message: String,
}

/// The checked outcome of one complete run of the model.
#[derive(Clone, Debug, Default)]
pub struct ModelOutcome {
    /// Violations found by the end-of-run checkers.
    pub violations: Vec<ModelViolation>,
    /// Hash of the observable terminal state (for state dedup).
    pub state_hash: u64,
    /// Set when the variant cannot run this configuration at all.
    pub unsupported: Option<String>,
}

/// A violation together with the schedule that produced it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violation.
    pub violation: ModelViolation,
    /// The forced-choice schedule reproducing it.
    pub schedule: Schedule,
    /// Preemptions that schedule charges.
    pub preemptions: u32,
}

/// Exploration limits and options.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Preemption bound: schedules charging more are not run.
    pub max_preemptions: u32,
    /// Hard cap on runs (0 = unlimited); exceeding it sets
    /// [`ExploreStats::cap_hit`].
    pub max_schedules: u64,
    /// Stop as soon as the first finding is recorded (witness hunting).
    pub stop_on_finding: bool,
    /// Optional per-warp private-region filter from the TXL footprint
    /// analysis.
    pub footprints: Option<FootprintFilter>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_preemptions: 2,
            max_schedules: 10_000,
            stop_on_finding: false,
            footprints: None,
        }
    }
}

/// Counters describing one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Schedules actually executed.
    pub schedules_run: u64,
    /// Runs whose visible trace had been seen before (checks skipped).
    pub traces_deduped: u64,
    /// Distinct traces that still reached an already-seen terminal state.
    pub states_deduped: u64,
    /// Backtrack schedules queued for execution.
    pub backtracks_queued: u64,
    /// Backtracks dropped for exceeding the preemption bound.
    pub backtracks_deferred: u64,
    /// Backtrack candidates pruned by done-sets (sleep-set analogue).
    pub sleep_pruned: u64,
    /// Backtracks dropped because the schedule itself was already seen.
    pub schedules_deduped: u64,
    /// Memory events demoted to invisible by the footprint filter.
    pub footprint_invisible_events: u64,
    /// Runs where a forced choice failed to replay (should stay 0).
    pub diverged: u64,
    /// Longest visible trace observed.
    pub max_trace_len: usize,
    /// Whether `max_schedules` stopped the search early.
    pub cap_hit: bool,
}

/// The result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Search counters.
    pub stats: ExploreStats,
    /// Violations found, each with its reproducing schedule. Deduped by
    /// terminal state: one representative schedule per distinct bad state.
    pub findings: Vec<Finding>,
    /// Set when the very first run reported the configuration unsupported.
    pub unsupported: Option<String>,
}

impl ExploreReport {
    /// Whether the explored space is violation-free.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn effect_tag(e: &gpu_sim::StepEffect) -> u32 {
    use gpu_sim::StepEffect::*;
    match e {
        Local => 0,
        Load(_) => 1,
        Store(_) => 2,
        Atomic(_) => 3,
        Fence => 4,
        Retire => 5,
    }
}

fn trace_hash(trace: &[Event]) -> u64 {
    let mut h = Fnv::new();
    for e in trace {
        h.u32(e.warp.0);
        h.u32(e.warp.1);
        h.u32(effect_tag(&e.effect));
        for a in e.effect.addrs() {
            h.u32(a.0);
        }
    }
    h.finish()
}

fn schedule_hash(choices: &[ForcedChoice]) -> u64 {
    let mut h = Fnv::new();
    for c in choices {
        h.u64(c.decision);
        h.u32(c.warp.0);
        h.u32(c.warp.1);
    }
    h.finish()
}

/// A vector clock counting, per warp index, how many of that warp's
/// visible events happen-before the point it describes.
type Clock = Vec<u64>;

fn clock_le(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn clock_join(into: &mut Clock, from: &Clock) {
    for (x, y) in into.iter_mut().zip(from) {
        *x = (*x).max(*y);
    }
}

/// Explores the model's schedule space and reports findings + statistics.
///
/// `run` executes one full simulation under the given policy handle and
/// returns its checked outcome; it must be deterministic given the
/// schedule (fresh simulator per call, same allocation order).
pub fn explore(
    cfg: &ExploreConfig,
    mut run: impl FnMut(PolicyHandle) -> ModelOutcome,
) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut unsupported = None;

    let nbounds = cfg.max_preemptions as usize + 1;
    // One queue per preemption count; the bucket index is the charge.
    let mut pending: Vec<VecDeque<Schedule>> = (0..nbounds).map(|_| VecDeque::new()).collect();
    pending[0].push_back(Schedule::default());

    let mut seen_schedules: HashSet<u64> = HashSet::new();
    seen_schedules.insert(schedule_hash(&[]));
    let mut seen_traces: HashSet<u64> = HashSet::new();
    let mut seen_states: HashSet<u64> = HashSet::new();
    // Persistent-set bookkeeping: for each (forced prefix, decision)
    // pair, the warps already scheduled there.
    let mut done_sets: HashMap<u64, HashSet<WarpKey>> = HashMap::new();

    'bounds: for bound in 0..nbounds {
        while let Some(p) = pending[bound].pop_front() {
            if cfg.max_schedules > 0 && stats.schedules_run >= cfg.max_schedules {
                stats.cap_hit = true;
                break 'bounds;
            }
            let ctl = Rc::new(RefCell::new(Controller::new(p, cfg.footprints.clone())));
            let outcome = run(PolicyHandle::shared(ctl.clone()));
            stats.schedules_run += 1;

            let ctl = ctl.borrow();
            stats.footprint_invisible_events += ctl.invisible_pruned;
            stats.max_trace_len = stats.max_trace_len.max(ctl.trace.len());
            if ctl.diverged {
                stats.diverged += 1;
            }
            if let Some(u) = outcome.unsupported {
                // The model cannot run this configuration at all; the
                // very first run already tells us.
                unsupported = Some(u);
                break 'bounds;
            }

            if !seen_traces.insert(trace_hash(&ctl.trace)) {
                stats.traces_deduped += 1;
                continue;
            }
            if seen_states.insert(outcome.state_hash) {
                for v in outcome.violations {
                    // Witness with the canonical (diverging-only) choice
                    // list: it replays identically and is far shorter
                    // than the raw accumulated schedule.
                    findings.push(Finding {
                        violation: v,
                        schedule: Schedule { choices: ctl.effective.clone() },
                        preemptions: ctl.preemptions(),
                    });
                }
                if cfg.stop_on_finding && !findings.is_empty() {
                    break 'bounds;
                }
            } else {
                stats.states_deduped += 1;
            }

            generate_backtracks(
                &ctl,
                &mut stats,
                &mut pending,
                &mut seen_schedules,
                &mut done_sets,
            );
        }
    }

    ExploreReport { stats, findings, unsupported }
}

/// Happens-before analysis of one executed trace; every racing pair
/// spawns a backtrack schedule flipping it.
fn generate_backtracks(
    ctl: &Controller,
    stats: &mut ExploreStats,
    pending: &mut [VecDeque<Schedule>],
    seen_schedules: &mut HashSet<u64>,
    done_sets: &mut HashMap<u64, HashSet<WarpKey>>,
) {
    let trace = &ctl.trace;
    if trace.is_empty() {
        return;
    }

    // Warp index assignment for vector clocks.
    let mut warp_ix: HashMap<WarpKey, usize> = HashMap::new();
    for e in trace {
        let n = warp_ix.len();
        warp_ix.entry(e.warp).or_insert(n);
    }
    let nwarps = warp_ix.len();

    // `warp_clock[w]`: the HB clock inherited by w's next event (program
    // order). `post[j]`: event j's HB clock including j itself.
    let mut warp_clock: Vec<Clock> = vec![vec![0; nwarps]; nwarps];
    let mut post: Vec<Clock> = Vec::with_capacity(trace.len());
    let mut races: Vec<(usize, usize)> = Vec::new();

    for j in 0..trace.len() {
        let wj = warp_ix[&trace[j].warp];
        // Scan earlier conflicting events newest-first, accumulating
        // their clocks: an event already covered by the accumulated
        // clock is HB-ordered (possibly through an intermediary) and is
        // not a race.
        let mut acc = warp_clock[wj].clone();
        for i in (0..j).rev() {
            if trace[i].warp == trace[j].warp || !trace[i].effect.conflicts(&trace[j].effect) {
                continue;
            }
            if !clock_le(&post[i], &acc) {
                races.push((i, j));
            }
            clock_join(&mut acc, &post[i]);
        }
        acc[wj] += 1;
        warp_clock[wj] = acc.clone();
        post.push(acc);
    }

    for (i, j) in races {
        let d = trace[i].decision;
        let rec = &ctl.decisions[d as usize];
        let wj = trace[j].warp;
        // Schedule the second event's warp at the first event's decision
        // point; if it was somehow not runnable there, fall back to every
        // alternative (classic DPOR's pessimistic backtrack set).
        let candidates: Vec<WarpKey> = if rec.runnable.contains(&wj) {
            vec![wj]
        } else {
            rec.runnable.iter().copied().filter(|&k| k != rec.chosen).collect()
        };
        let prefix: Vec<ForcedChoice> =
            ctl.effective.iter().copied().filter(|c| c.decision < d).collect();
        let done_key = {
            let mut h = Fnv::new();
            h.u64(schedule_hash(&prefix));
            h.u64(d);
            h.finish()
        };
        let done = done_sets.entry(done_key).or_insert_with(|| HashSet::from([rec.chosen]));
        for w in candidates {
            if !done.insert(w) {
                stats.sleep_pruned += 1;
                continue;
            }
            let mut choices = prefix.clone();
            choices.push(ForcedChoice { decision: d, warp: w });
            if !seen_schedules.insert(schedule_hash(&choices)) {
                stats.schedules_deduped += 1;
                continue;
            }
            // Mirrors the controller's charging rule: a switch away from
            // a runnable current warp, or any deviation from the
            // round-robin target at an involuntary yield (the fairness
            // charge), costs one.
            let extra = match rec.current_before {
                Some(c) if !rec.spin_yield => u32::from(c != w && rec.runnable.contains(&c)),
                Some(_) => u32::from(w != rec.default_choice),
                None => 0,
            };
            let preemptions = rec.preemptions_before + extra;
            if (preemptions as usize) < pending.len() {
                pending[preemptions as usize].push_back(Schedule { choices });
                stats.backtracks_queued += 1;
            } else {
                stats.backtracks_deferred += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::StepEffect;

    #[test]
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = Fnv::new();
        a.u32(1);
        a.u32(2);
        let mut b = Fnv::new();
        b.u32(2);
        b.u32(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.u32(1);
        c.u32(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn trace_hash_distinguishes_orders() {
        let load = |w: u32| Event {
            warp: (0, w),
            effect: StepEffect::Store(vec![gpu_sim::Addr(5)]),
            decision: 0,
        };
        let t1 = [load(0), load(1)];
        let t2 = [load(1), load(0)];
        assert_ne!(trace_hash(&t1), trace_hash(&t2));
    }

    #[test]
    fn clock_ops() {
        let a = vec![1, 2, 0];
        let b = vec![1, 3, 0];
        assert!(clock_le(&a, &b));
        assert!(!clock_le(&b, &a));
        let mut c = a.clone();
        clock_join(&mut c, &b);
        assert_eq!(c, vec![1, 3, 0]);
    }
}
