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

/// Folds one forced choice into a schedule hash.
fn hash_choice(h: &mut Fnv, c: ForcedChoice) {
    h.u64(c.decision);
    h.u32(c.warp.0);
    h.u32(c.warp.1);
}

fn schedule_hash(choices: &[ForcedChoice]) -> u64 {
    let mut h = Fnv::new();
    for &c in choices {
        hash_choice(&mut h, c);
    }
    h.finish()
}

/// What the search carries from run to run besides its counters.
#[derive(Clone, Debug, PartialEq)]
struct Frontier {
    /// One queue per preemption count; the bucket index is the charge.
    pending: Vec<VecDeque<Schedule>>,
    seen_schedules: HashSet<u64>,
    /// Persistent-set bookkeeping: for each (forced prefix, decision)
    /// pair, the warps already scheduled there.
    done_sets: HashMap<u64, HashSet<WarpKey>>,
}

/// Explores the model's schedule space and reports findings + statistics.
///
/// `run` executes one full simulation under the given policy handle and
/// returns its checked outcome; it must be deterministic given the
/// schedule: every call starts from the same simulator state (a fresh or
/// reset simulator, same allocation order).
pub fn explore(
    cfg: &ExploreConfig,
    run: impl FnMut(PolicyHandle) -> ModelOutcome,
) -> ExploreReport {
    let mut pass = Backtracker::default();
    search(cfg, run, |ctl, stats, frontier| pass.run(ctl, stats, frontier))
}

/// The exploration loop, with the backtrack pass as a parameter.
fn search(
    cfg: &ExploreConfig,
    mut run: impl FnMut(PolicyHandle) -> ModelOutcome,
    mut backtrack: impl FnMut(&Controller, &mut ExploreStats, &mut Frontier),
) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut unsupported = None;

    let nbounds = cfg.max_preemptions as usize + 1;
    let mut frontier = Frontier {
        pending: (0..nbounds).map(|_| VecDeque::new()).collect(),
        seen_schedules: HashSet::from([schedule_hash(&[])]),
        done_sets: HashMap::new(),
    };
    frontier.pending[0].push_back(Schedule::default());
    let mut seen_traces: HashSet<u64> = HashSet::new();
    let mut seen_states: HashSet<u64> = HashSet::new();

    'bounds: for bound in 0..nbounds {
        while let Some(p) = frontier.pending[bound].pop_front() {
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

            backtrack(&ctl, &mut stats, &mut frontier);
        }
    }

    ExploreReport { stats, findings, unsupported }
}

/// Happens-before analysis of one executed trace; every racing pair
/// spawns a backtrack schedule flipping it. The buffers live from run to
/// run, so a pass allocates only what it queues.
#[derive(Debug, Default)]
struct Backtracker {
    /// Warps in order of first appearance; a warp's index here is its
    /// vector-clock component.
    warps: Vec<WarpKey>,
    /// Each event's warp index.
    event_warp: Vec<usize>,
    /// `nwarps × nwarps`: row `w` is the HB clock inherited by w's next
    /// event (program order). A clock counts, per warp, how many of that
    /// warp's visible events happen-before the point it describes.
    warp_clock: Vec<u64>,
    /// `events × nwarps`: row `j` is event j's HB clock including j itself.
    post: Vec<u64>,
    /// Per warp, its events so far in the trace.
    seen: Vec<u64>,
    acc: Vec<u64>,
    /// The racing pairs `(i, j)`, `i < j`, in discovery order.
    races: Vec<(usize, usize)>,
    /// `prefix[k]`: the schedule hasher after the first k effective choices.
    prefix: Vec<Fnv>,
}

impl Backtracker {
    fn run(&mut self, ctl: &Controller, stats: &mut ExploreStats, frontier: &mut Frontier) {
        self.find_races(&ctl.trace);
        self.queue_flips(ctl, stats, frontier);
    }

    fn find_races(&mut self, trace: &[Event]) {
        self.races.clear();
        self.warps.clear();
        self.event_warp.clear();
        for e in trace {
            let w = match self.warps.iter().position(|&k| k == e.warp) {
                Some(w) => w,
                None => {
                    self.warps.push(e.warp);
                    self.warps.len() - 1
                }
            };
            self.event_warp.push(w);
        }
        let n = self.warps.len();
        self.warp_clock.clear();
        self.warp_clock.resize(n * n, 0);
        self.seen.clear();
        self.seen.resize(n, 0);
        self.post.clear();

        for j in 0..trace.len() {
            let wj = self.event_warp[j];
            self.acc.clear();
            self.acc.extend_from_slice(&self.warp_clock[wj * n..(wj + 1) * n]);
            // Scan earlier events newest-first, accumulating the clocks of
            // the conflicting ones: an event the accumulator already
            // covers is HB-ordered before j (possibly through an
            // intermediary), so it is no race and joining it changes
            // nothing. Its own component tells in O(1): clocks are joins
            // of earlier clocks, so `acc[wi] ≥ post[i][wi]` implies
            // `post[i] ≤ acc`. Once every other warp is covered up to its
            // latest event, nothing older can be a race.
            let covered = |acc: &[u64]| (0..n).all(|w| w == wj || acc[w] >= self.seen[w]);
            if !covered(&self.acc) {
                for i in (0..j).rev() {
                    let wi = self.event_warp[i];
                    let post_i = &self.post[i * n..(i + 1) * n];
                    if wi == wj
                        || self.acc[wi] >= post_i[wi]
                        || !trace[i].effect.conflicts(&trace[j].effect)
                    {
                        continue;
                    }
                    self.races.push((i, j));
                    for (a, &p) in self.acc.iter_mut().zip(post_i) {
                        *a = (*a).max(p);
                    }
                    if covered(&self.acc) {
                        break;
                    }
                }
            }
            self.acc[wj] += 1;
            self.seen[wj] += 1;
            self.warp_clock[wj * n..(wj + 1) * n].copy_from_slice(&self.acc);
            self.post.extend_from_slice(&self.acc);
        }
    }

    fn queue_flips(&mut self, ctl: &Controller, stats: &mut ExploreStats, frontier: &mut Frontier) {
        let effective = &ctl.effective;
        self.prefix.clear();
        let mut h = Fnv::new();
        self.prefix.push(h);
        for &c in effective {
            hash_choice(&mut h, c);
            self.prefix.push(h);
        }

        let Frontier { pending, seen_schedules, done_sets } = frontier;
        for &(i, j) in &self.races {
            let d = ctl.trace[i].decision;
            let rec = &ctl.decisions[d as usize];
            let runnable = ctl.runnable(rec);
            let wj = ctl.trace[j].warp;
            // Schedule the second event's warp at the first event's
            // decision point; if it was somehow not runnable there, fall
            // back to every alternative (classic DPOR's pessimistic
            // backtrack set).
            let flip_to_wj = runnable.contains(&wj);
            let candidate = |k: WarpKey| if flip_to_wj { k == wj } else { k != rec.chosen };
            // The effective choices are in decision order, so the forced
            // prefix before `d` is a slice of them.
            let k = effective.partition_point(|c| c.decision < d);
            let prefix = self.prefix[k];
            let done_key = {
                let mut h = Fnv::new();
                h.u64(prefix.finish());
                h.u64(d);
                h.finish()
            };
            let done = done_sets.entry(done_key).or_insert_with(|| HashSet::from([rec.chosen]));
            for w in runnable.iter().copied().filter(|&k| candidate(k)) {
                if !done.insert(w) {
                    stats.sleep_pruned += 1;
                    continue;
                }
                let flip = ForcedChoice { decision: d, warp: w };
                let mut h = prefix;
                hash_choice(&mut h, flip);
                if !seen_schedules.insert(h.finish()) {
                    stats.schedules_deduped += 1;
                    continue;
                }
                // Mirrors the controller's charging rule: a switch away
                // from a runnable current warp, or any deviation from the
                // round-robin target at an involuntary yield (the fairness
                // charge), costs one.
                let extra = match rec.current_before {
                    Some(c) if !rec.spin_yield => u32::from(c != w && runnable.contains(&c)),
                    Some(_) => u32::from(w != rec.default_choice),
                    None => 0,
                };
                let preemptions = rec.preemptions_before + extra;
                if (preemptions as usize) < pending.len() {
                    let mut choices = Vec::with_capacity(k + 1);
                    choices.extend_from_slice(&effective[..k]);
                    choices.push(flip);
                    pending[preemptions as usize].push_back(Schedule { choices });
                    stats.backtracks_queued += 1;
                } else {
                    stats.backtracks_deferred += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::{footprint_filter, model, Litmus, Workload};
    use gpu_sim::StepEffect;
    use workloads::Variant;

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

    /// The backtrack pass as first written: a cloned clock per event, a
    /// rescan of every earlier event, a prefix `Vec` per race. The
    /// reference [`Backtracker`] must match race for race and push for
    /// push. Returns the racing pairs.
    fn reference_backtracks(
        ctl: &Controller,
        stats: &mut ExploreStats,
        frontier: &mut Frontier,
    ) -> Vec<(usize, usize)> {
        let Frontier { pending, seen_schedules, done_sets } = frontier;
        let trace = &ctl.trace;
        if trace.is_empty() {
            return Vec::new();
        }

        // Warp index assignment for vector clocks.
        let mut warp_ix: HashMap<WarpKey, usize> = HashMap::new();
        for e in trace {
            let n = warp_ix.len();
            warp_ix.entry(e.warp).or_insert(n);
        }
        let nwarps = warp_ix.len();

        // `warp_clock[w]`: the HB clock inherited by w's next event
        // (program order). `post[j]`: event j's HB clock including j.
        let mut warp_clock: Vec<Clock> = vec![vec![0; nwarps]; nwarps];
        let mut post: Vec<Clock> = Vec::with_capacity(trace.len());
        let mut races: Vec<(usize, usize)> = Vec::new();

        for j in 0..trace.len() {
            let wj = warp_ix[&trace[j].warp];
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

        for &(i, j) in &races {
            let d = trace[i].decision;
            let rec = &ctl.decisions[d as usize];
            let runnable = ctl.runnable(rec);
            let wj = trace[j].warp;
            let candidates: Vec<WarpKey> = if runnable.contains(&wj) {
                vec![wj]
            } else {
                runnable.iter().copied().filter(|&k| k != rec.chosen).collect()
            };
            let prefix: Vec<ForcedChoice> =
                ctl.effective.iter().copied().filter(|c| c.decision < d).collect();
            let key = {
                let mut h = Fnv::new();
                h.u64(schedule_hash(&prefix));
                h.u64(d);
                h.finish()
            };
            let done = done_sets.entry(key).or_insert_with(|| HashSet::from([rec.chosen]));
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
                let extra = match rec.current_before {
                    Some(c) if !rec.spin_yield => u32::from(c != w && runnable.contains(&c)),
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
        races
    }

    #[test]
    fn backtrack_pass_matches_the_reference_on_every_run() {
        // The seven `verify_dpor` cells at 1 x 2 warps and bound 1. Then
        // two with three and four warps: with two warps the first race
        // always covers the other warp, so only these exercise the scan's
        // early stop on a partial cover. Then one at bound 2, where a
        // race can start at a forced decision, so the prefix must stop
        // short of it.
        let cells = [
            (Workload::Bank, Variant::HvSorting, 1, 2, 1),
            (Workload::Stripes, Variant::HvSorting, 1, 2, 1),
            (Workload::Queue, Variant::HvSorting, 1, 2, 1),
            (Workload::Hashtable, Variant::HvSorting, 1, 2, 1),
            (Workload::Bank, Variant::Vbv, 1, 2, 1),
            (Workload::Stripes, Variant::Vbv, 1, 2, 1),
            (Workload::Hashtable, Variant::TbvSorting, 1, 2, 1),
            (Workload::Queue, Variant::HvSorting, 1, 3, 1),
            (Workload::Bank, Variant::HvSorting, 2, 2, 1),
            (Workload::Hashtable, Variant::HvSorting, 1, 2, 2),
        ];
        for (workload, variant, blocks, warps, bound) in cells {
            let l = Litmus::new(workload, variant, blocks, warps);
            let cfg = ExploreConfig {
                max_preemptions: bound,
                max_schedules: 3000,
                stop_on_finding: false,
                footprints: footprint_filter(&l),
            };
            let mut pass = Backtracker::default();
            let mut races = 0;
            let report = search(&cfg, model(l), |ctl, stats, frontier| {
                let (mut want_stats, mut want) = (stats.clone(), frontier.clone());
                let want_races = reference_backtracks(ctl, &mut want_stats, &mut want);
                pass.run(ctl, stats, frontier);
                assert_eq!(pass.races, want_races, "{workload}/{variant}: races");
                assert_eq!(*frontier, want, "{workload}/{variant}: queues, seen set, done-sets");
                assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"), "{workload}/{variant}");
                races += want_races.len();
            });
            assert!(report.is_clean() && !report.stats.cap_hit, "{workload}/{variant}");
            assert!(report.stats.schedules_run > 1 && races > 0, "{workload}/{variant}");
        }
    }

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
