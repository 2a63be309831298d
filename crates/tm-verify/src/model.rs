//! The one model-checking front end: a [`Model`] is a [`Subject`] — a
//! litmus instance of the STM runtime or a TXL witness case — with its TXL
//! compiled once and one simulator, reset to the state of a fresh one
//! before every run. Every run allocates in the same order, so device
//! addresses (and hence traces) are comparable across runs: the property
//! the explorer's replay and dedup machinery relies on.

use crate::controller::{Controller, FootprintFilter, Schedule};
use crate::explore::{
    explore, ExploreConfig, ExploreReport, Finding, Fnv, ModelOutcome, ModelViolation,
    ViolationKind,
};
use crate::litmus::{self, Litmus, Workload, STRIPES_SRC};
use crate::sched;
use crate::witness::TxlCase;
use gpu_sim::{race_sink, Addr, LaunchConfig, PolicyHandle, RaceSink, Sim, SimConfig, SimError};
use gpu_stm::{recorder, LockStm, Mutation, Recorder, Stm, StmConfig, StmShared};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{RunError, Variant};

/// Simulated-cycle budget per run (generous: litmus and witness runs
/// finish in well under a million cycles unless genuinely stuck).
const WATCHDOG_CYCLES: u64 = 20_000_000;
/// No-progress limit: a genuine deadlock/livelock is classified after
/// this many quiescent cycles instead of burning the whole budget.
const STALL_CYCLES: u64 = 150_000;
/// Device words of every run.
pub(crate) const MEM_WORDS: u32 = 1 << 16;
/// Version locks configured for every run (word-granularity stripes for
/// small data, so distinct accounts map to distinct locks).
pub(crate) const N_LOCKS: u32 = 64;
/// RNG seed for `rand()` in TXL kernels (fixed: runs must be
/// deterministic given the schedule).
const TXL_SEED: u64 = 7;

/// What a [`Model`] checks.
#[derive(Clone, Debug)]
pub enum Subject {
    /// A litmus instance of the STM runtime.
    Litmus(Litmus),
    /// A TXL program, run on HV-Sorting under the case's mutation.
    Case(TxlCase),
}

impl From<Litmus> for Subject {
    fn from(l: Litmus) -> Subject {
        Subject::Litmus(l)
    }
}

impl From<TxlCase> for Subject {
    fn from(c: TxlCase) -> Subject {
        Subject::Case(c)
    }
}

/// A subject with its simulator: the one way to run, explore, replay,
/// minimize and write a `.sched` witness.
pub struct Model {
    subject: Subject,
    /// The TXL kernel of a stripes litmus or a case, or the message every
    /// run reports when it does not compile.
    kernel: Result<Option<txl::Kernel>, String>,
    /// The footprint filter explorations and replays run under.
    pub(crate) footprints: Option<FootprintFilter>,
    /// The regions the current run allocated for the subject's data:
    /// hashed into the terminal state, bound to the kernel's arrays.
    data: Vec<(Addr, u32)>,
    /// The race log of the current run, emptied before every run.
    races: RaceSink,
    sim: Sim,
}

impl Model {
    /// A model of `subject`. The footprint filter is attached whenever
    /// the workload's TXL analysis proves per-actor disjointness.
    pub fn new(subject: impl Into<Subject>) -> Model {
        let subject = subject.into();
        let source = match &subject {
            Subject::Litmus(l) => (l.workload == Workload::Stripes).then_some(STRIPES_SRC),
            Subject::Case(c) => Some(c.source.as_str()),
        };
        let kernel = source.map(compile).transpose();
        let races = race_sink();
        let mut sim = Sim::new(sim_config(None, &races));
        let footprints = match (&subject, &kernel) {
            (Subject::Litmus(l), Ok(Some(k))) => litmus::footprint_filter(l, k, &mut sim),
            _ => None,
        };
        Model { subject, kernel, footprints, data: Vec::new(), races, sim }
    }

    /// Executes one complete run under an optional schedule policy and
    /// returns the checked outcome: progress failures, opacity of the
    /// recorded history, happens-before races, and for a litmus the final
    /// state and the workload invariant. `None` runs the default
    /// simulator scheduler (the single-schedule baseline seeded mutants
    /// must survive).
    pub fn run(&mut self, policy: Option<PolicyHandle>) -> ModelOutcome {
        self.races.borrow_mut().races.clear();
        self.sim.reset(sim_config(policy, &self.races));
        self.data.clear();
        let rec = recorder();
        let (sim, data) = (&mut self.sim, &mut self.data);
        let result = match (&self.subject, &self.kernel) {
            (_, Err(msg)) => Err(RunError::Verification(msg.clone())),
            (Subject::Litmus(l), Ok(k)) => litmus::run(l, sim, k.as_ref(), &rec, data),
            (Subject::Case(c), Ok(k)) => c.run(sim, k.as_ref(), &rec, data),
        };

        let mut violations = Vec::new();
        let mut push = |kind, message| violations.push(ModelViolation { kind, message });
        match result {
            Err(RunError::Unsupported(msg)) => {
                return ModelOutcome { unsupported: Some(msg.to_string()), ..Default::default() }
            }
            // The run is partial: history/final-state checks would report
            // spurious mismatches, so only the failure counts.
            Err(RunError::Sim(e)) => {
                let (kind, message) = classify(&e);
                push(kind, message);
            }
            Err(RunError::Verification(msg)) => push(ViolationKind::Invariant, msg),
            Err(other) => push(ViolationKind::Sim, other.to_string()),
            Ok(()) => {
                let hist = rec.borrow();
                if let Subject::Litmus(l) = &self.subject {
                    let ((addr, words), sim) = (self.data[0], &self.sim);
                    let words = (0..words).map(|i| addr.offset(i));
                    let (check, final_state) = tm_check::check_history_and_final_state(
                        &hist,
                        |_| 0,
                        |a| sim.read(a),
                        words,
                    );
                    for v in check.violations {
                        push(ViolationKind::Opacity, v.to_string());
                    }
                    for v in final_state {
                        push(ViolationKind::FinalState, v.to_string());
                    }
                    if let Some(msg) = litmus::check_invariant(l, sim, addr) {
                        push(ViolationKind::Invariant, msg);
                    }
                } else {
                    for v in tm_check::check_history(&hist, |_| 0).violations {
                        push(ViolationKind::Opacity, v.to_string());
                    }
                }
            }
        }
        for v in tm_check::races_to_violations(&self.races.borrow().races) {
            push(ViolationKind::Race, v.to_string());
        }

        let mut h = Fnv::new();
        for &(addr, words) in &self.data {
            for i in 0..words {
                h.u32(self.sim.read(addr.offset(i)));
            }
        }
        for v in &violations {
            h.str(&v.message);
        }
        ModelOutcome { violations, state_hash: h.finish(), unsupported: None }
    }

    /// Explores the schedule space under iterative preemption bounding
    /// and reports findings and exploration statistics.
    pub fn explore(
        &mut self,
        max_preemptions: u32,
        max_schedules: u64,
        stop_on_finding: bool,
    ) -> ExploreReport {
        let footprints = self.footprints.clone();
        let cfg = ExploreConfig { max_preemptions, max_schedules, stop_on_finding, footprints };
        explore(&cfg, |policy| self.run(Some(policy)))
    }

    /// Replays one schedule and returns the checked outcome — the
    /// consumer of `.sched` witnesses.
    pub fn replay(&mut self, schedule: &Schedule) -> ModelOutcome {
        let ctl = Controller::new(schedule.clone(), self.footprints.clone());
        self.run(Some(PolicyHandle::shared(Rc::new(RefCell::new(ctl)))))
    }

    /// Shrinks a finding's schedule to a 1-minimal reproduction: a forced
    /// choice survives only if removing it loses the violation kind (per
    /// [`ViolationKind::matches`], so deadlock/livelock reclassification
    /// under shrinking does not block progress).
    pub fn minimize(&mut self, finding: &Finding) -> Schedule {
        let kind = Some(finding.violation.kind);
        sched::minimize(&finding.schedule, |s| self.replay(s).reproduces(kind))
    }

    /// Renders `finding`, shrunk to `schedule`, as `.sched` text with full
    /// provenance metadata.
    pub fn to_sched(&self, finding: &Finding, schedule: &Schedule) -> String {
        sched::write(&self.subject, finding, schedule)
    }
}

/// The simulator configuration of one run under `policy`, reporting
/// races to `races`.
fn sim_config(policy: Option<PolicyHandle>, races: &RaceSink) -> SimConfig {
    let mut cfg = SimConfig::with_memory(MEM_WORDS as usize);
    cfg.watchdog_cycles = WATCHDOG_CYCLES;
    cfg.stall_cycles = STALL_CYCLES;
    cfg.race = Some(Rc::clone(races));
    cfg.schedule = policy;
    cfg
}

/// The first kernel of `src`, compiled.
fn compile(src: &str) -> Result<txl::Kernel, String> {
    let program = txl::compile(src).map_err(|e| format!("TXL source does not compile: {e}"))?;
    program.kernels.into_iter().next().ok_or_else(|| "TXL source has no kernel".into())
}

/// The violation kind and message a failed launch reports. The per-warp
/// progress lines are folded into the message: for a blocked run the
/// warp state (including any parked watch addresses) is the actionable
/// part of the diagnosis.
fn classify(e: &SimError) -> (ViolationKind, String) {
    let kind = match e {
        SimError::Deadlock { .. } => ViolationKind::Deadlock,
        SimError::Livelock { .. } => ViolationKind::Livelock,
        _ => ViolationKind::Sim,
    };
    let mut message = e.to_string();
    for w in e.unfinished_warps() {
        message.push_str("; ");
        message.push_str(&w.to_string());
    }
    (kind, message)
}

/// Initializes the STM's shared state on `sim` and builds `variant`'s
/// [`LockStm`] under `mutation`, recording into `rec`; `unsupported` is
/// the reason reported when `variant` is not lock-based.
pub(crate) fn lock_stm(
    sim: &mut Sim,
    variant: Variant,
    mutation: Mutation,
    rec: &Recorder,
    unsupported: &'static str,
) -> Result<LockStm, RunError> {
    let cfg = StmConfig::new(N_LOCKS);
    let stm = LockStm::for_variant(variant, StmShared::init(sim, &cfg)?, cfg);
    let stm = stm.ok_or(RunError::Unsupported(unsupported))?;
    Ok(stm.with_mutation(mutation).with_observers(Some(rec.clone()), None))
}

/// Interprets `kernel` over `stm`, binding its array parameters, in
/// order, to the `data` regions.
pub(crate) fn launch_txl<S: Stm + 'static>(
    sim: &mut Sim,
    stm: &Rc<S>,
    kernel: &txl::Kernel,
    grid: LaunchConfig,
    data: &[(Addr, u32)],
) -> Result<(), RunError> {
    let bindings: Vec<_> = (kernel.params.iter().zip(data))
        .map(|(p, &(addr, words))| txl::ArrayBinding::new(p.name.clone(), addr, words))
        .collect();
    match txl::launch(sim, stm, kernel, grid, TXL_SEED, &bindings) {
        Ok(_) => Ok(()),
        Err(txl::TxlError::Sim(e)) => Err(RunError::Sim(e)),
        Err(other) => Err(RunError::Verification(other.to_string())),
    }
}
