//! Litmus workloads for schedule exploration: small, fully-deterministic
//! kernels with machine-checkable invariants.
//!
//! Each run builds a **fresh** simulator with identical allocation order,
//! so device addresses (and hence traces) are comparable across runs —
//! the property the explorer's replay and dedup machinery relies on.
//! Three workloads:
//!
//! - **bank** — each actor (one lane per warp) transfers one unit around
//!   a ring of accounts; the wrapping sum must stay 0. Two actors with
//!   two accounts produce *opposite* lock-encounter orders, the classic
//!   deadlock shape the paper's lock-sorting prevents.
//! - **hashtable** — open-addressing inserts of distinct keys; every key
//!   must appear exactly once.
//! - **stripes** — a TXL kernel whose threads increment disjoint stripes;
//!   the TXL footprint analysis proves the disjointness, letting the
//!   explorer demote all data traffic to invisible.
//! - **queue** — the blocking-transactions wakeup litmus: one producer
//!   feeds a counter that consumers drain with `retry()`/`or_else`
//!   blocking (a [`gpu_stm::Pipeline`] with [`gpu_stm::Wake::Park`]).
//!   Explored schedules cover park/commit races, wake-before-park, and
//!   multi-waiter single-wake; a lost wakeup surfaces as an all-parked
//!   deadlock.

use crate::controller::FootprintFilter;
use crate::explore::{Fnv, ModelOutcome, ModelViolation, ViolationKind};
use gpu_sim::{
    race_sink, Addr, LaneMask, LaunchConfig, PolicyHandle, Sim, SimConfig, SimError, WarpCtx,
};
use gpu_stm::{
    recorder, BlockingMutation, LockStm, Mutation, Pipeline, Policies, Recorder, Stm, StmConfig,
    StmShared, Wake,
};
use std::rc::Rc;
use workloads::{dispatch, RunError, StmRunner, Variant};

/// Simulated-cycle budget per explored run (generous: litmus runs finish
/// in well under a million cycles unless genuinely stuck).
const WATCHDOG_CYCLES: u64 = 20_000_000;
/// No-progress limit: a genuine deadlock/livelock is classified after
/// this many quiescent cycles instead of burning the whole budget.
const STALL_CYCLES: u64 = 150_000;
/// Per-actor start stagger, applied only under the *default* simulator
/// scheduler: it serialises the actors' transactions so seeded mutants
/// stay latent in single-schedule baseline runs. Controlled runs drop it
/// — the controller's cycle-bounded quantum would otherwise spend a whole
/// quantum on the stagger idle and collapse every forced interleaving
/// back to the sequential trace.
const STAGGER_CYCLES: u64 = 40_000;
/// Device words allocated for litmus runs.
const MEM_WORDS: usize = 1 << 16;
/// Version locks configured for litmus runs (word-granularity stripes for
/// small litmus data, so distinct accounts map to distinct locks).
const N_LOCKS: u32 = 64;

/// The TXL stripes kernel: thread `t` increments words `4t..4t+3` once
/// each inside per-element transactions, leaving word `4t+3` untouched.
///
/// The accesses are unrolled rather than looped: the interval analysis
/// widens loop counters to `⊤`, and a `⊤` footprint would disable the
/// explorer's disjointness pruning (the thing this litmus exists to
/// exercise).
pub const STRIPES_SRC: &str = "kernel stripes(data: array) {
    let base = tid() * 4;
    atomic { data[base] = data[base] + 1; }
    atomic { data[base + 1] = data[base + 1] + 1; }
    atomic { data[base + 2] = data[base + 2] + 1; }
}";

/// Which litmus workload to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ring transfers over shared accounts (conflicting; wrapping sum 0).
    Bank,
    /// Open-addressing inserts of distinct keys (conflicting probes).
    Hashtable,
    /// TXL kernel over provably-disjoint stripes (footprint-prunable).
    Stripes,
    /// Blocking wakeup litmus: producer/consumers over a counter with
    /// `retry()`/`or_else` parking (lock-based variants only).
    Queue,
}

impl Workload {
    /// All litmus workloads.
    pub const ALL: [Workload; 4] =
        [Workload::Bank, Workload::Hashtable, Workload::Stripes, Workload::Queue];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bank => "bank",
            Workload::Hashtable => "hashtable",
            Workload::Stripes => "stripes",
            Workload::Queue => "queue",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully-specified litmus instance.
#[derive(Copy, Clone, Debug)]
pub struct Litmus {
    /// The workload.
    pub workload: Workload,
    /// The STM variant under test.
    pub variant: Variant,
    /// Thread blocks.
    pub blocks: u32,
    /// Warps per block (one actor per warp).
    pub warps_per_block: u32,
    /// Seeded correctness mutation (all-off = the real runtime).
    pub mutation: Mutation,
    /// Seeded blocking-subsystem mutation (queue litmus only).
    pub blocking: BlockingMutation,
}

impl Litmus {
    /// A litmus with the given geometry and no mutation.
    pub fn new(workload: Workload, variant: Variant, blocks: u32, warps_per_block: u32) -> Self {
        Litmus {
            workload,
            variant,
            blocks,
            warps_per_block,
            mutation: Mutation::default(),
            blocking: BlockingMutation::default(),
        }
    }

    /// Total actors (one per warp; stripes: one per TXL thread).
    pub fn actors(&self) -> u32 {
        self.blocks * self.warps_per_block
    }

    /// The launch geometry. Bank/hashtable run one actor-lane per warp;
    /// stripes runs one single-thread block per actor so TXL thread ids
    /// map 1:1 onto `(block, 0)` warp keys.
    pub fn grid(&self) -> LaunchConfig {
        match self.workload {
            Workload::Stripes => LaunchConfig::new(self.actors(), 1),
            _ => LaunchConfig::new(self.blocks, self.warps_per_block * 32),
        }
    }

    /// Words of litmus data the workload needs.
    pub fn data_words(&self) -> u32 {
        match self.workload {
            Workload::Bank => self.actors().max(2),
            Workload::Hashtable => (2 * self.actors()).next_power_of_two().max(8),
            Workload::Stripes => 4 * self.actors(),
            // available-count, done flag, one claim counter per consumer.
            Workload::Queue => 2 + self.actors().saturating_sub(1).max(1),
        }
    }

    /// The device address litmus data will get — the first allocation of
    /// every run, so it is a pure function of the configuration.
    pub fn data_addr(&self) -> Addr {
        let mut sim = Sim::new(SimConfig::with_memory(MEM_WORDS));
        sim.alloc(self.data_words()).expect("litmus data fits")
    }
}

/// Executes one complete run under an optional schedule policy and
/// returns the checked outcome. `None` runs the default simulator
/// scheduler (the "single-schedule" baseline the mutants must survive).
pub fn run_once(l: &Litmus, policy: Option<PolicyHandle>) -> ModelOutcome {
    let stagger = if policy.is_some() { 0 } else { STAGGER_CYCLES };
    let mut sim_cfg = SimConfig::with_memory(MEM_WORDS);
    sim_cfg.watchdog_cycles = WATCHDOG_CYCLES;
    sim_cfg.stall_cycles = STALL_CYCLES;
    let sink = race_sink();
    sim_cfg.race = Some(sink.clone());
    sim_cfg.schedule = policy;
    let mut sim = Sim::new(sim_cfg);

    let data_words = l.data_words();
    let data = match sim.alloc(data_words) {
        Ok(a) => a,
        Err(e) => return sim_failure(&e),
    };
    let rec = recorder();
    let stm_cfg = StmConfig::new(N_LOCKS);

    let result: Result<(), RunError> = if l.workload == Workload::Queue {
        // The queue litmus always builds its own parking Pipeline<LockStm>:
        // the pipeline needs to own the runtime (and &mut Sim for its
        // registry anchors), which the generic dispatch cannot provide.
        run_queue_blocking(l, &mut sim, stm_cfg, rec.clone(), data, stagger)
    } else if l.mutation.any() {
        run_mutated(l, &mut sim, stm_cfg, rec.clone(), data, stagger)
    } else {
        dispatch(
            &mut sim,
            l.variant,
            stm_cfg,
            u64::from(data_words),
            l.grid(),
            Some(rec.clone()),
            None,
            LitmusRunner { litmus: *l, data, stagger },
        )
    };

    let mut violations = Vec::new();
    match result {
        Err(RunError::Unsupported(msg)) => {
            return ModelOutcome {
                violations: Vec::new(),
                state_hash: 0,
                unsupported: Some(msg.to_string()),
            }
        }
        Err(RunError::Sim(e)) => {
            let kind = match &e {
                SimError::Deadlock { .. } => ViolationKind::Deadlock,
                SimError::Livelock { .. } => ViolationKind::Livelock,
                _ => ViolationKind::Sim,
            };
            // Fold the per-warp progress lines into the message: for a
            // blocked run the warp state (including any parked watch
            // addresses) is the actionable part of the diagnosis.
            let mut message = e.to_string();
            for w in e.unfinished_warps() {
                message.push_str("; ");
                message.push_str(&w.to_string());
            }
            violations.push(ModelViolation { kind, message });
            // The run is partial: history/final-state checks would report
            // spurious mismatches, so only the progress failure counts.
        }
        Err(RunError::Verification(msg)) => {
            violations.push(ModelViolation { kind: ViolationKind::Invariant, message: msg });
        }
        Err(other) => {
            violations
                .push(ModelViolation { kind: ViolationKind::Sim, message: other.to_string() });
        }
        Ok(()) => {
            let hist = rec.borrow();
            for v in tm_check::check_history(&hist, |_| 0).violations {
                violations
                    .push(ModelViolation { kind: ViolationKind::Opacity, message: v.to_string() });
            }
            let finals = tm_check::check_final_state(
                &hist,
                |_| 0,
                |a| sim.read(a),
                (0..data_words).map(|i| data.offset(i)),
            );
            for v in finals {
                violations.push(ModelViolation {
                    kind: ViolationKind::FinalState,
                    message: v.to_string(),
                });
            }
            if let Some(msg) = check_invariant(l, &sim, data) {
                violations.push(ModelViolation { kind: ViolationKind::Invariant, message: msg });
            }
        }
    }
    for v in tm_check::races_to_violations(&sink.borrow().races) {
        violations.push(ModelViolation { kind: ViolationKind::Race, message: v.to_string() });
    }

    let mut h = Fnv::new();
    for i in 0..data_words {
        h.u32(sim.read(data.offset(i)));
    }
    for v in &violations {
        h.str(&v.message);
    }
    ModelOutcome { violations, state_hash: h.finish(), unsupported: None }
}

/// The model closure the explorer drives: one fresh run per schedule.
pub fn model(l: Litmus) -> impl FnMut(PolicyHandle) -> ModelOutcome {
    move |policy| run_once(&l, Some(policy))
}

/// Builds the footprint filter for workloads whose TXL analysis proves
/// per-actor disjointness (currently: stripes). `None` for conflicting
/// workloads or whenever the hulls overlap.
pub fn footprint_filter(l: &Litmus) -> Option<FootprintFilter> {
    if l.workload != Workload::Stripes {
        return None;
    }
    let program = txl::compile(STRIPES_SRC).ok()?;
    let kernel = program.kernel("stripes")?;
    let data = l.data_addr();
    let n = l.actors();
    let mut regions = Vec::new();
    for t in 0..n {
        let fp = txl::thread_footprint(kernel, t, n);
        let iv = fp.first().and_then(|p| p.touched())?;
        if iv.is_top() || iv.hi >= l.data_words() {
            return None;
        }
        regions.push(((t, 0), vec![(data.offset(iv.lo), data.offset(iv.hi))]));
    }
    FootprintFilter::new(regions)
}

fn sim_failure(e: &SimError) -> ModelOutcome {
    let mut h = Fnv::new();
    h.str(&e.to_string());
    ModelOutcome {
        violations: vec![ModelViolation { kind: ViolationKind::Sim, message: e.to_string() }],
        state_hash: h.finish(),
        unsupported: None,
    }
}

/// Runs the litmus under a directly-constructed [`LockStm`] carrying the
/// seeded mutation (only the four lock-based variants have mutants).
fn run_mutated(
    l: &Litmus,
    sim: &mut Sim,
    stm_cfg: StmConfig,
    rec: Recorder,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    let shared = StmShared::init(sim, &stm_cfg).map_err(RunError::Sim)?;
    let stm = LockStm::for_variant(l.variant, shared, stm_cfg)
        .unwrap_or_else(|| panic!("mutations only apply to lock-based variants, not {}", l.variant))
        .with_mutation(l.mutation)
        .with_recorder(rec);
    run_workload(l, sim, Rc::new(stm), data, stagger)
}

/// The blocking wakeup litmus. Actor 0 produces `actors - 1` items by
/// incrementing `data[0]` one commit at a time, then raises the done
/// flag `data[1]`. Every other actor is a consumer: it claims items
/// (decrementing `data[0]`, bumping its own claim counter) and, on
/// finding the counter empty, calls `retry()` — falling through to an
/// `or_else` alternative that exits once the done flag is up. A consumer
/// parked on `{avail, done}` is woken either by a push or by the final
/// done-flag commit; losing that last wakeup strands it forever, which
/// the executor reports as an all-parked deadlock.
///
/// Under the default (staggered) scheduler the producer finishes before
/// any consumer starts, so consumers drain without parking and seeded
/// blocking mutants stay latent — parking only happens in controlled
/// (explored) interleavings, exactly where the checker is looking.
fn run_queue_blocking(
    l: &Litmus,
    sim: &mut Sim,
    stm_cfg: StmConfig,
    rec: Recorder,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    let shared = StmShared::init(sim, &stm_cfg).map_err(RunError::Sim)?;
    let Some(inner) = LockStm::for_variant(l.variant, shared, stm_cfg) else {
        return Err(RunError::Unsupported(
            "the blocking queue litmus requires a per-thread lock-based STM variant",
        ));
    };
    let inner = inner.with_mutation(l.mutation).with_recorder(rec);
    let policies = Policies { wake: Wake::Park, ..Policies::default() };
    let stm = Pipeline::new(sim, inner, &stm_cfg, policies)
        .map_err(RunError::Sim)?
        .with_mutation(l.blocking);

    let items = l.actors().saturating_sub(1).max(1);
    let avail = data;
    let done = data.offset(1);
    let claims = data.offset(2);
    let wpb = l.warps_per_block;
    let kstm = stm.clone();
    sim.launch(l.grid(), move |ctx: WarpCtx| {
        let stm = kstm.clone();
        async move {
            let id = ctx.id();
            let actor = id.block * wpb + id.warp_in_block;
            ctx.idle(u64::from(actor) * stagger + 1).await;
            let m = LaneMask::lane(0);
            let mut w = stm.new_warp();
            ctx.set_speculative(true);
            if actor == 0 {
                // Producer: one item per commit, then the done flag.
                for _ in 0..items {
                    loop {
                        let active = stm.begin(&mut w, &ctx, m).await;
                        let a = stm.read_one(&mut w, &ctx, 0, avail).await;
                        if stm.opaque(&w).any() {
                            stm.write_one(&mut w, &ctx, 0, avail, a.wrapping_add(1)).await;
                        }
                        if stm.commit(&mut w, &ctx, active).await.any() {
                            break;
                        }
                    }
                }
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    stm.write_one(&mut w, &ctx, 0, done, 1).await;
                    if stm.commit(&mut w, &ctx, active).await.any() {
                        break;
                    }
                }
            } else {
                let my_claims = claims.offset(actor - 1);
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let a = stm.read_one(&mut w, &ctx, 0, avail).await;
                    let mut finished = false;
                    if stm.opaque(&w).any() {
                        if a > 0 {
                            stm.write_one(&mut w, &ctx, 0, avail, a - 1).await;
                            let k = stm.read_one(&mut w, &ctx, 0, my_claims).await;
                            if stm.opaque(&w).any() {
                                stm.write_one(&mut w, &ctx, 0, my_claims, k.wrapping_add(1)).await;
                            }
                        } else {
                            // Empty: block until a push — unless the done
                            // flag says no push will ever come.
                            stm.retry(&mut w, m);
                            let d = stm.read_one(&mut w, &ctx, 0, done).await;
                            if stm.opaque(&w).any() && d == 1 {
                                stm.or_else(&mut w, m);
                                finished = true;
                            }
                        }
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.any() && finished {
                        break;
                    }
                }
            }
            ctx.set_speculative(false);
        }
    })
    .map(|_| ())
    .map_err(RunError::Sim)
}

struct LitmusRunner {
    litmus: Litmus,
    data: Addr,
    stagger: u64,
}

impl StmRunner for LitmusRunner {
    type Out = ();

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<(), RunError> {
        run_workload(&self.litmus, sim, stm, self.data, self.stagger)
    }
}

fn run_workload<S: Stm + 'static>(
    l: &Litmus,
    sim: &mut Sim,
    stm: Rc<S>,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    match l.workload {
        Workload::Bank => run_bank(l, sim, stm, data, stagger),
        Workload::Hashtable => run_hashtable(l, sim, stm, data, stagger),
        Workload::Stripes => run_stripes(l, sim, stm, data),
        // Handled by `run_queue_blocking` before dispatch ever runs.
        Workload::Queue => unreachable!("queue litmus bypasses the generic dispatch"),
    }
}

/// Ring transfer: actor `a` moves one unit from account `a` to account
/// `a+1 (mod n)`. With two actors the *encounter* orders are opposite —
/// the shape that deadlocks unsorted encounter-order locking.
fn run_bank<S: Stm + 'static>(
    l: &Litmus,
    sim: &mut Sim,
    stm: Rc<S>,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    let n = l.data_words();
    let wpb = l.warps_per_block;
    sim.launch(l.grid(), move |ctx: WarpCtx| {
        let stm = Rc::clone(&stm);
        async move {
            let id = ctx.id();
            let actor = id.block * wpb + id.warp_in_block;
            ctx.idle(u64::from(actor) * stagger + 1).await;
            let from = data.offset(actor % n);
            let to = data.offset((actor + 1) % n);
            let lane0 = LaneMask::lane(0);
            let mut w = stm.new_warp();
            ctx.set_speculative(true);
            loop {
                let active = stm.begin(&mut w, &ctx, lane0).await;
                if active.none() {
                    continue;
                }
                let a = stm.read_one(&mut w, &ctx, 0, from).await;
                if stm.opaque(&w).any() {
                    let b = stm.read_one(&mut w, &ctx, 0, to).await;
                    if stm.opaque(&w).any() {
                        stm.write_one(&mut w, &ctx, 0, from, a.wrapping_sub(1)).await;
                        if stm.opaque(&w).any() {
                            stm.write_one(&mut w, &ctx, 0, to, b.wrapping_add(1)).await;
                        }
                    }
                }
                if stm.commit(&mut w, &ctx, active).await.any() {
                    break;
                }
            }
            ctx.set_speculative(false);
        }
    })
    .map(|_| ())
    .map_err(RunError::Sim)
}

/// Open-addressing insert of key `actor + 1` by linear probing inside one
/// transaction.
fn run_hashtable<S: Stm + 'static>(
    l: &Litmus,
    sim: &mut Sim,
    stm: Rc<S>,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    let cap = l.data_words();
    let wpb = l.warps_per_block;
    sim.launch(l.grid(), move |ctx: WarpCtx| {
        let stm = Rc::clone(&stm);
        async move {
            let id = ctx.id();
            let actor = id.block * wpb + id.warp_in_block;
            ctx.idle(u64::from(actor) * stagger + 1).await;
            let key = actor + 1;
            let home = key.wrapping_mul(7) % cap;
            let lane0 = LaneMask::lane(0);
            let mut w = stm.new_warp();
            ctx.set_speculative(true);
            'tx: loop {
                let active = stm.begin(&mut w, &ctx, lane0).await;
                if active.none() {
                    continue;
                }
                let mut placed = false;
                for i in 0..cap {
                    let slot = data.offset((home + i) % cap);
                    let v = stm.read_one(&mut w, &ctx, 0, slot).await;
                    if stm.opaque(&w).none() {
                        break;
                    }
                    if v == 0 {
                        stm.write_one(&mut w, &ctx, 0, slot, key).await;
                        placed = true;
                        break;
                    }
                    if v == key {
                        placed = true; // duplicate insert: already present
                        break;
                    }
                }
                if stm.commit(&mut w, &ctx, active).await.any() {
                    // `placed == false` means the table was full; the
                    // invariant checker reports the missing key.
                    let _ = placed;
                    break 'tx;
                }
            }
            ctx.set_speculative(false);
        }
    })
    .map(|_| ())
    .map_err(RunError::Sim)
}

/// The TXL stripes kernel, interpreted over the STM under test.
fn run_stripes<S: Stm + 'static>(
    l: &Litmus,
    sim: &mut Sim,
    stm: Rc<S>,
    data: Addr,
) -> Result<(), RunError> {
    let program = txl::compile(STRIPES_SRC)
        .map_err(|e| RunError::Verification(format!("stripes kernel does not compile: {e}")))?;
    let kernel = program
        .kernel("stripes")
        .ok_or_else(|| RunError::Verification("stripes kernel missing".into()))?;
    let bindings = [txl::ArrayBinding::new("data", data, l.data_words())];
    match txl::launch(sim, &stm, kernel, l.grid(), 7, &bindings) {
        Ok(_) => Ok(()),
        Err(txl::TxlError::Sim(e)) => Err(RunError::Sim(e)),
        Err(other) => Err(RunError::Verification(other.to_string())),
    }
}

/// Workload invariant over final device memory; `Some(message)` on
/// violation.
fn check_invariant(l: &Litmus, sim: &Sim, data: Addr) -> Option<String> {
    let words: Vec<u32> = sim.read_slice(data, l.data_words());
    match l.workload {
        Workload::Bank => {
            let sum = words.iter().fold(0u32, |s, &v| s.wrapping_add(v));
            (sum != 0).then(|| format!("bank ring sum is {sum}, expected 0 (accounts {words:?})"))
        }
        Workload::Hashtable => {
            let mut present: Vec<u32> = words.iter().copied().filter(|&v| v != 0).collect();
            present.sort_unstable();
            let expect: Vec<u32> = (1..=l.actors()).collect();
            (present != expect).then(|| format!("hashtable holds {present:?}, expected {expect:?}"))
        }
        Workload::Stripes => {
            for t in 0..l.actors() {
                for k in 0..4 {
                    let got = words[(4 * t + k) as usize];
                    let want = if k < 3 { 1 } else { 0 };
                    if got != want {
                        return Some(format!(
                            "stripe word {} of thread {t} is {got}, expected {want}",
                            4 * t + k
                        ));
                    }
                }
            }
            None
        }
        Workload::Queue => {
            let items = l.actors().saturating_sub(1).max(1);
            let claimed: u32 = words[2..].iter().fold(0, |s, &v| s.wrapping_add(v));
            if words[0] != 0 {
                Some(format!("{} items left unclaimed (avail={})", words[0], words[0]))
            } else if words[1] != 1 {
                Some(format!("done flag is {}, expected 1", words[1]))
            } else if claimed != items {
                Some(format!(
                    "consumers claimed {claimed} items, expected {items} (claims {:?})",
                    &words[2..]
                ))
            } else {
                None
            }
        }
    }
}
