//! Litmus workloads for schedule exploration: small, fully-deterministic
//! kernels with machine-checkable invariants, run by a
//! [`Model`](crate::Model). Four workloads:
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
use crate::model::{launch_txl, lock_stm, MEM_WORDS, N_LOCKS};
use gpu_sim::{Addr, LaneMask, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{
    BlockingMutation, LockStm, Mutation, Pipeline, Policies, Recorder, Stm, StmConfig, Wake,
};
use std::rc::Rc;
use workloads::{dispatch, RunError, StmRunner, Variant};

/// Per-actor start stagger, applied only under the *default* simulator
/// scheduler: it serialises the actors' transactions so seeded mutants
/// stay latent in single-schedule baseline runs. Controlled runs drop it
/// — the controller's cycle-bounded quantum would otherwise spend a whole
/// quantum on the stagger idle and collapse every forced interleaving
/// back to the sequential trace.
const STAGGER_CYCLES: u64 = 40_000;
/// Device words the STM runtime takes besides the litmus data: its clock,
/// 64 version locks and at most one of 64 park stripes, 64 EGPGV block
/// locks or a CGL lock, each rounded up to a 32-word segment — at most
/// 161, reserved as 256.
const RUNTIME_WORDS: u32 = 256;
/// Most actors a litmus may have: 16 320. No workload needs more than
/// four data words per actor (stripes four, hashtable's power-of-two
/// table fewer, eight in all below two actors), so `4 · 16 320` data
/// words plus [`RUNTIME_WORDS`] fit the 65 536 words of a run.
pub const MAX_ACTORS: u32 = (MEM_WORDS - RUNTIME_WORDS) / 4;

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
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
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

    /// Checks a launch geometry: 1 to 32 warps per block (a block holds
    /// at most 1 024 threads) and 1 to [`MAX_ACTORS`] actors, the product
    /// computed without overflow.
    ///
    /// # Errors
    ///
    /// `(field, reason)` for the first rule broken, the field named as
    /// `.sched` metadata spells it: `warps_per_block` or `blocks`.
    pub fn check_geometry(blocks: u32, warps_per_block: u32) -> Result<(), (&'static str, String)> {
        let actors = blocks.checked_mul(warps_per_block).filter(|&n| (1..=MAX_ACTORS).contains(&n));
        if !(1..=32).contains(&warps_per_block) {
            Err(("warps_per_block", format!("{warps_per_block}, expected 1 to 32")))
        } else if actors.is_none() {
            let most = MAX_ACTORS / warps_per_block;
            Err((
                "blocks",
                format!("{blocks}, expected 1 to {most} at {warps_per_block} warps a block"),
            ))
        } else {
            Ok(())
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
}

/// One run of `l` on `sim`, which is in the state of a fresh simulator;
/// `kernel` is the compiled stripes kernel for the stripes workload. The
/// litmus data is the run's first allocation, recorded in `data`.
pub(crate) fn run(
    l: &Litmus,
    sim: &mut Sim,
    kernel: Option<&txl::Kernel>,
    rec: &Recorder,
    data: &mut Vec<(Addr, u32)>,
) -> Result<(), RunError> {
    let stagger = if sim.config().schedule.is_some() { 0 } else { STAGGER_CYCLES };
    let words = l.data_words();
    let addr = sim.alloc(words)?;
    data.push((addr, words));
    let run = Run { litmus: *l, data: addr, stagger, stripes: kernel };

    if l.workload == Workload::Queue {
        // The queue litmus always builds its own parking Pipeline<LockStm>:
        // the pipeline needs to own the runtime (and &mut Sim for its
        // registry anchors), which the generic dispatch cannot provide.
        let unsupported = "the blocking queue litmus requires a per-thread lock-based STM variant";
        let inner = lock_stm(sim, l.variant, l.mutation, rec, unsupported)?;
        run_queue_blocking(l, sim, inner, addr, stagger)
    } else if l.mutation.any() {
        let unsupported = "seeded mutations exist only in the per-thread lock-based STM variants";
        let stm = lock_stm(sim, l.variant, l.mutation, rec, unsupported)?;
        run.run(sim, Rc::new(stm))
    } else {
        let stm_cfg = StmConfig::new(N_LOCKS);
        dispatch(sim, l.variant, stm_cfg, u64::from(words), l.grid(), Some(rec.clone()), None, run)
    }
}

/// The footprint filter of a stripes litmus, when the TXL analysis of
/// its `kernel` proves per-actor disjointness; `fresh` is a fresh
/// simulator, whose first allocation is where every run's data lands.
pub(crate) fn footprint_filter(
    l: &Litmus,
    kernel: &txl::Kernel,
    fresh: &mut Sim,
) -> Option<FootprintFilter> {
    let data = fresh.alloc(l.data_words()).ok()?;
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
    inner: LockStm,
    data: Addr,
    stagger: u64,
) -> Result<(), RunError> {
    let policies = Policies { wake: Wake::Park, ..Policies::default() };
    let stm = Pipeline::new(sim, inner, &StmConfig::new(N_LOCKS), policies)
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

/// One run's inputs besides the simulator and the STM.
#[derive(Clone, Copy)]
struct Run<'a> {
    litmus: Litmus,
    data: Addr,
    stagger: u64,
    /// The compiled stripes kernel, for the stripes workload.
    stripes: Option<&'a txl::Kernel>,
}

impl StmRunner for Run<'_> {
    type Out = ();

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<(), RunError> {
        let (l, data, stagger) = (&self.litmus, self.data, self.stagger);
        match l.workload {
            Workload::Bank => run_bank(l, sim, stm, data, stagger),
            Workload::Hashtable => run_hashtable(l, sim, stm, data, stagger),
            Workload::Stripes => {
                let kernel = self.stripes.expect("a stripes run carries its kernel");
                launch_txl(sim, &stm, kernel, l.grid(), &[(data, l.data_words())])
            }
            // Handled by `run_queue_blocking` before dispatch ever runs.
            Workload::Queue => unreachable!("queue litmus bypasses the generic dispatch"),
        }
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

/// Workload invariant over final device memory; `Some(message)` on
/// violation.
pub(crate) fn check_invariant(l: &Litmus, sim: &Sim, data: Addr) -> Option<String> {
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
