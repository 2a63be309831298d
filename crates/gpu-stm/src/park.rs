//! Blocking transactions: the wake policy of a [`Pipeline`] — `retry()` /
//! `or_else` composition over any [`Stm`], with an address-keyed waker
//! registry and true descheduling.
//!
//! A transaction that finds its precondition false (an empty queue, an
//! unset flag) calls [`Pipeline::retry`] instead of computing a result.
//! At [`Pipeline::commit_or_park`] the runtime then *blocks* the warp:
//! it registers the transaction on every address of its validated read
//! set in a striped [`WakerRegistry`], revalidates, and parks the warp on
//! the simulator's parked set — burning **zero** cycles — until some
//! commit overwrites a watched address. The abort-respin alternative
//! (spin: abort, re-run, observe the same state) burns cycles linearly in
//! the wait; the parked path shows up in the Figure-5-style breakdown as
//! [`Phase::Parked`] instead of `Aborted`.
//!
//! ## The lost-wakeup problem
//!
//! The wake path is commit-driven: under [`Wake::Respin`] or [`Wake::Park`]
//! every commit through the pipeline ([`Pipeline::commit_or_park`] and
//! plain [`Stm::commit`] alike) notifies the registry with the
//! committed write set, waking every parked transaction whose read set
//! intersects it. The classic hazard is the *lost wakeup*: a commit that
//! lands after the sleeper checked its condition but before it was
//! actually parked finds no waiter to wake, and the sleeper then parks
//! forever. The protocol here closes the window with three ordered steps
//! plus a ticket re-check:
//!
//! 1. **Snapshot** the notify tickets of the watched stripes.
//! 2. **Register** in the registry (host state first, then the
//!    device-visible stripe-word bump that model checkers interleave on).
//! 3. **Revalidate** the read set (value-based); any change means the
//!    condition may already hold — respin instead of parking.
//! 4. **Re-check the tickets in the same synchronous region that arms the
//!    park request.** The executor only switches warps at `await` points,
//!    so no notify can slip between the re-check and the warp actually
//!    leaving the run queue. A notify that raced with steps 2–3 fired our
//!    wake handle while we were still runnable — a no-op by design — but
//!    it cannot have avoided bumping the ticket, so step 4 catches it.
//!
//! The deliberately broken ordering — revalidate *before* registering and
//! skip the ticket re-check — is available as
//! [`BlockingMutation::lost_wakeup`] for verifier validation: `tm-verify`
//! must find the interleaving where a commit lands in the window and the
//! sleeper parks forever (surfacing as a parked-forever deadlock).

use crate::api::{lane_addrs, Stm};
use crate::config::StmConfig;
use crate::ledger::Ledger;
use crate::pipeline::Pipeline;
use crate::stats::Phase;
use crate::trace::TxEventKind;
use crate::validation::vbv;
use crate::warptx::WarpTx;
use gpu_sim::rng::mix64;
use gpu_sim::{
    Addr, AtomicOp, LaneMask, ParkOutcome, Sim, SimError, WakeHandle, WarpCtx, WARP_SIZE,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Number of stripes in the [`WakerRegistry`]; power of two.
pub const N_STRIPES: u32 = 64;

/// Budget handed to a park that the spurious-wake fault injection picked:
/// short enough to fire before any plausible real wake.
const SPURIOUS_BUDGET: u64 = 256;

/// Maps a data address to its registry stripe.
fn stripe_of(addr: Addr) -> u32 {
    (mix64(addr.0 as u64) & (N_STRIPES as u64 - 1)) as u32
}

/// Distinct, sorted stripes touched by a set of addresses.
fn stripes_of(addrs: &[Addr]) -> Vec<u32> {
    let mut s: Vec<u32> = addrs.iter().map(|a| stripe_of(*a)).collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// One registered sleeper: the addresses it watches and the handle that
/// makes its warp runnable again.
struct Waiter {
    key: u64,
    addrs: Vec<Addr>,
    stripes: Vec<u32>,
    handle: WakeHandle,
}

struct Stripe {
    /// Bumped by every notify that touches this stripe. Sleepers snapshot
    /// tickets before registering and re-check them just before parking:
    /// a changed ticket means a notify raced with their registration.
    ticket: u64,
    waiters: Vec<Rc<Waiter>>,
}

struct RegistryState {
    stripes: Vec<Stripe>,
    /// Distinct waiters currently registered (the parked-depth gauge).
    registered: usize,
    next_key: u64,
    park_seq: u64,
}

/// A striped, address-keyed registry of parked transactions.
///
/// Each waiter is indexed under every stripe its watched addresses hash
/// to; [`notify`](Self::notify) scans only the stripes of the committed
/// write set. Wake-up is *notify-all* at address granularity: every
/// waiter whose watched set intersects the written set is removed and its
/// [`WakeHandle`] fired (stripe aliasing never wakes anyone — stripes
/// only bound the scan and carry the race-detection tickets).
///
/// The registry owns `N_STRIPES` device words (one per stripe) that act
/// as *anchors* for interleaving exploration: registration atomically
/// bumps the words of its stripes, notification loads them, so a model
/// checker's conflict relation sees park/commit races even though the
/// waiter bookkeeping itself is host-side.
#[derive(Clone)]
pub struct WakerRegistry {
    words: Addr,
    st: Rc<RefCell<RegistryState>>,
}

impl std::fmt::Debug for WakerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakerRegistry")
            .field("parked_depth", &self.parked_depth())
            .finish_non_exhaustive()
    }
}

impl WakerRegistry {
    /// Allocates the registry's device stripe words on `sim`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the stripe words do not fit.
    pub fn new(sim: &mut Sim) -> Result<Self, SimError> {
        let words = sim.alloc(N_STRIPES)?;
        let stripes = (0..N_STRIPES).map(|_| Stripe { ticket: 0, waiters: Vec::new() }).collect();
        Ok(WakerRegistry {
            words,
            st: Rc::new(RefCell::new(RegistryState {
                stripes,
                registered: 0,
                next_key: 1,
                park_seq: 0,
            })),
        })
    }

    /// Device address of stripe `s`'s anchor word.
    fn word_addr(&self, s: u32) -> Addr {
        debug_assert!(s < N_STRIPES);
        self.words.offset(s)
    }

    /// Number of transactions currently registered (parked or about to
    /// park). Exported as the `parked_depth` gauge by observability
    /// layers.
    pub fn parked_depth(&self) -> usize {
        self.st.borrow().registered
    }

    /// Snapshot of the notify tickets of `stripes` (sorted, distinct).
    fn ticket_snapshot(&self, stripes: &[u32]) -> Vec<u64> {
        let st = self.st.borrow();
        stripes.iter().map(|&s| st.stripes[s as usize].ticket).collect()
    }

    /// Whether any ticket of `stripes` moved since `snap` was taken.
    fn tickets_changed(&self, stripes: &[u32], snap: &[u64]) -> bool {
        let st = self.st.borrow();
        stripes.iter().zip(snap).any(|(&s, &t0)| st.stripes[s as usize].ticket != t0)
    }

    /// Registers a waiter on `addrs` and returns its key. The caller must
    /// still bump the stripe anchor words on the device.
    fn register(&self, addrs: Vec<Addr>, handle: WakeHandle) -> u64 {
        let stripes = stripes_of(&addrs);
        let st = &mut *self.st.borrow_mut();
        let key = st.next_key;
        st.next_key += 1;
        let w = Rc::new(Waiter { key, addrs, stripes: stripes.clone(), handle });
        for s in &stripes {
            st.stripes[*s as usize].waiters.push(Rc::clone(&w));
        }
        st.registered += 1;
        key
    }

    /// Removes waiter `key` from every stripe it is indexed under.
    /// Idempotent: removing an already-notified (or never-registered) key
    /// is a no-op, so wake/unregister races are safe.
    fn unregister(&self, key: u64) -> bool {
        let st = &mut *self.st.borrow_mut();
        let mut found = false;
        for s in &mut st.stripes {
            let before = s.waiters.len();
            s.waiters.retain(|w| w.key != key);
            found |= s.waiters.len() != before;
        }
        if found {
            st.registered -= 1;
        }
        found
    }

    /// Notify-all for a committed write set: bumps the tickets of every
    /// touched stripe, removes every waiter whose watched addresses
    /// intersect `addrs`, and fires their wake handles. Returns the number
    /// of waiters woken. `addrs` must be sorted and distinct.
    pub fn notify(&self, addrs: &[Addr]) -> usize {
        let stripes = stripes_of(addrs);
        let mut woken: Vec<Rc<Waiter>> = Vec::new();
        {
            let st = &mut *self.st.borrow_mut();
            for &s in &stripes {
                st.stripes[s as usize].ticket += 1;
                for w in &st.stripes[s as usize].waiters {
                    if woken.iter().any(|x| x.key == w.key) {
                        continue;
                    }
                    if w.addrs.iter().any(|a| addrs.binary_search_by_key(&a.0, |x| x.0).is_ok()) {
                        woken.push(Rc::clone(w));
                    }
                }
            }
            for w in &woken {
                for &s in &w.stripes {
                    st.stripes[s as usize].waiters.retain(|x| x.key != w.key);
                }
                st.registered -= 1;
            }
        }
        // Handles fire outside the registry borrow: a wake enqueue only
        // touches the executor's wake queue, but keeping the borrow
        // windows disjoint is cheap insurance.
        for w in &woken {
            w.handle.wake();
        }
        woken.len()
    }

    /// Monotonic sequence for the deterministic spurious-wake draw.
    fn next_park_seq(&self) -> u64 {
        let st = &mut *self.st.borrow_mut();
        st.park_seq += 1;
        st.park_seq
    }
}

/// Deliberately seeded blocking bugs, used to validate the verifier (see
/// [`Mutation`](crate::Mutation) for the commit-path equivalents).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockingMutation {
    /// Revalidate *before* registering in the waker registry and skip the
    /// pre-park ticket re-check — the textbook lost-wakeup window. A
    /// commit that lands between the revalidation and the registration
    /// finds no waiter to wake, and the sleeper parks forever; under the
    /// right interleaving the run ends in a parked-forever deadlock that
    /// `tm-verify` must reach and minimize.
    pub lost_wakeup: bool,
}

impl BlockingMutation {
    /// True when any mutation is enabled.
    pub fn any(&self) -> bool {
        self.lost_wakeup
    }
}

/// Resolution of one [`Pipeline::commit_or_park`] call, per lane.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TxOutcome {
    /// Lanes whose transaction committed.
    pub committed: LaneMask,
    /// Lanes that aborted (or fell back from an ineligible `retry()`) and
    /// must re-run their transaction.
    pub aborted: LaneMask,
    /// Lanes that parked on their read set and have since been woken (or
    /// timed out): the watched state may have changed, so they must
    /// re-run their transaction. Unlike `aborted` these lanes burned
    /// ~zero cycles while waiting and are *not* counted as aborts.
    pub parked: LaneMask,
}

impl TxOutcome {
    /// Lanes that must re-run their transaction.
    pub fn respin(&self) -> LaneMask {
        self.aborted | self.parked
    }
}

/// The wake policy of a [`Pipeline`]: blocking `retry()` and the
/// commit-side notify that ends a park.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Wake {
    /// No waker registry: [`Pipeline::commit_or_park`] resolves every
    /// `retry()` lane as abort-respin.
    #[default]
    Off,
    /// Commits notify the registry, but `retry()` lanes abort-respin
    /// instead of parking. This is the baseline the benches compare
    /// against — identical workload, the waiting lanes just spin through
    /// aborts instead of descheduling.
    Respin,
    /// `retry()` lanes park on their validated read set until a commit
    /// overwrites a watched address.
    Park,
}

/// The wake policy's state: the registry every commit notifies, the
/// park knobs taken from [`StmConfig`], and the seeded mutation.
#[derive(Clone, Debug)]
pub(crate) struct Parking {
    registry: WakerRegistry,
    max_parked: u32,
    budget: u64,
    spurious_rate: u32,
    /// False under [`Wake::Respin`].
    park: bool,
    pub(crate) mutation: BlockingMutation,
}

impl Parking {
    /// Allocates the registry's device anchor words on `sim`. The park
    /// knobs (`max_parked_per_warp`, `park_budget_cycles`,
    /// `spurious_wake_rate`) come from a `cfg` that passed
    /// [`StmConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the anchor words do not fit.
    pub(crate) fn new(sim: &mut Sim, cfg: &StmConfig, park: bool) -> Result<Self, SimError> {
        Ok(Parking {
            registry: WakerRegistry::new(sim)?,
            max_parked: cfg.max_parked_per_warp,
            budget: cfg.park_budget_cycles,
            spurious_rate: cfg.spurious_wake_rate,
            park,
            mutation: BlockingMutation::default(),
        })
    }

    /// Captures each lane's write addresses up front: a successful commit
    /// resets its lanes, taking the write-set with it.
    pub(crate) fn capture(w: &WarpTx, mask: LaneMask) -> Vec<(usize, Vec<Addr>)> {
        mask.iter().map(|l| (l, w.writes.iter_lane(l).map(|e| e.addr).collect())).collect()
    }

    /// Wakes the sleepers watching what the `committed` lanes of
    /// `captured` wrote.
    pub(crate) async fn notify(
        &self,
        ctx: &WarpCtx,
        captured: Vec<(usize, Vec<Addr>)>,
        committed: LaneMask,
    ) {
        if committed.none() {
            return;
        }
        let mut addrs: Vec<Addr> = captured
            .into_iter()
            .filter(|(l, _)| committed.contains(*l))
            .flat_map(|(_, a)| a)
            .collect();
        addrs.sort_unstable_by_key(|a| a.0);
        addrs.dedup();
        if addrs.is_empty() {
            return; // read-only commits wake nobody
        }

        // Host-side delivery happens *before* the anchor's yield point:
        // by the time any other warp runs, the registry already reflects
        // this notify.
        self.registry.notify(&addrs);

        // Device anchor: load the touched stripe words. The Load
        // conflicts with the register path's Atomic bump, making the
        // park/commit race visible to interleaving exploration.
        let stripes = stripes_of(&addrs);
        for chunk in stripes.chunks(WARP_SIZE) {
            let m = LaneMask::first_n(chunk.len());
            let a = lane_addrs(m, |l| self.registry.word_addr(chunk[l]));
            let _ = ctx.load(m, &a).await;
        }
    }

    /// Bumps the anchor words of `stripes` — the device-visible side of a
    /// registration.
    async fn anchor_register(&self, ctx: &WarpCtx, stripes: &[u32]) {
        for chunk in stripes.chunks(WARP_SIZE) {
            let m = LaneMask::first_n(chunk.len());
            let a = lane_addrs(m, |l| self.registry.word_addr(chunk[l]));
            let ones = [1u32; WARP_SIZE];
            ctx.atomic_rmw(m, AtomicOp::Add, &a, &ones).await;
        }
    }

    /// Parks `lanes` (all opaque, non-empty read sets) until a watched
    /// address is overwritten. Returns `(parked, respun)`: lanes that
    /// actually slept and were woken, and lanes returned unslept because
    /// the pre-park revalidation or ticket re-check saw the condition
    /// already signalled. Both sets are reset for their respin.
    async fn park_lanes(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        lanes: LaneMask,
        ledger: &Ledger,
    ) -> (LaneMask, LaneMask) {
        // The warp-wide watch set: the union of the parking lanes' read
        // sets. Any watched write wakes the warp; each lane then respins
        // and re-checks its own precondition.
        let mut watched: Vec<Addr> = lanes
            .iter()
            .flat_map(|l| w.reads.iter_lane(l).map(|e| e.addr).collect::<Vec<_>>())
            .collect();
        watched.sort_unstable_by_key(|a| a.0);
        watched.dedup();
        let stripes = stripes_of(&watched);
        let handle = ctx.wake_handle();
        let seed = ctx.id().thread_id(lanes.leader().unwrap_or(0)) as u64;

        loop {
            let key;
            if self.mutation.lost_wakeup {
                // MUTANT: revalidate first, register second, park with no
                // ticket re-check. A commit landing between the two steps
                // wakes nobody — the lost-wakeup window tm-verify must hit.
                w.enter_phase(ctx.now(), Phase::Consistency);
                let failed = vbv(w, ctx, lanes).await;
                w.enter_phase(ctx.now(), Phase::Native);
                if failed.any() {
                    for l in lanes.iter() {
                        w.reset_lane(l);
                    }
                    return (LaneMask::EMPTY, lanes);
                }
                key = self.registry.register(watched.clone(), handle.clone());
                self.anchor_register(ctx, &stripes).await;
            } else {
                // 1. Snapshot the notify tickets of the watched stripes.
                let snap = self.registry.ticket_snapshot(&stripes);
                // 2. Register (host), then bump the anchors (device).
                key = self.registry.register(watched.clone(), handle.clone());
                self.anchor_register(ctx, &stripes).await;
                // 3. Revalidate: a changed read means the precondition may
                //    already hold — respin instead of sleeping on it.
                w.enter_phase(ctx.now(), Phase::Consistency);
                let failed = vbv(w, ctx, lanes).await;
                w.enter_phase(ctx.now(), Phase::Native);
                if failed.any() {
                    self.registry.unregister(key);
                    for l in lanes.iter() {
                        w.reset_lane(l);
                    }
                    return (LaneMask::EMPTY, lanes);
                }
                // 4. Ticket re-check, in the same synchronous region that
                //    arms the park below (no await separates them): any
                //    notify that raced with steps 2–3 bumped a ticket.
                if self.registry.tickets_changed(&stripes, &snap) {
                    self.registry.unregister(key);
                    for l in lanes.iter() {
                        w.reset_lane(l);
                    }
                    return (LaneMask::EMPTY, lanes);
                }
            }

            // Spurious-wake fault injection: a per-mille draw swaps in a
            // budget short enough to fire before any plausible real wake.
            let budget = if self.spurious_rate > 0
                && mix64(seed ^ self.registry.next_park_seq().wrapping_mul(0x517c_c1b7_2722_0a95))
                    % 1000
                    < self.spurious_rate as u64
            {
                SPURIOUS_BUDGET
            } else {
                self.budget
            };

            ledger.stats.borrow_mut().parks += lanes.count() as u64;
            ledger.emit(
                ctx,
                TxEventKind::Park { lanes: lanes.count(), watched: watched.len() as u32 },
            );
            w.enter_phase(ctx.now(), Phase::Parked);
            let outcome = ctx.park(lanes, &watched, budget).await;
            w.enter_phase(ctx.now(), Phase::Native);
            ledger.stats.borrow_mut().wakes += lanes.count() as u64;
            ledger.emit(ctx, TxEventKind::Wake { timed_out: outcome == ParkOutcome::TimedOut });

            match outcome {
                ParkOutcome::Woken => {
                    // The notify that woke us already removed the
                    // registration; the extra unregister is an idempotent
                    // no-op kept for the mutant path.
                    self.registry.unregister(key);
                    for l in lanes.iter() {
                        w.reset_lane(l);
                    }
                    return (lanes, LaneMask::EMPTY);
                }
                ParkOutcome::TimedOut => {
                    self.registry.unregister(key);
                    // Budget expired (or injected spurious wake): if the
                    // watched values changed we treat it as a late wake;
                    // otherwise count a spurious wake and go back to sleep.
                    w.enter_phase(ctx.now(), Phase::Consistency);
                    let failed = vbv(w, ctx, lanes).await;
                    w.enter_phase(ctx.now(), Phase::Native);
                    if failed.any() {
                        for l in lanes.iter() {
                            w.reset_lane(l);
                        }
                        return (lanes, LaneMask::EMPTY);
                    }
                    ledger.stats.borrow_mut().spurious_wakes += lanes.count() as u64;
                    ledger.emit(ctx, TxEventKind::SpuriousWake);
                    // Loop: re-register and re-park.
                }
            }
        }
    }
}

impl<S: Stm> Pipeline<S> {
    /// Declares that the lanes of `lanes` found their precondition false:
    /// at [`commit_or_park`](Self::commit_or_park) they will block until
    /// an address of their read set is overwritten, instead of
    /// committing. A subsequent [`or_else`](Self::or_else) cancels the
    /// request and runs an alternative.
    pub fn retry(&self, w: &mut WarpTx, lanes: LaneMask) {
        w.retrying |= lanes;
    }

    /// `or_else` composition: cancels a pending `retry()` on `lanes` so
    /// an alternative branch can run in the *same* transaction. The
    /// abandoned branch's buffered writes are discarded; its **reads are
    /// kept** — the alternative's consistency (and any later park's
    /// watch set) covers the addresses whose values routed control flow
    /// away from the first branch. Returns the lanes that actually had a
    /// pending retry.
    pub fn or_else(&self, w: &mut WarpTx, lanes: LaneMask) -> LaneMask {
        let taken = w.retrying & lanes;
        w.retrying &= !taken;
        for l in taken.iter() {
            w.writes.clear_lane(l);
        }
        taken
    }

    /// Commit with blocking semantics: non-retrying lanes commit (and
    /// notify sleepers); retrying lanes park on their validated read set
    /// until a commit overwrites a watched address. Lanes return in
    /// exactly one of the three [`TxOutcome`] masks.
    ///
    /// A retry lane falls back to abort-respin (the `aborted` mask)
    /// instead of parking when it is doomed (non-opaque), its read set is
    /// empty (nothing to watch — statically unwakeable) or larger than
    /// `max_parked_per_warp`, parking is not [`Wake::Park`], or a
    /// same-warp lane needs to respin (a warp parks as a unit, so one
    /// respinning lane keeps the whole warp runnable).
    pub async fn commit_or_park(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> TxOutcome {
        let retrying = w.retrying & mask;
        w.retrying &= !retrying;
        let committing = mask & !retrying;
        let committed = self.commit(w, ctx, committing).await;
        let mut aborted = committing & !committed;

        if retrying.none() {
            return TxOutcome { committed, aborted, parked: LaneMask::EMPTY };
        }

        // Doomed retry lanes observed an inconsistent snapshot: their
        // precondition was computed from garbage, so they respin (their
        // abort was already recorded at read time).
        let doomed = retrying & !w.opaque;
        let mut eligible = retrying & !doomed;

        // Nothing to watch, or too much: fall back to abort-respin.
        let parking = self.wake.as_ref().filter(|p| p.park);
        let fallback = eligible.filter(|l| {
            let n = w.reads.len(l);
            n == 0 || parking.is_some_and(|p| n > p.max_parked as usize)
        });
        eligible &= !fallback;

        let mut respin = doomed | fallback;
        // One respinning lane keeps the warp runnable; parking the
        // eligible lanes anyway would deschedule it. Respin everyone —
        // semantically a spurious wake, which callers must tolerate.
        if parking.is_none() || aborted.any() || respin.any() {
            respin |= eligible;
            eligible = LaneMask::EMPTY;
        }
        for l in respin.iter() {
            w.reset_lane(l);
        }
        aborted |= respin;

        let parked = match parking {
            Some(p) if eligible.any() => {
                let (parked, pre_respin) = p.park_lanes(w, ctx, eligible, &self.ledger).await;
                aborted |= pre_respin;
                parked
            }
            _ => LaneMask::EMPTY,
        };

        // Drain the wait span (and any straggler native time) into the
        // breakdown. Retry respins are voluntary, not aborts, so they do
        // not enter the proportional committed/aborted split.
        w.flush_attempt(&mut self.ledger.stats.borrow_mut().breakdown, 0, 0);
        TxOutcome { committed, aborted, parked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Policies;
    use crate::shared::StmShared;
    use crate::variants::LockStm;
    use gpu_sim::{LaunchConfig, SimConfig};

    fn setup_with(cfg: &StmConfig, wake: Wake) -> (Sim, Pipeline<LockStm>) {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
        let shared = StmShared::init(&mut sim, cfg).unwrap();
        let policies = Policies { wake, ..Policies::default() };
        let stm =
            Pipeline::new(&mut sim, LockStm::hv_sorting(shared, *cfg), cfg, policies).unwrap();
        (sim, stm)
    }

    fn setup(cfg: &StmConfig) -> (Sim, Pipeline<LockStm>) {
        setup_with(cfg, Wake::Park)
    }

    fn registry(stm: &Pipeline<LockStm>) -> &WakerRegistry {
        &stm.wake.as_ref().expect("wake policy is on").registry
    }

    fn small_cfg() -> StmConfig {
        StmConfig::new(1 << 8)
    }

    /// Warp 0 lane 0 blocks until `flag` is non-zero, then writes
    /// `flag + 41` to `out`; warp 1 lane 0 sets the flag after a delay.
    fn producer_consumer(stm: &Pipeline<LockStm>, sim: &mut Sim) -> (Addr, Addr, u64) {
        let flag = sim.alloc(1).unwrap();
        let out = sim.alloc(1).unwrap();
        let stm = stm.clone();
        let report = sim
            .launch(LaunchConfig::new(1, 64), move |ctx| {
                let stm = stm.clone();
                async move {
                    let mut w = stm.new_warp();
                    let lane = 0usize;
                    let m = LaneMask::lane(lane);
                    if ctx.id().warp_in_block == 0 {
                        let mut pending = m;
                        while pending.any() {
                            let active = stm.begin(&mut w, &ctx, pending).await;
                            let v = stm.read_one(&mut w, &ctx, lane, flag).await;
                            if v == 0 {
                                stm.retry(&mut w, m);
                            } else {
                                stm.write_one(&mut w, &ctx, lane, out, v + 41).await;
                            }
                            let o = stm.commit_or_park(&mut w, &ctx, active).await;
                            pending &= !o.committed;
                        }
                    } else {
                        ctx.idle(3000).await;
                        let mut pending = m;
                        while pending.any() {
                            let active = stm.begin(&mut w, &ctx, pending).await;
                            stm.write_one(&mut w, &ctx, lane, flag, 1).await;
                            let o = stm.commit_or_park(&mut w, &ctx, active).await;
                            pending &= !o.committed;
                        }
                    }
                }
            })
            .unwrap();
        (flag, out, report.stats.parks)
    }

    #[test]
    fn blocked_consumer_wakes_on_producer_commit() {
        let cfg = small_cfg();
        let (mut sim, stm) = setup(&cfg);
        let (flag, out, sim_parks) = producer_consumer(&stm, &mut sim);
        assert_eq!(sim.read(flag), 1);
        assert_eq!(sim.read(out), 42);
        assert!(sim_parks >= 1, "consumer never parked");
        let st = stm.stats();
        let st = st.borrow();
        assert!(st.parks >= 1, "tx parks not counted");
        assert_eq!(st.parks, st.wakes, "every park must resolve in a wake");
        assert_eq!(st.spurious_wakes, 0);
        assert_eq!(registry(&stm).parked_depth(), 0, "registry must drain");
    }

    #[test]
    fn parked_consumer_burns_fewer_cycles_than_respin_baseline() {
        let cfg = small_cfg();
        let run = |park: bool| {
            let (mut sim, stm) = setup_with(&cfg, if park { Wake::Park } else { Wake::Respin });
            producer_consumer(&stm, &mut sim);
            let st = stm.stats();
            let st = st.borrow();
            let parked = st.breakdown.get(Phase::Parked);
            let aborted = st.breakdown.get(Phase::Aborted);
            (st.parks, st.aborts, parked, aborted)
        };
        let (parks, _, parked_cycles, _) = run(true);
        let (baseline_parks, _, _, _) = run(false);
        assert!(parks >= 1);
        assert_eq!(baseline_parks, 0, "baseline must never park");
        assert!(parked_cycles > 0.0, "the wait must be attributed to the Parked phase");
    }

    #[test]
    fn empty_read_set_retry_falls_back_to_abort_respin() {
        let cfg = small_cfg();
        let (mut sim, stm) = setup(&cfg);
        let probe = sim.alloc(1).unwrap();
        let k = stm.clone();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = k.clone();
            async move {
                let mut w = stm.new_warp();
                let m = LaneMask::lane(0);
                let active = stm.begin(&mut w, &ctx, m).await;
                stm.retry(&mut w, m); // nothing read: unwakeable
                let o = stm.commit_or_park(&mut w, &ctx, active).await;
                assert_eq!(o.aborted, m, "empty read set must fall back");
                assert_eq!(o.parked, LaneMask::EMPTY);
                // The lane can immediately run a normal transaction.
                let active = stm.begin(&mut w, &ctx, m).await;
                stm.write_one(&mut w, &ctx, 0, probe, 9).await;
                let o = stm.commit_or_park(&mut w, &ctx, active).await;
                assert_eq!(o.committed, m);
            }
        })
        .unwrap();
        assert_eq!(sim.read(probe), 9);
        assert_eq!(stm.stats().borrow().parks, 0);
    }

    #[test]
    fn oversized_read_set_falls_back() {
        let mut cfg = small_cfg();
        cfg.max_parked_per_warp = 2;
        let (mut sim, stm) = setup(&cfg);
        let buf = sim.alloc(4).unwrap();
        let k = stm.clone();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = k.clone();
            async move {
                let mut w = stm.new_warp();
                let m = LaneMask::lane(0);
                let active = stm.begin(&mut w, &ctx, m).await;
                for i in 0..3 {
                    let _ = stm.read_one(&mut w, &ctx, 0, buf.offset(i)).await;
                }
                stm.retry(&mut w, m);
                let o = stm.commit_or_park(&mut w, &ctx, active).await;
                assert_eq!(o.aborted, m, "3 reads > max_parked_per_warp=2");
            }
        })
        .unwrap();
        assert_eq!(stm.stats().borrow().parks, 0);
    }

    #[test]
    fn or_else_runs_alternative_and_discards_first_branch_writes() {
        let cfg = small_cfg();
        let (mut sim, stm) = setup(&cfg);
        let gate = sim.alloc(1).unwrap(); // stays 0: first branch blocked
        let a = sim.alloc(1).unwrap();
        let b = sim.alloc(1).unwrap();
        let k = stm.clone();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = k.clone();
            async move {
                let mut w = stm.new_warp();
                let m = LaneMask::lane(0);
                let active = stm.begin(&mut w, &ctx, m).await;
                // First alternative: needs the gate open.
                let g = stm.read_one(&mut w, &ctx, 0, gate).await;
                stm.write_one(&mut w, &ctx, 0, a, 1).await; // speculative
                if g == 0 {
                    stm.retry(&mut w, m);
                }
                // Second alternative: unconditional.
                let took = stm.or_else(&mut w, m);
                assert_eq!(took, m);
                stm.write_one(&mut w, &ctx, 0, b, 7).await;
                let o = stm.commit_or_park(&mut w, &ctx, active).await;
                assert_eq!(o.committed, m);
            }
        })
        .unwrap();
        assert_eq!(sim.read(a), 0, "first branch's write must be discarded");
        assert_eq!(sim.read(b), 7);
        assert_eq!(stm.stats().borrow().parks, 0, "or_else must prevent the park");
    }

    #[test]
    fn spurious_wakes_revalidate_and_repark_until_real_wake() {
        let mut cfg = small_cfg();
        cfg.spurious_wake_rate = 1000; // every park draws the short budget
        let (mut sim, stm) = setup(&cfg);
        let (flag, out, _) = producer_consumer(&stm, &mut sim);
        assert_eq!(sim.read(flag), 1);
        assert_eq!(sim.read(out), 42);
        let st = stm.stats();
        let st = st.borrow();
        assert!(
            st.spurious_wakes >= 1,
            "rate=1000 with a 3000-cycle producer delay must fire at least one \
             spurious wake (parks={}, wakes={})",
            st.parks,
            st.wakes
        );
        assert_eq!(st.parks, st.wakes, "every park resolves in some wake");
        assert!(st.parks >= st.spurious_wakes);
    }

    #[test]
    fn wrapper_delegates_plain_stm_surface() {
        let cfg = small_cfg();
        let (mut sim, stm) = setup(&cfg);
        assert_eq!(stm.name(), "STM-HV-Sorting");
        assert!(!stm.abort_storm());
        assert!(!stm.wake.as_ref().unwrap().mutation.any());
        let cell = sim.alloc(1).unwrap();
        let k = stm.clone();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = k.clone();
            async move {
                let mut w = stm.new_warp();
                let m = LaneMask::lane(0);
                let active = stm.begin(&mut w, &ctx, m).await;
                let v = stm.read_one(&mut w, &ctx, 0, cell).await;
                stm.write_one(&mut w, &ctx, 0, cell, v + 5).await;
                let committed = stm.commit(&mut w, &ctx, active).await;
                assert_eq!(committed, m);
            }
        })
        .unwrap();
        assert_eq!(sim.read(cell), 5);
    }

    #[test]
    fn registry_notify_is_address_precise_not_stripe_aliased() {
        // Two addresses in the same stripe: a notify on one must not wake
        // a waiter on the other (stripes bound the scan, addresses gate
        // the wake). Find an aliasing pair by brute force.
        let mut a = Addr(1);
        let mut b = Addr(2);
        'search: for i in 1..1024u32 {
            for j in (i + 1)..1024u32 {
                if stripe_of(Addr(i)) == stripe_of(Addr(j)) {
                    a = Addr(i);
                    b = Addr(j);
                    break 'search;
                }
            }
        }
        assert_eq!(stripe_of(a), stripe_of(b));

        let cfg = small_cfg();
        let (mut sim, stm) = setup(&cfg);
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = Rc::clone(&done);
        let k = stm.clone();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = k.clone();
            let done = Rc::clone(&d2);
            async move {
                let reg = registry(&stm).clone();
                let key = reg.register(vec![a], ctx.wake_handle());
                assert_eq!(reg.parked_depth(), 1);
                assert_eq!(reg.notify(&[b]), 0, "stripe alias must not wake");
                assert_eq!(reg.parked_depth(), 1);
                assert_eq!(reg.notify(&[a]), 1);
                assert_eq!(reg.parked_depth(), 0);
                assert!(!reg.unregister(key), "notify already removed the waiter");
                done.set(true);
            }
        })
        .unwrap();
        assert!(done.get());
    }

    #[test]
    fn mutation_gate_plumbs_through() {
        let cfg = small_cfg();
        let (_sim, stm) = setup(&cfg);
        let stm = stm.with_mutation(BlockingMutation { lost_wakeup: true });
        let mutation = stm.wake.as_ref().unwrap().mutation;
        assert!(mutation.any());
        assert!(mutation.lost_wakeup);
    }
}
