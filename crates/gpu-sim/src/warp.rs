//! The warp-wide kernel programming interface.
//!
//! Kernels are written in *warp-synchronous* style, the same discipline CUDA
//! warp-level programming uses: one [`WarpCtx`] represents a whole warp, and
//! every operation takes a [`LaneMask`] naming the active lanes. Each
//! `await` is one warp instruction executed in lockstep by those lanes —
//! exactly the granularity at which the paper's Algorithm 3 is specified.
//!
//! Lane-divergent control flow is expressed by narrowing masks (see
//! [`crate::simt`] for structured helpers); because a masked-off lane simply
//! does not participate in subsequent instructions until its sub-mask is
//! re-activated, the model reproduces SIMT pathologies such as the
//! spin-lock deadlock and multi-lock livelock of the paper's Section 2.2.

use crate::cache::CacheOutcome;
use crate::coalesce::{atomic_conflict_depth, coalesce, coalesce_uniform};
use crate::exec::{SimState, WarpId};
use crate::mask::{LaneMask, WARP_SIZE};
use crate::memory::{Addr, AtomicOp};
use crate::schedule::{effect_addrs, StepEffect};
use crate::trace::{MemOp, SimEventKind};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// Per-lane values for one warp instruction (one slot per lane).
pub type LaneVals = [u32; WARP_SIZE];
/// Per-lane addresses for one warp instruction.
pub type LaneAddrs = [Addr; WARP_SIZE];

/// What passes between the event loop and the one warp it is polling: the
/// cycles the warp's instruction costs, and the park/wake handshake. One
/// per launch serves every warp, because warps only run one at a time and
/// the loop empties it after each poll.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Cycles charged by the instruction just issued.
    pub(crate) cost: Cell<u64>,
    /// [`WarpCtx::park`] writes `Request` and the executor moves the warp
    /// onto the parked set; when it resumes the warp, the executor writes
    /// `Woken`/`TimedOut` here just before the poll.
    pub(crate) park: Cell<ParkSignal>,
}

/// Park/wake handshake between a warp and the event loop.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) enum ParkSignal {
    /// No park in flight.
    #[default]
    None,
    /// The warp asked to park until `deadline` (`u64::MAX` = no timeout).
    Request {
        /// Absolute cycle at which the park times out.
        deadline: u64,
    },
    /// The executor woke the warp because a [`WakeHandle`] fired.
    Woken,
    /// The executor woke the warp because its park budget expired.
    TimedOut,
}

/// Why a parked warp resumed (the return value of [`WarpCtx::park`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParkOutcome {
    /// A [`WakeHandle`] for this warp fired (a committer touched a watched
    /// address, or an injected spurious wake).
    Woken,
    /// The park budget expired with no wake: the caller must re-check its
    /// condition (a timeout is indistinguishable from a spurious wake).
    TimedOut,
}

/// A host-side handle that makes one parked warp runnable again.
///
/// Obtained from [`WarpCtx::wake_handle`] *by the warp that will park* and
/// handed to whoever watches for the wake condition (e.g. an address-keyed
/// waker registry). Firing it is idempotent and cheap; waking a warp that
/// is not parked is a no-op at the executor (the wake is consumed and
/// dropped), so wake/park races are safe by construction.
#[derive(Clone, Debug)]
pub struct WakeHandle {
    queue: Rc<RefCell<Vec<usize>>>,
    pslot: usize,
}

impl WakeHandle {
    /// Enqueues a wake for the associated warp. Delivered by the event
    /// loop before its next scheduling decision.
    pub fn wake(&self) {
        self.queue.borrow_mut().push(self.pslot);
    }
}

/// Handle through which a warp issues instructions to the simulator.
///
/// Obtained as the argument of the kernel closure passed to
/// [`Sim::launch`](crate::Sim::launch). Cheap to clone (it is a pair of
/// reference-counted pointers).
#[derive(Clone)]
pub struct WarpCtx {
    st: Rc<RefCell<SimState>>,
    id: WarpId,
    mailbox: Rc<Mailbox>,
    /// Index of this warp's entry on the launch's progress board.
    pslot: usize,
}

impl std::fmt::Debug for WarpCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpCtx").field("id", &self.id).finish_non_exhaustive()
    }
}

#[derive(Copy, Clone)]
enum MemKind {
    Load,
    Store,
    Atomic,
}

impl WarpCtx {
    pub(crate) fn new(
        st: Rc<RefCell<SimState>>,
        id: WarpId,
        mailbox: Rc<Mailbox>,
        pslot: usize,
    ) -> Self {
        WarpCtx { st, id, mailbox, pslot }
    }

    /// This warp's identity (block, warp index, launch mask, thread ids).
    pub fn id(&self) -> WarpId {
        self.id
    }

    /// Current simulated cycle (the issue time of the next instruction).
    pub fn now(&self) -> u64 {
        self.st.borrow().now
    }

    /// Executes one warp instruction of the lanes in `mask`: counts it,
    /// then runs `op` — its cache and timing charge, its memory effect and
    /// its observer hooks — under the instruction's only borrow of the
    /// simulator state. Returns what `op` returns (the cycle cost, and the
    /// loaded value where there is one).
    fn issue<R>(&self, mask: LaneMask, op: impl FnOnce(&mut SimState) -> R) -> R {
        let st = &mut *self.st.borrow_mut();
        st.stats.instructions += 1;
        st.stats.active_lanes += mask.count() as u64;
        st.stats.lane_slots += WARP_SIZE as u64;
        if mask != self.id.launch_mask && mask.any() {
            st.stats.divergent_instructions += 1;
        }
        st.progress.warps[self.pslot].instructions += 1;
        op(st)
    }

    /// Declares that this warp made forward progress (e.g. committed a
    /// transaction or completed a work item). The progress monitor uses
    /// these marks to tell a kernel that is merely slow
    /// ([`SimError::BudgetExceeded`](crate::SimError::BudgetExceeded))
    /// from one that is deadlocked or livelocked; see
    /// [`SimConfig::stall_cycles`](crate::SimConfig::stall_cycles).
    pub fn mark_progress(&self) {
        let st = &mut *self.st.borrow_mut();
        let now = st.now;
        st.progress.mark(self.pslot, now);
    }

    /// Records a device-memory mutation (a word actually changed value)
    /// for deadlock/livelock discrimination, given the mutation counter
    /// observed before the operation.
    fn note_mutation(st: &mut SimState, mutations_before: u64) {
        if st.mem.mutations() != mutations_before {
            let now = st.now;
            st.progress.last_mutation_cycle = st.progress.last_mutation_cycle.max(now);
        }
    }

    /// Marks the warp's subsequent accesses as speculative (inside a
    /// transaction) or not, for happens-before race classification: a
    /// conflict where *both* sides are speculative is the STM's to
    /// resolve (validation/abort), while a speculative/non-speculative
    /// conflict is the weak-isolation hazard the detector reports. A
    /// no-op when no race sink is configured; never charges cycles.
    pub fn set_speculative(&self, on: bool) {
        let st = &mut *self.st.borrow_mut();
        if let Some(r) = st.race.as_mut() {
            r.set_speculative(self.pslot, self.id, on);
        }
    }

    fn charge(&self, cost: u64) -> YieldOnce {
        self.mailbox.cost.set(self.mailbox.cost.get() + cost);
        YieldOnce(false)
    }

    /// Sends the `segments` of one memory instruction through the L2 and
    /// returns its latency (`depth` is the same-word contention of an
    /// atomic, unused otherwise).
    fn mem_access(
        &self,
        st: &mut SimState,
        kind: MemKind,
        mask: LaneMask,
        segments: &[u32],
        depth: u32,
    ) -> u64 {
        let transactions = segments.len() as u32;
        let mut misses = 0u32;
        for &s in segments {
            misses += u32::from(st.cache.access(s) == CacheOutcome::Miss);
        }
        let hits = transactions - misses;
        st.stats.mem_transactions += transactions as u64;
        st.stats.uncoalesced_transactions += mask.count() as u64;
        st.stats.l2_hits += hits as u64;
        st.stats.l2_misses += misses as u64;
        let op = match kind {
            MemKind::Load => {
                st.stats.loads += 1;
                MemOp::Load
            }
            MemKind::Store => {
                st.stats.stores += 1;
                MemOp::Store
            }
            MemKind::Atomic => {
                st.stats.atomics += 1;
                MemOp::Atomic
            }
        };
        st.emit(
            self.id.block,
            self.id.warp_in_block,
            SimEventKind::Mem {
                op,
                lanes: mask.count(),
                transactions,
                l2_hits: hits,
                l2_misses: misses,
            },
        );
        match kind {
            MemKind::Atomic => st.timing.atomic_cost(transactions, depth),
            _ => st.timing.memory_cost(transactions, misses > 0),
        }
    }

    /// The observer half of a memory instruction: feeds the race detector
    /// and records the [`StepEffect`] for the schedule policy, its
    /// addresses in the simulator's one reused buffer. Does nothing when
    /// neither is attached.
    fn observe_access(&self, st: &mut SimState, kind: MemKind, mask: LaneMask, addrs: &LaneAddrs) {
        if let Some(r) = st.race.as_mut() {
            for lane in mask.iter() {
                let (l, a) = (lane as u32, addrs[lane]);
                match kind {
                    MemKind::Load => r.on_read(self.pslot, self.id, l, a, st.now),
                    MemKind::Store => r.on_write(self.pslot, self.id, l, a, st.now),
                    MemKind::Atomic => r.on_atomic(self.pslot, self.id, a, st.now),
                }
            }
        }
        if st.observe_effects {
            effect_addrs(mask, addrs, &mut st.effect_addrs);
            st.last_effect = Some(match kind {
                MemKind::Load => StepEffect::Load,
                MemKind::Store => StepEffect::Store,
                MemKind::Atomic => StepEffect::Atomic,
            });
        }
    }

    /// Warp load: each active lane reads its address. Returns per-lane
    /// values (inactive lanes read 0).
    pub async fn load(&self, mask: LaneMask, addrs: &LaneAddrs) -> LaneVals {
        let (cost, out) = self.issue(mask, |st| {
            let co = coalesce(mask, addrs);
            let cost = self.mem_access(st, MemKind::Load, mask, co.segments(), 0);
            let mut out = [0u32; WARP_SIZE];
            for lane in mask.iter() {
                out[lane] = st.mem.read(addrs[lane]);
            }
            self.observe_access(st, MemKind::Load, mask, addrs);
            (cost, out)
        });
        self.charge(cost).await;
        out
    }

    /// Warp load where every active lane reads the same address
    /// (a hardware broadcast). Returns the value.
    pub async fn load_uniform(&self, mask: LaneMask, addr: Addr) -> u32 {
        let (cost, v) = self.issue(mask, |st| {
            let co = coalesce_uniform(mask, addr);
            let cost = self.mem_access(st, MemKind::Load, mask, co.segments(), 0);
            if let Some(r) = st.race.as_mut() {
                let lane = mask.iter().next().unwrap_or(0) as u32;
                r.on_read(self.pslot, self.id, lane, addr, st.now);
            }
            if st.observe_effects {
                st.effect_addrs.clear();
                st.effect_addrs.push(addr);
                st.last_effect = Some(StepEffect::Load);
            }
            (cost, st.mem.read(addr))
        });
        self.charge(cost).await;
        v
    }

    /// Warp store: each active lane writes its value to its address.
    /// If several active lanes target the same word, the highest lane wins
    /// (hardware leaves the winner unspecified; we fix lane order for
    /// determinism).
    pub async fn store(&self, mask: LaneMask, addrs: &LaneAddrs, vals: &LaneVals) {
        let cost = self.issue(mask, |st| {
            let co = coalesce(mask, addrs);
            let cost = self.mem_access(st, MemKind::Store, mask, co.segments(), 0);
            let m0 = st.mem.mutations();
            for lane in mask.iter() {
                st.mem.write(addrs[lane], vals[lane]);
            }
            Self::note_mutation(st, m0);
            self.observe_access(st, MemKind::Store, mask, addrs);
            cost
        });
        self.charge(cost).await;
    }

    /// The charge of an atomic warp instruction, which both flavours share.
    fn atomic_access(&self, st: &mut SimState, mask: LaneMask, addrs: &LaneAddrs) -> u64 {
        let co = coalesce(mask, addrs);
        let depth = atomic_conflict_depth(mask, addrs);
        self.mem_access(st, MemKind::Atomic, mask, co.segments(), depth)
    }

    /// Warp compare-and-swap: per lane, if `*addr == cmp` store `new`.
    /// Returns per-lane old values. Same-word lanes serialise in lane
    /// order within the instruction.
    pub async fn atomic_cas(
        &self,
        mask: LaneMask,
        addrs: &LaneAddrs,
        cmps: &LaneVals,
        news: &LaneVals,
    ) -> LaneVals {
        let (cost, out) = self.issue(mask, |st| {
            let cost = self.atomic_access(st, mask, addrs);
            let mut out = [0u32; WARP_SIZE];
            let m0 = st.mem.mutations();
            for lane in mask.iter() {
                if st.fault.cas_should_fail() {
                    // Injected spurious failure: perform no store and report
                    // an old value that cannot equal `cmp`, so the caller
                    // observes an ordinary failed CAS. Conservative by
                    // construction — a victim can retry or abort, but never
                    // falsely believes it succeeded.
                    let cur = st.mem.read(addrs[lane]);
                    out[lane] = if cur == cmps[lane] { cur ^ 1 } else { cur };
                    st.stats.spurious_cas_failures += 1;
                    continue;
                }
                out[lane] = st.mem.atomic_cas(addrs[lane], cmps[lane], news[lane]);
            }
            Self::note_mutation(st, m0);
            self.observe_access(st, MemKind::Atomic, mask, addrs);
            (cost, out)
        });
        self.charge(cost).await;
        out
    }

    /// Warp atomic read-modify-write. Returns per-lane old values.
    pub async fn atomic_rmw(
        &self,
        mask: LaneMask,
        op: AtomicOp,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) -> LaneVals {
        let (cost, out) = self.issue(mask, |st| {
            let cost = self.atomic_access(st, mask, addrs);
            let mut out = [0u32; WARP_SIZE];
            let m0 = st.mem.mutations();
            for lane in mask.iter() {
                // The fault plan's spurious-failure injection also covers
                // Or-based test-and-set (the STM's lock-acquisition idiom):
                // perform no store and report the requested bits as already
                // held. Like an injected CAS failure this is conservative —
                // the caller sees "lock busy" and retries or aborts; no
                // lock is left dangling because nothing was written.
                if matches!(op, AtomicOp::Or) && vals[lane] != 0 && st.fault.cas_should_fail() {
                    out[lane] = st.mem.read(addrs[lane]) | vals[lane];
                    st.stats.spurious_cas_failures += 1;
                    continue;
                }
                out[lane] = st.mem.atomic_rmw(op, addrs[lane], vals[lane]);
            }
            Self::note_mutation(st, m0);
            self.observe_access(st, MemKind::Atomic, mask, addrs);
            (cost, out)
        });
        self.charge(cost).await;
        out
    }

    /// Uniform-address atomic add: every active lane adds `v` to `addr`.
    /// Returns the old value seen by the *first* active lane.
    pub async fn atomic_add_uniform(&self, mask: LaneMask, addr: Addr, v: u32) -> u32 {
        let addrs = [addr; WARP_SIZE];
        let vals = [v; WARP_SIZE];
        let old = self.atomic_rmw(mask, AtomicOp::Add, &addrs, &vals).await;
        mask.leader().map_or(0, |l| old[l])
    }

    /// Single-lane load convenience wrapper.
    pub async fn load_one(&self, lane: usize, addr: Addr) -> u32 {
        let mut addrs = [Addr::NULL; WARP_SIZE];
        addrs[lane] = addr;
        self.load(LaneMask::lane(lane), &addrs).await[lane]
    }

    /// Single-lane store convenience wrapper.
    pub async fn store_one(&self, lane: usize, addr: Addr, v: u32) {
        let mut addrs = [Addr::NULL; WARP_SIZE];
        let mut vals = [0u32; WARP_SIZE];
        addrs[lane] = addr;
        vals[lane] = v;
        self.store(LaneMask::lane(lane), &addrs, &vals).await;
    }

    /// Single-lane CAS convenience wrapper. Returns the old value.
    pub async fn atomic_cas_one(&self, lane: usize, addr: Addr, cmp: u32, new: u32) -> u32 {
        let mut addrs = [Addr::NULL; WARP_SIZE];
        addrs[lane] = addr;
        let mut cmps = [0u32; WARP_SIZE];
        cmps[lane] = cmp;
        let mut news = [0u32; WARP_SIZE];
        news[lane] = new;
        self.atomic_cas(LaneMask::lane(lane), &addrs, &cmps, &news).await[lane]
    }

    /// `threadfence()`: orders this warp's prior memory accesses before its
    /// later ones. The simulator's global instruction order is already
    /// sequentially consistent, so the fence only costs time — but STM code
    /// issues it wherever the paper's algorithm does, so fence traffic is
    /// faithfully accounted.
    pub async fn fence(&self, mask: LaneMask) {
        let cost = self.issue(mask, |st| {
            st.stats.fences += 1;
            st.emit(self.id.block, self.id.warp_in_block, SimEventKind::Fence);
            if st.observe_effects {
                st.last_effect = Some(StepEffect::Fence);
            }
            st.timing.fence
        });
        self.charge(cost).await;
    }

    /// Charges `cycles` of busy/idle time (pipeline work, backoff delays).
    pub async fn idle(&self, cycles: u64) {
        {
            let st = &mut *self.st.borrow_mut();
            st.stats.idle_cycles += cycles;
            st.emit(self.id.block, self.id.warp_in_block, SimEventKind::Idle { cycles });
        }
        self.charge(cycles).await;
    }

    /// Charges the cost of an arithmetic warp instruction.
    pub async fn alu(&self, mask: LaneMask) {
        let cost = self.issue(mask, |st| st.timing.alu);
        self.charge(cost).await;
    }

    /// Charges `ops` accesses to thread-local (L1-cached) metadata, such as
    /// read-/write-set entries. With GPU-STM's coalesced set organisation a
    /// warp-wide set append is one such access; uncoalesced layouts charge
    /// one per lane (see the ablation benches).
    pub async fn local_access(&self, mask: LaneMask, ops: u32) {
        let cost = self.issue(mask, |st| st.timing.local_access * ops as u64);
        self.charge(cost).await;
    }

    /// A handle that makes *this* warp runnable again after it parks.
    /// Create it before parking and hand it to the wake-condition watcher.
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle { queue: Rc::clone(&self.st.borrow().wake_queue), pslot: self.pslot }
    }

    /// Deschedules this warp until a [`WakeHandle`] fires or
    /// `budget_cycles` elapse (`u64::MAX` = wait forever). While parked
    /// the warp burns **zero** cycles — it leaves the run queue entirely,
    /// unlike an [`idle`](Self::idle) backoff spin.
    ///
    /// `watched` names the device addresses whose writers the warp is
    /// waiting on; it is pure diagnostics (reported per-warp by
    /// [`SimError::Deadlock`](crate::SimError::Deadlock) when every live
    /// warp is parked forever, which the executor detects *immediately*
    /// rather than burning the watchdog budget).
    ///
    /// Wake/park races are resolved by the event loop: wakes enqueued
    /// while the warp is still runnable are consumed as no-ops, so callers
    /// must check their wake condition once more *after* the instruction
    /// that registers their interest and before calling `park` (the
    /// check and the park request execute in one synchronous region —
    /// the executor only switches warps at awaits — so no wake can slip
    /// between them unobserved).
    pub async fn park(&self, mask: LaneMask, watched: &[Addr], budget_cycles: u64) -> ParkOutcome {
        let deadline = self.issue(mask, |st| {
            let e = &mut st.progress.warps[self.pslot];
            e.parked = true;
            e.parked_addrs = watched.to_vec();
            st.stats.parks += 1;
            st.emit(
                self.id.block,
                self.id.warp_in_block,
                SimEventKind::Park { watched: watched.len() as u32 },
            );
            if st.observe_effects {
                st.last_effect = Some(StepEffect::Local);
            }
            if budget_cycles == u64::MAX {
                u64::MAX
            } else {
                st.now.saturating_add(budget_cycles.max(1))
            }
        });
        self.mailbox.park.set(ParkSignal::Request { deadline });
        let signal = ParkWait { cell: &self.mailbox.park, polled: false }.await;
        let outcome = match signal {
            ParkSignal::TimedOut => ParkOutcome::TimedOut,
            // `Woken` is the expected resume; treat anything unexpected as
            // a wake so the caller re-checks its condition (conservative).
            _ => ParkOutcome::Woken,
        };
        {
            let st = &mut *self.st.borrow_mut();
            let e = &mut st.progress.warps[self.pslot];
            e.parked = false;
            e.parked_addrs = Vec::new();
            st.stats.wakes += 1;
            st.emit(
                self.id.block,
                self.id.warp_in_block,
                SimEventKind::Wake { timed_out: outcome == ParkOutcome::TimedOut },
            );
        }
        outcome
    }
}

/// The suspension point of [`WarpCtx::park`]: yields once with the park
/// request armed, then reads the outcome the executor stored in the cell.
struct ParkWait<'a> {
    cell: &'a Cell<ParkSignal>,
    polled: bool,
}

impl Future for ParkWait<'_> {
    type Output = ParkSignal;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<ParkSignal> {
        if self.polled {
            Poll::Ready(self.cell.replace(ParkSignal::None))
        } else {
            self.polled = true;
            Poll::Pending
        }
    }
}

/// A future that yields control to the scheduler exactly once.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{LaunchConfig, Sim, SimConfig};

    fn sim() -> Sim {
        Sim::new(SimConfig::with_memory(1 << 16))
    }

    #[test]
    fn load_returns_stored_values() {
        let mut s = sim();
        let buf = s.alloc(32).unwrap();
        for i in 0..32 {
            s.write(buf.offset(i), i * 7);
        }
        let out = s.alloc(32).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            let addrs = std::array::from_fn(|l| buf.offset(l as u32));
            let vals = ctx.load(mask, &addrs).await;
            let oaddrs = std::array::from_fn(|l| out.offset(l as u32));
            ctx.store(mask, &oaddrs, &vals).await;
        })
        .unwrap();
        for i in 0..32 {
            assert_eq!(s.read(out.offset(i)), i * 7);
        }
    }

    #[test]
    fn masked_lanes_do_not_access_memory() {
        let mut s = sim();
        let buf = s.alloc(32).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            let addrs = std::array::from_fn(|l| buf.offset(l as u32));
            let vals = [9u32; 32];
            ctx.store(LaneMask::first_n(4), &addrs, &vals).await;
        })
        .unwrap();
        assert_eq!(s.read(buf.offset(3)), 9);
        assert_eq!(s.read(buf.offset(4)), 0);
    }

    #[test]
    fn cas_same_word_lane_order() {
        let mut s = sim();
        let word = s.alloc(1).unwrap();
        let winners = s.alloc(32).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            let addrs = [word; 32];
            let cmps = [0u32; 32];
            let news: [u32; 32] = std::array::from_fn(|l| l as u32 + 1);
            let old = ctx.atomic_cas(mask, &addrs, &cmps, &news).await;
            // Exactly lane 0 should have won (old value 0).
            let waddrs = std::array::from_fn(|l| winners.offset(l as u32));
            let flags: [u32; 32] = std::array::from_fn(|l| u32::from(old[l] == 0));
            ctx.store(mask, &waddrs, &flags).await;
        })
        .unwrap();
        assert_eq!(s.read(word), 1); // lane 0's value
        assert_eq!(s.read(winners.offset(0)), 1);
        for l in 1..32 {
            assert_eq!(s.read(winners.offset(l)), 0, "lane {l}");
        }
    }

    #[test]
    fn coalesced_access_is_cheaper_than_strided() {
        let run = |stride: u32| {
            let mut s = sim();
            let buf = s.alloc(32 * stride.max(1)).unwrap();
            let report = s
                .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                    let mask = ctx.id().launch_mask;
                    let addrs = std::array::from_fn(|l| buf.offset(l as u32 * stride));
                    let _ = ctx.load(mask, &addrs).await;
                })
                .unwrap();
            (report.cycles, report.stats.mem_transactions)
        };
        let (coalesced_cycles, coalesced_tx) = run(1);
        let (strided_cycles, strided_tx) = run(32);
        assert_eq!(coalesced_tx, 1);
        assert_eq!(strided_tx, 32);
        assert!(strided_cycles > coalesced_cycles);
    }

    #[test]
    fn l2_hit_faster_than_miss() {
        let mut s = sim();
        let buf = s.alloc(32).unwrap();
        let report = s
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let mask = ctx.id().launch_mask;
                let addrs = std::array::from_fn(|l| buf.offset(l as u32));
                let t0 = ctx.now();
                let _ = ctx.load(mask, &addrs).await;
                let t1 = ctx.now();
                let _ = ctx.load(mask, &addrs).await;
                let t2 = ctx.now();
                assert!(t2 - t1 < t1 - t0, "hit {} vs miss {}", t2 - t1, t1 - t0);
            })
            .unwrap();
        assert_eq!(report.stats.l2_hits, 1);
        assert_eq!(report.stats.l2_misses, 1);
    }

    #[test]
    fn single_lane_helpers() {
        let mut s = sim();
        let a = s.alloc(4).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            ctx.store_one(3, a, 11).await;
            let v = ctx.load_one(3, a).await;
            ctx.store_one(3, a.offset(1), v + 1).await;
            let old = ctx.atomic_cas_one(5, a.offset(2), 0, 99).await;
            ctx.store_one(5, a.offset(3), old).await;
        })
        .unwrap();
        assert_eq!(s.read(a), 11);
        assert_eq!(s.read(a.offset(1)), 12);
        assert_eq!(s.read(a.offset(2)), 99);
        assert_eq!(s.read(a.offset(3)), 0);
    }

    #[test]
    fn stats_count_instruction_mix() {
        let mut s = sim();
        let a = s.alloc(64).unwrap();
        let report = s
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let mask = ctx.id().launch_mask;
                let addrs = std::array::from_fn(|l| a.offset(l as u32));
                let vals = [1u32; 32];
                ctx.store(mask, &addrs, &vals).await;
                let _ = ctx.load(mask, &addrs).await;
                ctx.fence(mask).await;
                ctx.atomic_add_uniform(mask, a, 1).await;
                ctx.alu(mask).await;
                ctx.local_access(mask, 2).await;
            })
            .unwrap();
        assert_eq!(report.stats.stores, 1);
        assert_eq!(report.stats.loads, 1);
        assert_eq!(report.stats.fences, 1);
        assert_eq!(report.stats.atomics, 1);
        assert!(report.stats.instructions >= 6);
    }

    #[test]
    fn divergence_counted() {
        let mut s = sim();
        let a = s.alloc(32).unwrap();
        let report = s
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let addrs = std::array::from_fn(|l| a.offset(l as u32));
                let _ = ctx.load(LaneMask::first_n(7), &addrs).await;
            })
            .unwrap();
        assert_eq!(report.stats.divergent_instructions, 1);
        assert!(report.stats.simt_efficiency() < 1.0);
    }
}
