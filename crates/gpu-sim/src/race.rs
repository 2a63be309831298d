//! Happens-before data-race detection over global memory.
//!
//! A FastTrack-style vector-clock detector adapted to the simulator's
//! warp-synchronous execution model (paper Section 3.2.1 motivates it:
//! GPU-STM is *weakly isolated*, so any non-transactional access that
//! conflicts with a transactional one is a correctness hazard that commit
//! history replay cannot see).
//!
//! Design choices, in the order they matter:
//!
//! - **Warps are the "threads".** A warp executes its lanes in lockstep
//!   and the simulator applies each warp instruction's memory effects
//!   atomically, so intra-warp conflicts (e.g. the deterministic
//!   highest-lane-wins store) are ordered by construction. Vector clocks
//!   are indexed by the warp's progress-board slot.
//! - **Sync addresses are learned, not declared.** Any word ever touched
//!   by an atomic instruction is permanently classified as a
//!   synchronization variable: an atomic access joins the warp's clock
//!   with the address's clock and publishes the result (acquire +
//!   release), a plain store to it publishes the warp's clock (release —
//!   the STM's lock-release and version-unlock idiom), and a plain load
//!   from it joins (acquire — spin-wait observation). Sync addresses are
//!   never race-checked themselves.
//! - **Speculative accesses are scoped, not ignored.** Kernels bracket
//!   transactions with [`WarpCtx::set_speculative`](crate::WarpCtx::set_speculative);
//!   a conflict in which *both* accesses are speculative is suppressed,
//!   because optimistic STMs race benignly on data words and resolve the
//!   conflict by validation/abort (tm-check's opacity replay covers
//!   those). A conflict with at least one *non-speculative* side is
//!   exactly the weak-isolation hazard and is reported.
//! - **Fences add no edges.** The simulator is sequentially consistent
//!   per warp instruction, so `threadfence` only orders a warp against
//!   itself, which program order already provides.
//!
//! Detection is pure observation: hooks charge no cycles and perturb no
//! schedules, so a run with detection enabled is cycle-identical to the
//! same run without it.

use crate::exec::WarpId;
use crate::memory::Addr;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// What an access did to the word.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain (non-atomic) load.
    Read,
    /// Plain (non-atomic) store.
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// One side of a racing pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RaceAccess {
    /// Block index of the accessing warp.
    pub block: u32,
    /// Warp index within its block.
    pub warp_in_block: u32,
    /// Lane within the warp that issued the access (the lowest active
    /// lane for broadcast/uniform operations).
    pub lane: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Whether the access was inside a transaction's speculative scope.
    pub speculative: bool,
    /// Simulated cycle at which the access was issued.
    pub cycle: u64,
}

/// An unordered conflicting pair of global-memory accesses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct DataRace {
    /// The contended word.
    pub addr: Addr,
    /// The earlier access (already recorded when the race was found).
    pub prior: RaceAccess,
    /// The access that completed the racing pair.
    pub current: RaceAccess,
}

impl std::fmt::Display for DataRace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = |s: bool| if s { " (tx)" } else { "" };
        write!(
            f,
            "data race on {:?}: {}{} by warp {}.{} lane {} at cycle {} is unordered with {}{} by warp {}.{} lane {} at cycle {}",
            self.addr,
            self.prior.kind,
            tag(self.prior.speculative),
            self.prior.block,
            self.prior.warp_in_block,
            self.prior.lane,
            self.prior.cycle,
            self.current.kind,
            tag(self.current.speculative),
            self.current.block,
            self.current.warp_in_block,
            self.current.lane,
            self.current.cycle,
        )
    }
}

/// Collected races for a launch (one report per contended word).
#[derive(Clone, Debug, Default)]
pub struct RaceLog {
    /// Races in detection order.
    pub races: Vec<DataRace>,
}

impl RaceLog {
    /// True when no race was observed.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }
}

/// Shared handle through which the detector publishes races.
///
/// Store a clone in [`SimConfig::race`](crate::SimConfig) and inspect it
/// after the launch.
pub type RaceSink = Rc<RefCell<RaceLog>>;

/// Creates an empty [`RaceSink`].
pub fn race_sink() -> RaceSink {
    Rc::new(RefCell::new(RaceLog::default()))
}

type VectorClock = Vec<u64>;

fn join(into: &mut VectorClock, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, v) in from.iter().enumerate() {
        into[i] = into[i].max(*v);
    }
}

#[derive(Clone, Debug)]
struct WarpClock {
    vc: VectorClock,
    speculative: bool,
    block: u32,
    warp_in_block: u32,
}

/// A recorded access epoch: warp `pslot` at its local time `clock`.
#[derive(Copy, Clone, Debug)]
struct Epoch {
    pslot: usize,
    clock: u64,
    lane: u32,
    speculative: bool,
    cycle: u64,
}

/// Read/write history of an ordinary data word. An entry whose `launch`
/// is not the detector's current one is empty: it is kept, with its read
/// list's buffer, for the next launch that touches the word.
#[derive(Clone, Debug, Default)]
struct WordState {
    launch: u64,
    write: Option<Epoch>,
    /// Last read per warp slot (kept sparse; warps re-reading overwrite).
    reads: Vec<Epoch>,
}

/// A synchronization variable: a word some atomic touched in the current
/// launch (`launch` matches the detector's), with its release clock.
#[derive(Clone, Debug, Default)]
struct SyncVar {
    launch: u64,
    clock: VectorClock,
}

/// The vector clocks of one launch's warps, indexed by progress-board
/// slot. Entries past `live` belong to no warp of this launch; they keep
/// their clock buffers for the next one.
#[derive(Debug, Default)]
struct Clocks {
    warps: Vec<WarpClock>,
    live: usize,
}

impl Clocks {
    /// Readies the clocks of slot `pslot` and every slot below it for
    /// this launch, and names `pslot` after warp `id`. A lower slot made
    /// live here takes its own warp's identity at that warp's first
    /// access, which comes before any epoch of it can be reported.
    fn ensure(&mut self, pslot: usize, id: WarpId) {
        while self.live <= pslot {
            let p = self.live;
            if p == self.warps.len() {
                self.warps.push(WarpClock {
                    vc: Vec::new(),
                    speculative: false,
                    block: 0,
                    warp_in_block: 0,
                });
            }
            let w = &mut self.warps[p];
            w.vc.clear();
            w.vc.resize(p + 1, 0);
            w.vc[p] = 1;
            w.speculative = false;
            self.live += 1;
        }
        let w = &mut self.warps[pslot];
        w.block = id.block;
        w.warp_in_block = id.warp_in_block;
    }

    /// `epoch` happens-before the current state of warp `pslot`.
    fn ordered(&self, pslot: usize, epoch: &Epoch) -> bool {
        epoch.pslot == pslot
            || self.warps[pslot].vc.get(epoch.pslot).copied().unwrap_or(0) >= epoch.clock
    }

    fn access(&self, pslot: usize, lane: u32, kind: AccessKind, cycle: u64) -> RaceAccess {
        let w = &self.warps[pslot];
        RaceAccess {
            block: w.block,
            warp_in_block: w.warp_in_block,
            lane,
            kind,
            speculative: w.speculative,
            cycle,
        }
    }

    fn epoch_access(&self, epoch: &Epoch, kind: AccessKind) -> RaceAccess {
        let w = &self.warps[epoch.pslot];
        RaceAccess {
            block: w.block,
            warp_in_block: w.warp_in_block,
            lane: epoch.lane,
            kind,
            speculative: epoch.speculative,
            cycle: epoch.cycle,
        }
    }

    /// Records a new epoch of warp `pslot`'s own accesses.
    fn tick(&mut self, pslot: usize) {
        self.warps[pslot].vc[pslot] += 1;
    }
}

/// Where races go: the sink, and the words already reported this launch
/// (one report per word keeps logs readable).
#[derive(Debug)]
struct Reports {
    sink: RaceSink,
    reported: HashSet<u32>,
}

impl Reports {
    fn report(&mut self, addr: u32, prior: RaceAccess, current: RaceAccess) {
        if self.reported.insert(addr) {
            self.sink.borrow_mut().races.push(DataRace { addr: Addr(addr), prior, current });
        }
    }
}

/// The per-launch detector state. Owned by the simulator and emptied at
/// every launch, while the sink accumulates across launches. Emptying
/// keeps every table's capacity, and the clocks join in place, so once
/// the tables have grown to a workload's footprint the detector
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct RaceDetector {
    /// Numbers the launches this detector has served; table entries of
    /// earlier launches are stale.
    launch: u64,
    clocks: Clocks,
    /// Words touched by an atomic: sync variables for the rest of the
    /// launch.
    sync: HashMap<u32, SyncVar>,
    words: HashMap<u32, WordState>,
    reports: Reports,
}

impl RaceDetector {
    pub(crate) fn new(sink: RaceSink) -> Self {
        RaceDetector {
            launch: 1,
            clocks: Clocks::default(),
            sync: HashMap::new(),
            words: HashMap::new(),
            reports: Reports { sink, reported: HashSet::new() },
        }
    }

    /// Empties the detector for a new launch reporting to `sink`, as
    /// [`new`](Self::new) would build it but keeping every buffer.
    pub(crate) fn reset(&mut self, sink: RaceSink) {
        self.launch += 1;
        self.clocks.live = 0;
        self.reports.sink = sink;
        self.reports.reported.clear();
    }

    pub(crate) fn set_speculative(&mut self, pslot: usize, id: WarpId, on: bool) {
        self.clocks.ensure(pslot, id);
        self.clocks.warps[pslot].speculative = on;
    }

    /// The history of data word `addr`, emptied first if it is stale.
    fn word(words: &mut HashMap<u32, WordState>, launch: u64, addr: u32) -> &mut WordState {
        let word = words.entry(addr).or_default();
        if word.launch != launch {
            word.launch = launch;
            word.write = None;
            word.reads.clear();
        }
        word
    }

    /// Atomic instruction on `addr`: classify it as a sync variable and
    /// perform acquire + release (join both ways), then advance the warp's
    /// local clock so later accesses are distinguishable from this one.
    pub(crate) fn on_atomic(&mut self, pslot: usize, id: WarpId, addr: Addr, _cycle: u64) {
        self.clocks.ensure(pslot, id);
        let a = addr.0;
        let sync = self.sync.entry(a).or_default();
        if sync.launch != self.launch {
            // Newly classified: its plain-access history is retroactively
            // synchronization traffic, not data.
            sync.launch = self.launch;
            sync.clock.clear();
            if let Some(word) = self.words.get_mut(&a) {
                word.launch = 0;
            }
        }
        let vc = &mut self.clocks.warps[pslot].vc;
        join(vc, &sync.clock);
        sync.clock.clone_from(vc);
        self.clocks.tick(pslot);
    }

    /// Plain load of `addr` by warp `pslot` (issued by `lane`).
    pub(crate) fn on_read(&mut self, pslot: usize, id: WarpId, lane: u32, addr: Addr, cycle: u64) {
        self.clocks.ensure(pslot, id);
        let a = addr.0;
        if let Some(sync) = self.sync.get(&a).filter(|s| s.launch == self.launch) {
            // Acquire: observing a sync word orders this warp after its
            // releasers (spin-wait on a lock or a published flag).
            join(&mut self.clocks.warps[pslot].vc, &sync.clock);
            return;
        }
        let clocks = &self.clocks;
        let spec = clocks.warps[pslot].speculative;
        let word = Self::word(&mut self.words, self.launch, a);
        if let Some(wr) = word.write {
            if !(clocks.ordered(pslot, &wr) || (wr.speculative && spec)) {
                let prior = clocks.epoch_access(&wr, AccessKind::Write);
                let current = clocks.access(pslot, lane, AccessKind::Read, cycle);
                self.reports.report(a, prior, current);
            }
        }
        let epoch =
            Epoch { pslot, clock: clocks.warps[pslot].vc[pslot], lane, speculative: spec, cycle };
        match word.reads.iter_mut().find(|e| e.pslot == pslot) {
            Some(e) => *e = epoch,
            None => word.reads.push(epoch),
        }
    }

    /// Plain store to `addr` by warp `pslot` (issued by `lane`).
    pub(crate) fn on_write(&mut self, pslot: usize, id: WarpId, lane: u32, addr: Addr, cycle: u64) {
        self.clocks.ensure(pslot, id);
        let a = addr.0;
        if let Some(sync) = self.sync.get_mut(&a).filter(|s| s.launch == self.launch) {
            // Release: publishing to a sync word (lock release, version
            // unlock) makes this warp's history visible to later acquirers.
            join(&mut sync.clock, &self.clocks.warps[pslot].vc);
            self.clocks.tick(pslot);
            return;
        }
        let clocks = &self.clocks;
        let spec = clocks.warps[pslot].speculative;
        let word = Self::word(&mut self.words, self.launch, a);
        if let Some(wr) = word.write {
            if !(clocks.ordered(pslot, &wr) || (wr.speculative && spec)) {
                let prior = clocks.epoch_access(&wr, AccessKind::Write);
                let current = clocks.access(pslot, lane, AccessKind::Write, cycle);
                self.reports.report(a, prior, current);
            }
        }
        for rd in &word.reads {
            if rd.pslot != pslot && !clocks.ordered(pslot, rd) && !(rd.speculative && spec) {
                let prior = clocks.epoch_access(rd, AccessKind::Read);
                let current = clocks.access(pslot, lane, AccessKind::Write, cycle);
                self.reports.report(a, prior, current);
            }
        }
        let clock = clocks.warps[pslot].vc[pslot];
        word.write = Some(Epoch { pslot, clock, lane, speculative: spec, cycle });
        word.reads.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{LaunchConfig, Sim, SimConfig};
    use crate::mask::LaneMask;
    use crate::memory::AtomicOp;

    fn traced_sim() -> (Sim, RaceSink) {
        let sink = race_sink();
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.race = Some(sink.clone());
        (Sim::new(cfg), sink)
    }

    #[test]
    fn unordered_cross_warp_writes_race() {
        let (mut sim, sink) = traced_sim();
        let word = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(1, 64), move |ctx| async move {
            ctx.store_one(0, word, ctx.id().warp_in_block + 1).await;
        })
        .unwrap();
        let log = sink.borrow();
        assert_eq!(log.races.len(), 1, "{:?}", log.races);
        let r = &log.races[0];
        assert_eq!(r.addr, word);
        assert_eq!(r.prior.kind, AccessKind::Write);
        assert_eq!(r.current.kind, AccessKind::Write);
        assert!(!r.prior.speculative && !r.current.speculative);
    }

    /// Runs warp 0.1 before warp 0.0 whenever both are runnable.
    struct SecondWarpFirst;

    impl crate::schedule::SchedulePolicy for SecondWarpFirst {
        fn pick(&mut self, _now: u64, runnable: &[crate::schedule::RunnableWarp]) -> usize {
            runnable.iter().position(|w| w.warp_in_block == 1).unwrap_or(0)
        }
    }

    /// A higher slot that touches memory first must not lend its identity
    /// to the lower slots it makes live: each side of the report names
    /// its own warp.
    #[test]
    fn race_reports_name_each_warp_when_a_higher_slot_acts_first() {
        let sink = race_sink();
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.race = Some(sink.clone());
        cfg.schedule = Some(crate::schedule::PolicyHandle::new(SecondWarpFirst));
        let mut sim = Sim::new(cfg);
        let word = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(1, 64), move |ctx| async move {
            ctx.store_one(0, word, ctx.id().warp_in_block + 1).await;
        })
        .unwrap();
        let log = sink.borrow();
        assert_eq!(log.races.len(), 1, "{:?}", log.races);
        let r = &log.races[0];
        assert_eq!((r.prior.block, r.prior.warp_in_block), (0, 1), "{r}");
        assert_eq!((r.current.block, r.current.warp_in_block), (0, 0), "{r}");
        let text = r.to_string();
        assert!(text.contains("by warp 0.1 ") && text.contains("by warp 0.0 "), "{text}");
    }

    #[test]
    fn read_write_conflict_races_and_read_read_does_not() {
        let (mut sim, sink) = traced_sim();
        let a = sim.alloc(2).unwrap();
        sim.launch(LaunchConfig::new(1, 64), move |ctx| async move {
            // Every warp reads word 0 (read/read: fine); warp 1 also
            // writes word 1 that warp 0 read (read/write: race).
            let _ = ctx.load_one(0, a).await;
            if ctx.id().warp_in_block == 0 {
                let _ = ctx.load_one(0, a.offset(1)).await;
            } else {
                ctx.store_one(0, a.offset(1), 7).await;
            }
        })
        .unwrap();
        let log = sink.borrow();
        assert_eq!(log.races.len(), 1, "{:?}", log.races);
        assert_eq!(log.races[0].addr, a.offset(1));
    }

    #[test]
    fn intra_warp_conflicts_are_ordered_by_lockstep() {
        let (mut sim, sink) = traced_sim();
        let word = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            // All 32 lanes store the same word in one instruction
            // (highest lane wins) and then read it back.
            let mask = ctx.id().launch_mask;
            let addrs = [word; crate::mask::WARP_SIZE];
            let vals: [u32; crate::mask::WARP_SIZE] = std::array::from_fn(|l| l as u32);
            ctx.store(mask, &addrs, &vals).await;
            let _ = ctx.load(mask, &addrs).await;
        })
        .unwrap();
        assert!(sink.borrow().is_empty(), "{:?}", sink.borrow().races);
    }

    #[test]
    fn atomic_handoff_orders_accesses() {
        let (mut sim, sink) = traced_sim();
        let word = sim.alloc(1).unwrap();
        let flag = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(1, 64), move |ctx| async move {
            if ctx.id().warp_in_block == 0 {
                ctx.store_one(0, word, 42).await;
                // Release: atomically publish the flag.
                ctx.atomic_rmw(
                    LaneMask::lane(0),
                    AtomicOp::Or,
                    &[flag; crate::mask::WARP_SIZE],
                    &[1; crate::mask::WARP_SIZE],
                )
                .await;
            } else {
                // Acquire: spin on the flag, then read the word.
                while ctx.load_one(0, flag).await == 0 {
                    ctx.idle(50).await;
                }
                let v = ctx.load_one(0, word).await;
                assert_eq!(v, 42);
            }
        })
        .unwrap();
        assert!(sink.borrow().is_empty(), "{:?}", sink.borrow().races);
    }

    #[test]
    fn speculative_pairs_are_suppressed_but_mixed_pairs_flagged() {
        let (mut sim, sink) = traced_sim();
        let a = sim.alloc(2).unwrap();
        sim.launch(LaunchConfig::new(1, 96), move |ctx| async move {
            match ctx.id().warp_in_block {
                0 => {
                    // Transaction racing with warp 1's transaction on
                    // word 0 (benign: validation arbitrates) and with
                    // warp 2's *plain* write on word 1 (weak-isolation
                    // hazard).
                    ctx.set_speculative(true);
                    ctx.store_one(0, a, 1).await;
                    ctx.store_one(0, a.offset(1), 5).await;
                    ctx.set_speculative(false);
                }
                1 => {
                    ctx.set_speculative(true);
                    ctx.store_one(0, a, 2).await;
                    ctx.set_speculative(false);
                }
                _ => {
                    ctx.store_one(0, a.offset(1), 6).await;
                }
            }
        })
        .unwrap();
        let log = sink.borrow();
        assert_eq!(log.races.len(), 1, "{:?}", log.races);
        assert_eq!(log.races[0].addr, a.offset(1));
        assert!(log.races[0].prior.speculative != log.races[0].current.speculative);
    }

    #[test]
    fn sync_addresses_are_never_race_checked() {
        let (mut sim, sink) = traced_sim();
        let lock = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(1, 64), move |ctx| async move {
            // Acquire-by-atomic, release-by-plain-store: the STM's lock
            // idiom. The lock word itself must not be reported.
            loop {
                let old = ctx.atomic_cas_one(0, lock, 0, 1).await;
                if old == 0 {
                    break;
                }
                ctx.idle(30).await;
            }
            ctx.store_one(0, lock, 0).await;
        })
        .unwrap();
        assert!(sink.borrow().is_empty(), "{:?}", sink.borrow().races);
    }

    #[test]
    fn detection_is_cycle_invariant() {
        let run = |race: Option<RaceSink>| {
            let mut cfg = SimConfig::with_memory(1 << 16);
            cfg.race = race;
            let mut sim = Sim::new(cfg);
            let buf = sim.alloc(64).unwrap();
            sim.launch(LaunchConfig::new(4, 64), move |ctx| async move {
                let mask = ctx.id().launch_mask;
                for i in 0..8 {
                    ctx.atomic_add_uniform(mask, buf.offset(i), 1).await;
                    let addrs = std::array::from_fn(|l| buf.offset(32 + ((l as u32 + i) % 32)));
                    let _ = ctx.load(mask, &addrs).await;
                }
            })
            .unwrap()
            .cycles
        };
        assert_eq!(run(None), run(Some(race_sink())));
    }
}
