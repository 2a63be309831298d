//! STM-EGPGV: a re-implementation of the blocking GPU STM of Cederman,
//! Tsigas and Chaudhry (EGPGV 2010), the prior-art comparison point.
//!
//! Its defining limitation is *per-thread-block transactions*: only one
//! transaction runs per thread block at a time, so transaction concurrency
//! is bounded by the number of blocks rather than threads — "limited
//! concurrency" in the paper's words. Between blocks it is a blocking
//! two-phase-locking STM: stripes are locked at encounter time; finding a
//! stripe busy aborts the transaction, which backs off and retries
//! (backoff between blocks works because blocks are not in lockstep).
//!
//! The original targets a fixed, small number of thread blocks; launches
//! beyond [`EgpgvStm::MAX_BLOCKS`] are unsupported (the paper's Figure 3
//! reports it "crashes" as thread counts scale).

use crate::api::Stm;
use crate::config::StmConfig;
use crate::history::Recorder;
use crate::ledger::Ledger;
use crate::shared::StmShared;
use crate::stats::{AbortCause, Phase, StatsHandle};
use crate::trace::{TxEventKind, TxTraceSink};
use crate::variant::Variant;
use crate::version_lock::VersionLock;
use crate::warptx::WarpTx;
use gpu_sim::{
    Addr, AtomicOp, LaneAddrs, LaneMask, LaneVals, LaunchConfig, Sim, SimError, WarpCtx, WARP_SIZE,
};

/// The per-thread-block blocking STM.
#[derive(Clone)]
pub struct EgpgvStm {
    shared: StmShared,
    cfg: StmConfig,
    /// One lock word per thread block, serialising transactions within it.
    block_locks: Addr,
    max_blocks: u32,
    ledger: Ledger,
}

impl std::fmt::Debug for EgpgvStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EgpgvStm").field("max_blocks", &self.max_blocks).finish_non_exhaustive()
    }
}

impl EgpgvStm {
    /// Fixed metadata capacity of the original system: at most this many
    /// thread blocks (and hence concurrent transactions).
    pub const MAX_BLOCKS: u32 = 64;

    /// Allocates per-block metadata.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the device is full.
    pub fn init(sim: &mut Sim, shared: StmShared, cfg: StmConfig) -> Result<Self, SimError> {
        let block_locks = sim.alloc(Self::MAX_BLOCKS)?;
        Ok(EgpgvStm {
            shared,
            cfg,
            block_locks,
            max_blocks: Self::MAX_BLOCKS,
            ledger: Ledger::new(),
        })
    }

    /// Attaches the optional history recorder and transaction-lifecycle
    /// trace sink (pure observation; see [`crate::trace`]).
    pub fn with_observers(
        mut self,
        recorder: Option<Recorder>,
        trace: Option<TxTraceSink>,
    ) -> Self {
        self.ledger.attach(recorder, trace);
        self
    }

    /// Whether this launch fits the variant's per-block metadata — the
    /// harness reports unsupported configurations as the paper does
    /// (EGPGV "crashes" in Figure 3 as thread counts grow).
    pub fn supports(&self, grid: LaunchConfig) -> bool {
        grid.blocks <= self.max_blocks
    }

    fn block_lock(&self, ctx: &WarpCtx) -> Addr {
        self.block_locks.offset(ctx.id().block % self.max_blocks)
    }

    /// Aborts `lane`: releases its stripe locks, marks it inconsistent and
    /// counts a busy abort. The block lock stays held until `commit`.
    async fn abort_busy(&self, w: &mut WarpTx, ctx: &WarpCtx, lane: usize) {
        let m = LaneMask::lane(lane);
        // Release in sorted order (the log happens to be sorted; order is
        // irrelevant for release).
        w.acquired[lane] = w.locklog[lane].len();
        let max = w.acquired[lane];
        for k in 0..max {
            let e = w.locklog[lane].nth_sorted(k).expect("lock-log cursor in range");
            ctx.atomic_rmw(
                m,
                AtomicOp::Add,
                &{
                    let mut a = [Addr::NULL; WARP_SIZE];
                    a[lane] = self.shared.lock_addr(e.lock);
                    a
                },
                &[u32::MAX; WARP_SIZE],
            )
            .await;
        }
        w.acquired[lane] = 0;
        w.mark_inconsistent(lane);
        self.ledger.abort(ctx, AbortCause::LockBusy, 1);
        // Inter-block backoff (no lockstep across blocks).
        let base = 128u64;
        let jitter = (ctx.id().thread_id(lane) as u64).wrapping_mul(40503) % base;
        ctx.idle(base + jitter).await;
    }

    /// Encounter-time exclusive stripe lock for `lane`; returns false and
    /// aborts the lane if the stripe is held by another transaction.
    async fn lock_stripe(&self, w: &mut WarpTx, ctx: &WarpCtx, lane: usize, addr: Addr) -> bool {
        let idx = self.shared.lock_index(addr);
        if w.locklog[lane].get(idx).is_some() {
            return true; // already ours
        }
        let m = LaneMask::lane(lane);
        let mut laddrs = [Addr::NULL; WARP_SIZE];
        laddrs[lane] = self.shared.lock_addr(idx);
        let old = ctx.atomic_rmw(m, AtomicOp::Or, &laddrs, &[1u32; WARP_SIZE]).await;
        if VersionLock(old[lane]).is_locked() {
            self.ledger.emit(ctx, TxEventKind::Conflict { stripe: idx });
            self.abort_busy(w, ctx, lane).await;
            return false;
        }
        w.locklog[lane].insert(idx, true, false);
        true
    }
}

impl Stm for EgpgvStm {
    fn name(&self) -> &'static str {
        Variant::Egpgv.label()
    }

    fn new_warp(&self) -> WarpTx {
        WarpTx::new(&self.cfg)
    }

    fn stats(&self) -> StatsHandle {
        StatsHandle::clone(&self.ledger.stats)
    }

    fn tx_trace(&self) -> Option<TxTraceSink> {
        self.ledger.trace.clone()
    }

    /// Admits at most one lane of the whole thread block: the block's
    /// single transaction slot.
    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        let Some(leader) = want.leader() else { return LaneMask::EMPTY };
        w.enter_phase(ctx.now(), Phase::Init);
        let old = ctx.atomic_cas_one(leader, self.block_lock(ctx), 0, 1).await;
        if old != 0 {
            self.ledger.emit(ctx, TxEventKind::Lock { lanes: 1, busy: 1 });
            let base = (w.backoff.max(64) * 2).min(2048);
            w.backoff = base;
            let jitter = (ctx.id().thread_id(leader) as u64).wrapping_mul(2654435761) % base;
            ctx.idle(base + jitter).await;
            w.enter_phase(ctx.now(), Phase::Native);
            return LaneMask::EMPTY;
        }
        w.backoff = 0;
        w.reset_lane(leader);
        w.enter_phase(ctx.now(), Phase::Native);
        self.ledger.emit(ctx, TxEventKind::Lock { lanes: 1, busy: 0 });
        self.ledger.emit(ctx, TxEventKind::Begin { lanes: 1 });
        LaneMask::lane(leader)
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        self.ledger.emit(ctx, TxEventKind::Read { lanes: mask.count() });
        let mut out = [0u32; WARP_SIZE];
        for l in mask.iter() {
            if !w.opaque.contains(l) {
                continue; // already aborted this attempt
            }
            w.enter_phase(ctx.now(), Phase::Buffering);
            if let Some(v) = w.writes.lookup(l, addrs[l]) {
                out[l] = v;
                continue;
            }
            w.enter_phase(ctx.now(), Phase::Locking);
            if !self.lock_stripe(w, ctx, l, addrs[l]).await {
                continue;
            }
            w.enter_phase(ctx.now(), Phase::Buffering);
            let v = ctx.load_one(l, addrs[l]).await;
            out[l] = v;
            w.reads.push(l, addrs[l], v);
        }
        ctx.local_access(mask, 1).await;
        w.enter_phase(ctx.now(), Phase::Native);
        out
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        self.ledger.emit(ctx, TxEventKind::Write { lanes: mask.count() });
        for l in mask.iter() {
            if !w.opaque.contains(l) {
                continue;
            }
            w.enter_phase(ctx.now(), Phase::Locking);
            if !self.lock_stripe(w, ctx, l, addrs[l]).await {
                continue;
            }
            w.enter_phase(ctx.now(), Phase::Buffering);
            w.writes.insert(l, addrs[l], vals[l]);
            if let Some(mut e) = w.locklog[l].get(self.shared.lock_index(addrs[l])) {
                e.write = true;
                w.locklog[l].insert(e.lock, e.read, true);
            }
        }
        ctx.local_access(mask, 1).await;
        w.enter_phase(ctx.now(), Phase::Native);
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        let Some(l) = mask.leader() else { return LaneMask::EMPTY };
        let m = LaneMask::lane(l);
        let mut committed = LaneMask::EMPTY;

        if w.opaque.contains(l) {
            w.enter_phase(ctx.now(), Phase::Commit);
            // Two-phase locking: all accessed stripes are exclusively held,
            // so publication needs no validation.
            for k in 0..w.writes.len(l) {
                let e = w.writes.get(l, k);
                ctx.store_one(l, e.addr, e.val).await;
            }
            ctx.fence(m).await;
            let clock_addrs = [self.shared.clock; WARP_SIZE];
            let old = ctx.atomic_rmw(m, AtomicOp::Add, &clock_addrs, &[1u32; WARP_SIZE]).await;
            let version = old[l] + 1;
            // Release stripes: written ones publish the new version.
            for k in 0..w.locklog[l].len() {
                let e = w.locklog[l].nth_sorted(k).expect("lock-log cursor in range");
                if e.write {
                    ctx.store_one(
                        l,
                        self.shared.lock_addr(e.lock),
                        VersionLock::unlocked(version).bits(),
                    )
                    .await;
                } else {
                    let mut a = [Addr::NULL; WARP_SIZE];
                    a[l] = self.shared.lock_addr(e.lock);
                    ctx.atomic_rmw(m, AtomicOp::Add, &a, &[u32::MAX; WARP_SIZE]).await;
                }
            }
            if w.is_read_only(l) {
                self.ledger.stats.borrow_mut().read_only_commits += 1;
            }
            self.ledger.commit(ctx, w, l, Some(version), version.saturating_sub(1));
            committed = m;
        }
        // Release the block's transaction slot either way.
        ctx.store_one(l, self.block_lock(ctx), 0).await;
        w.reset_lane(l);
        self.ledger.finish(ctx, w, committed, m.count() - committed.count())
    }
}
