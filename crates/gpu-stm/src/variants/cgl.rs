//! Coarse-grained locking (CGL): the paper's performance baseline.
//!
//! One global spinlock serialises every critical section on the GPU. Under
//! lockstep execution a naive per-lane spinlock deadlocks (Scheme #1 of
//! Algorithm 1), so CGL combines Scheme #3's divergent retry with
//! intra-warp serialisation: [`CglStm::begin`] admits at most one lane of
//! the warp — the critical-section owner — and other lanes (and other
//! warps) retry with deterministic exponential backoff.
//!
//! Reads and writes inside the critical section go straight to memory;
//! there is no speculation and commits never fail.

use crate::api::Stm;
use crate::history::Recorder;
use crate::ledger::Ledger;
use crate::stats::{Phase, StatsHandle};
use crate::trace::{TxEventKind, TxTraceSink};
use crate::variant::Variant;
use crate::warptx::WarpTx;
use gpu_sim::{Addr, LaneAddrs, LaneMask, LaneVals, Sim, SimError, WarpCtx};

/// Maximum backoff delay (cycles) after a failed lock acquisition.
const MAX_BACKOFF: u64 = 4096;

/// The coarse-grained-lock "STM": a degenerate runtime in which `begin`
/// acquires a single global lock and `commit` releases it.
#[derive(Clone)]
pub struct CglStm {
    lock: Addr,
    ledger: Ledger,
}

impl std::fmt::Debug for CglStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CglStm").field("lock", &self.lock).finish_non_exhaustive()
    }
}

impl CglStm {
    /// Allocates the global lock word on the device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the device is full.
    pub fn init(sim: &mut Sim) -> Result<Self, SimError> {
        Ok(CglStm { lock: sim.alloc(1)?, ledger: Ledger::new() })
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
}

impl Stm for CglStm {
    fn name(&self) -> &'static str {
        Variant::Cgl.label()
    }

    fn new_warp(&self) -> WarpTx {
        // CGL keeps logs only so an attached recorder can verify it; the
        // lock-table parameters are irrelevant.
        let mut cfg = crate::config::StmConfig::new(16);
        cfg.locklog_buckets = 1;
        WarpTx::new(&cfg)
    }

    fn stats(&self) -> StatsHandle {
        StatsHandle::clone(&self.ledger.stats)
    }

    fn tx_trace(&self) -> Option<TxTraceSink> {
        self.ledger.trace.clone()
    }

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        let Some(leader) = want.leader() else { return LaneMask::EMPTY };
        w.enter_phase(ctx.now(), Phase::Locking);
        let old = ctx.atomic_cas_one(leader, self.lock, 0, 1).await;
        if old != 0 {
            self.ledger.emit(ctx, TxEventKind::Lock { lanes: 1, busy: 1 });
            // Contended: deterministic exponential backoff, seeded by the
            // thread id so warps desynchronise.
            let base = (w.backoff.max(32) * 2).min(MAX_BACKOFF);
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
        let vals = ctx.load(mask, addrs).await;
        if self.ledger.records() {
            for l in mask.iter() {
                // A read of a location this critical section already wrote
                // observes its own update, not pre-state: mirror TXRead's
                // write-set hit and keep it out of the recorded read-set.
                if w.writes.lookup(l, addrs[l]).is_none() {
                    w.reads.push(l, addrs[l], vals[l]);
                }
            }
        }
        vals
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        // In-place update: the global lock is held.
        self.ledger.emit(ctx, TxEventKind::Write { lanes: mask.count() });
        ctx.store(mask, addrs, vals).await;
        if self.ledger.records() {
            for l in mask.iter() {
                w.writes.insert(l, addrs[l], vals[l]);
            }
        }
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        let Some(leader) = mask.leader() else { return LaneMask::EMPTY };
        debug_assert_eq!(mask.count(), 1, "CGL critical sections are single-lane");
        w.enter_phase(ctx.now(), Phase::Commit);
        ctx.fence(mask).await;
        ctx.store_one(leader, self.lock, 0).await; // release
        let version = self.ledger.next_serial_version(); // lock order = serial order
        self.ledger.commit(ctx, w, leader, Some(version), version.saturating_sub(1));
        w.reset_lane(leader);
        self.ledger.finish(ctx, w, mask, 0)
    }
}
