//! STM-VBV: a NOrec-like value-based STM with a single global sequence
//! lock (Dalessandro et al., PPoPP 2010), as re-implemented by the paper
//! for its evaluation baseline.
//!
//! One word — the global clock — doubles as a sequence lock: even means
//! unlocked, odd means a writer is committing. Reads post-validate the
//! whole read-set by value whenever the clock has moved; commits serialise
//! on a CAS of the clock. The design needs no other shared metadata, which
//! makes it fast on CPUs but unscalable under thousands of GPU
//! transactions: every commit contends on the one word and memory updates
//! of all transactions serialise behind it (Section 3.1).

use crate::api::Stm;
use crate::config::StmConfig;
use crate::history::Recorder;
use crate::ledger::Ledger;
use crate::shared::StmShared;
use crate::stats::{AbortCause, Phase, StatsHandle};
use crate::trace::{TxEventKind, TxTraceSink};
use crate::validation::vbv;
use crate::variant::Variant;
use crate::warptx::WarpTx;
use gpu_sim::{LaneAddrs, LaneMask, LaneVals, WarpCtx, WARP_SIZE};

/// The NOrec-like single-sequence-lock STM (paper name: STM-VBV).
#[derive(Clone)]
pub struct NorecStm {
    shared: StmShared,
    cfg: StmConfig,
    ledger: Ledger,
}

impl std::fmt::Debug for NorecStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NorecStm").finish_non_exhaustive()
    }
}

impl NorecStm {
    /// Creates the variant. Only the global clock word of `shared` is
    /// used; the lock table is ignored (NOrec's defining property).
    pub fn new(shared: StmShared, cfg: StmConfig) -> Self {
        NorecStm { shared, cfg, ledger: Ledger::new() }
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

    /// Re-validates `lanes` against a moved sequence lock. Aborting lanes
    /// are marked inconsistent; survivors adopt `t` as their snapshot.
    /// Returns the failing lanes.
    async fn revalidate(&self, w: &mut WarpTx, ctx: &WarpCtx, lanes: LaneMask, t: u32) -> LaneMask {
        let failed = vbv(w, ctx, lanes).await;
        // Events carry the initial (read-validation) cause even when the
        // stats later reclassify a commit-time failure; totals reconcile.
        self.ledger.abort(ctx, AbortCause::ReadValidation, failed.count());
        self.ledger
            .emit(ctx, TxEventKind::Validate { checked: lanes.count(), failed: failed.count() });
        for l in failed.iter() {
            w.mark_inconsistent(l);
        }
        for l in (lanes & !failed).iter() {
            w.snapshot[l] = t;
        }
        failed
    }

    /// Spins until the sequence lock is even, returning its value.
    async fn wait_even(&self, ctx: &WarpCtx, mask: LaneMask) -> u32 {
        loop {
            let t = ctx.load_uniform(mask, self.shared.clock).await;
            if t & 1 == 0 {
                return t;
            }
        }
    }
}

impl Stm for NorecStm {
    fn name(&self) -> &'static str {
        Variant::Vbv.label()
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

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        w.enter_phase(ctx.now(), Phase::Init);
        for l in want.iter() {
            w.reset_lane(l);
        }
        ctx.local_access(want, 1).await;
        let t = self.wait_even(ctx, want).await;
        for l in want.iter() {
            w.snapshot[l] = t;
        }
        ctx.fence(want).await;
        w.enter_phase(ctx.now(), Phase::Native);
        if want.any() {
            self.ledger.emit(ctx, TxEventKind::Begin { lanes: want.count() });
        }
        want
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        w.enter_phase(ctx.now(), Phase::Buffering);
        self.ledger.emit(ctx, TxEventKind::Read { lanes: mask.count() });
        let mut out = [0u32; WARP_SIZE];
        let mut hits = LaneMask::EMPTY;
        for l in mask.iter() {
            if let Some(v) = w.writes.lookup(l, addrs[l]) {
                out[l] = v;
                hits |= LaneMask::lane(l);
            }
        }
        ctx.local_access(mask, 1).await;
        let need = mask & !hits;
        if need.none() {
            w.enter_phase(ctx.now(), Phase::Native);
            return out;
        }

        let mut vals = ctx.load(need, addrs).await;
        // NOrec read post-validation: while the sequence lock has moved,
        // re-validate all prior reads by value and re-read the target.
        w.enter_phase(ctx.now(), Phase::Consistency);
        let mut unsettled = need;
        loop {
            let t = ctx.load_uniform(unsettled, self.shared.clock).await;
            let moved = unsettled.filter(|l| t != w.snapshot[l] && w.opaque.contains(l));
            let settled = unsettled & !moved;
            unsettled = moved;
            let _ = settled;
            if unsettled.none() {
                break;
            }
            if t & 1 != 0 {
                continue; // writer committing: spin until even
            }
            let failed = self.revalidate(w, ctx, unsettled, t).await;
            let survivors = unsettled & !failed;
            if survivors.any() {
                let re = ctx.load(survivors, addrs).await;
                for l in survivors.iter() {
                    vals[l] = re[l];
                }
            }
            unsettled = survivors; // loop re-checks the clock
        }

        w.enter_phase(ctx.now(), Phase::Buffering);
        for l in need.iter() {
            out[l] = vals[l];
            w.reads.push(l, addrs[l], vals[l]);
        }
        ctx.local_access(need, 1).await;
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
        w.enter_phase(ctx.now(), Phase::Buffering);
        self.ledger.emit(ctx, TxEventKind::Write { lanes: mask.count() });
        for l in mask.iter() {
            w.writes.insert(l, addrs[l], vals[l]);
        }
        ctx.local_access(mask, 1).await;
        w.enter_phase(ctx.now(), Phase::Native);
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        let mut committed = LaneMask::EMPTY;
        let doomed = mask & !w.opaque;
        for l in doomed.iter() {
            w.reset_lane(l);
        }
        let mut active = mask & !doomed;

        // Read-only transactions are already valid at their snapshot.
        let ro = self.ledger.commit_read_only(ctx, w, active);
        committed |= ro;
        active &= !ro;

        while active.any() {
            w.enter_phase(ctx.now(), Phase::Locking);
            // All active lanes CAS the sequence lock; at most one wins per
            // instruction (single global lock = serialised commits).
            let clock_addrs = [self.shared.clock; WARP_SIZE];
            let cmp_vals: [u32; WARP_SIZE] = std::array::from_fn(|l| w.snapshot[l]);
            let new_vals: [u32; WARP_SIZE] = std::array::from_fn(|l| w.snapshot[l].wrapping_add(1));
            let old = ctx.atomic_cas(active, &clock_addrs, &cmp_vals, &new_vals).await;
            let winner = active.filter(|l| old[l] == w.snapshot[l]);
            self.ledger.emit(
                ctx,
                TxEventKind::Lock { lanes: active.count(), busy: (active & !winner).count() },
            );

            if let Some(l) = winner.leader() {
                let m = LaneMask::lane(l);
                w.enter_phase(ctx.now(), Phase::Commit);
                let version = w.snapshot[l] + 1; // odd: lock held
                                                 // Publish the write-set (serialised behind the one lock).
                for k in 0..w.writes.len(l) {
                    let e = w.writes.get(l, k);
                    ctx.store_one(l, e.addr, e.val).await;
                }
                ctx.fence(m).await;
                ctx.store_one(l, self.shared.clock, version + 1).await; // release: even
                self.ledger.commit(ctx, w, l, Some(version), w.snapshot[l]);
                w.reset_lane(l);
                committed |= m;
                active &= !m;
            }

            // Losers: wait for an even clock, then re-validate by value.
            if active.any() {
                w.enter_phase(ctx.now(), Phase::Consistency);
                let t = self.wait_even(ctx, active).await;
                let stale = active.filter(|l| t != w.snapshot[l]);
                if stale.any() {
                    let failed = self.revalidate(w, ctx, stale, t).await;
                    // Failed lanes were recorded as read-validation aborts;
                    // re-classify as commit-time for accounting accuracy.
                    if failed.any() {
                        let mut st = self.ledger.stats.borrow_mut();
                        st.aborts_read_validation -= failed.count() as u64;
                        st.aborts_commit_vbv += failed.count() as u64;
                    }
                    for l in failed.iter() {
                        w.reset_lane(l);
                    }
                    active &= !failed;
                }
            }
        }

        self.ledger.finish(ctx, w, committed, (mask & !committed).count())
    }
}
