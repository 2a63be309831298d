//! One STM pipeline: the contention and blocking policies around any
//! base runtime.
//!
//! A [`Pipeline`] wraps one of the base runtimes (or a run-time choice of
//! them) and runs up to three policies around it, chosen by one
//! [`Policies`] value:
//!
//! - **admission** ([`SchedulerConfig`], [`crate::scheduler`]) — the AIMD
//!   concurrency limit the paper leaves as future work (§4.2);
//! - **escalation** ([`RobustConfig`], [`crate::robust`]) — bounded
//!   backoff, starvation streaks and the serialized fallback lock;
//! - **wake** ([`Wake`], [`crate::park`]) — the waker registry every
//!   commit notifies, plus `retry` / `or_else` / `commit_or_park`.
//!
//! Their order is fixed and written once, here:
//!
//! - `begin`: escalation gate → admission → inner `begin` → return the
//!   slots of lanes the inner runtime did not admit;
//! - `commit`: capture the write set (wake only) → inner `commit` → AIMD
//!   record and `Throttle` → streaks, escalate CAS, `Backoff` → notify.
//!
//! With every policy off the pipeline is the bare runtime: each call is
//! forwarded and nothing else runs.

use crate::api::Stm;
use crate::config::StmConfig;
use crate::ledger::Ledger;
use crate::park::{Parking, Wake};
use crate::robust::{Escalation, RobustConfig};
use crate::scheduler::{SchedState, SchedulerCheckpoint, SchedulerConfig};
use crate::stats::StatsHandle;
use crate::trace::{TxEventKind, TxTraceSink};
use crate::warptx::WarpTx;
use gpu_sim::{Addr, LaneAddrs, LaneMask, LaneVals, Sim, SimError, WarpCtx};
use std::cell::RefCell;
use std::rc::Rc;

/// Which policies a [`Pipeline`] runs. The default runs none.
#[derive(Copy, Clone, Debug, Default)]
pub struct Policies {
    /// AIMD admission control.
    pub admission: Option<SchedulerConfig>,
    /// Backoff, starvation streaks and the fallback lock.
    pub escalation: Option<RobustConfig>,
    /// Blocking retry and the commit-side notify.
    pub wake: Wake,
}

/// A base runtime with its [`Policies`]. Kernels see a plain [`Stm`]:
/// refused lanes get an empty mask from `begin` and retry, exactly like
/// a contended CGL/EGPGV admission. Clones share the policy state.
#[derive(Clone, Debug)]
pub struct Pipeline<S> {
    inner: S,
    admission: Option<Rc<RefCell<SchedState>>>,
    escalation: Option<Escalation>,
    pub(crate) wake: Option<Parking>,
    /// The inner runtime's stats and trace sink, for the policies' own
    /// counters and events.
    pub(crate) ledger: Ledger,
}

impl<S: Stm> Pipeline<S> {
    /// Wraps `inner` with `policies`. The policies count into `inner`'s
    /// stats and emit to its trace sink ([`Stm::tx_trace`]), so
    /// observers are attached to `inner` alone, before it is wrapped.
    /// Device words are allocated after the inner runtime's, in policy
    /// order: the fallback-lock word (escalation), then the registry's
    /// stripe words (wake). The wake policy takes its park knobs from
    /// `cfg`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadLaunch`] when a policy's configuration (or, with
    /// wake on, `cfg`) fails validation; [`SimError::OutOfMemory`] when
    /// the policy words do not fit.
    pub fn new(
        sim: &mut Sim,
        inner: S,
        cfg: &StmConfig,
        policies: Policies,
    ) -> Result<Self, SimError> {
        let bad = |what: &str, e: String| SimError::BadLaunch(format!("invalid {what}: {e}"));
        if let Some(a) = &policies.admission {
            a.validate().map_err(|e| bad("SchedulerConfig", e))?;
        }
        if let Some(e) = &policies.escalation {
            e.validate().map_err(|e| bad("RobustConfig", e))?;
        }
        if policies.wake != Wake::Off {
            cfg.validate().map_err(|e| bad("StmConfig", e))?;
        }
        let escalation = policies.escalation.map(|e| Escalation::init(sim, e)).transpose()?;
        let wake = match policies.wake {
            Wake::Off => None,
            w => Some(Parking::new(sim, cfg, w == Wake::Park)?),
        };
        let ledger = Ledger::policies(inner.stats(), inner.tx_trace());
        Ok(Pipeline {
            inner,
            admission: policies.admission.map(|a| Rc::new(RefCell::new(SchedState::new(a)))),
            escalation,
            wake,
            ledger,
        })
    }

    /// Seeds a correctness [`BlockingMutation`](crate::BlockingMutation) into the wake policy —
    /// verifier-validation use only. No-op with wake off.
    #[cfg(any(test, feature = "mutants"))]
    pub fn with_mutation(mut self, mutation: crate::BlockingMutation) -> Self {
        if let Some(p) = &mut self.wake {
            p.mutation = mutation;
        }
        self
    }

    /// Whether admission's last completed window had an abort rate above
    /// its high-water mark. Always `false` with admission off.
    pub fn abort_storm(&self) -> bool {
        self.admission.as_ref().is_some_and(|st| st.borrow().storm)
    }

    /// Admission's adaptive-control state, for crash-recovery snapshots
    /// and reporting; `None` with admission off.
    pub fn checkpoint(&self) -> Option<SchedulerCheckpoint> {
        self.admission.as_ref().map(|st| st.borrow().checkpoint())
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint) (the
    /// pipeline must have been built with the same [`SchedulerConfig`]).
    /// No-op with admission off.
    pub fn restore_checkpoint(&self, ck: &SchedulerCheckpoint) {
        if let Some(st) = &self.admission {
            st.borrow_mut().restore(ck);
        }
    }

    /// Escalation's backoff-jitter RNG state, its only host-side mutable
    /// state; capture it in crash-recovery snapshots so replayed backoff
    /// spans match the original run cycle-for-cycle. `None` with
    /// escalation off.
    pub fn rng_state(&self) -> Option<u64> {
        self.escalation.as_ref().map(|e| e.rng.get())
    }

    /// Restores the RNG captured by [`rng_state`](Self::rng_state).
    /// No-op with escalation off.
    pub fn restore_rng_state(&self, rng: u64) {
        if let Some(e) = &self.escalation {
            e.rng.set(rng);
        }
    }

    /// Device address of escalation's fallback-lock word; `None` with
    /// escalation off.
    pub fn fallback_lock_addr(&self) -> Option<Addr> {
        self.escalation.as_ref().map(|e| e.lock)
    }
}

impl<S: Stm> Stm for Pipeline<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn new_warp(&self) -> WarpTx {
        self.inner.new_warp()
    }

    fn stats(&self) -> StatsHandle {
        self.inner.stats()
    }

    fn tx_trace(&self) -> Option<TxTraceSink> {
        self.ledger.trace.clone()
    }

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        let mut want = want;
        if let Some(esc) = &self.escalation {
            match esc.gate(ctx, want).await {
                Some(allowed) => want = allowed,
                None => return LaneMask::EMPTY,
            }
        }
        let Some(st) = &self.admission else {
            return self.inner.begin(w, ctx, want).await;
        };
        let granted = st.borrow_mut().admit(want);
        if granted.none() {
            // Refused: idle briefly so retries don't spin hot.
            ctx.idle(200).await;
            return LaneMask::EMPTY;
        }
        let admitted = self.inner.begin(w, ctx, granted).await;
        // If the inner runtime admitted fewer lanes, return the slots.
        let refused = granted & !admitted;
        if refused.any() {
            st.borrow_mut().in_flight -= refused.count();
        }
        admitted
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        self.inner.read(w, ctx, mask, addrs).await
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        self.inner.write(w, ctx, mask, addrs, vals).await
    }

    /// Commits through every policy. With wake on, writers that never
    /// block themselves still notify sleepers; kernels that call
    /// [`Pipeline::retry`] must resolve it through
    /// [`Pipeline::commit_or_park`], as this entry point ignores pending
    /// retry marks.
    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        let captured = match &self.wake {
            Some(_) if mask.none() => return LaneMask::EMPTY,
            Some(_) => Some(Parking::capture(w, mask)),
            None => None,
        };
        let committed = self.inner.commit(w, ctx, mask).await;
        if let Some(st) = &self.admission {
            let changed = {
                let mut st = st.borrow_mut();
                st.in_flight = st.in_flight.saturating_sub(mask.count());
                st.record(committed.count(), (mask & !committed).count())
            };
            if let Some(limit) = changed {
                self.ledger.emit(ctx, TxEventKind::Throttle { limit });
            }
        }
        if let Some(esc) = &self.escalation {
            let worst = esc.settle(w, ctx, mask, committed, &self.ledger).await;
            // Decorrelate lockstep retries with bounded randomized backoff.
            if (mask & !committed).any() {
                let span = esc.backoff_span(worst, self.abort_storm());
                self.ledger.emit(ctx, TxEventKind::Backoff { cycles: span });
                ctx.idle(span).await;
            }
        }
        if let (Some(p), Some(captured)) = (&self.wake, captured) {
            p.notify(ctx, captured, committed).await;
        }
        committed
    }

    fn opaque(&self, w: &WarpTx) -> LaneMask {
        self.inner.opaque(w)
    }
}
