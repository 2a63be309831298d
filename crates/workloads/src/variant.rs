//! Concurrency-control variant construction and dispatch.
//!
//! [`AnyStm::build`] is the one place that decides which runtime a
//! [`Variant`] is. Workload kernels are generic over [`Stm`]; [`dispatch`]
//! hands the built runtime to them as its concrete type, so each kernel
//! is instantiated once per runtime type and pays no per-operation
//! `match`.

use crate::outcome::RunError;
use gpu_sim::{LaneAddrs, LaneMask, LaneVals, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{
    CglStm, EgpgvStm, LockStm, NorecStm, Recorder, StatsHandle, Stm, StmConfig, StmShared,
    TxTraceSink, Variant, WarpTx,
};
use std::rc::Rc;

/// The runtime of any [`Variant`], chosen at run time. STM-Optimized and
/// the four TBV/HV × sorting/backoff variants are all a [`LockStm`].
#[derive(Debug)]
pub enum AnyStm {
    /// [`Variant::Cgl`].
    Cgl(CglStm),
    /// [`Variant::Egpgv`].
    Egpgv(EgpgvStm),
    /// [`Variant::Vbv`].
    Vbv(NorecStm),
    /// Every lock-based variant, STM-Optimized included.
    Lock(LockStm),
}

impl AnyStm {
    /// Instantiates `variant`, allocating its metadata in `sim`, with the
    /// optional history `recorder` and transaction-lifecycle `trace` sink
    /// ([`gpu_stm::trace`]) attached.
    ///
    /// `shared_data_words` drives STM-Optimized's HV/TBV choice
    /// ([`LockStm::optimized`]); `grid` is used to reject launches the
    /// EGPGV design cannot support.
    ///
    /// # Errors
    ///
    /// [`RunError::Unsupported`] when `variant` cannot run `grid`
    /// (EGPGV beyond its per-block metadata), or a simulator allocation
    /// error.
    pub fn build(
        sim: &mut Sim,
        variant: Variant,
        stm_cfg: StmConfig,
        shared_data_words: u64,
        grid: LaunchConfig,
        recorder: Option<Recorder>,
        trace: Option<TxTraceSink>,
    ) -> Result<AnyStm, RunError> {
        // CGL keeps no version locks, so it allocates no `StmShared`.
        if variant == Variant::Cgl {
            return Ok(AnyStm::Cgl(CglStm::init(sim)?.with_observers(recorder, trace)));
        }
        let shared = StmShared::init(sim, &stm_cfg)?;
        Ok(match variant {
            Variant::Egpgv => {
                let stm = EgpgvStm::init(sim, shared, stm_cfg)?;
                if !stm.supports(grid) {
                    return Err(RunError::Unsupported(
                        "STM-EGPGV supports per-thread-block transactions only up to its fixed \
                         per-block metadata capacity",
                    ));
                }
                AnyStm::Egpgv(stm.with_observers(recorder, trace))
            }
            Variant::Vbv => {
                AnyStm::Vbv(NorecStm::new(shared, stm_cfg).with_observers(recorder, trace))
            }
            Variant::Optimized => AnyStm::Lock(
                LockStm::optimized(shared, stm_cfg, shared_data_words)
                    .with_observers(recorder, trace),
            ),
            lock => {
                let stm = LockStm::for_variant(lock, shared, stm_cfg)
                    .expect("every remaining variant is a fixed lock-based one");
                AnyStm::Lock(stm.with_observers(recorder, trace))
            }
        })
    }
}

macro_rules! each {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            AnyStm::Cgl($s) => $body,
            AnyStm::Egpgv($s) => $body,
            AnyStm::Vbv($s) => $body,
            AnyStm::Lock($s) => $body,
        }
    };
}

impl Stm for AnyStm {
    fn name(&self) -> &'static str {
        each!(self, s => s.name())
    }

    fn new_warp(&self) -> WarpTx {
        each!(self, s => s.new_warp())
    }

    fn stats(&self) -> StatsHandle {
        each!(self, s => s.stats())
    }

    fn tx_trace(&self) -> Option<TxTraceSink> {
        each!(self, s => s.tx_trace())
    }

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        each!(self, s => s.begin(w, ctx, want).await)
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        each!(self, s => s.read(w, ctx, mask, addrs).await)
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        each!(self, s => s.write(w, ctx, mask, addrs, vals).await)
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        each!(self, s => s.commit(w, ctx, mask).await)
    }

    fn opaque(&self, w: &WarpTx) -> LaneMask {
        each!(self, s => s.opaque(w))
    }
}

/// A computation generic over the concrete STM type — the only way to pass
/// a "generic closure" in stable Rust.
pub trait StmRunner {
    /// Result of the run.
    type Out;
    /// Runs the workload with a concrete STM instance.
    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<Self::Out, RunError>;
}

/// Instantiates `variant` with [`AnyStm::build`] and invokes `runner`
/// with the concrete STM.
///
/// # Errors
///
/// Those of [`AnyStm::build`], or the runner's.
#[allow(clippy::too_many_arguments)] // one optional observer per concern; a builder would obscure the call sites
pub fn dispatch<R: StmRunner>(
    sim: &mut Sim,
    variant: Variant,
    stm_cfg: StmConfig,
    shared_data_words: u64,
    grid: LaunchConfig,
    recorder: Option<Recorder>,
    trace: Option<TxTraceSink>,
    runner: R,
) -> Result<R::Out, RunError> {
    match AnyStm::build(sim, variant, stm_cfg, shared_data_words, grid, recorder, trace)? {
        AnyStm::Cgl(stm) => runner.run(sim, Rc::new(stm)),
        AnyStm::Egpgv(stm) => runner.run(sim, Rc::new(stm)),
        AnyStm::Vbv(stm) => runner.run(sim, Rc::new(stm)),
        AnyStm::Lock(stm) => runner.run(sim, Rc::new(stm)),
    }
}
