//! Shard engine STM instantiation.
//!
//! A serving shard holds its STM for its whole lifetime across many
//! batch launches, so it keeps the variant as the run-time-chosen
//! [`AnyStm`] (the trait has `async fn`s, so there is no `dyn Stm`) and
//! wraps it per [`EngineMode`] in [`EngineStm`].

use crate::error::ServeError;
use gpu_sim::{LaneAddrs, LaneMask, LaneVals, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{
    Recorder, Robust, Scheduled, StatsHandle, Stm, StmConfig, TxTraceSink, Variant, WarpTx,
};
use std::rc::Rc;
use workloads::{AnyStm, RunError};

/// How the base variant is wrapped for serving.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// The bare variant.
    Plain,
    /// Wrapped in the AIMD [`Scheduled`] concurrency limiter — the
    /// default, because its abort-storm signal also feeds the service's
    /// retry-after hints.
    Scheduled,
    /// [`Robust`] serialization fallback over the scheduled variant.
    Robust,
}

impl EngineMode {
    /// Parses a mode by name (`plain`, `scheduled`, `robust`).
    pub fn parse(name: &str) -> Option<EngineMode> {
        match name.to_ascii_lowercase().as_str() {
            "plain" => Some(EngineMode::Plain),
            "scheduled" => Some(EngineMode::Scheduled),
            "robust" => Some(EngineMode::Robust),
            _ => None,
        }
    }

    /// Short machine-friendly name.
    pub fn short_name(self) -> &'static str {
        match self {
            EngineMode::Plain => "plain",
            EngineMode::Scheduled => "scheduled",
            EngineMode::Robust => "robust",
        }
    }
}

/// The shard's STM: a base variant, optionally wrapped.
pub(crate) enum EngineStm {
    Base(AnyStm),
    Scheduled(Scheduled<AnyStm>),
    Robust(Robust<Scheduled<AnyStm>>),
}

macro_rules! engine_delegate {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            EngineStm::Base($s) => $body,
            EngineStm::Scheduled($s) => $body,
            EngineStm::Robust($s) => $body,
        }
    };
}

impl EngineStm {
    /// The [`Scheduled`] wrapper, when one is in the stack (directly or
    /// under [`Robust`]) — its adaptive-control state is part of engine
    /// snapshots.
    pub(crate) fn sched(&self) -> Option<&Scheduled<AnyStm>> {
        match self {
            EngineStm::Base(_) => None,
            EngineStm::Scheduled(s) => Some(s),
            EngineStm::Robust(r) => Some(r.inner()),
        }
    }

    /// The [`Robust`] wrapper, when the stack has one — its backoff RNG
    /// is part of engine snapshots.
    pub(crate) fn robust(&self) -> Option<&Robust<Scheduled<AnyStm>>> {
        match self {
            EngineStm::Robust(r) => Some(r),
            _ => None,
        }
    }
}

impl Stm for EngineStm {
    fn name(&self) -> &'static str {
        engine_delegate!(self, s => s.name())
    }

    fn new_warp(&self) -> WarpTx {
        engine_delegate!(self, s => s.new_warp())
    }

    fn stats(&self) -> StatsHandle {
        engine_delegate!(self, s => s.stats())
    }

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        engine_delegate!(self, s => s.begin(w, ctx, want).await)
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        engine_delegate!(self, s => s.read(w, ctx, mask, addrs).await)
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        engine_delegate!(self, s => s.write(w, ctx, mask, addrs, vals).await)
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        engine_delegate!(self, s => s.commit(w, ctx, mask).await)
    }

    fn opaque(&self, w: &WarpTx) -> LaneMask {
        engine_delegate!(self, s => s.opaque(w))
    }

    fn abort_storm(&self) -> bool {
        engine_delegate!(self, s => s.abort_storm())
    }
}

/// Instantiates `variant` in `sim` ([`AnyStm::build`]) with `recorder`
/// (and, when given, the flight-recorder `trace` tap) attached, wrapped
/// per `mode`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_stm(
    sim: &mut Sim,
    variant: Variant,
    mode: EngineMode,
    stm_cfg: StmConfig,
    shared_data_words: u64,
    grid: LaunchConfig,
    recorder: Recorder,
    trace: Option<TxTraceSink>,
) -> Result<EngineStm, ServeError> {
    let err = |e: gpu_sim::SimError| ServeError::BadConfig(format!("stm init: {e}"));
    let base = AnyStm::build(
        sim,
        variant,
        stm_cfg,
        shared_data_words,
        grid,
        Some(recorder),
        trace.clone(),
    )
    .map_err(|e| match e {
        RunError::Sim(e) => err(e),
        // `build`'s only other error: the grid exceeds EGPGV's metadata.
        _ => ServeError::BadConfig(format!(
            "STM-EGPGV cannot serve a {}-block batch grid",
            grid.blocks
        )),
    })?;
    // Applies the optional trace tap to a wrapper.
    macro_rules! traced {
        ($stm:expr) => {{
            let stm = $stm;
            match &trace {
                Some(t) => stm.with_trace(Rc::clone(t)),
                None => stm,
            }
        }};
    }
    Ok(match mode {
        EngineMode::Plain => EngineStm::Base(base),
        EngineMode::Scheduled => EngineStm::Scheduled(traced!(Scheduled::with_defaults(base))),
        EngineMode::Robust => {
            let sched = traced!(Scheduled::with_defaults(base));
            EngineStm::Robust(traced!(Robust::with_defaults(sim, sched).map_err(err)?))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trips() {
        for m in [EngineMode::Plain, EngineMode::Scheduled, EngineMode::Robust] {
            assert_eq!(EngineMode::parse(m.short_name()), Some(m));
        }
        assert_eq!(EngineMode::parse("turbo"), None);
    }
}
