//! Shard engine STM instantiation.
//!
//! A serving shard holds its STM for its whole lifetime across many
//! batch launches, so it keeps the variant as the run-time-chosen
//! [`AnyStm`] (the trait has `async fn`s, so there is no `dyn Stm`) in a
//! [`Pipeline`] whose [`Policies`] are the [`EngineMode`]'s preset.

use crate::error::ServeError;
use gpu_sim::{LaunchConfig, Sim};
use gpu_stm::{
    Pipeline, Policies, Recorder, RobustConfig, SchedulerConfig, StmConfig, TxTraceSink, Variant,
};
use workloads::{AnyStm, RunError};

/// Which [`Policies`] preset the shard's STM runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// The bare variant.
    Plain,
    /// AIMD admission — the default, because its abort-storm signal also
    /// feeds the service's retry-after hints.
    Scheduled,
    /// AIMD admission plus escalation (backoff and the serialization
    /// fallback).
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

    /// The mode's [`Policies`] preset, every policy at its default tuning.
    pub fn policies(self) -> Policies {
        let admission = Some(SchedulerConfig::default());
        match self {
            EngineMode::Plain => Policies::default(),
            EngineMode::Scheduled => Policies { admission, ..Policies::default() },
            EngineMode::Robust => Policies {
                admission,
                escalation: Some(RobustConfig::default()),
                ..Policies::default()
            },
        }
    }
}

/// Instantiates `variant` in `sim` ([`AnyStm::build`]) with `recorder`
/// (and, when given, the flight-recorder `trace` tap) attached, in a
/// [`Pipeline`] running `mode`'s policies (which trace to the same tap).
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
) -> Result<Pipeline<AnyStm>, ServeError> {
    let err = |e: gpu_sim::SimError| ServeError::BadConfig(format!("stm init: {e}"));
    let base = AnyStm::build(sim, variant, stm_cfg, shared_data_words, grid, Some(recorder), trace)
        .map_err(|e| match e {
            RunError::Sim(e) => err(e),
            // `build`'s only other error: the grid exceeds EGPGV's metadata.
            _ => ServeError::BadConfig(format!(
                "STM-EGPGV cannot serve a {}-block batch grid",
                grid.blocks
            )),
        })?;
    Pipeline::new(sim, base, &stm_cfg, mode.policies()).map_err(err)
}

#[cfg(test)]
mod observer_streams;

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
