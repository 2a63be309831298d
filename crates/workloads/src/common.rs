//! Shared run configuration and helpers for all workloads.

use crate::outcome::RunOutcome;
use gpu_sim::{RunReport, SimConfig};
use gpu_stm::{Recorder, Stm, StmConfig, TxTraceSink};

/// Bundle of knobs common to every workload run.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Simulator configuration (timing model, GPU limits, memory size).
    pub sim: SimConfig,
    /// STM configuration (lock-table size, lock-log shape, …).
    pub stm: StmConfig,
    /// Optional history recorder for correctness checking.
    pub recorder: Option<Recorder>,
    /// Optional transaction-lifecycle trace sink ([`gpu_stm::trace`]).
    /// Attach a simulator sink via `sim.trace` for the machine side.
    pub trace: Option<TxTraceSink>,
}

impl RunConfig {
    /// Defaults with a memory capacity of `mem_words`.
    pub fn with_memory(mem_words: usize) -> Self {
        RunConfig { sim: SimConfig::with_memory(mem_words), ..RunConfig::default() }
    }

    /// Sets the number of global version locks.
    pub fn with_locks(mut self, n_locks: u32) -> Self {
        self.stm = StmConfig::new(n_locks);
        self
    }

    /// Attaches a transaction-lifecycle trace sink to every STM variant
    /// the config dispatches.
    pub fn with_trace(mut self, sink: TxTraceSink) -> Self {
        self.trace = Some(sink);
        self
    }
}

/// Packages kernel reports plus the STM's accumulated statistics.
pub fn outcome<S: Stm>(kernels: Vec<RunReport>, stm: &S) -> RunOutcome {
    let tx = stm.stats().borrow().clone();
    RunOutcome { kernels, tx }
}

pub use gpu_sim::rng::mix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "poor diffusion: {a:#x} vs {b:#x}");
    }

    #[test]
    fn run_config_builders() {
        let c = RunConfig::with_memory(1 << 12).with_locks(1 << 8);
        assert_eq!(c.sim.mem_words, 1 << 12);
        assert_eq!(c.stm.n_locks, 1 << 8);
        assert!(c.recorder.is_none());
    }
}
