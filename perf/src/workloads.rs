//! The seven workloads. Names are fixed: later issues cite them.
//!
//! A workload is a fixed list of cells executed back to back — one
//! *repetition*. Cell sizes are constants in the submodules, tuned once on
//! the reference box (2 cores) so a repetition takes 0.30–0.43 s; changing
//! one changes what every committed number means.

pub mod kernels;
pub mod probes;
pub mod serve;
pub mod sim_prims;
pub mod txl_passes;
pub mod verify_dpor;

use crate::trace::{Span, Tracer};
use std::sync::Arc;

/// Named figures a repetition or probe produced. Values read from the
/// layers' public reports (counts, simulated cycles) are exact for a seed.
pub type Facts = Vec<(&'static str, f64)>;

/// What one repetition did.
pub struct Rep {
    /// Operations completed, in the workload's own unit.
    pub ops: u64,
    /// Operations attempted and, of those, failed an output check.
    pub attempted: u64,
    pub failed: u64,
    /// Exact figures: every repetition of a seed must produce the same.
    pub facts: Facts,
    /// One line per failed check, for the person reading stderr.
    pub complaints: Vec<String>,
    /// Per-cell lines the traced pass prints for the person reading stdout.
    pub notes: Vec<String>,
}

impl Rep {
    pub fn new() -> Rep {
        Rep {
            ops: 0,
            attempted: 0,
            failed: 0,
            facts: Vec::new(),
            complaints: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts `n` attempted operations, all failed unless `ok`.
    pub fn check(&mut self, n: u64, ok: bool, complaint: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.complaints.push(complaint());
        }
    }
}

pub trait Workload {
    /// Runs every cell once.
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep;

    /// Traced pass only: host-time per-layer figures, from the spans of
    /// `reps` traced repetitions and from probes and paired runs made now.
    /// Checks made by probes are added to `out`'s counts.
    fn layers(&mut self, t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep);
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Generates the inputs from the seed, runs the baseline cells and one
    /// warm-up repetition: everything `setup_s` times.
    pub setup: fn(seed: u64) -> Box<dyn Workload>,
}

pub const ALL: [Spec; 7] = [
    Spec {
        name: "sim_prims",
        why: "bare Sim::launch kernels, no STM: simulator-core changes show at full size and STM changes must show nothing",
        setup: sim_prims::setup,
    },
    Spec {
        name: "stm_moderate",
        why: "Figure 2 cells with moderate conflicts: many short transactions, so read/write-set and lock-log bookkeeping dominate",
        setup: kernels::setup_moderate,
    },
    Spec {
        name: "stm_storm",
        why: "86-98% of attempts abort or spin on one sequence lock: contention management shows, bookkeeping barely does",
        setup: kernels::setup_storm,
    },
    Spec {
        name: "serve_sat",
        why: "closed batch of 50k bank requests in few huge batches: engine launches and 2PC dominate, the coordinator loop does almost nothing",
        setup: serve::setup_sat,
    },
    Spec {
        name: "serve_paced_wal",
        why: "open loop at 4 req/kcycle, durable: many small batches, so WAL, snapshots, obs and the round barrier dominate",
        setup: serve::setup_paced_wal,
    },
    Spec {
        name: "verify_dpor",
        why: "thousands of two-warp launches: Sim::new, StmShared::init, controller decisions and trace dedup dominate",
        setup: verify_dpor::setup,
    },
    Spec {
        name: "txl_passes",
        why: "compile, lint, analyze and fix over the fixture corpus: the only workload where txl does the work",
        setup: txl_passes::setup,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// `--seed 0` keeps every layer's committed default seed, so simulated
/// numbers line up with EXPERIMENTS.md; any other seed is XOR-ed in.
pub fn mix_seed(default: u64, seed: u64) -> u64 {
    default ^ seed
}

/// The simulator figures every simulator-running workload reports.
pub fn sim_facts(stats: &gpu_sim::SimStats, cycles: u64, facts: &mut Facts) {
    let instr = stats.instructions.max(1) as f64;
    facts.extend([
        ("gpu-sim.instr", stats.instructions as f64),
        ("gpu-sim.mem_tx_per_instr", stats.mem_transactions as f64 / instr),
        ("gpu-sim.coalescing_eff", stats.coalescing_efficiency()),
        ("gpu-sim.l2_hit_rate", stats.l2_hit_rate()),
        ("gpu-sim.simt_eff", stats.simt_efficiency()),
        ("gpu-sim.idle_cycle_share", stats.idle_cycles as f64 / cycles.max(1) as f64),
    ]);
}

/// The figure named `name`, or 0 if the repetition did not report it.
pub fn fact(facts: &Facts, name: &str) -> f64 {
    facts.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// Median wall time of `runs` calls of `f`, in seconds.
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}
