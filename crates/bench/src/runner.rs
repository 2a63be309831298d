//! Uniform workload execution used by the table/figure subcommands.

use crate::{square_grid, Suite};
use gpu_sim::{LaunchConfig, RunReport, SimStats, TraceSink};
use gpu_stm::{TxStats, TxTraceSink};
use workloads::{eigenbench, genome, ht, kmeans, labyrinth, ra, RunConfig, RunError, Variant};

/// The five figure-2 workloads plus EigenBench.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Random array.
    Ra,
    /// Hashtable.
    Ht,
    /// EigenBench.
    Eb,
    /// Genome (two kernels).
    Gn,
    /// Labyrinth.
    Lb,
    /// K-means.
    Km,
}

impl Workload {
    /// The paper's Figure 2 workloads, in its order.
    pub const FIGURE2: [Workload; 5] =
        [Workload::Ra, Workload::Ht, Workload::Gn, Workload::Lb, Workload::Km];

    /// Short lower-case name for `--only` filtering.
    pub fn short(self) -> &'static str {
        match self {
            Workload::Ra => "ra",
            Workload::Ht => "ht",
            Workload::Eb => "eb",
            Workload::Gn => "gn",
            Workload::Lb => "lb",
            Workload::Km => "km",
        }
    }

    /// Paper display name.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Ra => "RA",
            Workload::Ht => "HT",
            Workload::Eb => "EB",
            Workload::Gn => "GN",
            Workload::Lb => "LB",
            Workload::Km => "KM",
        }
    }

    /// Every workload, in Figure 2 order plus EigenBench.
    pub const ALL: [Workload; 6] =
        [Workload::Ra, Workload::Ht, Workload::Gn, Workload::Lb, Workload::Km, Workload::Eb];

    /// Parses a workload from its short name or paper label
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Workload> {
        let lower = s.to_ascii_lowercase();
        Workload::ALL.into_iter().find(|w| w.short() == lower)
    }
}

/// Metrics from one workload × variant execution.
#[derive(Clone, Debug)]
pub struct WlOutcome {
    /// Total simulated cycles (sum over kernels).
    pub cycles: u64,
    /// Per-kernel cycles (genome has two).
    pub kernel_cycles: Vec<u64>,
    /// Aggregate transactional statistics (genome: both kernels).
    pub tx: TxStats,
    /// Aggregate simulator counters, merged over all kernels.
    pub sim: SimStats,
    /// The launch geometry used.
    pub grid: LaunchConfig,
}

/// Optional observation sinks threaded into a run ([`run_workload_traced`]).
///
/// Both sinks are pure observers: attaching them changes no simulated
/// cycle count (verified by tests in `gpu-sim` and `tests/trace_invariants`).
#[derive(Clone, Default)]
pub struct TraceHooks {
    /// Simulator-side machine events (warp scheduling, memory, fences).
    pub sim: Option<TraceSink>,
    /// STM-side transaction-lifecycle events (begin/commit/abort/…).
    pub tx: Option<TxTraceSink>,
}

fn merge_sim(kernels: &[RunReport]) -> SimStats {
    let mut out = SimStats::new();
    for k in kernels {
        out.merge(&k.stats);
    }
    out
}

fn merge_tx(a: &TxStats, b: &TxStats) -> TxStats {
    let mut out = a.clone();
    out.commits += b.commits;
    out.read_only_commits += b.read_only_commits;
    out.aborts += b.aborts;
    out.aborts_read_validation += b.aborts_read_validation;
    out.aborts_commit_tbv += b.aborts_commit_tbv;
    out.aborts_commit_vbv += b.aborts_commit_vbv;
    out.aborts_pre_vbv += b.aborts_pre_vbv;
    out.aborts_lock_busy += b.aborts_lock_busy;
    out.lock_retries += b.lock_retries;
    out.false_conflicts_filtered += b.false_conflicts_filtered;
    out.reads_committed += b.reads_committed;
    out.writes_committed += b.writes_committed;
    out.max_consec_aborts = out.max_consec_aborts.max(b.max_consec_aborts);
    out.escalations += b.escalations;
    out.fallback_commits += b.fallback_commits;
    out.breakdown.merge(&b.breakdown);
    out
}

/// Runs `workload` under `variant` with roughly `threads` threads, using
/// the suite's scaled data sizes.
///
/// # Errors
///
/// Propagates workload errors ([`RunError::Unsupported`] marks
/// configurations a variant cannot run, e.g. EGPGV at scale).
pub fn run_workload(
    suite: &Suite,
    workload: Workload,
    variant: Variant,
    threads: Option<u64>,
) -> Result<WlOutcome, RunError> {
    run_workload_traced(suite, workload, variant, threads, &TraceHooks::default())
}

/// [`run_workload`] with optional trace sinks attached to the simulator
/// and the STM ([`TraceHooks`]). Used by the `trace` subcommand and the
/// telemetry tests; passing default hooks is identical to `run_workload`.
///
/// # Errors
///
/// Propagates workload errors exactly as [`run_workload`] does.
pub fn run_workload_traced(
    suite: &Suite,
    workload: Workload,
    variant: Variant,
    threads: Option<u64>,
    hooks: &TraceHooks,
) -> Result<WlOutcome, RunError> {
    let cfg = |data_words: u64, grid: LaunchConfig| -> RunConfig {
        let mut cfg = suite.run_config(data_words, grid.total_threads());
        cfg.sim.trace = hooks.sim.clone();
        cfg.trace = hooks.tx.clone();
        cfg
    };
    let (out, grid) = match workload {
        Workload::Ra => {
            let (params, grid) = suite.ra();
            let grid = threads.map_or(grid, square_grid);
            (ra::run(&params, variant, grid, &cfg(params.shared_words as u64, grid))?, grid)
        }
        Workload::Ht => {
            let (mut params, mut grid) = suite.ht();
            if let Some(t) = threads {
                grid = square_grid(t);
                params.table_words = ((grid.total_threads() * params.inserts_per_tx as u64 * 8)
                    as u32)
                    .next_power_of_two();
            }
            (ht::run(&params, variant, grid, &cfg(params.table_words as u64, grid))?, grid)
        }
        Workload::Eb => {
            let (params, grid) = suite.eb();
            let grid = threads.map_or(grid, square_grid);
            let data = params.hot_words as u64
                + grid.total_threads() * (params.mild_words + params.cold_words) as u64;
            (eigenbench::run(&params, variant, grid, &cfg(data, grid))?, grid)
        }
        Workload::Gn => {
            let (mut params, mut g1, mut g2) = suite.gn();
            if let Some(t) = threads {
                g1 = square_grid(t);
                params.n_segments = g1.total_threads() as u32;
                params.value_space = (params.n_segments / 2).max(32);
                params.table_words = (params.n_segments * 8).next_power_of_two();
                g2 = square_grid((params.n_segments / 2).max(32) as u64);
            }
            let out = genome::run(&params, variant, g1, g2, &cfg(params.table_words as u64, g1))?;
            let mut sim = merge_sim(&out.k1.kernels);
            sim.merge(&merge_sim(&out.k2.kernels));
            return Ok(WlOutcome {
                cycles: out.k1.cycles() + out.k2.cycles(),
                kernel_cycles: vec![out.k1.cycles(), out.k2.cycles()],
                sim,
                tx: merge_tx(&out.k1.tx, &out.k2.tx),
                grid: g1,
            });
        }
        Workload::Lb => {
            let (params, grid) = suite.lb();
            let grid = threads.map_or(grid, |t| LaunchConfig::new((t as u32 / 32).max(1), 32));
            let cells = (params.width * params.height) as u64;
            (labyrinth::run(&params, variant, grid, &cfg(cells, grid))?.base, grid)
        }
        Workload::Km => {
            let (params, grid) = suite.km();
            let grid = threads.map_or(grid, |t| LaunchConfig::new((t as u32 / 2).max(1), 2));
            (kmeans::run(&params, variant, grid, &cfg(params.shared_words() as u64, grid))?, grid)
        }
    };
    Ok(WlOutcome {
        cycles: out.cycles(),
        kernel_cycles: out.kernel_cycles(),
        sim: merge_sim(&out.kernels),
        tx: out.tx,
        grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_suite() -> Suite {
        Suite { data_scale: 1024, thread_scale: 256, only: None }
    }

    #[test]
    fn every_workload_runs_hv_sorting() {
        let suite = quick_suite();
        for w in
            [Workload::Ra, Workload::Ht, Workload::Eb, Workload::Gn, Workload::Lb, Workload::Km]
        {
            let out = run_workload(&suite, w, Variant::HvSorting, Some(64)).unwrap();
            assert!(out.tx.commits > 0, "{w:?}");
            assert!(out.cycles > 0, "{w:?}");
        }
    }

    #[test]
    fn workload_parse_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.short()), Some(w));
            assert_eq!(Workload::parse(w.label()), Some(w));
        }
        assert_eq!(Workload::parse("no-such-workload"), None);
    }

    #[test]
    fn outcome_carries_merged_sim_stats() {
        let suite = quick_suite();
        let out = run_workload(&suite, Workload::Gn, Variant::HvSorting, Some(64)).unwrap();
        // Two kernels merged: instruction and lane counters must be live.
        assert!(out.sim.instructions > 0);
        assert!(out.sim.lane_slots >= out.sim.active_lanes);
        assert!(out.sim.blocks_completed > 0);
    }

    #[test]
    fn genome_reports_two_kernels() {
        let suite = quick_suite();
        let out = run_workload(&suite, Workload::Gn, Variant::TbvSorting, Some(64)).unwrap();
        assert_eq!(out.kernel_cycles.len(), 2);
    }
}
