//! `stm_moderate` and `stm_storm`: the paper's kernels under the STM
//! variants, at the scale the figure binaries use (`bench::Suite` default:
//! data ÷ 64, threads ÷ 16).

use super::{fact, mix_seed, sim_facts, Facts, Rep, Workload};
use crate::trace::{Span, Tracer};
use bench::{square_grid, Suite};
use gpu_sim::{LaunchConfig, RunReport, SimStats};
use gpu_stm::{Phase, TxStats};
use std::sync::Arc;
use workloads::{
    eigenbench, genome, ht, kmeans, labyrinth, ra, RunConfig, RunError, RunOutcome, Variant,
};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kernel {
    Ra,
    Ht,
    Gn,
    Lb,
    Km,
    Eb,
}

/// A kernel at a thread count (`None`: the Suite's own geometry).
type Shape = (Kernel, Option<u64>);

#[derive(Copy, Clone)]
struct Cell {
    /// Span name: `workloads.<kernel><threads>.<variant>`.
    name: &'static str,
    shape: Shape,
    variant: Variant,
}

const fn cell(name: &'static str, kernel: Kernel, threads: Option<u64>, variant: Variant) -> Cell {
    Cell { name, shape: (kernel, threads), variant }
}

/// RA, HT, GN, LB at 4096 threads (LB 14×32) × four variants.
const MODERATE: [Cell; 16] = {
    use Kernel::*;
    use Variant::*;
    [
        cell("workloads.ra.tbv-sorting", Ra, None, TbvSorting),
        cell("workloads.ra.hv-sorting", Ra, None, HvSorting),
        cell("workloads.ra.optimized", Ra, None, Optimized),
        cell("workloads.ra.egpgv", Ra, None, Egpgv),
        cell("workloads.ht.tbv-sorting", Ht, None, TbvSorting),
        cell("workloads.ht.hv-sorting", Ht, None, HvSorting),
        cell("workloads.ht.optimized", Ht, None, Optimized),
        cell("workloads.ht.egpgv", Ht, None, Egpgv),
        cell("workloads.gn.tbv-sorting", Gn, None, TbvSorting),
        cell("workloads.gn.hv-sorting", Gn, None, HvSorting),
        cell("workloads.gn.optimized", Gn, None, Optimized),
        cell("workloads.gn.egpgv", Gn, None, Egpgv),
        cell("workloads.lb.tbv-sorting", Lb, None, TbvSorting),
        cell("workloads.lb.hv-sorting", Lb, None, HvSorting),
        cell("workloads.lb.optimized", Lb, None, Optimized),
        cell("workloads.lb.egpgv", Lb, None, Egpgv),
    ]
};

/// The cell shapes that make `fig3` slow: KM aborts 86–98 % of attempts,
/// and VBV serialises every commit on one sequence lock.
const STORM: [Cell; 6] = {
    use Kernel::*;
    use Variant::*;
    [
        cell("workloads.km64.hv-sorting", Km, Some(64), HvSorting),
        cell("workloads.km64.vbv", Km, Some(64), Vbv),
        cell("workloads.km128.hv-backoff", Km, Some(128), HvBackoff),
        cell("workloads.km128.egpgv", Km, Some(128), Egpgv),
        cell("workloads.eb512.vbv", Eb, Some(512), Vbv),
        cell("workloads.ra1024.vbv", Ra, Some(1024), Vbv),
    ]
};

/// A launch that reaches this many simulated cycles is a failed cell: 20
/// times the longest one (HT under CGL, 6.8 M), some 20 s of host time. The
/// simulator's own limit of 2^40 would leave a livelocked kernel (a seed on
/// which two warps abort each other in lockstep) running for days, and the
/// driver stopping a run that says nothing of why.
const WATCHDOG_CYCLES: u64 = 1 << 27;

struct CellOut {
    cycles: u64,
    tx: TxStats,
    sim: SimStats,
    /// Transactions the launch must commit, as bounds (LB's count depends
    /// on how many first routes were blocked).
    commits_want: (u64, u64),
}

fn merged(kernels: &[RunReport]) -> SimStats {
    let mut out = SimStats::new();
    for k in kernels {
        out.merge(&k.stats);
    }
    out
}

fn plain(out: RunOutcome, commits: u64) -> CellOut {
    CellOut {
        cycles: out.cycles(),
        sim: merged(&out.kernels),
        tx: out.tx,
        commits_want: (commits, commits),
    }
}

/// Runs one cell: the Suite's parameters for the kernel, the benchmark
/// seed mixed into the kernel's own, the geometry `fig3` uses for a
/// thread-count override.
fn run_cell(
    suite: &Suite,
    (kernel, threads): Shape,
    variant: Variant,
    seed: u64,
    hooks: &Hooks,
) -> Result<CellOut, RunError> {
    let config = |data_words: u64, threads: u64| {
        let mut cfg: RunConfig = suite.run_config(data_words, threads);
        cfg.sim.watchdog_cycles = WATCHDOG_CYCLES;
        cfg.sim.trace = hooks.sim.clone();
        cfg.sim.race = hooks.race.clone();
        cfg.trace = hooks.tx.clone();
        cfg
    };
    match kernel {
        Kernel::Ra => {
            let (mut p, grid) = suite.ra();
            let grid = threads.map_or(grid, square_grid);
            p.seed = mix_seed(p.seed, seed);
            let cfg = config(u64::from(p.shared_words), grid.total_threads());
            let out = ra::run(&p, variant, grid, &cfg)?;
            Ok(plain(out, grid.total_threads() * u64::from(p.txs_per_thread)))
        }
        Kernel::Ht => {
            let (mut p, grid) = suite.ht();
            p.seed = mix_seed(p.seed, seed);
            let cfg = config(u64::from(p.table_words), grid.total_threads());
            let out = ht::run(&p, variant, grid, &cfg)?;
            Ok(plain(out, grid.total_threads() * u64::from(p.txs_per_thread)))
        }
        Kernel::Eb => {
            let (mut p, grid) = suite.eb();
            let grid = threads.map_or(grid, square_grid);
            p.seed = mix_seed(p.seed, seed);
            let data = u64::from(p.hot_words)
                + grid.total_threads() * u64::from(p.mild_words + p.cold_words);
            let cfg = config(data, grid.total_threads());
            let out = eigenbench::run(&p, variant, grid, &cfg)?;
            Ok(plain(out, grid.total_threads() * u64::from(p.txs_per_thread)))
        }
        Kernel::Km => {
            // KM keeps its committed data set whatever the seed. Its 1024
            // points over 72 shared words are one input whose conflict rate
            // is the paper's point (Table 1: 92.7 %); other seeds swing it
            // between 82 % and 91 % aborts, ±20 % of the whole workload's
            // work, which would measure the draw and not the code.
            let (p, grid) = suite.km();
            let grid = threads.map_or(grid, |t| LaunchConfig::new((t as u32 / 2).max(1), 2));
            let cfg = config(u64::from(p.shared_words()), grid.total_threads());
            let out = kmeans::run(&p, variant, grid, &cfg)?;
            Ok(plain(out, grid.total_threads() * u64::from(p.points_per_thread)))
        }
        Kernel::Gn => {
            let (mut p, g1, g2) = suite.gn();
            p.seed = mix_seed(p.seed, seed);
            let cfg = config(u64::from(p.table_words), g1.total_threads());
            let out = genome::run(&p, variant, g1, g2, &cfg)?;
            let mut sim = merged(&out.k1.kernels);
            sim.merge(&merged(&out.k2.kernels));
            let mut tx = out.k1.tx.clone();
            add_tx(&mut tx, &out.k2.tx);
            // One dedup transaction per segment, one link per unique value.
            let commits = u64::from(p.n_segments) + u64::from(out.n_unique);
            Ok(CellOut {
                cycles: out.k1.cycles() + out.k2.cycles(),
                sim,
                tx,
                commits_want: (commits, commits),
            })
        }
        Kernel::Lb => {
            let (mut p, grid) = suite.lb();
            p.seed = mix_seed(p.seed, seed);
            let cfg = config(u64::from(p.width * p.height), grid.total_threads());
            let out = labyrinth::run(&p, variant, grid, &cfg)?;
            if out.routed + out.blocked != p.n_paths {
                return Err(RunError::Verification(format!(
                    "{} routed + {} blocked of {} paths",
                    out.routed, out.blocked, p.n_paths
                )));
            }
            // One commit per path, plus one per path whose first bend was
            // blocked and that tried the other.
            let n = u64::from(p.n_paths);
            Ok(CellOut { commits_want: (n, 2 * n), ..plain(out.base, 0) })
        }
    }
}

fn add_tx(a: &mut TxStats, b: &TxStats) {
    a.commits += b.commits;
    a.read_only_commits += b.read_only_commits;
    a.aborts += b.aborts;
    a.lock_retries += b.lock_retries;
    a.false_conflicts_filtered += b.false_conflicts_filtered;
    a.max_consec_aborts = a.max_consec_aborts.max(b.max_consec_aborts);
    a.breakdown.merge(&b.breakdown);
}

/// Observers a run can attach; all are pure (no simulated cycle changes).
#[derive(Default)]
struct Hooks {
    sim: Option<gpu_sim::TraceSink>,
    race: Option<gpu_sim::RaceSink>,
    tx: Option<gpu_stm::TxTraceSink>,
}

pub struct Kernels {
    cells: &'static [Cell],
    /// Whether the traced pass prices the observers (trace and race sinks)
    /// on this workload's repetition.
    price_observers: bool,
    seed: u64,
    suite: Suite,
    /// Geometric mean over the shapes of CGL cycles ÷ STM-Optimized cycles.
    speedup_vs_cgl: f64,
    /// Per shape, the speedup: `--seed 0` must reproduce Figure 2.
    speedups: Vec<(Shape, f64)>,
    baseline_failures: Vec<String>,
}

fn setup(cells: &'static [Cell], price_observers: bool, seed: u64) -> Box<dyn Workload> {
    let suite = Suite::default();
    let mut shapes: Vec<Shape> = Vec::new();
    for c in cells {
        if !shapes.contains(&c.shape) {
            shapes.push(c.shape);
        }
    }
    let mut baseline_failures = Vec::new();
    let mut speedups = Vec::new();
    for &shape in &shapes {
        let mut cycles = |variant| match run_cell(&suite, shape, variant, seed, &Hooks::default()) {
            Ok(out) => out.cycles,
            Err(e) => {
                baseline_failures.push(format!("baseline {shape:?} {variant}: {e}"));
                0
            }
        };
        let (cgl, optimized) = (cycles(Variant::Cgl), cycles(Variant::Optimized));
        speedups.push((shape, bench::speedup(cgl, optimized)));
    }
    let log_sum: f64 = speedups.iter().map(|(_, s)| s.ln()).sum();
    let mut w = Kernels {
        cells,
        price_observers,
        seed,
        suite,
        speedup_vs_cgl: (log_sum / speedups.len() as f64).exp(),
        speedups,
        baseline_failures,
    };
    w.rep(&Arc::new(Tracer::new(false)));
    Box::new(w)
}

pub fn setup_moderate(seed: u64) -> Box<dyn Workload> {
    setup(&MODERATE, true, seed)
}

pub fn setup_storm(seed: u64) -> Box<dyn Workload> {
    setup(&STORM, false, seed)
}

/// Speedups over CGL from EXPERIMENTS.md, Figure 2, Optimized column, as
/// printed there; checked only at the committed seeds (`--seed 0`).
const FIGURE2: [(Shape, &str); 5] = [
    ((Kernel::Ra, None), "42.8"),
    ((Kernel::Ht, None), "78.8"),
    ((Kernel::Gn, None), "47.4"),
    ((Kernel::Lb, None), "2.85"),
    ((Kernel::Km, Some(128)), "0.46"),
];

impl Kernels {
    fn run_all(&self, t: &Tracer, hooks: &Hooks, rep: &mut Rep) -> (TxStats, SimStats, u64) {
        let (mut tx, mut sim, mut cycles) = (TxStats::new(), SimStats::new(), 0);
        for c in self.cells {
            let name = c.name;
            match t.span(name, || run_cell(&self.suite, c.shape, c.variant, self.seed, hooks)) {
                Ok(out) => {
                    let (lo, hi) = out.commits_want;
                    let commits = out.tx.commits;
                    rep.check(lo, (lo..=hi).contains(&commits), || {
                        format!("{name}: {commits} commits, want {lo}..={hi}")
                    });
                    rep.ops += commits;
                    rep.notes.push(format!(
                        "{name:<28} {:>10} cycles {commits:>6} commits {:>6} aborts, abort share {:.3}",
                        out.cycles,
                        out.tx.aborts,
                        out.tx.aborts as f64 / (commits + out.tx.aborts).max(1) as f64
                    ));
                    cycles += out.cycles;
                    add_tx(&mut tx, &out.tx);
                    sim.merge(&out.sim);
                }
                Err(e) => rep.check(1, false, || format!("{name}: {e}")),
            }
        }
        (tx, sim, cycles)
    }
}

impl Workload for Kernels {
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep {
        let mut rep = Rep::new();
        let (tx, sim, cycles) = self.run_all(t, &Hooks::default(), &mut rep);
        for failure in &self.baseline_failures {
            rep.check(1, false, || failure.clone());
        }
        if self.seed == 0 {
            for (shape, printed) in FIGURE2 {
                if let Some((_, got)) = self.speedups.iter().find(|(s, _)| *s == shape) {
                    let decimals = printed.len() - printed.find('.').map_or(0, |i| i + 1);
                    let rounded = format!("{got:.decimals$}");
                    rep.check(1, rounded == printed, || {
                        format!("{shape:?}: speedup over CGL {rounded}, Figure 2 prints {printed}")
                    });
                }
            }
        }
        for (shape, speedup) in &self.speedups {
            rep.notes.push(format!("{shape:?}: STM-Optimized {speedup:.3}x over CGL"));
        }
        sim_facts(&sim, cycles, &mut rep.facts);
        stm_facts(&tx, &mut rep.facts);
        let commits = tx.commits.max(1) as f64;
        rep.facts.push(("virt_cycles_per_op", cycles as f64 / commits));
        rep.facts.push(("virt_speedup_vs_cgl", self.speedup_vs_cgl));
        rep
    }

    fn layers(&mut self, t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep) {
        let cell_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name.starts_with("workloads."))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let instr: f64 = reps.iter().map(|r| fact(&r.facts, "gpu-sim.instr")).sum();
        out.facts.push(("gpu-sim.ns_per_instr", cell_ns as f64 / instr.max(1.0)));

        // Per kernel under hv-sorting: which kernel a change came from.
        let mut shapes: Vec<Shape> = Vec::new();
        for c in self.cells {
            if !shapes.iter().any(|s| s.0 == c.shape.0) {
                shapes.push(c.shape);
            }
        }
        for shape in shapes {
            let (us_name, cycles_name) = KERNEL_METRICS[shape.0 as usize];
            let t0 = std::time::Instant::now();
            let result = t.span("probe.kernel_hv_sorting", || {
                run_cell(&self.suite, shape, Variant::HvSorting, self.seed, &Hooks::default())
            });
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match result {
                Ok(cell) => {
                    let commits = cell.tx.commits.max(1) as f64;
                    out.facts.push((us_name, us / commits));
                    out.facts.push((cycles_name, cell.cycles as f64 / commits));
                }
                Err(e) => out.check(1, false, || format!("{shape:?} hv-sorting probe: {e}")),
            }
        }

        // What each observer costs: the same repetition with it attached,
        // over the repetition without.
        let timed = |hooks: Hooks| {
            super::median_secs(3, || {
                self.run_all(&Tracer::new(false), &hooks, &mut Rep::new());
            })
        };
        if self.price_observers {
            let off = timed(Hooks::default());
            let sim_trace =
                timed(Hooks { sim: Some(gpu_sim::trace_sink(1 << 16)), ..Hooks::default() });
            let race = timed(Hooks { race: Some(gpu_sim::race_sink()), ..Hooks::default() });
            let tx_trace =
                timed(Hooks { tx: Some(gpu_stm::tx_trace_sink(1 << 16)), ..Hooks::default() });
            out.facts.push(("gpu-sim.trace_overhead", sim_trace / off));
            out.facts.push(("gpu-sim.race_overhead", race / off));
            out.facts.push(("gpu-stm.trace_overhead", tx_trace / off));
        }
        super::probes::stm_ops(t, out);
    }
}

const KERNEL_METRICS: [(&str, &str); 6] = [
    ("workloads.ra_us_per_commit", "workloads.ra_cycles_per_commit"),
    ("workloads.ht_us_per_commit", "workloads.ht_cycles_per_commit"),
    ("workloads.gn_us_per_commit", "workloads.gn_cycles_per_commit"),
    ("workloads.lb_us_per_commit", "workloads.lb_cycles_per_commit"),
    ("workloads.km_us_per_commit", "workloads.km_cycles_per_commit"),
    ("workloads.eb_us_per_commit", "workloads.eb_cycles_per_commit"),
];

fn stm_facts(tx: &TxStats, facts: &mut Facts) {
    let commits = tx.commits.max(1) as f64;
    let attempts = (tx.commits + tx.aborts).max(1) as f64;
    let per_commit = |p: Phase| tx.breakdown.get(p) / commits;
    facts.extend([
        ("gpu-stm.commits", tx.commits as f64),
        ("gpu-stm.aborts", tx.aborts as f64),
        ("gpu-stm.abort_share", tx.aborts as f64 / attempts),
        ("gpu-stm.lock_retries", tx.lock_retries as f64),
        ("gpu-stm.false_conflicts_filtered", tx.false_conflicts_filtered as f64),
        ("gpu-stm.read_only_share", tx.read_only_commits as f64 / commits),
        ("gpu-stm.max_consec_aborts", tx.max_consec_aborts as f64),
        ("gpu-stm.init_cycles", per_commit(Phase::Init)),
        ("gpu-stm.buffering_cycles", per_commit(Phase::Buffering)),
        ("gpu-stm.consistency_cycles", per_commit(Phase::Consistency)),
        ("gpu-stm.locking_cycles", per_commit(Phase::Locking)),
        ("gpu-stm.commit_cycles", per_commit(Phase::Commit)),
        ("gpu-stm.aborted_cycles", per_commit(Phase::Aborted)),
    ]);
}
