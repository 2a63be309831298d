//! `txl analyze` sweep, in two halves.
//!
//! **Golden half:** the static profile rendered for every checked-in TXL
//! fixture must match `golden/analyze.golden` byte for byte, so any
//! drift in the abstract domain, the conflict graph, the cost
//! coefficients or the fixture corpus fails CI loudly.
//!
//! **Calibration half:** five embedded workload programs spanning the
//! contention spectrum are executed on the simulator under all 8 STM
//! variants at the analysis's modeled concurrency, and the measured
//! cycles land in `BENCH_analyze.json` next to the model's predictions.
//! The acceptance gate: the variant the analysis recommends must be
//! within 15% of the best measured variant's throughput on every
//! workload (`cycles(recommended) ≤ cycles(best) / 0.85`).

use super::fixtures;
use crate::args::Args;
use crate::golden::Mode;
use crate::{Error, Job};
use gpu_sim::{JsonWriter, LaunchConfig, Sim, SimConfig};
use gpu_stm::{Stm, StmConfig};
use std::fmt::Write as _;
use std::rc::Rc;
use txl::{analyze_source, ArrayBinding, CostConfig, StaticProfile};
use workloads::{dispatch, RunError, StmRunner, Variant};

/// Modeled and executed concurrency: 8 SIMT blocks × 32 lanes.
const THREADS: u32 = 256;
/// RNG seed for `rand()` in the workload programs.
const SEED: u64 = 7;

/// One calibration workload: a TXL program plus its array sizes.
struct Workload {
    name: &'static str,
    source: &'static str,
}

/// The five calibration points, spanning the contention spectrum the
/// cost model must rank correctly: serialized hot-spot, fully striped,
/// read-only, mixed transfer, and loop-carried scan.
const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hot",
        source: "kernel hot(c: array) {
    atomic { c[0] = c[0] + 1; }
}",
    },
    Workload {
        name: "striped",
        source: "kernel striped(c: array[256]) {
    let i = tid();
    atomic { c[i] = c[i] + 1; }
}",
    },
    Workload {
        name: "readmostly",
        source: "kernel readmostly(a: array[64], out: array[256]) {
    let i = tid();
    let acc = 0;
    atomic {
        acc = a[i % 64] + a[(i + 1) % 64];
    }
    atomic { out[i] = acc; }
}",
    },
    Workload {
        name: "mixed",
        source: "kernel mixed(src: array[32], dst: array[32]) {
    let i = tid() % 32;
    atomic {
        src[i] = src[i] - 1;
        dst[i] = dst[i] + 1;
    }
}",
    },
    Workload {
        name: "scan",
        source: "kernel scan(a: array[64], out: array[256]) {
    let i = tid();
    let acc = 0;
    let j = 0;
    atomic {
        while j < 8 {
            acc = acc + a[(i + j) % 64];
            j = j + 1;
        }
        out[i] = acc;
    }
}",
    },
];

/// The committed static profiles of the fixture corpus.
pub const GOLDEN: &str = "crates/bench/golden/analyze.golden";
/// The committed calibration sweep.
pub const GOLDEN_CALIBRATION: &str = "BENCH_analyze.json";

/// The golden half: every fixture's rendered static profile.
pub fn render() -> Result<String, Error> {
    let cfg = CostConfig { threads: THREADS, write_set_capacity: Some(32) };
    let mut out = String::new();
    for (name, src) in fixtures(".txl")? {
        let profile =
            analyze_source(&src, &cfg).map_err(|e| format!("{name}: does not analyze: {e}"))?;
        let _ = writeln!(out, "=== {name}");
        out.push_str(&txl::cost::render_text(&profile));
    }
    Ok(out)
}

/// Runs the workload's first kernel under an already-instantiated STM.
struct LaunchRunner<'a> {
    kernel: &'a txl::Kernel,
    bindings: &'a [ArrayBinding],
    grid: LaunchConfig,
}

impl StmRunner for LaunchRunner<'_> {
    type Out = u64;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<u64, RunError> {
        match txl::launch(sim, &stm, self.kernel, self.grid, SEED, self.bindings) {
            Ok(report) => Ok(report.cycles),
            Err(txl::TxlError::Sim(e)) => Err(RunError::Sim(e)),
            Err(other) => Err(RunError::Verification(other.to_string())),
        }
    }
}

/// Measures one (workload, variant) cell: fresh simulator, arrays sized
/// from declarations, stripe count from the static recommendation (the
/// same lock-table the seeded service would run). `Ok(None)` = variant
/// cannot run this grid (EGPGV capacity).
fn measure(w: &Workload, profile: &StaticProfile, variant: Variant) -> Result<Option<u64>, String> {
    let program = txl::compile(w.source).map_err(|e| format!("{}: {e}", w.name))?;
    let kernel = program.kernels.first().expect("workload has a kernel");

    let mut sim = Sim::new(SimConfig::with_memory(1 << 20));
    let mut bindings = Vec::new();
    let mut data_words = 0u64;
    for p in &kernel.params {
        let len = p.declared_len.unwrap_or(THREADS).max(1);
        let addr = sim.alloc(len).map_err(|e| format!("{}: alloc: {e}", w.name))?;
        bindings.push(ArrayBinding::new(p.name.clone(), addr, len));
        data_words += u64::from(len);
    }

    let grid = LaunchConfig::new(8, 32);
    let runner = LaunchRunner { kernel, bindings: &bindings, grid };
    match dispatch(
        &mut sim,
        variant,
        StmConfig::new(profile.stripes),
        data_words,
        grid,
        None,
        None,
        runner,
    ) {
        Ok(cycles) => Ok(Some(cycles)),
        Err(RunError::Unsupported(_)) => Ok(None),
        Err(e) => Err(format!("{} / {}: {e}", w.name, variant.short_name())),
    }
}

struct SweepRow {
    name: &'static str,
    profile: StaticProfile,
    measured: Vec<(Variant, Option<u64>)>,
    best: Variant,
    best_cycles: u64,
    recommended_cycles: u64,
    ok: bool,
}

/// The calibration half: measure every workload × variant and gate the
/// recommendation against the best measured cell.
fn run_sweep() -> Result<Vec<SweepRow>, String> {
    let cfg = CostConfig { threads: THREADS, write_set_capacity: None };
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let profile = analyze_source(w.source, &cfg).map_err(|e| format!("{}: {e}", w.name))?;
        let mut measured = Vec::new();
        for v in Variant::ALL {
            measured.push((v, measure(w, &profile, v)?));
        }
        let (best, best_cycles) = measured
            .iter()
            .filter_map(|(v, c)| c.map(|c| (*v, c)))
            .min_by_key(|&(_, c)| c)
            .ok_or_else(|| format!("{}: no variant ran", w.name))?;
        let rec = profile.recommended();
        let recommended_cycles =
            measured.iter().find(|(v, _)| *v == rec).and_then(|(_, c)| *c).ok_or_else(|| {
                format!("{}: recommended variant `{}` did not run", w.name, rec.short_name())
            })?;
        // Within 15% of the best throughput: cycles ≤ best / 0.85.
        let ok = (recommended_cycles as f64) * 0.85 <= best_cycles as f64;
        rows.push(SweepRow {
            name: w.name,
            profile,
            measured,
            best,
            best_cycles,
            recommended_cycles,
            ok,
        });
    }
    Ok(rows)
}

fn render_json(rows: &[SweepRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "analyze");
    w.field_u64("threads", u64::from(THREADS));
    w.key("workloads");
    w.begin_array();
    for r in rows {
        w.begin_object();
        w.field_str("name", r.name);
        w.field_str("recommended", r.profile.recommended().short_name());
        w.field_u64("stripes", u64::from(r.profile.stripes));
        w.key("predicted");
        w.begin_array();
        for s in &r.profile.ranking {
            w.begin_object();
            w.field_str("variant", s.variant.short_name());
            w.field_f64("cycles", s.predicted_cycles);
            w.end_object();
        }
        w.end_array();
        w.key("measured");
        w.begin_array();
        for (v, c) in &r.measured {
            w.begin_object();
            w.field_str("variant", v.short_name());
            match c {
                Some(c) => w.field_u64("cycles", *c),
                None => w.field_bool("unsupported", true),
            }
            w.end_object();
        }
        w.end_array();
        w.field_str("best", r.best.short_name());
        w.field_u64("best_cycles", r.best_cycles);
        w.field_u64("recommended_cycles", r.recommended_cycles);
        w.field_bool("within_15pct", r.ok);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The calibration half as `BENCH_analyze.json`.
pub fn render_calibration() -> Result<String, Error> {
    Ok(render_json(&run_sweep()?))
}

/// Takes `--bless` and `--out DIR`; the sweep has one configuration, so
/// it is always pinned.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let mode = Mode::parse(args, true, "")?;
    let out = args.out()?;
    Ok(Box::new(move || {
        mode.settle(GOLDEN, &render()?)?;

        let rows = run_sweep()?;
        for r in &rows {
            let slack = r.recommended_cycles as f64 / r.best_cycles as f64;
            println!(
                "{:<11} recommended={:<11} best={:<11} rec_cycles={:<9} best_cycles={:<9} x{:.3} {}",
                r.name,
                r.profile.recommended().short_name(),
                r.best.short_name(),
                r.recommended_cycles,
                r.best_cycles,
                slack,
                if r.ok { "ok" } else { "FAIL (>15% off best)" },
            );
        }
        let json = render_json(&rows);
        println!("wrote {}", out.write(GOLDEN_CALIBRATION, &json)?.display());
        if rows.iter().any(|r| !r.ok) {
            return Err(Error::Failed("a recommendation missed the 15% throughput window".into()));
        }
        mode.settle(GOLDEN_CALIBRATION, &json)
    }))
}
