//! `perf run`, `perf check`: the whole benchmark in one command.
//!
//! `run` re-executes its own binary once per workload and pass, so each
//! workload's `peak_rss_mb` is its own, the untraced pass runs before the
//! traced one, and what `run` measures is exactly what the driver's
//! command measures.

use crate::diff::{self, Agreement};
use crate::json::Json;
use crate::measure::RUN_SECONDS;
use crate::metrics::{Kind, PER_LAYER};
use crate::stats::median;
use crate::workloads::{self, Spec};
use std::process::Command;

pub struct RunArgs {
    pub seed: u64,
    pub workload: Option<String>,
    pub out: Option<String>,
    pub quick: bool,
    pub bless: bool,
}

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// The committed reference-box results, rewritten only by `run --bless`.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");

/// One `measure` child: its detail object and its result object.
fn measure(workload: &str, args: &RunArgs, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["measure", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // Standard error passes through, so failed checks show as they happen.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}) exited with {}", output.status));
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or(""))?;
    let detail = Json::parse(lines.next().unwrap_or(""))?;
    let detail = detail.get("detail").cloned().ok_or("no detail line")?;
    Ok((detail, result))
}

/// Both passes of one workload: detail and result of the untraced pass,
/// then of the traced one.
struct Measured {
    spec: &'static Spec,
    untraced: (Json, Json),
    traced: (Json, Json),
}

fn measure_workload(spec: &'static Spec, args: &RunArgs) -> Result<Measured, String> {
    println!("== {} (untraced): {} ==", spec.name, spec.why);
    let mut untraced = measure(spec.name, args, false)?;
    if untraced.0.get("noisy").and_then(Json::bool) == Some(true) {
        println!("== {} (untraced, again: calibration drifted) ==", spec.name);
        untraced = measure(spec.name, args, false)?;
    }
    println!("== {} (traced) ==", spec.name);
    let traced = measure(spec.name, args, true)?;
    Ok(Measured { spec, untraced, traced })
}

fn selected(args: &RunArgs) -> Result<Vec<&'static Spec>, String> {
    let specs: Vec<_> = workloads::ALL
        .iter()
        .filter(|spec| args.workload.as_deref().is_none_or(|w| w == spec.name))
        .collect();
    if specs.is_empty() {
        return Err(format!("no workload named {:?}", args.workload.as_deref().unwrap_or("")));
    }
    Ok(specs)
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::num).unwrap_or(0.0)
}

fn workloads_of(doc: &Json) -> &[Json] {
    doc.get("workloads").map_or(&[][..], Json::arr)
}

fn calib_ms(detail: &Json) -> impl Iterator<Item = f64> + '_ {
    detail.get("calib_ms").map_or(&[][..], Json::arr).iter().filter_map(Json::num)
}

/// The result document of one run, and whether every output check passed.
fn document(measured: &[Measured], args: &RunArgs) -> (Json, bool) {
    // The drift ratio inside one workload cannot see a machine that was
    // slow for that workload's whole pass. Across a run it shows: the
    // calibration loop does fixed work, so a workload whose calibration
    // read more than 5 % above the run's median calibration was measured
    // on a slower machine than its neighbours. (The median, not the
    // fastest: one read in a dozen comes out 3 % fast on the shared box and
    // would flag half the run.)
    let all: Vec<f64> = measured.iter().flat_map(|m| calib_ms(&m.untraced.0)).collect();
    let typical = if all.is_empty() { f64::INFINITY } else { median(&all) };

    let mut entries = Vec::new();
    let mut all_correct = true;
    for Measured { spec, untraced: (d0, r0), traced: (d1, r1) } in measured {
        // Tracing must not move a simulated figure: both passes ran the
        // same seed, so every exact figure must be bit-equal.
        let mut moved = Vec::new();
        for (fact, v0) in d0.get("exact").map_or(&[][..], Json::fields) {
            if d1.get("exact").and_then(|e| e.get(fact)) != Some(v0) {
                moved.push(fact.as_str());
            }
        }
        if !moved.is_empty() {
            eprintln!("FAILED CHECK: {}: traced pass moved {}", spec.name, moved.join(", "));
        }
        let attempted = count(r0, "attempted") + count(r1, "attempted");
        let failed = count(r0, "failed") + count(r1, "failed") + moved.len() as f64;
        let correct = failed == 0.0;
        all_correct &= correct;
        let noisy = d0.get("noisy").and_then(Json::bool) == Some(true)
            || calib_ms(d0).any(|ms| ms > typical * 1.05);
        let field = |d: &Json, key: &str| d.get(key).cloned().unwrap_or(Json::Null);
        // The result line pads the figures this workload does not produce
        // with 0 for the driver; the document holds only what it produces.
        let produced =
            |name: &str| PER_LAYER.iter().any(|m| m.name == name && m.on.contains(&spec.name));
        let per_layer = r1.get("metrics").map_or(&[][..], Json::fields);
        let per_layer: Vec<_> = per_layer.iter().filter(|(k, _)| produced(k)).cloned().collect();
        entries.push(Json::obj([
            ("name", Json::Str(spec.name.into())),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("failed_share", Json::Num(failed / attempted)),
            ("noisy", Json::Bool(noisy)),
            ("samples", field(d0, "samples")),
            ("rep_ms", field(d0, "rep_ms")),
            ("spread", field(d0, "spread")),
            ("peak_rss_source", field(d0, "peak_rss_source")),
            ("calib_ms", field(d0, "calib_ms")),
            ("end_to_end", field(r0, "metrics")),
            ("per_layer", Json::Obj(per_layer)),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Arr(entries)),
    ]);
    (doc, all_correct)
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))
}

/// `perf run`: writes the document under `perf/out/` (or `--out`). Only
/// `--bless` touches the committed baseline, and it refuses to when any
/// workload failed a check or was measured on a machine that changed
/// speed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let mut measured = Vec::new();
    for spec in selected(args)? {
        measured.push(measure_workload(spec, args)?);
    }
    let (doc, correct) = document(&measured, args);
    let noisy: Vec<&str> = workloads_of(&doc)
        .iter()
        .filter(|w| w.get("noisy").and_then(Json::bool) == Some(true))
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    if !noisy.is_empty() {
        eprintln!("noisy (the machine changed speed while they ran): {}", noisy.join(", "));
    }
    let path = if args.bless {
        if !correct || !noisy.is_empty() || args.quick || args.workload.is_some() {
            return Err(
                "refusing to bless: a check failed, a workload is noisy, or the run was partial"
                    .into(),
            );
        }
        BASELINE.to_string()
    } else {
        args.out.clone().unwrap_or_else(|| format!("{OUT_DIR}/run-seed{}.json", args.seed))
    };
    write(&path, &doc)?;
    println!("wrote {path}");
    Ok(correct)
}

/// `perf check`: the whole benchmark twice, the two measurements of each
/// workload back to back so that a machine that drifts over minutes treats
/// both alike. Fails if any exact metric differs by a bit, if any bounded
/// metric differs by more than its same-seed bound in either direction, or
/// if an output check failed. A bounded metric whose own samples spread
/// wider than its bound, or whose workload saw the calibration loop (the
/// reads before and after it, summed) move by more than 5 % between the two
/// measurements, is `unresolved`: counted and named, neither agreement nor
/// disagreement.
pub fn check(args: &RunArgs) -> Result<bool, String> {
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for spec in selected(args)? {
        first.push(measure_workload(spec, args)?);
        second.push(measure_workload(spec, args)?);
    }
    let (a, correct_a) = document(&first, args);
    let (b, correct_b) = document(&second, args);
    write(&format!("{OUT_DIR}/check-a.json"), &a)?;
    write(&format!("{OUT_DIR}/check-b.json"), &b)?;
    let rows = diff::compare(&a, &b)?;
    print!("{}", diff::render(&rows));

    // The two reads that bracket a workload, taken together: one read
    // alone strays 3 % on the shared box.
    let bracket = |w: &Json| calib_ms(w).sum::<f64>();
    let mut moved = Vec::new();
    for (wa, wb) in workloads_of(&a).iter().zip(workloads_of(&b)) {
        if (bracket(wa) / bracket(wb) - 1.0).abs() > 0.05 {
            let name = wa.get("name").and_then(Json::str).unwrap_or("");
            eprintln!(
                "MACHINE MOVED: {name}: calibration {:?} ms in the first run, {:?} ms in the second",
                calib_ms(wa).collect::<Vec<_>>(),
                calib_ms(wb).collect::<Vec<_>>()
            );
            moved.push(name);
        }
    }
    // Tallies of (agree, unresolved, disagree): bounded host-clock metrics,
    // then exact ones. Per-layer host figures explain; they are not judged.
    let (mut bounded, mut exact) = ([0; 3], [0; 3]);
    for r in &rows {
        let tally = match r.metric.kind {
            Kind::Bounded { .. } => &mut bounded,
            Kind::Exact => &mut exact,
            Kind::Info => continue,
        };
        let agreement = diff::agreement(r, moved.contains(&r.workload.as_str()));
        tally[agreement as usize] += 1;
        if agreement != Agreement::Agree {
            eprintln!(
                "{}: {} {}: {} vs {} (quartile spread {:.1}% and {:.1}%)",
                if agreement == Agreement::Disagree { "DISAGREE" } else { "UNRESOLVED" },
                r.workload,
                r.metric.name,
                r.a,
                r.b,
                r.spread_a * 100.0,
                r.spread_b * 100.0
            );
        }
    }
    let disagree = bounded[2] + exact[2];
    println!(
        "check: {} bounded metrics agree, {} unresolved, {} disagree; {} exact metrics bit-equal, {} differ; outputs {}",
        bounded[0],
        bounded[1],
        bounded[2],
        exact[0],
        exact[2],
        if correct_a && correct_b { "correct" } else { "INCORRECT" }
    );
    Ok(disagree == 0 && correct_a && correct_b)
}
