//! One workload, one pass, one process: what the driver's command runs.
//!
//! `--trace 0` is the untraced pass and the sole source of end-to-end
//! numbers; `--trace 1` is the traced pass and reports per-layer numbers.
//! The last line of standard output is the result object; the line before
//! it carries the detail `perf run` folds into its document.

use crate::json::Json;
use crate::metrics::{Kind, Metric, END_TO_END, PER_LAYER};
use crate::stats::{calib_ms, median, peak_rss_mb, percentile, quartiles, reset_peak_rss, sorted};
use crate::trace::{self_times, Tracer};
use crate::workloads::{Facts, Rep, Spec, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one repetition: the smoke test's size.
    pub quick: bool,
}

/// How long the untraced pass measures: the `run_seconds` of
/// `BENCHMARK.json`. `run` and `check` always use it, so every document
/// they write was measured over the same length.
pub const RUN_SECONDS: u32 = 10;
/// Set-up runs this many times; `setup_s` is the median.
const SETUPS: usize = 5;
/// Set-up stops repeating once it has taken this long in all (about ten
/// times what five set-ups of the heaviest workload take on the reference
/// box), so that on a machine that has all but stopped the pass still ends
/// well inside the 180 s the driver gives a run.
const SETUP_BUDGET_S: f64 = 30.0;
/// Traced pass: repetitions with the tracer on, interleaved with as many
/// with it off.
const TRACED_REPS: usize = 3;
/// Calibration drift outside this range means the machine changed speed
/// while the workload ran.
const DRIFT_OK: std::ops::RangeInclusive<f64> = 0.95..=1.05;

/// Counts and complaints gathered over a pass.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl Checks {
    fn absorb(&mut self, rep: &mut Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.complaints.append(&mut rep.complaints);
    }

    fn fail(&mut self, complaint: String) {
        self.attempted += 1;
        self.failed += 1;
        self.complaints.push(complaint);
    }
}

/// What the timed repetitions measured.
struct Timed {
    /// Milliseconds per repetition.
    ms: Vec<f64>,
    /// Peak RSS reached during each repetition, in MiB; empty where the
    /// kernel's peak mark cannot be reset.
    peak_rss_mb: Vec<f64>,
    first: Rep,
}

/// Repetitions until `seconds` have passed (at least one). Every
/// repetition of a seed must report the same exact figures as the first.
fn timed_reps(w: &mut dyn Workload, seconds: f64, quick: bool, checks: &mut Checks) -> Timed {
    let quiet = Arc::new(Tracer::new(false));
    let start = Instant::now();
    let (mut times, mut peaks) = (Vec::new(), Vec::new());
    let mut first: Option<Rep> = None;
    loop {
        let per_rep_peak = reset_peak_rss();
        let t0 = Instant::now();
        let mut rep = w.rep(&quiet);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if per_rep_peak {
            peaks.extend(peak_rss_mb());
        }
        checks.absorb(&mut rep);
        match &first {
            Some(f) if f.facts != rep.facts || f.ops != rep.ops => checks.fail(format!(
                "repetition {} reported different simulated figures than the first",
                times.len()
            )),
            Some(_) => {}
            None => first = Some(rep),
        }
        if quick || start.elapsed().as_secs_f64() >= seconds {
            let first = first.expect("at least one repetition ran");
            return Timed { ms: times, peak_rss_mb: peaks, first };
        }
    }
}

fn metric_json(m: &Metric, value: f64) -> (String, Json) {
    (m.name.into(), Json::obj([("value", Json::Num(value)), ("unit", Json::Str(m.unit.into()))]))
}

fn exact_facts(facts: &Facts) -> Json {
    Json::obj(facts.iter().filter_map(|&(name, v)| {
        let exact = PER_LAYER.iter().any(|m| m.name == name && m.kind == Kind::Exact);
        exact.then_some((name, Json::Num(v)))
    }))
}

/// Distance between the quartiles of `samples` as a share of their median;
/// 0 for fewer than two samples.
fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Runs the pass and prints the result. Returns whether every output
/// check passed.
pub fn run(args: &Args) -> bool {
    let (metrics, detail, checks) = if args.trace { traced(args) } else { untraced(args) };
    for c in &checks.complaints {
        eprintln!("FAILED CHECK: {c}");
    }
    // What this workload produces, zeros included. The result line below
    // also carries the per-layer metrics it does not, as 0: the driver
    // wants every declared metric as a number.
    for m in END_TO_END.iter().chain(&PER_LAYER).filter(|m| m.on.contains(&args.spec.name)) {
        if let Some(value) = metrics.get(m.name).and_then(|v| v.get("value")).and_then(Json::num) {
            println!("{:<34} {:>18.6} {}", m.name, value, m.unit);
        }
    }
    println!("{}", Json::obj([("detail", detail)]).render());
    let correct = checks.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    correct
}

fn detail_head(args: &Args) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", Json::Str(args.spec.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
    ]
}

fn untraced(args: &Args) -> (Json, Json, Checks) {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut w = None;
    let started = Instant::now();
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        let t0 = Instant::now();
        w = Some((args.spec.setup)(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
    }
    let mut w = w.expect("set-up ran");

    // Calibration brackets the timed repetitions only; set-up before it
    // also serves to bring an idle machine up to speed.
    let calib_before = calib_ms();
    let Timed { ms: times, peak_rss_mb: peaks, first } =
        timed_reps(&mut *w, args.seconds, args.quick, &mut checks);
    let calib_after = calib_ms();
    let drifted = !DRIFT_OK.contains(&(calib_after / calib_before));

    let ordered = sorted(&times);
    let rep_ms = median(&times);
    // The median of the repetitions' own peaks: the process-wide mark is
    // the maximum over 20 to 50 repetitions and one unlucky interleaving of
    // the serve threads moves it 10 %. Where the mark cannot be reset, the
    // process-wide one is all there is; the document says which it holds
    // and `diff` will not compare one with the other.
    let (peak_rss, peak_rss_source) = if peaks.is_empty() {
        let process = peak_rss_mb().unwrap_or_else(|| {
            checks.fail("/proc/self/status has no VmHWM: peak_rss_mb is not measured".into());
            f64::NAN
        });
        (process, "process")
    } else {
        (median(&peaks), "repetition")
    };
    let values =
        [first.ops as f64 / (rep_ms / 1e3), percentile(&ordered, 0.75), peak_rss, median(&setup_s)];
    let metrics =
        Json::Obj(END_TO_END.iter().zip(values).map(|(m, v)| metric_json(m, v)).collect());
    let (q1, q3) = if times.len() >= 2 { quartiles(&times) } else { (rep_ms, rep_ms) };
    // What lies behind each bounded metric, as `diff` judges it.
    let spreads = [spread(&times), spread(&times), spread(&peaks), spread(&setup_s)];
    // The machine changed speed under the workload, or stalled inside it
    // long enough that a metric's own samples spread wider than the bound
    // that is to judge it: say so instead of reporting silently. `perf run`
    // measures such a workload once more, and `--bless` refuses it.
    let unsteady = END_TO_END.iter().zip(spreads).any(|(m, spread)| match m.kind {
        Kind::Bounded { same_seed, .. } => spread > same_seed,
        _ => false,
    });
    let noisy = (drifted || unsteady) && !args.quick;
    let mut detail = detail_head(args);
    detail.extend([
        ("samples", Json::Num(times.len() as f64)),
        ("ops_per_rep", Json::Num(first.ops as f64)),
        (
            "rep_ms",
            Json::obj([
                ("q1", Json::Num(q1)),
                ("median", Json::Num(rep_ms)),
                ("q3", Json::Num(q3)),
            ]),
        ),
        (
            "spread",
            Json::Obj(
                END_TO_END
                    .iter()
                    .zip(spreads)
                    .map(|(m, v)| (m.name.into(), Json::Num(v)))
                    .collect(),
            ),
        ),
        ("peak_rss_source", Json::Str(peak_rss_source.into())),
        ("setup_s", nums(&setup_s)),
        ("calib_ms", nums(&[calib_before, calib_after])),
        ("noisy", Json::Bool(noisy)),
        ("exact", exact_facts(&first.facts)),
    ]);
    (metrics, Json::obj(detail), checks)
}

fn traced(args: &Args) -> (Json, Json, Checks) {
    let mut checks = Checks::default();
    let mut w = (args.spec.setup)(args.seed);
    let calib_before = calib_ms();
    let tracer = Arc::new(Tracer::new(true));
    let quiet = Arc::new(Tracer::new(false));
    let (mut off_ms, mut on_ms, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..if args.quick { 1 } else { TRACED_REPS } {
        let t0 = Instant::now();
        checks.absorb(&mut w.rep(&quiet));
        off_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.next_rep();
        let t0 = Instant::now();
        let mut rep = w.rep(&tracer);
        on_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        checks.absorb(&mut rep);
        reps.push(rep);
    }
    for note in &reps[0].notes {
        println!("{note}");
    }
    let rep_spans = tracer.spans();
    let mut probes = Rep::new();
    tracer.next_rep();
    w.layers(&tracer, &rep_spans, &reps, &mut probes);
    checks.absorb(&mut probes);
    let calib_after = calib_ms();

    let mut facts: BTreeMap<&str, f64> = BTreeMap::new();
    // Later sources win: a probe may restate a figure with more behind it.
    facts.extend(reps[0].facts.iter().copied());
    facts.extend(probes.facts.iter().copied());
    facts.extend([
        ("perf.calib_ms", calib_before),
        ("perf.calib_drift", calib_after / calib_before),
        ("perf.trace_overhead", median(&on_ms) / median(&off_ms)),
    ]);
    // metrics.rs says which workload produces which figure; the pass must
    // produce exactly those, so that a 0 from a workload a metric is `on`
    // is a measured 0.
    let workload = args.spec.name;
    for name in facts.keys() {
        if !PER_LAYER.iter().any(|m| m.name == *name && m.on.contains(&workload)) {
            checks.fail(format!("{name} is reported but not declared for {workload}"));
        }
    }
    for m in PER_LAYER.iter().filter(|m| m.on.contains(&workload)) {
        if !facts.contains_key(m.name) {
            checks.fail(format!("{} is declared for {workload} but was not produced", m.name));
        }
    }
    // The driver wants every declared metric as a number: the ones this
    // workload does not produce read 0 in the result line only.
    let metrics = Json::Obj(
        PER_LAYER
            .iter()
            .map(|m| metric_json(m, facts.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
    );

    // Where the traced repetitions' time went, by span name.
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + (s.end_ns - s.start_ns), e.2 + self_ns);
    }
    println!("{:<34} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, (count, total, self_ns)) in &by_name {
        println!(
            "{name:<34} {count:>8} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *self_ns as f64 / 1e6
        );
    }
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{out_dir}/trace-{}.json", args.spec.name);
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace().render()));
    if let Err(e) = written {
        checks.fail(format!("{path}: {e}"));
    }

    let mut detail = detail_head(args);
    detail.extend([
        ("rep_ms_traced", nums(&on_ms)),
        ("rep_ms_untraced", nums(&off_ms)),
        ("spans", Json::Num(spans.len() as f64)),
        ("chrome_trace", Json::Str(path)),
        ("exact", exact_facts(&reps[0].facts)),
    ]);
    (metrics, Json::obj(detail), checks)
}
