//! Park-versus-respin golden sweep for the blocking-transaction
//! subsystem (`gpu_stm::park` + the queue-shaped workloads).
//!
//! Runs every sweep shape twice through the *same* kernels: once with
//! `park: true` (waiters call `retry()`, register their validated read
//! set in the waker registry and deschedule) and once with
//! `park: false` (the abort-and-respin baseline: the identical wait
//! loop, minus parking). The pair isolates what blocking buys:
//!
//! * the parked run's waiters burn ~0 cycles — wait time shows up in
//!   the `parked` phase of the breakdown, not as instructions or
//!   aborted-phase cycles;
//! * the respin baseline burns the same wait as live instructions and
//!   failed validation (`aborted` phase) instead.
//!
//! One shape additionally injects spurious wakes
//! (`spurious_wake_rate`) so the revalidate-and-re-park path is pinned
//! by the golden, not just the happy path.
//!
//! The artifact (`BENCH_retry.json`) holds only virtual metrics —
//! simulated cycles, instruction counts, park/wake counters, phase
//! breakdowns — so a fixed-seed sweep reproduces it byte-for-byte on any
//! machine; the committed copy pins the `--smoke` sweep.

use crate::args::Args;
use crate::golden::Mode;
use crate::{print_table, thousands, Error, Job};
use gpu_sim::JsonWriter;
use gpu_stm::Phase;
use workloads::queue::{run_deque, run_queue, DequeParams, QueueParams};
use workloads::{mix64, RunConfig, RunOutcome, Variant};

/// The committed sweep (`retry --smoke`).
pub const GOLDEN: &str = "BENCH_retry.json";
const PINNED: &str = "--smoke";

#[derive(PartialEq)]
struct Opts {
    seed: u64,
    smoke: bool,
}

impl Opts {
    fn parse(args: &mut Args) -> Result<Opts, Error> {
        Ok(Opts { seed: args.value("--seed")?.unwrap_or(42), smoke: args.flag("--smoke") })
    }
}

/// One sweep entry: a workload shape plus the spurious-wake injection
/// rate (per mille) for its run configuration.
enum Shape {
    Queue(QueueParams, u32),
    Deque(DequeParams, u32),
}

impl Shape {
    fn kind(&self) -> &'static str {
        match self {
            Shape::Queue(..) => "queue",
            Shape::Deque(..) => "deque",
        }
    }

    fn tag(&self) -> String {
        match self {
            Shape::Queue(q, s) => format!(
                "cap={} items={} prod={} cons={}{}",
                q.capacity,
                q.items,
                q.producers,
                q.consumers,
                if *s > 0 { " spurious" } else { "" }
            ),
            Shape::Deque(d, _) => {
                format!("cap={} items={} thieves={}", d.capacity, d.items, d.thieves)
            }
        }
    }
}

/// The sweep: fixed shapes covering empty-ring parks (consumer-heavy),
/// full-ring parks (producer-heavy), symmetric contention, spurious
/// wakes and work-stealing, plus one seed-derived fuzz shape. `--smoke`
/// scales item counts down; the committed golden is the smoke sweep.
fn shapes(seed: u64, smoke: bool) -> Vec<Shape> {
    let scale = if smoke { 1 } else { 4 };
    let r = |k: u64, span: u64| (mix64(seed ^ (k << 32)) % span) as u32;
    vec![
        Shape::Queue(
            QueueParams { capacity: 4, items: 64 * scale, producers: 2, consumers: 2, park: true },
            0,
        ),
        Shape::Queue(
            QueueParams { capacity: 2, items: 48 * scale, producers: 1, consumers: 3, park: true },
            0,
        ),
        Shape::Queue(
            QueueParams { capacity: 2, items: 48 * scale, producers: 3, consumers: 1, park: true },
            0,
        ),
        Shape::Queue(
            QueueParams { capacity: 4, items: 48 * scale, producers: 2, consumers: 2, park: true },
            200,
        ),
        Shape::Queue(
            QueueParams {
                capacity: 1 + r(1, 4),
                items: (16 + r(2, 33)) * scale,
                producers: 1 + r(3, 3),
                consumers: 1 + r(4, 3),
                park: true,
            },
            0,
        ),
        Shape::Deque(
            DequeParams { capacity: 8, items: 64 * scale, thieves: 2, stagger: 8000, park: true },
            0,
        ),
    ]
}

fn cfg(spurious_permille: u32) -> RunConfig {
    let mut cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
    cfg.stm.spurious_wake_rate = spurious_permille;
    cfg
}

/// The metrics recorded per run (one park run + one respin baseline per
/// shape); everything is virtual and deterministic.
struct Metrics {
    cycles: u64,
    instructions: u64,
    commits: u64,
    aborts: u64,
    parks: u64,
    wakes: u64,
    spurious_wakes: u64,
    parked_cycles: f64,
    aborted_cycles: f64,
}

impl Metrics {
    fn from(out: &RunOutcome) -> Metrics {
        Metrics {
            cycles: out.cycles(),
            instructions: out.kernels.iter().map(|k| k.stats.instructions).sum(),
            commits: out.tx.commits,
            aborts: out.tx.aborts,
            parks: out.tx.parks,
            wakes: out.tx.wakes,
            spurious_wakes: out.tx.spurious_wakes,
            parked_cycles: out.tx.breakdown.get(Phase::Parked),
            aborted_cycles: out.tx.breakdown.get(Phase::Aborted),
        }
    }

    fn write_json(&self, w: &mut JsonWriter, key: &str) {
        w.key(key);
        w.begin_object();
        w.field_u64("cycles", self.cycles);
        w.field_u64("instructions", self.instructions);
        w.field_u64("commits", self.commits);
        w.field_u64("aborts", self.aborts);
        w.field_u64("parks", self.parks);
        w.field_u64("wakes", self.wakes);
        w.field_u64("spurious_wakes", self.spurious_wakes);
        w.field_f64("parked_cycles", self.parked_cycles);
        w.field_f64("aborted_cycles", self.aborted_cycles);
        w.end_object();
    }
}

struct Row {
    kind: &'static str,
    tag: String,
    variant: Variant,
    spurious_permille: u32,
    park: Metrics,
    respin: Metrics,
}

impl Row {
    /// Instructions the baseline burns per instruction the parked run
    /// burns, in per-mille — the headline "waiters burn ~0 cycles"
    /// number (e.g. 2417 = the respin baseline executes 2.417x more).
    fn respin_over_park_permille(&self) -> u64 {
        self.respin.instructions * 1000 / self.park.instructions.max(1)
    }
}

fn run_shape(shape: &Shape, variant: Variant) -> Row {
    let spurious = match shape {
        Shape::Queue(_, s) | Shape::Deque(_, s) => *s,
    };
    let run = |park: bool| {
        match shape {
            Shape::Queue(q, s) => run_queue(&QueueParams { park, ..*q }, variant, &cfg(*s)),
            Shape::Deque(d, s) => run_deque(&DequeParams { park, ..*d }, variant, &cfg(*s)),
        }
        .unwrap_or_else(|e| {
            let mode = if park { "park" } else { "respin" };
            panic!("{} {mode} ({}, {}): {e}", shape.kind(), shape.tag(), variant.short_name())
        })
    };
    let (park, respin) = (run(true), run(false));
    let row = Row {
        kind: shape.kind(),
        tag: shape.tag(),
        variant,
        spurious_permille: spurious,
        park: Metrics::from(&park),
        respin: Metrics::from(&respin),
    };

    // The claims the golden exists to pin. Fail loudly here rather than
    // committing an artifact that no longer demonstrates them.
    assert!(row.park.parks >= 1, "{}: no transaction ever parked", row.tag);
    assert_eq!(
        row.park.parks, row.park.wakes,
        "{}: a parked transaction was lost (parks != wakes)",
        row.tag
    );
    assert_eq!(row.respin.parks, 0, "{}: the respin baseline must never park", row.tag);
    assert_eq!(
        row.park.commits, row.respin.commits,
        "{}: both modes must deliver the same items",
        row.tag
    );
    assert!(
        row.respin.instructions > row.park.instructions,
        "{}: respin must burn more instructions: respin={} park={}",
        row.tag,
        row.respin.instructions,
        row.park.instructions
    );
    assert!(
        row.park.parked_cycles > 0.0,
        "{}: parked run attributed no time to the parked phase",
        row.tag
    );
    assert!(
        row.respin.aborted_cycles > row.park.aborted_cycles,
        "{}: waiting must show up as aborted-phase cycles only under respin",
        row.tag
    );
    if spurious == 0 {
        assert_eq!(row.park.spurious_wakes, 0, "{}: uninjected spurious wake", row.tag);
    } else {
        assert!(row.park.spurious_wakes >= 1, "{}: injection produced no spurious wake", row.tag);
    }
    row
}

fn sweep(args: &Opts) -> Vec<Row> {
    // The wake policy runs over the per-thread-lock variants; one sorting and one
    // backoff flavor keeps the sweep representative without bloating it.
    let variants = [Variant::HvSorting, Variant::TbvBackoff];
    let mut rows = Vec::new();
    for shape in shapes(args.seed, args.smoke) {
        for v in variants {
            eprintln!("[retry] {} {} under {}", shape.kind(), shape.tag(), v.short_name());
            rows.push(run_shape(&shape, v));
        }
    }
    rows
}

fn sweep_json(args: &Opts, rows: &[Row]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-retry/1");
    w.field_u64("seed", args.seed);
    w.field_bool("smoke", args.smoke);
    w.key("scenarios");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.field_str("workload", row.kind);
        w.field_str("shape", &row.tag);
        w.field_str("variant", row.variant.short_name());
        w.field_u64("spurious_permille", u64::from(row.spurious_permille));
        row.park.write_json(&mut w, "park");
        row.respin.write_json(&mut w, "respin");
        w.field_u64("respin_over_park_permille", row.respin_over_park_permille());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// `BENCH_retry.json` at its pinned configuration.
pub fn render() -> Result<String, Error> {
    let o = Opts::parse(&mut Args::new(PINNED))?;
    Ok(sweep_json(&o, &sweep(&o)))
}

/// Takes `--seed N`, `--smoke`, `--bless` and `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts::parse(args)?;
    let mode = Mode::parse(args, o == Opts::parse(&mut Args::new(PINNED))?, PINNED)?;
    let out = args.out()?;
    Ok(Box::new(move || {
        let rows = sweep(&o);
        let json = sweep_json(&o, &rows);
        let path = out.write(GOLDEN, &json)?;

        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{} {}", r.kind, r.tag),
                    r.variant.short_name().to_string(),
                    thousands(r.respin.instructions),
                    thousands(r.park.instructions),
                    format!("{:.2}x", r.respin_over_park_permille() as f64 / 1000.0),
                    r.park.parks.to_string(),
                    r.park.wakes.to_string(),
                    r.park.spurious_wakes.to_string(),
                ]
            })
            .collect();
        print_table(
            "blocking retry: park vs abort-respin",
            &[
                "shape",
                "variant",
                "respin instr",
                "park instr",
                "ratio",
                "parks",
                "wakes",
                "spurious",
            ],
            &table,
        );
        println!("\nwrote {}", path.display());
        mode.settle(GOLDEN, &json)
    }))
}
