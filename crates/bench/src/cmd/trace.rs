//! tm-trace: capture a cycle-accurate trace of one workload × variant run
//! and export it as Chrome-trace JSON (loadable in Perfetto / `chrome://
//! tracing`) plus a contention profile.
//!
//! All flags are optional: the default is the hashtable workload under
//! STM-HV-Sorting at a small deterministic scale, writing `trace.json`.
//! `--capacity N` bounds both ring buffers (default 1 << 20 events each);
//! when a buffer overflows the *oldest* events are dropped and the drop
//! count is reported. The suite scaling flags (`--data-scale`,
//! `--thread-scale`) apply as in every other subcommand. The committed
//! golden pins the same run at 64 threads and scales 1024/256 — a single
//! kernel, so cycle timestamps are monotone.

use crate::args::Args;
use crate::golden::Mode;
use crate::runner::{run_workload_traced, TraceHooks, WlOutcome, Workload};
use crate::{thousands, Error, Job, Suite};
use gpu_sim::{trace_sink, TraceSink};
use gpu_stm::{chrome_trace, tx_trace_sink, ContentionProfile, TxEvent, TxTraceSink};
use workloads::Variant;

/// The committed Chrome trace of the pinned run.
pub const GOLDEN: &str = "crates/bench/golden/trace.golden";

#[derive(PartialEq)]
struct Opts {
    suite: Suite,
    workload: Workload,
    variant: Variant,
    threads: u64,
    capacity: usize,
}

impl Opts {
    fn parse(args: &mut Args) -> Result<Opts, Error> {
        Ok(Opts {
            suite: Suite::parse(args)?,
            workload: args.value_with("--workload", Workload::parse)?.unwrap_or(Workload::Ht),
            variant: args.value_with("--variant", Variant::parse)?.unwrap_or(Variant::HvSorting),
            threads: args.value("--threads")?.unwrap_or(256),
            capacity: args.value("--capacity")?.unwrap_or(1 << 20),
        })
    }
}

/// What the golden pins.
const PINNED: &str = "--threads 64 --data-scale 1024 --thread-scale 256";

struct Capture {
    json: String,
    out: WlOutcome,
    sim: TraceSink,
    tx: TxTraceSink,
    tx_events: Vec<TxEvent>,
}

fn capture(o: &Opts) -> Result<Capture, Error> {
    let (sim, tx) = (trace_sink(o.capacity), tx_trace_sink(o.capacity));
    let hooks = TraceHooks { sim: Some(sim.clone()), tx: Some(tx.clone()) };
    let out = run_workload_traced(&o.suite, o.workload, o.variant, Some(o.threads), &hooks)
        .map_err(|e| format!("run failed: {e}"))?;
    let tx_events = tx.borrow().snapshot();
    let json = chrome_trace(&sim.borrow().snapshot(), &tx_events);
    Ok(Capture { json, out, sim, tx, tx_events })
}

/// The Chrome trace of the pinned run, complete (no event dropped).
pub fn render() -> Result<String, Error> {
    let c = capture(&Opts::parse(&mut Args::new(PINNED))?)?;
    if c.sim.borrow().dropped() + c.tx.borrow().dropped() > 0 {
        return Err(Error::Failed("the golden run overflowed a trace ring buffer".into()));
    }
    Ok(c.json)
}

/// Takes the suite flags, `--workload`, `--variant`, `--threads N`,
/// `--capacity N`, `--profile NAME`, `--bless` and `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts::parse(args)?;
    let profile_name: Option<String> = args.value("--profile")?;
    let mode = Mode::parse(args, o == Opts::parse(&mut Args::new(PINNED))?, PINNED)?;
    let out = args.out()?;
    Ok(Box::new(move || {
        eprintln!("[tm-trace] {} under {} ...", o.workload.label(), o.variant.label());
        let c = capture(&o)?;
        let path = out.write("trace.json", &c.json)?;

        let profile = ContentionProfile::from_events(&c.tx_events);
        println!(
            "{} under {}: {} cycles, {} commits, {} aborts (rate {:.3})",
            o.workload.label(),
            o.variant.label(),
            thousands(c.out.cycles),
            thousands(c.out.tx.commits),
            thousands(c.out.tx.aborts),
            c.out.tx.abort_rate()
        );
        println!(
            "events: {} machine ({} dropped), {} transaction ({} dropped)",
            c.sim.borrow().emitted(),
            c.sim.borrow().dropped(),
            c.tx.borrow().emitted(),
            c.tx.borrow().dropped()
        );
        println!(
            "trace written to {} ({} bytes) — open in Perfetto or chrome://tracing",
            path.display(),
            c.json.len()
        );

        if profile.total_conflicts() > 0 || profile.total_aborts() > 0 {
            println!("\ncontention heatmap (stripes × time, '@' = hottest):");
            print!("{}", profile.heatmap(8));
            let hot = profile.hottest_stripes(5);
            if !hot.is_empty() {
                println!("hottest stripes:");
                for (stripe, count) in hot {
                    println!("  stripe {stripe:>8}: {} conflicts", thousands(count));
                }
            }
        } else {
            println!("\nno lock conflicts or aborts observed — contention heatmap omitted");
        }
        if let Some(name) = profile_name {
            let path = out.write(&name, &profile.to_json())?;
            println!("contention report written to {}", path.display());
        }
        mode.settle(GOLDEN, &c.json)
    }))
}
