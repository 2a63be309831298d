//! Machine-readable run reports: executes a matrix of workloads ×
//! variants and writes `BENCH_telemetry.json` with per-variant cycles,
//! abort rates, cycle breakdowns and simulator counters. The default
//! matrix covers RA and HT (the paper's two microbenchmarks) under every
//! variant at 256 threads and the default scales — the configuration the
//! committed golden pins; `--full` adds GN, LB and KM.

use crate::args::Args;
use crate::golden::Mode;
use crate::runner::{run_workload, Workload};
use crate::{Error, Job, Suite};
use gpu_sim::JsonWriter;
use workloads::Variant;

/// The committed report at the default configuration.
pub const GOLDEN: &str = "BENCH_telemetry.json";

#[derive(PartialEq)]
struct Opts {
    suite: Suite,
    threads: u64,
    full: bool,
}

impl Opts {
    fn parse(args: &mut Args) -> Result<Opts, Error> {
        Ok(Opts {
            suite: Suite::parse(args)?,
            threads: args.value("--threads")?.unwrap_or(256),
            full: args.flag("--full"),
        })
    }
}

/// The golden pins the defaults.
const PINNED: &str = "";

/// The report at the pinned configuration.
pub fn render() -> Result<String, Error> {
    Ok(report(&Opts::parse(&mut Args::new(PINNED))?))
}

/// Takes the suite flags, `--threads N`, `--full`, `--bless`, `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts::parse(args)?;
    let mode = Mode::parse(args, o == Opts::parse(&mut Args::new(PINNED))?, PINNED)?;
    let out = args.out()?;
    Ok(Box::new(move || {
        let json = report(&o);
        let path = out.write(GOLDEN, &json)?;
        println!("report written to {} ({} bytes)", path.display(), json.len());
        mode.settle(GOLDEN, &json)
    }))
}

fn report(o: &Opts) -> String {
    let suite = &o.suite;
    let workloads: &[Workload] = if o.full {
        &[Workload::Ra, Workload::Ht, Workload::Gn, Workload::Lb, Workload::Km]
    } else {
        &[Workload::Ra, Workload::Ht]
    };

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-bench-report/1");
    w.key("suite");
    w.begin_object();
    w.field_u64("data_scale", suite.data_scale);
    w.field_u64("thread_scale", suite.thread_scale);
    w.field_u64("n_locks", suite.n_locks() as u64);
    w.end_object();
    w.key("timing");
    gpu_sim::SimConfig::default().timing.write_json(&mut w);
    w.key("workloads");
    w.begin_array();
    for &wl in workloads {
        if !suite.selected(wl.short()) {
            continue;
        }
        w.begin_object();
        w.field_str("workload", wl.short());
        w.field_str("label", wl.label());
        w.key("variants");
        w.begin_array();
        for variant in Variant::ALL {
            eprint!("[report] {} under {} ...", wl.label(), variant.label());
            w.begin_object();
            w.field_str("variant", variant.short_name());
            w.field_str("label", variant.label());
            match run_workload(suite, wl, variant, Some(o.threads)) {
                Ok(out) => {
                    eprintln!(" {} cycles", out.cycles);
                    w.field_bool("ok", true);
                    w.field_u64("cycles", out.cycles);
                    w.key("kernel_cycles");
                    w.begin_array();
                    for c in &out.kernel_cycles {
                        w.u64(*c);
                    }
                    w.end_array();
                    w.key("grid");
                    w.begin_object();
                    w.field_u64("blocks", out.grid.blocks as u64);
                    w.field_u64("threads_per_block", out.grid.threads_per_block as u64);
                    w.end_object();
                    w.key("tx");
                    out.tx.write_json(&mut w);
                    w.key("sim");
                    out.sim.write_json(&mut w);
                }
                Err(e) => {
                    eprintln!(" failed: {e}");
                    w.field_bool("ok", false);
                    w.field_str("error", &e.to_string());
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();

    w.finish()
}
