//! Load sweep for the sharded transaction service (`tm-serve`).
//!
//! Runs the service over a matrix of traffic mixes × shard counts ×
//! STM variants at a **fixed total batch capacity** (so the shard axis
//! measures contention isolation, not extra hardware), then writes one
//! deterministic `BENCH_serve.json` and prints a console table with the
//! wall-clock scaling figures.
//!
//! Single-run mode (`--shards N`) accepts `--mix bank|ht|mixed|blocking`
//! (`blocking` turns on parking admission with its bursty preset),
//! `--variant`, `--mode plain|scheduled|robust`, `--requests`,
//! `--workers`, `--queue-cap`, `--total-warps`, `--seed`, `--accounts`,
//! `--locality`, `--hot-pct` and `--hot-keys`.
//!
//! `--recovery` switches to the kill-and-restart sweep instead: it runs
//! an uncrashed durable baseline, then kills each shard worker at each
//! WAL lifecycle point (`--smoke` restricts to two points) and checks
//! the recovered run is byte-identical — report *and* blob store — to
//! the baseline, finishing with a replicated run that demotes an
//! injected divergent replica. Results land in `BENCH_recovery.json`
//! plus a standalone `recovery-report.json`, and the process exits
//! nonzero if any recovery diverges. The two committed goldens pin
//! `serve --smoke` and `serve --recovery --smoke`.
//!
//! Everything inside the JSON is virtual (simulated cycles, counters,
//! FNV hashes): for a fixed seed the file is byte-identical regardless
//! of worker-thread count or host speed. Wall-clock throughput is
//! printed on the console only.

use crate::args::{Args, Out};
use crate::golden::Mode;
use crate::{print_table, Error, Job};
use gpu_sim::JsonWriter;
use tm_serve::{
    store_fingerprint, CrashPlan, CrashPoint, DurabilityConfig, EngineMode, MemStore, MixConfig,
    RecoveryReport, ReplicaFault, ServeConfig, ServeReport, Service,
};
use workloads::Variant;

/// The committed load sweep (`serve --smoke`).
pub const GOLDEN: &str = "BENCH_serve.json";
/// The committed kill-and-restart sweep (`serve --recovery --smoke`).
pub const GOLDEN_RECOVERY: &str = "BENCH_recovery.json";

#[derive(PartialEq)]
struct Opts {
    shards: Option<usize>,
    workers: usize,
    variant: Variant,
    mode: EngineMode,
    mix: String,
    requests: u64,
    queue_cap: usize,
    total_warps: u32,
    seed: u64,
    smoke: bool,
    recovery: bool,
    accounts: u32,
    locality_pct: Option<u32>,
    hot_pct: Option<u32>,
    hot_keys: Option<u32>,
}

impl Opts {
    fn parse(args: &mut Args) -> Result<Opts, Error> {
        Ok(Opts {
            shards: args.value_with("--shards", |s| s.parse().ok().filter(|n| *n > 0))?,
            workers: args.value("--workers")?.unwrap_or(0),
            variant: args.value_with("--variant", Variant::parse)?.unwrap_or(Variant::Vbv),
            // Plain by default: the AIMD scheduler deliberately damps the
            // contention collapse this sweep measures along the shard
            // axis. `--mode scheduled` benches the production setup.
            mode: args.value_with("--mode", EngineMode::parse)?.unwrap_or(EngineMode::Plain),
            mix: args
                .value_with("--mix", |s| MixConfig::parse(s).map(|_| s.to_string()))?
                .unwrap_or_else(|| "bank".into()),
            requests: args.value("--requests")?.unwrap_or(16384),
            queue_cap: args.value("--queue-cap")?.unwrap_or(0),
            total_warps: args.value("--total-warps")?.unwrap_or(64),
            seed: args.value("--seed")?.unwrap_or(42),
            smoke: args.flag("--smoke"),
            recovery: args.flag("--recovery"),
            accounts: args.value("--accounts")?.unwrap_or(256),
            locality_pct: args.value("--locality")?,
            hot_pct: args.value("--hot-pct")?,
            hot_keys: args.value("--hot-keys")?,
        })
    }

    /// What a golden pins: `flags` and every other option at its default.
    fn pinned(flags: &str) -> Opts {
        Opts::parse(&mut Args::new(flags)).expect("pinned flags parse")
    }
}

/// Builds the service config for one sweep point. The total batch
/// capacity (`total_warps` × 32 lanes) is held constant across shard
/// counts: one shard runs all lanes in one conflict domain, `n` shards
/// split the same lanes into `n` independent domains.
fn config(args: &Opts, mix_name: &str, variant: Variant, shards: usize) -> ServeConfig {
    let mut mix = MixConfig::parse(mix_name).expect("mix names are checked when parsed");
    mix.requests = args.requests;
    // Saturating arrivals: the sweep measures service throughput, not
    // idle time waiting for an open-loop trickle.
    mix.mean_interarrival = 4;
    if mix_name == "bank" {
        // Bench defaults for the bank mix: mostly-local traffic with a
        // light hot set — the regime where shard isolation pays most
        // (DESIGN.md §12). The service preset keeps the hotter mix.
        mix.locality_pct = 90;
        mix.hot_pct = 10;
    }
    if let Some(p) = args.locality_pct {
        mix.locality_pct = p;
    }
    if let Some(p) = args.hot_pct {
        mix.hot_pct = p;
    }
    if let Some(k) = args.hot_keys {
        mix.hot_keys = k;
    }
    // The blocking mix keeps its bursty preset arrivals and a bounded
    // queue: overflow is the point — admission parks on the capacity
    // condition instead of rejecting.
    let blocking = mix_name == "blocking";
    if blocking {
        mix.mean_interarrival = MixConfig::blocking().mean_interarrival;
    }
    let queue_cap = if args.queue_cap > 0 {
        args.queue_cap
    } else if blocking {
        ServeConfig::default().queue_capacity
    } else {
        args.requests as usize + 8
    };
    ServeConfig {
        shards,
        workers: args.workers,
        variant,
        mode: args.mode,
        mix,
        seed: args.seed,
        accounts: args.accounts,
        batch_warps: (args.total_warps / shards as u32).max(1),
        queue_capacity: queue_cap,
        blocking,
        ..ServeConfig::default()
    }
}

fn run(cfg: &ServeConfig, mix_name: &str) -> Result<ServeReport, Error> {
    eprint!(
        "[serve] mix={} variant={} shards={} ...",
        mix_name,
        cfg.variant.short_name(),
        cfg.shards
    );
    let report = Service::run(cfg).map_err(|e| format!("serve run failed: {e}"))?;
    eprintln!(
        " {} completed in {:.2}s ({} virtual kcycles)",
        report.completed,
        report.wall_seconds,
        report.virtual_cycles / 1000
    );
    Ok(report)
}

/// The compact durable service the recovery and obs sweeps share. Small
/// and hot: they measure healing fidelity, not throughput, so a
/// fixed-seed run that still crosses several snapshot boundaries is
/// ideal.
pub(super) fn durable_config(
    shards: usize,
    workers: usize,
    seed: u64,
    dur: DurabilityConfig,
) -> ServeConfig {
    ServeConfig {
        shards,
        workers,
        mix: MixConfig { requests: 96, ..MixConfig::mixed() },
        seed,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(dur),
        ..ServeConfig::default()
    }
}

struct Cell {
    shard: usize,
    point: CrashPoint,
    identical: bool,
    rec: RecoveryReport,
}

struct Recovery {
    shards: usize,
    cells: Vec<Cell>,
    /// The replicated run's report (replica census + divergence incidents).
    replication: RecoveryReport,
    json: String,
}

/// Kill-and-restart sweep: every (shard × crash point) cell must heal
/// back to the uncrashed baseline byte-for-byte.
fn recovery(args: &Opts) -> Result<Recovery, Error> {
    let durability = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let points: &[CrashPoint] = if args.smoke {
        // The two most distinctive repair paths: torn-tail truncation
        // and verified replay of an already-sealed batch.
        &[CrashPoint::WalAppend, CrashPoint::PostPrepare]
    } else {
        &CrashPoint::ALL
    };
    let shards = args.shards.unwrap_or(2);
    let cfg = |dur| durable_config(shards, args.workers, args.seed, dur);

    eprintln!("[recovery] baseline: {} shards, seed {} ...", shards, args.seed);
    let base_store = MemStore::shared();
    let (baseline, _) = Service::run_durable(&cfg(durability), base_store.clone())
        .map_err(|e| format!("baseline durable run failed: {e}"))?;
    let baseline_json = baseline.to_json();
    let (base_fnv, base_bytes) = store_fingerprint(&base_store);

    let mut cells: Vec<Cell> = Vec::new();
    for shard in 0..shards {
        for &point in points {
            let dur =
                DurabilityConfig { crash: Some(CrashPlan::at(shard, point, 1)), ..durability };
            let store = MemStore::shared();
            let (report, rec) = Service::run_durable(&cfg(dur), store.clone())
                .map_err(|e| format!("kill shard {shard} at {point}: {e}"))?;
            let identical = report.to_json() == baseline_json
                && store_fingerprint(&store) == (base_fnv, base_bytes);
            eprintln!(
                "[recovery] shard {shard} at {point}: {}",
                if identical { "byte-identical" } else { "DIVERGED" }
            );
            cells.push(Cell { shard, point, identical, rec });
        }
    }

    // Replicated run with an injected single-commit loss: the quorum
    // must demote exactly the faulted replica and keep the rest.
    let rep_dur = DurabilityConfig {
        replicas: 2,
        replica_fault: Some(ReplicaFault { shard: 0, replica: 1, at_commit: 3 }),
        ..durability
    };
    let (rep_report, replication) = Service::run_durable(&cfg(rep_dur), MemStore::shared())
        .map_err(|e| format!("replicated run failed: {e}"))?;
    assert!(rep_report.conserved, "replica fault must never touch the primary");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-recovery/1");
    w.field_u64("shards", shards as u64);
    w.field_u64("seed", args.seed);
    w.key("baseline");
    w.begin_object();
    w.field_str("store_fnv", &format!("{base_fnv:016x}"));
    w.field_u64("store_bytes", base_bytes);
    w.field_u64("completed", baseline.completed);
    w.field_bool("conserved", baseline.conserved);
    w.end_object();
    w.key("crashes");
    w.begin_array();
    for cell in &cells {
        w.begin_object();
        w.field_u64("shard", cell.shard as u64);
        w.field_str("point", cell.point.short_name());
        w.field_bool("byte_identical", cell.identical);
        w.key("recovery");
        cell.rec.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.key("replication");
    replication.write_json(&mut w);
    w.end_object();
    Ok(Recovery { shards, cells, replication, json: w.finish() })
}

/// `serve --recovery`: the sweep, its two artifacts and its table; fails
/// on any divergence so CI fails loudly.
fn run_recovery(args: &Opts, out: &Out, mode: Mode) -> Result<(), Error> {
    let r = recovery(args)?;
    let path = out.write(GOLDEN_RECOVERY, &r.json)?;
    // Standalone artifact: the replicated run's structured recovery
    // report, for CI upload.
    out.write("recovery-report.json", &r.replication.to_json())?;

    let rows: Vec<Vec<String>> = r
        .cells
        .iter()
        .map(|c| {
            let s = &c.rec.recoveries[0];
            vec![
                c.shard.to_string(),
                c.point.to_string(),
                if c.identical { "yes" } else { "NO" }.to_string(),
                s.snapshot_seq.to_string(),
                s.torn_truncated.to_string(),
                s.replayed.to_string(),
                s.reexecuted.to_string(),
            ]
        })
        .collect();
    print_table(
        "tm-serve kill-and-restart sweep",
        &["shard", "point", "byte-identical", "snap-seq", "torn", "replayed", "re-exec"],
        &rows,
    );
    println!(
        "\nreplication: {}/{} replicas healthy, {} divergence incident(s)",
        r.replication.replicas_healthy,
        r.replication.replicas_per_shard * r.shards as u64,
        r.replication.diverged.len()
    );
    println!("report written to {} ({} bytes)", path.display(), r.json.len());
    let diverged = r.cells.iter().filter(|c| !c.identical).count();
    if diverged > 0 {
        return Err(Error::Failed(format!("{diverged} cell(s) diverged from the baseline")));
    }
    mode.settle(GOLDEN_RECOVERY, &r.json)
}

/// `(mix, report)` per sweep point, in deterministic sweep order.
type Runs = Vec<(String, ServeReport)>;

fn sweep(args: &Opts) -> Result<Runs, Error> {
    let mut runs = Runs::new();
    if let Some(shards) = args.shards {
        let cfg = config(args, &args.mix, args.variant, shards);
        runs.push((args.mix.clone(), run(&cfg, &args.mix)?));
    } else {
        let mixes = ["bank", "ht"];
        let shard_axis: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4] };
        let variants = [Variant::Vbv, Variant::HvSorting];
        let sweep_requests = if args.smoke { args.requests.min(192) } else { args.requests };
        for mix in mixes {
            for &variant in &variants {
                for &shards in shard_axis {
                    let mut cfg = config(args, mix, variant, shards);
                    cfg.mix.requests = sweep_requests;
                    cfg.queue_capacity = sweep_requests as usize + 8;
                    runs.push((mix.to_string(), run(&cfg, mix)?));
                }
            }
        }
    }
    Ok(runs)
}

/// Deterministic artifact: stable field order, virtual metrics only.
fn sweep_json(runs: &Runs) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-serve/1");
    w.key("runs");
    w.begin_array();
    for (mix, report) in runs {
        w.begin_object();
        w.field_str("mix", mix);
        w.key("report");
        report.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

const PINNED: &str = "--smoke";
const PINNED_RECOVERY: &str = "--recovery --smoke";

/// `BENCH_serve.json` at its pinned configuration.
pub fn render() -> Result<String, Error> {
    Ok(sweep_json(&sweep(&Opts::pinned(PINNED))?))
}

/// `BENCH_recovery.json` at its pinned configuration.
pub fn render_recovery() -> Result<String, Error> {
    Ok(recovery(&Opts::pinned(PINNED_RECOVERY))?.json)
}

/// Takes the flags the module documentation lists, `--bless`, `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts::parse(args)?;
    let pinned = if o.recovery { PINNED_RECOVERY } else { PINNED };
    let mode = Mode::parse(args, o == Opts::pinned(pinned), pinned)?;
    let out = args.out()?;
    Ok(Box::new(
        move || if o.recovery { run_recovery(&o, &out, mode) } else { run_sweep(&o, &out, mode) },
    ))
}

fn run_sweep(args: &Opts, out: &Out, mode: Mode) -> Result<(), Error> {
    let runs = sweep(args)?;
    let json = sweep_json(&runs);
    let path = out.write(GOLDEN, &json)?;

    // Console table: wall-clock columns live here and only here.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (mix, r) in &runs {
        let baseline = runs
            .iter()
            .find(|(m, b)| m == mix && b.variant == r.variant && b.shards == 1)
            .map(|(_, b)| b.wall_throughput());
        let wall_x = match baseline {
            Some(base) if base > 0.0 => format!("{:.2}x", r.wall_throughput() / base),
            _ => "-".to_string(),
        };
        rows.push(vec![
            mix.clone(),
            r.variant.clone(),
            r.shards.to_string(),
            r.completed.to_string(),
            r.rejected.to_string(),
            r.shard_reports.iter().map(|s| s.aborts).sum::<u64>().to_string(),
            r.p50().to_string(),
            format!("{:.3}", r.sim_throughput()),
            format!("{:.0}", r.wall_throughput()),
            wall_x,
        ]);
    }
    print_table(
        "tm-serve load sweep",
        &[
            "mix",
            "variant",
            "shards",
            "completed",
            "rejected",
            "aborts",
            "p50(cyc)",
            "tx/kcycle",
            "tx/s",
            "wall-x",
        ],
        &rows,
    );
    println!("\nreport written to {} ({} bytes)", path.display(), json.len());
    mode.settle(GOLDEN, &json)
}
