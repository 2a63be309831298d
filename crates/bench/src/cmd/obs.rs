//! Load-and-fault sweep for the live-observability subsystem
//! (`tm-serve::obs`).
//!
//! Drives the service through three deterministic scenarios and records
//! what the metrics registry, health state machines and flight recorder
//! saw:
//!
//! 1. **load** — a hot, contended mix under the AIMD scheduler, sized
//!    to push shards through abort-storm incidents and several metric
//!    windows.
//! 2. **crash** — a durable run with a seeded worker kill and an
//!    asynchronous recovery window (`recovery_rounds > 0`): the shard
//!    must pass Healthy → Recovering → Healthy and cut a crash bundle.
//! 3. **divergence** — a replicated run with a seeded single-commit
//!    drop in one replica: the quorum demotes it and the shard degrades.
//!
//! The artifact (`BENCH_obs.json`) embeds each scenario's
//! final `MetricsSnapshot`, its incident log and bundle summaries, plus
//! an FNV-64 of the Prometheus text exposition — the full scrape is
//! checked by hash rather than inlined. Everything is virtual, so the
//! file is byte-identical for any worker count and any host.

use super::serve::durable_config;
use crate::args::Args;
use crate::golden::Mode;
use crate::{print_table, Error, Job};
use gpu_sim::rng::Fnv;
use gpu_sim::JsonWriter;
use tm_serve::{
    CrashPlan, CrashPoint, DurabilityConfig, EngineMode, FlightBundle, Incident, MemStore,
    MixConfig, ObsConfig, RecoveryReport, ReplicaFault, ServeConfig, ServeReport, Service,
};
use workloads::Variant;

/// The committed sweep (`obs --smoke`).
pub const GOLDEN: &str = "BENCH_obs.json";
const PINNED: &str = "--smoke";

#[derive(PartialEq)]
struct Opts {
    seed: u64,
    workers: usize,
    smoke: bool,
}

impl Opts {
    fn parse(args: &mut Args) -> Result<Opts, Error> {
        Ok(Opts {
            seed: args.value("--seed")?.unwrap_or(42),
            workers: args.value("--workers")?.unwrap_or(0),
            smoke: args.flag("--smoke"),
        })
    }
}

/// Observability knobs shared by every scenario: a window narrow enough
/// that short runs cross several boundaries, event capture on so
/// bundles carry replayable traces, and `storm_open: 1` so a single
/// storming batch is incident-worthy — the AIMD scheduler damps storms
/// quickly, so waiting for consecutive ones would miss most of them.
fn obs_cfg() -> ObsConfig {
    ObsConfig {
        window_cycles: 1 << 14,
        flight_epochs: 4,
        flight_events: 4096,
        storm_open: 1,
        ..ObsConfig::default()
    }
}

/// Scenario 1: hot contended load under the AIMD scheduler. Few
/// accounts, a dense hot set and saturating arrivals — the regime where
/// abort storms fire and the storm hysteresis has work to do.
fn load_config(args: &Opts, requests: u64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: args.workers,
        variant: Variant::Vbv,
        mode: EngineMode::Scheduled,
        mix: MixConfig {
            requests,
            mean_interarrival: 2,
            locality_pct: 100,
            hot_pct: 80,
            hot_keys: 4,
            ..MixConfig::bank()
        },
        seed: args.seed,
        accounts: 16,
        batch_warps: 4,
        queue_capacity: requests as usize / 2,
        obs: obs_cfg(),
        ..ServeConfig::default()
    }
}

/// Scenarios 2 and 3: the compact durable mix from the recovery sweep,
/// with observability on.
fn fault_config(args: &Opts, dur: DurabilityConfig) -> ServeConfig {
    ServeConfig { obs: obs_cfg(), ..durable_config(2, args.workers, args.seed, dur) }
}

/// FNV-64 of a text exposition — lets the artifact pin the whole
/// Prometheus scrape without inlining kilobytes of text.
fn fnv_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    text.bytes().for_each(|b| h.byte(b));
    h.finish()
}

struct Scenario {
    name: &'static str,
    report: ServeReport,
    rec: Option<RecoveryReport>,
}

impl Scenario {
    /// Epoch-visible incidents, then the durability-dependent ones.
    fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.report.obs.incidents.iter().chain(self.rec.iter().flat_map(|r| &r.incidents))
    }

    fn bundles(&self) -> impl Iterator<Item = &FlightBundle> {
        self.report.obs.bundles.iter().chain(self.rec.iter().flat_map(|r| &r.bundles))
    }
}

fn write_scenario(w: &mut JsonWriter, sc: &Scenario) {
    w.begin_object();
    w.field_str("scenario", sc.name);
    w.key("snapshot");
    sc.report.obs.snapshot.write_json(w);
    w.key("incidents");
    w.begin_array();
    for inc in sc.incidents() {
        inc.write_json(w);
    }
    w.end_array();
    w.key("bundles");
    w.begin_array();
    for b in sc.bundles() {
        b.write_json(w);
    }
    w.end_array();
    w.field_str(
        "prometheus_fnv",
        &format!("{:016x}", fnv_text(&sc.report.obs.snapshot.to_prometheus())),
    );
    w.end_object();
}

fn scenarios(args: &Opts) -> Result<[Scenario; 3], Error> {
    let requests = if args.smoke { 192 } else { 768 };

    eprintln!("[obs] load: hot bank mix, scheduled mode, seed {} ...", args.seed);
    let load = Service::run(&load_config(args, requests))
        .map_err(|e| format!("load scenario failed: {e}"))?;

    eprintln!("[obs] crash: seeded kill + async recovery window ...");
    let crash_dur = DurabilityConfig {
        segment_batches: 2,
        recovery_rounds: 2,
        crash: Some(CrashPlan::at(0, CrashPoint::PostPrepare, 1)),
        ..DurabilityConfig::default()
    };
    let (crash_report, crash_rec) =
        Service::run_durable(&fault_config(args, crash_dur), MemStore::shared())
            .map_err(|e| format!("crash scenario failed: {e}"))?;

    eprintln!("[obs] divergence: seeded replica corruption ...");
    let div_dur = DurabilityConfig {
        segment_batches: 2,
        replicas: 2,
        replica_fault: Some(ReplicaFault { shard: 0, replica: 1, at_commit: 3 }),
        ..DurabilityConfig::default()
    };
    let (div_report, div_rec) =
        Service::run_durable(&fault_config(args, div_dur), MemStore::shared())
            .map_err(|e| format!("divergence scenario failed: {e}"))?;

    // The crash scenario must actually exercise the state machine.
    assert!(
        crash_report.obs.incidents.iter().any(|i| i.close_epoch.is_some()),
        "crash scenario must open and close a recovery incident"
    );
    assert!(!crash_rec.bundles.is_empty(), "crash scenario must cut a flight-recorder bundle");

    Ok([
        Scenario { name: "load", report: load, rec: None },
        Scenario { name: "crash", report: crash_report, rec: Some(crash_rec) },
        Scenario { name: "divergence", report: div_report, rec: Some(div_rec) },
    ])
}

/// Deterministic artifact: stable field order, virtual metrics only.
fn sweep_json(seed: u64, scenarios: &[Scenario]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-obs/1");
    w.field_u64("seed", seed);
    w.key("scenarios");
    w.begin_array();
    for sc in scenarios {
        write_scenario(&mut w, sc);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// `BENCH_obs.json` at its pinned configuration.
pub fn render() -> Result<String, Error> {
    let o = Opts::parse(&mut Args::new(PINNED))?;
    Ok(sweep_json(o.seed, &scenarios(&o)?))
}

/// Takes `--seed N`, `--workers N`, `--smoke`, `--prom`, `--bundles NAME`,
/// `--bless` and `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts::parse(args)?;
    let prom = args.flag("--prom");
    let bundles: Option<String> = args.value("--bundles")?;
    let mode = Mode::parse(args, o == Opts::parse(&mut Args::new(PINNED))?, PINNED)?;
    let out = args.out()?;
    Ok(Box::new(move || {
        let scenarios = scenarios(&o)?;
        let json = sweep_json(o.seed, &scenarios);
        let path = out.write(GOLDEN, &json)?;

        // Optional bundle dump: every flight-recorder bundle the scenarios
        // cut, as replayable `<name>.json` + `<name>.trace.json` pairs.
        if let Some(name) = &bundles {
            let dir = out.path(name);
            let mut written = 0usize;
            for b in scenarios.iter().flat_map(Scenario::bundles) {
                b.write_to(&dir)
                    .map_err(|e| format!("cannot write bundles to {}: {e}", dir.display()))?;
                written += 1;
            }
            eprintln!("[obs] {written} bundle(s) written to {}", dir.display());
        }

        // Optional scrape dump: the load scenario's final exposition, as a
        // Prometheus endpoint would serve it.
        if prom {
            print!("{}", scenarios[0].report.obs.snapshot.to_prometheus());
        }

        let rows: Vec<Vec<String>> = scenarios
            .iter()
            .map(|sc| {
                let snap = &sc.report.obs.snapshot;
                let health: Vec<String> =
                    snap.shards.iter().map(|s| s.health.label().to_string()).collect();
                vec![
                    sc.name.to_string(),
                    snap.window.to_string(),
                    sc.incidents().count().to_string(),
                    sc.bundles().count().to_string(),
                    health.join(","),
                ]
            })
            .collect();
        print_table(
            "tm-serve observability sweep",
            &["scenario", "windows", "incidents", "bundles", "final health"],
            &rows,
        );
        println!("report written to {} ({} bytes)", path.display(), json.len());
        mode.settle(GOLDEN, &json)
    }))
}
