//! `serve_sat` and `serve_paced_wal`: whole `tm-serve` runs.
//!
//! Both are open-loop on the *virtual* clock: arrivals are stamped in
//! simulated cycles by the seeded generator and latency is counted from
//! each request's scheduled arrival, so the generator is never late.
//! `serve_sat` offers everything at once (a closed batch measuring
//! capacity); `serve_paced_wal` offers a fixed 4.0 requests/kcycle.

use super::{median_secs, mix_seed, Rep, Workload};
use crate::trace::{total_ns, Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use tm_serve::{
    BlobStore, DurabilityConfig, EngineMode, MemStore, MixConfig, ObsConfig, ServeConfig,
    ServeReport, Service, StoreHandle,
};
use workloads::Variant;

const REQUESTS: u64 = 50_000;
/// Both workloads: 2 shards × 32 batch warps, queues deep enough that
/// nothing is rejected, every other knob (256 accounts, 4096 locks, …) at
/// the service's default.
///
/// One worker carries both shards. With a worker per shard a round is two
/// cross-thread hand-offs around 0.5 to 3 ms of work, and on the two-vCPU
/// reference box the kernel's placement of the two workers decides the
/// host time: for seconds at a stretch both sit on one core. The same
/// 50 000 paced requests took 212 to 466 ms depending on the seed and the
/// minute (0.9× to 1.75× the one-worker speed) against 404 to 429 ms with
/// one worker, and the saturated batch flipped between 0.20 and 0.32 s.
/// Every simulated figure is the same at any worker count; what a second
/// worker buys is `tm-serve.worker_speedup` in the traced pass.
fn base(mix: MixConfig, seed: u64) -> ServeConfig {
    let default = ServeConfig::default();
    ServeConfig {
        shards: 2,
        workers: 1,
        variant: Variant::HvSorting,
        mode: EngineMode::Scheduled,
        mix: MixConfig { requests: REQUESTS, ..mix },
        seed: mix_seed(default.seed, seed),
        batch_warps: 32,
        queue_capacity: REQUESTS as usize,
        ..default
    }
}

fn sat_config(seed: u64) -> ServeConfig {
    let mix =
        MixConfig { mean_interarrival: 4, locality_pct: 90, hot_pct: 10, ..MixConfig::bank() };
    base(mix, seed)
}

/// Offered rate of `serve_paced_wal` and of the latency probes, as the
/// generator's mean gap in cycles: 250 ⇒ 4.0 requests/kcycle.
const PACED_INTERARRIVAL: u64 = 250;

fn paced_config(seed: u64, mean_interarrival: u64, durable: bool) -> ServeConfig {
    let mix = MixConfig { mean_interarrival, ..MixConfig::mixed() };
    ServeConfig { durability: durable.then(DurabilityConfig::default), ..base(mix, seed) }
}

/// `MemStore` behind counters and spans: every `BlobStore` call the
/// service makes is a span, and bytes written are summed for the
/// write-amplification figures.
struct CountingStore {
    inner: StoreHandle,
    tracer: Arc<Tracer>,
    bytes_written: AtomicU64,
    calls: AtomicU64,
}

impl CountingStore {
    fn new(tracer: &Arc<Tracer>) -> Arc<CountingStore> {
        Arc::new(CountingStore {
            inner: MemStore::shared(),
            tracer: Arc::clone(tracer),
            bytes_written: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        })
    }

    fn call<R>(&self, name: &'static str, written: usize, f: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Relaxed);
        self.bytes_written.fetch_add(written as u64, Relaxed);
        self.tracer.leaf(name, f)
    }
}

impl BlobStore for CountingStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.call("store.put", bytes.len(), || self.inner.put(name, bytes));
    }
    fn append(&self, name: &str, bytes: &[u8]) {
        self.call("store.append", bytes.len(), || self.inner.append(name, bytes));
    }
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.call("store.get", 0, || self.inner.get(name))
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.call("store.list", 0, || self.inner.list(prefix))
    }
    fn delete(&self, name: &str) {
        self.call("store.delete", 0, || self.inner.delete(name));
    }
}

pub struct Serve {
    cfg: ServeConfig,
    seed: u64,
    paced: bool,
}

pub fn setup_sat(seed: u64) -> Box<dyn Workload> {
    setup(Serve { cfg: sat_config(seed), seed, paced: false })
}

pub fn setup_paced_wal(seed: u64) -> Box<dyn Workload> {
    setup(Serve { cfg: paced_config(seed, PACED_INTERARRIVAL, true), seed, paced: true })
}

fn setup(mut w: Serve) -> Box<dyn Workload> {
    w.rep(&Arc::new(Tracer::new(false)));
    Box::new(w)
}

/// The output checks of one serve run.
fn check(report: &ServeReport, rep: &mut Rep) {
    let done = report.completed == report.admitted && report.admitted == report.offered;
    let sound = report.conserved && report.txl_consistent && report.violations_total == 0;
    rep.check(report.offered, done && sound, || {
        format!(
            "serve: offered {} admitted {} completed {} rejected {} conserved {} txl_consistent {} violations {}",
            report.offered,
            report.admitted,
            report.completed,
            report.rejected,
            report.conserved,
            report.txl_consistent,
            report.violations_total
        )
    });
}

/// What the counting store saw over one durable run.
struct WalUse {
    bytes_written: u64,
    calls: u64,
    store_bytes_final: u64,
}

fn run(cfg: &ServeConfig, t: &Arc<Tracer>) -> Result<(ServeReport, Option<WalUse>), String> {
    if cfg.durability.is_none() {
        let report = t.span("tm-serve.run", || Service::run(cfg)).map_err(|e| e.to_string())?;
        return Ok((report, None));
    }
    let store = CountingStore::new(t);
    let (report, recovery) = t
        .span("tm-serve.run_durable", || Service::run_durable(cfg, store.clone()))
        .map_err(|e| e.to_string())?;
    let wal = WalUse {
        bytes_written: store.bytes_written.load(Relaxed),
        calls: store.calls.load(Relaxed),
        store_bytes_final: recovery.store_bytes,
    };
    Ok((report, Some(wal)))
}

/// Median wall seconds of three runs of `cfg`, untraced.
fn wall(cfg: &ServeConfig, out: &mut Rep) -> f64 {
    let quiet = Arc::new(Tracer::new(false));
    median_secs(3, || match run(cfg, &quiet) {
        Ok((report, _)) => check(&report, out),
        Err(e) => out.check(1, false, || format!("serve paired run: {e}")),
    })
}

impl Workload for Serve {
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep {
        let mut rep = Rep::new();
        let (r, wal) = match run(&self.cfg, t) {
            Ok(out) => out,
            Err(e) => {
                rep.check(REQUESTS, false, || format!("serve: {e}"));
                return rep;
            }
        };
        check(&r, &mut rep);
        rep.ops = r.completed;
        let shards = &r.shard_reports;
        let sum = |f: fn(&tm_serve::ShardReport) -> u64| shards.iter().map(f).sum::<u64>() as f64;
        let (commits, aborts) = (sum(|s| s.commits), sum(|s| s.aborts));
        let completed = r.completed.max(1) as f64;
        rep.facts.extend([
            ("gpu-sim.instr", sum(|s| s.instructions)),
            ("tm-serve.rounds", r.rounds as f64),
            ("tm-serve.launches", sum(|s| s.launches)),
            ("tm-serve.req_per_round", r.completed as f64 / r.rounds.max(1) as f64),
            ("tm-serve.abort_share", aborts / (commits + aborts).max(1.0)),
            ("tm-serve.cross_shard_share", r.cross_shard as f64 / r.admitted.max(1) as f64),
            ("tm-serve.rollbacks", r.rollbacks as f64),
            ("tm-serve.queue_peak", shards.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64),
            ("tm-serve.rejected", r.rejected as f64),
            ("tm-serve.virt_req_per_kcycle", r.sim_throughput()),
            ("virt_cycles_per_op", r.virtual_cycles as f64 / completed),
        ]);
        if let Some(wal) = wal {
            rep.facts.extend([
                ("tm-serve.wal_bytes_per_req", wal.bytes_written as f64 / completed),
                ("tm-serve.wal_calls_per_round", wal.calls as f64 / r.rounds.max(1) as f64),
                ("tm-serve.store_bytes_final", wal.store_bytes_final as f64),
            ]);
        }
        if self.paced {
            rep.facts.push(("virt_lat_p50_cycles", r.p50() as f64));
            rep.facts.push(("virt_lat_p99_cycles", r.p99() as f64));
        }
        rep
    }

    fn layers(&mut self, t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep) {
        let fact_sum = |name: &str| reps.iter().map(|r| super::fact(&r.facts, name)).sum::<f64>();
        let run_ns =
            (total_ns(spans, "tm-serve.run") + total_ns(spans, "tm-serve.run_durable")) as f64;
        out.facts
            .push(("tm-serve.us_per_round", run_ns / 1e3 / fact_sum("tm-serve.rounds").max(1.0)));
        out.facts.push(("gpu-sim.ns_per_instr", run_ns / fact_sum("gpu-sim.instr").max(1.0)));

        let this = wall(&self.cfg, out);
        if self.paced {
            let volatile = wall(&ServeConfig { durability: None, ..self.cfg.clone() }, out);
            out.facts.push(("tm-serve.wal_overhead", this / volatile));
            // The depth `bench --bin obs` records with, over the default 0.
            let obs = ObsConfig { flight_events: 4096, ..self.cfg.obs };
            let flight = wall(&ServeConfig { obs, ..self.cfg.clone() }, out);
            out.facts.push(("tm-serve.flight_overhead", flight / this));

            // Latency at three fixed offered rates, volatile, and the
            // highest rate that meets the limit without a growing backlog.
            const P99_LIMIT_CYCLES: u64 = 250_000;
            let mut slo_rate = 0.0;
            for (gap, metric) in [
                (400, "tm-serve.virt_p99_ia400"),
                (250, "tm-serve.virt_p99_ia250"),
                (150, "tm-serve.virt_p99_ia150"),
            ] {
                match run(&paced_config(self.seed, gap, false), t) {
                    Ok((r, _)) => {
                        check(&r, out);
                        out.facts.push((metric, r.p99() as f64));
                        if r.p99() <= P99_LIMIT_CYCLES && r.completed == r.admitted {
                            slo_rate = f64::max(slo_rate, 1000.0 / gap as f64);
                        }
                    }
                    Err(e) => out.check(1, false, || format!("serve at gap {gap}: {e}")),
                }
            }
            out.facts.push(("tm-serve.virt_slo_rate", slo_rate));
        } else {
            let two_workers = wall(&ServeConfig { workers: 2, ..self.cfg.clone() }, out);
            out.facts.push(("tm-serve.worker_speedup", this / two_workers));
        }
        super::probes::tm_check(t, self.seed, out);
    }
}
