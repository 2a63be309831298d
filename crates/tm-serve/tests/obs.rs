//! The observability acceptance scenario: a seeded crash-plan serve run
//! with an asynchronous recovery window must
//!
//! 1. open a `CrashRecovery` incident when the kill lands and close it
//!    when the shard recovers,
//! 2. cut a flight-recorder bundle whose trace slice replays under the
//!    existing Chrome-trace exporter,
//! 3. produce a `MetricsSnapshot` (and full obs report) byte-identical
//!    across 1, 2 and 4 workers and across two same-seed runs,
//! 4. keep the *ServeReport* durability-independent: crash incidents
//!    live in the `RecoveryReport`, never the serve report.
//!
//! It also checks that every per-shard counter the serve report carries
//! is the obs registry's count, not a second tally kept beside it.

use tm_serve::{
    CrashPlan, CrashPoint, DurabilityConfig, EngineMode, HealthState, IncidentCause, MemStore,
    MixConfig, ObsConfig, RecoveryReport, ServeConfig, ServeReport, Service,
};
use workloads::Variant;

fn crash_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers,
        mix: MixConfig { requests: 96, ..MixConfig::mixed() },
        seed: 11,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(DurabilityConfig {
            segment_batches: 2,
            recovery_rounds: 2,
            crash: Some(CrashPlan::at(0, CrashPoint::PostPrepare, 1)),
            ..DurabilityConfig::default()
        }),
        obs: ObsConfig { window_cycles: 1 << 14, flight_events: 1 << 12, ..ObsConfig::default() },
        ..ServeConfig::default()
    }
}

fn run(workers: usize) -> (ServeReport, RecoveryReport) {
    Service::run_durable(&crash_cfg(workers), MemStore::shared()).expect("durable run")
}

#[test]
fn crash_opens_a_recovering_incident_and_closes_on_recovery() {
    let (report, rec) = run(2);

    // The recovery window is epoch-visible: exactly one crash-recovery
    // incident for shard 0, opened at the kill, closed at recovery.
    let incidents: Vec<_> =
        report.obs.incidents.iter().filter(|i| i.cause == IncidentCause::CrashRecovery).collect();
    assert_eq!(incidents.len(), 1, "one crash-recovery incident: {:?}", report.obs.incidents);
    let inc = incidents[0];
    assert_eq!(inc.shard, 0);
    let close = inc.close_epoch.expect("incident closes when the shard recovers");
    assert!(close > inc.open_epoch, "recovery window spans virtual time");
    assert_ne!(inc.evidence_fnv, 0, "incident carries evidence");

    // The shard healed: final health is not Recovering, and the run
    // completed every admitted request.
    let shard0 = &report.obs.snapshot.shards[0];
    assert_ne!(shard0.health, HealthState::Recovering);
    assert_eq!(report.completed, report.admitted);
    assert!(report.conserved);

    // The recovery actually happened per the durability report.
    assert_eq!(rec.recoveries.len(), 1);
    assert_eq!(rec.recoveries[0].shard, 0);
}

#[test]
fn crash_bundle_replays_under_the_trace_exporter() {
    let (report, rec) = run(2);

    // The flight recorder cut a crash bundle on the recovery side (it
    // carries WAL state, so it must not live in the serve report).
    assert!(
        !rec.bundles.iter().any(|b| report.obs.bundles.contains(b)),
        "crash bundles must not leak into the serve report"
    );
    let bundle = rec
        .bundles
        .iter()
        .find(|b| b.cause == IncidentCause::CrashRecovery)
        .expect("crash cut a flight-recorder bundle");
    assert_eq!(bundle.shard, 0);
    assert!(!bundle.frames.is_empty(), "bundle retains pre-crash frames");
    assert!(
        bundle.frames.iter().any(|f| !f.tx_events.is_empty()),
        "frames carry captured trace events"
    );

    // The trace slice replays under the existing exporter as a complete
    // Chrome trace document with real events in it.
    let trace = bundle.chrome_trace();
    assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace}");
    assert!(trace.ends_with(r#"],"displayTimeUnit":"ns"}"#), "{trace}");
    assert!(trace.contains(r#""cat":"stm""#), "trace slice has transaction events: {trace}");

    // The `.sched`-style context block situates the slice.
    let ctx = bundle.context();
    assert!(ctx.contains("meta cause crash_recovery"), "{ctx}");
    assert!(ctx.contains("meta shard 0"), "{ctx}");
    assert!(ctx.lines().all(|l| l.starts_with("meta ")), "{ctx}");
}

#[test]
fn obs_is_byte_identical_across_workers_and_reruns() {
    let (r1, rec1) = run(1);
    let (r2, rec2) = run(2);
    let (r4, rec4) = run(4);
    let (r1b, rec1b) = run(1);

    let snap = r1.obs.snapshot.to_json();
    let prom = r1.obs.snapshot.to_prometheus();
    for r in [&r2, &r4, &r1b] {
        assert_eq!(r.obs.snapshot.to_json(), snap, "snapshot diverged");
        assert_eq!(r.obs.snapshot.to_prometheus(), prom, "scrape diverged");
    }
    // Stronger: the whole serve report (obs block included) and the
    // whole recovery report are byte-identical.
    for r in [&r2, &r4, &r1b] {
        assert_eq!(r.to_json(), r1.to_json(), "serve report diverged");
    }
    for rec in [&rec2, &rec4, &rec1b] {
        assert_eq!(rec.to_json(), rec1.to_json(), "recovery report diverged");
    }
}

#[test]
fn synchronous_recovery_stays_invisible_in_the_serve_report() {
    // With `recovery_rounds: 0` the crash heals inside the round and the
    // serve report must stay byte-identical to an uncrashed run — so the
    // obs block must not register any epoch-visible incident either.
    let mk = |crash| ServeConfig {
        durability: Some(DurabilityConfig {
            segment_batches: 2,
            recovery_rounds: 0,
            crash,
            ..DurabilityConfig::default()
        }),
        ..crash_cfg(2)
    };
    let (crashed, rec) = Service::run_durable(
        &mk(Some(CrashPlan::at(0, CrashPoint::PostPrepare, 1))),
        MemStore::shared(),
    )
    .expect("crashed run");
    let (clean, _) = Service::run_durable(&mk(None), MemStore::shared()).expect("clean run");
    assert_eq!(crashed.to_json(), clean.to_json(), "sync recovery must be report-invisible");
    assert!(crashed.obs.incidents.is_empty(), "no epoch-visible incidents");
    // The recovery report still tells the whole story: a closed incident
    // and a crash bundle on the durability side.
    assert_eq!(rec.incidents.len(), 1);
    assert!(rec.incidents[0].close_epoch.is_some());
    assert!(!rec.bundles.is_empty());
}

/// One count, one place: each shard's rejections, parks and storm rounds
/// in the serve report are the obs snapshot's totals, and the run-level
/// rejections and parks are the per-shard sums.
fn assert_counts_are_the_obs_totals(r: &ServeReport) {
    assert_eq!(r.shard_reports.len(), r.obs.snapshot.shards.len());
    for (s, o) in r.shard_reports.iter().zip(&r.obs.snapshot.shards) {
        assert_eq!(s.rejected, o.rejected.total, "shard {}: rejected", s.shard);
        assert_eq!(s.parked, o.parked.total, "shard {}: parked", s.shard);
        assert_eq!(s.storm_rounds, o.storm_rounds.total, "shard {}: storm_rounds", s.shard);
    }
    assert_eq!(r.rejected, r.shard_reports.iter().map(|s| s.rejected).sum::<u64>());
    assert_eq!(r.parked, r.shard_reports.iter().map(|s| s.parked).sum::<u64>());
}

#[test]
fn report_counters_are_the_obs_totals() {
    // Non-blocking: a hot, saturating bank burst under the AIMD
    // scheduler against small queues both sheds load and storms.
    let shedding = ServeConfig {
        shards: 2,
        workers: 2,
        variant: Variant::Vbv,
        mode: EngineMode::Scheduled,
        mix: MixConfig {
            requests: 512,
            mean_interarrival: 1,
            locality_pct: 100,
            hot_pct: 80,
            hot_keys: 4,
            ..MixConfig::bank()
        },
        seed: 11,
        accounts: 16,
        batch_warps: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let r = Service::run(&shedding).expect("shedding run");
    assert_counts_are_the_obs_totals(&r);
    assert!(r.rejected > 0, "the burst must overflow the queues");
    assert!(r.shard_reports.iter().any(|s| s.storm_rounds > 0), "the hot set must storm");

    // Blocking: the same kind of burst parks instead of rejecting.
    let blocking = ServeConfig {
        mix: MixConfig { requests: 192, ..MixConfig::blocking() },
        queue_capacity: 8,
        blocking: true,
        ..shedding
    };
    let r = Service::run(&blocking).expect("blocking run");
    assert_counts_are_the_obs_totals(&r);
    assert!(r.parked > 0, "the burst must park");
}
