//! Satellite requirement: a fixed-seed serve run must produce a
//! byte-identical committed history and byte-identical `BENCH_serve`
//! metrics for 1, 2 and 4 worker threads. Worker threads are an
//! execution resource, not a semantic knob: every shard is a
//! deterministic single-threaded engine, the coordinator processes
//! barrier results in shard order, and the report serializes only
//! virtual quantities.

use tm_serve::{EngineMode, MixConfig, ObsConfig, ServeConfig, Service};
use workloads::Variant;

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        shards: 4,
        workers,
        mix: MixConfig { requests: 192, ..MixConfig::mixed() },
        seed: 7,
        accounts: 96,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        ..ServeConfig::default()
    }
}

#[test]
fn report_and_history_identical_across_worker_counts() {
    let runs: Vec<_> =
        [1usize, 2, 4].iter().map(|&w| Service::run(&cfg(w)).expect("serve run")).collect();

    let json0 = runs[0].to_json();
    assert!(!json0.is_empty());
    for r in &runs[1..] {
        assert_eq!(r.to_json(), json0, "JSON must be byte-identical across worker counts");
    }

    for r in &runs[1..] {
        for (a, b) in runs[0].shard_reports.iter().zip(&r.shard_reports) {
            assert_eq!(a.history_fnv, b.history_fnv, "shard {} history diverged", a.shard);
            assert_eq!(a.commit_log_fnv, b.commit_log_fnv, "shard {} commit log diverged", a.shard);
        }
    }

    // The fixed-seed run is also a correct one.
    let r = &runs[0];
    assert_eq!(r.completed, r.admitted, "drain must neither lose nor duplicate requests");
    assert!(r.conserved, "bank conservation");
    assert!(r.txl_consistent, "TXL counters consistent");
    assert_eq!(r.violations_total, 0, "tm-check must pass on served histories");
    assert!(r.completed > 0);
}

/// Observability is part of the determinism contract: both encoders of
/// the final `MetricsSnapshot` — the JSON document and the Prometheus
/// text scrape — must be byte-identical for 1, 2 and 4 workers, with
/// narrow windows and the flight recorder capturing events so every
/// obs code path (window rolls, frame cuts, trace taps) is exercised.
#[test]
fn metrics_snapshot_identical_across_worker_counts() {
    let make = |workers| {
        let cfg = ServeConfig {
            obs: ObsConfig {
                window_cycles: 1 << 12,
                flight_events: 1 << 12,
                storm_open: 1,
                ..ObsConfig::default()
            },
            ..cfg(workers)
        };
        Service::run(&cfg).expect("serve run")
    };
    let runs: Vec<_> = [1usize, 2, 4].iter().map(|&w| make(w)).collect();
    let snap0 = &runs[0].obs.snapshot;
    assert!(snap0.window > 1, "run must cross several metric windows");
    let json0 = snap0.to_json();
    let prom0 = snap0.to_prometheus();
    assert!(prom0.contains("tm_commits_total"), "scrape has content");
    for r in &runs[1..] {
        assert_eq!(r.obs.snapshot.to_json(), json0, "snapshot JSON diverged across workers");
        assert_eq!(r.obs.snapshot.to_prometheus(), prom0, "scrape diverged across workers");
    }
}

#[test]
fn robust_mode_is_equally_deterministic() {
    let make = |workers| {
        let cfg =
            ServeConfig { variant: Variant::Optimized, mode: EngineMode::Robust, ..cfg(workers) };
        Service::run(&cfg).expect("robust serve run")
    };
    let a = make(1);
    let b = make(4);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.violations_total, 0);
    assert!(a.conserved);
}

/// Every variant of the evaluation serves through the engine under every
/// policy preset (bare, AIMD admission, admission plus escalation): a
/// saturating closed batch drains, conserves money, passes the opacity
/// checker, names the variant in every shard report and reports the same
/// bytes at 1 and 2 workers.
#[test]
fn every_variant_serves_deterministically() {
    for variant in Variant::ALL {
        for mode in [EngineMode::Plain, EngineMode::Scheduled, EngineMode::Robust] {
            let make = |workers| {
                let cfg = ServeConfig {
                    workers,
                    variant,
                    mode,
                    mix: MixConfig { requests: 400, mean_interarrival: 4, ..MixConfig::mixed() },
                    queue_capacity: 408,
                    ..ServeConfig::default()
                };
                Service::run(&cfg).unwrap_or_else(|e| panic!("{variant} {mode:?}: {e}"))
            };
            let (a, b) = (make(1), make(2));
            let what = format!("{variant} {mode:?}");
            assert_eq!(a.admitted, 400, "{what}: every request admitted");
            assert_eq!(a.completed, a.admitted, "{what}: drain lost or duplicated requests");
            assert!(a.conserved, "{what}: bank conservation");
            assert_eq!(a.violations_total, 0, "{what}: tm-check violations");
            for s in &a.shard_reports {
                assert_eq!(s.stm_name, variant.label(), "{what}: shard {} report", s.shard);
            }
            assert_eq!(a.to_json(), b.to_json(), "{what}: JSON diverged across worker counts");
        }
    }
}

#[test]
fn seed_changes_the_served_history() {
    let a = Service::run(&cfg(2)).expect("serve run");
    let b = Service::run(&ServeConfig { seed: 8, ..cfg(2) }).expect("serve run");
    // Different seeds shuffle arrivals, routing and amounts; the
    // committed histories must not collide.
    let ha: Vec<u64> = a.shard_reports.iter().map(|s| s.history_fnv).collect();
    let hb: Vec<u64> = b.shard_reports.iter().map(|s| s.history_fnv).collect();
    assert_ne!(ha, hb);
}
