//! Park/wake liveness as a property: across seeded workload shapes,
//! every parked transaction is either eventually woken (parks == wakes
//! at quiescence) or the run ends in a *reported* all-parked deadlock —
//! never a silent lost wakeup. Each shape is also run twice to pin the
//! counters as deterministic; the worker-count-independence leg of the
//! same property lives in tm-serve's blocking report tests.

use gpu_sim::{LaneMask, LaunchConfig, Sim, SimConfig, SimError};
use gpu_stm::{LockStm, Pipeline, Policies, Stm, StmConfig, StmShared, Wake};
use workloads::queue::{run_deque, run_queue, DequeParams, QueueParams};
use workloads::{mix64, RunConfig, Variant};

/// Derives a queue shape from a seed: small rings and asymmetric
/// producer/consumer counts so both full-ring and empty-ring parks are
/// exercised somewhere in the sweep.
fn shape(seed: u64) -> QueueParams {
    let r = |k: u64, span: u64| (mix64(seed ^ (k << 32)) % span) as u32;
    QueueParams {
        capacity: 1 + r(1, 4),
        items: 16 + r(2, 33),
        producers: 1 + r(3, 3),
        consumers: 1 + r(4, 3),
        park: true,
    }
}

fn cfg(spurious_permille: u32) -> RunConfig {
    let mut cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
    cfg.stm.spurious_wake_rate = spurious_permille;
    cfg
}

#[test]
fn every_queue_park_is_woken_across_seeds() {
    for seed in 0..8u64 {
        // Odd seeds inject spurious wakes so the revalidate-and-re-park
        // loop is part of the property, not a separate code path.
        let spurious = if seed % 2 == 1 { 200 } else { 0 };
        let params = shape(seed);
        let out = run_queue(&params, Variant::HvSorting, &cfg(spurious))
            .unwrap_or_else(|e| panic!("seed {seed} ({params:?}): {e}"));
        assert_eq!(
            out.tx.parks, out.tx.wakes,
            "seed {seed} ({params:?}): a parked transaction was lost"
        );
        if spurious == 0 {
            assert_eq!(out.tx.spurious_wakes, 0, "seed {seed}: uninjected spurious wake");
        }
    }
}

#[test]
fn deque_parks_resolve_across_seeds() {
    for seed in 0..3u64 {
        let r = |k: u64, span: u64| (mix64(seed ^ (k << 24)) % span) as u32;
        let params = DequeParams {
            capacity: 4 + r(1, 5),
            items: 24 + r(2, 17),
            thieves: 1 + r(3, 3),
            stagger: 4000,
            park: true,
        };
        let out = run_deque(&params, Variant::HvSorting, &cfg(0))
            .unwrap_or_else(|e| panic!("seed {seed} ({params:?}): {e}"));
        assert_eq!(
            out.tx.parks, out.tx.wakes,
            "seed {seed} ({params:?}): a parked transaction was lost"
        );
    }
}

#[test]
fn park_counters_are_deterministic_per_seed() {
    for seed in [0u64, 1, 5] {
        let spurious = if seed % 2 == 1 { 200 } else { 0 };
        let params = shape(seed);
        let run = || {
            let out = run_queue(&params, Variant::HvSorting, &cfg(spurious)).unwrap();
            let instr: u64 = out.kernels.iter().map(|k| k.stats.instructions).sum();
            (out.tx.parks, out.tx.wakes, out.tx.spurious_wakes, out.tx.commits, instr)
        };
        assert_eq!(run(), run(), "seed {seed}: park accounting must be reproducible");
    }
}

/// The complement of the liveness property: a park nobody can wake must
/// surface as `SimError::Deadlock` carrying the watched addresses — not
/// hang, not time out, not report success.
#[test]
fn never_woken_park_reports_deadlock_with_watched_address() {
    let cfg = StmConfig::new(1 << 8);
    let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
    let shared = StmShared::init(&mut sim, &cfg).unwrap();
    let policies = Policies { wake: Wake::Park, ..Policies::default() };
    let stm = Pipeline::new(&mut sim, LockStm::hv_sorting(shared, cfg), &cfg, policies).unwrap();
    let flag = sim.alloc(1).unwrap();
    let stm2 = stm.clone();
    let err = sim
        .launch(LaunchConfig::new(1, 32), move |ctx| {
            let stm = stm2.clone();
            async move {
                let mut w = stm.new_warp();
                let m = LaneMask::lane(0);
                let mut pending = m;
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    let v = stm.read_one(&mut w, &ctx, 0, flag).await;
                    if v == 0 {
                        stm.retry(&mut w, m); // no producer exists: unwakeable
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    pending &= !o.committed;
                }
            }
        })
        .expect_err("an unwakeable park must not report success");
    match err {
        SimError::Deadlock { ref unfinished, .. } => {
            let parked: Vec<_> = unfinished.iter().filter(|w| !w.parked_addrs.is_empty()).collect();
            assert!(!parked.is_empty(), "diagnostics must show the parked warp: {err}");
            assert!(
                parked.iter().any(|w| w.parked_addrs.contains(&flag)),
                "diagnostics must name the watched address: {err}"
            );
        }
        other => panic!("expected Deadlock, got {other}"),
    }
}
