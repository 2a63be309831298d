//! Fault-injection stress harness: every STM variant must preserve
//! opacity and conservation under seeded adversarial perturbation of the
//! simulator — shuffled warp scheduling, memory-latency jitter, and
//! forced spurious CAS failures — and the escalation policy (the
//! degradation ladder) must keep per-transaction starvation in check
//! while faults rage.
//!
//! All plans are seeded, so every failure here is replayable bit-for-bit.

use gpu_sim::{FaultPlan, LaunchConfig};
use gpu_stm::{
    lane_addrs, lane_vals, recorder, LockStm, Pipeline, Policies, RobustConfig, Stm, StmConfig,
    StmShared,
};
use std::rc::Rc;
use tm_check::{assert_opaque, check_final_state};
use workloads::ra::{self, RaParams};
use workloads::{RunConfig, Variant};

fn contended_params() -> (RaParams, LaunchConfig) {
    (
        RaParams {
            shared_words: 256, // tiny array: heavy conflicts
            actions_per_tx: 6,
            txs_per_thread: 2,
            write_pct: 60,
            seed: 4242,
        },
        LaunchConfig::new(2, 64),
    )
}

/// The seeded fault plans every variant is swept under.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("schedule-shuffle", FaultPlan::schedule_shuffle(0xfa57_0001)),
        ("latency-jitter", FaultPlan::latency_jitter(0xfa57_0002, 24)),
        ("cas-failures", FaultPlan::cas_failures(0xfa57_0003, 1, 8)),
        (
            "combined",
            FaultPlan {
                seed: 0xfa57_0004,
                shuffle_schedule: true,
                latency_jitter: 12,
                cas_fail_num: 1,
                cas_fail_den: 16,
            },
        ),
    ]
}

fn faulted_config(plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 6);
    // Faults stretch runs (jitter, spurious retries); give them room so
    // the only way to fail is a correctness violation, not the budget.
    cfg.sim.watchdog_cycles = 1 << 34;
    cfg.sim.fault = plan;
    cfg
}

/// Runs `variant` under `plan` and checks the full correctness story:
/// every transaction committed exactly once, the recorded history is
/// opaque (serializable with consistent reads), and replaying committed
/// writes reproduces device memory.
fn stress_variant(variant: Variant, plan_name: &str, plan: FaultPlan) {
    let (params, grid) = contended_params();
    let rec = recorder();
    let mut cfg = faulted_config(plan);
    cfg.recorder = Some(rec.clone());
    let (out, sim, data) = ra::run_with_sim(&params, variant, grid, &cfg)
        .unwrap_or_else(|e| panic!("{variant} under {plan_name}: {e}"));
    let h = rec.borrow();

    assert_eq!(
        h.commits.len() as u64,
        grid.total_threads() * params.txs_per_thread as u64,
        "{variant} under {plan_name}: every transaction must commit exactly once"
    );
    assert_eq!(
        out.tx.commits,
        h.commits.len() as u64,
        "{variant} under {plan_name}: stats and history disagree"
    );

    let report = assert_opaque(&h, |_| 0);
    assert_eq!(report.writers + report.read_only, h.commits.len());

    let addrs = (0..params.shared_words).map(|i| data.offset(i)).collect::<Vec<_>>();
    let violations = check_final_state(&h, |_| 0, |a| sim.read(a), addrs);
    assert!(
        violations.is_empty(),
        "{variant} under {plan_name}: {:?}",
        &violations[..violations.len().min(3)]
    );
}

#[test]
fn all_variants_stay_opaque_under_schedule_shuffle() {
    let (name, plan) = fault_plans()[0];
    for v in Variant::ALL {
        stress_variant(v, name, plan);
    }
}

#[test]
fn all_variants_stay_opaque_under_latency_jitter() {
    let (name, plan) = fault_plans()[1];
    for v in Variant::ALL {
        stress_variant(v, name, plan);
    }
}

#[test]
fn all_variants_stay_opaque_under_spurious_cas_failures() {
    let (name, plan) = fault_plans()[2];
    for v in Variant::ALL {
        stress_variant(v, name, plan);
    }
}

#[test]
fn all_variants_stay_opaque_under_combined_faults() {
    let (name, plan) = fault_plans()[3];
    for v in Variant::ALL {
        stress_variant(v, name, plan);
    }
}

/// Injected faults must actually fire (the sweep must not be vacuous) and
/// be visible in the run's simulator statistics.
#[test]
fn injected_faults_are_observable_in_stats() {
    let (params, grid) = contended_params();
    let cfg = faulted_config(FaultPlan::cas_failures(7, 1, 4));
    let out = ra::run(&params, Variant::HvSorting, grid, &cfg).unwrap();
    assert!(out.kernels[0].stats.spurious_cas_failures > 0);

    let cfg = faulted_config(FaultPlan::latency_jitter(7, 32));
    let out = ra::run(&params, Variant::HvSorting, grid, &cfg).unwrap();
    assert!(out.kernels[0].stats.injected_jitter_cycles > 0);
}

/// A fault plan is part of the deterministic input: the same seed must
/// reproduce a run cycle-for-cycle, and a different seed must actually
/// perturb something.
#[test]
fn faulted_runs_replay_deterministically() {
    let (params, grid) = contended_params();
    let run = |seed| {
        let cfg = faulted_config(FaultPlan {
            seed,
            shuffle_schedule: true,
            latency_jitter: 16,
            cas_fail_num: 1,
            cas_fail_den: 8,
        });
        let out = ra::run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        (out.kernels[0].cycles, out.tx.commits, out.tx.aborts)
    };
    assert_eq!(run(11), run(11), "same fault seed must replay exactly");
    assert_ne!(run(11).0, run(12).0, "different fault seeds should perturb timing");
}

/// The degradation ladder under forced CAS failures: a contended counter
/// workload under the escalation policy must still conserve every increment, end
/// with the fallback lock free, and record its starvation diagnostics.
#[test]
fn robust_wrapper_conserves_and_bounds_aborts_under_cas_faults() {
    let mut cfg = faulted_config(FaultPlan::cas_failures(0xfa57_0005, 1, 6));
    cfg.sim.mem_words = 1 << 16;
    let mut sim = gpu_sim::Sim::new(cfg.sim.clone());
    let stm_cfg = StmConfig::new(1 << 6);
    let shared = StmShared::init(&mut sim, &stm_cfg).unwrap();
    let counters = sim.alloc(4).unwrap();
    let robust_cfg = RobustConfig { fallback_after: 4, ..RobustConfig::default() };
    let policies = Policies { escalation: Some(robust_cfg), ..Policies::default() };
    let stm = Rc::new(
        Pipeline::new(&mut sim, LockStm::hv_sorting(shared, stm_cfg), &stm_cfg, policies).unwrap(),
    );
    let grid = LaunchConfig::new(2, 64);
    let kstm = Rc::clone(&stm);
    let report = sim
        .launch(grid, move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut remaining = [3u32; 32];
                loop {
                    let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let addrs = lane_addrs(active, |l| counters.offset((l % 4) as u32));
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    let upd = lane_vals(ok, |l| vals[l] + 1);
                    stm.write(&mut w, &ctx, ok, &addrs, &upd).await;
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                }
            }
        })
        .unwrap();
    let total: u64 = sim.read_slice(counters, 4).iter().map(|v| *v as u64).sum();
    assert_eq!(total, grid.total_threads() * 3, "increments must be conserved");
    let lock = stm.fallback_lock_addr().expect("escalation is on");
    assert_eq!(sim.read(lock), 0, "fallback lock must end free");
    assert!(report.stats.spurious_cas_failures > 0, "plan must have fired");
    let handle = stm.stats();
    let stats = handle.borrow();
    assert!(stats.max_consec_aborts > 0, "contention + faults must starve someone");
    assert_eq!(stats.fallback_commits, stats.escalations, "every escalation must drain");
}
