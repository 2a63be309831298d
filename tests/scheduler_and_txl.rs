//! Cross-crate integration: the adaptive scheduler composed with TXL
//! kernels, and weak-isolation boundary behaviour.

use gpu_sim::{LaunchConfig, Sim, SimConfig};
use gpu_stm::{LockStm, Pipeline, Policies, SchedulerConfig, Stm, StmConfig, StmShared};
use std::rc::Rc;
use txl::{compile, launch, ArrayBinding};

/// `inner` in a pipeline running admission alone.
fn scheduled(
    s: &mut Sim,
    inner: LockStm,
    cfg: &StmConfig,
    sched: SchedulerConfig,
) -> Pipeline<LockStm> {
    let policies = Policies { admission: Some(sched), ..Policies::default() };
    Pipeline::new(s, inner, cfg, policies).unwrap()
}

fn sim() -> Sim {
    let mut cfg = SimConfig::with_memory(1 << 18);
    cfg.watchdog_cycles = 1 << 33;
    Sim::new(cfg)
}

/// A TXL kernel runs unmodified under admission control (any `Stm`
/// composes), and the totals stay exact despite admission throttling.
#[test]
fn txl_kernel_under_adaptive_scheduler() {
    let program = compile(
        "kernel incr(c: array) {
             let k = 4;
             while k > 0 {
                 let i = rand(4);
                 atomic { c[i] = c[i] + 1; }
                 k = k - 1;
             }
         }",
    )
    .unwrap();
    let mut s = sim();
    let cfg = StmConfig::new(1 << 5);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let counters = s.alloc(4).unwrap();
    let stm = Rc::new(scheduled(
        &mut s,
        LockStm::hv_sorting(shared, cfg),
        &cfg,
        SchedulerConfig { window: 64, ..SchedulerConfig::default() },
    ));
    let grid = LaunchConfig::new(2, 64);
    launch(
        &mut s,
        &stm,
        program.kernel("incr").unwrap(),
        grid,
        9,
        &[ArrayBinding::new("c", counters, 4)],
    )
    .unwrap();
    let total: u64 = s.read_slice(counters, 4).iter().map(|v| *v as u64).sum();
    assert_eq!(total, grid.total_threads() * 4);
    // 4 hot words under 128 threads: the scheduler must have adapted.
    let ck = stm.checkpoint().expect("admission is on");
    assert!(ck.adaptations > 0);
    assert!(ck.limit < 1024, "limit should have shrunk");
}

/// Weak isolation (Section 3.2.1): a non-transactional store racing with
/// transactions is NOT detected as a conflict — but transactions still
/// serialize among themselves. This documents the guarantee boundary.
#[test]
fn weak_isolation_nontransactional_race_is_undetected() {
    let mut s = sim();
    let cfg = StmConfig::new(1 << 6);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let data = s.alloc(2).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    let k_stm = Rc::clone(&stm);
    // Lane 0 runs a transaction incrementing data[0]; lane 16 (same warp)
    // does a plain non-transactional store to data[1] concurrently. Both
    // must complete; the STM never aborts because of the plain store.
    s.launch(LaunchConfig::new(1, 32), move |ctx| {
        let stm = Rc::clone(&k_stm);
        async move {
            let mut w = stm.new_warp();
            let tx_lane = gpu_sim::LaneMask::lane(0);
            let mut pending = tx_lane;
            ctx.store_one(16, data.offset(1), 7).await; // plain write
            while pending.any() {
                let active = stm.begin(&mut w, &ctx, pending).await;
                let v = stm.read_one(&mut w, &ctx, 0, data).await;
                stm.write_one(&mut w, &ctx, 0, data, v + 1).await;
                let committed = stm.commit(&mut w, &ctx, active).await;
                pending &= !committed;
            }
            ctx.store_one(16, data.offset(1), 9).await; // plain write again
        }
    })
    .unwrap();
    assert_eq!(s.read(data), 1);
    assert_eq!(s.read(data.offset(1)), 9);
    assert_eq!(stm.stats().borrow().aborts, 0, "plain stores must not abort transactions");
}

/// The simulator's SIMT efficiency statistic reflects scheduler
/// throttling: admission-limited runs execute with partial masks.
#[test]
fn scheduler_throttling_shows_in_simt_efficiency() {
    let run = |limit: u32| {
        let mut s = sim();
        let cfg = StmConfig::new(1 << 6);
        let shared = StmShared::init(&mut s, &cfg).unwrap();
        let counters = s.alloc(1024).unwrap();
        let stm = Rc::new(scheduled(
            &mut s,
            LockStm::hv_sorting(shared, cfg),
            &cfg,
            SchedulerConfig {
                initial_limit: limit,
                min_limit: limit,
                max_limit: limit,
                ..SchedulerConfig::default()
            },
        ));
        let kstm = Rc::clone(&stm);
        let report = s
            .launch(LaunchConfig::new(1, 64), move |ctx| {
                let stm = Rc::clone(&kstm);
                async move {
                    let mut w = stm.new_warp();
                    let mut rng = gpu_sim::WarpRng::new(4, ctx.id().thread_id(0));
                    let mut remaining = [2u32; 32];
                    loop {
                        let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                        if pending.none() {
                            break;
                        }
                        let active = stm.begin(&mut w, &ctx, pending).await;
                        if active.none() {
                            continue;
                        }
                        let addrs =
                            gpu_stm::lane_addrs(active, |l| counters.offset(rng.below(l, 1024)));
                        let v = stm.read(&mut w, &ctx, active, &addrs).await;
                        let ok = active & stm.opaque(&w);
                        stm.write(&mut w, &ctx, ok, &addrs, &gpu_stm::lane_vals(ok, |l| v[l] + 1))
                            .await;
                        let committed = stm.commit(&mut w, &ctx, active).await;
                        for l in committed.iter() {
                            remaining[l] -= 1;
                        }
                    }
                }
            })
            .unwrap();
        report.stats.simt_efficiency()
    };
    let full = run(4096); // unconstrained
    let throttled = run(4); // 4 transactions at a time
    assert!(
        throttled < full,
        "throttled efficiency {throttled} should be below unconstrained {full}"
    );
}
