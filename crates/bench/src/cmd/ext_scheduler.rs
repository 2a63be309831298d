//! Extension experiment: the adaptive transaction scheduler the paper
//! leaves as future work (Section 4.2).
//!
//! Compares raw STM-HV-Sorting against the same runtime in a
//! [`Pipeline`](gpu_stm::Pipeline) with AIMD admission control, on a
//! high-conflict k-means-style accumulator workload and on the
//! low-conflict random-array workload. Expected shape: throttling wins
//! where aborts thrash (KM-style), and costs nothing measurable where they
//! don't (RA-style), because the limit ramps back up.

use crate::{print_table, thousands, Error};
use gpu_sim::{LaunchConfig, Sim, SimConfig, WarpRng};
use gpu_stm::{
    lane_addrs, lane_vals, LockStm, Pipeline, Policies, SchedulerConfig, Stm, StmConfig, StmShared,
};
use std::rc::Rc;

/// Shared-counter accumulator: each thread adds into `n_counters` hot
/// words, `incr` transactions each.
fn run_counters<S: Stm + 'static>(
    make: impl FnOnce(&mut Sim, StmShared, StmConfig) -> S,
    n_counters: u32,
    grid: LaunchConfig,
    incr: u32,
) -> (u64, gpu_stm::TxStats, Rc<S>) {
    let mut simcfg = SimConfig::with_memory(1 << 20);
    simcfg.watchdog_cycles = 1 << 36;
    let mut sim = Sim::new(simcfg);
    let cfg = StmConfig::new(1 << 12);
    let shared = StmShared::init(&mut sim, &cfg).unwrap();
    let counters = sim.alloc(n_counters).unwrap();
    let stm = Rc::new(make(&mut sim, shared, cfg));
    let kstm = Rc::clone(&stm);
    let report = sim
        .launch(grid, move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = WarpRng::new(2, ctx.id().thread_id(0));
                let mut remaining = [incr; 32];
                loop {
                    let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let addrs = lane_addrs(active, |l| counters.offset(rng.below(l, n_counters)));
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    stm.write(&mut w, &ctx, ok, &addrs, &lane_vals(ok, |l| vals[l] + 1)).await;
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                }
            }
        })
        .unwrap();
    let total: u64 = sim.read_slice(counters, n_counters).iter().map(|v| *v as u64).sum();
    assert_eq!(total, grid.total_threads() * incr as u64, "lost updates");
    let stats = stm.stats().borrow().clone();
    (report.cycles, stats, stm)
}

/// Runs the subcommand.
pub fn run() -> Result<(), Error> {
    println!(
        "GPU-STM reproduction — extension: adaptive transaction scheduler (paper future work)"
    );

    let mut rows = Vec::new();
    // (label, hot counters, grid, incr) — KM-like vs RA-like contention.
    let scenarios: [(&str, u32, LaunchConfig, u32); 3] = [
        ("high conflict (8 hot words)", 8, LaunchConfig::new(32, 64), 4),
        ("medium conflict (256 words)", 256, LaunchConfig::new(32, 64), 4),
        ("low conflict (64K words)", 1 << 16, LaunchConfig::new(32, 64), 4),
    ];

    for (label, counters, grid, incr) in scenarios {
        eprintln!("[ext_scheduler] {label}...");
        let (raw_cycles, raw_stats, _) =
            run_counters(|_, sh, cfg| LockStm::hv_sorting(sh, cfg), counters, grid, incr);
        let (sched_cycles, sched_stats, sched) = run_counters(
            |sim, sh, cfg| {
                let admission = Some(SchedulerConfig { window: 256, ..SchedulerConfig::default() });
                let policies = Policies { admission, ..Policies::default() };
                Pipeline::new(sim, LockStm::hv_sorting(sh, cfg), &cfg, policies)
                    .expect("the scheduler preset is valid")
            },
            counters,
            grid,
            incr,
        );
        rows.push(vec![
            label.to_string(),
            thousands(raw_cycles),
            format!("{:.1}%", raw_stats.abort_rate() * 100.0),
            thousands(sched_cycles),
            format!("{:.1}%", sched_stats.abort_rate() * 100.0),
            format!("{:.2}x", raw_cycles as f64 / sched_cycles as f64),
            sched.checkpoint().expect("admission is on").limit.to_string(),
        ]);
    }

    let headers = [
        "scenario",
        "raw cycles",
        "raw aborts",
        "sched cycles",
        "sched aborts",
        "speedup",
        "final limit",
    ];
    print_table("Adaptive scheduler vs raw STM-HV-Sorting", &headers, &rows);
    println!(
        "\n(the scheduler should win where aborts thrash and be ~neutral where they\n\
         don't; `final limit` shows the concurrency it converged to)"
    );
    Ok(())
}
