//! Fault-injection sweep: every STM variant × every seeded fault plan on
//! the contended RA micro-benchmark, with tm-check opacity verification
//! of each run's recorded history.
//!
//! Reports per cell: cycles, abort rate, and the injected-fault counters,
//! so schedule sensitivity and retry cost are visible side by side with
//! the (always-required) correctness verdict.

use crate::{print_table, thousands, Error};
use gpu_sim::{FaultPlan, LaunchConfig};
use gpu_stm::recorder;
use tm_check::check_history;
use workloads::ra::{self, RaParams};
use workloads::{RunConfig, Variant};

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("shuffle", FaultPlan::schedule_shuffle(0xbe9c_0001)),
        ("jitter<=24", FaultPlan::latency_jitter(0xbe9c_0002, 24)),
        ("cas-1/8", FaultPlan::cas_failures(0xbe9c_0003, 1, 8)),
        (
            "combined",
            FaultPlan {
                seed: 0xbe9c_0004,
                shuffle_schedule: true,
                latency_jitter: 12,
                cas_fail_num: 1,
                cas_fail_den: 16,
            },
        ),
    ]
}

/// Runs the subcommand; fails when any run is not opaque and complete.
pub fn run() -> Result<(), Error> {
    println!("GPU-STM reproduction — fault-injection sweep (RA, contended)");
    let params = RaParams {
        shared_words: 1 << 10,
        actions_per_tx: 6,
        txs_per_thread: 2,
        write_pct: 60,
        seed: 4242,
    };
    let grid = LaunchConfig::new(4, 64);

    let mut rows = Vec::new();
    for (plan_name, plan) in plans() {
        for v in Variant::ALL {
            eprint!("[faults] {v} under {plan_name}...");
            let rec = recorder();
            let mut cfg = RunConfig::with_memory(1 << 17).with_locks(1 << 8);
            cfg.sim.watchdog_cycles = 1 << 34;
            cfg.sim.fault = plan;
            cfg.recorder = Some(rec.clone());
            let out = match ra::run(&params, v, grid, &cfg) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!(" failed: {e}");
                    rows.push(vec![
                        plan_name.to_string(),
                        v.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("ERROR: {e}"),
                    ]);
                    continue;
                }
            };
            let h = rec.borrow();
            let expected = grid.total_threads() * params.txs_per_thread as u64;
            let opaque = check_history(&h, |_| 0).is_ok();
            let complete = out.tx.commits == expected;
            let verdict = match (opaque, complete) {
                (true, true) => "opaque".to_string(),
                (false, _) => "VIOLATION".to_string(),
                (true, false) => format!("LOST TXS ({}/{expected})", out.tx.commits),
            };
            eprintln!(" {} cycles, {verdict}", thousands(out.kernels[0].cycles));
            rows.push(vec![
                plan_name.to_string(),
                v.to_string(),
                thousands(out.kernels[0].cycles),
                format!("{:.1}%", out.tx.abort_rate() * 100.0),
                thousands(out.kernels[0].stats.spurious_cas_failures),
                thousands(out.kernels[0].stats.injected_jitter_cycles),
                verdict,
            ]);
        }
    }

    let headers =
        ["fault plan", "variant", "cycles", "abort rate", "spurious-cas", "jitter-cyc", "verdict"];
    print_table("Fault sweep — RA under adversarial schedules", &headers, &rows);
    let bad = rows.iter().filter(|r| r[6] != "opaque").count();
    if bad > 0 {
        return Err(Error::Failed(format!("{bad} run(s) FAILED verification")));
    }
    println!("\nall {} runs verified opaque and complete", rows.len());
    Ok(())
}
