//! Table 1: transactional characteristics of the evaluation workloads —
//! shared data size, reads/writes per transaction, transactions per
//! kernel, proportion of time spent in transactions, and conflict level.
//!
//! Measured by running each workload under STM-Optimized with its default
//! (scaled) configuration.

use crate::runner::{run_workload, Workload};
use crate::{print_table, thousands, Suite};
use gpu_stm::Phase;
use workloads::Variant;

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    println!(
        "GPU-STM reproduction — Table 1 (workload characteristics, measured under \
         STM-Optimized; sizes scaled 1/{})",
        suite.data_scale
    );

    let mut rows = Vec::new();
    let all = [Workload::Ra, Workload::Ht, Workload::Eb, Workload::Gn, Workload::Lb, Workload::Km];
    for w in all {
        if !suite.selected(w.short()) {
            continue;
        }
        eprintln!("[table1] {}...", w.label());
        let shared: u64 = match w {
            Workload::Ra => suite.ra().0.shared_words as u64,
            Workload::Ht => suite.ht().0.table_words as u64,
            Workload::Eb => suite.eb().0.hot_words as u64,
            Workload::Gn => suite.gn().0.table_words as u64,
            Workload::Lb => {
                let (p, _) = suite.lb();
                (p.width * p.height) as u64
            }
            Workload::Km => suite.km().0.shared_words() as u64,
        };
        match run_workload(suite, w, Variant::Optimized, None) {
            Ok(out) => {
                let commits = out.tx.commits.max(1);
                let b = &out.tx.breakdown;
                let tx_time = 100.0 - b.percent(Phase::Native);
                rows.push(vec![
                    w.label().to_string(),
                    thousands(shared),
                    format!("{:.1}", out.tx.reads_committed as f64 / commits as f64),
                    format!("{:.1}", out.tx.writes_committed as f64 / commits as f64),
                    thousands(out.tx.commits),
                    format!("{tx_time:.0}%"),
                    conflict_level(out.tx.abort_rate()),
                ]);
            }
            Err(e) => eprintln!("[table1] {} failed: {e}", w.label()),
        }
    }

    let headers =
        ["workload", "shared data", "RD/TX", "WR/TX", "TX/kernel", "TX time", "conflicts"];
    print_table("Table 1 — workload transactional characteristics", &headers, &rows);
    println!("\n(conflicts: measured abort probability; GN rows aggregate both kernels)");
}

fn conflict_level(abort_rate: f64) -> String {
    let label = if abort_rate < 0.02 {
        "low"
    } else if abort_rate < 0.25 {
        "moderate"
    } else {
        "high"
    };
    format!("{label} ({:.1}%)", abort_rate * 100.0)
}
