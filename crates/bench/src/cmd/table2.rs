//! Table 2: launch configurations at which STM-Optimized achieves its best
//! performance, found by searching over `blocks × threads-per-block`.
//!
//! The paper reports 256×256 for RA/HT/GN-1, smaller grids for GN-2 and
//! LB, and a tiny 64×2 grid for KM (high conflict rates make extra SIMT
//! lanes useless). The same qualitative pattern should emerge here at the
//! harness's scaled sizes.

use crate::runner::{run_workload, Workload};
use crate::{print_table, thousands, Suite};
use workloads::Variant;

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    println!("GPU-STM reproduction — Table 2 (autotuned launch configurations, STM-Optimized)");

    let mut rows = Vec::new();
    for w in Workload::FIGURE2 {
        if !suite.selected(w.short()) {
            continue;
        }
        // Candidate thread counts; the runner picks the block shape.
        let candidates: Vec<u64> = match w {
            Workload::Km => vec![32, 64, 128, 512],
            Workload::Lb => vec![32, 64, 128, 448],
            _ => vec![256, 1024, 4096, 8192],
        };
        // Work scales with the grid for most workloads, so rank on
        // throughput: cycles per committed transaction.
        let mut best: Option<(f64, u64, gpu_sim::LaunchConfig)> = None;
        for &t in &candidates {
            eprint!("[table2] {} @ {t} threads...", w.label());
            match run_workload(suite, w, Variant::Optimized, Some(t)) {
                Ok(out) => {
                    let per_tx = out.cycles as f64 / out.tx.commits.max(1) as f64;
                    eprintln!(" {} cycles, {per_tx:.0} cyc/tx", thousands(out.cycles));
                    if best.as_ref().is_none_or(|(c, _, _)| per_tx < *c) {
                        best = Some((per_tx, t, out.grid));
                    }
                }
                Err(e) => eprintln!(" failed: {e}"),
            }
        }
        if let Some((per_tx, threads, grid)) = best {
            rows.push(vec![
                w.label().to_string(),
                grid.blocks.to_string(),
                grid.threads_per_block.to_string(),
                thousands(threads),
                format!("{per_tx:.0}"),
            ]);
        }
    }

    let headers = ["workload", "thread-blocks", "threads/block", "total threads", "cycles/tx"];
    print_table("Table 2 — optimal launch configurations", &headers, &rows);
    println!(
        "\n(expected shape: RA/HT/GN favour the largest grids; KM and LB favour \
         small ones because conflicts/serial routing cap useful concurrency)"
    );
}
