//! Figure 2: performance comparison between STM variants and
//! coarse-grained locking (CGL) on the GPU.
//!
//! For each workload, every STM variant's transaction-kernel cycles are
//! reported as a speedup over CGL. Expected shape (paper Section 4.2):
//! STM-Optimized fastest or tied; STM-EGPGV limited by per-block
//! concurrency; STM-VBV poor on many-transaction workloads; HV beats TBV
//! where shared data exceeds the lock table (RA, LB); KM gains nothing.

use crate::runner::{run_workload, WlOutcome, Workload};
use crate::{print_table, speedup, thousands, Suite};
use workloads::Variant;

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    println!(
        "GPU-STM reproduction — Figure 2 (speedup over CGL)\n\
         data-scale 1/{}, thread-scale 1/{}, {} global version locks",
        suite.data_scale,
        suite.thread_scale,
        thousands(suite.n_locks() as u64)
    );

    let mut rows = Vec::new();
    for w in Workload::FIGURE2 {
        if !suite.selected(w.short()) {
            continue;
        }
        let Some((cgl, cells)) = speedups_over_cgl(suite, w, None, "fig2") else { continue };
        let mut row = vec![
            w.label().to_string(),
            format!("{}x{}", cgl.grid.blocks, cgl.grid.threads_per_block),
            thousands(cgl.cycles),
        ];
        row.extend(cells);
        rows.push(row);
    }

    let mut headers = vec!["workload", "grid", "CGL cycles"];
    headers.extend(VARIANT_HEADERS);
    print_table("Figure 2 — speedup over CGL (higher is better)", &headers, &rows);
    println!(
        "\n(✗ = configuration unsupported by the variant, as the paper reports for \
         STM-EGPGV beyond per-block-transaction capacity)"
    );
}

/// Column headers for [`Variant::FIGURE2`], in its order.
pub(super) const VARIANT_HEADERS: [&str; 6] =
    ["EGPGV", "VBV", "TBV-Sort", "HV-Backoff", "HV-Sort", "Optimized"];

/// Runs `w` under CGL and then every Figure 2 variant; returns the CGL
/// run and one speedup-over-CGL cell per variant (`✗` = the variant does
/// not support the configuration). `None` when CGL itself fails.
pub(super) fn speedups_over_cgl(
    suite: &Suite,
    w: Workload,
    threads: Option<u64>,
    tag: &str,
) -> Option<(WlOutcome, Vec<String>)> {
    let at = threads.map_or(String::new(), |t| format!(" @ {t} threads"));
    eprint!("[{tag}] {}{at} CGL...", w.label());
    let cgl = match run_workload(suite, w, Variant::Cgl, threads) {
        Ok(out) => out,
        Err(e) => {
            eprintln!(" failed: {e}");
            return None;
        }
    };
    eprintln!(" {} cycles", thousands(cgl.cycles));
    let mut cells = Vec::new();
    for v in Variant::FIGURE2 {
        eprint!("[{tag}] {}{at} {v}...", w.label());
        cells.push(match run_workload(suite, w, v, threads) {
            Ok(out) => {
                eprintln!(" {} cycles", thousands(out.cycles));
                format!("{:.2}", speedup(cgl.cycles, out.cycles))
            }
            Err(workloads::RunError::Unsupported(_)) => {
                eprintln!(" unsupported");
                "✗".to_string()
            }
            Err(e) => {
                eprintln!(" failed: {e}");
                "err".to_string()
            }
        });
    }
    Some((cgl, cells))
}
