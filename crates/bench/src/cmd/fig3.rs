//! Figure 3: scalability of the STM variants — speedup over CGL as the
//! thread count grows.
//!
//! Expected shape: lock-table-based variants scale with threads until
//! hardware residency and conflicts saturate; STM-VBV plateaus early
//! (single-sequence-lock contention); STM-EGPGV stops running at larger
//! grids ("crashes" in the paper) because it lacks per-thread
//! transactions.

use super::fig2::{speedups_over_cgl, VARIANT_HEADERS};
use crate::runner::Workload;
use crate::{print_table, Suite};

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    let threads: Vec<u64> = vec![64, 256, 1024, 4096];
    println!("GPU-STM reproduction — Figure 3 (speedup over CGL vs. thread count)");

    for w in Workload::FIGURE2 {
        if !suite.selected(w.short()) {
            continue;
        }
        let mut rows = Vec::new();
        for &t in &threads {
            if let Some((_, cells)) = speedups_over_cgl(suite, w, Some(t), "fig3") {
                let mut row = vec![t.to_string()];
                row.extend(cells);
                rows.push(row);
            }
        }
        let mut headers = vec!["threads"];
        headers.extend(VARIANT_HEADERS);
        print_table(
            &format!("Figure 3 — {} scalability (speedup over CGL)", w.label()),
            &headers,
            &rows,
        );
    }
    println!("\n(✗ = unsupported: STM-EGPGV does not support per-thread transactions at scale)");
}
