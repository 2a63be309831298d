//! Figure 4: hierarchical validation (HV) vs. timestamp-based validation
//! (TBV) on EigenBench, sweeping the number of global version locks, the
//! amount of shared data, and the thread count.
//!
//! Expected shape: with small shared data the two match; with large shared
//! data TBV needs many locks to shed false conflicts while HV reaches
//! near-optimal throughput (and much lower abort rates) with a fraction of
//! the locks.

use crate::{print_table, square_grid, thousands, Suite};
use workloads::eigenbench::{self, EbParams};
use workloads::{RunConfig, Variant};

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    // Paper sweep: shared data 1M–64M, locks 1M–64M (scaled).
    let shared_sizes: Vec<u32> =
        [1u64 << 20, 4 << 20, 16 << 20, 64 << 20].iter().map(|s| suite.scaled_pow2(*s)).collect();
    let lock_counts = shared_sizes.clone();
    let thread_counts = [1024u64, 4096];

    println!(
        "GPU-STM reproduction — Figure 4 (HV vs TBV on EigenBench)\n\
         shared data and lock counts scaled 1/{} from the paper's 1M-64M sweep",
        suite.data_scale
    );

    for (panel, &shared) in shared_sizes.iter().enumerate() {
        let mut rows = Vec::new();
        for &threads in &thread_counts {
            for &locks in &lock_counts {
                let params =
                    EbParams { hot_words: shared, txs_per_thread: 2, ..EbParams::default() };
                let grid = square_grid(threads);
                let mut cells = vec![thousands(threads), thousands(locks as u64)];
                for v in [Variant::HvSorting, Variant::TbvSorting] {
                    let data = shared as u64
                        + grid.total_threads() * (params.mild_words + params.cold_words) as u64;
                    let mem = data + locks as u64 + (1 << 16);
                    let cfg = RunConfig::with_memory(mem as usize).with_locks(locks);
                    match eigenbench::run(&params, v, grid, &cfg) {
                        Ok(out) => {
                            let cycles = out.cycles().max(1);
                            let tput = out.tx.commits as f64 * 1e6 / cycles as f64;
                            cells.push(format!("{tput:.1}"));
                            cells.push(format!("{:.1}%", out.tx.abort_rate() * 100.0));
                        }
                        Err(e) => {
                            eprintln!("[fig4] {v} failed: {e}");
                            cells.push("err".into());
                            cells.push("err".into());
                        }
                    }
                }
                rows.push(cells);
            }
        }
        let headers = ["threads", "locks", "HV tx/Mcyc", "HV abort", "TBV tx/Mcyc", "TBV abort"];
        print_table(
            &format!(
                "Figure 4({}) — shared data = {} words",
                (b'a' + panel as u8) as char,
                thousands(shared as u64)
            ),
            &headers,
            &rows,
        );
    }
}
