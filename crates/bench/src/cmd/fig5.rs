//! Figure 5: execution-time breakdown of a single thread under
//! STM-Optimized — native code, transaction initialisation, buffering,
//! consistency checking, lock acquisition/release, commit, and time spent
//! in aborted transactions.
//!
//! The paper presents GN-1, GN-2, LB and KM (the micro-benchmarks are
//! almost entirely transactional, so their breakdown is uninformative).
//! Expected shape: GN-2 dominated by STM overhead (hard to amortise —
//! yet still ~20x faster than CGL overall); LB and KM show large
//! buffering shares (big read-/write-sets); KM loses a large share to
//! aborted work.

use crate::{print_table, Suite};
use gpu_stm::{phase_label, PHASES};
use workloads::{genome, kmeans, labyrinth, RunConfig, Variant};

fn breakdown_row(name: &str, b: &gpu_stm::Breakdown) -> Vec<String> {
    let mut row = vec![name.to_string()];
    for p in PHASES {
        row.push(format!("{:.1}%", b.percent(p)));
    }
    row
}

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    println!("GPU-STM reproduction — Figure 5 (single-thread execution breakdown, STM-Optimized)");

    let mut rows = Vec::new();

    // GN-1 and GN-2 (one-warp launches; the breakdown is per-warp exact).
    {
        let (mut params, _, _) = suite.gn();
        // One warp (32 threads) processes one segment per thread; modest
        // duplicate rate, as in the paper's GN input.
        params.n_segments = 32;
        params.value_space = 28;
        params.table_words = 1 << 9;
        let g1 = gpu_sim::LaunchConfig::new(1, 32);
        let g2 = gpu_sim::LaunchConfig::new(1, 32);
        let cfg = RunConfig::with_memory(1 << 18).with_locks(suite.n_locks().min(1 << 14));
        match genome::run(&params, Variant::Optimized, g1, g2, &cfg) {
            Ok(out) => {
                rows.push(breakdown_row("GN-1", &out.k1.tx.breakdown));
                rows.push(breakdown_row("GN-2", &out.k2.tx.breakdown));
            }
            Err(e) => eprintln!("[fig5] GN failed: {e}"),
        }
    }

    // LB.
    {
        let (mut params, _) = suite.lb();
        params.n_paths = 24;
        let grid = gpu_sim::LaunchConfig::new(1, 32);
        let cells = (params.width * params.height) as u64;
        let cfg = suite.run_config(cells, 32);
        match labyrinth::run(&params, Variant::Optimized, grid, &cfg) {
            Ok(out) => rows.push(breakdown_row("LB", &out.base.tx.breakdown)),
            Err(e) => eprintln!("[fig5] LB failed: {e}"),
        }
    }

    // KM.
    {
        let (params, _) = suite.km();
        let grid = gpu_sim::LaunchConfig::new(16, 2);
        let cfg = suite.run_config(params.shared_words() as u64, 32);
        match kmeans::run(&params, Variant::Optimized, grid, &cfg) {
            Ok(out) => rows.push(breakdown_row("KM", &out.tx.breakdown)),
            Err(e) => eprintln!("[fig5] KM failed: {e}"),
        }
    }

    let mut headers = vec!["kernel"];
    headers.extend(PHASES.iter().map(|p| phase_label(*p)));
    print_table("Figure 5 — execution time breakdown", &headers, &rows);
    println!(
        "\n(native = non-transactional work; aborted = work in attempts that \
         eventually aborted; GN-2's init/buffering dominance matches the paper's \
         observation that its overhead is hard to amortise)"
    );
}
