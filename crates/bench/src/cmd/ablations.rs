//! Ablation study (simulated cycles) for GPU-STM's design choices on the
//! random-array workload:
//!
//! - **encounter-time lock-sorting vs backoff locking** (Section 3.1);
//! - **locking the read-set at commit** vs TL2-style write-only locking
//!   (Section 3.2.2 — write-only locking *starves* on cross read/write
//!   contention; on this low-pathology workload it merely changes cost);
//! - **coalesced read-/write-set layout** vs per-thread layout;
//! - **write-set Bloom filter** on/off;
//! - **order-preserving hash-table lock-log** vs flat O(n²) sorted list;
//! - **pre-commit value validation** (Algorithm 3 line 71) on/off.

use crate::{print_table, thousands, Suite};
use gpu_sim::LaunchConfig;
use gpu_stm::StmConfig;
use workloads::ra::{self, RaParams};
use workloads::{RunConfig, Variant};

/// Runs the subcommand.
pub fn run(suite: &Suite) {
    let params = RaParams {
        shared_words: suite.n_locks() * 8,
        actions_per_tx: 8,
        txs_per_thread: 2,
        write_pct: 50,
        seed: 31,
    };
    let grid = LaunchConfig::new(64, 64);
    println!(
        "GPU-STM reproduction — ablation study (RA, {} threads, {} shared words)",
        grid.total_threads(),
        thousands(params.shared_words as u64)
    );

    let base_cfg = |f: &dyn Fn(&mut StmConfig)| {
        let mut cfg =
            RunConfig::with_memory((params.shared_words + suite.n_locks() + (1 << 16)) as usize)
                .with_locks(suite.n_locks());
        f(&mut cfg.stm);
        cfg
    };

    let cases: Vec<(&str, RunConfig, Variant)> = vec![
        ("baseline (HV + sorting)", base_cfg(&|_| {}), Variant::HvSorting),
        ("locking: backoff", base_cfg(&|_| {}), Variant::HvBackoff),
        ("locking: write-set only", base_cfg(&|s| s.lock_read_set = false), Variant::HvSorting),
        ("sets: uncoalesced layout", base_cfg(&|s| s.coalesced_sets = false), Variant::HvSorting),
        (
            "write-set: no Bloom filter",
            base_cfg(&|s| s.write_set_bloom = false),
            Variant::HvSorting,
        ),
        ("lock-log: flat sorted list", base_cfg(&|s| s.locklog_buckets = 1), Variant::HvSorting),
        ("commit: pre-locking VBV", base_cfg(&|s| s.pre_commit_vbv = true), Variant::HvSorting),
        ("validation: pure TBV", base_cfg(&|_| {}), Variant::TbvSorting),
    ];

    let mut rows = Vec::new();
    let mut baseline_cycles = None;
    for (name, cfg, variant) in cases {
        eprint!("[ablations] {name}...");
        match ra::run(&params, variant, grid, &cfg) {
            Ok(out) => {
                let cycles = out.cycles();
                eprintln!(" {} cycles", thousands(cycles));
                let base = *baseline_cycles.get_or_insert(cycles);
                rows.push(vec![
                    name.to_string(),
                    thousands(cycles),
                    format!("{:+.1}%", (cycles as f64 / base as f64 - 1.0) * 100.0),
                    format!("{:.1}%", out.tx.abort_rate() * 100.0),
                    thousands(out.tx.lock_retries),
                ]);
            }
            Err(e) => eprintln!(" failed: {e}"),
        }
    }

    let headers = ["configuration", "cycles", "vs baseline", "abort rate", "lock retries"];
    print_table("Ablations — RA under GPU-STM design variations", &headers, &rows);
    println!(
        "\n(write-only locking works on this low-pathology workload but starves on\n\
         cross read/write warps — see gpu-stm's `write_only_locking_starves_on_cross_readwrite` test)"
    );
}
