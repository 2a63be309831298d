//! Every committed golden, on every machine: `cargo test` renders all ten
//! at their pinned configurations and compares byte for byte — the same
//! function `bench check` runs.

use bench::args::{root, Args};
use bench::runner::{run_workload, run_workload_traced, TraceHooks, Workload};
use bench::Suite;
use workloads::Variant;

#[test]
fn every_golden_matches_its_committed_file() {
    let out = Args::new(concat!("--out ", env!("CARGO_TARGET_TMPDIR"), "/goldens")).out().unwrap();
    let mismatches = bench::golden::check_all(root(), &out);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn tracing_does_not_change_workload_cycles() {
    let suite = Suite { data_scale: 1024, thread_scale: 256, only: None };
    let hooks = TraceHooks {
        sim: Some(gpu_sim::trace_sink(1 << 20)),
        tx: Some(gpu_stm::tx_trace_sink(1 << 20)),
    };
    let traced =
        run_workload_traced(&suite, Workload::Ht, Variant::HvSorting, Some(64), &hooks).unwrap();
    let plain = run_workload(&suite, Workload::Ht, Variant::HvSorting, Some(64)).unwrap();
    assert_eq!(plain.cycles, traced.cycles, "trace sinks must be pure observers");
}
