//! Every metric the benchmark reports: name, unit, direction, and how two
//! values of it compare. `BENCHMARK.json` at the repo root declares the
//! same names to the driver; a test keeps the two in step.

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Kind {
    /// Host clock, end to end: the share of the baseline by which it may
    /// get worse before that counts as a regression. `same_seed` judges two
    /// runs of one seed (`perf diff`, `perf check`: only the machine's noise
    /// separates them); `across_seeds` is the `bound` `BENCHMARK.json`
    /// declares to the driver, whose runs each draw another seed, so it
    /// also has to cover how much the inputs themselves differ.
    Bounded { same_seed: f64, across_seeds: f64 },
    /// Simulated clock or a count: exact for a fixed seed, so any
    /// difference between two runs of one seed is a change.
    Exact,
    /// Host clock, one layer: reported to explain an end-to-end change,
    /// never judged on its own.
    Info,
}

#[derive(Copy, Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The workloads that produce it. The driver's result line must carry
    /// every per-layer metric as a number, so there the others read 0;
    /// `perf`'s own documents and printouts leave them out, and a 0 in
    /// them is a measured 0.
    pub on: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    on: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, kind, on }
}

const EVERY: &[&str] = &[
    "sim_prims",
    "stm_moderate",
    "stm_storm",
    "serve_sat",
    "serve_paced_wal",
    "verify_dpor",
    "txl_passes",
];
/// Workloads that run the simulator and report its instruction count.
const SIMULATED: &[&str] =
    &["sim_prims", "stm_moderate", "stm_storm", "serve_sat", "serve_paced_wal"];
/// Of those, the ones whose reports expose `SimStats` (serve's do not).
const SIM_STATS: &[&str] = &["sim_prims", "stm_moderate", "stm_storm"];
const PRIMS: &[&str] = &["sim_prims"];
const STM: &[&str] = &["stm_moderate", "stm_storm"];
const MODERATE: &[&str] = &["stm_moderate"];
const STORM: &[&str] = &["stm_storm"];
const SERVE: &[&str] = &["serve_sat", "serve_paced_wal"];
const SAT: &[&str] = &["serve_sat"];
const PACED: &[&str] = &["serve_paced_wal"];
const DPOR: &[&str] = &["verify_dpor"];
const TXL: &[&str] = &["txl_passes"];

use Better::{Higher, Lower};
use Kind::{Exact, Info};

const fn bounded(same_seed: f64, across_seeds: f64) -> Kind {
    Kind::Bounded { same_seed, across_seeds }
}

/// Reported by the untraced pass, for every workload.
pub const END_TO_END: [Metric; 4] = [
    m("ops_per_s", "ops/s", Higher, bounded(0.10, 0.25), EVERY),
    m("rep_ms_p75", "ms", Lower, bounded(0.15, 0.25), EVERY),
    m("peak_rss_mb", "MiB", Lower, bounded(0.10, 0.25), EVERY),
    m("setup_s", "s", Lower, bounded(0.25, 0.25), EVERY),
];

/// Reported by the traced pass, each by the workloads in its `on` list.
pub const PER_LAYER: [Metric; 108] = [
    // The simulated clock, end to end. Exact, so they cannot carry a
    // bound the driver could test across seeds; `perf diff` and `perf
    // check` hold them to equality instead.
    m("virt_cycles_per_op", "cycles", Lower, Exact, SIMULATED),
    m("virt_speedup_vs_cgl", "ratio", Higher, Exact, STM),
    m("virt_lat_p50_cycles", "cycles", Lower, Exact, PACED),
    m("virt_lat_p99_cycles", "cycles", Lower, Exact, PACED),
    // gpu-sim
    m("gpu-sim.instr", "count", Lower, Exact, SIMULATED),
    m("gpu-sim.ns_per_instr", "ns", Lower, Info, SIMULATED),
    m("gpu-sim.mem_tx_per_instr", "ratio", Lower, Exact, SIM_STATS),
    m("gpu-sim.coalescing_eff", "share", Higher, Exact, SIM_STATS),
    m("gpu-sim.l2_hit_rate", "share", Higher, Exact, SIM_STATS),
    m("gpu-sim.simt_eff", "share", Higher, Exact, SIM_STATS),
    m("gpu-sim.idle_cycle_share", "ratio", Lower, Exact, SIM_STATS),
    m("gpu-sim.load_coalesced_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.load_strided_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.store_coalesced_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.atomic_contended_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.atomic_spread_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.cas_spin_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.sched_w16_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.sched_w256_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.sched_w1024_ns", "ns", Lower, Info, PRIMS),
    m("gpu-sim.new_alloc_us", "us", Lower, Info, PRIMS),
    m("gpu-sim.empty_launch_us", "us", Lower, Info, PRIMS),
    m("gpu-sim.trace_overhead", "ratio", Lower, Info, MODERATE),
    m("gpu-sim.race_overhead", "ratio", Lower, Info, MODERATE),
    // gpu-stm
    m("gpu-stm.commits", "count", Higher, Exact, STM),
    m("gpu-stm.aborts", "count", Lower, Exact, STM),
    m("gpu-stm.abort_share", "share", Lower, Exact, STM),
    m("gpu-stm.lock_retries", "count", Lower, Exact, STM),
    m("gpu-stm.false_conflicts_filtered", "count", Higher, Exact, STM),
    m("gpu-stm.read_only_share", "share", Higher, Exact, STM),
    m("gpu-stm.max_consec_aborts", "count", Lower, Exact, STM),
    m("gpu-stm.init_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.buffering_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.consistency_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.locking_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.commit_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.aborted_cycles", "cycles", Lower, Exact, STM),
    m("gpu-stm.cgl.begin_ns", "ns", Lower, Info, STM),
    m("gpu-stm.cgl.read_ns", "ns", Lower, Info, STM),
    m("gpu-stm.cgl.write_ns", "ns", Lower, Info, STM),
    m("gpu-stm.cgl.commit_ns", "ns", Lower, Info, STM),
    m("gpu-stm.vbv.begin_ns", "ns", Lower, Info, STM),
    m("gpu-stm.vbv.read_ns", "ns", Lower, Info, STM),
    m("gpu-stm.vbv.write_ns", "ns", Lower, Info, STM),
    m("gpu-stm.vbv.commit_ns", "ns", Lower, Info, STM),
    m("gpu-stm.tbv-sorting.begin_ns", "ns", Lower, Info, STM),
    m("gpu-stm.tbv-sorting.read_ns", "ns", Lower, Info, STM),
    m("gpu-stm.tbv-sorting.write_ns", "ns", Lower, Info, STM),
    m("gpu-stm.tbv-sorting.commit_ns", "ns", Lower, Info, STM),
    m("gpu-stm.hv-sorting.begin_ns", "ns", Lower, Info, STM),
    m("gpu-stm.hv-sorting.read_ns", "ns", Lower, Info, STM),
    m("gpu-stm.hv-sorting.write_ns", "ns", Lower, Info, STM),
    m("gpu-stm.hv-sorting.commit_ns", "ns", Lower, Info, STM),
    m("gpu-stm.op_share", "share", Lower, Info, SIM_STATS),
    m("gpu-stm.trace_overhead", "ratio", Lower, Info, MODERATE),
    // workloads
    m("workloads.ra_us_per_commit", "us", Lower, Info, STM),
    m("workloads.ra_cycles_per_commit", "cycles", Lower, Exact, STM),
    m("workloads.ht_us_per_commit", "us", Lower, Info, MODERATE),
    m("workloads.ht_cycles_per_commit", "cycles", Lower, Exact, MODERATE),
    m("workloads.gn_us_per_commit", "us", Lower, Info, MODERATE),
    m("workloads.gn_cycles_per_commit", "cycles", Lower, Exact, MODERATE),
    m("workloads.lb_us_per_commit", "us", Lower, Info, MODERATE),
    m("workloads.lb_cycles_per_commit", "cycles", Lower, Exact, MODERATE),
    m("workloads.km_us_per_commit", "us", Lower, Info, STORM),
    m("workloads.km_cycles_per_commit", "cycles", Lower, Exact, STORM),
    m("workloads.eb_us_per_commit", "us", Lower, Info, STORM),
    m("workloads.eb_cycles_per_commit", "cycles", Lower, Exact, STORM),
    // tm-check
    m("tm-check.check_us_per_tx", "us", Lower, Info, SERVE),
    m("tm-check.violations", "count", Lower, Exact, SERVE),
    // tm-serve
    m("tm-serve.rounds", "count", Lower, Exact, SERVE),
    m("tm-serve.launches", "count", Lower, Exact, SERVE),
    m("tm-serve.req_per_round", "count", Higher, Exact, SERVE),
    m("tm-serve.us_per_round", "us", Lower, Info, SERVE),
    m("tm-serve.abort_share", "share", Lower, Exact, SERVE),
    m("tm-serve.cross_shard_share", "share", Lower, Exact, SERVE),
    m("tm-serve.rollbacks", "count", Lower, Exact, SERVE),
    m("tm-serve.queue_peak", "count", Lower, Exact, SERVE),
    m("tm-serve.rejected", "count", Lower, Exact, SERVE),
    m("tm-serve.virt_req_per_kcycle", "req/kcycle", Higher, Exact, SERVE),
    m("tm-serve.wal_bytes_per_req", "B", Lower, Exact, PACED),
    m("tm-serve.wal_calls_per_round", "count", Lower, Exact, PACED),
    m("tm-serve.store_bytes_final", "B", Lower, Exact, PACED),
    m("tm-serve.wal_overhead", "ratio", Lower, Info, PACED),
    m("tm-serve.flight_overhead", "ratio", Lower, Info, PACED),
    m("tm-serve.worker_speedup", "ratio", Higher, Info, SAT),
    m("tm-serve.virt_p99_ia400", "cycles", Lower, Exact, PACED),
    m("tm-serve.virt_p99_ia250", "cycles", Lower, Exact, PACED),
    m("tm-serve.virt_p99_ia150", "cycles", Lower, Exact, PACED),
    m("tm-serve.virt_slo_rate", "req/kcycle", Higher, Exact, PACED),
    // tm-verify
    m("tm-verify.schedules", "count", Lower, Exact, DPOR),
    m("tm-verify.backtracks_queued", "count", Lower, Exact, DPOR),
    m("tm-verify.sleep_pruned", "count", Higher, Exact, DPOR),
    m("tm-verify.traces_deduped", "count", Lower, Exact, DPOR),
    m("tm-verify.states_deduped", "count", Lower, Exact, DPOR),
    m("tm-verify.schedules_deduped", "count", Lower, Exact, DPOR),
    m("tm-verify.useful_share", "share", Higher, Exact, DPOR),
    m("tm-verify.us_per_schedule", "us", Lower, Info, DPOR),
    m("tm-verify.max_trace_len", "count", Lower, Exact, DPOR),
    m("tm-verify.diverged", "count", Lower, Exact, DPOR),
    // txl
    m("txl.compile_us_per_kb", "us", Lower, Info, TXL),
    m("txl.lint_us_per_kb", "us", Lower, Info, TXL),
    m("txl.analyze_us_per_program", "us", Lower, Info, TXL),
    m("txl.fix_us_per_program", "us", Lower, Info, TXL),
    m("txl.diagnostics", "count", Lower, Exact, TXL),
    m("txl.patches", "count", Lower, Exact, TXL),
    // perf, the harness itself
    m("perf.calib_ms", "ms", Lower, Info, EVERY),
    m("perf.calib_drift", "ratio", Lower, Info, EVERY),
    m("perf.trace_overhead", "ratio", Lower, Info, EVERY),
];

/// The layer a per-layer metric belongs to: its name up to the first dot.
/// The dotless ones are the simulated clock's end-to-end figures.
pub fn layer(name: &str) -> &str {
    name.split_once('.').map_or("simulated clock", |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports. They must declare the same metrics.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = doc.get(key).unwrap().arr();
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("name").unwrap().str(), Some(m.name));
                assert_eq!(d.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
                let better = if m.better == Higher { "higher" } else { "lower" };
                assert_eq!(d.get("better").unwrap().str(), Some(better), "{}", m.name);
                match m.kind {
                    Kind::Bounded { across_seeds, .. } => {
                        assert_eq!(d.get("bound").unwrap().num(), Some(across_seeds), "{}", m.name)
                    }
                    _ => assert!(d.get("bound").is_none(), "{}", m.name),
                }
            }
        }
        let seconds = doc.get("run_seconds").unwrap().num();
        assert_eq!(seconds, Some(f64::from(crate::measure::RUN_SECONDS)));
        let workloads: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str())
            .collect();
        let specs: Vec<_> = crate::workloads::ALL.iter().map(|s| Some(s.name)).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn every_metric_is_produced_by_a_workload_that_exists() {
        let names: Vec<_> = crate::workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(EVERY, names);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!m.on.is_empty(), "{}: nothing produces it", m.name);
            assert!(m.on.iter().all(|w| names.contains(w)), "{}: {:?}", m.name, m.on);
        }
        assert!(END_TO_END.iter().all(|m| m.on == EVERY));
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            assert!(m.unit.chars().all(|c| ok(c) || "/%".contains(c)), "{}", m.name);
        }
    }
}
