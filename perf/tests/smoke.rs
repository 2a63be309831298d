//! The whole benchmark once at its smallest size (`run --quick`: one
//! set-up and one repetition per pass), checked against what
//! `BENCHMARK.json` declares.

use std::process::Command;

// The integration test is a crate of its own; it reads documents with the
// same parser the program writes them with.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
use json::Json;

fn names(list: &Json) -> Vec<&str> {
    list.arr().iter().map(|m| m.get("name").and_then(Json::str).unwrap()).collect()
}

fn keys(object: &Json) -> Vec<&str> {
    object.fields().iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn quick_run_reports_every_declared_metric_and_nothing_else() {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out/smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(out)
        .status()
        .expect("perf runs");
    assert!(status.success(), "perf run --quick failed an output check");
    let doc = Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads = names(benchmark.get("workloads").unwrap());
    assert_eq!(workloads.len(), 7);
    let entries = doc.get("workloads").unwrap().arr();
    assert_eq!(names(doc.get("workloads").unwrap()), workloads);
    let per_layer = names(benchmark.get("per_layer").unwrap());
    let mut produced_somewhere = std::collections::BTreeSet::new();
    for entry in entries {
        let name = entry.get("name").unwrap().str().unwrap();
        // `correct` also says the workload produced exactly the per-layer
        // figures metrics.rs declares for it.
        assert_eq!(entry.get("correct").unwrap().bool(), Some(true), "{name} failed a check");
        assert_eq!(entry.get("failed_share").unwrap().num(), Some(0.0), "{name}");
        let reported = keys(entry.get("end_to_end").unwrap());
        assert_eq!(reported, names(benchmark.get("end_to_end").unwrap()), "{name}");
        let produced = keys(entry.get("per_layer").unwrap());
        assert!(produced.iter().all(|k| per_layer.contains(k)), "{name}: {produced:?}");
        produced_somewhere.extend(produced);
    }
    assert_eq!(produced_somewhere, per_layer.iter().copied().collect());

    // A document holds only what the workload produces, so these zeros
    // were measured, and the figures of other layers are absent, not 0.
    let value = |workload: &str, metric: &str| {
        let entry = entries.iter().find(|e| e.get("name").unwrap().str() == Some(workload));
        entry.unwrap().get("per_layer").unwrap().get(metric).map(|m| m.get("value").unwrap().num())
    };
    for (workload, metric) in [
        ("sim_prims", "gpu-stm.op_share"),
        ("serve_sat", "tm-check.violations"),
        ("serve_sat", "tm-serve.rejected"),
        ("serve_paced_wal", "tm-check.violations"),
        ("serve_paced_wal", "tm-serve.rejected"),
        ("verify_dpor", "tm-verify.diverged"),
        ("stm_storm", "gpu-stm.max_consec_aborts"),
    ] {
        assert_eq!(value(workload, metric), Some(Some(0.0)), "{workload} {metric}");
    }
    for (workload, metric) in [
        ("sim_prims", "gpu-stm.commits"),
        ("sim_prims", "tm-check.violations"),
        ("stm_moderate", "tm-verify.diverged"),
        ("verify_dpor", "virt_cycles_per_op"),
        ("txl_passes", "gpu-sim.instr"),
    ] {
        assert_eq!(value(workload, metric), None, "{workload} {metric}");
    }
}

/// What the benchmark driver reads: every declared metric, as a number.
#[test]
fn the_result_line_carries_every_declared_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(["measure", "--workload", "txl_passes", "--seed", "3", "--seconds", "1"])
            .args(["--quick", "--trace", trace])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").unwrap().bool(), Some(true));
        let metrics = result.get("metrics").unwrap();
        assert_eq!(keys(metrics), names(benchmark.get(section).unwrap()), "{section}");
        assert!(metrics.fields().iter().all(|(_, m)| m.get("value").unwrap().num().is_some()));
    }
}

#[test]
fn bad_arguments_are_errors_not_panics() {
    for args in [
        &["measure", "--workload", "nope"][..],
        &["measure", "--workload", "sim_prims", "--seed", "x"],
        &["measure", "--workload", "sim_prims", "--trace", "2"],
        &["run", "--seconds", "3"],
        &["run", "--seed", "x"],
        &["diff", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("perf: "), "{args:?}");
    }
}
