//! End-to-end witness provenance: a model-checker violation found by
//! `tm-verify` is minimized, saved as a `.sched` witness, and attached
//! to a `tm-serve` flight-recorder bundle — so the post-mortem a human
//! opens after a check violation links straight to the schedule that
//! reproduces it.

use tm_serve::{FlightBundle, FlightFrame, IncidentCause};
use tm_verify::{save_witness, unsorted_locks, witness_reproduces, Model};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gpu-stm-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    dir
}

fn bundle_with(frames: Vec<FlightFrame>) -> FlightBundle {
    FlightBundle {
        name: "s000-r000004-check_violation".to_string(),
        shard: 0,
        cause: IncidentCause::CheckViolation,
        epoch: 4096,
        round: 4,
        wal_seq: 0,
        store_fnv: 0,
        variant: "hv-sorting".to_string(),
        mode: "scheduled".to_string(),
        seed: 7,
        frames,
        witness: None,
    }
}

#[test]
fn violation_bundles_carry_the_minimized_witness() {
    // 1. The model checker finds the crossing-lock deadlock.
    let case = unsorted_locks();
    let report = Model::new(case.clone()).explore(2, 500, false);
    let finding = report
        .findings
        .iter()
        .find(|f| f.violation.kind.is_progress_failure())
        .expect("explorer finds the seeded deadlock");

    // 2. The minimized witness is saved with rule provenance.
    let dir = temp_dir("obs-witness");
    let prov = save_witness(&dir, &case, finding).expect("witness saves");
    assert_eq!(prov.rule, "TL002");
    assert_eq!(prov.case, "unsorted-locks");
    let text = std::fs::read_to_string(&prov.path).expect("witness file exists");
    assert_eq!(witness_reproduces(&case, &text), Ok(true), "saved witness must replay");

    // 3. An incident bundle carries the provenance in its JSON summary
    //    and its `.sched`-style context block.
    let frame = FlightFrame {
        round: 4,
        epoch: 4096,
        seq: 0,
        cycles: 1024,
        commits: 3,
        aborts: 1,
        storm: false,
        sim_events: Vec::new(),
        tx_events: Vec::new(),
    };
    let path_str = prov.path.to_string_lossy().into_owned();
    let bundle = bundle_with(vec![frame]).with_witness(&prov.rule, &path_str);

    let json = bundle.to_json();
    assert!(json.contains("\"rule\":\"TL002\""), "summary names the rule: {json}");
    assert!(json.contains(&format!("\"path\":{:?}", path_str)), "summary carries the path");

    let ctx = bundle.context();
    assert!(ctx.contains("meta rule TL002"), "context names the rule:\n{ctx}");
    assert!(ctx.contains(&format!("meta witness {path_str}")), "context carries the path");
    assert!(ctx.contains("meta cause check_violation"));

    // 4. The dumped bundle pair round-trips through the filesystem and
    //    the trace half is a valid (if empty) Chrome trace.
    let out = bundle.write_to(&dir).expect("bundle dumps");
    let dumped = std::fs::read_to_string(&out).expect("summary file exists");
    assert!(dumped.contains("meta rule TL002"));
    let trace_path = dir.join(format!("{}.trace.json", bundle.name));
    let trace = std::fs::read_to_string(&trace_path).expect("trace file exists");
    assert!(trace.contains("traceEvents"));

    std::fs::remove_dir_all(&dir).ok();
}
