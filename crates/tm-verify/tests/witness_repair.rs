//! The model-checking half of the fix gate: a minimized `.sched` witness
//! of the unsorted-locks deadlock must stop reproducing once `txl fix`
//! repairs the program it was mined from.

use tm_verify::{footprint_order, unsorted_locks, witness_reproduces, witness_rule, Model};

#[test]
fn repaired_program_kills_the_deadlock_witness() {
    let case = unsorted_locks();

    // Mine a deadlock witness from the buggy program.
    let mut model = Model::new(case.clone());
    let report = model.explore(2, 500, false);
    let finding = report
        .findings
        .iter()
        .find(|f| f.violation.kind.is_progress_failure())
        .expect("the crossing-lock case deadlocks under exploration");
    let min = model.minimize(finding);
    let witness = model.to_sched(finding, &min);
    assert_eq!(
        witness_reproduces(&case, &witness),
        Ok(true),
        "minimized witness must reproduce on the buggy source:\n{witness}"
    );

    // The witness carries provenance back to the lint rule, and the
    // repair engine discharges exactly that rule.
    let (_, meta) = tm_verify::parse(&witness).expect("witness parses");
    let rule = witness_rule(&meta).expect("witness names its rule");
    assert_eq!(rule, case.rule);

    let fixed =
        txl::fix_source(&case.source, &txl::FixConfig::default()).expect("buggy source compiles");
    assert!(fixed.is_clean(), "repair left residual findings: {:?}", fixed.residual);
    assert!(fixed.changed(), "repair must rewrite the lock protocol");
    let diags = txl::lint_source(&fixed.fixed, &txl::LintConfig::default())
        .expect("repaired source compiles");
    assert!(
        diags.iter().all(|d| d.rule.id() != rule),
        "repaired source still lints {rule}: {diags:?}"
    );

    // The witness schedule no longer reproduces any matching violation
    // on the repaired program.
    let repaired = case.with_source(&fixed.fixed);
    assert_eq!(
        witness_reproduces(&repaired, &witness),
        Ok(false),
        "witness survived the repair:\n{witness}\nrepaired source:\n{}",
        fixed.fixed
    );

    // And not just under the witness schedule: the repaired program's
    // whole bounded schedule space is deadlock-free.
    let re = Model::new(repaired).explore(2, 500, false);
    assert!(
        re.findings.iter().all(|f| !f.violation.kind.is_progress_failure()),
        "repaired program still deadlocks somewhere: {:?}",
        re.findings
    );
}

/// The same gate for TL005: the footprint-order case deadlocks (under
/// the unsorted-locks STM mutant) until `txl fix` reorders the second
/// transaction's body, after which the minimized witness — and the whole
/// bounded schedule space — is deadlock-free, even though the mutant
/// stays armed on replay.
#[test]
fn reordered_program_kills_the_footprint_order_witness() {
    let case = footprint_order();

    let mut model = Model::new(case.clone());
    let report = model.explore(2, 500, false);
    let finding = report
        .findings
        .iter()
        .find(|f| f.violation.kind.is_progress_failure())
        .expect("the footprint-order case deadlocks under the unsorted-locks mutant");
    let min = model.minimize(finding);
    let witness = model.to_sched(finding, &min);
    assert_eq!(
        witness_reproduces(&case, &witness),
        Ok(true),
        "minimized witness must reproduce on the buggy source:\n{witness}"
    );

    let (_, meta) = tm_verify::parse(&witness).expect("witness parses");
    assert_eq!(witness_rule(&meta), Some("TL005"));

    let fixed =
        txl::fix_source(&case.source, &txl::FixConfig::default()).expect("buggy source compiles");
    assert!(fixed.is_clean(), "repair left residual findings: {:?}", fixed.residual);
    assert!(fixed.changed(), "repair must reorder the second transaction");
    let diags = txl::lint_source(&fixed.fixed, &txl::LintConfig::default())
        .expect("repaired source compiles");
    assert!(
        diags.iter().all(|d| d.rule.id() != "TL005"),
        "repaired source still lints TL005: {diags:?}"
    );

    // The mutation stays armed — only the program changed.
    let repaired = case.with_source(&fixed.fixed);
    assert_eq!(
        witness_reproduces(&repaired, &witness),
        Ok(false),
        "witness survived the repair:\n{witness}\nrepaired source:\n{}",
        fixed.fixed
    );

    let re = Model::new(repaired).explore(2, 500, false);
    assert!(
        re.findings.iter().all(|f| !f.violation.kind.is_progress_failure()),
        "repaired program still deadlocks somewhere: {:?}",
        re.findings
    );
}

#[test]
fn the_witness_case_explorations_are_pinned_schedule_for_schedule() {
    // Both cases at bound 2, cap 500: every exploration counter, the
    // number of findings and the minimized witness of the first progress
    // failure, byte for byte. Counter columns: schedules, traces deduped,
    // states deduped, backtracks queued, deferred, sleep-pruned,
    // schedules deduped, footprint-invisible events, diverged, longest
    // trace.
    let cases = [
        (
            unsorted_locks(),
            [248, 5, 146, 247, 179, 455, 0, 0, 0, 1120],
            false,
            197,
            "meta case unsorted-locks\nmeta rule TL002\nmeta threads 2\n\
             meta violation livelock\nmeta preemptions 1\nchoice 6 1 0\n",
        ),
        (
            footprint_order(),
            [500, 8, 490, 567, 891, 1115, 0, 0, 0, 863],
            true,
            1,
            "meta case footprint-order\nmeta rule TL005\nmeta threads 2\n\
             meta violation livelock\nmeta preemptions 2\nchoice 19 1 0\nchoice 67 0 0\n",
        ),
    ];
    for (case, want, want_cap_hit, want_findings, want_witness) in cases {
        let mut model = Model::new(case.clone());
        let report = model.explore(2, 500, false);
        let s = &report.stats;
        let got = [
            s.schedules_run,
            s.traces_deduped,
            s.states_deduped,
            s.backtracks_queued,
            s.backtracks_deferred,
            s.sleep_pruned,
            s.schedules_deduped,
            s.footprint_invisible_events,
            s.diverged,
            s.max_trace_len as u64,
        ];
        assert_eq!(got, want, "{}", case.name);
        assert_eq!(s.cap_hit, want_cap_hit, "{}", case.name);
        assert_eq!(report.findings.len(), want_findings, "{}", case.name);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .unwrap_or_else(|| panic!("{}: no progress failure", case.name));
        let min = model.minimize(finding);
        let witness = model.to_sched(finding, &min);
        assert_eq!(witness, format!("{}\n{want_witness}", tm_verify::HEADER), "{}", case.name);
    }
}
