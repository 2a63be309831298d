//! End-to-end exploration tests: every STM variant is violation-free on
//! every litmus under bounded-preemption DPOR, and every seeded mutant —
//! latent under the default schedule — is killed with a minimized,
//! replayable `.sched` witness.

use gpu_stm::{BlockingMutation, Mutation};
use tm_verify::{
    parse, verify, ExploreStats, Litmus, Model, VerifyConfig, ViolationKind, Workload,
};
use workloads::Variant;

fn assert_clean(workload: Workload, variant: Variant, blocks: u32, wpb: u32, bound: u32) {
    let cfg = VerifyConfig {
        litmus: Litmus::new(workload, variant, blocks, wpb),
        max_preemptions: bound,
        max_schedules: 3000,
        stop_on_finding: false,
    };
    let r = verify(&cfg);
    if let Some(u) = r.unsupported {
        panic!("{workload}/{variant}: litmus unexpectedly unsupported: {u}");
    }
    assert!(
        r.is_clean(),
        "{workload}/{variant}: {} findings, first: {} {}",
        r.findings.len(),
        r.findings[0].violation.kind,
        r.findings[0].violation.message,
    );
    assert!(!r.stats.cap_hit, "{workload}/{variant}: exploration did not converge under the cap");
    assert!(r.stats.schedules_run > 1, "{workload}/{variant}: only the default schedule ran");
    assert!(
        r.stats.backtracks_queued > 0,
        "{workload}/{variant}: DPOR found no racing pairs in a conflicting workload"
    );
}

#[test]
fn bank_is_clean_for_every_variant_at_bound_2() {
    for v in Variant::ALL {
        assert_clean(Workload::Bank, v, 1, 2, 2);
    }
}

#[test]
fn hashtable_is_clean_for_every_variant_at_bound_2() {
    for v in Variant::ALL {
        assert_clean(Workload::Hashtable, v, 1, 2, 2);
    }
}

#[test]
fn stripes_is_clean_and_footprint_pruned_for_every_variant() {
    for v in Variant::ALL {
        let cfg = VerifyConfig {
            litmus: Litmus::new(Workload::Stripes, v, 2, 1),
            max_preemptions: 2,
            max_schedules: 3000,
            stop_on_finding: false,
        };
        let r = verify(&cfg);
        assert!(r.unsupported.is_none(), "stripes/{v}: unsupported");
        assert!(r.is_clean(), "stripes/{v}: {:?}", r.findings.first().map(|f| &f.violation));
        assert!(!r.stats.cap_hit, "stripes/{v}: exploration did not converge");
        // The TXL interval analysis proves the stripes disjoint, so the
        // explorer must be demoting their data traffic to invisible.
        assert!(
            r.stats.footprint_invisible_events > 0,
            "stripes/{v}: footprint filter never engaged"
        );
    }
}

#[test]
fn cross_block_bank_is_clean_at_bound_1() {
    // Same two actors, but in different blocks: exercises cross-block
    // scheduling decisions (and EGPGV's inter-block path).
    for v in Variant::ALL {
        assert_clean(Workload::Bank, v, 2, 1, 1);
    }
}

#[test]
fn queue_wakeups_are_clean_for_lock_variants_at_bound_2() {
    // The blocking wakeup litmus: producer and consumer racing park
    // against commit. Bound-2 exploration covers park/commit races and
    // wake-before-park (the ticket re-check path) for every lock variant.
    for v in [Variant::TbvSorting, Variant::HvSorting, Variant::HvBackoff, Variant::TbvBackoff] {
        assert_clean(Workload::Queue, v, 1, 2, 2);
    }
}

#[test]
fn queue_multi_waiter_single_wake_is_clean_at_bound_2() {
    // Two consumers parked on the same counter, one item pushed: the
    // notify wakes both, exactly one claims, the loser re-parks and is
    // released by the done flag. ~14k schedules, so one variant carries
    // the multi-waiter matrix leg.
    let cfg = VerifyConfig {
        litmus: Litmus::new(Workload::Queue, Variant::HvSorting, 1, 3),
        max_preemptions: 2,
        max_schedules: 20_000,
        stop_on_finding: false,
    };
    let r = verify(&cfg);
    assert!(r.unsupported.is_none());
    assert!(r.is_clean(), "{:?}", r.findings.first().map(|f| &f.violation));
    assert!(!r.stats.cap_hit, "multi-waiter exploration did not converge");
}

#[test]
fn queue_litmus_rejects_non_lock_variants() {
    let cfg = VerifyConfig {
        litmus: Litmus::new(Workload::Queue, Variant::Cgl, 1, 2),
        max_preemptions: 1,
        max_schedules: 10,
        stop_on_finding: false,
    };
    assert!(verify(&cfg).unsupported.is_some());
}

#[test]
fn lost_wakeup_mutant_is_latent_under_the_default_schedule() {
    let mut l = Litmus::new(Workload::Queue, Variant::HvSorting, 1, 3);
    l.blocking = BlockingMutation { lost_wakeup: true };
    let out = Model::new(l).run(None);
    assert!(
        out.violations.is_empty(),
        "lost_wakeup: expected the mutant to stay latent under the default \
         (staggered) schedule, got {:?}",
        out.violations
    );
}

#[test]
fn lost_wakeup_mutant_is_killed_with_a_minimized_replayable_witness() {
    // Producer + one consumer: the smallest shape with a lost-wakeup
    // window (the done-flag commit racing the consumer's registration).
    let mut l = Litmus::new(Workload::Queue, Variant::HvSorting, 1, 2);
    l.blocking = BlockingMutation { lost_wakeup: true };
    let cfg =
        VerifyConfig { litmus: l, max_preemptions: 2, max_schedules: 5000, stop_on_finding: true };
    let r = verify(&cfg);
    let f = r.findings.first().expect("lost_wakeup: not killed");
    assert!(
        ViolationKind::Deadlock.matches(f.violation.kind),
        "lost_wakeup: killed by {} rather than a progress failure: {}",
        f.violation.kind,
        f.violation.message
    );
    assert!(
        f.violation.message.contains("parked"),
        "deadlock diagnostics should name the parked warp: {}",
        f.violation.message
    );

    // Shrink, serialize, re-parse, replay: the full repro pipeline.
    let mut model = Model::new(l);
    let min = model.minimize(f);
    assert!(min.choices.len() <= f.schedule.choices.len());
    assert!(
        min.choices.len() <= 4,
        "minimized lost-wakeup witness still has {} forced choices",
        min.choices.len()
    );
    let text = model.to_sched(f, &min);
    let (parsed, meta) = parse(&text).expect("well-formed .sched");
    assert_eq!(parsed, min);
    assert!(meta.iter().any(|(k, v)| k == "workload" && v == "queue"), "{meta:?}");
    assert!(meta.iter().any(|(k, v)| k == "blocking" && v == "lost_wakeup=true"), "{meta:?}");
    let out = model.replay(&parsed);
    assert!(
        out.violations.iter().any(|v| ViolationKind::Deadlock.matches(v.kind)),
        "minimized lost-wakeup witness does not reproduce; got {:?}",
        out.violations
    );
}

#[test]
fn clean_queue_passes_the_same_hunt_that_kills_lost_wakeup() {
    let l = Litmus::new(Workload::Queue, Variant::HvSorting, 1, 2);
    let cfg =
        VerifyConfig { litmus: l, max_preemptions: 2, max_schedules: 5000, stop_on_finding: true };
    assert!(verify(&cfg).is_clean());
}

/// The three seeded mutants, the checker kind expected to catch each, and
/// whether that kind is a progress failure (deadlock/livelock — the two
/// classifications are interchangeable under schedule perturbation).
fn mutants() -> [(&'static str, Mutation, ViolationKind); 3] {
    [
        (
            "skip_validation",
            Mutation { skip_validation: true, ..Default::default() },
            ViolationKind::Opacity,
        ),
        (
            "late_writeback",
            Mutation { late_writeback: true, ..Default::default() },
            ViolationKind::Opacity,
        ),
        (
            "unsorted_locks",
            Mutation { unsorted_locks: true, ..Default::default() },
            ViolationKind::Livelock,
        ),
    ]
}

#[test]
fn mutants_are_latent_under_the_default_schedule() {
    for (name, m, _) in mutants() {
        let mut l = Litmus::new(Workload::Bank, Variant::HvSorting, 1, 2);
        l.mutation = m;
        let out = Model::new(l).run(None);
        assert!(
            out.violations.is_empty(),
            "{name}: expected the mutant to stay latent under the default \
             (staggered) schedule, got {:?}",
            out.violations
        );
    }
}

#[test]
fn every_mutant_is_killed_with_a_minimized_replayable_witness() {
    let mut killed = 0;
    for (name, m, expect) in mutants() {
        let mut l = Litmus::new(Workload::Bank, Variant::HvSorting, 1, 2);
        l.mutation = m;
        let cfg = VerifyConfig {
            litmus: l,
            max_preemptions: 2,
            max_schedules: 5000,
            stop_on_finding: true,
        };
        let r = verify(&cfg);
        let f = r.findings.first().unwrap_or_else(|| panic!("{name}: not killed"));
        assert!(
            expect.matches(f.violation.kind),
            "{name}: killed by {} rather than the expected {expect}",
            f.violation.kind
        );

        // Shrink, serialize, re-parse, replay: the full repro pipeline.
        let mut model = Model::new(l);
        let min = model.minimize(f);
        assert!(min.choices.len() <= f.schedule.choices.len());
        assert!(
            min.choices.len() <= 4,
            "{name}: minimized witness still has {} forced choices",
            min.choices.len()
        );
        let text = model.to_sched(f, &min);
        let (parsed, meta) = parse(&text).unwrap_or_else(|e| panic!("{name}: bad .sched: {e}"));
        assert_eq!(parsed, min);
        assert!(meta.iter().any(|(k, v)| k == "workload" && v == "bank"), "{meta:?}");
        let out = model.replay(&parsed);
        assert!(
            out.violations.iter().any(|v| expect.matches(v.kind)),
            "{name}: minimized witness does not reproduce; got {:?}",
            out.violations
        );
        killed += 1;
    }
    assert!(killed >= 3, "expected all three mutants killed, got {killed}");
}

#[test]
fn clean_runtime_passes_the_same_hunt_that_kills_the_mutants() {
    // Sanity for the mutant tests: with no mutation, the identical
    // configuration explores clean, so the kills above measure the
    // mutation and not the harness.
    let l = Litmus::new(Workload::Bank, Variant::HvSorting, 1, 2);
    let cfg =
        VerifyConfig { litmus: l, max_preemptions: 2, max_schedules: 5000, stop_on_finding: true };
    assert!(verify(&cfg).is_clean());
}

#[test]
fn the_benchmarked_explorations_are_pinned_schedule_for_schedule() {
    // The seven cells of the `verify_dpor` benchmark (1 block x 2 warps,
    // bound 2, cap 3000) and every counter of their exploration. A
    // schedule added, dropped, or reordered into a different dedup moves
    // at least one of them. Columns: schedules, traces deduped, states
    // deduped, backtracks queued, deferred, sleep-pruned, schedules
    // deduped, footprint-invisible events, diverged, longest trace.
    let cells: [(Workload, Variant, [u64; 10]); 7] = [
        (Workload::Bank, Variant::HvSorting, [802, 15, 786, 801, 939, 1741, 0, 0, 0, 196]),
        (Workload::Stripes, Variant::HvSorting, [733, 26, 706, 732, 1007, 1112, 0, 8796, 0, 54]),
        (Workload::Queue, Variant::HvSorting, [1101, 19, 1081, 1100, 1986, 2224, 0, 0, 0, 209]),
        (Workload::Hashtable, Variant::HvSorting, [121, 10, 110, 120, 125, 168, 0, 0, 0, 22]),
        (Workload::Bank, Variant::Vbv, [236, 9, 226, 235, 177, 352, 0, 0, 0, 177]),
        (Workload::Stripes, Variant::Vbv, [748, 18, 729, 747, 727, 936, 0, 9237, 0, 192]),
        (Workload::Hashtable, Variant::TbvSorting, [121, 10, 110, 120, 125, 168, 0, 0, 0, 22]),
    ];
    let mut totals = [0u64; 10];
    for (workload, variant, want) in cells {
        let cfg = VerifyConfig {
            litmus: Litmus::new(workload, variant, 1, 2),
            max_preemptions: 2,
            max_schedules: 3000,
            stop_on_finding: false,
        };
        let r = verify(&cfg);
        assert!(r.is_clean() && r.unsupported.is_none(), "{workload}/{variant}");
        let ExploreStats {
            schedules_run,
            traces_deduped,
            states_deduped,
            backtracks_queued,
            backtracks_deferred,
            sleep_pruned,
            schedules_deduped,
            footprint_invisible_events,
            diverged,
            max_trace_len,
            cap_hit,
        } = r.stats;
        let got = [
            schedules_run,
            traces_deduped,
            states_deduped,
            backtracks_queued,
            backtracks_deferred,
            sleep_pruned,
            schedules_deduped,
            footprint_invisible_events,
            diverged,
            max_trace_len as u64,
        ];
        assert_eq!(got, want, "{workload}/{variant}");
        assert!(!cap_hit, "{workload}/{variant}");
        for (t, g) in totals.iter_mut().zip(got) {
            *t += g;
        }
    }
    // The benchmark's `tm-verify.*` count rows are these sums.
    let [runs, traces, states, queued, _, pruned, dup_schedules, _, diverged, _] = totals;
    assert_eq!(
        [runs, queued, pruned, traces, states, dup_schedules, diverged],
        [3862, 3855, 6701, 107, 3748, 0, 0]
    );
}
