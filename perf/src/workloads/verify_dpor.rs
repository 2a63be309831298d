//! `verify_dpor`: the model checker over seven litmus instances.
//!
//! Exhaustive at its bound, so it takes no seed: every run explores the
//! same schedules.

use super::{Rep, Workload};
use crate::trace::{total_ns, Span, Tracer};
use std::sync::Arc;
use tm_verify::{verify, ExploreStats, Litmus, VerifyConfig, Workload as Lit};
use workloads::Variant;

/// Preemption bound 2 on 1 block × 2 warps, at most 3000 schedules a cell.
const CELLS: [(Lit, Variant); 7] = [
    (Lit::Bank, Variant::HvSorting),
    (Lit::Stripes, Variant::HvSorting),
    (Lit::Queue, Variant::HvSorting),
    (Lit::Hashtable, Variant::HvSorting),
    (Lit::Bank, Variant::Vbv),
    (Lit::Stripes, Variant::Vbv),
    (Lit::Hashtable, Variant::TbvSorting),
];
const MAX_PREEMPTIONS: u32 = 2;
const MAX_SCHEDULES: u64 = 3000;

pub struct VerifyDpor;

pub fn setup(_seed: u64) -> Box<dyn Workload> {
    let mut w = VerifyDpor;
    w.rep(&Arc::new(Tracer::new(false)));
    Box::new(w)
}

impl Workload for VerifyDpor {
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep {
        let mut rep = Rep::new();
        let mut sum = ExploreStats::default();
        for (workload, variant) in CELLS {
            let cfg = VerifyConfig {
                litmus: Litmus::new(workload, variant, 1, 2),
                max_preemptions: MAX_PREEMPTIONS,
                max_schedules: MAX_SCHEDULES,
                stop_on_finding: false,
            };
            let report = t.span("tm-verify.verify", || verify(&cfg));
            let s = &report.stats;
            let ok = report.is_clean() && report.unsupported.is_none() && s.diverged == 0;
            rep.check(s.schedules_run.max(1), ok, || {
                format!(
                    "verify {workload} {variant}: {} findings, {} diverged, unsupported: {:?}",
                    report.findings.len(),
                    s.diverged,
                    report.unsupported
                )
            });
            rep.ops += s.schedules_run;
            sum.schedules_run += s.schedules_run;
            sum.backtracks_queued += s.backtracks_queued;
            sum.sleep_pruned += s.sleep_pruned;
            sum.traces_deduped += s.traces_deduped;
            sum.states_deduped += s.states_deduped;
            sum.schedules_deduped += s.schedules_deduped;
            sum.diverged += s.diverged;
            sum.max_trace_len = sum.max_trace_len.max(s.max_trace_len);
        }
        // A schedule was useful if it reached a terminal state not seen before.
        let useful = sum.schedules_run - sum.traces_deduped - sum.states_deduped;
        rep.facts.extend([
            ("tm-verify.schedules", sum.schedules_run as f64),
            ("tm-verify.backtracks_queued", sum.backtracks_queued as f64),
            ("tm-verify.sleep_pruned", sum.sleep_pruned as f64),
            ("tm-verify.traces_deduped", sum.traces_deduped as f64),
            ("tm-verify.states_deduped", sum.states_deduped as f64),
            ("tm-verify.schedules_deduped", sum.schedules_deduped as f64),
            ("tm-verify.useful_share", useful as f64 / sum.schedules_run.max(1) as f64),
            ("tm-verify.max_trace_len", sum.max_trace_len as f64),
            ("tm-verify.diverged", sum.diverged as f64),
        ]);
        rep
    }

    fn layers(&mut self, _t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep) {
        let schedules: u64 = reps.iter().map(|r| r.ops).sum();
        let ns = total_ns(spans, "tm-verify.verify");
        out.facts.push(("tm-verify.us_per_schedule", ns as f64 / 1e3 / schedules.max(1) as f64));
    }
}
