//! `perf diff A.json B.json`: what changed between two result documents.

use crate::json::Json;
use crate::metrics::{self, Better, Kind, Metric, END_TO_END, PER_LAYER};

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Bounded metric, B no worse than A by more than the bound.
    Ok,
    /// Bounded metric, B worse than A by more than the bound.
    Worse,
    /// Bounded metric not worse, but A's own repetitions spread wider
    /// than the bound: the comparison cannot tell unchanged from changed.
    Unresolved,
    /// Exact metric, bit-equal.
    Same,
    /// Exact metric, any difference.
    Changed,
    /// Host-time figure of one layer: shown, not judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::Info => "",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The rule `diff` applies to one metric. `spread_a` is the distance
/// between A's quartiles as a share of its median (0 where A has none).
pub fn verdict(m: &Metric, a: f64, b: f64, spread_a: f64) -> Verdict {
    match m.kind {
        Kind::Exact if a.to_bits() == b.to_bits() => Verdict::Same,
        Kind::Exact => Verdict::Changed,
        Kind::Info => Verdict::Info,
        Kind::Bounded { same_seed, .. } if worse_by(m.better, a, b) > same_seed => Verdict::Worse,
        Kind::Bounded { same_seed, .. } if spread_a > same_seed => Verdict::Unresolved,
        Kind::Bounded { .. } => Verdict::Ok,
    }
}

/// How two runs of the same code compare on one metric: what `check` asks.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Agreement {
    Agree,
    /// The runs cannot tell: either one's own samples spread wider than the
    /// bound, or the machine ran at another speed for one of them.
    Unresolved,
    Disagree,
}

/// `machine_moved`: the calibration loop read more than 5 % apart in the
/// two runs of the row's workload. Exact metrics do not care.
pub fn agreement(r: &Row, machine_moved: bool) -> Agreement {
    match r.metric.kind {
        Kind::Info => Agreement::Agree,
        Kind::Exact if r.a.to_bits() == r.b.to_bits() => Agreement::Agree,
        Kind::Exact => Agreement::Disagree,
        Kind::Bounded { same_seed, .. } => {
            let apart =
                worse_by(r.metric.better, r.a, r.b).max(worse_by(r.metric.better, r.b, r.a));
            if machine_moved || r.spread_a > same_seed || r.spread_b > same_seed {
                Agreement::Unresolved
            } else if apart > same_seed {
                Agreement::Disagree
            } else {
                Agreement::Agree
            }
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub a: f64,
    pub b: f64,
    /// Quartile spread of the samples behind `a` and behind `b`, as a share
    /// of their median; 0 for metrics that are not medians of samples.
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

fn value(workload: &Json, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.num()
}

fn spread(workload: &Json, name: &str) -> f64 {
    workload.get("spread").and_then(|s| s.get(name)).and_then(Json::num).unwrap_or(0.0)
}

/// One row per (workload, metric) present in both documents, end-to-end
/// metrics first. A document holds only the per-layer figures its workload
/// produces, so a 0 on either side is a measured 0.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in a.get("workloads").map_or(&[][..], Json::arr) {
        let name = wa.get("name").and_then(Json::str).unwrap_or("");
        let Some(wb) = b
            .get("workloads")
            .map_or(&[][..], Json::arr)
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
        else {
            continue;
        };
        // Per-repetition peaks and the process-wide mark are two different
        // quantities under one name.
        let (source_a, source_b) = (wa.get("peak_rss_source"), wb.get("peak_rss_source"));
        if source_a != source_b {
            return Err(format!(
                "{name}: peak_rss_mb is {source_a:?} in A and {source_b:?} in B: not comparable"
            ));
        }
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            for m in table {
                let (Some(va), Some(vb)) = (value(wa, section, m.name), value(wb, section, m.name))
                else {
                    continue;
                };
                let (spread_a, spread_b) = (spread(wa, m.name), spread(wb, m.name));
                let verdict = verdict(m, va, vb, spread_a);
                let workload = name.into();
                rows.push(Row { workload, metric: m, a: va, b: vb, spread_a, spread_b, verdict });
            }
        }
    }
    Ok(rows)
}

/// Every ratio is printed with its base: the delta is a share *of A*.
fn delta(a: f64, b: f64) -> String {
    if a == b {
        "=".into()
    } else if a == 0.0 {
        format!("{:+.6} from 0", b)
    } else {
        format!("{:+.2}% of {:.6}", (b - a) / a * 100.0, a)
    }
}

pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let line = |out: &mut String, r: &Row| {
        let bound = match r.metric.kind {
            Kind::Bounded { same_seed, .. } => format!("{:.0}%", same_seed * 100.0),
            Kind::Exact => "exact".into(),
            Kind::Info => "-".into(),
        };
        writeln!(
            out,
            "{:<16} {:<34} {:>16.6} {:>16.6} {:<6} {:<30} {:>6} {}",
            r.workload,
            r.metric.name,
            r.a,
            r.b,
            r.metric.unit,
            delta(r.a, r.b),
            bound,
            r.verdict.label()
        )
        .expect("write to String");
    };
    writeln!(
        out,
        "{:<16} {:<34} {:>16} {:>16} {:<6} {:<30} {:>6} verdict",
        "workload", "metric", "A", "B", "unit", "delta (share of A)", "bound"
    )
    .expect("write to String");
    let end_to_end = |r: &&Row| END_TO_END.iter().any(|m| m.name == r.metric.name);
    writeln!(out, "== end to end ==").expect("write to String");
    rows.iter().filter(end_to_end).for_each(|r| line(&mut out, r));
    let mut layers: Vec<&str> = Vec::new();
    for r in rows.iter().filter(|r| !end_to_end(r)) {
        let layer = metrics::layer(r.metric.name);
        if !layers.contains(&layer) {
            layers.push(layer);
        }
    }
    for layer in layers {
        writeln!(out, "== {layer} ==").expect("write to String");
        rows.iter()
            .filter(|r| !end_to_end(r) && metrics::layer(r.metric.name) == layer)
            .for_each(|r| line(&mut out, r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> &'static Metric {
        END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).unwrap()
    }

    #[test]
    fn the_verdict_rule() {
        let ops = find("ops_per_s"); // higher is better, 10 %
        assert_eq!(verdict(ops, 100.0, 95.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(ops, 100.0, 130.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(ops, 100.0, 89.0, 0.02), Verdict::Worse);
        // A's quartiles wider than the bound: "not worse" is not "unchanged".
        assert_eq!(verdict(ops, 100.0, 95.0, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(ops, 100.0, 80.0, 0.12), Verdict::Worse);

        let p75 = find("rep_ms_p75"); // lower is better, 15 %
        assert_eq!(verdict(p75, 100.0, 114.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(p75, 100.0, 116.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(p75, 100.0, 50.0, 0.0), Verdict::Ok);

        let cycles = find("virt_cycles_per_op");
        assert_eq!(verdict(cycles, 1.5, 1.5, 9.0), Verdict::Same);
        assert_eq!(verdict(cycles, 1.5, 1.5000000000000002, 0.0), Verdict::Changed);

        let ns = find("gpu-sim.ns_per_instr");
        assert_eq!(verdict(ns, 1.0, 99.0, 0.0), Verdict::Info);
    }

    #[test]
    fn the_agreement_rule() {
        let row = |name, a, b, spread_a, spread_b| {
            let (workload, metric, verdict) = (String::new(), find(name), Verdict::Ok);
            Row { workload, metric, a, b, spread_a, spread_b, verdict }
        };
        // ops_per_s, 10 %: either direction counts.
        assert_eq!(agreement(&row("ops_per_s", 100.0, 95.0, 0.02, 0.02), false), Agreement::Agree);
        let apart = row("ops_per_s", 100.0, 115.0, 0.02, 0.02);
        assert_eq!(agreement(&apart, false), Agreement::Disagree);
        assert_eq!(agreement(&apart, true), Agreement::Unresolved);
        let wide = row("ops_per_s", 100.0, 115.0, 0.02, 0.12);
        assert_eq!(agreement(&wide, false), Agreement::Unresolved);
        // A steady-looking pair on a machine that moved is still no evidence.
        assert_eq!(
            agreement(&row("ops_per_s", 100.0, 99.0, 0.0, 0.0), true),
            Agreement::Unresolved
        );
        // Exact metrics: noise is no excuse.
        let cycles = row("virt_cycles_per_op", 1.5, 1.5000000000000002, 0.0, 0.0);
        assert_eq!(agreement(&cycles, true), Agreement::Disagree);
        assert_eq!(
            agreement(&row("tm-check.violations", 0.0, 0.0, 0.0, 0.0), true),
            Agreement::Agree
        );
        assert_eq!(
            agreement(&row("gpu-sim.ns_per_instr", 1.0, 9.0, 0.0, 0.0), false),
            Agreement::Agree
        );
    }

    fn doc(ops: f64, cycles: f64, spread: f64, source: &str) -> Json {
        let metric = |v| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::Str("sim_prims".into())),
                ("peak_rss_source", Json::Str(source.into())),
                ("spread", Json::obj([("ops_per_s", Json::Num(spread))])),
                ("end_to_end", Json::obj([("ops_per_s", metric(ops))])),
                (
                    "per_layer",
                    Json::obj([
                        ("virt_cycles_per_op", metric(cycles)),
                        ("gpu-stm.op_share", metric(0.0)),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_pairs_workloads_and_keeps_measured_zeros() {
        let rows =
            compare(&doc(100.0, 2.0, 0.01, "repetition"), &doc(80.0, 2.5, 0.01, "repetition"))
                .unwrap();
        let got: Vec<_> = rows.iter().map(|r| (r.metric.name, r.verdict)).collect();
        assert_eq!(
            got,
            [
                ("ops_per_s", Verdict::Worse),
                ("virt_cycles_per_op", Verdict::Changed),
                ("gpu-stm.op_share", Verdict::Info)
            ]
        );
        let text = render(&rows);
        assert!(text.contains("-20.00% of 100.000000"), "{text}");
        assert!(text.contains("== simulated clock =="), "{text}");

        let rows =
            compare(&doc(100.0, 2.0, 0.3, "repetition"), &doc(99.0, 2.0, 0.01, "repetition"))
                .unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!((rows[0].spread_a, rows[0].spread_b), (0.3, 0.01));
        assert_eq!(rows[1].verdict, Verdict::Same);
    }

    #[test]
    fn compare_refuses_two_kinds_of_peak_rss() {
        let err = compare(&doc(1.0, 1.0, 0.0, "repetition"), &doc(1.0, 1.0, 0.0, "process"));
        assert!(err.is_err_and(|e| e.contains("peak_rss_mb")));
    }
}
