//! Bounded model checking of the STM variants: DPOR schedule exploration
//! over the tm-verify litmus workloads, with machine-readable exploration
//! stats and `.sched` repro files for any violation found.
//!
//! Exit status is nonzero when any violation is found (or a `--replay`
//! does not reproduce one), so the subcommand doubles as a CI gate.
//! `--json NAME` and the `.sched` witnesses land in the output directory.

use crate::args::{Args, Out};
use crate::{print_table, Error, Job};
use gpu_sim::json::JsonWriter;
use gpu_stm::Mutation;
use tm_verify::{
    finding_to_sched, minimize_finding, parse as parse_sched, replay, verify, ExploreStats, Litmus,
    VerifyConfig, Workload,
};
use workloads::Variant;

struct Opts {
    workloads: Vec<Workload>,
    variants: Vec<Variant>,
    blocks: u32,
    warps: u32,
    bound: u32,
    max_schedules: u64,
    mutant: Option<(&'static str, Mutation)>,
    json: Option<String>,
}

/// Takes `--workload bank|hashtable|stripes|all`, `--variant NAME|all`,
/// `--blocks N`, `--warps N`, `--bound N`, `--max-schedules N`,
/// `--mutant skip_validation|unsorted_locks|late_writeback`,
/// `--json NAME`, `--replay FILE.sched`, `--out DIR`.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let o = Opts {
        workloads: one_or_all(args, "--workload", &Workload::ALL, Workload::parse)?,
        variants: one_or_all(args, "--variant", &Variant::ALL, Variant::parse)?,
        blocks: args.value("--blocks")?.unwrap_or(1),
        warps: args.value("--warps")?.unwrap_or(2),
        bound: args.value("--bound")?.unwrap_or(2),
        max_schedules: args.value("--max-schedules")?.unwrap_or(3000),
        mutant: args.value_with("--mutant", parse_mutant)?,
        json: args.value("--json")?,
    };
    let replay: Option<String> = args.value("--replay")?;
    let out = args.out()?;
    Ok(Box::new(move || match replay {
        Some(path) => replay_file(&path),
        None => explore(&o, &out),
    }))
}

/// Takes `flag NAME|all`; every one of `all` when the flag is absent.
fn one_or_all<T: Copy>(
    args: &mut Args,
    flag: &str,
    all: &[T],
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, Error> {
    let read = |s: &str| if s == "all" { Some(all.to_vec()) } else { parse(s).map(|x| vec![x]) };
    Ok(args.value_with(flag, read)?.unwrap_or_else(|| all.to_vec()))
}

fn parse_mutant(s: &str) -> Option<(&'static str, Mutation)> {
    let none = Mutation::default();
    match s {
        "skip_validation" => Some(("skip_validation", Mutation { skip_validation: true, ..none })),
        "unsorted_locks" => Some(("unsorted_locks", Mutation { unsorted_locks: true, ..none })),
        "late_writeback" => Some(("late_writeback", Mutation { late_writeback: true, ..none })),
        _ => None,
    }
}

fn explore(args: &Opts, out: &Out) -> Result<(), Error> {
    println!("GPU-STM reproduction — bounded DPOR model checking");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut violations = 0u64;

    for &wl in &args.workloads {
        for &variant in &args.variants {
            let mut litmus = Litmus::new(wl, variant, args.blocks, args.warps);
            if let Some((_, m)) = args.mutant {
                if !matches!(
                    variant,
                    Variant::TbvSorting
                        | Variant::HvSorting
                        | Variant::HvBackoff
                        | Variant::TbvBackoff
                ) {
                    continue; // mutations exist only in the lock-based runtime
                }
                litmus.mutation = m;
            }
            let cfg = VerifyConfig {
                litmus,
                max_preemptions: args.bound,
                max_schedules: args.max_schedules,
                stop_on_finding: args.mutant.is_some(),
            };
            eprint!("[verify] {wl}/{variant} bound={}...", args.bound);
            let t = std::time::Instant::now();
            let report = verify(&cfg);
            let dt = t.elapsed();
            eprintln!(" {} schedules in {dt:?}", report.stats.schedules_run);

            let verdict = if let Some(u) = &report.unsupported {
                format!("unsupported: {u}")
            } else if report.is_clean() {
                if report.stats.cap_hit {
                    "clean (capped)".into()
                } else {
                    "clean".into()
                }
            } else {
                violations += report.findings.len() as u64;
                let f = &report.findings[0];
                let min = minimize_finding(&litmus, f);
                let name =
                    format!("{}-{}-{}.sched", wl.name(), variant.short_name(), f.violation.kind);
                let file = out.write(&name, &finding_to_sched(&litmus, f, &min))?;
                format!(
                    "{} ({} choices) -> {}",
                    f.violation.kind,
                    min.choices.len(),
                    file.display()
                )
            };
            rows.push(vec![
                wl.name().to_string(),
                variant.short_name().to_string(),
                report.stats.schedules_run.to_string(),
                report.stats.backtracks_queued.to_string(),
                report.stats.sleep_pruned.to_string(),
                (report.stats.traces_deduped + report.stats.states_deduped).to_string(),
                report.stats.footprint_invisible_events.to_string(),
                verdict.clone(),
            ]);
            cells.push((wl, variant, report.stats.clone(), verdict));
        }
    }

    print_table(
        &format!(
            "schedule exploration (bound {}, {}x{} warps{})",
            args.bound,
            args.blocks,
            args.warps,
            args.mutant.map(|(n, _)| format!(", mutant {n}")).unwrap_or_default()
        ),
        &[
            "workload",
            "variant",
            "schedules",
            "backtracks",
            "pruned",
            "deduped",
            "fp-invis",
            "verdict",
        ],
        &rows,
    );

    if let Some(name) = &args.json {
        println!("wrote {}", out.write(name, &stats_json(args, &cells))?.display());
    }

    if violations > 0 {
        return Err(Error::Failed(format!("{violations} violation(s) found")));
    }
    Ok(())
}

fn stats_json(args: &Opts, cells: &[(Workload, Variant, ExploreStats, String)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("bound", u64::from(args.bound));
    w.field_u64("blocks", u64::from(args.blocks));
    w.field_u64("warps_per_block", u64::from(args.warps));
    w.field_u64("max_schedules", args.max_schedules);
    w.key("cells");
    w.begin_array();
    for (wl, variant, s, verdict) in cells {
        w.begin_object();
        w.field_str("workload", wl.name());
        w.field_str("variant", variant.short_name());
        w.field_str("verdict", verdict);
        w.field_u64("schedules_run", s.schedules_run);
        w.field_u64("traces_deduped", s.traces_deduped);
        w.field_u64("states_deduped", s.states_deduped);
        w.field_u64("backtracks_queued", s.backtracks_queued);
        w.field_u64("backtracks_deferred", s.backtracks_deferred);
        w.field_u64("sleep_pruned", s.sleep_pruned);
        w.field_u64("schedules_deduped", s.schedules_deduped);
        w.field_u64("footprint_invisible_events", s.footprint_invisible_events);
        w.field_u64("max_trace_len", s.max_trace_len as u64);
        w.field_bool("cap_hit", s.cap_hit);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn replay_file(path: &str) -> Result<(), Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (schedule, meta) = parse_sched(&text).map_err(|e| format!("{path}: {e}"))?;
    let litmus = litmus_from_meta(&meta).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replaying {path}: {}/{} {}x{} warps, {} forced choices",
        litmus.workload,
        litmus.variant,
        litmus.blocks,
        litmus.warps_per_block,
        schedule.choices.len()
    );
    let out = replay(&litmus, &schedule);
    if out.violations.is_empty() {
        return Err(Error::Failed("no violation reproduced".into()));
    }
    for v in &out.violations {
        println!("reproduced: {} {}", v.kind, v.message);
    }
    Ok(())
}

fn litmus_from_meta(meta: &[(String, String)]) -> Result<Litmus, String> {
    let get = |k: &str| {
        meta.iter()
            .find(|(mk, _)| mk == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing `meta {k}` (was this .sched written by tm-verify?)"))
    };
    let workload =
        Workload::parse(get("workload")?).ok_or_else(|| "unknown workload".to_string())?;
    let variant = Variant::parse(get("variant")?).ok_or_else(|| "unknown variant".to_string())?;
    let blocks: u32 = get("blocks")?.parse().map_err(|_| "bad blocks".to_string())?;
    let warps: u32 = get("warps_per_block")?.parse().map_err(|_| "bad warps".to_string())?;
    let mut litmus = Litmus::new(workload, variant, blocks, warps);
    if let Ok(m) = get("mutation") {
        for tok in m.split_whitespace() {
            match tok.split_once('=') {
                Some(("skip_validation", v)) => litmus.mutation.skip_validation = v == "true",
                Some(("unsorted_locks", v)) => litmus.mutation.unsorted_locks = v == "true",
                Some(("late_writeback", v)) => litmus.mutation.late_writeback = v == "true",
                _ => return Err(format!("bad mutation token {tok:?}")),
            }
        }
    }
    Ok(litmus)
}
