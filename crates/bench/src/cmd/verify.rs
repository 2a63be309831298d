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
    claimed_violation, mutant, parse as parse_sched, ExploreStats, Litmus, Model, Workload,
};
use workloads::Variant;

struct Opts {
    workloads: Vec<Workload>,
    variants: Vec<Variant>,
    blocks: u32,
    warps: u32,
    bound: u32,
    max_schedules: u64,
    mutant: Option<(String, Mutation)>,
    json: Option<String>,
}

/// Takes `--workload bank|hashtable|stripes|queue|all`, `--variant NAME|all`,
/// `--blocks N`, `--warps N` (1–32: a block holds at most 1 024 threads;
/// at most [`tm_verify::MAX_ACTORS`] warps in all), `--bound N`,
/// `--max-schedules N`,
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
        mutant: args.value_with("--mutant", |s| mutant(s).map(|m| (s.to_string(), m)))?,
        json: args.value("--json")?,
    };
    Litmus::check_geometry(o.blocks, o.warps).map_err(|(key, why)| {
        Error::Usage(format!("{}: {why}", if key == "blocks" { "--blocks" } else { "--warps" }))
    })?;
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

fn explore(args: &Opts, out: &Out) -> Result<(), Error> {
    println!("GPU-STM reproduction — bounded DPOR model checking");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut violations = 0u64;

    for &wl in &args.workloads {
        for &variant in &args.variants {
            let mut litmus = Litmus::new(wl, variant, args.blocks, args.warps);
            if let Some((_, m)) = args.mutant {
                litmus.mutation = m;
            }
            let mut model = Model::new(litmus);
            let t = std::time::Instant::now();
            let report = model.explore(args.bound, args.max_schedules, args.mutant.is_some());
            let dt = t.elapsed();
            if args.mutant.is_some() && report.unsupported.is_some() {
                continue; // mutations exist only in the lock-based runtime
            }
            eprintln!(
                "[verify] {wl}/{variant} bound={}... {} schedules in {dt:?}",
                args.bound, report.stats.schedules_run
            );

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
                let min = model.minimize(f);
                let name =
                    format!("{}-{}-{}.sched", wl.name(), variant.short_name(), f.violation.kind);
                let file = out.write(&name, &model.to_sched(f, &min))?;
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
            args.mutant.as_ref().map(|(n, _)| format!(", mutant {n}")).unwrap_or_default()
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
    let litmus = Litmus::from_meta(&meta).map_err(|e| format!("{path}: {e}"))?;
    let claimed = claimed_violation(&meta).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replaying {path}: {}/{} {}x{} warps, {} forced choices",
        litmus.workload,
        litmus.variant,
        litmus.blocks,
        litmus.warps_per_block,
        schedule.choices.len()
    );
    let out = Model::new(litmus).replay(&schedule);
    if !out.reproduces(claimed) {
        return Err(Error::Failed("no violation reproduced".into()));
    }
    for v in &out.violations {
        println!("reproduced: {} {}", v.kind, v.message);
    }
    Ok(())
}
