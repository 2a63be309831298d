//! `txl fix` sweep over the seeded-bug fixture corpus, with golden-file
//! comparison: the applied patches, residual counts, twin matches and
//! dynamic-gate verdicts for every `*_bug.txl` fixture must match
//! `golden/fix.golden` byte for byte, so any drift in the repair engine
//! or the corpus fails CI loudly. Fixtures whose findings are
//! residual-by-design (rules with no mechanical repair, e.g. TL008)
//! must instead come back byte-identical with no committed twin.
//! `--json NAME` additionally writes the machine-readable patch
//! records CI uploads as an artifact.

use super::{fixtures, fixtures_dir};
use crate::args::Args;
use crate::golden::Mode;
use crate::{Error, Job};
use std::fmt::Write as _;
use txl::fix::dynamic_check;
use txl::lint::LintConfig;
use txl::{fix_source, FixConfig};

/// The committed rendering of the sweep.
pub const GOLDEN: &str = "crates/bench/golden/fix.golden";

struct Sweep {
    report: String,
    json: String,
}

fn sweep() -> Result<Sweep, String> {
    let dir = fixtures_dir();
    let files = fixtures("_bug.txl")?;
    let cfg = FixConfig {
        lint: LintConfig { write_set_capacity: Some(32), ..LintConfig::default() },
        ..FixConfig::default()
    };
    let mut out = String::new();
    let mut w = gpu_sim::JsonWriter::new();
    w.begin_object();
    w.field_str("tool", "bench-fix");
    w.key("files");
    w.begin_array();
    let mut patches = 0usize;
    for (name, src) in &files {
        let r = fix_source(src, &cfg).map_err(|e| format!("{name}: {e}"))?;
        if !r.is_clean() {
            // Residual-by-design fixtures: some rules have no mechanical
            // repair (TL008 — the intended wake condition exists only in
            // the author's head). The contract for these is the inverse
            // of the repair contract: no twin is committed, the source
            // must come back byte-identical, and the dynamic gate is
            // skipped (an unwakeable retry spins into the watchdog).
            if r.fixed != *src {
                return Err(format!(
                    "{name}: repair left residuals yet modified the source: {:?}",
                    r.residual
                ));
            }
            if !r.applied.is_empty() {
                return Err(format!(
                    "{name}: applied {} patch(es) but still residual: {:?}",
                    r.applied.len(),
                    r.residual
                ));
            }
            let twin_name = name.replace("_bug.txl", "_fixed.txl");
            if dir.join(&twin_name).exists() {
                return Err(format!(
                    "{name}: has residual-only findings but a committed twin {twin_name}; \
                     either the rule gained a repair or the twin is stale"
                ));
            }
            let mut rules: Vec<&str> = r.residual.iter().map(|d| d.rule.id()).collect();
            rules.sort_unstable();
            rules.dedup();
            let _ =
                writeln!(out, "{name}: residual by design ({}), source untouched", rules.join(","));
            w.begin_object();
            w.field_str("file", name);
            w.key("residual");
            w.begin_array();
            for rule in &rules {
                w.string(rule);
            }
            w.end_array();
            w.end_object();
            continue;
        }
        patches += r.applied.len();
        let _ = writeln!(
            out,
            "{name}: {} patch(es) in {} round(s), {} residual",
            r.applied.len(),
            r.rounds,
            r.residual.len()
        );
        for a in &r.applied {
            let _ = writeln!(out, "{name}:   round {} {}", a.round, a.patch);
        }

        // Byte-exact agreement with the committed post-fix twin.
        let twin_name = name.replace("_bug.txl", "_fixed.txl");
        let twin = std::fs::read_to_string(dir.join(&twin_name))
            .map_err(|e| format!("{name}: missing twin {twin_name}: {e}"))?;
        if r.fixed != twin {
            return Err(format!("{name}: repair does not match {twin_name} byte for byte"));
        }
        let _ = writeln!(out, "{name}: matches {twin_name}");

        // The repaired program must run race- and opacity-clean.
        let gate = dynamic_check(&r.fixed, 7).map_err(|e| format!("{name}: gate: {e}"))?;
        if !gate.is_clean() {
            return Err(format!("{name}: dynamic gate violations: {:?}", gate.violations));
        }
        let _ = writeln!(out, "{name}: dynamic gate clean ({} kernel(s))", gate.kernels);

        w.begin_object();
        w.field_str("file", name);
        w.field_str("twin", &twin_name);
        w.field_u64("rounds", u64::from(r.rounds));
        w.field_bool("gate_clean", gate.is_clean());
        w.key("applied");
        w.begin_array();
        for a in &r.applied {
            w.begin_object();
            w.field_u64("round", u64::from(a.round));
            w.field_str("rule", a.patch.rule.id());
            w.field_str("kernel", &a.patch.kernel);
            w.field_str("title", &a.patch.title);
            w.key("edits");
            w.begin_array();
            for e in &a.patch.edits {
                w.begin_object();
                w.field_u64("start", u64::from(e.start));
                w.field_u64("end", u64::from(e.end));
                w.field_str("replacement", &e.replacement);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    let _ = writeln!(out, "total: {} fixture(s), {patches} patch(es)", files.len());
    w.end_array();
    w.end_object();
    Ok(Sweep { report: out, json: w.finish() })
}

/// The sweep's report: patches, twin matches and gate verdicts per fixture.
pub fn render() -> Result<String, Error> {
    Ok(sweep()?.report)
}

/// Takes `--bless`, `--json NAME` and `--out DIR`; the sweep has one
/// configuration, so it is always pinned.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let mode = Mode::parse(args, true, "")?;
    let json: Option<String> = args.value("--json")?;
    let out = args.out()?;
    Ok(Box::new(move || {
        let sweep = sweep()?;
        print!("{}", sweep.report);
        if let Some(name) = json {
            println!("wrote {}", out.write(&name, &sweep.json)?.display());
        }
        mode.settle(GOLDEN, &sweep.report)
    }))
}
