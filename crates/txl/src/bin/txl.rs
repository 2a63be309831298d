//! `txl` — the TXL tool driver.
//!
//! Usage:
//! ```text
//! txl lint [--capacity N] [--format text|json] <file.txl ...|->
//! txl fix  [--capacity N] [--format text|json] [--diff|--write|--check]
//!          [--max-rounds N] [--no-gate] <file.txl ...|->
//! txl compile <file.txl ...|->               # parse + check only
//! txl analyze [--threads N] [--capacity N] [--format text|json] <file.txl ...|->
//! ```
//!
//! `lint` prints one finding per line (`TLnnn [kernel:line span] message`)
//! followed by the offending source snippet. `--capacity N` supplies the
//! ownership-table size for rule TL003. `--format json` emits one JSON
//! object with a `diagnostics` array (each carrying its `suggested_fix`
//! when the repair engine knows one) instead of the human-readable
//! report.
//!
//! `fix` runs the fix-verify loop ([`txl::fix_source`]) over each file:
//! `--diff` (the default) prints a unified diff of the repair, `--write`
//! rewrites the file in place, and `--check` prints nothing and only
//! sets the exit status — fit for CI. When the repaired program lints
//! clean, the dynamic gate ([`txl::fix::dynamic_check`]) re-runs it on
//! the simulator with the race detector attached; `--no-gate` skips
//! that. `--format json` emits machine-readable patch records.
//!
//! `analyze` runs the static contention & cost analysis
//! ([`txl::analyze_program`]) and prints each file's per-transaction
//! profile, conflict graph, STM-variant ranking and stripe
//! recommendation. `--threads N` sets the modeled thread count (default
//! 256); `--capacity N` caps modeled write-set bounds. The analysis also
//! turns on lint rules TL006/TL007, which judge that same profile, and
//! reports their findings. Each file is compiled and analyzed once. `analyze`
//! exits 0 even when contention findings exist — they are advice, not
//! defects; only errors exit nonzero.
//!
//! Exit status, for both `lint` and `fix`:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean (lint: no findings; fix: nothing to repair) |
//! | 1    | findings (lint), or pending/residual repairs or gate violations (fix) |
//! | 2    | usage, I/O, or parse/check errors |

use std::io::Read;
use std::process::ExitCode;
use txl::fix::{dynamic_check, fix_source, FixConfig, FixReport};
use txl::lint::{lint_source_with_fixes, Diagnostic, LintConfig};

/// Exit code for parse/IO/usage errors, distinct from findings (1).
const EXIT_ERROR: u8 = 2;
/// Exit code for findings / pending repairs.
const EXIT_FINDINGS: u8 = 1;

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: txl lint [--capacity N] [--format text|json] <file.txl ...|->");
    eprintln!("       txl fix  [--capacity N] [--format text|json] [--diff|--write|--check]");
    eprintln!("                [--max-rounds N] [--no-gate] <file.txl ...|->");
    eprintln!("       txl compile <file.txl ...|->");
    eprintln!(
        "       txl analyze [--threads N] [--capacity N] [--format text|json] <file.txl ...|->"
    );
    ExitCode::from(EXIT_ERROR)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FixMode {
    Diff,
    Write,
    Check,
}

fn write_patch_json(w: &mut gpu_sim::JsonWriter, p: &txl::Patch) {
    w.begin_object();
    w.field_str("rule", p.rule.id());
    w.field_str("kernel", &p.kernel);
    w.field_str("title", &p.title);
    w.key("edits");
    w.begin_array();
    for e in &p.edits {
        w.begin_object();
        w.field_u64("start", u64::from(e.start));
        w.field_u64("end", u64::from(e.end));
        w.field_str("replacement", &e.replacement);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

fn write_diag_json(w: &mut gpu_sim::JsonWriter, path: &str, d: &Diagnostic) {
    w.begin_object();
    w.field_str("file", path);
    w.field_str("rule", d.rule.id());
    w.field_str("title", d.rule.title());
    w.field_str("kernel", &d.kernel);
    w.field_u64("line", u64::from(d.line));
    w.field_u64("span_start", u64::from(d.span.start));
    w.field_u64("span_end", u64::from(d.span.end));
    w.field_str("message", &d.message);
    w.field_str("paper_ref", d.rule.paper_ref());
    if let Some(p) = &d.suggested_fix {
        w.key("suggested_fix");
        write_patch_json(w, p);
    }
    w.end_object();
}

/// Serializes every finding (tagged with the file it came from) as one
/// JSON object; field order is stable so the output is diffable.
fn render_lint_json(diags: &[(String, Diagnostic)]) -> String {
    let mut w = gpu_sim::JsonWriter::new();
    w.begin_object();
    w.field_str("tool", "txl-lint");
    w.field_u64("findings", diags.len() as u64);
    w.key("diagnostics");
    w.begin_array();
    for (path, d) in diags {
        write_diag_json(&mut w, path, d);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One machine-readable patch record per file: what was applied, what
/// remains, and the dynamic gate's verdict.
fn render_fix_json(results: &[(String, FixReport, Option<txl::DynamicReport>)]) -> String {
    let mut w = gpu_sim::JsonWriter::new();
    w.begin_object();
    w.field_str("tool", "txl-fix");
    w.key("files");
    w.begin_array();
    for (path, r, gate) in results {
        w.begin_object();
        w.field_str("file", path);
        w.field_bool("changed", r.changed());
        w.field_bool("clean", r.is_clean());
        w.field_bool("converged", r.converged);
        w.field_u64("rounds", u64::from(r.rounds));
        w.key("applied");
        w.begin_array();
        for a in &r.applied {
            w.begin_object();
            w.field_u64("round", u64::from(a.round));
            w.field_str("rule", a.diagnostic.rule.id());
            w.field_u64("line", u64::from(a.diagnostic.line));
            w.key("patch");
            write_patch_json(&mut w, &a.patch);
            w.end_object();
        }
        w.end_array();
        w.key("residual");
        w.begin_array();
        for d in &r.residual {
            write_diag_json(&mut w, path, d);
        }
        w.end_array();
        if let Some(g) = gate {
            w.key("dynamic_gate");
            w.begin_object();
            w.field_u64("kernels", g.kernels as u64);
            w.field_bool("clean", g.is_clean());
            w.key("violations");
            w.begin_array();
            for v in &g.violations {
                w.string(v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else { return usage() };

    let mut cfg = LintConfig::default();
    let mut format = Format::Text;
    let mut fix_mode = FixMode::Diff;
    let mut max_rounds = FixConfig::default().max_rounds;
    let mut gate = true;
    let mut threads = txl::CostConfig::default().threads;
    let mut files: Vec<&str> = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if a == "--threads" {
            let Some(n) = rest.next().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                eprintln!("txl: --threads needs a positive integer argument");
                return ExitCode::from(EXIT_ERROR);
            };
            threads = n;
        } else if a == "--capacity" {
            let Some(n) = rest.next().and_then(|v| v.parse::<u32>().ok()) else {
                eprintln!("txl: --capacity needs an integer argument");
                return ExitCode::from(EXIT_ERROR);
            };
            cfg.write_set_capacity = Some(n);
        } else if a == "--max-rounds" {
            let Some(n) = rest.next().and_then(|v| v.parse::<u32>().ok()) else {
                eprintln!("txl: --max-rounds needs an integer argument");
                return ExitCode::from(EXIT_ERROR);
            };
            max_rounds = n;
        } else if a == "--format" {
            match rest.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => {
                    eprintln!("txl: --format needs `text` or `json`");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
        } else if a == "--diff" {
            fix_mode = FixMode::Diff;
        } else if a == "--write" {
            fix_mode = FixMode::Write;
        } else if a == "--check" {
            fix_mode = FixMode::Check;
        } else if a == "--no-gate" {
            gate = false;
        } else if a.starts_with("--") {
            eprintln!("txl: unknown option {a}");
            return ExitCode::from(EXIT_ERROR);
        } else {
            files.push(a);
        }
    }
    if files.is_empty() {
        return usage();
    }

    match mode {
        "compile" => run_compile(&files),
        "lint" => run_lint(&files, &cfg, format),
        "fix" => run_fix(&files, &cfg, format, fix_mode, max_rounds, gate),
        "analyze" => run_analyze(&files, &cfg, threads, format),
        _ => usage(),
    }
}

fn run_analyze(files: &[&str], cfg: &LintConfig, threads: u32, format: Format) -> ExitCode {
    let cost_cfg = txl::CostConfig { threads, write_set_capacity: cfg.write_set_capacity };
    // The analysis doubles as the trigger for the contention lint rules.
    let lint_cfg = LintConfig {
        hot_degree: Some(0.5),
        flag_read_only: true,
        write_set_capacity: cfg.write_set_capacity,
    };
    let mut json = gpu_sim::JsonWriter::new();
    json.begin_object();
    json.field_str("tool", "txl-analyze");
    json.field_u64("threads", u64::from(threads));
    json.key("files");
    json.begin_array();
    for path in files {
        let source = match read_source(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("txl: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        let program = match txl::compile(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        let profile = txl::analyze_program(&program, &cost_cfg);
        let diags = txl::lint_program(&program, &lint_cfg, Some(&profile));
        let contention: Vec<&Diagnostic> =
            diags.iter().filter(|d| matches!(d.rule.id(), "TL006" | "TL007")).collect();
        match format {
            Format::Text => {
                println!("{path}:");
                for line in txl::cost::render_text(&profile).lines() {
                    println!("  {line}");
                }
                for d in &contention {
                    println!("  {d}");
                }
            }
            Format::Json => {
                json.begin_object();
                json.field_str("file", path);
                json.key("profile");
                json.begin_object();
                txl::cost::write_profile_json(&mut json, &profile);
                json.end_object();
                json.key("findings");
                json.begin_array();
                for d in &contention {
                    write_diag_json(&mut json, path, d);
                }
                json.end_array();
                json.end_object();
            }
        }
    }
    json.end_array();
    json.end_object();
    if format == Format::Json {
        println!("{}", json.finish());
    }
    ExitCode::SUCCESS
}

fn run_compile(files: &[&str]) -> ExitCode {
    for path in files {
        let source = match read_source(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("txl: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        match txl::compile(&source) {
            Ok(p) => println!("{path}: ok ({} kernel(s))", p.kernels.len()),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_lint(files: &[&str], cfg: &LintConfig, format: Format) -> ExitCode {
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    for path in files {
        let source = match read_source(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("txl: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        match lint_source_with_fixes(&source, cfg) {
            Ok(diags) => {
                for d in diags {
                    if format == Format::Text {
                        println!("{path}: {d}");
                        let snippet = d.span.snippet(&source);
                        if !snippet.is_empty() {
                            // Show only the first line of multi-line spans.
                            let first = snippet.lines().next().unwrap_or(snippet);
                            println!("    | {first}");
                        }
                        println!("    = note: {} — {}", d.rule.title(), d.rule.paper_ref());
                        if let Some(p) = &d.suggested_fix {
                            println!("    = fix: {}", p.title);
                        }
                    }
                    findings.push((path.to_string(), d));
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        }
    }
    match format {
        Format::Json => println!("{}", render_lint_json(&findings)),
        Format::Text if findings.is_empty() => println!("txl lint: clean"),
        Format::Text => println!("txl lint: {} finding(s)", findings.len()),
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

fn run_fix(
    files: &[&str],
    cfg: &LintConfig,
    format: Format,
    mode: FixMode,
    max_rounds: u32,
    gate: bool,
) -> ExitCode {
    let fix_cfg = FixConfig { lint: cfg.clone(), max_rounds };
    let mut results: Vec<(String, FixReport, Option<txl::DynamicReport>)> = Vec::new();
    let mut dirty = false;
    for path in files {
        let source = match read_source(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("txl: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        let report = match fix_source(&source, &fix_cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        // The dynamic half of the gate only makes sense on a program the
        // static loop believes is repaired; a still-buggy program may
        // legitimately deadlock the simulator.
        let dyn_report = if gate && report.is_clean() {
            match dynamic_check(&report.fixed, 7) {
                Ok(g) => Some(g),
                Err(e) => {
                    eprintln!("{path}: dynamic gate: {e}");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
        } else {
            None
        };

        let gate_dirty = dyn_report.as_ref().is_some_and(|g| !g.is_clean());
        let needs_work = match mode {
            FixMode::Check => report.changed() || !report.is_clean() || gate_dirty,
            _ => !report.is_clean() || gate_dirty,
        };
        dirty |= needs_work;

        match mode {
            FixMode::Write if report.changed() => {
                if *path == "-" {
                    eprintln!("txl: cannot --write to stdin");
                    return ExitCode::from(EXIT_ERROR);
                }
                if let Err(e) = std::fs::write(path, &report.fixed) {
                    eprintln!("txl: cannot write {path}: {e}");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
            _ => {}
        }
        if format == Format::Text {
            match mode {
                FixMode::Diff => {
                    let d = report.diff(path);
                    if !d.is_empty() {
                        print!("{d}");
                    }
                }
                FixMode::Write if report.changed() => {
                    println!(
                        "{path}: applied {} patch(es) in {} round(s)",
                        report.applied.len(),
                        report.rounds
                    );
                }
                _ => {}
            }
            for d in &report.residual {
                println!("{path}: residual {d}");
            }
            if let Some(g) = &dyn_report {
                for v in &g.violations {
                    println!("{path}: dynamic {v}");
                }
            }
        }
        results.push((path.to_string(), report, dyn_report));
    }
    if format == Format::Json {
        println!("{}", render_fix_json(&results));
    } else {
        let applied: usize = results.iter().map(|(_, r, _)| r.applied.len()).sum();
        let residual: usize = results.iter().map(|(_, r, _)| r.residual.len()).sum();
        println!(
            "txl fix: {applied} patch(es), {residual} residual finding(s) across {} file(s)",
            results.len()
        );
    }
    if dirty {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    }
}
