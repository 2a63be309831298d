//! `txl_passes`: the static passes over the fixture corpus.
//!
//! Static analysis takes no seed. The corpus is the 17 lint fixtures plus
//! the two TXL programs the other layers embed, read at set-up.

use super::{Rep, Workload};
use crate::trace::{total_ns, Span, Tracer};
use std::sync::Arc;
use txl::{CostConfig, FixConfig, LintConfig};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/txl/tests/fixtures");
/// Sweeps of the whole corpus per repetition.
const SWEEPS: u32 = 16;
/// Recorded when the benchmark was blessed: findings `lint` reports and
/// patches `fix` applies in one sweep. A lint or fix change that moves
/// them must re-bless on purpose.
const DIAGNOSTICS_PER_SWEEP: u64 = 6;
const PATCHES_PER_SWEEP: u64 = 5;

struct Program {
    name: String,
    src: String,
    /// A seeded-bug fixture with a `_fixed` sibling: `fix_source` runs on it.
    fixable: bool,
}

pub struct TxlPasses {
    corpus: Vec<Program>,
    load_error: Option<String>,
}

fn load() -> Result<Vec<Program>, String> {
    let mut names: Vec<String> = std::fs::read_dir(FIXTURES)
        .map_err(|e| format!("{FIXTURES}: {e}"))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".txl"))
        .collect();
    names.sort();
    let mut corpus = Vec::new();
    for name in &names {
        let src = std::fs::read_to_string(format!("{FIXTURES}/{name}"))
            .map_err(|e| format!("{FIXTURES}/{name}: {e}"))?;
        let fixable = name
            .strip_suffix("_bug.txl")
            .is_some_and(|stem| names.contains(&format!("{stem}_fixed.txl")));
        corpus.push(Program { name: name.clone(), src, fixable });
    }
    for (name, src) in [("STRIPES_SRC", tm_verify::STRIPES_SRC), ("TXL_BUMP", tm_serve::TXL_BUMP)] {
        corpus.push(Program { name: name.into(), src: src.into(), fixable: false });
    }
    Ok(corpus)
}

pub fn setup(_seed: u64) -> Box<dyn Workload> {
    let (corpus, load_error) = match load() {
        Ok(corpus) => (corpus, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let mut w = TxlPasses { corpus, load_error };
    w.rep(&Arc::new(Tracer::new(false)));
    Box::new(w)
}

impl Workload for TxlPasses {
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep {
        let mut rep = Rep::new();
        if let Some(e) = &self.load_error {
            rep.check(1, false, || e.clone());
            return rep;
        }
        let (lint_cfg, fix_cfg) = (LintConfig::default(), FixConfig::default());
        let cost_cfg = CostConfig { threads: 256, ..CostConfig::default() };
        let (mut diagnostics, mut patches) = (0u64, 0u64);
        for _ in 0..SWEEPS {
            for p in &self.corpus {
                let pass = |rep: &mut Rep, what: &str, err: Option<String>| {
                    rep.check(1, err.is_none(), || {
                        format!("txl {what} {}: {}", p.name, err.unwrap())
                    });
                    rep.ops += 1;
                };
                let compiled = t.span("txl.compile", || txl::compile(&p.src));
                pass(&mut rep, "compile", compiled.err().map(|e| e.to_string()));
                let linted = t.span("txl.lint", || txl::lint_source_with_fixes(&p.src, &lint_cfg));
                diagnostics += linted.as_ref().map_or(0, |d| d.len() as u64);
                pass(&mut rep, "lint", linted.err().map(|e| e.to_string()));
                let analyzed = t.span("txl.analyze", || txl::analyze_source(&p.src, &cost_cfg));
                pass(&mut rep, "analyze", analyzed.err().map(|e| e.to_string()));
                if p.fixable {
                    let fixed = t.span("txl.fix", || txl::fix_source(&p.src, &fix_cfg));
                    patches += fixed.as_ref().map_or(0, |f| f.applied.len() as u64);
                    let err = match fixed {
                        Ok(f) if !f.is_clean() => Some("residual findings after fix".to_string()),
                        Ok(_) => None,
                        Err(e) => Some(e.to_string()),
                    };
                    pass(&mut rep, "fix", err);
                }
            }
        }
        let sweeps = u64::from(SWEEPS);
        rep.check(1, diagnostics == DIAGNOSTICS_PER_SWEEP * sweeps, || {
            format!(
                "txl: {} diagnostics per sweep, blessed {DIAGNOSTICS_PER_SWEEP}",
                diagnostics / sweeps
            )
        });
        rep.check(1, patches == PATCHES_PER_SWEEP * sweeps, || {
            format!("txl: {} patches per sweep, blessed {PATCHES_PER_SWEEP}", patches / sweeps)
        });
        rep.facts.push(("txl.diagnostics", (diagnostics / sweeps) as f64));
        rep.facts.push(("txl.patches", (patches / sweeps) as f64));
        rep
    }

    fn layers(&mut self, _t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep) {
        let sweeps = f64::from(SWEEPS) * reps.len() as f64;
        let kb = self.corpus.iter().map(|p| p.src.len()).sum::<usize>() as f64 / 1024.0;
        let programs = self.corpus.len() as f64;
        let fixable = self.corpus.iter().filter(|p| p.fixable).count() as f64;
        let us = |name| total_ns(spans, name) as f64 / 1e3 / sweeps;
        out.facts.extend([
            ("txl.compile_us_per_kb", us("txl.compile") / kb),
            ("txl.lint_us_per_kb", us("txl.lint") / kb),
            ("txl.analyze_us_per_program", us("txl.analyze") / programs),
            ("txl.fix_us_per_program", us("txl.fix") / fixable.max(1.0)),
        ]);
    }
}
