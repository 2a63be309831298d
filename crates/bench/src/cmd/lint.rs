//! tm-lint sweep over the checked-in TXL fixture corpus, with golden-file
//! comparison: the full diagnostic output (rule IDs, positions, messages)
//! for every fixture must match `golden/lint.golden` byte for byte, so any
//! drift in the lint rules, spans, or fixture corpus fails CI loudly.

use super::fixtures;
use crate::args::Args;
use crate::golden::Mode;
use crate::{Error, Job};
use std::fmt::Write as _;
use txl::lint::{lint_source, LintConfig};

/// The committed rendering of the sweep.
pub const GOLDEN: &str = "crates/bench/golden/lint.golden";

/// The sweep's report: one line per diagnostic (or `clean`) per fixture.
pub fn render() -> Result<String, Error> {
    let files = fixtures(".txl")?;
    let cfg = LintConfig { write_set_capacity: Some(32), ..LintConfig::default() };
    let mut out = String::new();
    let mut findings = 0usize;
    for (name, src) in &files {
        let diags = lint_source(src, &cfg).map_err(|e| format!("{name}: does not compile: {e}"))?;
        if diags.is_empty() {
            let _ = writeln!(out, "{name}: clean");
        } else {
            for d in &diags {
                findings += 1;
                let _ = writeln!(out, "{name}: {d}");
            }
        }
        // Convention check: seeded-bug fixtures must be flagged, clean
        // twins must not — enforced here so the corpus cannot rot.
        let buggy = name.ends_with("_bug.txl");
        if buggy && diags.is_empty() {
            return Err(format!("{name}: seeded-bug fixture produced no diagnostics").into());
        }
        if !buggy && !diags.is_empty() {
            return Err(format!("{name}: clean twin produced diagnostics: {:?}", diags[0]).into());
        }
    }
    let _ = writeln!(out, "total: {} fixture(s), {findings} finding(s)", files.len());
    Ok(out)
}

/// Takes `--bless`; the sweep has one configuration, so it is always pinned.
pub fn parse(args: &mut Args) -> Result<Job, Error> {
    let mode = Mode::parse(args, true, "")?;
    Ok(Box::new(move || {
        let report = render()?;
        print!("{report}");
        mode.settle(GOLDEN, &report)
    }))
}
