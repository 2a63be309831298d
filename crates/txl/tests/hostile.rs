//! Hostile source: mutants of every committed fixture — each truncation,
//! seeded bit flips, inserted tokens that open comments, strings and
//! brackets or overflow a literal, and splices of other fixtures — go
//! through `compile`, `lint_source` and `analyze_source`. Each pass must
//! answer with a program or a structured `TxlError`, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use txl::lint::LintConfig;
use txl::CostConfig;

/// Seeded draws below `n` (splitmix64, so the mutant set never changes).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        (gpu_sim::rng::splitmix64(&mut self.0) % n as u64) as usize
    }
}

const FLIPS: usize = 64;
const INSERTS: usize = 16;
const SPLICES: usize = 32;
const TOKENS: [&str; 5] = ["/*", "\"", "[", "4294967296", "rand("];

fn fixtures() -> Vec<String> {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("txl"))
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read_to_string(p).expect("fixture reads")).collect()
}

/// Runs every pass on `src`; panics, naming the mutant, if one panics.
fn survive(src: &str, lint: &LintConfig, cost: &CostConfig) {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let _ = txl::compile(src);
        let _ = txl::lint_source(src, lint);
        let _ = txl::analyze_source(src, cost);
    }));
    assert!(run.is_ok(), "a pass panicked on {src:?}");
}

/// `src` with `piece` inserted at byte `at`, both taken as bytes.
fn insert(src: &str, at: usize, piece: &[u8]) -> String {
    let mut m = src.as_bytes().to_vec();
    m.splice(at..at, piece.iter().copied());
    String::from_utf8_lossy(&m).into_owned()
}

#[test]
fn mutated_fixtures_get_structured_errors_only() {
    let (lint, cost) = (LintConfig::default(), CostConfig::default());
    let sources = fixtures();
    assert!(sources.len() >= 17, "only {} fixtures", sources.len());
    let mut draw = Draw(0x7e57_0f7a_11ed_0001);
    let mut mutants = 0;
    for src in &sources {
        let bytes = src.as_bytes();
        for end in 0..=bytes.len() {
            survive(&String::from_utf8_lossy(&bytes[..end]), &lint, &cost);
        }
        for _ in 0..FLIPS {
            let mut m = bytes.to_vec();
            m[draw.below(bytes.len())] ^= 1 << draw.below(8);
            survive(&String::from_utf8_lossy(&m), &lint, &cost);
        }
        for token in TOKENS {
            for _ in 0..INSERTS {
                survive(&insert(src, draw.below(bytes.len() + 1), token.as_bytes()), &lint, &cost);
            }
        }
        for _ in 0..SPLICES {
            let other = sources[draw.below(sources.len())].as_bytes();
            let (a, b) = (draw.below(other.len() + 1), draw.below(other.len() + 1));
            let piece = &other[a.min(b)..a.max(b)];
            survive(&insert(src, draw.below(bytes.len() + 1), piece), &lint, &cost);
        }
        mutants += bytes.len() + 1 + FLIPS + TOKENS.len() * INSERTS + SPLICES;
    }
    assert!(mutants > 5_000, "only {mutants} mutants");
}
