//! CLI contract tests: the documented exit-code scheme (0 clean,
//! 1 findings/pending fixes, 2 usage/IO/parse errors) and the `fix`
//! subcommand's three modes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn txl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_txl")).args(args).output().expect("txl runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("txl exits normally")
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch file that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str, contents: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("txl-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("scratch file writes");
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn lint_clean_exits_zero() {
    let out = txl(&["lint", "--capacity", "32", &fixture("weak_isolation_clean.txl")]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(stdout(&out).contains("clean"), "{out:?}");
}

#[test]
fn lint_findings_exit_one() {
    let out = txl(&["lint", "--capacity", "32", &fixture("weak_isolation_bug.txl")]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(stdout(&out).contains("TL001"), "{out:?}");
}

#[test]
fn lint_io_error_exits_two() {
    let out = txl(&["lint", "no/such/file.txl"]);
    assert_eq!(code(&out), 2, "{out:?}");
}

#[test]
fn lint_parse_error_exits_two() {
    let bad = Scratch::new("parse.txl", "kernel oops( {");
    let out = txl(&["lint", bad.path()]);
    assert_eq!(code(&out), 2, "{out:?}");
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    let shapes = [
        (
            "parens",
            format!("kernel k() {{ let x = {}1{}; }}", "(".repeat(10_000), ")".repeat(10_000)),
        ),
        ("chain", format!("kernel k() {{ let x = 1{}; }}", "+1".repeat(100_000))),
        ("bangs", format!("kernel k() {{ let x = {}1; }}", "!".repeat(100_000))),
        ("ifs", format!("kernel k() {{ {}{} }}", "if 1 { ".repeat(100_000), "}".repeat(100_000))),
    ];
    for (name, src) in shapes {
        let file = Scratch::new(&format!("deep-{name}.txl"), &src);
        for mode in ["lint", "analyze", "fix"] {
            let out = txl(&[mode, file.path()]);
            assert_eq!(code(&out), 2, "{mode} {name}: {out:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("deeper than"), "{out:?}");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_txlc")).arg(file.path()).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "txlc {name}: {out:?}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(code(&txl(&[])), 2);
    assert_eq!(code(&txl(&["lint"])), 2, "no files");
    assert_eq!(code(&txl(&["frobnicate", "x.txl"])), 2, "unknown mode");
    assert_eq!(code(&txl(&["lint", "--wat", "x.txl"])), 2, "unknown flag");
    assert_eq!(code(&txl(&["lint", "--capacity", "many", "x.txl"])), 2, "bad int");
}

#[test]
fn compile_ok_exits_zero() {
    let out = txl(&["compile", &fixture("weak_isolation_clean.txl")]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn fix_check_reports_pending_fixes() {
    let out = txl(&["fix", "--capacity", "32", "--check", &fixture("weak_isolation_bug.txl")]);
    assert_eq!(code(&out), 1, "pending fixes must exit 1: {out:?}");
    let out = txl(&["fix", "--capacity", "32", "--check", &fixture("weak_isolation_fixed.txl")]);
    assert_eq!(code(&out), 0, "an already-repaired file must exit 0: {out:?}");
}

#[test]
fn fix_diff_prints_a_unified_diff_and_exits_zero_when_repaired() {
    let out = txl(&["fix", "--capacity", "32", "--diff", &fixture("unsorted_locks_bug.txl")]);
    assert_eq!(code(&out), 0, "a fully-repaired file exits 0 under --diff: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("--- a/") && text.contains("+++ b/"), "{text}");
    assert!(text.contains("+    atomic {"), "{text}");
}

#[test]
fn fix_write_rewrites_to_the_committed_twin() {
    let bug = std::fs::read_to_string(fixture("divergent_atomic_bug.txl")).expect("fixture");
    let twin = std::fs::read_to_string(fixture("divergent_atomic_fixed.txl")).expect("twin");
    let scratch = Scratch::new("write.txl", &bug);
    let out = txl(&["fix", "--capacity", "32", "--write", scratch.path()]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert_eq!(
        std::fs::read_to_string(Path::new(scratch.path())).expect("rewritten"),
        twin,
        "--write output must match the committed twin"
    );
    // A second --write is a no-op and stays clean.
    let again = txl(&["fix", "--capacity", "32", "--write", scratch.path()]);
    assert_eq!(code(&again), 0, "{again:?}");
}

#[test]
fn fix_json_emits_patch_records() {
    let out = txl(&[
        "fix",
        "--capacity",
        "32",
        "--format",
        "json",
        "--no-gate",
        &fixture("footprint_order_bug.txl"),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = stdout(&out);
    for needle in
        ["\"tool\"", "txl-fix", "\"applied\"", "TL005", "\"edits\"", "\"start\"", "\"replacement\""]
    {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
}

#[test]
fn lint_json_carries_suggested_fixes() {
    let out =
        txl(&["lint", "--capacity", "32", "--format", "json", &fixture("weak_isolation_bug.txl")]);
    assert_eq!(code(&out), 1, "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("\"suggested_fix\""), "{text}");
    assert!(text.contains("TL001"), "{text}");
}

#[test]
fn fix_residual_exits_one() {
    // A guard-position weak read is statically unfixable: the engine
    // reports it residual and the CLI exits 1.
    let src = "kernel k(a: array) {\n    atomic { a[0] = a[0] + 1; }\n    while a[1] { }\n}\n";
    let stuck = Scratch::new("residual.txl", src);
    let out = txl(&["fix", "--diff", stuck.path()]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(stdout(&out).contains("residual"), "{out:?}");
}

#[test]
fn analyze_findings_judge_the_printed_profile() {
    // TL006 reads the profile `analyze` prints, at the requested width.
    let bug = fixture("divergent_atomic_bug.txl");
    let out = txl(&["analyze", "--threads", "64", &bug]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("threads=64 "), "{text}");
    assert!(text.contains("TL006") && text.contains("across 64 thread(s)"), "{text}");
    // One thread has no other thread to conflict with: no edge, no TL006.
    let out = txl(&["analyze", "--threads", "1", &bug]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("edges=0") && !text.contains("TL006"), "{text}");
}
