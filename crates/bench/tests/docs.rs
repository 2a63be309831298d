//! Docs are runnable: every `cargo run -p bench …` line in README.md,
//! DESIGN.md and EXPERIMENTS.md must name a subcommand and flags the
//! binary parses. Parse-only — nothing is executed.

use bench::args::{root, Args};

/// The `bench` command lines in `text`: from each `cargo run -p bench`
/// to the end of its code span or line (joined over `\` continuations),
/// minus a trailing `# comment`; only what follows ` -- ` is returned.
fn invocations(text: &str) -> Vec<String> {
    let joined = text.replace("\\\n", " ");
    let mut found = Vec::new();
    for (at, _) in joined.match_indices("cargo run -p bench") {
        let line = joined[at..].lines().next().unwrap();
        let line = line.split(['`', '#', '|']).next().unwrap();
        found.push(line.split_once(" -- ").map_or("", |(_, words)| words).trim().to_string());
    }
    found
}

#[test]
fn every_documented_invocation_parses() {
    let mut seen = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root().join(doc)).unwrap();
        for words in invocations(&text) {
            seen += 1;
            if let Err(e) = bench::parse(Args::new(&words)) {
                panic!("{doc}: `cargo run -p bench … -- {words}` does not parse: {e}");
            }
        }
    }
    assert!(seen >= 40, "only {seen} invocations found — did the extraction break?");
}
