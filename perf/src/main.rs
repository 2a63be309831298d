//! `perf` — the repo's two-clock benchmark.
//!
//! ```text
//! perf measure --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! perf run   [--seed N] [--workload NAME] [--out FILE] [--quick] [--bless]
//! perf check [--seed N] [--workload NAME] [--quick]
//! perf diff A.json B.json
//! ```
//!
//! `measure` is what `BENCHMARK.json`'s command runs: one workload, one
//! pass. `run` is the whole benchmark; `check` is `run` twice, compared;
//! `diff` compares two documents `run` wrote. See `perf/README.md`.

mod diff;
mod driver;
mod json;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  perf measure --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  perf run   [--seed N] [--workload NAME] [--out FILE] [--quick] [--bless]
  perf check [--seed N] [--workload NAME] [--quick]
  perf diff A.json B.json";

/// `--flag value` pairs and bare flags, checked against what the
/// subcommand accepts.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags { pairs: Vec::new(), bare: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} wants a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else if bare.contains(&arg.as_str()) {
                flags.bare.push(arg.clone());
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("{name} wants a number, got {v:?}")),
            None => Ok(default),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.bare.iter().any(|b| b == name)
    }
}

fn run_args(flags: &Flags) -> Result<driver::RunArgs, String> {
    Ok(driver::RunArgs {
        seed: flags.number("--seed", 0)?,
        workload: flags.get("--workload").map(str::to_string),
        out: flags.get("--out").map(str::to_string),
        quick: flags.has("--quick"),
        bless: flags.has("--bless"),
    })
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "measure" => {
            let flags = Flags::parse(
                rest,
                &["--workload", "--seed", "--seconds", "--trace"],
                &["--quick"],
            )?;
            let name = flags.get("--workload").ok_or("measure wants --workload NAME")?;
            let spec = workloads::find(name).ok_or_else(|| {
                let names: Vec<_> = workloads::ALL.iter().map(|s| s.name).collect();
                format!("no workload named {name:?}; there are: {}", names.join(", "))
            })?;
            let seconds: f64 = flags.number("--seconds", f64::from(measure::RUN_SECONDS))?;
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err("--seconds must be above 0 and at most 60".into());
            }
            let trace = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
            };
            let args = measure::Args {
                spec,
                seed: flags.number("--seed", 0)?,
                seconds,
                trace,
                quick: flags.has("--quick"),
            };
            // The result line carries `correct`; the exit code says only
            // that a result was printed.
            measure::run(&args);
            Ok(true)
        }
        "run" => {
            let flags =
                Flags::parse(rest, &["--seed", "--workload", "--out"], &["--quick", "--bless"])?;
            driver::run(&run_args(&flags)?)
        }
        "check" => {
            let flags = Flags::parse(rest, &["--seed", "--workload"], &["--quick"])?;
            driver::check(&run_args(&flags)?)
        }
        "diff" => {
            let [a, b] = rest else { return Err(USAGE.into()) };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let rows = diff::compare(&load(a)?, &load(b)?)?;
            print!("{}", diff::render(&rows));
            let bad =
                |r: &&diff::Row| matches!(r.verdict, diff::Verdict::Worse | diff::Verdict::Changed);
            Ok(rows.iter().filter(bad).count() == 0)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
