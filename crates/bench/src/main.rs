//! `bench <subcommand> [flags]` — see the crate documentation for the
//! run / check / `--bless` contract and README.md for every subcommand.

use bench::args::Args;
use bench::Error;
use std::process::ExitCode;

const USAGE: &str = "usage: bench <subcommand> [flags]
  paper:    table1 table2 fig2 fig3 fig4 fig5 ablations ext_scheduler
  sweeps:   faults verify serve [--recovery] obs retry report trace
  txl:      lint fix analyze
  goldens:  check [CHECKOUT]
runs write under target/bench/ (--out DIR); only --bless writes a committed file";

fn main() -> ExitCode {
    match bench::parse(Args::from_env()).and_then(|job| job()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            eprintln!("bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Error::Failed(msg)) => {
            eprintln!("bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
