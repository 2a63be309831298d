//! One module per `bench` subcommand.

pub mod ablations;
pub mod analyze;
pub mod ext_scheduler;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fix;
pub mod lint;
pub mod obs;
pub mod report;
pub mod retry;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod trace;
pub mod verify;

use std::path::PathBuf;

/// The checked-in TXL fixture corpus `lint`, `fix` and `analyze` sweep.
fn fixtures_dir() -> PathBuf {
    crate::args::root().join("crates/txl/tests/fixtures")
}

/// `(file name, source)` of every fixture whose name ends in `suffix`,
/// sorted by name.
fn fixtures(suffix: &str) -> Result<Vec<(String, String)>, String> {
    let dir = fixtures_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no *{suffix} fixtures under {}", dir.display()));
    }
    names
        .into_iter()
        .map(|name| match std::fs::read_to_string(dir.join(&name)) {
            Ok(src) => Ok((name, src)),
            Err(e) => Err(format!("cannot read {name}: {e}")),
        })
        .collect()
}
