//! The one golden comparer. A golden is a committed file plus a pure
//! function that renders it at a pinned configuration; comparing is
//! byte-exact, and `--bless` is the only thing that writes one.

use crate::args::{root, Args, Out};
use crate::{cmd, Error, Job};
use std::path::{Path, PathBuf};

/// Renders one golden at its pinned configuration.
pub type Render = fn() -> Result<String, Error>;

/// Every committed golden, as a path under the checkout and its renderer.
pub const GOLDENS: [(&str, Render); 10] = [
    (cmd::serve::GOLDEN, cmd::serve::render),
    (cmd::serve::GOLDEN_RECOVERY, cmd::serve::render_recovery),
    (cmd::obs::GOLDEN, cmd::obs::render),
    (cmd::retry::GOLDEN, cmd::retry::render),
    (cmd::analyze::GOLDEN_CALIBRATION, cmd::analyze::render_calibration),
    (cmd::report::GOLDEN, cmd::report::render),
    (cmd::lint::GOLDEN, cmd::lint::render),
    (cmd::fix::GOLDEN, cmd::fix::render),
    (cmd::analyze::GOLDEN, cmd::analyze::render),
    (cmd::trace::GOLDEN, cmd::trace::render),
];

/// What a run does with its golden once it has rendered.
#[derive(Copy, Clone)]
pub enum Mode {
    /// Not the golden's pinned configuration: there is nothing to compare.
    Unpinned,
    /// Compare with the committed file.
    Check,
    /// Overwrite the committed file.
    Bless,
}

impl Mode {
    /// Takes `--bless`, which only a run at the pinned configuration
    /// (`pinned`; its flags are `how`) may carry.
    pub fn parse(args: &mut Args, pinned: bool, how: &str) -> Result<Mode, Error> {
        match (args.flag("--bless"), pinned) {
            (true, true) => Ok(Mode::Bless),
            (false, true) => Ok(Mode::Check),
            (false, false) => Ok(Mode::Unpinned),
            (true, false) => Err(Error::Usage(format!(
                "--bless re-blesses the pinned configuration only; its flags: {}",
                if how.is_empty() { "none" } else { how }
            ))),
        }
    }

    /// Compares `actual` with, or writes it to, the golden `name` of this
    /// checkout.
    pub fn settle(self, name: &str, actual: &str) -> Result<(), Error> {
        match self {
            Mode::Unpinned => Ok(()),
            mode => check_or_bless(&root().join(name), actual, matches!(mode, Mode::Bless)),
        }
    }
}

/// Compares `actual` with the golden at `path`, or overwrites it when
/// `bless`.
///
/// # Errors
///
/// [`Error::Failed`] pointing at the first differing byte, or naming the
/// file that could not be read or written.
pub fn check_or_bless(path: &Path, actual: &str, bless: bool) -> Result<(), Error> {
    let shown = path.display();
    if bless {
        std::fs::write(path, actual).map_err(|e| format!("cannot write {shown}: {e}"))?;
        println!("blessed {shown}");
        return Ok(());
    }
    let expected = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {shown}: {e} (create it with --bless)"))?;
    if expected == actual {
        println!("golden: match ({shown})");
        return Ok(());
    }
    let (e, a) = (expected.as_bytes(), actual.as_bytes());
    let at = e.iter().zip(a).position(|(x, y)| x != y).unwrap_or(e.len().min(a.len()));
    let line = 1 + e[..at].iter().filter(|b| **b == b'\n').count();
    let around = |b: &[u8]| {
        let text = String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())]);
        text.replace('\n', "\\n")
    };
    Err(Error::Failed(format!(
        "{shown} differs from this run at byte {at} (line {line}; {} vs {} bytes)\n  \
         golden: …{}…\n  actual: …{}…\n  if the change is intended, re-run with --bless",
        e.len(),
        a.len(),
        around(e),
        around(a),
    )))
}

/// `bench check [CHECKOUT]`: takes `--out DIR` and the checkout whose
/// goldens to compare with (this one unless named).
pub fn parse_check(args: &mut Args) -> Result<Job, Error> {
    let out = args.out()?;
    let checkout = args.positional().map_or_else(|| root().to_path_buf(), PathBuf::from);
    Ok(Box::new(move || {
        let mismatches = check_all(&checkout, &out);
        for m in &mismatches {
            eprintln!("{m}");
        }
        if mismatches.is_empty() {
            println!("all {} goldens match", GOLDENS.len());
            return Ok(());
        }
        Err(Error::Failed(format!(
            "{} of {} goldens do not match",
            mismatches.len(),
            GOLDENS.len()
        )))
    }))
}

/// Renders every golden, leaves the rendering in `out` and compares it
/// with the committed file under `checkout`. Returns one message per
/// golden that does not match.
pub fn check_all(checkout: &Path, out: &Out) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (name, render) in GOLDENS {
        let file = Path::new(name).file_name().expect("golden has a file name");
        let result = render()
            .map_err(|e| Error::Failed(format!("{name} did not render: {e}")))
            .and_then(|actual| {
                out.write(&file.to_string_lossy(), &actual)?;
                check_or_bless(&checkout.join(name), &actual, false)
            });
        mismatches.extend(result.err().map(|e| e.to_string()));
    }
    mismatches
}
