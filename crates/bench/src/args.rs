//! The one argument cursor: every accessor removes the words it
//! matches, so whatever [`Args::finish`] still finds is an argument
//! nobody asked for — reported, never ignored.

use crate::Error;
use std::path::{Path, PathBuf};

/// The command-line words no accessor has consumed yet.
pub struct Args {
    words: Vec<String>,
}

fn usage<T>(msg: String) -> Result<T, Error> {
    Err(Error::Usage(msg))
}

impl Args {
    /// The process's arguments after the program name.
    pub fn from_env() -> Args {
        Args { words: std::env::args().skip(1).collect() }
    }

    /// A cursor over the whitespace-separated words of `line` — how a
    /// golden spells its pinned configuration and how tests spell a
    /// command line.
    pub fn new(line: &str) -> Args {
        Args { words: line.split_whitespace().map(String::from).collect() }
    }

    /// Takes the leading subcommand name.
    pub(crate) fn subcommand(&mut self) -> Result<String, Error> {
        match self.words.first() {
            Some(w) if !w.starts_with('-') => Ok(self.words.remove(0)),
            _ => usage("expected a subcommand".into()),
        }
    }

    /// Takes the flag `name`; true if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.words.iter().position(|w| w == name);
        at.map(|i| self.words.remove(i)).is_some()
    }

    /// Takes `name VALUE` and reads the value with `FromStr`.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] naming the flag when the value is missing or does
    /// not parse.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, Error> {
        self.value_with(name, |s| s.parse().ok())
    }

    /// [`Args::value`] with a caller-supplied reader (`None` = bad value).
    pub fn value_with<T>(
        &mut self,
        name: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, Error> {
        let Some(i) = self.words.iter().position(|w| w == name) else {
            return Ok(None);
        };
        if self.words.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            return usage(format!("{name} wants a value"));
        }
        let raw = self.words.remove(i + 1);
        self.words.remove(i);
        match read(&raw) {
            Some(v) => Ok(Some(v)),
            None => usage(format!("{name}: bad value `{raw}`")),
        }
    }

    /// Takes the first remaining word that is not a flag. Call it after
    /// the flags and values, or it takes a value for a positional.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.words.iter().position(|w| !w.starts_with("--"));
        at.map(|i| self.words.remove(i))
    }

    /// Takes `--out DIR`: where this run writes its artifacts.
    pub fn out(&mut self) -> Result<Out, Error> {
        Ok(Out(self.value("--out")?.unwrap_or_else(|| root().join("target/bench"))))
    }

    /// Rejects whatever is left.
    pub(crate) fn finish(self) -> Result<(), Error> {
        match self.words.first() {
            Some(w) => usage(format!("unexpected argument `{w}`")),
            None => Ok(()),
        }
    }
}

/// The checkout this binary was built from: where the committed goldens
/// and the default output directory live.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench is two deep")
}

/// The directory a run writes its artifacts to: `target/bench/` unless
/// `--out DIR` says otherwise. Never a committed file.
pub struct Out(PathBuf);

impl Out {
    /// The path `name` resolves to (an absolute `name` stays as it is).
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes `contents` to `name` under the directory, creating it.
    pub fn write(&self, name: &str, contents: &str) -> Result<PathBuf, Error> {
        let path = self.path(name);
        let dir = path.parent().expect("joined path has a parent");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| Error::Failed(format!("cannot write {}: {e}", path.display())))?;
        Ok(path)
    }
}
