//! `.sched` repro files: the one writer and reader of the format, and
//! ddmin-style minimization of forced-choice schedules.
//!
//! Format (line-oriented text, `v1`):
//!
//! ```text
//! # tm-verify schedule v1
//! meta workload bank
//! meta variant hv-sorting
//! choice 0 0 1
//! choice 412 0 0
//! ```
//!
//! `meta` lines carry key/value context; `choice <decision> <block>
//! <warp>` lines are the [`ForcedChoice`]s in ascending decision order.
//! Everything else starting with `#` is a comment. [`write`] emits every
//! key; [`Litmus::from_meta`], [`claimed_violation`] and [`witness_rule`]
//! read every one back.

use crate::controller::{ForcedChoice, Schedule};
use crate::explore::{Finding, ViolationKind};
use crate::litmus::{Litmus, Workload};
use crate::model::Subject;
use gpu_stm::{BlockingMutation, Mutation};
use workloads::Variant;

/// Header line identifying the format version.
pub const HEADER: &str = "# tm-verify schedule v1";

/// A mutation's switches by name, as `meta mutation`/`meta blocking`
/// spell them (`name=true|false`, space-separated).
type Flags<T> = [(&'static str, fn(&mut T) -> &mut bool)];

/// The seeded runtime mutations, named as `--mutant` and `meta mutation`
/// spell them.
const MUTATION_FLAGS: &Flags<Mutation> = &[
    ("skip_validation", |m| &mut m.skip_validation),
    ("unsorted_locks", |m| &mut m.unsorted_locks),
    ("late_writeback", |m| &mut m.late_writeback),
];

/// The seeded blocking-subsystem mutations, named as `meta blocking`
/// spells them.
const BLOCKING_FLAGS: &Flags<BlockingMutation> = &[("lost_wakeup", |m| &mut m.lost_wakeup)];

/// The runtime mutation that turns on exactly the switch `name`
/// (`skip_validation`, `unsorted_locks` or `late_writeback`).
pub fn mutant(name: &str) -> Option<Mutation> {
    let (_, switch) = MUTATION_FLAGS.iter().find(|(n, _)| *n == name)?;
    let mut m = Mutation::default();
    *switch(&mut m) = true;
    Some(m)
}

fn write_flags<T: Copy>(mut value: T, flags: &Flags<T>) -> String {
    let words: Vec<String> =
        flags.iter().map(|(name, switch)| format!("{name}={}", switch(&mut value))).collect();
    words.join(" ")
}

fn read_flags<T: Default>(text: &str, flags: &Flags<T>) -> Option<T> {
    let mut value = T::default();
    for word in text.split_whitespace() {
        let (name, on) = word.split_once('=')?;
        let (_, switch) = flags.iter().find(|(n, _)| *n == name)?;
        *switch(&mut value) = on.parse().ok()?;
    }
    Some(value)
}

/// Renders `finding`, shrunk to `schedule`, as `.sched` text: the
/// subject's metadata, the violation kind and the preemptions the
/// finding's schedule charged, then the choices.
pub(crate) fn write(subject: &Subject, finding: &Finding, schedule: &Schedule) -> String {
    let mut meta = match subject {
        Subject::Litmus(l) => vec![
            ("workload", l.workload.name().to_string()),
            ("variant", l.variant.short_name().to_string()),
            ("blocks", l.blocks.to_string()),
            ("warps_per_block", l.warps_per_block.to_string()),
            ("mutation", write_flags(l.mutation, MUTATION_FLAGS)),
            ("blocking", write_flags(l.blocking, BLOCKING_FLAGS)),
        ],
        Subject::Case(c) => vec![
            ("case", c.name.clone()),
            ("rule", c.rule.clone()),
            ("threads", c.threads.to_string()),
        ],
    };
    meta.push(("violation", finding.violation.kind.to_string()));
    meta.push(("preemptions", finding.preemptions.to_string()));
    serialize(schedule, &meta)
}

/// The value of `meta key`, if the file has one (the first, if several).
fn value<'a>(meta: &'a [(String, String)], key: &str) -> Option<&'a str> {
    meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Reads `meta key` with `parse`; a missing key reads as `default`, or
/// is an error without one.
fn read<T>(
    meta: &[(String, String)],
    key: &str,
    default: Option<T>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    match value(meta, key) {
        Some(v) => parse(v).ok_or_else(|| format!("meta {key}: bad value {v:?}")),
        None => default
            .ok_or_else(|| format!("missing `meta {key}` (was this .sched written by tm-verify?)")),
    }
}

impl Litmus {
    /// Reads back the litmus a `.sched` file's metadata describes: every
    /// key [`write`] emits for it, both mutations' switches included
    /// (`mutation` and `blocking` read as all-off when absent), and a
    /// geometry that passes [`Litmus::check_geometry`].
    ///
    /// # Errors
    ///
    /// A message naming the `meta` key that is missing or malformed.
    pub fn from_meta(meta: &[(String, String)]) -> Result<Litmus, String> {
        let count = |v: &str| v.parse::<u32>().ok();
        let blocks = read(meta, "blocks", None, count)?;
        let warps_per_block = read(meta, "warps_per_block", None, count)?;
        Litmus::check_geometry(blocks, warps_per_block)
            .map_err(|(key, why)| format!("meta {key}: {why}"))?;
        Ok(Litmus {
            workload: read(meta, "workload", None, Workload::parse)?,
            variant: read(meta, "variant", None, Variant::parse)?,
            blocks,
            warps_per_block,
            mutation: read(meta, "mutation", Some(Mutation::default()), |m| {
                read_flags(m, MUTATION_FLAGS)
            })?,
            blocking: read(meta, "blocking", Some(BlockingMutation::default()), |b| {
                read_flags(b, BLOCKING_FLAGS)
            })?,
        })
    }
}

/// The violation kind a witness claims (`meta violation`), if it names
/// one.
///
/// # Errors
///
/// A message naming `meta violation` when the kind is unknown.
pub fn claimed_violation(meta: &[(String, String)]) -> Result<Option<ViolationKind>, String> {
    read(meta, "violation", Some(None), |v| ViolationKind::parse(v).map(Some))
}

/// The lint rule a witness names (`meta rule`), if any.
pub fn witness_rule(meta: &[(String, String)]) -> Option<&str> {
    value(meta, "rule")
}

/// Renders a schedule plus metadata to `.sched` text.
pub fn serialize(schedule: &Schedule, meta: &[(&str, String)]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (k, v) in meta {
        out.push_str(&format!("meta {k} {v}\n"));
    }
    for c in &schedule.choices {
        out.push_str(&format!("choice {} {} {}\n", c.decision, c.warp.0, c.warp.1));
    }
    out
}

/// Parses `.sched` text back into a schedule and its metadata.
///
/// # Errors
///
/// A human-readable message for a missing/unknown header or a malformed
/// line, including a `choice` number out of range for its field
/// (decisions are `u64`, blocks and warps `u32`).
pub fn parse(text: &str) -> Result<(Schedule, Vec<(String, String)>), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == HEADER => {}
        other => return Err(format!("bad header: expected {HEADER:?}, got {other:?}")),
    }
    let mut meta = Vec::new();
    let mut choices = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", lineno + 2);
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("meta") => {
                let k = parts.next().ok_or_else(|| at("meta needs a key"))?;
                let v: Vec<&str> = parts.collect();
                meta.push((k.to_string(), v.join(" ")));
            }
            Some("choice") => {
                let words: Vec<&str> = parts.collect();
                let [decision, block, warp] = words[..] else {
                    return Err(at("a choice is `choice <decision> <block> <warp>`"));
                };
                let bad = |what: &str, s: &str| at(&format!("bad {what} {s:?}"));
                choices.push(ForcedChoice {
                    decision: decision.parse().map_err(|_| bad("decision", decision))?,
                    warp: (
                        block.parse().map_err(|_| bad("block", block))?,
                        warp.parse().map_err(|_| bad("warp", warp))?,
                    ),
                });
            }
            Some(other) => return Err(at(&format!("unknown directive {other:?}"))),
            None => {}
        }
    }
    choices.sort_by_key(|c| c.decision);
    Ok((Schedule { choices }, meta))
}

/// Greedy delta-debugging minimizer: repeatedly removes chunks of forced
/// choices (halving the chunk size down to 1) while `reproduces` still
/// accepts the shrunken schedule.
///
/// The result is 1-minimal with respect to single-choice removal: every
/// remaining choice is necessary for reproduction.
pub fn minimize(schedule: &Schedule, mut reproduces: impl FnMut(&Schedule) -> bool) -> Schedule {
    let mut choices = schedule.choices.clone();
    let mut chunk = choices.len().max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < choices.len() {
            let end = (i + chunk).min(choices.len());
            let mut trial: Vec<ForcedChoice> = choices.clone();
            trial.drain(i..end);
            if reproduces(&Schedule { choices: trial.clone() }) {
                choices = trial;
                // Re-test from the same position: the next chunk slid in.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    Schedule { choices }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(decisions: &[u64]) -> Schedule {
        Schedule {
            choices: decisions
                .iter()
                .map(|&d| ForcedChoice { decision: d, warp: (0, 1) })
                .collect(),
        }
    }

    #[test]
    fn round_trips() {
        let s = sched(&[0, 7, 42]);
        let meta = [("workload", "bank".to_string()), ("note", "two words here".to_string())];
        let text = serialize(&s, &meta);
        let (back, meta2) = parse(&text).expect("parses");
        assert_eq!(back, s);
        let meta: Vec<(String, String)> = meta.map(|(k, v)| (k.to_string(), v)).into();
        assert_eq!(meta2, meta);
    }

    #[test]
    fn rejects_bad_header_and_bad_choice() {
        assert!(parse("not a schedule\n").is_err());
        assert!(parse(&format!("{HEADER}\nchoice 1 x 0\n")).is_err());
        assert!(parse(&format!("{HEADER}\nfrobnicate\n")).is_err());
        assert!(parse(&format!("{HEADER}\nchoice 1 0\n")).is_err());
        assert!(parse(&format!("{HEADER}\nchoice 1 0 1 2\n")).is_err());
    }

    #[test]
    fn choice_numbers_out_of_range_are_rejected_not_truncated() {
        for line in
            ["choice 3 4294967296 0", "choice 3 0 4294967296", "choice 18446744073709551616 0 0"]
        {
            let err = parse(&format!("{HEADER}\n{line}\n")).expect_err(line);
            assert!(err.starts_with("line 2: bad "), "{line}: {err}");
        }
        let (s, _) = parse(&format!("{HEADER}\nchoice 3 4294967295 0\n")).unwrap();
        assert_eq!(s.choices, [ForcedChoice { decision: 3, warp: (u32::MAX, 0) }]);
    }

    fn litmus_meta(l: Litmus) -> Vec<(String, String)> {
        let finding = Finding {
            violation: crate::ModelViolation {
                kind: ViolationKind::Deadlock,
                message: String::new(),
            },
            schedule: sched(&[3]),
            preemptions: 1,
        };
        let text = write(&Subject::Litmus(l), &finding, &finding.schedule);
        let (back, meta) = parse(&text).expect("written text parses");
        assert_eq!(back, finding.schedule);
        assert_eq!(claimed_violation(&meta), Ok(Some(ViolationKind::Deadlock)));
        meta
    }

    #[test]
    fn every_litmus_key_round_trips() {
        let mut all = vec![Mutation::default()];
        all.extend(MUTATION_FLAGS.iter().map(|(name, _)| mutant(name).expect("named mutant")));
        all.push(Mutation { skip_validation: true, unsorted_locks: true, late_writeback: true });
        for (i, mutation) in all.into_iter().enumerate() {
            for lost_wakeup in [false, true] {
                let workload = Workload::ALL[i % Workload::ALL.len()];
                let variant = Variant::ALL[i % Variant::ALL.len()];
                let mut l = Litmus::new(workload, variant, 1 + i as u32, 2);
                l.mutation = mutation;
                l.blocking = BlockingMutation { lost_wakeup };
                assert_eq!(Litmus::from_meta(&litmus_meta(l)), Ok(l));
            }
        }
        assert_eq!(mutant("no_such_mutant"), None);
    }

    #[test]
    fn bad_metadata_names_its_key() {
        let good = litmus_meta(Litmus::new(Workload::Bank, Variant::HvSorting, 1, 2));
        let with = |key: &str, value: &str| -> Vec<(String, String)> {
            let mut meta = good.clone();
            meta.iter_mut().find(|(k, _)| k == key).expect("written key").1 = value.to_string();
            meta
        };
        for (key, value) in [
            ("blocks", "0"),
            ("blocks", "4000000000"),
            ("blocks", "16321"),
            ("blocks", "-1"),
            ("warps_per_block", "0"),
            ("warps_per_block", "33"),
            ("workload", "nosuch"),
            ("variant", "nosuch"),
            ("mutation", "skip_validation=yes"),
            ("mutation", "frobnicate=true"),
            ("mutation", "unsorted_locks"),
            ("blocking", "lost_wakeup=1"),
        ] {
            let err = Litmus::from_meta(&with(key, value)).expect_err(value);
            assert!(err.starts_with(&format!("meta {key}: ")), "{key} {value}: {err}");
        }
        let mut missing = good.clone();
        missing.retain(|(k, _)| k != "variant");
        assert!(Litmus::from_meta(&missing).unwrap_err().contains("meta variant"));
        let err = claimed_violation(&with("violation", "hang")).unwrap_err();
        assert!(err.starts_with("meta violation: "), "{err}");
        // The geometry limit is exactly the check's.
        let edge = Litmus::from_meta(&with("blocks", "8160")).expect("8160 x 2 actors fit");
        assert_eq!(edge.actors(), crate::MAX_ACTORS);
    }

    /// Real witnesses: a litmus runtime mutant and both TXL cases.
    const WITNESSES: [&str; 3] = [
        "# tm-verify schedule v1\nmeta workload bank\nmeta variant hv-sorting\nmeta blocks 1\n\
         meta warps_per_block 2\n\
         meta mutation skip_validation=false unsorted_locks=true late_writeback=false\n\
         meta blocking lost_wakeup=false\nmeta violation livelock\nmeta preemptions 2\n\
         choice 20 0 1\nchoice 41 0 0\n",
        "# tm-verify schedule v1\nmeta case unsorted-locks\nmeta rule TL002\nmeta threads 2\n\
         meta violation livelock\nmeta preemptions 1\nchoice 6 1 0\n",
        "# tm-verify schedule v1\nmeta case footprint-order\nmeta rule TL005\nmeta threads 2\n\
         meta violation livelock\nmeta preemptions 2\nchoice 19 1 0\nchoice 67 0 0\n",
    ];

    /// Parses `text` and reads its metadata every way a consumer does.
    /// Either may fail; neither may panic.
    fn read_all(text: &str) {
        let run = std::panic::catch_unwind(|| {
            if let Ok((_, meta)) = parse(text) {
                let _ = Litmus::from_meta(&meta);
                let _ = claimed_violation(&meta);
                let _ = witness_rule(&meta);
            }
        });
        assert!(run.is_ok(), "reading panicked on {text:?}");
    }

    #[test]
    fn mutated_witnesses_are_read_without_panicking() {
        let mut seed = 0x5eed_5c4e_d000_0001;
        let mut below = |n: usize| (gpu_sim::rng::splitmix64(&mut seed) % n as u64) as usize;
        let mut texts = 0;
        for w in WITNESSES {
            let bytes = w.as_bytes();
            // Every truncation prefix.
            for end in 0..=bytes.len() {
                read_all(&w[..end]);
                texts += 1;
            }
            // Single-byte flips at every position, plus seeded random bytes.
            for at in 0..bytes.len() {
                for b in [b'0', b'9', b' ', b'\n', b'=', b'-', b'#', bytes[at] ^ 0x20] {
                    let mut m = bytes.to_vec();
                    m[at] = b;
                    read_all(&String::from_utf8_lossy(&m));
                }
                let mut m = bytes.to_vec();
                m[at] = below(256) as u8;
                read_all(&String::from_utf8_lossy(&m));
                texts += 9;
            }
            // Digit inflation: each number replaced by edge values.
            let words: Vec<&str> = w.split(' ').collect();
            for (i, word) in words.iter().enumerate() {
                if !word.starts_with(|c: char| c.is_ascii_digit()) {
                    continue;
                }
                for big in ["4294967295", "4294967296", "18446744073709551616", "-1", "0", "00"] {
                    let mut m = words.clone();
                    let tail = word.trim_start_matches(|c: char| c.is_ascii_digit());
                    let grown = format!("{big}{tail}");
                    m[i] = &grown;
                    read_all(&m.join(" "));
                    texts += 1;
                }
            }
            // Line splices: duplicate, drop and swap lines; splice in a
            // line of another witness.
            let lines: Vec<&str> = w.lines().collect();
            for _ in 0..200 {
                let mut m = lines.clone();
                let (i, j) = (below(m.len()), below(m.len()));
                match below(4) {
                    0 => m.insert(j, lines[i]),
                    1 => drop(m.remove(i)),
                    2 => m.swap(i, j),
                    _ => {
                        let other: Vec<&str> = WITNESSES[below(3)].lines().collect();
                        m.insert(j, other[below(other.len())]);
                    }
                }
                read_all(&m.join("\n"));
                texts += 1;
            }
        }
        assert!(texts > 3_000, "only {texts} mutated texts");
    }

    #[test]
    fn minimize_keeps_only_needed_choices() {
        // "Reproduces" iff decisions 7 and 42 are both present.
        let full = sched(&[0, 3, 7, 19, 42, 55]);
        let min = minimize(&full, |s| {
            let ds: Vec<u64> = s.choices.iter().map(|c| c.decision).collect();
            ds.contains(&7) && ds.contains(&42)
        });
        let ds: Vec<u64> = min.choices.iter().map(|c| c.decision).collect();
        assert_eq!(ds, vec![7, 42]);
    }

    #[test]
    fn minimize_can_reach_empty() {
        let full = sched(&[1, 2, 3]);
        let min = minimize(&full, |_| true);
        assert!(min.choices.is_empty());
    }
}
