//! TXL witness cases: schedule exploration of TXL programs, mapping
//! model-checker findings back to lint rules, and replaying serialized
//! `.sched` witnesses against (possibly repaired) sources.
//!
//! The litmus workloads ([`crate::litmus`]) exercise the STM *runtime*;
//! a [`TxlCase`] instead explores a buggy TXL *program* — the same
//! programs `txl lint` flags statically and `txl fix` repairs. Each case
//! is tagged with the lint rule its seeded bug corresponds to, so a
//! minimized schedule serializes to a `.sched` witness carrying
//! `meta rule TLnnn` provenance. The repair loop closes the circle:
//! after `txl fix` rewrites the source, [`witness_reproduces`] replays
//! the witness against the repaired program and must come back `false`.

use crate::explore::Finding;
use crate::model::{launch_txl, lock_stm, Model};
use crate::sched;
use gpu_sim::{Addr, LaunchConfig, Sim};
use gpu_stm::{Mutation, Recorder};
use std::rc::Rc;
use workloads::{RunError, Variant};

/// A TXL program under schedule exploration, tagged with the lint rule
/// its seeded bug corresponds to.
#[derive(Clone, Debug)]
pub struct TxlCase {
    /// Stable case name (serialized as `meta case`).
    pub name: String,
    /// TXL source; the first kernel is explored.
    pub source: String,
    /// Lint rule id the seeded bug maps to (serialized as `meta rule`),
    /// e.g. `TL002`.
    pub rule: String,
    /// TXL threads. The case runs one single-thread block per TXL thread
    /// so thread ids map 1:1 onto `(block, 0)` warp keys.
    pub threads: u32,
    /// Seeded STM [`Mutation`] the case runs under (all-off for cases
    /// whose bug lives in the program itself, like [`unsorted_locks`]).
    /// Cases whose lint rule guards against a *weakened* STM — TL005's
    /// footprint-order inversion only deadlocks when lock sorting is
    /// disabled — seed the corresponding mutant here.
    pub mutation: Mutation,
}

impl TxlCase {
    /// Returns `self` with a different source — how the repair loop
    /// builds the post-fix replay case.
    pub fn with_source(&self, source: impl Into<String>) -> TxlCase {
        TxlCase { source: source.into(), ..self.clone() }
    }

    /// One run of the case's compiled `kernel` on `sim`, which is in the
    /// state of a fresh simulator: the STM's shared state first, then one
    /// array per kernel parameter, sized by [`txl::array_lens`] and
    /// recorded in `data`.
    pub(crate) fn run(
        &self,
        sim: &mut Sim,
        kernel: Option<&txl::Kernel>,
        rec: &Recorder,
        data: &mut Vec<(Addr, u32)>,
    ) -> Result<(), RunError> {
        let kernel = kernel.expect("a case runs its TXL");
        let stm =
            lock_stm(sim, Variant::HvSorting, self.mutation, rec, "HV-Sorting is lock-based")?;
        for words in txl::array_lens(kernel, self.threads) {
            data.push((sim.alloc(words)?, words));
        }
        let grid = LaunchConfig::new(self.threads.max(1), 1);
        launch_txl(sim, &Rc::new(stm), kernel, grid, data)
    }
}

/// The crossing-lock-acquisition case: a two-thread rendition of the
/// `unsorted_locks_bug.txl` fixture. Thread 0 acquires `lock[0]` then
/// `lock[1]`; thread 1 acquires them in the opposite order — the classic
/// deadlock shape rule `TL002` flags statically (paper §2: lock sorting
/// exists precisely to forbid this).
pub fn unsorted_locks() -> TxlCase {
    TxlCase {
        name: "unsorted-locks".to_string(),
        source: "kernel locks(lock: array[2], data: array[2]) {
    let a = tid() % 2;
    let b = 1 - a;
    while lock[a] { }
    lock[a] = 1;
    while lock[b] { }
    lock[b] = 1;
    data[a] = data[a] + 1;
    lock[b] = 0;
    lock[a] = 0;
}"
        .to_string(),
        rule: "TL002".to_string(),
        threads: 2,
        mutation: Mutation::default(),
    }
}

/// The conflicting-footprint-order case: two transfer transactions whose
/// footprints overlap on both arrays but first-touch them in inverted
/// order — the shape rule `TL005` flags statically. A sorting STM
/// tolerates it; under the `unsorted_locks` mutant (blocking
/// encounter-order commit locking, the discipline the paper's lock
/// sorting exists to forbid) the crossed orders deadlock. `txl fix`
/// reorders the second block's body, after which even the mutant STM
/// acquires both stripes in one order and the witness dies.
pub fn footprint_order() -> TxlCase {
    TxlCase {
        name: "footprint-order".to_string(),
        source: "kernel transfer(from: array, into: array) {
    atomic {
        from[0] = from[0] - 1;
        into[0] = into[0] + 1;
    }
    atomic {
        into[0] = into[0] - 1;
        from[0] = from[0] + 1;
    }
}"
        .to_string(),
        rule: "TL005".to_string(),
        threads: 2,
        mutation: Mutation { unsorted_locks: true, ..Mutation::default() },
    }
}

/// Provenance of a saved `.sched` witness: what it proves and where it
/// lives. Observability layers attach this to incident bundles so a
/// model-checker violation in a post-mortem links straight back to its
/// minimized reproduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessProvenance {
    /// Case name (`meta case` in the witness file).
    pub case: String,
    /// Lint rule the seeded bug maps to (`meta rule`).
    pub rule: String,
    /// Path of the written witness file.
    pub path: std::path::PathBuf,
}

/// Minimizes `finding`, renders it as witness text and writes it to
/// `<dir>/<case-name>.sched`, returning the provenance record to thread
/// into incident bundles.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn save_witness(
    dir: &std::path::Path,
    case: &TxlCase,
    finding: &Finding,
) -> std::io::Result<WitnessProvenance> {
    let mut model = Model::new(case.clone());
    let min = model.minimize(finding);
    let text = model.to_sched(finding, &min);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.sched", case.name));
    std::fs::write(&path, text)?;
    Ok(WitnessProvenance { case: case.name.clone(), rule: case.rule.clone(), path })
}

/// Replays `.sched` witness text against the case and reports whether
/// the recorded violation still reproduces.
///
/// A witness that names a `violation` kind reproduces when any replayed
/// violation [`matches`](ViolationKind::matches) it; a witness without
/// one reproduces when the replay has any violation at all. Replaying
/// against a *repaired* source (see [`TxlCase::with_source`]) must
/// return `false` — that is the model-checking half of the fix gate.
///
/// # Errors
///
/// A human-readable message when the witness text does not parse or
/// claims an unknown violation kind.
pub fn witness_reproduces(case: &TxlCase, witness: &str) -> Result<bool, String> {
    let (schedule, meta) = sched::parse(witness)?;
    let kind = sched::claimed_violation(&meta)?;
    Ok(Model::new(case.clone()).replay(&schedule).reproduces(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_locks_compiles_and_lints_as_tl002() {
        let case = unsorted_locks();
        let diags =
            txl::lint_source(&case.source, &txl::LintConfig::default()).expect("case compiles");
        assert!(
            diags.iter().any(|d| d.rule.id() == case.rule),
            "expected a {} finding, got {diags:?}",
            case.rule
        );
    }

    #[test]
    fn footprint_order_compiles_and_lints_as_tl005() {
        let case = footprint_order();
        let diags =
            txl::lint_source(&case.source, &txl::LintConfig::default()).expect("case compiles");
        assert!(
            diags.iter().any(|d| d.rule.id() == case.rule),
            "expected a {} finding, got {diags:?}",
            case.rule
        );
    }

    #[test]
    fn explorer_finds_the_footprint_order_deadlock() {
        let mut model = Model::new(footprint_order());
        let report = model.explore(2, 500, false);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .unwrap_or_else(|| panic!("no deadlock among {} findings", report.findings.len()));
        let outcome = model.replay(&finding.schedule);
        assert!(
            outcome.violations.iter().any(|v| finding.violation.kind.matches(v.kind)),
            "witness schedule does not replay: {outcome:?}"
        );
    }

    #[test]
    fn default_schedule_runs_the_case() {
        // The default controller-free run must produce *an* outcome
        // deterministically (violations allowed: the case is buggy).
        let mut model = Model::new(unsorted_locks());
        let a = model.run(None);
        let b = model.run(None);
        assert_eq!(a.state_hash, b.state_hash);
    }

    #[test]
    fn explorer_finds_the_crossing_deadlock() {
        let mut model = Model::new(unsorted_locks());
        let report = model.explore(2, 500, false);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .unwrap_or_else(|| panic!("no deadlock among {} findings", report.findings.len()));
        // The witness replays.
        let outcome = model.replay(&finding.schedule);
        assert!(
            outcome.violations.iter().any(|v| finding.violation.kind.matches(v.kind)),
            "witness schedule does not replay: {outcome:?}"
        );
    }

    #[test]
    fn witness_round_trips_with_rule_provenance() {
        let case = unsorted_locks();
        let mut model = Model::new(case.clone());
        let report = model.explore(2, 500, false);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .expect("deadlock finding");
        let min = model.minimize(finding);
        assert!(min.choices.len() <= finding.schedule.choices.len());
        let text = model.to_sched(finding, &min);
        let (_, meta) = sched::parse(&text).expect("witness parses");
        assert_eq!(sched::witness_rule(&meta), Some("TL002"));
        assert_eq!(witness_reproduces(&case, &text), Ok(true));
    }
}
