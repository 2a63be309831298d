//! # tm-check — history-based correctness checking for GPU-STM
//!
//! Opacity (Guerraoui & Kapalka, PPoPP 2008) requires that (1) committed
//! transactions appear to execute atomically in some total order, (2)
//! aborted transactions are invisible, and (3) every transaction observes a
//! consistent memory view. The STM variants in [`gpu_stm`] record every
//! committed transaction's full read- and write-set plus its commit version
//! (drawn from the global clock); this crate *replays* that history in
//! version order and verifies that each transaction's reads match the
//! replayed memory state at its serialization point.
//!
//! For writer transactions the serialization point is their commit version;
//! for read-only transactions it is their validated snapshot (they
//! linearise at their last read, Algorithm 3 line 68). Invisibility of
//! aborts and full atomicity follow from the final-state check: replaying
//! only committed writes must reproduce the simulator's actual final
//! memory.

#![warn(missing_docs)]

use gpu_sim::Addr;
use gpu_stm::history::{CommittedTx, History};
use std::fmt;

/// A violation of serializability/opacity found during replay.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Violation {
    /// Two committed writers claimed the same commit version.
    DuplicateVersion {
        /// The duplicated version.
        version: u32,
    },
    /// A committed transaction read a value inconsistent with the memory
    /// state at its serialization point.
    InconsistentRead {
        /// Thread that ran the transaction.
        tid: u32,
        /// Its serialization point (commit version or snapshot).
        point: u32,
        /// The address read.
        addr: Addr,
        /// Value the replay says it should have seen.
        expected: u32,
        /// Value it recorded.
        got: u32,
    },
    /// Replaying all committed writes did not reproduce the final memory.
    FinalStateMismatch {
        /// The diverging address.
        addr: Addr,
        /// Replayed value.
        expected: u32,
        /// Actual simulator memory value.
        got: u32,
    },
    /// The simulator's happens-before detector observed an unordered
    /// conflicting pair of global-memory accesses — the weak-isolation
    /// hazard of the paper's Section 3.2.1, invisible to commit-history
    /// replay because at least one side bypassed the STM.
    DataRace {
        /// The full detector report.
        race: gpu_sim::DataRace,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateVersion { version } => {
                write!(f, "duplicate commit version {version}")
            }
            Violation::InconsistentRead { tid, point, addr, expected, got } => write!(
                f,
                "tid {tid} serialized at {point} read {addr}: expected {expected}, got {got}"
            ),
            Violation::FinalStateMismatch { addr, expected, got } => {
                write!(f, "final state at {addr}: replay says {expected}, memory has {got}")
            }
            // `race` formats both sides with full warp.lane provenance.
            Violation::DataRace { race } => write!(f, "weak-isolation {race}"),
        }
    }
}

/// Lifts the simulator's race reports into [`Violation`]s so race-freedom
/// composes with the opacity checks in one violation list. Identical
/// reports (same address and same two access descriptions) collapse to
/// one violation.
pub fn races_to_violations(races: &[gpu_sim::DataRace]) -> Vec<Violation> {
    let mut vs: Vec<Violation> = races.iter().map(|r| Violation::DataRace { race: *r }).collect();
    dedup_violations(&mut vs);
    vs
}

/// Removes exact-duplicate violations in place, keeping first occurrences
/// in order. Duplicates arise when several detection passes (opacity
/// replay, final-state diff, race lifting) run over accumulating sinks or
/// when the same launch is checked more than once.
pub fn dedup_violations(violations: &mut Vec<Violation>) {
    let mut seen = std::collections::HashSet::new();
    violations.retain(|v| seen.insert(v.clone()));
}

/// Summary of a successful (or failed) check.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Committed writer transactions replayed.
    pub writers: usize,
    /// Committed read-only transactions verified.
    pub read_only: usize,
    /// Violations found (empty = history is opaque-serializable).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the history passed all checks.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The latest replayed write per address, dense over the range of
/// addresses the history writes: about four bytes per word of that
/// range, which lies inside the simulator memory the history came from.
struct Overlay {
    base: u32,
    vals: Vec<u32>,
    /// Bit `a - base`: whether `vals[a - base]` holds a write.
    written: Vec<u64>,
}

impl Overlay {
    fn new(writers: &Writers) -> Overlay {
        let addrs = writers.iter().flat_map(|tx| &tx.writes).map(|w| w.addr.0);
        let (lo, hi) = addrs.fold((u32::MAX, 0), |(lo, hi), a| (lo.min(a), hi.max(a)));
        let len = if lo > hi { 0 } else { (hi - lo) as usize + 1 };
        Overlay { base: lo, vals: vec![0; len], written: vec![0; len.div_ceil(64)] }
    }

    fn set(&mut self, a: Addr, v: u32) {
        let i = (a.0 - self.base) as usize;
        self.vals[i] = v;
        self.written[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, a: Addr) -> Option<u32> {
        let i = a.0.wrapping_sub(self.base) as usize;
        let hit = i < self.vals.len() && self.written[i / 64] & (1 << (i % 64)) != 0;
        hit.then(|| self.vals[i])
    }
}

/// A history's committed writers in version order (ties in history
/// order), sorted once for both the read check and the final state, as
/// `version << 32 | index` keys.
struct Writers<'h> {
    commits: &'h [CommittedTx],
    keys: Vec<u64>,
}

impl<'h> Writers<'h> {
    fn new(history: &'h History) -> Writers<'h> {
        let mut keys: Vec<u64> = history
            .commits
            .iter()
            .enumerate()
            .filter_map(|(i, tx)| Some(u64::from(tx.version?) << 32 | i as u64))
            .collect();
        keys.sort_unstable();
        Writers { commits: &history.commits, keys }
    }

    fn iter(&self) -> impl Iterator<Item = &'h CommittedTx> + '_ {
        self.keys.iter().map(|&k| &self.commits[k as u32 as usize])
    }
}

/// Replays `history` against `initial` memory and checks that every
/// committed transaction observed a consistent view at its serialization
/// point.
///
/// `initial` maps an address to its value before the kernel ran; pass
/// `|a| sim_snapshot[a.index()]` or similar.
pub fn check_history(history: &History, initial: impl Fn(Addr) -> u32) -> CheckReport {
    replay(history, &initial).0
}

/// Replays the writers in version order, checking every transaction's
/// reads; returns the report and the overlay of the final state.
fn replay(history: &History, initial: &impl Fn(Addr) -> u32) -> (CheckReport, Overlay) {
    let mut report = CheckReport::default();
    let writers = Writers::new(history);
    for pair in writers.keys.windows(2) {
        if pair[0] >> 32 == pair[1] >> 32 {
            report.violations.push(Violation::DuplicateVersion { version: (pair[0] >> 32) as u32 });
        }
    }

    // Replay writers in version order, checking reads against the overlay.
    let mut overlay = Overlay::new(&writers);
    // Snapshot states for read-only verification: we verify read-only
    // transactions lazily by replaying up to their snapshot; sort them by
    // snapshot so a single pass suffices.
    let mut ro_sorted: Vec<&CommittedTx> =
        history.commits.iter().filter(|tx| tx.version.is_none()).collect();
    ro_sorted.sort_by_key(|tx| tx.snapshot);
    let mut ro_cursor = 0usize;

    let verify_reads =
        |tx: &CommittedTx, point: u32, overlay: &Overlay, report: &mut CheckReport| {
            for r in &tx.reads {
                let expected = overlay.get(r.addr).unwrap_or_else(|| initial(r.addr));
                if expected != r.val {
                    report.violations.push(Violation::InconsistentRead {
                        tid: tx.tid,
                        point,
                        addr: r.addr,
                        expected,
                        got: r.val,
                    });
                }
            }
        };

    for tx in writers.iter() {
        let v = tx.version.unwrap();
        // Verify read-only transactions whose snapshot precedes this writer.
        while ro_cursor < ro_sorted.len() && ro_sorted[ro_cursor].snapshot < v {
            let ro = ro_sorted[ro_cursor];
            verify_reads(ro, ro.snapshot, &overlay, &mut report);
            report.read_only += 1;
            ro_cursor += 1;
        }
        verify_reads(tx, v, &overlay, &mut report);
        for w in &tx.writes {
            overlay.set(w.addr, w.val);
        }
        report.writers += 1;
    }
    // Remaining read-only transactions see the final state.
    while ro_cursor < ro_sorted.len() {
        let ro = ro_sorted[ro_cursor];
        verify_reads(ro, ro.snapshot, &overlay, &mut report);
        report.read_only += 1;
        ro_cursor += 1;
    }

    (report, overlay)
}

/// After [`check_history`], verifies that replaying only committed writes
/// reproduces the actual final memory — i.e. aborted transactions leaked
/// nothing. `addrs` is the set of data addresses the workload may touch.
pub fn check_final_state(
    history: &History,
    initial: impl Fn(Addr) -> u32,
    final_mem: impl Fn(Addr) -> u32,
    addrs: impl IntoIterator<Item = Addr>,
) -> Vec<Violation> {
    check_history_and_final_state(history, initial, final_mem, addrs).1
}

/// [`check_history`] and [`check_final_state`] over one replay: the same
/// report and the same final-state violations, for one sort of the
/// writers and one overlay.
pub fn check_history_and_final_state(
    history: &History,
    initial: impl Fn(Addr) -> u32,
    final_mem: impl Fn(Addr) -> u32,
    addrs: impl IntoIterator<Item = Addr>,
) -> (CheckReport, Vec<Violation>) {
    let (report, overlay) = replay(history, &initial);
    let violations = final_state(&overlay, &initial, final_mem, addrs);
    (report, violations)
}

fn final_state(
    overlay: &Overlay,
    initial: &impl Fn(Addr) -> u32,
    final_mem: impl Fn(Addr) -> u32,
    addrs: impl IntoIterator<Item = Addr>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for a in addrs {
        let expected = overlay.get(a).unwrap_or_else(|| initial(a));
        let got = final_mem(a);
        if expected != got {
            violations.push(Violation::FinalStateMismatch { addr: a, expected, got });
        }
    }
    violations
}

/// The combined dynamic gate used by `txl fix`: opacity replay of the
/// commit history plus lifted happens-before races, deduplicated into
/// one violation list. Memory is assumed zero-initialised (freshly
/// allocated simulator arrays), which is how the fix-verify gate runs
/// its kernels.
pub fn gate_violations(history: &History, races: &[gpu_sim::DataRace]) -> Vec<Violation> {
    let mut vs = check_history(history, |_| 0).violations;
    vs.extend(races_to_violations(races));
    dedup_violations(&mut vs);
    vs
}

/// Panics with a readable message if the history fails the opacity check.
///
/// # Panics
///
/// Panics when `check_history` reports violations.
pub fn assert_opaque(history: &History, initial: impl Fn(Addr) -> u32) -> CheckReport {
    let report = check_history(history, initial);
    assert!(
        report.is_ok(),
        "history violates opacity ({} violations); first: {}",
        report.violations.len(),
        report.violations[0]
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_stm::history::{Access, CommittedTx};

    fn wtx(tid: u32, version: u32, reads: Vec<(u32, u32)>, writes: Vec<(u32, u32)>) -> CommittedTx {
        CommittedTx {
            tid,
            version: Some(version),
            snapshot: version.saturating_sub(1),
            reads: reads.into_iter().map(|(a, v)| Access { addr: Addr(a), val: v }).collect(),
            writes: writes.into_iter().map(|(a, v)| Access { addr: Addr(a), val: v }).collect(),
        }
    }

    fn history(commits: Vec<CommittedTx>, aborts: u64) -> History {
        let mut h = History::new();
        h.commits = commits;
        h.aborts = aborts;
        h
    }

    #[test]
    fn consistent_history_passes() {
        let h = history(
            vec![wtx(0, 1, vec![(10, 0)], vec![(10, 1)]), wtx(1, 2, vec![(10, 1)], vec![(10, 2)])],
            3,
        );
        let rep = check_history(&h, |_| 0);
        assert!(rep.is_ok(), "{:?}", rep.violations);
        assert_eq!(rep.writers, 2);
    }

    #[test]
    fn lost_update_detected() {
        // Both transactions read 0 and wrote 1: the second one's read is
        // inconsistent with its serialization point.
        let h = history(
            vec![wtx(0, 1, vec![(10, 0)], vec![(10, 1)]), wtx(1, 2, vec![(10, 0)], vec![(10, 1)])],
            0,
        );
        let rep = check_history(&h, |_| 0);
        assert!(!rep.is_ok());
        assert!(matches!(rep.violations[0], Violation::InconsistentRead { tid: 1, .. }));
    }

    #[test]
    fn duplicate_versions_detected() {
        let h = history(vec![wtx(0, 5, vec![], vec![(1, 1)]), wtx(1, 5, vec![], vec![(2, 2)])], 0);
        let rep = check_history(&h, |_| 0);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateVersion { version: 5 })));
    }

    #[test]
    fn read_only_verified_at_snapshot() {
        let mut ro = CommittedTx {
            tid: 7,
            version: None,
            snapshot: 1,
            reads: vec![Access { addr: Addr(10), val: 1 }],
            writes: vec![],
        };
        let h = history(
            vec![wtx(0, 1, vec![], vec![(10, 1)]), ro.clone(), wtx(1, 2, vec![], vec![(10, 2)])],
            0,
        );
        let rep = check_history(&h, |_| 0);
        assert!(rep.is_ok(), "{:?}", rep.violations);
        assert_eq!(rep.read_only, 1);

        // Same read-only tx claiming snapshot 2 must fail: at snapshot 2
        // the value was 2, not 1.
        ro.snapshot = 2;
        let h2 = history(
            vec![wtx(0, 1, vec![], vec![(10, 1)]), ro, wtx(1, 2, vec![], vec![(10, 2)])],
            0,
        );
        let rep2 = check_history(&h2, |_| 0);
        assert!(!rep2.is_ok());
    }

    #[test]
    fn initial_values_respected() {
        let h = history(vec![wtx(0, 1, vec![(3, 42)], vec![])], 0);
        // version Some but writes empty — still replayed as writer.
        assert!(check_history(&h, |a| if a == Addr(3) { 42 } else { 0 }).is_ok());
        assert!(!check_history(&h, |_| 0).is_ok());
    }

    #[test]
    fn final_state_check_detects_dirty_writes() {
        let h = history(vec![wtx(0, 1, vec![], vec![(10, 5)])], 1);
        // Memory shows 9 at address 10 — an aborted transaction leaked.
        let violations = check_final_state(
            &h,
            |_| 0,
            |a| if a == Addr(10) { 9 } else { 0 },
            [Addr(10), Addr(11)],
        );
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], Violation::FinalStateMismatch { .. }));
    }

    #[test]
    fn final_state_check_passes_clean_history() {
        let h = history(vec![wtx(0, 1, vec![], vec![(10, 5)])], 0);
        let violations = check_final_state(
            &h,
            |_| 0,
            |a| if a == Addr(10) { 5 } else { 0 },
            [Addr(10), Addr(11)],
        );
        assert!(violations.is_empty());
    }

    /// One replay gives both checks' results, in the same order: out of
    /// order and duplicate versions (the later commit's write wins a tie,
    /// as in history order), read-only snapshots, an address below and
    /// above every written one, and a final-state mismatch.
    #[test]
    fn combined_check_equals_separate_checks() {
        let mut ro = wtx(9, 0, vec![(20, 3), (5, 0)], vec![]);
        ro.version = None;
        ro.snapshot = 2;
        let h = history(
            vec![
                wtx(0, 3, vec![(20, 1)], vec![(20, 4), (30, 1)]),
                wtx(1, 1, vec![(20, 0)], vec![(20, 3)]),
                ro,
                wtx(2, 3, vec![(30, 0)], vec![(30, 2)]),
                wtx(3, 2, vec![(99, 7)], vec![]),
            ],
            0,
        );
        let final_mem = |a: Addr| match a.0 {
            20 => 4,
            30 => 1,
            _ => 0,
        };
        let addrs = || [4, 5, 20, 25, 30, 31].map(Addr);
        let separate = check_history(&h, |_| 0);
        let final_state = check_final_state(&h, |_| 0, final_mem, addrs());
        let (combined, combined_final) =
            check_history_and_final_state(&h, |_| 0, final_mem, addrs());
        assert_eq!(combined.violations, separate.violations);
        assert_eq!((combined.writers, combined.read_only), (separate.writers, separate.read_only));
        assert_eq!(combined_final, final_state);
        assert_eq!(
            separate.violations,
            vec![
                Violation::DuplicateVersion { version: 3 },
                Violation::InconsistentRead {
                    tid: 3,
                    point: 2,
                    addr: Addr(99),
                    expected: 0,
                    got: 7
                },
                Violation::InconsistentRead {
                    tid: 0,
                    point: 3,
                    addr: Addr(20),
                    expected: 3,
                    got: 1
                },
                Violation::InconsistentRead {
                    tid: 2,
                    point: 3,
                    addr: Addr(30),
                    expected: 1,
                    got: 0
                },
            ]
        );
        assert_eq!(
            final_state,
            vec![Violation::FinalStateMismatch { addr: Addr(30), expected: 2, got: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "violates opacity")]
    fn assert_opaque_panics_on_bad_history() {
        let h = history(vec![wtx(0, 1, vec![(10, 99)], vec![])], 0);
        assert_opaque(&h, |_| 0);
    }

    #[test]
    fn display_messages() {
        let v =
            Violation::InconsistentRead { tid: 1, point: 2, addr: Addr(3), expected: 4, got: 5 };
        assert!(v.to_string().contains("tid 1"));
    }

    #[test]
    fn races_lift_to_violations() {
        use gpu_sim::{AccessKind, DataRace, RaceAccess};
        let acc = |kind, spec| RaceAccess {
            block: 0,
            warp_in_block: 1,
            lane: 3,
            kind,
            speculative: spec,
            cycle: 10,
        };
        let race = DataRace {
            addr: Addr(7),
            prior: acc(AccessKind::Write, true),
            current: acc(AccessKind::Read, false),
        };
        let vs = races_to_violations(&[race, race]);
        assert_eq!(vs.len(), 1, "identical race reports must collapse");
        assert!(matches!(&vs[0], Violation::DataRace { race: r } if r.addr == Addr(7)));
        let text = vs[0].to_string();
        assert!(text.contains("data race"), "{text}");
        assert!(text.contains("warp 0.1 lane 3"), "provenance missing: {text}");
    }

    #[test]
    fn dedup_preserves_order_and_distinct_violations() {
        let a = Violation::DuplicateVersion { version: 5 };
        let b = Violation::FinalStateMismatch { addr: Addr(1), expected: 2, got: 3 };
        let mut vs = vec![a.clone(), b.clone(), a.clone(), b.clone()];
        dedup_violations(&mut vs);
        assert_eq!(vs, vec![a, b]);
    }
}
