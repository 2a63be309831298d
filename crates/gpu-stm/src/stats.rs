//! Transactional statistics: commit/abort accounting and the per-phase
//! execution-time breakdown used for the paper's Figure 5.

use gpu_sim::json::JsonWriter;
use std::cell::RefCell;
use std::rc::Rc;

/// Why a transaction attempt aborted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// Read-time consistency check failed (snapshot stale, value changed).
    ReadValidation,
    /// Commit-time timestamp validation failed (TBV-only mode).
    CommitTbv,
    /// Commit-time value-based validation failed.
    CommitVbv,
    /// Optional pre-locking value validation failed (Algorithm 3 line 71).
    PreVbv,
    /// Encounter-time stripe lock was busy (EGPGV-style blocking STM).
    LockBusy,
}

/// All abort causes in display order.
pub const ABORT_CAUSES: [AbortCause; 5] = [
    AbortCause::ReadValidation,
    AbortCause::CommitTbv,
    AbortCause::CommitVbv,
    AbortCause::PreVbv,
    AbortCause::LockBusy,
];

impl AbortCause {
    /// Short kebab-case label, used by exporters and reports.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::ReadValidation => "read-validation",
            AbortCause::CommitTbv => "commit-tbv",
            AbortCause::CommitVbv => "commit-vbv",
            AbortCause::PreVbv => "pre-vbv",
            AbortCause::LockBusy => "lock-busy",
        }
    }

    /// Index of this cause within [`ABORT_CAUSES`].
    pub fn index(self) -> usize {
        match self {
            AbortCause::ReadValidation => 0,
            AbortCause::CommitTbv => 1,
            AbortCause::CommitVbv => 2,
            AbortCause::PreVbv => 3,
            AbortCause::LockBusy => 4,
        }
    }
}

/// Execution phases of a transactional thread, matching the paper's
/// Figure 5 breakdown categories.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Non-transactional program work.
    Native = 0,
    /// `TXBegin`: clock snapshot, metadata reset.
    Init = 1,
    /// Read-/write-set and lock-log bookkeeping ("buffering").
    Buffering = 2,
    /// Read-time consistency checking and post-validation.
    Consistency = 3,
    /// Acquiring and releasing commit locks.
    Locking = 4,
    /// Commit-time validation, write-back, clock/version publication.
    Commit = 5,
    /// Work belonging to attempts that eventually aborted.
    Aborted = 6,
    /// Wall-clock spent descheduled on the parked set by a blocking
    /// `retry()` (see `gpu_stm::park`). Unlike every other phase this is
    /// *waiting*, not work: a healthy blocking workload shows large
    /// `Parked` and near-zero `Aborted` where the abort-respin baseline
    /// shows the reverse.
    Parked = 7,
}

/// Number of [`Phase`] categories.
pub const NUM_PHASES: usize = 8;

/// Cycles attributed to each phase. Fractions arise because warp-level
/// time is shared across the lanes that were active.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    cycles: [f64; NUM_PHASES],
}

impl Breakdown {
    /// Creates a zeroed breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Adds `cycles` to `phase`.
    pub fn add(&mut self, phase: Phase, cycles: f64) {
        self.cycles[phase as usize] += cycles;
    }

    /// Cycles attributed to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.cycles[phase as usize]
    }

    /// Total cycles across phases.
    pub fn total(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Percentage share of `phase`, 0 if the breakdown is empty.
    pub fn percent(&self, phase: Phase) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(phase) / t * 100.0
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for i in 0..NUM_PHASES {
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Adds `v` cycles to the phase with raw index `i` (crate-internal:
    /// used by the proportional attempt flush).
    pub(crate) fn add_index(&mut self, i: usize, v: f64) {
        self.cycles[i] += v;
    }

    /// Per-phase cycles as IEEE-754 bit patterns, for exact (lossless)
    /// serialization into checkpoint/WAL formats.
    pub fn to_bits(&self) -> [u64; NUM_PHASES] {
        std::array::from_fn(|i| self.cycles[i].to_bits())
    }

    /// Reconstructs a breakdown from [`to_bits`](Self::to_bits) output.
    pub fn from_bits(bits: [u64; NUM_PHASES]) -> Self {
        Breakdown { cycles: std::array::from_fn(|i| f64::from_bits(bits[i])) }
    }

    /// Serializes per-phase cycles into `w` as a JSON object keyed by
    /// [`phase_label`], in [`PHASES`] order, with the total last.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for p in PHASES {
            w.field_f64(phase_label(p), self.get(p));
        }
        w.field_f64("total", self.total());
        w.end_object();
    }

    /// The breakdown as a standalone JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// All phases in display order.
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::Native,
    Phase::Init,
    Phase::Buffering,
    Phase::Consistency,
    Phase::Locking,
    Phase::Commit,
    Phase::Aborted,
    Phase::Parked,
];

/// Short label for a phase (column headers in the harness output).
pub fn phase_label(p: Phase) -> &'static str {
    match p {
        Phase::Native => "native",
        Phase::Init => "tx-init",
        Phase::Buffering => "buffering",
        Phase::Consistency => "consistency",
        Phase::Locking => "locks",
        Phase::Commit => "commit",
        Phase::Aborted => "aborted",
        Phase::Parked => "parked",
    }
}

/// Aggregate transactional counters for a kernel run.
#[derive(Clone, Debug, Default)]
pub struct TxStats {
    /// Committed transactions.
    pub commits: u64,
    /// Committed read-only transactions (subset of `commits`).
    pub read_only_commits: u64,
    /// Aborted attempts, total.
    pub aborts: u64,
    /// Aborts by cause.
    pub aborts_read_validation: u64,
    /// Commit-time TBV aborts.
    pub aborts_commit_tbv: u64,
    /// Commit-time VBV aborts.
    pub aborts_commit_vbv: u64,
    /// Pre-locking VBV aborts.
    pub aborts_pre_vbv: u64,
    /// Encounter-time lock-busy aborts.
    pub aborts_lock_busy: u64,
    /// Commit-lock acquisition rounds that failed and retried
    /// (not aborts: the transaction keeps its logs, Algorithm 3 line 74).
    pub lock_retries: u64,
    /// Times hierarchical validation found a stale timestamp but
    /// value-based validation proved the data unchanged — a false conflict
    /// that pure TBV would have aborted on.
    pub false_conflicts_filtered: u64,
    /// Total read-set entries across committed transactions
    /// (`reads_committed / commits` = the paper's RD/TX).
    pub reads_committed: u64,
    /// Total write-set entries across committed transactions
    /// (`writes_committed / commits` = the paper's WR/TX).
    pub writes_committed: u64,
    /// Longest run of consecutive aborts any single transaction suffered
    /// (starvation measure, tracked by the escalation policy).
    pub max_consec_aborts: u64,
    /// Times a starving transaction escalated to the serialized
    /// fallback-lock commit path.
    pub escalations: u64,
    /// Commits that completed while holding the fallback lock.
    pub fallback_commits: u64,
    /// Times a retrying transaction registered its read set and parked
    /// (the blocking `retry()` path; see `gpu_stm::park`).
    pub parks: u64,
    /// Times a parked transaction was woken by an intersecting commit or
    /// a park-budget timeout.
    pub wakes: u64,
    /// Wakes whose revalidation found the read set unchanged (injected
    /// spurious wakes and budget timeouts that re-parked).
    pub spurious_wakes: u64,
    /// Per-phase time attribution.
    pub breakdown: Breakdown,
}

impl TxStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TxStats::default()
    }

    /// Records an abort of the given cause.
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts += 1;
        match cause {
            AbortCause::ReadValidation => self.aborts_read_validation += 1,
            AbortCause::CommitTbv => self.aborts_commit_tbv += 1,
            AbortCause::CommitVbv => self.aborts_commit_vbv += 1,
            AbortCause::PreVbv => self.aborts_pre_vbv += 1,
            AbortCause::LockBusy => self.aborts_lock_busy += 1,
        }
    }

    /// Serializes every counter (and the phase breakdown, losslessly as
    /// IEEE-754 bits) into a flat word vector for checkpoint formats.
    /// The exhaustive destructuring makes adding a `TxStats` field
    /// without extending the encoding a compile error.
    pub fn encode(&self) -> Vec<u64> {
        let TxStats {
            commits,
            read_only_commits,
            aborts,
            aborts_read_validation,
            aborts_commit_tbv,
            aborts_commit_vbv,
            aborts_pre_vbv,
            aborts_lock_busy,
            lock_retries,
            false_conflicts_filtered,
            reads_committed,
            writes_committed,
            max_consec_aborts,
            escalations,
            fallback_commits,
            parks,
            wakes,
            spurious_wakes,
            ref breakdown,
        } = *self;
        let mut out = vec![
            commits,
            read_only_commits,
            aborts,
            aborts_read_validation,
            aborts_commit_tbv,
            aborts_commit_vbv,
            aborts_pre_vbv,
            aborts_lock_busy,
            lock_retries,
            false_conflicts_filtered,
            reads_committed,
            writes_committed,
            max_consec_aborts,
            escalations,
            fallback_commits,
            parks,
            wakes,
            spurious_wakes,
        ];
        out.extend(breakdown.to_bits());
        out
    }

    /// Reconstructs counters from [`encode`](Self::encode) output;
    /// `None` if the word count does not match this crate's layout.
    pub fn decode(words: &[u64]) -> Option<TxStats> {
        if words.len() != 18 + NUM_PHASES {
            return None;
        }
        let mut bits = [0u64; NUM_PHASES];
        bits.copy_from_slice(&words[18..]);
        Some(TxStats {
            commits: words[0],
            read_only_commits: words[1],
            aborts: words[2],
            aborts_read_validation: words[3],
            aborts_commit_tbv: words[4],
            aborts_commit_vbv: words[5],
            aborts_pre_vbv: words[6],
            aborts_lock_busy: words[7],
            lock_retries: words[8],
            false_conflicts_filtered: words[9],
            reads_committed: words[10],
            writes_committed: words[11],
            max_consec_aborts: words[12],
            escalations: words[13],
            fallback_commits: words[14],
            parks: words[15],
            wakes: words[16],
            spurious_wakes: words[17],
            breakdown: Breakdown::from_bits(bits),
        })
    }

    /// Abort rate: aborts / (commits + aborts); 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Serializes the counters plus derived metrics and the phase
    /// breakdown into `w` as a JSON object, in a stable field order (raw
    /// counters first, derived rates, then the breakdown) so report diffs
    /// are reviewable.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("commits", self.commits);
        w.field_u64("read_only_commits", self.read_only_commits);
        w.field_u64("aborts", self.aborts);
        w.field_u64("aborts_read_validation", self.aborts_read_validation);
        w.field_u64("aborts_commit_tbv", self.aborts_commit_tbv);
        w.field_u64("aborts_commit_vbv", self.aborts_commit_vbv);
        w.field_u64("aborts_pre_vbv", self.aborts_pre_vbv);
        w.field_u64("aborts_lock_busy", self.aborts_lock_busy);
        w.field_u64("lock_retries", self.lock_retries);
        w.field_u64("false_conflicts_filtered", self.false_conflicts_filtered);
        w.field_u64("reads_committed", self.reads_committed);
        w.field_u64("writes_committed", self.writes_committed);
        w.field_u64("max_consec_aborts", self.max_consec_aborts);
        w.field_u64("escalations", self.escalations);
        w.field_u64("fallback_commits", self.fallback_commits);
        w.field_u64("parks", self.parks);
        w.field_u64("wakes", self.wakes);
        w.field_u64("spurious_wakes", self.spurious_wakes);
        w.field_f64("abort_rate", self.abort_rate());
        w.key("breakdown");
        self.breakdown.write_json(w);
        w.end_object();
    }

    /// The counters as a standalone JSON object (see
    /// [`write_json`](Self::write_json)).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Shared handle to run statistics, cloned into each variant.
pub type StatsHandle = Rc<RefCell<TxStats>>;

/// Creates a fresh stats handle.
pub fn stats_handle() -> StatsHandle {
    Rc::new(RefCell::new(TxStats::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_accounting() {
        let mut s = TxStats::new();
        s.commits = 3;
        s.record_abort(AbortCause::CommitVbv);
        s.record_abort(AbortCause::ReadValidation);
        assert_eq!(s.aborts, 2);
        assert_eq!(s.aborts_commit_vbv, 1);
        assert_eq!(s.aborts_read_validation, 1);
        assert!((s.abort_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn abort_rate_idle_is_zero() {
        assert_eq!(TxStats::new().abort_rate(), 0.0);
    }

    #[test]
    fn breakdown_percentages() {
        let mut b = Breakdown::new();
        b.add(Phase::Native, 30.0);
        b.add(Phase::Commit, 70.0);
        assert!((b.percent(Phase::Commit) - 70.0).abs() < 1e-9);
        assert!((b.total() - 100.0).abs() < 1e-9);
        assert_eq!(b.percent(Phase::Aborted), 0.0);
    }

    #[test]
    fn breakdown_merge() {
        let mut a = Breakdown::new();
        a.add(Phase::Init, 5.0);
        let mut b = Breakdown::new();
        b.add(Phase::Init, 7.0);
        b.add(Phase::Locking, 1.0);
        a.merge(&b);
        assert_eq!(a.get(Phase::Init), 12.0);
        assert_eq!(a.get(Phase::Locking), 1.0);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> = PHASES.iter().map(|p| phase_label(*p)).collect();
        assert_eq!(labels.len(), NUM_PHASES);
    }

    #[test]
    fn empty_breakdown_percent_is_zero() {
        assert_eq!(Breakdown::new().percent(Phase::Native), 0.0);
    }

    #[test]
    fn cause_labels_and_indices_are_unique() {
        let labels: std::collections::HashSet<_> = ABORT_CAUSES.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), ABORT_CAUSES.len());
        for (i, c) in ABORT_CAUSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn tx_stats_json_stable_order() {
        let mut s = TxStats::new();
        s.commits = 3;
        s.record_abort(AbortCause::LockBusy);
        s.breakdown.add(Phase::Commit, 10.0);
        let j = s.to_json();
        assert!(j.starts_with(r#"{"commits":3,"#), "{j}");
        assert!(j.contains(r#""abort_rate":0.250000"#), "{j}");
        assert!(j.contains(r#""breakdown":{"native":0.000000,"#), "{j}");
        assert!(j.ends_with(r#""total":10.000000}}"#), "{j}");
    }
}
