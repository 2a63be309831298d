//! Kill-and-restart recovery for a shard: snapshot restore, WAL tail
//! replay, and 2PC in-doubt resolution.
//!
//! Recovery healing is *byte-exact*: after a crash at any injected
//! [`CrashPoint`](crate::CrashPoint) the recovered shard's log, state
//! and subsequent execution are identical to an uncrashed run with the
//! same seed. Everything is read and verified before anything is
//! written; then:
//!
//! 1. **Tail normalization** — a torn final record (crash mid-append)
//!    is truncated off the final segment, and so are the `Commit`
//!    records of a final group that never got its sealing `Result`
//!    (commits and seal are one append, so a crash inside it can leave
//!    any prefix): the group shrinks back to its `Batch` record and
//!    step 3 re-executes it. Bytes in the history blob past the latest
//!    snapshot's recorded position (a crash between the history append
//!    and the snapshot put) are truncated the same way. Encoding is
//!    deterministic, so what is kept reproduces its original bytes and
//!    what is dropped is appended again, identically, by the replay.
//! 2. **Snapshot restore** — a fresh engine (same config ⇒ same
//!    deterministic device allocations) absorbs the latest checksummed
//!    snapshot — simulator memory + L2 tags, lifetime counters, STM
//!    stats, scheduler/backoff wrapper state, running hashes — and the
//!    history-blob prefix the snapshot points at: the committed history
//!    with its request tags, verified frame by frame against the
//!    snapshot's `(length, checksum chain)`.
//! 3. **Tail replay** — batches logged after the snapshot re-execute.
//!    A *complete* group (its sealing `Result` is durable) re-executes
//!    without re-appending, and the regenerated commit stream and seal
//!    are verified byte-for-byte against the log — the verified-recovery
//!    self-check. An *incomplete* group (batch logged, never sealed)
//!    completes exactly as the uncrashed flow would have.
//! 4. **In-doubt 2PC holds** — [`resolve_in_doubt`] commits a prepared
//!    debit hold when the coordinator's decision log recorded a commit,
//!    and compensates it otherwise (presumed abort). The live service
//!    keeps coordinator state in memory across a shard crash, so this
//!    path is for cold restarts, where the log is all that survives.

use crate::engine::{BatchReport, DurableOutcome, EngineConfig, Entry, ShardEngine, ShardOp};
use crate::error::ServeError;
use crate::wal::{
    latest_snapshot, read_decisions, read_shard_wal, restore_history, BatchSeal, HistoryPos,
    StoreHandle, WalRecord,
};
use std::collections::BTreeMap;

/// Telemetry from one shard recovery (surfaced in
/// [`RecoveryReport`](crate::RecoveryReport)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Recovered shard.
    pub shard: usize,
    /// Sequence number of the restored snapshot (0 = recovered from
    /// the log alone).
    pub snapshot_seq: u64,
    /// Whether a torn final record was truncated.
    pub torn_truncated: bool,
    /// Complete logged groups re-executed and verified against their
    /// logged seals.
    pub replayed: u64,
    /// Incomplete logged batches executed to completion.
    pub reexecuted: u64,
    /// In-doubt holds kept because the coordinator logged a commit.
    pub in_doubt_committed: u64,
    /// In-doubt holds compensated (no commit decision: presumed abort).
    pub in_doubt_compensated: u64,
}

/// A recovered shard: the rebuilt engine plus what the coordinator
/// needs to resume the stream.
pub(crate) struct RecoveredShard {
    /// The rebuilt engine, resumed at the WAL tail.
    pub engine: ShardEngine,
    /// `(seq, report)` of the highest batch known durable — answers a
    /// dispatch the dead worker never acknowledged. `None` if nothing
    /// was ever sealed.
    pub last: Option<(u64, BatchReport)>,
    /// Recovery telemetry.
    pub stats: RecoveryStats,
}

struct Group {
    seq: u64,
    entries: Vec<Entry>,
    commits: Vec<WalRecord>,
    seal: Option<BatchSeal>,
}

/// Rebuilds a shard engine from its WAL. `cfg` must match the dead
/// engine's config, with crash injection disarmed by the caller (else
/// the same crash re-fires on replay).
///
/// # Errors
///
/// Fails on log corruption outside the legal torn tail, on a corrupt
/// snapshot or history blob, or when replay diverges from a logged
/// seal.
pub(crate) fn recover(cfg: EngineConfig, store: StoreHandle) -> Result<RecoveredShard, ServeError> {
    let shard = cfg.shard;
    let fail = |m: String| ServeError::Engine { shard, message: m };
    let mut wal = read_shard_wal(&store, shard).map_err(&fail)?;
    let snapshot = latest_snapshot(&store, shard).map_err(&fail)?;

    // 1. Tail normalization: the history blob back to the snapshot's
    // position, the final segment back to its last whole record — or,
    // if its final group was never sealed, back to that group's `Batch`.
    let history_pos = snapshot.as_ref().map_or(HistoryPos::START, |s| s.history);
    let history = restore_history(&store, shard, history_pos).map_err(&fail)?;
    let torn_truncated = wal.torn;
    if wal.drop_unsealed_commits() || wal.torn {
        wal.rewrite_final_segment(&store, shard);
    }

    // 2. Fresh engine + snapshot restore.
    let mut engine = ShardEngine::with_store(cfg, Some(store.clone()))?;
    let mut snapshot_seq = 0;
    if let Some(snap) = snapshot {
        snapshot_seq = snap.seq;
        engine.restore(snap, history)?;
    }

    // 3. Tail replay.
    let mut groups: Vec<Group> = Vec::new();
    for rec in wal.records() {
        match rec {
            WalRecord::Batch { seq, entries } => groups.push(Group {
                seq: *seq,
                entries: entries.clone(),
                commits: Vec::new(),
                seal: None,
            }),
            WalRecord::Commit { .. } => {
                if let Some(g) = groups.last_mut() {
                    if g.seal.is_none() {
                        g.commits.push(rec.clone());
                    }
                }
            }
            WalRecord::Result(seal) => {
                if let Some(g) = groups.last_mut() {
                    if g.seq == seal.seq {
                        g.seal = Some(seal.clone());
                    }
                }
            }
            WalRecord::Init { .. } | WalRecord::Decision { .. } => {}
        }
    }
    groups.retain(|g| g.seq > snapshot_seq);

    let mut stats =
        RecoveryStats { shard, snapshot_seq, torn_truncated, ..RecoveryStats::default() };
    let mut last: Option<(u64, BatchReport)> =
        engine.last_seal().map(|seal| (seal.seq, report_from_seal(seal)));
    for (i, g) in groups.iter().enumerate() {
        if g.seq != engine.next_seq() {
            return Err(fail(format!(
                "WAL tail batch {} does not follow engine sequence {}",
                g.seq,
                engine.next_seq()
            )));
        }
        let report = match &g.seal {
            Some(seal) => {
                stats.replayed += 1;
                engine.replay_verified(g.seq, &g.entries, &g.commits, seal)?
            }
            None => {
                if i + 1 != groups.len() {
                    return Err(fail(format!(
                        "unsealed batch {} is not the final logged group",
                        g.seq
                    )));
                }
                stats.reexecuted += 1;
                engine.execute_logged(g.seq, &g.entries)?
            }
        };
        last = Some((g.seq, report));
    }

    Ok(RecoveredShard { engine, last, stats })
}

/// Rebuilds a [`BatchReport`] from a logged seal (the crash-after-
/// compaction case, where the group's records are gone but the seal
/// was embedded in the snapshot).
fn report_from_seal(seal: &BatchSeal) -> BatchReport {
    BatchReport {
        outcomes: seal.outcomes.clone(),
        cycles: seal.cycles,
        commits: seal.commits,
        aborts: seal.aborts,
        storm: seal.storm,
        seq: seal.seq,
        // Seals carry no trace events; a flight frame rebuilt from one
        // replays as counters only.
        sim_events: Vec::new(),
        tx_events: Vec::new(),
    }
}

/// A prepared-but-undecided cross-shard debit hold found in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct InDoubtHold {
    /// Originating request.
    pub req: u64,
    /// Held (debited) account.
    pub from: u32,
    /// Held amount.
    pub amount: u32,
    /// Coordinator decision, if one was logged.
    pub decided: Option<bool>,
}

/// Scans the surviving WAL of `shard` for 2PC debit holds with no
/// later compensation on this shard, joined against the coordinator
/// decision log. (Compaction drops segments behind the last snapshot,
/// so cold-restart 2PC resolution wants `compact: false` or a snapshot
/// cadence longer than the 2PC window.)
pub(crate) fn in_doubt_holds(
    store: &StoreHandle,
    shard: usize,
) -> Result<Vec<InDoubtHold>, String> {
    let wal = read_shard_wal(store, shard)?;
    let decisions = read_decisions(store);
    let mut batches: BTreeMap<u64, Vec<Entry>> = BTreeMap::new();
    let mut seals: BTreeMap<u64, BatchSeal> = BTreeMap::new();
    for rec in wal.records() {
        match rec {
            WalRecord::Batch { seq, entries } => {
                batches.insert(*seq, entries.clone());
            }
            WalRecord::Result(seal) => {
                seals.insert(seal.seq, seal.clone());
            }
            _ => {}
        }
    }
    let mut holds: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    for (seq, entries) in &batches {
        let Some(seal) = seals.get(seq) else { continue };
        for (i, entry) in entries.iter().enumerate() {
            match entry.op {
                ShardOp::PrepareDebit { from, amount }
                    if seal.outcomes.get(i).is_some_and(|o| o.ok) =>
                {
                    holds.insert(entry.req, (from, amount));
                }
                ShardOp::RollbackDebit { .. } => {
                    holds.remove(&entry.req);
                }
                _ => {}
            }
        }
    }
    Ok(holds
        .into_iter()
        .map(|(req, (from, amount))| InDoubtHold {
            req,
            from,
            amount,
            decided: decisions.get(&req).copied(),
        })
        .collect())
}

/// Cold-restart 2PC resolution: keeps holds the coordinator decided to
/// commit, compensates the rest (presumed abort) with `RollbackDebit`
/// batches run through the normal durable path. Returns
/// `(committed, compensated)` counts.
///
/// # Errors
///
/// Propagates log-scan and batch-execution failures.
pub(crate) fn resolve_in_doubt(
    engine: &mut ShardEngine,
    store: &StoreHandle,
) -> Result<(u64, u64), ServeError> {
    let shard = engine.shard();
    let holds =
        in_doubt_holds(store, shard).map_err(|m| ServeError::Engine { shard, message: m })?;
    let mut committed = 0;
    let mut comp: Vec<Entry> = Vec::new();
    for h in holds {
        if h.decided == Some(true) {
            committed += 1;
        } else {
            comp.push(Entry {
                req: h.req,
                op: ShardOp::RollbackDebit { from: h.from, amount: h.amount },
            });
        }
    }
    let compensated = comp.len() as u64;
    for chunk in comp.chunks(engine.batch_capacity()) {
        match engine.run_batch_durable(chunk)? {
            DurableOutcome::Done(_) => {}
            DurableOutcome::Crashed(p) => {
                return Err(ServeError::Engine {
                    shard,
                    message: format!("crash injection fired at {p} during in-doubt resolution"),
                })
            }
        }
    }
    Ok((committed, compensated))
}
