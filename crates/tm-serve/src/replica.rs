//! Host-side replica groups: deterministic state-machine replication
//! over a shard's committed stream.
//!
//! Each replica bootstraps from the shard's WAL `Init` record (the
//! initial data span) and applies the write-sets of `Commit` records in
//! log order — no re-execution, no simulator. Because commit ordering
//! is deterministic, every healthy replica's span image and running
//! commit-log hash must equal the primary's `data_fnv`/`log_fnv` seal
//! fields at every batch boundary. Each epoch the group takes a quorum
//! vote over those two fingerprints (majority wins; ties break toward
//! the primary, which actually executed the transactions); a replica in
//! the minority is demoted and reported as a
//! [`ReplicaDiverged`](crate::ReplicaDiverged) incident rather than
//! silently serving corrupt state.

use crate::crash::ReplicaFault;
use crate::report::ReplicaDiverged;
use crate::wal::{BatchSeal, WalRecord};
use gpu_sim::rng::Fnv;

/// Span fingerprint with the exact folding `ShardEngine::data_fnv`
/// uses (each `u32` widened to `u64` before hashing), so a faithful
/// replica's hash is bit-equal to the primary's seal field.
fn fnv_words(words: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &w in words {
        h.u32_wide(w);
    }
    h.0
}

struct Replica {
    idx: usize,
    words: Vec<u32>,
    log_fnv: u64,
    applied: u64,
    alive: bool,
}

/// A group of host-side replicas shadowing one shard.
pub(crate) struct ReplicaGroup {
    shard: usize,
    base: u32,
    fault: Option<ReplicaFault>,
    members: Vec<Replica>,
}

impl ReplicaGroup {
    /// Builds `n` replicas of `shard` from the WAL `Init` record's data
    /// span (`base` = span base address, `words` = initial contents).
    pub(crate) fn new(
        shard: usize,
        base: u32,
        words: &[u32],
        n: usize,
        fault: Option<ReplicaFault>,
    ) -> ReplicaGroup {
        let members = (0..n)
            .map(|idx| Replica {
                idx,
                words: words.to_vec(),
                log_fnv: Fnv::new().0,
                applied: 0,
                alive: true,
            })
            .collect();
        ReplicaGroup { shard, base, fault, members }
    }

    /// Replicas still in the quorum.
    pub(crate) fn healthy(&self) -> usize {
        self.members.iter().filter(|r| r.alive).count()
    }

    /// Group size.
    pub(crate) fn total(&self) -> usize {
        self.members.len()
    }

    /// Re-bases every healthy replica on the primary's recovered state
    /// (data span, running log hash, commits applied). Used after a
    /// shard crash, when compaction may have dropped the WAL records a
    /// replay would need. Demoted replicas stay demoted.
    pub(crate) fn resync(&mut self, words: &[u32], log_fnv: u64, applied: u64) {
        for r in self.members.iter_mut().filter(|r| r.alive) {
            r.words = words.to_vec();
            r.log_fnv = log_fnv;
            r.applied = applied;
        }
    }

    /// Applies one batch's committed stream (the `Commit` WAL records,
    /// in commit order) to every healthy replica.
    pub(crate) fn ingest(&mut self, commits: &[WalRecord]) {
        for rec in commits {
            let WalRecord::Commit { req, tid, version, snapshot: _, reads, writes } = rec else {
                continue;
            };
            for r in self.members.iter_mut().filter(|r| r.alive) {
                r.applied += 1;
                // An injected fault silently drops the whole commit —
                // neither its writes nor its log-hash fold land, so the
                // replica diverges permanently and the epoch vote must
                // catch it regardless of what later commits overwrite.
                if self.fault.is_some_and(|f| {
                    f.shard == self.shard && f.replica == r.idx && f.at_commit == r.applied
                }) {
                    continue;
                }
                for &(addr, val) in writes {
                    let Some(slot) = addr.checked_sub(self.base).map(|o| o as usize) else {
                        continue;
                    };
                    if slot < r.words.len() {
                        r.words[slot] = val;
                    }
                }
                // Identical fold to `ShardEngine::make_seal`.
                let mut h = Fnv(r.log_fnv);
                h.u64(*req);
                h.u32_wide(*tid);
                h.u32_wide(*version);
                h.u32_wide(*reads);
                h.u32_wide(writes.len() as u32);
                r.log_fnv = h.0;
            }
        }
    }

    /// Epoch cross-check: quorum vote over `(data_fnv, log_fnv)` among
    /// the primary's seal and every healthy replica. Minority members
    /// are demoted and reported.
    pub(crate) fn check_epoch(&mut self, seal: &BatchSeal) -> Vec<ReplicaDiverged> {
        let primary = (seal.data_fnv, seal.log_fnv);
        let mut votes: Vec<(u64, u64)> = vec![primary];
        let states: Vec<(usize, (u64, u64))> = self
            .members
            .iter()
            .filter(|r| r.alive)
            .map(|r| (r.idx, (fnv_words(&r.words), r.log_fnv)))
            .collect();
        votes.extend(states.iter().map(|&(_, v)| v));
        // Majority value; ties break toward the primary, which is the
        // only member that actually executed the transactions.
        let mut winner = primary;
        let mut best = 0;
        for &v in &votes {
            let n = votes.iter().filter(|&&o| o == v).count();
            if n > best || (n == best && v == primary) {
                best = n;
                winner = v;
            }
        }
        let mut incidents = Vec::new();
        for (idx, got) in states {
            if got != winner {
                let r =
                    self.members.iter_mut().find(|r| r.idx == idx).expect("voted replica exists");
                r.alive = false;
                incidents.push(ReplicaDiverged {
                    shard: self.shard,
                    replica: idx,
                    seq: seal.seq,
                    expected_data_fnv: winner.0,
                    got_data_fnv: got.0,
                    expected_log_fnv: winner.1,
                    got_log_fnv: got.1,
                });
            }
        }
        incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EntryOutcome;

    fn commit(req: u64, addr: u32, val: u32) -> WalRecord {
        WalRecord::Commit {
            req,
            tid: 7,
            version: 1,
            snapshot: 0,
            reads: 1,
            writes: vec![(addr, val)],
        }
    }

    fn seal_for(group: &ReplicaGroup, seq: u64) -> BatchSeal {
        let r = &group.members[0];
        BatchSeal {
            seq,
            outcomes: vec![EntryOutcome { ok: true, value: 0 }],
            cycles: 10,
            commits: 1,
            aborts: 0,
            storm: false,
            data_fnv: fnv_words(&r.words),
            log_fnv: r.log_fnv,
        }
    }

    #[test]
    fn healthy_replicas_match_primary() {
        let mut g = ReplicaGroup::new(0, 100, &[5, 5, 5, 5], 3, None);
        g.ingest(&[commit(1, 101, 9), commit(2, 103, 2)]);
        let seal = seal_for(&g, 1);
        assert!(g.check_epoch(&seal).is_empty());
        assert_eq!(g.healthy(), 3);
        assert_eq!(g.members[1].words, vec![5, 9, 5, 2]);
    }

    #[test]
    fn injected_fault_is_demoted_with_incident() {
        let fault = ReplicaFault { shard: 0, replica: 1, at_commit: 2 };
        let mut g = ReplicaGroup::new(0, 100, &[5, 5, 5, 5], 3, Some(fault));
        g.ingest(&[commit(1, 101, 9), commit(2, 103, 2)]);
        // Replica 1 dropped its second commit; 0 and 2 are clean.
        let seal = seal_for(&g, 1);
        let incidents = g.check_epoch(&seal);
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!((inc.shard, inc.replica, inc.seq), (0, 1, 1));
        assert_ne!(inc.got_data_fnv, inc.expected_data_fnv);
        assert_eq!(g.healthy(), 2);
        // Demoted replicas drop out of later votes and ingestion.
        g.ingest(&[commit(3, 100, 1)]);
        assert_eq!(g.members[1].applied, 2);
        let seal2 = seal_for(&g, 2);
        assert!(g.check_epoch(&seal2).is_empty());
    }

    #[test]
    fn out_of_span_writes_are_ignored() {
        let mut g = ReplicaGroup::new(0, 100, &[5, 5], 1, None);
        g.ingest(&[commit(1, 99, 7), commit(2, 102, 7)]);
        assert_eq!(g.members[0].words, vec![5, 5]);
        assert_eq!(g.members[0].applied, 2);
    }
}

/// End-to-end replica fidelity against a real engine: this is the
/// non-vacuous guarantee behind the service-level "no incidents"
/// assertions — a replica applying the WAL feed must land bit-equal
/// on *both* seal fingerprints, batch after batch.
#[cfg(test)]
mod engine_fidelity {
    use super::*;
    use crate::engine::{DurableOutcome, EngineConfig, Entry, ShardEngine, ShardOp, WalParams};
    use crate::stm::EngineMode;
    use crate::wal::MemStore;
    use workloads::Variant;

    fn engine() -> ShardEngine {
        let cfg = EngineConfig {
            shard: 0,
            shards: 1,
            seed: 11,
            variant: Variant::HvSorting,
            mode: EngineMode::Scheduled,
            accounts: 64,
            table_words: 256,
            txl_words: 16,
            batch_warps: 1,
            initial_balance: 1000,
            credit_cap: u32::MAX,
            n_locks: 1 << 10,
            trace_events: 0,
            wal: Some(WalParams { segment_batches: 8, compact: false, crash: None }),
        };
        ShardEngine::with_store(cfg, Some(MemStore::shared())).unwrap()
    }

    #[test]
    fn replica_fingerprints_track_a_live_engine() {
        let mut eng = engine();
        let (base, words, _, _) = eng.replica_resync();
        let mut g = ReplicaGroup::new(0, base, &words, 2, None);

        for batch in 0..3u64 {
            let entries: Vec<Entry> = (0..8)
                .map(|i| Entry {
                    req: batch * 8 + i,
                    op: ShardOp::Transfer {
                        from: (batch as u32 * 8 + i as u32) % 64,
                        to: (batch as u32 * 8 + i as u32 + 7) % 64,
                        amount: 3,
                    },
                })
                .collect();
            let DurableOutcome::Done(_) = eng.run_batch_durable(&entries).unwrap() else {
                panic!("no crash armed")
            };
            let (commits, seal) = eng.replica_feed().unwrap();
            g.ingest(&commits);
            for r in &g.members {
                assert_eq!(fnv_words(&r.words), seal.data_fnv, "batch {batch}: data span");
                assert_eq!(r.log_fnv, seal.log_fnv, "batch {batch}: log hash");
            }
            assert!(g.check_epoch(&seal).is_empty());
        }
        assert_eq!(g.healthy(), 2);
    }

    #[test]
    fn dropped_commit_diverges_from_a_live_engine() {
        let mut eng = engine();
        let (base, words, _, _) = eng.replica_resync();
        let fault = ReplicaFault { shard: 0, replica: 0, at_commit: 2 };
        let mut g = ReplicaGroup::new(0, base, &words, 1, Some(fault));

        let entries: Vec<Entry> = (0..8)
            .map(|i| Entry {
                req: i,
                op: ShardOp::Transfer { from: i as u32, to: (i as u32 + 7) % 64, amount: 3 },
            })
            .collect();
        let DurableOutcome::Done(_) = eng.run_batch_durable(&entries).unwrap() else {
            panic!("no crash armed")
        };
        let (commits, seal) = eng.replica_feed().unwrap();
        assert!(commits.len() >= 2, "need at least 2 commits for the fault to fire");
        g.ingest(&commits);
        let incidents = g.check_epoch(&seal);
        assert_eq!(incidents.len(), 1);
        assert_eq!(g.healthy(), 0);
    }
}
