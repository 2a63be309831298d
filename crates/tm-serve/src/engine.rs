//! One shard: a dedicated simulator + STM instance executing batches.
//!
//! A [`ShardEngine`] owns a [`Sim`], one STM variant (wrapped per the
//! service's [`EngineMode`](crate::EngineMode)) and the shard's data
//! partition: a slice of the bank accounts (only the keys this shard
//! owns are funded), a private open-addressing hashtable, and a private
//! TXL counter array. Batches of warp-sized transactions arrive from
//! the service, run as one kernel launch each (plus one TXL launch when
//! the batch carries TXL programs), and report per-entry outcomes along
//! with the launch's simulated cycles — the quantum by which the
//! service advances its virtual epoch clock.
//!
//! Because `Sim` is `Rc`-based and not `Send`, engines are constructed
//! *on* their worker thread; only plain-data configs go in and only the
//! plain-data [`ShardSummary`] comes back out.

use crate::crash::{CrashPoint, ResolvedCrash};
use crate::error::ServeError;
use crate::route::route;
use crate::stm::{build_stm, EngineMode};
use crate::wal::{BatchSeal, Snapshot, StoreHandle, TaggedCommit, WalRecord, WalWriter};
use gpu_sim::rng::Fnv;
use gpu_sim::{Addr, LaunchConfig, Sim, SimConfig, SimStats, WARP_SIZE};
use gpu_stm::{
    lane_addrs, recorder_with_hook, CommittedTx, Pipeline, Recorder, Stm, StmConfig, TxStats,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use workloads::{mix64, AnyStm, Variant};

/// The TXL program served for `TxlBump` requests: a compiled
/// `atomic{}` read-modify-write on one counter cell. Public so
/// [`crate::ServeConfig::seed_from_txl`] can statically analyze the
/// program each shard will actually run.
pub const TXL_BUMP: &str = "
kernel bump(args: array, data: array) {
    let k = args[tid()];
    atomic {
        data[k] = data[k] + 1;
    }
}
";

/// Open-addressing probe bound; a put that clusters past this many
/// slots fails business-wise (the table is sized to make that rare).
const MAX_PROBE: u32 = 16;

/// Plain-data construction parameters for one shard engine
/// (`Send`, so the service can ship it to a worker thread).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// This shard's index.
    pub shard: usize,
    /// Total shards in the service (for routing ownership).
    pub shards: usize,
    /// Service seed (routing + initial state).
    pub seed: u64,
    /// STM variant to run.
    pub variant: Variant,
    /// Wrapper mode.
    pub mode: EngineMode,
    /// Bank account keyspace (global; this shard funds only its keys).
    pub accounts: u32,
    /// Hashtable slots (per shard).
    pub table_words: u32,
    /// TXL counter words (per shard).
    pub txl_words: u32,
    /// Warps per batch (batch capacity = `batch_warps × 32`).
    pub batch_warps: u32,
    /// Initial balance funded into every owned account.
    pub initial_balance: u32,
    /// Credit ceiling checked by cross-shard prepare-credit votes.
    pub credit_cap: u32,
    /// Global version locks for the STM.
    pub n_locks: u32,
    /// Flight-recorder trace-tap ring capacity (events per batch kept
    /// by the simulator and STM sinks). Zero disables event capture;
    /// tracing is pure observation either way, so cycle counts and
    /// report metrics are identical with or without it.
    pub trace_events: usize,
    /// Durability knobs; `None` runs the shard without a WAL.
    pub wal: Option<WalParams>,
}

/// Write-ahead-log knobs for one shard engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WalParams {
    /// Batches per WAL segment. Every `segment_batches`-th batch ends
    /// with a snapshot, a roll to a fresh segment, and (optionally)
    /// compaction of the pre-snapshot segments.
    pub segment_batches: u64,
    /// Delete pre-snapshot segments at each roll.
    pub compact: bool,
    /// Crash injection, if any. Recovered engines run with this
    /// disarmed so the same crash does not re-fire on replay.
    pub crash: Option<ResolvedCrash>,
}

impl Default for WalParams {
    fn default() -> Self {
        WalParams { segment_batches: 8, compact: true, crash: None }
    }
}

impl EngineConfig {
    /// Batch capacity in transaction slots.
    pub fn batch_capacity(&self) -> usize {
        self.batch_warps as usize * WARP_SIZE
    }
}

/// One transaction the service hands a shard.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardOp {
    /// Single-shard transfer (both keys owned here).
    Transfer {
        /// Debited account.
        from: u32,
        /// Credited account.
        to: u32,
        /// Amount.
        amount: u32,
    },
    /// 2PC phase 1 on the debit shard: apply a hold (debit now) if
    /// funds suffice; the commit outcome is the shard's vote.
    PrepareDebit {
        /// Debited account.
        from: u32,
        /// Amount.
        amount: u32,
    },
    /// 2PC phase 1 on the credit shard: a read-only capacity vote
    /// (`balance + amount ≤ credit_cap`).
    PrepareCredit {
        /// Credited account.
        to: u32,
        /// Amount.
        amount: u32,
    },
    /// 2PC phase 2: apply the credit after both shards voted yes.
    ApplyCredit {
        /// Credited account.
        to: u32,
        /// Amount.
        amount: u32,
    },
    /// 2PC phase 2: compensate the debit-shard hold after a no vote.
    RollbackDebit {
        /// Debited account (hold returned).
        from: u32,
        /// Amount.
        amount: u32,
    },
    /// Hashtable insert/update.
    HtPut {
        /// Key.
        key: u32,
        /// Value.
        val: u32,
    },
    /// Hashtable lookup.
    HtGet {
        /// Key.
        key: u32,
    },
    /// TXL `bump` program on one counter.
    TxlBump {
        /// Counter index (in the shard's TXL array).
        key: u32,
    },
}

/// One sealed batch entry: the op plus the client request it serves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Originating request id (`u64::MAX` for service-internal ops).
    pub req: u64,
    /// The transaction to run.
    pub op: ShardOp,
}

/// Outcome of one batch entry (every entry commits; `ok` is the
/// business-level result — funds sufficed, key found, vote yes).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryOutcome {
    /// Business success.
    pub ok: bool,
    /// Returned value (hashtable gets).
    pub value: u32,
}

/// Result of running one batch on a shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-entry outcomes, in batch order.
    pub outcomes: Vec<EntryOutcome>,
    /// Simulated cycles this batch took (ops launch + TXL launch).
    pub cycles: u64,
    /// Transactions committed during the batch.
    pub commits: u64,
    /// Aborted attempts during the batch.
    pub aborts: u64,
    /// Whether the shard's scheduler reports an abort storm.
    pub storm: bool,
    /// WAL sequence number the batch ran under (0 on volatile shards).
    pub seq: u64,
    /// Simulator events drained from the engine's flight-recorder tap
    /// (empty when `EngineConfig::trace_events` is 0). Replay of a
    /// logged batch regenerates the identical stream, so equality
    /// checks over reports remain valid under recovery.
    pub sim_events: Vec<gpu_sim::trace::SimEvent>,
    /// Transaction-lifecycle events drained from the STM's tap.
    pub tx_events: Vec<gpu_stm::trace::TxEvent>,
}

/// Outcome of a durable batch: either a report, or the point at which
/// injected crash-testing killed the worker (the engine must then be
/// dropped and recovered from its log).
#[derive(Clone, Debug)]
pub(crate) enum DurableOutcome {
    /// The batch ran, was sealed in the log, and was acknowledged.
    Done(BatchReport),
    /// The injected crash fired at this lifecycle point.
    Crashed(CrashPoint),
}

/// Plain-data end-of-run summary shipped back to the coordinator.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// STM variant label.
    pub stm_name: String,
    /// Transaction counters accumulated over the run.
    pub tx: TxStats,
    /// Simulator counters accumulated over every launch.
    pub sim: SimStats,
    /// Kernel launches executed.
    pub launches: u64,
    /// Simulated cycles summed over launches.
    pub sim_cycles: u64,
    /// Committed-history writers / read-only counts from `tm-check`.
    pub writers: usize,
    /// Read-only committed transactions verified.
    pub read_only: usize,
    /// `tm-check` violations (history replay + final state); empty
    /// means the served history is opaque-serializable.
    pub violations: Vec<String>,
    /// FNV-1a hash of the full committed history (tid, version,
    /// snapshot, read/write sets) — byte-identical across runs iff the
    /// shard executed identically.
    pub history_fnv: u64,
    /// FNV-1a hash of the request-tagged commit log built by the
    /// commit hook (request id + commit version, in commit order).
    pub commit_log_fnv: u64,
    /// Sum of all account balances in this shard's partition.
    pub balance_sum: u64,
    /// Sum of the shard's TXL counters (equals its completed bumps).
    pub txl_sum: u64,
}

/// Per-lane op encoding for the batch kernel.
#[derive(Copy, Clone, Default)]
struct LaneOp {
    /// 0 transfer, 1 prep-debit, 2 prep-credit, 3 apply-credit,
    /// 4 rollback-debit, 5 ht-put, 6 ht-get, 255 idle pad.
    kind: u8,
    a: u32,
    b: u32,
    amt: u32,
}

const K_IDLE: u8 = 255;

/// Folds one entry of the request-tagged commit log: the request a
/// committed transaction served plus its identity and set sizes.
/// Replicas fold the same words from `Commit` records.
fn fold_commit(h: &mut Fnv, req: u64, tx: &CommittedTx) {
    h.u64(req);
    h.u32_wide(tx.tid);
    h.u32_wide(tx.version.map_or(0, |v| v + 1));
    h.u32_wide(tx.reads.len() as u32);
    h.u32_wide(tx.writes.len() as u32);
}

/// One shard's engine. Lives on a worker thread for the whole run.
pub(crate) struct ShardEngine {
    cfg: EngineConfig,
    sim: Sim,
    stm: Rc<Pipeline<AnyStm>>,
    recorder: Recorder,
    /// Slot → request id for the launch in flight (read by the hook).
    tid_map: Rc<RefCell<Vec<u64>>>,
    /// Request id of every committed transaction, parallel to the
    /// recorder's `commits` (pushed by the hook at the commit point).
    commit_reqs: Rc<RefCell<Vec<u64>>>,
    accounts: Addr,
    ht_keys: Addr,
    ht_vals: Addr,
    txl_data: Addr,
    txl_args: Addr,
    txl_kernel: txl::Kernel,
    /// Snapshot of the data span after host initialisation.
    initial: Vec<u32>,
    span_base: u32,
    span_len: u32,
    txl_launch_seq: u64,
    /// Full-write-set WAL `Commit` records staged by the hook during a
    /// launch, drained into the log after each durable batch.
    wal_pending: Rc<RefCell<Vec<WalRecord>>>,
    /// Flight-recorder tap over simulator events, drained per batch.
    sim_trace: Option<gpu_sim::trace::TraceSink>,
    /// Flight-recorder tap over transaction-lifecycle events.
    tx_trace: Option<gpu_stm::trace::TxTraceSink>,
    dur: Option<EngineDur>,
}

/// Durability state of one shard engine.
struct EngineDur {
    wal: WalWriter,
    params: WalParams,
    /// Sequence number of the next batch (per shard, from 1).
    next_seq: u64,
    /// Seal of the most recent sealed batch, embedded in snapshots so
    /// a crash after compaction can still answer the coordinator.
    last_seal: Option<BatchSeal>,
    /// `Commit` records of the most recent batch, retained after the
    /// log flush so the worker can feed the shard's replica group.
    last_commits: Vec<WalRecord>,
    /// Commits already folded into `log_fnv_state`.
    log_folded: usize,
    /// Running FNV-1a over the request-tagged commit log.
    log_fnv_state: u64,
    /// Commits already appended to the history blob.
    history_flushed: usize,
}

impl ShardEngine {
    /// Builds the shard: allocates its data partition, funds its owned
    /// accounts, snapshots the initial state and instantiates the STM.
    #[cfg(test)]
    pub(crate) fn new(cfg: EngineConfig) -> Result<ShardEngine, ServeError> {
        ShardEngine::with_store(cfg, None)
    }

    /// Like [`new`](Self::new), but attaches a write-ahead log on
    /// `store` when the config carries [`WalParams`]. A fresh log gets
    /// an `Init` record (the initial data span, for replica bootstrap);
    /// an existing log is resumed at its tail, so recovery and fresh
    /// construction share this path.
    pub(crate) fn with_store(
        cfg: EngineConfig,
        store: Option<StoreHandle>,
    ) -> Result<ShardEngine, ServeError> {
        if cfg.shards == 0 || cfg.shard >= cfg.shards {
            return Err(ServeError::BadConfig(format!(
                "shard {} out of range for {} shards",
                cfg.shard, cfg.shards
            )));
        }
        let cap = cfg.batch_capacity() as u32;
        let data_words = cfg.accounts as u64
            + 2 * cfg.table_words as u64
            + (cfg.txl_words + cap) as u64
            + cap as u64;
        let mem = data_words + 2 * cfg.n_locks as u64 + cap as u64 * 64 + (1 << 16);
        let mut sim_cfg = SimConfig::with_memory(mem as usize);
        let sim_trace =
            (cfg.trace_events > 0).then(|| gpu_sim::trace::trace_sink(cfg.trace_events));
        if let Some(t) = &sim_trace {
            sim_cfg.trace = Some(Rc::clone(t));
        }
        let tx_trace =
            (cfg.trace_events > 0).then(|| gpu_stm::trace::tx_trace_sink(cfg.trace_events));
        let mut sim = Sim::new(sim_cfg);
        let se =
            |e: gpu_sim::SimError| ServeError::Engine { shard: cfg.shard, message: e.to_string() };
        let accounts = sim.alloc(cfg.accounts).map_err(se)?;
        let ht_keys = sim.alloc(cfg.table_words).map_err(se)?;
        let ht_vals = sim.alloc(cfg.table_words).map_err(se)?;
        // Counter words plus one private scratch word per batch slot so
        // idle pad lanes bump disjoint cells instead of contending.
        let txl_data = sim.alloc(cfg.txl_words + cap).map_err(se)?;
        let txl_args = sim.alloc(cap).map_err(se)?;

        for key in 0..cfg.accounts {
            if route(key, cfg.shards, cfg.seed) == cfg.shard {
                sim.write(accounts.offset(key), cfg.initial_balance);
            }
        }

        let span_base = accounts.index() as u32;
        let span_len = txl_args.index() as u32 + cap - span_base;
        let initial = sim.read_slice(Addr(span_base), span_len);

        let tid_map: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let commit_reqs: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let wal_pending: Rc<RefCell<Vec<WalRecord>>> = Rc::new(RefCell::new(Vec::new()));
        let wal_enabled: Rc<Cell<bool>> = Rc::new(Cell::new(false));
        let hook_map = Rc::clone(&tid_map);
        let hook_reqs = Rc::clone(&commit_reqs);
        let hook_pending = Rc::clone(&wal_pending);
        let hook_enabled = Rc::clone(&wal_enabled);
        let recorder = recorder_with_hook(Rc::new(move |tx: &CommittedTx| {
            let req = hook_map.borrow().get(tx.tid as usize).copied().unwrap_or(u64::MAX);
            hook_reqs.borrow_mut().push(req);
            if hook_enabled.get() {
                hook_pending.borrow_mut().push(WalRecord::Commit {
                    req,
                    tid: tx.tid,
                    version: tx.version.map_or(0, |v| v + 1),
                    snapshot: tx.snapshot,
                    reads: tx.reads.len() as u32,
                    writes: tx.writes.iter().map(|a| (a.addr.index() as u32, a.val)).collect(),
                });
            }
        }));

        let max_grid = LaunchConfig::new(cfg.batch_warps, WARP_SIZE as u32);
        let stm = build_stm(
            &mut sim,
            cfg.variant,
            cfg.mode,
            StmConfig::new(cfg.n_locks),
            span_len as u64,
            max_grid,
            Rc::clone(&recorder),
            tx_trace.clone(),
        )?;

        let program = txl::compile(TXL_BUMP)
            .map_err(|e| ServeError::BadConfig(format!("TXL bump program: {e}")))?;
        let txl_kernel = program
            .kernel("bump")
            .ok_or_else(|| ServeError::BadConfig("TXL bump kernel missing".into()))?
            .clone();

        let dur = match (&cfg.wal, store) {
            (Some(params), Some(store)) => {
                let fresh = store.list(&format!("s{:03}/", cfg.shard)).is_empty();
                let mut wal = WalWriter::open(store, cfg.shard)
                    .map_err(|m| ServeError::Engine { shard: cfg.shard, message: m })?;
                if fresh {
                    // Replica-bootstrap record: the data span only (the
                    // host-written TXL argument buffer at the end of the
                    // allocation is excluded, matching `data_fnv`).
                    let data_len = (txl_args.index() as u32 - span_base) as usize;
                    wal.append(&WalRecord::Init {
                        base: span_base,
                        words: initial[..data_len].to_vec(),
                    });
                }
                wal_enabled.set(true);
                Some(EngineDur {
                    wal,
                    params: *params,
                    next_seq: 1,
                    last_seal: None,
                    last_commits: Vec::new(),
                    log_folded: 0,
                    log_fnv_state: Fnv::new().0,
                    history_flushed: 0,
                })
            }
            (Some(_), None) => {
                return Err(ServeError::BadConfig(
                    "EngineConfig has WalParams but no blob store was provided".into(),
                ))
            }
            (None, _) => None,
        };

        Ok(ShardEngine {
            cfg,
            sim,
            stm: Rc::new(stm),
            recorder,
            tid_map,
            commit_reqs,
            accounts,
            ht_keys,
            ht_vals,
            txl_data,
            txl_args,
            txl_kernel,
            initial,
            span_base,
            span_len,
            txl_launch_seq: 0,
            wal_pending,
            sim_trace,
            tx_trace,
            dur,
        })
    }

    fn lane_op(op: ShardOp) -> LaneOp {
        match op {
            ShardOp::Transfer { from, to, amount } => {
                LaneOp { kind: 0, a: from, b: to, amt: amount }
            }
            ShardOp::PrepareDebit { from, amount } => {
                LaneOp { kind: 1, a: from, b: 0, amt: amount }
            }
            ShardOp::PrepareCredit { to, amount } => LaneOp { kind: 2, a: to, b: 0, amt: amount },
            ShardOp::ApplyCredit { to, amount } => LaneOp { kind: 3, a: to, b: 0, amt: amount },
            ShardOp::RollbackDebit { from, amount } => {
                LaneOp { kind: 4, a: from, b: 0, amt: amount }
            }
            ShardOp::HtPut { key, val } => LaneOp { kind: 5, a: key, b: val, amt: 0 },
            ShardOp::HtGet { key } => LaneOp { kind: 6, a: key, b: 0, amt: 0 },
            ShardOp::TxlBump { .. } => unreachable!("TXL entries run through the TXL launch"),
        }
    }

    /// Runs one sealed batch: at most one ops-kernel launch plus one
    /// TXL launch. Returns per-entry outcomes and the simulated cycles
    /// consumed (the service's epoch quantum).
    pub(crate) fn run_batch(&mut self, entries: &[Entry]) -> Result<BatchReport, ServeError> {
        assert!(
            entries.len() <= self.cfg.batch_capacity(),
            "batch of {} exceeds capacity {}",
            entries.len(),
            self.cfg.batch_capacity()
        );
        let stats0 = self.stm.stats().borrow().clone();
        let mut outcomes = vec![EntryOutcome::default(); entries.len()];
        let mut cycles = 0u64;

        let ops_idx: Vec<usize> = (0..entries.len())
            .filter(|&i| !matches!(entries[i].op, ShardOp::TxlBump { .. }))
            .collect();
        let txl_idx: Vec<usize> = (0..entries.len())
            .filter(|&i| matches!(entries[i].op, ShardOp::TxlBump { .. }))
            .collect();

        if !ops_idx.is_empty() {
            cycles += self.run_ops_launch(entries, &ops_idx, &mut outcomes)?;
        }
        if !txl_idx.is_empty() {
            cycles += self.run_txl_launch(entries, &txl_idx, &mut outcomes)?;
        }

        let stats1 = self.stm.stats().borrow().clone();
        let sim_events = self.sim_trace.as_ref().map_or_else(Vec::new, |t| t.borrow_mut().drain());
        let tx_events = self.tx_trace.as_ref().map_or_else(Vec::new, |t| t.borrow_mut().drain());
        Ok(BatchReport {
            outcomes,
            cycles,
            commits: stats1.commits - stats0.commits,
            aborts: stats1.aborts - stats0.aborts,
            storm: self.stm.abort_storm(),
            seq: self.dur.as_ref().map_or(0, |d| d.next_seq),
            sim_events,
            tx_events,
        })
    }

    // ---- durability ----------------------------------------------------

    fn dur_mut(&mut self) -> &mut EngineDur {
        self.dur.as_mut().expect("durable path invoked on a WAL-less engine")
    }

    /// Whether the injected crash (if any) fires for this shard at
    /// batch `seq`, point `point`.
    fn crash_fires(&self, seq: u64, point: CrashPoint) -> bool {
        self.dur
            .as_ref()
            .and_then(|d| d.params.crash)
            .is_some_and(|c| c.fires(self.cfg.shard, seq, point))
    }

    /// Sequence number the next durable batch will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.dur.as_ref().map_or(1, |d| d.next_seq)
    }

    /// Seal of the most recently sealed batch, if any.
    pub(crate) fn last_seal(&self) -> Option<&BatchSeal> {
        self.dur.as_ref().and_then(|d| d.last_seal.as_ref())
    }

    /// This engine's shard index.
    pub(crate) fn shard(&self) -> usize {
        self.cfg.shard
    }

    /// Batch capacity in transaction slots.
    pub(crate) fn batch_capacity(&self) -> usize {
        self.cfg.batch_capacity()
    }

    /// The most recent batch's committed stream plus its seal, for
    /// replica ingestion. `None` before the first sealed batch.
    pub(crate) fn replica_feed(&self) -> Option<(Vec<WalRecord>, BatchSeal)> {
        let dur = self.dur.as_ref()?;
        let seal = dur.last_seal.clone()?;
        Some((dur.last_commits.clone(), seal))
    }

    /// Full replica resynchronization payload: the current data span,
    /// the running commit-log hash and the commits applied so far.
    /// After a crash the group re-bases on this instead of replaying
    /// commits whose WAL records compaction may have dropped.
    pub(crate) fn replica_resync(&self) -> (u32, Vec<u32>, u64, u64) {
        let len = self.txl_args.index() as u32 - self.span_base;
        let words = self.sim.read_slice(Addr(self.span_base), len);
        let dur = self.dur.as_ref().expect("resync on a WAL-less engine");
        (self.span_base, words, dur.log_fnv_state, self.commit_reqs.borrow().len() as u64)
    }

    /// Runs one batch through the write-ahead protocol:
    /// log the batch → execute → log commits and the sealing result →
    /// snapshot cadence → acknowledge. Injected crash points interleave
    /// exactly at the protocol stage they name; on a crash the engine
    /// must be discarded and recovered from the store.
    pub(crate) fn run_batch_durable(
        &mut self,
        entries: &[Entry],
    ) -> Result<DurableOutcome, ServeError> {
        if self.dur.is_none() {
            return self.run_batch(entries).map(DurableOutcome::Done);
        }
        let seq = self.dur_mut().next_seq;
        let batch_rec = WalRecord::Batch { seq, entries: entries.to_vec() };
        if self.crash_fires(seq, CrashPoint::WalAppend) {
            let keep = batch_rec.encode().len() / 2;
            self.dur_mut().wal.append_torn(&batch_rec, keep);
            return Ok(DurableOutcome::Crashed(CrashPoint::WalAppend));
        }
        self.dur_mut().wal.append(&batch_rec);
        if self.crash_fires(seq, CrashPoint::PrePrepare) {
            return Ok(DurableOutcome::Crashed(CrashPoint::PrePrepare));
        }

        let report = self.run_and_seal(seq, entries)?;
        if self.crash_fires(seq, CrashPoint::PostPrepare) {
            return Ok(DurableOutcome::Crashed(CrashPoint::PostPrepare));
        }

        self.maybe_cadence(seq);
        if self.crash_fires(seq, CrashPoint::PreAck) {
            return Ok(DurableOutcome::Crashed(CrashPoint::PreAck));
        }
        self.dur_mut().next_seq = seq + 1;
        Ok(DurableOutcome::Done(report))
    }

    /// Executes a logged batch and makes its group durable: the
    /// hook-staged `Commit` records and the sealing `Result` go to the
    /// log as one append, and the commits are retained for replica
    /// feeding.
    fn run_and_seal(&mut self, seq: u64, entries: &[Entry]) -> Result<BatchReport, ServeError> {
        self.wal_pending.borrow_mut().clear();
        let report = self.run_batch(entries)?;
        let commits = std::mem::take(&mut *self.wal_pending.borrow_mut());
        let seal = self.make_seal(seq, &report);
        let dur = self.dur_mut();
        dur.wal.append_group(&commits, &seal);
        dur.last_commits = commits;
        dur.last_seal = Some(seal);
        Ok(report)
    }

    /// Folds the batch's new commit-log entries into the running log
    /// hash and builds the sealing [`BatchSeal`].
    fn make_seal(&mut self, seq: u64, report: &BatchReport) -> BatchSeal {
        let data_fnv = self.data_fnv();
        let history = self.recorder.borrow();
        let reqs = self.commit_reqs.borrow();
        assert_eq!(reqs.len(), history.commits.len(), "the hook tags every recorded commit");
        let dur = self.dur.as_mut().expect("make_seal on a WAL-less engine");
        let mut h = Fnv(dur.log_fnv_state);
        for (&req, tx) in reqs[dur.log_folded..].iter().zip(&history.commits[dur.log_folded..]) {
            fold_commit(&mut h, req, tx);
        }
        dur.log_folded = reqs.len();
        dur.log_fnv_state = h.0;
        BatchSeal {
            seq,
            outcomes: report.outcomes.clone(),
            cycles: report.cycles,
            commits: report.commits,
            aborts: report.aborts,
            storm: report.storm,
            data_fnv,
            log_fnv: h.0,
        }
    }

    /// Snapshot cadence: every `segment_batches`-th batch, append the
    /// commits since the previous cadence to the history blob, snapshot
    /// the engine at that history position, roll to a fresh segment,
    /// and (optionally) compact.
    fn maybe_cadence(&mut self, seq: u64) {
        let params = self.dur.as_ref().expect("cadence on a WAL-less engine").params;
        if !seq.is_multiple_of(params.segment_batches) {
            return;
        }
        {
            let history = self.recorder.borrow();
            let reqs = self.commit_reqs.borrow();
            let dur = self.dur.as_mut().expect("cadence on a WAL-less engine");
            let from = dur.history_flushed;
            dur.wal.append_history(&reqs[from..], &history.commits[from..]);
            dur.history_flushed = history.commits.len();
        }
        let snap = self.snapshot(seq);
        let dur = self.dur_mut();
        dur.wal.put_snapshot(&snap);
        dur.wal.roll();
        if params.compact {
            dur.wal.compact();
        }
    }

    /// FNV-1a over the device data span the committed stream owns —
    /// accounts, hashtable and TXL counters, *excluding* the
    /// host-written TXL argument buffer (replicas never see it).
    pub(crate) fn data_fnv(&self) -> u64 {
        let mut h = Fnv::new();
        for a in self.span_base..self.txl_args.index() as u32 {
            h.u32_wide(self.sim.read(Addr(a)));
        }
        h.0
    }

    /// Recovery replay of a *complete* logged group: re-executes the
    /// batch and verifies the regenerated commit stream and seal
    /// byte-for-byte against what the log recorded, without appending
    /// anything (the group is already durable).
    ///
    /// # Errors
    ///
    /// A mismatch means replay diverged from the pre-crash execution —
    /// the verified-recovery self-check failed.
    pub(crate) fn replay_verified(
        &mut self,
        seq: u64,
        entries: &[Entry],
        logged_commits: &[WalRecord],
        logged_seal: &BatchSeal,
    ) -> Result<BatchReport, ServeError> {
        let shard = self.cfg.shard;
        let fail = |m: String| ServeError::Engine { shard, message: m };
        self.wal_pending.borrow_mut().clear();
        let report = self.run_batch(entries)?;
        let regenerated = std::mem::take(&mut *self.wal_pending.borrow_mut());
        if regenerated != logged_commits {
            return Err(fail(format!(
                "replay of batch {seq} regenerated {} commit records, log has {} (diverged)",
                regenerated.len(),
                logged_commits.len()
            )));
        }
        let seal = self.make_seal(seq, &report);
        if seal != *logged_seal {
            return Err(fail(format!(
                "replay of batch {seq} produced a different seal (diverged)"
            )));
        }
        {
            let dur = self.dur_mut();
            dur.last_seal = Some(seal);
            dur.last_commits = regenerated;
        }
        self.maybe_cadence(seq);
        self.dur_mut().next_seq = seq + 1;
        Ok(report)
    }

    /// Recovery execution of a logged-but-unsealed batch (the worker
    /// died between logging the batch and sealing its result): runs it
    /// and completes the group exactly as the uncrashed flow would.
    pub(crate) fn execute_logged(
        &mut self,
        seq: u64,
        entries: &[Entry],
    ) -> Result<BatchReport, ServeError> {
        let report = self.run_and_seal(seq, entries)?;
        self.maybe_cadence(seq);
        self.dur_mut().next_seq = seq + 1;
        Ok(report)
    }

    // ---- snapshot / restore ----------------------------------------------

    /// The engine's fixed-size state after batch `seq`, at the history
    /// blob's current end (`maybe_cadence` has just flushed the history
    /// up to here).
    fn snapshot(&self, seq: u64) -> Snapshot {
        let dur = self.dur.as_ref().expect("snapshot on a WAL-less engine");
        let history = self.recorder.borrow();
        Snapshot {
            seq,
            sim: self.sim.checkpoint(),
            tx: self.stm.stats().borrow().clone(),
            sched: self.stm.checkpoint(),
            robust_rng: self.stm.rng_state(),
            aborts: history.aborts,
            commits: history.commits.len() as u64,
            log_fnv_state: dur.log_fnv_state,
            txl_launch_seq: self.txl_launch_seq,
            last_seal: dur.last_seal.clone(),
            history: dur.wal.history_pos(),
        }
    }

    /// Restores a snapshot and the history prefix it points at into
    /// this freshly constructed engine (same config ⇒ same deterministic
    /// device allocations).
    ///
    /// # Errors
    ///
    /// Fails when the snapshot was taken from a differently shaped
    /// engine or disagrees with the history about how much committed.
    pub(crate) fn restore(
        &mut self,
        snap: Snapshot,
        history: Vec<TaggedCommit>,
    ) -> Result<(), ServeError> {
        let shard = self.cfg.shard;
        let fail = |m: &str| ServeError::Engine { shard, message: format!("snapshot: {m}") };
        let fresh = self.sim.checkpoint();
        if snap.sim.memory.len() != fresh.memory.len()
            || snap.sim.cache.tags.len() != fresh.cache.tags.len()
            || snap.sim.cache.stamps.len() != fresh.cache.stamps.len()
        {
            return Err(fail("simulator image does not fit this engine's configuration"));
        }
        if snap.sched.is_some() != self.stm.checkpoint().is_some()
            || snap.robust_rng.is_some() != self.stm.rng_state().is_some()
        {
            return Err(fail("policy state does not match this engine's mode"));
        }
        if snap.commits != history.len() as u64 {
            return Err(fail("commit count disagrees with the history blob"));
        }
        let dur = self.dur.as_mut().ok_or_else(|| fail("restore on a WAL-less engine"))?;

        self.sim.restore_checkpoint(&snap.sim);
        *self.stm.stats().borrow_mut() = snap.tx;
        if let Some(sc) = &snap.sched {
            self.stm.restore_checkpoint(sc);
        }
        if let Some(rng) = snap.robust_rng {
            self.stm.restore_rng_state(rng);
        }
        let commits = history.len();
        let (reqs, txs) = history.into_iter().unzip();
        *self.commit_reqs.borrow_mut() = reqs;
        {
            let mut h = self.recorder.borrow_mut();
            h.commits = txs;
            h.aborts = snap.aborts;
        }
        self.txl_launch_seq = snap.txl_launch_seq;
        dur.next_seq = snap.seq + 1;
        dur.last_seal = snap.last_seal;
        dur.log_folded = commits;
        dur.log_fnv_state = snap.log_fnv_state;
        dur.history_flushed = commits;
        dur.wal.resume_history(snap.history);
        Ok(())
    }

    fn run_ops_launch(
        &mut self,
        entries: &[Entry],
        ops_idx: &[usize],
        outcomes: &mut [EntryOutcome],
    ) -> Result<u64, ServeError> {
        let n = ops_idx.len();
        let warps = n.div_ceil(WARP_SIZE) as u32;
        let grid = LaunchConfig::new(warps, WARP_SIZE as u32);
        let mut lane_ops =
            vec![LaneOp { kind: K_IDLE, ..LaneOp::default() }; (warps as usize) * WARP_SIZE];
        {
            let mut map = self.tid_map.borrow_mut();
            map.clear();
            map.resize(lane_ops.len(), u64::MAX);
            for (slot, &i) in ops_idx.iter().enumerate() {
                lane_ops[slot] = Self::lane_op(entries[i].op);
                map[slot] = entries[i].req;
            }
        }
        let lane_ops = Rc::new(lane_ops);
        let out: Rc<RefCell<Vec<EntryOutcome>>> =
            Rc::new(RefCell::new(vec![EntryOutcome::default(); lane_ops.len()]));

        let stm_k = Rc::clone(&self.stm);
        let ops_k = Rc::clone(&lane_ops);
        let out_k = Rc::clone(&out);
        let accounts = self.accounts;
        let ht_keys = self.ht_keys;
        let ht_vals = self.ht_vals;
        let table_words = self.cfg.table_words;
        let credit_cap = self.cfg.credit_cap;
        let report = self
            .sim
            .launch(grid, move |ctx| {
                let stm = Rc::clone(&stm_k);
                let ops = Rc::clone(&ops_k);
                let out = Rc::clone(&out_k);
                async move {
                    let base = ctx.id().thread_id(0) as usize;
                    let mut w = stm.new_warp();
                    let mut pending = ctx.id().launch_mask.filter(|l| ops[base + l].kind != K_IDLE);
                    ctx.set_speculative(true);
                    while pending.any() {
                        let active = stm.begin(&mut w, &ctx, pending).await;
                        if active.none() {
                            continue;
                        }
                        let op = |l: usize| ops[base + l];
                        let mut ok = [false; WARP_SIZE];
                        let mut val = [0u32; WARP_SIZE];
                        let mut wr1 = gpu_sim::LaneMask::EMPTY;
                        let mut wr1_a = [Addr::NULL; WARP_SIZE];
                        let mut wr1_v = [0u32; WARP_SIZE];
                        let mut wr2 = gpu_sim::LaneMask::EMPTY;
                        let mut wr2_a = [Addr::NULL; WARP_SIZE];
                        let mut wr2_v = [0u32; WARP_SIZE];

                        // Money ops: read source balance(s), then plan
                        // the debit/credit writes for live lanes.
                        let money = active.filter(|l| op(l).kind <= 4);
                        if money.any() {
                            let a1 = lane_addrs(money, |l| accounts.offset(op(l).a));
                            let v1 = stm.read(&mut w, &ctx, money, &a1).await;
                            let mut live = money & stm.opaque(&w);
                            let tr = live.filter(|l| op(l).kind == 0);
                            let mut v2 = [0u32; WARP_SIZE];
                            if tr.any() {
                                let a2 = lane_addrs(tr, |l| accounts.offset(op(l).b));
                                v2 = stm.read(&mut w, &ctx, tr, &a2).await;
                                live &= stm.opaque(&w);
                            }
                            for l in live.iter() {
                                let o = op(l);
                                let lane = gpu_sim::LaneMask::lane(l);
                                match o.kind {
                                    0 => {
                                        if v1[l] >= o.amt {
                                            wr1 |= lane;
                                            wr1_a[l] = accounts.offset(o.a);
                                            wr1_v[l] = v1[l] - o.amt;
                                            wr2 |= lane;
                                            wr2_a[l] = accounts.offset(o.b);
                                            wr2_v[l] = v2[l] + o.amt;
                                            ok[l] = true;
                                        }
                                    }
                                    1 => {
                                        if v1[l] >= o.amt {
                                            wr1 |= lane;
                                            wr1_a[l] = accounts.offset(o.a);
                                            wr1_v[l] = v1[l] - o.amt;
                                            ok[l] = true;
                                        }
                                    }
                                    2 => {
                                        ok[l] = v1[l] as u64 + o.amt as u64 <= credit_cap as u64;
                                    }
                                    _ => {
                                        // apply-credit / rollback-debit:
                                        // unconditional compensating add.
                                        wr1 |= lane;
                                        wr1_a[l] = accounts.offset(o.a);
                                        wr1_v[l] = v1[l] + o.amt;
                                        ok[l] = true;
                                    }
                                }
                            }
                        }

                        // Hashtable ops: shared linear-probe loop.
                        let ht =
                            active.filter(|l| op(l).kind == 5 || op(l).kind == 6) & stm.opaque(&w);
                        if ht.any() {
                            let mut slot = [0u32; WARP_SIZE];
                            for l in ht.iter() {
                                slot[l] = (mix64(op(l).a as u64) % table_words as u64) as u32;
                            }
                            let mut undecided = ht;
                            let mut found = gpu_sim::LaneMask::EMPTY;
                            for _ in 0..MAX_PROBE {
                                if undecided.none() {
                                    break;
                                }
                                let pa = lane_addrs(undecided, |l| ht_keys.offset(slot[l]));
                                let kv = stm.read(&mut w, &ctx, undecided, &pa).await;
                                undecided &= stm.opaque(&w);
                                let mut still = gpu_sim::LaneMask::EMPTY;
                                for l in undecided.iter() {
                                    let o = op(l);
                                    let lane = gpu_sim::LaneMask::lane(l);
                                    let tag = o.a + 1; // 0 marks an empty slot
                                    if kv[l] == 0 {
                                        if o.kind == 5 {
                                            wr1 |= lane;
                                            wr1_a[l] = ht_keys.offset(slot[l]);
                                            wr1_v[l] = tag;
                                            wr2 |= lane;
                                            wr2_a[l] = ht_vals.offset(slot[l]);
                                            wr2_v[l] = o.b;
                                            ok[l] = true;
                                        }
                                    } else if kv[l] == tag {
                                        if o.kind == 5 {
                                            wr2 |= lane;
                                            wr2_a[l] = ht_vals.offset(slot[l]);
                                            wr2_v[l] = o.b;
                                            ok[l] = true;
                                        } else {
                                            found |= lane;
                                            ok[l] = true;
                                        }
                                    } else {
                                        slot[l] = (slot[l] + 1) % table_words;
                                        still |= lane;
                                    }
                                }
                                undecided = still;
                            }
                            let getv = found & stm.opaque(&w);
                            if getv.any() {
                                let va = lane_addrs(getv, |l| ht_vals.offset(slot[l]));
                                let vv = stm.read(&mut w, &ctx, getv, &va).await;
                                for l in getv.iter() {
                                    val[l] = vv[l];
                                }
                            }
                        }

                        let w1 = wr1 & stm.opaque(&w);
                        if w1.any() {
                            stm.write(&mut w, &ctx, w1, &wr1_a, &wr1_v).await;
                        }
                        let w2 = wr2 & stm.opaque(&w);
                        if w2.any() {
                            stm.write(&mut w, &ctx, w2, &wr2_a, &wr2_v).await;
                        }
                        let committed = stm.commit(&mut w, &ctx, active).await;
                        for l in committed.iter() {
                            out.borrow_mut()[base + l] = EntryOutcome { ok: ok[l], value: val[l] };
                        }
                        pending &= !committed;
                    }
                    ctx.set_speculative(false);
                }
            })
            .map_err(|e| ServeError::Engine { shard: self.cfg.shard, message: e.to_string() })?;

        let slots = out.borrow();
        for (slot, &i) in ops_idx.iter().enumerate() {
            outcomes[i] = slots[slot];
        }
        Ok(report.cycles)
    }

    fn run_txl_launch(
        &mut self,
        entries: &[Entry],
        txl_idx: &[usize],
        outcomes: &mut [EntryOutcome],
    ) -> Result<u64, ServeError> {
        let n = txl_idx.len();
        let warps = n.div_ceil(WARP_SIZE) as u32;
        let grid = LaunchConfig::new(warps, WARP_SIZE as u32);
        let threads = (warps as usize) * WARP_SIZE;
        let mut args = vec![0u32; threads];
        {
            let mut map = self.tid_map.borrow_mut();
            map.clear();
            map.resize(threads, u64::MAX);
            for (slot, &i) in txl_idx.iter().enumerate() {
                let ShardOp::TxlBump { key } = entries[i].op else { unreachable!() };
                args[slot] = key;
                map[slot] = entries[i].req;
            }
            // Pad lanes bump a private scratch cell past the counters.
            for (slot, arg) in args.iter_mut().enumerate().skip(n) {
                *arg = self.cfg.txl_words + slot as u32;
            }
        }
        self.sim.write_slice(self.txl_args, &args);
        self.txl_launch_seq += 1;
        let seed = self.cfg.seed ^ self.txl_launch_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bindings = [
            txl::ArrayBinding::new("args", self.txl_args, threads as u32),
            txl::ArrayBinding::new(
                "data",
                self.txl_data,
                self.cfg.txl_words + self.cfg.batch_capacity() as u32,
            ),
        ];
        let report = txl::launch(&mut self.sim, &self.stm, &self.txl_kernel, grid, seed, &bindings)
            .map_err(|e| ServeError::Engine { shard: self.cfg.shard, message: e.to_string() })?;
        for &i in txl_idx {
            outcomes[i] = EntryOutcome { ok: true, value: 0 };
        }
        Ok(report.cycles)
    }

    /// Consumes the engine: verifies the served history with `tm-check`
    /// and returns the plain-data summary.
    pub(crate) fn finish(self) -> ShardSummary {
        let final_span = self.sim.read_slice(Addr(self.span_base), self.span_len);
        let initial_span = self.initial;
        let span_base = self.span_base;
        let span_len = self.span_len;
        let word = move |span: &[u32], a: Addr| -> u32 {
            let i = a.index() as u32;
            if i >= span_base && i < span_base + span_len {
                span[(i - span_base) as usize]
            } else {
                0
            }
        };
        let init_fn = {
            let init = initial_span.clone();
            move |a: Addr| word(&init, a)
        };
        let final_fn = {
            let fin = final_span.clone();
            move |a: Addr| word(&fin, a)
        };

        let history = self.recorder.borrow();
        // Final-state replay over everything the device owns except the
        // host-written TXL argument buffer.
        let data_end =
            self.txl_data.index() as u32 + self.cfg.txl_words + self.cfg.batch_capacity() as u32;
        let addrs = (self.accounts.index() as u32..data_end).map(Addr);
        let (check, final_state) =
            tm_check::check_history_and_final_state(&history, &init_fn, &final_fn, addrs);
        let violations: Vec<String> =
            check.violations.iter().chain(&final_state).map(|v| v.to_string()).collect();

        let mut hist_fnv = Fnv::new();
        hist_fnv.u64(history.aborts);
        for tx in &history.commits {
            hist_fnv.u32_wide(tx.tid);
            hist_fnv.u32_wide(tx.version.map_or(0, |v| v + 1));
            hist_fnv.u32_wide(tx.snapshot);
            hist_fnv.u32_wide(tx.reads.len() as u32);
            for a in &tx.reads {
                hist_fnv.u32_wide(a.addr.index() as u32);
                hist_fnv.u32_wide(a.val);
            }
            hist_fnv.u32_wide(tx.writes.len() as u32);
            for a in &tx.writes {
                hist_fnv.u32_wide(a.addr.index() as u32);
                hist_fnv.u32_wide(a.val);
            }
        }
        let mut log_fnv = Fnv::new();
        for (&req, tx) in self.commit_reqs.borrow().iter().zip(&history.commits) {
            fold_commit(&mut log_fnv, req, tx);
        }

        let acc_base = (self.accounts.index() as u32 - span_base) as usize;
        let balance_sum: u64 = final_span[acc_base..acc_base + self.cfg.accounts as usize]
            .iter()
            .map(|&v| v as u64)
            .sum();
        let txl_base = (self.txl_data.index() as u32 - span_base) as usize;
        let txl_sum: u64 = final_span[txl_base..txl_base + self.cfg.txl_words as usize]
            .iter()
            .map(|&v| v as u64)
            .sum();

        ShardSummary {
            shard: self.cfg.shard,
            stm_name: self.stm.name().to_string(),
            tx: self.stm.stats().borrow().clone(),
            sim: self.sim.lifetime_stats().clone(),
            launches: self.sim.launches(),
            sim_cycles: self.sim.lifetime_cycles(),
            writers: check.writers,
            read_only: check.read_only,
            violations,
            history_fnv: hist_fnv.0,
            commit_log_fnv: log_fnv.0,
            balance_sum,
            txl_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shard: usize, shards: usize) -> EngineConfig {
        EngineConfig {
            shard,
            shards,
            seed: 42,
            variant: Variant::HvSorting,
            mode: EngineMode::Scheduled,
            accounts: 64,
            table_words: 256,
            txl_words: 16,
            batch_warps: 2,
            initial_balance: 100,
            credit_cap: u32::MAX,
            n_locks: 1 << 10,
            trace_events: 0,
            wal: None,
        }
    }

    fn owned_key(cfg: &EngineConfig, skip: u32) -> u32 {
        let mut seen = 0;
        for k in 0..cfg.accounts {
            if route(k, cfg.shards, cfg.seed) == cfg.shard {
                if seen == skip {
                    return k;
                }
                seen += 1;
            }
        }
        panic!("shard owns fewer than {skip} keys");
    }

    #[test]
    fn single_shard_transfer_conserves_and_checks() {
        let c = cfg(0, 1);
        let mut eng = ShardEngine::new(c.clone()).unwrap();
        let a = owned_key(&c, 0);
        let b = owned_key(&c, 1);
        let entries = vec![
            Entry { req: 0, op: ShardOp::Transfer { from: a, to: b, amount: 30 } },
            Entry { req: 1, op: ShardOp::Transfer { from: b, to: a, amount: 5 } },
            Entry { req: 2, op: ShardOp::HtPut { key: 7, val: 99 } },
            Entry { req: 3, op: ShardOp::TxlBump { key: 3 } },
        ];
        let rep = eng.run_batch(&entries).unwrap();
        assert!(rep.outcomes[0].ok);
        assert!(rep.outcomes[1].ok);
        assert!(rep.outcomes[2].ok);
        assert!(rep.cycles > 0);
        // A later batch must observe the committed put.
        let rep2 = eng.run_batch(&[Entry { req: 4, op: ShardOp::HtGet { key: 7 } }]).unwrap();
        assert!(rep2.outcomes[0].ok, "get after a committed put must hit");
        assert_eq!(rep2.outcomes[0].value, 99);
        let sum = eng.finish();
        assert_eq!(sum.balance_sum, c.accounts as u64 * c.initial_balance as u64);
        assert_eq!(sum.txl_sum, 1);
        assert!(sum.violations.is_empty(), "violations: {:?}", sum.violations);
    }

    #[test]
    fn insufficient_funds_fails_without_side_effects() {
        let c = cfg(0, 1);
        let mut eng = ShardEngine::new(c.clone()).unwrap();
        let a = owned_key(&c, 0);
        let b = owned_key(&c, 1);
        let rep = eng
            .run_batch(&[Entry { req: 0, op: ShardOp::Transfer { from: a, to: b, amount: 1000 } }])
            .unwrap();
        assert!(!rep.outcomes[0].ok);
        let sum = eng.finish();
        assert_eq!(sum.balance_sum, c.accounts as u64 * c.initial_balance as u64);
        assert!(sum.violations.is_empty());
    }

    #[test]
    fn prepare_apply_and_rollback_paths() {
        let c = cfg(0, 1);
        let mut eng = ShardEngine::new(c.clone()).unwrap();
        let a = owned_key(&c, 0);
        // Phase 1: hold 40.
        let rep = eng
            .run_batch(&[Entry { req: 0, op: ShardOp::PrepareDebit { from: a, amount: 40 } }])
            .unwrap();
        assert!(rep.outcomes[0].ok);
        // Phase 2: compensate.
        let rep = eng
            .run_batch(&[Entry { req: 0, op: ShardOp::RollbackDebit { from: a, amount: 40 } }])
            .unwrap();
        assert!(rep.outcomes[0].ok);
        let sum = eng.finish();
        assert_eq!(sum.balance_sum, c.accounts as u64 * c.initial_balance as u64);
        assert!(sum.violations.is_empty());
    }

    #[test]
    fn credit_cap_vote_rejects() {
        let c = EngineConfig { credit_cap: 110, ..cfg(0, 1) };
        let mut eng = ShardEngine::new(c.clone()).unwrap();
        let a = owned_key(&c, 0);
        let ok_vote = eng
            .run_batch(&[Entry { req: 0, op: ShardOp::PrepareCredit { to: a, amount: 10 } }])
            .unwrap();
        assert!(ok_vote.outcomes[0].ok);
        let no_vote = eng
            .run_batch(&[Entry { req: 1, op: ShardOp::PrepareCredit { to: a, amount: 11 } }])
            .unwrap();
        assert!(!no_vote.outcomes[0].ok);
        let sum = eng.finish();
        assert_eq!(sum.balance_sum, c.accounts as u64 * c.initial_balance as u64);
    }

    #[test]
    fn identical_batches_yield_identical_history_hashes() {
        let run = || {
            let c = cfg(0, 1);
            let mut eng = ShardEngine::new(c.clone()).unwrap();
            let a = owned_key(&c, 0);
            let b = owned_key(&c, 1);
            let entries: Vec<Entry> = (0..40)
                .map(|i| Entry {
                    req: i,
                    op: if i % 3 == 0 {
                        ShardOp::Transfer { from: a, to: b, amount: 1 }
                    } else if i % 3 == 1 {
                        ShardOp::HtPut { key: i as u32, val: i as u32 }
                    } else {
                        ShardOp::TxlBump { key: (i % 16) as u32 }
                    },
                })
                .collect();
            eng.run_batch(&entries).unwrap();
            let s = eng.finish();
            (s.history_fnv, s.commit_log_fnv, s.balance_sum)
        };
        assert_eq!(run(), run());
    }
}
