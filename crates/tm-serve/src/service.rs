//! The multi-threaded transaction service: admission, routing, batch
//! sealing, the 2PC coordinator and the deterministic round loop.
//!
//! ## Determinism argument
//!
//! The coordinator advances a *virtual epoch clock* measured in
//! simulated cycles. Each round it (1) admits every request that has
//! arrived by the current epoch, (2) seals at most one warp-aligned
//! batch per shard (phase-2 entries first, then the admission queue in
//! FIFO order), (3) dispatches the batches to worker threads and
//! barriers on all of them, then (4) advances the epoch by the *maximum*
//! batch cycle count of the round — the shards ran concurrently in
//! virtual time — and processes outcomes in shard-index order. Every
//! step depends only on the request stream (seeded), routing (seeded
//! hash) and per-shard simulated cycle counts (deterministic per
//! engine), never on wall-clock time or thread interleaving: worker
//! threads are a pure execution resource. Hence a fixed seed yields a
//! byte-identical committed history and report for any worker count.

use crate::crash::{CrashPlan, ReplicaFault, ResolvedCrash};
use crate::engine::{
    BatchReport, DurableOutcome, EngineConfig, Entry, EntryOutcome, ShardEngine, ShardOp,
    ShardSummary, WalParams,
};
use crate::error::ServeError;
use crate::obs::{ObsConfig, ObsReport, ObsState};
use crate::recovery::{self, RecoveryStats};
use crate::replica::ReplicaGroup;
use crate::report::{ClassTotals, RecoveryReport, ServeReport, ShardReport};
use crate::request::{self, MixConfig, Op, Request};
use crate::stm::EngineMode;
use crate::wal::{append_decision, store_fingerprint, BatchSeal, MemStore, StoreHandle, WalRecord};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::Instant;
use workloads::Variant;

/// One batch's committed stream plus its seal, shipped to the
/// coordinator for replica ingestion.
type Feed = (Vec<WalRecord>, BatchSeal);

/// Replica re-base payload: `(span_base, span_words, log_fnv, applied)`.
type Resync = (u32, Vec<u32>, u64, u64);

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shards (engine instances).
    pub shards: usize,
    /// Worker threads carrying the shards (`0` = one per shard).
    pub workers: usize,
    /// STM variant every shard runs.
    pub variant: Variant,
    /// Wrapper mode (default: AIMD-scheduled).
    pub mode: EngineMode,
    /// Request mix and arrival process.
    pub mix: MixConfig,
    /// Service seed: routing, request generation, initial state.
    pub seed: u64,
    /// Bank account keyspace.
    pub accounts: u32,
    /// Hashtable slots per shard.
    pub table_words: u32,
    /// TXL counters per shard.
    pub txl_words: u32,
    /// Warps per sealed batch.
    pub batch_warps: u32,
    /// Bound on each shard's admission queue.
    pub queue_capacity: usize,
    /// Blocking admission: a request that would be rejected with
    /// [`ServeError::Overloaded`] parks in a coordinator-side FIFO
    /// instead and is re-offered each round until queue capacity
    /// frees — the serving-layer analogue of `gpu_stm::park`'s
    /// `retry()` (clients wait on the capacity condition rather than
    /// polling with retry-after hints). Parked depth is exported as a
    /// per-shard gauge and sustained depth opens a
    /// [`crate::obs::IncidentCause::ParkStorm`] incident.
    pub blocking: bool,
    /// Initial balance per owned account.
    pub initial_balance: u32,
    /// Credit ceiling for cross-shard prepare-credit votes.
    pub credit_cap: u32,
    /// Global version locks per shard STM.
    pub n_locks: u32,
    /// Safety cap on coordinator rounds.
    pub max_rounds: u64,
    /// Durability: write-ahead logging, snapshots, crash injection and
    /// replica groups. `None` serves from volatile state only.
    pub durability: Option<DurabilityConfig>,
    /// Live-observability knobs (windowed metrics, health incidents,
    /// flight recorder). The defaults are always-on and cheap.
    pub obs: ObsConfig,
}

/// Durability knobs for the service.
#[derive(Copy, Clone, Debug)]
pub struct DurabilityConfig {
    /// Batches per WAL segment; every `segment_batches`-th batch also
    /// snapshots the shard and rolls to a fresh segment.
    pub segment_batches: u64,
    /// Delete pre-snapshot segments at each roll.
    pub compact: bool,
    /// Host-side replicas per shard applying the committed stream
    /// (0 = replication off).
    pub replicas: usize,
    /// Coordinator rounds a crashed shard stays down before recovery
    /// runs. `0` recovers synchronously inside the crash round, which
    /// keeps the final report byte-identical to an uncrashed run; `> 0`
    /// opens a window in which admissions to the shard are rejected
    /// with [`ServeError::ShardUnavailable`].
    pub recovery_rounds: u64,
    /// Seeded kill-a-worker injection.
    pub crash: Option<CrashPlan>,
    /// Seeded silent-corruption injection into one replica.
    pub replica_fault: Option<ReplicaFault>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_batches: 8,
            compact: true,
            replicas: 0,
            recovery_rounds: 0,
            crash: None,
            replica_fault: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            workers: 0,
            variant: Variant::HvSorting,
            mode: EngineMode::Scheduled,
            mix: MixConfig::mixed(),
            seed: 42,
            accounts: 256,
            table_words: 1 << 10,
            txl_words: 64,
            batch_warps: 2,
            queue_capacity: 64,
            blocking: false,
            initial_balance: 1000,
            credit_cap: u32::MAX,
            n_locks: 1 << 12,
            max_rounds: 1 << 20,
            durability: None,
            obs: ObsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Worker threads carrying the shards (`workers == 0`: one per shard).
    fn worker_count(&self) -> usize {
        if self.workers == 0 {
            self.shards
        } else {
            self.workers.min(self.shards)
        }
    }

    /// Engine config for `shard`. `crash` arms the injected kill for
    /// the initial worker fleet; recovery rebuilds with `None` so the
    /// same crash cannot re-fire on replay.
    fn engine_config(&self, shard: usize, crash: Option<ResolvedCrash>) -> EngineConfig {
        EngineConfig {
            shard,
            shards: self.shards,
            seed: self.seed,
            variant: self.variant,
            mode: self.mode,
            accounts: self.accounts,
            table_words: self.table_words,
            txl_words: self.txl_words,
            batch_warps: self.batch_warps,
            initial_balance: self.initial_balance,
            credit_cap: self.credit_cap,
            n_locks: self.n_locks,
            trace_events: self.obs.flight_events,
            wal: self.durability.as_ref().map(|d| WalParams {
                segment_batches: d.segment_batches,
                compact: d.compact,
                crash,
            }),
        }
    }

    /// Checks the configuration without running it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::BadConfig("shards must be ≥ 1".into()));
        }
        if self.batch_warps == 0 {
            return Err(ServeError::BadConfig("batch_warps must be ≥ 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue_capacity must be ≥ 1".into()));
        }
        if self.accounts < 2 {
            return Err(ServeError::BadConfig("need at least 2 accounts".into()));
        }
        if let Some(d) = &self.durability {
            if d.segment_batches == 0 {
                return Err(ServeError::BadConfig("segment_batches must be ≥ 1".into()));
            }
            if d.replicas > self.shards {
                return Err(ServeError::BadConfig(format!(
                    "{} replicas per shard exceed the {}-shard budget",
                    d.replicas, self.shards
                )));
            }
            if let Some(plan) = &d.crash {
                if let Some(shard) = plan.shard {
                    if shard >= self.shards {
                        return Err(ServeError::BadConfig(format!(
                            "crash plan pins shard {shard}, but only {} shards exist",
                            self.shards
                        )));
                    }
                }
                if plan.after_batches == Some(u64::MAX) {
                    return Err(ServeError::BadConfig(
                        "crash plan after_batches overflows the batch sequence".into(),
                    ));
                }
            }
            if let Some(f) = &d.replica_fault {
                if f.shard >= self.shards {
                    return Err(ServeError::BadConfig(format!(
                        "replica fault targets shard {}, but only {} shards exist",
                        f.shard, self.shards
                    )));
                }
                if f.replica >= d.replicas {
                    return Err(ServeError::BadConfig(format!(
                        "replica fault targets replica {}, but groups have {}",
                        f.replica, d.replicas
                    )));
                }
                if f.at_commit == 0 {
                    return Err(ServeError::BadConfig(
                        "replica fault at_commit is 1-based; 0 never fires".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Validating constructor: returns the config only if
    /// [`validate`](Self::validate) passes.
    ///
    /// # Errors
    ///
    /// Propagates the validation failure.
    pub fn try_new(cfg: ServeConfig) -> Result<ServeConfig, ServeError> {
        cfg.validate()?;
        Ok(cfg)
    }

    /// Applies a `txl analyze` static profile to this config: the
    /// per-shard STM variant becomes the profile's top-ranked variant
    /// and the lock-table size its stripe recommendation — the acting
    /// half of the obs layer's sense/act split, applied before any
    /// traffic arrives.
    pub fn seed_from_profile(mut self, profile: &txl::StaticProfile) -> Self {
        self.variant = profile.recommended();
        self.n_locks = profile.stripes;
        self
    }

    /// Statically analyzes `src` at this config's modeled concurrency
    /// (`batch_warps` warps of 32 lanes) and seeds variant/stripes from
    /// the result via [`seed_from_profile`](Self::seed_from_profile).
    /// Pass [`crate::TXL_BUMP`] to seed from the program the engine
    /// actually serves for `TxlBump` requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] if `src` does not compile.
    pub fn seed_from_txl(self, src: &str) -> Result<Self, ServeError> {
        let cfg = txl::CostConfig { threads: self.batch_warps * 32, ..txl::CostConfig::default() };
        let profile = txl::analyze_source(src, &cfg)
            .map_err(|e| ServeError::BadConfig(format!("seed_from_txl: {e}")))?;
        Ok(self.seed_from_profile(&profile))
    }
}

/// Suggested retry delay (simulated cycles) for a client rejected by a
/// full queue: proportional to the backlog it must wait out, scaled up
/// 4× while the shard's AIMD scheduler reports an abort storm (commit
/// cost per entry is inflated and retrying early would feed the storm).
pub fn retry_after_hint(queue_len: usize, cost_per_entry: u64, storm: bool) -> u64 {
    let base = (queue_len as u64 + 1) * cost_per_entry.max(1);
    if storm {
        base * 4
    } else {
        base
    }
}

/// Request class, for per-class accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    BankLocal,
    BankCross,
    Ht,
    Txl,
}

/// One queued (admitted) shard transaction.
#[derive(Copy, Clone, Debug)]
struct QEntry {
    req: u64,
    arrival: u64,
    op: ShardOp,
    class: Class,
}

/// Coordinator-side 2PC record for one cross-shard transfer.
#[derive(Copy, Clone, Debug)]
struct Pending2pc {
    to: u32,
    from: u32,
    amount: u32,
    arrival: u64,
    debit_shard: usize,
    credit_shard: usize,
    debit_vote: Option<bool>,
    credit_vote: Option<bool>,
    /// Phase 2 already enqueued; awaiting its completion.
    resolved: bool,
}

/// The coordinator's per-shard state. Per-shard counters (rejections,
/// parks, storm rounds, folded commits and aborts) are not here: they
/// live in the obs registry, which the report reads.
#[derive(Default)]
struct ShardCtl {
    /// Adaptive cost estimate (cycles per entry) of the last folded
    /// batch; with `storm` it prices the retry-after hint.
    cost: u64,
    /// Whether the last folded batch reported an abort storm.
    storm: bool,
    queue_peak: u64,
    parked_depth_peak: u64,
    hint_peak: u64,
    /// Next engine batch sequence the shard expects (engines start at
    /// 1); lets recovery tell a durable batch from a torn one.
    dispatch_seq: u64,
    /// Crash-recovery window: `(rounds left, the batch the dead worker
    /// held)`. A shard inside one is down and rejects admissions.
    recovering: Option<(u64, Vec<QEntry>)>,
    /// A recovered batch whose report folds into the current round.
    prefilled: Option<(Vec<QEntry>, BatchReport)>,
    /// The replica group shadowing the shard, when replication is on.
    group: Option<ReplicaGroup>,
}

impl ShardCtl {
    fn down(&self) -> bool {
        self.recovering.is_some()
    }

    fn hint(&self, queue_len: usize) -> u64 {
        retry_after_hint(queue_len, self.cost, self.storm)
    }
}

/// Bounded per-shard admission queues plus the phase-2 priority lanes.
struct Admission {
    queues: Vec<VecDeque<QEntry>>,
    phase2: Vec<VecDeque<QEntry>>,
    capacity: usize,
    shards: usize,
    seed: u64,
}

impl Admission {
    fn new(shards: usize, capacity: usize, seed: u64) -> Self {
        Admission {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            phase2: (0..shards).map(|_| VecDeque::new()).collect(),
            capacity,
            shards,
            seed,
        }
    }

    fn overloaded(&self, shard: usize, ctl: &ShardCtl) -> ServeError {
        let queue_len = self.queues[shard].len();
        let retry_after = ctl.hint(queue_len);
        ServeError::Overloaded { shard, queue_len, capacity: self.capacity, retry_after }
    }

    /// Admits `req`, or reports the structured rejection: `Overloaded`
    /// when a queue is full, `ShardUnavailable` when a shard is inside
    /// its crash-recovery window (same backlog-proportional hint, because
    /// the client's best move is identical — wait out the queue). A
    /// cross-shard transfer returns the 2PC record it opens.
    fn try_admit(
        &mut self,
        req: &Request,
        ctl: &[ShardCtl],
    ) -> Result<Option<Pending2pc>, ServeError> {
        let (primary, secondary) = req.op.shards(self.shards, self.seed);
        if let Some(&shard) = [Some(primary), secondary].iter().flatten().find(|&&s| ctl[s].down())
        {
            let retry_after = ctl[shard].hint(self.queues[shard].len());
            return Err(ServeError::ShardUnavailable { shard, retry_after });
        }
        let entry = |op, class| QEntry { req: req.id, arrival: req.arrival, op, class };
        match (req.op, secondary) {
            (Op::Transfer { from, to, amount }, Some(credit_shard)) => {
                let debit_shard = primary;
                // Cross-shard admission is atomic: both prepare lanes
                // must have room or the request is rejected whole.
                for s in [debit_shard, credit_shard] {
                    if self.queues[s].len() >= self.capacity {
                        return Err(self.overloaded(s, &ctl[s]));
                    }
                }
                let prepare_debit = ShardOp::PrepareDebit { from, amount };
                let prepare_credit = ShardOp::PrepareCredit { to, amount };
                self.queues[debit_shard].push_back(entry(prepare_debit, Class::BankCross));
                self.queues[credit_shard].push_back(entry(prepare_credit, Class::BankCross));
                Ok(Some(Pending2pc {
                    to,
                    from,
                    amount,
                    arrival: req.arrival,
                    debit_shard,
                    credit_shard,
                    debit_vote: None,
                    credit_vote: None,
                    resolved: false,
                }))
            }
            (op, _) => {
                let shard = primary;
                if self.queues[shard].len() >= self.capacity {
                    return Err(self.overloaded(shard, &ctl[shard]));
                }
                let (op, class) = match op {
                    Op::Transfer { from, to, amount } => {
                        (ShardOp::Transfer { from, to, amount }, Class::BankLocal)
                    }
                    Op::HtPut { key, val } => (ShardOp::HtPut { key, val }, Class::Ht),
                    Op::HtGet { key } => (ShardOp::HtGet { key }, Class::Ht),
                    Op::TxlBump { key } => (ShardOp::TxlBump { key }, Class::Txl),
                };
                self.queues[shard].push_back(entry(op, class));
                Ok(None)
            }
        }
    }

    /// Seals at most one batch for `shard`: phase-2 entries first (they
    /// hold resources on other shards), then FIFO admissions.
    fn seal(&mut self, shard: usize, capacity: usize) -> Vec<QEntry> {
        let mut out = Vec::new();
        for lane in [&mut self.phase2[shard], &mut self.queues[shard]] {
            let take = (capacity - out.len()).min(lane.len());
            out.extend(lane.drain(..take));
        }
        out
    }

    fn idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty()) && self.phase2.iter().all(|q| q.is_empty())
    }
}

enum ToWorker {
    Run {
        shard: usize,
        entries: Vec<Entry>,
    },
    /// Rebuild a crashed shard from its WAL (config arrives with crash
    /// injection disarmed).
    Recover {
        shard: usize,
        cfg: Box<EngineConfig>,
    },
    Finish {
        shard: usize,
    },
}

enum FromWorker {
    /// Engine constructed; `boot` carries the replica-bootstrap payload
    /// when replication is on.
    Ready {
        shard: usize,
        boot: Option<Box<Resync>>,
    },
    Fatal {
        shard: usize,
        message: String,
    },
    /// Injected crash fired: the engine is gone; only its WAL survives.
    Crashed {
        shard: usize,
    },
    Batch {
        shard: usize,
        report: BatchReport,
        feed: Option<Box<Feed>>,
    },
    Recovered {
        shard: usize,
        stats: Box<RecoveryStats>,
        /// Highest durable batch sequence (0 = none) and its report.
        last_seq: u64,
        report: Option<BatchReport>,
        resync: Option<Box<Resync>>,
    },
    Summary {
        shard: usize,
        summary: Box<ShardSummary>,
    },
}

fn worker_main(
    cfgs: Vec<EngineConfig>,
    store: Option<StoreHandle>,
    feed_replicas: bool,
    rx: mpsc::Receiver<ToWorker>,
    tx: mpsc::Sender<FromWorker>,
) {
    let mut engines: BTreeMap<usize, ShardEngine> = BTreeMap::new();
    for cfg in cfgs {
        let shard = cfg.shard;
        match ShardEngine::with_store(cfg, store.clone()) {
            Ok(e) => {
                let boot = feed_replicas.then(|| Box::new(e.replica_resync()));
                engines.insert(shard, e);
                let _ = tx.send(FromWorker::Ready { shard, boot });
            }
            Err(e) => {
                let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
            }
        }
    }
    for msg in rx {
        match msg {
            ToWorker::Run { shard, entries } => {
                let Some(engine) = engines.get_mut(&shard) else {
                    let _ = tx.send(FromWorker::Fatal { shard, message: "no engine".into() });
                    continue;
                };
                match engine.run_batch_durable(&entries) {
                    Ok(DurableOutcome::Done(report)) => {
                        let feed =
                            feed_replicas.then(|| engine.replica_feed().map(Box::new)).flatten();
                        let _ = tx.send(FromWorker::Batch { shard, report, feed });
                    }
                    Ok(DurableOutcome::Crashed(_point)) => {
                        // Simulated worker death: the engine (and all
                        // volatile state) is discarded; the blob store
                        // is the only survivor.
                        engines.remove(&shard);
                        let _ = tx.send(FromWorker::Crashed { shard });
                    }
                    Err(e) => {
                        let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
                    }
                }
            }
            ToWorker::Recover { shard, cfg } => {
                let Some(store) = store.clone() else {
                    let _ = tx
                        .send(FromWorker::Fatal { shard, message: "recover without store".into() });
                    continue;
                };
                match recovery::recover(*cfg, store) {
                    Ok(rec) => {
                        let (last_seq, report) = match rec.last {
                            Some((seq, rep)) => (seq, Some(rep)),
                            None => (0, None),
                        };
                        let resync = feed_replicas.then(|| Box::new(rec.engine.replica_resync()));
                        engines.insert(shard, rec.engine);
                        let _ = tx.send(FromWorker::Recovered {
                            shard,
                            stats: Box::new(rec.stats),
                            last_seq,
                            report,
                            resync,
                        });
                    }
                    Err(e) => {
                        let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
                    }
                }
            }
            ToWorker::Finish { shard } => {
                if let Some(engine) = engines.remove(&shard) {
                    let summary = Box::new(engine.finish());
                    let _ = tx.send(FromWorker::Summary { shard, summary });
                }
            }
        }
    }
}

/// The worker threads carrying the shards: shard `s` lives on worker
/// `s % workers`. Dropping the pool closes every worker's channel and
/// joins the threads, so a run shuts it down on every exit path.
struct Pool {
    senders: Vec<mpsc::Sender<ToWorker>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    results: mpsc::Receiver<FromWorker>,
}

impl Pool {
    fn spawn(
        cfg: &ServeConfig,
        store: Option<StoreHandle>,
        crash: Option<ResolvedCrash>,
        feed_replicas: bool,
    ) -> Pool {
        let workers = cfg.worker_count();
        let (res_tx, results) = mpsc::channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let cfgs: Vec<EngineConfig> = (0..cfg.shards)
                .filter(|s| s % workers == w)
                .map(|s| cfg.engine_config(s, crash))
                .collect();
            let (tx, rx) = mpsc::channel();
            let res = res_tx.clone();
            let st = store.clone();
            handles.push(std::thread::spawn(move || worker_main(cfgs, st, feed_replicas, rx, res)));
            senders.push(tx);
        }
        Pool { senders, handles, results }
    }

    /// Sends `msg` to the worker carrying `shard`.
    fn send(&self, shard: usize, msg: ToWorker) -> Result<(), ServeError> {
        self.senders[shard % self.senders.len()]
            .send(msg)
            .map_err(|_| ServeError::Engine { shard, message: "worker thread died".into() })
    }

    /// The next worker message. A `Fatal` report or a dead pool is an
    /// engine error.
    fn recv(&self) -> Result<FromWorker, ServeError> {
        match self.results.recv() {
            Ok(FromWorker::Fatal { shard, message }) => Err(ServeError::Engine { shard, message }),
            Ok(msg) => Ok(msg),
            Err(_) => Err(ServeError::Engine { shard: 0, message: "worker pool died".into() }),
        }
    }

    /// Closes every worker's channel and joins the threads.
    fn shutdown(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A dispatched batch as the round barrier received it: the report plus
/// the committed stream for replica ingestion (none for a batch that
/// recovery resolved, whose replay already fed the group).
type Landed = (BatchReport, Option<Feed>);

/// The round loop's state. Each numbered stage of the determinism
/// argument (module docs) is one method; `Service::run_inner` is the
/// loop over them.
struct Coordinator<'a> {
    cfg: &'a ServeConfig,
    store: Option<StoreHandle>,
    pool: Pool,
    wall_start: Instant,
    requests: Vec<Request>,
    /// Index of the first request not yet offered.
    next_arr: usize,
    adm: Admission,
    /// Windowed metrics, health incidents and the flight recorder, all
    /// driven by the epoch clock; also the one home of every per-shard
    /// counter the report carries.
    obs: ObsState,
    ctl: Vec<ShardCtl>,
    /// Cross-shard transfers from admission to phase-2 completion.
    inflight: BTreeMap<u64, Pending2pc>,
    /// Blocking admission: requests waiting, in arrival order, for queue
    /// capacity, each tagged with the shard that last refused it (for
    /// depth attribution).
    parked: VecDeque<(Request, usize)>,
    rec: RecoveryReport,
    epoch: u64,
    rounds: u64,
    parked_peak: u64,
    admitted: u64,
    cross_admitted: u64,
    rollbacks: u64,
    ht_value_sum: u64,
    first_rejection: Option<ServeError>,
    /// `(class, ok, latency)` per completed request.
    completed: Vec<(Class, bool, u64)>,
}

impl<'a> Coordinator<'a> {
    /// Spawns the pool and waits for every shard engine to come up,
    /// building replica groups from their bootstrap payloads.
    fn start(cfg: &'a ServeConfig, store: Option<StoreHandle>) -> Result<Self, ServeError> {
        cfg.validate()?;
        let dur = cfg.durability.unwrap_or_default();
        let crash = dur.crash.as_ref().map(|p| p.resolve(cfg.shards));
        let requests =
            request::generate(&cfg.mix, cfg.accounts, cfg.txl_words, cfg.shards, cfg.seed);
        let wall_start = Instant::now();
        let pool = Pool::spawn(cfg, store.clone(), crash, dur.replicas > 0);
        let mut ctl: Vec<ShardCtl> = (0..cfg.shards)
            .map(|_| ShardCtl { cost: 500, dispatch_seq: 1, ..ShardCtl::default() })
            .collect();
        let mut ready = 0;
        while ready < cfg.shards {
            if let FromWorker::Ready { shard, boot } = pool.recv()? {
                if let Some(b) = boot {
                    let (base, words, _, _) = *b;
                    let group =
                        ReplicaGroup::new(shard, base, &words, dur.replicas, dur.replica_fault);
                    ctl[shard].group = Some(group);
                }
                ready += 1;
            }
        }
        let (variant, mode) = (cfg.variant.short_name(), cfg.mode.short_name());
        Ok(Coordinator {
            cfg,
            store,
            pool,
            wall_start,
            requests,
            next_arr: 0,
            adm: Admission::new(cfg.shards, cfg.queue_capacity, cfg.seed),
            obs: ObsState::new(cfg.obs.clone(), cfg.shards, variant, mode, cfg.seed),
            ctl,
            inflight: BTreeMap::new(),
            parked: VecDeque::new(),
            rec: RecoveryReport::default(),
            epoch: 0,
            rounds: 0,
            parked_peak: 0,
            admitted: 0,
            cross_admitted: 0,
            rollbacks: 0,
            ht_value_sum: 0,
            first_rejection: None,
            completed: Vec::new(),
        })
    }

    /// Stage 0: progress crash-recovery windows. A shard whose window
    /// has elapsed is rebuilt from its WAL now, and the batch its dead
    /// worker held folds into this round.
    fn recovery_windows(&mut self) -> Result<(), ServeError> {
        for s in 0..self.ctl.len() {
            match &mut self.ctl[s].recovering {
                Some((left, _)) if *left > 0 => *left -= 1,
                Some(_) => {
                    let (_, entries) = self.ctl[s].recovering.take().expect("shard is recovering");
                    let report = self.recover(s, &entries)?;
                    self.obs.on_recovered(s, self.rounds, self.epoch);
                    self.ctl[s].prefilled = Some((entries, report));
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Stage 1: re-offer parked requests (they arrived first, so they go
    /// ahead of the round's new arrivals), then admit everything that
    /// has arrived by the current epoch. With blocking admission an
    /// `Overloaded` outcome parks the request at the back of the wait
    /// FIFO instead of rejecting it.
    fn admit(&mut self) {
        let mut offers: Vec<(Request, bool)> =
            self.parked.drain(..).map(|(r, _)| (r, true)).collect();
        while let Some(&r) = self.requests.get(self.next_arr).filter(|r| r.arrival <= self.epoch) {
            offers.push((r, false));
            self.next_arr += 1;
        }
        for (r, was_parked) in offers {
            match self.adm.try_admit(&r, &self.ctl) {
                Ok(pending) => {
                    self.admitted += 1;
                    if let Some(p) = pending {
                        self.cross_admitted += 1;
                        self.inflight.insert(r.id, p);
                    }
                }
                Err(ServeError::Overloaded { shard, .. }) if self.cfg.blocking => {
                    if !was_parked {
                        self.obs.on_park(shard);
                    }
                    self.parked.push_back((r, shard));
                }
                Err(e) => {
                    if let ServeError::Overloaded { shard, retry_after, .. }
                    | ServeError::ShardUnavailable { shard, retry_after } = e
                    {
                        let peak = &mut self.ctl[shard].hint_peak;
                        *peak = (*peak).max(retry_after);
                        self.obs.on_reject(shard, retry_after);
                    }
                    if matches!(e, ServeError::ShardUnavailable { .. }) {
                        self.rec.unavailable_rejections += 1;
                    }
                    self.first_rejection.get_or_insert(e);
                }
            }
        }
        for (c, queue) in self.ctl.iter_mut().zip(&self.adm.queues) {
            c.queue_peak = c.queue_peak.max(queue.len() as u64);
        }
        self.parked_peak = self.parked_peak.max(self.parked.len() as u64);
        for s in 0..self.ctl.len() {
            let depth = self.parked.iter().filter(|&&(_, p)| p == s).count() as u64;
            self.ctl[s].parked_depth_peak = self.ctl[s].parked_depth_peak.max(depth);
            self.obs.on_park_depth(s, depth, self.rounds, self.epoch);
        }
    }

    /// Stage 2: seal one batch per shard. Down shards hold their queues;
    /// a prefilled shard's batch for this round is the one its recovery
    /// just resolved.
    fn seal(&mut self) -> Vec<Vec<QEntry>> {
        let cap = self.cfg.batch_warps as usize * gpu_sim::WARP_SIZE;
        let (ctl, adm) = (&self.ctl, &mut self.adm);
        (0..ctl.len())
            .map(|s| {
                if ctl[s].down() || ctl[s].prefilled.is_some() {
                    Vec::new()
                } else {
                    adm.seal(s, cap)
                }
            })
            .collect()
    }

    /// A round with nothing to run: burn a round of an open recovery
    /// window or jump the epoch clock to the next arrival. `Ok(true)`
    /// once the service has drained.
    fn idle(&mut self) -> Result<bool, ServeError> {
        if self.ctl.iter().any(ShardCtl::down) {
            return Ok(false);
        }
        if let Some(next) = self.requests.get(self.next_arr) {
            self.epoch = self.epoch.max(next.arrival);
            self.obs.roll_to(self.epoch);
            return Ok(false);
        }
        if self.inflight.is_empty() && self.adm.idle() && self.parked.is_empty() {
            return Ok(true);
        }
        Err(ServeError::Stalled { rounds: self.rounds })
    }

    /// Stage 3: dispatch the sealed batches and barrier on all of them.
    /// An injected crash surfaces as a `Crashed` message in place of the
    /// batch report; the shard then recovers synchronously inside this
    /// round (`recovery_rounds = 0`, which keeps the report byte-identical
    /// to an uncrashed run) or opens an unavailability window that holds
    /// its batch.
    fn dispatch(&mut self, sealed: &mut [Vec<QEntry>]) -> Result<Vec<Option<Landed>>, ServeError> {
        let mut pending = 0;
        for (s, entries) in sealed.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
            self.run(s, entries)?;
            pending += 1;
        }
        let mut landed: Vec<Option<Landed>> = (0..sealed.len()).map(|_| None).collect();
        let mut crashed = Vec::new();
        for _ in 0..pending {
            match self.pool.recv()? {
                FromWorker::Batch { shard, report, feed } => {
                    landed[shard] = Some((report, feed.map(|f| *f)));
                }
                FromWorker::Crashed { shard } => crashed.push(shard),
                _ => {}
            }
        }
        crashed.sort_unstable();
        let recovery_rounds = self.cfg.durability.map_or(0, |d| d.recovery_rounds);
        for s in crashed {
            // Cut the crash bundle off the coordinator's view: the WAL
            // position the shard must resume at and the store
            // fingerprint at the moment of death.
            let store_fnv = self.store.as_ref().map_or(0, |st| store_fingerprint(st).0);
            let replicas_up = self.ctl[s].group.as_ref().is_some_and(|g| g.healthy() > 0);
            let seq = self.ctl[s].dispatch_seq;
            let (round, epoch) = (self.rounds, self.epoch);
            self.obs.on_crash(s, round, epoch, seq, store_fnv, recovery_rounds, replicas_up);
            if recovery_rounds == 0 {
                landed[s] = Some((self.recover(s, &sealed[s])?, None));
            } else {
                self.ctl[s].recovering = Some((recovery_rounds, std::mem::take(&mut sealed[s])));
            }
        }
        Ok(landed)
    }

    /// Stage 4: advance virtual time by the slowest shard of the round
    /// (shards execute concurrently in virtual time) and fold outcomes
    /// back in deterministic shard order. A shard's fold comes from its
    /// recovered prefill or its report; a shard that just went down
    /// contributes neither.
    fn fold(&mut self, sealed: Vec<Vec<QEntry>>, landed: Vec<Option<Landed>>) {
        let mut folds = Vec::new();
        for (s, (entries, landed)) in sealed.into_iter().zip(landed).enumerate() {
            if let Some((entries, report)) = self.ctl[s].prefilled.take() {
                folds.push((s, entries, report, None));
            } else if let Some((report, feed)) = landed {
                folds.push((s, entries, report, feed));
            }
        }
        let quantum = folds.iter().map(|(_, _, r, _)| r.cycles).max().unwrap_or(0);
        self.epoch += quantum.max(1);
        self.obs.roll_to(self.epoch);
        for (s, entries, mut report, feed) in folds {
            self.ctl[s].dispatch_seq += 1;
            self.ingest(s, feed);
            let c = &mut self.ctl[s];
            c.cost = (report.cycles / entries.len().max(1) as u64).max(1);
            c.storm = report.storm;
            self.obs.on_gauges(s, self.adm.queues[s].len() as u64, c.cost);
            self.obs.on_batch(s, self.rounds, self.epoch, &mut report);
            for (q, out) in entries.iter().zip(&report.outcomes) {
                self.complete(q, out);
            }
            let c = &mut self.ctl[s];
            c.hint_peak = c.hint_peak.max(c.hint(self.adm.queues[s].len()));
        }
    }

    /// Books one folded entry: a 2PC vote, or a request's completion.
    fn complete(&mut self, q: &QEntry, out: &EntryOutcome) {
        let latency = self.epoch - q.arrival;
        match q.op {
            ShardOp::PrepareDebit { .. } => {
                if let Some(p) = self.inflight.get_mut(&q.req) {
                    p.debit_vote = Some(out.ok);
                }
            }
            ShardOp::PrepareCredit { .. } => {
                if let Some(p) = self.inflight.get_mut(&q.req) {
                    p.credit_vote = Some(out.ok);
                }
            }
            ShardOp::ApplyCredit { .. } | ShardOp::RollbackDebit { .. } => {
                self.inflight.remove(&q.req).expect("phase 2 without a 2PC record");
                let applied = matches!(q.op, ShardOp::ApplyCredit { .. });
                self.rollbacks += u64::from(!applied);
                self.completed.push((Class::BankCross, applied, latency));
            }
            _ => {
                if matches!(q.op, ShardOp::HtGet { .. }) && out.ok {
                    self.ht_value_sum += out.value as u64;
                }
                self.completed.push((q.class, out.ok, latency));
            }
        }
    }

    /// Stage 5: resolve 2PC records with both votes in (`BTreeMap` order
    /// keeps this deterministic). The decision is logged before phase 2
    /// can touch any shard — a crash between them leaves a hold that
    /// cold recovery resolves from the log. Phase-2 entries bypass the
    /// admission bound: they release held resources.
    fn resolve_2pc(&mut self) {
        let ready: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, p)| !p.resolved && p.debit_vote.is_some() && p.credit_vote.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            let p = self.inflight.get_mut(&id).expect("just listed");
            let (shard, op) = match (p.debit_vote, p.credit_vote) {
                (Some(true), Some(true)) => {
                    (p.credit_shard, ShardOp::ApplyCredit { to: p.to, amount: p.amount })
                }
                (Some(true), _) => {
                    (p.debit_shard, ShardOp::RollbackDebit { from: p.from, amount: p.amount })
                }
                _ => {
                    // No hold was applied; the transfer just fails.
                    let arrival = p.arrival;
                    self.inflight.remove(&id);
                    self.completed.push((Class::BankCross, false, self.epoch - arrival));
                    continue;
                }
            };
            p.resolved = true;
            if let Some(store) = &self.store {
                append_decision(store, id, matches!(op, ShardOp::ApplyCredit { .. }));
            }
            let entry = QEntry { req: id, arrival: p.arrival, op, class: Class::BankCross };
            self.adm.phase2[shard].push_back(entry);
        }
    }

    /// Ships a sealed batch to shard `s`'s worker.
    fn run(&self, s: usize, entries: &[QEntry]) -> Result<(), ServeError> {
        let entries = entries.iter().map(|q| Entry { req: q.req, op: q.op }).collect();
        self.pool.send(s, ToWorker::Run { shard: s, entries })
    }

    /// Feeds one batch's committed stream to shard `s`'s replica group
    /// and runs the epoch vote; every replica it demotes is reported.
    fn ingest(&mut self, s: usize, feed: Option<Feed>) {
        let (Some(g), Some((records, seal))) = (self.ctl[s].group.as_mut(), feed) else {
            return;
        };
        g.ingest(&records);
        for d in g.check_epoch(&seal) {
            self.obs.on_diverged(s, self.rounds, self.epoch, d.replica as u64);
            self.rec.diverged.push(d);
        }
    }

    /// Recovery protocol for one crashed shard, run after the round
    /// barrier has drained every other in-flight message: rebuild the
    /// engine from its WAL (crash disarmed), re-base the replica group on
    /// the recovered state, then resolve the batch the dead worker never
    /// acknowledged — answered from the log if it was sealed durably,
    /// re-dispatched to the recovered engine otherwise.
    fn recover(&mut self, s: usize, entries: &[QEntry]) -> Result<BatchReport, ServeError> {
        let proto = |m: String| ServeError::Engine { shard: s, message: m };
        let cfg = Box::new(self.cfg.engine_config(s, None));
        self.pool.send(s, ToWorker::Recover { shard: s, cfg })?;
        let (last_seq, report, resync) = match self.pool.recv()? {
            FromWorker::Recovered { shard, stats, last_seq, report, resync } if shard == s => {
                self.rec.recoveries.push(*stats);
                (last_seq, report, resync)
            }
            _ => return Err(proto("unexpected message during shard recovery".into())),
        };
        if let (Some(g), Some(r)) = (self.ctl[s].group.as_mut(), resync) {
            let (_base, words, log_fnv, applied) = *r;
            g.resync(&words, log_fnv, applied);
        }
        let expect_seq = self.ctl[s].dispatch_seq;
        if last_seq == expect_seq {
            // The crashed batch was already durable; the log answers for
            // the dead worker. Replicas were re-based past it above.
            self.rec.replayed_acks += 1;
            return report.ok_or_else(|| proto("durable batch has no replayable report".into()));
        }
        if last_seq + 1 != expect_seq {
            return Err(proto(format!(
                "recovered log at batch {last_seq} cannot resume coordinator batch {expect_seq}"
            )));
        }
        // The batch never became durable (torn or pre-execution crash):
        // re-dispatch the same sealed entries to the recovered engine.
        self.run(s, entries)?;
        match self.pool.recv()? {
            FromWorker::Batch { shard, report, feed } if shard == s => {
                self.ingest(s, feed.map(|f| *f));
                Ok(report)
            }
            _ => Err(proto("unexpected message during recovery re-dispatch".into())),
        }
    }

    /// Drain complete: collect the shard summaries, join the workers,
    /// and build the serve and recovery reports. Every per-shard counter
    /// the reports carry is read from the obs registry.
    fn finish(mut self) -> Result<(ServeReport, RecoveryReport), ServeError> {
        for s in 0..self.ctl.len() {
            self.pool.send(s, ToWorker::Finish { shard: s })?;
        }
        let mut summaries: Vec<Option<ShardSummary>> = self.ctl.iter().map(|_| None).collect();
        let mut got = 0;
        while got < summaries.len() {
            if let FromWorker::Summary { shard, summary } = self.pool.recv()? {
                summaries[shard] = Some(*summary);
                got += 1;
            }
        }
        self.pool.shutdown();
        let wall_seconds = self.wall_start.elapsed().as_secs_f64();

        // Finalize the durability report: replica census, then the store
        // fingerprint (taken after every worker has joined, so all WAL
        // writes are in).
        let groups = || self.ctl.iter().filter_map(|c| c.group.as_ref());
        self.rec.replicas_per_shard = groups().map(|g| g.total() as u64).max().unwrap_or(0);
        self.rec.replicas_healthy = groups().map(|g| g.healthy() as u64).sum();
        if let Some(store) = &self.store {
            (self.rec.store_fnv, self.rec.store_bytes) = store_fingerprint(store);
        }
        let summaries: Vec<ShardSummary> =
            summaries.into_iter().map(|s| s.expect("collected all")).collect();
        for (s, sum) in summaries.iter().enumerate() {
            self.obs.on_violations(s, self.rounds, self.epoch, sum.violations.len() as u64);
        }
        assert_eq!(
            self.completed.len() as u64,
            self.admitted,
            "every admitted request must complete exactly once (no loss, no duplication)"
        );

        let obs = self.obs.report(self.epoch);
        let shard_reports: Vec<ShardReport> = summaries
            .into_iter()
            .zip(&self.ctl)
            .zip(&obs.snapshot.shards)
            .enumerate()
            .map(|(s, ((sum, c), o))| ShardReport {
                shard: s,
                stm_name: sum.stm_name,
                commits: sum.tx.commits,
                aborts: sum.tx.aborts,
                read_only: sum.read_only as u64,
                writers: sum.writers as u64,
                launches: sum.launches,
                sim_cycles: sum.sim_cycles,
                instructions: sum.sim.instructions,
                balance_sum: sum.balance_sum,
                txl_sum: sum.txl_sum,
                rejected: o.rejected.total,
                parked: o.parked.total,
                parked_depth_peak: c.parked_depth_peak,
                queue_peak: c.queue_peak,
                storm_rounds: o.storm_rounds.total,
                retry_hint_peak: c.hint_peak,
                retry_hint_final: retry_after_hint(0, c.cost, false),
                history_fnv: sum.history_fnv,
                commit_log_fnv: sum.commit_log_fnv,
                retry_after: o.retry_after.clone(),
                violations: sum.violations,
            })
            .collect();
        self.rec.incidents = self.obs.recovery_incidents();
        self.rec.bundles = self.obs.recovery_bundles();
        Ok((self.report(shard_reports, obs, wall_seconds), self.rec))
    }

    /// The serve report over the per-shard reports and the obs block.
    fn report(&self, shard_reports: Vec<ShardReport>, obs: ObsReport, wall: f64) -> ServeReport {
        let cfg = self.cfg;
        let done = &self.completed;
        let count = |class| done.iter().filter(|(c, ..)| *c == class).count() as u64;
        let mut latencies: Vec<u64> = done.iter().map(|&(_, _, l)| l).collect();
        latencies.sort_unstable();
        // Conservation: money only moves between accounts; every shard
        // funds its owned keys with `initial_balance`.
        let balance_total: u64 = shard_reports.iter().map(|r| r.balance_sum).sum();
        let txl_done = done.iter().filter(|(c, ok, _)| *c == Class::Txl && *ok).count() as u64;
        let txl_total: u64 = shard_reports.iter().map(|r| r.txl_sum).sum();
        ServeReport {
            variant: cfg.variant.short_name().to_string(),
            mode: cfg.mode.short_name().to_string(),
            shards: cfg.shards as u64,
            workers: cfg.worker_count() as u64,
            seed: cfg.seed,
            queue_capacity: cfg.queue_capacity as u64,
            batch_capacity: (cfg.batch_warps as usize * gpu_sim::WARP_SIZE) as u64,
            offered: self.requests.len() as u64,
            admitted: self.admitted,
            rejected: shard_reports.iter().map(|r| r.rejected).sum(),
            parked: shard_reports.iter().map(|r| r.parked).sum(),
            parked_peak: self.parked_peak,
            completed: done.len() as u64,
            business_failed: done.iter().filter(|(_, ok, _)| !ok).count() as u64,
            cross_shard: self.cross_admitted,
            rollbacks: self.rollbacks,
            classes: ClassTotals {
                bank_local: count(Class::BankLocal),
                bank_cross: count(Class::BankCross),
                ht: count(Class::Ht),
                txl: count(Class::Txl),
            },
            ht_get_value_sum: self.ht_value_sum,
            rounds: self.rounds,
            virtual_cycles: self.epoch,
            latencies,
            conserved: balance_total == cfg.accounts as u64 * cfg.initial_balance as u64,
            txl_consistent: txl_done == txl_total,
            violations_total: shard_reports.iter().map(|r| r.violations.len()).sum(),
            first_rejection: self.first_rejection.clone(),
            shard_reports,
            obs,
            wall_seconds: wall,
        }
    }
}

/// The transaction service entry point.
pub struct Service;

impl Service {
    /// Runs the full service lifecycle for `cfg`: generate the request
    /// stream, serve it to completion (drain), verify every shard's
    /// history with `tm-check`, and aggregate the report. With
    /// durability configured, the run logs to a private in-memory store
    /// (use [`run_durable`](Self::run_durable) to supply your own and
    /// get the recovery report back).
    pub fn run(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
        if cfg.durability.is_some() {
            return Self::run_durable(cfg, MemStore::shared()).map(|(r, _)| r);
        }
        Self::run_inner(cfg, None).map(|(r, _)| r)
    }

    /// Like [`run`](Self::run), but logs to `store` (which must be
    /// empty — restarting a whole service from an existing store goes
    /// through recovery, not `run`) and returns the durability report
    /// alongside the serve report. Requires `cfg.durability`.
    pub fn run_durable(
        cfg: &ServeConfig,
        store: StoreHandle,
    ) -> Result<(ServeReport, RecoveryReport), ServeError> {
        if cfg.durability.is_none() {
            return Err(ServeError::BadConfig("run_durable needs cfg.durability".into()));
        }
        if !store.list("").is_empty() {
            return Err(ServeError::BadConfig("run_durable needs an empty blob store".into()));
        }
        Self::run_inner(cfg, Some(store))
    }

    /// Cold restart after total coordinator loss: rebuilds every shard
    /// engine from `store` (latest snapshot plus WAL tail), resolves
    /// in-doubt cross-shard holds against the coordinator decision log
    /// (commit if a decision was logged, compensate otherwise —
    /// presumed abort), and returns each shard's recovery stats with
    /// its final verified summary. Requires `cfg.durability`; the
    /// config must match the one that produced the store.
    pub fn cold_recover(
        cfg: &ServeConfig,
        store: StoreHandle,
    ) -> Result<Vec<(RecoveryStats, ShardSummary)>, ServeError> {
        cfg.validate()?;
        if cfg.durability.is_none() {
            return Err(ServeError::BadConfig("cold_recover needs cfg.durability".into()));
        }
        let mut out = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let mut rec = recovery::recover(cfg.engine_config(s, None), store.clone())?;
            let (committed, compensated) = recovery::resolve_in_doubt(&mut rec.engine, &store)?;
            rec.stats.in_doubt_committed = committed;
            rec.stats.in_doubt_compensated = compensated;
            out.push((rec.stats, rec.engine.finish()));
        }
        Ok(out)
    }

    /// The round loop: one iteration per coordinator round, one
    /// [`Coordinator`] method per stage of the determinism argument.
    fn run_inner(
        cfg: &ServeConfig,
        store: Option<StoreHandle>,
    ) -> Result<(ServeReport, RecoveryReport), ServeError> {
        let mut c = Coordinator::start(cfg, store)?;
        loop {
            c.rounds += 1;
            if c.rounds > cfg.max_rounds {
                return Err(ServeError::Stalled { rounds: c.rounds });
            }
            c.recovery_windows()?;
            c.admit();
            let mut sealed = c.seal();
            if sealed.iter().all(Vec::is_empty) && c.ctl.iter().all(|s| s.prefilled.is_none()) {
                if c.idle()? {
                    break;
                }
                continue;
            }
            let landed = c.dispatch(&mut sealed)?;
            c.fold(sealed, landed);
            c.resolve_2pc();
        }
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, op: Op) -> Request {
        Request { id, arrival: id + 1, op }
    }

    #[test]
    fn try_admit_reports_structured_overload() {
        let shards = 1;
        let mut adm = Admission::new(shards, 2, 7);
        let ctl = [ShardCtl { cost: 100, ..ShardCtl::default() }];
        for i in 0..2 {
            adm.try_admit(&req(i, Op::TxlBump { key: i as u32 }), &ctl).unwrap();
        }
        let err = adm.try_admit(&req(9, Op::TxlBump { key: 0 }), &ctl).unwrap_err();
        match err {
            ServeError::Overloaded { shard, queue_len, capacity, retry_after } => {
                assert_eq!(shard, 0);
                assert_eq!(queue_len, 2);
                assert_eq!(capacity, 2);
                assert_eq!(retry_after, retry_after_hint(2, 100, false));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn storm_inflates_and_clearing_shrinks_the_hint() {
        let calm = retry_after_hint(4, 200, false);
        let stormy = retry_after_hint(4, 200, true);
        assert_eq!(stormy, calm * 4);
        assert!(retry_after_hint(0, 200, false) < stormy);
    }

    #[test]
    fn cross_shard_admission_is_atomic() {
        // Find a cross-shard pair under seed 7 with 2 shards.
        let seed = 7;
        let (from, to) = (0..64)
            .flat_map(|a| (0..64).map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b && crate::route(a, 2, seed) == 0 && crate::route(b, 2, seed) == 1
            })
            .expect("some cross pair exists");
        let mut adm = Admission::new(2, 1, seed);
        let ctl = [
            ShardCtl { cost: 10, ..ShardCtl::default() },
            ShardCtl { cost: 10, ..ShardCtl::default() },
        ];
        // Fill the credit shard's queue.
        let filler = (0..64).find(|&k| crate::route(k, 2, seed) == 1).unwrap();
        adm.try_admit(&req(0, Op::TxlBump { key: filler }), &ctl).unwrap();
        // The cross-shard transfer must be rejected whole: debit queue
        // stays empty rather than holding an orphaned prepare.
        let err = adm.try_admit(&req(1, Op::Transfer { from, to, amount: 1 }), &ctl).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { shard: 1, .. }));
        assert!(adm.queues[0].is_empty());
    }

    #[test]
    fn seal_prefers_phase2() {
        let mut adm = Admission::new(1, 8, 1);
        adm.try_admit(&req(0, Op::TxlBump { key: 0 }), &[ShardCtl::default()]).unwrap();
        adm.phase2[0].push_back(QEntry {
            req: 99,
            arrival: 0,
            op: ShardOp::ApplyCredit { to: 1, amount: 2 },
            class: Class::BankCross,
        });
        let sealed = adm.seal(0, 8);
        assert_eq!(sealed[0].req, 99);
        assert_eq!(sealed[1].req, 0);
    }

    #[test]
    fn small_end_to_end_run_drains_and_checks() {
        let cfg = ServeConfig {
            shards: 2,
            mix: MixConfig { requests: 96, ..MixConfig::mixed() },
            accounts: 64,
            table_words: 512,
            txl_words: 16,
            n_locks: 1 << 10,
            ..ServeConfig::default()
        };
        let report = Service::run(&cfg).unwrap();
        assert_eq!(report.completed, report.admitted);
        assert!(report.conserved, "bank balance not conserved");
        assert!(report.txl_consistent, "txl counters disagree with completions");
        assert_eq!(report.violations_total, 0);
        assert!(report.virtual_cycles > 0);
    }
}
