//! Per-shard write-ahead commit log, committed-history blob and engine
//! snapshots — the one module that knows the on-store format.
//!
//! Every shard writes through a [`BlobStore`] — an
//! append/put/get/list/delete abstraction over named byte blobs with
//! two implementations: [`MemStore`] (in-process, for tests and for
//! crash-injection runs where the "disk" must survive a simulated
//! worker death) and [`DirStore`] (a directory of real files).
//!
//! ## Layout
//!
//! ```text
//! s{shard:03}/wal-{segment:08}   log segments, records appended in order
//! s{shard:03}/hist               committed history, append-only: one
//!                                delta frame per snapshot cadence
//! s{shard:03}/snap-{seq:08}      engine image after batch `seq` plus its
//!                                position in `hist`
//! coord/decisions                coordinator 2PC decision log
//! ```
//!
//! ## Framing
//!
//! Every record, history delta and snapshot is one frame,
//! `[MAGIC u32][kind u8][len u32][payload][fnv u64]`, all
//! little-endian; the trailing FNV-1a covers `kind`, `len` and the
//! payload. A frame that is incomplete or whose checksum fails is
//! *torn* — legal only as the final record of the final WAL segment (a
//! crash mid-append), where recovery truncates it. Encoding is fully
//! deterministic, so a healed store is byte-identical to one written by
//! a crash-free run.
//!
//! The record stream per batch is: one [`WalRecord::Batch`] (the sealed
//! entries, written *before* execution), then — in a single append
//! after execution — the batch's [`WalRecord::Commit`] records
//! (request-tagged write-sets captured by the commit hook) and the
//! [`WalRecord::Result`] sealing the group. A batch whose `Result` is
//! present is durable; replay verifies re-execution against it.
//!
//! ## History and snapshots
//!
//! The committed history (every transaction's request tag, read-set
//! and write-set, which `tm-check` verifies at the end of the run)
//! grows with the run, so it is written exactly once: at each snapshot
//! cadence the commits since the previous cadence are appended to
//! `hist` as one delta frame, and the [`Snapshot`] that follows holds
//! only fixed-size state plus the [`HistoryPos`] it corresponds to.
//! Bytes in `hist` past the latest snapshot's position are a crash
//! between those two writes; recovery drops them and the replayed
//! cadence appends the identical delta again.

use crate::engine::{Entry, EntryOutcome, ShardOp};
use gpu_sim::rng::Fnv;
use gpu_sim::{Addr, CacheCheckpoint, SimCheckpoint, SimStats};
use gpu_stm::{Access, CommittedTx, SchedulerCheckpoint, TxStats};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Frame marker preceding every WAL record.
pub(crate) const MAGIC: u32 = 0x57414C31; // "WAL1"

/// Blob name of the coordinator's 2PC decision log.
pub(crate) const DECISIONS: &str = "coord/decisions";

/// Named-blob storage backing the WAL: the minimal object-store surface
/// (append-only segments plus whole-blob put/get) that both an
/// in-process map and a directory of files can provide.
pub trait BlobStore: Send + Sync {
    /// Creates or truncates `name` with `bytes`.
    fn put(&self, name: &str, bytes: &[u8]);
    /// Appends `bytes` to `name`, creating it if absent.
    fn append(&self, name: &str, bytes: &[u8]);
    /// Full contents of `name`, or `None` if absent.
    fn get(&self, name: &str) -> Option<Vec<u8>>;
    /// All blob names starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Removes `name` (no-op if absent).
    fn delete(&self, name: &str);
}

/// Shared handle to a blob store.
pub type StoreHandle = Arc<dyn BlobStore>;

/// `(fnv, total_bytes)` over every blob name and its contents, in name
/// order — two stores fingerprint equal iff they hold identical bytes.
/// Works on any [`BlobStore`]; the byte-identical-healing tests compare
/// a crashed-and-recovered store against an uncrashed run's store.
pub fn store_fingerprint(store: &StoreHandle) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut total = 0u64;
    for name in store.list("") {
        let bytes = store.get(&name).unwrap_or_default();
        h.u64(name.len() as u64);
        h.bytes_wide(name.as_bytes());
        h.u64(bytes.len() as u64);
        h.bytes_wide(&bytes);
        total += bytes.len() as u64;
    }
    (h.0, total)
}

/// In-memory blob store. Lives outside the shard engines, so it plays
/// the role of stable storage in kill-and-restart tests: the "disk"
/// survives the simulated worker death.
#[derive(Default)]
pub struct MemStore {
    blobs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store behind a shared handle.
    pub fn shared() -> StoreHandle {
        Arc::new(MemStore::default())
    }
}

impl BlobStore for MemStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.blobs.lock().unwrap().insert(name.to_string(), bytes.to_vec());
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        let mut blobs = self.blobs.lock().unwrap();
        match blobs.get_mut(name) {
            Some(blob) => blob.extend_from_slice(bytes),
            None => {
                blobs.insert(name.to_string(), bytes.to_vec());
            }
        }
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.blobs.lock().unwrap().get(name).cloned()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.blobs.lock().unwrap().keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    fn delete(&self, name: &str) {
        self.blobs.lock().unwrap().remove(name);
    }
}

/// Blob store over a directory: blob names map to relative paths
/// (the `/` in segment names becomes a subdirectory).
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DirStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn ensure_parent(&self, name: &str) {
        if let Some(parent) = self.path(name).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
    }

    fn walk(dir: &PathBuf, rel: &str, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let child = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                Self::walk(&path, &child, out);
            } else {
                out.push(child);
            }
        }
    }
}

impl BlobStore for DirStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.ensure_parent(name);
        std::fs::write(self.path(name), bytes).expect("DirStore put");
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        self.ensure_parent(name);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .expect("DirStore append");
        f.write_all(bytes).expect("DirStore append");
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(name)).ok()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        Self::walk(&self.root, "", &mut out);
        out.retain(|n| n.starts_with(prefix));
        out.sort();
        out
    }

    fn delete(&self, name: &str) {
        let _ = std::fs::remove_file(self.path(name));
    }
}

/// Little-endian byte sink for frame payloads. Payload writers are
/// generic over it because the frame checksum covers `len` *before*
/// the payload: one walk over [`Count`] yields the length, a second
/// over [`Enc`] writes the bytes in place and folds each into the
/// checksum as it is produced — no staging buffer, no second pass.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

/// Something that can be written as a frame payload. `write` must
/// produce the same bytes every time it is called on the same value.
pub(crate) trait Payload {
    fn write<S: Sink>(&self, s: &mut S);
}

/// Measures a payload without producing it.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Appends payload bytes to the output buffer, checksumming as it goes.
struct Enc<'a> {
    out: &'a mut Vec<u8>,
    sum: Fnv,
}

impl Sink for Enc<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.sum.bytes_wide(bytes);
    }
}

/// Bytes a frame adds around its payload: magic, kind, len, checksum.
const FRAME_OVERHEAD: usize = 17;

/// Frame kinds. 1–5 are [`WalRecord`]s; the snapshot and the history
/// delta each live in a blob of their own.
const KIND_SNAPSHOT: u8 = 0;
const KIND_BATCH: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_DECISION: u8 = 4;
const KIND_INIT: u8 = 5;
const KIND_HISTORY: u8 = 6;

/// Appends the frame `[MAGIC][kind][len][payload][fnv]` to `out` and
/// returns its checksum.
fn write_frame<P: Payload + ?Sized>(out: &mut Vec<u8>, kind: u8, payload: &P) -> u64 {
    let mut count = Count(0);
    payload.write(&mut count);
    let len = u32::try_from(count.0).expect("frame payload exceeds the u32 length field");
    out.reserve(count.0 + FRAME_OVERHEAD);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    let start = out.len();
    let mut enc = Enc { out, sum: frame_sum_start(kind, len) };
    payload.write(&mut enc);
    let sum = enc.sum.0;
    // The length went into the header and the checksum ahead of the
    // bytes; a writer that disagrees with itself would frame garbage.
    assert_eq!(out.len() - start, count.0, "payload writer is not repeatable");
    out.extend_from_slice(&sum.to_le_bytes());
    sum
}

/// Checksum state after the frame header fields, before the payload.
fn frame_sum_start(kind: u8, len: u32) -> Fnv {
    let mut h = Fnv::new();
    h.u64(kind as u64);
    h.u64(len as u64);
    h
}

/// One verified frame as found in a blob.
struct Frame<'a> {
    kind: u8,
    payload: &'a [u8],
    sum: u64,
    /// Offset of the byte after the frame.
    next: usize,
}

/// Reads the frame at `buf[pos..]`; `None` if it is incomplete or its
/// checksum fails (a torn tail when at the end of a log).
fn read_frame(buf: &[u8], pos: usize) -> Option<Frame<'_>> {
    let rest = buf.get(pos..)?;
    let header = rest.get(..9)?;
    if u32::from_le_bytes(header[0..4].try_into().unwrap()) != MAGIC {
        return None;
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap());
    let end = 9usize.checked_add(len as usize)?;
    let payload = rest.get(9..end)?;
    let sum = u64::from_le_bytes(rest.get(end..end.checked_add(8)?)?.try_into().unwrap());
    let mut h = frame_sum_start(kind, len);
    h.bytes_wide(payload);
    (h.0 == sum).then_some(Frame { kind, payload, sum, next: pos + end + 8 })
}

/// Cursor-based decoder matching [`Sink`]; every read is bounds-checked
/// and every element count is bounded by the bytes left before anything
/// is allocated for it, so corrupt or forged payloads surface as
/// `None`, never a panic or an allocation the input did not pay for.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf[self.pos..].get(..N)?;
        self.pos += N;
        Some(bytes.try_into().unwrap())
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    pub(crate) fn bool(&mut self) -> Option<bool> {
        self.u8().map(|b| b != 0)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// A `u32` element count followed by that many elements of at least
    /// `min_elem` encoded bytes each. A count the rest of the buffer
    /// cannot hold is rejected before the vector is allocated.
    pub(crate) fn vec<T>(
        &mut self,
        min_elem: usize,
        mut elem: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_elem)? > self.buf.len() - self.pos {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Some(out)
    }

    /// `Some(v)` if the flag byte is set and `elem` decodes, `Some(None)`
    /// if it is clear.
    fn opt<T>(&mut self, elem: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            elem(self).map(Some)
        } else {
            Some(None)
        }
    }

    /// `Some(())` iff the cursor consumed the whole buffer.
    pub(crate) fn done(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

fn write_opt<S: Sink, T>(s: &mut S, v: &Option<T>, elem: impl FnOnce(&mut S, &T)) {
    match v {
        Some(v) => {
            s.u8(1);
            elem(s, v);
        }
        None => s.u8(0),
    }
}

/// The sealed result of one batch as logged (and verified on replay).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BatchSeal {
    /// Batch sequence number (per shard, from 1).
    pub seq: u64,
    /// Per-entry outcomes, in batch order.
    pub outcomes: Vec<EntryOutcome>,
    /// Simulated cycles the batch took.
    pub cycles: u64,
    /// Transactions committed during the batch.
    pub commits: u64,
    /// Aborted attempts during the batch.
    pub aborts: u64,
    /// Scheduler abort-storm flag after the batch.
    pub storm: bool,
    /// FNV-1a of the shard's device data span after the batch.
    pub data_fnv: u64,
    /// Incremental FNV-1a of the request-tagged commit log so far.
    pub log_fnv: u64,
}

/// Shared by `Result` records and the snapshot-embedded last seal.
impl Payload for BatchSeal {
    fn write<S: Sink>(&self, s: &mut S) {
        s.u64(self.seq);
        s.u32(self.outcomes.len() as u32);
        for o in &self.outcomes {
            s.u8(o.ok as u8);
            s.u32(o.value);
        }
        s.u64(self.cycles);
        s.u64(self.commits);
        s.u64(self.aborts);
        s.u8(self.storm as u8);
        s.u64(self.data_fnv);
        s.u64(self.log_fnv);
    }
}

impl BatchSeal {
    fn decode(d: &mut Dec) -> Option<BatchSeal> {
        Some(BatchSeal {
            seq: d.u64()?,
            outcomes: d.vec(5, |d| Some(EntryOutcome { ok: d.bool()?, value: d.u32()? }))?,
            cycles: d.u64()?,
            commits: d.u64()?,
            aborts: d.u64()?,
            storm: d.bool()?,
            data_fnv: d.u64()?,
            log_fnv: d.u64()?,
        })
    }
}

/// One WAL record (see the module docs for the per-batch stream).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// A sealed batch, logged before execution.
    Batch {
        /// Batch sequence number (per shard, from 1).
        seq: u64,
        /// The sealed entries, in batch order.
        entries: Vec<Entry>,
    },
    /// One committed transaction's request tag and write-set, captured
    /// by the commit hook in commit order. Replicas apply exactly these
    /// writes; `reads` is a count only (full read-sets live in the
    /// history blob).
    Commit {
        /// Originating request id (`u64::MAX` for internal ops).
        req: u64,
        /// Committing thread id.
        tid: u32,
        /// Commit version + 1 (0 = read-only).
        version: u32,
        /// Snapshot the transaction validated against.
        snapshot: u32,
        /// Number of transactional reads.
        reads: u32,
        /// Write-set as (address, value) pairs, in recording order.
        writes: Vec<(u32, u32)>,
    },
    /// Seals a batch group: the batch executed and produced this result.
    Result(BatchSeal),
    /// Coordinator 2PC decision for a cross-shard request.
    Decision {
        /// Request id.
        req: u64,
        /// `true` = commit (apply credit), `false` = abort (compensate).
        commit: bool,
    },
    /// Initial device data span, written once at WAL birth so replicas
    /// can bootstrap without building an engine.
    Init {
        /// First word index of the span.
        base: u32,
        /// Initial span contents.
        words: Vec<u32>,
    },
}

impl Payload for WalRecord {
    fn write<S: Sink>(&self, s: &mut S) {
        match self {
            WalRecord::Batch { seq, entries } => {
                s.u64(*seq);
                s.u32(entries.len() as u32);
                for entry in entries {
                    s.u64(entry.req);
                    write_op(s, entry.op);
                }
            }
            WalRecord::Commit { req, tid, version, snapshot, reads, writes } => {
                s.u64(*req);
                s.u32(*tid);
                s.u32(*version);
                s.u32(*snapshot);
                s.u32(*reads);
                s.u32(writes.len() as u32);
                for &(addr, val) in writes {
                    s.u32(addr);
                    s.u32(val);
                }
            }
            WalRecord::Result(seal) => seal.write(s),
            WalRecord::Decision { req, commit } => {
                s.u64(*req);
                s.u8(*commit as u8);
            }
            WalRecord::Init { base, words } => {
                s.u32(*base);
                s.u32(words.len() as u32);
                for &w in words {
                    s.u32(w);
                }
            }
        }
    }
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Batch { .. } => KIND_BATCH,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Result(_) => KIND_RESULT,
            WalRecord::Decision { .. } => KIND_DECISION,
            WalRecord::Init { .. } => KIND_INIT,
        }
    }

    /// Appends the record's frame to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        write_frame(out, self.kind(), self);
    }

    /// The record's frame.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn decode(frame: &Frame) -> Option<WalRecord> {
        let mut d = Dec::new(frame.payload);
        let rec = match frame.kind {
            KIND_BATCH => WalRecord::Batch {
                seq: d.u64()?,
                entries: d.vec(21, |d| Some(Entry { req: d.u64()?, op: read_op(d)? }))?,
            },
            KIND_COMMIT => WalRecord::Commit {
                req: d.u64()?,
                tid: d.u32()?,
                version: d.u32()?,
                snapshot: d.u32()?,
                reads: d.u32()?,
                writes: d.vec(8, |d| Some((d.u32()?, d.u32()?)))?,
            },
            KIND_RESULT => WalRecord::Result(BatchSeal::decode(&mut d)?),
            KIND_DECISION => WalRecord::Decision { req: d.u64()?, commit: d.bool()? },
            KIND_INIT => WalRecord::Init { base: d.u32()?, words: d.vec(4, Dec::u32)? },
            _ => return None,
        };
        d.done()?;
        Some(rec)
    }
}

/// Reads one framed record at `buf[pos..]`: the record and the
/// following offset, or `None` if the frame is torn or not a record.
fn read_record(buf: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let frame = read_frame(buf, pos)?;
    Some((WalRecord::decode(&frame)?, frame.next))
}

fn write_op<S: Sink>(s: &mut S, op: ShardOp) {
    let (k, a, b, c) = match op {
        ShardOp::Transfer { from, to, amount } => (0u8, from, to, amount),
        ShardOp::PrepareDebit { from, amount } => (1, from, 0, amount),
        ShardOp::PrepareCredit { to, amount } => (2, to, 0, amount),
        ShardOp::ApplyCredit { to, amount } => (3, to, 0, amount),
        ShardOp::RollbackDebit { from, amount } => (4, from, 0, amount),
        ShardOp::HtPut { key, val } => (5, key, val, 0),
        ShardOp::HtGet { key } => (6, key, 0, 0),
        ShardOp::TxlBump { key } => (7, key, 0, 0),
    };
    s.u8(k);
    s.u32(a);
    s.u32(b);
    s.u32(c);
}

fn read_op(d: &mut Dec) -> Option<ShardOp> {
    let k = d.u8()?;
    let a = d.u32()?;
    let b = d.u32()?;
    let c = d.u32()?;
    Some(match k {
        0 => ShardOp::Transfer { from: a, to: b, amount: c },
        1 => ShardOp::PrepareDebit { from: a, amount: c },
        2 => ShardOp::PrepareCredit { to: a, amount: c },
        3 => ShardOp::ApplyCredit { to: a, amount: c },
        4 => ShardOp::RollbackDebit { from: a, amount: c },
        5 => ShardOp::HtPut { key: a, val: b },
        6 => ShardOp::HtGet { key: a },
        7 => ShardOp::TxlBump { key: a },
        _ => return None,
    })
}

// ---- history blob ------------------------------------------------------

/// A position in a shard's history blob: the byte length of a prefix
/// made of whole delta frames, and the FNV-1a chain over those frames'
/// checksums. Snapshots record it; the writer advances it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct HistoryPos {
    /// Prefix length in bytes.
    pub len: u64,
    /// FNV-1a folded over each frame checksum in the prefix, in order.
    pub fnv: u64,
}

impl HistoryPos {
    /// The empty prefix.
    pub(crate) const START: HistoryPos = HistoryPos { len: 0, fnv: Fnv::new().0 };
}

/// One committed transaction with the request it served
/// (`u64::MAX` for service-internal ops), as the history blob holds it.
pub(crate) type TaggedCommit = (u64, CommittedTx);

/// Payload of one history frame: the transactions committed since the
/// previous cadence. `reqs` and `commits` are parallel.
struct HistoryDelta<'a> {
    reqs: &'a [u64],
    commits: &'a [CommittedTx],
}

/// Smallest encoded transaction: request, tid, version, snapshot and
/// two empty access lists.
const MIN_COMMIT_BYTES: usize = 28;

impl Payload for HistoryDelta<'_> {
    fn write<S: Sink>(&self, s: &mut S) {
        s.u32(self.commits.len() as u32);
        for (&req, tx) in self.reqs.iter().zip(self.commits) {
            s.u64(req);
            s.u32(tx.tid);
            s.u32(tx.version.map_or(0, |v| v + 1));
            s.u32(tx.snapshot);
            for accesses in [&tx.reads, &tx.writes] {
                s.u32(accesses.len() as u32);
                for a in accesses {
                    s.u32(a.addr.index() as u32);
                    s.u32(a.val);
                }
            }
        }
    }
}

/// Decodes one history frame's payload onto `out`.
fn read_history_delta(payload: &[u8], out: &mut Vec<TaggedCommit>) -> Option<()> {
    let mut d = Dec::new(payload);
    let access = |d: &mut Dec| Some(Access { addr: Addr(d.u32()?), val: d.u32()? });
    let delta = d.vec(MIN_COMMIT_BYTES, |d| {
        let req = d.u64()?;
        let tid = d.u32()?;
        let version = d.u32()?.checked_sub(1);
        let snapshot = d.u32()?;
        let reads = d.vec(8, access)?;
        let writes = d.vec(8, access)?;
        Some((req, CommittedTx { tid, version, snapshot, reads, writes }))
    })?;
    d.done()?;
    out.extend(delta);
    Some(())
}

/// History blob name for `shard`.
pub(crate) fn hist_name(shard: usize) -> String {
    format!("s{shard:03}/hist")
}

/// Reads and verifies the prefix of `shard`'s history blob that a
/// snapshot recorded as `pos`, then drops whatever follows it: bytes
/// past the latest snapshot's position are a crash between the history
/// append and the snapshot put, and the replayed cadence will append
/// the identical delta again.
///
/// # Errors
///
/// The prefix must be exactly the frames the snapshot saw — a short
/// blob, a corrupt frame, or a checksum chain that does not end at
/// `pos.fnv` is corruption, and nothing is written.
pub(crate) fn restore_history(
    store: &StoreHandle,
    shard: usize,
    pos: HistoryPos,
) -> Result<Vec<TaggedCommit>, String> {
    let name = hist_name(shard);
    let blob = store.get(&name);
    let bytes = blob.as_deref().unwrap_or_default();
    let prefix =
        usize::try_from(pos.len).ok().and_then(|len| bytes.get(..len)).ok_or_else(|| {
            format!("history blob holds {} bytes, snapshot recorded {}", bytes.len(), pos.len)
        })?;
    let mut commits = Vec::new();
    let mut chain = Fnv(HistoryPos::START.fnv);
    let mut at = 0;
    while at < prefix.len() {
        let frame = read_frame(prefix, at)
            .filter(|f| f.kind == KIND_HISTORY)
            .ok_or_else(|| format!("corrupt history frame at byte {at}"))?;
        read_history_delta(frame.payload, &mut commits)
            .ok_or_else(|| format!("undecodable history frame at byte {at}"))?;
        chain.u64(frame.sum);
        at = frame.next;
    }
    if chain.0 != pos.fnv {
        return Err("history blob does not match the snapshot's checksum chain".into());
    }
    if bytes.len() > prefix.len() {
        store.put(&name, prefix);
    }
    Ok(commits)
}

// ---- snapshot ------------------------------------------------------------

/// Snapshot payload format. Version 1 carried the whole committed
/// history inline; it is no longer read.
const SNAPSHOT_VERSION: u32 = 2;

/// What a snapshot blob holds: everything a shard engine needs after
/// batch `seq` that does not grow with the run — the simulator image
/// (memory, L2 tags, lifetime counters), STM stats, host-side wrapper
/// state, running hashes, the last batch seal — plus the position in
/// the history blob holding the commits up to this point.
#[derive(Clone, Debug)]
pub(crate) struct Snapshot {
    /// Batch the snapshot was taken after.
    pub seq: u64,
    /// Full simulator image.
    pub sim: SimCheckpoint,
    /// STM transaction counters.
    pub tx: TxStats,
    /// Adaptive-scheduler window, when the engine runs one.
    pub sched: Option<SchedulerCheckpoint>,
    /// Backoff RNG state, when the engine runs the robust wrapper.
    pub robust_rng: Option<u64>,
    /// Aborted attempts recorded in the history.
    pub aborts: u64,
    /// Transactions committed so far (= entries in the history prefix).
    pub commits: u64,
    /// Running FNV-1a over the request-tagged commit log.
    pub log_fnv_state: u64,
    /// TXL launches so far (seeds the next launch).
    pub txl_launch_seq: u64,
    /// Seal of batch `seq`, so a crash after compaction can still
    /// answer the coordinator.
    pub last_seal: Option<BatchSeal>,
    /// Where the history blob stood when the snapshot was taken.
    pub history: HistoryPos,
}

/// `SimStats` as words. The exhaustive destructuring makes adding a
/// field without extending the snapshot a compile error.
fn sim_stats_words(stats: &SimStats) -> [u64; 18] {
    let SimStats {
        instructions,
        loads,
        stores,
        atomics,
        fences,
        mem_transactions,
        uncoalesced_transactions,
        l2_hits,
        l2_misses,
        divergent_instructions,
        active_lanes,
        lane_slots,
        idle_cycles,
        blocks_completed,
        spurious_cas_failures,
        injected_jitter_cycles,
        parks,
        wakes,
    } = *stats;
    [
        instructions,
        loads,
        stores,
        atomics,
        fences,
        mem_transactions,
        uncoalesced_transactions,
        l2_hits,
        l2_misses,
        divergent_instructions,
        active_lanes,
        lane_slots,
        idle_cycles,
        blocks_completed,
        spurious_cas_failures,
        injected_jitter_cycles,
        parks,
        wakes,
    ]
}

fn sim_stats_from_words(words: [u64; 18]) -> SimStats {
    let [instructions, loads, stores, atomics, fences, mem_transactions, uncoalesced_transactions, l2_hits, l2_misses, divergent_instructions, active_lanes, lane_slots, idle_cycles, blocks_completed, spurious_cas_failures, injected_jitter_cycles, parks, wakes] =
        words;
    SimStats {
        instructions,
        loads,
        stores,
        atomics,
        fences,
        mem_transactions,
        uncoalesced_transactions,
        l2_hits,
        l2_misses,
        divergent_instructions,
        active_lanes,
        lane_slots,
        idle_cycles,
        blocks_completed,
        spurious_cas_failures,
        injected_jitter_cycles,
        parks,
        wakes,
    }
}

impl Payload for Snapshot {
    fn write<S: Sink>(&self, s: &mut S) {
        s.u32(SNAPSHOT_VERSION);
        s.u64(self.seq);

        s.u32(self.sim.memory.len() as u32);
        for &w in &self.sim.memory {
            s.u32(w);
        }
        for words in [&self.sim.cache.tags, &self.sim.cache.stamps] {
            s.u32(words.len() as u32);
            for &w in words {
                s.u64(w);
            }
        }
        s.u64(self.sim.cache.tick);
        for v in sim_stats_words(&self.sim.stats) {
            s.u64(v);
        }
        s.u64(self.sim.cycles);
        s.u64(self.sim.launches);

        let tx = self.tx.encode();
        s.u32(tx.len() as u32);
        for w in tx {
            s.u64(w);
        }
        write_opt(s, &self.sched, |s, sc| {
            s.u32(sc.limit);
            s.u32(sc.in_flight);
            s.u64(sc.window_commits);
            s.u64(sc.window_aborts);
            s.u64(sc.adaptations);
            s.u8(sc.storm as u8);
        });
        write_opt(s, &self.robust_rng, |s, &rng| s.u64(rng));

        s.u64(self.aborts);
        s.u64(self.commits);
        s.u64(self.log_fnv_state);
        s.u64(self.txl_launch_seq);
        write_opt(s, &self.last_seal, |s, seal| seal.write(s));
        s.u64(self.history.len);
        s.u64(self.history.fnv);
    }
}

impl Snapshot {
    fn decode(payload: &[u8]) -> Result<Snapshot, String> {
        let mut d = Dec::new(payload);
        match d.u32() {
            Some(SNAPSHOT_VERSION) => {}
            Some(v) => return Err(format!("unsupported snapshot format version {v}")),
            None => return Err("empty snapshot payload".into()),
        }
        let mut go = || -> Option<Snapshot> {
            let seq = d.u64()?;
            let memory = d.vec(4, Dec::u32)?;
            let tags = d.vec(8, Dec::u64)?;
            let stamps = d.vec(8, Dec::u64)?;
            let tick = d.u64()?;
            let mut stats = [0u64; 18];
            for v in stats.iter_mut() {
                *v = d.u64()?;
            }
            let sim = SimCheckpoint {
                memory,
                cache: CacheCheckpoint { tags, stamps, tick },
                stats: sim_stats_from_words(stats),
                cycles: d.u64()?,
                launches: d.u64()?,
            };
            let tx = TxStats::decode(&d.vec(8, Dec::u64)?)?;
            let sched = d.opt(|d| {
                Some(SchedulerCheckpoint {
                    limit: d.u32()?,
                    in_flight: d.u32()?,
                    window_commits: d.u64()?,
                    window_aborts: d.u64()?,
                    adaptations: d.u64()?,
                    storm: d.bool()?,
                })
            })?;
            let robust_rng = d.opt(Dec::u64)?;
            let snap = Snapshot {
                seq,
                sim,
                tx,
                sched,
                robust_rng,
                aborts: d.u64()?,
                commits: d.u64()?,
                log_fnv_state: d.u64()?,
                txl_launch_seq: d.u64()?,
                last_seal: d.opt(BatchSeal::decode)?,
                history: HistoryPos { len: d.u64()?, fnv: d.u64()? },
            };
            d.done()?;
            Some(snap)
        };
        go().ok_or_else(|| "corrupt snapshot payload".into())
    }
}

/// Latest snapshot for `shard`, or `None` if it has none yet.
///
/// # Errors
///
/// A snapshot blob that fails its checksum, does not decode (including
/// a payload in an older format), or is named for another batch than
/// the one it holds is corruption.
pub(crate) fn latest_snapshot(
    store: &StoreHandle,
    shard: usize,
) -> Result<Option<Snapshot>, String> {
    let Some(name) = store.list(&snap_prefix(shard)).pop() else { return Ok(None) };
    let corrupt = |what: &str| format!("snapshot {name:?}: {what}");
    let named_seq = parse_suffix(&name, '-').ok_or_else(|| corrupt("unparseable name"))?;
    let bytes = store.get(&name).unwrap_or_default();
    let frame = read_frame(&bytes, 0)
        .filter(|f| f.kind == KIND_SNAPSHOT && f.next == bytes.len())
        .ok_or_else(|| corrupt("bad frame or checksum"))?;
    let snap = Snapshot::decode(frame.payload).map_err(|m| corrupt(&m))?;
    if snap.seq != named_seq {
        return Err(corrupt(&format!("holds the image after batch {}", snap.seq)));
    }
    Ok(Some(snap))
}

// ---- WAL segments --------------------------------------------------------

/// Segment blob name for `shard`, segment `seg`.
pub(crate) fn seg_name(shard: usize, seg: u64) -> String {
    format!("s{shard:03}/wal-{seg:08}")
}

/// Snapshot blob name for `shard`, taken after batch `seq`.
pub(crate) fn snap_name(shard: usize, seq: u64) -> String {
    format!("s{shard:03}/snap-{seq:08}")
}

fn seg_prefix(shard: usize) -> String {
    format!("s{shard:03}/wal-")
}

fn snap_prefix(shard: usize) -> String {
    format!("s{shard:03}/snap-")
}

fn parse_suffix(name: &str, sep: char) -> Option<u64> {
    name.rsplit(sep).next()?.parse().ok()
}

/// One shard's WAL as read back from the store: records grouped by
/// segment, with a torn final record (if any) already excluded.
pub(crate) struct ShardWal {
    /// `(segment index, records)` in segment order.
    pub segs: Vec<(u64, Vec<WalRecord>)>,
    /// Whether the final segment ended in a torn (incomplete or
    /// checksum-failing) record — legal only there.
    pub torn: bool,
}

impl ShardWal {
    /// All records across segments, in log order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &WalRecord> {
        self.segs.iter().flat_map(|(_, recs)| recs.iter())
    }

    /// Drops the `Commit` records of an unsealed final group, back to
    /// its `Batch`: a crash inside the commits-and-seal append can leave
    /// any number of whole commits behind, and re-executing the batch
    /// appends the complete stream again. Returns whether anything was
    /// dropped.
    pub(crate) fn drop_unsealed_commits(&mut self) -> bool {
        let Some((_, recs)) = self.segs.last_mut() else { return false };
        let Some(batch) = recs.iter().rposition(|r| matches!(r, WalRecord::Batch { .. })) else {
            return false;
        };
        let sealed = recs[batch..].iter().any(|r| matches!(r, WalRecord::Result(_)));
        if sealed || batch + 1 == recs.len() {
            return false;
        }
        recs.truncate(batch + 1);
        true
    }

    /// Rewrites the final segment from its decoded records — how tail
    /// normalization lands in the store. Record encoding is
    /// deterministic, so the kept records reproduce their original
    /// bytes.
    pub(crate) fn rewrite_final_segment(&self, store: &StoreHandle, shard: usize) {
        let Some((seg, recs)) = self.segs.last() else { return };
        let mut bytes = Vec::new();
        for rec in recs {
            rec.encode_into(&mut bytes);
        }
        store.put(&seg_name(shard, *seg), &bytes);
    }
}

/// Reads and verifies every segment of `shard`'s log.
///
/// # Errors
///
/// A torn record anywhere but the very tail of the final segment is
/// corruption, not a crash artifact, and is reported as an error.
pub(crate) fn read_shard_wal(store: &StoreHandle, shard: usize) -> Result<ShardWal, String> {
    let names = store.list(&seg_prefix(shard));
    let mut segs = Vec::new();
    let mut torn = false;
    for (i, name) in names.iter().enumerate() {
        let seg = parse_suffix(name, '-')
            .ok_or_else(|| format!("unparseable WAL segment name {name:?}"))?;
        let bytes = store.get(name).unwrap_or_default();
        let mut recs = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            match read_record(&bytes, pos) {
                Some((rec, next)) => {
                    recs.push(rec);
                    pos = next;
                }
                None => {
                    if i + 1 != names.len() {
                        return Err(format!(
                            "corrupt record at byte {pos} of non-final segment {name:?}"
                        ));
                    }
                    torn = true;
                    break;
                }
            }
        }
        segs.push((seg, recs));
    }
    Ok(ShardWal { segs, torn })
}

/// Append-side handle to one shard's blobs: the log segments, the
/// history blob and the snapshots. Resume-aware: opening scans what the
/// store already holds, so a recovered engine and a fresh one share the
/// same construction path.
pub(crate) struct WalWriter {
    store: StoreHandle,
    shard: usize,
    /// Current (final) segment index and its blob name.
    seg: u64,
    seg_name: String,
    /// `Batch` records appended to the current segment so far.
    seg_batches: u64,
    /// Oldest segment still in the store.
    first_seg: u64,
    /// Batch numbers of the snapshot blobs in the store.
    snaps: Vec<u64>,
    /// End of the history blob.
    history: HistoryPos,
    /// Encode buffer, reused across appends.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Opens the shard's log for appending, creating segment 0 if the
    /// log is empty.
    ///
    /// # Errors
    ///
    /// Propagates scan errors; the final segment must be clean (torn
    /// tails are the recovery module's job to truncate first).
    pub(crate) fn open(store: StoreHandle, shard: usize) -> Result<WalWriter, String> {
        let wal = read_shard_wal(&store, shard)?;
        if wal.torn {
            return Err(format!("shard {shard} WAL has a torn tail; recover before appending"));
        }
        let (first_seg, seg, seg_batches) = match (wal.segs.first(), wal.segs.last()) {
            (Some((first, _)), Some((seg, recs))) => {
                let batches =
                    recs.iter().filter(|r| matches!(r, WalRecord::Batch { .. })).count() as u64;
                (*first, *seg, batches)
            }
            _ => {
                store.put(&seg_name(shard, 0), &[]);
                (0, 0, 0)
            }
        };
        let snaps =
            store.list(&snap_prefix(shard)).iter().filter_map(|n| parse_suffix(n, '-')).collect();
        Ok(WalWriter {
            store,
            shard,
            seg,
            seg_name: seg_name(shard, seg),
            seg_batches,
            first_seg,
            snaps,
            history: HistoryPos::START,
            buf: Vec::new(),
        })
    }

    /// Appends one record to the current segment.
    pub(crate) fn append(&mut self, rec: &WalRecord) {
        self.buf.clear();
        rec.encode_into(&mut self.buf);
        self.store.append(&self.seg_name, &self.buf);
        if matches!(rec, WalRecord::Batch { .. }) {
            self.seg_batches += 1;
        }
    }

    /// Appends a batch's `Commit` records and the `Result` sealing the
    /// group as one store append: the group becomes durable at once, and
    /// a crash inside the append leaves a tail that normalization drops
    /// back to the `Batch` record.
    pub(crate) fn append_group(&mut self, commits: &[WalRecord], seal: &BatchSeal) {
        self.buf.clear();
        for rec in commits {
            rec.encode_into(&mut self.buf);
        }
        write_frame(&mut self.buf, KIND_RESULT, seal);
        self.store.append(&self.seg_name, &self.buf);
    }

    /// Appends only the first `keep` bytes of `rec`'s encoding — the
    /// crash-injection path for dying mid-append (a torn tail).
    pub(crate) fn append_torn(&self, rec: &WalRecord, keep: usize) {
        let bytes = rec.encode();
        let keep = keep.min(bytes.len().saturating_sub(1)).max(1);
        self.store.append(&self.seg_name, &bytes[..keep]);
    }

    /// Starts a fresh segment.
    pub(crate) fn roll(&mut self) {
        self.seg += 1;
        self.seg_name = seg_name(self.shard, self.seg);
        self.seg_batches = 0;
        self.store.put(&self.seg_name, &[]);
    }

    /// Deletes every segment before the current one (safe once a
    /// snapshot at or past the last rolled batch exists).
    pub(crate) fn compact(&mut self) {
        for seg in self.first_seg..self.seg {
            self.store.delete(&seg_name(self.shard, seg));
        }
        self.first_seg = self.seg;
    }

    /// Appends the transactions committed since the previous cadence to
    /// the history blob as one delta frame. `reqs` and `commits` are
    /// parallel.
    pub(crate) fn append_history(&mut self, reqs: &[u64], commits: &[CommittedTx]) {
        assert_eq!(reqs.len(), commits.len(), "every commit carries a request tag");
        self.buf.clear();
        let sum = write_frame(&mut self.buf, KIND_HISTORY, &HistoryDelta { reqs, commits });
        self.store.append(&hist_name(self.shard), &self.buf);
        let mut chain = Fnv(self.history.fnv);
        chain.u64(sum);
        self.history = HistoryPos { len: self.history.len + self.buf.len() as u64, fnv: chain.0 };
    }

    /// End of the history blob as this writer knows it.
    pub(crate) fn history_pos(&self) -> HistoryPos {
        self.history
    }

    /// Resumes history appends at `pos` (the restored snapshot's
    /// position, to which recovery has truncated the blob).
    pub(crate) fn resume_history(&mut self, pos: HistoryPos) {
        self.history = pos;
    }

    /// Stores `snap` and deletes the snapshots it supersedes.
    pub(crate) fn put_snapshot(&mut self, snap: &Snapshot) {
        self.buf.clear();
        write_frame(&mut self.buf, KIND_SNAPSHOT, snap);
        self.store.put(&snap_name(self.shard, snap.seq), &self.buf);
        for old in std::mem::replace(&mut self.snaps, vec![snap.seq]) {
            if old != snap.seq {
                self.store.delete(&snap_name(self.shard, old));
            }
        }
    }

    /// `Batch` records in the current segment.
    #[cfg(test)]
    pub(crate) fn seg_batches(&self) -> u64 {
        self.seg_batches
    }

    /// Current segment index.
    #[cfg(test)]
    pub(crate) fn current_seg(&self) -> u64 {
        self.seg
    }
}

/// Appends a coordinator 2PC decision to the shared decision log.
pub(crate) fn append_decision(store: &StoreHandle, req: u64, commit: bool) {
    store.append(DECISIONS, &WalRecord::Decision { req, commit }.encode());
}

/// Reads the coordinator decision log: request id → decision. A torn
/// final record (coordinator died mid-append) is dropped — by presumed
/// abort, an unlogged decision is an abort.
pub(crate) fn read_decisions(store: &StoreHandle) -> BTreeMap<u64, bool> {
    let mut out = BTreeMap::new();
    let Some(bytes) = store.get(DECISIONS) else { return out };
    let mut pos = 0;
    while pos < bytes.len() {
        match read_record(&bytes, pos) {
            Some((WalRecord::Decision { req, commit }, next)) => {
                out.insert(req, commit);
                pos = next;
            }
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Init { base: 16, words: vec![100, 0, 100, 7] },
            WalRecord::Batch {
                seq: 1,
                entries: vec![
                    Entry { req: 9, op: ShardOp::Transfer { from: 1, to: 2, amount: 3 } },
                    Entry { req: 10, op: ShardOp::HtPut { key: 5, val: 6 } },
                    Entry { req: 11, op: ShardOp::TxlBump { key: 0 } },
                ],
            },
            WalRecord::Commit {
                req: 9,
                tid: 3,
                version: 2,
                snapshot: 1,
                reads: 2,
                writes: vec![(17, 97), (18, 103)],
            },
            WalRecord::Result(sample_seal()),
            WalRecord::Decision { req: 9, commit: true },
        ]
    }

    fn sample_seal() -> BatchSeal {
        BatchSeal {
            seq: 1,
            outcomes: vec![
                EntryOutcome { ok: true, value: 0 },
                EntryOutcome { ok: true, value: 6 },
                EntryOutcome { ok: false, value: 0 },
            ],
            cycles: 1234,
            commits: 3,
            aborts: 1,
            storm: false,
            data_fnv: 0xdead_beef,
            log_fnv: 0xfeed_face,
        }
    }

    fn sample_snapshot(seq: u64) -> Snapshot {
        Snapshot {
            seq,
            sim: SimCheckpoint {
                memory: vec![1, 2, 3, 4, 5],
                cache: CacheCheckpoint { tags: vec![7, 8], stamps: vec![9, 10], tick: 11 },
                stats: SimStats { instructions: 12, wakes: 13, ..SimStats::default() },
                cycles: 14,
                launches: 15,
            },
            tx: TxStats { commits: 16, spurious_wakes: 17, ..TxStats::default() },
            sched: Some(SchedulerCheckpoint {
                limit: 18,
                in_flight: 19,
                window_commits: 20,
                window_aborts: 21,
                adaptations: 22,
                storm: true,
            }),
            robust_rng: None,
            aborts: 23,
            commits: 24,
            log_fnv_state: 25,
            txl_launch_seq: 26,
            last_seal: Some(sample_seal()),
            history: HistoryPos { len: 27, fnv: 28 },
        }
    }

    fn sample_commits() -> (Vec<u64>, Vec<CommittedTx>) {
        let access = |a, val| Access { addr: Addr(a), val };
        let txs = vec![
            CommittedTx {
                tid: 3,
                version: Some(0),
                snapshot: 0,
                reads: vec![access(17, 100), access(18, 100)],
                writes: vec![access(17, 97), access(18, 103)],
            },
            CommittedTx {
                tid: 4,
                version: None,
                snapshot: 1,
                reads: vec![access(40, 6)],
                writes: vec![],
            },
            CommittedTx { tid: 5, version: Some(7), snapshot: 6, reads: vec![], writes: vec![] },
        ];
        (vec![9, 10, u64::MAX], txs)
    }

    /// A checksum-valid frame around an arbitrary payload: what a
    /// forger (or a writer with a bug) could leave in a blob.
    struct Raw<'a>(&'a [u8]);

    impl Payload for Raw<'_> {
        fn write<S: Sink>(&self, s: &mut S) {
            s.put(self.0);
        }
    }

    fn forged_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, &Raw(payload));
        out
    }

    #[test]
    fn bytes_fold_equals_the_word_per_byte_fold() {
        let data: Vec<u8> = (0..=255u8).chain([0, 0, 255, 1]).collect();
        let mut a = Fnv::new();
        a.bytes_wide(&data);
        let mut b = Fnv::new();
        for &byte in &data {
            b.u64(byte as u64);
        }
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn records_round_trip_through_framing() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let (back, next) = read_record(&bytes, 0).expect("decode");
            assert_eq!(back, rec);
            assert_eq!(next, bytes.len());
        }
    }

    #[test]
    fn every_op_round_trips() {
        let ops = [
            ShardOp::Transfer { from: 1, to: 2, amount: 3 },
            ShardOp::PrepareDebit { from: 4, amount: 5 },
            ShardOp::PrepareCredit { to: 6, amount: 7 },
            ShardOp::ApplyCredit { to: 8, amount: 9 },
            ShardOp::RollbackDebit { from: 10, amount: 11 },
            ShardOp::HtPut { key: 12, val: 13 },
            ShardOp::HtGet { key: 14 },
            ShardOp::TxlBump { key: 15 },
        ];
        let entries = ops.iter().zip(0..).map(|(&op, req)| Entry { req, op }).collect();
        let rec = WalRecord::Batch { seq: 1, entries };
        assert_eq!(read_record(&rec.encode(), 0).map(|(back, _)| back), Some(rec));
    }

    #[test]
    fn frame_layout_is_magic_kind_len_payload_checksum() {
        // The on-store bytes of a record, spelled out: the one-pass
        // encoder must keep producing exactly this.
        let bytes = WalRecord::Decision { req: 0x0102, commit: true }.encode();
        let payload = [0x02, 0x01, 0, 0, 0, 0, 0, 0, 1];
        let mut sum = Fnv::new();
        sum.u64(KIND_DECISION as u64);
        sum.u64(payload.len() as u64);
        for b in payload {
            sum.u64(b as u64);
        }
        let mut expect = MAGIC.to_le_bytes().to_vec();
        expect.push(KIND_DECISION);
        expect.extend(9u32.to_le_bytes());
        expect.extend(payload);
        expect.extend(sum.0.to_le_bytes());
        assert_eq!(bytes, expect);
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut bytes = sample_records()[1].encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(read_record(&bytes, 0).is_none());
    }

    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        // Checksum-valid frames whose element count promises more than
        // the payload holds: each must decode to `None`, not reserve
        // gigabytes for the promise.
        let mut commit = Vec::new();
        commit.extend(9u64.to_le_bytes());
        commit.extend([0u8; 16]); // tid, version, snapshot, reads
        commit.extend(u32::MAX.to_le_bytes());
        let mut batch = 1u64.to_le_bytes().to_vec();
        batch.extend(u32::MAX.to_le_bytes());
        let mut seal = 1u64.to_le_bytes().to_vec();
        seal.extend(0x4000_0000u32.to_le_bytes());
        let mut init = 16u32.to_le_bytes().to_vec();
        init.extend(u32::MAX.to_le_bytes());
        for (kind, payload) in
            [(KIND_COMMIT, commit), (KIND_BATCH, batch), (KIND_RESULT, seal), (KIND_INIT, init)]
        {
            let bytes = forged_frame(kind, &payload);
            assert!(read_frame(&bytes, 0).is_some(), "kind {kind}: the frame itself is valid");
            assert!(read_record(&bytes, 0).is_none(), "kind {kind}: forged count");
        }

        let delta = u32::MAX.to_le_bytes();
        assert!(read_history_delta(&delta, &mut Vec::new()).is_none());

        let mut snap = SNAPSHOT_VERSION.to_le_bytes().to_vec();
        snap.extend(8u64.to_le_bytes());
        snap.extend(u32::MAX.to_le_bytes());
        assert!(Snapshot::decode(&snap).is_err());
    }

    #[test]
    fn torn_tail_detected_only_in_final_segment() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.append(&recs[3]);
        w.append_torn(&recs[1], 10);
        let wal = read_shard_wal(&store, 0).unwrap();
        assert!(wal.torn);
        assert_eq!(wal.records().count(), 2);

        // The same tear in a non-final segment is corruption.
        let mut w2 = WalWriter::open(Arc::clone(&store), 1).unwrap_or_else(|_| unreachable!());
        w2.append(&recs[1]);
        w2.append_torn(&recs[1], 10);
        w2.roll();
        w2.append(&recs[3]);
        assert!(read_shard_wal(&store, 1).is_err());
    }

    #[test]
    fn group_append_writes_the_same_bytes_as_record_appends() {
        let recs = sample_records();
        let one = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&one), 0).unwrap();
        w.append(&recs[1]);
        w.append_group(&recs[2..3], &sample_seal());
        let each = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&each), 0).unwrap();
        for rec in &recs[1..4] {
            w.append(rec);
        }
        assert_eq!(one.get(&seg_name(0, 0)), each.get(&seg_name(0, 0)));
    }

    #[test]
    fn unsealed_final_group_drops_back_to_its_batch() {
        let recs = sample_records();
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        for rec in &recs[1..4] {
            w.append(rec);
        }
        let sealed = store.get(&seg_name(0, 0)).unwrap();
        let mut wal = read_shard_wal(&store, 0).unwrap();
        assert!(!wal.drop_unsealed_commits(), "a sealed group is left alone");

        w.append(&WalRecord::Batch { seq: 2, entries: vec![] });
        let with_batch = store.get(&seg_name(0, 0)).unwrap();
        let mut wal = read_shard_wal(&store, 0).unwrap();
        assert!(!wal.drop_unsealed_commits(), "a bare Batch has nothing to drop");

        w.append(&recs[2]);
        w.append(&recs[2]);
        let mut wal = read_shard_wal(&store, 0).unwrap();
        assert!(wal.drop_unsealed_commits());
        wal.rewrite_final_segment(&store, 0);
        assert_eq!(store.get(&seg_name(0, 0)).unwrap(), with_batch);
        assert!(with_batch.starts_with(&sealed));
    }

    #[test]
    fn writer_resumes_at_existing_tail() {
        let store = MemStore::shared();
        let recs = sample_records();
        {
            let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
            w.append(&recs[1]);
            w.append(&recs[3]);
        }
        let w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        assert_eq!(w.current_seg(), 0);
        assert_eq!(w.seg_batches(), 1);
    }

    #[test]
    fn roll_and_compact_drop_old_segments() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.roll();
        w.append(&recs[3]);
        assert_eq!(store.list("s000/wal-").len(), 2);
        w.compact();
        let names = store.list("s000/wal-");
        assert_eq!(names, vec![seg_name(0, 1)]);
        let wal = read_shard_wal(&store, 0).unwrap();
        assert_eq!(wal.records().count(), 1);

        // A reopened writer compacts what it found, not just what it rolled.
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        w.roll();
        w.roll();
        w.compact();
        assert_eq!(store.list("s000/wal-"), vec![seg_name(0, 3)]);
    }

    #[test]
    fn snapshot_round_trips_and_supersedes() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 2).unwrap();
        w.put_snapshot(&sample_snapshot(4));
        w.put_snapshot(&sample_snapshot(9));
        let back = latest_snapshot(&store, 2).unwrap().expect("a snapshot exists");
        assert_eq!(back.seq, 9);
        assert_eq!(store.list("s002/snap-").len(), 1, "older snapshot deleted");
        // `Snapshot` holds simulator types without `PartialEq`; equal
        // re-encodings are equal contents.
        let name = snap_name(2, 9);
        let mut again = Vec::new();
        write_frame(&mut again, KIND_SNAPSHOT, &back);
        assert_eq!(store.get(&name).unwrap(), again);
        assert_eq!(back.history, HistoryPos { len: 27, fnv: 28 });
        assert_eq!(back.last_seal, Some(sample_seal()));

        // A reopened writer supersedes the snapshot it found.
        let mut w = WalWriter::open(Arc::clone(&store), 2).unwrap();
        w.put_snapshot(&sample_snapshot(12));
        assert_eq!(store.list("s002/snap-"), vec![snap_name(2, 12)]);

        // Corrupt the snapshot: it must be rejected, not misread.
        let name = snap_name(2, 12);
        let mut bytes = store.get(&name).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        store.put(&name, &bytes);
        assert!(latest_snapshot(&store, 2).is_err());
        // So is one stored under another batch's name.
        store.put(&snap_name(2, 13), &again);
        assert!(latest_snapshot(&store, 2).unwrap_err().contains("after batch 9"));
    }

    #[test]
    fn v1_snapshot_payload_is_refused_by_version() {
        let store = MemStore::shared();
        let mut v1 = 1u32.to_le_bytes().to_vec();
        v1.extend(4u64.to_le_bytes());
        store.put(&snap_name(0, 4), &forged_frame(KIND_SNAPSHOT, &v1));
        let err = latest_snapshot(&store, 0).unwrap_err();
        assert!(err.contains("unsupported snapshot format version 1"), "{err}");
    }

    #[test]
    fn history_appends_restore_and_truncate_to_the_snapshot_position() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let (reqs, txs) = sample_commits();
        assert_eq!(w.history_pos(), HistoryPos::START);
        w.append_history(&reqs[..2], &txs[..2]);
        let first = w.history_pos();
        w.append_history(&reqs[2..], &txs[2..]);
        let second = w.history_pos();
        assert_eq!(second.len, store.get(&hist_name(0)).unwrap().len() as u64);
        assert_ne!(first.fnv, second.fnv);

        let all: Vec<TaggedCommit> = reqs.iter().copied().zip(txs.iter().cloned()).collect();
        assert_eq!(restore_history(&store, 0, second).unwrap(), all);

        // A snapshot that saw only the first delta: the second is a
        // crash between the two cadence writes and is dropped.
        assert_eq!(restore_history(&store, 0, first).unwrap(), all[..2]);
        assert_eq!(store.get(&hist_name(0)).unwrap().len() as u64, first.len);
        // Re-appending it reproduces the bytes and the position.
        w.resume_history(first);
        w.append_history(&reqs[2..], &txs[2..]);
        assert_eq!(w.history_pos(), second);
        assert_eq!(restore_history(&store, 0, second).unwrap(), all);
    }

    #[test]
    fn damaged_history_is_an_error_and_left_untouched() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let (reqs, txs) = sample_commits();
        w.append_history(&reqs, &txs);
        let pos = w.history_pos();
        let name = hist_name(0);
        let good = store.get(&name).unwrap();

        // Shorter than the snapshot recorded.
        store.put(&name, &good[..good.len() - 1]);
        assert!(restore_history(&store, 0, pos).unwrap_err().contains("snapshot recorded"));
        store.delete(&name);
        assert!(restore_history(&store, 0, pos).is_err());

        // One flipped bit inside the frame.
        let mut flipped = good.clone();
        flipped[20] ^= 0x10;
        store.put(&name, &flipped);
        assert!(restore_history(&store, 0, pos).unwrap_err().contains("corrupt history frame"));
        assert_eq!(store.get(&name).unwrap(), flipped, "nothing is written on error");

        // Whole, valid frames — but not the ones the snapshot chained.
        store.put(&name, &good);
        let wrong = HistoryPos { fnv: pos.fnv ^ 1, ..pos };
        assert!(restore_history(&store, 0, wrong).unwrap_err().contains("checksum chain"));
        // A position that splits a frame.
        let split = HistoryPos { len: pos.len - 3, ..pos };
        assert!(restore_history(&store, 0, split).is_err());
        // A record frame where a history frame belongs.
        let rec = sample_records()[4].encode();
        store.put(&name, &rec);
        let pos = HistoryPos { len: rec.len() as u64, fnv: 0 };
        assert!(restore_history(&store, 0, pos).unwrap_err().contains("corrupt history frame"));
    }

    #[test]
    fn decision_log_round_trips_with_presumed_abort_on_tear() {
        let store = MemStore::shared();
        append_decision(&store, 7, true);
        append_decision(&store, 8, false);
        // Coordinator dies mid-append of a third decision.
        let torn = WalRecord::Decision { req: 9, commit: true }.encode();
        store.append(DECISIONS, &torn[..torn.len() - 3]);
        let d = read_decisions(&store);
        assert_eq!(d.get(&7), Some(&true));
        assert_eq!(d.get(&8), Some(&false));
        assert_eq!(d.get(&9), None, "unlogged decision is an abort by presumption");
    }

    #[test]
    fn store_fingerprint_tracks_content() {
        let a = MemStore::shared();
        let b = MemStore::shared();
        a.put("x", b"one");
        b.put("x", b"one");
        assert_eq!(store_fingerprint(&a), store_fingerprint(&b));
        b.append("x", b"!");
        assert_ne!(store_fingerprint(&a).0, store_fingerprint(&b).0);
        assert_eq!(store_fingerprint(&b).1, 4);
    }

    #[test]
    fn dirstore_round_trips_on_disk() {
        let root = std::env::temp_dir()
            .join(format!("tm-serve-wal-test-{}", std::process::id()))
            .join("store");
        let _ = std::fs::remove_dir_all(&root);
        let store: StoreHandle = Arc::new(DirStore::open(&root).unwrap());
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.append(&recs[3]);
        let (reqs, txs) = sample_commits();
        w.append_history(&reqs, &txs);
        let snap = Snapshot { history: w.history_pos(), ..sample_snapshot(1) };
        w.put_snapshot(&snap);
        let wal = read_shard_wal(&store, 0).unwrap();
        assert_eq!(wal.records().count(), 2);
        assert!(!wal.torn);
        let back = latest_snapshot(&store, 0).unwrap().expect("a snapshot exists");
        assert_eq!(back.seq, 1);
        assert_eq!(restore_history(&store, 0, back.history).unwrap().len(), 3);
        assert_eq!(store.list("s000/").len(), 3);
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }

    #[test]
    fn identical_streams_produce_identical_bytes() {
        let write = || {
            let store = MemStore::shared();
            let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
            for rec in sample_records() {
                w.append(&rec);
            }
            let (reqs, txs) = sample_commits();
            w.append_history(&reqs, &txs);
            w.put_snapshot(&sample_snapshot(1));
            store_fingerprint(&store)
        };
        assert_eq!(write(), write());
    }
}
