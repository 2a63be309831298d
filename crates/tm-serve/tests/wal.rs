//! Property tests for the write-ahead log: across seeds, traffic
//! mixes, snapshot cadences and compaction settings, a durable run is
//! byte-deterministic, and snapshot + WAL-tail replay (`cold_recover`)
//! reproduces every shard's `history_fnv` and `commit_log_fnv`
//! byte-exactly. Also round-trips the directory-backed store against
//! the in-memory one, cuts the log and the history blob where no
//! injected crash point sits (inside the commits-and-seal append,
//! between the history append and the snapshot put) and checks the
//! store heals to the same bytes, and pins bytes written per request
//! to linear growth in run length.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use tm_serve::{
    store_fingerprint, BlobStore, DirStore, DurabilityConfig, MemStore, MixConfig, ServeConfig,
    ServeError, Service, StoreHandle,
};

fn cfg(seed: u64, mix: MixConfig, dur: DurabilityConfig) -> ServeConfig {
    ServeConfig {
        shards: 2,
        mix: MixConfig { requests: 96, ..mix },
        seed,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(dur),
        ..ServeConfig::default()
    }
}

/// The property under test, for one (seed, mix, cadence, compaction)
/// point: two runs are byte-identical (reports and store contents),
/// and a cold recovery from the store alone lands on the served
/// history hashes.
fn check_point(seed: u64, mix: MixConfig, segment_batches: u64, compact: bool) {
    let dur = DurabilityConfig { segment_batches, compact, ..DurabilityConfig::default() };
    let c = cfg(seed, mix, dur);

    let store_a = MemStore::shared();
    let (report_a, _) = Service::run_durable(&c, store_a.clone())
        .unwrap_or_else(|e| panic!("seed {seed} seg {segment_batches}: {e}"));
    let store_b = MemStore::shared();
    let (report_b, _) = Service::run_durable(&c, store_b.clone()).expect("second run");

    assert_eq!(report_a.to_json(), report_b.to_json(), "seed {seed}: report determinism");
    assert_eq!(
        store_fingerprint(&store_a),
        store_fingerprint(&store_b),
        "seed {seed} seg {segment_batches} compact {compact}: WAL byte determinism"
    );

    let shards = Service::cold_recover(&c, store_a).expect("cold recover");
    assert_eq!(shards.len(), c.shards);
    for ((_, summary), shard_report) in shards.iter().zip(&report_a.shard_reports) {
        assert_eq!(
            summary.history_fnv, shard_report.history_fnv,
            "seed {seed} seg {segment_batches} compact {compact}: shard {} history_fnv",
            shard_report.shard
        );
        assert_eq!(
            summary.commit_log_fnv, shard_report.commit_log_fnv,
            "seed {seed} seg {segment_batches} compact {compact}: shard {} commit_log_fnv",
            shard_report.shard
        );
        assert!(summary.violations.is_empty(), "tm-check on replayed history");
    }
}

#[test]
fn snapshot_replay_reproduces_history_hashes_across_seeds_and_mixes() {
    for seed in [3u64, 17, 40] {
        for mix in [MixConfig::bank(), MixConfig::mixed()] {
            check_point(seed, mix, 3, true);
        }
    }
}

#[test]
fn every_snapshot_cadence_and_compaction_setting_replays_exactly() {
    for segment_batches in [1u64, 2, 64] {
        for compact in [false, true] {
            check_point(9, MixConfig::mixed(), segment_batches, compact);
        }
    }
}

#[test]
fn dir_store_round_trips_bit_for_bit_with_mem_store() {
    let dur = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let c = cfg(11, MixConfig::mixed(), dur);

    let mem = MemStore::shared();
    let (mem_report, _) = Service::run_durable(&c, mem.clone()).expect("mem run");

    let root = std::env::temp_dir().join(format!("tm-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = std::sync::Arc::new(DirStore::open(&root).expect("open dir store"));
    let (dir_report, _) =
        Service::run_durable(&c, dir.clone() as tm_serve::StoreHandle).expect("dir run");

    assert_eq!(dir_report.to_json(), mem_report.to_json());
    assert_eq!(
        store_fingerprint(&(dir.clone() as tm_serve::StoreHandle)),
        store_fingerprint(&mem),
        "directory store must hold byte-identical blobs"
    );

    // A separate process observing only the directory can rebuild the
    // shards and land on the served history.
    let shards = Service::cold_recover(&c, dir as tm_serve::StoreHandle).expect("cold recover");
    for ((_, summary), shard_report) in shards.iter().zip(&mem_report.shard_reports) {
        assert_eq!(summary.history_fnv, shard_report.history_fnv);
        assert_eq!(summary.commit_log_fnv, shard_report.commit_log_fnv);
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

fn copy_store(src: &StoreHandle) -> StoreHandle {
    let dst = MemStore::shared();
    for name in src.list("") {
        dst.put(&name, &src.get(&name).expect("listed blob exists"));
    }
    dst
}

/// `(kind, start, end)` of every frame in a blob: the
/// `[magic u32][kind u8][len u32][payload][fnv u64]` layout, walked
/// from outside the crate.
fn frame_bounds(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
        out.push((bytes[pos + 4], pos, pos + 17 + len));
        pos += 17 + len;
    }
    assert_eq!(pos, bytes.len(), "blob is whole frames");
    out
}

const KIND_SNAPSHOT: u8 = 0;
const KIND_BATCH: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_HISTORY: u8 = 6;

#[test]
fn a_cut_anywhere_in_the_final_group_heals_byte_identically() {
    // Commits and seal are one append; no injected crash point sits
    // inside it. Cut the final segment at every record boundary and in
    // the middle of every record after the last `Batch`: whatever
    // prefix of the group survived, recovery must drop it back to the
    // `Batch`, re-execute, and land on the bytes of the uncut store.
    let mut longest_group = 0;
    for seed in [3u64, 17, 40] {
        let dur = DurabilityConfig { segment_batches: 64, ..DurabilityConfig::default() };
        let c = cfg(seed, MixConfig::mixed(), dur);
        let full = MemStore::shared();
        Service::run_durable(&c, full.clone()).expect("durable run");
        let healed = copy_store(&full);
        Service::cold_recover(&c, healed.clone()).expect("cold recover of the uncut store");
        let want = store_fingerprint(&healed);

        for shard in 0..c.shards {
            let name = full.list(&format!("s{shard:03}/wal-")).pop().expect("a segment");
            let bytes = full.get(&name).unwrap();
            let frames = frame_bounds(&bytes);
            let batch = frames.iter().rposition(|f| f.0 == KIND_BATCH).expect("a batch");
            let group = &frames[batch + 1..];
            longest_group = longest_group.max(group.iter().filter(|f| f.0 == KIND_COMMIT).count());
            let mut cuts: Vec<usize> = group
                .iter()
                .flat_map(|&(_, start, end)| [start, start + 1, (start + end) / 2, end - 1])
                .collect();
            cuts.dedup();
            for cut in cuts {
                let store = copy_store(&full);
                store.put(&name, &bytes[..cut]);
                Service::cold_recover(&c, store.clone())
                    .unwrap_or_else(|e| panic!("seed {seed} shard {shard} cut {cut}: {e}"));
                assert_eq!(
                    store_fingerprint(&store),
                    want,
                    "seed {seed} shard {shard}: cut at byte {cut} of {} did not heal",
                    bytes.len()
                );
            }
        }
    }
    assert!(longest_group >= 3, "some final group must hold several commits to cut between");
}

/// A checksum-valid frame around an arbitrary payload — what a forger
/// can leave in a blob. The trailing FNV-1a folds `kind`, `len` and
/// every payload byte as zero-extended little-endian `u64` words.
fn forged_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    let words = [kind as u64, payload.len() as u64].into_iter();
    for word in words.chain(payload.iter().map(|&b| b as u64)) {
        for byte in word.to_le_bytes() {
            sum = (sum ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut out = 0x5741_4C31u32.to_le_bytes().to_vec();
    out.push(kind);
    out.extend((payload.len() as u32).to_le_bytes());
    out.extend(payload);
    out.extend(sum.to_le_bytes());
    out
}

#[test]
fn hostile_blobs_are_engine_errors_never_a_panic_or_abort() {
    let dur = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let c = cfg(7, MixConfig::mixed(), dur);
    let engine_error =
        |store: &StoreHandle, what: &str| match Service::cold_recover(&c, store.clone()) {
            Err(ServeError::Engine { message, .. }) => message,
            Err(other) => panic!("{what}: expected an engine error, got {other}"),
            Ok(_) => panic!("{what}: recovered from a hostile store"),
        };

    // A checksum-valid `Commit` record promising `u32::MAX` writes: the
    // count must be refused against the bytes left, not allocated.
    let mut commit = 9u64.to_le_bytes().to_vec();
    commit.extend([0u8; 16]); // tid, version, snapshot, reads
    commit.extend(u32::MAX.to_le_bytes());
    let forged = forged_frame(KIND_COMMIT, &commit);
    let store = MemStore::shared();
    store.put("s000/wal-00000000", &forged);
    // As the final record it is indistinguishable from a torn tail and
    // is truncated; anywhere else it is corruption.
    Service::cold_recover(&c, store.clone()).expect("forged tail record is dropped as torn");
    assert_eq!(store.get("s000/wal-00000000"), Some(vec![]));
    store.put("s000/wal-00000000", &forged);
    store.put("s000/wal-00000001", &[]);
    assert!(engine_error(&store, "forged commit count").contains("non-final segment"));

    let full = MemStore::shared();
    Service::run_durable(&c, full.clone()).expect("durable run");
    let snap = full.list("s000/snap-").pop().expect("a snapshot");
    let hist = full.get("s000/hist").expect("a history blob");

    // A version-2 snapshot whose memory image promises 4 G words.
    let seq: u64 = snap.rsplit('-').next().unwrap().parse().unwrap();
    let mut image = 2u32.to_le_bytes().to_vec();
    image.extend(seq.to_le_bytes());
    image.extend(u32::MAX.to_le_bytes());
    let store = copy_store(&full);
    store.put(&snap, &forged_frame(KIND_SNAPSHOT, &image));
    assert!(engine_error(&store, "forged snapshot count").contains("corrupt snapshot payload"));

    // A version-1 payload (history inline) is refused by its version.
    let mut v1 = 1u32.to_le_bytes().to_vec();
    v1.extend(seq.to_le_bytes());
    let store = copy_store(&full);
    store.put(&snap, &forged_frame(KIND_SNAPSHOT, &v1));
    assert!(engine_error(&store, "v1 snapshot").contains("unsupported snapshot format version 1"));

    // A history blob shorter than the snapshot recorded.
    let store = copy_store(&full);
    store.put("s000/hist", &hist[..hist.len() - 1]);
    assert!(engine_error(&store, "truncated history").contains("snapshot recorded"));

    // One flipped bit inside a history frame.
    let mut flipped = hist.clone();
    flipped[hist.len() / 2] ^= 0x04;
    let store = copy_store(&full);
    store.put("s000/hist", &flipped);
    assert!(engine_error(&store, "bit-flipped history").contains("corrupt history frame"));
    assert_eq!(store.get("s000/hist"), Some(flipped), "a refused store is left as found");

    // A history frame whose commit count outruns its payload.
    let mut forged = forged_frame(KIND_HISTORY, &u32::MAX.to_le_bytes());
    forged.extend(&hist);
    let store = copy_store(&full);
    store.put("s000/hist", &forged);
    assert!(engine_error(&store, "forged history count").contains("undecodable history frame"));
}

#[derive(Copy, Clone, PartialEq)]
enum Write {
    Put,
    Append,
}

/// Passes every call through until the `nth` write of kind `on` to a
/// blob whose name starts with `prefix`; that write still lands, and
/// every write after it is dropped — the store a crash right after
/// that write leaves behind.
struct CrashAfter {
    inner: StoreHandle,
    on: Write,
    prefix: &'static str,
    nth: usize,
    seen: AtomicUsize,
    dead: AtomicBool,
}

impl CrashAfter {
    fn new(on: Write, prefix: &'static str, nth: usize) -> Arc<CrashAfter> {
        Arc::new(CrashAfter {
            inner: MemStore::shared(),
            on,
            prefix,
            nth,
            seen: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
        })
    }

    /// Whether the write should land.
    fn alive(&self, write: Write, name: &str) -> bool {
        if self.dead.load(SeqCst) {
            return false;
        }
        let counted = write == self.on && name.starts_with(self.prefix);
        if counted && self.seen.fetch_add(1, SeqCst) + 1 == self.nth {
            self.dead.store(true, SeqCst);
        }
        true
    }
}

impl BlobStore for CrashAfter {
    fn put(&self, name: &str, bytes: &[u8]) {
        if self.alive(Write::Put, name) {
            self.inner.put(name, bytes);
        }
    }
    fn append(&self, name: &str, bytes: &[u8]) {
        if self.alive(Write::Append, name) {
            self.inner.append(name, bytes);
        }
    }
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn delete(&self, name: &str) {
        if !self.dead.load(SeqCst) {
            self.inner.delete(name);
        }
    }
}

#[test]
fn a_crash_between_history_append_and_snapshot_put_heals_byte_identically() {
    // One shard, so every store write happens in one deterministic
    // order; no compaction, so the roll is a cadence's last write.
    let dur = DurabilityConfig { segment_batches: 2, compact: false, ..Default::default() };
    // Twice `cfg`'s traffic, so the one shard runs past its fourth batch.
    let base = cfg(5, MixConfig::mixed(), dur);
    let c = ServeConfig { shards: 1, mix: MixConfig { requests: 192, ..base.mix }, ..base };

    // Died right after the second cadence's history append: the blob
    // runs past what the only snapshot (the first cadence's) recorded.
    let torn = CrashAfter::new(Write::Append, "s000/hist", 2);
    Service::run_durable(&c, torn.clone()).expect("run into the dying store");
    // Died right after the same cadence's roll (creating segment 0 was
    // the first put to a wal- blob): snapshot written, nothing half-done.
    let clean = CrashAfter::new(Write::Put, "s000/wal-", 3);
    Service::run_durable(&c, clean.clone()).expect("run into the dying store");

    assert_eq!(torn.inner.list("s000/snap-"), ["s000/snap-00000002"]);
    assert_eq!(clean.inner.list("s000/snap-"), ["s000/snap-00000004"]);
    assert_eq!(torn.inner.get("s000/hist"), clean.inner.get("s000/hist"));

    let from_torn = Service::cold_recover(&c, torn.inner.clone()).expect("recover torn");
    let from_clean = Service::cold_recover(&c, clean.inner.clone()).expect("recover clean");
    assert_eq!(store_fingerprint(&torn.inner), store_fingerprint(&clean.inner));
    assert_eq!(from_torn[0].0.snapshot_seq, 2);
    assert_eq!(from_torn[0].0.replayed, 2, "batches 3 and 4 replay, re-appending the delta");
    assert_eq!(from_clean[0].0.snapshot_seq, 4);
    assert_eq!(from_torn[0].1.history_fnv, from_clean[0].1.history_fnv);
    assert_eq!(from_torn[0].1.commit_log_fnv, from_clean[0].1.commit_log_fnv);
    assert!(from_torn[0].1.violations.is_empty(), "tm-check on the healed history");
}

/// Counts the bytes the service writes.
struct CountingStore {
    inner: StoreHandle,
    written: AtomicU64,
}

impl BlobStore for CountingStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.written.fetch_add(bytes.len() as u64, SeqCst);
        self.inner.put(name, bytes);
    }
    fn append(&self, name: &str, bytes: &[u8]) {
        self.written.fetch_add(bytes.len() as u64, SeqCst);
        self.inner.append(name, bytes);
    }
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn delete(&self, name: &str) {
        self.inner.delete(name);
    }
}

#[test]
fn bytes_written_per_request_do_not_grow_with_run_length() {
    // The paced open-loop shape `perf`'s `serve_paced_wal` runs, a
    // tenth to two fifths of its length: long enough that a history
    // re-serialised at every snapshot would outweigh the fixed-size
    // engine image (5 k -> 20 k requests then costs 1.7x the bytes per
    // request), short enough for an unoptimised build.
    let run = |requests: u64| {
        let c = ServeConfig {
            shards: 2,
            workers: 1,
            mix: MixConfig { requests, mean_interarrival: 250, ..MixConfig::mixed() },
            batch_warps: 32,
            queue_capacity: requests as usize,
            durability: Some(DurabilityConfig::default()),
            ..ServeConfig::default()
        };
        let store = Arc::new(CountingStore { inner: MemStore::shared(), written: 0.into() });
        let (report, _) = Service::run_durable(&c, store.clone()).expect("durable run");
        assert_eq!(report.completed, requests);
        let per_request = store.written.load(SeqCst) as f64 / requests as f64;
        (c, store.inner.clone(), report, per_request)
    };
    let (_, _, _, short) = run(5_000);
    let (c, store, report, long) = run(20_000);
    assert!(
        long <= 1.25 * short,
        "bytes written per request grew from {short:.0} at 5 k requests to {long:.0} at 20 k"
    );

    let shards = Service::cold_recover(&c, store).expect("cold recover");
    for ((stats, summary), shard_report) in shards.iter().zip(&report.shard_reports) {
        assert!(stats.snapshot_seq > 0, "recovery starts from a snapshot, not the whole log");
        assert_eq!(summary.history_fnv, shard_report.history_fnv);
        assert_eq!(summary.commit_log_fnv, shard_report.commit_log_fnv);
    }
}
