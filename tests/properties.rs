//! Randomised property tests over the core data structures and end-to-end
//! transactional invariants.
//!
//! The container builds offline, so these use a deterministic seeded
//! generator (splitmix64) instead of an external property-testing crate:
//! each property is exercised over a few hundred pseudo-random cases, and a
//! failing case prints its seed so it can be replayed exactly.

use gpu_sim::cache::CacheOutcome;
use gpu_sim::coalesce::{atomic_conflict_depth, coalesce, SEGMENT_WORDS};
use gpu_sim::{Addr, CacheConfig, L2Cache, LaneMask, LaunchConfig, Sim, SimConfig, WARP_SIZE};
use gpu_stm::locklog::LockLog;
use gpu_stm::sets::WriteSet;
use gpu_stm::{lane_addrs, lane_vals, LockStm, Stm, StmConfig, StmShared};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Deterministic case generator: splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        gpu_sim::rng::splitmix64(&mut self.0)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0);
        self.next_u32() % n
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Lane-mask algebra is Boolean algebra on 32-bit sets.
#[test]
fn lane_mask_set_algebra() {
    let mut g = Gen::new(0xa1);
    for case in 0..512 {
        let (a, b) = (g.next_u32(), g.next_u32());
        let (ma, mb) = (LaneMask::from_bits(a), LaneMask::from_bits(b));
        assert_eq!((ma | mb).bits(), a | b, "case {case}: a={a:#x} b={b:#x}");
        assert_eq!((ma & mb).bits(), a & b, "case {case}: a={a:#x} b={b:#x}");
        assert_eq!((!(ma)).bits(), !a, "case {case}: a={a:#x}");
        assert_eq!((ma & !mb) | (ma & mb), ma, "case {case}: a={a:#x} b={b:#x}");
        let from_iter: LaneMask = ma.iter().collect();
        assert_eq!(from_iter, ma, "case {case}: a={a:#x}");
    }
}

/// The masks and address patterns a warp instruction can present, edge
/// cases first: `case % 9` picks the mask shape, `case / 9 % 4` the pattern.
fn lane_case(g: &mut Gen, case: usize) -> (LaneMask, [Addr; WARP_SIZE]) {
    let mask = match case % 9 {
        0 => LaneMask::EMPTY,
        1 => LaneMask::lane(g.below(32) as usize),
        2 => LaneMask::FULL,
        3 => LaneMask::first_n(g.below(33) as usize),
        // 2–10 scattered lanes: a sparse warp, such as a 2-thread block's.
        8 => {
            let n = 2 + g.below(9);
            let mut m = LaneMask::EMPTY;
            while m.count() < n {
                m = m.with(g.below(32) as usize);
            }
            m
        }
        _ => LaneMask::from_bits(g.next_u32()),
    };
    let base = g.below(1 << 20);
    let addrs: [Addr; WARP_SIZE] = match case / 9 % 4 {
        // Every lane on one word.
        0 => [Addr(base); WARP_SIZE],
        // Every lane in a segment of its own, consecutive or scattered.
        1 => {
            let (first, stride) = (base / SEGMENT_WORDS, 1 + g.below(40));
            std::array::from_fn(|l| {
                Addr((first + l as u32 * stride) * SEGMENT_WORDS + g.below(SEGMENT_WORDS))
            })
        }
        // Contiguous words from an arbitrary, mostly unaligned, start.
        2 => std::array::from_fn(|l| Addr(base + l as u32)),
        // A few segments and words shared between many lanes.
        _ => std::array::from_fn(|_| Addr(base + g.below(4) * SEGMENT_WORDS + g.below(3))),
    };
    (mask, addrs)
}

/// Coalescing against its definition: the segments are the distinct ones
/// in first-touch order, and the conflict depth is the largest number of
/// active lanes on one word.
#[test]
fn coalesce_counts_distinct_segments() {
    let mut g = Gen::new(0xc0);
    for case in 0..4608 {
        let (mask, addrs) = lane_case(&mut g, case);
        let mut first_touch: Vec<u32> = Vec::new();
        let mut lanes_on: BTreeMap<Addr, u32> = BTreeMap::new();
        for lane in mask.iter() {
            let seg = addrs[lane].0 / SEGMENT_WORDS;
            if !first_touch.contains(&seg) {
                first_touch.push(seg);
            }
            *lanes_on.entry(addrs[lane]).or_default() += 1;
        }
        let c = coalesce(mask, &addrs);
        assert_eq!(c.segments(), first_touch, "case {case}: {mask:?} {addrs:?}");
        assert_eq!(c.transactions() as usize, first_touch.len(), "case {case}");
        let depth = atomic_conflict_depth(mask, &addrs);
        assert_eq!(depth, lanes_on.values().copied().max().unwrap_or(0), "case {case}: {mask:?}");
        if case / 9 % 4 == 1 {
            assert_eq!((c.transactions(), depth), (mask.count(), u32::from(mask.any())));
        }
    }
}

/// The L2 model as one loop over the set, the way it was first written:
/// the oracle `L2Cache::access` must agree with, access by access.
struct OracleCache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl OracleCache {
    fn new(cfg: CacheConfig) -> Self {
        OracleCache { cfg, tags: vec![0; cfg.lines()], stamps: vec![0; cfg.lines()], tick: 0 }
    }

    fn access(&mut self, segment: u32) -> CacheOutcome {
        self.tick += 1;
        let base = (segment as usize & (self.cfg.sets - 1)) * self.cfg.ways;
        let key = segment as u64 + 1;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + self.cfg.ways {
            if self.tags[i] == key {
                self.stamps[i] = self.tick;
                return CacheOutcome::Hit;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = key;
        self.stamps[victim] = self.tick;
        CacheOutcome::Miss
    }
}

/// Hit/miss outcomes, victim choice and the checkpointed tag/LRU image of
/// the L2 model are those of the single-loop oracle, on a cache small
/// enough to evict constantly and on the Fermi geometry.
#[test]
fn l2_cache_matches_single_loop_oracle() {
    let mut g = Gen::new(0x12c);
    for (cfg, segments, accesses) in
        [(CacheConfig::tiny(), 7, 2_048), (CacheConfig::fermi_l2(), 12_000, 40_000)]
    {
        let mut cache = L2Cache::new(cfg);
        let mut oracle = OracleCache::new(cfg);
        for n in 0..accesses {
            // Mostly a hot set of segments, so hits dominate as in a run.
            let seg = if g.below(4) == 0 { g.below(segments) } else { g.below(segments / 4 + 1) };
            assert_eq!(cache.access(seg), oracle.access(seg), "{cfg:?} access {n}: segment {seg}");
            if n % 512 == 0 || cfg == CacheConfig::tiny() {
                let ck = cache.checkpoint();
                assert_eq!(
                    (&ck.tags, &ck.stamps, ck.tick),
                    (&oracle.tags, &oracle.stamps, oracle.tick),
                    "{cfg:?} after access {n}"
                );
            }
        }
    }
}

/// The order-preserving hash table of Section 3.1 as buckets of sorted
/// lists: the layout whose scan `LockLog::insert` charges.
struct BucketedLog {
    buckets: Vec<Vec<(u32, bool, bool)>>,
    shift: u32,
    order: Vec<u32>,
}

impl BucketedLog {
    fn new(n_buckets: u32, n_locks: u32) -> Self {
        let shift = n_locks.trailing_zeros() - n_buckets.trailing_zeros();
        BucketedLog { buckets: vec![Vec::new(); n_buckets as usize], shift, order: Vec::new() }
    }

    /// Scans the lock's bucket up to its slot; returns the comparisons.
    fn insert(&mut self, lock: u32, read: bool, write: bool) -> u32 {
        let bucket = &mut self.buckets[(lock >> self.shift) as usize];
        let mut comparisons = 0;
        for i in 0..bucket.len() {
            comparisons += 1;
            if bucket[i].0 == lock {
                bucket[i].1 |= read;
                bucket[i].2 |= write;
                return comparisons;
            }
            if bucket[i].0 > lock {
                bucket.insert(i, (lock, read, write));
                self.order.push(lock);
                return comparisons;
            }
        }
        bucket.push((lock, read, write));
        self.order.push(lock);
        comparisons
    }

    fn get(&self, lock: u32) -> Option<(u32, bool, bool)> {
        self.buckets[(lock >> self.shift) as usize].iter().copied().find(|e| e.0 == lock)
    }
}

/// The lock-log yields a sorted, deduplicated sequence whose contents and
/// bits match a BTreeMap reference model, for any bucket count, and charges
/// each insert exactly the comparisons the bucketed table makes.
#[test]
fn locklog_matches_reference_model() {
    let mut g = Gen::new(0x10c);
    for case in 0..256 {
        let buckets = g.below(5);
        let n_ops = g.below(64) as usize;
        let ops: Vec<(u32, bool, bool)> =
            (0..n_ops).map(|_| (g.below(256), g.bool(), g.bool())).collect();
        let mut log = LockLog::new(1 << buckets, 256);
        let mut bucketed = BucketedLog::new(1 << buckets, 256);
        let mut model: BTreeMap<u32, (bool, bool)> = BTreeMap::new();
        for (n, &(lock, rd, wr)) in ops.iter().enumerate() {
            let charged = log.insert(lock, rd, wr);
            assert_eq!(charged, bucketed.insert(lock, rd, wr), "case {case} insert {n}: {lock}");
            let e = model.entry(lock).or_insert((false, false));
            e.0 |= rd;
            e.1 |= wr;
        }
        assert_eq!(log.len(), model.len(), "case {case}");
        for lock in 0..256 {
            let got = log.get(lock).map(|e| (e.lock, e.read, e.write));
            assert_eq!(got, bucketed.get(lock), "case {case}: get({lock})");
        }
        for k in 0..=bucketed.order.len() {
            let got = log.nth_inserted(k).map(|e| (e.lock, e.read, e.write));
            let want = bucketed.order.get(k).and_then(|&lock| bucketed.get(lock));
            assert_eq!(got, want, "case {case}: nth_inserted({k})");
        }
        let got: Vec<(u32, bool, bool)> =
            log.iter_sorted().map(|e| (e.lock, e.read, e.write)).collect();
        let want: Vec<(u32, bool, bool)> = model.iter().map(|(k, (r, w))| (*k, *r, *w)).collect();
        assert_eq!(got, want, "case {case}");
        // nth_sorted agrees with iteration.
        for (k, e) in log.iter_sorted().enumerate() {
            assert_eq!(log.nth_sorted(k), Some(e), "case {case}");
        }
        assert_eq!(log.nth_sorted(model.len()), None, "case {case}");
    }
}

/// The write-set (Bloom filter + log) behaves like a per-lane map with
/// last-write-wins semantics.
#[test]
fn writeset_matches_map_model() {
    let mut g = Gen::new(0x3e7);
    for case in 0..256 {
        let n_ops = g.below(100) as usize;
        let mut ws = WriteSet::new();
        let mut model: BTreeMap<(usize, u32), u32> = BTreeMap::new();
        for _ in 0..n_ops {
            let (lane, addr, val) = (g.below(4) as usize, g.below(64), g.next_u32());
            ws.insert(lane, Addr(addr), val);
            model.insert((lane, addr), val);
        }
        for lane in 0..4 {
            for addr in 0..64u32 {
                assert_eq!(
                    ws.lookup(lane, Addr(addr)),
                    model.get(&(lane, addr)).copied(),
                    "case {case} lane {lane} addr {addr}"
                );
            }
            let expected_len = model.keys().filter(|(l, _)| *l == lane).count();
            assert_eq!(ws.len(lane), expected_len, "case {case} lane {lane}");
        }
    }
}

/// End-to-end conservation: random counter-increment workloads under
/// GPU-STM never lose or duplicate increments, for arbitrary small
/// configurations (lock-table size, counters, threads, increments).
#[test]
fn stm_conserves_increments() {
    let mut g = Gen::new(0x57a);
    for case in 0..12 {
        let lock_bits = 2 + g.below(6);
        let n_counters = 1 + g.below(31);
        let warps = 1 + g.below(2);
        let incr = 1 + g.below(3);
        let seed = g.next_u64();
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.watchdog_cycles = 1 << 32;
        let mut sim = Sim::new(cfg);
        let stm_cfg = StmConfig { locklog_buckets: 4, ..StmConfig::new(1 << lock_bits) };
        let shared = StmShared::init(&mut sim, &stm_cfg).unwrap();
        let counters = sim.alloc(n_counters).unwrap();
        let stm = Rc::new(LockStm::hv_sorting(shared, stm_cfg));
        let kstm = Rc::clone(&stm);
        let grid = LaunchConfig::new(1, warps * 32);
        sim.launch(grid, move |ctx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = gpu_sim::WarpRng::new(seed, ctx.id().thread_id(0));
                let mut remaining = [incr; 32];
                let mut target = [0u32; 32];
                let mut fresh = ctx.id().launch_mask;
                loop {
                    let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    for l in (pending & fresh).iter() {
                        target[l] = rng.below(l, n_counters);
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    let addrs = lane_addrs(active, |l| counters.offset(target[l]));
                    let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                    let ok = active & stm.opaque(&w);
                    stm.write(&mut w, &ctx, ok, &addrs, &lane_vals(ok, |l| vals[l] + 1)).await;
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                    fresh = committed;
                }
            }
        })
        .unwrap();
        let total: u64 = sim.read_slice(counters, n_counters).iter().map(|v| *v as u64).sum();
        assert_eq!(total, grid.total_threads() * incr as u64, "case {case} seed {seed:#x}");
    }
}

/// The version-lock word encoding round-trips for any version that fits in
/// 31 bits.
#[test]
fn version_lock_roundtrip() {
    use gpu_stm::VersionLock;
    let mut g = Gen::new(0x10c4);
    for case in 0..256 {
        let version = g.next_u32() & ((1 << 31) - 1);
        let v = VersionLock::unlocked(version);
        assert!(!v.is_locked(), "case {case}");
        assert_eq!(v.version(), version, "case {case}");
        assert!(v.locked().is_locked(), "case {case}");
        assert_eq!(v.locked().version(), version, "case {case}");
        assert_eq!(v.locked().released(), v, "case {case}");
        // Algorithm 3's release-by-decrement preserves the version.
        assert_eq!(VersionLock(v.locked().bits() - 1), v, "case {case}");
    }
}
