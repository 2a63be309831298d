//! GPU-STM proper: the word-/lock-based STM of Section 3, parameterised by
//! validation strategy (TBV or hierarchical) and commit-lock acquisition
//! scheme (encounter-time lock-sorting or the GPU-specific backoff).
//!
//! The five lock-based variants map to:
//!
//! | Paper name        | Constructor                |
//! |-------------------|----------------------------|
//! | STM-TBV-Sorting   | [`LockStm::tbv_sorting`]   |
//! | STM-HV-Sorting    | [`LockStm::hv_sorting`]    |
//! | STM-HV-Backoff    | [`LockStm::hv_backoff`]    |
//! | (ablation only)   | [`LockStm::tbv_backoff`]   |
//! | STM-Optimized     | [`LockStm::optimized`]     |
//!
//! [`LockStm::for_variant`] maps the first four from a [`Variant`].

use crate::api::{lane_addrs, lane_vals, Stm};
use crate::config::{Locking, StmConfig, Validation};
use crate::history::Recorder;
use crate::ledger::Ledger;
use crate::shared::StmShared;
use crate::stats::{AbortCause, Phase, StatsHandle};
use crate::trace::{TxEventKind, TxTraceSink};
use crate::validation::{post_validation, vbv};
use crate::variant::Variant;
use crate::version_lock::VersionLock;
use crate::warptx::WarpTx;
use gpu_sim::{AtomicOp, LaneAddrs, LaneMask, LaneVals, WarpCtx, WARP_SIZE};

/// Deliberately seeded correctness bugs, used to validate the verifier:
/// each mutation breaks one invariant of Algorithm 3 in a way that a
/// single benign schedule cannot observe but exhaustive interleaving
/// exploration (`tm-verify`) must catch. All mutations default to off and
/// can only be enabled through [`LockStm::with_mutation`], which is gated
/// behind `cfg(test)` / the `mutants` cargo feature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mutation {
    /// Skip commit-time validation (lines 75–78): a transaction whose read
    /// stripe was overwritten after its snapshot commits anyway, so the
    /// history contains an inconsistent read under a racy interleaving.
    pub skip_validation: bool,
    /// Acquire commit locks blocking, in encounter order, instead of the
    /// release-and-retry sorted protocol (lines 43–52): two transactions
    /// that touched the same two stripes in opposite orders deadlock under
    /// the right interleaving.
    pub unsorted_locks: bool,
    /// Publish the write-set *after* releasing/version-updating the locks
    /// instead of before (reordering lines 80–84, i.e. dropping the
    /// release fence of line 82): a reader admitted by the new version can
    /// still observe pre-transaction values.
    pub late_writeback: bool,
}

impl Mutation {
    /// True when any mutation is enabled.
    pub fn any(&self) -> bool {
        self.skip_validation || self.unsorted_locks || self.late_writeback
    }
}

/// The lock-based GPU-STM runtime (Algorithm 3).
#[derive(Clone)]
pub struct LockStm {
    shared: StmShared,
    cfg: StmConfig,
    validation: Validation,
    locking: Locking,
    ledger: Ledger,
    variant: Variant,
    mutation: Mutation,
}

impl std::fmt::Debug for LockStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockStm")
            .field("name", &self.variant.label())
            .field("validation", &self.validation)
            .field("locking", &self.locking)
            .finish_non_exhaustive()
    }
}

impl LockStm {
    fn new(
        shared: StmShared,
        cfg: StmConfig,
        variant: Variant,
        validation: Validation,
        locking: Locking,
    ) -> Self {
        LockStm {
            shared,
            cfg,
            validation,
            locking,
            ledger: Ledger::new(),
            variant,
            mutation: Mutation::default(),
        }
    }

    /// Timestamp-based validation with encounter-time lock-sorting
    /// (the paper's STM-TBV-Sorting).
    pub fn tbv_sorting(shared: StmShared, cfg: StmConfig) -> Self {
        LockStm::new(shared, cfg, Variant::TbvSorting, Validation::Tbv, Locking::Sorted)
    }

    /// Hierarchical validation with encounter-time lock-sorting
    /// (the paper's STM-HV-Sorting).
    pub fn hv_sorting(shared: StmShared, cfg: StmConfig) -> Self {
        LockStm::new(shared, cfg, Variant::HvSorting, Validation::Hv, Locking::Sorted)
    }

    /// Hierarchical validation with the two-step parallel-then-serial
    /// backoff lock acquisition (the paper's STM-HV-Backoff).
    pub fn hv_backoff(shared: StmShared, cfg: StmConfig) -> Self {
        LockStm::new(shared, cfg, Variant::HvBackoff, Validation::Hv, Locking::Backoff)
    }

    /// Timestamp-based validation with backoff locking — not evaluated in
    /// the paper, provided for the ablation benches.
    pub fn tbv_backoff(shared: StmShared, cfg: StmConfig) -> Self {
        LockStm::new(shared, cfg, Variant::TbvBackoff, Validation::Tbv, Locking::Backoff)
    }

    /// The adaptive GPU-STM (the paper's STM-Optimized) for a program
    /// whose transactions share `shared_data_words` words of data.
    ///
    /// When the shared data exceeds the global version locks
    /// (`shared_data_words > cfg.n_locks`), stripe aliasing makes false
    /// conflicts likely and hierarchical validation pays off; otherwise
    /// pure TBV avoids needless value-based validation. GPU programs
    /// usually know their data size before launch, so the choice is made
    /// here, once. Locking is always encounter-time lock-sorting.
    pub fn optimized(shared: StmShared, cfg: StmConfig, shared_data_words: u64) -> Self {
        let validation =
            if shared_data_words > cfg.n_locks as u64 { Validation::Hv } else { Validation::Tbv };
        LockStm::new(shared, cfg, Variant::Optimized, validation, Locking::Sorted)
    }

    /// The runtime of one of the four fixed lock-based variants
    /// (TBV/HV × sorting/backoff); `None` for every other variant,
    /// including STM-Optimized, whose validation depends on the data size
    /// ([`LockStm::optimized`]).
    pub fn for_variant(variant: Variant, shared: StmShared, cfg: StmConfig) -> Option<Self> {
        match variant {
            Variant::TbvSorting => Some(LockStm::tbv_sorting(shared, cfg)),
            Variant::HvSorting => Some(LockStm::hv_sorting(shared, cfg)),
            Variant::HvBackoff => Some(LockStm::hv_backoff(shared, cfg)),
            Variant::TbvBackoff => Some(LockStm::tbv_backoff(shared, cfg)),
            _ => None,
        }
    }

    /// Seeds a correctness [`Mutation`] — verifier-validation use only.
    #[cfg(any(test, feature = "mutants"))]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// The seeded mutation (all-off in production builds).
    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    /// Attaches the optional history recorder (for the opacity checker)
    /// and transaction-lifecycle trace sink (pure observation; see
    /// [`crate::trace`]).
    pub fn with_observers(
        mut self,
        recorder: Option<Recorder>,
        trace: Option<TxTraceSink>,
    ) -> Self {
        self.ledger.attach(recorder, trace);
        self
    }

    /// The validation strategy in use.
    pub fn validation(&self) -> Validation {
        self.validation
    }

    /// The locking strategy in use.
    pub fn locking(&self) -> Locking {
        self.locking
    }

    /// Global metadata handle.
    pub fn shared(&self) -> &StmShared {
        &self.shared
    }

    async fn charge_set_append(&self, ctx: &WarpCtx, mask: LaneMask) {
        let ops = if self.cfg.coalesced_sets { 1 } else { mask.count().max(1) };
        ctx.local_access(mask, ops).await;
    }

    fn lock_word_addrs(&self, w: &WarpTx, mask: LaneMask, k: usize) -> LaneAddrs {
        lane_addrs(mask, |l| {
            let e = w.locklog[l].nth_sorted(k).expect("lock-log cursor in range");
            self.shared.lock_addr(e.lock)
        })
    }

    /// Releases the first `w.acquired[l]` sorted locks of each lane in
    /// `lanes` by decrementing the lock words (Algorithm 3 lines 53–55).
    async fn release_locks(&self, w: &mut WarpTx, ctx: &WarpCtx, lanes: LaneMask) {
        let max = lanes.iter().map(|l| w.acquired[l]).max().unwrap_or(0);
        for k in 0..max {
            let m = lanes.filter(|l| k < w.acquired[l]);
            if m.none() {
                break;
            }
            let addrs = self.lock_word_addrs(w, m, k);
            let dec = [u32::MAX; WARP_SIZE]; // wrapping add of -1
            ctx.atomic_rmw(m, AtomicOp::Add, &addrs, &dec).await;
        }
        for l in lanes.iter() {
            w.acquired[l] = 0;
        }
    }

    /// Releases all locks of committing lanes, publishing `version` to
    /// written stripes and merely unlocking read-only stripes
    /// (Algorithm 3 lines 56–61).
    async fn release_and_update_locks(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        lanes: LaneMask,
        versions: &[u32; WARP_SIZE],
    ) {
        let max = lanes.iter().map(|l| w.locklog[l].len()).max().unwrap_or(0);
        for k in 0..max {
            let m = lanes.filter(|l| k < w.locklog[l].len());
            if m.none() {
                break;
            }
            let wr =
                m.filter(|l| w.locklog[l].nth_sorted(k).expect("lock-log cursor in range").write);
            let rd = m & !wr;
            if wr.any() {
                let addrs = self.lock_word_addrs(w, wr, k);
                let vals = lane_vals(wr, |l| VersionLock::unlocked(versions[l]).bits());
                ctx.store(wr, &addrs, &vals).await; // line 59
            }
            if rd.any() {
                let addrs = self.lock_word_addrs(w, rd, k);
                let dec = [u32::MAX; WARP_SIZE];
                ctx.atomic_rmw(rd, AtomicOp::Add, &addrs, &dec).await; // line 61
            }
        }
        for l in lanes.iter() {
            w.acquired[l] = 0;
        }
    }

    /// `GetLocksAndTBV` (Algorithm 3 lines 43–52), warp-wide in sorted
    /// rounds. Returns `(winners, losers)`; losers have released whatever
    /// they acquired and keep their logs for a retry.
    async fn acquire_sorted(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        active: LaneMask,
    ) -> (LaneMask, LaneMask) {
        let mut trying = active;
        let mut failed = LaneMask::EMPTY;
        let max = active.iter().map(|l| w.locklog[l].len()).max().unwrap_or(0);
        for k in 0..max {
            let m = trying.filter(|l| k < w.locklog[l].len());
            if m.none() {
                break;
            }
            let addrs = self.lock_word_addrs(w, m, k);
            let ones = [1u32; WARP_SIZE];
            let old = ctx.atomic_rmw(m, AtomicOp::Or, &addrs, &ones).await; // line 45
            for l in m.iter() {
                let vl = VersionLock(old[l]);
                if vl.is_locked() {
                    // Someone else holds it: stop acquiring, release later.
                    let e = w.locklog[l].nth_sorted(k).expect("lock-log cursor in range");
                    self.ledger.emit(ctx, TxEventKind::Conflict { stripe: e.lock });
                    failed |= LaneMask::lane(l);
                    trying = trying.without(l);
                } else {
                    w.acquired[l] = k + 1;
                    let e = w.locklog[l].nth_sorted(k).expect("lock-log cursor in range");
                    if e.read && vl.version() > w.snapshot[l] {
                        w.pass_tbv[l] = false; // line 51
                    }
                }
            }
        }
        if failed.any() {
            self.release_locks(w, ctx, failed).await; // line 47
            self.ledger.stats.borrow_mut().lock_retries += failed.count() as u64;
        }
        self.ledger.emit(ctx, TxEventKind::Lock { lanes: active.count(), busy: failed.count() });
        (trying, failed)
    }

    /// Blocking single-lane acquisition used by the backoff scheme's
    /// serial second step: retries (with deterministic exponential jitter)
    /// until every lock of `lane` is held.
    async fn acquire_blocking_one(&self, w: &mut WarpTx, ctx: &WarpCtx, lane: usize) {
        let m = LaneMask::lane(lane);
        let mut retry = 0u32;
        loop {
            let (winners, _losers) = self.acquire_sorted(w, ctx, m).await;
            if winners.contains(lane) {
                return;
            }
            // Deterministic jitter: exponential in retries, offset by warp id.
            let base = 64u64 << retry.min(6);
            let jitter = (ctx.id().thread_id(lane) as u64).wrapping_mul(2654435761) % base;
            ctx.idle(base + jitter).await;
            retry += 1;
        }
    }

    /// The `unsorted_locks` mutant's acquisition: walk each lane's lock-log
    /// in *encounter* order and spin until every lock is held, never
    /// releasing on contention. Without the global sorted order this can
    /// deadlock: two transactions that touched the same two stripes in
    /// opposite orders each hold one lock and spin on the other.
    async fn acquire_unsorted_blocking(&self, w: &mut WarpTx, ctx: &WarpCtx, active: LaneMask) {
        let max = active.iter().map(|l| w.locklog[l].len()).max().unwrap_or(0);
        for k in 0..max {
            let mut waiting = active.filter(|l| k < w.locklog[l].len());
            while waiting.any() {
                let addrs = lane_addrs(waiting, |l| {
                    let e = w.locklog[l].nth_inserted(k).expect("lock-log cursor in range");
                    self.shared.lock_addr(e.lock)
                });
                let ones = [1u32; WARP_SIZE];
                let old = ctx.atomic_rmw(waiting, AtomicOp::Or, &addrs, &ones).await;
                for l in waiting.iter() {
                    let vl = VersionLock(old[l]);
                    if !vl.is_locked() {
                        let e = w.locklog[l].nth_inserted(k).expect("lock-log cursor in range");
                        if e.read && vl.version() > w.snapshot[l] {
                            w.pass_tbv[l] = false;
                        }
                        waiting = waiting.without(l);
                    }
                }
                if waiting.any() {
                    ctx.idle(20).await;
                }
            }
        }
        // All locks held; the held set equals the whole log, so the sorted
        // release walk stays correct.
        for l in active.iter() {
            w.acquired[l] = w.locklog[l].len();
        }
    }

    /// TL2-style read validation used only in the `lock_read_set = false`
    /// ablation: with read stripes *unlocked* at commit, every read stripe
    /// must be unheld (or held by us) and no newer than the snapshot.
    /// Returns the failing lanes. Under lockstep execution this scheme
    /// starves on cross read/write pairs — the Section 3.2.2 example.
    async fn validate_reads_unlocked(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        lanes: LaneMask,
    ) -> LaneMask {
        let mut failed = LaneMask::EMPTY;
        let mut checking = lanes;
        let rounds = w.reads.max_len();
        for k in 0..rounds {
            let m = checking.filter(|l| k < w.reads.len(l));
            if m.none() {
                break;
            }
            let laddrs = lane_addrs(m, |l| {
                self.shared.lock_addr(self.shared.lock_index(w.reads.get(l, k).addr))
            });
            let words = ctx.load(m, &laddrs).await;
            for l in m.iter() {
                let vl = VersionLock(words[l]);
                let idx = self.shared.lock_index(w.reads.get(l, k).addr);
                let held_by_us = w.locklog[l].get(idx).is_some();
                if (vl.is_locked() && !held_by_us) || vl.version() > w.snapshot[l] {
                    failed |= LaneMask::lane(l);
                    checking = checking.without(l);
                }
            }
        }
        failed
    }

    /// Lines 80–81: publish the buffered write-set to global memory.
    async fn publish_writes(&self, w: &WarpTx, ctx: &WarpCtx, ok: LaneMask) {
        let rounds = ok.iter().map(|l| w.writes.len(l)).max().unwrap_or(0);
        for k in 0..rounds {
            let m = ok.filter(|l| k < w.writes.len(l));
            if m.none() {
                break;
            }
            let addrs = lane_addrs(m, |l| w.writes.get(l, k).addr);
            let vals = lane_vals(m, |l| w.writes.get(l, k).val);
            ctx.store(m, &addrs, &vals).await;
        }
    }

    /// Commit tail for lanes that hold all their locks: validation,
    /// write-back, clock increment, version publication (lines 75–85).
    /// Returns the lanes that committed (the rest aborted).
    async fn commit_locked(&self, w: &mut WarpTx, ctx: &WarpCtx, lanes: LaneMask) -> LaneMask {
        w.enter_phase(ctx.now(), Phase::Commit);
        // Write-only-locking ablation: reads must be validated while
        // unlocked, TL2-style. A stripe held by another transaction is a
        // hard failure (its value may be mid-update, so even value-based
        // validation would be unsound).
        let mut hard_failed = LaneMask::EMPTY;
        if !self.cfg.lock_read_set {
            hard_failed = self.validate_reads_unlocked(w, ctx, lanes).await;
            self.ledger.abort(ctx, AbortCause::CommitTbv, hard_failed.count());
        }
        // Lines 75–78: value-based validation where TBV failed. The
        // skip_validation mutant drops the check and commits regardless.
        let need_check = if self.mutation.skip_validation {
            LaneMask::EMPTY
        } else {
            (lanes & !hard_failed).filter(|l| !w.pass_tbv[l])
        };
        let mut failed = hard_failed;
        if need_check.any() {
            match self.validation {
                Validation::Hv => {
                    let vbv_failed = vbv(w, ctx, need_check).await;
                    failed |= vbv_failed;
                    let filtered = (need_check & !vbv_failed).count() as u64;
                    self.ledger.stats.borrow_mut().false_conflicts_filtered += filtered;
                    self.ledger.abort(ctx, AbortCause::CommitVbv, vbv_failed.count());
                    self.ledger.emit(
                        ctx,
                        TxEventKind::Validate {
                            checked: need_check.count(),
                            failed: vbv_failed.count(),
                        },
                    );
                }
                Validation::Tbv => {
                    // Pure TBV: a stale read stripe is a conflict, full stop.
                    failed |= need_check;
                    self.ledger.abort(ctx, AbortCause::CommitTbv, need_check.count());
                    self.ledger.emit(
                        ctx,
                        TxEventKind::Validate {
                            checked: need_check.count(),
                            failed: need_check.count(),
                        },
                    );
                }
            }
        }
        if failed.any() {
            w.enter_phase(ctx.now(), Phase::Locking);
            self.release_locks(w, ctx, failed).await;
            w.enter_phase(ctx.now(), Phase::Commit);
            for l in failed.iter() {
                w.reset_lane(l);
            }
        }
        let ok = lanes & !failed;
        if ok.none() {
            return LaneMask::EMPTY;
        }

        ctx.fence(ok).await; // line 79
        if !self.mutation.late_writeback {
            self.publish_writes(w, ctx, ok).await; // lines 80–81
            ctx.fence(ok).await; // line 82
        }

        // Line 83: version <- Atomic_inc(g_clock) + 1.
        let clock_addrs = [self.shared.clock; WARP_SIZE];
        let ones = [1u32; WARP_SIZE];
        let old = ctx.atomic_rmw(ok, AtomicOp::Add, &clock_addrs, &ones).await;
        let mut versions = [0u32; WARP_SIZE];
        for l in ok.iter() {
            versions[l] = old[l] + 1;
        }

        // Line 84.
        self.release_and_update_locks(w, ctx, ok, &versions).await;

        // late_writeback mutant: the new versions are public but the data
        // is not — a reader admitted by the version check still sees
        // pre-transaction values.
        if self.mutation.late_writeback {
            self.publish_writes(w, ctx, ok).await;
        }

        for l in ok.iter() {
            self.ledger.commit(ctx, w, l, Some(versions[l]), w.snapshot[l]);
            w.reset_lane(l);
        }
        ok
    }
}

impl Stm for LockStm {
    fn name(&self) -> &'static str {
        self.variant.label()
    }

    fn new_warp(&self) -> WarpTx {
        WarpTx::new(&self.cfg)
    }

    fn stats(&self) -> StatsHandle {
        StatsHandle::clone(&self.ledger.stats)
    }

    fn tx_trace(&self) -> Option<TxTraceSink> {
        self.ledger.trace.clone()
    }

    /// `TXBegin` (lines 1–5): reset lane state, snapshot the global clock,
    /// fence. All requested lanes are admitted (optimistic concurrency).
    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        w.enter_phase(ctx.now(), Phase::Init);
        for l in want.iter() {
            w.reset_lane(l);
        }
        ctx.local_access(want, 1).await; // metadata reset
        let snap = ctx.load_uniform(want, self.shared.clock).await; // line 4
        for l in want.iter() {
            w.snapshot[l] = snap;
        }
        ctx.fence(want).await; // line 5
        w.enter_phase(ctx.now(), Phase::Native);
        if want.any() {
            self.ledger.emit(ctx, TxEventKind::Begin { lanes: want.count() });
        }
        want
    }

    /// `TXRead` (lines 21–35).
    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        w.enter_phase(ctx.now(), Phase::Buffering);
        self.ledger.emit(ctx, TxEventKind::Read { lanes: mask.count() });
        let mut out = [0u32; WARP_SIZE];
        // Line 22: write-set lookup through the Bloom filter (or, in the
        // ablation, a full write-set scan — same result, higher cost).
        let mut hits = LaneMask::EMPTY;
        for l in mask.iter() {
            if let Some(v) = w.writes.lookup(l, addrs[l]) {
                out[l] = v;
                hits |= LaneMask::lane(l);
            }
        }
        let probe_cost = if self.cfg.write_set_bloom { 1 } else { 1 + w.writes.max_len() as u32 };
        ctx.local_access(mask, probe_cost).await; // filter probe
        let need = mask & !hits;
        if need.none() {
            w.enter_phase(ctx.now(), Phase::Native);
            return out;
        }

        // Line 24–25: read memory, log to the read-set.
        let vals = ctx.load(need, addrs).await;
        for l in need.iter() {
            out[l] = vals[l];
            w.reads.push(l, addrs[l], vals[l]);
        }
        self.charge_set_append(ctx, need).await;
        ctx.fence(need).await; // line 26

        // Lines 27–33: consistency check.
        w.enter_phase(ctx.now(), Phase::Consistency);
        let lock_addrs =
            lane_addrs(need, |l| self.shared.lock_addr(self.shared.lock_index(addrs[l])));
        let mut words = ctx.load(need, &lock_addrs).await; // line 28
        loop {
            // Lines 27–29: wait for committing writers to release.
            let locked = need.filter(|l| VersionLock(words[l]).is_locked());
            if locked.none() {
                break;
            }
            let re = ctx.load(locked, &lock_addrs).await;
            for l in locked.iter() {
                words[l] = re[l];
            }
        }
        let stale = need
            .filter(|l| VersionLock(words[l]).version() > w.snapshot[l] && w.opaque.contains(l));
        let rv_failed = match self.validation {
            // No value fallback: stale snapshot means abort.
            Validation::Tbv => stale,
            Validation::Hv if stale.any() => {
                // Lines 31–33: hierarchical fallback to VBV.
                let versions = lane_vals(stale, |l| VersionLock(words[l]).version());
                let failed = post_validation(&self.shared, w, ctx, stale, &versions).await;
                self.ledger.stats.borrow_mut().false_conflicts_filtered +=
                    (stale & !failed).count() as u64;
                failed
            }
            Validation::Hv => LaneMask::EMPTY,
        };
        for l in rv_failed.iter() {
            w.mark_inconsistent(l);
        }
        self.ledger.abort(ctx, AbortCause::ReadValidation, rv_failed.count());
        self.ledger
            .emit(ctx, TxEventKind::Validate { checked: need.count(), failed: rv_failed.count() });

        // Line 34: record the lock for commit-time acquisition (skipped in
        // the write-only-locking ablation, which validates reads unlocked).
        w.enter_phase(ctx.now(), Phase::Buffering);
        if self.cfg.lock_read_set {
            let mut max_cmp = 0;
            for l in need.iter() {
                let idx = self.shared.lock_index(addrs[l]);
                max_cmp = max_cmp.max(w.locklog[l].insert(idx, true, false));
            }
            ctx.local_access(need, 1 + max_cmp).await;
        }
        w.enter_phase(ctx.now(), Phase::Native);
        out
    }

    /// `TXWrite` (lines 36–38): buffer the write, record the lock.
    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        w.enter_phase(ctx.now(), Phase::Buffering);
        self.ledger.emit(ctx, TxEventKind::Write { lanes: mask.count() });
        let mut max_cmp = 0;
        for l in mask.iter() {
            w.writes.insert(l, addrs[l], vals[l]);
            let idx = self.shared.lock_index(addrs[l]);
            max_cmp = max_cmp.max(w.locklog[l].insert(idx, false, true));
        }
        self.charge_set_append(ctx, mask).await;
        ctx.local_access(mask, 1 + max_cmp).await;
        w.enter_phase(ctx.now(), Phase::Native);
    }

    /// `TXCommit` (lines 67–85).
    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        let mut committed = LaneMask::EMPTY;

        // Lanes that observed an inconsistent view abort outright (their
        // abort was already recorded at read time).
        let doomed = mask & !w.opaque;
        for l in doomed.iter() {
            w.reset_lane(l);
        }
        let mut active = mask & !doomed;

        // Lines 68–69: read-only transactions linearise at their last read.
        let ro = self.ledger.commit_read_only(ctx, w, active);
        committed |= ro;
        active &= !ro;

        // Optional line 71: shed doomed transactions before locking.
        if self.cfg.pre_commit_vbv && active.any() {
            w.enter_phase(ctx.now(), Phase::Commit);
            let failed = vbv(w, ctx, active).await;
            self.ledger.abort(ctx, AbortCause::PreVbv, failed.count());
            for l in failed.iter() {
                w.reset_lane(l);
            }
            active &= !failed;
        }

        // unsorted_locks mutant: bypass both deadlock-free protocols.
        if self.mutation.unsorted_locks && active.any() {
            w.enter_phase(ctx.now(), Phase::Locking);
            self.acquire_unsorted_blocking(w, ctx, active).await;
            committed |= self.commit_locked(w, ctx, active).await;
            active = LaneMask::EMPTY;
        }

        match self.locking {
            Locking::Sorted => {
                // Lines 70–74: winners proceed; losers retry after the
                // warp's winners finish committing.
                while active.any() {
                    w.enter_phase(ctx.now(), Phase::Locking);
                    let (winners, losers) = self.acquire_sorted(w, ctx, active).await;
                    if winners.any() {
                        committed |= self.commit_locked(w, ctx, winners).await;
                    } else {
                        // All contended locks are held by other warps;
                        // re-poll shortly (they are guaranteed to progress
                        // thanks to the global lock order).
                        ctx.idle(50).await;
                    }
                    active = losers;
                }
            }
            Locking::Backoff => {
                // Step 1: all lanes try in parallel.
                w.enter_phase(ctx.now(), Phase::Locking);
                let (winners, losers) = self.acquire_sorted(w, ctx, active).await;
                if winners.any() {
                    committed |= self.commit_locked(w, ctx, winners).await;
                }
                // Step 2: failed lanes lock one at a time while the rest
                // of the warp waits — the serial bottleneck the paper
                // describes.
                for l in losers.iter() {
                    w.enter_phase(ctx.now(), Phase::Locking);
                    self.acquire_blocking_one(w, ctx, l).await;
                    committed |= self.commit_locked(w, ctx, LaneMask::lane(l)).await;
                }
            }
        }

        self.ledger.finish(ctx, w, committed, (mask & !committed).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Sim, SimConfig};

    #[test]
    fn optimized_selects_hv_when_data_exceeds_locks() {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
        let cfg = StmConfig::new(1 << 8);
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        let big = LockStm::optimized(shared, cfg, 1 << 12);
        assert_eq!(big.validation(), Validation::Hv);
        let small = LockStm::optimized(shared, cfg, 1 << 6);
        assert_eq!(small.validation(), Validation::Tbv);
        // Boundary: equal amounts select TBV (no aliasing pressure).
        let eq = LockStm::optimized(shared, cfg, 1 << 8);
        assert_eq!(eq.validation(), Validation::Tbv);
        for stm in [big, small, eq] {
            assert_eq!(stm.locking(), Locking::Sorted);
        }
    }

    #[test]
    fn optimized_reports_paper_name() {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
        let cfg = StmConfig::new(1 << 8);
        let shared = StmShared::init(&mut sim, &cfg).unwrap();
        assert_eq!(LockStm::optimized(shared, cfg, 0).name(), "STM-Optimized");
    }
}
