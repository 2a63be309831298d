//! GN — *genome*, ported from STAMP (Minh et al., IISWC 2008) following
//! the paper's array-based GPU port. Gene assembly proceeds in two
//! transaction kernels:
//!
//! - **GN-1 (segment deduplication)**: every thread inserts its DNA
//!   segment into a shared hash set; duplicate segments are recognised
//!   during probing and become read-only transactions.
//! - **GN-2 (overlap linking)**: unique segments are linked into chains by
//!   matching overlaps; each transaction probes the segment table and
//!   writes forward/backward links. The paper's Figure 5 shows this kernel
//!   dominated by STM overhead yet still ~20x faster than CGL.

use crate::common::{mix64, outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{Addr, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// Genome parameters.
#[derive(Copy, Clone, Debug)]
pub struct GnParams {
    /// Total segments (one per GN-1 thread slot).
    pub n_segments: u32,
    /// Segment value space; smaller values mean more duplicates.
    pub value_space: u32,
    /// Hash-set capacity in slots.
    pub table_words: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GnParams {
    fn default() -> Self {
        GnParams {
            n_segments: 16 << 10,
            value_space: 8 << 10,
            table_words: 64 << 10,
            seed: 0x5eed_0004,
        }
    }
}

impl GnParams {
    /// The segment value handled by thread `tid` in GN-1 (nonzero).
    pub fn segment(&self, tid: u32) -> u32 {
        (mix64(self.seed ^ tid as u64) % self.value_space as u64) as u32 + 1
    }

    /// Home slot of a segment value in the hash set.
    pub fn slot_of(&self, value: u32) -> u32 {
        (mix64(self.seed.rotate_left(17) ^ value as u64) % self.table_words as u64) as u32
    }

    /// The successor index a GN-2 transaction links `i` to, among
    /// `n_unique` chain entries (hash-based, so collisions create the
    /// contended `prev` updates).
    pub fn successor(&self, i: u32, n_unique: u32) -> u32 {
        (mix64(self.seed.rotate_left(33) ^ i as u64) % n_unique as u64) as u32
    }
}

/// Result of a full genome run.
#[derive(Clone, Debug)]
pub struct GnOutcome {
    /// Deduplication kernel metrics.
    pub k1: RunOutcome,
    /// Linking kernel metrics.
    pub k2: RunOutcome,
    /// Unique segments found by GN-1.
    pub n_unique: u32,
}

struct DedupRunner {
    params: GnParams,
    grid: LaunchConfig,
    table: Addr,
}

impl StmRunner for DedupRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let DedupRunner { params, grid, table } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let launch =
                    ctx.id().launch_mask.filter(|l| ctx.id().thread_id(l) < params.n_segments);
                let mut pending = launch;
                // Native phase: segment hashing/packing before insertion
                // (the STAMP kernel's non-transactional work).
                ctx.idle(160).await;
                ctx.set_speculative(true);
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let values: [u32; 32] =
                        std::array::from_fn(|l| params.segment(ctx.id().thread_id(l)));
                    let mut cursor: [u32; 32] = std::array::from_fn(|l| params.slot_of(values[l]));
                    let mut probing = active;
                    while probing.any() {
                        let addrs = lane_addrs(probing, |l| table.offset(cursor[l]));
                        let vals = stm.read(&mut w, &ctx, probing, &addrs).await;
                        probing &= stm.opaque(&w);
                        // Empty slot: claim it. Our value: duplicate, done.
                        let empty = probing.filter(|l| vals[l] == 0);
                        let dup = probing.filter(|l| vals[l] == values[l]);
                        if empty.any() {
                            let ea = lane_addrs(empty, |l| table.offset(cursor[l]));
                            let ev = lane_vals(empty, |l| values[l]);
                            stm.write(&mut w, &ctx, empty, &ea, &ev).await;
                        }
                        probing &= !(empty | dup);
                        for l in probing.iter() {
                            cursor[l] = (cursor[l] + 1) % params.table_words;
                        }
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    pending &= !committed;
                }
                ctx.set_speculative(false);
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

struct LinkRunner {
    params: GnParams,
    grid: LaunchConfig,
    n_unique: u32,
    table: Addr,
    next: Addr,
    prev: Addr,
}

impl StmRunner for LinkRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let LinkRunner { params, grid, n_unique, table, next, prev } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let launch = ctx.id().launch_mask.filter(|l| ctx.id().thread_id(l) < n_unique);
                let mut pending = launch;
                // Native phase: overlap computation for the match step.
                ctx.idle(80).await;
                ctx.set_speculative(true);
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let ids: [u32; 32] = std::array::from_fn(|l| ctx.id().thread_id(l));
                    let succs: [u32; 32] =
                        std::array::from_fn(|l| params.successor(ids[l], n_unique));
                    // Overlap matching: probe the segment table (2 reads),
                    // mimicking the hash lookups of the STAMP kernel.
                    let mut ok = active;
                    for probe in 0..2u32 {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        let pa = lane_addrs(ok, |l| {
                            table.offset((params.slot_of(succs[l]) + probe) % params.table_words)
                        });
                        let _ = stm.read(&mut w, &ctx, ok, &pa).await;
                    }
                    // Link: next[i] = succ, prev[succ] = i. Collisions on
                    // `succ` are the conflict source.
                    ok &= stm.opaque(&w);
                    if ok.any() {
                        let na = lane_addrs(ok, |l| next.offset(ids[l]));
                        let _cur = stm.read(&mut w, &ctx, ok, &na).await;
                        let pa = lane_addrs(ok, |l| prev.offset(succs[l]));
                        let _old_prev = stm.read(&mut w, &ctx, ok, &pa).await;
                        let ok2 = ok & stm.opaque(&w);
                        stm.write(&mut w, &ctx, ok2, &na, &lane_vals(ok2, |l| succs[l] + 1)).await;
                        stm.write(&mut w, &ctx, ok2, &pa, &lane_vals(ok2, |l| ids[l] + 1)).await;
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    pending &= !committed;
                }
                ctx.set_speculative(false);
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

/// Runs both genome kernels under `variant` and verifies the results:
/// GN-1 must leave exactly the distinct segment values in the table, and
/// GN-2's links must be consistent with the successor function.
///
/// # Errors
///
/// [`RunError::Verification`] on invariant violations; simulator and
/// unsupported-configuration errors otherwise.
pub fn run(
    params: &GnParams,
    variant: Variant,
    grid1: LaunchConfig,
    grid2: LaunchConfig,
    cfg: &RunConfig,
) -> Result<GnOutcome, RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let table = sim.alloc(params.table_words)?;

    // ---- Kernel 1: dedup ----
    let k1 = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.table_words as u64,
        grid1,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        DedupRunner { params: *params, grid: grid1, table },
    )?;

    // Verify dedup against host ground truth.
    let mut expected: Vec<u32> = (0..params.n_segments).map(|t| params.segment(t)).collect();
    expected.sort_unstable();
    expected.dedup();
    let mut found: Vec<u32> =
        sim.read_slice(table, params.table_words).into_iter().filter(|v| *v != 0).collect();
    found.sort_unstable();
    if found != expected {
        return Err(RunError::Verification(format!(
            "dedup table has {} entries, expected {} distinct segments",
            found.len(),
            expected.len()
        )));
    }
    let n_unique = expected.len() as u32;

    // ---- Kernel 2: link ----
    let next = sim.alloc(n_unique)?;
    let prev = sim.alloc(n_unique)?;
    let k2 = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.table_words as u64,
        grid2,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        LinkRunner { params: *params, grid: grid2, n_unique, table, next, prev },
    )?;

    // Verify links.
    let next_v = sim.read_slice(next, n_unique);
    let prev_v = sim.read_slice(prev, n_unique);
    for i in 0..n_unique {
        let succ = params.successor(i, n_unique);
        if next_v[i as usize] != succ + 1 {
            return Err(RunError::Verification(format!(
                "next[{i}] = {} but successor is {succ}",
                next_v[i as usize]
            )));
        }
    }
    for (j, p) in prev_v.iter().enumerate() {
        if *p != 0 {
            let i = p - 1;
            if i >= n_unique || params.successor(i, n_unique) != j as u32 {
                return Err(RunError::Verification(format!(
                    "prev[{j}] = {p} names a non-predecessor"
                )));
            }
        }
    }

    Ok(GnOutcome { k1, k2, n_unique })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GnParams, LaunchConfig, LaunchConfig, RunConfig) {
        let params = GnParams { n_segments: 128, value_space: 64, table_words: 1 << 9, seed: 21 };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 64), LaunchConfig::new(2, 32), cfg)
    }

    #[test]
    fn genome_verifies_under_stm_variants() {
        let (params, g1, g2, cfg) = tiny();
        for v in [Variant::Cgl, Variant::HvSorting, Variant::TbvSorting, Variant::Vbv] {
            let out = run(&params, v, g1, g2, &cfg).unwrap();
            assert!(out.n_unique > 0 && out.n_unique <= 64, "variant {v}");
            assert!(out.k1.tx.commits >= u64::from(params.n_segments), "variant {v}");
        }
    }

    #[test]
    fn duplicates_make_read_only_transactions() {
        let (params, g1, g2, cfg) = tiny();
        let out = run(&params, Variant::HvSorting, g1, g2, &cfg).unwrap();
        // 128 segments into 64 values: at least half are duplicates, which
        // commit read-only in GN-1.
        assert!(out.k1.tx.read_only_commits >= 64);
    }
}
