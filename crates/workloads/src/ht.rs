//! HT — the *hashtable* micro-benchmark (paper Section 4.1).
//!
//! Each transaction inserts elements into a shared open-addressing hash
//! table: probe linearly (transactional reads) until an empty slot is
//! found, then claim it (transactional write). Two transactions racing for
//! the same slot conflict and one retries past it — exactly the dynamic
//! data sharing GPU locks struggle with (the paper calls fine-grained
//! locking for HT infeasible).

use crate::common::{mix64, outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{Addr, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// Hashtable parameters.
#[derive(Copy, Clone, Debug)]
pub struct HtParams {
    /// Table capacity in slots (keep load factor below ~25%).
    pub table_words: u32,
    /// Elements inserted by each transaction.
    pub inserts_per_tx: u32,
    /// Transactions executed by each thread.
    pub txs_per_thread: u32,
    /// RNG/key seed.
    pub seed: u64,
}

impl Default for HtParams {
    fn default() -> Self {
        HtParams { table_words: 256 << 10, inserts_per_tx: 4, txs_per_thread: 1, seed: 0x5eed_0002 }
    }
}

impl HtParams {
    /// Total keys the full grid will insert.
    pub fn total_inserts(&self, grid: LaunchConfig) -> u64 {
        grid.total_threads() * (self.inserts_per_tx * self.txs_per_thread) as u64
    }

    /// The unique, nonzero key inserted as element `i` by thread `tid`.
    pub fn key(&self, tid: u32, i: u32) -> u32 {
        // Dense unique ids, made nonzero; the table hashes them anyway.
        tid * self.inserts_per_tx * self.txs_per_thread + i + 1
    }

    /// Home slot of `key`.
    pub fn slot_of(&self, key: u32) -> u32 {
        (mix64(self.seed ^ key as u64) % self.table_words as u64) as u32
    }
}

struct HtRunner {
    params: HtParams,
    grid: LaunchConfig,
    table: Addr,
}

impl StmRunner for HtRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let HtRunner { params, grid, table } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let launch = ctx.id().launch_mask;
                let mut remaining = [params.txs_per_thread; 32];
                ctx.set_speculative(true);
                loop {
                    let pending = launch.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    let mut ok = active;
                    for i in 0..params.inserts_per_tx {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        // Element index within this thread's key space.
                        let keys: [u32; 32] = std::array::from_fn(|l| {
                            let tid = ctx.id().thread_id(l);
                            let done =
                                (params.txs_per_thread - remaining[l]) * params.inserts_per_tx;
                            params.key(tid, done + i)
                        });
                        // Linear probing: all unplaced lanes read their
                        // probe slot each round.
                        let mut cursor: [u32; 32] =
                            std::array::from_fn(|l| params.slot_of(keys[l]));
                        let mut probing = ok;
                        while probing.any() {
                            let addrs = lane_addrs(probing, |l| table.offset(cursor[l]));
                            let vals = stm.read(&mut w, &ctx, probing, &addrs).await;
                            probing &= stm.opaque(&w);
                            let empty = probing.filter(|l| vals[l] == 0);
                            if empty.any() {
                                let eaddrs = lane_addrs(empty, |l| table.offset(cursor[l]));
                                let keyv = lane_vals(empty, |l| keys[l]);
                                stm.write(&mut w, &ctx, empty, &eaddrs, &keyv).await;
                            }
                            probing &= !empty;
                            for l in probing.iter() {
                                cursor[l] = (cursor[l] + 1) % params.table_words;
                            }
                        }
                        ok &= stm.opaque(&w);
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                }
                ctx.set_speculative(false);
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

/// Runs the hashtable micro-benchmark under `variant` and verifies the
/// table afterwards: exactly the expected keys, each exactly once.
///
/// # Errors
///
/// [`RunError::Verification`] if keys were lost or duplicated; simulator
/// and unsupported-configuration errors otherwise.
pub fn run(
    params: &HtParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let expected = params.total_inserts(grid);
    assert!(
        expected * 4 <= params.table_words as u64,
        "table load factor too high: {expected} inserts into {} slots",
        params.table_words
    );
    let mut sim = Sim::new(cfg.sim.clone());
    let table = sim.alloc(params.table_words)?;
    let out = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.table_words as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        HtRunner { params: *params, grid, table },
    )?;

    // Verify: every key present exactly once, no foreign values.
    let slots = sim.read_slice(table, params.table_words);
    let mut found: Vec<u32> = slots.iter().copied().filter(|v| *v != 0).collect();
    if found.len() as u64 != expected {
        return Err(RunError::Verification(format!(
            "expected {expected} occupied slots, found {}",
            found.len()
        )));
    }
    found.sort_unstable();
    for (i, k) in found.iter().enumerate() {
        if *k != i as u32 + 1 {
            return Err(RunError::Verification(format!(
                "key set corrupted near index {i}: found {k}"
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (HtParams, LaunchConfig, RunConfig) {
        let params =
            HtParams { table_words: 1 << 11, inserts_per_tx: 2, txs_per_thread: 1, seed: 3 };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 64), cfg)
    }

    #[test]
    fn all_variants_insert_all_keys() {
        let (params, grid, cfg) = tiny();
        for v in Variant::ALL {
            let out = run(&params, v, grid, &cfg).unwrap();
            assert!(out.tx.commits >= grid.total_threads(), "variant {v}");
        }
    }

    #[test]
    fn contended_table_still_correct() {
        // Small table + tiny lock table: heavy conflicts, keys must survive.
        let params =
            HtParams { table_words: 1 << 9, inserts_per_tx: 1, txs_per_thread: 1, seed: 9 };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 4);
        let grid = LaunchConfig::new(2, 64);
        let out = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        assert!(out.tx.aborts > 0, "expected contention aborts");
    }

    #[test]
    fn keys_are_unique_per_thread() {
        let p = HtParams::default();
        let a = p.key(0, 0);
        let b = p.key(0, 1);
        let c = p.key(1, 0);
        assert!(a != b && b != c && a != c);
        assert!(a > 0);
    }
}
