//! EB — the *EigenBench* micro-benchmark (Hong et al., IISWC 2010), used
//! by the paper for the HV-vs-TBV comparison (Figure 4) because its
//! orthogonal knobs isolate TM characteristics:
//!
//! - **hot** array: shared, accessed transactionally by all threads — its
//!   size relative to the lock table controls false-conflict pressure;
//! - **mild** array: thread-private but accessed transactionally —
//!   inflates read-/write-sets without adding conflicts;
//! - **cold** array: thread-private, accessed outside transactions —
//!   native work that dilutes transaction time.

use crate::common::{outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{LaunchConfig, Sim, WarpCtx, WarpRng};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// EigenBench parameters.
#[derive(Copy, Clone, Debug)]
pub struct EbParams {
    /// Hot (shared) array size in words — the paper sweeps 1M–64M.
    pub hot_words: u32,
    /// Transactional reads of the hot array per transaction (R1).
    pub hot_reads: u32,
    /// Transactional writes of the hot array per transaction (W1).
    pub hot_writes: u32,
    /// Private words per thread in the mild array.
    pub mild_words: u32,
    /// Transactional reads/writes of the mild array per transaction (R2/W2).
    pub mild_ops: u32,
    /// Private words per thread in the cold array.
    pub cold_words: u32,
    /// Non-transactional reads/writes of the cold array between
    /// transactions (R3/W3).
    pub cold_ops: u32,
    /// Transactions per thread.
    pub txs_per_thread: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EbParams {
    fn default() -> Self {
        EbParams {
            hot_words: 128 << 10,
            hot_reads: 8,
            hot_writes: 4,
            mild_words: 8,
            mild_ops: 2,
            cold_words: 8,
            cold_ops: 4,
            txs_per_thread: 2,
            seed: 0x5eed_0003,
        }
    }
}

struct EbRunner {
    params: EbParams,
    grid: LaunchConfig,
    hot: gpu_sim::Addr,
    mild: gpu_sim::Addr,
    cold: gpu_sim::Addr,
}

impl StmRunner for EbRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let EbRunner { params, grid, hot, mild, cold } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = WarpRng::new(params.seed, ctx.id().thread_id(0));
                let launch = ctx.id().launch_mask;
                let mut remaining = [params.txs_per_thread; 32];
                loop {
                    let pending = launch.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    // Only begin..commit is speculative: the cold phase
                    // below is genuinely non-transactional (thread-private)
                    // and must stay visible to the race detector.
                    ctx.set_speculative(true);
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        ctx.set_speculative(false);
                        continue;
                    }
                    let mut ok = active;
                    // Hot-array transactional traffic.
                    for op in 0..(params.hot_reads + params.hot_writes) {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        let addrs = lane_addrs(ok, |l| hot.offset(rng.below(l, params.hot_words)));
                        if op < params.hot_reads {
                            let _ = stm.read(&mut w, &ctx, ok, &addrs).await;
                        } else {
                            let vals = lane_vals(ok, |l| rng.next_u32(l));
                            stm.write(&mut w, &ctx, ok, &addrs, &vals).await;
                        }
                    }
                    // Mild-array traffic: private, still transactional.
                    for op in 0..params.mild_ops * 2 {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        let addrs = lane_addrs(ok, |l| {
                            let tid = ctx.id().thread_id(l);
                            mild.offset(tid * params.mild_words + rng.below(l, params.mild_words))
                        });
                        if op < params.mild_ops {
                            let _ = stm.read(&mut w, &ctx, ok, &addrs).await;
                        } else {
                            let vals = lane_vals(ok, |l| rng.next_u32(l));
                            stm.write(&mut w, &ctx, ok, &addrs, &vals).await;
                        }
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    ctx.set_speculative(false);
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                    // Cold (native) phase between transactions.
                    if committed.any() {
                        for _ in 0..params.cold_ops {
                            let addrs = lane_addrs(committed, |l| {
                                let tid = ctx.id().thread_id(l);
                                cold.offset(
                                    tid * params.cold_words + rng.below(l, params.cold_words),
                                )
                            });
                            let vals = ctx.load(committed, &addrs).await;
                            let upd = lane_vals(committed, |l| vals[l].wrapping_add(1));
                            ctx.store(committed, &addrs, &upd).await;
                        }
                    }
                }
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

/// Runs EigenBench under `variant`.
///
/// # Errors
///
/// Propagates simulator failures and unsupported variant/grid combinations.
pub fn run(
    params: &EbParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let threads = grid.total_threads() as u32;
    let hot = sim.alloc(params.hot_words)?;
    let mild = sim.alloc(threads * params.mild_words)?;
    let cold = sim.alloc(threads * params.cold_words)?;
    dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.hot_words as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        EbRunner { params: *params, grid, hot, mild, cold },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (EbParams, LaunchConfig, RunConfig) {
        let params = EbParams {
            hot_words: 1 << 10,
            hot_reads: 4,
            hot_writes: 2,
            mild_words: 4,
            mild_ops: 1,
            cold_words: 4,
            cold_ops: 2,
            txs_per_thread: 2,
            seed: 11,
        };
        let cfg = RunConfig::with_memory(1 << 17).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 64), cfg)
    }

    #[test]
    fn variants_commit_all_transactions() {
        let (params, grid, cfg) = tiny();
        for v in [Variant::Cgl, Variant::Vbv, Variant::TbvSorting, Variant::HvSorting] {
            let out = run(&params, v, grid, &cfg).unwrap();
            assert_eq!(
                out.tx.commits,
                grid.total_threads() * params.txs_per_thread as u64,
                "variant {v}"
            );
        }
    }

    #[test]
    fn hv_filters_false_conflicts_with_tiny_lock_table() {
        let (mut params, grid, _) = tiny();
        params.hot_words = 1 << 12;
        params.txs_per_thread = 4;
        // 16 locks for 4096 hot words: stripe aliasing everywhere.
        let cfg = RunConfig::with_memory(1 << 18).with_locks(1 << 4);
        let hv = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        let tbv = run(&params, Variant::TbvSorting, grid, &cfg).unwrap();
        assert!(hv.tx.false_conflicts_filtered > 0, "HV should observe stale-but-unchanged reads");
        assert!(
            hv.tx.abort_rate() <= tbv.tx.abort_rate(),
            "HV abort rate {} should not exceed TBV {}",
            hv.tx.abort_rate(),
            tbv.tx.abort_rate()
        );
    }
}
