//! RA — the *random array* micro-benchmark (paper Section 4.1, Figure 1).
//!
//! Each transaction performs a fixed number of actions, each a read or a
//! write of a uniformly random element of one shared array. The paper's
//! configuration shares 8M elements among 64K transactions with 1M version
//! locks, making the shared data much larger than the lock table — the
//! regime in which hierarchical validation beats pure TBV.

use crate::common::{outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{LaunchConfig, Sim, WarpCtx, WarpRng};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// Random-array parameters.
#[derive(Copy, Clone, Debug)]
pub struct RaParams {
    /// Shared array size in words (paper: 8M; default scaled 1/64).
    pub shared_words: u32,
    /// Actions (reads or writes) per transaction.
    pub actions_per_tx: u32,
    /// Transactions executed by each thread.
    pub txs_per_thread: u32,
    /// Percentage of actions that are writes (0–100).
    pub write_pct: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RaParams {
    fn default() -> Self {
        RaParams {
            shared_words: 128 << 10,
            actions_per_tx: 8,
            txs_per_thread: 1,
            write_pct: 50,
            seed: 0x5eed_0001,
        }
    }
}

struct RaRunner {
    params: RaParams,
    grid: LaunchConfig,
    data: gpu_sim::Addr,
}

impl StmRunner for RaRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let RaRunner { params, grid, data } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let mut rng = WarpRng::new(params.seed, ctx.id().thread_id(0));
                let launch = ctx.id().launch_mask;
                let mut remaining = [params.txs_per_thread; 32];
                // The whole retry loop is speculative: the race detector
                // must not pair transactional accesses (STM orders them).
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
                    for _ in 0..params.actions_per_tx {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        // Per-lane random action and address (Figure 1).
                        let do_write = ok.filter(|l| rng.chance(l, params.write_pct, 100));
                        let addrs =
                            lane_addrs(ok, |l| data.offset(rng.below(l, params.shared_words)));
                        let readers = ok & !do_write;
                        if readers.any() {
                            let _ = stm.read(&mut w, &ctx, readers, &addrs).await;
                        }
                        let writers = ok & do_write & stm.opaque(&w);
                        if writers.any() {
                            let vals = lane_vals(writers, |l| rng.next_u32(l) | 1);
                            stm.write(&mut w, &ctx, writers, &addrs, &vals).await;
                        }
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

/// Runs the RA micro-benchmark under `variant`.
///
/// # Errors
///
/// Propagates simulator failures and unsupported variant/grid combinations.
pub fn run(
    params: &RaParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let data = sim.alloc(params.shared_words)?;
    dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.shared_words as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        RaRunner { params: *params, grid, data },
    )
}

/// Like [`run`] but also returns the simulator, so tests can inspect final
/// memory against a recorded history.
pub fn run_with_sim(
    params: &RaParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<(RunOutcome, Sim, gpu_sim::Addr), RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let data = sim.alloc(params.shared_words)?;
    let out = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.shared_words as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        RaRunner { params: *params, grid, data },
    )?;
    Ok((out, sim, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (RaParams, LaunchConfig, RunConfig) {
        let params = RaParams {
            shared_words: 1 << 10,
            actions_per_tx: 4,
            txs_per_thread: 2,
            write_pct: 50,
            seed: 7,
        };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 64), cfg)
    }

    #[test]
    fn all_variants_commit_every_transaction() {
        let (params, grid, cfg) = tiny();
        for v in Variant::ALL {
            let out = run(&params, v, grid, &cfg).unwrap();
            assert_eq!(
                out.tx.commits,
                grid.total_threads() * params.txs_per_thread as u64,
                "variant {v}"
            );
        }
    }

    #[test]
    fn zero_write_pct_is_read_only() {
        let (mut params, grid, cfg) = tiny();
        params.write_pct = 0;
        let out = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        assert_eq!(out.tx.read_only_commits, out.tx.commits);
        assert_eq!(out.tx.aborts, 0);
    }

    #[test]
    fn egpgv_rejects_oversized_grids() {
        let (params, _, cfg) = tiny();
        let err = run(&params, Variant::Egpgv, LaunchConfig::new(128, 64), &cfg).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
    }
}
