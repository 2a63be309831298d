//! KM — *k-means*, ported from STAMP following the paper's GPU port.
//!
//! One clustering iteration: each thread computes its points' nearest
//! centroids (native arithmetic) and transactionally accumulates each
//! point into the shared per-centroid sums and counts. The shared data is
//! tiny (k centroids × dims) and contended by every transaction, so the
//! conflict rate is high and — as the paper's Figure 2 shows — KM gains
//! nothing from STM parallelisation. It is the evaluation's stress case.

use crate::common::{mix64, outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{Addr, LaunchConfig, Sim, WarpCtx};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// K-means parameters.
#[derive(Copy, Clone, Debug)]
pub struct KmParams {
    /// Number of clusters (k).
    pub clusters: u32,
    /// Point/centroid dimensionality.
    pub dims: u32,
    /// Points processed by each thread.
    pub points_per_thread: u32,
    /// Coordinate range (values in `0..range`).
    pub range: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KmParams {
    fn default() -> Self {
        KmParams { clusters: 8, dims: 8, points_per_thread: 2, range: 64, seed: 0x5eed_0006 }
    }
}

impl KmParams {
    /// Coordinate `d` of the `j`-th point of thread `tid`.
    pub fn point(&self, tid: u32, j: u32, d: u32) -> u32 {
        (mix64(self.seed ^ ((tid as u64) << 24 | (j as u64) << 8 | d as u64)) % self.range as u64)
            as u32
    }

    /// Coordinate `d` of (fixed, previous-iteration) centroid `c`.
    pub fn centroid(&self, c: u32, d: u32) -> u32 {
        (mix64(self.seed.rotate_left(9) ^ ((c as u64) << 8 | d as u64)) % self.range as u64) as u32
    }

    /// Nearest centroid of the `j`-th point of thread `tid` (squared
    /// Euclidean distance, lowest index wins ties).
    pub fn assignment(&self, tid: u32, j: u32) -> u32 {
        let mut best = 0;
        let mut best_d = u64::MAX;
        for c in 0..self.clusters {
            let mut d2 = 0u64;
            for d in 0..self.dims {
                let diff = self.point(tid, j, d) as i64 - self.centroid(c, d) as i64;
                d2 += (diff * diff) as u64;
            }
            if d2 < best_d {
                best_d = d2;
                best = c;
            }
        }
        best
    }

    /// Shared accumulator size: per-centroid sums plus a count.
    pub fn shared_words(&self) -> u32 {
        self.clusters * (self.dims + 1)
    }
}

struct KmRunner {
    params: KmParams,
    grid: LaunchConfig,
    accum: Addr,
}

impl StmRunner for KmRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let KmRunner { params, grid, accum } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let launch = ctx.id().launch_mask;
                let mut remaining = [params.points_per_thread; 32];
                let mut assigned: [u32; 32] = [0; 32];
                let mut fresh = launch;
                ctx.set_speculative(true);
                loop {
                    let pending = launch.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    // Native phase: nearest-centroid computation for lanes
                    // starting a new point (k × dims multiply-accumulate).
                    let starting = pending & fresh;
                    if starting.any() {
                        for l in starting.iter() {
                            let j = params.points_per_thread - remaining[l];
                            assigned[l] = params.assignment(ctx.id().thread_id(l), j);
                        }
                        ctx.idle(4 * (params.clusters * params.dims) as u64).await;
                        fresh &= !starting;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    // Transaction: accumulate the point into its centroid.
                    let mut ok = active;
                    for d in 0..params.dims {
                        ok &= stm.opaque(&w);
                        if ok.none() {
                            break;
                        }
                        let addrs =
                            lane_addrs(ok, |l| accum.offset(assigned[l] * (params.dims + 1) + d));
                        let sums = stm.read(&mut w, &ctx, ok, &addrs).await;
                        let ok2 = ok & stm.opaque(&w);
                        let upd = lane_vals(ok2, |l| {
                            let j = params.points_per_thread - remaining[l];
                            sums[l] + params.point(ctx.id().thread_id(l), j, d)
                        });
                        stm.write(&mut w, &ctx, ok2, &addrs, &upd).await;
                    }
                    ok &= stm.opaque(&w);
                    if ok.any() {
                        let caddr = lane_addrs(ok, |l| {
                            accum.offset(assigned[l] * (params.dims + 1) + params.dims)
                        });
                        let counts = stm.read(&mut w, &ctx, ok, &caddr).await;
                        let ok2 = ok & stm.opaque(&w);
                        stm.write(&mut w, &ctx, ok2, &caddr, &lane_vals(ok2, |l| counts[l] + 1))
                            .await;
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        remaining[l] -= 1;
                    }
                    fresh |= committed;
                }
                ctx.set_speculative(false);
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

/// Runs one k-means accumulation iteration under `variant` and verifies
/// the shared sums and counts against a host recomputation.
///
/// # Errors
///
/// [`RunError::Verification`] when any accumulator diverges from the host
/// ground truth (lost updates).
pub fn run(
    params: &KmParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let accum = sim.alloc(params.shared_words())?;
    let out = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        params.shared_words() as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        KmRunner { params: *params, grid, accum },
    )?;

    // Host ground truth.
    let mut expect = vec![0u64; params.shared_words() as usize];
    for tid in 0..grid.total_threads() as u32 {
        for j in 0..params.points_per_thread {
            let c = params.assignment(tid, j);
            for d in 0..params.dims {
                expect[(c * (params.dims + 1) + d) as usize] += params.point(tid, j, d) as u64;
            }
            expect[(c * (params.dims + 1) + params.dims) as usize] += 1;
        }
    }
    let got = sim.read_slice(accum, params.shared_words());
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        if *g as u64 != *e {
            return Err(RunError::Verification(format!("accumulator {i}: device {g}, host {e}")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (KmParams, LaunchConfig, RunConfig) {
        let params = KmParams { clusters: 4, dims: 4, points_per_thread: 2, range: 32, seed: 13 };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 32), cfg)
    }

    #[test]
    fn accumulators_exact_under_variants() {
        let (params, grid, cfg) = tiny();
        for v in [Variant::Cgl, Variant::HvSorting, Variant::TbvSorting, Variant::Vbv] {
            run(&params, v, grid, &cfg).unwrap_or_else(|e| panic!("variant {v}: {e}"));
        }
    }

    #[test]
    fn kmeans_is_conflict_heavy() {
        let (params, grid, cfg) = tiny();
        let out = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        assert!(
            out.tx.abort_rate() > 0.2,
            "expected heavy conflicts, abort rate {}",
            out.tx.abort_rate()
        );
    }

    #[test]
    fn assignment_is_nearest() {
        let p = KmParams::default();
        let c = p.assignment(3, 1);
        assert!(c < p.clusters);
        // Exhaustive check against a direct recomputation.
        let mut best = (u64::MAX, 0);
        for cand in 0..p.clusters {
            let d2: u64 = (0..p.dims)
                .map(|d| {
                    let diff = p.point(3, 1, d) as i64 - p.centroid(cand, d) as i64;
                    (diff * diff) as u64
                })
                .sum();
            if d2 < best.0 {
                best = (d2, cand);
            }
        }
        assert_eq!(c, best.1);
    }
}
