//! The warp-wide transactional API implemented by every STM variant.
//!
//! Kernels are written against [`Stm`] generically, so a workload runs
//! unmodified under GPU-STM (any validation/locking combination), the
//! NOrec-like single-lock STM, the EGPGV per-block STM, or the
//! coarse-grained-lock baseline.
//!
//! ## The transaction loop
//!
//! A kernel drives transactions with a *pending-mask* retry loop:
//!
//! ```ignore
//! let mut w = stm.new_warp();
//! let mut pending = ctx.id().launch_mask; // lanes with a transaction to run
//! while pending.any() {
//!     let active = stm.begin(&mut w, &ctx, pending).await;
//!     if active.none() { continue; }      // e.g. CGL lock not yet available
//!     /* transactional body for `active` lanes, checking stm.opaque(&w) */
//!     let committed = stm.commit(&mut w, &ctx, active).await;
//!     pending &= !committed;              // aborted lanes retry
//! }
//! ```
//!
//! `begin` may admit only a subset of the requested lanes: optimistic STMs
//! admit everyone, while the CGL baseline admits one lane at a time (GPU
//! critical sections serialise) and the EGPGV STM admits one lane per
//! thread block. This single loop shape is what lets one workload body
//! serve every concurrency-control scheme in the evaluation.

use crate::stats::StatsHandle;
use crate::trace::TxTraceSink;
use crate::warptx::WarpTx;
use gpu_sim::{Addr, LaneAddrs, LaneMask, LaneVals, WarpCtx, WARP_SIZE};

/// A warp-wide software transactional memory runtime.
///
/// All methods are warp-collective: they must be called by the warp as a
/// whole with a mask of participating lanes, mirroring lockstep execution.
#[allow(async_fn_in_trait)] // single-threaded simulator: no Send bounds needed
pub trait Stm {
    /// Human-readable variant name (e.g. `"STM-HV-Sorting"`).
    fn name(&self) -> &'static str;

    /// Creates the warp-local transaction descriptor
    /// (`STM_NEW_WARP()` in the paper's Figure 1).
    fn new_warp(&self) -> WarpTx;

    /// Shared run statistics.
    fn stats(&self) -> StatsHandle;

    /// The transaction-lifecycle trace sink the runtime emits to, if one
    /// is attached. A [`Pipeline`](crate::Pipeline) built around the
    /// runtime emits its policies' events there too, so a sink is
    /// attached once, to the base runtime. Defaults to none.
    fn tx_trace(&self) -> Option<TxTraceSink> {
        None
    }

    /// Begins a transaction on the lanes of `want`. Returns the lanes
    /// actually admitted; the kernel must re-request the rest later.
    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask;

    /// Transactional read for each active lane. Inactive lanes get 0.
    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals;

    /// Transactional write for each active lane.
    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    );

    /// Attempts to commit the lanes of `mask`. Returns the lanes that
    /// committed; the rest aborted and must re-run their transaction.
    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask;

    /// Lanes whose transaction still observes a consistent view. A lane
    /// absent from this mask has been doomed to abort; the kernel should
    /// stop issuing its transactional work (the paper's `isOpaque` flag,
    /// which programmers check because the hardware SIMT stack is not
    /// software-manageable).
    fn opaque(&self, w: &WarpTx) -> LaneMask {
        w.opaque
    }

    /// Cumulative abort rate in permille (aborts per thousand attempts),
    /// computed from [`stats`](Stm::stats). Integer permille keeps the
    /// figure exact and platform-independent, so observability layers can
    /// fold it into byte-identical reports. Returns 0 before the first
    /// commit or abort.
    fn abort_permille(&self) -> u32 {
        let s = self.stats();
        let s = s.borrow();
        (s.aborts * 1000).checked_div(s.commits + s.aborts).unwrap_or(0) as u32
    }

    /// Single-lane transactional read convenience wrapper.
    async fn read_one(&self, w: &mut WarpTx, ctx: &WarpCtx, lane: usize, addr: Addr) -> u32 {
        let mut addrs = [Addr::NULL; WARP_SIZE];
        addrs[lane] = addr;
        self.read(w, ctx, LaneMask::lane(lane), &addrs).await[lane]
    }

    /// Single-lane transactional write convenience wrapper.
    async fn write_one(&self, w: &mut WarpTx, ctx: &WarpCtx, lane: usize, addr: Addr, val: u32) {
        let mut addrs = [Addr::NULL; WARP_SIZE];
        let mut vals = [0u32; WARP_SIZE];
        addrs[lane] = addr;
        vals[lane] = val;
        self.write(w, ctx, LaneMask::lane(lane), &addrs, &vals).await;
    }
}

/// Builds a per-lane address array from a function of the lane id
/// (inactive lanes get [`Addr::NULL`], which is never dereferenced because
/// warp operations are masked).
pub fn lane_addrs(mask: LaneMask, mut f: impl FnMut(usize) -> Addr) -> LaneAddrs {
    let mut out = [Addr::NULL; WARP_SIZE];
    for lane in mask.iter() {
        out[lane] = f(lane);
    }
    out
}

/// Builds a per-lane value array from a function of the lane id.
pub fn lane_vals(mask: LaneMask, mut f: impl FnMut(usize) -> u32) -> LaneVals {
    let mut out = [0u32; WARP_SIZE];
    for lane in mask.iter() {
        out[lane] = f(lane);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_addrs_masks_inactive() {
        let m = LaneMask::lane(2) | LaneMask::lane(5);
        let a = lane_addrs(m, |l| Addr(l as u32 * 10));
        assert_eq!(a[2], Addr(20));
        assert_eq!(a[5], Addr(50));
        assert_eq!(a[0], Addr::NULL);
    }

    #[test]
    fn lane_vals_masks_inactive() {
        let v = lane_vals(LaneMask::lane(7), |l| l as u32 + 1);
        assert_eq!(v[7], 8);
        assert_eq!(v[6], 0);
    }
}
