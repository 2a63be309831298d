//! LB — *labyrinth*, ported from STAMP following the paper's array-based
//! GPU port: Lee-style maze routing where each transaction atomically
//! claims an entire path through a shared grid.
//!
//! Threads pull (source, destination) work items from a queue, compute an
//! L-shaped candidate route (native work), then transactionally read every
//! cell on the route (it must be free) and write their claim to all of
//! them. Routes are long, so read- and write-sets are large — the paper's
//! Table 1 lists LB with the biggest per-transaction footprints, and its
//! shared data (the grid) exceeds the lock table, favouring hierarchical
//! validation.

use crate::common::{mix64, outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::{dispatch, StmRunner, Variant};
use gpu_sim::{Addr, AtomicOp, LaneMask, LaunchConfig, Sim, WarpCtx, WARP_SIZE};
use gpu_stm::{lane_addrs, lane_vals, Stm};
use std::rc::Rc;

/// Labyrinth parameters.
#[derive(Copy, Clone, Debug)]
pub struct LbParams {
    /// Grid width in cells.
    pub width: u32,
    /// Grid height in cells.
    pub height: u32,
    /// Number of (source, destination) pairs to route.
    pub n_paths: u32,
    /// Maximum |Δx| and |Δy| between a route's endpoints. Bounded spans
    /// keep pairwise route-crossing probability low ("modest conflicts",
    /// as the paper's Table 1 characterises LB); `0` means unbounded.
    pub max_span: u32,
    /// RNG seed for endpoint placement.
    pub seed: u64,
}

impl Default for LbParams {
    fn default() -> Self {
        LbParams { width: 192, height: 192, n_paths: 96, max_span: 24, seed: 0x5eed_0005 }
    }
}

impl LbParams {
    /// Endpoints of path `p`: `((sx, sy), (dx, dy))`, deterministic.
    pub fn endpoints(&self, p: u32) -> ((u32, u32), (u32, u32)) {
        let a = mix64(self.seed ^ (2 * p) as u64);
        let b = mix64(self.seed ^ (2 * p + 1) as u64);
        let sx = (a % self.width as u64) as u32;
        let sy = ((a >> 32) % self.height as u64) as u32;
        let (dx, dy) = if self.max_span == 0 {
            ((b % self.width as u64) as u32, ((b >> 32) % self.height as u64) as u32)
        } else {
            let span = 2 * self.max_span as u64 + 1;
            let ox = (b % span) as i64 - self.max_span as i64;
            let oy = ((b >> 32) % span) as i64 - self.max_span as i64;
            (
                (sx as i64 + ox).clamp(0, self.width as i64 - 1) as u32,
                (sy as i64 + oy).clamp(0, self.height as i64 - 1) as u32,
            )
        };
        ((sx, sy), (dx, dy))
    }

    /// Cell index of `(x, y)`.
    pub fn cell(&self, x: u32, y: u32) -> u32 {
        y * self.width + x
    }

    /// The L-shaped route for path `p`. `bend_first_x` selects
    /// horizontal-then-vertical (`true`) or vertical-then-horizontal.
    pub fn route(&self, p: u32, bend_first_x: bool) -> Vec<u32> {
        let ((sx, sy), (dx, dy)) = self.endpoints(p);
        let mut cells = Vec::new();
        let push = |x: u32, y: u32, cells: &mut Vec<u32>| {
            let c = self.cell(x, y);
            if cells.last() != Some(&c) {
                cells.push(c);
            }
        };
        let (mut x, mut y) = (sx, sy);
        push(x, y, &mut cells);
        if bend_first_x {
            while x != dx {
                x = if dx > x { x + 1 } else { x - 1 };
                push(x, y, &mut cells);
            }
            while y != dy {
                y = if dy > y { y + 1 } else { y - 1 };
                push(x, y, &mut cells);
            }
        } else {
            while y != dy {
                y = if dy > y { y + 1 } else { y - 1 };
                push(x, y, &mut cells);
            }
            while x != dx {
                x = if dx > x { x + 1 } else { x - 1 };
                push(x, y, &mut cells);
            }
        }
        cells
    }
}

/// Outcome of a labyrinth run: base metrics plus routing results.
#[derive(Clone, Debug)]
pub struct LbOutcome {
    /// Common metrics.
    pub base: RunOutcome,
    /// Paths successfully claimed.
    pub routed: u32,
    /// Paths abandoned because both L-routes were blocked.
    pub blocked: u32,
}

struct LbRunner {
    params: LbParams,
    grid: LaunchConfig,
    cells: Addr,
    queue: Addr,
    result: Addr,
}

impl StmRunner for LbRunner {
    type Out = RunOutcome;

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<RunOutcome, RunError> {
        let LbRunner { params, grid, cells, queue, result } = self;
        let kstm = Rc::clone(&stm);
        let report = sim.launch(grid, move |ctx: WarpCtx| {
            let stm = Rc::clone(&kstm);
            async move {
                let mut w = stm.new_warp();
                let launch = ctx.id().launch_mask;
                // Per-lane routing state.
                let mut path: [Option<u32>; WARP_SIZE] = [None; WARP_SIZE];
                let mut attempt_bend: [bool; WARP_SIZE] = [true; WARP_SIZE];
                let mut routes: Vec<Vec<u32>> = vec![Vec::new(); WARP_SIZE];
                let mut done = LaneMask::EMPTY;
                ctx.set_speculative(true);
                loop {
                    // Claim new work items for idle lanes (non-transactional
                    // queue pop, as in the STAMP port).
                    let idle = launch & !done;
                    let need_work = idle.filter(|l| path[l].is_none());
                    if need_work.any() {
                        let old = ctx
                            .atomic_rmw(
                                need_work,
                                AtomicOp::Add,
                                &[queue; WARP_SIZE],
                                &[1u32; WARP_SIZE],
                            )
                            .await;
                        for l in need_work.iter() {
                            if old[l] < params.n_paths {
                                path[l] = Some(old[l]);
                                attempt_bend[l] = true;
                                routes[l] = params.route(old[l], true);
                            } else {
                                done |= LaneMask::lane(l);
                            }
                        }
                    }
                    let pending = launch & !done;
                    if pending.none() {
                        break;
                    }
                    // Native route computation cost: proportional to length.
                    let max_len = pending.iter().map(|l| routes[l].len()).max().unwrap_or(0);
                    ctx.idle(20 * max_len as u64).await;

                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    // Transactionally read every cell of the route.
                    let mut free = active; // lanes whose route is entirely free
                    let rounds = active.iter().map(|l| routes[l].len()).max().unwrap_or(0);
                    let mut scanning = active;
                    for k in 0..rounds {
                        scanning &= stm.opaque(&w);
                        let m = scanning.filter(|l| k < routes[l].len());
                        if m.none() {
                            break;
                        }
                        let addrs = lane_addrs(m, |l| cells.offset(routes[l][k]));
                        let vals = stm.read(&mut w, &ctx, m, &addrs).await;
                        for l in m.iter() {
                            if vals[l] != 0 {
                                free = free.without(l);
                                scanning = scanning.without(l); // blocked: stop scanning
                            }
                        }
                    }
                    free &= stm.opaque(&w);
                    // Claim free routes: write owner id to every cell plus
                    // the result flag, atomically with the reads.
                    if free.any() {
                        let rounds = free.iter().map(|l| routes[l].len()).max().unwrap_or(0);
                        for k in 0..rounds {
                            let m = free.filter(|l| k < routes[l].len());
                            if m.none() {
                                break;
                            }
                            let addrs = lane_addrs(m, |l| cells.offset(routes[l][k]));
                            let vals = lane_vals(m, |l| path[l].unwrap() + 1);
                            stm.write(&mut w, &ctx, m, &addrs, &vals).await;
                        }
                        let raddr = lane_addrs(free, |l| result.offset(path[l].unwrap()));
                        let rval = lane_vals(free, |l| if attempt_bend[l] { 1 } else { 2 });
                        stm.write(&mut w, &ctx, free, &raddr, &rval).await;
                    }
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    for l in committed.iter() {
                        if free.contains(l) {
                            path[l] = None; // routed; pull next work item
                        } else {
                            // Route blocked (committed read-only): try the
                            // other bend, then give up.
                            if attempt_bend[l] {
                                attempt_bend[l] = false;
                                routes[l] = params.route(path[l].unwrap(), false);
                            } else {
                                path[l] = None; // both bends blocked: abandon
                            }
                        }
                    }
                }
                ctx.set_speculative(false);
            }
        })?;
        Ok(outcome(vec![report], &*stm))
    }
}

/// Runs labyrinth under `variant` and verifies that claimed routes are
/// disjoint and complete.
///
/// # Errors
///
/// [`RunError::Verification`] if any claimed cell does not belong to the
/// recorded route of its owner, or a routed path is incompletely claimed.
pub fn run(
    params: &LbParams,
    variant: Variant,
    grid: LaunchConfig,
    cfg: &RunConfig,
) -> Result<LbOutcome, RunError> {
    let mut sim = Sim::new(cfg.sim.clone());
    let n_cells = params.width * params.height;
    let cells = sim.alloc(n_cells)?;
    let queue = sim.alloc(1)?;
    let result = sim.alloc(params.n_paths)?;
    let base = dispatch(
        &mut sim,
        variant,
        cfg.stm,
        n_cells as u64,
        grid,
        cfg.recorder.clone(),
        cfg.trace.clone(),
        LbRunner { params: *params, grid, cells, queue, result },
    )?;

    // Verification: each routed path fully owns its cells; every claimed
    // cell belongs to exactly the route that claims it.
    let grid_v = sim.read_slice(cells, n_cells);
    let result_v = sim.read_slice(result, params.n_paths);
    let mut routed = 0;
    let mut blocked = 0;
    let mut owned = vec![0u32; n_cells as usize];
    for p in 0..params.n_paths {
        match result_v[p as usize] {
            0 => blocked += 1,
            bend @ (1 | 2) => {
                routed += 1;
                for c in params.route(p, bend == 1) {
                    if grid_v[c as usize] != p + 1 {
                        return Err(RunError::Verification(format!(
                            "path {p} cell {c} owned by {}",
                            grid_v[c as usize]
                        )));
                    }
                    owned[c as usize] = p + 1;
                }
            }
            other => return Err(RunError::Verification(format!("result[{p}] corrupted: {other}"))),
        }
    }
    for (c, v) in grid_v.iter().enumerate() {
        if *v != 0 && owned[c] != *v {
            return Err(RunError::Verification(format!(
                "cell {c} claimed by {v} outside any routed path"
            )));
        }
    }
    Ok(LbOutcome { base, routed, blocked })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (LbParams, LaunchConfig, RunConfig) {
        let params = LbParams { width: 32, height: 32, n_paths: 12, max_span: 8, seed: 5 };
        let cfg = RunConfig::with_memory(1 << 16).with_locks(1 << 8);
        (params, LaunchConfig::new(2, 32), cfg)
    }

    #[test]
    fn routes_are_l_shaped_and_connected() {
        let p = LbParams { width: 16, height: 16, n_paths: 4, max_span: 0, seed: 1 };
        for i in 0..4 {
            for bend in [true, false] {
                let r = p.route(i, bend);
                let ((sx, sy), (dx, dy)) = p.endpoints(i);
                assert_eq!(r[0], p.cell(sx, sy));
                assert_eq!(*r.last().unwrap(), p.cell(dx, dy));
                for w in r.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let (ax, ay) = (a % p.width, a / p.width);
                    let (bx, by) = (b % p.width, b / p.width);
                    assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1, "route not contiguous");
                }
            }
        }
    }

    #[test]
    fn labyrinth_routes_disjoint_under_variants() {
        let (params, grid, cfg) = tiny();
        for v in [Variant::Cgl, Variant::HvSorting, Variant::TbvSorting] {
            let out = run(&params, v, grid, &cfg).unwrap();
            assert_eq!(out.routed + out.blocked, params.n_paths, "variant {v}");
            assert!(out.routed > 0, "variant {v} routed nothing");
        }
    }

    #[test]
    fn deterministic_routing() {
        let (params, grid, cfg) = tiny();
        let a = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        let b = run(&params, Variant::HvSorting, grid, &cfg).unwrap();
        assert_eq!(a.routed, b.routed);
        assert_eq!(a.base.cycles(), b.base.cycles());
    }
}
