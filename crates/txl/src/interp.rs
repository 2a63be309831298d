//! The TXL executor: a warp-wide, lockstep interpreter running checked
//! kernels on the SIMT simulator over any [`Stm`] runtime.
//!
//! This is where the paper's "compiler support" materialises: the
//! interpreter inserts, automatically,
//!
//! - `TXRead`/`TXWrite` barriers for array accesses inside `atomic`,
//! - the opacity check after every transactional read (lanes whose view
//!   became inconsistent are masked out of the rest of the attempt),
//! - the begin/commit retry loop, and
//! - register checkpoint/restore for the slots chosen by
//!   [`crate::analysis`].
//!
//! Control flow is interpreted with SIMT semantics: `if` splits the active
//! mask, `while` shrinks it per lane until the loop exits, and divergence
//! reconverges at the structured join points — mirroring the hardware's
//! reconvergence stack.

use crate::ast::{BinOp, Expr, Kernel, Stmt};
use crate::error::TxlError;
use gpu_sim::{
    Addr, LaneMask, LaneVals, LaunchConfig, RunReport, Sim, WarpCtx, WarpRng, WARP_SIZE,
};
use gpu_stm::{lane_addrs, Stm, WarpTx};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

/// Binds a kernel array parameter to a device allocation.
#[derive(Clone, Debug)]
pub struct ArrayBinding {
    /// Parameter name to bind.
    pub name: String,
    /// Device base address.
    pub addr: Addr,
    /// Length in words (bounds-checked at runtime).
    pub len: u32,
}

impl ArrayBinding {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, addr: Addr, len: u32) -> Self {
        ArrayBinding { name: name.into(), addr, len }
    }
}

struct St<'k, S: Stm> {
    stm: Rc<S>,
    ctx: WarpCtx,
    w: WarpTx,
    locals: Vec<LaneVals>,
    rng: WarpRng,
    arrays: &'k [(Addr, u32)],
    nthreads: u32,
    in_atomic: bool,
    tx_live: LaneMask,
    /// Lanes that executed `retry;` in the current transaction attempt.
    retrying: LaneMask,
    /// The register checkpoint of the current transaction attempt (atomic
    /// blocks do not nest), reused by every attempt.
    saved: Vec<(usize, LaneVals)>,
}

impl<S: Stm> St<'_, S> {
    fn effective(&self, mask: LaneMask) -> LaneMask {
        if self.in_atomic {
            mask & self.tx_live
        } else {
            mask
        }
    }

    fn oob(&self, lane: usize, array: usize, index: u32, len: u32) -> TxlError {
        TxlError::Runtime {
            message: format!(
                "array index out of bounds: thread {} indexed parameter #{array} at {index} \
                 (length {len})",
                self.ctx.id().thread_id(lane)
            ),
        }
    }
}

type Fut<'a, T> = Pin<Box<dyn Future<Output = Result<T, TxlError>> + 'a>>;

/// Whether evaluating `e` reads an array. Only such an expression can
/// suspend the warp, so only it needs a future.
fn reads_array(e: &Expr) -> bool {
    match e {
        Expr::Index { .. } => true,
        Expr::Int(_) | Expr::Var { .. } | Expr::Tid | Expr::NThreads => false,
        Expr::Not(x) | Expr::Rand(x) => reads_array(x),
        Expr::Bin { lhs, rhs, .. } => reads_array(lhs) || reads_array(rhs),
    }
}

/// The operands of `e`, in evaluation order.
fn operands(e: &Expr) -> [Option<&Expr>; 2] {
    match e {
        Expr::Int(_) | Expr::Var { .. } | Expr::Tid | Expr::NThreads => [None, None],
        Expr::Not(x) | Expr::Rand(x) => [Some(x), None],
        Expr::Index { index, .. } => [Some(index), None],
        Expr::Bin { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
    }
}

/// Evaluates `e` per lane of `mask`. An expression without an array read
/// is evaluated in place; one with a read goes through the boxed
/// recursion of [`eval_read`].
async fn eval<S: Stm>(st: &mut St<'_, S>, e: &Expr, mask: LaneMask) -> Result<LaneVals, TxlError> {
    if reads_array(e) {
        eval_read(st, e, mask).await
    } else {
        Ok(eval_pure(st, e, mask))
    }
}

/// [`eval`] of an expression that reads no array.
fn eval_pure<S: Stm>(st: &mut St<'_, S>, e: &Expr, mask: LaneMask) -> LaneVals {
    let mask = st.effective(mask);
    let mut args = [[0u32; WARP_SIZE]; 2];
    if mask.none() {
        return args[0];
    }
    for (arg, x) in args.iter_mut().zip(operands(e).into_iter().flatten()) {
        *arg = eval_pure(st, x, mask);
    }
    node(st, e, mask, &args)
}

/// [`eval`] of an expression that reads an array: the operands through
/// [`eval`], then the read itself or the node's [`node`] value.
fn eval_read<'a, S: Stm>(st: &'a mut St<'_, S>, e: &'a Expr, mask: LaneMask) -> Fut<'a, LaneVals> {
    Box::pin(async move {
        let mask = st.effective(mask);
        let mut args = [[0u32; WARP_SIZE]; 2];
        if mask.none() {
            return Ok(args[0]);
        }
        for (arg, x) in args.iter_mut().zip(operands(e).into_iter().flatten()) {
            *arg = eval(st, x, mask).await?;
        }
        let Expr::Index { param, .. } = e else {
            return Ok(node(st, e, mask, &args));
        };
        let idx = &args[0];
        // Re-narrow: the index evaluation may have dropped lanes.
        let mask = st.effective(mask);
        let (base, len) = st.arrays[*param];
        for l in mask.iter() {
            if idx[l] >= len {
                return Err(st.oob(l, *param, idx[l], len));
            }
        }
        let addrs = lane_addrs(mask, |l| base.offset(idx[l]));
        let vals = if st.in_atomic {
            // Auto-inserted TXRead + opacity check.
            let stm = Rc::clone(&st.stm);
            let v = stm.read(&mut st.w, &st.ctx, mask, &addrs).await;
            st.tx_live &= stm.opaque(&st.w);
            v
        } else {
            st.ctx.load(mask, &addrs).await
        };
        let mut out = [0u32; WARP_SIZE];
        for l in mask.iter() {
            out[l] = vals[l];
        }
        Ok(out)
    })
}

/// The value of node `e`, which is not an array read, on the non-empty
/// `mask`, given its [`operands`]' values in order: the one evaluator of
/// every node kind but the array read.
fn node<S: Stm>(st: &mut St<'_, S>, e: &Expr, mask: LaneMask, args: &[LaneVals; 2]) -> LaneVals {
    let [a, b] = args;
    let mut out = [0u32; WARP_SIZE];
    match e {
        Expr::Int(v) => {
            for l in mask.iter() {
                out[l] = *v;
            }
        }
        Expr::Var { slot, .. } => {
            for l in mask.iter() {
                out[l] = st.locals[*slot][l];
            }
        }
        Expr::Tid => {
            for l in mask.iter() {
                out[l] = st.ctx.id().thread_id(l);
            }
        }
        Expr::NThreads => {
            for l in mask.iter() {
                out[l] = st.nthreads;
            }
        }
        Expr::Rand(_) => {
            for l in mask.iter() {
                out[l] = if a[l] == 0 { 0 } else { st.rng.below(l, a[l]) };
            }
        }
        Expr::Not(_) => {
            for l in mask.iter() {
                out[l] = u32::from(a[l] == 0);
            }
        }
        Expr::Bin { op, .. } => {
            for l in mask.iter() {
                out[l] = apply_bin(*op, a[l], b[l]);
            }
        }
        Expr::Index { .. } => unreachable!("an array read is evaluated by `eval_read`"),
    }
    out
}

fn apply_bin(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Rem => a.checked_rem(b).unwrap_or(0),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b),
        BinOp::Shr => a.wrapping_shr(b),
        BinOp::Eq => u32::from(a == b),
        BinOp::Ne => u32::from(a != b),
        BinOp::Lt => u32::from(a < b),
        BinOp::Le => u32::from(a <= b),
        BinOp::Gt => u32::from(a > b),
        BinOp::Ge => u32::from(a >= b),
        BinOp::AndAnd => u32::from(a != 0 && b != 0),
        BinOp::OrOr => u32::from(a != 0 || b != 0),
    }
}

fn exec_block<'a, S: Stm>(st: &'a mut St<'_, S>, stmts: &'a [Stmt], mask: LaneMask) -> Fut<'a, ()> {
    Box::pin(async move {
        for stmt in stmts {
            exec_stmt(st, stmt, mask).await?;
        }
        Ok(())
    })
}

async fn exec_stmt<S: Stm>(
    st: &mut St<'_, S>,
    stmt: &Stmt,
    mask: LaneMask,
) -> Result<(), TxlError> {
    let mask = st.effective(mask);
    if mask.none() {
        return Ok(());
    }
    match stmt {
        Stmt::Let { slot, init, .. } | Stmt::Assign { slot, value: init, .. } => {
            let v = eval(st, init, mask).await?;
            let m = st.effective(mask);
            for l in m.iter() {
                st.locals[*slot][l] = v[l];
            }
            st.ctx.alu(m).await;
        }
        Stmt::Store { param, index, value, .. } => {
            let idx = eval(st, index, mask).await?;
            let val = eval(st, value, mask).await?;
            let m = st.effective(mask);
            if m.none() {
                return Ok(());
            }
            let (base, len) = st.arrays[*param];
            for l in m.iter() {
                if idx[l] >= len {
                    return Err(st.oob(l, *param, idx[l], len));
                }
            }
            let addrs = lane_addrs(m, |l| base.offset(idx[l]));
            if st.in_atomic {
                // Auto-inserted TXWrite.
                let stm = Rc::clone(&st.stm);
                stm.write(&mut st.w, &st.ctx, m, &addrs, &val).await;
            } else {
                st.ctx.store(m, &addrs, &val).await;
            }
        }
        Stmt::If { cond, then_blk, else_blk, .. } => {
            st.ctx.alu(mask).await;
            let c = eval(st, cond, mask).await?;
            let base = st.effective(mask);
            let taken = base.filter(|l| c[l] != 0);
            // SIMT: both sides execute serially under sub-masks,
            // reconverging afterwards.
            if taken.any() {
                exec_block(st, then_blk, taken).await?;
            }
            let not_taken = base & !taken;
            if not_taken.any() {
                exec_block(st, else_blk, not_taken).await?;
            }
        }
        Stmt::While { cond, body, .. } => {
            let mut active = mask;
            loop {
                active = st.effective(active);
                if active.none() {
                    break;
                }
                st.ctx.alu(active).await;
                let c = eval(st, cond, active).await?;
                active = st.effective(active).filter(|l| c[l] != 0);
                if active.none() {
                    break;
                }
                exec_block(st, body, active).await?;
            }
        }
        Stmt::Retry { .. } => {
            // The lane abandons this attempt: it leaves the
            // transaction's live set (skipping the rest of the block,
            // like a doomed lane) and is excluded from commit so the
            // atomic loop respins it — `retry` lowered to
            // abort-and-respin, the same fallback the wake policy
            // of `gpu_stm::Pipeline` uses when parking is unavailable.
            st.ctx.alu(mask).await;
            st.retrying |= mask;
            st.tx_live &= !mask;
        }
        Stmt::Atomic { body, checkpoint, .. } => {
            let mut pending = mask;
            // Everything from begin to commit (including STM metadata
            // traffic) is speculative: the race detector must not pair
            // two transactional accesses (the STM itself orders them).
            st.ctx.set_speculative(true);
            while pending.any() {
                let stm = Rc::clone(&st.stm);
                let active = stm.begin(&mut st.w, &st.ctx, pending).await;
                if active.none() {
                    continue;
                }
                // Compiler-inserted register checkpoint (Section 3.2.3).
                st.saved.clear();
                st.saved.extend(checkpoint.iter().map(|s| (*s, st.locals[*s])));
                st.in_atomic = true;
                st.tx_live = active;
                st.retrying = LaneMask::EMPTY;
                let result = exec_block(st, body, active).await;
                st.in_atomic = false;
                result?;
                // `retry;` lanes abandon the attempt: discard their
                // buffered speculative state and keep them pending so
                // they respin once peers have committed.
                let retrying = st.retrying & active;
                st.retrying = LaneMask::EMPTY;
                for l in retrying.iter() {
                    st.w.reset_lane(l);
                }
                let committed = stm.commit(&mut st.w, &st.ctx, active & !retrying).await;
                let undone = (active & !committed) | retrying;
                if undone.any() {
                    // Restore: neither an aborted nor an abandoned
                    // attempt's register effects may be observable.
                    for (slot, vals) in &st.saved {
                        for l in undone.iter() {
                            st.locals[*slot][l] = vals[l];
                        }
                    }
                }
                pending &= !committed;
            }
            st.ctx.set_speculative(false);
        }
    }
    Ok(())
}

/// Launches a checked TXL kernel on the simulator under the given STM.
///
/// `bindings` supplies a device allocation for every array parameter
/// (matched by name; declared lengths are enforced). `seed` drives
/// `rand()`; runs are deterministic.
///
/// # Errors
///
/// - [`TxlError::Runtime`] for unbound/mis-sized arrays or out-of-bounds
///   accesses (reported with the offending thread id);
/// - [`TxlError::Sim`] for simulator-level failures (watchdog, geometry).
pub fn launch<S: Stm + 'static>(
    sim: &mut Sim,
    stm: &Rc<S>,
    kernel: &Kernel,
    grid: LaunchConfig,
    seed: u64,
    bindings: &[ArrayBinding],
) -> Result<RunReport, TxlError> {
    let mut arrays = Vec::with_capacity(kernel.params.len());
    for p in &kernel.params {
        let b = bindings.iter().find(|b| b.name == p.name).ok_or_else(|| TxlError::Runtime {
            message: format!("no binding supplied for array parameter `{}`", p.name),
        })?;
        if let Some(n) = p.declared_len {
            if b.len != n {
                return Err(TxlError::Runtime {
                    message: format!(
                        "array `{}` declared with length {n} but bound with length {}",
                        p.name, b.len
                    ),
                });
            }
        }
        arrays.push((b.addr, b.len));
    }

    // Every warp future is gone when `Sim::launch` returns, so the warps
    // borrow the kernel, the arrays and the error slot.
    let err_cell: RefCell<Option<TxlError>> = RefCell::new(None);
    let (arrays, err_cell) = (&arrays, &err_cell);
    let nthreads = grid.total_threads() as u32;
    let launch_result = sim.launch(grid, |ctx: WarpCtx| {
        let stm = Rc::clone(stm);
        async move {
            let mut st = St {
                w: stm.new_warp(),
                stm,
                rng: WarpRng::new(seed, ctx.id().thread_id(0)),
                locals: vec![[0u32; WARP_SIZE]; kernel.n_slots],
                arrays,
                nthreads,
                in_atomic: false,
                tx_live: LaneMask::FULL,
                retrying: LaneMask::EMPTY,
                saved: Vec::new(),
                ctx: ctx.clone(),
            };
            let mask = ctx.id().launch_mask;
            if let Err(e) = exec_block(&mut st, &kernel.body, mask).await {
                let mut slot = err_cell.borrow_mut();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
    });
    // A runtime error inside one warp can strand others (e.g. a held CGL
    // lock) until the watchdog fires; the root cause wins.
    if let Some(e) = err_cell.borrow_mut().take() {
        return Err(e);
    }
    launch_result.map_err(TxlError::from)
}
