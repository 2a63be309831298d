//! Abstract interpretation of TXL kernels over an interval lattice,
//! computing per-array may-read/may-write *footprints*.
//!
//! Every expression is evaluated to an [`Interval`] `[lo, hi]` of possible
//! `u32` values (`⊤ = [0, u32::MAX]`); array subscripts then accumulate
//! into per-parameter read/write interval hulls. Three consumers:
//!
//! - **DPOR pruning** (`tm-verify`): with `tid` bound to a concrete
//!   thread id, [`thread_footprint`] over-approximates every address the
//!   thread can touch in a parameter. When all threads' footprints are
//!   pairwise disjoint, their data accesses provably never conflict and
//!   the model checker need not branch on their order.
//! - **Lint TL005** ([`crate::lint`]): with `tid` symbolic
//!   (`[0, nthreads)`), per-`atomic`-block footprints plus the order in
//!   which each block *first* touches each parameter expose
//!   statically-overlapping footprints acquired in different orders —
//!   the classic lock-order-inversion shape of the paper's Section 2.2.
//! - **Exact conflict rates** ([`crate::cost`]): with `tid` bound to each
//!   thread in turn, `thread_block_rows` records only the per-block
//!   hulls, into one reused row, for `txl analyze`'s conflict graph.
//!
//! The analysis is a *may* analysis: soundness means every concrete
//! access lies inside the reported hull, never that the hull is tight.
//! Loops are handled by bounded iteration to a fixpoint with widening to
//! `⊤` after [`WIDEN_AFTER`] rounds, so analysis always terminates.

use crate::ast::{BinOp, Expr, Kernel, Stmt};
use crate::token::Span;

/// How many fixpoint rounds a `while` body is re-interpreted before
/// still-growing locals are widened to `⊤`.
const WIDEN_AFTER: usize = 4;

/// A closed interval of `u32` values — the abstract domain.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u32,
    /// Largest possible value.
    pub hi: u32,
}

impl Interval {
    /// The full range (`⊤`): nothing is known about the value.
    pub const TOP: Interval = Interval { lo: 0, hi: u32::MAX };

    /// The interval holding exactly `v`.
    pub fn exact(v: u32) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Interval {
        assert!(lo <= hi, "bad interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Whether this is the full range.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Least upper bound (interval hull).
    pub fn join(self, o: Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Whether the two intervals share any value.
    pub fn overlaps(self, o: Interval) -> bool {
        self.lo <= o.hi && o.lo <= self.hi
    }

    /// Number of values in the interval (saturating).
    pub fn width(self) -> u64 {
        self.hi as u64 - self.lo as u64 + 1
    }

    fn from_u64(lo: u64, hi: u64) -> Interval {
        if hi > u32::MAX as u64 {
            // A bound escaped u32: wrapping semantics make any value
            // possible.
            Interval::TOP
        } else {
            Interval { lo: lo as u32, hi: hi as u32 }
        }
    }

    pub(crate) fn add(self, o: Interval) -> Interval {
        Interval::from_u64(self.lo as u64 + o.lo as u64, self.hi as u64 + o.hi as u64)
    }

    pub(crate) fn sub(self, o: Interval) -> Interval {
        if o.hi <= self.lo {
            Interval { lo: self.lo - o.hi, hi: self.hi - o.lo }
        } else {
            // May wrap below zero.
            Interval::TOP
        }
    }

    pub(crate) fn mul(self, o: Interval) -> Interval {
        Interval::from_u64(self.lo as u64 * o.lo as u64, self.hi as u64 * o.hi as u64)
    }

    pub(crate) fn div(self) -> Interval {
        // TXL defines x / 0 = 0, so the result never exceeds the
        // dividend.
        Interval { lo: 0, hi: self.hi }
    }

    pub(crate) fn rem(self, o: Interval) -> Interval {
        // TXL defines x % 0 = 0; otherwise the result is < divisor and
        // never exceeds the dividend.
        if o.lo == o.hi && o.lo > 0 {
            let d = o.lo;
            let (lo, hi) = (self.lo % d, self.hi % d);
            // The dividend range stays within one period of the
            // divisor, so the remainder is monotone across it.
            if self.hi - self.lo < d && lo <= hi {
                return Interval { lo, hi };
            }
        }
        Interval { lo: 0, hi: self.hi.min(o.hi.saturating_sub(1)) }
    }

    pub(crate) fn bit_hull(self, o: Interval) -> Interval {
        // |, ^, &-with-unknowns: bounded by an all-ones mask covering the
        // larger operand's bit-length.
        let m = self.hi | o.hi;
        let hi = if m == 0 {
            0
        } else {
            let bits = 32 - m.leading_zeros();
            if bits >= 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            }
        };
        Interval { lo: 0, hi }
    }

    pub(crate) fn shl(self, o: Interval) -> Interval {
        if o.hi >= 32 {
            return Interval::TOP;
        }
        Interval::from_u64((self.lo as u64) << o.lo, (self.hi as u64) << o.hi)
    }

    pub(crate) fn shr(self, o: Interval) -> Interval {
        if o.hi >= 32 {
            // The interpreter shifts modulo 32 (`wrapping_shr`), so a
            // shift interval reaching 32 admits an effective shift of 0
            // and the result can be as large as the dividend.
            return Interval { lo: 0, hi: self.hi };
        }
        Interval { lo: self.lo >> o.hi, hi: self.hi >> o.lo }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_top() {
            f.write_str("[⊤]")
        } else if self.lo == self.hi {
            write!(f, "[{}]", self.lo)
        } else {
            write!(f, "[{}..{}]", self.lo, self.hi)
        }
    }
}

/// The may-read/may-write index hulls of one array parameter
/// (`None` = the code never touches it on any path).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ParamFootprint {
    /// Hull of indices possibly read.
    pub read: Option<Interval>,
    /// Hull of indices possibly written.
    pub write: Option<Interval>,
}

impl ParamFootprint {
    /// Hull of all accesses, read or write.
    pub fn touched(&self) -> Option<Interval> {
        match (self.read, self.write) {
            (Some(r), Some(w)) => Some(r.join(w)),
            (a, b) => a.or(b),
        }
    }

    /// Whether two footprints may *conflict*: an index both touch, with at
    /// least one side writing.
    pub fn conflicts(&self, other: &ParamFootprint) -> bool {
        let rw = |a: Option<Interval>, b: Option<Interval>| match (a, b) {
            (Some(x), Some(y)) => x.overlaps(y),
            _ => false,
        };
        rw(self.write, other.read) || rw(self.read, other.write) || rw(self.write, other.write)
    }

    fn record(&mut self, write: bool, iv: Interval) {
        let slot = if write { &mut self.write } else { &mut self.read };
        *slot = Some(slot.map_or(iv, |old| old.join(iv)));
    }
}

/// Footprint of one `atomic { .. }` block: per-parameter hulls plus the
/// order in which the block first touches each parameter — its effective
/// stripe-acquisition order for TL005.
#[derive(Clone, Debug)]
pub struct AtomicFootprint {
    /// Source span of the `atomic` statement.
    pub span: Span,
    /// Per-parameter hulls, indexed like `Kernel::params`.
    pub params: Vec<ParamFootprint>,
    /// Parameter indices in order of first (syntactic) access.
    pub first_order: Vec<usize>,
}

/// Whole-kernel analysis result.
#[derive(Clone, Debug)]
pub struct KernelFootprint {
    /// Per-parameter hulls over the *entire* kernel (transactional and
    /// plain accesses alike), indexed like `Kernel::params`.
    pub params: Vec<ParamFootprint>,
    /// One entry per `atomic` block, in source order.
    pub atomics: Vec<AtomicFootprint>,
}

/// Where one run of the [`Analyzer`] puts the accesses it finds.
trait Recorder {
    /// An access to array parameter `param` over the index hull `iv`.
    fn record(&mut self, param: usize, write: bool, iv: Interval);
    /// Entering the outermost `atomic` statement, at `span`.
    fn open(&mut self, span: Span);
    /// Leaving it.
    fn close(&mut self);
}

/// The whole-kernel result: hulls over every access, plus one
/// [`AtomicFootprint`] per abstract execution of an `atomic` block.
struct Whole {
    params: Vec<ParamFootprint>,
    atomics: Vec<AtomicFootprint>,
    /// Innermost open atomic block, as an index into `atomics`.
    open: Option<usize>,
}

impl Recorder for Whole {
    fn record(&mut self, param: usize, write: bool, iv: Interval) {
        self.params[param].record(write, iv);
        if let Some(a) = self.open {
            let blk = &mut self.atomics[a];
            blk.params[param].record(write, iv);
            if !blk.first_order.contains(&param) {
                blk.first_order.push(param);
            }
        }
    }

    fn open(&mut self, span: Span) {
        self.atomics.push(AtomicFootprint {
            span,
            params: vec![ParamFootprint::default(); self.params.len()],
            first_order: Vec::new(),
        });
        self.open = Some(self.atomics.len() - 1);
    }

    fn close(&mut self) {
        self.open = None;
    }
}

/// One thread's per-block hulls, joined straight into a caller-owned
/// block-major `blocks × params` row: block `b` is the `atomic`
/// statement whose span starts at `starts[b]`, so every abstract
/// execution of a block lands in the same entry.
struct BlockRow<'r> {
    starts: &'r [u32],
    nparams: usize,
    row: &'r mut [ParamFootprint],
    /// The open block's index into `starts`.
    open: Option<usize>,
}

impl Recorder for BlockRow<'_> {
    fn record(&mut self, param: usize, write: bool, iv: Interval) {
        if let Some(b) = self.open {
            self.row[b * self.nparams + param].record(write, iv);
        }
    }

    fn open(&mut self, span: Span) {
        self.open = self.starts.binary_search(&span.start).ok();
    }

    fn close(&mut self) {
        self.open = None;
    }
}

type Env = Vec<Interval>;

/// The one abstract interpreter, reporting accesses to `rec`.
struct Analyzer<'k, 'p, R> {
    kernel: &'k Kernel,
    tid: Interval,
    nthreads: u32,
    rec: R,
    /// Spare env buffers, taken for each `if` branch and `while` round
    /// and given back, so a caller that keeps the pool across runs
    /// reuses their allocations.
    pool: &'p mut Vec<Env>,
    in_atomic: bool,
}

impl<R: Recorder> Analyzer<'_, '_, R> {
    /// Runs the kernel body from all-zero locals.
    fn run(&mut self) {
        let mut env = self.pool.pop().unwrap_or_default();
        env.clear();
        let kernel = self.kernel;
        env.resize(kernel.n_slots, Interval::exact(0));
        self.exec_block(&kernel.body, &mut env);
        self.pool.push(env);
    }

    /// A pooled copy of `env`.
    fn copy(&mut self, env: &Env) -> Env {
        let mut out = self.pool.pop().unwrap_or_default();
        out.clone_from(env);
        out
    }

    fn record(&mut self, param: usize, write: bool, iv: Interval) {
        let iv = self.clamp_to_len(param, iv);
        self.rec.record(param, write, iv);
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Interval {
        match e {
            Expr::Int(v) => Interval::exact(*v),
            Expr::Var { slot, .. } => env[*slot],
            Expr::Tid => self.tid,
            Expr::NThreads => Interval::exact(self.nthreads),
            Expr::Rand(n) => {
                let n = self.eval(n, env);
                // rand(n) ∈ [0, n-1]; rand(0) = 0.
                Interval { lo: 0, hi: n.hi.saturating_sub(1) }
            }
            Expr::Not(inner) => {
                self.eval(inner, env);
                Interval { lo: 0, hi: 1 }
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs, env);
                let b = self.eval(rhs, env);
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(),
                    BinOp::Rem => a.rem(b),
                    BinOp::And => Interval { lo: 0, hi: a.hi.min(b.hi) },
                    BinOp::Or | BinOp::Xor => a.bit_hull(b),
                    BinOp::Shl => a.shl(b),
                    BinOp::Shr => a.shr(b),
                    BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::AndAnd
                    | BinOp::OrOr => Interval { lo: 0, hi: 1 },
                }
            }
            Expr::Index { param, index, .. } => {
                let iv = self.eval(index, env);
                self.record(*param, false, iv);
                // Array contents are unknown.
                Interval::TOP
            }
        }
    }

    /// Indices beyond a declared length trap at runtime (the kernel
    /// aborts before the access executes), so the executed footprint
    /// never exceeds the array.
    fn clamp_to_len(&self, param: usize, iv: Interval) -> Interval {
        match self.kernel.params[param].declared_len {
            Some(n) if n > 0 => Interval { lo: iv.lo.min(n - 1), hi: iv.hi.min(n - 1) },
            _ => iv,
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            self.exec_stmt(s, env);
        }
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) {
        match stmt {
            Stmt::Let { slot, init, .. } | Stmt::Assign { slot, value: init, .. } => {
                env[*slot] = self.eval(init, env);
            }
            Stmt::Store { param, index, value, .. } => {
                let iv = self.eval(index, env);
                self.eval(value, env);
                self.record(*param, true, iv);
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                self.eval(cond, env);
                let mut then_env = self.copy(env);
                self.exec_block(then_blk, &mut then_env);
                self.exec_block(else_blk, env);
                for (iv, t) in env.iter_mut().zip(&then_env) {
                    *iv = iv.join(*t);
                }
                self.pool.push(then_env);
            }
            // `retry` touches no arrays; the respun attempt re-runs the
            // same body, so its footprint is already the block's.
            Stmt::Retry { .. } => {}
            Stmt::While { cond, body, .. } => {
                // Bounded fixpoint: re-interpret the body until locals
                // stabilise, widening whatever still grows.
                let mut before = self.copy(env);
                for round in 0.. {
                    before.clone_from(env);
                    self.eval(cond, env);
                    self.exec_block(body, env);
                    let mut changed = false;
                    for (iv, &old) in env.iter_mut().zip(&before) {
                        let joined = iv.join(old);
                        if joined != old {
                            changed = true;
                            if round + 1 >= WIDEN_AFTER {
                                *iv = Interval::TOP;
                                continue;
                            }
                        }
                        *iv = joined;
                    }
                    if !changed {
                        break;
                    }
                }
                self.pool.push(before);
            }
            Stmt::Atomic { body, .. } => {
                // Nested atomics are rejected by `check`; still, keep the
                // outermost block open if one exists.
                let fresh = !self.in_atomic;
                if fresh {
                    self.rec.open(stmt.span());
                    self.in_atomic = true;
                }
                self.exec_block(body, env);
                if fresh {
                    self.rec.close();
                    self.in_atomic = false;
                }
            }
        }
    }
}

/// Runs the abstract interpreter over `kernel` with `tid` drawn from the
/// given interval and `nthreads()` equal to `nthreads`.
///
/// Pass `tid = [0, nthreads)` for a symbolic, all-threads view (lint), or
/// an exact `tid` for a per-thread view (DPOR pruning).
pub fn kernel_footprint(kernel: &Kernel, tid: Interval, nthreads: u32) -> KernelFootprint {
    let whole = Whole {
        params: vec![ParamFootprint::default(); kernel.params.len()],
        atomics: Vec::new(),
        open: None,
    };
    let mut a =
        Analyzer { kernel, tid, nthreads, rec: whole, pool: &mut Vec::new(), in_atomic: false };
    a.run();
    KernelFootprint { params: a.rec.params, atomics: a.rec.atomics }
}

/// Every thread's footprints of the kernel's `atomic` blocks, exact in
/// `tid`: for each `tid` in `0..nthreads`, in order, `each` sees a
/// block-major row of `starts.len() × params` hulls, block `b` being the
/// `atomic` statement whose span starts at `starts[b]` (ascending), with
/// every abstract execution of it joined. The same hulls as
/// [`kernel_footprint`] at `tid`, its `atomics` joined by span; one row
/// and one env pool serve every thread, and the whole-kernel hulls and
/// first-access orders are not built. A kernel that never reads `tid()`
/// ([`Kernel::uses_tid`]) runs the same abstract execution in every
/// thread, so it is interpreted once and that row goes to every thread.
pub(crate) fn thread_block_rows(
    kernel: &Kernel,
    starts: &[u32],
    nthreads: u32,
    mut each: impl FnMut(&[ParamFootprint]),
) {
    let nparams = kernel.params.len();
    let mut row = vec![ParamFootprint::default(); starts.len() * nparams];
    let mut pool = Vec::new();
    let runs = if kernel.uses_tid { nthreads } else { nthreads.min(1) };
    for tid in 0..nthreads {
        if tid < runs {
            row.fill(ParamFootprint::default());
            let rec = BlockRow { starts, nparams, row: &mut row, open: None };
            let tid = Interval::exact(tid);
            let mut a = Analyzer { kernel, tid, nthreads, rec, pool: &mut pool, in_atomic: false };
            a.run();
        }
        each(&row);
    }
}

/// The array sizing rule of every dynamic TXL run: per parameter, the
/// declared length, else `hi + 1` of the all-threads footprint hull when
/// it is bounded below 4096, else `nthreads`; at least 1.
pub fn array_lens(kernel: &Kernel, nthreads: u32) -> Vec<u32> {
    let fp = kernel_footprint(kernel, Interval::new(0, nthreads.saturating_sub(1)), nthreads);
    kernel
        .params
        .iter()
        .zip(&fp.params)
        .map(|(p, f)| {
            p.declared_len
                .or_else(|| match f.touched() {
                    Some(hull) if !hull.is_top() && hull.hi < 4096 => Some(hull.hi + 1),
                    _ => None,
                })
                .unwrap_or(nthreads)
                .max(1)
        })
        .collect()
}

/// Per-thread whole-kernel footprint: everything thread `tid` (of
/// `nthreads`) may read or write in each array parameter.
pub fn thread_footprint(kernel: &Kernel, tid: u32, nthreads: u32) -> Vec<ParamFootprint> {
    kernel_footprint(kernel, Interval::exact(tid), nthreads).params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn kernel(src: &str) -> crate::ast::Program {
        compile(src).expect("fixture compiles")
    }

    fn only(p: &crate::ast::Program) -> &Kernel {
        &p.kernels[0]
    }

    #[test]
    fn striped_footprints_are_disjoint_per_thread() {
        let p = kernel(
            "kernel stripes(a: array) {
                 let base = tid() * 2;
                 atomic {
                     a[base] = a[base] + 1;
                     a[base + 1] = a[base + 1] + 1;
                 }
             }",
        );
        let f0 = thread_footprint(only(&p), 0, 4);
        let f1 = thread_footprint(only(&p), 1, 4);
        assert_eq!(f0[0].touched(), Some(Interval::new(0, 1)));
        assert_eq!(f1[0].touched(), Some(Interval::new(2, 3)));
        assert!(!f0[0].conflicts(&f1[0]));
        assert!(f0[0].conflicts(&f0[0]));
    }

    #[test]
    fn modulo_bounds_symbolic_tid() {
        let p = kernel(
            "kernel vote(tally: array) {
                 let v = tid() % 8;
                 atomic { tally[v] = tally[v] + 1; }
             }",
        );
        let f = kernel_footprint(only(&p), Interval::new(0, 255), 256);
        assert_eq!(f.params[0].read, Some(Interval::new(0, 7)));
        assert_eq!(f.params[0].write, Some(Interval::new(0, 7)));
        assert_eq!(f.atomics.len(), 1);
        assert_eq!(f.atomics[0].first_order, vec![0]);
    }

    #[test]
    fn while_loop_widens_and_terminates() {
        let p = kernel(
            "kernel scan(a: array) {
                 let i = 0;
                 while i < 100 {
                     a[i] = 0;
                     i = i + 1;
                 }
             }",
        );
        let f = kernel_footprint(only(&p), Interval::exact(0), 1);
        // The hull must cover every written index; widening may take it
        // to ⊤, which is sound.
        let w = f.params[0].write.expect("writes recorded");
        assert_eq!(w.lo, 0);
        assert!(w.hi >= 99);
    }

    #[test]
    fn declared_len_clamps_hull() {
        let p = kernel(
            "kernel wild(a: array[16]) {
                 let i = rand(1000);
                 while i { i = i - 1; }
                 a[i % 16] = 1;
             }",
        );
        let f = kernel_footprint(only(&p), Interval::exact(0), 1);
        let w = f.params[0].write.unwrap();
        assert!(w.hi <= 15, "clamped to the declared length, got {w}");
    }

    #[test]
    fn branches_join() {
        let p = kernel(
            "kernel pick(a: array) {
                 let i = 0;
                 if tid() % 2 { i = 10; } else { i = 3; }
                 a[i] = 1;
             }",
        );
        let f = kernel_footprint(only(&p), Interval::new(0, 31), 32);
        assert_eq!(f.params[0].write, Some(Interval::new(3, 10)));
    }

    #[test]
    fn first_access_order_recorded_per_atomic() {
        let p = kernel(
            "kernel two(a: array, b: array) {
                 atomic { a[0] = b[0]; }
                 atomic { b[1] = a[1]; }
             }",
        );
        let f = kernel_footprint(only(&p), Interval::new(0, 1), 2);
        assert_eq!(f.atomics.len(), 2);
        // Block 1 reads b[0] first (RHS evaluates before the store).
        assert_eq!(f.atomics[0].first_order, vec![1, 0]);
        assert_eq!(f.atomics[1].first_order, vec![0, 1]);
    }

    #[test]
    fn interval_arithmetic_is_sound_on_wrap() {
        let top = Interval::TOP;
        assert!(Interval::exact(u32::MAX).add(Interval::exact(1)).is_top());
        assert_eq!(Interval::exact(5).sub(Interval::exact(2)), Interval::exact(3));
        assert!(Interval::exact(1).sub(Interval::exact(2)).is_top());
        assert_eq!(Interval::new(0, 7).rem(Interval::exact(4)), Interval::new(0, 3));
        assert_eq!(top.rem(Interval::exact(8)), Interval::new(0, 7));
        assert_eq!(Interval::exact(3).mul(Interval::exact(4)), Interval::exact(12));
    }

    /// The interpreter's shifts are `wrapping_shl`/`wrapping_shr` (shift
    /// amount taken modulo 32), so a shift interval that reaches 32
    /// admits an *effective shift of zero*. The abstract operators must
    /// cover that case — `[9,9] >> [1,33]` must still contain 9.
    #[test]
    fn shift_intervals_crossing_32_stay_sound() {
        let v = Interval::exact(9);
        let s = Interval::new(1, 33);
        let shr = v.shr(s);
        for k in [1u32, 31, 32, 33] {
            let concrete = 9u32.wrapping_shr(k);
            assert!(
                shr.lo <= concrete && concrete <= shr.hi,
                "9 >> {k} = {concrete} escaped hull {shr}"
            );
        }
        // shl with a crossing interval likewise admits shift 0.
        assert!(v.shl(s).overlaps(Interval::exact(9)));
        // Entirely-below-32 shifts stay precise in both directions.
        assert_eq!(Interval::new(8, 16).shr(Interval::new(1, 2)), Interval::new(2, 8));
        assert_eq!(Interval::new(1, 2).shl(Interval::new(2, 3)), Interval::new(4, 16));
    }

    /// End-to-end regression for the mod-32 shift: a kernel whose index
    /// shifts by `1 + rand(33)` can execute an effective shift of 0
    /// (k = 32), so thread 9's hull must contain index 9. The previous
    /// `shr` clamped the shift to 31 and reported `[0, 4]`.
    #[test]
    fn kernel_footprint_covers_mod32_shift() {
        let p = kernel(
            "kernel s(a: array[16]) {
                 let k = 1 + rand(33);
                 a[(tid() >> k) % 16] = 1;
             }",
        );
        let f = thread_footprint(only(&p), 9, 16);
        let w = f[0].write.expect("write recorded");
        assert!(w.lo <= 9 && 9 <= w.hi, "index 9 escaped hull {w}");
    }

    /// Index wrap-around below zero: `a[i - 1]` with `i = 0` executes at
    /// u32::MAX under wrapping semantics, so without a declared length
    /// the hull must go to ⊤ (and with one, the clamp keeps it in range).
    #[test]
    fn underflow_index_widens_to_top() {
        let p = kernel("kernel u(a: array) { let i = 0; a[i - 1] = 1; }");
        let f = kernel_footprint(only(&p), Interval::exact(0), 1);
        assert!(f.params[0].write.unwrap().is_top());
        let clamped = kernel("kernel u(a: array[8]) { let i = 0; a[i - 1] = 1; }");
        let w = kernel_footprint(only(&clamped), Interval::exact(0), 1).params[0].write.unwrap();
        assert!(w.hi <= 7, "declared length must clamp the wrapped index, got {w}");
    }

    /// Zero-trip loops: the body never executes, but this is a *may*
    /// analysis — recording the body's accesses is sound (a superset) and
    /// the fixpoint must still terminate immediately.
    #[test]
    fn zero_trip_loops_terminate() {
        let p = kernel(
            "kernel z(a: array) {
                 let i = 10;
                 while i < 10 { a[i] = 1; i = i + 1; }
                 a[0] = 2;
             }",
        );
        let f = kernel_footprint(only(&p), Interval::exact(0), 1);
        let w = f.params[0].write.expect("unconditional store recorded");
        assert!(w.lo == 0, "a[0] must be in the hull");
    }

    /// Every thread's [`thread_block_rows`] row, one `Vec` a thread, over
    /// the kernel's `atomic` blocks.
    fn block_rows(k: &Kernel, threads: u32) -> Vec<Vec<ParamFootprint>> {
        let mut starts: Vec<u32> = kernel_footprint(k, Interval::TOP, threads)
            .atomics
            .iter()
            .map(|a| a.span.start)
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let mut rows = Vec::new();
        thread_block_rows(k, &starts, threads, |row| rows.push(row.to_vec()));
        rows
    }

    /// A kernel that never reads `tid()` is interpreted once, and every
    /// thread gets the rows a run per thread would have given it, with
    /// `nthreads()` and `rand()` in and around its blocks.
    #[test]
    fn tid_free_kernels_share_the_per_thread_rows() {
        let programs = [
            "kernel last(a: array) { atomic { a[nthreads() - 1] = a[0] + 1; } }",
            "kernel mixed(a: array, b: array[40]) {
                 let i = rand(nthreads());
                 atomic { a[i % 8] = b[rand(4)]; }
                 while i < 10 { atomic { b[i * 3] = a[nthreads() / 2]; } i = i + 1; }
                 if rand(2) { atomic { let x = a[i]; } }
             }",
            "kernel none(a: array) { a[rand(nthreads())] = 1; }",
        ];
        for src in programs {
            let p = kernel(src);
            let k = only(&p);
            assert!(!k.uses_tid, "{src}");
            let mut per_thread = k.clone();
            per_thread.uses_tid = true;
            for threads in [1, 2, 65, 256, 512] {
                let rows = block_rows(k, threads);
                assert_eq!(rows.len(), threads as usize);
                assert_eq!(rows, block_rows(&per_thread, threads), "{src} at {threads} threads");
            }
        }
    }

    /// `tid()` read only outside the `atomic` block still reaches its
    /// index through a local, so the kernel takes the per-thread path.
    #[test]
    fn tid_outside_atomic_blocks_keeps_rows_per_thread() {
        let p = kernel("kernel s(a: array) { let i = tid() % 4; atomic { a[i] = a[i] + 1; } }");
        let k = only(&p);
        assert!(k.uses_tid);
        for threads in [1, 2, 65, 256, 512] {
            let rows = block_rows(k, threads);
            assert_eq!(rows.len(), threads as usize);
            for (t, row) in rows.iter().enumerate() {
                let at = Some(Interval::exact(t as u32 % 4));
                assert_eq!(row, &[ParamFootprint { read: at, write: at }], "thread {t}");
            }
        }
    }

    /// Negative stride (descending induction): the hull must cover every
    /// index the countdown touches, including the final one.
    #[test]
    fn descending_loop_covers_all_indices() {
        let p = kernel(
            "kernel d(a: array) {
                 let i = 7;
                 while i > 0 { a[i] = 1; i = i - 1; }
                 a[i] = 2;
             }",
        );
        let f = kernel_footprint(only(&p), Interval::exact(0), 1);
        let w = f.params[0].write.expect("writes recorded");
        assert!(w.lo == 0 && w.hi >= 7, "countdown hull {w} must cover [0,7]");
    }
}
