//! Static contention & cost analysis over the TXL AST.
//!
//! Extends the [`crate::footprint`] interval analysis into per-transaction
//! **static profiles**: symbolic read/write-set size bounds (constant /
//! affine-in-loop-trip / unbounded), read-only classification, per-stripe
//! access densities, and a pairwise **conflict graph** with overlap
//! weights across every `atomic` block in a program — then ranks the
//! eight STM variants with a cost model calibrated once against the PR-3
//! telemetry `Breakdown` cycles-per-phase numbers (`BENCH_telemetry.json`;
//! see [`coeff`] for provenance).
//!
//! Soundness contract (checked by `tests/analyze_vs_dynamic.rs`): the
//! conflict graph is a *may* over-approximation — any two dynamically
//! conflicting transactions issued by distinct threads correspond to a
//! pair of blocks joined by an edge. Conversely nothing is promised about
//! precision, and the cost ranking is a heuristic validated empirically
//! (`bench analyze` asserts the recommendation lands within 15% of
//! the best measured variant).
//!
//! Arrays correspond across kernels **by parameter name**: two kernels
//! that both take `table: array` are assumed to be launched over the same
//! array. Callers that bind same-named parameters to disjoint arrays will
//! see spurious (but still sound-for-their-name-discipline) edges.

use crate::ast::{BinOp, Expr, Kernel, Program, Stmt};
use crate::error::TxlError;
use crate::footprint::{self, Interval, ParamFootprint};
use crate::token::Span;
use gpu_sim::rng::mix64;
use gpu_sim::JsonWriter;
use gpu_stm::Variant;
use std::collections::BTreeSet;
use std::fmt;

mod graph;

use graph::build_graph;
pub use graph::{ConflictEdge, ConflictGraph};

/// Threads at or below which per-thread (exact-`tid`) footprints are
/// computed for every block; above it the analysis falls back to the
/// symbolic hull (still sound, far less precise).
const MAX_EXACT_THREADS: u32 = 512;

/// Fixpoint rounds before widening, mirroring `footprint::WIDEN_AFTER`.
const WIDEN_AFTER: usize = 4;

/// Configuration for [`analyze_program`].
#[derive(Clone, Debug)]
pub struct CostConfig {
    /// Assumed concurrent thread count (the launch width the profile is
    /// computed for). Default 256 — the paper's Table 2 scale.
    pub threads: u32,
    /// Ownership-table capacity, reported alongside write-set bounds.
    pub write_set_capacity: Option<u32>,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig { threads: 256, write_set_capacity: None }
    }
}

/// A symbolic upper bound on a per-transaction operation count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SymBound {
    /// Exactly bounded by a constant (loop-free straight-line code).
    Const(u64),
    /// `base + per_trip · t` for a loop with at most `max_trip` trips.
    Affine {
        /// Loop-independent part.
        base: u64,
        /// Contribution per loop iteration.
        per_trip: u64,
        /// Static bound on the trip count.
        max_trip: u64,
    },
    /// No static bound (unrecognized induction, widened loop).
    Unbounded,
}

impl SymBound {
    /// The numeric upper bound, `None` when unbounded.
    pub fn upper(&self) -> Option<u64> {
        match *self {
            SymBound::Const(n) => Some(n),
            SymBound::Affine { base, per_trip, max_trip } => {
                Some(base.saturating_add(per_trip.saturating_mul(max_trip)))
            }
            SymBound::Unbounded => None,
        }
    }

    /// Upper bound clamped to `cap` (used by the cost model, where an
    /// unbounded transaction is priced at the cap).
    pub fn capped(&self, cap: u64) -> u64 {
        self.upper().unwrap_or(cap).min(cap)
    }

    fn add(self, o: SymBound) -> SymBound {
        use SymBound::*;
        match (self, o) {
            (Unbounded, _) | (_, Unbounded) => Unbounded,
            (Const(a), Const(b)) => Const(a.saturating_add(b)),
            (Const(a), Affine { base, per_trip, max_trip })
            | (Affine { base, per_trip, max_trip }, Const(a)) => {
                Affine { base: base.saturating_add(a), per_trip, max_trip }
            }
            (
                Affine { base: b1, per_trip: p1, max_trip: t1 },
                Affine { base: b2, per_trip: p2, max_trip: t2 },
            ) => Affine {
                base: b1.saturating_add(b2),
                per_trip: p1.saturating_add(p2),
                max_trip: t1.max(t2),
            },
        }
    }

    /// Join of two alternatives (`if` branches): the larger bound, with
    /// unboundedness dominating.
    fn max(self, o: SymBound) -> SymBound {
        match (self.upper(), o.upper()) {
            (None, _) | (_, None) => SymBound::Unbounded,
            (Some(a), Some(b)) => {
                if a >= b {
                    self
                } else {
                    o
                }
            }
        }
    }

    /// `self` per iteration, repeated `trip` times (`None` = unknown trip
    /// count). Zero per-iteration cost stays zero.
    fn scale(self, trip: Option<u64>) -> SymBound {
        if self.upper() == Some(0) {
            return SymBound::Const(0);
        }
        match (trip, self.upper()) {
            (Some(0), _) => SymBound::Const(0),
            (Some(t), Some(per)) => SymBound::Affine { base: 0, per_trip: per, max_trip: t },
            _ => SymBound::Unbounded,
        }
    }

    /// Tightens a count bound with an address-hull width: a write-set
    /// holds distinct addresses, so it can never exceed the hull.
    fn clamp_width(self, width: Option<u64>) -> SymBound {
        match width {
            Some(w) if self.upper().is_none_or(|u| w < u) => SymBound::Const(w),
            _ => self,
        }
    }
}

impl fmt::Display for SymBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SymBound::Const(n) => write!(f, "{n}"),
            SymBound::Affine { base, per_trip, .. } => {
                if base == 0 {
                    write!(f, "{per_trip}*t<={}", self.upper().unwrap())
                } else {
                    write!(f, "{base}+{per_trip}*t<={}", self.upper().unwrap())
                }
            }
            SymBound::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// One array parameter's use by a transaction.
#[derive(Clone, Debug)]
pub struct ArrayUse {
    /// Parameter name (the cross-kernel correlation key).
    pub name: String,
    /// Symbolic (all-threads) read/write hulls.
    pub footprint: ParamFootprint,
    /// Expected threads contending per stripe of the hull:
    /// `threads × per-thread width / hull width`. 1.0 means perfectly
    /// striped; `threads` means every thread hits every stripe.
    pub density: f64,
}

/// Static profile of one `atomic` block.
#[derive(Clone, Debug)]
pub struct TxProfile {
    /// Kernel the block is in.
    pub kernel: String,
    /// Ordinal of the block within its kernel (source order).
    pub index: usize,
    /// 1-based source line of the `atomic`.
    pub line: u32,
    /// Source span of the `atomic` statement.
    pub span: Span,
    /// Bound on transactional read *operations* per execution
    /// (validation work scales with this).
    pub read_ops: SymBound,
    /// Bound on the read-set size (distinct addresses read).
    pub reads: SymBound,
    /// Bound on the write-set size (distinct addresses written).
    pub writes: SymBound,
    /// Bound on how many times one thread executes the block.
    pub execs: SymBound,
    /// Whether the block provably never writes.
    pub read_only: bool,
    /// Per-array uses, in parameter order.
    pub arrays: Vec<ArrayUse>,
    /// Sum of incident conflict-edge rates (filled from the graph);
    /// the TL006 "statically hot" score.
    pub conflict_degree: f64,
}

/// One entry of the variant ranking.
#[derive(Clone, Debug)]
pub struct VariantScore {
    /// The variant.
    pub variant: Variant,
    /// Predicted total cycles for the whole program at the configured
    /// thread count (relative units — only the ordering is meaningful).
    pub predicted_cycles: f64,
}

/// The whole-program static profile `txl analyze` emits and `tm-serve`
/// consumes to seed per-shard configuration.
#[derive(Clone, Debug)]
pub struct StaticProfile {
    /// Thread count the profile was computed for.
    pub threads: u32,
    /// Per-block profiles, kernels in program order, blocks in source
    /// order. Indices are the conflict-graph node ids.
    pub tx: Vec<TxProfile>,
    /// The pairwise may-conflict graph.
    pub graph: ConflictGraph,
    /// All eight variants, best (fewest predicted cycles) first.
    pub ranking: Vec<VariantScore>,
    /// Recommended lock-table size (power of two).
    pub stripes: u32,
}

impl StaticProfile {
    /// The top-ranked variant.
    pub fn recommended(&self) -> Variant {
        self.ranking[0].variant
    }

    /// Looks up the profile of the `index`-th block of `kernel`.
    pub fn block(&self, kernel: &str, index: usize) -> Option<&TxProfile> {
        self.tx.iter().find(|t| t.kernel == kernel && t.index == index)
    }
}

// ---------------------------------------------------------------------------
// Calibrated cost-model coefficients.
// ---------------------------------------------------------------------------

/// Cost-model coefficients, in simulated cycles per thread.
///
/// Calibration provenance: fitted once against the committed
/// `bench analyze` measured sweep (`BENCH_analyze.json`: five
/// workloads × 8 variants at 256 threads, simulated cycles), with the
/// PR-3 telemetry `Breakdown` per-phase attribution in
/// `BENCH_telemetry.json` fixing the *shape* of each term — e.g. the
/// read-validation terms are quadratic in read-set size because the
/// telemetry shows LockStm revalidating the whole read log per read,
/// and VBV carries a `VBV_CLOCK × window` term because NOrec
/// serialises commits behind one global clock. The constants are
/// committed as data, not re-derived at runtime; `bench analyze`
/// gates the resulting ranking against fresh measurements (recommended
/// variant within 15% of the best measured throughput per workload).
pub mod coeff {
    /// Read-only fast-path transaction (no locks, no write-back) on
    /// LockStm-family and VBV variants.
    pub const RO_TX: f64 = 15.0;
    /// CGL per-transaction setup, ×threads (one lock serialises all).
    pub const CGL_TX: f64 = 1.35;
    /// CGL per-op cost, ×threads.
    pub const CGL_OP: f64 = 0.535;
    /// EGPGV per-transaction overhead (per-block blocking protocol).
    pub const EG_TX: f64 = 56.0;
    /// EGPGV per-access cost.
    pub const EG_OP: f64 = 50.0;
    /// EGPGV incremental read revalidation, ×r(r−1).
    pub const EG_RVAL: f64 = 10.0;
    /// EGPGV contention penalty, ×conflict degree (serialisation is
    /// per 32-thread block, so the penalty is a constant, not ×λ).
    pub const EG_CONT: f64 = 620.0;
    /// VBV global-clock serialisation, ×window of live transactions.
    pub const VBV_CLOCK: f64 = 23.0;
    /// VBV per-access cost.
    pub const VBV_OP: f64 = 50.0;
    /// VBV value-based revalidation, ×rset width.
    pub const VBV_RVAL: f64 = 10.0;
    /// VBV contention penalty, ×conflict degree.
    pub const VBV_CONT: f64 = 400.0;
    /// LockStm per-transaction setup, sorted-acquisition kinds.
    pub const LOCK_SORT_TX: f64 = 20.0;
    /// LockStm per-transaction setup, backoff kinds (spin baseline).
    pub const LOCK_BACK_TX: f64 = 100.0;
    /// LockStm per-access cost.
    pub const LOCK_OP: f64 = 10.0;
    /// Hierarchical validation, ×r(r−1) (incremental revalidation
    /// filtered by the hierarchy).
    pub const VAL_HV: f64 = 50.0;
    /// Timestamp validation, ×r(r−1) (full-table traffic per read).
    pub const VAL_TBV: f64 = 137.0;
    /// Extra per-read timestamp bookkeeping on TBV kinds, ×r.
    pub const TBV_READ: f64 = 5.0;
    /// Sorted-acquisition abort-retry penalty, ×retries×λ.
    pub const SORT_PEN: f64 = 55.0;
    /// Backoff-acquisition abort-retry penalty, ×retries×λ (backoff
    /// sheds contention instead of re-sorting, so it is cheaper).
    pub const BACK_PEN: f64 = 18.0;
    /// STM-Optimized adaptive-selection overhead per transaction.
    pub const OPT_TX: f64 = 8.0;
    /// Retry cap (mirrors the runtime's backoff escalation).
    pub const MAX_RETRIES: f64 = 8.0;
    /// Effective window of concurrently-live transactions.
    pub const WINDOW: u32 = 48;
    /// Unbounded op counts are priced at this many operations.
    pub const CAP_OPS: u64 = 256;
    /// Per-thread execution counts are priced up to this bound.
    pub const CAP_EXECS: u64 = 16;
}

// ---------------------------------------------------------------------------
// Interval evaluation + trip-count estimation (counting pass).
// ---------------------------------------------------------------------------

type Env = Vec<Interval>;

fn eval_iv(e: &Expr, env: &Env, tid: Interval, nthreads: u32) -> Interval {
    match e {
        Expr::Int(v) => Interval::exact(*v),
        Expr::Var { slot, .. } => env[*slot],
        Expr::Tid => tid,
        Expr::NThreads => Interval::exact(nthreads),
        Expr::Rand(n) => {
            let n = eval_iv(n, env, tid, nthreads);
            Interval { lo: 0, hi: n.hi.saturating_sub(1) }
        }
        Expr::Not(_) => Interval { lo: 0, hi: 1 },
        Expr::Bin { op, lhs, rhs } => {
            let a = eval_iv(lhs, env, tid, nthreads);
            let b = eval_iv(rhs, env, tid, nthreads);
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
        Expr::Index { .. } => Interval::TOP,
    }
}

/// Number of array reads one evaluation of `e` performs.
fn expr_read_count(e: &Expr) -> u64 {
    match e {
        Expr::Int(_) | Expr::Var { .. } | Expr::Tid | Expr::NThreads => 0,
        Expr::Rand(n) => expr_read_count(n),
        Expr::Not(i) => expr_read_count(i),
        Expr::Bin { lhs, rhs, .. } => expr_read_count(lhs) + expr_read_count(rhs),
        Expr::Index { index, .. } => 1 + expr_read_count(index),
    }
}

/// Collects every local slot assigned anywhere in `stmts` (including
/// nested blocks).
fn assigned_slots(stmts: &[Stmt], out: &mut BTreeSet<usize>) {
    for s in stmts {
        match s {
            Stmt::Let { slot, .. } | Stmt::Assign { slot, .. } => {
                out.insert(*slot);
            }
            Stmt::Store { .. } | Stmt::Retry { .. } => {}
            Stmt::If { then_blk, else_blk, .. } => {
                assigned_slots(then_blk, out);
                assigned_slots(else_blk, out);
            }
            Stmt::While { body, .. } => assigned_slots(body, out),
            Stmt::Atomic { body, .. } => assigned_slots(body, out),
        }
    }
}

/// Whether `e` is loop-stable: no `rand`, no array read, and no use of a
/// slot in `assigned`.
fn expr_stable(e: &Expr, assigned: &BTreeSet<usize>) -> bool {
    match e {
        Expr::Int(_) | Expr::Tid | Expr::NThreads => true,
        Expr::Var { slot, .. } => !assigned.contains(slot),
        Expr::Rand(_) | Expr::Index { .. } => false,
        Expr::Not(i) => expr_stable(i, assigned),
        Expr::Bin { lhs, rhs, .. } => expr_stable(lhs, assigned) && expr_stable(rhs, assigned),
    }
}

#[derive(Copy, Clone, PartialEq)]
enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Ne,
}

fn cmp_of(op: BinOp) -> Option<Cmp> {
    match op {
        BinOp::Lt => Some(Cmp::Lt),
        BinOp::Le => Some(Cmp::Le),
        BinOp::Gt => Some(Cmp::Gt),
        BinOp::Ge => Some(Cmp::Ge),
        BinOp::Ne => Some(Cmp::Ne),
        _ => None,
    }
}

fn mirror(c: Cmp) -> Cmp {
    match c {
        Cmp::Lt => Cmp::Gt,
        Cmp::Le => Cmp::Ge,
        Cmp::Gt => Cmp::Lt,
        Cmp::Ge => Cmp::Le,
        Cmp::Ne => Cmp::Ne,
    }
}

/// Upper bound on the trip count of `while cond { body }` entered with
/// locals in `env`, or `None` when no bound is provable.
///
/// Recognised shape: the condition compares an induction variable `i`
/// against a loop-stable bound, and the body updates `i` exactly once,
/// unconditionally, by a positive literal constant (`i = i ± c`).
fn trip_bound(cond: &Expr, body: &[Stmt], env: &Env, tid: Interval, nthreads: u32) -> Option<u64> {
    let mut assigned = BTreeSet::new();
    assigned_slots(body, &mut assigned);

    let (slot, cmp, bound_expr) = match cond {
        Expr::Var { slot, .. } => (*slot, Cmp::Ne, None),
        Expr::Bin { op, lhs, rhs } => {
            let cmp = cmp_of(*op)?;
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Var { slot, .. }, b) if expr_stable(b, &assigned) => (*slot, cmp, Some(b)),
                (b, Expr::Var { slot, .. }) if expr_stable(b, &assigned) => {
                    (*slot, mirror(cmp), Some(b))
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    let bound = match bound_expr {
        Some(b) => eval_iv(b, env, tid, nthreads),
        None => Interval::exact(0),
    };

    // Exactly one unconditional top-level update `i = i ± c`, and no
    // other assignment to `i` anywhere in the body.
    let mut updates = Vec::new();
    let mut other = 0usize;
    for s in body {
        match s {
            Stmt::Assign { slot: s2, value, .. } if *s2 == slot => updates.push(value),
            Stmt::Let { slot: s2, .. } if *s2 == slot => other += 1,
            Stmt::If { then_blk, else_blk, .. } => {
                let mut inner = BTreeSet::new();
                assigned_slots(then_blk, &mut inner);
                assigned_slots(else_blk, &mut inner);
                if inner.contains(&slot) {
                    other += 1;
                }
            }
            Stmt::While { body: b, .. } | Stmt::Atomic { body: b, .. } => {
                let mut inner = BTreeSet::new();
                assigned_slots(b, &mut inner);
                if inner.contains(&slot) {
                    other += 1;
                }
            }
            _ => {}
        }
    }
    if other > 0 || updates.len() != 1 {
        return None;
    }
    let is_var = |e: &Expr| matches!(e, Expr::Var { slot: s, .. } if *s == slot);
    let (step, increasing) = match updates[0] {
        Expr::Bin { op: BinOp::Add, lhs, rhs } if is_var(lhs) => match rhs.as_ref() {
            Expr::Int(c) if *c >= 1 => (*c as i64, true),
            _ => return None,
        },
        Expr::Bin { op: BinOp::Add, lhs, rhs } if is_var(rhs) => match lhs.as_ref() {
            Expr::Int(c) if *c >= 1 => (*c as i64, true),
            _ => return None,
        },
        Expr::Bin { op: BinOp::Sub, lhs, rhs } if is_var(lhs) => match rhs.as_ref() {
            Expr::Int(c) if *c >= 1 => (*c as i64, false),
            _ => return None,
        },
        _ => return None,
    };

    let entry = env[slot];
    let (ilo, ihi) = (entry.lo as i64, entry.hi as i64);
    let (blo, bhi) = (bound.lo as i64, bound.hi as i64);
    let ceil_div = |n: i64, d: i64| (n.max(0) + d - 1) / d;
    let trips = if increasing {
        match cmp {
            Cmp::Lt => ceil_div(bhi - ilo, step),
            Cmp::Le if bhi < u32::MAX as i64 => ceil_div(bhi + 1 - ilo, step),
            Cmp::Ne if step == 1 && blo >= ihi => bhi - ilo,
            _ => return None,
        }
    } else {
        match cmp {
            Cmp::Gt => ceil_div(ihi - blo, step),
            Cmp::Ge if blo > 0 => ceil_div(ihi - blo, step) + 1,
            Cmp::Ne if step == 1 && ilo >= bhi => ihi - blo,
            _ => return None,
        }
    };
    Some(trips.max(0) as u64)
}

// ---------------------------------------------------------------------------
// The counting abstract interpreter.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RawBlock {
    span: Span,
    read_ops: SymBound,
    stores: SymBound,
    execs: SymBound,
}

struct Counter<'k> {
    kernel: &'k Kernel,
    tid: Interval,
    nthreads: u32,
    blocks: Vec<RawBlock>,
    open: Option<usize>,
}

#[derive(Copy, Clone)]
struct Counts {
    reads: SymBound,
    stores: SymBound,
}

impl Counts {
    const ZERO: Counts = Counts { reads: SymBound::Const(0), stores: SymBound::Const(0) };

    fn add(self, o: Counts) -> Counts {
        Counts { reads: self.reads.add(o.reads), stores: self.stores.add(o.stores) }
    }

    fn max(self, o: Counts) -> Counts {
        Counts { reads: self.reads.max(o.reads), stores: self.stores.max(o.stores) }
    }

    fn scale(self, trip: Option<u64>) -> Counts {
        Counts { reads: self.reads.scale(trip), stores: self.stores.scale(trip) }
    }
}

impl<'k> Counter<'k> {
    fn eval(&self, e: &Expr, env: &Env) -> Interval {
        eval_iv(e, env, self.tid, self.nthreads)
    }

    /// Pure env transformer (no counting) — used to reach a loop
    /// invariant before the single counting pass over a loop body.
    fn flow_block(&self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            match s {
                Stmt::Let { slot, init, .. } | Stmt::Assign { slot, value: init, .. } => {
                    env[*slot] = self.eval(init, env);
                }
                Stmt::Store { .. } | Stmt::Retry { .. } => {}
                Stmt::If { then_blk, else_blk, .. } => {
                    let mut then_env = env.clone();
                    self.flow_block(then_blk, &mut then_env);
                    self.flow_block(else_blk, env);
                    for (slot, iv) in env.iter_mut().enumerate() {
                        *iv = iv.join(then_env[slot]);
                    }
                }
                Stmt::While { body, .. } => self.flow_while(body, env),
                Stmt::Atomic { body, .. } => self.flow_block(body, env),
            }
        }
    }

    fn flow_while(&self, body: &[Stmt], env: &mut Env) {
        for round in 0.. {
            let before = env.clone();
            self.flow_block(body, env);
            let mut changed = false;
            for (slot, iv) in env.iter_mut().enumerate() {
                let joined = iv.join(before[slot]);
                if joined != before[slot] {
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
    }

    /// Counting walk: returns the transactional read/store counts of
    /// `stmts` (meaningful when inside an atomic), creating block
    /// entries for any `atomic` statements encountered. Each syntactic
    /// statement is visited exactly once.
    fn count_block(&mut self, stmts: &[Stmt], env: &mut Env, mult: SymBound) -> Counts {
        let mut total = Counts::ZERO;
        for s in stmts {
            match s {
                Stmt::Let { slot, init, .. } | Stmt::Assign { slot, value: init, .. } => {
                    total.reads = total.reads.add(SymBound::Const(expr_read_count(init)));
                    env[*slot] = self.eval(init, env);
                }
                Stmt::Store { index, value, .. } => {
                    let r = expr_read_count(index) + expr_read_count(value);
                    total.reads = total.reads.add(SymBound::Const(r));
                    total.stores = total.stores.add(SymBound::Const(1));
                }
                Stmt::If { cond, then_blk, else_blk, .. } => {
                    total.reads = total.reads.add(SymBound::Const(expr_read_count(cond)));
                    let mut then_env = env.clone();
                    let then_c = self.count_block(then_blk, &mut then_env, mult);
                    let else_c = self.count_block(else_blk, env, mult);
                    total = total.add(then_c.max(else_c));
                    for (slot, iv) in env.iter_mut().enumerate() {
                        *iv = iv.join(then_env[slot]);
                    }
                }
                // `retry` performs no array accesses of its own; the
                // attempt's reads are already counted on the path that
                // reached it.
                Stmt::Retry { .. } => {}
                Stmt::While { cond, body, .. } => {
                    let trip = trip_bound(cond, body, env, self.tid, self.nthreads);
                    // Reach the loop invariant, then count the body once
                    // under it.
                    let mut inv = env.clone();
                    self.flow_while(body, &mut inv);
                    let mut body_env = inv.clone();
                    let inner_mult = mult.scale(trip).max(SymBound::Const(0));
                    let inner = self.count_block(body, &mut body_env, inner_mult);
                    let cond_reads =
                        SymBound::Const(expr_read_count(cond)).scale(trip.map(|t| t + 1));
                    total = total
                        .add(inner.scale(trip))
                        .add(Counts { reads: cond_reads, stores: SymBound::Const(0) });
                    *env = inv;
                }
                Stmt::Atomic { body, .. } => {
                    if self.open.is_some() {
                        // Nested atomics are rejected by `check`; fold in.
                        let inner = self.count_block(body, env, mult);
                        total = total.add(inner);
                    } else {
                        let idx = self.blocks.len();
                        self.blocks.push(RawBlock {
                            span: s.span(),
                            read_ops: SymBound::Const(0),
                            stores: SymBound::Const(0),
                            execs: mult,
                        });
                        self.open = Some(idx);
                        let inner = self.count_block(body, env, mult);
                        self.blocks[idx].read_ops = inner.reads;
                        self.blocks[idx].stores = inner.stores;
                        self.open = None;
                    }
                }
            }
        }
        total
    }
}

fn count_kernel(kernel: &Kernel, tid: Interval, nthreads: u32) -> Vec<RawBlock> {
    let mut c = Counter { kernel, tid, nthreads, blocks: Vec::new(), open: None };
    let mut env: Env = vec![Interval::exact(0); c.kernel.n_slots];
    c.count_block(&kernel.body, &mut env, SymBound::Const(1));
    c.blocks
}

// ---------------------------------------------------------------------------
// Footprint collection (the conflict graph is in `graph`).
// ---------------------------------------------------------------------------

/// Footprints of one syntactic block (the `footprint` pass emits one
/// entry per *abstract execution*, so looped blocks repeat — join them
/// back into one entry per span).
fn dedupe_atomics(
    atomics: Vec<footprint::AtomicFootprint>,
    nparams: usize,
) -> Vec<(Span, Vec<ParamFootprint>)> {
    let mut out: Vec<(Span, Vec<ParamFootprint>)> = Vec::new();
    for a in atomics {
        if let Some(entry) = out.iter_mut().find(|(s, _)| s.start == a.span.start) {
            for (i, fp) in a.params.iter().enumerate() {
                let dst = &mut entry.1[i];
                if let Some(r) = fp.read {
                    dst.read = Some(dst.read.map_or(r, |o| o.join(r)));
                }
                if let Some(w) = fp.write {
                    dst.write = Some(dst.write.map_or(w, |o| o.join(w)));
                }
            }
        } else {
            let mut params = a.params;
            params.resize(nparams, ParamFootprint::default());
            out.push((a.span, params));
        }
    }
    out.sort_by_key(|(s, _)| s.start);
    out
}

struct BlockData {
    kernel: String,
    index: usize,
    span: Span,
    param_names: Vec<String>,
    sym: Vec<ParamFootprint>,
    per_thread: Option<PerThread>,
    raw: RawBlock,
}

impl BlockData {
    fn named_sym(&self) -> impl Iterator<Item = (&str, &ParamFootprint)> {
        self.param_names.iter().map(|n| n.as_str()).zip(self.sym.iter())
    }
}

/// One block's exact footprints, one per kernel parameter a thread,
/// with threads of equal rows grouped: each distinct row once, in
/// first-seen order, the number of threads holding it, and each thread's
/// group. A block indexed by `tid() % k` keeps at most `k` rows however
/// many threads run it.
struct PerThread {
    nparams: usize,
    /// The distinct rows, `nparams` footprints each.
    fps: Vec<ParamFootprint>,
    /// Threads holding each distinct row.
    weight: Vec<u64>,
    /// Each thread's distinct row, in `tid` order.
    group: Vec<u32>,
}

/// An empty slot of a [`PerThread::push`] table.
const NO_GROUP: u32 = u32::MAX;

impl PerThread {
    fn new(threads: u32, nparams: usize) -> PerThread {
        let group = Vec::with_capacity(threads as usize);
        PerThread { nparams, fps: Vec::new(), weight: Vec::new(), group }
    }

    /// Number of distinct rows.
    fn groups(&self) -> usize {
        self.weight.len()
    }

    /// Whether every thread holds a row of its own.
    fn all_distinct(&self) -> bool {
        self.groups() == self.group.len()
    }

    fn row(&self, g: usize) -> &[ParamFootprint] {
        &self.fps[g * self.nparams..][..self.nparams]
    }

    /// Each distinct row, in first-seen order.
    fn rows(&self) -> impl Iterator<Item = &[ParamFootprint]> {
        (0..self.groups()).map(|g| self.row(g))
    }

    /// Appends the next thread's `row` to the group of an equal row, else
    /// to a new group. `slots`, at least twice as long as the threads and
    /// a power of two, is this block's open-addressing table of groups by
    /// [`row_hash`], [`NO_GROUP`] where empty. A row equal to the last
    /// thread's skips the table.
    fn push(&mut self, row: &[ParamFootprint], slots: &mut [u32]) {
        let g = match self.group.last() {
            Some(&g) if self.row(g as usize) == row => g,
            _ => {
                let mask = slots.len() - 1;
                let mut i = row_hash(row) as usize & mask;
                loop {
                    match slots[i] {
                        NO_GROUP => {
                            let g = self.groups() as u32;
                            slots[i] = g;
                            self.fps.extend_from_slice(row);
                            self.weight.push(0);
                            break g;
                        }
                        g if self.row(g as usize) == row => break g,
                        _ => i = (i + 1) & mask,
                    }
                }
            }
        };
        self.weight[g as usize] += 1;
        self.group.push(g);
    }
}

/// A row's [`PerThread::push`] table key: each footprint's two hulls as
/// `lo << 32 | hi` words (absent: all ones), folded by [`mix64`].
fn row_hash(row: &[ParamFootprint]) -> u64 {
    let word =
        |iv: Option<Interval>| iv.map_or(u64::MAX, |iv| u64::from(iv.lo) << 32 | u64::from(iv.hi));
    row.iter().fold(0, |h, fp| mix64(h ^ word(fp.read) ^ word(fp.write).rotate_left(1)))
}

fn collect_blocks(program: &Program, threads: u32) -> Vec<BlockData> {
    let exact = threads <= MAX_EXACT_THREADS;
    let sym_tid = if threads <= 1 { Interval::exact(0) } else { Interval::new(0, threads - 1) };
    let mut out = Vec::new();
    let mut slots = Vec::new();
    for kernel in program.kernels.iter() {
        let names: Vec<String> = kernel.params.iter().map(|p| p.name.clone()).collect();
        let nparams = names.len();
        let sym =
            dedupe_atomics(footprint::kernel_footprint(kernel, sym_tid, threads).atomics, nparams);
        let raw = count_kernel(kernel, sym_tid, threads);
        // Each thread's row of block footprints is split into every
        // block's grouped table; a kernel without blocks needs no
        // per-thread run.
        let mut per_thread: Vec<PerThread> = Vec::new();
        if exact && !sym.is_empty() {
            per_thread.resize_with(sym.len(), || PerThread::new(threads, nparams));
            let starts: Vec<u32> = sym.iter().map(|(span, _)| span.start).collect();
            let table = (2 * threads as usize).next_power_of_two();
            slots.clear();
            slots.resize(sym.len() * table, NO_GROUP);
            footprint::thread_block_rows(kernel, &starts, threads, |row| {
                for ((b, pt), slots) in
                    per_thread.iter_mut().enumerate().zip(slots.chunks_exact_mut(table))
                {
                    pt.push(&row[b * nparams..][..nparams], slots);
                }
            });
        }
        let mut per_thread = per_thread.into_iter();
        for (bi, (span, fps)) in sym.iter().enumerate() {
            let raw_block =
                raw.iter().find(|r| r.span.start == span.start).cloned().unwrap_or(RawBlock {
                    span: *span,
                    read_ops: SymBound::Unbounded,
                    stores: SymBound::Unbounded,
                    execs: SymBound::Unbounded,
                });
            out.push(BlockData {
                kernel: kernel.name.clone(),
                index: bi,
                span: *span,
                param_names: names.clone(),
                sym: fps.clone(),
                per_thread: per_thread.next(),
                raw: raw_block,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The cost model.
// ---------------------------------------------------------------------------

struct ModelInput {
    r_ops: f64,
    rset: f64,
    wset: f64,
    execs: f64,
    degree: f64,
}

fn per_tx_cycles(kind: Variant, m: &ModelInput, threads: u32) -> f64 {
    use coeff::*;
    let conc = (threads.min(WINDOW)) as f64;
    // Expected number of live conflicting peers for one attempt.
    let lam = m.degree * (conc - 1.0).max(0.0);
    let retries = lam.min(MAX_RETRIES);
    let (r, w, rset) = (m.r_ops, m.wset, m.rset);
    let ops = r + w;
    let rval = r * (r - 1.0).max(0.0);
    match kind {
        // One global lock: every thread's transaction serialises behind
        // all the others, so per-tx cost scales with the thread count.
        Variant::Cgl => (CGL_TX + CGL_OP * ops) * threads as f64,
        // Per-block blocking protocol: contention serialises whole
        // 32-thread blocks once, it does not retry per peer.
        Variant::Egpgv => EG_TX + EG_OP * ops + EG_RVAL * rval + EG_CONT * m.degree,
        Variant::Vbv => {
            if w <= 0.0 {
                RO_TX
            } else {
                // NOrec: commits serialise behind one global clock, and
                // every clock bump revalidates the whole read set.
                VBV_CLOCK * conc + VBV_OP * ops + VBV_RVAL * rset + VBV_CONT * m.degree
            }
        }
        Variant::Optimized => {
            let hv = per_tx_cycles(Variant::HvSorting, m, threads);
            let tbv = per_tx_cycles(Variant::TbvSorting, m, threads);
            hv.min(tbv) + OPT_TX
        }
        Variant::HvSorting | Variant::HvBackoff | Variant::TbvSorting | Variant::TbvBackoff => {
            let tbv = matches!(kind, Variant::TbvSorting | Variant::TbvBackoff);
            if w <= 0.0 {
                // Read-only fast path: validate, never lock.
                return RO_TX + if tbv { TBV_READ * r } else { 0.0 };
            }
            let backoff = matches!(kind, Variant::HvBackoff | Variant::TbvBackoff);
            let base = if backoff { LOCK_BACK_TX } else { LOCK_SORT_TX } + LOCK_OP * ops;
            // Incremental revalidation: the k-th read revalidates the
            // k−1 before it, hence the r(r−1) shape.
            let val = if tbv { VAL_TBV * rval + TBV_READ * r } else { VAL_HV * rval };
            // Each retry re-pays the conflict window.
            let pen = retries * lam * if backoff { BACK_PEN } else { SORT_PEN };
            base + val + pen
        }
    }
}

fn rank_variants(inputs: &[ModelInput], threads: u32) -> Vec<VariantScore> {
    let mut scores: Vec<VariantScore> = Variant::ALL
        .into_iter()
        .map(|kind| {
            // Folded from `0.0`: a program without blocks would sum to `-0.0`.
            let total = inputs
                .iter()
                .map(|m| m.execs * threads as f64 * per_tx_cycles(kind, m, threads))
                .fold(0.0, |sum, c| sum + c);
            VariantScore { variant: kind, predicted_cycles: total }
        })
        .collect();
    scores.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
    scores
}

fn recommend_stripes(blocks: &[BlockData]) -> u32 {
    // Span of distinct arrays (hulls joined by name across blocks).
    let mut names: Vec<(&str, Interval)> = Vec::new();
    let mut w_max = 1u64;
    for b in blocks {
        for (name, fp) in b.named_sym() {
            if let Some(t) = fp.touched() {
                match names.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, iv)) => *iv = iv.join(t),
                    None => names.push((name, t)),
                }
            }
        }
        w_max = w_max.max(b.raw.stores.capped(64));
    }
    let span: u64 = names.iter().map(|(_, iv)| iv.width().min(1 << 23)).sum();
    // Cover an eighth of the data span (the paper's 8M words : 1M locks
    // ratio) but never so few stripes that two w_max-write transactions
    // alias with probability above ~1/16.
    let want = (span / 8).max(16 * w_max * w_max).clamp(64, 1 << 20);
    (want as u32).next_power_of_two()
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Analyzes a checked program into a [`StaticProfile`].
pub fn analyze_program(program: &Program, cfg: &CostConfig) -> StaticProfile {
    let threads = cfg.threads.max(1);
    let blocks = collect_blocks(program, threads);
    let graph = build_graph(&blocks, threads);
    let stripes = recommend_stripes(&blocks);

    let mut tx = Vec::with_capacity(blocks.len());
    let mut inputs = Vec::with_capacity(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        // Per-transaction hull widths: exact per-thread widths when
        // available (max over the distinct rows), else the symbolic hull.
        let width_of = |sel: fn(&ParamFootprint) -> Option<Interval>| -> Option<u64> {
            let sum = |fps: &[ParamFootprint]| -> u64 {
                fps.iter().filter_map(sel).map(|iv| iv.width()).sum()
            };
            match &b.per_thread {
                Some(pt) => pt.rows().map(sum).max(),
                None => Some(sum(&b.sym)),
            }
        };
        let writes = b.raw.stores.clamp_width(width_of(|f| f.write));
        let reads = b.raw.read_ops.clamp_width(width_of(|f| f.read));
        let read_only = b.raw.stores.upper() == Some(0);
        let degree = graph.weighted_degree(i);
        let arrays = b
            .named_sym()
            .enumerate()
            .filter(|(_, (_, fp))| fp.touched().is_some())
            .map(|(p, (name, fp))| {
                let hull_w = fp.touched().map(|iv| iv.width()).unwrap_or(1).max(1);
                let thread_w = match &b.per_thread {
                    Some(pt) => pt
                        .rows()
                        .filter_map(|fps| fps[p].touched())
                        .map(|iv| iv.width())
                        .max()
                        .unwrap_or(0),
                    None => hull_w,
                };
                ArrayUse {
                    name: name.to_string(),
                    footprint: *fp,
                    density: threads as f64 * thread_w as f64 / hull_w as f64,
                }
            })
            .collect();
        inputs.push(ModelInput {
            r_ops: b.raw.read_ops.capped(coeff::CAP_OPS) as f64,
            rset: reads.capped(coeff::CAP_OPS) as f64,
            wset: writes.capped(coeff::CAP_OPS) as f64,
            execs: b.raw.execs.capped(coeff::CAP_EXECS) as f64,
            degree,
        });
        tx.push(TxProfile {
            kernel: b.kernel.clone(),
            index: b.index,
            line: b.span.line,
            span: b.span,
            read_ops: b.raw.read_ops,
            reads,
            writes,
            execs: b.raw.execs,
            read_only,
            arrays,
            conflict_degree: degree,
        });
    }
    let ranking = rank_variants(&inputs, threads);
    StaticProfile { threads, tx, graph, ranking, stripes }
}

/// Compiles `src` and analyzes it: the `txl analyze` front door.
///
/// # Errors
///
/// Any [`TxlError`] from lexing, parsing or semantic checking.
pub fn analyze_source(src: &str, cfg: &CostConfig) -> Result<StaticProfile, TxlError> {
    let program = crate::compile(src)?;
    Ok(analyze_program(&program, cfg))
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// Deterministic text rendering (the CLI default and the bench golden).
pub fn render_text(profile: &StaticProfile) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "threads={} stripes={} recommended={}",
        profile.threads,
        profile.stripes,
        profile.recommended().short_name()
    );
    for (i, t) in profile.tx.iter().enumerate() {
        let _ = writeln!(
            s,
            "tx#{i} {}#{} line={} reads<={} writes<={} read_ops<={} execs<={} read_only={} degree={:.3}",
            t.kernel,
            t.index,
            t.line,
            t.reads,
            t.writes,
            t.read_ops,
            t.execs,
            if t.read_only { "yes" } else { "no" },
            t.conflict_degree,
        );
        for a in &t.arrays {
            let hull = a.footprint.touched().map(|iv| iv.to_string()).unwrap_or_default();
            let _ = writeln!(s, "  array {} hull={} density={:.2}", a.name, hull, a.density);
        }
    }
    let _ = writeln!(s, "graph nodes={} edges={}", profile.graph.nodes, profile.graph.edges.len());
    for e in &profile.graph.edges {
        let _ = writeln!(
            s,
            "  edge {}<->{} rate={:.3} overlap={} arrays={}",
            e.a,
            e.b,
            e.rate,
            e.overlap,
            e.arrays.join(",")
        );
    }
    let ranking: Vec<String> = profile
        .ranking
        .iter()
        .map(|v| format!("{}={:.0}", v.variant.short_name(), v.predicted_cycles))
        .collect();
    let _ = writeln!(s, "ranking {}", ranking.join(" "));
    s
}

fn bound_json(w: &mut JsonWriter, key: &str, b: SymBound) {
    w.key(key);
    w.begin_object();
    match b {
        SymBound::Const(n) => {
            w.field_str("kind", "const");
            w.field_u64("upper", n);
        }
        SymBound::Affine { base, per_trip, max_trip } => {
            w.field_str("kind", "affine");
            w.field_u64("base", base);
            w.field_u64("per_trip", per_trip);
            w.field_u64("max_trip", max_trip);
            w.field_u64("upper", b.upper().unwrap());
        }
        SymBound::Unbounded => {
            w.field_str("kind", "unbounded");
        }
    }
    w.end_object();
}

/// Serializes a profile into an open [`JsonWriter`] object (stable field
/// order; shared by the CLI `--format json` and `bench analyze`).
pub fn write_profile_json(w: &mut JsonWriter, profile: &StaticProfile) {
    w.field_u64("threads", profile.threads as u64);
    w.field_u64("stripes", profile.stripes as u64);
    w.field_str("recommended", profile.recommended().short_name());
    w.key("tx");
    w.begin_array();
    for t in &profile.tx {
        w.begin_object();
        w.field_str("kernel", &t.kernel);
        w.field_u64("index", t.index as u64);
        w.field_u64("line", t.line as u64);
        bound_json(w, "read_ops", t.read_ops);
        bound_json(w, "reads", t.reads);
        bound_json(w, "writes", t.writes);
        bound_json(w, "execs", t.execs);
        w.field_bool("read_only", t.read_only);
        w.field_f64("conflict_degree", t.conflict_degree);
        w.key("arrays");
        w.begin_array();
        for a in &t.arrays {
            w.begin_object();
            w.field_str("name", &a.name);
            if let Some(iv) = a.footprint.touched() {
                w.field_u64("lo", iv.lo as u64);
                w.field_u64("hi", iv.hi as u64);
            }
            w.field_f64("density", a.density);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("graph");
    w.begin_array();
    for e in &profile.graph.edges {
        w.begin_object();
        w.field_u64("a", e.a as u64);
        w.field_u64("b", e.b as u64);
        w.field_f64("rate", e.rate);
        w.field_u64("overlap", e.overlap);
        w.field_str("arrays", &e.arrays.join(","));
        w.end_object();
    }
    w.end_array();
    w.key("ranking");
    w.begin_array();
    for v in &profile.ranking {
        w.begin_object();
        w.field_str("variant", v.variant.short_name());
        w.field_f64("predicted_cycles", v.predicted_cycles);
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str, threads: u32) -> StaticProfile {
        analyze_source(src, &CostConfig { threads, write_set_capacity: None }).expect("compiles")
    }

    #[test]
    fn hot_counter_is_maximally_contended() {
        let p = analyze(
            "kernel hot(c: array) {
                 atomic { c[0] = c[0] + 1; }
             }",
            64,
        );
        assert_eq!(p.tx.len(), 1);
        assert_eq!(p.tx[0].writes, SymBound::Const(1));
        assert!(!p.tx[0].read_only);
        assert!(p.graph.has_edge(0, 0));
        assert!((p.tx[0].conflict_degree - 1.0).abs() < 1e-9, "every thread pair collides");
        assert_eq!(p.stripes, 64);
    }

    #[test]
    fn striped_blocks_have_no_edges() {
        let p = analyze(
            "kernel striped(a: array) {
                 let base = tid() * 4;
                 atomic {
                     a[base] = a[base] + 1;
                     a[base + 3] = a[base + 3] + 1;
                 }
             }",
            64,
        );
        assert_eq!(p.tx.len(), 1);
        assert!(p.graph.edges.is_empty(), "per-thread footprints are disjoint");
        assert_eq!(p.tx[0].conflict_degree, 0.0);
        // Write-set: 2 stores, and the per-thread hull width (4) does
        // not tighten below the count.
        assert_eq!(p.tx[0].writes.upper(), Some(2));
    }

    #[test]
    fn loop_bound_is_affine() {
        let p = analyze(
            "kernel scan(a: array) {
                 atomic {
                     let i = 0;
                     while i < 8 {
                         a[i] = a[i] + 1;
                         i = i + 1;
                     }
                 }
             }",
            8,
        );
        let t = &p.tx[0];
        assert!(matches!(t.writes, SymBound::Affine { .. } | SymBound::Const(_)), "{:?}", t.writes);
        assert_eq!(t.writes.upper(), Some(8));
        assert!(t.read_ops.upper().unwrap() >= 8);
    }

    #[test]
    fn countdown_loop_is_bounded() {
        let p = analyze(
            "kernel down(a: array) {
                 atomic {
                     let i = 6;
                     while i > 0 {
                         a[i] = 1;
                         i = i - 1;
                     }
                 }
             }",
            4,
        );
        assert_eq!(p.tx[0].writes.upper(), Some(6));
    }

    #[test]
    fn data_dependent_loop_is_unbounded_but_width_clamped() {
        let p = analyze(
            "kernel chase(a: array[16]) {
                 atomic {
                     let i = a[0];
                     while i {
                         a[i % 16] = 1;
                         i = a[i % 16];
                     }
                 }
             }",
            4,
        );
        // The trip count is data-dependent (unbounded), but the write
        // hull is clamped by the declared length, so the write-*set*
        // bound stays finite.
        assert!(p.tx[0].writes.upper().is_some_and(|u| u <= 16));
        assert_eq!(p.tx[0].read_ops, SymBound::Unbounded);
    }

    #[test]
    fn read_only_block_is_classified() {
        let p = analyze(
            "kernel audit(a: array, out: array) {
                 let s = 0;
                 atomic { s = a[0] + a[1]; }
                 out[tid()] = s;
             }",
            16,
        );
        assert_eq!(p.tx.len(), 1);
        assert!(p.tx[0].read_only);
        assert_eq!(p.tx[0].writes, SymBound::Const(0));
        assert_eq!(p.tx[0].read_ops, SymBound::Const(2));
    }

    #[test]
    fn cross_kernel_edges_match_by_name() {
        let p = analyze(
            "kernel writer(table: array) {
                 atomic { table[tid() % 4] = 1; }
             }
             kernel reader(table: array, other: array) {
                 let x = 0;
                 atomic { x = table[tid() % 4]; }
                 other[tid()] = x;
             }",
            8,
        );
        assert_eq!(p.tx.len(), 2);
        assert!(p.graph.has_edge(0, 1), "same-named `table` must correlate across kernels");
        assert!(p.tx[1].read_only);
    }

    #[test]
    fn atomic_inside_loop_multiplies_execs() {
        let p = analyze(
            "kernel reps(a: array) {
                 let k = 0;
                 while k < 5 {
                     atomic { a[0] = a[0] + 1; }
                     k = k + 1;
                 }
             }",
            4,
        );
        assert_eq!(p.tx[0].execs.upper(), Some(5));
    }

    #[test]
    fn ranking_is_total_and_deterministic() {
        let src = "kernel hot(c: array) { atomic { c[0] = c[0] + 1; } }";
        let a = analyze(src, 256);
        let b = analyze(src, 256);
        assert_eq!(a.ranking.len(), Variant::ALL.len());
        let names: Vec<&str> = a.ranking.iter().map(|v| v.variant.short_name()).collect();
        let names2: Vec<&str> = b.ranking.iter().map(|v| v.variant.short_name()).collect();
        assert_eq!(names, names2);
        // A maximally-hot single counter should not recommend VBV (whole
        // read-set revalidation per peer commit is its worst case).
        assert_ne!(a.recommended(), Variant::Vbv);
    }

    #[test]
    fn ranking_lists_each_variant_once_with_ties_in_all_order() {
        // Read-only: HV and TBV each cost the same under sorting and
        // backoff (no locks are taken), so the ranking has two ties.
        let p = analyze("kernel ro(c: array) { atomic { let x = c[tid()]; } }", 64);
        let ranked: Vec<Variant> = p.ranking.iter().map(|v| v.variant).collect();
        for v in Variant::ALL {
            assert_eq!(ranked.iter().filter(|&&r| r == v).count(), 1, "{v}");
        }
        let pos = |v| ranked.iter().position(|&r| r == v).unwrap();
        for (a, b) in
            [(Variant::HvSorting, Variant::HvBackoff), (Variant::TbvSorting, Variant::TbvBackoff)]
        {
            let cost = |v| p.ranking[pos(v)].predicted_cycles;
            assert_eq!(cost(a), cost(b), "{a} and {b} tie on a read-only program");
            assert!(pos(a) < pos(b), "ties break in Variant::ALL order");
        }
    }

    #[test]
    fn sym_bound_algebra() {
        let c2 = SymBound::Const(2);
        let aff = SymBound::Affine { base: 1, per_trip: 3, max_trip: 4 };
        assert_eq!(aff.upper(), Some(13));
        assert_eq!(c2.add(aff).upper(), Some(15));
        assert_eq!(c2.max(aff).upper(), Some(13));
        assert_eq!(SymBound::Unbounded.add(c2), SymBound::Unbounded);
        assert_eq!(c2.scale(Some(3)).upper(), Some(6));
        assert_eq!(c2.scale(None), SymBound::Unbounded);
        assert_eq!(SymBound::Const(0).scale(None), SymBound::Const(0));
        assert_eq!(SymBound::Unbounded.clamp_width(Some(7)), SymBound::Const(7));
        assert_eq!(c2.clamp_width(Some(7)), c2);
        assert_eq!(format!("{}", aff), "1+3*t<=13");
        assert_eq!(format!("{}", SymBound::Unbounded), "unbounded");
    }

    #[test]
    fn render_text_is_stable() {
        let src = "kernel hot(c: array) { atomic { c[0] = c[0] + 1; } }";
        let p = analyze(src, 64);
        let a = render_text(&p);
        let b = render_text(&p);
        assert_eq!(a, b);
        assert!(a.contains("recommended="));
        assert!(a.contains("tx#0 hot#0"));
        let mut w = JsonWriter::new();
        w.begin_object();
        write_profile_json(&mut w, &p);
        w.end_object();
        let json = w.finish();
        assert!(json.contains("\"recommended\""));
    }
}
