//! tm-lint: static race/deadlock analysis for TXL kernels.
//!
//! The GPU-STM paper motivates its design with a catalogue of hazards that
//! manual synchronisation on SIMT hardware invites: weakly-isolated
//! non-transactional accesses racing with transactions (Section 3.2.1),
//! lock acquisitions that deadlock a lock-stepped warp unless globally
//! sorted (Sections 2.2, 3.1), and transactions whose footprint outgrows
//! the fixed ownership table. This pass walks the checked AST and reports
//! each hazard as a span-carrying [`Diagnostic`] so the error points at
//! real source bytes.
//!
//! Rules (stable IDs, used by golden files and fixtures):
//!
//! | ID    | Rule | Hazard |
//! |-------|------|--------|
//! | TL001 | [`Rule::NonAtomicSharedAccess`] | weak-isolation race |
//! | TL002 | [`Rule::UnsortedLockAcquisition`] | SIMT deadlock precondition |
//! | TL003 | [`Rule::UnboundedWriteSet`] | ownership-table overflow |
//! | TL004 | [`Rule::DivergentAtomic`] | transaction under divergent mask |
//! | TL005 | [`Rule::ConflictingFootprintOrder`] | overlapping footprints, inverted order |
//! | TL008 | [`Rule::UnwakeableRetry`] | `retry` with an empty read set |
//!
//! The static verdicts are cross-checked against the simulator's dynamic
//! happens-before race detector (`gpu_sim::race`) by the fixture and
//! property tests: every executed weak-isolation race must be statically
//! flagged.

use crate::ast::{Expr, Kernel, Program, Stmt};
use crate::error::TxlError;
use crate::token::Span;
use std::collections::BTreeSet;
use std::fmt;

/// A lint rule. Each rule has a stable ID (`TLnnn`), a short title, and
/// the paper section that motivates it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// TL001: an array is accessed both inside an `atomic` block and
    /// outside any `atomic` block in the same kernel. Under weak isolation
    /// the non-transactional access is invisible to the STM's conflict
    /// detection and races with committed transactional state.
    NonAtomicSharedAccess,
    /// TL002: two consecutive spin-wait lock acquisitions whose lock
    /// indices are not provably sorted. On SIMT hardware, unsorted
    /// multi-lock acquisition is the livelock/deadlock precondition the
    /// paper's encounter-time lock sorting exists to eliminate.
    UnsortedLockAcquisition,
    /// TL003: a transaction whose static write-set bound is unbounded (a
    /// loop containing stores) or exceeds the configured ownership-table
    /// capacity, so commit-time lock acquisition can thrash or overflow.
    UnboundedWriteSet,
    /// TL004: an `atomic` block nested under a branch whose condition
    /// depends on `tid()` or `rand()`. The transaction then executes under
    /// a divergent mask, serialising retries and inviting intra-warp
    /// conflict livelock.
    DivergentAtomic,
    /// TL005: two `atomic` blocks whose abstract footprints
    /// ([`crate::footprint`]) overlap on two or more arrays, but which
    /// first touch those arrays in different orders. Encounter-time lock
    /// acquisition then takes the overlapping stripes in inverted order —
    /// the lock-order-inversion shape that deadlocks a lock-stepped warp
    /// unless the STM sorts its lock-log.
    ConflictingFootprintOrder,
    /// TL006: a statically-hot stripe — the block's weighted degree in
    /// the [`crate::cost`] conflict graph (sum of incident may-conflict
    /// rates over thread pairs) is at or above the configured threshold,
    /// so most concurrent executions contend for the same stripes and
    /// abort-retry cycles dominate. Off unless
    /// [`LintConfig::hot_degree`] is set.
    StaticallyHotStripe,
    /// TL007: a provably read-only transaction running on the ordinary
    /// write path — it still pays per-access write-set buffering and
    /// commit machinery for a write-set that is statically empty, and
    /// should be routed to a read-only fast path. Off unless
    /// [`LintConfig::flag_read_only`] is set.
    ReadOnlyWriteCost,
    /// TL008: a `retry` reachable without any transactional array read
    /// before it, so its read set — the wake condition's watch set — is
    /// statically empty. Nothing another commit writes can change the
    /// lane's decision: under parking it is unwakeable (the wake policy
    /// falls back to abort-respin) and under abort-respin it
    /// spins until the watchdog fires.
    UnwakeableRetry,
}

impl Rule {
    /// Stable diagnostic ID, e.g. `"TL001"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NonAtomicSharedAccess => "TL001",
            Rule::UnsortedLockAcquisition => "TL002",
            Rule::UnboundedWriteSet => "TL003",
            Rule::DivergentAtomic => "TL004",
            Rule::ConflictingFootprintOrder => "TL005",
            Rule::StaticallyHotStripe => "TL006",
            Rule::ReadOnlyWriteCost => "TL007",
            Rule::UnwakeableRetry => "TL008",
        }
    }

    /// Short human-readable title.
    pub fn title(self) -> &'static str {
        match self {
            Rule::NonAtomicSharedAccess => "non-atomic access to transactionally shared array",
            Rule::UnsortedLockAcquisition => "lock acquisition order not provably sorted",
            Rule::UnboundedWriteSet => "transaction write-set not bounded by table capacity",
            Rule::DivergentAtomic => "atomic block under divergent control flow",
            Rule::ConflictingFootprintOrder => {
                "overlapping transactional footprints acquired in different orders"
            }
            Rule::StaticallyHotStripe => {
                "statically-hot stripe: conflict-graph degree above threshold"
            }
            Rule::ReadOnlyWriteCost => "read-only transaction paying write-set cost",
            Rule::UnwakeableRetry => "retry with a statically empty read set (unwakeable)",
        }
    }

    /// The GPU-STM paper section that motivates the rule.
    pub fn paper_ref(self) -> &'static str {
        match self {
            Rule::NonAtomicSharedAccess => "Section 3.2.1 (weak isolation)",
            Rule::UnsortedLockAcquisition => "Sections 2.2, 3.1 (SIMT deadlock, lock sorting)",
            Rule::UnboundedWriteSet => "Section 3.1 (ownership table)",
            Rule::DivergentAtomic => "Section 2.2 (SIMT divergence)",
            Rule::ConflictingFootprintOrder => "Sections 2.2, 3.1 (lock-order inversion)",
            Rule::StaticallyHotStripe => "Sections 2.2, 4.2 (conflicts cap concurrency)",
            Rule::ReadOnlyWriteCost => "Section 3.1 (lazy versioning write-sets)",
            Rule::UnwakeableRetry => "Section 3.2.2 (validated read sets as watch sets)",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// All rules, in ID order.
pub const RULES: [Rule; 8] = [
    Rule::NonAtomicSharedAccess,
    Rule::UnsortedLockAcquisition,
    Rule::UnboundedWriteSet,
    Rule::DivergentAtomic,
    Rule::ConflictingFootprintOrder,
    Rule::StaticallyHotStripe,
    Rule::ReadOnlyWriteCost,
    Rule::UnwakeableRetry,
];

/// Configuration for the lint pass.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Ownership-table capacity (the STM's lock-table size). When set,
    /// TL003 additionally flags transactions whose finite write-set bound
    /// exceeds it; unbounded write-sets are always flagged.
    pub write_set_capacity: Option<u32>,
    /// TL006 threshold on a block's weighted conflict-graph degree
    /// ([`crate::cost::ConflictGraph::weighted_degree`]). `None`
    /// disables TL006 (the default — contention is a performance
    /// concern, not a correctness bug, so it is opt-in; `txl analyze`
    /// turns it on).
    pub hot_degree: Option<f64>,
    /// Enables TL007 (read-only transaction on the write path). Off by
    /// default for the same reason; `txl analyze` turns it on.
    pub flag_read_only: bool,
}

/// One lint finding, anchored to source bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Kernel the finding is in.
    pub kernel: String,
    /// 1-based source line of the finding.
    pub line: u32,
    /// Source bytes of the offending construct.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
    /// The repair [`crate::fix`] proposes for this finding, when one is
    /// known. Populated by [`lint_source_with_fixes`]; plain
    /// [`lint_program`]/[`lint_source`] leave it `None`.
    pub suggested_fix: Option<crate::patch::Patch>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}:{} {}] {}",
            self.rule.id(),
            self.kernel,
            self.line,
            self.span,
            self.message
        )
    }
}

/// Lints a checked program (slots resolved by
/// [`crate::check::check_program`]); see [`crate::compile`].
///
/// Diagnostics are sorted by kernel order, then source position, then
/// rule ID, so output is deterministic and golden-file friendly.
///
/// TL006/TL007 judge `profile`, the program's static profile, when the
/// caller already has one (`txl analyze` hands over the profile it
/// prints); with `None` and either rule on, the profile is computed here
/// at the default [`crate::cost::CostConfig`] thread count.
pub fn lint_program(
    program: &Program,
    cfg: &LintConfig,
    profile: Option<&crate::cost::StaticProfile>,
) -> Vec<Diagnostic> {
    // TL006/TL007 need the whole-program cost profile (the conflict
    // graph spans kernels); without the caller's, compute it once when
    // either rule is on.
    let contention = cfg.hot_degree.is_some() || cfg.flag_read_only;
    let computed;
    let profile = match profile {
        _ if !contention => None,
        Some(p) => Some(p),
        None => {
            computed = crate::cost::analyze_program(
                program,
                &crate::cost::CostConfig {
                    write_set_capacity: cfg.write_set_capacity,
                    ..crate::cost::CostConfig::default()
                },
            );
            Some(&computed)
        }
    };
    let mut out = Vec::new();
    for (ki, kernel) in program.kernels.iter().enumerate() {
        let mut diags = Vec::new();
        non_atomic_shared(kernel, &mut diags);
        unsorted_locks(kernel, &mut diags);
        unbounded_write_set(kernel, cfg, &mut diags);
        divergent_atomic(kernel, &mut diags);
        conflicting_footprint_order(kernel, &mut diags);
        unwakeable_retry(kernel, &mut diags);
        if let Some(profile) = profile {
            contention_rules(kernel, profile, cfg, &mut diags);
        }
        diags.sort_by_key(|d| (d.span.start, d.rule));
        out.extend(diags.into_iter().map(|d| (ki, d)));
    }
    out.into_iter().map(|(_, d)| d).collect()
}

/// TL006 + TL007, driven by the [`crate::cost`] static profile.
fn contention_rules(
    kernel: &Kernel,
    profile: &crate::cost::StaticProfile,
    cfg: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    for tx in profile.tx.iter().filter(|t| t.kernel == kernel.name) {
        if let Some(threshold) = cfg.hot_degree {
            if tx.conflict_degree >= threshold {
                let hot: Vec<&str> =
                    tx.arrays.iter().filter(|a| a.density > 1.0).map(|a| a.name.as_str()).collect();
                let arrays = if hot.is_empty() { "its arrays".to_string() } else { hot.join(", ") };
                out.push(diag(
                    kernel,
                    Rule::StaticallyHotStripe,
                    tx.span,
                    format!(
                        "atomic block contends on statically-hot stripes of {arrays}: weighted \
                         conflict degree {:.2} >= {threshold:.2} across {} thread(s); expect \
                         abort-retry serialization",
                        tx.conflict_degree, profile.threads
                    ),
                ));
            }
        }
        if cfg.flag_read_only && tx.read_only {
            out.push(diag(
                kernel,
                Rule::ReadOnlyWriteCost,
                tx.span,
                format!(
                    "atomic block is provably read-only ({} read(s), write-set statically \
                     empty) but runs on the write path; route it to a read-only fast path \
                     that skips write-set buffering and commit locking",
                    tx.read_ops
                ),
            ));
        }
    }
}

/// Compiles `src` and lints it: the one-call front door used by the
/// `txl lint` CLI.
///
/// # Errors
///
/// Any [`TxlError`] from lexing, parsing or semantic checking.
pub fn lint_source(src: &str, cfg: &LintConfig) -> Result<Vec<Diagnostic>, TxlError> {
    let program = crate::compile(src)?;
    Ok(lint_program(&program, cfg, None))
}

/// Like [`lint_source`], but asks the repair engine ([`crate::fix`]) to
/// plan a patch for each finding and carries it in
/// [`Diagnostic::suggested_fix`].
///
/// # Errors
///
/// Any [`TxlError`] from lexing, parsing or semantic checking.
pub fn lint_source_with_fixes(src: &str, cfg: &LintConfig) -> Result<Vec<Diagnostic>, TxlError> {
    let program = crate::compile(src)?;
    let mut diags = lint_program(&program, cfg, None);
    for d in &mut diags {
        d.suggested_fix = crate::fix::plan(src, &program, d, cfg);
    }
    Ok(diags)
}

fn diag(kernel: &Kernel, rule: Rule, span: Span, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        kernel: kernel.name.clone(),
        line: span.line,
        span,
        message,
        suggested_fix: None,
    }
}

/// Collects every array access in an expression as `(param, span)`.
pub(crate) fn expr_accesses(e: &Expr, out: &mut Vec<(usize, Span)>) {
    match e {
        Expr::Int(_) | Expr::Tid | Expr::NThreads | Expr::Var { .. } => {}
        Expr::Index { param, index, span, .. } => {
            out.push((*param, *span));
            expr_accesses(index, out);
        }
        Expr::Bin { lhs, rhs, .. } => {
            expr_accesses(lhs, out);
            expr_accesses(rhs, out);
        }
        Expr::Not(e) | Expr::Rand(e) => expr_accesses(e, out),
    }
}

/// Collects every array access in a block as `(param, span)`, including
/// store targets, conditions, and nested blocks.
pub(crate) fn block_accesses(stmts: &[Stmt], out: &mut Vec<(usize, Span)>) {
    for s in stmts {
        match s {
            Stmt::Let { init, .. } | Stmt::Assign { value: init, .. } => expr_accesses(init, out),
            Stmt::Store { param, index, value, span, .. } => {
                out.push((*param, *span));
                expr_accesses(index, out);
                expr_accesses(value, out);
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                expr_accesses(cond, out);
                block_accesses(then_blk, out);
                block_accesses(else_blk, out);
            }
            Stmt::While { cond, body, .. } => {
                expr_accesses(cond, out);
                block_accesses(body, out);
            }
            Stmt::Atomic { body, .. } => block_accesses(body, out),
            Stmt::Retry { .. } => {}
        }
    }
}

// ---------------------------------------------------------------- TL001

fn non_atomic_shared(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    // Pass 1: arrays touched inside any atomic block.
    let mut tx_arrays = BTreeSet::new();
    fn collect_tx(stmts: &[Stmt], out: &mut BTreeSet<usize>) {
        for s in stmts {
            match s {
                Stmt::Atomic { body, .. } => {
                    let mut acc = Vec::new();
                    block_accesses(body, &mut acc);
                    out.extend(acc.into_iter().map(|(p, _)| p));
                }
                Stmt::If { then_blk, else_blk, .. } => {
                    collect_tx(then_blk, out);
                    collect_tx(else_blk, out);
                }
                Stmt::While { body, .. } => collect_tx(body, out),
                _ => {}
            }
        }
    }
    collect_tx(&kernel.body, &mut tx_arrays);
    if tx_arrays.is_empty() {
        return;
    }

    // Pass 2: accesses to those arrays outside every atomic block.
    fn walk(
        stmts: &[Stmt],
        tx_arrays: &BTreeSet<usize>,
        kernel: &Kernel,
        out: &mut Vec<Diagnostic>,
    ) {
        for s in stmts {
            let mut acc = Vec::new();
            match s {
                Stmt::Atomic { .. } | Stmt::Retry { .. } => continue,
                Stmt::Let { init, .. } | Stmt::Assign { value: init, .. } => {
                    expr_accesses(init, &mut acc);
                }
                Stmt::Store { param, index, value, span, .. } => {
                    acc.push((*param, *span));
                    expr_accesses(index, &mut acc);
                    expr_accesses(value, &mut acc);
                }
                Stmt::If { cond, then_blk, else_blk, .. } => {
                    expr_accesses(cond, &mut acc);
                    walk(then_blk, tx_arrays, kernel, out);
                    walk(else_blk, tx_arrays, kernel, out);
                }
                Stmt::While { cond, body, .. } => {
                    expr_accesses(cond, &mut acc);
                    walk(body, tx_arrays, kernel, out);
                }
            }
            for (p, span) in acc {
                if tx_arrays.contains(&p) {
                    let name = &kernel.params[p].name;
                    out.push(diag(
                        kernel,
                        Rule::NonAtomicSharedAccess,
                        span,
                        format!(
                            "array `{name}` is accessed inside an atomic block elsewhere in \
                             this kernel; this non-transactional access is invisible to the \
                             STM and can race with committed transactions (weak isolation)"
                        ),
                    ));
                }
            }
        }
    }
    walk(&kernel.body, &tx_arrays, kernel, out);
}

// ---------------------------------------------------------------- TL002

/// A spin-wait acquisition site: `while A[e] { .. }` where the body
/// performs no stores (a pure spin).
pub(crate) struct Spin<'a> {
    pub(crate) param: usize,
    pub(crate) index: &'a Expr,
    pub(crate) span: Span,
}

pub(crate) fn as_spin(s: &Stmt) -> Option<Spin<'_>> {
    let Stmt::While { cond, body, span } = s else { return None };
    // The condition must read exactly one array element (the lock word).
    let mut acc = Vec::new();
    expr_accesses(cond, &mut acc);
    let [(param, _)] = acc[..] else { return None };
    // A pure spin never stores (otherwise it is a worklist loop, not a
    // lock wait).
    fn has_store(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Store { .. } => true,
            Stmt::If { then_blk, else_blk, .. } => has_store(then_blk) || has_store(else_blk),
            Stmt::While { body, .. } | Stmt::Atomic { body, .. } => has_store(body),
            _ => false,
        })
    }
    if has_store(body) {
        return None;
    }
    // Find the single index expression in the condition.
    fn find_index(e: &Expr) -> Option<&Expr> {
        match e {
            Expr::Index { index, .. } => Some(index),
            Expr::Bin { lhs, rhs, .. } => find_index(lhs).or_else(|| find_index(rhs)),
            Expr::Not(e) | Expr::Rand(e) => find_index(e),
            _ => None,
        }
    }
    Some(Spin { param, index: find_index(cond)?, span: *span })
}

/// Structural expression equality, ignoring spans.
pub(crate) fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Int(x), Expr::Int(y)) => x == y,
        (Expr::Tid, Expr::Tid) | (Expr::NThreads, Expr::NThreads) => true,
        (Expr::Var { slot: x, .. }, Expr::Var { slot: y, .. }) => x == y,
        (Expr::Index { param: p, index: i, .. }, Expr::Index { param: q, index: j, .. }) => {
            p == q && expr_eq(i, j)
        }
        (Expr::Bin { op: o1, lhs: l1, rhs: r1 }, Expr::Bin { op: o2, lhs: l2, rhs: r2 }) => {
            o1 == o2 && expr_eq(l1, l2) && expr_eq(r1, r2)
        }
        (Expr::Not(x), Expr::Not(y)) | (Expr::Rand(x), Expr::Rand(y)) => expr_eq(x, y),
        _ => false,
    }
}

/// Is `second` provably `>= first`? Conservative: literal comparison,
/// syntactic equality, or `second == first + literal`.
fn provably_ordered(first: &Expr, second: &Expr) -> bool {
    if let (Expr::Int(a), Expr::Int(b)) = (first, second) {
        return a <= b;
    }
    if expr_eq(first, second) {
        return true;
    }
    if let Expr::Bin { op: crate::ast::BinOp::Add, lhs, rhs } = second {
        if expr_eq(first, lhs) && matches!(**rhs, Expr::Int(_)) {
            return true;
        }
        if expr_eq(first, rhs) && matches!(**lhs, Expr::Int(_)) {
            return true;
        }
    }
    false
}

fn unsorted_locks(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    fn walk(stmts: &[Stmt], kernel: &Kernel, out: &mut Vec<Diagnostic>) {
        // Spin sites in this straight-line block, in statement order.
        let mut spins: Vec<Spin<'_>> = Vec::new();
        for s in stmts {
            if let Some(spin) = as_spin(s) {
                if let Some(prev) = spins.last() {
                    if prev.param == spin.param && !provably_ordered(prev.index, spin.index) {
                        let name = &kernel.params[spin.param].name;
                        out.push(diag(
                            kernel,
                            Rule::UnsortedLockAcquisition,
                            spin.span,
                            format!(
                                "second spin-wait on `{name}` acquires a lock whose index is \
                                 not provably >= the previous acquisition; unsorted multi-lock \
                                 acquisition deadlocks lock-stepped warps (sort addresses, or \
                                 use `atomic`)"
                            ),
                        ));
                    }
                }
                spins.push(spin);
                continue;
            }
            // Control flow resets the straight-line acquisition sequence;
            // recurse into nested blocks.
            match s {
                Stmt::If { then_blk, else_blk, .. } => {
                    spins.clear();
                    walk(then_blk, kernel, out);
                    walk(else_blk, kernel, out);
                }
                Stmt::While { body, .. } | Stmt::Atomic { body, .. } => {
                    spins.clear();
                    walk(body, kernel, out);
                }
                _ => {} // straight-line: Let/Assign/Store keep the sequence
            }
        }
    }
    walk(&kernel.body, kernel, out);
}

// ---------------------------------------------------------------- TL003

/// Static upper bound on the number of stores a block executes; `None`
/// means unbounded (a loop containing stores).
pub(crate) fn store_bound(stmts: &[Stmt]) -> Option<u32> {
    let mut total: u32 = 0;
    for s in stmts {
        let b = match s {
            Stmt::Store { .. } => Some(1),
            Stmt::If { then_blk, else_blk, .. } => {
                Some(store_bound(then_blk)?.max(store_bound(else_blk)?))
            }
            Stmt::While { body, .. } => {
                if store_bound(body) == Some(0) {
                    Some(0)
                } else {
                    None // loop may iterate arbitrarily: stores unbounded
                }
            }
            Stmt::Atomic { body, .. } => store_bound(body),
            Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Retry { .. } => Some(0),
        };
        total = total.saturating_add(b?);
    }
    Some(total)
}

fn unbounded_write_set(kernel: &Kernel, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    fn walk(stmts: &[Stmt], kernel: &Kernel, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for s in stmts {
            match s {
                Stmt::Atomic { body, span, .. } => match store_bound(body) {
                    None => out.push(diag(
                        kernel,
                        Rule::UnboundedWriteSet,
                        *span,
                        "transaction contains a loop with stores, so its write-set has no \
                         static bound; it can overflow the ownership table and livelock \
                         commit"
                            .to_string(),
                    )),
                    Some(b) => {
                        if let Some(cap) = cfg.write_set_capacity {
                            if b > cap {
                                out.push(diag(
                                    kernel,
                                    Rule::UnboundedWriteSet,
                                    *span,
                                    format!(
                                        "transaction may perform up to {b} stores but the \
                                         ownership table holds {cap} entries"
                                    ),
                                ));
                            }
                        }
                    }
                },
                Stmt::If { then_blk, else_blk, .. } => {
                    walk(then_blk, kernel, cfg, out);
                    walk(else_blk, kernel, cfg, out);
                }
                Stmt::While { body, .. } => walk(body, kernel, cfg, out),
                _ => {}
            }
        }
    }
    walk(&kernel.body, kernel, cfg, out);
}

// ---------------------------------------------------------------- TL004

/// Is the expression's value thread-dependent, given the tainted slots?
fn expr_tainted(e: &Expr, tainted: &BTreeSet<usize>) -> bool {
    match e {
        Expr::Int(_) | Expr::NThreads => false,
        Expr::Tid | Expr::Rand(_) => true,
        Expr::Var { slot, .. } => tainted.contains(slot),
        // A load at a thread-dependent index reads a thread-dependent value.
        Expr::Index { index, .. } => expr_tainted(index, tainted),
        Expr::Bin { lhs, rhs, .. } => expr_tainted(lhs, tainted) || expr_tainted(rhs, tainted),
        Expr::Not(e) => expr_tainted(e, tainted),
    }
}

/// Fixpoint taint of local slots from `tid()`/`rand()` sources.
fn taint_slots(kernel: &Kernel) -> BTreeSet<usize> {
    fn pass(stmts: &[Stmt], tainted: &mut BTreeSet<usize>, changed: &mut bool) {
        for s in stmts {
            match s {
                Stmt::Let { slot, init: v, .. } | Stmt::Assign { slot, value: v, .. } => {
                    if expr_tainted(v, tainted) && tainted.insert(*slot) {
                        *changed = true;
                    }
                }
                Stmt::Store { .. } | Stmt::Retry { .. } => {}
                Stmt::If { then_blk, else_blk, .. } => {
                    pass(then_blk, tainted, changed);
                    pass(else_blk, tainted, changed);
                }
                Stmt::While { body, .. } | Stmt::Atomic { body, .. } => {
                    pass(body, tainted, changed);
                }
            }
        }
    }
    let mut tainted = BTreeSet::new();
    loop {
        let mut changed = false;
        pass(&kernel.body, &mut tainted, &mut changed);
        if !changed {
            return tainted;
        }
    }
}

fn divergent_atomic(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    let tainted = taint_slots(kernel);
    fn walk(
        stmts: &[Stmt],
        divergent: bool,
        tainted: &BTreeSet<usize>,
        kernel: &Kernel,
        out: &mut Vec<Diagnostic>,
    ) {
        for s in stmts {
            match s {
                Stmt::Atomic { body, span, .. } => {
                    if divergent {
                        out.push(diag(
                            kernel,
                            Rule::DivergentAtomic,
                            *span,
                            "atomic block is guarded by a thread-dependent condition; the \
                             transaction runs under a divergent mask, serialising the warp \
                             and inviting intra-warp retry livelock"
                                .to_string(),
                        ));
                    }
                    walk(body, divergent, tainted, kernel, out);
                }
                Stmt::If { cond, then_blk, else_blk, .. } => {
                    let div = divergent || expr_tainted(cond, tainted);
                    walk(then_blk, div, tainted, kernel, out);
                    walk(else_blk, div, tainted, kernel, out);
                }
                Stmt::While { cond, body, .. } => {
                    let div = divergent || expr_tainted(cond, tainted);
                    walk(body, div, tainted, kernel, out);
                }
                _ => {}
            }
        }
    }
    walk(&kernel.body, false, &tainted, kernel, out);
}

// ---------------------------------------------------------------- TL005

/// Arrays on which footprints `a` and `b` may conflict *and* whose
/// first-touch orders are inverted between the two blocks. `None` when
/// the pair shares fewer than two arrays or the orders agree — i.e. the
/// pair is not a TL005 hazard. Shared with [`crate::fix`], which uses it
/// both to locate a diagnostic's partner block and to prove a candidate
/// reorder actually discharges the inversion.
pub(crate) fn inverted_shared(
    a: &crate::footprint::AtomicFootprint,
    b: &crate::footprint::AtomicFootprint,
    nparams: usize,
) -> Option<Vec<usize>> {
    let shared: Vec<usize> =
        (0..nparams).filter(|&p| a.params[p].conflicts(&b.params[p])).collect();
    if shared.len() < 2 {
        return None;
    }
    let pos = |order: &[usize], p: usize| order.iter().position(|&x| x == p);
    let inverted = shared.iter().enumerate().any(|(x, &p)| {
        shared.iter().skip(x + 1).any(|&q| match (pos(&a.first_order, p), pos(&a.first_order, q)) {
            (Some(ap), Some(aq)) => match (pos(&b.first_order, p), pos(&b.first_order, q)) {
                (Some(bp), Some(bq)) => (ap < aq) != (bp < bq),
                _ => false,
            },
            _ => false,
        })
    });
    inverted.then_some(shared)
}

fn conflicting_footprint_order(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    // Symbolic view: tid unconstrained, so the footprints cover every
    // thread. Over-approximation only ever *adds* overlap, which is the
    // sound direction for a hazard lint.
    let fps = crate::footprint::kernel_footprint(kernel, crate::footprint::Interval::TOP, u32::MAX);
    for i in 0..fps.atomics.len() {
        for j in i + 1..fps.atomics.len() {
            let (a, b) = (&fps.atomics[i], &fps.atomics[j]);
            if let Some(shared) = inverted_shared(a, b, kernel.params.len()) {
                let names: Vec<&str> =
                    shared.iter().map(|&p| kernel.params[p].name.as_str()).collect();
                out.push(diag(
                    kernel,
                    Rule::ConflictingFootprintOrder,
                    b.span,
                    format!(
                        "this atomic block and the one at line {} have statically-overlapping \
                         footprints on arrays {} but first touch them in different orders; \
                         encounter-time lock acquisition in inverted order deadlocks a \
                         lock-stepped warp unless the STM sorts its lock-log",
                        a.span.line,
                        names.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", "),
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- TL008

/// Whether evaluating `e` performs at least one array read.
fn expr_has_read(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Tid | Expr::NThreads | Expr::Var { .. } => false,
        Expr::Index { .. } => true,
        Expr::Bin { lhs, rhs, .. } => expr_has_read(lhs) || expr_has_read(rhs),
        Expr::Not(e) | Expr::Rand(e) => expr_has_read(e),
    }
}

fn unwakeable_retry(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    // A parked lane's wake condition is its validated read set: a
    // `retry` reachable with no transactional array read before it on
    // any path has a statically empty watch set — no commit anywhere
    // can change what the lane observed, so it can never be woken.
    // Walks each atomic body tracking "a read may precede this point";
    // branch exits merge with OR (a read on *some* path to a later
    // retry makes it potentially wakeable, so only the definite case
    // is flagged).
    fn walk(stmts: &[Stmt], mut seen: bool, kernel: &Kernel, out: &mut Vec<Diagnostic>) -> bool {
        for s in stmts {
            match s {
                Stmt::Retry { span } => {
                    if !seen {
                        out.push(diag(
                            kernel,
                            Rule::UnwakeableRetry,
                            *span,
                            "`retry` with a statically empty read set: no array read \
                             precedes it in this transaction, so no commit can ever \
                             change its decision — a parked lane would never be woken \
                             and a respinning lane spins until the watchdog fires"
                                .to_string(),
                        ));
                    }
                }
                Stmt::Let { init, .. } | Stmt::Assign { value: init, .. } => {
                    seen |= expr_has_read(init);
                }
                Stmt::Store { index, value, .. } => {
                    seen |= expr_has_read(index) || expr_has_read(value);
                }
                Stmt::If { cond, then_blk, else_blk, .. } => {
                    seen |= expr_has_read(cond);
                    let t = walk(then_blk, seen, kernel, out);
                    let e = walk(else_blk, seen, kernel, out);
                    seen = t | e;
                }
                Stmt::While { cond, body, .. } => {
                    seen |= expr_has_read(cond);
                    seen = walk(body, seen, kernel, out);
                }
                Stmt::Atomic { body, .. } => {
                    seen = walk(body, seen, kernel, out);
                }
            }
        }
        seen
    }
    fn find_atomics(stmts: &[Stmt], kernel: &Kernel, out: &mut Vec<Diagnostic>) {
        for s in stmts {
            match s {
                Stmt::Atomic { body, .. } => {
                    walk(body, false, kernel, out);
                }
                Stmt::If { then_blk, else_blk, .. } => {
                    find_atomics(then_blk, kernel, out);
                    find_atomics(else_blk, kernel, out);
                }
                Stmt::While { body, .. } => find_atomics(body, kernel, out),
                _ => {}
            }
        }
    }
    find_atomics(&kernel.body, kernel, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(src, &LintConfig::default()).unwrap()
    }

    fn lint_cap(src: &str, cap: u32) -> Vec<Diagnostic> {
        lint_source(src, &LintConfig { write_set_capacity: Some(cap), ..LintConfig::default() })
            .unwrap()
    }

    #[test]
    fn tl001_flags_non_atomic_access_to_tx_array() {
        let src = "kernel k(a: array) {
            let i = tid();
            atomic { a[0] = a[0] + 1; }
            a[i] = 7;
        }";
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NonAtomicSharedAccess);
        assert_eq!(d[0].span.snippet(src), "a[i] = 7;");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn tl001_reads_count_too_but_disjoint_arrays_do_not() {
        let d = lint(
            "kernel k(a: array, b: array) {
                let x = a[0];
                atomic { a[1] = x; }
                b[0] = x;
            }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NonAtomicSharedAccess);
        assert!(d[0].message.contains("`a`"));
    }

    #[test]
    fn tl001_clean_when_all_accesses_transactional() {
        let d = lint("kernel k(a: array) { atomic { a[0] = a[1] + 1; } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tl002_flags_unsorted_spin_pair() {
        let src = "kernel k(l: array) {
            let x = tid();
            let y = tid() + 1;
            while l[y] { }
            l[y] = 1;
            while l[x] { }
            l[x] = 1;
        }";
        let d = lint(src);
        let tl002: Vec<_> = d.iter().filter(|d| d.rule == Rule::UnsortedLockAcquisition).collect();
        assert_eq!(tl002.len(), 1, "{d:?}");
        assert_eq!(tl002[0].span.snippet(src), "while l[x] { }");
    }

    #[test]
    fn tl002_sorted_literals_and_offsets_pass() {
        let d = lint(
            "kernel k(l: array) {
                let x = tid();
                while l[x] { } l[x] = 1;
                while l[x + 1] { } l[x + 1] = 1;
                while l[3] { } l[3] = 1;
                while l[7] { } l[7] = 1;
            }",
        );
        // `x+1` vs literal `3` is unprovable — that pair is the only report.
        let tl002: Vec<_> = d.iter().filter(|d| d.rule == Rule::UnsortedLockAcquisition).collect();
        assert_eq!(tl002.len(), 1, "{d:?}");
    }

    #[test]
    fn tl002_ignores_worklist_loops() {
        // A while that stores is a worklist loop, not a spin.
        let d = lint(
            "kernel k(q: array) {
                let i = 0;
                while q[i] { q[i] = 0; i = i + 1; }
                while q[0] { }
            }",
        );
        assert!(d.iter().all(|d| d.rule != Rule::UnsortedLockAcquisition), "{d:?}");
    }

    #[test]
    fn tl003_flags_loop_with_stores_in_atomic() {
        let src = "kernel k(a: array) {
            atomic {
                let i = 0;
                while i < 10 { a[i] = 1; i = i + 1; }
            }
        }";
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnboundedWriteSet);
        assert!(d[0].message.contains("no static bound"));
    }

    #[test]
    fn tl003_capacity_bound_checked_when_configured() {
        let src = "kernel k(a: array) {
            atomic { a[0] = 1; a[1] = 1; a[2] = 1; }
        }";
        assert!(lint(src).is_empty(), "no capacity configured: silent");
        let d = lint_cap(src, 2);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnboundedWriteSet);
        assert!(d[0].message.contains("up to 3 stores"), "{}", d[0].message);
        assert!(lint_cap(src, 3).is_empty());
    }

    #[test]
    fn tl003_if_takes_max_branch() {
        let src = "kernel k(a: array) {
            atomic { if a[9] { a[0] = 1; a[1] = 1; } else { a[2] = 1; } }
        }";
        assert!(lint_cap(src, 2).is_empty(), "max branch is 2 stores");
        assert_eq!(lint_cap(src, 1).len(), 1);
    }

    #[test]
    fn tl004_flags_atomic_under_tid_branch() {
        let src = "kernel k(a: array) {
            let i = tid();
            if i < 5 { atomic { a[0] = a[0] + 1; } }
        }";
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::DivergentAtomic);
        assert_eq!(d[0].span.snippet(src), "atomic { a[0] = a[0] + 1; }");
    }

    #[test]
    fn tl004_taint_flows_through_assignments() {
        let d = lint(
            "kernel k(a: array) {
                let i = rand(4);
                let j = i * 2;
                let c = 0;
                c = j;
                if c { atomic { a[0] = 1; } }
            }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::DivergentAtomic);
    }

    #[test]
    fn tl004_uniform_branch_is_clean() {
        let d = lint(
            "kernel k(a: array) {
                let n = nthreads();
                if n > 32 { atomic { a[0] = a[0] + 1; } }
            }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_display_ids() {
        let src = "kernel k(a: array, l: array) {
            let i = tid();
            a[i] = 0;
            if i { atomic { a[0] = a[0] + 1; } }
        }";
        let d = lint(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].span.start <= d[1].span.start);
        assert!(d[0].to_string().starts_with("TL001 [k:"), "{}", d[0]);
        assert!(d[1].to_string().starts_with("TL004 [k:"), "{}", d[1]);
    }

    #[test]
    fn rule_catalog_is_stable() {
        assert_eq!(
            RULES.map(Rule::id),
            ["TL001", "TL002", "TL003", "TL004", "TL005", "TL006", "TL007", "TL008"]
        );
        for r in RULES {
            assert!(!r.title().is_empty());
            assert!(r.paper_ref().starts_with("Section"), "{}", r.paper_ref());
        }
    }

    #[test]
    fn tl006_flags_hot_counter_only_when_enabled() {
        let src = "kernel bump(c: array) {
            atomic { c[0] = c[0] + 1; }
        }";
        // Silent by default: contention rules are opt-in.
        assert!(lint(src).is_empty());
        let cfg = LintConfig { hot_degree: Some(0.9), ..LintConfig::default() };
        let d = lint_source(src, &cfg).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::StaticallyHotStripe);
        assert!(d[0].message.contains("c"), "{}", d[0]);
    }

    #[test]
    fn tl006_quiet_for_striped_access() {
        // Perfectly striped: each thread owns its own slot, degree 0.
        let src = "kernel own(c: array[1024]) {
            let i = tid();
            atomic { c[i] = c[i] + 1; }
        }";
        let cfg = LintConfig { hot_degree: Some(0.5), ..LintConfig::default() };
        assert!(lint_source(src, &cfg).unwrap().is_empty());
    }

    #[test]
    fn tl007_flags_read_only_tx_only_when_enabled() {
        let src = "kernel sum(a: array[8]) {
            let acc = 0;
            atomic {
                let i = 0;
                while i < 8 { acc = acc + a[i]; i = i + 1; }
            }
        }";
        assert!(lint(src).is_empty());
        let cfg = LintConfig { flag_read_only: true, ..LintConfig::default() };
        let d = lint_source(src, &cfg).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::ReadOnlyWriteCost);
        assert!(d[0].message.contains("read-only"), "{}", d[0]);
    }

    #[test]
    fn tl007_quiet_for_writing_tx() {
        let src = "kernel w(a: array[8]) {
            let i = tid() % 8;
            atomic { a[i] = a[i] + 1; }
        }";
        let cfg = LintConfig { flag_read_only: true, ..LintConfig::default() };
        assert!(lint_source(src, &cfg).unwrap().is_empty());
    }

    #[test]
    fn tl005_flags_inverted_footprint_order() {
        let d = lint(
            "kernel swap(src: array, dst: array) {
                 let i = tid() % 8;
                 atomic {
                     src[i] = src[i] - 1;
                     dst[i] = dst[i] + 1;
                 }
                 atomic {
                     dst[i] = dst[i] - 1;
                     src[i] = src[i] + 1;
                 }
             }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::ConflictingFootprintOrder);
        // Anchored on the later block.
        assert!(d[0].message.contains("`src`") && d[0].message.contains("`dst`"), "{}", d[0]);
    }

    #[test]
    fn tl005_quiet_when_orders_agree() {
        let d = lint(
            "kernel swap(src: array, dst: array) {
                 let i = tid() % 8;
                 atomic {
                     src[i] = src[i] - 1;
                     dst[i] = dst[i] + 1;
                 }
                 atomic {
                     src[i] = src[i] + 1;
                     dst[i] = dst[i] - 1;
                 }
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tl005_quiet_when_footprints_disjoint() {
        // Same inverted order, but the two blocks touch provably disjoint
        // halves of each array: no stripe can be contended.
        let d = lint(
            "kernel split(a: array[16], b: array[16]) {
                 let i = tid() % 8;
                 atomic {
                     a[i] = a[i] + 1;
                     b[i] = b[i] + 1;
                 }
                 atomic {
                     b[i + 8] = b[i + 8] + 1;
                     a[i + 8] = a[i + 8] + 1;
                 }
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
