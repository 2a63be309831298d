//! `txl::fix` — verified auto-repair of lint findings.
//!
//! GPURepair (Joshi et al.) frames kernel repair as a loop: an analyzer
//! produces findings, each finding maps to a candidate source rewrite,
//! and every candidate is re-verified by running the analyzer again.
//! This module is that loop for the TXL lint rules:
//!
//! | Rule  | Rewrite |
//! |-------|---------|
//! | TL001 | wrap the weak-isolation access in an `atomic` block |
//! | TL002 | replace the hand-rolled spin-lock protocol with `atomic` |
//! | TL003 | hoist the transaction into the loop / split the write set |
//! | TL004 | hoist the atomic above the divergent guard (guard inside) |
//! | TL005 | reorder the transaction body to the partner's order |
//!
//! Every rewrite is expressed as byte-exact [`crate::patch::Edit`]s over
//! the *current* source revision, planned from the span-carrying AST.
//! [`fix_source`] drives the fix-verify loop: compile → lint → plan →
//! apply non-overlapping patches → recompile → re-lint, until the
//! program is clean, no further patch is known, or the round budget is
//! exhausted. Patches that would overlap in one round are simply
//! deferred — the next round re-derives them against fresh spans.
//!
//! The static loop is complemented by [`dynamic_check`], which runs the
//! (repaired) program on the SIMT simulator with the happens-before race
//! detector attached and replays the commit history through `tm-check` —
//! the dynamic half of the fix-verify gate.
//!
//! Soundness caveats (also in DESIGN.md §14): rewrites preserve
//! single-thread semantics and only ever *strengthen* atomicity, but
//! TL004's guard-inside hoist re-evaluates the guard condition on every
//! transaction retry (visible only through `rand()`), and TL002's
//! lock-elision assumes the recognized acquire/release protocol was the
//! *only* cross-thread ordering the locks provided.

use crate::ast::{Expr, Kernel, Program, Stmt};
use crate::error::TxlError;
use crate::lint::{self, Diagnostic, LintConfig, Rule};
use crate::patch::{Edit, EditSet, Patch};
use crate::token::Span;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Configuration for the fix-verify loop.
#[derive(Clone, Debug)]
pub struct FixConfig {
    /// Lint configuration the loop repairs against (capacity etc.).
    pub lint: LintConfig,
    /// Maximum fix-verify rounds before giving up. Each round applies at
    /// least one patch, so this also bounds total rewrites.
    pub max_rounds: u32,
}

impl Default for FixConfig {
    fn default() -> Self {
        FixConfig { lint: LintConfig::default(), max_rounds: 8 }
    }
}

/// One patch the loop applied, with the diagnostic that motivated it.
#[derive(Clone, Debug)]
pub struct AppliedPatch {
    /// 1-based fix-verify round in which the patch was applied.
    pub round: u32,
    /// The finding being repaired (spans refer to that round's source).
    pub diagnostic: Diagnostic,
    /// The rewrite.
    pub patch: Patch,
}

/// Result of running [`fix_source`] to a fixpoint.
#[derive(Clone, Debug)]
pub struct FixReport {
    /// The source as given.
    pub original: String,
    /// The source after every applied round.
    pub fixed: String,
    /// Fix-verify rounds that applied at least one patch.
    pub rounds: u32,
    /// Patches applied, in application order.
    pub applied: Vec<AppliedPatch>,
    /// Findings remaining in `fixed` (empty = fully repaired).
    pub residual: Vec<Diagnostic>,
    /// `true` when the loop reached a fixpoint (clean, or no further
    /// patch known); `false` when it stopped at `max_rounds` with
    /// applicable patches still pending.
    pub converged: bool,
}

impl FixReport {
    /// Whether any patch was applied.
    pub fn changed(&self) -> bool {
        self.original != self.fixed
    }

    /// Whether the fixed program lints clean.
    pub fn is_clean(&self) -> bool {
        self.residual.is_empty()
    }

    /// Unified diff from the original to the fixed source.
    pub fn diff(&self, path: &str) -> String {
        crate::patch::unified_diff(&self.original, &self.fixed, path, 3)
    }
}

/// Runs the fix-verify loop over `src` until the program lints clean, no
/// further patch is known, or `cfg.max_rounds` is exhausted.
///
/// # Errors
///
/// Any [`TxlError`] from compiling the original — or a patched — source.
/// A compile error on a patched revision means a planner produced an
/// invalid rewrite, which the loop treats as fatal rather than papering
/// over.
pub fn fix_source(src: &str, cfg: &FixConfig) -> Result<FixReport, TxlError> {
    let mut current = src.to_string();
    let mut applied: Vec<AppliedPatch> = Vec::new();
    let mut rounds = 0u32;
    loop {
        let program = crate::compile(&current)?;
        let diags = lint::lint_program(&program, &cfg.lint, None);
        if diags.is_empty() {
            return Ok(FixReport {
                original: src.to_string(),
                fixed: current,
                rounds,
                applied,
                residual: Vec::new(),
                converged: true,
            });
        }

        // Plan one patch per finding; collect the non-overlapping subset.
        let mut set = EditSet::new();
        let mut planned: Vec<AppliedPatch> = Vec::new();
        for d in &diags {
            let Some(patch) = plan(&current, &program, d, &cfg.lint) else { continue };
            let mut trial = set.clone();
            if patch.edits.iter().try_for_each(|e| trial.push(e.clone())).is_ok() {
                set = trial;
                planned.push(AppliedPatch { round: rounds + 1, diagnostic: d.clone(), patch });
            }
            // Overlapping patches are deferred: the next round re-lints
            // and re-plans them against the rewritten source.
        }

        if set.is_empty() {
            // Fixpoint: findings remain but no rewrite is known for them.
            return Ok(FixReport {
                original: src.to_string(),
                fixed: current,
                rounds,
                applied,
                residual: diags,
                converged: true,
            });
        }
        if rounds >= cfg.max_rounds {
            return Ok(FixReport {
                original: src.to_string(),
                fixed: current,
                rounds,
                applied,
                residual: diags,
                converged: false,
            });
        }

        rounds += 1;
        current = set
            .apply(&current)
            .map_err(|e| TxlError::Runtime { message: format!("internal patch error: {e}") })?;
        applied.extend(planned);
    }
}

// ------------------------------------------------------------- planning

/// Plans the repair for one diagnostic, or `None` when no sound rewrite
/// is known (the finding is then reported as residual).
///
/// The returned patch's edits are byte offsets into `src`, which must be
/// the same revision `diag` was produced from.
pub fn plan(src: &str, program: &Program, diag: &Diagnostic, cfg: &LintConfig) -> Option<Patch> {
    let kernel = program.kernel(&diag.kernel)?;
    match diag.rule {
        Rule::NonAtomicSharedAccess => plan_tl001(src, kernel, diag),
        Rule::UnsortedLockAcquisition => plan_tl002(src, kernel, diag),
        Rule::UnboundedWriteSet => plan_tl003(src, kernel, diag, cfg),
        Rule::DivergentAtomic => plan_tl004(src, kernel, diag),
        Rule::ConflictingFootprintOrder => plan_tl005(src, kernel, diag),
        // Contention findings are configuration advice (variant / stripe
        // choice), not source defects — there is no sound source rewrite.
        Rule::StaticallyHotStripe | Rule::ReadOnlyWriteCost => None,
        // An unwakeable `retry` is a logic error: the intended wake
        // condition exists only in the author's head, so no mechanical
        // rewrite can supply the missing read. Reported as residual.
        Rule::UnwakeableRetry => None,
    }
}

fn mk_patch(diag: &Diagnostic, kernel: &Kernel, title: &str, edits: Vec<Edit>) -> Option<Patch> {
    Some(Patch { rule: diag.rule, kernel: kernel.name.clone(), title: title.to_string(), edits })
}

fn contains(outer: Span, inner: Span) -> bool {
    outer.start <= inner.start && inner.end <= outer.end
}

/// The innermost statement whose span equals `target`.
fn find_stmt(stmts: &[Stmt], target: Span) -> Option<&Stmt> {
    for s in stmts {
        if s.span() == target {
            return Some(s);
        }
        if !contains(s.span(), target) {
            continue;
        }
        return match s {
            Stmt::If { then_blk, else_blk, .. } => {
                find_stmt(then_blk, target).or_else(|| find_stmt(else_blk, target))
            }
            Stmt::While { body, .. } | Stmt::Atomic { body, .. } => find_stmt(body, target),
            _ => None,
        };
    }
    None
}

/// The statement list that directly holds a statement spanning `target`.
fn find_block(stmts: &[Stmt], target: Span) -> Option<&[Stmt]> {
    for s in stmts {
        if s.span() == target {
            return Some(stmts);
        }
        if !contains(s.span(), target) {
            continue;
        }
        return match s {
            Stmt::If { then_blk, else_blk, .. } => {
                find_block(then_blk, target).or_else(|| find_block(else_blk, target))
            }
            Stmt::While { body, .. } | Stmt::Atomic { body, .. } => find_block(body, target),
            _ => None,
        };
    }
    None
}

/// Whether the statement spanning `target` sits inside an `atomic` block
/// (wrapping it in another would be rejected by the checker).
fn in_atomic(stmts: &[Stmt], target: Span) -> bool {
    for s in stmts {
        if s.span() == target {
            return false;
        }
        if !contains(s.span(), target) {
            continue;
        }
        return match s {
            Stmt::Atomic { .. } => true,
            Stmt::If { then_blk, else_blk, .. } => {
                in_atomic(then_blk, target) || in_atomic(else_blk, target)
            }
            Stmt::While { body, .. } => in_atomic(body, target),
            _ => false,
        };
    }
    false
}

/// Whether any statement (transitively) is an `atomic` block.
fn contains_atomic(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Atomic { .. } => true,
        Stmt::If { then_blk, else_blk, .. } => {
            contains_atomic(then_blk) || contains_atomic(else_blk)
        }
        Stmt::While { body, .. } => contains_atomic(body),
        _ => false,
    })
}

/// The condition text of an `if`/`while`: the bytes between the keyword
/// and the first `{`. Well-defined because TXL expressions cannot
/// contain `{`.
fn guard_text<'a>(src: &'a str, span: Span, keyword: &str) -> Option<&'a str> {
    let rest = span.snippet(src).strip_prefix(keyword)?;
    let cond = rest[..rest.find('{')?].trim();
    (!cond.is_empty()).then_some(cond)
}

/// Source snippets of the given spans joined with single spaces.
fn join_spans(src: &str, spans: impl Iterator<Item = Span>) -> String {
    spans.map(|s| s.snippet(src)).collect::<Vec<_>>().join(" ")
}

/// The whitespace indenting the line `start` sits on, when `start` is
/// the first non-blank byte of that line.
fn line_indent(src: &str, start: u32) -> Option<&str> {
    let head = &src[..start as usize];
    let line_start = head.rfind('\n').map_or(0, |i| i + 1);
    let prefix = &head[line_start..];
    prefix.chars().all(|c| c == ' ' || c == '\t').then_some(prefix)
}

// ----------------------------------------------------------------- TL001

fn plan_tl001(src: &str, kernel: &Kernel, diag: &Diagnostic) -> Option<Patch> {
    // The non-atomic statement owning the flagged access. `Some(None)`
    // means the access sits in a guard condition — no statement-level
    // wrap exists for it.
    fn host(stmts: &[Stmt], target: Span) -> Option<Option<&Stmt>> {
        for s in stmts {
            if !contains(s.span(), target) {
                continue;
            }
            return match s {
                Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Store { .. } => Some(Some(s)),
                Stmt::If { then_blk, else_blk, .. } => {
                    host(then_blk, target).or_else(|| host(else_blk, target)).or(Some(None))
                }
                Stmt::While { body, .. } => host(body, target).or(Some(None)),
                Stmt::Retry { .. } | Stmt::Atomic { .. } => Some(None),
            };
        }
        None
    }
    let s = host(&kernel.body, diag.span)??;
    let span = s.span();
    let snip = span.snippet(src);
    let (title, replacement) = match s {
        Stmt::Let { name, .. } => {
            // Wrapping the whole `let` would hide the binding inside the
            // atomic's lexical scope; split the declaration from the
            // transactional initialiser instead.
            let eq = snip.find('=')?;
            let semi = snip.rfind(';')?;
            let rhs = snip.get(eq + 1..semi)?.trim();
            (
                "split the declaration and wrap its initialiser in atomic",
                format!("let {name} = 0; atomic {{ {name} = {rhs}; }}"),
            )
        }
        _ => {
            ("wrap the non-transactional access in an atomic block", format!("atomic {{ {snip} }}"))
        }
    };
    mk_patch(diag, kernel, title, vec![Edit::replace(span, replacement)])
}

// ----------------------------------------------------------------- TL002

fn plan_tl002(src: &str, kernel: &Kernel, diag: &Diagnostic) -> Option<Patch> {
    if in_atomic(&kernel.body, diag.span) {
        return None;
    }
    let block = find_block(&kernel.body, diag.span)?;
    let flagged = block.iter().position(|s| s.span() == diag.span)?;

    // An acquisition pair at `i`: a pure spin `while L[e] { }` followed
    // by the matching set `L[e] = 1;`.
    let acq_at = |i: usize| -> Option<(usize, &Expr)> {
        let spin = lint::as_spin(block.get(i)?)?;
        match block.get(i + 1)? {
            Stmt::Store { param, index, value, .. }
                if *param == spin.param
                    && lint::expr_eq(index, spin.index)
                    && matches!(value, Expr::Int(1)) =>
            {
                Some((spin.param, spin.index))
            }
            _ => None,
        }
    };

    // The flagged spin must start an acquisition pair; grow the maximal
    // run of same-array pairs around it.
    let (lock_param, _) = acq_at(flagged)?;
    let mut start = flagged;
    while start >= 2 && matches!(acq_at(start - 2), Some((p, _)) if p == lock_param) {
        start -= 2;
    }
    let mut last = flagged;
    while matches!(acq_at(last + 2), Some((p, _)) if p == lock_param) {
        last += 2;
    }
    let acquired: Vec<&Expr> =
        (start..=last).step_by(2).map(|i| acq_at(i).expect("pair verified").1).collect();
    if acquired.len() < 2 {
        return None;
    }

    // Critical section: everything up to the releases of exactly the
    // acquired set. `L[e] = 0;` for an outstanding `e` is a release;
    // anything else is body and must neither touch the lock array nor
    // contain an atomic (the rewrite nests it inside one).
    let release_of = |s: &Stmt, outstanding: &[&Expr]| -> Option<usize> {
        let Stmt::Store { param, index, value, .. } = s else { return None };
        if *param != lock_param || !matches!(value, Expr::Int(0)) {
            return None;
        }
        outstanding.iter().position(|e| lint::expr_eq(e, index))
    };
    let mut i = last + 2;
    let mut body: Vec<Span> = Vec::new();
    let mut outstanding: Vec<&Expr> = acquired.clone();
    while i < block.len() && !outstanding.is_empty() {
        let s = &block[i];
        if let Some(at) = release_of(s, &outstanding) {
            outstanding.remove(at);
        } else {
            let mut acc = Vec::new();
            lint::block_accesses(std::slice::from_ref(s), &mut acc);
            if acc.iter().any(|(p, _)| *p == lock_param) {
                return None;
            }
            if contains_atomic(std::slice::from_ref(s)) {
                return None;
            }
            body.push(s.span());
        }
        i += 1;
    }
    if !outstanding.is_empty() || body.is_empty() {
        return None;
    }

    let region = block[start].span().to(block[i - 1].span());
    let text = format!("atomic {{ {} }}", join_spans(src, body.into_iter()));
    mk_patch(
        diag,
        kernel,
        "replace the hand-rolled lock protocol with an atomic block",
        vec![Edit::replace(region, text)],
    )
}

// ----------------------------------------------------------------- TL003

fn plan_tl003(src: &str, kernel: &Kernel, diag: &Diagnostic, cfg: &LintConfig) -> Option<Patch> {
    let stmt = find_stmt(&kernel.body, diag.span)?;
    let Stmt::Atomic { body, span, .. } = stmt else { return None };
    match lint::store_bound(body) {
        None => {
            // Unbounded: the body must be a single store-bearing loop —
            // hoist the transaction inside it, one iteration per
            // transaction (vincent_stm's recompute-instead-of-retry
            // shape: smaller transactions, re-derived state per commit).
            let [lone] = &body[..] else { return None };
            let Stmt::While { body: wbody, span: wspan, .. } = lone else { return None };
            if wbody.is_empty() || contains_atomic(wbody) {
                return None;
            }
            let per_iter = lint::store_bound(wbody)?;
            if cfg.write_set_capacity.is_some_and(|cap| per_iter > cap) {
                return None;
            }
            let cond = guard_text(src, *wspan, "while")?;
            let inner = join_spans(src, wbody.iter().map(Stmt::span));
            mk_patch(
                diag,
                kernel,
                "hoist the transaction inside the loop (one iteration per transaction)",
                vec![Edit::replace(*span, format!("while {cond} {{ atomic {{ {inner} }} }}"))],
            )
        }
        Some(bound) => {
            let cap = cfg.write_set_capacity?;
            if bound <= cap {
                return None; // stale finding relative to this config
            }
            // Finite but oversized: split into consecutive bounded
            // sub-transactions. `let` bindings would not survive the
            // scope split, and any single statement over capacity cannot
            // be split at statement granularity.
            if body.iter().any(|s| matches!(s, Stmt::Let { .. })) {
                return None;
            }
            let mut groups: Vec<Vec<Span>> = Vec::new();
            let mut cur: Vec<Span> = Vec::new();
            let mut cur_bound = 0u32;
            for s in body {
                let b = lint::store_bound(std::slice::from_ref(s))?;
                if b > cap {
                    return None;
                }
                if cur_bound + b > cap && !cur.is_empty() {
                    groups.push(std::mem::take(&mut cur));
                    cur_bound = 0;
                }
                cur.push(s.span());
                cur_bound += b;
            }
            if !cur.is_empty() {
                groups.push(cur);
            }
            if groups.len() < 2 {
                return None;
            }
            let text = groups
                .iter()
                .map(|g| format!("atomic {{ {} }}", join_spans(src, g.iter().copied())))
                .collect::<Vec<_>>()
                .join(" ");
            mk_patch(
                diag,
                kernel,
                "split the oversized write set into bounded sub-transactions",
                vec![Edit::replace(*span, text)],
            )
        }
    }
}

// ----------------------------------------------------------------- TL004

fn plan_tl004(src: &str, kernel: &Kernel, diag: &Diagnostic) -> Option<Patch> {
    // The innermost guard: an `if` (no `else`) whose then-branch is
    // exactly the flagged atomic. Other shapes (siblings in the branch,
    // divergent loops) have no local hoist and stay residual.
    fn find_guard(stmts: &[Stmt], atomic: Span) -> Option<&Stmt> {
        for s in stmts {
            if s.span() == atomic || !contains(s.span(), atomic) {
                continue;
            }
            return match s {
                Stmt::If { then_blk, else_blk, .. } => {
                    if else_blk.is_empty() && then_blk.len() == 1 && then_blk[0].span() == atomic {
                        Some(s)
                    } else {
                        find_guard(then_blk, atomic).or_else(|| find_guard(else_blk, atomic))
                    }
                }
                Stmt::While { body, .. } => find_guard(body, atomic),
                _ => None,
            };
        }
        None
    }
    let guard = find_guard(&kernel.body, diag.span)?;
    let Stmt::If { then_blk, span: gspan, .. } = guard else { return None };
    let Stmt::Atomic { body: abody, .. } = &then_blk[0] else { return None };
    if abody.is_empty() {
        return None;
    }
    let cond = guard_text(src, *gspan, "if")?;
    let inner = join_spans(src, abody.iter().map(Stmt::span));
    mk_patch(
        diag,
        kernel,
        "hoist the atomic above the divergent guard (guard moves inside)",
        vec![Edit::replace(*gspan, format!("atomic {{ if {cond} {{ {inner} }} }}"))],
    )
}

// ----------------------------------------------------------------- TL005

fn plan_tl005(src: &str, kernel: &Kernel, diag: &Diagnostic) -> Option<Patch> {
    let fps = crate::footprint::kernel_footprint(kernel, crate::footprint::Interval::TOP, u32::MAX);
    let bi = fps.atomics.iter().position(|f| f.span == diag.span)?;
    let b = &fps.atomics[bi];
    // The earlier block this one inverts against (lint anchors the
    // finding on the later of the pair).
    let a = fps.atomics[..bi]
        .iter()
        .find(|a| lint::inverted_shared(a, b, kernel.params.len()).is_some())?;

    let stmt = find_stmt(&kernel.body, diag.span)?;
    let Stmt::Atomic { body, .. } = stmt else { return None };
    if body.len() < 2 {
        return None;
    }

    // Key each statement by where its first-touched array appears in the
    // partner's acquisition order; statements touching none sort last.
    let key_of = |s: &Stmt| -> usize {
        let mut ps = Vec::new();
        stmt_first_params(s, &mut ps);
        ps.first()
            .copied()
            .and_then(|p| a.first_order.iter().position(|&x| x == p))
            .unwrap_or(usize::MAX)
    };
    let keys: Vec<usize> = body.iter().map(key_of).collect();
    let mut order: Vec<usize> = (0..body.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    if order.iter().enumerate().all(|(new, &old)| new == old) {
        return None;
    }

    // Only flip pairs that provably commute.
    for x in 0..order.len() {
        for y in x + 1..order.len() {
            if order[x] > order[y] && !independent(&body[order[x]], &body[order[y]]) {
                return None;
            }
        }
    }

    // The reordered block must actually agree with the partner's order
    // on the shared arrays — otherwise the rewrite would churn without
    // discharging the finding.
    let mut new_first: Vec<usize> = Vec::new();
    for &i in &order {
        let mut ps = Vec::new();
        stmt_first_params(&body[i], &mut ps);
        for p in ps {
            if !new_first.contains(&p) {
                new_first.push(p);
            }
        }
    }
    let trial = crate::footprint::AtomicFootprint {
        span: b.span,
        params: b.params.clone(),
        first_order: new_first,
    };
    if lint::inverted_shared(a, &trial, kernel.params.len()).is_some() {
        return None;
    }

    let first = body.first()?.span();
    let region = first.to(body.last()?.span());
    let sep = match line_indent(src, first.start) {
        Some(ind) => format!("\n{ind}"),
        None => " ".to_string(),
    };
    let text = order.iter().map(|&i| body[i].span().snippet(src)).collect::<Vec<_>>().join(&sep);
    mk_patch(
        diag,
        kernel,
        "reorder the transaction body to match the partner block's acquisition order",
        vec![Edit::replace(region, text)],
    )
}

/// Array parameters in the order a statement first touches them,
/// mirroring the footprint analyzer's evaluation order (a store
/// evaluates its index, then its value, then records the write).
fn stmt_first_params(s: &Stmt, out: &mut Vec<usize>) {
    fn expr(e: &Expr, out: &mut Vec<usize>) {
        match e {
            Expr::Int(_) | Expr::Tid | Expr::NThreads | Expr::Var { .. } => {}
            Expr::Index { param, index, .. } => {
                expr(index, out);
                out.push(*param);
            }
            Expr::Bin { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            Expr::Not(e) | Expr::Rand(e) => expr(e, out),
        }
    }
    match s {
        Stmt::Let { init, .. } | Stmt::Assign { value: init, .. } => expr(init, out),
        Stmt::Store { param, index, value, .. } => {
            expr(index, out);
            expr(value, out);
            out.push(*param);
        }
        Stmt::If { cond, then_blk, else_blk, .. } => {
            expr(cond, out);
            for s in then_blk.iter().chain(else_blk) {
                stmt_first_params(s, out);
            }
        }
        Stmt::While { cond, body, .. } => {
            expr(cond, out);
            for s in body {
                stmt_first_params(s, out);
            }
        }
        Stmt::Atomic { body, .. } => {
            for s in body {
                stmt_first_params(s, out);
            }
        }
        Stmt::Retry { .. } => {}
    }
}

/// Whether two statements commute: no array conflict (shared param with
/// a write on either side), no local data dependency, and at most one
/// side draws from the `rand()` stream (reordering two draws would swap
/// their values).
fn independent(s: &Stmt, t: &Stmt) -> bool {
    #[derive(Default)]
    struct Effects {
        arr_read: BTreeSet<usize>,
        arr_write: BTreeSet<usize>,
        loc_read: BTreeSet<usize>,
        loc_write: BTreeSet<usize>,
        rand: bool,
        /// `retry` ends the attempt: it never commutes with anything.
        retry: bool,
    }
    fn expr(e: &Expr, fx: &mut Effects) {
        match e {
            Expr::Int(_) | Expr::Tid | Expr::NThreads => {}
            Expr::Var { slot, .. } => {
                fx.loc_read.insert(*slot);
            }
            Expr::Index { param, index, .. } => {
                fx.arr_read.insert(*param);
                expr(index, fx);
            }
            Expr::Bin { lhs, rhs, .. } => {
                expr(lhs, fx);
                expr(rhs, fx);
            }
            Expr::Not(e) => expr(e, fx),
            Expr::Rand(e) => {
                fx.rand = true;
                expr(e, fx);
            }
        }
    }
    fn stmt(s: &Stmt, fx: &mut Effects) {
        match s {
            Stmt::Let { slot, init, .. } => {
                expr(init, fx);
                fx.loc_write.insert(*slot);
            }
            Stmt::Assign { slot, value, .. } => {
                expr(value, fx);
                fx.loc_write.insert(*slot);
            }
            Stmt::Store { param, index, value, .. } => {
                expr(index, fx);
                expr(value, fx);
                fx.arr_write.insert(*param);
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                expr(cond, fx);
                for s in then_blk.iter().chain(else_blk) {
                    stmt(s, fx);
                }
            }
            Stmt::While { cond, body, .. } => {
                expr(cond, fx);
                for s in body {
                    stmt(s, fx);
                }
            }
            Stmt::Atomic { body, .. } => {
                for s in body {
                    stmt(s, fx);
                }
            }
            Stmt::Retry { .. } => fx.retry = true,
        }
    }
    let (mut a, mut b) = (Effects::default(), Effects::default());
    stmt(s, &mut a);
    stmt(t, &mut b);
    if (a.rand && b.rand) || a.retry || b.retry {
        return false;
    }
    let arr_conflict =
        a.arr_write.iter().any(|p| b.arr_read.contains(p) || b.arr_write.contains(p))
            || b.arr_write.iter().any(|p| a.arr_read.contains(p));
    let loc_conflict =
        a.loc_write.iter().any(|x| b.loc_read.contains(x) || b.loc_write.contains(x))
            || b.loc_write.iter().any(|x| a.loc_read.contains(x));
    !arr_conflict && !loc_conflict
}

// --------------------------------------------------------- dynamic gate

/// Grid used by [`dynamic_check`]: 2 blocks × 32 threads.
const GATE_BLOCKS: u32 = 2;
/// Threads per block in the gate grid.
const GATE_THREADS_PER_BLOCK: u32 = 32;

/// Outcome of the dynamic fix-verify gate.
#[derive(Clone, Debug, Default)]
pub struct DynamicReport {
    /// Kernels that ran to completion.
    pub kernels: usize,
    /// Violations observed, rendered as strings (simulator deadlock or
    /// livelock, happens-before races, opacity violations).
    pub violations: Vec<String>,
}

impl DynamicReport {
    /// Whether every kernel ran clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every kernel of `src` on the SIMT simulator — lock-sorting STM,
/// happens-before race detector attached, commit history recorded — and
/// replays the history through `tm-check`: the dynamic half of the
/// fix-verify gate.
///
/// Arrays are sized by [`array_lens`](crate::array_lens) at the gate's
/// 64 threads. Runtime failures (deadlock, livelock, out-of-bounds) are
/// reported as violations rather than errors, so a gate run always
/// produces a report for a compilable program.
///
/// # Errors
///
/// Any [`TxlError`] from compiling `src`, or a simulator setup failure
/// (out of device memory).
pub fn dynamic_check(src: &str, seed: u64) -> Result<DynamicReport, TxlError> {
    let program = crate::compile(src)?;
    let nthreads = GATE_BLOCKS * GATE_THREADS_PER_BLOCK;
    let mut report = DynamicReport::default();
    for kernel in &program.kernels {
        let mut sim_cfg = gpu_sim::SimConfig::with_memory(1 << 16);
        sim_cfg.watchdog_cycles = 100_000_000;
        sim_cfg.stall_cycles = 200_000;
        let sink = gpu_sim::race_sink();
        sim_cfg.race = Some(sink.clone());
        let mut sim = gpu_sim::Sim::new(sim_cfg);

        let stm_cfg = gpu_stm::StmConfig::new(64);
        let shared = gpu_stm::StmShared::init(&mut sim, &stm_cfg)?;
        let rec = gpu_stm::recorder();
        let stm = Rc::new(
            gpu_stm::LockStm::hv_sorting(shared, stm_cfg).with_observers(Some(rec.clone()), None),
        );

        let mut bindings = Vec::new();
        for (p, len) in kernel.params.iter().zip(crate::footprint::array_lens(kernel, nthreads)) {
            let addr = sim.alloc(len)?;
            bindings.push(crate::interp::ArrayBinding::new(p.name.clone(), addr, len));
        }

        let grid = gpu_sim::LaunchConfig::new(GATE_BLOCKS, GATE_THREADS_PER_BLOCK);
        match crate::interp::launch(&mut sim, &stm, kernel, grid, seed, &bindings) {
            Ok(_) => report.kernels += 1,
            Err(e) => report.violations.push(format!("kernel `{}`: {e}", kernel.name)),
        }
        for v in tm_check::gate_violations(&rec.borrow(), &sink.borrow().races) {
            report.violations.push(format!("kernel `{}`: {v}", kernel.name));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(src: &str) -> FixReport {
        fix_source(src, &FixConfig::default()).expect("fixture compiles")
    }

    fn fix_cap(src: &str, cap: u32) -> FixReport {
        let cfg = FixConfig {
            lint: LintConfig { write_set_capacity: Some(cap), ..LintConfig::default() },
            ..FixConfig::default()
        };
        fix_source(src, &cfg).expect("fixture compiles")
    }

    #[test]
    fn tl001_store_is_wrapped() {
        let r = fix("kernel k(a: array) { atomic { a[0] = a[0] + 1; } a[7] = 0; }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(r.fixed.contains("atomic { a[7] = 0; }"), "{}", r.fixed);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn tl001_let_is_split_not_wrapped() {
        let r = fix("kernel k(a: array) { let x = a[0]; atomic { a[1] = x; } a[2] = x; }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(
            r.fixed.contains("let x = 0; atomic { x = a[0]; }"),
            "declaration stays in scope: {}",
            r.fixed
        );
    }

    #[test]
    fn tl001_guard_read_is_residual() {
        let r = fix("kernel k(a: array) { atomic { a[0] = 1; } if a[1] { a[0] = 0; } }");
        // The store inside the branch is wrapped, but the guard read has
        // no statement-level fix and stays residual.
        assert!(!r.is_clean());
        assert!(r.converged, "loop reaches a fixpoint");
        assert!(r.residual.iter().all(|d| d.rule == Rule::NonAtomicSharedAccess));
    }

    #[test]
    fn tl002_lock_protocol_becomes_atomic() {
        let r = fix("kernel locks(lock: array, data: array) {
            let a = tid() % 4;
            let b = 3 - a;
            while lock[a] { }
            lock[a] = 1;
            while lock[b] { }
            lock[b] = 1;
            data[a] = data[a] + 1;
            lock[b] = 0;
            lock[a] = 0;
        }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(r.fixed.contains("atomic { data[a] = data[a] + 1; }"), "{}", r.fixed);
        assert!(!r.fixed.contains("while lock"), "spins gone: {}", r.fixed);
    }

    #[test]
    fn tl003_unbounded_loop_is_hoisted() {
        let r = fix("kernel scatter(out: array) {
            let i = 0;
            atomic { while i < 64 { out[i] = out[i] + 1; i = i + 1; } }
        }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(
            r.fixed.contains("while i < 64 { atomic { out[i] = out[i] + 1; i = i + 1; } }"),
            "{}",
            r.fixed
        );
    }

    #[test]
    fn tl003_oversized_body_is_split() {
        let r =
            fix_cap("kernel k(a: array) { atomic { a[0] = 1; a[1] = 1; a[2] = 1; a[3] = 1; } }", 2);
        assert!(r.is_clean(), "{:?}", r.residual);
        assert_eq!(r.fixed.matches("atomic {").count(), 2, "{}", r.fixed);
    }

    #[test]
    fn tl004_guard_moves_inside() {
        let r = fix("kernel vote(tally: array) {
            if tid() % 2 { atomic { tally[0] = tally[0] + 1; } }
        }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(
            r.fixed.contains("atomic { if tid() % 2 { tally[0] = tally[0] + 1; } }"),
            "{}",
            r.fixed
        );
    }

    #[test]
    fn tl004_nested_guards_converge() {
        let r = fix("kernel k(a: array) {
            let t = tid();
            if t < 8 { if t % 2 { atomic { a[0] = a[0] + 1; } } }
        }");
        assert!(r.is_clean(), "{:?}", r.residual);
        assert!(r.rounds >= 2, "one hoist per round: {}", r.rounds);
        assert!(r.fixed.contains("atomic { if t < 8 { if t % 2 {"), "{}", r.fixed);
    }

    #[test]
    fn tl005_body_is_reordered() {
        let r = fix("kernel transfer(from: array, into: array) {
            let i = tid() % 8;
            atomic {
                from[i] = from[i] - 1;
                into[i] = into[i] + 1;
            }
            atomic {
                into[i] = into[i] - 1;
                from[i] = from[i] + 1;
            }
        }");
        assert!(r.is_clean(), "{:?}", r.residual);
        let second = r.fixed.rfind("atomic").unwrap();
        let tail = &r.fixed[second..];
        assert!(
            tail.find("from[i]").unwrap() < tail.find("into[i]").unwrap(),
            "second block now touches `from` first: {tail}"
        );
    }

    #[test]
    fn tl005_dependent_statements_stay_residual() {
        // The two stores read each other's array: flipping them is not
        // provably sound, so the finding must survive, not be mangled.
        let r = fix("kernel k(a: array, b: array) {
            let i = tid() % 4;
            atomic { a[i] = b[i]; b[i] = a[i] + 1; }
            atomic { b[i] = a[i]; a[i] = b[i] + 1; }
        }");
        assert!(!r.is_clean());
        assert!(r.converged);
        assert!(!r.changed(), "no unsound rewrite applied: {}", r.fixed);
    }

    #[test]
    fn clean_program_is_untouched() {
        let src = "kernel k(a: array) { atomic { a[0] = a[0] + 1; } }";
        let r = fix(src);
        assert!(!r.changed());
        assert_eq!(r.rounds, 0);
        assert!(r.is_clean() && r.converged);
        assert_eq!(r.diff("k.txl"), "");
    }

    #[test]
    fn fix_is_idempotent_on_its_own_output() {
        let src = "kernel k(a: array) { atomic { a[0] = a[0] + 1; } a[7] = 0; }";
        let once = fix(src);
        let twice = fix(&once.fixed);
        assert!(!twice.changed(), "second pass is a no-op");
        assert_eq!(once.fixed, twice.fixed);
    }

    #[test]
    fn suggested_fix_rides_on_diagnostics() {
        let diags = crate::lint::lint_source_with_fixes(
            "kernel k(a: array) { atomic { a[0] = a[0] + 1; } a[7] = 0; }",
            &LintConfig::default(),
        )
        .unwrap();
        assert_eq!(diags.len(), 1);
        let p = diags[0].suggested_fix.as_ref().expect("TL001 has a known fix");
        assert_eq!(p.rule, Rule::NonAtomicSharedAccess);
        assert_eq!(p.edits.len(), 1);
    }

    #[test]
    fn dynamic_gate_passes_on_repaired_program() {
        let r = fix("kernel k(a: array) { atomic { a[0] = a[0] + 1; } a[7] = 0; }");
        assert!(r.is_clean());
        let dyn_report = dynamic_check(&r.fixed, 7).unwrap();
        assert!(dyn_report.is_clean(), "{:?}", dyn_report.violations);
        assert_eq!(dyn_report.kernels, 1);
    }

    #[test]
    fn dynamic_gate_catches_weak_isolation_race() {
        // The unrepaired TL001 bug: transactional increments race with a
        // plain store to the same array.
        let report = dynamic_check(
            "kernel k(a: array) {
                let i = tid() % 8;
                atomic { a[i] = a[i] + 1; }
                a[7] = 0;
            }",
            7,
        )
        .unwrap();
        assert!(!report.is_clean(), "weak isolation must be observed dynamically");
    }
}
