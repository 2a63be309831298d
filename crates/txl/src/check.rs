//! Semantic analysis: lexical scoping of locals (resolved to dense
//! slots), array-parameter resolution, and structural rules (no nested
//! `atomic`, no name clashes between locals and arrays).
//!
//! After checking, [`crate::analysis`] annotates each `atomic` block with
//! its register-checkpoint set and the kernel is ready to execute.

use crate::analysis::annotate_checkpoints;
use crate::ast::{Expr, Kernel, Program, Stmt};
use crate::error::TxlError;
use std::collections::HashMap;

/// Checks and resolves every kernel of a program in place, then runs the
/// checkpoint analysis.
///
/// # Errors
///
/// [`TxlError::Check`] on undeclared names, duplicate parameters, local
/// names shadowing array parameters, nested `atomic` blocks, or `retry`
/// outside an `atomic` block.
pub fn check_program(program: &mut Program) -> Result<(), TxlError> {
    for kernel in &mut program.kernels {
        check_kernel(kernel)?;
        annotate_checkpoints(kernel);
    }
    Ok(())
}

struct Checker<'k> {
    kernel_name: &'k str,
    params: HashMap<String, usize>,
    /// Scope stack: each frame maps a name to its slot.
    scopes: Vec<HashMap<String, usize>>,
    n_slots: usize,
    uses_tid: bool,
    in_atomic: bool,
}

fn check_kernel(kernel: &mut Kernel) -> Result<(), TxlError> {
    let mut params = HashMap::new();
    for (i, p) in kernel.params.iter().enumerate() {
        if params.insert(p.name.clone(), i).is_some() {
            return Err(TxlError::Check {
                kernel: kernel.name.clone(),
                message: format!("duplicate parameter `{}`", p.name),
            });
        }
    }
    let mut ck = Checker {
        kernel_name: &kernel.name,
        params,
        scopes: vec![HashMap::new()],
        n_slots: 0,
        uses_tid: false,
        in_atomic: false,
    };
    ck.block(&mut kernel.body)?;
    kernel.n_slots = ck.n_slots;
    kernel.uses_tid = ck.uses_tid;
    Ok(())
}

impl Checker<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, TxlError> {
        Err(TxlError::Check { kernel: self.kernel_name.to_string(), message: message.into() })
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn block(&mut self, stmts: &mut [Stmt]) -> Result<(), TxlError> {
        self.scopes.push(HashMap::new());
        for stmt in stmts.iter_mut() {
            self.stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, stmt: &mut Stmt) -> Result<(), TxlError> {
        match stmt {
            Stmt::Let { name, slot, init, .. } => {
                self.expr(init)?;
                if self.params.contains_key(name.as_str()) {
                    return self.err(format!("local `{name}` shadows an array parameter"));
                }
                let s = self.n_slots;
                self.n_slots += 1;
                // Shadowing an outer local is allowed: innermost wins.
                self.scopes.last_mut().expect("scope stack nonempty").insert(name.clone(), s);
                *slot = s;
                Ok(())
            }
            Stmt::Assign { name, slot, value, .. } => {
                self.expr(value)?;
                match self.lookup(name) {
                    Some(s) => {
                        *slot = s;
                        Ok(())
                    }
                    None => self.err(format!("assignment to undeclared variable `{name}`")),
                }
            }
            Stmt::Store { array, param, index, value, .. } => {
                self.expr(index)?;
                self.expr(value)?;
                match self.params.get(array.as_str()) {
                    Some(p) => {
                        *param = *p;
                        Ok(())
                    }
                    None => self.err(format!("store to undeclared array `{array}`")),
                }
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                self.expr(cond)?;
                self.block(then_blk)?;
                self.block(else_blk)
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond)?;
                self.block(body)
            }
            Stmt::Retry { .. } => {
                if !self.in_atomic {
                    return self.err("`retry` outside an `atomic` block".to_string());
                }
                Ok(())
            }
            Stmt::Atomic { body, .. } => {
                if self.in_atomic {
                    return self.err("nested `atomic` blocks are not supported".to_string());
                }
                self.in_atomic = true;
                let r = self.block(body);
                self.in_atomic = false;
                r
            }
        }
    }

    fn expr(&mut self, expr: &mut Expr) -> Result<(), TxlError> {
        match expr {
            Expr::Int(_) | Expr::NThreads => Ok(()),
            Expr::Tid => {
                self.uses_tid = true;
                Ok(())
            }
            Expr::Var { name, slot } => match self.lookup(name) {
                Some(s) => {
                    *slot = s;
                    Ok(())
                }
                None => {
                    if self.params.contains_key(name.as_str()) {
                        self.err(format!("array `{name}` used as a scalar (index it with `[..]`)"))
                    } else {
                        self.err(format!("use of undeclared variable `{name}`"))
                    }
                }
            },
            Expr::Index { array, param, index, .. } => {
                self.expr(index)?;
                match self.params.get(array.as_str()) {
                    Some(p) => {
                        *param = *p;
                        Ok(())
                    }
                    None => self.err(format!("read of undeclared array `{array}`")),
                }
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            Expr::Not(e) | Expr::Rand(e) => self.expr(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn checked(src: &str) -> Result<Program, TxlError> {
        let mut p = parse(src)?;
        check_program(&mut p)?;
        Ok(p)
    }

    #[test]
    fn resolves_slots_and_params() {
        let p = checked("kernel k(a: array) { let x = 1; let y = x + 2; a[y] = x; }").unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.n_slots, 2);
        let Stmt::Store { param, .. } = &k.body[2] else { panic!() };
        assert_eq!(*param, 0);
    }

    #[test]
    fn records_whether_a_kernel_reads_tid() {
        let uses = |body: &str| {
            checked(&format!("kernel k(a: array) {{ {body} }}")).unwrap().kernels[0].uses_tid
        };
        assert!(!uses("let x = nthreads(); atomic { a[rand(x)] = 1; }"));
        assert!(uses("let x = 0; while x < 3 { if tid() { x = 1; } x = x + 1; }"));
        assert!(uses("atomic { a[0] = !(a[1] + tid()); }"));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let err = checked("kernel k() { let x = y; }").unwrap_err();
        assert!(err.to_string().contains("undeclared variable `y`"));
    }

    #[test]
    fn undeclared_array_rejected() {
        let err = checked("kernel k() { let x = a[0]; }").unwrap_err();
        assert!(err.to_string().contains("undeclared array `a`"));
    }

    #[test]
    fn assignment_before_declaration_rejected() {
        let err = checked("kernel k() { x = 3; }").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn nested_atomic_rejected() {
        let err = checked("kernel k() { atomic { atomic { } } }").unwrap_err();
        assert!(err.to_string().contains("nested"));
    }

    #[test]
    fn scoping_block_locals_expire() {
        let err = checked("kernel k() { if 1 { let x = 1; } x = 2; }").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn shadowing_locals_allowed() {
        let p = checked("kernel k() { let x = 1; if 1 { let x = 2; x = 3; } x = 4; }").unwrap();
        assert_eq!(p.kernels[0].n_slots, 2);
    }

    #[test]
    fn local_shadowing_array_rejected() {
        let err = checked("kernel k(a: array) { let a = 1; }").unwrap_err();
        assert!(err.to_string().contains("shadows"));
    }

    #[test]
    fn array_as_scalar_rejected() {
        let err = checked("kernel k(a: array) { let x = a; }").unwrap_err();
        assert!(err.to_string().contains("used as a scalar"));
    }

    #[test]
    fn duplicate_params_rejected() {
        let err = checked("kernel k(a: array, a: array) { }").unwrap_err();
        assert!(err.to_string().contains("duplicate parameter"));
    }
}
