//! # txl — a tiny transactional GPU-kernel language
//!
//! The GPU-STM paper closes its programming-model discussion with the
//! observation that *"compiler support can further reduce the complexity
//! of GPU-STM programming: (1) log operations and opacity checking can be
//! automatically inserted, and (2) explicit calls to TXRead/Write can be
//! replaced by simple atomic annotations"* (Section 4.1), and that a
//! compiler can infer the registers needing checkpointing across
//! transaction retries (Section 3.2.3). This crate builds exactly that
//! stack for a small C-like kernel language:
//!
//! - a lexer/parser ([`parse`]),
//! - a semantic checker with lexical scoping ([`check`]),
//! - a **register-checkpoint inference** based on liveness and
//!   may/must-definition dataflow analyses ([`analysis`]),
//! - a warp-wide SIMT interpreter ([`launch`]) that auto-inserts the
//!   `TXRead`/`TXWrite` barriers, opacity checks and the retry loop for
//!   `atomic { .. }` blocks, over **any** STM variant.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{LaunchConfig, Sim, SimConfig};
//! use gpu_stm::{LockStm, StmConfig, StmShared};
//! use txl::{compile, launch, ArrayBinding};
//! use std::rc::Rc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile(
//!     "kernel add(counters: array) {
//!          let i = tid() % 16;
//!          atomic { counters[i] = counters[i] + 1; }
//!      }",
//! )?;
//! let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
//! let cfg = StmConfig::new(1 << 8);
//! let shared = StmShared::init(&mut sim, &cfg)?;
//! let counters = sim.alloc(16)?;
//! let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
//! launch(
//!     &mut sim,
//!     &stm,
//!     program.kernel("add").unwrap(),
//!     LaunchConfig::new(2, 64),
//!     7,
//!     &[ArrayBinding::new("counters", counters, 16)],
//! )?;
//! let total: u32 = sim.read_slice(counters, 16).iter().sum();
//! assert_eq!(total, 128); // no lost updates
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod check;
pub mod cost;
mod error;
pub mod fix;
pub mod footprint;
mod interp;
pub mod lint;
pub mod parse;
pub mod patch;
pub mod token;

pub use ast::{Kernel, Program};
pub use cost::{analyze_program, analyze_source, CostConfig, StaticProfile, SymBound};
pub use error::TxlError;
pub use fix::{fix_source, plan, AppliedPatch, DynamicReport, FixConfig, FixReport};
pub use footprint::{
    array_lens, kernel_footprint, thread_footprint, Interval, KernelFootprint, ParamFootprint,
};
pub use interp::{launch, ArrayBinding};
pub use lint::{lint_program, lint_source, lint_source_with_fixes, Diagnostic, LintConfig, Rule};
pub use parse::parse;
pub use patch::{unified_diff, Edit, EditSet, Patch, PatchError};
pub use token::Span;

/// Parses, checks and instruments a TXL program: the full front-end.
///
/// # Errors
///
/// Any [`TxlError`] from lexing, parsing or semantic checking.
pub fn compile(src: &str) -> Result<Program, TxlError> {
    let mut program = parse(src)?;
    check::check_program(&mut program)?;
    Ok(program)
}
