//! The TXL abstract syntax tree.
//!
//! All values are 32-bit words (this is a word-based STM, Section 3.1).
//! Comparisons and logical operators produce 0/1. Local variables are
//! resolved to dense slots by the checker; array parameters are bound to
//! device allocations at launch.
//!
//! Statements and array accesses carry their source [`Span`] so semantic
//! diagnostics and [`crate::lint`] findings point at real source bytes.

use crate::token::Span;

/// Binary operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (wrapping)
    Add,
    /// `-` (wrapping)
    Sub,
    /// `*` (wrapping)
    Mul,
    /// `/` (0 when dividing by zero, like CUDA's defined-behaviour idiom)
    Div,
    /// `%` (0 when dividing by zero)
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<` (modulo 32)
    Shl,
    /// `>>` (modulo 32)
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (evaluates both sides; 0/1)
    AndAnd,
    /// `||` (evaluates both sides; 0/1)
    OrOr,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(u32),
    /// Local variable, resolved to a slot by the checker.
    Var {
        /// Source name.
        name: String,
        /// Slot index (filled by the checker; `usize::MAX` before).
        slot: usize,
    },
    /// Array element read: `name[index]`.
    Index {
        /// Array parameter name.
        array: String,
        /// Parameter index (filled by the checker).
        param: usize,
        /// Element index expression.
        index: Box<Expr>,
        /// Source bytes of the whole `name[index]` access.
        span: Span,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation `!e` (0/1).
    Not(Box<Expr>),
    /// `rand(n)`: uniform per-lane value in `0..n`.
    Rand(Box<Expr>),
    /// `tid()`: the global thread id.
    Tid,
    /// `nthreads()`: total threads in the launch.
    NThreads,
}

/// Statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `let name = expr;` — declares a local.
    Let {
        /// Variable name.
        name: String,
        /// Slot (filled by the checker).
        slot: usize,
        /// Initialiser.
        init: Expr,
        /// Source bytes of the statement.
        span: Span,
    },
    /// `name = expr;`
    Assign {
        /// Variable name.
        name: String,
        /// Slot (filled by the checker).
        slot: usize,
        /// New value.
        value: Expr,
        /// Source bytes of the statement.
        span: Span,
    },
    /// `array[index] = value;`
    Store {
        /// Array parameter name.
        array: String,
        /// Parameter index (filled by the checker).
        param: usize,
        /// Element index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
        /// Source bytes of the statement.
        span: Span,
    },
    /// `if cond { .. } else { .. }`
    If {
        /// Condition (nonzero = taken).
        cond: Expr,
        /// Then-branch.
        then_blk: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_blk: Vec<Stmt>,
        /// Source bytes of the statement.
        span: Span,
    },
    /// `while cond { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Source bytes of the statement.
        span: Span,
    },
    /// `retry;` — abandon the current transaction attempt and block the
    /// lane until some location it has read is overwritten by another
    /// commit (the composable-blocking primitive; lowered by the
    /// interpreter to abort-and-respin, the semantics `gpu_stm::park`
    /// makes cheap). Only legal inside `atomic { .. }`.
    Retry {
        /// Source bytes of the statement.
        span: Span,
    },
    /// `atomic { .. }` — a transaction. `checkpoint` is the set of local
    /// slots the instrumentation pass determined must be saved/restored
    /// across retries (the paper's compiler-determined register
    /// checkpointing, Section 3.2.3).
    Atomic {
        /// Transaction body.
        body: Vec<Stmt>,
        /// Local slots to checkpoint before each attempt.
        checkpoint: Vec<usize>,
        /// Source bytes of the statement.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::Store { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Retry { span }
            | Stmt::Atomic { span, .. } => *span,
        }
    }
}

/// An array parameter of a kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared length, if the program fixed one (checked against the
    /// binding at launch).
    pub declared_len: Option<u32>,
}

/// A kernel definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Array parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Number of local slots (filled by the checker).
    pub n_slots: usize,
    /// Whether the body reads `tid()` anywhere (filled by the checker).
    /// Without it every thread runs the same abstract execution.
    pub uses_tid: bool,
}

/// A parsed program: one or more kernels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Kernels in declaration order.
    pub kernels: Vec<Kernel>,
}

impl Program {
    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}
