//! Recursive-descent parser for TXL.
//!
//! Grammar (expression precedence climbs from `||` down to unary):
//!
//! ```text
//! program := kernel*
//! kernel  := 'kernel' IDENT '(' (param (',' param)*)? ')' block
//! param   := IDENT ':' 'array' ('[' INT ']')?
//! block   := '{' stmt* '}'
//! stmt    := 'let' IDENT '=' expr ';'
//!          | IDENT '=' expr ';'
//!          | IDENT '[' expr ']' '=' expr ';'
//!          | 'if' expr block ('else' block)?
//!          | 'while' expr block
//!          | 'atomic' block
//! expr    := or ; or := and ('||' and)* ; and := cmp ('&&' cmp)*
//! cmp     := bitor (('=='|'!='|'<'|'<='|'>'|'>=') bitor)?
//! bitor   := bitxor ('|' bitxor)* ; bitxor := bitand ('^' bitand)*
//! bitand  := shift ('&' shift)* ; shift := add (('<<'|'>>') add)*
//! add     := mul (('+'|'-') mul)* ; mul := unary (('*'|'/'|'%') unary)*
//! unary   := '!' unary | primary
//! primary := INT | IDENT | IDENT '[' expr ']' | IDENT '(' args ')' | '(' expr ')'
//! ```
//!
//! Built-in calls: `rand(n)`, `tid()`, `nthreads()`.
//!
//! Programs nest at most [`MAX_DEPTH`] levels deep: each block, each
//! unary operand (so each `!`, parenthesis and index or call argument)
//! and each binary operator of a chain is one level.

use crate::ast::{BinOp, Expr, Kernel, Param, Program, Stmt};
use crate::error::TxlError;
use crate::token::{lex, Span, Spanned, Tok};

/// Deepest nesting a program may have (see the module docs for what
/// counts as a level). Every pass after the parser walks the tree
/// recursively, so a deeper program would overflow the stack instead of
/// failing with an error. At this bound the deepest accepted programs
/// pass every pass in about 1.5 MiB of stack in a debug build, inside
/// the 2 MiB of a test thread
/// (`tests::deepest_accepted_programs_pass_every_pass`).
pub const MAX_DEPTH: u32 = 128;

/// Parses a TXL program (without semantic checking; see
/// [`crate::check::check_program`]).
///
/// # Errors
///
/// [`TxlError::Lex`] or [`TxlError::Parse`] with a 1-based line number,
/// also when the program nests deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Program, TxlError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let mut kernels = Vec::new();
    while !p.at_end() {
        kernels.push(p.kernel()?);
    }
    Ok(Program { kernels })
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Nesting levels entered and not yet left.
    depth: u32,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .map_or_else(|| self.toks.last().map_or(0, |t| t.span.line), |t| t.span.line)
    }

    /// Span of the token about to be consumed; empty at end of input
    /// (anchored just past the last token).
    fn cur_span(&self) -> Span {
        match self.toks.get(self.pos) {
            Some(t) => t.span,
            None => self.toks.last().map_or(Span::DUMMY, |t| Span {
                start: t.span.end,
                end: t.span.end,
                line: t.span.line,
            }),
        }
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        self.pos.checked_sub(1).and_then(|p| self.toks.get(p)).map_or(Span::DUMMY, |t| t.span)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, TxlError> {
        Err(TxlError::Parse { line: self.line(), span: self.cur_span(), message: message.into() })
    }

    /// Enters one more nesting level at the current token; errors past
    /// [`MAX_DEPTH`]. The caller leaves it by decrementing `depth`.
    fn deeper(&mut self) -> Result<(), TxlError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("program nests deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn expect(&mut self, want: &Tok) -> Result<(), TxlError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected `{want}`, found `{t}`"))
            }
            None => self.err(format!("expected `{want}`, found end of input")),
        }
    }

    fn ident(&mut self) -> Result<String, TxlError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected identifier, found `{t}`"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    fn kernel(&mut self) -> Result<Kernel, TxlError> {
        self.expect(&Tok::Kernel)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect(&Tok::Colon)?;
                self.expect(&Tok::Array)?;
                let declared_len = if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let n = match self.bump() {
                        Some(Tok::Int(v)) => v,
                        _ => return self.err("expected array length literal"),
                    };
                    self.expect(&Tok::RBracket)?;
                    Some(n)
                } else {
                    None
                };
                params.push(Param { name: pname, declared_len });
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        Ok(Kernel { name, params, body, n_slots: 0, uses_tid: false })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, TxlError> {
        self.deeper()?;
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.at_end() {
                return self.err("unterminated block (missing `}`)");
            }
            stmts.push(self.stmt()?);
        }
        self.pos += 1; // consume `}`
        self.depth -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, TxlError> {
        let start = self.cur_span();
        match self.peek() {
            Some(Tok::Let) => {
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::Assign)?;
                let init = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Let { name, slot: usize::MAX, init, span: start.to(self.prev_span()) })
            }
            Some(Tok::If) => {
                self.pos += 1;
                let cond = self.expr()?;
                let then_blk = self.block()?;
                let else_blk = if self.peek() == Some(&Tok::Else) {
                    self.pos += 1;
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then_blk, else_blk, span: start.to(self.prev_span()) })
            }
            Some(Tok::While) => {
                self.pos += 1;
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span: start.to(self.prev_span()) })
            }
            Some(Tok::Atomic) => {
                self.pos += 1;
                let body = self.block()?;
                Ok(Stmt::Atomic { body, checkpoint: Vec::new(), span: start.to(self.prev_span()) })
            }
            Some(Tok::Retry) => {
                self.pos += 1;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Retry { span: start.to(self.prev_span()) })
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                match self.peek() {
                    Some(Tok::Assign) => {
                        self.pos += 1;
                        let value = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Assign {
                            name,
                            slot: usize::MAX,
                            value,
                            span: start.to(self.prev_span()),
                        })
                    }
                    Some(Tok::LBracket) => {
                        self.pos += 1;
                        let index = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        self.expect(&Tok::Assign)?;
                        let value = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Store {
                            array: name,
                            param: usize::MAX,
                            index,
                            value,
                            span: start.to(self.prev_span()),
                        })
                    }
                    _ => self.err("expected `=` or `[` after identifier"),
                }
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected statement, found `{t}`"))
            }
            None => self.err("expected statement, found end of input"),
        }
    }

    fn expr(&mut self) -> Result<Expr, TxlError> {
        self.bin_level(0)
    }

    /// Precedence climbing: the operators of `LEVELS[min..]`, each level
    /// left-associative and binding tighter than the ones before it.
    fn bin_level(&mut self, min: usize) -> Result<Expr, TxlError> {
        const LEVELS: &[&[(Tok, BinOp)]] = &[
            &[(Tok::OrOr, BinOp::OrOr)],
            &[(Tok::AndAnd, BinOp::AndAnd)],
            &[
                (Tok::Eq, BinOp::Eq),
                (Tok::Ne, BinOp::Ne),
                (Tok::Le, BinOp::Le),
                (Tok::Lt, BinOp::Lt),
                (Tok::Ge, BinOp::Ge),
                (Tok::Gt, BinOp::Gt),
            ],
            &[(Tok::Pipe, BinOp::Or)],
            &[(Tok::Caret, BinOp::Xor)],
            &[(Tok::Amp, BinOp::And)],
            &[(Tok::Shl, BinOp::Shl), (Tok::Shr, BinOp::Shr)],
            &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
            &[(Tok::Star, BinOp::Mul), (Tok::Slash, BinOp::Div), (Tok::Percent, BinOp::Rem)],
        ];
        let operator = |tok: &Tok| {
            LEVELS.iter().enumerate().skip(min).find_map(|(level, ops)| {
                ops.iter().find(|(t, _)| t == tok).map(|&(_, op)| (level, op))
            })
        };
        let mut lhs = self.unary()?;
        // The chain is built left-deep in this loop: each operator nests
        // the chain so far one level deeper.
        let mut chain = 0;
        while let Some((level, op)) = self.peek().and_then(operator) {
            self.deeper()?;
            chain += 1;
            self.pos += 1;
            let rhs = self.bin_level(level + 1)?;
            lhs = Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth -= chain;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, TxlError> {
        self.deeper()?;
        let e = if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            Expr::Not(Box::new(self.unary()?))
        } else {
            self.primary()?
        };
        self.depth -= 1;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, TxlError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::LBracket) => {
                    let start = self.prev_span();
                    self.pos += 1;
                    let index = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    Ok(Expr::Index {
                        array: name,
                        param: usize::MAX,
                        index: Box::new(index),
                        span: start.to(self.prev_span()),
                    })
                }
                Some(Tok::LParen) => {
                    self.pos += 1;
                    match name.as_str() {
                        "rand" => {
                            let arg = self.expr()?;
                            self.expect(&Tok::RParen)?;
                            Ok(Expr::Rand(Box::new(arg)))
                        }
                        "tid" => {
                            self.expect(&Tok::RParen)?;
                            Ok(Expr::Tid)
                        }
                        "nthreads" => {
                            self.expect(&Tok::RParen)?;
                            Ok(Expr::NThreads)
                        }
                        other => self.err(format!(
                            "unknown builtin `{other}` (supported: rand, tid, nthreads)"
                        )),
                    }
                }
                _ => Ok(Expr::Var { name, slot: usize::MAX }),
            },
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected expression, found `{t}`"))
            }
            None => self.err("expected expression, found end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_kernel() {
        let p = parse("kernel k(a: array) { let x = 1; a[x] = x + 2; }").unwrap();
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.name, "k");
        assert_eq!(k.params.len(), 1);
        assert_eq!(k.body.len(), 2);
    }

    #[test]
    fn parses_atomic_if_while() {
        let src = r#"
            kernel k(a: array[64]) {
                let i = 0;
                while i < 4 {
                    atomic {
                        if a[i] == 0 { a[i] = tid(); } else { i = i + 1; }
                    }
                    i = i + 1;
                }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.kernels[0].params[0].declared_len, Some(64));
        assert!(matches!(p.kernels[0].body[1], Stmt::While { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("kernel k() { let x = 1 + 2 * 3; }").unwrap();
        let Stmt::Let { init, .. } = &p.kernels[0].body[0] else { panic!() };
        let Expr::Bin { op: BinOp::Add, rhs, .. } = init else { panic!("got {init:?}") };
        assert!(matches!(**rhs, Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_cmp_over_logic() {
        let p = parse("kernel k() { let x = 1 < 2 && 3 == 3; }").unwrap();
        let Stmt::Let { init, .. } = &p.kernels[0].body[0] else { panic!() };
        assert!(matches!(init, Expr::Bin { op: BinOp::AndAnd, .. }));
    }

    #[test]
    fn error_reports_line() {
        let err = parse("kernel k() {\n let = 3;\n}").unwrap_err();
        match err {
            TxlError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parse_error_span_points_at_offending_token() {
        let src = "kernel k() {\n let = 3;\n}";
        let err = parse(src).unwrap_err();
        let TxlError::Parse { span, .. } = err else { panic!("{err}") };
        // The error is "expected identifier, found `=`": span covers the `=`.
        assert_eq!(span.snippet(src), "=");
    }

    #[test]
    fn parse_error_at_eof_anchors_past_last_token() {
        let src = "kernel k() { let x = 1;";
        let err = parse(src).unwrap_err();
        let TxlError::Parse { span, .. } = err else { panic!("{err}") };
        assert_eq!(span.start, src.len() as u32);
        assert_eq!(span.start, span.end, "EOF span is empty");
    }

    #[test]
    fn stmt_spans_cover_source_text() {
        let src = "kernel k(a: array) { let x = 1; a[x] = x + 2; atomic { a[0] = 1; } }";
        let p = parse(src).unwrap();
        let body = &p.kernels[0].body;
        assert_eq!(body[0].span().snippet(src), "let x = 1;");
        assert_eq!(body[1].span().snippet(src), "a[x] = x + 2;");
        assert_eq!(body[2].span().snippet(src), "atomic { a[0] = 1; }");
    }

    #[test]
    fn index_expr_spans_cover_access() {
        let src = "kernel k(a: array) { let x = a[3 + 4]; }";
        let p = parse(src).unwrap();
        let Stmt::Let { init, .. } = &p.kernels[0].body[0] else { panic!() };
        let Expr::Index { span, .. } = init else { panic!("got {init:?}") };
        assert_eq!(span.snippet(src), "a[3 + 4]");
    }

    #[test]
    fn malformed_programs_reject_with_spans() {
        // Every span must land inside the source and carry the right line.
        for (src, line) in [
            ("kernel", 1),
            ("kernel k(", 1),
            ("kernel k(a: foo) { }", 1),
            ("kernel k() { x }", 1),
            ("kernel k() {\n a[1] 2; }", 2),
            ("kernel k() {\n\n let x = ; }", 3),
            ("kernel k() { let x = (1; }", 1),
        ] {
            let err = parse(src).unwrap_err();
            let TxlError::Parse { line: l, span, .. } = err else { panic!("{src}: {err}") };
            assert_eq!(l, line, "line for {src:?}");
            assert!(span.end as usize <= src.len(), "span {span} inside {src:?}");
            assert!(span.start <= span.end, "well-formed span for {src:?}");
        }
    }

    #[test]
    fn unknown_builtin_rejected() {
        let err = parse("kernel k() { let x = foo(1); }").unwrap_err();
        assert!(err.to_string().contains("unknown builtin"));
    }

    #[test]
    fn unterminated_block_rejected() {
        assert!(parse("kernel k() { let x = 1;").is_err());
    }

    /// The four ways to nest deeply, `n` levels of each on line 2 of a
    /// kernel that stores the result, so every pass has work to do.
    fn deep(shape: usize, n: usize) -> String {
        let body = match shape {
            0 => format!("let x = {}1{};\n a[0] = x;", "(".repeat(n), ")".repeat(n)),
            1 => format!("let x = 1{};\n a[0] = x;", "+1".repeat(n)),
            2 => format!("let x = {}1;\n a[0] = x;", "!".repeat(n)),
            _ => format!("{}atomic {{ a[0] = a[0] + 1; }}{}", "if 1 { ".repeat(n), " }".repeat(n)),
        };
        format!("kernel k(a: array[4]) {{\n {body}\n}}\n")
    }

    #[test]
    fn deep_nesting_is_a_parse_error_naming_the_line() {
        for (shape, n) in [(0, 10_000), (1, 100_000), (2, 100_000), (3, 100_000)] {
            let err = parse(&deep(shape, n)).unwrap_err();
            let TxlError::Parse { line, message, .. } = err else { panic!("shape {shape}") };
            assert_eq!(line, 2, "shape {shape}");
            assert!(message.contains("deeper than"), "shape {shape}: {message}");
        }
    }

    #[test]
    fn deepest_accepted_programs_pass_every_pass() {
        use crate::{analyze_source, compile, fix_source, lint_source, thread_footprint};
        for shape in 0..4 {
            // The largest accepted count: one more level is rejected.
            let n = (1..).find(|&n| parse(&deep(shape, n)).is_err()).unwrap() - 1;
            assert!(n >= MAX_DEPTH as usize / 2, "shape {shape} accepts only {n} levels");
            let src = deep(shape, n);
            let program = compile(&src).unwrap();
            lint_source(&src, &crate::LintConfig::default()).unwrap();
            thread_footprint(&program.kernels[0], 0, 64);
            analyze_source(&src, &crate::CostConfig::default()).unwrap();
            fix_source(&src, &crate::FixConfig::default()).unwrap();
            let report = crate::fix::dynamic_check(&src, 1).unwrap();
            assert_eq!(report.kernels, 1, "shape {shape}: {:?}", report.violations);
        }
    }

    #[test]
    fn multiple_kernels() {
        let p = parse("kernel a() { } kernel b() { }").unwrap();
        assert!(p.kernel("a").is_some());
        assert!(p.kernel("b").is_some());
        assert!(p.kernel("c").is_none());
    }
}
