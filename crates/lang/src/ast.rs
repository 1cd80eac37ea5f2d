//! Abstract syntax tree for Cee.
//!
//! The parser produces an untyped tree; [`crate::sema`] decorates it in
//! place: every [`Expr`] gets a resolved [`Type`], every variable reference
//! gets a [`VarBinding`], and every declaration a slot index. Lowering in
//! `dse-ir` consumes the decorated tree.

use crate::source::SourceSpan;
use crate::types::{Type, TypeTable};

/// Binding of a name to a storage slot, resolved by semantic analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarBinding {
    /// Index into [`Program::globals`].
    Global(usize),
    /// Index into the enclosing function's [`Function::locals`]
    /// (parameters occupy the first slots).
    Local(usize),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Bitwise complement `~x`.
    BitNot,
    /// Logical not `!x`.
    Not,
}

/// Binary operators (assignment and member/index are separate nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    /// Short-circuit `&&`.
    LogAnd,
    /// Short-circuit `||`.
    LogOr,
}

impl BinOp {
    /// True for `< > <= >= == !=` and the logical connectives — operators
    /// whose result is an `int` truth value.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Gt
                | BinOp::Le
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::LogAnd
                | BinOp::LogOr
        )
    }
}

/// Compound-assignment operator carried by [`ExprKind::Assign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// Plain `=`.
    Set,
    /// `op=` for the given arithmetic/bitwise operator.
    Compound(BinOp),
}

/// Sentinel [`Expr::eid`] meaning "not numbered" (synthetic nodes made by
/// transformations after [`number_exprs`] ran keep this value).
pub const NO_EID: u32 = u32::MAX;

/// Expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source location.
    pub span: SourceSpan,
    /// Resolved type; `None` until sema runs. Array-typed expressions keep
    /// their array type here; consumers apply decay where C does.
    pub ty: Option<Type>,
    /// Stable unique id assigned by [`number_exprs`] after sema; used to key
    /// memory-access sites across profiling and transformation.
    pub eid: u32,
}

impl Expr {
    /// Creates an untyped expression node.
    pub fn new(kind: ExprKind, span: SourceSpan) -> Self {
        Expr {
            kind,
            span,
            ty: None,
            eid: NO_EID,
        }
    }

    /// Creates a synthetic, already-typed node (used by transformations).
    pub fn typed(kind: ExprKind, ty: Type) -> Self {
        Expr {
            kind,
            span: SourceSpan::default(),
            ty: Some(ty),
            eid: NO_EID,
        }
    }

    /// The resolved type after sema.
    ///
    /// # Panics
    ///
    /// Panics if called before semantic analysis.
    pub fn ty(&self) -> &Type {
        self.ty.as_ref().expect("expression not yet typed by sema")
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal (char literals are folded here too).
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference; `binding` is filled by sema.
    Var {
        name: String,
        binding: Option<VarBinding>,
    },
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment `lhs = rhs` or `lhs op= rhs`; value is the stored value.
    Assign {
        op: AssignOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Conditional `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function or builtin call.
    Call { name: String, args: Vec<Expr> },
    /// Array/pointer indexing `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Struct member access `base.field`; `p->f` parses as `(*p).f`.
    Field { base: Box<Expr>, field: String },
    /// Pointer dereference `*p`.
    Deref(Box<Expr>),
    /// Address-of `&lvalue`.
    AddrOf(Box<Expr>),
    /// Explicit cast `(T)e`.
    Cast(Type, Box<Expr>),
    /// `sizeof(T)`.
    SizeofType(Type),
    /// `sizeof expr` (type-of-expression, operand not evaluated).
    SizeofExpr(Box<Expr>),
    /// `++x`, `x++`, `--x`, `x--`.
    IncDec {
        /// True for prefix forms.
        pre: bool,
        /// True for increment, false for decrement.
        inc: bool,
        /// The lvalue operand.
        target: Box<Expr>,
    },
}

/// Marks attached to a loop via `#pragma`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopMark {
    /// Set by `#pragma candidate [...]` — the loop is a parallelization
    /// candidate (the paper's "promising loop").
    pub candidate: bool,
    /// Optional label given after `candidate`, used to refer to the loop
    /// from the harness (e.g. `#pragma candidate main_loop`).
    pub label: Option<String>,
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source location.
    pub span: SourceSpan,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration; `slot` is assigned by sema.
    Decl {
        name: String,
        ty: Type,
        init: Option<Expr>,
        slot: Option<usize>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) then [else els]`.
    If {
        cond: Expr,
        then: Block,
        els: Option<Block>,
    },
    /// `while (cond) body`.
    While {
        cond: Expr,
        body: Block,
        mark: LoopMark,
    },
    /// `do body while (cond);`.
    DoWhile {
        body: Block,
        cond: Expr,
        mark: LoopMark,
    },
    /// `for (init; cond; step) body`. `init` may be a declaration.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Block,
        mark: LoopMark,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return [e];`
    Return(Option<Expr>),
    /// Nested block scope.
    Block(Block),
}

impl StmtKind {
    /// Returns the loop mark if this statement is a loop.
    pub fn loop_mark(&self) -> Option<&LoopMark> {
        match self {
            StmtKind::While { mark, .. }
            | StmtKind::DoWhile { mark, .. }
            | StmtKind::For { mark, .. } => Some(mark),
            _ => None,
        }
    }
}

/// A `{ ... }` sequence of statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (arrays decay to pointers at sema time).
    pub ty: Type,
    /// Source location.
    pub span: SourceSpan,
}

/// A local variable slot, collected by sema (parameters first).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalVar {
    /// Source name (may repeat across sibling scopes; slots are unique).
    pub name: String,
    /// Variable type.
    pub ty: Type,
    /// True if this slot is a parameter.
    pub is_param: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Block,
    /// All local slots, populated by sema; params occupy `0..params.len()`.
    pub locals: Vec<LocalVar>,
    /// Source location of the header.
    pub span: SourceSpan,
}

/// Constant initializer for globals.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstInit {
    /// Scalar integer value.
    Int(i64),
    /// Scalar float value.
    Float(f64),
    /// Brace-enclosed list for arrays; shorter lists zero-fill the rest.
    List(Vec<ConstInit>),
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Global name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional constant initializer (zero-initialized otherwise).
    pub init: Option<ConstInit>,
    /// Source location.
    pub span: SourceSpan,
}

/// A complete, possibly typed, Cee translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Struct layouts.
    pub types: TypeTable,
    /// Global variables in declaration order.
    pub globals: Vec<GlobalVar>,
    /// Function definitions in declaration order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<(usize, &GlobalVar)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
    }
}

/// Calls `f` on every expression in the statement, children before parents,
/// in deterministic program order.
pub fn visit_exprs_in_stmt(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                visit_exprs(e, f);
            }
        }
        StmtKind::Expr(e) => visit_exprs(e, f),
        StmtKind::If { cond, then, els } => {
            visit_exprs(cond, f);
            visit_exprs_in_block(then, f);
            if let Some(b) = els {
                visit_exprs_in_block(b, f);
            }
        }
        StmtKind::While { cond, body, .. } => {
            visit_exprs(cond, f);
            visit_exprs_in_block(body, f);
        }
        StmtKind::DoWhile { body, cond, .. } => {
            visit_exprs_in_block(body, f);
            visit_exprs(cond, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(s) = init {
                visit_exprs_in_stmt(s, f);
            }
            if let Some(c) = cond {
                visit_exprs(c, f);
            }
            if let Some(s) = step {
                visit_exprs(s, f);
            }
            visit_exprs_in_block(body, f);
        }
        StmtKind::Return(Some(e)) => visit_exprs(e, f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => visit_exprs_in_block(b, f),
    }
}

/// Calls `f` on every expression in the block (see [`visit_exprs_in_stmt`]).
pub fn visit_exprs_in_block(block: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for s in &mut block.stmts {
        visit_exprs_in_stmt(s, f);
    }
}

/// Calls `f` on every expression node under `e`, children first.
pub fn visit_exprs(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match &mut e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::Var { .. }
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary(_, a)
        | ExprKind::Deref(a)
        | ExprKind::AddrOf(a)
        | ExprKind::Cast(_, a)
        | ExprKind::SizeofExpr(a)
        | ExprKind::IncDec { target: a, .. } => visit_exprs(a, f),
        ExprKind::Binary(_, a, b)
        | ExprKind::Assign { lhs: a, rhs: b, .. }
        | ExprKind::Index { base: a, index: b } => {
            visit_exprs(a, f);
            visit_exprs(b, f);
        }
        ExprKind::Cond(a, b, c) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
            visit_exprs(c, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                visit_exprs(a, f);
            }
        }
        ExprKind::Field { base, .. } => visit_exprs(base, f),
    }
    f(e);
}

/// Read-only counterpart of [`visit_exprs`]: calls `f` on `e` and every
/// expression below it, parents before children, handing out references
/// that outlive the traversal.
pub fn walk_exprs<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::Var { .. }
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary(_, a)
        | ExprKind::Deref(a)
        | ExprKind::AddrOf(a)
        | ExprKind::Cast(_, a)
        | ExprKind::SizeofExpr(a)
        | ExprKind::IncDec { target: a, .. } => walk_exprs(a, f),
        ExprKind::Binary(_, a, b)
        | ExprKind::Assign { lhs: a, rhs: b, .. }
        | ExprKind::Index { base: a, index: b } => {
            walk_exprs(a, f);
            walk_exprs(b, f);
        }
        ExprKind::Cond(a, b, c) => {
            walk_exprs(a, f);
            walk_exprs(b, f);
            walk_exprs(c, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_exprs(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_exprs(base, f),
    }
}

/// Calls `f` on every expression in the statement, in program order.
pub fn walk_exprs_in_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_exprs(e, f);
            }
        }
        StmtKind::Expr(e) => walk_exprs(e, f),
        StmtKind::If { cond, then, els } => {
            walk_exprs(cond, f);
            walk_exprs_in_block(then, f);
            if let Some(b) = els {
                walk_exprs_in_block(b, f);
            }
        }
        StmtKind::While { cond, body, .. } => {
            walk_exprs(cond, f);
            walk_exprs_in_block(body, f);
        }
        StmtKind::DoWhile { body, cond, .. } => {
            walk_exprs_in_block(body, f);
            walk_exprs(cond, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(s) = init {
                walk_exprs_in_stmt(s, f);
            }
            if let Some(c) = cond {
                walk_exprs(c, f);
            }
            if let Some(s) = step {
                walk_exprs(s, f);
            }
            walk_exprs_in_block(body, f);
        }
        StmtKind::Return(Some(e)) => walk_exprs(e, f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => walk_exprs_in_block(b, f),
    }
}

/// Calls `f` on every expression in the block, in program order.
pub fn walk_exprs_in_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &block.stmts {
        walk_exprs_in_stmt(s, f);
    }
}

/// Assigns a unique [`Expr::eid`] to every expression in the program, in
/// deterministic order. Returns the number of ids assigned. Called once
/// after sema; synthetic nodes created later keep [`NO_EID`].
pub fn number_exprs(program: &mut Program) -> u32 {
    let mut next = 0u32;
    for f in &mut program.functions {
        visit_exprs_in_block(&mut f.body, &mut |e| {
            e.eid = next;
            next += 1;
        });
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpan;

    #[test]
    fn expr_ty_panics_before_sema() {
        let e = Expr::new(ExprKind::IntLit(1), SourceSpan::default());
        let r = std::panic::catch_unwind(|| {
            let _ = e.ty();
        });
        assert!(r.is_err());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::LogAnd.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Shl.is_comparison());
    }

    #[test]
    fn loop_mark_accessor() {
        let mark = LoopMark {
            candidate: true,
            label: Some("l".into()),
        };
        let s = StmtKind::While {
            cond: Expr::new(ExprKind::IntLit(1), SourceSpan::default()),
            body: Block::default(),
            mark: mark.clone(),
        };
        assert_eq!(s.loop_mark(), Some(&mark));
        assert_eq!(StmtKind::Break.loop_mark(), None);
    }

    #[test]
    fn program_lookup_helpers() {
        let mut p = Program::default();
        p.globals.push(GlobalVar {
            name: "g".into(),
            ty: crate::types::Type::Int,
            init: None,
            span: SourceSpan::default(),
        });
        assert!(p.global("g").is_some());
        assert!(p.global("h").is_none());
        assert!(p.function("main").is_none());
    }
}
