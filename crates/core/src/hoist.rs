//! One derivation per pointer assignment (paper Section 3.4: what GCC's
//! loop-invariant code motion did for the paper's generated code).
//!
//! The rewriter redirects a private access through a named pointer `p`
//! inline: `(p + __tid() * span / sizeof(*p))[i]` — a multiply, a divide
//! and an add per *access*, over operands that change only when `p` or its
//! span is stored. This pass runs over one rewritten candidate body and
//! one such pointer at a time: it declares a body-scoped private
//! `T *__rd_p[N]`, stores the redirected pointer into `__rd_p[__tid()]`
//! where it becomes known, and addresses every access through that slot
//! (which the register translator keeps in a register: it is a tid place
//! the body itself assigns).
//!
//! **Where derivations go.** Let the *scope block* be the block of the body
//! that declares `p` (the body's top level for a pointer declared outside
//! it). Along the scope block's own statement list the derivation is lazy:
//! it sits immediately before the first statement that uses it, and again
//! before the next using statement after one that stores `p` — so a
//! pointer assigned twice before its first use is derived once, after
//! both, and a derivation whose pointer read is an ordered DOACROSS site
//! lands inside the statement group (hence the `Wait`/`Post` window) of
//! the access it serves. Inside a compound statement that uses the slot,
//! and inside a branch met while the slot is valid, derivations are eager:
//! immediately after each statement that stores `p` or its span, or calls
//! a function that may.
//!
//! **What is left alone.** An expression base (`walk->next`) keeps the
//! inline form: nothing names when it changes. A pointer is skipped when a
//! condition, a `for` header or a nested expression stores it while the
//! same statement uses it (no statement boundary to derive at), and when
//! the derivations would not be outweighed by the uses they serve, each
//! weighted by its loop depth — one use per assignment is not worth a slot.
//! Nested candidate loops are opaque: their bodies may run on other
//! workers, whose slots this body never derives.

use dse_lang::ast::*;
use dse_lang::types::Type;
use dse_lang::SourceSpan;
use std::collections::HashSet;

/// One named pointer whose inline redirection may be hoisted.
pub(crate) struct Candidate {
    /// The pointer variable's name.
    pub name: String,
    /// Whether the variable itself is expanded (its cells are `p[k]`).
    pub expanded: bool,
    /// The inline redirection, exactly as the rewriter emitted it.
    pub inline: Expr,
    /// Transformed type of the redirected pointer.
    pub ptr_ty: Type,
    /// User functions that may store the pointer (it is a global).
    pub killers: HashSet<String>,
}

/// What hoisting one pointer did.
pub(crate) struct Hoisted {
    /// Accesses now addressing through the slot.
    pub uses: usize,
    /// Derivation statements emitted.
    pub derivations: usize,
}

/// Prefix of the body-scoped slots holding hoisted redirections.
pub const RD_PREFIX: &str = "__rd_";

/// Hoists `cand`'s redirection out of the accesses of one rewritten
/// candidate body. `sync[i]` says whether top-level statement `i` belongs
/// to the DOACROSS window; inserted statements inherit it from the
/// statement they serve. Leaves the body untouched and returns `None` when
/// the pointer cannot or should not be hoisted.
pub(crate) fn hoist(
    stmts: &mut Vec<Stmt>,
    sync: &mut Vec<bool>,
    cand: &Candidate,
    nthreads: u64,
) -> Option<Hoisted> {
    let slot = format!("{RD_PREFIX}{}", cand.name);
    let mut deps = vec![cand.name.clone()];
    walk_exprs(&cand.inline, &mut |e| {
        if let ExprKind::Var { name, .. } = &e.kind {
            if !deps.contains(name) {
                deps.push(name.clone());
            }
        }
    });
    let mut h = Hoist {
        cand,
        deps,
        place: index(var(&slot), call("__tid")),
        apply: false,
        uses: 0,
        derivations: 0,
        use_weight: 0,
        derive_weight: 0,
    };
    // A dry run decides; only a pointer worth hoisting rewrites the body.
    h.body(stmts, sync).ok()?;
    if h.use_weight <= h.derive_weight {
        return None;
    }
    h = Hoist {
        apply: true,
        uses: 0,
        derivations: 0,
        ..h
    };
    h.body(stmts, sync)
        .unwrap_or_else(|Unhoistable| unreachable!("the dry run walked the same statements"));
    let decl = Stmt {
        kind: StmtKind::Decl {
            name: slot,
            ty: cand.ptr_ty.clone().array_of(nthreads),
            init: None,
            slot: None,
        },
        span: SourceSpan::default(),
    };
    stmts.insert(0, decl);
    sync.insert(0, false);
    Some(Hoisted {
        uses: h.uses,
        derivations: h.derivations,
    })
}

/// The pointer cannot be hoisted: something stores it where no statement
/// boundary follows.
struct Unhoistable;

struct Hoist<'a> {
    cand: &'a Candidate,
    /// Names whose stores end a derivation's validity: the pointer and the
    /// root of its span.
    deps: Vec<String>,
    /// `__rd_p[__tid()]`.
    place: Expr,
    /// Rewrite the body, or only count what rewriting it would do.
    apply: bool,
    uses: usize,
    derivations: usize,
    use_weight: u64,
    derive_weight: u64,
}

/// A use or derivation at loop depth `d` counts `8^d`.
fn weight(depth: u32) -> u64 {
    8u64.pow(depth.min(8))
}

impl Hoist<'_> {
    /// The whole body: within the block that declares the pointer, or from
    /// the body's first statement for a pointer declared outside it.
    fn body(&mut self, stmts: &mut Vec<Stmt>, sync: &mut Vec<bool>) -> Result<(), Unhoistable> {
        if !self.in_scope_block(stmts, 0, Some(sync))? {
            self.scope_block(stmts, 0, 0, Some(sync))?;
        }
        Ok(())
    }

    /// Derives the slot before `stmts[at]`; returns how many statements
    /// that put there.
    fn derive(&mut self, stmts: &mut Vec<Stmt>, at: usize, depth: u32) -> usize {
        self.derivations += 1;
        self.derive_weight += weight(depth);
        if !self.apply {
            return 0;
        }
        let e = Expr::new(
            ExprKind::Assign {
                op: AssignOp::Set,
                lhs: Box::new(self.place.clone()),
                rhs: Box::new(self.cand.inline.clone()),
            },
            SourceSpan::default(),
        );
        let derivation = Stmt {
            kind: StmtKind::Expr(e),
            span: SourceSpan::default(),
        };
        stmts.insert(at, derivation);
        1
    }

    /// Finds the block declaring the pointer and hoists within it; false
    /// when no block under `stmts` declares it.
    fn in_scope_block(
        &mut self,
        stmts: &mut Vec<Stmt>,
        depth: u32,
        sync: Option<&mut Vec<bool>>,
    ) -> Result<bool, Unhoistable> {
        let declared = stmts.iter().rposition(
            |s| matches!(&s.kind, StmtKind::Decl { name, .. } if self.deps.contains(name)),
        );
        if let Some(at) = declared {
            self.scope_block(stmts, at + 1, depth, sync)?;
            return Ok(true);
        }
        for s in stmts {
            let found = match &mut s.kind {
                StmtKind::If { then, els, .. } => {
                    self.in_scope_block(&mut then.stmts, depth, None)?
                        || match els {
                            Some(b) => self.in_scope_block(&mut b.stmts, depth, None)?,
                            None => false,
                        }
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    self.in_scope_block(&mut body.stmts, depth + 1, None)?
                }
                StmtKind::For { body, mark, .. } if !mark.candidate => {
                    self.in_scope_block(&mut body.stmts, depth + 1, None)?
                }
                StmtKind::Block(b) if !is_pointer_assignment_block(b) => {
                    self.in_scope_block(&mut b.stmts, depth, None)?
                }
                _ => false,
            };
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The scope block's own statement list, from `start`: lazy derivation.
    fn scope_block(
        &mut self,
        stmts: &mut Vec<Stmt>,
        start: usize,
        depth: u32,
        mut sync: Option<&mut Vec<bool>>,
    ) -> Result<(), Unhoistable> {
        let mut valid = false;
        let mut i = start;
        while i < stmts.len() {
            let uses = self.mentions(&stmts[i]);
            if uses && !valid {
                let derived = self.derive(stmts, i, depth);
                if let Some(sync) = sync.as_deref_mut().filter(|_| derived == 1) {
                    sync.insert(i, sync[i]);
                }
                i += derived;
                valid = true;
            }
            // A valid slot stays valid through a statement that uses it and
            // through a branch (a rare `realloc` re-derives where it
            // happens); after a loop that only stores, or a plain
            // assignment, the next using statement re-derives.
            let is_loop = stmts[i].kind.loop_mark().is_some();
            if self.stmt(&mut stmts[i], depth, valid && (uses || !is_loop))? {
                valid = false;
            }
            i += 1;
        }
        Ok(())
    }

    /// A nested block. With `eager`, every statement that stores a
    /// dependence is followed by a derivation; returns whether the slot may
    /// be stale on leaving.
    fn nested_block(
        &mut self,
        stmts: &mut Vec<Stmt>,
        depth: u32,
        eager: bool,
    ) -> Result<bool, Unhoistable> {
        let mut stale = false;
        let mut i = 0;
        while i < stmts.len() {
            if self.stmt(&mut stmts[i], depth, eager)? {
                if eager {
                    i += self.derive(stmts, i + 1, depth);
                } else {
                    stale = true;
                }
            }
            i += 1;
        }
        Ok(stale)
    }

    /// Rewrites the uses in one statement; returns whether it leaves the
    /// slot stale (it stored a dependence and did not re-derive).
    fn stmt(&mut self, s: &mut Stmt, depth: u32, eager: bool) -> Result<bool, Unhoistable> {
        if is_candidate_loop(s) {
            // Its body may run on other workers, whose slots this body
            // never derives: opaque.
            return Ok(self.stores_in_stmt(s));
        }
        match &mut s.kind {
            StmtKind::If { cond, then, els } => {
                self.header(cond, depth)?;
                let mut stale = self.nested_block(&mut then.stmts, depth, eager)?;
                if let Some(b) = els {
                    stale |= self.nested_block(&mut b.stmts, depth, eager)?;
                }
                Ok(stale)
            }
            StmtKind::While { cond, body, .. } | StmtKind::DoWhile { body, cond, .. } => {
                self.header(cond, depth + 1)?;
                self.nested_block(&mut body.stmts, depth + 1, eager)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(init) = init {
                    let declares = matches!(&init.kind,
                        StmtKind::Decl { name, .. } if self.deps.contains(name));
                    if declares || self.stores_in_stmt(init) {
                        return Err(Unhoistable);
                    }
                    if let StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) = &mut init.kind
                    {
                        self.replace(e, depth);
                    }
                }
                for e in cond.iter_mut().chain(step.iter_mut()) {
                    self.header(e, depth + 1)?;
                }
                self.nested_block(&mut body.stmts, depth + 1, eager)
            }
            StmtKind::Block(b) if !is_pointer_assignment_block(b) => {
                self.nested_block(&mut b.stmts, depth, eager)
            }
            StmtKind::Block(b) => {
                // `{ __pa_s = span; p = value; __sp_p = __pa_s; }`: one
                // assignment. Every use must come before the first store.
                let mut stored = false;
                for inner in &mut b.stmts {
                    if stored && self.mentions(inner) {
                        return Err(Unhoistable);
                    }
                    stored |= self.simple(inner, depth)?;
                }
                Ok(stored)
            }
            _ => self.simple(s, depth),
        }
    }

    /// A condition or `for` header expression: uses are fine, stores have
    /// no statement boundary to derive at.
    fn header(&mut self, e: &mut Expr, depth: u32) -> Result<(), Unhoistable> {
        if self.stores_in(e) {
            return Err(Unhoistable);
        }
        self.replace(e, depth);
        Ok(())
    }

    /// A declaration, expression statement or `return`; returns whether it
    /// stores a dependence.
    fn simple(&mut self, s: &mut Stmt, depth: u32) -> Result<bool, Unhoistable> {
        let (e, declares) = match &mut s.kind {
            StmtKind::Decl {
                name,
                init: Some(e),
                ..
            } => (e, self.deps.contains(name)),
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => (e, false),
            _ => return Ok(false),
        };
        // The statement's own store happens after everything it reads; a
        // store nested deeper may precede a use in evaluation order.
        let (own_store, nested_store) = match &e.kind {
            ExprKind::Assign { lhs, rhs, .. } if self.is_cell(lhs) => (true, self.stores_in(rhs)),
            ExprKind::IncDec { target, .. } if self.is_cell(target) => (true, false),
            _ => (declares, self.stores_in(e)),
        };
        if nested_store && self.mentions_expr(e) {
            return Err(Unhoistable);
        }
        self.replace(e, depth);
        Ok(own_store || nested_store)
    }

    /// Is `e` a storage cell of one of the dependences (`p`, or `p[k]` and
    /// its `.ptr`/`.span` when the pointer variable is expanded)?
    fn is_cell(&self, e: &Expr) -> bool {
        let is_dep =
            |x: &Expr| matches!(&x.kind, ExprKind::Var { name, .. } if self.deps.contains(name));
        let is_copy = |x: &Expr| {
            self.cand.expanded && matches!(&x.kind, ExprKind::Index { base, .. } if is_dep(base))
        };
        match &e.kind {
            ExprKind::Var { .. } => is_dep(e),
            ExprKind::Index { .. } => is_copy(e),
            ExprKind::Field { base, .. } => is_copy(base),
            _ => false,
        }
    }

    /// Does this node store a dependence — by assignment, through its
    /// address, or in a callee?
    fn is_store(&self, x: &Expr) -> bool {
        match &x.kind {
            ExprKind::Assign { lhs: cell, .. }
            | ExprKind::IncDec { target: cell, .. }
            | ExprKind::AddrOf(cell) => self.is_cell(cell),
            ExprKind::Call { name, .. } => self.cand.killers.contains(name),
            _ => false,
        }
    }

    fn stores_in(&self, e: &Expr) -> bool {
        let mut found = false;
        walk_exprs(e, &mut |x| found |= self.is_store(x));
        found
    }

    fn stores_in_stmt(&self, s: &Stmt) -> bool {
        let mut found = false;
        walk_exprs_in_stmt(s, &mut |x| found |= self.is_store(x));
        found
    }

    fn mentions_expr(&self, e: &Expr) -> bool {
        let mut found = false;
        walk_exprs(e, &mut |x| found |= same_shape(x, &self.cand.inline));
        found
    }

    /// Does the statement use the inline form outside nested candidate
    /// loops?
    fn mentions(&self, s: &Stmt) -> bool {
        match &s.kind {
            _ if is_candidate_loop(s) => false,
            StmtKind::If { cond, then, els } => {
                self.mentions_expr(cond)
                    || then.stmts.iter().any(|s| self.mentions(s))
                    || els
                        .as_ref()
                        .is_some_and(|b| b.stmts.iter().any(|s| self.mentions(s)))
            }
            StmtKind::While { cond, body, .. } | StmtKind::DoWhile { body, cond, .. } => {
                self.mentions_expr(cond) || body.stmts.iter().any(|s| self.mentions(s))
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                init.as_ref().is_some_and(|s| self.mentions(s))
                    || cond.iter().chain(step).any(|e| self.mentions_expr(e))
                    || body.stmts.iter().any(|s| self.mentions(s))
            }
            StmtKind::Block(b) => b.stmts.iter().any(|s| self.mentions(s)),
            StmtKind::Decl { init: Some(e), .. }
            | StmtKind::Expr(e)
            | StmtKind::Return(Some(e)) => self.mentions_expr(e),
            _ => false,
        }
    }

    /// Routes every use in `e` through the slot.
    fn replace(&mut self, e: &mut Expr, depth: u32) {
        let mut n = 0;
        if self.apply {
            visit_exprs(e, &mut |x| {
                if same_shape(x, &self.cand.inline) {
                    *x = self.place.clone();
                    n += 1;
                }
            });
        } else {
            walk_exprs(e, &mut |x| n += same_shape(x, &self.cand.inline) as usize);
        }
        self.uses += n;
        self.use_weight += n as u64 * weight(depth);
    }
}

fn is_candidate_loop(s: &Stmt) -> bool {
    matches!(&s.kind, StmtKind::For { mark, .. } if mark.candidate)
}

/// The rewriter's `{ __pa_s…; p = …; __sp_p = …; }` block: one pointer
/// assignment with its span bookkeeping, not a user scope.
fn is_pointer_assignment_block(b: &Block) -> bool {
    matches!(b.stmts.first().map(|s| &s.kind),
        Some(StmtKind::Decl { name, .. }) if name.starts_with("__pa_"))
}

/// Structural equality of the expression shapes a redirection is built
/// from, ignoring eids, spans and types.
pub(crate) fn same_shape(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::IntLit(x), ExprKind::IntLit(y)) => x == y,
        (ExprKind::Var { name: x, .. }, ExprKind::Var { name: y, .. }) => x == y,
        (
            ExprKind::Index {
                base: b1,
                index: i1,
            },
            ExprKind::Index {
                base: b2,
                index: i2,
            },
        ) => same_shape(b1, b2) && same_shape(i1, i2),
        (
            ExprKind::Field {
                base: b1,
                field: f1,
            },
            ExprKind::Field {
                base: b2,
                field: f2,
            },
        ) => f1 == f2 && same_shape(b1, b2),
        (ExprKind::Binary(o1, l1, r1), ExprKind::Binary(o2, l2, r2)) => {
            o1 == o2 && same_shape(l1, l2) && same_shape(r1, r2)
        }
        (ExprKind::Call { name: n1, args: a1 }, ExprKind::Call { name: n2, args: a2 }) => {
            n1 == n2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| same_shape(x, y))
        }
        _ => false,
    }
}

fn var(name: &str) -> Expr {
    Expr::new(
        ExprKind::Var {
            name: name.into(),
            binding: None,
        },
        SourceSpan::default(),
    )
}

fn call(name: &str) -> Expr {
    Expr::new(
        ExprKind::Call {
            name: name.into(),
            args: Vec::new(),
        },
        SourceSpan::default(),
    )
}

fn index(base: Expr, i: Expr) -> Expr {
    Expr::new(
        ExprKind::Index {
            base: Box::new(base),
            index: Box::new(i),
        },
        SourceSpan::default(),
    )
}
