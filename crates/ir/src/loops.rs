//! Candidate-loop discovery and validation.
//!
//! The paper selects "promising loops" by profiling; in this reproduction a
//! loop is nominated with `#pragma candidate [label]` in the Cee source.
//! A candidate loop must be a normalized counted `for` loop so the parallel
//! scheduler can distribute its iteration space:
//!
//! * `for (i = lo; i < hi; i++)` (or `<=`, or `i = i + 1`, `i += 1`),
//! * the bound expression is side-effect free,
//! * the body never writes or takes the address of the induction variable,
//! * the body contains no `return` and no `break` that would exit the
//!   candidate loop (inner loops may `break`; `continue` is allowed).

use dse_lang::ast::*;

use std::fmt;

/// Parallel scheduling mode for a candidate loop (paper Section 4.3:
/// DOALL uses static chunking, DOACROSS dynamic chunks of one iteration
/// with cross-iteration post/wait ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParMode {
    /// Independent iterations; static chunk scheduling.
    DoAll,
    /// Cross-iteration ordering required; dynamic scheduling, chunk = 1.
    DoAcross,
}

impl fmt::Display for ParMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParMode::DoAll => write!(f, "DOALL"),
            ParMode::DoAcross => write!(f, "DOACROSS"),
        }
    }
}

/// A validated candidate loop, borrowed from the program it was found in.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateLoop<'a> {
    /// Label from the pragma, or `"<func>#<n>"` if none was given, where
    /// `n` counts candidate loops across the whole program in pre-order.
    /// Every later stage names a loop by this label.
    pub label: String,
    /// Index of the containing function in the program.
    pub func: u32,
    /// Local slot of the induction variable.
    pub induction_slot: usize,
    /// Loop nesting level within its function (1 = outermost).
    pub level: u32,
    /// The `for` statement itself.
    pub stmt: &'a Stmt,
}

impl<'a> CandidateLoop<'a> {
    /// The loop body.
    pub fn body(&self) -> &'a Block {
        match &self.stmt.kind {
            StmtKind::For { body, .. } => body,
            _ => unreachable!("a candidate loop is a `for` statement"),
        }
    }
}

/// A candidate-loop validation error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateError(pub String);

impl fmt::Display for CandidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid candidate loop: {}", self.0)
    }
}

impl std::error::Error for CandidateError {}

/// Finds all `#pragma candidate` loops in the program, in pre-order,
/// validating their normalized form. This is the one table of candidate
/// loops and their labels: the lowering, the planner, the transform and
/// the verifier all read it.
///
/// # Errors
///
/// Returns a [`CandidateError`] naming the first violated rule.
pub fn find_candidate_loops(program: &Program) -> Result<Vec<CandidateLoop<'_>>, CandidateError> {
    let mut out = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        scan_block(&f.body, fi as u32, f, 0, &mut out)?;
    }
    let mut seen = dse_lang::fasthash::HashSet::default();
    for c in &out {
        if !seen.insert(c.label.clone()) {
            return Err(CandidateError(format!(
                "duplicate loop label `{}`",
                c.label
            )));
        }
    }
    Ok(out)
}

fn scan_block<'a>(
    block: &'a Block,
    func: u32,
    f: &Function,
    loop_depth: u32,
    out: &mut Vec<CandidateLoop<'a>>,
) -> Result<(), CandidateError> {
    for stmt in &block.stmts {
        scan_stmt(stmt, func, f, loop_depth, out)?;
    }
    Ok(())
}

fn scan_stmt<'a>(
    stmt: &'a Stmt,
    func: u32,
    f: &Function,
    loop_depth: u32,
    out: &mut Vec<CandidateLoop<'a>>,
) -> Result<(), CandidateError> {
    match &stmt.kind {
        StmtKind::If { then, els, .. } => {
            scan_block(then, func, f, loop_depth, out)?;
            if let Some(b) = els {
                scan_block(b, func, f, loop_depth, out)?;
            }
        }
        StmtKind::While { body, mark, .. } | StmtKind::DoWhile { body, mark, .. } => {
            if mark.candidate {
                return Err(CandidateError(format!(
                    "loop `{}` in `{}`: only normalized `for` loops can be candidates",
                    mark.label.clone().unwrap_or_default(),
                    f.name
                )));
            }
            scan_block(body, func, f, loop_depth + 1, out)?;
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            mark,
        } => {
            if mark.candidate {
                let label = mark
                    .label
                    .clone()
                    .unwrap_or_else(|| format!("{}#{}", f.name, out.len()));
                let induction_slot = validate_candidate(
                    init.as_deref(),
                    cond.as_ref(),
                    step.as_ref(),
                    body,
                    f,
                    &label,
                )?;
                out.push(CandidateLoop {
                    label,
                    func,
                    induction_slot,
                    level: loop_depth + 1,
                    stmt,
                });
            }
            scan_block(body, func, f, loop_depth + 1, out)?;
        }
        StmtKind::Block(b) => scan_block(b, func, f, loop_depth, out)?,
        _ => {}
    }
    Ok(())
}

/// Extracts the induction slot from a `for` init statement.
pub fn induction_slot_of_init(init: Option<&Stmt>) -> Option<usize> {
    induction_of_init(init).map(|(slot, _)| slot)
}

/// Extracts the induction slot and the value it starts at from a `for`
/// init statement (`int i = v` or `i = v`).
pub fn induction_of_init(init: Option<&Stmt>) -> Option<(usize, &Expr)> {
    match init.map(|s| &s.kind) {
        Some(StmtKind::Decl {
            slot: Some(slot),
            init: Some(v),
            ..
        }) => Some((*slot, v)),
        Some(StmtKind::Expr(e)) => match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                rhs,
            } => match &lhs.kind {
                ExprKind::Var {
                    binding: Some(VarBinding::Local(slot)),
                    ..
                } => Some((*slot, rhs)),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Checks the condition has the form `i < bound` or `i <= bound` for the
/// given induction slot; returns `(bound_expr, inclusive)`.
pub fn bound_of_cond(cond: &Expr, slot: usize) -> Option<(&Expr, bool)> {
    let ExprKind::Binary(op, l, r) = &cond.kind else {
        return None;
    };
    let inclusive = match op {
        BinOp::Lt => false,
        BinOp::Le => true,
        _ => return None,
    };
    match &l.kind {
        ExprKind::Var {
            binding: Some(VarBinding::Local(s)),
            ..
        } if *s == slot => Some((r, inclusive)),
        _ => None,
    }
}

/// Checks the step is `i++`, `++i`, `i += 1` or `i = i + 1`.
pub fn step_is_unit_increment(step: &Expr, slot: usize) -> bool {
    let is_i = |e: &Expr| {
        matches!(
            &e.kind,
            ExprKind::Var { binding: Some(VarBinding::Local(s)), .. } if *s == slot
        )
    };
    match &step.kind {
        ExprKind::IncDec {
            inc: true, target, ..
        } => is_i(target),
        ExprKind::Assign {
            op: AssignOp::Compound(BinOp::Add),
            lhs,
            rhs,
        } => is_i(lhs) && matches!(rhs.kind, ExprKind::IntLit(1)),
        ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        } => {
            if !is_i(lhs) {
                return false;
            }
            match &rhs.kind {
                ExprKind::Binary(BinOp::Add, a, b) => {
                    (is_i(a) && matches!(b.kind, ExprKind::IntLit(1)))
                        || (is_i(b) && matches!(a.kind, ExprKind::IntLit(1)))
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// True if the expression is free of side effects (no assignments,
/// increments, or calls).
pub fn expr_is_pure(e: &Expr) -> bool {
    let mut pure = true;
    walk_exprs(e, &mut |x| {
        if matches!(
            x.kind,
            ExprKind::Assign { .. } | ExprKind::IncDec { .. } | ExprKind::Call { .. }
        ) {
            pure = false;
        }
    });
    pure
}

/// Checks the normalized form of the candidate loop labelled `name`;
/// returns its induction slot.
fn validate_candidate(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    body: &Block,
    f: &Function,
    name: &str,
) -> Result<usize, CandidateError> {
    let fail = |msg: &str| CandidateError(format!("loop `{name}` in `{}`: {msg}", f.name));

    let slot = induction_slot_of_init(init)
        .ok_or_else(|| fail("init must assign the induction variable"))?;
    if !f.locals[slot].ty.is_integer() {
        return Err(fail("induction variable must have integer type"));
    }
    let cond = cond.ok_or_else(|| fail("missing condition"))?;
    let (bound, _) = bound_of_cond(cond, slot)
        .ok_or_else(|| fail("condition must be `i < bound` or `i <= bound`"))?;
    if !expr_is_pure(bound) {
        return Err(fail("loop bound must be side-effect free"));
    }
    let step = step.ok_or_else(|| fail("missing step"))?;
    if !step_is_unit_increment(step, slot) {
        return Err(fail("step must increment the induction variable by 1"));
    }
    check_body_stmts(body, slot, true, &fail)?;
    Ok(slot)
}

/// Recursively validates candidate-body statements. `top` tracks whether a
/// `break` here would exit the candidate loop itself.
fn check_body_stmts(
    block: &Block,
    ind_slot: usize,
    top: bool,
    fail: &dyn Fn(&str) -> CandidateError,
) -> Result<(), CandidateError> {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Break if top => {
                return Err(fail("body must not break out of the candidate loop"))
            }
            StmtKind::Return(_) => {
                return Err(fail("body must not return from the enclosing function"))
            }
            StmtKind::If { cond, then, els } => {
                check_expr_uses(cond, ind_slot, fail)?;
                check_body_stmts(then, ind_slot, top, fail)?;
                if let Some(b) = els {
                    check_body_stmts(b, ind_slot, top, fail)?;
                }
            }
            StmtKind::While { cond, body, .. } => {
                check_expr_uses(cond, ind_slot, fail)?;
                check_body_stmts(body, ind_slot, false, fail)?;
            }
            StmtKind::DoWhile { body, cond, .. } => {
                check_body_stmts(body, ind_slot, false, fail)?;
                check_expr_uses(cond, ind_slot, fail)?;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(s) = init {
                    check_stmt_exprs(s, ind_slot, fail)?;
                }
                if let Some(c) = cond {
                    check_expr_uses(c, ind_slot, fail)?;
                }
                if let Some(s) = step {
                    check_expr_uses(s, ind_slot, fail)?;
                }
                check_body_stmts(body, ind_slot, false, fail)?;
            }
            StmtKind::Block(b) => check_body_stmts(b, ind_slot, top, fail)?,
            _ => check_stmt_exprs(stmt, ind_slot, fail)?,
        }
    }
    Ok(())
}

/// Checks a statement without nested statements (a declaration, an
/// expression, a `return`, a jump).
fn check_stmt_exprs(
    stmt: &Stmt,
    ind_slot: usize,
    fail: &dyn Fn(&str) -> CandidateError,
) -> Result<(), CandidateError> {
    match &stmt.kind {
        StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
            check_expr_uses(e, ind_slot, fail)
        }
        _ => Ok(()),
    }
}

/// Reports the first misuse children-first, as the rewriting visitor
/// meets them.
fn check_expr_uses(
    e: &Expr,
    ind_slot: usize,
    fail: &dyn Fn(&str) -> CandidateError,
) -> Result<(), CandidateError> {
    let mut err = None;
    walk_exprs_post(e, &mut |x| {
        if err.is_none() {
            if let Some(m) = induction_misuse(x, ind_slot) {
                err = Some(m);
            }
        }
    });
    match err {
        Some(m) => Err(fail(m)),
        None => Ok(()),
    }
}

fn induction_misuse(e: &Expr, ind_slot: usize) -> Option<&'static str> {
    let is_i = |x: &Expr| {
        matches!(
            &x.kind,
            ExprKind::Var { binding: Some(VarBinding::Local(s)), .. } if *s == ind_slot
        )
    };
    match &e.kind {
        ExprKind::Assign { lhs, .. } if is_i(lhs) => {
            Some("body must not assign the induction variable")
        }
        ExprKind::IncDec { target, .. } if is_i(target) => {
            Some("body must not increment the induction variable")
        }
        ExprKind::AddrOf(inner) if is_i(inner) => {
            Some("body must not take the address of the induction variable")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::compile_to_ast;

    /// The table borrows the program, so each test's program lives on.
    fn find(src: &str) -> Result<Vec<CandidateLoop<'static>>, CandidateError> {
        find_candidate_loops(Box::leak(Box::new(compile_to_ast(src).unwrap())))
    }

    #[test]
    fn finds_labeled_candidate() {
        let c = find(
            "void f() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 10; i++) { s = s + i; } }",
        )
        .unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].label, "hot");
        assert_eq!(c[0].level, 1);
        assert_eq!(c[0].induction_slot, 1);
    }

    #[test]
    fn synthesizes_label_when_missing() {
        let c = find(
            "void f() {
               #pragma candidate
               for (int i = 0; i < 10; i++) { } }",
        )
        .unwrap();
        assert_eq!(c[0].label, "f#0");
    }

    #[test]
    fn nested_candidate_level() {
        let c = find(
            "void f() { for (int j = 0; j < 3; j++) {
               #pragma candidate inner
               for (int i = 0; i < 10; i++) { } } }",
        )
        .unwrap();
        assert_eq!(c[0].level, 2);
    }

    #[test]
    fn all_step_forms_accepted() {
        for step in ["i++", "++i", "i += 1", "i = i + 1", "i = 1 + i"] {
            let src =
                format!("void f() {{ #pragma candidate\nfor (int i = 0; i < 4; {step}) {{ }} }}");
            assert!(find(&src).is_ok(), "step form {step}");
        }
    }

    #[test]
    fn le_bound_accepted() {
        assert!(
            find("void f(int n) { #pragma candidate\nfor (int i = 0; i <= n; i++) { } }").is_ok()
        );
    }

    #[test]
    fn while_candidate_rejected() {
        let e = find("void f() { #pragma candidate\nwhile (1) { break; } }").unwrap_err();
        assert!(e.0.contains("normalized `for`"));
    }

    #[test]
    fn break_in_candidate_rejected() {
        let e = find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { break; } }")
            .unwrap_err();
        assert!(e.0.contains("break"));
    }

    #[test]
    fn break_in_inner_loop_allowed() {
        assert!(find(
            "void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) {
               while (1) { break; } } }"
        )
        .is_ok());
    }

    #[test]
    fn continue_in_candidate_allowed() {
        assert!(find(
            "void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) {
               if (i == 2) { continue; } } }"
        )
        .is_ok());
    }

    #[test]
    fn return_in_candidate_rejected() {
        let e = find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { return; } }")
            .unwrap_err();
        assert!(e.0.contains("return"));
    }

    #[test]
    fn induction_write_rejected() {
        let e = find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { i = 0; } }")
            .unwrap_err();
        assert!(e.0.contains("assign the induction"));
    }

    #[test]
    fn induction_addrof_rejected() {
        let e =
            find("void f() { int *p; #pragma candidate\nfor (int i = 0; i < 4; i++) { p = &i; } }")
                .unwrap_err();
        assert!(e.0.contains("address of the induction"));
    }

    #[test]
    fn induction_incdec_in_body_rejected() {
        let e = find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { i++; } }")
            .unwrap_err();
        assert!(e.0.contains("increment the induction"));
    }

    #[test]
    fn nested_misuses_report_the_inner_one_first() {
        // Children before parents: the increment inside the assignment's
        // right-hand side is met before the assignment itself.
        let e = find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { i = i++; } }")
            .unwrap_err();
        assert!(e.0.contains("increment the induction"), "{e}");
        let e = find(
            "void f(int n) { #pragma candidate\nfor (int i = 0; i < 4; i++) { if (i = n) { } } }",
        )
        .unwrap_err();
        assert!(e.0.contains("assign the induction"), "{e}");
    }

    #[test]
    fn shadowed_variable_writes_allowed() {
        // The inner `i` is a different slot; writing it is fine.
        assert!(find(
            "void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) {
               { int i = 0; i = i + 1; } } }"
        )
        .is_ok());
    }

    #[test]
    fn impure_bound_rejected() {
        let e = find(
            "int g() { return 3; } void f() {
               #pragma candidate\nfor (int i = 0; i < g(); i++) { } }",
        )
        .unwrap_err();
        assert!(e.0.contains("side-effect free"));
    }

    #[test]
    fn non_unit_step_rejected() {
        let e =
            find("void f() { #pragma candidate\nfor (int i = 0; i < 4; i += 2) { } }").unwrap_err();
        assert!(e.0.contains("increment the induction variable by 1"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = find(
            "void f() { #pragma candidate x\nfor (int i = 0; i < 4; i++) { }
               #pragma candidate x\nfor (int j = 0; j < 4; j++) { } }",
        )
        .unwrap_err();
        assert!(e.0.contains("duplicate"));
    }

    #[test]
    fn float_induction_rejected() {
        let e = find("void f() { #pragma candidate\nfor (float i = 0; i < 4; i = i + 1) { } }")
            .unwrap_err();
        assert!(e.0.contains("integer type"));
    }

    #[test]
    fn two_candidates_in_one_function() {
        let c = find(
            "void f() { #pragma candidate a\nfor (int i = 0; i < 4; i++) { }
               #pragma candidate b\nfor (int j = 0; j < 4; j++) { } }",
        )
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].label, "a");
        assert_eq!(c[1].label, "b");
        // Each entry hands out its own `for` statement.
        assert!(!std::ptr::eq(c[0].stmt, c[1].stmt));
        assert!(c.iter().all(|c| c.body().stmts.is_empty()));
    }

    #[test]
    fn unlabelled_loops_count_across_functions() {
        let c = find(
            "void f() { #pragma candidate\nfor (int i = 0; i < 4; i++) { } }
             void g() { #pragma candidate\nfor (int j = 0; j < 4; j++) {
               #pragma candidate\nfor (int k = 0; k < 4; k++) { } } }",
        )
        .unwrap();
        let labels: Vec<&str> = c.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["f#0", "g#1", "g#2"]);
        assert_eq!(c[2].level, 2);
    }
}
