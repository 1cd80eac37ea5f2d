//! Read-only AST lookups over `dse_lang::ast`'s borrowing walkers.

use dse_lang::ast::*;
use dse_lang::source::SourceSpan;

/// Builds an eid → expression index over a whole program.
pub fn eid_index(program: &Program) -> std::collections::HashMap<u32, &Expr> {
    let mut map = std::collections::HashMap::new();
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if e.eid != NO_EID {
                map.insert(e.eid, e);
            }
        });
    }
    map
}

/// A `#pragma candidate` loop located in the AST.
pub struct CandidateLoop<'a> {
    /// Loop label (explicit, or `fn#ordinal` like the lowering assigns).
    pub label: String,
    /// Index of the enclosing function in `program.functions`.
    pub func: usize,
    /// The `for` init statement, if any.
    pub init: Option<&'a Stmt>,
    /// The `for` condition, if any.
    pub cond: Option<&'a Expr>,
    /// The `for` step expression, if any.
    pub step: Option<&'a Expr>,
    /// Loop body.
    pub body: &'a Block,
    /// Source location of the loop statement.
    pub span: SourceSpan,
}

/// Finds every candidate loop, assigning the same `fn#ordinal` fallback
/// labels the lowering uses (one ordinal counter across the whole program,
/// pre-order).
pub fn candidate_loops(program: &Program) -> Vec<CandidateLoop<'_>> {
    fn scan<'a>(
        block: &'a Block,
        func: usize,
        fn_name: &str,
        ordinal: &mut usize,
        out: &mut Vec<CandidateLoop<'a>>,
    ) {
        for s in &block.stmts {
            match &s.kind {
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                    mark,
                } => {
                    if mark.candidate {
                        let this = *ordinal;
                        *ordinal += 1;
                        let label = dse_ir::loops::loop_label(mark, fn_name, this);
                        out.push(CandidateLoop {
                            label,
                            func,
                            init: init.as_deref(),
                            cond: cond.as_ref(),
                            step: step.as_ref(),
                            body,
                            span: s.span,
                        });
                    }
                    scan(body, func, fn_name, ordinal, out);
                }
                StmtKind::If { then, els, .. } => {
                    scan(then, func, fn_name, ordinal, out);
                    if let Some(b) = els {
                        scan(b, func, fn_name, ordinal, out);
                    }
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    scan(body, func, fn_name, ordinal, out)
                }
                StmtKind::Block(b) => scan(b, func, fn_name, ordinal, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    let mut ordinal = 0usize;
    for (fi, f) in program.functions.iter().enumerate() {
        scan(&f.body, fi, &f.name, &mut ordinal, &mut out);
    }
    out
}
