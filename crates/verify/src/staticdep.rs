//! Pass 1: static cross-check of the profiled classification.
//!
//! The paper's classification (Definition 5) is built from *one profiling
//! run*: a class is thread-private when that run saw every read preceded by
//! a same-iteration write. On a different input the store may not happen and
//! the "private" read becomes a loop-carried flow dependence — a race after
//! expansion. This pass re-derives, purely statically, which profiled-private
//! classes are *guaranteed* to be written before read in every iteration:
//!
//! * a scalar is covered once an unconditional top-level assignment (or its
//!   declaration initializer) kills it before the reads;
//! * an array/heap class is covered when its loads sit in a canonical
//!   `for (k = lo; k < hi; k++)` loop over `root[k]` and an earlier
//!   unconditional canonical store loop with *syntactically identical*
//!   bounds wrote `root[k]` — identical bounds make the argument
//!   per-element, so zero-trip loops are covered too;
//! * kills under `if`/non-canonical loops are discarded (they may not
//!   execute), and calls to user functions invalidate range kills (the
//!   callee may reassign the root pointer).
//!
//! Classes the profile calls private but this approximation cannot confirm
//! get `DSE001` (warning by default — the profile may well be right; the
//! point is that its soundness rests on input coverage). The pass also
//! reports `DSE002` when a private class and a shared access may alias in
//! the points-to graph despite the profile never observing it, and `DSE008`
//! for candidate loops whose profile run never iterated.

use std::collections::{HashMap, HashSet};

use dse_analysis::PtObj;
use dse_core::{Analysis, LoopClassification, SiteClass};
use dse_depprof::LoopDdg;
use dse_ir::loops::ParMode;
use dse_ir::sites::{AccessKind, SiteId};
use dse_lang::ast::*;
use dse_lang::printer;
use dse_lang::source::SourceSpan;

use crate::diag::{Code, Diagnostic, Report};
use crate::walk::{self, CandidateLoop};

/// One access class of a candidate loop, with the profiled verdict and the
/// static one side by side (the `inspect_ddg` example renders these).
#[derive(Debug, Clone)]
pub struct ClassDiff {
    /// Printed representative access, e.g. `scratch[(k)]`.
    pub repr: String,
    /// Expression ids of the class's access sites.
    pub eids: Vec<u32>,
    /// True when the profile classified the class thread-private.
    pub profiled_private: bool,
    /// True when the static coverage argument confirms every read is killed
    /// in-iteration (only meaningful for profiled-private classes).
    pub statically_confirmed: bool,
    /// Why confirmation failed, when it did.
    pub reason: Option<String>,
    /// Source location of the representative access.
    pub span: Option<SourceSpan>,
}

/// Static-vs-profiled summary for one candidate loop.
#[derive(Debug, Clone)]
pub struct LoopDiff {
    /// Loop label.
    pub label: String,
    /// Iterations observed while profiling.
    pub iterations: u64,
    /// Chosen parallelization mode.
    pub mode: ParMode,
    /// Access classes, largest first.
    pub classes: Vec<ClassDiff>,
}

/// Computes the static-vs-profiled dependence diff for every candidate loop.
pub fn loop_diffs(analysis: &Analysis) -> Vec<LoopDiff> {
    let cands = walk::candidate_loops(&analysis.program);
    let eids = walk::eid_index(&analysis.program);
    let mut out = Vec::new();
    for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
        let cand = cands.iter().find(|c| c.label == cls.label);
        out.push(diff_loop(analysis, ddg, cls, cand, &eids));
    }
    out
}

/// Runs the pass, appending findings to `report`.
pub fn check(analysis: &Analysis, report: &mut Report) {
    let cands = walk::candidate_loops(&analysis.program);
    let eids = walk::eid_index(&analysis.program);
    for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
        let cand = cands.iter().find(|c| c.label == cls.label);
        if ddg.iterations == 0 {
            let mut d = Diagnostic::new(
                Code::ZeroIterationProfile,
                "candidate loop executed 0 iterations under the profiling input; \
                 its classification is vacuous",
            )
            .with_loop(&cls.label);
            if let Some(c) = cand {
                d = d.with_span(c.span);
            }
            report.push(d);
            continue;
        }
        let diff = diff_loop(analysis, ddg, cls, cand, &eids);
        let shared_objs = shared_objects(analysis, cls);
        for class in &diff.classes {
            if !class.profiled_private {
                continue;
            }
            if !class.statically_confirmed {
                let reason = class
                    .reason
                    .clone()
                    .unwrap_or_else(|| "no guaranteed same-iteration store found".into());
                let mut d = Diagnostic::new(
                    Code::ProfileUnsound,
                    format!(
                        "profiled-private class `{}` is not provably written before \
                         read each iteration: {reason}; on other inputs this read \
                         may carry a flow dependence across iterations",
                        class.repr
                    ),
                )
                .with_loop(&cls.label);
                if let Some(span) = class.span {
                    d = d.with_span(span);
                }
                report.push(d);
            }
            let objs: HashSet<PtObj> = class
                .eids
                .iter()
                .flat_map(|&e| analysis.pt.objects_of_site(e))
                .collect();
            if objs.iter().any(|o| shared_objs.contains(o)) {
                let mut d = Diagnostic::new(
                    Code::MayAliasUnobserved,
                    format!(
                        "private class `{}` may alias a shared access of this loop \
                         in the points-to graph, though the profile never observed \
                         a dependence between them",
                        class.repr
                    ),
                )
                .with_loop(&cls.label);
                if let Some(span) = class.span {
                    d = d.with_span(span);
                }
                report.push(d);
            }
        }
    }
}

/// Union of abstract objects touched by the loop's shared sites.
fn shared_objects(analysis: &Analysis, cls: &LoopClassification) -> HashSet<PtObj> {
    cls.site_class
        .iter()
        .filter(|(_, c)| **c == SiteClass::Shared)
        .filter_map(|(s, _)| {
            let eid = analysis.serial.sites.info(*s).eid;
            (eid != NO_EID).then_some(eid)
        })
        .flat_map(|e| analysis.pt.objects_of_site(e))
        .collect()
}

fn diff_loop(
    analysis: &Analysis,
    ddg: &LoopDdg,
    cls: &LoopClassification,
    cand: Option<&CandidateLoop<'_>>,
    eid_index: &HashMap<u32, &Expr>,
) -> LoopDiff {
    // Group sites into classes.
    let mut groups: HashMap<SiteId, Vec<SiteId>> = HashMap::new();
    for (&site, &rep) in &cls.class_of {
        groups.entry(rep).or_default().push(site);
    }

    // Map load eid -> class rep for the private classes, then scan.
    let mut load_class: HashMap<u32, SiteId> = HashMap::new();
    for (&rep, sites) in &groups {
        if !cls.is_private(rep) {
            continue;
        }
        for &s in sites {
            let info = analysis.serial.sites.info(s);
            if info.kind == AccessKind::Load && info.eid != NO_EID {
                load_class.insert(info.eid, rep);
            }
        }
    }
    let coverage = cand.map(|c| {
        let mut scanner = Scanner {
            program: &analysis.program,
            load_class: &load_class,
            uncovered: HashMap::new(),
            seen_loads: HashSet::new(),
        };
        let mut st = KillState::default();
        scanner.scan_block(c.body, &mut st, None);
        // Loads the body scan never reached (e.g. inside called functions)
        // are beyond the coverage argument.
        for (&eid, &rep) in &load_class {
            if !scanner.seen_loads.contains(&eid) {
                let (span, repr) = describe(eid, eid_index, &analysis.program);
                scanner.uncovered.entry(rep).or_insert((
                    span,
                    format!("load `{repr}` is outside the loop body (reached through a call)"),
                ));
            }
        }
        scanner.uncovered
    });

    let mut classes: Vec<ClassDiff> = groups
        .iter()
        .map(|(&rep, sites)| {
            let mut eids: Vec<u32> = sites
                .iter()
                .map(|&s| analysis.serial.sites.info(s).eid)
                .filter(|&e| e != NO_EID)
                .collect();
            eids.sort_unstable();
            eids.dedup();
            // Prefer a load's expression as the class's face: store sites
            // can be keyed by initializer sub-expressions, which print as
            // bare literals.
            let repr_eid = sites
                .iter()
                .map(|&s| analysis.serial.sites.info(s))
                .filter(|i| i.kind == AccessKind::Load && i.eid != NO_EID)
                .map(|i| i.eid)
                .min()
                .or_else(|| eids.first().copied());
            let (span, repr) = repr_eid
                .map(|e| describe(e, eid_index, &analysis.program))
                .unwrap_or((None, format!("class#{rep}")));
            let profiled_private = cls.is_private(rep);
            let failure = coverage.as_ref().and_then(|u| u.get(&rep));
            let statically_confirmed = profiled_private && coverage.is_some() && failure.is_none();
            let (reason, span) = match failure {
                Some((fail_span, reason)) => (Some(reason.clone()), fail_span.or(span)),
                None if profiled_private && coverage.is_none() => (
                    Some("candidate loop not found in the source tree".into()),
                    span,
                ),
                None => (None, span),
            };
            ClassDiff {
                repr,
                eids,
                profiled_private,
                statically_confirmed,
                reason,
                span,
            }
        })
        .collect();
    classes.sort_by(|a, b| b.eids.len().cmp(&a.eids.len()).then(a.repr.cmp(&b.repr)));
    LoopDiff {
        label: cls.label.clone(),
        iterations: ddg.iterations,
        mode: cls.mode,
        classes,
    }
}

/// Span and printed form of the expression with the given eid.
fn describe(
    eid: u32,
    eid_index: &HashMap<u32, &Expr>,
    program: &Program,
) -> (Option<SourceSpan>, String) {
    match eid_index.get(&eid) {
        Some(e) => (Some(e.span), printer::expr(e, program)),
        None => (None, format!("eid#{eid}")),
    }
}

// ---- the coverage scanner ---------------------------------------------------

/// Kills established so far on the scan path (all guaranteed to execute
/// before the statement being scanned, once per iteration).
#[derive(Clone, Default)]
struct KillState {
    /// Scalars written by an unconditional plain assignment or initializer.
    scalars: HashSet<VarBinding>,
    /// Printed root expression -> set of printed `(lo, hi)` bound pairs
    /// fully stored by a canonical store loop.
    ranges: HashMap<String, HashSet<(String, String)>>,
}

/// The enclosing canonical loop, for justifying `root[k]` element loads.
struct CanonCtx {
    k: VarBinding,
    lo: String,
    hi: String,
}

struct Scanner<'a> {
    program: &'a Program,
    load_class: &'a HashMap<u32, SiteId>,
    /// First unjustified load per class: (span, explanation).
    uncovered: HashMap<SiteId, (Option<SourceSpan>, String)>,
    seen_loads: HashSet<u32>,
}

impl<'a> Scanner<'a> {
    fn scan_block(&mut self, b: &Block, st: &mut KillState, canon: Option<&CanonCtx>) {
        for s in &b.stmts {
            self.scan_stmt(s, st, canon);
        }
    }

    fn scan_stmt(&mut self, s: &Stmt, st: &mut KillState, canon: Option<&CanonCtx>) {
        match &s.kind {
            StmtKind::Decl {
                name, init, slot, ..
            } => {
                if let Some(e) = init {
                    self.scan_expr(e, st, canon);
                    if let Some(slot) = slot {
                        invalidate(st, name);
                        st.scalars.insert(VarBinding::Local(*slot));
                    }
                }
            }
            StmtKind::Expr(e) => {
                if let ExprKind::Assign {
                    op: AssignOp::Set,
                    lhs,
                    rhs,
                } = &e.kind
                {
                    if let ExprKind::Var { name, binding } = &lhs.kind {
                        self.scan_expr(rhs, st, canon);
                        invalidate(st, name);
                        if let Some(b) = binding {
                            st.scalars.insert(*b);
                        }
                        return;
                    }
                }
                self.scan_expr(e, st, canon);
            }
            StmtKind::If { cond, then, els } => {
                self.scan_expr(cond, st, canon);
                // Branch kills may not execute: scan with throwaway clones.
                let mut t = st.clone();
                self.scan_block(then, &mut t, canon);
                if let Some(b) = els {
                    let mut e2 = st.clone();
                    self.scan_block(b, &mut e2, canon);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => self.scan_for(init.as_deref(), cond.as_ref(), step.as_ref(), body, st),
            StmtKind::While { cond, body, .. } => {
                self.scan_expr(cond, st, canon);
                let mut b = st.clone();
                self.scan_block(body, &mut b, canon);
            }
            StmtKind::DoWhile { body, cond, .. } => {
                let mut b = st.clone();
                self.scan_block(body, &mut b, canon);
                self.scan_expr(cond, &mut b, canon);
            }
            StmtKind::Return(Some(e)) => self.scan_expr(e, st, canon),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.scan_block(b, st, canon),
        }
    }

    /// Scans a nested `for`. Canonical `for (k = lo; k < hi; k++)` loops get
    /// the element-wise treatment; anything else is a conditional region.
    fn scan_for(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Block,
        st: &mut KillState,
    ) {
        let Some(ctx) = match_canonical(init, cond, step, self.program) else {
            let mut inner = st.clone();
            if let Some(s) = init {
                self.scan_stmt(s, &mut inner, None);
            }
            if let Some(c) = cond {
                self.scan_expr(c, &mut inner, None);
            }
            self.scan_block(body, &mut inner, None);
            if let Some(s) = step {
                self.scan_expr(s, &mut inner, None);
            }
            return;
        };

        // Bounds are evaluated unconditionally; the init kill of `k` holds
        // throughout the loop.
        if let Some(s) = init {
            self.scan_stmt(s, st, None);
        }
        let k_name = ctx.1.clone();
        let ctx = ctx.0;
        let mut inner = st.clone();
        invalidate(&mut inner, &k_name);
        inner.scalars.insert(ctx.k);
        if let Some(c) = cond {
            self.scan_expr(c, &mut inner, Some(&ctx));
        }

        // Scan body statements, recognizing `root[k] = rhs` full-range
        // stores. A store commits into `inner` immediately (it justifies
        // same-index loads later in this body) and is remembered so it can
        // be published to the outer state after the loop.
        let mut stored_roots: Vec<String> = Vec::new();
        for s in &body.stmts {
            if let StmtKind::Expr(e) = &s.kind {
                if let ExprKind::Assign {
                    op: AssignOp::Set,
                    lhs,
                    rhs,
                } = &e.kind
                {
                    if let ExprKind::Index { base, index } = &lhs.kind {
                        if is_var(index, ctx.k)
                            && stable_root(base)
                            && !mentions_binding(base, ctx.k)
                        {
                            self.scan_expr(base, &mut inner, Some(&ctx));
                            self.scan_expr(index, &mut inner, Some(&ctx));
                            self.scan_expr(rhs, &mut inner, Some(&ctx));
                            let root = printer::expr(base, self.program);
                            inner
                                .ranges
                                .entry(root.clone())
                                .or_default()
                                .insert((ctx.lo.clone(), ctx.hi.clone()));
                            stored_roots.push(root);
                            continue;
                        }
                    }
                }
            }
            self.scan_stmt(s, &mut inner, Some(&ctx));
        }
        if let Some(e) = step {
            self.scan_expr(e, &mut inner, Some(&ctx));
        }
        // Publish the canonical range kills; scalar kills made inside the
        // body stay conditional (the loop may run zero times). The range
        // kill is safe even then: it only ever justifies loads under
        // syntactically identical bounds, which then also run zero times.
        for root in stored_roots {
            st.ranges
                .entry(root)
                .or_default()
                .insert((ctx.lo.clone(), ctx.hi.clone()));
        }
    }

    /// Walks an expression, auditing every load that belongs to a
    /// profiled-private class.
    fn scan_expr(&mut self, e: &Expr, st: &mut KillState, canon: Option<&CanonCtx>) {
        if let Some(&rep) = self.load_class.get(&e.eid) {
            self.seen_loads.insert(e.eid);
            if !self.justified(e, st, canon) {
                let repr = printer::expr(e, self.program);
                self.uncovered.entry(rep).or_insert((
                    Some(e.span),
                    format!("load `{repr}` has no guaranteed same-iteration store before it"),
                ));
            }
        }
        // User-defined callees may reassign the pointers canonical kills
        // are rooted at; builtins cannot.
        if let ExprKind::Call { name, .. } = &e.kind {
            if self.program.function(name).is_some() {
                st.ranges.clear();
            }
        }
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
            | ExprKind::IncDec { target: a, .. } => self.scan_expr(a, st, canon),
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign { lhs: a, rhs: b, .. }
            | ExprKind::Index { base: a, index: b } => {
                self.scan_expr(a, st, canon);
                self.scan_expr(b, st, canon);
            }
            ExprKind::Cond(a, b, c) => {
                self.scan_expr(a, st, canon);
                self.scan_expr(b, st, canon);
                self.scan_expr(c, st, canon);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.scan_expr(a, st, canon);
                }
            }
            ExprKind::Field { base, .. } => self.scan_expr(base, st, canon),
        }
    }

    /// Is this load provably preceded by a same-iteration store?
    fn justified(&self, e: &Expr, st: &KillState, canon: Option<&CanonCtx>) -> bool {
        match &e.kind {
            ExprKind::Var { binding, .. } => {
                binding.map(|b| st.scalars.contains(&b)).unwrap_or(false)
            }
            ExprKind::Index { base, index } => {
                let Some(ctx) = canon else { return false };
                if !is_var(index, ctx.k) || !stable_root(base) || mentions_binding(base, ctx.k) {
                    return false;
                }
                let root = printer::expr(base, self.program);
                st.ranges
                    .get(&root)
                    .map(|spans| spans.contains(&(ctx.lo.clone(), ctx.hi.clone())))
                    .unwrap_or(false)
            }
            _ => false,
        }
    }
}

/// Matches `for (k = lo; k < hi; k++)` in its common spellings; returns the
/// context plus `k`'s name (for invalidation).
fn match_canonical(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    program: &Program,
) -> Option<(CanonCtx, String)> {
    let (k, k_name, lo) = match init.map(|s| &s.kind) {
        Some(StmtKind::Decl {
            name,
            init: Some(lo),
            slot: Some(slot),
            ..
        }) => (VarBinding::Local(*slot), name.clone(), lo),
        Some(StmtKind::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: AssignOp::Set,
                    lhs,
                    rhs,
                },
            ..
        })) => match &lhs.kind {
            ExprKind::Var {
                name,
                binding: Some(b),
            } => (*b, name.clone(), &**rhs),
            _ => return None,
        },
        _ => return None,
    };
    let hi = match cond.map(|c| &c.kind) {
        Some(ExprKind::Binary(BinOp::Lt, l, hi)) if is_var(l, k) => hi,
        _ => return None,
    };
    let step_ok = match step.map(|s| &s.kind) {
        Some(ExprKind::IncDec {
            inc: true, target, ..
        }) => is_var(target, k),
        Some(ExprKind::Assign {
            op: AssignOp::Compound(BinOp::Add),
            lhs,
            rhs,
        }) => is_var(lhs, k) && matches!(rhs.kind, ExprKind::IntLit(1)),
        Some(ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        }) => {
            is_var(lhs, k)
                && match &rhs.kind {
                    ExprKind::Binary(BinOp::Add, a, b) => {
                        is_var(a, k) && matches!(b.kind, ExprKind::IntLit(1))
                    }
                    _ => false,
                }
        }
        _ => return None,
    };
    if !step_ok {
        return None;
    }
    // Bounds must not depend on the induction variable itself.
    if mentions_binding(hi, k) || mentions_binding(lo, k) {
        return None;
    }
    Some((
        CanonCtx {
            k,
            lo: printer::expr(lo, program),
            hi: printer::expr(hi, program),
        },
        k_name,
    ))
}

/// True when `e` is exactly a reference to the binding `b`.
fn is_var(e: &Expr, b: VarBinding) -> bool {
    matches!(&e.kind, ExprKind::Var { binding: Some(x), .. } if *x == b)
}

/// True when any variable reference under `e` resolves to `b`.
fn mentions_binding(e: &Expr, b: VarBinding) -> bool {
    let mut found = false;
    dse_lang::ast::walk_exprs(e, &mut |n| {
        if is_var(n, b) {
            found = true;
        }
    });
    found
}

/// Roots we can key a range kill on: side-effect-free lvalue spines whose
/// printed form identifies the storage.
fn stable_root(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Var { .. } => true,
        ExprKind::Field { base, .. } => stable_root(base),
        ExprKind::Deref(p) => stable_root(p),
        ExprKind::Index { base, index } => {
            stable_root(base) && matches!(index.kind, ExprKind::IntLit(_))
        }
        _ => false,
    }
}

/// Drops range kills whose root or bounds mention `name` — the variable was
/// just reassigned, so those printed strings no longer denote the same
/// storage or the same iteration space.
fn invalidate(st: &mut KillState, name: &str) {
    let mut dead: Vec<String> = Vec::new();
    for (root, spans) in st.ranges.iter_mut() {
        if mentions_ident(root, name) {
            dead.push(root.clone());
            continue;
        }
        spans.retain(|(lo, hi)| !mentions_ident(lo, name) && !mentions_ident(hi, name));
        if spans.is_empty() {
            dead.push(root.clone());
        }
    }
    for r in dead {
        st.ranges.remove(&r);
    }
}

/// Whole-identifier containment test over printed expression strings.
fn mentions_ident(s: &str, name: &str) -> bool {
    if name.is_empty() {
        return false;
    }
    let bytes = s.as_bytes();
    s.match_indices(name).any(|(i, _)| {
        let before = i == 0 || {
            let c = bytes[i - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        let end = i + name.len();
        let after = end >= s.len() || {
            let c = bytes[end];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        before && after
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_mention_is_whole_word() {
        assert!(mentions_ident("(scratch[(k)])", "scratch"));
        assert!(mentions_ident("(a + b)", "b"));
        assert!(!mentions_ident("(scratch2[(k)])", "scratch"));
        assert!(!mentions_ident("(backlog)", "log"));
    }
}
