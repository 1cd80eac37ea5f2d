//! Pass 1: static cross-check of the profiled classification.
//!
//! The paper's classification (Definition 5) is built from *one profiling
//! run*: a class is thread-private when that run saw every read preceded by
//! a same-iteration write. On a different input the store may not happen and
//! the "private" read becomes a loop-carried flow dependence — a race after
//! expansion. This pass re-derives, purely statically, which profiled-private
//! classes are *guaranteed* to be written before read in every iteration.
//!
//! The scan runs the candidate body, as one iteration, on the verifier's one
//! forward must-dataflow over statements (`mustflow`, which `DSE005` shares):
//! a fact holds at a load only if it holds on every path that reaches it, and
//! it dies by that module's one kill rule — a store to a binding it reads, a
//! store through a pointer or a user call where it reads memory or an
//! address-taken binding. Its facts, keyed by binding and expression shape
//! (`dse_lang::ast::same_shape`), never by printed text:
//!
//! * a scalar is covered once an unconditional assignment (or its
//!   declaration initializer) stores it;
//! * in a canonical `for (k = lo; k < hi; k++)` loop whose body does not
//!   store `k`, the statement `root[k] = …` covers `root[k]` until `root`
//!   or `k` is stored;
//! * such a loop covers `root` over `[lo, hi)` after it when that element
//!   fact holds at the end of its body on every path, `continue` edges
//!   included, no `break` leaves it, and no store of the loop other than
//!   its element stores kills the range; a later canonical loop over `k`
//!   with bounds of the same shape reads `root[k]` covered. Same-shape
//!   bounds make the argument per element, so zero-trip loops are covered
//!   too.
//!
//! Classes the profile calls private but this approximation cannot confirm
//! get `DSE001` (warning by default — the profile may well be right; the
//! point is that its soundness rests on input coverage). The pass also
//! reports `DSE002` when a private class and a shared access may alias in
//! the points-to graph despite the profile never observing it, and `DSE008`
//! for candidate loops whose profile run never iterated.

use dse_lang::fasthash::{HashMap, HashSet};

use dse_analysis::effects::HiddenStores;
use dse_analysis::PtObj;
use dse_core::{Analysis, LoopClassification, SiteClass};
use dse_depprof::LoopDdg;
use dse_ir::loops::{find_candidate_loops, CandidateLoop, ParMode};
use dse_ir::sites::AccessKind;
use dse_lang::ast::*;
use dse_lang::printer;
use dse_lang::source::SourceSpan;

use crate::diag::{Code, Diagnostic, Report};
use crate::mustflow::{Fact, Flow, Held, Pass, Stores};

/// One access class of a candidate loop, with the profiled verdict and the
/// static one side by side (`dsec --emit ddg` renders these).
#[derive(Debug, Clone)]
pub struct ClassDiff {
    /// Printed representative access, e.g. `scratch[(k)]`.
    pub repr: String,
    /// Expression ids of the class's access sites.
    pub eids: Vec<u32>,
    /// Where the class's access sites are, in source order: two classes
    /// that print the same access tell apart by these.
    pub site_spans: Vec<SourceSpan>,
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
    let cands = find_candidate_loops(&analysis.program).unwrap_or_default();
    diffs(analysis, &cands, &eid_index(&analysis.program))
}

/// [`loop_diffs`], with `cands` the candidate loops of `analysis.program`
/// and `eids` indexing it.
fn diffs(analysis: &Analysis, cands: &[CandidateLoop<'_>], eids: &EidIndex<'_>) -> Vec<LoopDiff> {
    let hidden = HiddenStores::of(&analysis.program);
    let loops = analysis.profile.loops.iter().zip(&analysis.classifications);
    loops
        .map(|(ddg, cls)| {
            let cand = cands.get(ddg.loop_id as usize);
            diff_loop(analysis, ddg, cls, cand, eids, &hidden)
        })
        .collect()
}

/// Runs the pass, appending findings to `report`. `eids` indexes
/// `analysis.program`.
pub fn check(analysis: &Analysis, eids: &EidIndex<'_>, report: &mut Report) {
    let cands = find_candidate_loops(&analysis.program).unwrap_or_default();
    let loops = analysis.profile.loops.iter().zip(&analysis.classifications);
    for ((ddg, cls), diff) in loops.zip(diffs(analysis, &cands, eids)) {
        if ddg.iterations == 0 {
            let mut d = Diagnostic::new(
                Code::ZeroIterationProfile,
                "candidate loop executed 0 iterations under the profiling input; \
                 its classification is vacuous",
            )
            .with_loop(&cls.label);
            if let Some(c) = cands.get(ddg.loop_id as usize) {
                d = d.with_span(c.stmt.span);
            }
            report.push(d);
            continue;
        }
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

/// Union of abstract objects touched by the loop's shared classes.
fn shared_objects(analysis: &Analysis, cls: &LoopClassification) -> HashSet<PtObj> {
    cls.classes
        .iter()
        .filter(|c| c.verdict == SiteClass::Shared)
        .flat_map(|c| &c.sites)
        .filter_map(|&s| {
            let eid = analysis.serial.sites.info(s).eid;
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
    eid_index: &EidIndex<'_>,
    hidden: &HiddenStores,
) -> LoopDiff {
    // Map load eid -> index of its class for the private classes, then
    // scan.
    let mut load_class: HashMap<u32, usize> = HashMap::default();
    for (at, class) in cls.classes.iter().enumerate() {
        if class.verdict != SiteClass::Private {
            continue;
        }
        for &s in &class.sites {
            let info = analysis.serial.sites.info(s);
            if info.kind == AccessKind::Load && info.eid != NO_EID {
                load_class.insert(info.eid, at);
            }
        }
    }
    let coverage = cand.map(|c| {
        let program = &analysis.program;
        let stores = Stores::new(program, c.func as usize, hidden);
        let mut canonical = Vec::new();
        walk_stmts_in_block(c.body(), &mut |s| {
            canonical.extend(match_canonical(s, &stores).map(|(k, bounds)| (s, k, bounds)))
        });
        let scan = Coverage {
            stores: &stores,
            load_class: &load_class,
            canonical,
            first_uncovered: HashMap::default(),
        };
        let mut flow = Flow::new(&stores, scan);
        flow.iteration(c.body());
        let mut uncovered: HashMap<usize, (Option<SourceSpan>, String)> = HashMap::default();
        for (at, e) in flow.pass.first_uncovered {
            let repr = printer::expr(e, program);
            let reason = format!("load `{repr}` has no guaranteed same-iteration store before it");
            uncovered.insert(at, (Some(e.span), reason));
        }
        // Loads outside the body (inside called functions) are beyond the
        // coverage argument.
        let mut in_body: HashSet<u32> = HashSet::default();
        walk_exprs_in_block(c.body(), &mut |e| {
            if load_class.contains_key(&e.eid) {
                in_body.insert(e.eid);
            }
        });
        for (&eid, &at) in load_class.iter().filter(|(e, _)| !in_body.contains(*e)) {
            let (span, repr) = describe(eid, eid_index, program);
            let reason = format!("load `{repr}` is outside the loop body (reached through a call)");
            uncovered.entry(at).or_insert((span, reason));
        }
        uncovered
    });

    let mut classes: Vec<ClassDiff> = (0..)
        .zip(&cls.classes)
        .map(|(at, class)| {
            let sites = &class.sites;
            let mut eids: Vec<u32> = sites
                .iter()
                .map(|&s| analysis.serial.sites.info(s).eid)
                .filter(|&e| e != NO_EID)
                .collect();
            eids.sort_unstable();
            eids.dedup();
            let mut site_spans: Vec<SourceSpan> = eids
                .iter()
                .filter_map(|&e| Some(eid_index.get(e)?.span))
                .collect();
            site_spans.sort_by_key(|s| s.start);
            site_spans.dedup();
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
                .unwrap_or((None, format!("class#{}", sites[0])));
            let profiled_private = class.verdict == SiteClass::Private;
            let failure = coverage.as_ref().and_then(|u| u.get(&at));
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
                site_spans,
                profiled_private,
                statically_confirmed,
                reason,
                span,
            }
        })
        .collect();
    classes.sort_by(|a, b| {
        (b.eids.len().cmp(&a.eids.len()))
            .then(a.repr.cmp(&b.repr))
            .then(a.eids.cmp(&b.eids))
    });
    LoopDiff {
        label: cls.label.clone(),
        iterations: ddg.iterations,
        mode: cls.mode,
        classes,
    }
}

/// Span and printed form of the expression with the given eid.
fn describe(eid: u32, eid_index: &EidIndex<'_>, program: &Program) -> (Option<SourceSpan>, String) {
    match eid_index.get(eid) {
        Some(e) => (Some(e.span), printer::expr(e, program)),
        None => (None, format!("eid#{eid}")),
    }
}

// ---- the coverage scan -------------------------------------------------------

/// What pass 1 knows was stored in the current iteration.
#[derive(Debug, Clone, Copy)]
enum Cover<'a> {
    /// The scalar was stored.
    Scalar(VarBinding),
    /// `root[k]` was stored, at the binding `k`'s current value.
    Element(&'a Expr, VarBinding),
    /// `[root, lo, hi]`: `root[j]` was stored for every `j` in `[lo, hi)`.
    Range([&'a Expr; 3]),
}

/// Two covers are one when their expressions have the same shape.
impl PartialEq for Cover<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Cover::Scalar(a), Cover::Scalar(b)) => a == b,
            (Cover::Element(r, k), Cover::Element(s, j)) => k == j && same_shape(r, s),
            (Cover::Range(a), Cover::Range(b)) => a.iter().zip(b).all(|(x, y)| same_shape(x, y)),
            _ => false,
        }
    }
}

impl Eq for Cover<'_> {}

/// Consistent with `eq`: the kind of cover and the binding it is over.
impl std::hash::Hash for Cover<'_> {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Cover::Scalar(b) | Cover::Element(_, b) => b.hash(h),
            Cover::Range(_) => {}
        }
    }
}

/// Pass 1's scan of one candidate body (the module doc lists its facts): a
/// load of a profiled-private class is covered when a fact of the
/// iteration says its cell was stored.
struct Coverage<'a> {
    stores: &'a Stores<'a>,
    /// Per load eid of a profiled-private class: that class's index.
    load_class: &'a HashMap<u32, usize>,
    /// The canonical loops of the body, with their `k` and `[lo, hi]`.
    canonical: Vec<(&'a Stmt, VarBinding, [&'a Expr; 2])>,
    /// Per class index: its first uncovered load, in source order.
    first_uncovered: HashMap<usize, &'a Expr>,
}

impl<'a> Coverage<'a> {
    /// The canonical loop `s`: its `k` and `[lo, hi]`.
    fn canonical(&self, s: &Stmt) -> Option<(VarBinding, [&'a Expr; 2])> {
        let at = self.canonical.iter().find(|(l, ..)| std::ptr::eq(*l, s));
        at.map(|&(_, k, bounds)| (k, bounds))
    }

    /// The innermost of `loops` that is a canonical loop over `k`: its
    /// bounds `[lo, hi]`.
    fn bounds_over(&self, k: VarBinding, loops: &[&'a Stmt]) -> Option<[&'a Expr; 2]> {
        let over_k = |l: &&'a Stmt| self.canonical(l).filter(|(j, _)| *j == k);
        loops
            .iter()
            .rev()
            .find_map(over_k)
            .map(|(_, bounds)| bounds)
    }
}

impl<'a> Pass<'a> for Coverage<'a> {
    type Key = Cover<'a>;

    fn read(&mut self, e: &'a Expr, facts: Held<'_, Cover<'a>>, loops: &[&'a Stmt]) {
        let Some(&at) = self.load_class.get(&e.eid) else {
            return;
        };
        let holds = |key: Cover<'a>| facts.holds(&key);
        let covered = match &e.kind {
            ExprKind::Var {
                binding: Some(b), ..
            } => holds(Cover::Scalar(*b)),
            ExprKind::Index { base, index } => bound_var(index).is_some_and(|k| {
                holds(Cover::Element(base, k))
                    || (self.bounds_over(k, loops))
                        .is_some_and(|[lo, hi]| holds(Cover::Range([base, lo, hi])))
            }),
            _ => false,
        };
        if !covered {
            let first = self.first_uncovered.entry(at).or_insert(e);
            if e.span.start < first.span.start {
                *first = e;
            }
        }
    }

    fn gen(&mut self, s: &'a Stmt, loops: &[&'a Stmt]) -> Option<Fact<Cover<'a>>> {
        let lhs = match &s.kind {
            StmtKind::Decl {
                init: Some(_),
                slot: Some(k),
                ..
            } => return Some(self.stores.fact(Cover::Scalar(VarBinding::Local(*k)), &[])),
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Assign {
                    op: AssignOp::Set,
                    lhs,
                    ..
                } => lhs,
                _ => return None,
            },
            _ => return None,
        };
        match &lhs.kind {
            ExprKind::Var {
                binding: Some(b), ..
            } => Some(self.stores.fact(Cover::Scalar(*b), &[])),
            ExprKind::Index { base, index } => {
                let k = bound_var(index)?;
                let fits = stable_root(base) && !mentions_binding(base, k);
                (fits && self.bounds_over(k, loops).is_some())
                    .then(|| self.stores.fact(Cover::Element(base, k), &[base, index]))
            }
            _ => None,
        }
    }

    fn publish(&mut self, s: &'a Stmt, end: Held<'_, Cover<'a>>) -> Vec<Fact<Cover<'a>>> {
        let Some((k, [lo, hi])) = self.canonical(s) else {
            return Vec::new();
        };
        // The loop's own element stores write `root[k]`, not what the range
        // loads.
        let own = |x: &Expr, root: &Expr| match &x.kind {
            ExprKind::Assign { lhs, .. } => matches!(&lhs.kind,
                ExprKind::Index { base, index } if is_var(index, k) && same_shape(base, root)),
            _ => false,
        };
        let ranges = end.iter().filter_map(|f| match f.key {
            Cover::Element(root, j) if j == k => {
                let range = self
                    .stores
                    .fact(Cover::Range([root, lo, hi]), &[root, lo, hi]);
                (!self.stores.killed_in(&range, s, |x| own(x, root))).then_some(range)
            }
            _ => None,
        });
        ranges.collect()
    }
}

/// `for (k = lo; k < hi; k++)`, in its common spellings, with bounds that
/// do not mention `k` and a body that does not store it: `k` and
/// `[lo, hi]`.
fn match_canonical<'a>(s: &'a Stmt, stores: &Stores<'_>) -> Option<(VarBinding, [&'a Expr; 2])> {
    let StmtKind::For {
        init,
        cond: Some(cond),
        step: Some(step),
        body,
        ..
    } = &s.kind
    else {
        return None;
    };
    let (k, lo) = match &init.as_deref()?.kind {
        StmtKind::Decl {
            init: Some(lo),
            slot: Some(slot),
            ..
        } => (VarBinding::Local(*slot), lo),
        StmtKind::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: AssignOp::Set,
                    lhs,
                    rhs,
                },
            ..
        }) => (bound_var(lhs)?, &**rhs),
        _ => return None,
    };
    let ExprKind::Binary(BinOp::Lt, k_ref, hi) = &cond.kind else {
        return None;
    };
    let one = |e: &Expr| matches!(e.kind, ExprKind::IntLit(1));
    let step_ok = match &step.kind {
        ExprKind::IncDec {
            inc: true, target, ..
        } => is_var(target, k),
        ExprKind::Assign {
            op: AssignOp::Compound(BinOp::Add),
            lhs,
            rhs,
        } => is_var(lhs, k) && one(rhs),
        ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        } => {
            is_var(lhs, k)
                && matches!(&rhs.kind, ExprKind::Binary(BinOp::Add, a, b) if is_var(a, k) && one(b))
        }
        _ => false,
    };
    let induction = stores.fact((), &[k_ref]);
    let stored = body
        .stmts
        .iter()
        .any(|b| stores.killed_in(&induction, b, |_| false));
    let ok = step_ok && is_var(k_ref, k) && !mentions_binding(hi, k) && !mentions_binding(lo, k);
    (ok && !stored).then_some((k, [lo, hi]))
}

/// The binding `e` names, when it is exactly a bound variable.
fn bound_var(e: &Expr) -> Option<VarBinding> {
    match &e.kind {
        ExprKind::Var { binding, .. } => *binding,
        _ => None,
    }
}

/// True when `e` is exactly a reference to the binding `b`.
fn is_var(e: &Expr, b: VarBinding) -> bool {
    bound_var(e) == Some(b)
}

/// True when any variable reference under `e` resolves to `b`.
fn mentions_binding(e: &Expr, b: VarBinding) -> bool {
    let mut found = false;
    walk_exprs(e, &mut |n| found |= is_var(n, b));
    found
}

/// Roots a cover can name: side-effect-free lvalue spines.
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
