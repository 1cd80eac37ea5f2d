//! Pass 2: mechanical verification of the transform's invariants.
//!
//! The expansion pass promises exactly what Tables 1–3 of the paper specify.
//! This pass re-checks the promises over the *output* — the transformed AST
//! and its parallel bytecode — rather than trusting the transform:
//!
//! * **Redirection (Table 2, `DSE003`/`DSE004`)** — an abstract
//!   interpretation over the bytecode tracks, per operand-stack slot,
//!   whether a value is derived from the worker id (`__tid()` and its
//!   strength-reduced forms); a frame slot is tid-derived iff every store
//!   to it stores a tid-derived value, which is how the pass sees through
//!   a hoisted redirection. Every access whose provenance maps to a
//!   thread-private source access must compute its address from the tid;
//!   every other provenanced access must not (shared accesses resolve to
//!   replica 0).
//! * **Span maintenance (Table 3, `DSE005`)** — over the transformed AST:
//!   a store to a promoted pointer (shadow `__sp_x` in scope) must be paired
//!   with a span store, come from a span-returning call, or be a
//!   span-preserving self-update; a store to a fat cell's `.ptr` must have a
//!   sibling `.span` store on the same cell.
//!   A *constant* span must equal what the transformed program itself
//!   allocates for every object the access can reach (a stale constant is
//!   how optimistic planning goes wrong), and a *hoisted* redirection
//!   (`__rd_p[__tid()]`, Section 3.4) must be re-derived on every path from
//!   a store to `p` or its span to a use of the slot.
//! * **DOACROSS windows (`DSE006`)** — each DOACROSS body region must
//!   contain exactly one `Wait` before one `Post`, with every ordered shared
//!   access between them; DOALL bodies must contain no synchronization.

use std::collections::{HashMap, HashSet};

use dse_analysis::consteval::{alloc_call_size, const_eval};
use dse_analysis::effects::{stored_variable, HiddenStores};
use dse_analysis::{PtObj, VarId};
use dse_core::access::{access_root, AccessRoot};
use dse_core::hoist::RD_PREFIX;
use dse_core::{Analysis, Transformed};
use dse_ir::bytecode::{Builtin, CompiledProgram, Instr, Pc, RetKind};
use dse_ir::loops::ParMode;
use dse_ir::sites::{SiteId, NO_SITE};
use dse_lang::ast::*;
use dse_lang::printer;
use dse_lang::source::SourceSpan;
use dse_lang::types::Type;

use crate::diag::{Code, Diagnostic, Report};
use crate::walk;

/// Runs all transform-invariant checks, appending findings to `report`.
pub fn check(analysis: &Analysis, t: &Transformed, report: &mut Report) {
    let spans = source_spans(&analysis.program);
    check_redirection(analysis, t, &spans, report);
    check_span_maintenance(t, report);
    check_constant_spans(analysis, t, &spans, report);
    check_hoisted_redirections(t, report);
    check_sync_windows(analysis, t, &spans, report);
}

/// eid → span index over the original program, for pointing diagnostics at
/// the source access a transformed site descends from.
fn source_spans(program: &Program) -> HashMap<u32, SourceSpan> {
    walk::eid_index(program)
        .into_iter()
        .map(|(eid, e)| (eid, e.span))
        .collect()
}

// ---- Table 2: redirection (DSE003 / DSE004) --------------------------------

/// Abstract operand: is it derived from the worker id, and is it exactly
/// the address of a frame tid place (`FrameAddrTid` at this offset)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Val {
    tid: bool,
    place: Option<u32>,
}

const CLEAN: Val = Val {
    tid: false,
    place: None,
};
const TID: Val = Val {
    tid: true,
    place: None,
};

/// Per-pc abstract state: one [`Val`] per operand-stack slot (top last).
type Stack = Vec<Val>;

/// A frame tid place: (function index, frame offset).
type Slot = (u32, u32);

/// What one pass of the dataflow learned about frame tid places.
#[derive(Default)]
struct SlotFacts {
    /// Per place: whether every value stored to it so far was tid-derived.
    stores: HashMap<Slot, bool>,
    /// Places whose address went anywhere but straight into a load or store.
    escaped: HashSet<Slot>,
}

/// The tid-taint dataflow over the whole code array. Regions are rooted at
/// every function entry and every parallel-loop body entry with an empty
/// stack (matching how the VM enters them). A load from a place in
/// `tid_slots` yields a tid-derived value.
fn taint_fixpoint(
    prog: &CompiledProgram,
    tid_slots: &HashSet<Slot>,
) -> (HashMap<Pc, Stack>, HashMap<Pc, u32>, SlotFacts) {
    let mut states: HashMap<Pc, Stack> = HashMap::new();
    // The function whose frame each reached pc addresses.
    let mut frame_of: HashMap<Pc, u32> = HashMap::new();
    let mut facts = SlotFacts::default();
    let mut work: Vec<Pc> = Vec::new();
    for (fi, f) in prog.funcs.iter().enumerate() {
        states.insert(f.entry, Vec::new());
        frame_of.insert(f.entry, fi as u32);
        work.push(f.entry);
    }
    for l in &prog.loops {
        if l.mode.is_some() {
            states.insert(l.body_entry, Vec::new());
            frame_of.insert(l.body_entry, l.func);
            work.push(l.body_entry);
        }
    }
    while let Some(pc) = work.pop() {
        let Some(stack) = states.get(&pc).cloned() else {
            continue;
        };
        let func = frame_of[&pc];
        let (next, succs) = step(prog, pc, stack, func, tid_slots, &mut facts);
        for s in succs {
            frame_of.entry(s).or_insert(func);
            let changed = match states.get_mut(&s) {
                Some(old) => merge(old, &next),
                None => {
                    states.insert(s, next.clone());
                    true
                }
            };
            if changed {
                work.push(s);
            }
        }
    }
    (states, frame_of, facts)
}

/// The frame tid places that hold tid-derived values: every store to the
/// place stores one, its address never escapes, and nothing else addresses
/// the declared local it lies in — the shape of the transform's `__rd_p`
/// slots, proven from the bytecode alone.
fn tid_derived_slots(
    prog: &CompiledProgram,
    frame_of: &HashMap<Pc, u32>,
    facts: &SlotFacts,
) -> HashSet<Slot> {
    let mut good: HashSet<Slot> = facts
        .stores
        .iter()
        .filter(|&(slot, &all_tid)| all_tid && !facts.escaped.contains(slot))
        .map(|(&slot, _)| slot)
        .collect();
    if good.is_empty() {
        return good;
    }
    let object_of = |func: u32, off: u32| {
        let locals = &prog.func(func).locals;
        locals
            .iter()
            .copied()
            .find(|&(o, size)| o <= off && off < o + size)
    };
    good.retain(|&(func, off)| object_of(func, off).is_some());
    for (&pc, &func) in frame_of {
        let (off, tid_place) = match prog.code[pc as usize] {
            Instr::FrameAddr(off) => (off, false),
            Instr::FrameAddrTid { offset, .. } => (offset, true),
            _ => continue,
        };
        let Some((lo, size)) = object_of(func, off) else {
            continue;
        };
        good.retain(|&(f, o)| f != func || o < lo || o >= lo + size || (tid_place && o == off));
    }
    good
}

/// Joins `incoming` into `old` (pointwise, aligned from the stack top): tid
/// taint is OR-ed, a place survives only if both sides agree on it. Returns
/// true when `old` changed.
fn merge(old: &mut Stack, incoming: &Stack) -> bool {
    let mut changed = false;
    if old.len() > incoming.len() {
        // Mismatched depths cannot happen in well-formed lowering output;
        // keep the common top-aligned suffix to stay defined regardless.
        let drop = old.len() - incoming.len();
        old.drain(..drop);
        changed = true;
    }
    let skip = incoming.len() - old.len();
    for (o, i) in old.iter_mut().zip(incoming[skip..].iter()) {
        let joined = Val {
            tid: o.tid || i.tid,
            place: if o.place == i.place { o.place } else { None },
        };
        if joined != *o {
            *o = joined;
            changed = true;
        }
    }
    changed
}

/// Executes one instruction abstractly: returns the outgoing stack and the
/// successor pcs, recording what it learns about frame tid places.
fn step(
    prog: &CompiledProgram,
    pc: Pc,
    mut st: Stack,
    func: u32,
    tid_slots: &HashSet<Slot>,
    facts: &mut SlotFacts,
) -> (Stack, Vec<Pc>) {
    // An operand consumed as a plain value: a place address among them has
    // escaped the load/store discipline.
    let mut pop = |st: &mut Stack| {
        let v = st.pop().unwrap_or(CLEAN);
        if let Some(off) = v.place {
            facts.escaped.insert((func, off));
        }
        v.tid
    };
    let next = vec![pc + 1];
    let succs = match prog.code[pc as usize] {
        Instr::PushI(_) | Instr::PushF(_) => {
            st.push(CLEAN);
            next
        }
        Instr::Dup => {
            let t = *st.last().unwrap_or(&CLEAN);
            st.push(t);
            next
        }
        Instr::Drop => {
            st.pop();
            next
        }
        Instr::Tuck => {
            // [a, b] -> [b, a, b]
            let b = st.pop().unwrap_or(CLEAN);
            let a = st.pop().unwrap_or(CLEAN);
            st.push(b);
            st.push(a);
            st.push(b);
            next
        }
        Instr::FrameAddr(_) | Instr::GlobalAddr(_) | Instr::IterIdx(_) => {
            st.push(CLEAN);
            next
        }
        Instr::TidScaled(_) => {
            st.push(TID);
            next
        }
        Instr::TidSpanScaled(_) => {
            pop(&mut st);
            st.push(TID);
            next
        }
        Instr::FrameAddrTid { offset, .. } => {
            st.push(Val {
                tid: true,
                place: Some(offset),
            });
            next
        }
        Instr::GlobalAddrTid { .. } => {
            st.push(TID);
            next
        }
        Instr::Load { .. } => {
            let addr = st.pop().unwrap_or(CLEAN);
            let tid = addr
                .place
                .is_some_and(|off| tid_slots.contains(&(func, off)));
            st.push(Val { tid, place: None });
            next
        }
        Instr::Store { .. } => {
            let value = pop(&mut st);
            let addr = st.pop().unwrap_or(CLEAN);
            if let Some(off) = addr.place {
                *facts.stores.entry((func, off)).or_insert(true) &= value;
            }
            next
        }
        Instr::MemCpy { .. } => {
            pop(&mut st);
            pop(&mut st);
            next
        }
        Instr::IBin(_) | Instr::FBin(_) | Instr::ICmp(_) | Instr::FCmp(_) => {
            let b = pop(&mut st);
            let a = pop(&mut st);
            st.push(Val {
                tid: a || b,
                place: None,
            });
            next
        }
        Instr::INeg
        | Instr::FNeg
        | Instr::BNot
        | Instr::LNot
        | Instr::I2F
        | Instr::F2I
        | Instr::SextTrunc(_) => {
            let tid = pop(&mut st);
            st.push(Val { tid, place: None });
            next
        }
        Instr::Jump(t) => vec![t],
        Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
            pop(&mut st);
            vec![t, pc + 1]
        }
        Instr::Call(f) => {
            for _ in 0..prog.func(f).params.len() {
                pop(&mut st);
            }
            // The callee's return value arrives via the shared operand
            // stack; redirection offsets are applied at access sites, so a
            // returned value is treated as tid-clean.
            if prog.func(f).ret == RetKind::Scalar {
                st.push(CLEAN);
            }
            next
        }
        Instr::CallBuiltin(b) => {
            for _ in 0..b.arity() {
                pop(&mut st);
            }
            if b.has_result() {
                st.push(if b == Builtin::Tid { TID } else { CLEAN });
            }
            next
        }
        Instr::Ret | Instr::Halt => Vec::new(),
        Instr::LoopMark(..) => next,
        Instr::ParLoop(_) => {
            pop(&mut st);
            pop(&mut st);
            next
        }
        Instr::Wait(_) | Instr::Post(_) => next,
        Instr::Localize { .. } => {
            // The runtime-privatization hook translates an address into the
            // current worker's private copy — tid-derived by definition.
            pop(&mut st);
            st.push(TID);
            next
        }
    };
    (st, succs)
}

/// Taint of the address operand of the access at `pc`, given the incoming
/// stack. `Load` pops the address from the top; `Store` pops value, then
/// address; `MemCpy` pops destination, then source.
fn addr_taints(instr: Instr, st: &Stack) -> Vec<(SiteId, bool)> {
    let at = |depth: usize| st.iter().rev().nth(depth).is_some_and(|v| v.tid);
    match instr {
        Instr::Load { site, .. } => vec![(site, at(0))],
        Instr::Store { site, .. } => vec![(site, at(1))],
        Instr::MemCpy {
            load_site,
            store_site,
            ..
        } => vec![(store_site, at(0)), (load_site, at(1))],
        _ => Vec::new(),
    }
}

fn check_redirection(
    analysis: &Analysis,
    t: &Transformed,
    spans: &HashMap<u32, SourceSpan>,
    report: &mut Report,
) {
    // A hoisted redirection (`__rd_p[__tid()]`) reaches its accesses through
    // a frame slot: first find the slots that provably hold tid-derived
    // values, then let loads from them carry the taint.
    let (mut states, frame_of, facts) = taint_fixpoint(&t.parallel, &HashSet::new());
    let tid_slots = tid_derived_slots(&t.parallel, &frame_of, &facts);
    if !tid_slots.is_empty() {
        states = taint_fixpoint(&t.parallel, &tid_slots).0;
    }
    let orig_index = walk::eid_index(&analysis.program);
    // One finding per original access, not per bytecode occurrence.
    let mut flagged: HashSet<(u32, Code)> = HashSet::new();
    for (&pc, st) in &states {
        let instr = t.parallel.code[pc as usize];
        for (site, tainted) in addr_taints(instr, st) {
            if site == NO_SITE {
                continue;
            }
            let teid = t.parallel.sites.info(site).eid;
            if teid == NO_EID {
                continue;
            }
            let Some(&orig) = t.eid_provenance.get(&teid) else {
                continue;
            };
            let private = t.plan.private_eids.contains(&orig);
            if private {
                if tainted || !must_redirect(analysis, t, orig) {
                    continue;
                }
                if flagged.insert((orig, Code::PrivateNotRedirected)) {
                    let mut d = Diagnostic::new(
                        Code::PrivateNotRedirected,
                        format!(
                            "thread-private access `{}` is not redirected through \
                             the thread id after expansion (Table 2 violation)",
                            describe(orig, &orig_index, &analysis.program)
                        ),
                    );
                    if let Some(sp) = spans.get(&orig) {
                        d = d.with_span(*sp);
                    }
                    report.push(d);
                }
            } else if tainted && flagged.insert((orig, Code::SharedNotReplicaZero)) {
                let mut d = Diagnostic::new(
                    Code::SharedNotReplicaZero,
                    format!(
                        "shared access `{}` computes its address from the thread \
                         id; shared accesses must resolve to replica 0 \
                         (Table 2 violation)",
                        describe(orig, &orig_index, &analysis.program)
                    ),
                );
                if let Some(sp) = spans.get(&orig) {
                    d = d.with_span(*sp);
                }
                report.push(d);
            }
        }
    }
}

/// Whether a private access is actually required to carry a tid offset:
/// indirect accesses always are; direct accesses only when their variable
/// was expanded (pruned variables keep their single copy).
fn must_redirect(analysis: &Analysis, t: &Transformed, orig_eid: u32) -> bool {
    if analysis.pt.site_is_indirect(orig_eid) {
        return true;
    }
    analysis
        .pt
        .objects_of_site(orig_eid)
        .iter()
        .any(|o| matches!(o, PtObj::Var(_)) && t.plan.expanded.contains(o))
}

fn describe(eid: u32, index: &HashMap<u32, &Expr>, program: &Program) -> String {
    index
        .get(&eid)
        .map(|e| printer::expr(e, program))
        .unwrap_or_else(|| format!("eid#{eid}"))
}

// ---- Table 3: span maintenance (DSE005) ------------------------------------

fn check_span_maintenance(t: &Transformed, report: &mut Report) {
    let p = &t.program;
    // Promoted pointers are recognizable by their shadow span slots.
    let global_shadows: HashSet<String> = p
        .globals
        .iter()
        .filter_map(|g| g.name.strip_prefix("__sp_").map(str::to_string))
        .collect();
    for f in &p.functions {
        let mut shadows = global_shadows.clone();
        for prm in &f.params {
            if let Some(x) = prm.name.strip_prefix("__sp_") {
                shadows.insert(x.to_string());
            }
        }
        collect_local_shadows(&f.body, &mut shadows);
        check_block_spans(&f.body, &shadows, p, report);
    }
}

fn collect_local_shadows(b: &Block, out: &mut HashSet<String>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Decl { name, .. } => {
                if let Some(x) = name.strip_prefix("__sp_") {
                    out.insert(x.to_string());
                }
            }
            StmtKind::If { then, els, .. } => {
                collect_local_shadows(then, out);
                if let Some(e) = els {
                    collect_local_shadows(e, out);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => collect_local_shadows(body, out),
            StmtKind::Block(inner) => collect_local_shadows(inner, out),
            _ => {}
        }
    }
}

fn check_block_spans(b: &Block, shadows: &HashSet<String>, p: &Program, report: &mut Report) {
    for (i, s) in b.stmts.iter().enumerate() {
        match &s.kind {
            StmtKind::Expr(e) => check_stmt_expr(e, i, b, shadows, p, report),
            StmtKind::If { then, els, .. } => {
                check_block_spans(then, shadows, p, report);
                if let Some(els) = els {
                    check_block_spans(els, shadows, p, report);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => check_block_spans(body, shadows, p, report),
            StmtKind::Block(inner) => check_block_spans(inner, shadows, p, report),
            _ => {}
        }
    }
}

fn check_stmt_expr(
    e: &Expr,
    idx: usize,
    block: &Block,
    shadows: &HashSet<String>,
    p: &Program,
    report: &mut Report,
) {
    let ExprKind::Assign {
        op: AssignOp::Set,
        lhs,
        rhs,
    } = &e.kind
    else {
        return;
    };
    match &lhs.kind {
        // Promoted scalar pointer / difference integer: `x = rhs` with a
        // `__sp_x` shadow in scope.
        ExprKind::Var { name, .. } if shadows.contains(name) => {
            let ok = later_stores_shadow(block, idx, name)
                || call_writes_shadow(rhs, name)
                || self_update(rhs, name);
            if !ok {
                report.push(
                    Diagnostic::new(
                        Code::SpanNotMaintained,
                        format!(
                            "promoted pointer `{name}` is assigned without updating \
                             its span shadow `__sp_{name}` (Table 3 violation)"
                        ),
                    )
                    .with_span(e.span),
                );
            }
        }
        // Fat cell: `cell.ptr = rhs` needs a sibling `cell.span = ...`.
        ExprKind::Field { base, field } if field == "ptr" && is_fat_struct(base, p) => {
            let key = printer::expr(base, p);
            let paired = block.stmts.iter().any(|s| {
                if let StmtKind::Expr(e2) = &s.kind {
                    if let ExprKind::Assign {
                        op: AssignOp::Set,
                        lhs: l2,
                        ..
                    } = &e2.kind
                    {
                        if let ExprKind::Field {
                            base: b2,
                            field: f2,
                        } = &l2.kind
                        {
                            return f2 == "span" && printer::expr(b2, p) == key;
                        }
                    }
                }
                false
            });
            if !paired {
                report.push(
                    Diagnostic::new(
                        Code::SpanNotMaintained,
                        format!(
                            "fat cell `{key}` has its `.ptr` field stored without a \
                             sibling `.span` store (Table 3 violation)"
                        ),
                    )
                    .with_span(e.span),
                );
            }
        }
        _ => {}
    }
}

/// Is `base` a value of one of the transform's `__fat_*` record types?
fn is_fat_struct(base: &Expr, p: &Program) -> bool {
    match base.ty.as_ref() {
        Some(Type::Struct(id)) => p.types.struct_def(*id).name.starts_with("__fat_"),
        _ => false,
    }
}

/// Does a later statement of the same block store `__sp_<name>` (directly or
/// as an expanded span cell `__sp_<name>[...]`)?
fn later_stores_shadow(block: &Block, idx: usize, name: &str) -> bool {
    let shadow = format!("__sp_{name}");
    block.stmts.iter().skip(idx + 1).any(|s| {
        if let StmtKind::Expr(e) = &s.kind {
            if let ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                ..
            } = &e.kind
            {
                let root = match &lhs.kind {
                    ExprKind::Index { base, .. } => base,
                    _ => lhs,
                };
                return matches!(&root.kind, ExprKind::Var { name: n, .. } if *n == shadow);
            }
        }
        false
    })
}

/// Is the right-hand side a call that receives `&__sp_<name>` as its span
/// out-parameter?
fn call_writes_shadow(rhs: &Expr, name: &str) -> bool {
    let shadow = format!("__sp_{name}");
    let ExprKind::Call { args, .. } = &rhs.kind else {
        return false;
    };
    args.iter().any(|a| {
        if let ExprKind::AddrOf(inner) = &a.kind {
            return matches!(&inner.kind, ExprKind::Var { name: n, .. } if *n == shadow);
        }
        false
    })
}

/// `x = x ± c` keeps the span (Table 3 "Pointer arithmetic 1"); the
/// transform elides the redundant span store under `-O full`.
fn self_update(rhs: &Expr, name: &str) -> bool {
    match &rhs.kind {
        ExprKind::Cast(_, inner) => self_update(inner, name),
        ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            let is_dst = |x: &Expr| matches!(&x.kind, ExprKind::Var { name: n, .. } if n == name);
            (is_dst(l) && matches!(r.kind, ExprKind::IntLit(_)))
                || (is_dst(r) && matches!(l.kind, ExprKind::IntLit(_)))
        }
        _ => false,
    }
}

// ---- Section 3.4: constant spans and hoisted redirections (DSE005) ----------

/// `__tid()`.
fn is_tid_call(e: &Expr) -> bool {
    matches!(&e.kind, ExprKind::Call { name, args } if name == "__tid" && args.is_empty())
}

/// The stride `S` of a constant-span redirection `p + __tid() * S / Z`.
fn constant_stride(e: &Expr) -> Option<u64> {
    let ExprKind::Binary(BinOp::Add, _, offset) = &e.kind else {
        return None;
    };
    let ExprKind::Binary(BinOp::Div, num, _) = &offset.kind else {
        return None;
    };
    match &num.kind {
        ExprKind::Binary(BinOp::Mul, tid, stride) if is_tid_call(tid) => match stride.kind {
            ExprKind::IntLit(s) => u64::try_from(s).ok(),
            _ => None,
        },
        _ => None,
    }
}

/// The slot of a hoisted redirection, if `e` is `__rd_p[__tid()]`.
fn hoisted_slot(e: &Expr) -> Option<VarBinding> {
    match &e.kind {
        ExprKind::Index { base, index } if is_tid_call(index) => match &base.kind {
            ExprKind::Var {
                name,
                binding: Some(b),
            } if name.starts_with(RD_PREFIX) => Some(*b),
            _ => None,
        },
        _ => None,
    }
}

/// `__rd_p[__tid()] = <redirected pointer>`: the slot and the value.
fn derivation(s: &Stmt) -> Option<(VarBinding, &Expr)> {
    let StmtKind::Expr(e) = &s.kind else {
        return None;
    };
    match &e.kind {
        ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        } => Some((hoisted_slot(lhs)?, rhs)),
        _ => None,
    }
}

/// Calls `f` on every statement under `b`, outer statements first.
fn stmts_in_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match &s.kind {
            StmtKind::If { then, els, .. } => {
                stmts_in_block(then, f);
                if let Some(e) = els {
                    stmts_in_block(e, f);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => stmts_in_block(body, f),
            StmtKind::Block(inner) => stmts_in_block(inner, f),
            _ => {}
        }
    }
}

/// Every constant the transform used as a span must be the size — in the
/// transformed program's own layout, read off its own allocation calls and
/// declarations — of each object the access may reach. The constants are
/// taken from the output (inline redirections and the derivations of the
/// slots accesses go through), not from the plan.
fn check_constant_spans(
    analysis: &Analysis,
    t: &Transformed,
    spans: &HashMap<u32, SourceSpan>,
    report: &mut Report,
) {
    let p = &t.program;
    let n = t.plan.nthreads.max(1) as u64;
    // Transformed allocation calls by the source call they rewrite.
    let mut allocs: HashMap<u32, &Expr> = HashMap::new();
    for f in &p.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let (ExprKind::Call { .. }, Some(&orig)) = (&e.kind, t.eid_provenance.get(&e.eid)) {
                allocs.insert(orig, e);
            }
        });
    }
    // Bytes one copy of the object occupies in the transformed program.
    let copy_size = |obj: &PtObj| -> Option<u64> {
        let copies = if t.plan.expanded.contains(obj) { n } else { 1 };
        match obj {
            PtObj::Alloc(a) => {
                let call = allocs.get(a)?;
                match &call.kind {
                    ExprKind::Call { name, args } if name == "__realloc_expanded" => {
                        u64::try_from(const_eval(args.get(1)?, &p.types)?).ok()
                    }
                    _ => alloc_call_size(call, &mut |ty| p.types.size_of(ty))
                        .flatten()
                        .map(|total| total / copies),
                }
            }
            PtObj::Var(VarId::Global(g)) => {
                let name = &analysis.program.globals[*g].name;
                let (_, var) = p.global(name)?;
                Some(p.types.size_of(&var.ty) / copies)
            }
            PtObj::Var(VarId::Local(fi, slot)) => {
                let name = &analysis.program.functions[*fi].locals[*slot].name;
                let var = p.functions[*fi].locals.iter().find(|l| &l.name == name)?;
                Some(p.types.size_of(&var.ty) / copies)
            }
        }
    };
    let orig_index = walk::eid_index(&analysis.program);
    let mut flagged: HashSet<u32> = HashSet::new();
    for f in &p.functions {
        // Constant strides of the slots' derivations in this function.
        let mut slot_strides: HashMap<VarBinding, Vec<u64>> = HashMap::new();
        stmts_in_block(&f.body, &mut |s| {
            if let Some((slot, value)) = derivation(s) {
                slot_strides
                    .entry(slot)
                    .or_default()
                    .extend(constant_stride(value));
            }
        });
        walk_exprs_in_block(&f.body, &mut |e| {
            let Some(&orig) = t.eid_provenance.get(&e.eid) else {
                return;
            };
            let Some(AccessRoot::Indirect(pointer)) = access_root(e) else {
                return;
            };
            let strides: Vec<u64> = match hoisted_slot(pointer) {
                Some(slot) => slot_strides.get(&slot).cloned().unwrap_or_default(),
                None => constant_stride(pointer).into_iter().collect(),
            };
            let mut objs: Vec<PtObj> = analysis.pt.objects_of_site(orig).into_iter().collect();
            objs.sort();
            for stride in strides {
                let Some(obj) = objs.iter().find(|o| copy_size(o) != Some(stride)) else {
                    continue;
                };
                if !flagged.insert(orig) {
                    continue;
                }
                let actual = copy_size(obj).map_or("a size that is not constant".into(), |s| {
                    format!("{s} bytes")
                });
                let mut d = Diagnostic::new(
                    Code::SpanNotMaintained,
                    format!(
                        "access `{}` is redirected by a constant span of {stride} bytes, \
                         but the transformed program gives {obj:?} {actual} per copy \
                         (stale constant span, Section 3.4)",
                        describe(orig, &orig_index, &analysis.program)
                    ),
                );
                if let Some(sp) = spans.get(&orig) {
                    d = d.with_span(*sp);
                }
                report.push(d);
            }
        });
    }
}

/// The slots valid at a program point; `None` is unreachable code.
type Fresh = Option<HashSet<VarBinding>>;

fn meet(a: Fresh, b: Fresh) -> Fresh {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(a.intersection(&b).copied().collect()),
    }
}

/// Forward must-dataflow over one function's statements: which hoisted
/// slots hold the redirection of their pointer's *current* value.
struct Freshness<'a> {
    func: &'a Function,
    /// Per slot: the variables its derivations read.
    deps: HashMap<VarBinding, HashSet<VarBinding>>,
    /// Per global a slot depends on: the functions that may assign it.
    assigners: HashMap<usize, HashSet<String>>,
    /// `(break, continue)` states of the enclosing loops, innermost last.
    loops: Vec<(Fresh, Fresh)>,
    stale_uses: Vec<(VarBinding, SourceSpan)>,
}

impl Freshness<'_> {
    /// Does evaluating `x` (this node alone) store `dep`?
    fn stores(&self, x: &Expr, dep: VarBinding) -> bool {
        match &x.kind {
            ExprKind::Assign { lhs: cell, .. }
            | ExprKind::IncDec { target: cell, .. }
            | ExprKind::AddrOf(cell) => stored_variable(cell) == Some(dep),
            ExprKind::Call { name, .. } => match dep {
                VarBinding::Global(g) => self.assigners.get(&g).is_some_and(|f| f.contains(name)),
                VarBinding::Local(_) => false,
            },
            _ => false,
        }
    }

    /// Evaluates `e`: flags uses of slots that are not fresh, then drops
    /// the slots whose pointer or span it stores.
    fn eval(&mut self, e: &Expr, st: &mut Fresh) {
        let Some(fresh) = st else { return };
        walk_exprs(e, &mut |x| {
            if let ExprKind::Var {
                binding: Some(b), ..
            } = &x.kind
            {
                if self.deps.contains_key(b) && !fresh.contains(b) {
                    self.stale_uses.push((*b, x.span));
                }
            }
        });
        let mut nodes = Vec::new();
        walk_exprs(e, &mut |x| nodes.push(x));
        self.drop_stored(fresh, &nodes);
    }

    /// Drops the slots whose pointer or span one of `nodes` stores.
    fn drop_stored(&self, fresh: &mut HashSet<VarBinding>, nodes: &[&Expr]) {
        fresh.retain(|slot| {
            let stored = |&d| nodes.iter().any(|x| self.stores(x, d));
            !self.deps[slot].iter().any(stored)
        });
    }

    fn block(&mut self, b: &Block, mut st: Fresh) -> Fresh {
        let declared: Vec<VarBinding> = b
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Decl { slot: Some(k), .. } => Some(VarBinding::Local(*k)),
                _ => None,
            })
            .collect();
        for s in &b.stmts {
            st = self.stmt(s, st);
        }
        // Bindings are unique per declaration: leaving the scope only drops
        // the block's own slots.
        if let Some(fresh) = &mut st {
            fresh.retain(|s| !declared.contains(s));
        }
        st
    }

    fn stmt(&mut self, s: &Stmt, mut st: Fresh) -> Fresh {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    self.eval(e, &mut st);
                }
                st
            }
            StmtKind::Expr(e) => {
                match derivation(s) {
                    Some((slot, value)) => {
                        self.eval(value, &mut st);
                        if let Some(fresh) = &mut st {
                            fresh.insert(slot);
                        }
                    }
                    None => self.eval(e, &mut st),
                }
                st
            }
            StmtKind::If { cond, then, els } => {
                self.eval(cond, &mut st);
                let a = self.block(then, st.clone());
                let b = match els {
                    Some(b) => self.block(b, st),
                    None => st,
                };
                meet(a, b)
            }
            StmtKind::While { cond, body, .. } => self.looping(Some(cond), body, None, false, st),
            StmtKind::DoWhile { body, cond, .. } => self.looping(Some(cond), body, None, true, st),
            StmtKind::For {
                init,
                cond,
                step,
                body,
                mark,
            } => {
                if let Some(i) = init {
                    st = self.stmt(i, st);
                }
                if !mark.candidate {
                    return self.looping(cond.as_ref(), body, step.as_ref(), false, st);
                }
                // Iterations may run on other workers, each with its own
                // slots: nothing is fresh inside. The slots of the thread
                // that dispatched the loop outlive it, except those whose
                // pointer or span some iteration stores.
                let inside = st.as_ref().map(|_| HashSet::new());
                self.looping(cond.as_ref(), body, step.as_ref(), false, inside);
                if let Some(fresh) = &mut st {
                    let mut nodes = Vec::new();
                    walk_exprs_in_stmt(s, &mut |x| nodes.push(x));
                    self.drop_stored(fresh, &nodes);
                }
                st
            }
            StmtKind::Break => {
                if let Some((brk, _)) = self.loops.last_mut() {
                    *brk = meet(brk.take(), st);
                }
                None
            }
            StmtKind::Continue => {
                if let Some((_, cont)) = self.loops.last_mut() {
                    *cont = meet(cont.take(), st);
                }
                None
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.eval(e, &mut st);
                }
                None
            }
            StmtKind::Block(b) => self.block(b, st),
        }
    }

    /// A loop: the state at its head is the meet of the entry state and
    /// every back edge, found by iterating (the sets only shrink).
    fn looping(
        &mut self,
        cond: Option<&Expr>,
        body: &Block,
        step: Option<&Expr>,
        body_first: bool,
        entry: Fresh,
    ) -> Fresh {
        let mut head = entry;
        loop {
            self.loops.push((None, None));
            let mut st = head.clone();
            if !body_first {
                if let Some(c) = cond {
                    self.eval(c, &mut st);
                }
            }
            let exit_at_head = st.clone();
            st = self.block(body, st);
            let (brk, cont) = self.loops.pop().expect("pushed above");
            st = meet(st, cont);
            if let Some(e) = step {
                self.eval(e, &mut st);
            }
            if body_first {
                if let Some(c) = cond {
                    self.eval(c, &mut st);
                }
            }
            let next = meet(head.clone(), st.clone());
            if next == head {
                let exit = if body_first { st } else { exit_at_head };
                return meet(exit, brk);
            }
            head = next;
        }
    }
}

/// Section 3.4's hoisted redirections: `__rd_p[__tid()]` holds `p`
/// redirected, so no use of the slot may be reachable from a store to `p`
/// or its span — an assignment, an address handed out, a callee that
/// assigns the global — without a derivation in between.
fn check_hoisted_redirections(t: &Transformed, report: &mut Report) {
    let p = &t.program;
    let mut hidden: Option<HiddenStores> = None;
    for f in &p.functions {
        let mut deps: HashMap<VarBinding, HashSet<VarBinding>> = HashMap::new();
        stmts_in_block(&f.body, &mut |s| {
            if let Some((slot, value)) = derivation(s) {
                let reads = deps.entry(slot).or_default();
                walk_exprs(value, &mut |x| {
                    if let ExprKind::Var {
                        binding: Some(b), ..
                    } = &x.kind
                    {
                        reads.insert(*b);
                    }
                });
            }
        });
        // A slot that is declared but never derived still has uses to flag.
        for (k, l) in f.locals.iter().enumerate() {
            if l.name.starts_with(RD_PREFIX) {
                deps.entry(VarBinding::Local(k)).or_default();
            }
        }
        if deps.is_empty() {
            continue;
        }
        let mut assigners: HashMap<usize, HashSet<String>> = HashMap::new();
        for d in deps.values().flatten() {
            if let VarBinding::Global(g) = d {
                let hs = hidden.get_or_insert_with(|| HiddenStores::of(p));
                assigners
                    .entry(*g)
                    .or_insert_with(|| hs.functions_assigning(p, *g));
            }
        }
        let mut flow = Freshness {
            func: f,
            deps,
            assigners,
            loops: Vec::new(),
            stale_uses: Vec::new(),
        };
        flow.block(&f.body, Some(HashSet::new()));
        let mut seen: HashSet<VarBinding> = HashSet::new();
        for (slot, span) in std::mem::take(&mut flow.stale_uses) {
            if !seen.insert(slot) {
                continue;
            }
            let VarBinding::Local(k) = slot else { continue };
            let name = &flow.func.locals[k].name;
            report.push(
                Diagnostic::new(
                    Code::SpanNotMaintained,
                    format!(
                        "hoisted redirection `{name}` is used where a store to `{}` or \
                         its span may have happened since the slot was derived \
                         (Section 3.4 violation)",
                        name.trim_start_matches(RD_PREFIX)
                    ),
                )
                .with_span(span),
            );
        }
    }
}

// ---- DOACROSS sync windows (DSE006) ----------------------------------------

fn check_sync_windows(
    analysis: &Analysis,
    t: &Transformed,
    spans: &HashMap<u32, SourceSpan>,
    report: &mut Report,
) {
    let ordered = analysis.shared_carried_eids();
    let orig_index = walk::eid_index(&analysis.program);
    for (loop_id, l) in t.parallel.loops.iter().enumerate() {
        let Some(mode) = l.mode else { continue };
        let region = body_region(&t.parallel, l.body_entry);
        let mut waits: Vec<Pc> = Vec::new();
        let mut posts: Vec<Pc> = Vec::new();
        let mut accesses: Vec<(Pc, u32)> = Vec::new();
        let ordered_eids = ordered.get(&l.label).cloned().unwrap_or_default();
        for pc in region.clone() {
            match t.parallel.code[pc as usize] {
                Instr::Wait(id) if id as usize == loop_id => waits.push(pc),
                Instr::Post(id) if id as usize == loop_id => posts.push(pc),
                Instr::Load { site, .. } | Instr::Store { site, .. } if site != NO_SITE => {
                    let teid = t.parallel.sites.info(site).eid;
                    if let Some(&orig) = t.eid_provenance.get(&teid) {
                        if ordered_eids.contains(&orig) {
                            accesses.push((pc, orig));
                        }
                    }
                }
                _ => {}
            }
        }
        match mode {
            ParMode::DoAll => {
                if !waits.is_empty() || !posts.is_empty() {
                    report.push(
                        Diagnostic::new(
                            Code::SyncWindowViolation,
                            "DOALL body contains Wait/Post synchronization",
                        )
                        .with_loop(&l.label),
                    );
                }
            }
            ParMode::DoAcross => {
                if waits.len() != 1 || posts.len() != 1 || waits[0] >= posts[0] {
                    report.push(
                        Diagnostic::new(
                            Code::SyncWindowViolation,
                            format!(
                                "DOACROSS body must contain exactly one Wait before \
                                 one Post (found {} Wait, {} Post)",
                                waits.len(),
                                posts.len()
                            ),
                        )
                        .with_loop(&l.label),
                    );
                    continue;
                }
                let (w, p) = (waits[0], posts[0]);
                for (pc, orig) in accesses {
                    if pc <= w || pc >= p {
                        let mut d = Diagnostic::new(
                            Code::SyncWindowViolation,
                            format!(
                                "ordered shared access `{}` lies outside the \
                                 Wait/Post window of its DOACROSS loop",
                                describe(orig, &orig_index, &analysis.program)
                            ),
                        )
                        .with_loop(&l.label);
                        if let Some(sp) = spans.get(&orig) {
                            d = d.with_span(*sp);
                        }
                        report.push(d);
                    }
                }
            }
        }
    }
}

/// The contiguous pc range of an outlined loop body: from its entry to the
/// first `Ret` at or beyond every jump target seen so far.
fn body_region(prog: &CompiledProgram, entry: Pc) -> std::ops::Range<Pc> {
    let mut max_target = entry;
    let mut pc = entry;
    loop {
        match prog.code[pc as usize] {
            Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
                max_target = max_target.max(t);
            }
            Instr::Ret if pc >= max_target => return entry..pc + 1,
            _ => {}
        }
        pc += 1;
        if pc as usize >= prog.code.len() {
            return entry..pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_pointwise_or_from_top() {
        let mut a = vec![CLEAN, CLEAN];
        assert!(merge(&mut a, &vec![TID, CLEAN, TID]));
        assert_eq!(a, vec![CLEAN, TID]);
        assert!(!merge(&mut a, &vec![CLEAN, CLEAN]));
    }

    #[test]
    fn merge_keeps_a_place_only_when_both_sides_agree() {
        let place = |off| Val {
            tid: true,
            place: Some(off),
        };
        let mut a = vec![place(8)];
        assert!(!merge(&mut a, &vec![place(8)]));
        assert!(merge(&mut a, &vec![place(16)]));
        assert_eq!(a, vec![TID]);
    }

    #[test]
    fn self_update_recognizes_pointer_bump() {
        let p = Expr::new(
            ExprKind::Var {
                name: "p".into(),
                binding: None,
            },
            Default::default(),
        );
        let one = Expr::new(ExprKind::IntLit(1), Default::default());
        let rhs = Expr::new(
            ExprKind::Binary(BinOp::Add, Box::new(p), Box::new(one)),
            Default::default(),
        );
        assert!(self_update(&rhs, "p"));
        assert!(!self_update(&rhs, "q"));
    }
}
