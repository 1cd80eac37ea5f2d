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

use dse_lang::fasthash::{HashMap, HashSet};

use dse_analysis::consteval::{alloc_call_size, const_eval};
use dse_analysis::effects::HiddenStores;
use dse_analysis::{PtObj, VarId};
use dse_core::access::{access_root, AccessRoot};
use dse_core::hoist::RD_PREFIX;
use dse_core::{Analysis, Transformed};
use dse_ir::bytecode::{Builtin, CompiledProgram, Instr, Pc, RetKind};
use dse_ir::loops::ParMode;
use dse_ir::sites::{SiteId, NO_SITE};
use dse_lang::ast::*;
use dse_lang::printer;
use dse_lang::types::Type;

use crate::diag::{Code, Diagnostic, Report};
use crate::mustflow::{Fact, Flow, Held, Pass, Stores};

/// Runs all transform-invariant checks, appending findings to `report`.
/// `eids` indexes the original program, whose accesses (and spans) the
/// findings name.
pub fn check(analysis: &Analysis, t: &Transformed, eids: &EidIndex<'_>, report: &mut Report) {
    check_redirection(analysis, t, eids, report);
    check_span_maintenance(t, report);
    check_constant_spans(analysis, t, eids, report);
    check_hoisted_redirections(t, report);
    check_sync_windows(analysis, t, eids, report);
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
/// `tid_slots` yields a tid-derived value. Returns, per pc, the state
/// reaching it (`None`: unreached) and the function whose frame it
/// addresses.
fn taint_fixpoint(
    prog: &CompiledProgram,
    tid_slots: &HashSet<Slot>,
) -> (Vec<Option<Stack>>, Vec<Option<u32>>, SlotFacts) {
    let n = prog.code.len();
    let mut states: Vec<Option<Stack>> = vec![None; n];
    let mut frame_of: Vec<Option<u32>> = vec![None; n];
    let mut facts = SlotFacts::default();
    let mut work: Vec<Pc> = Vec::new();
    let roots = prog
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| (f.entry, fi as u32));
    let bodies = prog.loops.iter().filter(|l| l.mode.is_some());
    for (entry, func) in roots.chain(bodies.map(|l| (l.body_entry, l.func))) {
        states[entry as usize] = Some(Vec::new());
        frame_of[entry as usize] = Some(func);
        work.push(entry);
    }
    // One outgoing stack and one successor list, reused by every step.
    let (mut next, mut succs): (Stack, Vec<Pc>) = (Vec::new(), Vec::new());
    while let Some(pc) = work.pop() {
        let Some(stack) = &states[pc as usize] else {
            continue;
        };
        next.clone_from(stack);
        let func = frame_of[pc as usize].expect("a reached pc has a frame");
        step(prog, pc, &mut next, &mut succs, func, tid_slots, &mut facts);
        for &s in &succs {
            frame_of[s as usize].get_or_insert(func);
            let changed = match &mut states[s as usize] {
                Some(old) => merge(old, &next),
                slot @ None => {
                    *slot = Some(next.clone());
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
    frame_of: &[Option<u32>],
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
    for (pc, func) in frame_of.iter().enumerate() {
        let Some(func) = *func else { continue };
        let (off, tid_place) = match prog.code[pc] {
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

/// Executes one instruction abstractly: turns `st` into the outgoing stack
/// and `succs` into the successor pcs, recording what it learns about frame
/// tid places.
fn step(
    prog: &CompiledProgram,
    pc: Pc,
    st: &mut Stack,
    succs: &mut Vec<Pc>,
    func: u32,
    tid_slots: &HashSet<Slot>,
    facts: &mut SlotFacts,
) {
    // An operand consumed as a plain value: a place address among them has
    // escaped the load/store discipline.
    let mut pop = |st: &mut Stack| {
        let v = st.pop().unwrap_or(CLEAN);
        if let Some(off) = v.place {
            facts.escaped.insert((func, off));
        }
        v.tid
    };
    succs.clear();
    match prog.code[pc as usize] {
        Instr::PushI(_) | Instr::PushF(_) => {
            st.push(CLEAN);
        }
        Instr::Dup => {
            let t = *st.last().unwrap_or(&CLEAN);
            st.push(t);
        }
        Instr::Drop => {
            st.pop();
        }
        Instr::Tuck => {
            // [a, b] -> [b, a, b]
            let b = st.pop().unwrap_or(CLEAN);
            let a = st.pop().unwrap_or(CLEAN);
            st.push(b);
            st.push(a);
            st.push(b);
        }
        Instr::FrameAddr(_) | Instr::GlobalAddr(_) | Instr::IterIdx(_) => {
            st.push(CLEAN);
        }
        Instr::TidScaled(_) => {
            st.push(TID);
        }
        Instr::TidSpanScaled(_) => {
            pop(st);
            st.push(TID);
        }
        Instr::FrameAddrTid { offset, .. } => {
            st.push(Val {
                tid: true,
                place: Some(offset),
            });
        }
        Instr::GlobalAddrTid { .. } => {
            st.push(TID);
        }
        Instr::Load { .. } => {
            let addr = st.pop().unwrap_or(CLEAN);
            let tid = addr
                .place
                .is_some_and(|off| tid_slots.contains(&(func, off)));
            st.push(Val { tid, place: None });
        }
        Instr::Store { .. } => {
            let value = pop(st);
            let addr = st.pop().unwrap_or(CLEAN);
            if let Some(off) = addr.place {
                *facts.stores.entry((func, off)).or_insert(true) &= value;
            }
        }
        Instr::MemCpy { .. } => {
            pop(st);
            pop(st);
        }
        Instr::IBin(_) | Instr::FBin(_) | Instr::ICmp(_) | Instr::FCmp(_) => {
            let b = pop(st);
            let a = pop(st);
            st.push(Val {
                tid: a || b,
                place: None,
            });
        }
        Instr::INeg
        | Instr::FNeg
        | Instr::BNot
        | Instr::LNot
        | Instr::I2F
        | Instr::F2I
        | Instr::SextTrunc(_) => {
            let tid = pop(st);
            st.push(Val { tid, place: None });
        }
        Instr::Jump(t) => return succs.push(t),
        Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
            pop(st);
            return succs.extend([t, pc + 1]);
        }
        Instr::Call(f) => {
            for _ in 0..prog.func(f).params.len() {
                pop(st);
            }
            // The callee's return value arrives via the shared operand
            // stack; redirection offsets are applied at access sites, so a
            // returned value is treated as tid-clean.
            if prog.func(f).ret == RetKind::Scalar {
                st.push(CLEAN);
            }
        }
        Instr::CallBuiltin(b) => {
            for _ in 0..b.arity() {
                pop(st);
            }
            if b.has_result() {
                st.push(if b == Builtin::Tid { TID } else { CLEAN });
            }
        }
        Instr::Ret | Instr::Halt => return,
        Instr::LoopMark(..) => {}
        Instr::ParLoop(_) => {
            pop(st);
            pop(st);
        }
        Instr::Wait(_) | Instr::Post(_) => {}
        Instr::Localize { .. } => {
            // The runtime-privatization hook translates an address into the
            // current worker's private copy — tid-derived by definition.
            pop(st);
            st.push(TID);
        }
    }
    succs.push(pc + 1);
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
    eids: &EidIndex<'_>,
    report: &mut Report,
) {
    // A hoisted redirection (`__rd_p[__tid()]`) reaches its accesses through
    // a frame slot: first find the slots that provably hold tid-derived
    // values, then let loads from them carry the taint.
    let (mut states, frame_of, facts) = taint_fixpoint(&t.parallel, &HashSet::default());
    let tid_slots = tid_derived_slots(&t.parallel, &frame_of, &facts);
    if !tid_slots.is_empty() {
        states = taint_fixpoint(&t.parallel, &tid_slots).0;
    }
    // One finding per original access, not per bytecode occurrence.
    let mut flagged: HashSet<(u32, Code)> = HashSet::default();
    for (pc, st) in states.iter().enumerate() {
        let Some(st) = st else { continue };
        let instr = t.parallel.code[pc];
        for (site, tainted) in addr_taints(instr, st) {
            if site == NO_SITE {
                continue;
            }
            let teid = t.parallel.sites.info(site).eid;
            if teid == NO_EID {
                continue;
            }
            let Some(orig) = t.provenance(teid) else {
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
                            describe(orig, eids, &analysis.program)
                        ),
                    );
                    if let Some(e) = eids.get(orig) {
                        d = d.with_span(e.span);
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
                        describe(orig, eids, &analysis.program)
                    ),
                );
                if let Some(e) = eids.get(orig) {
                    d = d.with_span(e.span);
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

fn describe(eid: u32, eids: &EidIndex<'_>, program: &Program) -> String {
    eids.get(eid)
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
        walk_stmts_in_block(&f.body, &mut |s| {
            if let StmtKind::Decl { name, .. } = &s.kind {
                if let Some(x) = name.strip_prefix("__sp_") {
                    shadows.insert(x.to_string());
                }
            }
        });
        check_block_spans(&f.body, &shadows, p, report);
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
                            return f2 == "span" && same_shape(b2, base);
                        }
                    }
                }
                false
            });
            if !paired {
                let key = printer::expr(base, p);
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

/// `__rd_p[__tid()] = <redirected pointer>`: the slot, the cell and the
/// value.
fn derivation(s: &Stmt) -> Option<(VarBinding, &Expr, &Expr)> {
    let StmtKind::Expr(e) = &s.kind else {
        return None;
    };
    match &e.kind {
        ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        } => Some((hoisted_slot(lhs)?, lhs, rhs)),
        _ => None,
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
    eids: &EidIndex<'_>,
    report: &mut Report,
) {
    let p = &t.program;
    let n = t.plan.nthreads.max(1) as u64;
    // Transformed allocation calls by the source call they rewrite.
    let mut allocs: HashMap<u32, &Expr> = HashMap::default();
    for f in &p.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let (ExprKind::Call { .. }, Some(orig)) = (&e.kind, t.provenance(e.eid)) {
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
    let mut flagged: HashSet<u32> = HashSet::default();
    for f in &p.functions {
        // Constant strides of the slots' derivations in this function.
        let mut slot_strides: HashMap<VarBinding, Vec<u64>> = HashMap::default();
        walk_stmts_in_block(&f.body, &mut |s| {
            if let Some((slot, _, value)) = derivation(s) {
                slot_strides
                    .entry(slot)
                    .or_default()
                    .extend(constant_stride(value));
            }
        });
        walk_exprs_in_block(&f.body, &mut |e| {
            let Some(orig) = t.provenance(e.eid) else {
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
                        describe(orig, eids, &analysis.program)
                    ),
                );
                if let Some(e) = eids.get(orig) {
                    d = d.with_span(e.span);
                }
                report.push(d);
            }
        });
    }
}

/// `DSE005`'s facts: one per hoisted slot, "`__rd_p` holds `p`
/// redirected", made true by the slot's derivation (it loads the slot and
/// what the derivation reads) and read at each use of `__rd_p[__tid()]`.
struct Freshness<'a> {
    stores: &'a Stores<'a>,
    /// Per slot, the first use reached where the slot may not be fresh.
    stale_uses: Vec<(VarBinding, &'a Expr)>,
}

impl<'a> Pass<'a> for Freshness<'a> {
    type Key = VarBinding;

    fn read(&mut self, e: &'a Expr, facts: Held<'_, VarBinding>, _: &[&'a Stmt]) {
        let Some(slot) = hoisted_slot(e) else { return };
        let flagged = self.stale_uses.iter().any(|&(s, _)| s == slot);
        if !flagged && !facts.holds(&slot) {
            self.stale_uses.push((slot, e));
        }
    }

    fn gen(&mut self, s: &'a Stmt, _: &[&'a Stmt]) -> Option<Fact<VarBinding>> {
        let (slot, cell, value) = derivation(s)?;
        Some(self.stores.fact(slot, &[cell, value]))
    }
}

/// Section 3.4's hoisted redirections: `__rd_p[__tid()]` holds `p`
/// redirected, so no use of the slot may be reachable from a store to `p`
/// or its span — an assignment, a store through its taken address, a
/// callee that assigns the global — without a derivation in between.
fn check_hoisted_redirections(t: &Transformed, report: &mut Report) {
    let p = &t.program;
    let mut hidden: Option<HiddenStores> = None;
    for (fi, f) in p.functions.iter().enumerate() {
        if !f.locals.iter().any(|l| l.name.starts_with(RD_PREFIX)) {
            continue;
        }
        let hidden = hidden.get_or_insert_with(|| HiddenStores::of(p));
        let stores = Stores::new(p, fi, hidden);
        let fresh = Freshness {
            stores: &stores,
            stale_uses: Vec::new(),
        };
        let mut flow = Flow::new(&stores, fresh);
        flow.function(&f.body);
        for (slot, e) in flow.pass.stale_uses {
            let VarBinding::Local(k) = slot else { continue };
            let name = &f.locals[k].name;
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
                .with_span(e.span),
            );
        }
    }
}

// ---- DOACROSS sync windows (DSE006) ----------------------------------------

fn check_sync_windows(
    analysis: &Analysis,
    t: &Transformed,
    eids: &EidIndex<'_>,
    report: &mut Report,
) {
    // `lower_parallel` outlines exactly the classified loops, in candidate
    // order: the `j`-th parallel loop is the `j`-th classified one, at
    // candidate position `profile.loops[j].loop_id`.
    let (outlined, classified) = (t.parallel.loops.len(), analysis.profile.loops.len());
    if outlined != classified {
        report.push(Diagnostic::new(
            Code::SyncWindowViolation,
            format!(
                "the parallel program outlines {outlined} loops, but {classified} were classified"
            ),
        ));
        return;
    }
    let positions = analysis
        .profile
        .loops
        .iter()
        .map(|ddg| ddg.loop_id as usize);
    let ordered = analysis.ordered_eids();
    for ((loop_id, l), k) in t.parallel.loops.iter().enumerate().zip(positions) {
        let Some(mode) = l.mode else { continue };
        let region = body_region(&t.parallel, l.body_entry);
        let mut waits: Vec<Pc> = Vec::new();
        let mut posts: Vec<Pc> = Vec::new();
        let mut accesses: Vec<(Pc, u32)> = Vec::new();
        let ordered_eids = &ordered[k];
        for pc in region.clone() {
            match t.parallel.code[pc as usize] {
                Instr::Wait(id) if id as usize == loop_id => waits.push(pc),
                Instr::Post(id) if id as usize == loop_id => posts.push(pc),
                Instr::Load { site, .. } | Instr::Store { site, .. } if site != NO_SITE => {
                    let teid = t.parallel.sites.info(site).eid;
                    if let Some(orig) = t.provenance(teid) {
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
                                describe(orig, eids, &analysis.program)
                            ),
                        )
                        .with_loop(&l.label);
                        if let Some(e) = eids.get(orig) {
                            d = d.with_span(e.span);
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
