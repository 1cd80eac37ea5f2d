//! Negative tests: each invariant checker must actually fire when its
//! invariant is broken. A checker that passes every workload (see
//! `invariants_all.rs`) proves nothing unless deliberately corrupted
//! output fails — these tests corrupt one promise at a time.

use dse_core::{Analysis, OptLevel, Transformed};
use dse_ir::bytecode::{Instr, LoopEvent};
use dse_lang::ast::{visit_exprs_in_block, AssignOp, BinOp, Block, Expr, ExprKind, Stmt, StmtKind};
use dse_verify::diag::Code;
use dse_workloads::Scale;

fn transformed(name: &str) -> (Analysis, Transformed) {
    let w = dse_workloads::by_name(name).expect("known workload");
    let analysis = Analysis::from_source(w.source, w.vm_config(Scale::Profile)).unwrap();
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    (analysis, t)
}

fn codes(analysis: &Analysis, t: &Transformed) -> Vec<Code> {
    dse_verify::check_all(analysis, Some(t))
        .diagnostics
        .iter()
        .map(|d| d.code)
        .collect()
}

/// The codes of the findings `sabotaged` has and the clean transform does
/// not: a seeded bug must surface as exactly its own code.
fn new_codes(analysis: &Analysis, clean: &[Code], sabotaged: &Transformed) -> Vec<Code> {
    let mut after = codes(analysis, sabotaged);
    for c in clean {
        let at = after
            .iter()
            .position(|x| x == c)
            .expect("a finding vanished");
        after.remove(at);
    }
    after.dedup();
    after
}

/// `__rd_<pointer>[__tid()] = ...`?
fn is_derivation(s: &Stmt, pointer: &str) -> bool {
    let StmtKind::Expr(e) = &s.kind else {
        return false;
    };
    let ExprKind::Assign { lhs, .. } = &e.kind else {
        return false;
    };
    let ExprKind::Index { base, .. } = &lhs.kind else {
        return false;
    };
    matches!(&base.kind, ExprKind::Var { name, .. } if *name == format!("__rd_{pointer}"))
}

/// Applies `f` to every block of the program, outermost first, until it
/// returns true.
fn find_block(t: &mut Transformed, f: &mut impl FnMut(&mut Block) -> bool) -> bool {
    fn go(b: &mut Block, f: &mut impl FnMut(&mut Block) -> bool) -> bool {
        if f(b) {
            return true;
        }
        b.stmts.iter_mut().any(|s| match &mut s.kind {
            StmtKind::If { then, els, .. } => go(then, f) || els.as_mut().is_some_and(|e| go(e, f)),
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => go(body, f),
            StmtKind::Block(inner) => go(inner, f),
            _ => false,
        })
    }
    t.program
        .functions
        .iter_mut()
        .any(|func| go(&mut func.body, f))
}

/// A constant span that no longer matches what the transformed program
/// allocates (one `QNode` redirection striding 24 bytes over 16-byte
/// nodes — what optimistic planning would emit if it kept a size computed
/// under a layout it later changed) must raise `DSE005`.
#[test]
fn stale_constant_span_is_flagged() {
    let (analysis, mut t) = transformed("dijkstra");
    let clean = codes(&analysis, &t);
    let mut corrupted = false;
    for f in &mut t.program.functions {
        visit_exprs_in_block(&mut f.body, &mut |e: &mut Expr| {
            // __tid() * 16
            if let ExprKind::Binary(BinOp::Mul, tid, stride) = &mut e.kind {
                let is_tid = matches!(&tid.kind, ExprKind::Call { name, .. } if name == "__tid");
                if is_tid && !corrupted && stride.kind == ExprKind::IntLit(16) {
                    stride.kind = ExprKind::IntLit(24);
                    corrupted = true;
                }
            }
        });
    }
    assert!(
        corrupted,
        "expected a constant 16-byte QNode span in the output"
    );
    assert_eq!(new_codes(&analysis, &clean, &t), [Code::SpanNotMaintained]);
}

/// Dropping the derivation that follows `mx = realloc(...)` leaves every
/// later access addressing through a slot that holds the old block's
/// redirection: `DSE005`.
#[test]
fn dropped_rederivation_is_flagged() {
    let (analysis, mut t) = transformed("hmmer");
    let clean = codes(&analysis, &t);
    let dropped = find_block(&mut t, &mut |b| {
        let before = b.stmts.len();
        b.stmts.retain(|s| !is_derivation(s, "mx"));
        b.stmts.len() < before
    });
    assert!(dropped, "expected a `__rd_mx` derivation in the output");
    assert_eq!(new_codes(&analysis, &clean, &t), [Code::SpanNotMaintained]);
}

/// `zptr` is carried from iteration to iteration through `realloc`: its
/// read is an ordered shared site, and a derivation of `__rd_zptr` is such
/// a read. One placed above the `Wait` must raise `DSE006`.
#[test]
fn derivation_above_wait_is_flagged() {
    let (analysis, mut t) = transformed("bzip2");
    let clean = codes(&analysis, &t);
    let window = t.sync_windows["compress_blocks"].expect("DOACROSS window");
    let hoisted = find_block(&mut t, &mut |b| {
        let Some(at) = b.stmts.iter().position(|s| is_derivation(s, "zptr")) else {
            return false;
        };
        assert!(
            window.0 <= at && at <= window.1,
            "derived inside the window"
        );
        let early = b.stmts[at].clone();
        b.stmts.insert(window.0, early);
        true
    });
    assert!(hoisted, "expected a `__rd_zptr` derivation in the output");
    // The early copy sits where the window began; order from the next
    // statement on, and lower again.
    let mut windows = t.sync_windows.clone();
    windows.insert("compress_blocks".into(), Some((window.0 + 1, window.1 + 1)));
    t.parallel = analysis
        .lower_parallel(&t.program, &windows, OptLevel::Full)
        .unwrap();
    assert_eq!(
        new_codes(&analysis, &clean, &t),
        [Code::SyncWindowViolation]
    );
}

/// Un-redirecting a private access (TidScaled offset replaced by a constant
/// zero) must raise `DSE003`.
#[test]
fn unredirected_private_access_is_flagged() {
    let (analysis, mut t) = transformed("dijkstra");
    assert!(!codes(&analysis, &t).contains(&Code::PrivateNotRedirected));
    // Strip every tid-derived addressing form, each replaced by a
    // stack-neutral tid-free equivalent.
    let mut broke = false;
    for i in &mut t.parallel.code {
        let replacement = match *i {
            Instr::TidScaled(_) => Instr::PushI(0),
            Instr::TidSpanScaled(_) => Instr::SextTrunc(8),
            Instr::FrameAddrTid { offset, .. } => Instr::FrameAddr(offset),
            Instr::GlobalAddrTid { addr, .. } => Instr::GlobalAddr(addr),
            _ => continue,
        };
        *i = replacement;
        broke = true;
    }
    assert!(broke, "expected tid-derived redirection in the output");
    assert!(codes(&analysis, &t).contains(&Code::PrivateNotRedirected));
}

/// Claiming every private access is shared must raise `DSE004` for the
/// tid-redirected sites (a shared access must resolve to replica 0).
#[test]
fn tid_addressed_shared_access_is_flagged() {
    let (analysis, mut t) = transformed("dijkstra");
    assert!(!codes(&analysis, &t).contains(&Code::SharedNotReplicaZero));
    t.plan.private_eids.clear();
    assert!(codes(&analysis, &t).contains(&Code::SharedNotReplicaZero));
}

/// Deleting the span bookkeeping after a promoted-pointer assignment must
/// raise `DSE005`.
#[test]
fn dropped_span_store_is_flagged() {
    let (analysis, mut t) = transformed("dijkstra");
    assert!(!codes(&analysis, &t).contains(&Code::SpanNotMaintained));
    let mut dropped = false;
    for f in &mut t.program.functions {
        fn strip(b: &mut dse_lang::ast::Block, dropped: &mut bool) {
            b.stmts.retain(|s| {
                if let StmtKind::Expr(e) = &s.kind {
                    if let ExprKind::Assign {
                        op: AssignOp::Set,
                        lhs,
                        ..
                    } = &e.kind
                    {
                        if matches!(&lhs.kind,
                            ExprKind::Var { name, .. } if name.starts_with("__sp_"))
                        {
                            *dropped = true;
                            return false;
                        }
                    }
                }
                true
            });
            for s in &mut b.stmts {
                match &mut s.kind {
                    StmtKind::If { then, els, .. } => {
                        strip(then, dropped);
                        if let Some(e) = els {
                            strip(e, dropped);
                        }
                    }
                    StmtKind::While { body, .. }
                    | StmtKind::DoWhile { body, .. }
                    | StmtKind::For { body, .. } => strip(body, dropped),
                    StmtKind::Block(inner) => strip(inner, dropped),
                    _ => {}
                }
            }
        }
        strip(&mut f.body, &mut dropped);
    }
    assert!(dropped, "expected span stores in the output");
    assert!(codes(&analysis, &t).contains(&Code::SpanNotMaintained));
}

/// Erasing the Wait of a DOACROSS loop must raise `DSE006`.
#[test]
fn missing_wait_is_flagged() {
    // Find a workload whose transform schedules a DOACROSS loop.
    let name = dse_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .find(|n| {
            let (_, t) = transformed(n);
            t.parallel.code.iter().any(|i| matches!(i, Instr::Wait(_)))
        })
        .expect("some workload runs DOACROSS");
    let (analysis, mut t) = transformed(name);
    assert!(!codes(&analysis, &t).contains(&Code::SyncWindowViolation));
    for i in &mut t.parallel.code {
        if matches!(i, Instr::Wait(_)) {
            *i = Instr::LoopMark(LoopEvent::IterStart, 0);
        }
    }
    assert!(codes(&analysis, &t).contains(&Code::SyncWindowViolation));
}
