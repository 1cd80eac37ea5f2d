//! DSE014/DSE015 — translation validation of the register backend.
//!
//! The stack→register translator ([`dse_ir::regcode`]) fuses opcodes,
//! promotes clean frame scalars into dedicated registers, and coalesces
//! copies. Rather than trusting those rewrites, this pass *symbolically
//! executes* every stack basic block next to its register translation (the
//! origin map gives the block correspondence) and proves the two abstract
//! machines equivalent at every block exit:
//!
//! * live operand slots hold identical value terms (`slot k` ↔ `r[k]`),
//! * every promoted scalar's logical value matches its dedicated register,
//! * the memory/observer *effect* sequences (stores, copies, calls,
//!   parallel regions, synchronization, loop marks) are identical, site
//!   ids included — a fused tid access (`LdTid`/`StTid`) is modelled as
//!   the address term its stack-side producer pushes plus the plain load
//!   or store, and the block must form as many tid addresses on either
//!   side, so `counters.private_direct` cannot drift — and
//! * the exits themselves correspond — same kind, same branch condition
//!   and polarity, and the register target is exactly the translation of
//!   the stack target (branches into a promoted function entry must land
//!   *after* the prologue loads).
//!
//! Terms live in one hash-consed arena shared by both sides, so
//! equivalence is pointer equality. Unknown memory reads are `Load` terms
//! stamped with the effect-list length at read time (two loads of one
//! address separated by a store get distinct terms); call results and
//! post-call/post-region register contents are opaque per-event terms.
//!
//! Divergence is `DSE014`. Two precision cases report `DSE015`: a narrow
//! promoted store whose register image misses the sign-extension
//! canonicalization (one side's term is exactly `Sext` of the other), and
//! a declared promotion inside an outlined parallel body, whose frame is
//! shared across threads and must never promote. The declared
//! [`dse_ir::PromotionPlan`] is also re-derived from the stack flow and
//! compared, so an illegal *plan* is caught even when the code matches it.

use std::collections::HashMap;

use dse_ir::bytecode::{
    Builtin, CmpOp, CompiledProgram, FBinOp, IBinOp, Instr, LoopEvent, Pc, RetKind,
};
use dse_ir::sites::{SiteId, NO_SITE};
use dse_ir::{promotion_plan, RInstr, Reg, RegProgram, StackFlow, Ty, NO_OWNER};

use crate::diag::{Code, Diagnostic, Report, Severity};

/// Validates the translation. Returns `true` when no error was added.
/// Assumes the stack and register structural checks already passed (the
/// block walk indexes both programs freely).
pub fn check(
    prog: &CompiledProgram,
    rp: &RegProgram,
    flow: &StackFlow,
    report: &mut Report,
) -> bool {
    let before = report.count(Severity::Error);
    if !check_plan(prog, rp, flow, report) {
        return false;
    }
    let mut v = Validator::new(prog, rp, flow);
    for block in v.blocks() {
        v.check_block(block, report);
    }
    report.count(Severity::Error) == before
}

/// Re-derives the promotion plan from the stack flow and compares it with
/// the plan the translation declares. A declared promotion the flow cannot
/// justify is a miscompile even if code and plan agree.
fn check_plan(
    prog: &CompiledProgram,
    rp: &RegProgram,
    flow: &StackFlow,
    report: &mut Report,
) -> bool {
    let nf = prog.funcs.len();
    let mut body_promos: Vec<(u32, u32)> = rp
        .promo
        .promoted
        .keys()
        .copied()
        .filter(|&(own, _)| own as usize >= nf)
        .collect();
    body_promos.sort_unstable();
    for (own, off) in &body_promos {
        report.push(Diagnostic::new(
            Code::TranslationPrecision,
            format!(
                "frame offset {off} is declared promoted inside {}, an outlined \
                 parallel body whose frame is shared across worker threads",
                flow.owner_name(prog, *own)
            ),
        ));
    }
    if !body_promos.is_empty() {
        return false;
    }
    let derived = promotion_plan(prog, flow);
    if derived != rp.promo {
        report.push(Diagnostic::new(
            Code::TranslationDivergence,
            "the declared promotion plan differs from the plan the stack \
             dataflow justifies"
                .to_string(),
        ));
        return false;
    }
    true
}

type TermId = u32;

/// A value in the shared abstract domain. Operands are arena ids, so
/// structural equality is id equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Term {
    /// Operand slot `k`'s value at block entry.
    SlotVar(u16),
    /// Promoted slot `off`'s logical value at (non-entry) block entry.
    PromVar(u32),
    /// Frame memory at `off` on function entry (zeroed or argument-carrying).
    FrameVar(u32),
    /// The (stale) frame home of promoted slot `off` at non-entry block
    /// entry — on the register side the home only syncs at spill points.
    StaleVar(u32),
    /// Register `r` after clobbering event number `e` (call or region).
    Havoc {
        e: u32,
        r: u16,
    },
    /// The scalar result of call event number `e`.
    CallRet(u32),
    /// A register the block reads without any binding (caught by DSE013;
    /// kept opaque here so validation can continue).
    Unbound(u16),
    ConstI(i64),
    /// Float constant, by bit pattern (hashable).
    ConstF(u64),
    FrameAddr(u32),
    GlobalAddr(u32),
    TidScaled(i64),
    TidSpanScaled {
        z: i64,
        span: TermId,
    },
    FrameAddrTid {
        offset: u32,
        stride: i64,
    },
    GlobalAddrTid {
        addr: u32,
        stride: i64,
    },
    IterIdx(u8),
    Tid,
    NThreads,
    IBin(IBinOp, TermId, TermId),
    FBin(FBinOp, TermId, TermId),
    ICmp(CmpOp, TermId, TermId),
    FCmp(CmpOp, TermId, TermId),
    INeg(TermId),
    FNeg(TermId),
    BNot(TermId),
    LNot(TermId),
    I2F(TermId),
    F2I(TermId),
    Sext(u8, TermId),
    Fsqrt(TermId),
    Fabs(TermId),
    Localize(TermId),
    /// An unknown memory read: address, shape, site, and the number of
    /// effects already emitted (so reads across stores stay distinct).
    Load {
        addr: TermId,
        width: u8,
        is_float: bool,
        site: SiteId,
        epoch: u32,
    },
}

/// One observable event. Both sides must emit identical sequences.
#[derive(Debug, Clone, PartialEq)]
enum Effect {
    Store {
        a: TermId,
        v: TermId,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    MemCpy {
        dst: TermId,
        src: TermId,
        size: u32,
        load_site: SiteId,
        store_site: SiteId,
    },
    Call {
        fi: u32,
        args: Vec<TermId>,
    },
    CallBuiltin {
        b: Builtin,
        args: Vec<TermId>,
        pc: Pc,
    },
    ParLoop {
        id: u32,
        lo: TermId,
        hi: TermId,
    },
    Wait(u32),
    Post(u32),
    LoopMark(LoopEvent, u32),
    Localize {
        a: TermId,
        site: SiteId,
    },
}

#[derive(Default)]
struct Arena {
    terms: Vec<Term>,
    map: HashMap<Term, TermId>,
}

impl Arena {
    fn mk(&mut self, t: Term) -> TermId {
        // Width-8 sign extension is the identity; canonicalize so an
        // explicit full-width Sext on one side cannot cause false alarms.
        if let Term::Sext(8, inner) = t {
            return inner;
        }
        if let Some(&id) = self.map.get(&t) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(t);
        self.map.insert(t, id);
        id
    }

    fn get(&self, id: TermId) -> Term {
        self.terms[id as usize]
    }

    /// True when one term is exactly a sign-extension of the other — the
    /// signature of a skipped narrow-store canonicalization (DSE015).
    fn sext_of(&self, a: TermId, b: TermId) -> bool {
        matches!(self.get(a), Term::Sext(_, inner) if inner == b)
            || matches!(self.get(b), Term::Sext(_, inner) if inner == a)
    }
}

/// How a block hands control onward, with targets still in each side's own
/// pc space.
#[derive(Debug, Clone, PartialEq)]
enum Exit {
    /// Falls into the next leader.
    Fall,
    Jump(u32),
    Cond {
        c: TermId,
        on_true: bool,
        t: u32,
    },
    Ret {
        val: Option<TermId>,
        is_float: bool,
    },
    Halt {
        val: Option<TermId>,
        is_float: bool,
    },
}

/// One stack basic block: `[start, end]` inclusive of the terminator.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: usize,
    /// One past the last stack pc of the block.
    end: usize,
}

struct Validator<'p> {
    prog: &'p CompiledProgram,
    rp: &'p RegProgram,
    flow: &'p StackFlow,
    arena: Arena,
    /// Stack pc → function index, for prologue-skipping branch targets.
    func_entry: HashMap<Pc, u32>,
    leaders: Vec<usize>,
}

impl<'p> Validator<'p> {
    fn new(prog: &'p CompiledProgram, rp: &'p RegProgram, flow: &'p StackFlow) -> Validator<'p> {
        let mut func_entry = HashMap::new();
        for (fi, f) in prog.funcs.iter().enumerate() {
            func_entry.insert(f.entry, fi as u32);
        }
        let mut v = Validator {
            prog,
            rp,
            flow,
            arena: Arena::default(),
            func_entry,
            leaders: Vec::new(),
        };
        v.leaders = v.compute_leaders();
        v
    }

    fn compute_leaders(&self) -> Vec<usize> {
        let n = self.prog.code.len();
        let mut leader = vec![false; n];
        for f in &self.prog.funcs {
            leader[f.entry as usize] = true;
        }
        for l in &self.prog.loops {
            if l.mode.is_some() {
                leader[l.body_entry as usize] = true;
            }
        }
        for (pc, ins) in self.prog.code.iter().enumerate() {
            if self.flow.states[pc].is_none() {
                continue;
            }
            match *ins {
                Instr::Jump(t) => leader[t as usize] = true,
                Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
                    leader[t as usize] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                _ => {}
            }
        }
        (0..n)
            .filter(|&pc| leader[pc] && self.flow.states[pc].is_some())
            .collect()
    }

    fn blocks(&self) -> Vec<Block> {
        let n = self.prog.code.len();
        let mut out = Vec::with_capacity(self.leaders.len());
        for &start in &self.leaders {
            let mut pc = start;
            loop {
                let term = matches!(
                    self.prog.code[pc],
                    Instr::Jump(_)
                        | Instr::JumpIfZ(_)
                        | Instr::JumpIfNZ(_)
                        | Instr::Ret
                        | Instr::Halt
                );
                pc += 1;
                if term
                    || pc >= n
                    || self.leaders.binary_search(&pc).is_ok()
                    || self.flow.states[pc].is_none()
                {
                    break;
                }
            }
            out.push(Block { start, end: pc });
        }
        out
    }

    /// First register pc whose origin is ≥ the given stack pc. The origin
    /// map is nondecreasing by construction (emission order), so this is
    /// the translation boundary of the stack pc.
    fn reg_lo(&self, stack_pc: usize) -> usize {
        self.rp.origin.partition_point(|&o| (o as usize) < stack_pc)
    }

    /// The register pc a *branch* to `t` must land on: past the promoted
    /// prologue when `t` is a function entry (calls enter at
    /// [`Validator::reg_lo`] instead and run the prologue).
    fn expected_branch_target(&self, t: usize) -> usize {
        let base = self.reg_lo(t);
        match self.func_entry.get(&(t as Pc)) {
            Some(&fi) => base + self.rp.promo.spills[fi as usize].len(),
            None => base,
        }
    }

    fn check_block(&mut self, b: Block, report: &mut Report) {
        let own = self.flow.owner[b.start];
        let entry_block = self.func_entry.contains_key(&(b.start as Pc));
        let depth0 = self.flow.states[b.start]
            .as_ref()
            .map(|s| s.len())
            .unwrap_or(0);

        // Block-entry bindings: slot k and r[k] are the same fresh
        // variable; a slot with surviving address provenance is bound to
        // the exact address term on both sides (the register may never
        // materialize a promoted slot's dead address — such slots are
        // exempt from exit comparison below).
        let mut stack_vals: Vec<TermId> = Vec::with_capacity(depth0);
        let mut regs: Vec<Option<TermId>> = vec![None; self.rp.frame_regs as usize];
        for (k, reg) in regs.iter_mut().enumerate().take(depth0) {
            let slot = self.flow.states[b.start].as_ref().expect("reachable")[k];
            let t = match slot.addr_of {
                Some(off) => self.arena.mk(Term::FrameAddr(off)),
                None => self.arena.mk(Term::SlotVar(k as u16)),
            };
            stack_vals.push(t);
            *reg = Some(t);
        }
        let promoted: Vec<(u32, Reg, u8, bool)> = {
            let mut v: Vec<_> = self
                .rp
                .promo
                .promoted
                .iter()
                .filter(|((o, _), _)| *o == own)
                .map(|(&(_, off), &(sreg, w, isf))| (off, sreg, w, isf))
                .collect();
            v.sort_unstable();
            v
        };
        let mut logical: HashMap<u32, TermId> = HashMap::new();
        let mut home: HashMap<u32, TermId> = HashMap::new();
        for &(off, sreg, _, _) in &promoted {
            if entry_block {
                // The prologue loads bind r[sreg] from the frame below.
                let init = self.arena.mk(Term::FrameVar(off));
                logical.insert(off, init);
                home.insert(off, init);
            } else {
                let cur = self.arena.mk(Term::PromVar(off));
                logical.insert(off, cur);
                regs[sreg as usize] = Some(cur);
                home.insert(off, self.arena.mk(Term::StaleVar(off)));
            }
        }

        let stack_side = self.run_stack(b, own, stack_vals, logical);
        let reg_side = self.run_reg(b, own, regs, home, report);

        let loc = format!("stack block {}..{}", b.start, b.end);

        // Effects must agree exactly, in order.
        let ne = stack_side.effects.len().min(reg_side.effects.len());
        let mut effects_diverged = false;
        for i in 0..ne {
            if stack_side.effects[i] != reg_side.effects[i] {
                report.push(Diagnostic::new(
                    Code::TranslationDivergence,
                    format!(
                        "{loc}: effect {i} differs between backends \
                         (stack: {:?}; register: {:?})",
                        stack_side.effects[i], reg_side.effects[i]
                    ),
                ));
                effects_diverged = true;
                break;
            }
        }
        if !effects_diverged && stack_side.effects.len() != reg_side.effects.len() {
            report.push(Diagnostic::new(
                Code::TranslationDivergence,
                format!(
                    "{loc}: {} effect(s) on the stack side but {} on the register side",
                    stack_side.effects.len(),
                    reg_side.effects.len()
                ),
            ));
        }

        // A fused tid access forms its address where the stack side's
        // consumer is, so formation is not an ordered effect; but each one
        // bumps `counters.private_direct`, and a block is a straight line.
        if stack_side.tid_addrs != reg_side.tid_addrs {
            report.push(Diagnostic::new(
                Code::TranslationDivergence,
                format!(
                    "{loc}: {} tid-strided address(es) formed on the stack side but {} \
                     on the register side (`counters.private_direct` would differ)",
                    stack_side.tid_addrs, reg_side.tid_addrs
                ),
            ));
        }

        // Live operand slots.
        for (k, &s) in stack_side.stack.iter().enumerate() {
            if let Term::FrameAddr(off) = self.arena.get(s) {
                if self.rp.promo.promoted.contains_key(&(own, off)) {
                    continue; // dead address of a promoted slot
                }
            }
            let r = reg_side.regs.get(k).copied().flatten();
            if r != Some(s) {
                report.push(Diagnostic::new(
                    Code::TranslationDivergence,
                    format!(
                        "{loc}: operand slot {k} exits with different values \
                         under the two backends"
                    ),
                ));
            }
        }

        // Promoted scalars: logical value vs dedicated register.
        for &(off, sreg, _, _) in &promoted {
            let s = stack_side.logical[&off];
            let r = reg_side.regs[sreg as usize];
            if r == Some(s) {
                continue;
            }
            match r {
                Some(r) if self.arena.sext_of(s, r) => {
                    report.push(Diagnostic::new(
                        Code::TranslationPrecision,
                        format!(
                            "{loc}: promoted slot r{sreg} (frame offset {off}) exits \
                             without the sign-extension canonicalization of its \
                             narrow store"
                        ),
                    ));
                }
                _ => {
                    report.push(Diagnostic::new(
                        Code::TranslationDivergence,
                        format!(
                            "{loc}: promoted slot r{sreg} (frame offset {off}) exits \
                             out of sync with its stack-side value"
                        ),
                    ));
                }
            }
        }

        // Exit correspondence.
        self.check_exits(&loc, &stack_side.exit, &reg_side.exit, report);
    }

    fn check_exits(&self, loc: &str, s: &Exit, r: &Exit, report: &mut Report) {
        let diverge = |report: &mut Report, why: String| {
            report.push(Diagnostic::new(
                Code::TranslationDivergence,
                format!("{loc}: {why}"),
            ));
        };
        match (s, r) {
            (Exit::Fall, Exit::Fall) => {}
            (Exit::Jump(t), Exit::Jump(rt)) => {
                let want = self.expected_branch_target(*t as usize);
                if *rt as usize != want {
                    diverge(
                        report,
                        format!(
                            "jump resolves to reg pc {rt}, but stack target {t} \
                             translates to reg pc {want}"
                        ),
                    );
                }
            }
            (
                Exit::Cond { c, on_true, t },
                Exit::Cond {
                    c: rc,
                    on_true: r_on_true,
                    t: rt,
                },
            ) => {
                if c != rc || on_true != r_on_true {
                    diverge(
                        report,
                        "branch condition or polarity differs between backends".to_string(),
                    );
                }
                let want = self.expected_branch_target(*t as usize);
                if *rt as usize != want {
                    diverge(
                        report,
                        format!(
                            "branch resolves to reg pc {rt}, but stack target {t} \
                             translates to reg pc {want}"
                        ),
                    );
                }
            }
            (
                Exit::Ret { val, is_float },
                Exit::Ret {
                    val: rv,
                    is_float: rf,
                },
            )
            | (
                Exit::Halt { val, is_float },
                Exit::Halt {
                    val: rv,
                    is_float: rf,
                },
            ) => {
                if val != rv || is_float != rf {
                    diverge(
                        report,
                        "return/halt value differs between backends".to_string(),
                    );
                }
            }
            _ => diverge(
                report,
                format!("exit kinds differ between backends ({s:?} vs {r:?})"),
            ),
        }
    }

    // ---- stack side -----------------------------------------------------

    fn run_stack(
        &mut self,
        b: Block,
        own: u32,
        stack: Vec<TermId>,
        logical: HashMap<u32, TermId>,
    ) -> StackSide {
        let mut s = StackSide {
            stack,
            logical,
            effects: Vec::new(),
            tid_addrs: 0,
            exit: Exit::Fall,
        };
        for pc in b.start..b.end {
            let depth = s.stack.len();
            match self.prog.code[pc] {
                Instr::PushI(v) => s.push(self.arena.mk(Term::ConstI(v))),
                Instr::PushF(v) => s.push(self.arena.mk(Term::ConstF(v.to_bits()))),
                Instr::Dup => {
                    let t = s.top();
                    s.push(t);
                }
                Instr::Drop => {
                    s.pop();
                }
                Instr::Tuck => {
                    let b2 = s.pop();
                    let a = s.pop();
                    s.push(b2);
                    s.push(a);
                    s.push(b2);
                }
                Instr::FrameAddr(off) => s.push(self.arena.mk(Term::FrameAddr(off))),
                Instr::GlobalAddr(a) => s.push(self.arena.mk(Term::GlobalAddr(a))),
                Instr::IterIdx(d) => s.push(self.arena.mk(Term::IterIdx(d))),
                Instr::TidScaled(k) => s.push(self.arena.mk(Term::TidScaled(k))),
                Instr::TidSpanScaled(z) => {
                    let span = s.pop();
                    s.push(self.arena.mk(Term::TidSpanScaled { z, span }));
                }
                Instr::FrameAddrTid { offset, stride } => {
                    s.tid_addrs += 1;
                    s.push(self.arena.mk(Term::FrameAddrTid { offset, stride }))
                }
                Instr::GlobalAddrTid { addr, stride } => {
                    s.tid_addrs += 1;
                    s.push(self.arena.mk(Term::GlobalAddrTid { addr, stride }))
                }
                Instr::Load {
                    width,
                    is_float,
                    site,
                } => {
                    let addr = s.pop();
                    let promoted_off = match self.arena.get(addr) {
                        Term::FrameAddr(off)
                            if self.rp.promo.promoted.contains_key(&(own, off)) =>
                        {
                            Some(off)
                        }
                        _ => None,
                    };
                    let t = match promoted_off {
                        Some(off) => *s.logical.get(&off).expect("promoted offsets are pre-bound"),
                        None => {
                            let epoch = s.effects.len() as u32;
                            self.arena.mk(Term::Load {
                                addr,
                                width,
                                is_float,
                                site,
                                epoch,
                            })
                        }
                    };
                    s.push(t);
                }
                Instr::Store {
                    width,
                    is_float,
                    site,
                } => {
                    let v = s.pop();
                    let a = s.pop();
                    let promoted_off = match self.arena.get(a) {
                        Term::FrameAddr(off)
                            if self.rp.promo.promoted.contains_key(&(own, off)) =>
                        {
                            Some(off)
                        }
                        _ => None,
                    };
                    match promoted_off {
                        Some(off) => {
                            // Narrow stores truncate in memory and reloads
                            // sign-extend; the logical value is canonical.
                            let stored = if !is_float && width < 8 {
                                self.arena.mk(Term::Sext(width, v))
                            } else {
                                v
                            };
                            s.logical.insert(off, stored);
                        }
                        None => s.effects.push(Effect::Store {
                            a,
                            v,
                            width,
                            is_float,
                            site,
                        }),
                    }
                }
                Instr::MemCpy {
                    size,
                    load_site,
                    store_site,
                } => {
                    let dst = s.pop();
                    let src = s.pop();
                    s.effects.push(Effect::MemCpy {
                        dst,
                        src,
                        size,
                        load_site,
                        store_site,
                    });
                }
                Instr::IBin(op) => {
                    let r = s.pop();
                    let l = s.pop();
                    s.push(self.arena.mk(Term::IBin(op, l, r)));
                }
                Instr::FBin(op) => {
                    let r = s.pop();
                    let l = s.pop();
                    s.push(self.arena.mk(Term::FBin(op, l, r)));
                }
                Instr::ICmp(op) => {
                    let r = s.pop();
                    let l = s.pop();
                    s.push(self.arena.mk(Term::ICmp(op, l, r)));
                }
                Instr::FCmp(op) => {
                    let r = s.pop();
                    let l = s.pop();
                    s.push(self.arena.mk(Term::FCmp(op, l, r)));
                }
                Instr::INeg => s.in_place(&mut self.arena, Term::INeg),
                Instr::FNeg => s.in_place(&mut self.arena, Term::FNeg),
                Instr::BNot => s.in_place(&mut self.arena, Term::BNot),
                Instr::LNot => s.in_place(&mut self.arena, Term::LNot),
                Instr::I2F => s.in_place(&mut self.arena, Term::I2F),
                Instr::F2I => s.in_place(&mut self.arena, Term::F2I),
                Instr::SextTrunc(w) => {
                    let t = s.pop();
                    s.push(self.arena.mk(Term::Sext(w, t)));
                }
                Instr::Jump(t) => s.exit = Exit::Jump(t),
                Instr::JumpIfZ(t) => {
                    let c = s.pop();
                    s.exit = Exit::Cond {
                        c,
                        on_true: false,
                        t,
                    };
                }
                Instr::JumpIfNZ(t) => {
                    let c = s.pop();
                    s.exit = Exit::Cond {
                        c,
                        on_true: true,
                        t,
                    };
                }
                Instr::Call(fi) => {
                    let nargs = self.prog.func(fi).params.len();
                    let args = s.stack.split_off(depth - nargs);
                    s.effects.push(Effect::Call { fi, args });
                    if self.prog.func(fi).ret == RetKind::Scalar {
                        let uid = s.effects.len() as u32 - 1;
                        s.push(self.arena.mk(Term::CallRet(uid)));
                    }
                }
                Instr::CallBuiltin(b2) => match b2 {
                    Builtin::Fsqrt => s.in_place(&mut self.arena, Term::Fsqrt),
                    Builtin::Fabs => s.in_place(&mut self.arena, Term::Fabs),
                    Builtin::Tid => s.push(self.arena.mk(Term::Tid)),
                    Builtin::NThreads => s.push(self.arena.mk(Term::NThreads)),
                    _ => {
                        let args = s.stack.split_off(depth - b2.arity());
                        s.effects.push(Effect::CallBuiltin {
                            b: b2,
                            args,
                            pc: pc as Pc,
                        });
                        if b2.has_result() {
                            let uid = s.effects.len() as u32 - 1;
                            s.push(self.arena.mk(Term::CallRet(uid)));
                        }
                    }
                },
                Instr::Ret => {
                    let is_float = depth == 1
                        && self.flow.states[pc].as_ref().expect("reachable")[0].ty == Ty::F;
                    let val = (depth == 1).then(|| s.pop());
                    s.exit = Exit::Ret { val, is_float };
                }
                Instr::LoopMark(ev, id) => s.effects.push(Effect::LoopMark(ev, id)),
                Instr::ParLoop(id) => {
                    let hi = s.pop();
                    let lo = s.pop();
                    s.effects.push(Effect::ParLoop { id, lo, hi });
                }
                Instr::Wait(id) => s.effects.push(Effect::Wait(id)),
                Instr::Post(id) => s.effects.push(Effect::Post(id)),
                Instr::Localize { site } => {
                    let a = s.pop();
                    s.effects.push(Effect::Localize { a, site });
                    s.push(self.arena.mk(Term::Localize(a)));
                }
                Instr::Halt => {
                    let st = self.flow.states[pc].as_ref().expect("reachable");
                    let is_float = depth >= 1 && st[depth - 1].ty == Ty::F;
                    let val = (depth >= 1).then(|| s.top());
                    s.exit = Exit::Halt { val, is_float };
                }
            }
        }
        s
    }

    // ---- register side --------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn run_reg(
        &mut self,
        b: Block,
        own: u32,
        regs: Vec<Option<TermId>>,
        home: HashMap<u32, TermId>,
        report: &mut Report,
    ) -> RegSide {
        let lo = self.reg_lo(b.start);
        let hi = self.reg_lo(b.end);
        let mut r = RegSide {
            regs,
            home,
            effects: Vec::new(),
            tid_addrs: 0,
            exit: Exit::Fall,
        };
        let loc = format!("stack block {}..{}", b.start, b.end);
        let mut ended = false;
        for pc in lo..hi {
            if ended {
                report.push(Diagnostic::new(
                    Code::TranslationDivergence,
                    format!("{loc}: register code continues past its terminator at reg pc {pc}"),
                ));
                break;
            }
            match self.rp.code[pc] {
                RInstr::LdcI { d, v } => r.w(d, self.arena.mk(Term::ConstI(v))),
                RInstr::LdcF { d, v } => r.w(d, self.arena.mk(Term::ConstF(v.to_bits()))),
                RInstr::Mov { d, s } => {
                    let t = r.read(&mut self.arena, s);
                    r.w(d, t);
                }
                RInstr::Tuck { d } => {
                    let a = r.read(&mut self.arena, d);
                    let b2 = r.read(&mut self.arena, d + 1);
                    r.w(d, b2);
                    r.w(d + 1, a);
                    r.w(d + 2, b2);
                }
                RInstr::FrameAddr { d, off } => r.w(d, self.arena.mk(Term::FrameAddr(off))),
                RInstr::GlobalAddr { d, addr } => r.w(d, self.arena.mk(Term::GlobalAddr(addr))),
                RInstr::TidScaled { d, k } => r.w(d, self.arena.mk(Term::TidScaled(k))),
                RInstr::TidSpanScaled { d, z } => {
                    let span = r.read(&mut self.arena, d);
                    r.w(d, self.arena.mk(Term::TidSpanScaled { z, span }));
                }
                RInstr::FrameAddrTid { d, offset, stride } => {
                    r.tid_addrs += 1;
                    r.w(d, self.arena.mk(Term::FrameAddrTid { offset, stride }))
                }
                RInstr::GlobalAddrTid { d, addr, stride } => {
                    r.tid_addrs += 1;
                    r.w(d, self.arena.mk(Term::GlobalAddrTid { addr, stride }))
                }
                RInstr::IterIdx { d, depth } => r.w(d, self.arena.mk(Term::IterIdx(depth))),
                RInstr::Load {
                    d,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = r.read(&mut self.arena, d);
                    let epoch = r.effects.len() as u32;
                    r.w(
                        d,
                        self.arena.mk(Term::Load {
                            addr,
                            width,
                            is_float,
                            site,
                            epoch,
                        }),
                    );
                }
                RInstr::LdFrame {
                    d,
                    off,
                    width,
                    is_float,
                    site,
                } => {
                    if site == NO_SITE && self.rp.promo.promoted.contains_key(&(own, off)) {
                        let t = *r.home.get(&off).expect("promoted homes are pre-bound");
                        r.w(d, t);
                    } else {
                        let addr = self.arena.mk(Term::FrameAddr(off));
                        let epoch = r.effects.len() as u32;
                        r.w(
                            d,
                            self.arena.mk(Term::Load {
                                addr,
                                width,
                                is_float,
                                site,
                                epoch,
                            }),
                        );
                    }
                }
                RInstr::LdGlobal {
                    d,
                    addr,
                    width,
                    is_float,
                    site,
                } => {
                    let a = self.arena.mk(Term::GlobalAddr(addr));
                    let epoch = r.effects.len() as u32;
                    r.w(
                        d,
                        self.arena.mk(Term::Load {
                            addr: a,
                            width,
                            is_float,
                            site,
                            epoch,
                        }),
                    );
                }
                RInstr::LdTid {
                    d,
                    frame,
                    base,
                    stride,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = r.tid_addr(&mut self.arena, frame, base, stride);
                    let epoch = r.effects.len() as u32;
                    r.w(
                        d,
                        self.arena.mk(Term::Load {
                            addr,
                            width,
                            is_float,
                            site,
                            epoch,
                        }),
                    );
                }
                RInstr::StTid {
                    frame,
                    base,
                    stride,
                    v,
                    width,
                    is_float,
                    site,
                } => {
                    let a = r.tid_addr(&mut self.arena, frame, base, stride);
                    let vt = r.read(&mut self.arena, v);
                    r.effects.push(Effect::Store {
                        a,
                        v: vt,
                        width,
                        is_float,
                        site,
                    });
                }
                RInstr::Store {
                    a,
                    v,
                    width,
                    is_float,
                    site,
                } => {
                    let at = r.read(&mut self.arena, a);
                    let vt = r.read(&mut self.arena, v);
                    r.effects.push(Effect::Store {
                        a: at,
                        v: vt,
                        width,
                        is_float,
                        site,
                    });
                }
                RInstr::StFrame {
                    off,
                    v,
                    width,
                    is_float,
                    site,
                } => {
                    let vt = r.read(&mut self.arena, v);
                    if site == NO_SITE && self.rp.promo.promoted.contains_key(&(own, off)) {
                        r.home.insert(off, vt);
                    } else {
                        let a = self.arena.mk(Term::FrameAddr(off));
                        r.effects.push(Effect::Store {
                            a,
                            v: vt,
                            width,
                            is_float,
                            site,
                        });
                    }
                }
                RInstr::MemCpy {
                    dst,
                    src,
                    size,
                    load_site,
                    store_site,
                } => {
                    let d = r.read(&mut self.arena, dst);
                    let s2 = r.read(&mut self.arena, src);
                    r.effects.push(Effect::MemCpy {
                        dst: d,
                        src: s2,
                        size,
                        load_site,
                        store_site,
                    });
                }
                RInstr::IBin { op, d, l, r: rr } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    r.w(d, self.arena.mk(Term::IBin(op, lt, rt)));
                }
                RInstr::IBinImm { op, d, l, imm } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = self.arena.mk(Term::ConstI(imm));
                    r.w(d, self.arena.mk(Term::IBin(op, lt, rt)));
                }
                RInstr::FBin { op, d, l, r: rr } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    r.w(d, self.arena.mk(Term::FBin(op, lt, rt)));
                }
                RInstr::ICmp { op, d, l, r: rr } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    r.w(d, self.arena.mk(Term::ICmp(op, lt, rt)));
                }
                RInstr::ICmpImm { op, d, l, imm } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = self.arena.mk(Term::ConstI(imm));
                    r.w(d, self.arena.mk(Term::ICmp(op, lt, rt)));
                }
                RInstr::FCmp { op, d, l, r: rr } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    r.w(d, self.arena.mk(Term::FCmp(op, lt, rt)));
                }
                RInstr::INeg { d } => r.in_place(&mut self.arena, d, Term::INeg),
                RInstr::FNeg { d } => r.in_place(&mut self.arena, d, Term::FNeg),
                RInstr::BNot { d } => r.in_place(&mut self.arena, d, Term::BNot),
                RInstr::LNot { d } => r.in_place(&mut self.arena, d, Term::LNot),
                RInstr::I2F { d } => r.in_place(&mut self.arena, d, Term::I2F),
                RInstr::F2I { d } => r.in_place(&mut self.arena, d, Term::F2I),
                RInstr::Sext { d, w } => {
                    let t = r.read(&mut self.arena, d);
                    r.w(d, self.arena.mk(Term::Sext(w, t)));
                }
                RInstr::Fsqrt { d } => r.in_place(&mut self.arena, d, Term::Fsqrt),
                RInstr::Fabs { d } => r.in_place(&mut self.arena, d, Term::Fabs),
                RInstr::Tid { d } => r.w(d, self.arena.mk(Term::Tid)),
                RInstr::NThreads { d } => r.w(d, self.arena.mk(Term::NThreads)),
                RInstr::Jump { t } => {
                    r.exit = Exit::Jump(t);
                    ended = true;
                }
                RInstr::JumpIfZ { s, t } => {
                    let c = r.read(&mut self.arena, s);
                    r.exit = Exit::Cond {
                        c,
                        on_true: false,
                        t,
                    };
                    ended = true;
                }
                RInstr::JumpIfNZ { s, t } => {
                    let c = r.read(&mut self.arena, s);
                    r.exit = Exit::Cond {
                        c,
                        on_true: true,
                        t,
                    };
                    ended = true;
                }
                RInstr::JumpICmp {
                    op,
                    l,
                    r: rr,
                    t,
                    on_true,
                } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    let c = self.arena.mk(Term::ICmp(op, lt, rt));
                    r.exit = Exit::Cond { c, on_true, t };
                    ended = true;
                }
                RInstr::JumpICmpImm {
                    op,
                    l,
                    imm,
                    t,
                    on_true,
                } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = self.arena.mk(Term::ConstI(imm));
                    let c = self.arena.mk(Term::ICmp(op, lt, rt));
                    r.exit = Exit::Cond { c, on_true, t };
                    ended = true;
                }
                RInstr::JumpFCmp {
                    op,
                    l,
                    r: rr,
                    t,
                    on_true,
                } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    let c = self.arena.mk(Term::FCmp(op, lt, rt));
                    r.exit = Exit::Cond { c, on_true, t };
                    ended = true;
                }
                RInstr::Call { target, fi, abase } => {
                    let nargs = self.prog.func(fi).params.len() as u16;
                    let args: Vec<TermId> = (0..nargs)
                        .map(|k| r.read(&mut self.arena, abase + k))
                        .collect();
                    r.effects.push(Effect::Call { fi, args });
                    let uid = r.effects.len() as u32 - 1;
                    // The callee enters through the prologue.
                    let want = self.reg_lo(self.prog.func(fi).entry as usize);
                    if target as usize != want {
                        report.push(Diagnostic::new(
                            Code::TranslationDivergence,
                            format!(
                                "{loc}: call targets reg pc {target}, but function \
                                 {fi} enters at reg pc {want}"
                            ),
                        ));
                    }
                    // The callee window overlaps the caller's at or above
                    // the argument base.
                    for k in abase as usize..r.regs.len() {
                        r.regs[k] = Some(self.arena.mk(Term::Havoc {
                            e: uid,
                            r: k as u16,
                        }));
                    }
                    if self.prog.func(fi).ret == RetKind::Scalar {
                        r.w(abase, self.arena.mk(Term::CallRet(uid)));
                    }
                }
                RInstr::CallBuiltin {
                    b: b2,
                    abase,
                    orig_pc,
                } => {
                    let args: Vec<TermId> = (0..b2.arity() as u16)
                        .map(|k| r.read(&mut self.arena, abase + k))
                        .collect();
                    r.effects.push(Effect::CallBuiltin {
                        b: b2,
                        args,
                        pc: orig_pc,
                    });
                    if b2.has_result() {
                        let uid = r.effects.len() as u32 - 1;
                        r.w(abase, self.arena.mk(Term::CallRet(uid)));
                    }
                }
                RInstr::Ret {
                    src,
                    has_val,
                    is_float,
                } => {
                    let val = has_val.then(|| r.read(&mut self.arena, src));
                    r.exit = Exit::Ret { val, is_float };
                    ended = true;
                }
                RInstr::LoopMark { ev, id } => r.effects.push(Effect::LoopMark(ev, id)),
                RInstr::ParLoop { id, lo: rl, hi } => {
                    let lt = r.read(&mut self.arena, rl);
                    let ht = r.read(&mut self.arena, hi);
                    r.effects.push(Effect::ParLoop { id, lo: lt, hi: ht });
                    let uid = r.effects.len() as u32 - 1;
                    // The body region's window starts at `lo`.
                    for k in rl as usize..r.regs.len() {
                        r.regs[k] = Some(self.arena.mk(Term::Havoc {
                            e: uid,
                            r: k as u16,
                        }));
                    }
                }
                RInstr::Wait { id } => r.effects.push(Effect::Wait(id)),
                RInstr::Post { id } => r.effects.push(Effect::Post(id)),
                RInstr::Localize { d, site } => {
                    let a = r.read(&mut self.arena, d);
                    r.effects.push(Effect::Localize { a, site });
                    r.w(d, self.arena.mk(Term::Localize(a)));
                }
                RInstr::Halt {
                    src,
                    has_val,
                    is_float,
                } => {
                    let val = has_val.then(|| r.read(&mut self.arena, src));
                    r.exit = Exit::Halt { val, is_float };
                    ended = true;
                }
                RInstr::Unreachable => {
                    report.push(Diagnostic::new(
                        Code::TranslationDivergence,
                        format!("{loc}: reachable stack code translates to a trap at reg pc {pc}"),
                    ));
                    ended = true;
                }
            }
        }
        r
    }
}

struct StackSide {
    stack: Vec<TermId>,
    logical: HashMap<u32, TermId>,
    effects: Vec<Effect>,
    /// `FrameAddrTid`/`GlobalAddrTid` executed: the block's contribution
    /// to `counters.private_direct`.
    tid_addrs: u32,
    exit: Exit,
}

impl StackSide {
    fn push(&mut self, t: TermId) {
        self.stack.push(t);
    }
    fn pop(&mut self) -> TermId {
        self.stack.pop().expect("stackcheck proved depths")
    }
    fn top(&self) -> TermId {
        *self.stack.last().expect("stackcheck proved depths")
    }
    fn in_place(&mut self, arena: &mut Arena, mk: fn(TermId) -> Term) {
        let t = self.pop();
        let t = arena.mk(mk(t));
        self.push(t);
    }
}

struct RegSide {
    regs: Vec<Option<TermId>>,
    home: HashMap<u32, TermId>,
    effects: Vec<Effect>,
    /// Tid-strided addresses formed, by a producer or inside a fused access.
    tid_addrs: u32,
    exit: Exit,
}

impl RegSide {
    /// The address a fused tid access forms: the term its stack-side
    /// producer pushed.
    fn tid_addr(&mut self, arena: &mut Arena, frame: bool, base: u32, stride: i64) -> TermId {
        self.tid_addrs += 1;
        arena.mk(if frame {
            Term::FrameAddrTid {
                offset: base,
                stride,
            }
        } else {
            Term::GlobalAddrTid { addr: base, stride }
        })
    }
    fn read(&mut self, arena: &mut Arena, r: Reg) -> TermId {
        match self.regs.get(r as usize).copied().flatten() {
            Some(t) => t,
            None => arena.mk(Term::Unbound(r)),
        }
    }
    fn w(&mut self, r: Reg, t: TermId) {
        if let Some(slot) = self.regs.get_mut(r as usize) {
            *slot = Some(t);
        }
    }
    fn in_place(&mut self, arena: &mut Arena, d: Reg, mk: fn(TermId) -> Term) {
        let t = self.read(arena, d);
        let t = arena.mk(mk(t));
        self.w(d, t);
    }
}

// `NO_OWNER` guards unreachable leaders; blocks are only built for
// reachable pcs, so the owner lookup in `check_block` is always real.
const _: u32 = NO_OWNER;
