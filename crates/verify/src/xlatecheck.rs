//! DSE014/DSE015 — translation validation of the register backend.
//!
//! The stack→register translator ([`dse_ir::regcode`]) fuses opcodes,
//! promotes clean frame places — plain scalars, and in outlined bodies the
//! thread's own replicas — into dedicated registers, and coalesces copies.
//! Rather than trusting those rewrites, this pass *symbolically executes*
//! every stack basic block next to its register translation (the origin
//! map gives the block correspondence) and proves the two abstract
//! machines equivalent at every block exit:
//!
//! * live operand slots hold identical value terms (`slot k` ↔ `r[k]`),
//! * every promoted place's logical value matches its dedicated register,
//! * the memory/observer *effect* sequences (stores, copies, calls,
//!   parallel regions, synchronization, loop marks) are identical, site
//!   ids included — a fused tid access (`LdTid`/`StTid`) is modelled as
//!   the address term its stack-side producer pushes plus the plain load
//!   or store, and the block must form as many tid addresses *of places
//!   left in memory* on either side; `AddScaled`/`LoadIdx` are the
//!   `IBin(Add, b, IBin(Mul, i, k))` address (and the load through it),
//!   and `IBinSext`/`IBinImmSext` are `Sext(w, IBin(..))` —
//! * memory holds a promoted place's logical value wherever someone can
//!   look: a region's entry loads read the place's memory *home*, a
//!   nested `ParLoop` carries the homes of every stored place as part of
//!   its effect (and both sides forget every replica after it), and at
//!   each `Ret` of an outlined body the home of every place the plan
//!   writes back equals its logical value — and
//! * the exits themselves correspond — same kind, same branch condition
//!   and polarity, and the register target is exactly the translation of
//!   the stack target (branches into a region entry must land *after* its
//!   entry loads). One composition is allowed: a stack block ending in
//!   `Jump(h)` whose register image ends in a conditional branch is a
//!   back-edge rotated into its loop's header. The stack side then runs on
//!   through block `h`, which must add no effect and no tid address and
//!   end in `Cond { c, on_true, t }` with `t` the back-edge block's end;
//!   the register exit must be `Cond { c, !on_true }` into the translation
//!   of the pc after block `h`. `IncJumpICmpImm`/`IncJumpICmp` are the
//!   increment's `Sext(w, IBin(Add, d, step))` and the compare of it; the
//!   composed block's slots, places and effects are compared as any
//!   block's are.
//!
//! Terms live in one hash-consed arena shared by both sides, so
//! equivalence is pointer equality. Unknown memory reads are `Load` terms
//! stamped with the effect-list length at read time (two loads of one
//! address separated by a store get distinct terms); call results and
//! post-call/post-region register contents are opaque per-event terms.
//!
//! Divergence is `DSE014`. One precision case reports `DSE015`: a narrow
//! promoted store whose register image misses the sign-extension
//! canonicalization (one side's term is exactly `Sext` of the other). The
//! declared [`dse_ir::PromotionPlan`] — which places, which of them load at
//! entry, which are written back — is also re-derived from the stack flow
//! and compared, so an illegal *plan* is caught even when the code matches
//! it.

use std::collections::HashMap;

use dse_ir::bytecode::{
    Builtin, CmpOp, CompiledProgram, FBinOp, IBinOp, Instr, LoopEvent, Pc, RetKind,
};
use dse_ir::sites::{SiteId, NO_SITE};
use dse_ir::{
    promotion_plan, Place, PromotedPlace, RInstr, Reg, RegProgram, StackFlow, Ty, NO_OWNER,
};

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
    let derived = promotion_plan(prog, flow);
    if derived == rp.promo {
        return true;
    }
    // Name the first place the two plans disagree on, if it is a place.
    let unjustified = rp
        .promo
        .places
        .iter()
        .enumerate()
        .find_map(|(o, declared)| {
            let p = declared
                .iter()
                .find(|p| derived.get(o as u32, p.place) != Some(p))?;
            Some(format!(
                ": {:?} in {} is declared as {p:?}, the flow justifies {:?}",
                p.place,
                flow.owner_name(prog, o as u32),
                derived.get(o as u32, p.place)
            ))
        });
    report.push(Diagnostic::new(
        Code::TranslationDivergence,
        format!(
            "the declared promotion plan differs from the plan the stack \
             dataflow justifies{}",
            unjustified.unwrap_or_default()
        ),
    ));
    false
}

type TermId = u32;

/// A value in the shared abstract domain. Operands are arena ids, so
/// structural equality is id equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Term {
    /// Operand slot `k`'s value at block entry.
    SlotVar(u16),
    /// The logical value, at block entry, of the promoted place whose
    /// register is `r` (the register identifies the place in its region).
    PromVar(u16),
    /// That place's memory at region entry (zeroed, argument-carrying, or
    /// what an earlier iteration left): what an entry load reads.
    FrameVar(u16),
    /// The (stale) memory home of that place at block entry — on the
    /// register side the home only syncs where the translator stores it.
    StaleVar(u16),
    /// That place's memory after the nested parallel region of event `e`.
    RegionMem {
        e: u32,
        r: u16,
    },
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
    /// `image`: what memory holds, when the region starts, for every
    /// promoted place the dispatching body stores (in plan order).
    ParLoop {
        id: u32,
        lo: TermId,
        hi: TermId,
        image: Vec<TermId>,
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
    /// Region entry (stack pc) → owner, for the entry loads a branch to it
    /// must skip.
    region_entry: HashMap<Pc, u32>,
    leaders: Vec<usize>,
}

/// The promoted places of the region a block belongs to, and how the
/// block sees them before it has touched them. A place is identified by
/// its register, so the per-block maps are keyed by `Reg` and filled only
/// for the places the block touches.
#[derive(Clone, Copy)]
struct Promo<'p> {
    flow: &'p StackFlow,
    own: u32,
    places: &'p [PromotedPlace],
    /// The block starts at the region's entry (runs its entry loads).
    entry: bool,
    /// The region is an outlined parallel body.
    is_body: bool,
}

impl<'p> Promo<'p> {
    fn by_place(&self, place: Place) -> Option<&'p PromotedPlace> {
        let i = self.places.binary_search_by(|p| p.place.cmp(&place)).ok()?;
        Some(&self.places[i])
    }

    fn by_reg(&self, r: Reg) -> Option<&'p PromotedPlace> {
        let first = self.places.first()?.reg;
        self.places.get(r.checked_sub(first)? as usize)
    }

    /// The promoted place an unsited frame access fills or empties — the
    /// translator's own traffic, not an access of the program's.
    fn synthetic(&self, place: Place, site: SiteId) -> Option<&'p PromotedPlace> {
        self.by_place(place).filter(|_| site == NO_SITE)
    }

    /// [`Promo::synthetic`] for the fused tid forms (`frame`: a local
    /// replica; a global one is never promoted).
    fn synthetic_tid(
        &self,
        frame: bool,
        base: u32,
        stride: i64,
        site: SiteId,
    ) -> Option<&'p PromotedPlace> {
        let place = Place::FrameTid { off: base, stride };
        self.synthetic(place, site).filter(|_| frame)
    }

    /// The place an address term names, if it is promoted here.
    fn by_addr(&self, t: Term) -> Option<&'p PromotedPlace> {
        match t {
            Term::FrameAddr(off) => self.by_place(Place::Frame(off)),
            Term::FrameAddrTid { offset, stride } => self.by_place(Place::FrameTid {
                off: offset,
                stride,
            }),
            _ => None,
        }
    }

    fn stored(&self, p: &PromotedPlace) -> bool {
        self.flow
            .accesses
            .get(&(self.own, p.place))
            .is_some_and(|a| a.stored)
    }

    /// The place's logical value where the block starts: its memory when
    /// the entry loads are about to read it, an unknown both sides share
    /// otherwise (a place with no entry load is never read before it is
    /// written, which the re-derived plan establishes).
    fn logical0(&self, arena: &mut Arena, p: &PromotedPlace) -> TermId {
        arena.mk(if self.entry && p.entry_load {
            Term::FrameVar(p.reg)
        } else {
            Term::PromVar(p.reg)
        })
    }

    /// What the place's memory holds where the block starts: the logical
    /// value if the region never stores it (or is about to load it),
    /// something stale otherwise.
    fn home0(&self, arena: &mut Arena, p: &PromotedPlace) -> TermId {
        if (self.entry && p.entry_load) || !self.stored(p) {
            self.logical0(arena, p)
        } else {
            arena.mk(Term::StaleVar(p.reg))
        }
    }
}

impl<'p> Validator<'p> {
    fn new(prog: &'p CompiledProgram, rp: &'p RegProgram, flow: &'p StackFlow) -> Validator<'p> {
        let mut region_entry = HashMap::new();
        for (fi, f) in prog.funcs.iter().enumerate() {
            region_entry.insert(f.entry, fi as u32);
        }
        for (bi, &li) in flow.body_loops.iter().enumerate() {
            let owner = (prog.funcs.len() + bi) as u32;
            region_entry.insert(prog.loops[li as usize].body_entry, owner);
        }
        let mut v = Validator {
            prog,
            rp,
            flow,
            arena: Arena::default(),
            region_entry,
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
        self.leaders.iter().map(|&l| self.block_at(l)).collect()
    }

    /// The block that starts at leader `start`.
    fn block_at(&self, start: usize) -> Block {
        let n = self.prog.code.len();
        let mut pc = start;
        loop {
            let term = matches!(
                self.prog.code[pc],
                Instr::Jump(_) | Instr::JumpIfZ(_) | Instr::JumpIfNZ(_) | Instr::Ret | Instr::Halt
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
        Block { start, end: pc }
    }

    /// First register pc whose origin is ≥ the given stack pc. The origin
    /// map is nondecreasing by construction (emission order), so this is
    /// the translation boundary of the stack pc.
    fn reg_lo(&self, stack_pc: usize) -> usize {
        self.rp.origin.partition_point(|&o| (o as usize) < stack_pc)
    }

    /// The register pc a *branch* to `t` must land on: past the entry
    /// loads when `t` is a region entry (calls and iteration dispatches
    /// enter at [`Validator::reg_lo`] instead and run them).
    fn expected_branch_target(&self, t: usize) -> usize {
        let base = self.reg_lo(t);
        match self.region_entry.get(&(t as Pc)) {
            Some(&own) => {
                let places = &self.rp.promo.places[own as usize];
                base + places.iter().filter(|p| p.entry_load).count()
            }
            None => base,
        }
    }

    fn check_block(&mut self, b: Block, report: &mut Report) {
        let own = self.flow.owner[b.start];
        let rp = self.rp;
        let promo = Promo {
            flow: self.flow,
            own,
            places: &rp.promo.places[own as usize],
            entry: self.region_entry.contains_key(&(b.start as Pc)),
            is_body: own as usize >= self.prog.funcs.len(),
        };
        let depth0 = self.flow.states[b.start]
            .as_ref()
            .map(|s| s.len())
            .unwrap_or(0);

        // Block-entry bindings: slot k and r[k] are the same fresh
        // variable; a slot with surviving address provenance is bound to
        // the exact address term on both sides (the register may never
        // materialize a promoted place's dead address — such slots are
        // exempt from exit comparison below). Promoted places bind lazily,
        // through `Promo`, when a side first touches them.
        let mut stack_vals: Vec<TermId> = Vec::with_capacity(depth0);
        let mut regs: Vec<Option<TermId>> = vec![None; self.rp.frame_regs as usize];
        for (k, reg) in regs.iter_mut().enumerate().take(depth0) {
            let slot = self.flow.states[b.start].as_ref().expect("reachable")[k];
            let t = self.arena.mk(match slot.addr_of {
                Some(Place::Frame(off)) => Term::FrameAddr(off),
                Some(Place::FrameTid { off, stride }) => Term::FrameAddrTid {
                    offset: off,
                    stride,
                },
                None => Term::SlotVar(k as u16),
            });
            stack_vals.push(t);
            *reg = Some(t);
        }

        let mut stack_side = StackSide {
            stack: stack_vals,
            logical: HashMap::new(),
            effects: Vec::new(),
            tid_addrs: 0,
            exit: Exit::Fall,
        };
        self.run_stack(b, promo, &mut stack_side);
        let mut reg_side = self.run_reg(b, promo, regs, report);

        let loc = format!("stack block {}..{}", b.start, b.end);
        if let (&Exit::Jump(h), Exit::Cond { .. }) = (&stack_side.exit, &reg_side.exit) {
            self.through_header(&loc, b, h as usize, promo, &mut stack_side, report);
        }

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
        // (A promoted replica forms none, on either side.)
        if stack_side.tid_addrs != reg_side.tid_addrs {
            report.push(Diagnostic::new(
                Code::TranslationDivergence,
                format!(
                    "{loc}: {} tid-strided address(es) formed on the stack side but {} \
                     on the register side for places left in memory",
                    stack_side.tid_addrs, reg_side.tid_addrs
                ),
            ));
        }

        // Live operand slots.
        for (k, &s) in stack_side.stack.iter().enumerate() {
            if promo.by_addr(self.arena.get(s)).is_some() {
                continue; // dead address of a promoted place
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

        // Promoted places: logical value vs dedicated register, for every
        // place a side touched (and every place the entry loads owe).
        // Where the region ends its registers die, and the coalescer has
        // deleted the writes nothing reads: only memory matters there.
        let region_ends = matches!(stack_side.exit, Exit::Ret { .. } | Exit::Halt { .. });
        for p in promo.places.iter().filter(|_| !region_ends) {
            let r = reg_side.regs[p.reg as usize];
            let owed = promo.entry && p.entry_load;
            if !stack_side.logical.contains_key(&p.reg) && r.is_none() && !owed {
                continue;
            }
            let s = stack_side.logical(&mut self.arena, promo, p);
            let r = match r {
                None if !owed => Some(promo.logical0(&mut self.arena, p)),
                r => r,
            };
            if r == Some(s) {
                continue;
            }
            let sreg = p.reg;
            let what = format!("{:?}", p.place);
            match r {
                Some(r) if self.arena.sext_of(s, r) => {
                    report.push(Diagnostic::new(
                        Code::TranslationPrecision,
                        format!(
                            "{loc}: promoted place r{sreg} ({what}) exits \
                             without the sign-extension canonicalization of its \
                             narrow store"
                        ),
                    ));
                }
                _ => {
                    report.push(Diagnostic::new(
                        Code::TranslationDivergence,
                        format!(
                            "{loc}: promoted place r{sreg} ({what}) exits \
                             out of sync with its stack-side value"
                        ),
                    ));
                }
            }
        }

        // A body's registers die at its `Ret`: every place the plan writes
        // back must be in memory by then.
        if promo.is_body && matches!(stack_side.exit, Exit::Ret { .. }) {
            for p in promo.places.iter().filter(|p| p.write_back) {
                let s = stack_side.logical(&mut self.arena, promo, p);
                if reg_side.home(&mut self.arena, p) != s {
                    report.push(Diagnostic::new(
                        Code::TranslationDivergence,
                        format!(
                            "{loc}: the region returns with promoted place r{} ({:?}) \
                             not written back: its memory does not hold its value",
                            p.reg, p.place
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

    /// Runs the stack side of block `b` on from `s`.
    fn run_stack(&mut self, b: Block, promo: Promo<'p>, s: &mut StackSide) {
        s.exit = Exit::Fall;
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
                    let t = Term::FrameAddrTid { offset, stride };
                    // A promoted replica's address is never formed.
                    s.tid_addrs += promo.by_addr(t).is_none() as u32;
                    s.push(self.arena.mk(t))
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
                    let t = match promo.by_addr(self.arena.get(addr)) {
                        Some(p) => s.logical(&mut self.arena, promo, p),
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
                    match promo.by_addr(self.arena.get(a)) {
                        Some(p) => {
                            // Narrow stores truncate in memory and reloads
                            // sign-extend; the logical value is canonical.
                            let stored = if !is_float && width < 8 {
                                self.arena.mk(Term::Sext(width, v))
                            } else {
                                v
                            };
                            s.logical.insert(p.reg, stored);
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
                    // The nested region runs against memory: it must hold
                    // what the dispatching body stored, and afterwards
                    // every replica is whatever the region left.
                    let image = promo
                        .places
                        .iter()
                        .filter(|p| promo.stored(p))
                        .map(|p| s.logical(&mut self.arena, promo, p))
                        .collect();
                    s.effects.push(Effect::ParLoop { id, lo, hi, image });
                    let e = s.effects.len() as u32 - 1;
                    for p in promo.places {
                        if matches!(p.place, Place::FrameTid { .. }) {
                            let after = self.arena.mk(Term::RegionMem { e, r: p.reg });
                            s.logical.insert(p.reg, after);
                        }
                    }
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
    }

    /// A back-edge the register side rotated into its loop's header: the
    /// stack side goes on through the header block `h`, which must be a
    /// test and nothing else — no effect, no tid address — exiting to the
    /// pc after the back-edge (`b.end`). The composed exit is that test
    /// inverted, branching into the body, which is what the rotated
    /// register branch must be.
    fn through_header(
        &mut self,
        loc: &str,
        b: Block,
        h: usize,
        promo: Promo<'p>,
        s: &mut StackSide,
        report: &mut Report,
    ) {
        let header = self.block_at(h);
        let (effects, tid_addrs) = (s.effects.len(), s.tid_addrs);
        self.run_stack(header, promo, s);
        match s.exit {
            Exit::Cond { c, on_true, t }
                if t as usize == b.end
                    && s.effects.len() == effects
                    && s.tid_addrs == tid_addrs =>
            {
                s.exit = Exit::Cond {
                    c,
                    on_true: !on_true,
                    t: header.end as u32,
                };
            }
            _ => report.push(Diagnostic::new(
                Code::TranslationDivergence,
                format!(
                    "{loc}: the register side rotates the back-edge into its header, but \
                     stack block {}..{} is not a test without effects exiting to stack pc {}",
                    header.start, header.end, b.end
                ),
            )),
        }
    }

    // ---- register side --------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn run_reg(
        &mut self,
        b: Block,
        promo: Promo<'p>,
        regs: Vec<Option<TermId>>,
        report: &mut Report,
    ) -> RegSide<'p> {
        let lo = self.reg_lo(b.start);
        let hi = self.reg_lo(b.end);
        let mut r = RegSide {
            promo,
            regs,
            home: HashMap::new(),
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
                    if let Some(p) = promo.synthetic(Place::Frame(off), site) {
                        let t = r.home(&mut self.arena, p);
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
                    if let Some(p) = promo.synthetic_tid(frame, base, stride, site) {
                        let t = r.home(&mut self.arena, p);
                        r.w(d, t);
                    } else {
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
                    let vt = r.read(&mut self.arena, v);
                    if let Some(p) = promo.synthetic_tid(frame, base, stride, site) {
                        r.home.insert(p.reg, vt);
                    } else {
                        let a = r.tid_addr(&mut self.arena, frame, base, stride);
                        r.effects.push(Effect::Store {
                            a,
                            v: vt,
                            width,
                            is_float,
                            site,
                        });
                    }
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
                    if let Some(p) = promo.synthetic(Place::Frame(off), site) {
                        r.home.insert(p.reg, vt);
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
                // The fused forms are the terms of the instructions they
                // replace: `Sext(w, IBin(..))`, and the `PushI(k); IBin(Mul);
                // IBin(Add)` address, loaded from by `LoadIdx`.
                RInstr::IBinSext { op, d, l, r: rr, w } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = r.read(&mut self.arena, rr);
                    let t = self.arena.mk(Term::IBin(op, lt, rt));
                    r.w(d, self.arena.mk(Term::Sext(w, t)));
                }
                RInstr::IBinImmSext { op, d, l, imm, w } => {
                    let lt = r.read(&mut self.arena, l);
                    let rt = self.arena.mk(Term::ConstI(imm));
                    let t = self.arena.mk(Term::IBin(op, lt, rt));
                    r.w(d, self.arena.mk(Term::Sext(w, t)));
                }
                RInstr::AddScaled { d, l, r: rr, k } => {
                    let t = r.scaled(&mut self.arena, l, rr, k);
                    r.w(d, t);
                }
                RInstr::LoadIdx {
                    d,
                    b: rb,
                    i,
                    k,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = r.scaled(&mut self.arena, rb, i, k);
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
                // The increment the stack side stores, `Sext(w, IBin(Add,
                // d, step))`, then the compare of the new value.
                RInstr::IncJumpICmpImm {
                    d,
                    step,
                    w,
                    op,
                    imm,
                    t,
                    on_true,
                } => {
                    let lt = r.increment(&mut self.arena, d, step, w);
                    let rt = self.arena.mk(Term::ConstI(imm));
                    let c = self.arena.mk(Term::ICmp(op, lt, rt));
                    r.exit = Exit::Cond { c, on_true, t };
                    ended = true;
                }
                RInstr::IncJumpICmp {
                    d,
                    step,
                    w,
                    op,
                    r: rr,
                    t,
                    on_true,
                } => {
                    let lt = r.increment(&mut self.arena, d, step, w);
                    let rt = r.read(&mut self.arena, rr);
                    let c = self.arena.mk(Term::ICmp(op, lt, rt));
                    r.exit = Exit::Cond { c, on_true, t };
                    ended = true;
                }
                RInstr::Call {
                    target,
                    fi,
                    abase,
                    win,
                } => {
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
                    // The callee window must start above everything this
                    // region keeps in registers; it clobbers from there up.
                    let want = self.rp.promo.win(promo.own);
                    if win as u32 != want {
                        report.push(Diagnostic::new(
                            Code::TranslationDivergence,
                            format!(
                                "{loc}: call places the callee window at r{win}, but \
                                 the region's registers end at r{want}"
                            ),
                        ));
                    }
                    for k in win as usize..r.regs.len() {
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
                    let image = promo
                        .places
                        .iter()
                        .filter(|p| promo.stored(p))
                        .map(|p| r.home(&mut self.arena, p))
                        .collect();
                    r.effects.push(Effect::ParLoop {
                        id,
                        lo: lt,
                        hi: ht,
                        image,
                    });
                    let uid = r.effects.len() as u32 - 1;
                    // The body region's window starts at `lo`, and it may
                    // have written any replica.
                    for k in rl as usize..r.regs.len() {
                        r.regs[k] = Some(self.arena.mk(Term::Havoc {
                            e: uid,
                            r: k as u16,
                        }));
                    }
                    for p in promo.places {
                        if matches!(p.place, Place::FrameTid { .. }) {
                            let after = self.arena.mk(Term::RegionMem { e: uid, r: p.reg });
                            r.home.insert(p.reg, after);
                        }
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
    /// Logical values of the promoted places the block touched, by the
    /// place's register.
    logical: HashMap<Reg, TermId>,
    effects: Vec<Effect>,
    /// `FrameAddrTid`/`GlobalAddrTid` executed for places left in memory:
    /// the block's contribution to `counters.private_direct`.
    tid_addrs: u32,
    exit: Exit,
}

impl StackSide {
    fn logical(&mut self, arena: &mut Arena, promo: Promo<'_>, p: &PromotedPlace) -> TermId {
        *self
            .logical
            .entry(p.reg)
            .or_insert_with(|| promo.logical0(arena, p))
    }
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

struct RegSide<'p> {
    promo: Promo<'p>,
    regs: Vec<Option<TermId>>,
    /// What memory holds for the promoted places whose home the block
    /// read or wrote, by the place's register.
    home: HashMap<Reg, TermId>,
    effects: Vec<Effect>,
    /// Tid-strided addresses formed, by a producer or inside a fused access.
    tid_addrs: u32,
    exit: Exit,
}

impl RegSide<'_> {
    fn home(&mut self, arena: &mut Arena, p: &PromotedPlace) -> TermId {
        let promo = self.promo;
        *self
            .home
            .entry(p.reg)
            .or_insert_with(|| promo.home0(arena, p))
    }

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
    /// `r[d] = Sext(w, r[d] + step)`, as the stack side builds it; the new
    /// value.
    fn increment(&mut self, arena: &mut Arena, d: Reg, step: i32, w: u8) -> TermId {
        let dt = self.read(arena, d);
        let st = arena.mk(Term::ConstI(step.into()));
        let sum = arena.mk(Term::IBin(IBinOp::Add, dt, st));
        let t = arena.mk(Term::Sext(w, sum));
        self.w(d, t);
        t
    }
    /// `r[l] + r[x] * k`, as the stack side builds it.
    fn scaled(&mut self, arena: &mut Arena, l: Reg, x: Reg, k: i32) -> TermId {
        let lt = self.read(arena, l);
        let xt = self.read(arena, x);
        let kt = arena.mk(Term::ConstI(k.into()));
        let prod = arena.mk(Term::IBin(IBinOp::Mul, xt, kt));
        arena.mk(Term::IBin(IBinOp::Add, lt, prod))
    }
    fn read(&mut self, arena: &mut Arena, r: Reg) -> TermId {
        if let Some(t) = self.regs.get(r as usize).copied().flatten() {
            return t;
        }
        // A promoted register the block has not written holds the place's
        // value from before the block — unless the entry loads, which have
        // not run yet, are what defines it.
        match self.promo.by_reg(r) {
            Some(p) if !(self.promo.entry && p.entry_load) => self.promo.logical0(arena, p),
            _ => arena.mk(Term::Unbound(r)),
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
