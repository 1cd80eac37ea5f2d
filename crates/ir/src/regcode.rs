//! Register-based bytecode and the stack→register translation pass.
//!
//! The stack bytecode in [`crate::bytecode`] is the reference encoding: it
//! is what the lowering emits, what the dependence profiler attributes
//! sites to, and what the stack interpreter executes. This module adds a
//! second, faster encoding for the same programs: a **virtual-register
//! bytecode** in which every operand lives in a numbered slot of a flat
//! per-thread register file instead of a pushed/popped `Vec<Value>`.
//!
//! The translation exploits a structural property of code lowered from a
//! structured AST: at every program point the operand-stack depth (and the
//! int/float type of every slot) is a compile-time constant. A worklist
//! dataflow pass computes the depth/type vector per pc — seeded at every
//! function entry and outlined loop-body entry with the empty stack — and
//! rejects programs where control-flow joins disagree (hand-written
//! adversarial bytecode; the lowering never produces this). Emission then
//! maps "stack slot at depth `d`" to "register `d`" of the current
//! register window, so a push becomes a write to a known register and most
//! stack-shuffling traffic disappears entirely (`Drop` compiles to
//! nothing, `Dup` to a register move).
//!
//! Register *windows*: calls do not save/restore the register file. A
//! callee's window simply starts where the caller's live registers end
//! (`caller_base + arg_base`), the same trick SPARC/Lua use, so recursion
//! works and per-iteration register frames are reused across loop
//! iterations without clearing.
//!
//! The emitter also fuses the hottest stack idioms into super-instructions:
//! compare+branch (`ICmp;JumpIfZ` → one fused conditional branch),
//! constant operands (`PushI;IBin` → `IBinImm`, `PushI;ICmp;JumpIf*` →
//! `JumpICmpImm`), and address+load (`FrameAddr;Load` → `LdFrame`).
//! Fusion only happens when the consumed instruction is not a jump target
//! or region entry, so every branch still lands on a translated pc.
//! A *private* scalar access — the `x[tid]` replica the expansion
//! redirects to — fuses the same way: `FrameAddrTid`/`GlobalAddrTid` whose
//! address reaches one `Load` or `Store` uncopied within its basic block
//! emits nothing, and the consumer becomes `LdTid`/`StTid`
//! ([`StackFlow::unfused_tid`] is the rule and the proof that the access
//! is still counted once).
//!
//! **Scalar promotion**: the dataflow additionally tracks *address
//! provenance* — which frame offset each stack slot is the address of. A
//! frame offset whose every observation is a direct scalar load/store of
//! one consistent shape, whose provenance survives every join, and which
//! overlaps no other access of its region, is promoted to a dedicated
//! register above the region's operand-depth registers. Promoted slots
//! load once in the function prologue (zeroed locals read 0, parameters
//! their argument) and spill/reload around calls, whose register windows
//! overlap the caller's. A region never promotes when a frame address
//! escapes as a plain value, when thread-dependent addressing
//! (`FrameAddrTid`, `TidSpanScaled`, `Localize`, `ParLoop`) appears in
//! it, or when it is an outlined parallel body — its frame is shared
//! across worker threads, so memory stays the source of truth.
//!
//! **Coalescing**: a final block-local pass propagates `Mov` copies
//! forward into operand positions and deletes pure register writes whose
//! destination is provably dead — overwritten before any read, or above
//! the live operand depth of every outgoing edge (exact, thanks to the
//! constant-depth invariant). Together with a store-into-producer
//! redirect at emission, hot loop bodies over promoted scalars compile to
//! register-only arithmetic with no shuffle traffic.
//!
//! Site ids, loop marks, and builtin call pcs are preserved verbatim
//! (each register instruction remembers the stack pc it came from in
//! [`RegProgram::origin`]), so the dependence profiler, the opcode
//! profiler, and trap reporting see the same program points under either
//! backend.

use crate::bytecode::{
    Builtin, CmpOp, CompiledProgram, FBinOp, FuncInfo, IBinOp, Instr, LoopEvent, Pc, RetKind,
};
use crate::sites::{SiteId, NO_SITE};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// A register index within the current window (operand-stack depth of the
/// value in the reference encoding).
pub type Reg = u16;

/// One register-bytecode instruction. `d` registers are destinations,
/// `l`/`r`/`s`/`a`/`v` are sources; unary/in-place ops overwrite their
/// operand register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RInstr {
    /// `r[d] = v`.
    LdcI { d: Reg, v: i64 },
    /// `r[d] = bits(v)`.
    LdcF { d: Reg, v: f64 },
    /// `r[d] = r[s]`.
    Mov { d: Reg, s: Reg },
    /// Stack `Tuck` over registers `d..d+2`:
    /// `[r[d], r[d+1]] -> [r[d+1], r[d], r[d+1]]`.
    Tuck { d: Reg },
    /// `r[d] = frame_base + off`.
    FrameAddr { d: Reg, off: u32 },
    /// `r[d] = addr`.
    GlobalAddr { d: Reg, addr: u32 },
    /// `r[d] = tid * k`.
    TidScaled { d: Reg, k: i64 },
    /// `r[d] = tid * r[d] / z * z` (dynamic-span redirection).
    TidSpanScaled { d: Reg, z: i64 },
    /// `r[d] = frame_base + offset + tid * stride` (private direct).
    FrameAddrTid { d: Reg, offset: u32, stride: i64 },
    /// `r[d] = addr + tid * stride` (private direct).
    GlobalAddrTid { d: Reg, addr: u32, stride: i64 },
    /// `r[d] = iter_stack[len-1-depth]`.
    IterIdx { d: Reg, depth: u8 },
    /// `r[d] = mem[r[d]]` (in place: address register becomes the value).
    Load {
        d: Reg,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Fused `FrameAddr;Load`: `r[d] = mem[frame_base + off]`.
    LdFrame {
        d: Reg,
        off: u32,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Fused `GlobalAddr;Load`: `r[d] = mem[addr]`.
    LdGlobal {
        d: Reg,
        addr: u32,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// `mem[r[a]] = r[v]`.
    Store {
        a: Reg,
        v: Reg,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Fused frame store: `mem[frame_base + off] = r[v]` (the `Store`
    /// analogue of [`RInstr::LdFrame`]; the address never touches a
    /// register).
    StFrame {
        off: u32,
        v: Reg,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Fused `FrameAddrTid;Load` (`frame`) or `GlobalAddrTid;Load`:
    /// `r[d] = mem[base + tid * stride]`, with `base` relative to
    /// `frame_base` when `frame` — one private direct access, counted and
    /// checked exactly as the pair it replaces.
    LdTid {
        d: Reg,
        frame: bool,
        base: u32,
        stride: i64,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// The store analogue of [`RInstr::LdTid`]:
    /// `mem[base + tid * stride] = r[v]` (the address never touches a
    /// register, as with [`RInstr::StFrame`]).
    StTid {
        frame: bool,
        base: u32,
        stride: i64,
        v: Reg,
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// `memcpy(r[dst], r[src], size)`.
    MemCpy {
        dst: Reg,
        src: Reg,
        size: u32,
        load_site: SiteId,
        store_site: SiteId,
    },
    /// `r[d] = r[l] op r[r]` (integer, wrapping; Div/Rem trap on 0).
    IBin { op: IBinOp, d: Reg, l: Reg, r: Reg },
    /// `r[d] = r[l] op imm`.
    IBinImm {
        op: IBinOp,
        d: Reg,
        l: Reg,
        imm: i64,
    },
    /// `r[d] = r[l] op r[r]` (float).
    FBin { op: FBinOp, d: Reg, l: Reg, r: Reg },
    /// `r[d] = (r[l] op r[r]) as 0/1` (integer compare).
    ICmp { op: CmpOp, d: Reg, l: Reg, r: Reg },
    /// `r[d] = (r[l] op imm) as 0/1`.
    ICmpImm { op: CmpOp, d: Reg, l: Reg, imm: i64 },
    /// `r[d] = (r[l] op r[r]) as 0/1` (float compare).
    FCmp { op: CmpOp, d: Reg, l: Reg, r: Reg },
    /// `r[d] = -r[d]` (integer, wrapping).
    INeg { d: Reg },
    /// `r[d] = -r[d]` (float).
    FNeg { d: Reg },
    /// `r[d] = !r[d]` (bitwise).
    BNot { d: Reg },
    /// `r[d] = (r[d] == 0) as 0/1`.
    LNot { d: Reg },
    /// `r[d] = (r[d] as i64) as f64`.
    I2F { d: Reg },
    /// `r[d] = (r[d] as f64) as i64`.
    F2I { d: Reg },
    /// `r[d] = sign_extend(truncate(r[d], w))`.
    Sext { d: Reg, w: u8 },
    /// Unconditional jump to register pc `t`.
    Jump { t: u32 },
    /// Jump to `t` if `r[s] == 0`.
    JumpIfZ { s: Reg, t: u32 },
    /// Jump to `t` if `r[s] != 0`.
    JumpIfNZ { s: Reg, t: u32 },
    /// Fused integer compare+branch: jump to `t` when
    /// `(r[l] op r[r]) == on_true`.
    JumpICmp {
        op: CmpOp,
        l: Reg,
        r: Reg,
        t: u32,
        on_true: bool,
    },
    /// Fused immediate compare+branch.
    JumpICmpImm {
        op: CmpOp,
        l: Reg,
        imm: i64,
        t: u32,
        on_true: bool,
    },
    /// Fused float compare+branch.
    JumpFCmp {
        op: CmpOp,
        l: Reg,
        r: Reg,
        t: u32,
        on_true: bool,
    },
    /// Call function `fi` (register entry `target`): args in
    /// `r[abase..abase+nargs]` are written to the callee's memory parameter
    /// slots; the callee's register window starts at `abase`; its result
    /// (if any) lands back in `r[abase]`.
    Call { target: u32, fi: u32, abase: Reg },
    /// Call a builtin with args in `r[abase..abase+arity]`; the result (if
    /// any) lands in `r[abase]`. `orig_pc` is the stack pc of the call, so
    /// allocation-site attribution and traps match the reference backend.
    CallBuiltin { b: Builtin, abase: Reg, orig_pc: Pc },
    /// `r[d] = sqrt(r[d])` (hot builtin, inlined).
    Fsqrt { d: Reg },
    /// `r[d] = abs(r[d])` (hot builtin, inlined).
    Fabs { d: Reg },
    /// `r[d] = tid`.
    Tid { d: Reg },
    /// `r[d] = nthreads`.
    NThreads { d: Reg },
    /// Return from function or finish a region iteration. The value (when
    /// `has_val`) is in `r[src]` of the callee window and is moved to the
    /// caller's `abase` slot.
    Ret {
        src: Reg,
        has_val: bool,
        is_float: bool,
    },
    /// Profiler hook (no-op at plain execution) for the given loop id.
    LoopMark { ev: LoopEvent, id: u32 },
    /// Execute candidate loop `id` for iterations `r[lo]..r[hi]` under the
    /// parallel scheduler. The body region's register window starts at
    /// `lo` (the depth with both bounds consumed).
    ParLoop { id: u32, lo: Reg, hi: Reg },
    /// DOACROSS: wait until all previous iterations have posted.
    Wait { id: u32 },
    /// DOACROSS: post this iteration's ordered section.
    Post { id: u32 },
    /// `r[d] = localize(r[d])` (runtime-privatization baseline).
    Localize { d: Reg, site: SiteId },
    /// Stop the program; value (when `has_val`) in `r[src]`.
    Halt {
        src: Reg,
        has_val: bool,
        is_float: bool,
    },
    /// Translation hole (a stack pc the dataflow never reached); traps.
    Unreachable,
}

// The interpreter walks `Vec<RInstr>`: a variant that outgrows the others
// widens every instruction.
const _: () = assert!(std::mem::size_of::<RInstr>() <= 24);

impl fmt::Display for RInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A register-translated program, executable by the runtime's register
/// backend alongside the [`CompiledProgram`] it was derived from.
#[derive(Debug, Default)]
pub struct RegProgram {
    /// All register instructions; regions are contiguous ranges.
    pub code: Vec<RInstr>,
    /// Stack entry pc (function entries, outlined loop-body entries) →
    /// register pc. The executor resolves region dispatches through this.
    pub entry_map: HashMap<Pc, u32>,
    /// Register pc → originating stack pc (trap attribution, site parity).
    pub origin: Vec<Pc>,
    /// Upper bound of registers any single window needs; callers grow the
    /// register file to `window_base + frame_regs` at frame entry.
    pub frame_regs: u32,
    /// The scalar-promotion decisions this translation was emitted under.
    /// `dse-verify` checks the code against this declared intent *and*
    /// re-derives the plan from the stack flow to prove the intent itself
    /// was legal.
    pub promo: PromotionPlan,
    /// Set once a static backend verification (DSE010–DSE015) has passed
    /// over this exact program; the register VM can refuse unverified code
    /// under `--strict`.
    verified: AtomicBool,
}

impl Clone for RegProgram {
    fn clone(&self) -> RegProgram {
        RegProgram {
            code: self.code.clone(),
            entry_map: self.entry_map.clone(),
            origin: self.origin.clone(),
            frame_regs: self.frame_regs,
            promo: self.promo.clone(),
            verified: AtomicBool::new(self.verified.load(Ordering::Relaxed)),
        }
    }
}

impl RegProgram {
    /// The stack pc a register pc was translated from.
    pub fn origin_pc(&self, reg_pc: usize) -> Pc {
        self.origin.get(reg_pc).copied().unwrap_or(reg_pc as Pc)
    }

    /// Records that a static backend verification passed over this program.
    pub fn mark_verified(&self) {
        self.verified.store(true, Ordering::Relaxed);
    }

    /// Whether [`RegProgram::mark_verified`] has been called.
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Relaxed)
    }
}

/// A stack→register translation failure: the stack discipline of the input
/// could not be proven (depth/type mismatch at a join, non-constant depth,
/// or an ill-typed operation). Lowered programs never trigger this; it
/// guards hand-constructed bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegLowerError {
    /// Stack pc where translation failed.
    pub pc: Pc,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for RegLowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register lowering failed at pc {}: {}",
            self.pc, self.msg
        )
    }
}

impl std::error::Error for RegLowerError {}

/// Static type of one operand-stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit integer (also addresses and booleans).
    I,
    /// 64-bit float.
    F,
}

/// One operand-stack slot in the dataflow: its static type plus address
/// provenance. `addr_of = Some(off)` means the slot provably holds exactly
/// `frame_base + off`, produced by a `FrameAddr(off)` (possibly through
/// `Dup`/`Tuck` copies). Provenance is what scalar promotion keys on: a
/// frame slot whose address is only ever the direct target of a
/// `Load`/`Store` can live in a register for the whole function.
///
/// `tid_of = Some(pc)` is the stricter provenance tid fusion keys on: the
/// slot is the one, uncopied holder of the address the
/// `FrameAddrTid`/`GlobalAddrTid` at `pc` formed, on a straight line from
/// it (copies and branches clear it). See [`StackFlow::unfused_tid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Static type of the value in the slot.
    pub ty: Ty,
    /// Frame offset this slot is provably the address of, if any.
    pub addr_of: Option<u32>,
    /// The tid-strided address producer this slot alone holds, if any.
    pub tid_of: Option<Pc>,
}

impl Slot {
    fn new(ty: Ty) -> Slot {
        Slot {
            ty,
            addr_of: None,
            tid_of: None,
        }
    }
}

type State = Vec<Slot>;

/// `owner[pc]` before any seeded entry's dataflow reaches it.
pub const NO_OWNER: u32 = u32::MAX;

/// Width/type signature of the frame accesses seen at one offset.
/// `shape` collapses to `None` when two accesses disagree (a union-like
/// reuse of the slot), which disqualifies the offset from promotion;
/// `max_width` keeps growing either way so overlap checks stay sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessShape {
    /// `(width, is_float)` when every access agrees, `None` otherwise.
    pub shape: Option<(u8, bool)>,
    /// Widest access observed, kept for overlap checks even when the
    /// shape collapsed.
    pub max_width: u8,
}

/// The fixed point of the constant-depth/type/provenance dataflow over a
/// stack program: the invariant base the register translator emits under,
/// exposed so `dse-verify` can independently re-derive and check it.
#[derive(Debug, Clone)]
pub struct StackFlow {
    /// Per stack pc: `None` when no seeded entry reaches it, otherwise the
    /// static operand stack (bottom → top).
    pub states: Vec<Option<Vec<Slot>>>,
    /// The seeded entry whose dataflow reached each pc: function index, or
    /// `funcs.len() + i` for the `i`-th outlined parallel body (see
    /// [`StackFlow::body_loops`]). [`NO_OWNER`] when unreachable.
    pub owner: Vec<u32>,
    /// Per owner: scalar promotion is disabled for the region (parallel
    /// body, aliasing address producers, or a leaked frame address).
    pub no_promote: Vec<bool>,
    /// (owner, offset) pairs whose provenance was lost at a control-flow
    /// join; such offsets never promote.
    pub demoted: HashSet<(u32, u32)>,
    /// (owner, offset) → the shape of its direct frame accesses.
    pub accesses: HashMap<(u32, u32), AccessShape>,
    /// The `FrameAddrTid`/`GlobalAddrTid` pcs whose address must exist in
    /// a register: it is copied, dropped, used as a plain value, or still
    /// live at a branch or join. Every other producer's address is consumed
    /// exactly once, in its own basic block, as the address operand of a
    /// `Load` or `Store` (whose [`Slot::tid_of`] names it): the translator
    /// emits nothing for the producer and one fused
    /// [`RInstr::LdTid`]/[`RInstr::StTid`] for the consumer, so the access
    /// is still counted once.
    pub unfused_tid: HashSet<Pc>,
    /// Loop indices (into `prog.loops`) of the outlined parallel bodies, in
    /// owner order after the functions.
    pub body_loops: Vec<u32>,
}

impl StackFlow {
    /// Number of seeded regions (functions + outlined parallel bodies).
    pub fn n_owners(&self) -> usize {
        self.no_promote.len()
    }

    /// The function whose frame an owner's direct accesses target: the
    /// function itself, or the enclosing function of an outlined body.
    pub fn owner_func<'p>(&self, prog: &'p CompiledProgram, owner: u32) -> Option<&'p FuncInfo> {
        let nf = prog.funcs.len();
        if (owner as usize) < nf {
            return prog.funcs.get(owner as usize);
        }
        let li = *self.body_loops.get(owner as usize - nf)?;
        prog.funcs.get(prog.loops.get(li as usize)?.func as usize)
    }

    /// Display name for an owner (function name, or ``body of `label`​``).
    pub fn owner_name(&self, prog: &CompiledProgram, owner: u32) -> String {
        let nf = prog.funcs.len();
        if (owner as usize) < nf {
            return prog.funcs[owner as usize].name.clone();
        }
        match self
            .body_loops
            .get(owner as usize - nf)
            .and_then(|&li| prog.loops.get(li as usize))
        {
            Some(l) => format!("body of `{}`", l.label),
            None => format!("owner#{owner}"),
        }
    }
}

/// Scalar-promotion decisions for one translation. Derivable from the
/// [`StackFlow`] alone via [`promotion_plan`], and recorded on the emitted
/// [`RegProgram`] so a verifier can check the code against the declared
/// intent and the intent against the flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromotionPlan {
    /// Per-owner operand-depth high-water mark: owner `o`'s promoted
    /// registers start at `maxd[o]`.
    pub maxd: Vec<u32>,
    /// (owner, frame offset) → (dedicated register, width, is_float).
    pub promoted: HashMap<(u32, u32), (Reg, u8, bool)>,
    /// Per-owner spill list sorted by offset: (register, offset, width,
    /// is_float) — the exact sequence spilled before and reloaded after
    /// every call in the region, and loaded in the function prologue.
    pub spills: Vec<Vec<(Reg, u32, u8, bool)>>,
}

struct Flow<'p> {
    prog: &'p CompiledProgram,
    states: Vec<Option<State>>,
    /// The seeded entry (function or outlined loop body) whose dataflow
    /// reached each pc. Regions are disjoint in lowered code; shared code
    /// disables promotion for both claimants.
    owner: Vec<u32>,
    work: Vec<Pc>,
    /// Per owner: scalar promotion must not touch this region — an
    /// outlined parallel body (its frame is shared across threads), a
    /// region with aliasing address producers (`FrameAddrTid`,
    /// `TidSpanScaled`, `Localize`, `ParLoop`), or one that leaks a frame
    /// address as a plain value (call argument, stored to memory,
    /// pointer arithmetic).
    no_promote: Vec<bool>,
    /// (owner, offset) pairs whose provenance was lost at a control-flow
    /// join; such offsets stay memory-backed so their address registers
    /// remain real.
    demoted: HashSet<(u32, u32)>,
    /// (owner, offset) → the shape of its direct frame accesses.
    accesses: HashMap<(u32, u32), AccessShape>,
    /// See [`StackFlow::unfused_tid`].
    unfused_tid: HashSet<Pc>,
}

impl<'p> Flow<'p> {
    fn err(pc: Pc, msg: impl Into<String>) -> RegLowerError {
        RegLowerError {
            pc,
            msg: msg.into(),
        }
    }

    fn seed(&mut self, pc: Pc, owner: u32) -> Result<(), RegLowerError> {
        self.join(pc, Vec::new(), owner)
    }

    fn join(&mut self, pc: Pc, st: State, from: u32) -> Result<(), RegLowerError> {
        if pc as usize >= self.prog.code.len() {
            return Err(Self::err(pc, "control flow past end of code"));
        }
        let i = pc as usize;
        if self.owner[i] == NO_OWNER {
            self.owner[i] = from;
        } else if self.owner[i] != from {
            // Straight-line code shared between two seeded regions: neither
            // can promote through it.
            self.no_promote[self.owner[i] as usize] = true;
            self.no_promote[from as usize] = true;
        }
        let o = self.owner[i];
        let mut lost: Vec<u32> = Vec::new();
        let res = match &mut self.states[i] {
            Some(prev) => {
                let tys_match =
                    prev.len() == st.len() && prev.iter().zip(&st).all(|(p, s)| p.ty == s.ty);
                if !tys_match {
                    return Err(Self::err(
                        pc,
                        format!("operand stack mismatch at join: {prev:?} vs {st:?}"),
                    ));
                }
                let mut changed = false;
                for (p, s) in prev.iter_mut().zip(&st) {
                    if p.addr_of != s.addr_of {
                        lost.extend(p.addr_of);
                        lost.extend(s.addr_of);
                        if p.addr_of.is_some() {
                            p.addr_of = None;
                            changed = true;
                        }
                    }
                    if p.tid_of != s.tid_of {
                        self.unfused_tid.extend(p.tid_of);
                        self.unfused_tid.extend(s.tid_of);
                        if p.tid_of.take().is_some() {
                            changed = true;
                        }
                    }
                }
                if changed {
                    self.work.push(pc);
                }
                Ok(())
            }
            None => {
                self.states[i] = Some(st);
                self.work.push(pc);
                Ok(())
            }
        };
        for off in lost {
            self.demoted.insert((o, off));
        }
        res
    }

    fn pop(st: &mut State, pc: Pc) -> Result<Slot, RegLowerError> {
        st.pop()
            .ok_or_else(|| Self::err(pc, "operand stack underflow"))
    }

    fn pop_ty(st: &mut State, pc: Pc, want: Ty) -> Result<Slot, RegLowerError> {
        let got = Self::pop(st, pc)?;
        if got.ty != want {
            return Err(Self::err(
                pc,
                format!("expected {want:?}, found {:?}", got.ty),
            ));
        }
        Ok(got)
    }

    /// Applies `code[pc]`'s stack effect to `st`, records promotion facts
    /// (frame accesses, address escapes), and joins all successors.
    fn step(&mut self, pc: Pc) -> Result<(), RegLowerError> {
        let mut st = self.states[pc as usize].clone().expect("visited");
        let i = pc as usize;
        let o = self.owner[i];
        use Ty::{F, I};
        // An address consumed as a plain value (arithmetic, call argument,
        // stored as data, …) can reach frame memory the promotion pass
        // assumed was register-backed; one leak disables the whole region.
        macro_rules! value_use {
            ($slot:expr) => {
                if $slot.addr_of.is_some() {
                    self.no_promote[o as usize] = true;
                }
                self.unfused_tid.extend($slot.tid_of);
            };
        }
        // Control leaves the straight line: a tid address still on the
        // stack must be in its register on the other side.
        macro_rules! leave_line {
            () => {
                for slot in st.iter_mut() {
                    self.unfused_tid.extend(slot.tid_of.take());
                }
            };
        }
        // A direct `Load`/`Store` through known provenance: record the
        // access shape for the promotion decision.
        macro_rules! access {
            ($slot:expr, $width:expr, $is_float:expr) => {
                if let Some(off) = $slot.addr_of {
                    let shape = ($width, $is_float);
                    self.accesses
                        .entry((o, off))
                        .and_modify(|a| {
                            if a.shape != Some(shape) {
                                a.shape = None;
                            }
                            a.max_width = a.max_width.max($width);
                        })
                        .or_insert(AccessShape {
                            shape: Some(shape),
                            max_width: $width,
                        });
                }
            };
        }
        match self.prog.code[i] {
            Instr::PushI(_) => st.push(Slot::new(I)),
            Instr::PushF(_) => st.push(Slot::new(F)),
            Instr::Dup => {
                let t = st
                    .last_mut()
                    .ok_or_else(|| Self::err(pc, "operand stack underflow"))?;
                // A copied tid address has two holders (`x[tid] += 1` loads
                // and stores through it): it stays in its register.
                self.unfused_tid.extend(t.tid_of.take());
                let t = *t;
                st.push(t);
            }
            Instr::Drop => {
                // A dropped address is dead, not leaked — but a tid address
                // was counted when it was formed, so its producer stays.
                let s = Self::pop(&mut st, pc)?;
                self.unfused_tid.extend(s.tid_of);
            }
            Instr::Tuck => {
                let mut t = Self::pop(&mut st, pc)?;
                let s = Self::pop(&mut st, pc)?;
                self.unfused_tid.extend(t.tid_of.take()); // copied; `s` only moves
                st.push(t);
                st.push(s);
                st.push(t);
            }
            Instr::FrameAddr(off) => st.push(Slot {
                addr_of: Some(off),
                ..Slot::new(I)
            }),
            Instr::GlobalAddr(_) | Instr::TidScaled(_) | Instr::IterIdx(_) => st.push(Slot::new(I)),
            Instr::FrameAddrTid { .. } | Instr::GlobalAddrTid { .. } => {
                // Tid-strided addressing reaches frame offsets the
                // provenance analysis can't see.
                self.no_promote[o as usize] = true;
                st.push(Slot {
                    tid_of: Some(pc),
                    ..Slot::new(I)
                });
            }
            Instr::TidSpanScaled(_) => {
                self.no_promote[o as usize] = true;
                let s = Self::pop_ty(&mut st, pc, I)?;
                value_use!(s);
                st.push(Slot::new(I));
            }
            Instr::Load {
                width, is_float, ..
            } => {
                let a = Self::pop_ty(&mut st, pc, I)?;
                access!(a, width, is_float);
                st.push(Slot::new(if is_float { F } else { I }));
            }
            Instr::Store {
                width, is_float, ..
            } => {
                let v = Self::pop_ty(&mut st, pc, if is_float { F } else { I })?;
                value_use!(v); // a frame address stored as data escapes
                let a = Self::pop_ty(&mut st, pc, I)?;
                access!(a, width, is_float);
            }
            Instr::MemCpy { .. } => {
                // A block copy through a frame address bypasses registers.
                let dst = Self::pop_ty(&mut st, pc, I)?;
                value_use!(dst);
                let src = Self::pop_ty(&mut st, pc, I)?;
                value_use!(src);
            }
            Instr::IBin(_) => {
                let r = Self::pop_ty(&mut st, pc, I)?;
                value_use!(r);
                let l = Self::pop_ty(&mut st, pc, I)?;
                value_use!(l);
                st.push(Slot::new(I));
            }
            Instr::FBin(_) => {
                Self::pop_ty(&mut st, pc, F)?;
                Self::pop_ty(&mut st, pc, F)?;
                st.push(Slot::new(F));
            }
            Instr::ICmp(_) => {
                let r = Self::pop_ty(&mut st, pc, I)?;
                value_use!(r);
                let l = Self::pop_ty(&mut st, pc, I)?;
                value_use!(l);
                st.push(Slot::new(I));
            }
            Instr::FCmp(_) => {
                Self::pop_ty(&mut st, pc, F)?;
                Self::pop_ty(&mut st, pc, F)?;
                st.push(Slot::new(I));
            }
            Instr::INeg | Instr::BNot | Instr::LNot | Instr::SextTrunc(_) => {
                let s = Self::pop_ty(&mut st, pc, I)?;
                value_use!(s);
                st.push(Slot::new(I));
            }
            Instr::FNeg => {
                Self::pop_ty(&mut st, pc, F)?;
                st.push(Slot::new(F));
            }
            Instr::I2F => {
                let s = Self::pop_ty(&mut st, pc, I)?;
                value_use!(s);
                st.push(Slot::new(F));
            }
            Instr::F2I => {
                Self::pop_ty(&mut st, pc, F)?;
                st.push(Slot::new(I));
            }
            Instr::Jump(t) => {
                leave_line!();
                return self.join(t, st, o);
            }
            Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
                let s = Self::pop_ty(&mut st, pc, I)?;
                value_use!(s);
                leave_line!();
                self.join(t, st.clone(), o)?;
                return self.join(pc + 1, st, o);
            }
            Instr::Call(fi) => {
                let callee = self.prog.func(fi);
                // Args pop right-to-left: the last parameter is on top.
                for (off, kind) in callee.params.iter().rev() {
                    let _ = off;
                    let s = Self::pop_ty(&mut st, pc, if kind.is_float { F } else { I })?;
                    value_use!(s);
                }
                if callee.ret == RetKind::Scalar {
                    st.push(Slot::new(if callee.ret_float { F } else { I }));
                }
            }
            Instr::CallBuiltin(b) => {
                let sig = b.sig();
                for &isf in sig.args.iter().rev() {
                    let s = Self::pop_ty(&mut st, pc, if isf { F } else { I })?;
                    value_use!(s);
                }
                if let Some(isf) = sig.ret {
                    st.push(Slot::new(if isf { F } else { I }));
                }
            }
            Instr::Ret => {
                if st.len() > 1 {
                    return Err(Self::err(
                        pc,
                        format!("return with {} operands on the stack", st.len()),
                    ));
                }
                for s in &st {
                    value_use!(s);
                }
                return Ok(());
            }
            Instr::LoopMark(..) | Instr::Wait(_) | Instr::Post(_) => {}
            Instr::ParLoop(_) => {
                // The outlined body shares this frame across worker
                // threads; memory must stay the source of truth.
                self.no_promote[o as usize] = true;
                let hi = Self::pop_ty(&mut st, pc, I)?;
                value_use!(hi);
                let lo = Self::pop_ty(&mut st, pc, I)?;
                value_use!(lo);
            }
            Instr::Localize { .. } => {
                self.no_promote[o as usize] = true;
                let a = Self::pop_ty(&mut st, pc, I)?;
                value_use!(a);
                st.push(Slot::new(I));
            }
            Instr::Halt => {
                for s in &st {
                    value_use!(s);
                }
                return Ok(());
            }
        }
        self.join(pc + 1, st, o)
    }
}

/// Runs the constant-depth/type/provenance dataflow over a stack program
/// to its fixed point, seeded with the empty stack at every function entry
/// and outlined parallel-body entry.
///
/// This is the queryable form of the invariant [`translate`] builds on:
/// the stack verifier re-runs it to prove the depth discipline, and the
/// translation validator uses its per-pc states and owner map to line
/// stack blocks up with their register translations.
///
/// # Errors
///
/// Returns a [`RegLowerError`] when the operand-stack discipline cannot be
/// statically proven: a depth or type mismatch at a control-flow join, an
/// underflow, an ill-typed operand, control flow past the end of the code,
/// or a return with more than one operand on the stack.
pub fn analyze_stack(prog: &CompiledProgram) -> Result<StackFlow, RegLowerError> {
    let n = prog.code.len();
    let body_loops: Vec<u32> = prog
        .loops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.mode.is_some())
        .map(|(i, _)| i as u32)
        .collect();
    let n_owners = prog.funcs.len() + body_loops.len();
    let mut flow = Flow {
        prog,
        states: vec![None; n],
        owner: vec![NO_OWNER; n],
        work: Vec::new(),
        no_promote: vec![false; n_owners],
        demoted: HashSet::new(),
        accesses: HashMap::new(),
        unfused_tid: HashSet::new(),
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        flow.seed(f.entry, fi as u32)?;
    }
    for (bi, &li) in body_loops.iter().enumerate() {
        let o = (prog.funcs.len() + bi) as u32;
        // Outlined parallel bodies run per-iteration on worker threads
        // against a shared frame; they never promote.
        flow.no_promote[o as usize] = true;
        flow.seed(prog.loops[li as usize].body_entry, o)?;
    }
    while let Some(pc) = flow.work.pop() {
        flow.step(pc)?;
    }
    Ok(StackFlow {
        states: flow.states,
        owner: flow.owner,
        no_promote: flow.no_promote,
        demoted: flow.demoted,
        accesses: flow.accesses,
        unfused_tid: flow.unfused_tid,
        body_loops,
    })
}

/// Derives the scalar-promotion decisions from a [`StackFlow`]: a frame
/// offset is promoted to a dedicated register of its function's window
/// when every observation is a direct scalar load/store of one consistent
/// shape, its provenance survives every join, it lies inside the declared
/// frame, and it overlaps no other direct frame access of the region.
///
/// [`translate`] emits under exactly this plan; the verifier re-derives it
/// to prove a [`RegProgram::promo`] is justified.
pub fn promotion_plan(prog: &CompiledProgram, flow: &StackFlow) -> PromotionPlan {
    let n_owners = flow.n_owners();
    let mut maxd = vec![0u32; n_owners];
    for (i, st) in flow.states.iter().enumerate() {
        if let (Some(st), o) = (st, flow.owner[i]) {
            if o != NO_OWNER {
                maxd[o as usize] = maxd[o as usize].max(st.len() as u32);
            }
        }
    }
    let mut promoted: HashMap<(u32, u32), (Reg, u8, bool)> = HashMap::new();
    let mut spills: Vec<Vec<(Reg, u32, u8, bool)>> = vec![Vec::new(); n_owners];
    for (fi, f) in prog.funcs.iter().enumerate() {
        let o = fi as u32;
        if flow.no_promote[fi] {
            continue;
        }
        let mut cands: Vec<(u32, u8, bool)> = flow
            .accesses
            .iter()
            .filter(|((ow, _), _)| *ow == o)
            .filter_map(|(&(_, off), a)| {
                let (w, isf) = a.shape?;
                let scalar_ok = w == 8 || (!isf && matches!(w, 1 | 2 | 4));
                let in_frame = off
                    .checked_add(w as u32)
                    .is_some_and(|end| end <= f.frame_size);
                let clean = !flow.demoted.contains(&(o, off));
                let disjoint = flow.accesses.iter().all(|(&(ow2, off2), a2)| {
                    ow2 != o
                        || off2 == off
                        || off2 >= off + w as u32
                        || off >= off2 + a2.max_width as u32
                });
                (scalar_ok && in_frame && clean && disjoint).then_some((off, w, isf))
            })
            .collect();
        cands.sort_unstable();
        let base = maxd[fi];
        for (idx, &(off, w, isf)) in cands.iter().enumerate() {
            let reg = (base as usize + idx) as Reg;
            promoted.insert((o, off), (reg, w, isf));
            spills[fi].push((reg, off, w, isf));
        }
    }
    PromotionPlan {
        maxd,
        promoted,
        spills,
    }
}

impl RInstr {
    /// The register pc encoded in this instruction, for rewriting: a
    /// branch's target or a call's callee entry. The one list of
    /// "instructions that carry a code address".
    pub fn jump_target_mut(&mut self) -> Option<&mut u32> {
        match self {
            RInstr::Jump { t }
            | RInstr::JumpIfZ { t, .. }
            | RInstr::JumpIfNZ { t, .. }
            | RInstr::JumpICmp { t, .. }
            | RInstr::JumpICmpImm { t, .. }
            | RInstr::JumpFCmp { t, .. }
            | RInstr::Call { target: t, .. } => Some(t),
            _ => None,
        }
    }

    /// The register pc [`RInstr::jump_target_mut`] would expose.
    pub fn jump_target(&self) -> Option<u32> {
        let mut ins = *self;
        ins.jump_target_mut().copied()
    }
}

/// Calls `f` for every register an instruction overwrites (in-place
/// updates included).
pub fn for_each_dst(ins: &RInstr, f: &mut impl FnMut(Reg)) {
    match *ins {
        RInstr::LdcI { d, .. }
        | RInstr::LdcF { d, .. }
        | RInstr::Mov { d, .. }
        | RInstr::FrameAddr { d, .. }
        | RInstr::GlobalAddr { d, .. }
        | RInstr::TidScaled { d, .. }
        | RInstr::TidSpanScaled { d, .. }
        | RInstr::FrameAddrTid { d, .. }
        | RInstr::GlobalAddrTid { d, .. }
        | RInstr::IterIdx { d, .. }
        | RInstr::Load { d, .. }
        | RInstr::LdFrame { d, .. }
        | RInstr::LdGlobal { d, .. }
        | RInstr::LdTid { d, .. }
        | RInstr::IBin { d, .. }
        | RInstr::IBinImm { d, .. }
        | RInstr::FBin { d, .. }
        | RInstr::ICmp { d, .. }
        | RInstr::ICmpImm { d, .. }
        | RInstr::FCmp { d, .. }
        | RInstr::INeg { d }
        | RInstr::FNeg { d }
        | RInstr::BNot { d }
        | RInstr::LNot { d }
        | RInstr::I2F { d }
        | RInstr::F2I { d }
        | RInstr::Sext { d, .. }
        | RInstr::Fsqrt { d }
        | RInstr::Fabs { d }
        | RInstr::Tid { d }
        | RInstr::NThreads { d }
        | RInstr::Localize { d, .. } => f(d),
        RInstr::Tuck { d } => {
            f(d);
            f(d + 1);
            f(d + 2);
        }
        RInstr::Call { abase, .. } | RInstr::CallBuiltin { abase, .. } => f(abase),
        RInstr::Store { .. }
        | RInstr::StFrame { .. }
        | RInstr::StTid { .. }
        | RInstr::MemCpy { .. }
        | RInstr::Jump { .. }
        | RInstr::JumpIfZ { .. }
        | RInstr::JumpIfNZ { .. }
        | RInstr::JumpICmp { .. }
        | RInstr::JumpICmpImm { .. }
        | RInstr::JumpFCmp { .. }
        | RInstr::Ret { .. }
        | RInstr::LoopMark { .. }
        | RInstr::ParLoop { .. }
        | RInstr::Wait { .. }
        | RInstr::Post { .. }
        | RInstr::Halt { .. }
        | RInstr::Unreachable => {}
    }
}

/// Calls `f` for every register an instruction reads (in-place operands
/// and call-convention argument ranges included).
pub fn for_each_src(ins: &RInstr, prog: &CompiledProgram, f: &mut impl FnMut(Reg)) {
    match *ins {
        RInstr::Mov { s, .. } => f(s),
        RInstr::TidSpanScaled { d, .. }
        | RInstr::Load { d, .. }
        | RInstr::INeg { d }
        | RInstr::FNeg { d }
        | RInstr::BNot { d }
        | RInstr::LNot { d }
        | RInstr::I2F { d }
        | RInstr::F2I { d }
        | RInstr::Sext { d, .. }
        | RInstr::Fsqrt { d }
        | RInstr::Fabs { d }
        | RInstr::Localize { d, .. } => f(d),
        RInstr::Tuck { d } => {
            f(d);
            f(d + 1);
        }
        RInstr::Store { a, v, .. } => {
            f(a);
            f(v);
        }
        RInstr::StFrame { v, .. } | RInstr::StTid { v, .. } => f(v),
        RInstr::MemCpy { dst, src, .. } => {
            f(dst);
            f(src);
        }
        RInstr::IBin { l, r, .. }
        | RInstr::FBin { l, r, .. }
        | RInstr::ICmp { l, r, .. }
        | RInstr::FCmp { l, r, .. }
        | RInstr::JumpICmp { l, r, .. }
        | RInstr::JumpFCmp { l, r, .. } => {
            f(l);
            f(r);
        }
        RInstr::IBinImm { l, .. } | RInstr::ICmpImm { l, .. } | RInstr::JumpICmpImm { l, .. } => {
            f(l)
        }
        RInstr::JumpIfZ { s, .. } | RInstr::JumpIfNZ { s, .. } => f(s),
        RInstr::Call { fi, abase, .. } => {
            for k in 0..prog.func(fi).params.len() as u16 {
                f(abase + k);
            }
        }
        RInstr::CallBuiltin { b, abase, .. } => {
            for k in 0..b.arity() as u16 {
                f(abase + k);
            }
        }
        RInstr::Ret { src, has_val, .. } | RInstr::Halt { src, has_val, .. } => {
            if has_val {
                f(src)
            }
        }
        RInstr::ParLoop { lo, hi, .. } => {
            f(lo);
            f(hi);
        }
        RInstr::LdcI { .. }
        | RInstr::LdcF { .. }
        | RInstr::FrameAddr { .. }
        | RInstr::GlobalAddr { .. }
        | RInstr::TidScaled { .. }
        | RInstr::FrameAddrTid { .. }
        | RInstr::GlobalAddrTid { .. }
        | RInstr::IterIdx { .. }
        | RInstr::LdFrame { .. }
        | RInstr::LdGlobal { .. }
        | RInstr::LdTid { .. }
        | RInstr::Tid { .. }
        | RInstr::NThreads { .. }
        | RInstr::Jump { .. }
        | RInstr::LoopMark { .. }
        | RInstr::Wait { .. }
        | RInstr::Post { .. }
        | RInstr::Unreachable => {}
    }
}

/// Renames free (non-in-place) source operands through `m`. Calling
/// conventions pin argument ranges and `ParLoop` bounds double as the body
/// window base, so those stay untouched.
fn rewrite_srcs(ins: &mut RInstr, m: impl Fn(Reg) -> Reg) {
    match ins {
        RInstr::Mov { s, .. } | RInstr::JumpIfZ { s, .. } | RInstr::JumpIfNZ { s, .. } => {
            *s = m(*s)
        }
        RInstr::Store { a, v, .. } => {
            *a = m(*a);
            *v = m(*v);
        }
        RInstr::StFrame { v, .. } | RInstr::StTid { v, .. } => *v = m(*v),
        RInstr::MemCpy { dst, src, .. } => {
            *dst = m(*dst);
            *src = m(*src);
        }
        RInstr::IBin { l, r, .. }
        | RInstr::FBin { l, r, .. }
        | RInstr::ICmp { l, r, .. }
        | RInstr::FCmp { l, r, .. }
        | RInstr::JumpICmp { l, r, .. }
        | RInstr::JumpFCmp { l, r, .. } => {
            *l = m(*l);
            *r = m(*r);
        }
        RInstr::IBinImm { l, .. } | RInstr::ICmpImm { l, .. } | RInstr::JumpICmpImm { l, .. } => {
            *l = m(*l)
        }
        RInstr::Ret {
            src, has_val: true, ..
        }
        | RInstr::Halt {
            src, has_val: true, ..
        } => *src = m(*src),
        _ => {}
    }
}

/// Pure register writes (no memory, no traps, no observer events) that the
/// coalescer may delete outright when the destination is provably dead.
pub fn pure_dst(ins: &RInstr) -> Option<Reg> {
    match *ins {
        RInstr::LdcI { d, .. }
        | RInstr::LdcF { d, .. }
        | RInstr::Mov { d, .. }
        | RInstr::FrameAddr { d, .. }
        | RInstr::GlobalAddr { d, .. } => Some(d),
        _ => None,
    }
}

/// Redirects the destination of a just-emitted producer with a free
/// destination register, so a following promoted-slot store needs no
/// `Mov`. In-place ops and calls (whose result register is fixed by
/// convention) refuse.
fn redirect_dst(ins: &mut RInstr, from: Reg, to: Reg) -> bool {
    let d = match ins {
        RInstr::LdcI { d, .. }
        | RInstr::LdcF { d, .. }
        | RInstr::Mov { d, .. }
        | RInstr::FrameAddr { d, .. }
        | RInstr::GlobalAddr { d, .. }
        | RInstr::TidScaled { d, .. }
        | RInstr::FrameAddrTid { d, .. }
        | RInstr::GlobalAddrTid { d, .. }
        | RInstr::IterIdx { d, .. }
        | RInstr::LdFrame { d, .. }
        | RInstr::LdGlobal { d, .. }
        | RInstr::LdTid { d, .. }
        | RInstr::IBin { d, .. }
        | RInstr::IBinImm { d, .. }
        | RInstr::FBin { d, .. }
        | RInstr::ICmp { d, .. }
        | RInstr::ICmpImm { d, .. }
        | RInstr::FCmp { d, .. }
        | RInstr::Tid { d }
        | RInstr::NThreads { d } => d,
        _ => return false,
    };
    if *d != from {
        return false;
    }
    *d = to;
    true
}

/// Block-local register coalescing over the emitted code: forward copy
/// propagation (facts from `Mov`, cleared at run boundaries and across
/// region-clobbering instructions) followed by a backward dead-write sweep
/// that deletes pure writes whose destination is overwritten — or falls
/// above the live operand depth of every outgoing edge — before any read.
/// Deleted instructions are compacted out; all jump targets, the pc→pc
/// maps and the entry registry are remapped.
///
/// Exit liveness is exact because the translation keeps the stack-depth
/// invariant: at a branch to `t`, registers `>= states[t].len()` hold
/// popped temporaries, except a region's promoted slots, which stay live
/// until a call spills them or the frame returns.
#[allow(clippy::too_many_arguments)]
fn coalesce(
    out: &mut Vec<RInstr>,
    origin: &mut Vec<Pc>,
    regpc: &mut [u32],
    prog: &CompiledProgram,
    states: &[Option<State>],
    owner: &[u32],
    maxd: &[usize],
    n_promoted: &[usize],
    regs_cap: usize,
) {
    let len = out.len();
    let mut keep = vec![true; len];
    // Run boundaries: anything control flow can land on.
    let mut rt_target = vec![false; len];
    for (j, ins) in out.iter().enumerate() {
        if let Some(t) = ins.jump_target() {
            rt_target[t as usize] = true;
        }
        if let RInstr::Call { .. } = ins {
            // Returns resume at the next pc.
            if j + 1 < len {
                rt_target[j + 1] = true;
            }
        }
    }
    for f in &prog.funcs {
        rt_target[regpc[f.entry as usize] as usize] = true;
    }
    for l in &prog.loops {
        if l.mode.is_some() {
            rt_target[regpc[l.body_entry as usize] as usize] = true;
        }
    }

    // The region owning an emitted instruction (for its promoted range).
    let own_of = |j: usize| -> u32 {
        origin
            .get(j)
            .and_then(|&p| owner.get(p as usize))
            .copied()
            .unwrap_or(NO_OWNER)
    };
    // Operand-stack depth entering the instruction at reg pc `t`.
    let depth_at = |t: usize| -> Option<usize> {
        let sp = *origin.get(t)? as usize;
        states.get(sp)?.as_ref().map(|st| st.len())
    };

    // -- forward: copy propagation --------------------------------------
    let mut copy: Vec<Option<Reg>> = vec![None; regs_cap];
    let invalidate = |copy: &mut Vec<Option<Reg>>, d: Reg| {
        if let Some(c) = copy.get_mut(d as usize) {
            *c = None;
        }
        for c in copy.iter_mut() {
            if *c == Some(d) {
                *c = None;
            }
        }
    };
    for j in 0..len {
        if rt_target[j] {
            copy.iter_mut().for_each(|c| *c = None);
        }
        let ins = &mut out[j];
        let resolve = |r: Reg| copy.get(r as usize).copied().flatten().unwrap_or(r);
        rewrite_srcs(ins, resolve);
        match *ins {
            RInstr::Mov { d, s } if d == s => {
                // Self-move after propagation: pure no-op.
                keep[j] = false;
            }
            RInstr::Mov { d, s } => {
                invalidate(&mut copy, d);
                copy[d as usize] = Some(s);
            }
            // Calls and parallel regions clobber every register at or
            // above their window base; drop all facts.
            RInstr::Call { .. } | RInstr::ParLoop { .. } => {
                copy.iter_mut().for_each(|c| *c = None);
            }
            _ => {
                let mut dsts: [Reg; 3] = [0; 3];
                let mut nd = 0usize;
                for_each_dst(&out[j], &mut |d| {
                    dsts[nd] = d;
                    nd += 1;
                });
                for &d in &dsts[..nd] {
                    invalidate(&mut copy, d);
                }
            }
        }
    }

    // -- backward: dead pure-write elimination --------------------------
    // `dead[r]`: the value in `r` at this point is overwritten (or popped
    // off every outgoing edge) before any read.
    let mut dead = vec![false; regs_cap];
    let reinit = |dead: &mut Vec<bool>, depth: Option<usize>, own: u32| match depth {
        Some(depth) => {
            for (r, dd) in dead.iter_mut().enumerate() {
                *dd = r >= depth;
            }
            if own != NO_OWNER {
                let base = maxd[own as usize];
                for k in 0..n_promoted[own as usize] {
                    if let Some(dd) = dead.get_mut(base + k) {
                        *dd = false;
                    }
                }
            }
        }
        None => dead.iter_mut().for_each(|dd| *dd = false),
    };
    let mut run_end = len;
    for start in (0..len).rev() {
        if start != 0 && !rt_target[start] {
            continue;
        }
        // Liveness after the run's last instruction: the fallthrough
        // successor's depth (control enders below re-initialise anyway).
        reinit(
            &mut dead,
            depth_at(run_end),
            own_of(run_end.saturating_sub(1)),
        );
        for j in (start..run_end).rev() {
            if !keep[j] {
                continue;
            }
            let own = own_of(j);
            match out[j] {
                RInstr::Jump { t } => reinit(&mut dead, depth_at(t as usize), own),
                RInstr::Ret { .. } | RInstr::Halt { .. } | RInstr::Unreachable => {
                    dead.iter_mut().for_each(|dd| *dd = true);
                }
                // Post-call, everything in and above the callee window is
                // clobbered or spilled; arguments revive below. Builtins
                // are NOT window calls — they run inline and write only
                // their result register, so the generic arm handles them.
                RInstr::Call { abase, .. } => {
                    for (r, dd) in dead.iter_mut().enumerate() {
                        if r >= abase as usize {
                            *dd = true;
                        }
                    }
                }
                RInstr::ParLoop { .. } => dead.iter_mut().for_each(|dd| *dd = false),
                _ => match out[j].jump_target() {
                    // A conditional branch (`Jump` and `Call` matched
                    // above). Merge the taken edge: whatever it keeps live,
                    // is live.
                    Some(t) => match depth_at(t as usize) {
                        Some(depth) => {
                            for dd in dead.iter_mut().take(depth) {
                                *dd = false;
                            }
                            if own != NO_OWNER {
                                let base = maxd[own as usize];
                                for k in 0..n_promoted[own as usize] {
                                    if let Some(dd) = dead.get_mut(base + k) {
                                        *dd = false;
                                    }
                                }
                            }
                        }
                        None => dead.iter_mut().for_each(|dd| *dd = false),
                    },
                    None => {
                        if let Some(d) = pure_dst(&out[j]) {
                            if dead.get(d as usize).copied().unwrap_or(false) {
                                keep[j] = false;
                                continue;
                            }
                        }
                    }
                },
            }
            for_each_dst(&out[j], &mut |d| {
                if let Some(dd) = dead.get_mut(d as usize) {
                    *dd = true;
                }
            });
            for_each_src(&out[j], prog, &mut |s| {
                if let Some(dd) = dead.get_mut(s as usize) {
                    *dd = false;
                }
            });
        }
        run_end = start;
    }

    // -- compact and remap ----------------------------------------------
    let mut new_idx = vec![0u32; len + 1];
    let mut k = 0u32;
    for j in 0..len {
        new_idx[j] = k;
        k += keep[j] as u32;
    }
    new_idx[len] = k;
    for (j, ins) in out.iter_mut().enumerate() {
        if !keep[j] {
            continue;
        }
        if let Some(t) = ins.jump_target_mut() {
            *t = new_idx[*t as usize];
        }
    }
    let mut w = 0usize;
    for (j, &kept) in keep.iter().enumerate() {
        if kept {
            out.swap(w, j);
            origin.swap(w, j);
            w += 1;
        }
    }
    out.truncate(w);
    origin.truncate(w);
    for p in regpc.iter_mut() {
        if *p != u32::MAX {
            *p = new_idx[*p as usize];
        }
    }
}

/// Translates a compiled stack program to register form.
///
/// # Errors
///
/// Returns a [`RegLowerError`] when the input's operand-stack discipline
/// cannot be statically proven (see [`analyze_stack`]); programs produced
/// by [`crate::lower_program`] always translate.
pub fn translate(prog: &CompiledProgram) -> Result<RegProgram, RegLowerError> {
    let code = &prog.code;
    let n = code.len();
    let flow = analyze_stack(prog)?;
    let n_owners = flow.n_owners();
    let states = &flow.states;
    let owner = &flow.owner;

    // -- scalar promotion decisions ---------------------------------------
    //
    // See `promotion_plan`. The promoted register is loaded from frame
    // memory once at function entry (zeroed locals read 0, parameters read
    // their argument), spilled/reloaded around calls (callee register
    // windows overlap the caller's), and written back never — memory
    // behind a promoted slot is dead by construction.
    let plan = promotion_plan(prog, &flow);
    let maxd: Vec<usize> = plan.maxd.iter().map(|&m| m as usize).collect();
    let promoted = &plan.promoted;
    let spills = &plan.spills;
    // Function entry pc → prologue loads.
    let mut prologue: HashMap<usize, Vec<(Reg, u32, u8, bool)>> = HashMap::new();
    for (fi, f) in prog.funcs.iter().enumerate() {
        if !spills[fi].is_empty() {
            prologue.insert(f.entry as usize, spills[fi].clone());
        }
    }

    // Pcs a fused super-instruction must not swallow: anything control flow
    // can land on directly (branch targets and region/function entries).
    let mut target = vec![false; n + 1];
    for ins in code {
        match *ins {
            Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => target[t as usize] = true,
            _ => {}
        }
    }
    for f in &prog.funcs {
        target[f.entry as usize] = true;
    }
    for l in &prog.loops {
        if l.mode.is_some() {
            target[l.body_entry as usize] = true;
        }
    }

    let mut out: Vec<RInstr> = Vec::with_capacity(n);
    let mut origin: Vec<Pc> = Vec::with_capacity(n);
    let mut regpc: Vec<u32> = vec![u32::MAX; n + 1];
    // Branch-resolution pcs: where a *branch* to a stack pc lands. This
    // differs from `regpc` only at function entries with a promotion
    // prologue — calls must run the prologue loads, but a branch back to
    // the entry (a loop headed at the first statement) must NOT re-run
    // them, or promoted registers would be clobbered from stale frame
    // memory.
    let mut regpc_branch: Vec<u32> = vec![u32::MAX; n + 1];
    // (emitted index, stack target, lands_on_prologue) patched after
    // layout is known; only calls land on the prologue.
    let mut patches: Vec<(usize, Pc, bool)> = Vec::new();
    // The `(frame, base, stride)` of the fused access a `Load`/`Store`
    // through address slot `a` becomes, when its producer emitted nothing.
    let fused_tid = |a: &Slot| {
        let p = a.tid_of.filter(|p| !flow.unfused_tid.contains(p))?;
        match code[p as usize] {
            Instr::FrameAddrTid { offset, stride } => Some((true, offset, stride)),
            Instr::GlobalAddrTid { addr, stride } => Some((false, addr, stride)),
            _ => unreachable!("tid provenance names a tid address producer"),
        }
    };
    let consumable = |j: usize| j < n && states[j].is_some() && !target[j];
    let branch_of = |ins: &Instr| match *ins {
        Instr::JumpIfZ(t) => Some((t, false)),
        Instr::JumpIfNZ(t) => Some((t, true)),
        _ => None,
    };

    let mut i = 0usize;
    // Stack pc of the most recent emission, for the straight-line check of
    // the store-into-producer fusion.
    let mut last_emit_pc = 0usize;
    while i < n {
        regpc[i] = out.len() as u32;
        let Some(st) = &states[i] else {
            regpc_branch[i] = out.len() as u32;
            out.push(RInstr::Unreachable);
            origin.push(i as Pc);
            i += 1;
            continue;
        };
        let d = st.len() as u16;
        let pc = i as Pc;
        let own = owner[i];
        macro_rules! emit {
            ($ins:expr) => {{
                out.push($ins);
                origin.push(pc);
            }};
        }
        // Function prologue: pull every promoted slot out of its (zeroed
        // or argument-carrying) frame memory. Calls resolve through
        // `regpc`, so they land here first.
        if let Some(loads) = prologue.get(&i) {
            for &(reg, off, width, is_float) in loads {
                emit!(RInstr::LdFrame {
                    d: reg,
                    off,
                    width,
                    is_float,
                    site: NO_SITE,
                });
            }
        }
        regpc_branch[i] = out.len() as u32;
        let mut consumed = 0usize;
        match code[i] {
            Instr::PushI(v) => match (
                consumable(i + 1).then(|| code[i + 1]),
                consumable(i + 2).then(|| code[i + 2]),
            ) {
                (Some(Instr::ICmp(op)), Some(j)) if branch_of(&j).is_some() => {
                    let (t, on_true) = branch_of(&j).expect("checked");
                    patches.push((out.len(), t, false));
                    emit!(RInstr::JumpICmpImm {
                        op,
                        l: d - 1,
                        imm: v,
                        t: 0,
                        on_true,
                    });
                    consumed = 2;
                }
                (Some(Instr::ICmp(op)), _) => {
                    emit!(RInstr::ICmpImm {
                        op,
                        d: d - 1,
                        l: d - 1,
                        imm: v,
                    });
                    consumed = 1;
                }
                (Some(Instr::IBin(op)), _) => {
                    emit!(RInstr::IBinImm {
                        op,
                        d: d - 1,
                        l: d - 1,
                        imm: v,
                    });
                    consumed = 1;
                }
                _ => emit!(RInstr::LdcI { d, v }),
            },
            Instr::ICmp(op) if consumable(i + 1) && branch_of(&code[i + 1]).is_some() => {
                let (t, on_true) = branch_of(&code[i + 1]).expect("checked");
                patches.push((out.len(), t, false));
                emit!(RInstr::JumpICmp {
                    op,
                    l: d - 2,
                    r: d - 1,
                    t: 0,
                    on_true,
                });
                consumed = 1;
            }
            Instr::FCmp(op) if consumable(i + 1) && branch_of(&code[i + 1]).is_some() => {
                let (t, on_true) = branch_of(&code[i + 1]).expect("checked");
                patches.push((out.len(), t, false));
                emit!(RInstr::JumpFCmp {
                    op,
                    l: d - 2,
                    r: d - 1,
                    t: 0,
                    on_true,
                });
                consumed = 1;
            }
            Instr::FrameAddr(off) => match (
                promoted.get(&(own, off)),
                consumable(i + 1).then(|| code[i + 1]),
            ) {
                // Promoted slot: the address itself is dead (every consumer
                // resolves through provenance); fuse an adjacent load into
                // a register move, emit nothing otherwise.
                (Some(&(sreg, _, _)), Some(Instr::Load { .. })) => {
                    emit!(RInstr::Mov { d, s: sreg });
                    consumed = 1;
                }
                (Some(_), _) => {}
                (
                    None,
                    Some(Instr::Load {
                        width,
                        is_float,
                        site,
                    }),
                ) => {
                    emit!(RInstr::LdFrame {
                        d,
                        off,
                        width,
                        is_float,
                        site,
                    });
                    consumed = 1;
                }
                (None, _) => emit!(RInstr::FrameAddr { d, off }),
            },
            Instr::GlobalAddr(addr) => match consumable(i + 1).then(|| code[i + 1]) {
                Some(Instr::Load {
                    width,
                    is_float,
                    site,
                }) => {
                    emit!(RInstr::LdGlobal {
                        d,
                        addr,
                        width,
                        is_float,
                        site,
                    });
                    consumed = 1;
                }
                _ => emit!(RInstr::GlobalAddr { d, addr }),
            },
            Instr::PushF(v) => emit!(RInstr::LdcF { d, v }),
            Instr::Dup => match st.last().and_then(|s| s.addr_of) {
                // Copying a promoted slot's (dead) address copies nothing.
                Some(off) if promoted.contains_key(&(own, off)) => {}
                _ => emit!(RInstr::Mov { d, s: d - 1 }),
            },
            Instr::Drop => {} // pure depth bookkeeping; no code
            Instr::Tuck => emit!(RInstr::Tuck { d: d - 2 }),
            Instr::TidScaled(k) => emit!(RInstr::TidScaled { d, k }),
            Instr::TidSpanScaled(z) => emit!(RInstr::TidSpanScaled { d: d - 1, z }),
            // A tid address whose one consumer fuses (see
            // `StackFlow::unfused_tid`) is formed there, not here.
            Instr::FrameAddrTid { .. } | Instr::GlobalAddrTid { .. }
                if !flow.unfused_tid.contains(&pc) => {}
            Instr::FrameAddrTid { offset, stride } => {
                emit!(RInstr::FrameAddrTid { d, offset, stride })
            }
            Instr::GlobalAddrTid { addr, stride } => {
                emit!(RInstr::GlobalAddrTid { d, addr, stride })
            }
            Instr::IterIdx(depth) => emit!(RInstr::IterIdx { d, depth }),
            Instr::Load {
                width,
                is_float,
                site,
            } if fused_tid(&st[(d - 1) as usize]).is_some() => {
                let (frame, base, stride) = fused_tid(&st[(d - 1) as usize]).expect("checked");
                emit!(RInstr::LdTid {
                    d: d - 1,
                    frame,
                    base,
                    stride,
                    width,
                    is_float,
                    site,
                });
            }
            Instr::Store {
                width,
                is_float,
                site,
            } if fused_tid(&st[(d - 2) as usize]).is_some() => {
                let (frame, base, stride) = fused_tid(&st[(d - 2) as usize]).expect("checked");
                emit!(RInstr::StTid {
                    frame,
                    base,
                    stride,
                    v: d - 1,
                    width,
                    is_float,
                    site,
                });
            }
            Instr::Load {
                width,
                is_float,
                site,
            } => match st[(d - 1) as usize].addr_of {
                Some(off) if promoted.contains_key(&(own, off)) => {
                    emit!(RInstr::Mov {
                        d: d - 1,
                        s: promoted[&(own, off)].0,
                    });
                }
                // Known-but-unpromoted frame slot: still skip the address
                // register (it may hold a fused-away computation).
                Some(off) => emit!(RInstr::LdFrame {
                    d: d - 1,
                    off,
                    width,
                    is_float,
                    site,
                }),
                None => emit!(RInstr::Load {
                    d: d - 1,
                    width,
                    is_float,
                    site,
                }),
            },
            Instr::Store {
                width,
                is_float,
                site,
            } => match st[(d - 2) as usize].addr_of {
                Some(off) if promoted.contains_key(&(own, off)) => {
                    let sreg = promoted[&(own, off)].0;
                    // If the value's producer immediately precedes on a
                    // straight line (no branch lands between it and here),
                    // write the promoted register directly.
                    let fused = (last_emit_pc + 1..=i).all(|k| !target[k])
                        && out
                            .last_mut()
                            .is_some_and(|prev| redirect_dst(prev, d - 1, sreg));
                    if !fused {
                        emit!(RInstr::Mov { d: sreg, s: d - 1 });
                    }
                    // Narrow stores truncate in memory and sign-extend on
                    // reload; keep the register canonical the same way.
                    if !is_float && width < 8 {
                        emit!(RInstr::Sext { d: sreg, w: width });
                    }
                }
                Some(off) => emit!(RInstr::StFrame {
                    off,
                    v: d - 1,
                    width,
                    is_float,
                    site,
                }),
                None => emit!(RInstr::Store {
                    a: d - 2,
                    v: d - 1,
                    width,
                    is_float,
                    site,
                }),
            },
            Instr::MemCpy {
                size,
                load_site,
                store_site,
            } => emit!(RInstr::MemCpy {
                dst: d - 1,
                src: d - 2,
                size,
                load_site,
                store_site,
            }),
            Instr::IBin(op) => emit!(RInstr::IBin {
                op,
                d: d - 2,
                l: d - 2,
                r: d - 1,
            }),
            Instr::FBin(op) => emit!(RInstr::FBin {
                op,
                d: d - 2,
                l: d - 2,
                r: d - 1,
            }),
            Instr::ICmp(op) => emit!(RInstr::ICmp {
                op,
                d: d - 2,
                l: d - 2,
                r: d - 1,
            }),
            Instr::FCmp(op) => emit!(RInstr::FCmp {
                op,
                d: d - 2,
                l: d - 2,
                r: d - 1,
            }),
            Instr::INeg => emit!(RInstr::INeg { d: d - 1 }),
            Instr::FNeg => emit!(RInstr::FNeg { d: d - 1 }),
            Instr::BNot => emit!(RInstr::BNot { d: d - 1 }),
            Instr::LNot => emit!(RInstr::LNot { d: d - 1 }),
            Instr::I2F => emit!(RInstr::I2F { d: d - 1 }),
            Instr::F2I => emit!(RInstr::F2I { d: d - 1 }),
            Instr::SextTrunc(w) => emit!(RInstr::Sext { d: d - 1, w }),
            Instr::Jump(t) => {
                patches.push((out.len(), t, false));
                emit!(RInstr::Jump { t: 0 });
            }
            Instr::JumpIfZ(t) => {
                patches.push((out.len(), t, false));
                emit!(RInstr::JumpIfZ { s: d - 1, t: 0 });
            }
            Instr::JumpIfNZ(t) => {
                patches.push((out.len(), t, false));
                emit!(RInstr::JumpIfNZ { s: d - 1, t: 0 });
            }
            Instr::Call(fi) => {
                // The callee's register window overlaps the caller's, so
                // promoted slots spill to their frame homes across the
                // call and reload after.
                let spill: &[_] = if own != NO_OWNER {
                    spills[own as usize].as_slice()
                } else {
                    &[]
                };
                for &(sreg, off, width, is_float) in spill {
                    emit!(RInstr::StFrame {
                        off,
                        v: sreg,
                        width,
                        is_float,
                        site: NO_SITE,
                    });
                }
                let nargs = prog.func(fi).params.len() as u16;
                patches.push((out.len(), prog.func(fi).entry, true));
                emit!(RInstr::Call {
                    target: 0,
                    fi,
                    abase: d - nargs,
                });
                for &(sreg, off, width, is_float) in spill {
                    emit!(RInstr::LdFrame {
                        d: sreg,
                        off,
                        width,
                        is_float,
                        site: NO_SITE,
                    });
                }
            }
            Instr::CallBuiltin(b) => match b {
                Builtin::Fsqrt => emit!(RInstr::Fsqrt { d: d - 1 }),
                Builtin::Fabs => emit!(RInstr::Fabs { d: d - 1 }),
                Builtin::Tid => emit!(RInstr::Tid { d }),
                Builtin::NThreads => emit!(RInstr::NThreads { d }),
                _ => emit!(RInstr::CallBuiltin {
                    b,
                    abase: d - b.arity() as u16,
                    orig_pc: pc,
                }),
            },
            Instr::Ret => emit!(RInstr::Ret {
                src: d.saturating_sub(1),
                has_val: d == 1,
                is_float: d == 1 && st[0].ty == Ty::F,
            }),
            Instr::LoopMark(ev, id) => emit!(RInstr::LoopMark { ev, id }),
            Instr::ParLoop(id) => emit!(RInstr::ParLoop {
                id,
                lo: d - 2,
                hi: d - 1,
            }),
            Instr::Wait(id) => emit!(RInstr::Wait { id }),
            Instr::Post(id) => emit!(RInstr::Post { id }),
            Instr::Localize { site } => emit!(RInstr::Localize { d: d - 1, site }),
            Instr::Halt => emit!(RInstr::Halt {
                src: d.saturating_sub(1),
                has_val: d >= 1,
                is_float: d >= 1 && st.last().expect("nonempty").ty == Ty::F,
            }),
        }
        // Consumed pcs map to the fused instruction (they are never branch
        // targets, so this mapping is only cosmetic).
        for k in 1..=consumed {
            regpc[i + k] = regpc[i];
            regpc_branch[i + k] = regpc_branch[i];
        }
        if out.len() as u32 > regpc[i] {
            last_emit_pc = i;
        }
        i += 1 + consumed;
    }
    // A branch/entry may reference `n` (one past the end) only via fallthrough
    // of a trailing instruction; keep the pc space total either way.
    regpc[n] = out.len() as u32;
    regpc_branch[n] = out.len() as u32;
    out.push(RInstr::Unreachable);
    origin.push(n as Pc);

    for (idx, stack_t, is_call) in patches {
        // Branches to a function entry must skip the promoted-slot prologue:
        // the loads there re-read frame memory that is stale once the slot
        // lives in its register. Only calls enter through the prologue.
        let rt = if is_call {
            regpc[stack_t as usize]
        } else {
            regpc_branch[stack_t as usize]
        };
        debug_assert_ne!(rt, u32::MAX, "branch into untranslated pc");
        match out[idx].jump_target_mut() {
            Some(t) => *t = rt,
            None => unreachable!("patch target on {:?}", out[idx]),
        }
    }

    let max_depth = states.iter().flatten().map(|s| s.len()).max().unwrap_or(0) as u32;
    // Promoted slots sit above each region's operand-depth registers; the
    // window must cover the deepest combination.
    let max_window = (0..n_owners)
        .map(|o| maxd[o] as u32 + spills[o].len() as u32)
        .max()
        .unwrap_or(0)
        .max(max_depth);
    let n_promoted: Vec<usize> = spills.iter().map(|s| s.len()).collect();
    coalesce(
        &mut out,
        &mut origin,
        &mut regpc,
        prog,
        states,
        owner,
        &maxd,
        &n_promoted,
        (max_window + 4) as usize,
    );

    let mut entry_map = HashMap::new();
    for f in &prog.funcs {
        entry_map.insert(f.entry, regpc[f.entry as usize]);
    }
    for l in &prog.loops {
        if l.mode.is_some() {
            entry_map.insert(l.body_entry, regpc[l.body_entry as usize]);
        }
    }
    Ok(RegProgram {
        code: out,
        entry_map,
        origin,
        frame_regs: max_window + 4,
        promo: plan,
        verified: AtomicBool::new(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{FuncInfo, Instr};

    fn one_func(code: Vec<Instr>) -> CompiledProgram {
        CompiledProgram {
            code,
            funcs: vec![FuncInfo {
                name: "main".into(),
                entry: 0,
                frame_size: 0,
                params: vec![],
                ret: RetKind::Scalar,
                ret_float: false,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn translates_constant_arithmetic() {
        // 2 + 3 via push/push/add, returned.
        let p = one_func(vec![
            Instr::PushI(2),
            Instr::PushI(3),
            Instr::IBin(IBinOp::Add),
            Instr::Ret,
        ]);
        let rp = translate(&p).expect("translates");
        assert_eq!(rp.entry_map[&0], 0);
        // PushI(3);IBin fuses to IBinImm, so: LdcI, IBinImm, Ret.
        assert!(matches!(rp.code[0], RInstr::LdcI { d: 0, v: 2 }));
        assert!(matches!(
            rp.code[1],
            RInstr::IBinImm {
                op: IBinOp::Add,
                d: 0,
                l: 0,
                imm: 3
            }
        ));
        assert!(matches!(
            rp.code[2],
            RInstr::Ret {
                src: 0,
                has_val: true,
                is_float: false
            }
        ));
    }

    #[test]
    fn fuses_compare_and_branch() {
        // if (1 < 2) goto 5 else fall through; both paths return 0.
        let p = one_func(vec![
            Instr::PushI(1),
            Instr::PushI(2),
            Instr::ICmp(CmpOp::Lt),
            Instr::JumpIfNZ(5),
            Instr::Jump(5),
            Instr::PushI(0),
            Instr::Ret,
        ]);
        let rp = translate(&p).expect("translates");
        assert!(rp
            .code
            .iter()
            .any(|i| matches!(i, RInstr::JumpICmpImm { on_true: true, .. })));
    }

    #[test]
    fn rejects_join_depth_mismatch() {
        // Two paths reach pc 4 with different stack depths.
        let p = one_func(vec![
            Instr::PushI(1),
            Instr::JumpIfZ(4), // pops; depth 0 at target via this edge
            Instr::PushI(7),
            Instr::Jump(4), // depth 1 at target via this edge
            Instr::Halt,
        ]);
        let e = translate(&p).expect_err("mismatch");
        assert!(e.msg.contains("mismatch"), "unexpected error: {e}");
    }

    #[test]
    fn rejects_type_confusion() {
        let p = one_func(vec![Instr::PushF(1.5), Instr::LNot, Instr::Halt]);
        let e = translate(&p).expect_err("float into LNot");
        assert!(e.msg.contains("expected"), "unexpected error: {e}");
    }

    #[test]
    fn drop_emits_no_code() {
        let p = one_func(vec![
            Instr::PushI(1),
            Instr::PushI(9),
            Instr::Drop,
            Instr::Ret,
        ]);
        let rp = translate(&p).expect("translates");
        assert!(!rp
            .code
            .iter()
            .any(|i| matches!(i, RInstr::Mov { .. } | RInstr::Tuck { .. })));
        // LdcI, Ret, trailing Unreachable: the dropped push is a dead
        // write the coalescer removes outright.
        assert_eq!(rp.code.len(), 3);
    }

    fn framed_func(frame_size: u32, code: Vec<Instr>) -> CompiledProgram {
        let mut p = one_func(code);
        p.funcs[0].frame_size = frame_size;
        p
    }

    fn is_memory_op(i: &RInstr) -> bool {
        matches!(
            i,
            RInstr::Load { .. }
                | RInstr::LdFrame { .. }
                | RInstr::LdGlobal { .. }
                | RInstr::Store { .. }
                | RInstr::StFrame { .. }
                | RInstr::MemCpy { .. }
        )
    }

    #[test]
    fn promotes_loop_scalar_to_register() {
        // x = 0; while (x < 10) x = x + 1; return x. Promotion must leave
        // only the prologue load touching frame memory.
        let p = framed_func(
            8,
            vec![
                Instr::FrameAddr(0),
                Instr::PushI(0),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 1,
                },
                Instr::FrameAddr(0), // loop head
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 2,
                },
                Instr::PushI(10),
                Instr::ICmp(CmpOp::Lt),
                Instr::JumpIfZ(15),
                Instr::FrameAddr(0),
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 3,
                },
                Instr::PushI(1),
                Instr::IBin(IBinOp::Add),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 4,
                },
                Instr::Jump(3),
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 5,
                },
                Instr::Ret,
            ],
        );
        let rp = translate(&p).expect("translates");
        let mem: Vec<&RInstr> = rp.code.iter().filter(|i| is_memory_op(i)).collect();
        assert_eq!(
            mem.len(),
            1,
            "only the prologue load remains: {:?}",
            rp.code
        );
        assert!(
            matches!(mem[0], RInstr::LdFrame { site, .. } if *site == NO_SITE),
            "prologue load is unsited"
        );
        assert!(rp
            .code
            .iter()
            .any(|i| matches!(i, RInstr::JumpICmpImm { .. })));
    }

    #[test]
    fn branch_to_entry_skips_promoted_prologue() {
        // The loop is headed at the function's first pc, so the back edge
        // targets the entry itself. It must resolve past the promoted-slot
        // prologue: re-running those frame loads would resurrect stale
        // memory and (here) never observe the decrement.
        let p = framed_func(
            8,
            vec![
                Instr::FrameAddr(0), // loop head == function entry
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 1,
                },
                Instr::PushI(0),
                Instr::ICmp(CmpOp::Gt),
                Instr::JumpIfZ(12),
                Instr::FrameAddr(0),
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 2,
                },
                Instr::PushI(2),
                Instr::IBin(IBinOp::Sub),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 3,
                },
                Instr::Jump(0), // back edge to the entry pc
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 4,
                },
                Instr::Ret,
            ],
        );
        let rp = translate(&p).expect("translates");
        // The slot promotes, so the entry carries a prologue load.
        assert!(
            matches!(rp.code[rp.entry_map[&0] as usize], RInstr::LdFrame { site, .. } if site == NO_SITE),
            "entry begins with the prologue load: {:?}",
            rp.code
        );
        for ins in &rp.code {
            // Calls enter through the prologue; only branches must skip it.
            let t = match ins.jump_target() {
                Some(t) if !matches!(ins, RInstr::Call { .. }) => t,
                _ => continue,
            };
            assert!(
                !matches!(rp.code[t as usize], RInstr::LdFrame { site, .. } if site == NO_SITE),
                "branch lands on a prologue load: {:?}",
                rp.code
            );
        }
    }

    #[test]
    fn spills_promoted_slots_around_calls() {
        // x = 7; f(); return x — the callee's window overlaps the
        // caller's, so x round-trips through its frame home.
        let p = CompiledProgram {
            code: vec![
                Instr::FrameAddr(0),
                Instr::PushI(7),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 1,
                },
                Instr::Call(1),
                Instr::Drop,
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 2,
                },
                Instr::Ret,
                Instr::PushI(1), // f
                Instr::Ret,
            ],
            funcs: vec![
                FuncInfo {
                    name: "main".into(),
                    entry: 0,
                    frame_size: 8,
                    params: vec![],
                    ret: RetKind::Scalar,
                    ret_float: false,
                },
                FuncInfo {
                    name: "f".into(),
                    entry: 8,
                    frame_size: 0,
                    params: vec![],
                    ret: RetKind::Scalar,
                    ret_float: false,
                },
            ],
            ..Default::default()
        };
        let rp = translate(&p).expect("translates");
        let call = rp
            .code
            .iter()
            .position(|i| matches!(i, RInstr::Call { .. }))
            .expect("call emitted");
        assert!(
            matches!(rp.code[call - 1], RInstr::StFrame { off: 0, .. }),
            "spill precedes the call: {:?}",
            rp.code
        );
        assert!(
            matches!(rp.code[call + 1], RInstr::LdFrame { off: 0, .. }),
            "reload follows the call: {:?}",
            rp.code
        );
    }

    #[test]
    fn escaping_address_blocks_promotion() {
        // The frame address is passed to a builtin as a plain value, so
        // the whole region keeps its memory traffic.
        let p = framed_func(
            8,
            vec![
                Instr::FrameAddr(0),
                Instr::PushI(3),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 1,
                },
                Instr::FrameAddr(0),
                Instr::CallBuiltin(Builtin::Free),
                Instr::PushI(0),
                Instr::Ret,
            ],
        );
        let rp = translate(&p).expect("translates");
        assert!(
            rp.code
                .iter()
                .any(|i| matches!(i, RInstr::StFrame { off: 0, .. })),
            "store stays memory-backed: {:?}",
            rp.code
        );
    }

    #[test]
    fn narrow_promoted_store_sign_extends() {
        // A 4-byte store truncates in memory and sign-extends on reload;
        // the promoted register must be canonicalised the same way.
        let p = framed_func(
            4,
            vec![
                Instr::FrameAddr(0),
                Instr::PushI(0x1_0000_0001),
                Instr::Store {
                    width: 4,
                    is_float: false,
                    site: 1,
                },
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 4,
                    is_float: false,
                    site: 2,
                },
                Instr::Ret,
            ],
        );
        let rp = translate(&p).expect("translates");
        assert!(!rp.code.iter().skip(1).any(is_memory_op), "promoted");
        assert!(
            rp.code
                .iter()
                .any(|i| matches!(i, RInstr::Sext { w: 4, .. })),
            "canonicalising Sext emitted: {:?}",
            rp.code
        );
    }

    #[test]
    fn tid_access_fuses_only_when_its_address_has_one_use() {
        let tid = Instr::GlobalAddrTid {
            addr: 4096,
            stride: 8,
        };
        let load = Instr::Load {
            width: 8,
            is_float: false,
            site: 1,
        };
        let store = Instr::Store {
            width: 8,
            is_float: false,
            site: 2,
        };
        let count = |code: Vec<Instr>| {
            let rp = translate(&one_func(code)).expect("translates");
            let n = |f: fn(&RInstr) -> bool| rp.code.iter().filter(|i| f(i)).count();
            (
                n(|i| matches!(i, RInstr::GlobalAddrTid { .. })),
                n(|i| matches!(i, RInstr::LdTid { .. } | RInstr::StTid { .. })),
                n(|i| matches!(i, RInstr::Load { .. } | RInstr::Store { .. })),
            )
        };
        // `x[tid] = x[tid] + 1` as two accesses: both fuse, no producer is
        // left to count the access a second time.
        let two = vec![
            tid,
            tid,
            load,
            Instr::PushI(1),
            Instr::IBin(IBinOp::Add),
            store,
            Instr::PushI(0),
            Instr::Ret,
        ];
        assert_eq!(count(two), (0, 2, 0));
        // `x[tid] += 1`: one address, `Dup`ed for the load and the store.
        // It was counted once, so it is formed once, in a register.
        let dup = vec![
            tid,
            Instr::Dup,
            load,
            Instr::PushI(1),
            Instr::IBin(IBinOp::Add),
            store,
            Instr::PushI(0),
            Instr::Ret,
        ];
        assert_eq!(count(dup), (1, 0, 2));
        // A dropped address was still counted.
        let dropped = vec![tid, Instr::Drop, Instr::PushI(0), Instr::Ret];
        assert_eq!(count(dropped), (1, 0, 0));
        // An address live across a branch is in its register at the join.
        let branch = vec![
            tid,
            Instr::PushI(1),
            Instr::JumpIfZ(5),
            Instr::PushI(7),
            Instr::Jump(6),
            Instr::PushI(9),
            store,
            Instr::PushI(0),
            Instr::Ret,
        ];
        assert_eq!(count(branch), (1, 0, 1));
    }

    #[test]
    fn builtin_call_preserves_promoted_registers() {
        // Regression: builtins run inline and write only their result
        // register — the coalescer must not treat them as window calls and
        // delete writes to promoted registers above the result slot.
        let p = framed_func(
            8,
            vec![
                Instr::FrameAddr(0),
                Instr::PushI(5),
                Instr::Store {
                    width: 8,
                    is_float: false,
                    site: 1,
                },
                Instr::PushI(1),
                Instr::CallBuiltin(Builtin::Malloc),
                Instr::Drop,
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8,
                    is_float: false,
                    site: 2,
                },
                Instr::Ret,
            ],
        );
        let rp = translate(&p).expect("translates");
        assert!(
            rp.code
                .iter()
                .any(|i| matches!(i, RInstr::LdcI { v: 5, .. })),
            "the promoted write of 5 survives: {:?}",
            rp.code
        );
    }
}
