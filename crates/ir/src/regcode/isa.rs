//! The register instruction set, the one table of every variant's register
//! operands and control transfer, and the translated program.

use super::PromotionPlan;
use crate::bytecode::{Builtin, CmpOp, CompiledProgram, FBinOp, IBinOp, LoopEvent, Pc};
use crate::sites::SiteId;
use std::collections::HashMap;
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
    /// Fused `IBin;SextTrunc(w)`, or a promoted narrow store's
    /// canonicalization folded into its producer:
    /// `r[d] = sign_extend(truncate(r[l] op r[r], w))`.
    IBinSext {
        op: IBinOp,
        d: Reg,
        l: Reg,
        r: Reg,
        w: u8,
    },
    /// The immediate form of [`RInstr::IBinSext`]:
    /// `r[d] = sign_extend(truncate(r[l] op imm, w))` (`i++` on an `int`).
    IBinImmSext {
        op: IBinOp,
        d: Reg,
        l: Reg,
        imm: i64,
        w: u8,
    },
    /// Fused `PushI(k);IBin(Mul);IBin(Add)`: `r[d] = r[l] + r[r] * k`
    /// (wrapping), an indexed address `base + i * sizeof(T)`.
    AddScaled { d: Reg, l: Reg, r: Reg, k: i32 },
    /// Fused `AddScaled;Load`: `r[d] = mem[r[b] + r[i] * k]`. Its origin
    /// is the `Load`'s stack pc, so a trap names the pc the stack backend
    /// names.
    LoadIdx {
        d: Reg,
        b: Reg,
        i: Reg,
        k: i32,
        width: u8,
        is_float: bool,
        site: SiteId,
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
    /// A counted loop's back-edge: the induction increment and the rotated
    /// header test as one instruction. `r[d] = sign_extend(truncate(r[d] +
    /// step, w))` (wrapping; `w == 8` extends nothing), then jump to `t`
    /// when `(r[d] op imm) == on_true`.
    IncJumpICmpImm {
        d: Reg,
        step: i32,
        w: u8,
        op: CmpOp,
        imm: i64,
        t: u32,
        on_true: bool,
    },
    /// [`RInstr::IncJumpICmpImm`] against a register bound: the compare
    /// reads `r[r]` after `r[d]` is written.
    IncJumpICmp {
        d: Reg,
        step: i32,
        w: u8,
        op: CmpOp,
        r: Reg,
        t: u32,
        on_true: bool,
    },
    /// Call function `fi` (register entry `target`): args in
    /// `r[abase..abase+nargs]` are written to the callee's memory parameter
    /// slots; the callee's register window starts at `win`, above every
    /// register of the calling region (operands and promoted places), so
    /// nothing of the caller's is saved; its result (if any) lands in
    /// `r[abase]`.
    Call {
        target: u32,
        fi: u32,
        abase: Reg,
        win: Reg,
    },
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
    pub(super) verified: AtomicBool,
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

/// How an instruction writes the register window at [`Operands::dst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// One register, written without being read: any register will do.
    /// `pure` when the write is the instruction's whole effect — no memory
    /// access, trap or observer event — so a dead one can be deleted.
    Free {
        /// The write is the only effect.
        pure: bool,
    },
    /// One register, read and then overwritten with the result.
    InPlace,
    /// `Tuck`: reads two registers from the base up, writes three.
    Tuck,
    /// A call: reads its arguments from the base up and leaves its result
    /// (if any) in the base register, as the convention fixes it.
    Call(Arity),
}

/// How many argument registers a call reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// As many as the function with this index has parameters.
    Func(u32),
    /// A builtin's fixed count.
    Fixed(u16),
}

impl Write {
    /// Registers read from the base up.
    fn reads(self, prog: &CompiledProgram) -> u16 {
        match self {
            Write::Free { .. } => 0,
            Write::InPlace => 1,
            Write::Tuck => 2,
            Write::Call(Arity::Func(fi)) => prog.func(fi).params.len() as u16,
            Write::Call(Arity::Fixed(n)) => n,
        }
    }

    /// Registers written from the base up.
    fn writes(self) -> u16 {
        match self {
            Write::Tuck => 3,
            _ => 1,
        }
    }
}

/// Where control goes after an instruction; a transfer exposes its
/// register pc for rewriting.
#[derive(Debug)]
pub enum Control<'a> {
    /// Falls through.
    Next,
    /// Always continues at the pc.
    Jump(&'a mut u32),
    /// Continues at the pc or falls through.
    Branch(&'a mut u32),
    /// Enters the callee at the pc; the caller resumes at the next
    /// instruction.
    Call(&'a mut u32),
    /// Ends the region: a return, a halt, a translation hole.
    End,
}

/// The register operands and control transfer of one instruction
/// ([`RInstr::operands_mut`]).
#[derive(Debug)]
pub struct Operands<'a> {
    /// Base of the register window the instruction writes, and how.
    pub dst: Option<(Write, &'a mut Reg)>,
    /// The registers it reads besides.
    pub srcs: [Option<&'a mut Reg>; 2],
    /// Any register holding the value can serve as a source. False only
    /// for `ParLoop`, whose bounds double as the body's window base.
    pub srcs_free: bool,
    /// Where control goes next.
    pub control: Control<'a>,
}

impl RInstr {
    /// The one place a variant's registers and control transfer are
    /// declared: everything below, the coalescer and `dse-verify`'s
    /// register checks derive from it. Read-only users call it on a copy.
    #[inline(always)]
    pub fn operands_mut(&mut self) -> Operands<'_> {
        use Control::{Branch, Call, End, Jump, Next};
        let mut srcs_free = true;
        let free = Write::Free { pure: false };
        let pure = Write::Free { pure: true };
        let (dst, srcs, control) = match self {
            RInstr::LdcI { d, .. }
            | RInstr::LdcF { d, .. }
            | RInstr::FrameAddr { d, .. }
            | RInstr::GlobalAddr { d, .. } => (Some((pure, d)), [None, None], Next),
            RInstr::Mov { d, s } => (Some((pure, d)), [Some(s), None], Next),
            RInstr::TidScaled { d, .. }
            | RInstr::FrameAddrTid { d, .. }
            | RInstr::GlobalAddrTid { d, .. }
            | RInstr::IterIdx { d, .. }
            | RInstr::LdFrame { d, .. }
            | RInstr::LdGlobal { d, .. }
            | RInstr::LdTid { d, .. }
            | RInstr::Tid { d }
            | RInstr::NThreads { d } => (Some((free, d)), [None, None], Next),
            RInstr::IBin { d, l, r, .. }
            | RInstr::IBinSext { d, l, r, .. }
            | RInstr::FBin { d, l, r, .. }
            | RInstr::ICmp { d, l, r, .. }
            | RInstr::FCmp { d, l, r, .. }
            | RInstr::LoadIdx { d, b: l, i: r, .. } => (Some((free, d)), [Some(l), Some(r)], Next),
            RInstr::AddScaled { d, l, r, .. } => (Some((pure, d)), [Some(l), Some(r)], Next),
            RInstr::IBinImm { d, l, .. }
            | RInstr::IBinImmSext { d, l, .. }
            | RInstr::ICmpImm { d, l, .. } => (Some((free, d)), [Some(l), None], Next),
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
            | RInstr::Localize { d, .. } => (Some((Write::InPlace, d)), [None, None], Next),
            RInstr::Tuck { d } => (Some((Write::Tuck, d)), [None, None], Next),
            RInstr::Store { a, v, .. } => (None, [Some(a), Some(v)], Next),
            RInstr::StFrame { v, .. } | RInstr::StTid { v, .. } => (None, [Some(v), None], Next),
            RInstr::MemCpy { dst, src, .. } => (None, [Some(dst), Some(src)], Next),
            RInstr::Jump { t } => (None, [None, None], Jump(t)),
            RInstr::JumpIfZ { s, t } | RInstr::JumpIfNZ { s, t } => {
                (None, [Some(s), None], Branch(t))
            }
            RInstr::JumpICmp { l, r, t, .. } | RInstr::JumpFCmp { l, r, t, .. } => {
                (None, [Some(l), Some(r)], Branch(t))
            }
            RInstr::JumpICmpImm { l, t, .. } => (None, [Some(l), None], Branch(t)),
            RInstr::IncJumpICmpImm { d, t, .. } => {
                (Some((Write::InPlace, d)), [None, None], Branch(t))
            }
            RInstr::IncJumpICmp { d, r, t, .. } => {
                (Some((Write::InPlace, d)), [Some(r), None], Branch(t))
            }
            RInstr::Call {
                target, fi, abase, ..
            } => {
                let args = Write::Call(Arity::Func(*fi));
                (Some((args, abase)), [None, None], Call(target))
            }
            RInstr::CallBuiltin { b, abase, .. } => {
                let args = Write::Call(Arity::Fixed(b.arity() as u16));
                (Some((args, abase)), [None, None], Next)
            }
            RInstr::Ret { src, has_val, .. } | RInstr::Halt { src, has_val, .. } => {
                (None, [has_val.then_some(src), None], End)
            }
            RInstr::ParLoop { lo, hi, .. } => {
                srcs_free = false;
                (None, [Some(lo), Some(hi)], Next)
            }
            RInstr::LoopMark { .. } | RInstr::Wait { .. } | RInstr::Post { .. } => {
                (None, [None, None], Next)
            }
            RInstr::Unreachable => (None, [None, None], End),
        };
        Operands {
            dst,
            srcs,
            srcs_free,
            control,
        }
    }

    /// The register pc encoded in this instruction, for rewriting: a
    /// branch's target or a call's callee entry.
    #[inline]
    pub fn jump_target_mut(&mut self) -> Option<&mut u32> {
        match self.operands_mut().control {
            Control::Jump(t) | Control::Branch(t) | Control::Call(t) => Some(t),
            Control::Next | Control::End => None,
        }
    }

    /// The register pc [`RInstr::jump_target_mut`] would expose.
    #[inline]
    pub fn jump_target(&self) -> Option<u32> {
        let mut ins = *self;
        ins.jump_target_mut().copied()
    }
}

/// Calls `f` for every register an instruction overwrites (in-place
/// updates included).
#[inline]
pub fn for_each_dst(ins: &RInstr, f: &mut impl FnMut(Reg)) {
    let mut ins = *ins;
    if let Some((write, d)) = ins.operands_mut().dst {
        (0..write.writes()).for_each(|k| f(*d + k));
    }
}

/// Calls `f` for every register an instruction reads (in-place operands
/// and call-convention argument ranges included).
#[inline]
pub fn for_each_src(ins: &RInstr, prog: &CompiledProgram, f: &mut impl FnMut(Reg)) {
    let mut ins = *ins;
    let ops = ins.operands_mut();
    if let Some((write, d)) = ops.dst {
        (0..write.reads(prog)).for_each(|k| f(*d + k));
    }
    ops.srcs.into_iter().flatten().for_each(|s| f(*s));
}

/// Renames free (non-in-place) source operands through `m`. Calling
/// conventions pin argument ranges and `ParLoop` bounds double as the body
/// window base, so those stay untouched.
#[inline]
pub(super) fn rewrite_srcs(ins: &mut RInstr, m: impl Fn(Reg) -> Reg) {
    let ops = ins.operands_mut();
    if ops.srcs_free {
        ops.srcs.into_iter().flatten().for_each(|s| *s = m(*s));
    }
}

/// Folds a sign-extension of register `reg` to `w` bytes into the
/// just-emitted integer op that wrote it; anything else refuses.
#[inline]
pub(super) fn fold_sext(ins: &mut RInstr, reg: Reg, w: u8) -> bool {
    *ins = match *ins {
        RInstr::IBin { op, d, l, r } if d == reg => RInstr::IBinSext { op, d, l, r, w },
        RInstr::IBinImm { op, d, l, imm } if d == reg => RInstr::IBinImmSext { op, d, l, imm, w },
        _ => return false,
    };
    true
}

/// Pure register writes (no memory, no traps, no observer events) that the
/// coalescer may delete outright when the destination is provably dead.
#[inline]
pub fn pure_dst(ins: &RInstr) -> Option<Reg> {
    let mut ins = *ins;
    match ins.operands_mut().dst {
        Some((Write::Free { pure: true }, d)) => Some(*d),
        _ => None,
    }
}

/// Redirects the destination of a just-emitted producer with a free
/// destination register, so a following promoted-slot store needs no
/// `Mov`. In-place ops and calls (whose result register is fixed by
/// convention) refuse.
#[inline]
pub(super) fn redirect_dst(ins: &mut RInstr, from: Reg, to: Reg) -> bool {
    match ins.operands_mut().dst {
        Some((Write::Free { .. }, d)) if *d == from => {
            *d = to;
            true
        }
        _ => false,
    }
}
