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
//! callee's window starts above everything the calling region keeps in
//! registers — its operands *and* its promoted places (`Call::win`, the
//! SPARC/Lua trick with the base moved up) — so recursion works, a call
//! costs one instruction whatever its caller promoted, and per-iteration
//! register frames are reused across loop iterations without clearing.
//!
//! The emitter also fuses the hottest stack idioms into super-instructions:
//! compare+branch (`ICmp;JumpIfZ` → one fused conditional branch),
//! constant operands (`PushI;IBin` → `IBinImm`, `PushI;ICmp;JumpIf*` →
//! `JumpICmpImm`), and address+load (`FrameAddr;Load` → `LdFrame`).
//! Fusion only happens when the consumed instruction is not a jump target
//! or region entry, so every branch still lands on a translated pc.
//! A *private* scalar access that stays in memory — a global replica, or a
//! local one promotion had to leave — fuses the same way:
//! `FrameAddrTid`/`GlobalAddrTid` whose address reaches one `Load` or
//! `Store` uncopied within its basic block emits nothing, and the consumer
//! becomes `LdTid`/`StTid` ([`StackFlow::unfused_tid`] is the rule and the
//! proof that the access is still counted once).
//!
//! **Scalar promotion**: the dataflow additionally tracks *address
//! provenance* — which [`Place`] each stack slot is the address of: a plain
//! frame slot (`FrameAddr`) or this thread's replica of an expanded local
//! (`FrameAddrTid`, `x[tid]` or a field of it). A place whose every
//! observation in a region is a direct scalar load/store of one shape,
//! whose provenance survives every join, and which overlaps no other
//! access, is promoted to a dedicated register above the region's
//! operand-depth registers — its address is never formed at all. Three
//! rules say where ([`promotion_plan`]):
//!
//! * **Escape is per object.** [`crate::bytecode::FuncInfo::locals`]
//!   declares the frame's objects. A frame address used as a plain value
//!   (indexed, passed, stored, block-copied) keeps the *object* it was
//!   derived from in memory — for the function and all its outlined
//!   bodies — and nothing else: an array beside scalars costs the scalars
//!   nothing. The assumption is C's, and the one promotion already made
//!   across segments (a wild heap index can hit a promoted slot): **an
//!   address derived from an object stays inside it.**
//! * **Function regions** promote plain places, unless the function
//!   dispatches a `ParLoop` (its bodies read its frame from other threads
//!   while it waits).
//! * **Outlined bodies** promote the thread's own replicas — when the
//!   function's bodies reach the object only through tid places of one
//!   stride, at non-overlapping replica fields: replica 0 doubles as the
//!   shared copy, so one plain `x[0]` in a loop keeps `x` in memory — and
//!   the plain places no body of the function stores, which are invariant
//!   while the loop runs.
//!
//! Memory stays the truth exactly where someone can look. A place some
//! path reads before writing loads at region entry (behind the entry, so a
//! branch back to it does not reload); a body writes a stored place back
//! before its `Ret` when its next iteration reads it first or another
//! region of the function touches its object; a nested `ParLoop` is a full
//! spill-before/reload-after point. Everything else — above all a
//! temporary declared in the body and assigned before use — never touches
//! memory.
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

/// A frame location an address can provably name: a plain slot, or this
/// thread's replica of an expanded local (`x[tid]`, possibly a field of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Place {
    /// `frame_base + off`, from `FrameAddr(off)`.
    Frame(u32),
    /// `frame_base + off + tid * stride`, from `FrameAddrTid`.
    FrameTid {
        /// Offset of replica 0.
        off: u32,
        /// Distance between consecutive threads' replicas.
        stride: i64,
    },
}

impl Place {
    /// The frame offset the place names on thread 0.
    pub fn off(self) -> u32 {
        match self {
            Place::Frame(off) | Place::FrameTid { off, .. } => off,
        }
    }
}

/// One operand-stack slot in the dataflow: its static type plus address
/// provenance. `addr_of = Some(place)` means the slot provably holds
/// exactly the address of `place`, produced by a `FrameAddr`/`FrameAddrTid`
/// (possibly through `Dup`/`Tuck` copies and joins that agree on it).
/// Provenance is what scalar promotion keys on: a place whose address is
/// only ever the direct target of a `Load`/`Store` can live in a register.
///
/// `tid_of = Some(pc)` is the stricter provenance tid fusion keys on, for
/// the tid accesses promotion leaves in memory: the slot is the one,
/// uncopied holder of the address the `FrameAddrTid`/`GlobalAddrTid` at
/// `pc` formed, on a straight line from it (copies and branches clear it).
/// See [`StackFlow::unfused_tid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Static type of the value in the slot.
    pub ty: Ty,
    /// The place this slot is provably the address of, if any.
    pub addr_of: Option<Place>,
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

/// Width/type signature of the direct accesses seen at one place.
/// `shape` collapses to `None` when two accesses disagree (a union-like
/// reuse of the slot), which disqualifies the place from promotion;
/// `max_width` keeps growing either way so overlap checks stay sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessShape {
    /// `(width, is_float)` when every access agrees, `None` otherwise.
    pub shape: Option<(u8, bool)>,
    /// Widest access observed, kept for overlap checks even when the
    /// shape collapsed.
    pub max_width: u8,
    /// Some access is a `Store`.
    pub stored: bool,
    /// The pc of one of the accesses (a store when there is one): where a
    /// report points when it explains what the place cost.
    pub pc: Pc,
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
    /// Per owner: scalar promotion is disabled for the whole region — it
    /// shares code with another region, or it is the function region of a
    /// function that dispatches a `ParLoop` (its outlined bodies run on
    /// other threads against this frame while it waits).
    pub no_promote: Vec<bool>,
    /// `(function, frame offset)` of every frame address that got away:
    /// used as a plain value (arithmetic, call argument, stored as data,
    /// block copy), or lost at a control-flow join. Mapped to the stack pc
    /// where it happened. The declared object containing the offset stays
    /// in memory for the function and all its outlined bodies.
    pub escapes: HashMap<(u32, u32), Pc>,
    /// (owner, place) → the shape of its direct accesses.
    pub accesses: HashMap<(u32, Place), AccessShape>,
    /// The `FrameAddrTid`/`GlobalAddrTid` pcs whose address must exist in
    /// a register: it is copied, dropped, used as a plain value, or still
    /// live at a branch or join. Every other producer's address is consumed
    /// exactly once, in its own basic block, as the address operand of a
    /// `Load` or `Store` (whose [`Slot::tid_of`] names it): the translator
    /// emits nothing for the producer and one fused
    /// [`RInstr::LdTid`]/[`RInstr::StTid`] for the consumer, so the access
    /// is still counted once. (A producer whose place is promoted emits
    /// nothing either way.)
    pub unfused_tid: HashSet<Pc>,
    /// Loop indices (into `prog.loops`) of the outlined parallel bodies, in
    /// owner order after the functions.
    pub body_loops: Vec<u32>,
    /// Per owner: the index of the function whose frame it runs in — the
    /// function itself, or the enclosing function of an outlined body.
    pub func_of: Vec<u32>,
}

impl StackFlow {
    /// Number of seeded regions (functions + outlined parallel bodies).
    pub fn n_owners(&self) -> usize {
        self.no_promote.len()
    }

    /// The function whose frame an owner's direct accesses target
    /// ([`StackFlow::func_of`]).
    pub fn owner_func<'p>(&self, prog: &'p CompiledProgram, owner: u32) -> Option<&'p FuncInfo> {
        prog.funcs.get(*self.func_of.get(owner as usize)? as usize)
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

/// One place a region keeps in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotedPlace {
    /// The frame location.
    pub place: Place,
    /// Its dedicated register.
    pub reg: Reg,
    /// Access width in bytes.
    pub width: u8,
    /// The value is a float.
    pub is_float: bool,
    /// Some path of the region reads the place before writing it: the
    /// region entry loads it (once per call, once per iteration).
    pub entry_load: bool,
    /// An outlined body stores the place and someone can look — its own
    /// next iteration, or another region of the function: every `Ret` of
    /// the body writes it back first.
    pub write_back: bool,
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
    /// Per owner: its promoted places sorted by place, in registers
    /// `maxd[o]..` in that order. Entry loads, nested-`ParLoop`
    /// spills/reloads and exit write-backs are emitted in this order.
    pub places: Vec<Vec<PromotedPlace>>,
}

impl PromotionPlan {
    /// The register decision for `place` in region `owner`, if promoted.
    pub fn get(&self, owner: u32, place: Place) -> Option<&PromotedPlace> {
        let places = self.places.get(owner as usize)?;
        let i = places.binary_search_by(|p| p.place.cmp(&place)).ok()?;
        Some(&places[i])
    }

    /// The first register above everything region `owner` uses: where the
    /// register windows of its callees start.
    pub fn win(&self, owner: u32) -> u32 {
        let o = owner as usize;
        self.maxd.get(o).copied().unwrap_or(0) + self.places.get(o).map_or(0, |p| p.len() as u32)
    }
}

struct Flow<'p> {
    prog: &'p CompiledProgram,
    states: Vec<Option<State>>,
    /// The seeded entry (function or outlined loop body) whose dataflow
    /// reached each pc. Regions are disjoint in lowered code; shared code
    /// disables promotion for both claimants.
    owner: Vec<u32>,
    /// See [`StackFlow::func_of`].
    func_of: Vec<u32>,
    work: Vec<Pc>,
    /// See [`StackFlow::no_promote`].
    no_promote: Vec<bool>,
    /// See [`StackFlow::escapes`].
    escapes: HashMap<(u32, u32), Pc>,
    /// (owner, place) → the shape of its direct accesses.
    accesses: HashMap<(u32, Place), AccessShape>,
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
        let func = self.func_of[self.owner[i] as usize];
        let mut lost: Vec<Place> = Vec::new();
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
        // An address whose provenance a join lost reaches its consumers
        // through a register: the object it names stays in memory.
        for place in lost {
            self.escapes.entry((func, place.off())).or_insert(pc);
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
        // stored as data, …) can reach every byte of the object it was
        // derived from — and, C's rule, no other: that object stays in
        // memory, for this function and all its outlined bodies.
        macro_rules! value_use {
            ($slot:expr) => {
                if let Some(place) = $slot.addr_of {
                    let func = self.func_of[o as usize];
                    self.escapes.entry((func, place.off())).or_insert(pc);
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
            ($slot:expr, $width:expr, $is_float:expr, $stored:expr) => {
                if let Some(place) = $slot.addr_of {
                    let shape = ($width, $is_float);
                    self.accesses
                        .entry((o, place))
                        .and_modify(|a| {
                            if a.shape != Some(shape) {
                                a.shape = None;
                            }
                            a.max_width = a.max_width.max($width);
                            if $stored && !a.stored {
                                a.stored = true;
                                a.pc = pc;
                            }
                        })
                        .or_insert(AccessShape {
                            shape: Some(shape),
                            max_width: $width,
                            stored: $stored,
                            pc,
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
                addr_of: Some(Place::Frame(off)),
                ..Slot::new(I)
            }),
            Instr::GlobalAddr(_) | Instr::TidScaled(_) | Instr::IterIdx(_) => st.push(Slot::new(I)),
            Instr::FrameAddrTid { offset, stride } => st.push(Slot {
                addr_of: Some(Place::FrameTid {
                    off: offset,
                    stride,
                }),
                tid_of: Some(pc),
                ..Slot::new(I)
            }),
            // A global replica: a callee can name it, so it stays in
            // memory; only the fusion provenance is tracked.
            Instr::GlobalAddrTid { .. } => st.push(Slot {
                tid_of: Some(pc),
                ..Slot::new(I)
            }),
            Instr::TidSpanScaled(_) => {
                let s = Self::pop_ty(&mut st, pc, I)?;
                value_use!(s);
                st.push(Slot::new(I));
            }
            Instr::Load {
                width,
                is_float,
                site,
            } => {
                let a = Self::pop_ty(&mut st, pc, I)?;
                if site == NO_SITE {
                    // Only the translator's own fills and write-backs are
                    // unsited tid accesses: this one keeps its producer.
                    self.unfused_tid.extend(a.tid_of);
                }
                access!(a, width, is_float, false);
                st.push(Slot::new(if is_float { F } else { I }));
            }
            Instr::Store {
                width,
                is_float,
                site,
            } => {
                let v = Self::pop_ty(&mut st, pc, if is_float { F } else { I })?;
                value_use!(v); // a frame address stored as data escapes
                let a = Self::pop_ty(&mut st, pc, I)?;
                if site == NO_SITE {
                    self.unfused_tid.extend(a.tid_of);
                }
                access!(a, width, is_float, true);
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
                // While the loop runs, its bodies read this frame from
                // other threads: the *function* region that dispatches it
                // keeps memory the truth. (A body that dispatches a nested
                // loop spills before and reloads after instead.)
                if (o as usize) < self.prog.funcs.len() {
                    self.no_promote[o as usize] = true;
                }
                let hi = Self::pop_ty(&mut st, pc, I)?;
                value_use!(hi);
                let lo = Self::pop_ty(&mut st, pc, I)?;
                value_use!(lo);
            }
            Instr::Localize { .. } => {
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
    let nf = prog.funcs.len();
    let n_owners = nf + body_loops.len();
    let func_of = (0..nf as u32)
        .chain(body_loops.iter().map(|&li| prog.loops[li as usize].func))
        .collect();
    let mut flow = Flow {
        prog,
        states: vec![None; n],
        owner: vec![NO_OWNER; n],
        func_of,
        work: Vec::new(),
        no_promote: vec![false; n_owners],
        escapes: HashMap::new(),
        accesses: HashMap::new(),
        unfused_tid: HashSet::new(),
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        flow.seed(f.entry, fi as u32)?;
    }
    for (bi, &li) in body_loops.iter().enumerate() {
        flow.seed(prog.loops[li as usize].body_entry, (nf + bi) as u32)?;
    }
    while let Some(pc) = flow.work.pop() {
        flow.step(pc)?;
    }
    Ok(StackFlow {
        states: flow.states,
        owner: flow.owner,
        no_promote: flow.no_promote,
        escapes: flow.escapes,
        accesses: flow.accesses,
        unfused_tid: flow.unfused_tid,
        body_loops,
        func_of: flow.func_of,
    })
}

/// Why a region leaves a declared object in memory ([`promotion_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    /// Its address was used as a value — indexed, passed, copied — or lost
    /// at a join.
    Escaped,
    /// The outlined body with this owner index stores it directly: it is
    /// shared between iterations.
    StoredByBody(u32),
    /// Its accesses disagree: on width or type at one place, by
    /// overlapping, or by reaching replicas both plainly and through
    /// `tid` (replica 0 doubles as the shared copy).
    Mixed,
    /// The region is the function region of a function that dispatches a
    /// parallel loop (or shares code with another region).
    Dispatches,
}

/// One object a region accesses and keeps in memory, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kept {
    /// The region.
    pub owner: u32,
    /// Frame offset of the object (of its declaration, when there is one).
    pub off: u32,
    /// The reason.
    pub why: Why,
    /// The stack pc that shows it: the escaping use, or one of the accesses.
    pub pc: Pc,
}

/// A direct access, filed under the function whose frame it targets.
#[derive(Clone, Copy)]
struct Acc {
    owner: u32,
    place: Place,
    shape: AccessShape,
}

impl Acc {
    fn off(&self) -> u32 {
        self.place.off()
    }
}

/// A place that passed every rule but the must-written dataflow.
#[derive(Clone, Copy)]
struct Cand {
    place: Place,
    width: u8,
    is_float: bool,
    stored: bool,
    /// Another region of the function touches the place's object.
    ext: bool,
}

/// Index of the object containing frame offset `off`.
fn object_at(objects: &[(u32, u32)], off: u32) -> Option<usize> {
    let i = objects
        .partition_point(|&(start, _)| start <= off)
        .checked_sub(1)?;
    (off.checked_sub(objects[i].0)? < objects[i].1).then_some(i)
}

/// Derives the scalar-promotion decisions from a [`StackFlow`].
///
/// A *place* is promoted to a dedicated register of its region's window
/// when every observation of it in the region is a direct scalar
/// load/store of one shape, it lies inside one declared object whose
/// address never escaped in the function, it overlaps no other access,
/// and, by region kind:
///
/// * a **function region** (of a function that dispatches no parallel
///   loop) promotes plain places;
/// * an **outlined body** promotes a *tid place* — this thread's replica —
///   when the function's bodies reach the object only through tid places
///   of one stride at non-overlapping `[off mod stride, +width)`, and a
///   *plain place* that no body of the function stores: it is invariant
///   while the loop runs (the master waits in `ParLoop`, callees cannot
///   name it).
///
/// Memory stays the truth exactly where someone can look. A forward
/// must-written dataflow over the region finds the places some path reads
/// before writing: those load at region entry. A body writes a stored
/// place back before every `Ret` when its next iteration reads it first or
/// another region of the function touches its object; any other place —
/// a temporary assigned before use — never touches memory.
///
/// [`translate`] emits under exactly this plan; the verifier re-derives it
/// to prove a [`RegProgram::promo`] is justified.
pub fn promotion_plan(prog: &CompiledProgram, flow: &StackFlow) -> PromotionPlan {
    decide(prog, flow, &mut None)
}

/// [`promotion_plan`], plus what each region leaves in memory and why —
/// one entry per (region, object), sorted.
pub fn promotion_report(prog: &CompiledProgram, flow: &StackFlow) -> (PromotionPlan, Vec<Kept>) {
    let mut kept = Some(Vec::new());
    let plan = decide(prog, flow, &mut kept);
    let mut kept = kept.unwrap_or_default();
    kept.sort_unstable_by_key(|k| (k.owner, k.off, k.pc));
    kept.dedup_by_key(|k| (k.owner, k.off));
    (plan, kept)
}

/// The source position of the sited access at or soon after `pc` — where
/// a report points for a [`Kept::pc`]: the disqualifying access itself, or
/// the access the escaping use belongs to (the same statement).
pub fn access_near(prog: &CompiledProgram, pc: Pc) -> Option<dse_lang::SourceSpan> {
    let sited = |ins: &Instr| match *ins {
        Instr::Load { site, .. } | Instr::Store { site, .. } if site != NO_SITE => {
            Some(prog.sites.info(site).span)
        }
        _ => None,
    };
    prog.code[pc as usize..].iter().take(16).find_map(sited)
}

/// The global replicas each region addresses through `tid` — they stay in
/// memory because a callee can name them — as `(owner, address of replica
/// 0, source position of one access)`, one entry per (owner, address).
pub fn global_replicas(
    prog: &CompiledProgram,
    flow: &StackFlow,
) -> Vec<(u32, u32, Option<dse_lang::SourceSpan>)> {
    let mut found: Vec<(u32, u32, Pc)> = prog
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, ins)| match *ins {
            Instr::GlobalAddrTid { addr, .. } if flow.owner[pc] != NO_OWNER => {
                Some((flow.owner[pc], addr, pc as Pc))
            }
            _ => None,
        })
        .collect();
    found.sort_unstable();
    found.dedup_by_key(|&mut (owner, addr, _)| (owner, addr));
    found
        .into_iter()
        .map(|(owner, addr, pc)| (owner, addr, access_near(prog, pc)))
        .collect()
}

fn decide(prog: &CompiledProgram, flow: &StackFlow, kept: &mut Option<Vec<Kept>>) -> PromotionPlan {
    let nf = prog.funcs.len();
    let n_owners = flow.n_owners();
    let mut maxd = vec![0u32; n_owners];
    for (i, st) in flow.states.iter().enumerate() {
        if let (Some(st), o) = (st, flow.owner[i]) {
            if o != NO_OWNER {
                maxd[o as usize] = maxd[o as usize].max(st.len() as u32);
            }
        }
    }
    // Accesses and escapes by function, accesses sorted by offset once.
    let mut by_func: Vec<Vec<Acc>> = vec![Vec::new(); nf];
    for (&(owner, place), &shape) in &flow.accesses {
        if let Some(accs) = by_func.get_mut(flow.func_of[owner as usize] as usize) {
            accs.push(Acc {
                owner,
                place,
                shape,
            });
        }
    }
    let mut escaped: Vec<Vec<(u32, Pc)>> = vec![Vec::new(); nf];
    for (&(func, off), &pc) in &flow.escapes {
        if let Some(e) = escaped.get_mut(func as usize) {
            e.push((off, pc));
        }
    }
    let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); n_owners];
    let reporting = kept.is_some();
    let mut keep = |owner: u32, off: u32, why: Why, pc: Pc| {
        if let Some(kept) = kept {
            kept.push(Kept {
                owner,
                off,
                why,
                pc,
            });
        }
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        let accs = &mut by_func[fi];
        if accs.is_empty() {
            continue;
        }
        accs.sort_unstable_by_key(|a| (a.off(), a.owner, a.place));
        // Hand-built bytecode declares no objects: its frame is one.
        let whole = [(0, f.frame_size)];
        let objects: &[(u32, u32)] = if f.locals.is_empty() {
            &whole
        } else {
            &f.locals
        };
        // Where each object's address got away (the earliest pc).
        let mut tainted: Vec<Option<Pc>> = vec![None; objects.len()];
        let mut taint = |x: usize, pc: Pc| {
            tainted[x] = Some(tainted[x].map_or(pc, |p: Pc| p.min(pc)));
        };
        for &(off, pc) in &escaped[fi] {
            if let Some(x) = object_at(objects, off) {
                taint(x, pc);
            }
        }
        // An access that is not inside one object breaks the rule the
        // rest rely on; everything it overlaps stays in memory.
        for a in accs.iter() {
            let end = a.off() as u64 + a.shape.max_width as u64;
            let inside = object_at(objects, a.off())
                .is_some_and(|x| end <= objects[x].0 as u64 + objects[x].1 as u64);
            if !inside {
                let first =
                    objects.partition_point(|&(s, z)| (s as u64 + z as u64) <= a.off() as u64);
                for (x, _) in objects
                    .iter()
                    .enumerate()
                    .skip(first)
                    .take_while(|(_, &(s, _))| (s as u64) < end)
                {
                    taint(x, a.shape.pc);
                }
            }
        }
        if reporting {
            // An object reached only through escaped addresses has no
            // direct access to hang the reason on: charge the region
            // where its address got away.
            for (x, &pc) in tainted.iter().enumerate() {
                if let Some(pc) = pc {
                    keep(flow.owner[pc as usize], objects[x].0, Why::Escaped, pc);
                }
            }
        }
        // One object at a time: its accesses are a contiguous run.
        let mut k = 0usize;
        while k < accs.len() {
            let Some(x) = object_at(objects, accs[k].off()) else {
                k += 1;
                continue;
            };
            let (start, size) = objects[x];
            let len = accs[k..]
                .iter()
                .take_while(|a| a.off().checked_sub(start).is_some_and(|rel| rel < size))
                .count();
            let group = &accs[k..k + len];
            k += len;
            if let Some(pc) = tainted[x] {
                for a in group {
                    keep(a.owner, start, Why::Escaped, pc);
                }
                continue;
            }
            // What the function's outlined bodies, together, do to it.
            let many_owners = group.iter().any(|a| a.owner != group[0].owner);
            let in_body = |a: &&Acc| a.owner as usize >= nf;
            let body_plain = group
                .iter()
                .filter(in_body)
                .any(|a| matches!(a.place, Place::Frame(_)));
            let mut strides = group.iter().filter(in_body).filter_map(|a| match a.place {
                Place::FrameTid { stride, .. } => Some(stride),
                Place::Frame(_) => None,
            });
            let body_stride = strides.next();
            let one_stride = body_stride.is_some_and(|s| s > 0 && strides.all(|t| t == s));
            // Replica fields: distinct tid places must not overlap within
            // a replica, nor run past it into the next thread's.
            let tid_ok = one_stride && !body_plain && {
                let stride = body_stride.unwrap_or(1) as u64;
                let mut fields: Vec<(u64, Place, u64)> = group
                    .iter()
                    .filter(in_body)
                    .map(|a| {
                        (
                            (a.off() - start) as u64 % stride,
                            a.place,
                            a.shape.max_width as u64,
                        )
                    })
                    .collect();
                fields.sort_unstable();
                // The same place seen by two bodies: keep its widest view.
                fields.dedup_by(|b, a| {
                    a.1 == b.1 && {
                        a.2 = a.2.max(b.2);
                        true
                    }
                });
                fields.iter().all(|&(rel, _, w)| rel + w <= stride)
                    && fields.windows(2).all(|w| w[0].0 + w[0].2 <= w[1].0)
            };
            let body_stores: Vec<(u32, u32, u32, Pc)> = group
                .iter()
                .filter(in_body)
                .filter(|a| a.shape.stored && matches!(a.place, Place::Frame(_)))
                .map(|a| {
                    let end = a.off() + a.shape.max_width as u32;
                    (a.off(), end, a.owner, a.shape.pc)
                })
                .collect();
            for (i, a) in group.iter().enumerate() {
                let o = a.owner;
                if flow.no_promote[o as usize] {
                    keep(o, start, Why::Dispatches, a.shape.pc);
                    continue;
                }
                let is_body = o as usize >= nf;
                let mixed = Some((Why::Mixed, a.shape.pc));
                let scalar = a.shape.shape.filter(|&(w, isf)| {
                    (w == 8 || (!isf && matches!(w, 1 | 2 | 4)))
                        && a.off() - start + w as u32 <= size
                });
                let Some((width, is_float)) = scalar else {
                    keep(o, start, Why::Mixed, a.shape.pc);
                    continue;
                };
                // Another access of this region that overlaps this one
                // (`group` is sorted by offset; widths fit a `u8`).
                let end = a.off() + a.shape.max_width as u32;
                let overlaps = |b: &Acc| {
                    b.owner == o && b.off() < end && a.off() < b.off() + b.shape.max_width as u32
                };
                let overlapped = group[i + 1..]
                    .iter()
                    .take_while(|b| b.off() < end)
                    .any(overlaps)
                    || group[..i]
                        .iter()
                        .rev()
                        .take_while(|b| a.off() - b.off() <= u8::MAX as u32)
                        .any(overlaps);
                let refused: Option<(Why, Pc)> = match a.place {
                    Place::Frame(_) if overlapped => mixed,
                    // Thread 0's replica, named by `tid` outside any loop.
                    Place::Frame(_) if !is_body => group
                        .iter()
                        .find(|b| b.owner == o && matches!(b.place, Place::FrameTid { .. }))
                        .map(|b| (Why::Mixed, b.shape.pc)),
                    Place::Frame(_) if body_stride.is_some() => mixed,
                    Place::Frame(_) => body_stores
                        .iter()
                        .find(|s| s.0 < end && a.off() < s.1)
                        .map(|&(_, _, by, pc)| (Why::StoredByBody(by), pc)),
                    Place::FrameTid { stride, .. }
                        if is_body && tid_ok && width as i64 <= stride =>
                    {
                        None
                    }
                    Place::FrameTid { .. } => mixed,
                };
                match refused {
                    Some((why, pc)) => keep(o, start, why, pc),
                    None => cands[o as usize].push(Cand {
                        place: a.place,
                        width,
                        is_float,
                        stored: a.shape.stored,
                        ext: many_owners,
                    }),
                }
            }
        }
    }
    let mut places: Vec<Vec<PromotedPlace>> = vec![Vec::new(); n_owners];
    // Must-written state per stack pc (one bit per place, 64 places a
    // walk), shared by all walks; `seen` marks the pcs a walk reached.
    let mut written = vec![0u64; prog.code.len()];
    let mut seen = vec![false; prog.code.len()];
    for (o, cs) in cands.iter_mut().enumerate() {
        if cs.is_empty() {
            continue;
        }
        cs.sort_unstable_by_key(|c| c.place);
        let entry = match o.checked_sub(nf) {
            None => prog.funcs[o].entry,
            Some(bi) => prog.loops[flow.body_loops[bi] as usize].body_entry,
        };
        let rbw: Vec<u64> = cs
            .chunks(64)
            .map(|cs| read_before_write(prog, flow, cs, o >= nf, entry, &mut written, &mut seen))
            .collect();
        places[o] = cs
            .iter()
            .enumerate()
            .map(|(idx, c)| {
                let entry_load = rbw[idx / 64] >> (idx % 64) & 1 != 0;
                PromotedPlace {
                    place: c.place,
                    reg: (maxd[o] as usize + idx) as Reg,
                    width: c.width,
                    is_float: c.is_float,
                    entry_load,
                    write_back: o >= nf && c.stored && (entry_load || c.ext),
                }
            })
            .collect();
    }
    PromotionPlan { maxd, places }
}

/// The forward must-written dataflow of one region over up to 64 candidate
/// places `cs` (sorted by place; bit `i` is `cs[i]`): the set of places
/// some path from `entry` reads before writing. Reads are the direct
/// loads, and — in an outlined body — a nested `ParLoop` (it spills every
/// stored place, then reloads them all) and every `Ret` (it writes back
/// the stored places another region can see, so their registers must be
/// defined there).
fn read_before_write(
    prog: &CompiledProgram,
    flow: &StackFlow,
    cs: &[Cand],
    is_body: bool,
    entry: Pc,
    written: &mut [u64],
    seen: &mut [bool],
) -> u64 {
    let bit = |slot: Option<&Slot>| -> u64 {
        slot.and_then(|s| s.addr_of)
            .and_then(|p| cs.binary_search_by(|c| c.place.cmp(&p)).ok())
            .map_or(0, |i| 1u64 << i)
    };
    let mask = |f: &dyn Fn(&Cand) -> bool| -> u64 {
        cs.iter()
            .enumerate()
            .filter(|(_, c)| f(c))
            .fold(0, |m, (i, _)| m | 1u64 << i)
    };
    let all = mask(&|_| true);
    let stored = mask(&|c| c.stored);
    let seen_outside = mask(&|c| c.stored && c.ext);
    // (places read, places written) by the instruction at `pc`.
    let effect = |pc: usize| -> (u64, u64) {
        let st = flow.states[pc].as_deref().unwrap_or(&[]);
        match prog.code[pc] {
            Instr::Load { .. } => (bit(st.last()), 0),
            Instr::Store { .. } => (0, bit(st.len().checked_sub(2).and_then(|i| st.get(i)))),
            Instr::ParLoop(_) if is_body => (stored, all),
            Instr::Ret if is_body => (seen_outside, 0),
            _ => (0, 0),
        }
    };
    let mut work = vec![entry as usize];
    written[entry as usize] = 0;
    seen[entry as usize] = true;
    let mut visited = vec![entry as usize];
    while let Some(pc) = work.pop() {
        let out = written[pc] | effect(pc).1;
        let (a, b) = match prog.code[pc] {
            Instr::Jump(t) => (Some(t as usize), None),
            Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => (Some(t as usize), Some(pc + 1)),
            Instr::Ret | Instr::Halt => (None, None),
            _ => (Some(pc + 1), None),
        };
        for s in a.into_iter().chain(b) {
            if s >= written.len() {
                continue;
            }
            if !seen[s] {
                seen[s] = true;
                visited.push(s);
                written[s] = out;
                work.push(s);
            } else if written[s] & out != written[s] {
                written[s] &= out;
                work.push(s);
            }
        }
    }
    visited.into_iter().fold(0, |rbw, pc| {
        seen[pc] = false; // the region's next 64 places walk it again
        rbw | effect(pc).0 & !written[pc]
    })
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
/// propagation (facts from `Mov`, cleared at run boundaries, after every
/// branch and across region-clobbering instructions — so within one basic
/// block, which is as far as the translation validator follows them)
/// followed by a backward dead-write sweep
/// that deletes pure writes whose destination is overwritten — or falls
/// above the live operand depth of every outgoing edge — before any read.
/// Deleted instructions are compacted out; all jump targets, the pc→pc
/// maps and the entry registry are remapped.
///
/// Exit liveness is exact because the translation keeps the stack-depth
/// invariant: at a branch to `t`, registers `>= states[t].len()` hold
/// popped temporaries, except a region's promoted places, which stay live
/// — across calls too, whose windows start above them — until the region
/// returns.
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
            // The fallthrough of a conditional branch starts a basic
            // block: a fact carried into it could only be proven by a
            // validator that reasons across blocks, and ours does not.
            _ if ins.jump_target().is_some() => {
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
                // Post-call, the operands from the argument base up are
                // popped and the callee window (`win` up) is clobbered;
                // the promoted places in between live on, and arguments
                // revive below. Builtins are NOT window calls — they run
                // inline and write only their result register, so the
                // generic arm handles them.
                RInstr::Call { abase, win, .. } => {
                    let promoted = maxd.get(own as usize).map_or(0..0, |&m| m..win as usize);
                    for (r, dd) in dead.iter_mut().enumerate() {
                        if r >= abase as usize && !promoted.contains(&r) {
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
    let flow = analyze_stack(prog)?;
    let plan = promotion_plan(prog, &flow);
    Ok(translate_with(prog, &flow, plan))
}

/// Emits the register form of `prog` under `plan`: [`translate`] with the
/// promotion decisions supplied by the caller. The emitted code is
/// consistent with whatever `plan` says, so a verifier test can declare
/// an illegal promotion and see the plan — not the code — rejected.
pub fn translate_with(prog: &CompiledProgram, flow: &StackFlow, plan: PromotionPlan) -> RegProgram {
    let code = &prog.code;
    let n = code.len();
    let nf = prog.funcs.len();
    let n_owners = flow.n_owners();
    let states = &flow.states;
    let owner = &flow.owner;
    let maxd: Vec<usize> = plan.maxd.iter().map(|&m| m as usize).collect();
    let promoted = |own: u32, slot: &Slot| slot.addr_of.and_then(|p| plan.get(own, p));
    // The `NO_SITE` load that fills, and store that empties, a place's
    // register: at region entry, around a nested `ParLoop`, before a
    // body's `Ret`. Memory behind a place with neither is dead.
    let fill = |p: &PromotedPlace| match p.place {
        Place::Frame(off) => RInstr::LdFrame {
            d: p.reg,
            off,
            width: p.width,
            is_float: p.is_float,
            site: NO_SITE,
        },
        Place::FrameTid { off, stride } => RInstr::LdTid {
            d: p.reg,
            frame: true,
            base: off,
            stride,
            width: p.width,
            is_float: p.is_float,
            site: NO_SITE,
        },
    };
    let empty = |p: &PromotedPlace| match p.place {
        Place::Frame(off) => RInstr::StFrame {
            off,
            v: p.reg,
            width: p.width,
            is_float: p.is_float,
            site: NO_SITE,
        },
        Place::FrameTid { off, stride } => RInstr::StTid {
            frame: true,
            base: off,
            stride,
            v: p.reg,
            width: p.width,
            is_float: p.is_float,
            site: NO_SITE,
        },
    };
    let stored =
        |own: u32, p: &PromotedPlace| flow.accesses.get(&(own, p.place)).is_some_and(|a| a.stored);

    // Pcs a fused super-instruction must not swallow: anything control flow
    // can land on directly (branch targets and region/function entries).
    let mut target = vec![false; n + 1];
    for ins in code {
        match *ins {
            Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => target[t as usize] = true,
            _ => {}
        }
    }
    // Region entry pc → the region, for the entry loads.
    let mut entries: HashMap<usize, u32> = HashMap::new();
    for (fi, f) in prog.funcs.iter().enumerate() {
        target[f.entry as usize] = true;
        entries.insert(f.entry as usize, fi as u32);
    }
    for (bi, &li) in flow.body_loops.iter().enumerate() {
        let entry = prog.loops[li as usize].body_entry as usize;
        target[entry] = true;
        entries.insert(entry, (nf + bi) as u32);
    }

    let mut out: Vec<RInstr> = Vec::with_capacity(n);
    let mut origin: Vec<Pc> = Vec::with_capacity(n);
    let mut regpc: Vec<u32> = vec![u32::MAX; n + 1];
    // Branch-resolution pcs: where a *branch* to a stack pc lands. This
    // differs from `regpc` only at region entries with entry loads — a
    // call or an iteration dispatch must run them, but a branch back to
    // the entry (a loop headed at the first statement) must NOT re-run
    // them, or promoted registers would be clobbered from stale frame
    // memory.
    let mut regpc_branch: Vec<u32> = vec![u32::MAX; n + 1];
    // (emitted index, stack target, lands_on_entry_loads) patched after
    // layout is known; only calls land on the entry loads.
    let mut patches: Vec<(usize, Pc, bool)> = Vec::new();
    // The `(frame, base, stride)` of the fused access a sited `Load`/`Store`
    // through address slot `a` becomes, when its producer emitted nothing.
    let fused_tid = |a: &Slot| {
        let p = a.tid_of.filter(|p| !flow.unfused_tid.contains(p))?;
        match code[p as usize] {
            Instr::FrameAddrTid { offset, stride } => Some((true, offset, stride)),
            Instr::GlobalAddrTid { addr, stride } => Some((false, addr, stride)),
            _ => unreachable!("tid provenance names a tid address producer"),
        }
    };
    let no_register = |own: u32, a: &Slot| promoted(own, a).is_some() || fused_tid(a).is_some();
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
        let places: &[PromotedPlace] = plan.places.get(own as usize).map_or(&[], |p| p);
        macro_rules! emit {
            ($ins:expr) => {{
                out.push($ins);
                origin.push(pc);
            }};
        }
        // Region entry: fill every place some path reads before writing
        // from its (zeroed, argument-carrying or previous-iteration)
        // memory. Calls and dispatches resolve through `regpc`, so they
        // land here first.
        if let Some(region) = entries.get(&i).and_then(|&r| plan.places.get(r as usize)) {
            for p in region.iter().filter(|p| p.entry_load) {
                emit!(fill(p));
            }
        }
        regpc_branch[i] = out.len() as u32;
        let mut consumed = 0usize;
        let dead_addr = match code[i] {
            Instr::FrameAddr(off) => plan.get(own, Place::Frame(off)),
            Instr::FrameAddrTid { offset, stride } => plan.get(
                own,
                Place::FrameTid {
                    off: offset,
                    stride,
                },
            ),
            _ => None,
        };
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
            // The address of a promoted place is dead (every consumer
            // resolves through provenance): fuse an adjacent load into a
            // register move, emit nothing otherwise.
            Instr::FrameAddr(_) | Instr::FrameAddrTid { .. } if dead_addr.is_some() => {
                if consumable(i + 1) && matches!(code[i + 1], Instr::Load { .. }) {
                    let s = dead_addr.expect("checked").reg;
                    emit!(RInstr::Mov { d, s });
                    consumed = 1;
                }
            }
            Instr::FrameAddr(off) => match consumable(i + 1).then(|| code[i + 1]) {
                Some(Instr::Load {
                    width,
                    is_float,
                    site,
                }) => {
                    emit!(RInstr::LdFrame {
                        d,
                        off,
                        width,
                        is_float,
                        site,
                    });
                    consumed = 1;
                }
                _ => emit!(RInstr::FrameAddr { d, off }),
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
            Instr::Dup => match st.last().and_then(|s| promoted(own, s)) {
                // Copying a promoted place's (dead) address copies nothing.
                Some(_) => {}
                None => emit!(RInstr::Mov { d, s: d - 1 }),
            },
            Instr::Drop => {} // pure depth bookkeeping; no code
            // `[a, b] -> [b, a, b]`; an address that is in no register —
            // a promoted place's, or a tid address its one consumer will
            // form — is neither read nor moved.
            Instr::Tuck => match (
                no_register(own, &st[(d - 2) as usize]),
                no_register(own, &st[(d - 1) as usize]),
            ) {
                (false, false) => emit!(RInstr::Tuck { d: d - 2 }),
                (true, false) => {
                    emit!(RInstr::Mov { d, s: d - 1 });
                    emit!(RInstr::Mov { d: d - 2, s: d - 1 });
                }
                (false, true) => emit!(RInstr::Mov { d: d - 1, s: d - 2 }),
                (true, true) => {}
            },
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
            } => {
                let a = &st[(d - 1) as usize];
                match (promoted(own, a), fused_tid(a), a.addr_of) {
                    (Some(p), _, _) => emit!(RInstr::Mov { d: d - 1, s: p.reg }),
                    (None, Some((frame, base, stride)), _) => emit!(RInstr::LdTid {
                        d: d - 1,
                        frame,
                        base,
                        stride,
                        width,
                        is_float,
                        site,
                    }),
                    // Known-but-unpromoted frame slot: still skip the
                    // address register (it may hold a fused-away
                    // computation).
                    (None, None, Some(Place::Frame(off))) => emit!(RInstr::LdFrame {
                        d: d - 1,
                        off,
                        width,
                        is_float,
                        site,
                    }),
                    (None, None, _) => emit!(RInstr::Load {
                        d: d - 1,
                        width,
                        is_float,
                        site,
                    }),
                }
            }
            Instr::Store {
                width,
                is_float,
                site,
            } => {
                let a = &st[(d - 2) as usize];
                match (promoted(own, a), fused_tid(a), a.addr_of) {
                    (Some(p), _, _) => {
                        let sreg = p.reg;
                        // If the value's producer immediately precedes on a
                        // straight line (no branch lands between it and
                        // here), write the promoted register directly.
                        let fused = (last_emit_pc + 1..=i).all(|k| !target[k])
                            && out
                                .last_mut()
                                .is_some_and(|prev| redirect_dst(prev, d - 1, sreg));
                        if !fused {
                            emit!(RInstr::Mov { d: sreg, s: d - 1 });
                        }
                        // Narrow stores truncate in memory and sign-extend
                        // on reload; keep the register canonical the same
                        // way.
                        if !is_float && width < 8 {
                            emit!(RInstr::Sext { d: sreg, w: width });
                        }
                    }
                    (None, Some((frame, base, stride)), _) => emit!(RInstr::StTid {
                        frame,
                        base,
                        stride,
                        v: d - 1,
                        width,
                        is_float,
                        site,
                    }),
                    (None, None, Some(Place::Frame(off))) => emit!(RInstr::StFrame {
                        off,
                        v: d - 1,
                        width,
                        is_float,
                        site,
                    }),
                    (None, None, _) => emit!(RInstr::Store {
                        a: d - 2,
                        v: d - 1,
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
                // The callee's window starts above this region's operands
                // and promoted places: it can reach neither (no promoted
                // place's address is ever taken), so nothing is saved.
                let nargs = prog.func(fi).params.len() as u16;
                patches.push((out.len(), prog.func(fi).entry, true));
                emit!(RInstr::Call {
                    target: 0,
                    fi,
                    abase: d - nargs,
                    win: plan.win(own) as Reg,
                });
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
            Instr::Ret => {
                // A body's registers die with the iteration: what someone
                // can look at goes back to memory first.
                for p in places.iter().filter(|p| p.write_back) {
                    emit!(empty(p));
                }
                emit!(RInstr::Ret {
                    src: d.saturating_sub(1),
                    has_val: d == 1,
                    is_float: d == 1 && st[0].ty == Ty::F,
                })
            }
            Instr::LoopMark(ev, id) => emit!(RInstr::LoopMark { ev, id }),
            Instr::ParLoop(id) => {
                // A nested loop's body runs in a window on top of this
                // one's registers and against the same replicas: memory
                // is the truth while it runs.
                for p in places.iter().filter(|p| stored(own, p)) {
                    emit!(empty(p));
                }
                emit!(RInstr::ParLoop {
                    id,
                    lo: d - 2,
                    hi: d - 1,
                });
                for p in places {
                    emit!(fill(p));
                }
            }
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
        // Branches to a region entry must skip its entry loads: they
        // re-read memory that is stale once the place lives in its
        // register. Only calls (and iteration dispatches) run them.
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
    // Promoted places sit above each region's operand-depth registers; the
    // window must cover the deepest combination.
    let max_window = (0..n_owners as u32)
        .map(|o| plan.win(o))
        .max()
        .unwrap_or(0)
        .max(max_depth);
    let n_promoted: Vec<usize> = plan.places.iter().map(Vec::len).collect();
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
    for &entry in entries.keys() {
        entry_map.insert(entry as Pc, regpc[entry]);
    }
    RegProgram {
        code: out,
        entry_map,
        origin,
        frame_regs: max_window + 4,
        promo: plan,
        verified: AtomicBool::new(false),
    }
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
                locals: vec![],
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
                | RInstr::LdTid { .. }
                | RInstr::Store { .. }
                | RInstr::StFrame { .. }
                | RInstr::StTid { .. }
                | RInstr::MemCpy { .. }
        )
    }

    #[test]
    fn promotes_loop_scalar_to_register() {
        // x = 0; while (x < 10) x = x + 1; return x. x is assigned before
        // it is read, so promotion leaves nothing touching frame memory.
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
        assert!(!rp.code.iter().any(is_memory_op), "{:?}", rp.code);
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
    fn call_does_not_spill_promoted_slots() {
        // x = 7; f(); return x — the callee's window starts above x's
        // register, so the call is one instruction and x never sees
        // memory (it is assigned before it is read: no entry load).
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
                    locals: vec![],
                    ret: RetKind::Scalar,
                    ret_float: false,
                },
                FuncInfo {
                    name: "f".into(),
                    entry: 8,
                    frame_size: 0,
                    params: vec![],
                    locals: vec![],
                    ret: RetKind::Scalar,
                    ret_float: false,
                },
            ],
            ..Default::default()
        };
        let rp = translate(&p).expect("translates");
        assert!(!rp.code.iter().any(is_memory_op), "{:?}", rp.code);
        let x = rp.promo.get(0, Place::Frame(0)).expect("x is promoted");
        assert!(
            rp.code
                .iter()
                .any(|i| matches!(*i, RInstr::Call { abase: 0, win, .. } if win > x.reg)),
            "the callee window starts above x: {:?}",
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

    // ---- promotion, from source -------------------------------------------
    //
    // The programs below are written the way the expansion pass leaves
    // them: a private scalar `x` is `T x[N]` accessed as `x[__tid()]`.

    /// Lowers `src` with every loop in `par` outlined (DOALL) and translates.
    fn translated(src: &str, par: &[&str]) -> (CompiledProgram, StackFlow, RegProgram) {
        use crate::lower::{LowerMode, LowerOptions, ParLoopSpec};
        let ast = dse_lang::compile_to_ast(src).expect("parses");
        let mut opts = LowerOptions::default();
        if !par.is_empty() {
            opts.mode = LowerMode::Parallel;
        }
        for label in par {
            let spec = ParLoopSpec {
                mode: crate::loops::ParMode::DoAll,
                sync_window: None,
            };
            opts.par.insert(label.to_string(), spec);
        }
        let prog = crate::lower_program(&ast, &opts).expect("lowers");
        let flow = analyze_stack(&prog).expect("flows");
        let rp = translate(&prog).expect("translates");
        (prog, flow, rp)
    }

    /// The frame offset of the `i`-th declared local of function `f`.
    fn local(prog: &CompiledProgram, f: &str, i: usize) -> u32 {
        prog.func(prog.func_by_name(f).expect("function")).locals[i].0
    }

    /// The register instructions translated from region `owner`.
    fn region<'r>(flow: &StackFlow, rp: &'r RegProgram, owner: u32) -> Vec<&'r RInstr> {
        (0..rp.code.len())
            .filter(|&pc| flow.owner.get(rp.origin[pc] as usize) == Some(&owner))
            .map(|pc| &rp.code[pc])
            .collect()
    }

    fn unsited(i: &RInstr) -> bool {
        matches!(
            i,
            RInstr::LdFrame { site: NO_SITE, .. }
                | RInstr::LdTid { site: NO_SITE, .. }
                | RInstr::StFrame { site: NO_SITE, .. }
                | RInstr::StTid { site: NO_SITE, .. }
        )
    }

    #[test]
    fn an_array_beside_scalars_keeps_only_itself_in_memory() {
        let (prog, _, rp) = translated(
            "int main() { int a[4]; int s; s = 0;
               for (int i = 0; i < 4; i++) { a[i] = i; s = s + a[i]; }
               return s; }",
            &[],
        );
        let main = &rp.promo.places[0];
        let (a, s, i) = (
            local(&prog, "main", 0),
            local(&prog, "main", 1),
            local(&prog, "main", 2),
        );
        assert!(rp.promo.get(0, Place::Frame(s)).is_some(), "{main:?}");
        assert!(rp.promo.get(0, Place::Frame(i)).is_some(), "{main:?}");
        assert!(
            main.iter().all(|p| !(a..a + 16).contains(&p.place.off())),
            "nothing inside the indexed array is promoted: {main:?}"
        );
        // `a[i]` goes through its computed address; `s` and `i` never
        // touch memory (both are assigned before they are read).
        assert!(rp.code.iter().any(|i| matches!(i, RInstr::Store { .. })));
        assert!(!rp
            .code
            .iter()
            .any(|i| matches!(i, RInstr::LdFrame { .. } | RInstr::StFrame { .. })));
    }

    #[test]
    fn an_escape_before_the_loop_keeps_the_object_in_memory_in_its_body() {
        // `x`'s address leaks in the function region; a callee may hold it
        // while the loop runs. `y` is the same shape and leaks nowhere.
        let (prog, flow, rp) = translated(
            "void sink(long *p) { *p = 1; }
             int main() { long x[2]; long y[2]; sink(x);
               #pragma candidate l
               for (int i = 0; i < 4; i++) { x[__tid()] = i; y[__tid()] = i + x[__tid()]; }
               return 0; }",
            &["l"],
        );
        let body = prog.funcs.len() as u32;
        let (x, y) = (local(&prog, "main", 0), local(&prog, "main", 1));
        let tid = |off| Place::FrameTid { off, stride: 8 };
        assert!(rp.promo.get(body, tid(x)).is_none());
        assert!(rp.promo.get(body, tid(y)).is_some());
        let code = region(&flow, &rp, body);
        assert!(
            code.iter()
                .any(|i| matches!(i, RInstr::StTid { base, .. } if *base == x)),
            "{code:?}"
        );
        assert!(
            !code
                .iter()
                .any(|i| matches!(i, RInstr::StTid { base, .. } | RInstr::LdTid { base, .. } if *base == y)),
            "a temporary of the body never touches memory: {code:?}"
        );
    }

    #[test]
    fn replica_fields_are_separate_places() {
        // `q[tid].ptr` and `q[tid].span`: one folded `FrameAddrTid` each,
        // one register each.
        let (prog, _, rp) = translated(
            "struct Q { long ptr; long span; };
             int main() { struct Q q[2]; long out[4];
               #pragma candidate l
               for (int i = 0; i < 4; i++) {
                 q[__tid()].ptr = i; q[__tid()].span = 8;
                 out[i] = q[__tid()].ptr + q[__tid()].span; }
               return 0; }",
            &["l"],
        );
        let q = local(&prog, "main", 0);
        assert!(prog.code.contains(&Instr::FrameAddrTid {
            offset: q + 8,
            stride: 16
        }));
        let body = prog.funcs.len() as u32;
        for off in [q, q + 8] {
            let p = rp.promo.get(body, Place::FrameTid { off, stride: 16 });
            assert!(p.is_some_and(|p| !p.entry_load && !p.write_back), "{p:?}");
        }
    }

    #[test]
    fn an_indexed_replica_array_stays_in_memory_and_nothing_else() {
        let (prog, _, rp) = translated(
            "int main() { int blk[2][4]; int t[2]; long out[4];
               #pragma candidate l
               for (int i = 0; i < 4; i++) {
                 t[__tid()] = i & 3; blk[__tid()][t[__tid()]] = i;
                 out[i] = blk[__tid()][0]; }
               return 0; }",
            &["l"],
        );
        let body = &rp.promo.places[prog.funcs.len()];
        let (blk, t) = (local(&prog, "main", 0), local(&prog, "main", 1));
        assert!(body
            .iter()
            .any(|p| p.place == Place::FrameTid { off: t, stride: 4 }));
        assert!(body
            .iter()
            .all(|p| !(blk..blk + 32).contains(&p.place.off())));
    }

    #[test]
    fn a_plain_access_to_replica_zero_keeps_the_object_in_memory() {
        // Replica 0 doubles as the shared copy: `x[0]` in the loop means
        // thread 0's register would hide a store from the other threads.
        let (prog, _, rp) = translated(
            "int main() { long x[2]; long out[4];
               #pragma candidate l
               for (int i = 0; i < 4; i++) { x[__tid()] = i; out[i] = x[0]; }
               return 0; }",
            &["l"],
        );
        assert!(rp.promo.places[prog.funcs.len()].is_empty());
    }

    #[test]
    fn a_body_loads_what_it_reads_first_and_writes_back_what_others_see() {
        // n:    read-only in every body       -> loads at entry, never stored
        // tmp:  assigned before use, body-only -> neither
        // cnt:  `+= 1` reads the thread's previous iteration
        //                                      -> loads at entry, written back
        // last: assigned, and `main` reads it after the loop
        //                                      -> written back; and because
        //       the `continue` path returns without assigning it, loaded
        //       at entry, so that path writes back what was there
        // tot:  stored by the body, plainly    -> stays in memory
        let (prog, flow, rp) = translated(
            "int main() { long n; n = 3; long tmp[2]; long cnt[2]; long last[2]; long tot; tot = 0;
               #pragma candidate l
               for (int i = 0; i < 4; i++) {
                 tmp[__tid()] = i * n;
                 if (tmp[__tid()] > 3) { continue; }
                 cnt[__tid()] += 1;
                 last[__tid()] = tmp[__tid()];
                 tot = tot + 1; }
               return (int)(last[0] + tot); }",
            &["l"],
        );
        let body = prog.funcs.len() as u32;
        let at = |i| local(&prog, "main", i);
        let tid = |off| Place::FrameTid { off, stride: 8 };
        let flags = |place| {
            let p = rp
                .promo
                .get(body, place)
                .unwrap_or_else(|| panic!("{place:?} promoted"));
            (p.entry_load, p.write_back)
        };
        assert_eq!(flags(Place::Frame(at(0))), (true, false), "n");
        assert_eq!(flags(tid(at(1))), (false, false), "tmp");
        assert_eq!(flags(tid(at(2))), (true, true), "cnt");
        assert_eq!(flags(tid(at(3))), (true, true), "last");
        assert!(rp.promo.get(body, Place::Frame(at(4))).is_none(), "tot");
        assert!(rp.promo.places[0].is_empty(), "`main` dispatches the loop");

        // The code says the same: three fills at the entry, and in front
        // of the one `Ret` (`continue` jumps to it) the two write-backs.
        let code = region(&flow, &rp, body);
        let fills = code.iter().take_while(|i| unsited(i)).count();
        assert_eq!(fills, 3, "{code:?}");
        let rets: Vec<usize> = (0..code.len())
            .filter(|&k| matches!(code[k], RInstr::Ret { .. }))
            .collect();
        assert_eq!(rets.len(), 1);
        for base in [at(2), at(3)] {
            assert!(
                code[rets[0] - 2..rets[0]].iter().any(
                    |i| matches!(i, RInstr::StTid { site: NO_SITE, base: b, .. } if *b == base)
                ),
                "{code:?}"
            );
        }
        assert_eq!(code.iter().filter(|i| unsited(i)).count(), 5);
        // A branch back to the entry would skip the fills; the dispatcher
        // enters through them.
        assert!(unsited(
            &rp.code[rp.entry_map[&prog.loops[0].body_entry] as usize]
        ));
    }

    #[test]
    fn a_nested_parallel_loop_spills_before_and_reloads_after() {
        let (prog, flow, rp) = translated(
            "int main() { long a[2]; long b[2]; long out[16];
               #pragma candidate outer
               for (int i = 0; i < 4; i++) {
                 a[__tid()] = i;
                 #pragma candidate inner
                 for (int j = 0; j < 4; j++) { b[__tid()] = j; out[i * 4 + j] = b[__tid()]; }
                 out[i] = out[i] + a[__tid()]; }
               return 0; }",
            &["outer", "inner"],
        );
        let outer = prog.funcs.len() as u32
            + flow
                .body_loops
                .iter()
                .position(|&li| prog.loops[li as usize].label == "outer")
                .expect("outer is outlined") as u32;
        let a = local(&prog, "main", 0);
        assert!(rp
            .promo
            .get(outer, Place::FrameTid { off: a, stride: 8 })
            .is_some());
        let code = region(&flow, &rp, outer);
        let at = code
            .iter()
            .position(|i| matches!(i, RInstr::ParLoop { .. }))
            .expect("nested dispatch");
        assert!(
            matches!(code[at - 1], RInstr::StTid { site: NO_SITE, base, .. } if *base == a),
            "{code:?}"
        );
        assert!(
            matches!(code[at + 1], RInstr::LdTid { site: NO_SITE, base, .. } if *base == a),
            "{code:?}"
        );
    }

    #[test]
    fn tuck_over_a_promoted_address_reads_no_register_for_it() {
        // `a = (b = 5)`: the address of `b` is under the value when `Tuck`
        // runs, and it is in no register.
        let (_, _, rp) = translated(
            "int main() { int a; int b; a = (b = 5); return a + b; }",
            &[],
        );
        assert!(!rp.code.iter().any(|i| matches!(i, RInstr::Tuck { .. })));
        assert!(!rp.code.iter().any(is_memory_op), "{:?}", rp.code);
    }

    #[test]
    fn a_region_with_more_places_than_one_dataflow_word_promotes_them_all() {
        // 70 scalars: the must-written walk runs twice, 64 places at a
        // time. Only `v69` — in the second word — is read before written.
        let decls: String = (0..70).map(|i| format!("long v{i}; ")).collect();
        let sets: String = (0..69).map(|i| format!("v{i} = {i}; ")).collect();
        let sum: String = (0..70).map(|i| format!(" + v{i}")).collect();
        let src = format!("int main() {{ {decls}{sets}v69 = v69 + 1; return (int)(0{sum}); }}");
        let (_, _, rp) = translated(&src, &[]);
        let main = &rp.promo.places[0];
        assert_eq!(main.len(), 70);
        let loaded: Vec<u32> = main
            .iter()
            .filter(|p| p.entry_load)
            .map(|p| p.place.off())
            .collect();
        assert_eq!(loaded, vec![69 * 8]);
    }
}
