//! The constant-depth/type/provenance dataflow over the stack program: the
//! invariant base the translator emits under ([`analyze_stack`]).

use super::RegLowerError;
use crate::bytecode::{CompiledProgram, FuncInfo, Instr, Pc, RetKind};
use crate::sites::NO_SITE;
use std::collections::{HashMap, HashSet};

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
    /// shares code with another region.
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
    /// [`super::RInstr::LdTid`]/[`super::RInstr::StTid`] for the consumer, so the access
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
/// This is the queryable form of the invariant [`super::translate`] builds on:
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
