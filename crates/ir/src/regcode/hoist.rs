//! Loop-invariant hoisting over the copy-propagated code: register
//! arithmetic a loop recomputes on every trip from values it never
//! changes is computed once, on the loop's entry edge.

use super::flow::{StackFlow, NO_OWNER};
use super::isa::{for_each_dst, rewrite_srcs, Control, RInstr, Reg, Write};
use crate::bytecode::{CompiledProgram, IBinOp, Instr, Pc};

/// Why a loop of the stack code is no candidate for hoisting
/// ([`stack_loops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Control reaches the loop other than by falling into its header from
    /// the instruction before it, which must be no branch: there is no
    /// single entry edge to compute anything on.
    Entered,
    /// The loop dispatches a parallel loop, whose bodies run in windows
    /// that start below the hoisted registers.
    Parallel,
    /// The region shares code with another region.
    SharedCode,
}

/// A loop of the stack code: stack pcs `[header, end)` of one region,
/// `header` the pc its back-edges branch to and `end` one past the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackLoop {
    /// The region.
    pub owner: u32,
    /// The pc every back-edge branches to.
    pub header: Pc,
    /// One past the loop's last pc.
    pub end: Pc,
    /// Why nothing may be hoisted out of it, if so.
    pub refused: Option<Refusal>,
}

/// Every loop of the stack code, sorted by header and, for one header,
/// outermost first: one per pc some branch jumps back to, spanning from
/// there to its last back-edge. A loop is hoistable (`refused` is `None`)
/// when all its pcs belong to one region that shares no code, the pc
/// before its header is reachable in that region and falls into it, no
/// branch from outside lands inside it, no region starts inside it, and
/// it dispatches no parallel loop. Linear in the code and the loops' sizes.
pub fn stack_loops(prog: &CompiledProgram, flow: &StackFlow) -> Vec<StackLoop> {
    let code = &prog.code;
    let n = code.len();
    // Per pc: the lowest and highest branch landing on it — a region entry
    // is landed on from everywhere — and the end of the loop it heads.
    let mut from = vec![(u32::MAX, 0u32); n + 1];
    let mut end = vec![0u32; n + 1];
    for (pc, ins) in code.iter().enumerate() {
        let (Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t)) = *ins else {
            continue;
        };
        let t = t as usize;
        if flow.states[pc].is_none() || t > n {
            continue;
        }
        from[t] = (from[t].0.min(pc as u32), from[t].1.max(pc as u32));
        if t <= pc {
            end[t] = end[t].max(pc as u32 + 1);
        }
    }
    let entries = (prog.funcs.iter().map(|f| f.entry))
        .chain((flow.body_loops.iter()).map(|&li| prog.loops[li as usize].body_entry));
    for e in entries {
        from[e as usize] = (0, u32::MAX);
    }
    let mut loops = Vec::new();
    for header in 0..n {
        let e = end[header] as usize;
        if e == 0 {
            continue;
        }
        let own = flow.owner[header];
        let refused = if flow.no_promote.get(own as usize) != Some(&false) {
            Some(Refusal::SharedCode)
        } else {
            let before = header.checked_sub(1).filter(|&p| {
                flow.states[p].is_some()
                    && flow.owner[p] == own
                    && !matches!(
                        code[p],
                        Instr::Jump(_)
                            | Instr::JumpIfZ(_)
                            | Instr::JumpIfNZ(_)
                            | Instr::Ret
                            | Instr::Halt
                    )
            });
            let inside = |pc: usize| flow.states[pc].is_none() || flow.owner[pc] == own;
            let closed = |pc: usize| {
                let (lo, hi) = from[pc];
                inside(pc) && (lo == u32::MAX || (lo as usize >= header && (hi as usize) < e))
            };
            if before.is_none() || !(header..e).all(closed) {
                Some(Refusal::Entered)
            } else if code[header..e]
                .iter()
                .any(|i| matches!(i, Instr::ParLoop(_)))
            {
                Some(Refusal::Parallel)
            } else {
                None
            }
        };
        loops.push(StackLoop {
            owner: own,
            header: header as Pc,
            end: e as Pc,
            refused,
        });
    }
    loops
}

/// One loop's hoisted values: its pre-header code, which computes each
/// into a register of its own, right before the header on the entry edge.
#[derive(Debug, Clone, PartialEq)]
pub struct HoistedLoop {
    /// The loop ([`StackLoop`], hoistable).
    pub owner: u32,
    /// The loop's header (stack pc).
    pub header: Pc,
    /// One past the loop's last stack pc.
    pub end: Pc,
    /// The pre-header code, in order: each instruction writes a hoisted
    /// register of the loop from promoted registers the loop never writes,
    /// registers hoisted out of an enclosing loop, or this loop's earlier
    /// ones. It may neither trap nor touch memory nor form a tid address
    /// ([`invariant_op`]).
    pub code: Vec<RInstr>,
}

impl HoistedLoop {
    /// The hoisted registers the code writes, ascending.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let mut last = None;
        self.code.iter().filter_map(move |ins| {
            let mut d = None;
            for_each_dst(ins, &mut |r| d = Some(r));
            let d = d.filter(|&d| last != Some(d))?;
            last = Some(d);
            Some(d)
        })
    }
}

/// The hoisting decisions of one translation, recorded on the
/// [`super::RegProgram`] so the verifier can check the code against them
/// and them against the loops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoistPlan {
    /// Per region: how many hoisted registers it keeps, from
    /// [`super::PromotionPlan::win`] up.
    pub regs: Vec<u32>,
    /// The loops anything was hoisted out of, sorted by header, outer
    /// before inner.
    pub loops: Vec<HoistedLoop>,
}

impl HoistPlan {
    /// Hoisted registers of region `owner`.
    pub fn regs(&self, owner: u32) -> u32 {
        self.regs.get(owner as usize).copied().unwrap_or(0)
    }
}

/// Register arithmetic that may run where its loop does not, or more often
/// than it would: a pure register write that cannot trap, touches no
/// memory and forms no tid address. `Div`/`Rem` can trap, loads read
/// memory a loop may change, and every tid address formed counts one
/// private access.
pub fn invariant_op(ins: &RInstr) -> bool {
    let traps = |op: IBinOp| matches!(op, IBinOp::Div | IBinOp::Rem);
    match *ins {
        RInstr::IBin { op, .. }
        | RInstr::IBinImm { op, .. }
        | RInstr::IBinSext { op, .. }
        | RInstr::IBinImmSext { op, .. } => !traps(op),
        RInstr::LdcI { .. }
        | RInstr::LdcF { .. }
        | RInstr::Mov { .. }
        | RInstr::FrameAddr { .. }
        | RInstr::GlobalAddr { .. }
        | RInstr::AddScaled { .. }
        | RInstr::FBin { .. }
        | RInstr::ICmp { .. }
        | RInstr::ICmpImm { .. }
        | RInstr::FCmp { .. }
        | RInstr::Sext { .. }
        | RInstr::I2F { .. }
        | RInstr::INeg { .. }
        | RInstr::FNeg { .. }
        | RInstr::BNot { .. }
        | RInstr::LNot { .. }
        | RInstr::Fabs { .. }
        | RInstr::Fsqrt { .. } => true,
        _ => false,
    }
}

/// The register of an instruction's one written register and whether it
/// is written in place.
fn dst(ins: &mut RInstr) -> Option<(&mut Reg, bool)> {
    match ins.operands_mut().dst {
        Some((Write::Free { .. }, d)) => Some((d, false)),
        Some((Write::InPlace, d)) => Some((d, true)),
        _ => None,
    }
}

/// Hoists out of every loop of `loops` (hoistable, outer before inner)
/// the instructions of `out` (emitted indices; `keep` false for deleted
/// ones) that [`invariant_op`] allows and whose operands are registers the
/// loop never writes: promoted places (`maxd[o]..win[o]`) or values
/// hoisted before. A value invariant in an enclosing loop leaves that one.
///
/// Each value gets the region's next register from `win[o]` up. Its
/// instruction in the loop becomes a copy of that register into its
/// operand register, and the reads of the operand register that follow on
/// the same straight line — where the verifier follows them — read the
/// hoisted register instead, so the coalescer's dead-write sweep deletes
/// the copy wherever nothing else read it. `rt_target` marks where control
/// lands; `regpc` maps stack pcs to emitted indices; `entries` are the
/// indices calls and iteration dispatches enter at. A region's calls get
/// their callee windows moved above its hoisted registers.
#[allow(clippy::too_many_arguments)]
pub(super) fn hoist(
    out: &mut [RInstr],
    keep: &[bool],
    rt_target: &[bool],
    regpc: &[u32],
    entries: &[usize],
    owner: impl Fn(usize) -> u32,
    loops: &[StackLoop],
    maxd: &[usize],
    win: &[u32],
) -> HoistPlan {
    let len = out.len();
    let mut plan = HoistPlan {
        regs: vec![0; win.len()],
        loops: Vec::new(),
    };
    if loops.iter().all(|l| l.refused.is_some()) {
        return plan;
    }
    // Per emitted index: the lowest and highest instruction landing on
    // it; a call or a region entry lands from everywhere.
    let mut from = vec![(u32::MAX, 0u32); len + 1];
    for (j, ins) in out.iter().enumerate() {
        if let Some(t) = ins.jump_target() {
            let (lo, hi) = &mut from[t as usize];
            match ins {
                RInstr::Call { .. } => (*lo, *hi) = (0, u32::MAX),
                _ => (*lo, *hi) = ((*lo).min(j as u32), (*hi).max(j as u32)),
            }
        }
    }
    for &e in entries {
        from[e] = (0, u32::MAX);
    }
    // `written[r] == stamp`: the loop at hand writes `r`.
    let mut written = vec![0u32; win.iter().map(|&w| w as usize).max().unwrap_or(0)];
    let cap = maxd.iter().copied().max().unwrap_or(0);
    // Per operand register: the invariant register it holds a copy of.
    let mut inv: Vec<Option<Reg>> = vec![None; cap];
    let mut held: Vec<Reg> = Vec::new();
    let clear = |inv: &mut Vec<Option<Reg>>, held: &mut Vec<Reg>| {
        for r in held.drain(..) {
            inv[r as usize] = None;
        }
    };
    for (stamp, l) in loops.iter().filter(|l| l.refused.is_none()).enumerate() {
        let stamp = stamp as u32 + 1;
        let o = l.owner as usize;
        let (h, eh) = (
            regpc[l.header as usize] as usize,
            regpc[l.end as usize] as usize,
        );
        let landed_from_outside = |k: usize| {
            let (lo, hi) = from[k];
            lo != u32::MAX && ((lo as usize) < h || hi as usize >= eh)
        };
        if h == 0 || h >= eh || (h..eh).any(|k| landed_from_outside(k) || owner(k) != l.owner) {
            continue;
        }
        for j in (h..eh).filter(|&j| keep[j]) {
            for_each_dst(&out[j], &mut |r| {
                if let Some(w) = written.get_mut(r as usize) {
                    *w = stamp;
                }
            });
        }
        let md = maxd[o];
        let invariant = |r: Reg| r as usize >= md && written.get(r as usize) != Some(&stamp);
        let first = plan.regs[o];
        let mut code: Vec<RInstr> = Vec::new();
        for j in h..eh {
            if rt_target[j] {
                clear(&mut inv, &mut held);
            }
            if !keep[j] {
                continue;
            }
            let ins = &mut out[j];
            rewrite_srcs(ins, |r| inv.get(r as usize).copied().flatten().unwrap_or(r));
            let mut next = *ins;
            let (d, in_place) = match dst(&mut next) {
                Some((d, in_place)) if (*d as usize) < md && invariant_op(ins) => (*d, in_place),
                _ => {
                    for_each_dst(ins, &mut |r| {
                        if let Some(c) = inv.get_mut(r as usize) {
                            *c = None;
                        }
                    });
                    let mut probe = *ins;
                    if !matches!(probe.operands_mut().control, Control::Next) {
                        clear(&mut inv, &mut held);
                    }
                    continue;
                }
            };
            let mut probe = *ins;
            let srcs_invariant =
                (probe.operands_mut().srcs.into_iter().flatten()).all(|s| invariant(*s));
            let from = inv[d as usize].filter(|_| in_place);
            let source = if let RInstr::Mov { s, .. } = *ins {
                // A copy of an invariant register: its reads follow the
                // original, nothing is computed.
                invariant(s).then_some(s)
            } else if (in_place && from.is_none()) || (!in_place && !srcs_invariant) {
                None
            } else {
                // In place, over a copy of the invariant value it reads.
                let hreg = (win[o] + plan.regs[o]) as Reg;
                plan.regs[o] += 1;
                if let Some(s) = from {
                    code.push(RInstr::Mov { d: hreg, s });
                }
                if let Some((r, _)) = dst(&mut next) {
                    *r = hreg;
                }
                code.push(next);
                *ins = RInstr::Mov { d, s: hreg };
                Some(hreg)
            };
            inv[d as usize] = source;
            held.extend(source.map(|_| d));
        }
        clear(&mut inv, &mut held);
        if plan.regs[o] > first {
            plan.loops.push(HoistedLoop {
                owner: l.owner,
                header: l.header,
                end: l.end,
                code,
            });
        }
    }
    for (j, ins) in out.iter_mut().enumerate() {
        if let RInstr::Call { win: w, .. } = ins {
            let o = owner(j);
            if o != NO_OWNER {
                *w += plan.regs[o as usize] as Reg;
            }
        }
    }
    plan
}
