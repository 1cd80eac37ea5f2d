//! DSE012/DSE013 — static verification of the register bytecode.
//!
//! Two properties of a [`dse_ir::RegProgram`] are proven here, matching
//! what the register VM silently assumes:
//!
//! * **DSE012 (window bounds)** — every register an instruction reads or
//!   writes lies below the declared window size (`frame_regs`), and every
//!   control transfer (jump, fused branch, call target, entry-map entry)
//!   lands inside the register code.
//! * **DSE013 (def-before-use)** — a forward *must-defined* dataflow over
//!   the register CFG, seeded empty at every entry (function entries and
//!   outlined parallel-body entries: the calling convention passes
//!   arguments through frame memory, never through live-in registers),
//!   proves no instruction reads a register that some path leaves
//!   undefined — in particular a promoted place's register, which only a
//!   store or the region's entry load defines. Calls clobber every
//!   register from their window base `win` up (and nothing below it: the
//!   callee window starts above the caller's promoted places), parallel
//!   regions clobber at or above the body window base, and builtins —
//!   which run inline — define only their result register. On top of the
//!   dataflow, two structures are checked against the promotion plan:
//!   every call's `win` is the first register above its region's operands
//!   and promoted places, and every region entry starts with exactly the
//!   entry loads [`dse_ir::PromotionPlan::places`] declares.

use dse_ir::bytecode::{CompiledProgram, RetKind};
use dse_ir::regcode::Control;
use dse_ir::sites::NO_SITE;
use dse_ir::{for_each_dst, for_each_src, Place, RInstr, RegProgram, StackFlow, NO_OWNER};

use crate::diag::{Code, Diagnostic, Report, Severity};

/// Runs the window-bounds pass and, when it is clean, the def-before-use
/// dataflow plus the window and entry-load structure checks. Returns `true`
/// when no error was added.
pub fn check(
    prog: &CompiledProgram,
    rp: &RegProgram,
    flow: &StackFlow,
    report: &mut Report,
) -> bool {
    let before = report.count(Severity::Error);
    bounds(prog, rp, report);
    if report.count(Severity::Error) > before {
        // The dataflow dereferences call targets and function indices; do
        // not run it over code the bounds pass already rejected.
        return false;
    }
    def_before_use(prog, rp, report);
    call_windows(rp, flow, report);
    entry_loads(prog, rp, flow, report);
    report.count(Severity::Error) == before
}

fn bounds(prog: &CompiledProgram, rp: &RegProgram, report: &mut Report) {
    let n = rp.code.len();
    let regs = rp.frame_regs;
    for (pc, ins) in rp.code.iter().enumerate() {
        let origin = rp.origin_pc(pc);
        let mut worst: Option<u16> = None;
        for_each_dst(ins, &mut |r| {
            if r as u32 >= regs {
                worst = Some(worst.map_or(r, |w| w.max(r)));
            }
        });
        if let RInstr::Call { fi, .. } = *ins {
            if fi as usize >= prog.funcs.len() {
                report.push(Diagnostic::new(
                    Code::RegWindowBounds,
                    format!(
                        "reg pc {pc} (stack pc {origin}): call to function {fi} of {}",
                        prog.funcs.len()
                    ),
                ));
                continue; // for_each_src would index the missing function
            }
        }
        for_each_src(ins, prog, &mut |r| {
            if r as u32 >= regs {
                worst = Some(worst.map_or(r, |w| w.max(r)));
            }
        });
        if let Some(r) = worst {
            report.push(Diagnostic::new(
                Code::RegWindowBounds,
                format!(
                    "reg pc {pc} (stack pc {origin}): register r{r} outside the \
                     declared window of {regs}"
                ),
            ));
        }
        if let Some(t) = ins.jump_target() {
            if t as usize >= n {
                report.push(Diagnostic::new(
                    Code::RegWindowBounds,
                    format!("reg pc {pc} (stack pc {origin}): jump to reg pc {t} of {n}"),
                ));
            }
        }
    }
    for (&stack_pc, &t) in &rp.entry_map {
        if t as usize >= n {
            report.push(Diagnostic::new(
                Code::RegWindowBounds,
                format!("entry for stack pc {stack_pc} maps to reg pc {t} of {n}"),
            ));
        }
    }
}

/// Dense bitset over the register window.
#[derive(Clone, PartialEq)]
struct Defined(Vec<u64>);

impl Defined {
    fn empty(regs: u32) -> Defined {
        Defined(vec![0; (regs as usize).div_ceil(64)])
    }
    fn has(&self, r: u16) -> bool {
        self.0[r as usize / 64] >> (r as usize % 64) & 1 != 0
    }
    fn set(&mut self, r: u16) {
        self.0[r as usize / 64] |= 1 << (r as usize % 64);
    }
    fn clear_from(&mut self, base: u16) {
        for r in base as usize..self.0.len() * 64 {
            self.0[r / 64] &= !(1u64 << (r % 64));
        }
    }
    /// Intersects, returning `true` when anything changed.
    fn meet(&mut self, other: &Defined) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

fn successors(ins: &RInstr, pc: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut ins = *ins;
    match ins.operands_mut().control {
        Control::Jump(t) => out.push(*t as usize),
        Control::End => {}
        // A call transfers to the callee entry, but the *window's* dataflow
        // resumes at the return point; the callee is its own seeded entry.
        Control::Next | Control::Call(_) => out.push(pc + 1),
        Control::Branch(t) => out.extend([*t as usize, pc + 1]),
    }
}

/// Applies an instruction's define/clobber behavior to a must-defined set.
fn transfer(ins: &RInstr, prog: &CompiledProgram, set: &mut Defined) {
    match *ins {
        RInstr::Call { fi, abase, win, .. } => {
            set.clear_from(win);
            if prog.func(fi).ret == RetKind::Scalar {
                set.set(abase);
            }
        }
        RInstr::CallBuiltin { b, abase, .. } => {
            if b.has_result() {
                set.set(abase);
            }
        }
        RInstr::ParLoop { lo, .. } => set.clear_from(lo),
        _ => for_each_dst(ins, &mut |r| set.set(r)),
    }
}

fn def_before_use(prog: &CompiledProgram, rp: &RegProgram, report: &mut Report) {
    let n = rp.code.len();
    let mut state: Vec<Option<Defined>> = vec![None; n];
    let mut work: Vec<usize> = Vec::new();
    for &e in rp.entry_map.values() {
        // Joins intersect, so seeding an entry twice stays empty.
        if state[e as usize].is_none() {
            state[e as usize] = Some(Defined::empty(rp.frame_regs));
            work.push(e as usize);
        }
    }
    let mut succ: Vec<usize> = Vec::new();
    while let Some(pc) = work.pop() {
        let mut set = state[pc].clone().expect("on worklist implies visited");
        transfer(&rp.code[pc], prog, &mut set);
        successors(&rp.code[pc], pc, &mut succ);
        for &s in &succ {
            if s >= n {
                continue; // bounds pass already reported it
            }
            match &mut state[s] {
                slot @ None => {
                    *slot = Some(set.clone());
                    work.push(s);
                }
                Some(existing) => {
                    if existing.meet(&set) {
                        work.push(s);
                    }
                }
            }
        }
    }
    for (pc, ins) in rp.code.iter().enumerate() {
        let Some(set) = &state[pc] else { continue };
        let mut undef: Vec<u16> = Vec::new();
        for_each_src(ins, prog, &mut |r| {
            if !set.has(r) && !undef.contains(&r) {
                undef.push(r);
            }
        });
        for r in undef {
            report.push(Diagnostic::new(
                Code::RegDefUse,
                format!(
                    "reg pc {pc} (stack pc {}): r{r} is read but not defined on \
                     every path from the region entry",
                    rp.origin_pc(pc)
                ),
            ));
        }
    }
}

/// Every call must place its callee's window exactly above the registers
/// of the region it is in, as the promotion plan sizes them: lower would
/// let the callee overwrite a promoted place, and nothing spills them.
fn call_windows(rp: &RegProgram, flow: &StackFlow, report: &mut Report) {
    for (pc, ins) in rp.code.iter().enumerate() {
        let RInstr::Call { win, .. } = *ins else {
            continue;
        };
        let origin = rp.origin_pc(pc);
        let owner = flow.owner.get(origin as usize).copied().unwrap_or(NO_OWNER);
        let want = rp.promo.win(owner);
        if owner != NO_OWNER && win as u32 != want {
            report.push(Diagnostic::new(
                Code::RegDefUse,
                format!(
                    "call at reg pc {pc} (stack pc {origin}) places the callee window at \
                     r{win}, but the promotion plan ends the region's registers at r{want}"
                ),
            ));
        }
    }
}

/// Every region entry — function or outlined body — must begin with the
/// load of each promoted place the plan says some path reads before
/// writing, in plan order.
fn entry_loads(prog: &CompiledProgram, rp: &RegProgram, flow: &StackFlow, report: &mut Report) {
    let nf = prog.funcs.len();
    for (owner, places) in rp.promo.places.iter().enumerate() {
        let stack_entry = match owner.checked_sub(nf) {
            None => prog.funcs.get(owner).map(|f| f.entry),
            Some(bi) => flow
                .body_loops
                .get(bi)
                .and_then(|&li| prog.loops.get(li as usize))
                .map(|l| l.body_entry),
        };
        let Some(&entry) = stack_entry.and_then(|e| rp.entry_map.get(&e)) else {
            continue;
        };
        for (k, p) in places.iter().filter(|p| p.entry_load).enumerate() {
            let loaded = match (rp.code.get(entry as usize + k), p.place) {
                (
                    Some(&RInstr::LdFrame {
                        d,
                        off,
                        width,
                        is_float,
                        site: NO_SITE,
                    }),
                    Place::Frame(o),
                ) => (d, off, width, is_float) == (p.reg, o, p.width, p.is_float),
                (
                    Some(&RInstr::LdTid {
                        d,
                        frame: true,
                        base,
                        stride,
                        width,
                        is_float,
                        site: NO_SITE,
                    }),
                    Place::FrameTid { off, stride: s },
                ) => (d, base, stride, width, is_float) == (p.reg, off, s, p.width, p.is_float),
                _ => false,
            };
            if !loaded {
                report.push(Diagnostic::new(
                    Code::RegDefUse,
                    format!(
                        "entry of {} is missing the load of promoted place r{} ({:?}) \
                         declared by the promotion plan",
                        flow.owner_name(prog, owner as u32),
                        p.reg,
                        p.place
                    ),
                ));
            }
        }
    }
}
