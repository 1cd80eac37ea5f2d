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
//!   undefined. Calls clobber every register at or above their window base
//!   (the callee window overlaps), parallel regions clobber at or above
//!   the body window base, and builtins — which run inline — define only
//!   their result register. On top of the dataflow, the *spill pairing*
//!   structure is checked: each call site inside a region with promoted
//!   scalars must be immediately preceded by the region's full spill
//!   sequence and followed by its full reload sequence, and each function
//!   prologue must load every promoted slot, exactly as
//!   [`dse_ir::PromotionPlan::spills`] declares.

use dse_ir::bytecode::{CompiledProgram, RetKind};
use dse_ir::sites::NO_SITE;
use dse_ir::{for_each_dst, for_each_src, RInstr, RegProgram, StackFlow, NO_OWNER};

use crate::diag::{Code, Diagnostic, Report, Severity};

/// Runs the window-bounds pass and, when it is clean, the def-before-use
/// dataflow plus the spill-pairing structure check. Returns `true` when no
/// error was added.
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
    spill_pairing(prog, rp, flow, report);
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
    match *ins {
        RInstr::Jump { t } => out.push(t as usize),
        RInstr::Ret { .. } | RInstr::Halt { .. } | RInstr::Unreachable => {}
        // A call transfers to the callee entry, but the *window's* dataflow
        // resumes at the return point; the callee is its own seeded entry.
        RInstr::Call { .. } => out.push(pc + 1),
        // Conditional branches add their taken edge to the fallthrough.
        _ => {
            out.extend(ins.jump_target().map(|t| t as usize));
            out.push(pc + 1);
        }
    }
}

/// Applies an instruction's define/clobber behavior to a must-defined set.
fn transfer(ins: &RInstr, prog: &CompiledProgram, set: &mut Defined) {
    match *ins {
        RInstr::Call { fi, abase, .. } => {
            set.clear_from(abase);
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

/// Checks the spill/reload sequences around calls and the prologue loads
/// at function entries against the promotion plan's declared spill lists.
fn spill_pairing(prog: &CompiledProgram, rp: &RegProgram, flow: &StackFlow, report: &mut Report) {
    let spill_at = |pc: usize, k: usize| -> Option<&RInstr> { rp.code.get(pc.checked_sub(k)?) };
    for (pc, ins) in rp.code.iter().enumerate() {
        let RInstr::Call { .. } = ins else { continue };
        let owner = flow
            .owner
            .get(rp.origin_pc(pc) as usize)
            .copied()
            .unwrap_or(NO_OWNER);
        let Some(spills) = rp.promo.spills.get(owner as usize) else {
            continue;
        };
        let m = spills.len();
        for (k, &(sreg, off, width, is_float)) in spills.iter().enumerate() {
            let stored = matches!(
                spill_at(pc, m - k),
                Some(&RInstr::StFrame {
                    off: o,
                    width: w,
                    is_float: f,
                    site: NO_SITE,
                    ..
                }) if o == off && w == width && f == is_float
            );
            if !stored {
                report.push(Diagnostic::new(
                    Code::RegDefUse,
                    format!(
                        "call at reg pc {pc} (stack pc {}) is missing the spill of \
                         promoted slot r{sreg} (frame offset {off}) declared by the \
                         promotion plan",
                        rp.origin_pc(pc)
                    ),
                ));
            }
            let reloaded = matches!(
                rp.code.get(pc + 1 + k),
                Some(&RInstr::LdFrame {
                    d,
                    off: o,
                    width: w,
                    is_float: f,
                    site: NO_SITE,
                }) if d == sreg && o == off && w == width && f == is_float
            );
            if !reloaded {
                report.push(Diagnostic::new(
                    Code::RegDefUse,
                    format!(
                        "call at reg pc {pc} (stack pc {}) is missing the reload of \
                         promoted slot r{sreg} (frame offset {off}) declared by the \
                         promotion plan",
                        rp.origin_pc(pc)
                    ),
                ));
            }
        }
    }
    for (fi, f) in prog.funcs.iter().enumerate() {
        let Some(spills) = rp.promo.spills.get(fi) else {
            continue;
        };
        let Some(&entry) = rp.entry_map.get(&f.entry) else {
            continue;
        };
        for (k, &(sreg, off, width, is_float)) in spills.iter().enumerate() {
            let loaded = matches!(
                rp.code.get(entry as usize + k),
                Some(&RInstr::LdFrame {
                    d,
                    off: o,
                    width: w,
                    is_float: fl,
                    site: NO_SITE,
                }) if d == sreg && o == off && w == width && fl == is_float
            );
            if !loaded {
                report.push(Diagnostic::new(
                    Code::RegDefUse,
                    format!(
                        "prologue of `{}` is missing the load of promoted slot r{sreg} \
                         (frame offset {off}) declared by the promotion plan",
                        f.name
                    ),
                ));
            }
        }
    }
}
