//! DSE010/DSE011 — static verification of the stack bytecode.
//!
//! The register translator ([`dse_ir::regcode`]) emits under the
//! *constant-depth discipline*: every reachable pc has one statically known
//! operand-stack depth and type vector, jumps land inside the code, and
//! direct frame accesses stay inside the owning function's declared frame.
//! This pass proves those assumptions independently, so a violation is a
//! lint finding (`dsec check --backend`) instead of a translation panic or
//! a silent miscompile:
//!
//! * **DSE011 (structural)** — jump targets, call indices, and loop ids are
//!   range-checked before any dataflow runs, so the flow itself cannot walk
//!   out of bounds.
//! * **DSE010 (discipline)** — the constant-depth/type dataflow of
//!   [`dse_ir::analyze_stack`] is re-run; any join mismatch, underflow, or
//!   ill-typed operand it reports becomes a finding.
//! * **DSE011 (frame bounds)** — every direct frame access observed by the
//!   flow (`offset`, widest width) must lie inside `frame_size` of the
//!   function owning the region.

use dse_ir::bytecode::{CompiledProgram, Instr};
use dse_ir::{analyze_stack, StackFlow};

use crate::diag::{Code, Diagnostic, Report};

/// Runs the structural pre-pass and, when it is clean, the depth dataflow
/// and the frame-bounds check. Returns the converged flow when no error was
/// added, for the register checks downstream to rely on.
pub fn check(prog: &CompiledProgram, report: &mut Report) -> Option<StackFlow> {
    let before = report.count(crate::diag::Severity::Error);
    structural(prog, report);
    if report.count(crate::diag::Severity::Error) > before {
        // The dataflow assumes in-bounds control flow; do not run it over
        // code the structural pass already rejected.
        return None;
    }
    let flow = match analyze_stack(prog) {
        Ok(flow) => flow,
        Err(e) => {
            report.push(Diagnostic::new(
                Code::StackDiscipline,
                format!("stack pc {}: {}", e.pc, e.msg),
            ));
            return None;
        }
    };
    let mut bad: Vec<((u32, u32), u8)> = Vec::new();
    for (&(owner, place), shape) in &flow.accesses {
        let Some(f) = flow.owner_func(prog, owner) else {
            continue;
        };
        // A replica is checked where thread 0's lies; the frame's
        // owner sized it for the others.
        let off = place.off();
        let end = off as u64 + shape.max_width as u64;
        if end > f.frame_size as u64 {
            bad.push(((owner, off), shape.max_width));
        }
    }
    bad.sort_unstable();
    bad.dedup();
    for ((owner, off), width) in bad {
        let f = flow.owner_func(prog, owner).expect("checked above");
        report.push(Diagnostic::new(
            Code::StackBounds,
            format!(
                "direct frame access at offset {off} (width {width}) in {} \
                 exceeds the declared frame of {} bytes",
                flow.owner_name(prog, owner),
                f.frame_size
            ),
        ));
    }
    (report.count(crate::diag::Severity::Error) == before).then_some(flow)
}

/// Range-checks every positional reference in the instruction stream and
/// the function/loop tables.
fn structural(prog: &CompiledProgram, report: &mut Report) {
    let n = prog.code.len();
    for (fi, f) in prog.funcs.iter().enumerate() {
        if f.entry as usize >= n {
            report.push(Diagnostic::new(
                Code::StackBounds,
                format!(
                    "function `{}` (index {fi}) enters at pc {} past the end of code ({n})",
                    f.name, f.entry
                ),
            ));
        }
    }
    for (li, l) in prog.loops.iter().enumerate() {
        if l.mode.is_some() && l.body_entry as usize >= n {
            report.push(Diagnostic::new(
                Code::StackBounds,
                format!(
                    "loop `{}` (index {li}) body enters at pc {} past the end of code ({n})",
                    l.label, l.body_entry
                ),
            ));
        }
        if l.func as usize >= prog.funcs.len() {
            report.push(Diagnostic::new(
                Code::StackBounds,
                format!(
                    "loop `{}` (index {li}) names function {} of {}",
                    l.label,
                    l.func,
                    prog.funcs.len()
                ),
            ));
        }
    }
    for (pc, ins) in prog.code.iter().enumerate() {
        match *ins {
            Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) if t as usize >= n => {
                report.push(Diagnostic::new(
                    Code::StackBounds,
                    format!("stack pc {pc}: jump to pc {t} past the end of code ({n})"),
                ));
            }
            Instr::Call(fi) if fi as usize >= prog.funcs.len() => {
                report.push(Diagnostic::new(
                    Code::StackBounds,
                    format!(
                        "stack pc {pc}: call to function {fi} of {}",
                        prog.funcs.len()
                    ),
                ));
            }
            Instr::ParLoop(id) if prog.loops.get(id as usize).is_none_or(|l| l.mode.is_none()) => {
                report.push(Diagnostic::new(
                    Code::StackBounds,
                    format!("stack pc {pc}: ParLoop names loop {id} with no parallel body"),
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_ir::bytecode::{FuncInfo, RetKind};

    fn prog(frame_size: u32, code: Vec<Instr>) -> CompiledProgram {
        CompiledProgram {
            code,
            funcs: vec![FuncInfo {
                name: "main".into(),
                entry: 0,
                frame_size,
                params: vec![],
                locals: vec![],
                ret: RetKind::Scalar,
                ret_float: false,
            }],
            ..Default::default()
        }
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let p = prog(0, vec![Instr::PushI(1), Instr::Ret]);
        let mut r = Report::default();
        assert!(check(&p, &mut r).is_some());
        assert!(r.diagnostics.is_empty(), "{:?}", codes(&r));
    }

    #[test]
    fn depth_mismatch_is_dse010() {
        let p = prog(
            0,
            vec![
                Instr::PushI(1),
                Instr::JumpIfZ(4),
                Instr::PushI(7),
                Instr::Jump(4),
                Instr::Halt,
            ],
        );
        let mut r = Report::default();
        assert!(check(&p, &mut r).is_none());
        assert_eq!(codes(&r), vec![Code::StackDiscipline]);
    }

    #[test]
    fn out_of_bounds_jump_is_dse011_and_skips_flow() {
        let p = prog(0, vec![Instr::Jump(99)]);
        let mut r = Report::default();
        assert!(check(&p, &mut r).is_none());
        assert_eq!(codes(&r), vec![Code::StackBounds]);
    }

    #[test]
    fn frame_access_past_declared_frame_is_dse011() {
        let p = prog(
            4,
            vec![
                Instr::FrameAddr(0),
                Instr::Load {
                    width: 8, // reads bytes 0..8 of a 4-byte frame
                    is_float: false,
                    site: 1,
                },
                Instr::Ret,
            ],
        );
        let mut r = Report::default();
        assert!(check(&p, &mut r).is_none());
        assert_eq!(codes(&r), vec![Code::StackBounds]);
    }

    #[test]
    fn missing_callee_is_dse011() {
        let p = prog(0, vec![Instr::Call(3), Instr::Halt]);
        let mut r = Report::default();
        assert!(check(&p, &mut r).is_none());
        assert!(codes(&r).contains(&Code::StackBounds));
    }
}
