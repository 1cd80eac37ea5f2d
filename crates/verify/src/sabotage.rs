//! Seeded miscompile injection for exercising the backend verifier.
//!
//! Each [`Kind`] applies one small, targeted mutation to an otherwise
//! correct program — the classic translation-validation smoke test: if the
//! checker family cannot catch a *known* miscompile, its proofs are
//! worthless. Every kind maps to exactly one lint code, and the cascade in
//! [`crate::check_backend`] (structural before flow, bounds before
//! dataflow, register checks before translation validation) guarantees the
//! mutation surfaces as that code and no earlier one.
//!
//! Used by the `backend_sabotage` test suite and exposed through the hidden
//! `dsec check --backend --sabotage <kind>` flag so CI's mutation-smoke
//! step can drive it end to end.

use dse_ir::bytecode::{CompiledProgram, Instr};
use dse_ir::regcode::Write;
use dse_ir::sites::NO_SITE;
use dse_ir::{for_each_dst, for_each_src, Place, PromotedPlace, RInstr, RegProgram};

use crate::diag::Code;

/// One seeded miscompile. `expected_code` names the checker that must fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Flip a push into a drop so paths reach a join at different depths.
    StackDepth,
    /// Retarget a stack jump past the end of the code.
    BadJump,
    /// Shrink the declared register window below the highest register used.
    ShrinkWindow,
    /// Declare — and consistently emit — the promotion of a plain slot
    /// that an outlined body stores: every thread would keep its own copy
    /// of a shared variable. The code matches the plan; the plan is wrong.
    PromoteShared,
    /// Remove one write-back in front of an outlined body's `Ret`: the
    /// replica's memory keeps a stale value someone can look at.
    DropWriteback,
    /// Swap the operands of an integer binop.
    SwapReg,
    /// Double the stride of a fused tid access, so thread 1 lands on
    /// thread 2's replica.
    TidStride,
    /// Drop a promoted narrow store's sign-extension: a `Sext` becomes a
    /// no-op move, an `IBinSext`/`IBinImmSext` its plain op.
    SkipSext,
    /// Declare — and consistently emit — the hoist of an instruction whose
    /// operand the loop writes: every trip would reuse the value computed
    /// before the first. The code matches the plan; the plan is wrong.
    HoistVariant,
}

/// All kinds, in lint-code order — the CI mutation-smoke step iterates this.
pub const ALL: [Kind; 9] = [
    Kind::StackDepth,
    Kind::BadJump,
    Kind::ShrinkWindow,
    Kind::PromoteShared,
    Kind::DropWriteback,
    Kind::SwapReg,
    Kind::TidStride,
    Kind::SkipSext,
    Kind::HoistVariant,
];

impl Kind {
    /// The command-line spelling (`--sabotage <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::StackDepth => "stack-depth",
            Kind::BadJump => "bad-jump",
            Kind::ShrinkWindow => "shrink-window",
            Kind::PromoteShared => "promote-shared",
            Kind::DropWriteback => "drop-writeback",
            Kind::SwapReg => "swap-reg",
            Kind::TidStride => "tid-stride",
            Kind::SkipSext => "skip-sext",
            Kind::HoistVariant => "hoist-variant",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    /// The one lint code this mutation must surface as.
    pub fn expected_code(self) -> Code {
        match self {
            Kind::StackDepth => Code::StackDiscipline,
            Kind::BadJump => Code::StackBounds,
            Kind::ShrinkWindow => Code::RegWindowBounds,
            Kind::PromoteShared
            | Kind::DropWriteback
            | Kind::SwapReg
            | Kind::TidStride
            | Kind::HoistVariant => Code::TranslationDivergence,
            Kind::SkipSext => Code::TranslationPrecision,
        }
    }

    /// True when the mutation applies to the stack program (before
    /// translation) rather than the register translation.
    pub fn is_stack(self) -> bool {
        matches!(self, Kind::StackDepth | Kind::BadJump)
    }
}

/// Applies a stack-side mutation in place. Returns `false` when the program
/// offers no site for this kind (e.g. no jump to retarget).
pub fn sabotage_stack(prog: &mut CompiledProgram, kind: Kind) -> bool {
    let n = prog.code.len() as u32;
    match kind {
        Kind::StackDepth => {
            // Net +1 becomes net -1: some join or terminator sees the skew.
            for ins in prog.code.iter_mut() {
                if matches!(ins, Instr::PushI(_)) {
                    *ins = Instr::Drop;
                    return true;
                }
            }
            false
        }
        Kind::BadJump => {
            for ins in prog.code.iter_mut() {
                match ins {
                    Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => {
                        *t = n + 16;
                        return true;
                    }
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

/// Applies a register-side mutation in place. Returns `false` when the
/// translation offers no site for this kind (e.g. no promoted narrow store
/// to break). `prog` is the stack program the translation came from (needed
/// to enumerate call-argument source registers).
pub fn sabotage_reg(prog: &CompiledProgram, rp: &mut RegProgram, kind: Kind) -> bool {
    match kind {
        Kind::ShrinkWindow => {
            // frame_regs carries slack above the deepest live register, so
            // a naive -1 would go unnoticed; clamp to the highest register
            // any instruction actually touches.
            let mut max_used: Option<u16> = None;
            for ins in &rp.code {
                let mut note = |r: u16| max_used = Some(max_used.map_or(r, |m| m.max(r)));
                for_each_dst(ins, &mut note);
                for_each_src(ins, prog, &mut note);
            }
            match max_used {
                Some(m) => {
                    rp.frame_regs = m as u32;
                    true
                }
                None => false,
            }
        }
        Kind::PromoteShared => {
            let Ok(flow) = dse_ir::analyze_stack(prog) else {
                return false;
            };
            let mut plan = rp.promo.clone();
            let nf = prog.funcs.len() as u32;
            let mut sites: Vec<(u32, Place, u8, bool)> = flow
                .accesses
                .iter()
                .filter(|(&(owner, place), a)| {
                    owner >= nf
                        && a.stored
                        && matches!(place, Place::Frame(_))
                        && plan.get(owner, place).is_none()
                })
                .filter_map(|(&(owner, place), a)| {
                    let (w, isf) = a.shape?;
                    Some((owner, place, w, isf))
                })
                .collect();
            sites.sort_unstable();
            let Some(&(owner, place, width, is_float)) = sites.first() else {
                return false;
            };
            let places = &mut plan.places[owner as usize];
            let at = places.partition_point(|p| p.place < place);
            places.insert(
                at,
                PromotedPlace {
                    place,
                    reg: 0,
                    width,
                    is_float,
                    entry_load: true,
                    write_back: true,
                },
            );
            for (idx, p) in places.iter_mut().enumerate() {
                p.reg = (plan.maxd[owner as usize] as usize + idx) as u16;
            }
            *rp = dse_ir::regcode::translate_with(prog, &flow, plan);
            true
        }
        Kind::DropWriteback => {
            // A write-back is the unsited tid store in front of a `Ret`
            // (possibly behind the others of its region); a self-move of
            // its source reads only what the store read.
            for pc in 0..rp.code.len() {
                if let RInstr::StTid {
                    v, site: NO_SITE, ..
                } = rp.code[pc]
                {
                    let rest = &rp.code[pc + 1..];
                    let to_ret = rest
                        .iter()
                        .position(|i| !matches!(i, RInstr::StTid { site: NO_SITE, .. }));
                    if matches!(to_ret.map(|k| &rest[k]), Some(RInstr::Ret { .. })) {
                        rp.code[pc] = RInstr::Mov { d: v, s: v };
                        return true;
                    }
                }
            }
            false
        }
        Kind::SwapReg => {
            for ins in rp.code.iter_mut() {
                if let RInstr::IBin { l, r, .. } = ins {
                    if l != r {
                        std::mem::swap(l, r);
                        return true;
                    }
                }
            }
            false
        }
        Kind::TidStride => {
            // A sited access: one the program makes, of a replica left in
            // memory (the unsited ones are the translator's own fills and
            // write-backs, whose shape DSE013 already pins to the plan).
            for ins in rp.code.iter_mut() {
                if let RInstr::LdTid { stride, site, .. } | RInstr::StTid { stride, site, .. } = ins
                {
                    if *site != NO_SITE {
                        *stride = stride.wrapping_mul(2);
                        return true;
                    }
                }
            }
            false
        }
        Kind::SkipSext => {
            // Only the extensions canonicalizing a promoted narrow store
            // feed the DSE015 path; collect the promoted registers first
            // and break the first extension aimed at one of them — a `Sext`
            // becomes a no-op move, one folded into its integer op the
            // plain op.
            let sregs: Vec<u16> = rp.promo.places.iter().flatten().map(|p| p.reg).collect();
            for ins in rp.code.iter_mut() {
                let plain = match *ins {
                    RInstr::Sext { d, w } if w < 8 && sregs.contains(&d) => RInstr::Mov { d, s: d },
                    RInstr::IBinSext { op, d, l, r, w } if w < 8 && sregs.contains(&d) => {
                        RInstr::IBin { op, d, l, r }
                    }
                    RInstr::IBinImmSext { op, d, l, imm, w } if w < 8 && sregs.contains(&d) => {
                        RInstr::IBinImm { op, d, l, imm }
                    }
                    _ => continue,
                };
                *ins = plain;
                return true;
            }
            false
        }
        Kind::HoistVariant => hoist_variant(prog, rp),
        _ => false,
    }
}

/// [`Kind::HoistVariant`]: in the last loop of its region anything was
/// hoisted out of, the first instruction hoisting allows that computes an
/// operand register from a promoted register the loop writes gets the
/// region's next hoisted register, computed in the pre-header, and becomes
/// a copy of it.
fn hoist_variant(prog: &CompiledProgram, rp: &mut RegProgram) -> bool {
    let loops = &rp.hoist.loops;
    let site = (0..loops.len()).rev().find_map(|i| {
        let l = &loops[i];
        if loops[i + 1..].iter().any(|m| m.owner == l.owner) {
            return None;
        }
        let (lo, hi) = (reg_lo(rp, l.header), reg_lo(rp, l.end));
        let maxd = rp.promo.maxd[l.owner as usize] as u16;
        let mut written: Vec<u16> = Vec::new();
        for ins in &rp.code[lo..hi] {
            for_each_dst(ins, &mut |r| written.push(r));
        }
        (lo..hi).find_map(|j| {
            let mut ins = rp.code[j];
            if !dse_ir::regcode::invariant_op(&ins) || matches!(ins, RInstr::Mov { .. }) {
                return None;
            }
            let ops = ins.operands_mut();
            let variant = ops
                .srcs
                .into_iter()
                .flatten()
                .any(|s| *s >= maxd && written.contains(s));
            match ops.dst {
                Some((Write::Free { .. }, d)) if *d < maxd && variant => Some((i, j, *d)),
                _ => None,
            }
        })
    });
    let (Some((i, j, d)), Ok(flow)) = (site, dse_ir::analyze_stack(prog)) else {
        return false;
    };
    let (owner, header) = (rp.hoist.loops[i].owner, rp.hoist.loops[i].header);
    let h = rp.win(owner) as u16;
    let mut hoisted = rp.code[j];
    if let Some((_, r)) = hoisted.operands_mut().dst {
        *r = h;
    }
    rp.code[j] = RInstr::Mov { d, s: h };
    // The pre-header's last instruction, in front of the header: branches
    // to the header and everything after it move up by one.
    let at = reg_lo(rp, header);
    for ins in &mut rp.code {
        if let Some(t) = ins.jump_target_mut() {
            if *t as usize >= at {
                *t += 1;
            }
        }
    }
    for e in rp.entry_map.values_mut() {
        if *e as usize >= at {
            *e += 1;
        }
    }
    rp.code.insert(at, hoisted);
    rp.origin.insert(at, header - 1);
    rp.hoist.loops[i].code.push(hoisted);
    rp.hoist.regs[owner as usize] += 1;
    // The region's callee windows start above the new register.
    for (pc, ins) in rp.code.iter_mut().enumerate() {
        if let RInstr::Call { win, .. } = ins {
            if flow.owner.get(rp.origin[pc] as usize) == Some(&owner) {
                *win += 1;
            }
        }
    }
    rp.frame_regs = rp.frame_regs.max(h as u32 + 1);
    true
}

/// The first register pc translated from stack pc `pc` or later.
fn reg_lo(rp: &RegProgram, pc: u32) -> usize {
    rp.origin.partition_point(|&o| o < pc)
}
