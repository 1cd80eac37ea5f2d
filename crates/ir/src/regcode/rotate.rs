//! Loop rotation over the coalesced code: one branch per loop trip.

use super::coalesce::relayout;
use super::isa::{pure_dst, RInstr};
use crate::bytecode::{IBinOp, Pc};

/// Rotates every back-edge `Jump h` whose header at `h` is a conditional
/// branch to the instruction right after the `Jump` — or one instruction
/// that cannot trap followed by such a branch — into that header: the
/// back-edge becomes a copy of the header's first instruction, if it has
/// two, and the branch with its polarity inverted, jumping into the body
/// and falling through to the loop exit. What replaces the `Jump` keeps
/// its origin, so `origin` stays nondecreasing, and none of it can trap.
///
/// A rotated `JumpICmpImm`/`JumpICmp` testing the register that the
/// instruction before it increments in place (`IBinImm`/`IBinImmSext`
/// `Add` by an `i32`) folds that increment in
/// ([`RInstr::IncJumpICmpImm`]/[`RInstr::IncJumpICmp`], with the
/// increment's origin), unless control can land on the branch itself.
/// `entries` are the register pcs calls and iteration dispatches enter at.
pub(super) fn rotate(
    out: &mut Vec<RInstr>,
    origin: &mut Vec<Pc>,
    regpc: &mut [u32],
    entries: &[u32],
) {
    // Pcs a branch, call or iteration dispatch lands on. (A call's return
    // point follows the call, which is no increment to fold.)
    let mut landed = vec![false; out.len()];
    for t in out
        .iter()
        .filter_map(RInstr::jump_target)
        .chain(entries.iter().copied())
    {
        landed[t as usize] = true;
    }
    let mut next: Vec<(usize, RInstr, Pc)> = Vec::with_capacity(out.len());
    for (j, (&ins, &o)) in out.iter().zip(origin.iter()).enumerate() {
        let RInstr::Jump { t } = ins else {
            next.push((j, ins, o));
            continue;
        };
        let (h, exit) = (t as usize, j as u32 + 1);
        if let Some(test) = invert(&out[h], exit, h as u32 + 1) {
            let fused = match next.last_mut() {
                Some((_, inc, _)) if !landed[j] => fold_increment(inc, &test),
                _ => false,
            };
            if !fused {
                next.push((j, test, o));
            }
        } else if let Some(test) = out
            .get(h + 1)
            .filter(|_| copyable(&out[h]))
            .and_then(|b| invert(b, exit, h as u32 + 2))
        {
            next.push((j, out[h], o));
            next.push((j, test, o));
        } else {
            next.push((j, ins, o));
        }
    }
    relayout(out, origin, regpc, next);
}

/// A conditional branch to `exit`, inverted to branch to `body` instead.
fn invert(ins: &RInstr, exit: u32, body: u32) -> Option<RInstr> {
    let mut test = match *ins {
        RInstr::JumpIfZ { s, t } => RInstr::JumpIfNZ { s, t },
        RInstr::JumpIfNZ { s, t } => RInstr::JumpIfZ { s, t },
        RInstr::JumpICmp { .. } | RInstr::JumpICmpImm { .. } | RInstr::JumpFCmp { .. } => *ins,
        _ => return None,
    };
    if let RInstr::JumpICmp { on_true, .. }
    | RInstr::JumpICmpImm { on_true, .. }
    | RInstr::JumpFCmp { on_true, .. } = &mut test
    {
        *on_true = !*on_true;
    }
    let t = test.jump_target_mut().expect("a branch");
    if *t != exit {
        return None;
    }
    *t = body;
    Some(test)
}

/// Folds the in-place increment `inc` into the rotated `test` of its
/// register, in place.
fn fold_increment(inc: &mut RInstr, test: &RInstr) -> bool {
    let (d, imm, w) = match *inc {
        RInstr::IBinImm {
            op: IBinOp::Add,
            d,
            l,
            imm,
        } if d == l => (d, imm, 8),
        RInstr::IBinImmSext {
            op: IBinOp::Add,
            d,
            l,
            imm,
            w,
        } if d == l => (d, imm, w),
        _ => return false,
    };
    let Ok(step) = i32::try_from(imm) else {
        return false;
    };
    *inc = match *test {
        RInstr::JumpICmpImm {
            op,
            l,
            imm,
            t,
            on_true,
        } if l == d => RInstr::IncJumpICmpImm {
            d,
            step,
            w,
            op,
            imm,
            t,
            on_true,
        },
        RInstr::JumpICmp {
            op,
            l,
            r,
            t,
            on_true,
        } if l == d => RInstr::IncJumpICmp {
            d,
            step,
            w,
            op,
            r,
            t,
            on_true,
        },
        _ => return false,
    };
    true
}

/// A register write that cannot trap and has no other effect, which a
/// header may lend its back-edge: no load, division, call or counted
/// address.
fn copyable(ins: &RInstr) -> bool {
    match *ins {
        RInstr::IBin { op, .. }
        | RInstr::IBinImm { op, .. }
        | RInstr::IBinSext { op, .. }
        | RInstr::IBinImmSext { op, .. } => !matches!(op, IBinOp::Div | IBinOp::Rem),
        RInstr::ICmp { .. } | RInstr::ICmpImm { .. } | RInstr::FCmp { .. } => true,
        _ => pure_dst(ins).is_some(),
    }
}
