//! Block-local register coalescing over the emitted code, with
//! loop-invariant hoisting between its two passes.

use super::flow::NO_OWNER;
use super::hoist::{hoist, HoistPlan, StackLoop};
use super::isa::{for_each_dst, for_each_src, pure_dst, rewrite_srcs, RInstr, Reg};
use crate::bytecode::{CompiledProgram, Pc};

/// Block-local register coalescing over the emitted code: forward copy
/// propagation (facts from `Mov`, cleared at run boundaries, after every
/// branch and across region-clobbering instructions — so within one basic
/// block, which is as far as the translation validator follows them)
/// then [`hoist`] out of `loops` (whose pre-header code is laid out in
/// front of each loop's header), followed by a backward dead-write sweep
/// that deletes pure writes whose destination is overwritten — or falls
/// above the live operand depth of every outgoing edge — before any read.
/// Deleted instructions are compacted out ([`relayout`]); all jump targets,
/// the pc→pc maps and the entry registry are remapped.
///
/// Exit liveness is exact because the translation keeps the stack-depth
/// invariant: entering register pc `t`, registers `>= live_depth[t]` hold
/// popped temporaries, except a region's promoted places, which stay live
/// — across calls too, whose windows start above them — until the region
/// returns. Hoisted registers, above the promoted places, live as long.
/// The emitter sets `live_depth` from the stack pc each branch
/// names, and elsewhere from the stack pc the instruction was emitted for
/// (`None`: unknown, everything live). `win` is where each region's
/// promoted places end.
#[allow(clippy::too_many_arguments)]
pub(super) fn coalesce(
    out: &mut Vec<RInstr>,
    origin: &mut Vec<Pc>,
    regpc: &mut [u32],
    prog: &CompiledProgram,
    live_depth: &[Option<u16>],
    owner: &[u32],
    maxd: &[usize],
    win: &[u32],
    loops: &[StackLoop],
    regs_cap: usize,
) -> HoistPlan {
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
    let entries: Vec<usize> = (prog.funcs.iter().map(|f| f.entry))
        .chain(
            prog.loops
                .iter()
                .filter(|l| l.mode.is_some())
                .map(|l| l.body_entry),
        )
        .map(|e| regpc[e as usize] as usize)
        .collect();
    for &e in &entries {
        rt_target[e] = true;
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
    let depth_at = |t: usize| live_depth.get(t).copied().flatten().map(usize::from);

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

    let plan = hoist(
        out, &keep, &rt_target, regpc, &entries, own_of, loops, maxd, win,
    );
    let n_promoted: Vec<usize> = (0..win.len())
        .map(|o| win[o] as usize - maxd[o] + plan.regs[o] as usize)
        .collect();
    let regs_cap = regs_cap + plan.regs.iter().max().copied().unwrap_or(0) as usize;

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

    // Each pre-header stands for the index before its header, so branches
    // to the header (the back-edges) land past it; its origin is the
    // stack pc before the header's, in the pre-header's block.
    let mut at: Vec<(usize, &[RInstr], Pc)> = (plan.loops.iter())
        .map(|l| (regpc[l.header as usize] as usize, &l.code[..], l.header - 1))
        .collect();
    at.sort_by_key(|&(h, ..)| h);
    let mut pre = at.into_iter().peekable();
    let mut kept = Vec::with_capacity(len);
    for j in 0..len {
        while let Some((_, code, o)) = pre.next_if(|&(h, ..)| h == j) {
            kept.extend(code.iter().map(|&ins| (j - 1, ins, o)));
        }
        if keep[j] {
            kept.push((j, out[j], origin[j]));
        }
    }
    relayout(out, origin, regpc, kept);
    plan
}

/// Lays the code out anew as `next`: `(pc, instruction, origin)` in order,
/// `pc` the instruction of the current code the entry stands for, jump
/// targets still naming current pcs. A current pc resolves to its first
/// entry — or, when it has none (deleted), to the next pc's — and every
/// jump target and `regpc` entry is remapped through that.
pub(super) fn relayout(
    out: &mut Vec<RInstr>,
    origin: &mut Vec<Pc>,
    regpc: &mut [u32],
    next: Vec<(usize, RInstr, Pc)>,
) {
    let mut new_idx = vec![next.len() as u32; out.len() + 1];
    let mut resolved = 0usize;
    for (k, &(pc, _, _)) in next.iter().enumerate() {
        for idx in &mut new_idx[resolved..=pc] {
            *idx = k as u32;
        }
        resolved = pc + 1;
    }
    out.clear();
    origin.clear();
    for (_, mut ins, o) in next {
        if let Some(t) = ins.jump_target_mut() {
            *t = new_idx[*t as usize];
        }
        out.push(ins);
        origin.push(o);
    }
    for p in regpc.iter_mut() {
        if *p != u32::MAX {
            *p = new_idx[*p as usize];
        }
    }
}
