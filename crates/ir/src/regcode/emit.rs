//! Emission: the register form of a stack program under a promotion plan.

use super::coalesce::coalesce;
use super::flow::{Place, Slot, StackFlow, Ty};
use super::hoist::stack_loops;
use super::isa::{fold_sext, redirect_dst, RInstr, Reg, RegProgram};
use super::plan::{PromotedPlace, PromotionPlan};
use super::rotate::rotate;
use crate::bytecode::{Builtin, CompiledProgram, IBinOp, Instr, Pc};
use crate::sites::NO_SITE;
use dse_lang::fasthash::HashMap;

/// Emits the register form of `prog` under `plan`: [`super::translate`] with the
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
    // register: at region entry, around a `ParLoop`, before a
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
    let mut entries: Vec<Option<u32>> = vec![None; n];
    for (fi, f) in prog.funcs.iter().enumerate() {
        target[f.entry as usize] = true;
        entries[f.entry as usize] = Some(fi as u32);
    }
    for (bi, &li) in flow.body_loops.iter().enumerate() {
        let entry = prog.loops[li as usize].body_entry as usize;
        target[entry] = true;
        entries[entry] = Some((nf + bi) as u32);
    }

    let mut out: Vec<RInstr> = Vec::with_capacity(n);
    let mut origin: Vec<Pc> = Vec::with_capacity(n);
    // Per emitted instruction: the operand depth live on entry to it (see
    // `coalesce`). The depth of the stack pc it was emitted for, until the
    // branches are patched below.
    let mut live_depth: Vec<Option<u16>> = Vec::with_capacity(n);
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
        let p = a.tid_of.filter(|&p| !flow.unfused_tid.contains(p))?;
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
            live_depth.push(None);
            i += 1;
            continue;
        };
        let d = st.len() as u16;
        let pc = i as Pc;
        let own = owner[i];
        let places: &[PromotedPlace] = plan.places.get(own as usize).map_or(&[], |p| p);
        macro_rules! emit {
            ($ins:expr) => {
                emit!($ins, pc)
            };
            ($ins:expr, $origin:expr) => {{
                out.push($ins);
                origin.push($origin);
                live_depth.push(Some(d));
            }};
        }
        // No branch lands between the last emission and here: a fusion
        // into that instruction stays on one straight line.
        let straight = (last_emit_pc + 1..=i).all(|k| !target[k]);
        // Region entry: fill every place some path reads before writing
        // from its (zeroed, argument-carrying or previous-iteration)
        // memory. Calls and dispatches resolve through `regpc`, so they
        // land here first.
        if let Some(region) = entries[i].and_then(|r| plan.places.get(r as usize)) {
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
                // `base + i * k`, and a load through it when one follows (an
                // `IBin` result has no provenance, so the load is a plain
                // one). Stores stay `AddScaled; Store`: the value they store
                // is computed after the address, over the index register.
                (Some(Instr::IBin(IBinOp::Mul)), Some(Instr::IBin(IBinOp::Add)))
                    if i32::try_from(v).is_ok() =>
                {
                    let (k, b, x) = (v as i32, d - 2, d - 1);
                    match consumable(i + 3).then(|| code[i + 3]) {
                        Some(Instr::Load {
                            width,
                            is_float,
                            site,
                        }) => {
                            // The load's pc, so a trap names the pc the stack
                            // backend names.
                            let at = (i + 3) as Pc;
                            emit!(
                                RInstr::LoadIdx {
                                    d: b,
                                    b,
                                    i: x,
                                    k,
                                    width,
                                    is_float,
                                    site,
                                },
                                at
                            );
                            consumed = 3;
                        }
                        _ => {
                            emit!(RInstr::AddScaled {
                                d: b,
                                l: b,
                                r: x,
                                k
                            });
                            consumed = 2;
                        }
                    }
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
                if !flow.unfused_tid.contains(pc) => {}
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
                        // straight line, write the promoted register
                        // directly.
                        let fused = straight
                            && out
                                .last_mut()
                                .is_some_and(|prev| redirect_dst(prev, d - 1, sreg));
                        if !fused {
                            emit!(RInstr::Mov { d: sreg, s: d - 1 });
                        }
                        // Narrow stores truncate in memory and sign-extend
                        // on reload; keep the register canonical the same
                        // way — inside the producer, when it is an integer
                        // op (a `Mov` never folds).
                        if !is_float
                            && width < 8
                            && !out
                                .last_mut()
                                .is_some_and(|prev| fold_sext(prev, sreg, width))
                        {
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
            // Folded into the integer op that produced the value, when that
            // is the last emission on this straight line.
            Instr::SextTrunc(w) => {
                if !(straight && out.last_mut().is_some_and(|prev| fold_sext(prev, d - 1, w))) {
                    emit!(RInstr::Sext { d: d - 1, w })
                }
            }
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
                // The loop's bodies run in windows on top of this one's
                // registers (on other threads, in their own files) and
                // against the same frame: memory is the truth while it
                // runs.
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
    live_depth.push(None);

    // A branch target is live to the depth of the stack pc the branch
    // names. The code there may have been emitted for a later, deeper pc —
    // a target that emitted nothing, like a promoted place's dead address,
    // passes its register pc on. Branches naming different pcs of one
    // register pc keep the deepest.
    let mut named: Vec<Option<u16>> = vec![None; out.len()];
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
        if !is_call {
            let st = states[stack_t as usize].as_ref();
            let depth = st.expect("the flow reaches every branch target").len() as u16;
            named[rt as usize] = named[rt as usize].max(Some(depth));
        }
    }
    for (live, named) in live_depth.iter_mut().zip(named) {
        if named.is_some() {
            *live = named;
        }
    }

    let max_depth = states.iter().flatten().map(|s| s.len()).max().unwrap_or(0) as u32;
    let win: Vec<u32> = (0..n_owners as u32).map(|o| plan.win(o)).collect();
    let loops = stack_loops(prog, flow);
    let hoisted = coalesce(
        &mut out,
        &mut origin,
        &mut regpc,
        prog,
        &live_depth,
        owner,
        &maxd,
        &win,
        &loops,
        (win.iter().copied().max().unwrap_or(0).max(max_depth) + 4) as usize,
    );
    // Promoted places, then hoisted values, sit above each region's
    // operand-depth registers; the window must cover the deepest
    // combination.
    let max_window = (0..n_owners)
        .map(|o| win[o] + hoisted.regs[o])
        .max()
        .unwrap_or(0)
        .max(max_depth);
    let entry_at: Vec<usize> = (0..n).filter(|&pc| entries[pc].is_some()).collect();
    let entry_pcs: Vec<u32> = entry_at.iter().map(|&e| regpc[e]).collect();
    rotate(&mut out, &mut origin, &mut regpc, &entry_pcs);

    let entry_map: HashMap<Pc, u32> = entry_at.iter().map(|&e| (e as Pc, regpc[e])).collect();
    RegProgram {
        code: out,
        entry_map,
        origin,
        frame_regs: max_window + 4,
        promo: plan,
        hoist: hoisted,
    }
}
