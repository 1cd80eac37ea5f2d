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
//! `JumpICmpImm`), address+load (`FrameAddr;Load` → `LdFrame`), array
//! indexing (`PushI(k);IBin(Mul);IBin(Add)` → `AddScaled`, and with the
//! `Load` that follows → `LoadIdx`, whose origin is the `Load`'s pc) and
//! sign-extending arithmetic (an `IBin`/`IBinImm` followed on a straight
//! line by the `Sext` of its result — a cast's `SextTrunc`, or a promoted
//! narrow store's canonicalization — → `IBinSext`/`IBinImmSext`). Fusion
//! only happens when the consumed instruction is not a jump target or
//! region entry, so every branch still lands on a translated pc. Stores
//! stay `AddScaled;Store`: their value is computed after the address, and
//! the one-pass emitter has reused the index register by then.
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
//! * **Function regions** promote plain places.
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
//! region of the function touches its object; a `ParLoop` is a full
//! spill-before/reload-after point for the region that dispatches it,
//! function or body. Everything else — above all a
//! temporary declared in the body and assigned before use — never touches
//! memory.
//!
//! **Coalescing**: a block-local pass propagates `Mov` copies
//! forward into operand positions and deletes pure register writes whose
//! destination is provably dead — overwritten before any read, or above
//! the live operand depth of every outgoing edge (exact, thanks to the
//! constant-depth invariant; a branch's edge is live to the depth of the
//! stack pc it names, which may be shallower than the pc whose code it
//! lands on). Together with a store-into-producer
//! redirect at emission, hot loop bodies over promoted scalars compile to
//! register-only arithmetic with no shuffle traffic.
//!
//! **Hoisting**: between the coalescer's copy propagation and its
//! dead-write sweep, register arithmetic a loop recomputes on every trip
//! from registers it never writes — promoted places, constants, frame and
//! global addresses, values hoisted before — is computed once, in a
//! register of its own above the region's promoted places, right before
//! the loop's header on its one entry edge ([`stack_loops`] says which
//! loops have one; [`invariant_op`] which instructions may move: nothing
//! that traps, loads or forms a tid address). A value invariant in an
//! enclosing loop leaves that one too. In the loop the instruction becomes
//! a copy, its reads on the same straight line read the hoisted register,
//! and the sweep deletes the copy nothing else reads. Callee windows start
//! above the hoisted registers ([`RegProgram::win`]); the decisions are
//! recorded on [`RegProgram::hoist`] for `dse-verify` to prove.
//!
//! **Rotation**: a last pass makes every loop trip branch once. A
//! back-edge `Jump` to a header that is a conditional branch to the
//! instruction after the `Jump` — alone, or behind one instruction that
//! cannot trap, which the back-edge copies — becomes that branch inverted,
//! jumping into the body and falling through to the exit; an in-place
//! `i += k` right before a rotated integer compare of `i` folds into it
//! (`IncJumpICmpImm`/`IncJumpICmp`), unless a branch lands between them.
//! What it writes keeps the `Jump`'s or the increment's origin, and none
//! of it can trap.
//!
//! **Layout.** The translator is its phases, one module each: `isa` (the
//! instruction set, [`RegProgram`], and [`RInstr::operands_mut`] — the one
//! table of every variant's register operands and control transfer, which
//! [`for_each_dst`], [`for_each_src`], [`pure_dst`], the coalescer's
//! renaming and `dse-verify`'s register checks derive from), `flow`
//! ([`analyze_stack`]), `plan` ([`promotion_plan`] and the report of what
//! stays in memory and why), `emit` ([`translate_with`]), `coalesce`,
//! `hoist` (which `coalesce` runs between its passes: [`stack_loops`],
//! [`HoistPlan`]) and `rotate`, the three sharing one relayout of the
//! code. [`translate`] below is their composition.
//!
//! Site ids, loop marks, and builtin call pcs are preserved verbatim
//! (each register instruction remembers the stack pc it came from in
//! [`RegProgram::origin`]), so the dependence profiler, the opcode
//! profiler, and trap reporting see the same program points under either
//! backend.

mod coalesce;
mod emit;
mod flow;
mod hoist;
mod isa;
mod plan;
mod rotate;

pub use emit::translate_with;
pub use flow::{analyze_stack, AccessShape, PcSet, Place, Slot, StackFlow, Ty, NO_OWNER};
pub use hoist::{invariant_op, stack_loops, HoistPlan, HoistedLoop, Refusal, StackLoop};
pub use isa::{
    for_each_dst, for_each_src, pure_dst, Arity, Control, Operands, RInstr, Reg, RegLowerError,
    RegProgram, Write,
};
pub use plan::{
    access_near, global_replicas, promotion_plan, promotion_report, Kept, PromotedPlace,
    PromotionPlan, Why,
};

use crate::bytecode::CompiledProgram;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Builtin, CmpOp, FuncInfo, IBinOp, Instr, RetKind};
    use crate::sites::NO_SITE;

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
                | RInstr::LoadIdx { .. }
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
        let spec = ParLoopSpec {
            mode: crate::loops::ParMode::DoAll,
            sync_window: None,
        };
        let cands = crate::loops::find_candidate_loops(&ast).expect("candidates");
        opts.par = cands
            .iter()
            .map(|c| par.contains(&c.label.as_str()).then(|| spec.clone()))
            .collect();
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
        // `main` dispatches the loop and promotes like any function: what
        // it touches of `n`, `last` (replica 0, plainly) and `tot`, and `i`.
        let main: Vec<Place> = rp.promo.places[0].iter().map(|p| p.place).collect();
        assert_eq!(main, [at(0), at(3), at(4), at(5)].map(Place::Frame));

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
    fn a_function_spills_what_it_stored_before_a_parallel_loop_and_reloads_after() {
        // n:   assigned by `main`, read by the bodies  -> spilled, reloaded
        // lim: a parameter `main` only reads           -> loads at entry,
        //      never spilled (memory still has it), reloaded
        // tot: assigned by `main`, stored by the bodies -> spilled, and the
        //      reload is how `main` sees what they left
        let (prog, flow, rp) = translated(
            "int f(long lim) { long n; n = lim + 1; long tot; tot = 0; long out[4];
               #pragma candidate l
               for (int i = 0; i < 4; i++) { out[i] = i * n; tot = tot + 1; }
               return (int)(tot + n + lim); }
             int main() { return f(2); }",
            &["l"],
        );
        let f = prog.func_by_name("f").expect("f");
        let frame = |i: usize| Place::Frame(prog.func(f).locals[i].0);
        let (lim, n, tot, i) = (frame(0), frame(1), frame(2), frame(4));
        let places = &rp.promo.places[f as usize];
        let promoted: Vec<Place> = places.iter().map(|p| p.place).collect();
        assert_eq!(promoted, [lim, n, tot, i]);
        let loaded: Vec<Place> = places
            .iter()
            .filter(|p| p.entry_load)
            .map(|p| p.place)
            .collect();
        assert_eq!(loaded, [lim]);

        let code = region(&flow, &rp, f);
        let at = code
            .iter()
            .position(|i| matches!(i, RInstr::ParLoop { .. }))
            .expect("dispatch");
        let off = |i: &&RInstr| match **i {
            RInstr::StFrame { off, site, .. } | RInstr::LdFrame { off, site, .. }
                if site == NO_SITE =>
            {
                Some(Place::Frame(off))
            }
            _ => None,
        };
        let spilled: Vec<Place> = code[..at].iter().rev().map_while(off).collect();
        assert_eq!(spilled, [i, tot, n], "{code:?}");
        let reloaded: Vec<Place> = code[at + 1..].iter().map_while(off).collect();
        assert_eq!(reloaded, [lim, n, tot, i], "{code:?}");
        // The entry load, three spills, four reloads: nothing else of `f`
        // touches memory.
        assert_eq!(code.iter().filter(|i| is_memory_op(i)).count(), 8);
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

    /// The register of main's `k`-th declared local, which must be promoted.
    fn main_reg(prog: &CompiledProgram, rp: &RegProgram, k: usize) -> Reg {
        let place = Place::Frame(local(prog, "main", k));
        rp.promo.get(0, place).expect("promoted").reg
    }

    #[test]
    fn an_indexed_load_over_a_promoted_index_is_one_instruction() {
        let (prog, _, rp) = translated(
            "int main() { long a[4]; int i; long x;
               for (i = 0; i < 4; i++) { a[i] = i; }
               i = 3; x = a[i]; return (int)x; }",
            &[],
        );
        let i = main_reg(&prog, &rp, 1);
        let loads: Vec<&RInstr> = rp.code.iter().filter(|c| is_memory_op(c)).collect();
        assert!(
            matches!(loads[..], [RInstr::Store { .. }, RInstr::LoadIdx { i: r, k: 8, width: 8, .. }] if *r == i),
            "{:?}",
            rp.code
        );
    }

    #[test]
    fn an_increment_of_a_promoted_int_is_one_instruction() {
        let (prog, _, rp) = translated("int main() { int i; i = 0; i++; return i; }", &[]);
        let i = main_reg(&prog, &rp, 0);
        let inc = RInstr::IBinImmSext {
            op: IBinOp::Add,
            d: i,
            l: i,
            imm: 1,
            w: 4,
        };
        assert!(rp.code.contains(&inc), "{:?}", rp.code);
        // `i = 0` still canonicalizes its constant with a `Sext`; `i++` has
        // neither a plain add nor one of its own.
        let n = |f: fn(&RInstr) -> bool| rp.code.iter().filter(|c| f(c)).count();
        assert_eq!(n(|c| matches!(c, RInstr::IBinImm { .. })), 0);
        assert_eq!(n(|c| matches!(c, RInstr::Sext { .. })), 1);
    }

    /// `*(4096 + 2 * k)` with the scale `k`, and optionally a branch that
    /// lands on the `IBin(Add)` inside the pattern (both edges carry
    /// `[base, index]`).
    fn indexed_load(k: i64, branch_into: bool) -> Vec<RInstr> {
        let load = Instr::Load {
            width: 8,
            is_float: false,
            site: 1,
        };
        let mut code = vec![Instr::GlobalAddr(4096), Instr::PushI(2)];
        if branch_into {
            code.extend([Instr::PushI(0), Instr::JumpIfZ(6)]);
        }
        code.extend([
            Instr::PushI(k),
            Instr::IBin(IBinOp::Mul),
            Instr::IBin(IBinOp::Add),
            load,
            Instr::Ret,
        ]);
        translate(&one_func(code)).expect("translates").code
    }

    fn fused(code: &[RInstr]) -> usize {
        code.iter()
            .filter(|c| matches!(c, RInstr::LoadIdx { .. } | RInstr::AddScaled { .. }))
            .count()
    }

    #[test]
    fn an_indexed_load_does_not_fuse_across_a_branch_target() {
        let straight = indexed_load(8, false);
        assert!(
            straight
                .iter()
                .any(|c| matches!(c, RInstr::LoadIdx { k: 8, site: 1, .. })),
            "{straight:?}"
        );
        let joined = indexed_load(8, true);
        assert_eq!(fused(&joined), 0, "{joined:?}");
        assert!(joined.iter().any(|c| matches!(c, RInstr::Load { .. })));
    }

    #[test]
    fn an_indexed_load_does_not_fuse_a_scale_wider_than_i32() {
        let wide = 1i64 << 40;
        let code = indexed_load(wide, false);
        assert_eq!(fused(&code), 0, "{code:?}");
        assert!(code
            .iter()
            .any(|c| matches!(c, RInstr::IBinImm { op: IBinOp::Mul, imm, .. } if *imm == wide)));
        assert_eq!(fused(&indexed_load(i32::MIN.into(), false)), 1);
    }

    #[test]
    fn an_indexed_store_keeps_its_address_in_a_register() {
        let (_, _, rp) = translated(
            "int main() { long a[4]; int i; i = 2; a[i] = 7; return 0; }",
            &[],
        );
        let addr = rp
            .code
            .iter()
            .find_map(|c| match *c {
                RInstr::AddScaled { d, k: 8, .. } => Some(d),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{:?}", rp.code));
        assert!(
            rp.code
                .iter()
                .any(|c| matches!(c, RInstr::Store { a, .. } if *a == addr)),
            "{:?}",
            rp.code
        );
        assert!(!rp.code.iter().any(|c| matches!(c, RInstr::LoadIdx { .. })));
    }

    #[test]
    fn a_counted_loop_header_over_a_promoted_int_has_no_move() {
        // The exit's first statement starts with `s`'s dead address, which
        // emits nothing: the exit's code comes from the next pc, one slot
        // deeper. Liveness at the exit is the depth of the pc the branch
        // names, so the header's copy of `i` into the operand register dies:
        // the entry test is one instruction, after the `Sext` of `i = 0`,
        // and the back-edge folds `i++` into its rotated copy.
        let (_, _, rp) = translated(
            "int main() { long s; s = 0;
               for (int i = 0; i < 10; i++) { s = s + i; }
               s = s * 2; return (int)s; }",
            &[],
        );
        let (back, body) = back_edge(&rp.code);
        assert!(
            matches!(
                rp.code[body - 1],
                RInstr::JumpICmpImm { on_true: false, .. }
            ) && matches!(rp.code[body - 2], RInstr::Sext { .. }),
            "{:?}",
            rp.code
        );
        assert!(
            !rp.code[body - 1..=back]
                .iter()
                .any(|c| matches!(c, RInstr::Mov { .. })),
            "{:?}",
            rp.code
        );
    }

    /// The one fused back-edge of `code` and the body pc it branches to.
    fn back_edge(code: &[RInstr]) -> (usize, usize) {
        let edges: Vec<(usize, usize)> = (0..code.len())
            .filter_map(|pc| match code[pc] {
                RInstr::IncJumpICmpImm { t, .. } | RInstr::IncJumpICmp { t, .. } => {
                    Some((pc, t as usize))
                }
                _ => None,
            })
            .collect();
        match edges[..] {
            [edge] => edge,
            _ => panic!("one fused back-edge: {code:?}"),
        }
    }

    fn count(code: &[RInstr], f: fn(&RInstr) -> bool) -> usize {
        code.iter().filter(|c| f(c)).count()
    }

    #[test]
    fn a_counted_loop_over_a_promoted_int_branches_once_per_trip() {
        for bound in ["8", "n"] {
            let (prog, _, rp) = translated(
                &format!(
                    "int main() {{ long a[8]; int n; n = 8;
                       for (int i = 0; i < {bound}; i++) {{ a[i] = i; }}
                       return (int)a[7]; }}"
                ),
                &[],
            );
            let (n, i) = (main_reg(&prog, &rp, 1), main_reg(&prog, &rp, 2));
            let (back, body) = back_edge(&rp.code);
            let fused = match rp.code[back] {
                RInstr::IncJumpICmpImm {
                    d,
                    step: 1,
                    w: 4,
                    op: CmpOp::Lt,
                    imm: 8,
                    on_true: true,
                    ..
                } => d == i && bound == "8",
                RInstr::IncJumpICmp {
                    d,
                    step: 1,
                    w: 4,
                    op: CmpOp::Lt,
                    r,
                    on_true: true,
                    ..
                } => d == i && r == n && bound == "n",
                _ => false,
            };
            assert!(fused, "{bound}: {:?}", rp.code);
            let lp = &rp.code[body..=back];
            let jumps = count(lp, |c| matches!(c, RInstr::Jump { .. }));
            assert_eq!(jumps, 0, "{bound}: {lp:?}");
            let incs = count(&rp.code, |c| matches!(c, RInstr::IBinImmSext { .. }));
            assert_eq!(incs, 0, "{bound}: {:?}", rp.code);
            // The entry test is still there, once, exiting past the loop.
            assert_eq!(rp.code[body - 1].jump_target(), Some(back as u32 + 1));
        }
    }

    #[test]
    fn a_long_counter_folds_without_an_extension() {
        let (prog, _, rp) = translated(
            "int main() { long s; s = 0;
               for (long i = 0; i < 10; i += 3) { s = s + i; }
               return (int)s; }",
            &[],
        );
        let i = main_reg(&prog, &rp, 1);
        let (back, _) = back_edge(&rp.code);
        assert!(
            matches!(rp.code[back], RInstr::IncJumpICmpImm { d, step: 3, w: 8, imm: 10, .. } if d == i),
            "{:?}",
            rp.code
        );
    }

    #[test]
    fn a_truth_test_rotates_through_its_inverted_branch() {
        // `p != 0` is a compare with an immediate; `p` alone is `JumpIfZ`.
        // Neither decrement folds (only increments do), and neither loop
        // keeps a `Jump`.
        type Shape = fn(&RInstr) -> bool;
        let shapes: [(&str, Shape); 2] = [
            ("p != 0", |c| {
                matches!(
                    c,
                    RInstr::JumpICmpImm {
                        op: CmpOp::Ne,
                        imm: 0,
                        on_true: true,
                        ..
                    }
                )
            }),
            ("p", |c| matches!(c, RInstr::JumpIfNZ { .. })),
        ];
        for (cond, rotated) in shapes {
            let (_, _, rp) = translated(
                &format!(
                    "int main() {{ long p; long s; p = 5; s = 0;
                       while ({cond}) {{ s = s + p; p = p - 1; }}
                       return (int)s; }}"
                ),
                &[],
            );
            let back = rp
                .code
                .iter()
                .rposition(rotated)
                .expect("a rotated back-edge");
            let body = rp.code[back].jump_target().expect("a branch") as usize;
            assert!(body < back, "{cond}: {:?}", rp.code);
            assert_eq!(
                rp.code[body - 1].jump_target(),
                Some(back as u32 + 1),
                "{cond}"
            );
            assert_eq!(
                count(&rp.code, |c| matches!(c, RInstr::Jump { .. })),
                0,
                "{cond}"
            );
            assert!(matches!(
                rp.code[back - 1],
                RInstr::IBinImm {
                    op: IBinOp::Sub,
                    ..
                }
            ));
        }
    }

    #[test]
    fn an_increment_a_branch_lands_behind_does_not_fold() {
        // The `if` without `else` falls to the back-edge when `s <= 3`:
        // folding `i++` into it would increment on that path too.
        let (prog, _, rp) = translated(
            "int main() { long s; int i; s = 0; i = 0;
               while (i < 10) { s = s + 1; if (s > 3) { i++; } }
               return (int)s; }",
            &[],
        );
        let i = main_reg(&prog, &rp, 1);
        assert_eq!(
            count(&rp.code, |c| matches!(c, RInstr::IncJumpICmpImm { .. })),
            0
        );
        assert_eq!(count(&rp.code, |c| matches!(c, RInstr::Jump { .. })), 0);
        let back = rp
            .code
            .iter()
            .position(|c| matches!(c, RInstr::JumpICmpImm { on_true: true, .. }))
            .expect("the rotated back-edge");
        assert!(
            matches!(rp.code[back - 1], RInstr::IBinImmSext { op: IBinOp::Add, d, .. } if d == i),
            "{:?}",
            rp.code
        );
        assert!(rp.code.iter().any(|c| c.jump_target() == Some(back as u32)));
    }

    #[test]
    fn a_back_edge_whose_header_exits_elsewhere_stays_a_jump() {
        // `continue` jumps to the header from the middle of the body, where
        // the header's exit is not the next instruction; the back-edge at
        // the end of the body still rotates.
        let (_, _, rp) = translated(
            "int main() { long s; int i; s = 0; i = 0;
               while (i < 10) { s = s + i; if (s > 20) { i = i + 2; continue; } i++; }
               return (int)s; }",
            &[],
        );
        let jumps: Vec<usize> = (0..rp.code.len())
            .filter(|&pc| matches!(rp.code[pc], RInstr::Jump { .. }))
            .collect();
        let [at] = jumps[..] else {
            panic!("one jump: {:?}", rp.code)
        };
        let header = rp.code[at].jump_target().expect("a jump") as usize;
        assert_ne!(rp.code[header].jump_target(), Some(at as u32 + 1));
        assert!(matches!(
            rp.code[at - 1],
            RInstr::IBinImmSext { imm: 2, .. }
        ));
        back_edge(&rp.code);
    }

    #[test]
    fn a_two_instruction_header_is_copied_unless_it_can_trap() {
        // The body writes `n`, so the bound is computed on every trip (an
        // invariant one would be hoisted out of the loop).
        let header = |bound: &str| {
            translated(
                &format!(
                    "int main() {{ long s; long n; n = 7; s = 0;
                       for (int i = 0; i < {bound}; i++) {{ s = s + i; n = n - 1; }}
                       return (int)s; }}"
                ),
                &[],
            )
            .2
            .code
        };
        // `n * 2` cannot trap: the back-edge recomputes it and branches.
        let code = header("n * 2");
        assert_eq!(
            count(&code, |c| matches!(c, RInstr::Jump { .. })),
            0,
            "{code:?}"
        );
        let muls = count(&code, |c| {
            matches!(
                c,
                RInstr::IBinImm {
                    op: IBinOp::Mul,
                    ..
                }
            )
        });
        assert_eq!(muls, 2, "{code:?}");
        // `n / 2` can: a copy would trap at the back-edge's pc, so the
        // back-edge stays a `Jump` to the header.
        let code = header("n / 2");
        assert_eq!(
            count(&code, |c| matches!(c, RInstr::Jump { .. })),
            1,
            "{code:?}"
        );
        let divs = count(&code, |c| {
            matches!(
                c,
                RInstr::IBinImm {
                    op: IBinOp::Div,
                    ..
                }
            )
        });
        assert_eq!(divs, 1, "{code:?}");
    }

    // ---- loop-invariant hoisting --------------------------------------

    /// Every instruction hoisted out of a loop of region `owner`.
    fn hoisted(rp: &RegProgram, owner: u32) -> Vec<RInstr> {
        let loops = rp.hoist.loops.iter().filter(|l| l.owner == owner);
        loops.flat_map(|l| l.code.iter().copied()).collect()
    }

    #[test]
    fn a_three_deep_nest_computes_each_value_before_the_outermost_loop_it_is_invariant_in() {
        let (prog, _, rp) = translated(
            "int main() { long a[64]; int n; n = 3;
               for (int i = 0; i < 4; i++) {
                 for (int j = 0; j < 4; j++) {
                   for (int k = 0; k < 4; k++) { a[(i * 4 + j) * 4 + k] = i * n + j * 3 + k; } } }
               return (int)a[5]; }",
            &[],
        );
        let [outer, middle, inner] = &rp.hoist.loops[..] else {
            panic!("three loops hoisted out of: {:?}", rp.hoist)
        };
        assert!(outer.header < middle.header && middle.header < inner.header);
        assert!(inner.end <= middle.end && middle.end <= outer.end);
        // The array's address leaves all three loops.
        let a = local(&prog, "main", 0);
        assert!(
            matches!(outer.code[..], [RInstr::FrameAddr { off, .. }] if off == a),
            "{outer:?}"
        );
        // `i * 4`, `i * n` leave the middle loop; `(i * 4 + j) * 4` and
        // `j * 3` the inner one.
        let (i, n) = (main_reg(&prog, &rp, 2), main_reg(&prog, &rp, 1));
        let reads = |l: &HoistedLoop, r: Reg| {
            l.code.iter().any(|c| {
                let mut read = false;
                for_each_src(c, &prog, &mut |s| read |= s == r);
                read
            })
        };
        assert!(reads(middle, i) && reads(middle, n), "{middle:?}");
        assert!(!reads(inner, i), "{inner:?}");
        // Callee windows and the register file cover the hoisted registers.
        assert_eq!(
            rp.hoist.regs[0] as usize,
            rp.hoist.loops.iter().flat_map(|l| l.regs()).count()
        );
        assert!(rp.frame_regs >= rp.win(0));
    }

    #[test]
    fn a_value_the_loop_changes_on_one_path_stays_in_the_loop() {
        let (prog, _, rp) = translated(
            "int main() { long q; long s; q = 5; s = 0;
               for (int i = 0; i < 10; i++) { s = s + q * 3; if (i == 6) { q = q + 1; } }
               return (int)s; }",
            &[],
        );
        let q = main_reg(&prog, &rp, 0);
        assert!(rp.hoist.loops.is_empty(), "{:?}", rp.hoist);
        // `s + q * 3`, one indexed add, on every trip.
        assert!(
            rp.code
                .iter()
                .any(|c| matches!(c, RInstr::AddScaled { r, k: 3, .. } if *r == q)),
            "{:?}",
            rp.code
        );
    }

    #[test]
    fn a_division_is_never_hoisted() {
        let (_, _, rp) = translated(
            "int main() { long x; long d; long t; x = 100; d = 0; t = 0;
               for (long i = 0; i < d; i++) { t = t + x / d + i; }
               return (int)t; }",
            &[],
        );
        assert!(hoisted(&rp, 0).iter().all(|c| !matches!(
            c,
            RInstr::IBin {
                op: IBinOp::Div,
                ..
            } | RInstr::IBinImm {
                op: IBinOp::Div,
                ..
            }
        )));
        assert_eq!(
            count(&rp.code, |c| matches!(
                c,
                RInstr::IBin {
                    op: IBinOp::Div,
                    ..
                }
            )),
            1,
            "{:?}",
            rp.code
        );
    }

    #[test]
    fn a_float_constant_is_loaded_once_before_its_loop() {
        let (_, _, rp) = translated(
            "int main() { float f; f = 0.0;
               for (int i = 0; i < 20; i++) { f = f * 0.5 + 1.25; }
               return (int)f; }",
            &[],
        );
        let consts = |code: &[RInstr]| count(code, |c| matches!(c, RInstr::LdcF { .. }));
        assert_eq!(consts(&hoisted(&rp, 0)), 2, "{:?}", rp.hoist);
        // `f = 0.0` before the loop, and the two hoisted constants.
        assert_eq!(consts(&rp.code), 3, "{:?}", rp.code);
    }

    #[test]
    fn a_loop_with_a_call_hoists_below_the_callee_window() {
        let (prog, _, rp) = translated(
            "long mix(long h, long v) { return h * 31 + v; }
             int main() { long h; int n; h = 7; n = 3;
               for (int i = 0; i < 8; i++) { h = mix(h, n * 7 + 1 + i); }
               return (int)h; }",
            &[],
        );
        let main = prog.func_by_name("main").expect("main");
        let regs: Vec<Reg> = rp.hoist.loops.iter().flat_map(|l| l.regs()).collect();
        assert!(!regs.is_empty(), "{:?}", rp.hoist);
        let win = rp.win(main);
        assert!(regs.iter().all(|&r| (r as u32) < win));
        assert!(rp
            .code
            .iter()
            .any(|c| matches!(*c, RInstr::Call { win: w, .. } if w as u32 == win)));
    }

    #[test]
    fn an_inner_loop_of_an_outlined_body_hoists_in_the_body() {
        let (prog, _, rp) = translated(
            "int main() { long out[8]; int n; n = 3;
               #pragma candidate par
               for (int i = 0; i < 8; i++) {
                 long acc; acc = 0;
                 for (int j = 0; j < 5; j++) { acc = acc + (n * 5 + 1) * j + i; }
                 out[i] = acc; }
               return (int)out[3]; }",
            &["par"],
        );
        let body = prog.funcs.len() as u32;
        let code = hoisted(&rp, body);
        let imm = |op, v| move |c: &RInstr| matches!(*c, RInstr::IBinImm { op: o, imm, .. } if o == op && imm == v);
        assert!(code.iter().any(imm(IBinOp::Mul, 5)), "{:?}", rp.hoist);
        assert!(code.iter().any(imm(IBinOp::Add, 1)), "{:?}", rp.hoist);
        // Nothing leaves the dispatching loop: it runs a parallel loop.
        assert!(hoisted(&rp, 0).is_empty(), "{:?}", rp.hoist);
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
