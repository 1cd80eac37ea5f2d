//! The register interpreter with threaded dispatch.
//!
//! Executes the register translation ([`dse_ir::regcode`]) of the current
//! program: operands live in a flat per-thread register file of untagged
//! `u64` bit patterns (floats as IEEE bits, integers as two's complement)
//! instead of a tagged `Vec<Value>` operand stack, and the dispatch loop
//! prefetches the next opcode before jumping back to the match — so the
//! branch predictor sees the load of the next instruction as early as
//! possible and the hot path never touches `Vec` push/pop traffic.
//!
//! Semantics are defined by the reference stack interpreter
//! ([`Vm::exec_stack`]): every trap condition, observer callback, counter
//! increment, and builtin effect here mirrors it, and traps report the
//! *originating stack pc* through [`RegProgram::origin`] so diagnostics
//! are identical under either backend. Where the two encodings can't
//! match exactly — `Counters::work` and the opcode profiler count fused
//! super-instructions as one — the differential suite compares only the
//! backend-invariant counter classes.
//!
//! Register windows: a call does not save registers; the callee's window
//! starts at the caller's argument base, and the caller's `Frame`
//! remembers `saved_rbase`. Parallel loop bodies run with the window
//! based at the loop-bound slot, and each worker reuses its register file
//! across iterations (and across loops) without clearing — the register
//! analogue of the frame-reuse the paper's executor applies to stacks.

use crate::mem::sign_extend;
use crate::observer::Observer;
use crate::prof::OpClass;
use crate::vm::{cmp_result, fcmp, ibin, Frame, ThreadCtx, Value, Vm, VmError};
use dse_ir::bytecode::LoopEvent;
use dse_ir::bytecode::{FBinOp, GLOBAL_BASE};
use dse_ir::regcode::{builtin_sig, RInstr, RegProgram};
use dse_ir::sites::{AccessKind, NO_SITE};

/// The profiler class of one register instruction, bucketed to match
/// [`crate::prof::class_of`] on the stack encoding (fused instructions
/// count once, under the class of their primary effect).
#[inline]
fn rclass_of(instr: &RInstr) -> OpClass {
    match instr {
        RInstr::LdcI { .. } | RInstr::LdcF { .. } | RInstr::Mov { .. } | RInstr::Tuck { .. } => {
            OpClass::Stack
        }
        RInstr::FrameAddr { .. }
        | RInstr::GlobalAddr { .. }
        | RInstr::TidScaled { .. }
        | RInstr::TidSpanScaled { .. }
        | RInstr::FrameAddrTid { .. }
        | RInstr::GlobalAddrTid { .. }
        | RInstr::IterIdx { .. } => OpClass::Addr,
        RInstr::Load { .. }
        | RInstr::LdFrame { .. }
        | RInstr::LdGlobal { .. }
        | RInstr::Store { .. }
        | RInstr::StFrame { .. }
        | RInstr::MemCpy { .. } => OpClass::Mem,
        RInstr::IBin { .. }
        | RInstr::IBinImm { .. }
        | RInstr::FBin { .. }
        | RInstr::ICmp { .. }
        | RInstr::ICmpImm { .. }
        | RInstr::FCmp { .. }
        | RInstr::INeg { .. }
        | RInstr::FNeg { .. }
        | RInstr::BNot { .. }
        | RInstr::LNot { .. }
        | RInstr::I2F { .. }
        | RInstr::F2I { .. }
        | RInstr::Sext { .. } => OpClass::Alu,
        RInstr::Jump { .. }
        | RInstr::JumpIfZ { .. }
        | RInstr::JumpIfNZ { .. }
        | RInstr::JumpICmp { .. }
        | RInstr::JumpICmpImm { .. }
        | RInstr::JumpFCmp { .. }
        | RInstr::Call { .. }
        | RInstr::Ret { .. }
        | RInstr::LoopMark { .. }
        | RInstr::ParLoop { .. }
        | RInstr::Halt { .. }
        | RInstr::Unreachable => OpClass::Ctl,
        RInstr::Wait { .. } | RInstr::Post { .. } => OpClass::Sync,
        // Inlined hot builtins keep their stack-encoding class so per-class
        // profiles stay comparable across backends.
        RInstr::CallBuiltin { .. }
        | RInstr::Fsqrt { .. }
        | RInstr::Fabs { .. }
        | RInstr::Tid { .. }
        | RInstr::NThreads { .. } => OpClass::Builtin,
        RInstr::Localize { .. } => OpClass::Localize,
    }
}

impl Vm {
    /// Executes register code starting at register pc `entry` until the
    /// current sentinel frame returns. The semantics contract is
    /// [`Vm::exec_stack`]'s; see the module docs for how the encodings are
    /// kept observationally equivalent.
    pub(crate) fn exec_reg(
        &self,
        rp: &RegProgram,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut dyn Observer,
    ) -> Result<Option<Value>, VmError> {
        let code = &rp.code[..];
        let window = rp.frame_regs as usize;
        let need = ctx.reg_base + window;
        if ctx.regs.len() < need {
            ctx.regs.resize(need, 0);
        }
        let mut pc = entry as usize;
        // Traps always report the originating *stack* pc, so error
        // messages and site attribution match the reference backend.
        macro_rules! trap {
            ($($arg:tt)*) => {
                return Err(VmError::new(rp.origin_pc(pc) as usize, format!($($arg)*)))
            };
        }
        // Register file accessors over the current window.
        macro_rules! rg {
            ($r:expr) => {
                ctx.regs[ctx.reg_base + ($r) as usize]
            };
        }
        macro_rules! rgi {
            ($r:expr) => {
                rg!($r) as i64
            };
        }
        macro_rules! rgf {
            ($r:expr) => {
                f64::from_bits(rg!($r))
            };
        }
        // Threaded dispatch: every arm computes its successor pc and
        // prefetches that opcode before handing control back to the match.
        let mut instr = code[pc];
        macro_rules! step {
            () => {{
                pc += 1;
                instr = code[pc];
                continue;
            }};
        }
        macro_rules! goto {
            ($t:expr) => {{
                pc = $t as usize;
                instr = code[pc];
                continue;
            }};
        }
        loop {
            ctx.counters.work += 1;
            if ctx.counters.work > self.config.max_instructions {
                trap!("instruction budget exceeded");
            }
            if let Some(p) = ctx.prof.as_deref_mut() {
                p.tick(rclass_of(&instr));
            }
            match instr {
                RInstr::LdcI { d, v } => {
                    rg!(d) = v as u64;
                    step!();
                }
                RInstr::LdcF { d, v } => {
                    rg!(d) = v.to_bits();
                    step!();
                }
                RInstr::Mov { d, s } => {
                    rg!(d) = rg!(s);
                    step!();
                }
                RInstr::Tuck { d } => {
                    // [a, b] -> [b, a, b] over r[d], r[d+1], r[d+2].
                    let a = rg!(d);
                    let b = rg!(d + 1);
                    rg!(d) = b;
                    rg!(d + 1) = a;
                    rg!(d + 2) = b;
                    step!();
                }
                RInstr::FrameAddr { d, off } => {
                    rg!(d) = (ctx.frame_base + off as u64) as i64 as u64;
                    step!();
                }
                RInstr::GlobalAddr { d, addr } => {
                    rg!(d) = addr as i64 as u64;
                    step!();
                }
                RInstr::TidScaled { d, k } => {
                    rg!(d) = (ctx.tid as i64 * k) as u64;
                    step!();
                }
                RInstr::TidSpanScaled { d, z } => {
                    let span = rgi!(d);
                    if z == 0 {
                        trap!("TidSpanScaled with zero element size");
                    }
                    rg!(d) = (ctx.tid as i64 * span / z * z) as u64;
                    step!();
                }
                RInstr::FrameAddrTid { d, offset, stride } => {
                    ctx.counters.private_direct += 1;
                    let a = ctx.frame_base + offset as u64;
                    rg!(d) = (a as i64 + ctx.tid as i64 * stride) as u64;
                    step!();
                }
                RInstr::GlobalAddrTid { d, addr, stride } => {
                    ctx.counters.private_direct += 1;
                    rg!(d) = (addr as i64 + ctx.tid as i64 * stride) as u64;
                    step!();
                }
                RInstr::IterIdx { d, depth } => {
                    let n = ctx.iter_stack.len();
                    let dep = depth as usize;
                    if dep >= n {
                        trap!("IterIdx outside parallel loop body");
                    }
                    rg!(d) = ctx.iter_stack[n - 1 - dep] as u64;
                    step!();
                }
                RInstr::Load {
                    d,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = rgi!(d) as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid load of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Load, addr, width as u32, ctx.sp);
                    }
                    let raw = self.mem.read(addr, width as u32);
                    rg!(d) = if is_float {
                        raw
                    } else {
                        sign_extend(raw, width as u32) as u64
                    };
                    step!();
                }
                RInstr::LdFrame {
                    d,
                    off,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = ctx.frame_base + off as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid load of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Load, addr, width as u32, ctx.sp);
                    }
                    let raw = self.mem.read(addr, width as u32);
                    rg!(d) = if is_float {
                        raw
                    } else {
                        sign_extend(raw, width as u32) as u64
                    };
                    step!();
                }
                RInstr::LdGlobal {
                    d,
                    addr,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = addr as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid load of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Load, addr, width as u32, ctx.sp);
                    }
                    let raw = self.mem.read(addr, width as u32);
                    rg!(d) = if is_float {
                        raw
                    } else {
                        sign_extend(raw, width as u32) as u64
                    };
                    step!();
                }
                RInstr::Store {
                    a,
                    v,
                    width,
                    is_float: _,
                    site,
                } => {
                    let addr = rgi!(a) as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid store of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Store, addr, width as u32, ctx.sp);
                    }
                    // Registers already hold the raw bit pattern either way.
                    self.mem.write(addr, width as u32, rg!(v));
                    step!();
                }
                RInstr::StFrame {
                    off,
                    v,
                    width,
                    is_float: _,
                    site,
                } => {
                    let addr = ctx.frame_base + off as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid store of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Store, addr, width as u32, ctx.sp);
                    }
                    self.mem.write(addr, width as u32, rg!(v));
                    step!();
                }
                RInstr::MemCpy {
                    dst,
                    src,
                    size,
                    load_site,
                    store_site,
                } => {
                    let dsta = rgi!(dst) as u64;
                    let srca = rgi!(src) as u64;
                    let sz = size as u64;
                    if srca < GLOBAL_BASE
                        || dsta < GLOBAL_BASE
                        || !self.mem.in_bounds(srca, sz)
                        || !self.mem.in_bounds(dsta, sz)
                    {
                        trap!("invalid memcpy of {size} bytes {srca} -> {dsta}");
                    }
                    if load_site != NO_SITE {
                        obs.on_access(load_site, AccessKind::Load, srca, size, ctx.sp);
                    }
                    if store_site != NO_SITE {
                        obs.on_access(store_site, AccessKind::Store, dsta, size, ctx.sp);
                    }
                    self.mem.copy(srca, dsta, sz);
                    step!();
                }
                RInstr::IBin { op, d, l, r } => {
                    let lv = rgi!(l);
                    let rv = rgi!(r);
                    rg!(d) = ibin(op, lv, rv)
                        .map_err(|m| VmError::new(rp.origin_pc(pc) as usize, m))?
                        as u64;
                    step!();
                }
                RInstr::IBinImm { op, d, l, imm } => {
                    let lv = rgi!(l);
                    rg!(d) = ibin(op, lv, imm)
                        .map_err(|m| VmError::new(rp.origin_pc(pc) as usize, m))?
                        as u64;
                    step!();
                }
                RInstr::FBin { op, d, l, r } => {
                    let lv = rgf!(l);
                    let rv = rgf!(r);
                    let v = match op {
                        FBinOp::Add => lv + rv,
                        FBinOp::Sub => lv - rv,
                        FBinOp::Mul => lv * rv,
                        FBinOp::Div => lv / rv,
                    };
                    rg!(d) = v.to_bits();
                    step!();
                }
                RInstr::ICmp { op, d, l, r } => {
                    let res = cmp_result(op, rgi!(l).cmp(&rgi!(r)));
                    rg!(d) = res as u64;
                    step!();
                }
                RInstr::ICmpImm { op, d, l, imm } => {
                    let res = cmp_result(op, rgi!(l).cmp(&imm));
                    rg!(d) = res as u64;
                    step!();
                }
                RInstr::FCmp { op, d, l, r } => {
                    rg!(d) = fcmp(op, rgf!(l), rgf!(r)) as u64;
                    step!();
                }
                RInstr::INeg { d } => {
                    rg!(d) = rgi!(d).wrapping_neg() as u64;
                    step!();
                }
                RInstr::FNeg { d } => {
                    rg!(d) = (-rgf!(d)).to_bits();
                    step!();
                }
                RInstr::BNot { d } => {
                    rg!(d) = (!rgi!(d)) as u64;
                    step!();
                }
                RInstr::LNot { d } => {
                    rg!(d) = (rgi!(d) == 0) as u64;
                    step!();
                }
                RInstr::I2F { d } => {
                    rg!(d) = (rgi!(d) as f64).to_bits();
                    step!();
                }
                RInstr::F2I { d } => {
                    rg!(d) = (rgf!(d) as i64) as u64;
                    step!();
                }
                RInstr::Sext { d, w } => {
                    rg!(d) = sign_extend(rg!(d), w as u32) as u64;
                    step!();
                }
                RInstr::Jump { t } => goto!(t),
                RInstr::JumpIfZ { s, t } => {
                    if rgi!(s) == 0 {
                        goto!(t);
                    }
                    step!();
                }
                RInstr::JumpIfNZ { s, t } => {
                    if rgi!(s) != 0 {
                        goto!(t);
                    }
                    step!();
                }
                RInstr::JumpICmp {
                    op,
                    l,
                    r,
                    t,
                    on_true,
                } => {
                    if cmp_result(op, rgi!(l).cmp(&rgi!(r))) == on_true {
                        goto!(t);
                    }
                    step!();
                }
                RInstr::JumpICmpImm {
                    op,
                    l,
                    imm,
                    t,
                    on_true,
                } => {
                    if cmp_result(op, rgi!(l).cmp(&imm)) == on_true {
                        goto!(t);
                    }
                    step!();
                }
                RInstr::JumpFCmp {
                    op,
                    l,
                    r,
                    t,
                    on_true,
                } => {
                    if fcmp(op, rgf!(l), rgf!(r)) == on_true {
                        goto!(t);
                    }
                    step!();
                }
                RInstr::Call { target, fi, abase } => {
                    let callee = self.program.func(fi);
                    let new_base = dse_lang::types::round_up(ctx.sp, 8);
                    let new_sp = new_base + callee.frame_size as u64;
                    if new_sp > ctx.stack_limit {
                        trap!("stack overflow calling `{}`", callee.name);
                    }
                    self.mem.zero(new_base, callee.frame_size as u64);
                    // Args sit in r[abase..abase+nargs] in parameter order;
                    // the translation proved their types, so the raw bits
                    // go straight to the parameter slots.
                    for (pi, &(off, kind)) in callee.params.iter().enumerate() {
                        let raw = rg!(abase + pi as u16);
                        self.mem
                            .write(new_base + off as u64, kind.width as u32, raw);
                    }
                    ctx.frames.push(Frame {
                        ret_pc: Some(pc as u32 + 1),
                        saved_base: ctx.frame_base,
                        saved_sp: ctx.sp,
                        saved_rbase: ctx.reg_base,
                    });
                    ctx.frame_base = new_base;
                    ctx.sp = new_sp;
                    ctx.reg_base += abase as usize;
                    let need = ctx.reg_base + window;
                    if ctx.regs.len() < need {
                        ctx.regs.resize(need, 0);
                    }
                    goto!(target);
                }
                RInstr::CallBuiltin { b, abase, orig_pc } => {
                    // Bridge to the shared builtin implementation through
                    // the operand stack, with the stack pc for trap and
                    // allocation-site attribution parity.
                    let (arg_f, ret_f) = builtin_sig(b);
                    for (i, &isf) in arg_f.iter().enumerate() {
                        let bits = rg!(abase + i as u16);
                        ctx.ops.push(if isf {
                            Value::F(f64::from_bits(bits))
                        } else {
                            Value::I(bits as i64)
                        });
                    }
                    self.call_builtin(b, ctx, orig_pc as usize, obs)?;
                    if let Some(isf) = ret_f {
                        let v = match ctx.ops.pop() {
                            Some(v) => v,
                            None => trap!("builtin returned no value"),
                        };
                        debug_assert_eq!(matches!(v, Value::F(_)), isf);
                        rg!(abase) = v.to_bits();
                    }
                    step!();
                }
                RInstr::Fsqrt { d } => {
                    rg!(d) = rgf!(d).sqrt().to_bits();
                    step!();
                }
                RInstr::Fabs { d } => {
                    rg!(d) = rgf!(d).abs().to_bits();
                    step!();
                }
                RInstr::Tid { d } => {
                    rg!(d) = (ctx.tid as i64) as u64;
                    step!();
                }
                RInstr::NThreads { d } => {
                    rg!(d) = (self.config.nthreads as i64) as u64;
                    step!();
                }
                RInstr::Ret {
                    src,
                    has_val,
                    is_float,
                } => {
                    let bits = if has_val { rg!(src) } else { 0 };
                    let fr = match ctx.frames.pop() {
                        Some(f) => f,
                        None => trap!("return with empty call stack"),
                    };
                    ctx.frame_base = fr.saved_base;
                    ctx.sp = fr.saved_sp;
                    match fr.ret_pc {
                        Some(t) => {
                            if has_val {
                                // The callee window base is the caller's
                                // abase slot: drop the result there, then
                                // restore the caller's window.
                                ctx.regs[ctx.reg_base] = bits;
                            }
                            ctx.reg_base = fr.saved_rbase;
                            goto!(t);
                        }
                        None => {
                            ctx.reg_base = fr.saved_rbase;
                            return Ok(has_val.then(|| typed(bits, is_float)));
                        }
                    }
                }
                RInstr::LoopMark { ev, id } => {
                    let p = match ev {
                        LoopEvent::Begin => ctx.frame_base,
                        _ => ctx.sp,
                    };
                    obs.on_loop(ev, id, p, ctx.counters.work);
                    step!();
                }
                RInstr::ParLoop { id, lo, hi } => {
                    let lo_v = rgi!(lo);
                    let hi_v = rgi!(hi);
                    // The body region's window starts at the loop-bound
                    // slot; restore the master's window whether the loop
                    // completes or traps.
                    let saved_rbase = ctx.reg_base;
                    ctx.reg_base += lo as usize;
                    let need = ctx.reg_base + window;
                    if ctx.regs.len() < need {
                        ctx.regs.resize(need, 0);
                    }
                    let res = self.run_par_loop(ctx, id, lo_v, hi_v);
                    ctx.reg_base = saved_rbase;
                    res.map_err(|mut e| {
                        if e.pc == u32::MAX {
                            e.pc = rp.origin_pc(pc);
                        }
                        e
                    })?;
                    step!();
                }
                RInstr::Wait { id: _ } => {
                    if let Err(msg) = self.doacross_wait(ctx) {
                        trap!("{msg}");
                    }
                    step!();
                }
                RInstr::Post { id: _ } => {
                    if let Err(msg) = self.doacross_post(ctx) {
                        trap!("{msg}");
                    }
                    step!();
                }
                RInstr::Localize { d, site: _ } => {
                    let addr = rgi!(d) as u64;
                    let translated = self.localize(ctx, addr, rp.origin_pc(pc) as usize)?;
                    rg!(d) = (translated as i64) as u64;
                    step!();
                }
                RInstr::Halt {
                    src,
                    has_val,
                    is_float,
                } => {
                    return Ok(has_val.then(|| typed(rg!(src), is_float)));
                }
                RInstr::Unreachable => {
                    trap!("unreachable code (register translation hole)");
                }
            }
        }
    }
}

/// Rebuilds a tagged [`Value`] from register bits.
#[inline]
fn typed(bits: u64, is_float: bool) -> Value {
    if is_float {
        Value::F(f64::from_bits(bits))
    } else {
        Value::I(bits as i64)
    }
}
