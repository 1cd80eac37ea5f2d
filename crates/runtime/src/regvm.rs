//! The register interpreter.
//!
//! Executes the register translation ([`dse_ir::regcode`]) of the current
//! program: operands live in a flat per-thread register file of untagged
//! `u64` bit patterns (floats as IEEE bits, integers as two's complement)
//! instead of a tagged `Vec<Value>` operand stack, so the hot path never
//! touches `Vec` push/pop traffic. Dispatch is a plain `loop { match }`:
//! one dispatch point, which reads the instruction through a reference
//! into the code and keeps the pc, the retired-instruction count, its
//! budget and "profiler armed" in locals. (An earlier version copied the
//! next 24-byte instruction out of the code at the end of every arm and
//! called that threaded dispatch; a Rust `match` in a `loop` still has one
//! indirect branch, and the copy measured slower — EXPERIMENTS.md, PR 18.)
//! The loop is generic over the [`Observer`], so plain runs and every
//! parallel body compile with the access hook gone.
//!
//! What an instruction *does* is defined once, in [`crate::ops`], and
//! shared with the reference stack interpreter ([`Vm::exec_stack`]): every
//! trap condition, observer callback, counter increment and builtin effect
//! is the same call. This loop only reads operands from and writes results
//! to registers — builtins take their argument registers directly — and
//! traps report the *originating stack pc* through [`RegProgram::origin`],
//! so diagnostics are identical under either backend. A fused instruction
//! originates where its trap can: `LoadIdx` at the `Load` it ends with
//! (the same `ops` load, site and observer event as the pair), `IBinSext`
//! at its `IBin` (a division by zero; the extension cannot trap), and
//! `AddScaled` never traps; nor does a rotated loop back-edge, whose
//! `IncJumpICmpImm`/`IncJumpICmp` (`ops::increment`, then the compare)
//! originates at the increment it folds. The profiler
//! charges each retired register instruction through the same table, to
//! the class of the stack instruction it came from — the translator's own
//! fills, spills and write-backs to the one they were emitted for. Where
//! the two encodings can't match exactly — `Counters::work`, the class
//! counts and the loop record's iteration costs count a fused
//! super-instruction as one — the differential suite compares only the
//! backend-invariant counter classes; iteration counts agree exactly.
//!
//! Register windows: a call does not save registers; the callee's window
//! starts above everything the calling region uses (`Call::win`: its
//! operands and its promoted places), and the `Frame` it pushes remembers
//! `saved_rbase` and the caller's result register. Parallel loop bodies
//! run with the window based at the loop-bound slot, and each worker
//! reuses its register file across iterations (and across loops) without
//! clearing — the register analogue of the frame-reuse the paper's
//! executor applies to stacks.

use crate::observer::Observer;
use crate::ops;
use crate::prof::{class_of, OpClass};
use crate::vm::{ThreadCtx, Value, Vm, VmError};
use dse_ir::regcode::{RInstr, RegProgram};
use dse_ir::sites::NO_SITE;

impl ThreadCtx {
    /// Grows the register file to cover a `window`-register window at the
    /// current base (new registers read 0; existing ones are not cleared).
    fn ensure_window(&mut self, window: usize) {
        let need = self.reg_base + window;
        if self.regs.len() < need {
            self.regs.resize(need, 0);
        }
    }
}

impl Vm {
    /// The profiler's hook: charges the register instruction at `pc` as
    /// the stack instruction it was translated from, so both backends
    /// share one class table. (The pc one past the end of the stack code
    /// is the final `Unreachable`'s.) Out of line, so the dispatch loop
    /// keeps its shape when profiling is off.
    #[cold]
    #[inline(never)]
    fn tick_origin(&self, rp: &RegProgram, ctx: &mut ThreadCtx, pc: usize) {
        if let Some(p) = ctx.prof.as_deref_mut() {
            let origin = self.program.code.get(rp.origin_pc(pc) as usize);
            p.tick(origin.map_or(OpClass::Ctl, class_of));
        }
    }

    /// Executes register code starting at register pc `entry` until the
    /// current sentinel frame returns; see the module docs for how the
    /// encodings are kept observationally equivalent.
    pub(crate) fn exec_reg<O: Observer + ?Sized>(
        &self,
        rp: &RegProgram,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut O,
    ) -> Result<Option<Value>, VmError> {
        let code = &rp.code[..];
        let window = rp.frame_regs as usize;
        ctx.ensure_window(window);
        let mut pc = entry as usize;
        // The retired-instruction count, its budget and "profiler armed"
        // live in locals for the whole loop. `work` is written back to
        // `ctx.counters.work` before anything that reads it (`loop_mark`,
        // `par_loop` — re-read after, its inline iterations count too —
        // and `Wait`/`Post`) and when the loop ends, which it does only by
        // `break`: count and budget stay exact to the instruction.
        let mut work = ctx.counters.work;
        let budget = self.config.max_instructions;
        let profiling = ctx.prof.is_some();
        // Traps always report the originating *stack* pc, so error
        // messages and site attribution match the reference backend.
        macro_rules! trap {
            ($($arg:tt)*) => {
                break Err(VmError::new(rp.origin_pc(pc) as usize, format!($($arg)*)))
            };
        }
        // Unwraps an `ops` result, trapping at this pc with its message.
        macro_rules! ok {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(msg) => break Err(VmError::new(rp.origin_pc(pc) as usize, msg)),
                }
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
        // The address a fused tid access names: this thread's replica of an
        // expanded local (`frame`) or global, counted as one private direct
        // access exactly as the `FrameAddrTid`/`GlobalAddrTid` it replaces —
        // unless it is unsited: the translator's own fill or write-back of
        // a promoted replica, which is register traffic, not an access of
        // the program's.
        macro_rules! replica {
            ($frame:expr, $base:expr, $stride:expr, $site:expr) => {{
                let base = if $frame {
                    ctx.frame_addr($base)
                } else {
                    $base as u64
                };
                if $site == NO_SITE {
                    ctx.replica_addr(base, $stride) as u64
                } else {
                    ctx.private_addr(base, $stride) as u64
                }
            }};
        }
        // One dispatch point: every arm sets its successor pc and goes back
        // to the `match` at the head of the loop, which reads the
        // instruction's fields through a reference into `code`.
        macro_rules! step {
            () => {{
                pc += 1;
                continue;
            }};
        }
        macro_rules! goto {
            ($t:expr) => {{
                pc = $t as usize;
                continue;
            }};
        }
        // `r[d] = v`, then fall through.
        macro_rules! set {
            ($d:expr, $v:expr) => {{
                let v = $v;
                rg!($d) = v;
                step!();
            }};
        }
        // Jump to `t` if `cond`, else fall through.
        macro_rules! branch {
            ($cond:expr, $t:expr) => {{
                if $cond {
                    goto!($t);
                }
                step!();
            }};
        }
        let result = loop {
            work += 1;
            if work > budget {
                trap!("instruction budget exceeded");
            }
            let instr = &code[pc];
            if profiling {
                self.tick_origin(rp, ctx, pc);
            }
            match *instr {
                RInstr::LdcI { d, v } => set!(d, v as u64),
                RInstr::LdcF { d, v } => set!(d, v.to_bits()),
                RInstr::Mov { d, s } => set!(d, rg!(s)),
                RInstr::Tuck { d } => {
                    // [a, b] -> [b, a, b] over r[d], r[d+1], r[d+2].
                    let a = rg!(d);
                    let b = rg!(d + 1);
                    rg!(d) = b;
                    rg!(d + 1) = a;
                    rg!(d + 2) = b;
                    step!();
                }
                RInstr::FrameAddr { d, off } => set!(d, ctx.frame_addr(off)),
                RInstr::GlobalAddr { d, addr } => set!(d, addr as u64),
                RInstr::TidScaled { d, k } => set!(d, ctx.tid_scaled(k) as u64),
                RInstr::TidSpanScaled { d, z } => {
                    set!(d, ok!(ctx.tid_span_scaled(rgi!(d), z)) as u64)
                }
                RInstr::FrameAddrTid { d, offset, stride } => {
                    set!(d, ctx.private_addr(ctx.frame_addr(offset), stride) as u64)
                }
                RInstr::GlobalAddrTid { d, addr, stride } => {
                    set!(d, ctx.private_addr(addr as u64, stride) as u64)
                }
                RInstr::IterIdx { d, depth } => set!(d, ok!(ctx.iter_idx(depth)) as u64),
                RInstr::Load {
                    d,
                    width,
                    is_float,
                    site,
                } => set!(
                    d,
                    ok!(self.load(obs, ctx.sp, rg!(d), width, is_float, site))
                ),
                RInstr::LoadIdx {
                    d,
                    b,
                    i,
                    k,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = ops::add_scaled(rg!(b), rg!(i), k);
                    set!(d, ok!(self.load(obs, ctx.sp, addr, width, is_float, site)))
                }
                RInstr::LdFrame {
                    d,
                    off,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = ctx.frame_addr(off);
                    set!(d, ok!(self.load(obs, ctx.sp, addr, width, is_float, site)))
                }
                RInstr::LdGlobal {
                    d,
                    addr,
                    width,
                    is_float,
                    site,
                } => set!(
                    d,
                    ok!(self.load(obs, ctx.sp, addr as u64, width, is_float, site))
                ),
                RInstr::LdTid {
                    d,
                    frame,
                    base,
                    stride,
                    width,
                    is_float,
                    site,
                } => {
                    let addr = replica!(frame, base, stride, site);
                    set!(d, ok!(self.load(obs, ctx.sp, addr, width, is_float, site)))
                }
                // Registers already hold the raw bit pattern either way, so
                // stores ignore `is_float`.
                RInstr::Store {
                    a,
                    v,
                    width,
                    is_float: _,
                    site,
                } => {
                    ok!(self.store(obs, ctx.sp, rg!(a), width, site, rg!(v)));
                    step!();
                }
                RInstr::StFrame {
                    off,
                    v,
                    width,
                    is_float: _,
                    site,
                } => {
                    let addr = ctx.frame_addr(off);
                    ok!(self.store(obs, ctx.sp, addr, width, site, rg!(v)));
                    step!();
                }
                RInstr::StTid {
                    frame,
                    base,
                    stride,
                    v,
                    width,
                    is_float: _,
                    site,
                } => {
                    let addr = replica!(frame, base, stride, site);
                    ok!(self.store(obs, ctx.sp, addr, width, site, rg!(v)));
                    step!();
                }
                RInstr::MemCpy {
                    dst,
                    src,
                    size,
                    load_site,
                    store_site,
                } => {
                    let sites = (load_site, store_site);
                    ok!(self.memcpy(obs, ctx.sp, rg!(src), rg!(dst), size, sites));
                    step!();
                }
                RInstr::IBin { op, d, l, r } => {
                    set!(d, ok!(ops::ibin(op, rgi!(l), rgi!(r))) as u64)
                }
                RInstr::IBinImm { op, d, l, imm } => {
                    set!(d, ok!(ops::ibin(op, rgi!(l), imm)) as u64)
                }
                RInstr::IBinSext { op, d, l, r, w } => {
                    set!(d, ops::sext(ok!(ops::ibin(op, rgi!(l), rgi!(r))), w) as u64)
                }
                RInstr::IBinImmSext { op, d, l, imm, w } => {
                    set!(d, ops::sext(ok!(ops::ibin(op, rgi!(l), imm)), w) as u64)
                }
                RInstr::AddScaled { d, l, r, k } => set!(d, ops::add_scaled(rg!(l), rg!(r), k)),
                RInstr::FBin { op, d, l, r } => set!(d, ops::fbin(op, rgf!(l), rgf!(r)).to_bits()),
                RInstr::ICmp { op, d, l, r } => set!(d, ops::icmp(op, rgi!(l), rgi!(r)) as u64),
                RInstr::ICmpImm { op, d, l, imm } => set!(d, ops::icmp(op, rgi!(l), imm) as u64),
                RInstr::FCmp { op, d, l, r } => set!(d, ops::fcmp(op, rgf!(l), rgf!(r)) as u64),
                RInstr::INeg { d } => set!(d, ops::ineg(rgi!(d)) as u64),
                RInstr::FNeg { d } => set!(d, ops::fneg(rgf!(d)).to_bits()),
                RInstr::BNot { d } => set!(d, ops::bnot(rgi!(d)) as u64),
                RInstr::LNot { d } => set!(d, ops::lnot(rgi!(d)) as u64),
                RInstr::I2F { d } => set!(d, ops::i2f(rgi!(d)).to_bits()),
                RInstr::F2I { d } => set!(d, ops::f2i(rgf!(d)) as u64),
                RInstr::Sext { d, w } => set!(d, ops::sext(rgi!(d), w) as u64),
                RInstr::Jump { t } => goto!(t),
                RInstr::JumpIfZ { s, t } => branch!(rgi!(s) == 0, t),
                RInstr::JumpIfNZ { s, t } => branch!(rgi!(s) != 0, t),
                RInstr::JumpICmp {
                    op,
                    l,
                    r,
                    t,
                    on_true,
                } => branch!(ops::icmp(op, rgi!(l), rgi!(r)) == on_true, t),
                RInstr::JumpICmpImm {
                    op,
                    l,
                    imm,
                    t,
                    on_true,
                } => branch!(ops::icmp(op, rgi!(l), imm) == on_true, t),
                RInstr::JumpFCmp {
                    op,
                    l,
                    r,
                    t,
                    on_true,
                } => branch!(ops::fcmp(op, rgf!(l), rgf!(r)) == on_true, t),
                RInstr::IncJumpICmpImm {
                    d,
                    step,
                    w,
                    op,
                    imm,
                    t,
                    on_true,
                } => {
                    let v = ops::increment(rgi!(d), step, w);
                    rg!(d) = v as u64;
                    branch!(ops::icmp(op, v, imm) == on_true, t)
                }
                RInstr::IncJumpICmp {
                    d,
                    step,
                    w,
                    op,
                    r,
                    t,
                    on_true,
                } => {
                    let v = ops::increment(rgi!(d), step, w);
                    rg!(d) = v as u64;
                    branch!(ops::icmp(op, v, rgi!(r)) == on_true, t)
                }
                RInstr::Call {
                    target,
                    fi,
                    abase,
                    win,
                } => {
                    let callee = self.program.func(fi);
                    let ret_reg = ctx.reg_base + abase as usize;
                    ok!(self.push_frame(ctx, callee, Some(pc as u32 + 1), ret_reg));
                    // Args sit in r[abase..abase+nargs] in parameter order;
                    // the translation proved their types, so the raw bits
                    // go straight to the parameter slots.
                    for (pi, &param) in callee.params.iter().enumerate() {
                        self.write_param(ctx, param, rg!(abase + pi as u16));
                    }
                    // The callee's window starts above every register this
                    // region uses (the frame just pushed remembers where).
                    ctx.reg_base += win as usize;
                    ctx.ensure_window(window);
                    goto!(target);
                }
                RInstr::CallBuiltin { b, abase, orig_pc } => {
                    // The argument registers are the builtin's operands;
                    // the stack pc keeps trap and allocation-site
                    // attribution identical to the reference backend.
                    let sig = b.sig();
                    let lo = ctx.reg_base + abase as usize;
                    let args = &ctx.regs[lo..lo + sig.args.len()];
                    let bits = match self.builtin(b, args, ctx.tid, orig_pc as usize, obs) {
                        Ok(bits) => bits,
                        Err(msg) => break Err(VmError::new(orig_pc as usize, msg)),
                    };
                    if sig.ret.is_some() {
                        rg!(abase) = bits;
                    }
                    step!();
                }
                RInstr::Fsqrt { d } => set!(d, ops::fsqrt(rg!(d))),
                RInstr::Fabs { d } => set!(d, ops::fabs(rg!(d))),
                RInstr::Tid { d } => set!(d, ctx.tid as u64),
                RInstr::NThreads { d } => set!(d, self.config.nthreads as u64),
                RInstr::Ret {
                    src,
                    has_val,
                    is_float,
                } => {
                    let bits = if has_val { rg!(src) } else { 0 };
                    let fr = ok!(ctx.pop_frame());
                    match fr.ret_pc {
                        Some(t) => {
                            if has_val {
                                ctx.regs[fr.ret_reg] = bits;
                            }
                            ctx.reg_base = fr.saved_rbase;
                            goto!(t);
                        }
                        None => {
                            ctx.reg_base = fr.saved_rbase;
                            break Ok(has_val.then(|| Value::from_bits(bits, is_float)));
                        }
                    }
                }
                RInstr::LoopMark { ev, id } => {
                    ctx.counters.work = work;
                    self.loop_mark(ctx, obs, ev, id);
                    step!();
                }
                RInstr::ParLoop { id, lo, hi } => {
                    let (lo_v, hi_v) = (rgi!(lo), rgi!(hi));
                    // The body region's window starts at the loop-bound
                    // slot; restore the master's window whether the loop
                    // completes or traps.
                    let saved_rbase = ctx.reg_base;
                    ctx.reg_base += lo as usize;
                    ctx.ensure_window(window);
                    ctx.counters.work = work;
                    let res = self.par_loop(ctx, id, lo_v, hi_v, rp.origin_pc(pc));
                    work = ctx.counters.work;
                    ctx.reg_base = saved_rbase;
                    if let Err(e) = res {
                        break Err(e);
                    }
                    step!();
                }
                RInstr::Wait { id: _ } => {
                    ctx.counters.work = work;
                    ok!(self.doacross_wait(ctx));
                    step!();
                }
                RInstr::Post { id: _ } => {
                    ctx.counters.work = work;
                    ok!(self.doacross_post(ctx));
                    step!();
                }
                RInstr::Localize { d, site: _ } => {
                    let addr = rg!(d);
                    match self.localize(ctx, addr, rp.origin_pc(pc) as usize) {
                        Ok(local) => rg!(d) = local,
                        Err(e) => break Err(e),
                    }
                    step!();
                }
                RInstr::Halt {
                    src,
                    has_val,
                    is_float,
                } => {
                    break Ok(has_val.then(|| Value::from_bits(rg!(src), is_float)));
                }
                RInstr::Unreachable => {
                    trap!("unreachable code (register translation hole)");
                }
            }
        };
        ctx.counters.work = work;
        result
    }
}
