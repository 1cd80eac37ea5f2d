//! What each opcode and builtin *does* — the one definition both
//! interpreters call.
//!
//! `Vm::exec_stack` and `Vm::exec_reg` decide only where operands live
//! (pop/type-check/push on a tagged operand stack, or reads and writes of
//! an untagged register window); everything an instruction means — bounds
//! checks, observer callbacks, sign extension, frame bookkeeping, counter
//! increments, builtin effects and every trap message — is here, over raw
//! `u64` bit patterns (floats as IEEE bits, integers as two's complement).
//!
//! Fallible operations return the trap *message*; the calling interpreter
//! attaches its own notion of the faulting pc. Helpers on the
//! per-instruction path are `#[inline]` and build the message only on the
//! cold path.
//!
//! `dse-verify`'s `xlatecheck` deliberately does **not** call into this
//! module: its symbolic model is the independent static cross-check of the
//! translation, and sharing code with the thing it checks would remove the
//! independence that makes it worth having.

use crate::mem::{sign_extend, Allocation};
use crate::observer::Observer;
use crate::tracebuf::{EventKind, TraceEvent};
use crate::vm::{lock_clean, Backoff, Frame, LoopSync, ThreadCtx, Vm, VmError};
use dse_ir::bytecode::{
    Builtin, CmpOp, FBinOp, FuncInfo, IBinOp, LoopEvent, ParamKind, GLOBAL_BASE,
};
use dse_ir::sites::{AccessKind, SiteId, NO_SITE};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Integer binary op; the error is the trap message.
#[inline]
pub(crate) fn ibin(op: IBinOp, l: i64, r: i64) -> Result<i64, String> {
    Ok(match op {
        IBinOp::Add => l.wrapping_add(r),
        IBinOp::Sub => l.wrapping_sub(r),
        IBinOp::Mul => l.wrapping_mul(r),
        IBinOp::Div => match l.checked_div(r) {
            Some(v) => v,
            None => return Err(format!("division by zero or overflow ({l} / {r})")),
        },
        IBinOp::Rem => match l.checked_rem(r) {
            Some(v) => v,
            None => return Err(format!("remainder by zero or overflow ({l} % {r})")),
        },
        IBinOp::And => l & r,
        IBinOp::Or => l | r,
        IBinOp::Xor => l ^ r,
        IBinOp::Shl => l.wrapping_shl(r as u32 & 63),
        IBinOp::Shr => l.wrapping_shr(r as u32 & 63),
    })
}

/// `l + r * k`, wrapping: the `PushI(k); IBin(Mul); IBin(Add)` of an
/// indexed address, which never traps.
#[inline]
pub(crate) fn add_scaled(l: u64, r: u64, k: i32) -> u64 {
    l.wrapping_add(r.wrapping_mul(k as i64 as u64))
}

/// `sext(v + step, w)`, wrapping: the `i++` of a fused loop back-edge,
/// which never traps.
#[inline]
pub(crate) fn increment(v: i64, step: i32, w: u8) -> i64 {
    sext(v.wrapping_add(step.into()), w)
}

/// Float binary op (IEEE: division by zero yields ±inf/NaN, never a trap).
#[inline]
pub(crate) fn fbin(op: FBinOp, l: f64, r: f64) -> f64 {
    match op {
        FBinOp::Add => l + r,
        FBinOp::Sub => l - r,
        FBinOp::Mul => l * r,
        FBinOp::Div => l / r,
    }
}

/// Integer comparison.
#[inline]
pub(crate) fn icmp(op: CmpOp, l: i64, r: i64) -> bool {
    use std::cmp::Ordering::*;
    let ord = l.cmp(&r);
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// Float comparison (IEEE: every ordered comparison with a NaN is false).
#[inline]
pub(crate) fn fcmp(op: CmpOp, l: f64, r: f64) -> bool {
    match op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Ge => l >= r,
    }
}

#[inline]
pub(crate) fn ineg(v: i64) -> i64 {
    v.wrapping_neg()
}

#[inline]
pub(crate) fn fneg(v: f64) -> f64 {
    -v
}

#[inline]
pub(crate) fn bnot(v: i64) -> i64 {
    !v
}

#[inline]
pub(crate) fn lnot(v: i64) -> i64 {
    (v == 0) as i64
}

#[inline]
pub(crate) fn i2f(v: i64) -> f64 {
    v as f64
}

/// Truncates toward zero, saturating at the `i64` range (NaN gives 0).
#[inline]
pub(crate) fn f2i(v: f64) -> i64 {
    v as i64
}

/// Truncates to `width` bytes and sign-extends back.
#[inline]
pub(crate) fn sext(v: i64, width: u8) -> i64 {
    sign_extend(v as u64, width as u32)
}

/// `fsqrt(x)` over IEEE bits.
#[inline]
pub(crate) fn fsqrt(bits: u64) -> u64 {
    f64::from_bits(bits).sqrt().to_bits()
}

/// `fabs(x)` over IEEE bits.
#[inline]
pub(crate) fn fabs(bits: u64) -> u64 {
    f64::from_bits(bits).abs().to_bits()
}

impl ThreadCtx {
    /// `frame_base + off`: the address of a local slot.
    #[inline]
    pub(crate) fn frame_addr(&self, off: u32) -> u64 {
        self.frame_base + off as u64
    }

    /// `tid * k`: the constant-span redirection offset.
    #[inline]
    pub(crate) fn tid_scaled(&self, k: i64) -> i64 {
        self.tid as i64 * k
    }

    /// `tid * span / z * z`: the dynamic-span redirection offset, rounded
    /// down to a whole element.
    #[inline]
    pub(crate) fn tid_span_scaled(&self, span: i64, z: i64) -> Result<i64, String> {
        if z == 0 {
            return Err("TidSpanScaled with zero element size".into());
        }
        Ok(self.tid as i64 * span / z * z)
    }

    /// `base + tid * stride`: this thread's copy of an expanded variable.
    #[inline]
    pub(crate) fn replica_addr(&self, base: u64, stride: i64) -> i64 {
        base as i64 + self.tid as i64 * stride
    }

    /// [`ThreadCtx::replica_addr`], counted as one redirected private
    /// direct access.
    #[inline]
    pub(crate) fn private_addr(&mut self, base: u64, stride: i64) -> i64 {
        self.counters.private_direct += 1;
        self.replica_addr(base, stride)
    }

    /// The iteration index `depth` levels out from the innermost `ParLoop`.
    #[inline]
    pub(crate) fn iter_idx(&self, depth: u8) -> Result<i64, String> {
        match self.iter_stack.iter().rev().nth(depth as usize) {
            Some(&i) => Ok(i),
            None => Err("IterIdx outside parallel loop body".into()),
        }
    }

    /// Saves what a `Ret` restores. `ret_pc: None` marks a sentinel (the
    /// toplevel `main` activation or a loop-body region): returning through
    /// it ends the current `exec`. `ret_reg` is where the register
    /// interpreter's `Ret` puts a value (unused otherwise).
    pub(crate) fn save_frame(&mut self, ret_pc: Option<u32>, ret_reg: usize) {
        self.frames.push(Frame {
            ret_pc,
            saved_base: self.frame_base,
            saved_sp: self.sp,
            saved_rbase: self.reg_base,
            ret_reg,
            saved_depth: self.ops.len(),
        });
    }

    /// Pops the innermost frame and restores the caller's frame and stack
    /// pointers. The register window stays the callee's until the register
    /// interpreter has placed the result; it restores `saved_rbase` itself.
    #[inline]
    pub(crate) fn pop_frame(&mut self) -> Result<Frame, String> {
        let Some(fr) = self.frames.pop() else {
            return Err("return with empty call stack".into());
        };
        self.frame_base = fr.saved_base;
        self.sp = fr.saved_sp;
        Ok(fr)
    }
}

/// The trap message of a scalar access that failed its checks. Out of line:
/// `load` and `store` are inlined into every memory arm of both dispatch
/// loops, and the formatting machinery would be inlined with them.
#[cold]
#[inline(never)]
fn invalid_access(what: &str, width: u8, addr: u64) -> String {
    format!("invalid {what} of {width} bytes at address {addr}")
}

impl Vm {
    /// True if `[addr, addr+len)` is addressable by the program: inside the
    /// memory and above the null-pointer page. The bulk copies check this
    /// way; a scalar `load`/`store` makes the same two checks but folds the
    /// bounds half into the access itself.
    #[inline]
    fn accessible(&self, addr: u64, len: u64) -> bool {
        addr >= GLOBAL_BASE && self.mem.in_bounds(addr, len)
    }

    /// Loads `width` bytes at `addr`: the canonical register bits of the
    /// value (integers sign-extended, floats raw).
    #[inline(always)]
    pub(crate) fn load<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        sp: u64,
        addr: u64,
        width: u8,
        is_float: bool,
        site: SiteId,
    ) -> Result<u64, String> {
        // The null page, then the one bounds check that `try_read` is. The
        // observer hears of the access once it is known to be valid, as
        // before; that the read has by then happened is invisible to it.
        let checked = if addr < GLOBAL_BASE {
            None
        } else {
            self.mem.try_read(addr, width as u32)
        };
        let Some(raw) = checked else {
            return Err(invalid_access("load", width, addr));
        };
        if site != NO_SITE {
            obs.on_access(site, AccessKind::Load, addr, width as u32, sp);
        }
        Ok(if is_float {
            raw
        } else {
            sign_extend(raw, width as u32) as u64
        })
    }

    /// Stores the low `width` bytes of `bits` at `addr` (truncating).
    #[inline(always)]
    pub(crate) fn store<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        sp: u64,
        addr: u64,
        width: u8,
        site: SiteId,
        bits: u64,
    ) -> Result<(), String> {
        // As in `load`: a store that fails either check writes nothing.
        if addr < GLOBAL_BASE || !self.mem.try_write(addr, width as u32, bits) {
            return Err(invalid_access("store", width, addr));
        }
        if site != NO_SITE {
            obs.on_access(site, AccessKind::Store, addr, width as u32, sp);
        }
        Ok(())
    }

    /// Copies `len` bytes `src -> dst` (memmove semantics); `false` when
    /// either range is not addressable. Shared by the `MemCpy` instruction
    /// and the `__memcpy` builtin, which differ only in their trap text.
    #[inline]
    fn copy<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        sp: u64,
        src: u64,
        dst: u64,
        len: u64,
        (load_site, store_site): (SiteId, SiteId),
    ) -> bool {
        if !self.accessible(src, len) || !self.accessible(dst, len) {
            return false;
        }
        if load_site != NO_SITE {
            obs.on_access(load_site, AccessKind::Load, src, len as u32, sp);
        }
        if store_site != NO_SITE {
            obs.on_access(store_site, AccessKind::Store, dst, len as u32, sp);
        }
        self.mem.copy(src, dst, len);
        true
    }

    /// The `MemCpy` instruction: a `size`-byte aggregate copy.
    #[inline]
    pub(crate) fn memcpy<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        sp: u64,
        src: u64,
        dst: u64,
        size: u32,
        sites: (SiteId, SiteId),
    ) -> Result<(), String> {
        if self.copy(obs, sp, src, dst, size as u64, sites) {
            Ok(())
        } else {
            Err(format!("invalid memcpy of {size} bytes {src} -> {dst}"))
        }
    }

    /// Opens an activation of `callee` on `ctx`'s in-VM stack: checks the
    /// stack has room, zeroes the new frame, saves the return point and
    /// moves the frame and stack pointers. The caller then fills the
    /// parameter slots with [`Vm::write_param`].
    #[inline]
    pub(crate) fn push_frame(
        &self,
        ctx: &mut ThreadCtx,
        callee: &FuncInfo,
        ret_pc: Option<u32>,
        ret_reg: usize,
    ) -> Result<(), String> {
        let new_base = dse_lang::types::round_up(ctx.sp, 8);
        let new_sp = new_base + callee.frame_size as u64;
        if new_sp > ctx.stack_limit {
            return Err(format!("stack overflow calling `{}`", callee.name));
        }
        self.mem.zero(new_base, callee.frame_size as u64);
        ctx.save_frame(ret_pc, ret_reg);
        ctx.frame_base = new_base;
        ctx.sp = new_sp;
        Ok(())
    }

    /// Writes argument `bits` to a parameter slot of the frame
    /// [`Vm::push_frame`] just opened (in bounds by its overflow check).
    #[inline]
    pub(crate) fn write_param(&self, ctx: &ThreadCtx, (off, kind): (u32, ParamKind), bits: u64) {
        self.mem.write(ctx.frame_addr(off), kind.width as u32, bits);
    }

    /// `LoopMark`: a no-op for plain execution, a loop event for observers.
    /// Begin reports the enclosing frame base (so observers can locate
    /// frame-resident variables such as the induction slot);
    /// IterStart/End report the live sp.
    #[inline]
    pub(crate) fn loop_mark<O: Observer + ?Sized>(
        &self,
        ctx: &ThreadCtx,
        obs: &mut O,
        ev: LoopEvent,
        id: u32,
    ) {
        let p = match ev {
            LoopEvent::Begin => ctx.frame_base,
            _ => ctx.sp,
        };
        obs.on_loop(ev, id, p, ctx.counters.work);
    }

    /// `ParLoop`: runs iterations `lo..hi` of loop `id` under the parallel
    /// scheduler. A trap the scheduler itself raises (not one from the
    /// body) carries no pc; it is charged to the `ParLoop` at `pc`.
    pub(crate) fn par_loop(
        &self,
        ctx: &mut ThreadCtx,
        id: u32,
        lo: i64,
        hi: i64,
        pc: u32,
    ) -> Result<(), VmError> {
        self.run_par_loop(ctx, id, lo, hi).map_err(|mut e| {
            if e.pc == u32::MAX {
                e.pc = pc;
            }
            e
        })
    }

    /// The current iteration and its loop's sync state, or the trap
    /// message for an `op` (`Wait`/`Post`) outside a parallel loop body.
    fn doacross_position(ctx: &ThreadCtx, op: &str) -> Result<(i64, u32, Arc<LoopSync>), String> {
        let Some(&my) = ctx.iter_stack.last() else {
            return Err(format!("{op} outside iteration"));
        };
        let Some((loop_id, sync)) = ctx.sync_stack.last() else {
            return Err(format!("{op} outside parallel loop"));
        };
        Ok((my, *loop_id, Arc::clone(sync)))
    }

    /// `Wait`: blocks until every earlier iteration of the innermost
    /// DOACROSS loop has posted, recording the whole wait as one trace
    /// span (not one per spin).
    ///
    /// # Errors
    ///
    /// The trap message: outside a loop body, or a peer worker trapped.
    #[inline]
    pub(crate) fn doacross_wait(&self, ctx: &mut ThreadCtx) -> Result<(), String> {
        ctx.counters.sync_ops += 1;
        if ctx.wait_mark.is_none() {
            ctx.wait_mark = Some(ctx.counters.work);
        }
        let (my, loop_id, sync) = Vm::doacross_position(ctx, "Wait")?;
        let t0 = match (self.trace_sink(), &ctx.trace) {
            (Some(sink), Some(_)) => Some(sink.now_ns()),
            _ => None,
        };
        let mut backoff = Backoff::new();
        while sync.done.load(Ordering::Acquire) < my {
            if sync.abort.load(Ordering::Relaxed) {
                return Err("aborted while waiting (another worker trapped)".into());
            }
            backoff.step(&mut ctx.counters);
        }
        if let (Some(t0), Some(sink)) = (t0, self.trace_sink()) {
            ctx.emit(TraceEvent {
                ts_ns: t0,
                dur_ns: sink.now_ns().saturating_sub(t0),
                a: loop_id as u64,
                b: my as u64,
                tid: ctx.tid,
                kind: EventKind::WaitSpan,
            });
        }
        Ok(())
    }

    /// `Post`: publishes the current iteration's ordered section and
    /// records the post as a trace instant.
    ///
    /// # Errors
    ///
    /// The trap message when executed outside a loop body.
    #[inline]
    pub(crate) fn doacross_post(&self, ctx: &mut ThreadCtx) -> Result<(), String> {
        ctx.counters.sync_ops += 1;
        if ctx.post_mark.is_none() {
            ctx.post_mark = Some(ctx.counters.work);
        }
        let (my, loop_id, sync) = Vm::doacross_position(ctx, "Post")?;
        self.post_iteration(ctx, &sync, my);
        if let (Some(sink), true) = (self.trace_sink(), ctx.trace.is_some()) {
            ctx.emit(TraceEvent {
                ts_ns: sink.now_ns(),
                dur_ns: 0,
                a: loop_id as u64,
                b: my as u64,
                tid: ctx.tid,
                kind: EventKind::Post,
            });
        }
        Ok(())
    }

    /// Posts the ordered section of iteration `my` (idempotent per
    /// iteration via `ctx.posted`).
    pub(crate) fn post_iteration(&self, ctx: &mut ThreadCtx, sync: &LoopSync, my: i64) {
        if ctx.posted {
            return;
        }
        let mut backoff = Backoff::new();
        while sync.done.load(Ordering::Acquire) < my {
            if sync.abort.load(Ordering::Relaxed) {
                // A peer trapped and will never post; bail without posting
                // (the worker notices the abort at its next boundary).
                return;
            }
            backoff.step(&mut ctx.counters);
        }
        sync.done.store(my + 1, Ordering::Release);
        ctx.posted = true;
    }

    /// alloc → zero: the head of every allocation sequence. The block is
    /// announced to observers by [`Vm::publish`] once it holds its bytes.
    fn alloc_zeroed(&self, size: u64) -> Option<Allocation> {
        let a = self.heap.alloc(size)?;
        self.mem.zero(a.base, a.size.max(1));
        Some(a)
    }

    /// The tail of every allocation sequence: retires the block `new`
    /// replaces (a realloc's old block), announces `new` — observers hear
    /// the free before the alloc — and yields the address the builtin
    /// returns.
    fn publish<O: Observer + ?Sized>(
        &self,
        old: Option<Allocation>,
        new: Allocation,
        pc: usize,
        obs: &mut O,
    ) -> u64 {
        if let Some(old) = old {
            self.heap.free(old.base);
            obs.on_free(old);
        }
        obs.on_alloc(new, pc as u32);
        new.base
    }

    /// Executes builtin `b` on `args` (raw bits, typed by
    /// [`Builtin::sig`]) for thread `tid`; yields the result bits (0 for
    /// builtins without a result). `pc` is the stack pc of the call, which
    /// is how observers attribute allocations to source call sites.
    ///
    /// # Errors
    ///
    /// The trap message.
    pub(crate) fn builtin<O: Observer + ?Sized>(
        &self,
        b: Builtin,
        args: &[u64],
        tid: u32,
        pc: usize,
        obs: &mut O,
    ) -> Result<u64, String> {
        debug_assert_eq!(args.len(), b.arity());
        let int = |i: usize| args[i] as i64;
        let float = |i: usize| f64::from_bits(args[i]);
        let oom = |n: u64| format!("out of memory allocating {n} bytes");
        // The live block a realloc replaces; null reallocs replace nothing.
        let replaced = |p: u64, what: &str| match p {
            0 => Ok(None),
            _ => match self.heap.at_base(p) {
                Some(old) => Ok(Some(old)),
                None => Err(format!("{what} of invalid pointer {p}")),
            },
        };
        Ok(match b {
            Builtin::Malloc => {
                let n = int(0);
                if n < 0 {
                    return Err(format!("malloc with negative size {n}"));
                }
                let a = self.alloc_zeroed(n as u64).ok_or_else(|| oom(n as u64))?;
                self.publish(None, a, pc, obs)
            }
            Builtin::Calloc => {
                let (n, m) = (int(0), int(1));
                // Check signs before multiplying: negative * negative is a
                // positive product, so a post-multiplication `t >= 0` filter
                // would happily allocate for calloc(-2, -3).
                if n < 0 || m < 0 {
                    return Err(format!("calloc with negative operand ({n}, {m})"));
                }
                let Some(total) = n.checked_mul(m) else {
                    return Err(format!("calloc size overflow ({n} * {m})"));
                };
                let a = self
                    .alloc_zeroed(total as u64)
                    .ok_or_else(|| oom(total as u64))?;
                self.publish(None, a, pc, obs)
            }
            Builtin::Realloc => {
                let (p, n) = (args[0], int(1));
                if n < 0 {
                    return Err(format!("realloc with negative size {n}"));
                }
                let n = n as u64;
                let old = replaced(p, "realloc")?;
                let a = self.alloc_zeroed(n).ok_or_else(|| oom(n))?;
                if let Some(old) = old {
                    self.mem.copy(old.base, a.base, old.size.min(n));
                }
                self.publish(old, a, pc, obs)
            }
            Builtin::ReallocExpanded => {
                let (p, n, old_span) = (args[0], int(1), int(2));
                if n < 0 || old_span < 0 {
                    return Err("__realloc_expanded with negative size".into());
                }
                let (n, old_span) = (n as u64, old_span as u64);
                let copies = self.config.nthreads as u64;
                let old = replaced(p, "expanded realloc")?;
                // `n` comes from the program: N copies of it must not wrap
                // into a small allocation the replica moves then overrun.
                let a = n
                    .checked_mul(copies)
                    .and_then(|total| self.alloc_zeroed(total))
                    .ok_or("out of memory in expanded realloc")?;
                if let Some(old) = old {
                    // Move each thread's copy to its new position. A replica
                    // whose span runs past the recorded allocation keeps its
                    // in-bounds prefix; a replica starting entirely outside
                    // the allocation means the span metadata is inconsistent
                    // with the allocation, so trap.
                    let keep = old_span.min(n);
                    for t in 0..copies {
                        // `t * n` is bounded by the checked product above;
                        // `old_span` is not, so saturate it out of range.
                        let off = t.saturating_mul(old_span);
                        if off >= old.size {
                            if keep > 0 {
                                return Err(format!(
                                    "__realloc_expanded: replica {t} at offset {off} lies \
                                     outside the old allocation of {} bytes (inconsistent \
                                     span {old_span})",
                                    old.size
                                ));
                            }
                            continue;
                        }
                        self.mem
                            .copy(old.base + off, a.base + t * n, keep.min(old.size - off));
                    }
                }
                self.publish(old, a, pc, obs)
            }
            Builtin::Free => {
                let p = args[0];
                if p != 0 {
                    match self.heap.free(p) {
                        Some(a) => obs.on_free(a),
                        None => return Err(format!("free of invalid pointer {p}")),
                    }
                }
                0
            }
            Builtin::InLong => {
                let i = int(0);
                let v = usize::try_from(i)
                    .ok()
                    .and_then(|i| self.config.inputs_int.get(i));
                *v.ok_or_else(|| format!("in_long({i}) out of range"))? as u64
            }
            Builtin::InFloat => {
                let i = int(0);
                let v = usize::try_from(i)
                    .ok()
                    .and_then(|i| self.config.inputs_float.get(i));
                v.ok_or_else(|| format!("in_float({i}) out of range"))?
                    .to_bits()
            }
            Builtin::InLen => self.config.inputs_int.len() as u64,
            Builtin::OutLong => {
                lock_clean(&self.outputs_int).push(int(0));
                0
            }
            Builtin::OutFloat => {
                lock_clean(&self.outputs_float).push(float(0));
                0
            }
            Builtin::PrintLong => {
                let _ = writeln!(lock_clean(&self.console), "{}", int(0));
                0
            }
            Builtin::PrintFloat => {
                let _ = writeln!(lock_clean(&self.console), "{}", float(0));
                0
            }
            Builtin::Fsqrt => fsqrt(args[0]),
            Builtin::Fabs => fabs(args[0]),
            Builtin::MemCpy => {
                let (dst, src, n) = (args[0], args[1], int(2));
                if n < 0 {
                    return Err(format!("__memcpy with negative length {n}"));
                }
                let n = n as u64;
                if !self.copy(obs, 0, src, dst, n, (NO_SITE, NO_SITE)) {
                    return Err(format!(
                        "__memcpy out of bounds ({src} -> {dst}, {n} bytes)"
                    ));
                }
                0
            }
            Builtin::Tid => tid as u64,
            Builtin::NThreads => self.config.nthreads as u64,
        })
    }
}
