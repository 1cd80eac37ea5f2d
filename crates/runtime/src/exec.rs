//! The parallel loop executor (the GOMP stand-in).
//!
//! `ParLoop` hands an iteration range to the loop runner:
//!
//! * **DOALL** uses chunked dynamic scheduling with work stealing: each
//!   worker runs whatever [`DoallShares::claim`] hands it until that
//!   returns `None` (the policy itself lives in [`crate::pool`]).
//! * **DOACROSS** uses dynamic scheduling with chunk size 1: workers claim
//!   iterations in order from a shared counter; `Wait`/`Post` (or the
//!   automatic end-of-iteration post) enforce cross-iteration ordering.
//!
//! Worker threads come from the persistent pool `Vm::run` keeps parked
//! between loops.
//!
//! Thread 0 is the master: it participates as a worker with its own
//! existing context (so its frame pointer still addresses the enclosing
//! function's frame), while workers 1..N run on their own stack regions
//! that share the master's `frame_base` — the "thread-private stacks" of
//! real OpenMP threads.
//!
//! Nested `ParLoop`s (or runs configured with one thread) execute inline on
//! the current thread, preserving semantics and letting the overhead
//! experiments of Figure 9 run transformed code serially.
//!
//! Every way of running a loop is a *share* — one thread's part of one
//! loop — opened by `Vm::enter_share`, closed by `Vm::leave_share`, and
//! run one iteration at a time by `Vm::run_iteration`: the master's
//! and each worker's share of a dispatch, and an inline run.

use crate::observer::{NullObserver, Observer};
use crate::pool::{DoallShares, LoopDispatch};
use crate::prof::IterCost;
use crate::tracebuf::{EventKind, TraceEvent, TraceSink};
use crate::vm::{lock_clean, LoopSync, ThreadCtx, Vm, VmError};
use dse_ir::loops::ParMode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// Marker in abort-induced errors, so a worker's real trap is preferred
/// over the "I was told to stop" errors of its peers.
const ABORTED: &str = "aborted: another worker trapped";

fn record_error(slot: &Mutex<Option<VmError>>, e: VmError) {
    let mut g = lock_clean(slot);
    match &*g {
        None => *g = Some(e),
        Some(prev) if prev.msg.contains(ABORTED) && !e.msg.contains(ABORTED) => *g = Some(e),
        _ => {}
    }
}

/// The error a worker stops with when a peer trapped.
fn aborted(sync: &LoopSync) -> Result<(), VmError> {
    if sync.abort.load(Ordering::Relaxed) {
        return Err(VmError::new(u32::MAX as usize, ABORTED));
    }
    Ok(())
}

/// One thread's share of one loop, from [`Vm::enter_share`] to
/// [`Vm::leave_share`]: what [`Vm::run_iteration`] runs an iteration
/// with, and what it accumulates.
struct Share<'a> {
    id: u32,
    /// Resolved entry pc of the loop body.
    body: u32,
    /// DOACROSS: an iteration posts its ordered section when it ends.
    ordered: bool,
    sync: &'a Arc<LoopSync>,
    /// Not nested inside an iteration of another loop on this thread.
    outermost: bool,
    /// The enclosing iteration's ordering state (`posted`, `wait_mark`,
    /// `post_mark`), which a nested share's iterations overwrite.
    enclosing: (bool, Option<u64>, Option<u64>),
    /// The loop the profiler charged before this share (profiling only).
    prof_prev: Option<u32>,
    /// Start of the `LoopRun` span (tracing only).
    span_t0: Option<u64>,
    /// Iterations this thread ran.
    iters: u64,
    /// Their costs, kept when profiling an outermost share.
    costs: Option<Vec<IterCost>>,
}

impl Vm {
    /// Executes candidate loop `id` for iterations `lo..hi`.
    pub(crate) fn run_par_loop(
        &self,
        ctx: &mut ThreadCtx,
        id: u32,
        lo: i64,
        hi: i64,
    ) -> Result<(), VmError> {
        if lo >= hi {
            return Ok(());
        }
        let lc = &self.program.loops[id as usize];
        let mode = lc.mode.unwrap_or(ParMode::DoAll);
        // Resolved here, once per loop: every iteration enters through it.
        let body = self.resolve_entry(lc.body_entry)?;
        let sync = Arc::new(LoopSync::new(lo));
        // Wall time per dynamic loop entry, attributed by the thread that
        // entered it (profiling only; `Instant::now` is off the disabled
        // path).
        let wall_t0 = ctx.prof.is_some().then(Instant::now);

        let r = match self.pool() {
            // The pool exists iff `nthreads > 1`, and is open for the whole
            // of `Vm::run` — the only way execution gets here.
            Some(pool) if !ctx.in_parallel => {
                let n = self.config.nthreads;
                if let (Some(sink), true) = (self.trace_sink(), ctx.trace.is_some()) {
                    let ev = TraceEvent {
                        ts_ns: sink.now_ns(),
                        dur_ns: 0,
                        a: id as u64,
                        b: n as u64,
                        tid: ctx.tid,
                        kind: EventKind::Dispatch,
                    };
                    ctx.emit(ev);
                }
                let d = Arc::new(LoopDispatch {
                    id,
                    mode,
                    body,
                    hi,
                    frame_base: ctx.frame_base,
                    sync,
                    shares: (mode == ParMode::DoAll).then(|| DoallShares::new(lo, hi, n)),
                    err: Mutex::new(None),
                });
                pool.begin(Arc::clone(&d));
                self.dispatched_share(ctx, &d, 0);
                pool.wait_done();
                let first_err = lock_clean(&d.err).take();
                first_err.map_or(Ok(()), Err)
            }
            // Nested loops, and every loop of a single-threaded run, run
            // inline on the current thread.
            _ => {
                let mut share = self.enter_share(ctx, id, body, mode, &sync);
                let r = (lo..hi).try_for_each(|i| self.run_iteration(ctx, &mut share, i));
                self.leave_share(ctx, share, r.as_ref().err());
                r
            }
        };
        if let (Some(t0), Some(p)) = (wall_t0, ctx.prof.as_deref_mut()) {
            p.add_wall(id, t0.elapsed().as_nanos() as u64);
        }
        r
    }

    /// Opens this thread's share of loop `id`. The context is marked as
    /// inside a loop for the share's duration, so a nested candidate loop
    /// neither re-enters the scheduler nor records its own iteration costs
    /// (its cost is part of this loop's iterations; recording it twice
    /// would skew the simulator's serial-remainder accounting). Pushes the
    /// loop's ordering state, switches the profiler's attribution and
    /// starts the `LoopRun` span.
    fn enter_share<'a>(
        &self,
        ctx: &mut ThreadCtx,
        id: u32,
        body: u32,
        mode: ParMode,
        sync: &'a Arc<LoopSync>,
    ) -> Share<'a> {
        let outermost = !ctx.in_parallel;
        ctx.in_parallel = true;
        ctx.sync_stack.push((id, Arc::clone(sync)));
        let prof_prev = ctx.prof.as_deref_mut().map(|p| p.enter_loop(id));
        let span_t0 = self.trace_sink().filter(|_| ctx.trace.is_some());
        Share {
            id,
            body,
            ordered: mode == ParMode::DoAcross,
            sync,
            outermost,
            enclosing: (ctx.posted, ctx.wait_mark, ctx.post_mark),
            prof_prev,
            span_t0: span_t0.map(TraceSink::now_ns),
            iters: 0,
            costs: (outermost && prof_prev.is_some()).then(Vec::new),
        }
    }

    /// Closes a share [`Vm::enter_share`] opened: records its iterations
    /// (and their costs) in the profile, emits its `LoopRun` span — plus a
    /// trap instant if this thread itself trapped; abort-induced bailouts
    /// carry the `u32::MAX` sentinel pc and are skipped — and restores what
    /// the entry changed. An outermost share commits its privatized
    /// copies; a nested one ends in the middle of an enclosing iteration,
    /// whose copies are still in use.
    fn leave_share(&self, ctx: &mut ThreadCtx, share: Share, err: Option<&VmError>) {
        if let Some(prev) = share.prof_prev {
            let p = ctx.prof.as_deref_mut().expect("profiler armed");
            p.exit_loop(prev, share.iters, share.costs);
        }
        if let Some(sink) = self.trace_sink() {
            let now = sink.now_ns();
            if let Some(t0) = share.span_t0 {
                let ev = TraceEvent {
                    ts_ns: t0,
                    dur_ns: now.saturating_sub(t0),
                    a: share.id as u64,
                    b: share.iters,
                    tid: ctx.tid,
                    kind: EventKind::LoopRun,
                };
                ctx.emit(ev);
            }
            if let Some(e) = err.filter(|e| e.pc != u32::MAX) {
                let ev = TraceEvent {
                    ts_ns: now,
                    dur_ns: 0,
                    a: e.pc as u64,
                    b: share.id as u64,
                    tid: ctx.tid,
                    kind: EventKind::Trap,
                };
                ctx.emit(ev);
            }
        }
        ctx.sync_stack.pop();
        ctx.in_parallel = !share.outermost;
        (ctx.posted, ctx.wait_mark, ctx.post_mark) = share.enclosing;
        if share.outermost {
            self.commit_private_copies(ctx);
        }
    }

    /// Runs iteration `i` of a share's loop — the body, then for a DOACROSS
    /// loop the end-of-iteration post — and records what it cost.
    fn run_iteration(&self, ctx: &mut ThreadCtx, share: &mut Share, i: i64) -> Result<(), VmError> {
        ctx.iter_stack.push(i);
        ctx.posted = false;
        ctx.wait_mark = None;
        ctx.post_mark = None;
        let start = ctx.counters;
        let r = self.exec_region(ctx, share.body, &mut NullObserver);
        if share.ordered && r.is_ok() {
            self.post_iteration(ctx, share.sync, i);
        }
        ctx.iter_stack.pop();
        share.iters += 1;
        if let Some(costs) = share.costs.as_mut() {
            let end = &ctx.counters;
            let wait = ctx
                .wait_mark
                .unwrap_or(end.work)
                .clamp(start.work, end.work);
            let post = ctx.post_mark.unwrap_or(end.work).clamp(wait, end.work);
            costs.push(IterCost {
                pre: wait - start.work,
                window: post - wait,
                post: end.work - post,
                localize_calls: end.localize_calls - start.localize_calls,
                localize_bytes: end.localize_copied_bytes - start.localize_copied_bytes,
                private_direct: end.private_direct - start.private_direct,
            });
        }
        r
    }

    /// Pool-dispatch entry: worker `wid`'s share on its persistent context
    /// (called from [`crate::pool::worker_entry`]). The context is reset
    /// for this dispatch; counters, ring and profile flush at its end.
    pub(crate) fn run_dispatch_worker(&self, wid: u32, d: &LoopDispatch) {
        let pool = self.pool().expect("pool dispatch without a pool");
        let mut wctx = pool.ctx(wid).lock().unwrap();
        wctx.reset_for_dispatch(d.frame_base);
        self.arm_instruments(&mut wctx);
        self.dispatched_share(&mut wctx, d, wid);
        self.flush_worker_counters(wid, &mut wctx);
        // Ring drain and profile merge ride the same once-per-dispatch
        // boundary as the counter flush.
        self.drain_instruments(&mut wctx);
    }

    /// Worker `wid`'s share of a dispatched loop (the master is worker 0,
    /// on its own live context). A trap sets the abort flag, so peers
    /// spinning in `Wait` escape, and lands in the dispatch's error slot.
    fn dispatched_share(&self, ctx: &mut ThreadCtx, d: &LoopDispatch, wid: u32) {
        let mut share = self.enter_share(ctx, d.id, d.body, d.mode, &d.sync);
        let r = match d.mode {
            ParMode::DoAll => self.doall_stealing(ctx, d, wid, &mut share),
            ParMode::DoAcross => self.doacross(ctx, d.hi, &mut share),
        };
        let err = r.err();
        if err.is_some() {
            d.sync.abort.store(true, Ordering::Relaxed);
        }
        self.leave_share(ctx, share, err.as_ref());
        if let Some(e) = err {
            record_error(&d.err, e);
        }
    }

    /// DOALL: run every claim the loop's shares hand this worker, counting
    /// (and tracing) the ones a steal produced, and checking the abort
    /// flag before each iteration.
    fn doall_stealing(
        &self,
        ctx: &mut ThreadCtx,
        d: &LoopDispatch,
        wid: u32,
        share: &mut Share,
    ) -> Result<(), VmError> {
        let shares = d.shares.as_ref().expect("a DOALL dispatch has shares");
        while let Some(claim) = shares.claim(wid) {
            if let Some(victim) = claim.stolen_from {
                if let Some(pool) = self.pool() {
                    pool.counters.steals.fetch_add(1, Ordering::Relaxed);
                }
                if let (Some(sink), true) = (self.trace_sink(), ctx.trace.is_some()) {
                    let ev = TraceEvent {
                        ts_ns: sink.now_ns(),
                        dur_ns: 0,
                        a: d.id as u64,
                        b: victim as u64,
                        tid: ctx.tid,
                        kind: EventKind::Steal,
                    };
                    ctx.emit(ev);
                }
            }
            for i in claim.lo..claim.hi {
                aborted(share.sync)?;
                self.run_iteration(ctx, share, i)?;
            }
        }
        Ok(())
    }

    /// DOACROSS: ordered chunk-1 claiming of iterations below `hi` through
    /// the shared counter, with `Wait`/post cross-iteration ordering.
    fn doacross(&self, ctx: &mut ThreadCtx, hi: i64, share: &mut Share) -> Result<(), VmError> {
        loop {
            let i = share.sync.next.fetch_add(1, Ordering::Relaxed);
            if i >= hi {
                return Ok(());
            }
            aborted(share.sync)?;
            self.run_iteration(ctx, share, i)?;
        }
    }

    /// Runs the outlined body region at the resolved pc `entry`
    /// ([`Vm::resolve_entry`]) to its `Ret`.
    pub(crate) fn exec_region<O: Observer + ?Sized>(
        &self,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut O,
    ) -> Result<(), VmError> {
        // A sentinel, not an activation: the region runs in the enclosing
        // function's frame.
        ctx.save_frame(None, 0);
        let v = self.exec(ctx, entry, obs)?;
        debug_assert!(v.is_none(), "loop body regions return no value");
        Ok(())
    }
}
