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

use crate::observer::{NullObserver, Observer};
use crate::pool::{DoallShares, LoopDispatch};
use crate::tracebuf::{EventKind, TraceEvent};
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

        // The pool exists iff `nthreads > 1`, and is open for the whole of
        // `Vm::run` — the only way execution gets here.
        let pool = match self.pool() {
            Some(pool) if !ctx.in_parallel => pool,
            _ => return self.run_inline(ctx, id, body, lo, hi, &sync),
        };

        let n = self.config.nthreads;
        // Wall time per dynamic loop entry, attributed by the master
        // (profiling only; `Instant::now` is off the disabled path).
        let wall_t0 = ctx.prof.is_some().then(Instant::now);
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
            sync: Arc::clone(&sync),
            shares: (mode == ParMode::DoAll).then(|| DoallShares::new(lo, hi, n)),
            err: Mutex::new(None),
        });

        pool.begin(Arc::clone(&d));
        self.master_share(ctx, &d);
        pool.wait_done();
        if let (Some(t0), Some(p)) = (wall_t0, ctx.prof.as_deref_mut()) {
            let prev = p.enter_loop(id);
            p.add_wall(t0.elapsed().as_nanos() as u64);
            p.exit_loop(prev);
        }
        let first_err = lock_clean(&d.err).take();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Emits one worker's participation span for a loop (and a trap
    /// instant if the worker itself trapped — abort-induced bailouts of
    /// its peers carry the `u32::MAX` sentinel pc and are skipped).
    fn trace_loop_span(
        &self,
        ctx: &mut ThreadCtx,
        loop_id: u32,
        t0: Option<u64>,
        err: Option<&VmError>,
    ) {
        let Some(sink) = self.trace_sink() else {
            return;
        };
        let now = sink.now_ns();
        if let Some(t0) = t0 {
            let ev = TraceEvent {
                ts_ns: t0,
                dur_ns: now.saturating_sub(t0),
                a: loop_id as u64,
                b: 0,
                tid: ctx.tid,
                kind: EventKind::LoopRun,
            };
            ctx.emit(ev);
        }
        if let Some(e) = err {
            if e.pc != u32::MAX {
                let ev = TraceEvent {
                    ts_ns: now,
                    dur_ns: 0,
                    a: e.pc as u64,
                    b: loop_id as u64,
                    tid: ctx.tid,
                    kind: EventKind::Trap,
                };
                ctx.emit(ev);
            }
        }
    }

    /// Inline serial execution on the current thread (nested loops and
    /// single-threaded runs). The loop is marked "in parallel" for its
    /// duration so nested candidate loops neither re-enter the scheduler
    /// nor record their own iteration costs (their cost is part of this
    /// loop's iterations; double-recording would skew the simulator's
    /// serial-remainder accounting).
    fn run_inline(
        &self,
        ctx: &mut ThreadCtx,
        id: u32,
        body: u32,
        lo: i64,
        hi: i64,
        sync: &Arc<LoopSync>,
    ) -> Result<(), VmError> {
        let record = self.config.record_iteration_costs && !ctx.in_parallel;
        // Costs are buffered locally and flushed once per loop: the trace
        // map's mutex is off the per-iteration path.
        let mut costs: Vec<crate::vm::IterCost> = Vec::new();
        let was_in_parallel = ctx.in_parallel;
        ctx.in_parallel = true;
        // An enclosing loop's iteration is in flight when this one is
        // nested: the iterations below overwrite its ordering state.
        let enclosing = (ctx.posted, ctx.wait_mark, ctx.post_mark);
        ctx.sync_stack.push((id, Arc::clone(sync)));
        let prof_prev = ctx.prof.as_deref_mut().map(|p| p.enter_loop(id));
        let wall_t0 = ctx.prof.is_some().then(Instant::now);
        let span_t0 = match (self.trace_sink(), &ctx.trace) {
            (Some(sink), Some(_)) => Some(sink.now_ns()),
            _ => None,
        };
        let mut obs = NullObserver;
        let mut result = Ok(());
        for i in lo..hi {
            ctx.iter_stack.push(i);
            ctx.posted = false;
            let start = ctx.counters;
            ctx.wait_mark = None;
            ctx.post_mark = None;
            let r = self.exec_region(ctx, body, &mut obs);
            ctx.iter_stack.pop();
            if let Some(p) = ctx.prof.as_deref_mut() {
                p.record_iter(ctx.counters.work - start.work);
            }
            if record {
                let end = ctx.counters.work;
                let wait = ctx.wait_mark.unwrap_or(end).clamp(start.work, end);
                let post = ctx.post_mark.unwrap_or(end).clamp(wait, end);
                costs.push(crate::vm::IterCost {
                    pre: wait - start.work,
                    window: post - wait,
                    post: end - post,
                    localize_calls: ctx.counters.localize_calls - start.localize_calls,
                    localize_bytes: ctx.counters.localize_copied_bytes
                        - start.localize_copied_bytes,
                    private_direct: ctx.counters.private_direct - start.private_direct,
                });
            }
            if let Err(e) = r {
                result = Err(e);
                break;
            }
            self.post_iteration(ctx, sync, i);
        }
        if record {
            // One vector per dynamic entry, partial on error (matching the
            // iterations that actually ran).
            lock_clean(&self.iter_trace)
                .entry(id)
                .or_default()
                .push(costs);
        }
        if let Some(prev) = prof_prev {
            let wall = wall_t0.expect("profiling measured wall").elapsed();
            let p = ctx.prof.as_deref_mut().expect("profiler armed");
            p.add_wall(wall.as_nanos() as u64);
            p.exit_loop(prev);
        }
        self.trace_loop_span(ctx, id, span_t0, result.as_ref().err());
        ctx.sync_stack.pop();
        ctx.in_parallel = was_in_parallel;
        (ctx.posted, ctx.wait_mark, ctx.post_mark) = enclosing;
        // A nested loop's end is the middle of an enclosing iteration,
        // whose private copies are still in use.
        if !was_in_parallel {
            self.commit_private_copies(ctx);
        }
        result
    }

    /// The master's participation in a dispatched loop (worker 0, on its
    /// own live context).
    fn master_share(&self, ctx: &mut ThreadCtx, d: &LoopDispatch) {
        ctx.in_parallel = true;
        ctx.sync_stack.push((d.id, Arc::clone(&d.sync)));
        let prof_prev = ctx.prof.as_deref_mut().map(|p| p.enter_loop(d.id));
        let span_t0 = match (self.trace_sink(), &ctx.trace) {
            (Some(sink), Some(_)) => Some(sink.now_ns()),
            _ => None,
        };
        let r = self.worker_loop(ctx, d, 0);
        if let Some(prev) = prof_prev {
            ctx.prof
                .as_deref_mut()
                .expect("profiler armed")
                .exit_loop(prev);
        }
        self.trace_loop_span(ctx, d.id, span_t0, r.as_ref().err());
        ctx.sync_stack.pop();
        ctx.in_parallel = false;
        self.commit_private_copies(ctx);
        if let Err(e) = r {
            record_error(&d.err, e);
        }
    }

    /// One non-master worker's participation: reset the pooled context
    /// for this dispatch, run, commit privatized copies, flush
    /// counters to the lock-free per-worker slot.
    fn worker_share(&self, wctx: &mut ThreadCtx, d: &LoopDispatch, wid: u32) {
        wctx.reset_for_dispatch(d.frame_base);
        self.arm_instruments(wctx);
        wctx.sync_stack.push((d.id, Arc::clone(&d.sync)));
        let prof_prev = wctx.prof.as_deref_mut().map(|p| p.enter_loop(d.id));
        let span_t0 = match (self.trace_sink(), &wctx.trace) {
            (Some(sink), Some(_)) => Some(sink.now_ns()),
            _ => None,
        };
        let r = self.worker_loop(wctx, d, wid);
        if let Some(prev) = prof_prev {
            wctx.prof
                .as_deref_mut()
                .expect("profiler armed")
                .exit_loop(prev);
        }
        self.trace_loop_span(wctx, d.id, span_t0, r.as_ref().err());
        wctx.sync_stack.pop();
        self.commit_private_copies(wctx);
        self.flush_worker_counters(wid, wctx);
        // Ring drain and profile merge ride the same once-per-dispatch
        // boundary as the counter flush.
        self.drain_instruments(wctx);
        if let Err(e) = r {
            record_error(&d.err, e);
        }
    }

    /// Pool-dispatch entry: runs `worker_share` on worker `wid`'s
    /// persistent context (called from [`crate::pool::worker_entry`]).
    pub(crate) fn run_dispatch_worker(&self, wid: u32, d: &LoopDispatch) {
        let pool = self.pool().expect("pool dispatch without a pool");
        let mut wctx = pool.ctx(wid).lock().unwrap();
        self.worker_share(&mut wctx, d, wid);
    }

    /// One worker's share of the loop. Sets the abort flag before returning
    /// an error so peers spinning in `Wait` escape.
    fn worker_loop(&self, ctx: &mut ThreadCtx, d: &LoopDispatch, wid: u32) -> Result<(), VmError> {
        let res = match d.mode {
            ParMode::DoAll => self.doall_stealing(ctx, d, wid),
            ParMode::DoAcross => self.doacross(ctx, d),
        };
        if res.is_err() {
            d.sync.abort.store(true, Ordering::Relaxed);
        }
        res
    }

    /// Runs the chunk `[s, e)` of a DOALL loop, checking the abort flag
    /// before each iteration.
    fn run_chunk(
        &self,
        ctx: &mut ThreadCtx,
        d: &LoopDispatch,
        s: i64,
        e: i64,
    ) -> Result<(), VmError> {
        let mut obs = NullObserver;
        for i in s..e {
            if d.sync.abort.load(Ordering::Relaxed) {
                return Err(VmError::new(u32::MAX as usize, ABORTED));
            }
            ctx.iter_stack.push(i);
            let w0 = ctx.counters.work;
            let step = self.exec_region(ctx, d.body, &mut obs);
            ctx.iter_stack.pop();
            if let Some(p) = ctx.prof.as_deref_mut() {
                p.record_iter(ctx.counters.work - w0);
            }
            step?;
        }
        Ok(())
    }

    /// DOALL: run every claim the loop's shares hand this worker, counting
    /// (and tracing) the ones a steal produced.
    fn doall_stealing(
        &self,
        ctx: &mut ThreadCtx,
        d: &LoopDispatch,
        wid: u32,
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
            self.run_chunk(ctx, d, claim.lo, claim.hi)?;
        }
        Ok(())
    }

    /// DOACROSS: ordered chunk-1 claiming through the shared counter, with
    /// `Wait`/post cross-iteration ordering.
    fn doacross(&self, ctx: &mut ThreadCtx, d: &LoopDispatch) -> Result<(), VmError> {
        let mut obs = NullObserver;
        loop {
            let i = d.sync.next.fetch_add(1, Ordering::Relaxed);
            if i >= d.hi {
                return Ok(());
            }
            if d.sync.abort.load(Ordering::Relaxed) {
                return Err(VmError::new(u32::MAX as usize, ABORTED));
            }
            ctx.iter_stack.push(i);
            ctx.posted = false;
            let w0 = ctx.counters.work;
            let step = self.exec_region(ctx, d.body, &mut obs);
            if step.is_ok() {
                self.post_iteration(ctx, &d.sync, i);
            }
            ctx.iter_stack.pop();
            if let Some(p) = ctx.prof.as_deref_mut() {
                p.record_iter(ctx.counters.work - w0);
            }
            step?;
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
