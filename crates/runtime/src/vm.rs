//! The bytecode interpreter.
//!
//! One [`Vm`] owns the shared memory, heap and compiled program; each OS
//! thread executing inside it owns a [`ThreadCtx`] (operand stack, call
//! stack, stack region, counters). The master thread runs `main`; parallel
//! loop regions are driven by the executor in [`crate::exec`].

use crate::alloc::HeapContention;
use crate::backend::{Backend, BackendKind};
use crate::mem::{Heap, SharedMem};
use crate::observer::Observer;
use crate::ops;
use crate::pool::{PoolState, PoolStats};
use crate::privatize::PrivCopy;
use crate::prof::{class_of, LoopProfile, ProfState};
use crate::tracebuf::{EventBuf, TraceEvent, TraceSink, RING_CAPACITY};
use dse_ir::bytecode::*;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// A value on the operand stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer or pointer.
    I(i64),
    /// Float.
    F(f64),
}

impl Value {
    /// The raw bit pattern of the payload (the untagged representation
    /// [`crate::ops`] and the register file use: floats as IEEE bits,
    /// integers as two's complement).
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
        }
    }

    /// Re-tags raw bits: the inverse of [`Value::to_bits`].
    pub fn from_bits(bits: u64, is_float: bool) -> Value {
        if is_float {
            Value::F(f64::from_bits(bits))
        } else {
            Value::I(bits as i64)
        }
    }

    /// True for [`Value::F`].
    pub fn is_float(self) -> bool {
        matches!(self, Value::F(_))
    }
}

/// Locks a mutex, recovering the data if a previous holder panicked. All
/// VM-owned locks guard plain data (output vectors, maps) whose invariants
/// hold between mutations, so a poisoned lock is safe to clear — and a
/// panicking worker must not make every later request on a shared `Vm` or
/// daemon fail with a `PoisonError`.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-thread cost counters, in the categories of the paper's Figure 12.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Ordinary instructions executed ("work").
    pub work: u64,
    /// Spin iterations inside `Wait`/post ordering and scheduler barriers
    /// (the paper's `do_wait` + `cpu_relax` bucket).
    pub wait_spins: u64,
    /// Spin-to-yield transitions: waits that exhausted their spin budget
    /// and fell back to `yield_now` (each yield counts once).
    pub wait_yields: u64,
    /// `Wait`/`Post` instructions executed (synchronization calls).
    pub sync_ops: u64,
    /// Runtime-privatization address translations performed.
    pub localize_calls: u64,
    /// Bytes copied in/out by runtime privatization.
    pub localize_copied_bytes: u64,
    /// Tid-strided addresses formed (`v[tid]` addressing). The *stack*
    /// encoding defines it: there it is the number of redirected private
    /// direct accesses executed, which the baseline cost model charges as
    /// SpiceC's full access monitoring. Like `work`, it depends on the
    /// encoding: the register backend forms no address for a replica it
    /// keeps in a register, so it reads at most the stack count.
    pub private_direct: u64,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        self.work += other.work;
        self.wait_spins += other.wait_spins;
        self.wait_yields += other.wait_yields;
        self.sync_ops += other.sync_ops;
        self.localize_calls += other.localize_calls;
        self.localize_copied_bytes += other.localize_copied_bytes;
        self.private_direct += other.private_direct;
    }
}

/// A worker's lock-free counter slot: workers add their dispatch-local
/// deltas at loop end, the master reads a snapshot at report time. One
/// cache line per worker so flushes do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct AtomicCounters {
    work: AtomicU64,
    wait_spins: AtomicU64,
    wait_yields: AtomicU64,
    sync_ops: AtomicU64,
    localize_calls: AtomicU64,
    localize_copied_bytes: AtomicU64,
    private_direct: AtomicU64,
}

impl AtomicCounters {
    pub(crate) fn add(&self, c: &Counters) {
        self.work.fetch_add(c.work, Ordering::Relaxed);
        self.wait_spins.fetch_add(c.wait_spins, Ordering::Relaxed);
        self.wait_yields.fetch_add(c.wait_yields, Ordering::Relaxed);
        self.sync_ops.fetch_add(c.sync_ops, Ordering::Relaxed);
        self.localize_calls
            .fetch_add(c.localize_calls, Ordering::Relaxed);
        self.localize_copied_bytes
            .fetch_add(c.localize_copied_bytes, Ordering::Relaxed);
        self.private_direct
            .fetch_add(c.private_direct, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> Counters {
        Counters {
            work: self.work.load(Ordering::Relaxed),
            wait_spins: self.wait_spins.load(Ordering::Relaxed),
            wait_yields: self.wait_yields.load(Ordering::Relaxed),
            sync_ops: self.sync_ops.load(Ordering::Relaxed),
            localize_calls: self.localize_calls.load(Ordering::Relaxed),
            localize_copied_bytes: self.localize_copied_bytes.load(Ordering::Relaxed),
            private_direct: self.private_direct.load(Ordering::Relaxed),
        }
    }
}

/// A VM trap (runtime error) with the program counter where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// Human-readable description.
    pub msg: String,
}

impl VmError {
    pub(crate) fn new(pc: usize, msg: impl Into<String>) -> Self {
        VmError {
            pc: pc as u32,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm trap at pc {}: {}", self.pc, self.msg)
    }
}

impl std::error::Error for VmError {}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Size of the VM's address space in bytes: a limit on the addresses a
    /// program may use, not a cost. The arena is one zeroed allocation
    /// ([`SharedMem::new`]) that the VM never pre-writes, so the kernel
    /// commits only the pages a run touches. That holds while the arena is
    /// its own mapping, as the 64 MiB default always is (glibc's adaptive
    /// mmap threshold tops out at 32 MiB); a small arena, as in tests, may
    /// be recycled from the process heap and zeroed there by `calloc` —
    /// correct, just O(`mem_bytes`) again.
    pub mem_bytes: u64,
    /// Per-thread stack region size in bytes.
    pub stack_bytes: u64,
    /// Number of worker threads N (thread 0 is the master); serial runs
    /// use one. Expanded programs must be run with the same N they were
    /// transformed for.
    pub nthreads: u32,
    /// Host-provided integer inputs, read by `in_long(i)`.
    pub inputs_int: Vec<i64>,
    /// Host-provided float inputs, read by `in_float(i)`.
    pub inputs_float: Vec<f64>,
    /// Trap after this many instructions on any one thread (runaway guard).
    pub max_instructions: u64,
    /// Instruction encoding/interpreter the run executes with: the
    /// reference stack interpreter or the register backend (see
    /// [`crate::backend`]). Defaults from the `DSE_EXEC_BACKEND`
    /// environment variable (`stack`/`reg`), falling back to `Stack`.
    pub backend: BackendKind,
    /// Record runtime trace events (dispatch/steal/park/wake, loop spans,
    /// DOACROSS wait/post, allocator slow paths) into per-worker ring
    /// buffers of [`RING_CAPACITY`] events. Always compiled in, off by
    /// default; see [`crate::tracebuf`].
    pub trace: bool,
    /// Keep the loop record ([`Vm::profile`]): every retired instruction
    /// attributed to (loop id, opcode class), iteration counts, and the
    /// exact cost of every outermost iteration — what `dsec profile`
    /// prints and the multicore schedule simulator replays (the host may
    /// not have 8 physical cores; the paper's Opteron did). See
    /// [`crate::prof`].
    pub profile: bool,
    /// Refuse to execute a register translation that has not been marked
    /// verified by the backend verifier (`dse-verify`'s `DSE010`–`DSE015`
    /// passes). Only meaningful with [`VmConfig::backend`] `Reg` and a
    /// pre-translated module; translations made by the VM itself have no
    /// verification channel and are rejected outright under strict.
    pub strict: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            mem_bytes: 64 << 20,
            stack_bytes: 1 << 20,
            nthreads: 1,
            inputs_int: Vec::new(),
            inputs_float: Vec::new(),
            max_instructions: u64::MAX,
            backend: BackendKind::from_env(),
            trace: false,
            profile: false,
            strict: false,
        }
    }
}

/// Cross-iteration synchronization state for one executing parallel loop.
#[derive(Debug)]
pub(crate) struct LoopSync {
    /// Next iteration to hand out (DOACROSS dynamic scheduling).
    pub next: AtomicI64,
    /// All iterations `< done` have posted their ordered section.
    pub done: AtomicI64,
    /// Set when any worker trapped; others abandon promptly.
    pub abort: AtomicBool,
}

impl LoopSync {
    pub(crate) fn new(lo: i64) -> Self {
        LoopSync {
            next: AtomicI64::new(lo),
            done: AtomicI64::new(lo),
            abort: AtomicBool::new(false),
        }
    }
}

/// Spin iterations before a waiting worker starts yielding its timeslice.
/// Short waits (the common DOACROSS case: the predecessor is one ordered
/// window away) stay on the cheap `spin_loop` hint; long waits — more
/// workers than cores, or a slow predecessor — back off to `yield_now` so
/// the runnable thread that will unblock us gets the CPU.
const SPIN_BEFORE_YIELD: u64 = 128;

/// Adaptive spin-then-yield backoff for the DOACROSS `Wait`/post loops.
/// One `step` call per failed re-check of the condition; counters record
/// both the raw spins and each spin-to-yield transition.
pub(crate) struct Backoff {
    spins: u64,
}

impl Backoff {
    pub(crate) fn new() -> Self {
        Backoff { spins: 0 }
    }

    pub(crate) fn step(&mut self, counters: &mut Counters) {
        counters.wait_spins += 1;
        self.spins += 1;
        if self.spins < SPIN_BEFORE_YIELD {
            std::hint::spin_loop();
        } else {
            counters.wait_yields += 1;
            std::thread::yield_now();
        }
    }
}

pub(crate) struct Frame {
    /// Return pc (stack or register pc, per the executing backend); `None`
    /// marks a region/toplevel sentinel.
    pub ret_pc: Option<u32>,
    pub saved_base: u64,
    pub saved_sp: u64,
    /// Caller's register-window base (register backend only; the stack
    /// backend stores the current base and never reads it back).
    pub saved_rbase: usize,
    /// Where a returned value goes: the absolute index of the caller's
    /// result register (register backend calls only).
    pub ret_reg: usize,
    /// Operand-stack depth at entry (stack backend only). Returning through
    /// a sentinel yields the operand above it, if any: a loop-body region
    /// entered in the middle of an expression (`x = f()` with the loop in
    /// `f`) leaves the caller's pending operands where they are.
    pub saved_depth: usize,
}

/// Per-thread execution state.
pub struct ThreadCtx {
    /// Worker index (0 = master).
    pub tid: u32,
    /// Base of this thread's fixed stack region (`sp` resets here between
    /// pool dispatches).
    pub(crate) stack_base: u64,
    pub(crate) frame_base: u64,
    pub(crate) sp: u64,
    pub(crate) stack_limit: u64,
    pub(crate) ops: Vec<Value>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) iter_stack: Vec<i64>,
    pub(crate) sync_stack: Vec<(u32, Arc<LoopSync>)>,
    /// Instruction counts at the first `Wait` / first `Post` of the current
    /// iteration (the loop record's `pre`/`window`/`post` split).
    pub(crate) wait_mark: Option<u64>,
    pub(crate) post_mark: Option<u64>,
    pub(crate) posted: bool,
    pub(crate) in_parallel: bool,
    /// Runtime-privatization map: shared allocation base -> private copy.
    pub(crate) priv_map: HashMap<u64, PrivCopy>,
    /// This thread's cost counters.
    pub counters: Counters,
    /// Trace event ring (present iff tracing is on for this run).
    pub(crate) trace: Option<EventBuf>,
    /// Opcode profiler state (present iff profiling is on). Boxed so the
    /// common disabled case is one null check on the dispatch path.
    pub(crate) prof: Option<Box<ProfState>>,
    /// Register file for the register backend (empty under the stack
    /// backend). Grows monotonically; iteration frames reuse it without
    /// clearing.
    pub(crate) regs: Vec<u64>,
    /// Base of the current register window in `regs`.
    pub(crate) reg_base: usize,
}

impl ThreadCtx {
    pub(crate) fn new(tid: u32, stack_base: u64, stack_bytes: u64) -> Self {
        ThreadCtx {
            tid,
            stack_base,
            frame_base: stack_base,
            sp: stack_base,
            stack_limit: stack_base + stack_bytes,
            ops: Vec::with_capacity(64),
            frames: Vec::with_capacity(16),
            iter_stack: Vec::new(),
            sync_stack: Vec::new(),
            wait_mark: None,
            post_mark: None,
            posted: false,
            in_parallel: false,
            priv_map: HashMap::new(),
            counters: Counters::default(),
            trace: None,
            prof: None,
            regs: Vec::new(),
            reg_base: 0,
        }
    }

    /// Records a trace event if tracing is enabled on this context.
    #[inline]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(ev);
        }
    }

    /// Readies a pooled worker context for a loop dispatch: the frame
    /// pointer adopts the master's frame, the stack pointer rewinds to
    /// this worker's own region, and per-loop execution state is cleared —
    /// a previous dispatch may have ended in a trap with frames and
    /// operands still live. Counters were flushed at the end of the
    /// previous dispatch and the privatization map drained by
    /// `commit_private_copies`, so both carry over empty.
    pub(crate) fn reset_for_dispatch(&mut self, frame_base: u64) {
        self.frame_base = frame_base;
        self.sp = self.stack_base;
        self.ops.clear();
        self.frames.clear();
        self.iter_stack.clear();
        self.sync_stack.clear();
        self.wait_mark = None;
        self.post_mark = None;
        self.posted = false;
        // Entering the dispatched loop's share marks the context.
        self.in_parallel = false;
        self.reg_base = 0;
        debug_assert!(self.priv_map.is_empty(), "private copies leaked a loop");
    }
}

/// Result of running a program to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `main`'s return value, if it returns one.
    pub return_value: Option<Value>,
    /// Aggregated counters over all threads.
    pub counters: Counters,
    /// Counters broken down by worker index (`per_thread[tid]`), summing
    /// to `counters`. Workers accumulate across every parallel region
    /// they participate in; index 0 is the master thread.
    pub per_thread: Vec<Counters>,
    /// High-water mark of live heap bytes during the run.
    pub peak_heap_bytes: u64,
    /// Allocator contention counters (magazine hits/misses, backend lock
    /// acquisitions, scavenges) accumulated over the run.
    pub heap_contention: HeapContention,
    /// Executor pool counters (all zero for serial runs).
    pub pool: PoolStats,
}

/// The virtual machine: memory, heap, program, and I/O channels.
pub struct Vm {
    pub(crate) program: CompiledProgram,
    pub(crate) config: VmConfig,
    pub(crate) mem: SharedMem,
    pub(crate) heap: Heap,
    stack_region_base: u64,
    pub(crate) outputs_int: Mutex<Vec<i64>>,
    pub(crate) outputs_float: Mutex<Vec<f64>>,
    pub(crate) console: Mutex<String>,
    /// Lock-free per-worker counter slots (`per_thread[tid]`), flushed by
    /// workers at the end of each dispatch. The master's counters live on
    /// its context and merge at report time.
    pub(crate) per_thread: Vec<AtomicCounters>,
    /// Persistent executor pool state (contexts, dispatch condvars,
    /// counters); present iff `nthreads > 1`. The worker *threads* live
    /// inside the scope `run` opens.
    pool: Option<PoolState>,
    /// Trace event sink (present iff [`VmConfig::trace`]); workers drain
    /// their rings here once per dispatch.
    trace: Option<TraceSink>,
    /// The merged loop record (present iff [`VmConfig::profile`]);
    /// threads flush their local records here once per dispatch.
    prof: Option<Mutex<HashMap<u32, LoopProfile>>>,
    /// The encoding every thread executes (stack reference interpreter,
    /// or register interpreter with its translated module).
    backend: Backend,
}

impl Vm {
    /// Creates a VM for `program` with the given configuration, laying out
    /// globals, per-thread stacks and the heap, and applying global
    /// initializers.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if `nthreads` is 0 or the memory is too small
    /// for the layout.
    pub fn new(program: CompiledProgram, config: VmConfig) -> Result<Vm, VmError> {
        Vm::build(program, config, None)
    }

    /// Like [`Vm::new`], but executes with the register backend using an
    /// already-translated `reg` module (e.g. from the pipeline's cached
    /// `reglower` phase) instead of translating here. Forces
    /// [`VmConfig::backend`] to [`BackendKind::Reg`].
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if `nthreads` is 0 or the memory is too small
    /// for the layout.
    pub fn with_reg(
        program: CompiledProgram,
        reg: Arc<dse_ir::RegProgram>,
        mut config: VmConfig,
    ) -> Result<Vm, VmError> {
        config.backend = BackendKind::Reg;
        Vm::build(program, config, Some(reg))
    }

    fn build(
        program: CompiledProgram,
        config: VmConfig,
        reg: Option<Arc<dse_ir::RegProgram>>,
    ) -> Result<Vm, VmError> {
        if config.nthreads == 0 {
            return Err(VmError::new(0, "nthreads must be at least 1"));
        }
        let backend = match config.backend {
            BackendKind::Stack => Backend::Stack,
            BackendKind::Reg => {
                let rp = match reg {
                    Some(rp) => rp,
                    None => Arc::new(dse_ir::regcode::translate(&program).map_err(|e| {
                        VmError::new(
                            e.pc as usize,
                            format!("register lowering failed: {}", e.msg),
                        )
                    })?),
                };
                if config.strict && !rp.is_verified() {
                    return Err(VmError::new(
                        0,
                        "DSE010-DSE015: register translation is not verified; run it \
                         through the backend verifier (`dsec check --backend`) before \
                         executing under --strict"
                            .to_string(),
                    ));
                }
                Backend::Reg(rp)
            }
        };
        let globals_end = GLOBAL_BASE + program.globals_size;
        let stacks_base = dse_lang::types::round_up(globals_end, 4096);
        let heap_base = stacks_base + config.nthreads as u64 * config.stack_bytes;
        if heap_base + 4096 > config.mem_bytes {
            return Err(VmError::new(
                0,
                format!(
                    "memory too small: need > {} bytes for globals and stacks",
                    heap_base
                ),
            ));
        }
        let mem = SharedMem::new(config.mem_bytes);
        let heap = Heap::new(heap_base, config.mem_bytes);
        for &(addr, init) in &program.global_inits {
            match init {
                InitValue::Int(v, w) => mem.write(addr, w as u32, v as u64),
                InitValue::Float(v) => mem.write(addr, 8, v.to_bits()),
            }
        }
        let nthreads = config.nthreads as usize;
        let pool = (config.nthreads > 1)
            .then(|| PoolState::new(config.nthreads, stacks_base, config.stack_bytes));
        let trace = config.trace.then(TraceSink::new);
        if let Some(sink) = &trace {
            heap.enable_trace(sink.epoch());
        }
        let prof = config.profile.then(|| Mutex::new(HashMap::new()));
        Ok(Vm {
            program,
            config,
            mem,
            heap,
            stack_region_base: stacks_base,
            outputs_int: Mutex::new(Vec::new()),
            outputs_float: Mutex::new(Vec::new()),
            console: Mutex::new(String::new()),
            per_thread: (0..nthreads).map(|_| AtomicCounters::default()).collect(),
            pool,
            trace,
            prof,
            backend,
        })
    }

    /// The executor pool state, present iff `nthreads > 1`.
    pub(crate) fn pool(&self) -> Option<&PoolState> {
        self.pool.as_ref()
    }

    /// The trace sink, when tracing is enabled.
    pub(crate) fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// The instant trace timestamps are measured from (`Vm::new`), when
    /// tracing is enabled — lets drivers align the runtime trace with
    /// spans measured on other epochs (e.g. pipeline phases).
    pub fn trace_epoch(&self) -> Option<std::time::Instant> {
        self.trace.as_ref().map(TraceSink::epoch)
    }

    /// Gives `ctx` its trace ring and profiler state if the respective
    /// flags are on and it does not have them yet (contexts are created in
    /// several places that do not see the config).
    pub(crate) fn arm_instruments(&self, ctx: &mut ThreadCtx) {
        if self.trace.is_some() && ctx.trace.is_none() {
            ctx.trace = Some(EventBuf::new(RING_CAPACITY));
        }
        if self.prof.is_some() && ctx.prof.is_none() {
            ctx.prof = Some(Box::new(ProfState::new()));
        }
    }

    /// Drains `ctx`'s trace ring into the sink and its loop records into
    /// the merged ones — once per dispatch, next to the counter flush.
    pub(crate) fn drain_instruments(&self, ctx: &mut ThreadCtx) {
        if let (Some(sink), Some(buf)) = (&self.trace, ctx.trace.as_mut()) {
            sink.absorb(buf);
        }
        if let (Some(map), Some(p)) = (&self.prof, ctx.prof.as_deref_mut()) {
            p.flush_into(&mut lock_clean(map));
        }
    }

    /// Adds a worker's dispatch-local counter deltas into its lock-free
    /// slot and resets the context's accumulator for the next dispatch.
    pub(crate) fn flush_worker_counters(&self, wid: u32, ctx: &mut ThreadCtx) {
        self.per_thread[wid as usize].add(&ctx.counters);
        ctx.counters = Counters::default();
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Memory layout facts needed by observers (stack/heap classification).
    pub fn layout(&self) -> crate::observer::LayoutInfo {
        crate::observer::LayoutInfo {
            master_stack: (
                self.stack_base_of(0),
                self.stack_base_of(0) + self.config.stack_bytes,
            ),
            heap_base: self.heap.base(),
        }
    }

    /// Stack region base address of worker `tid`.
    pub(crate) fn stack_base_of(&self, tid: u32) -> u64 {
        self.stack_region_base + tid as u64 * self.config.stack_bytes
    }

    /// Runs `main` to completion with no observer.
    ///
    /// # Errors
    ///
    /// Propagates the first VM trap from any thread.
    pub fn run(&mut self) -> Result<RunReport, VmError> {
        self.run_with_observer(&mut crate::observer::NullObserver)
    }

    /// Runs `main` to completion, reporting accesses/loop events to `obs`
    /// (serial portions only; parallel regions run unobserved).
    ///
    /// # Errors
    ///
    /// Propagates the first VM trap from any thread.
    pub fn run_with_observer<O: Observer + ?Sized>(
        &mut self,
        obs: &mut O,
    ) -> Result<RunReport, VmError> {
        // The master is pool worker 0; pin its allocator front-end shard to
        // match (pool workers pin theirs on thread start), so each worker's
        // magazine cache stays hot across every loop of the run.
        crate::alloc::pin_front_shard(0);
        let mut ctx = ThreadCtx::new(0, self.stack_base_of(0), self.config.stack_bytes);
        self.arm_instruments(&mut ctx);
        let main = self.program.func(self.program.main);
        self.push_frame(&mut ctx, main, None, 0)
            .map_err(|msg| VmError::new(main.entry as usize, msg))?;
        let entry = self.resolve_entry(main.entry)?;
        let this: &Vm = self;
        let ret = match &this.pool {
            // Parallel run: one thread scope for the whole program.
            // Workers park between loops; the shutdown guard releases them
            // (so the scope can join) whether `main` returns or traps. The
            // pre-spawn epoch snapshot guarantees a late-starting worker
            // still runs a job dispatched before it first parked.
            Some(pool) => {
                let epoch0 = pool.open();
                std::thread::scope(|scope| {
                    let _guard = pool.guard();
                    for wid in 1..=pool.nworkers() {
                        scope.spawn(move || crate::pool::worker_entry(this, wid, epoch0));
                    }
                    this.exec(&mut ctx, entry, obs)
                })
            }
            None => this.exec(&mut ctx, entry, obs),
        };
        // Drain the master's instruments (and the allocator's slow-path
        // events) even when the run trapped, so partial traces survive.
        self.drain_instruments(&mut ctx);
        if let Some(sink) = &self.trace {
            for ev in self.heap.take_trace() {
                sink.push(ev);
            }
        }
        let ret = ret?;
        let mut per_thread: Vec<Counters> = self
            .per_thread
            .iter()
            .map(AtomicCounters::snapshot)
            .collect();
        per_thread[0].merge(&ctx.counters);
        let mut counters = Counters::default();
        for c in &per_thread {
            counters.merge(c);
        }
        Ok(RunReport {
            return_value: ret,
            counters,
            per_thread,
            peak_heap_bytes: self.heap.peak_live_bytes(),
            heap_contention: self.heap.contention(),
            pool: self.pool.as_ref().map(PoolState::stats).unwrap_or_default(),
        })
    }

    /// Takes the run's trace: events sorted by start time, plus the total
    /// count of events lost to ring overwrites. Empty when
    /// [`VmConfig::trace`] was off. Call after [`Vm::run`].
    pub fn take_trace(&self) -> (Vec<TraceEvent>, u64) {
        match &self.trace {
            Some(sink) => sink.take(),
            None => (Vec::new(), 0),
        }
    }

    /// The merged loop record, hottest loop (by wall time, then by retired
    /// instructions) first. Empty when [`VmConfig::profile`] was off. Call
    /// after [`Vm::run`].
    pub fn profile(&self) -> Vec<LoopProfile> {
        let Some(map) = &self.prof else {
            return Vec::new();
        };
        let mut out: Vec<LoopProfile> = lock_clean(map).values().cloned().collect();
        out.sort_by(|a, b| {
            (b.wall_ns, b.total_instructions(), a.loop_id).cmp(&(
                a.wall_ns,
                a.total_instructions(),
                b.loop_id,
            ))
        });
        out
    }

    /// Integer outputs produced via `out_long`.
    pub fn outputs_int(&self) -> Vec<i64> {
        lock_clean(&self.outputs_int).clone()
    }

    /// Float outputs produced via `out_float`.
    pub fn outputs_float(&self) -> Vec<f64> {
        lock_clean(&self.outputs_float).clone()
    }

    /// Console text produced via `print_long`/`print_float`.
    pub fn console(&self) -> String {
        lock_clean(&self.console).clone()
    }

    /// The executing backend's own pc for stack-bytecode pc `entry` (a
    /// function or outlined-region entry): itself under the stack
    /// interpreter, its translation under the register interpreter. The
    /// loop runner resolves a body once per loop, not once per iteration.
    pub(crate) fn resolve_entry(&self, entry: u32) -> Result<u32, VmError> {
        match &self.backend {
            Backend::Stack => Ok(entry),
            Backend::Reg(rp) => rp.entry_map.get(&entry).copied().ok_or_else(|| {
                VmError::new(
                    entry as usize,
                    format!("no register translation for entry pc {entry}"),
                )
            }),
        }
    }

    /// Executes code starting at the resolved pc `entry`
    /// ([`Vm::resolve_entry`]) until the current sentinel frame returns,
    /// under the configured backend — the executor and scheduler never
    /// need to know which encoding runs. Returns the `main`-style return
    /// value if one is produced.
    pub(crate) fn exec<O: Observer + ?Sized>(
        &self,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut O,
    ) -> Result<Option<Value>, VmError> {
        match &self.backend {
            Backend::Stack => self.exec_stack(ctx, entry, obs),
            // No Arc::clone here: this runs once per loop iteration, and a
            // refcount bump is a contended atomic RMW across all workers.
            Backend::Reg(rp) => self.exec_reg(rp, ctx, entry, obs),
        }
    }

    /// The reference stack interpreter: executes stack bytecode starting
    /// at `entry` until the current sentinel frame returns. Operands live
    /// on a tagged operand stack, so this loop pops, type-checks and
    /// pushes; what each instruction *does* is [`crate::ops`].
    pub(crate) fn exec_stack<O: Observer + ?Sized>(
        &self,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut O,
    ) -> Result<Option<Value>, VmError> {
        let code = &self.program.code;
        let mut pc = entry as usize;
        // As in `exec_reg`: the instruction count, its budget and "profiler
        // armed" live in locals; `work` is written back before `loop_mark`,
        // `par_loop` (re-read after) and `Wait`/`Post`, and when the loop
        // ends, which it does only by `break`.
        let mut work = ctx.counters.work;
        let budget = self.config.max_instructions;
        let profiling = ctx.prof.is_some();
        macro_rules! trap {
            ($($arg:tt)*) => { break Err(VmError::new(pc, format!($($arg)*))) };
        }
        // Unwraps an `ops` result, trapping at this pc with its message.
        macro_rules! ok {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(msg) => break Err(VmError::new(pc, msg)),
                }
            };
        }
        macro_rules! pop {
            () => {
                match ctx.ops.pop() {
                    Some(v) => v,
                    None => trap!("operand stack underflow"),
                }
            };
        }
        macro_rules! pop_i {
            () => {
                match pop!() {
                    Value::I(v) => v,
                    Value::F(_) => trap!("type confusion: expected integer"),
                }
            };
        }
        macro_rules! pop_f {
            () => {
                match pop!() {
                    Value::F(v) => v,
                    Value::I(_) => trap!("type confusion: expected float"),
                }
            };
        }
        // Pops the operand(s), pushes `Value::$tag(result)`, advances.
        macro_rules! unary {
            ($pop:ident, $tag:ident, $f:expr) => {{
                let v = $pop!();
                ctx.ops.push(Value::$tag($f(v)));
                pc += 1;
            }};
        }
        macro_rules! binary {
            ($pop:ident, $tag:ident, $f:expr) => {{
                let r = $pop!();
                let l = $pop!();
                ctx.ops.push(Value::$tag($f(l, r)));
                pc += 1;
            }};
        }
        macro_rules! push_i {
            ($v:expr) => {{
                let v = $v;
                ctx.ops.push(Value::I(v));
                pc += 1;
            }};
        }
        let result = loop {
            work += 1;
            if work > budget {
                trap!("instruction budget exceeded");
            }
            let instr = &code[pc];
            // Attributing profiler: one register test when disabled, one
            // array increment on thread-local state when enabled.
            if profiling {
                if let Some(p) = ctx.prof.as_deref_mut() {
                    p.tick(class_of(instr));
                }
            }
            match *instr {
                Instr::PushI(v) => push_i!(v),
                Instr::PushF(v) => {
                    ctx.ops.push(Value::F(v));
                    pc += 1;
                }
                Instr::Dup => {
                    let v = *match ctx.ops.last() {
                        Some(v) => v,
                        None => trap!("operand stack underflow"),
                    };
                    ctx.ops.push(v);
                    pc += 1;
                }
                Instr::Drop => {
                    pop!();
                    pc += 1;
                }
                Instr::Tuck => {
                    let top = pop!();
                    let second = pop!();
                    ctx.ops.push(top);
                    ctx.ops.push(second);
                    ctx.ops.push(top);
                    pc += 1;
                }
                Instr::FrameAddr(off) => push_i!(ctx.frame_addr(off) as i64),
                Instr::GlobalAddr(addr) => push_i!(addr as i64),
                Instr::TidScaled(k) => push_i!(ctx.tid_scaled(k)),
                Instr::FrameAddrTid { offset, stride } => {
                    push_i!(ctx.private_addr(ctx.frame_addr(offset), stride))
                }
                Instr::GlobalAddrTid { addr, stride } => {
                    push_i!(ctx.private_addr(addr as u64, stride))
                }
                Instr::TidSpanScaled(z) => {
                    let span = pop_i!();
                    push_i!(ok!(ctx.tid_span_scaled(span, z)))
                }
                Instr::IterIdx(depth) => push_i!(ok!(ctx.iter_idx(depth))),
                Instr::Load {
                    width,
                    is_float,
                    site,
                } => {
                    let addr = pop_i!() as u64;
                    let bits = ok!(self.load(obs, ctx.sp, addr, width, is_float, site));
                    ctx.ops.push(Value::from_bits(bits, is_float));
                    pc += 1;
                }
                Instr::Store {
                    width,
                    is_float,
                    site,
                } => {
                    let val = pop!();
                    let addr = pop_i!() as u64;
                    if val.is_float() != is_float {
                        trap!("type confusion in store");
                    }
                    ok!(self.store(obs, ctx.sp, addr, width, site, val.to_bits()));
                    pc += 1;
                }
                Instr::MemCpy {
                    size,
                    load_site,
                    store_site,
                } => {
                    let dst = pop_i!() as u64;
                    let src = pop_i!() as u64;
                    let sites = (load_site, store_site);
                    ok!(self.memcpy(obs, ctx.sp, src, dst, size, sites));
                    pc += 1;
                }
                Instr::IBin(op) => {
                    let r = pop_i!();
                    let l = pop_i!();
                    push_i!(ok!(ops::ibin(op, l, r)))
                }
                Instr::FBin(op) => binary!(pop_f, F, |l, r| ops::fbin(op, l, r)),
                Instr::ICmp(op) => binary!(pop_i, I, |l, r| ops::icmp(op, l, r) as i64),
                Instr::FCmp(op) => binary!(pop_f, I, |l, r| ops::fcmp(op, l, r) as i64),
                Instr::INeg => unary!(pop_i, I, ops::ineg),
                Instr::FNeg => unary!(pop_f, F, ops::fneg),
                Instr::BNot => unary!(pop_i, I, ops::bnot),
                Instr::LNot => unary!(pop_i, I, ops::lnot),
                Instr::I2F => unary!(pop_i, F, ops::i2f),
                Instr::F2I => unary!(pop_f, I, ops::f2i),
                Instr::SextTrunc(w) => unary!(pop_i, I, |v| ops::sext(v, w)),
                Instr::Jump(t) => pc = t as usize,
                Instr::JumpIfZ(t) => {
                    let v = pop_i!();
                    pc = if v == 0 { t as usize } else { pc + 1 };
                }
                Instr::JumpIfNZ(t) => {
                    let v = pop_i!();
                    pc = if v != 0 { t as usize } else { pc + 1 };
                }
                Instr::Call(fi) => {
                    let callee = self.program.func(fi);
                    if ctx.ops.len() < callee.params.len() {
                        trap!("operand stack underflow in call");
                    }
                    ok!(self.push_frame(ctx, callee, Some(pc as u32 + 1), 0));
                    // Pop args right-to-left into parameter slots.
                    let mut params = callee.params.iter().enumerate().rev();
                    ok!(params.try_for_each(|(pi, &param)| match ctx.ops.pop() {
                        Some(v) if v.is_float() == param.1.is_float => {
                            self.write_param(ctx, param, v.to_bits());
                            Ok(())
                        }
                        Some(_) => Err(format!("type confusion in argument {pi}")),
                        None => Err("operand stack underflow".to_string()),
                    }));
                    pc = callee.entry as usize;
                }
                Instr::CallBuiltin(b) => {
                    // Pop args right-to-left into stack (= signature) order.
                    let sig = b.sig();
                    let mut args = [0u64; 3];
                    let mut kinds = sig.args.iter().enumerate().rev();
                    ok!(kinds.try_for_each(|(i, &is_float)| match ctx.ops.pop() {
                        Some(v) if v.is_float() == is_float => {
                            args[i] = v.to_bits();
                            Ok(())
                        }
                        Some(Value::I(_)) => Err("type confusion: expected float"),
                        Some(Value::F(_)) => Err("type confusion: expected integer"),
                        None => Err("operand stack underflow"),
                    }));
                    let args = &args[..sig.args.len()];
                    let bits = ok!(self.builtin(b, args, ctx.tid, pc, obs));
                    if let Some(is_float) = sig.ret {
                        ctx.ops.push(Value::from_bits(bits, is_float));
                    }
                    pc += 1;
                }
                Instr::Ret => {
                    let fr = ok!(ctx.pop_frame());
                    match fr.ret_pc {
                        Some(t) => pc = t as usize,
                        None if ctx.ops.len() > fr.saved_depth => break Ok(ctx.ops.pop()),
                        None => break Ok(None),
                    }
                }
                Instr::LoopMark(ev, id) => {
                    ctx.counters.work = work;
                    self.loop_mark(ctx, obs, ev, id);
                    pc += 1;
                }
                Instr::ParLoop(id) => {
                    let hi = pop_i!();
                    let lo = pop_i!();
                    ctx.counters.work = work;
                    let res = self.par_loop(ctx, id, lo, hi, pc as u32);
                    work = ctx.counters.work;
                    if let Err(e) = res {
                        break Err(e);
                    }
                    pc += 1;
                }
                Instr::Wait(_) => {
                    ctx.counters.work = work;
                    ok!(self.doacross_wait(ctx));
                    pc += 1;
                }
                Instr::Post(_) => {
                    ctx.counters.work = work;
                    ok!(self.doacross_post(ctx));
                    pc += 1;
                }
                Instr::Localize { site: _ } => {
                    let addr = pop_i!() as u64;
                    match self.localize(ctx, addr, pc) {
                        Ok(local) => push_i!(local as i64),
                        Err(e) => break Err(e),
                    }
                }
                Instr::Halt => break Ok(ctx.ops.pop()),
            }
        };
        ctx.counters.work = work;
        result
    }
}
