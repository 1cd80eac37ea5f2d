//! The bytecode interpreter.
//!
//! One [`Vm`] owns the shared memory, heap and compiled program; each OS
//! thread executing inside it owns a [`ThreadCtx`] (operand stack, call
//! stack, stack region, counters). The master thread runs `main`; parallel
//! loop regions are driven by the executor in [`crate::exec`].

use crate::alloc::HeapContention;
use crate::backend::{BackendKind, ExecBackend, RegBackend, StackBackend};
use crate::mem::{sign_extend, Heap, SharedMem};
use crate::observer::Observer;
use crate::pool::{PoolState, PoolStats};
use crate::privatize::PrivCopy;
use crate::prof::{class_of, LoopProf, LoopProfile, ProfState};
use crate::tracebuf::{EventBuf, EventKind, TraceEvent, TraceSink};
use dse_ir::bytecode::*;
use dse_ir::sites::{AccessKind, NO_SITE};
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
    /// The integer payload, or `None` if the value is a float.
    ///
    /// Int/float confusion indicates a lowering bug; the VM surfaces it as
    /// a *trap* (`type confusion`), never a panic — a bad request must not
    /// take down a long-running `dsed` worker or poison the VM's mutexes.
    pub fn as_i(self) -> Option<i64> {
        match self {
            Value::I(v) => Some(v),
            Value::F(_) => None,
        }
    }

    /// The raw bit pattern of the payload (the register backend's untagged
    /// representation: floats as IEEE bits, integers as two's complement).
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
        }
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
    /// Redirected private *direct* accesses executed (fused `v[tid]`
    /// addressing). Used by the baseline cost model that charges SpiceC's
    /// full access monitoring.
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
    /// Total memory size in bytes.
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
    /// Record per-iteration cost segments of parallel-lowered loops during
    /// single-threaded execution, for the multicore schedule simulator
    /// (the host may not have 8 physical cores; the paper's Opteron did).
    pub record_iteration_costs: bool,
    /// Instruction encoding/interpreter the run executes with: the
    /// reference stack interpreter or the register backend with threaded
    /// dispatch (see [`crate::backend`]). Defaults from the
    /// `DSE_EXEC_BACKEND` environment variable (`stack`/`reg`), falling
    /// back to `Stack`.
    pub backend: BackendKind,
    /// Record runtime trace events (dispatch/steal/park/wake, loop spans,
    /// DOACROSS wait/post, allocator slow paths) into per-worker ring
    /// buffers. Always compiled in, off by default; see
    /// [`crate::tracebuf`].
    pub trace: bool,
    /// Capacity of each worker's trace ring (events). A full ring
    /// overwrites its oldest event and counts the drop.
    pub trace_capacity: usize,
    /// Attribute every retired instruction to (loop id, opcode class) and
    /// record per-iteration cost histograms; see [`crate::prof`].
    pub opcode_profile: bool,
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
            record_iteration_costs: false,
            backend: BackendKind::from_env(),
            trace: false,
            trace_capacity: 8192,
            opcode_profile: false,
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
    /// iteration (cost-trace recording).
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
        self.in_parallel = true;
        self.reg_base = 0;
        debug_assert!(self.priv_map.is_empty(), "private copies leaked a loop");
    }
}

/// Cost segments of one loop iteration, measured in VM instructions during
/// a single-threaded run of parallel-lowered code. `pre` precedes the
/// DOACROSS ordered window, `window` is inside it, `post` follows it
/// (DOALL iterations are all `pre`). Used by the schedule simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterCost {
    /// Instructions before the ordered window.
    pub pre: u64,
    /// Instructions inside the ordered window.
    pub window: u64,
    /// Instructions after the window.
    pub post: u64,
    /// Runtime-privatization calls during the iteration.
    pub localize_calls: u64,
    /// Bytes copied by runtime privatization during the iteration.
    pub localize_bytes: u64,
    /// Redirected private direct accesses during the iteration.
    pub private_direct: u64,
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
    /// Per loop id: one cost vector per dynamic loop entry (recorded when
    /// [`VmConfig::record_iteration_costs`] is set).
    pub(crate) iter_trace: Mutex<HashMap<u32, Vec<Vec<IterCost>>>>,
    /// Trace event sink (present iff [`VmConfig::trace`]); workers drain
    /// their rings here once per dispatch.
    trace: Option<TraceSink>,
    /// Merged opcode profiles (present iff [`VmConfig::opcode_profile`]);
    /// threads flush their local maps here once per dispatch.
    prof: Option<Mutex<HashMap<u32, LoopProf>>>,
    /// The execution backend every thread dispatches through (stack
    /// reference interpreter, or register interpreter with threaded
    /// dispatch).
    backend: Arc<dyn ExecBackend>,
}

impl Vm {
    /// Creates a VM for `program` with the given configuration, laying out
    /// globals, per-thread stacks and the heap, and applying global
    /// initializers.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the memory is too small for the layout.
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
    /// Returns a [`VmError`] if the memory is too small for the layout.
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
        assert!(config.nthreads >= 1, "nthreads must be at least 1");
        let backend: Arc<dyn ExecBackend> = match config.backend {
            BackendKind::Stack => Arc::new(StackBackend),
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
                Arc::new(RegBackend::new(rp))
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
        let prof = config.opcode_profile.then(|| Mutex::new(HashMap::new()));
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
            iter_trace: Mutex::new(HashMap::new()),
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
            ctx.trace = Some(EventBuf::new(self.config.trace_capacity));
        }
        if self.prof.is_some() && ctx.prof.is_none() {
            ctx.prof = Some(Box::new(ProfState::new()));
        }
    }

    /// Drains `ctx`'s trace ring into the sink and its profile map into
    /// the merged map — once per dispatch, next to the counter flush.
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
    pub fn run_with_observer(&mut self, obs: &mut dyn Observer) -> Result<RunReport, VmError> {
        // The master is pool worker 0; pin its allocator front-end shard to
        // match (pool workers pin theirs on thread start), so each worker's
        // magazine cache stays hot across every loop of the run.
        crate::alloc::pin_front_shard(0);
        let mut ctx = ThreadCtx::new(0, self.stack_base_of(0), self.config.stack_bytes);
        self.arm_instruments(&mut ctx);
        let main = self.program.main;
        let entry = self.program.func(main).entry;
        let fsize = self.program.func(main).frame_size as u64;
        ctx.frames.push(Frame {
            ret_pc: None,
            saved_base: ctx.frame_base,
            saved_sp: ctx.sp,
            saved_rbase: ctx.reg_base,
        });
        ctx.frame_base = ctx.sp;
        ctx.sp += fsize;
        self.mem.zero(ctx.frame_base, fsize);
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

    /// Per-iteration cost traces recorded under
    /// [`VmConfig::record_iteration_costs`]: for each candidate loop id,
    /// one vector of iteration costs per dynamic entry of the loop.
    pub fn iteration_costs(&self) -> HashMap<u32, Vec<Vec<IterCost>>> {
        lock_clean(&self.iter_trace).clone()
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

    /// The merged opcode profile, hottest loop (by wall time, then by
    /// retired instructions) first. Empty when
    /// [`VmConfig::opcode_profile`] was off. Call after [`Vm::run`].
    pub fn opcode_profile(&self) -> Vec<LoopProfile> {
        let Some(map) = &self.prof else {
            return Vec::new();
        };
        let map = lock_clean(map);
        let mut out: Vec<LoopProfile> = map
            .iter()
            .map(|(&loop_id, p)| LoopProfile {
                loop_id,
                wall_ns: p.wall_ns,
                iters: p.iters,
                class_counts: p.class_counts,
                iter_hist: p.iter_hist.clone(),
            })
            .collect();
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

    /// Executes code starting at stack-bytecode pc `entry` until the
    /// current sentinel frame returns, dispatching through the configured
    /// [`ExecBackend`]. Returns the `main`-style return value if one is
    /// produced.
    pub(crate) fn exec(
        &self,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut dyn Observer,
    ) -> Result<Option<Value>, VmError> {
        // No Arc::clone here: this runs once per loop iteration, and a
        // refcount bump is a contended atomic RMW across all workers.
        self.backend.exec(self, ctx, entry, obs)
    }

    /// The reference stack interpreter: executes stack bytecode starting
    /// at `entry` until the current sentinel frame returns.
    pub(crate) fn exec_stack(
        &self,
        ctx: &mut ThreadCtx,
        entry: u32,
        obs: &mut dyn Observer,
    ) -> Result<Option<Value>, VmError> {
        let code = &self.program.code;
        let mut pc = entry as usize;
        macro_rules! trap {
            ($($arg:tt)*) => { return Err(VmError::new(pc, format!($($arg)*))) };
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
        loop {
            ctx.counters.work += 1;
            if ctx.counters.work > self.config.max_instructions {
                trap!("instruction budget exceeded");
            }
            let instr = code[pc];
            // Attributing profiler: one null check when disabled, one
            // array increment on thread-local state when enabled.
            if let Some(p) = ctx.prof.as_deref_mut() {
                p.tick(class_of(&instr));
            }
            match instr {
                Instr::PushI(v) => {
                    ctx.ops.push(Value::I(v));
                    pc += 1;
                }
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
                Instr::FrameAddr(off) => {
                    ctx.ops.push(Value::I((ctx.frame_base + off as u64) as i64));
                    pc += 1;
                }
                Instr::GlobalAddr(addr) => {
                    ctx.ops.push(Value::I(addr as i64));
                    pc += 1;
                }
                Instr::TidScaled(k) => {
                    ctx.ops.push(Value::I(ctx.tid as i64 * k));
                    pc += 1;
                }
                Instr::FrameAddrTid { offset, stride } => {
                    ctx.counters.private_direct += 1;
                    let a = ctx.frame_base + offset as u64;
                    ctx.ops.push(Value::I(a as i64 + ctx.tid as i64 * stride));
                    pc += 1;
                }
                Instr::GlobalAddrTid { addr, stride } => {
                    ctx.counters.private_direct += 1;
                    ctx.ops
                        .push(Value::I(addr as i64 + ctx.tid as i64 * stride));
                    pc += 1;
                }
                Instr::TidSpanScaled(z) => {
                    let span = pop_i!();
                    if z == 0 {
                        trap!("TidSpanScaled with zero element size");
                    }
                    let off = ctx.tid as i64 * span / z * z;
                    ctx.ops.push(Value::I(off));
                    pc += 1;
                }
                Instr::IterIdx(depth) => {
                    let n = ctx.iter_stack.len();
                    let d = depth as usize;
                    if d >= n {
                        trap!("IterIdx outside parallel loop body");
                    }
                    ctx.ops.push(Value::I(ctx.iter_stack[n - 1 - d]));
                    pc += 1;
                }
                Instr::Load {
                    width,
                    is_float,
                    site,
                } => {
                    let addr = pop_i!() as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid load of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Load, addr, width as u32, ctx.sp);
                    }
                    let raw = self.mem.read(addr, width as u32);
                    ctx.ops.push(if is_float {
                        Value::F(f64::from_bits(raw))
                    } else {
                        Value::I(sign_extend(raw, width as u32))
                    });
                    pc += 1;
                }
                Instr::Store {
                    width,
                    is_float,
                    site,
                } => {
                    let val = pop!();
                    let addr = pop_i!() as u64;
                    if addr < GLOBAL_BASE || !self.mem.in_bounds(addr, width as u64) {
                        trap!("invalid store of {width} bytes at address {addr}");
                    }
                    if site != NO_SITE {
                        obs.on_access(site, AccessKind::Store, addr, width as u32, ctx.sp);
                    }
                    let raw = match (val, is_float) {
                        (Value::F(f), true) => f.to_bits(),
                        (Value::I(i), false) => i as u64,
                        _ => trap!("type confusion in store"),
                    };
                    self.mem.write(addr, width as u32, raw);
                    pc += 1;
                }
                Instr::MemCpy {
                    size,
                    load_site,
                    store_site,
                } => {
                    let dst = pop_i!() as u64;
                    let src = pop_i!() as u64;
                    let sz = size as u64;
                    if src < GLOBAL_BASE
                        || dst < GLOBAL_BASE
                        || !self.mem.in_bounds(src, sz)
                        || !self.mem.in_bounds(dst, sz)
                    {
                        trap!("invalid memcpy of {size} bytes {src} -> {dst}");
                    }
                    if load_site != NO_SITE {
                        obs.on_access(load_site, AccessKind::Load, src, size, ctx.sp);
                    }
                    if store_site != NO_SITE {
                        obs.on_access(store_site, AccessKind::Store, dst, size, ctx.sp);
                    }
                    self.mem.copy(src, dst, sz);
                    pc += 1;
                }
                Instr::IBin(op) => {
                    let r = pop_i!();
                    let l = pop_i!();
                    match ibin(op, l, r) {
                        Ok(v) => ctx.ops.push(Value::I(v)),
                        Err(msg) => trap!("{msg}"),
                    }
                    pc += 1;
                }
                Instr::FBin(op) => {
                    let r = pop_f!();
                    let l = pop_f!();
                    let v = match op {
                        FBinOp::Add => l + r,
                        FBinOp::Sub => l - r,
                        FBinOp::Mul => l * r,
                        FBinOp::Div => l / r,
                    };
                    ctx.ops.push(Value::F(v));
                    pc += 1;
                }
                Instr::ICmp(op) => {
                    let r = pop_i!();
                    let l = pop_i!();
                    ctx.ops.push(Value::I(cmp_result(op, l.cmp(&r)) as i64));
                    pc += 1;
                }
                Instr::FCmp(op) => {
                    let r = pop_f!();
                    let l = pop_f!();
                    ctx.ops.push(Value::I(fcmp(op, l, r) as i64));
                    pc += 1;
                }
                Instr::INeg => {
                    let v = pop_i!();
                    ctx.ops.push(Value::I(v.wrapping_neg()));
                    pc += 1;
                }
                Instr::FNeg => {
                    let v = pop_f!();
                    ctx.ops.push(Value::F(-v));
                    pc += 1;
                }
                Instr::BNot => {
                    let v = pop_i!();
                    ctx.ops.push(Value::I(!v));
                    pc += 1;
                }
                Instr::LNot => {
                    let v = pop_i!();
                    ctx.ops.push(Value::I((v == 0) as i64));
                    pc += 1;
                }
                Instr::I2F => {
                    let v = pop_i!();
                    ctx.ops.push(Value::F(v as f64));
                    pc += 1;
                }
                Instr::F2I => {
                    let v = pop_f!();
                    ctx.ops.push(Value::I(v as i64));
                    pc += 1;
                }
                Instr::SextTrunc(w) => {
                    let v = pop_i!();
                    ctx.ops.push(Value::I(sign_extend(v as u64, w as u32)));
                    pc += 1;
                }
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
                    let nargs = callee.params.len();
                    if ctx.ops.len() < nargs {
                        trap!("operand stack underflow in call");
                    }
                    let new_base = dse_lang::types::round_up(ctx.sp, 8);
                    let new_sp = new_base + callee.frame_size as u64;
                    if new_sp > ctx.stack_limit {
                        trap!("stack overflow calling `{}`", callee.name);
                    }
                    self.mem.zero(new_base, callee.frame_size as u64);
                    // Pop args right-to-left into parameter slots.
                    for pi in (0..nargs).rev() {
                        let (off, kind) = callee.params[pi];
                        let v = pop!();
                        let raw = match (v, kind.is_float) {
                            (Value::F(f), true) => f.to_bits(),
                            (Value::I(i), false) => i as u64,
                            _ => trap!("type confusion in argument {pi}"),
                        };
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
                    pc = callee.entry as usize;
                }
                Instr::CallBuiltin(b) => {
                    self.call_builtin(b, ctx, pc, obs)?;
                    pc += 1;
                }
                Instr::Ret => {
                    let fr = match ctx.frames.pop() {
                        Some(f) => f,
                        None => trap!("return with empty call stack"),
                    };
                    ctx.frame_base = fr.saved_base;
                    ctx.sp = fr.saved_sp;
                    match fr.ret_pc {
                        Some(t) => pc = t as usize,
                        None => return Ok(ctx.ops.pop()),
                    }
                }
                Instr::LoopMark(ev, id) => {
                    // Begin reports the enclosing frame base (so observers
                    // can locate frame-resident variables such as the
                    // induction slot); IterStart/End report the live sp.
                    let p = match ev {
                        LoopEvent::Begin => ctx.frame_base,
                        _ => ctx.sp,
                    };
                    obs.on_loop(ev, id, p, ctx.counters.work);
                    pc += 1;
                }
                Instr::ParLoop(id) => {
                    let hi = pop_i!();
                    let lo = pop_i!();
                    self.run_par_loop(ctx, id, lo, hi).map_err(|mut e| {
                        if e.pc == u32::MAX {
                            e.pc = pc as u32;
                        }
                        e
                    })?;
                    pc += 1;
                }
                Instr::Wait(_) => {
                    if let Err(msg) = self.doacross_wait(ctx) {
                        trap!("{msg}");
                    }
                    pc += 1;
                }
                Instr::Post(_) => {
                    if let Err(msg) = self.doacross_post(ctx) {
                        trap!("{msg}");
                    }
                    pc += 1;
                }
                Instr::Localize { site: _ } => {
                    let addr = pop_i!() as u64;
                    let translated = self.localize(ctx, addr, pc)?;
                    ctx.ops.push(Value::I(translated as i64));
                    pc += 1;
                }
                Instr::Halt => return Ok(ctx.ops.pop()),
            }
        }
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
    /// span (not one per spin). Shared by both interpreters.
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
        let t0 = match (&self.trace, &ctx.trace) {
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
        if let (Some(t0), Some(sink)) = (t0, &self.trace) {
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
    /// records the post as a trace instant. Shared by both interpreters.
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
        if let (Some(sink), true) = (&self.trace, ctx.trace.is_some()) {
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
        while sync.done.load(std::sync::atomic::Ordering::Acquire) < my {
            if sync.abort.load(std::sync::atomic::Ordering::Relaxed) {
                // A peer trapped and will never post; bail without posting
                // (the worker notices the abort at its next boundary).
                return;
            }
            backoff.step(&mut ctx.counters);
        }
        sync.done
            .store(my + 1, std::sync::atomic::Ordering::Release);
        ctx.posted = true;
    }

    pub(crate) fn call_builtin(
        &self,
        b: Builtin,
        ctx: &mut ThreadCtx,
        pc: usize,
        obs: &mut dyn Observer,
    ) -> Result<(), VmError> {
        macro_rules! trap {
            ($($arg:tt)*) => { return Err(VmError::new(pc, format!($($arg)*))) };
        }
        macro_rules! pop_i {
            () => {
                match ctx.ops.pop() {
                    Some(Value::I(v)) => v,
                    Some(Value::F(_)) => trap!("type confusion: expected integer"),
                    None => trap!("operand stack underflow"),
                }
            };
        }
        macro_rules! pop_f {
            () => {
                match ctx.ops.pop() {
                    Some(Value::F(v)) => v,
                    Some(Value::I(_)) => trap!("type confusion: expected float"),
                    None => trap!("operand stack underflow"),
                }
            };
        }
        match b {
            Builtin::Malloc => {
                let n = pop_i!();
                if n < 0 {
                    trap!("malloc with negative size {n}");
                }
                let a = match self.heap.alloc(n as u64) {
                    Some(a) => a,
                    None => trap!("out of memory allocating {n} bytes"),
                };
                self.mem.zero(a.base, a.size.max(1));
                obs.on_alloc(a, pc as u32);
                ctx.ops.push(Value::I(a.base as i64));
            }
            Builtin::Calloc => {
                let m = pop_i!();
                let n = pop_i!();
                // Check signs before multiplying: negative * negative is a
                // positive product, so a post-multiplication `t >= 0` filter
                // would happily allocate for calloc(-2, -3).
                if n < 0 || m < 0 {
                    trap!("calloc with negative operand ({n}, {m})");
                }
                let total = match n.checked_mul(m) {
                    Some(t) => t as u64,
                    None => trap!("calloc size overflow ({n} * {m})"),
                };
                let a = match self.heap.alloc(total) {
                    Some(a) => a,
                    None => trap!("out of memory allocating {total} bytes"),
                };
                self.mem.zero(a.base, a.size.max(1));
                obs.on_alloc(a, pc as u32);
                ctx.ops.push(Value::I(a.base as i64));
            }
            Builtin::Realloc => {
                let n = pop_i!();
                let p = pop_i!() as u64;
                if n < 0 {
                    trap!("realloc with negative size {n}");
                }
                if p == 0 {
                    let a = match self.heap.alloc(n as u64) {
                        Some(a) => a,
                        None => trap!("out of memory allocating {n} bytes"),
                    };
                    self.mem.zero(a.base, a.size.max(1));
                    obs.on_alloc(a, pc as u32);
                    ctx.ops.push(Value::I(a.base as i64));
                    return Ok(());
                }
                let old = match self.heap.at_base(p) {
                    Some(a) => a,
                    None => trap!("realloc of invalid pointer {p}"),
                };
                let a = match self.heap.alloc(n as u64) {
                    Some(a) => a,
                    None => trap!("out of memory allocating {n} bytes"),
                };
                self.mem.zero(a.base, a.size.max(1));
                self.mem.copy(old.base, a.base, old.size.min(n as u64));
                self.heap.free(old.base);
                obs.on_free(old);
                obs.on_alloc(a, pc as u32);
                ctx.ops.push(Value::I(a.base as i64));
            }
            Builtin::ReallocExpanded => {
                let old_span = pop_i!();
                let n = pop_i!();
                let p = pop_i!() as u64;
                if n < 0 || old_span < 0 {
                    trap!("__realloc_expanded with negative size");
                }
                let factor = self.config.nthreads as u64;
                if p == 0 {
                    let a = match self.heap.alloc(n as u64 * factor) {
                        Some(a) => a,
                        None => trap!("out of memory in expanded realloc"),
                    };
                    self.mem.zero(a.base, a.size.max(1));
                    obs.on_alloc(a, pc as u32);
                    ctx.ops.push(Value::I(a.base as i64));
                    return Ok(());
                }
                let old = match self.heap.at_base(p) {
                    Some(a) => a,
                    None => trap!("expanded realloc of invalid pointer {p}"),
                };
                let a = match self.heap.alloc(n as u64 * factor) {
                    Some(a) => a,
                    None => trap!("out of memory in expanded realloc"),
                };
                self.mem.zero(a.base, a.size.max(1));
                // Move each thread's copy to its new position. A replica
                // whose span runs past the recorded allocation keeps its
                // in-bounds prefix (the old code dropped the whole copy —
                // silent data loss for the last thread whenever
                // `old_span * nthreads` exceeded the allocation); a replica
                // starting entirely outside the allocation means the span
                // metadata is inconsistent with the allocation, so trap.
                let keep = (old_span as u64).min(n as u64);
                let old_end = old.base + old.size;
                for t in 0..factor {
                    let src = old.base + t * old_span as u64;
                    let dst = a.base + t * n as u64;
                    if src >= old_end {
                        if keep > 0 {
                            trap!(
                                "__realloc_expanded: replica {t} at offset {} lies outside \
                                 the old allocation of {} bytes (inconsistent span {old_span})",
                                t * old_span as u64,
                                old.size
                            );
                        }
                        continue;
                    }
                    let avail = old_end - src;
                    self.mem.copy(src, dst, keep.min(avail));
                }
                self.heap.free(old.base);
                obs.on_free(old);
                obs.on_alloc(a, pc as u32);
                ctx.ops.push(Value::I(a.base as i64));
            }
            Builtin::Free => {
                let p = pop_i!() as u64;
                if p != 0 {
                    match self.heap.free(p) {
                        Some(a) => obs.on_free(a),
                        None => trap!("free of invalid pointer {p}"),
                    }
                }
            }
            Builtin::InLong => {
                let i = pop_i!();
                let v = match usize::try_from(i)
                    .ok()
                    .and_then(|i| self.config.inputs_int.get(i))
                {
                    Some(&v) => v,
                    None => trap!("in_long({i}) out of range"),
                };
                ctx.ops.push(Value::I(v));
            }
            Builtin::InFloat => {
                let i = pop_i!();
                let v = match usize::try_from(i)
                    .ok()
                    .and_then(|i| self.config.inputs_float.get(i))
                {
                    Some(&v) => v,
                    None => trap!("in_float({i}) out of range"),
                };
                ctx.ops.push(Value::F(v));
            }
            Builtin::InLen => {
                ctx.ops.push(Value::I(self.config.inputs_int.len() as i64));
            }
            Builtin::OutLong => {
                let v = pop_i!();
                lock_clean(&self.outputs_int).push(v);
            }
            Builtin::OutFloat => {
                let v = pop_f!();
                lock_clean(&self.outputs_float).push(v);
            }
            Builtin::PrintLong => {
                let v = pop_i!();
                use std::fmt::Write as _;
                let _ = writeln!(lock_clean(&self.console), "{v}");
            }
            Builtin::PrintFloat => {
                let v = pop_f!();
                use std::fmt::Write as _;
                let _ = writeln!(lock_clean(&self.console), "{v}");
            }
            Builtin::Fsqrt => {
                let v = pop_f!();
                ctx.ops.push(Value::F(v.sqrt()));
            }
            Builtin::Fabs => {
                let v = pop_f!();
                ctx.ops.push(Value::F(v.abs()));
            }
            Builtin::MemCpy => {
                let n = pop_i!();
                let src = pop_i!() as u64;
                let dst = pop_i!() as u64;
                if n < 0 {
                    trap!("__memcpy with negative length {n}");
                }
                let n = n as u64;
                if src < GLOBAL_BASE
                    || dst < GLOBAL_BASE
                    || !self.mem.in_bounds(src, n)
                    || !self.mem.in_bounds(dst, n)
                {
                    trap!("__memcpy out of bounds ({src} -> {dst}, {n} bytes)");
                }
                self.mem.copy(src, dst, n);
            }
            Builtin::Tid => {
                ctx.ops.push(Value::I(ctx.tid as i64));
            }
            Builtin::NThreads => {
                ctx.ops.push(Value::I(self.config.nthreads as i64));
            }
        }
        Ok(())
    }
}

pub(crate) fn cmp_result(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

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
