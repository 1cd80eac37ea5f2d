//! # dse-runtime — the execution substrate
//!
//! A multi-threaded virtual machine for the `dse-ir` bytecode, standing in
//! for the paper's native x86 execution environment:
//!
//! * [`mem`] — byte-addressable shared memory over atomic words (word-level
//!   bulk copy/zero at any alignment).
//! * [`alloc`] — the heap: size-class segregated free lists with
//!   sharded front-end caches (O(1), mostly uncontended alloc/free) and a
//!   sharded allocation registry (parallel interior-pointer lookup,
//!   live/peak accounting for the Figure 14 memory experiments).
//! * [`vm`] — the machine (memory, heap, I/O channels, per-thread cost
//!   counters in the categories of the paper's Figure 12) and the
//!   reference stack interpreter.
//! * [`regvm`] — the register interpreter; [`backend`] names the two
//!   encodings.
//! * [`ops`] — what every opcode and builtin *does* (checked memory
//!   access, call frames on in-VM stacks, `malloc`..`free`, host I/O,
//!   `__tid`/`__nthreads`, the expansion pass's `__realloc_expanded`,
//!   every trap message): the one definition both interpreters call.
//! * [`exec`] — the parallel executor: DOALL chunked dynamic scheduling
//!   with work stealing, DOACROSS dynamic chunk-1 scheduling with
//!   post/wait ordering (GOMP stand-in).
//! * [`pool`] — the persistent worker pool behind [`exec`]: one spawn per
//!   run, condvar-parked workers woken by loop-dispatch descriptors,
//!   reusable per-worker contexts with thread-affine heap magazines.
//! * [`privatize`] — the SpiceC-style runtime-privatization baseline
//!   (Section 4.2.1): copy-in on first touch, address translation per
//!   access, commit at loop end.
//! * [`observer`] — hooks the dependence profiler uses to watch serial
//!   runs.
//! * [`tracebuf`] — always-compiled-in, off-by-default event tracing:
//!   per-worker ring buffers of fixed-size binary events (dispatch,
//!   steal, park/wake, loop spans, DOACROSS wait/post, allocator slow
//!   paths), drained into one sink at dispatch end.
//! * [`prof`] — the loop record: retired instructions per (loop id, opcode
//!   class), iteration counts, and the exact cost of every outermost
//!   iteration, on either backend.
//!
//! ```
//! use dse_runtime::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = dse_lang::compile_to_ast("int main() { return 6 * 7; }")?;
//! let compiled = dse_ir::lower_program(&program, &Default::default())?;
//! let mut vm = Vm::new(compiled, VmConfig::default())?;
//! let report = vm.run()?;
//! assert_eq!(report.return_value, Some(dse_runtime::Value::I(42)));
//! # Ok(())
//! # }
//! ```

pub mod alloc;
pub mod backend;
pub mod exec;
pub mod mem;
pub mod observer;
pub mod ops;
pub mod pool;
pub mod privatize;
pub mod prof;
pub mod regvm;
pub mod taskpool;
pub mod tracebuf;
pub mod vm;

pub use alloc::{Allocation, Heap, HeapContention};
pub use backend::BackendKind;
pub use mem::SharedMem;
pub use observer::{NullObserver, Observer};
pub use pool::PoolStats;
pub use prof::{class_of, IterCost, LoopProfile, OpClass, CLASS_NAMES, NCLASS, SERIAL_LOOP};
pub use taskpool::{TaskPool, TaskPoolStats};
pub use tracebuf::{EventBuf, EventKind, TraceEvent, TraceSink, HEAP_TID};
pub use vm::{Counters, RunReport, ThreadCtx, Value, Vm, VmConfig, VmError};
