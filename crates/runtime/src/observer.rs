//! Observation hooks used by the dependence profiler.
//!
//! The profiler (in `dse-depprof`) implements [`Observer`] and receives
//! every *sited* memory access, candidate-loop event, and heap event during
//! a serial run. Parallel regions run unobserved (the paper profiles the
//! sequential program only). `dse-server`'s `TraceObserver` implements
//! the same trait to stream the event feed as JSONL (`dsec --emit trace`).

use crate::mem::Allocation;
use dse_ir::bytecode::LoopEvent;
use dse_ir::sites::{AccessKind, SiteId};

/// Receiver for VM execution events.
///
/// All methods have empty default bodies so implementations override only
/// what they need.
pub trait Observer {
    /// A sited memory access executed. `sp` is the current stack pointer,
    /// letting the profiler filter out accesses to call frames created
    /// after the iteration started (which become thread-private stacks in
    /// the parallel execution).
    fn on_access(&mut self, site: SiteId, kind: AccessKind, addr: u64, width: u32, sp: u64) {
        let _ = (site, kind, addr, width, sp);
    }

    /// A candidate-loop event (serial lowering only). For
    /// [`LoopEvent::Begin`], `sp` is the *frame base* of the enclosing
    /// function (so the loop's frame-resident induction variable can be
    /// located); for `IterStart`/`End` it is the live stack pointer.
    /// `work` is the thread's instruction count so far, letting observers
    /// attribute execution time to loops (Table 4's %time column).
    fn on_loop(&mut self, ev: LoopEvent, loop_id: u32, sp: u64, work: u64) {
        let _ = (ev, loop_id, sp, work);
    }

    /// A heap allocation was created. `pc` is the allocating instruction,
    /// mapped back to the source call via
    /// [`dse_ir::CompiledProgram::alloc_sites`].
    fn on_alloc(&mut self, alloc: Allocation, pc: u32) {
        let _ = (alloc, pc);
    }

    /// A heap allocation was released (or superseded by `realloc`).
    fn on_free(&mut self, alloc: Allocation) {
        let _ = alloc;
    }
}

/// Observer that ignores everything (plain execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Memory layout facts exposed to observers (see [`crate::Vm::layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutInfo {
    /// The master thread's stack region `[base, limit)`.
    pub master_stack: (u64, u64),
    /// Start address of the heap region.
    pub heap_base: u64,
}
