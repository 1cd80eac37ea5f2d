//! The loop record: one instrument for `dsec profile` and the schedule
//! simulator.
//!
//! When [`crate::vm::VmConfig::profile`] is set, the interpreter charges
//! every retired instruction to its [`OpClass`] under the loop the thread is
//! currently executing (`u32::MAX` = outside any candidate loop, i.e.
//! serial code). Both backends charge through [`class_of`]: the register
//! interpreter looks up the stack instruction each register instruction was
//! translated from. Attribution is exact, not sampled: the hot path is one
//! array increment on thread-local state.
//!
//! Per loop the record also keeps an iteration count, the master's wall
//! time, and the exact [`IterCost`] of every iteration a thread ran as its
//! *outermost* loop — the loop a worker was dispatched, or the outermost
//! loop a serial run entered. A nested candidate loop runs inline inside
//! such an iteration, so its cost is already part of that iteration's and
//! is not recorded twice. Threads accumulate privately and merge into the
//! VM once per dispatch, next to the counter flush.

use dse_ir::bytecode::Instr;
use std::collections::HashMap;

/// Loop id the profiler charges serial (outside-loop) execution to.
pub const SERIAL_LOOP: u32 = u32::MAX;

/// Coarse instruction classes the profiler buckets by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpClass {
    /// Operand-stack shuffling: push/dup/drop/tuck.
    Stack = 0,
    /// Address formation: frame/global/tid addressing, `IterIdx`.
    Addr = 1,
    /// Memory traffic: loads, stores, `MemCpy`.
    Mem = 2,
    /// Arithmetic, comparisons, conversions.
    Alu = 3,
    /// Control flow: jumps, calls, returns, loop markers.
    Ctl = 4,
    /// Cross-iteration synchronization: `Wait`/`Post`.
    Sync = 5,
    /// Builtin calls (allocation, I/O, intrinsics).
    Builtin = 6,
    /// Runtime-privatization address translation.
    Localize = 7,
}

/// Number of [`OpClass`] buckets.
pub const NCLASS: usize = 8;

/// Display names, indexed by `OpClass as usize`.
pub const CLASS_NAMES: [&str; NCLASS] = [
    "stack", "addr", "mem", "alu", "ctl", "sync", "builtin", "localize",
];

/// The class of one instruction.
#[inline]
pub fn class_of(instr: &Instr) -> OpClass {
    match instr {
        Instr::PushI(_) | Instr::PushF(_) | Instr::Dup | Instr::Drop | Instr::Tuck => {
            OpClass::Stack
        }
        Instr::FrameAddr(_)
        | Instr::GlobalAddr(_)
        | Instr::TidScaled(_)
        | Instr::FrameAddrTid { .. }
        | Instr::GlobalAddrTid { .. }
        | Instr::TidSpanScaled(_)
        | Instr::IterIdx(_) => OpClass::Addr,
        Instr::Load { .. } | Instr::Store { .. } | Instr::MemCpy { .. } => OpClass::Mem,
        Instr::IBin(_)
        | Instr::FBin(_)
        | Instr::ICmp(_)
        | Instr::FCmp(_)
        | Instr::INeg
        | Instr::FNeg
        | Instr::BNot
        | Instr::LNot
        | Instr::I2F
        | Instr::F2I
        | Instr::SextTrunc(_) => OpClass::Alu,
        Instr::Jump(_)
        | Instr::JumpIfZ(_)
        | Instr::JumpIfNZ(_)
        | Instr::Call(_)
        | Instr::Ret
        | Instr::LoopMark(..)
        | Instr::ParLoop(_)
        | Instr::Halt => OpClass::Ctl,
        Instr::Wait(_) | Instr::Post(_) => OpClass::Sync,
        // Every builtin, allocation and intrinsic alike; the `Localize`
        // class below tracks the instruction the transform inserts on
        // privatized accesses, not a builtin.
        Instr::CallBuiltin(_) => OpClass::Builtin,
        Instr::Localize { .. } => OpClass::Localize,
    }
}

/// Cost segments of one loop iteration, in retired instructions of the
/// executing backend. `pre` precedes the DOACROSS ordered window, `window`
/// is inside it, `post` follows it (DOALL iterations are all `pre`). The
/// schedule simulator replays them.
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

impl IterCost {
    /// Instructions the iteration retired: `pre + window + post`.
    pub fn total(&self) -> u64 {
        self.pre + self.window + self.post
    }
}

/// One loop's record (or serial code's, under [`SERIAL_LOOP`]), as
/// [`crate::Vm::profile`] surfaces it.
#[derive(Debug, Clone, Default)]
pub struct LoopProfile {
    /// Candidate loop id, or [`SERIAL_LOOP`] for serial code.
    pub loop_id: u32,
    /// Wall time across this loop's dynamic entries, each measured by the
    /// thread that entered it — the master, for a dispatched loop (0 for
    /// the serial bucket — its wall is the rest of the run).
    pub wall_ns: u64,
    /// Iterations executed (summed over workers and entries).
    pub iters: u64,
    /// Retired instructions per [`OpClass`] (index by `OpClass as usize`).
    pub class_counts: [u64; NCLASS],
    /// Every iteration the loop ran as its thread's outermost loop: one
    /// vector per thread's share of a dynamic entry, in the order that
    /// thread ran them. A serial run therefore has one vector per dynamic
    /// entry, in iteration order. Empty for a loop that only ever ran
    /// nested and for the serial bucket.
    pub costs: Vec<Vec<IterCost>>,
}

impl LoopProfile {
    fn new(loop_id: u32) -> LoopProfile {
        LoopProfile {
            loop_id,
            ..LoopProfile::default()
        }
    }

    /// Total retired instructions across all classes.
    pub fn total_instructions(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// The exact `q`-quantile (`0.0 <= q <= 1.0`) of the recorded iteration
    /// costs: the `ceil(q * n)`-th smallest of the `n` totals. `None` when
    /// no iteration cost was recorded.
    pub fn cost_quantile(&self, q: f64) -> Option<u64> {
        let mut totals: Vec<u64> = self.costs.iter().flatten().map(IterCost::total).collect();
        totals.sort_unstable();
        let rank = (q * totals.len() as f64).ceil() as usize;
        totals.get(rank.max(1) - 1).copied()
    }

    fn merge(&mut self, other: LoopProfile) {
        for (s, o) in self.class_counts.iter_mut().zip(other.class_counts) {
            *s += o;
        }
        self.iters += other.iters;
        self.wall_ns += other.wall_ns;
        self.costs.extend(other.costs);
    }
}

/// Per-thread profiler state: a flat pending-count array for the loop
/// currently executing (the hot path touches only this) plus the records
/// it flushes into on loop switches. Boxed into `ThreadCtx` so the disabled
/// case costs one null check per instruction.
#[derive(Debug)]
pub(crate) struct ProfState {
    cur: u32,
    pending: [u64; NCLASS],
    per_loop: HashMap<u32, LoopProfile>,
}

impl ProfState {
    pub(crate) fn new() -> ProfState {
        ProfState {
            cur: SERIAL_LOOP,
            pending: [0; NCLASS],
            per_loop: HashMap::new(),
        }
    }

    /// The hot-path hook: charge one retired instruction.
    #[inline]
    pub(crate) fn tick(&mut self, class: OpClass) {
        self.pending[class as usize] += 1;
    }

    fn record(&mut self, loop_id: u32) -> &mut LoopProfile {
        self.per_loop
            .entry(loop_id)
            .or_insert_with(|| LoopProfile::new(loop_id))
    }

    fn flush_pending(&mut self) {
        if self.pending.iter().all(|&c| c == 0) {
            return;
        }
        let pending = std::mem::replace(&mut self.pending, [0; NCLASS]);
        let record = self.record(self.cur);
        for (e, p) in record.class_counts.iter_mut().zip(pending) {
            *e += p;
        }
    }

    /// Switches attribution to `loop_id`, returning the previous loop for
    /// the caller to restore on exit (loops nest).
    pub(crate) fn enter_loop(&mut self, loop_id: u32) -> u32 {
        self.flush_pending();
        std::mem::replace(&mut self.cur, loop_id)
    }

    /// Closes this thread's share of the current loop — `iters` iterations
    /// and, for an outermost share, their `costs` — and restores
    /// attribution to `prev` (the value `enter_loop` returned).
    pub(crate) fn exit_loop(&mut self, prev: u32, iters: u64, costs: Option<Vec<IterCost>>) {
        self.flush_pending();
        let record = self.record(self.cur);
        record.iters += iters;
        record.costs.extend(costs.filter(|c| !c.is_empty()));
        self.cur = prev;
    }

    /// Adds `wall_ns` to `loop_id` (once per dynamic loop entry, by the
    /// thread that entered it).
    pub(crate) fn add_wall(&mut self, loop_id: u32, wall_ns: u64) {
        self.record(loop_id).wall_ns += wall_ns;
    }

    /// Merges everything accumulated so far into the VM-wide records and
    /// resets (called at dispatch end, next to the counter flush).
    pub(crate) fn flush_into(&mut self, global: &mut HashMap<u32, LoopProfile>) {
        self.flush_pending();
        for (id, record) in self.per_loop.drain() {
            global
                .entry(id)
                .or_insert_with(|| LoopProfile::new(id))
                .merge(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(pre: u64, window: u64, post: u64) -> IterCost {
        IterCost {
            pre,
            window,
            post,
            ..IterCost::default()
        }
    }

    #[test]
    fn prof_state_attributes_by_loop_and_nests() {
        let mut p = ProfState::new();
        p.tick(OpClass::Alu); // serial
        let prev = p.enter_loop(3);
        p.tick(OpClass::Mem);
        p.tick(OpClass::Mem);
        let inner_prev = p.enter_loop(4);
        p.tick(OpClass::Sync);
        p.exit_loop(inner_prev, 2, None);
        p.tick(OpClass::Mem);
        p.exit_loop(prev, 1, Some(vec![cost(4, 0, 0)]));
        let mut global = HashMap::new();
        p.flush_into(&mut global);
        assert_eq!(global[&SERIAL_LOOP].class_counts[OpClass::Alu as usize], 1);
        assert_eq!(global[&3].class_counts[OpClass::Mem as usize], 3);
        assert_eq!(global[&3].iters, 1);
        assert_eq!(global[&3].costs, [vec![cost(4, 0, 0)]]);
        assert_eq!(global[&4].class_counts[OpClass::Sync as usize], 1);
        assert_eq!(global[&4].iters, 2);
        assert!(
            global[&4].costs.is_empty(),
            "a nested share records no costs"
        );
    }

    #[test]
    fn cost_quantiles_are_exact_ranks() {
        let mut p = LoopProfile::new(0);
        assert_eq!(p.cost_quantile(0.5), None, "nothing recorded");
        p.costs = vec![
            vec![cost(1, 0, 0), cost(2, 1, 0), cost(3, 0, 0)],
            vec![cost(0, 0, 4), cost(5, 2, 1), cost(10, 0, 0)],
        ];
        // Totals 1, 3, 3, 4, 8, 10.
        assert_eq!(p.cost_quantile(0.0), Some(1));
        assert_eq!(p.cost_quantile(0.5), Some(3));
        assert_eq!(p.cost_quantile(0.9), Some(10));
        assert_eq!(p.cost_quantile(1.0), Some(10));
    }
}
