//! The attributing (sampling-free) opcode profiler.
//!
//! When [`crate::vm::VmConfig::opcode_profile`] is set, the interpreter
//! charges every retired instruction to its [`OpClass`] under the loop the
//! thread is currently executing (`u32::MAX` = outside any candidate
//! loop, i.e. serial code). Attribution is exact, not sampled: the hot
//! path is one array increment on thread-local state; per-loop maps merge
//! into the VM once per dispatch, mirroring the counter flush.
//!
//! Per-iteration costs (instructions retired by one iteration) feed a
//! power-of-two histogram per loop, so `dsec profile` can show the
//! iteration cost distribution (p50/p90/p99) next to the class mix, and
//! the master adds each dynamic loop entry's wall time. Together these
//! answer "where does this loop's time go" without any tracing overhead
//! when the flag is off.

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

/// A power-of-two histogram over `u64` values: bucket `i` holds values
/// with `i` significant bits (bucket 0 = the value 0), i.e. value `v > 0`
/// lands in bucket `floor(log2 v) + 1`. Coarse (2x relative error) but
/// allocation-free and 65 slots — right-sized for per-iteration
/// instruction counts on the per-thread hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Hist {
    counts: [u64; 65],
    count: u64,
    sum: u64,
}

impl Pow2Hist {
    /// An empty histogram.
    pub fn new() -> Pow2Hist {
        Pow2Hist {
            counts: [0; 65],
            count: 0,
            sum: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Adds `other`'s recordings into `self`.
    pub fn merge(&mut self, other: &Pow2Hist) {
        for (s, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *s += *o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total recordings.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i holds values with i significant bits; its
                // largest member is 2^i - 1 (bucket 0 holds only 0).
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

impl Default for Pow2Hist {
    fn default() -> Self {
        Pow2Hist::new()
    }
}

/// Accumulated profile of one loop (or of serial code under
/// [`SERIAL_LOOP`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopProf {
    pub(crate) class_counts: [u64; NCLASS],
    pub(crate) iters: u64,
    pub(crate) iter_hist: Pow2Hist,
    pub(crate) wall_ns: u64,
}

impl LoopProf {
    fn default_hist() -> LoopProf {
        LoopProf {
            class_counts: [0; NCLASS],
            iters: 0,
            iter_hist: Pow2Hist::new(),
            wall_ns: 0,
        }
    }

    fn merge(&mut self, other: &LoopProf) {
        for (s, o) in self.class_counts.iter_mut().zip(other.class_counts.iter()) {
            *s += *o;
        }
        self.iters += other.iters;
        self.iter_hist.merge(&other.iter_hist);
        self.wall_ns += other.wall_ns;
    }
}

/// Per-thread profiler state: a flat pending-count array for the loop
/// currently executing (the hot path touches only this) plus the map it
/// flushes into on loop switches. Boxed into `ThreadCtx` so the disabled
/// case costs one null check per instruction.
#[derive(Debug)]
pub(crate) struct ProfState {
    cur: u32,
    pending: [u64; NCLASS],
    per_loop: HashMap<u32, LoopProf>,
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

    fn flush_pending(&mut self) {
        if self.pending.iter().all(|&c| c == 0) {
            return;
        }
        let entry = self
            .per_loop
            .entry(self.cur)
            .or_insert_with(LoopProf::default_hist);
        for (e, p) in entry.class_counts.iter_mut().zip(self.pending.iter()) {
            *e += *p;
        }
        self.pending = [0; NCLASS];
    }

    /// Switches attribution to `loop_id`, returning the previous loop for
    /// the caller to restore on exit (loops nest).
    pub(crate) fn enter_loop(&mut self, loop_id: u32) -> u32 {
        self.flush_pending();
        std::mem::replace(&mut self.cur, loop_id)
    }

    /// Restores attribution to `prev` (the value `enter_loop` returned).
    pub(crate) fn exit_loop(&mut self, prev: u32) {
        self.flush_pending();
        self.cur = prev;
    }

    /// Records one finished iteration of the current loop costing
    /// `instructions` retired instructions.
    #[inline]
    pub(crate) fn record_iter(&mut self, instructions: u64) {
        let entry = self
            .per_loop
            .entry(self.cur)
            .or_insert_with(LoopProf::default_hist);
        entry.iters += 1;
        entry.iter_hist.record(instructions);
    }

    /// Adds `wall_ns` to the current loop (master only, once per dynamic
    /// loop entry).
    pub(crate) fn add_wall(&mut self, wall_ns: u64) {
        let entry = self
            .per_loop
            .entry(self.cur)
            .or_insert_with(LoopProf::default_hist);
        entry.wall_ns += wall_ns;
    }

    /// Merges everything accumulated so far into the VM-wide map and
    /// resets (called at dispatch end, next to the counter flush).
    pub(crate) fn flush_into(&mut self, global: &mut HashMap<u32, LoopProf>) {
        self.flush_pending();
        for (id, prof) in self.per_loop.drain() {
            global
                .entry(id)
                .or_insert_with(LoopProf::default_hist)
                .merge(&prof);
        }
    }
}

/// One loop's profile as surfaced to tools (`Vm::opcode_profile`).
#[derive(Debug, Clone)]
pub struct LoopProfile {
    /// Candidate loop id, or [`SERIAL_LOOP`] for serial code.
    pub loop_id: u32,
    /// Wall time the master observed across this loop's dynamic entries
    /// (0 for the serial bucket — its wall is the rest of the run).
    pub wall_ns: u64,
    /// Iterations executed (summed over workers).
    pub iters: u64,
    /// Retired instructions per [`OpClass`] (index by `OpClass as usize`).
    pub class_counts: [u64; NCLASS],
    /// Distribution of per-iteration instruction costs.
    pub iter_hist: Pow2Hist,
}

impl LoopProfile {
    /// Total retired instructions across all classes.
    pub fn total_instructions(&self) -> u64 {
        self.class_counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_hist_buckets_and_percentiles() {
        let mut h = Pow2Hist::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.percentile(0.0), 0);
        // 4th of 8 values is 3 -> bucket of 2..=3 -> upper bound 3.
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(1.0), 1023);
    }

    #[test]
    fn pow2_hist_merge_matches_combined() {
        let mut a = Pow2Hist::new();
        let mut b = Pow2Hist::new();
        let mut c = Pow2Hist::new();
        for v in [5, 17, 90] {
            a.record(v);
            c.record(v);
        }
        for v in [2, 300] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
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
        p.exit_loop(inner_prev);
        p.tick(OpClass::Mem);
        p.record_iter(4);
        p.exit_loop(prev);
        let mut global = HashMap::new();
        p.flush_into(&mut global);
        assert_eq!(global[&SERIAL_LOOP].class_counts[OpClass::Alu as usize], 1);
        assert_eq!(global[&3].class_counts[OpClass::Mem as usize], 3);
        assert_eq!(global[&3].iters, 1);
        assert_eq!(global[&4].class_counts[OpClass::Sync as usize], 1);
    }
}
