//! The persistent work-stealing loop executor.
//!
//! A server executes back-to-back loops, where per-loop thread creation
//! and cold per-thread state would dominate the measurement, so worker
//! threads live as long as the run:
//!
//! * **One spawn per run.** [`crate::vm::Vm::run`] opens a single thread
//!   scope for the whole program; workers `1..N` park on a condvar between
//!   loops and are woken by a `LoopDispatch` descriptor (loop id, range,
//!   mode, shared `LoopSync`). The master participates as worker 0 on
//!   its own live context, so its frame pointer still addresses the
//!   enclosing function's frame.
//! * **Reusable contexts.** Each worker owns a persistent
//!   [`ThreadCtx`] (stack region, counters, sync stack) held in
//!   `PoolState`; a dispatch resets the per-loop fields and keeps
//!   everything else warm.
//! * **Dynamic DOALL scheduling.** The iteration range is split into
//!   one share per worker ([`DoallShares`]); owners claim chunks from the
//!   front, idle workers steal the back half of a victim's remaining
//!   range (leaving the owner at least one iteration). The whole policy
//!   is [`DoallShares::claim`]: the executor loops over it on real
//!   threads and the schedule simulator (`dse_bench::sim`) replays it, so
//!   the two cannot disagree. DOACROSS claims iterations in order, one at
//!   a time, through the shared counter.
//!
//! Dispatch/steal/park/wakeup counts are recorded in [`PoolStats`] and
//! flow into `RunReport` → `dsec --metrics`.

use crate::tracebuf::{EventKind, TraceEvent};
use crate::vm::{LoopSync, ThreadCtx, VmError};
use dse_ir::loops::ParMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Pool counters, snapshotted into `RunReport::pool`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads spawned for the pool over the run (`nthreads - 1` for a
    /// pooled run regardless of how many loops executed — the no-churn
    /// invariant the lifecycle tests assert).
    pub workers: u64,
    /// Loop dispatches handed to the pool.
    pub dispatches: u64,
    /// Successful steals of a victim's back half (DOALL loops).
    pub steals: u64,
    /// Times a worker blocked on the dispatch condvar (re-checks after a
    /// spurious wakeup count again).
    pub parks: u64,
    /// Dispatches a pool worker woke up to execute.
    pub wakeups: u64,
}

#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    pub(crate) spawned: AtomicU64,
    pub(crate) dispatches: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) wakeups: AtomicU64,
}

/// One parallel loop's worth of work, published to the pool as a single
/// shared descriptor.
#[derive(Debug)]
pub(crate) struct LoopDispatch {
    /// Candidate loop id.
    pub id: u32,
    /// Scheduling mode of the loop.
    pub mode: ParMode,
    /// Entry pc of the outlined body region, in the executing backend's
    /// own pc space (`Vm::resolve_entry`).
    pub body: u32,
    /// One past the last iteration (DOACROSS claims stop here; the first
    /// iteration is `sync.next`'s initial value).
    pub hi: i64,
    /// The master's frame base, shared by all workers.
    pub frame_base: u64,
    /// Cross-iteration synchronization (shared counter, done fence, abort).
    pub sync: Arc<LoopSync>,
    /// The range shared out among the workers (DOALL only).
    pub shares: Option<DoallShares>,
    /// First real error of any worker (abort-induced errors lose).
    pub err: Mutex<Option<VmError>>,
}

/// Chunks each worker's initial DOALL share is claimed in: enough splits
/// that stealing can rebalance, coarse enough that the per-chunk lock is
/// amortized over real work.
const CHUNKS_PER_WORKER: i128 = 8;

/// Iterations `lo..hi` handed to one worker by [`DoallShares::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// First iteration of the claim.
    pub lo: i64,
    /// One past its last iteration.
    pub hi: i64,
    /// The victim whose back half was stolen to make this claim; `None`
    /// when it came off the front of the worker's own share.
    pub stolen_from: Option<u32>,
}

/// One DOALL loop's iteration range, shared out among its workers — the
/// scheduling policy in one place. The range is split into one contiguous
/// share per worker (the split static scheduling uses, so balanced loads
/// keep their locality and stealing only kicks in under imbalance); a
/// worker claims `total / (8 n)` iterations at a time off the front of
/// its own share, and once that is empty steals the back half of the
/// first victim, scanning round-robin from its right-hand neighbour, that
/// has two or more iterations left.
#[derive(Debug)]
pub struct DoallShares {
    /// Owner-claim granularity (iterations per claim).
    chunk: i64,
    queues: Vec<StealQueue>,
}

impl DoallShares {
    /// Splits `lo..hi` among `nworkers`. The bounds come straight from
    /// program operands and `hi - lo` may exceed `i64::MAX`, so the split
    /// is sized in `i128`; every cut lies in `lo..=hi`.
    pub fn new(lo: i64, hi: i64, nworkers: u32) -> DoallShares {
        let n = nworkers as i128;
        let (lo, hi) = (lo as i128, (hi as i128).max(lo as i128));
        let per = (hi - lo + n - 1) / n;
        let cut = |t: i128| (lo + t * per).min(hi) as i64;
        DoallShares {
            chunk: ((hi - lo) / (n * CHUNKS_PER_WORKER)).max(1) as i64,
            queues: (0..n)
                .map(|t| StealQueue::new(cut(t), cut(t + 1)))
                .collect(),
        }
    }

    /// `worker`'s next iterations, or `None` once its own share is empty
    /// and no victim has a stealable one — every remaining iteration is
    /// then claimed or about to be claimed by its owner, so the worker is
    /// done with the loop. After a steal the worker runs the first chunk
    /// of the loot and keeps the rest as its new (stealable) share.
    pub fn claim(&self, worker: u32) -> Option<Claim> {
        let own = &self.queues[worker as usize];
        if let Some((lo, hi)) = own.pop_front(self.chunk) {
            return Some(Claim {
                lo,
                hi,
                stolen_from: None,
            });
        }
        let nq = self.queues.len();
        (1..nq).find_map(|off| {
            let victim = (worker as usize + off) % nq;
            let (lo, end) = self.queues[victim].steal_half()?;
            let hi = lo.saturating_add(self.chunk).min(end);
            own.install(hi, end);
            Some(Claim {
                lo,
                hi,
                stolen_from: Some(victim as u32),
            })
        })
    }
}

/// A worker's share of a DOALL range: a contiguous span claimed from the
/// front by its owner in `chunk`-sized pieces and halved from the back by
/// thieves. Equivalent to a deque of contiguous iteration chunks, stored
/// as its two bounds. Cache-line aligned so neighboring workers' queues
/// do not false-share.
#[repr(align(64))]
#[derive(Debug)]
struct StealQueue {
    range: Mutex<(i64, i64)>,
}

impl StealQueue {
    fn new(lo: i64, hi: i64) -> Self {
        StealQueue {
            range: Mutex::new((lo, hi)),
        }
    }

    /// The owner claims the next `chunk` iterations from the front.
    fn pop_front(&self, chunk: i64) -> Option<(i64, i64)> {
        let mut r = self.range.lock().unwrap();
        if r.0 >= r.1 {
            return None;
        }
        let s = r.0;
        let e = s.saturating_add(chunk).min(r.1);
        r.0 = e;
        Some((s, e))
    }

    /// A thief takes the back half of the remaining range. Always leaves
    /// the owner at least one iteration, so every worker with a non-empty
    /// initial share executes work (and repeated steals terminate).
    fn steal_half(&self) -> Option<(i64, i64)> {
        let mut r = self.range.lock().unwrap();
        // A share can span more than `i64::MAX` iterations.
        let len = if r.1 > r.0 { r.1.abs_diff(r.0) } else { 0 };
        if len < 2 {
            return None;
        }
        let s = r.1 - (len / 2) as i64;
        let e = r.1;
        r.1 = s;
        Some((s, e))
    }

    /// Installs a stolen range as the (empty) owner's new share, making it
    /// stealable in turn.
    fn install(&self, lo: i64, hi: i64) {
        let mut r = self.range.lock().unwrap();
        debug_assert!(r.0 >= r.1, "install over a non-empty queue");
        *r = (lo, hi);
    }
}

#[derive(Debug)]
struct DispatchState {
    /// Bumped once per dispatch; workers run each epoch exactly once.
    epoch: u64,
    /// The descriptor for the current epoch (cleared after completion).
    job: Option<Arc<LoopDispatch>>,
    /// Workers that have not yet finished the current epoch.
    remaining: u32,
    /// Cleared while the owning run's worker scope is up.
    shutdown: bool,
}

/// The pool's shared state. Owned by the `Vm`; the worker *threads* live
/// inside the scope `Vm::run` opens, so borrows of the VM stay safe with
/// no unsafe code, while contexts, counters and dispatch state persist in
/// the VM across loops.
pub(crate) struct PoolState {
    state: Mutex<DispatchState>,
    work_cv: Condvar,
    done_cv: Condvar,
    pub(crate) counters: PoolCounters,
    /// Reusable per-worker contexts, indexed by `wid - 1`.
    ctxs: Vec<Mutex<ThreadCtx>>,
    nworkers: u32,
}

impl PoolState {
    /// Builds pool state for workers `1..nthreads`, each with its fixed
    /// stack region.
    pub(crate) fn new(nthreads: u32, stacks_base: u64, stack_bytes: u64) -> PoolState {
        PoolState {
            state: Mutex::new(DispatchState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: true,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            counters: PoolCounters::default(),
            ctxs: (1..nthreads)
                .map(|t| {
                    Mutex::new(ThreadCtx::new(
                        t,
                        stacks_base + t as u64 * stack_bytes,
                        stack_bytes,
                    ))
                })
                .collect(),
            nworkers: nthreads - 1,
        }
    }

    /// Number of pool workers (the master is not one).
    pub(crate) fn nworkers(&self) -> u32 {
        self.nworkers
    }

    /// Worker `wid`'s persistent context.
    pub(crate) fn ctx(&self, wid: u32) -> &Mutex<ThreadCtx> {
        &self.ctxs[wid as usize - 1]
    }

    /// Marks the pool open for a run and returns the epoch workers must
    /// treat as "already seen" (read *before* any dispatch can happen, so
    /// a late-starting worker never skips a published job).
    pub(crate) fn open(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.shutdown = false;
        st.epoch
    }

    /// Tells every parked worker to exit (end of run).
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        drop(st);
        self.work_cv.notify_all();
    }

    /// Returns a guard that shuts the pool down when dropped, so worker
    /// threads exit (and the run's scope can join them) even if the master
    /// unwinds.
    pub(crate) fn guard(&self) -> ShutdownGuard<'_> {
        ShutdownGuard(self)
    }

    /// Publishes `job` to all workers and wakes them. The caller (master)
    /// must run its own share and then [`PoolState::wait_done`].
    pub(crate) fn begin(&self, job: Arc<LoopDispatch>) {
        let mut st = self.state.lock().unwrap();
        debug_assert_eq!(st.remaining, 0, "dispatch while a loop is in flight");
        st.job = Some(job);
        st.epoch += 1;
        st.remaining = self.nworkers;
        drop(st);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        self.work_cv.notify_all();
    }

    /// Blocks until every worker finished the current dispatch.
    pub(crate) fn wait_done(&self) {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.done_cv.wait(st).unwrap();
        }
        st.job = None;
    }

    /// Snapshot of the pool counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.counters.spawned.load(Ordering::Relaxed),
            dispatches: self.counters.dispatches.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            parks: self.counters.parks.load(Ordering::Relaxed),
            wakeups: self.counters.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// Shuts the pool down on drop (see [`PoolState::guard`]).
pub(crate) struct ShutdownGuard<'a>(&'a PoolState);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A pool worker's thread body: park on the dispatch condvar and execute
/// each published epoch exactly once until shutdown.
pub(crate) fn worker_entry(vm: &crate::vm::Vm, wid: u32, mut seen_epoch: u64) {
    let pool = vm.pool().expect("worker_entry without a pool");
    pool.counters.spawned.fetch_add(1, Ordering::Relaxed);
    loop {
        // Park/wake tracing pushes straight to the shared sink: this is
        // the idle path (the worker is blocked either side of it), and the
        // worker's ring lives inside its context, which is locked only
        // while executing a dispatch.
        let sink = vm.trace_sink();
        let mut park_t0 = None;
        // `None` when woken for shutdown.
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.shutdown {
                    break None;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    let job = st.job.as_ref().expect("job published with its epoch");
                    break Some(Arc::clone(job));
                }
                pool.counters.parks.fetch_add(1, Ordering::Relaxed);
                if let (Some(sink), None) = (sink, park_t0) {
                    park_t0 = Some(sink.now_ns());
                }
                st = pool.work_cv.wait(st).unwrap();
            }
        };
        // The park span is recorded however the park ended, so the last
        // one (until shutdown) is in the trace like the others.
        if let Some(sink) = sink {
            let now = sink.now_ns();
            if let Some(t0) = park_t0 {
                sink.push(TraceEvent {
                    ts_ns: t0,
                    dur_ns: now.saturating_sub(t0),
                    a: 0,
                    b: 0,
                    tid: wid,
                    kind: EventKind::Park,
                });
            }
            if let Some(job) = &job {
                sink.push(TraceEvent {
                    ts_ns: now,
                    dur_ns: 0,
                    a: job.id as u64,
                    b: 0,
                    tid: wid,
                    kind: EventKind::Wake,
                });
            }
        }
        let Some(job) = job else {
            return;
        };
        pool.counters.wakeups.fetch_add(1, Ordering::Relaxed);
        vm.run_dispatch_worker(wid, &job);
        let mut st = pool.state.lock().unwrap();
        st.remaining -= 1;
        if st.remaining == 0 {
            pool.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_cover_range_exactly_once() {
        for (lo, hi, n) in [(0, 7, 8), (0, 0, 4), (3, 5, 8), (0, 64, 3), (-5, 9, 4)] {
            let shares = DoallShares::new(lo, hi, n);
            assert_eq!(shares.queues.len(), n as usize);
            let mut seen = Vec::new();
            for w in 0..n {
                while let Some(c) = shares.claim(w) {
                    seen.extend(c.lo..c.hi);
                }
            }
            seen.sort_unstable();
            let want: Vec<i64> = (lo..hi).collect();
            assert_eq!(seen, want, "DoallShares::new({lo}, {hi}, {n})");
        }
    }

    /// `hi - lo` past `i64::MAX` (bounds are program operands): the shares
    /// still tile the range, and a thief can halve a share that wide.
    #[test]
    fn split_survives_a_range_wider_than_i64() {
        let (lo, hi) = (i64::MIN + 1, i64::MAX);
        let shares = DoallShares::new(lo, hi, 2);
        let bounds: Vec<(i64, i64)> = shares
            .queues
            .iter()
            .map(|q| *q.range.lock().unwrap())
            .collect();
        assert_eq!(bounds, [(lo, 0), (0, hi)]);
        assert_eq!(shares.chunk, (1 << 60) - 1);
        let first = shares.claim(0).expect("worker 0 owns half the range");
        assert_eq!((first.lo, first.stolen_from), (lo, None));
        assert_eq!(shares.queues[1].steal_half(), Some((hi / 2 + 1, hi)));
    }

    #[test]
    fn steal_half_leaves_owner_one_iteration() {
        let q = StealQueue::new(0, 10);
        let (s, e) = q.steal_half().unwrap();
        assert_eq!((s, e), (5, 10));
        assert_eq!(q.steal_half(), Some((3, 5)));
        assert_eq!(q.steal_half(), Some((2, 3)));
        // One iteration left: not stealable, only poppable by the owner.
        assert_eq!(q.steal_half(), Some((1, 2)));
        assert_eq!(q.steal_half(), None);
        assert_eq!(q.pop_front(4), Some((0, 1)));
        assert_eq!(q.pop_front(4), None);
    }

    #[test]
    fn pop_and_steal_partition_the_range() {
        let q = StealQueue::new(0, 100);
        let mut mine = Vec::new();
        let mut stolen = Vec::new();
        loop {
            let popped = q.pop_front(3);
            if let Some((s, e)) = popped {
                mine.extend(s..e);
            }
            if let Some((s, e)) = q.steal_half() {
                stolen.extend(s..e);
            } else if popped.is_none() {
                break;
            }
        }
        let mut all = mine.clone();
        all.extend(&stolen);
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i64>>());
        assert!(!stolen.is_empty());
    }
}
