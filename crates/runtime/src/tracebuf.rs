//! Low-overhead runtime event tracing: fixed-size binary events, per-worker
//! ring buffers, one shared sink.
//!
//! The tracing subsystem is always compiled in and off by default
//! ([`crate::vm::VmConfig::trace`]). When enabled, every worker records
//! [`TraceEvent`]s into its own [`EventBuf`] — a fixed-capacity ring owned
//! by the worker's `ThreadCtx`, written with plain stores (no locks, no
//! atomics on the hot path). Buffers are drained into the VM's
//! [`TraceSink`] at dispatch end, alongside the existing counter flush, so
//! the sink mutex is taken once per (worker, loop), never per event.
//!
//! Overflow policy: a full ring overwrites its *oldest* event and bumps a
//! `dropped` count, so a trace always holds the most recent window and the
//! exporter can report exactly how much history was lost.
//!
//! Timestamps are nanosecond offsets from the sink's epoch (taken at
//! `Vm::new`), so events from different workers, the allocator and the
//! compilation pipeline land on one comparable timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened. Encoded in one byte; `a`/`b` payloads per kind are
/// documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Span: one worker's participation in one loop dispatch (or one inline
    /// run of a loop). `a` = loop id, `b` = iterations executed by this
    /// worker.
    LoopRun = 0,
    /// Instant: the master published a loop to the executor.
    /// `a` = loop id, `b` = worker count.
    Dispatch = 1,
    /// Instant: a thief took the back half of a victim's DOALL share.
    /// `a` = loop id, `b` = victim worker index.
    Steal = 2,
    /// Span: a pool worker parked on the dispatch condvar (`a`/`b`
    /// unused).
    Park = 3,
    /// Instant: a pool worker woke up with a job. `a` = loop id of the job.
    Wake = 4,
    /// Span: time inside a DOACROSS `Wait` until the predecessor posted.
    /// `a` = loop id, `b` = iteration waited on.
    WaitSpan = 5,
    /// Instant: an iteration's ordered section posted.
    /// `a` = loop id, `b` = iteration.
    Post = 6,
    /// Instant: a VM trap. `a` = faulting pc, `b` = loop id (or
    /// `u64::MAX` outside a loop).
    Trap = 7,
    /// Instant: an empty size-class free list refilled from the free map.
    /// `a` = size class, `b` = blocks obtained.
    Refill = 8,
    /// Span: allocator scavenge (every class list drained into the free
    /// map before an allocation retries).
    Scavenge = 9,
}

impl EventKind {
    /// Stable lowercase name (chrome-trace event name, flamegraph frame).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::LoopRun => "loop_run",
            EventKind::Dispatch => "dispatch",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
            EventKind::WaitSpan => "wait",
            EventKind::Post => "post",
            EventKind::Trap => "trap",
            EventKind::Refill => "refill",
            EventKind::Scavenge => "scavenge",
        }
    }

    /// Whether events of this kind carry a duration (chrome `X` events);
    /// the rest are instants (chrome `i` events).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::LoopRun | EventKind::Park | EventKind::WaitSpan | EventKind::Scavenge
        )
    }
}

/// Events each worker's ring holds between drains. A full ring overwrites
/// its oldest event and counts the drop.
pub const RING_CAPACITY: usize = 8192;

/// Pseudo worker id used for events not tied to a VM thread (allocator
/// backend activity). The chrome exporter gives these their own track.
pub const HEAP_TID: u32 = u32::MAX;

/// One fixed-size binary trace event (40 bytes). Field meaning of `a`/`b`
/// depends on [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the sink epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
    /// First payload (see [`EventKind`]).
    pub a: u64,
    /// Second payload (see [`EventKind`]).
    pub b: u64,
    /// Worker index that recorded the event ([`HEAP_TID`] for allocator
    /// backend events).
    pub tid: u32,
    /// Event kind.
    pub kind: EventKind,
}

/// A worker-owned fixed-capacity event ring. Plain stores only — the owner
/// is the sole writer and the sole reader until it drains itself into the
/// shared [`TraceSink`] at dispatch end.
#[derive(Debug)]
pub struct EventBuf {
    /// Storage; grows with pushes until it reaches `cap`, then becomes a
    /// ring with `head` marking the oldest (= next overwritten) slot.
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    /// Events overwritten since the last drain.
    dropped: u64,
}

impl EventBuf {
    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> EventBuf {
        let cap = cap.max(1);
        EventBuf {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event, overwriting the oldest (and counting it dropped)
    /// when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten since the last [`EventBuf::drain`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes every buffered event in record order (oldest first) and
    /// resets the ring. Returns `(events, dropped)` where `dropped` is the
    /// overwrite count since the previous drain.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        // Once wrapped, `head` is the oldest slot: replay [head..) then
        // [..head). Before wrapping, insertion order is index order.
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        let dropped = self.dropped;
        self.dropped = 0;
        (out, dropped)
    }
}

/// The VM-wide collection point. Workers drain their rings here once per
/// dispatch; slow paths with no thread context (allocator backend, pool
/// park/wake) push directly — both are off the per-instruction hot path.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceSink {
    /// A sink whose timeline starts now.
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The instant all timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds elapsed since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Pushes one event directly (slow paths only).
    pub fn push(&self, ev: TraceEvent) {
        self.events.lock().unwrap().push(ev);
    }

    /// Drains a worker ring into the sink (one lock per dispatch).
    pub fn absorb(&self, buf: &mut EventBuf) {
        let (evs, dropped) = buf.drain();
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        if !evs.is_empty() {
            self.events.lock().unwrap().extend_from_slice(&evs);
        }
    }

    /// Takes the collected trace, sorted by start time, plus the total
    /// ring-overflow drop count.
    pub fn take(&self) -> (Vec<TraceEvent>, u64) {
        let mut evs = std::mem::take(&mut *self.events.lock().unwrap());
        evs.sort_by_key(|e| e.ts_ns);
        (evs, self.dropped.load(Ordering::Relaxed))
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            dur_ns: 0,
            a: ts,
            b: 0,
            tid: 0,
            kind: EventKind::Post,
        }
    }

    #[test]
    fn ring_keeps_order_before_wrap() {
        let mut r = EventBuf::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = EventBuf::new(4);
        for i in 0..11 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 7);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 7);
        // The most recent window, oldest first.
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        // Drain resets both the ring and the drop count.
        let (evs2, dropped2) = r.drain();
        assert!(evs2.is_empty());
        assert_eq!(dropped2, 0);
    }

    #[test]
    fn ring_wrap_boundary_exact_fill() {
        let mut r = EventBuf::new(3);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        let (evs, _) = r.drain();
        assert_eq!(evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), [0, 1, 2]);
        // One past capacity: exactly one drop, window slides by one.
        for i in 0..4 {
            r.push(ev(i));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 1);
        assert_eq!(evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn sink_orders_and_accumulates_drops() {
        let sink = TraceSink::new();
        let mut a = EventBuf::new(2);
        a.push(ev(5));
        a.push(ev(9));
        a.push(ev(1)); // overwrites ts=5
        let mut b = EventBuf::new(4);
        b.push(ev(3));
        sink.absorb(&mut a);
        sink.absorb(&mut b);
        sink.push(ev(7));
        let (evs, dropped) = sink.take();
        assert_eq!(dropped, 1);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [1, 3, 7, 9]
        );
    }
}
