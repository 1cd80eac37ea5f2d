//! The runtime heap: size-class segregated free lists over a coalescing
//! free map, plus a registry of live allocations, all behind one lock.
//!
//! The expansion reaches a thread's replica by `tid * span` arithmetic
//! (Table 2) and never asks the heap where an address lives. The heap
//! serves the program's own `malloc`/`realloc`/`free` and the expansion's
//! `__realloc_expanded`; the registry's one interior-pointer reader is the
//! runtime-privatization baseline ([`crate::privatize`]). That traffic is
//! light, so every operation takes the same `Mutex`:
//!
//! * **Allocation** rounds the request up to one of [`NCLASSES`] size
//!   classes and pops the class's free list (LIFO). An empty list is
//!   refilled with `REFILL_BATCH` contiguous blocks carved from the free
//!   map, lowest address handed out first. Requests above the largest
//!   class are carved first-fit from the free map.
//! * **Free** pushes a class block back onto its list, where the next
//!   allocation of that class, from any thread, takes it. A large block
//!   goes straight back into the free map, coalescing with its neighbours.
//! * **Out of memory** first *scavenges*: every class list drains into the
//!   free map, which coalesces, and the allocation retries once. Freeing
//!   everything therefore always permits a full-arena allocation again
//!   (the invariant the property tests assert).
//!
//! The counters ([`Heap::contention`]) flow into `RunReport` and from
//! there into `dsec --metrics` (`dse-server`'s metrics document).

use crate::tracebuf::{EventKind, TraceEvent, HEAP_TID};
use crate::vm::lock_clean;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Alignment of every heap allocation.
pub const HEAP_ALIGN: u64 = 16;

/// One live heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Size of the block actually carved for the request (the requested
    /// size rounded up to the allocator's size class). `[base, base+block)`
    /// is owned by this allocation: interior-pointer lookup, freeing and
    /// live-byte accounting all use this single bound.
    pub block: u64,
    /// Monotonic id, unique per allocation over the program's lifetime.
    pub id: u64,
}

impl Allocation {
    /// One past the last address owned by this allocation.
    pub fn end(&self) -> u64 {
        self.base + self.block
    }
}

/// Number of segregated size classes.
pub const NCLASSES: usize = 28;

/// Block size of each class: 16-byte steps up to 128, then four classes
/// per power of two (worst-case internal fragmentation 1/8).
pub const CLASS_SIZES: [u64; NCLASSES] = [
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096,
];

/// Largest size served from a class; bigger requests are carved first-fit
/// from the free map.
const MAX_CLASS: u64 = 4096;

/// Blocks carved from the free map per refill of an empty class list.
const REFILL_BATCH: u64 = 8;

/// The smallest class whose block size is >= `want`, or `None` for large
/// requests. `want` must already be `HEAP_ALIGN`-rounded.
fn class_of(want: u64) -> Option<usize> {
    if want > MAX_CLASS {
        return None;
    }
    Some(CLASS_SIZES.partition_point(|&c| c < want))
}

/// Allocator counters, exposed through `RunReport` and the `dsec
/// --metrics` document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapContention {
    /// Class allocations served from the class's free list.
    pub cache_hits: u64,
    /// Class allocations that found the list empty and refilled it.
    pub cache_misses: u64,
    /// Free-map operations: refills, large allocations and frees,
    /// scavenges.
    pub backend_locks: u64,
    /// Full scavenges (drain every class list into the free map) before
    /// retrying a failed allocation.
    pub scavenges: u64,
}

/// Everything the heap's lock guards.
#[derive(Debug)]
struct State {
    /// Free class blocks, one LIFO stack per class.
    lists: Vec<Vec<u64>>,
    /// Free address space outside the class lists: base -> size, fully
    /// coalesced.
    free: BTreeMap<u64, u64>,
    /// Live allocations by base address.
    live: BTreeMap<u64, Allocation>,
    /// Id of the next allocation; ids start at 1, one per allocation.
    next_id: u64,
    live_bytes: u64,
    peak_live: u64,
    counts: HeapContention,
    /// Refill/scavenge events buffered until the VM drains them at run end
    /// (`None` while tracing is off).
    trace: Option<HeapTrace>,
}

/// Buffered allocator slow-path events (see [`Heap::enable_trace`]).
#[derive(Debug)]
struct HeapTrace {
    epoch: Instant,
    events: Vec<TraceEvent>,
}

impl State {
    /// Start timestamp for a slow-path span, when tracing is armed.
    fn trace_start(&self) -> Option<Instant> {
        self.trace.as_ref().map(|_| Instant::now())
    }

    /// Buffers one slow-path event spanning `t0`..now.
    fn trace_event(&mut self, kind: EventKind, t0: Option<Instant>, a: u64, b: u64) {
        let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) else {
            return;
        };
        tr.events.push(TraceEvent {
            ts_ns: t0.duration_since(tr.epoch).as_nanos() as u64,
            dur_ns: if kind.is_span() {
                t0.elapsed().as_nanos() as u64
            } else {
                0
            },
            a,
            b,
            tid: HEAP_TID,
            kind,
        });
    }

    /// Inserts `[base, base+size)` into the free map, coalescing with both
    /// neighbors.
    fn insert_free(&mut self, base: u64, size: u64) {
        let mut nbase = base;
        let mut nsize = size;
        if let Some((&pb, &ps)) = self.free.range(..base).next_back() {
            if pb + ps == nbase {
                self.free.remove(&pb);
                nbase = pb;
                nsize += ps;
            }
        }
        if let Some((&sb, &ss)) = self.free.range(nbase + nsize..).next() {
            if nbase + nsize == sb {
                self.free.remove(&sb);
                nsize += ss;
            }
        }
        self.free.insert(nbase, nsize);
    }

    /// Carves up to `max` contiguous blocks of `size` bytes from the first
    /// free range that holds one. Returns the first block's base and the
    /// number of blocks.
    fn carve(&mut self, size: u64, max: u64) -> Option<(u64, u64)> {
        let (base, have) = self
            .free
            .iter()
            .map(|(&b, &s)| (b, s))
            .find(|&(_, s)| s >= size)?;
        let n = (have / size).min(max);
        self.free.remove(&base);
        if have > n * size {
            self.free.insert(base + n * size, have - n * size);
        }
        Some((base, n))
    }

    /// Large allocation: first-fit on the free map, with one
    /// scavenge-and-retry before giving up.
    fn alloc_large(&mut self, want: u64) -> Option<u64> {
        self.counts.backend_locks += 1;
        if let Some((b, _)) = self.carve(want, 1) {
            return Some(b);
        }
        self.scavenge();
        self.counts.backend_locks += 1;
        self.carve(want, 1).map(|(b, _)| b)
    }

    /// Class allocation: list pop, then a refill, then scavenge-and-retry.
    fn alloc_class(&mut self, c: usize) -> Option<u64> {
        if let Some(b) = self.lists[c].pop() {
            self.counts.cache_hits += 1;
            return Some(b);
        }
        self.counts.cache_misses += 1;
        self.refill(c);
        if self.lists[c].is_empty() {
            self.scavenge();
            self.refill(c);
        }
        self.lists[c].pop()
    }

    /// Refills class `c`'s list with up to `REFILL_BATCH` contiguous blocks
    /// from the free map, pushed so the lowest address pops first.
    fn refill(&mut self, c: usize) {
        let t0 = self.trace_start();
        self.counts.backend_locks += 1;
        let size = CLASS_SIZES[c];
        let (base, n) = self.carve(size, REFILL_BATCH).unwrap_or((0, 0));
        self.lists[c].extend((0..n).rev().map(|i| base + i * size));
        self.trace_event(EventKind::Refill, t0, c as u64, n);
    }

    /// Drains every class list into the coalesced free map. Called before
    /// declaring out-of-memory so that freed class blocks can merge back
    /// into large contiguous ranges.
    fn scavenge(&mut self) {
        let t0 = self.trace_start();
        self.counts.scavenges += 1;
        self.counts.backend_locks += 1;
        for (c, &size) in CLASS_SIZES.iter().enumerate() {
            for b in std::mem::take(&mut self.lists[c]) {
                self.insert_free(b, size);
            }
        }
        self.trace_event(EventKind::Scavenge, t0, 0, 0);
    }
}

/// The heap allocator, with a registry of live allocations answering
/// interior-pointer lookups.
#[derive(Debug)]
pub struct Heap {
    base: u64,
    limit: u64,
    state: Mutex<State>,
}

impl Heap {
    /// Creates a heap managing `[base, limit)`.
    pub fn new(base: u64, limit: u64) -> Self {
        let base = dse_lang::types::round_up(base, HEAP_ALIGN);
        let mut free = BTreeMap::new();
        if limit > base {
            free.insert(base, limit - base);
        }
        Heap {
            base,
            limit,
            state: Mutex::new(State {
                lists: vec![Vec::new(); NCLASSES],
                free,
                live: BTreeMap::new(),
                next_id: 1,
                live_bytes: 0,
                peak_live: 0,
                counts: HeapContention::default(),
                trace: None,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        lock_clean(&self.state)
    }

    /// Arms slow-path event tracing on the timeline starting at `epoch`
    /// (the VM's trace-sink epoch, so allocator events line up with the
    /// rest of the trace).
    pub fn enable_trace(&self, epoch: Instant) {
        self.state().trace = Some(HeapTrace {
            epoch,
            events: Vec::new(),
        });
    }

    /// Takes every buffered slow-path event (empty when tracing is off).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        match self.state().trace.as_mut() {
            Some(tr) => std::mem::take(&mut tr.events),
            None => Vec::new(),
        }
    }

    /// Start of the heap region (for address classification).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// End of the heap region.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Allocates `size` bytes (`size == 0` behaves like `size == 1`).
    /// Returns the allocation record, or `None` when out of memory —
    /// including a `size` too large to round up to `HEAP_ALIGN`.
    pub fn alloc(&self, size: u64) -> Option<Allocation> {
        let want = size.max(1).checked_next_multiple_of(HEAP_ALIGN)?;
        let mut st = self.state();
        let (base, block) = match class_of(want) {
            Some(c) => (st.alloc_class(c)?, CLASS_SIZES[c]),
            None => (st.alloc_large(want)?, want),
        };
        let a = Allocation {
            base,
            size,
            block,
            id: st.next_id,
        };
        st.next_id += 1;
        st.live.insert(base, a);
        st.live_bytes += block;
        st.peak_live = st.peak_live.max(st.live_bytes);
        Some(a)
    }

    /// Frees the allocation starting exactly at `base`. Returns the freed
    /// record, or `None` if `base` is not a live allocation base.
    pub fn free(&self, base: u64) -> Option<Allocation> {
        let mut st = self.state();
        let a = st.live.remove(&base)?;
        st.live_bytes -= a.block;
        match class_of(a.block) {
            Some(c) => st.lists[c].push(base),
            None => {
                st.counts.backend_locks += 1;
                st.insert_free(base, a.block);
            }
        }
        Some(a)
    }

    /// Finds the live allocation containing `addr` (interior pointers ok,
    /// anywhere inside the allocation's `block`).
    pub fn containing(&self, addr: u64) -> Option<Allocation> {
        let st = self.state();
        let (_, a) = st.live.range(..=addr).next_back()?;
        (addr < a.end()).then_some(*a)
    }

    /// The live allocation starting exactly at `base`.
    pub fn at_base(&self, base: u64) -> Option<Allocation> {
        self.state().live.get(&base).copied()
    }

    /// Current live heap bytes (block granularity).
    pub fn live_bytes(&self) -> u64 {
        self.state().live_bytes
    }

    /// High-water mark of live heap bytes.
    pub fn peak_live_bytes(&self) -> u64 {
        self.state().peak_live
    }

    /// Total number of allocations ever made.
    pub fn total_allocs(&self) -> u64 {
        self.state().next_id - 1
    }

    /// Snapshot of the allocator counters.
    pub fn contention(&self) -> HeapContention {
        self.state().counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_is_sorted_and_aligned() {
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &CLASS_SIZES {
            assert_eq!(c % HEAP_ALIGN, 0);
        }
        assert_eq!(CLASS_SIZES[NCLASSES - 1], MAX_CLASS);
    }

    #[test]
    fn class_of_picks_smallest_fitting() {
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(128), Some(7));
        assert_eq!(class_of(144), Some(8)); // -> 160
        assert_eq!(class_of(4096), Some(NCLASSES - 1));
        assert_eq!(class_of(4112), None);
    }

    #[test]
    fn heap_alloc_free_reuse() {
        let h = Heap::new(0, 1024);
        let a = h.alloc(100).unwrap();
        let b = h.alloc(100).unwrap();
        assert_ne!(a.base, b.base);
        assert_ne!(a.id, b.id);
        h.free(a.base).unwrap();
        let c = h.alloc(100).unwrap();
        assert_eq!(c.base, a.base, "class-list LIFO reuses the freed block");
    }

    #[test]
    fn heap_coalescing_allows_full_reuse() {
        let h = Heap::new(0, 256);
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let c = h.alloc(64).unwrap();
        h.free(b.base);
        h.free(a.base);
        h.free(c.base);
        // After scavenging + coalescing we can allocate the whole arena.
        assert!(h.alloc(240).is_some());
    }

    #[test]
    fn heap_oom_returns_none() {
        let h = Heap::new(0, 64);
        assert!(h.alloc(128).is_none());
    }

    #[test]
    fn sizes_that_cannot_round_up_are_oom() {
        let h = Heap::new(0, 1 << 20);
        for size in [u64::MAX, u64::MAX - 1, u64::MAX - 15] {
            assert_eq!(h.alloc(size), None, "alloc({size:#x})");
        }
        assert_eq!(h.live_bytes(), 0);
        assert!(h.alloc((1 << 20) - 16).is_some(), "the arena is untouched");
    }

    #[test]
    fn refill_hands_out_ascending_contiguous_blocks() {
        let h = Heap::new(0, 64 << 10);
        let bases: Vec<u64> = (0..REFILL_BATCH)
            .map(|_| h.alloc(48).unwrap().base)
            .collect();
        let want: Vec<u64> = (0..REFILL_BATCH).map(|i| i * 48).collect();
        assert_eq!(bases, want);
        let c = h.contention();
        assert_eq!((c.cache_misses, c.cache_hits), (1, REFILL_BATCH - 1));
    }

    #[test]
    fn large_allocations_bypass_classes() {
        let h = Heap::new(0, 64 << 10);
        let a = h.alloc(10_000).unwrap();
        assert_eq!(a.block, dse_lang::types::round_up(10_000, HEAP_ALIGN));
        assert!(h.free(a.base).is_some());
        assert!(h.alloc((64 << 10) - 16).is_some(), "space fully recycled");
    }

    #[test]
    fn containing_uses_block_bounds() {
        let h = Heap::new(0, 4096);
        let a = h.alloc(100).unwrap();
        assert_eq!(a.block, 112, "100 bytes rounds to the 112 class");
        assert_eq!(h.containing(a.base), Some(a));
        assert_eq!(h.containing(a.base + 99), Some(a));
        // Alignment padding belongs to the allocation (consistent with
        // free/live_bytes granularity)...
        assert_eq!(h.containing(a.base + a.block - 1), Some(a));
        // ...and one-past-the-block does not.
        assert_eq!(h.containing(a.base + a.block), None);
    }

    #[test]
    fn containing_walks_back_across_registry_shards() {
        // Interior pointers deep inside a large allocation must still
        // resolve to it, however far above its base they lie.
        let h = Heap::new(0, 1 << 20);
        let a = h.alloc((1 << 20) - 16).unwrap();
        assert_eq!(h.containing(a.base + a.block - 1), Some(a));
        assert_eq!(h.containing(a.base + a.block / 2), Some(a));
    }

    #[test]
    fn peak_tracking() {
        let h = Heap::new(0, 64 << 10);
        let a = h.alloc(1000).unwrap();
        let b = h.alloc(1000).unwrap();
        h.free(a.base);
        h.free(b.base);
        assert_eq!(h.live_bytes(), 0);
        assert!(h.peak_live_bytes() >= 2000);
        assert_eq!(h.total_allocs(), 2);
    }

    #[test]
    fn double_free_returns_none() {
        let h = Heap::new(0, 256);
        let a = h.alloc(10).unwrap();
        assert!(h.free(a.base).is_some());
        assert!(h.free(a.base).is_none());
    }

    #[test]
    fn zero_size_alloc_is_valid_and_unique() {
        let h = Heap::new(0, 256);
        let a = h.alloc(0).unwrap();
        let b = h.alloc(0).unwrap();
        assert_ne!(a.base, b.base);
        assert_eq!(a.block, HEAP_ALIGN);
    }

    #[test]
    fn contention_counters_move() {
        let h = Heap::new(0, 64 << 10);
        let a = h.alloc(32).unwrap();
        h.free(a.base);
        let _b = h.alloc(32).unwrap();
        let c = h.contention();
        assert!(c.cache_misses >= 1, "first alloc refills the class list");
        assert!(c.cache_hits >= 1, "freed block is re-served from cache");
        assert!(c.backend_locks >= 1);
    }
}
