//! Concurrency stress and randomized property tests for the heap.
//!
//! The multi-threaded tests hammer one [`Heap`] from many threads at once,
//! as the workers of a parallel loop do, while a shared interval map
//! cross-checks that no two live allocations ever overlap. The
//! single-threaded property test drives random alloc/free/realloc
//! sequences and then verifies the two global invariants the allocator
//! must keep: live blocks are disjoint, and freeing everything lets one
//! maximal block be carved again (the class lists scavenge back into the
//! coalesced free map).
//!
//! All randomness comes from the workspace PRNG with fixed seeds, so any
//! failure reproduces exactly.

use dse_runtime::Heap;
use dse_workloads::rng::Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Shared overlap oracle: base -> end (exclusive, block-rounded bounds).
struct IntervalMap(Mutex<BTreeMap<u64, u64>>);

impl IntervalMap {
    fn new() -> IntervalMap {
        IntervalMap(Mutex::new(BTreeMap::new()))
    }

    /// Registers `[base, end)`, panicking when it overlaps a live interval.
    fn insert(&self, base: u64, end: u64) {
        let mut m = self.0.lock().unwrap();
        if let Some((&pb, &pe)) = m.range(..=base).next_back() {
            assert!(
                pe <= base,
                "[{base:#x}, {end:#x}) overlaps [{pb:#x}, {pe:#x})"
            );
        }
        if let Some((&nb, _)) = m.range(base..).next() {
            assert!(end <= nb, "[{base:#x}, {end:#x}) overlaps block at {nb:#x}");
        }
        m.insert(base, end);
    }

    fn remove(&self, base: u64) {
        self.0.lock().unwrap().remove(&base);
    }
}

/// Eight threads allocate, probe and free concurrently; every allocation
/// handed out is disjoint from every other live one, interior pointers
/// resolve to the right block while it is live, and after the storm the
/// arena coalesces back to a single maximal block.
#[test]
fn concurrent_alloc_free_containing_stress() {
    const NTHREADS: usize = 8;
    const OPS: usize = 3_000;
    const ARENA: u64 = 64 << 20;

    let heap = Heap::new(0, ARENA);
    let oracle = IntervalMap::new();

    std::thread::scope(|scope| {
        for t in 0..NTHREADS {
            let heap = &heap;
            let oracle = &oracle;
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(0x57E5 + t as u64);
                let mut live: Vec<dse_runtime::Allocation> = Vec::new();
                for _ in 0..OPS {
                    let roll = rng.gen_index(10);
                    if roll < 6 || live.is_empty() {
                        // Mostly class-sized, sometimes large enough to
                        // bypass the class lists entirely.
                        let size = if rng.gen_index(8) == 0 {
                            rng.gen_range(4097, 32 << 10) as u64
                        } else {
                            rng.gen_range(1, 4096) as u64
                        };
                        let a = heap.alloc(size).expect("arena is large enough");
                        assert!(a.size >= size && a.block >= a.size);
                        oracle.insert(a.base, a.base + a.block);
                        live.push(a);
                    } else if roll < 9 {
                        let i = rng.gen_index(live.len());
                        let a = live.swap_remove(i);
                        oracle.remove(a.base);
                        let f = heap.free(a.base).expect("double free");
                        assert_eq!(f.base, a.base);
                        assert_eq!(f.block, a.block);
                    } else {
                        // Interior-pointer lookup storm on our own blocks
                        // (another thread's concurrent churn must not
                        // perturb the result).
                        let i = rng.gen_index(live.len());
                        let a = live[i];
                        let off = rng.gen_range(0, a.block as i64) as u64;
                        assert_eq!(heap.containing(a.base + off), Some(a));
                        assert_eq!(heap.at_base(a.base), Some(a));
                    }
                }
                for a in live {
                    oracle.remove(a.base);
                    heap.free(a.base).expect("final free");
                }
            });
        }
    });

    assert_eq!(heap.live_bytes(), 0);
    // Everything the class lists hold scavenges back; the arena must
    // coalesce into one block big enough for a maximal request.
    assert!(
        heap.alloc(ARENA - 64).is_some(),
        "full-arena reuse after stress"
    );
    let c = heap.contention();
    assert!(c.cache_hits + c.cache_misses > 0, "class lists saw traffic");
}

/// A block one thread frees is the next block of its class that any other
/// thread gets, straight from the class list: no refill, and no scavenge
/// needed to pry it loose from the thread that freed it.
#[test]
fn a_freed_block_is_not_held_by_its_thread() {
    let heap = Heap::new(0, 1 << 20);
    let freed = std::thread::scope(|s| {
        s.spawn(|| {
            let a = heap.alloc(200).unwrap();
            heap.free(a.base).unwrap();
            a.base
        })
        .join()
        .unwrap()
    });
    let before = heap.contention();
    let got = std::thread::scope(|s| s.spawn(|| heap.alloc(200).unwrap()).join().unwrap());
    assert_eq!(got.base, freed, "another thread reuses the freed block");
    let after = heap.contention();
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.scavenges, 0);
}

/// Concurrent lookups while a single writer churns: `containing` must
/// never return a block that does not (at that moment or shortly before)
/// contain the probed address. Readers probe addresses they know are
/// inside blocks the writer will not free.
#[test]
fn concurrent_lookup_storm_with_churn() {
    const ARENA: u64 = 8 << 20;
    let heap = Heap::new(0, ARENA);

    // Pinned blocks: never freed, probed by readers throughout.
    let pinned: Vec<dse_runtime::Allocation> = (0..64)
        .map(|i| heap.alloc(64 + (i % 7) * 100).unwrap())
        .collect();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        for t in 0..4 {
            let heap = &heap;
            let pinned = &pinned;
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(0xC0FE + t as u64);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let a = pinned[rng.gen_index(pinned.len())];
                    let off = rng.gen_range(0, a.block as i64) as u64;
                    assert_eq!(heap.containing(a.base + off), Some(a), "pinned block moved");
                }
            });
        }
        // Writer: churn allocations around the pinned set.
        let mut rng = Rng::seed_from_u64(0xD00D);
        let mut live = Vec::new();
        for _ in 0..20_000 {
            if live.len() < 32 && rng.gen_index(2) == 0 {
                live.push(heap.alloc(rng.gen_range(1, 2048) as u64).unwrap());
            } else if let Some(a) = live.pop() {
                heap.free(a.base).unwrap();
            }
        }
        for a in live {
            heap.free(a.base).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    for a in pinned {
        heap.free(a.base).unwrap();
    }
    assert_eq!(heap.live_bytes(), 0);
}

/// Random alloc/free/realloc sequences keep the live set disjoint, keep
/// interior-pointer lookup exact, and always coalesce back to a full
/// arena once everything is freed — across 256 seeded cases.
#[test]
fn property_alloc_free_realloc_sequences() {
    const ARENA: u64 = 1 << 20;
    const CASES: u64 = 256;

    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xA110C + case);
        let heap = Heap::new(0, ARENA);
        let mut live: Vec<dse_runtime::Allocation> = Vec::new();
        let nops = rng.gen_range(10, 120) as usize;

        for _ in 0..nops {
            match rng.gen_index(4) {
                0 | 1 => {
                    let size = rng.gen_range(1, 9000) as u64;
                    let a = heap.alloc(size).expect("arena is large enough");
                    live.push(a);
                }
                2 if !live.is_empty() => {
                    let i = rng.gen_index(live.len());
                    let a = live.swap_remove(i);
                    assert!(heap.free(a.base).is_some(), "case {case}");
                }
                3 if !live.is_empty() => {
                    // realloc: carve the new block before releasing the
                    // old one, as the VM's realloc builtin does.
                    let i = rng.gen_index(live.len());
                    let old = live[i];
                    let size = rng.gen_range(1, 9000) as u64;
                    let a = heap.alloc(size).expect("arena is large enough");
                    live[i] = a;
                    assert!(heap.free(old.base).is_some(), "case {case}");
                }
                _ => {}
            }

            // Invariant: the live set is pairwise disjoint on the
            // block-rounded bounds the allocator hands out.
            let mut sorted: Vec<_> = live.iter().map(|a| (a.base, a.base + a.block)).collect();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(w[0].1 <= w[1].0, "case {case} overlap: {w:?}");
            }
        }

        // Lookup is exact on every live block's boundary addresses.
        for a in &live {
            assert_eq!(heap.containing(a.base), Some(*a), "case {case}");
            assert_eq!(
                heap.containing(a.base + a.block - 1),
                Some(*a),
                "case {case}"
            );
            let next_is_start = live.iter().any(|b| b.base == a.base + a.block);
            if !next_is_start {
                assert_ne!(heap.containing(a.base + a.block), Some(*a), "case {case}");
            }
        }

        for a in live {
            assert!(heap.free(a.base).is_some(), "case {case}");
        }
        assert_eq!(heap.live_bytes(), 0, "case {case}");
        assert!(
            heap.alloc(ARENA - 64).is_some(),
            "case {case}: full-arena reuse after free-all"
        );
    }
}
