//! Allocator microbenchmarks for the sharded size-class heap.
//!
//! Four shapes:
//!
//! * single-threaded alloc/free churn — front-end magazine hit path
//! * multi-threaded (8 workers) alloc/free churn — the contended case the
//!   sharding exists for
//! * interior-pointer lookup storm — `containing` against the sharded
//!   registry
//! * memcpy sweep — `SharedMem::copy` across sizes and misalignments
//!
//! Size sequences come from the workspace PRNG, so every run sees the
//! same request stream.

use dse_bench::harness;
use dse_runtime::{Heap, SharedMem};
use dse_workloads::rng::Rng;

const ARENA: u64 = 256 << 20;
const CHURN_OPS: usize = 40_000;
const NTHREADS: usize = 8;

/// One churn worker: allocate up to ~1k live blocks of mixed sizes, free
/// in *random* order (the realistic fragmenting pattern — freed holes
/// scatter through the address space instead of peeling off the tail).
fn churn(h: &Heap, seed: u64, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::with_capacity(1024);
    for _ in 0..ops {
        if live.len() < 1024 && rng.gen_index(5) < 3 {
            // Mostly small, with an occasional large block so the free
            // space stays striped with differently-sized holes.
            let size = if rng.gen_index(16) == 0 {
                rng.gen_range(4097, 16 << 10) as u64
            } else {
                rng.gen_range(1, 2048) as u64
            };
            live.push(h.alloc(size).unwrap().base);
        } else if !live.is_empty() {
            let i = rng.gen_index(live.len());
            h.free(live.swap_remove(i)).unwrap();
        }
    }
    for base in live {
        h.free(base).unwrap();
    }
}

fn main() {
    let group = harness::group("alloc_churn");

    // -- single-threaded churn ---------------------------------------------
    group.bench("churn_1thread", || {
        churn(&Heap::new(0, ARENA), 1, CHURN_OPS);
    });

    // -- multi-threaded churn (the contended case) -------------------------
    group.bench(&format!("churn_{NTHREADS}threads"), || {
        let h = &Heap::new(0, ARENA);
        std::thread::scope(|scope| {
            for t in 0..NTHREADS {
                scope.spawn(move || churn(h, 0x100 + t as u64, CHURN_OPS / NTHREADS));
            }
        });
    });

    // -- interior-pointer lookup storm --------------------------------------
    // Probe interior addresses of a fixed layout from 8 threads.
    let probes: Vec<u64> = {
        let mut rng = Rng::seed_from_u64(7);
        (0..CHURN_OPS)
            .map(|_| rng.gen_range(0, 1 << 20) as u64)
            .collect()
    };
    let h = Heap::new(0, ARENA);
    let blocks: Vec<_> = (0..256).map(|_| h.alloc(4096).unwrap()).collect();
    let span = blocks.last().unwrap().end();
    group.bench("containing_storm", || {
        std::thread::scope(|scope| {
            for t in 0..NTHREADS {
                let h = &h;
                let probes = &probes;
                scope.spawn(move || {
                    let mut found = 0u64;
                    for (i, p) in probes.iter().enumerate() {
                        if i % NTHREADS == t && h.containing(p % span).is_some() {
                            found += 1;
                        }
                    }
                    std::hint::black_box(found)
                });
            }
        });
    });

    // -- memcpy sweep --------------------------------------------------------
    let mem = SharedMem::new(8 << 20);
    for (label, len) in [("64B", 64u64), ("4KiB", 4096), ("256KiB", 256 << 10)] {
        for (align_label, src_off, dst_off) in [("aligned", 0u64, 0u64), ("misaligned", 3, 5)] {
            group.bench(&format!("memcpy/{label}/{align_label}"), || {
                mem.copy(4096 + src_off, (4 << 20) + dst_off, len);
            });
        }
    }
}
