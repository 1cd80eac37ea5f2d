//! Randomized tests of the shared memory against a byte-array oracle, and
//! of the heap allocator's invariants. Cases are generated with the
//! workspace's deterministic PRNG (seeded per case), so failures reproduce
//! exactly.

use dse_runtime::{Heap, SharedMem};
use dse_workloads::rng::Rng;

const MEM: u64 = 512;
const CASES: u64 = 256;

/// One memory operation.
#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, width: u32, val: u64 },
    Copy { src: u64, dst: u64, len: u64 },
    Zero { addr: u64, len: u64 },
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_index(4) {
        0 => Op::Write {
            addr: rng.gen_range(0, (MEM - 8) as i64) as u64,
            width: [1u32, 2, 4, 8][rng.gen_index(4)],
            val: rng.next_u64(),
        },
        1 => Op::Copy {
            src: rng.gen_range(0, (MEM / 2) as i64) as u64,
            dst: rng.gen_range((MEM / 2) as i64, (MEM - 64) as i64) as u64,
            len: rng.gen_range(0, 64) as u64,
        },
        2 => {
            // Unconstrained ranges: src and dst may overlap in either
            // direction (memmove semantics), at any relative alignment.
            let len = rng.gen_range(0, 96) as u64;
            Op::Copy {
                src: rng.gen_range(0, (MEM - 96) as i64) as u64,
                dst: rng.gen_range(0, (MEM - 96) as i64) as u64,
                len,
            }
        }
        _ => Op::Zero {
            addr: rng.gen_range(0, (MEM - 64) as i64) as u64,
            len: rng.gen_range(0, 64) as u64,
        },
    }
}

/// Applies `op` to both the VM memory and the oracle.
fn apply(mem: &SharedMem, oracle: &mut [u8], op: &Op) {
    match *op {
        Op::Write { addr, width, val } => {
            mem.write(addr, width, val);
            let bytes = val.to_le_bytes();
            for i in 0..width as usize {
                oracle[addr as usize + i] = bytes[i];
            }
        }
        Op::Copy { src, dst, len } => {
            mem.copy(src, dst, len);
            oracle.copy_within(src as usize..(src + len) as usize, dst as usize);
        }
        Op::Zero { addr, len } => {
            mem.zero(addr, len);
            oracle[addr as usize..(addr + len) as usize].fill(0);
        }
    }
}

/// Arbitrary interleavings of writes/copies/zeroes leave the memory
/// byte-identical to a plain byte-array model, at every width and
/// alignment (including word-straddling accesses).
#[test]
fn memory_matches_byte_oracle() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x11E1 + case);
        let nops = rng.gen_range(1, 64) as usize;
        let ops: Vec<Op> = (0..nops).map(|_| gen_op(&mut rng)).collect();
        let mem = SharedMem::new(MEM);
        let mut oracle = vec![0u8; MEM as usize];
        for op in &ops {
            apply(&mem, &mut oracle, op);
        }
        for addr in 0..MEM {
            assert_eq!(
                mem.read(addr, 1) as u8,
                oracle[addr as usize],
                "case {case}, byte {addr}: {ops:?}"
            );
        }
        // Wider reads agree too (little-endian composition).
        for addr in (0..MEM - 8).step_by(3) {
            let mut expect = [0u8; 8];
            expect.copy_from_slice(&oracle[addr as usize..addr as usize + 8]);
            assert_eq!(mem.read(addr, 8), u64::from_le_bytes(expect), "case {case}");
        }
    }
}

/// The checked accessors every interpreted load and store goes through:
/// at every width, for every address within 16 bytes of either end of the
/// memory and at the top of the address space, `try_read`/`try_write`
/// succeed exactly when `in_bounds` holds and then do what `read`/`write`
/// do; a refused write — `len - 3` at width 8 has its first word in bounds
/// and its second out — leaves every byte as it was.
#[test]
fn checked_access_is_exactly_the_bounds_check() {
    let mem = SharedMem::new(4099);
    let twin = SharedMem::new(4099); // written with `write` only
    let len = mem.len();
    for addr in 0..len {
        mem.write(addr, 1, addr * 37 + 11);
        twin.write(addr, 1, addr * 37 + 11);
    }
    let bytes = |m: &SharedMem| -> Vec<u8> { (0..len).map(|a| m.read(a, 1) as u8).collect() };
    let addrs = (0..16)
        .chain(len - 16..len + 16)
        .chain((0..16).map(|k| u64::MAX - k));
    let mut refused_straddle = false;
    for width in 1..=8u32 {
        for addr in addrs.clone() {
            let ok = mem.in_bounds(addr, width as u64);
            let expect = ok.then(|| twin.read(addr, width));
            assert_eq!(mem.try_read(addr, width), expect, "w={width} a={addr}");
            let val = !(addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ width as u64);
            assert_eq!(mem.try_write(addr, width, val), ok, "w={width} a={addr}");
            if ok {
                twin.write(addr, width, val);
            } else {
                refused_straddle |= mem.in_bounds(addr, 1) && addr % 8 + width as u64 > 8;
            }
            assert_eq!(bytes(&mem), bytes(&twin), "w={width} a={addr}");
        }
    }
    assert!(
        refused_straddle,
        "a store refused at its second word was tried"
    );
}

/// Live allocations never overlap, interior-pointer lookup agrees with
/// the allocation bounds, and freeing everything allows a maximal
/// reallocation (full coalescing).
#[test]
fn heap_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4EA9 + case);
        let sizes: Vec<u64> = (0..rng.gen_range(1, 20))
            .map(|_| rng.gen_range(1, 200) as u64)
            .collect();
        let nfrees = rng.gen_range(0, 12) as usize;

        let h = Heap::new(0, 64 << 10);
        let mut live: Vec<dse_runtime::Allocation> = Vec::new();
        for &s in &sizes {
            let a = h.alloc(s).expect("arena is large enough");
            live.push(a);
        }
        for _ in 0..nfrees {
            if live.is_empty() {
                break;
            }
            let i = rng.gen_index(live.len());
            let a = live.swap_remove(i);
            assert!(h.free(a.base).is_some(), "case {case}");
        }
        // No overlap among the live set.
        let mut sorted = live.clone();
        sorted.sort_by_key(|a| a.base);
        for w in sorted.windows(2) {
            assert!(
                w[0].base + w[0].size <= w[1].base,
                "case {case} overlap: {w:?}"
            );
        }
        // Interior pointers resolve to their allocation; bases match.
        for a in &live {
            let mid = a.base + a.size / 2;
            assert_eq!(h.containing(mid), Some(*a), "case {case}");
            assert_eq!(h.at_base(a.base), Some(*a), "case {case}");
        }
        // Free the rest; the arena coalesces back to one block.
        for a in live {
            assert!(h.free(a.base).is_some(), "case {case}");
        }
        assert_eq!(h.live_bytes(), 0, "case {case}");
        assert!(h.alloc((64 << 10) - 32).is_some(), "case {case}");
    }
}
