//! Byte-addressable shared virtual memory.
//!
//! The memory is a flat array of `AtomicU64` words. All accesses use
//! `Relaxed` atomics — the expansion transformation (like the paper's) is
//! responsible for eliminating logical races; the atomics merely keep the
//! simulator free of undefined behavior, and sub-word stores use a CAS
//! read-modify-write so concurrent writes to adjacent bytes never tear.
//! Cross-thread ordering for DOACROSS loops is established by the
//! executor's release/acquire `post`/`wait` counter, not here.
//!
//! Bulk operations (`copy`, `zero`) move whole words regardless of the
//! relative alignment of source and destination: reads may straddle a word
//! boundary (two loads), while stores are aligned single-word writes, so
//! an unaligned 1 KiB copy costs ~128 word operations instead of 1024
//! CAS-spliced byte writes.
//!
//! The allocator lives in [`crate::alloc`] (size-class segregated free
//! lists, a coalescing free map and a live-allocation registry under one
//! lock) and is re-exported here.

use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::alloc::{Allocation, Heap, HEAP_ALIGN};

/// Flat byte-addressable memory backed by atomic words.
#[derive(Debug)]
pub struct SharedMem {
    words: Box<[AtomicU64]>,
    bytes: u64,
}

impl SharedMem {
    /// Allocates `bytes` of zeroed memory (rounded up to a word).
    ///
    /// The words come from one zeroed allocation and are never written
    /// here, so a large memory is an untouched mapping: the kernel commits
    /// a page, already zero, when the program first touches it, and
    /// construction and drop cost what was touched, not `bytes`.
    #[allow(unsafe_code)]
    pub fn new(bytes: u64) -> Self {
        let nwords = (bytes as usize).div_ceil(8);
        // SAFETY: `AtomicU64` has the in-memory representation of `u64`, for
        // which all-zero bytes are a valid value (0), so every element of the
        // zeroed slice is initialised.
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(nwords).assume_init() };
        SharedMem {
            words,
            bytes: nwords as u64 * 8,
        }
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// True when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// True if `[addr, addr+width)` lies inside the memory.
    pub fn in_bounds(&self, addr: u64, width: u64) -> bool {
        addr.checked_add(width).is_some_and(|end| end <= self.bytes)
    }

    /// Reads `width` (1..=8) bytes at `addr`, zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds (the VM bounds-checks first and reports a
    /// trap; this is the last line of defense).
    pub fn read(&self, addr: u64, width: u32) -> u64 {
        debug_assert!((1..=8).contains(&width));
        assert!(self.in_bounds(addr, width as u64), "oob read");
        let wi = (addr / 8) as usize;
        let off = (addr % 8) as u32;
        if off + width <= 8 {
            let w = self.words[wi].load(Ordering::Relaxed);
            extract(w, off, width)
        } else {
            let lo_n = 8 - off;
            let hi_n = width - lo_n;
            let lo = extract(self.words[wi].load(Ordering::Relaxed), off, lo_n);
            let hi = extract(self.words[wi + 1].load(Ordering::Relaxed), 0, hi_n);
            lo | (hi << (lo_n * 8))
        }
    }

    /// Writes the low `width` (1..=8) bytes of `val` at `addr`.
    ///
    /// Sub-word writes use CAS read-modify-write, so concurrent writes to
    /// the *other* bytes of the same word are preserved.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn write(&self, addr: u64, width: u32, val: u64) {
        debug_assert!((1..=8).contains(&width));
        assert!(self.in_bounds(addr, width as u64), "oob write");
        let wi = (addr / 8) as usize;
        let off = (addr % 8) as u32;
        if width == 8 && off == 0 {
            self.words[wi].store(val, Ordering::Relaxed);
        } else if off + width <= 8 {
            splice(&self.words[wi], off, width, val);
        } else {
            let lo_n = 8 - off;
            let hi_n = width - lo_n;
            splice(&self.words[wi], off, lo_n, val);
            splice(&self.words[wi + 1], 0, hi_n, val >> (lo_n * 8));
        }
    }

    /// [`SharedMem::read`] for an address the caller has not checked:
    /// `None` exactly when `[addr, addr+width)` is not
    /// [in bounds](SharedMem::in_bounds). The lookup of the word (or, for
    /// an access that straddles two, of the pair) *is* the bounds check —
    /// the memory is a whole number of words — so the interpreters' loads
    /// pay one check per access.
    #[inline]
    pub fn try_read(&self, addr: u64, width: u32) -> Option<u64> {
        debug_assert!((1..=8).contains(&width));
        let wi = (addr / 8) as usize;
        let off = (addr % 8) as u32;
        if off + width <= 8 {
            let w = self.words.get(wi)?.load(Ordering::Relaxed);
            Some(extract(w, off, width))
        } else {
            let Some([lo, hi]) = self.words.get(wi..wi + 2) else {
                return None;
            };
            let lo_n = 8 - off;
            let lo = extract(lo.load(Ordering::Relaxed), off, lo_n);
            let hi = extract(hi.load(Ordering::Relaxed), 0, width - lo_n);
            Some(lo | (hi << (lo_n * 8)))
        }
    }

    /// [`SharedMem::write`] for an address the caller has not checked:
    /// `false`, with nothing written, exactly when `[addr, addr+width)` is
    /// not [in bounds](SharedMem::in_bounds) — a straddling store looks up
    /// both words before it writes either.
    #[inline]
    pub fn try_write(&self, addr: u64, width: u32, val: u64) -> bool {
        debug_assert!((1..=8).contains(&width));
        let wi = (addr / 8) as usize;
        let off = (addr % 8) as u32;
        if off + width <= 8 {
            let Some(w) = self.words.get(wi) else {
                return false;
            };
            if width == 8 {
                w.store(val, Ordering::Relaxed);
            } else {
                splice(w, off, width, val);
            }
        } else {
            let Some([lo, hi]) = self.words.get(wi..wi + 2) else {
                return false;
            };
            let lo_n = 8 - off;
            splice(lo, off, lo_n, val);
            splice(hi, 0, width - lo_n, val >> (lo_n * 8));
        }
        true
    }

    /// Copies `len` bytes from `src` to `dst` with `memmove` semantics:
    /// overlapping regions copy correctly in either direction.
    ///
    /// Moves whole words for any relative alignment of `src` and `dst`:
    /// each chunk is fully read (one or two word loads) before it is
    /// written, the destination is walked to a word boundary with a single
    /// sub-word splice, and the bulk runs as aligned word stores.
    pub fn copy(&self, src: u64, dst: u64, len: u64) {
        assert!(
            self.in_bounds(src, len) && self.in_bounds(dst, len),
            "oob copy"
        );
        if len == 0 || src == dst {
            return;
        }
        if dst > src && dst < src + len {
            // Overlapping forward copy: walk backwards in word chunks so
            // sources are read before they are overwritten. Each chunk's
            // writes land strictly above everything later chunks read.
            let mut i = len;
            while i >= 8 {
                i -= 8;
                let w = self.read(src + i, 8);
                self.write(dst + i, 8, w);
            }
            if i > 0 {
                let w = self.read(src, i as u32);
                self.write(dst, i as u32, w);
            }
            return;
        }
        // Forward copy (disjoint, or overlapping with dst < src): align the
        // destination, then stream whole words.
        let head = ((8 - dst % 8) % 8).min(len);
        let mut i = 0;
        if head > 0 {
            let w = self.read(src, head as u32);
            self.write(dst, head as u32, w);
            i = head;
        }
        while i + 8 <= len {
            let w = self.read(src + i, 8);
            self.write(dst + i, 8, w);
            i += 8;
        }
        if i < len {
            let tail = (len - i) as u32;
            let w = self.read(src + i, tail);
            self.write(dst + i, tail, w);
        }
    }

    /// Zeroes `len` bytes starting at `addr`: one splice to the word
    /// boundary, aligned word stores for the bulk, one splice for the tail.
    pub fn zero(&self, addr: u64, len: u64) {
        assert!(self.in_bounds(addr, len), "oob zero");
        if len == 0 {
            return;
        }
        let head = ((8 - addr % 8) % 8).min(len);
        let mut i = 0;
        if head > 0 {
            self.write(addr, head as u32, 0);
            i = head;
        }
        while i + 8 <= len {
            self.write(addr + i, 8, 0);
            i += 8;
        }
        if i < len {
            self.write(addr + i, (len - i) as u32, 0);
        }
    }
}

/// CAS-splices the low `nbytes` of `chunk` into word `w` at byte `off`.
fn splice(w: &AtomicU64, off: u32, nbytes: u32, chunk: u64) {
    let mask = bytes_mask(nbytes) << (off * 8);
    let bits = (chunk & bytes_mask(nbytes)) << (off * 8);
    let mut cur = w.load(Ordering::Relaxed);
    loop {
        let new = (cur & !mask) | bits;
        match w.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn extract(word: u64, off: u32, nbytes: u32) -> u64 {
    (word >> (off * 8)) & bytes_mask(nbytes)
}

fn bytes_mask(nbytes: u32) -> u64 {
    if nbytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (nbytes * 8)) - 1
    }
}

/// Sign-extends the low `width` bytes of `raw` to a full `i64`.
pub fn sign_extend(raw: u64, width: u32) -> i64 {
    if width >= 8 {
        return raw as i64;
    }
    let shift = 64 - width * 8;
    ((raw << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract `SharedMem::new`'s `assume_init` relies on: memory that
    /// was never written reads zero, everywhere and at every width.
    #[test]
    fn fresh_memory_reads_zero() {
        let m = SharedMem::new(4099);
        assert_eq!(m.len(), 4104);
        for width in 1..=8u32 {
            // Every position: word-straddling offsets and the last word too.
            for addr in 0..=m.len() - width as u64 {
                assert_eq!(m.read(addr, width), 0, "w={width} a={addr}");
            }
        }
        let empty = SharedMem::new(0);
        assert!(empty.is_empty());
        assert!(!empty.in_bounds(0, 1));
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let m = SharedMem::new(64);
        for width in [1u32, 2, 4, 8] {
            for addr in 0..(32 - width as u64) {
                let val = 0xDEAD_BEEF_CAFE_F00Du64 & bytes_mask(width);
                m.write(addr, width, val);
                assert_eq!(m.read(addr, width), val, "w={width} a={addr}");
                m.write(addr, width, 0);
            }
        }
    }

    #[test]
    fn unaligned_word_crossing_access() {
        let m = SharedMem::new(64);
        m.write(5, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(5, 8), 0x1122_3344_5566_7788);
        // Neighbors untouched.
        assert_eq!(m.read(0, 4), 0);
        assert_eq!(m.read(13, 2), 0);
    }

    #[test]
    fn adjacent_bytes_preserved() {
        let m = SharedMem::new(16);
        m.write(0, 8, u64::MAX);
        m.write(3, 1, 0);
        assert_eq!(m.read(0, 8), 0xFFFF_FFFF_00FF_FFFF);
    }

    #[test]
    fn sign_extend_behaviour() {
        assert_eq!(sign_extend(0xFF, 1), -1);
        assert_eq!(sign_extend(0x7F, 1), 127);
        assert_eq!(sign_extend(0xFFFF, 2), -1);
        assert_eq!(sign_extend(0x8000_0000, 4), i32::MIN as i64);
        assert_eq!(sign_extend(u64::MAX, 8), -1);
    }

    #[test]
    fn copy_and_zero() {
        let m = SharedMem::new(128);
        for i in 0..16 {
            m.write(i, 1, i + 1);
        }
        m.copy(0, 40, 16);
        for i in 0..16 {
            assert_eq!(m.read(40 + i, 1), i + 1);
        }
        // Misaligned copy.
        m.copy(1, 65, 10);
        for i in 0..10 {
            assert_eq!(m.read(65 + i, 1), i + 2);
        }
        m.zero(40, 16);
        for i in 0..16 {
            assert_eq!(m.read(40 + i, 1), 0);
        }
    }

    #[test]
    fn misaligned_bulk_copy_every_phase() {
        // All 8x8 relative alignments, with a length that exercises head,
        // word bulk, and tail.
        for s in 0..8u64 {
            for d in 0..8u64 {
                let m = SharedMem::new(256);
                for i in 0..40 {
                    m.write(s + i, 1, (i + 1) & 0xFF);
                }
                m.copy(s, 128 + d, 40);
                for i in 0..40 {
                    assert_eq!(m.read(128 + d + i, 1), (i + 1) & 0xFF, "s={s} d={d} i={i}");
                }
            }
        }
    }

    #[test]
    fn overlapping_copies_both_directions() {
        // Forward overlap (dst inside [src, src+len)) with a sub-word gap.
        let m = SharedMem::new(128);
        for i in 0..24 {
            m.write(i, 1, i + 1);
        }
        m.copy(0, 3, 24);
        for i in 0..24 {
            assert_eq!(m.read(3 + i, 1), i + 1, "forward overlap byte {i}");
        }
        // Backward overlap (dst < src).
        let m = SharedMem::new(128);
        for i in 0..24 {
            m.write(8 + i, 1, i + 1);
        }
        m.copy(8, 3, 24);
        for i in 0..24 {
            assert_eq!(m.read(3 + i, 1), i + 1, "backward overlap byte {i}");
        }
    }

    #[test]
    fn unaligned_zero() {
        let m = SharedMem::new(64);
        for i in 0..40 {
            m.write(i, 1, 0xAB);
        }
        m.zero(3, 29);
        for i in 0..3 {
            assert_eq!(m.read(i, 1), 0xAB);
        }
        for i in 3..32 {
            assert_eq!(m.read(i, 1), 0);
        }
        for i in 32..40 {
            assert_eq!(m.read(i, 1), 0xAB);
        }
    }

    #[test]
    fn bounds_checking() {
        let m = SharedMem::new(16);
        assert!(m.in_bounds(8, 8));
        assert!(!m.in_bounds(9, 8));
        assert!(!m.in_bounds(u64::MAX, 2));
    }

    #[test]
    fn concurrent_subword_writes_do_not_tear() {
        use std::sync::Arc;
        let m = Arc::new(SharedMem::new(64));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.write(t, 1, t + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(m.read(t, 1), t + 1);
        }
    }
}
