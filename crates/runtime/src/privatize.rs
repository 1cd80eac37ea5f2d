//! Runtime privatization — the SpiceC-style baseline of Section 4.2.1.
//!
//! Instead of expanding data structures at compile time, the baseline keeps
//! the program unchanged and routes every *private* access (per
//! Definition 5) through an address-translation runtime:
//!
//! * on the first touch of a heap structure, the whole containing
//!   allocation is **copied into thread-local space** (copy-in),
//! * subsequent accesses translate the shared address to the private copy
//!   (the paper's *heap prefix* fast path — here an O(log n) registry
//!   lookup plus a per-thread hash map, safe for interior pointers exactly
//!   as the paper's extended scheme),
//! * at loop end, thread-local changes are **committed** back to the shared
//!   space and the copies are released.
//!
//! Accesses to globals and stack locations return unchanged: the paper
//! performs their access control statically at compile time; the runtime
//! cost we measure (a call + classification per access, plus copying for
//! heap data) mirrors the paper's accounting.

use crate::vm::{ThreadCtx, Vm, VmError};

/// A thread-local private copy of one shared heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivCopy {
    /// Id of the shared allocation this copy shadows (detects reuse of a
    /// freed base address).
    pub alloc_id: u64,
    /// Base of the private copy.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Vm {
    /// Translates `addr` to the current thread's private copy, performing
    /// copy-in on first touch. Static (non-heap) addresses pass through.
    ///
    /// # Errors
    ///
    /// Traps when `addr` points at no live allocation or the copy cannot be
    /// allocated.
    pub(crate) fn localize(
        &self,
        ctx: &mut ThreadCtx,
        addr: u64,
        pc: usize,
    ) -> Result<u64, VmError> {
        ctx.counters.localize_calls += 1;
        if addr < self.heap.base() {
            // Global or stack: handled statically in SpiceC; pass through.
            return Ok(addr);
        }
        let a = self.heap.containing(addr).ok_or_else(|| {
            VmError::new(
                pc,
                format!("localize: address {addr} is not in a live allocation"),
            )
        })?;
        if let Some(copy) = ctx.priv_map.get(&a.base) {
            if copy.alloc_id == a.id {
                return Ok(copy.base + (addr - a.base));
            }
            // Stale entry: the base was freed and reallocated. Release the
            // old copy and redo the copy-in below.
            let stale = *copy;
            ctx.priv_map.remove(&a.base);
            self.heap.free(stale.base);
        }
        let c = self
            .heap
            .alloc(a.size)
            .ok_or_else(|| VmError::new(pc, "localize: out of memory for private copy"))?;
        if a.size > 0 {
            self.mem.copy(a.base, c.base, a.size);
        }
        ctx.counters.localize_copied_bytes += a.size;
        ctx.priv_map.insert(
            a.base,
            PrivCopy {
                alloc_id: a.id,
                base: c.base,
                size: a.size,
            },
        );
        Ok(c.base + (addr - a.base))
    }

    /// Commits and releases all of `ctx`'s private copies (called at
    /// parallel-loop end): each copy's bytes are written back to the shared
    /// allocation (if it is still live) before the copy is freed.
    pub(crate) fn commit_private_copies(&self, ctx: &mut ThreadCtx) {
        let entries: Vec<(u64, PrivCopy)> = ctx.priv_map.drain().collect();
        for (shared_base, copy) in entries {
            if let Some(live) = self.heap.at_base(shared_base) {
                if live.id == copy.alloc_id && copy.size > 0 {
                    self.mem.copy(copy.base, shared_base, copy.size);
                    ctx.counters.localize_copied_bytes += copy.size;
                }
            }
            self.heap.free(copy.base);
        }
    }
}
