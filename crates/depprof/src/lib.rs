//! # dse-depprof — loop-level data dependence profiling
//!
//! The paper obtains each candidate loop's data dependence graph by
//! *off-line dependence profiling* (Yu & Li, ICS'12 / ISSTA'12) followed by
//! manual verification, because static analysis is too conservative for
//! these benchmarks. This crate reproduces that component: it observes a
//! serial VM run (via [`dse_runtime::Observer`]) and builds, per candidate
//! loop, the loop-level DDG of Definition 1:
//!
//! * **flow / anti / output** dependences, each **loop-carried** or
//!   **loop-independent** (with the paper's refinement that a carried flow
//!   dependence is only recorded when the read is *not covered* by a write
//!   to the same address earlier in the same iteration),
//! * **upwards-exposed loads** (Definition 2) and **downwards-exposed
//!   stores** (Definition 3),
//! * per-site dynamic access counts (Figure 8's breakdown).
//!
//! That is all Definitions 1–5 read. Which data structures a private class
//! expands is alias analysis's question (§3.4), answered from points-to,
//! so the profile records no memory regions or allocation sites.
//!
//! Tracking is exact to the byte, so recast buffers (the 256.bzip2 `zptr`
//! idiom, where an `int` buffer is read through a `short*`) produce correct
//! dependences.
//!
//! A profiled run should cost close to what the interpreter costs, so the
//! shadow state is laid out for the access stream rather than looked up:
//!
//! * each active loop entry shadows the address space with 4 KiB pages
//!   mapped on first touch from a direct-mapped page table, one 36-byte
//!   state per aligned 4-byte granule: its last writer, two reader slots
//!   and a handle to a spill list for more readers. An access that covers
//!   part of a granule splits it into four byte states (each with its own
//!   copy of the spill list), and a store that covers a split granule
//!   makes it uniform again, so an `int` array never splits and a page
//!   holds 36 KiB where a state per byte took 128 KiB;
//! * an entry starts empty without clearing anything: granules carry the
//!   epoch of the entry that touched them, and an ended entry's pages go
//!   back to a pool, so an entry costs the pages it touched;
//! * per-site counts, exposure flags and edges live in dense per-loop
//!   tables indexed by site id, updated once per access (a run of states
//!   that agree yields its edges once); finishing the profile keeps the
//!   touched sites in site order and sorts the edges once, so a
//!   [`LoopDdg`] is ordered by construction;
//! * the downward-exposure watch is paged the same way, a chain head per
//!   byte.
//!
//! Two filters mirror how the transformed program will actually run:
//!
//! * Accesses to call frames created *after* the current iteration started
//!   are ignored: those frames live on per-thread stacks in the parallel
//!   execution, so they cannot carry cross-thread dependences.
//! * Accesses to the candidate loop's own induction variable are ignored:
//!   parallel lowering turns it into a scheduler-provided index.

use dse_ir::bytecode::{CompiledProgram, LoopEvent};
use dse_ir::sites::{AccessKind, SiteId, NO_SITE};
use dse_lang::fasthash::HashSet;
use dse_runtime::observer::LayoutInfo;
use dse_runtime::{Observer, Vm, VmConfig, VmError};

/// Kind of data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// One edge of a loop-level DDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DepEdge {
    /// Source access site.
    pub src: SiteId,
    /// Sink access site.
    pub dst: SiteId,
    /// Dependence kind.
    pub kind: DepKind,
    /// True when the dependence crosses iterations.
    pub carried: bool,
}

/// What one candidate loop observed of one access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteProfile {
    /// The access site.
    pub site: SiteId,
    /// Dynamic accesses (after filtering).
    pub count: u64,
    /// Performed an upwards-exposed load (Definition 2).
    pub upward: bool,
    /// Stored a value read after the loop (Definition 3).
    pub downward: bool,
}

impl SiteProfile {
    fn untouched(site: SiteId) -> SiteProfile {
        SiteProfile {
            site,
            count: 0,
            upward: false,
            downward: false,
        }
    }
}

/// The profiled dependence information for one candidate loop, accumulated
/// over every dynamic entry of the loop.
#[derive(Debug, Clone, Default)]
pub struct LoopDdg {
    /// Loop label (from `#pragma candidate`).
    pub label: String,
    /// Loop id in the serial-lowered program.
    pub loop_id: u32,
    /// All observed dependence edges, sorted and unique.
    pub edges: Vec<DepEdge>,
    /// Every site the loop accessed, sorted by site.
    pub sites: Vec<SiteProfile>,
    /// Total iterations observed (across entries).
    pub iterations: u64,
    /// Total in-loop dynamic accesses observed (after filtering).
    pub total_accesses: u64,
    /// VM instructions executed inside the loop (across entries) — the
    /// basis for Table 4's %time column.
    pub instructions: u64,
}

impl LoopDdg {
    /// All sites that appear in any carried edge of the given kinds.
    pub fn sites_in_carried(&self, kinds: &[DepKind]) -> HashSet<SiteId> {
        let mut out = HashSet::default();
        for e in &self.edges {
            if e.carried && kinds.contains(&e.kind) {
                out.insert(e.src);
                out.insert(e.dst);
            }
        }
        out
    }

    /// `site`'s record, if the loop accessed it.
    pub fn site(&self, site: SiteId) -> Option<&SiteProfile> {
        let at = self.sites.binary_search_by_key(&site, |s| s.site).ok()?;
        Some(&self.sites[at])
    }

    /// Sites observed performing an upwards-exposed load, ascending.
    pub fn upward_exposed(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites.iter().filter(|s| s.upward).map(|s| s.site)
    }

    /// Sites whose stored value was used after the loop, ascending.
    pub fn downward_exposed(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites.iter().filter(|s| s.downward).map(|s| s.site)
    }
}

/// Result of profiling one program run.
#[derive(Debug, Clone, Default)]
pub struct ProfileResult {
    /// One DDG per candidate loop that executed, ordered by loop id.
    pub loops: Vec<LoopDdg>,
}

impl ProfileResult {
    /// Finds a loop's DDG by label.
    pub fn by_label(&self, label: &str) -> Option<&LoopDdg> {
        self.loops.iter().find(|l| l.label == label)
    }

    /// Whole-profile totals `(iterations, accesses, dependence edges)`
    /// summed over every profiled loop — the size stats reported on the
    /// `profile` phase span.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.loops.iter().fold((0, 0, 0), |(it, acc, ed), l| {
            (
                it + l.iterations,
                acc + l.total_accesses,
                ed + l.edges.len() as u64,
            )
        })
    }

    /// A deterministic textual rendering of the whole profile: every loop's
    /// edges, exposure sets and per-site counts, in [`LoopDdg`]'s own
    /// order. Two profiles of the same program on the same inputs produce
    /// identical summaries, so the artifact cache can use its hash as the
    /// profile's content fingerprint.
    pub fn canonical_summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for l in &self.loops {
            writeln!(
                out,
                "loop {} `{}` iters={} accesses={} instructions={}",
                l.loop_id, l.label, l.iterations, l.total_accesses, l.instructions
            )
            .unwrap();
            for e in &l.edges {
                writeln!(
                    out,
                    "  edge {}->{} {:?} carried={}",
                    e.src, e.dst, e.kind, e.carried
                )
                .unwrap();
            }
            let upward: Vec<SiteId> = l.upward_exposed().collect();
            writeln!(out, "  upward={upward:?}").unwrap();
            let downward: Vec<SiteId> = l.downward_exposed().collect();
            writeln!(out, "  downward={downward:?}").unwrap();
            for s in &l.sites {
                writeln!(out, "  site {} count={}", s.site, s.count).unwrap();
            }
        }
        out
    }
}

/// Profiles `compiled` (which must be serially lowered, so candidate loops
/// carry `LoopMark`s) by running it to completion under the profiler.
/// Returns the profile and the VM (for output inspection).
///
/// Profiling always runs the reference stack backend, whatever the caller's
/// config says: dependence edges are defined over the reference access
/// stream, and the register backend's scalar promotion elides exactly the
/// frame loads/stores the profiler needs to see.
///
/// # Errors
///
/// Propagates VM construction/run errors.
pub fn profile_program(
    compiled: CompiledProgram,
    mut config: VmConfig,
) -> Result<(ProfileResult, Vm), VmError> {
    config.backend = dse_runtime::BackendKind::Stack;
    let mut vm = Vm::new(compiled, config)?;
    let mut profiler = Profiler::new(vm.program(), vm.layout());
    vm.run_with_observer(&mut profiler)?;
    Ok((profiler.into_result(), vm))
}

// ---------------------------------------------------------------------------
// shadow state
// ---------------------------------------------------------------------------

/// log2 of a shadow page: each page shadows 4 KiB of the VM's address
/// space.
const PAGE_BITS: u32 = 12;
const PAGE: usize = 1 << PAGE_BITS;
/// log2 of a granule: the dependence shadow keeps one state per aligned 4
/// bytes, so an `int` array never splits.
const GRANULE_BITS: u32 = 2;
const GRANULE: usize = 1 << GRANULE_BITS;
/// Granules per shadow page.
const GRANULES: usize = PAGE >> GRANULE_BITS;

/// The page-sized runs of `[addr, end)`: `(page number, offsets in it)`.
fn page_runs(addr: u64, end: u64) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
    let mut at = addr;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let page = (at >> PAGE_BITS) as usize;
            let next = (((page as u64) + 1) << PAGE_BITS).min(end);
            let lo = at as usize & (PAGE - 1);
            let run = lo..lo + (next - at) as usize;
            at = next;
            (page, run)
        })
    })
}

/// A direct-mapped table of 4 KiB pages over the address space, a slice
/// of `T` per page (one per address or per granule), each page mapped on
/// first touch.
struct Pages<T> {
    /// Page number → 1 + index into `pages` (0: not mapped).
    dir: Vec<u32>,
    pages: Vec<(usize, Box<[T]>)>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages {
            dir: Vec::new(),
            pages: Vec::new(),
        }
    }
}

impl<T> Pages<T> {
    fn slot(&self, page: usize) -> Option<usize> {
        match self.dir.get(page) {
            Some(&slot) if slot != 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    fn get(&self, page: usize) -> Option<&[T]> {
        Some(&self.pages[self.slot(page)?].1)
    }

    fn get_mut(&mut self, page: usize) -> Option<&mut [T]> {
        let slot = self.slot(page)?;
        Some(&mut self.pages[slot].1)
    }

    /// Page `page`, mapping `fresh()` there if it is not mapped.
    fn map(&mut self, page: usize, fresh: impl FnOnce() -> Box<[T]>) -> &mut [T] {
        let slot = self.slot(page).unwrap_or_else(|| {
            if page >= self.dir.len() {
                self.dir.resize(page + 1, 0);
            }
            self.pages.push((page, fresh()));
            self.dir[page] = self.pages.len() as u32;
            self.pages.len() - 1
        });
        &mut self.pages[slot].1
    }

    /// Unmaps every page, handing each to `keep`.
    fn unmap_all(&mut self, mut keep: impl FnMut(Box<[T]>)) {
        for (page, bytes) in self.pages.drain(..) {
            self.dir[page] = 0;
            keep(bytes);
        }
    }
}

/// A `(site, iteration)` access record; `site` is `NO_SITE` when empty.
type Stamp = (SiteId, u32);
const EMPTY: Stamp = (NO_SITE, 0);

/// The state of one shadowed byte of one loop entry (32 bytes); a uniform
/// granule keeps the one state all four of its bytes share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Byte {
    /// The loop entry this state belongs to: a state stamped with any
    /// other entry reads as untouched, so an entry starts empty without
    /// clearing a page.
    epoch: u32,
    /// 1 + index of the spill list holding readers past `readers`; 0: none.
    spill: u32,
    /// Last write in this entry.
    write: Stamp,
    /// Reads since the last write, one per site (latest iteration kept).
    readers: [Stamp; 2],
}

impl Byte {
    const UNTOUCHED: Byte = Byte {
        epoch: 0,
        spill: 0,
        write: EMPTY,
        readers: [EMPTY; 2],
    };
}

/// One aligned 4-byte granule of one loop entry (36 bytes): the state its
/// bytes share, or, once an access covered part of it, its four byte
/// states in the shadow's split table.
#[derive(Debug, Clone, Copy)]
struct Granule {
    /// The bytes' common state while `split` is 0; its epoch is the
    /// granule's either way.
    state: Byte,
    /// 1 + index of the granule's four byte states; 0: uniform.
    split: u32,
}

impl Granule {
    const UNTOUCHED: Granule = Granule {
        state: Byte::UNTOUCHED,
        split: 0,
    };
}

/// Reader lists of states read by more than two sites since a store.
#[derive(Default)]
struct Spill {
    lists: Vec<Vec<Stamp>>,
    free: Vec<u32>,
}

impl Spill {
    /// A new, empty list's handle.
    fn alloc(&mut self) -> u32 {
        1 + self.free.pop().unwrap_or_else(|| {
            self.lists.push(Vec::new());
            self.lists.len() as u32 - 1
        })
    }

    /// A new list holding the readers of list `of`.
    fn copy(&mut self, of: u32) -> u32 {
        let handle = self.alloc();
        let mut list = std::mem::take(&mut self.lists[handle as usize - 1]);
        list.extend_from_slice(&self.lists[of as usize - 1]);
        self.lists[handle as usize - 1] = list;
        handle
    }
}

/// One access applied state by state: its site, kind and iteration, and
/// the previous state before and after it, while neither spills (a state
/// that starts equal to the previous one ends equal and yields the same
/// edges, so a run of equal states costs one state's work and copies).
struct Step<'a> {
    acc: &'a mut Accum,
    spill: &'a mut Spill,
    site: SiteId,
    kind: AccessKind,
    iter: u32,
    same: Option<(Byte, Byte)>,
}

impl Step<'_> {
    #[inline]
    fn apply(&mut self, b: &mut Byte) {
        let before = *b;
        if let Some((pre, post)) = self.same {
            if before == pre {
                *b = post;
                return;
            }
        }
        let (site, iter) = (self.site, self.iter);
        let dep = |src: Stamp, kind| DepEdge {
            src: src.0,
            dst: site,
            kind,
            carried: src.1 != iter,
        };
        match self.kind {
            AccessKind::Load => {
                if b.write.0 == NO_SITE {
                    self.acc.sites[site as usize].upward = true;
                } else {
                    self.acc.edge(dep(b.write, DepKind::Flow));
                }
                if let Some(r) = b.readers.iter_mut().find(|r| r.0 == site) {
                    r.1 = iter;
                } else if let Some(r) = b.readers.iter_mut().find(|r| r.0 == NO_SITE) {
                    *r = (site, iter);
                } else {
                    if b.spill == 0 {
                        b.spill = self.spill.alloc();
                    }
                    let list = &mut self.spill.lists[b.spill as usize - 1];
                    match list.iter_mut().find(|r| r.0 == site) {
                        Some(r) => r.1 = iter,
                        None => list.push((site, iter)),
                    }
                }
            }
            AccessKind::Store => {
                if b.write.0 != NO_SITE {
                    self.acc.edge(dep(b.write, DepKind::Output));
                }
                for &r in b.readers.iter().take_while(|r| r.0 != NO_SITE) {
                    self.acc.edge(dep(r, DepKind::Anti));
                }
                if b.spill != 0 {
                    let list = &mut self.spill.lists[b.spill as usize - 1];
                    for &r in list.iter() {
                        self.acc.edge(dep(r, DepKind::Anti));
                    }
                    list.clear();
                    self.spill.free.push(b.spill - 1);
                }
                *b = Byte {
                    epoch: b.epoch,
                    write: (site, iter),
                    ..Byte::UNTOUCHED
                };
            }
        }
        self.same = (before.spill == 0 && b.spill == 0).then_some((before, *b));
    }
}

/// The granule states of one loop entry, whose pages come from (and go
/// back to) the profiler's pool, so an entry costs the pages it touches,
/// never the ones before it.
#[derive(Default)]
struct Shadow {
    epoch: u32,
    granules: Pages<Granule>,
    /// The byte states of split granules.
    splits: Vec<[Byte; GRANULE]>,
    free_splits: Vec<u32>,
    spill: Spill,
    /// Every granule this entry wrote a byte of, once (for the
    /// downward-exposure watch).
    written: Vec<u64>,
}

impl Shadow {
    /// The last writer of each byte of the granule at `addr`, which this
    /// entry wrote (`NO_SITE` for a byte it did not).
    fn writers(&self, addr: u64) -> [SiteId; GRANULE] {
        let page = self.granules.get((addr >> PAGE_BITS) as usize);
        let cell = &page.expect("a written granule's page is mapped")
            [(addr as usize & (PAGE - 1)) >> GRANULE_BITS];
        match cell.split {
            0 => [cell.state.write.0; GRANULE],
            split => self.splits[split as usize - 1].map(|b| b.write.0),
        }
    }

    /// Applies one access to the bytes `[addr, end)`, recording its edges
    /// and upward exposure in `acc`. An access that covers a whole uniform
    /// granule updates its one state; one that covers part of a granule
    /// splits it into four byte states first (each with its own copy of
    /// the granule's spill list), and a store that covers a split granule
    /// makes it uniform again.
    fn access(
        &mut self,
        pool: &mut Vec<Box<[Granule]>>,
        acc: &mut Accum,
        site: SiteId,
        kind: AccessKind,
        (addr, end): (u64, u64),
        iter: u32,
    ) {
        let epoch = self.epoch;
        let Shadow {
            granules,
            splits,
            free_splits,
            spill,
            written,
            ..
        } = self;
        let mut step = Step {
            acc,
            spill,
            site,
            kind,
            iter,
            same: None,
        };
        let store = kind == AccessKind::Store;
        for (page, run) in page_runs(addr, end) {
            let base = (page as u64) << PAGE_BITS;
            let cells = granules.map(page, || {
                pool.pop()
                    .unwrap_or_else(|| vec![Granule::UNTOUCHED; GRANULES].into_boxed_slice())
            });
            let (first, last) = (run.start >> GRANULE_BITS, (run.end - 1) >> GRANULE_BITS);
            let los = (first << GRANULE_BITS..).step_by(GRANULE);
            for (lo, cell) in los.zip(&mut cells[first..=last]) {
                let bytes = run.start.max(lo) - lo..run.end.min(lo + GRANULE) - lo;
                let whole = bytes.len() == GRANULE;
                if cell.state.epoch != epoch {
                    cell.state = Byte {
                        epoch,
                        ..Byte::UNTOUCHED
                    };
                    cell.split = 0;
                }
                if cell.split == 0 {
                    if store && cell.state.write.0 == NO_SITE {
                        written.push(base + lo as u64);
                    }
                    if whole {
                        step.apply(&mut cell.state);
                        continue;
                    }
                    let mut four = [cell.state; GRANULE];
                    if cell.state.spill != 0 {
                        for b in &mut four[1..] {
                            b.spill = step.spill.copy(cell.state.spill);
                        }
                    }
                    cell.split = 1 + match free_splits.pop() {
                        Some(free) => {
                            splits[free as usize] = four;
                            free
                        }
                        None => {
                            splits.push(four);
                            splits.len() as u32 - 1
                        }
                    };
                } else if store
                    && splits[cell.split as usize - 1]
                        .iter()
                        .all(|b| b.write.0 == NO_SITE)
                {
                    written.push(base + lo as u64);
                }
                let four = &mut splits[cell.split as usize - 1];
                for b in &mut four[bytes] {
                    step.apply(b);
                }
                if store && whole {
                    cell.state = four[0];
                    free_splits.push(cell.split - 1);
                    cell.split = 0;
                }
            }
        }
    }

    /// Ends the entry: its pages go back to `pool` (their stale epochs
    /// make them read as untouched to whichever entry maps them next).
    fn release(&mut self, pool: &mut Vec<Box<[Granule]>>) {
        self.granules.unmap_all(|page| pool.push(page));
        self.splits.clear();
        self.free_splits.clear();
        self.spill.lists.clear();
        self.spill.free.clear();
        self.written.clear();
    }
}

/// The downward-exposure watch: per byte, the `(loop, site)` last writers
/// of ended loop entries, until a store overwrites the byte. A load of a
/// watched byte makes those sites downward-exposed. One `u32` per byte
/// heads its chain of watchers in `nodes` (1 + index; 0: unwatched).
#[derive(Default)]
struct Watch {
    heads: Pages<u32>,
    /// `(loop, site, 1 + index of the next node or 0)`.
    nodes: Vec<(u32, SiteId, u32)>,
    free: Vec<u32>,
    /// Bytes currently watched: while 0, accesses skip the watch.
    live: usize,
}

impl Watch {
    /// Watches `addr` for `(loop_id, site)`.
    fn add(&mut self, addr: u64, loop_id: u32, site: SiteId) {
        let page = (addr >> PAGE_BITS) as usize;
        let heads = self.heads.map(page, || vec![0; PAGE].into_boxed_slice());
        let head = &mut heads[addr as usize & (PAGE - 1)];
        if *head == 0 {
            self.live += 1;
        }
        let node = (loop_id, site, *head);
        *head = 1 + match self.free.pop() {
            Some(free) => {
                self.nodes[free as usize] = node;
                free
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        };
    }

    /// Calls `mark` for every watcher of a byte in `[addr, end)`.
    fn load(&self, (addr, end): (u64, u64), mut mark: impl FnMut(u32, SiteId)) {
        for (page, run) in page_runs(addr, end) {
            let Some(heads) = self.heads.get(page) else {
                continue;
            };
            for &head in &heads[run] {
                let mut at = head;
                while at != 0 {
                    let (loop_id, site, next) = self.nodes[at as usize - 1];
                    mark(loop_id, site);
                    at = next;
                }
            }
        }
    }

    /// Stops watching `[addr, end)`.
    fn store(&mut self, (addr, end): (u64, u64)) {
        for (page, run) in page_runs(addr, end) {
            let Some(heads) = self.heads.get_mut(page) else {
                continue;
            };
            for head in &mut heads[run] {
                if *head != 0 {
                    self.live -= 1;
                }
                while *head != 0 {
                    self.free.push(*head - 1);
                    *head = self.nodes[*head as usize - 1].2;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the profiler
// ---------------------------------------------------------------------------

/// One candidate loop's profile as its entries add to it. Every fact is a
/// union or a sum over entries, so entries record straight into it; it
/// becomes a [`LoopDdg`] once, when the profile is finished.
struct Accum {
    label: String,
    /// Edges by sink site: a sink has few distinct sources, so a short
    /// scan finds a repeat.
    edges: Vec<Vec<DepEdge>>,
    /// Per site id, dense over the program's site table.
    sites: Vec<SiteProfile>,
    iterations: u64,
    total_accesses: u64,
    instructions: u64,
}

impl Accum {
    fn new(label: String, nsites: usize) -> Accum {
        Accum {
            label,
            edges: vec![Vec::new(); nsites],
            sites: (0..nsites as SiteId).map(SiteProfile::untouched).collect(),
            iterations: 0,
            total_accesses: 0,
            instructions: 0,
        }
    }

    fn edge(&mut self, e: DepEdge) {
        let into = &mut self.edges[e.dst as usize];
        if !into.contains(&e) {
            into.push(e);
        }
    }

    /// Sites an exposure flag names were accessed, so keeping the counted
    /// sites keeps every flag.
    fn into_ddg(self, loop_id: u32) -> LoopDdg {
        let mut edges: Vec<DepEdge> = self.edges.into_iter().flatten().collect();
        edges.sort_unstable();
        LoopDdg {
            loop_id,
            edges,
            sites: self.sites.into_iter().filter(|s| s.count > 0).collect(),
            iterations: self.iterations,
            total_accesses: self.total_accesses,
            instructions: self.instructions,
            label: self.label,
        }
    }
}

struct ActiveLoop {
    loop_id: u32,
    /// Current iteration (0 until the first `IterStart`).
    iter: u32,
    /// Stack pointer at the current iteration's start; stack bytes at or
    /// above this are transient.
    iter_sp: u64,
    /// Address range of the induction variable (excluded from profiling).
    ind_range: (u64, u64),
    /// Thread instruction count at loop entry.
    begin_work: u64,
    shadow: Shadow,
}

/// Observer implementation that builds loop-level DDGs.
pub struct Profiler {
    loops_meta: Vec<(String, u32, u8)>,
    nsites: usize,
    stack_lo: u64,
    stack_hi: u64,
    active: Vec<ActiveLoop>,
    /// Per loop id, once entered.
    accum: Vec<Option<Accum>>,
    /// Last loop-entry epoch handed out.
    epoch: u32,
    /// Shadows of ended entries, kept for their page tables.
    spare: Vec<Shadow>,
    /// Unmapped shadow pages.
    pool: Vec<Box<[Granule]>>,
    watch: Watch,
}

impl Profiler {
    /// Creates a profiler for `program` running under the given layout.
    pub fn new(program: &CompiledProgram, layout: LayoutInfo) -> Self {
        Profiler {
            loops_meta: program
                .loops
                .iter()
                .map(|l| (l.label.clone(), l.induction_offset, l.induction_width))
                .collect(),
            nsites: program.sites.len(),
            stack_lo: layout.master_stack.0,
            stack_hi: layout.master_stack.1,
            active: Vec::new(),
            accum: program.loops.iter().map(|_| None).collect(),
            epoch: 0,
            spare: Vec::new(),
            pool: Vec::new(),
            watch: Watch::default(),
        }
    }

    /// Finalizes the profile.
    pub fn into_result(mut self) -> ProfileResult {
        while let Some(al) = self.active.pop() {
            self.fold_loop(al);
        }
        let loops = (0..)
            .zip(self.accum)
            .filter_map(|(id, acc)| Some(acc?.into_ddg(id)))
            .filter(|l| !l.label.is_empty())
            .collect();
        ProfileResult { loops }
    }

    /// Ends one loop entry: its iterations count, and every byte it wrote
    /// is watched for a read after it.
    fn fold_loop(&mut self, mut al: ActiveLoop) {
        if let Some(acc) = &mut self.accum[al.loop_id as usize] {
            acc.iterations += al.iter as u64;
        }
        for &addr in &al.shadow.written {
            let writers = al.shadow.writers(addr);
            for (byte, site) in (addr..).zip(writers) {
                if site != NO_SITE {
                    self.watch.add(byte, al.loop_id, site);
                }
            }
        }
        al.shadow.release(&mut self.pool);
        self.spare.push(al.shadow);
    }
}

impl Observer for Profiler {
    fn on_access(&mut self, site: SiteId, kind: AccessKind, addr: u64, width: u32, _sp: u64) {
        let bytes = (addr, addr + width as u64);
        // Downward-exposure watch (applies after loop entries ended).
        if self.watch.live != 0 {
            match kind {
                AccessKind::Load => {
                    let accum = &mut self.accum;
                    self.watch.load(bytes, |loop_id, wsite| {
                        if let Some(acc) = &mut accum[loop_id as usize] {
                            acc.sites[wsite as usize].downward = true;
                        }
                    });
                }
                AccessKind::Store => self.watch.store(bytes),
            }
        }

        if self.active.is_empty() {
            return;
        }
        let in_stack = addr >= self.stack_lo && addr < self.stack_hi;
        let Profiler {
            active,
            accum,
            pool,
            nsites,
            ..
        } = self;
        if site as usize >= *nsites {
            // Hand-built bytecode may name sites past the table.
            *nsites = site as usize + 1;
            for acc in accum.iter_mut().flatten() {
                acc.edges.resize(*nsites, Vec::new());
                let next = acc.sites.len() as SiteId;
                acc.sites.extend((next..=site).map(SiteProfile::untouched));
            }
        }
        for al in active.iter_mut() {
            let (ilo, ihi) = al.ind_range;
            if bytes.0 < ihi && bytes.1 > ilo {
                continue; // the loop's own induction variable
            }
            if in_stack && addr >= al.iter_sp {
                continue; // transient frame: thread-private at runtime
            }
            let Some(acc) = &mut accum[al.loop_id as usize] else {
                continue;
            };
            acc.total_accesses += 1;
            acc.sites[site as usize].count += 1;
            al.shadow.access(pool, acc, site, kind, bytes, al.iter);
        }
    }

    fn on_loop(&mut self, ev: LoopEvent, loop_id: u32, sp: u64, work: u64) {
        match ev {
            LoopEvent::Begin => {
                // `sp` is the enclosing frame base for Begin events.
                let (label, ind_off, ind_w) = &self.loops_meta[loop_id as usize];
                let ind_lo = sp + *ind_off as u64;
                let ind_range = (ind_lo, ind_lo + *ind_w as u64);
                let nsites = self.nsites;
                self.accum[loop_id as usize]
                    .get_or_insert_with(|| Accum::new(label.clone(), nsites));
                // Epochs tell entries apart; on the (theoretical) wrap, the
                // pooled pages' stamps could repeat, so they go.
                self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
                    self.pool.clear();
                    1
                });
                let mut shadow = self.spare.pop().unwrap_or_default();
                shadow.epoch = self.epoch;
                self.active.push(ActiveLoop {
                    loop_id,
                    iter: 0,
                    iter_sp: u64::MAX,
                    ind_range,
                    begin_work: work,
                    shadow,
                });
            }
            LoopEvent::IterStart => {
                if let Some(al) = self.active.iter_mut().rev().find(|a| a.loop_id == loop_id) {
                    al.iter += 1;
                    al.iter_sp = sp;
                }
            }
            LoopEvent::End => {
                while let Some(al) = self.active.pop() {
                    let id = al.loop_id;
                    if let Some(acc) = &mut self.accum[id as usize] {
                        acc.instructions += work.saturating_sub(al.begin_work);
                    }
                    self.fold_loop(al);
                    if id == loop_id {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_ir::lower::LowerOptions;

    fn profile(src: &str) -> ProfileResult {
        profile_named(src).0
    }

    /// Profiles `src`, and names each site of the serial program's site
    /// table by its expression's source text (indexed by site id), so a
    /// test can pick sites by expression.
    pub(super) fn profile_named(src: &str) -> (ProfileResult, Vec<String>) {
        let ast = dse_lang::compile_to_ast(src).unwrap();
        let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        let texts = compiled
            .sites
            .iter()
            .map(|(_, info)| {
                let (start, end) = (info.span.start, info.span.end);
                assert_eq!(start.line, end.line, "multi-line site {info:?}");
                let line = lines[start.line as usize - 1];
                line[start.col as usize - 1..end.col as usize - 1].to_string()
            })
            .collect();
        let (res, _) = profile_program(compiled, VmConfig::default()).unwrap();
        (res, texts)
    }

    /// Scratch variable written then read per iteration: privatizable
    /// pattern — carried anti/output, no carried flow, no exposure.
    #[test]
    fn scratch_scalar_has_carried_anti_output_only() {
        let res = profile(
            "int main() { int t; int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 10; i++) { t = i * 2; s += t; }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        assert_eq!(l.iterations, 10);
        let kinds: HashSet<(DepKind, bool)> = l.edges.iter().map(|e| (e.kind, e.carried)).collect();
        // t: independent flow (t = .. ; .. = t), carried anti (read t iter
        // i, write t iter i+1), carried output (write t each iter).
        assert!(kinds.contains(&(DepKind::Flow, false)));
        assert!(kinds.contains(&(DepKind::Anti, true)));
        assert!(kinds.contains(&(DepKind::Output, true)));
        // s is an accumulator: carried flow.
        assert!(kinds.contains(&(DepKind::Flow, true)));
    }

    #[test]
    fn accumulator_is_upward_and_downward_exposed() {
        let res = profile(
            "int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 5; i++) { s += i; }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // `s += i` loads s: first iteration reads the init from outside.
        assert!(l.upward_exposed().next().is_some());
        // `return s` reads the final value written in the loop.
        assert!(l.downward_exposed().next().is_some());
    }

    #[test]
    fn write_first_scratch_is_not_exposed() {
        let res = profile(
            "int main() { int t; t = 99;
               #pragma candidate hot
               for (int i = 0; i < 5; i++) { t = i; t = t + 1; }
               return 0; }",
        );
        let l = res.by_label("hot").unwrap();
        assert!(l.upward_exposed().next().is_none(), "{l:?}");
        assert!(l.downward_exposed().next().is_none());
    }

    #[test]
    fn covered_read_is_independent_not_carried_flow() {
        // t is written every iteration before being read: the read's value
        // never crosses iterations, so no carried flow on t.
        let res = profile(
            "int main() { int t; int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 8; i++) { t = i; s = s + t; }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // Find flow edges whose sink reads t: all must be independent.
        // (We can't name sites here, but: exactly one carried flow pair may
        // exist — the accumulator s. Count distinct carried-flow sinks.)
        let carried_flow: Vec<_> = l
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Flow && e.carried)
            .collect();
        let sinks: HashSet<_> = carried_flow.iter().map(|e| e.dst).collect();
        assert_eq!(sinks.len(), 1, "only the accumulator load carries flow");
    }

    #[test]
    fn heap_scratch_buffer_carries_anti_and_output() {
        let res = profile(
            "int main() {
               int *buf; buf = malloc(16 * sizeof(int));
               int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 6; i++) {
                 for (int k = 0; k < 16; k++) { buf[k] = i + k; }
                 for (int k = 0; k < 16; k++) { s += buf[k]; }
               }
               free(buf);
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // buf writes/reads: carried anti and output (reuse across
        // iterations), but reads are covered -> no carried flow from buf.
        assert!(!l
            .sites_in_carried(&[DepKind::Anti, DepKind::Output])
            .is_empty());
    }

    #[test]
    fn induction_variable_is_excluded() {
        let res = profile(
            "int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 4; i++) { s += i; }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // No edge may involve the induction variable: its step-write and
        // cond-read would otherwise produce a carried flow. The only
        // carried flow must be the accumulator (one sink).
        let sinks: HashSet<_> = l
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Flow && e.carried)
            .map(|e| e.dst)
            .collect();
        assert_eq!(sinks.len(), 1);
    }

    #[test]
    fn callee_frame_accesses_are_transient() {
        let (res, texts) = profile_named(
            "int work(int x) { int t; t = x * 2; return t + 1; }
             int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 6; i++) { s += work(i); }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // `t` and `x` live in work()'s frame, created after IterStart: they
        // must not appear. Only the accumulator's load and store remain.
        let seen: Vec<&str> = l.sites.iter().map(|s| &*texts[s.site as usize]).collect();
        assert_eq!(
            seen,
            ["s", "s"],
            "only s's load/store should remain: {l:#?}"
        );
    }

    #[test]
    fn recast_short_reads_depend_on_int_writes() {
        let res = profile(
            "int main() {
               int *zptr; zptr = malloc(8 * sizeof(int));
               short *v; v = (short*)zptr;
               int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 4; i++) {
                 for (int k = 0; k < 8; k++) { zptr[k] = i + k; }
                 for (int k = 0; k < 16; k++) { s += v[k]; }
               }
               free(zptr);
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // The short loads read bytes written by the int stores: there must
        // be independent flow edges between distinct sites (byte-granular
        // tracking catches the overlap).
        assert!(l
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Flow && !e.carried && e.src != e.dst));
    }

    #[test]
    fn loop_entered_multiple_times_accumulates() {
        let res = profile(
            "int main() { int s; s = 0;
               for (int outer = 0; outer < 3; outer++) {
                 #pragma candidate inner
                 for (int i = 0; i < 4; i++) { s += i; }
               }
               return s; }",
        );
        let l = res.by_label("inner").unwrap();
        assert_eq!(l.iterations, 12);
    }

    #[test]
    fn linked_list_rebuild_per_iteration_is_private_pattern() {
        // The dijkstra idiom: a list is built and torn down every
        // iteration. Its nodes must show carried anti/output (reused heap
        // chunks) but no carried flow, and no upward exposure from nodes.
        let (res, texts) = profile_named(
            "struct Node { int v; struct Node *next; };
             int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 6; i++) {
                 struct Node *head; head = 0;
                 for (int k = 0; k < 5; k++) {
                   struct Node *n; n = malloc(sizeof(struct Node));
                   n->v = k + i; n->next = head; head = n;
                 }
                 while (head) {
                   s += head->v;
                   struct Node *d; d = head; head = head->next; free(d);
                 }
               }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        let carried_flow_heap: Vec<_> = l
            .edges
            .iter()
            .filter(|e| {
                // A node field: `n->v`, `head->next`, ...
                e.kind == DepKind::Flow && e.carried && texts[e.dst as usize].contains("->")
            })
            .collect();
        assert!(
            carried_flow_heap.is_empty(),
            "list nodes are written before read each iteration: {carried_flow_heap:?}"
        );
        assert!(!l.sites_in_carried(&[DepKind::Output]).is_empty());
    }

    #[test]
    fn downward_exposure_cleared_by_overwrite() {
        let res = profile(
            "int g; int main() {
               #pragma candidate hot
               for (int i = 0; i < 4; i++) { g = i; }
               g = 0;
               return g; }",
        );
        let l = res.by_label("hot").unwrap();
        assert!(
            l.downward_exposed().next().is_none(),
            "g is overwritten before the read after the loop"
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use dse_ir::lower::LowerOptions;

    fn profile(src: &str) -> ProfileResult {
        let ast = dse_lang::compile_to_ast(src).unwrap();
        let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
        let (res, _) = profile_program(compiled, VmConfig::default()).unwrap();
        res
    }

    /// Nested candidate loops are profiled independently and
    /// simultaneously: the inner loop's scratch is carried for the inner
    /// loop but the outer loop sees the same accesses too.
    #[test]
    fn nested_candidates_profiled_together() {
        let res = profile(
            "int main() { int s; s = 0;
               #pragma candidate outer
               for (int i = 0; i < 3; i++) {
                 #pragma candidate inner
                 for (int j = 0; j < 4; j++) {
                   int t; t = i * 4 + j; s += t;
                 }
               }
               return s; }",
        );
        let outer = res.by_label("outer").unwrap();
        let inner = res.by_label("inner").unwrap();
        assert_eq!(outer.iterations, 3);
        assert_eq!(inner.iterations, 12, "3 entries x 4 iterations");
        // t is written before read in both loops' iterations: private
        // pattern with carried anti/output in both.
        for l in [outer, inner] {
            assert!(!l
                .sites_in_carried(&[DepKind::Anti, DepKind::Output])
                .is_empty());
        }
    }

    /// Realloc moves a buffer; later reads of the moved data must not be
    /// attributed to the old allocation and do not fabricate carried flow
    /// inside an iteration.
    #[test]
    fn realloc_relocation_is_conservative() {
        let res = profile(
            "int main() { long s; s = 0;
               int *buf; buf = malloc(4 * sizeof(int));
               int cap; cap = 4;
               #pragma candidate hot
               for (int i = 0; i < 8; i++) {
                 int need; need = 4 + i;
                 if (need > cap) { buf = realloc(buf, (long)need * sizeof(int)); cap = need; }
                 for (int k = 0; k < need; k++) { buf[k] = i + k; }
                 for (int k = 0; k < need; k++) { s += buf[k]; }
               }
               out_long(s);
               free(buf);
               return 0; }",
        );
        let l = res.by_label("hot").unwrap();
        // The buffer pointer itself is carried (read to realloc, written by
        // realloc): there must be carried flow on the *pointer variable*.
        assert!(!l.sites_in_carried(&[DepKind::Flow]).is_empty());
        // Buffer contents are written before read each iteration: some
        // site must still be free of carried flow (the content accesses).
        let carried_flow = l.sites_in_carried(&[DepKind::Flow]);
        let with_anti = l.sites_in_carried(&[DepKind::Anti, DepKind::Output]);
        assert!(with_anti.iter().any(|s| !carried_flow.contains(s)));
    }

    /// Float accesses profile like integer ones (lbm's pattern).
    #[test]
    fn float_buffers_profile() {
        let (res, texts) = super::tests::profile_named(
            "int main() {
               float *f; f = malloc(6 * sizeof(float));
               float acc; acc = 0.0;
               #pragma candidate hot
               for (int i = 0; i < 5; i++) {
                 for (int d = 0; d < 6; d++) { f[d] = (float)(i + d); }
                 for (int d = 0; d < 6; d++) { acc = acc + f[d]; }
               }
               out_float(acc);
               free(f);
               return 0; }",
        );
        let l = res.by_label("hot").unwrap();
        assert!(l.total_accesses > 0);
        // f contents: carried anti/output, no carried flow.
        let heap_sites: Vec<SiteId> = l
            .sites
            .iter()
            .map(|s| s.site)
            .filter(|&s| texts[s as usize] == "f[d]")
            .collect();
        assert_eq!(heap_sites.len(), 2, "the store and the load of f[d]");
        let carried_flow = l.sites_in_carried(&[DepKind::Flow]);
        for s in &heap_sites {
            assert!(!carried_flow.contains(s), "covered float reads");
        }
    }

    /// A shadowed byte costs less than a per-byte hash-map entry would
    /// (an 8-byte address key beside a 40-byte state).
    #[test]
    fn byte_shadow_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Byte>(), 32);
    }

    /// A uniform granule shadows four bytes in 36, so a shadow page holds
    /// 36 KiB for 4 KiB of address space where one state per byte took
    /// 128 KiB.
    #[test]
    fn granule_shadow_is_36_bytes() {
        assert_eq!(std::mem::size_of::<Granule>(), 36);
        assert_eq!(GRANULES * std::mem::size_of::<Granule>(), 36 << 10);
    }

    /// Instructions are attributed to loops for Table 4's %time.
    #[test]
    fn instruction_attribution() {
        let res = profile(
            "int main() { long s; s = 0;
               for (int w = 0; w < 50; w++) { s += w; }
               #pragma candidate hot
               for (int i = 0; i < 200; i++) { s += i * i; }
               out_long(s);
               return 0; }",
        );
        let l = res.by_label("hot").unwrap();
        assert!(
            l.instructions > 1000,
            "the hot loop dominates: {}",
            l.instructions
        );
    }
}
