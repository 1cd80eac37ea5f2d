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
//! * per-site dynamic access counts (Figure 8's breakdown),
//! * the dynamic data structures each site touches (heap allocations by
//!   allocation site, plus global/stack regions) — used for Table 5 and to
//!   drive expansion decisions.
//!
//! Tracking is **byte-granular**, so recast buffers (the 256.bzip2 `zptr`
//! idiom, where an `int` buffer is read through a `short*`) produce correct
//! dependences.
//!
//! A profiled run should cost close to what the interpreter costs, so the
//! shadow state is laid out for the access stream rather than looked up:
//!
//! * each active loop entry shadows the address space with 4 KiB pages
//!   mapped on first touch from a direct-mapped page table; a byte's 32
//!   bytes hold its last writer, two reader slots and a handle to a spill
//!   list for more readers;
//! * an entry starts empty without clearing anything: bytes carry the
//!   epoch of the entry that wrote them, and an ended entry's pages go back
//!   to a pool, so an entry costs the pages it touched;
//! * per-site counts, regions, allocation sites, exposure flags and edges
//!   live in dense per-loop tables indexed by site id, updated once per
//!   access (a run of bytes in the same state yields its edges once) and
//!   turned into [`LoopDdg`]'s maps when the profile is finished;
//! * the downward-exposure watch is paged the same way, and the live
//!   allocation lookup keeps the last allocation it found.
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
use dse_runtime::observer::LayoutInfo;
use dse_runtime::{Allocation, Observer, Vm, VmConfig, VmError};
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// Memory region classes a site was observed touching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionMask {
    /// Touched at least one heap allocation.
    pub heap: bool,
    /// Touched the globals segment.
    pub global: bool,
    /// Touched the enclosing function's stack frame (not transient frames).
    pub stack: bool,
}

/// The profiled dependence information for one candidate loop, accumulated
/// over every dynamic entry of the loop.
#[derive(Debug, Clone, Default)]
pub struct LoopDdg {
    /// Loop label (from `#pragma candidate`).
    pub label: String,
    /// Loop id in the serial-lowered program.
    pub loop_id: u32,
    /// All observed dependence edges.
    pub edges: HashSet<DepEdge>,
    /// Sites observed performing an upwards-exposed load.
    pub upward_exposed: HashSet<SiteId>,
    /// Sites whose stored value was used after the loop.
    pub downward_exposed: HashSet<SiteId>,
    /// Dynamic access count per site.
    pub site_counts: HashMap<SiteId, u64>,
    /// Allocation-site expression ids each site dereferenced into.
    pub site_allocs: HashMap<SiteId, HashSet<u32>>,
    /// Region classes each site touched.
    pub site_regions: HashMap<SiteId, RegionMask>,
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
        let mut out = HashSet::new();
        for e in &self.edges {
            if e.carried && kinds.contains(&e.kind) {
                out.insert(e.src);
                out.insert(e.dst);
            }
        }
        out
    }

    /// All sites observed executing in the loop.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.site_counts.keys().copied()
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
    /// edges, exposure sets and per-site facts in sorted order. Two
    /// profiles of the same program on the same inputs produce identical
    /// summaries, so the artifact cache can use its hash as the profile's
    /// content fingerprint (the set/map iteration order of [`LoopDdg`] is
    /// not itself stable).
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
            let mut edges: Vec<&DepEdge> = l.edges.iter().collect();
            edges.sort();
            for e in edges {
                writeln!(
                    out,
                    "  edge {}->{} {:?} carried={}",
                    e.src, e.dst, e.kind, e.carried
                )
                .unwrap();
            }
            let mut sorted: Vec<SiteId> = l.upward_exposed.iter().copied().collect();
            sorted.sort_unstable();
            writeln!(out, "  upward={sorted:?}").unwrap();
            let mut sorted: Vec<SiteId> = l.downward_exposed.iter().copied().collect();
            sorted.sort_unstable();
            writeln!(out, "  downward={sorted:?}").unwrap();
            let mut sites: Vec<SiteId> = l.site_counts.keys().copied().collect();
            sites.sort_unstable();
            for s in sites {
                let count = l.site_counts[&s];
                let mut allocs: Vec<u32> = l
                    .site_allocs
                    .get(&s)
                    .map(|a| a.iter().copied().collect())
                    .unwrap_or_default();
                allocs.sort_unstable();
                let r = l.site_regions.get(&s).copied().unwrap_or_default();
                writeln!(
                    out,
                    "  site {s} count={count} allocs={allocs:?} heap={} global={} stack={}",
                    r.heap, r.global, r.stack
                )
                .unwrap();
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
/// space, one `Byte` per address.
const PAGE_BITS: u32 = 12;
const PAGE: usize = 1 << PAGE_BITS;

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

/// A direct-mapped table of 4 KiB pages over the address space, one `T`
/// per address, each page mapped on first touch.
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

/// One shadowed byte of one loop entry (32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Byte {
    /// The loop entry this state belongs to: a byte stamped with any other
    /// entry reads as untouched, so an entry starts empty without clearing
    /// a page.
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

/// The byte states of one loop entry, whose pages come from (and go back
/// to) the profiler's pool, so an entry costs the pages it touches, never
/// the ones before it.
#[derive(Default)]
struct Shadow {
    epoch: u32,
    bytes: Pages<Byte>,
    /// Reader lists of bytes read by more than two sites since a store.
    spill: Vec<Vec<Stamp>>,
    free_spill: Vec<u32>,
    /// Every byte this entry wrote, once (for the downward-exposure watch).
    written: Vec<u64>,
}

impl Shadow {
    /// The state of byte `addr`, which this entry wrote.
    fn byte(&self, addr: u64) -> &Byte {
        let page = self.bytes.get((addr >> PAGE_BITS) as usize);
        &page.expect("a written byte's page is mapped")[addr as usize & (PAGE - 1)]
    }

    /// Applies one access to the bytes `[addr, end)`, recording its edges
    /// and upward exposure in `acc`. A byte whose prior state equals the
    /// previous byte's yields the same edges and the same new state, so a
    /// run of equal bytes (the 8 bytes of a `long` one store wrote) costs
    /// one byte's work and copies.
    fn access(
        &mut self,
        pool: &mut Vec<Box<[Byte]>>,
        acc: &mut Accum,
        site: SiteId,
        kind: AccessKind,
        (addr, end): (u64, u64),
        iter: u32,
    ) {
        let epoch = self.epoch;
        let dep = |src: Stamp, kind| DepEdge {
            src: src.0,
            dst: site,
            kind,
            carried: src.1 != iter,
        };
        // The previous byte's state before and after this access, while
        // neither spills: a byte that starts equal ends equal.
        let mut same: Option<(Byte, Byte)> = None;
        for (page, run) in page_runs(addr, end) {
            let base = (page as u64) << PAGE_BITS;
            let Shadow {
                bytes,
                spill,
                free_spill,
                written,
                ..
            } = self;
            let page = bytes.map(page, || {
                pool.pop()
                    .unwrap_or_else(|| vec![Byte::UNTOUCHED; PAGE].into_boxed_slice())
            });
            for (off, b) in page[run.clone()].iter_mut().enumerate() {
                if b.epoch != epoch {
                    *b = Byte {
                        epoch,
                        ..Byte::UNTOUCHED
                    };
                }
                let before = *b;
                if kind == AccessKind::Store && before.write.0 == NO_SITE {
                    written.push(base + (run.start + off) as u64);
                }
                if let Some((pre, post)) = same {
                    if before == pre {
                        *b = post;
                        continue;
                    }
                }
                match kind {
                    AccessKind::Load => {
                        if b.write.0 == NO_SITE {
                            acc.upward[site as usize] = true;
                        } else {
                            acc.edge(dep(b.write, DepKind::Flow));
                        }
                        if let Some(r) = b.readers.iter_mut().find(|r| r.0 == site) {
                            r.1 = iter;
                        } else if let Some(r) = b.readers.iter_mut().find(|r| r.0 == NO_SITE) {
                            *r = (site, iter);
                        } else {
                            if b.spill == 0 {
                                b.spill = 1 + free_spill.pop().unwrap_or_else(|| {
                                    spill.push(Vec::new());
                                    spill.len() as u32 - 1
                                });
                            }
                            let list = &mut spill[b.spill as usize - 1];
                            match list.iter_mut().find(|r| r.0 == site) {
                                Some(r) => r.1 = iter,
                                None => list.push((site, iter)),
                            }
                        }
                    }
                    AccessKind::Store => {
                        if b.write.0 != NO_SITE {
                            acc.edge(dep(b.write, DepKind::Output));
                        }
                        for &r in b.readers.iter().take_while(|r| r.0 != NO_SITE) {
                            acc.edge(dep(r, DepKind::Anti));
                        }
                        if b.spill != 0 {
                            let list = &mut spill[b.spill as usize - 1];
                            for &r in list.iter() {
                                acc.edge(dep(r, DepKind::Anti));
                            }
                            list.clear();
                            free_spill.push(b.spill - 1);
                        }
                        *b = Byte {
                            epoch,
                            write: (site, iter),
                            ..Byte::UNTOUCHED
                        };
                    }
                }
                same = (before.spill == 0 && b.spill == 0).then_some((before, *b));
            }
        }
    }

    /// Ends the entry: its pages go back to `pool` (their stale epochs
    /// make them read as untouched to whichever entry maps them next).
    fn release(&mut self, pool: &mut Vec<Box<[Byte]>>) {
        self.bytes.unmap_all(|page| pool.push(page));
        self.spill.clear();
        self.free_spill.clear();
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

/// Per-site facts of one loop, dense over the program's site table.
#[derive(Clone, Default)]
struct SiteFacts {
    count: u64,
    regions: RegionMask,
    allocs: Vec<u32>,
}

/// One candidate loop's profile as its entries add to it. Every fact is a
/// union or a sum over entries, so entries record straight into it; it
/// becomes a [`LoopDdg`] once, when the profile is finished.
struct Accum {
    label: String,
    /// Edges by sink site: a sink has few distinct sources, so a short
    /// scan finds a repeat.
    edges: Vec<Vec<DepEdge>>,
    upward: Vec<bool>,
    downward: Vec<bool>,
    sites: Vec<SiteFacts>,
    iterations: u64,
    total_accesses: u64,
    instructions: u64,
}

impl Accum {
    fn new(label: String, nsites: usize) -> Accum {
        Accum {
            label,
            edges: vec![Vec::new(); nsites],
            upward: vec![false; nsites],
            downward: vec![false; nsites],
            sites: vec![SiteFacts::default(); nsites],
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

    fn into_ddg(self, loop_id: u32) -> LoopDdg {
        let marked = |flags: Vec<bool>| {
            (0..)
                .zip(flags)
                .filter_map(|(s, on)| on.then_some(s))
                .collect()
        };
        let counted = || (0..).zip(&self.sites).filter(|(_, f)| f.count > 0);
        LoopDdg {
            loop_id,
            edges: self.edges.into_iter().flatten().collect(),
            upward_exposed: marked(self.upward),
            downward_exposed: marked(self.downward),
            site_counts: counted().map(|(s, f)| (s, f.count)).collect(),
            site_allocs: counted()
                .filter(|(_, f)| !f.allocs.is_empty())
                .map(|(s, f)| (s, f.allocs.iter().copied().collect()))
                .collect(),
            site_regions: counted().map(|(s, f)| (s, f.regions)).collect(),
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
    alloc_site_eids: HashMap<u32, u32>,
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
    pool: Vec<Box<[Byte]>>,
    watch: Watch,
    /// Live allocations: base -> (size, allocation-site eid).
    live_allocs: BTreeMap<u64, (u64, u32)>,
    /// The last allocation found, `(base, end, eid)`, until the next
    /// allocation or free.
    last_alloc: Option<(u64, u64, u32)>,
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
            alloc_site_eids: program.alloc_sites.clone(),
            stack_lo: layout.master_stack.0,
            stack_hi: layout.master_stack.1,
            active: Vec::new(),
            accum: program.loops.iter().map(|_| None).collect(),
            epoch: 0,
            spare: Vec::new(),
            pool: Vec::new(),
            watch: Watch::default(),
            live_allocs: BTreeMap::new(),
            last_alloc: None,
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
            let site = al.shadow.byte(addr).write.0;
            self.watch.add(addr, al.loop_id, site);
        }
        al.shadow.release(&mut self.pool);
        self.spare.push(al.shadow);
    }

    fn allocation_of(&mut self, addr: u64) -> Option<u32> {
        if let Some((base, end, eid)) = self.last_alloc {
            if (base..end).contains(&addr) {
                return Some(eid);
            }
        }
        let (&base, &(size, eid)) = self.live_allocs.range(..=addr).next_back()?;
        let end = base + size.max(1);
        (addr < end).then(|| {
            self.last_alloc = Some((base, end, eid));
            eid
        })
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
                            acc.downward[wsite as usize] = true;
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
        let alloc = if in_stack || addr < self.stack_lo {
            None
        } else {
            self.allocation_of(addr)
        };
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
                acc.upward.resize(*nsites, false);
                acc.downward.resize(*nsites, false);
                acc.sites.resize(*nsites, SiteFacts::default());
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
            let facts = &mut acc.sites[site as usize];
            facts.count += 1;
            if in_stack {
                facts.regions.stack = true;
            } else if alloc.is_some() {
                facts.regions.heap = true;
            } else {
                facts.regions.global = true;
            }
            if let Some(eid) = alloc {
                if !facts.allocs.contains(&eid) {
                    facts.allocs.push(eid);
                }
            }
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

    fn on_alloc(&mut self, alloc: Allocation, pc: u32) {
        let eid = self
            .alloc_site_eids
            .get(&pc)
            .copied()
            .unwrap_or(dse_lang::ast::NO_EID);
        self.live_allocs.insert(alloc.base, (alloc.size, eid));
        self.last_alloc = None;
    }

    fn on_free(&mut self, alloc: Allocation) {
        self.live_allocs.remove(&alloc.base);
        self.last_alloc = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_ir::lower::LowerOptions;

    fn profile(src: &str) -> ProfileResult {
        let ast = dse_lang::compile_to_ast(src).unwrap();
        let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
        let (res, _) = profile_program(compiled, VmConfig::default()).unwrap();
        res
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
        assert!(!l.upward_exposed.is_empty());
        // `return s` reads the final value written in the loop.
        assert!(!l.downward_exposed.is_empty());
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
        assert!(l.upward_exposed.is_empty(), "{:?}", l.upward_exposed);
        assert!(l.downward_exposed.is_empty());
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
    fn heap_scratch_buffer_tracks_alloc_sites() {
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
        // The buffer accesses must be attributed to a heap allocation site.
        let heap_sites: Vec<_> = l
            .site_regions
            .iter()
            .filter(|(_, r)| r.heap)
            .map(|(s, _)| *s)
            .collect();
        assert!(!heap_sites.is_empty());
        for s in &heap_sites {
            assert!(!l.site_allocs[s].is_empty());
        }
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
        let res = profile(
            "int work(int x) { int t; t = x * 2; return t + 1; }
             int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 6; i++) { s += work(i); }
               return s; }",
        );
        let l = res.by_label("hot").unwrap();
        // `t` and `x` live in work()'s frame, created after IterStart: they
        // must not appear. Only the accumulator's sites (plus the bound
        // read) remain — no stack-region write sites besides s.
        let stack_sites = l.site_regions.values().filter(|r| r.stack).count();
        assert!(
            stack_sites <= 2,
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
        let res = profile(
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
                e.kind == DepKind::Flow
                    && e.carried
                    && l.site_regions.get(&e.dst).is_some_and(|r| r.heap)
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
            l.downward_exposed.is_empty(),
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
        let res = profile(
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
        let heap_sites: Vec<_> = l
            .site_regions
            .iter()
            .filter(|(_, r)| r.heap)
            .map(|(s, _)| *s)
            .collect();
        assert!(!heap_sites.is_empty());
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
