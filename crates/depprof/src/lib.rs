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
//! Two filters mirror how the transformed program will actually run:
//!
//! * Accesses to call frames created *after* the current iteration started
//!   are ignored: those frames live on per-thread stacks in the parallel
//!   execution, so they cannot carry cross-thread dependences.
//! * Accesses to the candidate loop's own induction variable are ignored:
//!   parallel lowering turns it into a scheduler-provided index.

use dse_ir::bytecode::{CompiledProgram, LoopEvent};
use dse_ir::sites::{AccessKind, SiteId};
use dse_runtime::observer::LayoutInfo;
use dse_runtime::{Allocation, Observer, Vm, VmConfig, VmError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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
// the profiler
// ---------------------------------------------------------------------------

/// Shadow state keyed by byte address. Every access probes these maps once
/// per byte, so they hash with one multiply instead of SipHash; results do
/// not depend on iteration order (std's `RandomState` already reseeds per
/// process).
type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// One odd-constant multiply, then a rotate that brings the product's high
/// bits — the ones that depend on every address bit — down to where
/// hashbrown takes its bucket index, so power-of-two strides do not
/// cluster (the finish of rustc-hash 2).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("AddrMap keys are u64 addresses");
    }
    fn write_u64(&mut self, addr: u64) {
        self.0 = addr.wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Debug, Clone, Default)]
struct ByteState {
    /// Last write to this byte: (site, iteration).
    last_write: Option<(SiteId, u32)>,
    /// Reads since the last write, deduped by site (latest iteration kept).
    readers: Vec<(SiteId, u32)>,
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
    bytes: AddrMap<ByteState>,
    ddg: LoopDdg,
}

/// Observer implementation that builds loop-level DDGs.
pub struct Profiler {
    loops_meta: Vec<(String, u32, u8)>,
    alloc_site_eids: HashMap<u32, u32>,
    stack_lo: u64,
    stack_hi: u64,
    active: Vec<ActiveLoop>,
    accum: HashMap<u32, LoopDdg>,
    /// Bytes whose last in-loop writer is watched for downward exposure.
    after_watch: AddrMap<Vec<(u32, SiteId)>>,
    /// Live allocations: base -> (size, id, allocation-site eid).
    live_allocs: BTreeMap<u64, (u64, u64, u32)>,
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
            alloc_site_eids: program.alloc_sites.clone(),
            stack_lo: layout.master_stack.0,
            stack_hi: layout.master_stack.1,
            active: Vec::new(),
            accum: HashMap::new(),
            after_watch: AddrMap::default(),
            live_allocs: BTreeMap::new(),
        }
    }

    /// Finalizes the profile.
    pub fn into_result(mut self) -> ProfileResult {
        while let Some(al) = self.active.pop() {
            Self::fold_loop(&mut self.accum, &mut self.after_watch, al);
        }
        let mut loops: Vec<LoopDdg> = self.accum.into_values().collect();
        loops.retain(|l| !l.label.is_empty());
        loops.sort_by_key(|l| l.loop_id);
        ProfileResult { loops }
    }

    fn fold_loop(
        accum: &mut HashMap<u32, LoopDdg>,
        after_watch: &mut AddrMap<Vec<(u32, SiteId)>>,
        al: ActiveLoop,
    ) {
        for (addr, st) in &al.bytes {
            if let Some((site, _)) = st.last_write {
                after_watch
                    .entry(*addr)
                    .or_default()
                    .push((al.loop_id, site));
            }
        }
        let entry = accum.entry(al.loop_id).or_default();
        entry.label = al.ddg.label.clone();
        entry.loop_id = al.loop_id;
        entry.edges.extend(al.ddg.edges);
        entry.upward_exposed.extend(al.ddg.upward_exposed);
        entry.downward_exposed.extend(al.ddg.downward_exposed);
        for (s, c) in al.ddg.site_counts {
            *entry.site_counts.entry(s).or_default() += c;
        }
        for (s, a) in al.ddg.site_allocs {
            entry.site_allocs.entry(s).or_default().extend(a);
        }
        for (s, r) in al.ddg.site_regions {
            let e = entry.site_regions.entry(s).or_default();
            e.heap |= r.heap;
            e.global |= r.global;
            e.stack |= r.stack;
        }
        entry.iterations += al.iter as u64;
        entry.total_accesses += al.ddg.total_accesses;
        entry.instructions += al.ddg.instructions;
    }

    fn allocation_of(&self, addr: u64) -> Option<(u64, u64, u32)> {
        let (&base, &(size, id, eid)) = self.live_allocs.range(..=addr).next_back()?;
        (addr < base + size.max(1)).then_some((base, id, eid))
    }
}

impl Observer for Profiler {
    fn on_access(&mut self, site: SiteId, kind: AccessKind, addr: u64, width: u32, _sp: u64) {
        // Downward-exposure watch (applies after loop entries ended).
        if !self.after_watch.is_empty() {
            match kind {
                AccessKind::Load => {
                    for b in addr..addr + width as u64 {
                        if let Some(watchers) = self.after_watch.get(&b) {
                            for (loop_id, wsite) in watchers.clone() {
                                self.accum
                                    .entry(loop_id)
                                    .or_default()
                                    .downward_exposed
                                    .insert(wsite);
                            }
                        }
                    }
                }
                AccessKind::Store => {
                    for b in addr..addr + width as u64 {
                        self.after_watch.remove(&b);
                    }
                }
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
        for al in &mut self.active {
            let (ilo, ihi) = al.ind_range;
            if addr < ihi && addr + width as u64 > ilo {
                continue; // the loop's own induction variable
            }
            if in_stack && addr >= al.iter_sp {
                continue; // transient frame: thread-private at runtime
            }
            *al.ddg.site_counts.entry(site).or_default() += 1;
            al.ddg.total_accesses += 1;
            let region = al.ddg.site_regions.entry(site).or_default();
            if in_stack {
                region.stack = true;
            } else if alloc.is_some() {
                region.heap = true;
            } else {
                region.global = true;
            }
            if let Some((_, _, eid)) = alloc {
                al.ddg.site_allocs.entry(site).or_default().insert(eid);
            }
            let iter = al.iter;
            for b in addr..addr + width as u64 {
                let st = al.bytes.entry(b).or_default();
                match kind {
                    AccessKind::Load => {
                        match st.last_write {
                            None => {
                                al.ddg.upward_exposed.insert(site);
                            }
                            Some((wsite, witer)) => {
                                al.ddg.edges.insert(DepEdge {
                                    src: wsite,
                                    dst: site,
                                    kind: DepKind::Flow,
                                    carried: witer != iter,
                                });
                            }
                        }
                        match st.readers.iter_mut().find(|(s, _)| *s == site) {
                            Some(r) => r.1 = iter,
                            None => st.readers.push((site, iter)),
                        }
                    }
                    AccessKind::Store => {
                        if let Some((wsite, witer)) = st.last_write {
                            al.ddg.edges.insert(DepEdge {
                                src: wsite,
                                dst: site,
                                kind: DepKind::Output,
                                carried: witer != iter,
                            });
                        }
                        for &(rsite, riter) in &st.readers {
                            al.ddg.edges.insert(DepEdge {
                                src: rsite,
                                dst: site,
                                kind: DepKind::Anti,
                                carried: riter != iter,
                            });
                        }
                        st.readers.clear();
                        st.last_write = Some((site, iter));
                    }
                }
            }
        }
    }

    fn on_loop(&mut self, ev: LoopEvent, loop_id: u32, sp: u64, work: u64) {
        match ev {
            LoopEvent::Begin => {
                // `sp` is the enclosing frame base for Begin events.
                let (label, ind_off, ind_w) = self.loops_meta[loop_id as usize].clone();
                let ind_lo = sp + ind_off as u64;
                self.active.push(ActiveLoop {
                    loop_id,
                    iter: 0,
                    iter_sp: u64::MAX,
                    ind_range: (ind_lo, ind_lo + ind_w as u64),
                    begin_work: work,
                    bytes: AddrMap::default(),
                    ddg: LoopDdg {
                        label,
                        loop_id,
                        ..Default::default()
                    },
                });
            }
            LoopEvent::IterStart => {
                if let Some(al) = self.active.iter_mut().rev().find(|a| a.loop_id == loop_id) {
                    al.iter += 1;
                    al.iter_sp = sp;
                }
            }
            LoopEvent::End => {
                while let Some(mut al) = self.active.pop() {
                    let id = al.loop_id;
                    al.ddg.instructions += work.saturating_sub(al.begin_work);
                    Self::fold_loop(&mut self.accum, &mut self.after_watch, al);
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
        self.live_allocs
            .insert(alloc.base, (alloc.size, alloc.id, eid));
    }

    fn on_free(&mut self, alloc: Allocation) {
        self.live_allocs.remove(&alloc.base);
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

    /// hashbrown indexes buckets with the hash's low bits: addresses a
    /// power-of-two stride apart must still spread over them (a uniform
    /// random hash fills ~647 of 1024; the multiply without the rotate
    /// fills 1 from stride 1024 up).
    #[test]
    fn addr_hasher_spreads_power_of_two_strides() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<AddrHasher>::default();
        for shift in [0, 1, 3, 4, 10, 12, 16, 20, 32] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|i| build.hash_one(0x10_0000 + (i << shift)) & 1023)
                .collect();
            assert!(
                buckets.len() > 400,
                "stride 1<<{shift}: {} of 1024",
                buckets.len()
            );
        }
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
