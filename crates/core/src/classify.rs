//! Access classes (Definition 4) and thread-private classification
//! (Definition 5).
//!
//! Loop-independent dependences are treated as an equivalence relation: its
//! classes partition the loop's memory accesses, and a whole class is
//! *thread-private* iff
//!
//! 1. no member is an upwards-exposed load or a downwards-exposed store,
//! 2. no member is involved in a loop-carried flow dependence, and
//! 3. at least one member is involved in a loop-carried anti- or output
//!    dependence.
//!
//! Everything else is *shared*. The classification also decides the
//! parallelization mode: a loop whose shared accesses still carry
//! dependences needs DOACROSS ordering; otherwise it is DOALL.

use dse_depprof::{DepKind, LoopDdg};
use dse_ir::loops::ParMode;
use dse_ir::sites::{SiteId, SiteTable};
use dse_lang::ast::NO_EID;
use dse_lang::fasthash::{HashMap, HashSet};

/// Union-find over site ids: a parent vector indexed by site, grown to the
/// largest site it has seen. Site ids index the program's site table, so
/// it stays as dense as that table.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<SiteId>,
}

impl UnionFind {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds the representative of `x` (path-compressing).
    pub fn find(&mut self, x: SiteId) -> SiteId {
        if x as usize >= self.parent.len() {
            let next = self.parent.len() as SiteId;
            self.parent.extend(next..=x);
        }
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut at = x;
        while at != root {
            at = std::mem::replace(&mut self.parent[at as usize], root);
        }
        root
    }

    /// Merges the classes of `a` and `b`.
    pub fn union(&mut self, a: SiteId, b: SiteId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// How a site's access class was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// Member of a thread-private access class: redirected to the current
    /// thread's copy.
    Private,
    /// Shared access: goes to copy 0.
    Shared,
}

/// One access class (Definition 4) and its verdict (Definition 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessClass {
    /// Member sites, ascending; the first names the class.
    pub sites: Vec<SiteId>,
    /// The members involved in a loop-carried dependence, ascending: empty
    /// when the class carries none.
    pub carried: Vec<SiteId>,
    /// Definition 5's verdict, shared by every member.
    pub verdict: SiteClass,
}

/// The classification of one candidate loop's accesses.
#[derive(Debug, Clone)]
pub struct LoopClassification {
    /// Loop label, for printing.
    pub label: String,
    /// The loop's access classes, in order of their first site.
    pub classes: Vec<AccessClass>,
    /// Chosen parallelization mode.
    pub mode: ParMode,
}

impl LoopClassification {
    /// The class a site belongs to, if the loop accessed it.
    pub fn class_of(&self, site: SiteId) -> Option<&AccessClass> {
        let has = |c: &&AccessClass| c.sites.binary_search(&site).is_ok();
        self.classes.iter().find(has)
    }

    /// The private sites.
    pub fn private_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.classes
            .iter()
            .filter(|c| c.verdict == SiteClass::Private)
            .flat_map(|c| c.sites.iter().copied())
    }

    /// Shared sites involved in loop-carried dependences: they force
    /// DOACROSS ordering and define the synchronized region.
    pub fn shared_carried_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.classes
            .iter()
            .filter(|c| c.verdict == SiteClass::Shared)
            .flat_map(|c| c.carried.iter().copied())
    }

    /// True if the given site is classified private.
    pub fn is_private(&self, site: SiteId) -> bool {
        self.class_of(site)
            .is_some_and(|c| c.verdict == SiteClass::Private)
    }

    /// Figure 8 breakdown of this loop's *dynamic* accesses:
    /// `(free_of_carried, expandable, with_carried)` fractions of the total.
    pub fn access_breakdown(&self, ddg: &LoopDdg) -> AccessBreakdown {
        let mut b = AccessBreakdown::default();
        for class in &self.classes {
            for site in &class.sites {
                let count = ddg.site(*site).map_or(0, |s| s.count);
                if class.carried.binary_search(site).is_err() {
                    b.free += count;
                } else if class.verdict == SiteClass::Private {
                    b.expandable += count;
                } else {
                    b.carried += count;
                }
            }
        }
        b
    }
}

/// Dynamic-access breakdown in the categories of the paper's Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessBreakdown {
    /// Accesses free of any loop-carried dependence.
    pub free: u64,
    /// Accesses in thread-private (expandable) classes.
    pub expandable: u64,
    /// Remaining accesses involved in loop-carried dependences.
    pub carried: u64,
}

impl AccessBreakdown {
    /// Total dynamic accesses.
    pub fn total(&self) -> u64 {
        self.free + self.expandable + self.carried
    }

    /// `(free, expandable, carried)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.free as f64 / t,
            self.expandable as f64 / t,
            self.carried as f64 / t,
        )
    }
}

/// Classifies one loop's DDG per Definitions 4 and 5.
pub fn classify_loop(ddg: &LoopDdg) -> LoopClassification {
    // 1. Access classes: union over loop-independent dependences.
    let mut uf = UnionFind::new();
    for e in ddg.edges.iter().filter(|e| !e.carried) {
        uf.union(e.src, e.dst);
    }
    let mut of_rep: HashMap<SiteId, u32> = HashMap::default();
    let mut classes: Vec<AccessClass> = Vec::new();
    // Per class: a member is upwards- or downwards-exposed.
    let mut exposed: Vec<bool> = Vec::new();
    for s in &ddg.sites {
        let at = *of_rep.entry(uf.find(s.site)).or_insert_with(|| {
            classes.push(AccessClass {
                sites: Vec::new(),
                carried: Vec::new(),
                verdict: SiteClass::Shared,
            });
            exposed.push(false);
            classes.len() as u32 - 1
        });
        classes[at as usize].sites.push(s.site);
        exposed[at as usize] |= s.upward || s.downward;
    }
    // 2. Definition 5, per class.
    let carried_flow = ddg.sites_in_carried(&[DepKind::Flow]);
    let carried_anti_out = ddg.sites_in_carried(&[DepKind::Anti, DepKind::Output]);
    for (class, exposed) in classes.iter_mut().zip(exposed) {
        let any_in = |set: &HashSet<SiteId>| class.sites.iter().any(|s| set.contains(s));
        if !exposed && !any_in(&carried_flow) && any_in(&carried_anti_out) {
            class.verdict = SiteClass::Private;
        }
        let carried = |s: &&SiteId| carried_flow.contains(s) || carried_anti_out.contains(s);
        class.carried = class.sites.iter().filter(carried).copied().collect();
    }
    // 3. Mode: shared sites still carrying dependences force DOACROSS.
    let ordered = |c: &AccessClass| c.verdict == SiteClass::Shared && !c.carried.is_empty();
    let mode = if classes.iter().any(ordered) {
        ParMode::DoAcross
    } else {
        ParMode::DoAll
    };
    LoopClassification {
        label: ddg.label.clone(),
        classes,
        mode,
    }
}

/// How the classified loops judged one source access (an expression id):
/// the candidate position of the first loop that found one of its sites
/// private, and of the first that found one shared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EidVerdict {
    /// First loop with a private site of this eid.
    pub private_in: Option<u32>,
    /// First loop with a shared site of this eid.
    pub shared_in: Option<u32>,
}

impl EidVerdict {
    /// `(private_in, shared_in)` when both exist: no single expansion plan
    /// satisfies both loops.
    pub fn conflict(&self) -> Option<(u32, u32)> {
        Some((self.private_in?, self.shared_in?))
    }
}

/// The per-eid verdict table across loops, indexed by expression id:
/// `loops` yields each classified loop with its candidate position, in
/// position order, and `sites` maps its sites to eids.
pub fn eid_verdicts<'a>(
    sites: &SiteTable,
    loops: impl IntoIterator<Item = (u32, &'a LoopClassification)>,
) -> Vec<EidVerdict> {
    let mut table: Vec<EidVerdict> = Vec::new();
    for (position, cls) in loops {
        for class in &cls.classes {
            let eids = class.sites.iter().map(|&s| sites.info(s).eid as usize);
            for eid in eids.filter(|&e| e != NO_EID as usize) {
                if eid >= table.len() {
                    table.resize(eid + 1, EidVerdict::default());
                }
                let first = match class.verdict {
                    SiteClass::Private => &mut table[eid].private_in,
                    SiteClass::Shared => &mut table[eid].shared_in,
                };
                first.get_or_insert(position);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_depprof::{DepEdge, SiteProfile};

    fn edge(src: SiteId, dst: SiteId, kind: DepKind, carried: bool) -> DepEdge {
        DepEdge {
            src,
            dst,
            kind,
            carried,
        }
    }

    fn ddg_with(
        mut edges: Vec<DepEdge>,
        sites: &[SiteId],
        up: &[SiteId],
        down: &[SiteId],
    ) -> LoopDdg {
        edges.sort_unstable();
        let sites = sites.iter().map(|&site| SiteProfile {
            site,
            count: 10,
            upward: up.contains(&site),
            downward: down.contains(&site),
        });
        LoopDdg {
            label: "t".into(),
            edges,
            sites: sites.collect(),
            ..Default::default()
        }
    }

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new();
        uf.union(1, 2);
        uf.union(2, 3);
        assert_eq!(uf.find(1), uf.find(3));
        assert_ne!(uf.find(1), uf.find(4));
    }

    /// The paper's canonical privatizable pattern: write (0) then read (1)
    /// each iteration -> independent flow 0->1, carried anti 1->0, carried
    /// output 0->0.
    #[test]
    fn scratch_class_is_private() {
        let ddg = ddg_with(
            vec![
                edge(0, 1, DepKind::Flow, false),
                edge(1, 0, DepKind::Anti, true),
                edge(0, 0, DepKind::Output, true),
            ],
            &[0, 1],
            &[],
            &[],
        );
        let c = classify_loop(&ddg);
        assert!(c.is_private(0));
        assert!(c.is_private(1));
        assert_eq!(c.mode, ParMode::DoAll);
    }

    /// An accumulator: carried flow makes the class shared and the loop
    /// DOACROSS.
    #[test]
    fn accumulator_class_is_shared_doacross() {
        let ddg = ddg_with(
            vec![
                edge(0, 1, DepKind::Flow, true),
                edge(1, 0, DepKind::Anti, true),
                edge(0, 0, DepKind::Output, true),
                edge(0, 1, DepKind::Flow, false),
            ],
            &[0, 1],
            &[1],
            &[0],
        );
        let c = classify_loop(&ddg);
        assert!(!c.is_private(0));
        assert!(!c.is_private(1));
        assert_eq!(c.mode, ParMode::DoAcross);
        assert!(c.shared_carried_sites().any(|s| s == 0));
    }

    /// Condition 1: an upwards-exposed load poisons its whole class.
    #[test]
    fn exposure_poisons_class() {
        let ddg = ddg_with(
            vec![
                edge(0, 1, DepKind::Flow, false),
                edge(1, 0, DepKind::Anti, true),
                edge(0, 0, DepKind::Output, true),
            ],
            &[0, 1],
            &[1],
            &[],
        );
        let c = classify_loop(&ddg);
        assert!(
            !c.is_private(0),
            "exposure of the load poisons the store too"
        );
        assert!(!c.is_private(1));
    }

    /// Condition 3: a class with no carried anti/output at all has nothing
    /// to expand (no contention) — not private.
    #[test]
    fn read_only_class_is_shared_but_loop_doall() {
        let ddg = ddg_with(vec![], &[5], &[5], &[]);
        let c = classify_loop(&ddg);
        assert!(!c.is_private(5));
        assert_eq!(c.mode, ParMode::DoAll, "read-only loops stay DOALL");
    }

    /// The paper's L1-L4 example: an ambiguous store makes one class with a
    /// private-looking and a shared-looking access; the equivalence forces a
    /// single decision.
    #[test]
    fn transitive_merge_through_independent_deps() {
        // Sites: 0 = *p store, 1 = a[i] load of *p (independent flow),
        // 2 = a[i] store with carried flow to 3.
        let ddg = ddg_with(
            vec![
                edge(0, 1, DepKind::Flow, false),
                edge(2, 1, DepKind::Output, false), // merges 2 into the class
                edge(2, 3, DepKind::Flow, true),
                edge(0, 0, DepKind::Output, true),
            ],
            &[0, 1, 2, 3],
            &[],
            &[],
        );
        let c = classify_loop(&ddg);
        // 0,1,2 share a class; 2 has carried flow -> all shared.
        assert!(!c.is_private(0));
        assert!(!c.is_private(1));
        assert!(!c.is_private(2));
    }

    #[test]
    fn breakdown_fractions() {
        let mut ddg = ddg_with(
            vec![
                edge(0, 1, DepKind::Flow, false),
                edge(1, 0, DepKind::Anti, true),
                edge(0, 0, DepKind::Output, true),
                edge(2, 3, DepKind::Flow, true),
            ],
            &[0, 1, 2, 3, 4],
            &[],
            &[],
        );
        ddg.sites[4].count = 70; // free site
        let c = classify_loop(&ddg);
        let b = c.access_breakdown(&ddg);
        assert_eq!(b.free, 70);
        assert_eq!(b.expandable, 20); // sites 0,1 at 10 each
        assert_eq!(b.carried, 20); // sites 2,3
        let (f, e, cr) = b.fractions();
        assert!((f - 70.0 / 110.0).abs() < 1e-9);
        assert!((e - 20.0 / 110.0).abs() < 1e-9);
        assert!((cr - 20.0 / 110.0).abs() < 1e-9);
    }
}
