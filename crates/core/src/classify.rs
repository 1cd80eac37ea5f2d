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
use dse_ir::sites::SiteId;
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

/// The classification of one candidate loop's accesses.
#[derive(Debug, Clone)]
pub struct LoopClassification {
    /// Loop label.
    pub label: String,
    /// Class representative for each site.
    pub class_of: HashMap<SiteId, SiteId>,
    /// Classification per site.
    pub site_class: HashMap<SiteId, SiteClass>,
    /// Sites involved in *any* loop-carried dependence.
    pub carried_sites: HashSet<SiteId>,
    /// Shared sites involved in loop-carried dependences — these force
    /// DOACROSS ordering and define the synchronized region.
    pub shared_carried_sites: HashSet<SiteId>,
    /// Chosen parallelization mode.
    pub mode: ParMode,
}

impl LoopClassification {
    /// The private sites.
    pub fn private_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.site_class
            .iter()
            .filter(|(_, c)| **c == SiteClass::Private)
            .map(|(s, _)| *s)
    }

    /// True if the given site is classified private.
    pub fn is_private(&self, site: SiteId) -> bool {
        self.site_class.get(&site) == Some(&SiteClass::Private)
    }

    /// Figure 8 breakdown of this loop's *dynamic* accesses:
    /// `(free_of_carried, expandable, with_carried)` fractions of the total.
    pub fn access_breakdown(&self, ddg: &LoopDdg) -> AccessBreakdown {
        let mut free = 0u64;
        let mut expandable = 0u64;
        let mut carried = 0u64;
        for (site, count) in &ddg.site_counts {
            if !self.carried_sites.contains(site) {
                free += count;
            } else if self.is_private(*site) {
                expandable += count;
            } else {
                carried += count;
            }
        }
        AccessBreakdown {
            free,
            expandable,
            carried,
        }
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
    for site in ddg.site_counts.keys() {
        uf.find(*site);
    }
    for e in &ddg.edges {
        if !e.carried {
            uf.union(e.src, e.dst);
        }
    }
    // 2. Gather per-class facts.
    let all_sites: Vec<SiteId> = ddg.site_counts.keys().copied().collect();
    let carried_flow = ddg.sites_in_carried(&[DepKind::Flow]);
    let carried_anti_out = ddg.sites_in_carried(&[DepKind::Anti, DepKind::Output]);
    let carried_sites: HashSet<SiteId> = carried_flow.union(&carried_anti_out).copied().collect();

    #[derive(Default)]
    struct ClassFacts {
        exposed: bool,
        carried_flow: bool,
        carried_anti_out: bool,
    }
    let mut facts: HashMap<SiteId, ClassFacts> = HashMap::default();
    for &s in &all_sites {
        let rep = uf.find(s);
        let f = facts.entry(rep).or_default();
        if ddg.upward_exposed.contains(&s) || ddg.downward_exposed.contains(&s) {
            f.exposed = true;
        }
        if carried_flow.contains(&s) {
            f.carried_flow = true;
        }
        if carried_anti_out.contains(&s) {
            f.carried_anti_out = true;
        }
    }
    // 3. Definition 5.
    let mut class_of = HashMap::default();
    let mut site_class = HashMap::default();
    for &s in &all_sites {
        let rep = uf.find(s);
        class_of.insert(s, rep);
        let f = &facts[&rep];
        let private = !f.exposed && !f.carried_flow && f.carried_anti_out;
        site_class.insert(
            s,
            if private {
                SiteClass::Private
            } else {
                SiteClass::Shared
            },
        );
    }
    // 4. Mode: shared sites still carrying dependences force DOACROSS.
    let shared_carried_sites: HashSet<SiteId> = carried_sites
        .iter()
        .filter(|s| site_class.get(s) == Some(&SiteClass::Shared))
        .copied()
        .collect();
    let mode = if shared_carried_sites.is_empty() {
        ParMode::DoAll
    } else {
        ParMode::DoAcross
    };
    LoopClassification {
        label: ddg.label.clone(),
        class_of,
        site_class,
        carried_sites,
        shared_carried_sites,
        mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_depprof::DepEdge;

    fn edge(src: SiteId, dst: SiteId, kind: DepKind, carried: bool) -> DepEdge {
        DepEdge {
            src,
            dst,
            kind,
            carried,
        }
    }

    fn ddg_with(edges: Vec<DepEdge>, sites: &[SiteId], up: &[SiteId], down: &[SiteId]) -> LoopDdg {
        LoopDdg {
            label: "t".into(),
            edges: edges.into_iter().collect(),
            upward_exposed: up.iter().copied().collect(),
            downward_exposed: down.iter().copied().collect(),
            site_counts: sites.iter().map(|s| (*s, 10)).collect(),
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
        assert!(c.shared_carried_sites.contains(&0));
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
        ddg.site_counts.insert(4, 70); // free site
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
