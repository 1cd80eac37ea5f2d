//! Randomized tests of the access-class construction (Definition 4) and
//! the thread-private test (Definition 5) over generated dependence
//! graphs, driven by the workspace's deterministic PRNG.

use dse_core::classify::{classify_loop, SiteClass, UnionFind};
use dse_depprof::{DepEdge, DepKind, LoopDdg, SiteProfile};
use dse_lang::fasthash::{HashMap, HashSet};
use dse_workloads::rng::Rng;

const NSITES: u32 = 12;
const CASES: u64 = 256;

fn gen_edge(rng: &mut Rng) -> DepEdge {
    DepEdge {
        src: rng.gen_index(NSITES as usize) as u32,
        dst: rng.gen_index(NSITES as usize) as u32,
        kind: [DepKind::Flow, DepKind::Anti, DepKind::Output][rng.gen_index(3)],
        carried: rng.gen_bool(),
    }
}

fn gen_ddg(seed: u64) -> LoopDdg {
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges: Vec<DepEdge> = (0..rng.gen_range(0, 24))
        .map(|_| gen_edge(&mut rng))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let up: HashSet<u32> = (0..rng.gen_range(0, 4))
        .map(|_| rng.gen_index(NSITES as usize) as u32)
        .collect();
    let down: HashSet<u32> = (0..rng.gen_range(0, 4))
        .map(|_| rng.gen_index(NSITES as usize) as u32)
        .collect();
    let sites = (0..NSITES).map(|site| SiteProfile {
        site,
        count: 1,
        upward: up.contains(&site),
        downward: down.contains(&site),
    });
    LoopDdg {
        label: "prop".into(),
        edges,
        sites: sites.collect(),
        ..Default::default()
    }
}

/// Reference partition: connected components over loop-independent edges,
/// computed by naive fixpoint (independent of the union-find code).
fn reference_components(ddg: &LoopDdg) -> HashMap<u32, u32> {
    let mut comp: HashMap<u32, u32> = (0..NSITES).map(|s| (s, s)).collect();
    loop {
        let mut changed = false;
        for e in &ddg.edges {
            if e.carried {
                continue;
            }
            let a = comp[&e.src];
            let b = comp[&e.dst];
            if a != b {
                let m = a.min(b);
                for v in comp.values_mut() {
                    if *v == a || *v == b {
                        *v = m;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            return comp;
        }
    }
}

/// The union-find partition equals naive connected components over
/// loop-independent dependences (Definition 4).
#[test]
fn classes_are_connected_components() {
    for case in 0..CASES {
        let ddg = gen_ddg(0xC1A5 + case);
        let cls = classify_loop(&ddg);
        let reference = reference_components(&ddg);
        let class = |s| cls.class_of(s).expect("every site is classified").sites[0];
        for a in 0..NSITES {
            for b in 0..NSITES {
                let same_ref = reference[&a] == reference[&b];
                let same_cls = class(a) == class(b);
                assert_eq!(same_ref, same_cls, "case {case}, sites {a} {b}");
            }
        }
    }
}

/// Definition 5, checked per site against the raw graph:
/// a private site's whole class has no exposed member and no carried
/// flow member, and some member carries an anti/output dependence;
/// a shared site's class violates one of the three.
#[test]
fn definition5_holds() {
    for case in 0..CASES {
        let ddg = gen_ddg(0xDEF5 + case);
        let cls = classify_loop(&ddg);
        let carried_flow = ddg.sites_in_carried(&[DepKind::Flow]);
        let carried_ao = ddg.sites_in_carried(&[DepKind::Anti, DepKind::Output]);
        // Group sites by class.
        let mut classes: HashMap<u32, Vec<u32>> = HashMap::default();
        for s in 0..NSITES {
            let class = cls.class_of(s).expect("every site is classified");
            classes.entry(class.sites[0]).or_default().push(s);
        }
        for members in classes.values() {
            let exposed = members
                .iter()
                .any(|&s| ddg.site(s).is_some_and(|s| s.upward || s.downward));
            let has_cf = members.iter().any(|s| carried_flow.contains(s));
            let has_cao = members.iter().any(|s| carried_ao.contains(s));
            let should_be_private = !exposed && !has_cf && has_cao;
            for s in members {
                assert_eq!(
                    cls.is_private(*s),
                    should_be_private,
                    "case {case}, site {s} in class {members:?}"
                );
            }
        }
    }
}

/// Mode selection: DOACROSS exactly when some shared site carries a
/// dependence; and every site the classifier calls shared-carried
/// really is shared and really carries.
#[test]
fn mode_matches_shared_carried() {
    for case in 0..CASES {
        let ddg = gen_ddg(0x30DE + case);
        let cls = classify_loop(&ddg);
        let carried: HashSet<u32> =
            ddg.sites_in_carried(&[DepKind::Flow, DepKind::Anti, DepKind::Output]);
        let expect_doacross = carried
            .iter()
            .any(|s| cls.class_of(*s).unwrap().verdict == SiteClass::Shared);
        assert_eq!(
            cls.mode == dse_ir::loops::ParMode::DoAcross,
            expect_doacross,
            "case {case}"
        );
        for s in cls.shared_carried_sites() {
            assert!(carried.contains(&s), "case {case}");
            assert_eq!(
                cls.class_of(s).unwrap().verdict,
                SiteClass::Shared,
                "case {case}"
            );
        }
    }
}

/// Naive partition oracle for the union-find properties: merge by
/// relabelling, no trees involved.
#[derive(Clone, PartialEq, Eq)]
struct NaivePartition(HashMap<u32, u32>);

impl NaivePartition {
    fn new(n: u32) -> Self {
        NaivePartition((0..n).map(|s| (s, s)).collect())
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.0[&a], self.0[&b]);
        for v in self.0.values_mut() {
            if *v == rb {
                *v = ra;
            }
        }
    }
    fn same(&self, a: u32, b: u32) -> bool {
        self.0[&a] == self.0[&b]
    }
}

fn gen_unions(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..rng.gen_range(0, 30))
        .map(|_| {
            (
                rng.gen_index(NSITES as usize) as u32,
                rng.gen_index(NSITES as usize) as u32,
            )
        })
        .collect()
}

/// After any union sequence, `find` agrees with the naive oracle on every
/// same-class query, and is idempotent (path compression included).
#[test]
fn union_find_matches_naive_partition() {
    for case in 0..CASES {
        let pairs = gen_unions(0x0F1D + case);
        let mut uf = UnionFind::new();
        let mut oracle = NaivePartition::new(NSITES);
        for &(a, b) in &pairs {
            uf.union(a, b);
            oracle.union(a, b);
        }
        for a in 0..NSITES {
            let r = uf.find(a);
            assert_eq!(uf.find(a), r, "case {case}: find is idempotent");
            assert_eq!(uf.find(r), r, "case {case}: roots are fixpoints");
            for b in 0..NSITES {
                assert_eq!(
                    uf.find(a) == uf.find(b),
                    oracle.same(a, b),
                    "case {case}, sites {a} {b}"
                );
            }
        }
    }
}

/// The partition is insensitive to argument order and to the order unions
/// are applied in (commutativity and associativity of the merge).
#[test]
fn union_is_commutative_and_associative() {
    for case in 0..CASES {
        let pairs = gen_unions(0xACC0 + case);
        let mut forward = UnionFind::new();
        for &(a, b) in &pairs {
            forward.union(a, b);
        }
        let mut swapped_reversed = UnionFind::new();
        for &(a, b) in pairs.iter().rev() {
            swapped_reversed.union(b, a);
        }
        for a in 0..NSITES {
            for b in 0..NSITES {
                assert_eq!(
                    forward.find(a) == forward.find(b),
                    swapped_reversed.find(a) == swapped_reversed.find(b),
                    "case {case}, sites {a} {b}"
                );
            }
        }
    }
}

/// The Figure-8 breakdown partitions the dynamic accesses exactly.
#[test]
fn breakdown_partitions_counts() {
    for case in 0..CASES {
        let ddg = gen_ddg(0xB4EA + case);
        let cls = classify_loop(&ddg);
        let b = cls.access_breakdown(&ddg);
        let total: u64 = ddg.sites.iter().map(|s| s.count).sum();
        assert_eq!(b.total(), total, "case {case}");
    }
}

/// The union-find as it stood keyed by a hash map: the reference the dense
/// parent vector must agree with, representative for representative.
#[derive(Default)]
struct MapUnionFind(HashMap<u32, u32>);

impl MapUnionFind {
    fn find(&mut self, x: u32) -> u32 {
        let p = *self.0.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.0.insert(x, root);
        root
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0.insert(ra, rb);
        }
    }
}

/// On every candidate loop of the eight workloads, the same finds and
/// unions give every site the same representative under both
/// union-finds, and `classify_loop` puts it in the class named by the
/// smallest site of its reference component: the partitions are equal.
#[test]
fn union_find_matches_a_map_reference_on_workload_ddgs() {
    let mut loops = 0;
    for w in dse_workloads::all() {
        let analysis =
            dse_core::Analysis::from_source(w.source, w.vm_config(dse_workloads::Scale::Profile))
                .unwrap();
        for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
            let (mut dense, mut reference) = (UnionFind::new(), MapUnionFind::default());
            for s in ddg.sites.iter().map(|s| s.site) {
                assert_eq!(dense.find(s), reference.find(s));
            }
            for e in ddg.edges.iter().filter(|e| !e.carried) {
                dense.union(e.src, e.dst);
                reference.union(e.src, e.dst);
            }
            let mut smallest: HashMap<u32, u32> = HashMap::default();
            for s in ddg.sites.iter().map(|s| s.site) {
                let rep = reference.find(s);
                assert_eq!(dense.find(s), rep, "{}: site {s}", ddg.label);
                let least = smallest.entry(rep).or_insert(s);
                *least = (*least).min(s);
            }
            for s in ddg.sites.iter().map(|s| s.site) {
                let named = cls.class_of(s).expect("every site is classified").sites[0];
                assert_eq!(
                    named,
                    smallest[&reference.find(s)],
                    "{}: class of site {s}",
                    ddg.label
                );
            }
            loops += 1;
        }
    }
    assert!(loops >= 8, "every workload has a candidate loop");
}
