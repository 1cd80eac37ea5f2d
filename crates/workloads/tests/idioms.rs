//! Checks that each workload model actually exercises the privatization
//! idiom DESIGN.md claims for it — the profile must show the
//! paper-relevant structure, not just produce correct output.

use dse_analysis::PtObj;
use dse_core::{Analysis, OptLevel};
use dse_depprof::DepKind;
use dse_workloads::{by_name, Scale};

fn analysis(name: &str) -> Analysis {
    let w = by_name(name).unwrap();
    Analysis::from_source(w.source, w.vm_config(Scale::Profile)).unwrap()
}

/// dijkstra: linked-list queue nodes and annotation arrays are heap
/// structures with carried anti/output but no carried flow.
#[test]
fn dijkstra_rebuilds_heap_structures() {
    let a = analysis("dijkstra");
    let ddg = a.profile.by_label("main_loop").unwrap();
    // Sites whose expression may touch a heap object, by points-to.
    let heap_sites = ddg
        .sites
        .iter()
        .filter(|s| {
            let eid = a.serial.sites.info(s.site).eid;
            let objs = a.pt.objects_of_site(eid);
            objs.iter().any(|o| matches!(o, PtObj::Alloc(_)))
        })
        .count();
    assert!(heap_sites > 10, "queue + dist + visited traffic");
    let plan = a.plan(OptLevel::Full, 4).unwrap();
    assert!(
        plan.expanded.len() >= 4,
        "queue nodes, dist, visited must expand: {:?}",
        plan.expanded
    );
    // Every queue node is `malloc(sizeof(struct QNode))`: the node pointer
    // stays thin with a 16-byte constant span (Section 3.4); only `int *`
    // — `dist`/`visited`, sized by the input — carries a span.
    let t = a.transform(OptLevel::Full, 4).unwrap();
    let node = a.program.types.struct_by_name("QNode").unwrap();
    assert!(!plan.is_fat(&dse_lang::types::Type::Struct(node).ptr_to()));
    assert_eq!(
        plan.fat_cause_lines(&a.program),
        ["`int*`: reaches an allocation of runtime size at 26:10"]
    );
    assert_eq!(t.report.fat_pointer_types, 1);
    assert_eq!(t.report.span_stores_emitted, 3, "adj, dist, visited");
    assert_eq!(t.report.private_accesses_redirected, 96);
    // dist, visited, first, cur, item and walk are derived once per
    // assignment; `queue` has one use per assignment and stays inline.
    assert_eq!(t.report.redirections_hoisted, 23);
    assert_eq!(t.report.redirections_rederived, 1, "`walk = walk->next`");
}

/// md5: the global block buffer X is the expanded structure (Table 1's
/// global rule), and the digest scalars are classic scalar expansion.
#[test]
fn md5_expands_the_global_block_buffer() {
    let a = analysis("md5");
    let t = a.transform(OptLevel::Full, 4).unwrap();
    assert_eq!(t.report.expanded_globals, 1, "X[16]");
    assert!(t.report.expanded_scalar_locals >= 4, "a, b, c, d at least");
    assert_eq!(t.report.fat_pointer_types, 0, "no pointers need spans");
}

/// bzip2: the recast work array produces cross-width dependences and the
/// realloc'd pointer must be span-promoted.
#[test]
fn bzip2_recast_and_realloc() {
    let a = analysis("bzip2");
    let ddg = a.profile.by_label("compress_blocks").unwrap();
    // A dependence between sites of different widths: the short view
    // and the int writes of the same bytes.
    let width = |s| a.serial.sites.info(s).width;
    let recast = ddg.edges.iter().any(|e| {
        let widths = [width(e.src), width(e.dst)];
        widths.contains(&2) && widths.contains(&4)
    });
    assert!(recast, "no edge between a 2-byte and a 4-byte site");
    let plan = a.plan(OptLevel::Full, 4).unwrap();
    assert!(
        !plan.fat_types.is_empty(),
        "zptr is realloc'd: dynamic spans required"
    );
}

/// hmmer: the DP matrix pointer has carried flow (the realloc chain) while
/// its contents stay expandable — the paper's Figure 3 situation.
#[test]
fn hmmer_pointer_carried_contents_private() {
    let a = analysis("hmmer");
    let ddg = a.profile.by_label("seq_loop").unwrap();
    let cls = a.classification("seq_loop").unwrap();
    let carried_flow = ddg.sites_in_carried(&[DepKind::Flow]);
    assert!(!carried_flow.is_empty(), "mx pointer + score accumulate");
    // Expandable accesses dominate the dynamic count (Figure 8's bar).
    let b = cls.access_breakdown(ddg);
    let (_, e, _) = b.fractions();
    assert!(e > 0.3, "DP matrix traffic should be expandable: {e}");
}

/// lbm: grids stay shared (disjoint writes, downward-exposed), only the
/// small distribution scratch expands — hence only ~1-2 structures.
#[test]
fn lbm_grids_stay_shared() {
    let a = analysis("lbm");
    let t = a.transform(OptLevel::Full, 4).unwrap();
    assert!(t.report.privatized_structures() <= 2, "{:?}", t.report);
    assert_eq!(t.report.expanded_allocs, 0, "src/dst grids must not expand");
}

/// mpeg2enc: the macroblock copy is a local array (Table 1's local array
/// rule) and the loop is DOALL at level 3.
#[test]
fn mpeg2enc_local_array_scratch() {
    let a = analysis("mpeg2enc");
    let t = a.transform(OptLevel::Full, 4).unwrap();
    assert!(t.report.expanded_locals >= 1, "blk[256]");
    assert_eq!(t.report.expanded_allocs, 0, "frames stay shared");
}
