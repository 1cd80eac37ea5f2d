//! Mutation smoke tests for the backend verifier: each seeded miscompile
//! from [`dse_verify::sabotage`] must be caught, and caught as exactly the
//! lint code that owns the property it breaks — the cascade (structural
//! before flow, bounds before dataflow, register checks before translation
//! validation) is what keeps one mutation from drowning the report in
//! downstream noise.

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::{Place, RInstr, RegProgram};
use dse_runtime::VmConfig;
use dse_verify::diag::{Code, Severity};
use dse_verify::sabotage;

/// The CLI's fixture, which documents the mutation site it offers each
/// kind: the serial program for the stack-side kinds and the promoted
/// narrow stores, its transformed form for everything an outlined body is
/// needed for.
const SOURCE: &str = include_str!("../../server/tests/fixtures/backend_promote.cee");

/// (serial, transformed for two threads), each with its translation.
fn compiled() -> [(CompiledProgram, RegProgram); 2] {
    let analysis = Analysis::from_source(SOURCE, VmConfig::default()).expect("fixture analyzes");
    let parallel = analysis
        .transform(OptLevel::Full, 2)
        .expect("fixture transforms")
        .parallel;
    [analysis.serial.clone(), parallel].map(|prog| {
        let rp = dse_ir::regcode::translate(&prog).expect("fixture translates");
        (prog, rp)
    })
}

#[test]
fn fixture_is_clean_before_sabotage() {
    let [(_, serial), (parallel, rp)] = compiled();
    for (prog, rp) in &compiled() {
        let report = dse_verify::check_backend(prog, rp);
        assert!(
            report.diagnostics.is_empty(),
            "fixture must verify clean:\n{}",
            report.render_text()
        );
    }
    // Every mutation site the kinds below rely on must actually exist.
    assert!(
        serial.promo.places.iter().any(|p| !p.is_empty()),
        "fixture must promote scalars"
    );
    let has = |f: fn(&RInstr) -> bool| rp.code.iter().any(f);
    assert!(
        has(|i| matches!(i, RInstr::LdTid { site, .. } if *site != dse_ir::NO_SITE))
            && has(|i| matches!(i, RInstr::StTid { site, .. } if *site != dse_ir::NO_SITE)),
        "fixture must fuse a tid load and a tid store of a replica left in memory"
    );
    let body = &rp.promo.places[parallel.funcs.len()];
    assert!(
        body.iter()
            .any(|p| matches!(p.place, Place::FrameTid { .. }) && p.write_back),
        "fixture must write a promoted replica back: {body:?}"
    );
    assert!(
        body.iter()
            .any(|p| matches!(p.place, Place::Frame(_)) && p.entry_load),
        "fixture must load a loop-invariant scalar at the body's entry: {body:?}"
    );
}

#[test]
fn each_sabotage_fires_exactly_its_code() {
    let programs = compiled();
    for kind in sabotage::ALL {
        // The first of the two programs that offers a site, as the CLI does.
        let report = programs
            .iter()
            .find_map(|(prog, rp)| {
                if kind.is_stack() {
                    let mut p = prog.clone();
                    sabotage::sabotage_stack(&mut p, kind)
                        .then(|| dse_verify::check_backend(&p, rp))
                } else {
                    let mut r = rp.clone();
                    sabotage::sabotage_reg(prog, &mut r, kind)
                        .then(|| dse_verify::check_backend(prog, &r))
                }
            })
            .unwrap_or_else(|| panic!("{}: no mutation site in fixture", kind.name()));
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            !errors.is_empty(),
            "{}: seeded miscompile went uncaught",
            kind.name()
        );
        for d in &errors {
            assert_eq!(
                d.code,
                kind.expected_code(),
                "{}: expected only {}, got:\n{}",
                kind.name(),
                kind.expected_code(),
                report.render_text()
            );
        }
    }
}

/// A function that dispatches a parallel loop hands the loop memory: what
/// it stored to a promoted place is spilled in front of the `ParLoop`.
/// Drop one spill and the bodies read a stale frame; the translation
/// validator must see the `ParLoop` effect's memory differ, and nothing
/// else may fire. (A test-side mutation: the CLI's kinds stay at eight.)
#[test]
fn a_dropped_spill_before_a_parallel_loop_fires_exactly_one_code() {
    let [_, (prog, clean)] = compiled();
    let at = clean
        .code
        .iter()
        .position(|i| matches!(i, RInstr::ParLoop { .. }))
        .expect("the transformed fixture dispatches a loop");
    let RInstr::StFrame { v, site, .. } = clean.code[at - 1] else {
        panic!(
            "no spill in front of the dispatch: {:?}",
            clean.code[at - 1]
        );
    };
    assert_eq!(site, dse_ir::NO_SITE, "the store is the translator's own");
    let mut rp = clean.clone();
    rp.code[at - 1] = RInstr::Mov { d: v, s: v };
    assert_only_divergence(&prog, &rp);
}

/// Checks `rp` and asserts that it draws errors, all of them DSE014.
fn assert_only_divergence(prog: &CompiledProgram, rp: &RegProgram) {
    assert_codes(prog, rp, &[Code::TranslationDivergence]);
}

/// Checks `rp` and asserts that the error codes it draws are `codes`.
fn assert_codes(prog: &CompiledProgram, rp: &RegProgram, codes: &[Code]) {
    let report = dse_verify::check_backend(prog, rp);
    let drawn: std::collections::BTreeSet<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    assert_eq!(
        drawn.into_iter().collect::<Vec<_>>(),
        codes,
        "{}",
        report.render_text()
    );
}

/// The serial program of every workload, with its translation.
fn workload_translations() -> Vec<(CompiledProgram, RegProgram)> {
    dse_workloads::all()
        .iter()
        .map(|w| {
            let config = w.vm_config(dse_workloads::Scale::Profile);
            let prog = Analysis::from_source(w.source, config)
                .expect("workload analyzes")
                .serial;
            let rp = dse_ir::regcode::translate(&prog).expect("workload translates");
            (prog, rp)
        })
        .collect()
}

type Mutation = fn(&mut RInstr) -> bool;

/// Applies each mutation to the first instance of its site in every
/// workload that offers one, and asserts the codes it draws; at least one
/// workload must offer each site.
fn assert_mutations_draw(mutations: &[(&str, Mutation)], codes: &[Code]) {
    let programs = workload_translations();
    for &(what, mutate) in mutations {
        let mut applied = 0;
        for (prog, clean) in &programs {
            let mut rp = clean.clone();
            if rp.code.iter_mut().any(mutate) {
                assert_codes(prog, &rp, codes);
                applied += 1;
            }
        }
        assert!(applied > 0, "{what}: no workload offers the site");
    }
}

/// The operands of the fused address mode and of a folded extension are
/// proven, not trusted. On every workload whose serial translation offers
/// the site, each mutation of its first instance draws DSE014 and nothing
/// else: a `LoadIdx` with its scale doubled, or with base and index
/// swapped, and an `IBinImmSext` extending to half its width. (Test-side,
/// like the dropped spill. Dropping the extension altogether is
/// `skip-sext`'s DSE015.)
#[test]
fn a_mutated_indexed_load_or_extension_fires_exactly_one_code() {
    let mutations: [(&str, Mutation); 3] = [
        ("double k", |ins| match ins {
            RInstr::LoadIdx { k, .. } => {
                *k *= 2;
                true
            }
            _ => false,
        }),
        ("swap b and i", |ins| match ins {
            RInstr::LoadIdx { b, i, .. } if b != i => {
                std::mem::swap(b, i);
                true
            }
            _ => false,
        }),
        ("halve w", |ins| match ins {
            RInstr::IBinImmSext { w, .. } if *w > 1 => {
                *w /= 2;
                true
            }
            _ => false,
        }),
    ];
    assert_mutations_draw(&mutations, &[Code::TranslationDivergence]);
}

/// A rotated back-edge with the loop's increment folded in is proven
/// against the stack block it replaces and its loop's header. On every
/// workload whose serial translation offers the site, each mutation of
/// its first fused back-edge draws DSE014 and nothing else: the branch's
/// polarity flipped, its step doubled, its target moved to the header's
/// own test (`t - 1`), and an immediate bound bumped. A fused back-edge
/// that stops extending (`w` set to 8) also leaves the promoted `int`
/// unextended, so it draws DSE015 beside DSE014: the compare reads the
/// unextended value, and the place exits as the `Sext`-free image of its
/// stack-side value.
#[test]
fn a_mutated_fused_back_edge_fires_exactly_one_code() {
    let mutations: [(&str, Mutation); 4] = [
        ("flip on_true", |ins| match ins {
            RInstr::IncJumpICmpImm { on_true, .. } | RInstr::IncJumpICmp { on_true, .. } => {
                *on_true = !*on_true;
                true
            }
            _ => false,
        }),
        ("double step", |ins| match ins {
            RInstr::IncJumpICmpImm { step, .. } | RInstr::IncJumpICmp { step, .. } => {
                *step *= 2;
                true
            }
            _ => false,
        }),
        ("retarget to the header", |ins| match ins {
            RInstr::IncJumpICmpImm { t, .. } | RInstr::IncJumpICmp { t, .. } => {
                *t -= 1;
                true
            }
            _ => false,
        }),
        ("bump the bound", |ins| match ins {
            RInstr::IncJumpICmpImm { imm, .. } => {
                *imm += 1;
                true
            }
            _ => false,
        }),
    ];
    assert_mutations_draw(&mutations, &[Code::TranslationDivergence]);
    let unextended: [(&str, Mutation); 1] = [("w = 8", |ins| match ins {
        RInstr::IncJumpICmpImm { w, .. } | RInstr::IncJumpICmp { w, .. } if *w < 8 => {
            *w = 8;
            true
        }
        _ => false,
    })];
    assert_mutations_draw(
        &unextended,
        &[Code::TranslationDivergence, Code::TranslationPrecision],
    );
}
