//! The code fingerprint keys the profile and the register translation of a
//! lowered program, so it must cover everything the program's behaviour
//! depends on, not only what its listing shows; and an artifact that
//! carries a fingerprint must carry its own program's.

use dse_core::phases::code_fingerprint;
use dse_core::{ArtifactStore, CacheOutcome, OptLevel, Pipeline, Trace};
use dse_ir::loops::ParMode;
use dse_runtime::VmConfig;

/// With `stride` 1 the loop's iterations touch distinct elements (DOALL);
/// with `stride` 0 every iteration updates `a[0]` (DOACROSS). Only the
/// global initializer tells the two apart.
fn strided(stride: i64) -> String {
    format!(
        "int stride = {stride};
         int a[64];
         int main() {{
           int i;
           #pragma candidate bump
           for (i = 0; i < 32; i++) a[i*stride] = a[i*stride] + 1;
           out_long(a[0]);
           return 0;
         }}"
    )
}

fn outcome(trace: &Trace, phase: &str) -> CacheOutcome {
    trace
        .iter()
        .find(|p| p.phase == phase)
        .unwrap_or_else(|| panic!("no `{phase}` in the trace"))
        .outcome
}

#[test]
fn a_global_initializer_changes_the_fingerprint() {
    let lower = |src: &str| {
        let ast = dse_lang::compile_to_ast(src).expect("parse");
        dse_ir::lower_program(&ast, &Default::default()).expect("lower")
    };
    let (one, zero) = (lower(&strided(1)), lower(&strided(0)));
    assert_eq!(
        dse_ir::disasm::disassemble(&one),
        dse_ir::disasm::disassemble(&zero),
        "the listings agree, so the listing alone cannot key the profile"
    );
    assert_ne!(code_fingerprint(&one), code_fingerprint(&zero));
}

#[test]
fn a_program_differing_only_in_a_global_initializer_is_profiled_again() {
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let analyze = |src: &str| {
        let mut trace = Trace::new();
        let art = pipeline
            .analyze(src, &VmConfig::default(), &mut trace)
            .expect("analyze");
        (art, trace)
    };
    let (one, _) = analyze(&strided(1));
    let (zero, trace) = analyze(&strided(0));
    assert_eq!(outcome(&trace, "profile"), CacheOutcome::Miss);
    assert_ne!(one.code_hash, zero.code_hash);
    let mode = |art: &dse_core::AnalysisArt| art.analysis.classifications[0].mode;
    assert_eq!(mode(&one), ParMode::DoAll);
    assert_eq!(mode(&zero), ParMode::DoAcross);
}

#[test]
fn artifacts_carry_their_own_programs_fingerprints() {
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&strided(1), &VmConfig::default(), &mut trace)
        .expect("analyze");
    assert_eq!(art.code_hash, code_fingerprint(&art.analysis.serial));
    let t = pipeline
        .transform(&art, OptLevel::Full, 2, false, &mut trace)
        .expect("transform");
    let parallel = code_fingerprint(&t.transformed.parallel);
    assert_eq!(t.code_hash(), parallel);
    assert_eq!(t.code_hash(), parallel, "the memo answers the same twice");
    assert_ne!(t.code_hash(), art.code_hash);
}
