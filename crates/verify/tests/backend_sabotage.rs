//! Mutation smoke tests for the backend verifier: each seeded miscompile
//! from [`dse_verify::sabotage`] must be caught, and caught as exactly the
//! lint code that owns the property it breaks — the cascade (structural
//! before flow, bounds before dataflow, register checks before translation
//! validation) is what keeps one mutation from drowning the report in
//! downstream noise.

use dse_core::Analysis;
use dse_ir::{RInstr, RegProgram};
use dse_runtime::VmConfig;
use dse_verify::diag::Severity;
use dse_verify::sabotage;

/// A program with every mutation site the sabotage kinds need: promoted
/// `int` locals (narrow stores → `Sext` canonicalization), a call with the
/// promoted scalars live across it (spill/reload sequences), loops
/// (branches to retarget), integer arithmetic (operands to swap), and a
/// private replica written and read through `__tid()` as the expansion
/// pass would emit it (fused tid accesses whose stride to corrupt).
const SOURCE: &str = r#"
long replica[4];
long helper(long x) {
  replica[__tid()] = x * 2;
  return replica[__tid()] + 1;
}
int main() {
  int acc; acc = 0;
  long t; t = 0;
  for (int i = 0; i < 10; i++) {
    acc = acc + i;
    t = t + helper(t + i);
    acc = acc - 1;
  }
  out_long(t + acc);
  return 0;
}
"#;

fn compiled() -> (dse_ir::bytecode::CompiledProgram, RegProgram) {
    let analysis = Analysis::from_source(SOURCE, VmConfig::default()).expect("fixture analyzes");
    let rp = dse_ir::regcode::translate(&analysis.serial).expect("fixture translates");
    (analysis.serial.clone(), rp)
}

#[test]
fn fixture_is_clean_before_sabotage() {
    let (prog, rp) = compiled();
    let report = dse_verify::check_backend(&prog, &rp);
    assert!(
        report.diagnostics.is_empty(),
        "fixture must verify clean:\n{}",
        report.render_text()
    );
    // Every mutation site the kinds below rely on must actually exist.
    assert!(
        !rp.promo.promoted.is_empty(),
        "fixture must promote scalars"
    );
    assert!(
        rp.promo.spills.iter().any(|s| !s.is_empty()),
        "fixture must spill around its call"
    );
    let has = |f: fn(&RInstr) -> bool| rp.code.iter().any(f);
    assert!(
        has(|i| matches!(i, RInstr::LdTid { .. })) && has(|i| matches!(i, RInstr::StTid { .. })),
        "fixture must fuse a tid load and a tid store"
    );
}

#[test]
fn each_sabotage_fires_exactly_its_code() {
    let (prog, rp) = compiled();
    for kind in sabotage::ALL {
        let (mutated_prog, mutated_rp);
        let (p, r) = if kind.is_stack() {
            let mut p = prog.clone();
            assert!(
                sabotage::sabotage_stack(&mut p, kind),
                "{}: no mutation site in fixture",
                kind.name()
            );
            mutated_prog = p;
            (&mutated_prog, &rp)
        } else {
            let mut r = rp.clone();
            assert!(
                sabotage::sabotage_reg(&prog, &mut r, kind),
                "{}: no mutation site in fixture",
                kind.name()
            );
            mutated_rp = r;
            (&prog, &mutated_rp)
        };
        let report = dse_verify::check_backend(p, r);
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
