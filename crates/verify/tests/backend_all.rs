//! Backend verification over the whole corpus: every workload model and
//! the shipped example, serial and transformed at every optimization
//! level, must pass `DSE010`–`DSE015` clean. A finding here is a translator
//! bug (or a validator false positive — equally a bug: the auto-gate after
//! `reglower` would refuse correct code).

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::{RInstr, RegProgram};
use dse_runtime::VmConfig;
use dse_workloads::Scale;

const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::NoConstSpan, OptLevel::Full];

fn assert_backend_clean(name: &str, prog: &CompiledProgram) -> RegProgram {
    let rp =
        dse_ir::regcode::translate(prog).unwrap_or_else(|e| panic!("{name}: reglower failed: {e}"));
    let report = dse_verify::check_backend(prog, &rp);
    assert!(
        report.diagnostics.is_empty(),
        "{name}: backend verification found:\n{}",
        report.render_text()
    );
    rp
}

#[test]
fn workloads_verify_clean_under_both_backends() {
    for w in dse_workloads::all() {
        let analysis = Analysis::from_source(w.source, w.vm_config(Scale::Profile))
            .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", w.name));
        assert_backend_clean(&format!("{} (serial)", w.name), &analysis.serial);
        for opt in LEVELS {
            let t = analysis
                .transform(opt, 4)
                .unwrap_or_else(|e| panic!("{} @ {opt:?}: transform failed: {e}", w.name));
            let rp = assert_backend_clean(&format!("{} @ {opt:?} (parallel)", w.name), &t.parallel);
            // The proof above covers the fused tid forms only if they are
            // there: every fully optimized workload reads and writes a
            // private scalar replica through `v[__tid()]`.
            if opt != OptLevel::Full {
                continue;
            }
            let has = |f: fn(&RInstr) -> bool| rp.code.iter().any(f);
            assert!(
                has(|i| matches!(i, RInstr::LdTid { .. }))
                    && has(|i| matches!(i, RInstr::StTid { .. })),
                "{} @ {opt:?}: no fused tid load or no fused tid store emitted",
                w.name
            );
        }
    }
}

/// Regression: a `while` loop headed at a function entry used to branch
/// back into the promoted-slot prologue, re-reading stale frame memory and
/// spinning forever under the register backend. The fix resolves branch
/// targets past the prologue; the validator's `expected_branch_target`
/// check proves it, and this differential run pins the observable behavior.
#[test]
fn entry_headed_loop_agrees_across_backends() {
    let source = r#"
long f(long n) {
  while (n > 0) { n = n - 2; }
  return n;
}
int main() {
  out_long(f(9));
  return 0;
}
"#;
    let analysis = Analysis::from_source(source, VmConfig::default()).unwrap();
    assert_backend_clean("entry-headed loop", &analysis.serial);
    let mut stack_vm = dse_runtime::Vm::new(analysis.serial.clone(), VmConfig::default()).unwrap();
    stack_vm.run().unwrap();
    let rp = std::sync::Arc::new(dse_ir::regcode::translate(&analysis.serial).unwrap());
    let mut reg_vm =
        dse_runtime::Vm::with_reg(analysis.serial.clone(), rp, VmConfig::default()).unwrap();
    reg_vm.run().unwrap();
    assert_eq!(stack_vm.outputs_int(), vec![-1]);
    assert_eq!(reg_vm.outputs_int(), stack_vm.outputs_int());
}

#[test]
fn shipped_example_verifies_clean_under_both_backends() {
    let path = format!("{}/../../examples/scratch.cee", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(path).unwrap();
    let analysis = Analysis::from_source(&source, VmConfig::default()).unwrap();
    assert_backend_clean("scratch.cee (serial)", &analysis.serial);
    for opt in LEVELS {
        let t = analysis.transform(opt, 4).unwrap();
        assert_backend_clean(&format!("scratch.cee @ {opt:?} (parallel)"), &t.parallel);
    }
}
