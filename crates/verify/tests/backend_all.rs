//! Backend verification over the whole corpus: every workload model and
//! the shipped example, serial and transformed at every optimization
//! level, must pass `DSE010`–`DSE015` clean. A finding here is a translator
//! bug (or a validator false positive — equally a bug: the auto-gate after
//! `reglower` would refuse correct code).

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::{Place, RInstr, RegProgram};
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
    // What the proofs above cover only if the translator emitted it: per
    // workload at `Full`, whether an outlined body keeps a replica / a
    // read-only plain scalar in a register; over the corpus, how many
    // places load at a body's entry and are written back at its exit.
    let mut read_only_plain = 0;
    let (mut body_entry_loads, mut write_backs) = (0, 0);
    // The workloads, then the verifier's own fixture: every private scalar
    // of the eight models is a temporary of its loop body, which no one
    // else can see and nothing writes back.
    let fixture = (
        "backend_promote.cee",
        include_str!("../../server/tests/fixtures/backend_promote.cee"),
        VmConfig::default(),
    );
    let workloads = dse_workloads::all();
    let corpus = workloads
        .iter()
        .map(|w| (w.name, w.source, w.vm_config(Scale::Profile)))
        .chain([fixture]);
    for (i, (name, source, config)) in corpus.enumerate() {
        let analysis = Analysis::from_source(source, config)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert_backend_clean(&format!("{name} (serial)"), &analysis.serial);
        for opt in LEVELS {
            let t = analysis
                .transform(opt, 4)
                .unwrap_or_else(|e| panic!("{name} @ {opt:?}: transform failed: {e}"));
            let rp = assert_backend_clean(&format!("{name} @ {opt:?} (parallel)"), &t.parallel);
            if opt != OptLevel::Full {
                continue;
            }
            let bodies = || rp.promo.places[t.parallel.funcs.len()..].iter().flatten();
            assert!(
                bodies().any(|p| matches!(p.place, Place::FrameTid { .. })),
                "{name} @ {opt:?}: no outlined body keeps a private replica in a register"
            );
            if i < workloads.len() {
                read_only_plain += bodies().any(|p| matches!(p.place, Place::Frame(_))) as usize;
            }
            body_entry_loads += bodies().filter(|p| p.entry_load).count();
            write_backs += bodies().filter(|p| p.write_back).count();
            // A place the plan writes back has its store in the code.
            let stores = rp
                .code
                .iter()
                .filter(|i| matches!(i, RInstr::StTid { site, .. } if *site == dse_ir::NO_SITE))
                .count();
            assert!(stores >= bodies().filter(|p| p.write_back).count());
        }
    }
    assert!(
        read_only_plain >= 4,
        "only {read_only_plain} of 8 workloads keep a loop-invariant scalar in a body register"
    );
    assert!(
        body_entry_loads > 0 && write_backs > 0,
        "the corpus must exercise entry loads ({body_entry_loads}) and write-backs ({write_backs})"
    );
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

/// What the generated-program suite (`prop_equivalence.rs`) found once it
/// ran on the register backend, reduced. Each translates to code the
/// verifier used to refuse although it was right:
///
/// * `a = (b = 5)` — `Tuck` over the address of a promoted scalar, which
///   is in no register, read one (DSE013 at the parent commit too);
/// * a promoted scalar copied into an operand, then read back in the
///   fall-through block of a conditional branch — the coalescer carried
///   the copy fact across the block boundary, where the block-by-block
///   validator cannot follow it (DSE014 at the parent commit too);
/// * a body whose last store to a private replica nothing reads — the
///   coalescer deletes the dead write, and the validator compared the
///   dying register at the region's `Ret` anyway;
/// * `if ((g = i * 2) > 3)` with `g` a private global — the same `Tuck`,
///   over a tid address that only its fused consumer forms (found by
///   reading the fix of the first; DSE013 since PR 18).
#[test]
fn generator_findings_verify_clean_and_agree() {
    let sources = [
        "int main() {
           int a; int b; a = (b = 5);
           int c; c = 0;
           if ((c = a + 1) > 3) { b = b + c; }
           out_long(a + b + c);
           return 0; }",
        "int main() {
           long acc; acc = in_long(0);
           long y; int a; a = 1;
           y = (int)acc;
           if ((int)acc) { a = (int)y; } else { y = 3; }
           out_long(a + y);
           return 0; }",
        "struct P { int x; long y; };
         int main() {
           int *outv; outv = malloc(8 * sizeof(int));
           int k0; k0 = 5;
           #pragma candidate last_store
           for (int i = 0; i < 8; i++) {
             struct P pt; pt.x = i; pt.y = 3;
             outv[i] = pt.x + (int)pt.y;
             pt.y = k0;
           }
           long h; h = 0;
           for (int i = 0; i < 8; i++) { h = h * 31 + outv[i]; }
           out_long(h);
           free(outv);
           return 0; }",
        "long g;
         int main() {
           long *out; out = malloc(8 * sizeof(long));
           #pragma candidate tucked
           for (int i = 0; i < 8; i++) {
             long v; v = 0;
             if ((g = i * 2) > 3) { v = g + 1; }
             out[i] = v;
           }
           long s; s = 0;
           for (int k = 0; k < 8; k++) { s = s + out[k]; }
           out_long(s);
           free(out);
           return 0; }",
    ];
    for source in sources {
        let config = VmConfig {
            inputs_int: vec![5],
            ..Default::default()
        };
        let analysis = Analysis::from_source(source, config.clone()).expect("analyzes");
        let parallel = analysis
            .transform(OptLevel::Full, 2)
            .expect("transforms")
            .parallel;
        for (prog, nthreads) in [(&analysis.serial, 1), (&parallel, 2)] {
            let rp = std::sync::Arc::new(assert_backend_clean(source, prog));
            let config = VmConfig {
                nthreads,
                backend: dse_runtime::BackendKind::Stack,
                ..config.clone()
            };
            let mut stack_vm = dse_runtime::Vm::new(prog.clone(), config.clone()).unwrap();
            stack_vm.run().expect("stack run");
            let mut reg_vm = dse_runtime::Vm::with_reg(prog.clone(), rp, config).unwrap();
            reg_vm.run().expect("register run");
            assert_eq!(reg_vm.outputs_int(), stack_vm.outputs_int(), "{source}");
        }
    }
}
