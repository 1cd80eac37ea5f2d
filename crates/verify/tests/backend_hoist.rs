//! Loop-invariant hoisting over the whole corpus: what the translator
//! computes before a loop never loads, divides or forms a tid address, and
//! every translation that hoists verifies clean.

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::{CompiledProgram, IBinOp};
use dse_ir::RInstr;
use dse_runtime::VmConfig;
use dse_workloads::Scale;

/// A load, a division (it can trap), or an instruction forming a tid
/// address (each one counts a private access).
fn unhoistable(ins: &RInstr) -> bool {
    let divides = |op: IBinOp| matches!(op, IBinOp::Div | IBinOp::Rem);
    match *ins {
        RInstr::IBin { op, .. }
        | RInstr::IBinImm { op, .. }
        | RInstr::IBinSext { op, .. }
        | RInstr::IBinImmSext { op, .. } => divides(op),
        RInstr::Load { .. }
        | RInstr::LoadIdx { .. }
        | RInstr::LdFrame { .. }
        | RInstr::LdGlobal { .. }
        | RInstr::LdTid { .. }
        | RInstr::FrameAddrTid { .. }
        | RInstr::GlobalAddrTid { .. }
        | RInstr::TidScaled { .. }
        | RInstr::TidSpanScaled { .. } => true,
        _ => false,
    }
}

/// Translates and verifies `prog`; returns how many values it hoisted.
fn hoisted_clean(name: &str, prog: &CompiledProgram) -> usize {
    let rp = dse_ir::regcode::translate(prog).unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = dse_verify::check_backend(prog, &rp);
    assert!(
        report.diagnostics.is_empty(),
        "{name}: backend verification found:\n{}",
        report.render_text()
    );
    for l in &rp.hoist.loops {
        for ins in &l.code {
            assert!(
                !unhoistable(ins),
                "{name}: {ins:?} hoisted out of stack pcs {}..{}",
                l.header,
                l.end
            );
        }
    }
    rp.hoist.regs.iter().sum::<u32>() as usize
}

#[test]
fn no_hoisted_instruction_loads_divides_or_forms_a_tid_address() {
    let fixture = (
        "hoisted_loops.cee",
        include_str!("../../server/tests/fixtures/hoisted_loops.cee"),
        VmConfig {
            inputs_int: vec![4, 0],
            ..VmConfig::default()
        },
    );
    let workloads = dse_workloads::all();
    let corpus = workloads
        .iter()
        .map(|w| (w.name, w.source, w.vm_config(Scale::Profile)))
        .chain([fixture]);
    let mut total = 0;
    for (name, source, config) in corpus {
        let analysis = Analysis::from_source(source, config)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        total += hoisted_clean(&format!("{name} (serial)"), &analysis.serial);
        for threads in [1, 2, 4] {
            let t = analysis
                .transform(OptLevel::Full, threads)
                .unwrap_or_else(|e| panic!("{name} @ {threads}: transform failed: {e}"));
            total += hoisted_clean(&format!("{name} @ {threads} (parallel)"), &t.parallel);
        }
    }
    assert!(total > 0, "the corpus must hoist something");
}
