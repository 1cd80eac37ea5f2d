//! Set-up shared by every workload: compile each program by calling the
//! phase functions directly (timing each call into a layer), run the
//! *original* on the stack interpreter for the reference outputs, and keep
//! the exact counts a second set-up must reproduce.

use crate::inputs::{program_inputs, Size};
use crate::metrics::Values;
use crate::trace::Tracer;
use dse_core::phases::{assemble_analysis, Classified};
use dse_core::{classify_loop, Analysis, OptLevel, Transformed};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::RegProgram;
use dse_runtime::{BackendKind, RunReport, Value, Vm, VmConfig};
use dse_telemetry::Json;
use dse_verify::diag::Severity;
use dse_workloads::Workload;
use std::sync::Arc;

/// What a run of a program shows its user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    pub out_long: Vec<i64>,
    /// `out_float` values as IEEE bits, so equality is exact.
    pub out_float_bits: Vec<u64>,
    pub exit: i64,
}

impl Outputs {
    pub fn of_run(vm: &Vm, report: &RunReport) -> Outputs {
        Outputs::new(vm.outputs_int(), &vm.outputs_float(), exit_code(report))
    }

    pub fn new(out_long: Vec<i64>, out_float: &[f64], exit: i64) -> Outputs {
        Outputs {
            out_long,
            out_float_bits: out_float.iter().map(|f| f.to_bits()).collect(),
            exit,
        }
    }

    pub fn to_json(&self) -> Json {
        let ints = |v: Vec<i64>| Json::Arr(v.into_iter().map(Json::Int).collect());
        Json::obj(vec![
            ("out_long", ints(self.out_long.clone())),
            (
                "out_float_bits",
                ints(self.out_float_bits.iter().map(|&b| b as i64).collect()),
            ),
            ("exit", Json::Int(self.exit)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Outputs> {
        let ints =
            |key| -> Option<Vec<i64>> { j.get(key)?.as_arr()?.iter().map(Json::as_i64).collect() };
        Some(Outputs {
            out_long: ints("out_long")?,
            out_float_bits: ints("out_float_bits")?
                .into_iter()
                .map(|b| b as u64)
                .collect(),
            exit: j.get("exit")?.as_i64()?,
        })
    }
}

/// The exit code `dsec`/`dsed` would report for a finished run.
pub fn exit_code(report: &RunReport) -> i64 {
    match report.return_value {
        Some(Value::I(code)) => code & 0xff,
        _ => 0,
    }
}

/// A default-configured VM (the 64 MiB arena `dsec` and `dsed` use) over
/// the given inputs.
pub fn vm_config(inputs: &[i64], nthreads: u32) -> VmConfig {
    VmConfig {
        inputs_int: inputs.to_vec(),
        nthreads,
        ..Default::default()
    }
}

/// One program compiled source-to-verified-regcode by direct phase calls.
pub struct Compiled {
    pub analysis: Analysis,
    /// Transformed for 2 threads at full optimisation.
    pub x2: Transformed,
    pub reg_x2: Arc<RegProgram>,
    /// Wall milliseconds of each call into a layer, keyed by metric name.
    pub times: Values,
    /// Exact counts, keyed by metric name.
    pub counts: Values,
    /// Error-severity findings of the two verifier passes.
    pub errors: usize,
}

/// Compiles `source` for 2 threads, one timed span per call into a layer.
/// The sequence is the one `Pipeline::analyze` → `transform(Full, 2)` →
/// `check_cached` → `reglower` → `check_backend_cached` runs on a cold
/// store, fingerprints included, minus the store itself.
pub fn compile_direct(
    program: &str,
    source: &str,
    profile_inputs: &[i64],
    tr: &mut Tracer,
) -> Result<Compiled, String> {
    let mut times = Values::new();
    let (out, _) = tr.op("compile.direct", program, "direct", |tr| {
        // One span per call into a layer; its metric is the span's name
        // plus `_ms` (two `ir.disasm` spans add up: both are fingerprints
        // the cached pipeline pays).
        macro_rules! layer {
            ($span:literal, $body:expr) => {{
                let (v, ms) = tr.span($span, |_| $body);
                *times.entry(concat!($span, "_ms")).or_insert(0.0) += ms;
                v
            }};
        }
        let err = |e: &dyn std::fmt::Display| format!("{program}: {e}");
        use std::hint::black_box;

        let ast = layer!("lang.parse", dse_lang::compile_to_ast(source)).map_err(|e| err(&e))?;
        layer!(
            "lang.ast_print",
            black_box(dse_lang::printer::print_program(&ast))
        );
        let serial = layer!("ir.lower", dse_ir::lower_program(&ast, &Default::default()))
            .map_err(|e| err(&e))?;
        layer!("ir.disasm", black_box(dse_ir::disasm::disassemble(&serial)));
        let profile = layer!("depprof.profile", {
            let cfg = vm_config(profile_inputs, 1);
            dse_depprof::profile_program(serial.clone(), cfg).map(|(p, _vm)| p)
        })
        .map_err(|e| err(&e))?;
        layer!("depprof.summary", black_box(profile.canonical_summary()));
        let classifications = layer!(
            "core.classify",
            profile.loops.iter().map(classify_loop).collect::<Vec<_>>()
        );
        let pt = layer!("analysis.points_to", dse_analysis::analyze(&ast));
        let alloc_sizes = layer!(
            "analysis.alloc_size",
            dse_analysis::consteval::alloc_size_infos(&ast)
        );
        let classified = Classified {
            classifications,
            pt,
            alloc_sizes,
        };
        let analysis = assemble_analysis(ast, serial, profile, classified, Vec::new());
        let plan = layer!("core.plan", analysis.plan(OptLevel::Full, 2)).map_err(|e| err(&e))?;
        let x2 =
            layer!("core.xform", analysis.apply_plan(plan, OptLevel::Full)).map_err(|e| err(&e))?;
        let check = layer!("verify.check", dse_verify::check_all(&analysis, Some(&x2)));
        layer!(
            "ir.disasm",
            black_box(dse_ir::disasm::disassemble(&x2.parallel))
        );
        let reg_x2 =
            layer!("ir.reglower", dse_ir::regcode::translate(&x2.parallel)).map_err(|e| err(&e))?;
        let backend = layer!(
            "verify.regverify",
            dse_verify::check_backend(&x2.parallel, &reg_x2)
        );
        Ok::<_, String>((analysis, x2, reg_x2, check, backend))
    });
    let (analysis, x2, reg_x2, check, backend) = out?;

    let (iterations, accesses, edges) = analysis.profile.totals();
    let r = &x2.report;
    let counts = Values::from([
        ("lang.source_bytes", source.len() as f64),
        ("ir.stack_instrs", analysis.serial.code.len() as f64),
        ("ir.reg_instrs", reg_x2.code.len() as f64),
        (
            "ir.reg_per_stack_instr",
            reg_x2.code.len() as f64 / x2.parallel.code.len() as f64,
        ),
        ("depprof.iterations", iterations as f64),
        ("depprof.accesses", accesses as f64),
        ("depprof.edges", edges as f64),
        ("core.structures_expanded", r.privatized_structures() as f64),
        ("core.fat_pointer_types", r.fat_pointer_types as f64),
        ("core.span_stores_emitted", r.span_stores_emitted as f64),
        ("core.span_stores_elided", r.span_stores_elided as f64),
        (
            "core.private_accesses_redirected",
            r.private_accesses_redirected as f64,
        ),
        (
            "verify.diagnostics",
            (check.diagnostics.len() + backend.diagnostics.len()) as f64,
        ),
    ]);
    times.insert(
        "depprof.accesses_per_ms",
        accesses as f64 / times["depprof.profile_ms"],
    );
    Ok(Compiled {
        analysis,
        x2,
        reg_x2: Arc::new(reg_x2),
        times,
        counts,
        errors: check.count(Severity::Error) + backend.count(Severity::Error),
    })
}

/// The three configurations of the `*_exec` workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// The untransformed program on one thread.
    Orig,
    /// Transformed for one thread (Figure 9's overhead run).
    X1,
    /// Transformed for two threads, run on two.
    X2,
}

impl Config {
    pub const ALL: [Config; 3] = [Config::Orig, Config::X1, Config::X2];

    pub fn name(self) -> &'static str {
        match self {
            Config::Orig => "orig",
            Config::X1 => "x1",
            Config::X2 => "x2",
        }
    }

    pub fn nthreads(self) -> u32 {
        if self == Config::X2 {
            2
        } else {
            1
        }
    }
}

/// One executable variant: stack code plus its register translation.
pub struct Variant {
    pub code: CompiledProgram,
    pub reg: Arc<RegProgram>,
}

/// One program, set up.
pub struct Program {
    pub name: &'static str,
    pub source: &'static str,
    pub profile_inputs: Vec<i64>,
    pub exec_inputs: Vec<i64>,
    pub compiled: Compiled,
    /// Stack-interpreter outputs of the original on the profile inputs.
    pub reference_profile: Outputs,
    /// The same on the exec inputs (`*_exec` workloads only).
    pub reference_exec: Option<Outputs>,
    /// Orig, X1, X2 in [`Config::ALL`] order (`*_exec` workloads only).
    pub variants: Vec<Variant>,
    /// Everything set-up measured for this program, keyed by metric name:
    /// the compile's layer timings and exact counts, the reference VM's
    /// construction time and (exec) the stack run time.
    pub values: Values,
}

/// Runs `code` on the reference stack interpreter; returns its outputs,
/// the VM construction time and the run time (ms).
pub fn stack_run(
    code: &CompiledProgram,
    inputs: &[i64],
    nthreads: u32,
    tr: &mut Tracer,
) -> Result<(Outputs, f64, f64), String> {
    let cfg = VmConfig {
        backend: BackendKind::Stack,
        ..vm_config(inputs, nthreads)
    };
    let (vm, build_ms) = tr.span("runtime.vm_build", |_| Vm::new(code.clone(), cfg));
    let mut vm = vm.map_err(|e| e.to_string())?;
    let (report, run_ms) = tr.span("runtime.stack_exec", |_| vm.run());
    let report = report.map_err(|e| e.to_string())?;
    let outputs = Outputs::of_run(&vm, &report);
    tr.span("runtime.vm_drop", |_| drop(vm));
    Ok((outputs, build_ms, run_ms))
}

/// Sets one program up. `exec` also builds the three variants and the
/// exec-size reference.
///
/// # Errors
///
/// A compile or reference-run failure, a classification that differs from
/// the paper's for this seed, or a verifier error.
pub fn prepare(w: &Workload, seed: u64, exec: bool, tr: &mut Tracer) -> Result<Program, String> {
    let profile_inputs = program_inputs(w.name, Size::Profile, seed);
    let exec_inputs = program_inputs(w.name, Size::Exec, seed);
    let compiled = compile_direct(w.name, w.source, &profile_inputs, tr)?;
    for c in &compiled.analysis.classifications {
        if c.mode != w.paper.parallelism {
            return Err(format!(
                "{}: loop `{}` classified {} at seed {seed}, the paper says {}",
                w.name, c.label, c.mode, w.paper.parallelism
            ));
        }
    }
    if compiled.errors > 0 {
        return Err(format!("{}: {} verifier error(s)", w.name, compiled.errors));
    }

    let (refs, _) = tr.op("setup.reference", w.name, "reference", |tr| {
        references_and_variants(&compiled, &profile_inputs, &exec_inputs, exec, tr)
    });
    let refs = refs.map_err(|e| format!("{}: {e}", w.name))?;
    let mut values = refs.times;
    values.extend(compiled.times.clone());
    values.extend(compiled.counts.clone());
    Ok(Program {
        name: w.name,
        source: w.source,
        profile_inputs,
        exec_inputs,
        compiled,
        reference_profile: refs.profile,
        reference_exec: refs.exec,
        variants: refs.variants,
        values,
    })
}

struct References {
    profile: Outputs,
    exec: Option<Outputs>,
    variants: Vec<Variant>,
    times: Values,
}

/// The reference runs of the original on the stack interpreter and, for
/// the `*_exec` workloads, the three variants with verified translations.
fn references_and_variants(
    compiled: &Compiled,
    profile_inputs: &[i64],
    exec_inputs: &[i64],
    exec: bool,
    tr: &mut Tracer,
) -> Result<References, String> {
    let serial = &compiled.analysis.serial;
    let (profile, build_ms, _) = stack_run(serial, profile_inputs, 1, tr)?;
    let mut refs = References {
        profile,
        exec: None,
        variants: Vec::new(),
        times: Values::from([("runtime.vm_build_ms", build_ms)]),
    };
    // Validate what `compile_direct` produced before anything is compared
    // with it: the transformed program, on the register backend, on two
    // threads, must print what the original prints.
    let x2 = &compiled.x2.parallel;
    let (got, _) = tr.span("runtime.validate_x2", |_| {
        let cfg = vm_config(profile_inputs, 2);
        let mut vm = Vm::with_reg(x2.clone(), Arc::clone(&compiled.reg_x2), cfg)?;
        let report = vm.run()?;
        Ok::<_, dse_runtime::VmError>(Outputs::of_run(&vm, &report))
    });
    if got.map_err(|e| e.to_string())? != refs.profile {
        return Err("the transformed program's outputs differ from the original's".to_string());
    }
    if !exec {
        return Ok(refs);
    }
    let (reference_exec, _, run_ms) = stack_run(serial, exec_inputs, 1, tr)?;
    refs.exec = Some(reference_exec);
    refs.times.insert("runtime.stack_exec_ms_orig", run_ms);
    let (x1, _) = tr.span("core.transform_t1", |_| {
        compiled.analysis.transform(OptLevel::Full, 1)
    });
    let x1 = x1.map_err(|e| e.to_string())?;
    for code in [serial.clone(), x1.parallel] {
        let (reg, _) = tr.span("ir.reglower", |_| dse_ir::regcode::translate(&code));
        let reg = Arc::new(reg.map_err(|e| e.to_string())?);
        let (report, _) = tr.span("verify.regverify", |_| {
            dse_verify::check_backend(&code, &reg)
        });
        if report.count(Severity::Error) > 0 {
            return Err("register translation failed verification".to_string());
        }
        refs.variants.push(Variant { code, reg });
    }
    // The x2 translation is the one `compile_direct` made and verified.
    refs.variants.push(Variant {
        code: x2.clone(),
        reg: Arc::clone(&compiled.reg_x2),
    });
    Ok(refs)
}
