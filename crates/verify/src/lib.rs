//! # dse-verify — static privatization-soundness verifier and lint framework
//!
//! The expansion pipeline trusts two oracles: the *profiler* (whose
//! classifications are only as sound as the profiling input, §2 of the
//! paper) and the *transform* (whose Table 1–3 rewrites are assumed
//! correct). This crate cross-examines both:
//!
//! 1. **Profile soundness ([`staticdep`], pass 1)** — a conservative static
//!    approximation of may-dependences, built from the points-to analysis
//!    and the source tree, is compared against the profiled DDG. A class
//!    the profile calls thread-private that the static pass cannot confirm
//!    is flagged `DSE001` (warning by default, failing under `--strict`).
//! 2. **Transform invariants ([`invariants`], pass 2)** — the transformed
//!    AST and parallel bytecode are mechanically checked against Tables
//!    1–3: tid redirection of private sites (`DSE003`), replica-0
//!    resolution of shared sites (`DSE004`), span maintenance (`DSE005`),
//!    and DOACROSS synchronization windows (`DSE006`).
//! 3. **Lint framework ([`diag`])** — findings carry stable `DSE0xx` codes,
//!    severities, and spans; reports render as text or JSON and roll up
//!    counts for telemetry. The `dsec check` subcommand (and the implicit
//!    pre-transform check in `dsec --transform`/`--run`) is built on it.
//! 4. **Backend verification ([`stackcheck`], [`regcheck`], [`xlatecheck`],
//!    `DSE010`–`DSE015`)** — static proofs over both executable encodings:
//!    the stack bytecode's constant-depth discipline and bounds, the
//!    register translation's window/def-use/spill safety, and a symbolic
//!    translation validator proving the two backends equivalent block by
//!    block. Runs via `dsec check --backend`, and automatically (cached, as
//!    the `regverify` phase) after every `reglower`. [`sabotage`] seeds
//!    known miscompiles to prove each checker actually fires.

pub mod diag;
pub mod invariants;
pub mod regcheck;
pub mod sabotage;
pub mod stackcheck;
pub mod staticdep;
pub mod walk;
pub mod xlatecheck;

use std::collections::HashMap;
use std::sync::Arc;

use dse_core::cache::Trace;
use dse_core::phases::{Pipeline, RegArt, TransformArt};
use dse_core::{Analysis, ArtifactStore, SiteClass, Transformed};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::RegProgram;
use dse_lang::ast::NO_EID;
use dse_runtime::{Vm, VmConfig};
use dse_telemetry::ContentHasher;

use diag::{Code, Diagnostic, Report};

/// Pass 1: checks the profiled classifications against the static
/// approximation (`DSE001`/`DSE002`/`DSE008`) and for cross-loop
/// consistency (`DSE007`). Runs before planning, on the [`Analysis`] alone.
pub fn check_analysis(analysis: &Analysis, report: &mut Report) {
    staticdep::check(analysis, report);
    check_classification_conflicts(analysis, report);
}

/// Pass 2: checks the transform's output against its Table 1–3 invariants
/// (`DSE003`–`DSE006`).
pub fn check_transformed(analysis: &Analysis, t: &Transformed, report: &mut Report) {
    invariants::check(analysis, t, report);
}

/// Runs every applicable pass and returns the sorted report: pass 1 always,
/// pass 2 when a transformed program is supplied.
pub fn check_all(analysis: &Analysis, transformed: Option<&Transformed>) -> Report {
    let mut report = Report::default();
    check_analysis(analysis, &mut report);
    if let Some(t) = transformed {
        check_transformed(analysis, t, &mut report);
    }
    report.sort();
    report
}

/// [`check_all`] through the artifact store: the verify pass is itself a
/// cached phase, keyed `H("verify", xform_key)`. The xform key chains
/// through the plan, classification, profile, bytecode and AST hashes, so
/// any input that could change the report changes the key; a repeated
/// request re-uses the sorted report without re-running either pass.
pub fn check_cached(
    store: &ArtifactStore,
    analysis: &Analysis,
    xform: &TransformArt,
    trace: &mut Trace,
) -> Arc<Report> {
    let key = ContentHasher::new("verify").hash(xform.key).finish();
    store
        .get_or_compute("verify", key, trace, || {
            let report = check_all(analysis, Some(&xform.transformed));
            let stats = [("diagnostics", report.diagnostics.len() as i64)].into();
            Ok::<_, std::convert::Infallible>((report, stats))
        })
        .unwrap_or_else(|e| match e {})
}

/// Backend pass over the stack bytecode alone (`DSE010`/`DSE011`): the
/// constant-depth discipline and structural bounds the register translation
/// assumes. Useful before a `reglower` exists.
pub fn check_stack(prog: &CompiledProgram) -> Report {
    let mut report = Report::default();
    stackcheck::check(prog, &mut report);
    report.sort();
    report
}

/// Full backend verification (`DSE010`–`DSE015`): the stack checks, then —
/// only if they pass, so downstream passes can index freely — the register
/// window/def-use/spill checks, then — only if *those* pass — the symbolic
/// translation validator. The cascade means a seeded miscompile surfaces as
/// exactly the code of the first checker able to see it.
pub fn check_backend(prog: &CompiledProgram, rp: &RegProgram) -> Report {
    let mut report = Report::default();
    if stackcheck::check(prog, &mut report) {
        // stackcheck proved the flow converges; unwrap is safe.
        let flow = dse_ir::analyze_stack(prog).expect("stackcheck proved discipline");
        if regcheck::check(prog, rp, &flow, &mut report) {
            xlatecheck::check(prog, rp, &flow, &mut report);
        }
    }
    report.sort();
    report
}

/// [`check_backend`] through the artifact store: backend verification is
/// the pipeline's ninth cached phase, keyed `H("regverify", reglower_key)`.
/// The reglower key fingerprints the stack code, so any program change
/// re-verifies and any repeat (daemon warm path, `--threads` sweeps)
/// reuses the stored report. A clean report marks the translation verified
/// — on cache hits too, since a warm `RegArt` may be a fresh allocation
/// whose flag was never set — which the register VM's `--strict` mode
/// checks before accepting code.
pub fn check_backend_cached(
    store: &ArtifactStore,
    prog: &CompiledProgram,
    regart: &RegArt,
    trace: &mut Trace,
) -> Arc<Report> {
    let key = ContentHasher::new("regverify").hash(regart.key).finish();
    let report = store
        .get_or_compute("regverify", key, trace, || {
            let report = check_backend(prog, &regart.reg);
            let stats = [("diagnostics", report.diagnostics.len() as i64)].into();
            Ok::<_, std::convert::Infallible>((report, stats))
        })
        .unwrap_or_else(|e| match e {});
    if report.count(diag::Severity::Error) == 0 {
        regart.reg.mark_verified();
    }
    report
}

/// The one way to get a VM that executes register code: translate
/// through the cached `reglower` phase, gate the translation through
/// [`check_backend_cached`], and build the VM only if no error-severity
/// finding (`DSE010`–`DSE015`) came back. `dsec` and `dsed` both run
/// register code through here, so they refuse the same programs with the
/// same words.
///
/// # Errors
///
/// The message to show the user: the lowering error, the refusal followed
/// by one rendered diagnostic per line, or the VM's construction error.
pub fn verified_reg_vm(
    pipeline: &Pipeline,
    compiled: CompiledProgram,
    config: VmConfig,
    trace: &mut Trace,
) -> Result<Vm, String> {
    let art = pipeline
        .reglower(&compiled, trace)
        .map_err(|e| e.to_string())?;
    let report = check_backend_cached(pipeline.store(), &compiled, &art, trace);
    let errors = report.count(diag::Severity::Error);
    if errors > 0 {
        let mut msg = format!(
            "register translation failed verification with {errors} error(s) \
             (DSE010-DSE015); refusing to execute it"
        );
        for d in &report.diagnostics {
            msg.push('\n');
            msg.push_str(&d.render());
        }
        return Err(msg);
    }
    Vm::with_reg(compiled, Arc::clone(&art.reg), config).map_err(|e| e.to_string())
}

/// `DSE007`: the same source access must not be classified thread-private
/// by one candidate loop and shared by another — plan merging refuses such
/// programs, so surfacing the conflict as a lint keeps `dsec check` ahead
/// of the transform's hard error.
fn check_classification_conflicts(analysis: &Analysis, report: &mut Report) {
    let index = walk::eid_index(&analysis.program);
    let mut seen: HashMap<u32, (SiteClass, String)> = HashMap::new();
    let mut conflicted: Vec<u32> = Vec::new();
    for c in &analysis.classifications {
        for (&site, &class) in &c.site_class {
            let eid = analysis.serial.sites.info(site).eid;
            if eid == NO_EID {
                continue;
            }
            match seen.get(&eid) {
                None => {
                    seen.insert(eid, (class, c.label.clone()));
                }
                Some((prev, prev_label)) if *prev != class => {
                    if !conflicted.contains(&eid) {
                        conflicted.push(eid);
                        let (shared_in, private_in) = if *prev == SiteClass::Shared {
                            (prev_label.clone(), c.label.clone())
                        } else {
                            (c.label.clone(), prev_label.clone())
                        };
                        let mut d = Diagnostic::new(
                            Code::ClassificationConflict,
                            format!(
                                "access is thread-private in loop `{private_in}` but \
                                 shared in loop `{shared_in}`; the merged expansion \
                                 plan cannot satisfy both"
                            ),
                        );
                        if let Some(e) = index.get(&eid) {
                            d = d.with_span(e.span);
                        }
                        report.push(d);
                    }
                }
                Some(_) => {}
            }
        }
    }
}
