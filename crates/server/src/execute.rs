//! The one request path. Every way into the system — `dsed` requests,
//! standalone `dsec` drives, `dsec check`, `dsec profile` — is a
//! [`Request`] handed to [`execute`], which runs
//!
//! ```text
//! analyze → transform → verify → [reglower → regverify] → Vm → run
//! ```
//!
//! through one [`ArtifactStore`] and returns an [`Outcome`]: the artifacts
//! it obtained, the finished VM, or the failure. The daemon turns the
//! outcome into a wire [`Response`]; `dsec` does the same and additionally
//! reads the artifacts for its `--emit`/`--timing`/`--metrics` consumers.
//! Because there is no second path, the verifier is the same gate on all
//! of them.

use crate::protocol::{Cmd, PhaseLine, Request, Response};
use dse_core::{AnalysisArt, ArtifactStore, Pipeline, Trace, TransformArt};
use dse_runtime::{BackendKind, RunReport, Value, Vm, VmConfig};
use dse_verify::diag::{Report, Severity};
use std::sync::Arc;

/// Exit code of verifier errors (or strict-mode warnings), compile and
/// runtime failures.
pub const EXIT_DIAG: u8 = 1;
/// Exit code of a malformed request: bad command line, unreadable input.
pub const EXIT_USAGE: u8 = 2;

/// Why a request stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The message to show the user.
    pub message: String,
    /// What `dsec` exits with: [`EXIT_DIAG`] or [`EXIT_USAGE`]. (On the
    /// wire every failed request carries exit 1.)
    pub exit: u8,
}

impl Failure {
    /// A compile, verification or runtime failure ([`EXIT_DIAG`]).
    pub fn diag(message: impl ToString) -> Failure {
        Failure {
            message: message.to_string(),
            exit: EXIT_DIAG,
        }
    }

    /// A malformed request or an I/O problem ([`EXIT_USAGE`]).
    pub fn usage(message: impl ToString) -> Failure {
        Failure {
            message: message.to_string(),
            exit: EXIT_USAGE,
        }
    }
}

/// Everything one request produced, as far as it got.
#[derive(Default)]
pub struct Outcome {
    /// Per-phase cache outcomes, in execution order.
    pub trace: Trace,
    /// The profiled and classified program.
    pub analysis: Option<Arc<AnalysisArt>>,
    /// The transformed program (absent for `run --serial`).
    pub transformed: Option<Arc<TransformArt>>,
    /// The verifier's findings on the transform (pass 1 alone when a
    /// `check` request's transform failed).
    pub report: Option<Arc<Report>>,
    /// `run`: the VM after the program finished, and its report.
    pub run: Option<(Vm, RunReport)>,
    /// Set when the request did not complete.
    pub failure: Option<Failure>,
}

impl Outcome {
    /// The wire form of this outcome.
    pub fn response(&self, req: &Request) -> Response {
        let mut resp = match &self.failure {
            Some(f) => Response::failure(&req.id, &f.message),
            None => Response {
                id: req.id.clone(),
                ok: true,
                ..Response::default()
            },
        };
        if let Some(report) = &self.report {
            resp.diagnostics = if req.cmd == Cmd::Check {
                report.render_text().lines().map(str::to_string).collect()
            } else {
                report.diagnostics.iter().map(|d| d.render()).collect()
            };
        }
        if let Some((vm, report)) = &self.run {
            resp.console = vm.console();
            resp.out_long = vm.outputs_int();
            resp.out_float = vm.outputs_float();
            if let Some(Value::I(code)) = report.return_value {
                resp.exit = code & 0xff;
            }
        }
        resp.phases = PhaseLine::from_trace(&self.trace);
        resp
    }
}

/// The verdict of a `check` request on its findings.
///
/// # Errors
///
/// The failure when `report` has errors, or warnings under `strict`.
pub fn check_verdict(report: &Report, strict: bool) -> Result<(), Failure> {
    if report.should_fail(strict) {
        return Err(Failure::diag("verifier findings"));
    }
    Ok(())
}

/// Executes a `run`, `compile` or `check` request against `store`.
///
/// `instruments` supplies the VM instrumentation a caller wants on a
/// `run` (`trace`, `profile`); the program, thread
/// count, inputs, backend and strictness always come from `req`.
pub fn execute(store: &ArtifactStore, req: &Request, instruments: VmConfig) -> Outcome {
    let mut out = Outcome::default();
    out.failure = drive(store, req, instruments, &mut out).err();
    out
}

fn drive(
    store: &ArtifactStore,
    req: &Request,
    instruments: VmConfig,
    out: &mut Outcome,
) -> Result<(), Failure> {
    if req.threads == 0 {
        return Err(Failure::usage("bad `threads`"));
    }
    let source = req
        .source
        .as_deref()
        .ok_or_else(|| Failure::usage("request needs `source`"))?;
    let profile_config = VmConfig {
        inputs_int: req.inputs.clone(),
        ..Default::default()
    };
    let pipeline = Pipeline::new(store);
    let art = pipeline
        .analyze(source, &profile_config, &mut out.trace)
        .map_err(Failure::diag)?;
    out.analysis = Some(Arc::clone(&art));

    // `run --serial` executes the untransformed program; everything else
    // transforms, and every transform is verified before its output is
    // used (`check` reports pass 1 even when the transform fails).
    if !(req.cmd == Cmd::Run && req.serial) {
        let transform =
            pipeline.transform(&art, req.opt, req.threads, req.baseline, &mut out.trace);
        let t = match transform {
            Ok(t) => t,
            Err(e) if req.cmd == Cmd::Check => {
                out.report = Some(Arc::new(dse_verify::check_all(&art.analysis, None)));
                return Err(Failure::diag(format!("transform failed: {e}")));
            }
            Err(e) => return Err(Failure::diag(e)),
        };
        let report = dse_verify::check_cached(store, &art.analysis, &t, &mut out.trace);
        out.transformed = Some(t);
        out.report = Some(Arc::clone(&report));
        if req.cmd == Cmd::Check {
            return check_verdict(&report, req.strict);
        }
        if report.should_fail(req.strict) {
            let findings = match report.count(Severity::Error) {
                0 => format!(
                    "{} warning(s) under --strict",
                    report.count(Severity::Warning)
                ),
                errors => format!("{errors} error(s)"),
            };
            return Err(Failure::diag(format!(
                "verification failed with {findings}; see `dsec check`"
            )));
        }
    }
    if req.cmd != Cmd::Run {
        return Ok(());
    }

    let (compiled, code_hash, nthreads) = match &out.transformed {
        Some(t) => (t.transformed.parallel.clone(), t.code_hash(), req.threads),
        None => (art.analysis.serial.clone(), art.code_hash, 1),
    };
    let config = VmConfig {
        nthreads,
        inputs_int: req.inputs.clone(),
        backend: req.exec_backend,
        ..instruments
    };
    // Register code only ever runs verified: the lowering and its
    // verification are cached phases, and a lowering bug surfaces as a
    // failed request. Each artifact computes its program's fingerprint
    // once, so a warm run finds its translation without rendering the
    // program.
    let mut vm = match req.exec_backend {
        BackendKind::Stack => Vm::new(compiled, config).map_err(Failure::diag),
        BackendKind::Reg => {
            dse_verify::verified_reg_vm(&pipeline, compiled, code_hash, config, &mut out.trace)
                .map_err(Failure::diag)
        }
    }?;
    let report = vm.run().map_err(Failure::diag)?;
    out.run = Some((vm, report));
    Ok(())
}
