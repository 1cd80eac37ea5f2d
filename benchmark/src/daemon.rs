//! `daemon_mixed`: one in-process `Server`, warmed with a `run` of every
//! program, then one closed-loop client calling `Server::handle` with a
//! seeded mix of warm runs, warm compiles, comment-edit checks and
//! semantic-edit runs. The client is the only busy thread (`threads: 1`
//! requests never wake the VM's pool): on the 2-vCPU host this benchmark
//! is sized for, two busy threads run at anything between full and half
//! speed each depending on where the hypervisor has put the vCPUs that
//! minute (README.md, "Measured spread"), and a second client would make
//! every daemon metric follow that instead of the code.

use crate::inputs::{request_stream, PlannedRequest, ReqKind, COVER_REQUESTS, MIX};
use crate::metrics::Values;
use crate::programs::{Outputs, Program};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{Budget, Pass};
use dse_runtime::BackendKind;
use dse_server::protocol::{Cmd, Request, Response};
use dse_server::{Server, ServerConfig};

/// Requests that make one "round" of a budget: the stream's opening pass
/// over every cell, which a timed region therefore always completes.
const REQUESTS_PER_ROUND: usize = COVER_REQUESTS;

fn request(p: &Program, plan: PlannedRequest) -> Request {
    let (cmd, source) = match plan.kind {
        ReqKind::RunWarm => (Cmd::Run, p.source.to_string()),
        ReqKind::CompileWarm => (Cmd::Compile, p.source.to_string()),
        // A unique trailing comment: new text, same AST.
        ReqKind::CheckEdit => (
            Cmd::Check,
            format!("{}\n// edit {:016x}\n", p.source, plan.edit_id),
        ),
        // A unique uncalled function: the bytecode and with it every
        // content key changes, the outputs do not. (An unused global would
        // leave the disassembly, and so the profile key, unchanged.)
        ReqKind::RunMiss => (
            Cmd::Run,
            format!(
                "{}\nint __edit_{:016x}() {{ return {}; }}\n",
                p.source,
                plan.edit_id,
                plan.edit_id % 1_000_000_007
            ),
        ),
    };
    Request {
        source: Some(source),
        threads: 1,
        inputs: p.profile_inputs.clone(),
        exec_backend: BackendKind::Reg,
        ..Request::new(format!("{:x}", plan.edit_id), cmd)
    }
}

/// What a correct response to `req` looks like.
fn check(p: &Program, req: &Request, resp: &Response) -> Result<(), String> {
    if !resp.ok
        || resp.exit
            != if req.cmd == Cmd::Run {
                p.reference_profile.exit
            } else {
                0
            }
    {
        return Err(format!(
            "{} {}: failed (exit {}): {}",
            req.cmd.as_str(),
            p.name,
            resp.exit,
            resp.error.as_deref().unwrap_or("no error text")
        ));
    }
    if req.cmd == Cmd::Run {
        let got = Outputs::new(resp.out_long.clone(), &resp.out_float, resp.exit);
        if got != p.reference_profile {
            return Err(format!(
                "run {}: outputs {got:?} differ from the reference",
                p.name
            ));
        }
    }
    Ok(())
}

/// A default-configured daemon that has served one `run` of each program.
pub fn warm_server(programs: &[Program], tr: &mut Tracer) -> Result<Server, String> {
    let server = Server::new(&ServerConfig::default());
    for program in 0..programs.len() {
        let plan = PlannedRequest {
            kind: ReqKind::RunWarm,
            program,
            edit_id: program as u64,
        };
        send(&server, programs, plan, tr)?;
    }
    Ok(server)
}

/// One finished request.
struct Sample {
    kind: ReqKind,
    program: usize,
    handle_ms: f64,
    phase_ms: f64,
}

/// One request as the client sees it: build, `handle`, check.
fn send(
    server: &Server,
    programs: &[Program],
    plan: PlannedRequest,
    tr: &mut Tracer,
) -> Result<Sample, String> {
    let p = &programs[plan.program];
    let req = request(p, plan);
    let (verdict, _) = tr.op("client.request", p.name, plan.kind.name(), |tr| {
        let (resp, handle_ms) = tr.span("server.handle", |tr| {
            let started_ns = tr.open_start_ns();
            let resp = server.handle(&req);
            // The response carries each phase's nanoseconds but no
            // timestamps; phases run back to back from the start of
            // `handle`, and what remains of it (its self time) is the VM
            // and the response.
            let mut at = started_ns;
            for ph in &resp.phases {
                at = tr.child_interval(phase_name(&ph.phase), at, ph.ns);
            }
            resp
        });
        let phase_ms = resp.phases.iter().map(|ph| ph.ns as f64 / 1e6).sum();
        let (ok, _) = tr.span("bench.check", |_| check(p, &req, &resp));
        ok.map(|()| Sample {
            kind: plan.kind,
            program: plan.program,
            handle_ms,
            phase_ms,
        })
    });
    verdict
}

/// The daemon's phase names as static strings for the span list.
fn phase_name(phase: &str) -> &'static str {
    const NAMES: [&str; 9] = [
        "parse",
        "lower",
        "profile",
        "classify",
        "plan",
        "xform",
        "verify",
        "reglower",
        "regverify",
    ];
    NAMES
        .iter()
        .find(|n| **n == phase)
        .copied()
        .unwrap_or("phase")
}

/// One timed region: the client sends until the budget is spent.
///
/// `stream` numbers the request stream: a second pass on the same server
/// must not replay the first one's edits, or its misses would hit.
pub fn pass(
    server: &Server,
    programs: &[Program],
    seed: u64,
    stream: u64,
    budget: Budget,
    tr: &mut Tracer,
) -> Pass {
    let mut out = Pass::default();
    let mut samples = Vec::new();
    let clock = budget.start();
    for (n, plan) in request_stream(seed, stream).enumerate() {
        if clock.done(n / REQUESTS_PER_ROUND) {
            break;
        }
        out.attempted += 1;
        match send(server, programs, plan, tr) {
            Ok(s) => samples.push(s),
            Err(e) => out.fail(e),
        }
    }
    let elapsed_s = clock.elapsed_s();

    let all: Vec<f64> = samples.iter().map(|s| s.handle_ms).collect();
    let w = &mut out.whole;
    w.insert("request_ms_p50", median(&all));
    w.insert("request_ms_p99", percentile(&all, 99.0));
    w.insert("requests_per_s", ratio(all.len() as f64, elapsed_s));
    let phase: Vec<f64> = samples.iter().map(|s| s.phase_ms).collect();
    let nonphase: Vec<f64> = samples.iter().map(|s| s.handle_ms - s.phase_ms).collect();
    w.insert("server.phase_ms_total", median(&phase));
    w.insert("server.nonphase_ms", median(&nonphase));
    for (kind, name) in ReqKind::ALL.into_iter().zip([
        "server.handle_ms_run_warm",
        "server.handle_ms_compile_warm",
        "server.handle_ms_check_edit",
        "server.handle_ms_run_miss",
    ]) {
        let of_kind: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.handle_ms)
            .collect();
        w.insert(name, median(&of_kind));
        out.samples.push((kind.name().to_string(), of_kind.len()));
    }

    let stats = server.stats();
    let (hits, misses) = (stats.total_hits() as f64, stats.total_misses() as f64);
    w.insert("core.cache_hit_ratio", ratio(hits, hits + misses));
    let sum = |f: fn(&dse_telemetry::PhaseCacheStat) -> u64| -> f64 {
        stats.phases.iter().map(f).sum::<u64>() as f64
    };
    w.insert("core.cache_dedups", sum(|p| p.dedups));
    w.insert("core.cache_evictions", sum(|p| p.evictions));
    w.insert("server.failures", stats.failures as f64);

    // Per program: the best-case time of the request mix, i.e. each kind's
    // fastest `handle` weighted by the kind's share. (A program lacks a
    // kind only if that request failed; it then reports no row.)
    for (i, p) in programs.iter().enumerate() {
        let best = |kind| {
            let of_cell = samples.iter().filter(|s| s.kind == kind && s.program == i);
            of_cell.map(|s| s.handle_ms).reduce(f64::min)
        };
        let mix: Option<Vec<f64>> = ReqKind::ALL.into_iter().map(best).collect();
        if let Some(mix) = mix {
            let weighted = mix.iter().zip(MIX).map(|(ms, share)| ms * share).sum();
            out.programs
                .push((p.name.to_string(), Values::from([("op_ms_min", weighted)])));
        }
    }
    out
}
