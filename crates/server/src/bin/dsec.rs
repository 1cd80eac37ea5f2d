//! `dsec` — the data-structure-expansion compiler driver.
//!
//! ```text
//! dsec <program.cee> [--threads N] [--opt none|noconst|full] [--baseline]
//!      [--emit source|report|ddg|bytecode|trace|chrome-trace|flamegraph]
//!      [--run] [--serial] [--timing] [--metrics <path|->]
//!      [--in <ints,comma,separated>] [--daemon <socket>]
//! dsec check <program.cee> [--strict] [--json] [--backend] [--threads N]
//!      [--opt none|noconst|full] [--in <ints,comma,separated>]
//!      [--daemon <socket>]
//! dsec profile <program.cee> [--threads N] [--opt none|noconst|full]
//!      [--exec-backend stack|reg] [--in <ints,comma,separated>]
//! ```
//!
//! Examples:
//!
//! ```text
//! dsec prog.cee --emit report                 # what would be privatized
//! dsec prog.cee --emit source --threads 4     # the transformed program
//! dsec prog.cee --run --threads 8             # transform and execute
//! dsec prog.cee --run --serial                # reference run
//! dsec prog.cee --run --timing --metrics -    # telemetry JSON on stdout
//! dsec prog.cee --emit trace > trace.jsonl    # serial execution as JSONL
//! dsec prog.cee --emit chrome-trace > t.json  # Perfetto-loadable timeline
//! dsec prog.cee --emit flamegraph > t.folded  # folded flamegraph stacks
//! dsec prog.cee --emit bytecode --exec-backend reg  # + the register listing
//! dsec prog.cee --run --daemon /tmp/dsed.sock # execute via a dsed daemon
//! dsec check prog.cee                         # soundness lints, text
//! dsec check prog.cee --strict --json         # CI gate, machine-readable
//! dsec profile prog.cee --threads 8           # per-loop opcode hot table
//! ```
//!
//! `dsec check` runs the privatization-soundness verifier (see DESIGN.md,
//! "Verification"): pass 1 cross-checks the profiled classifications
//! against a conservative static dependence approximation, pass 2 checks
//! the transformed output against the Table 1–3 invariants. The same
//! verifier runs automatically on every transform — every drive but
//! `--run --serial`, which executes the untransformed program —
//! and error-severity findings fail the request.
//! `dsec check --backend` additionally verifies both executable encodings
//! (see DESIGN.md, "Backend verification"): stack-bytecode discipline and
//! bounds (`DSE010`/`DSE011`), register window/def-use/spill safety
//! (`DSE012`/`DSE013`), and symbolic stack-vs-register translation
//! validation (`DSE014`/`DSE015`). The same verification gates every
//! register-backend execution automatically (cached as the `regverify`
//! phase); `--run --exec-backend reg --strict` makes the VM itself refuse
//! any translation the verifier has not marked clean.
//!
//! Exit codes: `0` clean; `1` verifier errors (or warnings under
//! `--strict`), compile or runtime failures; `2` usage or I/O errors.
//!
//! `--timing` prints the request's phase trace to stderr: one line per
//! phase the request ran (parse … xform, verify, and under the register
//! backend reglower and regverify) with its wall time, hit or miss, and
//! size stats. `--metrics` writes a `RunMetrics` JSON document
//! (see DESIGN.md, "Observability") to a file, or to stdout with `-`.
//! `--emit trace` executes the *serial* program under a trace observer and
//! streams each sited access, loop event and heap event as one JSON object
//! per line on stdout. `--emit chrome-trace` and `--emit flamegraph`
//! execute the *transformed* program with the runtime trace ring enabled
//! (see DESIGN.md, "Tracing & profiling") and print a Chrome trace-event
//! JSON document (pipeline phases and runtime events on one timeline) or
//! folded flamegraph stacks. `dsec profile` runs the transformed program
//! with the runtime's loop record on, under either backend, and prints a
//! hot-loop table: wall time, iterations, instruction-class mix and exact
//! per-iteration cost quantiles per loop (`-` for a loop that only ran
//! nested inside another's iterations, whose cost is part of those).
//! `--emit bytecode` lists the transformed program's stack bytecode and,
//! under `--exec-backend reg`, its register translation after it: each
//! instruction with the stack pc it came from, the entry map and the
//! window size.
//!
//! `dsec` is a client of the request path `dsed` serves (see DESIGN.md,
//! "The request path"): one parser turns argv — whichever subcommand —
//! into a [`Request`]; the request is answered either in-process by
//! [`dse_server::execute()`] or, with `--daemon <socket>`, by a running
//! daemon over `Request::to_json` / `Response::from_json`; and one
//! renderer prints either answer. What only the in-process transport can
//! offer (`--emit`, `--timing`, `--metrics`, the profile table,
//! `check --json|--backend`) is read out of the same [`Outcome`] the
//! response came from, so nothing is computed twice and nothing runs
//! unverified.

use dse_core::{ArtifactStore, OptLevel, Pipeline};
use dse_runtime::{BackendKind, NullObserver, VmConfig};
use dse_server::execute::{check_verdict, execute, Failure, Outcome, EXIT_USAGE};
use dse_server::protocol::{Cmd, Request, Response};
use dse_telemetry::{Json, LintStats, RunMetrics, TraceObserver};
use dse_verify::diag::Severity;
use dse_verify::sabotage;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// Which subcommand's flag set applies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Drive,
    Check,
    Profile,
}

struct Opts {
    mode: Mode,
    path: String,
    /// The request argv describes: `--threads`, `--opt`, `--baseline`,
    /// `--serial`, `--strict`, `--in` and `--exec-backend` land here.
    req: Request,
    emit: Vec<String>,
    run: bool,
    timing: bool,
    metrics: Option<String>,
    json: bool,
    backend: bool,
    sabotage: Option<sabotage::Kind>,
    daemon: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dsec <program.cee> [--threads N] [--opt none|noconst|full] \
         [--baseline] [--emit source|report|ddg|bytecode|trace|chrome-trace|flamegraph] \
         [--run] [--serial] [--exec-backend stack|reg] [--strict] \
         [--timing] [--metrics <path|->] [--in 1,2,3] [--daemon <socket>]\n\
         \x20      dsec check <program.cee> [--strict] [--json] [--backend] [--threads N] \
         [--opt none|noconst|full] [--in 1,2,3] [--daemon <socket>]\n\
         \x20      dsec profile <program.cee> [--threads N] \
         [--opt none|noconst|full] [--exec-backend stack|reg] [--in 1,2,3]"
    );
    std::process::exit(EXIT_USAGE as i32)
}

/// A usage error with its own message.
fn reject(msg: impl std::fmt::Display) -> ! {
    eprintln!("dsec: {msg}");
    std::process::exit(EXIT_USAGE as i32)
}

const EMITS: [&str; 7] = [
    "source",
    "report",
    "ddg",
    "bytecode",
    "trace",
    "chrome-trace",
    "flamegraph",
];

/// The one argv parser: a subcommand word selects which flags are legal,
/// everything else is shared.
fn parse_args(args: &[String]) -> Opts {
    let (mode, args) = match args.first().map(String::as_str) {
        Some("check") => (Mode::Check, &args[1..]),
        Some("profile") => (Mode::Profile, &args[1..]),
        _ => (Mode::Drive, args),
    };
    let (drive, check) = (mode == Mode::Drive, mode == Mode::Check);
    let mut o = Opts {
        mode,
        path: String::new(),
        req: Request {
            // `--exec-backend` overrides; otherwise DSE_EXEC_BACKEND decides.
            exec_backend: BackendKind::from_env(),
            ..Request::new("dsec", Cmd::Compile)
        },
        emit: Vec::new(),
        run: false,
        timing: false,
        metrics: None,
        json: false,
        backend: false,
        sabotage: None,
        daemon: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match a.as_str() {
            "--threads" => o.req.threads = value().parse().unwrap_or_else(|_| usage()),
            "--opt" => o.req.opt = OptLevel::parse(value()).unwrap_or_else(|| usage()),
            "--in" => {
                o.req.inputs = value()
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--exec-backend" if !check => {
                o.req.exec_backend = BackendKind::parse(value()).unwrap_or_else(|| usage())
            }
            "--strict" if mode != Mode::Profile => o.req.strict = true,
            "--daemon" if mode != Mode::Profile => o.daemon = Some(value().to_string()),
            "--baseline" if drive => o.req.baseline = true,
            "--serial" if drive => o.req.serial = true,
            "--run" if drive => o.run = true,
            "--timing" if drive => o.timing = true,
            "--metrics" if drive => o.metrics = Some(value().to_string()),
            "--emit" if drive => {
                let what = value();
                if !EMITS.contains(&what) {
                    reject(format!("unknown --emit `{what}`"));
                }
                // A repeated value would just print the same artifact twice.
                if !o.emit.iter().any(|e| e == what) {
                    o.emit.push(what.to_string());
                }
            }
            "--json" if check => o.json = true,
            "--backend" if check => o.backend = true,
            // Undocumented: seed one known miscompile before verifying, so
            // CI's mutation-smoke step can prove the checkers fire.
            "--sabotage" if check => {
                let kind = value();
                o.sabotage = Some(
                    sabotage::Kind::parse(kind)
                        .unwrap_or_else(|| reject(format!("unknown --sabotage kind `{kind}`"))),
                );
            }
            other if o.path.is_empty() && !other.starts_with('-') => o.path = other.to_string(),
            _ => usage(),
        }
    }
    if o.path.is_empty() {
        usage();
    }
    if o.sabotage.is_some() && !o.backend {
        reject("--sabotage requires --backend");
    }
    if o.daemon.is_some() {
        if o.backend {
            reject(
                "--backend runs standalone; the daemon verifies translations \
                 automatically on every register-backend run",
            );
        }
        if o.json {
            reject("--json runs standalone; the daemon answers with the rendered text report");
        }
        if !o.emit.is_empty() || o.timing || o.metrics.is_some() {
            reject(
                "--daemon supports plain compile/run requests; \
                 use the standalone driver for --emit/--timing/--metrics",
            );
        }
    }
    o.req.cmd = match mode {
        Mode::Check => Cmd::Check,
        Mode::Profile => Cmd::Run,
        // The traced emits execute the program to have something to show.
        Mode::Drive if o.run || o.traced() => Cmd::Run,
        Mode::Drive => Cmd::Compile,
    };
    if o.req.cmd == Cmd::Run && o.req.serial {
        let needs_transform = |e: &&String| ["source", "report", "bytecode"].contains(&e.as_str());
        if let Some(e) = o.emit.iter().find(needs_transform) {
            reject(format!(
                "--emit {e} needs the transformed program; drop --serial"
            ));
        }
    }
    o
}

impl Opts {
    /// True when an `--emit` needs the runtime trace ring on.
    fn traced(&self) -> bool {
        self.emit
            .iter()
            .any(|e| e == "chrome-trace" || e == "flamegraph")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    answer(parse_args(&args)).unwrap_or_else(|f| {
        eprintln!("dsec: {}", f.message);
        ExitCode::from(f.exit)
    })
}

/// Reads the program into the request and answers it over the chosen
/// transport.
fn answer(mut o: Opts) -> Result<ExitCode, Failure> {
    let source =
        std::fs::read_to_string(&o.path).map_err(|e| Failure::usage(format!("{}: {e}", o.path)))?;
    o.req.source = Some(source);
    match &o.daemon {
        Some(sock) => Ok(render(&daemon_request(sock, &o.req)?, &o)),
        None => standalone(&o),
    }
}

/// The one place a response — computed in-process or by a daemon —
/// reaches the terminal: findings, the failure, and on `--run` the
/// program's own output and exit code.
fn render(resp: &Response, o: &Opts) -> ExitCode {
    for d in &resp.diagnostics {
        if o.mode == Mode::Check {
            println!("{d}");
        } else {
            eprintln!("dsec: {d}");
        }
    }
    if let Some(err) = &resp.error {
        eprintln!("dsec: {err}");
    }
    if !o.run {
        // A run made only to feed an instrument shows the instrument.
        return ExitCode::from(if resp.ok { 0 } else { (resp.exit & 0xff) as u8 });
    }
    print!("{}", resp.console);
    if !resp.out_long.is_empty() {
        println!("out_long: {:?}", resp.out_long);
    }
    if !resp.out_float.is_empty() {
        println!("out_float: {:?}", resp.out_float);
    }
    ExitCode::from((resp.exit & 0xff) as u8)
}

/// One request/response round trip over the daemon's unix socket.
fn daemon_request(sock: &str, req: &Request) -> Result<Response, Failure> {
    use std::io::{BufRead, BufReader};
    let io = |e: std::io::Error| Failure::usage(format!("{sock}: {e}"));
    let mut stream = std::os::unix::net::UnixStream::connect(sock).map_err(io)?;
    stream
        .write_all(format!("{}\n", req.to_json()).as_bytes())
        .map_err(io)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(io)?;
    if line.trim().is_empty() {
        return Err(Failure::diag(
            "daemon closed the connection without a response",
        ));
    }
    Json::parse(line.trim())
        .map_err(|e| e.to_string())
        .and_then(|j| Response::from_json(&j))
        .map_err(|e| Failure::diag(format!("bad daemon response: {e}")))
}

/// Executes the request in-process and serves every consumer — the
/// response renderer, `--emit` handlers, `--timing`, `--metrics`, the
/// profile table — from the one [`Outcome`].
fn standalone(o: &Opts) -> Result<ExitCode, Failure> {
    // One process-local artifact store: the request, the `--emit trace`
    // re-run and `check --backend` share phase artifacts through it.
    let store = ArtifactStore::new();
    let instruments = VmConfig {
        trace: o.traced(),
        profile: o.mode == Mode::Profile,
        ..Default::default()
    };
    let mut outcome = execute(&store, &o.req, instruments, &mut NullObserver);
    if let Some(f) = outcome.failure.as_ref().filter(|f| f.exit == EXIT_USAGE) {
        return Err(f.clone());
    }
    if o.backend {
        check_backend(o, &store, &mut outcome)?;
    }
    let mut resp = outcome.response(&o.req);
    if let (true, Some(report)) = (o.json, &outcome.report) {
        resp.diagnostics = vec![report.to_json().to_string()];
    }
    if !resp.ok {
        return Ok(render(&resp, o));
    }
    emit_all(o, &store, &outcome)?;
    let exit = render(&resp, o);

    if let Some((vm, report)) = &outcome.run {
        if o.mode == Mode::Profile {
            print!("{}", render_profile(&vm.profile(), vm.program()));
        }
        if o.run {
            eprintln!(
                "[{} instructions, peak heap {} bytes]",
                report.counters.work, report.peak_heap_bytes
            );
            if report.pool.workers > 0 {
                eprintln!(
                    "[pool: {} workers, {} dispatches, {} steals, {} parks, {} wakeups]",
                    report.pool.workers,
                    report.pool.dispatches,
                    report.pool.steals,
                    report.pool.parks,
                    report.pool.wakeups
                );
            }
        }
    }
    if o.timing {
        let mut out = String::new();
        for p in &outcome.trace {
            p.render(&mut out);
        }
        eprint!("{out}");
    }
    if let Some(dest) = &o.metrics {
        let mut server = store.stats();
        server.requests = 1;
        let metrics = RunMetrics {
            program: o.path.clone(),
            threads: if o.req.serial { 1 } else { o.req.threads },
            opt: o.req.opt.name().to_string(),
            phases: outcome.trace.clone(),
            loops: outcome
                .analysis
                .as_ref()
                .expect("request succeeded")
                .analysis
                .loop_stats(),
            expansion: outcome
                .transformed
                .as_ref()
                .map(|t| t.transformed.report.telemetry_stats()),
            lints: outcome.report.as_ref().map(|r| LintStats {
                errors: r.count(Severity::Error) as u64,
                warnings: r.count(Severity::Warning) as u64,
                infos: r.count(Severity::Info) as u64,
            }),
            vm: outcome
                .run
                .as_ref()
                .map(|(_, report)| dse_telemetry::metrics::VmStats::from_report(report)),
            server: Some(server),
        };
        let text = format!("{}\n", metrics.to_json());
        if dest == "-" {
            std::io::stdout()
                .write_all(text.as_bytes())
                .map_err(Failure::usage)?;
        } else {
            std::fs::write(dest, text).map_err(|e| Failure::usage(format!("{dest}: {e}")))?;
        }
    }
    Ok(exit)
}

/// `dsec check --backend`: extends the request's findings with the
/// backend verification of both executable encodings (or of one seeded
/// miscompile) and re-derives the verdict.
fn check_backend(o: &Opts, store: &ArtifactStore, outcome: &mut Outcome) -> Result<(), Failure> {
    let (Some(art), Some(report)) = (&outcome.analysis, &outcome.report) else {
        return Ok(()); // analysis failed; the response says why
    };
    let mut report = (**report).clone();
    let serial = &art.analysis.serial;
    let lowering =
        |e: &dyn std::fmt::Display| Failure::diag(format!("register lowering failed: {e}"));
    let parallel = outcome
        .transformed
        .as_ref()
        .map(|t| &t.transformed.parallel);
    match o.sabotage {
        None => {
            // Verify both executable encodings of both programs, through
            // the cached `regverify` phase like the implicit run gate.
            let pipeline = Pipeline::new(store);
            for prog in std::iter::once(serial).chain(parallel) {
                let regart = pipeline
                    .reglower(prog, &mut outcome.trace)
                    .map_err(|e| lowering(&e))?;
                let found =
                    dse_verify::check_backend_cached(store, prog, &regart, &mut outcome.trace);
                report.extend((*found).clone());
            }
        }
        Some(kind) => {
            let seeded = if kind.is_stack() {
                let mut p = serial.clone();
                sabotage::sabotage_stack(&mut p, kind).then(|| dse_verify::check_stack(&p))
            } else {
                // The first of the two programs that offers a site: only
                // the transformed one has tid-addressed accesses.
                let mut seeded = None;
                for prog in std::iter::once(serial).chain(parallel) {
                    let mut rp = dse_ir::regcode::translate(prog).map_err(|e| lowering(&e))?;
                    if sabotage::sabotage_reg(prog, &mut rp, kind) {
                        seeded = Some(dse_verify::check_backend(prog, &rp));
                        break;
                    }
                }
                seeded
            };
            report.extend(seeded.ok_or_else(|| {
                Failure::usage(format!(
                    "program offers no site for sabotage `{}`",
                    kind.name()
                ))
            })?);
        }
    }
    report.sort();
    if outcome.failure.is_none() {
        outcome.failure = check_verdict(&report, o.req.strict).err();
    }
    outcome.report = Some(Arc::new(report));
    Ok(())
}

/// Prints every `--emit` artifact of a successful request, in argv order.
fn emit_all(o: &Opts, store: &ArtifactStore, outcome: &Outcome) -> Result<(), Failure> {
    if o.emit.is_empty() {
        return Ok(());
    }
    let analysis = &outcome
        .analysis
        .as_ref()
        .expect("request succeeded")
        .analysis;
    let transformed = || {
        &outcome
            .transformed
            .as_ref()
            .expect("parse_args rejects transform emits on a serial run")
            .transformed
    };
    // The traced run's events, shifted from the VM's epoch (`Vm::new`) onto
    // the store's so pipeline phase spans and runtime events share one
    // timeline.
    let traced = outcome.run.as_ref().filter(|_| o.traced()).map(|(vm, _)| {
        let (mut events, dropped) = vm.take_trace();
        let shift = vm
            .trace_epoch()
            .map(|e| e.saturating_duration_since(store.epoch()).as_nanos() as u64)
            .unwrap_or(0);
        for ev in &mut events {
            ev.ts_ns += shift;
        }
        (events, dropped)
    });
    for emit in &o.emit {
        match emit.as_str() {
            "ddg" => {
                for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
                    println!(
                        "loop `{}`: {} iterations, {} sites, {} edges, mode {:?}",
                        ddg.label,
                        ddg.iterations,
                        ddg.site_counts.len(),
                        ddg.edges.len(),
                        cls.mode
                    );
                    let b = cls.access_breakdown(ddg);
                    let (f, e, c) = b.fractions();
                    println!(
                        "  accesses: {:.1}% free, {:.1}% expandable, {:.1}% carried",
                        100.0 * f,
                        100.0 * e,
                        100.0 * c
                    );
                }
            }
            "report" => {
                let t = transformed();
                let r = &t.report;
                println!("expansion report (N = {}, {:?}):", o.req.threads, o.req.opt);
                println!(
                    "  privatized data structures: {}",
                    r.privatized_structures()
                );
                println!("    heap allocation sites:    {}", r.expanded_allocs);
                println!("    globals:                  {}", r.expanded_globals);
                println!("    aggregate locals:         {}", r.expanded_locals);
                println!("  expanded scalars:           {}", r.expanded_scalar_locals);
                println!("  fat pointer types:          {}", r.fat_pointer_types);
                for line in t.plan.fat_cause_lines(&analysis.program) {
                    println!("    {line}");
                }
                println!("  span-carrying integers:     {}", r.fat_int_vars);
                println!(
                    "  span stores inserted:       {} ({} elided)",
                    r.span_stores_emitted, r.span_stores_elided
                );
                println!(
                    "  private accesses redirected: {}",
                    r.private_accesses_redirected
                );
                println!(
                    "  redirections hoisted:       {} ({} re-derived)",
                    r.redirections_hoisted, r.redirections_rederived
                );
                for (label, mode) in &t.modes {
                    println!("  loop `{label}` scheduled {mode:?}");
                }
                if o.req.exec_backend == BackendKind::Reg {
                    print!("{}", render_registers(&t.program, &t.parallel)?);
                }
            }
            "source" => print!(
                "{}",
                dse_lang::printer::print_program(&transformed().program)
            ),
            "bytecode" => {
                let parallel = &transformed().parallel;
                print!("{}", dse_ir::disasm::disassemble(parallel));
                if o.req.exec_backend == BackendKind::Reg {
                    let rp = dse_ir::regcode::translate(parallel).map_err(Failure::diag)?;
                    print!("{}", dse_ir::disasm::disassemble_reg(&rp));
                }
            }
            "flamegraph" => {
                let (events, _) = traced
                    .as_ref()
                    .expect("traced emits make the request a run");
                print!("{}", dse_telemetry::flamegraph_folded(events));
                eprintln!("[flamegraph: {} events]", events.len());
            }
            "chrome-trace" => {
                let (events, dropped) = traced
                    .as_ref()
                    .expect("traced emits make the request a run");
                let doc = dse_telemetry::chrome_trace(events, &outcome.trace, *dropped);
                println!("{doc}");
                eprintln!("[chrome-trace: {} events, {dropped} dropped]", events.len());
            }
            "trace" => {
                // The observer sees what the profiler sees: a serial
                // execution (parallel regions run unobserved by design),
                // through the same path and the same cached artifacts.
                let serial = Request {
                    cmd: Cmd::Run,
                    serial: true,
                    ..o.req.clone()
                };
                let stdout = std::io::stdout();
                let mut obs = TraceObserver::new(std::io::BufWriter::new(stdout.lock()));
                let run = execute(store, &serial, VmConfig::default(), &mut obs);
                if let Some(f) = run.failure {
                    return Err(f);
                }
                let events = obs.events();
                obs.finish().map_err(Failure::diag)?;
                eprintln!("[trace: {events} events]");
            }
            other => unreachable!("--emit values validated in parse_args: {other}"),
        }
    }
    Ok(())
}

/// `--emit report` under the register backend: per region of the
/// transformed program, what its translation keeps in registers and, for
/// each declared object (or global replica) it reaches in memory, why.
fn render_registers(
    program: &dse_lang::ast::Program,
    prog: &dse_ir::bytecode::CompiledProgram,
) -> Result<String, Failure> {
    use dse_ir::{Place, Why};
    let flow = dse_ir::analyze_stack(prog)
        .map_err(|e| Failure::diag(format!("register lowering failed: {e}")))?;
    let (plan, kept) = dse_ir::promotion_report(prog, &flow);
    let replicas = dse_ir::global_replicas(prog, &flow);
    let (global_addrs, _) = dse_ir::lower::layout_globals(program);
    let at =
        |span: Option<dse_lang::SourceSpan>| span.map_or(String::new(), |s| format!(" at {s}"));
    let nf = prog.funcs.len();
    let mut out = String::new();
    for (o, places) in plan.places.iter().enumerate() {
        let owner = o as u32;
        let tid = places
            .iter()
            .filter(|p| matches!(p.place, Place::FrameTid { .. }))
            .count();
        let plain = places.len() - tid;
        let promoted = match (tid, plain) {
            (0, 0) => "nothing".to_string(),
            (0, n) if o < nf => format!("{n} frame"),
            (t, 0) => format!("{t} tid"),
            (t, n) => format!("{t} tid, {n} read-only"),
        };
        // The function whose frame the region runs in names the objects.
        let func = flow.func_of[o] as usize;
        let name_of = |off: u32| {
            let named = || {
                let i = prog
                    .funcs
                    .get(func)?
                    .locals
                    .iter()
                    .position(|&(o, _)| o == off)?;
                Some(program.functions.get(func)?.locals.get(i)?.name.clone())
            };
            named().unwrap_or_else(|| format!("frame+{off}"))
        };
        let mut memory: Vec<String> = Vec::new();
        let mut shares_code = false;
        for k in kept.iter().filter(|k| k.owner == owner) {
            let why = match k.why {
                Why::SharedCode => {
                    shares_code = true;
                    continue;
                }
                Why::Escaped => "indexed or address taken".to_string(),
                Why::StoredByBody(by) => format!("stored by {}", flow.owner_name(prog, by)),
                Why::Mixed => "mixed access shapes".to_string(),
            };
            let span = dse_ir::access_near(prog, k.pc);
            memory.push(format!("`{}` ({why}{})", name_of(k.off), at(span)));
        }
        for &(_, addr, span) in replicas.iter().filter(|r| r.0 == owner) {
            let name = global_addrs
                .iter()
                .position(|&a| a == addr)
                .and_then(|g| program.globals.get(g))
                .map_or_else(|| format!("global@{addr}"), |g| g.name.clone());
            memory.push(format!("`{name}` (global replica{})", at(span)));
        }
        let mut line = format!(
            "  registers in {}: {promoted} promoted",
            flow.owner_name(prog, owner)
        );
        if shares_code {
            line.push_str(" (it shares code with another region)");
        }
        if !memory.is_empty() {
            line.push_str("; in memory: ");
            line.push_str(&memory.join(", "));
        }
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// The hot-loop table: one row per loop (the VM pre-sorts by wall time,
/// then instructions), with the class mix and the exact quantiles of the
/// recorded iteration costs (`-` where none were recorded).
fn render_profile(
    profiles: &[dse_runtime::LoopProfile],
    prog: &dse_ir::bytecode::CompiledProgram,
) -> String {
    use dse_runtime::{CLASS_NAMES, SERIAL_LOOP};
    let total: u64 = profiles.iter().map(|p| p.total_instructions()).sum();
    let mut out = format!(
        "{:<16} {:>9} {:>10} {:>12} {:>6} {:>7} {:>7} {:>7}  top classes\n",
        "loop", "wall ms", "iters", "instr", "%", "p50", "p90", "p99"
    );
    for p in profiles {
        let name = if p.loop_id == SERIAL_LOOP {
            "(serial)".to_string()
        } else {
            prog.loops
                .get(p.loop_id as usize)
                .map(|l| format!("`{}`", l.label))
                .unwrap_or_else(|| format!("loop {}", p.loop_id))
        };
        let instr = p.total_instructions();
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * instr as f64 / total as f64
        };
        let mut classes: Vec<(usize, u64)> = p
            .class_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        classes.sort_by_key(|c| std::cmp::Reverse(c.1));
        let mix = classes
            .iter()
            .take(3)
            .map(|&(i, c)| {
                format!(
                    "{} {:.0}%",
                    CLASS_NAMES[i],
                    100.0 * c as f64 / instr.max(1) as f64
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let quantile = |q| {
            p.cost_quantile(q)
                .map_or("-".to_string(), |c| c.to_string())
        };
        out.push_str(&format!(
            "{:<16} {:>9.3} {:>10} {:>12} {:>5.1}% {:>7} {:>7} {:>7}  {mix}\n",
            name,
            p.wall_ns as f64 / 1e6,
            p.iters,
            instr,
            pct,
            quantile(0.5),
            quantile(0.9),
            quantile(0.99),
        ));
    }
    out
}
