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
//!      [--in <ints,comma,separated>]
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
//! verifier runs automatically before `--emit source|report|bytecode`,
//! `--run` and `--metrics`; error-severity findings abort the drive.
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
//! `--timing` prints the phase timeline (parse, lower, profile, classify,
//! plan, xform) to stderr. `--metrics` writes a `RunMetrics` JSON document
//! (see DESIGN.md, "Observability") to a file, or to stdout with `-`.
//! `--emit trace` executes the *serial* program under a trace observer and
//! streams each sited access, loop event and heap event as one JSON object
//! per line on stdout. `--emit chrome-trace` and `--emit flamegraph`
//! execute the *transformed* program with the runtime trace ring enabled
//! (see DESIGN.md, "Tracing & profiling") and print a Chrome trace-event
//! JSON document (pipeline phases and runtime events on one timeline) or
//! folded flamegraph stacks. `dsec profile` runs the transformed program
//! under the attributing opcode profiler and prints a hot-loop table:
//! wall time, iterations, instruction-class mix and per-iteration cost
//! quantiles per loop.
//!
//! Every drive runs through the content-addressed pipeline
//! ([`dse_core::Pipeline`]): phases are computed once per process and
//! shared by every consumer (`--emit` handlers, the executed program, the
//! verifier, the telemetry snapshot). `--daemon <socket>` sends the request
//! to a running `dsed` daemon instead (see DESIGN.md, "The dsed daemon"),
//! where the same cache is shared across *processes and requests*.

use dse_core::{Analysis, ArtifactStore, OptLevel, Pipeline, Trace, TransformArt};
use dse_runtime::{BackendKind, Vm, VmConfig};
use dse_telemetry::{Json, LintStats, RunMetrics, TraceObserver};
use dse_verify::diag::Severity;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// Verifier errors (or strict-mode warnings), compile and runtime failures.
const EXIT_DIAG: u8 = 1;
/// Bad command line, unreadable input, unwritable output.
const EXIT_USAGE: u8 = 2;

struct Opts {
    path: String,
    threads: u32,
    opt: OptLevel,
    baseline: bool,
    emit: Vec<String>,
    run: bool,
    serial: bool,
    timing: bool,
    metrics: Option<String>,
    inputs: Vec<i64>,
    daemon: Option<String>,
    backend: BackendKind,
    strict: bool,
}

/// A drive failure, split by which exit code it maps to.
enum Fail {
    /// File system problem: exit 2.
    Io(String),
    /// Compile or runtime problem: exit 1.
    Other(String),
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
         [--opt none|noconst|full] [--in 1,2,3]"
    );
    std::process::exit(EXIT_USAGE as i32)
}

fn parse_opt_level(s: Option<&str>) -> OptLevel {
    match s {
        Some("none") => OptLevel::None,
        Some("noconst") => OptLevel::NoConstSpan,
        Some("full") => OptLevel::Full,
        _ => usage(),
    }
}

fn opt_name(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::None => "none",
        OptLevel::NoConstSpan => "noconst",
        OptLevel::Full => "full",
    }
}

fn parse_inputs(list: &str) -> Vec<i64> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
        .collect()
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        path: String::new(),
        threads: 4,
        opt: OptLevel::Full,
        baseline: false,
        emit: Vec::new(),
        run: false,
        serial: false,
        timing: false,
        metrics: None,
        inputs: Vec::new(),
        daemon: None,
        // `--exec-backend` overrides; otherwise DSE_EXEC_BACKEND decides.
        backend: BackendKind::from_env(),
        strict: false,
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                o.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--opt" => o.opt = parse_opt_level(args.next().map(String::as_str)),
            "--baseline" => o.baseline = true,
            "--emit" => {
                let what = args.next().unwrap_or_else(|| usage()).clone();
                if !matches!(
                    what.as_str(),
                    "source"
                        | "report"
                        | "ddg"
                        | "bytecode"
                        | "trace"
                        | "chrome-trace"
                        | "flamegraph"
                ) {
                    eprintln!("dsec: unknown --emit `{what}`");
                    std::process::exit(EXIT_USAGE as i32);
                }
                // A repeated value would just print the same artifact twice.
                if !o.emit.contains(&what) {
                    o.emit.push(what);
                }
            }
            "--run" => o.run = true,
            "--serial" => o.serial = true,
            "--strict" => o.strict = true,
            "--timing" => o.timing = true,
            "--metrics" => o.metrics = Some(args.next().unwrap_or_else(|| usage()).clone()),
            "--in" => o.inputs = parse_inputs(args.next().unwrap_or_else(|| usage())),
            "--exec-backend" => {
                o.backend = args
                    .next()
                    .and_then(|s| BackendKind::parse(s))
                    .unwrap_or_else(|| usage())
            }
            "--daemon" => o.daemon = Some(args.next().unwrap_or_else(|| usage()).clone()),
            "--help" | "-h" => usage(),
            other if o.path.is_empty() && !other.starts_with('-') => o.path = other.to_string(),
            _ => usage(),
        }
    }
    if o.path.is_empty() {
        usage();
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        return check_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("profile") {
        return profile_main(&args[1..]);
    }
    let o = parse_opts(&args);
    let result = match &o.daemon {
        Some(sock) => daemon_drive(&o, sock),
        None => drive(&o),
    };
    match result {
        Ok(code) => code,
        Err(Fail::Io(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(Fail::Other(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_DIAG)
        }
    }
}

/// `dsec check <file>`: run the verifier and print the report.
fn check_main(args: &[String]) -> ExitCode {
    let mut path = String::new();
    let mut strict = false;
    let mut json = false;
    let mut backend = false;
    let mut sabotage: Option<dse_verify::sabotage::Kind> = None;
    let mut threads: u32 = 4;
    let mut opt = OptLevel::Full;
    let mut inputs: Vec<i64> = Vec::new();
    let mut daemon: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--json" => json = true,
            "--backend" => backend = true,
            // Undocumented: seed one known miscompile before verifying, so
            // CI's mutation-smoke step can prove the checkers fire.
            "--sabotage" => {
                let kind = it.next().unwrap_or_else(|| usage());
                sabotage = Some(dse_verify::sabotage::Kind::parse(kind).unwrap_or_else(|| {
                    eprintln!("dsec: unknown --sabotage kind `{kind}`");
                    std::process::exit(EXIT_USAGE as i32)
                }));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--opt" => opt = parse_opt_level(it.next().map(String::as_str)),
            "--in" => inputs = parse_inputs(it.next().unwrap_or_else(|| usage())),
            "--daemon" => daemon = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--help" | "-h" => usage(),
            other if path.is_empty() && !other.starts_with('-') => path = other.to_string(),
            _ => usage(),
        }
    }
    if path.is_empty() {
        usage();
    }
    if sabotage.is_some() && !backend {
        eprintln!("dsec: --sabotage requires --backend");
        return ExitCode::from(EXIT_USAGE);
    }
    if backend && daemon.is_some() {
        eprintln!(
            "dsec: --backend runs standalone; the daemon verifies translations \
             automatically on every register-backend run"
        );
        return ExitCode::from(EXIT_USAGE);
    }
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dsec: {path}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some(sock) = daemon {
        let req = Json::obj(vec![
            ("id", Json::Str("dsec-check".into())),
            ("cmd", Json::Str("check".into())),
            ("source", Json::Str(source)),
            ("threads", Json::Int(threads as i64)),
            ("opt", Json::Str(opt_name(opt).into())),
            ("strict", Json::Bool(strict)),
            (
                "in",
                Json::Arr(inputs.iter().map(|&n| Json::Int(n)).collect()),
            ),
        ]);
        return match daemon_request(&sock, &req) {
            Ok(resp) => {
                // `check` renders the report on stdout like the standalone
                // path; failures already carry exit 1 in the response.
                for d in diagnostics_of(&resp) {
                    println!("{d}");
                }
                exit_of(&resp)
            }
            Err(Fail::Io(msg)) => {
                eprintln!("dsec: {msg}");
                ExitCode::from(EXIT_USAGE)
            }
            Err(Fail::Other(msg)) => {
                eprintln!("dsec: {msg}");
                ExitCode::from(EXIT_DIAG)
            }
        };
    }
    let cfg = VmConfig {
        inputs_int: inputs,
        ..Default::default()
    };
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = match pipeline.analyze(&source, &cfg, &mut trace) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsec: {e}");
            return ExitCode::from(EXIT_DIAG);
        }
    };
    // Pass 2 checks the transform's output, so the check transforms too.
    // A transform failure still reports pass 1 before failing.
    let transformed = pipeline.transform(&art, opt, threads, false, &mut trace);
    let mut report = match &transformed {
        Ok(t) => (*dse_verify::check_cached(&store, &art.analysis, t, &mut trace)).clone(),
        Err(_) => dse_verify::check_all(&art.analysis, None),
    };
    if backend {
        match sabotage {
            None => {
                // Verify both executable encodings of both programs, through
                // the cached `regverify` phase like the implicit run gate.
                let mut progs = vec![art.analysis.serial.clone()];
                if let Ok(t) = &transformed {
                    progs.push(t.transformed.parallel.clone());
                }
                for prog in &progs {
                    match pipeline.reglower(prog, &mut trace) {
                        Ok(regart) => report.extend(
                            (*dse_verify::check_backend_cached(&store, prog, &regart, &mut trace))
                                .clone(),
                        ),
                        Err(e) => {
                            eprintln!("dsec: register lowering failed: {e}");
                            return ExitCode::from(EXIT_DIAG);
                        }
                    }
                }
            }
            Some(kind) => {
                let prog = art.analysis.serial.clone();
                let sab = if kind.is_stack() {
                    let mut p = prog.clone();
                    let hit = dse_verify::sabotage::sabotage_stack(&mut p, kind);
                    hit.then(|| dse_verify::check_stack(&p))
                } else {
                    match dse_ir::regcode::translate(&prog) {
                        Ok(mut rp) => {
                            let hit = dse_verify::sabotage::sabotage_reg(&prog, &mut rp, kind);
                            hit.then(|| dse_verify::check_backend(&prog, &rp))
                        }
                        Err(e) => {
                            eprintln!("dsec: register lowering failed: {e}");
                            return ExitCode::from(EXIT_DIAG);
                        }
                    }
                };
                match sab {
                    Some(r) => report.extend(r),
                    None => {
                        eprintln!(
                            "dsec: program offers no site for sabotage `{}`",
                            kind.name()
                        );
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
        }
        report.sort();
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Err(e) = &transformed {
        eprintln!("dsec: transform failed: {e}");
        return ExitCode::from(EXIT_DIAG);
    }
    if report.should_fail(strict) {
        ExitCode::from(EXIT_DIAG)
    } else {
        ExitCode::SUCCESS
    }
}

/// The implicit verification pass before any use of the transform: prints
/// findings to stderr and fails the drive on error-severity ones. Cached by
/// the transform's content key, like every other phase.
fn verify_transform(
    store: &ArtifactStore,
    analysis: &Analysis,
    xform: &TransformArt,
    path: &str,
    trace: &mut Trace,
) -> Result<LintStats, Fail> {
    let report = dse_verify::check_cached(store, analysis, xform, trace);
    for d in &report.diagnostics {
        eprintln!("dsec: {}", d.render());
    }
    let stats = LintStats {
        errors: report.count(Severity::Error) as u64,
        warnings: report.count(Severity::Warning) as u64,
        infos: report.count(Severity::Info) as u64,
    };
    if report.should_fail(false) {
        return Err(Fail::Other(format!(
            "verification failed with {} error(s); see `dsec check {path}`",
            stats.errors
        )));
    }
    Ok(stats)
}

/// Builds a VM honoring the requested execution backend; register code
/// only ever runs verified (see [`dse_verify::verified_reg_vm`]).
fn make_vm(
    pipeline: &Pipeline,
    backend: BackendKind,
    compiled: dse_ir::bytecode::CompiledProgram,
    mut config: VmConfig,
    trace: &mut Trace,
) -> Result<Vm, Fail> {
    config.backend = backend;
    match backend {
        BackendKind::Stack => Vm::new(compiled, config).map_err(|e| e.to_string()),
        BackendKind::Reg => dse_verify::verified_reg_vm(pipeline, compiled, config, trace),
    }
    .map_err(Fail::Other)
}

fn drive(o: &Opts) -> Result<ExitCode, Fail> {
    let source =
        std::fs::read_to_string(&o.path).map_err(|e| Fail::Io(format!("{}: {e}", o.path)))?;
    let cfg = VmConfig {
        inputs_int: o.inputs.clone(),
        ..Default::default()
    };
    // One process-local artifact store: every consumer below (emit
    // handlers, the executed program, the verifier, telemetry) shares the
    // same phase artifacts instead of recomputing them.
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&source, &cfg, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    let analysis = &art.analysis;

    let needs_transform = (o.run && !o.serial)
        || o.timing
        || o.metrics.is_some()
        || o.emit.iter().any(|e| {
            matches!(
                e.as_str(),
                "report" | "source" | "bytecode" | "chrome-trace" | "flamegraph"
            )
        });
    let transformed: Option<Arc<TransformArt>> = if needs_transform {
        Some(
            pipeline
                .transform(&art, o.opt, o.threads, o.baseline, &mut trace)
                .map_err(|e| Fail::Other(e.to_string()))?,
        )
    } else {
        None
    };

    // Every transform is verified before its output is used.
    let lints: Option<LintStats> = match &transformed {
        Some(t) => Some(verify_transform(&store, analysis, t, &o.path, &mut trace)?),
        None => None,
    };

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
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                let r = &t.report;
                println!("expansion report (N = {}, {:?}):", o.threads, o.opt);
                println!(
                    "  privatized data structures: {}",
                    r.privatized_structures()
                );
                println!("    heap allocation sites:    {}", r.expanded_allocs);
                println!("    globals:                  {}", r.expanded_globals);
                println!("    aggregate locals:         {}", r.expanded_locals);
                println!("  expanded scalars:           {}", r.expanded_scalar_locals);
                println!("  fat pointer types:          {}", r.fat_pointer_types);
                println!("  span-carrying integers:     {}", r.fat_int_vars);
                println!(
                    "  span stores inserted:       {} ({} elided)",
                    r.span_stores_emitted, r.span_stores_elided
                );
                println!(
                    "  private accesses redirected: {}",
                    r.private_accesses_redirected
                );
                for (label, mode) in &t.modes {
                    println!("  loop `{label}` scheduled {mode:?}");
                }
            }
            "source" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                print!("{}", dse_lang::printer::print_program(&t.program));
            }
            "bytecode" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                print!("{}", dse_ir::disasm::disassemble(&t.parallel));
            }
            "chrome-trace" | "flamegraph" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                let mut vm = make_vm(
                    &pipeline,
                    o.backend,
                    t.parallel.clone(),
                    VmConfig {
                        nthreads: o.threads,
                        inputs_int: o.inputs.clone(),
                        trace: true,
                        strict: o.strict,
                        ..Default::default()
                    },
                    &mut trace,
                )?;
                vm.run().map_err(|e| Fail::Other(e.to_string()))?;
                let (mut events, dropped) = vm.take_trace();
                if emit == "flamegraph" {
                    print!("{}", dse_telemetry::flamegraph_folded(&events));
                    eprintln!("[flamegraph: {} events]", events.len());
                } else {
                    // VM timestamps are measured from `Vm::new`; shift them
                    // onto the store's epoch so pipeline phase spans and
                    // runtime events share one timeline.
                    let shift = vm
                        .trace_epoch()
                        .map(|e| e.saturating_duration_since(store.epoch()).as_nanos() as u64)
                        .unwrap_or(0);
                    for ev in &mut events {
                        ev.ts_ns += shift;
                    }
                    let spans = pipeline_spans(&trace);
                    println!("{}", dse_telemetry::chrome_trace(&events, &spans, dropped));
                    eprintln!("[chrome-trace: {} events, {dropped} dropped]", events.len());
                }
            }
            "trace" => {
                // The observer sees what the profiler sees: a serial
                // execution (parallel regions run unobserved by design).
                let mut vm = Vm::new(analysis.serial.clone(), cfg.clone())
                    .map_err(|e| Fail::Other(e.to_string()))?;
                let stdout = std::io::stdout();
                let mut obs = TraceObserver::new(std::io::BufWriter::new(stdout.lock()));
                vm.run_with_observer(&mut obs)
                    .map_err(|e| Fail::Other(e.to_string()))?;
                let events = obs.events();
                obs.finish().map_err(|e| Fail::Other(e.to_string()))?;
                eprintln!("[trace: {events} events]");
            }
            other => unreachable!("--emit values validated in parse_opts: {other}"),
        }
    }

    let mut exit = ExitCode::SUCCESS;
    let mut run_report = None;
    if o.run {
        let compiled = if o.serial {
            analysis.serial.clone()
        } else {
            transformed
                .as_ref()
                .expect("transform computed above")
                .transformed
                .parallel
                .clone()
        };
        let n = if o.serial { 1 } else { o.threads };
        let mut vm = make_vm(
            &pipeline,
            o.backend,
            compiled,
            VmConfig {
                nthreads: n,
                inputs_int: o.inputs.clone(),
                strict: o.strict,
                ..Default::default()
            },
            &mut trace,
        )?;
        let report = vm.run().map_err(|e| Fail::Other(e.to_string()))?;
        print!("{}", vm.console());
        let outs = vm.outputs_int();
        if !outs.is_empty() {
            println!("out_long: {outs:?}");
        }
        let fouts = vm.outputs_float();
        if !fouts.is_empty() {
            println!("out_float: {fouts:?}");
        }
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
        if let Some(dse_runtime::Value::I(code)) = report.return_value {
            exit = ExitCode::from((code & 0xff) as u8);
        }
        run_report = Some(report);
    }

    // Phase timeline: analysis phases followed by transform phases.
    let phases: Vec<dse_telemetry::PhaseSpan> = analysis
        .phases
        .iter()
        .chain(transformed.iter().flat_map(|t| t.transformed.phases.iter()))
        .cloned()
        .collect();

    if o.timing {
        let mut out = String::new();
        for p in &phases {
            p.render(0, &mut out);
        }
        eprint!("{out}");
    }

    if let Some(dest) = &o.metrics {
        let mut server = store.stats();
        server.requests = 1;
        let metrics = RunMetrics {
            program: o.path.clone(),
            threads: if o.serial { 1 } else { o.threads },
            opt: opt_name(o.opt).to_string(),
            phases,
            loops: analysis.loop_stats(),
            expansion: transformed
                .as_ref()
                .map(|t| t.transformed.report.telemetry_stats()),
            lints,
            vm: run_report
                .as_ref()
                .map(dse_telemetry::metrics::VmStats::from_report),
            server: Some(server),
        };
        let mut text = metrics.to_json().to_string();
        text.push('\n');
        if dest == "-" {
            std::io::stdout().write_all(text.as_bytes())?;
        } else {
            std::fs::write(dest, text).map_err(|e| Fail::Io(format!("{dest}: {e}")))?;
        }
    }

    Ok(exit)
}

/// Pipeline phase outcomes in the chrome exporter's neutral span form,
/// named `phase (outcome)` and placed at their store-epoch offsets.
fn pipeline_spans(trace: &Trace) -> Vec<dse_telemetry::PipelineSpan> {
    trace
        .iter()
        .map(|p| dse_telemetry::PipelineSpan {
            name: format!("{} ({})", p.phase, p.outcome.as_str()),
            ts_ns: p.at.as_nanos() as u64,
            dur_ns: p.wall.as_nanos() as u64,
        })
        .collect()
}

/// `dsec profile <file>`: run the transformed program under the
/// attributing opcode profiler and print the hot-loop table.
fn profile_main(args: &[String]) -> ExitCode {
    let mut path = String::new();
    let mut threads: u32 = 4;
    let mut opt = OptLevel::Full;
    let mut inputs: Vec<i64> = Vec::new();
    let mut explicit_backend: Option<BackendKind> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--opt" => opt = parse_opt_level(it.next().map(String::as_str)),
            "--in" => inputs = parse_inputs(it.next().unwrap_or_else(|| usage())),
            "--exec-backend" => {
                explicit_backend = Some(
                    it.next()
                        .and_then(|s| BackendKind::parse(s))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other if path.is_empty() && !other.starts_with('-') => path = other.to_string(),
            _ => usage(),
        }
    }
    if path.is_empty() {
        usage();
    }
    // The opcode profiler attributes per stack opcode; the register
    // backend's fused super-instructions would skew the table (DSE009).
    // An explicit request is a usage error; the ambient environment
    // default is overridden with a warning so `DSE_EXEC_BACKEND=reg`
    // sweeps still profile meaningfully.
    let backend = match explicit_backend {
        Some(BackendKind::Reg) => {
            eprintln!(
                "dsec: error[DSE009]: {}",
                dse_verify::diag::Code::ProfileBackendMismatch.summary()
            );
            eprintln!(
                "dsec: hint: fused register super-instructions skew per-opcode \
                 attribution; drop `--exec-backend reg` to profile on the stack \
                 (reference) encoding"
            );
            return ExitCode::from(EXIT_USAGE);
        }
        Some(b) => b,
        None => match BackendKind::from_env() {
            BackendKind::Reg => {
                eprintln!(
                    "dsec: warning[DSE009]: DSE_EXEC_BACKEND=reg ignored for \
                     profiling; pinning to the stack backend"
                );
                BackendKind::Stack
            }
            b => b,
        },
    };
    match profile_drive(&path, threads, opt, inputs, backend) {
        Ok(code) => code,
        Err(Fail::Io(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(Fail::Other(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_DIAG)
        }
    }
}

fn profile_drive(
    path: &str,
    threads: u32,
    opt: OptLevel,
    inputs: Vec<i64>,
    backend: BackendKind,
) -> Result<ExitCode, Fail> {
    let source = std::fs::read_to_string(path).map_err(|e| Fail::Io(format!("{path}: {e}")))?;
    let cfg = VmConfig {
        inputs_int: inputs.clone(),
        ..Default::default()
    };
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&source, &cfg, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    let t = pipeline
        .transform(&art, opt, threads, false, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    verify_transform(&store, &art.analysis, &t, path, &mut trace)?;
    let prog = &t.transformed.parallel;
    let mut vm = make_vm(
        &pipeline,
        backend,
        prog.clone(),
        VmConfig {
            nthreads: threads,
            inputs_int: inputs,
            opcode_profile: true,
            ..Default::default()
        },
        &mut trace,
    )?;
    vm.run().map_err(|e| Fail::Other(e.to_string()))?;
    print!("{}", render_profile(&vm.opcode_profile(), prog));
    Ok(ExitCode::SUCCESS)
}

/// The hot-loop table: one row per loop (the VM pre-sorts by wall time,
/// then instructions), with the class mix and iteration-cost quantiles.
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
        out.push_str(&format!(
            "{:<16} {:>9.3} {:>10} {:>12} {:>5.1}% {:>7} {:>7} {:>7}  {mix}\n",
            name,
            p.wall_ns as f64 / 1e6,
            p.iters,
            instr,
            pct,
            p.iter_hist.percentile(0.5),
            p.iter_hist.percentile(0.9),
            p.iter_hist.percentile(0.99),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// the daemon client
// ---------------------------------------------------------------------------

/// `dsec ... --daemon <socket>`: sends the request to a running `dsed`
/// instead of driving the pipeline in-process. Unsupported-over-the-wire
/// flags (`--emit`, `--timing`, `--metrics`) are rejected up front.
fn daemon_drive(o: &Opts, sock: &str) -> Result<ExitCode, Fail> {
    if !o.emit.is_empty() || o.timing || o.metrics.is_some() {
        return Err(Fail::Io(
            "--daemon supports plain compile/run requests; \
             use the standalone driver for --emit/--timing/--metrics"
                .into(),
        ));
    }
    let source =
        std::fs::read_to_string(&o.path).map_err(|e| Fail::Io(format!("{}: {e}", o.path)))?;
    let req = Json::obj(vec![
        ("id", Json::Str("dsec".into())),
        (
            "cmd",
            Json::Str(if o.run { "run" } else { "compile" }.into()),
        ),
        ("source", Json::Str(source)),
        ("threads", Json::Int(o.threads as i64)),
        ("opt", Json::Str(opt_name(o.opt).into())),
        ("baseline", Json::Bool(o.baseline)),
        ("serial", Json::Bool(o.serial)),
        ("strict", Json::Bool(o.strict)),
        ("exec_backend", Json::Str(o.backend.name().into())),
        (
            "in",
            Json::Arr(o.inputs.iter().map(|&n| Json::Int(n)).collect()),
        ),
    ]);
    let resp = daemon_request(sock, &req)?;
    for d in diagnostics_of(&resp) {
        eprintln!("dsec: {d}");
    }
    if let Some(err) = resp.get("error").and_then(Json::as_str) {
        eprintln!("dsec: {err}");
    }
    if let Some(console) = resp.get("console").and_then(Json::as_str) {
        print!("{console}");
    }
    if let Some(outs) = resp.get("out_long").and_then(Json::as_arr) {
        if !outs.is_empty() {
            let outs: Vec<i64> = outs.iter().filter_map(Json::as_i64).collect();
            println!("out_long: {outs:?}");
        }
    }
    if let Some(fouts) = resp.get("out_float").and_then(Json::as_arr) {
        if !fouts.is_empty() {
            let fouts: Vec<f64> = fouts.iter().filter_map(Json::as_f64).collect();
            println!("out_float: {fouts:?}");
        }
    }
    Ok(exit_of(&resp))
}

/// One request/response round trip over the daemon's unix socket.
fn daemon_request(sock: &str, req: &Json) -> Result<Json, Fail> {
    use std::io::{BufRead, BufReader};
    let mut stream = std::os::unix::net::UnixStream::connect(sock)
        .map_err(|e| Fail::Io(format!("{sock}: {e}")))?;
    let mut line = req.to_string();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| Fail::Io(format!("{sock}: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| Fail::Io(format!("{sock}: {e}")))?;
    if resp.trim().is_empty() {
        return Err(Fail::Other(
            "daemon closed the connection without a response".into(),
        ));
    }
    Json::parse(resp.trim()).map_err(|e| Fail::Other(format!("bad daemon response: {e}")))
}

fn diagnostics_of(resp: &Json) -> Vec<String> {
    resp.get("diagnostics")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn exit_of(resp: &Json) -> ExitCode {
    let code = resp.get("exit").and_then(Json::as_i64).unwrap_or(1);
    ExitCode::from((code & 0xff) as u8)
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail::Io(e.to_string())
    }
}
