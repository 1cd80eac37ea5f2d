//! The repository's benchmark: four workloads, the paper's axes measured
//! on the wall clock, and a per-layer ledger. See README.md beside this
//! package for the workload table, the metric glossary and how to run.

mod compile;
mod daemon;
mod exec;
mod inputs;
mod metrics;
mod programs;
mod report;
mod stats;
mod trace;

use metrics::Values;
use programs::{Outputs, Program};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "doall_exec",
    "doacross_exec",
    "compile_cold",
    "daemon_mixed",
];

/// The seed whose reference outputs are checked in under `expected/`.
const DEFAULT_SEED: u64 = 1;
const EXPECTED: &str = include_str!("../expected/seed-1.json");
/// `run_seconds` of `/BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Share of a traced run's budget spent with tracing off (the end-to-end
/// side of `trace_overhead`); the rest is the traced pass.
const UNTRACED_SHARE: f64 = 0.4;
/// Share of an operation's wall time the spans may leave unaccounted for.
const LEDGER_TOLERANCE: f64 = 0.05;

/// How long a timed region lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Whole round-robin rounds (`--rounds`, for the smoke test).
    Rounds(usize),
}

impl Budget {
    pub fn start(self) -> Clock {
        Clock {
            budget: self,
            started: Instant::now(),
        }
    }

    fn share(self, share: f64) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * share),
            rounds => rounds,
        }
    }
}

/// A running timed region.
pub struct Clock {
    budget: Budget,
    started: Instant,
}

impl Clock {
    /// True once the region is over. A timed region never ends inside its
    /// first round, so every program and configuration has a sample.
    pub fn done(&self, round: usize) -> bool {
        match self.budget {
            Budget::Rounds(n) => round >= n,
            Budget::Seconds(s) => round > 0 && self.elapsed_s() >= s,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// What one timed region measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Per-program values, keyed by metric name.
    pub programs: Vec<(String, Values)>,
    /// Values of the workload as a whole.
    pub whole: Values,
    /// Sample count of each cell (program/configuration or request kind).
    pub samples: Vec<(String, usize)>,
    /// Failed operations and counts that did not repeat; any entry makes
    /// the run incorrect.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// A workload, set up.
struct Prepared {
    programs: Vec<Program>,
    /// `daemon_mixed` only.
    server: Option<dse_server::Server>,
}

fn is_exec(workload: &str) -> bool {
    workload.ends_with("_exec")
}

/// Everything before the timed region: inputs, compilation, reference
/// runs, warm-up.
fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Prepared, String> {
    use dse_ir::loops::ParMode;
    let programs = dse_workloads::all()
        .iter()
        .filter(|w| match workload {
            "doall_exec" => w.paper.parallelism == ParMode::DoAll,
            "doacross_exec" => w.paper.parallelism == ParMode::DoAcross,
            _ => true,
        })
        .map(|w| programs::prepare(w, seed, is_exec(workload), tr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut server = None;
    match workload {
        "daemon_mixed" => server = Some(daemon::warm_server(&programs, tr)?),
        "compile_cold" => {}
        _ => exec::warm_up(&programs, tr)?,
    }
    Ok(Prepared { programs, server })
}

fn run_pass(
    workload: &str,
    prepared: &Prepared,
    seed: u64,
    stream: u64,
    budget: Budget,
    tr: &mut Tracer,
) -> Pass {
    match (workload, &prepared.server) {
        ("daemon_mixed", Some(server)) => {
            daemon::pass(server, &prepared.programs, seed, stream, budget, tr)
        }
        ("compile_cold", _) => compile::pass(&prepared.programs, budget, tr),
        _ => exec::pass(&prepared.programs, budget, tr),
    }
}

/// The reference outputs checked in for the default seed, by program:
/// `(profile-size, exec-size)`. They pin the reference interpreter itself.
fn expected_outputs(text: &str) -> Result<BTreeMap<String, (Outputs, Outputs)>, String> {
    use dse_telemetry::Json;
    let doc = Json::parse(text).map_err(|e| format!("expected/seed-1.json: {e}"))?;
    let Some(Json::Obj(programs)) = doc.get("programs") else {
        return Err("expected/seed-1.json: no `programs` object".into());
    };
    programs
        .iter()
        .map(|(name, j)| {
            let side = |k| j.get(k).and_then(Outputs::from_json);
            match (side("profile"), side("exec")) {
                (Some(p), Some(e)) => Ok((name.clone(), (p, e))),
                _ => Err(format!("expected/seed-1.json: malformed entry `{name}`")),
            }
        })
        .collect()
}

/// Compares the references set-up computed with the checked-in ones.
fn check_expected(programs: &[Program], expected_text: &str) -> Result<(), String> {
    let expected = expected_outputs(expected_text)?;
    for p in programs {
        let (profile, exec) = expected
            .get(p.name)
            .ok_or_else(|| format!("expected/seed-1.json: no entry for {}", p.name))?;
        if &p.reference_profile != profile
            || p.reference_exec.as_ref().is_some_and(|got| got != exec)
        {
            return Err(format!(
                "{}: the stack interpreter's outputs differ from expected/seed-1.json",
                p.name
            ));
        }
    }
    Ok(())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One workload's results.
#[derive(Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub end_to_end: Values,
    /// Results of the untraced pass plus the per-layer ledger; a traced
    /// run replaces the ledger's rows with the traced pass's.
    pub per_layer: Values,
    /// Per-program rows behind every geometric mean and sum.
    pub programs: Vec<(String, Values)>,
    pub samples: Vec<(String, usize)>,
    /// Span name → (self ms, count), traced runs only.
    pub self_times: BTreeMap<&'static str, (f64, usize)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
}

/// Overlays `over` on `base`, row by row, keeping only keys `keep` admits.
fn overlay(
    base: &mut Vec<(String, Values)>,
    over: &[(String, Values)],
    keep: impl Fn(&str) -> bool,
) {
    for (name, values) in over {
        let kept = values
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (*k, *v));
        match base.iter_mut().find(|(n, _)| n == name) {
            Some((_, row)) => row.extend(kept),
            None => base.push((name.clone(), kept.collect())),
        }
    }
}

/// Sets `workload` up, measures it, and rolls the results up.
///
/// # Errors
///
/// Set-up failures: a program that does not compile, a classification
/// that differs from the paper's, or (default seed) reference outputs that
/// differ from the checked-in ones. Failed *operations* are not errors;
/// they are counted in the result.
pub fn run_workload(workload: &'static str, opts: RunOptions) -> Result<WorkloadResult, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.traced, epoch);
    let mut problems = Vec::new();

    // Set up several times and report the median; a smoke run (`--rounds`)
    // sets up twice, the minimum for the determinism check.
    let setups = if matches!(opts.budget, Budget::Seconds(_)) {
        3
    } else {
        2
    };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..setups {
        let started = Instant::now();
        let next = setup(workload, opts.seed, &mut tr)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(prev) = &prepared {
            for (a, b) in prev.programs.iter().zip(&next.programs) {
                if a.compiled.counts != b.compiled.counts
                    || a.reference_profile != b.reference_profile
                    || a.reference_exec != b.reference_exec
                {
                    problems.push(format!("{}: two set-ups disagree on exact counts", a.name));
                }
            }
        }
        prepared = Some(next);
    }
    let prepared = prepared.expect("at least one set-up");
    if opts.seed == DEFAULT_SEED {
        check_expected(&prepared.programs, EXPECTED)?;
    }

    let mut quiet = Tracer::new(false, epoch);
    let untraced_budget = if opts.traced {
        opts.budget.share(UNTRACED_SHARE)
    } else {
        opts.budget
    };
    let untraced = run_pass(
        workload,
        &prepared,
        opts.seed,
        0,
        untraced_budget,
        &mut quiet,
    );
    let traced = opts.traced.then(|| {
        let budget = opts.budget.share(1.0 - UNTRACED_SHARE);
        run_pass(workload, &prepared, opts.seed, 2, budget, &mut tr)
    });

    // End to end: the untraced pass, plus set-up time and peak memory.
    let mut whole = untraced.whole.clone();
    whole.insert("setup_s", stats::median(&setup_s));
    whole.insert("peak_rss_mib", peak_rss_mib());
    let end_to_end = metrics::roll_up(metrics::END_TO_END, &untraced.programs, &whole);

    // Per layer: what set-up and the untraced pass measured; a traced pass
    // replaces everything but the results. A bounded metric is a result
    // and always comes from the untraced pass.
    let is_result = |k: &str| metrics::find(k).is_some_and(|m| m.bound.is_some());
    let mut programs: Vec<(String, Values)> = prepared
        .programs
        .iter()
        .map(|p| (p.name.to_string(), p.values.clone()))
        .collect();
    overlay(&mut programs, &untraced.programs, |_| true);
    let Pass {
        mut attempted,
        mut failed,
        mut samples,
        problems: pass_problems,
        ..
    } = untraced;
    problems.extend(pass_problems);
    let mut self_times = BTreeMap::new();

    if let Some(traced) = traced {
        attempted += traced.attempted;
        failed += traced.failed;
        problems.extend(traced.problems);
        samples = traced.samples;
        overlay(&mut programs, &traced.programs, |k| !is_result(k));
        whole.extend(traced.whole.iter().filter(|(k, _)| !is_result(k)));

        let traced_e2e = metrics::roll_up(metrics::END_TO_END, &traced.programs, &traced.whole);
        whole.insert(
            "trace_overhead",
            stats::ratio(traced_e2e["op_ms_min"], end_to_end["op_ms_min"]),
        );
        // What no span accounts for; for `compile_cold` also what the
        // direct calls plus the fingerprints leave of the cached wall.
        let unexplained: Vec<f64> = programs
            .iter()
            .filter_map(|(_, v)| v.get("compile.unexplained_share").copied())
            .collect();
        let residual = trace::residual_share(&tr).max(stats::median(&unexplained));
        if residual > LEDGER_TOLERANCE {
            problems.push(format!(
                "the ledger leaves {residual:.3} of an operation unaccounted for (> {LEDGER_TOLERANCE})"
            ));
        }
        whole.insert("ledger_residual_share", residual);
        self_times = trace::self_times(&tr);
        report::write_trace(workload, &tr)?;
    }
    whole.insert("fail_share", stats::ratio(failed as f64, attempted as f64));
    let per_layer = metrics::roll_up(metrics::PER_LAYER, &programs, &whole);

    Ok(WorkloadResult {
        name: workload,
        attempted,
        failed,
        problems,
        end_to_end,
        per_layer,
        programs,
        samples,
        self_times,
    })
}

struct Args {
    /// One workload, measured in this process; `None` runs all four, each
    /// in a process of its own.
    workload: Option<&'static str>,
    opts: RunOptions,
    out: Option<String>,
    sets: usize,
    compare: Option<(String, String)>,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: RunOptions {
            seed: DEFAULT_SEED,
            budget: Budget::Seconds(DEFAULT_SECONDS),
            traced: false,
        },
        out: None,
        sets: 1,
        compare: None,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| **w == v)
                    .ok_or_else(|| format!("unknown workload `{v}`; one of {WORKLOADS:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.opts.seed = num(&flag, value()?)?,
            "--seconds" => args.opts.budget = Budget::Seconds(num(&flag, value()?)?),
            "--rounds" => args.opts.budget = Budget::Rounds(num(&flag, value()?)?),
            "--trace" => {
                args.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--sets" => args.sets = num(&flag, value()?)?,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match args.opts.budget {
        Budget::Seconds(s) if s.is_nan() || s <= 0.0 => Err("--seconds must be positive".into()),
        Budget::Rounds(0) => Err("--rounds must be at least 1".into()),
        _ if args.sets == 0 => Err("--sets must be at least 1".into()),
        _ => Ok(args),
    }
}

/// Regenerates `expected/seed-1.json` from the stack interpreter.
fn write_expected() -> Result<(), String> {
    use dse_telemetry::Json;
    let mut quiet = Tracer::new(false, Instant::now());
    let mut entries = Vec::new();
    for w in dse_workloads::all() {
        let p = programs::prepare(&w, DEFAULT_SEED, true, &mut quiet)?;
        let exec = p.reference_exec.as_ref().expect("exec reference");
        entries.push((
            w.name.to_string(),
            Json::obj(vec![
                ("profile", p.reference_profile.to_json()),
                ("exec", exec.to_json()),
            ]),
        ));
    }
    // One program per line, so a changed checksum is a one-line diff.
    let lines: Vec<String> = entries
        .iter()
        .map(|(name, j)| format!("    {}: {j}", Json::Str(name.clone())))
        .collect();
    let text = format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"programs\": {{\n{}\n  }}\n}}\n",
        lines.join(",\n")
    );
    report::write_file(&report::package_dir().join("expected/seed-1.json"), &text)
}

/// Measures one workload in this process: prints its tables, writes its
/// result document, and ends with the contract's result line.
fn run_one(workload: &'static str, args: &Args, out: &std::path::Path) -> Result<bool, String> {
    let result = run_workload(workload, args.opts)?;
    report::print_workload(&result);
    let doc = report::document(args.opts, &result);
    report::write_file(out, &format!("{doc}\n"))?;
    println!("{}", report::result_line(&result, args.opts.traced));
    Ok(result.correct())
}

/// Runs each workload of each set in a child process of its own, one at a
/// time, exactly as the driver runs them: a workload's peak memory and
/// allocator state are then its own, whatever ran before it. The children
/// print their own tables; this process merges their result documents.
fn run_children(args: &Args, out: &std::path::Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let (budget_flag, budget) = match args.opts.budget {
        Budget::Seconds(s) => ("--seconds", s.to_string()),
        Budget::Rounds(n) => ("--rounds", n.to_string()),
    };
    let mut all_correct = true;
    let mut sets = Vec::new();
    for set in 1..=args.sets {
        let mut docs = Vec::new();
        for w in &workloads {
            let part = report::package_dir().join(format!("out/set-{set}-{w}.json"));
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.opts.seed.to_string()])
                .args([budget_flag, &budget])
                .args(["--trace", if args.opts.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{w}: the run ended with {status}")),
            }
            docs.push(report::read_document(&part)?);
        }
        sets.push(docs);
    }
    let doc = report::merge_documents(sets)?;
    report::write_file(out, &format!("{doc}\n"))?;
    if args.sets > 1 {
        all_correct &= report::print_sets_agreement(&doc)?;
    }
    Ok(all_correct)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return report::compare_files(a, b);
    }
    if args.write_expected {
        return write_expected().map(|()| true);
    }
    let out = args
        .out
        .clone()
        .map_or_else(|| report::package_dir().join("out/result.json"), Into::into);
    match args.workload {
        Some(w) if args.sets == 1 => run_one(w, args, &out),
        _ => run_children(args, &out),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: RunOptions = RunOptions {
        seed: DEFAULT_SEED,
        budget: Budget::Rounds(1),
        traced: false,
    };

    #[test]
    fn corrupted_expectation_file_stops_the_run() {
        let good = EXPECTED;
        let mut quiet = Tracer::new(false, Instant::now());
        let w = dse_workloads::by_name("md5").expect("bundled");
        let p = programs::prepare(&w, DEFAULT_SEED, false, &mut quiet).expect("set-up");
        assert_eq!(check_expected(std::slice::from_ref(&p), good), Ok(()));
        let want = p.reference_profile.out_long[0];
        let bad = good.replacen(&want.to_string(), &(want ^ 1).to_string(), 1);
        assert_ne!(good, bad);
        assert!(check_expected(std::slice::from_ref(&p), &bad).is_err());
    }

    #[test]
    fn corrupted_reference_fails_operations_and_the_exit_code() {
        let epoch = Instant::now();
        let mut quiet = Tracer::new(false, epoch);
        let mut prepared = setup("daemon_mixed", DEFAULT_SEED, &mut quiet).expect("set-up");
        let clean = run_pass(
            "daemon_mixed",
            &prepared,
            DEFAULT_SEED,
            0,
            QUICK.budget,
            &mut quiet,
        );
        assert!(
            clean.attempted > 0 && clean.failed == 0,
            "{:?}",
            clean.problems
        );

        for p in &mut prepared.programs {
            p.reference_profile.out_long[0] ^= 1;
        }
        let bad = run_pass(
            "daemon_mixed",
            &prepared,
            DEFAULT_SEED,
            0,
            QUICK.budget,
            &mut quiet,
        );
        assert!(
            bad.failed > 0,
            "every run response now differs from its reference"
        );
        let result = WorkloadResult {
            name: "daemon_mixed",
            attempted: bad.attempted,
            failed: bad.failed,
            problems: bad.problems,
            ..Default::default()
        };
        assert!(
            !result.correct(),
            "a failed operation makes the command exit non-zero"
        );
        let line = report::result_line(&result, false);
        assert_eq!(line.get("correct"), Some(&dse_telemetry::Json::Bool(false)));
    }
}
