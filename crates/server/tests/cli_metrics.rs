//! End-to-end checks of `dsec`'s telemetry flags (`--timing`,
//! `--metrics`, `--emit trace`) against the bundled example program.

use dse_telemetry::Json;
use std::process::Command;

fn example() -> String {
    format!("{}/../../examples/scratch.cee", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `dsec` with the given args, asserting success.
fn dsec(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsec"))
        .args(args)
        .output()
        .expect("spawn dsec");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "dsec {args:?} failed:\n{stderr}");
    (stdout, stderr)
}

/// The metrics document is the stdout line that starts with `{`.
fn metrics_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("metrics JSON on stdout")
}

/// Follows `path` through nested objects.
fn field<'j>(doc: &'j Json, path: &[&str]) -> &'j Json {
    path.iter().fold(doc, |j, key| {
        j.get(key)
            .unwrap_or_else(|| panic!("no `{key}` in the metrics document"))
    })
}

fn int(doc: &Json, path: &[&str]) -> i64 {
    field(doc, path).as_i64().expect("an integer")
}

#[test]
fn metrics_cover_phases_and_per_thread_counters() {
    let prog = example();
    let (stdout, stderr) = dsec(&[
        &prog,
        "--run",
        "--threads",
        "4",
        "--timing",
        "--metrics",
        "-",
    ]);

    let m = Json::parse(metrics_line(&stdout)).expect("valid metrics JSON");

    // The request's phase trace, in execution order: the six pipeline
    // phases and the verifier (a register-backend run adds two, below).
    let phases = field(&m, &["phases"]).as_arr().expect("phase records");
    let names: Vec<&str> = phases
        .iter()
        .map(|p| p.get("phase").and_then(Json::as_str).expect("a name"))
        .collect();
    assert_eq!(
        names[..7],
        ["parse", "lower", "profile", "classify", "plan", "xform", "verify"]
    );
    assert!(phases.iter().all(|p| int(p, &["ns"]) > 0));
    // One record per phase: what it took, whether it was computed, and
    // the artifact's size.
    assert_eq!(
        field(&phases[0], &["cache"]).as_str(),
        Some("miss"),
        "a fresh process computes everything"
    );
    assert!(int(&phases[1], &["stats", "instructions"]) > 0);

    // Per-thread Figure-12 counters: one entry per worker, summing to the
    // aggregate, which in turn matches the human-readable VM report line.
    assert_eq!(int(&m, &["threads"]), 4);
    let per_thread = field(&m, &["vm", "per_thread"]).as_arr().expect("array");
    assert_eq!(per_thread.len(), 4);
    let work: Vec<i64> = per_thread.iter().map(|c| int(c, &["work"])).collect();
    let total_work = int(&m, &["vm", "totals", "work"]);
    assert_eq!(work.iter().sum::<i64>(), total_work);
    assert!(work.iter().all(|&w| w > 0), "every worker ran");
    let reported: i64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix('[')?.split(' ').next()?.parse().ok())
        .expect("instruction count on stderr");
    assert_eq!(total_work, reported);

    // Allocator counters ride along: every class allocation is either a
    // class-list hit or a miss, and the example program allocates, so the
    // counters are live (not just present-but-zero).
    let hc = |name| int(&m, &["vm", "heap_contention", name]);
    assert!(
        hc("cache_hits") + hc("cache_misses") > 0,
        "allocations flow through the class lists"
    );
    assert!(
        hc("cache_misses") == 0 || hc("backend_locks") > 0,
        "every miss refills from the free map"
    );

    // Executor pool counters: a 4-thread run keeps 3 persistent workers,
    // every parallel loop goes through the dispatcher, and each dispatch
    // wakes each worker exactly once.
    let pool = |name| int(&m, &["vm", "pool", name]);
    assert_eq!(pool("workers"), 3, "N-1 persistent workers, no churn");
    assert!(pool("dispatches") >= 1, "the hot loop was dispatched");
    assert_eq!(
        pool("wakeups"),
        pool("dispatches") * pool("workers"),
        "each dispatch wakes each worker once"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("[pool:")),
        "pool stats line on stderr"
    );

    // The expansion happened and is accounted for.
    let e = |name| int(&m, &["expansion", name]);
    assert!(e("privatized_structures") >= 1);
    // The scratch buffer's redirection is derived once per iteration; the
    // accesses through the slot are a subset of the redirected ones.
    let hoisted = e("redirections_hoisted");
    assert!(hoisted >= 1 && hoisted <= e("private_accesses_redirected"));
    let loops = field(&m, &["loops"]).as_arr().expect("loop stats");
    assert!(loops
        .iter()
        .any(|l| field(l, &["label"]).as_str() == Some("hot") && int(l, &["iterations"]) == 400));

    // --timing renders the same trace to stderr, one line per phase.
    for phase in names {
        let line = stderr.lines().find(|l| l.starts_with(phase));
        assert!(
            line.is_some_and(|l| l.contains(" ms  miss")),
            "--timing line for {phase}:\n{stderr}"
        );
    }
}

/// Under the register backend a run is nine phases, and `--timing` says so:
/// the translation and its verification are on the timeline with their
/// hit/miss like the rest (they used to run untimed).
#[test]
fn timing_shows_the_register_phases_with_their_cache_outcome() {
    let prog = example();
    let (_, stderr) = dsec(&[&prog, "--run", "--timing", "--exec-backend", "reg"]);
    let timed: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains(" ms  "))
        .map(|l| l.split_whitespace().next().expect("a phase name"))
        .collect();
    assert_eq!(
        timed,
        [
            "parse",
            "lower",
            "profile",
            "classify",
            "plan",
            "xform",
            "verify",
            "reglower",
            "regverify"
        ],
        "{stderr}"
    );
    let line = |phase: &str| {
        stderr
            .lines()
            .find(|l| l.starts_with(phase))
            .expect("timed above")
    };
    assert!(line("reglower").contains("miss   (reg_instructions="));
    assert!(line("regverify").contains("miss   (diagnostics=0)"));
}

#[test]
fn metrics_file_and_serial_run() {
    let prog = example();
    let dir = std::env::temp_dir().join(format!("dsec-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.json");
    let path_str = path.to_str().unwrap();
    dsec(&[&prog, "--run", "--serial", "--metrics", path_str]);
    let text = std::fs::read_to_string(&path).unwrap();
    let m = Json::parse(&text).unwrap();
    assert_eq!(int(&m, &["threads"]), 1);
    let per_thread = field(&m, &["vm", "per_thread"]).as_arr().expect("array");
    assert_eq!(per_thread.len(), 1);
    assert_eq!(
        int(&per_thread[0], &["work"]),
        int(&m, &["vm", "totals", "work"])
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_emits_parseable_jsonl() {
    let prog = example();
    let (stdout, stderr) = dsec(&[&prog, "--emit", "trace"]);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(lines.len() > 1000, "trace of the example is substantial");
    let mut kinds = std::collections::HashSet::new();
    for l in &lines {
        let v = Json::parse(l).unwrap_or_else(|e| panic!("bad trace line {l}: {e}"));
        kinds.insert(
            v.get("ev")
                .and_then(Json::as_str)
                .expect("ev field")
                .to_string(),
        );
    }
    for ev in ["access", "loop", "alloc", "free"] {
        assert!(kinds.contains(ev), "trace contains {ev} events");
    }
    assert!(stderr.contains("events"), "event count reported on stderr");
}

#[test]
fn repeated_emit_values_print_once() {
    let prog = example();
    let (stdout, _) = dsec(&[&prog, "--emit", "report", "--emit", "report"]);
    let headers = stdout.matches("expansion report").count();
    assert_eq!(headers, 1, "duplicate --emit values are collapsed");
}

/// Replaces what legitimately differs between two runs of one build with
/// `"*"`: phase times (`ns`, `at_ns`) and the scheduling-dependent
/// `vm.per_thread` and `vm.pool` values. Keys and array lengths stay.
fn mask(v: &mut Json, parent: &str) {
    fn all(v: &mut Json) {
        match v {
            Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, v)| all(v)),
            Json::Arr(items) => items.iter_mut().for_each(all),
            scalar => *scalar = Json::Str("*".into()),
        }
    }
    match v {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                match k.as_str() {
                    "ns" | "at_ns" => *v = Json::Str("*".into()),
                    "per_thread" | "pool" if parent == "vm" => all(v),
                    _ => mask(v, k),
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| mask(v, parent)),
        _ => {}
    }
}

/// The whole `--metrics` document of the example, every key in order,
/// pinned against a golden with only run-to-run variation masked. On an
/// intentional change, the failure prints the new masked document; it
/// replaces the golden file's one line.
#[test]
fn metrics_document_matches_golden() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (args, golden) in [
        (
            &["--run", "--threads", "2", "--exec-backend", "reg"][..],
            "scratch.metrics-t2-reg.json",
        ),
        (&["--run", "--serial"][..], "scratch.metrics-serial.json"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsec"))
            .current_dir(root)
            // The serial run's backend would otherwise follow the env.
            .env_remove("DSE_EXEC_BACKEND")
            .arg("examples/scratch.cee")
            .args(args)
            .args(["--metrics", "-"])
            .output()
            .expect("spawn dsec");
        assert!(out.status.success(), "dsec {args:?} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let mut doc = Json::parse(metrics_line(&stdout)).expect("valid metrics JSON");
        mask(&mut doc, "");
        let path = format!("{}/tests/fixtures/{golden}", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).expect("golden file");
        assert!(
            format!("{doc}\n") == want,
            "{args:?}: the --metrics document drifted from {golden}; it now reads\n{doc}"
        );
    }
}
