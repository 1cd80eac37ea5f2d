//! End-to-end checks of `dsec`'s telemetry flags (`--timing`,
//! `--metrics`, `--emit trace`) against the bundled example program.

use dse_telemetry::{Json, RunMetrics};
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

    let parsed = Json::parse(metrics_line(&stdout)).expect("valid metrics JSON");
    let m = RunMetrics::from_json(&parsed).expect("well-formed metrics");

    // All six pipeline phases, in order.
    let names: Vec<&str> = m.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["parse", "lower", "profile", "classify", "plan", "xform"]
    );
    assert!(m.phases.iter().all(|p| p.duration.as_nanos() > 0));

    // Per-thread Figure-12 counters: one entry per worker, summing to the
    // aggregate, which in turn matches the human-readable VM report line.
    let vm = m.vm.as_ref().expect("--run populates vm stats");
    assert_eq!(m.threads, 4);
    assert_eq!(vm.per_thread.len(), 4);
    let work_sum: u64 = vm.per_thread.iter().map(|c| c.work).sum();
    assert_eq!(work_sum, vm.totals.work);
    assert!(vm.per_thread.iter().all(|c| c.work > 0), "every worker ran");
    let reported: u64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix('[')?.split(' ').next()?.parse().ok())
        .expect("instruction count on stderr");
    assert_eq!(vm.totals.work, reported);

    // Allocator contention counters ride along: every heap allocation is
    // either a front-end cache hit or a miss, and the example program
    // allocates, so the counters are live (not just present-but-zero).
    assert!(
        metrics_line(&stdout).contains("heap_contention"),
        "metrics JSON carries the allocator contention block"
    );
    let hc = &vm.heap_contention;
    assert!(
        hc.cache_hits + hc.cache_misses > 0,
        "allocations flow through the front-end caches: {hc:?}"
    );
    assert!(
        hc.cache_misses == 0 || hc.backend_locks > 0,
        "every miss takes the backend lock: {hc:?}"
    );

    // Executor pool counters: a 4-thread run keeps 3 persistent workers,
    // every parallel loop goes through the dispatcher, and each dispatch
    // wakes each worker exactly once.
    let pool = &vm.pool;
    assert_eq!(
        pool.workers, 3,
        "N-1 persistent workers, no churn: {pool:?}"
    );
    assert!(
        pool.dispatches >= 1,
        "the hot loop was dispatched: {pool:?}"
    );
    assert_eq!(
        pool.wakeups,
        pool.dispatches * pool.workers,
        "each dispatch wakes each worker once: {pool:?}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("[pool:")),
        "pool stats line on stderr"
    );

    // The expansion happened and is accounted for.
    let e = m
        .expansion
        .as_ref()
        .expect("transform populates expansion stats");
    assert!(e.privatized_structures() >= 1);
    // The scratch buffer's redirection is derived once per iteration; the
    // accesses through the slot are a subset of the redirected ones.
    assert!(
        e.redirections_hoisted >= 1 && e.redirections_hoisted <= e.private_accesses_redirected,
        "{e:?}"
    );
    assert!(m
        .loops
        .iter()
        .any(|l| l.label == "hot" && l.iterations == 400));

    // --timing renders the same phases to stderr.
    for phase in names {
        assert!(stderr.contains(phase), "--timing output mentions {phase}");
    }
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
    let m = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(m.threads, 1);
    let vm = m.vm.unwrap();
    assert_eq!(vm.per_thread.len(), 1);
    assert_eq!(vm.per_thread[0].work, vm.totals.work);
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
