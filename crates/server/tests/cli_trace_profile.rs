//! End-to-end checks of the tracing and profiling surface: `--emit
//! chrome-trace` (valid trace-event JSON on a unified timeline), `--emit
//! flamegraph` (well-formed folded stacks) and the `dsec profile`
//! subcommand, all against the bundled DOALL+DOACROSS example.

use dse_telemetry::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn example() -> String {
    format!(
        "{}/../../examples/pipeline_trace.cee",
        env!("CARGO_MANIFEST_DIR")
    )
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

#[test]
fn chrome_trace_is_valid_and_time_ordered() {
    let prog = example();
    let (stdout, stderr) = dsec(&[&prog, "--emit", "chrome-trace", "--threads", "4"]);
    let doc = Json::parse(&stdout).expect("chrome trace is one valid JSON document");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 20, "a real workload produces a real trace");
    doc.get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Json::as_i64)
        .expect("drop accounting is always present");

    // Every record is well-formed: metadata, or a span/instant with
    // numeric ts (and dur for spans).
    let mut names_by_pid: BTreeMap<i64, Vec<&str>> = BTreeMap::new();
    let mut ts_by_pid: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    let mut process_names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph field");
        let pid = e.get("pid").and_then(Json::as_i64).expect("pid field");
        match ph {
            "M" => process_names.push(
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("process_name metadata"),
            ),
            "X" | "i" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("numeric ts");
                assert!(ts >= 0.0);
                if ph == "X" {
                    let dur = e.get("dur").and_then(Json::as_f64).expect("span dur");
                    assert!(dur >= 0.0);
                }
                let name = e.get("name").and_then(Json::as_str).expect("event name");
                names_by_pid.entry(pid).or_default().push(name);
                ts_by_pid.entry(pid).or_default().push(ts);
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // One swim-lane per process: the pipeline, the master, and at least
    // one extra worker.
    assert!(process_names.contains(&"pipeline"));
    assert!(process_names.contains(&"worker 0 (master)"));
    assert!(
        process_names
            .iter()
            .any(|n| n.starts_with("worker ") && !n.contains("master")),
        "a 4-thread run shows more than the master: {process_names:?}"
    );

    // The pipeline track (pid 1) carries the compilation phases; the
    // worker tracks carry dispatch, loop spans and DOACROSS sync from the
    // `chain` loop.
    let pipeline: Vec<&str> = names_by_pid.get(&1).cloned().unwrap_or_default();
    for phase in ["parse", "lower", "classify", "xform"] {
        assert!(
            pipeline.iter().any(|n| n.starts_with(phase)),
            "pipeline track has a {phase} span: {pipeline:?}"
        );
    }
    let runtime: Vec<&str> = names_by_pid
        .iter()
        .filter(|(pid, _)| **pid >= 10)
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    assert!(runtime.iter().any(|n| n.starts_with("dispatch loop")));
    assert!(runtime.iter().any(|n| n.starts_with("loop ")));
    assert!(runtime.contains(&"post"), "DOACROSS posts are traced");

    // Per-track timestamps are monotone (the exporter receives the events
    // time-sorted and must preserve that per swim-lane).
    for (pid, ts) in &ts_by_pid {
        for w in ts.windows(2) {
            assert!(w[0] <= w[1], "pid {pid} timestamps out of order");
        }
    }
    // Runtime events sit after the pipeline started: one unified epoch.
    let first_pipeline = ts_by_pid.get(&1).and_then(|v| v.first()).copied().unwrap();
    for (pid, ts) in &ts_by_pid {
        if *pid >= 10 {
            assert!(
                ts[0] >= first_pipeline,
                "worker {pid} predates the pipeline"
            );
        }
    }

    assert!(
        stderr.contains("[chrome-trace:"),
        "event count summary on stderr: {stderr}"
    );
}

#[test]
fn flamegraph_emits_folded_stacks() {
    let prog = example();
    let (stdout, stderr) = dsec(&[&prog, "--emit", "flamegraph", "--threads", "4"]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "folded output is non-empty");
    for l in &lines {
        let (stack, weight) = l.rsplit_once(' ').expect("`frames weight` shape");
        assert!(!stack.is_empty());
        let w: u64 = weight.parse().unwrap_or_else(|_| panic!("weight in {l:?}"));
        assert!(w >= 1, "no zero-weight frames");
    }
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("worker ") && l.contains(";loop ")),
        "per-worker loop frames present: {lines:?}"
    );
    assert!(stderr.contains("[flamegraph:"));
}

#[test]
fn profile_prints_hot_loop_table() {
    let prog = example();
    let (stdout, _) = dsec(&["profile", &prog, "--threads", "4"]);
    // Table header plus one row per profiled loop, labelled from the
    // compiled program.
    assert!(stdout.contains("loop"), "header present:\n{stdout}");
    assert!(
        stdout.contains("p50"),
        "histogram columns present:\n{stdout}"
    );
    assert!(stdout.contains("`fill`"), "DOALL loop row:\n{stdout}");
    assert!(stdout.contains("`chain`"), "DOACROSS loop row:\n{stdout}");
    assert!(stdout.contains("(serial)"), "serial bucket row:\n{stdout}");
    // Percentages are rendered and the rows account for real work.
    assert!(stdout.contains('%'), "instruction share column:\n{stdout}");
}

#[test]
fn profile_rejects_missing_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsec"))
        .args(["profile", "/nonexistent/nope.cee"])
        .output()
        .expect("spawn dsec");
    assert!(!out.status.success());
}
