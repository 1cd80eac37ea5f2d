//! Cross-crate integration tests over the whole stack, exercising
//! combinations that the per-crate suites do not: several privatization
//! idioms in one program, expansion composed with the schedule simulator,
//! and the pretty report plumbing the examples rely on.

use dse_bench::sim;
use dse_core::{Analysis, OptLevel};
use dse_runtime::{Vm, VmConfig};

/// A program combining four idioms in one candidate loop: a global scratch
/// array, a heap buffer with constant span, a per-iteration linked list,
/// and an accumulator (forcing DOACROSS with a narrow ordered window).
const KITCHEN_SINK: &str = "
    struct Node { int v; struct Node *next; };
    int gscratch[8];
    int main() {
      int *buf; buf = malloc(12 * sizeof(int));
      long acc; acc = 0;
      #pragma candidate sink
      for (int i = 0; i < 24; i++) {
        for (int k = 0; k < 8; k++) { gscratch[k] = i + k; }
        for (int k = 0; k < 12; k++) { buf[k] = gscratch[k % 8] * 2; }
        struct Node *head; head = 0;
        for (int k = 0; k < 4; k++) {
          struct Node *n; n = malloc(sizeof(struct Node));
          n->v = buf[k] + i;
          n->next = head;
          head = n;
        }
        int s; s = 0;
        while (head) {
          s += head->v;
          struct Node *d; d = head;
          head = head->next;
          free(d);
        }
        acc += s;
      }
      out_long(acc);
      free(buf);
      return 0;
    }";

fn outputs(compiled: dse_ir::bytecode::CompiledProgram, n: u32) -> Vec<i64> {
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: n,
            ..Default::default()
        },
    )
    .unwrap();
    vm.run().unwrap();
    vm.outputs_int()
}

#[test]
fn kitchen_sink_all_configurations_agree() {
    let analysis = Analysis::from_source(KITCHEN_SINK, VmConfig::default()).unwrap();
    let reference = outputs(analysis.serial.clone(), 1);
    assert_eq!(
        analysis.classification("sink").unwrap().mode,
        dse_ir::loops::ParMode::DoAcross
    );
    for opt in [OptLevel::None, OptLevel::NoConstSpan, OptLevel::Full] {
        for n in [1u32, 3, 8] {
            let t = analysis.transform(opt, n).unwrap();
            assert_eq!(outputs(t.parallel, n), reference, "{opt:?} n={n}");
        }
    }
    for n in [1u32, 4] {
        let b = analysis.baseline_parallel(n).unwrap();
        assert_eq!(outputs(b.parallel, n), reference, "baseline n={n}");
    }
}

#[test]
fn kitchen_sink_report_covers_all_idiom_kinds() {
    let analysis = Analysis::from_source(KITCHEN_SINK, VmConfig::default()).unwrap();
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    assert!(t.report.expanded_allocs >= 2, "buf and the list nodes");
    assert!(t.report.expanded_globals >= 1, "gscratch");
    assert!(t.report.expanded_locals >= 1, "the list head pointers");
    assert!(t.report.expanded_scalar_locals >= 1, "s and friends");
}

#[test]
fn simulated_schedule_beats_serial_only_with_narrow_window() {
    let analysis = Analysis::from_source(KITCHEN_SINK, VmConfig::default()).unwrap();
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    let mut cfg = VmConfig {
        profile: true,
        ..Default::default()
    };
    cfg.nthreads = 1;
    let mut vm = Vm::new(t.parallel.clone(), cfg).unwrap();
    let report = vm.run().unwrap();
    let modes = t
        .parallel
        .loops
        .iter()
        .enumerate()
        .map(|(i, l)| (i as u32, l.mode.unwrap_or(dse_ir::loops::ParMode::DoAll)))
        .collect();
    let profile = vm.profile();
    let s1 = sim::simulate_program(report.counters.work, &profile, &modes, 1, false);
    let s4 = sim::simulate_program(report.counters.work, &profile, &modes, 4, false);
    // The accumulator window is one statement at the end of the body: the
    // loop must pipeline well.
    let speedup = s1.total_time / s4.total_time;
    assert!(
        speedup > 2.0,
        "expected pipelined speedup, got {speedup:.2}"
    );
}

/// Programs without candidate loops pass through the pipeline unchanged.
#[test]
fn no_candidates_is_identity() {
    let src = "int main() { int s; s = 0;
        for (int i = 0; i < 10; i++) { s += i; }
        out_long(s); return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    assert!(analysis.profile.loops.is_empty());
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    assert_eq!(t.report.privatized_structures(), 0);
    assert_eq!(outputs(t.parallel, 4), outputs(analysis.serial.clone(), 1));
}

/// Transform determinism: same input, same plan, byte-identical programs.
#[test]
fn transform_is_deterministic() {
    let a1 = Analysis::from_source(KITCHEN_SINK, VmConfig::default()).unwrap();
    let a2 = Analysis::from_source(KITCHEN_SINK, VmConfig::default()).unwrap();
    let t1 = a1.transform(OptLevel::Full, 4).unwrap();
    let t2 = a2.transform(OptLevel::Full, 4).unwrap();
    assert_eq!(t1.program, t2.program);
    assert_eq!(t1.report, t2.report);
}

/// Locates the `dsec` binary built alongside this test executable
/// (`target/<profile>/dsec`); the workspace builds every bin target
/// before integration tests run.
fn dsec_binary() -> std::path::PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop(); // the test binary's own name
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("dsec{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.exists(),
        "dsec not found at {} — build the workspace first",
        bin.display()
    );
    bin
}

#[test]
fn dsec_metrics_agree_with_vm_report() {
    use dse_telemetry::Json;

    let dir = std::env::temp_dir().join(format!("dse-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("sink.cee");
    std::fs::write(&prog, KITCHEN_SINK).unwrap();

    let out = std::process::Command::new(dsec_binary())
        .args([
            prog.to_str().unwrap(),
            "--run",
            "--threads",
            "4",
            "--metrics",
            "-",
        ])
        .output()
        .expect("spawn dsec");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "dsec failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();

    let line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("metrics JSON on stdout");
    let m = Json::parse(line).expect("parseable JSON");

    // The per-thread Figure-12 counters must sum to the aggregate the VM
    // reported (the `[N instructions, ...]` stderr line).
    let vm = m.get("vm").expect("--run populates vm stats");
    let count = |c: &Json, name: &str| c.get(name).and_then(Json::as_i64).expect("a counter");
    let totals = vm.get("totals").expect("aggregate counters");
    let per_thread = vm.get("per_thread").and_then(Json::as_arr).expect("array");
    let per_thread_work: i64 = per_thread.iter().map(|c| count(c, "work")).sum();
    assert_eq!(per_thread_work, count(totals, "work"));
    let reported: i64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix('[')?.split(' ').next()?.parse().ok())
        .expect("instruction count on stderr");
    assert_eq!(count(totals, "work"), reported);

    // DOACROSS scheduling of the kitchen sink shows up as sync activity.
    assert!(per_thread.len() == 4);
    assert!(
        count(totals, "sync_ops") > 0,
        "ordered window executed Wait/Post"
    );

    std::fs::remove_dir_all(&dir).ok();
}
