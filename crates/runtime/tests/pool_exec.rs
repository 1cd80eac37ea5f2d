//! Executor-pool tests: iteration coverage under the work-stealing
//! scheduler (awkward ranges, both loop modes), pool lifecycle across
//! back-to-back dispatches, nested-loop inlining, and abort recovery.

use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::{RunReport, Value, Vm, VmConfig};

/// Compiles `src` with every candidate loop parallelized in `mode`.
fn compile_parallel(src: &str, mode: ParMode) -> CompiledProgram {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let cands = dse_ir::loops::find_candidate_loops(&ast).expect("candidates");
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    for c in &cands {
        opts.par.insert(
            c.label.clone(),
            ParLoopSpec {
                mode,
                sync_window: (mode == ParMode::DoAcross).then_some((0, 0)),
            },
        );
    }
    dse_ir::lower_program(&ast, &opts).expect("lowering")
}

fn run_compiled(compiled: CompiledProgram, config: VmConfig) -> (i64, RunReport) {
    let mut vm = Vm::new(compiled, config).expect("vm");
    let report = vm.run().expect("run");
    match report.return_value {
        Some(Value::I(v)) => (v, report),
        other => panic!("expected integer return, got {other:?}"),
    }
}

/// A program whose return value counts coverage violations: cell `i` must
/// be incremented exactly once by iteration `i` (0 = every iteration ran
/// exactly once; a skipped or doubly-executed iteration shows up).
fn coverage_src(iters: i64) -> String {
    format!(
        "int main() {{
            int *a; a = malloc(({n} + 1) * sizeof(int));
            #pragma candidate cover
            for (int i = 0; i < {n}; i++) {{ a[i] = a[i] + 1; }}
            int bad; bad = 0;
            for (int i = 0; i < {n}; i++) {{
                if (a[i] != 1) {{ bad = bad + 1; }}
            }}
            free(a);
            return bad; }}",
        n = iters
    )
}

/// Every iteration of awkward ranges executes exactly once, for DOALL and
/// DOACROSS. Ranges: empty, single, fewer iterations than workers (7 on 8
/// threads), `hi - lo` below one chunk, and a round count.
#[test]
fn awkward_ranges_execute_exactly_once() {
    for &iters in &[0i64, 1, 3, 7, 13, 100] {
        let src = coverage_src(iters);
        for mode in [ParMode::DoAll, ParMode::DoAcross] {
            let (bad, _) = run_compiled(
                compile_parallel(&src, mode),
                VmConfig {
                    nthreads: 8,
                    ..Default::default()
                },
            );
            assert_eq!(bad, 0, "coverage violated: {iters} iters, {mode:?}");
        }
    }
}

/// Back-to-back dispatches reuse the same persistent workers: exactly
/// `nthreads - 1` threads are spawned for the whole run however many loops
/// execute, and each dispatch wakes each worker exactly once.
#[test]
fn back_to_back_dispatches_reuse_workers() {
    let src = "int main() {
        int *a; a = malloc(100 * sizeof(int));
        #pragma candidate l0
        for (int i = 0; i < 100; i++) { a[i] = a[i] + 1; }
        #pragma candidate l1
        for (int i = 0; i < 100; i++) { a[i] = a[i] + 1; }
        #pragma candidate l2
        for (int i = 0; i < 100; i++) { a[i] = a[i] + 1; }
        #pragma candidate l3
        for (int i = 0; i < 100; i++) { a[i] = a[i] + 1; }
        #pragma candidate l4
        for (int i = 0; i < 100; i++) { a[i] = a[i] + 1; }
        int s; s = 0;
        for (int i = 0; i < 100; i++) { s += a[i]; }
        free(a);
        return s; }";
    let compiled = compile_parallel(src, ParMode::DoAll);
    let (v, report) = run_compiled(
        compiled,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    );
    assert_eq!(v, 500, "all five loops ran over all 100 cells");
    let p = report.pool;
    assert_eq!(
        p.workers, 3,
        "one spawn per worker for the whole run: {p:?}"
    );
    assert_eq!(p.dispatches, 5, "one dispatch per parallel loop: {p:?}");
    assert_eq!(
        p.wakeups,
        p.dispatches * p.workers,
        "each dispatch wakes each worker exactly once: {p:?}"
    );
}

/// A parallel loop nested inside an executing parallel loop runs inline on
/// the worker that reaches it — only the outer loop is dispatched.
#[test]
fn nested_parallel_loops_run_inline() {
    // The inner loop sits in a callee so its induction slot `j` lives in a
    // frame on the worker's own stack. Written inside `main`'s outer body
    // it would sit in the one frame all four workers share (nothing here
    // runs the expansion pass), and one worker's post-loop `j = hi` store
    // could land between another's `j = 0` and its read of the lower
    // bound, skipping that worker's whole inner loop.
    let src = "int row(int *a, int i) {
            #pragma candidate inner
            for (int j = 0; j < 16; j++) { a[i * 16 + j] = i + j; }
            return 0;
        }
        int main() {
        int *a; a = malloc(16 * 16 * sizeof(int));
        #pragma candidate outer
        for (int i = 0; i < 16; i++) { row(a, i); }
        int s; s = 0;
        for (int k = 0; k < 16 * 16; k++) { s += a[k]; }
        free(a);
        return s; }";
    let serial = {
        let compiled = compile_parallel(src, ParMode::DoAll);
        run_compiled(compiled, VmConfig::default()).0
    };
    let compiled = compile_parallel(src, ParMode::DoAll);
    let (v, report) = run_compiled(
        compiled,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    );
    assert_eq!(v, serial);
    assert_eq!(
        report.pool.dispatches, 1,
        "inner loops run inline, not through the pool: {:?}",
        report.pool
    );
}

/// A trapping worker's real error wins over its peers' abort errors, and
/// the same `Vm` (same pool state, contexts dirty from the abort) executes
/// a later parallel loop correctly.
#[test]
fn trapping_worker_aborts_peers_and_pool_stays_usable() {
    // `g` persists in VM memory across `run` calls: the first run takes the
    // trapping branch, the second skips it and must run cleanly on the
    // reopened pool.
    let src = "int g;
        int main() {
        int *a; a = malloc(64 * sizeof(int));
        if (g == 0) {
            g = 1;
            int z; z = 0;
            #pragma candidate boom
            for (int i = 0; i < 64; i++) { a[i] = i / z; }
        }
        #pragma candidate fine
        for (int i = 0; i < 64; i++) { a[i] = i * 2; }
        int s; s = 0;
        for (int i = 0; i < 64; i++) { s += a[i]; }
        free(a);
        return s % 1000; }";
    let compiled = compile_parallel(src, ParMode::DoAll);
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    )
    .expect("vm");
    let e = vm.run().expect_err("first run traps");
    assert!(
        e.msg.contains("division"),
        "the real trap is reported, not the abort: {e}"
    );
    let report = vm.run().expect("second run succeeds on the reused pool");
    // sum(0..64) * 2 = 4032
    assert_eq!(report.return_value, Some(Value::I(32)));
    assert_eq!(
        report.pool.workers, 6,
        "each run spawns its own scope of 3 workers: {:?}",
        report.pool
    );
    assert_eq!(report.pool.dispatches, 2, "one loop dispatched per run");
}

/// A skewed workload (early iterations vastly more expensive) produces the
/// same result under 8-thread work stealing as the `nthreads = 1` inline
/// run.
#[test]
fn stealing_matches_serial_on_skewed_work() {
    // The skewed work runs in a function so its locals live in a frame on
    // each worker's private stack (loop-body scalars sit in the shared
    // enclosing frame until the expansion pass privatizes them).
    let src = "int burn(int i) {
            int w; w = i < 32 ? 400 : 1;
            int acc; acc = 0;
            for (int k = 0; k < w; k++) { acc = acc + i + k; }
            return acc;
        }
        int main() {
        int *a; a = malloc(256 * sizeof(int));
        #pragma candidate skew
        for (int i = 0; i < 256; i++) { a[i] = burn(i); }
        int s; s = 0;
        for (int i = 0; i < 256; i++) { s += a[i]; }
        free(a);
        return s % 100000; }";
    let serial = {
        let compiled = compile_parallel(src, ParMode::DoAll);
        run_compiled(compiled, VmConfig::default()).0
    };
    let compiled = compile_parallel(src, ParMode::DoAll);
    let (v, _) = run_compiled(
        compiled,
        VmConfig {
            nthreads: 8,
            ..Default::default()
        },
    );
    assert_eq!(v, serial, "stealing matches serial");
}
