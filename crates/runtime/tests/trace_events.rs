//! Integration tests for the runtime tracing and profiling instruments:
//! event capture across DOALL and DOACROSS dispatches, ring overflow
//! accounting, the off-by-default contract, and the loop record (class
//! counts and exact iteration costs, on every path and both backends).

use std::collections::HashMap;

use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::tracebuf::RING_CAPACITY;
use dse_runtime::{BackendKind, EventKind, Value, Vm, VmConfig, HEAP_TID, SERIAL_LOOP};

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

fn src(iters: i64) -> String {
    format!(
        "int main() {{
            int *a; a = malloc({n} * sizeof(int));
            #pragma candidate work
            for (int i = 0; i < {n}; i++) {{ a[i] = a[i] + i; }}
            int s; s = 0;
            for (int i = 0; i < {n}; i++) {{ s += a[i]; }}
            free(a);
            return s % 1000; }}",
        n = iters
    )
}

/// A loop whose every iteration reads what the one before it wrote
/// (iterations `1..n`); returns `n`.
fn chain(n: i64) -> String {
    format!(
        "int main() {{
            int *a; a = malloc({n} * sizeof(int));
            a[0] = 1;
            #pragma candidate chain
            for (int i = 1; i < {n}; i++) {{ a[i] = a[i - 1] + 1; }}
            int last; last = a[{n} - 1];
            free(a);
            return last; }}"
    )
}

/// A traced DOALL run captures the dispatch, per-worker loop spans and
/// pool lifecycle events, all with sane payloads: timestamps sorted,
/// worker ids within the pool (or the allocator pseudo-id), loop ids
/// pointing into the compiled program.
#[test]
fn doall_trace_captures_dispatch_and_loop_spans() {
    let compiled = compile_parallel(&src(200), ParMode::DoAll);
    let nloops = compiled.loops.len();
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 4,
            trace: true,
            ..Default::default()
        },
    )
    .expect("vm");
    vm.run().expect("run");
    let (events, dropped) = vm.take_trace();
    assert_eq!(dropped, 0, "default capacity never overflows this workload");
    assert!(!events.is_empty());

    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert!(count(EventKind::Dispatch) >= 1, "the loop was dispatched");
    assert!(
        count(EventKind::LoopRun) >= 1,
        "at least the master recorded a loop span"
    );
    assert!(count(EventKind::Park) >= 1, "workers park before dispatch");

    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns, "take_trace sorts by start time");
    }
    for e in &events {
        assert!(e.tid < 4 || e.tid == HEAP_TID, "worker id in range: {e:?}");
        if matches!(e.kind, EventKind::Dispatch | EventKind::LoopRun) {
            assert!(
                (e.a as usize) < nloops,
                "loop id points into the program: {e:?}"
            );
        }
        if !e.kind.is_span() {
            assert_eq!(e.dur_ns, 0, "instant events carry no duration: {e:?}");
        }
    }
}

/// A traced DOACROSS run records the cross-iteration ordering traffic:
/// every iteration past the first posts, and waits pair with posts on the
/// same loop.
#[test]
fn doacross_trace_records_wait_and_post() {
    let compiled = compile_parallel(&chain(128), ParMode::DoAcross);
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 4,
            trace: true,
            ..Default::default()
        },
    )
    .expect("vm");
    let report = vm.run().expect("run");
    assert_eq!(report.return_value, Some(Value::I(128)));
    let (events, _) = vm.take_trace();
    let posts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Post)
        .collect();
    assert_eq!(posts.len(), 127, "one post per iteration in 1..128");
    let waits = events
        .iter()
        .filter(|e| e.kind == EventKind::WaitSpan)
        .count();
    assert!(waits >= 1, "the ordered chain forces at least one wait");
    for p in &posts {
        assert!(p.b >= 1 && p.b < 128, "posted iteration in range: {p:?}");
    }
}

/// The trace and the counters tell one story: on T=2 runs the default
/// rings hold whole, every steal and dispatch the pool counted is an event
/// in the trace (and vice versa), a DOACROSS loop posts once per iteration
/// it executed, and the `LoopRun` spans of a loop account for every one of
/// its iterations.
#[test]
fn ring_events_agree_with_pool_counters() {
    // Worker 0's half of the range is free and worker 1's is not, so
    // worker 0 runs dry and steals.
    let skewed = "int burn(int i) {
            int acc; acc = 0;
            for (int k = 0; k < (i < 128 ? 1 : 400); k++) { acc = acc + i + k; }
            return acc;
        }
        int main() {
        int *a; a = malloc(256 * sizeof(int));
        #pragma candidate skew
        for (int i = 0; i < 256; i++) { a[i] = burn(i); }
        #pragma candidate flat
        for (int i = 0; i < 256; i++) { a[i] = a[i] + 1; }
        int s; s = a[255];
        free(a);
        return s % 1000; }";
    for (src, mode, iterations, per_loop) in [
        (
            skewed.to_string(),
            ParMode::DoAll,
            None,
            &[("skew", 256), ("flat", 256)][..],
        ),
        (
            chain(300),
            ParMode::DoAcross,
            Some(299),
            &[("chain", 299)][..],
        ),
    ] {
        let config = VmConfig {
            nthreads: 2,
            trace: true,
            ..Default::default()
        };
        let compiled = compile_parallel(&src, mode);
        let labels: Vec<String> = compiled.loops.iter().map(|l| l.label.clone()).collect();
        let mut vm = Vm::new(compiled, config).expect("vm");
        let report = vm.run().expect("run");
        let (events, dropped) = vm.take_trace();
        assert_eq!(dropped, 0, "{mode:?}: the ring must hold the whole run");
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        let pool = report.pool;
        assert_eq!(count(EventKind::Steal), pool.steals, "{mode:?}: {pool:?}");
        assert_eq!(
            count(EventKind::Dispatch),
            pool.dispatches,
            "{mode:?}: {pool:?}"
        );
        match iterations {
            Some(n) => assert_eq!(count(EventKind::Post), n, "one post per iteration"),
            None => assert!(pool.steals >= 1, "the skew forces a steal: {pool:?}"),
        }
        let mut ran: HashMap<&str, u64> = HashMap::new();
        for e in events.iter().filter(|e| e.kind == EventKind::LoopRun) {
            *ran.entry(labels[e.a as usize].as_str()).or_default() += e.b;
        }
        assert_eq!(
            ran,
            per_loop.iter().copied().collect(),
            "{mode:?}: iterations per loop"
        );
    }
}

/// A DOACROSS loop that posts more often than two rings hold overflows
/// them: `take_trace` reports the overwrites and the surviving events are
/// the most recent window, still time-sorted.
#[test]
fn tiny_ring_reports_overflow_drops() {
    // Each iteration posts once, so 2.5 rings' worth of iterations cannot
    // fit in the two rings of a T=2 run, however the workers split them.
    let iterations = 5 * RING_CAPACITY as i64 / 2;
    let compiled = compile_parallel(&chain(iterations + 1), ParMode::DoAcross);
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 2,
            trace: true,
            ..Default::default()
        },
    )
    .expect("vm");
    vm.run().expect("run");
    let (events, dropped) = vm.take_trace();
    assert!(
        dropped > 0,
        "{iterations} ordered iterations through two {RING_CAPACITY}-slot rings must overwrite"
    );
    assert!(!events.is_empty(), "the most recent window survives");
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns);
    }
}

/// Tracing and profiling are off by default: the same workload yields an
/// empty trace and an empty profile, and a second traced `run` on one VM
/// starts from a drained sink.
#[test]
fn instruments_are_off_by_default() {
    let compiled = compile_parallel(&src(64), ParMode::DoAll);
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    )
    .expect("vm");
    vm.run().expect("run");
    let (events, dropped) = vm.take_trace();
    assert!(events.is_empty());
    assert_eq!(dropped, 0);
    assert!(vm.profile().is_empty());
}

/// The loop record attributes the hot loop's instructions to its loop id
/// and keeps the exact cost of every iteration, from every worker.
#[test]
fn opcode_profile_attributes_hot_loop() {
    let compiled = compile_parallel(&src(200), ParMode::DoAll);
    let nloops = compiled.loops.len();
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads: 4,
            profile: true,
            ..Default::default()
        },
    )
    .expect("vm");
    vm.run().expect("run");
    let profiles = vm.profile();
    assert!(!profiles.is_empty());
    let work = profiles
        .iter()
        .find(|p| p.loop_id != SERIAL_LOOP && (p.loop_id as usize) < nloops)
        .expect("the parallel loop appears in the profile");
    assert!(work.total_instructions() > 0);
    assert_eq!(work.iters, 200);
    assert_eq!(
        work.costs.iter().flatten().count(),
        200,
        "one recorded cost per iteration"
    );
    assert!(work.cost_quantile(0.5) > Some(0));
    let serial = profiles
        .iter()
        .find(|p| p.loop_id == SERIAL_LOOP)
        .expect("straight-line code is attributed to the serial bucket");
    assert!(serial.total_instructions() > 0);
}

/// The costs the loop record keeps do not depend on who ran the
/// iterations: one program, run inline on one thread and dispatched to a
/// pool of four, records the same multiset of `(pre, window, post)` per
/// loop, on either backend. The pool paths reset the ordering marks per
/// iteration, so a DOACROSS window splits the same way on every worker.
#[test]
fn iteration_costs_agree_across_thread_counts() {
    let src = "int g;
        long burn(int i) {
            long acc; acc = 0;
            for (int k = 0; k < i % 7; k++) { acc = acc + i * k; }
            return acc;
        }
        int main() {
        long *a; a = malloc(64 * sizeof(long));
        #pragma candidate fill
        for (int i = 0; i < 64; i++) { a[i] = burn(i); }
        #pragma candidate chain
        for (int i = 0; i < 64; i++) { a[i] = burn(i + 1); g = g + a[i]; a[i] = a[i] * 2; }
        out_long(g);
        free(a);
        return 0; }";
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let spec = |mode, sync_window| ParLoopSpec { mode, sync_window };
    let opts = LowerOptions {
        mode: LowerMode::Parallel,
        par: [
            ("fill".to_string(), spec(ParMode::DoAll, None)),
            // Statement 1, `g = g + a[i]`, is the ordered window.
            ("chain".to_string(), spec(ParMode::DoAcross, Some((1, 1)))),
        ]
        .into(),
        ..Default::default()
    };
    let compiled = dse_ir::lower_program(&ast, &opts).expect("lowering");
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        let costs_at = |nthreads| {
            let config = VmConfig {
                nthreads,
                backend,
                profile: true,
                ..Default::default()
            };
            let mut vm = Vm::new(compiled.clone(), config).expect("vm");
            vm.run().expect("run");
            let mut per_loop: HashMap<u32, Vec<(u64, u64, u64)>> = HashMap::new();
            for p in vm.profile() {
                let mut costs: Vec<_> = p
                    .costs
                    .iter()
                    .flatten()
                    .map(|c| (c.pre, c.window, c.post))
                    .collect();
                costs.sort_unstable();
                per_loop.insert(p.loop_id, costs);
            }
            per_loop
        };
        let serial = costs_at(1);
        for id in 0..2 {
            assert_eq!(serial[&id].len(), 64, "{backend:?}: loop {id}");
        }
        let chain = &serial[&1];
        assert!(
            chain
                .iter()
                .all(|&(pre, window, post)| pre > 0 && window > 0 && post > 0),
            "{backend:?}: the window splits every iteration: {chain:?}"
        );
        assert_eq!(costs_at(4), serial, "{backend:?}: 4 threads against 1");
    }
}
