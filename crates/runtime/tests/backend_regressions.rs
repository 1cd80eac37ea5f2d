//! Regression tests for the execution-backend split: type-confused
//! bytecode must *trap*, not panic, and a trapped run must leave the VM
//! usable (outputs readable, reruns possible) under both backends.

use dse_ir::bytecode::Instr;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::{Allocation, BackendKind, Observer, Vm, VmConfig};

/// Lowers `src`, every `#pragma candidate` loop as a DOALL `ParLoop`.
fn compile(src: &str) -> dse_ir::bytecode::CompiledProgram {
    let doall = ParLoopSpec {
        mode: ParMode::DoAll,
        sync_window: None,
    };
    lower(src, Some(doall))
}

/// Lowers `src`, every `#pragma candidate` loop as `spec` says, or as the
/// serial lowering's `LoopMark`-bracketed loop for `None`.
fn lower(src: &str, spec: Option<ParLoopSpec>) -> dse_ir::bytecode::CompiledProgram {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let opts = match spec {
        Some(spec) => LowerOptions {
            mode: LowerMode::Parallel,
            par: dse_ir::loops::find_candidate_loops(&ast)
                .expect("candidates")
                .into_iter()
                .map(|c| (c.label, spec.clone()))
                .collect(),
            ..Default::default()
        },
        None => LowerOptions::default(),
    };
    dse_ir::lower_program(&ast, &opts).expect("lowering")
}

fn cfg(backend: BackendKind) -> VmConfig {
    VmConfig {
        backend,
        ..Default::default()
    }
}

/// A sound lowering never emits this shape; it models a lowering bug (or a
/// hostile daemon request): an integer add whose left operand is a float.
fn type_confused_program() -> dse_ir::bytecode::CompiledProgram {
    let mut prog = compile("int main() { return 1 + 2; }");
    let pc = prog
        .code
        .iter()
        .position(|i| matches!(i, Instr::PushI(1)))
        .expect("PushI(1) in reference encoding");
    prog.code[pc] = Instr::PushF(1.5);
    prog
}

#[test]
fn type_confused_bytecode_traps_on_stack_backend() {
    let mut vm = Vm::new(type_confused_program(), cfg(BackendKind::Stack)).expect("vm");
    let err = vm.run().expect_err("must trap, not panic");
    assert!(
        err.to_string().contains("type confusion"),
        "wrong trap: {err}"
    );
}

#[test]
fn type_confused_bytecode_is_rejected_by_register_lowering() {
    // The register translator types every stack slot; a float flowing into
    // an integer op is a join/operand mismatch, reported as a construction
    // error — never a panic inside the daemon.
    let err = Vm::new(type_confused_program(), cfg(BackendKind::Reg))
        .err()
        .expect("register lowering must reject type-confused bytecode");
    assert!(
        err.to_string().contains("register lowering failed"),
        "wrong error: {err}"
    );
}

#[test]
fn type_confused_store_traps_on_stack_backend() {
    // Store a float through an int-typed store: `is_float: false` with a
    // float on top of the operand stack.
    let mut prog = compile("int main() { int x = 7; return x; }");
    let pc = prog
        .code
        .iter()
        .position(|i| matches!(i, Instr::PushI(7)))
        .expect("PushI(7) in reference encoding");
    prog.code[pc] = Instr::PushF(7.0);
    let mut vm = Vm::new(prog, cfg(BackendKind::Stack)).expect("vm");
    let err = vm.run().expect_err("must trap, not panic");
    assert!(
        err.to_string().contains("type confusion"),
        "wrong trap: {err}"
    );
}

#[test]
fn trapped_run_leaves_vm_usable() {
    // The program emits output, then traps. Partial outputs must stay
    // readable (the accessors recover poisoned locks) and a rerun must
    // reach the same trap instead of wedging or panicking.
    let src = r#"
        int main() {
            int z = in_long(0);
            out_long(41);
            print_long(99);
            return 5 / z;
        }
    "#;
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        let mut config = cfg(backend);
        config.inputs_int = vec![0];
        let mut vm = Vm::new(compile(src), config).expect("vm");
        let err = vm.run().expect_err("division by zero must trap");
        assert!(
            err.to_string().contains("division by zero"),
            "{:?}: wrong trap: {err}",
            backend
        );
        assert_eq!(vm.outputs_int(), vec![41], "{backend:?}");
        assert!(vm.console().contains("99"), "{backend:?}");
        let again = vm.run().expect_err("rerun must trap identically");
        assert_eq!(err.to_string(), again.to_string(), "{backend:?}");
        // Outputs accumulate across runs; the second one appended too.
        assert_eq!(vm.outputs_int(), vec![41, 41], "{backend:?}");
    }
}

/// Heap events in the order the observer hears them (the access stream is
/// not compared: scalar promotion thins it by design).
#[derive(Default)]
struct HeapLog(Vec<String>);

impl Observer for HeapLog {
    fn on_alloc(&mut self, a: Allocation, pc: u32) {
        self.0
            .push(format!("alloc {}+{} at pc {pc}", a.base, a.size));
    }
    fn on_free(&mut self, a: Allocation) {
        self.0.push(format!("free {}+{}", a.base, a.size));
    }
}

/// One program per shared `ops` helper that can trap: (trap message
/// fragment, source, input that traps, input that lets it finish).
const TRAP_TABLE: &[(&str, &str, i64, i64)] = &[
    (
        "invalid load of 8 bytes",
        "long g[4]; int main() { return (int)g[in_long(0)]; }",
        1 << 40,
        1,
    ),
    (
        "invalid store of 8 bytes",
        "long g[4]; int main() { g[in_long(0)] = 7; return (int)g[1]; }",
        1 << 40,
        1,
    ),
    (
        "invalid memcpy of 16 bytes",
        "struct S { long a; long b; }; struct S g[4];
         int main() { struct S t; g[1].b = 9; t = g[in_long(0)]; return (int)t.b; }",
        1 << 40,
        1,
    ),
    (
        "division by zero",
        "int main() { return (int)(100 / in_long(0)); }",
        0,
        7,
    ),
    (
        "remainder by zero",
        "int main() { return (int)(100 % in_long(0)); }",
        0,
        7,
    ),
    (
        "stack overflow calling `f`",
        "long f(long n) { if (n == 0) { return 0; } return 1 + f(n - 1); }
         int main() { return (int)f(in_long(0)); }",
        10_000_000,
        10,
    ),
    (
        "malloc with negative size -1",
        "int main() { long *p; p = malloc(in_long(0)); free(p); return 0; }",
        -1,
        8,
    ),
    (
        "calloc with negative operand (-2, -3)",
        "int main() { long *p; p = calloc(in_long(0), in_long(0) - 1); free(p); return 0; }",
        -2,
        4,
    ),
    (
        "free of invalid pointer",
        "int main() { long *p; p = malloc(16); free(p + in_long(0)); return 0; }",
        1,
        0,
    ),
    (
        "in_long(5) out of range",
        "int main() { return (int)in_long(in_long(0)); }",
        5,
        0,
    ),
    (
        "__memcpy out of bounds",
        "int main() { long *a; a = malloc(32); long *b; b = malloc(32);
           a[1] = 5; __memcpy(b, a, in_long(0)); out_long(b[1]); return 0; }",
        1 << 40,
        16,
    ),
    (
        "out of memory in expanded realloc",
        "int main() { long *p; p = malloc(64); p[2] = 6;
           p = __realloc_expanded(p, in_long(0), 16); out_long(p[4]); free(p); return 0; }",
        1 << 62,
        32,
    ),
    // `hi - lo` past `i64::MAX`: the DOALL split must still hand out the
    // iterations (they then run into the budget), not wrap to empty shares
    // and "finish" having run none. The body is one instruction under
    // either encoding, so every worker exhausts its budget at the same pc.
    (
        "instruction budget exceeded",
        "int main() { long n; n = in_long(0);
           #pragma candidate wide
           for (long i = 0 - n; i < n; i++) { }
           return 0; }",
        i64::MAX,
        3,
    ),
];

#[test]
fn both_backends_trap_and_finish_identically() {
    // Register traps are mapped back through the origin table, so a trap
    // reports the *stack* pc and the same message regardless of backend —
    // the daemon's error text (and site attribution) stay
    // backend-independent. `work` is excluded: fusion retires fewer
    // instructions by design.
    for &(name, src, bad, good) in TRAP_TABLE {
        let run = |backend, input| {
            let config = VmConfig {
                backend,
                nthreads: 4,
                mem_bytes: 8 << 20,
                stack_bytes: 32 << 10,
                max_instructions: 1 << 16,
                inputs_int: vec![input],
                ..Default::default()
            };
            let mut vm = Vm::new(compile(src), config).expect("vm");
            let mut heap = HeapLog::default();
            let result = vm.run_with_observer(&mut heap).map(|mut report| {
                report.counters.work = 0;
                report.per_thread.iter_mut().for_each(|c| c.work = 0);
                (report.return_value, report.counters, report.per_thread)
            });
            (result, heap.0, vm.outputs_int(), vm.console())
        };
        let trapped = run(BackendKind::Stack, bad);
        let msg = &trapped.0.as_ref().expect_err(name).msg;
        assert!(
            msg.contains(name),
            "expected `{name}`, trapped with `{msg}`"
        );
        assert_eq!(trapped, run(BackendKind::Reg, bad), "{name}: trapping run");
        let finished = run(BackendKind::Stack, good);
        assert!(finished.0.is_ok(), "{name}: {:?}", finished.0);
        assert_eq!(finished, run(BackendKind::Reg, good), "{name}: clean run");
    }
}

/// A call, a builtin call and one candidate loop: `LoopMark`s in the serial
/// lowering, an inline DOACROSS `ParLoop` with `Wait`/`Post` in the
/// parallel one at one thread. Neither lowering has a tid-addressed access,
/// so tid fusion leaves the register backend's counts where they were too.
const FLUSH_SRC: &str = "
    long step(long x) { return x * 3 + 1; }
    int main() {
        long *a; a = malloc(3 * sizeof(long));
        long acc; acc = 0;
        #pragma candidate chain
        for (int i = 0; i < 3; i++) { acc = acc + step(i); a[i] = acc; }
        out_long(a[2]);
        free(a);
        return 0; }";

/// Records the `work` argument of every loop event.
#[derive(Default)]
struct LoopWork(Vec<u64>);

impl Observer for LoopWork {
    fn on_loop(&mut self, _: dse_ir::bytecode::LoopEvent, _: u32, _: u64, work: u64) {
        self.0.push(work);
    }
}

/// What one (backend, lowering) of [`FLUSH_SRC`] reads: the unlimited
/// run's instruction count, where a budget of half of it and of one less
/// than it trap, the `work` every `on_loop` saw, and the `(pre, window,
/// post)` of every recorded iteration. The stack rows are what they were
/// before the interpreters moved `counters.work` into a local. The
/// register rows moved with the translator (PR 19), and only with it:
///
/// * serial, 90 → 69: `main` keeps `a`, `acc` and `i` in registers. Each
///   of the three calls of `step` used to spill and reload all three
///   (−18: a call's window now starts above its caller's registers), and
///   the prologue used to load all three from their zeroed slots (−3: all
///   are assigned before they are read, so none loads at entry; `step`
///   still loads its parameter).
/// * parallel, 79 → 79, each iteration `(1, 11, 7)` → `(2, 11, 6)`: the
///   body now keeps the loop-invariant `a` in a register — one entry load
///   before the `Wait` (+1 `pre`), one frame load fewer after the `Post`
///   (−1 `post`). `acc` is stored by the body, so it stays in memory.
///
/// and once more when `main`, which dispatches the loop, stopped being
/// refused promotion (PR 24): parallel, 79 → 83, iterations unchanged.
/// `main` keeps `a`, `acc` and `i` in registers and a `ParLoop` spills what
/// the region stored and reloads everything: three spills stand where the
/// three stores were, `malloc`'s pinned result needs a move (+1), three
/// reloads follow the loop (+3) and the two loads of `a` after it are
/// gone, one of them into its use (−1), the other to a move. Three
/// iterations do not pay for a spill; `mpeg2dec`'s and `lbm`'s do.
///
/// And once more with the indexed and sign-extending fusions: serial,
/// 63 (−2 per iteration: `i++` on the promoted `int` is one `IBinImmSext`,
/// `a[i]`'s address one `AddScaled`), so the 32nd instruction, over the
/// half budget, is `step`'s `+ 1` (pc 4) instead of its `return` (pc 6);
/// parallel, 80, each iteration `(2, 11, 5)` (the `AddScaled`, after the
/// `Post`).
///
/// And once more with loop rotation: serial, 60 (−1 per trip: the body
/// calls `step`, so the header keeps its `Mov` of `i` and is two
/// instructions; the back-edge runs a copy of that `Mov` and the inverted
/// test where it ran a `Jump`, the `Mov` and the test, and `i++` does not
/// fold). The second and third iterations start one and two instructions
/// earlier and the loop ends three earlier (`on_loop` 25, 39, 53); both
/// budgets still trap where they did.
/// The parallel lowering has no loop of its own: unchanged.
struct FlushPins {
    backend: BackendKind,
    parallel: bool,
    work: u64,
    trap_pcs: [u32; 2],
    loop_work: &'static [u64],
    iter_costs: &'static [(u64, u64, u64)],
}

const FLUSH_PINS: &[FlushPins] = &[
    FlushPins {
        backend: BackendKind::Stack,
        parallel: false,
        work: 144,
        trap_pcs: [36, 64],
        loop_work: &[13, 19, 57, 95, 133],
        iter_costs: &[],
    },
    FlushPins {
        backend: BackendKind::Reg,
        parallel: false,
        work: 60,
        trap_pcs: [4, 64],
        loop_work: &[8, 11, 25, 39, 53],
        iter_costs: &[],
    },
    FlushPins {
        backend: BackendKind::Stack,
        parallel: true,
        work: 109,
        trap_pcs: [6, 58],
        loop_work: &[],
        iter_costs: &[(1, 15, 10), (1, 15, 10), (1, 15, 10)],
    },
    FlushPins {
        backend: BackendKind::Reg,
        parallel: true,
        work: 80,
        trap_pcs: [6, 58],
        loop_work: &[],
        iter_costs: &[(2, 11, 5), (2, 11, 5), (2, 11, 5)],
    },
];

#[test]
fn instruction_count_is_exact_at_every_flush_point() {
    for pins in FLUSH_PINS {
        let what = format!("{:?}, parallel lowering: {}", pins.backend, pins.parallel);
        let doacross = ParLoopSpec {
            mode: ParMode::DoAcross,
            sync_window: Some((0, 0)),
        };
        let vm = |max_instructions| {
            let config = VmConfig {
                backend: pins.backend,
                max_instructions,
                profile: true,
                ..Default::default()
            };
            Vm::new(
                lower(FLUSH_SRC, pins.parallel.then(|| doacross.clone())),
                config,
            )
            .expect("vm")
        };
        let mut unlimited = vm(u64::MAX);
        let mut seen = LoopWork::default();
        let report = unlimited
            .run_with_observer(&mut seen)
            .expect("unlimited run");
        let work = report.counters.work;
        assert_eq!(work, pins.work, "{what}: instructions retired");
        assert_eq!(seen.0, pins.loop_work, "{what}: `work` seen by on_loop");
        let costs: Vec<(u64, u64, u64)> = unlimited
            .profile()
            .iter()
            .flat_map(|p| p.costs.iter().flatten())
            .map(|c| (c.pre, c.window, c.post))
            .collect();
        assert_eq!(costs, pins.iter_costs, "{what}: recorded iteration costs");
        // The budget is exact to the instruction: `work` of them fit, one
        // fewer does not, and a trap mid-run names the instruction that
        // would have been one too many.
        vm(work)
            .run()
            .expect("a budget of exactly `work` completes");
        for (budget, pc) in [work / 2, work - 1].into_iter().zip(pins.trap_pcs) {
            let err = vm(budget).run().expect_err("over budget");
            assert!(
                err.msg.contains("instruction budget exceeded"),
                "{what}: {err}"
            );
            assert_eq!(err.pc, pc, "{what}: budget {budget} of {work}");
        }
    }
}

/// A parallel loop reached in the middle of an expression — `f` is called
/// with `1000 +` pending — must leave the caller's operands alone. The
/// stack interpreter's region `Ret` used to pop one per iteration on the
/// master and on any inline run: `operand stack underflow`, or a silently
/// wrong sum.
#[test]
fn loop_body_return_leaves_the_callers_operands() {
    let src = "long f(long n) {
            long *a; a = malloc(8 * sizeof(long));
            #pragma candidate fill
            for (int i = 0; i < 8; i++) { a[i] = i * n; }
            long s; s = a[7] + a[1];
            free(a);
            return s; }
        int main() { return (int)(1000 + f(3)); }";
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        for nthreads in [1, 4] {
            let config = VmConfig {
                nthreads,
                ..cfg(backend)
            };
            let report = Vm::new(compile(src), config).expect("vm").run();
            let value = report.map(|r| r.return_value);
            assert_eq!(
                value,
                Ok(Some(dse_runtime::Value::I(1024))),
                "{backend:?}, {nthreads} thread(s)"
            );
        }
    }
}

#[test]
fn env_selects_the_register_backend() {
    assert_eq!(BackendKind::parse("reg"), Some(BackendKind::Reg));
    assert_eq!(BackendKind::parse("register"), Some(BackendKind::Reg));
    assert_eq!(BackendKind::parse("stack"), Some(BackendKind::Stack));
    assert_eq!(BackendKind::parse("asm"), None);
}

#[test]
fn register_backend_matches_stack_on_a_recursive_workload() {
    let src = r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            out_long(fib(20));
            return 0;
        }
    "#;
    let mut outs = Vec::new();
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        let mut vm = Vm::new(compile(src), cfg(backend)).expect("vm");
        vm.run().expect("run");
        outs.push(vm.outputs_int());
    }
    assert_eq!(outs[0], vec![6765]);
    assert_eq!(outs[0], outs[1]);
}

/// A body the register translator now keeps in registers — private
/// replicas, a loop-invariant scalar — that calls a function (its window
/// goes above them), dispatches a nested candidate loop (spill before,
/// reload after) and divides by `n - i`: iteration `n` traps in the middle,
/// after the call and the nested loop. Both backends finish the same or
/// trap at the same stack pc with the same message.
#[test]
fn promoted_body_with_a_call_and_a_nested_loop_traps_like_the_stack_backend() {
    let src = "long half(long x) { return x / 2; }
        int main() {
          long n; n = in_long(0);
          long *out; out = malloc(8 * sizeof(long));
          long t[4]; long u[4];
          #pragma candidate outer
          for (int i = 0; i < 4; i++) {
            t[__tid()] = half(i * 4);
            #pragma candidate inner
            for (int j = 0; j < 2; j++) {
              u[__tid()] = j;
              out[i * 2 + j] = t[__tid()] + u[__tid()];
            }
            out[i * 2] = out[i * 2] + 100 / (n - i);
          }
          long s; s = 0;
          for (int k = 0; k < 8; k++) { s = s + out[k]; }
          out_long(s);
          free(out);
          return 0; }";
    let prog = compile(src);
    let rp = dse_ir::regcode::translate(&prog).expect("translates");
    let bodies = &rp.promo.places[prog.funcs.len()..];
    assert!(
        bodies.iter().all(|b| !b.is_empty()),
        "both bodies promote: {bodies:?}"
    );
    for nthreads in [1, 4] {
        let run = |backend, n| {
            let config = VmConfig {
                nthreads,
                inputs_int: vec![n],
                ..cfg(backend)
            };
            let mut vm = Vm::new(prog.clone(), config).expect("vm");
            let end = vm.run().map(|r| r.return_value);
            (end, vm.outputs_int())
        };
        let clean = run(BackendKind::Stack, 9);
        assert_eq!(clean.1.len(), 1, "{clean:?}");
        assert_eq!(clean, run(BackendKind::Reg, 9), "{nthreads} thread(s)");
        let trapped = run(BackendKind::Stack, 2);
        let err = trapped.0.as_ref().expect_err("iteration 2 divides by zero");
        assert!(err.msg.contains("division by zero"), "{err}");
        assert_eq!(trapped, run(BackendKind::Reg, 2), "{nthreads} thread(s)");
    }
}

/// What scalar promotion assumes, and C with it: an address derived from
/// an object stays inside that object. `a[i]` with `i == 2` is one past
/// `long a[2]` and lands on `x`'s slot. The stack interpreter keeps `x`
/// there, so the store is visible; the register translator keeps `x` in a
/// register — only `a`, whose address was used for arithmetic, stays in
/// memory — so it is not. The program is undefined in C and the two
/// backends may print different values for it; what both owe it is a run
/// that neither panics nor traps (the slot is inside the frame), and
/// agreement whenever the index is in bounds.
#[test]
fn indexing_past_a_local_array_is_outside_what_the_backends_agree_on() {
    let prog = compile(
        "int main() { long a[2]; long x; x = 5; long i; i = in_long(0);
           a[i] = 9;
           out_long(x + a[i]);
           return 0; }",
    );
    let run = |backend, i| {
        let config = VmConfig {
            inputs_int: vec![i],
            ..cfg(backend)
        };
        let mut vm = Vm::new(prog.clone(), config).expect("vm");
        vm.run().expect("in-frame accesses never trap");
        vm.outputs_int()
    };
    assert_eq!(run(BackendKind::Stack, 1), vec![14]);
    assert_eq!(run(BackendKind::Reg, 1), vec![14]);
    assert_eq!(
        run(BackendKind::Stack, 2),
        vec![18],
        "the store reached `x`"
    );
    assert_eq!(run(BackendKind::Reg, 2), vec![14], "`x` was in a register");
}

/// A DOACROSS loop nested in a DOACROSS loop runs inline on whichever
/// worker has the outer iteration. Its last `Post` used to leave that
/// worker's "this iteration has posted" flag set, so the outer iteration
/// never posted and every later `Wait` of the outer loop spun forever —
/// at one thread too.
#[test]
fn nested_doacross_loops_return() {
    let ast = dse_lang::compile_to_ast(
        "int main() { long total; total = 0; long inner; inner = 0;
           #pragma candidate outer
           for (int i = 0; i < 8; i++) {
             #pragma candidate nested
             for (int k = 0; k < 4; k++) { inner += i * k; }
             total += inner;
           }
           out_long(total);
           return 0; }",
    )
    .expect("frontend");
    let ordered = |window| ParLoopSpec {
        mode: ParMode::DoAcross,
        sync_window: Some(window),
    };
    let opts = LowerOptions {
        mode: LowerMode::Parallel,
        par: [("outer", (0, 1)), ("nested", (0, 0))]
            .into_iter()
            .map(|(label, window)| (label.to_string(), ordered(window)))
            .collect(),
        ..Default::default()
    };
    let prog = dse_ir::lower_program(&ast, &opts).expect("lowering");
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        for nthreads in [1, 2, 4] {
            let config = VmConfig {
                nthreads,
                ..cfg(backend)
            };
            let mut vm = Vm::new(prog.clone(), config).expect("vm");
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let end = vm.run().map(|_| vm.outputs_int());
                let _ = done.send(end);
            });
            let end = finished
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{backend:?}, {nthreads} thread(s): the run hangs"));
            assert_eq!(
                end.expect("runs"),
                vec![504],
                "{backend:?}, {nthreads} thread(s)"
            );
        }
    }
}
