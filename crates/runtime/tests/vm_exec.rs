//! End-to-end execution tests: Cee source → AST → bytecode → VM.

use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::{BackendKind, Value, Vm, VmConfig, VmError};

/// Compiles and runs `src` serially, returning `main`'s value.
fn run(src: &str) -> i64 {
    run_with(src, VmConfig::default()).0
}

fn run_with(src: &str, config: VmConfig) -> (i64, Vm) {
    let (result, vm) = run_both(compile(src, &LowerOptions::default()), config);
    (int_return(result.expect("run")), vm)
}

fn run_err(src: &str) -> VmError {
    run_err_with(src, VmConfig::default())
}

fn run_err_with(src: &str, config: VmConfig) -> VmError {
    let (result, _) = run_both(compile(src, &LowerOptions::default()), config);
    result.expect_err("expected trap")
}

/// Compiles with every candidate loop parallelized (given mode) and runs on
/// `n` threads.
fn run_parallel(src: &str, n: u32, mode: ParMode) -> i64 {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let cands = dse_ir::loops::find_candidate_loops(&ast).expect("candidates");
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![
        Some(ParLoopSpec {
            mode,
            sync_window: None,
        });
        cands.len()
    ];
    let compiled = dse_ir::lower_program(&ast, &opts).expect("lowering");
    let config = VmConfig {
        nthreads: n,
        ..Default::default()
    };
    int_return(run_both(compiled, config).0.expect("run"))
}

fn compile(src: &str, opts: &LowerOptions) -> dse_ir::bytecode::CompiledProgram {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    dse_ir::lower_program(&ast, opts).expect("lowering")
}

/// The two interpreters, the stack reference first.
const BACKENDS: [BackendKind; 2] = [BackendKind::Stack, BackendKind::Reg];

/// Runs `compiled` under `config` on the stack interpreter and on the
/// register one, which must return the same value or trap the same way.
/// Returns the register run's result and its `Vm`.
fn run_both(
    compiled: dse_ir::bytecode::CompiledProgram,
    config: VmConfig,
) -> (Result<Option<Value>, VmError>, Vm) {
    let run = |backend| {
        let config = VmConfig {
            backend,
            ..config.clone()
        };
        let mut vm = Vm::new(compiled.clone(), config).expect("vm");
        (vm.run().map(|r| r.return_value), vm)
    };
    let (stack, _) = run(BackendKind::Stack);
    let (reg, vm) = run(BackendKind::Reg);
    assert_eq!(
        stack, reg,
        "the stack (left) and register (right) interpreters disagree"
    );
    (reg, vm)
}

fn int_return(value: Option<Value>) -> i64 {
    match value {
        Some(Value::I(v)) => v,
        other => panic!("expected integer return, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// scalars and control flow
// ---------------------------------------------------------------------------

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run("int main() { return 2 + 3 * 4 - 6 / 2; }"), 11);
    assert_eq!(run("int main() { return (2 + 3) * 4 % 7; }"), 6);
    assert_eq!(run("int main() { return 7 / -2; }"), -3);
    assert_eq!(run("int main() { return -7 % 3; }"), -1);
}

#[test]
fn bitwise_and_shifts() {
    assert_eq!(run("int main() { return (0xF0 | 0x0F) & 0x3C; }"), 0x3C);
    assert_eq!(run("int main() { return 1 << 10; }"), 1024);
    assert_eq!(run("int main() { return -8 >> 1; }"), -4);
    assert_eq!(run("int main() { return 0xFF ^ 0x0F; }"), 0xF0);
    assert_eq!(run("int main() { return (int)(~0) + 2; }"), 1);
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(
        run("int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5); }"),
        3
    );
    assert_eq!(
        run("int main() { return (1 && 2) + (0 || 3 > 2) + !5 + !0; }"),
        3
    );
}

#[test]
fn short_circuit_avoids_side_effects() {
    assert_eq!(
        run("int g; int bump() { g = g + 1; return 1; }
             int main() { int x; x = 0 && bump(); x = 1 || bump(); return g; }"),
        0
    );
}

#[test]
fn ternary_and_nested_ifs() {
    assert_eq!(
        run("int main() { int a; a = 7; return a > 5 ? a * 2 : a; }"),
        14
    );
    assert_eq!(
        run("int main() { int a; a = 3;
              if (a == 1) { return 10; } else if (a == 3) { return 30; }
              return 0; }"),
        30
    );
}

#[test]
fn loops_while_do_for() {
    assert_eq!(
        run("int main() { int s; int i; s = 0; i = 0;
              while (i < 10) { s += i; i++; } return s; }"),
        45
    );
    assert_eq!(
        run("int main() { int s; int i; s = 0; i = 0;
              do { s += i; i++; } while (i < 5); return s; }"),
        10
    );
    assert_eq!(
        run("int main() { int s; s = 0;
              for (int i = 1; i <= 5; i++) { s += i * i; } return s; }"),
        55
    );
}

#[test]
fn break_and_continue() {
    assert_eq!(
        run("int main() { int s; s = 0;
              for (int i = 0; i < 100; i++) {
                if (i == 5) { break; }
                if (i % 2 == 0) { continue; }
                s += i;
              } return s; }"),
        4
    );
}

#[test]
fn increment_decrement_semantics() {
    assert_eq!(run("int main() { int i; i = 5; return i++ + i; }"), 11);
    assert_eq!(run("int main() { int i; i = 5; return ++i + i; }"), 12);
    assert_eq!(run("int main() { int i; i = 5; return i-- - --i; }"), 2);
}

#[test]
fn compound_assignment_forms() {
    assert_eq!(
        run("int main() { int x; x = 10;
              x += 5; x -= 3; x *= 4; x /= 2; x %= 13;
              x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 3;
              return x; }"),
        13
    );
}

// ---------------------------------------------------------------------------
// integer widths and casts
// ---------------------------------------------------------------------------

#[test]
fn char_and_short_truncate_and_sign_extend() {
    assert_eq!(run("int main() { char c; c = 300; return c; }"), 44);
    assert_eq!(run("int main() { char c; c = 200; return c; }"), -56);
    assert_eq!(run("int main() { short s; s = 70000; return s; }"), 4464);
    assert_eq!(run("int main() { return (char)511; }"), -1);
}

#[test]
fn float_arithmetic_and_conversion() {
    assert_eq!(
        run("int main() { float x; x = 7.5; return (int)(x * 2.0); }"),
        15
    );
    assert_eq!(
        run("int main() { float x; x = 1; return (int)((x + 0.5) * 4.0); }"),
        6
    );
    assert_eq!(run("int main() { return (int)fsqrt(144.0); }"), 12);
    assert_eq!(run("int main() { return (int)fabs(0.0 - 8.5); }"), 8);
}

#[test]
fn float_comparisons_drive_branches() {
    assert_eq!(
        run("int main() { float a; a = 0.1; float b; b = 0.2;
              if (a + b > 0.25) { return 1; } return 0; }"),
        1
    );
}

// ---------------------------------------------------------------------------
// functions
// ---------------------------------------------------------------------------

#[test]
fn function_calls_and_recursion() {
    assert_eq!(
        run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             int main() { return fib(15); }"
        ),
        610
    );
}

#[test]
fn mutual_recursion() {
    assert_eq!(
        run("int is_odd(int n);
             int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
             int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
             int main() { return is_even(10) * 10 + is_odd(7); }"
            .replace("int is_odd(int n);", "")
            .as_str()),
        11
    );
}

#[test]
fn arguments_convert_to_param_types() {
    assert_eq!(
        run("int trunc8(char c) { return c; }
             int main() { return trunc8(300); }"),
        44
    );
}

#[test]
fn void_function_and_globals() {
    assert_eq!(
        run("int counter; void tick() { counter += 1; }
             int main() { tick(); tick(); tick(); return counter; }"),
        3
    );
}

#[test]
fn stack_overflow_traps() {
    let e = run_err("int inf(int n) { return inf(n + 1); } int main() { return inf(0); }");
    assert!(e.msg.contains("stack overflow"), "{e}");
}

// ---------------------------------------------------------------------------
// memory: pointers, heap, arrays, structs
// ---------------------------------------------------------------------------

#[test]
fn address_of_and_deref() {
    assert_eq!(
        run("void set(int *p, int v) { *p = v; }
             int main() { int x; set(&x, 99); return x; }"),
        99
    );
}

#[test]
fn malloc_write_read_free() {
    assert_eq!(
        run("int main() { int *p; p = malloc(10 * sizeof(int));
              for (int i = 0; i < 10; i++) { p[i] = i * i; }
              int s; s = 0;
              for (int i = 0; i < 10; i++) { s += p[i]; }
              free(p); return s; }"),
        285
    );
}

#[test]
fn calloc_zeroes() {
    assert_eq!(
        run("int main() { long *p; p = calloc(8, sizeof(long));
              long s; s = 0;
              for (int i = 0; i < 8; i++) { s += p[i]; }
              free(p); return (int)s; }"),
        0
    );
}

/// Regression: `calloc(-2, -3)` multiplied to +6 and passed the old
/// `t >= 0` overflow filter, silently allocating 6 bytes. Negative
/// operands must trap before the multiplication.
#[test]
fn calloc_negative_operands_trap() {
    let e = run_err("int main() { int *p; p = calloc(-2, -3); return 0; }");
    assert!(
        e.msg.contains("calloc with negative operand"),
        "unexpected trap: {}",
        e.msg
    );
    let e = run_err("int main() { int *p; p = calloc(4, -1); return 0; }");
    assert!(
        e.msg.contains("calloc with negative operand"),
        "unexpected trap: {}",
        e.msg
    );
}

#[test]
fn calloc_overflow_still_traps() {
    let e = run_err("int main() { long *p; p = calloc(4611686018427387904, 4); return 0; }");
    assert!(e.msg.contains("calloc size overflow"), "{}", e.msg);
}

#[test]
fn realloc_preserves_prefix() {
    assert_eq!(
        run("int main() { int *p; p = malloc(4 * sizeof(int));
              p[0] = 10; p[1] = 20; p[2] = 30; p[3] = 40;
              p = realloc(p, 8 * sizeof(int));
              p[7] = 5;
              int s; s = p[0] + p[1] + p[2] + p[3] + p[7];
              free(p); return s; }"),
        105
    );
}

#[test]
fn pointer_arithmetic_and_difference() {
    assert_eq!(
        run("int main() { int *p; p = malloc(10 * sizeof(int));
              int *q; q = p + 7;
              *q = 3; *(p + 2) = 4;
              long d; d = q - p;
              int r; r = (int)d * 10 + p[7] + p[2];
              free(p); return r; }"),
        77
    );
}

#[test]
fn global_arrays_with_initializers() {
    assert_eq!(
        run("int table[5] = {10, 20, 30};
             int main() { return table[0] + table[1] + table[2] + table[3] + table[4]; }"),
        60
    );
}

#[test]
fn multidimensional_local_array() {
    assert_eq!(
        run("int main() { int m[3][4];
              for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 4; j++) { m[i][j] = i * 4 + j; }
              }
              int s; s = 0;
              for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 4; j++) { s += m[i][j]; }
              }
              return s; }"),
        66
    );
}

#[test]
fn struct_fields_and_pointers() {
    assert_eq!(
        run("struct Point { int x; int y; };
             int main() { struct Point p; p.x = 3; p.y = 4;
               struct Point *q; q = &p;
               q->x = q->x * 10;
               return p.x + p.y; }"),
        34
    );
}

#[test]
fn struct_assignment_copies_bytes() {
    assert_eq!(
        run("struct S { int a; long b; char c; };
             int main() { struct S x; struct S y;
               x.a = 1; x.b = 2; x.c = 3;
               y = x;
               x.a = 100;
               return y.a + (int)y.b + y.c; }"),
        6
    );
}

#[test]
fn linked_list_build_and_sum() {
    assert_eq!(
        run("struct Node { int v; struct Node *next; };
             int main() {
               struct Node *head; head = 0;
               for (int i = 1; i <= 5; i++) {
                 struct Node *n; n = malloc(sizeof(struct Node));
                 n->v = i; n->next = head; head = n;
               }
               int s; s = 0;
               while (head) {
                 s += head->v;
                 struct Node *d; d = head; head = head->next; free(d);
               }
               return s; }"),
        15
    );
}

#[test]
fn buffer_recast_short_view_of_int_buffer() {
    // The 256.bzip2 `zptr` idiom that motivates bonded-mode expansion.
    assert_eq!(
        run("int main() {
               int *zptr; zptr = malloc(4 * sizeof(int));
               zptr[0] = 0x00010002;
               short *v; v = (short*)zptr;
               int lo; lo = v[0];
               int hi; hi = v[1];
               free(zptr);
               return hi * 100 + lo; }"),
        102
    );
}

#[test]
fn nested_struct_access() {
    assert_eq!(
        run("struct In { int a; int b; };
             struct Out { struct In in; int c; };
             int main() { struct Out o;
               o.in.a = 1; o.in.b = 2; o.c = 3;
               struct Out *p; p = &o;
               return p->in.a + p->in.b + p->c; }"),
        6
    );
}

#[test]
fn null_deref_traps() {
    let e = run_err("int main() { int *p; p = 0; return *p; }");
    assert!(e.msg.contains("invalid load"), "{e}");
}

#[test]
fn invalid_free_traps() {
    let e = run_err("int main() { int x; free(&x); return 0; }");
    assert!(e.msg.contains("invalid"), "{e}");
}

#[test]
fn division_by_zero_traps() {
    let e = run_err("int main() { int z; z = 0; return 5 / z; }");
    assert!(e.msg.contains("division"), "{e}");
}

// ---------------------------------------------------------------------------
// host I/O
// ---------------------------------------------------------------------------

#[test]
fn inputs_and_outputs() {
    let src = "int main() {
        long n; n = in_len();
        long s; s = 0;
        for (int i = 0; i < n; i++) { s += in_long(i); }
        out_long(s);
        out_float((float)in_long(0) / 4.0);
        print_long(s);
        return (int)s; }";
    let config = VmConfig {
        inputs_int: vec![10, 20, 30],
        ..Default::default()
    };
    let (ret, vm) = run_with(src, config);
    assert_eq!(ret, 60);
    assert_eq!(vm.outputs_int(), vec![60]);
    assert_eq!(vm.outputs_float(), vec![2.5]);
    assert_eq!(vm.console(), "60\n");
}

#[test]
fn input_out_of_range_traps() {
    let e = run_err("int main() { return (int)in_long(0); }");
    assert!(e.msg.contains("out of range"), "{e}");
}

// ---------------------------------------------------------------------------
// parallel execution
// ---------------------------------------------------------------------------

/// A DOALL loop writing disjoint array cells gives identical results on any
/// thread count.
#[test]
fn doall_disjoint_writes_match_serial() {
    let src = "int main() {
        int *a; a = malloc(1000 * sizeof(int));
        #pragma candidate fill
        for (int i = 0; i < 1000; i++) { a[i] = i * 3 + 1; }
        int s; s = 0;
        for (int i = 0; i < 1000; i++) { s += a[i]; }
        free(a);
        return s % 1000000; }";
    let serial = run(src);
    for n in [1, 2, 4, 8] {
        assert_eq!(run_parallel(src, n, ParMode::DoAll), serial, "n={n}");
    }
}

#[test]
fn doacross_ordered_updates_match_serial() {
    // Each iteration reads the previous cell: a genuine carried dependence,
    // safe under DOACROSS because of the full-body ordered section.
    let src = "int main() {
        int *a; a = malloc(501 * sizeof(int));
        a[0] = 1;
        #pragma candidate chain
        for (int i = 0; i < 500; i++) { a[i + 1] = (a[i] * 7 + 3) % 1000; }
        int r; r = a[500];
        free(a);
        return r; }";
    let serial = run(src);
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAcross,
        sync_window: Some((0, 0)),
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        for n in [2, 4, 8] {
            let mut vm = Vm::new(
                compiled.clone(),
                VmConfig {
                    nthreads: n,
                    backend,
                    ..Default::default()
                },
            )
            .unwrap();
            let report = vm.run().unwrap();
            assert_eq!(
                report.return_value,
                Some(Value::I(serial)),
                "{backend:?} n={n}"
            );
            assert!(report.counters.sync_ops > 0, "{backend:?} n={n}");
        }
    }
}

#[test]
fn parallel_loop_with_function_calls_uses_private_stacks() {
    let src = "int square(int x) { int t; t = x * x; return t; }
        int main() {
        int *a; a = malloc(400 * sizeof(int));
        #pragma candidate hot
        for (int i = 0; i < 400; i++) { a[i] = square(i); }
        int s; s = 0;
        for (int i = 0; i < 400; i++) { s += a[i]; }
        free(a);
        return s % 100000; }";
    let serial = run(src);
    assert_eq!(run_parallel(src, 4, ParMode::DoAll), serial);
}

#[test]
fn induction_variable_value_after_parallel_loop() {
    let src = "int main() {
        int *a; a = malloc(10 * sizeof(int));
        int i;
        #pragma candidate hot
        for (i = 0; i < 10; i++) { a[i] = 1; }
        free(a);
        return i; }";
    assert_eq!(run(src), 10);
    assert_eq!(run_parallel(src, 4, ParMode::DoAll), 10);
}

#[test]
fn empty_parallel_range_is_fine() {
    let src = "int main() {
        int n; n = 0;
        #pragma candidate hot
        for (int i = 0; i < n; i++) { n = n; }
        return 7; }";
    assert_eq!(run_parallel(src, 4, ParMode::DoAll), 7);
}

#[test]
fn worker_trap_propagates() {
    let src = "int main() {
        int *a; a = malloc(100 * sizeof(int));
        int z; z = 0;
        #pragma candidate hot
        for (int i = 0; i < 100; i++) { a[i] = i / z; }
        free(a);
        return 0; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAll,
        sync_window: None,
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        let mut vm = Vm::new(
            compiled.clone(),
            VmConfig {
                nthreads: 4,
                backend,
                ..Default::default()
            },
        )
        .unwrap();
        let e = vm.run().expect_err("expected trap");
        assert!(e.msg.contains("division"), "{backend:?}: {e}");
    }
}

#[test]
fn doacross_worker_trap_does_not_deadlock() {
    let src = "int g; int main() {
        int z; z = 0;
        #pragma candidate hot
        for (int i = 0; i < 50; i++) { g = g + 10 / (z + (i < 25)); }
        return g; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAcross,
        sync_window: Some((0, 0)),
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        let mut vm = Vm::new(
            compiled.clone(),
            VmConfig {
                nthreads: 4,
                backend,
                ..Default::default()
            },
        )
        .unwrap();
        let e = vm.run().expect_err("expected trap");
        assert!(e.msg.contains("division"), "{backend:?}: {e}");
    }
}

#[test]
fn counters_report_work() {
    let (_, vm) = run_with(
        "int main() { int s; s = 0; for (int i = 0; i < 100; i++) { s += i; } return s; }",
        VmConfig::default(),
    );
    let _ = vm; // run_with already checked the value; counters are in the report.
    let ast = dse_lang::compile_to_ast("int main() { return 0; }").unwrap();
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    let work = BACKENDS.map(|backend| {
        let config = VmConfig {
            backend,
            ..Default::default()
        };
        let mut vm = Vm::new(compiled.clone(), config).unwrap();
        vm.run().unwrap().counters.work
    });
    // `int main() { return 0; }` executes PushI + Ret on the stack
    // interpreter; the register code retires no more.
    assert_eq!(work[0], 2);
    assert!(work[1] <= work[0], "stack, reg: {work:?}");
}

#[test]
fn instruction_budget_traps() {
    let ast = dse_lang::compile_to_ast("int main() { int i; i = 0; while (1) { i++; } return i; }")
        .unwrap();
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    for backend in BACKENDS {
        let mut vm = Vm::new(
            compiled.clone(),
            VmConfig {
                max_instructions: 10_000,
                backend,
                ..Default::default()
            },
        )
        .unwrap();
        let e = vm.run().expect_err("expected trap");
        assert!(e.msg.contains("budget"), "{backend:?}: {e}");
    }
}

// ---------------------------------------------------------------------------
// runtime privatization baseline plumbing
// ---------------------------------------------------------------------------

#[test]
fn localize_translates_heap_accesses() {
    // Wrap every access to the scratch buffer in Localize and check the
    // program still computes the right value on one thread (the copy is
    // committed back at loop end).
    let src = "int main() {
        int *buf; buf = malloc(10 * sizeof(int));
        int s; s = 0;
        #pragma candidate hot
        for (int i = 0; i < 10; i++) {
            buf[0] = i;
            s = s + buf[0];
        }
        free(buf);
        return s; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let compiled_plain = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    // Find the buf[0] access sites.
    let mut localize = dse_lang::fasthash::HashSet::default();
    for (_, info) in compiled_plain.sites.iter() {
        localize.insert((info.eid, info.kind));
    }
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        localize,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAcross,
        sync_window: Some((0, 1)),
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        let config = VmConfig {
            backend,
            ..Default::default()
        };
        let mut vm = Vm::new(compiled.clone(), config).unwrap();
        let report = vm.run().unwrap();
        assert_eq!(report.return_value, Some(Value::I(45)), "{backend:?}");
        assert!(report.counters.localize_calls > 0, "{backend:?}");
        assert!(report.counters.localize_copied_bytes > 0, "{backend:?}");
    }
}

// ---------------------------------------------------------------------------
// fused redirection instructions (strength-reduced addressing)
// ---------------------------------------------------------------------------

/// `v[__tid()]` on a local array lowers to one FrameAddrTid and reads the
/// right per-thread slot.
#[test]
fn fused_frame_addr_tid_semantics() {
    let src = "int main() {
        int slots[4];
        for (int t = 0; t < 4; t++) { slots[t] = 0; }
        #pragma candidate hot
        for (int i = 0; i < 40; i++) {
            slots[__tid()] += 1;
        }
        int s; s = 0;
        for (int t = 0; t < 4; t++) { s += slots[t]; }
        return s; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAll,
        sync_window: None,
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    assert!(
        compiled
            .code
            .iter()
            .any(|i| matches!(i, dse_ir::Instr::FrameAddrTid { .. })),
        "peephole should fire for slots[__tid()]"
    );
    for backend in BACKENDS {
        for n in [1u32, 2, 4] {
            let mut vm = Vm::new(
                compiled.clone(),
                VmConfig {
                    nthreads: n,
                    backend,
                    ..Default::default()
                },
            )
            .unwrap();
            let report = vm.run().unwrap();
            assert_eq!(report.return_value, Some(Value::I(40)), "{backend:?} n={n}");
        }
    }
}

/// The `__tid() * S / Z` constant-span offset folds to TidScaled and the
/// naive-redirection flag restores the long form; both compute the same.
///
/// The whole body runs as the ordered section (sync window spans every
/// statement): this program is *unexpanded*, so its body locals (`base`,
/// `a`, the inner `k`s) live in the master's shared frame and would race
/// under overlapped iterations. Full ordering makes both runs
/// deterministic while preserving what the test measures — the peephole's
/// output equivalence and instruction-count advantage.
#[test]
fn tid_scaled_peephole_matches_naive() {
    let src = "int main() {
        int *buf; buf = malloc(3 * 16 * sizeof(int));
        long s; s = 0;
        #pragma candidate hot
        for (int i = 0; i < 30; i++) {
            int *base; base = buf + __tid() * 64 / 4;
            for (int k = 0; k < 16; k++) { base[k] = i + k; }
            int a; a = 0;
            for (int k = 0; k < 16; k++) { a += base[k]; }
            s += a;
        }
        out_long(s);
        free(buf);
        return 0; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut outputs = Vec::new();
    let mut stack_work = Vec::new();
    for naive in [false, true] {
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            naive_redirection: naive,
            ..Default::default()
        };
        opts.par = vec![Some(ParLoopSpec {
            mode: ParMode::DoAcross,
            sync_window: Some((0, 6)),
        })];
        let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
        for backend in BACKENDS {
            let mut vm = Vm::new(
                compiled.clone(),
                VmConfig {
                    nthreads: 3,
                    backend,
                    ..Default::default()
                },
            )
            .unwrap();
            let report = vm.run().unwrap();
            outputs.push(vm.outputs_int());
            if backend == BackendKind::Stack {
                stack_work.push(report.counters.work);
            }
        }
    }
    assert!(
        outputs.iter().all(|o| *o == outputs[0]),
        "same outputs: {outputs:?}"
    );
    // The peephole rewrites the stack encoding, so its count is the one
    // that shows the saving.
    assert!(
        stack_work[0] < stack_work[1],
        "fused lowering must execute fewer instructions: {} vs {}",
        stack_work[0],
        stack_work[1]
    );
}

// ---------------------------------------------------------------------------
// expansion-support builtins
// ---------------------------------------------------------------------------

/// `__realloc_expanded` moves each thread's copy to its new stride.
#[test]
fn realloc_expanded_moves_every_copy() {
    // Lay out 3 copies of 2 ints each by hand through __tid()-free code:
    // write distinct values at copy strides, grow, and verify all copies.
    let src = "int main() {
        int *p; p = malloc(3 * 2 * sizeof(int));
        for (int t = 0; t < 3; t++) {
            p[t * 2] = 100 + t;
            p[t * 2 + 1] = 200 + t;
        }
        p = (int*)__realloc_expanded(p, 4 * (long)sizeof(int), 2 * (long)sizeof(int));
        int ok; ok = 1;
        for (int t = 0; t < 3; t++) {
            if (p[t * 4] != 100 + t) { ok = 0; }
            if (p[t * 4 + 1] != 200 + t) { ok = 0; }
        }
        free(p);
        return ok; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    let config = VmConfig {
        nthreads: 3,
        ..Default::default()
    };
    assert_eq!(run_both(compiled, config).0, Ok(Some(Value::I(1))));
}

/// Regression: a replica whose `src + keep` ran past the old allocation
/// was skipped entirely, losing the last thread's in-bounds bytes whenever
/// `old_span * nthreads` exceeded the recorded size. The in-bounds prefix
/// must be copied.
#[test]
fn realloc_expanded_copies_partial_last_replica() {
    // 44-byte allocation, span 12, 4 threads: replica 3 starts at offset 36
    // with only 8 in-bounds bytes (ints p[9], p[10]). They must survive.
    let src = "int main() {
        int *p; p = malloc(44);
        p[0] = 5; p[9] = 77; p[10] = 88;
        int *r; r = (int*)__realloc_expanded(p, 24, 12);
        return r[0] * 1000000 + r[18] * 1000 + r[19]; }";
    let (v, _) = run_with(
        src,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    );
    assert_eq!(v, 5_077_088, "replica 0 and replica 3 prefixes preserved");
}

/// Regression: a replica starting entirely outside the old allocation
/// means the span metadata disagrees with the allocation; the old code
/// silently skipped it, now it traps.
#[test]
fn realloc_expanded_inconsistent_span_traps() {
    // 20-byte allocation cannot hold 4 replicas of span 12: replica 2
    // would start at offset 24, past the end.
    let src = "int main() {
        int *p; p = malloc(20);
        int *r; r = (int*)__realloc_expanded(p, 24, 12);
        return 0; }";
    let e = run_err_with(
        src,
        VmConfig {
            nthreads: 4,
            ..Default::default()
        },
    );
    assert!(e.msg.contains("inconsistent span"), "{}", e.msg);
}

/// Regression: `n * nthreads` was an unchecked multiply. 2^62 * 4 wraps to
/// 0, so the VM allocated a minimal block and then *panicked* inside
/// `SharedMem::copy` moving 16-byte replicas into it. A product that does
/// not wrap but sits within 15 of `u64::MAX` (`i64::MAX * 2`) overflowed
/// the heap's 16-byte rounding instead. Both must be an OOM trap, and the
/// same `Vm` must serve the next run.
#[test]
fn realloc_expanded_size_overflow_traps() {
    for (n, nthreads) in [(1i64 << 62, 4), (i64::MAX, 2)] {
        let src = format!(
            "int main() {{
            long *p; p = malloc(64);
            p = __realloc_expanded(p, {n}, 16);
            return 0; }}"
        );
        let ast = dse_lang::compile_to_ast(&src).unwrap();
        let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
        for backend in BACKENDS {
            let config = VmConfig {
                nthreads,
                backend,
                ..Default::default()
            };
            let mut vm = Vm::new(compiled.clone(), config).unwrap();
            let e = vm.run().expect_err("overflowing size must trap");
            assert_eq!(
                e.msg, "out of memory in expanded realloc",
                "{n} {backend:?}"
            );
            assert_eq!(vm.run().expect_err("rerun traps identically"), e);
        }
    }
}

/// Regression: `nthreads: 0` was an `assert!` inside `Vm::new`, a panic
/// for every library caller; it is a construction error like a too-small
/// memory.
#[test]
fn zero_threads_is_an_error() {
    let ast = dse_lang::compile_to_ast("int main() { return 0; }").unwrap();
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    let config = VmConfig {
        nthreads: 0,
        ..Default::default()
    };
    let e = Vm::new(compiled, config).err().expect("must not build");
    assert_eq!(e.msg, "nthreads must be at least 1");
}

/// `__memcpy` copies bytes between heap blocks.
#[test]
fn memcpy_builtin() {
    assert_eq!(
        run("int main() {
            int *a; a = malloc(4 * sizeof(int));
            int *b; b = malloc(4 * sizeof(int));
            for (int i = 0; i < 4; i++) { a[i] = (i + 1) * 11; }
            __memcpy(b, a, 4 * (long)sizeof(int));
            int s; s = 0;
            for (int i = 0; i < 4; i++) { s += b[i]; }
            free(a); free(b);
            return s; }"),
        110
    );
}

/// `__localize` outside any parallel loop still translates heap addresses
/// into a private copy and passes static addresses through.
#[test]
fn localize_builtin_direct() {
    assert_eq!(
        run("int g; int main() {
            g = 7;
            int *p; p = malloc(2 * sizeof(int));
            p[0] = 41;
            int *lp; lp = (int*)__localize(p);
            lp[0] = lp[0] + 1;
            int *lg; lg = (int*)__localize(&g);
            int r; r = lp[0] * 100 + *lg;
            free(p);
            return r; }"),
        4207
    );
}

/// Iteration-cost recording captures pre/window/post segments.
#[test]
fn iteration_cost_recording_segments() {
    let src = "int g; int main() {
        int *a; a = malloc(10 * sizeof(int));
        #pragma candidate hot
        for (int i = 0; i < 10; i++) {
            int t; t = i * 3;
            g = g + t;
            a[i] = g;
        }
        int r; r = a[9];
        free(a);
        return r; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(ParLoopSpec {
        mode: ParMode::DoAcross,
        // Statement indices count the bare `int t;` declaration:
        // 0 decl, 1 `t = i * 3`, 2 `g = g + t`, 3 `a[i] = g`.
        sync_window: Some((2, 2)),
    })];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        let mut vm = Vm::new(
            compiled.clone(),
            VmConfig {
                profile: true,
                backend,
                ..Default::default()
            },
        )
        .unwrap();
        vm.run().unwrap();
        let profile = vm.profile();
        let entries = &profile
            .iter()
            .find(|p| p.loop_id == 0)
            .expect("loop 0")
            .costs;
        assert_eq!(entries.len(), 1, "{backend:?}: one dynamic entry");
        assert_eq!(entries[0].len(), 10, "{backend:?}: ten iterations");
        for c in &entries[0] {
            assert!(c.pre > 0, "{backend:?}: work before the window");
            assert!(c.window > 0, "{backend:?}: the ordered g update");
            assert!(c.post > 0, "{backend:?}: the a[i] store after the window");
        }
    }
}

/// DOACROSS ordered sections execute strictly in iteration order under
/// real threads: an ordered append must produce the identity sequence
/// even when iterations do wildly different amounts of work.
#[test]
fn doacross_ordered_append_is_in_order() {
    let src = "int pos;
        int *seq;
        int main() {
          seq = malloc(300 * sizeof(int));
          pos = 0;
          #pragma candidate hot
          for (int i = 0; i < 300; i++) {
            int spin; spin = (i * 37) % 90;
            int t; t = 0;
            for (int k = 0; k < spin; k++) { t += k; }
            seq[pos] = i + (t & 0);
            pos++;
          }
          int ok; ok = 1;
          for (int i = 0; i < 300; i++) { if (seq[i] != i) { ok = 0; } }
          free(seq);
          return ok; }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![Some(
        // The window covers the two append statements only: the spin work
        // overlaps across threads, the appends are ordered. Statement
        // indices count the bare declarations: 0 `int spin;`, 1 the spin
        // assignment, 2 `int t;`, 3 `t = 0`, 4 the inner loop, 5 and 6 the
        // appends. (This window was previously (3, 4), which left the
        // appends *outside* the ordered section — a race that surfaced
        // rarely as an out-of-order sequence under scheduler pressure.)
        ParLoopSpec {
            mode: ParMode::DoAcross,
            sync_window: Some((5, 6)),
        },
    )];
    let compiled = dse_ir::lower_program(&ast, &opts).unwrap();
    for backend in BACKENDS {
        for n in [2u32, 4, 8] {
            let mut vm = Vm::new(
                compiled.clone(),
                VmConfig {
                    nthreads: n,
                    backend,
                    ..Default::default()
                },
            )
            .unwrap();
            let report = vm.run().unwrap();
            assert_eq!(report.return_value, Some(Value::I(1)), "{backend:?} n={n}");
            assert!(report.counters.sync_ops > 0, "{backend:?} n={n}");
        }
    }
}

/// The reserved builtins are callable from user code; `__tid()` is 0
/// outside parallel regions and `__nthreads()` reports the configuration.
#[test]
fn tid_and_nthreads_outside_parallel() {
    let src = "int main() { return (int)(__tid() * 100 + __nthreads()); }";
    let ast = dse_lang::compile_to_ast(src).unwrap();
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).unwrap();
    let config = VmConfig {
        nthreads: 6,
        ..Default::default()
    };
    assert_eq!(run_both(compiled, config).0, Ok(Some(Value::I(6))));
}
