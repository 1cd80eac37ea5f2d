//! End-to-end semantic-equivalence tests for the expansion pass.
//!
//! Every program is executed four ways and must produce identical host
//! outputs (`out_long`/`out_float`) and return values:
//!
//! 1. the original program, serially;
//! 2. the transformed program at each [`OptLevel`], on 1..=4 threads;
//! 3. the runtime-privatization baseline on 1..=4 threads.
//!
//! The sources model the privatization idioms of the paper's benchmarks
//! (scratch buffers, per-iteration linked lists, recast work arrays,
//! multi-site allocations, reallocation, annotated shared structures).

use dse_core::{Analysis, OptLevel};
use dse_runtime::{Value, Vm, VmConfig};

fn run_outputs(
    compiled: dse_ir::bytecode::CompiledProgram,
    nthreads: u32,
    inputs: &[i64],
) -> (Option<i64>, Vec<i64>, Vec<f64>) {
    let mut vm = Vm::new(
        compiled,
        VmConfig {
            nthreads,
            inputs_int: inputs.to_vec(),
            max_instructions: 500_000_000,
            ..Default::default()
        },
    )
    .expect("vm");
    let report = vm.run().expect("run");
    let ret = match report.return_value {
        Some(Value::I(v)) => Some(v),
        _ => None,
    };
    (ret, vm.outputs_int(), vm.outputs_float())
}

/// Checks all transformed/baseline configurations against the original.
fn check_equivalence(src: &str, inputs: &[i64]) -> Analysis {
    let profile_cfg = VmConfig {
        inputs_int: inputs.to_vec(),
        max_instructions: 500_000_000,
        ..Default::default()
    };
    let analysis = Analysis::from_source(src, profile_cfg).expect("analysis");
    let reference = run_outputs(analysis.serial.clone(), 1, inputs);
    for opt in [OptLevel::None, OptLevel::NoConstSpan, OptLevel::Full] {
        for n in [1u32, 2, 4] {
            let t = analysis
                .transform(opt, n)
                .unwrap_or_else(|e| panic!("transform {opt:?} n={n}: {e}"));
            let got = run_outputs(t.parallel, n, inputs);
            assert_eq!(got, reference, "opt={opt:?} nthreads={n}");
        }
    }
    for n in [1u32, 2, 4] {
        let b = analysis.baseline_parallel(n).expect("baseline");
        let got = run_outputs(b.parallel, n, inputs);
        assert_eq!(got, reference, "runtime-priv baseline nthreads={n}");
    }
    analysis
}

/// Scratch scalar written then read per iteration plus a result array:
/// classic expandable pattern, DOALL.
#[test]
fn scratch_scalar_doall() {
    let analysis = check_equivalence(
        "int main() {
           int *out; out = malloc(64 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 64; i++) {
             int t;
             t = i * 3;
             t = t + i;
             out[i] = t;
           }
           long s; s = 0;
           for (int i = 0; i < 64; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
    let cls = analysis.classification("hot").unwrap();
    assert_eq!(cls.mode, dse_ir::loops::ParMode::DoAll);
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    // t is expanded; out is written disjointly (free of carried deps) and
    // must NOT be expanded.
    assert!(plan
        .expanded
        .iter()
        .any(|o| matches!(o, dse_analysis::PtObj::Var(dse_analysis::VarId::Local(..)))));
    assert!(!plan
        .expanded
        .iter()
        .any(|o| matches!(o, dse_analysis::PtObj::Alloc(_))));
}

/// Heap scratch buffer with a single allocation site: the Figure 1 zptr
/// pattern. Full opt uses a constant span and promotes nothing.
#[test]
fn heap_scratch_buffer_constant_span() {
    let analysis = check_equivalence(
        "int main() {
           int *zptr; zptr = malloc(16 * sizeof(int));
           int *out; out = malloc(40 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 40; i++) {
             for (int k = 0; k < 16; k++) { zptr[k] = i + k * 2; }
             int b; b = 0;
             for (int k = 0; k < 16; k++) { b += zptr[k]; }
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 40; i++) { s += out[i]; }
           out_long(s);
           free(zptr); free(out);
           return 0; }",
        &[],
    );
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    assert!(
        plan.fat_types.is_empty(),
        "single const-size allocation needs no promotion: {:?}",
        plan.fat_types
    );
    assert!(!plan.const_span.is_empty());
    assert!(plan
        .expanded
        .iter()
        .any(|o| matches!(o, dse_analysis::PtObj::Alloc(_))));
    // Without const spans the zptr pointer must be promoted instead.
    let plan2 = analysis.plan(OptLevel::NoConstSpan, 4).unwrap();
    assert!(!plan2.fat_types.is_empty());
}

/// The 456.hmmer mx pattern: two allocation sites with different sizes
/// reaching the same pointer force dynamic spans (fat pointers).
#[test]
fn hmmer_two_site_allocation_needs_span() {
    let analysis = check_equivalence(
        "int main() {
           long total; total = 0;
           int *out; out = malloc(30 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 30; i++) {
             int *mx;
             int m;
             if (i % 2 == 0) { mx = malloc(8 * sizeof(int)); m = 8; }
             else { mx = malloc(12 * sizeof(int)); m = 12; }
             for (int k = 0; k < m; k++) { mx[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < m; k++) { b += mx[k]; }
             out[i] = b;
             free(mx);
           }
           for (int i = 0; i < 30; i++) { total += out[i]; }
           out_long(total);
           free(out);
           return 0; }",
        &[],
    );
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    assert!(
        !plan.fat_types.is_empty(),
        "two different-sized sites require promotion"
    );
    assert!(plan.const_span.is_empty());
}

/// The 256.bzip2 recast idiom: an int work array read through a short
/// view. Byte-granular dependences and bonded-mode expansion keep it
/// correct.
#[test]
fn bzip2_recast_buffer() {
    check_equivalence(
        "int main() {
           int *zptr; zptr = malloc(8 * sizeof(int));
           int *out; out = malloc(25 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 25; i++) {
             for (int k = 0; k < 8; k++) { zptr[k] = (i + 1) * (k + 3); }
             short *view;
             view = (short*)zptr;
             int b; b = 0;
             for (int k = 0; k < 16; k++) { b += view[k]; }
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 25; i++) { s += out[i]; }
           out_long(s);
           free(zptr); free(out);
           return 0; }",
        &[],
    );
}

/// The dijkstra idiom: a linked list built and torn down per iteration.
#[test]
fn linked_list_rebuilt_per_iteration() {
    check_equivalence(
        "struct Node { int v; struct Node *next; };
         int main() {
           int *out; out = malloc(20 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 20; i++) {
             struct Node *head;
             head = 0;
             for (int k = 0; k < 6; k++) {
               struct Node *n;
               n = malloc(sizeof(struct Node));
               n->v = i * 10 + k;
               n->next = head;
               head = n;
             }
             int b; b = 0;
             while (head) {
               b += head->v;
               struct Node *d;
               d = head;
               head = head->next;
               free(d);
             }
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 20; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
}

/// Reallocation of an expanded work array (exercises __realloc_expanded).
#[test]
fn realloc_of_expanded_buffer() {
    check_equivalence(
        "int main() {
           int *buf; buf = malloc(4 * sizeof(int));
           int cap; cap = 4;
           int *out; out = malloc(12 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             if (need > cap) {
               buf = realloc(buf, (long)need * sizeof(int));
               cap = need;
             }
             for (int k = 0; k < need; k++) { buf[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += buf[k]; }
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 12; i++) { s += out[i]; }
           out_long(s);
           free(buf); free(out);
           return 0; }",
        &[],
    );
}

/// Global scalar and global array expansion (the paper's global-to-heap
/// re-homing with initializer seeding).
#[test]
fn global_expansion() {
    check_equivalence(
        "int gscr;
         int gtab[8] = {1, 2, 3, 4, 5, 6, 7, 8};
         int main() {
           int *out; out = malloc(32 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 32; i++) {
             gscr = i * 2;
             int b; b = gscr + gtab[i % 8];
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 32; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
}

/// Global scratch ARRAY written before read per iteration.
#[test]
fn global_scratch_array_expansion() {
    let analysis = check_equivalence(
        "int scratch[10];
         int main() {
           int *out; out = malloc(20 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 20; i++) {
             for (int k = 0; k < 10; k++) { scratch[k] = i * k; }
             int b; b = 0;
             for (int k = 0; k < 10; k++) { b += scratch[k]; }
             out[i] = b;
           }
           long s; s = 0;
           for (int i = 0; i < 20; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    assert!(plan
        .expanded
        .iter()
        .any(|o| matches!(o, dse_analysis::PtObj::Var(dse_analysis::VarId::Global(_)))));
}

/// Accumulator forces DOACROSS with an ordered section; scratch still
/// expands.
#[test]
fn doacross_accumulator_with_scratch() {
    let analysis = check_equivalence(
        "int main() {
           long acc; acc = 0;
           #pragma candidate hot
           for (int i = 0; i < 50; i++) {
             int t;
             t = i * i;
             t = t - i;
             acc += t;
           }
           out_long(acc);
           return 0; }",
        &[],
    );
    let cls = analysis.classification("hot").unwrap();
    assert_eq!(cls.mode, dse_ir::loops::ParMode::DoAcross);
    assert!(cls.shared_carried_sites().next().is_some());
}

/// Private accesses inside a helper function called from the loop;
/// the scratch pointer travels through a fat parameter.
#[test]
fn helper_function_with_fat_param() {
    check_equivalence(
        "void fill(int *b, int n, int seed) {
           for (int k = 0; k < n; k++) { b[k] = seed + k; }
         }
         int total(int *b, int n) {
           int s; s = 0;
           for (int k = 0; k < n; k++) { s += b[k]; }
           return s;
         }
         int main() {
           int *out; out = malloc(18 * sizeof(int));
           int *scratch;
           int m;
           m = (int)in_long(0);
           scratch = malloc((long)m * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 18; i++) {
             fill(scratch, m, i);
             out[i] = total(scratch, m);
           }
           long s; s = 0;
           for (int i = 0; i < 18; i++) { s += out[i]; }
           out_long(s);
           free(scratch); free(out);
           return 0; }",
        &[7],
    );
}

/// A function *returning* a freshly allocated private structure: the span
/// comes back through the __retspan out-parameter.
#[test]
fn fat_return_value() {
    check_equivalence(
        "int *make(int n, int seed) {
           int *b; b = malloc((long)n * sizeof(int));
           for (int k = 0; k < n; k++) { b[k] = seed * k; }
           return b;
         }
         int main() {
           int *out; out = malloc(15 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 15; i++) {
             int *b;
             b = make(5 + (i % 3), i);
             int s; s = 0;
             for (int k = 0; k < 5; k++) { s += b[k]; }
             out[i] = s;
             free(b);
           }
           long s; s = 0;
           for (int i = 0; i < 15; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
}

/// Struct with a pointer field holding a private buffer: field promotion
/// (fat cells in memory).
#[test]
fn struct_with_pointer_field() {
    check_equivalence(
        "struct Holder { int n; int *data; };
         int main() {
           int *out; out = malloc(14 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 14; i++) {
             struct Holder h;
             h.n = 4 + (i % 4);
             h.data = malloc((long)h.n * sizeof(int));
             for (int k = 0; k < h.n; k++) { h.data[k] = i + 2 * k; }
             int s; s = 0;
             for (int k = 0; k < h.n; k++) { s += h.data[k]; }
             out[i] = s;
             free(h.data);
           }
           long s; s = 0;
           for (int i = 0; i < 14; i++) { s += out[i]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
}

/// Two candidate loops in one program (the h263-encoder shape).
#[test]
fn two_candidate_loops() {
    check_equivalence(
        "int main() {
           int *a; a = malloc(16 * sizeof(int));
           int *b; b = malloc(16 * sizeof(int));
           #pragma candidate first
           for (int i = 0; i < 16; i++) {
             int t; t = i * 7; a[i] = t % 13;
           }
           #pragma candidate second
           for (int i = 0; i < 16; i++) {
             int t; t = a[i] + i; b[i] = t * 2;
           }
           long s; s = 0;
           for (int i = 0; i < 16; i++) { s += b[i]; }
           out_long(s);
           free(a); free(b);
           return 0; }",
        &[],
    );
}

/// Pointer arithmetic walking a private buffer (pointer ++ and p = p + k).
#[test]
fn pointer_walking_private_buffer() {
    check_equivalence(
        "int main() {
           int *buf; buf = malloc(12 * sizeof(int));
           int *out; out = malloc(10 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 10; i++) {
             int *p;
             p = buf;
             for (int k = 0; k < 12; k++) { *p = i + k; p++; }
             p = buf + 11;
             int s; s = 0;
             while (p >= buf) { s += *p; p = p - 1; }
             out[i] = s;
           }
           long s; s = 0;
           for (int i = 0; i < 10; i++) { s += out[i]; }
           out_long(s);
           free(buf); free(out);
           return 0; }",
        &[],
    );
}

/// Candidate loop nested inside outer serial loops (the mpeg2 motion
/// estimation shape: the parallel loop is at level 3).
#[test]
fn nested_candidate_level3() {
    check_equivalence(
        "int main() {
           int *out; out = malloc(3 * 4 * 8 * sizeof(int));
           int *scratch; scratch = malloc(6 * sizeof(int));
           for (int a = 0; a < 3; a++) {
             for (int b = 0; b < 4; b++) {
               #pragma candidate inner
               for (int c = 0; c < 8; c++) {
                 for (int k = 0; k < 6; k++) { scratch[k] = a + b * c + k; }
                 int s; s = 0;
                 for (int k = 0; k < 6; k++) { s += scratch[k]; }
                 out[(a * 4 + b) * 8 + c] = s;
               }
             }
           }
           long s; s = 0;
           for (int i = 0; i < 96; i++) { s += out[i]; }
           out_long(s);
           free(out); free(scratch);
           return 0; }",
        &[],
    );
}

/// Report sanity: the privatized-structure count matches expectation for a
/// simple two-structure program (Table 5's metric).
#[test]
fn report_counts_structures() {
    let src = "int main() {
           int *s1; s1 = malloc(8 * sizeof(int));
           int s2;
           int *out; out = malloc(10 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 10; i++) {
             s2 = i * 3;
             for (int k = 0; k < 8; k++) { s1[k] = i + k + s2; }
             int acc; acc = 0;
             for (int k = 0; k < 8; k++) { acc += s1[k]; }
             out[i] = acc;
           }
           long t; t = 0;
           for (int i = 0; i < 10; i++) { t += out[i]; }
           out_long(t);
           free(s1); free(out);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    // s1 (heap) is a privatized data structure; s2, the inner counter k
    // and acc are expanded scalars (classic scalar expansion, reported
    // separately from Table 5's structure count).
    assert!(t.report.privatized_structures() >= 1);
    assert!(t.report.expanded_allocs >= 1);
    assert!(t.report.expanded_scalar_locals >= 2);
    assert_eq!(t.report.expanded_globals, 0);
}

/// The transformed program's memory use grows with N for expanded
/// structures (Figure 14's mechanism).
#[test]
fn expanded_memory_grows_with_threads() {
    let src = "int main() {
           int *buf; buf = malloc(1000 * sizeof(int));
           int *out; out = malloc(8 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 8; i++) {
             for (int k = 0; k < 1000; k++) { buf[k] = i + k; }
             int s; s = 0;
             for (int k = 0; k < 1000; k++) { s += buf[k]; }
             out[i] = s;
           }
           long s; s = 0;
           for (int i = 0; i < 8; i++) { s += out[i]; }
           out_long(s);
           free(buf); free(out);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let mut peaks = Vec::new();
    for n in [1u32, 2, 8] {
        let t = analysis.transform(OptLevel::Full, n).unwrap();
        let mut vm = Vm::new(
            t.parallel,
            VmConfig {
                nthreads: n,
                ..Default::default()
            },
        )
        .unwrap();
        let report = vm.run().unwrap();
        peaks.push(report.peak_heap_bytes);
    }
    assert!(peaks[1] > peaks[0]);
    assert!(peaks[2] > peaks[1]);
}

/// Without optimizations, everything is expanded and all pointers are fat;
/// the program still computes the same results (Figure 9a configuration).
#[test]
fn opt_none_expands_everything() {
    let src = "int helper(int x) { return x * 2; }
         int main() {
           int *buf; buf = malloc(6 * sizeof(int));
           int *out; out = malloc(9 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 9; i++) {
             for (int k = 0; k < 6; k++) { buf[k] = helper(i) + k; }
             int s; s = 0;
             for (int k = 0; k < 6; k++) { s += buf[k]; }
             out[i] = s;
           }
           long s; s = 0;
           for (int i = 0; i < 9; i++) { s += out[i]; }
           out_long(s);
           free(buf); free(out);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let plan_none = analysis.plan(OptLevel::None, 4).unwrap();
    let plan_full = analysis.plan(OptLevel::Full, 4).unwrap();
    assert!(plan_none.expanded.len() > plan_full.expanded.len());
    assert!(plan_none.fat_types.len() >= plan_full.fat_types.len());
    assert!(!plan_none.fat_types.is_empty());
}

/// Transformed-but-serial execution (N=1) is the paper's overhead
/// configuration: it must execute more instructions than the original,
/// and Full opt must cost less than None (Figure 9a vs 9b).
#[test]
fn overhead_ordering_none_vs_full() {
    let src = "int main() {
           int *buf; buf = malloc(32 * sizeof(int));
           int *out; out = malloc(40 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 40; i++) {
             for (int k = 0; k < 32; k++) { buf[k] = i * k + 1; }
             int s; s = 0;
             for (int k = 0; k < 32; k++) { s += buf[k]; }
             out[i] = s;
           }
           long s; s = 0;
           for (int i = 0; i < 40; i++) { s += out[i]; }
           out_long(s);
           free(buf); free(out);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let base = {
        let mut vm = Vm::new(analysis.serial.clone(), VmConfig::default()).unwrap();
        vm.run().unwrap().counters.work
    };
    let mut cost = dse_lang::fasthash::HashMap::default();
    for opt in [OptLevel::None, OptLevel::Full] {
        let t = analysis.transform(opt, 1).unwrap();
        let mut vm = Vm::new(t.parallel, VmConfig::default()).unwrap();
        cost.insert(format!("{opt:?}"), vm.run().unwrap().counters.work);
    }
    let none = cost["None"];
    let full = cost["Full"];
    assert!(none > base, "unoptimized expansion must add overhead");
    assert!(
        full < none,
        "Section 3.4 optimizations must reduce overhead: full={full} none={none}"
    );
}

/// Table 3 "Pointer arithmetic 2/3": an integer keeping a pointer
/// difference is promoted with its own span, so a pointer recovered as
/// `q + i` can still redirect.
#[test]
fn pointer_difference_integer_promotion() {
    check_equivalence(
        "int main() {
           int *out; out = malloc(12 * sizeof(int));
           #pragma candidate hot
           for (int it = 0; it < 12; it++) {
             int *buf;
             int m;
             if (it % 2 == 0) { buf = malloc(8 * sizeof(int)); m = 8; }
             else { buf = malloc(10 * sizeof(int)); m = 10; }
             for (int k = 0; k < m; k++) { buf[k] = it + k; }
             int *endp; endp = buf + m;
             long d; d = endp - buf;
             int *mid; mid = buf + (int)(d / 2);
             out[it] = *mid + buf[0];
             free(buf);
           }
           long s; s = 0;
           for (int it = 0; it < 12; it++) { s += out[it]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
}

/// Interleaved layout (Fig. 2b): named-array scratch programs run
/// equivalently under both layouts; heap-backed and recast programs are
/// rejected with the paper's own argument.
#[test]
fn interleaved_layout_equivalence_and_limits() {
    use dse_core::LayoutMode;
    // md5-like: global scratch array + local scratch array, all direct.
    let src = "int xbuf[16];
         int main() {
           int *out; out = malloc(20 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 20; i++) {
             int lb[8];
             for (int k = 0; k < 16; k++) { xbuf[k] = i * k + 1; }
             for (int k = 0; k < 8; k++) { lb[k] = xbuf[k] + xbuf[k + 8]; }
             int s; s = 0;
             for (int k = 0; k < 8; k++) { s += lb[k]; }
             out[i] = s;
           }
           long t; t = 0;
           for (int i = 0; i < 20; i++) { t += out[i]; }
           out_long(t);
           free(out);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let reference = run_outputs(analysis.serial.clone(), 1, &[]);
    for layout in [LayoutMode::Bonded, LayoutMode::Interleaved] {
        for n in [1u32, 4] {
            let t = analysis
                .transform_with_layout(OptLevel::Full, n, layout)
                .unwrap_or_else(|e| panic!("{layout:?}: {e}"));
            let got = run_outputs(t.parallel, n, &[]);
            assert_eq!(got, reference, "{layout:?} n={n}");
        }
    }
    // Interleaved costs more address arithmetic than bonded (no fused
    // root addressing): measurable in instruction counts.
    let bonded = {
        let t = analysis
            .transform_with_layout(OptLevel::Full, 1, LayoutMode::Bonded)
            .unwrap();
        let mut vm = Vm::new(t.parallel, VmConfig::default()).unwrap();
        vm.run().unwrap().counters.work
    };
    let inter = {
        let t = analysis
            .transform_with_layout(OptLevel::Full, 1, LayoutMode::Interleaved)
            .unwrap();
        let mut vm = Vm::new(t.parallel, VmConfig::default()).unwrap();
        vm.run().unwrap().counters.work
    };
    assert!(
        inter > bonded,
        "interleaved addressing should cost more: {inter} vs {bonded}"
    );

    // Heap scratch: interleaving is impossible (untyped block).
    let heap_src = "int main() {
           int *buf; buf = malloc(8 * sizeof(int));
           int *out; out = malloc(10 * sizeof(int));
           #pragma candidate hot
           for (int i = 0; i < 10; i++) {
             for (int k = 0; k < 8; k++) { buf[k] = i + k; }
             int s; s = 0;
             for (int k = 0; k < 8; k++) { s += buf[k]; }
             out[i] = s;
           }
           long t; t = 0;
           for (int i = 0; i < 10; i++) { t += out[i]; }
           out_long(t);
           free(buf); free(out);
           return 0; }";
    let analysis = Analysis::from_source(heap_src, VmConfig::default()).unwrap();
    let err = analysis
        .transform_with_layout(OptLevel::Full, 4, LayoutMode::Interleaved)
        .expect_err("heap blocks cannot interleave");
    assert!(err.0.contains("no static element type"), "{err}");
}

/// The bundled bzip2 model (recast work array) must reject interleaving —
/// the paper's exact motivating case for bonded mode.
#[test]
fn interleaved_rejects_bzip2_recast() {
    use dse_core::LayoutMode;
    let w = dse_workloads::by_name("bzip2").unwrap();
    let analysis =
        Analysis::from_source(w.source, w.vm_config(dse_workloads::Scale::Profile)).unwrap();
    let err = analysis
        .transform_with_layout(OptLevel::Full, 4, LayoutMode::Interleaved)
        .expect_err("bzip2's zptr cannot interleave");
    assert!(err.0.contains("interleaved"), "{err}");
}

/// Cross-structure pointer reconstruction through a *declaration-
/// initialized* difference integer (Table 3 "Pointer arithmetic 2/3"):
/// `long off = p - q;` then `r = q + off` must carry p's span.
#[test]
fn decl_initialized_pointer_difference() {
    let analysis = check_equivalence(
        "int main() {
           int *out; out = malloc(10 * sizeof(int));
           #pragma candidate hot
           for (int it = 0; it < 10; it++) {
             int *p; int *q;
             int ms; ms = 6 + (it % 3);
             p = malloc((long)ms * sizeof(int));
             q = malloc((long)(ms + 2) * sizeof(int));
             for (int k = 0; k < ms; k++) { p[k] = it * 2 + k; }
             for (int k = 0; k < ms + 2; k++) { q[k] = it + k; }
             long off = p - q;
             int *r; r = q + off;
             out[it] = *r + q[0];
             free(p); free(q);
           }
           long s; s = 0;
           for (int it = 0; it < 10; it++) { s += out[it]; }
           out_long(s);
           free(out);
           return 0; }",
        &[],
    );
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    assert!(!plan.fat_ints.is_empty(), "off must be span-promoted");
}

/// Candidate loops without a pragma label still get their DOACROSS sync
/// window (labels are synthesized consistently across discovery,
/// transformation and the baseline).
#[test]
fn unlabeled_candidate_gets_sync_window() {
    let src = "int main() {
           long acc; acc = 0;
           #pragma candidate
           for (int i = 0; i < 30; i++) {
             int t; t = i * i;
             acc += t;
           }
           out_long(acc);
           return 0; }";
    let analysis = Analysis::from_source(src, VmConfig::default()).unwrap();
    let label = analysis.classifications[0].label.clone();
    assert!(label.contains('#'), "synthesized label: {label}");
    // The transform must produce a window (not auto-post-only) so the
    // private work before the accumulator overlaps.
    let plan = analysis.plan(OptLevel::Full, 4).unwrap();
    let result =
        dse_core::expand_program(&analysis.program, &plan, &analysis.ordered_eids()).unwrap();
    let window = result.sync_windows[0];
    assert!(window.is_some(), "sync window must exist for `{label}`");
    // And the parallel runs agree with serial.
    let reference = run_outputs(analysis.serial.clone(), 1, &[]);
    for n in [2u32, 8] {
        let t = analysis.transform(OptLevel::Full, n).unwrap();
        assert_eq!(run_outputs(t.parallel, n, &[]), reference, "n={n}");
    }
}

// ---- Section 3.4: one derivation per pointer assignment ---------------------

/// The transformed source at full optimization for 4 threads, with its
/// report, after checking every configuration against the original.
fn hoisted(src: &str) -> (String, dse_core::ExpansionReport) {
    let analysis = check_equivalence(src, &[]);
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    (dse_lang::printer::print_program(&t.program), t.report)
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// A pointer the body only reads is derived once per iteration, before its
/// first use, and every access goes through the slot.
#[test]
fn read_only_base_is_derived_once() {
    let (out, report) = hoisted(
        "int main() {
           int n; n = 8;
           int *scratch; scratch = malloc(n * sizeof(int));
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             for (int k = 0; k < n; k++) { scratch[k] = i + k; }
             int s; s = 0;
             for (int k = 0; k < n; k++) { s += scratch[k]; }
             total += s;
           }
           out_long(total);
           free(scratch);
           return 0; }",
    );
    assert_eq!(count(&out, "__rd_scratch[__tid()] = "), 1, "{out}");
    assert_eq!(count(&out, "__tid() * __sp_scratch"), 1, "{out}");
    assert_eq!(
        (report.redirections_hoisted, report.redirections_rederived),
        (2, 0)
    );
    // The derivation precedes the loop of the first use.
    let derive = out.find("__rd_scratch[__tid()] = ").unwrap();
    assert!(derive < out.find("__rd_scratch[__tid()][").unwrap());
}

/// A buffer used, conditionally `realloc`ed, and used again: derived before
/// the first use and again inside the branch, right after the assignment.
#[test]
fn conditional_realloc_rederives_inside_the_branch() {
    let (out, report) = hoisted(
        "int main() {
           int *buf; buf = malloc(4 * sizeof(int));
           int cap; cap = 4;
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             buf[0] = i;
             buf[1] = buf[0] + 1;
             if (need > cap) {
               buf = realloc(buf, (long)need * sizeof(int));
               cap = need;
             }
             for (int k = 0; k < need; k++) { buf[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += buf[k]; }
             total += b;
           }
           out_long(total);
           free(buf);
           return 0; }",
    );
    assert_eq!(count(&out, "__rd_buf[__tid()] = "), 2, "{out}");
    assert_eq!(report.redirections_rederived, 1);
    // The second derivation follows the span store inside the branch.
    let branch = out.find("__realloc_expanded").unwrap();
    let span_store = branch + out[branch..].find("__sp_buf = ").unwrap();
    let rederive = out.rfind("__rd_buf[__tid()] = ").unwrap();
    let after_branch = out.find("cap = need").unwrap();
    assert!(span_store < rederive && rederive < after_branch, "{out}");
}

/// When every use follows the conditional `realloc`, one derivation after
/// the branch serves both paths.
#[test]
fn realloc_before_every_use_needs_one_derivation() {
    let (out, report) = hoisted(
        "int main() {
           int *buf; buf = malloc(4 * sizeof(int));
           int cap; cap = 4;
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             if (need > cap) {
               buf = realloc(buf, (long)need * sizeof(int));
               cap = need;
             }
             for (int k = 0; k < need; k++) { buf[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += buf[k]; }
             total += b;
           }
           out_long(total);
           free(buf);
           return 0; }",
    );
    assert_eq!(count(&out, "__rd_buf[__tid()] = "), 1, "{out}");
    assert_eq!(report.redirections_rederived, 0);
    assert!(out.find("cap = need").unwrap() < out.find("__rd_buf[__tid()] = ").unwrap());
}

/// One use per assignment is not worth a slot.
#[test]
fn single_use_pointer_keeps_the_inline_form() {
    let (out, report) = hoisted(
        "int main() {
           int n; n = 8;
           int *cell; cell = malloc(n * sizeof(int));
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             cell[0] = i;
             total += i;
           }
           out_long(total + cell[0]);
           free(cell);
           return 0; }",
    );
    assert_eq!(count(&out, "__rd_"), 0, "{out}");
    assert_eq!(report.redirections_hoisted, 0);
}

/// A pointer carried from iteration to iteration (`realloc`ed in the body)
/// is read under the DOACROSS order: its derivation lies inside the
/// `Wait`/`Post` window.
#[test]
fn carried_pointer_is_derived_inside_the_window() {
    let src = "int main() {
           int *buf; buf = malloc(4 * sizeof(int));
           int cap; cap = 4;
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             int pre; pre = need * 3;
             if (need > cap) {
               buf = realloc(buf, (long)need * sizeof(int));
               cap = need;
             }
             for (int k = 0; k < need; k++) { buf[k] = i + k + pre; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += buf[k]; }
             total += b;
           }
           out_long(total);
           free(buf);
           return 0; }";
    let analysis = check_equivalence(src, &[]);
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    let (first, last) = t.sync_windows[0].expect("ordered loop");
    let main = &t.program.functions[0];
    let body = main
        .body
        .stmts
        .iter()
        .find_map(|s| match &s.kind {
            dse_lang::ast::StmtKind::For { body, mark, .. } if mark.candidate => Some(body),
            _ => None,
        })
        .unwrap();
    let is_derivation = |s: &dse_lang::ast::Stmt| match &s.kind {
        dse_lang::ast::StmtKind::Expr(e) => {
            dse_lang::printer::expr(e, &t.program).contains("__rd_buf[__tid()] = ")
        }
        _ => false,
    };
    let derive = body.stmts.iter().position(is_derivation).expect("hoisted");
    assert!(
        first < derive && derive <= last,
        "{derive} not in {first}..={last}"
    );
}

/// A nested candidate loop hoists within its own body; the outer body does
/// not reach into it.
#[test]
fn nested_candidate_loops_hoist_separately() {
    let (out, report) = hoisted(
        "int main() {
           int n; n = 6;
           int *outer_buf; outer_buf = malloc(n * sizeof(int));
           int *inner_buf; inner_buf = malloc(n * sizeof(int));
           int *out; out = malloc(4 * 6 * sizeof(int));
           #pragma candidate outer
           for (int a = 0; a < 4; a++) {
             for (int k = 0; k < n; k++) { outer_buf[k] = a + k; }
             #pragma candidate inner
             for (int c = 0; c < 5; c++) {
               for (int k = 0; k < n; k++) { inner_buf[k] = a * c + k; }
               int s; s = 0;
               for (int k = 0; k < n; k++) { s += inner_buf[k]; }
               out[a * 6 + c] = s;
             }
             int t; t = 0;
             for (int k = 0; k < n; k++) { t += outer_buf[k]; }
             out[a * 6 + 5] = t;
           }
           long total; total = 0;
           for (int i = 0; i < 24; i++) { total += out[i]; }
           out_long(total);
           free(outer_buf); free(inner_buf); free(out);
           return 0; }",
    );
    assert_eq!(report.redirections_hoisted, 4, "{out}");
    // Each slot lives in the body that derives it.
    let inner = out.find("#pragma candidate inner").unwrap();
    let after_inner = out.find("int t[4];").unwrap();
    let (before, inside, after) = (&out[..inner], &out[inner..after_inner], &out[after_inner..]);
    assert_eq!(count(inside, "__rd_outer_buf"), 0, "{out}");
    assert_eq!(
        count(before, "__rd_inner_buf") + count(after, "__rd_inner_buf"),
        0,
        "{out}"
    );
    assert_eq!(count(inside, "__rd_inner_buf[__tid()] = "), 1, "{out}");
    assert_eq!(count(before, "__rd_outer_buf[__tid()] = "), 1, "{out}");
    assert_eq!(count(after, "__rd_outer_buf[__tid()] = "), 0, "{out}");
}

/// A callee that reassigns a global pointer ends a derivation's validity
/// exactly as an assignment in the body does.
#[test]
fn callee_that_reassigns_the_pointer_forces_a_rederivation() {
    let (out, report) = hoisted(
        "int *work;
         int cap;
         void grow(int need) {
           if (need > cap) { work = realloc(work, (long)need * sizeof(int)); cap = need; }
         }
         int main() {
           cap = 4;
           work = malloc(4 * sizeof(int));
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             work[0] = i;
             work[1] = work[0] * 2;
             grow(need);
             for (int k = 0; k < need; k++) { work[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += work[k]; }
             total += b;
           }
           out_long(total);
           free(work);
           return 0; }",
    );
    assert_eq!(count(&out, "__rd_work[__tid()] = "), 2, "{out}");
    assert_eq!(report.redirections_rederived, 1);
    let call = out.find("grow(need").unwrap();
    assert!(call < out.rfind("__rd_work[__tid()] = ").unwrap(), "{out}");
    assert!(out.find("__rd_work[__tid()] = ").unwrap() < call, "{out}");
}

/// An ordered shared access inside a callee orders the call: the `Wait`
/// comes before `grow(need)`, whose `realloc` of the global carries the
/// pointer from iteration to iteration. (Found by `prop_equivalence`'s
/// extended grammar: with the call ahead of the window, two workers ran
/// `realloc` on the same block.)
#[test]
fn ordered_access_in_a_callee_orders_the_call() {
    let src = "int *work;
         int cap;
         void grow(int need) {
           if (need > cap) { work = realloc(work, (long)need * sizeof(int)); cap = need; }
         }
         int main() {
           cap = 4;
           work = malloc(4 * sizeof(int));
           long total; total = 0;
           #pragma candidate hot
           for (int i = 0; i < 12; i++) {
             int need; need = 4 + (i % 5);
             grow(need);
             for (int k = 0; k < need; k++) { work[k] = i + k; }
             int b; b = 0;
             for (int k = 0; k < need; k++) { b += work[k]; }
             total += b;
           }
           out_long(total);
           free(work);
           return 0; }";
    let analysis = check_equivalence(src, &[]);
    let t = analysis.transform(OptLevel::Full, 4).unwrap();
    let (first, _) = t.sync_windows[0].expect("ordered loop");
    let main = t
        .program
        .functions
        .iter()
        .find(|f| f.name == "main")
        .unwrap();
    let body = main
        .body
        .stmts
        .iter()
        .find_map(|s| match &s.kind {
            dse_lang::ast::StmtKind::For { body, mark, .. } if mark.candidate => Some(body),
            _ => None,
        })
        .unwrap();
    let call = body
        .stmts
        .iter()
        .position(|s| match &s.kind {
            dse_lang::ast::StmtKind::Expr(e) => {
                dse_lang::printer::expr(e, &t.program).starts_with("grow(")
            }
            _ => false,
        })
        .expect("the call is a top-level statement");
    assert!(
        first <= call,
        "window starts at {first}, the call is statement {call}"
    );
}
