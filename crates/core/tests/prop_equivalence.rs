//! Randomized soundness fuzzing of the expansion pass.
//!
//! Random candidate-loop bodies are generated from a small statement
//! grammar over scalars, a local scratch array, a heap scratch buffer, a
//! global, and an accumulator. The property is the transformation's
//! soundness contract: **whatever the dependence structure turns out to be
//! — privatizable, accumulating, upward-exposed, anything — the profiled
//! classification plus expansion must preserve the program's observable
//! results on every thread count**. Non-privatizable patterns must come
//! out shared/DOACROSS-ordered, not broken. Cases come from the
//! workspace's deterministic PRNG, so failures reproduce exactly.
//!
//! Every lowering also runs on the register backend — its translation
//! proven by `check_backend` first — and must be indistinguishable from
//! the stack run of the same code: the grammar carries what the register
//! translator's promotion keys on (an indexed array beside scalars, a
//! struct local accessed by field, `+=`/`++` on a private scalar, a call
//! from the body, a scalar the body only reads).
//!
//! The *extended* grammar adds what span planning and redirection hoisting
//! key on (Tables 1–3, Section 3.4): a self-referential record allocated by
//! `malloc(sizeof(struct Node))`, pushed and walked in the body; a buffer
//! `realloc`ed to a runtime size inside a branch and indexed after it; a
//! `(short*)` view of the `int` heap buffer; a callee that reassigns a
//! global pointer the body indexes; and a candidate loop nested in the
//! candidate loop. Extended programs also pass
//! `check_all` (DSE001–DSE008) without an error. Classic seeds generate
//! exactly what they always did.

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::{Vm, VmConfig};
use dse_workloads::rng::Rng;
use std::sync::Arc;

/// A generated integer expression over the loop's names.
#[derive(Debug, Clone)]
enum GExpr {
    Lit(i8),
    I,
    A,
    B,
    Glob,
    Acc,
    /// `k0`: written before the loop, only read inside it.
    Outer,
    /// `pt.x` / `pt.y`: fields of the body's struct local.
    Field(bool),
    /// `mix(l, r)`: a call from the body.
    Call(Box<GExpr>, Box<GExpr>),
    Loc(Box<GExpr>),
    Heap(Box<GExpr>),
    /// `head ? head->v : 0`: the newest list node (extended).
    ListHead,
    /// `gbuf[ix & 3]`: the body-`realloc`ed buffer (extended).
    Grown(Box<GExpr>),
    /// `view[ix & 31]`: the `(short*)` view of `heapbuf` (extended).
    View(Box<GExpr>),
    /// `gp[ix & 3]`: the global buffer a callee regrows (extended).
    Gp(Box<GExpr>),
    Add(Box<GExpr>, Box<GExpr>),
    Mul(Box<GExpr>, Box<GExpr>),
    Xor(Box<GExpr>, Box<GExpr>),
}

impl GExpr {
    fn render(&self) -> String {
        match self {
            GExpr::Lit(v) => format!("{v}"),
            GExpr::I => "i".into(),
            GExpr::A => "a".into(),
            GExpr::B => "b".into(),
            GExpr::Glob => "gv".into(),
            GExpr::Acc => "(int)acc".into(),
            GExpr::Outer => "k0".into(),
            GExpr::Field(y) => if *y { "(int)pt.y" } else { "pt.x" }.into(),
            GExpr::Call(l, r) => format!("mix({}, {})", l.render(), r.render()),
            GExpr::Loc(ix) => format!("locbuf[({}) & 7]", ix.render()),
            GExpr::Heap(ix) => format!("heapbuf[({}) & 15]", ix.render()),
            GExpr::ListHead => "(head ? head->v : 0)".into(),
            GExpr::Grown(ix) => format!("gbuf[({}) & 3]", ix.render()),
            GExpr::View(ix) => format!("view[({}) & 31]", ix.render()),
            GExpr::Gp(ix) => format!("gp[({}) & 3]", ix.render()),
            GExpr::Add(l, r) => format!("({} + {})", l.render(), r.render()),
            GExpr::Mul(l, r) => format!("({} * {})", l.render(), r.render()),
            GExpr::Xor(l, r) => format!("({} ^ {})", l.render(), r.render()),
        }
    }
}

/// A generated statement.
#[derive(Debug, Clone)]
enum GStmt {
    /// `a = e;` / `b = e;` / `gv = e;`
    SetScalar(u8, GExpr),
    /// `locbuf[ix & 7] = e;`
    SetLoc(GExpr, GExpr),
    /// `heapbuf[ix & 15] = e;`
    SetHeap(GExpr, GExpr),
    /// `acc += e;`
    BumpAcc(GExpr),
    /// `a += e;` / `b++;` on a private scalar.
    BumpScalar(bool, GExpr),
    /// `pt.x = e;` / `pt.y = e;`
    SetField(bool, GExpr),
    /// `if (e) { s } else { s }`
    If(GExpr, Box<GStmt>, Box<GStmt>),
    /// `for (int k = 0; k < 4; k++) { s }` with `k` available via `a`.
    Loop(Box<GStmt>),
    /// The same loop, followed by a candidate loop of its own nested in
    /// `fuzz` (extended).
    Nested(Box<GStmt>),
    /// Push a `malloc(sizeof(struct Node))` node holding `e` (extended).
    ListPush(GExpr),
    /// Walk the list, summing into `a` (extended).
    ListSum,
    /// Grow `gbuf` to `4 + (e & 7)` elements if it is smaller — a `realloc`
    /// inside a branch — then store and load through it (extended). What
    /// can be read later is rewritten after the branch, as `hmmer` and
    /// `bzip2` do: the profiler does not follow a value through `realloc`'s
    /// copy (`depprof`'s `realloc_relocation_is_conservative`), so a program
    /// that reads one back is outside what profiling can classify.
    Grow(GExpr, GExpr),
    /// `view[ix & 31] = (short)e;` (extended).
    SetView(GExpr, GExpr),
    /// `regrow(4 + (e & 7)); gp[ix & 3] = v;`: the callee may reassign the
    /// global `gp` (extended).
    Regrow(GExpr, GExpr, GExpr),
}

impl GStmt {
    fn render(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 2);
        match self {
            GStmt::SetScalar(which, e) => {
                let name = match which % 3 {
                    0 => "a",
                    1 => "b",
                    _ => "gv",
                };
                out.push_str(&format!("{pad}{name} = {};\n", e.render()));
            }
            GStmt::SetLoc(ix, e) => {
                out.push_str(&format!(
                    "{pad}locbuf[({}) & 7] = {};\n",
                    ix.render(),
                    e.render()
                ));
            }
            GStmt::SetHeap(ix, e) => {
                out.push_str(&format!(
                    "{pad}heapbuf[({}) & 15] = {};\n",
                    ix.render(),
                    e.render()
                ));
            }
            GStmt::BumpAcc(e) => {
                out.push_str(&format!("{pad}acc += {};\n", e.render()));
            }
            GStmt::BumpScalar(true, _) => out.push_str(&format!("{pad}b++;\n")),
            GStmt::BumpScalar(false, e) => {
                out.push_str(&format!("{pad}a += {};\n", e.render()));
            }
            GStmt::SetField(y, e) => {
                let f = if *y { "y" } else { "x" };
                out.push_str(&format!("{pad}pt.{f} = {};\n", e.render()));
            }
            GStmt::If(c, t, f) => {
                out.push_str(&format!("{pad}if ({}) {{\n", c.render()));
                t.render(out, depth + 1);
                out.push_str(&format!("{pad}}} else {{\n"));
                f.render(out, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::Loop(body) | GStmt::Nested(body) => {
                out.push_str(&format!("{pad}for (int k = 0; k < 4; k++) {{\n"));
                out.push_str(&format!("{pad}  a = a + k;\n"));
                body.render(out, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
                if matches!(self, GStmt::Nested(_)) {
                    // The planner refuses a program in which one access is
                    // private to one candidate loop and shared in another
                    // (DSE007), so the nested body touches only what both
                    // loops see alike: a row of `grid` written once (DOALL)
                    // or `acc` (DOACROSS in both). The text so far is as
                    // good a unique label, and coin, as any.
                    let n = out.len();
                    let stmt = if n.is_multiple_of(2) {
                        "grid[i * 4 + q] = (i ^ q) + k0;"
                    } else {
                        "acc += (i * q) ^ k0;"
                    };
                    out.push_str(&format!(
                        "{pad}#pragma candidate nest{n}\n\
                         {pad}for (int q = 0; q < 4; q++) {{ {stmt} }}\n"
                    ));
                }
            }
            GStmt::ListPush(e) => {
                out.push_str(&format!(
                    "{pad}nn = malloc(sizeof(struct Node));\n\
                     {pad}nn->v = {};\n{pad}nn->next = head;\n{pad}head = nn;\n",
                    e.render()
                ));
            }
            GStmt::ListSum => {
                out.push_str(&format!(
                    "{pad}w = head;\n{pad}while (w) {{ a += w->v; w = w->next; }}\n"
                ));
            }
            GStmt::Grow(e, v) => {
                out.push_str(&format!(
                    "{pad}need = 4 + (({}) & 7);\n\
                     {pad}if (need > gcap) {{\n\
                     {pad}  gbuf = realloc(gbuf, (long)need * sizeof(int));\n\
                     {pad}  gcap = need;\n\
                     {pad}}}\n\
                     {pad}for (int z = 0; z < 4; z++) {{ gbuf[z] = need + z; }}\n\
                     {pad}gbuf[need - 1] = {};\n\
                     {pad}b ^= gbuf[need & 3] ^ gbuf[need - 1];\n",
                    e.render(),
                    v.render()
                ));
            }
            GStmt::SetView(ix, e) => {
                out.push_str(&format!(
                    "{pad}view[({}) & 31] = (short)({});\n",
                    ix.render(),
                    e.render()
                ));
            }
            GStmt::Regrow(e, ix, v) => {
                out.push_str(&format!(
                    "{pad}regrow(4 + (({}) & 7));\n{pad}gp[({}) & 3] = {};\n",
                    e.render(),
                    ix.render(),
                    v.render()
                ));
            }
        }
    }
}

/// The statement grammar: [`Grammar::Classic`] draws exactly what the
/// generator always drew (checked-in seeds keep their programs);
/// [`Grammar::Extended`] adds the pointer-structure forms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Grammar {
    Classic,
    Extended,
}

fn gen_expr(rng: &mut Rng, depth: u32, g: Grammar) -> GExpr {
    use GExpr::*;
    let extra = (g == Grammar::Extended) as usize;
    if depth == 0 || rng.gen_ratio(2, 5) {
        return match rng.gen_index(8 + extra) {
            0 => Lit(rng.next_u64() as i8),
            1 => I,
            2 => A,
            3 => B,
            4 => Glob,
            5 => Outer,
            6 => Field(rng.gen_bool()),
            7 => Acc,
            _ => ListHead,
        };
    }
    let sub = |rng: &mut Rng| Box::new(gen_expr(rng, depth - 1, g));
    match rng.gen_index(6 + 3 * extra) {
        0 => Loc(sub(rng)),
        1 => Heap(sub(rng)),
        2 => Add(sub(rng), sub(rng)),
        3 => Mul(sub(rng), sub(rng)),
        4 => Call(sub(rng), sub(rng)),
        5 => Xor(sub(rng), sub(rng)),
        6 => Grown(sub(rng)),
        7 => View(sub(rng)),
        _ => Gp(sub(rng)),
    }
}

fn gen_stmt(rng: &mut Rng, depth: u32, g: Grammar) -> GStmt {
    use GStmt::*;
    let extra = (g == Grammar::Extended) as usize;
    if depth == 0 || rng.gen_ratio(3, 4) {
        return match rng.gen_index(6 + 5 * extra) {
            0 => SetScalar(rng.next_u64() as u8, gen_expr(rng, 3, g)),
            1 => SetLoc(gen_expr(rng, 2, g), gen_expr(rng, 2, g)),
            2 => SetHeap(gen_expr(rng, 2, g), gen_expr(rng, 2, g)),
            3 => BumpScalar(rng.gen_bool(), gen_expr(rng, 2, g)),
            4 => SetField(rng.gen_bool(), gen_expr(rng, 2, g)),
            5 => BumpAcc(gen_expr(rng, 3, g)),
            6 => ListPush(gen_expr(rng, 2, g)),
            7 => ListSum,
            8 => Grow(gen_expr(rng, 2, g), gen_expr(rng, 2, g)),
            9 => SetView(gen_expr(rng, 2, g), gen_expr(rng, 2, g)),
            _ => Regrow(
                gen_expr(rng, 2, g),
                gen_expr(rng, 2, g),
                gen_expr(rng, 2, g),
            ),
        };
    }
    if rng.gen_bool() {
        If(
            gen_expr(rng, 2, g),
            Box::new(gen_stmt(rng, depth - 1, g)),
            Box::new(gen_stmt(rng, depth - 1, g)),
        )
    } else {
        // A loop at the top of an extended body brings a nested candidate
        // loop along; the draws are the same either way, so the rest of a
        // seed's program is what it was.
        let body = Box::new(gen_stmt(rng, depth - 1, g));
        if g == Grammar::Extended && depth == 2 {
            Nested(body)
        } else {
            Loop(body)
        }
    }
}

fn render_program(stmts: &[GStmt], g: Grammar) -> String {
    let mut body = String::new();
    for s in stmts {
        s.render(&mut body, 0);
    }
    // What the extended forms name; a classic program has none of it.
    let [types, setup, body_head, body_tail, teardown] = match g {
        Grammar::Classic => [""; 5],
        Grammar::Extended => [
            "struct Node { int v; struct Node *next; };
int *gp;
int gpcap;
void regrow(int need) {
  if (need > gpcap) {
    gp = realloc(gp, (long)need * sizeof(int));
    gpcap = need;
    for (int z = 0; z < 4; z++) { gp[z] = need + z; }
  }
}
",
            "  int *gbuf; int gcap; gcap = 4; gbuf = malloc(gcap * sizeof(int));
  gpcap = 4; gp = malloc(gpcap * sizeof(int));
  int *grid; grid = malloc(80 * sizeof(int));
  for (int z = 0; z < 80; z++) { grid[z] = z; }
",
            "    struct Node *head; head = 0;
    struct Node *nn;
    struct Node *w;
    int need;
    short *view; view = (short*)heapbuf;
",
            "    while (head) { w = head; head = head->next; free(w); }
    b ^= gbuf[i & 3] ^ gp[i & 3] ^ view[i & 31];
",
            "  long gsum; gsum = 0;
  for (int z = 0; z < 80; z++) { gsum = gsum * 3 + grid[z]; }
  out_long(gsum);
  free(gbuf); free(gp); free(grid);
",
        ],
    };
    format!(
        "struct P {{ int x; long y; }};
{types}int gv;
int mix(int x, int y) {{ return (x * 31) ^ y; }}
int main() {{
  int *heapbuf; heapbuf = malloc(16 * sizeof(int));
  int *outv; outv = malloc(20 * sizeof(int));
  long acc; acc = 0;
  int k0; k0 = 5;
{setup}  #pragma candidate fuzz
  for (int i = 0; i < 20; i++) {{
    int a; a = i;
    int b; b = 7;
    int locbuf[8];
    struct P pt; pt.x = i; pt.y = 3;
    for (int z = 0; z < 8; z++) {{ locbuf[z] = 0; }}
{body_head}{body}{body_tail}
    outv[i] = a ^ b ^ locbuf[i & 7] ^ heapbuf[i & 15] ^ pt.x ^ (int)pt.y;
  }}
  long h; h = acc;
  for (int i = 0; i < 20; i++) {{ h = (h * 31 + outv[i]) & 0xffffffffff; }}
  out_long(h);
  free(heapbuf); free(outv);
{teardown}  return 0;
}}
"
    )
}

fn gen_case(seed: u64, max_stmts: i64, g: Grammar) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(1, max_stmts) as usize;
    let stmts: Vec<GStmt> = (0..n).map(|_| gen_stmt(&mut rng, 2, g)).collect();
    render_program(&stmts, g)
}

/// Everything a run shows the outside: outputs, console, and how it ended.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs_int: Vec<i64>,
    outputs_float: Vec<f64>,
    console: String,
    /// The return value, or the trap.
    end: Result<String, String>,
}

fn observe(mut vm: Vm) -> Observed {
    let end = vm
        .run()
        .map(|r| format!("{:?}", r.return_value))
        .map_err(|e| e.to_string());
    Observed {
        outputs_int: vm.outputs_int(),
        outputs_float: vm.outputs_float(),
        console: vm.console(),
        end,
    }
}

/// Runs `compiled` on `n` threads under the reference stack interpreter,
/// then — after `check_backend` has proven the translation — under the
/// register interpreter, which must show exactly the same. Returns the
/// stack run's integer outputs.
fn run(what: &str, compiled: &CompiledProgram, n: u32, src: &str) -> Vec<i64> {
    let config = |backend| VmConfig {
        nthreads: n,
        max_instructions: 80_000_000,
        backend,
        ..Default::default()
    };
    let stack =
        observe(Vm::new(compiled.clone(), config(dse_runtime::BackendKind::Stack)).expect("vm"));
    assert!(stack.end.is_ok(), "{what}: generated programs never trap");
    let rp = dse_ir::regcode::translate(compiled)
        .unwrap_or_else(|e| panic!("{what}: reglower failed: {e}\n{src}"));
    let report = dse_verify::check_backend(compiled, &rp);
    assert!(
        report.diagnostics.is_empty(),
        "{what}: backend verification found:\n{}\n{src}",
        report.render_text()
    );
    let reg = observe(
        Vm::with_reg(
            compiled.clone(),
            Arc::new(rp),
            config(dse_runtime::BackendKind::Reg),
        )
        .expect("vm"),
    );
    assert_eq!(reg, stack, "{what}: register run differs from stack\n{src}");
    stack.outputs_int
}

/// Re-lowers a transformed program with every candidate loop DOACROSS: a
/// loop classified DOACROSS keeps its ordered window, a DOALL one gets a
/// window around its first statement (stricter than it needs, so still
/// correct), and both run `Wait`/`Post` and chunk-1 claiming.
fn forced_doacross(analysis: &Analysis, t: &dse_core::Transformed) -> CompiledProgram {
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    opts.par = vec![None; analysis.serial.loops.len()];
    for (k, _) in analysis.positioned() {
        opts.par[k as usize] = Some(ParLoopSpec {
            mode: ParMode::DoAcross,
            sync_window: t.sync_windows[k as usize].or(Some((0, 0))),
        });
    }
    dse_ir::lower_program(&t.program, &opts).expect("transformed programs lower")
}

/// One generated program through the whole matrix: every lowering agrees
/// with the serial reference on the stack interpreter, and with itself on
/// the register interpreter.
fn check_case(src: &str, g: Grammar) {
    let analysis = Analysis::from_source(src, VmConfig::default())
        .unwrap_or_else(|e| panic!("pipeline failed on generated program: {e}\n{src}"));
    let reference = run("serial", &analysis.serial, 1, src);
    for (opt, n) in [
        (OptLevel::Full, 1u32),
        (OptLevel::Full, 3u32),
        (OptLevel::Full, 8u32),
        (OptLevel::None, 2u32),
    ] {
        let t = analysis
            .transform(opt, n)
            .unwrap_or_else(|e| panic!("transform failed: {e}\n{src}"));
        let lints = dse_verify::check_all(&analysis, Some(&t));
        assert_eq!(
            lints.count(dse_verify::diag::Severity::Error),
            0,
            "{opt:?} n={n}: the transform breaks its own invariants:\n{}\n{src}",
            lints.render_text()
        );
        let got = run(&format!("{opt:?} n={n}"), &t.parallel, n, src);
        assert_eq!(got, reference, "mismatch at {opt:?} n={n}\n{src}");
        if opt == OptLevel::Full && n <= 3 {
            let got = run(
                &format!("forced DOACROSS n={n}"),
                &forced_doacross(&analysis, &t),
                n,
                src,
            );
            assert_eq!(got, reference, "forced DOACROSS mismatch at n={n}\n{src}");
        }
    }
    // The runtime-privatization baseline must agree too — on classic
    // programs: it races on a dependence carried through the heap
    // (`baseline_is_deterministic_on_a_carried_heap_dependence`), which the
    // extended forms produce routinely.
    if g == Grammar::Classic {
        let b = analysis
            .baseline_parallel(4)
            .unwrap_or_else(|e| panic!("baseline failed: {e}\n{src}"));
        let got = run("baseline n=4", &b.parallel, 4, src);
        assert_eq!(got, reference, "baseline mismatch\n{src}");
    }
    // Interleaved layout, when its structural limits allow it.
    if let Ok(t) =
        analysis.transform_with_layout(OptLevel::Full, 4, dse_core::LayoutMode::Interleaved)
    {
        let got = run("interleaved n=4", &t.parallel, 4, src);
        assert_eq!(got, reference, "interleaved mismatch\n{src}");
    }
}

/// The transformation preserves observable behavior for arbitrary
/// generated loop bodies, at every optimization level and thread count,
/// on both backends.
#[test]
fn expansion_preserves_semantics() {
    for case in 0..48u64 {
        check_case(
            &gen_case(0xE0_0115 + case, 5, Grammar::Classic),
            Grammar::Classic,
        );
    }
}

/// The same matrix over the extended grammar: linked records allocated by
/// `sizeof`, a buffer `realloc`ed in a branch, a recast view, a callee that
/// reassigns a global pointer, a nested candidate loop.
#[test]
fn expansion_preserves_semantics_of_pointer_structures() {
    for case in 0..48u64 {
        check_case(
            &gen_case(0x5BA_0021 + case, 6, Grammar::Extended),
            Grammar::Extended,
        );
    }
    // Seeds a 3 500-seed, 8-statement soak failed on while the grammar grew.
    // 60: `regrow(..)` was the body's first statement and ran before the
    // `Wait` — the ordered accesses of a callee did not order the call
    // (`unoptimized` at 2 threads printed a wrong sum in 6 of 30 runs).
    // 216: see `value_carried_through_realloc_is_invisible_to_the_profile`.
    for case in [60u64, 216] {
        check_case(
            &gen_case(0x5BA_0021 + case, 8, Grammar::Extended),
            Grammar::Extended,
        );
    }
}

/// `DSE007`'s cross-loop conflict (the eid form) fires exactly when the
/// planner refuses the program as "private in one parallelized loop but
/// shared in another", and both agree with the classifications they are
/// derived from: some source access has a private site in one classified
/// loop and a shared site in one (possibly the same) loop.
#[test]
fn dse007_fires_exactly_when_the_plan_refuses_a_conflict() {
    let mut programs: Vec<(String, String, VmConfig)> = vec![(
        "conflict.cee".into(),
        include_str!("../../server/tests/fixtures/conflict.cee").into(),
        VmConfig::default(),
    )];
    for w in dse_workloads::all() {
        let config = w.vm_config(dse_workloads::Scale::Profile);
        programs.push((w.name.into(), w.source.into(), config));
    }
    for case in 0..24u64 {
        for (seed, g) in [
            (0xE0_0115, Grammar::Classic),
            (0x5BA_0021, Grammar::Extended),
        ] {
            let src = gen_case(seed + case, 6, g);
            programs.push((format!("{g:?} {case}"), src, VmConfig::default()));
        }
    }
    let mut refused = 0;
    for (name, src, config) in &programs {
        let analysis = Analysis::from_source(src, config.clone())
            .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        // The classifications themselves: (eid, private) per classified site.
        let mut judged: Vec<(u32, bool)> = Vec::new();
        for cls in &analysis.classifications {
            for class in &cls.classes {
                let private = class.verdict == dse_core::SiteClass::Private;
                for &site in &class.sites {
                    let eid = analysis.serial.sites.info(site).eid;
                    if eid != dse_lang::ast::NO_EID {
                        judged.push((eid, private));
                    }
                }
            }
        }
        let conflicted = judged
            .iter()
            .any(|&(eid, private)| private && judged.contains(&(eid, false)));
        let report = dse_verify::check_all(&analysis, None);
        let dse007 = report.diagnostics.iter().any(|d| {
            d.code == dse_verify::diag::Code::ClassificationConflict
                && d.message.starts_with("access is thread-private in loop")
        });
        let plan = analysis.plan(OptLevel::Full, 2);
        let plan_refused = plan.as_ref().is_err_and(|e| {
            e.0.contains("is private in one parallelized loop but shared in another")
        });
        assert_eq!(
            dse007, conflicted,
            "{name}: DSE007 against the classifications"
        );
        assert_eq!(
            plan_refused, conflicted,
            "{name}: the plan against the classifications"
        );
        refused += conflicted as usize;
    }
    assert!(refused >= 1, "conflict.cee is refused");
    assert!(refused < programs.len(), "most programs plan");
}

/// Found by the extended grammar's first soak (seed 216, before `Grow`
/// rewrote what it reads back): iteration 0 stores `gbuf[3]`, iteration 1
/// `realloc`s the buffer, iterations 3, 7, … read `gbuf[3]`. The value
/// travels through `realloc`'s copy, which no site performs, so the profile
/// sees no dependence (`depprof`'s `realloc_relocation_is_conservative`),
/// the store is classified thread-private while the loads stay shared, and
/// the answer depends on which worker ran iteration 0 (7 of 12 runs at the
/// parent of the change that added this test too). The fix belongs in the
/// profiler — carry the shadow state across the copy — not in the
/// transform: un-ignore it there (ROADMAP item 6).
#[test]
#[ignore = "the profiler does not follow a value through realloc's copy"]
fn value_carried_through_realloc_is_invisible_to_the_profile() {
    let src = "int main() {
  int *outv; outv = malloc(20 * sizeof(int));
  int *gbuf; int gcap; gcap = 4; gbuf = malloc(gcap * sizeof(int));
  int grow; grow = 0;
  #pragma candidate fuzz
  for (int i = 0; i < 20; i++) {
    int need; need = 4 + grow;
    if (need > gcap) {
      gbuf = realloc(gbuf, (long)need * sizeof(int));
      gcap = need;
    }
    gbuf[need - 1] = -66;
    grow = 5;
    outv[i] = gbuf[i & 3];
  }
  long h; h = 0;
  for (int i = 0; i < 20; i++) { h = (h * 31 + outv[i]) & 0xffffffffff; }
  out_long(h);
  free(outv); free(gbuf);
  return 0;
}
";
    let analysis = Analysis::from_source(src, VmConfig::default()).expect("pipeline");
    let reference = run("serial", &analysis.serial, 1, src);
    let t = analysis.transform(OptLevel::Full, 3).expect("transform");
    for _ in 0..40 {
        assert_eq!(run("Full n=3", &t.parallel, 3, src), reference, "{src}");
    }
}

/// The pretty-printed transformed program, when it stays in the
/// parsable subset, re-checks under sema (printer/transform coherence).
#[test]
fn transformed_programs_reprint_consistently() {
    for case in 0..32u64 {
        let g = if case % 2 == 0 {
            Grammar::Classic
        } else {
            Grammar::Extended
        };
        let src = gen_case(0x4E_4123 + case, 4, g);
        let analysis = Analysis::from_source(&src, VmConfig::default()).unwrap();
        let t = analysis.transform(OptLevel::Full, 4).unwrap();
        let printed = dse_lang::printer::print_program(&t.program);
        if dse_lang::printer::roundtrips(&t.program) {
            let reparsed = dse_lang::compile_to_ast(&printed);
            assert!(
                reparsed.is_ok(),
                "printed transform failed to reparse: {:?}\n{printed}",
                reparsed.err()
            );
        }
    }
}

/// Found while growing the grammar (1500 seeds, up to 7 statements): the
/// runtime-privatization *baseline* is not deterministic on this program
/// at 4 threads — on the stack interpreter, at the parent of the change
/// that added the test too (15 of 40 runs printed the serial result). A
/// carried dependence through `heapbuf` crosses iterations that localized
/// it on different workers. It is the baseline's bug, not a backend's:
/// un-ignore it with the fix (ROADMAP item 6(a)).
#[test]
#[ignore = "the runtime-privatization baseline races on a carried heap dependence"]
fn baseline_is_deterministic_on_a_carried_heap_dependence() {
    let src = gen_case(0xE0_0115 + 566, 7, Grammar::Classic);
    let analysis = Analysis::from_source(&src, VmConfig::default()).expect("pipeline");
    let reference = run("serial", &analysis.serial, 1, &src);
    let b = analysis.baseline_parallel(4).expect("baseline");
    for _ in 0..40 {
        assert_eq!(
            run("baseline n=4", &b.parallel, 4, &src),
            reference,
            "{src}"
        );
    }
}
