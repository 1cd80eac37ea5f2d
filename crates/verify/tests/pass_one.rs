//! Pass 1 on small programs, each pinned to the exact findings it must
//! give: the coverage scan's `if`/`else` kills (`DSE001`), the stores that
//! end a fill's coverage before its read, and the read of a nested
//! candidate loop's induction variable outside it (`DSE007`).

use dse_core::Analysis;
use dse_runtime::VmConfig;

/// The analysis of `source`, profiled with `inputs` for `in_long`.
fn analyze(source: &str, inputs: &[i64]) -> Analysis {
    let config = VmConfig {
        inputs_int: inputs.to_vec(),
        ..Default::default()
    };
    Analysis::from_source(source, config).expect("analysis")
}

/// Every finding of pass 1, rendered.
fn findings(source: &str) -> Vec<String> {
    findings_at(source, &[])
}

/// Every finding of pass 1 under the profiling inputs `inputs`, rendered.
fn findings_at(source: &str, inputs: &[i64]) -> Vec<String> {
    dse_verify::check_all(&analyze(source, inputs), None)
        .diagnostics
        .iter()
        .map(|d| d.render())
        .collect()
}

/// `t` and `u` are stored on both arms of an `if`/`else`, so each
/// iteration kills them before the read; `v` is stored on one arm only
/// (the flag is set on every profiled iteration, so the profile calls it
/// private), which leaves its read unproved.
#[test]
fn a_store_on_both_arms_kills_and_one_arm_does_not() {
    let got = findings(
        "int main() {
  int *flags; flags = malloc(8 * sizeof(int));
  for (int i = 0; i < 8; i++) { flags[i] = 1; }
  long s; s = 0;
  int t; int u; int v;
  #pragma candidate arms
  for (int i = 0; i < 8; i++) {
    if (flags[i] > 0) { t = i; u = 1; v = 2; } else { u = 3; t = i + 1; }
    s += t + u + v;
  }
  out_long(s);
  return 0;
}",
    );
    assert_eq!(
        got,
        [
            "warning[DSE001] 9:18: profiled-private class `v` is not provably written \
          before read each iteration: load `v` has no guaranteed same-iteration store \
          before it; on other inputs this read may carry a flow dependence across \
          iterations (loop `arms`)"
        ]
    );
}

/// A canonical fill with the same bounds on both arms kills (`tmp[k]`),
/// but an arm that reassigns a bound after its fill drops that fill's
/// kill, so `buf[k]` stays unproved.
#[test]
fn a_fill_kills_only_when_both_arms_make_it_with_the_same_bounds() {
    let got = findings(
        "int main() {
  int *flags; flags = malloc(8 * sizeof(int));
  for (int i = 0; i < 8; i++) { flags[i] = 1; }
  int *buf; buf = malloc(8 * sizeof(int));
  int *tmp; tmp = malloc(8 * sizeof(int));
  long s; s = 0;
  int n; n = 8;
  #pragma candidate fills
  for (int i = 0; i < 8; i++) {
    if (flags[i] > 0) {
      for (int k = 0; k < n; k++) { buf[k] = k; }
      for (int k = 0; k < 8; k++) { tmp[k] = k; }
    } else {
      for (int k = 0; k < n; k++) { buf[k] = i; }
      n = 8;
      for (int k = 0; k < 8; k++) { tmp[k] = i; }
    }
    for (int k = 0; k < 8; k++) { s += tmp[k]; }
    for (int k = 0; k < n; k++) { s += buf[k]; }
  }
  out_long(s);
  return 0;
}",
    );
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(got[0].contains("class `buf[k]`"), "{got:#?}");
}

/// An induction variable is never expanded: `q` is one frame slot for
/// every worker of `outer`, so reading it after `inner` is refused, even
/// after a store of its own.
#[test]
fn a_nested_induction_variable_read_outside_its_loop_is_refused() {
    let got = findings(
        "int main() {
  int *out; out = malloc(64 * sizeof(int));
  #pragma candidate outer
  for (int i = 0; i < 64; i++) {
    int q;
    #pragma candidate inner
    for (q = 0; q < i % 3 + 1; q++) { out[i] = q; }
    q = 4;
    out[i] = out[i] + q;
  }
  out_long(out[5]);
  return 0;
}",
    );
    assert_eq!(
        got,
        [
            "error[DSE007] 9:23: induction variable `q` of loop `inner` is read outside \
          that loop in the body of loop `outer`; an induction variable is never \
          expanded, so every worker running `outer` shares it (loop `outer`)"
        ]
    );
}

/// Reads of a nested induction variable inside the loops it indexes go to
/// the scheduler's index, and one declared in its loop's header cannot be
/// read after it: neither is a finding.
#[test]
fn nested_induction_variables_read_only_in_their_loops_are_clean() {
    let got = findings(
        "int main() {
  int *out; out = malloc(64 * sizeof(int));
  #pragma candidate outer
  for (int i = 0; i < 64; i++) {
    int q;
    #pragma candidate first
    for (q = 0; q < 2; q++) { out[i] = q; }
    #pragma candidate second
    for (q = 0; q < 2; q++) { out[i] = out[i] + q; }
    #pragma candidate third
    for (int j = 0; j < 2; j++) { out[i] = out[i] + j; }
  }
  out_long(out[5]);
  return 0;
}",
    );
    assert_eq!(got, Vec::<String>::new());
}

// ---- stores that end a fill's coverage ---------------------------------------
//
// Each program fills `scratch[k]` for `k < n` in a 100-iteration candidate
// loop, then reads it. With `in_long(0)` = 0 the profile sees every read
// after its iteration's write and calls the class private; some other
// input takes a path on which the read outruns the fill, and there the
// class profiles shared. So pass 1 must not confirm it: the store named in
// each test ends the fill's coverage before the read.

/// The candidate loop `hole` with `body`, after `flags[i] = in_long(0)`
/// and a zeroed 32-element `scratch`; `decls` go before `main`, `setup`
/// just before the loop.
fn hole(decls: &str, setup: &str, body: &str) -> String {
    format!(
        "{decls}int main() {{
  long v; v = in_long(0);
  int *flags; flags = malloc(100 * sizeof(int));
  int *out; out = malloc(100 * sizeof(int));
  int *scratch; scratch = malloc(32 * sizeof(int));
  for (int i = 0; i < 100; i++) {{ flags[i] = v; }}
  for (int k = 0; k < 32; k++) {{ scratch[k] = 0; }}
  int n;
{setup}  #pragma candidate hole
  for (int i = 0; i < 100; i++) {{
    n = 16;
{body}    out[i] = s;
  }}
  long total; total = 0;
  for (int i = 0; i < 100; i++) {{ total += out[i]; }}
  out_long(total);
  return 0;
}}"
    )
}

/// The fill loop of `hole`, then the read loop; `between` goes between.
fn fill_then_read(between: &str) -> String {
    format!(
        "    for (int k = 0; k < n; k++) {{ scratch[k] = i + k; }}
{between}    int s; s = 0;
    for (int k = 0; k < n; k++) {{ s += scratch[k]; }}
"
    )
}

/// `DSE001` on `class`'s load at `at`, in loop `hole`.
fn unproved(at: &str, class: &str) -> String {
    format!(
        "warning[DSE001] {at}: profiled-private class `{class}` is not provably written \
         before read each iteration: load `{class}` has no guaranteed same-iteration store \
         before it; on other inputs this read may carry a flow dependence across iterations \
         (loop `hole`)"
    )
}

/// Profiled at input 0, `source` gets exactly `findings`; profiled at
/// `other`, every class printed `class` is shared, so its warning is due.
fn assert_unproved_and_shared_at(source: &str, findings: &[String], other: i64, class: &str) {
    assert_eq!(findings_at(source, &[0]), findings, "{source}");
    let diffs = dse_verify::staticdep::loop_diffs(&analyze(source, &[other]));
    let private: Vec<bool> = diffs[0]
        .classes
        .iter()
        .filter(|c| c.repr == class)
        .map(|c| c.profiled_private)
        .collect();
    assert_eq!(private, [false], "`{class}` at input {other}");
}

/// A bound reassigned on one arm of an `if` after the fill.
#[test]
fn a_bound_stored_on_one_arm_ends_the_fill() {
    let body = fill_then_read("    if (flags[i] > 0) { n = 32; }\n");
    let source = hole("", "", &body);
    assert_unproved_and_shared_at(&source, &[unproved("15:40", "scratch[k]")], 1, "scratch[k]");
}

/// A bound changed by a compound assignment after the fill.
#[test]
fn a_bound_stored_by_compound_assignment_ends_the_fill() {
    let body = fill_then_read("    n += 16 * flags[i];\n");
    let source = hole("", "", &body);
    assert_unproved_and_shared_at(&source, &[unproved("15:40", "scratch[k]")], 1, "scratch[k]");
}

/// A bound changed through its taken address after the fill.
#[test]
fn a_bound_stored_through_its_address_ends_the_fill() {
    let body = fill_then_read("    *pn = 16 + flags[i];\n");
    let source = hole("", "  int *pn; pn = &n;\n", &body);
    assert_unproved_and_shared_at(&source, &[unproved("16:40", "scratch[k]")], 1, "scratch[k]");
}

/// A `break` before the fill's store may leave the range short.
#[test]
fn a_break_before_the_store_publishes_no_fill() {
    let body = "    for (int k = 0; k < n; k++) {
      if (flags[i] < -10) { break; }
      scratch[k] = i + k;
    }
    int s; s = 0;
    for (int k = 0; k < n; k++) { s += scratch[k]; }
";
    let source = hole("", "", body);
    assert_unproved_and_shared_at(
        &source,
        &[unproved("17:40", "scratch[k]")],
        -15,
        "scratch[k]",
    );
}

/// A `continue` before the fill's store skips that element.
#[test]
fn a_continue_before_the_store_publishes_no_fill() {
    let body = "    for (int k = 0; k < n; k++) {
      if (flags[i] < -10) { continue; }
      scratch[k] = i + k;
    }
    int s; s = 0;
    for (int k = 0; k < n; k++) { s += scratch[k]; }
";
    let source = hole("", "", body);
    assert_unproved_and_shared_at(
        &source,
        &[unproved("17:40", "scratch[k]")],
        -15,
        "scratch[k]",
    );
}

/// A field root reassigned through its pointer on one arm.
#[test]
fn a_field_root_stored_through_its_pointer_ends_the_fill() {
    let setup = "  int *other; other = malloc(16 * sizeof(int));
  for (int k = 0; k < 16; k++) { other[k] = 0; }
  struct S *b; b = malloc(sizeof(struct S));
  b->buf = scratch;
";
    let body = "    for (int k = 0; k < n; k++) { b->buf[k] = i + k; }
    if (flags[i] > 0) { b->buf = other; }
    int s; s = 0;
    for (int k = 0; k < n; k++) { s += b->buf[k]; }
";
    let source = hole("struct S { int *buf; };\n", setup, body);
    assert_unproved_and_shared_at(&source, &[unproved("20:40", "b->buf[k]")], 1, "b->buf[k]");
}

/// A bound reassigned later in an enclosing `while`: its second trip
/// reads past the fill.
#[test]
fn a_bound_stored_later_in_an_enclosing_loop_ends_the_fill() {
    let body = "    for (int k = 0; k < n; k++) { scratch[k] = i + k; }
    int s; s = 0;
    int j; j = 0;
    while (j < 2) {
      for (int k = 0; k < n; k++) { s += scratch[k]; }
      n = 16 + 16 * flags[i];
      j++;
    }
";
    let source = hole("", "", body);
    assert_unproved_and_shared_at(&source, &[unproved("16:42", "scratch[k]")], 1, "scratch[k]");
}

/// A bound read through a pointer, and the variable it points to stored
/// by name on one arm: a store to an address-taken variable reaches what
/// is read through pointers.
#[test]
fn a_store_to_a_variable_read_through_a_pointer_ends_the_fill() {
    let body = "    for (int k = 0; k < *pn; k++) { scratch[k] = i + k; }
    if (flags[i] > 0) { n = 32; }
    int s; s = 0;
    for (int k = 0; k < *pn; k++) { s += scratch[k]; }
";
    let source = hole("", "  int *pn; pn = &n;\n", body);
    let findings = [unproved("13:25", "(*pn)"), unproved("16:42", "scratch[k]")];
    assert_unproved_and_shared_at(&source, &findings, 1, "scratch[k]");
}

/// A bound kept in an array that decays into a callee, which stores it:
/// a call stores whatever its arguments' addresses reach.
#[test]
fn a_call_that_stores_a_bound_through_a_decayed_array_ends_the_fill() {
    let decls = "void set(int *p, int v) { p[0] = v; }\n";
    let body = "    int lens[1]; lens[0] = n;
    for (int k = 0; k < lens[0]; k++) { scratch[k] = i + k; }
    set(lens, 16 + 16 * flags[i]);
    int s; s = 0;
    for (int k = 0; k < lens[0]; k++) { s += scratch[k]; }
";
    let source = hole(decls, "", body);
    let findings = [
        unproved("14:25", "lens[0]"),
        unproved("17:46", "scratch[k]"),
    ];
    assert_unproved_and_shared_at(&source, &findings, 1, "scratch[k]");
}

/// A call to a user function that assigns nothing the fill's range reads
/// (`scratch`, `n`) leaves the range covering the read.
#[test]
fn a_call_that_stores_nothing_the_fill_reads_keeps_it() {
    let decls = "int calls;\nvoid count() { calls = calls + 1; }\n";
    let source = hole(decls, "", &fill_then_read("    count();\n"));
    assert_eq!(findings_at(&source, &[0]), Vec::<String>::new());
    let diffs = dse_verify::staticdep::loop_diffs(&analyze(&source, &[0]));
    let scratch = diffs[0].classes.iter().find(|c| c.repr == "scratch[k]");
    assert!(scratch.is_some_and(|c| c.profiled_private && c.statically_confirmed));
}
