//! Pass 1 on small programs, each pinned to the exact findings it must
//! give: the coverage scan's `if`/`else` kills (`DSE001`) and the read of
//! a nested candidate loop's induction variable outside it (`DSE007`).

use dse_core::Analysis;
use dse_runtime::VmConfig;

/// Every finding of pass 1, rendered.
fn findings(source: &str) -> Vec<String> {
    let analysis = Analysis::from_source(source, VmConfig::default()).expect("analysis");
    dse_verify::check_all(&analysis, None)
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
