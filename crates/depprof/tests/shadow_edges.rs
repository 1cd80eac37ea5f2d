//! Edge cases of the profiler's shadow state, each pinned to its exact
//! dependence edges and exposure sets. Sites are named by their source
//! text and line, so an expectation reads as the program does.

use dse_depprof::{profile_program, LoopDdg, ProfileResult};
use dse_ir::sites::{SiteId, SiteTable};
use dse_runtime::VmConfig;

struct Profiled {
    source: String,
    sites: SiteTable,
    result: ProfileResult,
}

fn profile(source: &str) -> Profiled {
    let ast = dse_lang::compile_to_ast(source).expect("parse");
    let serial = dse_ir::lower_program(&ast, &Default::default()).expect("lower");
    let sites = serial.sites.clone();
    let (result, _vm) = profile_program(serial, VmConfig::default()).expect("profile");
    Profiled {
        source: source.to_string(),
        sites,
        result,
    }
}

impl Profiled {
    /// `<line>:<col> <text> <load|store>` for a single-line site.
    fn name(&self, site: SiteId) -> String {
        let info = self.sites.info(site);
        let (start, end) = (info.span.start, info.span.end);
        assert_eq!(start.line, end.line, "multi-line site {site}");
        let line = self.source.lines().nth(start.line as usize - 1).unwrap();
        let text = &line[start.col as usize - 1..end.col as usize - 1];
        format!("{start} {text} {}", info.kind)
    }

    fn ddg(&self, label: &str) -> &LoopDdg {
        self.result.by_label(label).expect("loop ran")
    }

    fn edges(&self, label: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .ddg(label)
            .edges
            .iter()
            .map(|e| {
                let carried = if e.carried { " carried" } else { "" };
                format!(
                    "{} -> {} {:?}{carried}",
                    self.name(e.src),
                    self.name(e.dst),
                    e.kind
                )
            })
            .collect();
        out.sort();
        out
    }

    fn exposed(&self, label: &str) -> (Vec<String>, Vec<String>) {
        let l = self.ddg(label);
        let names = |sites: &mut dyn Iterator<Item = SiteId>| {
            let mut v: Vec<String> = sites.map(|s| self.name(s)).collect();
            v.sort();
            v
        };
        (
            names(&mut l.upward_exposed()),
            names(&mut l.downward_exposed()),
        )
    }

    /// Asserts one loop's iteration count, edges and exposure sets.
    fn check(&self, label: &str, iterations: u64, edges: &[&str], up: &[&str], down: &[&str]) {
        assert_eq!(
            self.ddg(label).iterations,
            iterations,
            "{label}: iterations"
        );
        assert_eq!(self.edges(label), edges, "{label}: edges");
        let (u, d) = self.exposed(label);
        assert_eq!(u, up, "{label}: upward exposed");
        assert_eq!(d, down, "{label}: downward exposed");
    }
}

/// A 4 800-byte struct copy spans at least two 4 KiB shadow pages: its
/// store reaches the loads of both its first and its last word, and its
/// load sees the in-loop store of `a.w[599]` on the far page.
#[test]
fn struct_copy_across_a_shadow_page() {
    let p = profile(
        "struct Big { long w[600]; };
struct Big a;
struct Big b;
int main() {
  long s; s = 0;
  #pragma candidate hot
  for (int i = 0; i < 3; i++) {
    a.w[599] = i;
    b = a;
    s = s + b.w[0] + b.w[599];
  }
  out_long(s);
  return 0;
}",
    );
    p.check(
        "hot",
        3,
        &[
            "10:13 b.w[0] load -> 9:5 b store Anti carried",
            "10:22 b.w[599] load -> 9:5 b store Anti carried",
            "10:5 s store -> 10:5 s store Output carried",
            "10:5 s store -> 10:9 s load Flow carried",
            "10:9 s load -> 10:5 s store Anti",
            "8:5 a.w[599] store -> 8:5 a.w[599] store Output carried",
            "8:5 a.w[599] store -> 9:9 a load Flow",
            "9:5 b store -> 10:13 b.w[0] load Flow",
            "9:5 b store -> 10:22 b.w[599] load Flow",
            "9:5 b store -> 9:5 b store Output carried",
            "9:9 a load -> 8:5 a.w[599] store Anti carried",
        ],
        &["10:9 s load", "9:9 a load"],
        &["10:5 s store"],
    );
}

/// Four load sites read `g` between stores, more than a byte keeps
/// inline. Every reader gets its anti edge, and only `s4`'s is carried:
/// a reader keeps the latest iteration it read in, and `s4` reads two
/// iterations before each store.
#[test]
fn more_than_two_readers_of_one_byte() {
    let p = profile(
        "long g;
int main() {
  long s1; long s2; long s3; long s4; s1 = 0; s2 = 0; s3 = 0; s4 = 0;
  #pragma candidate hot
  for (int i = 0; i < 9; i++) {
    s1 = s1 + g;
    s2 = s2 + g;
    s3 = s3 + g;
    if (i % 3 == 0) { s4 = s4 + g; }
    if (i % 3 == 2) { g = i; }
  }
  out_long(s1 + s2 + s3 + s4);
  return 0;
}",
    );
    p.check(
        "hot",
        9,
        &[
            "10:23 g store -> 10:23 g store Output carried",
            "10:23 g store -> 6:15 g load Flow carried",
            "10:23 g store -> 7:15 g load Flow carried",
            "10:23 g store -> 8:15 g load Flow carried",
            "10:23 g store -> 9:33 g load Flow carried",
            "6:10 s1 load -> 6:5 s1 store Anti",
            "6:15 g load -> 10:23 g store Anti",
            "6:5 s1 store -> 6:10 s1 load Flow carried",
            "6:5 s1 store -> 6:5 s1 store Output carried",
            "7:10 s2 load -> 7:5 s2 store Anti",
            "7:15 g load -> 10:23 g store Anti",
            "7:5 s2 store -> 7:10 s2 load Flow carried",
            "7:5 s2 store -> 7:5 s2 store Output carried",
            "8:10 s3 load -> 8:5 s3 store Anti",
            "8:15 g load -> 10:23 g store Anti",
            "8:5 s3 store -> 8:10 s3 load Flow carried",
            "8:5 s3 store -> 8:5 s3 store Output carried",
            "9:23 s4 store -> 9:23 s4 store Output carried",
            "9:23 s4 store -> 9:28 s4 load Flow carried",
            "9:28 s4 load -> 9:23 s4 store Anti",
            "9:33 g load -> 10:23 g store Anti carried",
        ],
        &[
            "6:10 s1 load",
            "6:15 g load",
            "7:10 s2 load",
            "7:15 g load",
            "8:10 s3 load",
            "8:15 g load",
            "9:28 s4 load",
            "9:33 g load",
        ],
        &[
            "6:5 s1 store",
            "7:5 s2 store",
            "8:5 s3 store",
            "9:23 s4 store",
        ],
    );
}

/// `inner` is entered 1 200 times, each entry on fresh elements of `a`
/// (19 pages in all), while `outer` stays active across all of them:
/// every entry starts from an empty shadow and all fold into one DDG.
#[test]
fn nested_candidate_entered_many_times() {
    let p = profile(
        "long a[9600];
long acc;
int main() {
  #pragma candidate outer
  for (int o = 0; o < 1200; o++) {
    #pragma candidate inner
    for (int k = 0; k < 8; k++) {
      a[o * 8 + k] = a[o * 8 + k] + k;
      acc = acc + a[o * 8 + k];
    }
  }
  out_long(acc);
  return 0;
}",
    );
    p.check(
        "outer",
        1200,
        &[
            "7:18 0 store -> 7:21 k load Flow",
            "7:18 0 store -> 7:28 k load Flow",
            "7:18 0 store -> 7:28 k store Output",
            "7:18 0 store -> 8:17 k load Flow",
            "7:18 0 store -> 8:32 k load Flow",
            "7:18 0 store -> 8:37 k load Flow",
            "7:18 0 store -> 9:29 k load Flow",
            "7:21 k load -> 7:18 0 store Anti carried",
            "7:21 k load -> 7:28 k store Anti",
            "7:28 k load -> 7:28 k store Anti",
            "7:28 k store -> 7:18 0 store Output carried",
            "7:28 k store -> 7:21 k load Flow",
            "7:28 k store -> 7:28 k load Flow",
            "7:28 k store -> 7:28 k store Output",
            "7:28 k store -> 8:17 k load Flow",
            "7:28 k store -> 8:32 k load Flow",
            "7:28 k store -> 8:37 k load Flow",
            "7:28 k store -> 9:29 k load Flow",
            "8:17 k load -> 7:28 k store Anti",
            "8:22 a[o * 8 + k] load -> 8:7 a[o * 8 + k] store Anti",
            "8:32 k load -> 7:28 k store Anti",
            "8:37 k load -> 7:28 k store Anti",
            "8:7 a[o * 8 + k] store -> 9:19 a[o * 8 + k] load Flow",
            "9:13 acc load -> 9:7 acc store Anti",
            "9:29 k load -> 7:28 k store Anti",
            "9:7 acc store -> 9:13 acc load Flow",
            "9:7 acc store -> 9:13 acc load Flow carried",
            "9:7 acc store -> 9:7 acc store Output",
            "9:7 acc store -> 9:7 acc store Output carried",
        ],
        &["8:22 a[o * 8 + k] load", "9:13 acc load"],
        &["9:7 acc store"],
    );
    p.check(
        "inner",
        9600,
        &[
            "8:22 a[o * 8 + k] load -> 8:7 a[o * 8 + k] store Anti",
            "8:7 a[o * 8 + k] store -> 9:19 a[o * 8 + k] load Flow",
            "9:13 acc load -> 9:7 acc store Anti",
            "9:7 acc store -> 9:13 acc load Flow carried",
            "9:7 acc store -> 9:7 acc store Output carried",
        ],
        &[
            "8:22 a[o * 8 + k] load",
            "8:24 o load",
            "8:9 o load",
            "9:13 acc load",
            "9:21 o load",
        ],
        &["9:7 acc store"],
    );
}

/// A 4-byte store after a loop clears the downward-exposure watch on half
/// of the loop's 8-byte store. Reading the other half exposes the store
/// (`high`); reading only the cleared half does not (`low`).
#[test]
fn narrower_store_clears_only_its_bytes() {
    let p = profile(
        "int main() {
  long *hi; hi = malloc(8);
  long *lo; lo = malloc(8);
  int *hh; hh = (int*)hi;
  int *lh; lh = (int*)lo;
  #pragma candidate high
  for (int i = 0; i < 4; i++) { hi[0] = i; }
  #pragma candidate low
  for (int i = 0; i < 4; i++) { lo[0] = i; }
  hh[0] = 0;
  lh[0] = 0;
  out_long(hh[1]);
  out_long(lh[0]);
  return 0;
}",
    );
    p.check(
        "high",
        4,
        &["7:33 hi[0] store -> 7:33 hi[0] store Output carried"],
        &["7:33 hi load"],
        &["7:33 hi[0] store"],
    );
    p.check(
        "low",
        4,
        &["9:33 lo[0] store -> 9:33 lo[0] store Output carried"],
        &["9:33 lo load"],
        &[],
    );
}

/// A 1-byte store into byte 1 of `w[0]` and a 2-byte store into bytes
/// 1–2 of `w[1]`, then `int` loads of both: each load depends on the
/// narrow store inside it, and, since the rest of each `int` is written
/// only before the loop, is upward-exposed. Only `w[0]` is read after
/// the loop, so only the 1-byte store is downward-exposed.
#[test]
fn narrow_stores_into_the_middle_of_an_int() {
    let p = profile(
        "int main() {
  int *w; w = malloc(8);
  char *c; c = (char*)w;
  short *h; h = (short*)(c + 5);
  long s; s = 0;
  w[0] = 0; w[1] = 0;
  #pragma candidate hot
  for (int i = 0; i < 4; i++) {
    c[1] = i;
    h[0] = i;
    s = s + w[0] + w[1];
  }
  out_long(s + w[0]);
  return 0;
}",
    );
    p.check(
        "hot",
        4,
        &[
            "10:5 h[0] store -> 10:5 h[0] store Output carried",
            "10:5 h[0] store -> 11:20 w[1] load Flow",
            "11:13 w[0] load -> 9:5 c[1] store Anti carried",
            "11:20 w[1] load -> 10:5 h[0] store Anti carried",
            "11:5 s store -> 11:5 s store Output carried",
            "11:5 s store -> 11:9 s load Flow carried",
            "11:9 s load -> 11:5 s store Anti",
            "9:5 c[1] store -> 11:13 w[0] load Flow",
            "9:5 c[1] store -> 9:5 c[1] store Output carried",
        ],
        &[
            "10:5 h load",
            "11:13 w load",
            "11:13 w[0] load",
            "11:20 w load",
            "11:20 w[1] load",
            "11:9 s load",
            "9:5 c load",
        ],
        &["11:5 s store", "9:5 c[1] store"],
    );
}

/// Four load sites read one `int`, more than a byte keeps inline, and a
/// 1-byte store then clears byte 0 alone. Bytes 2–3 keep every reader, the
/// spilled ones too: `s4` reads only in iteration 0, so its carried anti
/// edge to the `h[1]` store (bytes 2–3, iterations 1 and 5) comes from
/// those bytes' own copies of the reader list.
#[test]
fn three_readers_then_a_byte_store() {
    let p = profile(
        "int main() {
  int *g; g = malloc(4);
  char *c; c = (char*)g;
  short *h; h = (short*)g;
  g[0] = 7;
  long s1; long s2; long s3; long s4; s1 = 0; s2 = 0; s3 = 0; s4 = 0;
  #pragma candidate hot
  for (int i = 0; i < 8; i++) {
    s1 = s1 + g[0];
    s2 = s2 + g[0];
    s3 = s3 + g[0];
    if (i == 0) { s4 = s4 + g[0]; }
    c[0] = i;
    if (i % 4 == 1) { h[1] = i; }
  }
  out_long(s1 + s2 + s3 + s4 + h[1]);
  return 0;
}",
    );
    p.check(
        "hot",
        8,
        &[
            "10:10 s2 load -> 10:5 s2 store Anti",
            "10:15 g[0] load -> 13:5 c[0] store Anti",
            "10:15 g[0] load -> 14:23 h[1] store Anti",
            "10:5 s2 store -> 10:10 s2 load Flow carried",
            "10:5 s2 store -> 10:5 s2 store Output carried",
            "11:10 s3 load -> 11:5 s3 store Anti",
            "11:15 g[0] load -> 13:5 c[0] store Anti",
            "11:15 g[0] load -> 14:23 h[1] store Anti",
            "11:5 s3 store -> 11:10 s3 load Flow carried",
            "11:5 s3 store -> 11:5 s3 store Output carried",
            "12:24 s4 load -> 12:19 s4 store Anti",
            "12:29 g[0] load -> 13:5 c[0] store Anti",
            "12:29 g[0] load -> 14:23 h[1] store Anti carried",
            "13:5 c[0] store -> 10:15 g[0] load Flow carried",
            "13:5 c[0] store -> 11:15 g[0] load Flow carried",
            "13:5 c[0] store -> 13:5 c[0] store Output carried",
            "13:5 c[0] store -> 9:15 g[0] load Flow carried",
            "14:23 h[1] store -> 10:15 g[0] load Flow carried",
            "14:23 h[1] store -> 11:15 g[0] load Flow carried",
            "14:23 h[1] store -> 14:23 h[1] store Output carried",
            "14:23 h[1] store -> 9:15 g[0] load Flow carried",
            "9:10 s1 load -> 9:5 s1 store Anti",
            "9:15 g[0] load -> 13:5 c[0] store Anti",
            "9:15 g[0] load -> 14:23 h[1] store Anti",
            "9:5 s1 store -> 9:10 s1 load Flow carried",
            "9:5 s1 store -> 9:5 s1 store Output carried",
        ],
        &[
            "10:10 s2 load",
            "10:15 g load",
            "10:15 g[0] load",
            "11:10 s3 load",
            "11:15 g load",
            "11:15 g[0] load",
            "12:24 s4 load",
            "12:29 g load",
            "12:29 g[0] load",
            "13:5 c load",
            "14:23 h load",
            "9:10 s1 load",
            "9:15 g load",
            "9:15 g[0] load",
        ],
        &[
            "10:5 s2 store",
            "11:5 s3 store",
            "12:19 s4 store",
            "14:23 h[1] store",
            "9:5 s1 store",
        ],
    );
}

/// A 1-byte store splits `w[0]` from the rest of it, then an `int` store
/// covers all of it: later loads of any byte depend on the `int` store
/// alone, and only it is downward-exposed.
#[test]
fn full_width_store_over_a_split_int() {
    let p = profile(
        "int main() {
  int *w; w = malloc(4);
  char *c; c = (char*)w;
  long s; s = 0;
  #pragma candidate hot
  for (int i = 0; i < 4; i++) {
    s = s + c[0];
    c[1] = i;
    w[0] = i + 1;
    s = s + w[0] + c[1];
  }
  out_long(s + w[0] + c[2]);
  return 0;
}",
    );
    p.check(
        "hot",
        4,
        &[
            "10:13 w[0] load -> 8:5 c[1] store Anti carried",
            "10:13 w[0] load -> 9:5 w[0] store Anti carried",
            "10:20 c[1] load -> 8:5 c[1] store Anti carried",
            "10:5 s store -> 7:5 s store Output carried",
            "10:5 s store -> 7:9 s load Flow carried",
            "10:9 s load -> 10:5 s store Anti",
            "7:13 c[0] load -> 9:5 w[0] store Anti",
            "7:5 s store -> 10:5 s store Output",
            "7:5 s store -> 10:9 s load Flow",
            "7:9 s load -> 7:5 s store Anti",
            "8:5 c[1] store -> 9:5 w[0] store Output",
            "9:5 w[0] store -> 10:13 w[0] load Flow",
            "9:5 w[0] store -> 10:20 c[1] load Flow",
            "9:5 w[0] store -> 7:13 c[0] load Flow carried",
            "9:5 w[0] store -> 8:5 c[1] store Output carried",
            "9:5 w[0] store -> 9:5 w[0] store Output carried",
        ],
        &[
            "10:13 w load",
            "10:20 c load",
            "7:13 c load",
            "7:13 c[0] load",
            "7:9 s load",
            "8:5 c load",
            "9:5 w load",
        ],
        &["10:5 s store", "9:5 w[0] store"],
    );
}

/// A `long` at byte offset 3 of an `int` array covers byte 3 of `w[0]`,
/// all of `w[1]` and bytes 0–2 of `w[2]`. Loaded, it depends on the
/// stores of `w[0]` and `w[2]` and is upward-exposed through `w[1]`;
/// stored, it reaches the `int` loads of `w[0]`, `w[1]` and `w[2]` but not
/// `w[3]`, and it leaves `w[0]`'s low bytes upward-exposed.
#[test]
fn misaligned_long_straddles_granules() {
    let p = profile(
        "int main() {
  int *w; w = malloc(16);
  char *c; c = (char*)w;
  long *l; l = (long*)(c + 3);
  long s; s = 0;
  w[0] = 0; w[1] = 0; w[2] = 0; w[3] = 0;
  #pragma candidate load
  for (int i = 0; i < 4; i++) {
    w[0] = i;
    w[2] = i;
    s = s + l[0];
  }
  #pragma candidate store
  for (int i = 0; i < 4; i++) {
    if (i % 2 == 0) { l[0] = i; }
    s = s + w[0] + w[1] + w[2] + w[3];
  }
  out_long(s + w[1]);
  return 0;
}",
    );
    p.check(
        "load",
        4,
        &[
            "10:5 w[2] store -> 10:5 w[2] store Output carried",
            "10:5 w[2] store -> 11:13 l[0] load Flow",
            "11:13 l[0] load -> 10:5 w[2] store Anti carried",
            "11:13 l[0] load -> 9:5 w[0] store Anti carried",
            "11:5 s store -> 11:5 s store Output carried",
            "11:5 s store -> 11:9 s load Flow carried",
            "11:9 s load -> 11:5 s store Anti",
            "9:5 w[0] store -> 11:13 l[0] load Flow",
            "9:5 w[0] store -> 9:5 w[0] store Output carried",
        ],
        &[
            "10:5 w load",
            "11:13 l load",
            "11:13 l[0] load",
            "11:9 s load",
            "9:5 w load",
        ],
        &["10:5 w[2] store", "11:5 s store", "9:5 w[0] store"],
    );
    p.check(
        "store",
        4,
        &[
            "15:23 l[0] store -> 15:23 l[0] store Output carried",
            "15:23 l[0] store -> 16:13 w[0] load Flow",
            "15:23 l[0] store -> 16:13 w[0] load Flow carried",
            "15:23 l[0] store -> 16:20 w[1] load Flow",
            "15:23 l[0] store -> 16:20 w[1] load Flow carried",
            "15:23 l[0] store -> 16:27 w[2] load Flow",
            "15:23 l[0] store -> 16:27 w[2] load Flow carried",
            "16:13 w[0] load -> 15:23 l[0] store Anti carried",
            "16:20 w[1] load -> 15:23 l[0] store Anti carried",
            "16:27 w[2] load -> 15:23 l[0] store Anti carried",
            "16:5 s store -> 16:5 s store Output carried",
            "16:5 s store -> 16:9 s load Flow carried",
            "16:9 s load -> 16:5 s store Anti",
        ],
        &[
            "15:23 l load",
            "16:13 w load",
            "16:13 w[0] load",
            "16:20 w load",
            "16:27 w load",
            "16:27 w[2] load",
            "16:34 w load",
            "16:34 w[3] load",
            "16:9 s load",
        ],
        &["15:23 l[0] store", "16:5 s store"],
    );
}
