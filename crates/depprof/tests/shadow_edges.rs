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
        let names = |set: &std::collections::HashSet<SiteId>| {
            let mut v: Vec<String> = set.iter().map(|&s| self.name(s)).collect();
            v.sort();
            v
        };
        (names(&l.upward_exposed), names(&l.downward_exposed))
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
