//! What the pipeline decides about each candidate loop, pinned byte for
//! byte: for the eight workloads at `Scale::Profile`, every
//! `examples/*.cee` and every `tests/fixtures/*.cee`, one golden under
//! `tests/fixtures/loop_records/` holds
//!
//! * the `dsec --emit ddg` text and exit code (classes, verdicts, modes);
//! * the `code_fingerprint` of the serial program, and of the parallel
//!   program at every `OptLevel` × threads {2, 4} (or the transform's
//!   error);
//! * each candidate loop's DOACROSS window, as `label: (first, last)`.
//!
//! A refactor of how these decisions are stored must leave every file as
//! it is. On an intended change, the failing test writes the new
//! rendering to the test binary's scratch directory and names it, to
//! review and copy over the golden.

use dse_core::phases::code_fingerprint;
use dse_core::{Analysis, OptLevel};
use dse_ir::loops::find_candidate_loops;
use dse_runtime::VmConfig;
use dse_workloads::Scale;
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.cee` files directly in `dir`, sorted.
fn cee_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cee"))
        .collect();
    files.sort();
    files
}

/// One case's rendering.
fn render(path: &Path, inputs: &[i64]) -> String {
    let mut out = String::new();
    let joined: Vec<String> = inputs.iter().map(i64::to_string).collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsec"));
    cmd.arg(path).args(["--emit", "ddg"]);
    if !inputs.is_empty() {
        cmd.args(["--in", &joined.join(",")]);
    }
    let ddg = cmd.output().expect("spawn dsec");
    let code = ddg.status.code().expect("exit code");
    writeln!(out, "== dsec --emit ddg (exit {code})").unwrap();
    out.push_str(&String::from_utf8(ddg.stdout).expect("utf-8 stdout"));

    let source = std::fs::read_to_string(path).expect("read source");
    let config = VmConfig {
        inputs_int: inputs.to_vec(),
        ..Default::default()
    };
    let analysis = match Analysis::from_source(&source, config) {
        Ok(a) => a,
        Err(e) => {
            writeln!(out, "== analysis error: {e}").unwrap();
            return out;
        }
    };
    writeln!(out, "== serial {}", code_fingerprint(&analysis.serial)).unwrap();
    let cands = find_candidate_loops(&analysis.program).expect("candidate loops");
    for opt in [OptLevel::None, OptLevel::NoConstSpan, OptLevel::Full] {
        for threads in [2, 4] {
            let t = match analysis.transform(opt, threads) {
                Ok(t) => t,
                Err(e) => {
                    writeln!(out, "== {} t{threads}: error: {e}", opt.name()).unwrap();
                    continue;
                }
            };
            writeln!(
                out,
                "== {} t{threads}: parallel {}",
                opt.name(),
                code_fingerprint(&t.parallel)
            )
            .unwrap();
            for (k, c) in cands.iter().enumerate() {
                let window = t.sync_windows.get(k).copied().flatten();
                match window {
                    Some((first, last)) => writeln!(out, "{}: ({first}, {last})", c.label),
                    None => writeln!(out, "{}: none", c.label),
                }
                .unwrap();
            }
        }
    }
    out
}

/// `None` when `actual` matches the golden; otherwise writes `actual` to
/// the scratch directory and describes the first difference.
fn check(name: &str, actual: &str) -> Option<String> {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/loop_records")
        .join(format!("{name}.golden"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return None;
    }
    let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.golden"));
    std::fs::write(&fresh, actual).expect("write the fresh rendering");
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    Some(format!(
        "{name}: differs from {} at line {} (expected {:?}, got {:?}); the new rendering \
         is in {}",
        golden.display(),
        first_diff + 1,
        expected.lines().nth(first_diff),
        actual.lines().nth(first_diff),
        fresh.display()
    ))
}

fn check_all(cases: Vec<(String, PathBuf, Vec<i64>)>) {
    assert!(!cases.is_empty());
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, path, inputs)| check(name, &render(path, inputs)))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn workload_loop_records_match_golden() {
    let programs = root().join("crates/workloads/programs");
    check_all(
        dse_workloads::all()
            .into_iter()
            .map(|w| {
                let path = programs.join(format!("{}.cee", w.name));
                (
                    format!("workload-{}", w.name),
                    path,
                    w.inputs(Scale::Profile),
                )
            })
            .collect(),
    );
}

#[test]
fn example_and_fixture_loop_records_match_golden() {
    let mut cases = Vec::new();
    for (prefix, dir) in [
        ("example", root().join("examples")),
        ("fixture", root().join("crates/server/tests/fixtures")),
    ] {
        for path in cee_files(&dir) {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            cases.push((format!("{prefix}-{stem}"), path, Vec::new()));
        }
    }
    check_all(cases);
}
