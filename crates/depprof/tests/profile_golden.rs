//! The dependence profile, pinned byte for byte: every workload at
//! `Scale::Profile` and every example program with a candidate loop,
//! profiled as the pipeline profiles them (default serial lowering,
//! stack backend), must render the checked-in
//! `ProfileResult::canonical_summary()` in `tests/fixtures/`.
//!
//! A change to the profiler's internals must leave every file as it is.
//! On an intended change to what the profile records, the failing test
//! writes the new rendering beside the test binary's scratch directory
//! and names it, to review and copy over the fixture.

use dse_runtime::VmConfig;
use dse_workloads::Scale;
use std::path::PathBuf;

fn summary(source: &str, config: VmConfig) -> String {
    let ast = dse_lang::compile_to_ast(source).expect("parse");
    let serial = dse_ir::lower_program(&ast, &Default::default()).expect("lower");
    let (profile, _vm) = dse_depprof::profile_program(serial, config).expect("profile");
    profile.canonical_summary()
}

/// `None` when `actual` matches the fixture; otherwise writes `actual` to
/// the scratch directory and describes the first difference.
fn check(name: &str, actual: &str) -> Option<String> {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.summary"));
    let expected = std::fs::read_to_string(&fixture).unwrap_or_default();
    if expected == actual {
        return None;
    }
    let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.summary"));
    std::fs::write(&fresh, actual).expect("write the fresh summary");
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    Some(format!(
        "{name}: the profile differs from {} at line {} (expected {:?}, got {:?}); \
         the new rendering is in {}",
        fixture.display(),
        first_diff + 1,
        expected.lines().nth(first_diff),
        actual.lines().nth(first_diff),
        fresh.display()
    ))
}

#[test]
fn workload_profiles_match_golden() {
    let mut failures = Vec::new();
    for w in dse_workloads::all() {
        let actual = summary(w.source, w.vm_config(Scale::Profile));
        assert!(
            actual.starts_with("loop "),
            "{}: no candidate loop ran",
            w.name
        );
        failures.extend(check(w.name, &actual));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn example_profiles_match_golden() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut checked = 0;
    let mut failures = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cee"))
        .collect();
    entries.sort();
    for path in entries {
        let source = std::fs::read_to_string(&path).expect("read example");
        if !source.contains("#pragma candidate") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy();
        failures.extend(check(&name, &summary(&source, VmConfig::default())));
        checked += 1;
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        checked >= 2,
        "only {checked} examples have a candidate loop"
    );
}
