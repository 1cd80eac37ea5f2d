//! `dsec` exit-code contract: `0` clean, `1` diagnostics-as-errors (and
//! compile/runtime failures), `2` usage and I/O errors.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn dsec(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsec"))
        .args(args)
        .output()
        .expect("spawn dsec");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn clean_check_exits_zero() {
    let (code, _, _) = dsec(&["check", &fixture("doacross_sum.cee")]);
    assert_eq!(code, 0);
}

#[test]
fn warnings_exit_zero_by_default_and_one_under_strict() {
    let f = fixture("profile_unsound.cee");
    let (code, stdout, _) = dsec(&["check", &f]);
    assert_eq!(code, 0);
    assert!(stdout.contains("DSE001"));
    let (strict_code, strict_stdout, _) = dsec(&["check", &f, "--strict"]);
    assert_eq!(strict_code, 1);
    assert!(strict_stdout.contains("DSE001"));
}

#[test]
fn errors_exit_one() {
    let (code, stdout, _) = dsec(&["check", &fixture("conflict.cee")]);
    assert_eq!(code, 1);
    assert!(stdout.contains("DSE007"));
}

#[test]
fn usage_and_io_errors_exit_two() {
    let (code, _, _) = dsec(&[]);
    assert_eq!(code, 2, "no arguments is a usage error");
    let (code, _, _) = dsec(&["--no-such-flag"]);
    assert_eq!(code, 2, "unknown flag is a usage error");
    let (code, _, stderr) = dsec(&["/no/such/file.cee", "--emit", "report"]);
    assert_eq!(code, 2, "unreadable input is an I/O error");
    assert!(stderr.contains("no/such/file.cee"));
    let (code, _, _) = dsec(&["check", "/no/such/file.cee"]);
    assert_eq!(code, 2, "check on unreadable input is an I/O error");
    let (code, _, _) = dsec(&["check"]);
    assert_eq!(code, 2, "check without a file is a usage error");
    let f = fixture("doacross_sum.cee");
    let (code, _, stderr) = dsec(&[&f, "--run", "--threads", "0"]);
    assert_eq!(code, 2, "zero threads is a usage error, not a panic");
    assert_eq!(stderr, "dsec: bad `threads`\n");
    let (code, _, stderr) = dsec(&["check", &f, "--json", "--daemon", "/no/such.sock"]);
    assert_eq!(code, 2, "the daemon has no JSON report to relay");
    assert!(stderr.contains("--json runs standalone"), "{stderr}");
}

#[test]
fn drive_verifies_before_transform() {
    // conflict.cee cannot be planned; the drive must fail before emitting,
    // with the verifier's finding on stderr.
    let f = fixture("conflict.cee");
    let (code, _, stderr) = dsec(&[&f, "--emit", "report"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("DSE007") || stderr.contains("planning error"));

    // A warning-only program still drives fine, with the finding surfaced.
    let f = fixture("profile_unsound.cee");
    let (code, stdout, stderr) = dsec(&[&f, "--run", "--threads", "2"]);
    assert_eq!(code, 0);
    assert!(stderr.contains("DSE001"), "warning surfaced on stderr");
    assert!(stdout.contains("out_long"), "program still ran");
}

#[test]
fn metrics_carry_lint_counts() {
    let f = fixture("profile_unsound.cee");
    let (code, stdout, _) = dsec(&[&f, "--metrics", "-"]);
    assert_eq!(code, 0);
    let line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("metrics JSON");
    let m = dse_telemetry::Json::parse(line).expect("valid JSON");
    let lints = m
        .get("lints")
        .expect("lint counts present after a transform");
    let count = |name| lints.get(name).and_then(dse_telemetry::Json::as_i64);
    assert_eq!(count("errors"), Some(0));
    assert_eq!(count("warnings"), Some(1));
}
