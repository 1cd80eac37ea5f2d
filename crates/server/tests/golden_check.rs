//! Golden-file tests for `dsec check`: each fixture's text and JSON output
//! is pinned verbatim. Regenerate a golden after an intentional change
//! with:
//!
//! ```text
//! cargo run -p dse-server --bin dsec -- check <fixture>.cee > <fixture>.expected
//! cargo run -p dse-server --bin dsec -- check <fixture>.cee --json > <fixture>.expected.json
//! ```

use std::path::PathBuf;
use std::process::Command;

/// (fixture, expected exit code): the codes each fixture is built to hit.
const FIXTURES: [(&str, i32); 5] = [
    ("profile_unsound", 0), // DSE001 is a warning by default
    ("zero_iter", 0),       // DSE008 likewise
    ("doacross_sum", 0),    // clean DOACROSS
    ("alias_halves", 0),    // DSE002 is informational
    ("conflict", 1),        // DSE007 is an error
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_check(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsec"))
        .arg("check")
        .args(args)
        .output()
        .expect("spawn dsec");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (stdout, out.status.code().expect("exit code"))
}

#[test]
fn fixtures_match_text_goldens() {
    for (name, want_code) in FIXTURES {
        let dir = fixture_dir();
        let cee = dir.join(format!("{name}.cee"));
        let (stdout, code) = run_check(&[cee.to_str().unwrap()]);
        let golden = std::fs::read_to_string(dir.join(format!("{name}.expected"))).unwrap();
        assert_eq!(stdout, golden, "{name}: text output drifted from golden");
        assert_eq!(code, want_code, "{name}: exit code");
    }
}

#[test]
fn fixtures_match_json_goldens() {
    for (name, want_code) in FIXTURES {
        let dir = fixture_dir();
        let cee = dir.join(format!("{name}.cee"));
        let (stdout, code) = run_check(&[cee.to_str().unwrap(), "--json"]);
        let golden = std::fs::read_to_string(dir.join(format!("{name}.expected.json"))).unwrap();
        assert_eq!(stdout, golden, "{name}: JSON output drifted from golden");
        assert_eq!(code, want_code, "{name}: exit code");
        // The JSON is parseable and its counts agree with the verdict.
        let parsed = dse_telemetry::Json::parse(stdout.trim()).expect("valid JSON");
        let errors = parsed
            .get("counts")
            .and_then(|c| c.get("errors"))
            .and_then(dse_telemetry::Json::as_i64)
            .unwrap();
        assert_eq!(errors > 0, want_code != 0, "{name}: counts match exit");
    }
}

/// The shipped example is the quickstart's face: `dsec check` passes it
/// with nothing to report.
#[test]
fn shipped_example_checks_clean() {
    let example = format!("{}/../../examples/scratch.cee", env!("CARGO_MANIFEST_DIR"));
    let (stdout, code) = run_check(&[&example]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "check: 0 error(s), 0 warning(s), 0 info(s)\n");
}
