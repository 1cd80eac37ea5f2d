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

/// `--strict` means one thing wherever the verifier runs: a program whose
/// only findings are warnings exits 0 without it and 1 with it, under
/// `check` and under `--run` alike, standalone and over `--daemon`.
#[test]
fn strict_fails_a_run_on_warnings_as_it_fails_a_check() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let sock = std::env::temp_dir().join(format!("dsec-strict-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--socket")
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(daemon.try_wait().unwrap().is_none(), "dsed exited early");
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let sock = sock.to_str().unwrap();

    for (name, code) in [
        ("profile_unsound.cee", "DSE001"),
        ("zero_iter.cee", "DSE008"),
    ] {
        let f = fixture(name);
        for daemon_args in [&[][..], &["--daemon", sock][..]] {
            for (args, want) in [
                (&["check", &f][..], 0),
                (&["check", &f, "--strict"][..], 1),
                (&[&f, "--run"][..], 0),
                (&[&f, "--run", "--strict"][..], 1),
            ] {
                let argv = [args, daemon_args].concat();
                let (got, stdout, stderr) = dsec(&argv);
                assert_eq!(got, want, "dsec {argv:?}\n{stdout}{stderr}");
                assert!(
                    stdout.contains(code) || stderr.contains(code),
                    "dsec {argv:?} names {code}"
                );
                if args[1] == "--run" && want == 1 {
                    let why = "verification failed with 1 warning(s) under --strict";
                    assert!(stderr.contains(why), "{stderr}");
                }
            }
        }
    }

    let mut conn = std::os::unix::net::UnixStream::connect(sock).expect("connect");
    use std::io::Write;
    writeln!(conn, r#"{{"cmd":"shutdown"}}"#).expect("send shutdown");
    let status = daemon.wait().expect("dsed exit");
    assert!(status.success(), "dsed shutdown status {status}");
}

/// `--emit ddg` names the class only the profile makes private, with the
/// reason `dsec check` gives for its `DSE001`.
#[test]
fn ddg_emit_gives_each_class_its_static_verdict() {
    let f = fixture("profile_unsound.cee");
    let (code, stdout, _) = dsec(&[&f, "--emit", "ddg"]);
    assert_eq!(code, 0);
    let reason = "load `scratch[k]` has no guaranteed same-iteration store before it";
    let line = format!(
        "    class `scratch[k]` (2 sites at 14:38, 17:41): private by profile only: {reason}"
    );
    assert!(stdout.lines().any(|l| l == line), "{stdout}");
    for counts in ["  Flow edges: ", "  access classes: 10 (17 private sites)"] {
        assert!(stdout.contains(counts), "no `{counts}`: {stdout}");
    }
    let (_, check, _) = dsec(&["check", &f]);
    assert!(
        check.contains("DSE001") && check.contains(reason),
        "{check}"
    );

    // A refused transform still shows the profile that explains it.
    let (code, stdout, stderr) = dsec(&[&fixture("conflict.cee"), "--emit", "ddg"]);
    assert_eq!(code, 1, "{stderr}");
    for label in ["reader", "writer"] {
        assert!(stdout.contains(&format!("loop `{label}`")), "{stdout}");
    }
}

/// Two classes that print the same access (`profile_unsound.cee` has two
/// `k` and two `scratch`) tell apart by where their sites are: no two
/// class lines of one loop read the same.
#[test]
fn ddg_class_lines_are_distinct() {
    let (code, stdout, _) = dsec(&[&fixture("profile_unsound.cee"), "--emit", "ddg"]);
    assert_eq!(code, 0);
    let classes: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("    class `"))
        .collect();
    assert_eq!(classes.len(), 10, "{stdout}");
    let distinct: std::collections::HashSet<&&str> = classes.iter().collect();
    assert_eq!(distinct.len(), classes.len(), "{stdout}");
    for k in ["class `k` (5 sites at 14:", "class `k` (4 sites at 17:"] {
        assert!(stdout.contains(k), "no `{k}`: {stdout}");
    }
}

/// A nested candidate loop's induction variable read after that loop is
/// one frame slot every worker shares: the run is refused with `DSE007`
/// naming the variable and both loops, and never prints a value. The
/// serial program prints the reference.
#[test]
fn nested_induction_read_after_its_loop_is_refused() {
    let f = fixture("nested_iv_read_after.cee");
    let (code, stdout, stderr) = dsec(&[&f, "--run", "--threads", "2"]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(!stdout.contains("out_long"), "{stdout}");
    assert!(
        stderr.contains("error[DSE007] 14:14: induction variable `q` of loop `inner`")
            && stderr.contains("in the body of loop `outer`"),
        "{stderr}"
    );
    let (code, stdout, _) = dsec(&[&f, "--run", "--serial"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("out_long: [800080000]"), "{stdout}");
}

/// The paper's Figure 3 stores `m` and `mx` on both arms of one
/// `if`/`else`: the coverage scan keeps those kills, so `check` is clean
/// even under `--strict`.
#[test]
fn figure_3_checks_clean_under_strict() {
    let fig3 = format!("{}/../../examples/fig3.cee", env!("CARGO_MANIFEST_DIR"));
    let (code, stdout, stderr) = dsec(&["check", &fig3, "--strict"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(!stdout.contains("DSE0"), "{stdout}");
}
