//! Standalone/daemon parity: `dsec <args>` and `dsec <args> --daemon
//! <sock>` are two transports for one request path, so for every fixture
//! and every mode the daemon supports they must print the same stdout,
//! the same `dsec:` lines on stderr, and exit with the same code.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// (exit code, stdout, `dsec:`-prefixed stderr lines): the bracketed run
/// statistics only the in-process transport can print are not compared.
fn dsec(args: &[&str], file: &Path, sock: Option<&Path>) -> (i32, String, Vec<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsec"));
    cmd.args(args).arg(file).env_remove("DSE_EXEC_BACKEND");
    if let Some(sock) = sock {
        cmd.arg("--daemon").arg(sock);
    }
    let out = cmd.output().expect("spawn dsec");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr
            .lines()
            .filter(|l| l.starts_with("dsec:"))
            .map(str::to_string)
            .collect(),
    )
}

#[test]
fn every_fixture_answers_the_same_over_both_transports() {
    let sock = std::env::temp_dir().join(format!("dsec-parity-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--socket")
        .arg(&sock)
        .env_remove("DSE_EXEC_BACKEND")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(
            daemon.try_wait().expect("try_wait").is_none(),
            "dsed exited early"
        );
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cee"))
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 6, "fixtures moved with the tests");

    const MODES: [&[&str]; 4] = [
        &["--run"],
        &["--run", "--serial"],
        &["--run", "--exec-backend", "reg", "--strict"],
        &["check", "--strict"],
    ];
    let mut failures = 0;
    for file in &fixtures {
        for args in MODES {
            let alone = dsec(args, file, None);
            let served = dsec(args, file, Some(&sock));
            assert_eq!(
                alone,
                served,
                "dsec {args:?} {}: standalone (left) vs --daemon (right)",
                file.display()
            );
            failures += (alone.0 != 0) as usize;
        }
    }
    assert!(failures > 0, "the fixtures cover a failing request");

    // `shutdown` has no dsec flag; any client can send it.
    use std::io::Write;
    let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    writeln!(conn, r#"{{"cmd":"shutdown"}}"#).expect("send shutdown");
    let status = daemon.wait().expect("dsed exit");
    assert!(status.success(), "dsed shutdown status {status}");
}
