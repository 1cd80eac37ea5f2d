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
    cmd.args(args).arg(file);
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
        &["--run", "--serial", "--exec-backend", "stack"],
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

/// `--emit report` under the register backend says, region by region,
/// what the translation keeps in registers and why the rest is in memory.
/// The lines exist under that backend only, and no `--emit` travels over
/// `--daemon`: the refusal is the same words for this one as for any.
#[test]
fn emit_report_explains_registers_under_the_register_backend_only() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/backend_promote.cee");
    let report = ["--emit", "report", "--threads", "2"];
    let reg = [&report[..], &["--exec-backend", "reg"]].concat();
    let (code, stdout, _) = dsec(&reg, &file, None);
    assert_eq!(code, 0);
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("  registers in "))
        .collect();
    assert_eq!(lines.len(), 4, "one line per region:\n{stdout}");
    assert_eq!(
        lines[2],
        "  registers in main: 3 frame promoted, nothing hoisted (no invariant value)"
    );
    // `scale` dispatches the loop and promotes like any function.
    assert!(
        lines[1].starts_with(
            "  registers in scale: 4 frame promoted, nothing hoisted (no loop); in memory: `cell` ("
        ),
        "{stdout}"
    );
    let body = lines[3];
    for part in [
        "registers in body of `scale`: 1 tid, 1 read-only promoted, nothing hoisted (no loop)",
        "`cell` (indexed or address taken at 26:",
        "`sum` (stored by body of `scale` at 27:5)",
        "`scratch` (global replica at 25:",
    ] {
        assert!(body.contains(part), "`{part}` missing from: {body}");
    }

    let stack = [&report[..], &["--exec-backend", "stack"]].concat();
    let (code, stdout, _) = dsec(&stack, &file, None);
    assert_eq!(code, 0);
    assert!(!stdout.contains("registers in"), "stack backend:\n{stdout}");

    let nowhere = std::env::temp_dir().join("dsec-parity-no-such.sock");
    let refused = dsec(&reg, &file, Some(&nowhere));
    assert_eq!(refused.0, 2, "{refused:?}");
    assert_eq!(
        refused,
        dsec(&["--emit", "source"], &file, Some(&nowhere)),
        "every --emit is refused over --daemon the same way"
    );
}

/// `--emit report` names, per promoted pointer type, the allocation site
/// and the reason that forced the promotion, and counts the redirections
/// derived once per assignment instead of once per access. (The same
/// fixture goes over the daemon transport in
/// `every_fixture_answers_the_same_over_both_transports`; `--emit` itself
/// does not travel, see above.)
#[test]
fn emit_report_says_why_each_pointer_is_fat() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/span_reasons.cee");
    let (code, stdout, _) = dsec(&["--emit", "report", "--threads", "2"], &file, None);
    assert_eq!(code, 0);
    for line in [
        "  fat pointer types:          3",
        "    `int*`: passed to the realloc of an expanded structure at 16:13",
        "    `long*`: reaches objects of different sizes: 16 bytes allocated at 29:25, \
         32 bytes allocated at 29:53",
        "    `short*`: reaches an allocation of runtime size at 10:19",
        "  redirections hoisted:       10 (1 re-derived)",
    ] {
        assert!(
            stdout.lines().any(|l| l == line),
            "`{line}` missing:\n{stdout}"
        );
    }
    // The list nodes are allocated by one `sizeof`: `struct N*` is not there.
    assert!(!stdout.contains("struct N"), "{stdout}");

    // Without constant spans every private pointer is fat, and says so.
    let noconst = ["--emit", "report", "--threads", "2", "--opt", "noconst"];
    let (code, stdout, _) = dsec(&noconst, &file, None);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("`struct N*`: constant spans are not looked for at this --opt"),
        "{stdout}"
    );
}
