//! End-to-end coverage of the backend-verification CLI surface:
//!
//! * `dsec check --backend` text and JSON goldens, clean and under each
//!   seeded sabotage (`DSE010`–`DSE015`), with the 0/1/2 exit-code
//!   contract pinned;
//! * `dsec profile` refusing the register backend (`DSE009`): explicit
//!   `--exec-backend reg` is a usage error, the `DSE_EXEC_BACKEND=reg`
//!   ambient default downgrades to a stderr warning plus a stack-pinned
//!   run;
//! * the VM's `--strict` gate refusing an unverified register translation
//!   and accepting the same translation once the verifier marks it.
//!
//! Regenerate goldens after an intentional change with:
//!
//! ```text
//! dsec check fixtures/backend_promote.cee --backend [--sabotage <kind>] [--json]
//! ```

use std::path::PathBuf;
use std::process::Command;

use dse_core::Analysis;
use dse_runtime::{Vm, VmConfig};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture() -> String {
    fixture_dir()
        .join("backend_promote.cee")
        .to_str()
        .unwrap()
        .to_string()
}

fn run_dsec(args: &[&str], env: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsec"));
    cmd.args(args).env_remove("DSE_EXEC_BACKEND");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn dsec");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code().expect("exit code"),
    )
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture_dir().join(name)).unwrap()
}

#[test]
fn backend_check_clean_matches_goldens() {
    let f = fixture();
    let (stdout, _, code) = run_dsec(&["check", &f, "--backend"], &[]);
    assert_eq!(stdout, golden("backend_promote.expected"));
    assert_eq!(code, 0);
    let (stdout, _, code) = run_dsec(&["check", &f, "--backend", "--json"], &[]);
    assert_eq!(stdout, golden("backend_promote.expected.json"));
    assert_eq!(code, 0);
}

#[test]
fn backend_sabotages_match_goldens_and_exit_one() {
    let f = fixture();
    for kind in dse_verify::sabotage::ALL {
        let name = kind.name();
        let (stdout, _, code) = run_dsec(&["check", &f, "--backend", "--sabotage", name], &[]);
        assert_eq!(
            stdout,
            golden(&format!("backend_promote.sabotage-{name}.expected")),
            "{name}: text golden drifted"
        );
        assert_eq!(code, 1, "{name}: sabotage must exit 1");
        // The finding carries exactly the expected DSE code.
        assert!(
            stdout.contains(&format!("error[{}]", kind.expected_code())),
            "{name}: expected {} in:\n{stdout}",
            kind.expected_code()
        );
        let (json_out, _, code) = run_dsec(
            &["check", &f, "--backend", "--sabotage", name, "--json"],
            &[],
        );
        assert_eq!(
            json_out,
            golden(&format!("backend_promote.sabotage-{name}.expected.json")),
            "{name}: JSON golden drifted"
        );
        assert_eq!(code, 1);
        let parsed = dse_telemetry::Json::parse(json_out.trim()).expect("valid JSON");
        let errors = parsed
            .get("counts")
            .and_then(|c| c.get("errors"))
            .and_then(dse_telemetry::Json::as_i64)
            .unwrap();
        assert!(errors > 0, "{name}: JSON counts must show errors");
    }
}

#[test]
fn sabotage_flag_contract() {
    let f = fixture();
    // --sabotage without --backend is a usage error.
    let (_, _, code) = run_dsec(&["check", &f, "--sabotage", "skip-sext"], &[]);
    assert_eq!(code, 2);
    // Unknown kinds are usage errors.
    let (_, stderr, code) = run_dsec(&["check", &f, "--backend", "--sabotage", "nope"], &[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown --sabotage"));
}

#[test]
fn profile_rejects_explicit_register_backend_with_dse009() {
    let f = fixture();
    let (_, stderr, code) = run_dsec(&["profile", &f, "--exec-backend", "reg"], &[]);
    assert_eq!(code, 2, "explicit reg profiling is a usage error");
    assert!(
        stderr.contains("error[DSE009]"),
        "stderr must carry the DSE009 code:\n{stderr}"
    );
    assert!(
        stderr.contains("hint:"),
        "stderr must carry a hint:\n{stderr}"
    );
}

#[test]
fn profile_pins_env_register_backend_to_stack_with_warning() {
    let f = fixture();
    let (stdout, stderr, code) = run_dsec(&["profile", &f], &[("DSE_EXEC_BACKEND", "reg")]);
    assert_eq!(
        code, 0,
        "env-selected reg downgrades to a warning:\n{stderr}"
    );
    assert!(
        stderr.contains("warning[DSE009]"),
        "stderr must warn about the pin:\n{stderr}"
    );
    assert!(stdout.contains("loop"), "profile table still prints");
}

#[test]
fn strict_vm_refuses_unverified_translation_and_accepts_verified() {
    let source = std::fs::read_to_string(fixture()).unwrap();
    let analysis = Analysis::from_source(&source, VmConfig::default()).unwrap();
    let rp = std::sync::Arc::new(
        dse_ir::regcode::translate(&analysis.serial).expect("fixture translates"),
    );
    let strict = VmConfig {
        strict: true,
        ..Default::default()
    };
    let err = Vm::with_reg(analysis.serial.clone(), rp.clone(), strict.clone())
        .err()
        .expect("strict must refuse an unverified translation");
    assert!(
        err.to_string().contains("DSE010-DSE015"),
        "refusal names the verification codes: {err}"
    );
    // A clean verification marks the translation; strict then accepts it.
    let report = dse_verify::check_backend(&analysis.serial, &rp);
    assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    rp.mark_verified();
    let mut vm = Vm::with_reg(analysis.serial.clone(), rp, strict)
        .expect("strict accepts a verified translation");
    vm.run().expect("fixture runs");
    // Differential check against the reference stack interpreter.
    let mut reference = Vm::new(analysis.serial.clone(), VmConfig::default()).unwrap();
    reference.run().expect("reference runs");
    assert_eq!(vm.outputs_int(), reference.outputs_int());
}

/// The whole pipeline classifies both loops of `nested_doacross.cee`
/// DOACROSS; `dsec --run` returns with the serial result at every thread
/// count on both backends (it used to spin in the outer loop's `Wait`).
#[test]
fn nested_doacross_loops_run_to_completion() {
    let f = fixture_dir().join("nested_doacross.cee");
    for backend in ["stack", "reg"] {
        for threads in ["1", "2", "4"] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_dsec"))
                .arg(&f)
                .args(["--run", "--threads", threads, "--exec-backend", backend])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn dsec");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while child.try_wait().expect("try_wait").is_none() {
                if std::time::Instant::now() > deadline {
                    child.kill().expect("kill");
                    panic!("{backend}, {threads} thread(s): dsec --run hangs");
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let out = child.wait_with_output().expect("output");
            assert!(out.status.success(), "{backend}, {threads} thread(s)");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                "out_long: [504]\n",
                "{backend}, {threads} thread(s)"
            );
        }
    }
}
