//! End-to-end coverage of the backend-verification CLI surface:
//!
//! * `dsec check --backend` text and JSON goldens, clean and under each
//!   seeded sabotage (`DSE010`–`DSE015`), with the 0/1/2 exit-code
//!   contract pinned;
//! * `dsec profile` under the register backend, chosen by flag or by
//!   `DSE_EXEC_BACKEND=reg`: the same loops and iteration counts as the
//!   stack run, and the loop record of nested candidate loops;
//! * `--emit bytecode --exec-backend reg`: the register listing after the
//!   stack one, every instruction with the stack pc it came from;
//! * the VM's `--strict` gate refusing an unverified register translation
//!   and accepting the same translation once the verifier marks it;
//! * a trap inside a fused register instruction reported at the stack pc
//!   the stack backend reports (`indexed_trap.cee`), and the access
//!   counters of a clean run where they were before the fusions.
//!
//! Regenerate goldens after an intentional change with:
//!
//! ```text
//! dsec check fixtures/backend_promote.cee --backend [--sabotage <kind>] [--json]
//! ```

use std::path::PathBuf;
use std::process::Command;

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::IBinOp;
use dse_ir::RInstr;
use dse_runtime::{BackendKind, Vm, VmConfig};

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

/// `(loop, iters)` of every row of a `dsec profile` table, sorted: rows
/// are ordered by wall time, which differs from run to run.
fn profile_rows(stdout: &str) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = stdout
        .lines()
        .skip(1)
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols[0].to_string(), cols[2].to_string())
        })
        .collect();
    rows.sort();
    rows
}

/// Runs `dsec profile` on `examples/pipeline_trace.cee` under the stack
/// backend, then with `extra` arguments and `env`, which pick the register
/// backend: that run must succeed without DSE009 and report the loops
/// and iteration counts the stack run does.
fn profile_under_reg_matches_stack(extra: &[&str], env: &[(&str, &str)]) {
    let prog = format!(
        "{}/../../examples/pipeline_trace.cee",
        env!("CARGO_MANIFEST_DIR")
    );
    let args = ["profile", prog.as_str(), "--threads", "4"];
    let (stack, stderr, code) = run_dsec(&args, &[]);
    assert_eq!(code, 0, "{stderr}");
    let expected = profile_rows(&stack);
    let names: Vec<&str> = expected.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(names, ["(serial)", "`chain`", "`fill`"], "{stack}");
    let argv = [&args[..], extra].concat();
    let (stdout, stderr, code) = run_dsec(&argv, env);
    assert_eq!(code, 0, "{argv:?} {env:?}:\n{stderr}");
    assert!(!stderr.contains("DSE009"), "{stderr}");
    assert_eq!(
        profile_rows(&stdout),
        expected,
        "{argv:?} {env:?}:\n{stdout}"
    );
}

/// `dsec profile --exec-backend reg` profiles the register backend.
#[test]
fn profile_runs_under_an_explicit_register_backend() {
    profile_under_reg_matches_stack(&["--exec-backend", "reg"], &[]);
}

/// `DSE_EXEC_BACKEND=reg` picks the register backend for `dsec profile`
/// too; it is no longer pinned to the stack backend.
#[test]
fn profile_runs_under_the_env_register_backend() {
    profile_under_reg_matches_stack(&[], &[("DSE_EXEC_BACKEND", "reg")]);
}

/// The nested candidate loop of `nested_doacross.cee` runs inline inside
/// the outer loop's iterations: the loop record keeps a cost for each of
/// the 8 outer iterations and none for the 32 nested ones, whose cost is
/// part of those, and `dsec profile` prints `-` for their quantiles.
#[test]
fn nested_loop_costs_stay_with_the_outer_loop() {
    let f = fixture_dir().join("nested_doacross.cee");
    let source = std::fs::read_to_string(&f).unwrap();
    let analysis = Analysis::from_source(&source, VmConfig::default()).unwrap();
    for backend in [BackendKind::Stack, BackendKind::Reg] {
        for nthreads in [1, 2] {
            let t = analysis.transform(OptLevel::Full, nthreads).unwrap();
            let config = VmConfig {
                nthreads,
                backend,
                profile: true,
                ..Default::default()
            };
            let mut vm = Vm::new(t.parallel.clone(), config).unwrap();
            vm.run().unwrap();
            assert_eq!(vm.outputs_int(), [504]);
            let profile = vm.profile();
            let row = |label: &str| {
                let id = t.parallel.loops.iter().position(|l| l.label == label);
                profile
                    .iter()
                    .find(|p| Some(p.loop_id as usize) == id)
                    .unwrap_or_else(|| panic!("`{label}` has a row"))
            };
            let (outer, nested) = (row("outer"), row("nested"));
            let what = format!("{backend:?}, {nthreads} thread(s)");
            assert_eq!(outer.iters, 8, "{what}");
            assert_eq!(outer.costs.iter().flatten().count(), 8, "{what}");
            assert_eq!(nested.iters, 32, "{what}");
            assert!(nested.costs.is_empty(), "{what}");
        }
    }
    let path = f.to_str().unwrap();
    let (stdout, stderr, code) = run_dsec(&["profile", path, "--threads", "2"], &[]);
    assert_eq!(code, 0, "{stderr}");
    let nested = stdout
        .lines()
        .find(|l| l.starts_with("`nested`"))
        .expect("a `nested` row");
    let cols: Vec<&str> = nested.split_whitespace().collect();
    assert_eq!(cols[2], "32", "{nested}");
    assert_eq!(cols[5..8], ["-", "-", "-"], "{nested}");
}

/// `--emit bytecode --exec-backend reg` prints the register translation
/// after the stack listing: as many instruction lines as its header says,
/// each naming a stack pc of the listing above it — only the closing
/// `Unreachable` names the pc one past the end — then the entry map and
/// the window size.
#[test]
fn bytecode_emit_lists_the_register_translation() {
    let f = fixture();
    let (stdout, stderr, code) = run_dsec(
        &[
            &f,
            "--emit",
            "bytecode",
            "--exec-backend",
            "reg",
            "--threads",
            "2",
        ],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    let (stack, reg) = stdout.split_once("-- reg (").expect("a register listing");
    let stack_len = stack.lines().filter(|l| l.starts_with("  ")).count() as u32;
    let (count, body) = reg.split_once(" instrs) --\n").expect("header");
    let count: usize = count.parse().expect("instruction count");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), count + 2, "{reg}");
    for (i, line) in lines[..count].iter().enumerate() {
        let origin: u32 = line
            .split_once("(pc ")
            .and_then(|(_, rest)| rest.split_once(')'))
            .and_then(|(pc, _)| pc.trim().parse().ok())
            .unwrap_or_else(|| panic!("origin pc in {line:?}"));
        if i + 1 == count {
            assert!(line.ends_with("Unreachable"), "{line}");
            assert_eq!(origin, stack_len, "{line}");
        } else {
            assert!(origin < stack_len, "{line}: stack listing has {stack_len}");
        }
    }
    assert!(lines[count].starts_with("entries (stack pc -> reg pc): "));
    assert!(lines[count + 1].starts_with("window registers: "));
}

/// `indexed_trap.cee` traps inside a fused register instruction: a
/// `LoadIdx` (`--in 0`) or an `IBinSext` division (`--in 1`). Both
/// backends must say the same — stdout, the `vm trap at pc N` line, the
/// exit code — serially and at two threads. A request's profiling run is
/// serial, so the program traps only at two threads; the serial program
/// is also run directly at two, where it traps in the same instructions.
#[test]
fn fused_instructions_trap_where_the_stack_backend_does() {
    let f = fixture_dir().join("indexed_trap.cee");
    let path = f.to_str().unwrap();
    let source = std::fs::read_to_string(&f).unwrap();
    for (input, what) in [(0, "invalid load"), (1, "division by zero")] {
        let arg = input.to_string();
        for threads in [&["--serial"][..], &["--threads", "2"]] {
            // (The `[N instructions, …]` line differs: that is the point.)
            let run = |backend| {
                let argv = [path, "--run", "--in", &arg, "--exec-backend", backend];
                let (stdout, stderr, code) = run_dsec(&[&argv[..], threads].concat(), &[]);
                let dsec: Vec<String> = stderr
                    .lines()
                    .filter(|l| l.starts_with("dsec: "))
                    .map(String::from)
                    .collect();
                (stdout, dsec, code)
            };
            let stack = run("stack");
            assert_eq!(run("reg"), stack, "--in {input} {threads:?}");
            let trapped = matches!(&stack.1[..], [line]
                if line.starts_with("dsec: vm trap at pc ") && line.contains(what));
            assert_eq!(
                trapped,
                threads.len() == 2,
                "--in {input} {threads:?}: {stack:?}"
            );
            assert_eq!(stack.2, trapped as i32, "--in {input} {threads:?}");
        }
        let config = VmConfig {
            inputs_int: vec![input],
            ..Default::default()
        };
        let serial = Analysis::from_source(&source, config.clone())
            .unwrap()
            .serial;
        let trap = |backend| {
            let config = VmConfig {
                nthreads: 2,
                backend,
                ..config.clone()
            };
            let err = Vm::new(serial.clone(), config).unwrap().run().unwrap_err();
            (err.pc, err.msg)
        };
        let stack = trap(BackendKind::Stack);
        assert!(stack.1.contains(what), "{stack:?}");
        assert_eq!(
            trap(BackendKind::Reg),
            stack,
            "--in {input}, serial program"
        );
        // The register instruction that trapped is the fused one.
        let rp = dse_ir::regcode::translate(&serial).unwrap();
        let at = rp.origin.iter().position(|&o| o == stack.0);
        let fused = at.map(|at| rp.code[at]);
        assert!(
            matches!(
                (input, fused),
                (0, Some(RInstr::LoadIdx { .. }))
                    | (
                        1,
                        Some(RInstr::IBinSext {
                            op: IBinOp::Div,
                            ..
                        })
                    )
            ),
            "--in {input}: {fused:?}"
        );
    }
}

/// `rotated_loops.cee` runs every loop-header shape the translation
/// rotates into its back-edge, and the shapes it leaves alone: stdout and
/// the exit code are the stack backend's, serially and at two threads, and
/// `dsec profile` counts the same loops and iterations on both backends.
#[test]
fn rotated_loops_run_as_on_the_stack_backend() {
    let f = fixture_dir().join("rotated_loops.cee");
    let path = f.to_str().unwrap();
    for threads in [&["--serial"][..], &["--threads", "2"]] {
        let run = |backend| {
            let argv = [path, "--run", "--exec-backend", backend];
            let (stdout, _, code) = run_dsec(&[&argv[..], threads].concat(), &[]);
            (stdout, code)
        };
        let stack = run("stack");
        assert!(stack.0.starts_with("out_long: ["), "{threads:?}: {stack:?}");
        assert_eq!(stack.1, 0, "{threads:?}");
        assert_eq!(run("reg"), stack, "{threads:?}");
    }
    let profile = |backend| {
        let argv = ["profile", path, "--threads", "2", "--exec-backend", backend];
        let (stdout, stderr, code) = run_dsec(&argv, &[]);
        assert_eq!(code, 0, "{backend}: {stderr}");
        profile_rows(&stdout)
    };
    let stack = profile("stack");
    let names: Vec<&str> = stack.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(names, ["(serial)", "`carried`", "`rows`"], "{stack:?}");
    assert_eq!(profile("reg"), stack);
}

/// The counters a fused access could move, on a clean two-thread run of
/// `backend_promote.cee`, read as at the commit before the indexed and
/// sign-extending fusions: `private_direct` (tid-strided addresses formed
/// — the register backend keeps replicas in registers, so it forms fewer)
/// and `sync_ops`. The stack encoding is untouched, so its `work` is too.
#[test]
fn fusion_leaves_the_access_counters_alone() {
    let f = fixture();
    for (backend, private_direct, work) in [("stack", 40, Some(719)), ("reg", 16, None)] {
        let argv = [&f, "--run", "--threads", "2", "--exec-backend", backend];
        let (stdout, stderr, code) = run_dsec(&[&argv[..], &["--metrics", "-"]].concat(), &[]);
        assert_eq!(code, 0, "{stderr}");
        let doc = stdout.lines().last().expect("a metrics document");
        let totals = dse_telemetry::Json::parse(doc)
            .expect("valid JSON")
            .get("vm")
            .and_then(|vm| vm.get("totals"))
            .cloned()
            .expect("vm totals");
        let count = |name| totals.get(name).and_then(dse_telemetry::Json::as_i64);
        assert_eq!(count("private_direct"), Some(private_direct), "{backend}");
        assert_eq!(count("sync_ops"), Some(16), "{backend}");
        if let Some(work) = work {
            assert_eq!(count("work"), Some(work), "{backend}");
        }
    }
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
