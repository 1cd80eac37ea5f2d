//! What a warm `run` looks up: the register translation of the program it
//! executes, under `H("reglower", code_fingerprint(program))` whichever
//! path made it, and the profile of its own program, never that of one
//! whose listing merely matches.

use std::path::PathBuf;

use dse_core::phases::code_fingerprint;
use dse_core::{ArtifactStore, CacheOutcome, PhaseOutcome};
use dse_ir::bytecode::CompiledProgram;
use dse_runtime::VmConfig;
use dse_server::{execute, Cmd, Outcome, Request, Server, ServerConfig};
use dse_telemetry::{ContentHash, ContentHasher};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).expect("fixture")
}

fn run(source: &str, serial: bool) -> Request {
    Request {
        source: Some(source.to_string()),
        threads: 2,
        serial,
        ..Request::new("warm", Cmd::Run)
    }
}

/// The key the sabotage test in `cli_backend.rs` seeds its translation
/// under.
fn reglower_key(program: &CompiledProgram) -> ContentHash {
    ContentHasher::new("reglower")
        .hash(code_fingerprint(program))
        .finish()
}

fn reglower(out: &Outcome) -> &PhaseOutcome {
    assert!(out.failure.is_none(), "{:?}", out.failure);
    out.trace
        .iter()
        .find(|p| p.phase == "reglower")
        .expect("a register run looks up its translation")
}

#[test]
fn a_warm_run_finds_the_translation_under_the_programs_fingerprint() {
    let source = fixture("backend_promote.cee");
    let store = ArtifactStore::new();
    let cold = execute(&store, &run(&source, false), VmConfig::default());
    let warm = execute(&store, &run(&source, false), VmConfig::default());
    assert_eq!(reglower(&cold).outcome, CacheOutcome::Miss);
    assert_eq!(reglower(&warm).outcome, CacheOutcome::Hit);
    let parallel = &warm
        .transformed
        .as_ref()
        .expect("transformed")
        .transformed
        .parallel;
    assert_eq!(reglower(&warm).key, reglower_key(parallel));
    assert_eq!(reglower(&cold).key, reglower(&warm).key);
}

#[test]
fn a_warm_serial_run_finds_the_translation_a_cold_one_made() {
    let source = fixture("backend_promote.cee");
    let store = ArtifactStore::new();
    let cold = execute(&store, &run(&source, true), VmConfig::default());
    let warm = execute(&store, &run(&source, true), VmConfig::default());
    assert!(warm.transformed.is_none(), "`--serial` runs the original");
    assert_eq!(reglower(&cold).outcome, CacheOutcome::Miss);
    assert_eq!(reglower(&warm).outcome, CacheOutcome::Hit);
    assert_eq!(reglower(&cold).key, reglower(&warm).key);
    let serial = &warm.analysis.as_ref().expect("analysis").analysis.serial;
    assert_eq!(reglower(&warm).key, reglower_key(serial));
}

/// `stride0.cee` differs from `stride1.cee` only in a global initializer,
/// which the listing does not show. Served second by one daemon, it must
/// be profiled on its own (DOACROSS, not `stride1.cee`'s DOALL) and print
/// what its serial run prints.
#[test]
fn a_program_differing_only_in_a_global_prints_its_serial_answer() {
    let server = Server::new(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let first = server.handle(&run(&fixture("stale_profile/stride1.cee"), false));
    assert!(first.ok, "{:?}", first.error);
    let source = fixture("stale_profile/stride0.cee");
    let second = server.handle(&run(&source, false));
    assert!(second.ok, "{:?}", second.error);
    let profile = second.phases.iter().find(|p| p.phase == "profile");
    assert_eq!(profile.map(|p| p.cache.as_str()), Some("miss"));
    let serial = execute(
        &ArtifactStore::new(),
        &run(&source, true),
        VmConfig::default(),
    );
    let (vm, _) = serial.run.expect("the serial run finished");
    assert_eq!(vm.outputs_int(), [400_000]);
    assert_eq!(second.out_long, vm.outputs_int());
}
