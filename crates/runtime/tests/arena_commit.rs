//! A `Vm` costs what it touches: the arena is one zeroed allocation the
//! kernel commits page by page on first touch, so `mem_bytes` bounds the
//! address space, not resident memory.
//!
//! One test in a binary of its own, so no sibling test allocates beside the
//! measurement. No wall-time assertion; the RSS bound leaves room for
//! transparent huge pages rounding each touched region up to 2 MiB.
#![cfg(target_os = "linux")]

use dse_ir::lower::LowerOptions;
use dse_runtime::{Value, Vm, VmConfig};

/// `VmRSS` of this process in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmRSS:")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .expect("a `VmRSS: <n> kB` line")
}

#[test]
fn a_large_arena_commits_only_what_the_run_touches() {
    // Touches all three segments: a global, a stack local, a heap block.
    let src = "long g;
               int main() {
                 long local; local = 40;
                 g = 2;
                 long *p; p = malloc(4096 * sizeof(long));
                 p[4095] = local + g;
                 long r; r = p[4095];
                 free(p);
                 return r; }";
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let compiled = dse_ir::lower_program(&ast, &LowerOptions::default()).expect("lowering");
    let config = VmConfig {
        mem_bytes: 512 << 20,
        ..Default::default()
    };

    let before = rss_kib();
    let mut vm = Vm::new(compiled, config).expect("vm");
    let report = vm.run().expect("run");
    let grown_mib = rss_kib().saturating_sub(before) / 1024;

    assert_eq!(report.return_value, Some(Value::I(42)));
    assert!(
        grown_mib < 32,
        "a 512 MiB arena made VmRSS grow by {grown_mib} MiB; it must commit on touch"
    );
}
