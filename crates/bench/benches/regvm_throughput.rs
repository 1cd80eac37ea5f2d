//! Raw loop throughput of the register backend vs the stack reference.
//!
//! Three serial hot kernels run to completion under each backend and the
//! speedup is printed (3.3–3.8x when last recorded, EXPERIMENTS.md). Run with
//! `DSE_BENCH_DUMP=1` to also print the register translation of each
//! kernel — the fastest way to see whether the translator fused the loop
//! body or left stack-shuffle traffic behind.

use dse_bench::harness;
use dse_ir::bytecode::CompiledProgram;
use dse_ir::lower::LowerOptions;
use dse_runtime::{BackendKind, Vm, VmConfig};

const KERNELS: &[(&str, &str)] = &[
    (
        "int_arith",
        "int main() {
            long s; s = 1;
            for (long i = 0; i < 4000000; i++) {
                s = s + i * 3 + (s >> 7);
            }
            return s % 251; }",
    ),
    (
        "float_mac",
        "int main() {
            float acc; acc = 0.0;
            float x; x = 1.0;
            for (int i = 0; i < 3000000; i++) {
                acc = acc + x * 1.0000001;
                x = x * 0.9999999 + 0.0000002;
            }
            return acc > 0.0 ? 0 : 1; }",
    ),
    (
        "mem_stream",
        "int main() {
            int *a; a = malloc(4096 * sizeof(int));
            for (int i = 0; i < 4096; i++) { a[i] = i; }
            int s; s = 0;
            for (int r = 0; r < 700; r++) {
                for (int i = 0; i < 4096; i++) { s += a[i]; }
            }
            free(a);
            return s % 97; }",
    ),
];

fn compile(src: &str) -> CompiledProgram {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    dse_ir::lower_program(&ast, &LowerOptions::default()).expect("lowering")
}

fn vm(compiled: &CompiledProgram, backend: BackendKind) -> Vm {
    Vm::new(
        compiled.clone(),
        VmConfig {
            nthreads: 1,
            backend,
            max_instructions: u64::MAX,
            ..Default::default()
        },
    )
    .expect("vm")
}

fn main() {
    let dump = std::env::var("DSE_BENCH_DUMP").is_ok();
    let g = harness::group("regvm_throughput");
    for (name, src) in KERNELS {
        let compiled = compile(src);
        if dump {
            let rp = dse_ir::regcode::translate(&compiled).expect("translate");
            println!(
                "-- {name}: {} stack / {} reg instrs --",
                compiled.code.len(),
                rp.code.len()
            );
            for (i, instr) in rp.code.iter().enumerate() {
                println!("{i:>4}  {instr}");
            }
        }
        let mut stack_vm = vm(&compiled, BackendKind::Stack);
        let mut reg_vm = vm(&compiled, BackendKind::Reg);
        let stack = g.bench(&format!("{name}/stack"), || {
            stack_vm.run().expect("run");
        });
        let reg = g.bench(&format!("{name}/reg"), || {
            reg_vm.run().expect("run");
        });
        println!(
            "regvm_throughput/{name:<28} speedup {:>6.2}x (reg vs stack)",
            stack.as_secs_f64() / reg.as_secs_f64()
        );
    }
}
