//! Execution backends: which encoding of the program a [`crate::Vm`] runs.
//!
//! The stack interpreter (`Vm::exec_stack`) is the *reference*
//! backend — it executes the stack bytecode the lowering emits, which is
//! also what the dependence profiler attributes sites to. The register
//! backend (`Vm::exec_reg`) executes the same program through the
//! register translation in [`dse_ir::regcode`], over a flat per-thread
//! register file. Both call [`crate::ops`] for what an instruction means,
//! so they differ only in where operands live and in raw loop throughput;
//! the differential suite in `crates/workloads` checks the observable
//! equivalence end to end.
//!
//! Both the master (`Vm::run`) and every pool worker dispatch through
//! `Vm::exec`, which matches on the VM's `Backend` — so one flag
//! switches the encoding for serial code, inlined loops, and all parallel
//! schedules at once.

use dse_ir::RegProgram;
use std::sync::Arc;

/// Which execution backend a [`crate::VmConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The reference stack interpreter.
    #[default]
    Stack,
    /// The register interpreter.
    Reg,
}

impl BackendKind {
    /// Parses a backend name as accepted by `--exec-backend`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "stack" => Some(BackendKind::Stack),
            "reg" | "register" => Some(BackendKind::Reg),
            _ => None,
        }
    }

    /// The default backend: `DSE_EXEC_BACKEND` if set to a valid name
    /// (`stack`/`reg`), else [`BackendKind::Stack`]. Lets CI run the whole
    /// suite under the register backend without threading a flag through
    /// every test.
    pub fn from_env() -> BackendKind {
        match std::env::var("DSE_EXEC_BACKEND") {
            Ok(s) => BackendKind::parse(&s).unwrap_or(BackendKind::Stack),
            Err(_) => BackendKind::Stack,
        }
    }

    /// The `--exec-backend` spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Stack => "stack",
            BackendKind::Reg => "reg",
        }
    }
}

/// The encoding a built [`crate::Vm`] executes: [`BackendKind`] plus what
/// the register interpreter needs to run.
pub(crate) enum Backend {
    /// The reference stack interpreter over `CompiledProgram::code`.
    Stack,
    /// The register interpreter over a translated module.
    Reg(Arc<RegProgram>),
}
