//! # dse-ir — mid-level IR and bytecode for the expansion compiler
//!
//! This crate is the GIMPLE stand-in of the reproduction: it lowers a typed
//! Cee AST (from [`dse_lang`]) to a stack-based **bytecode** executed by the
//! `dse-runtime` VM, while assigning every static memory access a stable
//! **site id** keyed by the AST expression id. Those sites are the vertices
//! of the paper's loop-level data dependence graph (Definition 1).
//!
//! Main entry points:
//!
//! * [`lower::lower_program`] — compile a program; [`lower::LowerOptions`]
//!   selects *serial* lowering (the original program, with loop markers for
//!   the dependence profiler) or *parallel* lowering (candidate loops become
//!   [`bytecode::Instr::ParLoop`] regions with DOALL/DOACROSS scheduling and
//!   post/wait synchronization).
//! * [`loops::find_candidate_loops`] — discover and validate the loops
//!   marked `#pragma candidate`.
//! * [`sites::SiteTable`] — the static access sites of the compiled program.

pub mod bytecode;
pub mod disasm;
pub mod loops;
pub mod lower;
pub mod regcode;
pub mod sites;

pub use bytecode::{CompiledProgram, Instr};
pub use loops::{CandidateLoop, ParMode};
pub use lower::{lower_program, LowerError, LowerMode, LowerOptions, ParLoopSpec};
pub use regcode::{
    access_near, analyze_stack, for_each_dst, for_each_src, global_replicas, promotion_plan,
    promotion_report, pure_dst, AccessShape, Kept, Place, PromotedPlace, PromotionPlan, RInstr,
    Reg, RegLowerError, RegProgram, Slot, StackFlow, Ty, Why, NO_OWNER,
};
pub use sites::{AccessKind, SiteId, SiteInfo, SiteTable, NO_SITE};
