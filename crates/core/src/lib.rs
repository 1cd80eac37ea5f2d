//! # dse-core — General Data Structure Expansion for Multi-threading
//!
//! The paper's primary contribution (Yu, Ko, Li — PLDI 2013), implemented
//! over the `dse-lang`/`dse-ir`/`dse-runtime` substrate:
//!
//! * [`classify`] — access classes over loop-independent dependences
//!   (Definition 4) and the thread-private test (Definition 5).
//! * [`plan`] — expansion/promotion decisions, including the Section 3.4
//!   overhead reductions (alias-based pruning, constant spans).
//! * [`xform`] — the transformation itself: type expansion (Table 1),
//!   pointer promotion with span maintenance (Figures 5/6, Table 3), and
//!   access redirection (Table 2).
//! * [`Analysis`] — the end-to-end driver: profile a program's candidate
//!   loops, classify them, and produce the executables the paper
//!   evaluates: the transformed parallel program (run on N threads, or on
//!   one thread for the Figure 9 overhead study) and the SpiceC-style
//!   runtime-privatization baseline (Figures 10/13).
//!
//! ```
//! use dse_core::{Analysis, OptLevel};
//! use dse_runtime::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), dse_core::DseError> {
//! let src = "
//!     int main() {
//!       int *out; out = malloc(100 * sizeof(int));
//!       int *scratch; scratch = malloc(16 * sizeof(int));
//!       #pragma candidate hot
//!       for (int i = 0; i < 100; i++) {
//!         for (int k = 0; k < 16; k++) { scratch[k] = i + k; }
//!         int s; s = 0;
//!         for (int k = 0; k < 16; k++) { s += scratch[k]; }
//!         out[i] = s;
//!       }
//!       long total; total = 0;
//!       for (int i = 0; i < 100; i++) { total += out[i]; }
//!       out_long(total);
//!       free(out); free(scratch);
//!       return 0;
//!     }";
//! let analysis = Analysis::from_source(src, VmConfig::default())?;
//! // `scratch` is reused every iteration: expansion privatizes it.
//! let t = analysis.transform(OptLevel::Full, 4)?;
//! assert!(t.report.privatized_structures() >= 1);
//! let mut vm = Vm::new(t.parallel, VmConfig { nthreads: 4, ..Default::default() })?;
//! vm.run()?;
//! assert_eq!(vm.outputs_int().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod cache;
pub mod classify;
pub mod hoist;
pub mod phases;
pub mod plan;
pub mod xform;

pub use cache::{ArtifactStore, CacheOutcome, PhaseOutcome, Trace};
pub use classify::{classify_loop, AccessBreakdown, LoopClassification, SiteClass};
pub use phases::{AnalysisArt, Pipeline, RegArt, TransformArt};
pub use plan::{build_plan, ExpansionPlan, LayoutMode, OptLevel, PlanError, PlanInputs};
pub use xform::{expand_program, ExpansionReport, XformError, XformResult};

use dse_depprof::ProfileResult;
use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_lang::ast::Program;
use dse_runtime::VmConfig;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Any failure in the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseError(pub String);

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DseError {}

macro_rules! from_err {
    ($t:ty) => {
        impl From<$t> for DseError {
            fn from(e: $t) -> Self {
                DseError(e.to_string())
            }
        }
    };
}
from_err!(dse_lang::LangError);
from_err!(dse_ir::lower::LowerError);
from_err!(dse_ir::loops::CandidateError);
from_err!(dse_runtime::VmError);
from_err!(dse_ir::RegLowerError);
from_err!(PlanError);
from_err!(XformError);

/// The profiled-and-classified state of one program: everything needed to
/// produce transformed executables at any optimization level and thread
/// count.
pub struct Analysis {
    /// The original typed program.
    pub program: Program,
    /// Serial lowering (with profiler loop marks).
    pub serial: CompiledProgram,
    /// Per-candidate-loop dependence graphs from the profiling run.
    pub profile: ProfileResult,
    /// Per-candidate-loop classifications, parallel to `profile.loops`.
    pub classifications: Vec<LoopClassification>,
    /// Points-to results.
    pub pt: dse_analysis::PointsTo,
    /// Allocation-size facts.
    pub alloc_sizes: HashMap<u32, dse_analysis::consteval::AllocSizeInfo>,
}

/// A transformed program ready to execute.
#[derive(Debug)]
pub struct Transformed {
    /// The transformed AST (inspectable).
    pub program: Program,
    /// Parallel lowering: candidate loops scheduled per their
    /// classification (DOALL / DOACROSS with sync windows).
    pub parallel: CompiledProgram,
    /// Expansion accounting (Table 5's privatized-structure counts).
    pub report: ExpansionReport,
    /// Chosen mode per loop label.
    pub modes: HashMap<String, ParMode>,
    /// The expansion plan the transform executed (inspectable; consumed by
    /// the `dse-verify` invariant checker).
    pub plan: ExpansionPlan,
    /// Per candidate-loop label: the DOACROSS `Wait`/`Post` window over
    /// transformed top-level body statement indices.
    pub sync_windows: HashMap<String, Option<(usize, usize)>>,
    /// Transformed expression id → original expression id for rebuilt
    /// access/allocation nodes (see [`XformResult::eid_provenance`]).
    pub eid_provenance: HashMap<u32, u32>,
}

impl Analysis {
    /// Compiles `source`, profiles it under `profile_config` (which supplies
    /// the profiling inputs), and classifies every candidate loop.
    ///
    /// # Errors
    ///
    /// Propagates frontend, lowering and VM errors.
    pub fn from_source(source: &str, profile_config: VmConfig) -> Result<Analysis, DseError> {
        let (program, _) = phases::parse_phase(source)?;
        let (serial, _) = phases::lower_phase(&program)?;
        let (profile, _) = phases::profile_phase(serial.clone(), profile_config)?;
        let (classified, _) = phases::classify_phase(&program, &profile);
        Ok(phases::assemble_analysis(
            program,
            serial,
            profile,
            classified,
            Trace::new(),
        ))
    }

    /// The classification for a loop label.
    pub fn classification(&self, label: &str) -> Option<&LoopClassification> {
        self.classifications.iter().find(|c| c.label == label)
    }

    /// Builds the expansion plan at the given optimization level and
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn plan(&self, opt: OptLevel, nthreads: u32) -> Result<ExpansionPlan, DseError> {
        self.plan_with_layout(opt, nthreads, LayoutMode::Bonded)
    }

    /// Like [`Analysis::plan`] with an explicit replica layout.
    ///
    /// # Errors
    ///
    /// Propagates planning failures — in particular, the interleaved
    /// layout's structural limitations (paper Section 3.1).
    pub fn plan_with_layout(
        &self,
        opt: OptLevel,
        nthreads: u32,
        layout: LayoutMode,
    ) -> Result<ExpansionPlan, DseError> {
        let loops: Vec<_> = self
            .profile
            .loops
            .iter()
            .zip(&self.classifications)
            .collect();
        Ok(build_plan(&PlanInputs {
            program: &self.program,
            sites: &self.serial.sites,
            loops,
            pt: &self.pt,
            alloc_sizes: &self.alloc_sizes,
            opt,
            nthreads,
            heap_localize: false,
            layout,
        })?)
    }

    /// Builds the runtime-privatization baseline plan: named variables are
    /// privatized statically (like the expansion), heap accesses are routed
    /// through the `__localize` runtime (SpiceC's copy-in/commit scheme).
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn baseline_plan(&self, nthreads: u32) -> Result<ExpansionPlan, DseError> {
        let loops: Vec<_> = self
            .profile
            .loops
            .iter()
            .zip(&self.classifications)
            .collect();
        Ok(build_plan(&PlanInputs {
            program: &self.program,
            sites: &self.serial.sites,
            loops,
            pt: &self.pt,
            alloc_sizes: &self.alloc_sizes,
            opt: OptLevel::Full,
            nthreads,
            heap_localize: true,
            layout: LayoutMode::Bonded,
        })?)
    }

    /// Transforms the program (expansion + promotion + redirection) and
    /// lowers it with parallel scheduling for `nthreads` workers.
    ///
    /// # Errors
    ///
    /// Propagates planning, transformation and lowering failures.
    pub fn transform(&self, opt: OptLevel, nthreads: u32) -> Result<Transformed, DseError> {
        self.transform_with_layout(opt, nthreads, LayoutMode::Bonded)
    }

    /// Like [`Analysis::transform`] with an explicit replica layout.
    ///
    /// # Errors
    ///
    /// Propagates planning, transformation and lowering failures.
    pub fn transform_with_layout(
        &self,
        opt: OptLevel,
        nthreads: u32,
        layout: LayoutMode,
    ) -> Result<Transformed, DseError> {
        let plan = self.plan_with_layout(opt, nthreads, layout)?;
        self.apply_plan(plan, opt)
    }

    /// The xform phase: executes an already-built expansion plan
    /// (expansion + promotion + redirection) and lowers the result with
    /// parallel scheduling. `opt` only selects the redirection codegen
    /// here — `OptLevel::None` also means naive (non-strength-reduced)
    /// addressing, per Figure 9a.
    ///
    /// # Errors
    ///
    /// Propagates transformation and lowering failures.
    pub fn apply_plan(&self, plan: ExpansionPlan, opt: OptLevel) -> Result<Transformed, DseError> {
        let sync_eids = self.shared_carried_eids();
        let result = expand_program(&self.program, &plan, &sync_eids)?;
        let parallel = self.lower_parallel(&result.program, &result.sync_windows, opt)?;
        let modes = self
            .classifications
            .iter()
            .map(|cls| (cls.label.clone(), cls.mode))
            .collect();
        Ok(Transformed {
            program: result.program,
            parallel,
            report: result.report,
            modes,
            plan,
            sync_windows: result.sync_windows,
            eid_provenance: result.eid_provenance,
        })
    }

    /// Lowers a transformed program the way [`Analysis::apply_plan`] does:
    /// each candidate loop scheduled per its classification, DOACROSS loops
    /// ordered by `sync_windows` (top-level statement indices of the
    /// transformed body). Public so a test can re-lower a program it has
    /// corrupted on purpose.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures.
    pub fn lower_parallel(
        &self,
        program: &Program,
        sync_windows: &HashMap<String, Option<(usize, usize)>>,
        opt: OptLevel,
    ) -> Result<CompiledProgram, DseError> {
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            naive_redirection: opt == OptLevel::None,
            ..Default::default()
        };
        for cls in &self.classifications {
            opts.par.insert(
                cls.label.clone(),
                ParLoopSpec {
                    mode: cls.mode,
                    sync_window: sync_windows.get(&cls.label).copied().flatten(),
                },
            );
        }
        Ok(dse_ir::lower_program(program, &opts)?)
    }

    /// Produces the runtime-privatization baseline executable (the
    /// SpiceC-style scheme of Section 4.2.1): named private variables are
    /// privatized statically, private heap accesses call into the
    /// `__localize` runtime (copy-in on first touch, address translation
    /// per access, commit at loop end). Candidate loops are scheduled like
    /// the transformed program.
    ///
    /// # Errors
    ///
    /// Propagates planning, transformation and lowering failures.
    pub fn baseline_parallel(&self, nthreads: u32) -> Result<Transformed, DseError> {
        let plan = self.baseline_plan(nthreads)?;
        self.apply_plan(plan, OptLevel::Full)
    }

    /// Per-candidate-loop profile stats in telemetry form (for
    /// [`dse_telemetry::RunMetrics`]).
    pub fn loop_stats(&self) -> Vec<dse_telemetry::LoopStat> {
        self.profile
            .loops
            .iter()
            .map(|l| dse_telemetry::LoopStat {
                loop_id: l.loop_id,
                label: l.label.clone(),
                iterations: l.iterations,
                accesses: l.total_accesses,
                instructions: l.instructions,
            })
            .collect()
    }

    /// Per loop label: eids of shared accesses involved in loop-carried
    /// dependences (the ordered section for DOACROSS).
    pub fn shared_carried_eids(&self) -> HashMap<String, HashSet<u32>> {
        let mut out = HashMap::new();
        for cls in &self.classifications {
            let eids: HashSet<u32> = cls
                .shared_carried_sites
                .iter()
                .map(|s| self.serial.sites.info(*s).eid)
                .filter(|&e| e != dse_lang::ast::NO_EID)
                .collect();
            out.insert(cls.label.clone(), eids);
        }
        out
    }
}
