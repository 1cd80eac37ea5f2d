//! The pipeline split into explicit, independently cacheable phases.
//!
//! One function per analysis phase — parse, lower, profile, classify —
//! each returning its artifact plus the integer size [`PhaseStats`] the phase
//! record carries. [`Analysis::from_source`] composes them directly (and
//! drops the stats), while [`Pipeline`] composes them, and plan, xform and
//! reglower, through a shared [`ArtifactStore`] keyed by content hashes.
//! The store times each phase, once, and appends its
//! [`crate::PhaseOutcome`] to the request's [`Trace`]:
//!
//! ```text
//! parse    key = H("parse", source)
//! lower    key = H("lower", ast_hash)             ast_hash    = H(printed AST)
//! profile  key = H("profile", code_hash, inputs)  code_hash   = H(disassembly, tables)
//! classify key = H("classify", ast, code, prof)   prof_hash   = H(canonical DDG summary)
//! plan     key = H("plan", classify_key, opt, threads, baseline)
//! xform    key = H("xform", plan_key)
//! reglower key = H("reglower", code_hash of the program it translates)
//! verify   key = H("verify", xform_key)           (dse-verify adds this layer)
//! regverify key = H("regverify", reglower_key)    (backend verification, dse-verify)
//! ```
//!
//! `code_hash` is [`code_fingerprint`]: the disassembly plus every table
//! the listing leaves out (global initializers, loop records, sites,
//! allocation sites, struct layouts). Each program is rendered once per
//! artifact: the lower phase fingerprints the serial program
//! ([`AnalysisArt::code_hash`]), and a transformed program fingerprints
//! itself on its first register run ([`TransformArt::code_hash`]), so a
//! warm `run` renders nothing.
//!
//! Downstream keys chain through *content* hashes of the upstream
//! artifacts, not through the raw source hash — that gives early cutoff: a
//! comment-only edit re-parses, rediscovers the same `ast_hash`, and every
//! later phase is a cache hit.

use crate::cache::{ArtifactStore, PhaseStats, Trace};
use crate::classify::{classify_loop, LoopClassification};
use crate::plan::{ExpansionPlan, OptLevel};
use crate::{Analysis, DseError, Transformed};
use dse_depprof::ProfileResult;
use dse_ir::bytecode::{CompiledProgram, InitValue};
use dse_ir::loops::ParMode;
use dse_lang::ast::Program;
use dse_lang::fasthash::HashMap;
use dse_runtime::VmConfig;
use dse_telemetry::hash::{ContentHash, ContentHasher};
use std::sync::{Arc, OnceLock};

/// Everything the classify phase produces beyond the classifications
/// themselves: the points-to results and allocation-size facts the planner
/// consumes.
pub struct Classified {
    /// Per-candidate-loop classifications, parallel to the profile's loops.
    pub classifications: Vec<LoopClassification>,
    /// Points-to results.
    pub pt: dse_analysis::PointsTo,
    /// Allocation-size facts.
    pub alloc_sizes: HashMap<u32, dse_analysis::consteval::AllocSizeInfo>,
}

/// Phase 1: source text → typed AST.
///
/// # Errors
///
/// Propagates frontend errors.
pub fn parse_phase(source: &str) -> Result<(Program, PhaseStats), DseError> {
    let program = dse_lang::compile_to_ast(source)?;
    let stats = [
        ("source_bytes", source.len() as i64),
        ("functions", program.functions.len() as i64),
    ]
    .into();
    Ok((program, stats))
}

/// Phase 2: typed AST → serial bytecode (with profiler loop marks).
///
/// # Errors
///
/// Propagates lowering errors.
pub fn lower_phase(program: &Program) -> Result<(CompiledProgram, PhaseStats), DseError> {
    let serial = dse_ir::lower_program(program, &dse_ir::lower::LowerOptions::default())?;
    let stats = [
        ("instructions", serial.code.len() as i64),
        ("sites", serial.sites.len() as i64),
        ("candidate_loops", serial.loops.len() as i64),
    ]
    .into();
    Ok((serial, stats))
}

/// Phase 3: serial bytecode → per-loop dependence graphs, by running the
/// program under the profiler on the given inputs.
///
/// # Errors
///
/// Propagates VM errors.
pub fn profile_phase(
    serial: CompiledProgram,
    profile_config: VmConfig,
) -> Result<(ProfileResult, PhaseStats), DseError> {
    // `profile_program` runs the reference stack encoding, whatever the
    // config's backend: per-loop instruction counts feed classification
    // and the simulator.
    let (profile, _vm) = dse_depprof::profile_program(serial, profile_config)?;
    let (iterations, accesses, edges) = profile.totals();
    let stats = [
        ("loops_profiled", profile.loops.len() as i64),
        ("iterations", iterations as i64),
        ("accesses", accesses as i64),
        ("edges", edges as i64),
    ]
    .into();
    Ok((profile, stats))
}

/// Phase 4: profile → access-class classifications, plus the points-to and
/// allocation-size side analyses.
pub fn classify_phase(program: &Program, profile: &ProfileResult) -> (Classified, PhaseStats) {
    let classifications: Vec<LoopClassification> =
        profile.loops.iter().map(classify_loop).collect();
    let mode_count =
        |mode: ParMode| classifications.iter().filter(|c| c.mode == mode).count() as i64;
    let stats = [
        ("doall", mode_count(ParMode::DoAll)),
        ("doacross", mode_count(ParMode::DoAcross)),
    ]
    .into();
    let classified = Classified {
        classifications,
        pt: dse_analysis::analyze(program),
        alloc_sizes: dse_analysis::consteval::alloc_size_infos(program),
    };
    (classified, stats)
}

/// Assembles an [`Analysis`] from the four analysis-phase artifacts, and
/// derives, once, what every later stage reads of the classifications:
/// each candidate loop's ordered eids and the per-eid verdict table. The
/// trace parameter is unused: a request's phase records live in its own
/// [`Trace`], and the argument goes when `benchmark/` stops passing it.
pub fn assemble_analysis(
    program: Program,
    serial: CompiledProgram,
    profile: ProfileResult,
    classified: Classified,
    _phases: Trace,
) -> Analysis {
    assemble(Arc::new(program), serial, profile, classified)
}

/// [`assemble_analysis`] over a shared AST: the cached pipeline hands every
/// analysis the parse artifact's program instead of a copy.
fn assemble(
    program: Arc<Program>,
    serial: CompiledProgram,
    profile: ProfileResult,
    classified: Classified,
) -> Analysis {
    Analysis {
        program,
        serial,
        profile,
        classifications: classified.classifications,
        pt: classified.pt,
        alloc_sizes: classified.alloc_sizes,
    }
}

// ---------------------------------------------------------------------------
// content fingerprints
// ---------------------------------------------------------------------------

/// Content hash of a parsed program: its canonical printed form. Stable
/// across processes; insensitive to comments and whitespace in the source.
pub fn ast_fingerprint(program: &Program) -> ContentHash {
    ContentHasher::new("ast")
        .str(&dse_lang::printer::print_program(program))
        .finish()
}

/// Content hash of a lowered program: its disassembly plus every field
/// the listing leaves out — `main`, the globals segment and its
/// initializers, each function's parameters and return shape, each
/// candidate loop's full record, the allocation sites, the site table and
/// the struct layouts. Two programs that can behave differently never share
/// a key: a global initializer, for one, is invisible in the listing.
pub fn code_fingerprint(program: &CompiledProgram) -> ContentHash {
    let mut h = ContentHasher::new("code")
        .str(&dse_ir::disasm::disassemble(program))
        .u64(program.main as u64)
        .u64(program.globals_size)
        .u64(program.global_inits.len() as u64);
    for &(addr, value) in &program.global_inits {
        h = match value {
            InitValue::Int(v, width) => h.u64(addr).bool(false).i64(v).u64(width as u64),
            InitValue::Float(v) => h.u64(addr).bool(true).u64(v.to_bits()),
        };
    }
    for f in &program.funcs {
        h = h.str(&format!("{:?} {:?} {}", f.params, f.ret, f.ret_float));
    }
    h = h.u64(program.loops.len() as u64);
    for l in &program.loops {
        let mode = match l.mode {
            None => 0,
            Some(ParMode::DoAll) => 1,
            Some(ParMode::DoAcross) => 2,
        };
        h = h
            .str(&l.label)
            .u64(l.func as u64)
            .u64(mode)
            .u64(l.body_entry as u64)
            .u64(l.induction_offset as u64)
            .u64(l.induction_width as u64);
    }
    h = h.u64(program.sites.len() as u64);
    for (_, site) in program.sites.iter() {
        let span = site.span;
        h = h
            .u64(site.eid as u64)
            .bool(site.kind == dse_ir::AccessKind::Store)
            .u64(site.func as u64)
            .u64(site.width as u64)
            .u64(span.start.line as u64)
            .u64(span.start.col as u64)
            .u64(span.end.line as u64)
            .u64(span.end.col as u64);
    }
    h.str(&format!("{:?}", program.types)).finish()
}

/// Content hash of a dependence profile: its canonical sorted summary.
pub fn profile_fingerprint(profile: &ProfileResult) -> ContentHash {
    ContentHasher::new("profile-content")
        .str(&profile.canonical_summary())
        .finish()
}

// ---------------------------------------------------------------------------
// the cached pipeline
// ---------------------------------------------------------------------------

/// The parse artifact: the program plus its content fingerprint.
pub struct ParseArt {
    /// The typed AST, shared with every [`Analysis`] built from it.
    pub program: Arc<Program>,
    /// Fingerprint of the printed AST (the lower key's input).
    pub ast_hash: ContentHash,
}

/// The lower artifact.
pub struct LowerArt {
    /// Serial bytecode.
    pub serial: CompiledProgram,
    /// [`code_fingerprint`] of `serial` (the profile key's input).
    pub code_hash: ContentHash,
}

/// The profile artifact.
pub struct ProfileArt {
    /// Per-loop dependence graphs.
    pub profile: ProfileResult,
    /// Fingerprint of the canonical profile summary.
    pub profile_hash: ContentHash,
}

/// The classify artifact: the fully assembled [`Analysis`] plus its chained
/// content key, which downstream plan/xform/verify keys build on.
pub struct AnalysisArt {
    /// The assembled analysis.
    pub analysis: Analysis,
    /// The classify phase's content key.
    pub key: ContentHash,
    /// [`code_fingerprint`] of `analysis.serial`, as the lower phase
    /// computed it: a serial run's `reglower` key input.
    pub code_hash: ContentHash,
}

/// The plan artifact.
pub struct PlanArt {
    /// The expansion plan.
    pub plan: ExpansionPlan,
}

/// The xform artifact: the transformed program plus its chained content
/// key (the verify key's input).
pub struct TransformArt {
    /// The transformed program.
    pub transformed: Transformed,
    /// The xform phase's content key.
    pub key: ContentHash,
    code_hash: OnceLock<ContentHash>,
}

impl TransformArt {
    /// [`code_fingerprint`] of `transformed.parallel`, computed on first
    /// use and kept: every later run of this artifact looks up its
    /// `reglower` key without rendering the program again.
    pub fn code_hash(&self) -> ContentHash {
        *self
            .code_hash
            .get_or_init(|| code_fingerprint(&self.transformed.parallel))
    }
}

/// The reglower artifact: the register translation of one compiled
/// program (serial or transformed), shareable across every VM that
/// executes it.
pub struct RegArt {
    /// The translated register module.
    pub reg: Arc<dse_ir::RegProgram>,
    /// The reglower phase's content key; the backend-verification phase
    /// (`regverify`, in `dse-verify`) chains its own key through this.
    pub key: ContentHash,
}

/// Drives the phase functions through a shared [`ArtifactStore`]. Requests
/// for identical content collapse onto one computation; edits only re-run
/// the phases downstream of the change.
pub struct Pipeline<'a> {
    store: &'a ArtifactStore,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over the given store.
    pub fn new(store: &'a ArtifactStore) -> Pipeline<'a> {
        Pipeline { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &ArtifactStore {
        self.store
    }

    /// parse → lower → profile → classify, each through the cache.
    /// `profile_config` supplies the profiling inputs (which are part of
    /// the profile key).
    ///
    /// # Errors
    ///
    /// Propagates frontend, lowering and VM errors; failures are not
    /// cached.
    pub fn analyze(
        &self,
        source: &str,
        profile_config: &VmConfig,
        trace: &mut Trace,
    ) -> Result<Arc<AnalysisArt>, DseError> {
        let parse_key = ContentHasher::new("parse").str(source).finish();
        let parsed: Arc<ParseArt> = self.store.get_or_compute("parse", parse_key, trace, || {
            let (program, stats) = parse_phase(source)?;
            let ast_hash = ast_fingerprint(&program);
            let program = Arc::new(program);
            Ok::<_, DseError>((ParseArt { program, ast_hash }, stats))
        })?;

        let lower_key = ContentHasher::new("lower").hash(parsed.ast_hash).finish();
        let lowered: Arc<LowerArt> =
            self.store.get_or_compute("lower", lower_key, trace, || {
                let (serial, stats) = lower_phase(&parsed.program)?;
                let code_hash = code_fingerprint(&serial);
                Ok::<_, DseError>((LowerArt { serial, code_hash }, stats))
            })?;

        let profile_key = ContentHasher::new("profile")
            .hash(lowered.code_hash)
            .i64s(&profile_config.inputs_int)
            .finish();
        let profiled: Arc<ProfileArt> =
            self.store
                .get_or_compute("profile", profile_key, trace, || {
                    let (profile, stats) =
                        profile_phase(lowered.serial.clone(), profile_config.clone())?;
                    let profile_hash = profile_fingerprint(&profile);
                    let art = ProfileArt {
                        profile,
                        profile_hash,
                    };
                    Ok::<_, DseError>((art, stats))
                })?;

        let classify_key = ContentHasher::new("classify")
            .hash(parsed.ast_hash)
            .hash(lowered.code_hash)
            .hash(profiled.profile_hash)
            .finish();
        self.store
            .get_or_compute("classify", classify_key, trace, || {
                let (classified, stats) = classify_phase(&parsed.program, &profiled.profile);
                let analysis = assemble(
                    Arc::clone(&parsed.program),
                    lowered.serial.clone(),
                    profiled.profile.clone(),
                    classified,
                );
                let art = AnalysisArt {
                    analysis,
                    key: classify_key,
                    code_hash: lowered.code_hash,
                };
                Ok::<_, DseError>((art, stats))
            })
    }

    /// Stack→register translation of `program` through the cache, keyed
    /// by the program's content fingerprint — one artifact per distinct
    /// program, shared by the serial original and every transformed
    /// variant that hashes equal, and reused across daemon requests when
    /// the register backend executes.
    ///
    /// # Errors
    ///
    /// Propagates [`dse_ir::RegLowerError`] (hand-constructed bytecode
    /// whose stack discipline cannot be proven; lowered programs never
    /// fail).
    pub fn reglower(
        &self,
        program: &CompiledProgram,
        trace: &mut Trace,
    ) -> Result<Arc<RegArt>, DseError> {
        self.reglower_fingerprinted(program, code_fingerprint(program), trace)
    }

    /// [`Pipeline::reglower`] for a program whose artifact already holds
    /// its fingerprint ([`AnalysisArt::code_hash`],
    /// [`TransformArt::code_hash`]): the same key, without rendering the
    /// program again. `code_hash` must be `code_fingerprint(program)`.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::reglower`].
    pub fn reglower_fingerprinted(
        &self,
        program: &CompiledProgram,
        code_hash: ContentHash,
        trace: &mut Trace,
    ) -> Result<Arc<RegArt>, DseError> {
        debug_assert_eq!(code_hash, code_fingerprint(program), "a stale fingerprint");
        let key = ContentHasher::new("reglower").hash(code_hash).finish();
        self.store.get_or_compute("reglower", key, trace, || {
            let reg = dse_ir::regcode::translate(program)?;
            let stats = [
                ("reg_instructions", reg.code.len() as i64),
                ("frame_regs", reg.frame_regs as i64),
                ("entries", reg.entry_map.len() as i64),
            ]
            .into();
            let reg = Arc::new(reg);
            Ok::<_, DseError>((RegArt { reg, key }, stats))
        })
    }

    /// plan → xform through the cache, on top of a cached analysis.
    /// `baseline` selects the runtime-privatization baseline plan.
    ///
    /// # Errors
    ///
    /// Propagates planning, transformation and lowering failures.
    pub fn transform(
        &self,
        art: &AnalysisArt,
        opt: OptLevel,
        nthreads: u32,
        baseline: bool,
        trace: &mut Trace,
    ) -> Result<Arc<TransformArt>, DseError> {
        let plan_key = ContentHasher::new("plan")
            .hash(art.key)
            .str(opt.name())
            .u64(nthreads as u64)
            .bool(baseline)
            .finish();
        let planned: Arc<PlanArt> = self.store.get_or_compute("plan", plan_key, trace, || {
            let plan = if baseline {
                art.analysis.baseline_plan(nthreads)
            } else {
                art.analysis.plan(opt, nthreads)
            }?;
            Ok::<_, DseError>((PlanArt { plan }, [("nthreads", nthreads as i64)].into()))
        })?;

        // The baseline plan privatizes through the `__localize` runtime
        // regardless of `opt`; the transform itself then runs at full
        // optimization, exactly as the standalone baseline path always has.
        let apply_opt = if baseline { OptLevel::Full } else { opt };
        let xform_key = ContentHasher::new("xform").hash(plan_key).finish();
        self.store.get_or_compute("xform", xform_key, trace, || {
            let transformed = art.analysis.apply_plan(planned.plan.clone(), apply_opt)?;
            let stats = [
                (
                    "privatized_structures",
                    transformed.report.privatized_structures() as i64,
                ),
                (
                    "accesses_redirected",
                    transformed.report.private_accesses_redirected as i64,
                ),
                ("instructions", transformed.parallel.code.len() as i64),
            ]
            .into();
            let art = TransformArt {
                transformed,
                key: xform_key,
                code_hash: OnceLock::new(),
            };
            Ok::<_, DseError>((art, stats))
        })
    }
}
