//! Expansion planning: given the DDG classifications, the points-to
//! results and the optimization level, decide
//!
//! * which data structures to **expand** (Table 1),
//! * which pointer types to **promote** to fat `{pointer, span}` records
//!   (Section 3.3.1), and
//! * which private indirect accesses can use a **constant span** instead
//!   (the Section 3.4 constant/copy-propagation optimization).
//!
//! With [`OptLevel::None`] everything is expanded and every pointer type is
//! promoted — the configuration measured in the paper's Figure 9a. With
//! [`OptLevel::Full`] only structures referenced by private accesses are
//! expanded, pointers whose referents all share one static size keep their
//! raw representation, and span bookkeeping is pruned (Figure 9b).
//!
//! Which pointers are fat and which sizes are constant depend on each
//! other: `sizeof(struct T)` grows when a pointer field of `T` is promoted,
//! and a pointer is promoted when the objects it reaches stop agreeing on
//! one size. [`OptLevel::Full`] resolves the circle *optimistically*: it
//! starts from the promotions nothing can avoid (`realloc` of an expanded
//! structure), evaluates every size under the promoted layout that set
//! implies (`xform::TypeMap`, the layout the transform will emit),
//! promotes the base pointer of every private access whose objects then
//! disagree, closes over span flow and repeats. A site that turned dynamic
//! stays dynamic and the set only grows, so the iteration terminates; what
//! it reaches is consistent — every [`ExpansionPlan::const_span`] is the
//! size, in the transformed layout, of everything its access can reach —
//! and no promotion in it lacks a recorded [`FatCause`].

use crate::access::{access_root, AccessRoot};
use crate::classify::EidVerdict;
use crate::xform::TypeMap;
use dse_analysis::consteval::{alloc_call_size, AllocSizeInfo};
use dse_analysis::{PointsTo, PtObj, VarId};
use dse_lang::ast::*;
use dse_lang::fasthash::{HashMap, HashSet};
use dse_lang::types::Type;

/// Replica placement for expanded structures (paper Section 3.1, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutMode {
    /// Whole-structure replicas adjacent (the paper's default and the only
    /// mode that supports untyped heap blocks, recasts and interior
    /// pointers).
    #[default]
    Bonded,
    /// Per-element replication for *named arrays*: copies of each element
    /// adjacent (`T v[n]` becomes `T v[n][N]`). Fails — with the paper's
    /// own argument — whenever an expanded structure is an untyped heap
    /// block or is reached through a pointer.
    Interleaved,
}

/// How aggressively Section 3.4's overhead reductions are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimizations: expand every structure, promote every pointer
    /// type, keep every span store (paper Figure 9a).
    None,
    /// Alias-based pruning of expansion and promotion, but no constant-span
    /// discovery (ablation point between the paper's two configurations).
    NoConstSpan,
    /// All optimizations (paper Figure 9b).
    #[default]
    Full,
}

impl OptLevel {
    /// The level's name on the command line, on the wire and in plan keys.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::NoConstSpan => "noconst",
            OptLevel::Full => "full",
        }
    }

    /// Parses a [`OptLevel::name`].
    pub fn parse(s: &str) -> Option<OptLevel> {
        [OptLevel::None, OptLevel::NoConstSpan, OptLevel::Full]
            .into_iter()
            .find(|o| o.name() == s)
    }
}

/// A planning failure with explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expansion planning error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Why a pointer type is promoted: the first reason the planner met.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FatCause {
    /// Constant spans are not looked for at this optimization level.
    OptLevel,
    /// A private access through this type reaches the allocation `alloc`,
    /// whose size is not a compile-time constant.
    RuntimeSize {
        /// The allocation call's eid.
        alloc: u32,
    },
    /// A private access through this type reaches two objects of different
    /// constant sizes (in the promoted layout).
    DisagreeingSizes {
        /// One object and its size in bytes.
        a: (PtObj, u64),
        /// Another, of a different size.
        b: (PtObj, u64),
    },
    /// A pointer of this type is passed to the `realloc` call `alloc` of an
    /// expanded structure, which moves each copy by its old span.
    ReallocExpanded {
        /// The `realloc` call's eid.
        alloc: u32,
    },
    /// A value of this type is stored into the promoted type `into`, which
    /// needs its span.
    SpanFlow {
        /// The promoted destination type.
        into: Type,
    },
}

/// The complete expansion plan consumed by the transformation.
#[derive(Debug, Clone, Default)]
pub struct ExpansionPlan {
    /// Expansion factor N (thread count the program is transformed for).
    pub nthreads: u32,
    /// Objects to expand.
    pub expanded: HashSet<PtObj>,
    /// Pointer types (the full `Type::Pointer`) promoted to fat records.
    pub fat_types: HashSet<Type>,
    /// Per promoted pointer type: what forced the promotion.
    pub fat_causes: HashMap<Type, FatCause>,
    /// Integer variables promoted to carry spans (pointer-difference
    /// bookkeeping, Table 3 rules "Pointer arithmetic 2/3").
    pub fat_ints: HashSet<VarId>,
    /// Private access eids (redirected to the thread's copy).
    pub private_eids: HashSet<u32>,
    /// Per private indirect eid: the constant span in bytes, when all its
    /// referents share one statically known size — measured in the
    /// *transformed* layout.
    pub const_span: HashMap<u32, u64>,
    /// Whether Section 3.4's span-work reductions are on: `p = p ± c` keeps
    /// no span store, and a redirection is derived once per pointer
    /// assignment instead of once per access.
    pub prune_span_work: bool,
    /// Runtime-privatization baseline mode (Section 4.2.1): heap structures
    /// are NOT expanded; private indirect accesses are routed through the
    /// `__localize` runtime instead. Named variables are still expanded
    /// ("access control of global or stack variables \[is\] performed
    /// statically" — SpiceC).
    pub heap_localize: bool,
    /// Replica placement (Section 3.1).
    pub layout: LayoutMode,
}

impl ExpansionPlan {
    /// True if the named variable is expanded.
    pub fn var_expanded(&self, v: VarId) -> bool {
        self.expanded.contains(&PtObj::Var(v))
    }

    /// True if the allocation site (call eid) is expanded.
    pub fn alloc_expanded(&self, eid: u32) -> bool {
        self.expanded.contains(&PtObj::Alloc(eid))
    }

    /// True if the given pointer type is fat.
    pub fn is_fat(&self, ptr_ty: &Type) -> bool {
        self.fat_types.contains(ptr_ty)
    }

    /// One line per promoted pointer type of `program` (the program this
    /// plan was built for): what forced the promotion, naming the
    /// allocation site (`line:col`) where there is one. Sorted.
    pub fn fat_cause_lines(&self, program: &Program) -> Vec<String> {
        let mut at: HashMap<u32, dse_lang::SourceSpan> = HashMap::default();
        for f in &program.functions {
            walk_exprs_in_block(&f.body, &mut |e| {
                if let ExprKind::Call { .. } = &e.kind {
                    at.insert(e.eid, e.span);
                }
            });
        }
        let site = |eid: &u32| at.get(eid).map_or("?".to_string(), |s| s.start.to_string());
        let name = |ty: &Type| dse_lang::printer::type_name(ty, &program.types);
        let object = |(obj, size): &(PtObj, u64)| match obj {
            PtObj::Alloc(eid) => format!("{size} bytes allocated at {}", site(eid)),
            PtObj::Var(VarId::Global(g)) => {
                format!("{size} bytes of `{}`", program.globals[*g].name)
            }
            PtObj::Var(VarId::Local(f, s)) => {
                format!(
                    "{size} bytes of `{}`",
                    program.functions[*f].locals[*s].name
                )
            }
        };
        let mut lines: Vec<String> = self
            .fat_causes
            .iter()
            .map(|(ty, cause)| {
                let why = match cause {
                    FatCause::OptLevel => "constant spans are not looked for at this --opt".into(),
                    FatCause::RuntimeSize { alloc } => {
                        format!("reaches an allocation of runtime size at {}", site(alloc))
                    }
                    FatCause::DisagreeingSizes { a, b } => format!(
                        "reaches objects of different sizes: {}, {}",
                        object(a),
                        object(b)
                    ),
                    FatCause::ReallocExpanded { alloc } => format!(
                        "passed to the realloc of an expanded structure at {}",
                        site(alloc)
                    ),
                    FatCause::SpanFlow { into } => {
                        format!("its span flows into `{}`", name(into))
                    }
                };
                format!("`{}`: {why}", name(ty))
            })
            .collect();
        lines.sort();
        lines
    }
}

/// The eids whose accesses are thread-private, from the per-eid verdict
/// table.
///
/// # Errors
///
/// Fails if an eid is private in one parallelized loop but shared in
/// another (the transform could not satisfy both).
pub fn merge_classifications(verdicts: &[EidVerdict]) -> Result<HashSet<u32>, PlanError> {
    if let Some(conflict) = verdicts.iter().position(|v| v.conflict().is_some()) {
        return Err(PlanError(format!(
            "access (eid {conflict}) is private in one parallelized loop but shared in another"
        )));
    }
    Ok((0..)
        .zip(verdicts)
        .filter_map(|(eid, v)| v.private_in.map(|_| eid))
        .collect())
}

/// All distinct pointer types appearing in declarations or expressions.
fn all_pointer_types(program: &Program) -> HashSet<Type> {
    let mut out = HashSet::default();
    let mut add_ty = |ty: &Type| {
        let mut t = ty;
        loop {
            match t {
                Type::Pointer(inner) => {
                    out.insert(t.clone());
                    t = inner;
                }
                Type::Array(inner, _) => t = inner,
                _ => break,
            }
        }
    };
    for g in &program.globals {
        add_ty(&g.ty);
    }
    for f in &program.functions {
        add_ty(&f.ret_ty);
        for l in &f.locals {
            add_ty(&l.ty);
        }
    }
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let Some(t) = &e.ty {
                add_ty(t);
            }
            if let ExprKind::Cast(t, _) = &e.kind {
                add_ty(t);
            }
        });
    }
    for s in program.types.structs() {
        for fld in &s.fields {
            add_ty(&fld.ty);
        }
    }
    out
}

/// Collects "span flow" edges between pointer types: for every
/// assignment-like `dst = src` where `src` is not a span terminal (an
/// allocation call, an address-of, or a null literal), a fat `dst` type
/// forces `src`'s type fat. Also returns pointer-difference facts for
/// integer promotion.
struct SpanFlow {
    /// (dst pointer type, src pointer type) pairs.
    edges: Vec<(Type, Type)>,
    /// `dst = q ± i` facts: (dst pointer type, int var).
    arith_int_uses: Vec<(Type, VarId)>,
}

fn is_span_terminal(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Call { name, .. } => {
            matches!(name.as_str(), "malloc" | "calloc" | "realloc")
        }
        ExprKind::AddrOf(_) => true,
        ExprKind::IntLit(_) => true,
        ExprKind::Var { .. } => false,
        ExprKind::Cast(_, inner) => is_span_terminal(inner),
        // Array decay names an object whose size is static.
        _ => matches!(e.ty.as_ref(), Some(Type::Array(..))),
    }
}

/// The source expression whose span would be copied for `src` (skipping
/// pointer arithmetic and casts).
fn span_root(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::Cast(_, inner) => span_root(inner),
        ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            if l.ty.as_ref().is_some_and(|t| t.decayed().is_pointer()) {
                span_root(l)
            } else {
                span_root(r)
            }
        }
        _ => e,
    }
}

fn int_var_of(e: &Expr, func: usize) -> Option<VarId> {
    match &e.kind {
        ExprKind::Var {
            binding: Some(b), ..
        } if e.ty.as_ref().is_some_and(|t| t.is_integer()) => Some(match b {
            VarBinding::Global(g) => VarId::Global(*g),
            VarBinding::Local(s) => VarId::Local(func, *s),
        }),
        _ => None,
    }
}

fn collect_span_flow(program: &Program) -> SpanFlow {
    let mut sf = SpanFlow {
        edges: Vec::new(),
        arith_int_uses: Vec::new(),
    };
    for (fi, f) in program.functions.iter().enumerate() {
        // Returns: the function's return type receives the expr's span.
        walk_stmts_in_block(&f.body, &mut |s| {
            if let StmtKind::Return(Some(e)) = &s.kind {
                record_flow(&mut sf, fi, &f.ret_ty, e);
            }
        });
        walk_exprs_in_block(&f.body, &mut |e| match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                rhs,
            } => {
                if let Some(lt) = &lhs.ty {
                    record_flow(&mut sf, fi, lt, rhs);
                }
            }
            ExprKind::Call { name, args } => {
                if let Some(callee) = program.function(name) {
                    for (a, p) in args.iter().zip(&callee.params) {
                        record_flow(&mut sf, fi, &p.ty, a);
                    }
                }
            }
            _ => {}
        });
        walk_stmts_in_block(&f.body, &mut |s| {
            if let StmtKind::Decl {
                ty, init: Some(e), ..
            } = &s.kind
            {
                record_flow(&mut sf, fi, ty, e);
            }
        });
    }
    sf
}

fn record_flow(sf: &mut SpanFlow, func: usize, dst_ty: &Type, src: &Expr) {
    let dst_ty = dst_ty.decayed();
    if !dst_ty.is_pointer() {
        // Pointer differences `i = p - q` are collected by
        // `collect_diff_defs`, which knows the destination variable.
        return;
    }
    let root = span_root(src);
    if is_span_terminal(root) {
        return;
    }
    if let Some(st) = root.ty.as_ref() {
        let st = st.decayed();
        if st.is_pointer() {
            sf.edges.push((dst_ty.clone(), st));
        }
    }
    // dst = q ± i with a variable i: i may need a span.
    if let ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) = &src.kind {
        let int_side = if l.ty.as_ref().is_some_and(|t| t.decayed().is_pointer()) {
            r
        } else {
            l
        };
        if let Some(v) = int_var_of(int_side, func) {
            sf.arith_int_uses.push((dst_ty.clone(), v));
        }
    }
}

/// Pointer-difference definitions `i = p - q` (assignments and
/// declaration initializers), as (int var, pointee pointer type) pairs.
fn collect_diff_defs(program: &Program) -> Vec<(VarId, Type)> {
    fn diff_operand_types(rhs: &Expr) -> Option<(Type, Type)> {
        let ExprKind::Binary(BinOp::Sub, l, r) = &rhs.kind else {
            return None;
        };
        let lt = l.ty.as_ref()?.decayed();
        let rt = r.ty.as_ref()?.decayed();
        (lt.is_pointer() && rt.is_pointer()).then_some((lt, rt))
    }
    let mut out = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        walk_stmts_in_block(&f.body, &mut |s| {
            let StmtKind::Decl {
                init: Some(e),
                slot: Some(slot),
                ty,
                ..
            } = &s.kind
            else {
                return;
            };
            if let Some((lt, _)) = diff_operand_types(e).filter(|_| ty.is_integer()) {
                out.push((VarId::Local(fi, *slot), lt));
            }
        });
        walk_exprs_in_block(&f.body, &mut |e| {
            if let ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                rhs,
            } = &e.kind
            {
                if diff_operand_types(rhs).is_some() {
                    if let Some(v) = int_var_of(lhs, fi) {
                        if let ExprKind::Binary(BinOp::Sub, l, _) = &rhs.kind {
                            if let Some(t) = l.ty.as_ref() {
                                out.push((v, t.decayed()));
                            }
                        }
                    }
                }
            }
        });
    }
    out
}

/// Inputs to [`build_plan`].
pub struct PlanInputs<'a> {
    /// The original typed program.
    pub program: &'a Program,
    /// Per eid: how the parallelized loops judged its accesses.
    pub verdicts: Vec<EidVerdict>,
    /// Points-to results.
    pub pt: &'a PointsTo,
    /// Allocation-size facts (from [`dse_analysis::consteval::alloc_size_infos`]).
    pub alloc_sizes: &'a HashMap<u32, AllocSizeInfo>,
    /// Optimization level.
    pub opt: OptLevel,
    /// Expansion factor N.
    pub nthreads: u32,
    /// Build the runtime-privatization baseline plan instead (see
    /// [`ExpansionPlan::heap_localize`]).
    pub heap_localize: bool,
    /// Replica placement (Section 3.1).
    pub layout: LayoutMode,
}

/// Builds the expansion plan.
///
/// # Errors
///
/// Fails on classification conflicts or unsupported shapes (e.g. a function
/// parameter that would need expansion).
pub fn build_plan(inp: &PlanInputs<'_>) -> Result<ExpansionPlan, PlanError> {
    let private_eids = merge_classifications(&inp.verdicts)?;
    let program = inp.program;

    // Induction variables of candidate loops must never be expanded.
    let mut excluded_vars: HashSet<VarId> = HashSet::default();
    let cands =
        dse_ir::loops::find_candidate_loops(program).map_err(|e| PlanError(e.to_string()))?;
    for c in &cands {
        excluded_vars.insert(VarId::Local(c.func as usize, c.induction_slot));
    }

    // ---- expansion set ----------------------------------------------------
    let mut expanded: HashSet<PtObj> = HashSet::default();
    match inp.opt {
        OptLevel::None => {
            // Expand everything: all named variables (except parameters and
            // induction variables) and all allocation sites.
            for (gi, _) in program.globals.iter().enumerate() {
                expanded.insert(PtObj::Var(VarId::Global(gi)));
            }
            for (fi, f) in program.functions.iter().enumerate() {
                for (slot, l) in f.locals.iter().enumerate() {
                    if !l.is_param {
                        expanded.insert(PtObj::Var(VarId::Local(fi, slot)));
                    }
                }
            }
            for eid in inp.alloc_sizes.keys() {
                expanded.insert(PtObj::Alloc(*eid));
            }
        }
        OptLevel::NoConstSpan | OptLevel::Full => {
            // Only structures referenced by private accesses (Section 3.4).
            for &eid in &private_eids {
                if inp.heap_localize {
                    // Baseline: only named variables reached directly are
                    // privatized at compile time; heap accesses go through
                    // the runtime. Pointer-reached variables cannot be
                    // handled by either side.
                    if inp.pt.site_is_indirect(eid) {
                        for obj in inp.pt.objects_of_site(eid) {
                            if let PtObj::Var(v) = obj {
                                return Err(PlanError(format!(
                                    "runtime privatization cannot handle private \
                                     pointer accesses to the address-taken variable \
                                     {v:?} (eid {eid})"
                                )));
                            }
                        }
                        continue;
                    }
                }
                for obj in inp.pt.objects_of_site(eid) {
                    expanded.insert(obj);
                }
            }
        }
    }
    if inp.heap_localize {
        expanded.retain(|o| matches!(o, PtObj::Var(_)));
    }
    for v in &excluded_vars {
        expanded.remove(&PtObj::Var(*v));
    }
    // Parameters cannot be expanded (they are caller-initialized scalars).
    for obj in &expanded {
        if let PtObj::Var(VarId::Local(fi, slot)) = obj {
            if program.functions[*fi].locals[*slot].is_param {
                return Err(PlanError(format!(
                    "parameter `{}` of `{}` would need expansion; pass a pointer instead",
                    program.functions[*fi].locals[*slot].name, program.functions[*fi].name
                )));
            }
        }
    }

    // Interleaved layout (Fig. 2b): only named variables whose accesses
    // are all direct can interleave — the paper's own limitation.
    if inp.layout == LayoutMode::Interleaved {
        for obj in &expanded {
            match obj {
                PtObj::Alloc(eid) => {
                    return Err(PlanError(format!(
                        "interleaved layout: heap allocation site (eid {eid}) has no \
                         static element type to interleave by (paper §3.1)"
                    )));
                }
                PtObj::Var(v) => {
                    let ty = match v {
                        VarId::Global(g) => &program.globals[*g].ty,
                        VarId::Local(f, s) => &program.functions[*f].locals[*s].ty,
                    };
                    if matches!(ty, Type::Struct(_)) {
                        return Err(PlanError(format!(
                            "interleaved layout: per-field interleaving of struct \
                             variable {v:?} is not supported"
                        )));
                    }
                }
            }
        }
        for &eid in &private_eids {
            if inp.pt.site_is_indirect(eid)
                && inp
                    .pt
                    .objects_of_site(eid)
                    .iter()
                    .any(|o| expanded.contains(o))
            {
                return Err(PlanError(format!(
                    "interleaved layout: access (eid {eid}) reaches an expanded \
                     structure through a pointer; per-element replicas are not \
                     contiguous, so span redirection is impossible (paper §3.1)"
                )));
            }
        }
    }

    if inp.heap_localize {
        // No spans needed: private indirect accesses use the runtime.
        return Ok(finish(inp, expanded, private_eids, Promotion::default()));
    }

    // ---- fat pointer types and constant spans -------------------------------
    // Private indirect accesses into expanded structures, with the pointer
    // type each dereferences: the sites that need a span.
    let mut span_sites: Vec<SpanSite> = Vec::new();
    let base_tys = base_pointer_types_of_sites(program, &private_eids);
    for &eid in &private_eids {
        if !inp.pt.site_is_indirect(eid) {
            continue;
        }
        let mut objs: Vec<PtObj> = inp.pt.objects_of_site(eid).into_iter().collect();
        if !objs.iter().any(|o| expanded.contains(o)) {
            continue;
        }
        objs.sort();
        span_sites.push(SpanSite {
            eid,
            objs,
            base_ty: base_tys.get(&eid).cloned(),
        });
    }
    span_sites.sort_by_key(|s| s.eid);

    let diffs = collect_diff_defs(program);
    let mut promo = Promotion::default();
    match inp.opt {
        OptLevel::None => {
            // Every pointer is fat and every difference integer carries a
            // span; span flow has nothing left to add.
            for t in all_pointer_types(program) {
                promo.promote(t, FatCause::OptLevel);
            }
            promo.fat_ints = diffs.iter().map(|(v, _)| *v).collect();
        }
        OptLevel::NoConstSpan => {
            for site in &span_sites {
                promo.promote_base(site, FatCause::OptLevel);
            }
            seed_realloc_types(program, &expanded, &mut promo);
            promo.close_over(&collect_span_flow(program), &diffs);
        }
        OptLevel::Full => {
            seed_realloc_types(program, &expanded, &mut promo);
            let sf = collect_span_flow(program);
            let alloc_calls = alloc_calls_by_eid(program);
            let mut dynamic: HashSet<u32> = HashSet::default();
            loop {
                promo.close_over(&sf, &diffs);
                // Sizes under the layout the current promotions imply.
                let mut layout = TypeMap::build(&program.types, &promo.fat_types);
                let mut grew = false;
                promo.const_span.clear();
                for site in &span_sites {
                    if dynamic.contains(&site.eid) {
                        continue;
                    }
                    match uniform_size(site, inp, &alloc_calls, &mut layout) {
                        Ok(size) => {
                            promo.const_span.insert(site.eid, size);
                        }
                        Err(cause) => {
                            dynamic.insert(site.eid);
                            grew |= promo.promote_base(site, cause);
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
        }
    }
    Ok(finish(inp, expanded, private_eids, promo))
}

/// A private indirect access into an expanded structure.
struct SpanSite {
    eid: u32,
    /// The objects it may reach, sorted.
    objs: Vec<PtObj>,
    /// The pointer type it dereferences.
    base_ty: Option<Type>,
}

/// The promotion half of a plan while it is being decided.
#[derive(Default)]
struct Promotion {
    fat_types: HashSet<Type>,
    fat_causes: HashMap<Type, FatCause>,
    fat_ints: HashSet<VarId>,
    const_span: HashMap<u32, u64>,
}

impl Promotion {
    /// Promotes `ty`; true when it was thin before.
    fn promote(&mut self, ty: Type, cause: FatCause) -> bool {
        let new = self.fat_types.insert(ty.clone());
        if new {
            self.fat_causes.insert(ty, cause);
        }
        new
    }

    fn promote_base(&mut self, site: &SpanSite, cause: FatCause) -> bool {
        site.base_ty.clone().is_some_and(|t| self.promote(t, cause))
    }

    /// Closes the promoted set over span flow: a fat destination needs its
    /// sources' spans, through pointer differences too (Table 3 "Pointer
    /// arithmetic 2/3").
    fn close_over(&mut self, sf: &SpanFlow, diffs: &[(VarId, Type)]) {
        loop {
            let before = (self.fat_types.len(), self.fat_ints.len());
            for (dst, src) in &sf.edges {
                if self.fat_types.contains(dst) {
                    self.promote(src.clone(), FatCause::SpanFlow { into: dst.clone() });
                }
            }
            for (dst_ty, iv) in &sf.arith_int_uses {
                if self.fat_types.contains(dst_ty) {
                    for (_, pty) in diffs.iter().filter(|(v, _)| v == iv) {
                        self.fat_ints.insert(*iv);
                        let into = dst_ty.clone();
                        self.promote(pty.clone(), FatCause::SpanFlow { into });
                    }
                }
            }
            if (self.fat_types.len(), self.fat_ints.len()) == before {
                return;
            }
        }
    }
}

/// The one size, in bytes under `layout`, of every object `site` may
/// reach — or why there is none.
fn uniform_size(
    site: &SpanSite,
    inp: &PlanInputs<'_>,
    alloc_calls: &HashMap<u32, &Expr>,
    layout: &mut TypeMap,
) -> Result<u64, FatCause> {
    let mut first: Option<(PtObj, u64)> = None;
    for &obj in &site.objs {
        let size = match obj {
            PtObj::Alloc(eid) => alloc_calls
                .get(&eid)
                .and_then(|call| alloc_call_size(call, &mut |t| layout.size_of(t)).flatten())
                .ok_or(FatCause::RuntimeSize { alloc: eid })?,
            PtObj::Var(v) => {
                let ty = match v {
                    VarId::Global(g) => &inp.program.globals[g].ty,
                    VarId::Local(f, s) => &inp.program.functions[f].locals[s].ty,
                };
                layout.size_of(ty)
            }
        };
        match first {
            None => first = Some((obj, size)),
            Some((_, s)) if s == size => {}
            Some(a) => return Err(FatCause::DisagreeingSizes { a, b: (obj, size) }),
        }
    }
    // A site that reaches nothing has no span to be constant.
    first.map(|(_, s)| s).ok_or(FatCause::OptLevel)
}

fn finish(
    inp: &PlanInputs<'_>,
    expanded: HashSet<PtObj>,
    private_eids: HashSet<u32>,
    promo: Promotion,
) -> ExpansionPlan {
    ExpansionPlan {
        nthreads: inp.nthreads,
        expanded,
        fat_types: promo.fat_types,
        fat_causes: promo.fat_causes,
        fat_ints: promo.fat_ints,
        private_eids,
        const_span: promo.const_span,
        prune_span_work: inp.opt != OptLevel::None,
        heap_localize: inp.heap_localize,
        layout: inp.layout,
    }
}

/// Every `malloc`/`calloc`/`realloc` call, by eid.
fn alloc_calls_by_eid(program: &Program) -> HashMap<u32, &Expr> {
    let mut out = HashMap::default();
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let ExprKind::Call { name, .. } = &e.kind {
                if matches!(name.as_str(), "malloc" | "calloc" | "realloc") {
                    out.insert(e.eid, e);
                }
            }
        });
    }
    out
}

/// `realloc` of an expanded structure must move each thread's copy, which
/// requires the old per-copy span at run time: the pointer being
/// reallocated must be promoted.
fn seed_realloc_types(program: &Program, expanded: &HashSet<PtObj>, promo: &mut Promotion) {
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let ExprKind::Call { name, args } = &e.kind {
                if name == "realloc" && expanded.contains(&PtObj::Alloc(e.eid)) {
                    if let Some(t) = args.first().and_then(|a| a.ty.as_ref()) {
                        let t = t.decayed();
                        if t.is_pointer() {
                            promo.promote(t, FatCause::ReallocExpanded { alloc: e.eid });
                        }
                    }
                }
            }
        });
    }
}

/// Per access eid in `eids`: the pointer type through which it dereferences.
fn base_pointer_types_of_sites(program: &Program, eids: &HashSet<u32>) -> HashMap<u32, Type> {
    let mut out = HashMap::default();
    if eids.is_empty() {
        return out;
    }
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if !eids.contains(&e.eid) {
                return;
            }
            if let Some(AccessRoot::Indirect(base)) = access_root(e) {
                if let Some(t) = &base.ty {
                    let t = t.decayed();
                    if t.is_pointer() {
                        out.insert(e.eid, t);
                    }
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use dse_runtime::VmConfig;

    /// A per-iteration linked list of `struct N`, every node allocated by
    /// `malloc(sizeof(struct N))`; `extra` is spliced into the body before
    /// the walk.
    fn list_program(extra: &str) -> String {
        format!(
            "struct N {{ int v; struct N *next; }};
             int main() {{
               int n; n = 6;
               long total; total = 0;
               #pragma candidate build
               for (int i = 0; i < 8; i++) {{
                 struct N *head; head = 0;
                 for (int k = 0; k < 4; k++) {{
                   struct N *node; node = malloc(sizeof(struct N));
                   node->v = i + k; node->next = head; head = node;
                 }}
                 {extra}
                 int s; s = 0;
                 while (head) {{
                   struct N *dead; dead = head;
                   s += head->v; head = head->next; free(dead);
                 }}
                 total += s;
               }}
               out_long(total);
               return n;
             }}"
        )
    }

    fn plan_of(src: &str, opt: OptLevel) -> (Analysis, ExpansionPlan) {
        let analysis = Analysis::from_source(src, VmConfig::default()).expect("analysis");
        let plan = analysis.plan(opt, 4).expect("plan");
        (analysis, plan)
    }

    fn pointer_to(analysis: &Analysis, name: &str) -> Type {
        let id = analysis.program.types.struct_by_name(name).expect("struct");
        Type::Struct(id).ptr_to()
    }

    #[test]
    fn list_node_allocated_by_one_sizeof_stays_thin() {
        let (analysis, plan) = plan_of(&list_program(""), OptLevel::Full);
        assert!(
            !plan.is_fat(&pointer_to(&analysis, "N")),
            "{:?}",
            plan.fat_causes
        );
        assert!(plan.fat_types.is_empty());
        // Every access through a node pointer strides one thin node.
        assert!(!plan.const_span.is_empty());
        assert!(
            plan.const_span.values().all(|&s| s == 16),
            "{:?}",
            plan.const_span
        );
    }

    #[test]
    fn one_runtime_sized_allocation_turns_the_node_fat_and_is_named() {
        // A block of `n` nodes reaches the same accesses as the single ones.
        let extra = "struct N *blk; blk = malloc(n * sizeof(struct N));
                     blk->v = 0; blk->next = head; head = blk;";
        let (analysis, plan) = plan_of(&list_program(extra), OptLevel::Full);
        let node_ptr = pointer_to(&analysis, "N");
        assert!(plan.is_fat(&node_ptr));
        let mut runtime_sized = None;
        for f in &analysis.program.functions {
            walk_exprs_in_block(&f.body, &mut |e| {
                if let Some(None) = alloc_call_size(e, &mut |t| analysis.program.types.size_of(t)) {
                    runtime_sized = Some(e.eid);
                }
            });
        }
        let alloc = runtime_sized.expect("the n-node block");
        assert_eq!(plan.fat_causes[&node_ptr], FatCause::RuntimeSize { alloc });
        // The fixpoint ran on: `node` still reaches only the single-node
        // site, whose constant is re-measured in the layout the promotion
        // made — a node is 24 bytes now.
        assert!(!plan.const_span.is_empty());
        assert!(
            plan.const_span.values().all(|&s| s == 24),
            "{:?}",
            plan.const_span
        );
    }

    #[test]
    fn two_record_types_pointing_at_each_other_converge() {
        // Cee has no forward declarations: `A` points at `B` through a
        // `void *` it casts back.
        let src = |a_size: &str| {
            format!(
                "struct A {{ void *b; int x; }};
                 struct B {{ struct A *a; long y; long z; }};
                 int main() {{
                   int n; n = 3;
                   long total; total = 0;
                   #pragma candidate pair
                   for (int i = 0; i < 8; i++) {{
                     struct A *a; a = malloc({a_size});
                     struct B *b; b = malloc(sizeof(struct B));
                     a->b = b; a->x = i; b->a = a; b->y = i; b->z = 1;
                     struct B *back; back = (struct B*)a->b;
                     total += back->y + b->a->x;
                     free(a); free(b);
                   }}
                   out_long(total);
                   return n;
                 }}"
            )
        };
        // Both by `sizeof`: both thin, each span its own record.
        let (_, plan) = plan_of(&src("sizeof(struct A)"), OptLevel::Full);
        assert!(plan.fat_types.is_empty(), "{:?}", plan.fat_causes);
        let spans: HashSet<u64> = plan.const_span.values().copied().collect();
        assert_eq!(spans, HashSet::from_iter([16, 24]));
        // `A` allocated with a runtime size: `struct A *` turns fat, which
        // widens `struct B` (its `a` field) to 32 bytes — and `struct B *`
        // stays thin with the *new* size as its constant span.
        let (analysis, plan) = plan_of(&src("n * sizeof(struct A)"), OptLevel::Full);
        assert!(plan.is_fat(&pointer_to(&analysis, "A")));
        assert!(
            !plan.is_fat(&pointer_to(&analysis, "B")),
            "{:?}",
            plan.fat_causes
        );
        let spans: HashSet<u64> = plan.const_span.values().copied().collect();
        assert_eq!(spans, HashSet::from_iter([32]));
    }

    #[test]
    fn pointer_carrying_local_behind_a_private_pointer_has_a_constant_span() {
        let src = "struct S { int *data; int n; };
                   int main() {
                     struct S s; struct S *ps; ps = &s;
                     long total; total = 0;
                     #pragma candidate fill
                     for (int i = 0; i < 8; i++) {
                       ps->n = i; ps->data = 0;
                       total += ps->n;
                     }
                     out_long(total);
                     return 0;
                   }";
        let (analysis, plan) = plan_of(src, OptLevel::Full);
        assert!(
            !plan.is_fat(&pointer_to(&analysis, "S")),
            "{:?}",
            plan.fat_causes
        );
        assert!(!plan.const_span.is_empty());
        assert!(plan.const_span.values().all(|&s| s == 16));
    }

    #[test]
    fn levels_without_constant_spans_plan_as_before() {
        let (analysis, none) = plan_of(&list_program(""), OptLevel::None);
        assert_eq!(none.fat_types, all_pointer_types(&analysis.program));
        assert!(none.fat_causes.values().all(|c| *c == FatCause::OptLevel));
        assert!(none.const_span.is_empty() && !none.prune_span_work);

        let (analysis, noconst) = plan_of(&list_program(""), OptLevel::NoConstSpan);
        assert_eq!(
            noconst.fat_types,
            HashSet::from_iter([pointer_to(&analysis, "N")])
        );
        assert!(noconst.const_span.is_empty() && noconst.prune_span_work);
        // Same structures expanded as at full optimization.
        let full = analysis.plan(OptLevel::Full, 4).unwrap();
        assert_eq!(noconst.expanded, full.expanded);
    }
}
