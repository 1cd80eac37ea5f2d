//! The data-structure-expansion transformation (paper Section 3).
//!
//! Consumes an [`ExpansionPlan`] and rewrites the typed AST:
//!
//! * **Type expansion** (Table 1): expanded locals become `T v[N]`;
//!   expanded globals are re-homed to heap blocks of `N` copies allocated
//!   in a `main` prologue (`__gp_v`), seeded from the original static
//!   initializer with `__memcpy`; expanded allocation sites multiply their
//!   size by `N` (`realloc` becomes `__realloc_expanded`, which moves each
//!   thread's copy).
//! * **Pointer promotion** (Section 3.3.1, Figures 5/6): pointer types in
//!   the plan's fat set grow a span. Memory-resident cells (struct fields,
//!   array elements, heap cells) become `struct __fat { T *ptr; long span; }`
//!   records; scalar variables keep a thin pointer plus a shadow
//!   `long __sp_<name>` (and functions gain shadow span parameters and a
//!   `__retspan` out-parameter — an ABI choice documented in DESIGN.md).
//! * **Span computation** (Table 3): a span assignment is inserted after
//!   every store to a promoted pointer, with the `p = p ± c` dead-store
//!   elision of Section 3.4.
//! * **Redirection** (Table 2): private direct accesses index copy
//!   `__tid()`; private indirect accesses offset the dereferenced pointer
//!   by `__tid() * span / sizeof(*p)`; shared accesses use copy 0 (which is
//!   the original storage). Under [`ExpansionPlan::prune_span_work`] the
//!   offset of a *named* pointer is applied once per assignment of that
//!   pointer instead of once per access: [`crate::hoist`] keeps the
//!   redirected pointer in a body-scoped private `__rd_p[__tid()]`.
//!
//! The transformed program is an ordinary Cee AST: it is re-checked by
//! `dse_lang::sema` (a strong internal-consistency gate) and can be lowered
//! with parallel options or run serially.

use crate::access::{access_root, AccessRoot};
use crate::hoist;
use crate::plan::{ExpansionPlan, LayoutMode};
use dse_analysis::effects::HiddenStores;
use dse_analysis::{PtObj, VarId};
use dse_ir::loops::{find_candidate_loops, CandidateLoop};
use dse_lang::ast::*;
use dse_lang::fasthash::{HashMap, HashSet};
use dse_lang::types::{StructId, Type, TypeTable};
use std::fmt;

/// A transformation failure (unsupported shape) with explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XformError(pub String);

impl fmt::Display for XformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expansion transform error: {}", self.0)
    }
}

impl std::error::Error for XformError {}

/// Statistics for the report (Table 5 and DESIGN.md accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpansionReport {
    /// Expanded heap allocation sites.
    pub expanded_allocs: usize,
    /// Expanded globals.
    pub expanded_globals: usize,
    /// Expanded aggregate locals (arrays/structs — "data structures").
    pub expanded_locals: usize,
    /// Expanded scalar locals (the classic scalar expansion of [4, 5] in
    /// the paper's related work; not counted as data structures).
    pub expanded_scalar_locals: usize,
    /// Promoted (fat) pointer types.
    pub fat_pointer_types: usize,
    /// Promoted span-carrying integers.
    pub fat_int_vars: usize,
    /// Private access sites redirected.
    pub private_accesses_redirected: usize,
    /// Of those, accesses that address through a hoisted `__rd_p` slot
    /// instead of redirecting inline (Section 3.4).
    pub redirections_hoisted: usize,
    /// Derivations of a hoisted slot beyond each pointer's first: the
    /// pointer or its span is assigned inside the candidate body.
    pub redirections_rederived: usize,
    /// Span stores emitted (Table 3).
    pub span_stores_emitted: usize,
    /// Span stores elided by the `p = p ± c` rule (Section 3.4).
    pub span_stores_elided: usize,
}

impl ExpansionReport {
    /// Number of distinct data structures privatized — the Table 5 metric.
    /// Counts heap allocation sites, globals and aggregate locals; expanded
    /// scalars are classic scalar expansion and not "data structures".
    pub fn privatized_structures(&self) -> usize {
        self.expanded_allocs + self.expanded_globals + self.expanded_locals
    }
}

/// Result of the transformation.
#[derive(Debug, Clone)]
pub struct XformResult {
    /// The transformed, re-type-checked, renumbered program.
    pub program: Program,
    /// Per candidate position: the DOACROSS `Wait`/`Post` window over
    /// *transformed* top-level body statement indices.
    pub sync_windows: Vec<Option<(usize, usize)>>,
    /// Per transformed expression id, the originating expression id in the
    /// input program, for every rebuilt node that corresponds 1:1 to a
    /// source access or allocation. Synthesized bookkeeping nodes (span
    /// stores, copy indices, prologue code) hold `NO_EID`.
    pub eid_provenance: Vec<u32>,
    /// Accounting.
    pub report: ExpansionReport,
}

/// Applies the expansion transformation.
///
/// `ordered_eids` holds, per candidate position, the expression ids of the
/// loop's shared loop-carried accesses (used to place the ordered section).
///
/// # Errors
///
/// Returns [`XformError`] for unsupported shapes (impure expressions where
/// span bookkeeping would double-evaluate them, span-carrying pointers in
/// positions the ABI cannot express, etc.). The transformed program is
/// re-checked by sema; any internal inconsistency surfaces as an error
/// here, not as miscompiled code.
pub fn expand_program(
    program: &Program,
    plan: &ExpansionPlan,
    ordered_eids: &[HashSet<u32>],
) -> Result<XformResult, XformError> {
    let tymap = TypeMap::build(&program.types, &plan.fat_types);
    let any_fat_ret = program.functions.iter().any(|f| plan.is_fat(&f.ret_ty));
    let candidates = find_candidate_loops(program).map_err(|e| XformError(e.to_string()))?;
    let mut xf = Xf {
        program,
        plan,
        tymap,
        cur_func: 0,
        any_fat_ret,
        ordered_eids,
        sync_windows: vec![None; candidates.len()],
        candidates,
        report: ExpansionReport::default(),
        redirections: None,
        stores: None,
    };

    // ---- globals ----------------------------------------------------------
    let mut new_globals: Vec<GlobalVar> = Vec::new();
    for (gi, g) in program.globals.iter().enumerate() {
        let v = VarId::Global(gi);
        let mem_ty = xf.tymap.mem(&g.ty);
        if plan.var_expanded(v) {
            xf.report.expanded_globals += 1;
            if g.init.is_some() && mem_ty != xf.tymap.mem_unpromoted(&g.ty) {
                return Err(XformError(format!(
                    "global `{}` has an initializer but its layout changes under promotion",
                    g.name
                )));
            }
            // In-place expansion: N adjacent copies in the data segment
            // (Table 1's layout). The paper re-homes globals to the heap
            // because its N is a run-time value; ours is fixed at transform
            // time, so the data segment can hold the copies directly — see
            // DESIGN.md. The original initializer seeds copy 0; the other
            // copies are zero (private data is written before read).
            let (expanded_ty, init) = if xf.is_interleaved_array(v) {
                if g.init.is_some() {
                    return Err(XformError(format!(
                        "interleaved layout: initializer of global `{}` cannot be \
                         re-laid out element-wise",
                        g.name
                    )));
                }
                (xf.interleave_ty(&g.ty), None)
            } else {
                (
                    mem_ty.clone().array_of(plan.nthreads as u64),
                    g.init.clone().map(|i| ConstInit::List(vec![i])),
                )
            };
            new_globals.push(GlobalVar {
                name: g.name.clone(),
                ty: expanded_ty,
                init,
                span: g.span,
            });
            if plan.fat_ints.contains(&v) {
                xf.report.fat_int_vars += 1;
                new_globals.push(GlobalVar {
                    name: sp_name(&g.name),
                    ty: Type::Long.array_of(plan.nthreads as u64),
                    init: None,
                    span: g.span,
                });
            }
        } else {
            let var_ty = xf.tymap.var(&g.ty);
            new_globals.push(GlobalVar {
                name: g.name.clone(),
                ty: var_ty,
                init: g.init.clone(),
                span: g.span,
            });
            if plan.is_fat(&g.ty) {
                new_globals.push(GlobalVar {
                    name: sp_name(&g.name),
                    ty: Type::Long,
                    init: None,
                    span: g.span,
                });
            }
            if plan.fat_ints.contains(&v) {
                xf.report.fat_int_vars += 1;
                new_globals.push(GlobalVar {
                    name: sp_name(&g.name),
                    ty: Type::Long,
                    init: None,
                    span: g.span,
                });
            }
        }
    }

    // ---- functions ---------------------------------------------------------
    let mut new_functions = Vec::with_capacity(program.functions.len());
    for (fi, f) in program.functions.iter().enumerate() {
        xf.cur_func = fi;
        let mut params: Vec<Param> = f
            .params
            .iter()
            .map(|p| Param {
                name: p.name.clone(),
                ty: xf.tymap.var(&p.ty),
                span: p.span,
            })
            .collect();
        for p in &f.params {
            if plan.is_fat(&p.ty) {
                params.push(Param {
                    name: sp_name(&p.name),
                    ty: Type::Long,
                    span: p.span,
                });
            }
        }
        let ret_fat = plan.is_fat(&f.ret_ty);
        if ret_fat {
            params.push(Param {
                name: "__retspan".into(),
                ty: Type::Long.ptr_to(),
                span: f.span,
            });
        }
        let mut body = xf.rewrite_block(&f.body)?;
        if xf.any_fat_ret {
            // Scratch span receiver for calls whose span result is unused.
            // Expanded per thread: it lives in a shared frame.
            body.stmts.insert(
                0,
                Stmt {
                    kind: StmtKind::Decl {
                        name: "__dspan".into(),
                        ty: Type::Long.array_of(plan.nthreads as u64),
                        init: None,
                        slot: None,
                    },
                    span: f.span,
                },
            );
        }
        new_functions.push(Function {
            name: f.name.clone(),
            ret_ty: xf.tymap.var(&f.ret_ty),
            params,
            body,
            locals: Vec::new(),
            span: f.span,
        });
    }

    let mut out = Program {
        types: xf.tymap.table.clone(),
        globals: new_globals,
        functions: new_functions,
    };
    xf.report.expanded_allocs = plan
        .expanded
        .iter()
        .filter(|o| matches!(o, PtObj::Alloc(_)))
        .count();
    for o in &plan.expanded {
        if let PtObj::Var(VarId::Local(fi, slot)) = o {
            let ty = &program.functions[*fi].locals[*slot].ty;
            if ty.is_aggregate() || ty.is_pointer() {
                // Pointer locals stand for the dynamic structures they
                // carry across statements (e.g. a rebuilt list head).
                xf.report.expanded_locals += 1;
            } else {
                xf.report.expanded_scalar_locals += 1;
            }
        }
    }
    xf.report.fat_pointer_types = plan.fat_types.len();
    let report = xf.report.clone();

    // Internal consistency gate: the transformed program must type-check.
    dse_lang::sema::check(&mut out)
        .map_err(|e| XformError(format!("transformed program failed sema: {e}")))?;
    // Rebuilt access nodes still carry their *source* eids (stamped by the
    // rewriter); collect them in the exact order `number_exprs` visits, so
    // the `i`-th is the origin of the node renumbered `i`.
    let mut eid_provenance = Vec::new();
    for f in &mut out.functions {
        visit_exprs_in_block(&mut f.body, &mut |e| eid_provenance.push(e.eid));
    }
    dse_lang::ast::number_exprs(&mut out);
    Ok(XformResult {
        program: out,
        sync_windows: xf.sync_windows,
        eid_provenance,
        report,
    })
}

// ---------------------------------------------------------------------------
// type mapping
// ---------------------------------------------------------------------------

/// Maps original types to promoted types over a fresh [`TypeTable`]: the
/// layout the transformed program has under a given set of fat pointer
/// types. The planner sizes objects with it; the rewriter emits it.
pub(crate) struct TypeMap {
    table: TypeTable,
    struct_map: HashMap<StructId, StructId>,
    fat_map: HashMap<Type, StructId>,
    fat_types: HashSet<Type>,
}

impl TypeMap {
    pub(crate) fn build(orig: &TypeTable, fat: &HashSet<Type>) -> TypeMap {
        let mut tm = TypeMap {
            table: TypeTable::new(),
            struct_map: HashMap::default(),
            fat_map: HashMap::default(),
            fat_types: fat.clone(),
        };
        // Declare all original structs first so pointer fields can refer to
        // them (including self-references).
        for s in orig.structs() {
            let id = tm.table.declare_struct(s.name.clone());
            tm.struct_map
                .insert(StructId(tm.struct_map.len() as u32), id);
        }
        for (i, s) in orig.structs().iter().enumerate() {
            let fields = s
                .fields
                .iter()
                .map(|f| (f.name.clone(), tm.mem(&f.ty)))
                .collect();
            let new_id = tm.struct_map[&StructId(i as u32)];
            tm.table
                .complete_struct(new_id, fields)
                .expect("original structs are finite");
        }
        tm
    }

    /// Bytes a value of original type `ty` occupies in promoted memory.
    pub(crate) fn size_of(&mut self, ty: &Type) -> u64 {
        let t = self.mem(ty);
        self.table.size_of(&t)
    }

    /// The promoted type as stored in memory (fat cells become structs).
    fn mem(&mut self, ty: &Type) -> Type {
        match ty {
            Type::Pointer(inner) => {
                if self.fat_types.contains(ty) {
                    Type::Struct(self.fat_struct(ty))
                } else {
                    self.mem(inner).ptr_to()
                }
            }
            Type::Array(elem, n) => self.mem(elem).array_of(*n),
            Type::Struct(id) => Type::Struct(self.struct_map[id]),
            prim => prim.clone(),
        }
    }

    /// The promoted type ignoring fatness entirely (used to detect layout
    /// changes for initialized globals).
    fn mem_unpromoted(&self, ty: &Type) -> Type {
        match ty {
            Type::Pointer(inner) => self.mem_unpromoted(inner).ptr_to(),
            Type::Array(elem, n) => self.mem_unpromoted(elem).array_of(*n),
            Type::Struct(id) => Type::Struct(self.struct_map[id]),
            prim => prim.clone(),
        }
    }

    /// The promoted type for a scalar variable/parameter declaration: fat
    /// pointers stay thin here (span lives in a shadow variable).
    fn var(&mut self, ty: &Type) -> Type {
        match ty {
            Type::Pointer(inner) => self.mem(inner).ptr_to(),
            other => self.mem(other),
        }
    }

    /// The fat record for an original pointer type.
    fn fat_struct(&mut self, ptr_ty: &Type) -> StructId {
        if let Some(&id) = self.fat_map.get(ptr_ty) {
            return id;
        }
        let Type::Pointer(inner) = ptr_ty else {
            unreachable!("fat types are pointer types");
        };
        let name = format!("__fat_{}", self.fat_map.len());
        let id = self.table.declare_struct(name);
        self.fat_map.insert(ptr_ty.clone(), id);
        let ptr_field_ty = self.mem(inner).ptr_to();
        self.table
            .complete_struct(
                id,
                vec![("ptr".into(), ptr_field_ty), ("span".into(), Type::Long)],
            )
            .expect("fat records cannot embed themselves");
        id
    }
}

// ---------------------------------------------------------------------------
// expression builders (untyped; sema re-types the output program)
// ---------------------------------------------------------------------------

fn u(kind: ExprKind) -> Expr {
    Expr::new(kind, dse_lang::SourceSpan::default())
}

pub(crate) fn var(name: &str) -> Expr {
    u(ExprKind::Var {
        name: name.into(),
        binding: None,
    })
}

fn ilit(v: i64) -> Expr {
    u(ExprKind::IntLit(v))
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    u(ExprKind::Call {
        name: name.into(),
        args,
    })
}

pub(crate) fn tid() -> Expr {
    call("__tid", vec![])
}

pub(crate) fn idx(base: Expr, i: Expr) -> Expr {
    u(ExprKind::Index {
        base: Box::new(base),
        index: Box::new(i),
    })
}

fn fld(base: Expr, f: &str) -> Expr {
    u(ExprKind::Field {
        base: Box::new(base),
        field: f.into(),
    })
}

fn deref(p: Expr) -> Expr {
    u(ExprKind::Deref(Box::new(p)))
}

fn addrof(e: Expr) -> Expr {
    u(ExprKind::AddrOf(Box::new(e)))
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    u(ExprKind::Binary(op, Box::new(l), Box::new(r)))
}

fn mul(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Mul, l, r)
}

fn assign(lhs: Expr, rhs: Expr) -> Expr {
    u(ExprKind::Assign {
        op: AssignOp::Set,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    })
}

fn sizeof_ty(t: Type) -> Expr {
    u(ExprKind::SizeofType(t))
}

fn estmt(e: Expr) -> Stmt {
    Stmt {
        kind: StmtKind::Expr(e),
        span: dse_lang::SourceSpan::default(),
    }
}

fn decl(name: &str, ty: Type, init: Option<Expr>) -> Stmt {
    Stmt {
        kind: StmtKind::Decl {
            name: name.into(),
            ty,
            init,
            slot: None,
        },
        span: dse_lang::SourceSpan::default(),
    }
}

fn sp_name(name: &str) -> String {
    format!("__sp_{name}")
}

/// Carries the source node's expression id and span onto a rebuilt node, so
/// transformed sites can be mapped back to the original access (consumed by
/// the `dse-verify` invariant checker after renumbering) and diagnostics
/// point at real source locations.
fn stamp(mut e: Expr, src: &Expr) -> Expr {
    e.eid = src.eid;
    e.span = src.span;
    e
}

// ---------------------------------------------------------------------------
// the rewriter
// ---------------------------------------------------------------------------

struct Xf<'a> {
    program: &'a Program,
    plan: &'a ExpansionPlan,
    tymap: TypeMap,
    cur_func: usize,
    any_fat_ret: bool,
    ordered_eids: &'a [HashSet<u32>],
    sync_windows: Vec<Option<(usize, usize)>>,
    /// The program's candidate loops; a candidate `for`'s position here
    /// indexes `ordered_eids` and `sync_windows`.
    candidates: Vec<CandidateLoop<'a>>,
    report: ExpansionReport,
    /// While a candidate body is being rewritten with span-work pruning on:
    /// the inline redirections of named pointers emitted so far, which
    /// [`hoist`] may derive once per assignment instead.
    redirections: Option<Vec<(VarId, Expr, Type)>>,
    /// Who can store a variable behind a statement's back (computed on
    /// first use).
    stores: Option<HiddenStores>,
}

impl<'a> Xf<'a> {
    fn err(&self, msg: impl Into<String>) -> XformError {
        XformError(msg.into())
    }

    fn var_id(&self, b: VarBinding) -> VarId {
        match b {
            VarBinding::Global(g) => VarId::Global(g),
            VarBinding::Local(s) => VarId::Local(self.cur_func, s),
        }
    }

    fn var_name(&self, v: VarId) -> &str {
        match v {
            VarId::Global(g) => &self.program.globals[g].name,
            VarId::Local(f, s) => &self.program.functions[f].locals[s].name,
        }
    }

    fn var_ty(&self, v: VarId) -> &Type {
        match v {
            VarId::Global(g) => &self.program.globals[g].ty,
            VarId::Local(f, s) => &self.program.functions[f].locals[s].ty,
        }
    }

    fn is_private(&self, eid: u32) -> bool {
        self.plan.private_eids.contains(&eid)
    }

    /// True when `v` is an expanded *array* under the interleaved layout
    /// (its copy index goes innermost: `v[i][tid]`).
    fn is_interleaved_array(&self, v: VarId) -> bool {
        self.plan.layout == LayoutMode::Interleaved
            && self.plan.var_expanded(v)
            && matches!(self.var_ty(v), Type::Array(..))
    }

    /// The interleaved memory type: each innermost element replicated N
    /// times (`T v[n]` -> `T v[n][N]`).
    fn interleave_ty(&mut self, ty: &Type) -> Type {
        match ty {
            Type::Array(elem, n) => self.interleave_ty(elem).array_of(*n),
            prim => self.tymap.mem(prim).array_of(self.plan.nthreads as u64),
        }
    }

    /// Copy index for the access with the given eid: `__tid()` for private
    /// accesses, 0 for shared ones.
    fn copy_index(&mut self, eid: u32) -> Expr {
        if self.is_private(eid) {
            self.report.private_accesses_redirected += 1;
            tid()
        } else {
            ilit(0)
        }
    }

    // ---- statements --------------------------------------------------------

    fn rewrite_block(&mut self, b: &Block) -> Result<Block, XformError> {
        let mut stmts = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            stmts.extend(self.rewrite_stmt(s)?);
        }
        Ok(Block { stmts })
    }

    fn rewrite_stmt(&mut self, s: &Stmt) -> Result<Vec<Stmt>, XformError> {
        let span = s.span;
        Ok(match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                init,
                slot,
            } => {
                let v = VarId::Local(self.cur_func, slot.expect("typed AST"));
                let is_fat_ptr = self.plan.is_fat(ty);
                let mut out = Vec::new();
                if self.plan.var_expanded(v) {
                    let expanded_ty = if self.is_interleaved_array(v) {
                        let orig = self.var_ty(v).clone();
                        self.interleave_ty(&orig)
                    } else {
                        self.tymap.mem(ty).array_of(self.plan.nthreads as u64)
                    };
                    out.push(Stmt {
                        kind: StmtKind::Decl {
                            name: name.clone(),
                            ty: expanded_ty,
                            init: None,
                            slot: None,
                        },
                        span,
                    });
                    if self.plan.fat_ints.contains(&v) {
                        // Expanded difference integer: its span is per-copy.
                        self.report.fat_int_vars += 1;
                        out.push(Stmt {
                            kind: StmtKind::Decl {
                                name: sp_name(name),
                                ty: Type::Long.array_of(self.plan.nthreads as u64),
                                init: None,
                                slot: None,
                            },
                            span,
                        });
                    }
                    if let Some(init) = init {
                        let k = self.copy_index(init.eid);
                        // The decl-init store site is keyed by the
                        // initializer's eid in both programs.
                        let lv_cell = stamp(idx(var(name), k), init);
                        if is_fat_ptr {
                            out.extend(self.emit_ptr_assign_cell(lv_cell, init)?);
                        } else if ty.is_aggregate() {
                            return Err(self.err(format!(
                                "expanded aggregate `{name}` cannot have an initializer"
                            )));
                        } else if self.plan.fat_ints.contains(&v) {
                            // `long d = p - q;` on an expanded difference
                            // integer: the span cell must be written too.
                            let mut lhs = Expr::typed(
                                ExprKind::Var {
                                    name: name.clone(),
                                    binding: Some(VarBinding::Local(slot.expect("typed AST"))),
                                },
                                ty.clone(),
                            );
                            lhs.eid = init.eid;
                            out.extend(self.emit_int_diff_assign(&lhs, init)?);
                        } else {
                            let rhs = self.rewrite_expr(init)?;
                            out.push(estmt(assign(lv_cell, rhs)));
                        }
                    }
                } else if is_fat_ptr {
                    out.push(Stmt {
                        kind: StmtKind::Decl {
                            name: name.clone(),
                            ty: self.tymap.var(ty),
                            init: None,
                            slot: None,
                        },
                        span,
                    });
                    out.push(Stmt {
                        kind: StmtKind::Decl {
                            name: sp_name(name),
                            ty: Type::Long,
                            init: None,
                            slot: None,
                        },
                        span,
                    });
                    if let Some(init) = init {
                        out.extend(self.emit_ptr_assign_var(name, init)?);
                    }
                } else {
                    let is_fat_int = self.plan.fat_ints.contains(&v);
                    if is_fat_int {
                        self.report.fat_int_vars += 1;
                        out.push(Stmt {
                            kind: StmtKind::Decl {
                                name: sp_name(name),
                                ty: Type::Long,
                                init: None,
                                slot: None,
                            },
                            span,
                        });
                    }
                    if is_fat_int && init.is_some() {
                        // `long d = p - q;` must also store d's span
                        // (Table 3 "Pointer arithmetic 2"): desugar into a
                        // declaration plus the span-maintaining assignment.
                        out.push(Stmt {
                            kind: StmtKind::Decl {
                                name: name.clone(),
                                ty: self.tymap.var(ty),
                                init: None,
                                slot: None,
                            },
                            span,
                        });
                        let init = init.as_ref().expect("checked above");
                        let mut lhs = Expr::typed(
                            ExprKind::Var {
                                name: name.clone(),
                                binding: Some(VarBinding::Local(slot.expect("typed AST"))),
                            },
                            ty.clone(),
                        );
                        lhs.eid = init.eid;
                        out.extend(self.emit_int_diff_assign(&lhs, init)?);
                    } else {
                        let init = init.as_ref().map(|e| self.rewrite_expr(e)).transpose()?;
                        out.push(Stmt {
                            kind: StmtKind::Decl {
                                name: name.clone(),
                                ty: self.tymap.var(ty),
                                init,
                                slot: None,
                            },
                            span,
                        });
                    }
                }
                out
            }
            StmtKind::Expr(e) => self.rewrite_expr_stmt(e)?,
            StmtKind::If { cond, then, els } => vec![Stmt {
                kind: StmtKind::If {
                    cond: self.rewrite_expr(cond)?,
                    then: self.rewrite_block(then)?,
                    els: els.as_ref().map(|b| self.rewrite_block(b)).transpose()?,
                },
                span,
            }],
            StmtKind::While { cond, body, mark } => vec![Stmt {
                kind: StmtKind::While {
                    cond: self.rewrite_expr(cond)?,
                    body: self.rewrite_block(body)?,
                    mark: mark.clone(),
                },
                span,
            }],
            StmtKind::DoWhile { body, cond, mark } => vec![Stmt {
                kind: StmtKind::DoWhile {
                    body: self.rewrite_block(body)?,
                    cond: self.rewrite_expr(cond)?,
                    mark: mark.clone(),
                },
                span,
            }],
            StmtKind::For {
                init,
                cond,
                step,
                body,
                mark,
            } => {
                // An expanded/promoted loop variable splits the init into
                // several statements; hoist them into a wrapping block (not
                // allowed for candidate loops, whose induction variable is
                // excluded from expansion by the plan).
                let mut hoisted: Vec<Stmt> = Vec::new();
                let init = match init {
                    Some(i) => {
                        let mut stmts = self.rewrite_stmt(i)?;
                        if stmts.len() == 1 {
                            Some(Box::new(stmts.remove(0)))
                        } else if mark.candidate {
                            return Err(self.err(
                                "candidate loop init must stay a single statement \
                                 (the induction variable cannot be promoted or expanded)",
                            ));
                        } else {
                            hoisted = stmts;
                            None
                        }
                    }
                    None => None,
                };
                let cond = cond.as_ref().map(|c| self.rewrite_expr(c)).transpose()?;
                let step = match step {
                    Some(st) => {
                        let mut stmts = self.rewrite_expr_stmt(st)?;
                        if stmts.len() != 1 {
                            return Err(self.err(
                                "span-carrying pointer update in a for-step is not \
                                 supported; move it into the loop body",
                            ));
                        }
                        let Stmt {
                            kind: StmtKind::Expr(e),
                            ..
                        } = stmts.remove(0)
                        else {
                            return Err(self.err("for-step must remain an expression"));
                        };
                        Some(e)
                    }
                    None => None,
                };
                let body = if mark.candidate {
                    self.rewrite_candidate_body(s, body)?
                } else {
                    self.rewrite_block(body)?
                };
                let for_stmt = Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                        mark: mark.clone(),
                    },
                    span,
                };
                if hoisted.is_empty() {
                    vec![for_stmt]
                } else {
                    hoisted.push(for_stmt);
                    vec![Stmt {
                        kind: StmtKind::Block(Block { stmts: hoisted }),
                        span,
                    }]
                }
            }
            StmtKind::Break => vec![Stmt {
                kind: StmtKind::Break,
                span,
            }],
            StmtKind::Continue => vec![Stmt {
                kind: StmtKind::Continue,
                span,
            }],
            StmtKind::Return(e) => {
                let ret_ty = self.program.functions[self.cur_func].ret_ty.clone();
                let mut out = Vec::new();
                if let Some(e) = e {
                    if self.plan.is_fat(&ret_ty) {
                        let sp = self.span_of(e)?;
                        let sp = match sp {
                            SpanVal::Expr(x) => x,
                            SpanVal::FromCallee => {
                                return Err(self.err(
                                    "returning a call result directly through a fat return \
                                     is not supported; assign it to a local first",
                                ))
                            }
                        };
                        out.push(estmt(assign(deref(var("__retspan")), sp)));
                    }
                    let e = self.rewrite_expr(e)?;
                    out.push(Stmt {
                        kind: StmtKind::Return(Some(e)),
                        span,
                    });
                } else {
                    out.push(Stmt {
                        kind: StmtKind::Return(None),
                        span,
                    });
                }
                out
            }
            StmtKind::Block(b) => vec![Stmt {
                kind: StmtKind::Block(self.rewrite_block(b)?),
                span,
            }],
        })
    }

    /// Rewrites a candidate loop body, tracking the statement-index mapping
    /// so DOACROSS sync windows survive statement splitting.
    fn rewrite_candidate_body(
        &mut self,
        for_stmt: &Stmt,
        body: &Block,
    ) -> Result<Block, XformError> {
        let k = self
            .candidates
            .iter()
            .position(|c| std::ptr::eq(c.stmt, for_stmt))
            .ok_or_else(|| self.err("candidate loop outside the program's loop table"))?;
        let ordered = self.ordered_eids.get(k);
        let collect = self.plan.prune_span_work && !self.plan.heap_localize;
        let outer = std::mem::replace(&mut self.redirections, collect.then(Vec::new));
        let mut stmts = Vec::new();
        // Per rewritten statement: does its source statement touch an
        // ordered shared site?
        let mut sync: Vec<bool> = Vec::new();
        for orig in &body.stmts {
            stmts.extend(self.rewrite_stmt(orig)?);
            let mentions = ordered.is_some_and(|set| stmt_mentions_eids(self.program, orig, set));
            sync.resize(stmts.len(), mentions);
        }
        let redirections = std::mem::replace(&mut self.redirections, outer);
        self.hoist_redirections(redirections.unwrap_or_default(), &mut stmts, &mut sync);
        let first = sync.iter().position(|&s| s);
        let last = sync.iter().rposition(|&s| s);
        self.sync_windows[k] = match (first, last) {
            (Some(f), Some(l)) => Some((f, l)),
            // Sync sites exist but none found in the direct body (they hide
            // in callees): order the whole body.
            _ if ordered.is_some_and(|set| !set.is_empty()) && !stmts.is_empty() => {
                Some((0, stmts.len() - 1))
            }
            _ => None,
        };
        Ok(Block { stmts })
    }

    /// Section 3.4 on one rewritten candidate body: each named pointer the
    /// body redirected inline in one consistent way is offered to
    /// [`hoist::hoist`], in order of first use.
    fn hoist_redirections(
        &mut self,
        redirections: Vec<(VarId, Expr, Type)>,
        stmts: &mut Vec<Stmt>,
        sync: &mut Vec<bool>,
    ) {
        let mut seen: Vec<VarId> = Vec::new();
        for (v, inline, ptr_ty) in &redirections {
            if seen.contains(v) {
                continue;
            }
            seen.push(*v);
            // One slot serves one pointer value: every redirection of `v`
            // must read the same copy of it with the same span.
            let consistent = redirections
                .iter()
                .all(|(w, other, _)| w != v || same_shape(other, inline));
            if !consistent || !self.stores_are_visible(*v) {
                continue;
            }
            let cand = hoist::Candidate {
                name: self.var_name(*v).to_string(),
                expanded: self.plan.var_expanded(*v),
                inline: inline.clone(),
                ptr_ty: ptr_ty.clone(),
                killers: self.functions_storing(*v),
            };
            if let Some(h) = hoist::hoist(stmts, sync, &cand, self.plan.nthreads as u64) {
                self.report.redirections_hoisted += h.uses;
                self.report.redirections_rederived += h.derivations - 1;
            }
        }
    }

    /// Can every store to `v` be seen as an assignment naming it (or a call
    /// to a function in [`Xf::functions_storing`])? Its address must never
    /// be taken, and its name must mean one variable throughout the
    /// function, because the hoisting pass works on the untyped output.
    fn stores_are_visible(&mut self, v: VarId) -> bool {
        let program = self.program;
        let stores = self.stores.get_or_insert_with(|| HiddenStores::of(program));
        if stores.addr_taken.contains(&v) {
            return false;
        }
        let name = self.var_name(v);
        let locals = &self.program.functions[self.cur_func].locals;
        let homonyms = locals.iter().filter(|l| l.name == name).count()
            + self
                .program
                .globals
                .iter()
                .filter(|g| g.name == name)
                .count();
        homonyms == 1
    }

    /// The user functions a call to which may assign the global `v`.
    fn functions_storing(&mut self, v: VarId) -> HashSet<String> {
        let VarId::Global(g) = v else {
            return HashSet::default();
        };
        let program = self.program;
        let stores = self.stores.get_or_insert_with(|| HiddenStores::of(program));
        stores.functions_assigning(program, g)
    }

    /// Rewrites an expression statement, splitting span-carrying pointer
    /// assignments into multiple statements.
    fn rewrite_expr_stmt(&mut self, e: &Expr) -> Result<Vec<Stmt>, XformError> {
        if let ExprKind::Assign {
            op: AssignOp::Set,
            lhs,
            rhs,
        } = &e.kind
        {
            let lt = lhs.ty().decayed();
            // Span-carrying pointer destinations.
            if lt.is_pointer() && self.dst_carries_span(lhs) {
                return self.emit_ptr_assign(lhs, rhs);
            }
            // Promoted pointer-difference integers: i = p - q.
            if lt.is_integer() {
                if let ExprKind::Var {
                    binding: Some(b), ..
                } = &lhs.kind
                {
                    let v = self.var_id(*b);
                    if self.plan.fat_ints.contains(&v) {
                        return self.emit_int_diff_assign(lhs, rhs);
                    }
                }
            }
            // Plain or thin-pointer assignment.
            let l = self.rewrite_expr(lhs)?;
            let r = self.rewrite_expr(rhs)?;
            return Ok(vec![estmt(assign(l, r))]);
        }
        Ok(vec![estmt(self.rewrite_expr(e)?)])
    }

    /// Does storing to this lvalue require a span update? True when the
    /// destination is a fat scalar variable, an expanded fat variable, or a
    /// fat memory cell.
    fn dst_carries_span(&self, lhs: &Expr) -> bool {
        let ty = lhs.ty();
        if !self.plan.is_fat(&ty.decayed()) {
            return false;
        }
        true
    }

    /// `i = p - q` for a promoted difference integer: also set its span
    /// (Table 3 "Pointer arithmetic 2").
    fn emit_int_diff_assign(&mut self, lhs: &Expr, rhs: &Expr) -> Result<Vec<Stmt>, XformError> {
        let ExprKind::Var { name, .. } = &lhs.kind else {
            return Err(self.err("promoted difference integers must be plain variables"));
        };
        let ExprKind::Binary(BinOp::Sub, p, q) = &rhs.kind else {
            return Err(self.err(format!(
                "promoted integer `{name}` may only be assigned pointer differences"
            )));
        };
        let sp_p = self.span_expr(p)?;
        let sp_q = self.span_expr(q)?;
        let span_place = self.fat_int_span_place(lhs);
        let value_place = self.rewrite_place(lhs)?;
        let r = self.rewrite_expr(rhs)?;
        self.report.span_stores_emitted += 1;
        Ok(vec![
            estmt(assign(value_place, r)),
            estmt(assign(span_place, bin(BinOp::Sub, sp_p, sp_q))),
        ])
    }

    // ---- pointer assignments with spans (Table 3) ---------------------------

    /// Assignment into a fat destination given as an original lvalue.
    fn emit_ptr_assign(&mut self, lhs: &Expr, rhs: &Expr) -> Result<Vec<Stmt>, XformError> {
        // Fat scalar variable (thin repr + shadow)?
        if let ExprKind::Var {
            binding: Some(b),
            name,
            ..
        } = &lhs.kind
        {
            let v = self.var_id(*b);
            if !self.plan.var_expanded(v) {
                return self.emit_ptr_assign_var(name, rhs);
            }
        }
        // Otherwise the destination is a fat memory cell.
        if !lvalue_is_pure(lhs) {
            return Err(
                self.err("store to a fat pointer cell with side-effecting address expression")
            );
        }
        let cell = self.rewrite_place(lhs)?;
        self.emit_ptr_assign_cell(cell, rhs)
    }

    /// `p = rhs` where `p` is a fat scalar variable with shadow span.
    ///
    /// The span is computed into a scoped temporary *before* the pointer is
    /// updated, because the span expression may read the destination (e.g.
    /// `p = p->next` reads `p`'s span for the redirection offset).
    fn emit_ptr_assign_var(&mut self, name: &str, rhs: &Expr) -> Result<Vec<Stmt>, XformError> {
        if self.plan.prune_span_work && span_preserving_self_update(rhs, name) {
            self.report.span_stores_elided += 1;
            let r = self.rewrite_expr(rhs)?;
            return Ok(vec![estmt(assign(var(name), r))]);
        }
        let n = self.plan.nthreads as u64;
        match self.span_of(rhs)? {
            SpanVal::Expr(sp) => {
                let r = self.rewrite_expr(rhs)?;
                self.report.span_stores_emitted += 1;
                // The temporary is expanded (one slot per thread): it lives
                // in the enclosing function's shared frame, so a plain
                // scalar would race when this assignment executes inside a
                // parallel loop body.
                Ok(vec![Stmt {
                    kind: StmtKind::Block(Block {
                        stmts: vec![
                            decl("__pa_s", Type::Long.array_of(n), None),
                            estmt(assign(idx(var("__pa_s"), tid()), sp)),
                            estmt(assign(var(name), r)),
                            estmt(assign(var(&sp_name(name)), idx(var("__pa_s"), tid()))),
                        ],
                    }),
                    span: dse_lang::SourceSpan::default(),
                }])
            }
            SpanVal::FromCallee => {
                // p = f(...): pass &__sp_p as the span out-parameter (the
                // call evaluates its arguments before writing anything).
                let callexpr = self.rewrite_call_with_retspan(rhs, addrof(var(&sp_name(name))))?;
                self.report.span_stores_emitted += 1;
                Ok(vec![estmt(assign(var(name), callexpr))])
            }
        }
    }

    /// `cell = rhs` where `cell` is an already-rewritten fat record place.
    ///
    /// Both the pointer and span values are computed into scoped
    /// temporaries before either field is written: the right-hand side may
    /// read the destination (`head = head->next`).
    fn emit_ptr_assign_cell(&mut self, cell: Expr, rhs: &Expr) -> Result<Vec<Stmt>, XformError> {
        let ptr_ty = {
            let t = rhs.ty().decayed();
            let pointee = t.pointee().cloned().unwrap_or(Type::Void);
            self.tymap.mem(&pointee).ptr_to()
        };
        let n = self.plan.nthreads as u64;
        self.report.span_stores_emitted += 1;
        // Both temporaries are expanded (one slot per thread): they live in
        // the enclosing function's shared frame and would otherwise race
        // across workers.
        match self.span_of(rhs)? {
            SpanVal::Expr(sp) => {
                let r = self.rewrite_expr(rhs)?;
                Ok(vec![Stmt {
                    kind: StmtKind::Block(Block {
                        stmts: vec![
                            decl("__pa_t", ptr_ty.array_of(n), None),
                            decl("__pa_s", Type::Long.array_of(n), None),
                            estmt(assign(idx(var("__pa_t"), tid()), r)),
                            estmt(assign(idx(var("__pa_s"), tid()), sp)),
                            // The `.ptr` store is the site that replaces the
                            // original assignment's store; the `.span` store
                            // is pure bookkeeping and stays synthetic.
                            estmt(assign(
                                stamp(fld(cell.clone(), "ptr"), &cell),
                                idx(var("__pa_t"), tid()),
                            )),
                            estmt(assign(fld(cell, "span"), idx(var("__pa_s"), tid()))),
                        ],
                    }),
                    span: dse_lang::SourceSpan::default(),
                }])
            }
            SpanVal::FromCallee => {
                let callexpr =
                    self.rewrite_call_with_retspan(rhs, addrof(idx(var("__pa_s"), tid())))?;
                Ok(vec![Stmt {
                    kind: StmtKind::Block(Block {
                        stmts: vec![
                            decl("__pa_s", Type::Long.array_of(n), None),
                            decl("__pa_t", ptr_ty.array_of(n), None),
                            estmt(assign(idx(var("__pa_t"), tid()), callexpr)),
                            estmt(assign(
                                stamp(fld(cell.clone(), "ptr"), &cell),
                                idx(var("__pa_t"), tid()),
                            )),
                            estmt(assign(fld(cell, "span"), idx(var("__pa_s"), tid()))),
                        ],
                    }),
                    span: dse_lang::SourceSpan::default(),
                }])
            }
        }
    }

    /// Rewrites a user call expression appending the given span receiver.
    fn rewrite_call_with_retspan(&mut self, e: &Expr, retspan: Expr) -> Result<Expr, XformError> {
        let rewritten = self.rewrite_expr(e)?;
        let ExprKind::Call { name, mut args } = rewritten.kind else {
            return Err(self.err("span-from-callee requires a direct call"));
        };
        // rewrite_expr appended a discard receiver; replace it.
        let last = args.last_mut().expect("fat-return calls have a receiver");
        *last = retspan;
        Ok(u(ExprKind::Call { name, args }))
    }

    // ---- span computation (Table 3) -----------------------------------------

    /// The span value of a pointer-producing expression.
    fn span_of(&mut self, e: &Expr) -> Result<SpanVal, XformError> {
        match &e.kind {
            ExprKind::IntLit(0) => Ok(SpanVal::Expr(ilit(0))),
            ExprKind::Call { name, args } => match name.as_str() {
                // Table 3 "Memory allocation": span is the per-copy size.
                "malloc" => {
                    let a = &args[0];
                    if !dse_ir::loops::expr_is_pure(a) {
                        return Err(
                            self.err("allocation size with side effects cannot be used as a span")
                        );
                    }
                    Ok(SpanVal::Expr(self.rewrite_expr(a)?))
                }
                "calloc" => {
                    for a in args {
                        if !dse_ir::loops::expr_is_pure(a) {
                            return Err(self.err(
                                "allocation size with side effects cannot be used as a span",
                            ));
                        }
                    }
                    let n = self.rewrite_expr(&args[0])?;
                    let m = self.rewrite_expr(&args[1])?;
                    Ok(SpanVal::Expr(mul(n, m)))
                }
                "realloc" => {
                    let a = &args[1];
                    if !dse_ir::loops::expr_is_pure(a) {
                        return Err(
                            self.err("allocation size with side effects cannot be used as a span")
                        );
                    }
                    Ok(SpanVal::Expr(self.rewrite_expr(a)?))
                }
                _ => {
                    // User function returning a fat pointer.
                    Ok(SpanVal::FromCallee)
                }
            },
            // Table 3 "Address taken": the span is the size of the whole
            // named object (its copies are that far apart).
            ExprKind::AddrOf(inner) => match access_root(inner) {
                Some(AccessRoot::Direct(b)) => {
                    let v = self.var_id(b);
                    let t = self.tymap.mem(&self.var_ty(v).clone());
                    Ok(SpanVal::Expr(sizeof_ty(t)))
                }
                Some(AccessRoot::Indirect(base)) => {
                    // &p->f / &p[i]: same structure as p — same span.
                    let sp = self.span_expr(base)?;
                    Ok(SpanVal::Expr(sp))
                }
                None => Err(self.err("cannot compute span of address expression")),
            },
            // Table 3 "Pointer assignment" and arithmetic: copy the span.
            ExprKind::Cast(_, inner) => self.span_of(inner),
            ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
                let (ptr_side, int_side) = if l.ty().decayed().is_pointer() {
                    (l, r)
                } else {
                    (r, l)
                };
                let base = self.span_expr(ptr_side)?;
                // Table 3 "Pointer arithmetic 3": adjust by a promoted
                // integer's span when one is involved.
                if let ExprKind::Var {
                    binding: Some(b), ..
                } = &int_side.kind
                {
                    let v = self.var_id(*b);
                    if self.plan.fat_ints.contains(&v) {
                        let op = if matches!(e.kind, ExprKind::Binary(BinOp::Add, ..)) {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        let sp = self.fat_int_span_place(int_side);
                        return Ok(SpanVal::Expr(bin(op, base, sp)));
                    }
                }
                Ok(SpanVal::Expr(base))
            }
            ExprKind::Cond(c, a, b) => {
                if !dse_ir::loops::expr_is_pure(c) {
                    return Err(self.err("impure `?:` condition in pointer assignment"));
                }
                let ca = self.span_of(a)?;
                let cb = self.span_of(b)?;
                match (ca, cb) {
                    (SpanVal::Expr(x), SpanVal::Expr(y)) => {
                        let c = self.rewrite_expr(c)?;
                        Ok(SpanVal::Expr(u(ExprKind::Cond(
                            Box::new(c),
                            Box::new(x),
                            Box::new(y),
                        ))))
                    }
                    _ => Err(self.err("`?:` over call results in pointer assignment")),
                }
            }
            _ => {
                let sp = self.span_expr(e)?;
                Ok(SpanVal::Expr(sp))
            }
        }
    }

    /// The span of a pointer-valued *storage* expression (variable or fat
    /// memory cell), re-evaluating the place.
    fn span_expr(&mut self, e: &Expr) -> Result<Expr, XformError> {
        match &e.kind {
            ExprKind::Var {
                binding: Some(b),
                name,
                ..
            } => {
                let v = self.var_id(*b);
                let ty = e.ty();
                if matches!(ty, Type::Array(..)) {
                    // Array decay: the object's size is static.
                    let t = self.tymap.mem(&self.var_ty(v).clone());
                    return Ok(sizeof_ty(t));
                }
                if self.plan.var_expanded(v) {
                    // Expanded fat variable: span lives in the cell.
                    let k = self.copy_index(e.eid);
                    return Ok(fld(idx(self.root_expr(v), k), "span"));
                }
                if self.plan.is_fat(&ty.decayed()) {
                    return Ok(var(&sp_name(name)));
                }
                Err(self.err(format!(
                    "pointer `{name}` needs a span but is not promoted (plan bug?)"
                )))
            }
            ExprKind::Cast(_, inner) => self.span_expr(inner),
            ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
                let ptr_side = if l.ty().decayed().is_pointer() { l } else { r };
                self.span_expr(ptr_side)
            }
            ExprKind::Index { .. } | ExprKind::Field { .. } | ExprKind::Deref(_) => {
                let ty = e.ty();
                if matches!(ty, Type::Array(..)) {
                    // Sub-object of a named array: static size of the root.
                    if let Some(AccessRoot::Direct(b)) = access_root(e) {
                        let v = self.var_id(b);
                        let t = self.tymap.mem(&self.var_ty(v).clone());
                        return Ok(sizeof_ty(t));
                    }
                }
                if self.plan.is_fat(&ty.decayed()) {
                    if !lvalue_is_pure(e) {
                        return Err(self.err("span of a side-effecting pointer cell expression"));
                    }
                    let place = self.rewrite_place(e)?;
                    return Ok(fld(place, "span"));
                }
                Err(self.err("pointer expression needs a span but its type is not promoted"))
            }
            ExprKind::AddrOf(inner) => match access_root(inner) {
                Some(AccessRoot::Direct(b)) => {
                    let v = self.var_id(b);
                    let t = self.tymap.mem(&self.var_ty(v).clone());
                    Ok(sizeof_ty(t))
                }
                Some(AccessRoot::Indirect(base)) => self.span_expr(base),
                None => Err(self.err("cannot compute span of address expression")),
            },
            ExprKind::IntLit(0) => Ok(ilit(0)),
            other => Err(self.err(format!("cannot compute span of expression {other:?}"))),
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Rewrites an expression in value position. Pointer-typed results are
    /// thin pointer values (fat cells are unwrapped through `.ptr`).
    fn rewrite_expr(&mut self, e: &Expr) -> Result<Expr, XformError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(ilit(*v)),
            ExprKind::FloatLit(v) => Ok(u(ExprKind::FloatLit(*v))),
            ExprKind::Var { .. }
            | ExprKind::Index { .. }
            | ExprKind::Field { .. }
            | ExprKind::Deref(_) => {
                let place = self.rewrite_place(e)?;
                if self.plan.is_fat(&e.ty().decayed()) && self.place_is_fat_cell(e) {
                    // The `.ptr` projection is the node lowering sites, so
                    // it inherits the access's identity.
                    Ok(stamp(fld(place, "ptr"), e))
                } else {
                    Ok(place)
                }
            }
            ExprKind::Unary(op, a) => Ok(u(ExprKind::Unary(*op, Box::new(self.rewrite_expr(a)?)))),
            ExprKind::Binary(op, l, r) => {
                Ok(bin(*op, self.rewrite_expr(l)?, self.rewrite_expr(r)?))
            }
            ExprKind::Assign { op, lhs, rhs } => {
                if self.dst_carries_span(lhs) && *op == AssignOp::Set {
                    return Err(self.err(
                        "assignment to a span-carrying pointer used as a value; \
                         make it a standalone statement",
                    ));
                }
                let mut place = self.rewrite_place(lhs)?;
                // Compound updates on fat pointers (`p += n`) keep the span
                // (Table 3 "Pointer arithmetic 1") but target the ptr field
                // when the storage is a fat cell.
                if self.plan.is_fat(&lhs.ty().decayed()) && self.place_is_fat_cell(lhs) {
                    place = stamp(fld(place, "ptr"), lhs);
                }
                Ok(u(ExprKind::Assign {
                    op: *op,
                    lhs: Box::new(place),
                    rhs: Box::new(self.rewrite_expr(rhs)?),
                }))
            }
            ExprKind::Cond(c, a, b) => Ok(u(ExprKind::Cond(
                Box::new(self.rewrite_expr(c)?),
                Box::new(self.rewrite_expr(a)?),
                Box::new(self.rewrite_expr(b)?),
            ))),
            ExprKind::Call { name, args } => self.rewrite_call(e, name, args),
            ExprKind::AddrOf(inner) => Ok(addrof(self.rewrite_place_shared(inner)?)),
            ExprKind::Cast(t, inner) => {
                let target = self.tymap.var(t);
                Ok(u(ExprKind::Cast(
                    target,
                    Box::new(self.rewrite_expr(inner)?),
                )))
            }
            ExprKind::SizeofType(t) => {
                let t = self.tymap.mem(t);
                Ok(sizeof_ty(t))
            }
            ExprKind::SizeofExpr(inner) => {
                // Fold to the promoted static type of the operand: the
                // operand may have been expanded/promoted, changing its
                // declared shape.
                let t = self.tymap.mem(&inner.ty().clone());
                Ok(sizeof_ty(t))
            }
            ExprKind::IncDec { pre, inc, target } => {
                // Pointer ++ keeps its span (Table 3 "Pointer arithmetic 1").
                let place = self.rewrite_place(target)?;
                let place =
                    if self.plan.is_fat(&target.ty().decayed()) && self.place_is_fat_cell(target) {
                        stamp(fld(place, "ptr"), target)
                    } else {
                        place
                    };
                Ok(u(ExprKind::IncDec {
                    pre: *pre,
                    inc: *inc,
                    target: Box::new(place),
                }))
            }
        }
    }

    /// Whether this pointer-typed access denotes a fat *memory cell*
    /// (needing `.ptr`/`.span`) rather than a thin fat variable.
    fn place_is_fat_cell(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Var {
                binding: Some(b), ..
            } => {
                // Expanded fat variables live in cells; plain fat variables
                // are thin.
                self.plan.var_expanded(self.var_id(*b))
            }
            _ => true,
        }
    }

    fn rewrite_call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Result<Expr, XformError> {
        match name {
            "malloc" | "calloc" => {
                let expanded = self.plan.alloc_expanded(e.eid);
                let mut new_args: Vec<Expr> = args
                    .iter()
                    .map(|a| self.rewrite_expr(a))
                    .collect::<Result<_, _>>()?;
                if expanded {
                    // Table 1 "Heap object": size *= N (first argument for
                    // both malloc and calloc — calloc gets N times the
                    // element count, same total layout).
                    let n = ilit(self.plan.nthreads as i64);
                    let first = new_args.remove(0);
                    new_args.insert(0, mul(first, n));
                }
                Ok(stamp(call(name, new_args), e))
            }
            "realloc" => {
                if self.plan.alloc_expanded(e.eid) {
                    // Moving N copies requires the old span.
                    let old_span = self.span_expr(&args[0])?;
                    let p = self.rewrite_expr(&args[0])?;
                    let n = self.rewrite_expr(&args[1])?;
                    Ok(stamp(call("__realloc_expanded", vec![p, n, old_span]), e))
                } else {
                    let new_args = args
                        .iter()
                        .map(|a| self.rewrite_expr(a))
                        .collect::<Result<_, _>>()?;
                    Ok(stamp(call(name, new_args), e))
                }
            }
            _ => {
                let callee = self.program.functions.iter().find(|f| f.name == name);
                let mut new_args: Vec<Expr> = args
                    .iter()
                    .map(|a| self.rewrite_expr(a))
                    .collect::<Result<_, _>>()?;
                if let Some(callee) = callee {
                    // Shadow span arguments for fat parameters, in order.
                    for (i, p) in callee.params.iter().enumerate() {
                        if self.plan.is_fat(&p.ty) {
                            let sp = self.span_of(&args[i])?;
                            match sp {
                                SpanVal::Expr(x) => new_args.push(x),
                                SpanVal::FromCallee => {
                                    return Err(self.err(
                                        "nested fat-returning call as argument; \
                                         assign it to a local first",
                                    ))
                                }
                            }
                        }
                    }
                    if self.plan.is_fat(&callee.ret_ty) {
                        // Default receiver; pointer-assignment contexts
                        // replace it with the real destination span.
                        new_args.push(addrof(idx(var("__dspan"), tid())));
                    }
                }
                Ok(call(name, new_args))
            }
        }
    }

    /// Rewrites an access/lvalue chain into its transformed *place*.
    /// Redirection (Table 2) is applied at the chain root using the
    /// access's own classification — except for interleaved arrays, whose
    /// copy index goes innermost (`v[i][tid]`, Fig. 2b).
    fn rewrite_place(&mut self, e: &Expr) -> Result<Expr, XformError> {
        Ok(stamp(self.rewrite_place_entry(e, false)?, e))
    }

    /// Like [`Xf::rewrite_place`], but forced shared (used under `&`):
    /// addresses always name copy 0.
    fn rewrite_place_shared(&mut self, e: &Expr) -> Result<Expr, XformError> {
        Ok(stamp(self.rewrite_place_entry(e, true)?, e))
    }

    fn rewrite_place_entry(&mut self, e: &Expr, force_shared: bool) -> Result<Expr, XformError> {
        if let Some(AccessRoot::Direct(b)) = access_root(e) {
            let v = self.var_id(b);
            if self.is_interleaved_array(v) {
                if e.ty().is_aggregate() {
                    return Err(self.err(format!(
                        "interleaved layout: partial access to array `{}` (its \
                         rows are not contiguous per copy)",
                        self.var_name(v)
                    )));
                }
                let inner = self.rewrite_place_inner(e, e.eid, force_shared, true)?;
                let k = if force_shared {
                    ilit(0)
                } else {
                    self.copy_index(e.eid)
                };
                return Ok(idx(inner, k));
            }
        }
        self.rewrite_place_inner(e, e.eid, force_shared, false)
    }

    fn rewrite_place_inner(
        &mut self,
        e: &Expr,
        top_eid: u32,
        force_shared: bool,
        suppress_root_k: bool,
    ) -> Result<Expr, XformError> {
        match &e.kind {
            ExprKind::Var {
                binding: Some(b),
                name,
                ..
            } => {
                let v = self.var_id(*b);
                if self.plan.var_expanded(v) && !suppress_root_k {
                    let k = if force_shared {
                        ilit(0)
                    } else {
                        self.copy_index(top_eid)
                    };
                    Ok(idx(self.root_expr(v), k))
                } else {
                    let _ = name;
                    Ok(self.root_expr(v))
                }
            }
            ExprKind::Field { base, field } => {
                let b = self.rewrite_place_inner(base, top_eid, force_shared, suppress_root_k)?;
                Ok(fld(b, field))
            }
            ExprKind::Index { base, index } => {
                let i = self.rewrite_expr(index)?;
                if matches!(base.ty(), Type::Array(..)) {
                    let b =
                        self.rewrite_place_inner(base, top_eid, force_shared, suppress_root_k)?;
                    Ok(idx(b, i))
                } else {
                    let b = self.boundary_pointer(base, top_eid, force_shared)?;
                    Ok(idx(b, i))
                }
            }
            ExprKind::Deref(p) => {
                let b = self.boundary_pointer(p, top_eid, force_shared)?;
                Ok(deref(b))
            }
            other => Err(self.err(format!("not an access expression: {other:?}"))),
        }
    }

    /// Rewrites the pointer at an indirect access boundary, applying the
    /// `tid * span / sizeof(*p)` offset for private accesses to expanded
    /// structures (Table 2 "Pointer deref").
    fn boundary_pointer(
        &mut self,
        p: &Expr,
        top_eid: u32,
        force_shared: bool,
    ) -> Result<Expr, XformError> {
        let base = self.rewrite_expr(p)?;
        if force_shared || !self.is_private(top_eid) {
            return Ok(base);
        }
        self.report.private_accesses_redirected += 1;
        let ptr_ty = p.ty().decayed();
        let pointee = ptr_ty.pointee().expect("boundary is a pointer").clone();
        if self.plan.heap_localize {
            // Runtime-privatization baseline: translate through the
            // runtime instead of offsetting into an expanded structure.
            let target = self.tymap.mem(&pointee).ptr_to();
            return Ok(u(ExprKind::Cast(
                target,
                Box::new(call("__localize", vec![base])),
            )));
        }
        let elem_size = self.tymap.size_of(&pointee);
        let span: Expr = if let Some(&c) = self.plan.const_span.get(&top_eid) {
            ilit(c as i64)
        } else if self.plan.is_fat(&ptr_ty) {
            self.span_expr(p)?
        } else {
            return Err(self.err(format!(
                "private indirect access (eid {top_eid}) has neither a constant span \
                 nor a promoted base pointer (plan bug?)"
            )));
        };
        // base + __tid() * span / sizeof(*p)
        let offset = bin(BinOp::Div, mul(tid(), span), ilit(elem_size as i64));
        let redirected = bin(BinOp::Add, base, offset);
        if let ExprKind::Var {
            binding: Some(b), ..
        } = &p.kind
        {
            let v = self.var_id(*b);
            let ptr_ty = self.tymap.mem(&pointee).ptr_to();
            if let Some(seen) = &mut self.redirections {
                seen.push((v, redirected.clone(), ptr_ty));
            }
        }
        Ok(redirected)
    }

    /// The root expression for a named variable (expanded variables keep
    /// their name; their type became an N-copy array).
    fn root_expr(&mut self, v: VarId) -> Expr {
        var(self.var_name(v))
    }
}

impl<'a> Xf<'a> {
    /// The place holding a fat integer's span: shadow variable, or the
    /// current thread's shadow-array slot when the integer is expanded.
    fn fat_int_span_place(&mut self, e: &Expr) -> Expr {
        let ExprKind::Var {
            binding: Some(b),
            name,
            ..
        } = &e.kind
        else {
            unreachable!("fat integers are plain variables");
        };
        let v = self.var_id(*b);
        if self.plan.var_expanded(v) {
            let k = self.copy_index(e.eid);
            idx(var(&sp_name(name)), k)
        } else {
            var(&sp_name(name))
        }
    }
}

/// Span source of a pointer expression.
enum SpanVal {
    /// An expression computing the span.
    Expr(Expr),
    /// The span comes from a fat-returning callee's out-parameter.
    FromCallee,
}

/// `p = p ± <const>` (or a cast of it): the span is unchanged, so its store
/// can be elided (Section 3.4's dead-store elimination).
fn span_preserving_self_update(rhs: &Expr, dst_name: &str) -> bool {
    match &rhs.kind {
        ExprKind::Cast(_, inner) => span_preserving_self_update(inner, dst_name),
        ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            let is_dst =
                |x: &Expr| matches!(&x.kind, ExprKind::Var { name, .. } if name == dst_name);
            (is_dst(l) && matches!(r.kind, ExprKind::IntLit(_)))
                || (is_dst(r) && matches!(l.kind, ExprKind::IntLit(_)))
        }
        _ => false,
    }
}

/// True when evaluating this lvalue's address has no side effects (so the
/// transform may evaluate it more than once).
fn lvalue_is_pure(e: &Expr) -> bool {
    dse_ir::loops::expr_is_pure(e)
}

/// Does the statement touch any of the given eids — itself, or inside a
/// function it calls? (An ordered access in a callee orders the call.)
fn stmt_mentions_eids(program: &Program, stmt: &Stmt, eids: &HashSet<u32>) -> bool {
    let mut found = false;
    // Indices of the functions reachable from the statement.
    let mut callees: Vec<usize> = Vec::new();
    let mut scan = |e: &Expr, callees: &mut Vec<usize>| {
        found |= eids.contains(&e.eid);
        if let ExprKind::Call { name, .. } = &e.kind {
            let callee = program.functions.iter().position(|f| &f.name == name);
            callees.extend(callee.filter(|c| !callees.contains(c)));
        }
    };
    walk_exprs_in_stmt(stmt, &mut |e| scan(e, &mut callees));
    let mut next = 0;
    while let Some(&f) = callees.get(next) {
        walk_exprs_in_block(&program.functions[f].body, &mut |e| scan(e, &mut callees));
        next += 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::types::TypeTable;

    fn fat_set(tys: &[Type]) -> HashSet<Type> {
        tys.iter().cloned().collect()
    }

    #[test]
    fn typemap_promotes_fat_pointers_to_records() {
        let orig = TypeTable::new();
        let int_ptr = Type::Int.ptr_to();
        let mut tm = TypeMap::build(&orig, &fat_set(std::slice::from_ref(&int_ptr)));
        // Memory cells become the fat record.
        let cell = tm.mem(&int_ptr);
        let Type::Struct(id) = cell else {
            panic!("expected fat record")
        };
        let def = tm.table.struct_def(id);
        assert_eq!(def.fields[0].name, "ptr");
        assert_eq!(def.fields[1].name, "span");
        assert_eq!(def.size, 16);
        // Variable declarations stay thin (shadow span elsewhere).
        assert_eq!(tm.var(&int_ptr), Type::Int.ptr_to());
        // Pointer-to-fat-pointer: the pointee promotes, the outer level is
        // decided by its own fatness (not fat here).
        let pp = int_ptr.clone().ptr_to();
        assert_eq!(tm.mem(&pp), Type::Struct(id).ptr_to());
    }

    #[test]
    fn typemap_rewrites_struct_fields() {
        let mut orig = TypeTable::new();
        let sid = orig.define_struct(
            "Holder",
            vec![("n".into(), Type::Int), ("data".into(), Type::Int.ptr_to())],
        );
        let tm = TypeMap::build(&orig, &fat_set(&[Type::Int.ptr_to()]));
        let new_sid = tm.struct_map[&sid];
        let def = tm.table.struct_def(new_sid);
        assert!(matches!(def.field("data").unwrap().ty, Type::Struct(_)));
        assert_eq!(def.size, 8 + 16, "int (padded) + fat record");
        // Without fatness the layout is unchanged.
        let tm2 = TypeMap::build(&orig, &HashSet::default());
        let new_id2 = tm2.struct_map[&sid];
        assert_eq!(tm2.table.struct_def(new_id2).size, 16);
    }

    #[test]
    fn typemap_handles_self_referential_structs() {
        let mut orig = TypeTable::new();
        let sid = orig.declare_struct("Node");
        orig.complete_struct(
            sid,
            vec![
                ("v".into(), Type::Int),
                ("next".into(), Type::Struct(sid).ptr_to()),
            ],
        )
        .unwrap();
        let node_ptr = Type::Struct(sid).ptr_to();
        let tm = TypeMap::build(&orig, &fat_set(std::slice::from_ref(&node_ptr)));
        let new_sid = tm.struct_map[&sid];
        let def = tm.table.struct_def(new_sid).clone();
        // next is now a fat record whose ptr field targets the new Node.
        let Type::Struct(fat_id) = &def.field("next").unwrap().ty else {
            panic!("next should be a fat record")
        };
        let fat = tm.table.struct_def(*fat_id);
        assert_eq!(fat.field("ptr").unwrap().ty, Type::Struct(new_sid).ptr_to());
    }

    #[test]
    fn span_elision_recognizes_self_updates() {
        let p = dse_lang::compile_to_ast(
            "int main() { int *p; p = malloc(8); p = p + 1; p = p - 2;
               int *q; q = p + 1; p = (int*)(p + 3); return 0; }",
        )
        .unwrap();
        let mut exprs = Vec::new();
        let mut probe = p.functions[0].body.clone();
        dse_lang::ast::visit_exprs_in_block(&mut probe, &mut |e| {
            if let ExprKind::Assign { rhs, .. } = &e.kind {
                exprs.push((*rhs.clone(), ()));
            }
        });
        // p = malloc(8): not a self-update.
        assert!(!span_preserving_self_update(&exprs[0].0, "p"));
        // p = p + 1 / p = p - 2: elidable.
        assert!(span_preserving_self_update(&exprs[1].0, "p"));
        assert!(span_preserving_self_update(&exprs[2].0, "p"));
        // q = p + 1: different destination.
        assert!(!span_preserving_self_update(&exprs[3].0, "q"));
        // p = (int*)(p + 3): cast-wrapped self-update still elidable.
        assert!(span_preserving_self_update(&exprs[4].0, "p"));
    }

    #[test]
    fn report_structure_metric_excludes_scalars() {
        let r = ExpansionReport {
            expanded_allocs: 2,
            expanded_globals: 1,
            expanded_locals: 1,
            expanded_scalar_locals: 7,
            ..Default::default()
        };
        assert_eq!(r.privatized_structures(), 4);
    }
}
