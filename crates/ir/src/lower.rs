//! AST → bytecode lowering.
//!
//! Two modes:
//!
//! * [`LowerMode::Serial`] compiles the program as written; candidate loops
//!   become ordinary loops bracketed by [`Instr::LoopMark`] hooks so the
//!   dependence profiler can attribute accesses to iterations.
//! * [`LowerMode::Parallel`] outlines each candidate loop named in
//!   [`LowerOptions::par`] into a body region driven by
//!   [`Instr::ParLoop`]; reads of the induction variable become
//!   [`Instr::IterIdx`] and DOACROSS loops get `Wait`/`Post` around the
//!   configured window of top-level body statements.
//!
//! The runtime-privatization baseline (paper Section 4.2.1) is implemented
//! by listing access sites in [`LowerOptions::localize`]; their computed
//! addresses are passed through [`Instr::Localize`] before use.

use crate::bytecode::*;
use crate::loops::{self, CandidateLoop, ParMode};
use crate::sites::{AccessKind, SiteId, SiteInfo, SiteTable, NO_SITE};
use dse_lang::ast::*;
use dse_lang::fasthash::HashSet;
use dse_lang::types::{Type, TypeTable};
use std::fmt;

/// Lowering failure (unsupported construct or invalid candidate loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

impl From<loops::CandidateError> for LowerError {
    fn from(e: loops::CandidateError) -> Self {
        LowerError(e.to_string())
    }
}

/// Whether candidate loops run serially (with profiler marks) or under the
/// parallel scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LowerMode {
    /// Original program; candidate loops get profiler marks.
    #[default]
    Serial,
    /// Candidate loops listed in [`LowerOptions::par`] become `ParLoop`s.
    Parallel,
}

/// Parallel lowering parameters for one candidate loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParLoopSpec {
    /// DOALL or DOACROSS.
    pub mode: ParMode,
    /// For DOACROSS: inclusive range of top-level body statement indices to
    /// bracket with `Wait`/`Post` (the ordered section).
    pub sync_window: Option<(usize, usize)>,
}

/// Options controlling [`lower_program`].
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Serial or parallel lowering.
    pub mode: LowerMode,
    /// Per candidate position (the loop's index in
    /// [`loops::find_candidate_loops`]): its parallel spec (only used in
    /// parallel mode; candidate loops without one run serially).
    pub par: Vec<Option<ParLoopSpec>>,
    /// Access sites to route through `Localize` (runtime-priv baseline),
    /// keyed by `(expression id, access kind)`.
    pub localize: HashSet<(u32, AccessKind)>,
    /// Disable the strength-reduced redirection addressing (fused
    /// `tid`-scaled instructions). Used to lower the paper's
    /// "without optimizations" configuration (Figure 9a), where redirection
    /// arithmetic is emitted naively.
    pub naive_redirection: bool,
}

/// Lowers a type-checked program to bytecode.
///
/// # Errors
///
/// Returns a [`LowerError`] for unsupported constructs (by-value aggregate
/// parameters, aggregate returns) or invalid candidate loops.
pub fn lower_program(
    program: &Program,
    opts: &LowerOptions,
) -> Result<CompiledProgram, LowerError> {
    let candidates = loops::find_candidate_loops(program)?;
    let (global_addrs, globals_size) = layout_globals(program);
    let mut lw = Lowerer {
        program,
        opts,
        candidates,
        global_addrs,
        code: Vec::new(),
        funcs: Vec::new(),
        sites: SiteTable::new(),
        loops: Vec::new(),
        cur_func: 0,
        frame: FrameLayout::default(),
        loop_stack: Vec::new(),
        par_ind_stack: Vec::new(),
        label: 0,
    };
    let mut global_inits = Vec::new();
    for (gi, g) in program.globals.iter().enumerate() {
        if let Some(init) = &g.init {
            flatten_init(
                &g.ty,
                init,
                lw.global_addrs[gi] as u64,
                &program.types,
                &mut global_inits,
            );
        }
    }
    for (fi, f) in program.functions.iter().enumerate() {
        lw.lower_function(fi as u32, f)?;
    }
    let main = lw
        .funcs
        .iter()
        .position(|f| f.name == "main")
        .ok_or_else(|| LowerError("program has no `main` function".into()))? as u32;
    if !lw.funcs[main as usize].params.is_empty() {
        return Err(LowerError("`main` must take no parameters".into()));
    }
    Ok(CompiledProgram {
        code: lw.code,
        funcs: lw.funcs,
        main,
        globals_size,
        global_inits,
        sites: lw.sites,
        loops: lw.loops,
        types: program.types.clone(),
    })
}

// ---------------------------------------------------------------------------
// layout
// ---------------------------------------------------------------------------

/// Frame layout of one function: byte offsets per local slot.
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    /// Offset of each local slot within the frame.
    pub offsets: Vec<u32>,
    /// Total frame size, 8-byte aligned.
    pub size: u32,
}

impl FrameLayout {
    /// Computes the frame layout of `f` with C alignment rules.
    pub fn of(f: &Function, types: &TypeTable) -> Self {
        let mut offsets = Vec::with_capacity(f.locals.len());
        let mut off = 0u64;
        for l in &f.locals {
            let a = types.align_of(&l.ty);
            off = dse_lang::types::round_up(off, a);
            offsets.push(off as u32);
            off += types.size_of(&l.ty);
        }
        FrameLayout {
            offsets,
            size: dse_lang::types::round_up(off, 8) as u32,
        }
    }
}

/// Computes absolute addresses for globals (starting at [`GLOBAL_BASE`]) and
/// the total globals-segment size.
pub fn layout_globals(p: &Program) -> (Vec<u32>, u64) {
    let mut addrs = Vec::with_capacity(p.globals.len());
    let mut addr = GLOBAL_BASE;
    for g in &p.globals {
        let a = p.types.align_of(&g.ty);
        addr = dse_lang::types::round_up(addr, a);
        addrs.push(addr as u32);
        addr += p.types.size_of(&g.ty);
    }
    (addrs, addr - GLOBAL_BASE)
}

/// Expands a constant initializer into scalar (address, value) writes.
fn flatten_init(
    ty: &Type,
    init: &ConstInit,
    addr: u64,
    types: &TypeTable,
    out: &mut Vec<(u64, InitValue)>,
) {
    match (ty, init) {
        (Type::Array(elem, _), ConstInit::List(items)) => {
            let es = types.size_of(elem);
            for (i, it) in items.iter().enumerate() {
                flatten_init(elem, it, addr + i as u64 * es, types, out);
            }
        }
        (Type::Float, ConstInit::Int(v)) => out.push((addr, InitValue::Float(*v as f64))),
        (Type::Float, ConstInit::Float(v)) => out.push((addr, InitValue::Float(*v))),
        (t, ConstInit::Int(v)) => out.push((addr, InitValue::Int(*v, types.size_of(t) as u8))),
        (t, ConstInit::Float(v)) if t.is_integer() => {
            out.push((addr, InitValue::Int(*v as i64, types.size_of(t) as u8)))
        }
        _ => unreachable!("sema validated initializer shapes"),
    }
}

// ---------------------------------------------------------------------------
// the lowerer
// ---------------------------------------------------------------------------

struct LoopFrame {
    /// Pcs of placeholder jumps to patch to the break target.
    break_patches: Vec<usize>,
    /// Pcs of placeholder jumps to patch to the continue target.
    continue_patches: Vec<usize>,
    /// True for the outlined body of a parallel candidate loop.
    is_parallel_body: bool,
}

struct Lowerer<'a> {
    program: &'a Program,
    opts: &'a LowerOptions,
    candidates: Vec<CandidateLoop<'a>>,
    global_addrs: Vec<u32>,
    code: Vec<Instr>,
    funcs: Vec<FuncInfo>,
    sites: SiteTable,
    loops: Vec<LoopCode>,
    cur_func: u32,
    frame: FrameLayout,
    loop_stack: Vec<LoopFrame>,
    /// Stack of induction slots of enclosing parallel bodies (innermost
    /// last); reads become `IterIdx(depth)`.
    par_ind_stack: Vec<usize>,
    /// The highest position handed out as a jump target so far
    /// ([`Lowerer::here`]): peephole rewrites of already-emitted
    /// instructions stay strictly after it.
    label: usize,
}

impl<'a> Lowerer<'a> {
    fn types(&self) -> &TypeTable {
        &self.program.types
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// The current position, as something a jump may target.
    fn here(&mut self) -> Pc {
        self.label = self.code.len();
        self.code.len() as Pc
    }

    /// Adds the constant `k` to the address on top of the stack without
    /// spending instructions where a native compiler would spend none.
    /// When the address was formed by the instruction just emitted and
    /// `inside` says the sum stays in the object it names (a member, an
    /// in-bounds literal index), `k` folds into that producer: `x[tid].f`
    /// is one `FrameAddrTid`. Otherwise it merges into a preceding
    /// constant add, or costs `PushI; Add`. Never across a jump target.
    fn emit_offset(&mut self, k: i64, inside: bool) {
        if k == 0 {
            return;
        }
        let n = self.code.len();
        if inside && self.label < n {
            let sum = |base: u32| u32::try_from(base as i64 + k).ok();
            let folded = match self.code[n - 1] {
                Instr::FrameAddr(off) => sum(off).map(Instr::FrameAddr),
                Instr::GlobalAddr(addr) => sum(addr).map(Instr::GlobalAddr),
                Instr::FrameAddrTid { offset, stride } => {
                    sum(offset).map(|offset| Instr::FrameAddrTid { offset, stride })
                }
                Instr::GlobalAddrTid { addr, stride } => {
                    sum(addr).map(|addr| Instr::GlobalAddrTid { addr, stride })
                }
                _ => None,
            };
            if let Some(producer) = folded {
                self.code[n - 1] = producer;
                return;
            }
        }
        if self.label + 2 <= n {
            if let (Instr::PushI(a), Instr::IBin(IBinOp::Add)) =
                (self.code[n - 2], self.code[n - 1])
            {
                self.code[n - 2] = Instr::PushI(a.wrapping_add(k));
                return;
            }
        }
        self.emit(Instr::PushI(k));
        self.emit(Instr::IBin(IBinOp::Add));
    }

    fn patch(&mut self, at: usize, target: Pc) {
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn err(&self, msg: impl Into<String>) -> LowerError {
        LowerError(msg.into())
    }

    fn scalar_meta(&self, ty: &Type) -> (u8, bool) {
        let t = ty.decayed();
        (self.types().size_of(&t) as u8, t.is_float())
    }

    fn site(
        &mut self,
        eid: u32,
        kind: AccessKind,
        ty: &Type,
        span: dse_lang::SourceSpan,
    ) -> SiteId {
        let width = self.types().size_of(&ty.decayed()) as u32;
        let func = self.cur_func;
        self.sites.intern(SiteInfo {
            eid,
            kind,
            func,
            width,
            span,
        })
    }

    fn aggregate_site(
        &mut self,
        eid: u32,
        kind: AccessKind,
        size: u32,
        span: dse_lang::SourceSpan,
    ) -> SiteId {
        let func = self.cur_func;
        self.sites.intern(SiteInfo {
            eid,
            kind,
            func,
            width: size,
            span,
        })
    }

    /// Emits `Localize` when the `(eid, kind)` site participates in the
    /// runtime-privatization baseline.
    fn maybe_localize(&mut self, eid: u32, kinds: &[AccessKind], site: SiteId) {
        if kinds
            .iter()
            .any(|k| self.opts.localize.contains(&(eid, *k)))
        {
            self.emit(Instr::Localize { site });
        }
    }

    // ---- functions -------------------------------------------------------

    fn lower_function(&mut self, fi: u32, f: &Function) -> Result<(), LowerError> {
        for p in &f.params {
            if p.ty.is_aggregate() {
                return Err(self.err(format!(
                    "function `{}`: by-value aggregate parameter `{}` is not supported; pass a pointer",
                    f.name, p.name
                )));
            }
        }
        if f.ret_ty.is_aggregate() {
            return Err(self.err(format!(
                "function `{}`: aggregate return type is not supported",
                f.name
            )));
        }
        self.cur_func = fi;
        self.frame = FrameLayout::of(f, self.types());
        let entry = self.here();
        let params = f
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (w, fl) = self.scalar_meta(&p.ty);
                (
                    self.frame.offsets[i],
                    ParamKind {
                        width: w,
                        is_float: fl,
                    },
                )
            })
            .collect();
        let ret = if f.ret_ty == Type::Void {
            RetKind::Void
        } else {
            RetKind::Scalar
        };
        let locals = f
            .locals
            .iter()
            .zip(&self.frame.offsets)
            .map(|(l, &off)| (off, self.types().size_of(&l.ty) as u32))
            .collect();
        self.funcs.push(FuncInfo {
            name: f.name.clone(),
            entry,
            frame_size: self.frame.size,
            params,
            locals,
            ret,
            ret_float: f.ret_ty != Type::Void && f.ret_ty.is_float(),
        });
        self.lower_block(&f.body)?;
        // Implicit return for control paths falling off the end.
        if f.ret_ty != Type::Void {
            if f.ret_ty.is_float() {
                self.emit(Instr::PushF(0.0));
            } else {
                self.emit(Instr::PushI(0));
            }
        }
        self.emit(Instr::Ret);
        Ok(())
    }

    fn lower_block(&mut self, b: &Block) -> Result<(), LowerError> {
        for s in &b.stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match &s.kind {
            StmtKind::Decl {
                ty,
                init,
                slot,
                name,
            } => {
                let Some(init) = init else { return Ok(()) };
                let slot = slot.expect("sema assigned slots");
                if matches!(init.kind, ExprKind::Assign { .. } | ExprKind::IncDec { .. }) {
                    return Err(self.err(format!(
                        "declaration of `{name}`: initializer with a top-level assignment is not supported"
                    )));
                }
                let off = self.frame.offsets[slot];
                if ty.is_aggregate() {
                    // struct s = other_struct;
                    let size = self.types().size_of(ty) as u32;
                    let ls = self.aggregate_site(init.eid, AccessKind::Load, size, init.span);
                    let ss = self.aggregate_site(init.eid, AccessKind::Store, size, init.span);
                    self.lower_addr(init)?;
                    self.maybe_localize(init.eid, &[AccessKind::Load], ls);
                    self.emit(Instr::FrameAddr(off));
                    self.emit(Instr::MemCpy {
                        size,
                        load_site: ls,
                        store_site: ss,
                    });
                } else {
                    let (w, fl) = self.scalar_meta(ty);
                    self.emit(Instr::FrameAddr(off));
                    let ss = self.site(init.eid, AccessKind::Store, ty, init.span);
                    self.maybe_localize(init.eid, &[AccessKind::Store], ss);
                    self.lower_value(init)?;
                    self.emit_convert(init.ty(), ty, false);
                    self.emit(Instr::Store {
                        width: w,
                        is_float: fl,
                        site: ss,
                    });
                }
                Ok(())
            }
            StmtKind::Expr(e) => self.lower_stmt_expr(e),
            StmtKind::If { cond, then, els } => {
                self.lower_truth(cond)?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.lower_block(then)?;
                if let Some(els) = els {
                    let jend = self.emit(Instr::Jump(0));
                    let else_pc = self.here();
                    self.patch(jz, else_pc);
                    self.lower_block(els)?;
                    let end = self.here();
                    self.patch(jend, end);
                } else {
                    let end = self.here();
                    self.patch(jz, end);
                }
                Ok(())
            }
            StmtKind::While { cond, body, .. } => {
                let head = self.here();
                self.lower_truth(cond)?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: false,
                });
                self.lower_block(body)?;
                self.emit(Instr::Jump(head));
                let exit = self.here();
                self.patch(jz, exit);
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, head);
                }
                for p in frame.break_patches {
                    self.patch(p, exit);
                }
                Ok(())
            }
            StmtKind::DoWhile { body, cond, .. } => {
                let head = self.here();
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: false,
                });
                self.lower_block(body)?;
                let cont = self.here();
                self.lower_truth(cond)?;
                self.emit(Instr::JumpIfNZ(head));
                let exit = self.here();
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, cont);
                }
                for p in frame.break_patches {
                    self.patch(p, exit);
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                mark,
            } => {
                if mark.candidate {
                    return self.lower_candidate_for(
                        s,
                        init.as_deref(),
                        cond.as_ref(),
                        step.as_ref(),
                        body,
                    );
                }
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let head = self.here();
                let jz = match cond {
                    Some(c) => {
                        self.lower_truth(c)?;
                        Some(self.emit(Instr::JumpIfZ(0)))
                    }
                    None => None,
                };
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: false,
                });
                self.lower_block(body)?;
                let cont = self.here();
                if let Some(st) = step {
                    self.lower_stmt_expr(st)?;
                }
                self.emit(Instr::Jump(head));
                let exit = self.here();
                if let Some(jz) = jz {
                    self.patch(jz, exit);
                }
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, cont);
                }
                for p in frame.break_patches {
                    self.patch(p, exit);
                }
                Ok(())
            }
            StmtKind::Break => {
                let j = self.emit(Instr::Jump(0));
                let frame = self
                    .loop_stack
                    .last_mut()
                    .ok_or_else(|| LowerError("break outside loop".into()))?;
                assert!(
                    !frame.is_parallel_body,
                    "candidate validation rejects break out of parallel bodies"
                );
                frame.break_patches.push(j);
                Ok(())
            }
            StmtKind::Continue => {
                let j = self.emit(Instr::Jump(0));
                let frame = self
                    .loop_stack
                    .last_mut()
                    .ok_or_else(|| LowerError("continue outside loop".into()))?;
                frame.continue_patches.push(j);
                Ok(())
            }
            StmtKind::Return(e) => {
                if self.loop_stack.iter().any(|f| f.is_parallel_body) {
                    return Err(self.err("return inside a parallel loop body"));
                }
                if let Some(e) = e {
                    self.lower_value(e)?;
                    let ret_ty = self.program.functions[self.cur_func as usize]
                        .ret_ty
                        .clone();
                    self.emit_convert(e.ty(), &ret_ty, false);
                }
                self.emit(Instr::Ret);
                Ok(())
            }
            StmtKind::Block(b) => self.lower_block(b),
        }
    }

    // ---- candidate loops ---------------------------------------------------

    fn lower_candidate_for(
        &mut self,
        for_stmt: &Stmt,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Block,
    ) -> Result<(), LowerError> {
        let k = self
            .candidates
            .iter()
            .position(|c| std::ptr::eq(c.stmt, for_stmt))
            .ok_or_else(|| LowerError("candidate loop outside the program's loop table".into()))?;
        let cand = self.candidates[k].clone();
        let slot = cand.induction_slot;
        let ind_off = self.frame.offsets[slot];
        let ind_ty = self.program.functions[self.cur_func as usize].locals[slot]
            .ty
            .clone();
        let (ind_w, _) = self.scalar_meta(&ind_ty);
        let (bound, inclusive) = loops::bound_of_cond(cond.expect("validated"), slot)
            .expect("validated candidate condition");

        let spec = match self.opts.mode {
            LowerMode::Parallel => self.opts.par.get(k).cloned().flatten(),
            LowerMode::Serial => None,
        };

        match spec {
            None if self.opts.mode == LowerMode::Serial => {
                // Ordinary loop with profiler marks.
                let loop_id = self.loops.len() as u32;
                self.loops.push(LoopCode {
                    label: cand.label.clone(),
                    func: self.cur_func,
                    mode: None,
                    body_entry: 0,
                    induction_offset: ind_off,
                    induction_width: ind_w,
                });
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                self.emit(Instr::LoopMark(LoopEvent::Begin, loop_id));
                let head = self.here();
                self.lower_truth(cond.expect("validated"))?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.emit(Instr::LoopMark(LoopEvent::IterStart, loop_id));
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: false,
                });
                self.lower_block(body)?;
                let cont = self.here();
                if let Some(st) = step {
                    self.lower_stmt_expr(st)?;
                }
                self.emit(Instr::Jump(head));
                let exit = self.here();
                self.patch(jz, exit);
                self.emit(Instr::LoopMark(LoopEvent::End, loop_id));
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, cont);
                }
                assert!(frame.break_patches.is_empty(), "validated: no break");
                Ok(())
            }
            None => {
                // Parallel mode but this loop is not parallelized: plain loop.
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let head = self.here();
                self.lower_truth(cond.expect("validated"))?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: false,
                });
                self.lower_block(body)?;
                let cont = self.here();
                if let Some(st) = step {
                    self.lower_stmt_expr(st)?;
                }
                self.emit(Instr::Jump(head));
                let exit = self.here();
                self.patch(jz, exit);
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, cont);
                }
                assert!(frame.break_patches.is_empty(), "validated: no break");
                Ok(())
            }
            Some(spec) => {
                // Outlined parallel loop.
                let loop_id = self.loops.len() as u32;
                self.loops.push(LoopCode {
                    label: cand.label.clone(),
                    func: self.cur_func,
                    mode: Some(spec.mode),
                    body_entry: 0,
                    induction_offset: ind_off,
                    induction_width: ind_w,
                });
                // lo = the initial value of i. Inside another loop's body
                // the induction slot is one frame slot shared by every
                // worker (induction variables are never expanded), so a
                // store and reload would race with the other workers' runs
                // of this loop: the value goes straight to the operand
                // stack, truncated as the store would.
                if self.par_ind_stack.is_empty() {
                    if let Some(i) = init {
                        self.lower_stmt(i)?;
                    }
                    self.emit(Instr::FrameAddr(ind_off));
                    self.emit(Instr::Load {
                        width: ind_w,
                        is_float: false,
                        site: NO_SITE,
                    });
                } else {
                    let (_, v) = loops::induction_of_init(init).expect("validated candidate init");
                    self.lower_value(v)?;
                    self.emit_convert(v.ty(), &ind_ty, true);
                }
                self.lower_hi(bound, inclusive)?;
                self.emit(Instr::ParLoop(loop_id));
                let jover = self.emit(Instr::Jump(0));
                // ---- outlined body region ----
                let body_entry = self.here();
                self.loops[loop_id as usize].body_entry = body_entry;
                self.par_ind_stack.push(slot);
                self.loop_stack.push(LoopFrame {
                    break_patches: vec![],
                    continue_patches: vec![],
                    is_parallel_body: true,
                });
                for (idx, stmt) in body.stmts.iter().enumerate() {
                    if let Some((s, _)) = spec.sync_window {
                        if idx == s {
                            self.emit(Instr::Wait(loop_id));
                        }
                    }
                    self.lower_stmt(stmt)?;
                    if let Some((_, e)) = spec.sync_window {
                        if idx == e {
                            self.emit(Instr::Post(loop_id));
                        }
                    }
                }
                let epilogue = self.here();
                self.emit(Instr::Ret);
                let frame = self.loop_stack.pop().expect("balanced loop stack");
                for p in frame.continue_patches {
                    self.patch(p, epilogue);
                }
                assert!(frame.break_patches.is_empty(), "validated: no break");
                self.par_ind_stack.pop();
                // ---- after the loop: i = hi if it ran, lo if it did not ----
                // Outside another loop's body the init stored lo in the
                // slot. Inside one it did not (see above): lo is stored
                // here, evaluated again, unless that would repeat a side
                // effect; then `i = hi` stays unconditional.
                let after = self.here();
                self.patch(jover, after);
                let nested_lo = (!self.par_ind_stack.is_empty()).then(|| {
                    loops::induction_of_init(init)
                        .expect("validated candidate init")
                        .1
                });
                let mut skip = None;
                if nested_lo.is_none_or(loops::expr_is_pure) {
                    match nested_lo {
                        None => {
                            self.emit(Instr::FrameAddr(ind_off));
                            self.emit(Instr::Load {
                                width: ind_w,
                                is_float: false,
                                site: NO_SITE,
                            });
                        }
                        Some(v) => {
                            self.emit(Instr::FrameAddr(ind_off));
                            self.lower_value(v)?;
                            self.emit_convert(v.ty(), &ind_ty, true);
                            self.emit(Instr::Store {
                                width: ind_w,
                                is_float: false,
                                site: NO_SITE,
                            });
                            self.lower_value(v)?;
                            self.emit_convert(v.ty(), &ind_ty, true);
                        }
                    }
                    self.lower_hi(bound, inclusive)?;
                    self.emit(Instr::ICmp(CmpOp::Lt));
                    skip = Some(self.emit(Instr::JumpIfZ(0)));
                }
                self.emit(Instr::FrameAddr(ind_off));
                self.lower_hi(bound, inclusive)?;
                self.emit(Instr::Store {
                    width: ind_w,
                    is_float: false,
                    site: NO_SITE,
                });
                if let Some(skip) = skip {
                    let done = self.here();
                    self.patch(skip, done);
                }
                Ok(())
            }
        }
    }

    // ---- expressions -------------------------------------------------------

    /// Pushes an outlined loop's exclusive upper bound: the bound, plus 1
    /// when the condition is `<=`.
    fn lower_hi(&mut self, bound: &Expr, inclusive: bool) -> Result<(), LowerError> {
        self.lower_value(bound)?;
        if inclusive {
            self.emit(Instr::PushI(1));
            self.emit(Instr::IBin(IBinOp::Add));
        }
        Ok(())
    }

    /// Lowers an expression in statement position (value discarded).
    fn lower_stmt_expr(&mut self, e: &Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Assign { .. } => self.lower_assign(e, false),
            ExprKind::IncDec { .. } => self.lower_incdec(e, false),
            ExprKind::Call { .. } => {
                let pushed = self.lower_call(e)?;
                if pushed {
                    self.emit(Instr::Drop);
                }
                Ok(())
            }
            _ => {
                self.lower_value(e)?;
                self.emit(Instr::Drop);
                Ok(())
            }
        }
    }

    /// Lowers an expression in value position; exactly one value is pushed.
    /// Aggregate-typed expressions push their address.
    fn lower_value(&mut self, e: &Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit(Instr::PushI(*v));
                Ok(())
            }
            ExprKind::FloatLit(v) => {
                self.emit(Instr::PushF(*v));
                Ok(())
            }
            ExprKind::Var { binding, .. } => {
                let b = binding.expect("sema resolved");
                if let VarBinding::Local(slot) = b {
                    if let Some(depth) = self.par_ind_depth(slot) {
                        self.emit(Instr::IterIdx(depth));
                        return Ok(());
                    }
                }
                self.push_var_addr(b);
                if e.ty().is_aggregate() {
                    return Ok(());
                }
                let (w, fl) = self.scalar_meta(e.ty());
                let site = self.site(e.eid, AccessKind::Load, e.ty(), e.span);
                self.maybe_localize(e.eid, &[AccessKind::Load], site);
                self.emit(Instr::Load {
                    width: w,
                    is_float: fl,
                    site,
                });
                Ok(())
            }
            ExprKind::Unary(op, inner) => {
                match op {
                    UnOp::Neg => {
                        self.lower_value(inner)?;
                        if inner.ty().decayed().is_float() {
                            self.emit(Instr::FNeg);
                        } else {
                            self.emit(Instr::INeg);
                        }
                    }
                    UnOp::BitNot => {
                        self.lower_value(inner)?;
                        self.emit(Instr::BNot);
                    }
                    UnOp::Not => {
                        self.lower_truth(inner)?;
                        self.emit(Instr::LNot);
                    }
                }
                Ok(())
            }
            ExprKind::Binary(op, l, r) => self.lower_binary(*op, l, r, e.ty()),
            ExprKind::Assign { .. } => self.lower_assign(e, true),
            ExprKind::Cond(c, t, f) => {
                self.lower_truth(c)?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.lower_value(t)?;
                self.emit_convert(t.ty(), e.ty(), false);
                let jend = self.emit(Instr::Jump(0));
                let else_pc = self.here();
                self.patch(jz, else_pc);
                self.lower_value(f)?;
                self.emit_convert(f.ty(), e.ty(), false);
                let end = self.here();
                self.patch(jend, end);
                Ok(())
            }
            ExprKind::Call { .. } => {
                let pushed = self.lower_call(e)?;
                if !pushed {
                    return Err(self.err("void call used as a value"));
                }
                Ok(())
            }
            ExprKind::Index { .. } | ExprKind::Field { .. } | ExprKind::Deref(_) => {
                if e.ty().is_aggregate() {
                    return self.lower_addr(e);
                }
                self.lower_addr(e)?;
                let (w, fl) = self.scalar_meta(e.ty());
                let site = self.site(e.eid, AccessKind::Load, e.ty(), e.span);
                self.maybe_localize(e.eid, &[AccessKind::Load], site);
                self.emit(Instr::Load {
                    width: w,
                    is_float: fl,
                    site,
                });
                Ok(())
            }
            ExprKind::AddrOf(inner) => self.lower_addr(inner),
            ExprKind::Cast(ty, inner) => {
                if ty == &Type::Void {
                    // Evaluate for effects, push a dummy value (cast-to-void
                    // in value position is meaningless but harmless).
                    self.lower_stmt_expr(inner)?;
                    self.emit(Instr::PushI(0));
                    return Ok(());
                }
                self.lower_value(inner)?;
                self.emit_convert(inner.ty(), ty, true);
                Ok(())
            }
            ExprKind::SizeofType(ty) => {
                let s = self.types().size_of(ty);
                self.emit(Instr::PushI(s as i64));
                Ok(())
            }
            ExprKind::SizeofExpr(inner) => {
                // The operand is not evaluated (C semantics).
                let s = self.types().size_of(inner.ty());
                self.emit(Instr::PushI(s as i64));
                Ok(())
            }
            ExprKind::IncDec { .. } => self.lower_incdec(e, true),
        }
    }

    /// Depth (from innermost) of a parallel induction slot, if `slot` is one.
    fn par_ind_depth(&self, slot: usize) -> Option<u8> {
        self.par_ind_stack
            .iter()
            .rev()
            .position(|&s| s == slot)
            .map(|d| d as u8)
    }

    fn push_var_addr(&mut self, b: VarBinding) {
        match b {
            VarBinding::Local(slot) => {
                let off = self.frame.offsets[slot];
                self.emit(Instr::FrameAddr(off));
            }
            VarBinding::Global(g) => {
                let addr = self.global_addrs[g];
                self.emit(Instr::GlobalAddr(addr));
            }
        }
    }

    /// Lowers an lvalue (or aggregate value) to its address.
    fn lower_addr(&mut self, e: &Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Var { binding, .. } => {
                let b = binding.expect("sema resolved");
                if let VarBinding::Local(slot) = b {
                    if self.par_ind_depth(slot).is_some() {
                        return Err(
                            self.err("cannot take the address of a parallel induction variable")
                        );
                    }
                }
                self.push_var_addr(b);
                Ok(())
            }
            ExprKind::Deref(p) => self.lower_value(p),
            ExprKind::Index { base, index } => {
                let bt = base.ty();
                let elem = bt.pointee().expect("sema checked index base").clone();
                let es = self.types().size_of(&elem);
                // Fully fused private-copy addressing: `v[__tid()]` on a
                // named array is one instruction, exactly as a native
                // compiler's base+index*scale addressing mode.
                if let (
                    false,
                    ExprKind::Var {
                        binding: Some(b), ..
                    },
                    ExprKind::Call { name, args },
                    Type::Array(..),
                ) = (self.opts.naive_redirection, &base.kind, &index.kind, bt)
                {
                    if name == "__tid" && args.is_empty() {
                        match b {
                            VarBinding::Local(slot) => {
                                let offset = self.frame.offsets[*slot];
                                self.emit(Instr::FrameAddrTid {
                                    offset,
                                    stride: es as i64,
                                });
                            }
                            VarBinding::Global(g) => {
                                let addr = self.global_addrs[*g];
                                self.emit(Instr::GlobalAddrTid {
                                    addr,
                                    stride: es as i64,
                                });
                            }
                        }
                        return Ok(());
                    }
                }
                if matches!(bt, Type::Array(..)) {
                    self.lower_addr(base)?;
                } else {
                    self.lower_value(base)?;
                }
                // Strength-reduced forms of the expansion pass's copy
                // indices: `v[0]` costs nothing, `v[__tid()]` a single
                // scaled add — matching what native addressing modes give
                // the paper's generated code.
                if !self.opts.naive_redirection {
                    match &index.kind {
                        ExprKind::IntLit(k) => {
                            // Element `k` of an array of `n` is inside it;
                            // through a pointer nothing says where it is.
                            let inside = matches!(bt, Type::Array(_, n) if (*k as u64) < *n);
                            self.emit_offset(k.wrapping_mul(es as i64), inside);
                            return Ok(());
                        }
                        ExprKind::Call { name, args } if name == "__tid" && args.is_empty() => {
                            self.emit(Instr::TidScaled(es as i64));
                            self.emit(Instr::IBin(IBinOp::Add));
                            return Ok(());
                        }
                        _ => {}
                    }
                }
                self.lower_value(index)?;
                if es != 1 {
                    self.emit(Instr::PushI(es as i64));
                    self.emit(Instr::IBin(IBinOp::Mul));
                }
                self.emit(Instr::IBin(IBinOp::Add));
                Ok(())
            }
            ExprKind::Field { base, field } => {
                self.lower_addr(base)?;
                let Type::Struct(id) = base.ty() else {
                    unreachable!("sema checked field base")
                };
                let off = self
                    .types()
                    .struct_def(*id)
                    .field(field)
                    .expect("sema checked field")
                    .offset;
                self.emit_offset(off as i64, true);
                Ok(())
            }
            other => Err(self.err(format!("expression is not addressable: {other:?}"))),
        }
    }

    /// Lowers an expression to an integer truth value (0/1-ish) suitable for
    /// conditional jumps.
    fn lower_truth(&mut self, e: &Expr) -> Result<(), LowerError> {
        self.lower_value(e)?;
        if e.ty().decayed().is_float() {
            self.emit(Instr::PushF(0.0));
            self.emit(Instr::FCmp(CmpOp::Ne));
        }
        Ok(())
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        result_ty: &Type,
    ) -> Result<(), LowerError> {
        use BinOp::*;
        let lt = l.ty().decayed();
        let rt = r.ty().decayed();
        match op {
            LogAnd => {
                self.lower_truth(l)?;
                let jz = self.emit(Instr::JumpIfZ(0));
                self.lower_truth(r)?;
                let jz2 = self.emit(Instr::JumpIfZ(0));
                self.emit(Instr::PushI(1));
                let jend = self.emit(Instr::Jump(0));
                let false_pc = self.here();
                self.patch(jz, false_pc);
                self.patch(jz2, false_pc);
                self.emit(Instr::PushI(0));
                let end = self.here();
                self.patch(jend, end);
                Ok(())
            }
            LogOr => {
                self.lower_truth(l)?;
                let jnz = self.emit(Instr::JumpIfNZ(0));
                self.lower_truth(r)?;
                let jnz2 = self.emit(Instr::JumpIfNZ(0));
                self.emit(Instr::PushI(0));
                let jend = self.emit(Instr::Jump(0));
                let true_pc = self.here();
                self.patch(jnz, true_pc);
                self.patch(jnz2, true_pc);
                self.emit(Instr::PushI(1));
                let end = self.here();
                self.patch(jend, end);
                Ok(())
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let cmp = match op {
                    Eq => CmpOp::Eq,
                    Ne => CmpOp::Ne,
                    Lt => CmpOp::Lt,
                    Le => CmpOp::Le,
                    Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                let float = lt.is_float() || rt.is_float();
                self.lower_value(l)?;
                if float && !lt.is_float() {
                    self.emit(Instr::I2F);
                }
                self.lower_value(r)?;
                if float && !rt.is_float() {
                    self.emit(Instr::I2F);
                }
                self.emit(if float {
                    Instr::FCmp(cmp)
                } else {
                    Instr::ICmp(cmp)
                });
                Ok(())
            }
            Add | Sub if lt.is_pointer() || rt.is_pointer() => {
                if lt.is_pointer() && rt.is_pointer() {
                    // p - q, scaled by element size.
                    debug_assert_eq!(op, Sub);
                    let es = self.types().size_of(lt.pointee().expect("pointer"));
                    self.lower_value(l)?;
                    self.lower_value(r)?;
                    self.emit(Instr::IBin(IBinOp::Sub));
                    if es != 1 {
                        self.emit(Instr::PushI(es as i64));
                        self.emit(Instr::IBin(IBinOp::Div));
                    }
                } else if lt.is_pointer() {
                    let es = self.types().size_of(lt.pointee().expect("pointer"));
                    self.lower_value(l)?;
                    // Strength-reduce the redirection offset
                    // `__tid() * S / sizeof(*p)` with constant S divisible
                    // by the element size: one scaled add, as a native
                    // compiler's LICM + addressing modes would produce.
                    if op == Add && !self.opts.naive_redirection {
                        if let Some(bytes) = tid_const_offset_bytes(r, es) {
                            self.emit(Instr::TidScaled(bytes));
                            self.emit(Instr::IBin(IBinOp::Add));
                            return Ok(());
                        }
                        if let Some(span_expr) = tid_span_offset(r, es) {
                            self.lower_value(span_expr)?;
                            self.emit(Instr::TidSpanScaled(es as i64));
                            self.emit(Instr::IBin(IBinOp::Add));
                            return Ok(());
                        }
                    }
                    self.lower_value(r)?;
                    if es != 1 {
                        self.emit(Instr::PushI(es as i64));
                        self.emit(Instr::IBin(IBinOp::Mul));
                    }
                    self.emit(Instr::IBin(if op == Add {
                        IBinOp::Add
                    } else {
                        IBinOp::Sub
                    }));
                } else {
                    // int + ptr
                    debug_assert_eq!(op, Add);
                    let es = self.types().size_of(rt.pointee().expect("pointer"));
                    self.lower_value(l)?;
                    if es != 1 {
                        self.emit(Instr::PushI(es as i64));
                        self.emit(Instr::IBin(IBinOp::Mul));
                    }
                    self.lower_value(r)?;
                    self.emit(Instr::IBin(IBinOp::Add));
                }
                Ok(())
            }
            _ => {
                let float = result_ty.is_float();
                self.lower_value(l)?;
                if float && !lt.is_float() {
                    self.emit(Instr::I2F);
                }
                self.lower_value(r)?;
                if float && !rt.is_float() {
                    self.emit(Instr::I2F);
                }
                if float {
                    let f = match op {
                        Add => FBinOp::Add,
                        Sub => FBinOp::Sub,
                        Mul => FBinOp::Mul,
                        Div => FBinOp::Div,
                        _ => return Err(self.err("float operand for integer operator")),
                    };
                    self.emit(Instr::FBin(f));
                } else {
                    let i = match op {
                        Add => IBinOp::Add,
                        Sub => IBinOp::Sub,
                        Mul => IBinOp::Mul,
                        Div => IBinOp::Div,
                        Rem => IBinOp::Rem,
                        And => IBinOp::And,
                        Or => IBinOp::Or,
                        Xor => IBinOp::Xor,
                        Shl => IBinOp::Shl,
                        Shr => IBinOp::Shr,
                        _ => unreachable!("comparisons handled above"),
                    };
                    self.emit(Instr::IBin(i));
                }
                Ok(())
            }
        }
    }

    fn lower_assign(&mut self, e: &Expr, want: bool) -> Result<(), LowerError> {
        let ExprKind::Assign { op, lhs, rhs } = &e.kind else {
            unreachable!()
        };
        let lhs_ty = lhs.ty().clone();
        if lhs_ty.is_aggregate() {
            if want {
                return Err(self.err("aggregate assignment cannot be used as a value"));
            }
            let size = self.types().size_of(&lhs_ty) as u32;
            let ls = self.aggregate_site(rhs.eid, AccessKind::Load, size, rhs.span);
            let ss = self.aggregate_site(lhs.eid, AccessKind::Store, size, lhs.span);
            self.lower_addr(rhs)?;
            self.maybe_localize(rhs.eid, &[AccessKind::Load], ls);
            self.lower_addr(lhs)?;
            self.maybe_localize(lhs.eid, &[AccessKind::Store], ss);
            self.emit(Instr::MemCpy {
                size,
                load_site: ls,
                store_site: ss,
            });
            return Ok(());
        }
        let (w, fl) = self.scalar_meta(&lhs_ty);
        let store_site = self.site(lhs.eid, AccessKind::Store, &lhs_ty, lhs.span);
        match op {
            AssignOp::Set => {
                self.lower_addr(lhs)?;
                self.maybe_localize(lhs.eid, &[AccessKind::Store], store_site);
                self.lower_value(rhs)?;
                self.emit_convert(rhs.ty(), &lhs_ty, false);
                if want {
                    self.emit(Instr::Tuck);
                }
                self.emit(Instr::Store {
                    width: w,
                    is_float: fl,
                    site: store_site,
                });
                Ok(())
            }
            AssignOp::Compound(bop) => {
                let load_site = self.site(lhs.eid, AccessKind::Load, &lhs_ty, lhs.span);
                self.lower_addr(lhs)?;
                self.maybe_localize(lhs.eid, &[AccessKind::Load, AccessKind::Store], load_site);
                self.emit(Instr::Dup);
                self.emit(Instr::Load {
                    width: w,
                    is_float: fl,
                    site: load_site,
                });
                let lhs_d = lhs_ty.decayed();
                if lhs_d.is_pointer() {
                    // p += n / p -= n : scale by element size.
                    let es = self.types().size_of(lhs_d.pointee().expect("pointer"));
                    self.lower_value(rhs)?;
                    if es != 1 {
                        self.emit(Instr::PushI(es as i64));
                        self.emit(Instr::IBin(IBinOp::Mul));
                    }
                    let ib = match bop {
                        BinOp::Add => IBinOp::Add,
                        BinOp::Sub => IBinOp::Sub,
                        _ => return Err(self.err("unsupported compound operator on pointer")),
                    };
                    self.emit(Instr::IBin(ib));
                } else {
                    let op_float = lhs_d.is_float() || rhs.ty().decayed().is_float();
                    if op_float && !lhs_d.is_float() {
                        self.emit(Instr::I2F);
                    }
                    self.lower_value(rhs)?;
                    if op_float && !rhs.ty().decayed().is_float() {
                        self.emit(Instr::I2F);
                    }
                    if op_float {
                        let f = match bop {
                            BinOp::Add => FBinOp::Add,
                            BinOp::Sub => FBinOp::Sub,
                            BinOp::Mul => FBinOp::Mul,
                            BinOp::Div => FBinOp::Div,
                            _ => return Err(self.err("float operand for integer operator")),
                        };
                        self.emit(Instr::FBin(f));
                        if !lhs_d.is_float() {
                            self.emit(Instr::F2I);
                        }
                    } else {
                        let i = match bop {
                            BinOp::Add => IBinOp::Add,
                            BinOp::Sub => IBinOp::Sub,
                            BinOp::Mul => IBinOp::Mul,
                            BinOp::Div => IBinOp::Div,
                            BinOp::Rem => IBinOp::Rem,
                            BinOp::And => IBinOp::And,
                            BinOp::Or => IBinOp::Or,
                            BinOp::Xor => IBinOp::Xor,
                            BinOp::Shl => IBinOp::Shl,
                            BinOp::Shr => IBinOp::Shr,
                            _ => return Err(self.err("invalid compound operator")),
                        };
                        self.emit(Instr::IBin(i));
                    }
                }
                if want {
                    self.emit(Instr::Tuck);
                }
                self.emit(Instr::Store {
                    width: w,
                    is_float: fl,
                    site: store_site,
                });
                Ok(())
            }
        }
    }

    fn lower_incdec(&mut self, e: &Expr, want: bool) -> Result<(), LowerError> {
        let ExprKind::IncDec { pre, inc, target } = &e.kind else {
            unreachable!()
        };
        let ty = target.ty().clone();
        let (w, fl) = self.scalar_meta(&ty);
        debug_assert!(!fl, "sema rejects float ++/--");
        let delta = if ty.decayed().is_pointer() {
            self.types()
                .size_of(ty.decayed().pointee().expect("pointer")) as i64
        } else {
            1
        };
        let load_site = self.site(target.eid, AccessKind::Load, &ty, target.span);
        let store_site = self.site(target.eid, AccessKind::Store, &ty, target.span);
        self.lower_addr(target)?;
        self.maybe_localize(
            target.eid,
            &[AccessKind::Load, AccessKind::Store],
            load_site,
        );
        self.emit(Instr::Dup);
        self.emit(Instr::Load {
            width: w,
            is_float: false,
            site: load_site,
        });
        if want && !*pre {
            // Keep the old value: [a, old] -> [old, a, old]
            self.emit(Instr::Tuck);
        }
        self.emit(Instr::PushI(delta));
        self.emit(Instr::IBin(if *inc { IBinOp::Add } else { IBinOp::Sub }));
        if want && *pre {
            // Keep the new value: [a, new] -> [new, a, new]
            self.emit(Instr::Tuck);
        }
        self.emit(Instr::Store {
            width: w,
            is_float: false,
            site: store_site,
        });
        Ok(())
    }

    /// Lowers a call; returns whether a result value was pushed.
    fn lower_call(&mut self, e: &Expr) -> Result<bool, LowerError> {
        let ExprKind::Call { name, args } = &e.kind else {
            unreachable!()
        };
        if name == "__localize" {
            // Runtime-privatization address translation (emitted by the
            // baseline transform): pops an address, pushes its thread-local
            // translation.
            self.lower_value(&args[0])?;
            self.emit(Instr::Localize { site: NO_SITE });
            return Ok(true);
        }
        if let Some(b) = Builtin::from_name(name) {
            let sig = dse_lang::sema::builtin_signature(name);
            for (i, a) in args.iter().enumerate() {
                self.lower_value(a)?;
                if let Some(sig) = &sig {
                    self.emit_convert(a.ty(), &sig.params[i], false);
                }
            }
            self.emit(Instr::CallBuiltin(b));
            return Ok(b.has_result());
        }
        let fi = self
            .program
            .functions
            .iter()
            .position(|f| &f.name == name)
            .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
        let callee = &self.program.functions[fi];
        let param_tys: Vec<Type> = callee.params.iter().map(|p| p.ty.clone()).collect();
        let ret_void = callee.ret_ty == Type::Void;
        for (a, pt) in args.iter().zip(&param_tys) {
            self.lower_value(a)?;
            self.emit_convert(a.ty(), pt, false);
        }
        self.emit(Instr::Call(fi as u32));
        Ok(!ret_void)
    }

    /// Emits numeric conversions between scalar types. `explicit` additionally
    /// truncates integers to the target width (cast semantics); implicit
    /// conversions rely on stores to truncate.
    fn emit_convert(&mut self, from: &Type, to: &Type, explicit: bool) {
        let from = from.decayed();
        let to = to.decayed();
        match (from.is_float(), to.is_float()) {
            (false, true) => {
                self.emit(Instr::I2F);
            }
            (true, false) => {
                self.emit(Instr::F2I);
                if explicit {
                    let w = self.types().size_of(&to) as u8;
                    if w < 8 {
                        self.emit(Instr::SextTrunc(w));
                    }
                }
            }
            (false, false) => {
                if explicit && to.is_integer() {
                    let w = self.types().size_of(&to) as u8;
                    if w < 8 {
                        self.emit(Instr::SextTrunc(w));
                    }
                }
            }
            (true, true) => {}
        }
    }
}

/// Matches the redirection-offset shape `__tid() * S / Z` with constant
/// `S`, `Z` where `Z` equals the element size and `S` is a multiple of it;
/// returns the per-thread byte offset `S`.
fn tid_const_offset_bytes(e: &Expr, elem_size: u64) -> Option<i64> {
    let ExprKind::Binary(BinOp::Div, num, den) = &e.kind else {
        return None;
    };
    let ExprKind::IntLit(z) = den.kind else {
        return None;
    };
    let ExprKind::Binary(BinOp::Mul, tid, s) = &num.kind else {
        return None;
    };
    let ExprKind::Call { name, args } = &tid.kind else {
        return None;
    };
    if name != "__tid" || !args.is_empty() {
        return None;
    }
    let ExprKind::IntLit(s) = s.kind else {
        return None;
    };
    (z == elem_size as i64 && z != 0 && s % z == 0).then_some(s)
}

/// Matches the dynamic-span redirection shape `__tid() * <span> / Z` with
/// `Z` equal to the element size; returns the span expression so the whole
/// offset lowers to one fused `TidSpanScaled`.
fn tid_span_offset(e: &Expr, elem_size: u64) -> Option<&Expr> {
    let ExprKind::Binary(BinOp::Div, num, den) = &e.kind else {
        return None;
    };
    let ExprKind::IntLit(z) = den.kind else {
        return None;
    };
    if z != elem_size as i64 || z == 0 {
        return None;
    }
    let ExprKind::Binary(BinOp::Mul, tid, span) = &num.kind else {
        return None;
    };
    let ExprKind::Call { name, args } = &tid.kind else {
        return None;
    };
    (name == "__tid" && args.is_empty()).then_some(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::ast;
    use dse_lang::compile_to_ast;

    fn lower(src: &str) -> CompiledProgram {
        let p = compile_to_ast(src).unwrap();
        lower_program(&p, &LowerOptions::default()).unwrap()
    }

    fn lower_err(src: &str) -> LowerError {
        let p = compile_to_ast(src).unwrap();
        lower_program(&p, &LowerOptions::default()).unwrap_err()
    }

    #[test]
    fn lowers_minimal_main() {
        let c = lower("int main() { return 42; }");
        assert_eq!(c.funcs.len(), 1);
        assert_eq!(c.func(c.main).name, "main");
        assert!(c.code.contains(&Instr::PushI(42)));
        assert!(c.code.contains(&Instr::Ret));
    }

    #[test]
    fn missing_main_is_error() {
        assert!(lower_err("void f() {}").0.contains("no `main`"));
    }

    #[test]
    fn main_with_params_is_error() {
        assert!(lower_err("int main(int x) { return x; }")
            .0
            .contains("no parameters"));
    }

    #[test]
    fn aggregate_param_is_error() {
        let e = lower_err("struct S { int a; }; void f(struct S s) {} int main() { return 0; }");
        assert!(e.0.contains("aggregate parameter"));
    }

    #[test]
    fn frame_layout_respects_alignment() {
        let p = compile_to_ast("void f() { char c; long l; int i; }").unwrap();
        let fl = FrameLayout::of(&p.functions[0], &p.types);
        assert_eq!(fl.offsets, vec![0, 8, 16]);
        assert_eq!(fl.size, 24);
    }

    #[test]
    fn global_layout_and_inits() {
        let c =
            lower("char c; long g = 7; float f = 2.5; int a[3] = {1,2}; int main() { return 0; }");
        // c at 4096; g aligned to 4104; f at 4112; a at 4120.
        assert_eq!(c.global_inits[0], (4104, InitValue::Int(7, 8)));
        assert_eq!(c.global_inits[1], (4112, InitValue::Float(2.5)));
        assert_eq!(c.global_inits[2], (4120, InitValue::Int(1, 4)));
        assert_eq!(c.global_inits[3], (4124, InitValue::Int(2, 4)));
        assert_eq!(c.globals_size, 4120 + 12 - GLOBAL_BASE);
    }

    #[test]
    fn var_load_gets_site_keyed_by_eid() {
        let src = "int g; int main() { return g; }";
        let c = lower(src);
        let p = compile_to_ast(src).unwrap();
        // Find the `g` expression's eid.
        let mut g_eid = None;
        let mut probe = p.clone();
        for f in &mut probe.functions {
            ast::visit_exprs_in_block(&mut f.body, &mut |e| {
                if matches!(&e.kind, ExprKind::Var { name, .. } if name == "g") {
                    g_eid = Some(e.eid);
                }
            });
        }
        let sid = c.sites.by_eid(g_eid.unwrap(), AccessKind::Load).unwrap();
        assert_eq!(c.sites.info(sid).width, 4);
    }

    #[test]
    fn serial_candidate_gets_loop_marks() {
        let c = lower(
            "int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 10; i++) { s += i; }
               return s; }",
        );
        assert_eq!(c.loops.len(), 1);
        assert_eq!(c.loops[0].label, "hot");
        assert_eq!(c.loops[0].mode, None);
        let marks: Vec<_> = c
            .code
            .iter()
            .filter(|i| matches!(i, Instr::LoopMark(..)))
            .collect();
        assert_eq!(marks.len(), 3);
    }

    #[test]
    fn parallel_candidate_outlines_body() {
        let p = compile_to_ast(
            "int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 10; i++) { s += i; }
               return s; }",
        )
        .unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        opts.par = vec![Some(ParLoopSpec {
            mode: ParMode::DoAll,
            sync_window: None,
        })];
        let c = lower_program(&p, &opts).unwrap();
        assert_eq!(c.loops[0].mode, Some(ParMode::DoAll));
        assert!(c.code.contains(&Instr::ParLoop(0)));
        // Body reads the induction variable through IterIdx.
        let body_start = c.loops[0].body_entry as usize;
        let body_code = &c.code[body_start..];
        assert!(body_code.iter().any(|i| matches!(i, Instr::IterIdx(0))));
        assert!(body_code.contains(&Instr::Ret));
    }

    #[test]
    fn doacross_sync_window_emits_wait_post() {
        let p = compile_to_ast(
            "int g; int main() {
               #pragma candidate hot
               for (int i = 0; i < 10; i++) { int t; t = i * 2; g = g + t; t = t + 1; }
               return g; }",
        )
        .unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        opts.par = vec![Some(ParLoopSpec {
            mode: ParMode::DoAcross,
            sync_window: Some((2, 2)),
        })];
        let c = lower_program(&p, &opts).unwrap();
        let waits = c
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Wait(0)))
            .count();
        let posts = c
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Post(0)))
            .count();
        assert_eq!(waits, 1);
        assert_eq!(posts, 1);
        // Wait must come before Post in the body region.
        let wpos = c
            .code
            .iter()
            .position(|i| matches!(i, Instr::Wait(0)))
            .unwrap();
        let ppos = c
            .code
            .iter()
            .position(|i| matches!(i, Instr::Post(0)))
            .unwrap();
        assert!(wpos < ppos);
    }

    #[test]
    fn localize_wraps_requested_sites() {
        let src = "int g; int main() { g = 1; return g; }";
        let p = compile_to_ast(src).unwrap();
        // Collect the eids of the store and the load of g.
        let mut store_eid = None;
        let mut probe = p.clone();
        for f in &mut probe.functions {
            ast::visit_exprs_in_block(&mut f.body, &mut |e| {
                if let ExprKind::Var { name, .. } = &e.kind {
                    if name == "g" && store_eid.is_none() {
                        store_eid = Some(e.eid);
                    }
                }
            });
        }
        let mut opts = LowerOptions::default();
        opts.localize
            .insert((store_eid.unwrap(), AccessKind::Store));
        let c = lower_program(&p, &opts).unwrap();
        assert_eq!(
            c.code
                .iter()
                .filter(|i| matches!(i, Instr::Localize { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn decl_with_top_level_assign_initializer_is_error() {
        let e = lower_err("int main() { int y; int x = (y = 1); return x; }");
        assert!(e.0.contains("not supported"));
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let c = lower("int main() { int *p; p = malloc(40); p = p + 2; free(p - 2); return 0; }");
        // Expect a multiply by 4 somewhere for the scaling.
        assert!(c.code.contains(&Instr::PushI(4)));
    }

    #[test]
    fn logical_ops_short_circuit_via_jumps() {
        let c = lower("int main(){ int a; a = 1; return a && (a || 0); }");
        assert!(c.code.iter().any(|i| matches!(i, Instr::JumpIfZ(_))));
        assert!(c.code.iter().any(|i| matches!(i, Instr::JumpIfNZ(_))));
    }

    #[test]
    fn struct_assignment_lowers_to_memcpy() {
        let c = lower(
            "struct S { int a; long b; };
             struct S x; struct S y;
             int main() { x = y; return 0; }",
        );
        assert!(c
            .code
            .iter()
            .any(|i| matches!(i, Instr::MemCpy { size: 16, .. })));
    }

    #[test]
    fn compound_assign_loads_and_stores_same_eid() {
        let src = "int g; int main() { g += 3; return g; }";
        let c = lower(src);
        let p = compile_to_ast(src).unwrap();
        let mut g_eid = None;
        let mut probe = p.functions[0].body.clone();
        ast::visit_exprs_in_block(&mut probe, &mut |e| {
            if matches!(&e.kind, ExprKind::Var { name, .. } if name == "g") && g_eid.is_none() {
                g_eid = Some(e.eid);
            }
        });
        let eid = g_eid.unwrap();
        assert!(c.sites.by_eid(eid, AccessKind::Load).is_some());
        assert!(c.sites.by_eid(eid, AccessKind::Store).is_some());
    }

    #[test]
    fn sizeof_lowers_to_constant() {
        let c = lower("struct S { char c; long l; }; int main() { return (int)sizeof(struct S); }");
        assert!(c.code.contains(&Instr::PushI(16)));
    }

    #[test]
    fn nested_parallel_induction_depths() {
        let p = compile_to_ast(
            "int main() { int s; s = 0;
               #pragma candidate outer
               for (int i = 0; i < 4; i++) {
                 #pragma candidate inner
                 for (int j = 0; j < 4; j++) { s += i + j; }
               }
               return s; }",
        )
        .unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        opts.par = vec![
            Some(ParLoopSpec {
                mode: ParMode::DoAll,
                sync_window: None,
            });
            2
        ];
        let c = lower_program(&p, &opts).unwrap();
        // Inner body reads j at depth 0 and i at depth 1.
        assert!(c.code.contains(&Instr::IterIdx(0)));
        assert!(c.code.contains(&Instr::IterIdx(1)));
    }

    /// Every worker running the outer body shares the inner loop's
    /// induction slot, so the inner lower bound must not go through it: a
    /// peer's inner loop may store its final value between the init and
    /// the reload, and the inner loop then runs no iterations.
    #[test]
    fn nested_parallel_lower_bound_bypasses_the_shared_induction_slot() {
        let p = compile_to_ast(
            "int main() { int *g; g = malloc(64);
               #pragma candidate outer
               for (int i = 0; i < 4; i++) {
                 #pragma candidate inner
                 for (int j = i; j < 4; j++) { g[i * 4 + j] = j; }
               }
               return g[5]; }",
        )
        .unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        opts.par = vec![
            Some(ParLoopSpec {
                mode: ParMode::DoAll,
                sync_window: None,
            });
            2
        ];
        let c = lower_program(&p, &opts).unwrap();
        let j_off = c.loops[1].induction_offset;
        let start = c.loops[0].body_entry as usize;
        let dispatch = c.code.iter().position(|i| *i == Instr::ParLoop(1)).unwrap();
        let before = &c.code[start..dispatch];
        assert!(
            !before.contains(&Instr::FrameAddr(j_off)),
            "the inner bound goes through `j`'s slot: {before:?}"
        );
        // lo = i, read as the outer loop's iteration and truncated to
        // `int` as a store to `j` would; then hi = 4.
        assert_eq!(
            before[before.len() - 3..],
            [Instr::IterIdx(0), Instr::SextTrunc(4), Instr::PushI(4)],
            "{before:?}"
        );
    }

    #[test]
    fn candidate_in_parallel_mode_without_spec_lowers_plain() {
        let p = compile_to_ast(
            "int main() { #pragma candidate hot
               for (int i = 0; i < 4; i++) { }
               return 0; }",
        )
        .unwrap();
        let opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        let c = lower_program(&p, &opts).unwrap();
        assert!(!c.code.iter().any(|i| matches!(i, Instr::ParLoop(_))));
        assert!(!c.code.iter().any(|i| matches!(i, Instr::LoopMark(..))));
    }

    #[test]
    fn builtin_call_lowering() {
        let c = lower("int main() { int *p; p = malloc(8); free(p); return 0; }");
        assert!(c.code.contains(&Instr::CallBuiltin(Builtin::Malloc)));
        assert!(c.code.contains(&Instr::CallBuiltin(Builtin::Free)));
    }

    #[test]
    fn user_call_with_conversion() {
        let c = lower(
            "float half(float x) { return x / 2.0; }
             int main() { return (int)half(3); }",
        );
        // Argument 3 (int) must be converted to float.
        assert!(c.code.contains(&Instr::I2F));
        assert!(c.code.contains(&Instr::F2I));
    }

    #[test]
    fn constant_offsets_fold_into_the_address_producer() {
        let c = lower(
            "struct S { long a; long b[3]; };
             struct S g;
             int main() { struct S s; struct S r[2];
               s.b[2] = 1; g.b[1] = 2; r[__tid()].b[1] = 3;
               return 0; }",
        );
        let s = c.func(c.main).locals[0].0;
        let r = c.func(c.main).locals[1].0;
        // Member and in-bounds literal index: no arithmetic at all.
        assert!(c.code.contains(&Instr::FrameAddr(s + 8 + 16)));
        assert!(c
            .code
            .contains(&Instr::GlobalAddr(GLOBAL_BASE as u32 + 8 + 8)));
        assert!(c.code.contains(&Instr::FrameAddrTid {
            offset: r + 8 + 8,
            stride: 32
        }));
        assert!(!c.code.contains(&Instr::IBin(IBinOp::Add)));
    }

    #[test]
    fn an_offset_that_may_leave_the_object_stays_arithmetic() {
        // One past the end, and an index through a pointer: the producer
        // keeps naming the object it was formed from (scalar promotion
        // assumes an address stays inside its object), but consecutive
        // constant adds still merge into one.
        let c = lower(
            "struct S { long a; long b; };
             int main() { long a[2]; struct S *p; p = malloc(64);
               a[2] = 1; p[1].b = 2;
               free(p); return 0; }",
        );
        let a = c.func(c.main).locals[0].0;
        let at = c.code.iter().position(|i| *i == Instr::FrameAddr(a));
        let at = at.expect("the array's own address is formed");
        assert_eq!(
            c.code[at + 1..at + 3],
            [Instr::PushI(16), Instr::IBin(IBinOp::Add)]
        );
        assert!(c.code.contains(&Instr::PushI(16 + 8)), "p[1].b is one add");
        assert_eq!(
            c.code
                .iter()
                .filter(|i| **i == Instr::IBin(IBinOp::Add))
                .count(),
            2
        );
    }

    #[test]
    fn folding_never_reaches_across_a_jump_target() {
        // The conditional's join lands between the address producer of its
        // false arm and the member offset: both arms must get the add.
        let c = lower(
            "struct S { long a; long b; };
             int main() { struct S x; struct S y; long k; k = in_long(0);
               (*(k ? &x : &y)).b = 7;
               return 0; }",
        );
        let (x, y) = (c.func(c.main).locals[0].0, c.func(c.main).locals[1].0);
        assert!(c.code.contains(&Instr::FrameAddr(x)));
        assert!(c.code.contains(&Instr::FrameAddr(y)));
        assert!(!c.code.contains(&Instr::FrameAddr(y + 8)));
        assert!(c.code.contains(&Instr::IBin(IBinOp::Add)));
    }
}

#[cfg(test)]
mod naive_mode_tests {
    use super::*;
    use crate::bytecode::Instr;
    use dse_lang::compile_to_ast;

    const SRC: &str = "int main() {
        int slots[4];
        #pragma candidate hot
        for (int i = 0; i < 8; i++) { slots[__tid()] = i; }
        return slots[0]; }";

    fn lower_with(naive: bool) -> CompiledProgram {
        let ast = compile_to_ast(SRC).unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            naive_redirection: naive,
            ..Default::default()
        };
        opts.par = vec![Some(ParLoopSpec {
            mode: ParMode::DoAll,
            sync_window: None,
        })];
        lower_program(&ast, &opts).unwrap()
    }

    #[test]
    fn fused_addressing_only_without_naive_flag() {
        let fused = lower_with(false);
        assert!(fused
            .code
            .iter()
            .any(|i| matches!(i, Instr::FrameAddrTid { .. })));
        let naive = lower_with(true);
        assert!(!naive
            .code
            .iter()
            .any(|i| matches!(i, Instr::FrameAddrTid { .. } | Instr::TidScaled(_))));
        assert!(naive.code.len() > fused.code.len());
    }

    #[test]
    fn serial_mode_emits_marks_in_order() {
        let ast = compile_to_ast(
            "int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 4; i++) { s += i; }
               return s; }",
        )
        .unwrap();
        let c = lower_program(&ast, &LowerOptions::default()).unwrap();
        let marks: Vec<LoopEvent> = c
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::LoopMark(ev, 0) => Some(*ev),
                _ => None,
            })
            .collect();
        assert_eq!(
            marks,
            vec![LoopEvent::Begin, LoopEvent::IterStart, LoopEvent::End]
        );
        // IterStart must sit between the conditional branch and the body.
        let begin = c
            .code
            .iter()
            .position(|i| matches!(i, Instr::LoopMark(LoopEvent::Begin, 0)))
            .unwrap();
        let iter = c
            .code
            .iter()
            .position(|i| matches!(i, Instr::LoopMark(LoopEvent::IterStart, 0)))
            .unwrap();
        assert!(iter > begin);
    }
}
