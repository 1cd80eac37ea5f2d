//! Andersen-style points-to analysis over the typed Cee AST.
//!
//! Flow-insensitive, field-insensitive, interprocedural, with
//! allocation-site abstraction:
//!
//! * abstract objects ([`PtObj`]) are heap allocation sites (keyed by the
//!   `malloc`/`calloc`/`realloc` call expression id) and named variables
//!   (globals and locals, which become objects when their address is taken
//!   or when they are aggregates holding pointers);
//! * every object has a single *content* node summarizing all pointer
//!   values stored anywhere inside it (field-insensitivity — sound and
//!   sufficient for the expansion pass's "may this pointer reference an
//!   expanded structure?" queries);
//! * the inclusion constraints are solved with a standard worklist.
//!
//! The pass also records, for every memory-access expression, *how* it
//! addresses memory — directly through a named variable or through a
//! pointer value — so [`PointsTo::objects_of_site`] can answer "which
//! structures may this access site touch?" (the paper's alias-analysis
//! question in Section 3.4).

use dse_lang::ast::*;
use dse_lang::types::Type;
use std::collections::{HashMap, HashSet};

/// A named storage location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarId {
    /// Global by index.
    Global(usize),
    /// Function local by (function index, slot).
    Local(usize, usize),
}

/// An abstract memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PtObj {
    /// Heap object identified by its allocation call's expression id.
    Alloc(u32),
    /// A named variable (global or local).
    Var(VarId),
}

/// Internal constraint-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// The pointer value of a scalar variable.
    Var(VarId),
    /// The summarized pointer contents of an object.
    Content(PtObj),
    /// The return value of a function.
    Ret(usize),
    /// A temporary for an expression's pointer value.
    Temp(u32),
}

/// How a memory-access expression addresses storage.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SiteAddr {
    /// Directly names a variable (possibly through fields/indices of it).
    Direct(VarId),
    /// Dereferences the pointer value of this node.
    ViaPointer(Node),
}

/// Results of the analysis.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    pts: HashMap<u64, HashSet<PtObj>>,
    node_ids: HashMap<NodeKey, u64>,
    site_addr: HashMap<u32, SiteAddrPub>,
}

// Public mirror of SiteAddr using node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SiteAddrPub {
    Direct(VarId),
    Via(u64),
}

type NodeKey = Node;

impl PointsTo {
    /// The objects a variable's pointer value may reference.
    pub fn pts_of_var(&self, var: VarId) -> HashSet<PtObj> {
        self.node_ids
            .get(&Node::Var(var))
            .and_then(|id| self.pts.get(id))
            .cloned()
            .unwrap_or_default()
    }

    /// The structures the access expression `eid` may touch: a direct
    /// variable, or the points-to set of the dereferenced pointer.
    pub fn objects_of_site(&self, eid: u32) -> HashSet<PtObj> {
        match self.site_addr.get(&eid) {
            Some(SiteAddrPub::Direct(v)) => [PtObj::Var(*v)].into_iter().collect(),
            Some(SiteAddrPub::Via(node)) => self.pts.get(node).cloned().unwrap_or_default(),
            None => HashSet::new(),
        }
    }

    /// True when the access `eid` addresses memory through a pointer value
    /// (rather than naming a variable directly).
    pub fn site_is_indirect(&self, eid: u32) -> bool {
        matches!(self.site_addr.get(&eid), Some(SiteAddrPub::Via(_)))
    }
}

/// Runs the analysis over a type-checked program.
pub fn analyze(program: &Program) -> PointsTo {
    let mut cx = Cx {
        program,
        nodes: HashMap::new(),
        pts: Vec::new(),
        copies: Vec::new(),
        loads: Vec::new(),
        stores: Vec::new(),
        site_addr: HashMap::new(),
        next_temp: u32::MAX,
    };
    let mut prog = program.clone();
    for (fi, f) in prog.functions.iter_mut().enumerate() {
        cx.collect_block(fi, &mut f.body.clone());
        let _ = f;
    }
    cx.solve();
    let mut node_ids = HashMap::new();
    for (k, v) in &cx.nodes {
        node_ids.insert(*k, *v as u64);
    }
    PointsTo {
        pts: cx
            .pts
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.clone()))
            .collect(),
        node_ids,
        site_addr: cx
            .site_addr
            .iter()
            .map(|(eid, sa)| {
                let pubsa = match sa {
                    SiteAddr::Direct(v) => SiteAddrPub::Direct(*v),
                    SiteAddr::ViaPointer(n) => SiteAddrPub::Via(cx.nodes[n] as u64),
                };
                (*eid, pubsa)
            })
            .collect(),
    }
}

struct Cx<'a> {
    program: &'a Program,
    nodes: HashMap<Node, usize>,
    pts: Vec<HashSet<PtObj>>,
    /// src -> dst inclusion edges.
    copies: Vec<(usize, usize)>,
    /// (ptr node, dst node): dst ⊇ Content(o) for o in pts(ptr).
    loads: Vec<(usize, usize)>,
    /// (ptr node, src node): Content(o) ⊇ src for o in pts(ptr).
    stores: Vec<(usize, usize)>,
    site_addr: HashMap<u32, SiteAddr>,
    next_temp: u32,
}

impl<'a> Cx<'a> {
    fn node(&mut self, n: Node) -> usize {
        if let Some(&i) = self.nodes.get(&n) {
            return i;
        }
        let i = self.pts.len();
        self.nodes.insert(n, i);
        self.pts.push(HashSet::new());
        i
    }

    fn fresh_temp(&mut self) -> usize {
        self.next_temp -= 1;
        let t = self.next_temp;
        self.node(Node::Temp(t))
    }

    fn seed(&mut self, n: usize, o: PtObj) {
        self.pts[n].insert(o);
    }

    fn copy(&mut self, src: usize, dst: usize) {
        if src != dst {
            self.copies.push((src, dst));
        }
    }

    /// The content node of an object: for scalar pointer variables it *is*
    /// the variable's own node.
    fn content_node(&mut self, o: PtObj) -> usize {
        if let PtObj::Var(v) = o {
            if self.var_type(v).is_pointer() {
                return self.node(Node::Var(v));
            }
        }
        self.node(Node::Content(o))
    }

    fn var_type(&self, v: VarId) -> Type {
        match v {
            VarId::Global(g) => self.program.globals[g].ty.clone(),
            VarId::Local(f, s) => self.program.functions[f].locals[s].ty.clone(),
        }
    }

    // ---- collection -------------------------------------------------------

    fn collect_block(&mut self, func: usize, block: &mut Block) {
        let stmts = std::mem::take(&mut block.stmts);
        for mut s in stmts {
            self.collect_stmt(func, &mut s);
        }
    }

    fn collect_stmt(&mut self, func: usize, stmt: &mut Stmt) {
        match &mut stmt.kind {
            StmtKind::Decl { init, slot, .. } => {
                if let Some(e) = init {
                    let src = self.rvalue(func, e);
                    let dst = self.node(Node::Var(VarId::Local(func, slot.expect("sema"))));
                    self.copy(src, dst);
                    // Aggregates: the initializer's contents flow too.
                    if e.ty().is_aggregate() {
                        let obj = VarId::Local(func, slot.expect("sema"));
                        let c = self.content_node(PtObj::Var(obj));
                        self.copy(src, c);
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.rvalue(func, e);
            }
            StmtKind::If { cond, then, els } => {
                self.rvalue(func, cond);
                self.collect_block(func, then);
                if let Some(b) = els {
                    self.collect_block(func, b);
                }
            }
            StmtKind::While { cond, body, .. } => {
                self.rvalue(func, cond);
                self.collect_block(func, body);
            }
            StmtKind::DoWhile { body, cond, .. } => {
                self.collect_block(func, body);
                self.rvalue(func, cond);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(s) = init {
                    self.collect_stmt(func, s);
                }
                if let Some(c) = cond {
                    self.rvalue(func, c);
                }
                if let Some(s) = step {
                    self.rvalue(func, s);
                }
                self.collect_block(func, body);
            }
            StmtKind::Return(Some(e)) => {
                let src = self.rvalue(func, e);
                let r = self.node(Node::Ret(func));
                self.copy(src, r);
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.collect_block(func, b),
        }
    }

    /// Processes an expression, returning the node holding its pointer
    /// r-value (a fresh empty temp for non-pointer results).
    fn rvalue(&mut self, func: usize, e: &Expr) -> usize {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::SizeofType(_) => {
                self.fresh_temp()
            }
            ExprKind::SizeofExpr(_) => self.fresh_temp(),
            ExprKind::Var { binding, .. } => {
                let v = self.binding_var(func, binding.expect("sema"));
                self.record_site(e.eid, SiteAddr::Direct(v));
                if e.ty().is_aggregate() {
                    // Decayed arrays / struct values: the "value" is the
                    // object's address for arrays; for our purposes the
                    // r-value points at the variable object itself when the
                    // type decays to a pointer.
                    let t = self.fresh_temp();
                    if matches!(e.ty(), Type::Array(..)) {
                        self.seed(t, PtObj::Var(v));
                    } else {
                        // struct value: its pointer contents flow on copy.
                        let c = self.content_node(PtObj::Var(v));
                        self.copy(c, t);
                    }
                    t
                } else {
                    self.node(Node::Var(v))
                }
            }
            ExprKind::Unary(_, a) => {
                self.rvalue(func, a);
                self.fresh_temp()
            }
            ExprKind::Binary(op, l, r) => {
                let ln = self.rvalue(func, l);
                let rn = self.rvalue(func, r);
                // Pointer arithmetic keeps pointing at the same objects.
                let t = self.fresh_temp();
                if matches!(op, BinOp::Add | BinOp::Sub) {
                    if l.ty().decayed().is_pointer() {
                        self.copy(ln, t);
                    }
                    if r.ty().decayed().is_pointer() {
                        self.copy(rn, t);
                    }
                }
                t
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                let src = self.rvalue(func, rhs);
                self.lvalue_store(func, lhs, src);
                src
            }
            ExprKind::Cond(c, a, b) => {
                self.rvalue(func, c);
                let an = self.rvalue(func, a);
                let bn = self.rvalue(func, b);
                let t = self.fresh_temp();
                self.copy(an, t);
                self.copy(bn, t);
                t
            }
            ExprKind::Call { name, args } => {
                let argn: Vec<usize> = args.iter().map(|a| self.rvalue(func, a)).collect();
                match name.as_str() {
                    "malloc" | "calloc" => {
                        let t = self.fresh_temp();
                        self.seed(t, PtObj::Alloc(e.eid));
                        t
                    }
                    "realloc" => {
                        let t = self.fresh_temp();
                        self.seed(t, PtObj::Alloc(e.eid));
                        // The old object's contents survive the move.
                        if let Some(&pn) = argn.first() {
                            let c = self.node(Node::Content(PtObj::Alloc(e.eid)));
                            self.loads.push((pn, c));
                        }
                        t
                    }
                    _ => {
                        if let Some(fi) =
                            self.program.functions.iter().position(|f| &f.name == name)
                        {
                            for (i, an) in argn.iter().enumerate() {
                                let p = self.node(Node::Var(VarId::Local(fi, i)));
                                self.copy(*an, p);
                            }
                            self.node(Node::Ret(fi))
                        } else {
                            // Other builtins return no pointers of interest.
                            self.fresh_temp()
                        }
                    }
                }
            }
            ExprKind::Index { .. } | ExprKind::Field { .. } => {
                // `base_object` distinguishes array bases (access stays in
                // the named object) from pointer bases (dereference).
                match self.base_object(func, e) {
                    Some(addr) => {
                        let sa = match &addr {
                            BaseAddr::Object(v) => SiteAddr::Direct(*v),
                            BaseAddr::Pointer(pn) => SiteAddr::ViaPointer(self.node_key(*pn)),
                        };
                        self.record_site(e.eid, sa);
                        self.read_through(addr, e.ty())
                    }
                    None => self.fresh_temp(),
                }
            }
            ExprKind::Deref(p) => {
                let pn = self.rvalue(func, p);
                self.record_site(e.eid, SiteAddr::ViaPointer(self.node_key(pn)));
                let t = self.fresh_temp();
                self.loads.push((pn, t));
                t
            }
            ExprKind::AddrOf(inner) => {
                let t = self.fresh_temp();
                match self.base_object(func, inner) {
                    Some(BaseAddr::Object(v)) => self.seed(t, PtObj::Var(v)),
                    Some(BaseAddr::Pointer(pn)) => self.copy(pn, t),
                    None => {}
                }
                t
            }
            ExprKind::Cast(_, a) => self.rvalue(func, a),
            ExprKind::IncDec { target, .. } => {
                // Reads and writes target; pointer value preserved.
                let addr = self.base_object(func, target);
                match addr {
                    Some(BaseAddr::Object(v)) => {
                        self.record_site(e.eid, SiteAddr::Direct(v));
                        self.node(Node::Var(v))
                    }
                    Some(BaseAddr::Pointer(pn)) => {
                        self.record_site(e.eid, SiteAddr::ViaPointer(self.node_key(pn)));
                        let t = self.fresh_temp();
                        self.loads.push((pn, t));
                        t
                    }
                    None => self.fresh_temp(),
                }
            }
        }
    }

    fn node_key(&self, idx: usize) -> Node {
        *self
            .nodes
            .iter()
            .find(|(_, &i)| i == idx)
            .map(|(k, _)| k)
            .expect("node exists")
    }

    fn record_site(&mut self, eid: u32, sa: SiteAddr) {
        self.site_addr.insert(eid, sa);
    }

    fn binding_var(&self, func: usize, b: VarBinding) -> VarId {
        match b {
            VarBinding::Global(g) => VarId::Global(g),
            VarBinding::Local(s) => VarId::Local(func, s),
        }
    }

    /// The pointer value flowing out of an Index/Field read, given how the
    /// access addressed memory.
    fn read_through(&mut self, addr: BaseAddr, result_ty: &Type) -> usize {
        if !result_ty.decayed().is_pointer() && !result_ty.is_aggregate() {
            return self.fresh_temp();
        }
        match addr {
            BaseAddr::Object(v) => {
                if matches!(result_ty, Type::Array(..)) {
                    // Address of a sub-array of the same object.
                    let t = self.fresh_temp();
                    self.seed(t, PtObj::Var(v));
                    t
                } else {
                    self.content_node(PtObj::Var(v))
                }
            }
            BaseAddr::Pointer(pn) => {
                let t = self.fresh_temp();
                self.loads.push((pn, t));
                t
            }
        }
    }

    /// Computes how an lvalue addresses storage: through a named object or
    /// through a pointer node. Also recursively processes index exprs.
    fn base_object(&mut self, func: usize, e: &Expr) -> Option<BaseAddr> {
        match &e.kind {
            ExprKind::Var { binding, .. } => Some(BaseAddr::Object(
                self.binding_var(func, binding.expect("sema")),
            )),
            ExprKind::Field { base, .. } => self.base_object(func, base),
            ExprKind::Index { base, index } => {
                self.rvalue(func, index);
                match base.ty() {
                    Type::Array(..) => self.base_object(func, base),
                    _ => {
                        let pn = self.rvalue(func, base);
                        Some(BaseAddr::Pointer(pn))
                    }
                }
            }
            ExprKind::Deref(p) => {
                let pn = self.rvalue(func, p);
                Some(BaseAddr::Pointer(pn))
            }
            _ => None,
        }
    }

    /// Emits constraints for a store of `src` into lvalue `lhs`, recording
    /// the store site's addressing mode.
    fn lvalue_store(&mut self, func: usize, lhs: &Expr, src: usize) {
        match self.base_object(func, lhs) {
            Some(BaseAddr::Object(v)) => {
                self.record_site(lhs.eid, SiteAddr::Direct(v));
                // Direct scalar pointer variable: copy into its node.
                if matches!(lhs.kind, ExprKind::Var { .. }) && lhs.ty().is_pointer() {
                    let d = self.node(Node::Var(v));
                    self.copy(src, d);
                } else if lhs.ty().decayed().is_pointer() || lhs.ty().is_aggregate() {
                    // Pointer stored inside an aggregate variable.
                    let c = self.content_node(PtObj::Var(v));
                    self.copy(src, c);
                }
            }
            Some(BaseAddr::Pointer(pn)) => {
                self.record_site(lhs.eid, SiteAddr::ViaPointer(self.node_key(pn)));
                if lhs.ty().decayed().is_pointer() || lhs.ty().is_aggregate() {
                    self.stores.push((pn, src));
                }
            }
            None => {}
        }
    }

    // ---- solving ----------------------------------------------------------

    fn solve(&mut self) {
        // Iterate to fixpoint: propagate copies, then expand load/store
        // constraints into new copies as points-to sets grow.
        let mut resolved_loads: HashSet<(usize, PtObj)> = HashSet::new();
        let mut resolved_stores: HashSet<(usize, PtObj)> = HashSet::new();
        loop {
            let mut changed = false;
            // Copy propagation to fixpoint (full sweeps; graphs are small).
            loop {
                let mut inner_changed = false;
                for &(src, dst) in &self.copies {
                    if src == dst {
                        continue;
                    }
                    let add: Vec<PtObj> =
                        self.pts[src].difference(&self.pts[dst]).copied().collect();
                    if !add.is_empty() {
                        inner_changed = true;
                        self.pts[dst].extend(add);
                    }
                }
                if !inner_changed {
                    break;
                }
            }
            // Expand complex constraints.
            let loads = self.loads.clone();
            for (pn, dst) in loads {
                let objs: Vec<PtObj> = self.pts[pn].iter().copied().collect();
                for o in objs {
                    if resolved_loads.insert((dst, o)) {
                        let c = self.content_node(o);
                        self.copy(c, dst);
                        changed = true;
                    }
                }
            }
            let stores = self.stores.clone();
            for (pn, src) in stores {
                let objs: Vec<PtObj> = self.pts[pn].iter().copied().collect();
                for o in objs {
                    if resolved_stores.insert((src, o)) {
                        let c = self.content_node(o);
                        self.copy(src, c);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// How an lvalue addresses storage.
enum BaseAddr {
    /// A named object (variable), possibly through fields/indices.
    Object(VarId),
    /// Through the pointer value in this node.
    Pointer(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::compile_to_ast;

    /// Runs the analysis and returns (program, points-to).
    fn pt(src: &str) -> (Program, PointsTo) {
        let p = compile_to_ast(src).unwrap();
        let r = analyze(&p);
        (p, r)
    }

    /// eid of the first `Var` expression named `name` (in program order).
    fn var_eid(p: &Program, name: &str) -> u32 {
        let mut found = None;
        let mut prog = p.clone();
        for f in &mut prog.functions {
            visit_exprs_in_block(&mut f.body, &mut |e| {
                if found.is_none() {
                    if let ExprKind::Var { name: n, .. } = &e.kind {
                        if n == name {
                            found = Some(e.eid);
                        }
                    }
                }
            });
        }
        found.unwrap()
    }

    /// All alloc-call eids in order.
    fn alloc_eids(p: &Program) -> Vec<u32> {
        let mut out = Vec::new();
        let mut prog = p.clone();
        for f in &mut prog.functions {
            visit_exprs_in_block(&mut f.body, &mut |e| {
                if let ExprKind::Call { name, .. } = &e.kind {
                    if matches!(name.as_str(), "malloc" | "calloc" | "realloc") {
                        out.push(e.eid);
                    }
                }
            });
        }
        out
    }

    #[test]
    fn direct_malloc_assignment() {
        let (p, r) = pt("int main() { int *q; q = malloc(8); free(q); return 0; }");
        let allocs = alloc_eids(&p);
        let f = p.functions.iter().position(|f| f.name == "main").unwrap();
        let slot_q = 0;
        let pts = r.pts_of_var(VarId::Local(f, slot_q));
        assert_eq!(pts, [PtObj::Alloc(allocs[0])].into_iter().collect());
    }

    #[test]
    fn copy_and_conditional_union() {
        let (p, r) = pt("int main(){ int *a; int *b; int *c; int cond; cond = 1;
               a = malloc(4); b = malloc(4);
               c = cond ? a : b;
               free(a); free(b); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_c = r.pts_of_var(VarId::Local(0, 2));
        assert!(pts_c.contains(&PtObj::Alloc(allocs[0])));
        assert!(pts_c.contains(&PtObj::Alloc(allocs[1])));
    }

    #[test]
    fn address_of_variable() {
        let (p, r) = pt("int main() { int x; int *p; p = &x; *p = 1; return x; }");
        let f = 0;
        let pts = r.pts_of_var(VarId::Local(f, 1));
        assert_eq!(pts, [PtObj::Var(VarId::Local(f, 0))].into_iter().collect());
        let _ = p;
    }

    #[test]
    fn pointer_arithmetic_preserves_targets() {
        let (p, r) =
            pt("int main() { int *a; int *b; a = malloc(40); b = a + 3; free(a); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_b = r.pts_of_var(VarId::Local(0, 1));
        assert_eq!(pts_b, [PtObj::Alloc(allocs[0])].into_iter().collect());
    }

    #[test]
    fn interprocedural_param_and_return() {
        let (p, r) = pt("int *ident(int *x) { return x; }
             int main() { int *a; int *b; a = malloc(8); b = ident(a);
               free(a); return 0; }");
        let allocs = alloc_eids(&p);
        let main_idx = 1;
        let pts_b = r.pts_of_var(VarId::Local(main_idx, 1));
        assert!(pts_b.contains(&PtObj::Alloc(allocs[0])));
    }

    #[test]
    fn pointer_stored_in_struct_field_flows_out() {
        let (p, r) = pt("struct Holder { int *ptr; };
             int main() { struct Holder h; int *a; int *b;
               a = malloc(8); h.ptr = a; b = h.ptr;
               free(b); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_b = r.pts_of_var(VarId::Local(0, 2));
        assert!(pts_b.contains(&PtObj::Alloc(allocs[0])));
    }

    #[test]
    fn pointer_stored_through_heap_flows_out() {
        let (p, r) = pt("int main() { int **table; int *a; int *b;
               table = malloc(8 * sizeof(int*));
               a = malloc(8);
               table[0] = a;
               b = table[0];
               free(a); free(table); return 0; }");
        let allocs = alloc_eids(&p);
        // b may point to the `a` allocation (allocs[1]).
        let pts_b = r.pts_of_var(VarId::Local(0, 2));
        assert!(pts_b.contains(&PtObj::Alloc(allocs[1])), "{pts_b:?}");
    }

    #[test]
    fn linked_list_next_chain() {
        let (p, r) = pt("struct Node { int v; struct Node *next; };
             int main() {
               struct Node *head; head = 0;
               for (int i = 0; i < 4; i++) {
                 struct Node *n; n = malloc(sizeof(struct Node));
                 n->next = head; head = n;
               }
               struct Node *walk; walk = head->next;
               return 0; }");
        let allocs = alloc_eids(&p);
        // walk reaches the single allocation site through the next field.
        let slot_walk = 3;
        let pts_w = r.pts_of_var(VarId::Local(0, slot_walk));
        assert!(pts_w.contains(&PtObj::Alloc(allocs[0])), "{pts_w:?}");
    }

    #[test]
    fn site_objects_direct_and_indirect() {
        let (p, r) = pt("int g; int main() { int *p; p = malloc(8); *p = g; free(p); return 0; }");
        let allocs = alloc_eids(&p);
        let g_eid = var_eid(&p, "g");
        assert_eq!(
            r.objects_of_site(g_eid),
            [PtObj::Var(VarId::Global(0))].into_iter().collect()
        );
        assert!(!r.site_is_indirect(g_eid));
        // Find the `*p` store site: the Deref expression.
        let mut deref_eid = None;
        let mut prog = p.clone();
        visit_exprs_in_block(&mut prog.functions[0].body, &mut |e| {
            if matches!(e.kind, ExprKind::Deref(_)) {
                deref_eid = Some(e.eid);
            }
        });
        let d = deref_eid.unwrap();
        assert!(r.site_is_indirect(d));
        assert_eq!(
            r.objects_of_site(d),
            [PtObj::Alloc(allocs[0])].into_iter().collect()
        );
    }

    #[test]
    fn two_allocation_sites_hmmer_pattern() {
        // The 456.hmmer motivating example: mx may point to either of two
        // different-sized allocations.
        let (p, r) = pt("int main() { int *mx; int c; c = 1;
               if (c) { mx = malloc(100); }
               else { mx = malloc(200); }
               mx[3] = 0;
               free(mx); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_mx = r.pts_of_var(VarId::Local(0, 0));
        assert_eq!(pts_mx.len(), 2);
        assert!(pts_mx.contains(&PtObj::Alloc(allocs[0])));
        assert!(pts_mx.contains(&PtObj::Alloc(allocs[1])));
    }

    #[test]
    fn unrelated_pointers_do_not_alias() {
        let (p, r) = pt("int main() { int *a; int *b; a = malloc(8); b = malloc(8);
               free(a); free(b); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_a = r.pts_of_var(VarId::Local(0, 0));
        let pts_b = r.pts_of_var(VarId::Local(0, 1));
        assert_eq!(pts_a, [PtObj::Alloc(allocs[0])].into_iter().collect());
        assert_eq!(pts_b, [PtObj::Alloc(allocs[1])].into_iter().collect());
    }

    #[test]
    fn global_pointer_variable() {
        let (p, r) = pt("int *gp; int main() { gp = malloc(16); gp[0] = 1; free(gp); return 0; }");
        let allocs = alloc_eids(&p);
        let pts = r.pts_of_var(VarId::Global(0));
        assert_eq!(pts, [PtObj::Alloc(allocs[0])].into_iter().collect());
    }

    #[test]
    fn realloc_creates_new_site_preserving_contents() {
        let (p, r) = pt("int main() { int **t; t = malloc(8 * sizeof(int*));
               int *a; a = malloc(8); t[0] = a;
               t = realloc(t, 16 * sizeof(int*));
               int *b; b = t[0];
               free(a); free(t); return 0; }");
        let allocs = alloc_eids(&p);
        let pts_b = r.pts_of_var(VarId::Local(0, 2));
        // b reads through the realloc'd table; the `a` allocation must
        // still be reachable.
        assert!(pts_b.contains(&PtObj::Alloc(allocs[1])), "{pts_b:?}");
        let _ = allocs;
    }
}
