//! The verifier's one forward must-dataflow over a function's statements:
//! the facts that hold at a point on every path to it. Pass 1's coverage
//! scan and `DSE005`'s slot freshness run on it: a [`Pass`] makes facts
//! true and audits reads, and the flow alone decides where a fact holds
//! and, by [`Stores::kills`], where it dies. Joins intersect; loop heads
//! iterate to a fixpoint over back edges and `continue`s, and loop exits
//! meet the `break`s; `return` reaches nothing; leaving a block drops the
//! facts that load its bindings. A candidate loop's body starts with no
//! facts (its iterations may run on other workers) unless it is nested in
//! a candidate iteration, where it runs inline like any loop.

use dse_analysis::effects::{stored_variable, HiddenStores};
use dse_analysis::VarId;
use dse_lang::ast::*;
use dse_lang::types::Type;
use std::rc::Rc;

/// A fact a pass carries: its key, and what it loads, which decides what
/// kills it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fact<K> {
    pub(crate) key: K,
    /// Shared: a state is cloned at every branch and loop.
    reads: Rc<[VarBinding]>,
    /// Whether it loads memory: through a pointer, or by calling a user
    /// function.
    memory: bool,
}

/// The facts holding at a point; `None` where no path reaches it.
pub(crate) type State<K> = Option<Vec<Fact<K>>>;

/// What a check adds to the flow.
pub(crate) trait Pass<'a> {
    /// How the check states a fact; equal keys are one fact.
    type Key: Clone + PartialEq;

    /// Audits `e`, one node of an expression the flow evaluates (not the
    /// target of a plain assignment), against the facts holding just
    /// before it. `loops` are the loops around it, innermost last.
    fn read(&mut self, e: &'a Expr, facts: &[Fact<Self::Key>], loops: &[&'a Stmt]);

    /// The fact `s`, a declaration or an expression statement, makes true.
    fn gen(&mut self, s: &'a Stmt, loops: &[&'a Stmt]) -> Option<Fact<Self::Key>>;

    /// The facts the loop `s`, which no `break` leaves, makes true after
    /// it, given `end`: the facts at the end of its body on every path
    /// that reaches its step.
    fn publish(&mut self, s: &'a Stmt, end: &[Fact<Self::Key>]) -> Vec<Fact<Self::Key>> {
        let _ = (s, end);
        Vec::new()
    }
}

/// The kill rule over one function of a program.
pub(crate) struct Stores<'a> {
    program: &'a Program,
    func: usize,
    /// [`HiddenStores::of`] the program.
    hidden: &'a HiddenStores,
}

impl<'a> Stores<'a> {
    pub(crate) fn new(program: &'a Program, func: usize, hidden: &'a HiddenStores) -> Self {
        Stores {
            program,
            func,
            hidden,
        }
    }

    /// A fact about the values of `exprs`: it loads every variable they
    /// load a scalar from, and memory where they load through a pointer or
    /// call a user function. An array or a struct is not loaded: its name
    /// denotes its address.
    pub(crate) fn fact<K>(&self, key: K, exprs: &[&Expr]) -> Fact<K> {
        let (mut reads, mut memory) = (Vec::new(), false);
        for e in exprs {
            walk_exprs(e, &mut |x| match &x.kind {
                ExprKind::Var { .. }
                | ExprKind::Index { .. }
                | ExprKind::Field { .. }
                | ExprKind::Deref(_)
                    if !x.ty.as_ref().is_some_and(Type::is_aggregate) =>
                {
                    match stored_variable(x) {
                        Some(v) if !reads.contains(&v) => reads.push(v),
                        Some(_) => {}
                        None => memory = true,
                    }
                }
                ExprKind::Call { name, .. } => memory |= self.callee(name).is_some(),
                _ => {}
            });
        }
        let reads = reads.into();
        Fact { key, reads, memory }
    }

    /// Does evaluating `x`, this node alone, kill `f`? The one kill rule:
    /// * a store to a binding (an assignment of any operator, `++`/`--`,
    ///   taking `&v`, a declaration's initializer: [`Stores::stores`])
    ///   kills the facts that load it, and those that load memory if its
    ///   address is taken;
    /// * a store through a pointer kills the facts that load memory or an
    ///   address-taken binding;
    /// * a call to a user function kills what such a store kills, and the
    ///   facts that load a global the callee may assign.
    pub(crate) fn kills<K>(&self, f: &Fact<K>, x: &Expr) -> bool {
        let through_pointer = || f.memory || f.reads.iter().any(|&b| self.addr_taken(b));
        match &x.kind {
            ExprKind::Assign { lhs: cell, .. }
            | ExprKind::IncDec { target: cell, .. }
            | ExprKind::AddrOf(cell) => match stored_variable(cell) {
                Some(v) => self.stores(f, v),
                None => !matches!(x.kind, ExprKind::AddrOf(_)) && through_pointer(),
            },
            ExprKind::Call { name, .. } => self.callee(name).is_some_and(|c| {
                let assigned = &self.hidden.assigned_globals[c];
                let global =
                    |b: &VarBinding| matches!(b, VarBinding::Global(g) if assigned.contains(g));
                through_pointer() || f.reads.iter().any(global)
            }),
            _ => false,
        }
    }

    /// Does a store to the binding `v` kill `f`?
    fn stores<K>(&self, f: &Fact<K>, v: VarBinding) -> bool {
        f.reads.contains(&v) || (f.memory && self.addr_taken(v))
    }

    /// Does an expression under `s`, other than those `spared`, kill `f`?
    /// (A declaration under `s` declares a binding no fact from outside `s`
    /// loads.)
    pub(crate) fn killed_in<K>(
        &self,
        f: &Fact<K>,
        s: &Stmt,
        spared: impl Fn(&Expr) -> bool,
    ) -> bool {
        let mut killed = false;
        walk_exprs_in_stmt(s, &mut |x| killed |= !spared(x) && self.kills(f, x));
        killed
    }

    fn addr_taken(&self, b: VarBinding) -> bool {
        let id = match b {
            VarBinding::Global(g) => VarId::Global(g),
            VarBinding::Local(slot) => VarId::Local(self.func, slot),
        };
        self.hidden.addr_taken.contains(&id)
    }

    fn callee(&self, name: &str) -> Option<usize> {
        self.program.functions.iter().position(|f| f.name == name)
    }
}

fn meet<K: PartialEq>(a: State<K>, b: State<K>) -> State<K> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut a), Some(b)) => {
            a.retain(|f| b.contains(f));
            Some(a)
        }
    }
}

fn add<K: PartialEq>(st: &mut State<K>, facts: impl IntoIterator<Item = Fact<K>>) {
    if let Some(held) = st {
        for f in facts {
            if !held.contains(&f) {
                held.push(f);
            }
        }
    }
}

/// The flow over one function's statements, driving one pass.
pub(crate) struct Flow<'a, P: Pass<'a>> {
    /// The pass, with whatever it recorded.
    pub(crate) pass: P,
    stores: &'a Stores<'a>,
    /// The loops around the statement at hand, innermost last.
    loops: Vec<&'a Stmt>,
    /// Their `break` and `continue` states.
    exits: Vec<[State<P::Key>; 2]>,
    /// Whether the statement at hand is in a candidate loop's iteration.
    inline: bool,
}

impl<'a, P: Pass<'a>> Flow<'a, P> {
    pub(crate) fn new(stores: &'a Stores<'a>, pass: P) -> Self {
        Flow {
            pass,
            stores,
            loops: Vec::new(),
            exits: Vec::new(),
            inline: false,
        }
    }

    /// Runs `body` as one iteration of a candidate loop, from no facts.
    pub(crate) fn iteration(&mut self, body: &'a Block) -> State<P::Key> {
        self.inline = true;
        self.block(body, Some(Vec::new()))
    }

    /// Runs `b` from the state `st`; returns the state after it.
    pub(crate) fn block(&mut self, b: &'a Block, mut st: State<P::Key>) -> State<P::Key> {
        for s in &b.stmts {
            st = self.stmt(s, st);
        }
        for s in &b.stmts {
            if let (StmtKind::Decl { slot: Some(k), .. }, Some(facts)) = (&s.kind, &mut st) {
                facts.retain(|f| !f.reads.contains(&VarBinding::Local(*k)));
            }
        }
        st
    }

    fn stmt(&mut self, s: &'a Stmt, mut st: State<P::Key>) -> State<P::Key> {
        match &s.kind {
            StmtKind::Decl { init: None, .. } => st,
            StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) => {
                self.eval(e, &mut st);
                if let (StmtKind::Decl { slot: Some(k), .. }, Some(facts)) = (&s.kind, &mut st) {
                    facts.retain(|f| !self.stores.stores(f, VarBinding::Local(*k)));
                }
                let fact = self.pass.gen(s, &self.loops);
                add(&mut st, fact);
                st
            }
            StmtKind::If { cond, then, els } => {
                self.eval(cond, &mut st);
                let a = self.block(then, st.clone());
                let b = match els {
                    Some(b) => self.block(b, st),
                    None => st,
                };
                meet(a, b)
            }
            StmtKind::While { cond, body, .. } => self.looping(s, Some(cond), body, None, st),
            StmtKind::DoWhile { body, cond, .. } => self.looping(s, None, body, Some(cond), st),
            StmtKind::For {
                init,
                cond,
                step,
                body,
                mark,
            } => {
                if let Some(i) = init {
                    st = self.stmt(i, st);
                }
                if !mark.candidate || self.inline {
                    return self.looping(s, cond.as_ref(), body, step.as_ref(), st);
                }
                let inside = st.as_ref().map(|_| Vec::new());
                self.inline = true;
                self.looping(s, cond.as_ref(), body, step.as_ref(), inside);
                self.inline = false;
                if let Some(facts) = &mut st {
                    facts.retain(|f| !self.stores.killed_in(f, s, |_| false));
                }
                st
            }
            StmtKind::Break | StmtKind::Continue => {
                let at = matches!(s.kind, StmtKind::Continue) as usize;
                if let Some(exits) = self.exits.last_mut() {
                    exits[at] = meet(exits[at].take(), st);
                }
                None
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.eval(e, &mut st);
                }
                None
            }
            StmtKind::Block(b) => self.block(b, st),
        }
    }

    /// Evaluates `e`, operands first: audits each node (but the target of
    /// a plain assignment, which is stored, not read), then applies the
    /// node's own kills.
    fn eval(&mut self, e: &'a Expr, st: &mut State<P::Key>) {
        if let Some(facts) = st {
            self.eval_node(e, false, facts);
        }
    }

    fn eval_node(&mut self, e: &'a Expr, target: bool, facts: &mut Vec<Fact<P::Key>>) {
        let set = match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                ..
            } => Some(&**lhs),
            _ => None,
        };
        for x in operands(e) {
            self.eval_node(x, set.is_some_and(|l| std::ptr::eq(l, x)), facts);
        }
        if !target {
            self.pass.read(e, facts, &self.loops);
        }
        if matches!(
            e.kind,
            ExprKind::Assign { .. }
                | ExprKind::IncDec { .. }
                | ExprKind::AddrOf(_)
                | ExprKind::Call { .. }
        ) {
            facts.retain(|f| !self.stores.kills(f, e));
        }
    }

    /// The loop `s` — `head` tested before the body, `tail` after it (a
    /// `for` step, a `do`'s condition) — entered in state `entry`; returns
    /// its exit state.
    fn looping(
        &mut self,
        s: &'a Stmt,
        head: Option<&'a Expr>,
        body: &'a Block,
        tail: Option<&'a Expr>,
        entry: State<P::Key>,
    ) -> State<P::Key> {
        let bottom_tested = matches!(s.kind, StmtKind::DoWhile { .. });
        let mut at_head = entry;
        loop {
            self.loops.push(s);
            self.exits.push([None, None]);
            let mut st = at_head.clone();
            if let Some(c) = head {
                self.eval(c, &mut st);
            }
            let leave_at_head = st.clone();
            st = self.block(body, st);
            let [brk, cont] = self.exits.pop().expect("pushed above");
            let end = meet(st, cont);
            let mut st = end.clone();
            if let Some(e) = tail {
                self.eval(e, &mut st);
            }
            self.loops.pop();
            // The head is stable when the back edge keeps all it holds.
            let stable = match (&at_head, &st) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(held), Some(back)) => held.iter().all(|f| back.contains(f)),
            };
            if stable {
                let published = match (&end, &brk) {
                    (Some(end), None) => self.pass.publish(s, end),
                    _ => Vec::new(),
                };
                let mut exit = meet(if bottom_tested { st } else { leave_at_head }, brk);
                add(&mut exit, published);
                return exit;
            }
            at_head = meet(at_head, st);
        }
    }
}
