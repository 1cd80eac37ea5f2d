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
//!
//! A state is a bit set over the facts the flow has seen, each interned
//! once by its key: a meet is a word-wise `and`, a `gen` one lookup, and a
//! pass asks whether a key holds in one lookup too. A loop entered again
//! in the state it was last entered in is not run again: its exit is the
//! one it had (a pass's audits depend only on the facts, so they would
//! repeat).

use dse_analysis::effects::{stored_variable, HiddenStores};
use dse_analysis::VarId;
use dse_lang::ast::*;
use dse_lang::fasthash::HashMap;
use dse_lang::types::Type;
use std::hash::Hash;
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

/// A set of facts: bit `i` is the flow's `i`-th interned fact. Words past
/// the end are zero, so sets interned at different times compare.
#[derive(Debug, Clone, Default)]
pub(crate) struct Facts(Vec<u64>);

impl Facts {
    fn contains(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    fn insert(&mut self, i: usize) {
        if self.0.len() <= i / 64 {
            self.0.resize(i / 64 + 1, 0);
        }
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.0.iter().enumerate()).flat_map(|(k, &w)| {
            std::iter::successors(Some(w).filter(|&w| w != 0), |&w| {
                Some(w & (w - 1)).filter(|&w| w != 0)
            })
            .map(move |w| k * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Keeps the facts `keep` says to.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (k, word) in self.0.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !keep(k * 64 + b) {
                    *word &= !(1 << b);
                }
            }
        }
    }

    fn meet(&mut self, other: &Facts) {
        self.0.truncate(other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    fn subset_of(&self, other: &Facts) -> bool {
        let word = |k: usize| other.0.get(k).copied().unwrap_or(0);
        self.0.iter().enumerate().all(|(k, &w)| w & !word(k) == 0)
    }
}

impl PartialEq for Facts {
    fn eq(&self, other: &Facts) -> bool {
        self.subset_of(other) && other.subset_of(self)
    }
}

/// The facts holding at a point; `None` where no path reaches it.
pub(crate) type State = Option<Facts>;

/// Every fact a flow has seen, interned by key.
struct Interner<K> {
    facts: Vec<Fact<K>>,
    /// Per key: the facts with that key (one, unless they read differently).
    by_key: HashMap<K, Vec<usize>>,
}

impl<K: Clone + Eq + Hash> Interner<K> {
    fn intern(&mut self, f: Fact<K>) -> usize {
        let same = self.by_key.entry(f.key.clone()).or_default();
        if let Some(&i) = same.iter().find(|&&i| self.facts[i] == f) {
            return i;
        }
        same.push(self.facts.len());
        self.facts.push(f);
        self.facts.len() - 1
    }
}

/// The facts holding at a point, as a pass reads them.
pub(crate) struct Held<'f, K> {
    interner: &'f Interner<K>,
    set: &'f Facts,
}

impl<K: Eq + Hash> Held<'_, K> {
    /// The facts, in the order they were first made true.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Fact<K>> {
        self.set.iter().map(|i| &self.interner.facts[i])
    }

    /// Whether a fact with this key holds.
    pub(crate) fn holds(&self, key: &K) -> bool {
        (self.interner.by_key.get(key))
            .is_some_and(|same| same.iter().any(|&i| self.set.contains(i)))
    }
}

/// What a check adds to the flow.
pub(crate) trait Pass<'a> {
    /// How the check states a fact; equal keys are one fact, and hash
    /// alike.
    type Key: Clone + Eq + Hash;

    /// Audits `e`, one node of an expression the flow evaluates (not the
    /// target of a plain assignment), against the facts holding just
    /// before it. `loops` are the loops around it, innermost last.
    fn read(&mut self, e: &'a Expr, facts: Held<'_, Self::Key>, loops: &[&'a Stmt]);

    /// The fact `s`, a declaration or an expression statement, makes true.
    fn gen(&mut self, s: &'a Stmt, loops: &[&'a Stmt]) -> Option<Fact<Self::Key>>;

    /// The facts the loop `s`, which no `break` leaves, makes true after
    /// it, given `end`: the facts at the end of its body on every path
    /// that reaches its step.
    fn publish(&mut self, s: &'a Stmt, end: Held<'_, Self::Key>) -> Vec<Fact<Self::Key>> {
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

fn meet(a: State, b: State) -> State {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut a), Some(b)) => {
            a.meet(&b);
            Some(a)
        }
    }
}

/// The flow over one function's statements, driving one pass.
pub(crate) struct Flow<'a, P: Pass<'a>> {
    /// The pass, with whatever it recorded.
    pub(crate) pass: P,
    stores: &'a Stores<'a>,
    interner: Interner<P::Key>,
    /// The loops around the statement at hand, innermost last.
    loops: Vec<&'a Stmt>,
    /// Their `break` and `continue` states.
    exits: Vec<[State; 2]>,
    /// Whether the statement at hand is in a candidate loop's iteration.
    inline: bool,
    /// Per loop run: its entry state, whether inline, and its exit state.
    ran: HashMap<*const Stmt, (State, bool, State)>,
}

impl<'a, P: Pass<'a>> Flow<'a, P> {
    pub(crate) fn new(stores: &'a Stores<'a>, pass: P) -> Self {
        Flow {
            pass,
            stores,
            interner: Interner {
                facts: Vec::new(),
                by_key: HashMap::default(),
            },
            loops: Vec::new(),
            exits: Vec::new(),
            inline: false,
            ran: HashMap::default(),
        }
    }

    /// Runs `body` as one iteration of a candidate loop, from no facts.
    pub(crate) fn iteration(&mut self, body: &'a Block) -> State {
        self.inline = true;
        self.block(body, Some(Facts::default()))
    }

    /// Runs a function's `body` from no facts.
    pub(crate) fn function(&mut self, body: &'a Block) -> State {
        self.block(body, Some(Facts::default()))
    }

    /// Runs `b` from the state `st`; returns the state after it.
    fn block(&mut self, b: &'a Block, mut st: State) -> State {
        for s in &b.stmts {
            st = self.stmt(s, st);
        }
        let facts = &self.interner.facts;
        for s in &b.stmts {
            if let (StmtKind::Decl { slot: Some(k), .. }, Some(held)) = (&s.kind, &mut st) {
                held.retain(|i| !facts[i].reads.contains(&VarBinding::Local(*k)));
            }
        }
        st
    }

    /// Makes `facts` true in `st`.
    fn add(&mut self, st: &mut State, facts: impl IntoIterator<Item = Fact<P::Key>>) {
        if let Some(held) = st {
            for f in facts {
                held.insert(self.interner.intern(f));
            }
        }
    }

    fn stmt(&mut self, s: &'a Stmt, mut st: State) -> State {
        match &s.kind {
            StmtKind::Decl { init: None, .. } => st,
            StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) => {
                self.eval(e, &mut st);
                if let (StmtKind::Decl { slot: Some(k), .. }, Some(held)) = (&s.kind, &mut st) {
                    let facts = &self.interner.facts;
                    held.retain(|i| !self.stores.stores(&facts[i], VarBinding::Local(*k)));
                }
                let fact = self.pass.gen(s, &self.loops);
                self.add(&mut st, fact);
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
                let inside = st.as_ref().map(|_| Facts::default());
                self.inline = true;
                self.looping(s, cond.as_ref(), body, step.as_ref(), inside);
                self.inline = false;
                if let Some(held) = &mut st {
                    let facts = &self.interner.facts;
                    held.retain(|i| !self.stores.killed_in(&facts[i], s, |_| false));
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
    fn eval(&mut self, e: &'a Expr, st: &mut State) {
        if let Some(held) = st {
            self.eval_node(e, false, held);
        }
    }

    fn eval_node(&mut self, e: &'a Expr, target: bool, held: &mut Facts) {
        let set = match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Set,
                lhs,
                ..
            } => Some(&**lhs),
            _ => None,
        };
        for x in operands(e) {
            self.eval_node(x, set.is_some_and(|l| std::ptr::eq(l, x)), held);
        }
        if !target {
            let facts = Held {
                interner: &self.interner,
                set: held,
            };
            self.pass.read(e, facts, &self.loops);
        }
        if matches!(
            e.kind,
            ExprKind::Assign { .. }
                | ExprKind::IncDec { .. }
                | ExprKind::AddrOf(_)
                | ExprKind::Call { .. }
        ) {
            let facts = &self.interner.facts;
            held.retain(|i| !self.stores.kills(&facts[i], e));
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
        entry: State,
    ) -> State {
        if let Some((seen, inline, exit)) = self.ran.get(&(s as *const Stmt)) {
            if *seen == entry && *inline == self.inline {
                return exit.clone();
            }
        }
        let bottom_tested = matches!(s.kind, StmtKind::DoWhile { .. });
        let mut at_head = entry.clone();
        let exit = loop {
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
                (Some(held), Some(back)) => held.subset_of(back),
            };
            if stable {
                let published = match (&end, &brk) {
                    (Some(end), None) => {
                        let end = Held {
                            interner: &self.interner,
                            set: end,
                        };
                        self.pass.publish(s, end)
                    }
                    _ => Vec::new(),
                };
                let mut exit = meet(if bottom_tested { st } else { leave_at_head }, brk);
                self.add(&mut exit, published);
                break exit;
            }
            at_head = meet(at_head, st);
        };
        self.ran.insert(s, (entry, self.inline, exit.clone()));
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts how often each expression node is read; every assignment of
    /// a variable makes "it holds what its right-hand side loads" true.
    struct Reads<'a> {
        stores: &'a Stores<'a>,
        count: HashMap<*const Expr, usize>,
    }

    impl<'a> Pass<'a> for Reads<'a> {
        type Key = VarBinding;

        fn read(&mut self, e: &'a Expr, _: Held<'_, VarBinding>, _: &[&'a Stmt]) {
            *self.count.entry(e).or_default() += 1;
        }

        fn gen(&mut self, s: &'a Stmt, _: &[&'a Stmt]) -> Option<Fact<VarBinding>> {
            let StmtKind::Expr(e) = &s.kind else {
                return None;
            };
            let ExprKind::Assign { lhs, rhs, .. } = &e.kind else {
                return None;
            };
            let b = stored_variable(lhs)?;
            Some(self.stores.fact(b, &[rhs]))
        }
    }

    #[test]
    fn an_inner_loop_entered_again_as_it_was_is_not_run_again() {
        // `a = c` holds at the outer head until `c = c + 1` kills it: the
        // outer loop takes two rounds, the inner one starts without the
        // fact in both and runs once.
        let program = dse_lang::compile_to_ast(
            "int main() { long a; long c; long s; c = 0; s = 0; a = c;
               for (int i = 0; i < 4; i++) {
                 c = c + 1;
                 for (int j = 0; j < 4; j++) { s = s + j; } }
               return (int)(a + s); }",
        )
        .expect("parses");
        let hidden = HiddenStores::of(&program);
        let stores = Stores::new(&program, 0, &hidden);
        let body = &program.functions[0].body;
        let mut flow = Flow::new(
            &stores,
            Reads {
                stores: &stores,
                count: HashMap::default(),
            },
        );
        flow.function(body);
        let StmtKind::For { body: outer, .. } = &body.stmts[6].kind else {
            panic!("the outer loop: {:?}", body.stmts[6].kind)
        };
        let counts = |s: &Stmt| {
            let mut seen = Vec::new();
            walk_exprs_in_stmt(s, &mut |x| {
                seen.extend(flow.pass.count.get(&(x as *const Expr)).copied())
            });
            seen
        };
        let StmtKind::For { body: inner, .. } = &outer.stmts[1].kind else {
            panic!("the inner loop: {:?}", outer.stmts[1].kind)
        };
        // The outer body runs twice, the inner loop's body (`s = s + j`)
        // once.
        let (bump, sum) = (counts(&outer.stmts[0]), counts(&inner.stmts[0]));
        assert!(!bump.is_empty() && bump.iter().all(|&n| n == 2), "{bump:?}");
        assert!(!sum.is_empty() && sum.iter().all(|&n| n == 1), "{sum:?}");
    }
}
