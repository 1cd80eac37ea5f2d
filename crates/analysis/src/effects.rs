//! Stores to named variables that the statement at hand does not show.
//!
//! A value derived from a variable (the expansion pass keeps a redirected
//! pointer in a slot; the verifier proves the slot fresh) stays valid until
//! the variable is stored. Most stores name the variable; these two facts
//! cover the ones that do not: a store through the variable's address, and
//! a store inside a callee.

use crate::points_to::VarId;
use dse_lang::ast::*;
use dse_lang::fasthash::HashSet;
use dse_lang::types::Type;

/// The variable an lvalue chain (`v`, `v.f`, `v[i]` on an array) stores
/// into, if it names one rather than going through a pointer.
pub fn stored_variable(lvalue: &Expr) -> Option<VarBinding> {
    match &lvalue.kind {
        ExprKind::Var { binding, .. } => *binding,
        ExprKind::Field { base, .. } => stored_variable(base),
        ExprKind::Index { base, .. } if matches!(base.ty, Some(Type::Array(..))) => {
            stored_variable(base)
        }
        _ => None,
    }
}

/// Hidden-store facts of one typed program.
#[derive(Debug, Clone, Default)]
pub struct HiddenStores {
    /// Variables whose address is taken somewhere: by `&`, or by naming an
    /// array where it decays to a pointer.
    pub addr_taken: HashSet<VarId>,
    /// Per function: the globals it or its callees assign.
    pub assigned_globals: Vec<HashSet<usize>>,
}

impl HiddenStores {
    /// Scans `program` once and closes the per-function sets over calls.
    pub fn of(program: &Program) -> HiddenStores {
        let n = program.functions.len();
        let mut addr_taken = HashSet::default();
        let mut assigned_globals = vec![HashSet::default(); n];
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (fi, f) in program.functions.iter().enumerate() {
            let mut take = |cell: &Expr| match stored_variable(cell) {
                Some(VarBinding::Global(g)) => {
                    addr_taken.insert(VarId::Global(g));
                }
                Some(VarBinding::Local(s)) => {
                    addr_taken.insert(VarId::Local(fi, s));
                }
                None => {}
            };
            walk_exprs_in_block(&f.body, &mut |e| {
                // An array named other than under `[]`, `&` or `sizeof`
                // decays to its address, which takes it as `&` does.
                let kept = match &e.kind {
                    ExprKind::Index { base: x, .. }
                    | ExprKind::AddrOf(x)
                    | ExprKind::SizeofExpr(x) => Some(&**x),
                    _ => None,
                };
                let decays = |x: &&Expr| {
                    matches!(x.ty, Some(Type::Array(..)))
                        && !kept.is_some_and(|k| std::ptr::eq(k, *x))
                };
                operands(e).filter(decays).for_each(&mut take);
                match &e.kind {
                    ExprKind::AddrOf(inner) => take(inner),
                    ExprKind::Assign { lhs: target, .. } | ExprKind::IncDec { target, .. } => {
                        if let Some(VarBinding::Global(g)) = stored_variable(target) {
                            assigned_globals[fi].insert(g);
                        }
                    }
                    ExprKind::Call { name, .. } => {
                        callees[fi].extend(program.functions.iter().position(|c| &c.name == name));
                    }
                    _ => {}
                }
            });
        }
        loop {
            let mut grew = false;
            for fi in 0..n {
                for &c in &callees[fi] {
                    let add: Vec<usize> = assigned_globals[c]
                        .difference(&assigned_globals[fi])
                        .copied()
                        .collect();
                    grew |= !add.is_empty();
                    assigned_globals[fi].extend(add);
                }
            }
            if !grew {
                return HiddenStores {
                    addr_taken,
                    assigned_globals,
                };
            }
        }
    }

    /// Names of the functions a call to which may assign global `g`.
    pub fn functions_assigning(&self, program: &Program, g: usize) -> HashSet<String> {
        let assigns = |(fi, f): (usize, &Function)| {
            self.assigned_globals[fi]
                .contains(&g)
                .then(|| f.name.clone())
        };
        program
            .functions
            .iter()
            .enumerate()
            .filter_map(assigns)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::compile_to_ast;

    #[test]
    fn callee_assignments_close_over_calls() {
        let p = compile_to_ast(
            "int *g; int h;
             void grow() { g = realloc(g, 64); }
             void outer() { grow(); h++; }
             void pure() { int x; x = h; }
             int main() { int a; int *q; q = &a; outer(); pure(); return 0; }",
        )
        .unwrap();
        let hs = HiddenStores::of(&p);
        let f = |name: &str| p.functions.iter().position(|f| f.name == name).unwrap();
        assert_eq!(hs.assigned_globals[f("grow")], HashSet::from_iter([0]));
        assert_eq!(hs.assigned_globals[f("outer")], HashSet::from_iter([0, 1]));
        assert!(hs.assigned_globals[f("pure")].is_empty());
        assert_eq!(hs.assigned_globals[f("main")], HashSet::from_iter([0, 1]));
        let names = hs.functions_assigning(&p, 0);
        assert!(names.contains("grow") && names.contains("outer") && names.contains("main"));
        assert!(!names.contains("pure"));
        // `&a` in main: local slot of `a`.
        let a = p.functions[f("main")]
            .locals
            .iter()
            .position(|l| l.name == "a")
            .unwrap();
        assert_eq!(
            hs.addr_taken,
            HashSet::from_iter([VarId::Local(f("main"), a)])
        );
    }

    #[test]
    fn a_decayed_array_is_address_taken() {
        let p = compile_to_ast(
            "void fill(int *p) { p[0] = 1; }
             int main() { int a[4]; int b[4]; int c[4]; fill(a); b[1] = sizeof(c); return b[0]; }",
        )
        .unwrap();
        let hs = HiddenStores::of(&p);
        // `a` decays into the call; `b` is only indexed, `c` only measured.
        assert_eq!(hs.addr_taken, HashSet::from_iter([VarId::Local(1, 0)]));
    }
}
