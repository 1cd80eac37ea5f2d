//! Compile-time constant evaluation of integer expressions.
//!
//! Used to fold allocation sizes (`malloc(sizeof(struct S) * 8)`), which in
//! turn lets the expansion pass prove that every object a pointer may
//! reference has the same static size — eliminating span bookkeeping
//! (paper Section 3.4: "by constant propagation and copy propagation, p and
//! q may be found to always point to the same-sized data structure").

use dse_lang::ast::*;
use dse_lang::fasthash::HashMap;
use dse_lang::types::{Type, TypeTable};

/// Folds `e` to an integer constant if possible. Handles literals,
/// `sizeof`, unary minus/complement, and `+ - * / % << >> & | ^` over
/// constant operands.
pub fn const_eval(e: &Expr, types: &TypeTable) -> Option<i64> {
    const_eval_with(e, &mut |t| types.size_of(t))
}

/// [`const_eval`] under a caller-chosen layout: `size_of` answers every
/// `sizeof`. The expansion planner evaluates allocation sizes this way
/// under the *promoted* layout, where a fat pointer field widens its
/// record.
pub fn const_eval_with(e: &Expr, size_of: &mut impl FnMut(&Type) -> u64) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::SizeofType(t) => Some(size_of(t) as i64),
        ExprKind::SizeofExpr(inner) => Some(size_of(inner.ty.as_ref()?) as i64),
        ExprKind::Unary(op, a) => {
            let v = const_eval_with(a, size_of)?;
            match op {
                UnOp::Neg => Some(v.wrapping_neg()),
                UnOp::BitNot => Some(!v),
                UnOp::Not => Some((v == 0) as i64),
            }
        }
        ExprKind::Cast(t, a) if t.is_integer() => {
            let v = const_eval_with(a, size_of)?;
            let w = size_of(t) as u32;
            if w >= 8 {
                Some(v)
            } else {
                let shift = 64 - w * 8;
                Some((v << shift) >> shift)
            }
        }
        ExprKind::Binary(op, l, r) => {
            let a = const_eval_with(l, size_of)?;
            let b = const_eval_with(r, size_of)?;
            match op {
                BinOp::Add => Some(a.wrapping_add(b)),
                BinOp::Sub => Some(a.wrapping_sub(b)),
                BinOp::Mul => Some(a.wrapping_mul(b)),
                BinOp::Div => a.checked_div(b),
                BinOp::Rem => a.checked_rem(b),
                BinOp::Shl => Some(a.wrapping_shl(b as u32 & 63)),
                BinOp::Shr => Some(a.wrapping_shr(b as u32 & 63)),
                BinOp::And => Some(a & b),
                BinOp::Or => Some(a | b),
                BinOp::Xor => Some(a ^ b),
                _ => None,
            }
        }
        ExprKind::Cond(c, t, f) => {
            let cv = const_eval_with(c, size_of)?;
            if cv != 0 {
                const_eval_with(t, size_of)
            } else {
                const_eval_with(f, size_of)
            }
        }
        _ => None,
    }
}

/// Constant-size information about one allocation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSizeInfo {
    /// Folded byte size in the original layout, when constant.
    pub const_size: Option<u64>,
}

/// The byte size the allocation call `call` (`malloc`/`calloc`/`realloc`)
/// requests, folded under `size_of`. The outer `None` means "not an
/// allocation call", the inner one "not a compile-time constant".
pub fn alloc_call_size(call: &Expr, size_of: &mut impl FnMut(&Type) -> u64) -> Option<Option<u64>> {
    let ExprKind::Call { name, args } = &call.kind else {
        return None;
    };
    let mut arg = |i: usize| args.get(i).and_then(|a| const_eval_with(a, size_of));
    let size = match name.as_str() {
        "malloc" => arg(0),
        "realloc" => arg(1),
        "calloc" => match (arg(0), arg(1)) {
            (Some(n), Some(m)) => n.checked_mul(m),
            _ => None,
        },
        _ => return None,
    };
    Some(size.and_then(|s| u64::try_from(s).ok()))
}

/// For every allocation call in the program (`malloc`/`calloc`/`realloc`),
/// maps the call expression's id to its size facts.
pub fn alloc_size_infos(program: &Program) -> HashMap<u32, AllocSizeInfo> {
    let mut out = HashMap::default();
    let types = &program.types;
    for f in &program.functions {
        walk_exprs_in_block(&f.body, &mut |e| {
            if let Some(const_size) = alloc_call_size(e, &mut |t| types.size_of(t)) {
                out.insert(e.eid, AllocSizeInfo { const_size });
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::compile_to_ast;

    fn eval_ret(src_expr: &str) -> Option<i64> {
        let src =
            format!("struct S {{ char c; long l; }}; int main() {{ return (int)({src_expr}); }}");
        let p = compile_to_ast(&src).unwrap();
        let StmtKind::Return(Some(e)) = &p.functions[0].body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Cast(_, inner) = &e.kind else {
            panic!()
        };
        const_eval(inner, &p.types)
    }

    #[test]
    fn folds_arithmetic() {
        assert_eq!(eval_ret("2 + 3 * 4"), Some(14));
        assert_eq!(eval_ret("(1 << 10) - 24"), Some(1000));
        assert_eq!(eval_ret("100 / 7"), Some(14));
        assert_eq!(eval_ret("-5 + ~0"), Some(-6));
    }

    #[test]
    fn folds_sizeof() {
        assert_eq!(eval_ret("sizeof(struct S)"), Some(16));
        assert_eq!(eval_ret("sizeof(int) * 10"), Some(40));
    }

    #[test]
    fn division_by_zero_is_not_constant() {
        assert_eq!(eval_ret("1 / 0"), None);
    }

    #[test]
    fn variables_are_not_constant() {
        let p = compile_to_ast("int main() { int n; n = 4; return n + 1; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.functions[0].body.stmts[2].kind else {
            panic!()
        };
        assert_eq!(const_eval(e, &p.types), None);
    }

    #[test]
    fn folds_constant_ternary() {
        assert_eq!(eval_ret("1 ? 7 : 9"), Some(7));
        assert_eq!(eval_ret("0 ? 7 : 9"), Some(9));
    }

    #[test]
    fn alloc_sizes_collected() {
        let p = compile_to_ast(
            "int main() { int n; n = in_len() > 0 ? 8 : 4;
               int *a; a = malloc(10 * sizeof(int));
               int *b; b = malloc((long)n * sizeof(int));
               long *c; c = calloc(4, sizeof(long));
               a = realloc(a, 80);
               free(a); free(b); free(c); return 0; }",
        )
        .unwrap();
        let sizes = alloc_size_infos(&p);
        let mut vals: Vec<Option<u64>> = sizes.values().map(|i| i.const_size).collect();
        vals.sort();
        assert_eq!(sizes.len(), 4);
        assert_eq!(vals, vec![None, Some(32), Some(40), Some(80)]);
    }
}
