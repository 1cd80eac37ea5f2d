//! Pretty-printer: renders a [`Program`] back to Cee source.
//!
//! Used to inspect what the expansion pass produced (the paper presents
//! its transformation as source-to-source in Figures 1/3/4) and as a
//! round-trip test oracle: `parse(print(p))` must equal `p` up to type
//! decorations.
//!
//! One caveat: the expansion pass can build types that Cee's declarator
//! grammar cannot spell (pointers to arrays). [`print_program`] renders
//! them in C's suffix syntax; such programs print for reading but do not
//! re-parse. [`roundtrips`] reports whether a program is within the
//! printable-and-parsable subset.

use crate::ast::*;
use crate::types::{Type, TypeTable};
use std::fmt::Write;

/// Renders a full program as Cee source.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for s in p.types.structs() {
        if s.name.starts_with("__fat_") && s.fields.len() == 2 {
            // Render fat records like ordinary structs for readability.
        }
        let _ = writeln!(out, "struct {} {{", s.name);
        for f in &s.fields {
            let _ = writeln!(out, "  {};", declarator(&f.ty, &f.name, &p.types));
        }
        let _ = writeln!(out, "}};");
    }
    for g in &p.globals {
        match &g.init {
            Some(init) => {
                let _ = writeln!(
                    out,
                    "{} = {};",
                    declarator(&g.ty, &g.name, &p.types),
                    const_init(init)
                );
            }
            None => {
                let _ = writeln!(out, "{};", declarator(&g.ty, &g.name, &p.types));
            }
        }
    }
    for f in &p.functions {
        let params: Vec<String> = f
            .params
            .iter()
            .map(|par| declarator(&par.ty, &par.name, &p.types))
            .collect();
        let _ = writeln!(
            out,
            "{}({}) {{",
            declarator(&f.ret_ty, &f.name, &p.types),
            params.join(", ")
        );
        print_block_inner(&f.body, p, 1, &mut out);
        let _ = writeln!(out, "}}");
    }
    out
}

/// True when `print_program(p)` re-parses to an equivalent program (i.e. no
/// unprintable types such as pointer-to-array appear in declarations).
pub fn roundtrips(p: &Program) -> bool {
    fn printable(ty: &Type) -> bool {
        match ty {
            Type::Pointer(inner) => !matches!(**inner, Type::Array(..)) && printable(inner),
            Type::Array(inner, _) => printable(inner),
            _ => true,
        }
    }
    // Struct bodies may only reference structs declared earlier (or
    // themselves): the printer emits them in table order and the parser
    // has no forward declarations.
    fn max_struct_ref(ty: &Type) -> Option<u32> {
        match ty {
            Type::Struct(id) => Some(id.0),
            Type::Pointer(inner) | Type::Array(inner, _) => max_struct_ref(inner),
            _ => None,
        }
    }
    let order_ok = p.types.structs().iter().enumerate().all(|(i, s)| {
        s.fields
            .iter()
            .all(|f| max_struct_ref(&f.ty).is_none_or(|r| r <= i as u32))
    });
    order_ok
        && p.globals.iter().all(|g| printable(&g.ty))
        && p.types
            .structs()
            .iter()
            .all(|s| s.fields.iter().all(|f| printable(&f.ty)))
        && p.functions.iter().all(|f| {
            printable(&f.ret_ty)
                && f.params.iter().all(|par| printable(&par.ty))
                && all_decls_printable(&f.body)
        })
}

fn all_decls_printable(b: &Block) -> bool {
    fn printable(ty: &Type) -> bool {
        match ty {
            Type::Pointer(inner) => !matches!(**inner, Type::Array(..)) && printable(inner),
            Type::Array(inner, _) => printable(inner),
            _ => true,
        }
    }
    b.stmts.iter().all(|s| match &s.kind {
        StmtKind::Decl { ty, .. } => printable(ty),
        StmtKind::If { then, els, .. } => {
            all_decls_printable(then) && els.as_ref().is_none_or(all_decls_printable)
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => all_decls_printable(body),
        StmtKind::For { init, body, .. } => {
            init.as_ref().is_none_or(|i| match &i.kind {
                StmtKind::Decl { ty, .. } => printable(ty),
                _ => true,
            }) && all_decls_printable(body)
        }
        StmtKind::Block(b) => all_decls_printable(b),
        _ => true,
    })
}

/// C-style declarator: base type, name, and array suffixes
/// (`int (*p)[4]` becomes the suffix form `int* p[4]`-free rendering using
/// explicit parentheses).
fn declarator(ty: &Type, name: &str, types: &TypeTable) -> String {
    // Collect array suffixes outside-in.
    let mut dims = Vec::new();
    let mut t = ty;
    while let Type::Array(inner, n) = t {
        dims.push(*n);
        t = inner;
    }
    // Pointer chain.
    let mut stars = String::new();
    let mut core = t;
    while let Type::Pointer(inner) = core {
        // Pointer to array needs a parenthesized declarator.
        if let Type::Array(..) = **inner {
            return declarator(inner, &format!("(*{name})"), types);
        }
        stars.push('*');
        core = inner;
    }
    let base = base_type_name(core, types);
    let suffix: String = dims.iter().map(|n| format!("[{n}]")).collect();
    format!("{base} {stars}{name}{suffix}")
}

fn base_type_name(ty: &Type, types: &TypeTable) -> String {
    match ty {
        Type::Void => "void".into(),
        Type::Char => "char".into(),
        Type::Short => "short".into(),
        Type::Int => "int".into(),
        Type::Long => "long".into(),
        Type::Float => "float".into(),
        Type::Struct(id) => format!("struct {}", types.struct_def(*id).name),
        Type::Pointer(_) | Type::Array(..) => unreachable!("peeled by declarator"),
    }
}

/// The type as a cast spells it (`struct QNode*`, `int[4]`).
pub fn type_name(ty: &Type, types: &TypeTable) -> String {
    match ty {
        Type::Pointer(inner) => format!("{}*", type_name(inner, types)),
        Type::Array(inner, n) => format!("{}[{n}]", type_name(inner, types)),
        other => base_type_name(other, types),
    }
}

fn const_init(c: &ConstInit) -> String {
    match c {
        ConstInit::Int(v) => v.to_string(),
        ConstInit::Float(v) => format_float(*v),
        ConstInit::List(items) => {
            let inner: Vec<String> = items.iter().map(const_init).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

fn format_float(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_block_inner(b: &Block, p: &Program, depth: usize, out: &mut String) {
    for s in &b.stmts {
        print_stmt(s, p, depth, out);
    }
}

fn print_stmt(s: &Stmt, p: &Program, depth: usize, out: &mut String) {
    indent(depth, out);
    match &s.kind {
        StmtKind::Decl { name, ty, init, .. } => match init {
            Some(e) => {
                let _ = writeln!(out, "{} = {};", declarator(ty, name, &p.types), expr(e, p));
            }
            None => {
                let _ = writeln!(out, "{};", declarator(ty, name, &p.types));
            }
        },
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{};", expr(e, p));
        }
        StmtKind::If { cond, then, els } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond, p));
            print_block_inner(then, p, depth + 1, out);
            match els {
                Some(e) => {
                    indent(depth, out);
                    let _ = writeln!(out, "}} else {{");
                    print_block_inner(e, p, depth + 1, out);
                    indent(depth, out);
                    let _ = writeln!(out, "}}");
                }
                None => {
                    indent(depth, out);
                    let _ = writeln!(out, "}}");
                }
            }
        }
        StmtKind::While { cond, body, mark } => {
            print_mark(mark, depth, out);
            indent(0, out);
            let _ = writeln!(out, "while ({}) {{", expr(cond, p));
            print_block_inner(body, p, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        StmtKind::DoWhile { body, cond, mark } => {
            print_mark(mark, depth, out);
            let _ = writeln!(out, "do {{");
            print_block_inner(body, p, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}} while ({});", expr(cond, p));
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            mark,
        } => {
            print_mark(mark, depth, out);
            let init_s = match init {
                Some(i) => {
                    let mut tmp = String::new();
                    print_stmt(i, p, 0, &mut tmp);
                    tmp.trim_end().trim_end_matches(';').to_string() + ";"
                }
                None => ";".into(),
            };
            let cond_s = cond.as_ref().map(|c| expr(c, p)).unwrap_or_default();
            let step_s = step.as_ref().map(|st| expr(st, p)).unwrap_or_default();
            let _ = writeln!(out, "for ({init_s} {cond_s}; {step_s}) {{");
            print_block_inner(body, p, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        StmtKind::Break => {
            let _ = writeln!(out, "break;");
        }
        StmtKind::Continue => {
            let _ = writeln!(out, "continue;");
        }
        StmtKind::Return(e) => match e {
            Some(e) => {
                let _ = writeln!(out, "return {};", expr(e, p));
            }
            None => {
                let _ = writeln!(out, "return;");
            }
        },
        StmtKind::Block(b) => {
            let _ = writeln!(out, "{{");
            print_block_inner(b, p, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
    }
}

fn print_mark(mark: &LoopMark, _depth: usize, out: &mut String) {
    if mark.candidate {
        // The pragma must sit on its own line directly before the loop.
        let trimmed = out.trim_end_matches(' ').len();
        out.truncate(trimmed);
        match &mark.label {
            Some(l) => {
                let _ = writeln!(out, "#pragma candidate {l}");
            }
            None => {
                let _ = writeln!(out, "#pragma candidate");
            }
        }
    }
}

fn bin_op(op: BinOp) -> &'static str {
    use BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        And => "&",
        Or => "|",
        Xor => "^",
        Shl => "<<",
        Shr => ">>",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        LogAnd => "&&",
        LogOr => "||",
    }
}

/// Renders an expression (fully parenthesized: correct and unambiguous,
/// if not minimal).
pub fn expr(e: &Expr, p: &Program) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::FloatLit(v) => format_float(*v),
        ExprKind::Var { name, .. } => name.clone(),
        ExprKind::Unary(op, a) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::BitNot => "~",
                UnOp::Not => "!",
            };
            format!("{sym}({})", expr(a, p))
        }
        ExprKind::Binary(op, l, r) => {
            format!("({} {} {})", expr(l, p), bin_op(*op), expr(r, p))
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let sym = match op {
                AssignOp::Set => "=".to_string(),
                AssignOp::Compound(b) => format!("{}=", bin_op(*b)),
            };
            format!("{} {} {}", expr(lhs, p), sym, expr(rhs, p))
        }
        ExprKind::Cond(c, t, f) => {
            format!("({} ? {} : {})", expr(c, p), expr(t, p), expr(f, p))
        }
        ExprKind::Call { name, args } => {
            let a: Vec<String> = args.iter().map(|x| expr(x, p)).collect();
            format!("{name}({})", a.join(", "))
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", expr(base, p), expr(index, p))
        }
        ExprKind::Field { base, field } => {
            // Re-sugar (*p).f to p->f for readability.
            if let ExprKind::Deref(inner) = &base.kind {
                format!("{}->{field}", expr(inner, p))
            } else {
                format!("{}.{field}", expr(base, p))
            }
        }
        ExprKind::Deref(x) => format!("(*{})", expr(x, p)),
        ExprKind::AddrOf(x) => format!("(&{})", expr(x, p)),
        ExprKind::Cast(ty, x) => {
            format!("(({}){})", type_name(ty, &p.types), expr(x, p))
        }
        ExprKind::SizeofType(ty) => format!("sizeof({})", type_name(ty, &p.types)),
        ExprKind::SizeofExpr(x) => format!("sizeof {}", expr(x, p)),
        ExprKind::IncDec { pre, inc, target } => {
            let sym = if *inc { "++" } else { "--" };
            if *pre {
                format!("{sym}{}", expr(target, p))
            } else {
                format!("{}{sym}", expr(target, p))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ast;

    /// Strips type decorations so reparsed programs compare equal.
    fn normalize(mut p: Program) -> Program {
        for g in &mut p.globals {
            g.span = crate::SourceSpan::default();
        }
        for f in &mut p.functions {
            f.span = crate::SourceSpan::default();
            for par in &mut f.params {
                par.span = crate::SourceSpan::default();
            }
            f.locals.clear();
            visit_exprs_in_block(&mut f.body, &mut |e| {
                e.ty = None;
                e.eid = 0;
                e.span = crate::SourceSpan::default();
                if let ExprKind::Var { binding, .. } = &mut e.kind {
                    *binding = None;
                }
            });
            clear_stmt_meta(&mut f.body);
        }
        p
    }

    fn clear_stmt_meta(b: &mut Block) {
        for s in &mut b.stmts {
            s.span = crate::SourceSpan::default();
            match &mut s.kind {
                StmtKind::Decl { slot, .. } => *slot = None,
                StmtKind::If { then, els, .. } => {
                    clear_stmt_meta(then);
                    if let Some(e) = els {
                        clear_stmt_meta(e);
                    }
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    clear_stmt_meta(body)
                }
                StmtKind::For { init, body, .. } => {
                    if let Some(i) = init {
                        i.span = crate::SourceSpan::default();
                        if let StmtKind::Decl { slot, .. } = &mut i.kind {
                            *slot = None;
                        }
                    }
                    clear_stmt_meta(body);
                }
                StmtKind::Block(b) => clear_stmt_meta(b),
                _ => {}
            }
        }
    }

    fn roundtrip(src: &str) {
        let p1 = compile_to_ast(src).unwrap();
        assert!(roundtrips(&p1), "program should be printable");
        let printed = print_program(&p1);
        let p2 = compile_to_ast(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(
            normalize(p1),
            normalize(p2),
            "round-trip mismatch\n--- printed ---\n{printed}"
        );
    }

    #[test]
    fn roundtrip_expressions_and_statements() {
        roundtrip(
            "int g = 3;
             int helper(int a, int b) { return a > b ? a - b : b - a; }
             int main() {
               int x; x = 0;
               for (int i = 0; i < 10; i++) {
                 x += helper(i, g) * 2;
                 if (x % 3 == 0 && x != 0) { x--; } else { ++x; }
               }
               int k; k = 0;
               while (k < 5) { k = k + 1; if (k == 2) { continue; } }
               do { k--; } while (k > 0);
               return x << 1 | 1;
             }",
        );
    }

    #[test]
    fn roundtrip_pointers_structs_arrays() {
        roundtrip(
            "struct Node { int v; struct Node *next; };
             int table[4] = {1, 2, 3};
             int main() {
               struct Node *head; head = 0;
               for (int i = 0; i < 4; i++) {
                 struct Node *n; n = malloc(sizeof(struct Node));
                 n->v = table[i];
                 n->next = head;
                 head = n;
               }
               int s; s = 0;
               while (head) {
                 s += head->v;
                 struct Node *d; d = head;
                 head = head->next;
                 free(d);
               }
               short *view; int *buf; buf = malloc(16);
               view = (short*)buf;
               view[0] = (short)s;
               s = view[0];
               free(buf);
               return s;
             }",
        );
    }

    #[test]
    fn roundtrip_pragma_and_floats() {
        roundtrip(
            "float acc = 1.5;
             int main() {
               float x; x = 0.25;
               #pragma candidate hot
               for (int i = 0; i < 8; i++) {
                 int t; t = i * 2;
                 x = x + (float)t * 0.5;
               }
               out_float(x);
               return (int)x;
             }",
        );
    }

    #[test]
    fn prints_transformed_style_types() {
        // Pointer-to-array (the expanded-global handle shape) is printable
        // even though it cannot re-parse.
        let mut p = compile_to_ast("int main() { return 0; }").unwrap();
        p.globals.push(GlobalVar {
            name: "handle".into(),
            ty: Type::Int.array_of(4).ptr_to(),
            init: None,
            span: crate::SourceSpan::default(),
        });
        assert!(!roundtrips(&p));
        let printed = print_program(&p);
        assert!(printed.contains("int (*handle)[4]"), "{printed}");
    }
}
