//! Semantic analysis: name resolution, type checking, local-slot assignment.
//!
//! `check` decorates the AST in place:
//! * every [`Expr`] receives its resolved [`Type`] (arrays keep their array
//!   type; consumers apply C decay),
//! * every `Var` receives a [`VarBinding`],
//! * every local declaration receives a slot index in
//!   [`Function::locals`] (parameters occupy the first slots),
//! * lvalue-ness, implicit-conversion and builtin-signature rules of the C
//!   subset are enforced.

use crate::ast::*;
use crate::error::LangError;
use crate::source::SourceSpan;
use crate::types::{Type, TypeTable};

/// Signature of a callable: parameter types and return type.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// Names of the builtin functions provided by the VM, with signatures.
///
/// `malloc`/`calloc`/`realloc`/`free` manage the VM heap; `in_*`/`out_*`
/// exchange data with the host harness; `print_*` write to the VM's console
/// stream; `fsqrt`/`fabs` are the float math used by the numeric workloads.
pub fn builtin_signature(name: &str) -> Option<Signature> {
    let void_ptr = Type::Void.ptr_to();
    Some(match name {
        "malloc" => Signature {
            params: vec![Type::Long],
            ret: void_ptr,
        },
        "calloc" => Signature {
            params: vec![Type::Long, Type::Long],
            ret: void_ptr,
        },
        "realloc" => Signature {
            params: vec![void_ptr, Type::Long],
            ret: Type::Void.ptr_to(),
        },
        "free" => Signature {
            params: vec![void_ptr],
            ret: Type::Void,
        },
        "in_long" => Signature {
            params: vec![Type::Long],
            ret: Type::Long,
        },
        "in_len" => Signature {
            params: vec![],
            ret: Type::Long,
        },
        "out_long" => Signature {
            params: vec![Type::Long],
            ret: Type::Void,
        },
        "out_float" => Signature {
            params: vec![Type::Float],
            ret: Type::Void,
        },
        "print_long" => Signature {
            params: vec![Type::Long],
            ret: Type::Void,
        },
        "print_float" => Signature {
            params: vec![Type::Float],
            ret: Type::Void,
        },
        "fsqrt" => Signature {
            params: vec![Type::Float],
            ret: Type::Float,
        },
        "fabs" => Signature {
            params: vec![Type::Float],
            ret: Type::Float,
        },
        // Reserved internal builtins (names starting with `__`), emitted by
        // the expansion pass: worker index, thread count, expanded realloc
        // (moves each thread's copy), and raw memory copy.
        "__tid" => Signature {
            params: vec![],
            ret: Type::Long,
        },
        "__nthreads" => Signature {
            params: vec![],
            ret: Type::Long,
        },
        "__realloc_expanded" => Signature {
            params: vec![Type::Void.ptr_to(), Type::Long, Type::Long],
            ret: Type::Void.ptr_to(),
        },
        "__memcpy" => Signature {
            params: vec![Type::Void.ptr_to(), Type::Void.ptr_to(), Type::Long],
            ret: Type::Void,
        },
        "__localize" => Signature {
            params: vec![Type::Void.ptr_to()],
            ret: Type::Void.ptr_to(),
        },
        _ => return None,
    })
}

/// Type-checks and resolves `program` in place.
///
/// # Errors
///
/// Returns the first semantic error found.
pub fn check(program: &mut Program) -> Result<(), LangError> {
    // Collect user function signatures first so calls can be forward.
    let mut signatures = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        if builtin_signature(&f.name).is_some() {
            return Err(LangError::sema(
                f.span,
                format!("function `{}` shadows a builtin", f.name),
            ));
        }
        signatures.push((
            f.name.clone(),
            Signature {
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ret: f.ret_ty.clone(),
            },
        ));
    }
    for g in &program.globals {
        check_object_type(&g.ty, g.span)?;
        if let Some(init) = &g.init {
            check_const_init(&g.ty, init, g.span)?;
        }
    }
    let globals: Vec<(String, Type)> = program
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.ty.clone()))
        .collect();
    let types = program.types.clone();
    for f in &mut program.functions {
        let mut cx = FnCx {
            types: &types,
            globals: &globals,
            signatures: &signatures,
            ret_ty: f.ret_ty.clone(),
            locals: Vec::new(),
            scopes: vec![Vec::new()],
            loop_depth: 0,
        };
        for p in &f.params {
            check_object_type(&p.ty, p.span)?;
            if p.ty == Type::Void {
                return Err(LangError::sema(p.span, "parameter cannot be void"));
            }
            cx.declare(&p.name, p.ty.clone(), true, p.span)?;
        }
        cx.check_block(&mut f.body)?;
        f.locals = cx.locals;
    }
    Ok(())
}

/// Rejects types that cannot be the type of an object (e.g. plain `void`).
fn check_object_type(ty: &Type, span: SourceSpan) -> Result<(), LangError> {
    match ty {
        Type::Void => Err(LangError::sema(
            span,
            "cannot declare an object of type void",
        )),
        Type::Array(elem, _) => check_object_type(elem, span),
        _ => Ok(()),
    }
}

fn check_const_init(ty: &Type, init: &ConstInit, span: SourceSpan) -> Result<(), LangError> {
    match (ty, init) {
        (t, ConstInit::Int(_)) if t.is_integer() || t.is_pointer() => Ok(()),
        (Type::Float, ConstInit::Int(_) | ConstInit::Float(_)) => Ok(()),
        (t, ConstInit::Float(_)) if t.is_integer() => Ok(()),
        (Type::Array(elem, n), ConstInit::List(items)) => {
            if items.len() as u64 > *n {
                return Err(LangError::sema(span, "too many initializers for array"));
            }
            for it in items {
                check_const_init(elem, it, span)?;
            }
            Ok(())
        }
        _ => Err(LangError::sema(
            span,
            "initializer does not match declared type",
        )),
    }
}

struct FnCx<'a> {
    types: &'a TypeTable,
    globals: &'a [(String, Type)],
    signatures: &'a [(String, Signature)],
    ret_ty: Type,
    locals: Vec<LocalVar>,
    /// Stack of scopes; each holds (name, slot).
    scopes: Vec<Vec<(String, usize)>>,
    loop_depth: u32,
}

impl<'a> FnCx<'a> {
    fn declare(
        &mut self,
        name: &str,
        ty: Type,
        is_param: bool,
        span: SourceSpan,
    ) -> Result<usize, LangError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.iter().any(|(n, _)| n == name) {
            return Err(LangError::sema(
                span,
                format!("`{name}` redeclared in same scope"),
            ));
        }
        let slot = self.locals.len();
        self.locals.push(LocalVar {
            name: name.to_string(),
            ty,
            is_param,
        });
        scope.push((name.to_string(), slot));
        Ok(slot)
    }

    fn lookup(&self, name: &str) -> Option<VarBinding> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, slot)) = scope.iter().rev().find(|(n, _)| n == name) {
                return Some(VarBinding::Local(*slot));
            }
        }
        self.globals
            .iter()
            .position(|(n, _)| n == name)
            .map(VarBinding::Global)
    }

    fn binding_type(&self, b: VarBinding) -> Type {
        match b {
            VarBinding::Local(slot) => self.locals[slot].ty.clone(),
            VarBinding::Global(i) => self.globals[i].1.clone(),
        }
    }

    fn check_block(&mut self, block: &mut Block) -> Result<(), LangError> {
        self.scopes.push(Vec::new());
        for s in &mut block.stmts {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<(), LangError> {
        let span = stmt.span;
        match &mut stmt.kind {
            StmtKind::Decl {
                name,
                ty,
                init,
                slot,
            } => {
                check_object_type(ty, span)?;
                if ty == &Type::Void {
                    return Err(LangError::sema(span, "cannot declare void variable"));
                }
                // The initializer is checked in the outer scope (C allows
                // `int x = x;` to see an outer x, but we keep it simple and
                // check before declaring, which matches C shadowing rules).
                if let Some(e) = init {
                    let ety = self.check_expr(e)?;
                    require_assignable(ty, &ety, self.types, e.span)?;
                }
                *slot = Some(self.declare(name, ty.clone(), false, span)?);
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                self.check_cond(cond)?;
                self.check_block(then)?;
                if let Some(b) = els {
                    self.check_block(b)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body, .. } => {
                self.check_cond(cond)?;
                self.loop_depth += 1;
                self.check_block(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            StmtKind::DoWhile { body, cond, .. } => {
                self.loop_depth += 1;
                self.check_block(body)?;
                self.loop_depth -= 1;
                self.check_cond(cond)?;
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(Vec::new());
                if let Some(s) = init {
                    self.check_stmt(s)?;
                }
                if let Some(c) = cond {
                    self.check_cond(c)?;
                }
                if let Some(s) = step {
                    self.check_expr(s)?;
                }
                self.loop_depth += 1;
                self.check_block(body)?;
                self.loop_depth -= 1;
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(LangError::sema(span, "break/continue outside of loop"));
                }
                Ok(())
            }
            StmtKind::Return(e) => match (e, self.ret_ty.clone()) {
                (None, Type::Void) => Ok(()),
                (None, _) => Err(LangError::sema(span, "missing return value")),
                (Some(_), Type::Void) => {
                    Err(LangError::sema(span, "void function returns a value"))
                }
                (Some(e), ret) => {
                    let ety = self.check_expr(e)?;
                    require_assignable(&ret, &ety, self.types, e.span)
                }
            },
            StmtKind::Block(b) => self.check_block(b),
        }
    }

    fn check_cond(&mut self, e: &mut Expr) -> Result<(), LangError> {
        let t = self.check_expr(e)?;
        if !t.decayed().is_scalar() {
            return Err(LangError::sema(
                e.span,
                format!("condition must be scalar, got {t}"),
            ));
        }
        Ok(())
    }

    fn check_expr(&mut self, e: &mut Expr) -> Result<Type, LangError> {
        let span = e.span;
        let ty = match &mut e.kind {
            ExprKind::IntLit(v) => {
                if i32::try_from(*v).is_ok() {
                    Type::Int
                } else {
                    Type::Long
                }
            }
            ExprKind::FloatLit(_) => Type::Float,
            ExprKind::Var { name, binding } => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| LangError::sema(span, format!("unknown variable `{name}`")))?;
                *binding = Some(b);
                self.binding_type(b)
            }
            ExprKind::Unary(op, inner) => {
                let t = self.check_expr(inner)?.decayed();
                match op {
                    UnOp::Neg => {
                        if !t.is_arithmetic() {
                            return Err(LangError::sema(span, "operand of `-` must be arithmetic"));
                        }
                        promote(&t)
                    }
                    UnOp::BitNot => {
                        if !t.is_integer() {
                            return Err(LangError::sema(span, "operand of `~` must be integer"));
                        }
                        promote(&t)
                    }
                    UnOp::Not => {
                        if !t.is_scalar() {
                            return Err(LangError::sema(span, "operand of `!` must be scalar"));
                        }
                        Type::Int
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.check_expr(l)?.decayed();
                let rt = self.check_expr(r)?.decayed();
                self.binary_result(*op, &lt, &rt, span)?
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                require_lvalue(lhs)?;
                let rt = self.check_expr(rhs)?;
                if let AssignOp::Compound(b) = op {
                    // lhs op rhs must be well-typed and storable back.
                    let res = self.binary_result(*b, &lt.decayed(), &rt.decayed(), span)?;
                    require_assignable(&lt, &res, self.types, span)?;
                } else {
                    require_assignable(&lt, &rt, self.types, span)?;
                }
                lt
            }
            ExprKind::Cond(c, t, f) => {
                let ct = self.check_expr(c)?;
                if !ct.decayed().is_scalar() {
                    return Err(LangError::sema(c.span, "`?:` condition must be scalar"));
                }
                let tt = self.check_expr(t)?.decayed();
                let ft = self.check_expr(f)?.decayed();
                common_type(&tt, &ft).ok_or_else(|| {
                    LangError::sema(span, format!("incompatible `?:` arms: {tt} vs {ft}"))
                })?
            }
            ExprKind::Call { name, args } => {
                let sig = builtin_signature(name)
                    .or_else(|| {
                        self.signatures
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, s)| s.clone())
                    })
                    .ok_or_else(|| LangError::sema(span, format!("unknown function `{name}`")))?;
                if sig.params.len() != args.len() {
                    return Err(LangError::sema(
                        span,
                        format!(
                            "`{name}` expects {} arguments, got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (a, pt) in args.iter_mut().zip(&sig.params) {
                    let at = self.check_expr(a)?;
                    require_assignable(pt, &at, self.types, a.span)?;
                }
                sig.ret
            }
            ExprKind::Index { base, index } => {
                let bt = self.check_expr(base)?;
                let it = self.check_expr(index)?.decayed();
                if !it.is_integer() {
                    return Err(LangError::sema(index.span, "array index must be integer"));
                }
                match bt.pointee() {
                    Some(Type::Void) | None => {
                        return Err(LangError::sema(
                            base.span,
                            format!("cannot index value of type {bt}"),
                        ))
                    }
                    Some(elem) => elem.clone(),
                }
            }
            ExprKind::Field { base, field } => {
                let bt = self.check_expr(base)?;
                let Type::Struct(id) = bt else {
                    return Err(LangError::sema(
                        base.span,
                        format!("member access on non-struct type {bt}"),
                    ));
                };
                let def = self.types.struct_def(id);
                let f = def.field(field).ok_or_else(|| {
                    LangError::sema(
                        span,
                        format!("struct `{}` has no field `{field}`", def.name),
                    )
                })?;
                f.ty.clone()
            }
            ExprKind::Deref(inner) => {
                let t = self.check_expr(inner)?.decayed();
                match t.pointee() {
                    Some(Type::Void) => {
                        return Err(LangError::sema(span, "cannot dereference void*"))
                    }
                    Some(p) => p.clone(),
                    None => {
                        return Err(LangError::sema(
                            span,
                            format!("cannot dereference non-pointer type {t}"),
                        ))
                    }
                }
            }
            ExprKind::AddrOf(inner) => {
                let t = self.check_expr(inner)?;
                require_lvalue(inner)?;
                t.ptr_to()
            }
            ExprKind::Cast(ty, inner) => {
                let from = self.check_expr(inner)?.decayed();
                let ok = (ty.is_scalar() && from.is_scalar()) || (ty == &Type::Void); // cast-to-void discards
                if !ok {
                    return Err(LangError::sema(
                        span,
                        format!("invalid cast from {from} to {ty}"),
                    ));
                }
                // float<->pointer casts are not meaningful in our model.
                if (ty.is_pointer() && from.is_float()) || (ty.is_float() && from.is_pointer()) {
                    return Err(LangError::sema(
                        span,
                        "cannot cast between float and pointer",
                    ));
                }
                ty.clone()
            }
            ExprKind::SizeofType(ty) => {
                check_object_type(ty, span)?;
                if ty == &Type::Void {
                    return Err(LangError::sema(span, "sizeof(void) is invalid"));
                }
                Type::Long
            }
            ExprKind::SizeofExpr(inner) => {
                let t = self.check_expr(inner)?;
                if t == Type::Void {
                    return Err(LangError::sema(span, "sizeof void expression"));
                }
                Type::Long
            }
            ExprKind::IncDec { target, .. } => {
                let t = self.check_expr(target)?;
                require_lvalue(target)?;
                let d = t.decayed();
                if !(d.is_integer() || d.is_pointer()) {
                    return Err(LangError::sema(
                        span,
                        "++/-- target must be integer or pointer",
                    ));
                }
                t
            }
        };
        e.ty = Some(ty.clone());
        Ok(ty)
    }

    fn binary_result(
        &self,
        op: BinOp,
        lt: &Type,
        rt: &Type,
        span: SourceSpan,
    ) -> Result<Type, LangError> {
        use BinOp::*;
        match op {
            LogAnd | LogOr => {
                if lt.is_scalar() && rt.is_scalar() {
                    Ok(Type::Int)
                } else {
                    Err(LangError::sema(span, "logical operands must be scalar"))
                }
            }
            Eq | Ne | Lt | Gt | Le | Ge => {
                let ok = (lt.is_arithmetic() && rt.is_arithmetic())
                    || (lt.is_pointer() && rt.is_pointer())
                    || (lt.is_pointer() && rt.is_integer())
                    || (lt.is_integer() && rt.is_pointer());
                if ok {
                    Ok(Type::Int)
                } else {
                    Err(LangError::sema(
                        span,
                        format!("cannot compare {lt} and {rt}"),
                    ))
                }
            }
            Add => match (lt.is_pointer(), rt.is_pointer()) {
                (true, false) if rt.is_integer() => Ok(lt.clone()),
                (false, true) if lt.is_integer() => Ok(rt.clone()),
                (false, false) if lt.is_arithmetic() && rt.is_arithmetic() => {
                    Ok(arith_common(lt, rt))
                }
                _ => Err(LangError::sema(span, format!("cannot add {lt} and {rt}"))),
            },
            Sub => match (lt.is_pointer(), rt.is_pointer()) {
                (true, true) => {
                    if lt == rt {
                        Ok(Type::Long)
                    } else {
                        Err(LangError::sema(span, "pointer difference of unlike types"))
                    }
                }
                (true, false) if rt.is_integer() => Ok(lt.clone()),
                (false, false) if lt.is_arithmetic() && rt.is_arithmetic() => {
                    Ok(arith_common(lt, rt))
                }
                _ => Err(LangError::sema(
                    span,
                    format!("cannot subtract {rt} from {lt}"),
                )),
            },
            Mul | Div => {
                if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(arith_common(lt, rt))
                } else {
                    Err(LangError::sema(span, "arithmetic operands required"))
                }
            }
            Rem | And | Or | Xor | Shl | Shr => {
                if lt.is_integer() && rt.is_integer() {
                    Ok(arith_common(lt, rt))
                } else {
                    Err(LangError::sema(span, "integer operands required"))
                }
            }
        }
    }
}

/// C integer promotion: sub-`int` types widen to `int`.
fn promote(t: &Type) -> Type {
    match t {
        Type::Char | Type::Short => Type::Int,
        other => other.clone(),
    }
}

/// Usual arithmetic conversions over our reduced rank ladder.
fn arith_common(a: &Type, b: &Type) -> Type {
    if a.is_float() || b.is_float() {
        Type::Float
    } else if a == &Type::Long || b == &Type::Long {
        Type::Long
    } else {
        Type::Int
    }
}

/// Common type of `?:` arms.
fn common_type(a: &Type, b: &Type) -> Option<Type> {
    if a == b {
        return Some(a.clone());
    }
    if a.is_arithmetic() && b.is_arithmetic() {
        return Some(arith_common(a, b));
    }
    match (a, b) {
        (Type::Pointer(x), Type::Pointer(_)) if **x == Type::Void => Some(b.clone()),
        (Type::Pointer(_), Type::Pointer(y)) if **y == Type::Void => Some(a.clone()),
        (p @ Type::Pointer(_), i) | (i, p @ Type::Pointer(_)) if i.is_integer() => Some(p.clone()),
        _ => None,
    }
}

/// Whether a value of type `src` can be implicitly stored into `dst`.
fn require_assignable(
    dst: &Type,
    src: &Type,
    _types: &TypeTable,
    span: SourceSpan,
) -> Result<(), LangError> {
    let src = src.decayed();
    let ok = match (dst, &src) {
        (d, s) if d == s => true,
        (d, s) if d.is_arithmetic() && s.is_arithmetic() => true,
        // void* converts to/from any object pointer (C's malloc idiom).
        (Type::Pointer(d), Type::Pointer(_)) if **d == Type::Void => true,
        (Type::Pointer(_), Type::Pointer(s)) if **s == Type::Void => true,
        // Integer-to-pointer only for constants like 0 is checked loosely:
        // we accept any integer here; the workloads use it only for NULL.
        (Type::Pointer(_), s) if s.is_integer() => true,
        (d, Type::Pointer(_)) if d.is_integer() => false,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(LangError::sema(
            span,
            format!("cannot assign {src} to {dst}"),
        ))
    }
}

/// Lvalues: variables, dereferences, indexing, and field access on lvalues.
fn require_lvalue(e: &Expr) -> Result<(), LangError> {
    match &e.kind {
        ExprKind::Var { .. } | ExprKind::Deref(_) | ExprKind::Index { .. } => Ok(()),
        ExprKind::Field { base, .. } => require_lvalue(base),
        _ => Err(LangError::sema(e.span, "expression is not assignable")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ast;

    fn ok(src: &str) -> Program {
        compile_to_ast(src).unwrap()
    }

    fn err(src: &str) -> String {
        compile_to_ast(src).unwrap_err().message().to_string()
    }

    #[test]
    fn resolves_locals_params_globals() {
        let p = ok("int g; void f(int a) { int b; b = a + g; }");
        let f = p.function("f").unwrap();
        assert_eq!(f.locals.len(), 2);
        assert!(f.locals[0].is_param);
        assert!(!f.locals[1].is_param);
        let StmtKind::Expr(e) = &f.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { lhs, rhs, .. } = &e.kind else {
            panic!()
        };
        let ExprKind::Var { binding, .. } = &lhs.kind else {
            panic!()
        };
        assert_eq!(*binding, Some(VarBinding::Local(1)));
        let ExprKind::Binary(_, a, g) = &rhs.kind else {
            panic!()
        };
        let ExprKind::Var { binding: ab, .. } = &a.kind else {
            panic!()
        };
        assert_eq!(*ab, Some(VarBinding::Local(0)));
        let ExprKind::Var { binding: gb, .. } = &g.kind else {
            panic!()
        };
        assert_eq!(*gb, Some(VarBinding::Global(0)));
    }

    #[test]
    fn shadowing_in_inner_scope() {
        let p = ok("void f() { int x; { int x; x = 1; } x = 2; }");
        let f = p.function("f").unwrap();
        assert_eq!(f.locals.len(), 2);
        let StmtKind::Block(inner) = &f.body.stmts[1].kind else {
            panic!()
        };
        let StmtKind::Expr(e) = &inner.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { lhs, .. } = &e.kind else {
            panic!()
        };
        let ExprKind::Var { binding, .. } = &lhs.kind else {
            panic!()
        };
        assert_eq!(*binding, Some(VarBinding::Local(1)));
    }

    #[test]
    fn redeclaration_in_same_scope_is_error() {
        assert!(err("void f() { int x; int x; }").contains("redeclared"));
    }

    #[test]
    fn unknown_variable_is_error() {
        assert!(err("void f() { y = 1; }").contains("unknown variable"));
    }

    #[test]
    fn literal_typing() {
        let p = ok("void f() { long x; x = 5000000000; x = 1; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Long);
        let StmtKind::Expr(e) = &f.body.stmts[2].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Int);
    }

    #[test]
    fn pointer_arithmetic_types() {
        let p = ok("void f(int *p, int *q) { long d; int *r; r = p + 1; d = p - q; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[2].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Int.ptr_to());
        let StmtKind::Expr(e) = &f.body.stmts[3].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Long);
    }

    #[test]
    fn pointer_difference_of_unlike_types_is_error() {
        assert!(err("void f(int *p, char *q) { long d; d = p - q; }").contains("unlike types"));
    }

    #[test]
    fn malloc_returns_void_star_assignable_to_typed_pointer() {
        ok("void f() { int *p; p = malloc(40); free(p); }");
    }

    #[test]
    fn builtin_arity_checked() {
        assert!(err("void f() { malloc(); }").contains("expects 1 arguments"));
    }

    #[test]
    fn deref_void_star_is_error() {
        assert!(err("void f(void *p) { *p; }").contains("void*"));
    }

    #[test]
    fn index_through_pointer_and_array() {
        let p = ok("int a[10]; void f(int *p) { a[1] = p[2]; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Assign { lhs, rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(lhs.ty(), &Type::Int);
        assert_eq!(rhs.ty(), &Type::Int);
    }

    #[test]
    fn field_access_requires_struct() {
        assert!(err("void f(int x) { x.y = 1; }").contains("non-struct"));
        assert!(err("struct S { int a; }; void f(struct S s) { s.b = 1; }").contains("no field"));
    }

    #[test]
    fn struct_assignment_allowed() {
        ok("struct S { int a; int b; }; void f(struct S x, struct S y) { x = y; }");
    }

    #[test]
    fn struct_to_different_struct_is_error() {
        assert!(err(
            "struct S { int a; }; struct T { int a; }; void f(struct S x, struct T y) { x = y; }"
        )
        .contains("cannot assign"));
    }

    #[test]
    fn addr_of_requires_lvalue() {
        assert!(err("void f() { int *p; p = &3; }").contains("not assignable"));
        ok("void f() { int x; int *p; p = &x; }");
    }

    #[test]
    fn assign_to_rvalue_is_error() {
        assert!(err("void f(int a, int b) { a + b = 3; }").contains("not assignable"));
    }

    #[test]
    fn cast_rules() {
        ok("void f(long x) { int *p; p = (int*)x; x = (long)p; }");
        ok("void f(int *p) { short *s; s = (short*)p; }");
        assert!(err("void f(float x) { int *p; p = (int*)x; }").contains("float and pointer"));
    }

    #[test]
    fn recast_pattern_from_bzip2_typechecks() {
        // The motivating case: an int buffer viewed as shorts.
        ok("void f() {
              int *zptr; short *view; long i;
              zptr = malloc(400);
              view = (short*)zptr;
              i = 0;
              while (i < 200) { view[i] = 7; i = i + 1; }
              free(zptr);
            }");
    }

    #[test]
    fn break_outside_loop_is_error() {
        assert!(err("void f() { break; }").contains("outside of loop"));
    }

    #[test]
    fn return_type_checked() {
        assert!(err("int f() { return; }").contains("missing return value"));
        assert!(err("void f() { return 3; }").contains("void function"));
        ok("float f() { return 1; }"); // int converts to float
    }

    #[test]
    fn call_before_definition_resolves() {
        ok("int helper(int a); int helper(int a) { return a; }"
            .replace("int helper(int a);", "int user() { return helper(5); }")
            .as_str());
    }

    #[test]
    fn shadowing_builtin_function_is_error() {
        assert!(err("int malloc(long n) { return 0; }").contains("shadows a builtin"));
    }

    #[test]
    fn ternary_common_type() {
        let p = ok("void f(int c, int *p) { int *q; q = c ? p : 0; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Int.ptr_to());
    }

    #[test]
    fn incdec_on_pointer_ok_on_float_error() {
        ok("void f(int *p) { p++; --p; }");
        assert!(err("void f(float x) { x++; }").contains("integer or pointer"));
    }

    #[test]
    fn global_initializer_type_checked() {
        assert!(err("int g = {1};").contains("does not match"));
        assert!(err("int a[2] = {1,2,3};").contains("too many initializers"));
        ok("float x = 2; int a[3] = {1};");
    }

    #[test]
    fn sizeof_results_are_long() {
        let p = ok("void f(int *p) { long n; n = sizeof(int) + sizeof *p; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty(), &Type::Long);
    }

    #[test]
    fn void_variable_is_error() {
        assert!(err("void f() { void x; }").contains("void"));
    }

    #[test]
    fn condition_must_be_scalar() {
        assert!(err("struct S { int a; }; void f(struct S s) { if (s) {} }").contains("scalar"));
    }

    #[test]
    fn array_decays_in_conditions_and_args() {
        ok("void g(int *p) {} int a[4]; void f() { if (a) {} g(a); }");
    }
}
