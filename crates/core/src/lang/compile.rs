//! The type-check pass: untyped AST → compiled, typed AST.
//!
//! Compilation resolves every name once:
//!
//! * attribute paths become the [`AttrKey`] the evaluator reads, looked up
//!   in the attribute tables the selection scope exposes;
//! * `labels.*` calls require literal arguments and are lowered to
//!   [`KeyId`]/[`LabelId`] probes, interned into the pack's
//!   [`LabelInterner`] *now* so evaluation never hashes a string;
//! * builtin calls are bound to their [`BuiltinKind`] and arity/type
//!   checked.
//!
//! Anything that survives this pass evaluates without error, which is why
//! the evaluator is infallible.

use super::ast::{Comparator, Expr, ExprKind};
use super::builtins::BuiltinKind;
use super::lex::{LangError, Span};
use super::resolve::{AttrKey, Select};
use ij_model::{KeyId, LabelId, LabelInterner};
use std::fmt;
use std::sync::Arc;

/// An expression type. Attribute types are the primitive subset; list
/// types arise from literals and are consumed by `CONTAINS`/`IN`/`core.len`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Type {
    /// Boolean.
    Bool,
    /// Number.
    Number,
    /// String.
    String,
    /// Homogeneous list.
    List(Box<Type>),
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => f.write_str("bool"),
            Type::Number => f.write_str("number"),
            Type::String => f.write_str("string"),
            Type::List(inner) => write!(f, "list<{inner}>"),
        }
    }
}

/// A type-checked expression node. Kind and type are fixed; the span still
/// points into the original source for traces and diagnostics.
#[derive(Debug, Clone)]
pub(crate) struct CompiledExpr {
    pub(crate) kind: CKind,
    pub(crate) span: Span,
    pub(crate) ty: Type,
}

impl CompiledExpr {
    /// The node's type.
    pub(crate) fn ty(&self) -> &Type {
        &self.ty
    }
}

#[derive(Debug, Clone)]
pub(crate) enum CKind {
    Bool(bool),
    Number(f64),
    Str(Arc<str>),
    Attr(AttrKey),
    List(Vec<CompiledExpr>),
    Cmp {
        op: Comparator,
        lhs: Box<CompiledExpr>,
        rhs: Box<CompiledExpr>,
    },
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    Not(Box<CompiledExpr>),
    Call {
        kind: BuiltinKind,
        args: Vec<CompiledExpr>,
    },
    /// `labels.has("key")` lowered to an interned key probe.
    LabelHasKey(KeyId),
    /// `labels.is("key", "value")` lowered to an interned pair probe.
    LabelHasPair(LabelId),
    /// `labels.get("key")` lowered to an interned key lookup.
    LabelGet(KeyId),
    /// `ports.declared(port, protocol)` — a resolver probe on the current
    /// unit's declared ports.
    PortDeclared {
        port: Box<CompiledExpr>,
        protocol: Box<CompiledExpr>,
    },
}

/// Everything compilation checks against.
pub(crate) struct CompileEnv<'a> {
    /// The selection scope: which attributes resolve, and whether the
    /// unit probes (`ports.*` / `labels.*`) are available.
    pub(crate) select: Select,
    /// The pack-wide intern table `labels.*` literals resolve into.
    pub(crate) interner: &'a mut LabelInterner,
}

/// Type-checks and compiles one parsed expression.
pub(crate) fn compile(expr: &Expr, env: &mut CompileEnv<'_>) -> Result<CompiledExpr, LangError> {
    match &expr.kind {
        ExprKind::Bool(b) => Ok(CompiledExpr {
            kind: CKind::Bool(*b),
            span: expr.span,
            ty: Type::Bool,
        }),
        ExprKind::Number(n) => Ok(CompiledExpr {
            kind: CKind::Number(*n),
            span: expr.span,
            ty: Type::Number,
        }),
        ExprKind::String(s) => Ok(CompiledExpr {
            kind: CKind::Str(Arc::from(s.as_str())),
            span: expr.span,
            ty: Type::String,
        }),
        ExprKind::Attribute(path) => {
            let name = path.join(".");
            let Some((key, ty)) = env.select.attr(&name) else {
                return Err(LangError::new(
                    format!(
                        "unknown attribute `{name}` in the `{}` scope",
                        env.select.as_str()
                    ),
                    expr.span,
                ));
            };
            Ok(CompiledExpr {
                kind: CKind::Attr(key),
                span: expr.span,
                ty,
            })
        }
        ExprKind::ListLiteral(items) => {
            if items.is_empty() {
                return Err(LangError::new(
                    "empty list literal has no element type",
                    expr.span,
                ));
            }
            let compiled: Vec<CompiledExpr> = items
                .iter()
                .map(|item| compile(item, env))
                .collect::<Result<_, _>>()?;
            let elem_ty = compiled[0].ty.clone();
            for item in &compiled[1..] {
                if item.ty != elem_ty {
                    return Err(LangError::new(
                        format!(
                            "list elements must share one type: first is {elem_ty}, this is {}",
                            item.ty
                        ),
                        item.span,
                    ));
                }
            }
            Ok(CompiledExpr {
                kind: CKind::List(compiled),
                span: expr.span,
                ty: Type::List(Box::new(elem_ty)),
            })
        }
        ExprKind::Not(inner) => {
            let inner = expect_type(compile(inner, env)?, &Type::Bool, "`!`")?;
            Ok(CompiledExpr {
                kind: CKind::Not(Box::new(inner)),
                span: expr.span,
                ty: Type::Bool,
            })
        }
        ExprKind::And(lhs, rhs) => {
            let lhs = expect_type(compile(lhs, env)?, &Type::Bool, "`&&`")?;
            let rhs = expect_type(compile(rhs, env)?, &Type::Bool, "`&&`")?;
            Ok(CompiledExpr {
                kind: CKind::And(Box::new(lhs), Box::new(rhs)),
                span: expr.span,
                ty: Type::Bool,
            })
        }
        ExprKind::Or(lhs, rhs) => {
            let lhs = expect_type(compile(lhs, env)?, &Type::Bool, "`||`")?;
            let rhs = expect_type(compile(rhs, env)?, &Type::Bool, "`||`")?;
            Ok(CompiledExpr {
                kind: CKind::Or(Box::new(lhs), Box::new(rhs)),
                span: expr.span,
                ty: Type::Bool,
            })
        }
        ExprKind::Comparison { op, lhs, rhs } => {
            let lhs = compile(lhs, env)?;
            let rhs = compile(rhs, env)?;
            check_comparison(*op, &lhs, &rhs, expr.span)?;
            Ok(CompiledExpr {
                kind: CKind::Cmp {
                    op: *op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span: expr.span,
                ty: Type::Bool,
            })
        }
        ExprKind::FunctionCall { path, args } => compile_call(expr, path, args, env),
    }
}

fn check_comparison(
    op: Comparator,
    lhs: &CompiledExpr,
    rhs: &CompiledExpr,
    span: Span,
) -> Result<(), LangError> {
    match op {
        Comparator::Eq | Comparator::Ne => {
            if lhs.ty != rhs.ty {
                return Err(LangError::new(
                    format!(
                        "`{}` compares values of one type, found {} and {}",
                        op.as_str(),
                        lhs.ty,
                        rhs.ty
                    ),
                    span,
                ));
            }
            Ok(())
        }
        Comparator::Lt | Comparator::Le | Comparator::Gt | Comparator::Ge => {
            if lhs.ty != Type::Number || rhs.ty != Type::Number {
                return Err(LangError::new(
                    format!(
                        "`{}` orders numbers, found {} and {}",
                        op.as_str(),
                        lhs.ty,
                        rhs.ty
                    ),
                    span,
                ));
            }
            Ok(())
        }
        Comparator::Contains => match (&lhs.ty, &rhs.ty) {
            (Type::List(elem), needle) if needle == elem.as_ref() => Ok(()),
            (Type::String, Type::String) => Ok(()),
            (l, r) => Err(LangError::new(
                format!("`CONTAINS` needs list<t> CONTAINS t or string CONTAINS string, found {l} and {r}"),
                span,
            )),
        },
        Comparator::In => match (&lhs.ty, &rhs.ty) {
            (needle, Type::List(elem)) if needle == elem.as_ref() => Ok(()),
            (l, r) => Err(LangError::new(
                format!("`IN` needs t IN list<t>, found {l} and {r}"),
                span,
            )),
        },
    }
}

fn compile_call(
    expr: &Expr,
    path: &[String],
    args: &[Expr],
    env: &mut CompileEnv<'_>,
) -> Result<CompiledExpr, LangError> {
    let name = path.join(".");
    let Some(kind) = BuiltinKind::lookup(&name) else {
        return Err(LangError::new(
            format!("unknown function `{name}`"),
            expr.span,
        ));
    };
    if kind.needs_unit() && !env.select.unit_scoped() {
        return Err(LangError::new(
            format!(
                "`{name}` probes the current compute unit and is not available in the `{}` scope",
                env.select.as_str()
            ),
            expr.span,
        ));
    }

    // The labels.* family is lowered to interned id probes, so its
    // arguments must be string literals the compiler can intern now.
    match kind {
        BuiltinKind::LabelsHas | BuiltinKind::LabelsGet => {
            let [key] = args else {
                return Err(arity(&name, 1, args.len(), expr.span));
            };
            let key = literal_string(key, &name)?;
            let id = env.interner.key(key);
            let (ckind, ty) = if matches!(kind, BuiltinKind::LabelsHas) {
                (CKind::LabelHasKey(id), Type::Bool)
            } else {
                (CKind::LabelGet(id), Type::String)
            };
            return Ok(CompiledExpr {
                kind: ckind,
                span: expr.span,
                ty,
            });
        }
        BuiltinKind::LabelsIs => {
            let [key, value] = args else {
                return Err(arity(&name, 2, args.len(), expr.span));
            };
            let key = literal_string(key, &name)?;
            let value = literal_string(value, &name)?;
            let id = env.interner.pair(key, value);
            return Ok(CompiledExpr {
                kind: CKind::LabelHasPair(id),
                span: expr.span,
                ty: Type::Bool,
            });
        }
        BuiltinKind::PortsDeclared => {
            let [port, protocol] = args else {
                return Err(arity(&name, 2, args.len(), expr.span));
            };
            let port = expect_type(compile(port, env)?, &Type::Number, "`ports.declared`")?;
            let protocol = expect_type(compile(protocol, env)?, &Type::String, "`ports.declared`")?;
            return Ok(CompiledExpr {
                kind: CKind::PortDeclared {
                    port: Box::new(port),
                    protocol: Box::new(protocol),
                },
                span: expr.span,
                ty: Type::Bool,
            });
        }
        _ => {}
    }

    let compiled: Vec<CompiledExpr> = args
        .iter()
        .map(|arg| compile(arg, env))
        .collect::<Result<_, _>>()?;
    let ty = match kind {
        BuiltinKind::Len => {
            let [arg] = compiled.as_slice() else {
                return Err(arity(&name, 1, compiled.len(), expr.span));
            };
            match &arg.ty {
                Type::List(_) | Type::String => Type::Number,
                other => {
                    return Err(LangError::new(
                        format!("`core.len` takes a list or string, found {other}"),
                        arg.span,
                    ))
                }
            }
        }
        BuiltinKind::Contains => {
            let [hay, needle] = compiled.as_slice() else {
                return Err(arity(&name, 2, compiled.len(), expr.span));
            };
            match (&hay.ty, &needle.ty) {
                (Type::List(elem), n) if n == elem.as_ref() => Type::Bool,
                (Type::String, Type::String) => Type::Bool,
                (h, n) => {
                    return Err(LangError::new(
                        format!(
                        "`core.contains` needs (list<t>, t) or (string, string), found ({h}, {n})"
                    ),
                        expr.span,
                    ))
                }
            }
        }
        BuiltinKind::Str => {
            let [arg] = compiled.as_slice() else {
                return Err(arity(&name, 1, compiled.len(), expr.span));
            };
            match &arg.ty {
                Type::Bool | Type::Number | Type::String => Type::String,
                other => {
                    return Err(LangError::new(
                        format!("`core.str` takes a scalar, found {other}"),
                        arg.span,
                    ))
                }
            }
        }
        BuiltinKind::Concat => {
            if compiled.is_empty() {
                return Err(LangError::new(
                    "`core.concat` needs at least one argument",
                    expr.span,
                ));
            }
            for arg in &compiled {
                if arg.ty != Type::String {
                    return Err(LangError::new(
                        format!("`core.concat` takes strings, found {}", arg.ty),
                        arg.span,
                    ));
                }
            }
            Type::String
        }
        BuiltinKind::Ternary => {
            let [cond, then, alt] = compiled.as_slice() else {
                return Err(arity(&name, 3, compiled.len(), expr.span));
            };
            if cond.ty != Type::Bool {
                return Err(LangError::new(
                    format!("`core.ternary` condition must be bool, found {}", cond.ty),
                    cond.span,
                ));
            }
            if then.ty != alt.ty {
                return Err(LangError::new(
                    format!(
                        "`core.ternary` branches must share one type, found {} and {}",
                        then.ty, alt.ty
                    ),
                    expr.span,
                ));
            }
            then.ty.clone()
        }
        BuiltinKind::Upper | BuiltinKind::Lower => {
            let [arg] = compiled.as_slice() else {
                return Err(arity(&name, 1, compiled.len(), expr.span));
            };
            if arg.ty != Type::String {
                return Err(LangError::new(
                    format!("`{name}` takes a string, found {}", arg.ty),
                    arg.span,
                ));
            }
            Type::String
        }
        BuiltinKind::PortsDeclared
        | BuiltinKind::LabelsHas
        | BuiltinKind::LabelsIs
        | BuiltinKind::LabelsGet => unreachable!("lowered above"),
    };
    Ok(CompiledExpr {
        kind: CKind::Call {
            kind,
            args: compiled,
        },
        span: expr.span,
        ty,
    })
}

fn expect_type(expr: CompiledExpr, want: &Type, ctx: &str) -> Result<CompiledExpr, LangError> {
    if expr.ty != *want {
        return Err(LangError::new(
            format!("{ctx} expects {want}, found {}", expr.ty),
            expr.span,
        ));
    }
    Ok(expr)
}

fn arity(name: &str, want: usize, got: usize, span: Span) -> LangError {
    LangError::new(
        format!("`{name}` takes {want} argument(s), found {got}"),
        span,
    )
}

fn literal_string<'e>(expr: &'e Expr, fn_name: &str) -> Result<&'e str, LangError> {
    match &expr.kind {
        ExprKind::String(s) => Ok(s),
        _ => Err(LangError::new(
            format!(
                "`{fn_name}` resolves label ids at compile time, so its arguments must be \
                 string literals"
            ),
            expr.span,
        )),
    }
}
