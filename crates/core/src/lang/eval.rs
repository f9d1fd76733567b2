//! Deterministic evaluator over the compiled AST, with an optional
//! atom-level trace.
//!
//! Evaluation is infallible by construction: the type-check pass
//! ([`super::compile`]) guarantees operand types, attribute keys belong to
//! the rule's scope, and label probes carry pre-interned ids. The
//! [`EntityResolver`] is queried by key and integer id only — no string
//! lookup happens at eval time.

use super::compile::{CKind, CompiledExpr};
use super::resolve::EntityResolver;
use super::Comparator;
use std::fmt;
use std::sync::Arc;

/// A runtime value of the expression language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// Boolean.
    Bool(bool),
    /// Number (integral in practice; `f64` keeps literals simple).
    Number(f64),
    /// String (shared, so resolvers can hand out cheap clones).
    Str(Arc<str>),
    /// Homogeneous list.
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Convenience constructor for string values.
    pub(crate) fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True-ness; panics on non-bools (excluded by the type checker).
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => unreachable!("type checker admitted non-bool condition: {other:?}"),
        }
    }

    /// Renders the value the way message templates and traces print it:
    /// integral numbers without a decimal point, strings bare (unquoted).
    pub(crate) fn render(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                format!("{}", *n as i64)
            }
            Value::Number(n) => n.to_string(),
            Value::Str(s) => s.to_string(),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }
}

/// One atom of an evaluation trace: an attribute read, label probe,
/// function call, or comparison — the smallest units whose values explain a
/// verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAtom {
    /// The atom's source text.
    pub expr: String,
    /// Resolved inputs as `(source text, rendered value)` pairs — operands
    /// of a comparison, arguments of a call; empty for attribute reads.
    pub inputs: Vec<(String, String)>,
    /// The atom's rendered result.
    pub value: String,
}

impl fmt::Display for TraceAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.expr, self.value)?;
        for (src, val) in &self.inputs {
            write!(f, "\n    {src} = {val}")?;
        }
        Ok(())
    }
}

/// Evaluates a compiled expression. Deterministic: same entity, same
/// result, independent of thread count or iteration order.
pub(crate) fn evaluate(expr: &CompiledExpr, resolver: &EntityResolver<'_>) -> Value {
    eval(expr, resolver, "", None)
}

/// Evaluates and records an atom-level trace in evaluation order.
/// Short-circuited branches contribute no atoms — the trace is exactly what
/// the evaluator looked at, which is what makes it an explanation.
/// `source` must be the text the expression was compiled from (atom spans
/// slice it).
pub(crate) fn evaluate_with_trace(
    expr: &CompiledExpr,
    resolver: &EntityResolver<'_>,
    source: &str,
) -> (Value, Vec<TraceAtom>) {
    let mut atoms = Vec::new();
    let value = eval(expr, resolver, source, Some(&mut atoms));
    (value, atoms)
}

fn eval(
    expr: &CompiledExpr,
    resolver: &EntityResolver<'_>,
    src: &str,
    mut trace: Option<&mut Vec<TraceAtom>>,
) -> Value {
    match &expr.kind {
        CKind::Bool(b) => Value::Bool(*b),
        CKind::Number(n) => Value::Number(*n),
        CKind::Str(s) => Value::Str(Arc::clone(s)),
        CKind::List(items) => Value::List(Arc::new(
            items
                .iter()
                .map(|item| eval(item, resolver, src, trace.as_deref_mut()))
                .collect(),
        )),
        CKind::Attr(key) => {
            let value = resolver.attr(*key);
            record(&mut trace, expr, src, Vec::new(), &value);
            value
        }
        CKind::LabelHasKey(id) => {
            let value = Value::Bool(resolver.label_key_present(*id));
            record(&mut trace, expr, src, Vec::new(), &value);
            value
        }
        CKind::LabelHasPair(id) => {
            let value = Value::Bool(resolver.label_pair_present(*id));
            record(&mut trace, expr, src, Vec::new(), &value);
            value
        }
        CKind::LabelGet(id) => {
            let value = Value::str(resolver.label_value(*id).unwrap_or(""));
            record(&mut trace, expr, src, Vec::new(), &value);
            value
        }
        CKind::PortDeclared { port, protocol } => {
            let port_v = eval(port, resolver, src, trace.as_deref_mut());
            let proto_v = eval(protocol, resolver, src, trace.as_deref_mut());
            let Value::Number(p) = port_v else {
                unreachable!("type checker admitted non-number port")
            };
            let Value::Str(proto) = &proto_v else {
                unreachable!("type checker admitted non-string protocol")
            };
            let value = Value::Bool(resolver.port_declared(p as u16, proto));
            let inputs = vec![
                (port.span.slice(src).to_string(), Value::Number(p).render()),
                (protocol.span.slice(src).to_string(), proto_v.render()),
            ];
            record(&mut trace, expr, src, inputs, &value);
            value
        }
        CKind::Call { kind, args, .. } => {
            let arg_values: Vec<Value> = match kind.lazy_arity() {
                // Lazy builtins (core.ternary) evaluate the selector first
                // and only the taken branch — the trace shows exactly the
                // branch that produced the value.
                Some(_) => {
                    let cond = eval(&args[0], resolver, src, trace.as_deref_mut());
                    let taken = if cond.truthy() { &args[1] } else { &args[2] };
                    let picked = eval(taken, resolver, src, trace.as_deref_mut());
                    return {
                        let inputs = vec![
                            (args[0].span.slice(src).to_string(), cond.render()),
                            (taken.span.slice(src).to_string(), picked.render()),
                        ];
                        record(&mut trace, expr, src, inputs, &picked);
                        picked
                    };
                }
                None => args
                    .iter()
                    .map(|a| eval(a, resolver, src, trace.as_deref_mut()))
                    .collect(),
            };
            let value = kind.run(&arg_values);
            let inputs = args
                .iter()
                .zip(&arg_values)
                .map(|(a, v)| (a.span.slice(src).to_string(), v.render()))
                .collect();
            record(&mut trace, expr, src, inputs, &value);
            value
        }
        CKind::Cmp { op, lhs, rhs } => {
            let lv = eval(lhs, resolver, src, trace.as_deref_mut());
            let rv = eval(rhs, resolver, src, trace.as_deref_mut());
            let value = Value::Bool(compare(*op, &lv, &rv));
            let inputs = vec![
                (lhs.span.slice(src).to_string(), lv.render()),
                (rhs.span.slice(src).to_string(), rv.render()),
            ];
            record(&mut trace, expr, src, inputs, &value);
            value
        }
        CKind::And(lhs, rhs) => {
            let lv = eval(lhs, resolver, src, trace.as_deref_mut());
            if !lv.truthy() {
                return Value::Bool(false);
            }
            eval(rhs, resolver, src, trace)
        }
        CKind::Or(lhs, rhs) => {
            let lv = eval(lhs, resolver, src, trace.as_deref_mut());
            if lv.truthy() {
                return Value::Bool(true);
            }
            eval(rhs, resolver, src, trace)
        }
        CKind::Not(inner) => Value::Bool(!eval(inner, resolver, src, trace).truthy()),
    }
}

fn record(
    trace: &mut Option<&mut Vec<TraceAtom>>,
    expr: &CompiledExpr,
    src: &str,
    inputs: Vec<(String, String)>,
    value: &Value,
) {
    if let Some(atoms) = trace {
        atoms.push(TraceAtom {
            expr: expr.span.slice(src).to_string(),
            inputs,
            value: value.render(),
        });
    }
}

fn compare(op: Comparator, lhs: &Value, rhs: &Value) -> bool {
    match op {
        Comparator::Eq => lhs == rhs,
        Comparator::Ne => lhs != rhs,
        Comparator::Lt | Comparator::Le | Comparator::Gt | Comparator::Ge => {
            let (Value::Number(a), Value::Number(b)) = (lhs, rhs) else {
                unreachable!("type checker admitted non-number ordering")
            };
            match op {
                Comparator::Lt => a < b,
                Comparator::Le => a <= b,
                Comparator::Gt => a > b,
                Comparator::Ge => a >= b,
                _ => unreachable!(),
            }
        }
        Comparator::Contains => match (lhs, rhs) {
            (Value::List(items), needle) => items.iter().any(|v| v == needle),
            (Value::Str(hay), Value::Str(needle)) => hay.contains(needle.as_ref()),
            _ => unreachable!("type checker admitted bad CONTAINS operands"),
        },
        Comparator::In => match (lhs, rhs) {
            (needle, Value::List(items)) => items.iter().any(|v| v == needle),
            _ => unreachable!("type checker admitted bad IN operands"),
        },
    }
}
