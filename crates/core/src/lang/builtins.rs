//! The builtins: namespaced pure functions callable from rule expressions.
//!
//! Every builtin is deterministic — same arguments, same value — which is
//! what keeps whole-rule evaluation reproducible. Three families exist:
//!
//! * `core.*` — generic value helpers (`len`, `contains`, `str`, `concat`,
//!   `ternary`, `upper`, `lower`);
//! * `ports.*` / `labels.*` — domain probes answered by the
//!   [`EntityResolver`](super::resolve::EntityResolver). The `labels.*`
//!   calls never reach [`BuiltinKind::run`]: the compiler requires literal
//!   arguments and lowers them to interned [`KeyId`](ij_model::KeyId)/
//!   [`LabelId`](ij_model::LabelId) probes.

use super::eval::Value;
use std::sync::Arc;

/// The semantics of one builtin. The compiler matches on this to type-check
/// calls (several `core.*` builtins are polymorphic); the evaluator matches
/// on it to execute.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BuiltinKind {
    /// `core.len(list | string) -> number`
    Len,
    /// `core.contains(list, elem) -> bool`, `core.contains(string, string) -> bool`
    Contains,
    /// `core.str(bool | number | string) -> string`
    Str,
    /// `core.concat(string, string, ...) -> string`
    Concat,
    /// `core.ternary(bool, a, a) -> a` — lazy: only the taken branch runs.
    Ternary,
    /// `core.upper(string) -> string`
    Upper,
    /// `core.lower(string) -> string`
    Lower,
    /// `ports.declared(number, string) -> bool` — current unit's declared
    /// ports (resolver probe; only valid in unit-scoped selections).
    PortsDeclared,
    /// `labels.has("key") -> bool` — compiled to a `KeyId` probe.
    LabelsHas,
    /// `labels.is("key", "value") -> bool` — compiled to a `LabelId` probe.
    LabelsIs,
    /// `labels.get("key") -> string` (empty string when absent) — compiled
    /// to a `KeyId` probe.
    LabelsGet,
}

/// Every builtin by its dotted name, as `docs/RULES.md` documents them.
pub(super) const BUILTINS: &[(&str, BuiltinKind)] = &[
    ("core.len", BuiltinKind::Len),
    ("core.contains", BuiltinKind::Contains),
    ("core.str", BuiltinKind::Str),
    ("core.concat", BuiltinKind::Concat),
    ("core.ternary", BuiltinKind::Ternary),
    ("core.upper", BuiltinKind::Upper),
    ("core.lower", BuiltinKind::Lower),
    ("ports.declared", BuiltinKind::PortsDeclared),
    ("labels.has", BuiltinKind::LabelsHas),
    ("labels.is", BuiltinKind::LabelsIs),
    ("labels.get", BuiltinKind::LabelsGet),
];

impl BuiltinKind {
    /// Resolves a dotted builtin name.
    pub(crate) fn lookup(name: &str) -> Option<BuiltinKind> {
        BUILTINS
            .iter()
            .find(|(builtin, _)| *builtin == name)
            .map(|(_, kind)| *kind)
    }

    /// `Some(arity)` when the builtin evaluates its arguments lazily
    /// (only `core.ternary` today: condition first, then one branch).
    pub(crate) fn lazy_arity(&self) -> Option<usize> {
        match self {
            BuiltinKind::Ternary => Some(3),
            _ => None,
        }
    }

    /// True when the builtin probes the current compute unit and therefore
    /// only type-checks in unit-scoped selections.
    pub(crate) fn needs_unit(&self) -> bool {
        matches!(
            self,
            BuiltinKind::PortsDeclared
                | BuiltinKind::LabelsHas
                | BuiltinKind::LabelsIs
                | BuiltinKind::LabelsGet
        )
    }

    /// Executes an eager builtin on type-checked arguments. The resolver
    /// probes (`ports.*`, `labels.*`) and the lazy `core.ternary` are
    /// handled by the evaluator before reaching here.
    pub(crate) fn run(&self, args: &[Value]) -> Value {
        match self {
            BuiltinKind::Len => match &args[0] {
                Value::List(items) => Value::Number(items.len() as f64),
                Value::Str(s) => Value::Number(s.chars().count() as f64),
                other => unreachable!("type checker admitted core.len({other:?})"),
            },
            BuiltinKind::Contains => match (&args[0], &args[1]) {
                (Value::List(items), needle) => Value::Bool(items.iter().any(|v| v == needle)),
                (Value::Str(hay), Value::Str(needle)) => Value::Bool(hay.contains(needle.as_ref())),
                other => unreachable!("type checker admitted core.contains{other:?}"),
            },
            BuiltinKind::Str => Value::str(args[0].render()),
            BuiltinKind::Concat => {
                let mut out = String::new();
                for arg in args {
                    match arg {
                        Value::Str(s) => out.push_str(s),
                        other => unreachable!("type checker admitted core.concat({other:?})"),
                    }
                }
                Value::Str(Arc::from(out))
            }
            BuiltinKind::Upper => match &args[0] {
                Value::Str(s) => Value::str(s.to_uppercase()),
                other => unreachable!("type checker admitted core.upper({other:?})"),
            },
            BuiltinKind::Lower => match &args[0] {
                Value::Str(s) => Value::str(s.to_lowercase()),
                other => unreachable!("type checker admitted core.lower({other:?})"),
            },
            BuiltinKind::Ternary
            | BuiltinKind::PortsDeclared
            | BuiltinKind::LabelsHas
            | BuiltinKind::LabelsIs
            | BuiltinKind::LabelsGet => {
                unreachable!("handled before dispatch: {self:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_builtins_compute() {
        assert_eq!(
            BuiltinKind::Len.run(&[Value::str("héllo")]),
            Value::Number(5.0)
        );
        assert_eq!(
            BuiltinKind::Concat.run(&[Value::str("a/"), Value::str("b")]),
            Value::str("a/b")
        );
        assert_eq!(
            BuiltinKind::Str.run(&[Value::Number(8080.0)]),
            Value::str("8080")
        );
        assert_eq!(
            BuiltinKind::Upper.run(&[Value::str("tcp")]),
            Value::str("TCP")
        );
        let list = Value::List(Arc::new(vec![Value::Number(80.0), Value::Number(443.0)]));
        assert_eq!(
            BuiltinKind::Contains.run(&[list, Value::Number(443.0)]),
            Value::Bool(true)
        );
    }
}
