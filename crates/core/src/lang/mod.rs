//! # The auditable rule expression language
//!
//! A small, typed expression language that makes the analyzer's rules
//! *data*: parse → typed AST → compiled evaluator, with every name resolved
//! at load time. The pipeline:
//!
//! 1. **Lex/parse** ([`parse`]): hand-rolled recursive descent over a
//!    C-like grammar — `!` binds tighter than comparisons, then `&&`, then
//!    `||`; comparisons don't chain. Every error carries a line/column
//!    [`Span`].
//!
//!    ```text
//!    expr   := or
//!    or     := and ("||" and)*
//!    and    := cmp ("&&" cmp)*
//!    cmp    := unary (("==" | "!=" | "<" | "<=" | ">" | ">=" |
//!                      "CONTAINS" | "IN") unary)?
//!    unary  := "!" unary | primary
//!    primary:= literal | list | path | path "(" args ")" | "(" expr ")"
//!    ```
//!
//! 2. **Type-check/compile** (`compile`): attribute paths resolve through
//!    the selection scope's attribute tables to the key the evaluator
//!    reads, `labels.*` literals intern to [`KeyId`](ij_model::KeyId)/
//!    [`LabelId`](ij_model::LabelId) probes, and builtin names resolve
//!    through one static table. What survives cannot fail at run time.
//!
//! 3. **Evaluate** (`evaluate` / `evaluate_with_trace`): deterministic,
//!    infallible, and driven by the entity resolver, which answers reads by
//!    attribute key and integer id only; no string lookup happens per
//!    entity. The traced variant records one [`TraceAtom`] per attribute
//!    read, label/port probe, call, and comparison, in evaluation order;
//!    short-circuited branches leave no atoms, so the trace *is* the
//!    explanation of the verdict.
//!
//! [`RulePack`] layers a file format on top (rules + `disable` directives)
//! and compiles into registry entries; the built-in pack
//! ([`RulePack::builtin`]) re-expresses M1, M2, the M5 family, M6, and M7,
//! and is property-tested byte-identical to the native rules.

mod ast;
mod builtins;
mod compile;
mod eval;
mod lex;
mod pack;
mod resolve;

pub use ast::{parse, Comparator, Expr, ExprKind};
pub use eval::TraceAtom;
pub use lex::{LangError, Span};
pub use pack::{CompiledRule, RulePack, BUILTIN_PACK_SOURCE};
pub use resolve::Select;
