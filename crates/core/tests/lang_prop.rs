//! Parser-robustness fuzzing for the rule expression language.
//!
//! Three generators stress the lex → parse → compile pipeline:
//!
//! 1. **Token soups** — random sequences of valid tokens, junk characters,
//!    and unterminated strings;
//! 2. **Mutated valid expressions** — every `when` expression from the
//!    built-in pack with characters deleted, inserted, duplicated, or
//!    replaced;
//! 3. **Mutated pack documents** — the whole built-in pack source with the
//!    same mutations applied, pushed through `RulePack::from_str`.
//!
//! The property is uniform: the pipeline must return `Ok` or a typed
//! [`LangError`] whose span carries 1-based line/column positions inside
//! the document — it must never panic. Case count follows `PROPTEST_CASES`
//! (default 64, CI runs 256).

use ij_core::lang::{parse, LangError};
use ij_core::{RulePack, RuleRegistry};
use proptest::prelude::*;
use std::str::FromStr;

/// Every expression the built-in pack compiles, plus a few synthetic ones
/// exercising lists, calls, and nesting — the seed corpus for mutation.
fn seed_expressions() -> Vec<String> {
    let mut seeds: Vec<String> = RulePack::builtin()
        .rules()
        .map(|r| r.expression().to_string())
        .collect();
    seeds.extend(
        [
            "socket.port IN [80, 443, 8080] && !unit.host_network",
            "core.contains(core.lower(unit.name), \"db\") || labels.is(\"tier\", \"backend\")",
            "core.len(core.concat(unit.name, \"/\", unit.namespace)) > 3",
            "(unit.declared_count >= 1) == !unit.has_dynamic_ports",
            "core.ternary(labels.has(\"app\"), labels.get(\"app\"), unit.name) != \"\"",
        ]
        .map(String::from),
    );
    seeds
}

/// A fragment soup alphabet: legal tokens, near-miss junk, and pathological
/// sequences (unterminated strings, lone `&`, bad escapes, deep nesting).
fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(
            [
                "unit.name",
                "socket.port",
                "app.unit_count",
                "labels.has",
                "core.ternary",
                "ports.declared",
                "CONTAINS",
                "IN",
                "true",
                "false",
                "&&",
                "||",
                "!",
                "==",
                "!=",
                "<=",
                ">=",
                "<",
                ">",
                "(",
                ")",
                "[",
                "]",
                ",",
                "\"text\"",
                "42",
                "3.5",
                "0",
            ]
            .map(String::from)
            .to_vec()
        ),
        prop::sample::select(
            [
                "\"unterminated",
                "\"bad\\q\"",
                "&",
                "|",
                "=",
                "@",
                "#",
                "$",
                "~",
                "..",
                ".port",
                "unit.",
                "((((((((((((((((((((((((((((((((((",
                "]]]]",
                "\u{0}",
                "héllo",
                "日本語",
                "9999999999999999999999999",
            ]
            .map(String::from)
            .to_vec()
        ),
    ]
}

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_fragment(), 0..24).prop_map(|frags| frags.join(" "))
}

/// One random point mutation: delete, insert, duplicate a slice, or
/// replace a character. Indexes are snapped to char boundaries so the
/// mutant is always valid UTF-8 (the parser takes `&str`).
fn mutate(src: &str, op: u8, at: usize, ins: char) -> String {
    let mut out = String::from(src);
    if out.is_empty() {
        out.push(ins);
        return out;
    }
    let mut idx = at % (out.len() + 1);
    while idx < out.len() && !out.is_char_boundary(idx) {
        idx += 1;
    }
    match op % 4 {
        0 => {
            if idx < out.len() {
                out.remove(idx);
            }
        }
        1 => out.insert(idx, ins),
        2 => {
            let tail: String = out[idx..].chars().take(6).collect();
            out.insert_str(idx, &tail);
        }
        _ => {
            if idx < out.len() {
                out.remove(idx);
                out.insert(idx, ins);
            }
        }
    }
    out
}

fn arb_mutation_char() -> impl Strategy<Value = char> {
    prop::sample::select(vec![
        '!', '&', '|', '(', ')', '[', ']', '"', '.', ',', '=', '<', '>', ' ', '\n', '\t', 'x', '7',
        '\\', '\u{0}', 'é',
    ])
}

/// Spans must point inside the document: 1-based, with the line index no
/// larger than the number of lines in the source.
fn assert_span_sane(err: &LangError, src: &str, what: &str) {
    let lines = src.lines().count().max(1) as u32;
    assert!(
        err.span.line >= 1 && err.span.line <= lines + 1,
        "{what}: error line {} outside document of {lines} lines\nsource: {src:?}\nerror: {err}",
        err.span.line,
    );
    assert!(
        err.span.column >= 1,
        "{what}: zero column in error {err}\nsource: {src:?}",
    );
    assert!(!err.message.is_empty(), "{what}: empty error message");
}

/// Wraps a bare expression into a minimal pack document so mutated
/// expressions also cover the type checker, not just the parser.
fn pack_with_when(expr: &str) -> String {
    format!(
        "rule fuzz\n  class = M7\n  select = socket\n  evidence = runtime\n  \
         when = {expr}\n  message = fired\nend\n"
    )
}

proptest! {
    /// Random token soups: parse never panics, and failures are
    /// positioned typed errors.
    #[test]
    fn token_soup_never_panics(soup in arb_soup()) {
        if let Err(err) = parse(&soup) {
            assert_span_sane(&err, &soup, "parse");
        }
    }

    /// Valid expressions with one to four point mutations: the full
    /// parse → type-check pipeline returns `Ok` or a positioned error.
    #[test]
    fn mutated_expressions_never_panic(
        seed_idx in 0usize..13,
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), arb_mutation_char()), 1..5),
    ) {
        let seeds = seed_expressions();
        let mut expr = seeds[seed_idx % seeds.len()].clone();
        for (op, at, ins) in ops {
            expr = mutate(&expr, op, at as usize, ins);
        }
        if let Err(err) = parse(&expr) {
            assert_span_sane(&err, &expr, "parse");
        }
        let doc = pack_with_when(&expr);
        if let Err(err) = RulePack::from_str(&doc) {
            assert_span_sane(&err, &doc, "pack compile");
        }
    }

    /// The whole built-in pack document, mutated: `RulePack::from_str` (and
    /// registration of whatever survives) never panics.
    #[test]
    fn mutated_pack_documents_never_panic(
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), arb_mutation_char()), 1..8),
    ) {
        let mut doc = ij_core::lang::BUILTIN_PACK_SOURCE.to_string();
        for (op, at, ins) in ops {
            doc = mutate(&doc, op, at as usize, ins);
        }
        match RulePack::from_str(&doc) {
            Ok(pack) => {
                // A surviving mutant must still register cleanly or fail
                // with the typed unknown-rule error — never panic.
                let mut registry = RuleRegistry::standard();
                let _ = pack.register_into(&mut registry);
            }
            Err(err) => assert_span_sane(&err, &doc, "pack load"),
        }
    }
}
