//! Canonical block-style emitter.
//!
//! The emitter produces two-space-indented block YAML that the parser in this
//! crate round-trips exactly. Scalars are quoted only when a plain rendering
//! would re-parse as a different value (numbers, booleans, null, special
//! characters), which keeps emitted manifests close to hand-written ones.

use crate::value::{write_float, Map, Value};

/// Serializes a value as a block-style YAML document (with trailing newline).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    to_string_into(value, &mut out);
    out
}

/// Serializes into a caller-provided buffer, clearing it first. Produces
/// exactly the bytes of [`to_string`].
fn to_string_into(value: &Value, out: &mut String) {
    out.clear();
    match value {
        Value::Map(m) => emit_map(out, m, 0),
        Value::Seq(s) => emit_seq(out, s, 0),
        scalar => {
            emit_scalar(out, scalar);
            out.push('\n');
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_map(out: &mut String, map: &Map, depth: usize) {
    if map.is_empty() {
        indent(out, depth);
        out.push_str("{}\n");
        return;
    }
    for (k, v) in map.iter() {
        indent(out, depth);
        quote_key(out, k);
        out.push(':');
        emit_entry_value(out, v, depth);
    }
}

fn emit_seq(out: &mut String, seq: &[Value], depth: usize) {
    if seq.is_empty() {
        indent(out, depth);
        out.push_str("[]\n");
        return;
    }
    for item in seq {
        indent(out, depth);
        out.push('-');
        match item {
            Value::Map(m) if !m.is_empty() => {
                // `- key: value` inline first entry, siblings below.
                for (i, (k, v)) in m.iter().enumerate() {
                    if i == 0 {
                        out.push(' ');
                    } else {
                        indent(out, depth + 1);
                    }
                    quote_key(out, k);
                    out.push(':');
                    emit_entry_value(out, v, depth + 1);
                }
            }
            Value::Seq(inner) if !inner.is_empty() => {
                out.push('\n');
                emit_seq(out, inner, depth + 1);
            }
            other => {
                out.push(' ');
                emit_scalar(out, other);
                out.push('\n');
            }
        }
    }
}

/// Emits the value side of `key:`. Nested collections go on following lines.
fn emit_entry_value(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Map(m) if !m.is_empty() => {
            out.push('\n');
            emit_map(out, m, depth + 1);
        }
        Value::Seq(s) if !s.is_empty() => {
            out.push('\n');
            emit_seq(out, s, depth + 1);
        }
        other => {
            out.push(' ');
            emit_scalar(out, other);
            out.push('\n');
        }
    }
}

/// Emits a value inline. Collections reach here only when empty (callers
/// emit non-empty ones in block form) and print in flow form.
fn emit_scalar(out: &mut String, v: &Value) {
    use std::fmt::Write as _;
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            let start = out.len();
            write_float(out, *f);
            // Integral floats past the `{f:.1}` range in `write_float` print
            // without a fraction; restore the dot so they re-parse as floats.
            if f.is_finite() && !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        Value::Str(s) => quote_str(out, s),
        Value::Map(_) => out.push_str("{}"),
        Value::Seq(_) => out.push_str("[]"),
    }
}

fn quote_key(out: &mut String, k: &str) {
    // The parser trims keys, tracks quotes and flow brackets while hunting
    // for the separating colon, and strips ` #` comments; any key the reader
    // would mangle under those rules must be emitted double-quoted.
    let plain_ok = !k.is_empty()
        && k.trim() == k
        && !k.contains(": ")
        && !k.ends_with(':')
        && !k.starts_with(['-', '#'])
        && !k.contains(['"', '\'', '[', ']', '{', '}', '\n', '\r', '\t'])
        && !k.contains(" #");
    if plain_ok {
        out.push_str(k);
    } else {
        quote_double(out, k);
    }
}

fn quote_str(out: &mut String, s: &str) {
    if needs_quoting(s) {
        quote_double(out, s);
    } else {
        out.push_str(s);
    }
}

fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Would re-parse as a non-string scalar, or end the document (`...`).
    if matches!(
        s,
        "~" | "null"
            | "Null"
            | "NULL"
            | "true"
            | "True"
            | "TRUE"
            | "false"
            | "False"
            | "FALSE"
            | "..."
    ) {
        return true;
    }
    if s.parse::<i64>().is_ok() || s.parse::<f64>().is_ok() {
        return true;
    }
    // Structural characters or whitespace that would confuse block parsing.
    if s.starts_with([
        '-', '#', '[', ']', '{', '}', '"', '\'', '>', '|', '&', '*', '!', '%',
    ]) || s.starts_with(char::is_whitespace)
        || s.ends_with(char::is_whitespace)
        || s.contains(": ")
        || s.ends_with(':')
        || s.contains(" #")
        || s.contains(['\n', '\r', '\t'])
    {
        return true;
    }
    false
}

fn quote_double(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{parse, to_string, Map, Value};

    fn round_trip(v: &Value) {
        let text = to_string(v);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(&back, v, "round trip mismatch for:\n{text}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-12),
            Value::Float(3.25),
            Value::str("plain"),
            Value::str("needs: quoting"),
            Value::str("8080"),
            Value::str("true"),
            Value::str(""),
            Value::str("- dash"),
            Value::str("multi\nline"),
            Value::str("tricky \"quotes\" and \\slashes\\"),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut labels = Map::new();
        labels.insert("app.kubernetes.io/name", Value::str("thanos-query"));
        labels.insert("version", Value::str("0.32.1"));
        let mut meta = Map::new();
        meta.insert("name", Value::str("thanos"));
        meta.insert("labels", Value::Map(labels));
        let mut port = Map::new();
        port.insert("containerPort", Value::Int(10901));
        port.insert("protocol", Value::str("TCP"));
        let mut container = Map::new();
        container.insert("name", Value::str("query"));
        container.insert("ports", Value::Seq(vec![Value::Map(port)]));
        let mut root = Map::new();
        root.insert("metadata", Value::Map(meta));
        root.insert("containers", Value::Seq(vec![Value::Map(container)]));
        root.insert("empty_map", Value::Map(Map::new()));
        root.insert("empty_seq", Value::Seq(vec![]));
        root.insert(
            "nested_seq",
            Value::Seq(vec![Value::Seq(vec![Value::Int(1)])]),
        );
        round_trip(&Value::Map(root));
    }

    #[test]
    fn to_string_into_reuses_dirty_buffers() {
        let mut doc = Map::new();
        doc.insert("kind", Value::str("Service"));
        doc.insert("ports", Value::Seq(vec![Value::Int(80), Value::Int(443)]));
        let doc = Value::Map(doc);
        let mut buf = String::from("stale bytes from a previous, longer document\n---\n");
        super::to_string_into(&doc, &mut buf);
        assert_eq!(buf, to_string(&doc));
    }

    #[test]
    fn empty_collections_inline() {
        let mut m = Map::new();
        m.insert("podSelector", Value::Map(Map::new()));
        let text = to_string(&Value::Map(m));
        assert_eq!(text, "podSelector: {}\n");
    }
}
