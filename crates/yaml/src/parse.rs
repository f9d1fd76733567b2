//! Indentation-based recursive-descent parser for the supported YAML subset.

use crate::error::{Error, Result};
use crate::value::{Map, Value};

/// A logical source line after comment and blank stripping.
#[derive(Debug, Clone)]
struct Line<'a> {
    /// Column of the first content character (spaces only; tabs are errors).
    indent: usize,
    /// Content with indentation removed and trailing whitespace trimmed.
    content: &'a str,
    /// 1-based source line number for error reporting.
    number: usize,
}

/// Parses a single-document source. Fails if the stream holds more than one
/// non-empty document.
pub fn parse(src: &str) -> Result<Value> {
    let docs = parse_all(src)?;
    let n = docs.len();
    let mut docs = docs.into_iter();
    match (docs.next(), docs.next()) {
        (None, _) => Ok(Value::Null),
        (Some(doc), None) => Ok(doc),
        _ => Err(Error::new(1, format!("expected one document, found {n}"))),
    }
}

/// Parses a `---`-separated stream, skipping documents with no content.
pub fn parse_all(src: &str) -> Result<Vec<Value>> {
    let mut docs = Vec::new();
    for chunk in split_documents(src) {
        let lines = logical_lines(chunk.text, chunk.first_line)?;
        let Some(first) = lines.first() else {
            continue;
        };
        let mut p = Parser {
            lines: &lines,
            pos: 0,
            depth: 0,
        };
        let value = p.parse_node(first.indent)?;
        if let Some(extra) = p.peek() {
            return Err(Error::new(
                extra.number,
                format!("unexpected content `{}` after document root", extra.content),
            ));
        }
        docs.push(value);
    }
    Ok(docs)
}

struct DocChunk<'a> {
    text: &'a str,
    first_line: usize,
}

/// Splits on lines that begin a new document (`---`). The marker may carry a
/// trailing comment but no inline payload.
fn split_documents(src: &str) -> Vec<DocChunk<'_>> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut start_line = 1usize;
    let mut line_no = 0usize;
    let mut offset = 0usize;
    for line in src.split_inclusive('\n') {
        line_no += 1;
        let trimmed = line.trim_end();
        if trimmed == "---" || trimmed.starts_with("--- ") || trimmed.starts_with("---\t") {
            chunks.push(DocChunk {
                text: &src[start..offset],
                first_line: start_line,
            });
            start = offset + line.len();
            start_line = line_no + 1;
        }
        offset += line.len();
    }
    chunks.push(DocChunk {
        text: &src[start..],
        first_line: start_line,
    });
    chunks
}

/// Produces content lines: blanks and full-line comments removed, inline
/// comments stripped, indentation measured.
fn logical_lines(src: &str, first_line: usize) -> Result<Vec<Line<'_>>> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let number = first_line + i;
        if raw.contains('\t') && raw[..raw.len() - raw.trim_start().len()].contains('\t') {
            return Err(Error::new(
                number,
                "tab characters are not allowed in indentation",
            ));
        }
        let without_comment = strip_comment(raw);
        let trimmed_end = without_comment.trim_end();
        let indent = trimmed_end.len() - trimmed_end.trim_start().len();
        let content = trimmed_end.trim_start();
        if content.is_empty() {
            continue;
        }
        if content == "..." {
            break;
        }
        out.push(Line {
            indent,
            content,
            number,
        });
    }
    Ok(out)
}

/// Removes a trailing `# comment` that is outside quotes and preceded by
/// whitespace (or at the start of the content).
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            // Skip the escaped character inside double quotes so `\"` (and
            // `\\` before a real closing quote) track correctly.
            b'\\' if in_double => {
                i += 2;
                continue;
            }
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'#' if !in_single && !in_double => {
                let at_start = line[..i].trim().is_empty();
                let after_space = matches!(
                    i.checked_sub(1).and_then(|j| bytes.get(j)),
                    Some(b' ' | b'\t')
                );
                if at_start || after_space {
                    return &line[..i];
                }
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Nesting ceiling for the block parser. Recursion depth is bounded by the
/// source's line count, so a hostile megabyte of two-space indents would
/// otherwise overflow the stack; real manifests sit comfortably under this.
const MAX_BLOCK_DEPTH: usize = 128;

/// Nesting ceiling for one-line flow collections (`[[[[…`).
const MAX_FLOW_DEPTH: usize = 64;

struct Parser<'a, 'b> {
    lines: &'b [Line<'a>],
    pos: usize,
    /// Current recursion depth across `parse_node` / `parse_sequence`.
    depth: usize,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn peek(&self) -> Option<&'b Line<'a>> {
        self.lines.get(self.pos)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    /// Bumps the recursion depth, erroring out (instead of overflowing the
    /// stack) past [`MAX_BLOCK_DEPTH`].
    fn enter(&mut self, line: usize) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_BLOCK_DEPTH {
            return Err(Error::new(
                line,
                format!("nesting exceeds the supported depth of {MAX_BLOCK_DEPTH}"),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Parses the block node starting at the current line, which must sit at
    /// exactly `indent`.
    fn parse_node(&mut self, indent: usize) -> Result<Value> {
        let line = match self.peek() {
            Some(l) => l,
            None => return Ok(Value::Null),
        };
        if line.indent != indent {
            return Err(Error::new(
                line.number,
                format!("expected indentation {indent}, found {}", line.indent),
            ));
        }
        if line.content == "-" || line.content.starts_with("- ") {
            self.parse_sequence(indent)
        } else if split_key(line.content).is_some() {
            self.parse_mapping(indent)
        } else {
            // A bare scalar document (e.g. the output of a template that
            // rendered to a single value).
            self.bump();
            parse_scalar(line.content, line.number)
        }
    }

    fn parse_sequence(&mut self, indent: usize) -> Result<Value> {
        let Some(line) = self.peek() else {
            return Ok(Value::Seq(Vec::new()));
        };
        self.enter(line.number)?;
        let result = self.parse_sequence_inner(indent);
        self.leave();
        result
    }

    fn parse_sequence_inner(&mut self, indent: usize) -> Result<Value> {
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent != indent || !(line.content == "-" || line.content.starts_with("- ")) {
                break;
            }
            let number = line.number;
            let content = line.content;
            self.bump();
            let rest = content[1..].trim_start();
            let content_col = indent + (content.len() - rest.len());
            if rest.is_empty() {
                // Nested block on following lines, indented past the dash.
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        items.push(self.parse_node(child_indent)?);
                    }
                    _ => items.push(Value::Null),
                }
            } else if rest == "-" || rest.starts_with("- ") {
                return Err(Error::new(
                    number,
                    "nested inline sequences (`- - x`) are not supported; use block form",
                ));
            } else if let Some((key, val_text)) = split_key(rest) {
                let first = self.parse_entry_value(key, val_text, content_col, number)?;
                items.push(self.continue_mapping(first, content_col)?);
            } else {
                items.push(parse_scalar(rest, number)?);
            }
        }
        Ok(Value::Seq(items))
    }

    fn parse_mapping(&mut self, indent: usize) -> Result<Value> {
        let Some(line) = self.peek() else {
            return Ok(Value::Map(Map::new()));
        };
        self.enter(line.number)?;
        let result = self.parse_mapping_inner(indent);
        self.leave();
        result
    }

    fn parse_mapping_inner(&mut self, indent: usize) -> Result<Value> {
        let mut map = Map::new();
        while let Some(line) = self.peek() {
            if line.indent != indent {
                break;
            }
            let number = line.number;
            let content = line.content;
            if content == "-" || content.starts_with("- ") {
                break;
            }
            let Some((key, val_text)) = split_key(content) else {
                return Err(Error::new(
                    number,
                    format!("expected `key:`, found `{content}`"),
                ));
            };
            self.bump();
            let (k, v) = self.parse_entry_value(key, val_text, indent, number)?;
            if map.contains_key(&k) {
                return Err(Error::new(number, format!("duplicate mapping key `{k}`")));
            }
            map.insert(k, v);
        }
        Ok(Value::Map(map))
    }

    /// After the first `key: value` of a sequence-item mapping, keeps
    /// consuming sibling keys that sit at the content column.
    fn continue_mapping(&mut self, first: (String, Value), indent: usize) -> Result<Value> {
        let mut map = Map::new();
        map.insert(first.0, first.1);
        while let Some(line) = self.peek() {
            if line.indent != indent || line.content == "-" || line.content.starts_with("- ") {
                break;
            }
            let number = line.number;
            let Some((key, val_text)) = split_key(line.content) else {
                break;
            };
            self.bump();
            let (k, v) = self.parse_entry_value(key, val_text, indent, number)?;
            if map.contains_key(&k) {
                return Err(Error::new(number, format!("duplicate mapping key `{k}`")));
            }
            map.insert(k, v);
        }
        Ok(Value::Map(map))
    }

    /// Parses the value side of a `key:` entry whose key sits at `indent`.
    fn parse_entry_value(
        &mut self,
        key: &str,
        val_text: &str,
        indent: usize,
        number: usize,
    ) -> Result<(String, Value)> {
        let key = unquote_key(key, number)?;
        let val_text = val_text.trim();
        let value = if val_text.is_empty() {
            match self.peek() {
                Some(next) if next.indent > indent => {
                    let child = next.indent;
                    self.parse_node(child)?
                }
                // A sequence may sit at the same indentation as its key;
                // Kubernetes manifests use this style pervasively.
                Some(next)
                    if next.indent == indent
                        && (next.content == "-" || next.content.starts_with("- ")) =>
                {
                    self.parse_sequence(indent)?
                }
                _ => Value::Null,
            }
        } else if let Some(style) = block_scalar_style(val_text) {
            self.parse_block_scalar(style, indent)?
        } else {
            parse_scalar(val_text, number)?
        };
        Ok((key, value))
    }

    fn parse_block_scalar(&mut self, style: BlockStyle, key_indent: usize) -> Result<Value> {
        let mut raw_lines: Vec<(usize, &str)> = Vec::new();
        // Block scalar content is every following line deeper than the key.
        // Blank lines were stripped by the tokenizer, which is acceptable for
        // the manifests this crate targets (no blank-line-preserving scalars).
        while let Some(line) = self.peek() {
            if line.indent <= key_indent {
                break;
            }
            raw_lines.push((line.indent, line.content));
            self.bump();
        }
        let Some(base) = raw_lines.iter().map(|(i, _)| *i).min() else {
            return Ok(Value::Str(String::new()));
        };
        let parts: Vec<String> = raw_lines
            .iter()
            .map(|(i, c)| format!("{}{}", " ".repeat(i - base), c))
            .collect();
        let joined = match style {
            BlockStyle::Literal { .. } => parts.join("\n"),
            BlockStyle::Folded { .. } => parts.join(" "),
        };
        let chomped = match style {
            BlockStyle::Literal { strip } | BlockStyle::Folded { strip } => {
                if strip {
                    joined
                } else {
                    format!("{joined}\n")
                }
            }
        };
        Ok(Value::Str(chomped))
    }
}

#[derive(Clone, Copy)]
enum BlockStyle {
    Literal { strip: bool },
    Folded { strip: bool },
}

fn block_scalar_style(s: &str) -> Option<BlockStyle> {
    match s {
        "|" | "|+" => Some(BlockStyle::Literal { strip: false }),
        "|-" => Some(BlockStyle::Literal { strip: true }),
        ">" | ">+" => Some(BlockStyle::Folded { strip: false }),
        ">-" => Some(BlockStyle::Folded { strip: true }),
        _ => None,
    }
}

/// Splits `key: value` at the first unquoted colon followed by a space or end
/// of line. Returns `(key, value_text)`.
fn split_key(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut depth = 0usize; // [..] / {..} nesting in a flow key (rare)
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            // Skip the escaped character inside double quotes so `\"` does
            // not desync the quote tracking.
            b'\\' if in_double => {
                i += 2;
                continue;
            }
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b':' if !in_single
                && !in_double
                && depth == 0
                && matches!(bytes.get(i + 1), None | Some(b' ')) =>
            {
                let key = s[..i].trim();
                if key.is_empty() {
                    return None;
                }
                return Some((key, &s[i + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn unquote_key(key: &str, line: usize) -> Result<String> {
    if (key.starts_with('"') && key.ends_with('"') && key.len() >= 2)
        || (key.starts_with('\'') && key.ends_with('\'') && key.len() >= 2)
    {
        parse_scalar(key, line).map(|v| v.render_scalar())
    } else {
        Ok(key.to_string())
    }
}

/// Parses a scalar or one-line flow collection.
pub(crate) fn parse_scalar(s: &str, line: usize) -> Result<Value> {
    let s = s.trim();
    if s.starts_with('[') || s.starts_with('{') {
        let mut fp = FlowParser {
            src: s.as_bytes(),
            pos: 0,
            line,
            depth: 0,
        };
        let v = fp.parse_value()?;
        fp.skip_ws();
        if fp.pos != fp.src.len() {
            return Err(Error::new(
                line,
                "trailing characters after flow collection",
            ));
        }
        return Ok(v);
    }
    if let Some(inner) = s.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(Error::new(line, "unterminated double-quoted scalar"));
        };
        return Ok(Value::Str(unescape_double(inner, line)?));
    }
    if let Some(inner) = s.strip_prefix('\'') {
        let Some(inner) = inner.strip_suffix('\'') else {
            return Err(Error::new(line, "unterminated single-quoted scalar"));
        };
        return Ok(Value::Str(inner.replace("''", "'")));
    }
    // Reference-style YAML constructs are deliberately out of scope: a chart
    // that uses them should get a typed ingest error, not a silently wrong
    // string value.
    match s.as_bytes().first() {
        Some(b'&') => return Err(Error::new(line, "YAML anchors (`&...`) are not supported")),
        Some(b'*') => return Err(Error::new(line, "YAML aliases (`*...`) are not supported")),
        Some(b'!') => return Err(Error::new(line, "YAML tags (`!...`) are not supported")),
        Some(b'%') => {
            return Err(Error::new(
                line,
                "YAML directives (`%...`) are not supported",
            ));
        }
        _ => {}
    }
    Ok(plain_scalar(s))
}

fn plain_scalar(s: &str) -> Value {
    match s {
        "" | "~" | "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        // Leading zeros (e.g. `0700`) stay strings, mirroring common k8s
        // practice for modes; plain `0` is an int.
        if !(s.len() > 1 && (s.starts_with('0') || s.starts_with("-0"))) {
            return Value::Int(i);
        }
    }
    if looks_like_float(s) {
        if let Ok(f) = s.parse::<f64>() {
            // Overlong digit runs overflow to infinity; keep those as strings
            // so every parsed float survives an emit/reparse round trip.
            if f.is_finite() {
                return Value::Float(f);
            }
        }
    }
    Value::Str(s.to_string())
}

fn looks_like_float(s: &str) -> bool {
    let body = s.strip_prefix('-').unwrap_or(s);
    !body.is_empty()
        && body.contains('.')
        && body.chars().all(|c| c.is_ascii_digit() || c == '.')
        && body.matches('.').count() == 1
        && !body.starts_with('.')
        && !body.ends_with('.')
}

fn unescape_double(s: &str, line: usize) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('0') => out.push('\0'),
            Some(other) => return Err(Error::new(line, format!("unsupported escape `\\{other}`"))),
            None => return Err(Error::new(line, "dangling backslash in scalar")),
        }
    }
    Ok(out)
}

/// One-line flow (`[...]` / `{...}`) parser with full nesting support.
struct FlowParser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    depth: usize,
}

impl<'a> FlowParser<'a> {
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth >= MAX_FLOW_DEPTH {
            return Err(Error::new(
                self.line,
                format!("flow nesting exceeds the supported depth of {MAX_FLOW_DEPTH}"),
            ));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'[') => self.nested(Self::parse_flow_seq),
            Some(b'{') => self.nested(Self::parse_flow_map),
            Some(_) => {
                let raw = self.take_scalar_text()?;
                parse_scalar(raw.trim(), self.line)
            }
            None => Err(Error::new(self.line, "unexpected end of flow collection")),
        }
    }

    fn parse_flow_seq(&mut self) -> Result<Value> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                Some(_) => {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {}
                        _ => {
                            return Err(Error::new(
                                self.line,
                                "expected `,` or `]` in flow sequence",
                            ))
                        }
                    }
                }
                None => return Err(Error::new(self.line, "unterminated flow sequence")),
            }
        }
    }

    fn parse_flow_map(&mut self) -> Result<Value> {
        self.pos += 1; // consume '{'
        let mut map = Map::new();
        loop {
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(map));
                }
                Some(_) => {
                    let key_text = self.take_until_colon()?;
                    let key = unquote_key(key_text.trim(), self.line)?;
                    let value = self.parse_value()?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {}
                        _ => {
                            return Err(Error::new(
                                self.line,
                                "expected `,` or `}` in flow mapping",
                            ))
                        }
                    }
                }
                None => return Err(Error::new(self.line, "unterminated flow mapping")),
            }
        }
    }

    fn take_until_colon(&mut self) -> Result<String> {
        let start = self.pos;
        let mut in_single = false;
        let mut in_double = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'\\' if in_double => {
                    self.pos = (self.pos + 2).min(self.src.len());
                    continue;
                }
                b'\'' if !in_double => in_single = !in_single,
                b'"' if !in_single => in_double = !in_double,
                b':' if !in_single && !in_double => {
                    let key = self.text_from(start)?;
                    self.pos += 1;
                    return Ok(key);
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(Error::new(self.line, "missing `:` in flow mapping entry"))
    }

    /// Consumes a scalar up to a flow delimiter, honouring quotes.
    fn take_scalar_text(&mut self) -> Result<String> {
        let start = self.pos;
        let mut in_single = false;
        let mut in_double = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'\\' if in_double => {
                    self.pos = (self.pos + 2).min(self.src.len());
                    continue;
                }
                b'\'' if !in_double => in_single = !in_single,
                b'"' if !in_single => in_double = !in_double,
                b',' | b']' | b'}' if !in_single && !in_double => break,
                _ => {}
            }
            self.pos += 1;
        }
        self.text_from(start)
    }

    /// The source text from `start` up to the cursor.
    fn text_from(&self, start: usize) -> Result<String> {
        self.src
            .get(start..self.pos)
            .map(|text| String::from_utf8_lossy(text).into_owned())
            .ok_or_else(|| Error::new(self.line, "flow scalar runs past the end of the line"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Value {
        parse(src).unwrap()
    }

    #[test]
    fn plain_scalars() {
        assert_eq!(p("a: 1").path(&["a"]), Some(&Value::Int(1)));
        assert_eq!(p("a: 1.5").path(&["a"]), Some(&Value::Float(1.5)));
        assert_eq!(p("a: true").path(&["a"]), Some(&Value::Bool(true)));
        assert_eq!(p("a: null").path(&["a"]), Some(&Value::Null));
        assert_eq!(p("a: ~").path(&["a"]), Some(&Value::Null));
        assert_eq!(
            p("a: hello world").path(&["a"]),
            Some(&Value::str("hello world"))
        );
    }

    #[test]
    fn leading_zero_stays_string() {
        assert_eq!(p("mode: 0700").path(&["mode"]), Some(&Value::str("0700")));
        assert_eq!(p("n: 0").path(&["n"]), Some(&Value::Int(0)));
    }

    #[test]
    fn quoted_scalars() {
        assert_eq!(p(r#"a: "x: y""#).path(&["a"]), Some(&Value::str("x: y")));
        assert_eq!(
            p(r#"a: "line\nbreak""#).path(&["a"]),
            Some(&Value::str("line\nbreak"))
        );
        assert_eq!(p("a: 'it''s'").path(&["a"]), Some(&Value::str("it's")));
        assert_eq!(p(r#"a: "8080""#).path(&["a"]), Some(&Value::str("8080")));
    }

    #[test]
    fn nested_maps() {
        let v = p("a:\n  b:\n    c: 3\n");
        assert_eq!(v.path(&["a", "b", "c"]), Some(&Value::Int(3)));
    }

    #[test]
    fn sequence_of_scalars() {
        let v = p("ports:\n  - 80\n  - 443\n");
        assert_eq!(
            v.path(&["ports"]).unwrap().as_seq().unwrap(),
            &[Value::Int(80), Value::Int(443)]
        );
    }

    #[test]
    fn sequence_at_key_indent() {
        // Kubernetes style: list items at the same column as the key.
        let v = p("ports:\n- 80\n- 443\n");
        assert_eq!(v.path(&["ports"]).unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn sequence_of_maps() {
        let v = p(
            "containers:\n  - name: web\n    image: nginx\n  - name: sidecar\n    image: envoy\n",
        );
        let seq = v.path(&["containers"]).unwrap().as_seq().unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].path(&["name"]), Some(&Value::str("web")));
        assert_eq!(seq[1].path(&["image"]), Some(&Value::str("envoy")));
    }

    #[test]
    fn seq_item_with_nested_block() {
        let v = p("rules:\n  - ports:\n      - port: 80\n    to:\n      - podSelector: {}\n");
        let rule = &v.path(&["rules"]).unwrap().as_seq().unwrap()[0];
        assert_eq!(rule.path(&["ports", "0", "port"]), Some(&Value::Int(80)));
        assert!(rule
            .path(&["to", "0", "podSelector"])
            .unwrap()
            .as_map()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn comments_and_blanks() {
        let v = p("# heading\na: 1\n\nb: 2 # trailing\n# tail\n");
        assert_eq!(v.path(&["a"]), Some(&Value::Int(1)));
        assert_eq!(v.path(&["b"]), Some(&Value::Int(2)));
    }

    #[test]
    fn hash_inside_scalar_is_kept() {
        assert_eq!(p("a: foo#bar").path(&["a"]), Some(&Value::str("foo#bar")));
        assert_eq!(
            p(r##"a: "# not a comment""##).path(&["a"]),
            Some(&Value::str("# not a comment"))
        );
    }

    #[test]
    fn flow_collections() {
        let v = p("a: [1, 2, three]\nb: {x: 1, y: [true]}\nc: []\nd: {}\n");
        assert_eq!(v.path(&["a", "2"]), Some(&Value::str("three")));
        assert_eq!(v.path(&["b", "y", "0"]), Some(&Value::Bool(true)));
        assert_eq!(v.path(&["c"]).unwrap().as_seq().unwrap().len(), 0);
        assert!(v.path(&["d"]).unwrap().as_map().unwrap().is_empty());
    }

    #[test]
    fn literal_block_scalar() {
        let v = p("script: |\n  line one\n  line two\nafter: 1\n");
        assert_eq!(
            v.path(&["script"]),
            Some(&Value::str("line one\nline two\n"))
        );
        assert_eq!(v.path(&["after"]), Some(&Value::Int(1)));
    }

    #[test]
    fn literal_block_scalar_stripped() {
        let v = p("script: |-\n  just this\n");
        assert_eq!(v.path(&["script"]), Some(&Value::str("just this")));
    }

    #[test]
    fn folded_block_scalar() {
        let v = p("msg: >-\n  folded into\n  one line\n");
        assert_eq!(v.path(&["msg"]), Some(&Value::str("folded into one line")));
    }

    #[test]
    fn empty_value_is_null() {
        let v = p("a:\nb: 1\n");
        assert_eq!(v.path(&["a"]), Some(&Value::Null));
    }

    #[test]
    fn dotted_and_slashed_keys() {
        let v = p("app.kubernetes.io/name: web\n");
        assert_eq!(
            v.path(&["app.kubernetes.io/name"]),
            Some(&Value::str("web"))
        );
    }

    #[test]
    fn quoted_keys() {
        let v = p("\"odd: key\": 1\n");
        assert_eq!(v.path(&["odd: key"]), Some(&Value::Int(1)));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn tab_indentation_rejected() {
        assert!(parse("a:\n\tb: 1\n").is_err());
    }

    #[test]
    fn bad_indentation_reported_with_line() {
        let err = parse("a:\n  b: 1\n c: 2\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn document_markers() {
        let docs = parse_all("---\na: 1\n---\n# only a comment\n---\nb: 2\n").unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn root_sequence() {
        let v = p("- a\n- b\n");
        assert_eq!(v.as_seq().unwrap().len(), 2);
    }

    #[test]
    fn colon_in_plain_value_kept() {
        let v = p("image: bitnami/flink:1.17\n");
        assert_eq!(v.path(&["image"]), Some(&Value::str("bitnami/flink:1.17")));
    }

    #[test]
    fn url_value() {
        let v = p("url: https://example.org/x?y=1\n");
        assert_eq!(
            v.path(&["url"]),
            Some(&Value::str("https://example.org/x?y=1"))
        );
    }

    #[test]
    fn negative_numbers() {
        assert_eq!(p("a: -3").path(&["a"]), Some(&Value::Int(-3)));
        assert_eq!(p("a: -3.5").path(&["a"]), Some(&Value::Float(-3.5)));
    }

    #[test]
    fn deeply_nested_pod_spec() {
        let v = p("\
spec:
  template:
    spec:
      hostNetwork: true
      containers:
        - name: exporter
          ports:
            - containerPort: 9100
              protocol: TCP
");
        assert_eq!(
            v.path(&["spec", "template", "spec", "hostNetwork"]),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            v.path(&[
                "spec",
                "template",
                "spec",
                "containers",
                "0",
                "ports",
                "0",
                "containerPort"
            ]),
            Some(&Value::Int(9100))
        );
    }
}
