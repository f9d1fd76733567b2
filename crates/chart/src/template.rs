//! The Helm-compatible template language: lexer, parser, and evaluator.
//!
//! Supported actions:
//!
//! * `{{ PIPELINE }}` — interpolate a value
//! * `{{ if P }} … {{ else if P }} … {{ else }} … {{ end }}`
//! * `{{ range P }} … {{ end }}` — iterate a sequence (dot becomes the item)
//! * `{{ with P }} … {{ end }}` — re-scope dot, skipping the body when falsy
//!
//! Pipelines chain commands with `|`; the piped value is appended as the
//! *last* argument of the next command, exactly like Helm. Paths are rooted
//! at the current dot (`.Values.x.y`) or the template root (`$.Values.x`).
//! `{{-` / `-}}` trim adjacent whitespace.
//!
//! Named templates are supported: `{{ define "name" }}…{{ end }}` registers
//! a partial (typically in a `_helpers.tpl`), `{{ include "name" CTX }}` is
//! a function returning the rendered partial as a string (pipe it into
//! `nindent`), and `{{ template "name" CTX }}` splices it directly. A chart
//! shares the partials defined in *any* of its template files.

use crate::error::{Error, Result};
use ij_yaml::{Map, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Builds the root dot value (`.Values` / `.Release` / `.Chart`) for a
/// render, taking ownership of the merged values tree so the chart render
/// path pays exactly one values clone per chart level per render (the seed
/// cloned the full tree once per template file).
pub(crate) fn build_root(
    values: Value,
    release_name: &str,
    release_namespace: &str,
    chart_name: &str,
    chart_version: &str,
) -> Value {
    // Fixed distinct keys: append without `insert`'s duplicate scan.
    let mut release = Map::with_capacity(2);
    release.push_unchecked("Name", Value::str(release_name));
    release.push_unchecked("Namespace", Value::str(release_namespace));
    let mut chart = Map::with_capacity(2);
    chart.push_unchecked("Name", Value::str(chart_name));
    chart.push_unchecked("Version", Value::str(chart_version));
    let mut root = Map::with_capacity(3);
    root.push_unchecked("Values", values);
    root.push_unchecked("Release", Value::Map(release));
    root.push_unchecked("Chart", Value::Map(chart));
    Value::Map(root)
}

/// A parsed template file: its body plus any named partials it defines.
#[derive(Debug, Clone)]
pub(crate) struct ParsedTemplate {
    pub(crate) nodes: Vec<Node>,
    pub(crate) defines: HashMap<String, Vec<Node>>,
}

/// Parses a template file without rendering it.
pub(crate) fn parse_template(name: &str, source: &str) -> Result<ParsedTemplate> {
    let segments = lex(name, source)?;
    let mut parser = NodeParser {
        name,
        segments: &segments,
        pos: 0,
        defines: HashMap::new(),
    };
    let nodes = parser.parse_block(&[])?;
    if parser.pos != segments.len() {
        return Err(template_err(
            name,
            0,
            "unexpected `end` without an open block",
        ));
    }
    Ok(ParsedTemplate {
        nodes,
        defines: parser.defines,
    })
}

/// A borrowed view of the partials shared across a chart's template files.
/// Built once per render from the parsed templates — no `Vec<Node>` is ever
/// cloned to assemble it.
pub(crate) type SharedDefines<'a> = HashMap<&'a str, &'a [Node]>;

/// Collects every file's defines into one borrowed shared set; a later
/// file's define wins.
pub(crate) fn shared_defines<'a, I>(templates: I) -> SharedDefines<'a>
where
    I: IntoIterator<Item = &'a ParsedTemplate>,
{
    let mut out = SharedDefines::new();
    for t in templates {
        for (k, v) in &t.defines {
            out.insert(k.as_str(), v.as_slice());
        }
    }
    out
}

/// Renders a parsed file against a pre-built root dot and a borrowed shared
/// partial set. This is the chart render path: the root is built once per
/// chart level and the defines are borrowed, so per-file work is evaluation
/// only.
pub(crate) fn render_file(
    name: &str,
    template: &ParsedTemplate,
    shared: &SharedDefines<'_>,
    root: &Value,
) -> Result<String> {
    let mut out = String::new();
    render_file_into(name, template, shared, root, &mut out)?;
    Ok(out)
}

/// [`render_file`] into a caller-provided buffer, clearing it first —
/// exactly the same bytes, but render-many loops amortize the output
/// allocation across files and releases.
pub(crate) fn render_file_into(
    name: &str,
    template: &ParsedTemplate,
    shared: &SharedDefines<'_>,
    root: &Value,
    out: &mut String,
) -> Result<()> {
    let env = EvalEnv {
        name,
        shared,
        own: &template.defines,
        root,
    };
    out.clear();
    eval_block(&env, &template.nodes, root, out, 0)
}

/// Evaluates one `if`/`else if` condition pipeline of a parsed file against
/// a pre-built root dot, applying exactly the truthiness `eval_block` uses
/// when it picks a branch. The compiled layer calls this to choose a
/// pre-decoded branch outcome without rendering any text.
pub(crate) fn eval_condition(
    name: &str,
    template: &ParsedTemplate,
    shared: &SharedDefines<'_>,
    root: &Value,
    pipeline: &Pipeline,
    line: usize,
) -> Result<bool> {
    let env = EvalEnv {
        name,
        shared,
        own: &template.defines,
        root,
    };
    Ok(eval_pipeline(&env, pipeline, root, line, 0)?.truthy())
}

fn template_err(name: &str, line: usize, msg: impl Into<String>) -> Error {
    Error::Template {
        template: name.to_string(),
        message: if line > 0 {
            format!("line {line}: {}", msg.into())
        } else {
            msg.into()
        },
    }
}

// ---------------------------------------------------------------------------
// Lexing: split source into text and action segments, applying trim markers.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Segment {
    Text(String),
    Action { content: String, line: usize },
}

fn lex(name: &str, source: &str) -> Result<Vec<Segment>> {
    let mut segments = Vec::new();
    let mut rest = source;
    let mut line = 1usize;
    while let Some(start) = rest.find("{{") {
        let (text, after) = rest.split_at(start);
        line += text.matches('\n').count();
        let action_line = line;
        let after = &after[2..];
        let (trim_before, after) = match after.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, after),
        };
        let Some(end) = after.find("}}") else {
            return Err(template_err(name, action_line, "unterminated `{{` action"));
        };
        let mut content = &after[..end];
        line += content.matches('\n').count();
        let mut remainder = &after[end + 2..];
        let trim_after = content.ends_with('-')
            && content.len() >= 2
            && content[..content.len() - 1].ends_with(char::is_whitespace);
        if trim_after {
            content = content[..content.len() - 1].trim_end();
        }
        let mut text = text.to_string();
        if trim_before {
            truncate_trailing_whitespace(&mut text);
        }
        if !text.is_empty() {
            segments.push(Segment::Text(text));
        }
        segments.push(Segment::Action {
            content: content.trim().to_string(),
            line: action_line,
        });
        if trim_after {
            let trimmed = remainder.trim_start_matches([' ', '\t', '\r', '\n']);
            line += remainder[..remainder.len() - trimmed.len()]
                .matches('\n')
                .count();
            remainder = trimmed;
        }
        rest = remainder;
    }
    if !rest.is_empty() {
        segments.push(Segment::Text(rest.to_string()));
    }
    Ok(segments)
}

fn truncate_trailing_whitespace(s: &mut String) {
    let trimmed_len = s.trim_end_matches([' ', '\t', '\r', '\n']).len();
    s.truncate(trimmed_len);
}

// ---------------------------------------------------------------------------
// Parsing: actions become a node tree.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Text(String),
    Output {
        pipeline: Pipeline,
        line: usize,
    },
    If {
        branches: Vec<(Option<Pipeline>, Vec<Node>)>,
        line: usize,
    },
    Range {
        pipeline: Pipeline,
        body: Vec<Node>,
        line: usize,
    },
    With {
        pipeline: Pipeline,
        body: Vec<Node>,
        line: usize,
    },
}

struct NodeParser<'a> {
    name: &'a str,
    segments: &'a [Segment],
    pos: usize,
    defines: HashMap<String, Vec<Node>>,
}

impl<'a> NodeParser<'a> {
    /// Parses until one of `stops` (`end`, `else`, `else if …`) or EOF.
    /// Leaves the stopping action un-consumed.
    fn parse_block(&mut self, stops: &[&str]) -> Result<Vec<Node>> {
        let mut nodes = Vec::new();
        while let Some(seg) = self.segments.get(self.pos) {
            match seg {
                Segment::Text(t) => {
                    nodes.push(Node::Text(t.clone()));
                    self.pos += 1;
                }
                Segment::Action { content, line } => {
                    let keyword = content.split_whitespace().next().unwrap_or("");
                    if stops.contains(&keyword) {
                        return Ok(nodes);
                    }
                    match keyword {
                        "if" => nodes.push(self.parse_if(content, *line)?),
                        "range" => {
                            self.pos += 1;
                            let pipeline = parse_pipeline(self.name, &content[5..], *line)?;
                            let body = self.parse_block(&["end"])?;
                            self.expect_end(*line, "range")?;
                            nodes.push(Node::Range {
                                pipeline,
                                body,
                                line: *line,
                            });
                        }
                        "with" => {
                            self.pos += 1;
                            let pipeline = parse_pipeline(self.name, &content[4..], *line)?;
                            let body = self.parse_block(&["end"])?;
                            self.expect_end(*line, "with")?;
                            nodes.push(Node::With {
                                pipeline,
                                body,
                                line: *line,
                            });
                        }
                        "define" => {
                            let def_name = quoted_name(self.name, &content[6..], *line)?;
                            self.pos += 1;
                            let body = self.parse_block(&["end"])?;
                            self.expect_end(*line, "define")?;
                            // A later define wins, like Go templates.
                            self.defines.insert(def_name, body);
                        }
                        "template" => {
                            // `{{ template "name" CTX }}` splices the partial
                            // directly — desugars to the `include` function.
                            self.pos += 1;
                            let rewritten = format!("include {}", &content[8..]);
                            let pipeline = parse_pipeline(self.name, &rewritten, *line)?;
                            nodes.push(Node::Output {
                                pipeline,
                                line: *line,
                            });
                        }
                        "end" | "else" => {
                            return Err(template_err(
                                self.name,
                                *line,
                                format!("`{keyword}` without an open block"),
                            ));
                        }
                        _ => {
                            self.pos += 1;
                            let pipeline = parse_pipeline(self.name, content, *line)?;
                            nodes.push(Node::Output {
                                pipeline,
                                line: *line,
                            });
                        }
                    }
                }
            }
        }
        if stops.is_empty() {
            Ok(nodes)
        } else {
            Err(template_err(
                self.name,
                0,
                format!("unterminated block; expected one of {stops:?}"),
            ))
        }
    }

    fn parse_if(&mut self, content: &str, line: usize) -> Result<Node> {
        self.pos += 1; // consume the `if`
        let mut branches = Vec::new();
        let mut cond = Some(parse_pipeline(self.name, &content[2..], line)?);
        loop {
            let body = self.parse_block(&["end", "else"])?;
            branches.push((cond.take(), body));
            match self.segments.get(self.pos) {
                Some(Segment::Action { content, line }) if content == "end" => {
                    self.pos += 1;
                    let _ = line;
                    break;
                }
                Some(Segment::Action { content, line }) if content == "else" => {
                    self.pos += 1;
                    let body = self.parse_block(&["end"])?;
                    branches.push((None, body));
                    self.expect_end(*line, "else")?;
                    break;
                }
                Some(Segment::Action { content, line }) if content.starts_with("else if") => {
                    self.pos += 1;
                    cond = Some(parse_pipeline(self.name, &content[7..], *line)?);
                    continue;
                }
                _ => {
                    return Err(template_err(self.name, line, "unterminated `if` block"));
                }
            }
        }
        Ok(Node::If { branches, line })
    }

    fn expect_end(&mut self, line: usize, what: &str) -> Result<()> {
        match self.segments.get(self.pos) {
            Some(Segment::Action { content, .. }) if content == "end" => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(template_err(
                self.name,
                line,
                format!("`{what}` block missing `end`"),
            )),
        }
    }
}

/// Parses the quoted partial name of a `define`/`template` action.
fn quoted_name(template: &str, rest: &str, line: usize) -> Result<String> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('"')
        .and_then(|r| r.split_once('"'))
        .map(|(name, _)| name)
        .ok_or_else(|| template_err(template, line, "expected a quoted template name"))?;
    if inner.is_empty() {
        return Err(template_err(template, line, "empty template name"));
    }
    Ok(inner.to_string())
}

// ---------------------------------------------------------------------------
// Pipelines and terms.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) commands: Vec<Command>,
}

#[derive(Debug, Clone)]
pub(crate) struct Command {
    terms: Vec<Term>,
}

#[derive(Debug, Clone)]
pub(crate) enum Term {
    /// `.a.b.c` — path rooted at dot; empty segments vector is plain `.`.
    Path(Vec<String>),
    /// `$.a.b` — path rooted at the template root.
    RootPath(Vec<String>),
    /// Literal scalar.
    Literal(Value),
    /// Function name.
    Ident(String),
    /// Parenthesized sub-pipeline.
    Sub(Box<Pipeline>),
}

fn parse_pipeline(name: &str, src: &str, line: usize) -> Result<Pipeline> {
    let mut lexer = ExprLexer {
        name,
        src: src.as_bytes(),
        pos: 0,
        line,
    };
    let pipeline = lexer.pipeline()?;
    lexer.skip_ws();
    if lexer.pos != lexer.src.len() {
        return Err(template_err(
            name,
            line,
            format!("trailing tokens in `{src}`"),
        ));
    }
    Ok(pipeline)
}

struct ExprLexer<'a> {
    name: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> ExprLexer<'a> {
    fn err(&self, msg: impl Into<String>) -> Error {
        template_err(self.name, self.line, msg)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && (self.src[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
    }

    fn pipeline(&mut self) -> Result<Pipeline> {
        let mut commands = vec![self.command()?];
        loop {
            self.skip_ws();
            if self.src.get(self.pos) == Some(&b'|') {
                self.pos += 1;
                commands.push(self.command()?);
            } else {
                break;
            }
        }
        Ok(Pipeline { commands })
    }

    fn command(&mut self) -> Result<Command> {
        let mut terms = Vec::new();
        loop {
            self.skip_ws();
            match self.src.get(self.pos) {
                None | Some(b'|') | Some(b')') => break,
                _ => terms.push(self.term()?),
            }
        }
        if terms.is_empty() {
            return Err(self.err("empty command in pipeline"));
        }
        Ok(Command { terms })
    }

    fn term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'(') => {
                self.pos += 1;
                let inner = self.pipeline()?;
                self.skip_ws();
                if self.src.get(self.pos) != Some(&b')') {
                    return Err(self.err("missing `)`"));
                }
                self.pos += 1;
                Ok(Term::Sub(Box::new(inner)))
            }
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                let mut out = String::new();
                loop {
                    match self.src.get(self.pos) {
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match self.src.get(self.pos + 1) {
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                _ => return Err(self.err("bad escape in string literal")),
                            }
                            self.pos += 2;
                        }
                        Some(&c) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        None => return Err(self.err("unterminated string literal")),
                    }
                }
                let _ = start;
                Ok(Term::Literal(Value::Str(out)))
            }
            Some(b'.') => {
                let path = self.path()?;
                Ok(Term::Path(path))
            }
            Some(b'$') => {
                self.pos += 1;
                if self.src.get(self.pos) == Some(&b'.') {
                    let path = self.path()?;
                    Ok(Term::RootPath(path))
                } else {
                    Ok(Term::RootPath(Vec::new()))
                }
            }
            Some(&c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|&c| c.is_ascii_digit() || c == b'.')
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
                if let Ok(i) = text.parse::<i64>() {
                    Ok(Term::Literal(Value::Int(i)))
                } else if let Ok(f) = text.parse::<f64>() {
                    Ok(Term::Literal(Value::Float(f)))
                } else {
                    Err(self.err(format!("bad number `{text}`")))
                }
            }
            Some(&c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.pos += 1;
                }
                let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
                Ok(match word {
                    "true" => Term::Literal(Value::Bool(true)),
                    "false" => Term::Literal(Value::Bool(false)),
                    "nil" => Term::Literal(Value::Null),
                    _ => Term::Ident(word.to_string()),
                })
            }
            Some(&c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of expression")),
        }
    }

    /// Parses `.seg.seg…`; a lone `.` yields an empty path (dot itself).
    fn path(&mut self) -> Result<Vec<String>> {
        let mut segs = Vec::new();
        while self.src.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let start = self.pos;
            while self
                .src
                .get(self.pos)
                .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
            {
                self.pos += 1;
            }
            if self.pos == start {
                // A bare `.`: only valid as the whole path.
                if segs.is_empty() {
                    return Ok(segs);
                }
                return Err(self.err("empty path segment"));
            }
            segs.push(
                std::str::from_utf8(&self.src[start..self.pos])
                    .expect("ascii")
                    .to_string(),
            );
        }
        Ok(segs)
    }
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

/// Shared evaluation state: the template's name, the partial sets visible
/// to `include` (the file's own defines shadow the chart-wide shared set),
/// and the root dot.
struct EvalEnv<'a> {
    name: &'a str,
    shared: &'a SharedDefines<'a>,
    own: &'a HashMap<String, Vec<Node>>,
    root: &'a Value,
}

impl<'a> EvalEnv<'a> {
    /// Looks up a partial: the file's own defines take precedence over the
    /// shared chart-wide set.
    fn partial(&self, name: &str) -> Option<&'a [Node]> {
        match self.own.get(name) {
            Some(v) => Some(v.as_slice()),
            None => self.shared.get(name).copied(),
        }
    }
}

/// Guard against mutually-recursive partials.
const MAX_INCLUDE_DEPTH: usize = 64;

fn eval_block<'a>(
    env: &EvalEnv<'a>,
    nodes: &'a [Node],
    dot: &'a Value,
    out: &mut String,
    depth: usize,
) -> Result<()> {
    for node in nodes {
        match node {
            Node::Text(t) => out.push_str(t),
            Node::Output { pipeline, line } => {
                let v = eval_pipeline(env, pipeline, dot, *line, depth)?;
                v.write_scalar(out);
            }
            Node::If { branches, line } => {
                for (cond, body) in branches {
                    let take = match cond {
                        Some(p) => eval_pipeline(env, p, dot, *line, depth)?.truthy(),
                        None => true,
                    };
                    if take {
                        eval_block(env, body, dot, out, depth)?;
                        break;
                    }
                }
            }
            Node::Range {
                pipeline,
                body,
                line,
            } => {
                let coll = eval_pipeline(env, pipeline, dot, *line, depth)?;
                match coll.as_ref() {
                    Value::Seq(items) => {
                        for item in items {
                            eval_block(env, body, item, out, depth)?;
                        }
                    }
                    Value::Map(m) => {
                        for v in m.values() {
                            eval_block(env, body, v, out, depth)?;
                        }
                    }
                    Value::Null => {}
                    other => {
                        return Err(template_err(
                            env.name,
                            *line,
                            format!("cannot range over scalar `{}`", other.render_scalar()),
                        ))
                    }
                }
            }
            Node::With {
                pipeline,
                body,
                line,
            } => {
                let v = eval_pipeline(env, pipeline, dot, *line, depth)?;
                if v.truthy() {
                    eval_block(env, body, v.as_ref(), out, depth)?;
                }
            }
        }
    }
    Ok(())
}

/// Evaluated values are copy-on-write: path lookups borrow straight out of
/// the values tree (the seed cloned the addressed subtree on every lookup)
/// and only function results own their data.
type Evaluated<'a> = Cow<'a, Value>;

fn eval_pipeline<'a>(
    env: &EvalEnv<'a>,
    pipeline: &'a Pipeline,
    dot: &'a Value,
    line: usize,
    depth: usize,
) -> Result<Evaluated<'a>> {
    let mut piped: Option<Evaluated<'a>> = None;
    for cmd in &pipeline.commands {
        piped = Some(eval_command(env, cmd, piped, dot, line, depth)?);
    }
    Ok(piped.expect("pipeline has at least one command"))
}

fn eval_command<'a>(
    env: &EvalEnv<'a>,
    cmd: &'a Command,
    piped: Option<Evaluated<'a>>,
    dot: &'a Value,
    line: usize,
    depth: usize,
) -> Result<Evaluated<'a>> {
    match &cmd.terms[0] {
        Term::Ident(func) => {
            let mut args = Vec::with_capacity(cmd.terms.len());
            for term in &cmd.terms[1..] {
                args.push(eval_term(env, term, dot, line, depth)?);
            }
            if let Some(p) = piped {
                args.push(p);
            }
            if func == "include" {
                return include_partial(env, args, line, depth);
            }
            call_function(env.name, func, args, line)
        }
        single if cmd.terms.len() == 1 => {
            if piped.is_some() {
                return Err(template_err(
                    env.name,
                    line,
                    "cannot pipe into a non-function value",
                ));
            }
            eval_term(env, single, dot, line, depth)
        }
        _ => Err(template_err(
            env.name,
            line,
            "expected a function name at command start",
        )),
    }
}

/// `include "name" CTX` — renders the named partial with CTX as its dot and
/// returns the text as a string value.
fn include_partial<'a>(
    env: &EvalEnv<'a>,
    args: Vec<Evaluated<'_>>,
    line: usize,
    depth: usize,
) -> Result<Evaluated<'a>> {
    if args.len() != 2 {
        return Err(template_err(
            env.name,
            line,
            format!(
                "`include` expects a name and a context, got {} argument(s)",
                args.len()
            ),
        ));
    }
    if depth >= MAX_INCLUDE_DEPTH {
        return Err(template_err(
            env.name,
            line,
            "include recursion limit exceeded",
        ));
    }
    let partial_name = args[0].render_scalar();
    let Some(body) = env.partial(&partial_name) else {
        return Err(template_err(
            env.name,
            line,
            format!("no template partial named `{partial_name}` is defined"),
        ));
    };
    let mut out = String::new();
    eval_block(env, body, args[1].as_ref(), &mut out, depth + 1)?;
    Ok(Cow::Owned(Value::Str(out)))
}

fn eval_term<'a>(
    env: &EvalEnv<'a>,
    term: &'a Term,
    dot: &'a Value,
    line: usize,
    depth: usize,
) -> Result<Evaluated<'a>> {
    match term {
        Term::Path(segs) => Ok(borrowed_or_null(walk(dot, segs))),
        Term::RootPath(segs) => Ok(borrowed_or_null(walk(env.root, segs))),
        Term::Literal(v) => Ok(Cow::Borrowed(v)),
        Term::Sub(p) => eval_pipeline(env, p, dot, line, depth),
        Term::Ident(f) => Err(template_err(
            env.name,
            line,
            format!("function `{f}` used as a value (missing arguments?)"),
        )),
    }
}

fn borrowed_or_null(v: Option<&Value>) -> Evaluated<'_> {
    match v {
        Some(v) => Cow::Borrowed(v),
        None => Cow::Owned(Value::Null),
    }
}

/// Walks map keys from `base`; `None` stands for the missing-path `Null`
/// without cloning anything on the hit path.
fn walk<'v>(base: &'v Value, segs: &[String]) -> Option<&'v Value> {
    let mut cur = base;
    for s in segs {
        match cur {
            Value::Map(m) => cur = m.get(s)?,
            _ => return None,
        }
    }
    Some(cur)
}

fn call_function<'a>(
    name: &str,
    func: &str,
    mut args: Vec<Evaluated<'a>>,
    line: usize,
) -> Result<Evaluated<'a>> {
    let argc = args.len();
    let bad_arity = |want: &str| {
        Err(template_err(
            name,
            line,
            format!("`{func}` expects {want} argument(s), got {argc}"),
        ))
    };
    let owned = |v: Value| Ok(Cow::Owned(v));
    match func {
        "default" => {
            if argc != 2 {
                return bad_arity("2");
            }
            Ok(if args[1].truthy() {
                args.swap_remove(1)
            } else {
                args.swap_remove(0)
            })
        }
        "required" => {
            if argc != 2 {
                return bad_arity("2");
            }
            if args[1].truthy() {
                Ok(args.swap_remove(1))
            } else {
                Err(Error::Required(args[0].render_scalar()))
            }
        }
        "quote" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(format!("\"{}\"", args[0].render_scalar())))
        }
        "squote" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(format!("'{}'", args[0].render_scalar())))
        }
        "not" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Bool(!args[0].truthy()))
        }
        "eq" | "ne" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let equal = scalars_equal(args[0].as_ref(), args[1].as_ref());
            owned(Value::Bool(if func == "eq" { equal } else { !equal }))
        }
        "lt" | "le" | "gt" | "ge" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let (a, b) = (
                args[0].as_float().unwrap_or(f64::NAN),
                args[1].as_float().unwrap_or(f64::NAN),
            );
            let r = match func {
                "lt" => a < b,
                "le" => a <= b,
                "gt" => a > b,
                _ => a >= b,
            };
            owned(Value::Bool(r))
        }
        "and" => {
            if argc < 2 {
                return bad_arity("2+");
            }
            Ok(match args.iter().position(|a| !a.truthy()) {
                Some(i) => args.swap_remove(i),
                None => args.pop().expect("non-empty"),
            })
        }
        "or" => {
            if argc < 2 {
                return bad_arity("2+");
            }
            Ok(match args.iter().position(|a| a.truthy()) {
                Some(i) => args.swap_remove(i),
                None => args.pop().expect("non-empty"),
            })
        }
        "add" | "sub" | "mul" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let (a, b) = match (args[0].as_int(), args[1].as_int()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(template_err(name, line, format!("`{func}` needs integers"))),
            };
            owned(Value::Int(match func {
                "add" => a + b,
                "sub" => a - b,
                _ => a * b,
            }))
        }
        "len" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Int(match args[0].as_ref() {
                Value::Seq(s) => s.len() as i64,
                Value::Map(m) => m.len() as i64,
                Value::Str(s) => s.len() as i64,
                _ => 0,
            }))
        }
        "upper" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(args[0].render_scalar().to_uppercase()))
        }
        "lower" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(args[0].render_scalar().to_lowercase()))
        }
        "trunc" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let n = args[0].as_int().unwrap_or(0).max(0) as usize;
            let s = args[1].render_scalar();
            owned(Value::Str(s.chars().take(n).collect()))
        }
        "trimSuffix" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let suffix = args[0].render_scalar();
            let s = args[1].render_scalar();
            owned(Value::Str(
                s.strip_suffix(&suffix).unwrap_or(&s).to_string(),
            ))
        }
        "replace" => {
            if argc != 3 {
                return bad_arity("3");
            }
            let s = args[2].render_scalar();
            owned(Value::Str(
                s.replace(&args[0].render_scalar(), &args[1].render_scalar()),
            ))
        }
        "printf" => {
            if argc < 1 {
                return bad_arity("1+");
            }
            printf(name, &args, line).map(Cow::Owned)
        }
        "toYaml" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(
                ij_yaml::to_string(args[0].as_ref()).trim_end().to_string(),
            ))
        }
        "indent" | "nindent" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let n = args[0].as_int().unwrap_or(0).max(0) as usize;
            let pad = " ".repeat(n);
            let s = args[1].render_scalar();
            let indented = s
                .lines()
                .map(|l| {
                    if l.is_empty() {
                        l.to_string()
                    } else {
                        format!("{pad}{l}")
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            owned(Value::Str(if func == "nindent" {
                format!("\n{indented}")
            } else {
                indented
            }))
        }
        "ternary" => {
            if argc != 3 {
                return bad_arity("3");
            }
            Ok(if args[2].truthy() {
                args.swap_remove(0)
            } else {
                args.swap_remove(1)
            })
        }
        "hasKey" => {
            if argc != 2 {
                return bad_arity("2");
            }
            let key = args[1].render_scalar();
            owned(Value::Bool(
                args[0].as_map().is_some_and(|m| m.contains_key(&key)),
            ))
        }
        "toString" => {
            if argc != 1 {
                return bad_arity("1");
            }
            owned(Value::Str(args[0].render_scalar()))
        }
        "int" => {
            if argc != 1 {
                return bad_arity("1");
            }
            let v = match args[0].as_ref() {
                Value::Int(i) => *i,
                Value::Float(f) => *f as i64,
                Value::Str(s) => s.trim().parse::<i64>().unwrap_or(0),
                Value::Bool(true) => 1,
                _ => 0,
            };
            owned(Value::Int(v))
        }
        other => Err(template_err(
            name,
            line,
            format!("unknown function `{other}`"),
        )),
    }
}

fn scalars_equal(a: &Value, b: &Value) -> bool {
    if a == b {
        return true;
    }
    // Numeric cross-type equality (`1 == 1.0`) and string/number coercion,
    // matching Go template laxness closely enough for chart conditions.
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

fn printf(name: &str, args: &[Evaluated<'_>], line: usize) -> Result<Value> {
    let fmt = args[0].render_scalar();
    let mut out = String::new();
    let mut arg_i = 1usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('s') | Some('d') | Some('v') => {
                let Some(a) = args.get(arg_i) else {
                    return Err(template_err(name, line, "printf: not enough arguments"));
                };
                out.push_str(&a.render_scalar());
                arg_i += 1;
            }
            other => {
                return Err(template_err(
                    name,
                    line,
                    format!(
                        "printf: unsupported verb `%{}`",
                        other.map(String::from).unwrap_or_default()
                    ),
                ))
            }
        }
    }
    Ok(Value::Str(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses and renders one standalone file against `values`, as release
    /// `rel` of chart `demo` 1.0.0.
    fn render_src(src: &str, values: &str) -> Result<String> {
        let parsed = parse_template("t", src)?;
        let root = build_root(
            ij_yaml::parse(values).unwrap(),
            "rel",
            "default",
            "demo",
            "1.0.0",
        );
        render_file("t", &parsed, &SharedDefines::new(), &root)
    }

    fn render(src: &str, values: &str) -> String {
        render_src(src, values).unwrap()
    }

    #[test]
    fn plain_interpolation() {
        assert_eq!(
            render("port: {{ .Values.port }}", "port: 8080"),
            "port: 8080"
        );
        assert_eq!(
            render("name: {{ .Release.Name }}-{{ .Chart.Name }}", ""),
            "name: rel-demo"
        );
    }

    #[test]
    fn nested_value_paths() {
        // Mirrors the Helm fragment in Figure 2b of the paper.
        let values = "primary:\n  service:\n    ports:\n      mysql: 3306\n";
        assert_eq!(
            render("port: {{ .Values.primary.service.ports.mysql }}", values),
            "port: 3306"
        );
    }

    #[test]
    fn missing_path_renders_empty() {
        assert_eq!(render("x: [{{ .Values.absent.deep }}]", ""), "x: []");
    }

    #[test]
    fn if_else_branches() {
        let tpl = "{{ if .Values.on }}yes{{ else }}no{{ end }}";
        assert_eq!(render(tpl, "on: true"), "yes");
        assert_eq!(render(tpl, "on: false"), "no");
        assert_eq!(render(tpl, ""), "no");
    }

    #[test]
    fn else_if_chain() {
        let tpl = "{{ if eq .Values.mode \"a\" }}A{{ else if eq .Values.mode \"b\" }}B{{ else }}C{{ end }}";
        assert_eq!(render(tpl, "mode: a"), "A");
        assert_eq!(render(tpl, "mode: b"), "B");
        assert_eq!(render(tpl, "mode: z"), "C");
    }

    #[test]
    fn whitespace_trim_markers() {
        let tpl = "a\n{{- if .Values.on }}\nb\n{{- end }}\nc\n";
        assert_eq!(render(tpl, "on: true"), "a\nb\nc\n");
        assert_eq!(render(tpl, "on: false"), "a\nc\n");
    }

    #[test]
    fn range_over_sequence() {
        let tpl = "{{ range .Values.ports }}- {{ . }}\n{{ end }}";
        assert_eq!(render(tpl, "ports:\n  - 80\n  - 443\n"), "- 80\n- 443\n");
    }

    #[test]
    fn range_with_field_access() {
        let tpl = "{{ range .Values.ports }}- containerPort: {{ .num }}\n{{ end }}";
        let values = "ports:\n  - num: 6121\n  - num: 6123\n";
        assert_eq!(
            render(tpl, values),
            "- containerPort: 6121\n- containerPort: 6123\n"
        );
    }

    #[test]
    fn root_path_inside_range() {
        let tpl = "{{ range .Values.items }}{{ $.Release.Name }}:{{ . }} {{ end }}";
        assert_eq!(render(tpl, "items:\n  - x\n"), "rel:x ");
    }

    #[test]
    fn with_rescopes_dot() {
        let tpl = "{{ with .Values.svc }}port={{ .port }}{{ end }}";
        assert_eq!(render(tpl, "svc:\n  port: 81\n"), "port=81");
        assert_eq!(render(tpl, ""), "");
    }

    #[test]
    fn default_function_and_pipe() {
        assert_eq!(render("{{ .Values.port | default 8080 }}", ""), "8080");
        assert_eq!(
            render("{{ .Values.port | default 8080 }}", "port: 9000"),
            "9000"
        );
        assert_eq!(
            render("{{ default 8080 .Values.port }}", "port: 9000"),
            "9000"
        );
    }

    #[test]
    fn quote_and_upper() {
        assert_eq!(render("{{ .Values.name | quote }}", "name: web"), "\"web\"");
        assert_eq!(render("{{ .Values.name | upper }}", "name: web"), "WEB");
    }

    #[test]
    fn logic_functions() {
        assert_eq!(
            render("{{ and .Values.a .Values.b }}", "a: true\nb: true"),
            "true"
        );
        assert_eq!(
            render(
                "{{ if and .Values.a (not .Values.b) }}y{{ else }}n{{ end }}",
                "a: true\nb: false"
            ),
            "y"
        );
        assert_eq!(render("{{ or .Values.a 7 }}", "a: 0"), "7");
    }

    #[test]
    fn arithmetic_and_printf() {
        assert_eq!(render("{{ add .Values.base 1 }}", "base: 6120"), "6121");
        assert_eq!(render("{{ printf \"%s-%d\" \"svc\" 3 }}", ""), "svc-3");
    }

    #[test]
    fn to_yaml_nindent() {
        let tpl = "labels:{{ .Values.labels | toYaml | nindent 2 }}";
        let out = render(tpl, "labels:\n  app: web\n  tier: front\n");
        assert_eq!(out, "labels:\n  app: web\n  tier: front");
    }

    #[test]
    fn required_function_errors() {
        let err = render_src("{{ required \"port is required\" .Values.port }}", "").unwrap_err();
        assert!(matches!(err, Error::Required(m) if m.contains("port is required")));
    }

    #[test]
    fn unknown_function_errors() {
        assert!(render_src("{{ bogus 1 }}", "").is_err());
    }

    #[test]
    fn unterminated_action_errors() {
        assert!(render_src("{{ .Values.a ", "").is_err());
    }

    #[test]
    fn dangling_end_errors() {
        assert!(render_src("{{ end }}", "").is_err());
    }

    #[test]
    fn unclosed_if_errors() {
        assert!(render_src("{{ if .Values.a }}x", "").is_err());
    }

    #[test]
    fn ternary_and_comparisons() {
        assert_eq!(
            render("{{ ternary \"hi\" \"lo\" (gt .Values.n 5) }}", "n: 9"),
            "hi"
        );
        assert_eq!(
            render("{{ ternary \"hi\" \"lo\" (gt .Values.n 5) }}", "n: 3"),
            "lo"
        );
    }

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(render("{{ eq .Values.n 3 }}", "n: 3.0"), "true");
    }

    #[test]
    fn string_helpers() {
        assert_eq!(render("{{ .Values.s | lower }}", "s: MiXeD"), "mixed");
        assert_eq!(render("{{ .Values.s | squote }}", "s: web"), "'web'");
        assert_eq!(render("{{ trunc 5 .Values.s }}", "s: kubernetes"), "kuber");
        assert_eq!(
            render("{{ trimSuffix \"-master\" .Values.s }}", "s: redis-master"),
            "redis"
        );
        assert_eq!(
            render("{{ replace \"_\" \"-\" .Values.s }}", "s: a_b_c"),
            "a-b-c"
        );
        assert_eq!(render("{{ toString .Values.n }}", "n: 42"), "42");
    }

    #[test]
    fn collection_helpers() {
        assert_eq!(
            render("{{ len .Values.items }}", "items:\n  - a\n  - b\n"),
            "2"
        );
        assert_eq!(render("{{ len .Values.name }}", "name: abc"), "3");
        assert_eq!(
            render("{{ hasKey .Values.svc \"port\" }}", "svc:\n  port: 80\n"),
            "true"
        );
        assert_eq!(
            render("{{ hasKey .Values.svc \"nope\" }}", "svc:\n  port: 80\n"),
            "false"
        );
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(render("{{ sub .Values.n 1 }}", "n: 10"), "9");
        assert_eq!(render("{{ mul .Values.n 3 }}", "n: 7"), "21");
        assert_eq!(render("{{ int .Values.s }}", "s: \"123\""), "123");
        assert_eq!(render("{{ int .Values.f }}", "f: 9.7"), "9");
        assert_eq!(render("{{ lt .Values.n 5 }}", "n: 3"), "true");
        assert_eq!(render("{{ ge .Values.n 5 }}", "n: 5"), "true");
        assert_eq!(render("{{ le .Values.n 4 }}", "n: 5"), "false");
    }

    #[test]
    fn range_over_map_iterates_values() {
        let out = render(
            "{{ range .Values.ports }}{{ . }};{{ end }}",
            "ports:\n  a: 1\n  b: 2\n",
        );
        assert_eq!(out, "1;2;");
    }

    #[test]
    fn range_over_null_is_empty() {
        assert_eq!(render("{{ range .Values.missing }}x{{ end }}", ""), "");
    }

    #[test]
    fn range_over_scalar_errors() {
        assert!(render_src("{{ range .Values.n }}x{{ end }}", "n: 3").is_err());
    }

    #[test]
    fn nil_literal_and_default() {
        assert_eq!(render("{{ default \"x\" nil }}", ""), "x");
    }

    #[test]
    fn bare_dollar_is_root() {
        assert_eq!(
            render("{{ with .Values.a }}{{ $.Chart.Name }}{{ end }}", "a: 1"),
            "demo"
        );
    }

    #[test]
    fn nested_with_blocks() {
        let values = "outer:\n  inner:\n    x: 5\n";
        let tpl = "{{ with .Values.outer }}{{ with .inner }}{{ .x }}{{ end }}{{ end }}";
        assert_eq!(render(tpl, values), "5");
    }

    #[test]
    fn nested_if_inside_range() {
        let values = "ports:\n  - 80\n  - 8080\n  - 443\n";
        let tpl = "{{ range .Values.ports }}{{ if gt . 100 }}{{ . }} {{ end }}{{ end }}";
        assert_eq!(render(tpl, values), "8080 443 ");
    }

    #[test]
    fn arity_errors_are_reported() {
        assert!(render_src("{{ quote 1 2 }}", "").is_err());
        assert!(render_src("{{ default 1 }}", "").is_err());
        assert!(render_src("{{ add 1 \"x\" }}", "").is_err());
    }

    #[test]
    fn pipe_into_value_errors() {
        assert!(render_src("{{ 1 | .Values.x }}", "x: 2").is_err());
    }

    #[test]
    fn define_and_include_in_one_file() {
        let tpl = "{{ define \"labels\" }}app: {{ .Values.app }}{{ end }}labels:\n  {{ include \"labels\" . }}";
        assert_eq!(render(tpl, "app: web"), "labels:\n  app: web");
    }

    #[test]
    fn include_pipes_into_nindent() {
        let tpl = "{{ define \"sel\" }}app: web\ntier: front{{ end }}selector:{{ include \"sel\" . | nindent 2 }}";
        assert_eq!(render(tpl, ""), "selector:\n  app: web\n  tier: front");
    }

    #[test]
    fn template_keyword_splices_directly() {
        let tpl =
            "{{ define \"greet\" }}hello {{ . }}{{ end }}{{ template \"greet\" .Values.who }}";
        assert_eq!(render(tpl, "who: world"), "hello world");
    }

    #[test]
    fn include_context_rescopes_dot() {
        let tpl = "{{ define \"port\" }}{{ .port }}{{ end }}{{ include \"port\" .Values.svc }}";
        assert_eq!(render(tpl, "svc:\n  port: 8443\n"), "8443");
    }

    #[test]
    fn defines_are_shared_across_files() {
        let helpers = parse_template(
            "_helpers.tpl",
            "{{ define \"common.name\" }}{{ .Release.Name }}-app{{ end }}",
        )
        .unwrap();
        let main = parse_template("deploy.yaml", "name: {{ include \"common.name\" . }}").unwrap();
        let shared = shared_defines([&helpers]);
        let root = build_root(Value::Null, "rel", "default", "demo", "1.0.0");
        let out = render_file("deploy.yaml", &main, &shared, &root).unwrap();
        assert_eq!(out, "name: rel-app");
    }

    #[test]
    fn unknown_partial_errors() {
        let err = render_src("{{ include \"missing\" . }}", "").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn recursive_includes_are_bounded() {
        let tpl = "{{ define \"loop\" }}{{ include \"loop\" . }}{{ end }}{{ include \"loop\" . }}";
        let err = render_src(tpl, "").unwrap_err();
        assert!(err.to_string().contains("recursion"));
    }

    #[test]
    fn later_define_wins() {
        let tpl =
            "{{ define \"x\" }}one{{ end }}{{ define \"x\" }}two{{ end }}{{ include \"x\" . }}";
        assert_eq!(render(tpl, ""), "two");
    }

    #[test]
    fn define_requires_quoted_name() {
        assert!(render_src("{{ define unquoted }}x{{ end }}", "").is_err());
    }

    #[test]
    fn defined_names_listed() {
        let parsed = parse_template(
            "t",
            "{{ define \"a\" }}1{{ end }}{{ define \"b\" }}2{{ end }}",
        )
        .unwrap();
        let mut names: Vec<&str> = parsed.defines.keys().map(String::as_str).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }
}
