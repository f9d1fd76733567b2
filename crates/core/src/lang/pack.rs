//! Rule packs: the text format that turns the expression language into
//! registry entries.
//!
//! A pack is a plain-text file of `rule <name> … end` blocks plus top-level
//! `disable <name>` directives:
//!
//! ```text
//! # Comments run to end of line; blank lines separate blocks.
//! disable m5
//!
//! rule m7
//!   class    = M7
//!   select   = unit
//!   evidence = static
//!   when     = unit.host_network
//!   message  = pod template sets hostNetwork: true, bypassing NetworkPolicies
//! end
//! ```
//!
//! Fields are `key = value` lines (split on the first `=`, both sides
//! trimmed). `class`, `select`, `when`, and `message` are required;
//! `evidence` defaults to `static`; `port`/`protocol` are optional
//! expressions that attach port information to the finding (they must be
//! given together). The `message` value is a template: `{expr}` interpolates
//! a scalar expression, `{{`/`}}` escape literal braces.
//!
//! Every expression is compiled at load time against the attributes the
//! scope exposes (see [`super::resolve`]); label probes intern into one
//! pack-wide table. Loading therefore front-loads *all* failure: a pack
//! that parses and type-checks evaluates without error, deterministically.

use super::ast::parse;
use super::compile::{compile, CompileEnv, CompiledExpr, Type};
use super::eval::{evaluate, evaluate_with_trace, TraceAtom, Value};
use super::lex::{LangError, Span};
use super::resolve::{parse_protocol, Entity, EntityResolver, Select, UnitLabelProbe};
use crate::finding::{Finding, MisconfigId};
use crate::registry::{RuleRegistry, RuleScope, UnknownRule};
use crate::rules::{AppView, RuleContext};
use ij_model::LabelInterner;
use std::str::FromStr;
use std::sync::Arc;

/// One piece of a compiled message template.
#[derive(Debug, Clone)]
enum Segment {
    /// Literal text.
    Lit(String),
    /// An interpolated scalar expression.
    Expr(CompiledExpr),
}

/// One rule compiled from a pack: a selection scope, a boolean `when`
/// expression, a message template, and optional port/protocol expressions —
/// everything resolved to ids, ready to evaluate.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    name: String,
    class: MisconfigId,
    evidence: RuleScope,
    select: Select,
    when: CompiledExpr,
    when_src: String,
    message: Vec<Segment>,
    message_src: String,
    port: Option<(CompiledExpr, String)>,
    protocol: Option<(CompiledExpr, String)>,
    /// The pack-wide table the rule's `labels.*` probes interned into.
    interner: Arc<LabelInterner>,
}

impl CompiledRule {
    /// The registry name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The misconfiguration class every finding of this rule carries.
    pub(crate) fn class(&self) -> MisconfigId {
        self.class
    }

    /// Static or runtime evidence (the engine's gating axis).
    pub(crate) fn evidence(&self) -> RuleScope {
        self.evidence
    }

    /// The selection scope the `when` expression runs once per.
    pub fn select(&self) -> Select {
        self.select
    }

    /// The `when` expression's source text.
    pub fn expression(&self) -> &str {
        &self.when_src
    }

    /// The message template's source text.
    pub fn message_template(&self) -> &str {
        &self.message_src
    }

    /// Evaluates the rule over one application's view.
    pub(crate) fn run(&self, view: &AppView<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        self.run_impl(view, false, &mut |finding, _| out.push(finding));
        out
    }

    /// Like `run`, but over a [`RuleContext`] (the rule builds the view for
    /// this call), and each finding comes with the atom-level trace of its
    /// `when` evaluation — the explanation of *why* it fired. Entities whose
    /// `when` is false contribute nothing.
    pub fn run_traced(&self, ctx: &RuleContext<'_>) -> Vec<(Finding, Vec<TraceAtom>)> {
        let mut out = Vec::new();
        self.run_impl(&AppView::new(ctx), true, &mut |finding, trace| {
            out.push((finding, trace))
        });
        out
    }

    fn run_impl(
        &self,
        view: &AppView<'_>,
        traced: bool,
        sink: &mut dyn FnMut(Finding, Vec<TraceAtom>),
    ) {
        let ctx = view.ctx();
        match self.select {
            Select::App => {
                self.consider(ctx, Entity::App, traced, sink);
            }
            Select::Unit | Select::Socket => {
                for unit in &view.units {
                    let labels = &UnitLabelProbe::new(unit.unit, &self.interner);
                    if self.select == Select::Unit {
                        self.consider(ctx, Entity::Unit(unit, labels, None), traced, sink);
                        continue;
                    }
                    for &socket in &unit.stable {
                        let entity = Entity::Unit(unit, labels, Some(socket));
                        self.consider(ctx, entity, traced, sink);
                    }
                }
            }
            Select::Service | Select::ServicePort => {
                for svc in &view.services {
                    if self.select == Select::Service {
                        self.consider(ctx, Entity::Service(svc, None), traced, sink);
                        continue;
                    }
                    let facts = &view.ports[svc.ports.clone()];
                    for port in svc.svc.spec.ports.iter().zip(facts) {
                        self.consider(ctx, Entity::Service(svc, Some(port)), traced, sink);
                    }
                }
            }
        }
    }

    fn consider(
        &self,
        ctx: &RuleContext<'_>,
        entity: Entity<'_>,
        traced: bool,
        sink: &mut dyn FnMut(Finding, Vec<TraceAtom>),
    ) {
        let resolver = EntityResolver { ctx, entity };
        let (verdict, trace) = if traced {
            evaluate_with_trace(&self.when, &resolver, &self.when_src)
        } else {
            (evaluate(&self.when, &resolver), Vec::new())
        };
        let Value::Bool(fired) = verdict else {
            unreachable!("pack loader admitted a non-bool `when`")
        };
        if !fired {
            return;
        }
        let object: String = match &resolver.entity {
            Entity::App => ctx.app.to_string(),
            Entity::Unit(unit, ..) => unit.unit.name.clone(),
            Entity::Service(svc, _) => svc.svc.meta.qualified_name(),
        };
        let mut detail = String::new();
        for segment in &self.message {
            match segment {
                Segment::Lit(text) => detail.push_str(text),
                Segment::Expr(expr) => detail.push_str(&evaluate(expr, &resolver).render()),
            }
        }
        let mut finding = Finding::new(self.class, ctx.app, object, detail);
        if let (Some((port_expr, _)), Some((proto_expr, _))) = (&self.port, &self.protocol) {
            let Value::Number(port) = evaluate(port_expr, &resolver) else {
                unreachable!("pack loader admitted a non-number `port`")
            };
            let proto = evaluate(proto_expr, &resolver).render();
            if let Some(protocol) = parse_protocol(&proto) {
                finding = finding.with_port(port as u16, protocol);
            }
        }
        sink(finding, trace);
    }
}

/// A loaded rule pack: compiled rules in file order, plus the names it
/// disables.
#[derive(Debug, Clone)]
pub struct RulePack {
    rules: Vec<Arc<CompiledRule>>,
    disables: Vec<String>,
}

/// The source text of the built-in pack (committed at `packs/builtin.rules`,
/// embedded here so the binary needs no file at run time).
pub const BUILTIN_PACK_SOURCE: &str = include_str!("../../../../packs/builtin.rules");

/// Loads a pack from its text form (so `RulePack::from_str(src)` and
/// `src.parse()` both work). All parse/type errors surface here, positioned
/// by line and column in the pack file.
impl std::str::FromStr for RulePack {
    type Err = LangError;

    fn from_str(src: &str) -> Result<RulePack, LangError> {
        Loader::default().load(src)
    }
}

impl RulePack {
    /// The built-in pack: M1, M2, the M5 family, M6, and M7 expressed in
    /// the rule language. Compiled from [`BUILTIN_PACK_SOURCE`]; loading it
    /// cannot fail (guarded by tests).
    pub fn builtin() -> RulePack {
        RulePack::from_str(BUILTIN_PACK_SOURCE).expect("built-in pack must compile")
    }

    /// The compiled rules, in file order.
    pub fn rules(&self) -> impl Iterator<Item = &Arc<CompiledRule>> + '_ {
        self.rules.iter()
    }

    /// Installs the pack into a registry: every rule is registered (pack
    /// rules replace same-named entries in place), then every `disable`
    /// directive is applied. A `disable` naming an unknown rule is an error
    /// and leaves the disable half unapplied.
    pub fn register_into(&self, registry: &mut RuleRegistry) -> Result<(), UnknownRule> {
        for rule in &self.rules {
            registry.register_pack_rule(Arc::clone(rule));
        }
        for name in &self.disables {
            registry.try_disable(name)?;
        }
        Ok(())
    }
}

/// A zero-length span pointing at a pack-file position (pack-level errors
/// have no expression source to slice).
fn pack_span(line: u32, column: u32) -> Span {
    Span {
        offset: 0,
        len: 0,
        line,
        column,
    }
}

fn pack_err(message: impl Into<String>, line: u32, column: u32) -> LangError {
    LangError::new(message, pack_span(line, column))
}

fn parse_class(s: &str) -> Option<MisconfigId> {
    MisconfigId::ALL.into_iter().find(|id| id.as_str() == s)
}

/// One field occurrence: value text plus where it starts in the pack file.
struct Field {
    value: String,
    line: u32,
    column: u32,
}

#[derive(Default)]
struct Block {
    name: String,
    line: u32,
    class: Option<Field>,
    select: Option<Field>,
    evidence: Option<Field>,
    when: Option<Field>,
    message: Option<Field>,
    port: Option<Field>,
    protocol: Option<Field>,
}

#[derive(Default)]
struct Loader {
    interner: LabelInterner,
}

impl Loader {
    fn load(mut self, src: &str) -> Result<RulePack, LangError> {
        let mut blocks: Vec<Block> = Vec::new();
        let mut disables: Vec<String> = Vec::new();
        let mut current: Option<Block> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match &mut current {
                None => {
                    if let Some(name) = line.strip_prefix("disable ") {
                        let name = name.trim();
                        if name.is_empty() || name.contains(char::is_whitespace) {
                            return Err(pack_err("`disable` takes one rule name", line_no, 1));
                        }
                        disables.push(name.to_string());
                    } else if let Some(name) = line.strip_prefix("rule ") {
                        let name = name.trim();
                        if name.is_empty() || name.contains(char::is_whitespace) {
                            return Err(pack_err("`rule` takes one rule name", line_no, 1));
                        }
                        if blocks.iter().any(|b| b.name == name) {
                            return Err(pack_err(
                                format!("rule `{name}` is defined twice in this pack"),
                                line_no,
                                1,
                            ));
                        }
                        current = Some(Block {
                            name: name.to_string(),
                            line: line_no,
                            ..Block::default()
                        });
                    } else {
                        return Err(pack_err(
                            format!(
                                "expected `rule <name>`, `disable <name>`, or a comment, \
                                 found `{line}`"
                            ),
                            line_no,
                            1,
                        ));
                    }
                }
                Some(block) => {
                    if line == "end" {
                        blocks.push(current.take().expect("inside a block"));
                        continue;
                    }
                    let Some((key_part, value_part)) = raw.split_once('=') else {
                        return Err(pack_err(
                            format!(
                                "expected `key = value` or `end` inside rule `{}`",
                                block.name
                            ),
                            line_no,
                            1,
                        ));
                    };
                    let key = key_part.trim();
                    let value = value_part.trim();
                    // Column (1-based, in characters) where the trimmed
                    // value starts, so expression errors relocate exactly.
                    let value_start =
                        key_part.len() + 1 + (value_part.len() - value_part.trim_start().len());
                    let column = raw[..value_start].chars().count() as u32 + 1;
                    let field = Field {
                        value: value.to_string(),
                        line: line_no,
                        column,
                    };
                    let slot = match key {
                        "class" => &mut block.class,
                        "select" => &mut block.select,
                        "evidence" => &mut block.evidence,
                        "when" => &mut block.when,
                        "message" => &mut block.message,
                        "port" => &mut block.port,
                        "protocol" => &mut block.protocol,
                        other => {
                            return Err(pack_err(
                                format!("unknown field `{other}` in rule `{}`", block.name),
                                line_no,
                                1,
                            ))
                        }
                    };
                    if slot.is_some() {
                        return Err(pack_err(
                            format!("field `{key}` given twice in rule `{}`", block.name),
                            line_no,
                            1,
                        ));
                    }
                    *slot = Some(field);
                }
            }
        }
        if let Some(block) = current {
            return Err(pack_err(
                format!("rule `{}` is missing its `end`", block.name),
                block.line,
                1,
            ));
        }
        let mut rules = Vec::with_capacity(blocks.len());
        for block in &blocks {
            rules.push(self.compile_block(block)?);
        }
        // Every rule shares the table all of them interned into.
        let interner = Arc::new(self.interner);
        let rules = rules
            .into_iter()
            .map(|mut rule| {
                rule.interner = Arc::clone(&interner);
                Arc::new(rule)
            })
            .collect();
        Ok(RulePack { rules, disables })
    }

    /// Compiles one block. The rule's `interner` is left empty; `load`
    /// attaches the shared table once every block has interned into it.
    fn compile_block(&mut self, block: &Block) -> Result<CompiledRule, LangError> {
        let require = |field: &Option<Field>, name: &str| -> Result<(), LangError> {
            if field.is_none() {
                return Err(pack_err(
                    format!("rule `{}` is missing the `{name}` field", block.name),
                    block.line,
                    1,
                ));
            }
            Ok(())
        };
        require(&block.class, "class")?;
        require(&block.select, "select")?;
        require(&block.when, "when")?;
        require(&block.message, "message")?;
        let class_field = block.class.as_ref().expect("checked");
        let class = parse_class(&class_field.value).ok_or_else(|| {
            pack_err(
                format!(
                    "unknown class `{}` (expected one of {})",
                    class_field.value,
                    MisconfigId::ALL.map(|id| id.as_str()).join(", ")
                ),
                class_field.line,
                class_field.column,
            )
        })?;
        let select_field = block.select.as_ref().expect("checked");
        let select = Select::parse(&select_field.value).ok_or_else(|| {
            pack_err(
                format!(
                    "unknown selection scope `{}` (expected app, unit, socket, service, \
                     or service_port)",
                    select_field.value
                ),
                select_field.line,
                select_field.column,
            )
        })?;
        let evidence = match block.evidence.as_ref() {
            None => RuleScope::Static,
            Some(f) => match f.value.as_str() {
                "static" => RuleScope::Static,
                "runtime" => RuleScope::Runtime,
                other => {
                    return Err(pack_err(
                        format!("unknown evidence `{other}` (expected static or runtime)"),
                        f.line,
                        f.column,
                    ))
                }
            },
        };
        let mut env = CompileEnv {
            select,
            interner: &mut self.interner,
        };

        let when_field = block.when.as_ref().expect("checked");
        let when = compile_field(&mut env, when_field)?;
        if when.ty() != &Type::Bool {
            return Err(pack_err(
                format!("`when` must be a bool expression, found {}", when.ty()),
                when_field.line,
                when_field.column,
            ));
        }

        let message_field = block.message.as_ref().expect("checked");
        let message = compile_template(&mut env, message_field)?;

        let port = match block.port.as_ref() {
            None => None,
            Some(f) => {
                let expr = compile_field(&mut env, f)?;
                if expr.ty() != &Type::Number {
                    return Err(pack_err(
                        format!("`port` must be a number expression, found {}", expr.ty()),
                        f.line,
                        f.column,
                    ));
                }
                Some((expr, f.value.clone()))
            }
        };
        let protocol = match block.protocol.as_ref() {
            None => None,
            Some(f) => {
                let expr = compile_field(&mut env, f)?;
                if expr.ty() != &Type::String {
                    return Err(pack_err(
                        format!(
                            "`protocol` must be a string expression, found {}",
                            expr.ty()
                        ),
                        f.line,
                        f.column,
                    ));
                }
                Some((expr, f.value.clone()))
            }
        };
        if port.is_some() != protocol.is_some() {
            return Err(pack_err(
                format!(
                    "rule `{}` must give `port` and `protocol` together",
                    block.name
                ),
                block.line,
                1,
            ));
        }

        Ok(CompiledRule {
            name: block.name.clone(),
            class,
            evidence,
            select,
            when,
            when_src: when_field.value.clone(),
            message,
            message_src: message_field.value.clone(),
            port,
            protocol,
            interner: Arc::default(),
        })
    }
}

/// Parses and compiles one expression field, relocating errors into the
/// pack file.
fn compile_field(env: &mut CompileEnv<'_>, field: &Field) -> Result<CompiledExpr, LangError> {
    let ast =
        parse(&field.value).map_err(|e| e.relocate(field.line, field.column.saturating_sub(1)))?;
    compile(&ast, env).map_err(|e| e.relocate(field.line, field.column.saturating_sub(1)))
}

/// Compiles a message template: literal text with `{expr}` interpolations
/// (scalar expressions only) and `{{`/`}}` escapes.
fn compile_template(env: &mut CompileEnv<'_>, field: &Field) -> Result<Vec<Segment>, LangError> {
    let src = &field.value;
    let mut segments = Vec::new();
    let mut lit = String::new();
    let mut chars = src.char_indices().peekable();
    // Running character count, to relocate expression errors precisely.
    let mut col = 0u32;
    while let Some((idx, c)) = chars.next() {
        match c {
            '{' if chars.peek().map(|&(_, c2)| c2) == Some('{') => {
                chars.next();
                lit.push('{');
                col += 2;
            }
            '}' if chars.peek().map(|&(_, c2)| c2) == Some('}') => {
                chars.next();
                lit.push('}');
                col += 2;
            }
            '}' => {
                return Err(pack_err(
                    "unmatched `}` in message template (use `}}` for a literal brace)",
                    field.line,
                    field.column + col,
                ));
            }
            '{' => {
                // Find the matching close brace, skipping string literals
                // (their text may contain braces).
                let expr_start = idx + c.len_utf8();
                let expr_col = col + 1;
                let mut end = None;
                let mut in_string = false;
                let mut escaped = false;
                for (j, cj) in chars.by_ref() {
                    col += 1;
                    if in_string {
                        if escaped {
                            escaped = false;
                        } else if cj == '\\' {
                            escaped = true;
                        } else if cj == '"' {
                            in_string = false;
                        }
                        continue;
                    }
                    match cj {
                        '"' => in_string = true,
                        '}' => {
                            end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                let Some(end) = end else {
                    return Err(pack_err(
                        "unterminated `{expr}` interpolation in message template",
                        field.line,
                        field.column + expr_col - 1,
                    ));
                };
                let expr_src = &src[expr_start..end];
                if !lit.is_empty() {
                    segments.push(Segment::Lit(std::mem::take(&mut lit)));
                }
                let ast = parse(expr_src)
                    .map_err(|e| e.relocate(field.line, field.column + expr_col - 1))?;
                let compiled = compile(&ast, env)
                    .map_err(|e| e.relocate(field.line, field.column + expr_col - 1))?;
                match compiled.ty() {
                    Type::Bool | Type::Number | Type::String => {}
                    other => {
                        return Err(pack_err(
                            format!("message interpolation must be scalar, found {other}"),
                            field.line,
                            field.column + expr_col,
                        ));
                    }
                }
                segments.push(Segment::Expr(compiled));
                col += 1; // the closing `}`
            }
            other => {
                lit.push(other);
                col += 1;
            }
        }
    }
    if !lit.is_empty() {
        segments.push(Segment::Lit(lit));
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StaticModel;
    use ij_model::decode_manifests;

    fn ctx<'a>(statics: &'a StaticModel) -> RuleContext<'a> {
        RuleContext {
            app: "test",
            statics,
            runtime: None,
            ownership: &[],
            chart_defines_policies: false,
        }
    }

    const HOSTNET_POD: &str = "\
apiVersion: v1
kind: Pod
metadata:
  name: p
  labels:
    app: p
    tier: edge
spec:
  hostNetwork: true
  containers:
    - name: c
      image: img
      ports:
        - containerPort: 80
";

    #[test]
    fn builtin_pack_loads() {
        let pack = RulePack::builtin();
        let names: Vec<&str> = pack.rules().map(|r| r.name()).collect();
        assert_eq!(names, ["m1", "m2", "m5a", "m5b", "m5c", "m5d", "m6", "m7"]);
        assert_eq!(pack.disables, ["m5".to_string()]);
        let mut reg = RuleRegistry::standard();
        let count_before = reg.entries().len();
        pack.register_into(&mut reg).unwrap();
        // m1/m2/m6/m7 replaced in place, m5a–m5d appended.
        assert_eq!(reg.entries().len(), count_before + 4);
        assert!(
            !reg.get("m5").unwrap().is_enabled(),
            "the native m5 aggregate is disabled"
        );
        assert_eq!(
            reg.get("m1").unwrap().origin(),
            crate::registry::RuleOrigin::Pack
        );
        assert_eq!(
            reg.get("m3").unwrap().origin(),
            crate::registry::RuleOrigin::Native
        );
        assert!(reg.get("m1").unwrap().pack_rule().is_some());
    }

    #[test]
    fn pack_parses_compiles_and_runs() {
        let pack = RulePack::from_str(
            "\
# host-network units, with label probes exercised
rule hostnet
  class = M7
  select = unit
  when = unit.host_network && labels.has(\"app\") && !labels.is(\"tier\", \"backend\")
  message = unit {unit.name} (app={labels.get(\"app\")}) binds the host network
end
",
        )
        .unwrap();
        assert_eq!(pack.rules().count(), 1);
        let rule = pack.rules().next().unwrap();
        assert_eq!(rule.name(), "hostnet");
        assert_eq!(rule.class(), MisconfigId::M7);
        assert_eq!(rule.select(), Select::Unit);
        assert_eq!(rule.evidence(), RuleScope::Static);

        let statics = StaticModel::from_objects(&decode_manifests(HOSTNET_POD).unwrap());
        let findings = rule.run(&AppView::new(&ctx(&statics)));
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].detail,
            "unit default/p (app=p) binds the host network"
        );
    }

    #[test]
    fn traced_run_explains_the_verdict() {
        let pack = RulePack::from_str(
            "\
rule hostnet
  class = M7
  select = unit
  when = unit.host_network && labels.has(\"app\")
  message = hostNetwork
end
",
        )
        .unwrap();
        let statics = StaticModel::from_objects(&decode_manifests(HOSTNET_POD).unwrap());
        let rule = pack.rules().next().unwrap();
        let traced = rule.run_traced(&ctx(&statics));
        assert_eq!(traced.len(), 1);
        let atoms = &traced[0].1;
        let rendered: Vec<String> = atoms.iter().map(|a| format!("{a}")).collect();
        assert_eq!(
            rendered,
            vec![
                "unit.host_network = true".to_string(),
                "labels.has(\"app\") = true".to_string(),
            ],
            "trace must list exactly the atoms evaluated, in order"
        );
    }

    #[test]
    fn pack_errors_carry_pack_file_positions() {
        // Type error in an embedded expression: line 4 of the pack.
        let err = RulePack::from_str(
            "\
rule broken
  class = M7
  select = unit
  when = unit.host_network && 3
  message = x
end
",
        )
        .unwrap_err();
        assert_eq!(err.span.line, 4);
        assert!(err.span.column > 9, "column must point into the expression");
        assert!(err.message.contains("`&&` expects bool"), "{err}");

        // Unknown attribute for the scope.
        let err = RulePack::from_str(
            "\
rule wrong-scope
  class = M5D
  select = service
  when = unit.host_network
  message = x
end
",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown attribute"), "{err}");
        assert!(err.message.contains("`service` scope"), "{err}");

        // Pack-structure errors.
        for (src, needle) in [
            ("bogus line\n", "expected `rule <name>`"),
            ("rule a\n  class = M7\n", "missing its `end`"),
            (
                "rule a\n  class = M9\n  select = unit\n  when = true\n  message = x\nend\n",
                "unknown class",
            ),
            (
                "rule a\n  class = M7\n  select = unit\n  when = true\nend\n",
                "missing the `message`",
            ),
            (
                "rule a\n  class = M7\n  select = unit\n  when = true\n  message = x\n  port = 1\nend\n",
                "`port` and `protocol` together",
            ),
            (
                "rule a\n  class = M7\n  select = unit\n  when = true\n  message = oops }\nend\n",
                "unmatched `}`",
            ),
            (
                "rule a\n  class = M7\n  select = unit\n  when = true\n  message = {unit.name\nend\n",
                "unterminated `{expr}`",
            ),
            (
                "rule a\n  class = M7\n  select = service\n  when = labels.has(\"x\")\n  message = x\nend\n",
                "not available in the `service` scope",
            ),
        ] {
            let err = RulePack::from_str(src).unwrap_err();
            assert!(err.message.contains(needle), "{src:?} → {err}");
        }
    }

    #[test]
    fn template_escapes_and_literals() {
        let pack = RulePack::from_str(
            "\
rule braces
  class = M7
  select = unit
  when = unit.host_network
  message = literal {{braces}} and {core.str(socket_count_is_not_read)}
end
",
        );
        // The interpolation references an unknown attribute: error, proving
        // `{...}` is parsed as an expression while `{{...}}` is literal.
        assert!(pack.is_err());
        let pack = RulePack::from_str(
            "\
rule braces
  class = M7
  select = unit
  when = unit.host_network
  message = literal {{braces}} and {unit.kind}
end
",
        )
        .unwrap();
        let statics = StaticModel::from_objects(&decode_manifests(HOSTNET_POD).unwrap());
        let findings = pack
            .rules()
            .next()
            .unwrap()
            .run(&AppView::new(&ctx(&statics)));
        assert_eq!(findings[0].detail, "literal {braces} and Pod");
    }
}
