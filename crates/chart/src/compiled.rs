//! Compile-once chart rendering: the production render path.
//!
//! Every command and experiment renders through [`CompiledChart`];
//! [`Chart::render`], which re-lexes and re-parses each template file of
//! the chart and its dependencies on every call, is kept as the oracle the
//! differential tests and `ij conform` compare against. [`CompiledChart`]
//! front-loads the parse work:
//!
//! * every template file — including dependency charts — is lexed and
//!   parsed exactly **once**, at compile time;
//! * files without template actions are rendered and decoded to typed
//!   objects at compile time; rendering them again is a clone plus a
//!   namespace stamp;
//! * typed [`TemplateSource::Object`] files (the generated corpus charts)
//!   are never encoded or decoded: compile keeps the object, and a render
//!   clones and stamps it like a pre-decoded file;
//! * per render, the root dot (`.Values`/`.Release`/`.Chart`) is built once
//!   per chart level and the shared partial set is borrowed — no partial
//!   body or values subtree is ever deep-cloned.
//!
//! Output and errors match [`Chart::render`] (property-tested against
//! random corpus charts in `ij-datasets`). [`Chart::compile`] fails only on
//! a template syntax error in the root chart's own files, which every
//! oracle render reports too. A dependency's syntax error is kept and
//! raised when that dependency renders, and a static file that does not
//! decode is rendered per call, so its error surfaces in file order.
//!
//! The handle is `Arc`-backed: clones share the compiled representation and
//! are cheap enough to cache per app (see `BuiltApp::compiled` in
//! `ij-datasets`).

use crate::chart::{
    decode_rendered, merge_values, stamp_namespace, Chart, Release, RenderedRelease, TemplateSource,
};
use crate::error::{Error, Result};
use crate::template::{
    build_root, eval_condition, parse_template, render_file_into, shared_defines, Node,
    ParsedTemplate, Pipeline,
};
use ij_model::Object;
use ij_yaml::{Map, Value};
use std::sync::Arc;

/// A chart compiled for render-many workloads: cached template ASTs, a
/// pre-decoded object set for action-free files, and per-release contexts
/// built exactly once per chart level. Build via [`Chart::compile`]; clone
/// freely (clones share the compiled representation).
#[derive(Debug, Clone)]
pub struct CompiledChart {
    root: Arc<CompiledLevel>,
}

/// One chart level (the root chart or a dependency): its identity, default
/// values, compiled template files, and compiled dependencies.
#[derive(Debug)]
struct CompiledLevel {
    name: String,
    version: String,
    values: Value,
    /// The compiled files, or the level's first template syntax error,
    /// raised when the level renders (after its values merge, where the
    /// oracle parses the level).
    files: Result<Vec<CompiledFile>>,
    deps: Vec<CompiledDep>,
}

#[derive(Debug)]
struct CompiledDep {
    /// The dependency chart's name (also its values scope in the parent).
    chart_name: String,
    /// Dotted enable condition into the parent's merged values.
    condition: Option<String>,
    level: CompiledLevel,
}

#[derive(Debug)]
struct CompiledFile {
    name: String,
    /// Cached AST for text-sourced files; `None` for
    /// [`TemplateSource::Object`] sources, which have nothing to parse (and
    /// contribute no partials).
    parsed: Option<ParsedTemplate>,
    plan: RenderPlan,
}

/// What rendering a compiled file amounts to.
#[derive(Debug)]
enum RenderPlan {
    /// Underscore file: contributes partials, renders nothing.
    Partial,
    /// Action-free file whose output is all whitespace: renders nothing.
    Blank,
    /// Action-free text file: output never depends on the release, so its
    /// typed objects are decoded once at compile time and cloned per
    /// render. They carry their manifest namespaces ("default" when unset —
    /// stamping the compile-time namespace is the identity); the release
    /// namespace is stamped per render.
    Static(Vec<Object>),
    /// Typed manifest, shared with the source chart: cloned and
    /// namespace-stamped per render.
    Object(Arc<Object>),
    /// Text file whose only action is a single top-level `if`: every
    /// branch outcome is pre-rendered and pre-decoded at compile time, so a
    /// render evaluates the condition pipelines and clones the chosen
    /// outcome — no text is materialized. This is the shape of generated
    /// corpus gates like `{{- if .Values.networkPolicy.enabled }}…{{- end }}`.
    Gated {
        /// `(condition, outcome)` in source order; `None` is `else`.
        branches: Vec<(Option<Pipeline>, Vec<Object>)>,
        /// Outcome when no branch is taken: the surrounding text alone.
        fallthrough: Vec<Object>,
        line: usize,
    },
    /// File with template actions: evaluated per render (the cached AST is
    /// replayed; only evaluation happens).
    Dynamic,
}

impl CompiledChart {
    /// Compiles a chart: parses every template file (including
    /// dependencies) once and pre-decodes action-free files.
    ///
    /// ```
    /// use ij_chart::{Chart, CompiledChart, Release};
    ///
    /// let chart = Chart::builder("web")
    ///     .values_yaml("replicas: 2\n").unwrap()
    ///     .template("deploy.yaml", "\
    /// apiVersion: apps/v1
    /// kind: Deployment
    /// metadata:
    ///   name: {{ .Release.Name }}-web
    /// spec:
    ///   replicas: {{ .Values.replicas }}
    ///   selector:
    ///     matchLabels:
    ///       app: web
    ///   template:
    ///     metadata:
    ///       labels:
    ///         app: web
    ///     spec:
    ///       containers:
    ///         - name: web
    ///           image: acme/web
    ///           ports:
    ///             - containerPort: 8080
    /// ")
    ///     .build();
    ///
    /// // Parse once, render many: every render replays the cached ASTs.
    /// let compiled = CompiledChart::compile(&chart).unwrap();
    /// let fast = compiled.render(&Release::new("r1", "default")).unwrap();
    ///
    /// // Byte-identical to the parse-per-call oracle.
    /// let oracle = chart.render(&Release::new("r1", "default")).unwrap();
    /// assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    /// ```
    pub fn compile(chart: &Chart) -> Result<CompiledChart> {
        let root = compile_level(chart);
        if let Err(e) = &root.files {
            return Err(e.clone());
        }
        Ok(CompiledChart {
            root: Arc::new(root),
        })
    }

    /// Renders the chart (and enabled dependencies) into typed objects.
    /// Byte-identical to [`Chart::render`] for the same chart and release.
    pub fn render(&self, release: &Release) -> Result<RenderedRelease> {
        let mut objects = Vec::new();
        let mut scratch = RenderScratch::default();
        self.render_objects_into(release, &mut scratch, &mut objects)?;
        Ok(RenderedRelease {
            release_name: release.name.clone(),
            namespace: release.namespace.clone(),
            chart_name: self.root.name.clone(),
            objects,
        })
    }

    /// Renders straight into a caller-owned object vec, reusing `scratch`
    /// across calls — the allocation-amortized form of [`render`](Self::render)
    /// the census workers use. Appends to `out` without clearing it; the
    /// appended objects are exactly `render(release)?.objects`.
    pub fn render_objects_into(
        &self,
        release: &Release,
        scratch: &mut RenderScratch,
        out: &mut Vec<Object>,
    ) -> Result<()> {
        let merged = merge_values(&self.root.values, &release.overrides)?;
        self.root.render_into(release, merged, scratch, out)
    }
}

/// Reusable render state owned by a pipeline worker: the text buffer
/// genuinely dynamic files render into. Every use clears it; only capacity
/// survives between apps, so steady-state renders stop allocating output
/// buffers.
#[derive(Debug, Default)]
pub struct RenderScratch {
    rendered: String,
}

fn compile_level(chart: &Chart) -> CompiledLevel {
    CompiledLevel {
        name: chart.name.clone(),
        version: chart.version.clone(),
        values: chart.values.clone(),
        files: compile_files(chart),
        deps: chart
            .dependencies
            .iter()
            .map(|dep| CompiledDep {
                chart_name: dep.chart.name.clone(),
                condition: dep.condition.clone(),
                level: compile_level(&dep.chart),
            })
            .collect(),
    }
}

/// Compiles one level's own files, stopping at the first syntax error.
fn compile_files(chart: &Chart) -> Result<Vec<CompiledFile>> {
    let mut files = Vec::with_capacity(chart.templates.len());
    for (tpl_name, source) in &chart.templates {
        let (parsed, plan) = match source {
            TemplateSource::Object(obj) => (None, RenderPlan::Object(Arc::clone(obj))),
            TemplateSource::Text(src) => {
                let parsed = parse_template(tpl_name, src)?;
                let plan = if crate::chart::is_partial_file(tpl_name) {
                    RenderPlan::Partial
                } else if parsed.nodes.iter().all(|n| matches!(n, Node::Text(_))) {
                    // No actions anywhere: the output is the concatenated
                    // text, independent of values and release — decode it
                    // now. Stamping with the "default" namespace is the
                    // identity, so the cached objects carry their manifest
                    // namespaces and the release namespace is stamped per
                    // render. Text that does not decode stays dynamic, so
                    // its error surfaces at render time in file order, as
                    // the oracle reports it.
                    let rendered = concat_text(&parsed.nodes);
                    if rendered.trim().is_empty() {
                        RenderPlan::Blank
                    } else {
                        static_objects_from_text(tpl_name, &rendered)
                            .map_or(RenderPlan::Dynamic, RenderPlan::Static)
                    }
                } else if let Some(plan) = gated_plan(tpl_name, &parsed) {
                    plan
                } else {
                    RenderPlan::Dynamic
                };
                (Some(parsed), plan)
            }
        };
        files.push(CompiledFile {
            name: tpl_name.clone(),
            parsed,
            plan,
        });
    }
    Ok(files)
}

fn concat_text(nodes: &[Node]) -> String {
    nodes
        .iter()
        .map(|n| match n {
            Node::Text(t) => t.as_str(),
            _ => unreachable!("caller checked all-text"),
        })
        .collect()
}

/// Parses pre-rendered text into the objects a render of it would produce
/// (null documents dropped, like `decode_rendered`).
fn static_objects_from_text(tpl_name: &str, rendered: &str) -> Result<Vec<Object>> {
    if rendered.trim().is_empty() {
        return Ok(Vec::new());
    }
    let docs = ij_yaml::parse_all(rendered).map_err(|e| Error::RenderedYaml {
        template: tpl_name.to_string(),
        source: e,
        rendered: rendered.to_string(),
    })?;
    docs.iter()
        .filter(|doc| !doc.is_null())
        .map(|doc| {
            Object::decode(doc).map_err(|e| Error::Decode {
                template: tpl_name.to_string(),
                message: e.to_string(),
            })
        })
        .collect()
}

/// Appends clones of compile-time objects with the release namespace
/// stamped, as decoding them from rendered text would.
fn push_stamped(cached: &[Object], release: &Release, objects: &mut Vec<Object>) {
    for obj in cached {
        let mut obj = obj.clone();
        stamp_namespace(&mut obj, &release.namespace);
        objects.push(obj);
    }
}

/// Recognizes files whose only action is one top-level `if` whose branch
/// bodies are pure text: the finite set of outcomes (each branch, plus the
/// fall-through) is pre-rendered and pre-decoded now, leaving only the
/// condition pipelines for render time. Any outcome that fails to parse or
/// decode disqualifies the file — it stays `Dynamic`, so the error (if any)
/// surfaces at render time only when that branch is actually taken, exactly
/// like the parse-per-call path.
fn gated_plan(tpl_name: &str, parsed: &ParsedTemplate) -> Option<RenderPlan> {
    let mut if_idx = None;
    for (i, node) in parsed.nodes.iter().enumerate() {
        match node {
            Node::Text(_) => {}
            Node::If { branches, .. }
                if if_idx.is_none()
                    && branches
                        .iter()
                        .all(|(_, body)| body.iter().all(|n| matches!(n, Node::Text(_)))) =>
            {
                if_idx = Some(i);
            }
            _ => return None,
        }
    }
    let if_idx = if_idx?;
    let prefix = concat_text(&parsed.nodes[..if_idx]);
    let suffix = concat_text(&parsed.nodes[if_idx + 1..]);
    let Node::If { branches, line } = &parsed.nodes[if_idx] else {
        unreachable!("if_idx points at the If node");
    };
    let mut compiled = Vec::with_capacity(branches.len());
    for (cond, body) in branches {
        let outcome = format!("{prefix}{}{suffix}", concat_text(body));
        compiled.push((
            cond.clone(),
            static_objects_from_text(tpl_name, &outcome).ok()?,
        ));
    }
    let fallthrough = static_objects_from_text(tpl_name, &format!("{prefix}{suffix}")).ok()?;
    Some(RenderPlan::Gated {
        branches: compiled,
        fallthrough,
        line: *line,
    })
}

impl CompiledLevel {
    /// Replays this level's cached templates for one release, appending
    /// objects, then recurses into enabled dependencies — the compiled
    /// mirror of `Chart::render_into`. `values` is owned: it moves into the
    /// root dot instead of being cloned per file.
    fn render_into(
        &self,
        release: &Release,
        values: Value,
        scratch: &mut RenderScratch,
        objects: &mut Vec<Object>,
    ) -> Result<()> {
        let files = self.files.as_ref().map_err(Clone::clone)?;
        let shared = shared_defines(files.iter().filter_map(|f| f.parsed.as_ref()));
        let root = build_root(
            values,
            &release.name,
            &release.namespace,
            &self.name,
            &self.version,
        );
        for file in files {
            match &file.plan {
                RenderPlan::Partial | RenderPlan::Blank => {}
                RenderPlan::Static(cached) => push_stamped(cached, release, objects),
                RenderPlan::Object(obj) => {
                    push_stamped(std::slice::from_ref(obj), release, objects)
                }
                RenderPlan::Gated {
                    branches,
                    fallthrough,
                    line,
                } => {
                    let parsed = file.parsed.as_ref().expect("gated files are text-sourced");
                    let mut chosen = fallthrough;
                    for (cond, outcome) in branches {
                        let take = match cond {
                            Some(p) => {
                                eval_condition(&file.name, parsed, &shared, &root, p, *line)?
                            }
                            None => true,
                        };
                        if take {
                            chosen = outcome;
                            break;
                        }
                    }
                    push_stamped(chosen, release, objects);
                }
                RenderPlan::Dynamic => {
                    let parsed = file
                        .parsed
                        .as_ref()
                        .expect("dynamic files are text-sourced");
                    render_file_into(&file.name, parsed, &shared, &root, &mut scratch.rendered)?;
                    decode_rendered(&file.name, &scratch.rendered, &release.namespace, objects)?;
                }
            }
        }
        let values = root.get("Values").expect("root always carries Values");
        for dep in &self.deps {
            if let Some(cond) = &dep.condition {
                let path: Vec<&str> = cond.split('.').collect();
                let enabled = values.path(&path).map(Value::truthy).unwrap_or(false);
                if !enabled {
                    continue;
                }
            }
            // The subchart sees its own defaults overlaid with the parent's
            // values scoped under the subchart's name.
            let scoped = values
                .get(&dep.chart_name)
                .cloned()
                .unwrap_or(Value::Map(Map::new()));
            let sub_values = merge_values(&dep.level.values, &scoped)?;
            dep.level
                .render_into(release, sub_values, scratch, objects)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::Dependency;

    fn chart_with_everything() -> Chart {
        let db = Chart::builder("db")
            .values_yaml("port: 5432\nenabled: true\n")
            .unwrap()
            .template(
                "svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-db
spec:
  selector:
    app: db
  ports:
    - port: {{ .Values.port }}
",
            )
            .build();
        let mut app = Chart::builder("app")
            .version("2.4.8")
            .values_yaml("db:\n  enabled: true\n  port: 6543\nreplicas: 3\n")
            .unwrap()
            .template(
                "_helpers.tpl",
                "{{ define \"app.labels\" }}app: {{ .Chart.Name }}{{ end }}",
            )
            .template(
                "static.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: static-svc
spec:
  selector:
    app: app
  ports:
    - port: 80
",
            )
            .template(
                "dynamic.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-app
spec:
  replicas: {{ .Values.replicas }}
  selector:
    matchLabels:{{ include \"app.labels\" . | nindent 6 }}
  template:
    metadata:
      labels:{{ include \"app.labels\" . | nindent 8 }}
    spec:
      containers:
        - name: app
          image: img/app
",
            )
            .template("blank.yaml", "{{ if .Values.never }}kind: Pod\n{{ end }}")
            .build();
        app.dependencies.push(Dependency {
            chart: db,
            condition: Some("db.enabled".into()),
        });
        app
    }

    fn bytes(r: &RenderedRelease) -> String {
        format!("{r:#?}")
    }

    #[test]
    fn compiled_render_matches_per_call_render() {
        let chart = chart_with_everything();
        let compiled = chart.compile().expect("compiles");
        for release in [
            Release::new("demo", "apps"),
            Release::new("other", "default"),
            Release::new("off", "apps")
                .with_values_yaml("db:\n  enabled: false\nreplicas: 7\n")
                .unwrap(),
        ] {
            let naive = chart.render(&release).expect("per-call render");
            let replay = compiled.render(&release).expect("compiled render");
            assert_eq!(bytes(&naive), bytes(&replay), "release {}", release.name);
            // Replays are stable.
            let again = compiled.render(&release).expect("second compiled render");
            assert_eq!(bytes(&replay), bytes(&again));
        }
    }

    #[test]
    fn static_files_are_predecoded_and_namespace_stamped() {
        let chart = chart_with_everything();
        let compiled = chart.compile().expect("compiles");
        let r = compiled
            .render(&Release::new("r", "prod"))
            .expect("renders");
        let svc = r
            .objects
            .iter()
            .find(|o| o.meta().name == "static-svc")
            .expect("static service rendered");
        assert_eq!(svc.meta().namespace, "prod", "release namespace stamped");
    }

    #[test]
    fn compile_surfaces_template_errors_eagerly() {
        let chart = Chart::builder("bad")
            .template("broken.yaml", "{{ if .Values.x }}no end")
            .build();
        assert!(chart.compile().is_err());
    }

    #[test]
    fn dependency_errors_match_the_oracle() {
        // A dependency with a syntax error, and one whose static file does
        // not decode: both render fine while disabled, and fail with the
        // oracle's message once enabled.
        let syntax = Chart::builder("syntax")
            .template("broken.yaml", "{{ end }}")
            .build();
        let decode = Chart::builder("decode")
            .template("bad.yaml", "apiVersion: v1\nkind: Pod\n")
            .build();
        for (dep, expect) in [
            (syntax, "template `broken.yaml`"),
            (decode, "template `bad.yaml`"),
        ] {
            let name = dep.name.clone();
            let chart = Chart {
                name: "parent".into(),
                version: "1.0.0".into(),
                description: String::new(),
                values: ij_yaml::parse(&format!("{name}:\n  enabled: false\n")).unwrap(),
                templates: Vec::new(),
                dependencies: vec![Dependency {
                    chart: dep,
                    condition: Some(format!("{name}.enabled")),
                }],
            };
            let compiled = chart
                .compile()
                .expect("a disabled dependency's error waits");
            let disabled = Release::new("r", "default");
            assert!(chart.render(&disabled).is_ok());
            assert!(compiled.render(&disabled).is_ok());

            let enabled = Release::new("r", "default")
                .with_values_yaml(&format!("{name}:\n  enabled: true\n"))
                .unwrap();
            let oracle = chart
                .render(&enabled)
                .expect_err("oracle rejects")
                .to_string();
            let replay = compiled.render(&enabled).expect_err("compiled rejects");
            assert_eq!(oracle, replay.to_string(), "{name}");
            assert!(oracle.contains(expect), "{oracle}");
        }
    }

    #[test]
    fn render_errors_surface_in_file_order() {
        // A dynamic file failing before a static file that does not
        // decode: the oracle reports the earlier file, and so must the
        // compiled path.
        let chart = Chart::builder("order")
            .template("a.yaml", "{{ required \"need x\" .Values.x }}")
            .template("b.yaml", "apiVersion: v1\nkind: Pod\n")
            .build();
        let compiled = chart.compile().expect("static decode errors wait");
        let release = Release::new("r", "default");
        let oracle = chart.render(&release).expect_err("oracle rejects");
        let replay = compiled.render(&release).expect_err("compiled rejects");
        assert_eq!(oracle, replay);
        assert!(oracle.to_string().contains("need x"), "{oracle}");
    }

    #[test]
    fn metadata_accessors() {
        let compiled = chart_with_everything().compile().expect("compiles");
        assert_eq!(compiled.root.name, "app");
        assert_eq!(compiled.root.version, "2.4.8");
    }

    fn gated_chart() -> Chart {
        Chart::builder("gated")
            .values_yaml("gate:\n  enabled: true\n")
            .unwrap()
            .template(
                "gate.yaml",
                "\
{{- if .Values.gate.enabled }}
apiVersion: v1
kind: Service
metadata:
  name: gated-on
spec:
  selector:
    app: g
  ports:
    - port: 1
{{- else }}
apiVersion: v1
kind: Service
metadata:
  name: gated-off
spec:
  selector:
    app: g
  ports:
    - port: 2
{{- end }}
",
            )
            .build()
    }

    #[test]
    fn single_if_files_compile_to_gated_plans() {
        let compiled = gated_chart().compile().expect("compiles");
        let file = &compiled.root.files.as_ref().expect("root compiles")[0];
        assert!(
            matches!(file.plan, RenderPlan::Gated { .. }),
            "netpol-shaped template should compile to a gated plan, got {:?}",
            file.plan
        );
    }

    #[test]
    fn gated_plans_pick_the_taken_branch() {
        let chart = gated_chart();
        let compiled = chart.compile().expect("compiles");
        for release in [
            Release::new("on", "apps"),
            Release::new("off", "prod")
                .with_values_yaml("gate:\n  enabled: false\n")
                .unwrap(),
        ] {
            let naive = chart.render(&release).expect("per-call render");
            let replay = compiled.render(&release).expect("compiled render");
            assert_eq!(bytes(&naive), bytes(&replay), "release {}", release.name);
            let expected = if release.name == "on" {
                "gated-on"
            } else {
                "gated-off"
            };
            assert_eq!(replay.objects[0].meta().name, expected);
        }
    }

    #[test]
    fn gated_plans_fall_through_to_surrounding_text() {
        // No `else`: a false condition leaves only the surrounding
        // whitespace, which renders no objects — same as the oracle.
        let chart = Chart::builder("gated")
            .values_yaml("gate:\n  enabled: false\n")
            .unwrap()
            .template(
                "gate.yaml",
                "{{- if .Values.gate.enabled }}\napiVersion: v1\nkind: Service\n\
                 metadata:\n  name: g\nspec:\n  selector:\n    app: g\n  ports:\n\
                 \x20   - port: 1\n{{- end }}\n",
            )
            .build();
        let compiled = chart.compile().expect("compiles");
        let release = Release::new("r", "default");
        let naive = chart.render(&release).expect("per-call render");
        let replay = compiled.render(&release).expect("compiled render");
        assert_eq!(bytes(&naive), bytes(&replay));
        assert!(replay.objects.is_empty());
    }

    #[test]
    fn gated_errors_surface_only_when_the_branch_is_taken() {
        // A branch outcome that fails to decode keeps the file on the
        // dynamic plan, so the error appears at render time iff the branch
        // is taken — exactly the oracle's timing.
        let chart = Chart::builder("gated")
            .template("gate.yaml", "{{ if .Values.bad }}kind: Pod\n{{ end }}")
            .build();
        let compiled = chart.compile().expect("bad branches do not fail compile");
        assert!(compiled.render(&Release::new("ok", "default")).is_ok());
        let broken = Release::new("bad", "default")
            .with_values_yaml("bad: true\n")
            .unwrap();
        assert!(
            chart.render(&broken).is_err(),
            "oracle rejects the taken branch"
        );
        assert!(compiled.render(&broken).is_err(), "compiled path matches");
    }

    #[test]
    fn object_sourced_templates_compile_without_decoding() {
        let svc = Object::decode(
            &ij_yaml::parse(
                "apiVersion: v1\nkind: Service\nmetadata:\n  name: obj-svc\n\
                 spec:\n  selector:\n    app: d\n  ports:\n    - port: 9\n",
            )
            .unwrap(),
        )
        .unwrap();
        let chart = Chart::builder("objsrc")
            .template_object("00-svc.yaml", svc.clone())
            .build();
        let compiled = chart.compile().expect("compiles");
        let release = Release::new("r", "prod");

        // The file shares the chart's typed object: nothing is encoded,
        // decoded or even cloned at compile time.
        let (TemplateSource::Object(source), RenderPlan::Object(planned)) = (
            &chart.templates[0].1,
            &compiled.root.files.as_ref().expect("root compiles")[0].plan,
        ) else {
            panic!("object source should compile to an object plan");
        };
        assert!(Arc::ptr_eq(source, planned));

        // The text oracle and the compiled path agree, and the release
        // namespace is stamped.
        let naive = chart.render(&release).expect("text path renders");
        let replay = compiled.render(&release).expect("compiled render");
        assert_eq!(bytes(&naive), bytes(&replay));
        assert_eq!(replay.objects[0].meta().namespace, "prod");
    }
}
