//! Chart packaging and the render pipeline.

use crate::error::{Error, Result};
use crate::template::{build_root, parse_template, render_file, shared_defines};
use ij_model::Object;
use ij_yaml::{Map, Value};
use std::sync::Arc;

/// A packaged application: default values, templates, and dependencies.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Chart name (also the values key its parent scopes it under).
    pub name: String,
    /// Chart version string.
    pub version: String,
    /// Human description.
    pub description: String,
    /// Default values (the chart's `values.yaml`).
    pub values: Value,
    /// Templates as `(file name, source)` pairs, rendered in order.
    pub templates: Vec<(String, TemplateSource)>,
    /// Subchart dependencies.
    pub dependencies: Vec<Dependency>,
}

/// One template file's source material.
///
/// Charts loaded from disk or written by hand carry Helm-style template
/// `Text`. Programmatic builders (the generated corpus) that already hold a
/// typed manifest attach it as an `Object` instead: it renders exactly as the
/// text `ij_yaml::to_string(&obj.encode())` would, and the compiled render
/// layer clones it straight into the release without encoding, emitting,
/// parsing or decoding anything.
#[derive(Debug, Clone)]
pub enum TemplateSource {
    /// Helm-style template text, possibly containing actions.
    Text(String),
    /// A single typed manifest, shared: compiling the chart takes another
    /// handle instead of deep-cloning it.
    Object(Arc<Object>),
}

impl From<&str> for TemplateSource {
    fn from(s: &str) -> Self {
        TemplateSource::Text(s.to_string())
    }
}

impl From<String> for TemplateSource {
    fn from(s: String) -> Self {
        TemplateSource::Text(s)
    }
}

/// A dependency entry: a subchart plus an optional enable condition.
#[derive(Debug, Clone)]
pub struct Dependency {
    /// The dependent chart.
    pub chart: Chart,
    /// Dotted path into the *parent's* merged values (e.g.
    /// `postgresql.enabled`); when present and falsy the subchart is skipped.
    pub condition: Option<String>,
}

/// Installation parameters: release identity plus user value overrides.
#[derive(Debug, Clone)]
pub struct Release {
    /// Release name, usually interpolated into object names.
    pub name: String,
    /// Target namespace, stamped onto objects that do not set one.
    pub namespace: String,
    /// User-supplied values overlaid onto chart defaults.
    pub overrides: Value,
}

impl Release {
    /// A release with no value overrides.
    pub fn new(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        Release {
            name: name.into(),
            namespace: namespace.into(),
            overrides: Value::Map(Map::new()),
        }
    }

    /// Builder-style override attachment (must be a mapping).
    pub(crate) fn with_values(mut self, overrides: Value) -> Self {
        self.overrides = overrides;
        self
    }

    /// Parses override YAML and attaches it.
    pub fn with_values_yaml(self, yaml: &str) -> Result<Self> {
        let v = ij_yaml::parse(yaml).map_err(|e| Error::Values(e.to_string()))?;
        Ok(self.with_values(v))
    }
}

/// The outcome of rendering a chart for a release.
#[derive(Debug, Clone)]
pub struct RenderedRelease {
    /// Release name.
    pub release_name: String,
    /// Release namespace.
    pub namespace: String,
    /// Root chart name.
    pub chart_name: String,
    /// All decoded objects (root chart first, then dependencies in order).
    pub objects: Vec<Object>,
}

impl RenderedRelease {
    /// Objects of a given kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Object> {
        self.objects.iter().filter(move |o| o.kind() == kind)
    }
}

impl Chart {
    /// Starts a builder.
    pub fn builder(name: impl Into<String>) -> ChartBuilder {
        ChartBuilder {
            chart: Chart {
                name: name.into(),
                version: "0.1.0".to_string(),
                description: String::new(),
                values: Value::Map(Map::new()),
                templates: Vec::new(),
                dependencies: Vec::new(),
            },
        }
    }

    /// Renders the chart (and enabled dependencies) into typed objects.
    pub fn render(&self, release: &Release) -> Result<RenderedRelease> {
        let merged = merge_values(&self.values, &release.overrides)?;
        let mut objects = Vec::new();
        self.render_into(release, &merged, &mut objects)?;
        Ok(RenderedRelease {
            release_name: release.name.clone(),
            namespace: release.namespace.clone(),
            chart_name: self.name.clone(),
            objects,
        })
    }

    /// Compiles this chart for render-many workloads: every template file
    /// (including dependencies) is lexed and parsed exactly once, and
    /// action-free files are decoded to objects ahead of time. See
    /// [`CompiledChart`](crate::CompiledChart).
    pub fn compile(&self) -> Result<crate::CompiledChart> {
        crate::CompiledChart::compile(self)
    }

    /// Renders this chart with pre-merged `values`, appending objects.
    fn render_into(
        &self,
        release: &Release,
        values: &Value,
        objects: &mut Vec<Object>,
    ) -> Result<()> {
        // Two passes, like Helm: first collect every file's named partials
        // (so `_helpers.tpl` definitions are visible chart-wide), then
        // render the non-partial files against the shared set. The shared
        // set borrows the parsed partials and the root dot is built once
        // per chart level, so per-file work is evaluation only.
        let mut parsed = Vec::with_capacity(self.templates.len());
        for (tpl_name, source) in &self.templates {
            // Object sources carry no actions or partials; they are encoded
            // and emitted to text below so the oracle path still exercises
            // the full emit → parse → decode round trip.
            let template = match source {
                TemplateSource::Text(src) => Some(parse_template(tpl_name, src)?),
                TemplateSource::Object(_) => None,
            };
            parsed.push((tpl_name.as_str(), template));
        }
        let shared = shared_defines(parsed.iter().filter_map(|(_, t)| t.as_ref()));
        let root = build_root(
            values.clone(),
            &release.name,
            &release.namespace,
            &self.name,
            &self.version,
        );
        for (idx, (tpl_name, template)) in parsed.iter().enumerate() {
            // Underscore files only contribute partials.
            if is_partial_file(tpl_name) {
                continue;
            }
            let rendered = match (template, &self.templates[idx].1) {
                (Some(template), _) => render_file(tpl_name, template, &shared, &root)?,
                (None, TemplateSource::Object(obj)) => ij_yaml::to_string(&obj.encode()),
                (None, TemplateSource::Text(_)) => unreachable!("text sources are parsed"),
            };
            decode_rendered(tpl_name, &rendered, &release.namespace, objects)?;
        }
        for dep in &self.dependencies {
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
                .get(&dep.chart.name)
                .cloned()
                .unwrap_or(Value::Map(Map::new()));
            let sub_values = merge_values(&dep.chart.values, &scoped)?;
            dep.chart.render_into(release, &sub_values, objects)?;
        }
        Ok(())
    }
}

/// Whether a template file only contributes partials (Helm's convention:
/// the *basename* starts with `_`, wherever the file sits in `templates/`).
pub(crate) fn is_partial_file(tpl_name: &str) -> bool {
    tpl_name
        .rsplit('/')
        .next()
        .is_some_and(|base| base.starts_with('_'))
}

/// Parses a rendered template's text into typed objects, stamping the
/// release namespace onto namespaced objects that do not set one (Helm's
/// behaviour). Shared by the per-render path and the compiled render layer.
pub(crate) fn decode_rendered(
    tpl_name: &str,
    rendered: &str,
    release_namespace: &str,
    objects: &mut Vec<Object>,
) -> Result<()> {
    if rendered.trim().is_empty() {
        return Ok(());
    }
    let docs = ij_yaml::parse_all(rendered).map_err(|e| Error::RenderedYaml {
        template: tpl_name.to_string(),
        source: e,
        rendered: rendered.to_string(),
    })?;
    for doc in docs.iter().filter(|d| !d.is_null()) {
        let mut obj = Object::decode(doc).map_err(|e| Error::Decode {
            template: tpl_name.to_string(),
            message: e.to_string(),
        })?;
        stamp_namespace(&mut obj, release_namespace);
        objects.push(obj);
    }
    Ok(())
}

/// Helm stamps the release namespace onto namespaced objects that do not
/// set one themselves.
pub(crate) fn stamp_namespace(obj: &mut Object, release_namespace: &str) {
    if obj.kind() != "Namespace" && obj.meta().namespace == "default" {
        obj.meta_mut().namespace = release_namespace.to_string();
    }
}

/// Deep-merges `overlay` onto `base`; both must be mappings (or null).
pub(crate) fn merge_values(base: &Value, overlay: &Value) -> Result<Value> {
    let mut out = match base {
        Value::Map(m) => m.clone(),
        Value::Null => Map::new(),
        _ => return Err(Error::Values("chart values must be a mapping".into())),
    };
    match overlay {
        Value::Map(m) => out.deep_merge(m),
        Value::Null => {}
        _ => return Err(Error::Values("override values must be a mapping".into())),
    }
    Ok(Value::Map(out))
}

/// Fluent chart construction, used by the dataset generators and tests.
pub struct ChartBuilder {
    chart: Chart,
}

impl ChartBuilder {
    /// Sets the chart version.
    pub fn version(mut self, v: impl Into<String>) -> Self {
        self.chart.version = v.into();
        self
    }

    /// Sets the chart description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.chart.description = d.into();
        self
    }

    /// Sets default values from parsed YAML.
    pub fn values(mut self, values: Value) -> Self {
        self.chart.values = values;
        self
    }

    /// Sets default values from YAML text.
    pub fn values_yaml(mut self, yaml: &str) -> Result<Self> {
        self.chart.values = ij_yaml::parse(yaml).map_err(|e| Error::Values(e.to_string()))?;
        Ok(self)
    }

    /// Adds a template from Helm-style text.
    pub fn template(mut self, name: impl Into<String>, source: impl Into<String>) -> Self {
        self.chart
            .templates
            .push((name.into(), TemplateSource::Text(source.into())));
        self
    }

    /// Adds a template as a typed manifest (one object per file).
    /// Equivalent to `template(name, obj.to_manifest())` for any object that
    /// survives the manifest round trip (`Object::decode(&obj.encode())`
    /// returns it unchanged, as it does for every object the corpus builder
    /// makes), but lets the compiled render layer skip encoding and decoding.
    pub fn template_object(mut self, name: impl Into<String>, obj: Object) -> Self {
        debug_assert_eq!(
            Object::decode(&obj.encode()).ok().as_ref(),
            Some(&obj),
            "template objects must survive the manifest round trip"
        );
        self.chart
            .templates
            .push((name.into(), TemplateSource::Object(Arc::new(obj))));
        self
    }

    /// Finishes the chart.
    pub fn build(self) -> Chart {
        self.chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_model::Object;

    fn web_chart() -> Chart {
        Chart::builder("web")
            .version("1.2.3")
            .values_yaml(
                "\
replicaCount: 2
service:
  port: 80
networkPolicy:
  enabled: false
",
            )
            .unwrap()
            .template(
                "deployment.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-web
spec:
  replicas: {{ .Values.replicaCount }}
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
        - name: web
          image: nginx:{{ .Chart.Version }}
          ports:
            - containerPort: 8080
",
            )
            .template(
                "service.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-web
spec:
  selector:
    app: web
  ports:
    - port: {{ .Values.service.port }}
      targetPort: 8080
",
            )
            .template(
                "netpol.yaml",
                "\
{{- if .Values.networkPolicy.enabled }}
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: {{ .Release.Name }}-web
spec:
  podSelector:
    matchLabels:
      app: web
  policyTypes:
    - Ingress
  ingress:
    - ports:
        - port: 8080
{{- end }}
",
            )
            .build()
    }

    #[test]
    fn renders_objects_with_defaults() {
        let r = web_chart().render(&Release::new("demo", "apps")).unwrap();
        assert_eq!(r.objects.len(), 2, "netpol disabled by default");
        let dep = r.of_kind("Deployment").next().unwrap();
        assert_eq!(dep.meta().name, "demo-web");
        assert_eq!(dep.meta().namespace, "apps");
        if let Object::Workload(w) = dep {
            assert_eq!(w.replicas, 2);
            assert_eq!(w.template.spec.containers[0].image, "nginx:1.2.3");
        } else {
            panic!("expected workload");
        }
    }

    #[test]
    fn overrides_enable_optional_resources() {
        let rel = Release::new("demo", "apps")
            .with_values_yaml("networkPolicy:\n  enabled: true\nreplicaCount: 5\n")
            .unwrap();
        let r = web_chart().render(&rel).unwrap();
        assert_eq!(r.objects.len(), 3);
        assert_eq!(r.of_kind("NetworkPolicy").count(), 1);
        if let Object::Workload(w) = r.of_kind("Deployment").next().unwrap() {
            assert_eq!(w.replicas, 5);
        };
    }

    #[test]
    fn dependency_scoping_and_conditions() {
        let db = Chart::builder("db")
            .values_yaml("port: 5432\n")
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
            .values_yaml("db:\n  enabled: true\n  port: 6543\n")
            .unwrap()
            .build();
        app.dependencies.push(Dependency {
            chart: db,
            condition: Some("db.enabled".into()),
        });

        let r = app.render(&Release::new("x", "default")).unwrap();
        assert_eq!(r.objects.len(), 1);
        if let Object::Service(s) = &r.objects[0] {
            // Parent override (6543) wins over subchart default (5432).
            assert_eq!(s.spec.ports[0].port, 6543);
        } else {
            panic!("expected service");
        }

        let rel = Release::new("x", "default")
            .with_values_yaml("db:\n  enabled: false\n")
            .unwrap();
        let r = app.render(&rel).unwrap();
        assert!(r.objects.is_empty());
    }

    #[test]
    fn invalid_rendered_yaml_is_reported_with_template_name() {
        let chart = Chart::builder("bad")
            .template(
                "broken.yaml",
                "kind: Service\nmetadata:\n name: x\n  nope: 1\n",
            )
            .build();
        let err = chart.render(&Release::new("r", "default")).unwrap_err();
        match err {
            Error::RenderedYaml { template, .. } => assert_eq!(template, "broken.yaml"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn explicit_namespace_is_preserved() {
        let chart = Chart::builder("ns")
            .template(
                "svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: pinned
  namespace: kube-system
spec:
  selector:
    app: pinned
  ports:
    - port: 1
",
            )
            .build();
        let r = chart.render(&Release::new("r", "apps")).unwrap();
        assert_eq!(r.objects[0].meta().namespace, "kube-system");
    }

    #[test]
    fn helpers_file_partials_available_chart_wide() {
        let chart = Chart::builder("helm-style")
            .template(
                "_helpers.tpl",
                "{{ define \"app.labels\" }}app.kubernetes.io/name: {{ .Release.Name }}\napp.kubernetes.io/managed-by: helm{{ end }}",
            )
            .template(
                "deploy.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}
spec:
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
            .template(
                "svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}
spec:
  selector:{{ include \"app.labels\" . | nindent 4 }}
  ports:
    - port: 80
",
            )
            .build();
        let rendered = chart.render(&Release::new("prod", "default")).unwrap();
        // The _helpers.tpl file itself renders nothing.
        assert_eq!(rendered.objects.len(), 2);
        let svc = rendered.of_kind("Service").next().unwrap();
        if let Object::Service(s) = svc {
            assert_eq!(s.spec.selector.get("app.kubernetes.io/name"), Some("prod"));
            assert_eq!(
                s.spec.selector.get("app.kubernetes.io/managed-by"),
                Some("helm")
            );
        } else {
            panic!("expected service");
        }
        let deploy = rendered.of_kind("Deployment").next().unwrap();
        if let Object::Workload(w) = deploy {
            assert!(w.selector.matches(&w.template.labels));
            assert_eq!(w.template.labels.len(), 2);
        } else {
            panic!("expected workload");
        }
    }

    #[test]
    fn empty_rendering_produces_no_objects() {
        let chart = Chart::builder("empty")
            .template("none.yaml", "{{ if .Values.never }}kind: Pod\n{{ end }}")
            .build();
        let r = chart.render(&Release::new("r", "default")).unwrap();
        assert!(r.objects.is_empty());
    }
}
