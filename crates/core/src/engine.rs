//! The analysis engine: combines static extraction and runtime observation
//! and evaluates the rules (§4.2.1) by iterating the [`RuleRegistry`].

use crate::compact::{m4_global_collisions_compact, GlobalAppModel};
use crate::finding::{sort_canonical, Finding};
use crate::model::StaticModel;
use crate::registry::{RuleRegistry, RuleScope};
use crate::rules::{AppView, RuleContext};
use crate::symtab::SymbolTable;
use ij_chart::Chart;
use ij_cluster::Cluster;
use ij_model::Object;
use ij_probe::RuntimeReport;

/// Which halves of the hybrid pipeline run — the Table 3 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerOptions {
    /// Evaluate rules over the rendered configuration (M4, M5B/M5D, M6, M7,
    /// and the static half of M5A/M5C).
    pub static_rules: bool,
    /// Evaluate rules over runtime observations (M1, M2, M3, and the
    /// runtime half of M5A/M5C).
    pub runtime_rules: bool,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            static_rules: true,
            runtime_rules: true,
        }
    }
}

/// The misconfiguration analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Enabled rule groups.
    pub options: AnalyzerOptions,
    /// The rules to evaluate. Defaults to [`RuleRegistry::standard`];
    /// disable or replace entries for per-rule ablations and custom rules.
    pub registry: RuleRegistry,
}

impl Analyzer {
    /// The full hybrid analyzer (the paper's solution).
    pub fn hybrid() -> Self {
        Analyzer::default()
    }

    /// Static-only, like manifest linters.
    pub fn static_only() -> Self {
        Analyzer {
            options: AnalyzerOptions {
                static_rules: true,
                runtime_rules: false,
            },
            ..Analyzer::default()
        }
    }

    /// Runtime-only, like cluster scanners that never parse charts.
    pub fn runtime_only() -> Self {
        Analyzer {
            options: AnalyzerOptions {
                static_rules: false,
                runtime_rules: true,
            },
            ..Analyzer::default()
        }
    }

    /// Analyzes one installed application.
    ///
    /// * `objects` — the rendered objects of the application (for the
    ///   per-app methodology this is everything in the cluster);
    /// * `cluster` — the cluster the application runs in (pod ownership);
    /// * `runtime` — the probe's report, or `None` in static-only mode;
    /// * `chart_defines_policies` — whether the chart's template set defines
    ///   NetworkPolicy resources (see [`chart_defines_network_policies`]).
    pub fn analyze_app(
        &self,
        app: &str,
        objects: &[Object],
        cluster: &Cluster,
        runtime: Option<&RuntimeReport>,
        chart_defines_policies: bool,
    ) -> Vec<Finding> {
        let statics = StaticModel::from_objects(objects);
        self.analyze_model(app, &statics, cluster, runtime, chart_defines_policies)
    }

    /// [`analyze_app`](Self::analyze_app) over an already-built static
    /// model, for callers that keep the model for the cluster-wide pass.
    pub fn analyze_model(
        &self,
        app: &str,
        statics: &StaticModel,
        cluster: &Cluster,
        runtime: Option<&RuntimeReport>,
        chart_defines_policies: bool,
    ) -> Vec<Finding> {
        let runtime = if self.options.runtime_rules {
            runtime
        } else {
            None
        };
        // Only runtime rules read pod ownership; skip the per-pod table
        // otherwise.
        let ownership: Vec<(String, String)> = match runtime {
            Some(_) => cluster
                .pods()
                .iter()
                .map(|p| {
                    let name = p.qualified_name();
                    (name.clone(), p.owner.clone().unwrap_or(name))
                })
                .collect(),
            None => Vec::new(),
        };
        let ctx = RuleContext {
            app,
            statics,
            runtime,
            ownership: &ownership,
            chart_defines_policies,
        };
        let view = AppView::new(&ctx);

        let mut findings = Vec::new();
        for entry in self.registry.entries() {
            if !entry.is_enabled() || entry.is_global() {
                continue;
            }
            let runnable = match entry.scope() {
                RuleScope::Runtime => runtime.is_some(),
                RuleScope::Static => self.options.static_rules,
            };
            if runnable {
                findings.extend(entry.run_view(&view));
            }
        }
        sort_canonical(&mut findings);
        findings
    }

    /// True when the cluster-wide pass has a rule to run: static rules are
    /// on and a global rule (M4\*) is enabled. Callers that keep interned
    /// models for [`m4_global_collisions_compact`](crate::m4_global_collisions_compact)
    /// decide with this whether to keep them at all.
    pub fn runs_global(&self) -> bool {
        self.options.static_rules
            && self
                .registry
                .entries()
                .iter()
                .any(|e| e.is_enabled() && e.is_global())
    }

    /// The cluster-wide pass (§4.2.1): after every application has been
    /// analyzed individually, check labels and selectors *across*
    /// applications — the registry's global M4\* collision rule. Interns
    /// the models into a scratch [`SymbolTable`] and runs
    /// [`m4_global_collisions_compact`], the pass the census and the
    /// incremental auditor drive over their own interned models.
    pub fn analyze_global(&self, apps: &[(String, StaticModel)]) -> Vec<Finding> {
        if !self.runs_global() {
            return Vec::new();
        }
        let mut table = SymbolTable::new();
        let models: Vec<GlobalAppModel> = apps
            .iter()
            .map(|(app, model)| GlobalAppModel::intern(app, model, &mut table))
            .collect();
        m4_global_collisions_compact(&models, &table)
    }
}

/// True when the chart (or any dependency) has a template that can render a
/// NetworkPolicy — the signal that separates "policies not defined" from
/// "policies defined but not enabled" in M6.
pub fn chart_defines_network_policies(chart: &Chart) -> bool {
    chart.templates.iter().any(|(_, src)| match src {
        ij_chart::TemplateSource::Text(s) => s.lines().any(is_network_policy_kind_line),
        ij_chart::TemplateSource::Object(o) => o.kind() == "NetworkPolicy",
    }) || chart
        .dependencies
        .iter()
        .any(|d| chart_defines_network_policies(&d.chart))
}

/// Whether one template line is the key `kind:` with the value
/// `NetworkPolicy`, plain or quoted, optionally followed by a comment.
/// Comment lines and other kinds (`NetworkPolicyList`) never match.
fn is_network_policy_kind_line(line: &str) -> bool {
    let Some(value) = line.trim().strip_prefix("kind:") else {
        return false;
    };
    // A YAML comment starts at a `#` preceded by whitespace; the value
    // itself must be separated from the key by whitespace.
    if !value.starts_with(char::is_whitespace) {
        return false;
    }
    let end = value
        .char_indices()
        .find(|&(i, c)| c == '#' && value[..i].ends_with(char::is_whitespace))
        .map_or(value.len(), |(i, _)| i);
    matches!(
        value[..end].trim(),
        "NetworkPolicy" | "\"NetworkPolicy\"" | "'NetworkPolicy'"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::MisconfigId;
    use ij_chart::Release;
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig, ContainerBehavior, ListenerSpec};
    use ij_probe::{HostBaseline, RuntimeAnalyzer};

    /// A deliberately misconfigured application exercising most rules:
    /// * container declares 6124 (never opened, untargeted → M3) and 6121
    ///   (never opened but service-targeted → M5A, not M3), omits 9249
    ///   (opened → M1), plus an ephemeral listener (→ M2);
    /// * two services hit the same workload (→ M4B) and one of them targets
    ///   the declared-but-closed 6121 (→ M5A);
    /// * another service has a selector matching nothing (→ M5D);
    /// * no NetworkPolicy (→ M6);
    /// * a hostNetwork exporter (→ M7).
    fn bad_chart() -> Chart {
        Chart::builder("badapp")
            .template(
                "deploy.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: flink
spec:
  selector:
    matchLabels:
      app: flink
  template:
    metadata:
      labels:
        app: flink
    spec:
      containers:
        - name: flink
          image: sim/flink
          ports:
            - containerPort: 6121
            - containerPort: 6123
            - containerPort: 6124
            - containerPort: 8081
",
            )
            .template(
                "exporter.yaml",
                "\
apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: exporter
spec:
  selector:
    matchLabels:
      app: exporter
  template:
    metadata:
      labels:
        app: exporter
    spec:
      hostNetwork: true
      containers:
        - name: exporter
          image: sim/exporter
          ports:
            - containerPort: 9100
",
            )
            .template(
                "svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: flink
spec:
  selector:
    app: flink
  ports:
    - port: 8081
---
apiVersion: v1
kind: Service
metadata:
  name: flink-admin
spec:
  selector:
    app: flink
  ports:
    - port: 6121
---
apiVersion: v1
kind: Service
metadata:
  name: ghost
spec:
  selector:
    app: nothing-matches
  ports:
    - port: 80
",
            )
            .build()
    }

    fn behaviors() -> BehaviorRegistry {
        let mut reg = BehaviorRegistry::new();
        // Flink opens 6123/8081 (declared), 9249 (undeclared), an ephemeral
        // port, but never 6121.
        reg.register(
            "sim/flink",
            ContainerBehavior::Listeners(vec![
                ListenerSpec::tcp(6123),
                ListenerSpec::tcp(8081),
                ListenerSpec::tcp(9249),
                ListenerSpec::ephemeral(),
            ]),
        );
        reg
    }

    fn run_analysis(analyzer: Analyzer) -> Vec<Finding> {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            seed: 11,
            behaviors: behaviors(),
        });
        let baseline = HostBaseline::capture(&cluster);
        let rendered = bad_chart()
            .render(&Release::new("badapp", "default"))
            .unwrap();
        cluster.install(&rendered).unwrap();
        let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
        let objects: Vec<Object> = cluster.objects().iter().cloned().collect();
        analyzer.analyze_app("badapp", &objects, &cluster, Some(&runtime), false)
    }

    fn ids(findings: &[Finding]) -> Vec<MisconfigId> {
        let mut v: Vec<MisconfigId> = findings.iter().map(|f| f.id).collect();
        v.dedup();
        v
    }

    #[test]
    fn hybrid_finds_all_injected_classes() {
        let findings = run_analysis(Analyzer::hybrid());
        let found = ids(&findings);
        for expect in [
            MisconfigId::M1,
            MisconfigId::M2,
            MisconfigId::M3,
            MisconfigId::M4B,
            MisconfigId::M5A,
            MisconfigId::M5D,
            MisconfigId::M6,
            MisconfigId::M7,
        ] {
            assert!(found.contains(&expect), "expected {expect} in {found:?}");
        }
        // The undeclared open port is exactly 9249.
        let m1: Vec<_> = findings
            .iter()
            .filter(|f| f.id == MisconfigId::M1)
            .collect();
        assert_eq!(m1.len(), 1);
        assert_eq!(m1[0].port, Some(9249));
        // The declared-but-closed *untargeted* port is exactly 6124; the
        // service-targeted 6121 is accounted as M5A instead (Table 2's
        // disjoint per-class counting).
        let m3: Vec<_> = findings
            .iter()
            .filter(|f| f.id == MisconfigId::M3)
            .collect();
        assert_eq!(m3.len(), 1);
        assert_eq!(m3[0].port, Some(6124));
        // M5A points at the service that targets 6121.
        let m5a: Vec<_> = findings
            .iter()
            .filter(|f| f.id == MisconfigId::M5A)
            .collect();
        assert_eq!(m5a.len(), 1);
        assert!(m5a[0].object.contains("flink-admin"));
    }

    #[test]
    fn static_only_misses_runtime_classes() {
        let findings = run_analysis(Analyzer::static_only());
        let found = ids(&findings);
        assert!(!found.contains(&MisconfigId::M1));
        assert!(!found.contains(&MisconfigId::M2));
        assert!(!found.contains(&MisconfigId::M3));
        assert!(!found.contains(&MisconfigId::M5A));
        assert!(found.contains(&MisconfigId::M4B));
        assert!(found.contains(&MisconfigId::M5D));
        assert!(found.contains(&MisconfigId::M6));
        assert!(found.contains(&MisconfigId::M7));
    }

    #[test]
    fn runtime_only_misses_relationship_classes() {
        let findings = run_analysis(Analyzer::runtime_only());
        let found = ids(&findings);
        assert!(found.contains(&MisconfigId::M1));
        assert!(found.contains(&MisconfigId::M2));
        assert!(found.contains(&MisconfigId::M3));
        assert!(!found.contains(&MisconfigId::M4B));
        assert!(!found.contains(&MisconfigId::M5D));
        assert!(!found.contains(&MisconfigId::M6));
        assert!(!found.contains(&MisconfigId::M7));
    }

    #[test]
    fn disabling_one_rule_drops_exactly_that_class() {
        let full = run_analysis(Analyzer::hybrid());
        let mut ablated = Analyzer::hybrid();
        ablated.registry.try_disable("m7").unwrap();
        let without = run_analysis(ablated);
        assert!(full.iter().any(|f| f.id == MisconfigId::M7));
        let expected: Vec<_> = full
            .iter()
            .filter(|f| f.id != MisconfigId::M7)
            .cloned()
            .collect();
        assert_eq!(
            without, expected,
            "disabling m7 must drop exactly the M7 findings"
        );
    }

    #[test]
    fn disabling_global_rule_silences_cluster_wide_pass() {
        let apps = vec![
            ("a".to_string(), StaticModel::default()),
            ("b".to_string(), StaticModel::default()),
        ];
        let mut analyzer = Analyzer::hybrid();
        analyzer.registry.try_disable("m4star").unwrap();
        assert!(analyzer.analyze_global(&apps).is_empty());
    }

    #[test]
    fn m6_distinguishes_disabled_from_missing() {
        let chart_with_disabled_policy = Chart::builder("p")
            .values_yaml("networkPolicy:\n  enabled: false\n")
            .unwrap()
            .template(
                "np.yaml",
                "\
{{- if .Values.networkPolicy.enabled }}
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: lock
spec:
  podSelector: {}
{{- end }}
",
            )
            .template(
                "pod.yaml",
                "\
apiVersion: v1
kind: Pod
metadata:
  name: p
  labels:
    app: p
spec:
  containers:
    - name: p
      image: img/p
",
            )
            .build();
        assert!(chart_defines_network_policies(&chart_with_disabled_policy));

        let mut cluster = Cluster::new(ClusterConfig::default());
        let rendered = chart_with_disabled_policy
            .render(&Release::new("p", "default"))
            .unwrap();
        cluster.install(&rendered).unwrap();
        let objects: Vec<Object> = cluster.objects().iter().cloned().collect();
        let findings = Analyzer::hybrid().analyze_app("p", &objects, &cluster, None, true);
        let m6: Vec<_> = findings
            .iter()
            .filter(|f| f.id == MisconfigId::M6)
            .collect();
        assert_eq!(m6.len(), 1);
        assert!(m6[0].detail.contains("not enabled"));
    }

    fn text_defines_policies(template: &str) -> bool {
        chart_defines_network_policies(&Chart::builder("c").template("t.yaml", template).build())
    }

    #[test]
    fn policy_kind_matches_quoted_spaced_and_commented_values() {
        for src in [
            "kind: NetworkPolicy\n",
            "kind: \"NetworkPolicy\"\n",
            "kind: 'NetworkPolicy'\n",
            "kind:  NetworkPolicy\n",
            "kind:\tNetworkPolicy\r\n",
            "  kind: NetworkPolicy   # the app's lock\n",
            "{{- if .Values.np }}\napiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\n{{- end }}\n",
        ] {
            assert!(text_defines_policies(src), "{src:?} defines a policy");
        }
    }

    #[test]
    fn policy_kind_ignores_comments_and_other_kinds() {
        for src in [
            "# kind: NetworkPolicy\n",
            "  #kind: NetworkPolicy\n",
            "kind: NetworkPolicyList\n",
            "kind: NetworkPolicy#x\n",
            "kind: Service # not a NetworkPolicy\n",
            "kind:NetworkPolicy\n",
            "kind: \"NetworkPolicy\n",
        ] {
            assert!(!text_defines_policies(src), "{src:?} defines no policy");
        }
    }

    #[test]
    fn policy_kind_of_object_sources_and_dependencies() {
        let policy = Object::NetworkPolicy(ij_model::NetworkPolicy::deny_all_ingress(
            ij_model::ObjectMeta::named("lock"),
            ij_model::LabelSelector::default(),
        ));
        let namespace = Object::Namespace(ij_model::ObjectMeta {
            namespace: String::new(),
            ..ij_model::ObjectMeta::named("apps")
        });
        let with_policy = Chart::builder("dep")
            .template_object("np.yaml", policy)
            .build();
        let app = || Chart::builder("app").template_object("ns.yaml", namespace.clone());
        assert!(chart_defines_network_policies(&with_policy));
        assert!(!chart_defines_network_policies(&app().build()));
        let mut parent = app().build();
        parent.dependencies.push(ij_chart::Dependency {
            chart: with_policy,
            condition: None,
        });
        assert!(chart_defines_network_policies(&parent));
    }

    #[test]
    fn global_pass_detects_cross_app_collisions() {
        let mk_model = |app: &str| {
            let chart = Chart::builder(app)
                .template(
                    "pod.yaml",
                    "\
apiVersion: v1
kind: Pod
metadata:
  name: APP-pod
  labels:
    app.kubernetes.io/part-of: shared-stack
spec:
  containers:
    - name: c
      image: img
"
                    .replace("APP", app),
                )
                .build();
            let rendered = chart.render(&Release::new(app, "default")).unwrap();
            StaticModel::from_objects(&rendered.objects)
        };
        let apps = vec![
            ("alpha".to_string(), mk_model("alpha")),
            ("beta".to_string(), mk_model("beta")),
        ];
        let findings = Analyzer::hybrid().analyze_global(&apps);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].id, MisconfigId::M4Star);
        assert!(findings[0].detail.contains("alpha"));
        assert!(findings[0].detail.contains("beta"));
    }
}
