//! Differential conformance over real on-disk charts.
//!
//! The analyzer's trustworthiness rests on a chain of equivalences: the
//! compiled render equals the naive render byte-for-byte, the value-tree
//! render equals the emit-and-reparse text path, the compiled policy index
//! answers exactly like the naive [`PolicyEngine`] oracle, and interned
//! findings carry the identity of their owned originals. Each link has its
//! own property tests over *generated* inputs; this module closes the loop
//! over *real* chart shapes: every fixture chart under a directory is pushed
//! through every pipeline pair and any disagreement is reported.
//!
//! The outcome per chart is total — there are no silent skips:
//!
//! * [`ChartStatus::Conformant`] — every differential check agreed;
//! * [`ChartStatus::Unsupported`] — the chart exercises a feature the
//!   engine deliberately rejects (YAML anchors, packed subcharts, unknown
//!   template functions, …); the typed error text is the named feature;
//! * [`ChartStatus::Divergent`] — two pipelines that must agree did not.
//!   This is always a bug.
//!
//! [`ConformanceReport::to_json`] renders a stable machine-readable
//! artifact (committed as `CONFORMANCE.json` and regression-checked like
//! the `BENCH_corpus.json` pins); [`ConformanceReport::to_markdown`] ranks
//! the losses — divergences first, then unsupported features by how many
//! charts they cost.

use ij_chart::{stamp_namespace, Chart, Release};
use ij_cluster::{Cluster, ClusterConfig, PolicyEngine};
use ij_core::{chart_defines_network_policies, Analyzer, CompactFinding, SymbolTable};
use ij_model::{NetworkPolicy, Object, Protocol};
use ij_probe::{HostBaseline, RuntimeAnalyzer};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Namespace every conformance release installs into; deliberately not
/// `default` so the namespace-stamping step of decode is exercised.
const CONFORM_NAMESPACE: &str = "conform";

/// Extra probe ports checked beyond the ports the chart's pods declare:
/// a well-known low port, a database port, and an ephemeral-range port.
const EXTRA_PORTS: [u16; 3] = [80, 5432, 40000];

/// Why a fixtures directory could not be walked at all.
#[derive(Debug)]
pub enum ConformanceError {
    /// The fixtures path is not a directory.
    NotADirectory(PathBuf),
    /// The fixtures directory holds no chart subdirectories.
    NoCharts(PathBuf),
    /// Reading the directory failed.
    Io(PathBuf, String),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::NotADirectory(p) => {
                write!(f, "{}: not a directory", p.display())
            }
            ConformanceError::NoCharts(p) => {
                write!(f, "{}: no chart directories found", p.display())
            }
            ConformanceError::Io(p, msg) => write!(f, "{}: {msg}", p.display()),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Terminal state of one chart's conformance run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChartStatus {
    /// Every differential check agreed.
    Conformant,
    /// The chart uses a feature the engine rejects with a typed error.
    Unsupported {
        /// The typed error text naming the rejected feature.
        feature: String,
    },
    /// Two pipelines that must agree disagreed — a bug, not a limitation.
    Divergent {
        /// Which differential check failed.
        check: String,
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl ChartStatus {
    /// Machine-readable status tag used in the JSON artifact.
    pub fn tag(&self) -> &'static str {
        match self {
            ChartStatus::Conformant => "conformant",
            ChartStatus::Unsupported { .. } => "unsupported",
            ChartStatus::Divergent { .. } => "divergent",
        }
    }
}

/// One chart's conformance outcome plus the work the checks covered.
#[derive(Debug, Clone)]
pub struct ChartConformance {
    /// Chart directory name (not the `Chart.yaml` name, which an
    /// unsupported chart may never surrender).
    pub chart: String,
    /// Terminal status.
    pub status: ChartStatus,
    /// Rendered objects (0 when the chart never rendered).
    pub objects: usize,
    /// Findings produced by the hybrid analyzer (and identity-checked).
    pub findings: usize,
    /// Policy verdicts compared between the index and the naive engine.
    pub verdicts: usize,
}

/// The full differential run over a fixtures directory.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Per-chart outcomes, sorted by chart name.
    pub charts: Vec<ChartConformance>,
}

impl ConformanceReport {
    /// Number of fully conformant charts.
    pub fn conformant(&self) -> usize {
        self.count(|s| matches!(s, ChartStatus::Conformant))
    }

    /// Number of charts rejected over an unsupported feature.
    pub fn unsupported(&self) -> usize {
        self.count(|s| matches!(s, ChartStatus::Unsupported { .. }))
    }

    /// Number of charts where two pipelines disagreed.
    pub fn divergent(&self) -> usize {
        self.count(|s| matches!(s, ChartStatus::Divergent { .. }))
    }

    fn count(&self, pred: impl Fn(&ChartStatus) -> bool) -> usize {
        self.charts.iter().filter(|c| pred(&c.status)).count()
    }

    /// True when every chart is conformant (no losses at all).
    pub fn all_conformant(&self) -> bool {
        self.conformant() == self.charts.len()
    }

    /// Stable machine-readable JSON (sorted charts, no timestamps), the
    /// `CONFORMANCE.json` regression artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"charts\": [\n");
        for (i, c) in self.charts.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"chart\": \"{}\",\n", escape(&c.chart)));
            out.push_str(&format!("      \"status\": \"{}\",\n", c.status.tag()));
            match &c.status {
                ChartStatus::Unsupported { feature } => {
                    out.push_str(&format!("      \"feature\": \"{}\",\n", escape(feature)));
                }
                ChartStatus::Divergent { check, detail } => {
                    out.push_str(&format!("      \"check\": \"{}\",\n", escape(check)));
                    out.push_str(&format!("      \"detail\": \"{}\",\n", escape(detail)));
                }
                ChartStatus::Conformant => {}
            }
            out.push_str(&format!("      \"objects\": {},\n", c.objects));
            out.push_str(&format!("      \"findings\": {},\n", c.findings));
            out.push_str(&format!("      \"verdicts\": {}\n", c.verdicts));
            out.push_str(if i + 1 == self.charts.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n  \"summary\": {\n");
        out.push_str(&format!("    \"charts\": {},\n", self.charts.len()));
        out.push_str(&format!("    \"conformant\": {},\n", self.conformant()));
        out.push_str(&format!("    \"unsupported\": {},\n", self.unsupported()));
        out.push_str(&format!("    \"divergent\": {}\n", self.divergent()));
        out.push_str("  }\n}\n");
        out
    }

    /// The ranked markdown loss report (`CONFORMANCE.md`): divergences
    /// first (each one is a bug), then unsupported features ranked by the
    /// number of charts they cost, then the full per-chart table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Chart-ingestion conformance\n\n");
        out.push_str(&format!(
            "{} fixture chart(s): {} conformant, {} unsupported, {} divergent.\n\n",
            self.charts.len(),
            self.conformant(),
            self.unsupported(),
            self.divergent()
        ));

        out.push_str("## Divergences (bugs)\n\n");
        let divergent: Vec<_> = self
            .charts
            .iter()
            .filter_map(|c| match &c.status {
                ChartStatus::Divergent { check, detail } => Some((c, check, detail)),
                _ => None,
            })
            .collect();
        if divergent.is_empty() {
            out.push_str("None — every supported chart agreed across all pipeline pairs.\n\n");
        } else {
            for (c, check, detail) in divergent {
                out.push_str(&format!("* **{}** — `{}`: {}\n", c.chart, check, detail));
            }
            out.push('\n');
        }

        out.push_str("## Unsupported features (ranked by charts lost)\n\n");
        let mut features: Vec<(String, Vec<&str>)> = Vec::new();
        for c in &self.charts {
            if let ChartStatus::Unsupported { feature } = &c.status {
                match features.iter_mut().find(|(f, _)| f == feature) {
                    Some((_, charts)) => charts.push(&c.chart),
                    None => features.push((feature.clone(), vec![&c.chart])),
                }
            }
        }
        features.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
        if features.is_empty() {
            out.push_str("None — every fixture chart is fully supported.\n\n");
        } else {
            out.push_str("| charts lost | feature | charts |\n|---|---|---|\n");
            for (feature, charts) in &features {
                out.push_str(&format!(
                    "| {} | {} | {} |\n",
                    charts.len(),
                    feature.replace('|', "\\|"),
                    charts.join(", ")
                ));
            }
            out.push('\n');
        }

        out.push_str("## Per-chart results\n\n");
        out.push_str("| chart | status | objects | findings | verdicts |\n|---|---|---|---|---|\n");
        for c in &self.charts {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                c.chart,
                c.status.tag(),
                c.objects,
                c.findings,
                c.verdicts
            ));
        }
        out
    }
}

/// JSON string escaping for the hand-rolled artifact writer.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Walks every chart directory under `fixtures_dir` (sorted by name) and
/// runs the full differential battery on each.
pub fn run_conformance(fixtures_dir: &Path) -> Result<ConformanceReport, ConformanceError> {
    if !fixtures_dir.is_dir() {
        return Err(ConformanceError::NotADirectory(fixtures_dir.to_path_buf()));
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(fixtures_dir)
        .map_err(|e| ConformanceError::Io(fixtures_dir.to_path_buf(), e.to_string()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        return Err(ConformanceError::NoCharts(fixtures_dir.to_path_buf()));
    }
    let charts = dirs
        .iter()
        .map(|dir| conform_chart(dir, fixtures_dir))
        .collect();
    Ok(ConformanceReport { charts })
}

/// Strips the fixtures-directory prefix out of error text so the committed
/// artifact is byte-stable across checkouts.
fn relativize(message: String, fixtures_dir: &Path) -> String {
    let prefix = format!("{}/", fixtures_dir.display());
    message.replace(&prefix, "")
}

/// Runs the full differential battery on one chart directory.
fn conform_chart(dir: &Path, fixtures_dir: &Path) -> ChartConformance {
    let chart_name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string());
    let mut result = ChartConformance {
        chart: chart_name,
        status: ChartStatus::Conformant,
        objects: 0,
        findings: 0,
        verdicts: 0,
    };

    macro_rules! unsupported {
        ($stage:expr, $err:expr) => {{
            result.status = ChartStatus::Unsupported {
                feature: format!("{}: {}", $stage, relativize($err.to_string(), fixtures_dir)),
            };
            return result;
        }};
    }
    macro_rules! divergent {
        ($check:expr, $($detail:tt)*) => {{
            result.status = ChartStatus::Divergent {
                check: $check.to_string(),
                detail: format!($($detail)*),
            };
            return result;
        }};
    }

    // Ingest. A typed ingest error is an unsupported feature, not a bug.
    let chart = match Chart::from_dir(dir) {
        Ok(c) => c,
        Err(e) => unsupported!("ingest", e),
    };
    let release = Release::new(&chart.name, CONFORM_NAMESPACE);

    // Naive render is the reference; its failure marks the chart's template
    // feature set as unsupported (e.g. an unknown function).
    let naive = match chart.render(&release) {
        Ok(r) => r,
        Err(e) => unsupported!("render", e),
    };
    result.objects = naive.objects.len();

    // Compiled render must agree byte-for-byte wherever naive succeeded.
    let compiled = match chart.compile() {
        Ok(c) => c,
        Err(e) => divergent!("compile", "naive render succeeded but compile failed: {e}"),
    };
    let compiled_render = match compiled.render(&release) {
        Ok(r) => r,
        Err(e) => divergent!(
            "compiled-render",
            "naive render succeeded but compiled render failed: {e}"
        ),
    };
    let naive_manifests: Vec<String> = naive.objects.iter().map(|o| o.to_manifest()).collect();
    let compiled_manifests: Vec<String> = compiled_render
        .objects
        .iter()
        .map(|o| o.to_manifest())
        .collect();
    if naive_manifests != compiled_manifests {
        divergent!(
            "compiled-render",
            "compiled render produced {} object(s) vs naive {}; first mismatch: {}",
            compiled_manifests.len(),
            naive_manifests.len(),
            first_mismatch(&naive_manifests, &compiled_manifests)
        );
    }

    // Value-tree render: each document must survive emit + reparse exactly,
    // and decoding the stream under the release namespace must reproduce
    // the naive objects.
    let docs = match compiled.render_values(&release) {
        Ok(d) => d,
        Err(e) => divergent!(
            "render-values",
            "naive render succeeded but render_values failed: {e}"
        ),
    };
    let mut decoded_manifests = Vec::new();
    for doc in docs.iter().filter(|d| !d.is_null()) {
        let text = ij_yaml::to_string(doc);
        let back = match ij_yaml::parse(&text) {
            Ok(v) => v,
            Err(e) => divergent!(
                "value-fixpoint",
                "emitted document failed to reparse: {e}\n{text}"
            ),
        };
        if &back != doc {
            divergent!(
                "value-fixpoint",
                "document changed across emit+reparse:\n{text}"
            );
        }
        let mut obj = match Object::decode(&back) {
            Ok(o) => o,
            Err(e) => divergent!("value-decode", "document failed to decode: {e}\n{text}"),
        };
        stamp_namespace(&mut obj, CONFORM_NAMESPACE);
        decoded_manifests.push(obj.to_manifest());
    }
    if decoded_manifests != naive_manifests {
        divergent!(
            "render-values",
            "value-tree render decoded {} object(s) vs naive {}; first mismatch: {}",
            decoded_manifests.len(),
            naive_manifests.len(),
            first_mismatch(&naive_manifests, &decoded_manifests)
        );
    }

    // Install into a fresh simulated cluster. A denial is a feature gap of
    // the fixture (admission rejected it), not a pipeline divergence.
    let mut cluster = Cluster::new(ClusterConfig::default());
    let baseline = HostBaseline::capture(&cluster);
    if let Err(e) = cluster.install(&naive) {
        unsupported!("install", e);
    }

    // Policy-verdict parity: the compiled index vs the naive engine, for
    // every ordered pod pair over the declared container ports plus probes.
    let policies: Vec<NetworkPolicy> = cluster.network_policies().into_iter().cloned().collect();
    let engine = PolicyEngine::new(&policies, cluster.namespace_labels());
    let index = cluster.policy_index();
    let mut ports: BTreeSet<u16> = EXTRA_PORTS.into_iter().collect();
    for pod in cluster.pods() {
        for container in &pod.pod.spec.containers {
            for port in &container.ports {
                ports.insert(port.container_port);
            }
        }
    }
    for src in cluster.pods() {
        let Some(si) = index.pod_index(&src.qualified_name()) else {
            divergent!(
                "policy-index",
                "{} missing from the index",
                src.qualified_name()
            );
        };
        for dst in cluster.pods() {
            let Some(di) = index.pod_index(&dst.qualified_name()) else {
                divergent!(
                    "policy-index",
                    "{} missing from the index",
                    dst.qualified_name()
                );
            };
            for &port in &ports {
                for protocol in [Protocol::Tcp, Protocol::Udp] {
                    let fast = index.verdict(si, di, port, protocol);
                    let slow = engine.verdict(src, dst, port, protocol);
                    result.verdicts += 1;
                    if fast != slow {
                        divergent!(
                            "policy-verdict",
                            "{} -> {} :{port}/{protocol:?}: index={fast:?} engine={slow:?}",
                            src.qualified_name(),
                            dst.qualified_name()
                        );
                    }
                }
            }
        }
    }

    // Finding-identity parity: interning a finding and resolving it back
    // must preserve both the value and the 64-bit identity.
    let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
    let findings = Analyzer::hybrid().analyze_app(
        &chart.name,
        &naive.objects,
        &cluster,
        Some(&runtime),
        chart_defines_network_policies(&chart),
    );
    result.findings = findings.len();
    let mut table = SymbolTable::default();
    for finding in &findings {
        let compact = CompactFinding::intern(finding, &mut table);
        if compact.identity(&table) != finding.identity() {
            divergent!(
                "finding-identity",
                "{}: interned identity {:#x} != owned identity {:#x}",
                finding.object,
                compact.identity(&table),
                finding.identity()
            );
        }
        let resolved = compact.resolve(&table);
        if &resolved != finding {
            divergent!(
                "finding-identity",
                "{}: finding changed across intern+resolve",
                finding.object
            );
        }
    }

    result
}

/// Points at the first differing pair for a divergence message.
fn first_mismatch(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("object {i}:\n--- naive ---\n{x}\n--- other ---\n{y}");
        }
    }
    format!("lengths differ ({} vs {})", a.len(), b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ij-conform-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir scratch");
        dir
    }

    fn write(path: &Path, content: &str) {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }

    fn demo_chart(dir: &Path) {
        write(&dir.join("Chart.yaml"), "name: demo\nversion: 0.1.0\n");
        write(&dir.join("values.yaml"), "port: 8080\n");
        write(
            &dir.join("templates/deploy.yaml"),
            "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-app
spec:
  replicas: 1
  selector:
    matchLabels:
      app: demo
  template:
    metadata:
      labels:
        app: demo
    spec:
      containers:
        - name: app
          image: img/app
          ports:
            - containerPort: {{ .Values.port }}
",
        );
    }

    #[test]
    fn conformant_chart_reports_work_done() {
        let root = scratch("ok");
        demo_chart(&root.join("demo"));
        let report = run_conformance(&root).expect("runs");
        assert_eq!(report.charts.len(), 1);
        assert_eq!(report.charts[0].status, ChartStatus::Conformant);
        assert_eq!(report.charts[0].objects, 1);
        assert!(report.charts[0].verdicts > 0, "pods were compared");
        assert!(report.all_conformant());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unsupported_feature_is_reported_not_skipped() {
        let root = scratch("unsupported");
        demo_chart(&root.join("demo"));
        let bad = root.join("anchored");
        write(&bad.join("Chart.yaml"), "name: anchored\nversion: 0.1.0\n");
        write(&bad.join("values.yaml"), "a: &x\n  b: 1\n");
        let report = run_conformance(&root).expect("runs");
        assert_eq!(report.charts.len(), 2, "no silent skips");
        let anchored = &report.charts[0];
        assert_eq!(anchored.chart, "anchored");
        match &anchored.status {
            ChartStatus::Unsupported { feature } => {
                assert!(feature.contains("anchor"), "{feature}");
                assert!(
                    !feature.contains(&root.display().to_string()),
                    "paths are relativized for stable artifacts: {feature}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert!(!report.all_conformant());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_fixtures_directory_is_an_error() {
        let root = scratch("none");
        assert!(matches!(
            run_conformance(&root),
            Err(ConformanceError::NoCharts(_))
        ));
        assert!(matches!(
            run_conformance(&root.join("missing")),
            Err(ConformanceError::NotADirectory(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let report = ConformanceReport {
            charts: vec![
                ChartConformance {
                    chart: "a".into(),
                    status: ChartStatus::Conformant,
                    objects: 2,
                    findings: 1,
                    verdicts: 8,
                },
                ChartConformance {
                    chart: "b".into(),
                    status: ChartStatus::Unsupported {
                        feature: "uses \"quotes\"\nand newlines".into(),
                    },
                    objects: 0,
                    findings: 0,
                    verdicts: 0,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"status\": \"conformant\""));
        assert!(json.contains("uses \\\"quotes\\\"\\nand newlines"));
        assert!(json.contains("\"unsupported\": 1"));
        let md = report.to_markdown();
        assert!(md.contains("ranked by charts lost"));
        assert!(md.contains("| a | conformant | 2 | 1 | 8 |"));
    }
}
