//! The `charts` workload: every chart under `fixtures/charts/`, loaded
//! from disk and analyzed as `ij analyze` does it, plus the two legs
//! `ij conform` adds on the same layers (the rendered manifest stream
//! parsed and decoded back, and the cluster's `PolicyIndex`). Synthetic
//! apps never reach YAML parsing, template compilation or `fsload`; this
//! workload does. The seed only sets the visit order of each pass.

use crate::trace::{self, Aggregate, LayerCounts, LayerId, Layers, Tracer};
use crate::{
    analyze_app, beside_reference, counts_diff, counts_note, median, per_layer_metrics,
    rule_layers, splitmix, timed_setups, EndToEnd, RunResult, Traced, Window, WorkCounts,
};
use ij_chart::{Chart, CompiledChart, Release, RenderScratch};
use ij_cluster::{Cluster, ClusterConfig};
use ij_core::{chart_defines_network_policies, Analyzer};
use ij_datasets::{run_conformance, ChartStatus};
use ij_model::Object;
use ij_probe::{HostBaseline, RuntimeAnalyzer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The fixture charts, relative to the checkout root.
pub const FIXTURES: &str = "fixtures/charts";

/// Passes over every chart per measurement window.
pub const PASSES_PER_WINDOW: u64 = 50;

/// The committed conformance artifact a fresh conformance run must equal.
pub const EXPECTATIONS: &str = "CONFORMANCE.json";

/// What the conformance run says a chart yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Conformant: this many findings.
    Findings(usize),
    /// Unsupported: fails with this typed error (`<stage>: <message>`).
    Unsupported(String),
}

/// The discovered charts with their expectations.
pub struct Charts {
    pub dirs: Vec<(String, PathBuf)>,
    pub expected: Vec<Expect>,
    pub analyzer: Analyzer,
}

/// A typed failure: the stage it surfaced in and its message.
pub type ChartError = (&'static str, String);

/// Discovers the charts with one conformance run (`ij conform`), requires
/// its JSON to equal the committed `CONFORMANCE.json` byte for byte (the
/// gate CI applies), takes each chart's expectation from it, and makes one
/// checked warm-up pass.
pub fn setup(rules: &[LayerId]) -> Result<Charts, String> {
    let report = run_conformance(Path::new(FIXTURES)).map_err(|e| e.to_string())?;
    let committed = std::fs::read_to_string(EXPECTATIONS)
        .map_err(|e| format!("cannot read {EXPECTATIONS}: {e}"))?;
    if report.to_json() != committed {
        return Err(format!(
            "{EXPECTATIONS} differs from a fresh conformance run over {FIXTURES}"
        ));
    }
    let (mut dirs, mut expected) = (Vec::new(), Vec::new());
    for chart in report.charts {
        expected.push(match chart.status {
            ChartStatus::Conformant => Expect::Findings(chart.findings),
            ChartStatus::Unsupported { feature } => Expect::Unsupported(feature),
            ChartStatus::Divergent { check, detail } => {
                return Err(format!("{}: divergent {check}: {detail}", chart.chart))
            }
        });
        let dir = Path::new(FIXTURES).join(&chart.chart);
        dirs.push((chart.chart, dir));
    }
    let charts = Charts {
        dirs,
        expected,
        analyzer: Analyzer::hybrid(),
    };
    let mut off = Tracer::disabled();
    for i in 0..charts.dirs.len() {
        charts.check(
            i,
            &charts.analyze(&mut off, i, rules, &mut WorkCounts::default()),
        )?;
    }
    Ok(charts)
}

impl Charts {
    /// Loads chart `i` and analyzes it; `Ok` holds its findings count.
    pub fn analyze(
        &self,
        tr: &mut Tracer,
        i: usize,
        rules: &[LayerId],
        work: &mut WorkCounts,
    ) -> Result<usize, ChartError> {
        let u = i as u32;
        let chart = tr
            .span(trace::FSLOAD, u, |_| Chart::from_dir(&self.dirs[i].1))
            .map_err(|e| ("ingest", e.to_string()))?;
        let compiled = tr
            .span(trace::COMPILE, u, |_| CompiledChart::compile(&chart))
            .map_err(|e| ("render", e.to_string()))?;
        let release = Release::new(&chart.name, "default");
        let mut objects = Vec::new();
        let mut scratch = RenderScratch::default();
        tr.span(trace::RENDER, u, |_| {
            compiled.render_objects_into(&release, &mut scratch, &mut objects)
        })
        .map_err(|e| ("render", e.to_string()))?;

        // The manifest stream `ij render` prints, parsed and decoded back.
        let manifests: Vec<String> = objects.iter().map(Object::to_manifest).collect();
        let stream: String = manifests.iter().map(|m| format!("---\n{m}")).collect();
        let docs = tr
            .span(trace::YAML_PARSE, u, |_| ij_yaml::parse_all(&stream))
            .map_err(|e| ("reparse", e.to_string()))?;
        let decoded = tr
            .span(trace::MODEL_DECODE, u, |_| {
                docs.iter()
                    .filter(|d| !d.is_null())
                    .map(Object::decode)
                    .collect::<Result<Vec<Object>, _>>()
            })
            .map_err(|e| ("decode", e.to_string()))?;
        if decoded
            .iter()
            .map(Object::to_manifest)
            .ne(manifests.iter().cloned())
        {
            return Err(("reparse", "manifest stream does not decode back".into()));
        }

        let mut cluster = tr.span(trace::CLUSTER_NEW, u, |_| {
            Cluster::new(ClusterConfig::default())
        });
        let baseline = tr.span(trace::BASELINE, u, |_| HostBaseline::capture(&cluster));
        tr.span(trace::INSTALL, u, |_| {
            cluster.install_objects(&chart.name, &objects)
        })
        .map_err(|e| ("install", e.to_string()))?;
        let index = tr.span(trace::POLICY_INDEX, u, |_| cluster.policy_index());
        if index.pod_count() != cluster.pods().len() {
            return Err(("policy-index", "index does not cover every pod".into()));
        }
        let runtime = tr.span(trace::RUNTIME, u, |_| {
            RuntimeAnalyzer::default().analyze(&mut cluster, &baseline)
        });
        let findings = tr.span(trace::RULES, u, |tr| {
            analyze_app(
                tr,
                u,
                &self.analyzer,
                rules,
                &chart.name,
                &objects,
                &cluster,
                Some(&runtime),
                chart_defines_network_policies(&chart),
            )
        });
        work.objects_rendered += objects.len() as u64;
        work.pods_installed += cluster.pods().len() as u64;
        work.sockets_probed += (runtime.stable_count() + runtime.dynamic_count()) as u64;
        work.findings += findings.len() as u64;
        Ok(findings.len())
    }

    /// The output check against `CONFORMANCE.json`.
    pub fn check(&self, i: usize, outcome: &Result<usize, ChartError>) -> Result<(), String> {
        let name = &self.dirs[i].0;
        match (&self.expected[i], outcome) {
            (Expect::Findings(n), Ok(k)) if n == k => Ok(()),
            (Expect::Unsupported(feature), Err((stage, message))) => {
                let got = format!("{stage}: {}", message.replace(&format!("{FIXTURES}/"), ""));
                if &got == feature {
                    Ok(())
                } else {
                    Err(format!("{name}: expected `{feature}`, got `{got}`"))
                }
            }
            (expected, got) => Err(format!("{name}: expected {expected:?}, got {got:?}")),
        }
    }

    /// The visit order of pass `pass`: a seeded shuffle.
    pub fn order(&self, seed: u64, pass: u64) -> Vec<usize> {
        let mut state = seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut order: Vec<usize> = (0..self.dirs.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Runs the workload for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace_on: bool) -> RunResult {
    let mut result = RunResult::default();
    let mut layers = Layers::default();
    let rules = rule_layers(&mut layers, &Analyzer::hybrid());
    let (charts, setups) = match timed_setups(|| setup(&rules)) {
        Ok(done) => done,
        Err(e) => {
            result.notes.push(format!("set-up failed: {e}"));
            return result;
        }
    };
    result.notes.push(format!("setup_s samples: {setups:?}"));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let record = |result: &mut RunResult, i: usize, outcome: &Result<usize, ChartError>| {
        result.attempted += 1;
        if let Err(e) = charts.check(i, outcome) {
            result.failed += 1;
            result.notes.push(format!("check failed: {e}"));
        }
    };

    if !trace_on {
        let mut off = Tracer::disabled();
        let mut e2e = EndToEnd {
            setups_s: setups,
            ..EndToEnd::default()
        };
        let mut pass = 0;
        while pass == 0 || Instant::now() < deadline {
            let mut window = Window::default();
            let ((), _, reference_ns) = beside_reference(|| {
                for _ in 0..PASSES_PER_WINDOW {
                    for i in charts.order(seed, pass) {
                        let start = Instant::now();
                        let outcome =
                            charts.analyze(&mut off, i, &rules, &mut WorkCounts::default());
                        let latency = start.elapsed().as_nanos() as f64;
                        window.ops += 1;
                        window.busy_ns += latency;
                        window.latencies_ns.push(latency);
                        record(&mut result, i, &outcome);
                    }
                    pass += 1;
                }
            });
            window.reference_ns = reference_ns;
            e2e.push(window);
            if let Err(e) = e2e.retime_setup(|| setup(&rules)) {
                result.failed += 1;
                result.notes.push(format!("set-up failed: {e}"));
            }
        }
        result.notes.push(e2e.windows_note());
        result.metrics = e2e.metrics();
        result.correct = result.failed == 0;
        return result;
    }

    // Traced: each pass runs traced, then untraced in the same order; both
    // must give the same outcome per chart.
    let mut agg = Aggregate::default();
    let mut first: Option<(LayerCounts, WorkCounts)> = None;
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut off = Tracer::disabled();
    let mut pass = 0;
    while pass == 0 || Instant::now() < deadline {
        let mut tr = Tracer::new(Instant::now());
        let mut work = WorkCounts::default();
        for i in charts.order(seed, pass) {
            let start = Instant::now();
            let traced = charts.analyze(&mut tr, i, &rules, &mut work);
            traced_ns.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            let untraced = charts.analyze(&mut off, i, &rules, &mut WorkCounts::default());
            untraced_ns.push(start.elapsed().as_nanos() as f64);
            record(&mut result, i, &traced);
            if traced != untraced {
                result.failed += 1;
                result
                    .notes
                    .push(format!("faithfulness failed on {}", charts.dirs[i].0));
            }
        }
        let mut this = Aggregate::default();
        this.add(&tr.spans);
        agg.add(&tr.spans);
        match &first {
            None => {
                first = Some((this.repeatable_counts(), work));
                let path = PathBuf::from(crate::OUT_DIR).join("charts.spans.tsv");
                if let Err(e) = trace::write_tsv(&path, &layers, &[(0, &tr.spans)]) {
                    result
                        .notes
                        .push(format!("cannot write {}: {e}", path.display()));
                }
            }
            Some((counts, w)) => {
                if *counts != this.repeatable_counts() || *w != work {
                    result.failed += 1;
                    result.notes.push(format!(
                        "determinism failed: {}",
                        counts_diff(&layers, counts, &this.repeatable_counts())
                    ));
                }
            }
        }
        pass += 1;
    }
    let (traced, untraced) = (median(&traced_ns), median(&untraced_ns));
    let work = first.as_ref().map(|(_, w)| w.clone()).unwrap_or_default();
    if let Some((counts, w)) = &first {
        result.notes.push(counts_note(&layers, counts, w));
    }
    result.metrics = per_layer_metrics(&Traced {
        layers,
        agg,
        work,
        pipeline_ns: 0,
        thread_ns: 0,
        units: pass * charts.dirs.len() as u64,
        overhead_pct: if untraced > 0.0 {
            100.0 * (traced - untraced) / untraced
        } else {
            0.0
        },
    });
    result.correct = result.failed == 0;
    result
}
