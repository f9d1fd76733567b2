//! The repository benchmark: four workloads over the analyzer's public
//! API, end-to-end metrics from untraced runs, per-layer metrics from a
//! separate traced run. See `perfbench/README.md` for the workloads, the
//! metrics and the layer table; `src/main.rs` is the command line.

pub mod alloc;
pub mod census;
pub mod charts;
pub mod churn;
pub mod trace;

use ij_cluster::Cluster;
use ij_core::{sort_canonical, Analyzer, Finding, RuleContext, RuleScope, StaticModel};
use ij_model::Object;
use ij_probe::RuntimeReport;
use std::time::{Duration, Instant};
use trace::{Aggregate, LayerCounts, LayerId, Layers, Tracer, FIXED_LAYERS, RULE_NAMES};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where span dumps go, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["census", "census-mesh-pack", "audit-churn", "charts"];

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (apps, mutations or charts, per workload).
    pub attempted: u64,
    /// Operations whose output check failed or that errored unexpectedly.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object, keys in contract order.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of a sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MB, when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The noise canary: a fixed `CorpusGenerator::spec` loop, independent of
/// the workload and its seed. A run whose canary reads slow ran on a
/// slowed CPU. Returns nanoseconds per generated spec.
pub fn canary_ns_per_spec() -> f64 {
    const SPECS: usize = 20_000;
    let generator = ij_datasets::CorpusGenerator::new(
        ij_datasets::CorpusProfile::named("baseline")
            .expect("baseline profile exists")
            .with_apps(SPECS)
            .with_seed(1),
    );
    let start = Instant::now();
    let mut components = 0usize;
    for i in 0..SPECS {
        components += std::hint::black_box(generator.spec(i))
            .plan
            .clean_components;
    }
    std::hint::black_box(components);
    start.elapsed().as_nanos() as f64 / SPECS as f64
}

/// Keys the reference loop inserts per call.
const REFERENCE_KEYS: u64 = 4_000;

/// The reference loop's time on a quiet two-core Xeon container, in
/// nanoseconds. Every end-to-end time is reported at this reference speed:
/// scaled by this over the reference loop's time measured around it.
pub const REFERENCE_NOMINAL_NS: f64 = 2.5e6;

/// Times the reference loop once, in nanoseconds. Its work is fixed and made
/// of the standard library alone — formatting, allocation, ordered-map
/// inserts and lookups, a sort — the operations the analyzer's layers spend
/// their time in, so no change to the repository's code moves it while a
/// slower or faster host moves it the way it moves the workloads.
pub fn reference_ns() -> f64 {
    let start = Instant::now();
    let mut map: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..REFERENCE_KEYS {
        let key = format!("release-{}/pod-{}", splitmix(&mut x) % 997, i % 61);
        map.entry(key).or_default().push(i);
    }
    let mut hits = 0u64;
    for i in 0..REFERENCE_KEYS {
        let key = format!("release-{}/pod-{}", i % 997, i % 61);
        hits += map.get(&key).map_or(0, |v| v.len() as u64);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    std::hint::black_box((hits, keys.len()));
    start.elapsed().as_nanos() as f64
}

/// Runs `f` between two reference loops; returns its result, its wall time
/// in nanoseconds, and the mean reference time around it.
pub fn beside_reference<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reference_ns();
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as f64;
    let after = reference_ns();
    (out, ns, (before + after) / 2.0)
}

/// Runs `f` beside the reference loop; returns its result and its time in
/// seconds at the reference speed.
pub fn timed_at_reference<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, ns, reference) = beside_reference(f);
    (out, ns * REFERENCE_NOMINAL_NS / reference / 1e9)
}

/// The span layer of every registry entry, in entry order.
pub fn rule_layers(layers: &mut Layers, analyzer: &Analyzer) -> Vec<LayerId> {
    analyzer
        .registry
        .entries()
        .iter()
        .map(|e| layers.id(&format!("core.rule.{}", e.name())))
        .collect()
}

/// `Analyzer::analyze_app`. With tracing on, its body is replayed from the
/// public parts it is made of (static model, pod ownership, one
/// `RuleEntry::run_app` per rule) so every rule gets its own span; the
/// workloads check that both forms return the same findings.
#[allow(clippy::too_many_arguments)]
pub fn analyze_app(
    tr: &mut Tracer,
    unit: u32,
    analyzer: &Analyzer,
    rule_layers: &[LayerId],
    app: &str,
    objects: &[Object],
    cluster: &Cluster,
    runtime: Option<&RuntimeReport>,
    defines_policies: bool,
) -> Vec<Finding> {
    if !tr.enabled() {
        return analyzer.analyze_app(app, objects, cluster, runtime, defines_policies);
    }
    let statics = StaticModel::from_objects(objects);
    let ownership: Vec<(String, String)> = cluster
        .pods()
        .iter()
        .map(|p| {
            let name = p.qualified_name();
            (name.clone(), p.owner.clone().unwrap_or(name))
        })
        .collect();
    let options = analyzer.options;
    let ctx = RuleContext {
        app,
        statics: &statics,
        runtime: if options.runtime_rules { runtime } else { None },
        ownership: &ownership,
        chart_defines_policies: defines_policies,
    };
    let mut findings = Vec::new();
    for (entry, &layer) in analyzer.registry.entries().iter().zip(rule_layers) {
        if !entry.is_enabled() || entry.is_global() {
            continue;
        }
        let runnable = match entry.scope() {
            RuleScope::Runtime => options.runtime_rules && runtime.is_some(),
            RuleScope::Static => options.static_rules,
        };
        if runnable {
            findings.extend(tr.span(layer, unit, |_| entry.run_app(&ctx)));
        }
    }
    sort_canonical(&mut findings);
    findings
}

/// A splitmix64 step: seeds visit orders without a dependency.
pub fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `setup` `SETUP_REPEATS` times, keeping the last result and the
/// set-up times at the reference speed.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (built, seconds) = timed_at_reference(&mut setup);
        last = Some(built?);
        times.push(seconds);
    }
    Ok((last.expect("at least one set-up ran"), times))
}

pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ns_per_op", "ns/op"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// One measurement window of an untraced run: a census call, or a fixed
/// number of chart passes or mutations.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub ops: u64,
    /// Time the window's operations took (excluding untimed checks).
    pub busy_ns: f64,
    /// Per-operation latencies in nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// The reference loop's mean time around the window.
    pub reference_ns: f64,
}

impl Window {
    /// The factor that takes the window's times to the reference speed.
    fn to_reference(&self) -> f64 {
        REFERENCE_NOMINAL_NS / self.reference_ns
    }
}

/// How often a run times its set-up again while it measures. The host's
/// state at one moment says little; set-ups spread over the whole run let
/// `setup_s` take its median over the whole run, as the windows do.
pub const SETUP_EVERY: Duration = Duration::from_secs(3);

/// End-to-end figures of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setups_s: Vec<f64>,
    pub windows: Vec<Window>,
    /// Peak RSS after set-up and the first `rss_after_windows` windows (at
    /// least one): a fixed amount of work. Read at the end instead if the
    /// run holds fewer windows.
    pub peak_rss_mb: f64,
    pub rss_after_windows: usize,
    next_setup: Option<Instant>,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let [setup, per_op, p50, p99, rss] = END_TO_END;
        // Time per operation is taken per window at the reference speed,
        // then the median over the run's windows (and set-ups): it ignores
        // stretches the reference loop misjudges that cover less than half
        // the run, and unlike a minimum it does not drift lower when a
        // faster commit fits more windows into the run.
        let per_op_ns: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.busy_ns / w.ops.max(1) as f64 * w.to_reference())
            .collect();
        // Latency percentiles pool every operation of the run, each at its
        // window's reference speed: a window of 200 mutations holds only
        // two samples above its own 99th percentile.
        let latencies_ns: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| {
                let k = w.to_reference();
                w.latencies_ns.iter().map(move |l| l * k)
            })
            .collect();
        let peak_rss = if self.peak_rss_mb > 0.0 {
            self.peak_rss_mb
        } else {
            peak_rss_mb().unwrap_or(0.0)
        };
        vec![
            Metric::new(setup.0, median(&self.setups_s), setup.1),
            Metric::new(per_op.0, median(&per_op_ns), per_op.1),
            Metric::new(p50.0, percentile(&latencies_ns, 50.0) / 1e3, p50.1),
            Metric::new(p99.0, percentile(&latencies_ns, 99.0) / 1e3, p99.1),
            Metric::new(rss.0, peak_rss, rss.1),
        ]
    }

    /// Per-window figures, one line, for judging the run's steadiness.
    pub fn windows_note(&self) -> String {
        let per_op: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{:.0}", w.busy_ns / w.ops.max(1) as f64))
            .collect();
        let refs: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{:.0}", w.reference_ns))
            .collect();
        format!(
            "set-ups: {}; windows: {} (ns/op each: {}) (ref each: {})",
            self.setups_s.len(),
            self.windows.len(),
            per_op.join(" "),
            refs.join(" ")
        )
    }

    /// Times `setup` once more (dropping what it builds) when
    /// [`SETUP_EVERY`] has passed since the last time.
    pub fn retime_setup<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        let now = Instant::now();
        let due = *self.next_setup.get_or_insert(now + SETUP_EVERY);
        if now < due {
            return Ok(());
        }
        let (built, seconds) = timed_at_reference(setup);
        built?;
        self.setups_s.push(seconds);
        self.next_setup = Some(Instant::now() + SETUP_EVERY);
        Ok(())
    }

    /// Records the peak RSS once, after `rss_after_windows` windows.
    pub fn push(&mut self, window: Window) {
        self.windows.push(window);
        if self.windows.len() == self.rss_after_windows.max(1) {
            self.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
        }
    }
}

/// Deterministic work counters a traced run collects besides its spans.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkCounts {
    pub objects_rendered: u64,
    pub pods_installed: u64,
    pub sockets_probed: u64,
    pub findings: u64,
    pub symbols: u64,
    pub arena_bytes: u64,
    /// Releases re-analyzed, summed over audit ticks.
    pub releases_reanalyzed: u64,
    pub ticks: u64,
}

/// Figures of one traced run, before they become metrics.
pub struct Traced {
    pub layers: Layers,
    pub agg: Aggregate,
    pub work: WorkCounts,
    /// Time outside every layer span (pool overhead and waiting), summed
    /// over the threads that ran layers, and the thread time it is a share
    /// of. Zero for workloads without a worker pool.
    pub pipeline_ns: u64,
    pub thread_ns: u64,
    /// Units of work (apps, mutations, charts) the traced run covered.
    pub units: u64,
    /// Traced minus untraced time per unit, as a share of untraced.
    pub overhead_pct: f64,
}

/// The per-layer metrics every traced run prints, absent layers as zero.
pub fn per_layer_metrics(t: &Traced) -> Vec<Metric> {
    let mut out = Vec::new();
    let stats = |name: &str| -> (u64, f64, f64, f64) {
        let id = t.layers.position(name);
        match id.and_then(|id| t.agg.get(id)) {
            Some(l) if l.ops > 0 => {
                let durations: Vec<f64> = l.durations.iter().map(|&d| d as f64).collect();
                (
                    l.ops,
                    l.self_ns as f64 / l.ops as f64,
                    percentile(&durations, 99.0),
                    l.self_allocs as f64 / l.ops as f64,
                )
            }
            _ => (0, 0.0, 0.0, 0.0),
        }
    };
    for name in FIXED_LAYERS {
        let (ops, self_ns, p99, allocs) = stats(name);
        out.push(Metric::new(format!("{name}.self_ns_per_op"), self_ns, "ns"));
        out.push(Metric::new(format!("{name}.p99_ns"), p99, "ns"));
        out.push(Metric::new(format!("{name}.ops"), ops as f64, "count"));
        out.push(Metric::new(
            format!("{name}.allocs_per_op"),
            allocs,
            "count",
        ));
    }
    for rule in RULE_NAMES {
        let name = format!("core.rule.{rule}");
        let (_, self_ns, _, allocs) = stats(&name);
        out.push(Metric::new(format!("{name}.self_ns_per_op"), self_ns, "ns"));
        out.push(Metric::new(
            format!("{name}.allocs_per_op"),
            allocs,
            "count",
        ));
    }
    let per_unit = |v: u64| v as f64 / t.units.max(1) as f64;
    out.push(Metric::new(
        "datasets.pipeline.self_ns_per_op",
        per_unit(t.pipeline_ns),
        "ns",
    ));
    out.push(Metric::new(
        "datasets.pipeline.share_pct",
        if t.thread_ns > 0 {
            100.0 * t.pipeline_ns as f64 / t.thread_ns as f64
        } else {
            0.0
        },
        "%",
    ));
    let w = &t.work;
    out.push(Metric::new(
        "work.objects_rendered",
        w.objects_rendered as f64,
        "count",
    ));
    out.push(Metric::new(
        "work.pods_installed",
        w.pods_installed as f64,
        "count",
    ));
    out.push(Metric::new(
        "work.sockets_probed",
        w.sockets_probed as f64,
        "count",
    ));
    out.push(Metric::new("work.findings", w.findings as f64, "count"));
    out.push(Metric::new("work.symbols", w.symbols as f64, "count"));
    out.push(Metric::new(
        "core.intern.arena_bytes",
        w.arena_bytes as f64,
        "B",
    ));
    out.push(Metric::new(
        "guard.tick.releases_per_tick",
        if w.ticks > 0 {
            w.releases_reanalyzed as f64 / w.ticks as f64
        } else {
            0.0
        },
        "count",
    ));
    out.push(Metric::new("trace.overhead_pct", t.overhead_pct, "%"));
    out
}

/// The deterministic counters of one traced pass, one line.
pub fn counts_note(layers: &Layers, counts: &LayerCounts, work: &WorkCounts) -> String {
    let per_layer: Vec<String> = counts
        .iter()
        .map(|(id, ops, allocs, bytes)| format!("{}={ops}/{allocs}/{bytes}", layers.name(*id)))
        .collect();
    format!(
        "counters (layer=ops/allocs/bytes): {} | {work:?}",
        per_layer.join(" ")
    )
}

/// The layers whose counters differ between two traced passes.
pub fn counts_diff(layers: &Layers, a: &LayerCounts, b: &LayerCounts) -> String {
    let changed: Vec<String> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| {
            format!(
                "{} {:?} -> {:?}",
                layers.name(x.0),
                (x.1, x.2, x.3),
                (y.1, y.2, y.3)
            )
        })
        .collect();
    format!("counters changed: {}", changed.join("; "))
}
