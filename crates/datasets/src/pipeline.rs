//! The unified census pipeline: a builder-configured front door to the
//! paper's evaluation (baseline → install → double-pass probe → rule
//! evaluation → cluster-wide pass) with typed errors and deterministic
//! parallel execution.
//!
//! ```
//! use ij_datasets::{corpus, CensusPipeline, Org};
//!
//! let specs: Vec<_> = corpus()
//!     .into_iter()
//!     .filter(|a| a.org == Org::Cncf)
//!     .collect();
//! let census = CensusPipeline::builder()
//!     .seed(42)
//!     .threads(4)
//!     .build()
//!     .run(&specs)
//!     .expect("the synthetic corpus renders and installs");
//! assert_eq!(census.apps.len(), specs.len());
//! ```
//!
//! One engine runs every census, whether the specs come from a slice or a
//! [`CorpusGenerator`]: workers claim spec indices from an atomic counter,
//! analyze each app in its own fresh cluster, and intern the report into
//! the shard that owns the index; a spec-order merge then builds one
//! [`CompactCensus`] and runs the interned M4\* pass. Every application owns
//! its seed (derived from the base seed and its name), so the result is
//! byte-identical for every `(threads, shards)` combination (enforced by
//! `tests/smoke.rs`, `tests/determinism.rs` and `tests/sharded_census.rs`).

use crate::builder::{build_app, BuiltApp};
use crate::codeploy::{co_deploy, declared, exposure, ATTACKER};
use crate::gen::CorpusGenerator;
use crate::runner::{AppAnalysis, CorpusOptions, PolicyImpact};
use crate::spec::AppSpec;
use ij_chart::{Release, RenderScratch};
use ij_cluster::{Cluster, ClusterConfig, InstallError};
use ij_core::{
    chart_defines_network_policies, m4_global_collisions_compact, sort_canonical_compact, Analyzer,
    Census, CompactAppReport, CompactCensus, CompactFinding, GlobalAppModel, RulePack, StaticModel,
    Sym, SymMemo, SymbolTable, UnknownRule,
};
use ij_model::Object;
use ij_probe::{HostBaseline, ProbeConfig, RuntimeAnalyzer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A failure on the corpus path, in the order the pipeline stages run.
/// Replaces the seed's `panic!`/`expect` calls on render and install.
#[derive(Debug)]
pub enum CensusError {
    /// The chart failed to render (template error, bad values, undecodable
    /// manifest).
    Render {
        /// Application whose chart failed.
        app: String,
        /// The underlying chart error.
        source: ij_chart::Error,
    },
    /// The cluster rejected the rendered objects at install time (e.g. an
    /// admission controller denied an object).
    Install {
        /// Application whose install failed.
        app: String,
        /// The underlying cluster error.
        source: InstallError,
    },
    /// The analysis could not produce a result for the application — a
    /// panic inside the probe or rule evaluation (e.g. from a custom
    /// registry rule) caught by the worker loop.
    Probe {
        /// Application whose probe failed.
        app: String,
        /// What went wrong.
        message: String,
    },
}

impl CensusError {
    /// The application the failure belongs to.
    pub fn app(&self) -> &str {
        match self {
            CensusError::Render { app, .. }
            | CensusError::Install { app, .. }
            | CensusError::Probe { app, .. } => app,
        }
    }
}

impl fmt::Display for CensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CensusError::Render { app, source } => {
                write!(f, "chart {app} failed to render: {source}")
            }
            CensusError::Install { app, source } => {
                write!(f, "chart {app} failed to install: {source}")
            }
            CensusError::Probe { app, message } => {
                write!(f, "probe failed for {app}: {message}")
            }
        }
    }
}

impl std::error::Error for CensusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CensusError::Render { source, .. } => Some(source),
            CensusError::Install { source, .. } => Some(source),
            CensusError::Probe { .. } => None,
        }
    }
}

/// One progress tick of a census run, delivered to the observer hook as
/// each application's analysis completes. Under parallel execution the
/// *completion order* follows worker scheduling (only the final census is
/// deterministic), so `completed / total` is the reliable signal here:
/// `completed` increases by one in call order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusProgress {
    /// Application that just finished.
    pub app: String,
    /// Analyses completed so far, including this one.
    pub completed: usize,
    /// Total applications in the run.
    pub total: usize,
}

/// The observer hook: shared so the pipeline stays cheap to clone. It runs
/// on the worker thread that finished the app, under the census's one
/// collector lock, so calls never overlap whatever the thread count.
pub type CensusObserver = Arc<dyn Fn(&CensusProgress) + Send + Sync>;

/// Wall-clock accumulators for the census phases, shared across worker
/// threads. Attach via [`CensusPipelineBuilder::timings`], read with
/// [`snapshot`](Self::snapshot) after the run (`ij census --timings` prints
/// it). Counters accumulate across runs of the same pipeline; phases
/// overlap under `threads(n)`, so the numbers are summed per-phase CPU
/// wall time, not elapsed time.
#[derive(Debug, Default)]
pub struct PhaseTimings {
    build_ns: AtomicU64,
    render_ns: AtomicU64,
    install_ns: AtomicU64,
    probe_ns: AtomicU64,
    analyze_ns: AtomicU64,
}

impl PhaseTimings {
    /// The accumulated per-phase durations so far.
    pub fn snapshot(&self) -> PhaseReport {
        let load = |a: &AtomicU64| Duration::from_nanos(a.load(Ordering::Relaxed));
        PhaseReport {
            build: load(&self.build_ns),
            render: load(&self.render_ns),
            install: load(&self.install_ns),
            probe: load(&self.probe_ns),
            analyze: load(&self.analyze_ns),
        }
    }

    /// Merges one worker's local accumulators in. Workers batch into plain
    /// `u64`s ([`LocalTimings`]) and flush here once per worker, so shard
    /// and thread counts change atomic traffic, not the totals: a sharded
    /// run's report is the same per-phase sum a sequential run produces.
    fn merge_local(&self, local: &LocalTimings) {
        let add = |slot: &AtomicU64, v: u64| {
            if v > 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        };
        add(&self.build_ns, local.build);
        add(&self.render_ns, local.render);
        add(&self.install_ns, local.install);
        add(&self.probe_ns, local.probe);
        add(&self.analyze_ns, local.analyze);
    }
}

/// Worker-local phase accumulators: plain counters a single worker owns,
/// merged into the shared [`PhaseTimings`] when the worker finishes.
#[derive(Debug, Default)]
struct LocalTimings {
    build: u64,
    render: u64,
    install: u64,
    probe: u64,
    analyze: u64,
}

/// Adds `start`'s elapsed time (when timing is on) to a local counter.
fn record_local(slot: &mut u64, start: Option<Instant>) {
    if let Some(start) = start {
        *slot += start.elapsed().as_nanos() as u64;
    }
}

/// One [`PhaseTimings`] reading: summed wall time per census phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Spec → chart construction (`build_app`).
    pub build: Duration,
    /// Template compilation and rendering into the worker's object buffer.
    pub render: Duration,
    /// Cluster construction and object installation.
    pub install: Duration,
    /// Host baseline capture and the double-pass runtime probe.
    pub probe: Duration,
    /// Rule evaluation over the rendered objects and probe results.
    pub analyze: Duration,
}

impl PhaseReport {
    /// Sum of the five phases.
    pub fn total(&self) -> Duration {
        self.build + self.render + self.install + self.probe + self.analyze
    }
}

/// Reusable per-worker state for the census hot path: the staging vec
/// renders land in, the chart render scratch (emit/output buffers), and the
/// worker's local phase timings. One scratch lives per analysis worker (or
/// per sequential run) and is cleared between apps — steady state, the
/// render → install leg stops allocating.
#[derive(Debug, Default)]
struct WorkerScratch {
    objects: Vec<Object>,
    render: RenderScratch,
    timings: LocalTimings,
}

impl WorkerScratch {
    /// Flushes the local timing counters into the shared report.
    fn flush(&mut self, timings: Option<&PhaseTimings>) {
        if let Some(t) = timings {
            t.merge_local(&self.timings);
        }
        self.timings = LocalTimings::default();
    }
}

/// Converts a caught worker panic (e.g. from a custom registry rule) into
/// a deterministic [`CensusError::Probe`], so no panic ever unwinds out of
/// a census, whatever the thread count.
fn panic_probe_error(app: &str, payload: Box<dyn std::any::Any + Send>) -> CensusError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "analysis panicked".to_string());
    CensusError::Probe {
        app: app.to_string(),
        message: format!("analysis panicked: {message}"),
    }
}

/// Where a run's specifications come from: a caller-owned slice, or a
/// procedural [`CorpusGenerator`] that synthesizes each spec on demand
/// inside the worker that analyzes it — a generated population is streamed,
/// never materialized up front.
#[derive(Clone, Copy)]
enum SpecSource<'a> {
    Slice(&'a [AppSpec]),
    Generator(&'a CorpusGenerator),
}

impl<'a> SpecSource<'a> {
    fn len(&self) -> usize {
        match self {
            SpecSource::Slice(specs) => specs.len(),
            SpecSource::Generator(generator) => generator.len(),
        }
    }

    fn spec(&self, index: usize) -> Cow<'a, AppSpec> {
        match self {
            SpecSource::Slice(specs) => Cow::Borrowed(&specs[index]),
            SpecSource::Generator(generator) => Cow::Owned(generator.spec(index)),
        }
    }
}

/// One partition of a census: a shard-local symbol table plus an
/// index-slotted store for the apps the shard owns. Workers lock a shard
/// only for the (cheap) interning step, never for the analysis itself.
struct ShardState {
    table: SymbolTable,
    slots: Vec<Option<ShardSlot>>,
}

/// What one analyzed app contributes to its shard: the interned report,
/// plus its interned static shape when the cluster-wide pass will run.
struct ShardSlot {
    report: CompactAppReport,
    globals: Option<GlobalAppModel>,
}

/// Builder for [`CensusPipeline`]. Obtained via [`CensusPipeline::builder`].
/// Every option it does not set keeps its [`CorpusOptions::default`] value;
/// the defaults are one worker thread, one shard and no observer.
#[derive(Clone, Default)]
pub struct CensusPipelineBuilder {
    opts: CorpusOptions,
    threads: usize,
    shards: usize,
    observer: Option<CensusObserver>,
    timings: Option<Arc<PhaseTimings>>,
}

impl CensusPipelineBuilder {
    /// Base seed; each application derives its own from this and its name.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Probe configuration (noise injection, filters, double run).
    pub fn probe(mut self, probe: ProbeConfig) -> Self {
        self.opts.probe = probe;
        self
    }

    /// Analyzer configuration (hybrid / static-only / runtime-only, rule
    /// registry).
    pub fn analyzer(mut self, analyzer: Analyzer) -> Self {
        self.opts.analyzer = analyzer;
        self
    }

    /// Applies a [`RulePack`] to the analyzer's registry: pack rules
    /// register (shadowing natives of the same name), then the pack's
    /// `disable` directives run. Fails with the pack's own
    /// [`UnknownRule`] when a directive names a rule the registry does
    /// not have, so typos surface at configuration time rather than as a
    /// silently unchanged census.
    pub fn rule_pack(mut self, pack: &RulePack) -> Result<Self, UnknownRule> {
        pack.register_into(&mut self.opts.analyzer.registry)?;
        Ok(self)
    }

    /// Number of analysis workers, the calling thread included: `n` spawns
    /// `n - 1` scoped threads. `0` and `1` both mean sequential; the
    /// census is byte-identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of independent partitions a census accumulates into. Each
    /// shard owns its own symbol table; a deterministic symbol-remapping
    /// reduce merges them in spec order, so — exactly like
    /// [`threads`](Self::threads) — the census is byte-identical for every
    /// value. `0` and `1` both mean a single partition.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Installs a progress observer, called once per completed application
    /// on the worker that finished it, one call at a time.
    pub fn observer(mut self, observer: impl Fn(&CensusProgress) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Attaches shared phase-timing accumulators; the caller keeps its
    /// `Arc` and reads a [`PhaseReport`] snapshot after the run.
    pub fn timings(mut self, timings: Arc<PhaseTimings>) -> Self {
        self.timings = Some(timings);
        self
    }

    /// Finalizes the pipeline.
    pub fn build(self) -> CensusPipeline {
        CensusPipeline {
            opts: self.opts,
            // Stored raw; normalization to ≥ 1 lives in
            // `CensusPipeline::threads` so `Default` (threads: 0) follows
            // the same rule as `threads(0)`; `shards` works the same way.
            threads: self.threads,
            shards: self.shards,
            observer: self.observer,
            timings: self.timings,
        }
    }
}

/// The configured evaluation pipeline: baseline → install → double-pass
/// probe → rule evaluation → cluster-wide pass, with typed errors and a
/// deterministic parallel path. Construct via [`CensusPipeline::builder`].
///
/// ```
/// use ij_datasets::{CensusPipeline, CorpusGenerator, CorpusProfile};
///
/// // A procedural eight-app population, streamed through two workers.
/// let generator = CorpusGenerator::new(
///     CorpusProfile::named("baseline").unwrap().with_apps(8).with_seed(7),
/// );
/// let census = CensusPipeline::builder()
///     .seed(7)
///     .threads(2) // byte-identical to the sequential run
///     .build()
///     .run_generated_compact(&generator)
///     .expect("generated charts render and install")
///     .resolve();
/// assert_eq!(census.apps.len(), 8);
///
/// // The analyzer found exactly what the generator injected.
/// let expected = generator.describe();
/// assert_eq!(census.total_misconfigurations(), expected.expected_total());
/// ```
#[derive(Clone, Default)]
pub struct CensusPipeline {
    opts: CorpusOptions,
    threads: usize,
    shards: usize,
    observer: Option<CensusObserver>,
    timings: Option<Arc<PhaseTimings>>,
}

impl fmt::Debug for CensusPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CensusPipeline")
            .field("opts", &self.opts)
            .field("threads", &self.threads())
            .field("shards", &self.shards())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl CensusPipeline {
    /// Starts configuring a pipeline.
    pub fn builder() -> CensusPipelineBuilder {
        CensusPipelineBuilder::default()
    }

    /// The options the pipeline runs with.
    pub fn options(&self) -> &CorpusOptions {
        &self.opts
    }

    /// The number of analysis workers (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The number of census partitions (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Installs one built application into a fresh cluster and analyzes it,
    /// following §4.2: baseline → install → double-pass runtime analysis →
    /// rule evaluation.
    pub fn analyze_one(&self, built: &BuiltApp) -> Result<AppAnalysis, CensusError> {
        let mut scratch = WorkerScratch::default();
        let result = self.analyze_built(built, &mut scratch);
        self.flush_scratch(&mut scratch);
        result
    }

    /// [`analyze_one`](Self::analyze_one) on a worker's scratch: the chart
    /// renders straight into the staging vec, so no `RenderedRelease` (or
    /// its object vec) is allocated per app.
    fn analyze_built(
        &self,
        built: &BuiltApp,
        scratch: &mut WorkerScratch,
    ) -> Result<AppAnalysis, CensusError> {
        let opts = &self.opts;
        let app = &built.spec.name;
        let timed = self.timings.is_some();
        let WorkerScratch {
            objects,
            render: render_scratch,
            timings: local,
        } = scratch;

        let mut start = timed.then(Instant::now);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: opts.nodes,
            seed: opts.app_seed(app),
            behaviors: built.registry(),
        });
        record_local(&mut local.install, start);

        start = timed.then(Instant::now);
        let release = Release::new(app, "default");
        let render_err = |source| CensusError::Render {
            app: app.clone(),
            source,
        };
        let compiled = built.compiled().map_err(render_err)?;
        objects.clear();
        compiled
            .render_objects_into(&release, render_scratch, objects)
            .map_err(render_err)?;
        record_local(&mut local.render, start);

        // The model reads the rendered objects before the cluster takes
        // them: the cluster's copies carry the release annotation, which the
        // model would copy into every service it keeps.
        start = timed.then(Instant::now);
        let statics = StaticModel::from_objects(objects.iter());
        record_local(&mut local.analyze, start);

        start = timed.then(Instant::now);
        let baseline = HostBaseline::capture(&cluster);
        record_local(&mut local.probe, start);

        start = timed.then(Instant::now);
        cluster
            .install_owned(app, objects.drain(..))
            .map_err(|source| CensusError::Install {
                app: app.clone(),
                source,
            })?;
        record_local(&mut local.install, start);

        start = timed.then(Instant::now);
        let mut probe_cfg = opts.probe.clone();
        probe_cfg.seed = opts.app_seed(app).rotate_left(17);
        let runtime = RuntimeAnalyzer::new(probe_cfg).analyze(&mut cluster, &baseline);
        record_local(&mut local.probe, start);

        start = timed.then(Instant::now);
        let findings = opts.analyzer.analyze_model(
            app,
            &statics,
            &cluster,
            Some(&runtime),
            chart_defines_network_policies(built.chart()),
        );
        let analysis = AppAnalysis {
            app: app.clone(),
            findings,
            statics,
        };
        record_local(&mut local.analyze, start);
        Ok(analysis)
    }

    /// Runs the full evaluation over a set of specifications: every
    /// application in its own cluster (in parallel when
    /// [`threads`](CensusPipelineBuilder::threads) > 1), then the
    /// cluster-wide M4\* pass, producing the census behind Table 2 and
    /// Figures 3–4. The census engine's compact result, resolved.
    pub fn run(&self, specs: &[AppSpec]) -> Result<Census, CensusError> {
        Ok(self.run_compact(SpecSource::Slice(specs))?.resolve())
    }

    /// [`run`](Self::run) over a procedural population, kept compact: each
    /// worker asks the generator for spec `i` as it claims the index, so
    /// the population is **streamed**, and the census keeps only interned
    /// [`CompactAppReport`]s — never a materialized `Vec<AppSpec>`,
    /// `Vec<StaticModel>`, or owned-`String` census.
    /// [`CompactCensus::resolve`] materializes it when a caller wants the
    /// owned form.
    pub fn run_generated_compact(
        &self,
        generator: &CorpusGenerator,
    ) -> Result<CompactCensus, CensusError> {
        self.run_compact(SpecSource::Generator(generator))
    }

    /// The census engine behind every `run*` entry point. Analyzes each spec
    /// of `source` and interns the report into one of
    /// [`shards`](CensusPipelineBuilder::shards) partition-local symbol
    /// tables, together with the app's [`GlobalAppModel`] when the
    /// cluster-wide pass will run. Shards are merged by a deterministic
    /// symbol-remapping reduce in spec order, then the interned M4\* pass
    /// runs over the merged table, so the result is byte-identical across
    /// every `(shards, threads)` combination.
    fn run_compact(&self, source: SpecSource<'_>) -> Result<CompactCensus, CensusError> {
        let total = source.len();
        let shard_count = self.shards().min(total.max(1));
        let need_global = self.opts.analyzer.runs_global();

        // Contiguous partitions: shard `s` owns specs
        // `bounds[s]..bounds[s + 1]`. Workers intern into the shard that
        // owns the spec's index, so shard contents never depend on worker
        // scheduling.
        let bounds: Vec<usize> = (0..=shard_count).map(|s| s * total / shard_count).collect();
        let shards: Vec<Mutex<ShardState>> = bounds
            .windows(2)
            .map(|w| {
                let mut slots = Vec::new();
                slots.resize_with(w[1] - w[0], || None);
                Mutex::new(ShardState {
                    table: SymbolTable::new(),
                    slots,
                })
            })
            .collect();
        let shard_of = |i: usize| bounds.partition_point(|&b| b <= i) - 1;
        // Analyze one spec and intern the outcome into its shard. The lock
        // is held only for the interning, not the analysis.
        let analyze_into_shard =
            |i: usize, spec: &AppSpec, scratch: &mut WorkerScratch| -> Result<(), CensusError> {
                let analysis = self.analyze_spec(spec, scratch)?;
                let s = shard_of(i);
                let mut state = shards[s].lock().expect("shard state");
                let ShardState { table, slots } = &mut *state;
                let report = CompactAppReport {
                    app: table.intern(&spec.name),
                    dataset: table.intern(spec.org.as_str()),
                    version: table.intern(&spec.version),
                    findings: analysis
                        .findings
                        .iter()
                        .map(|f| CompactFinding::intern(f, table))
                        .collect(),
                };
                let globals = need_global
                    .then(|| GlobalAppModel::intern(&spec.name, &analysis.statics, table));
                slots[i - bounds[s]] = Some(ShardSlot { report, globals });
                Ok(())
            };

        let workers = self.threads().min(total.max(1));
        self.for_each_spec(source, workers, analyze_into_shard)?;
        self.merge_shards(shards, &bounds, need_global, workers <= 1, source)
    }

    /// The worker loop: `workers` loops claim spec indices in order from one
    /// atomic counter and run `analyze` on each, stopping at the first
    /// failure (a caught panic counts as one). The calling thread is one of
    /// the workers; the other `workers - 1` run on scoped threads, so one
    /// worker spawns nothing. Each worker reports the app it finished
    /// through one lock, so observer calls never overlap and `completed`
    /// increases by one from call to call. In-flight analyses still
    /// complete after a failure, so every index below it is analyzed and
    /// the minimum-index error — the one a sequential run hits — is
    /// returned.
    fn for_each_spec<F>(
        &self,
        source: SpecSource<'_>,
        workers: usize,
        analyze: F,
    ) -> Result<(), CensusError>
    where
        F: Fn(usize, &AppSpec, &mut WorkerScratch) -> Result<(), CensusError> + Sync,
    {
        let total = source.len();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let mut completed = 0usize;
        let mut first_err: Option<(usize, CensusError)> = None;
        let collect = Mutex::new(|i: usize, result: Result<&str, CensusError>| {
            completed += 1;
            match result {
                Ok(app) => self.notify(app, completed, total),
                Err(err) => {
                    self.notify(err.app(), completed, total);
                    if first_err.as_ref().is_none_or(|(k, _)| i < *k) {
                        first_err = Some((i, err));
                    }
                }
            }
        });
        let work = || {
            let mut scratch = WorkerScratch::default();
            while !failed.load(Ordering::SeqCst) {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    break;
                }
                let spec = source.spec(i);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    analyze(i, &spec, &mut scratch)
                }))
                .unwrap_or_else(|payload| Err(panic_probe_error(&spec.name, payload)))
                .map(|()| spec.name.as_str());
                if result.is_err() {
                    failed.store(true, Ordering::SeqCst);
                }
                (*collect.lock().expect("no observer panicked"))(i, result);
            }
            self.flush_scratch(&mut scratch);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        first_err.map_or(Ok(()), |(_, err)| Err(err))
    }

    /// The deterministic reduce: re-interns every shard's reports into one
    /// merged table *in spec order* — so the merged symbol assignment (and
    /// therefore the entire compact census) is invariant to both shard and
    /// thread counts — then runs the interned cluster-wide pass and
    /// attributes its findings. Reports and models are rewritten in place,
    /// and a per-shard [`SymMemo`] re-interns each shard symbol only once.
    fn merge_shards(
        &self,
        shards: Vec<Mutex<ShardState>>,
        bounds: &[usize],
        need_global: bool,
        sequential: bool,
        source: SpecSource<'_>,
    ) -> Result<CompactCensus, CensusError> {
        let missing = |index: usize| CensusError::Probe {
            app: source.spec(index).name.clone(),
            message: "analysis worker terminated before producing a result".into(),
        };
        let shard_count = shards.len();
        let mut apps: Vec<CompactAppReport> = Vec::with_capacity(source.len());
        let mut globals: Vec<GlobalAppModel> = Vec::new();
        let mut table;
        if shard_count == 1 && sequential {
            // The sequential single-shard run interned every spec in order
            // already: its table *is* the merged table, no remap copy
            // needed. (A parallel run interns in completion order, so even
            // one shard must go through the spec-order remap below to keep
            // symbol assignment scheduling-independent.)
            let state = shards
                .into_iter()
                .next()
                .expect("one shard")
                .into_inner()
                .expect("shard state");
            table = state.table;
            for (j, slot) in state.slots.into_iter().enumerate() {
                let Some(slot) = slot else {
                    return Err(missing(j));
                };
                apps.push(slot.report);
                globals.extend(slot.globals);
            }
        } else {
            let states: Vec<ShardState> = shards
                .into_iter()
                .map(|shard| shard.into_inner().expect("shard state"))
                .collect();
            // Sized for the sum of the shard tables: the merged table never
            // regrows, at the price of over-reserving for strings that more
            // than one shard holds.
            table = SymbolTable::with_capacity(
                states.iter().map(|state| state.table.len()).sum(),
                states.iter().map(|state| state.table.arena_bytes()).sum(),
            );
            for (s, state) in states.into_iter().enumerate() {
                let shard_table = state.table;
                // Each shard symbol is re-interned once, at its first
                // occurrence in spec order; the memo answers the rest.
                let mut memo = SymMemo::new(&shard_table);
                for (j, slot) in state.slots.into_iter().enumerate() {
                    let Some(mut slot) = slot else {
                        return Err(missing(bounds[s] + j));
                    };
                    slot.report
                        .remap_in_place(&shard_table, &mut table, &mut memo);
                    apps.push(slot.report);
                    if let Some(mut global) = slot.globals {
                        global.remap_in_place(&shard_table, &mut table, &mut memo);
                        globals.push(global);
                    }
                }
                // `shard_table` drops here: peak memory is the merged arena
                // plus the shard arenas not yet merged.
            }
        }

        if need_global {
            let found = m4_global_collisions_compact(&globals, &table);
            drop(globals);
            if !found.is_empty() {
                let mut first_ix: HashMap<Sym, usize> = HashMap::new();
                for (i, a) in apps.iter().enumerate() {
                    first_ix.entry(a.app).or_insert(i);
                }
                let mut touched: Vec<usize> = Vec::new();
                for finding in found {
                    // Attribute to the first report of the named app.
                    let Some(&i) = table.lookup(&finding.app).and_then(|s| first_ix.get(&s)) else {
                        continue;
                    };
                    apps[i]
                        .findings
                        .push(CompactFinding::intern(&finding, &mut table));
                    touched.push(i);
                }
                touched.sort_unstable();
                touched.dedup();
                // Only touched reports need re-sorting: the per-app pass
                // already left every other report canonically ordered.
                for &i in &touched {
                    sort_canonical_compact(&mut apps[i].findings, &table);
                }
            }
        }
        Ok(CompactCensus::new(table, apps))
    }

    /// Builds and analyzes one spec on a worker's scratch.
    fn analyze_spec(
        &self,
        spec: &AppSpec,
        scratch: &mut WorkerScratch,
    ) -> Result<AppAnalysis, CensusError> {
        let start = self.timings.is_some().then(Instant::now);
        let built = build_app(spec);
        record_local(&mut scratch.timings.build, start);
        self.analyze_built(&built, scratch)
    }

    fn flush_scratch(&self, scratch: &mut WorkerScratch) {
        scratch.flush(self.timings.as_deref());
    }

    fn notify(&self, app: &str, completed: usize, total: usize) {
        if let Some(observer) = &self.observer {
            observer(&CensusProgress {
                app: app.to_string(),
                completed,
                total,
            });
        }
    }

    /// The §4.3.2 policy-impact study (Figure 4b): force-enables each
    /// policy-defining chart's policies and measures which misconfigured
    /// endpoints remain reachable from an unrelated attacker pod.
    pub fn policy_impact(&self, specs: &[AppSpec]) -> Result<Vec<PolicyImpact>, CensusError> {
        let opts = &self.opts;
        let mut rows: Vec<PolicyImpact> = Vec::new();
        for app_spec in specs {
            if !app_spec.plan.netpol.defines_policy() {
                continue;
            }
            let row_idx = match rows.iter().position(|r| r.dataset == app_spec.org.as_str()) {
                Some(i) => i,
                None => {
                    rows.push(PolicyImpact {
                        dataset: app_spec.org.as_str().to_string(),
                        ..Default::default()
                    });
                    rows.len() - 1
                }
            };
            let row = &mut rows[row_idx];
            row.enabled += 1;

            let built = build_app(app_spec);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: opts.nodes,
                seed: opts.app_seed(&app_spec.name),
                ..Default::default()
            });
            let rendered = co_deploy(
                &mut cluster,
                &[(&built, Some("networkPolicy:\n  enabled: true\n"))],
                true,
            )?;
            let statics = StaticModel::from_objects(&rendered[0].objects);
            let exposure = exposure(&cluster, &statics);
            row.reachable_pods += exposure.pods;
            row.reachable_dynamic_pods += exposure.dynamic_pods;

            // Services that still forward to an undeclared target port.
            let mut services_hit = 0usize;
            for ep in cluster.endpoints() {
                let svc_ns = ep.meta.namespace.clone();
                let svc_name = ep.meta.name.clone();
                let mut svc_hit = false;
                for addr in &ep.addresses {
                    let Some(dst) = cluster.pod(&addr.pod) else {
                        continue;
                    };
                    if declared(
                        &statics,
                        dst.owner.as_deref(),
                        &addr.pod,
                        addr.port,
                        addr.protocol,
                    ) {
                        continue;
                    }
                    if !dst.listens_on(addr.port, addr.protocol) {
                        continue;
                    }
                    let svc = cluster
                        .services()
                        .find(|s| s.meta.namespace == svc_ns && s.meta.name == svc_name);
                    if let Some(svc) = svc {
                        for sp in &svc.spec.ports {
                            if sp.name == addr.port_name
                                && !cluster
                                    .send_to_service(ATTACKER, &svc_ns, &svc_name, sp.port)
                                    .is_empty()
                            {
                                svc_hit = true;
                            }
                        }
                    }
                }
                if svc_hit {
                    services_hit += 1;
                    row.reachable_services += 1;
                }
            }

            if exposure.pods > 0 || services_hit > 0 {
                row.affected += 1;
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{CorpusGenerator, CorpusProfile};
    use crate::spec::{NetpolSpec, Org, Plan};
    use std::sync::Mutex;

    fn specs() -> Vec<AppSpec> {
        vec![
            AppSpec::new(
                "pipe-alpha",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m1: 2,
                    m2: 1,
                    m4a: 1,
                    m4star_tokens: vec!["pipe-shared"],
                    netpol: NetpolSpec::Missing,
                    ..Default::default()
                },
            ),
            AppSpec::new(
                "pipe-beta",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m5b: 1,
                    m5d: 1,
                    m4star_tokens: vec!["pipe-shared"],
                    netpol: NetpolSpec::Enabled { loose: false },
                    ..Default::default()
                },
            ),
            AppSpec::new("pipe-gamma", Org::Wikimedia, "1.0.0", Plan::clean()),
            AppSpec::new(
                "pipe-delta",
                Org::Eea,
                "1.0.0",
                Plan {
                    m3: 1,
                    m7: 1,
                    ..Default::default()
                },
            ),
        ]
    }

    #[test]
    fn parallel_census_is_byte_identical_to_sequential() {
        let sequential = CensusPipeline::builder()
            .seed(11)
            .build()
            .run(&specs())
            .expect("sequential run");
        for threads in [2, 4, 16] {
            let parallel = CensusPipeline::builder()
                .seed(11)
                .threads(threads)
                .build()
                .run(&specs())
                .expect("parallel run");
            assert_eq!(
                format!("{sequential:#?}"),
                format!("{parallel:#?}"),
                "threads({threads}) diverged from the sequential census"
            );
        }
    }

    #[test]
    fn generated_census_streams_and_matches_across_thread_counts() {
        let generator = CorpusGenerator::new(
            CorpusProfile::named("baseline")
                .expect("baseline profile")
                .with_apps(24)
                .with_seed(7),
        );
        let sequential = CensusPipeline::builder()
            .seed(7)
            .build()
            .run_generated_compact(&generator)
            .expect("generated census runs")
            .resolve();
        assert_eq!(sequential.apps.len(), 24);
        for threads in [2, 8] {
            let parallel = CensusPipeline::builder()
                .seed(7)
                .threads(threads)
                .build()
                .run_generated_compact(&generator)
                .expect("generated parallel census runs")
                .resolve();
            assert_eq!(
                format!("{sequential:#?}"),
                format!("{parallel:#?}"),
                "threads({threads}) diverged on the generated census"
            );
        }
    }

    #[test]
    fn generated_census_equals_the_materialized_equivalent() {
        // Streaming is an implementation detail: running the generator
        // through `run_generated_compact` must produce the same census as
        // collecting the specs first and running the slice path.
        let generator = CorpusGenerator::new(
            CorpusProfile::named("legacy")
                .expect("legacy profile")
                .with_apps(12)
                .with_seed(3),
        );
        let streamed = CensusPipeline::builder()
            .seed(3)
            .build()
            .run_generated_compact(&generator)
            .expect("streamed run")
            .resolve();
        let materialized: Vec<_> = generator.iter().collect();
        let sliced = CensusPipeline::builder()
            .seed(3)
            .build()
            .run(&materialized)
            .expect("slice run");
        assert_eq!(format!("{streamed:#?}"), format!("{sliced:#?}"));
    }

    #[test]
    fn sharded_generated_census_is_byte_identical() {
        // The tentpole determinism contract: any (shards, threads)
        // combination produces the same compact census — same symbol
        // assignment, same reports — as the single-shard sequential run.
        let generator = CorpusGenerator::new(
            CorpusProfile::named("baseline")
                .expect("baseline profile")
                .with_apps(24)
                .with_seed(7),
        );
        let reference = CensusPipeline::builder()
            .seed(7)
            .build()
            .run_generated_compact(&generator)
            .expect("single-shard run");
        for shards in [1, 2, 8] {
            for threads in [1, 8] {
                let sharded = CensusPipeline::builder()
                    .seed(7)
                    .shards(shards)
                    .threads(threads)
                    .build()
                    .run_generated_compact(&generator)
                    .expect("sharded run");
                assert_eq!(
                    format!("{reference:#?}"),
                    format!("{sharded:#?}"),
                    "shards({shards}) x threads({threads}) diverged"
                );
            }
        }
    }

    #[test]
    fn compact_census_aggregations_match_the_owned_census() {
        let generator = CorpusGenerator::new(
            CorpusProfile::named("baseline")
                .expect("baseline profile")
                .with_apps(16)
                .with_seed(5),
        );
        let compact = CensusPipeline::builder()
            .seed(5)
            .shards(4)
            .threads(2)
            .build()
            .run_generated_compact(&generator)
            .expect("compact run");
        let owned = compact.resolve();
        assert_eq!(compact.table2(), owned.table2());
        assert_eq!(
            compact.total_misconfigurations(),
            owned.total_misconfigurations()
        );
        assert_eq!(compact.affected_apps(), owned.affected_apps());
        // Identities over the compact form match the owned findings: the
        // continuous-audit keyspace sees no representation change.
        for (ca, oa) in compact.apps.iter().zip(&owned.apps) {
            for (cf, of) in ca.findings.iter().zip(&oa.findings) {
                assert_eq!(cf.identity(compact.table()), of.identity());
            }
        }
    }

    #[test]
    fn panicking_rule_is_deterministic_under_sharded_parallelism() {
        fn exploding_rule(_: &ij_core::AppView<'_>) -> Vec<ij_core::Finding> {
            panic!("rule exploded")
        }
        let mut analyzer = Analyzer::hybrid();
        analyzer.registry.register_app_rule(
            "exploding",
            &[],
            ij_core::RuleScope::Static,
            exploding_rule,
        );
        let generator = CorpusGenerator::new(
            CorpusProfile::named("baseline")
                .expect("baseline profile")
                .with_apps(8)
                .with_seed(7),
        );
        // The sequential run goes through the same catching worker loop:
        // a panic never unwinds out of the census at any thread count.
        for threads in [1, 2] {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = CensusPipeline::builder()
                .seed(7)
                .analyzer(analyzer.clone())
                .shards(2)
                .threads(threads)
                .build()
                .run_generated_compact(&generator);
            std::panic::set_hook(hook);
            let err = result.expect_err("the exploding rule must fail the census");
            match &err {
                CensusError::Probe { app, message } => {
                    assert!(message.contains("rule exploded"), "{message}");
                    // Minimum-index error: the first generated app, exactly
                    // what the sequential run reports.
                    assert_eq!(app, &generator.spec(0).name, "threads({threads})");
                }
                other => panic!("expected CensusError::Probe, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_threads_means_sequential() {
        let pipeline = CensusPipeline::builder().threads(0).shards(0).build();
        assert_eq!(pipeline.threads(), 1);
        assert_eq!(pipeline.shards(), 1);
        pipeline.run(&specs()).expect("runs sequentially");
    }

    #[test]
    fn observer_sees_every_app_exactly_once() {
        let seen: Arc<Mutex<Vec<CensusProgress>>> = Arc::default();
        let sink = Arc::clone(&seen);
        // Set on entry and cleared on exit: a call that finds it set
        // overlaps another. The yield inside a call widens the window.
        let in_call = Arc::new(AtomicBool::new(false));
        let overlaps = Arc::new(AtomicUsize::new(0));
        let overlap_count = Arc::clone(&overlaps);
        CensusPipeline::builder()
            .threads(3)
            .observer(move |p: &CensusProgress| {
                if in_call.swap(true, Ordering::SeqCst) {
                    overlap_count.fetch_add(1, Ordering::SeqCst);
                }
                sink.lock().unwrap().push(p.clone());
                std::thread::yield_now();
                in_call.store(false, Ordering::SeqCst);
            })
            .build()
            .run(&specs())
            .expect("observed run");
        assert_eq!(
            overlaps.load(Ordering::SeqCst),
            0,
            "observer calls overlapped"
        );
        let ticks = seen.lock().unwrap();
        assert_eq!(ticks.len(), specs().len());
        // The counter increases by one in call order even though app order
        // is scheduling-dependent under parallel execution.
        let counters: Vec<usize> = ticks.iter().map(|p| p.completed).collect();
        assert_eq!(counters, (1..=specs().len()).collect::<Vec<_>>());
        let mut apps: Vec<&str> = ticks.iter().map(|p| p.app.as_str()).collect();
        apps.sort_unstable();
        assert_eq!(
            apps,
            ["pipe-alpha", "pipe-beta", "pipe-delta", "pipe-gamma"]
        );
        assert!(ticks.iter().all(|p| p.total == specs().len()));
    }

    #[test]
    fn policy_impact_stable_across_repeats_and_threaded_runs() {
        // The §4.3.2 study rides on the per-chart cached policy index; its
        // output must not depend on repeats or on an unrelated threaded
        // census in between.
        let pipeline = CensusPipeline::builder().seed(11).build();
        let first = pipeline.policy_impact(&specs()).expect("first impact run");
        CensusPipeline::builder()
            .seed(11)
            .threads(4)
            .build()
            .run(&specs())
            .expect("threaded census");
        let second = pipeline.policy_impact(&specs()).expect("second impact run");
        assert_eq!(format!("{first:#?}"), format!("{second:#?}"));
    }

    #[test]
    fn builder_knobs_land_in_options() {
        let pipeline = CensusPipeline::builder()
            .seed(99)
            .threads(8)
            .shards(3)
            .analyzer(Analyzer::static_only())
            .build();
        assert_eq!(pipeline.options().seed, 99);
        assert_eq!(pipeline.options().nodes, CorpusOptions::default().nodes);
        assert_eq!(pipeline.threads(), 8);
        assert_eq!(pipeline.shards(), 3);
        assert!(!pipeline.options().analyzer.options.runtime_rules);
        let debug = format!("{pipeline:?}");
        assert!(debug.contains("threads: 8"), "{debug}");
    }

    #[test]
    fn panicking_rule_surfaces_as_probe_error_not_a_panic() {
        fn exploding_rule(_: &ij_core::AppView<'_>) -> Vec<ij_core::Finding> {
            panic!("rule exploded")
        }
        let mut analyzer = Analyzer::hybrid();
        analyzer.registry.register_app_rule(
            "exploding",
            &[],
            ij_core::RuleScope::Static,
            exploding_rule,
        );
        for threads in [1, 2] {
            // Silence the default panic hook for the duration: the panic is
            // expected and caught, the backtrace would only be noise.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = CensusPipeline::builder()
                .analyzer(analyzer.clone())
                .threads(threads)
                .build()
                .run(&specs());
            std::panic::set_hook(hook);
            let err = result.expect_err("the exploding rule must fail the census");
            match &err {
                CensusError::Probe { app, message } => {
                    assert!(message.contains("rule exploded"), "{message}");
                    assert_eq!(app, "pipe-alpha", "threads({threads})");
                }
                other => panic!("expected CensusError::Probe, got {other:?}"),
            }
        }
    }

    #[test]
    fn rule_ablation_flows_through_the_pipeline() {
        let full = CensusPipeline::builder()
            .build()
            .run(&specs())
            .expect("full run");
        let mut ablated = Analyzer::hybrid();
        ablated.registry.try_disable("m4star").unwrap();
        let without_m4star = CensusPipeline::builder()
            .analyzer(ablated)
            .build()
            .run(&specs())
            .expect("ablated run");
        let count = |census: &Census| {
            census
                .apps
                .iter()
                .map(|a| a.count_of(ij_core::MisconfigId::M4Star))
                .sum::<usize>()
        };
        assert!(count(&full) > 0);
        assert_eq!(count(&without_m4star), 0);
        // Everything else is untouched.
        assert_eq!(
            full.total_misconfigurations() - count(&full),
            without_m4star.total_misconfigurations()
        );
    }
}
