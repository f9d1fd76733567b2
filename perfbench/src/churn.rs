//! The `audit-churn` workload: one long-lived tenant cluster under a
//! closed loop with a single client, driven the way `ij serve` drives it —
//! `ChurnSession::next_mutation`, `apply_mutation`,
//! `IncrementalAuditor::tick`.
//!
//! Set-up preinstalls the session's whole install horizon, so installs can
//! only refill slots uninstalls free. Measurement window `k` sets up tenant
//! `k` afresh, seeded from the run's seed and `k`, and applies its stream's
//! first `WINDOW` mutations, so every run of a seed starts with the same
//! windows. With tracing on, installs
//! and label flips are replayed from the public calls `apply_mutation`
//! makes for them (build, compile, render, install) so each gets a span.

use crate::trace::{self, Aggregate, LayerCounts, LayerId, Layers, Tracer};
use crate::{
    beside_reference, counts_diff, counts_note, per_layer_metrics, timed_at_reference,
    timed_setups, EndToEnd, RunResult, Traced, Window, WorkCounts,
};
use ij_chart::Release;
use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
use ij_datasets::{
    apply_mutation, build_app, AppSpec, ChurnMutation, ChurnSession, CorpusGenerator, CorpusProfile,
};
use ij_guard::IncrementalAuditor;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Releases the session can hold at once; set-up installs all of them.
pub const HORIZON: usize = 100;

/// Mutations per measurement window; an untimed oracle check closes each.
pub const WINDOW: usize = 200;

/// Windows after which an untraced run reads its peak RSS: the peak then
/// follows the largest of this many tenants, not the first one drawn.
pub const RSS_WINDOWS: usize = 8;

/// The seed of tenant `k`; tenant 0 is the run's seed itself. Every window
/// takes a new tenant because one tenant's first `WINDOW` mutations cost
/// more or less with the mix of kinds its stream draws (installs and scale
/// events reconcile the whole cluster); the median over a run's 20-odd
/// tenants depends far less on the seed.
fn tenant_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Mutations of one traced pass.
pub const TRACED_PASS: usize = 300;

/// The tenant: its cluster, churn stream and auditor, plus the oracle
/// auditor that only ever runs full recomputes.
pub struct Tenant {
    pub cluster: Cluster,
    pub session: ChurnSession,
    pub auditor: IncrementalAuditor,
    pub oracle: IncrementalAuditor,
    /// Cluster generation at the last tick: the dirty-set cursor.
    cursor: u64,
}

/// Preinstalls the horizon and runs the first (full) tick.
pub fn setup(seed: u64) -> Result<Tenant, String> {
    let profile = CorpusProfile::named("baseline")
        .expect("baseline profile exists")
        .with_apps(HORIZON)
        .with_seed(seed);
    let mut session = ChurnSession::new(CorpusGenerator::new(profile));
    let installs = session.preinstall(HORIZON);
    let mut tenant = Tenant {
        cluster: Cluster::new(ClusterConfig {
            nodes: 3,
            seed,
            behaviors: BehaviorRegistry::new(),
        }),
        session,
        auditor: IncrementalAuditor::new(),
        oracle: IncrementalAuditor::new(),
        cursor: 0,
    };
    for mutation in &installs {
        tenant.note_policies(mutation);
        apply_mutation(&mut tenant.cluster, mutation).map_err(|e| e.to_string())?;
    }
    tenant.auditor.full_tick(&tenant.cluster);
    tenant.cursor = tenant.cluster.generation();
    Ok(tenant)
}

fn kind_layer(mutation: &ChurnMutation) -> LayerId {
    trace::APPLY_BASE
        + match mutation {
            ChurnMutation::Install { .. } => 0,
            ChurnMutation::Uninstall { .. } => 1,
            ChurnMutation::LabelFlip { .. } => 2,
            ChurnMutation::PolicyAdd { .. } => 3,
            ChurnMutation::Scale { .. } => 4,
        }
}

/// `apply_mutation`'s install leg from its public calls.
fn install_spec(
    tr: &mut Tracer,
    u: u32,
    cluster: &mut Cluster,
    spec: &AppSpec,
) -> Result<(), String> {
    let built = tr.span(trace::BUILDER, u, |_| build_app(spec));
    for (image, behavior) in &built.behaviors {
        cluster.register_behavior(image.clone(), behavior.clone());
    }
    let compiled = tr
        .span(trace::COMPILE, u, |_| built.compiled())
        .map_err(|e| format!("chart {} failed to render: {e}", spec.name))?;
    let rendered = tr
        .span(trace::RENDER, u, |_| {
            compiled.render(&Release::new(&spec.name, "default"))
        })
        .map_err(|e| format!("chart {} failed to render: {e}", spec.name))?;
    tr.span(trace::INSTALL, u, |_| cluster.install(&rendered))
        .map(|_| ())
        .map_err(|e| format!("chart {} failed to install: {e}", spec.name))
}

impl Tenant {
    /// The M6 "defined but disabled" bit both auditors need before they
    /// analyze a release, as `ij serve` records it.
    fn note_policies(&mut self, mutation: &ChurnMutation) {
        if let ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } = mutation {
            let defines = spec.plan.netpol.defines_policy();
            self.auditor.set_chart_defines_policies(&spec.name, defines);
            self.oracle.set_chart_defines_policies(&spec.name, defines);
        }
    }

    /// Draws, applies and audits one mutation; returns the apply + tick
    /// latency. With tracing on, also counts the releases the tick
    /// re-analyzes.
    pub fn step(
        &mut self,
        tr: &mut Tracer,
        u: u32,
        work: &mut WorkCounts,
    ) -> Result<Duration, String> {
        let mutation = self.session.next_mutation();
        let start = Instant::now();
        self.note_policies(&mutation);
        let cluster = &mut self.cluster;
        tr.span(kind_layer(&mutation), u, |tr| {
            if !tr.enabled() {
                return apply_mutation(cluster, &mutation).map_err(|e| e.to_string());
            }
            match &mutation {
                ChurnMutation::Install { spec } => install_spec(tr, u, cluster, spec),
                ChurnMutation::LabelFlip { app, spec } => {
                    cluster.uninstall(app);
                    install_spec(tr, u, cluster, spec)
                }
                _ => apply_mutation(cluster, &mutation).map_err(|e| e.to_string()),
            }
        })?;
        if tr.enabled() {
            let summary = self.cluster.dirty_since(self.cursor);
            let installed: BTreeSet<&str> = self.session.installed().collect();
            work.releases_reanalyzed += if summary.everything || summary.all_apps {
                installed.len() as u64
            } else {
                summary
                    .apps
                    .iter()
                    .filter(|a| installed.contains(a.as_str()))
                    .count() as u64
            };
            work.ticks += 1;
        }
        let auditor = &mut self.auditor;
        let cluster = &self.cluster;
        tr.span(trace::TICK, u, |_| auditor.tick(cluster));
        let latency = start.elapsed();
        self.cursor = self.cluster.generation();
        Ok(latency)
    }

    /// The output check: the incremental finding set equals one full
    /// recompute.
    pub fn check(&mut self) -> Result<(), String> {
        self.oracle.full_tick(&self.cluster);
        if self.auditor.current() == self.oracle.current() {
            Ok(())
        } else {
            Err(format!(
                "incremental audit has {} findings, full recompute {}",
                self.auditor.current().len(),
                self.oracle.current().len()
            ))
        }
    }
}

/// Runs the workload for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace_on: bool) -> RunResult {
    let mut result = RunResult::default();
    let (mut tenant, setups) = match timed_setups(|| setup(seed)) {
        Ok(done) => done,
        Err(e) => {
            result.notes.push(format!("set-up failed: {e}"));
            return result;
        }
    };
    result.notes.push(format!("setup_s samples: {setups:?}"));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    // Untraced: window k applies the first WINDOW mutations of tenant k,
    // freshly set up. Each fresh set-up is also a `setup_s` sample.
    if !trace_on {
        let mut tr = Tracer::disabled();
        let mut e2e = EndToEnd {
            setups_s: setups,
            rss_after_windows: RSS_WINDOWS,
            ..EndToEnd::default()
        };
        let mut windows_run = 0u64;
        loop {
            let mut window = Window::default();
            let ((), _, reference_ns) = beside_reference(|| {
                for step in 0..WINDOW as u32 {
                    result.attempted += 1;
                    match tenant.step(&mut tr, step, &mut WorkCounts::default()) {
                        Ok(latency) => {
                            window.ops += 1;
                            window.busy_ns += latency.as_nanos() as f64;
                            window.latencies_ns.push(latency.as_nanos() as f64);
                        }
                        Err(e) => {
                            result.failed += 1;
                            result.notes.push(format!("mutation failed: {e}"));
                        }
                    }
                }
            });
            window.reference_ns = reference_ns;
            match tenant.check() {
                Ok(()) => e2e.push(window),
                Err(e) => {
                    result.failed += WINDOW as u64;
                    result.notes.push(format!("check failed: {e}"));
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            windows_run += 1;
            let next = tenant_seed(seed, windows_run);
            match timed_at_reference(|| setup(next)) {
                (Ok(t), seconds) => {
                    tenant = t;
                    e2e.setups_s.push(seconds);
                }
                (Err(e), _) => {
                    result.failed += 1;
                    result.notes.push(format!("set-up failed: {e}"));
                    break;
                }
            }
        }
        result.notes.push(format!(
            "{} releases installed after each window; {}",
            tenant.auditor.tracked_apps(),
            e2e.windows_note()
        ));
        result.metrics = e2e.metrics();
        result.correct = result.failed == 0 && !e2e.windows.is_empty();
        return result;
    }

    // Traced: a fixed pass of TRACED_PASS mutations from a fresh set-up,
    // then the same pass untraced from another fresh set-up; the two
    // must end on the same finding set. Repeat until time is up.
    let layers = Layers::default();
    let mut agg = Aggregate::default();
    let mut first: Option<(LayerCounts, WorkCounts)> = None;
    let (mut traced_ns, mut untraced_ns, mut passes) = (0u128, 0u128, 0u64);
    loop {
        result.attempted += 2 * TRACED_PASS as u64;
        let mut traced = tenant;
        let mut tr = Tracer::new(Instant::now());
        let mut work = WorkCounts::default();
        let mut untraced = match setup(seed) {
            Ok(t) => t,
            Err(e) => {
                result.failed += 2 * TRACED_PASS as u64;
                result.notes.push(format!("set-up failed: {e}"));
                break;
            }
        };
        let mut off = Tracer::disabled();
        let mut ok = true;
        for step in 0..TRACED_PASS as u32 {
            match traced.step(&mut tr, step, &mut work) {
                Ok(d) => traced_ns += d.as_nanos(),
                Err(e) => {
                    ok = false;
                    result.notes.push(format!("traced mutation failed: {e}"));
                }
            }
            match untraced.step(&mut off, step, &mut WorkCounts::default()) {
                Ok(d) => untraced_ns += d.as_nanos(),
                Err(e) => {
                    ok = false;
                    result.notes.push(format!("mutation failed: {e}"));
                }
            }
        }
        for t in [&mut traced, &mut untraced] {
            if let Err(e) = t.check() {
                ok = false;
                result.notes.push(format!("check failed: {e}"));
            }
        }
        if traced.auditor.current() != untraced.auditor.current() {
            ok = false;
            result
                .notes
                .push("faithfulness failed: traced findings differ".into());
        }
        work.findings = traced.auditor.current().len() as u64;
        let mut this = Aggregate::default();
        this.add(&tr.spans);
        agg.add(&tr.spans);
        match &first {
            None => {
                first = Some((this.repeatable_counts(), work));
                let path = std::path::Path::new(crate::OUT_DIR).join("audit-churn.spans.tsv");
                if let Err(e) = trace::write_tsv(&path, &layers, &[(0, &tr.spans)]) {
                    result
                        .notes
                        .push(format!("cannot write {}: {e}", path.display()));
                }
            }
            Some((counts, w)) => {
                if *counts != this.repeatable_counts() || *w != work {
                    ok = false;
                    result.notes.push(format!(
                        "determinism failed: {}",
                        counts_diff(&layers, counts, &this.repeatable_counts())
                    ));
                }
            }
        }
        if !ok {
            result.failed += 2 * TRACED_PASS as u64;
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
        tenant = match setup(seed) {
            Ok(t) => t,
            Err(e) => {
                result.notes.push(format!("set-up failed: {e}"));
                break;
            }
        };
    }
    let units = passes * TRACED_PASS as u64;
    let overhead_pct = if untraced_ns > 0 {
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64
    } else {
        0.0
    };
    let work = first.as_ref().map(|(_, w)| w.clone()).unwrap_or_default();
    if let Some((counts, w)) = &first {
        result.notes.push(counts_note(&layers, counts, w));
    }
    result.notes.push(format!(
        "{passes} traced pass(es) of {TRACED_PASS} mutations"
    ));
    result.metrics = per_layer_metrics(&Traced {
        layers,
        agg,
        work,
        pipeline_ns: 0,
        thread_ns: 0,
        units,
        overhead_pct,
    });
    result.correct = result.failed == 0 && passes > 0;
    result
}
