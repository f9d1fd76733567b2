//! The continuous auditor: re-analyzes only what a mutation touched.
//!
//! [`IncrementalAuditor`] audits a whole multi-release cluster. It
//! remembers the [`Cluster::generation`](ij_cluster::Cluster::generation)
//! it last audited and asks
//! [`Cluster::dirty_since`](ij_cluster::Cluster::dirty_since) what changed;
//! the cluster's dirty log is its only change feed (there is no watch
//! stream):
//!
//! * per-app rules re-run only for dirtied releases (installs, uninstalls,
//!   scale events, pod churn attributed to that release), and only their
//!   objects are collected;
//! * objects that carry no release annotation — a pod applied by hand
//!   next to the releases, the lateral-movement imposter the defense is
//!   for — are audited together as one more release named
//!   [`UNATTRIBUTED_RELEASE`], dirtied by unattributed changes;
//! * each release's input to the cluster-wide label pass (`M4*`) is cached
//!   as a [`GlobalAppModel`] interned into one symbol table the auditor
//!   owns, so a re-run re-interns only the dirtied releases;
//! * that pass re-runs only when the labelled object set changed
//!   (`summary.labels`) or a release appeared or disappeared;
//! * everything else is served from the per-app finding cache.
//!
//! When the dirty ring no longer covers the cursor (overflow, reset, first
//! tick) the summary degrades to everything-dirty and the tick becomes a
//! full recompute into a fresh symbol table — the same code path
//! [`IncrementalAuditor::full_tick`] exposes as the property-tested oracle.
//! Symbols of uninstalled releases stay in the table until it holds more
//! than twice the symbols it held after its last rebuild; the tick then
//! re-interns the cached models into a fresh table, so memory stays bounded
//! over long serve runs. Deltas are diffed as multisets keyed by
//! [`Finding::identity`] via [`AuditDelta::between`].
//!
//! Runtime observation never restarts pods, so a live-cluster audit leaves
//! the workload alone; the restart-based `M2` differential belongs to the
//! census's fresh per-app cluster.

use std::collections::BTreeMap;

use ij_cluster::{Cluster, DirtySummary, RELEASE_ANNOTATION};
use ij_core::{
    m4_global_collisions_compact, sort_canonical, Analyzer, Finding, GlobalAppModel, StaticModel,
    SymbolTable,
};
use ij_model::Object;
use ij_probe::{HostBaseline, RuntimeAnalyzer, RuntimeReport};

use crate::audit::AuditDelta;

/// The release name objects without a
/// [`RELEASE_ANNOTATION`](ij_cluster::RELEASE_ANNOTATION) are audited
/// under. Not a valid DNS-1123 name, so no installed release can take it.
pub const UNATTRIBUTED_RELEASE: &str = "<unattributed>";

/// Cached per-release analysis state.
struct AppState {
    findings: Vec<Finding>,
    /// The release's `M4*` input, interned into the auditor's table; `None`
    /// when the analyzer runs no cluster-wide pass.
    global: Option<GlobalAppModel>,
}

/// A delta-aware auditor for a whole multi-release cluster. See the module
/// docs for the re-evaluation policy. A tick costs what the releases it
/// re-analyzes cost, plus one `M4*` pass over the cached interned models
/// when labels changed; unchanged releases are neither re-analyzed nor
/// re-interned.
pub struct IncrementalAuditor {
    analyzer: Analyzer,
    probe: Option<(RuntimeAnalyzer, HostBaseline)>,
    defines_policies: BTreeMap<String, bool>,
    cursor: Option<u64>,
    apps: BTreeMap<String, AppState>,
    /// Symbols of every cached [`GlobalAppModel`].
    table: SymbolTable,
    /// `table.len()` right after its last rebuild.
    table_floor: usize,
    global: Vec<Finding>,
    previous: Vec<Finding>,
}

impl Default for IncrementalAuditor {
    fn default() -> Self {
        IncrementalAuditor::new()
    }
}

impl IncrementalAuditor {
    /// A static-only auditor (manifest rules, no runtime probe).
    pub fn new() -> Self {
        IncrementalAuditor {
            analyzer: Analyzer::static_only(),
            probe: None,
            defines_policies: BTreeMap::new(),
            cursor: None,
            apps: BTreeMap::new(),
            table: SymbolTable::new(),
            table_floor: 0,
            global: Vec::new(),
            previous: Vec::new(),
        }
    }

    /// A hybrid auditor: static rules plus runtime findings from the
    /// non-mutating [`RuntimeAnalyzer::observe`] pass. The baseline must
    /// have been captured before any release was installed.
    pub fn with_probe(probe: RuntimeAnalyzer, baseline: HostBaseline) -> Self {
        IncrementalAuditor {
            analyzer: Analyzer::hybrid(),
            probe: Some((probe, baseline)),
            ..IncrementalAuditor::new()
        }
    }

    /// Records whether a release's chart ships NetworkPolicy templates (the
    /// M6 "defined but disabled" distinction).
    ///
    /// Call it before each install (and each upgrade) of the release, with
    /// no tick in between: the install itself dirties the release, and the
    /// entry is dropped again by the first tick after a tracked release
    /// disappears from the cluster, so a reinstall needs a fresh call.
    pub fn set_chart_defines_policies(&mut self, app: &str, defines: bool) {
        self.defines_policies.insert(app.to_string(), defines);
    }

    /// The most recent full finding list (canonically sorted).
    pub fn current(&self) -> &[Finding] {
        &self.previous
    }

    /// Number of releases with cached analysis state.
    pub fn tracked_apps(&self) -> usize {
        self.apps.len()
    }

    /// Runs one audit round, re-analyzing only what changed since the last
    /// round, and reports the delta.
    pub fn tick(&mut self, cluster: &Cluster) -> AuditDelta {
        let summary = match self.cursor {
            Some(cursor) => cluster.dirty_since(cursor),
            None => DirtySummary::everything(),
        };
        self.cursor = Some(cluster.generation());
        if summary.is_clean() {
            return AuditDelta::default();
        }

        // Collect the objects of the releases to re-analyze: all of them on
        // a full recompute, else the dirtied ones. Objects without a release
        // annotation form the release `UNATTRIBUTED_RELEASE`.
        let recompute_all = summary.everything || summary.all_apps;
        if recompute_all {
            self.table = SymbolTable::new();
        }
        let mut grouped: BTreeMap<&str, Vec<Object>> = summary
            .apps
            .iter()
            .map(String::as_str)
            .chain(summary.unattributed.then_some(UNATTRIBUTED_RELEASE))
            .map(|name| (name, Vec::new()))
            .collect();
        for o in cluster.objects() {
            let release = o
                .meta()
                .annotations
                .get(RELEASE_ANNOTATION)
                .map_or(UNATTRIBUTED_RELEASE, String::as_str);
            if recompute_all {
                grouped.entry(release).or_default().push(o.clone());
            } else if let Some(objects) = grouped.get_mut(release) {
                objects.push(o.clone());
            }
        }

        // Tracked releases left without objects were uninstalled: they drop
        // out of the cache, the finding set and the policy-template record.
        let mut apps_changed = false;
        let defines_policies = &mut self.defines_policies;
        self.apps.retain(|name, _| {
            let present = match grouped.get(name.as_str()) {
                Some(objects) => !objects.is_empty(),
                None => !recompute_all,
            };
            if !present {
                defines_policies.remove(name);
                apps_changed = true;
            }
            present
        });
        grouped.retain(|_, objects| !objects.is_empty());

        let report: Option<RuntimeReport> = match &self.probe {
            Some((probe, baseline)) if !grouped.is_empty() => {
                Some(probe.observe(cluster, baseline))
            }
            _ => None,
        };
        let runs_global = self.analyzer.runs_global();
        for (name, objects) in &grouped {
            let statics = StaticModel::from_objects(objects);
            let defines = self.defines_policies.get(*name).copied().unwrap_or(false);
            let findings =
                self.analyzer
                    .analyze_model(name, &statics, cluster, report.as_ref(), defines);
            let global =
                runs_global.then(|| GlobalAppModel::intern(name, &statics, &mut self.table));
            let state = AppState { findings, global };
            apps_changed |= self.apps.insert((*name).to_string(), state).is_none();
        }
        if recompute_all {
            self.table_floor = self.table.len();
        } else if self.table.len() > 2 * self.table_floor {
            self.rebuild_table();
        }

        // The cluster-wide label pass sees every release at once, so it
        // must re-run when labelled objects changed anywhere or the release
        // set itself moved.
        if recompute_all || summary.labels || apps_changed {
            let models: Vec<&GlobalAppModel> = self
                .apps
                .values()
                .filter_map(|state| state.global.as_ref())
                .collect();
            self.global = m4_global_collisions_compact(&models, &self.table);
        }

        let mut current: Vec<Finding> = self
            .apps
            .values()
            .flat_map(|state| state.findings.iter().cloned())
            .collect();
        current.extend(self.global.iter().cloned());
        sort_canonical(&mut current);
        let delta = AuditDelta::between(&self.previous, &current);
        self.previous = current;
        delta
    }

    /// Re-interns every cached model into a fresh table, dropping the
    /// symbols only uninstalled releases used.
    fn rebuild_table(&mut self) {
        let mut table = SymbolTable::new();
        for global in self.apps.values_mut().filter_map(|s| s.global.as_mut()) {
            *global = global.remap(&self.table, &mut table);
        }
        self.table = table;
        self.table_floor = self.table.len();
    }

    /// The full-recompute oracle: forgets every cache (the symbol table
    /// included) and re-analyzes the whole cluster through the same code
    /// path. Incremental [`tick`]s must produce byte-identical finding
    /// lists and deltas — the property the `incremental_audit` test suite
    /// enforces over random mutation streams.
    ///
    /// [`tick`]: IncrementalAuditor::tick
    pub fn full_tick(&mut self, cluster: &Cluster) -> AuditDelta {
        self.cursor = None;
        self.tick(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_chart::{Chart, Release};
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
    use ij_core::MisconfigId;
    use ij_model::{Container, Labels, ObjectMeta, Pod, PodSpec};

    fn demo_chart(app_label: &str) -> Chart {
        Chart::builder("demo")
            .template(
                "deploy.yaml",
                format!(
                    "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{{{ .Release.Name }}}}-web
spec:
  replicas: 2
  selector:
    matchLabels:
      app: {app_label}
  template:
    metadata:
      labels:
        app: {app_label}
    spec:
      containers:
        - name: web
          image: demo/web
          ports:
            - name: http
              containerPort: 8080
"
                ),
            )
            .build()
    }

    fn install(cluster: &mut Cluster, release: &str, app_label: &str) {
        let rendered = demo_chart(app_label)
            .render(&Release::new(release, "default"))
            .unwrap();
        cluster.install(&rendered).unwrap();
    }

    #[test]
    fn tracks_releases_and_matches_the_full_oracle() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();

        install(&mut cluster, "shop", "shop");
        let delta = incremental.tick(&cluster);
        let full = oracle.full_tick(&cluster);
        assert_eq!(delta.introduced, full.introduced);
        assert!(delta.introduced.iter().any(|f| f.id == MisconfigId::M6));
        assert_eq!(incremental.tracked_apps(), 1);

        // A second release with colliding labels: both sides must surface
        // the cross-app label collision and agree byte-for-byte.
        install(&mut cluster, "imposter", "shop");
        let delta = incremental.tick(&cluster);
        let full = oracle.full_tick(&cluster);
        assert_eq!(incremental.current(), oracle.current());
        assert_eq!(delta.introduced, full.introduced);
        assert_eq!(delta.resolved, full.resolved);
        assert!(delta.introduced.iter().any(|f| f.id == MisconfigId::M4Star));

        // Quiet round: no mutation, no work, no delta.
        let before = incremental.current().to_vec();
        let quiet = incremental.tick(&cluster);
        assert!(quiet.is_quiet());
        assert_eq!(incremental.current(), before);

        // Uninstall resolves the imposter's findings on both sides.
        cluster.uninstall("imposter");
        let delta = incremental.tick(&cluster);
        let full = oracle.full_tick(&cluster);
        assert_eq!(incremental.current(), oracle.current());
        assert_eq!(delta.resolved, full.resolved);
        assert!(delta.resolved.iter().any(|f| f.id == MisconfigId::M4Star));
        assert_eq!(incremental.tracked_apps(), 1);
    }

    #[test]
    fn bare_imposter_is_caught_as_a_cross_release_collision() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();
        install(&mut cluster, "shop", "shop");
        incremental.tick(&cluster);
        oracle.full_tick(&cluster);

        // A pod applied by hand, outside any release, wearing the release's
        // labels: it joins every selector that targets the release's pods.
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named("imposter").with_labels(Labels::from_pairs([("app", "shop")])),
                PodSpec {
                    containers: vec![Container::new("c", "evil/web")],
                    ..Default::default()
                },
            )))
            .unwrap();
        cluster.reconcile();
        let delta = incremental.tick(&cluster);
        let full = oracle.full_tick(&cluster);
        assert_eq!(incremental.current(), oracle.current());
        assert_eq!(delta.introduced, full.introduced);
        assert_eq!(delta.resolved, full.resolved);
        assert!(
            delta.introduced.iter().any(|f| f.id == MisconfigId::M4Star),
            "{:#?}",
            delta.introduced
        );
        assert_eq!(incremental.tracked_apps(), 2);
    }

    #[test]
    fn uninstalled_releases_release_their_records_and_symbols() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();
        let mut one_release = 0;
        for round in 0..40 {
            // Distinct names and labels: every release interns new symbols.
            let name = format!("r{round}");
            for auditor in [&mut incremental, &mut oracle] {
                auditor.set_chart_defines_policies(&name, round % 2 == 0);
            }
            install(&mut cluster, &name, &format!("label-{round}"));
            incremental.tick(&cluster);
            oracle.full_tick(&cluster);
            assert_eq!(incremental.current(), oracle.current());
            if round == 0 {
                one_release = incremental.table.len();
            }
            cluster.uninstall(&name);
            incremental.tick(&cluster);
            oracle.full_tick(&cluster);
            assert_eq!(incremental.current(), oracle.current());
        }
        for auditor in [&incremental, &oracle] {
            assert_eq!(auditor.tracked_apps(), 0);
            assert!(
                auditor.defines_policies.is_empty(),
                "records of uninstalled releases leaked: {:?}",
                auditor.defines_policies
            );
        }
        assert!(
            incremental.table.len() <= 3 * one_release,
            "the symbol table kept {} symbols after 40 one-release rounds of {one_release}",
            incremental.table.len()
        );
    }

    #[test]
    fn probe_backed_auditor_agrees_with_oracle() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let baseline = HostBaseline::capture(&cluster);
        let mut incremental =
            IncrementalAuditor::with_probe(RuntimeAnalyzer::default(), baseline.clone());
        let mut oracle = IncrementalAuditor::with_probe(RuntimeAnalyzer::default(), baseline);

        install(&mut cluster, "shop", "shop");
        incremental.tick(&cluster);
        oracle.full_tick(&cluster);
        assert_eq!(incremental.current(), oracle.current());

        install(&mut cluster, "blog", "blog");
        cluster.scale_workload("default/shop-web", 0);
        cluster.reconcile();
        incremental.tick(&cluster);
        oracle.full_tick(&cluster);
        assert_eq!(incremental.current(), oracle.current());
    }
}
