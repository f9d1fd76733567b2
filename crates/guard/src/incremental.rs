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
//!   (`summary.labels`) or a release appeared or disappeared, and then only
//!   over what the re-analyzed and removed releases touch
//!   ([`m4_global_collisions_scoped`]): the collision groups keyed by their
//!   units' label sets before and after the change, and the captures of
//!   their services and of every service whose selector covers one of
//!   those units. `M4*` findings are kept per owner — groups by resolved
//!   `(namespace, labels)`, captures by `(release, service index)` — and a
//!   tick replaces just the owners the pass reports;
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
//! [`Finding::identity`] (`audit::unmatched`). Each
//! identity is hashed once, when its finding is made, and findings that
//! stay open move from one finding list to the next instead of being
//! cloned.
//!
//! Runtime observation never restarts pods, so a live-cluster audit leaves
//! the workload alone; the restart-based `M2` differential belongs to the
//! census's fresh per-app cluster.

use std::collections::BTreeMap;

use ij_cluster::{Cluster, DirtySummary, RELEASE_ANNOTATION};
use ij_core::{
    canonical_cmp, m4_global_collisions_scoped, Analyzer, Finding, GlobalAppModel, GlobalUnit,
    M4Owner, M4Scope, StaticModel, SymbolTable,
};
use ij_model::Object;
use ij_probe::{HostBaseline, RuntimeAnalyzer, RuntimeReport};

use crate::audit::{unmatched, AuditDelta};

/// The release name objects without a
/// [`RELEASE_ANNOTATION`](ij_cluster::RELEASE_ANNOTATION) are audited
/// under. Not a valid DNS-1123 name, so no installed release can take it.
pub const UNATTRIBUTED_RELEASE: &str = "<unattributed>";

/// A finding with its [`Finding::identity`], hashed once when the finding
/// is made.
struct Identified {
    identity: u64,
    finding: Finding,
}

impl Identified {
    fn new(finding: Finding) -> Self {
        Identified {
            identity: finding.identity(),
            finding,
        }
    }
}

/// Cached per-release analysis state.
struct AppState {
    findings: Vec<Identified>,
    /// The release's `M4*` input, interned into the auditor's table; `None`
    /// when the analyzer runs no cluster-wide pass.
    global: Option<GlobalAppModel>,
}

/// A delta-aware auditor for a whole multi-release cluster. See the module
/// docs for the re-evaluation policy. A tick costs what the releases it
/// re-analyzes cost, plus, when labels changed, an `M4*` pass that scans
/// the cached interned models once and re-derives only what those releases
/// touch, plus a re-sort and an identity diff of the open findings.
/// Unchanged releases are neither re-analyzed nor re-interned, and their
/// findings are neither re-hashed nor cloned.
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
    /// `M4*` collision groups by resolved `(namespace, labels)`.
    groups: BTreeMap<(String, String), Identified>,
    /// `M4*` captures by `(release, service index)`.
    captures: BTreeMap<(String, usize), Vec<Identified>>,
    previous: Vec<Finding>,
    /// The identities of `previous`, in its order.
    previous_identities: Vec<u64>,
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
            groups: BTreeMap::new(),
            captures: BTreeMap::new(),
            previous: Vec::new(),
            previous_identities: Vec::new(),
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

        // Collect the objects of the releases to re-analyze, borrowed from
        // the cluster: all of them on a full recompute, else the dirtied
        // ones, which the cluster's release index yields without a scan.
        // Objects without a release annotation form the release
        // `UNATTRIBUTED_RELEASE`.
        let recompute_all = summary.everything || summary.all_apps;
        if recompute_all {
            self.table = SymbolTable::new();
        }
        let mut grouped: BTreeMap<&str, Vec<&Object>> = summary
            .apps
            .iter()
            .map(String::as_str)
            .chain(summary.unattributed.then_some(UNATTRIBUTED_RELEASE))
            .map(|name| (name, Vec::new()))
            .collect();
        if recompute_all {
            for o in cluster.objects() {
                let release = o
                    .meta()
                    .annotations
                    .get(RELEASE_ANNOTATION)
                    .map_or(UNATTRIBUTED_RELEASE, String::as_str);
                grouped.entry(release).or_default().push(o);
            }
        } else {
            for (name, objects) in &mut grouped {
                let release = (*name != UNATTRIBUTED_RELEASE).then_some(*name);
                objects.extend(cluster.release_objects(release));
            }
        }

        // Tracked releases left without objects were uninstalled: they drop
        // out of the cache, the finding set and the policy-template record.
        // Their units, and those of re-analyzed releases, are what the
        // scoped `M4*` pass re-derives from, so they are kept until it ran.
        let mut apps_changed = false;
        let mut old_units: Vec<GlobalUnit> = Vec::new();
        let defines_policies = &mut self.defines_policies;
        self.apps.retain(|name, state| {
            let present = match grouped.get(name.as_str()) {
                Some(objects) => !objects.is_empty(),
                None => !recompute_all,
            };
            if !present {
                defines_policies.remove(name);
                apps_changed = true;
                old_units.extend(state.global.take().into_iter().flat_map(|g| g.units));
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
            let statics = StaticModel::from_objects(objects.iter().copied());
            let defines = self.defines_policies.get(*name).copied().unwrap_or(false);
            let findings = self
                .analyzer
                .analyze_model(name, &statics, cluster, report.as_ref(), defines)
                .into_iter()
                .map(Identified::new)
                .collect();
            let global =
                runs_global.then(|| GlobalAppModel::intern(name, &statics, &mut self.table));
            match self
                .apps
                .insert((*name).to_string(), AppState { findings, global })
            {
                Some(old) => old_units.extend(old.global.into_iter().flat_map(|g| g.units)),
                None => apps_changed = true,
            }
        }

        // The cluster-wide label pass sees every release at once, so it
        // re-runs when labelled objects changed anywhere or the release set
        // itself moved — over the whole cluster on a full recompute, else
        // scoped to the re-analyzed and removed releases.
        if runs_global && (recompute_all || summary.labels || apps_changed) {
            self.update_m4(&grouped, (!recompute_all).then_some(old_units.as_slice()));
        }
        if recompute_all {
            self.table_floor = self.table.len();
        } else if self.table.len() > 2 * self.table_floor {
            self.rebuild_table();
        }

        self.next_round()
    }

    /// Rebuilds the open-finding list from the caches and diffs it against
    /// the previous round's.
    fn next_round(&mut self) -> AuditDelta {
        // The open findings as a batch analysis orders them: per-release
        // findings in release order, then `M4*` in pass order, stably sorted.
        let mut current: Vec<&Identified> = self
            .apps
            .values()
            .flat_map(|state| &state.findings)
            .chain(self.groups.values())
            .chain(self.captures.values().flatten())
            .collect();
        current.sort_by(|a, b| canonical_cmp(&a.finding, &b.finding));
        let identities: Vec<u64> = current.iter().map(|f| f.identity).collect();
        let introduced = unmatched(&identities, &self.previous_identities);
        let resolved = unmatched(&self.previous_identities, &identities);
        // Resolved findings move into the delta. The others match findings
        // of `current` in the same order, so they move over instead of
        // being cloned; a finding without a match in line is cloned.
        let mut delta = AuditDelta::default();
        let mut kept = Vec::with_capacity(self.previous.len());
        let previous = std::mem::take(&mut self.previous);
        for ((finding, &identity), gone) in previous
            .into_iter()
            .zip(&self.previous_identities)
            .zip(resolved)
        {
            if gone {
                delta.resolved.push(finding);
            } else {
                kept.push((identity, finding));
            }
        }
        let mut kept = kept.into_iter().peekable();
        self.previous = current
            .iter()
            .zip(introduced)
            .map(|(f, new)| {
                if new {
                    delta.introduced.push(f.finding.clone());
                } else if let Some((_, finding)) = kept.next_if(|&(id, _)| id == f.identity) {
                    return finding;
                }
                f.finding.clone()
            })
            .collect();
        self.previous_identities = identities;
        delta
    }

    /// Re-derives the `M4*` owners that the releases re-analyzed this tick
    /// (`dirty`) and the removed ones touch, given `old_units`, the units
    /// they all had before this tick; `None` re-derives every owner.
    fn update_m4(
        &mut self,
        dirty: &BTreeMap<&str, Vec<&Object>>,
        old_units: Option<&[GlobalUnit]>,
    ) {
        let (names, models): (Vec<&str>, Vec<&GlobalAppModel>) = self
            .apps
            .iter()
            .filter_map(|(name, state)| Some((name.as_str(), state.global.as_ref()?)))
            .unzip();
        // Both name lists are sorted, and every dirty release is tracked.
        let mut dirty_names = dirty.keys().peekable();
        let dirty_idx: Vec<usize> = (0..names.len())
            .filter(|&i| dirty_names.next_if(|name| **name == names[i]).is_some())
            .collect();
        let scope = old_units.map(|old_units| M4Scope {
            dirty: &dirty_idx,
            old_units,
        });
        let parts = m4_global_collisions_scoped(&models, &self.table, scope);
        // Services of re-analyzed or removed releases may be gone: their
        // captures go, the pass re-reports the ones that still exist.
        if scope.is_some() {
            let apps = &self.apps;
            self.captures.retain(|(release, _), _| {
                apps.contains_key(release) && !dirty.contains_key(release.as_str())
            });
        } else {
            self.groups.clear();
            self.captures.clear();
        }
        for part in parts {
            let mut findings = part.findings.into_iter().map(Identified::new);
            match part.owner {
                M4Owner::Group { namespace, labels } => {
                    let key = (
                        self.table.resolve(namespace).to_string(),
                        self.table.resolve(labels).to_string(),
                    );
                    match findings.next() {
                        Some(finding) => self.groups.insert(key, finding),
                        None => self.groups.remove(&key),
                    };
                }
                M4Owner::Capture { app, service } => {
                    let key = (names[app].to_string(), service);
                    let findings: Vec<Identified> = findings.collect();
                    if findings.is_empty() {
                        self.captures.remove(&key);
                    } else {
                        self.captures.insert(key, findings);
                    }
                }
            }
        }
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
            .template("deploy.yaml", deployment(app_label))
            .build()
    }

    fn deployment(app_label: &str) -> String {
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
        )
    }

    fn install(cluster: &mut Cluster, release: &str, app_label: &str) {
        install_chart(cluster, release, demo_chart(app_label));
    }

    fn install_chart(cluster: &mut Cluster, release: &str, chart: Chart) {
        let rendered = chart.render(&Release::new(release, "default")).unwrap();
        cluster.install(&rendered).unwrap();
    }

    /// Ticks both auditors and checks the incremental one against the
    /// full recompute; returns the incremental delta.
    fn tick_both(
        incremental: &mut IncrementalAuditor,
        oracle: &mut IncrementalAuditor,
        cluster: &Cluster,
    ) -> AuditDelta {
        let delta = incremental.tick(cluster);
        let full = oracle.full_tick(cluster);
        assert_eq!(incremental.current(), oracle.current());
        assert_eq!(delta.introduced, full.introduced);
        assert_eq!(delta.resolved, full.resolved);
        delta
    }

    #[test]
    fn scoped_m4star_follows_a_release_through_a_group_it_does_not_own() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();
        // `alpha` and `delta` collide on `app=shared`; the group is
        // attributed to `alpha`, the first member. `bravo`'s service selects
        // `app=shared`, so it captures both. Neither `alpha` nor `bravo` is
        // dirtied again below.
        install(&mut cluster, "alpha", "shared");
        install(&mut cluster, "delta", "shared");
        let service = "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-svc
spec:
  selector:
    app: shared
  ports:
    - port: 80
      targetPort: 8080
";
        let bravo = Chart::builder("demo")
            .template("deploy.yaml", deployment("bravo"))
            .template("svc.yaml", service)
            .build();
        install_chart(&mut cluster, "bravo", bravo);
        tick_both(&mut incremental, &mut oracle, &cluster);
        let m4 = |findings: &[Finding], object: &str, needle: &str| {
            findings.iter().any(|f| {
                f.id == MisconfigId::M4Star
                    && f.object.starts_with(object)
                    && f.detail.contains(needle)
            })
        };

        // `charlie` joins the group and is captured by `bravo`'s service.
        install(&mut cluster, "charlie", "shared");
        let joined = tick_both(&mut incremental, &mut oracle, &cluster);
        assert!(
            m4(&joined.introduced, "default/alpha-web", "charlie-web"),
            "{joined:#?}"
        );
        assert!(
            m4(&joined.resolved, "default/alpha-web", "delta-web"),
            "{joined:#?}"
        );
        assert!(
            m4(&joined.introduced, "default/bravo-svc", "charlie-web"),
            "{joined:#?}"
        );

        // A label flip takes `charlie` out of the group and the selector.
        cluster.uninstall("charlie");
        install(&mut cluster, "charlie", "other");
        let left = tick_both(&mut incremental, &mut oracle, &cluster);
        assert!(
            m4(&left.resolved, "default/alpha-web", "charlie-web"),
            "{left:#?}"
        );
        assert!(
            m4(&left.resolved, "default/bravo-svc", "charlie-web"),
            "{left:#?}"
        );
        assert!(!m4(incremental.current(), "", "charlie-web"));

        // Back in, then uninstalled.
        cluster.uninstall("charlie");
        install(&mut cluster, "charlie", "shared");
        tick_both(&mut incremental, &mut oracle, &cluster);
        cluster.uninstall("charlie");
        let gone = tick_both(&mut incremental, &mut oracle, &cluster);
        assert!(
            m4(&gone.resolved, "default/bravo-svc", "charlie-web"),
            "{gone:#?}"
        );
        assert!(m4(incremental.current(), "default/bravo-svc", "delta-web"));
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
