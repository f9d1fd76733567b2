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
//! * the auditor keeps the `M4*` kernel's [`M4Index`] over those models
//!   across ticks, with each release ranked by name. When the labelled
//!   object set changed (`summary.labels`) or a release appeared or
//!   disappeared, a tick patches it: one integer pass drops the entries of
//!   the re-analyzed and removed releases and renumbers the shifted ranks,
//!   and a merge adds the new models' entries;
//! * the label pass then re-runs, only over what the re-analyzed and
//!   removed releases touch ([`m4_global_collisions_scoped`]): the
//!   collision groups keyed by their
//!   units' label sets before and after the change, and the captures of
//!   their services and of every service whose selector covers one of
//!   those units, which the index names without a scan. `M4*` findings are
//!   kept per owner — groups by resolved `(namespace, labels)`, captures
//!   per release by service position — and a tick replaces just the owners
//!   the pass reports;
//! * everything else is served from the per-app finding cache.
//!
//! The open findings stay sorted as a batch analysis orders them:
//! [`canonical_cmp`], then source (releases by name, then groups, then
//! captures), then position within the source. A tick takes the findings
//! of the sources it replaced out of that list, merges their new findings
//! in, and diffs identities ([`Finding::identity`], as multisets:
//! `audit::unmatched`) over those two sets alone. Where an unchanged source
//! shares an identity or a canonical position with a replaced one, that
//! shortcut could pick another order for the list or the delta, so the
//! tick re-sorts and diffs all open findings instead. Each identity is
//! hashed once, when its finding is made, and findings that stay open move
//! from one list to the next instead of being cloned.
//!
//! When the dirty ring no longer covers the cursor (overflow, reset, first
//! tick) the summary degrades to everything-dirty and the tick becomes a
//! full recompute into a fresh symbol table and index — the same code path
//! [`IncrementalAuditor::full_tick`] exposes as the property-tested oracle.
//! Symbols of uninstalled releases stay in the table until it holds more
//! than twice the symbols it held after its last rebuild; the tick then
//! re-interns the cached models into a fresh table and re-indexes them, so
//! memory stays bounded over long serve runs.
//!
//! Runtime observation never restarts pods, so a live-cluster audit leaves
//! the workload alone; the restart-based `M2` differential belongs to the
//! census's fresh per-app cluster.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::mem::take;

use ij_cluster::{Cluster, DirtySummary, RELEASE_ANNOTATION};
use ij_core::{
    canonical_cmp, m4_global_collisions_scoped, Analyzer, Finding, GlobalAppModel, GlobalUnit,
    M4Index, M4Owner, M4Part, M4Scope, StaticModel, SymMemo, SymbolTable,
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

/// Cached analysis state of one tracked release.
struct Tracked {
    name: String,
    findings: Vec<Identified>,
    /// The release's `M4*` input, interned into the auditor's table.
    global: GlobalAppModel,
    /// The `M4*` captures of its services, by service position.
    captures: BTreeMap<usize, Vec<Identified>>,
}

impl Borrow<GlobalAppModel> for Tracked {
    fn borrow(&self) -> &GlobalAppModel {
        &self.global
    }
}

/// What a tick replaced in the caches: the findings it took out, by
/// identity, and the sources whose findings it put in.
#[derive(Default)]
struct Replaced {
    /// Identities of every cached finding replaced or dropped.
    identities: Vec<u64>,
    /// Ranks of the re-analyzed releases, ascending.
    releases: Vec<usize>,
    /// Keys of the collision groups the `M4*` pass re-derived.
    groups: Vec<(String, String)>,
    /// `(rank, service)` of the captures the pass re-derived.
    captures: Vec<(usize, usize)>,
}

/// A delta-aware auditor for a whole multi-release cluster. See the module
/// docs for the re-evaluation policy. A tick costs what the releases it
/// re-analyzes cost, plus, when labels changed, an `M4*` pass that patches
/// the kept index and re-derives only what those releases touch, plus a
/// merge of their findings into the open list. Unchanged releases are
/// neither re-analyzed nor re-interned, and their findings are neither
/// re-hashed nor cloned.
pub struct IncrementalAuditor {
    analyzer: Analyzer,
    probe: Option<(RuntimeAnalyzer, HostBaseline)>,
    defines_policies: BTreeMap<String, bool>,
    cursor: Option<u64>,
    /// Tracked releases sorted by name; a release's rank in `index` is its
    /// position.
    apps: Vec<Tracked>,
    /// Symbols of every cached [`GlobalAppModel`].
    table: SymbolTable,
    /// `table.len()` right after its last rebuild.
    table_floor: usize,
    /// The `M4*` kernel's index over the models of `apps`.
    index: M4Index,
    /// `M4*` collision groups by resolved `(namespace, labels)`.
    groups: BTreeMap<(String, String), Identified>,
    /// The open findings, in batch order (see the module docs).
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
            apps: Vec::new(),
            table: SymbolTable::new(),
            table_floor: 0,
            index: M4Index::default(),
            groups: BTreeMap::new(),
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

    /// The rank of the tracked release `name`, or the rank it would take.
    fn rank(&self, name: &str) -> Result<usize, usize> {
        self.apps
            .binary_search_by(|app| app.name.as_str().cmp(name))
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

        // The cluster-wide label pass sees every release at once, so it
        // re-runs when labelled objects changed anywhere or the release set
        // itself moved (a tracked release lost its objects, or an untracked
        // one gained some) — over the whole cluster on a full recompute,
        // else scoped to the re-analyzed and removed releases.
        let apps_changed = grouped.iter().any(|(name, objects)| {
            let tracked = self.rank(name).is_ok();
            tracked == objects.is_empty()
        });
        let labels_moved = recompute_all || summary.labels || apps_changed;
        let runs_m4 = self.analyzer.runs_global() && labels_moved;

        // A full recompute starts from empty caches. Otherwise the findings
        // of the tracked releases to re-analyze or drop (and, when the pass
        // re-derives them, their captures) leave the open list, and their
        // units before the change are what the scoped pass re-derives from;
        // `dropped` holds their ranks.
        let mut replaced = Replaced::default();
        let mut old_units: Vec<GlobalUnit> = Vec::new();
        let mut dropped = Vec::new();
        if recompute_all {
            self.table = SymbolTable::new();
            for app in self.apps.drain(..) {
                if grouped.get(app.name.as_str()).is_none_or(|o| o.is_empty()) {
                    self.defines_policies.remove(&app.name);
                }
            }
            self.groups.clear();
        } else {
            for name in grouped.keys() {
                let Ok(rank) = self.rank(name) else {
                    continue;
                };
                dropped.push(rank);
                let app = &mut self.apps[rank];
                let captures = if runs_m4 {
                    take(&mut app.captures)
                } else {
                    BTreeMap::new()
                };
                let findings = app.findings.iter().chain(captures.values().flatten());
                replaced.identities.extend(findings.map(|f| f.identity));
                old_units.append(&mut app.global.units);
            }
        }

        // Tracked releases left without objects were uninstalled: they drop
        // out of the cache and the policy-template record. `gone` holds
        // their ranks before this tick, `fresh` the ranks of new releases
        // after it.
        let tracked_before = self.apps.len();
        let mut gone = Vec::new();
        for (name, _) in grouped.iter().filter(|(_, objects)| objects.is_empty()) {
            if let Ok(rank) = self.rank(name) {
                self.apps.remove(rank);
                gone.push(rank + gone.len());
                self.defines_policies.remove(*name);
            }
        }
        grouped.retain(|_, objects| !objects.is_empty());

        let report: Option<RuntimeReport> = match &self.probe {
            Some((probe, baseline)) if !grouped.is_empty() => {
                Some(probe.observe(cluster, baseline))
            }
            _ => None,
        };
        // Names ascend, so a release's rank is final once it is placed.
        let mut fresh = Vec::new();
        for (name, objects) in &grouped {
            let statics = StaticModel::from_objects(objects.iter().copied());
            let defines = self.defines_policies.get(*name).copied().unwrap_or(false);
            let findings = self
                .analyzer
                .analyze_model(name, &statics, cluster, report.as_ref(), defines)
                .into_iter()
                .map(Identified::new)
                .collect();
            let global = GlobalAppModel::intern(name, &statics, &mut self.table);
            let rank = match self.rank(name) {
                Ok(rank) => {
                    let app = &mut self.apps[rank];
                    app.findings = findings;
                    app.global = global;
                    rank
                }
                Err(rank) => {
                    let app = Tracked {
                        name: (*name).to_string(),
                        findings,
                        global,
                        captures: BTreeMap::new(),
                    };
                    self.apps.insert(rank, app);
                    fresh.push(rank);
                    rank
                }
            };
            replaced.releases.push(rank);
        }

        // Without a label change or a release coming or going, re-analyzed
        // releases intern the models they had, and the index stands.
        if recompute_all {
            self.index = M4Index::build(&self.apps);
        } else if labels_moved {
            let mut ranks = rank_map(tracked_before, &gone, &fresh);
            for &rank in &dropped {
                ranks[rank] = M4Index::GONE;
            }
            let apps = &self.apps;
            let added = replaced
                .releases
                .iter()
                .map(|&rank| (rank, &apps[rank].global));
            self.index.patch(&ranks, added);
        }
        if runs_m4 {
            let scope = (!recompute_all).then_some(M4Scope {
                dirty: &replaced.releases,
                old_units: &old_units,
            });
            let parts = m4_global_collisions_scoped(&self.index, &self.apps, &self.table, scope);
            self.replace_m4(parts, &mut replaced);
        }
        if recompute_all {
            self.table_floor = self.table.len();
            return self.next_round(None);
        }
        if self.table.len() > 2 * self.table_floor {
            self.rebuild_table();
        }
        self.next_round(Some(replaced))
    }

    /// Replaces the `M4*` owners a pass reported, noting what it replaced.
    fn replace_m4(&mut self, parts: Vec<M4Part>, replaced: &mut Replaced) {
        for part in parts {
            let mut findings = part.findings.into_iter().map(Identified::new);
            match part.owner {
                M4Owner::Group { namespace, labels } => {
                    let key = (
                        self.table.resolve(namespace).to_string(),
                        self.table.resolve(labels).to_string(),
                    );
                    let old = match findings.next() {
                        Some(finding) => self.groups.insert(key.clone(), finding),
                        None => self.groups.remove(&key),
                    };
                    replaced.identities.extend(old.map(|f| f.identity));
                    replaced.groups.push(key);
                }
                M4Owner::Capture { app, service } => {
                    let captures = &mut self.apps[app].captures;
                    let findings: Vec<Identified> = findings.collect();
                    let old = if findings.is_empty() {
                        captures.remove(&service)
                    } else {
                        captures.insert(service, findings)
                    };
                    replaced
                        .identities
                        .extend(old.iter().flatten().map(|f| f.identity));
                    replaced.captures.push((app, service));
                }
            }
        }
    }

    /// Builds the next open list and diffs it against the previous one.
    /// With `replaced`, the findings it took out leave the list, its
    /// sources' new findings are merged in, and identities are diffed over
    /// those two sets alone. Without it, or when [`plan_merge`] turns the
    /// merge down, every open finding is taken out and every cached one
    /// sorted back in.
    fn next_round(&mut self, replaced: Option<Replaced>) -> AuditDelta {
        let (apps, groups) = (&self.apps, &self.groups);
        let previous = (&self.previous[..], &self.previous_identities[..]);
        let Merge { fresh, taken, at } = replaced
            .and_then(|replaced| plan_merge(apps, groups, previous, replaced))
            .unwrap_or_else(|| Merge {
                fresh: open_findings(apps, groups),
                taken: vec![true; previous.0.len()],
                // Nothing stays, so no position is read.
                at: Vec::new(),
            });
        let old_ids: Vec<u64> = self
            .previous_identities
            .iter()
            .zip(&taken)
            .filter_map(|(&id, &out)| out.then_some(id))
            .collect();
        let fresh_ids: Vec<u64> = fresh.iter().map(|f| f.identity).collect();
        let introduced = unmatched(&fresh_ids, &old_ids);
        let mut resolved = unmatched(&old_ids, &fresh_ids).into_iter();
        // Resolved findings move into the delta. The other findings taken
        // out match new ones in the same order, so they move over instead
        // of being cloned; a new finding without a match in line is cloned.
        let mut delta = AuditDelta::default();
        let mut kept = Vec::with_capacity(self.previous.len());
        let mut reusable = Vec::new();
        for (pos, ((finding, identity), out)) in take(&mut self.previous)
            .into_iter()
            .zip(take(&mut self.previous_identities))
            .zip(taken)
            .enumerate()
        {
            if !out {
                kept.push((pos, identity, finding));
            } else if resolved.next() == Some(true) {
                delta.resolved.push(finding);
            } else {
                reusable.push((identity, finding));
            }
        }
        let mut reusable = reusable.into_iter().peekable();
        let mut carry = |f: &Identified, new: bool| {
            if new {
                delta.introduced.push(f.finding.clone());
            } else if let Some((_, finding)) = reusable.next_if(|&(id, _)| id == f.identity) {
                return finding;
            }
            f.finding.clone()
        };
        let len = kept.len() + fresh.len();
        let (mut findings, mut identities) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut fresh = fresh.into_iter().zip(introduced).enumerate().peekable();
        for (pos, identity, finding) in kept {
            while let Some((_, (f, new))) = fresh.next_if(|&(j, _)| at[j] <= pos) {
                findings.push(carry(f, new));
                identities.push(f.identity);
            }
            findings.push(finding);
            identities.push(identity);
        }
        for (_, (f, new)) in fresh {
            findings.push(carry(f, new));
            identities.push(f.identity);
        }
        self.previous = findings;
        self.previous_identities = identities;
        delta
    }

    /// Re-interns every cached model into a fresh table, dropping the
    /// symbols only uninstalled releases used, and re-indexes the models.
    fn rebuild_table(&mut self) {
        let mut table = SymbolTable::new();
        let mut memo = SymMemo::new(&self.table);
        for app in &mut self.apps {
            app.global
                .remap_in_place(&self.table, &mut table, &mut memo);
        }
        self.table = table;
        self.table_floor = self.table.len();
        self.index = M4Index::build(&self.apps);
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

/// Every cached finding in batch order: per-release findings in release
/// order, then `M4*` groups, then captures, stably sorted by
/// [`canonical_cmp`].
fn open_findings<'a>(
    apps: &'a [Tracked],
    groups: &'a BTreeMap<(String, String), Identified>,
) -> Vec<&'a Identified> {
    let mut open: Vec<&Identified> = apps
        .iter()
        .flat_map(|app| &app.findings)
        .chain(groups.values())
        .chain(apps.iter().flat_map(|app| app.captures.values().flatten()))
        .collect();
    open.sort_by(|a, b| canonical_cmp(&a.finding, &b.finding));
    open
}

/// How the next open list comes from the previous one: the findings
/// `taken` out of it (a mask over it), and the `fresh` findings merged in,
/// in batch order, each before the open finding at position `at` and every
/// later one.
struct Merge<'a> {
    fresh: Vec<&'a Identified>,
    taken: Vec<bool>,
    at: Vec<usize>,
}

/// The merge that replaces the findings of the sources `replaced` names,
/// or `None` when an unchanged source shares an identity or a canonical
/// position with them: only a full sort then gives the batch order.
fn plan_merge<'a>(
    apps: &'a [Tracked],
    groups: &'a BTreeMap<(String, String), Identified>,
    (previous, previous_identities): (&[Finding], &[u64]),
    mut replaced: Replaced,
) -> Option<Merge<'a>> {
    replaced.groups.sort_unstable();
    replaced.groups.dedup();
    replaced.captures.sort_unstable();
    replaced.captures.dedup();
    let mut fresh: Vec<&Identified> = replaced
        .releases
        .iter()
        .flat_map(|&rank| &apps[rank].findings)
        .chain(replaced.groups.iter().filter_map(|key| groups.get(key)))
        .chain(
            replaced
                .captures
                .iter()
                .filter_map(|&(rank, service)| apps[rank].captures.get(&service))
                .flatten(),
        )
        .collect();
    fresh.sort_by(|a, b| canonical_cmp(&a.finding, &b.finding));

    // Each taken identity must be held by replaced findings only, as often
    // as they hold it, and no open finding that stays may share an
    // identity with a new one.
    let mut taken_ids = replaced.identities;
    taken_ids.sort_unstable();
    let mut fresh_ids: Vec<u64> = fresh.iter().map(|f| f.identity).collect();
    fresh_ids.sort_unstable();
    let mut taken = Vec::with_capacity(previous.len());
    for id in previous_identities {
        let out = taken_ids.binary_search(id).is_ok();
        if !out && fresh_ids.binary_search(id).is_ok() {
            return None;
        }
        taken.push(out);
    }
    if taken.iter().filter(|&&out| out).count() != taken_ids.len() {
        return None;
    }
    // A new finding goes before the first open finding that orders after
    // it. A tie with one that stays is decided by source order, which the
    // list does not hold.
    let mut at = Vec::with_capacity(fresh.len());
    for f in &fresh {
        let lo = previous.partition_point(|p| canonical_cmp(p, &f.finding).is_lt());
        let tied = previous[lo..]
            .iter()
            .zip(&taken[lo..])
            .take_while(|(p, _)| canonical_cmp(p, &f.finding).is_eq())
            .any(|(_, &out)| !out);
        if tied {
            return None;
        }
        at.push(lo);
    }
    Some(Merge { fresh, taken, at })
}

/// Each old rank's new one in a list of `len` releases that lost those at
/// the old ranks `gone` and gained those at the new ranks `fresh` (both
/// ascending); a gone rank maps to [`M4Index::GONE`].
fn rank_map(len: usize, gone: &[usize], fresh: &[usize]) -> Vec<u32> {
    let mut gone = gone.iter().copied().peekable();
    let mut fresh = fresh.iter().copied().peekable();
    let mut next = 0;
    (0..len)
        .map(|old| {
            if gone.next_if_eq(&old).is_some() {
                return M4Index::GONE;
            }
            while fresh.next_if_eq(&next).is_some() {
                next += 1;
            }
            next += 1;
            u32::try_from(next - 1).expect("fewer than 2^32 releases")
        })
        .collect()
}

#[cfg(test)]
impl IncrementalAuditor {
    /// The kept index equals one built from the cached models, and the
    /// open list equals a stable re-sort of the caches.
    fn assert_consistent(&self) {
        assert_eq!(self.index, M4Index::build(&self.apps), "kept M4* index");
        let open = open_findings(&self.apps, &self.groups);
        let findings: Vec<&Finding> = open.iter().map(|f| &f.finding).collect();
        let identities: Vec<u64> = open.iter().map(|f| f.identity).collect();
        assert_eq!(
            self.previous.iter().collect::<Vec<_>>(),
            findings,
            "open list"
        );
        assert_eq!(self.previous_identities, identities, "open identities");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_chart::{Chart, Release};
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
    use ij_core::MisconfigId;
    use ij_datasets::{
        apply_mutation, ChurnMutation, ChurnSession, CorpusGenerator, CorpusProfile,
    };
    use ij_model::{Container, Labels, ObjectMeta, Pod, PodSpec};
    use proptest::prelude::*;

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
        incremental.assert_consistent();
        oracle.assert_consistent();
        delta
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After every tick of a random churn stream the kept `M4*` index
        /// equals one built from the cached models, the merged open list
        /// equals a stable re-sort of the caches, and both auditors agree.
        #[test]
        fn kept_index_and_merged_open_list_match_a_rebuild(
            seed in 0u64..1_000_000,
            steps in 1usize..40,
            profile in 0usize..3,
        ) {
            let profile = ["baseline", "mesh-heavy", "legacy"][profile];
            let generator = CorpusGenerator::new(
                CorpusProfile::named(profile)
                    .expect("known profile")
                    .with_apps(24)
                    .with_seed(seed),
            );
            let mut session = ChurnSession::new(generator);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 3,
                seed,
                behaviors: BehaviorRegistry::new(),
            });
            let mut incremental = IncrementalAuditor::new();
            let mut oracle = IncrementalAuditor::new();
            for _ in 0..steps {
                let mutation = session.next_mutation();
                if let ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } =
                    &mutation
                {
                    let defines = spec.plan.netpol.defines_policy();
                    incremental.set_chart_defines_policies(&spec.name, defines);
                    oracle.set_chart_defines_policies(&spec.name, defines);
                }
                apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
                tick_both(&mut incremental, &mut oracle, &cluster);
            }
        }
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
    fn findings_tied_across_sources_keep_the_batch_order() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();
        // `alpha` and `bravo` each ship a service of the same fixed name
        // selecting `target`'s pods: their captures share a canonical
        // position, and only source order (`alpha` first) separates them.
        let service = "\
apiVersion: v1
kind: Service
metadata:
  name: shared-svc
spec:
  selector:
    app: target
  ports:
    - port: 80
      targetPort: 8080
";
        let with_service = |label: &str| {
            Chart::builder("demo")
                .template("deploy.yaml", deployment(label))
                .template("svc.yaml", service)
                .build()
        };
        install(&mut cluster, "target", "target");
        install_chart(&mut cluster, "alpha", with_service("alpha"));
        install_chart(&mut cluster, "bravo", with_service("bravo"));
        tick_both(&mut incremental, &mut oracle, &cluster);
        let tied: Vec<&Finding> = incremental
            .current()
            .iter()
            .filter(|f| f.id == MisconfigId::M4Star && f.object == "default/shared-svc")
            .collect();
        assert_eq!(tied.len(), 2, "{tied:#?}");
        assert!(tied[0].app == "alpha" && tied[1].app == "bravo");

        // Re-derive `alpha`'s capture while `bravo`'s stays: the new one
        // must land before `bravo`'s again.
        for label in ["alpha-2", "alpha"] {
            cluster.uninstall("alpha");
            install_chart(&mut cluster, "alpha", with_service(label));
            tick_both(&mut incremental, &mut oracle, &cluster);
        }
        cluster.uninstall("target");
        let gone = tick_both(&mut incremental, &mut oracle, &cluster);
        assert_eq!(
            gone.resolved
                .iter()
                .filter(|f| f.id == MisconfigId::M4Star && f.object == "default/shared-svc")
                .count(),
            2
        );
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
            tick_both(&mut incremental, &mut oracle, &cluster);
            if round == 0 {
                one_release = incremental.table.len();
            }
            cluster.uninstall(&name);
            tick_both(&mut incremental, &mut oracle, &cluster);
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
