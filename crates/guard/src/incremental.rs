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
//! * each tracked release holds an id, a slot it keeps while tracked and
//!   that the next new release reuses once it leaves; a list of the ids in
//!   name order gives a release's rank. The auditor keeps the `M4*`
//!   kernel's [`M4Index`] over the models by id across ticks. When the
//!   labelled object set changed (`summary.labels`) or a release appeared
//!   or disappeared, a tick patches it with the old and new models of the
//!   re-analyzed and removed releases: only their entries are located or
//!   written, and the entries between them move in blocks;
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
//! The open findings live in one ordered map whose key order is the batch
//! order: a finding's key is the position
//! [`canonical_cmp`](ij_core::canonical_cmp) sorts it by (class, object,
//! port), then its [`Place`]: its source (releases by name, then groups,
//! then captures by release name and service) and its position there. The
//! findings that tie on the position form a run, one range of the map. Keys
//! name releases, never ids or ranks, so no entry moves when other releases
//! come or go. A tick takes the entries of the sources it replaced out of
//! the map, puts their new findings in, and diffs identities
//! ([`Finding::identity`], as multisets: `audit::unmatched`) run by run,
//! over each touched run before and after the edit. The identity hashes
//! every field, so all open findings of one identity sit in one run, and
//! that diff equals the diff of the whole lists. Each identity is hashed
//! once, when its finding is made.
//!
//! When the dirty ring no longer covers the cursor (overflow, reset, first
//! tick) the summary degrades to everything-dirty and the tick becomes a
//! full recompute into a fresh symbol table, index and set of ids (handed
//! out in name order), which replaces every source and so touches every
//! run — the same code path
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
use std::mem::{replace, take};

use ij_cluster::{Cluster, DirtySummary, RELEASE_ANNOTATION};
use ij_core::{
    m4_global_collisions_scoped, Analyzer, Finding, GlobalAppModel, M4Index, M4Owner, M4Part,
    M4Scope, MisconfigId, StaticModel, SymMemo, SymbolTable,
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
#[derive(Clone)]
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

    /// The key of the run the finding sits in: the position
    /// [`canonical_cmp`](ij_core::canonical_cmp) sorts it by.
    fn canonical(&self) -> Canonical {
        let f = &self.finding;
        (f.id, f.object.clone(), f.port)
    }
}

/// Class, object and port: the key of a run of open findings.
type Canonical = (MisconfigId, String, Option<u16>);

/// Where an open finding sits among those it ties with on [`Canonical`]:
/// its source, in the order a batch analysis lists the sources before its
/// stable canonical sort, then its position in the source.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Place {
    /// A release's own finding: the release's name, the finding's
    /// position.
    Release(String, usize),
    /// An `M4*` collision group: its resolved `(namespace, labels)`.
    Group((String, String)),
    /// An `M4*` capture: the release's name, the service's position in
    /// it, the finding's position among the service's captures.
    Capture(String, usize, usize),
}

/// The open findings, each by the key of its run and its [`Place`] in the
/// run: in key order, the batch order.
type Open = BTreeMap<(Canonical, Place), Identified>;

/// A source's findings with their places, `place(i)`.
fn placed<'a>(
    findings: &'a [Identified],
    place: impl Fn(usize) -> Place + 'a,
) -> impl Iterator<Item = (Place, &'a Identified)> + 'a {
    findings.iter().enumerate().map(move |(i, f)| (place(i), f))
}

/// Cached analysis state of one tracked release, in the slot of its id.
struct Tracked {
    name: String,
    findings: Vec<Identified>,
    /// The release's `M4*` input, interned into the auditor's table.
    global: GlobalAppModel,
    /// The `M4*` captures of its services, by service position.
    captures: BTreeMap<usize, Vec<Identified>>,
}

impl Tracked {
    /// Empties the slot of a release that is no longer tracked and returns
    /// the model it had. An empty slot indexes nothing.
    fn vacate(&mut self) -> GlobalAppModel {
        let vacant = Tracked {
            name: String::new(),
            findings: Vec::new(),
            global: GlobalAppModel {
                app: self.global.app,
                units: Vec::new(),
                services: Vec::new(),
            },
            captures: BTreeMap::new(),
        };
        replace(self, vacant).global
    }
}

impl Borrow<GlobalAppModel> for Tracked {
    fn borrow(&self) -> &GlobalAppModel {
        &self.global
    }
}

/// What a tick replaced in the caches: where the findings it took out sat
/// in the open map, and the sources whose findings it put in.
#[derive(Default)]
struct Replaced {
    /// The open-map keys of every cached finding replaced or dropped.
    removed: Vec<(Canonical, Place)>,
    /// Ids of the re-analyzed releases, in name order.
    releases: Vec<usize>,
    /// Keys of the collision groups the `M4*` pass re-derived.
    groups: Vec<(String, String)>,
    /// `(id, service)` of the captures the pass re-derived.
    captures: Vec<(usize, usize)>,
}

impl Replaced {
    /// Notes that the cached findings at these places leave the open map.
    fn remove<'a>(&mut self, placed: impl Iterator<Item = (Place, &'a Identified)>) {
        self.removed
            .extend(placed.map(|(place, f)| (f.canonical(), place)));
    }
}

/// What the last tick did one entry or one finding at a time.
#[cfg(test)]
#[derive(Default)]
struct TickWork {
    /// `M4Index` entries the patch located or wrote.
    patched: usize,
    /// Open findings taken out of or put into the open map.
    moved: usize,
    /// Whether a new release took the id of one that left.
    reused_id: bool,
}

/// A delta-aware auditor for a whole multi-release cluster. See the module
/// docs for the re-evaluation policy. A tick costs what the releases it
/// re-analyzes cost, plus, when labels changed, an `M4*` pass that patches
/// the kept index and re-derives only what those releases touch, plus an
/// edit of the runs of the open map their findings sit in. Unchanged
/// releases are neither re-analyzed nor re-interned, and their findings are
/// neither re-hashed nor cloned.
pub struct IncrementalAuditor {
    analyzer: Analyzer,
    probe: Option<(RuntimeAnalyzer, HostBaseline)>,
    defines_policies: BTreeMap<String, bool>,
    cursor: Option<u64>,
    /// Tracked releases by id; a free id's slot is empty.
    apps: Vec<Tracked>,
    /// The free ids, reused last-freed first.
    free: Vec<usize>,
    /// The ids of the tracked releases in name order: a release's place
    /// here is its rank.
    order: Vec<usize>,
    /// Symbols of every cached [`GlobalAppModel`].
    table: SymbolTable,
    /// `table.len()` right after its last rebuild.
    table_floor: usize,
    /// The `M4*` kernel's index over the models of `apps`, by id.
    index: M4Index,
    /// `M4*` collision groups by resolved `(namespace, labels)`.
    groups: BTreeMap<(String, String), Identified>,
    /// The open findings, in batch order (see the module docs).
    open: Open,
    #[cfg(test)]
    work: TickWork,
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
            free: Vec::new(),
            order: Vec::new(),
            table: SymbolTable::new(),
            table_floor: 0,
            index: M4Index::default(),
            groups: BTreeMap::new(),
            open: BTreeMap::new(),
            #[cfg(test)]
            work: TickWork::default(),
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

    /// The open findings after the last tick, in batch order: sorted by
    /// [`canonical_cmp`](ij_core::canonical_cmp), ties in source order
    /// (see the module docs). Collected from the open map on each call.
    pub fn current(&self) -> Vec<&Finding> {
        self.open.values().map(|f| &f.finding).collect()
    }

    /// Number of releases with cached analysis state.
    pub fn tracked_apps(&self) -> usize {
        self.order.len()
    }

    /// The rank of the tracked release `name`, or the rank it would take.
    fn rank(&self, name: &str) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&id| self.apps[id].name.as_str().cmp(name))
    }

    /// Runs one audit round, re-analyzing only what changed since the last
    /// round, and reports the delta.
    pub fn tick(&mut self, cluster: &Cluster) -> AuditDelta {
        #[cfg(test)]
        {
            self.work = TickWork::default();
        }
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

        // A full recompute starts from empty caches and hands out ids
        // afresh, and every open finding leaves the open map. Otherwise the
        // findings of the tracked releases to re-analyze or drop (and, when
        // the pass re-derives them, their captures) leave it. Tracked releases left without
        // objects were uninstalled: they drop out of the cache and the
        // policy-template record, and free their ids. `old` collects the
        // models the re-analyzed and removed releases had, which the index
        // patch drops and the scoped pass re-derives from; `old_ids` their
        // ids.
        let mut replaced = Replaced::default();
        let (mut old_ids, mut old) = (Vec::new(), Vec::new());
        if recompute_all {
            self.table = SymbolTable::new();
            replaced.removed = self.open.keys().cloned().collect();
            for &id in &self.order {
                let name = &self.apps[id].name;
                if grouped.get(name.as_str()).is_none_or(|o| o.is_empty()) {
                    self.defines_policies.remove(name);
                }
            }
            self.apps.clear();
            self.free.clear();
            self.order.clear();
            self.groups.clear();
        } else {
            for (name, objects) in &grouped {
                let Ok(rank) = self.rank(name) else {
                    continue;
                };
                let id = self.order[rank];
                let app = &mut self.apps[id];
                let captures = if runs_m4 {
                    take(&mut app.captures)
                } else {
                    BTreeMap::new()
                };
                let release = &app.name;
                replaced.remove(placed(&app.findings, |i| {
                    Place::Release(release.clone(), i)
                }));
                for (&service, findings) in &captures {
                    let place = |i| Place::Capture(release.clone(), service, i);
                    replaced.remove(placed(findings, place));
                }
                if objects.is_empty() {
                    old_ids.push(id);
                    old.push(app.vacate());
                    self.order.remove(rank);
                    self.free.push(id);
                    self.defines_policies.remove(*name);
                }
            }
        }
        grouped.retain(|_, objects| !objects.is_empty());

        let report: Option<RuntimeReport> = match &self.probe {
            Some((probe, baseline)) if !grouped.is_empty() => {
                Some(probe.observe(cluster, baseline))
            }
            _ => None,
        };
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
            let id = match self.rank(name) {
                Ok(rank) => {
                    let id = self.order[rank];
                    let app = &mut self.apps[id];
                    app.findings = findings;
                    old_ids.push(id);
                    old.push(replace(&mut app.global, global));
                    id
                }
                Err(rank) => {
                    let app = Tracked {
                        name: (*name).to_string(),
                        findings,
                        global,
                        captures: BTreeMap::new(),
                    };
                    let id = match self.free.pop() {
                        Some(id) => {
                            self.apps[id] = app;
                            #[cfg(test)]
                            {
                                self.work.reused_id = true;
                            }
                            id
                        }
                        None => {
                            self.apps.push(app);
                            self.apps.len() - 1
                        }
                    };
                    self.order.insert(rank, id);
                    id
                }
            };
            replaced.releases.push(id);
        }

        // Without a label change or a release coming or going, re-analyzed
        // releases intern the models they had, and the index stands.
        if recompute_all {
            self.index = M4Index::build(&self.apps);
        } else if labels_moved {
            let apps = &self.apps;
            #[cfg_attr(not(test), allow(unused_variables))]
            let patched = self.index.patch(
                old_ids.iter().copied().zip(&old),
                replaced.releases.iter().map(|&id| (id, &apps[id].global)),
            );
            #[cfg(test)]
            {
                self.work.patched = patched;
            }
        }
        if runs_m4 {
            let scope = (!recompute_all).then_some(M4Scope {
                dirty: &replaced.releases,
                old: &old,
            });
            let parts = m4_global_collisions_scoped(&self.index, &self.apps, &self.table, scope);
            self.replace_m4(parts, &mut replaced);
        }
        if recompute_all {
            self.table_floor = self.table.len();
        } else if self.table.len() > 2 * self.table_floor {
            self.rebuild_table();
        }
        self.next_round(replaced)
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
                    replaced.remove(old.iter().map(|f| (Place::Group(key.clone()), f)));
                    replaced.groups.push(key);
                }
                M4Owner::Capture { app, service } => {
                    let tracked = &mut self.apps[app];
                    let findings: Vec<Identified> = findings.collect();
                    let old = if findings.is_empty() {
                        tracked.captures.remove(&service)
                    } else {
                        tracked.captures.insert(service, findings)
                    };
                    let place = |i| Place::Capture(tracked.name.clone(), service, i);
                    replaced.remove(placed(old.as_deref().unwrap_or_default(), place));
                    replaced.captures.push((app, service));
                }
            }
        }
    }

    /// Takes the findings `replaced` names out of the open map, puts the
    /// new findings of its sources in, and diffs the touched runs.
    fn next_round(&mut self, replaced: Replaced) -> AuditDelta {
        let (apps, groups) = (&self.apps, &self.groups);
        let mut fresh = Vec::new();
        for &id in &replaced.releases {
            let app = &apps[id];
            fresh.extend(placed(&app.findings, move |i| {
                Place::Release(app.name.clone(), i)
            }));
        }
        for key in replaced.groups {
            if let Some(f) = groups.get(&key) {
                fresh.push((Place::Group(key), f));
            }
        }
        for &(id, service) in &replaced.captures {
            let app = &apps[id];
            if let Some(findings) = app.captures.get(&service) {
                let place = move |i| Place::Capture(app.name.clone(), service, i);
                fresh.extend(placed(findings, place));
            }
        }
        #[cfg(test)]
        {
            self.work.moved = replaced.removed.len() + fresh.len();
        }
        edit(&mut self.open, replaced.removed, fresh)
    }

    /// Re-interns every cached model into a fresh table, dropping the
    /// symbols only uninstalled releases used, and re-indexes the models.
    fn rebuild_table(&mut self) {
        let mut table = SymbolTable::new();
        let mut memo = SymMemo::new(&self.table);
        for &id in &self.order {
            self.apps[id]
                .global
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

/// Edits the open map and diffs it: the entries at the `removed` keys
/// leave, the `fresh` findings enter at their places, and each touched run,
/// in order, is diffed over its identities before and after the edit
/// (`audit::unmatched`). An identity hashes every field of its finding, so
/// all open findings of one identity share a run, and the runs' deltas
/// together are the diff of the whole flattened lists.
fn edit(
    open: &mut Open,
    removed: Vec<(Canonical, Place)>,
    fresh: Vec<(Place, &Identified)>,
) -> AuditDelta {
    // Each touched run's identities before the edit, and the entries taken
    // out of it.
    let mut touched: BTreeMap<Canonical, (Vec<u64>, Vec<Identified>)> = BTreeMap::new();
    for entry in removed {
        let (_, out) = touched
            .entry(entry.0.clone())
            .or_insert_with_key(|key| (identities(open, key), Vec::new()));
        out.push(open.remove(&entry).expect("a replaced finding is open"));
    }
    for (place, f) in fresh {
        let key = f.canonical();
        let (_, out) = touched
            .entry(key.clone())
            .or_insert_with_key(|key| (identities(open, key), Vec::new()));
        // An entry taken out with the same identity holds the same finding:
        // it moves back in instead of the cached one being cloned.
        let entry = take_identity(out, f.identity).unwrap_or_else(|| f.clone());
        open.insert((key, place), entry);
    }
    let mut delta = AuditDelta::default();
    for (key, (before, mut out)) in touched {
        let entries: Vec<&Identified> = run(open, &key).collect();
        let after: Vec<u64> = entries.iter().map(|f| f.identity).collect();
        if after == before {
            // Every entry taken out went back in.
            continue;
        }
        // An identity resolves as often as more of its entries left the run
        // than entered it, and that many were not moved back in.
        for (identity, resolved) in before.iter().zip(unmatched(&before, &after)) {
            if resolved {
                let f =
                    take_identity(&mut out, *identity).expect("a resolved finding was taken out");
                delta.resolved.push(f.finding);
            }
        }
        for (f, introduced) in entries.into_iter().zip(unmatched(&after, &before)) {
            if introduced {
                delta.introduced.push(f.finding.clone());
            }
        }
    }
    delta
}

/// The identities of the run whose findings tie on `key`, in its order.
fn identities(open: &Open, key: &Canonical) -> Vec<u64> {
    run(open, key).map(|f| f.identity).collect()
}

/// The entries of `open` in the run whose findings tie on `key`, in order.
fn run<'a>(open: &'a Open, key: &'a Canonical) -> impl Iterator<Item = &'a Identified> {
    // No place orders before the first release's, named "", at 0.
    let first = (key.clone(), Place::Release(String::new(), 0));
    open.range(&first..)
        .take_while(move |((k, _), _)| k == key)
        .map(|(_, f)| f)
}

/// Takes an entry of this identity out of `out`, if it holds one.
fn take_identity(out: &mut Vec<Identified>, identity: u64) -> Option<Identified> {
    let i = out.iter().position(|o| o.identity == identity)?;
    Some(out.swap_remove(i))
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

    /// Every cached finding in batch order: per-release findings in release
    /// order, then `M4*` groups, then captures, stably sorted by
    /// [`canonical_cmp`](ij_core::canonical_cmp). The oracle of the open map.
    fn open_findings<'a>(
        apps: &'a [Tracked],
        order: &[usize],
        groups: &'a BTreeMap<(String, String), Identified>,
    ) -> Vec<&'a Identified> {
        let ranked = || order.iter().map(|&id| &apps[id]);
        let mut open: Vec<&Identified> = ranked()
            .flat_map(|app| &app.findings)
            .chain(groups.values())
            .chain(ranked().flat_map(|app| app.captures.values().flatten()))
            .collect();
        open.sort_by(|a, b| ij_core::canonical_cmp(&a.finding, &b.finding));
        open
    }

    /// The diff of two whole open lists, as identity multisets: the oracle of
    /// the run-by-run diff in [`edit`].
    fn whole_list_diff(before: &[Identified], after: &[Identified]) -> AuditDelta {
        let ids = |list: &[Identified]| -> Vec<u64> { list.iter().map(|f| f.identity).collect() };
        let (old, new) = (ids(before), ids(after));
        let unmatched_of = |list: &[Identified], mask: Vec<bool>| -> Vec<Finding> {
            list.iter()
                .zip(mask)
                .filter(|&(_, out)| out)
                .map(|(f, _)| f.finding.clone())
                .collect()
        };
        AuditDelta {
            introduced: unmatched_of(after, unmatched(&new, &old)),
            resolved: unmatched_of(before, unmatched(&old, &new)),
        }
    }

    impl IncrementalAuditor {
        /// The open map, flattened.
        fn flattened(&self) -> Vec<Identified> {
            self.open.values().cloned().collect()
        }

        /// The kept index equals one built from the cached models, the ids are
        /// in name order and every other slot is free and empty, and the open
        /// map holds each finding in the run of its canonical key and,
        /// flattened, equals a stable re-sort of the caches.
        fn assert_consistent(&self) {
            assert_eq!(self.index, M4Index::build(&self.apps), "kept M4* index");
            let names: Vec<&str> = self
                .order
                .iter()
                .map(|&id| self.apps[id].name.as_str())
                .collect();
            assert!(
                names.windows(2).all(|w| w[0] < w[1]),
                "ids in name order: {names:?}"
            );
            let mut ids: Vec<usize> = self.order.iter().chain(&self.free).copied().collect();
            ids.sort_unstable();
            assert!(
                ids.iter().copied().eq(0..self.apps.len()),
                "every id held or free once"
            );
            for &id in &self.free {
                let app = &self.apps[id];
                assert!(
                    app.name.is_empty()
                        && app.findings.is_empty()
                        && app.captures.is_empty()
                        && app.global.units.is_empty()
                        && app.global.services.is_empty(),
                    "free slot {id} holds state"
                );
            }
            for ((key, _), f) in &self.open {
                assert_eq!(f.canonical(), *key, "a finding outside its run");
            }
            let pair = |f: &Identified| (f.identity, f.finding.clone());
            let open: Vec<_> = open_findings(&self.apps, &self.order, &self.groups)
                .into_iter()
                .map(pair)
                .collect();
            let kept: Vec<_> = self.flattened().iter().map(pair).collect();
            assert_eq!(kept, open, "open map");
        }
    }

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
    /// full recompute, and its delta against the diff of the whole open
    /// lists before and after; returns the incremental delta.
    fn tick_both(
        incremental: &mut IncrementalAuditor,
        oracle: &mut IncrementalAuditor,
        cluster: &Cluster,
    ) -> AuditDelta {
        let before = incremental.flattened();
        let delta = incremental.tick(cluster);
        let full = oracle.full_tick(cluster);
        assert_eq!(incremental.current(), oracle.current());
        assert_eq!(delta.introduced, full.introduced);
        assert_eq!(delta.resolved, full.resolved);
        let whole = whole_list_diff(&before, &incremental.flattened());
        assert_eq!(delta.introduced, whole.introduced, "introduced");
        assert_eq!(delta.resolved, whole.resolved, "resolved");
        incremental.assert_consistent();
        oracle.assert_consistent();
        delta
    }

    /// A churn tenant as `ij serve` runs one: a session over `horizon`
    /// releases of `profile` and an empty 3-node cluster.
    fn tenant(profile: &str, horizon: usize, seed: u64) -> (ChurnSession, Cluster) {
        let generator = CorpusGenerator::new(
            CorpusProfile::named(profile)
                .expect("known profile")
                .with_apps(horizon)
                .with_seed(seed),
        );
        let cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed,
            behaviors: BehaviorRegistry::new(),
        });
        (ChurnSession::new(generator), cluster)
    }

    /// Records the M6 bit of the releases `mutation` installs, as `ij
    /// serve` does, and applies it.
    fn apply(
        cluster: &mut Cluster,
        auditors: &mut [&mut IncrementalAuditor],
        mutation: &ChurnMutation,
    ) {
        if let ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } = mutation {
            let defines = spec.plan.netpol.defines_policy();
            for auditor in auditors {
                auditor.set_chart_defines_policies(&spec.name, defines);
            }
        }
        apply_mutation(cluster, mutation).expect("churn mutations apply");
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
            let (mut session, mut cluster) = tenant(profile, 24, seed);
            let mut incremental = IncrementalAuditor::new();
            let mut oracle = IncrementalAuditor::new();
            for _ in 0..steps {
                let mutation = session.next_mutation();
                apply(&mut cluster, &mut [&mut incremental, &mut oracle], &mutation);
                tick_both(&mut incremental, &mut oracle, &cluster);
            }
        }
    }

    /// The long arm of `kept_index_and_merged_open_list_match_a_rebuild`:
    /// streams long enough that releases leave and new ones take their ids
    /// many times. The kept state is checked after every tick, and its open
    /// list against the full recompute after every tenth.
    #[test]
    fn kept_index_and_merged_open_list_match_a_rebuild_over_long_streams() {
        let mut reused = 0;
        for seed in 0..12u64 {
            for profile in ["baseline", "mesh-heavy", "legacy"] {
                let (mut session, mut cluster) = tenant(profile, 64, seed);
                let mut incremental = IncrementalAuditor::new();
                let mut oracle = IncrementalAuditor::new();
                for step in 0..300 {
                    let mutation = session.next_mutation();
                    apply(
                        &mut cluster,
                        &mut [&mut incremental, &mut oracle],
                        &mutation,
                    );
                    incremental.tick(&cluster);
                    incremental.assert_consistent();
                    if step % 10 == 9 || step == 299 {
                        oracle.full_tick(&cluster);
                        assert_eq!(
                            incremental.current(),
                            oracle.current(),
                            "seed {seed}, {profile}, step {step}"
                        );
                    }
                    reused += usize::from(incremental.work.reused_id);
                }
            }
        }
        assert!(
            reused >= 20,
            "only {reused} ticks gave a new release a freed id"
        );
    }

    /// `M4Index` entries of a model: a row and a posting per label pair of
    /// each labelled unit, a selector entry per service with a selector.
    fn index_entries(model: &GlobalAppModel) -> usize {
        let units = model.units.iter().filter(|u| !u.label_pairs.is_empty());
        let selectors = model
            .services
            .iter()
            .filter(|s| !s.selector_pairs.is_empty());
        units.map(|u| 1 + u.label_pairs.len()).sum::<usize>() + selectors.count()
    }

    /// Every finding source of an auditor: `(owner, release, entries,
    /// finding details)` of each release's own findings (with its model's
    /// index entries), of each service's captures and of each collision
    /// group.
    fn sources(auditor: &IncrementalAuditor) -> Vec<(String, String, usize, Vec<String>)> {
        let details = |findings: &[Identified]| -> Vec<String> {
            findings.iter().map(|f| f.finding.detail.clone()).collect()
        };
        let mut sources = Vec::new();
        for &id in &auditor.order {
            let app = &auditor.apps[id];
            let entries = index_entries(&app.global);
            sources.push((
                format!("release {}", app.name),
                app.name.clone(),
                entries,
                details(&app.findings),
            ));
            for (service, captures) in &app.captures {
                let owner = format!("capture {} {service}", app.name);
                sources.push((owner, app.name.clone(), 0, details(captures)));
            }
        }
        for ((namespace, labels), group) in &auditor.groups {
            let owner = format!("group {namespace} {labels}");
            sources.push((owner, String::new(), 0, vec![group.finding.detail.clone()]));
        }
        sources
    }

    /// A tick's one-at-a-time work follows the releases it touches, not
    /// the cluster: at 25 and at 400 preinstalled releases, over 200 churn
    /// mutations, the patch locates or writes at most the index entries of
    /// the touched releases' models before and after the tick, and the open
    /// list takes out or puts in at most the findings, before and after, of
    /// the sources those releases own or are named in. Renumbering every
    /// index entry, or rebuilding the open list, costs what the whole
    /// cluster holds.
    #[test]
    fn tick_work_follows_the_touched_releases_not_the_cluster() {
        for releases in [25usize, 400] {
            let (mut session, mut cluster) = tenant("baseline", releases, 7);
            let mut auditor = IncrementalAuditor::new();
            for mutation in session.preinstall(releases) {
                apply(&mut cluster, &mut [&mut auditor], &mutation);
            }
            auditor.tick(&cluster);
            let (mut max_patched, mut max_moved) = (0, 0);
            for step in 0..200 {
                let mutation = session.next_mutation();
                apply(&mut cluster, &mut [&mut auditor], &mutation);
                let summary = cluster.dirty_since(auditor.cursor.expect("ticked"));
                assert!(!summary.everything && !summary.all_apps, "step {step}");
                let before = sources(&auditor);
                auditor.tick(&cluster);
                let after = sources(&auditor);
                // The sources a touched release owns or is named in, on
                // either side of the tick, and what they hold on both.
                let mut touched: Vec<&str> = summary.apps.iter().map(String::as_str).collect();
                touched.extend(summary.unattributed.then_some(UNATTRIBUTED_RELEASE));
                let names = |(_, app, _, details): &(String, String, usize, Vec<String>)| {
                    touched.iter().any(|t| {
                        app == t
                            || details.iter().any(|d| {
                                d.contains(&format!("({t})"))
                                    || d.ends_with(&format!("application {t}"))
                            })
                    })
                };
                let owners: Vec<&String> = before
                    .iter()
                    .chain(&after)
                    .filter(|s| names(s))
                    .map(|s| &s.0)
                    .collect();
                let (mut entries, mut findings) = (0, 0);
                for (owner, _, e, details) in before.iter().chain(&after) {
                    if owners.contains(&owner) {
                        entries += e;
                        findings += details.len();
                    }
                }
                let TickWork { patched, moved, .. } = auditor.work;
                let context = format!("{releases} releases, step {step}");
                assert!(
                    patched <= entries,
                    "{context}: {patched} entries patched for {entries} touched"
                );
                assert!(
                    moved <= findings,
                    "{context}: {moved} findings moved for {findings} touched"
                );
                max_patched = max_patched.max(patched);
                max_moved = max_moved.max(moved);
            }
            assert!(
                max_patched > 0 && max_moved > 0,
                "{releases} releases: the churn must patch and merge"
            );
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
        fn m4<'a>(
            findings: impl IntoIterator<Item = &'a Finding>,
            object: &str,
            needle: &str,
        ) -> bool {
            findings.into_iter().any(|f| {
                f.id == MisconfigId::M4Star
                    && f.object.starts_with(object)
                    && f.detail.contains(needle)
            })
        }

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

    /// The run-by-run diff on two touched runs: one holds a duplicated
    /// identity of which one copy resolves, the other a canonical tie
    /// across two releases of which one is re-derived. The map flattens to
    /// the batch order, and the delta is the diff of the whole lists, order
    /// included.
    #[test]
    fn run_by_run_diff_equals_the_whole_list_diff() {
        let finding = |id, app: &str, object: &str, detail: &str| {
            Identified::new(Finding::new(id, app, object, detail))
        };
        let dup = finding(MisconfigId::M1, "shop", "default/web", "port 9200 open");
        let other = finding(MisconfigId::M1, "zeta", "default/web", "port 9200 open");
        let alpha = finding(MisconfigId::M7, "alpha", "default/shared", "host network");
        let alpha_2 = finding(
            MisconfigId::M7,
            "alpha",
            "default/shared",
            "host network, v2",
        );
        let bravo = finding(MisconfigId::M7, "bravo", "default/shared", "host network");
        let release = |name: &str, i| Place::Release(name.to_string(), i);
        let flattened = |open: &Open| -> Vec<Identified> { open.values().cloned().collect() };
        let findings = |list: &[Identified]| -> Vec<Finding> {
            list.iter().map(|f| f.finding.clone()).collect()
        };

        let mut open = Open::new();
        let first = vec![
            (release("alpha", 0), &alpha),
            (release("bravo", 0), &bravo),
            (release("shop", 0), &dup),
            (release("shop", 1), &dup),
            (release("zeta", 0), &other),
        ];
        let delta = edit(&mut open, Vec::new(), first);
        let before = flattened(&open);
        let batch = [&dup, &dup, &other, &alpha, &bravo].map(|f| f.finding.clone());
        assert_eq!(findings(&before), batch);
        assert_eq!(delta.introduced, batch);

        // `shop` is re-derived with one copy of its duplicate, `alpha` with
        // a new finding that still ties with `bravo`'s and precedes it.
        let removed = vec![
            (alpha.canonical(), release("alpha", 0)),
            (dup.canonical(), release("shop", 0)),
            (dup.canonical(), release("shop", 1)),
        ];
        let fresh = vec![(release("alpha", 0), &alpha_2), (release("shop", 0), &dup)];
        let delta = edit(&mut open, removed, fresh);
        let after = flattened(&open);
        assert_eq!(
            findings(&after),
            [&dup, &other, &alpha_2, &bravo].map(|f| f.finding.clone())
        );
        let whole = whole_list_diff(&before, &after);
        assert_eq!(delta.introduced, whole.introduced);
        assert_eq!(delta.resolved, whole.resolved);
        assert_eq!(delta.introduced, std::slice::from_ref(&alpha_2.finding));
        assert_eq!(delta.resolved, [dup.finding.clone(), alpha.finding.clone()]);
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
        // `alpha` ships a Deployment and `bravo` a StatefulSet of the same
        // fixed name, both on the host network: two objects of different
        // kinds, whose M7 findings share a canonical position, so only
        // source order (`alpha` first) separates them.
        let host_unit = |kind: &str, label: &str| {
            let manifest = deployment(label)
                .replace("kind: Deployment", &format!("kind: {kind}"))
                .replace("{{ .Release.Name }}-web", "shared-web")
                .replace(
                    "      containers:",
                    "      hostNetwork: true\n      containers:",
                );
            Chart::builder("demo")
                .template("unit.yaml", manifest)
                .build()
        };
        fn tied<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> Vec<String> {
            findings
                .into_iter()
                .filter(|f| f.id == MisconfigId::M7 && f.object == "default/shared-web")
                .map(|f| f.app.clone())
                .collect()
        }
        install_chart(&mut cluster, "alpha", host_unit("Deployment", "alpha"));
        install_chart(&mut cluster, "bravo", host_unit("StatefulSet", "bravo"));
        tick_both(&mut incremental, &mut oracle, &cluster);
        assert_eq!(tied(incremental.current()), ["alpha", "bravo"]);

        // Re-derive one release's finding while the other's stays: the new
        // one must land in source order again, before `bravo`'s or after
        // `alpha`'s.
        for (release, kind, label) in [
            ("alpha", "Deployment", "alpha-2"),
            ("bravo", "StatefulSet", "bravo-2"),
            ("alpha", "Deployment", "alpha"),
        ] {
            cluster.uninstall(release);
            install_chart(&mut cluster, release, host_unit(kind, label));
            tick_both(&mut incremental, &mut oracle, &cluster);
            assert_eq!(tied(incremental.current()), ["alpha", "bravo"]);
        }
        cluster.uninstall("bravo");
        let gone = tick_both(&mut incremental, &mut oracle, &cluster);
        assert_eq!(tied(&gone.resolved), ["bravo"]);
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
        let before: Vec<Finding> = incremental.current().into_iter().cloned().collect();
        let quiet = incremental.tick(&cluster);
        assert!(quiet.is_quiet());
        assert_eq!(incremental.current(), before.iter().collect::<Vec<_>>());

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
