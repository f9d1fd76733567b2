//! Interned, flat-memory findings and reports.
//!
//! A [`crate::Finding`] owns three `String`s; at corpus scale (10⁵–10⁶
//! applications) that is millions of small allocations holding heavily
//! repeated bytes. The compact representation stores every string once in a
//! [`SymbolTable`] and keys findings by [`Sym`] ids, which turns a finding
//! into a handful of integers and a whole census into one arena plus flat
//! vectors. Rendering resolves ids lazily at output time; identities hash
//! the *resolved* bytes, so continuous-audit multisets keyed by
//! [`crate::Finding::identity`] see no difference between the two
//! representations.
//!
//! The module also hosts the interned cluster-wide M4\* kernel and its
//! [`M4Index`]: the census and [`crate::Analyzer::analyze_global`] call its
//! all-scope form ([`m4_global_collisions_compact`]), which indexes every
//! application once, and the continuous auditor its scoped form
//! ([`m4_global_collisions_scoped`]) over an index it patches per changed
//! application, which re-derives only what those changes can move.

use crate::finding::{identity_over, Finding, MisconfigId};
use crate::model::StaticModel;
use crate::report::{AppReport, Census, DatasetRow};
use crate::symtab::{Sym, SymMemo, SymbolTable};
use ij_cluster::splice_copied;
use ij_model::Protocol;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A [`Finding`] with its string fields replaced by interned symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactFinding {
    /// Misconfiguration class.
    pub id: MisconfigId,
    /// Interned application name.
    pub app: Sym,
    /// Interned qualified object name.
    pub object: Sym,
    /// Interned detail text.
    pub detail: Sym,
    /// Port involved, when port-specific.
    pub port: Option<u16>,
    /// Protocol of that port.
    pub protocol: Option<Protocol>,
}

impl CompactFinding {
    /// Interns an owned finding.
    pub fn intern(f: &Finding, table: &mut SymbolTable) -> Self {
        CompactFinding {
            id: f.id,
            app: table.intern(&f.app),
            object: table.intern(&f.object),
            detail: table.intern(&f.detail),
            port: f.port,
            protocol: f.protocol,
        }
    }

    /// Materializes the owned representation.
    pub fn resolve(&self, table: &SymbolTable) -> Finding {
        Finding {
            id: self.id,
            app: table.resolve(self.app).to_string(),
            object: table.resolve(self.object).to_string(),
            detail: table.resolve(self.detail).to_string(),
            port: self.port,
            protocol: self.protocol,
        }
    }

    /// The identity hash over resolved bytes — byte-identical to
    /// [`Finding::identity`] of [`CompactFinding::resolve`] by construction
    /// (both delegate to the same hasher).
    pub fn identity(&self, table: &SymbolTable) -> u64 {
        identity_over(
            self.id,
            table.resolve(self.app),
            table.resolve(self.object),
            table.resolve(self.detail),
            self.port,
            self.protocol,
        )
    }

    /// Re-interns into another table, in place.
    fn remap_in_place(&mut self, from: &SymbolTable, to: &mut SymbolTable, memo: &mut SymMemo) {
        for sym in [&mut self.app, &mut self.object, &mut self.detail] {
            *sym = memo.map(*sym, from, to);
        }
    }
}

/// Sorts compact findings into the canonical report order — the same
/// `(class, object, port)` stable sort as [`crate::sort_canonical`], keyed
/// on resolved strings so the order matches the owned path byte-for-byte.
pub fn sort_canonical_compact(findings: &mut [CompactFinding], table: &SymbolTable) {
    findings.sort_by(|a, b| {
        (a.id, table.resolve(a.object), a.port).cmp(&(b.id, table.resolve(b.object), b.port))
    });
}

/// An [`AppReport`] carrying interned symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactAppReport {
    /// Interned application name.
    pub app: Sym,
    /// Interned dataset / organization name.
    pub dataset: Sym,
    /// Interned chart version string.
    pub version: Sym,
    /// Findings of the per-app and cluster-wide passes.
    pub findings: Vec<CompactFinding>,
}

impl CompactAppReport {
    /// Interns an owned report.
    pub fn intern(report: &AppReport, table: &mut SymbolTable) -> Self {
        CompactAppReport {
            app: table.intern(&report.app),
            dataset: table.intern(&report.dataset),
            version: table.intern(&report.version),
            findings: report
                .findings
                .iter()
                .map(|f| CompactFinding::intern(f, table))
                .collect(),
        }
    }

    /// Materializes the owned representation.
    pub(crate) fn resolve(&self, table: &SymbolTable) -> AppReport {
        AppReport {
            app: table.resolve(self.app).to_string(),
            dataset: table.resolve(self.dataset).to_string(),
            version: table.resolve(self.version).to_string(),
            findings: self.findings.iter().map(|f| f.resolve(table)).collect(),
        }
    }

    /// Re-interns into another table: a copy of the report, rewritten by
    /// [`CompactAppReport::remap_in_place`] without a memo.
    pub fn remap(&self, from: &SymbolTable, to: &mut SymbolTable) -> CompactAppReport {
        let mut out = self.clone();
        out.remap_in_place(from, to, &mut SymMemo::default());
        out
    }

    /// Re-interns every symbol into another table, in place: the report
    /// keeps its allocations. Symbols are visited in a fixed order (app,
    /// dataset, version, then each finding's app, object and detail), so a
    /// walk over many reports interns their strings into `to` in
    /// first-occurrence order whatever `memo` holds.
    pub fn remap_in_place(&mut self, from: &SymbolTable, to: &mut SymbolTable, memo: &mut SymMemo) {
        for sym in [&mut self.app, &mut self.dataset, &mut self.version] {
            *sym = memo.map(*sym, from, to);
        }
        for f in &mut self.findings {
            f.remap_in_place(from, to, memo);
        }
    }

    /// Total misconfiguration count.
    pub(crate) fn total(&self) -> usize {
        self.findings.len()
    }

    /// True when any finding exists.
    pub(crate) fn is_affected(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// A whole census in flat memory: one symbol table plus interned
/// per-application reports. Aggregations ([`CompactCensus::table2`],
/// totals) match [`Census`] exactly — interning is injective, so grouping
/// by symbol is grouping by string.
#[derive(Debug, Clone, Default)]
pub struct CompactCensus {
    table: SymbolTable,
    /// Per-application reports, in analysis order.
    pub apps: Vec<CompactAppReport>,
}

impl CompactCensus {
    /// Assembles a census from a table and its reports.
    pub fn new(table: SymbolTable, apps: Vec<CompactAppReport>) -> Self {
        CompactCensus { table, apps }
    }

    /// The backing symbol table.
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }

    /// Materializes the owned representation.
    pub fn resolve(&self) -> Census {
        Census {
            apps: self.apps.iter().map(|a| a.resolve(&self.table)).collect(),
        }
    }

    /// All Table 2 rows, identical to `self.resolve().table2()` without the
    /// materialization.
    pub fn table2(&self) -> Vec<DatasetRow> {
        // Dataset symbols in first-appearance order; datasets are few, so a
        // linear scan beats hashing.
        let mut order: Vec<Sym> = Vec::new();
        for a in &self.apps {
            if !order.contains(&a.dataset) {
                order.push(a.dataset);
            }
        }
        order
            .iter()
            .map(|&dataset| {
                let mut counts: BTreeMap<MisconfigId, usize> = BTreeMap::new();
                let mut affected = 0;
                let mut total_apps = 0;
                for a in self.apps.iter().filter(|a| a.dataset == dataset) {
                    total_apps += 1;
                    if a.is_affected() {
                        affected += 1;
                    }
                    for f in &a.findings {
                        *counts.entry(f.id).or_default() += 1;
                    }
                }
                DatasetRow {
                    dataset: self.table.resolve(dataset).to_string(),
                    affected,
                    total_apps,
                    counts,
                }
            })
            .collect()
    }

    /// Grand total of misconfigurations.
    pub fn total_misconfigurations(&self) -> usize {
        self.apps.iter().map(CompactAppReport::total).sum()
    }

    /// Applications affected / total.
    pub fn affected_apps(&self) -> (usize, usize) {
        (
            self.apps.iter().filter(|a| a.is_affected()).count(),
            self.apps.len(),
        )
    }
}

/// One compute unit of the interned cluster-wide model: just the fields the
/// M4\* pass reads, as symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalUnit {
    /// Interned qualified name.
    pub name: Sym,
    /// Interned namespace.
    pub namespace: Sym,
    /// Interned `Labels` rendering (`k=v,...`), the collision-group key.
    pub labels_rendered: Sym,
    /// Interned label pairs, in key order.
    pub label_pairs: Vec<(Sym, Sym)>,
}

/// One service of the interned cluster-wide model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalService {
    /// Interned qualified name.
    pub object: Sym,
    /// Interned namespace.
    pub namespace: Sym,
    /// Interned selector rendering (`k=v,...`).
    pub selector_rendered: Sym,
    /// Interned selector pairs, in key order.
    pub selector_pairs: Vec<(Sym, Sym)>,
}

/// Everything the cluster-wide M4\* pass needs from one application, with
/// every string interned. At corpus scale the pipeline keeps one of these
/// per streamed application instead of a full [`StaticModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalAppModel {
    /// Interned application name.
    pub app: Sym,
    /// Compute units.
    pub units: Vec<GlobalUnit>,
    /// Services.
    pub services: Vec<GlobalService>,
}

impl GlobalAppModel {
    /// Interns the M4\*-relevant slice of a static model.
    pub fn intern(app: &str, model: &StaticModel, table: &mut SymbolTable) -> Self {
        // Label renderings and qualified names are written into one reused
        // buffer instead of a fresh string each.
        let mut buf = String::new();
        GlobalAppModel {
            app: table.intern(app),
            units: model
                .units
                .iter()
                .map(|u| GlobalUnit {
                    name: table.intern(&u.name),
                    namespace: table.intern(&u.namespace),
                    labels_rendered: table
                        .intern(rendered(&mut buf, |b| u.labels.write_rendered(b))),
                    label_pairs: u
                        .labels
                        .iter()
                        .map(|(k, v)| (table.intern(k), table.intern(v)))
                        .collect(),
                })
                .collect(),
            services: model
                .services
                .iter()
                .map(|s| GlobalService {
                    object: table.intern(rendered(&mut buf, |b| s.meta.write_qualified_name(b))),
                    namespace: table.intern(&s.meta.namespace),
                    selector_rendered: table
                        .intern(rendered(&mut buf, |b| s.spec.selector.write_rendered(b))),
                    selector_pairs: s
                        .spec
                        .selector
                        .iter()
                        .map(|(k, v)| (table.intern(k), table.intern(v)))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Re-interns into another table: a copy of the model, rewritten by
    /// [`GlobalAppModel::remap_in_place`] without a memo.
    pub fn remap(&self, from: &SymbolTable, to: &mut SymbolTable) -> GlobalAppModel {
        let mut out = self.clone();
        out.remap_in_place(from, to, &mut SymMemo::default());
        out
    }

    /// Re-interns every symbol into another table, in place: the model
    /// keeps its allocations. Symbols are visited in a fixed order (app,
    /// then each unit's name, namespace, rendering and pairs, then each
    /// service's), so a walk over many models interns their strings into
    /// `to` in first-occurrence order whatever `memo` holds.
    pub fn remap_in_place(&mut self, from: &SymbolTable, to: &mut SymbolTable, memo: &mut SymMemo) {
        let mut map = |sym: &mut Sym| *sym = memo.map(*sym, from, to);
        map(&mut self.app);
        for u in &mut self.units {
            map(&mut u.name);
            map(&mut u.namespace);
            map(&mut u.labels_rendered);
            for (k, v) in &mut u.label_pairs {
                map(k);
                map(v);
            }
        }
        for s in &mut self.services {
            map(&mut s.object);
            map(&mut s.namespace);
            map(&mut s.selector_rendered);
            for (k, v) in &mut s.selector_pairs {
                map(k);
                map(v);
            }
        }
    }
}

/// Clears `buf`, lets `write` fill it and returns it.
fn rendered(buf: &mut String, write: impl FnOnce(&mut String)) -> &str {
    buf.clear();
    write(buf);
    buf
}

/// Who derives an M4\* finding. A scoped pass ([`m4_global_collisions_scoped`])
/// re-derives whole owners, so a caller that keeps M4\* findings per owner
/// replaces exactly the owners the pass reports and keeps the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M4Owner {
    /// The collision group of every labelled unit with this namespace and
    /// label set. It owns at most one finding.
    Group {
        /// Interned namespace.
        namespace: Sym,
        /// Interned `Labels` rendering.
        labels: Sym,
    },
    /// The captures of one service.
    Capture {
        /// Id of the service's application: its index in the pass's `apps`.
        app: usize,
        /// Index of the service in that application's services.
        service: usize,
    },
}

/// One owner a pass derived, with every finding it owns now: none when its
/// findings resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct M4Part {
    /// The owner.
    pub owner: M4Owner,
    /// Its findings, in the order the all-scope pass reports them.
    pub findings: Vec<Finding>,
}

/// The releases that changed since a caller's last M4\* pass. A pass in this
/// scope re-derives only what those changes can move.
#[derive(Debug, Clone, Copy)]
pub struct M4Scope<'a> {
    /// Ids of the changed releases that are still present.
    pub dirty: &'a [usize],
    /// The models every changed release had before the change — removed
    /// releases included — interned into the pass's table.
    pub old: &'a [GlobalAppModel],
}

/// A collision-group row: `(namespace, rendered labels, id, position)` of
/// one labelled unit, where `id` is its application's index in the list and
/// `position` its index among that application's units.
type Row = (Sym, Sym, u32, u32);
/// A label posting: `(namespace, key, value, id, position)` of one label
/// pair of a unit.
type Posting = (Sym, Sym, Sym, u32, u32);
/// A selector entry: `(namespace, key, value, id, position)` of a service
/// under its first selector pair.
type Selector = (Sym, Sym, Sym, u32, u32);

/// The M4\* kernel's index over a list of applications, each numbered by
/// its id (its index in the list). Three flat tables, each sorted so that
/// one key's entries form a contiguous run in (id, position) order:
///
/// * collision-group rows: the labelled units of each `(namespace,
///   rendered label set)`;
/// * label postings: the units carrying each `(namespace, key, value)`
///   label pair, so that a unit is in the run of every pair of a selector
///   exactly when the selector covers it;
/// * selectors: the services with a non-empty selector under their
///   namespace and *first* selector pair — a unit finds every service that
///   may cover it by looking up its own label pairs.
///
/// A caller that keeps the index across changes to the list gives each
/// application an id it keeps while listed (a slot, reused once its
/// application leaves) and [`M4Index::patch`]es the index with the old and
/// new models of the applications it changed. Only their entries are
/// located, one binary search each, or sorted; the runs of other entries
/// between two edits move as blocks and are never renumbered. After every
/// patch the index equals [`M4Index::build`] over the same list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct M4Index {
    rows: Vec<Row>,
    postings: Vec<Posting>,
    selectors: Vec<Selector>,
}

impl M4Index {
    /// Indexes `apps` from scratch.
    pub fn build<M: Borrow<GlobalAppModel>>(apps: &[M]) -> Self {
        M4Index::of(apps, true)
    }

    /// [`M4Index::build`], with the selector table only if asked for: a
    /// pass over every service never reads it.
    fn of<M: Borrow<GlobalAppModel>>(apps: &[M], selectors: bool) -> Self {
        M4Index::of_some(apps.iter().map(Borrow::borrow).enumerate(), selectors)
    }

    /// The index of some models under their ids.
    fn of_some<'m>(
        models: impl Iterator<Item = (usize, &'m GlobalAppModel)> + Clone,
        selectors: bool,
    ) -> Self {
        let mut index = M4Index::default();
        let (units, pairs) = models
            .clone()
            .flat_map(|(_, m)| &m.units)
            .fold((0, 0), |(n, p), u| (n + 1, p + u.label_pairs.len()));
        index.rows.reserve(units);
        index.postings.reserve(pairs);
        for (id, model) in models {
            index.push(id, model, selectors);
        }
        index.sort();
        index
    }

    /// Appends the entries of `model` under `id`, unsorted.
    fn push(&mut self, id: usize, model: &GlobalAppModel, selectors: bool) {
        let id = to_u32(id);
        for (pos, u) in model.units.iter().enumerate() {
            if u.label_pairs.is_empty() {
                continue;
            }
            let pos = to_u32(pos);
            self.rows.push((u.namespace, u.labels_rendered, id, pos));
            for &(k, v) in &u.label_pairs {
                self.postings.push((u.namespace, k, v, id, pos));
            }
        }
        if selectors {
            for (pos, s) in model.services.iter().enumerate() {
                if let Some(&(k, v)) = s.selector_pairs.first() {
                    self.selectors.push((s.namespace, k, v, id, to_u32(pos)));
                }
            }
        }
    }

    fn sort(&mut self) {
        self.rows.sort_unstable();
        self.postings.sort_unstable();
        self.selectors.sort_unstable();
    }

    /// Follows a change to the indexed list: the entries of each `(id,
    /// model)` of `old` — a model indexed under that id — leave, and those
    /// of each model of `new` enter under its id. An application that
    /// changed is in both, one that left in `old` only, one that came (on a
    /// free id or a reused one) in `new` only.
    ///
    /// Returns the number of entries it located or wrote one at a time:
    /// those of the `old` and `new` models but the ones both hold, which
    /// stay. The others move in blocks.
    pub fn patch<'m>(
        &mut self,
        old: impl Iterator<Item = (usize, &'m GlobalAppModel)> + Clone,
        new: impl Iterator<Item = (usize, &'m GlobalAppModel)> + Clone,
    ) -> usize {
        let (gone, fresh) = (M4Index::of_some(old, true), M4Index::of_some(new, true));
        patch_table(&mut self.rows, gone.rows, fresh.rows)
            + patch_table(&mut self.postings, gone.postings, fresh.postings)
            + patch_table(&mut self.selectors, gone.selectors, fresh.selectors)
    }

    /// The units indexed under a collision-group key.
    fn group(&self, key: (Sym, Sym)) -> &[Row] {
        run(&self.rows, |r| (r.0, r.1), key)
    }

    /// The units carrying one label pair.
    fn posting(&self, key: (Sym, Sym, Sym)) -> &[Posting] {
        run(&self.postings, |p| (p.0, p.1, p.2), key)
    }

    /// What a pass in `scope` re-derives: the collision-group keys of the
    /// touched units (the scope's old units and the current units of its
    /// dirty applications), and the services to probe — every service with
    /// a selector of a dirty application, and every other one whose
    /// selector covers a touched unit: same namespace, and every selector
    /// pair among the unit's labels. A capture needs exactly that, so no
    /// other service's captures can change.
    fn scope<M: Borrow<GlobalAppModel>>(&self, apps: &[M], scope: M4Scope<'_>) -> Rederived {
        let mut keys = Vec::new();
        let mut services = Vec::new();
        for &id in scope.dirty {
            let model = apps[id].borrow();
            services.extend(
                (0..model.services.len())
                    .filter(|&i| !model.services[i].selector_pairs.is_empty())
                    .map(|i| (id, i)),
            );
        }
        let touched = scope
            .old
            .iter()
            .chain(scope.dirty.iter().map(|&id| apps[id].borrow()))
            .flat_map(|model| &model.units);
        for u in touched.filter(|u| !u.label_pairs.is_empty()) {
            keys.push((u.namespace, u.labels_rendered));
            // A covering selector's first pair is one of the unit's pairs.
            for &(k, v) in &u.label_pairs {
                let candidates = run(&self.selectors, |s| (s.0, s.1, s.2), (u.namespace, k, v));
                for &(_, _, _, id, i) in candidates {
                    let (id, i) = (id as usize, i as usize);
                    if covers(&apps[id].borrow().services[i], u) {
                        services.push((id, i));
                    }
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        services.sort_unstable();
        services.dedup();
        Rederived { keys, services }
    }
}

/// What a scoped pass re-derives, each list sorted and free of duplicates.
struct Rederived {
    /// Collision-group keys, as `(namespace, rendered labels)`.
    keys: Vec<(Sym, Sym)>,
    /// Services to probe, as `(id, position)`.
    services: Vec<(usize, usize)>,
}

fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("an M4* index counts fewer than 2^32 applications and units")
}

/// The run of the sorted `table` whose entries have `key`.
fn run<T, K: Ord>(table: &[T], key_of: impl Fn(&T) -> K, key: K) -> &[T] {
    let rest = &table[table.partition_point(|t| key_of(t) < key)..];
    // Runs are mostly short: gallop from the start of this one, over memory
    // close by, instead of searching the whole table again for its end.
    let mut bound = 1;
    while bound < rest.len() && key_of(&rest[bound]) <= key {
        bound *= 2;
    }
    let window = &rest[bound / 2..bound.min(rest.len())];
    &rest[..bound / 2 + window.partition_point(|t| key_of(t) <= key)]
}

/// Replaces the `gone` entries of the sorted `table` with the `fresh` ones
/// (both sorted), in place. An entry both hold stays where it is; each
/// other entry that leaves is found by binary search, each that enters goes
/// before the first entry greater than it. Returns how many entries it
/// located or wrote one at a time.
fn patch_table<T: Ord + Copy>(table: &mut Vec<T>, mut gone: Vec<T>, mut fresh: Vec<T>) -> usize {
    drop_shared(&mut gone, &mut fresh);
    let cut: Vec<usize> = gone
        .iter()
        .map(|entry| table.binary_search(entry).expect("an indexed entry"))
        .collect();
    let added: Vec<(usize, T)> = fresh
        .into_iter()
        .map(|entry| (table.partition_point(|t| *t < entry), entry))
        .collect();
    let touched = cut.len() + added.len();
    splice_copied(table, &cut, &added);
    touched
}

/// Drops the entries both sorted lists hold, keeping the others in order.
fn drop_shared<T: Ord + Copy>(a: &mut Vec<T>, b: &mut Vec<T>) {
    let (mut i, mut j, mut kept_a, mut kept_b) = (0, 0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                a[kept_a] = a[i];
                (kept_a, i) = (kept_a + 1, i + 1);
            }
            Ordering::Greater => {
                b[kept_b] = b[j];
                (kept_b, j) = (kept_b + 1, j + 1);
            }
            Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    a.copy_within(i.., kept_a);
    a.truncate(kept_a + a.len() - i);
    b.copy_within(j.., kept_b);
    b.truncate(kept_b + b.len() - j);
}

/// The cluster-wide M4\* pass over interned models: the all-scope call of
/// the one M4\* kernel, which [`m4_global_collisions_scoped`] also scopes.
/// Produces the same findings, in the same order, as the historical
/// string-keyed pass (kept as the test oracle):
///
/// * **Unit ↔ unit collisions** group units by `(namespace, rendered label
///   set)` in the [`M4Index`]; the qualifying groups are then ordered by
///   their resolved strings, which reproduces the old `BTreeMap<(String,
///   String), _>` iteration order.
/// * **Service ↔ foreign-unit captures** probe the index's label postings.
///   A selector with several pairs walks its rarest pair's posting list and
///   binary-searches the others instead of calling `contains_all` per
///   candidate — membership in every pair's posting list *is* the subset
///   check, since the namespace is part of the key.
///
/// The pass builds the index once, without the selector index, and derives
/// everything from it.
pub fn m4_global_collisions_compact<M: Borrow<GlobalAppModel>>(
    apps: &[M],
    table: &SymbolTable,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    m4_pass(&M4Index::of(apps, false), apps, table, None, &mut findings);
    findings
}

/// The M4\* kernel with its findings tagged by owner. `index` is the
/// [`M4Index`] of `apps`.
///
/// Applications are reported in id order by the all-scope pass, as
/// [`m4_global_collisions_compact`] reports them, and in name order by a
/// scoped pass: a caller that patches the index keeps an application's id
/// while its name's place among the others moves. The scoped pass restores
/// name order only where it reports — the members of each re-derived
/// group, the captures of each probed service, the services it probes — so
/// a caller whose ids ascend with names after each all-scope pass gets the
/// same order from both.
///
/// With `scope` `None` the pass derives everything and reports every
/// collision group that spans two applications and every service with a
/// selector. With a scope it re-derives only what the scope's changes can
/// move, and reports each owner it re-derived, also when none of its
/// findings remain:
///
/// * the collision group of every key a touched unit has — an old unit of
///   the scope, or a current unit of a dirty release;
/// * the captures of every service of a dirty release, and of every other
///   service whose selector *covers* a touched unit: same namespace, and
///   every selector pair among the unit's labels.
///
/// A scoped pass reads only the index and the models its scope names: the
/// touched units look up their groups and, through the selector index, the
/// services that cover them, so it costs what it re-derives. In a previous
/// result, dropping the captures of the changed releases' services and
/// replacing every owner a scoped pass reports gives the all-scope result.
pub fn m4_global_collisions_scoped<M: Borrow<GlobalAppModel>>(
    index: &M4Index,
    apps: &[M],
    table: &SymbolTable,
    scope: Option<M4Scope<'_>>,
) -> Vec<M4Part> {
    let mut parts = Vec::new();
    m4_pass(index, apps, table, scope, &mut parts);
    parts
}

/// Where [`m4_pass`] writes: each owner it derives, then that owner's
/// findings.
trait M4Sink {
    fn owner(&mut self, owner: M4Owner);
    fn finding(&mut self, finding: Finding);
}

impl M4Sink for Vec<Finding> {
    fn owner(&mut self, _: M4Owner) {}
    fn finding(&mut self, finding: Finding) {
        self.push(finding);
    }
}

impl M4Sink for Vec<M4Part> {
    fn owner(&mut self, owner: M4Owner) {
        self.push(M4Part {
            owner,
            findings: Vec::new(),
        });
    }
    fn finding(&mut self, finding: Finding) {
        self.last_mut()
            .expect("a finding follows its owner")
            .findings
            .push(finding);
    }
}

/// The one M4\* kernel; see [`m4_global_collisions_compact`] and
/// [`m4_global_collisions_scoped`].
fn m4_pass<M: Borrow<GlobalAppModel>>(
    index: &M4Index,
    apps: &[M],
    table: &SymbolTable,
    scope: Option<M4Scope<'_>>,
    out: &mut impl M4Sink,
) {
    // What a scoped pass re-derives; `None` derives everything.
    let mut scoped = scope.map(|scope| index.scope(apps, scope));
    let app_name = |id: u32| table.resolve(apps[id as usize].borrow().app);
    let unit_name =
        |id: u32, pos: u32| table.resolve(apps[id as usize].borrow().units[pos as usize].name);
    // `(id, position)` units in report order: by name in a scoped pass.
    let by_name = scoped.is_some();
    let report_order = |units: &mut Vec<(u32, u32)>| {
        if by_name {
            units.sort_by_key(|&(id, pos)| (app_name(id), pos));
        }
    };
    let mut units: Vec<(u32, u32)> = Vec::new();

    // --- Unit ↔ unit collisions spanning at least two applications. ---
    // Rows ascend with (id, unit), so a group's first and last rows bracket
    // its id range: distinct apps ≥ 2 iff they differ.
    let spans_apps = |g: &[Row]| g.first().map(|r| r.2) != g.last().map(|r| r.2);
    let mut groups: Vec<((Sym, Sym), &[Row])> = match &scoped {
        Some(scoped) => scoped
            .keys
            .iter()
            .map(|&key| (key, index.group(key)))
            .collect(),
        None => index
            .rows
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .filter(|g| spans_apps(g))
            .map(|g| ((g[0].0, g[0].1), g))
            .collect(),
    };
    // Resolve group keys to restore the historical string order.
    groups.sort_by_key(|((namespace, labels), _)| {
        (table.resolve(*namespace), table.resolve(*labels))
    });
    for ((namespace, labels), group) in groups {
        out.owner(M4Owner::Group { namespace, labels });
        if !spans_apps(group) {
            continue;
        }
        units.clear();
        units.extend(group.iter().map(|&(_, _, id, pos)| (id, pos)));
        report_order(&mut units);
        let members: Vec<String> = units
            .iter()
            .map(|&(id, pos)| format!("{} ({})", unit_name(id, pos), app_name(id)))
            .collect();
        out.finding(Finding::new(
            MisconfigId::M4Star,
            app_name(units[0].0),
            members[0].clone(),
            format!(
                "label set `{}` collides across applications: {}",
                table.resolve(labels),
                members.join(", ")
            ),
        ));
    }

    // --- Service ↔ foreign-unit captures. ---
    // One selector's posting lists, reused across services.
    let mut ranges: Vec<&[Posting]> = Vec::new();
    let mut probe = |id: usize, service: usize| {
        let model = apps[id].borrow();
        let svc = &model.services[service];
        if svc.selector_pairs.is_empty() {
            return;
        }
        out.owner(M4Owner::Capture { app: id, service });
        ranges.clear();
        ranges.extend(
            svc.selector_pairs
                .iter()
                .map(|&(k, v)| index.posting((svc.namespace, k, v))),
        );
        // Probe on the selector's *rarest* pair (first minimum, as
        // `min_by_key` picked it before).
        let rarest_pos = ranges
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.len())
            .map(|(i, _)| i)
            .expect("non-empty selector");
        // A candidate matches the full selector exactly when it appears in
        // every pair's posting list. Each list ascends by (id, unit), so
        // each membership test is a binary search: a corpus-wide label pair
        // makes its list O(apps), and walking it per service would be
        // quadratic in the population.
        units.clear();
        units.extend(
            ranges[rarest_pos]
                .iter()
                .map(|&(_, _, _, other, pos)| (other, pos))
                .filter(|&(other, pos)| {
                    other as usize != id
                        && ranges.iter().enumerate().all(|(i, range)| {
                            i == rarest_pos
                                || range
                                    .binary_search_by_key(&(other, pos), |p| (p.3, p.4))
                                    .is_ok()
                        })
                }),
        );
        report_order(&mut units);
        for &(other, pos) in &units {
            out.finding(Finding::new(
                MisconfigId::M4Star,
                table.resolve(model.app),
                table.resolve(svc.object),
                format!(
                    "service selector `{}` captures unit {} of application {}",
                    table.resolve(svc.selector_rendered),
                    unit_name(other, pos),
                    app_name(other)
                ),
            ));
        }
    };
    match &mut scoped {
        Some(scoped) => {
            let services = &mut scoped.services;
            services.sort_by_key(|&(id, i)| (app_name(to_u32(id)), i));
            services.iter().for_each(|&(id, i)| probe(id, i));
        }
        None => {
            for (id, model) in apps.iter().map(Borrow::borrow).enumerate() {
                (0..model.services.len()).for_each(|i| probe(id, i));
            }
        }
    }
}

/// True when `svc` selects `unit`: same namespace, and every selector pair
/// among the unit's labels.
fn covers(svc: &GlobalService, unit: &GlobalUnit) -> bool {
    svc.namespace == unit.namespace
        && svc
            .selector_pairs
            .iter()
            .all(|p| unit.label_pairs.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ComputeUnit;
    use ij_model::decode_manifests;
    use std::collections::{BTreeSet, HashMap};

    fn statics(src: &str) -> StaticModel {
        StaticModel::from_objects(&decode_manifests(src).unwrap())
    }

    /// The seed's string-keyed M4\* pass, kept verbatim as the oracle the
    /// interned kernel must reproduce byte-for-byte (including ordering and
    /// attribution ties).
    fn oracle(apps: &[(String, StaticModel)]) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut by_labels: BTreeMap<(String, String), Vec<(usize, &ComputeUnit)>> = BTreeMap::new();
        for (idx, (_, model)) in apps.iter().enumerate() {
            for u in &model.units {
                if u.labels.is_empty() {
                    continue;
                }
                by_labels
                    .entry((u.namespace.clone(), u.labels.to_string()))
                    .or_default()
                    .push((idx, u));
            }
        }
        for ((_, labels), group) in by_labels {
            let distinct_apps: BTreeSet<usize> = group.iter().map(|(i, _)| *i).collect();
            if distinct_apps.len() < 2 {
                continue;
            }
            let members: Vec<String> = group
                .iter()
                .map(|(i, u)| format!("{} ({})", u.name, apps[*i].0))
                .collect();
            findings.push(Finding::new(
                MisconfigId::M4Star,
                &apps[*distinct_apps.iter().next().expect("non-empty")].0,
                members[0].clone(),
                format!(
                    "label set `{labels}` collides across applications: {}",
                    members.join(", ")
                ),
            ));
        }
        type PairIndex<'a> = HashMap<(&'a str, &'a str, &'a str), Vec<(usize, usize)>>;
        let mut by_pair: PairIndex<'_> = HashMap::new();
        for (idx, (_, model)) in apps.iter().enumerate() {
            for (unit_pos, u) in model.units.iter().enumerate() {
                for (key, value) in u.labels.iter() {
                    by_pair
                        .entry((u.namespace.as_str(), key, value))
                        .or_default()
                        .push((idx, unit_pos));
                }
            }
        }
        for (idx, (app, model)) in apps.iter().enumerate() {
            for svc in &model.services {
                if svc.spec.selector.is_empty() {
                    continue;
                }
                let candidates = svc
                    .spec
                    .selector
                    .iter()
                    .map(|(key, value)| {
                        by_pair
                            .get(&(svc.meta.namespace.as_str(), key, value))
                            .map(Vec::as_slice)
                            .unwrap_or(&[])
                    })
                    .min_by_key(|candidates| candidates.len())
                    .unwrap_or(&[]);
                for &(other_idx, unit_pos) in candidates {
                    if other_idx == idx {
                        continue;
                    }
                    let (other_app, other_model) = &apps[other_idx];
                    let unit = &other_model.units[unit_pos];
                    if unit.labels.contains_all(&svc.spec.selector) {
                        findings.push(Finding::new(
                            MisconfigId::M4Star,
                            app,
                            svc.meta.qualified_name(),
                            format!(
                                "service selector `{}` captures unit {} of application {other_app}",
                                svc.spec.selector, unit.name
                            ),
                        ));
                    }
                }
            }
        }
        findings
    }

    /// A deterministic pseudo-random corpus with heavy label overlap so
    /// both halves of the pass (unit collisions, service captures) fire on
    /// many apps, across two namespaces and selectors of 1–2 pairs.
    fn pseudo_random_corpus(seed: u64, apps: usize) -> Vec<(String, StaticModel)> {
        let mut state = seed.max(1);
        let mut next = move |bound: u64| {
            // xorshift64: deterministic, no external RNG.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let keys = ["app", "tier", "part"];
        let values = ["web", "db", "shared", "cache"];
        let namespaces = ["default", "other"];
        (0..apps)
            .map(|a| {
                let name = format!("gen-{a}");
                let mut manifests = String::new();
                for p in 0..1 + next(3) {
                    let ns = namespaces[next(2) as usize];
                    // Deduped through a map: YAML rejects repeated keys.
                    let mut pairs = BTreeMap::new();
                    for _ in 0..1 + next(2) {
                        pairs.insert(keys[next(3) as usize], values[next(4) as usize]);
                    }
                    let labels: String = pairs
                        .iter()
                        .map(|(k, v)| format!("    {k}: {v}\n"))
                        .collect();
                    manifests.push_str(&format!(
                        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}-p{p}\n  \
                         namespace: {ns}\n  labels:\n{labels}spec:\n  containers:\n    \
                         - name: c\n      image: img\n---\n"
                    ));
                }
                for s in 0..next(3) {
                    let ns = namespaces[next(2) as usize];
                    let mut pairs = BTreeMap::new();
                    for _ in 0..1 + next(2) {
                        pairs.insert(keys[next(3) as usize], values[next(4) as usize]);
                    }
                    let selector: String = pairs
                        .iter()
                        .map(|(k, v)| format!("    {k}: {v}\n"))
                        .collect();
                    manifests.push_str(&format!(
                        "apiVersion: v1\nkind: Service\nmetadata:\n  name: {name}-s{s}\n  \
                         namespace: {ns}\nspec:\n  selector:\n{selector}  ports:\n    \
                         - port: 80\n---\n"
                    ));
                }
                (name, statics(&manifests))
            })
            .collect()
    }

    #[test]
    fn interned_m4star_matches_the_string_keyed_oracle() {
        for seed in [1, 7, 42, 1234] {
            let apps = pseudo_random_corpus(seed, 10);
            let expected = oracle(&apps);
            let mut table = SymbolTable::new();
            let models: Vec<GlobalAppModel> = apps
                .iter()
                .map(|(app, model)| GlobalAppModel::intern(app, model, &mut table))
                .collect();
            let got = m4_global_collisions_compact(&models, &table);
            assert!(
                !expected.is_empty(),
                "seed {seed} produced no collisions — corpus too tame to test anything"
            );
            assert_eq!(got, expected, "seed {seed} diverged from the oracle");
        }
    }

    /// M4\* findings kept per owner under resolved keys, as a caller whose
    /// findings outlive symbol ids keeps them.
    #[derive(Default)]
    struct PerOwner {
        groups: BTreeMap<(String, String), Vec<Finding>>,
        captures: BTreeMap<(String, usize), Vec<Finding>>,
    }

    impl PerOwner {
        /// Replaces every owner a pass over `models` reported.
        fn splice(&mut self, parts: Vec<M4Part>, models: &[GlobalAppModel], table: &SymbolTable) {
            for part in parts {
                match part.owner {
                    M4Owner::Group { namespace, labels } => {
                        let key = (
                            table.resolve(namespace).to_string(),
                            table.resolve(labels).to_string(),
                        );
                        self.groups.insert(key, part.findings);
                    }
                    M4Owner::Capture { app, service } => {
                        let key = (table.resolve(models[app].app).to_string(), service);
                        self.captures.insert(key, part.findings);
                    }
                }
            }
        }

        /// The findings in batch order: groups, then captures in `models`
        /// order.
        fn flatten(&self, models: &[GlobalAppModel], table: &SymbolTable) -> Vec<Finding> {
            let captures = models.iter().flat_map(|m| {
                let app = table.resolve(m.app).to_string();
                self.captures
                    .range((app.clone(), 0)..=(app, usize::MAX))
                    .flat_map(|(_, findings)| findings)
            });
            self.groups
                .values()
                .flatten()
                .chain(captures)
                .cloned()
                .collect()
        }
    }

    #[test]
    fn scoped_m4star_spliced_into_the_previous_result_matches_the_oracle() {
        fn intern(apps: &[(String, StaticModel)], table: &mut SymbolTable) -> Vec<GlobalAppModel> {
            apps.iter()
                .map(|(app, model)| GlobalAppModel::intern(app, model, table))
                .collect()
        }
        let (mut moved, mut foreign) = (0, 0);
        for seed in [1, 7, 42, 1234] {
            let mut apps = pseudo_random_corpus(seed, 10);
            let mut table = SymbolTable::new();
            let before = intern(&apps, &mut table);
            let mut index = M4Index::build(&before);
            let mut owned = PerOwner::default();
            owned.splice(
                m4_global_collisions_scoped(&index, &before, &table, None),
                &before,
                &table,
            );
            let previous = oracle(&apps);
            assert_eq!(owned.flatten(&before, &table), previous, "seed {seed}");

            // Replace app 3, remove app 6, add one app, which sorts last
            // by name and takes the freed id 6: ids no longer follow names.
            let fresh = pseudo_random_corpus(seed ^ 0x5eed, 11);
            apps[3].1 = fresh[3].1.clone();
            let removed = apps.remove(6).0;
            apps.push(("gen-new".to_string(), fresh[10].1.clone()));
            let by_id = [0, 1, 2, 3, 4, 5, 9, 6, 7, 8].map(|i| apps[i].clone());
            let after = intern(&by_id, &mut table);
            let dirty = [3, 6];
            let old = dirty.map(|id| before[id].clone());
            let touched = index.patch(
                dirty.iter().zip(&old).map(|(&id, model)| (id, model)),
                dirty.iter().map(|&id| (id, &after[id])),
            );
            assert_eq!(index, M4Index::build(&after), "seed {seed}");
            let mut edited = M4Index::default();
            for &id in &dirty {
                edited.push(id, &before[id], true);
                edited.push(id, &after[id], true);
            }
            let entries = edited.rows.len() + edited.postings.len() + edited.selectors.len();
            // Entries both models of app 3 hold stay where they are.
            assert!(
                touched > 0 && touched <= entries,
                "seed {seed}: {touched} of {entries}"
            );
            let parts = m4_global_collisions_scoped(
                &index,
                &after,
                &table,
                Some(M4Scope {
                    dirty: &dirty,
                    old: &old,
                }),
            );
            foreign += parts
                .iter()
                .filter(
                    |p| matches!(p.owner, M4Owner::Capture { app, .. } if !dirty.contains(&app)),
                )
                .count();
            // Services of changed releases may be gone: drop their
            // captures, then splice.
            owned
                .captures
                .retain(|(app, _), _| app != "gen-3" && *app != removed);
            owned.splice(parts, &after, &table);
            let expected = oracle(&apps);
            moved += usize::from(expected != previous);
            let by_name = [0, 1, 2, 3, 4, 5, 7, 8, 9, 6].map(|id| after[id].clone());
            assert_eq!(owned.flatten(&by_name, &table), expected, "seed {seed}");
        }
        assert!(moved > 0, "no change moved an M4* finding");
        assert!(
            foreign > 0,
            "no scoped pass re-derived a service of an unchanged application"
        );
    }

    #[test]
    fn compact_identity_matches_owned_identity() {
        use ij_model::Protocol;
        let findings = [
            Finding::new(MisconfigId::M1, "app-a", "default/web", "declared, closed"),
            Finding::new(MisconfigId::M2, "app-a", "default/web", "open, undeclared")
                .with_port(8080, Protocol::Tcp),
            Finding::new(MisconfigId::M5D, "app-b", "default/svc", "dangling target")
                .with_port(53, Protocol::Udp),
        ];
        let mut table = SymbolTable::new();
        for f in &findings {
            let compact = CompactFinding::intern(f, &mut table);
            assert_eq!(compact.identity(&table), f.identity());
            assert_eq!(compact.resolve(&table), *f);
        }
    }

    #[test]
    fn memoized_in_place_remap_assigns_the_same_ids() {
        // Reports and models of a corpus whose strings repeat within and
        // across applications (datasets, versions, namespaces, labels). The
        // findings name every unit but each app's first, so some strings
        // first occur in a report and others in a model.
        let corpus = pseudo_random_corpus(23, 40);
        let reports: Vec<AppReport> = corpus
            .iter()
            .enumerate()
            .map(|(i, (app, model))| AppReport {
                app: app.clone(),
                dataset: ["cncf", "bitnami", "prometheus"][i % 3].into(),
                version: format!("1.{}.0", i % 4),
                findings: model
                    .units
                    .iter()
                    .skip(1)
                    .map(|u| {
                        Finding::new(
                            MisconfigId::M4A,
                            app,
                            &u.name,
                            format!("labels {}", u.labels),
                        )
                    })
                    .collect(),
            })
            .collect();
        let slot = |i: usize, table: &mut SymbolTable| {
            let report = CompactAppReport::intern(&reports[i], table);
            let (app, model) = &corpus[i];
            (report, GlobalAppModel::intern(app, model, table))
        };

        // Interning every occurrence straight into one table, in spec order.
        let mut direct = SymbolTable::new();
        let expected: Vec<_> = (0..corpus.len()).map(|i| slot(i, &mut direct)).collect();

        // Three uneven shards, each filled in a scrambled completion order.
        let bounds = [0, 7, 25, corpus.len()];
        let shards: Vec<(SymbolTable, Vec<_>)> = bounds
            .windows(2)
            .map(|w| {
                let mut table = SymbolTable::new();
                let n = w[1] - w[0];
                let mut slots = vec![None; n];
                // Odd slots last-first, then even slots first-last.
                let odd = (0..n).rev().filter(|j| j % 2 == 1);
                for j in odd.chain((0..n).filter(|j| j % 2 == 0)) {
                    slots[j] = Some(slot(w[0] + j, &mut table));
                }
                (table, slots.into_iter().map(Option::unwrap).collect())
            })
            .collect();
        assert_ne!(
            format!("{:?}", shards[1].0),
            format!("{:?}", {
                let mut t = SymbolTable::new();
                (bounds[1]..bounds[2]).for_each(|i| drop(slot(i, &mut t)));
                t
            }),
            "the completion order must differ from spec order for the test to bite"
        );

        // The per-occurrence remap, walked in spec order.
        let mut per_occurrence = SymbolTable::new();
        let mut remapped = Vec::new();
        for (table, slots) in &shards {
            for (report, model) in slots {
                remapped.push((
                    report.remap(table, &mut per_occurrence),
                    model.remap(table, &mut per_occurrence),
                ));
            }
        }

        // The memoized in-place remap into a pre-sized table, as the merge
        // runs it.
        let mut merged = SymbolTable::with_capacity(
            shards.iter().map(|(t, _)| t.len()).sum(),
            shards.iter().map(|(t, _)| t.arena_bytes()).sum(),
        );
        let mut in_place = Vec::new();
        for (table, slots) in shards {
            let mut memo = SymMemo::new(&table);
            for (mut report, mut model) in slots {
                report.remap_in_place(&table, &mut merged, &mut memo);
                model.remap_in_place(&table, &mut merged, &mut memo);
                in_place.push((report, model));
            }
        }

        assert_eq!(format!("{merged:?}"), format!("{direct:?}"));
        assert_eq!(format!("{per_occurrence:?}"), format!("{direct:?}"));
        assert_eq!(in_place, expected);
        assert_eq!(remapped, expected);
    }

    #[test]
    fn remap_preserves_resolved_reports() {
        let mut from = SymbolTable::new();
        let report = AppReport {
            app: "remap-app".into(),
            dataset: "cncf".into(),
            version: "1.2.3".into(),
            findings: vec![Finding::new(
                MisconfigId::M6,
                "remap-app",
                "remap-app",
                "no NetworkPolicy",
            )],
        };
        let compact = CompactAppReport::intern(&report, &mut from);
        // Salt the destination so remapped ids differ from the source ids.
        let mut to = SymbolTable::new();
        to.intern("unrelated");
        let remapped = compact.remap(&from, &mut to);
        assert_ne!(compact.app, remapped.app);
        assert_eq!(remapped.resolve(&to), report);
    }
}
