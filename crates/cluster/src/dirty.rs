//! Dirty-set tracking: which applications a stream of cluster mutations
//! touched, so continuous-audit tooling can re-analyze only what changed.
//!
//! Every mutation that bumps [`Cluster::generation`](crate::Cluster::generation)
//! also records one [`DirtyEntry`] in a bounded log. An auditor remembers the
//! generation it last audited and asks
//! [`Cluster::dirty_since`](crate::Cluster::dirty_since) for a merged
//! [`DirtySummary`] of everything after that cursor. The log is a ring: when
//! it overflows old cursors fall off its horizon
//! and the summary degrades to a conservative everything-dirty answer — the
//! auditor falls back to a full recompute instead of ever missing a change,
//! and the cluster's memory stays bounded no matter how long it serves.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Maximum dirty-log entries retained before the ring starts dropping its
/// oldest generation (and cursors older than the horizon go conservative).
pub const DIRTY_LOG_CAP: usize = 4096;

/// Which release (application) a recorded mutation touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtyScope {
    /// Objects or pods stamped with one release annotation. Consecutive
    /// entries of one release share one allocation of the name.
    App(Arc<str>),
    /// Every installed release at once (pod restart sweeps).
    AllApps,
    /// A change with no release attribution: bare objects applied outside
    /// any release, and their pods. Auditors audit all unattributed objects
    /// together as one more release, so this dirties that release.
    Unattributed,
}

/// One recorded mutation, 1:1 with a generation bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyEntry {
    /// Whose findings the mutation can affect.
    pub scope: DirtyScope,
    /// The labelled object set changed (workloads, pods, services or
    /// namespaces applied or removed), so cluster-wide label analysis
    /// (`M4*`) must re-run. Network-policy-only changes leave this false.
    pub labels: bool,
}

impl DirtyEntry {
    /// An entry touching one release.
    pub(crate) fn app(name: impl Into<Arc<str>>, labels: bool) -> Self {
        DirtyEntry {
            scope: DirtyScope::App(name.into()),
            labels,
        }
    }
}

/// Everything that changed since a cursor generation, merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySummary {
    /// The log no longer covers the cursor (ring overflow, reset, or a
    /// cursor from another cluster): treat the whole cluster as dirty.
    pub everything: bool,
    /// Every release is dirty (pod restart sweeps) even though the log
    /// still covers the cursor.
    pub all_apps: bool,
    /// Releases with recorded changes, in sorted order.
    pub apps: BTreeSet<String>,
    /// Changes without release attribution occurred.
    pub unattributed: bool,
    /// Some change affected labelled object sets (`M4*` inputs).
    pub labels: bool,
}

impl DirtySummary {
    /// The conservative answer: recompute the world.
    pub fn everything() -> Self {
        DirtySummary {
            everything: true,
            all_apps: true,
            apps: BTreeSet::new(),
            unattributed: true,
            labels: true,
        }
    }

    /// True when no change at all was recorded since the cursor.
    pub fn is_clean(&self) -> bool {
        !self.everything
            && !self.all_apps
            && self.apps.is_empty()
            && !self.unattributed
            && !self.labels
    }

    fn merge(&mut self, entry: &DirtyEntry) {
        match &entry.scope {
            // A release is usually dirtied by many entries in a row: clone
            // its name only the first time.
            DirtyScope::App(name) => {
                if !self.apps.contains(&**name) {
                    self.apps.insert(name.to_string());
                }
            }
            DirtyScope::AllApps => self.all_apps = true,
            DirtyScope::Unattributed => self.unattributed = true,
        }
        self.labels |= entry.labels;
    }
}

/// Bounded ring of per-generation dirty entries. Entry `i` describes the
/// mutation that produced generation `start + 1 + i`; the invariant
/// `start + entries.len() == cluster.generation` holds because every
/// generation bump records exactly one entry.
#[derive(Debug)]
pub(crate) struct DirtyLog {
    start: u64,
    entries: VecDeque<DirtyEntry>,
    cap: usize,
}

impl DirtyLog {
    pub(crate) fn new(start: u64, cap: usize) -> Self {
        DirtyLog {
            start,
            entries: VecDeque::new(),
            cap,
        }
    }

    /// The scope of a mutation of `release` (`None`: unattributed). A
    /// release named like the newest entry's shares that entry's name, so
    /// the run of entries one install records allocates the name once.
    pub(crate) fn scope(&self, release: Option<&str>) -> DirtyScope {
        let Some(release) = release else {
            return DirtyScope::Unattributed;
        };
        match self.entries.back().map(|entry| &entry.scope) {
            Some(DirtyScope::App(last)) if **last == *release => DirtyScope::App(Arc::clone(last)),
            _ => DirtyScope::App(release.into()),
        }
    }

    /// Records the entry for a freshly bumped generation, dropping the
    /// oldest one when full.
    pub(crate) fn record(&mut self, entry: DirtyEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.start = self.start.wrapping_add(1);
        }
        self.entries.push_back(entry);
    }

    /// Merged summary of the entries after `cursor`, where `current` is the
    /// cluster's present generation.
    pub(crate) fn summary_since(&self, cursor: u64, current: u64) -> DirtySummary {
        if cursor == current {
            return DirtySummary::default();
        }
        if cursor > current || cursor < self.start {
            return DirtySummary::everything();
        }
        let mut summary = DirtySummary::default();
        let skip = (cursor - self.start) as usize;
        for entry in self.entries.iter().skip(skip) {
            summary.merge(entry);
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_merge_scopes_and_flags() {
        let mut log = DirtyLog::new(0, 8);
        log.record(DirtyEntry::app("shop", true));
        log.record(DirtyEntry::app("blog", false));
        let s = log.summary_since(0, 2);
        assert!(!s.everything && !s.all_apps);
        assert_eq!(
            s.apps.iter().cloned().collect::<Vec<_>>(),
            vec!["blog".to_string(), "shop".to_string()]
        );
        assert!(s.labels);
        // A later cursor sees only the tail.
        let tail = log.summary_since(1, 2);
        assert!(!tail.labels);
        assert_eq!(tail.apps.len(), 1);
        assert!(log.summary_since(2, 2).is_clean());
    }

    #[test]
    fn overflow_and_unknown_cursors_go_conservative() {
        let mut log = DirtyLog::new(0, 2);
        for _ in 0..5 {
            log.record(DirtyEntry {
                scope: DirtyScope::Unattributed,
                labels: false,
            });
        }
        // Entries 0..3 fell off the ring: cursor 1 is below the horizon.
        assert!(log.summary_since(1, 5).everything);
        // Cursor 3 is the ring's start and still covered.
        let covered = log.summary_since(3, 5);
        assert!(!covered.everything && covered.unattributed);
        // A cursor from the future (another cluster) is never trusted.
        assert!(log.summary_since(9, 5).everything);
    }

    #[test]
    fn consecutive_entries_of_one_release_share_its_name() {
        let mut log = DirtyLog::new(0, 8);
        log.record(DirtyEntry::app("shop", true));
        let DirtyScope::App(first) = log.scope(Some("shop")) else {
            panic!("a release scope");
        };
        let DirtyScope::App(last) = &log.entries[0].scope else {
            unreachable!("recorded as a release entry");
        };
        assert!(Arc::ptr_eq(&first, last), "same release, one allocation");
        let DirtyScope::App(other) = log.scope(Some("blog")) else {
            panic!("a release scope");
        };
        assert_eq!(&*other, "blog");
        assert_eq!(log.scope(None), DirtyScope::Unattributed);
    }
}
