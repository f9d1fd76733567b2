//! The release index: where each release's objects sit in the cluster's
//! object slots, and `(namespace, name)` lookups for objects and running
//! pods.
//!
//! The cluster keeps its objects and pods in [`Slots`] (apply order and
//! start order are observable: [`Cluster::objects`] returns the first, the
//! scheduler round-robins over the second). This index holds positions into
//! both, so that a serve-path mutation (an uninstall, a reconcile of what
//! was applied or scaled, an audit tick collecting one release) finds what
//! it touches without walking the whole cluster:
//!
//! * `by_release`: `(release key, position)` for every object, sorted, so
//!   one release's objects form one run in apply order;
//! * `by_name`: `(name key, position)` for every object, sorted, so the
//!   objects sharing a `(namespace, name)` form one run in apply order;
//! * `pods`: running-pod positions sorted by `(namespace, name)`, then
//!   position, so the pods an object named `n` may have expanded to (`n`
//!   itself or `n-…`) form one contiguous stretch.
//!
//! Keys are 64-bit FNV-1a hashes, never owned strings; every lookup
//! re-checks the object it lands on, so a hash collision costs a skipped
//! entry, not a wrong answer. Adding objects merges one sorted batch, adding
//! a pod is one binary insertion. Removing objects leaves their entries in
//! `by_release` and `by_name`: they point at tombstones, which every lookup
//! skips, until a compaction of the slots drops them and renumbers the rest
//! in one pass over integers. A removed pod's entry leaves `pods` at once
//! (its comparator reads pod names, which a tombstone no longer has): the
//! reaped pods' entries are found first, then `pods` closes their gaps in
//! one pass. The index never allocates per object or per pod: its vectors
//! only grow.
//!
//! [`Cluster::objects`]: crate::Cluster::objects

use crate::cluster::{RunningPod, RELEASE_ANNOTATION};
use crate::slots::{Slots, GONE};
use crate::splice::splice_copied;
use ij_model::Object;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Separates the parts of a key. Never part of UTF-8 text, so no two
/// different part lists feed the hash the same bytes.
const SEPARATOR: u8 = 0xff;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The [`RELEASE_ANNOTATION`] value of an object, if any.
pub(crate) fn release_name(o: &Object) -> Option<&str> {
    o.meta()
        .annotations
        .get(RELEASE_ANNOTATION)
        .map(String::as_str)
}

/// The key of a release; `None` is the unattributed objects' key.
fn release_key(release: Option<&str>) -> u64 {
    match release {
        None => FNV_OFFSET,
        Some(name) => fnv(fnv(FNV_OFFSET, &[SEPARATOR]), name.as_bytes()),
    }
}

/// The key of a `(namespace, name)` pair.
fn name_key(namespace: &str, name: &str) -> u64 {
    fnv(namespace_key(namespace), name.as_bytes())
}

/// The name key of an object.
fn object_name_key(o: &Object) -> u64 {
    name_key(&o.meta().namespace, &o.meta().name)
}

/// The hash state [`name_key`] extends with the name's bytes.
fn namespace_key(namespace: &str) -> u64 {
    fnv(fnv(FNV_OFFSET, namespace.as_bytes()), &[SEPARATOR])
}

/// The name keys of `namespace/name` and of every `-`-separated prefix of
/// `name` (`a`, `a-b`, … for `a-b-c`).
fn prefix_keys<'a>(namespace: &str, name: &'a str) -> impl Iterator<Item = u64> + 'a {
    let mut hash = namespace_key(namespace);
    name.bytes()
        .filter_map(move |b| {
            let prefix = (b == b'-').then_some(hash);
            hash = fnv(hash, &[b]);
            prefix
        })
        .chain(std::iter::once(name_key(namespace, name)))
}

/// The positions stored under `key` in a sorted `(key, position)` list,
/// ascending.
fn run(list: &[(u64, usize)], key: u64) -> impl Iterator<Item = usize> + '_ {
    let start = list.partition_point(|&(k, _)| k < key);
    list[start..]
        .iter()
        .take_while(move |&&(k, _)| k == key)
        .map(|&(_, pos)| pos)
}

/// Merges `entries` into the sorted `list`: each finds its place by binary
/// search, and the old entries between two places move up in one block,
/// so one entry is a single insertion. `batch` is a reused buffer.
fn merge(
    list: &mut Vec<(u64, usize)>,
    batch: &mut Vec<(usize, (u64, usize))>,
    entries: impl Iterator<Item = (u64, usize)>,
) {
    batch.clear();
    batch.extend(entries.map(|entry| (0, entry)));
    batch.sort_unstable_by_key(|&(_, entry)| entry);
    for (at, entry) in batch.iter_mut() {
        *at = list.partition_point(|e| e < entry);
    }
    splice_copied(list, &[], batch);
}

/// Rewrites the positions in `list` (found by `pos`) through `remap`,
/// dropping the removed ones; order is kept because the remap is monotonic.
pub(crate) fn remap_positions<T>(
    list: &mut Vec<T>,
    remap: &[usize],
    pos: fn(&mut T) -> &mut usize,
) {
    list.retain_mut(|entry| {
        let pos = pos(entry);
        *pos = remap[*pos];
        *pos != GONE
    });
}

/// `(namespace, name)` of a running pod.
fn pod_name(pods: &Slots<RunningPod>, pos: usize) -> (&str, &str) {
    let meta = &pods[pos].pod.meta;
    (meta.namespace.as_str(), meta.name.as_str())
}

/// Positions into the cluster's objects and pods; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct ReleaseIndex {
    by_release: Vec<(u64, usize)>,
    by_name: Vec<(u64, usize)>,
    pods: Vec<usize>,
    /// Reused buffer: the sorted batch [`ReleaseIndex::add_objects`] merges,
    /// each entry with its place.
    batch: Vec<(usize, (u64, usize))>,
    /// Reused buffer: old position → new position of the last compaction.
    remap: Vec<usize>,
    /// Reused buffer: the `pods` entries [`ReleaseIndex::remove_pods`]
    /// takes out.
    cut: Vec<usize>,
    /// `pods` entries moved to close the gaps of removed ones.
    #[cfg(test)]
    pub(crate) moved_entries: usize,
}

impl ReleaseIndex {
    /// Indexes the objects appended at `from..`.
    pub(crate) fn add_objects(&mut self, objects: &Slots<Object>, from: usize) {
        let added = objects.entries_from(from);
        let releases = added
            .clone()
            .map(|(pos, o)| (release_key(release_name(o)), pos));
        merge(&mut self.by_release, &mut self.batch, releases);
        let names = added.map(|(pos, o)| (object_name_key(o), pos));
        merge(&mut self.by_name, &mut self.batch, names);
    }

    /// Positions of the objects of `release` (`None`: those without a
    /// release annotation), in apply order.
    pub(crate) fn release<'a>(
        &'a self,
        objects: &'a Slots<Object>,
        release: Option<&'a str>,
    ) -> impl Iterator<Item = usize> + 'a {
        run(&self.by_release, release_key(release))
            .filter(move |&pos| objects.get(pos).is_some_and(|o| release_name(o) == release))
    }

    /// Positions of the objects of any kind named `namespace/name`, in
    /// apply order.
    pub(crate) fn named<'a>(
        &'a self,
        objects: &'a Slots<Object>,
        namespace: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        run(&self.by_name, name_key(namespace, name)).filter(move |&pos| {
            objects.get(pos).is_some_and(|o| {
                let meta = o.meta();
                meta.namespace == namespace && meta.name == name
            })
        })
    }

    /// The objects that may be named `namespace/name` or like a
    /// `-`-separated prefix of `name`: the only objects that can desire a
    /// pod so named. The caller checks the names.
    pub(crate) fn prefix_named<'a>(
        &'a self,
        objects: &'a Slots<Object>,
        namespace: &str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Object> + 'a {
        prefix_keys(namespace, name)
            .flat_map(move |key| run(&self.by_name, key))
            .filter_map(|pos| objects.get(pos))
    }

    /// Takes the objects at `removed` out of `objects`, leaving tombstones
    /// the lookups skip. When tombstones come to outnumber live objects,
    /// compacts the slots and the index and returns each old position's
    /// new one ([`GONE`] if removed) for [`remap_positions`] of the
    /// caller's own position lists.
    pub(crate) fn remove_objects(
        &mut self,
        objects: &mut Slots<Object>,
        removed: &[usize],
    ) -> Option<&[usize]> {
        for &pos in removed {
            objects.take(pos);
        }
        if !objects.compact_if_sparse(&mut self.remap) {
            return None;
        }
        remap_positions(&mut self.by_release, &self.remap, |(_, pos)| pos);
        remap_positions(&mut self.by_name, &self.remap, |(_, pos)| pos);
        Some(&self.remap)
    }

    /// Indexes the pod appended at `pos`.
    pub(crate) fn add_pod(&mut self, pods: &Slots<RunningPod>, pos: usize) {
        let key = pod_name(pods, pos);
        let at = self
            .pods
            .partition_point(|&other| pod_name(pods, other) <= key);
        self.pods.insert(at, pos);
    }

    /// The position of the running pod named `ns/name`: the head of
    /// [`ReleaseIndex::pods_under`]'s stretch.
    pub(crate) fn pod(&self, pods: &Slots<RunningPod>, ns: &str, name: &str) -> Option<usize> {
        let head = self.pods_under(pods, ns, name).next();
        head.filter(|&pos| pods[pos].pod.meta.name == name)
    }

    /// Positions of the running pods an object named `namespace/name` may
    /// have expanded to: `name` itself or `name-<suffix>`, in name order
    /// (so those named `name` come first).
    pub(crate) fn pods_under<'a>(
        &'a self,
        pods: &'a Slots<RunningPod>,
        namespace: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        let start = self
            .pods
            .partition_point(|&pos| pod_name(pods, pos) < (namespace, name));
        self.pods[start..]
            .iter()
            .map(move |&pos| (pos, pod_name(pods, pos)))
            .take_while(move |&(_, (ns, pod))| ns == namespace && pod.starts_with(name))
            .filter(move |&(_, (_, pod))| {
                pod.len() == name.len() || pod[name.len()..].starts_with('-')
            })
            .map(|(pos, _)| pos)
    }

    /// Takes the pods at `removed` out of `pods` and the index, compacting
    /// the slots when tombstones come to outnumber live pods. Each pod's
    /// entry is found by binary search on its name while every pod is still
    /// there; the pod index then closes the gaps in one pass from the first
    /// of them, moving each later entry at most once ([`splice_copied`]).
    pub(crate) fn remove_pods(&mut self, pods: &mut Slots<RunningPod>, removed: &[usize]) {
        if removed.is_empty() {
            return;
        }
        self.cut.clear();
        self.cut.extend(removed.iter().map(|&pos| {
            let key = (pod_name(pods, pos), pos);
            let at = self
                .pods
                .partition_point(|&other| (pod_name(pods, other), other) < key);
            debug_assert_eq!(self.pods.get(at), Some(&pos), "an indexed pod");
            at
        }));
        self.cut.sort_unstable();
        #[cfg(test)]
        {
            // Every entry after the first cut one that stays moves once.
            self.moved_entries += self.pods.len() - self.cut[0] - self.cut.len();
        }
        splice_copied(&mut self.pods, &self.cut, &[]);
        for &pos in removed {
            pods.take(pos);
        }
        if pods.compact_if_sparse(&mut self.remap) {
            remap_positions(&mut self.pods, &self.remap, |pos| pos);
        }
    }

    /// Panics unless the index equals one rebuilt from the slots, but for
    /// object entries that point at tombstones; tombstones may not
    /// outnumber live slots.
    #[cfg(test)]
    pub(crate) fn assert_exact(
        &self,
        objects: &Slots<Object>,
        pods: &Slots<RunningPod>,
        context: &str,
    ) {
        objects.assert_dense(&format!("{context}: objects"));
        pods.assert_dense(&format!("{context}: pods"));
        let keyed = |key: fn(&Object) -> u64| {
            let mut list: Vec<(u64, usize)> = objects
                .entries_from(0)
                .map(|(pos, o)| (key(o), pos))
                .collect();
            list.sort_unstable();
            list
        };
        let live = |list: &[(u64, usize)]| -> Vec<(u64, usize)> {
            list.iter()
                .copied()
                .filter(|&(_, pos)| objects.get(pos).is_some())
                .collect()
        };
        assert_eq!(
            live(&self.by_release),
            keyed(|o| release_key(release_name(o))),
            "{context}: release index"
        );
        assert_eq!(
            live(&self.by_name),
            keyed(object_name_key),
            "{context}: name index"
        );
        let stale = |list: &[(u64, usize)]| list.iter().any(|&(_, pos)| pos >= objects.end());
        assert!(
            !stale(&self.by_release) && !stale(&self.by_name),
            "{context}: an entry past the last slot"
        );
        let mut by_pod: Vec<usize> = pods.entries_from(0).map(|(pos, _)| pos).collect();
        by_pod.sort_by_key(|&pos| (pod_name(pods, pos), pos));
        assert_eq!(self.pods, by_pod, "{context}: pod index");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_keys_cover_every_dash_prefix() {
        let keys: Vec<u64> = prefix_keys("ns", "a-bc-d").collect();
        let expected = ["a", "a-bc", "a-bc-d"].map(|name| name_key("ns", name));
        assert_eq!(keys, expected);
        assert_eq!(
            prefix_keys("ns", "solo").collect::<Vec<_>>(),
            [name_key("ns", "solo")]
        );
        assert_ne!(name_key("a", "b"), name_key("ab", ""));
        assert_ne!(release_key(None), release_key(Some("")));
    }

    #[test]
    fn merge_keeps_the_list_sorted() {
        let mut list = vec![(1, 0), (3, 1), (5, 2)];
        let mut batch = Vec::new();
        merge(&mut list, &mut batch, [(9, 5), (0, 3), (3, 4)].into_iter());
        assert_eq!(list, [(0, 3), (1, 0), (3, 1), (3, 4), (5, 2), (9, 5)]);
        merge(&mut list, &mut batch, std::iter::empty());
        assert_eq!(list.len(), 6);
    }

    #[test]
    fn remapping_drops_removed_positions_and_keeps_order() {
        let remap = [0, GONE, 1, GONE, 2];
        let mut list = vec![(7, 4), (7, 1), (8, 2)];
        remap_positions(&mut list, &remap, |(_, pos)| pos);
        assert_eq!(list, [(7, 2), (8, 1)]);
    }
}
