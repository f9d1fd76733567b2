//! The slot store behind the cluster's objects and pods.
//!
//! Entries are appended at the end, so slot order is append order (apply
//! order for objects, start order for pods) and the live entries read in
//! that order. A removal takes its entry out and leaves a tombstone, so no
//! later entry moves and every stored position stays valid. Once tombstones
//! outnumber live entries, [`Slots::compact_if_sparse`] closes the gaps in
//! one pass and reports each old position's new one, for the owner to remap
//! its own position lists. A compaction moves fewer entries than it clears
//! tombstones, and each tombstone is one removal, so a removal costs
//! amortized O(1) however large the store is.
//!
//! `Option<T>` is niche-packed for the cluster's entry types, so a slot is
//! no larger than the entry itself.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::slice;

/// The remap entry of a removed position.
pub(crate) const GONE: usize = usize::MAX;

/// Entries in append order, with tombstones; see the module docs.
pub(crate) struct Slots<T> {
    slots: Vec<Option<T>>,
    live: usize,
    /// Live entries compactions moved to a new position.
    #[cfg(test)]
    pub(crate) moved: usize,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            live: 0,
            #[cfg(test)]
            moved: 0,
        }
    }
}

impl<T> Slots<T> {
    /// The number of live entries.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The position the next appended entry gets: one past the last slot.
    pub(crate) fn end(&self) -> usize {
        self.slots.len()
    }

    /// Reserves room for `additional` more appends.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Appends `item`, returning its position.
    pub(crate) fn push(&mut self, item: T) -> usize {
        self.slots.push(Some(item));
        self.live += 1;
        self.slots.len() - 1
    }

    /// Takes the live entry at `pos` out, leaving a tombstone.
    pub(crate) fn take(&mut self, pos: usize) -> T {
        let item = self.slots[pos].take().expect("a live slot");
        self.live -= 1;
        item
    }

    /// The live entry at `pos`; `None` for a tombstone or past the end.
    pub(crate) fn get(&self, pos: usize) -> Option<&T> {
        self.slots.get(pos)?.as_ref()
    }

    /// Drops every slot at `end..`.
    pub(crate) fn truncate(&mut self, end: usize) {
        self.live -= self.slots[end..].iter().flatten().count();
        self.slots.truncate(end);
    }

    /// The live entries, in slot order.
    pub(crate) fn view(&self) -> Live<'_, T> {
        Live {
            slots: &self.slots,
            len: self.live,
        }
    }

    /// The live entries, in slot order.
    pub(crate) fn iter(&self) -> LiveIter<'_, T> {
        self.view().iter()
    }

    /// The live entries, mutably, in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// `(position, entry)` of the live entries at `from..`, in slot order.
    pub(crate) fn entries_from(&self, from: usize) -> impl Iterator<Item = (usize, &T)> + Clone {
        self.slots[from..]
            .iter()
            .zip(from..)
            .filter_map(|(slot, pos)| Some((pos, slot.as_ref()?)))
    }

    /// The `n`-th live entry: O(1) while the store holds no tombstone.
    pub(crate) fn nth(&self, n: usize) -> Option<&T> {
        if self.live == self.slots.len() {
            self.slots.get(n)?.as_ref()
        } else {
            self.iter().nth(n)
        }
    }

    /// Closes the gaps when tombstones outnumber live entries, filling
    /// `remap` with each old position's new one ([`GONE`] for a
    /// tombstone); false, with `remap` untouched, when the store is dense
    /// enough to leave as it is.
    pub(crate) fn compact_if_sparse(&mut self, remap: &mut Vec<usize>) -> bool {
        if self.slots.len() - self.live <= self.live {
            return false;
        }
        remap.clear();
        let mut next = 0;
        for slot in &self.slots {
            if slot.is_some() {
                remap.push(next);
                next += 1;
            } else {
                remap.push(GONE);
            }
        }
        #[cfg(test)]
        {
            self.moved += remap
                .iter()
                .enumerate()
                .filter(|&(pos, &to)| to != GONE && to != pos)
                .count();
        }
        self.slots.retain(Option::is_some);
        true
    }

    /// Panics unless the live count matches the slots and tombstones do
    /// not outnumber live entries.
    #[cfg(test)]
    pub(crate) fn assert_dense(&self, context: &str) {
        let live = self.slots.iter().flatten().count();
        assert_eq!(self.live, live, "{context}: live count");
        assert!(
            self.slots.len() - live <= live,
            "{context}: {} tombstones beside {live} live slots",
            self.slots.len() - live
        );
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;

    fn index(&self, pos: usize) -> &T {
        self.slots[pos].as_ref().expect("a live slot")
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, pos: usize) -> &mut T {
        self.slots[pos].as_mut().expect("a live slot")
    }
}

/// A borrowed view of the cluster's live objects or pods, in apply (or
/// start) order: what [`Cluster::objects`] and [`Cluster::pods`] return.
///
/// [`Cluster::objects`]: crate::Cluster::objects
/// [`Cluster::pods`]: crate::Cluster::pods
pub struct Live<'a, T> {
    slots: &'a [Option<T>],
    len: usize,
}

impl<'a, T> Live<'a, T> {
    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there is no live entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live entries, in order.
    pub fn iter(&self) -> LiveIter<'a, T> {
        LiveIter {
            slots: self.slots.iter(),
            left: self.len,
        }
    }
}

impl<T> Clone for Live<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Live<'_, T> {}

impl<T: fmt::Debug> fmt::Debug for Live<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for Live<'a, T> {
    type Item = &'a T;
    type IntoIter = LiveIter<'a, T>;

    fn into_iter(self) -> LiveIter<'a, T> {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &Live<'a, T> {
    type Item = &'a T;
    type IntoIter = LiveIter<'a, T>;

    fn into_iter(self) -> LiveIter<'a, T> {
        self.iter()
    }
}

/// The iterator of a [`Live`] view: skips tombstones and stops after the
/// last live entry.
pub struct LiveIter<'a, T> {
    slots: slice::Iter<'a, Option<T>>,
    left: usize,
}

impl<T> Clone for LiveIter<'_, T> {
    fn clone(&self) -> Self {
        LiveIter {
            slots: self.slots.clone(),
            left: self.left,
        }
    }
}

impl<'a, T> Iterator for LiveIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.left == 0 {
            return None;
        }
        let item = self.slots.find_map(Option::as_ref)?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for LiveIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removals_leave_tombstones_until_they_outnumber_the_live() {
        let mut slots = Slots::default();
        for c in ['a', 'b', 'c', 'd', 'e'] {
            slots.push(c);
        }
        let mut remap = Vec::new();
        assert_eq!(slots.take(1), 'b');
        assert_eq!(slots.take(3), 'd');
        assert!(!slots.compact_if_sparse(&mut remap), "2 tombstones, 3 live");
        assert_eq!(slots.view().iter().collect::<String>(), "ace");
        assert_eq!((slots.live(), slots.end(), slots.get(3)), (3, 5, None));
        assert_eq!(slots.nth(1), Some(&'c'));
        assert_eq!(slots.take(0), 'a');
        assert!(slots.compact_if_sparse(&mut remap));
        assert_eq!(remap, [GONE, GONE, 0, GONE, 1]);
        assert_eq!(
            (slots[0], slots[1], slots.end(), slots.moved),
            ('c', 'e', 2, 2)
        );
        assert_eq!(slots.nth(1), Some(&'e'));
        slots.truncate(1);
        assert_eq!(slots.view().len(), 1);
    }
}
