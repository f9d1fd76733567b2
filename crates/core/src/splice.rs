//! In-place edits of a sorted list that move the untouched items in blocks.
//!
//! The continuous auditor keeps long sorted lists across ticks — the `M4*`
//! index's tables and the open findings — and each tick replaces a few
//! items in them. [`splice_in_place`] applies such an edit without
//! rebuilding the list: the items that leave close their gaps front to
//! back, then the items that enter are merged in from the back, so every
//! run of kept items between two edits moves as one block, at most once
//! per phase, and only the items that leave or enter are touched one at a
//! time. [`splice_copied`] does the same for `Copy` items with one
//! `memmove` per block.

use std::ops::Range;

/// Edits `list` in place: the items at the positions `cut` (ascending,
/// distinct) leave, and each `(at, item)` of `added` (by ascending `at`)
/// enters right before the item that stood at position `at` (`at ==
/// list.len()`: at the end), after any item added at the same `at` before
/// it. The kept items keep their order.
///
/// The items at the `cut` positions are dropped without being read, so a
/// caller that wants them moves them out first and leaves blanks behind.
/// `blank` makes the filler the list grows by while the added items find
/// their slots; none of it is left when the call returns. The list grows
/// only as far as the edit needs: a list kept across many edits stays as
/// large as it has been, not twice that.
pub fn splice_in_place<T>(
    list: &mut Vec<T>,
    cut: &[usize],
    added: Vec<(usize, T)>,
    blank: impl FnMut() -> T,
) {
    list.reserve_exact(added.len().saturating_sub(cut.len()));
    // A rotation carries the cut items or filler a block moves onto to the
    // slots the block leaves.
    let kept = close_gaps(list, cut, |list, run, to| {
        list[to..run.end].rotate_left(run.start - to);
    });
    list.truncate(kept);
    list.resize_with(kept + added.len(), blank);
    merge_from_back(list, kept, cut, added, |list, run, by| {
        list[run.start..run.end + by].rotate_right(by);
    });
}

/// [`splice_in_place`] for `Copy` items, which need no blanks: the cut
/// items are simply overwritten.
pub fn splice_copied<T: Copy>(list: &mut Vec<T>, cut: &[usize], added: Vec<(usize, T)>) {
    list.reserve_exact(added.len().saturating_sub(cut.len()));
    let kept = close_gaps(list, cut, |list, run, to| list.copy_within(run, to));
    list.truncate(kept);
    if let Some(&(_, filler)) = added.first() {
        list.resize(kept + added.len(), filler);
    }
    merge_from_back(list, kept, cut, added, |list, run, by| {
        list.copy_within(run.start..run.end, run.start + by);
    });
}

/// Moves a run of a list's items, as `shift(list, run, to)` or
/// `shift(list, run, by)`.
type Shift<T> = fn(&mut [T], Range<usize>, usize);

/// Moves each run of kept items between two of the ascending `cut`
/// positions down past the cuts before it, front to back, as
/// `shift(list, run, to)`; returns how many items are kept.
fn close_gaps<T>(list: &mut [T], cut: &[usize], shift: Shift<T>) -> usize {
    let Some(&first) = cut.first() else {
        return list.len();
    };
    let mut to = first;
    for (i, &at) in cut.iter().enumerate() {
        let end = cut.get(i + 1).copied().unwrap_or(list.len());
        if at + 1 < end {
            shift(list, at + 1..end, to);
        }
        to += end - at - 1;
    }
    to
}

/// Merges the `added` items into the `kept` items that [`close_gaps`] left
/// at the front of `list`, which has room for them behind, back to front:
/// each run of kept items after an insertion point moves up past the
/// items added before it, as `shift(list, run, by)`. An item's `at`, a
/// position before the cuts, loses the cuts before it.
fn merge_from_back<T>(
    list: &mut [T],
    mut kept: usize,
    cut: &[usize],
    added: Vec<(usize, T)>,
    shift: Shift<T>,
) {
    let mut cuts_before = cut.len();
    for (j, (at, item)) in added.into_iter().enumerate().rev() {
        while cuts_before > 0 && cut[cuts_before - 1] >= at {
            cuts_before -= 1;
        }
        let at = at - cuts_before;
        if at < kept {
            shift(list, at..kept, j + 1);
        }
        list[at + j] = item;
        kept = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The edit as a rebuild: the kept items, with the added ones merged
    /// in before the positions they name.
    fn rebuilt(list: &[u32], cut: &[usize], added: &[(usize, u32)]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut added = added.iter().peekable();
        for (pos, &item) in list.iter().enumerate() {
            while let Some(&(_, a)) = added.next_if(|&&(at, _)| at <= pos) {
                out.push(a);
            }
            if !cut.contains(&pos) {
                out.push(item);
            }
        }
        out.extend(added.map(|&(_, a)| a));
        out
    }

    #[test]
    fn random_edits_match_a_rebuild() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..2_000 {
            let len = next(24);
            let list: Vec<u32> = (0..len as u32).collect();
            let cut: Vec<usize> = (0..len).filter(|_| next(4) == 0).collect();
            let mut added: Vec<(usize, u32)> = (0..next(6))
                .map(|i| (next(len + 1), 1_000 + i as u32))
                .collect();
            added.sort_by_key(|&(at, _)| at);
            let expected = rebuilt(&list, &cut, &added);
            // Cut items are blanked first, as a caller that moves them out
            // leaves them.
            let mut got = list.clone();
            for &pos in &cut {
                got[pos] = u32::MAX;
            }
            let mut copied = got.clone();
            splice_in_place(&mut got, &cut, added.clone(), || u32::MAX);
            assert_eq!(got, expected, "round {round}");
            splice_copied(&mut copied, &cut, added);
            assert_eq!(copied, expected, "round {round}: copied");
        }
    }

    #[test]
    fn owned_items_move_without_clones() {
        let mut list: Vec<String> = ["a", "c", "x", "d", "y", "f"].map(String::from).into();
        let cut = [2, 4];
        for &pos in &cut {
            std::mem::take(&mut list[pos]);
        }
        let added = vec![
            (0, "0".to_string()),
            (1, "b".to_string()),
            (6, "g".to_string()),
        ];
        splice_in_place(&mut list, &cut, added, String::new);
        assert_eq!(list, ["0", "a", "b", "c", "d", "f", "g"]);
    }
}
