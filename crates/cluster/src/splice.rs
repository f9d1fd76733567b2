//! In-place edits of a sorted list that move the untouched items in blocks.
//!
//! The release index and the `M4*` kernel's index keep long sorted lists of
//! `Copy` entries, and each edit replaces a few entries in them.
//! [`splice_copied`] applies such an edit without rebuilding the list: the
//! items that leave close their gaps front to back, then the items that
//! enter are merged in from the back, so every run of kept items between
//! two edits moves as one block (one `memmove`), at most once per phase,
//! and only the items that leave or enter are touched one at a time.

/// Edits `list` in place: the items at the positions `cut` (ascending,
/// distinct) leave, and each `(at, item)` of `added` (by ascending `at`)
/// enters right before the item that stood at position `at` (`at ==
/// list.len()`: at the end), after any item added at the same `at` before
/// it. The kept items keep their order.
pub fn splice_copied<T: Copy>(list: &mut Vec<T>, cut: &[usize], added: &[(usize, T)]) {
    // Each run of kept items between two cuts moves down past the cuts
    // before it.
    let mut kept = cut.first().copied().unwrap_or(list.len());
    for (i, &at) in cut.iter().enumerate() {
        let end = cut.get(i + 1).copied().unwrap_or(list.len());
        list.copy_within(at + 1..end, kept);
        kept += end - at - 1;
    }
    list.truncate(kept);
    let Some(&(_, filler)) = added.first() else {
        return;
    };
    list.resize(kept + added.len(), filler);
    // Back to front, each run of kept items after an insertion point moves
    // up past the items added before it. An item's `at`, a position before
    // the cuts, loses the cuts before it.
    let mut cuts_before = cut.len();
    for (j, &(at, item)) in added.iter().enumerate().rev() {
        while cuts_before > 0 && cut[cuts_before - 1] >= at {
            cuts_before -= 1;
        }
        let at = at - cuts_before;
        list.copy_within(at..kept, at + j + 1);
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
            let mut got = list.clone();
            splice_copied(&mut got, &cut, &added);
            assert_eq!(got, expected, "round {round}");
        }
    }
}
