//! A flat-memory symbol table: every distinct string stored once in a
//! single byte arena, referenced by a dense 32-bit [`Sym`].
//!
//! The census at corpus scale produces millions of findings whose `app` /
//! `object` / `detail` fields repeat heavily (dataset names, version
//! strings, shared detail templates) or are the only owner of their bytes
//! (qualified object names). Carrying them as three owned `String`s per
//! finding costs three heap allocations plus malloc slack each; interning
//! them turns a finding into a few integers and the whole census into one
//! contiguous arena — the same trade [`ij_model::LabelInterner`] makes for
//! label sets, pushed through the finding/report path.
//!
//! ```
//! use ij_core::SymbolTable;
//!
//! let mut table = SymbolTable::new();
//! let a = table.intern("default/web");
//! let b = table.intern("default/web");
//! assert_eq!(a, b); // deduplicated
//! assert_eq!(table.resolve(a), "default/web");
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned string id: an index into one [`SymbolTable`]. Resolving a
/// `Sym` against a table it did not come from is a logic error (caught by
/// the table's bounds check at resolve time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (interning order).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Candidate symbol ids behind one dedup-index hash. Hash collisions among
/// distinct strings are near-nonexistent, so the common case stores its
/// single id inline; spilling to a heap `Vec` only on a genuine collision
/// saves one allocation per unique string — hundreds of MB and a lot of
/// cache misses at million-app scale.
#[derive(Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn ids(&self) -> &[u32] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }
}

/// The index's hasher: its keys are FNV-1a hashes already, so hashing them
/// again (the std map's default is SipHash) only adds a second pass over
/// every key. This one passes the `u64` through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold anything else in FNV-1a
        // style rather than dropping it.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// The arena: one byte buffer, one span per symbol, and a hash index for
/// deduplication. Symbols are dense (`0..len()`) in first-intern order, so
/// two tables fed the same strings in the same order assign identical ids —
/// the property the sharded census merge relies on.
///
/// The index is keyed by each string's 64-bit FNV-1a hash and hashed with
/// a pass-through hasher: the key is used as the map's hash as it is, so a
/// string is hashed once per intern or lookup, not once by FNV-1a and again
/// by the map. The map still compares whole keys, and every candidate id is
/// checked against the arena bytes, so two strings that share a hash both
/// intern correctly. The index was never hardened against crafted keys:
/// FNV-1a is unkeyed, so strings crafted to share one hash always landed
/// in one bucket and were scanned linearly, keyed map hash or not.
#[derive(Clone, Default)]
pub struct SymbolTable {
    /// Every interned string, concatenated.
    bytes: String,
    /// Per symbol: (offset, length) into `bytes`.
    spans: Vec<(u32, u32)>,
    /// FNV-1a hash of the string → candidate symbol ids (collision-checked
    /// against the arena on lookup).
    index: HashMap<u64, Bucket, BuildHasherDefault<PassThrough>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// An empty table with room for `symbols` distinct strings holding
    /// `bytes` bytes in all, so filling it up to that size never regrows
    /// the arena or rehashes the index. Ids are assigned exactly as by
    /// [`SymbolTable::new`].
    pub fn with_capacity(symbols: usize, bytes: usize) -> Self {
        SymbolTable {
            bytes: String::with_capacity(bytes),
            spans: Vec::with_capacity(symbols),
            index: HashMap::with_capacity_and_hasher(symbols, BuildHasherDefault::default()),
        }
    }

    /// Number of distinct symbols interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes held by the arena (distinct string content only).
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Interns `s`, returning the existing symbol when the exact string was
    /// seen before.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.intern_hashed(fnv64(s), s)
    }

    /// Looks a string up without interning it.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.lookup_hashed(fnv64(s), s)
    }

    /// [`SymbolTable::intern`] with the string's hash given, so tests can
    /// force distinct strings onto one hash.
    fn intern_hashed(&mut self, hash: u64, s: &str) -> Sym {
        if let Some(sym) = self.lookup_hashed(hash, s) {
            return sym;
        }
        let offset = u32::try_from(self.bytes.len()).expect("symbol arena exceeds 4 GiB");
        let len = u32::try_from(s.len()).expect("symbol longer than 4 GiB");
        let id = u32::try_from(self.spans.len()).expect("more than 2^32 symbols");
        self.bytes.push_str(s);
        self.spans.push((offset, len));
        match self.index.entry(hash) {
            Entry::Occupied(mut e) => e.get_mut().push(id),
            Entry::Vacant(e) => {
                e.insert(Bucket::One(id));
            }
        }
        Sym(id)
    }

    fn lookup_hashed(&self, hash: u64, s: &str) -> Option<Sym> {
        self.index
            .get(&hash)?
            .ids()
            .iter()
            .copied()
            .find(|&id| self.span_str(id) == s)
            .map(Sym)
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.span_str(sym.0)
    }

    fn span_str(&self, id: u32) -> &str {
        let (offset, len) = self.spans[id as usize];
        &self.bytes[offset as usize..(offset + len) as usize]
    }
}

/// Where the symbols of one table went in another: the memo of a
/// re-interning pass such as the sharded census merge
/// ([`crate::CompactAppReport::remap_in_place`],
/// [`crate::GlobalAppModel::remap_in_place`]).
///
/// A memo built for the source table ([`SymMemo::new`]) re-interns each
/// symbol at its first occurrence and answers every later one with an
/// array load. That assigns the same ids as re-interning every occurrence:
/// the destination table gives a string its id at the string's first
/// occurrence in either case, and a later occurrence of the same source
/// symbol can only get that id back. An empty memo ([`SymMemo::default`])
/// records nothing and re-interns every occurrence.
#[derive(Debug, Default)]
pub struct SymMemo(Vec<Option<Sym>>);

impl SymMemo {
    /// A memo with a slot for every symbol of `from`.
    pub fn new(from: &SymbolTable) -> Self {
        SymMemo(vec![None; from.len()])
    }

    /// `sym` of `from`, interned into `to`.
    pub(crate) fn map(&mut self, sym: Sym, from: &SymbolTable, to: &mut SymbolTable) -> Sym {
        match self.0.get_mut(sym.index()) {
            Some(Some(mapped)) => *mapped,
            Some(slot) => *slot.insert(to.intern(from.resolve(sym))),
            None => to.intern(from.resolve(sym)),
        }
    }
}

/// Deterministic: every symbol in id order. (A derived `Debug` would leak
/// the dedup `HashMap`'s arbitrary iteration order, making two identical
/// tables print differently — the determinism suites compare censuses via
/// `{:#?}`.)
impl std::fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for id in 0..self.spans.len() as u32 {
            map.entry(&id, &self.span_str(id));
        }
        map.finish()
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_and_resolves() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.arena_bytes(), "alphabeta".len());
    }

    #[test]
    fn lookup_never_inserts() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("ghost"), None);
        let a = t.intern("real");
        assert_eq!(t.lookup("real"), Some(a));
        assert_eq!(t.lookup("ghost"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_intern_order() {
        let mut t = SymbolTable::new();
        for (i, s) in ["a", "b", "c", "a", "d"].iter().enumerate() {
            let sym = t.intern(s);
            // "a" repeats: the fourth intern resolves to id 0.
            let expected = match i {
                3 => 0,
                4 => 3,
                n => n,
            };
            assert_eq!(sym.index(), expected);
        }
    }

    #[test]
    fn bucket_spills_inline_id_to_a_vec_on_collision() {
        // Real FNV-1a collisions are too rare to construct here; exercise
        // the spill path directly so a collision would still dedup right.
        let mut b = Bucket::One(3);
        assert_eq!(b.ids(), &[3]);
        b.push(7);
        assert_eq!(b.ids(), &[3, 7]);
        b.push(9);
        assert_eq!(b.ids(), &[3, 7, 9]);
    }

    #[test]
    fn strings_sharing_a_hash_intern_dedupe_and_resolve() {
        let mut t = SymbolTable::new();
        let a = t.intern_hashed(42, "alpha");
        let b = t.intern_hashed(42, "beta");
        assert_ne!(a, b);
        assert!(matches!(t.index.get(&42), Some(Bucket::Many(ids)) if ids == &[0, 1]));
        assert_eq!(t.intern_hashed(42, "beta"), b);
        assert_eq!(t.intern_hashed(42, "alpha"), a);
        assert_eq!(t.lookup_hashed(42, "alpha"), Some(a));
        assert_eq!(t.lookup_hashed(42, "beta"), Some(b));
        assert_eq!(t.lookup_hashed(42, "gamma"), None);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        // A third string on the same hash, then one on its own: ids stay
        // dense in intern order.
        let c = t.intern_hashed(42, "gamma");
        let d = t.intern("delta");
        assert_eq!([a, b, c, d].map(Sym::index), [0, 1, 2, 3]);
        assert_eq!(t.resolve(c), "gamma");
        assert_eq!(t.lookup("delta"), Some(d));
        assert_eq!(t.len(), 4);
        assert_eq!(t.arena_bytes(), "alphabetagammadelta".len());
    }

    #[test]
    fn a_presized_table_assigns_the_ids_of_a_new_one() {
        let input = ["web", "db", "web", "", "cache", "db", "café/π", "web"];
        let mut grown = SymbolTable::new();
        let mut presized = SymbolTable::with_capacity(2, 4);
        for s in input {
            assert_eq!(presized.intern(s), grown.intern(s));
        }
        assert_eq!(format!("{presized:?}"), format!("{grown:?}"));
        assert_eq!(presized.arena_bytes(), grown.arena_bytes());
    }

    #[test]
    fn memo_maps_each_symbol_once_and_an_empty_one_records_nothing() {
        let mut from = SymbolTable::new();
        let [x, y] = ["x", "y"].map(|s| from.intern(s));
        let mut to = SymbolTable::new();
        to.intern("salt");
        let mut memo = SymMemo::new(&from);
        assert_eq!(memo.map(y, &from, &mut to).index(), 1);
        assert_eq!(memo.map(x, &from, &mut to).index(), 2);
        assert_eq!(memo.map(y, &from, &mut to).index(), 1);
        assert_eq!(memo.0, [Some(Sym(2)), Some(Sym(1))]);
        let mut empty = SymMemo::default();
        assert_eq!(empty.map(x, &from, &mut to).index(), 2);
        assert!(empty.0.is_empty());
    }

    #[test]
    fn empty_and_unicode_strings_round_trip() {
        let mut t = SymbolTable::new();
        let empty = t.intern("");
        let uni = t.intern("café/π");
        assert_eq!(t.resolve(empty), "");
        assert_eq!(t.resolve(uni), "café/π");
        assert_eq!(t.intern(""), empty);
    }
}
