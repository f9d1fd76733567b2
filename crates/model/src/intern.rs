//! Interned labels and compiled selectors.
//!
//! Label matching is the innermost loop of every reachability question the
//! paper asks: policies select pods by label, peers select pods by label,
//! and the census evaluates those selectors over every (policy, pod) pair.
//! Doing that with string maps means re-hashing the same keys and values on
//! every probe. This module interns each distinct label key and `(key,
//! value)` pair once into dense integer ids, so a label set becomes a sorted
//! id vector and selector evaluation becomes integer merges — no string
//! comparison on the hot path.
//!
//! The compiled forms are *semantically identical* to the string-based
//! [`LabelSelector::matches`] (property-tested in `tests/prop.rs`); the
//! naive path stays around as the oracle.

use crate::meta::{LabelSelector, Labels, SelectorOp};
use std::collections::HashMap;

/// Dense id of an interned label key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(u32);

/// Dense id of an interned `(key, value)` label pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

/// Intern table for label keys and `(key, value)` pairs.
///
/// Ids are assigned in first-seen order; the table only grows. Two strings
/// intern to the same id iff they are equal, so id equality is string
/// equality and sorted-id containment is label-set containment.
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    keys: HashMap<String, KeyId>,
    pairs: HashMap<(KeyId, String), LabelId>,
}

impl LabelInterner {
    /// An empty intern table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a label key.
    pub fn key(&mut self, key: &str) -> KeyId {
        if let Some(&id) = self.keys.get(key) {
            return id;
        }
        let id = KeyId(u32::try_from(self.keys.len()).expect("fewer than 2^32 label keys"));
        self.keys.insert(key.to_string(), id);
        id
    }

    /// Interns a `(key, value)` pair.
    pub fn pair(&mut self, key: &str, value: &str) -> LabelId {
        let key_id = self.key(key);
        if let Some(&id) = self.pairs.get(&(key_id, value.to_string())) {
            return id;
        }
        let id = LabelId(u32::try_from(self.pairs.len()).expect("fewer than 2^32 label pairs"));
        self.pairs.insert((key_id, value.to_string()), id);
        id
    }

    /// Looks a key up without interning it: `None` when the key has never
    /// been interned. Rule-pack evaluation uses this to turn a unit's label
    /// strings into id probes against a table frozen at compile time.
    pub fn lookup_key(&self, key: &str) -> Option<KeyId> {
        self.keys.get(key).copied()
    }

    /// Looks a `(key, value)` pair up without interning it.
    pub fn lookup_pair(&self, key: &str, value: &str) -> Option<LabelId> {
        let key_id = self.lookup_key(key)?;
        self.pairs.get(&(key_id, value.to_string())).copied()
    }

    /// Interns a whole label set into its compiled form.
    pub fn intern(&mut self, labels: &Labels) -> LabelSet {
        let mut pairs = Vec::with_capacity(labels.len());
        let mut keys = Vec::with_capacity(labels.len());
        for (k, v) in labels.iter() {
            keys.push(self.key(k));
            pairs.push(self.pair(k, v));
        }
        pairs.sort_unstable();
        keys.sort_unstable();
        LabelSet { pairs, keys }
    }
}

/// A label set in interned form: sorted pair ids plus sorted key ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelSet {
    pairs: Vec<LabelId>,
    keys: Vec<KeyId>,
}

impl LabelSet {
    /// True when the `(key, value)` pair is present.
    pub(crate) fn contains_pair(&self, id: LabelId) -> bool {
        self.pairs.binary_search(&id).is_ok()
    }

    /// True when the key is present (with any value).
    pub(crate) fn contains_key(&self, id: KeyId) -> bool {
        self.keys.binary_search(&id).is_ok()
    }

    /// True when every pair in `required` (sorted ascending) is present —
    /// the interned form of [`Labels::contains_all`], as a linear merge
    /// over two sorted id vectors.
    pub(crate) fn contains_all(&self, required: &[LabelId]) -> bool {
        let mut mine = self.pairs.iter();
        'outer: for want in required {
            for have in mine.by_ref() {
                match have.cmp(want) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

/// One compiled `matchExpressions` requirement. `In`/`NotIn` are
/// pre-resolved to the pair ids of their candidate values: a label set
/// satisfies `In` iff it contains one of those pairs (a key maps to at most
/// one value, so pair containment *is* value membership).
#[derive(Debug, Clone)]
enum CompiledRequirement {
    /// Key's value must be one of the candidate pairs (sorted).
    In { pairs: Vec<LabelId> },
    /// Key's value must not be any of the candidate pairs (absent key ok).
    NotIn { pairs: Vec<LabelId> },
    /// Key must be present.
    Exists(KeyId),
    /// Key must be absent.
    DoesNotExist(KeyId),
}

impl CompiledRequirement {
    fn matches(&self, set: &LabelSet) -> bool {
        match self {
            CompiledRequirement::In { pairs } => pairs.iter().any(|&p| set.contains_pair(p)),
            CompiledRequirement::NotIn { pairs } => !pairs.iter().any(|&p| set.contains_pair(p)),
            CompiledRequirement::Exists(key) => set.contains_key(*key),
            CompiledRequirement::DoesNotExist(key) => !set.contains_key(*key),
        }
    }
}

/// A [`LabelSelector`] compiled against an intern table: `matchLabels`
/// becomes a sorted pair-id subset test and every `matchExpressions` entry
/// a compiled requirement. Evaluation never touches a string.
#[derive(Debug, Clone, Default)]
pub struct SelectorMatcher {
    equality: Vec<LabelId>,
    requirements: Vec<CompiledRequirement>,
}

impl SelectorMatcher {
    /// Compiles a selector, interning every key and value it mentions.
    pub fn compile(selector: &LabelSelector, interner: &mut LabelInterner) -> Self {
        let mut equality: Vec<LabelId> = selector
            .match_labels
            .iter()
            .map(|(k, v)| interner.pair(k, v))
            .collect();
        equality.sort_unstable();
        let requirements = selector
            .match_expressions
            .iter()
            .map(|req| {
                let key = interner.key(&req.key);
                let mut pairs: Vec<LabelId> = req
                    .values
                    .iter()
                    .map(|v| interner.pair(&req.key, v))
                    .collect();
                pairs.sort_unstable();
                match req.op {
                    SelectorOp::In => CompiledRequirement::In { pairs },
                    SelectorOp::NotIn => CompiledRequirement::NotIn { pairs },
                    SelectorOp::Exists => CompiledRequirement::Exists(key),
                    SelectorOp::DoesNotExist => CompiledRequirement::DoesNotExist(key),
                }
            })
            .collect();
        SelectorMatcher {
            equality,
            requirements,
        }
    }

    /// Evaluates the compiled selector against an interned label set. Equal
    /// to [`LabelSelector::matches`] on the corresponding string sets.
    pub fn matches(&self, set: &LabelSet) -> bool {
        set.contains_all(&self.equality) && self.requirements.iter().all(|r| r.matches(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SelectorRequirement;

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn interning_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.pair("app", "web");
        let b = interner.pair("app", "web");
        assert_eq!(a, b);
        assert_ne!(interner.pair("app", "db"), a);
        assert_eq!(interner.key("app"), interner.key("app"));
        assert_eq!(interner.keys.len(), 1);
        assert_eq!(interner.pairs.len(), 2);
    }

    #[test]
    fn lookup_never_interns() {
        let mut interner = LabelInterner::new();
        let pair = interner.pair("app", "web");
        let key = interner.lookup_key("app").expect("interned");
        assert_eq!(interner.lookup_pair("app", "web"), Some(pair));
        assert_eq!(interner.pair("app", "web"), pair);
        assert_eq!(interner.key("app"), key);
        assert_eq!(interner.lookup_key("tier"), None);
        assert_eq!(interner.lookup_pair("app", "db"), None);
        assert_eq!(interner.lookup_pair("tier", "front"), None);
        assert_eq!(interner.keys.len(), 1, "lookups must not grow the table");
        assert_eq!(interner.pairs.len(), 1);
    }

    #[test]
    fn contains_all_matches_string_semantics() {
        let mut interner = LabelInterner::new();
        let set = interner.intern(&labels(&[("app", "web"), ("tier", "front")]));
        let want_app = vec![interner.pair("app", "web")];
        let mut want_both = vec![interner.pair("tier", "front"), interner.pair("app", "web")];
        want_both.sort_unstable();
        let want_miss = vec![interner.pair("app", "db")];
        assert!(set.contains_all(&[]));
        assert!(set.contains_all(&want_app));
        assert!(set.contains_all(&want_both));
        assert!(!set.contains_all(&want_miss));
    }

    #[test]
    fn compiled_selector_equals_naive_on_expressions() {
        let selector = LabelSelector {
            match_labels: labels(&[("app", "web")]),
            match_expressions: vec![
                SelectorRequirement {
                    key: "env".into(),
                    op: SelectorOp::In,
                    values: vec!["prod".into(), "staging".into()],
                },
                SelectorRequirement {
                    key: "canary".into(),
                    op: SelectorOp::DoesNotExist,
                    values: vec![],
                },
            ],
        };
        let mut interner = LabelInterner::new();
        let matcher = SelectorMatcher::compile(&selector, &mut interner);
        for candidate in [
            labels(&[("app", "web"), ("env", "prod")]),
            labels(&[("app", "web"), ("env", "dev")]),
            labels(&[("app", "web"), ("env", "prod"), ("canary", "true")]),
            labels(&[("env", "prod")]),
            labels(&[]),
        ] {
            let set = interner.intern(&candidate);
            assert_eq!(
                matcher.matches(&set),
                selector.matches(&candidate),
                "diverged on {candidate}"
            );
        }
    }

    #[test]
    fn empty_selector_matches_everything() {
        let mut interner = LabelInterner::new();
        let matcher = SelectorMatcher::compile(&LabelSelector::everything(), &mut interner);
        assert!(matcher.matches(&interner.intern(&labels(&[("a", "b")]))));
        assert!(matcher.matches(&LabelSet::default()));
    }

    #[test]
    fn not_in_matches_absent_key() {
        let selector = LabelSelector {
            match_labels: Labels::new(),
            match_expressions: vec![SelectorRequirement {
                key: "env".into(),
                op: SelectorOp::NotIn,
                values: vec!["prod".into()],
            }],
        };
        let mut interner = LabelInterner::new();
        let matcher = SelectorMatcher::compile(&selector, &mut interner);
        assert!(matcher.matches(&interner.intern(&labels(&[]))));
        assert!(matcher.matches(&interner.intern(&labels(&[("env", "dev")]))));
        assert!(!matcher.matches(&interner.intern(&labels(&[("env", "prod")]))));
    }
}
