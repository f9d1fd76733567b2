//! The in-memory representation of a parsed YAML document.

use std::fmt;

/// An order-preserving string-keyed map.
///
/// Kubernetes manifests rely on field order only for readability, but
/// preserving it keeps emitted documents diffable against their source and
/// makes duplicate-key detection deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `capacity` entries, so builders
    /// that know the final shape up front avoid growth reallocations.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a key, replacing any existing value under the same key while
    /// keeping the original position.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Appends an entry without scanning for an existing key.
    ///
    /// `insert`'s replace-in-place semantics cost a linear scan per call,
    /// which is pure overhead for builders that construct a map from a known
    /// set of distinct keys (template evaluation roots, object encoders,
    /// generator specs). Callers must guarantee the key is not already
    /// present; debug builds verify and panic, release builds skip the scan
    /// entirely.
    pub fn push_unchecked(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        debug_assert!(
            !self.contains_key(&key),
            "push_unchecked: duplicate key {key:?}"
        );
        self.entries.push((key, value));
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// True when the key exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Deep-merges `other` into `self`: nested maps merge recursively, any
    /// other value kind from `other` replaces the existing entry. This is the
    /// merge rule Helm applies when overlaying user values onto chart
    /// defaults.
    pub fn deep_merge(&mut self, other: &Map) {
        for (k, v) in other.iter() {
            match (self.get_mut(k), v) {
                (Some(Value::Map(dst)), Value::Map(src)) => dst.deep_merge(src),
                _ => self.insert(k, v.clone()),
            }
        }
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A YAML value in the supported subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`, `~`, or an empty scalar position.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer scalar.
    Int(i64),
    /// A floating-point scalar.
    Float(f64),
    /// Any other scalar, including quoted strings.
    Str(String),
    /// A block or flow sequence.
    Seq(Vec<Value>),
    /// A block or flow mapping with string keys.
    Map(Map),
}

impl Value {
    /// Returns the string content of a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns an integer, converting from `Int` only.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the sequence items.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map.
    pub fn as_map(&self) -> Option<&Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Map-key lookup; `None` on non-maps.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Walks a path of map keys and (decimal) sequence indices.
    ///
    /// ```
    /// # use ij_yaml::{parse, Value};
    /// let v = parse("a:\n  - x: 1\n").unwrap();
    /// assert_eq!(v.path(&["a", "0", "x"]).and_then(Value::as_int), Some(1));
    /// ```
    pub fn path(&self, segments: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for seg in segments {
            cur = match cur {
                Value::Map(m) => m.get(seg)?,
                Value::Seq(s) => s.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Helm-style truthiness: `null`, `false`, `0`, `0.0`, `""`, empty
    /// sequences, and empty maps are falsy; everything else is truthy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Seq(s) => !s.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Renders the value as the scalar string Helm would interpolate.
    pub fn render_scalar(&self) -> String {
        match self {
            // Fast path: `write_scalar` would copy the string anyway, and
            // callers of `render_scalar` on `Str` expect an owned clone.
            Value::Str(s) => s.clone(),
            _ => {
                let mut out = String::new();
                self.write_scalar(&mut out);
                out
            }
        }
    }

    /// Appends the scalar rendering of [`render_scalar`](Self::render_scalar)
    /// to `out` without allocating an intermediate `String` for string
    /// values — the zero-copy interpolation path of template engines.
    pub fn write_scalar(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => out.push_str(&format_float(*f)),
            Value::Str(s) => out.push_str(s),
            Value::Seq(_) | Value::Map(_) => out.push_str(crate::to_string(self).trim_end()),
        }
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_scalar())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u16> for Value {
    fn from(i: u16) -> Self {
        Value::Int(i as i64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Seq(v)
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Map(m)
    }
}

pub(crate) fn format_float(f: f64) -> String {
    let mut out = String::new();
    write_float(&mut out, f);
    out
}

/// Appends [`format_float`]'s rendering to `out` without an intermediate
/// allocation; shared by the emitter's write-through scalar path.
pub(crate) fn write_float(out: &mut String, f: f64) {
    use std::fmt::Write as _;
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Builds a [`Map`] from `(key, value)` pairs; mostly used by tests and the
/// dataset generators.
#[macro_export]
macro_rules! ymap {
    ($($k:expr => $v:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($k, $crate::Value::from($v)); )*
        $crate::Value::Map(m)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("a", Value::Int(1));
        m.insert("b", Value::Int(2));
        m.insert("a", Value::Int(3));
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::Int(3)));
    }

    #[test]
    fn push_unchecked_appends_in_order() {
        let mut m = Map::with_capacity(3);
        m.push_unchecked("a", Value::Int(1));
        m.push_unchecked("b", Value::Int(2));
        m.push_unchecked("c", Value::Int(3));
        assert_eq!(
            m.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert_eq!(m.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    #[cfg(debug_assertions)]
    fn push_unchecked_catches_duplicates_in_debug() {
        let mut m = Map::new();
        m.push_unchecked("a", Value::Int(1));
        m.push_unchecked("a", Value::Int(2));
    }

    #[test]
    fn deep_merge_overlays_nested_maps() {
        let mut base = Map::new();
        let mut inner = Map::new();
        inner.insert("port", Value::Int(80));
        inner.insert("enabled", Value::Bool(false));
        base.insert("service", Value::Map(inner));

        let mut overlay = Map::new();
        let mut inner2 = Map::new();
        inner2.insert("enabled", Value::Bool(true));
        overlay.insert("service", Value::Map(inner2));

        base.deep_merge(&overlay);
        let svc = base.get("service").unwrap().as_map().unwrap();
        assert_eq!(svc.get("port"), Some(&Value::Int(80)));
        assert_eq!(svc.get("enabled"), Some(&Value::Bool(true)));
    }

    #[test]
    fn truthiness_matches_helm_semantics() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::Seq(vec![]).truthy());
        assert!(Value::Int(1).truthy());
        assert!(Value::str("x").truthy());
    }

    #[test]
    fn path_walks_maps_and_sequences() {
        let v = ymap! {
            "spec" => ymap! {
                "ports" => Value::Seq(vec![ymap! {"port" => 80i64}]),
            },
        };
        assert_eq!(
            v.path(&["spec", "ports", "0", "port"])
                .and_then(Value::as_int),
            Some(80)
        );
        assert_eq!(v.path(&["spec", "missing"]), None);
        assert_eq!(v.path(&["spec", "ports", "9"]), None);
    }

    #[test]
    fn render_scalar_formats() {
        assert_eq!(Value::Int(8080).render_scalar(), "8080");
        assert_eq!(Value::Bool(true).render_scalar(), "true");
        assert_eq!(Value::Float(1.5).render_scalar(), "1.5");
        assert_eq!(Value::Float(2.0).render_scalar(), "2.0");
        assert_eq!(Value::Null.render_scalar(), "");
    }
}
