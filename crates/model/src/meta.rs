//! Object metadata, labels, and label selectors.
//!
//! Labels are the glue of Kubernetes networking: services select pods by
//! label, network policies select pods by label, and — as the paper's M4
//! family shows — *colliding* labels silently rewire traffic. This module
//! implements the exact matching semantics of `metav1.LabelSelector`,
//! including set-based `matchExpressions`.

use crate::codec;
use crate::error::{Error, Result};
use ij_yaml::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered label set (`key → value`).
///
/// Ordering is lexicographic by key so that label sets compare and hash
/// deterministically — collision detection depends on that.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels(pub BTreeMap<String, String>);

impl Labels {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a label set from `(key, value)` pairs.
    pub fn from_pairs<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        Labels(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Inserts a label.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// Looks up a label value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// True when every label in `other` is present with the same value
    /// (i.e. `other ⊆ self`). This is the subset relation behind selector
    /// matching and the paper's M4C "compute unit subset collision".
    pub fn contains_all(&self, other: &Labels) -> bool {
        other
            .iter()
            .all(|(k, v)| self.get(k).is_some_and(|mine| mine == v))
    }

    /// Decodes from a YAML mapping.
    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<Labels> {
        Ok(Labels(codec::string_map(map, ctx)?.into_iter().collect()))
    }

    /// Encodes to a YAML mapping.
    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(self.0.len());
        for (k, v) in self.iter() {
            m.push_unchecked(k, Value::str(v));
        }
        Value::Map(m)
    }

    /// Appends the `Display` form (`k=v,...` in key order) to `out`, without
    /// going through the formatting machinery.
    pub fn write_rendered(&self, out: &mut String) {
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for Labels {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        Labels::from_pairs(iter)
    }
}

/// Standard object metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectMeta {
    /// Object name, unique per kind within a namespace.
    pub name: String,
    /// Namespace; `default` when unspecified, as in a real cluster.
    pub namespace: String,
    /// Identifying labels.
    pub labels: Labels,
    /// Non-identifying annotations.
    pub annotations: BTreeMap<String, String>,
}

impl ObjectMeta {
    /// Creates metadata with a name in the `default` namespace.
    pub fn named(name: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            namespace: "default".to_string(),
            labels: Labels::new(),
            annotations: BTreeMap::new(),
        }
    }

    /// Builder-style label attachment.
    pub fn with_labels(mut self, labels: Labels) -> Self {
        self.labels = labels;
        self
    }

    /// Builder-style namespace override.
    pub fn in_namespace(mut self, ns: impl Into<String>) -> Self {
        self.namespace = ns.into();
        self
    }

    /// `namespace/name`, the cluster-unique handle used throughout the
    /// simulator and analyzer.
    pub fn qualified_name(&self) -> String {
        let mut out = String::with_capacity(self.namespace.len() + 1 + self.name.len());
        self.write_qualified_name(&mut out);
        out
    }

    /// Appends [`ObjectMeta::qualified_name`] to `out`.
    pub fn write_qualified_name(&self, out: &mut String) {
        out.push_str(&self.namespace);
        out.push('/');
        out.push_str(&self.name);
    }

    pub(crate) fn decode(map: &Map) -> Result<ObjectMeta> {
        let meta = codec::opt_map(map, "metadata", "object")?
            .ok_or_else(|| Error::malformed("missing `metadata`"))?;
        let name = codec::req_str(meta, "name", "metadata")?;
        let namespace =
            codec::opt_str(meta, "namespace", "metadata")?.unwrap_or_else(|| "default".to_string());
        let labels = match codec::opt_map(meta, "labels", "metadata")? {
            Some(m) => Labels::decode(m, "metadata.labels")?,
            None => Labels::new(),
        };
        let annotations = match codec::opt_map(meta, "annotations", "metadata")? {
            Some(m) => codec::string_map(m, "metadata.annotations")?
                .into_iter()
                .collect(),
            None => BTreeMap::new(),
        };
        Ok(ObjectMeta {
            name,
            namespace,
            labels,
            annotations,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(4);
        m.push_unchecked("name", Value::str(&self.name));
        if self.namespace != "default" {
            m.push_unchecked("namespace", Value::str(&self.namespace));
        }
        if !self.labels.is_empty() {
            m.push_unchecked("labels", self.labels.encode());
        }
        if !self.annotations.is_empty() {
            let mut a = Map::with_capacity(self.annotations.len());
            for (k, v) in &self.annotations {
                a.push_unchecked(k.clone(), Value::str(v));
            }
            m.push_unchecked("annotations", Value::Map(a));
        }
        Value::Map(m)
    }
}

/// Operator of a set-based selector requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorOp {
    /// Label value must be in the given set.
    In,
    /// Label value must not be in the given set (absent keys match).
    NotIn,
    /// Label key must exist.
    Exists,
    /// Label key must not exist.
    DoesNotExist,
}

/// One `matchExpressions` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorRequirement {
    /// Label key the requirement applies to.
    pub key: String,
    /// Matching operator.
    pub op: SelectorOp,
    /// Candidate values for `In` / `NotIn`.
    pub values: Vec<String>,
}

impl SelectorRequirement {
    fn matches(&self, labels: &Labels) -> bool {
        let v = labels.get(&self.key);
        match self.op {
            SelectorOp::In => v.is_some_and(|v| self.values.iter().any(|c| c == v)),
            SelectorOp::NotIn => !v.is_some_and(|v| self.values.iter().any(|c| c == v)),
            SelectorOp::Exists => v.is_some(),
            SelectorOp::DoesNotExist => v.is_none(),
        }
    }
}

/// A `metav1.LabelSelector`: the conjunction of `matchLabels` and all
/// `matchExpressions`. An *empty* selector selects everything — the footgun
/// behind over-broad NetworkPolicies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelSelector {
    /// Equality requirements.
    pub match_labels: Labels,
    /// Set-based requirements.
    pub match_expressions: Vec<SelectorRequirement>,
}

impl LabelSelector {
    /// Selector matching everything (empty).
    pub fn everything() -> Self {
        Self::default()
    }

    /// Equality-only selector from pairs.
    pub fn from_labels(labels: Labels) -> Self {
        LabelSelector {
            match_labels: labels,
            ..Default::default()
        }
    }

    /// True when the selector has no requirements at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.match_labels.is_empty() && self.match_expressions.is_empty()
    }

    /// Evaluates the selector against a label set.
    pub fn matches(&self, labels: &Labels) -> bool {
        labels.contains_all(&self.match_labels)
            && self.match_expressions.iter().all(|r| r.matches(labels))
    }

    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<LabelSelector> {
        let match_labels = match codec::opt_map(map, "matchLabels", ctx)? {
            Some(m) => Labels::decode(m, &format!("{ctx}.matchLabels"))?,
            None => Labels::new(),
        };
        let mut match_expressions = Vec::new();
        for (i, e) in codec::opt_seq(map, "matchExpressions", ctx)?
            .iter()
            .enumerate()
        {
            let ectx = format!("{ctx}.matchExpressions[{i}]");
            let em = codec::as_map(e, &ectx)?;
            let key = codec::req_str(em, "key", &ectx)?;
            let op = match codec::req_str(em, "operator", &ectx)?.as_str() {
                "In" => SelectorOp::In,
                "NotIn" => SelectorOp::NotIn,
                "Exists" => SelectorOp::Exists,
                "DoesNotExist" => SelectorOp::DoesNotExist,
                other => {
                    return Err(Error::malformed(format!(
                        "{ectx}.operator: unknown operator `{other}`"
                    )))
                }
            };
            let values = codec::opt_seq(em, "values", &ectx)?
                .iter()
                .map(|v| v.render_scalar())
                .collect();
            match_expressions.push(SelectorRequirement { key, op, values });
        }
        Ok(LabelSelector {
            match_labels,
            match_expressions,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(2);
        if !self.match_labels.is_empty() {
            m.push_unchecked("matchLabels", self.match_labels.encode());
        }
        if !self.match_expressions.is_empty() {
            let exprs = self
                .match_expressions
                .iter()
                .map(|r| {
                    let mut e = Map::with_capacity(3);
                    e.push_unchecked("key", Value::str(&r.key));
                    e.push_unchecked(
                        "operator",
                        Value::str(match r.op {
                            SelectorOp::In => "In",
                            SelectorOp::NotIn => "NotIn",
                            SelectorOp::Exists => "Exists",
                            SelectorOp::DoesNotExist => "DoesNotExist",
                        }),
                    );
                    if !r.values.is_empty() {
                        e.push_unchecked(
                            "values",
                            Value::Seq(r.values.iter().map(Value::str).collect()),
                        );
                    }
                    Value::Map(e)
                })
                .collect();
            m.push_unchecked("matchExpressions", Value::Seq(exprs));
        }
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn contains_all_is_subset() {
        let pod = labels(&[("app", "web"), ("tier", "front")]);
        assert!(pod.contains_all(&labels(&[("app", "web")])));
        assert!(pod.contains_all(&labels(&[])));
        assert!(!pod.contains_all(&labels(&[("app", "db")])));
        assert!(!pod.contains_all(&labels(&[("app", "web"), ("x", "y")])));
    }

    #[test]
    fn empty_selector_matches_everything() {
        let sel = LabelSelector::everything();
        assert!(sel.matches(&labels(&[])));
        assert!(sel.matches(&labels(&[("a", "b")])));
    }

    #[test]
    fn match_labels_conjunction() {
        let sel = LabelSelector::from_labels(labels(&[("app", "web"), ("tier", "front")]));
        assert!(sel.matches(&labels(&[
            ("app", "web"),
            ("tier", "front"),
            ("extra", "1")
        ])));
        assert!(!sel.matches(&labels(&[("app", "web")])));
    }

    #[test]
    fn match_expressions_semantics() {
        let sel = LabelSelector {
            match_labels: Labels::new(),
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
        assert!(sel.matches(&labels(&[("env", "prod")])));
        assert!(!sel.matches(&labels(&[("env", "dev")])));
        assert!(!sel.matches(&labels(&[("env", "prod"), ("canary", "true")])));
        // NotIn matches when the key is absent.
        let notin = LabelSelector {
            match_labels: Labels::new(),
            match_expressions: vec![SelectorRequirement {
                key: "env".into(),
                op: SelectorOp::NotIn,
                values: vec!["prod".into()],
            }],
        };
        assert!(notin.matches(&labels(&[])));
        assert!(!notin.matches(&labels(&[("env", "prod")])));
    }

    #[test]
    fn selector_decode_encode_round_trip() {
        let src = "\
matchLabels:
  app: web
matchExpressions:
  - key: env
    operator: In
    values:
      - prod
";
        let v = ij_yaml::parse(src).unwrap();
        let sel = LabelSelector::decode(v.as_map().unwrap(), "selector").unwrap();
        assert!(sel.matches(&labels(&[("app", "web"), ("env", "prod")])));
        let re = LabelSelector::decode(sel.encode().as_map().unwrap(), "selector").unwrap();
        assert_eq!(sel, re);
    }

    #[test]
    fn qualified_name() {
        let m = ObjectMeta::named("web").in_namespace("monitoring");
        assert_eq!(m.qualified_name(), "monitoring/web");
        let mut out = String::from("kept|");
        m.write_qualified_name(&mut out);
        assert_eq!(out, "kept|monitoring/web");
    }

    #[test]
    fn labels_display_sorted() {
        let l = labels(&[("b", "2"), ("a", "1")]);
        assert_eq!(l.to_string(), "a=1,b=2");
        for l in [
            l,
            labels(&[]),
            labels(&[("app.kubernetes.io/name", "x=y,z")]),
        ] {
            let mut out = String::from("kept|");
            l.write_rendered(&mut out);
            assert_eq!(out, format!("kept|{l}"));
        }
    }
}
