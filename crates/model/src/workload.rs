//! Workload resources ("compute units"): the objects that template pods.

use crate::codec;
use crate::error::{Error, Result};
use crate::meta::{LabelSelector, Labels, ObjectMeta};
use crate::pod::PodSpec;
use ij_yaml::{Map, Value};
use std::fmt;

/// The workload kinds the simulator reconciles into pods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadKind {
    /// Stateless replicated workload.
    Deployment,
    /// Ordered, stable-identity replicated workload.
    StatefulSet,
    /// One pod per node.
    DaemonSet,
    /// Low-level replica controller (normally owned by a Deployment).
    ReplicaSet,
    /// Run-to-completion workload.
    Job,
}

impl WorkloadKind {
    /// Kubernetes `kind` spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkloadKind::Deployment => "Deployment",
            WorkloadKind::StatefulSet => "StatefulSet",
            WorkloadKind::DaemonSet => "DaemonSet",
            WorkloadKind::ReplicaSet => "ReplicaSet",
            WorkloadKind::Job => "Job",
        }
    }

    /// Parses a `kind` field; `None` for non-workload kinds.
    pub(crate) fn from_kind(kind: &str) -> Option<WorkloadKind> {
        Some(match kind {
            "Deployment" => WorkloadKind::Deployment,
            "StatefulSet" => WorkloadKind::StatefulSet,
            "DaemonSet" => WorkloadKind::DaemonSet,
            "ReplicaSet" => WorkloadKind::ReplicaSet,
            "Job" => WorkloadKind::Job,
            _ => return None,
        })
    }

    /// `apiVersion` the kind is served under.
    pub(crate) fn api_version(&self) -> &'static str {
        match self {
            WorkloadKind::Job => "batch/v1",
            _ => "apps/v1",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The pod template embedded in a workload spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PodTemplate {
    /// Labels stamped onto every pod the workload creates. These are what
    /// services and policies select — and what collides in M4.
    pub labels: Labels,
    /// The pod specification to instantiate.
    pub spec: PodSpec,
}

/// A workload resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Which controller owns this shape of workload.
    pub kind: WorkloadKind,
    /// Metadata of the workload object itself.
    pub meta: ObjectMeta,
    /// Desired replica count (`1` for DaemonSet/Job semantics here; the
    /// simulator expands DaemonSets to one pod per node regardless).
    pub replicas: u32,
    /// Selector that must match the template labels.
    pub selector: LabelSelector,
    /// The pod template.
    pub template: PodTemplate,
}

impl Workload {
    /// Creates a single-replica Deployment whose selector equals its
    /// template labels — the common well-formed case.
    pub fn deployment(meta: ObjectMeta, labels: Labels, spec: PodSpec) -> Self {
        Workload {
            kind: WorkloadKind::Deployment,
            meta,
            replicas: 1,
            selector: LabelSelector::from_labels(labels.clone()),
            template: PodTemplate { labels, spec },
        }
    }

    /// Builder-style kind override.
    pub fn with_kind(mut self, kind: WorkloadKind) -> Self {
        self.kind = kind;
        self
    }

    pub(crate) fn decode(kind: WorkloadKind, root: &Map) -> Result<Workload> {
        let meta = ObjectMeta::decode(root)?;
        let spec = codec::opt_map(root, "spec", "workload")?
            .ok_or_else(|| Error::malformed("missing workload `spec`"))?;
        let replicas = codec::opt_int(spec, "replicas", "spec")?
            .unwrap_or(1)
            .max(0) as u32;
        let selector = match codec::opt_map(spec, "selector", "spec")? {
            Some(m) => LabelSelector::decode(m, "spec.selector")?,
            None => LabelSelector::everything(),
        };
        let template = codec::opt_map(spec, "template", "spec")?
            .ok_or_else(|| Error::malformed("missing `spec.template`"))?;
        let tpl_labels = match codec::opt_map(template, "metadata", "spec.template")? {
            Some(tm) => match codec::opt_map(tm, "labels", "spec.template.metadata")? {
                Some(lm) => Labels::decode(lm, "spec.template.metadata.labels")?,
                None => Labels::new(),
            },
            None => Labels::new(),
        };
        let pod_spec = match codec::opt_map(template, "spec", "spec.template")? {
            Some(m) => PodSpec::decode(m, "spec.template.spec")?,
            None => PodSpec::default(),
        };
        Ok(Workload {
            kind,
            meta,
            replicas,
            selector,
            template: PodTemplate {
                labels: tpl_labels,
                spec: pod_spec,
            },
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut tpl_meta = Map::with_capacity(1);
        if !self.template.labels.is_empty() {
            tpl_meta.push_unchecked("labels", self.template.labels.encode());
        }
        let mut tpl = Map::with_capacity(2);
        tpl.push_unchecked("metadata", Value::Map(tpl_meta));
        tpl.push_unchecked("spec", self.template.spec.encode());

        let mut spec = Map::with_capacity(3);
        if self.kind != WorkloadKind::DaemonSet && self.kind != WorkloadKind::Job {
            spec.push_unchecked("replicas", Value::Int(self.replicas as i64));
        }
        if !self.selector.is_empty() {
            spec.push_unchecked("selector", self.selector.encode());
        }
        spec.push_unchecked("template", Value::Map(tpl));

        let mut m = Map::with_capacity(4);
        m.push_unchecked("apiVersion", Value::str(self.kind.api_version()));
        m.push_unchecked("kind", Value::str(self.kind.as_str()));
        m.push_unchecked("metadata", self.meta.encode());
        m.push_unchecked("spec", Value::Map(spec));
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::{Container, ContainerPort};

    #[test]
    fn decode_deployment() {
        let src = "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 3
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
        - name: web
          image: nginx
          ports:
            - containerPort: 80
";
        let v = ij_yaml::parse(src).unwrap();
        let w = Workload::decode(WorkloadKind::Deployment, v.as_map().unwrap()).unwrap();
        assert_eq!(w.replicas, 3);
        assert!(w.selector.matches(&w.template.labels));
        assert_eq!(w.template.spec.containers[0].ports[0].container_port, 80);
    }

    #[test]
    fn mismatched_selector_detected() {
        let mut w = Workload::deployment(
            ObjectMeta::named("web"),
            Labels::from_pairs([("app", "web")]),
            PodSpec::default(),
        );
        w.selector = LabelSelector::from_labels(Labels::from_pairs([("app", "other")]));
        assert!(!w.selector.matches(&w.template.labels));
    }

    #[test]
    fn encode_round_trip() {
        let w = Workload::deployment(
            ObjectMeta::named("exporter").in_namespace("monitoring"),
            Labels::from_pairs([("app.kubernetes.io/name", "node-exporter")]),
            PodSpec {
                containers: vec![Container::new("exporter", "prom/node-exporter")
                    .with_ports(vec![ContainerPort::named("metrics", 9100)])],
                host_network: true,
                node_name: None,
            },
        )
        .with_kind(WorkloadKind::DaemonSet);
        let v = w.encode();
        let back = Workload::decode(WorkloadKind::DaemonSet, v.as_map().unwrap()).unwrap();
        assert_eq!(back.meta, w.meta);
        assert_eq!(back.template, w.template);
        assert_eq!(back.selector, w.selector);
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(
            WorkloadKind::from_kind("StatefulSet"),
            Some(WorkloadKind::StatefulSet)
        );
        assert_eq!(WorkloadKind::from_kind("Service"), None);
        assert_eq!(WorkloadKind::Job.api_version(), "batch/v1");
    }
}
