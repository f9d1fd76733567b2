//! # ij-model — the Kubernetes object model
//!
//! Typed representations of the Kubernetes resources that matter for
//! cluster-internal networking: pods and their containers, the workload
//! ("compute unit") kinds that template pods, services, endpoints, network
//! policies, and namespaces — together with the label/selector machinery that
//! binds them to each other.
//!
//! Objects decode from and encode to the YAML subset in [`ij_yaml`], so a
//! rendered Helm chart becomes a `Vec<Object>` and any object can be printed
//! back as a manifest.
//!
//! The terminology follows the paper: a **compute unit** is any workload
//! resource that owns a pod template (Deployment, StatefulSet, DaemonSet,
//! ReplicaSet, Job) or a bare Pod.

mod codec;
mod endpoints;
mod error;
mod intern;
mod meta;
mod netpol;
mod object;
mod pod;
mod service;
mod workload;

pub use endpoints::{EndpointAddress, Endpoints};
pub use error::{Error, Result};
pub use intern::{KeyId, LabelId, LabelInterner, LabelSet, SelectorMatcher};
pub use meta::{LabelSelector, Labels, ObjectMeta, SelectorOp, SelectorRequirement};
pub use netpol::{
    IpBlock, NetworkPolicy, NetworkPolicyPeer, NetworkPolicyRule, NetworkPolicySpec, PolicyPort,
    PolicyPortRef, PolicyType,
};
pub use object::{decode_manifest, decode_manifests, Object};
pub use pod::{Container, ContainerPort, EnvVar, Pod, PodSpec, Protocol};
pub use service::{Service, ServicePort, ServiceSpec, ServiceType, TargetPort};
pub use workload::{PodTemplate, Workload, WorkloadKind};
