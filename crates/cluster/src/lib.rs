//! # ij-cluster — a deterministic in-memory Kubernetes cluster
//!
//! The paper's runtime analysis installs each chart into a fresh Minikube
//! cluster and inspects what the containers actually do. This crate provides
//! that substrate without a container runtime: a discrete, single-threaded
//! simulation of the control plane and data plane with exactly the
//! abstractions the analyzer observes.
//!
//! * **API server** — typed object store, one object per (kind, namespace,
//!   name), with a pluggable admission chain (the hook the `ij-guard`
//!   defense attaches to).
//! * **Controller manager** — expands workloads into pods (Deployments,
//!   StatefulSets, DaemonSets, ReplicaSets, Jobs).
//! * **Scheduler + IPAM** — places pods on nodes round-robin and assigns
//!   pod IPs from a flat `10.244.0.0/16` network and ClusterIPs from
//!   `10.96.0.0/16`, reusing released addresses once a pool is spent;
//!   hostNetwork pods take their node's IP.
//! * **Container runtime behaviour models** — each image resolves to a
//!   [`ContainerBehavior`] describing which sockets it *really* opens:
//!   declared ports, undeclared extras, ephemeral ports re-drawn on every
//!   start, loopback-only listeners, env-conditional listeners.
//! * **Endpoints controller + kube-proxy** — computes service endpoints by
//!   label selection (including named target-port resolution) and routes
//!   service traffic to backends.
//! * **CNI / NetworkPolicy engine** — default-allow flat network; additive
//!   allow-list policies; hostNetwork bypass — exactly the semantics that
//!   make M6/M7 dangerous.
//! * **Compiled policy index** — [`Cluster::policy_index`] caches a
//!   [`PolicyIndex`] (interned selectors, per-policy matched-pod bitsets,
//!   per-rule peer bitsets) behind a generation counter, so the probe hot
//!   path evaluates policies with integer ops; the naive [`PolicyEngine`]
//!   remains the property-tested oracle.
//! * **Dirty-set tracking** — every mutation records which release it
//!   touched in a bounded ring; [`Cluster::dirty_since`] summarizes the
//!   changes after an audit cursor so incremental consumers re-analyze only
//!   dirtied applications (and fall back to a full recompute when the ring
//!   overflows).
//!
//! Everything is reproducible from a single seed: ephemeral port draws are
//! the only randomness.

pub mod admission;
pub mod behavior;
pub mod cluster;
pub mod dirty;
pub mod index;
pub mod netpol;
pub mod node;
mod release_index;
mod slots;
mod splice;

pub use admission::{AdmissionController, AdmissionOutcome, AdmissionReview};
pub use behavior::{BehaviorRegistry, ContainerBehavior, ListenerSpec, PortSpec};
pub use cluster::{
    Cluster, ClusterConfig, ConnectOutcome, InstallError, OpenSocket, RunningPod,
    RELEASE_ANNOTATION,
};
pub use dirty::{DirtyEntry, DirtyScope, DirtySummary, DIRTY_LOG_CAP};
pub use index::{PodSet, PolicyIndex};
pub use netpol::{ConnectionVerdict, PolicyEngine};
pub use node::Node;
pub use slots::{Live, LiveIter};
pub use splice::splice_copied;
