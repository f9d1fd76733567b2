//! The batch reachability matrix: every (source, destination, socket)
//! verdict in one pass over the compiled policy index.
//!
//! The per-pair probe (`Cluster::connect` in a loop) answers the paper's
//! §4.3.2 question one connection at a time; for a census that is
//! O(pods² × sockets) policy evaluations. [`ReachMatrix`] instead walks
//! each destination socket once, asks the cluster's cached
//! [`PolicyIndex`](ij_cluster::PolicyIndex) for the whole *column* of
//! allowed sources ([`PolicyIndex::allowed_sources`]), and stores it as a
//! bitset — after which every reachability query is a bit probe.
//!
//! The matrix is a snapshot: it answers for the cluster state at
//! [`ReachMatrix::compute`] time. Results are bit-for-bit identical to the
//! sequential per-pair probe (property-tested in `tests/prop_reach.rs`).

use crate::reach::ReachableEndpoint;
use ij_cluster::{Cluster, PodSet, PolicyIndex};
use ij_model::Protocol;
use std::sync::Arc;

/// One destination pod's row: its probeable sockets and, per socket, the
/// sources allowed by policy to connect.
#[derive(Debug, Clone)]
struct TargetRow {
    /// Non-loopback sockets in the pod's (sorted) socket order.
    sockets: Vec<(u16, Protocol)>,
    /// Per socket: bit `i` set iff pod `i` may connect.
    allowed: Vec<PodSet>,
}

/// The full src × dst × socket reachability of a cluster snapshot.
#[derive(Debug, Clone)]
pub struct ReachMatrix {
    /// The index snapshot the matrix was computed over; also serves the
    /// pod name ↔ index tables (same [`Cluster::pods`] order).
    index: Arc<PolicyIndex>,
    rows: Vec<TargetRow>,
}

impl ReachMatrix {
    /// Computes the matrix for the cluster's current state, sharing the
    /// cluster's cached policy index (one compilation per generation, no
    /// matter how many matrices or probes are taken from it).
    pub fn compute(cluster: &Cluster) -> Self {
        let index = cluster.policy_index();
        let pods = cluster.pods();
        let mut rows = Vec::with_capacity(pods.len());
        for (i, rp) in pods.iter().enumerate() {
            let mut sockets = Vec::new();
            let mut allowed = Vec::new();
            for socket in &rp.sockets {
                if socket.loopback_only {
                    continue;
                }
                sockets.push((socket.port, socket.protocol));
                allowed.push(index.allowed_sources(i, socket.port, socket.protocol));
            }
            rows.push(TargetRow { sockets, allowed });
        }
        ReachMatrix { index, rows }
    }

    /// Index of a pod by qualified `namespace/name`.
    pub fn pod_index(&self, qualified: &str) -> Option<usize> {
        self.index.pod_index(qualified)
    }

    /// True when `src` would successfully connect to `dst` on
    /// `(port, protocol)` — i.e. a socket is open there and policy admits
    /// the source. Matches `Cluster::connect == Some(Connected)`.
    pub fn connected(&self, src: usize, dst: usize, port: u16, protocol: Protocol) -> bool {
        let row = &self.rows[dst];
        row.sockets
            .iter()
            .position(|&(p, proto)| p == port && proto == protocol)
            .is_some_and(|k| row.allowed[k].contains(src))
    }

    /// Name-based convenience form of [`connected`](Self::connected).
    pub fn reaches(&self, src: &str, dst: &str, port: u16, protocol: Protocol) -> bool {
        match (self.pod_index(src), self.pod_index(dst)) {
            (Some(s), Some(d)) => self.connected(s, d, port, protocol),
            _ => false,
        }
    }

    /// Every endpoint reachable from `src`, in the canonical
    /// (pod, port) order of the sequential probe.
    pub(crate) fn reachable_from(&self, src: &str) -> Vec<ReachableEndpoint> {
        let mut out = Vec::new();
        let Some(src_idx) = self.pod_index(src) else {
            return out;
        };
        for (dst, row) in self.rows.iter().enumerate() {
            if dst == src_idx {
                continue;
            }
            for (k, &(port, protocol)) in row.sockets.iter().enumerate() {
                if row.allowed[k].contains(src_idx) {
                    out.push(ReachableEndpoint {
                        pod: self.index.pod_name(dst).to_string(),
                        port,
                        protocol,
                    });
                }
            }
        }
        out.sort_by(|a, b| (&a.pod, a.port).cmp(&(&b.pod, b.port)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig, ConnectOutcome};
    use ij_model::{
        Container, ContainerPort, LabelSelector, Labels, NetworkPolicy, Object, ObjectMeta, Pod,
        PodSpec,
    };

    fn demo_cluster() -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            seed: 9,
            behaviors: BehaviorRegistry::new(),
        });
        for (name, port) in [("web", 8080u16), ("db", 5432)] {
            cluster
                .apply(Object::Pod(Pod::new(
                    ObjectMeta::named(name).with_labels(Labels::from_pairs([("app", name)])),
                    PodSpec {
                        containers: vec![Container::new(name, format!("img/{name}"))
                            .with_ports(vec![ContainerPort::tcp(port)])],
                        ..Default::default()
                    },
                )))
                .unwrap();
        }
        cluster.reconcile();
        cluster
    }

    #[test]
    fn matrix_agrees_with_connect() {
        let mut cluster = demo_cluster();
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ObjectMeta::named("lock-db"),
                LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            )))
            .unwrap();
        let matrix = ReachMatrix::compute(&cluster);
        for src in cluster.pods() {
            for dst in cluster.pods() {
                if src.qualified_name() == dst.qualified_name() {
                    continue;
                }
                for socket in &dst.sockets {
                    let expected = cluster.connect(
                        &src.qualified_name(),
                        &dst.qualified_name(),
                        socket.port,
                        socket.protocol,
                    ) == Some(ConnectOutcome::Connected);
                    assert_eq!(
                        matrix.reaches(
                            &src.qualified_name(),
                            &dst.qualified_name(),
                            socket.port,
                            socket.protocol,
                        ),
                        expected,
                        "{} -> {}:{}",
                        src.qualified_name(),
                        dst.qualified_name(),
                        socket.port
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_is_a_snapshot() {
        let mut cluster = demo_cluster();
        let before = ReachMatrix::compute(&cluster);
        assert!(before.reaches("default/web", "default/db", 5432, Protocol::Tcp));
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ObjectMeta::named("lock-db"),
                LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            )))
            .unwrap();
        // The old snapshot still answers for the old state …
        assert!(before.reaches("default/web", "default/db", 5432, Protocol::Tcp));
        // … and a fresh one sees the policy (generation bump recompiled).
        let after = ReachMatrix::compute(&cluster);
        assert!(!after.reaches("default/web", "default/db", 5432, Protocol::Tcp));
    }

    #[test]
    fn unknown_pods_are_unreachable() {
        let cluster = demo_cluster();
        let matrix = ReachMatrix::compute(&cluster);
        assert!(!matrix.reaches("default/ghost", "default/db", 5432, Protocol::Tcp));
        assert!(matrix.reachable_from("default/ghost").is_empty());
        assert_eq!(matrix.pod_index("default/ghost"), None);
    }
}
