//! Reachability probing: which endpoints can a vantage pod actually reach?
//!
//! This is the measurement behind the paper's §4.3.2: after force-enabling a
//! chart's own NetworkPolicies, how many *misconfigured* endpoints remain
//! reachable from an unrelated pod in the cluster?

use crate::matrix::ReachMatrix;
use ij_cluster::Cluster;
use ij_model::Protocol;

/// One endpoint reachable from the vantage pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachableEndpoint {
    /// Destination pod qualified name.
    pub pod: String,
    /// Destination port.
    pub port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

/// Probes every open socket of every other pod from `src` and returns the
/// endpoints where a connection would succeed.
///
/// One call computes a [`ReachMatrix`] column set over the cluster's cached
/// policy index.
pub fn reachable_pod_endpoints(cluster: &Cluster, src: &str) -> Vec<ReachableEndpoint> {
    ReachMatrix::compute(cluster).reachable_from(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
    use ij_model::{
        Container, ContainerPort, LabelSelector, Labels, NetworkPolicy, Object, ObjectMeta, Pod,
        PodSpec, Service, ServicePort,
    };

    fn base_cluster() -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            seed: 5,
            behaviors: BehaviorRegistry::new(),
        });
        for (name, port) in [("db", 5432u16), ("cache", 6379u16)] {
            let pod = Pod::new(
                ObjectMeta::named(name).with_labels(Labels::from_pairs([("app", name)])),
                PodSpec {
                    containers: vec![Container::new(name, format!("img/{name}"))
                        .with_ports(vec![ContainerPort::tcp(port)])],
                    ..Default::default()
                },
            );
            cluster.apply(Object::Pod(pod)).unwrap();
        }
        let attacker = Pod::new(
            ObjectMeta::named("attacker"),
            PodSpec {
                containers: vec![Container::new("sh", "alpine")],
                ..Default::default()
            },
        );
        cluster.apply(Object::Pod(attacker)).unwrap();
        cluster.reconcile();
        cluster
    }

    #[test]
    fn default_allow_everything_reachable() {
        let cluster = base_cluster();
        let reach = reachable_pod_endpoints(&cluster, "default/attacker");
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn policy_shrinks_reachability() {
        let mut cluster = base_cluster();
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ObjectMeta::named("lock-db"),
                LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            )))
            .unwrap();
        let reach = reachable_pod_endpoints(&cluster, "default/attacker");
        assert_eq!(reach.len(), 1);
        assert_eq!(reach[0].pod, "default/cache");
    }

    #[test]
    fn service_reachability() {
        let mut cluster = base_cluster();
        cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("db"),
                Labels::from_pairs([("app", "db")]),
                vec![ServicePort::tcp(5432)],
            )))
            .unwrap();
        // A service targeting a port nobody opens: unreachable (M5A symptom).
        cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("db-broken"),
                Labels::from_pairs([("app", "db")]),
                vec![ServicePort::tcp_to(5433, 9999)],
            )))
            .unwrap();
        let answers = |name: &str, port: u16| {
            !cluster
                .send_to_service("default/attacker", "default", name, port)
                .is_empty()
        };
        assert!(answers("db", 5432));
        assert!(!answers("db-broken", 5433));
    }
}
