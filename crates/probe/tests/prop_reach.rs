//! Property suite for the batch [`ReachMatrix`]: on random clusters (pods,
//! namespaces, policies, hostNetwork pods) the matrix must agree with the
//! naive per-pair [`PolicyEngine`] verdict — the oracle the compiled index
//! replaces on the hot path. A fixed three-tier cluster with per-tier
//! ingress locks and hostNetwork exporters (the §4.3.2 shape) is checked
//! against the same oracle at three sizes.

use ij_cluster::{Cluster, ClusterConfig, PolicyEngine};
use ij_model::{
    Container, ContainerPort, IpBlock, LabelSelector, Labels, NetworkPolicy, NetworkPolicyPeer,
    NetworkPolicyRule, NetworkPolicySpec, Object, ObjectMeta, Pod, PodSpec, PolicyPort,
    PolicyPortRef, PolicyType, Protocol,
};
use ij_probe::{reachable_pod_endpoints, ReachMatrix, ReachableEndpoint};
use proptest::prelude::*;

fn arb_labels() -> impl Strategy<Value = Labels> {
    prop::collection::btree_map("[ab]", "[xy]", 1..3).prop_map(Labels)
}

fn arb_opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(on, value)| on.then_some(value))
}

fn arb_peer() -> impl Strategy<Value = NetworkPolicyPeer> {
    let ip_block = (
        prop::sample::select(vec![
            "10.244.0.0/16".to_string(),
            "10.244.0.0/28".to_string(),
            "192.168.49.0/24".to_string(),
        ]),
        prop::collection::vec(
            prop::sample::select(vec!["10.244.0.1/32".to_string(), "bogus".to_string()]),
            0..2,
        ),
    )
        .prop_map(|(cidr, except)| IpBlock { cidr, except });
    (
        arb_opt(arb_labels().prop_map(LabelSelector::from_labels)),
        arb_opt(
            prop::sample::select(vec![
                Labels::from_pairs([("team", "sre")]),
                Labels::from_pairs([("kubernetes.io/metadata.name", "default")]),
            ])
            .prop_map(LabelSelector::from_labels),
        ),
        arb_opt(ip_block),
    )
        .prop_map(
            |(pod_selector, namespace_selector, ip_block)| NetworkPolicyPeer {
                pod_selector,
                namespace_selector,
                ip_block,
            },
        )
}

fn arb_rule() -> impl Strategy<Value = NetworkPolicyRule> {
    let port = prop_oneof![
        Just(PolicyPort::tcp(8080)),
        Just(PolicyPort::tcp(9100)),
        Just(PolicyPort {
            protocol: Protocol::Tcp,
            port: Some(PolicyPortRef::Name("http".into())),
            end_port: None,
        }),
        Just(PolicyPort {
            protocol: Protocol::Tcp,
            port: None,
            end_port: None,
        }),
    ];
    (
        prop::collection::vec(arb_peer(), 0..3),
        prop::collection::vec(port, 0..2),
    )
        .prop_map(|(peers, ports)| NetworkPolicyRule { peers, ports })
}

fn arb_policy() -> impl Strategy<Value = NetworkPolicy> {
    (
        prop::sample::select(vec!["default".to_string(), "prod".to_string()]),
        arb_labels(),
        any::<bool>(),
        (any::<bool>(), any::<bool>()),
        prop::collection::vec(arb_rule(), 0..2),
        prop::collection::vec(arb_rule(), 0..2),
    )
        .prop_map(
            |(ns, selector, select_all, (ingress_ty, egress_ty), ingress, egress)| {
                let mut policy_types = Vec::new();
                if ingress_ty {
                    policy_types.push(PolicyType::Ingress);
                }
                if egress_ty {
                    policy_types.push(PolicyType::Egress);
                }
                NetworkPolicy {
                    meta: ObjectMeta::named("np").in_namespace(ns),
                    spec: NetworkPolicySpec {
                        pod_selector: if select_all {
                            LabelSelector::everything()
                        } else {
                            LabelSelector::from_labels(selector)
                        },
                        policy_types,
                        ingress,
                        egress,
                    },
                }
            },
        )
}

/// Pods with two declared ports (one named) across two namespaces; the
/// default behaviour model opens every declared port.
fn build_cluster(pods: &[(Labels, bool, String)], policies: &[NetworkPolicy]) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        seed: 3,
        behaviors: Default::default(),
    });
    cluster
        .apply(Object::Namespace(
            ObjectMeta::named("prod").with_labels(Labels::from_pairs([("team", "sre")])),
        ))
        .expect("namespace applies");
    for (i, (labels, host, ns)) in pods.iter().enumerate() {
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named(format!("p{i}"))
                    .in_namespace(ns.clone())
                    .with_labels(labels.clone()),
                PodSpec {
                    containers: vec![Container::new("c", "img").with_ports(vec![
                        ContainerPort::named("http", 8080),
                        ContainerPort::tcp(9100),
                    ])],
                    host_network: *host,
                    node_name: None,
                },
            )))
            .expect("apply pod");
    }
    cluster.reconcile();
    for (i, np) in policies.iter().enumerate() {
        let mut np = np.clone();
        np.meta.name = format!("np-{i}");
        cluster
            .apply(Object::NetworkPolicy(np))
            .expect("apply policy");
    }
    cluster
}

/// The sequential per-pair oracle: naive engine verdict + listener check,
/// exactly the shape `reachable_pod_endpoints` had before the matrix.
fn naive_reachable(
    cluster: &Cluster,
    policies: &[NetworkPolicy],
    src: &str,
) -> Vec<ReachableEndpoint> {
    let engine = PolicyEngine::new(policies, cluster.namespace_labels());
    let mut out = Vec::new();
    let Some(src_pod) = cluster.pod(src) else {
        return out;
    };
    for dst in cluster.pods() {
        if dst.qualified_name() == src_pod.qualified_name() {
            continue;
        }
        for socket in &dst.sockets {
            if socket.loopback_only {
                continue;
            }
            if engine
                .verdict(src_pod, dst, socket.port, socket.protocol)
                .is_allowed()
            {
                out.push(ReachableEndpoint {
                    pod: dst.qualified_name(),
                    port: socket.port,
                    protocol: socket.protocol,
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.pod, a.port).cmp(&(&b.pod, b.port)));
    out
}

fn arb_pods() -> impl Strategy<Value = Vec<(Labels, bool, String)>> {
    prop::collection::vec(
        (
            arb_labels(),
            any::<bool>(),
            prop::sample::select(vec!["default".to_string(), "prod".to_string()]),
        ),
        2..6,
    )
}

/// `apps` three-tier applications (web, api, db pod each) where only
/// web → api and api → db are allowed in by per-tier NetworkPolicies, plus
/// one hostNetwork exporter per app that no policy selects.
fn tiered_cluster(apps: usize) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        seed: 17,
        behaviors: Default::default(),
    });
    for a in 0..apps {
        for (tier, port) in [("web", 8080u16), ("api", 9090), ("db", 5432)] {
            let labels = Labels::from_pairs([("app", format!("a{a}")), ("tier", tier.to_string())]);
            cluster
                .apply(Object::Pod(Pod::new(
                    ObjectMeta::named(format!("a{a}-{tier}")).with_labels(labels),
                    PodSpec {
                        containers: vec![Container::new(tier, format!("img/{tier}"))
                            .with_ports(vec![ContainerPort::named("main", port)])],
                        ..Default::default()
                    },
                )))
                .expect("pod applies");
        }
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named(format!("a{a}-exporter"))
                    .with_labels(Labels::from_pairs([("app", format!("a{a}"))])),
                PodSpec {
                    containers: vec![Container::new("exp", "img/exporter")
                        .with_ports(vec![ContainerPort::tcp(9100)])],
                    host_network: true,
                    node_name: None,
                },
            )))
            .expect("exporter applies");
        for (tier, from, port) in [("db", "api", 5432u16), ("api", "web", 9090)] {
            cluster
                .apply(Object::NetworkPolicy(NetworkPolicy::allow_ingress(
                    ObjectMeta::named(format!("a{a}-lock-{tier}")),
                    LabelSelector::from_labels(Labels::from_pairs([
                        ("app", format!("a{a}")),
                        ("tier", tier.to_string()),
                    ])),
                    vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(
                        Labels::from_pairs([("app", format!("a{a}")), ("tier", from.to_string())]),
                    ))],
                    vec![PolicyPort::tcp(port)],
                )))
                .expect("policy applies");
        }
    }
    cluster.reconcile();
    cluster
}

/// On the tiered cluster the matrix-backed endpoint list equals the naive
/// oracle for every vantage pod, and the locks hold: web reaches its own
/// api but not its db, while every exporter stays open to everyone.
#[test]
fn tiered_cluster_matches_naive_oracle() {
    for apps in [3usize, 12, 48] {
        let cluster = tiered_cluster(apps);
        let applied: Vec<NetworkPolicy> = cluster.network_policies().into_iter().cloned().collect();
        assert_eq!(applied.len(), 2 * apps);
        for src in cluster.pods() {
            let name = src.qualified_name();
            assert_eq!(
                reachable_pod_endpoints(&cluster, &name),
                naive_reachable(&cluster, &applied, &name),
                "{apps} apps, vantage {name}"
            );
        }
        let from_web = reachable_pod_endpoints(&cluster, "default/a0-web");
        let reaches = |pod: &str| from_web.iter().any(|e| e.pod == pod);
        assert!(reaches("default/a0-api"));
        assert!(!reaches("default/a0-db"));
        assert!(!reaches("default/a1-api"));
        assert!((0..apps).all(|a| reaches(&format!("default/a{a}-exporter"))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The matrix agrees with the naive engine on every (src, dst, socket)
    /// triple of a random cluster.
    #[test]
    fn matrix_equals_naive_per_pair_probe(
        pods in arb_pods(),
        policies in prop::collection::vec(arb_policy(), 0..4),
    ) {
        let cluster = build_cluster(&pods, &policies);
        let applied: Vec<NetworkPolicy> =
            cluster.network_policies().into_iter().cloned().collect();
        let engine = PolicyEngine::new(&applied, cluster.namespace_labels());
        let matrix = ReachMatrix::compute(&cluster);
        for src in cluster.pods() {
            for dst in cluster.pods() {
                for socket in &dst.sockets {
                    if socket.loopback_only {
                        continue;
                    }
                    prop_assert_eq!(
                        matrix.reaches(
                            &src.qualified_name(),
                            &dst.qualified_name(),
                            socket.port,
                            socket.protocol,
                        ),
                        engine
                            .verdict(src, dst, socket.port, socket.protocol)
                            .is_allowed(),
                        "{} -> {}:{}/{:?}",
                        src.qualified_name(),
                        dst.qualified_name(),
                        socket.port,
                        socket.protocol
                    );
                }
            }
        }
    }

    /// The public `reachable_pod_endpoints` (matrix-backed) returns exactly
    /// the sequential oracle's endpoint list for every vantage pod.
    #[test]
    fn reachable_endpoints_equal_sequential_oracle(
        pods in arb_pods(),
        policies in prop::collection::vec(arb_policy(), 0..4),
    ) {
        let cluster = build_cluster(&pods, &policies);
        let applied: Vec<NetworkPolicy> =
            cluster.network_policies().into_iter().cloned().collect();
        for src in cluster.pods() {
            let name = src.qualified_name();
            prop_assert_eq!(
                reachable_pod_endpoints(&cluster, &name),
                naive_reachable(&cluster, &applied, &name),
                "vantage {}", name
            );
        }
    }

    /// Probing twice — and probing after an unrelated cache rebuild — is
    /// deterministic.
    #[test]
    fn matrix_is_deterministic(
        pods in arb_pods(),
        policies in prop::collection::vec(arb_policy(), 0..3),
    ) {
        let cluster = build_cluster(&pods, &policies);
        let a = reachable_pod_endpoints(&cluster, "default/p0");
        let b = reachable_pod_endpoints(&cluster, "default/p0");
        prop_assert_eq!(a, b);
    }
}
