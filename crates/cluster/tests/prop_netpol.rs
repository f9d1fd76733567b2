//! Property tests for the NetworkPolicy engine's core semantics, and for
//! the compiled policy index agreeing with the naive engine verdict on
//! random clusters (the oracle relationship the reach-matrix refactor
//! rests on).

use ij_cluster::{Cluster, ClusterConfig, PolicyEngine, RunningPod};
use ij_model::{
    Container, ContainerPort, IpBlock, LabelSelector, Labels, NetworkPolicy, NetworkPolicyPeer,
    NetworkPolicyRule, NetworkPolicySpec, Object, ObjectMeta, Pod, PodSpec, PolicyPort,
    PolicyPortRef, PolicyType, Protocol,
};
use proptest::prelude::*;

fn arb_labels() -> impl Strategy<Value = Labels> {
    prop::collection::btree_map("[ab]", "[xy]", 1..3).prop_map(Labels)
}

/// `Option`-wrapping combinator (the vendored proptest has no
/// `prop::option::of`).
fn arb_opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(on, value)| on.then_some(value))
}

fn arb_peer() -> impl Strategy<Value = NetworkPolicyPeer> {
    let ip_block = (
        prop::sample::select(vec![
            "10.244.0.0/16".to_string(),
            "10.244.0.0/28".to_string(),
            "0.0.0.0/0".to_string(),
            "192.168.49.0/24".to_string(),
            "not-a-cidr".to_string(),
        ]),
        prop::collection::vec(
            prop::sample::select(vec![
                "10.244.0.1/32".to_string(),
                "10.244.0.0/30".to_string(),
                "bogus".to_string(),
            ]),
            0..2,
        ),
    )
        .prop_map(|(cidr, except)| IpBlock { cidr, except });
    (
        arb_opt(arb_labels().prop_map(LabelSelector::from_labels)),
        arb_opt(
            prop::sample::select(vec![
                Labels::from_pairs([("team", "sre")]),
                Labels::from_pairs([("team", "dev")]),
                Labels::from_pairs([("kubernetes.io/metadata.name", "default")]),
                Labels::from_pairs([("kubernetes.io/metadata.name", "prod")]),
                Labels::new(),
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

fn arb_policy_port() -> impl Strategy<Value = PolicyPort> {
    prop_oneof![
        Just(PolicyPort::tcp(8080)),
        Just(PolicyPort::tcp(9999)),
        Just(PolicyPort::tcp_range(32768, 60999)),
        Just(PolicyPort {
            protocol: Protocol::Udp,
            port: Some(PolicyPortRef::Number(8080)),
            end_port: None,
        }),
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
    ]
}

fn arb_rule() -> impl Strategy<Value = NetworkPolicyRule> {
    (
        prop::collection::vec(arb_peer(), 0..3),
        prop::collection::vec(arb_policy_port(), 0..3),
    )
        .prop_map(|(peers, ports)| NetworkPolicyRule { peers, ports })
}

fn arb_policy() -> impl Strategy<Value = NetworkPolicy> {
    (
        prop::sample::select(vec!["default".to_string(), "prod".to_string()]),
        arb_labels(),
        any::<bool>(),
        (any::<bool>(), any::<bool>()),
        prop::collection::vec(arb_rule(), 0..3),
        prop::collection::vec(arb_rule(), 0..3),
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

/// A cluster with pods across two namespaces (one carrying declared labels)
/// and the given policies applied; the pods declare a named port so named
/// policy ports resolve.
fn arb_cluster_pods() -> impl Strategy<Value = Vec<(String, Labels, bool, String)>> {
    prop::collection::vec(
        (
            arb_labels(),
            any::<bool>(),
            prop::sample::select(vec!["default".to_string(), "prod".to_string()]),
        ),
        2..6,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (labels, host, ns))| (format!("p{i}"), labels, host, ns))
            .collect()
    })
}

fn build_cluster(pods: &[(String, Labels, bool, String)], policies: &[NetworkPolicy]) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        seed: 1,
        behaviors: Default::default(),
    });
    cluster
        .apply(Object::Namespace(
            ObjectMeta::named("prod").with_labels(Labels::from_pairs([("team", "sre")])),
        ))
        .expect("namespace applies");
    for (name, labels, host, ns) in pods {
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named(name.clone())
                    .in_namespace(ns.clone())
                    .with_labels(labels.clone()),
                PodSpec {
                    containers: vec![Container::new("c", "img")
                        .with_ports(vec![ContainerPort::named("http", 8080)])],
                    host_network: *host,
                    node_name: None,
                },
            )))
            .expect("apply pod");
    }
    cluster.reconcile();
    for np in policies {
        cluster
            .apply(Object::NetworkPolicy(np.clone()))
            .expect("apply policy");
    }
    cluster
}

/// Builds running pods through the real cluster machinery so IPs and nodes
/// are realistic.
fn running_pods(specs: Vec<(String, Labels, bool)>) -> Vec<RunningPod> {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        seed: 1,
        behaviors: Default::default(),
    });
    for (name, labels, host_network) in specs {
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named(name).with_labels(labels),
                PodSpec {
                    containers: vec![
                        Container::new("c", "img").with_ports(vec![ContainerPort::tcp(8080)])
                    ],
                    host_network,
                    node_name: None,
                },
            )))
            .expect("apply");
    }
    cluster.reconcile();
    cluster.pods().iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no policies, every pod-to-pod connection is allowed.
    #[test]
    fn default_allow_is_total(
        labels in prop::collection::vec(arb_labels(), 2..5),
        port in 1u16..=65535,
    ) {
        let pods = running_pods(
            labels
                .into_iter()
                .enumerate()
                .map(|(i, l)| (format!("p{i}"), l, false))
                .collect(),
        );
        let engine = PolicyEngine::new(&[], []);
        for src in &pods {
            for dst in &pods {
                prop_assert!(engine.verdict(src, dst, port, Protocol::Tcp).is_allowed());
            }
        }
    }

    /// A deny-all-ingress policy blocks every non-hostNetwork destination,
    /// and hostNetwork destinations bypass it regardless of labels.
    #[test]
    fn deny_all_blocks_exactly_pod_network_destinations(
        labels in prop::collection::vec(arb_labels(), 2..5),
        host_flags in prop::collection::vec(any::<bool>(), 2..5),
    ) {
        let n = labels.len().min(host_flags.len());
        let pods = running_pods(
            labels
                .into_iter()
                .take(n)
                .zip(host_flags.into_iter().take(n))
                .enumerate()
                .map(|(i, (l, h))| (format!("p{i}"), l, h))
                .collect(),
        );
        let deny = [NetworkPolicy::deny_all_ingress(
            ObjectMeta::named("deny"),
            LabelSelector::everything(),
        )];
        let engine = PolicyEngine::new(&deny, []);
        for src in &pods {
            for dst in &pods {
                let verdict = engine.verdict(src, dst, 8080, Protocol::Tcp);
                prop_assert_eq!(
                    verdict.is_allowed(),
                    dst.pod.spec.host_network,
                    "src={} dst={} host={}",
                    src.qualified_name(),
                    dst.qualified_name(),
                    dst.pod.spec.host_network
                );
            }
        }
    }

    /// Policies are additive allow-lists: adding an allow policy on top of a
    /// deny-all never shrinks the allowed set.
    #[test]
    fn allow_rules_are_monotonic(
        src_labels in arb_labels(),
        dst_labels in arb_labels(),
        peer_sel in arb_labels(),
        port in prop::sample::select(vec![8080u16, 9090]),
    ) {
        let pods = running_pods(vec![
            ("src".to_string(), src_labels, false),
            ("dst".to_string(), dst_labels, false),
        ]);
        let (src, dst) = (&pods[0], &pods[1]);

        let base = vec![NetworkPolicy::deny_all_ingress(
            ObjectMeta::named("deny"),
            LabelSelector::everything(),
        )];
        let mut extended = base.clone();
        extended.push(NetworkPolicy::allow_ingress(
            ObjectMeta::named("allow"),
            LabelSelector::everything(),
            vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(peer_sel))],
            vec![PolicyPort::tcp(port)],
        ));

        let base_engine = PolicyEngine::new(&base, []);
        let ext_engine = PolicyEngine::new(&extended, []);
        for probe in [8080u16, 9090] {
            let before = base_engine.verdict(src, dst, probe, Protocol::Tcp).is_allowed();
            let after = ext_engine.verdict(src, dst, probe, Protocol::Tcp).is_allowed();
            prop_assert!(
                !before || after,
                "adding an allow policy removed {probe} (before={before}, after={after})"
            );
        }
    }

    /// The engine is a pure function: same inputs, same verdicts.
    #[test]
    fn verdicts_are_deterministic(
        src_labels in arb_labels(),
        dst_labels in arb_labels(),
        sel in arb_labels(),
    ) {
        let pods = running_pods(vec![
            ("src".to_string(), src_labels, false),
            ("dst".to_string(), dst_labels, false),
        ]);
        let policies = [NetworkPolicy::allow_ingress(
            ObjectMeta::named("p"),
            LabelSelector::from_labels(sel),
            vec![],
            vec![PolicyPort::tcp(8080)],
        )];
        let engine = PolicyEngine::new(&policies, []);
        let a = engine.verdict(&pods[0], &pods[1], 8080, Protocol::Tcp);
        let b = engine.verdict(&pods[0], &pods[1], 8080, Protocol::Tcp);
        prop_assert_eq!(a, b);
    }

    /// The compiled index returns the *same* [`ConnectionVerdict`] —
    /// including the allow reason — as the naive engine, for every ordered
    /// pod pair, port, and protocol, on clusters with random labels,
    /// namespaces, hostNetwork pods, and random multi-rule policies.
    #[test]
    fn index_verdicts_equal_naive_engine(
        pods in arb_cluster_pods(),
        policies in prop::collection::vec(arb_policy(), 0..4),
    ) {
        let policies: Vec<NetworkPolicy> = policies
            .into_iter()
            .enumerate()
            .map(|(i, mut np)| {
                np.meta.name = format!("np-{i}");
                np
            })
            .collect();
        let cluster = build_cluster(&pods, &policies);
        let engine = PolicyEngine::new(&policies, cluster.namespace_labels());
        let index = cluster.policy_index();
        for src in cluster.pods() {
            let si = index.pod_index(&src.qualified_name()).expect("src indexed");
            for dst in cluster.pods() {
                let di = index.pod_index(&dst.qualified_name()).expect("dst indexed");
                for port in [8080u16, 9999, 40000] {
                    for protocol in [Protocol::Tcp, Protocol::Udp] {
                        prop_assert_eq!(
                            index.verdict(si, di, port, protocol),
                            engine.verdict(src, dst, port, protocol),
                            "{} -> {} :{}/{:?}",
                            src.qualified_name(),
                            dst.qualified_name(),
                            port,
                            protocol
                        );
                    }
                }
            }
        }
    }

    /// The batch column ([`PolicyIndex::allowed_sources`]) is exactly the
    /// per-pair verdicts stacked up.
    #[test]
    fn batch_columns_equal_per_pair_verdicts(
        pods in arb_cluster_pods(),
        policies in prop::collection::vec(arb_policy(), 0..4),
    ) {
        let policies: Vec<NetworkPolicy> = policies
            .into_iter()
            .enumerate()
            .map(|(i, mut np)| {
                np.meta.name = format!("np-{i}");
                np
            })
            .collect();
        let cluster = build_cluster(&pods, &policies);
        let index = cluster.policy_index();
        for dst in 0..index.pod_count() {
            for port in [8080u16, 40000] {
                for protocol in [Protocol::Tcp, Protocol::Udp] {
                    let column = index.allowed_sources(dst, port, protocol);
                    for src in 0..index.pod_count() {
                        prop_assert_eq!(
                            column.contains(src),
                            index.verdict(src, dst, port, protocol).is_allowed(),
                            "src={} dst={} port={} proto={:?}",
                            src, dst, port, protocol
                        );
                    }
                }
            }
        }
    }

    /// The cached index is invalidated by mutation: after applying one more
    /// policy, fresh verdicts match a fresh naive engine again.
    #[test]
    fn cache_invalidation_tracks_mutation(
        pods in arb_cluster_pods(),
        policy in arb_policy(),
    ) {
        let mut cluster = build_cluster(&pods, &[]);
        let before = cluster.policy_index();
        cluster.apply(Object::NetworkPolicy(policy.clone())).expect("apply policy");
        let after = cluster.policy_index();
        let engine = PolicyEngine::new(std::slice::from_ref(&policy), cluster.namespace_labels());
        for src in cluster.pods() {
            let si = after.pod_index(&src.qualified_name()).expect("src indexed");
            for dst in cluster.pods() {
                let di = after.pod_index(&dst.qualified_name()).expect("dst indexed");
                prop_assert_eq!(
                    after.verdict(si, di, 8080, Protocol::Tcp),
                    engine.verdict(src, dst, 8080, Protocol::Tcp)
                );
                // The pre-mutation snapshot still answers default-allow.
                prop_assert!(before.verdict(si, di, 8080, Protocol::Tcp).is_allowed());
            }
        }
    }
}
