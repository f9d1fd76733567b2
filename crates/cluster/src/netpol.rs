//! The CNI's NetworkPolicy engine.
//!
//! Kubernetes semantics, faithfully:
//!
//! * With **no** policy selecting a pod for a direction, that direction is
//!   **allow-all** (the default the paper's M6 flags as too permissive).
//! * Once ≥1 policy selects the pod for a direction, the direction becomes
//!   deny-by-default and the union of all matching rules is allowed.
//! * Policies are namespaced; `podSelector` peers match pods in the
//!   *policy's* namespace unless a `namespaceSelector` widens the scope.
//! * `hostNetwork` pods bypass enforcement entirely (M7): as destination the
//!   packets never traverse the pod's veth, and as source the traffic
//!   carries the node IP, which pod selectors can never match.

use crate::cluster::RunningPod;
use ij_model::{Labels, NetworkPolicy, PolicyType, Protocol};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The outcome of a connection attempt evaluated against policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionVerdict {
    /// Connection permitted.
    Allowed(AllowReason),
    /// Blocked by the destination's ingress policies.
    DeniedIngress,
    /// Blocked by the source's egress policies.
    DeniedEgress,
}

impl ConnectionVerdict {
    /// True when traffic flows.
    pub fn is_allowed(&self) -> bool {
        matches!(self, ConnectionVerdict::Allowed(_))
    }
}

/// Why a connection was permitted — the analyzer reports these to explain
/// *how* a misconfigured endpoint stayed reachable (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowReason {
    /// No policy selects either side: Kubernetes default-allow.
    DefaultAllow,
    /// Policies exist and at least one rule matches on every controlled
    /// direction.
    PolicyRuleMatch,
    /// The destination runs on the host network, bypassing enforcement.
    HostNetworkBypass,
}

/// Evaluates NetworkPolicies over a set of running pods.
pub struct PolicyEngine<'a> {
    policies: Vec<&'a NetworkPolicy>,
    namespace_labels: HashMap<String, Labels>,
}

impl<'a> PolicyEngine<'a> {
    /// Builds an engine from the cluster's policies and the labels of its
    /// namespaces.
    pub fn new(
        policies: &'a [NetworkPolicy],
        namespaces: impl IntoIterator<Item = (String, Labels)>,
    ) -> Self {
        Self::from_refs(policies.iter().collect(), namespaces)
    }

    /// Builds an engine from policy references (used when policies live
    /// inside a heterogeneous object store).
    pub(crate) fn from_refs(
        policies: Vec<&'a NetworkPolicy>,
        namespaces: impl IntoIterator<Item = (String, Labels)>,
    ) -> Self {
        PolicyEngine {
            policies,
            namespace_labels: namespaces.into_iter().collect(),
        }
    }

    /// Labels of a namespace; undeclared namespaces still carry the
    /// well-known `kubernetes.io/metadata.name` label, as since v1.22.
    fn ns_labels(&self, ns: &str) -> Labels {
        let mut labels = self.namespace_labels.get(ns).cloned().unwrap_or_default();
        labels.insert("kubernetes.io/metadata.name", ns);
        labels
    }

    /// Evaluates whether `src` may open a connection to `dst` on
    /// `(port, protocol)`.
    pub fn verdict(
        &self,
        src: &RunningPod,
        dst: &RunningPod,
        port: u16,
        protocol: Protocol,
    ) -> ConnectionVerdict {
        // M7: a destination on the host network is never policy-protected.
        if dst.pod.spec.host_network {
            return ConnectionVerdict::Allowed(AllowReason::HostNetworkBypass);
        }

        let ingress_policies: Vec<&NetworkPolicy> = self
            .policies
            .iter()
            .copied()
            .filter(|p| {
                p.applies_to(PolicyType::Ingress)
                    && p.meta.namespace == dst.pod.meta.namespace
                    && p.spec.pod_selector.matches(&dst.pod.meta.labels)
            })
            .collect();
        // Egress enforcement applies to the source — unless the source is on
        // the host network, where its traffic never hits the pod datapath.
        let egress_policies: Vec<&NetworkPolicy> = if src.pod.spec.host_network {
            Vec::new()
        } else {
            self.policies
                .iter()
                .copied()
                .filter(|p| {
                    p.applies_to(PolicyType::Egress)
                        && p.meta.namespace == src.pod.meta.namespace
                        && p.spec.pod_selector.matches(&src.pod.meta.labels)
                })
                .collect()
        };

        if !ingress_policies.is_empty() {
            let allowed = ingress_policies.iter().any(|p| {
                p.spec.ingress.iter().any(|rule| {
                    self.peers_match(&rule.peers, &p.meta.namespace, src)
                        && ports_match(&rule.ports, dst, port, protocol)
                })
            });
            if !allowed {
                return ConnectionVerdict::DeniedIngress;
            }
        }
        if !egress_policies.is_empty() {
            let allowed = egress_policies.iter().any(|p| {
                p.spec.egress.iter().any(|rule| {
                    self.peers_match(&rule.peers, &p.meta.namespace, dst)
                        && ports_match(&rule.ports, dst, port, protocol)
                })
            });
            if !allowed {
                return ConnectionVerdict::DeniedEgress;
            }
        }

        if ingress_policies.is_empty() && egress_policies.is_empty() {
            ConnectionVerdict::Allowed(AllowReason::DefaultAllow)
        } else {
            ConnectionVerdict::Allowed(AllowReason::PolicyRuleMatch)
        }
    }

    /// True when the peer list (empty = all) admits `other`.
    fn peers_match(
        &self,
        peers: &[ij_model::NetworkPolicyPeer],
        policy_ns: &str,
        other: &RunningPod,
    ) -> bool {
        if peers.is_empty() {
            return true;
        }
        peers.iter().any(|peer| {
            if let Some(block) = &peer.ip_block {
                if ip_in_cidr(other.ip, &block.cidr)
                    && !block.except.iter().any(|e| ip_in_cidr(other.ip, e))
                {
                    return true;
                }
            }
            // A host-network peer presents the node IP; pod selectors never
            // match it. Only ipBlock peers (handled above) can admit it.
            if other.pod.spec.host_network {
                return false;
            }
            match (&peer.pod_selector, &peer.namespace_selector) {
                (None, None) => peer.ip_block.is_none(),
                (Some(ps), None) => {
                    other.pod.meta.namespace == policy_ns && ps.matches(&other.pod.meta.labels)
                }
                (None, Some(ns)) => ns.matches(&self.ns_labels(&other.pod.meta.namespace)),
                (Some(ps), Some(ns)) => {
                    ns.matches(&self.ns_labels(&other.pod.meta.namespace))
                        && ps.matches(&other.pod.meta.labels)
                }
            }
        })
    }
}

/// True when the rule's port list (empty = all) covers the destination port.
fn ports_match(
    ports: &[ij_model::PolicyPort],
    dst: &RunningPod,
    port: u16,
    protocol: Protocol,
) -> bool {
    if ports.is_empty() {
        return true;
    }
    let resolve = |name: &str| dst.pod.resolve_port_name(name);
    ports.iter().any(|p| p.covers(port, protocol, &resolve))
}

/// Parses a dotted-quad IPv4 address.
fn parse_v4(s: &str) -> Option<u32> {
    let mut out: u32 = 0;
    let mut parts = 0;
    for seg in s.split('.') {
        let n: u32 = seg.parse().ok()?;
        if n > 255 {
            return None;
        }
        out = (out << 8) | n;
        parts += 1;
    }
    (parts == 4).then_some(out)
}

/// Parses a CIDR (or bare address) into `(network, mask)`; `None` means
/// malformed, which never matches anything. Shared with the compiled
/// [`PolicyIndex`](crate::PolicyIndex) so both paths agree on what counts
/// as a parseable block.
pub(crate) fn parse_cidr(cidr: &str) -> Option<(u32, u32)> {
    let (net, len) = match cidr.split_once('/') {
        Some((net, len)) => (parse_v4(net)?, len.parse::<u32>().ok()?.min(32)),
        None => (parse_v4(cidr)?, 32),
    };
    let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
    Some((net, mask))
}

/// Minimal IPv4 CIDR containment test.
fn ip_in_cidr(ip: Ipv4Addr, cidr: &str) -> bool {
    let Some((net, mask)) = parse_cidr(cidr) else {
        return false;
    };
    (u32::from(ip) & mask) == (net & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{OpenSocket, RunningPod};
    use ij_model::{
        Container, ContainerPort, LabelSelector, NetworkPolicy, NetworkPolicyPeer, ObjectMeta, Pod,
        PodSpec, PolicyPort,
    };

    fn pod(name: &str, ns: &str, labels: &[(&str, &str)], host_network: bool) -> RunningPod {
        let meta = ObjectMeta::named(name)
            .in_namespace(ns)
            .with_labels(Labels::from_pairs(labels.iter().copied()));
        RunningPod {
            pod: Pod::new(
                meta,
                PodSpec {
                    containers: vec![Container::new("c", "img")
                        .with_ports(vec![ContainerPort::named("http", 8080)])],
                    host_network,
                    node_name: None,
                },
            ),
            node: "node-0".into(),
            ip: if host_network {
                Ipv4Addr::new(192, 168, 49, 2)
            } else {
                Ipv4Addr::new(10, 244, 0, 5)
            },
            sockets: vec![OpenSocket {
                port: 8080,
                protocol: Protocol::Tcp,
                loopback_only: false,
                ephemeral: false,
            }],
            owner: None,
        }
    }

    fn allow_from(app: &str, ns: &str, from_app: &str, port: u16) -> NetworkPolicy {
        NetworkPolicy::allow_ingress(
            ObjectMeta::named(format!("allow-{app}")).in_namespace(ns),
            LabelSelector::from_labels(Labels::from_pairs([("app", app)])),
            vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(
                Labels::from_pairs([("app", from_app)]),
            ))],
            vec![PolicyPort::tcp(port)],
        )
    }

    #[test]
    fn default_allow_without_policies() {
        let engine = PolicyEngine::new(&[], []);
        let a = pod("a", "default", &[("app", "a")], false);
        let b = pod("b", "default", &[("app", "b")], false);
        assert_eq!(
            engine.verdict(&a, &b, 8080, Protocol::Tcp),
            ConnectionVerdict::Allowed(AllowReason::DefaultAllow)
        );
    }

    #[test]
    fn policy_denies_unlisted_peer() {
        let policies = vec![allow_from("db", "default", "api", 8080)];
        let engine = PolicyEngine::new(&policies, []);
        let api = pod("api", "default", &[("app", "api")], false);
        let web = pod("web", "default", &[("app", "web")], false);
        let db = pod("db", "default", &[("app", "db")], false);
        assert!(engine.verdict(&api, &db, 8080, Protocol::Tcp).is_allowed());
        assert_eq!(
            engine.verdict(&web, &db, 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn policy_denies_unlisted_port() {
        let policies = vec![allow_from("db", "default", "api", 5432)];
        let engine = PolicyEngine::new(&policies, []);
        let api = pod("api", "default", &[("app", "api")], false);
        let db = pod("db", "default", &[("app", "db")], false);
        assert_eq!(
            engine.verdict(&api, &db, 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn union_of_policies() {
        // Two policies on the same pod: rules are unioned.
        let policies = vec![
            allow_from("db", "default", "api", 5432),
            allow_from("db", "default", "backup", 5432),
        ];
        let engine = PolicyEngine::new(&policies, []);
        let backup = pod("backup", "default", &[("app", "backup")], false);
        let db = pod("db", "default", &[("app", "db")], false);
        assert!(engine
            .verdict(&backup, &db, 5432, Protocol::Tcp)
            .is_allowed());
    }

    #[test]
    fn deny_all_policy() {
        let policies = vec![NetworkPolicy::deny_all_ingress(
            ObjectMeta::named("deny").in_namespace("default"),
            LabelSelector::everything(),
        )];
        let engine = PolicyEngine::new(&policies, []);
        let a = pod("a", "default", &[("app", "a")], false);
        let b = pod("b", "default", &[("app", "b")], false);
        assert_eq!(
            engine.verdict(&a, &b, 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn host_network_destination_bypasses_policy() {
        // The §4.3.2 finding: strict policies targeting hostNetwork pods are
        // ineffective.
        let policies = vec![NetworkPolicy::deny_all_ingress(
            ObjectMeta::named("deny").in_namespace("default"),
            LabelSelector::everything(),
        )];
        let engine = PolicyEngine::new(&policies, []);
        let a = pod("a", "default", &[("app", "a")], false);
        let exporter = pod("exporter", "default", &[("app", "exporter")], true);
        assert_eq!(
            engine.verdict(&a, &exporter, 9100, Protocol::Tcp),
            ConnectionVerdict::Allowed(AllowReason::HostNetworkBypass)
        );
    }

    #[test]
    fn host_network_source_not_matched_by_pod_selector() {
        let policies = vec![allow_from("db", "default", "api", 8080)];
        let engine = PolicyEngine::new(&policies, []);
        // Attacker impersonates the api labels but runs on the host network:
        // its traffic carries the node IP, so the selector cannot admit it.
        let host_api = pod("api", "default", &[("app", "api")], true);
        let db = pod("db", "default", &[("app", "db")], false);
        assert_eq!(
            engine.verdict(&host_api, &db, 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn namespace_selector_cross_namespace() {
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("allow-monitoring").in_namespace("prod"),
            LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            vec![NetworkPolicyPeer {
                pod_selector: None,
                namespace_selector: Some(LabelSelector::from_labels(Labels::from_pairs([(
                    "team", "sre",
                )]))),
                ip_block: None,
            }],
            vec![],
        );
        let policies = vec![np];
        let engine = PolicyEngine::new(
            &policies,
            [(
                "monitoring".to_string(),
                Labels::from_pairs([("team", "sre")]),
            )],
        );
        let prom = pod("prom", "monitoring", &[("app", "prometheus")], false);
        let other = pod("other", "default", &[("app", "prometheus")], false);
        let db = pod("db", "prod", &[("app", "db")], false);
        assert!(engine.verdict(&prom, &db, 5432, Protocol::Tcp).is_allowed());
        assert_eq!(
            engine.verdict(&other, &db, 5432, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn metadata_name_namespace_selector() {
        // Selecting a namespace by its implicit kubernetes.io/metadata.name.
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("allow-kube-system").in_namespace("prod"),
            LabelSelector::everything(),
            vec![NetworkPolicyPeer {
                pod_selector: None,
                namespace_selector: Some(LabelSelector::from_labels(Labels::from_pairs([(
                    "kubernetes.io/metadata.name",
                    "kube-system",
                )]))),
                ip_block: None,
            }],
            vec![],
        );
        let policies = vec![np];
        let engine = PolicyEngine::new(&policies, []);
        let sys = pod("coredns", "kube-system", &[("k8s-app", "dns")], false);
        let db = pod("db", "prod", &[("app", "db")], false);
        assert!(engine.verdict(&sys, &db, 1234, Protocol::Tcp).is_allowed());
    }

    #[test]
    fn egress_policy_restricts_source() {
        let np = NetworkPolicy {
            meta: ObjectMeta::named("egress-lock").in_namespace("default"),
            spec: ij_model::NetworkPolicySpec {
                pod_selector: LabelSelector::from_labels(Labels::from_pairs([("app", "worker")])),
                policy_types: vec![PolicyType::Egress],
                ingress: vec![],
                egress: vec![ij_model::NetworkPolicyRule {
                    peers: vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(
                        Labels::from_pairs([("app", "queue")]),
                    ))],
                    ports: vec![PolicyPort::tcp(6379)],
                }],
            },
        };
        let policies = vec![np];
        let engine = PolicyEngine::new(&policies, []);
        let worker = pod("worker", "default", &[("app", "worker")], false);
        let queue = pod("queue", "default", &[("app", "queue")], false);
        let db = pod("db", "default", &[("app", "db")], false);
        assert!(engine
            .verdict(&worker, &queue, 6379, Protocol::Tcp)
            .is_allowed());
        assert_eq!(
            engine.verdict(&worker, &db, 5432, Protocol::Tcp),
            ConnectionVerdict::DeniedEgress
        );
    }

    #[test]
    fn ip_block_peer() {
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("allow-cidr").in_namespace("default"),
            LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            vec![NetworkPolicyPeer {
                pod_selector: None,
                namespace_selector: None,
                ip_block: Some(ij_model::IpBlock {
                    cidr: "10.244.0.0/16".into(),
                    except: vec!["10.244.0.5/32".into()],
                }),
            }],
            vec![],
        );
        let policies = vec![np];
        let engine = PolicyEngine::new(&policies, []);
        let db = pod("db", "default", &[("app", "db")], false);
        let mut ok = pod("ok", "default", &[("app", "x")], false);
        ok.ip = Ipv4Addr::new(10, 244, 1, 9);
        let excluded = pod("excluded", "default", &[("app", "x")], false); // 10.244.0.5
        assert!(engine.verdict(&ok, &db, 1, Protocol::Tcp).is_allowed());
        assert_eq!(
            engine.verdict(&excluded, &db, 1, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }

    #[test]
    fn cidr_math() {
        let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
        assert!(ip_in_cidr(ip("10.244.3.7"), "10.244.0.0/16"));
        assert!(!ip_in_cidr(ip("10.245.0.1"), "10.244.0.0/16"));
        assert!(ip_in_cidr(ip("1.2.3.4"), "0.0.0.0/0"));
        assert!(ip_in_cidr(ip("1.2.3.4"), "1.2.3.4"));
        assert!(!ip_in_cidr(ip("10.0.0.1"), "bogus"));
    }

    #[test]
    fn named_port_in_policy_resolves_against_destination() {
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("named").in_namespace("default"),
            LabelSelector::from_labels(Labels::from_pairs([("app", "b")])),
            vec![],
            vec![ij_model::PolicyPort {
                protocol: Protocol::Tcp,
                port: Some(ij_model::PolicyPortRef::Name("http".into())),
                end_port: None,
            }],
        );
        let policies = vec![np];
        let engine = PolicyEngine::new(&policies, []);
        let a = pod("a", "default", &[("app", "a")], false);
        let b = pod("b", "default", &[("app", "b")], false); // declares http=8080
        assert!(engine.verdict(&a, &b, 8080, Protocol::Tcp).is_allowed());
        assert_eq!(
            engine.verdict(&a, &b, 9999, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
    }
}
