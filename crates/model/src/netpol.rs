//! NetworkPolicy resources.
//!
//! Kubernetes policies are *additive allow-lists*: once any policy selects a
//! pod for a direction, that direction flips from default-allow to
//! default-deny plus the union of all matching rules. The paper's M6 is the
//! absence (or non-enablement) of such policies; §4.3.2 evaluates how little
//! the existing ones actually restrict.

use crate::codec;
use crate::error::{Error, Result};
use crate::meta::{LabelSelector, ObjectMeta};
use crate::pod::Protocol;
use ij_yaml::{Map, Value};

/// Direction a policy applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyType {
    /// Controls traffic *into* the selected pods.
    Ingress,
    /// Controls traffic *out of* the selected pods.
    Egress,
}

/// A CIDR allow with optional carve-outs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpBlock {
    /// Allowed CIDR, e.g. `10.0.0.0/8`.
    pub cidr: String,
    /// CIDRs excluded from the allow.
    pub except: Vec<String>,
}

/// A peer in a `from`/`to` clause.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkPolicyPeer {
    /// Pods matched by label (within the policy's namespace unless a
    /// namespace selector is present).
    pub pod_selector: Option<LabelSelector>,
    /// Namespaces matched by label.
    pub namespace_selector: Option<LabelSelector>,
    /// IP-range peer.
    pub ip_block: Option<IpBlock>,
}

impl NetworkPolicyPeer {
    /// Peer selecting pods by labels in the same namespace.
    pub fn pods(selector: LabelSelector) -> Self {
        NetworkPolicyPeer {
            pod_selector: Some(selector),
            ..Default::default()
        }
    }
}

/// A port entry in a policy rule. `port: None` means *all* ports. `end_port`
/// extends the entry to a numeric range — the only (coarse) way to cover
/// dynamic ports (M2), as §3.3 notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyPort {
    /// Transport protocol (default TCP).
    pub protocol: Protocol,
    /// Starting port, or a named container port. `None` allows all ports of
    /// the protocol.
    pub port: Option<PolicyPortRef>,
    /// Inclusive range end (requires a numeric `port`).
    pub end_port: Option<u16>,
}

/// Numeric or named port reference in a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyPortRef {
    /// Literal port number.
    Number(u16),
    /// Named container port, resolved per-pod.
    Name(String),
}

impl PolicyPort {
    /// A single numeric TCP port.
    pub fn tcp(port: u16) -> Self {
        PolicyPort {
            protocol: Protocol::Tcp,
            port: Some(PolicyPortRef::Number(port)),
            end_port: None,
        }
    }

    /// A numeric TCP range (used to blanket dynamic port ranges).
    pub fn tcp_range(from: u16, to: u16) -> Self {
        PolicyPort {
            protocol: Protocol::Tcp,
            port: Some(PolicyPortRef::Number(from)),
            end_port: Some(to),
        }
    }

    /// True when the entry covers `(port, protocol)` for a pod whose named
    /// ports resolve through `resolve`.
    pub fn covers(
        &self,
        port: u16,
        protocol: Protocol,
        resolve: &dyn Fn(&str) -> Option<u16>,
    ) -> bool {
        if protocol != self.protocol {
            return false;
        }
        match (&self.port, self.end_port) {
            (None, _) => true,
            (Some(PolicyPortRef::Number(p)), None) => *p == port,
            (Some(PolicyPortRef::Number(p)), Some(end)) => (*p..=end).contains(&port),
            (Some(PolicyPortRef::Name(n)), _) => resolve(n) == Some(port),
        }
    }
}

/// One ingress or egress rule: a set of peers and a set of ports, each
/// empty-means-all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkPolicyRule {
    /// Allowed peers (`from` for ingress, `to` for egress). Empty allows all
    /// sources/destinations.
    pub peers: Vec<NetworkPolicyPeer>,
    /// Allowed ports. Empty allows all ports.
    pub ports: Vec<PolicyPort>,
}

/// NetworkPolicy spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkPolicySpec {
    /// Pods this policy applies to. Empty selector = all pods in namespace.
    pub pod_selector: LabelSelector,
    /// Directions the policy participates in.
    pub policy_types: Vec<PolicyType>,
    /// Ingress allow rules.
    pub ingress: Vec<NetworkPolicyRule>,
    /// Egress allow rules.
    pub egress: Vec<NetworkPolicyRule>,
}

/// A NetworkPolicy object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkPolicy {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Specification.
    pub spec: NetworkPolicySpec,
}

impl NetworkPolicy {
    /// A deny-all-ingress policy for the selected pods (no rules at all).
    pub fn deny_all_ingress(meta: ObjectMeta, pod_selector: LabelSelector) -> Self {
        NetworkPolicy {
            meta,
            spec: NetworkPolicySpec {
                pod_selector,
                policy_types: vec![PolicyType::Ingress],
                ingress: vec![],
                egress: vec![],
            },
        }
    }

    /// An allow-ingress policy restricted to given peers and ports.
    pub fn allow_ingress(
        meta: ObjectMeta,
        pod_selector: LabelSelector,
        peers: Vec<NetworkPolicyPeer>,
        ports: Vec<PolicyPort>,
    ) -> Self {
        NetworkPolicy {
            meta,
            spec: NetworkPolicySpec {
                pod_selector,
                policy_types: vec![PolicyType::Ingress],
                ingress: vec![NetworkPolicyRule { peers, ports }],
                egress: vec![],
            },
        }
    }

    /// True when the policy participates in the given direction. When
    /// `policyTypes` is omitted, Kubernetes infers Ingress always and Egress
    /// only if egress rules exist.
    pub fn applies_to(&self, direction: PolicyType) -> bool {
        if self.spec.policy_types.is_empty() {
            match direction {
                PolicyType::Ingress => true,
                PolicyType::Egress => !self.spec.egress.is_empty(),
            }
        } else {
            self.spec.policy_types.contains(&direction)
        }
    }

    pub(crate) fn decode(root: &Map) -> Result<NetworkPolicy> {
        let meta = ObjectMeta::decode(root)?;
        let spec = codec::opt_map(root, "spec", "networkpolicy")?
            .ok_or_else(|| Error::malformed("missing networkpolicy `spec`"))?;
        let pod_selector = match codec::opt_map(spec, "podSelector", "spec")? {
            Some(m) => LabelSelector::decode(m, "spec.podSelector")?,
            None => LabelSelector::everything(),
        };
        let mut policy_types = Vec::new();
        for t in codec::opt_seq(spec, "policyTypes", "spec")? {
            match t.render_scalar().as_str() {
                "Ingress" => policy_types.push(PolicyType::Ingress),
                "Egress" => policy_types.push(PolicyType::Egress),
                other => {
                    return Err(Error::malformed(format!(
                        "spec.policyTypes: unknown type `{other}`"
                    )))
                }
            }
        }
        let ingress = decode_rules(spec, "ingress", "from")?;
        let egress = decode_rules(spec, "egress", "to")?;
        Ok(NetworkPolicy {
            meta,
            spec: NetworkPolicySpec {
                pod_selector,
                policy_types,
                ingress,
                egress,
            },
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut spec = Map::with_capacity(4);
        spec.push_unchecked("podSelector", self.spec.pod_selector.encode());
        if !self.spec.policy_types.is_empty() {
            spec.push_unchecked(
                "policyTypes",
                Value::Seq(
                    self.spec
                        .policy_types
                        .iter()
                        .map(|t| {
                            Value::str(match t {
                                PolicyType::Ingress => "Ingress",
                                PolicyType::Egress => "Egress",
                            })
                        })
                        .collect(),
                ),
            );
        }
        if !self.spec.ingress.is_empty() {
            spec.push_unchecked("ingress", encode_rules(&self.spec.ingress, "from"));
        }
        if !self.spec.egress.is_empty() {
            spec.push_unchecked("egress", encode_rules(&self.spec.egress, "to"));
        }
        let mut m = Map::with_capacity(4);
        m.push_unchecked("apiVersion", Value::str("networking.k8s.io/v1"));
        m.push_unchecked("kind", Value::str("NetworkPolicy"));
        m.push_unchecked("metadata", self.meta.encode());
        m.push_unchecked("spec", Value::Map(spec));
        Value::Map(m)
    }
}

fn decode_rules(spec: &Map, field: &str, peer_field: &str) -> Result<Vec<NetworkPolicyRule>> {
    let mut rules = Vec::new();
    for (i, r) in codec::opt_seq(spec, field, "spec")?.iter().enumerate() {
        let rctx = format!("spec.{field}[{i}]");
        let rm = codec::as_map(r, &rctx)?;
        let mut peers = Vec::new();
        for (j, p) in codec::opt_seq(rm, peer_field, &rctx)?.iter().enumerate() {
            let pctx = format!("{rctx}.{peer_field}[{j}]");
            let pm = codec::as_map(p, &pctx)?;
            let pod_selector = match codec::opt_map(pm, "podSelector", &pctx)? {
                Some(m) => Some(LabelSelector::decode(m, &format!("{pctx}.podSelector"))?),
                None => None,
            };
            let namespace_selector = match codec::opt_map(pm, "namespaceSelector", &pctx)? {
                Some(m) => Some(LabelSelector::decode(
                    m,
                    &format!("{pctx}.namespaceSelector"),
                )?),
                None => None,
            };
            let ip_block = match codec::opt_map(pm, "ipBlock", &pctx)? {
                Some(m) => Some(IpBlock {
                    cidr: codec::req_str(m, "cidr", &format!("{pctx}.ipBlock"))?,
                    except: codec::opt_seq(m, "except", &format!("{pctx}.ipBlock"))?
                        .iter()
                        .map(|v| v.render_scalar())
                        .collect(),
                }),
                None => None,
            };
            peers.push(NetworkPolicyPeer {
                pod_selector,
                namespace_selector,
                ip_block,
            });
        }
        let mut ports = Vec::new();
        for (j, p) in codec::opt_seq(rm, "ports", &rctx)?.iter().enumerate() {
            let pctx = format!("{rctx}.ports[{j}]");
            let pm = codec::as_map(p, &pctx)?;
            let protocol = match codec::opt_str(pm, "protocol", &pctx)? {
                Some(p) => Protocol::decode(&p, &pctx)?,
                None => Protocol::Tcp,
            };
            let port = match pm.get("port") {
                None | Some(Value::Null) => None,
                Some(Value::Int(i)) => {
                    Some(PolicyPortRef::Number(u16::try_from(*i).map_err(|_| {
                        Error::malformed(format!("{pctx}.port out of range"))
                    })?))
                }
                Some(Value::Str(s)) => match s.parse::<u16>() {
                    Ok(n) => Some(PolicyPortRef::Number(n)),
                    Err(_) => Some(PolicyPortRef::Name(s.clone())),
                },
                Some(_) => return Err(Error::field(format!("{pctx}.port"), "int or string")),
            };
            let end_port = codec::opt_int(pm, "endPort", &pctx)?
                .map(|p| {
                    u16::try_from(p)
                        .map_err(|_| Error::malformed(format!("{pctx}.endPort out of range")))
                })
                .transpose()?;
            ports.push(PolicyPort {
                protocol,
                port,
                end_port,
            });
        }
        rules.push(NetworkPolicyRule { peers, ports });
    }
    Ok(rules)
}

fn encode_rules(rules: &[NetworkPolicyRule], peer_field: &str) -> Value {
    Value::Seq(
        rules
            .iter()
            .map(|r| {
                let mut rm = Map::with_capacity(2);
                if !r.peers.is_empty() {
                    rm.push_unchecked(
                        peer_field,
                        Value::Seq(
                            r.peers
                                .iter()
                                .map(|p| {
                                    let mut pm = Map::with_capacity(3);
                                    if let Some(s) = &p.pod_selector {
                                        pm.push_unchecked("podSelector", s.encode());
                                    }
                                    if let Some(s) = &p.namespace_selector {
                                        pm.push_unchecked("namespaceSelector", s.encode());
                                    }
                                    if let Some(b) = &p.ip_block {
                                        let mut bm = Map::with_capacity(2);
                                        bm.push_unchecked("cidr", Value::str(&b.cidr));
                                        if !b.except.is_empty() {
                                            bm.push_unchecked(
                                                "except",
                                                Value::Seq(
                                                    b.except.iter().map(Value::str).collect(),
                                                ),
                                            );
                                        }
                                        pm.push_unchecked("ipBlock", Value::Map(bm));
                                    }
                                    Value::Map(pm)
                                })
                                .collect(),
                        ),
                    );
                }
                if !r.ports.is_empty() {
                    rm.push_unchecked(
                        "ports",
                        Value::Seq(
                            r.ports
                                .iter()
                                .map(|p| {
                                    let mut pm = Map::with_capacity(3);
                                    if p.protocol != Protocol::Tcp {
                                        pm.push_unchecked(
                                            "protocol",
                                            Value::str(p.protocol.as_str()),
                                        );
                                    }
                                    match &p.port {
                                        Some(PolicyPortRef::Number(n)) => {
                                            pm.push_unchecked("port", Value::Int(*n as i64));
                                        }
                                        Some(PolicyPortRef::Name(n)) => {
                                            pm.push_unchecked("port", Value::str(n));
                                        }
                                        None => {}
                                    }
                                    if let Some(e) = p.end_port {
                                        pm.push_unchecked("endPort", Value::Int(e as i64));
                                    }
                                    Value::Map(pm)
                                })
                                .collect(),
                        ),
                    );
                }
                Value::Map(rm)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Labels;

    #[test]
    fn decode_allow_ingress_policy() {
        let src = "\
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: allow-web
spec:
  podSelector:
    matchLabels:
      app: web
  policyTypes:
    - Ingress
  ingress:
    - from:
        - podSelector:
            matchLabels:
              app: frontend
      ports:
        - port: 8080
        - protocol: UDP
          port: 53
";
        let v = ij_yaml::parse(src).unwrap();
        let np = NetworkPolicy::decode(v.as_map().unwrap()).unwrap();
        assert!(np.applies_to(PolicyType::Ingress));
        assert!(!np.applies_to(PolicyType::Egress));
        assert_eq!(np.spec.ingress.len(), 1);
        assert_eq!(np.spec.ingress[0].ports.len(), 2);
        let resolve = |_: &str| None;
        assert!(np.spec.ingress[0].ports[0].covers(8080, Protocol::Tcp, &resolve));
        assert!(!np.spec.ingress[0].ports[0].covers(8080, Protocol::Udp, &resolve));
        assert!(np.spec.ingress[0].ports[1].covers(53, Protocol::Udp, &resolve));
    }

    #[test]
    fn port_range_covers() {
        let p = PolicyPort::tcp_range(32768, 60999);
        let resolve = |_: &str| None;
        assert!(p.covers(43271, Protocol::Tcp, &resolve));
        assert!(!p.covers(8080, Protocol::Tcp, &resolve));
    }

    #[test]
    fn named_policy_port_resolution() {
        let p = PolicyPort {
            protocol: Protocol::Tcp,
            port: Some(PolicyPortRef::Name("metrics".into())),
            end_port: None,
        };
        let resolve = |n: &str| (n == "metrics").then_some(9100);
        assert!(p.covers(9100, Protocol::Tcp, &resolve));
        assert!(!p.covers(9101, Protocol::Tcp, &resolve));
    }

    #[test]
    fn omitted_policy_types_inference() {
        let np = NetworkPolicy {
            meta: ObjectMeta::named("p"),
            spec: NetworkPolicySpec {
                pod_selector: LabelSelector::everything(),
                policy_types: vec![],
                ingress: vec![],
                egress: vec![NetworkPolicyRule::default()],
            },
        };
        assert!(np.applies_to(PolicyType::Ingress));
        assert!(np.applies_to(PolicyType::Egress));
    }

    #[test]
    fn deny_all_and_round_trip() {
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("allow-db").in_namespace("prod"),
            LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(
                Labels::from_pairs([("app", "api")]),
            ))],
            vec![PolicyPort::tcp(5432), PolicyPort::tcp_range(30000, 31000)],
        );
        let v = np.encode();
        let back = NetworkPolicy::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(np, back);

        let deny =
            NetworkPolicy::deny_all_ingress(ObjectMeta::named("deny"), LabelSelector::everything());
        let v = deny.encode();
        let back = NetworkPolicy::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(deny, back);
    }
}
