//! NetworkPolicy synthesis from declared ports.
//!
//! The paper argues (§5.2, §6) that the `NetworkPolicy` resource is the
//! right vehicle for a generic, plugin-independent policy description, and
//! that declared port information — when accurate — can drive automatic
//! policy generation (Wikimedia already does this with in-house tooling).
//! This synthesizer is that idea: one ingress policy per compute unit
//! allowing exactly the declared ports, which flips the unit from
//! default-allow to declared-ports-only.

use ij_core::{ComputeUnit, StaticModel};
use ij_model::{
    LabelSelector, NetworkPolicy, NetworkPolicyRule, NetworkPolicySpec, Object, ObjectMeta,
    PolicyPort, PolicyPortRef, PolicyType,
};

/// What the synthesizer produced, including residual risks it cannot cover.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// Generated policies, one per eligible compute unit.
    pub policies: Vec<NetworkPolicy>,
    /// Units skipped because policies cannot protect them (hostNetwork, M7).
    pub skipped_host_network: Vec<String>,
    /// Units skipped because they carry no labels to select.
    pub skipped_unlabeled: Vec<String>,
}

impl SynthesisOutcome {
    /// Policies wrapped as applyable objects.
    pub fn objects(&self) -> Vec<Object> {
        self.policies
            .iter()
            .cloned()
            .map(Object::NetworkPolicy)
            .collect()
    }
}

/// Derives least-privilege ingress policies from declarations.
///
/// ```
/// use ij_core::StaticModel;
/// use ij_guard::PolicySynthesizer;
/// use ij_model::PolicyPortRef;
///
/// let pod = ij_model::decode_manifest("\
/// apiVersion: v1
/// kind: Pod
/// metadata:
///   name: web
///   labels:
///     app: web
/// spec:
///   containers:
///     - name: web
///       image: acme/web
///       ports:
///         - containerPort: 8080
/// ").unwrap();
///
/// let model = StaticModel::from_objects(std::slice::from_ref(&pod));
/// let outcome = PolicySynthesizer::new().synthesize(&model);
///
/// // One ingress policy per labeled unit, allowing exactly the declared
/// // ports — every undeclared (M1) port is cut off once it is applied.
/// assert_eq!(outcome.policies.len(), 1);
/// let policy = &outcome.policies[0];
/// assert_eq!(policy.meta.name, "ij-guard-web");
/// assert_eq!(
///     policy.spec.ingress[0].ports[0].port,
///     Some(PolicyPortRef::Number(8080))
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicySynthesizer;

/// Prefix of every generated policy's name: `ij-guard-<unit>`.
const NAME_PREFIX: &str = "ij-guard";

impl PolicySynthesizer {
    /// A synthesizer; the same as [`PolicySynthesizer::default`].
    pub fn new() -> Self {
        PolicySynthesizer
    }

    /// Synthesizes policies for every labeled, non-hostNetwork compute unit
    /// in the model. The generated policy:
    ///
    /// * selects the unit's pods by their full label set;
    /// * allows ingress **only** on the unit's declared ports (any peer —
    ///   peer narrowing needs connectivity intent the chart does not
    ///   declare);
    /// * thereby denies every *undeclared* port, so an M1 port that was
    ///   reachable before synthesis is cut off after it.
    pub fn synthesize(&self, model: &StaticModel) -> SynthesisOutcome {
        let mut outcome = SynthesisOutcome {
            policies: Vec::new(),
            skipped_host_network: Vec::new(),
            skipped_unlabeled: Vec::new(),
        };
        for unit in &model.units {
            if unit.host_network {
                outcome.skipped_host_network.push(unit.name.clone());
                continue;
            }
            if unit.labels.is_empty() {
                outcome.skipped_unlabeled.push(unit.name.clone());
                continue;
            }
            outcome.policies.push(self.policy_for(unit));
        }
        outcome
    }

    fn policy_for(&self, unit: &ComputeUnit) -> NetworkPolicy {
        let ports: Vec<PolicyPort> = unit
            .declared_ports()
            .map(|(port, protocol)| PolicyPort {
                protocol,
                port: Some(PolicyPortRef::Number(port)),
                end_port: None,
            })
            .collect();
        let short = unit.name.rsplit('/').next().unwrap_or(&unit.name);
        NetworkPolicy {
            meta: ObjectMeta::named(format!("{NAME_PREFIX}-{short}")).in_namespace(&unit.namespace),
            spec: NetworkPolicySpec {
                pod_selector: LabelSelector::from_labels(unit.labels.clone()),
                policy_types: vec![PolicyType::Ingress],
                // With declared ports: allow any peer on exactly those ports.
                // With none: a deny-all ingress policy (no rules).
                ingress: if ports.is_empty() {
                    vec![]
                } else {
                    vec![NetworkPolicyRule {
                        peers: vec![],
                        ports,
                    }]
                },
                egress: vec![],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{
        BehaviorRegistry, Cluster, ClusterConfig, ConnectOutcome, ContainerBehavior, ListenerSpec,
    };
    use ij_model::{Container, ContainerPort, Labels, Pod, PodSpec};

    fn model_with(units: Vec<Object>) -> StaticModel {
        StaticModel::from_objects(&units)
    }

    fn pod_obj(
        name: &str,
        labels: &[(&str, &str)],
        ports: Vec<ContainerPort>,
        host: bool,
    ) -> Object {
        Object::Pod(Pod::new(
            ObjectMeta::named(name).with_labels(Labels::from_pairs(labels.iter().copied())),
            PodSpec {
                containers: vec![Container::new("c", format!("img/{name}")).with_ports(ports)],
                host_network: host,
                node_name: None,
            },
        ))
    }

    #[test]
    fn default_and_new_name_policies_alike() {
        let model = model_with(vec![pod_obj("web", &[("app", "web")], vec![], false)]);
        let default: PolicySynthesizer = Default::default();
        for synthesizer in [default, PolicySynthesizer::new()] {
            let outcome = synthesizer.synthesize(&model);
            assert_eq!(outcome.policies[0].meta.name, "ij-guard-web");
        }
    }

    #[test]
    fn one_policy_per_labeled_unit() {
        let model = model_with(vec![
            pod_obj("a", &[("app", "a")], vec![ContainerPort::tcp(80)], false),
            pod_obj("b", &[("app", "b")], vec![ContainerPort::tcp(81)], false),
            pod_obj("host", &[("app", "h")], vec![], true),
            pod_obj("naked", &[], vec![], false),
        ]);
        let outcome = PolicySynthesizer::new().synthesize(&model);
        assert_eq!(outcome.policies.len(), 2);
        assert_eq!(outcome.skipped_host_network, vec!["default/host"]);
        assert_eq!(outcome.skipped_unlabeled, vec!["default/naked"]);
    }

    #[test]
    fn synthesized_policy_allows_declared_port_only() {
        // End-to-end: an app whose container opens a declared port (8080)
        // and an undeclared backdoor (9999). Before synthesis both are
        // reachable; after synthesis only 8080 is.
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "img/web",
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(8080), ListenerSpec::tcp(9999)]),
        );
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 1,
            seed: 2,
            behaviors,
        });
        cluster
            .apply(pod_obj(
                "web",
                &[("app", "web")],
                vec![ContainerPort::tcp(8080)],
                false,
            ))
            .unwrap();
        cluster
            .apply(pod_obj("attacker", &[("role", "attacker")], vec![], false))
            .unwrap();
        cluster.reconcile();

        assert_eq!(
            cluster.connect(
                "default/attacker",
                "default/web",
                9999,
                ij_model::Protocol::Tcp
            ),
            Some(ConnectOutcome::Connected),
            "undeclared port reachable before synthesis"
        );

        let model = StaticModel::from_objects(cluster.objects());
        let outcome = PolicySynthesizer::new().synthesize(&model);
        for obj in outcome.objects() {
            cluster.apply(obj).unwrap();
        }

        assert_eq!(
            cluster.connect(
                "default/attacker",
                "default/web",
                8080,
                ij_model::Protocol::Tcp
            ),
            Some(ConnectOutcome::Connected),
            "declared port stays reachable"
        );
        assert_eq!(
            cluster.connect(
                "default/attacker",
                "default/web",
                9999,
                ij_model::Protocol::Tcp
            ),
            Some(ConnectOutcome::DeniedIngress),
            "undeclared port cut off after synthesis"
        );
    }

    #[test]
    fn unit_without_declared_ports_gets_deny_all() {
        let model = model_with(vec![pod_obj("quiet", &[("app", "q")], vec![], false)]);
        let outcome = PolicySynthesizer::new().synthesize(&model);
        assert_eq!(outcome.policies.len(), 1);
        assert!(outcome.policies[0].spec.ingress.is_empty());
    }

    #[test]
    fn policy_names_carry_prefix_and_namespace() {
        let mut obj = pod_obj(
            "db",
            &[("app", "db")],
            vec![ContainerPort::tcp(5432)],
            false,
        );
        obj.meta_mut().namespace = "prod".into();
        let model = model_with(vec![obj]);
        let outcome = PolicySynthesizer::new().synthesize(&model);
        assert_eq!(outcome.policies[0].meta.name, "ij-guard-db");
        assert_eq!(outcome.policies[0].meta.namespace, "prod");
    }
}
