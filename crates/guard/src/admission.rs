//! The validating admission controller.

use ij_cluster::{AdmissionController, AdmissionOutcome, AdmissionReview};
use ij_core::StaticModel;
use ij_model::Object;

/// How the guard enforces its checks. Label collisions (M4/M4\*),
/// selectorless services (M5D), services forwarding to undeclared ports
/// (M5B) and hostNetwork pod templates (M7) are always checked.
#[derive(Debug, Clone)]
pub struct GuardPolicy {
    /// Deny instead of warn.
    pub enforce: bool,
    /// Strict ordering mode: also deny services whose (non-empty) selector
    /// matches no *existing* compute unit (M5D). Off by default because
    /// installers may legitimately apply services before their workloads.
    pub check_unmatched_selectors: bool,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            enforce: true,
            check_unmatched_selectors: false,
        }
    }
}

impl GuardPolicy {
    /// A warn-only posture (audit mode).
    pub fn audit_only() -> Self {
        GuardPolicy {
            enforce: false,
            ..Default::default()
        }
    }
}

/// The admission controller; plug into
/// [`ij_cluster::Cluster::push_admission`].
#[derive(Debug, Clone, Default)]
pub struct GuardAdmission {
    /// Enforcement policy.
    pub policy: GuardPolicy,
}

impl GuardAdmission {
    /// Creates a guard with the given policy.
    pub fn new(policy: GuardPolicy) -> Self {
        GuardAdmission { policy }
    }

    fn violations(&self, review: &AdmissionReview<'_>) -> Vec<String> {
        let existing = StaticModel::from_objects(review.existing);
        let mut out = Vec::new();
        match review.object {
            Object::Workload(_) | Object::Pod(_) => {
                let incoming = StaticModel::from_objects(std::slice::from_ref(review.object));
                let Some(unit) = incoming.units.first() else {
                    return out;
                };
                if !unit.labels.is_empty() {
                    for other in &existing.units {
                        if other.namespace == unit.namespace
                            && other.labels == unit.labels
                            && other.name != unit.name
                        {
                            out.push(format!(
                                "label collision (M4): `{}` would carry the identical label set \
                                 `{}` as existing unit `{}`",
                                unit.name, unit.labels, other.name
                            ));
                        }
                    }
                    // A new unit sliding under an existing service's selector
                    // is the Thanos-style impersonation vector (§2.1.2).
                    for svc in &existing.services {
                        if !svc.spec.selector.is_empty()
                            && svc.meta.namespace == unit.namespace
                            && unit.labels.contains_all(&svc.spec.selector)
                        {
                            let legitimate = existing.units.iter().any(|u| {
                                u.namespace == svc.meta.namespace
                                    && u.labels.contains_all(&svc.spec.selector)
                            });
                            if legitimate {
                                out.push(format!(
                                    "service capture (M4): `{}` would join the backend set of \
                                     service `{}` alongside its existing targets",
                                    unit.name,
                                    svc.meta.qualified_name()
                                ));
                            }
                        }
                    }
                }
                if unit.host_network {
                    out.push(format!(
                        "host network (M7): `{}` binds to the host network namespace, \
                         bypassing NetworkPolicies",
                        unit.name
                    ));
                }
            }
            Object::Service(svc) => {
                if svc.spec.selector.is_empty() {
                    out.push(format!(
                        "service without target (M5D): `{}` has no selector",
                        svc.meta.qualified_name()
                    ));
                }
                if self.policy.check_unmatched_selectors && !svc.spec.selector.is_empty() {
                    let matches_any = existing.units.iter().any(|u| {
                        u.namespace == svc.meta.namespace
                            && u.labels.contains_all(&svc.spec.selector)
                    });
                    if !matches_any {
                        out.push(format!(
                            "service without target (M5D): `{}` selector `{}` matches no \
                             existing compute unit",
                            svc.meta.qualified_name(),
                            svc.spec.selector
                        ));
                    }
                }
                if !svc.spec.selector.is_empty() {
                    let selected: Vec<_> = existing
                        .units
                        .iter()
                        .filter(|u| {
                            u.namespace == svc.meta.namespace
                                && u.labels.contains_all(&svc.spec.selector)
                        })
                        .collect();
                    if !selected.is_empty() {
                        for sp in &svc.spec.ports {
                            if let ij_model::TargetPort::Number(target) = sp.target_port {
                                let declared =
                                    selected.iter().any(|u| u.declares(target, sp.protocol));
                                if !declared {
                                    out.push(format!(
                                        "undeclared target (M5B): service `{}` forwards to \
                                         {target}/{} which no selected unit declares",
                                        svc.meta.qualified_name(),
                                        sp.protocol
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }
}

impl AdmissionController for GuardAdmission {
    fn name(&self) -> &str {
        "ij-guard"
    }

    fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome {
        let violations = self.violations(review);
        if violations.is_empty() {
            AdmissionOutcome::Allow
        } else if self.policy.enforce {
            AdmissionOutcome::Deny(violations.join("; "))
        } else {
            AdmissionOutcome::Warn(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{Cluster, ClusterConfig, InstallError};
    use ij_model::{
        Container, ContainerPort, Labels, ObjectMeta, Pod, PodSpec, Service, ServicePort,
    };

    fn guarded_cluster(policy: GuardPolicy) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(GuardAdmission::new(policy)));
        cluster
    }

    fn web_pod(name: &str, labels: &[(&str, &str)]) -> Object {
        Object::Pod(Pod::new(
            ObjectMeta::named(name).with_labels(Labels::from_pairs(labels.iter().copied())),
            PodSpec {
                containers: vec![Container::new("c", "img/web")
                    .with_ports(vec![ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        ))
    }

    #[test]
    fn blocks_identical_label_sets() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        cluster.apply(web_pod("legit", &[("app", "web")])).unwrap();
        let err = cluster
            .apply(web_pod("imposter", &[("app", "web")]))
            .unwrap_err();
        assert!(matches!(err, InstallError::Denied { .. }));
        assert!(err.to_string().contains("M4"));
    }

    #[test]
    fn blocks_service_capture() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        cluster
            .apply(web_pod("legit", &[("app", "web"), ("tier", "x")]))
            .unwrap();
        cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("web"),
                Labels::from_pairs([("app", "web")]),
                vec![ServicePort::tcp_to(80, 8080)],
            )))
            .unwrap();
        // Different full label set (so no identical-set collision), but the
        // selector still captures it → impersonation vector, denied.
        let err = cluster
            .apply(web_pod("imposter", &[("app", "web"), ("evil", "yes")]))
            .unwrap_err();
        assert!(err.to_string().contains("service capture"));
    }

    #[test]
    fn blocks_selectorless_service() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        let err = cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("ghost"),
                Labels::new(),
                vec![ServicePort::tcp(80)],
            )))
            .unwrap_err();
        assert!(err.to_string().contains("M5D"));
    }

    #[test]
    fn blocks_undeclared_numeric_target() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        cluster.apply(web_pod("web", &[("app", "web")])).unwrap();
        let err = cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("web-bad"),
                Labels::from_pairs([("app", "web")]),
                vec![ServicePort::tcp_to(80, 9999)],
            )))
            .unwrap_err();
        assert!(err.to_string().contains("M5B"));
    }

    #[test]
    fn allows_well_formed_objects() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        cluster.apply(web_pod("web", &[("app", "web")])).unwrap();
        let warnings = cluster
            .apply(Object::Service(Service::cluster_ip(
                ObjectMeta::named("web"),
                Labels::from_pairs([("app", "web")]),
                vec![ServicePort::tcp_to(80, 8080)],
            )))
            .unwrap();
        assert!(warnings.is_empty());
    }

    #[test]
    fn audit_mode_warns_instead_of_denying() {
        let mut cluster = guarded_cluster(GuardPolicy::audit_only());
        cluster.apply(web_pod("legit", &[("app", "web")])).unwrap();
        let warnings = cluster
            .apply(web_pod("imposter", &[("app", "web")]))
            .unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("label collision"));
        assert_eq!(
            cluster.objects().len(),
            2,
            "object persisted under audit mode"
        );
    }

    #[test]
    fn host_network_flagged() {
        let mut cluster = guarded_cluster(GuardPolicy::default());
        let pod = Object::Pod(Pod::new(
            ObjectMeta::named("exporter"),
            PodSpec {
                containers: vec![Container::new("e", "img/exp")],
                host_network: true,
                node_name: None,
            },
        ));
        let err = cluster.apply(pod).unwrap_err();
        assert!(err.to_string().contains("M7"));
    }
}
