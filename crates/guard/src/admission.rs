//! The validating admission controller.

use ij_cluster::{AdmissionController, AdmissionOutcome, AdmissionReview};
use ij_core::{AppView, MisconfigId, RuleContext, RuleRegistry, StaticModel};
use ij_model::{Labels, Object};

/// How the guard enforces its verdict. The verdict itself is always the
/// analyzer's rules over the incoming object's neighbourhood (see
/// [`GuardAdmission`]).
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

/// The rules asked about an incoming compute unit and about an incoming
/// service. Runtime-only M5A and M5C cannot fire without a runtime report.
const UNIT_RULES: &[&str] = &["m4a", "m4c", "m7"];
const SERVICE_RULES: &[&str] = &["m5"];

/// The admission controller; plug into
/// [`ij_cluster::Cluster::push_admission`].
///
/// Each violation is a finding of the analyzer's [`RuleRegistry::standard`]
/// rules over the incoming object and the existing objects of its namespace
/// that it relates to, leaving out the one the apply replaces (same kind
/// and name). For a compute unit (Pod or Workload): the units with its
/// non-empty label set, the services whose selector its labels cover and
/// the units those select, under M4A, M4C and M7. For a service: the units
/// it selects, under M5 (M5B, and M5D; a non-empty selector that matches
/// nothing only under [`GuardPolicy::check_unmatched_selectors`]).
#[derive(Debug, Clone, Default)]
pub struct GuardAdmission {
    /// Enforcement policy.
    pub policy: GuardPolicy,
    rules: RuleRegistry,
}

impl GuardAdmission {
    /// Creates a guard with the given policy.
    pub fn new(policy: GuardPolicy) -> Self {
        GuardAdmission {
            policy,
            rules: RuleRegistry::standard(),
        }
    }

    fn violations(&self, review: &AdmissionReview<'_>) -> Vec<String> {
        let (object, meta) = (review.object, review.object.meta());
        let ns = review.existing.iter().filter(|o| {
            let m = o.meta();
            m.namespace == meta.namespace && (m.name != meta.name || o.kind() != object.kind())
        });
        let covers = |sel: &Labels, o: &Object| unit_labels(o).is_some_and(|l| l.contains_all(sel));
        let selector = service_selector(object);
        let (related, rules): (Vec<&Object>, _) = match unit_labels(object) {
            Some(labels) => {
                let services: Vec<&Object> = ns
                    .clone()
                    .filter(|o| service_selector(o).is_some_and(|s| labels.contains_all(s)))
                    .collect();
                let units = ns.filter(|o| {
                    let twin = unit_labels(o).is_some_and(|l| !l.is_empty() && l == labels);
                    let mut selectors = services.iter().filter_map(|s| service_selector(s));
                    twin || selectors.any(|s| covers(s, o))
                });
                (services.iter().copied().chain(units).collect(), UNIT_RULES)
            }
            None if matches!(object, Object::Service(_)) => {
                let selected = ns.filter(|o| selector.is_some_and(|s| covers(s, o)));
                (selected.collect(), SERVICE_RULES)
            }
            None => return Vec::new(),
        };
        let model = StaticModel::from_objects(std::iter::once(object).chain(related));
        let ctx = RuleContext {
            app: self.name(),
            statics: &model,
            runtime: None,
            ownership: &[],
            chart_defines_policies: false,
        };
        let view = AppView::new(&ctx);
        let name = meta.qualified_name();
        self.rules
            .entries()
            .iter()
            .filter(|rule| rules.contains(&rule.name()))
            .flat_map(|rule| rule.run_view(&view))
            .filter(|f| match f.id {
                // A neighbour's own hostNetwork or collision is not this
                // object's; every service in a unit's model selects it.
                MisconfigId::M4A | MisconfigId::M7 => f.object == name,
                MisconfigId::M5D => selector.is_none() || self.policy.check_unmatched_selectors,
                _ => true,
            })
            .map(|f| format!("{}: {} {}", violation_label(f.id), f.object, f.detail))
            .collect()
    }
}

/// The labels a compute unit's pods carry; `None` for other objects.
fn unit_labels(object: &Object) -> Option<&Labels> {
    match object {
        Object::Pod(p) => Some(&p.meta.labels),
        Object::Workload(w) => Some(&w.template.labels),
        _ => None,
    }
}

/// A service's selector, when it has a non-empty one.
fn service_selector(object: &Object) -> Option<&Labels> {
    match object {
        Object::Service(s) if !s.spec.selector.is_empty() => Some(&s.spec.selector),
        _ => None,
    }
}

/// The violation label of each class the guard reports.
fn violation_label(id: MisconfigId) -> &'static str {
    match id {
        MisconfigId::M4A => "label collision (M4)",
        MisconfigId::M4C => "service capture (M4)",
        MisconfigId::M5B => "undeclared target (M5B)",
        MisconfigId::M5D => "service without target (M5D)",
        MisconfigId::M7 => "host network (M7)",
        other => unreachable!("{other} is not among the guard's rules"),
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
        Container, ContainerPort, Labels, ObjectMeta, Pod, PodSpec, Service, ServicePort, Workload,
    };
    use proptest::prelude::*;

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

    /// The guard's hand-written checks from before it asked the analyzer's
    /// rules, kept as the differential reference. Like the guard, it leaves
    /// out the existing object the apply replaces.
    struct Oracle {
        policy: GuardPolicy,
    }

    impl Oracle {
        fn violations(&self, review: &AdmissionReview<'_>) -> Vec<String> {
            let (kind, meta) = (review.object.kind(), review.object.meta());
            let existing = StaticModel::from_objects(review.existing.iter().filter(|o| {
                let m = o.meta();
                o.kind() != kind || m.name != meta.name || m.namespace != meta.namespace
            }));
            let mut out = Vec::new();
            match review.object {
                Object::Workload(_) | Object::Pod(_) => {
                    let incoming = StaticModel::from_objects(std::slice::from_ref(review.object));
                    let Some(unit) = incoming.units.first() else {
                        return out;
                    };
                    if !unit.labels.is_empty() {
                        for other in &existing.units {
                            if other.namespace == unit.namespace && other.labels == unit.labels {
                                out.push(format!(
                                    "label collision (M4): `{}` would carry the identical label \
                                     set `{}` as existing unit `{}`",
                                    unit.name, unit.labels, other.name
                                ));
                            }
                        }
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
                                        "service capture (M4): `{}` would join the backend set \
                                         of service `{}` alongside its existing targets",
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

    impl AdmissionController for Oracle {
        fn name(&self) -> &str {
            "oracle"
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

    fn oracle_cluster(policy: GuardPolicy) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(Oracle { policy }));
        cluster
    }

    /// Whether `apply` admitted the object without a violation.
    fn clean(outcome: Result<Vec<String>, InstallError>) -> bool {
        outcome.is_ok_and(|warnings| warnings.is_empty())
    }

    #[test]
    fn named_target_no_selected_unit_declares_is_denied_as_m5b() {
        // The analyzer's M5B resolves named targets too; the hand-written
        // check looked at numeric targets only.
        let https = || {
            Object::Service(Service::cluster_ip(
                ObjectMeta::named("web-tls"),
                Labels::from_pairs([("app", "web")]),
                vec![ServicePort::tcp_to_name(443, "https")],
            ))
        };
        let mut guarded = guarded_cluster(GuardPolicy::default());
        let mut oracle = oracle_cluster(GuardPolicy::default());
        guarded.apply(web_pod("web", &[("app", "web")])).unwrap();
        oracle.apply(web_pod("web", &[("app", "web")])).unwrap();
        let err = guarded.apply(https()).unwrap_err();
        assert!(err.to_string().contains("undeclared target (M5B)"), "{err}");
        assert!(err.to_string().contains("`https`"), "{err}");
        assert!(clean(oracle.apply(https())));
    }

    #[test]
    fn a_unit_named_like_a_selected_unit_is_still_a_capture() {
        // A Pod named like a selected Deployment is another object, so it
        // joins a backend set that already has a target. A re-applied Pod
        // replaces the one the service selected: no other target is left.
        let frontend = Labels::from_pairs([("app", "frontend")]);
        let deployment = Object::Workload(Workload::deployment(
            ObjectMeta::named("th-query-frontend"),
            frontend.clone(),
            PodSpec {
                containers: vec![Container::new("c", "img/web")
                    .with_ports(vec![ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        ));
        let service = Object::Service(Service::cluster_ip(
            ObjectMeta::named("th-query-frontend"),
            frontend,
            vec![ServicePort::tcp_to(80, 8080)],
        ));
        let imposter = web_pod("th-query-frontend", &[("app", "frontend"), ("evil", "yes")]);
        for (first, capture) in [
            (deployment, true),
            (web_pod("th-query-frontend", &[("app", "frontend")]), false),
        ] {
            let mut guarded = guarded_cluster(GuardPolicy::default());
            let mut oracle = oracle_cluster(GuardPolicy::default());
            for cluster in [&mut guarded, &mut oracle] {
                cluster.apply(first.clone()).unwrap();
                cluster.apply(service.clone()).unwrap();
                match cluster.apply(imposter.clone()) {
                    Err(err) => assert!(capture && err.to_string().contains("service capture")),
                    Ok(warnings) => assert!(!capture && warnings.is_empty()),
                }
                assert_eq!(cluster.objects().len(), 2, "one object per kind and name");
            }
        }
    }

    /// One generated object: `(kind, name, namespace, labels, hostNetwork,
    /// declared ports, selector, target port)`, each a small index.
    type Op = (u8, u8, u8, (u8, u8, u8), u8, u8, u8, u8);

    fn op_strategy() -> impl Strategy<Value = Op> {
        (
            0u8..3,
            0u8..6,
            0u8..2,
            (0u8..3, 0u8..3, 0u8..3),
            0u8..4,
            0u8..4,
            0u8..3,
            0u8..3,
        )
    }

    /// Builds one object of a stream. Six names shared by every kind make
    /// re-applied names and same-named objects of different kinds common.
    fn build((kind, name, ns, (a, b, c), host, ports, selector, target): Op) -> Object {
        let value = |v: u8| ["", "x", "y"][usize::from(v)];
        let labels = Labels::from_pairs(
            [("a", a), ("b", b), ("c", c)]
                .into_iter()
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| (k, value(v))),
        );
        let meta = ObjectMeta::named(format!("o{name}"))
            .in_namespace(["default", "other"][usize::from(ns)]);
        let declared = [80, 8080]
            .into_iter()
            .enumerate()
            .filter(|&(bit, _)| ports & (1 << bit) != 0)
            .map(|(_, port)| ContainerPort::tcp(port))
            .collect();
        let spec = PodSpec {
            containers: vec![Container::new("c", "img").with_ports(declared)],
            host_network: host == 0,
            node_name: None,
        };
        match kind {
            0 => Object::Pod(Pod::new(meta.with_labels(labels), spec)),
            1 => Object::Workload(Workload::deployment(meta, labels, spec)),
            _ => {
                let selector = match selector {
                    0 => Labels::new(),
                    1 => labels,
                    _ => Labels::from_pairs([("a", "z")]),
                };
                let target = [80, 8080, 9090][usize::from(target)];
                Object::Service(Service::cluster_ip(
                    meta,
                    selector,
                    vec![ServicePort::tcp_to(80, target)],
                ))
            }
        }
    }

    proptest! {
        /// The guard and the hand-written oracle admit and refuse the same
        /// objects of random apply streams, under every policy, and no two
        /// live objects ever share a kind, namespace and name.
        #[test]
        fn guard_agrees_with_the_hand_written_oracle(
            ops in prop::collection::vec(op_strategy(), 1..32),
        ) {
            for enforce in [true, false] {
                for check_unmatched_selectors in [false, true] {
                    let policy = GuardPolicy { enforce, check_unmatched_selectors };
                    let mut guarded = guarded_cluster(policy.clone());
                    let mut oracle = oracle_cluster(policy);
                    for &op in &ops {
                        let object = build(op);
                        let verdict = clean(guarded.apply(object.clone()));
                        prop_assert_eq!(
                            verdict,
                            clean(oracle.apply(object.clone())),
                            "enforce={} strict={}: {:?}",
                            enforce,
                            check_unmatched_selectors,
                            object
                        );
                        let mut identities = std::collections::HashSet::new();
                        for o in guarded.objects() {
                            let meta = o.meta();
                            prop_assert!(
                                identities.insert((o.kind(), &meta.namespace, &meta.name)),
                                "two live {} {}",
                                o.kind(),
                                o.qualified_name()
                            );
                        }
                    }
                }
            }
        }
    }
}
