//! The machine-readable rules (§4.2.1), one function per misconfiguration
//! family. Each rule takes the same context and emits findings; the engine
//! decides which rules run (hybrid vs static-only vs runtime-only).

use crate::finding::{Finding, MisconfigId};
use crate::model::{ComputeUnit, StaticModel};
use ij_model::{Protocol, Service, ServicePort, TargetPort};
use ij_probe::{ObservedSocket, RuntimeReport};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a rule may look at.
pub struct RuleContext<'a> {
    /// Application (release) under analysis.
    pub app: &'a str,
    /// Static model from the rendered objects.
    pub statics: &'a StaticModel,
    /// Runtime observations (absent in static-only mode).
    pub runtime: Option<&'a RuntimeReport>,
    /// `(pod qualified name, owning unit qualified name)` pairs; bare pods
    /// own themselves.
    pub ownership: &'a [(String, String)],
    /// True when the chart's template set defines NetworkPolicy resources
    /// (even if none rendered) — distinguishes the two M6 flavours.
    pub chart_defines_policies: bool,
}

impl<'a> RuleContext<'a> {
    /// Stable sockets observed across all pods of a unit (deduplicated).
    pub(crate) fn unit_stable(&self, unit: &str) -> BTreeSet<ObservedSocket> {
        let mut out = BTreeSet::new();
        let Some(rt) = self.runtime else { return out };
        for (pod, owner) in self.ownership {
            if owner == unit {
                if let Some(pr) = rt.pod(pod) {
                    out.extend(pr.stable.iter().copied());
                }
            }
        }
        out
    }

    /// True when any pod of the unit exhibited dynamic ports.
    pub(crate) fn unit_has_dynamic(&self, unit: &str) -> bool {
        let Some(rt) = self.runtime else { return false };
        self.ownership
            .iter()
            .filter(|(_, owner)| owner == unit)
            .any(|(pod, _)| rt.pod(pod).is_some_and(|p| p.has_dynamic_ports()))
    }

    /// True when a pod of the unit has the stable socket open (only
    /// observed units can).
    pub(crate) fn unit_listens(&self, unit: &str, socket: ObservedSocket) -> bool {
        let Some(rt) = self.runtime else { return false };
        self.ownership.iter().any(|(pod, owner)| {
            owner == unit && rt.pod(pod).is_some_and(|p| p.stable.contains(&socket))
        })
    }

    /// True when the unit has at least one observed pod (rules about
    /// runtime deltas only make sense then).
    pub(crate) fn unit_observed(&self, unit: &str) -> bool {
        let Some(rt) = self.runtime else { return false };
        self.ownership
            .iter()
            .any(|(pod, owner)| owner == unit && rt.pod(pod).is_some())
    }
}

/// One service with its selection resolved.
pub(crate) struct SvcView<'a> {
    pub(crate) svc: &'a Service,
    pub(crate) selected: Vec<&'a ComputeUnit>,
}

impl<'a> SvcView<'a> {
    pub(crate) fn new(ctx: &RuleContext<'a>, svc: &'a Service) -> Self {
        SvcView {
            svc,
            selected: ctx.statics.units_selected_by(svc),
        }
    }
}

/// What one service port mapping reaches among the service's selected
/// units. Native M5 and the rule language's `port.*` attributes both read
/// these facts.
pub(crate) struct PortFacts {
    /// The target port number: numeric targets as given, named targets
    /// through the first selected unit that declares the name.
    pub(crate) resolved: Option<u16>,
    /// Some selected unit declares the resolved target.
    pub(crate) declared: bool,
    /// The probe observed at least one selected unit.
    pub(crate) any_observed: bool,
    /// An observed selected unit listens on the resolved target.
    pub(crate) open: bool,
}

impl PortFacts {
    pub(crate) fn compute(ctx: &RuleContext<'_>, view: &SvcView<'_>, sp: &ServicePort) -> Self {
        let resolved = match &sp.target_port {
            TargetPort::Number(n) => Some(*n),
            TargetPort::Name(name) => view.selected.iter().find_map(|u| u.resolve_port_name(name)),
        };
        let declared =
            resolved.is_some_and(|t| view.selected.iter().any(|u| u.declares(t, sp.protocol)));
        let any_observed = view.selected.iter().any(|u| ctx.unit_observed(&u.name));
        let open = resolved.is_some_and(|port| {
            let socket = ObservedSocket {
                port,
                protocol: sp.protocol,
            };
            view.selected
                .iter()
                .any(|u| ctx.unit_listens(&u.name, socket))
        });
        PortFacts {
            resolved,
            declared,
            any_observed,
            open,
        }
    }
}

/// M1 — open ports that are not declared. Stable sockets only: dynamic ones
/// are M2's domain.
pub(crate) fn m1_undeclared_open_ports(ctx: &RuleContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in &ctx.statics.units {
        if !ctx.unit_observed(&unit.name) {
            continue;
        }
        for socket in ctx.unit_stable(&unit.name) {
            if !unit.declares(socket.port, socket.protocol) {
                findings.push(
                    Finding::new(
                        MisconfigId::M1,
                        ctx.app,
                        &unit.name,
                        format!(
                            "container listens on {}/{} but the port is not declared",
                            socket.port, socket.protocol
                        ),
                    )
                    .with_port(socket.port, socket.protocol),
                );
            }
        }
    }
    findings
}

/// M2 — dynamic (ephemeral) ports, one finding per affected compute unit.
pub(crate) fn m2_dynamic_ports(ctx: &RuleContext<'_>) -> Vec<Finding> {
    ctx.statics
        .units
        .iter()
        .filter(|u| ctx.unit_has_dynamic(&u.name))
        .map(|u| {
            Finding::new(
                MisconfigId::M2,
                ctx.app,
                &u.name,
                "container allocates OS-assigned ephemeral ports that change across restarts",
            )
        })
        .collect()
}

/// M3 — declared ports that are not open.
///
/// Ports that a service forwards to are excluded here: when a *service*
/// references a declared-but-closed port the issue is classified as M5A (or
/// M5C for headless services), not double-counted as M3 — matching the
/// paper's disjoint per-class accounting in Table 2.
pub(crate) fn m3_declared_not_open(ctx: &RuleContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in &ctx.statics.units {
        if !ctx.unit_observed(&unit.name) {
            continue;
        }
        let service_targets = service_targeted_ports(ctx.statics, unit);
        let stable = ctx.unit_stable(&unit.name);
        let mut seen: BTreeSet<(u16, Protocol)> = BTreeSet::new();
        for (port, protocol) in unit.declared_ports() {
            if !seen.insert((port, protocol)) {
                continue;
            }
            if service_targets.contains(&(port, protocol)) {
                continue;
            }
            if !stable.contains(&ObservedSocket { port, protocol }) {
                findings.push(
                    Finding::new(
                        MisconfigId::M3,
                        ctx.app,
                        &unit.name,
                        format!("declared port {port}/{protocol} is never opened at runtime"),
                    )
                    .with_port(port, protocol),
                );
            }
        }
    }
    findings
}

/// The `(port, protocol)` pairs that services selecting `unit` forward to.
fn service_targeted_ports(statics: &StaticModel, unit: &ComputeUnit) -> BTreeSet<(u16, Protocol)> {
    let mut out = BTreeSet::new();
    for svc in &statics.services {
        if svc.spec.selector.is_empty()
            || svc.meta.namespace != unit.namespace
            || !unit.labels.contains_all(&svc.spec.selector)
        {
            continue;
        }
        for sp in &svc.spec.ports {
            let resolved = match &sp.target_port {
                TargetPort::Number(n) => Some(*n),
                TargetPort::Name(name) => unit.resolve_port_name(name),
            };
            if let Some(port) = resolved {
                out.insert((port, sp.protocol));
            }
        }
    }
    out
}

/// M4A — compute unit collision: distinct units carrying identical,
/// non-empty label sets. One finding per collision group.
pub(crate) fn m4a_unit_collisions(ctx: &RuleContext<'_>) -> Vec<Finding> {
    collision_groups(&ctx.statics.units)
        .into_iter()
        .map(|group| {
            let names: Vec<&str> = group.iter().map(|u| u.name.as_str()).collect();
            Finding::new(
                MisconfigId::M4A,
                ctx.app,
                names[0],
                format!(
                    "compute units share the identical label set `{}`: {}",
                    group[0].labels,
                    names.join(", ")
                ),
            )
        })
        .collect()
}

/// Groups units by `(namespace, full label set)`, returning groups of ≥2.
fn collision_groups(units: &[ComputeUnit]) -> Vec<Vec<&ComputeUnit>> {
    let mut by_labels: BTreeMap<(String, String), Vec<&ComputeUnit>> = BTreeMap::new();
    for u in units {
        if u.labels.is_empty() {
            continue;
        }
        by_labels
            .entry((u.namespace.clone(), u.labels.to_string()))
            .or_default()
            .push(u);
    }
    by_labels.into_values().filter(|g| g.len() >= 2).collect()
}

/// M4B — service label collision: two or more services targeting the same
/// compute unit. One finding per unit.
pub(crate) fn m4b_service_collisions(ctx: &RuleContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in &ctx.statics.units {
        let selecting: Vec<&Service> = ctx
            .statics
            .services
            .iter()
            .filter(|s| {
                !s.spec.selector.is_empty()
                    && s.meta.namespace == unit.namespace
                    && unit.labels.contains_all(&s.spec.selector)
            })
            .collect();
        if selecting.len() >= 2 {
            let names: Vec<String> = selecting.iter().map(|s| s.meta.qualified_name()).collect();
            findings.push(Finding::new(
                MisconfigId::M4B,
                ctx.app,
                &unit.name,
                format!(
                    "multiple services target this compute unit: {}",
                    names.join(", ")
                ),
            ));
        }
    }
    findings
}

/// M4C — compute unit subset collision: one service selecting several
/// *unrelated* units (units whose full label sets differ). One finding per
/// service.
pub(crate) fn m4c_subset_collisions(ctx: &RuleContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for svc in &ctx.statics.services {
        let selected = ctx.statics.units_selected_by(svc);
        if selected.len() < 2 {
            continue;
        }
        let distinct_label_sets: BTreeSet<String> =
            selected.iter().map(|u| u.labels.to_string()).collect();
        if distinct_label_sets.len() >= 2 {
            let names: Vec<&str> = selected.iter().map(|u| u.name.as_str()).collect();
            findings.push(Finding::new(
                MisconfigId::M4C,
                ctx.app,
                svc.meta.qualified_name(),
                format!(
                    "service selector `{}` captures unrelated compute units: {}",
                    svc.spec.selector,
                    names.join(", ")
                ),
            ));
        }
    }
    findings
}

/// M5 family — services with incorrect references.
pub(crate) fn m5_service_references(ctx: &RuleContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for svc in &ctx.statics.services {
        let view = SvcView::new(ctx, svc);
        // M5D: no selector, or a selector that matches nothing.
        if view.selected.is_empty() {
            let why = if svc.spec.selector.is_empty() {
                "service has no selector".to_string()
            } else {
                format!("selector `{}` matches no compute unit", svc.spec.selector)
            };
            findings.push(Finding::new(
                MisconfigId::M5D,
                ctx.app,
                svc.meta.qualified_name(),
                why,
            ));
            continue;
        }
        for sp in &svc.spec.ports {
            let facts = PortFacts::compute(ctx, &view, sp);
            let (id, detail, port) = match (facts.resolved, &sp.target_port) {
                // A named target no selected unit declares.
                (None, TargetPort::Name(name)) => (
                    MisconfigId::M5B,
                    format!("service targets port name `{name}` that no selected unit declares"),
                    sp.port,
                ),
                (None, TargetPort::Number(_)) => unreachable!("numbers always resolve"),
                (Some(target), _) if !facts.declared => (
                    MisconfigId::M5B,
                    format!(
                        "service targets {target}/{} which no selected unit declares",
                        sp.protocol
                    ),
                    target,
                ),
                // Declared but not open: needs runtime evidence about at
                // least one selected unit.
                (Some(target), _) if ctx.runtime.is_some() && facts.any_observed && !facts.open => {
                    let (id, what) = if svc.is_headless() {
                        (MisconfigId::M5C, "headless service port is not available")
                    } else {
                        (
                            MisconfigId::M5A,
                            "service targets a declared but unopened port",
                        )
                    };
                    (id, format!("{what}: {target}/{}", sp.protocol), target)
                }
                (Some(_), _) => continue,
            };
            findings.push(
                Finding::new(id, ctx.app, svc.meta.qualified_name(), detail)
                    .with_port(port, sp.protocol),
            );
        }
    }
    findings
}

/// M6 — lack of (enabled) network policies: nothing rendered a
/// NetworkPolicy. The detail distinguishes "none defined" from "defined in
/// the chart but not enabled".
pub(crate) fn m6_missing_policies(ctx: &RuleContext<'_>) -> Vec<Finding> {
    if !ctx.statics.policies.is_empty() {
        return Vec::new();
    }
    if ctx.statics.units.is_empty() {
        // Nothing to protect; an empty bundle is not a finding.
        return Vec::new();
    }
    let detail = if ctx.chart_defines_policies {
        "chart defines NetworkPolicies but they are not enabled by default"
    } else {
        "no NetworkPolicy restricts the application's pods"
    };
    vec![Finding::new(MisconfigId::M6, ctx.app, ctx.app, detail)]
}

/// M7 — compute units binding to the host network.
pub(crate) fn m7_host_network(ctx: &RuleContext<'_>) -> Vec<Finding> {
    ctx.statics
        .units
        .iter()
        .filter(|u| u.host_network)
        .map(|u| {
            Finding::new(
                MisconfigId::M7,
                ctx.app,
                &u.name,
                "pod template sets hostNetwork: true, bypassing NetworkPolicies",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StaticModel;
    use ij_model::decode_manifests;
    use ij_probe::{PodRuntime, RuntimeReport};

    fn statics(src: &str) -> StaticModel {
        StaticModel::from_objects(&decode_manifests(src).unwrap())
    }

    fn ctx<'a>(
        statics: &'a StaticModel,
        runtime: Option<&'a RuntimeReport>,
        ownership: &'a [(String, String)],
    ) -> RuleContext<'a> {
        RuleContext {
            app: "test",
            statics,
            runtime,
            ownership,
            chart_defines_policies: false,
        }
    }

    const TWO_NS_SERVICES: &str = "\
apiVersion: v1
kind: Pod
metadata:
  name: web
  labels:
    app: web
spec:
  containers:
    - name: c
      image: img
      ports:
        - containerPort: 80
---
apiVersion: v1
kind: Service
metadata:
  name: svc-a
spec:
  selector:
    app: web
  ports:
    - port: 80
---
apiVersion: v1
kind: Service
metadata:
  name: svc-b
  namespace: other
spec:
  selector:
    app: web
  ports:
    - port: 80
";

    #[test]
    fn m4b_ignores_cross_namespace_services() {
        // Two services share a selector, but they live in different
        // namespaces, so only one can actually target the pod: no M4B.
        let m = statics(TWO_NS_SERVICES);
        let findings = m4b_service_collisions(&ctx(&m, None, &[]));
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn m4a_ignores_cross_namespace_label_twins() {
        let m = statics(
            "\
apiVersion: v1
kind: Pod
metadata:
  name: a
  labels:
    app: twin
spec:
  containers:
    - name: c
      image: img
---
apiVersion: v1
kind: Pod
metadata:
  name: b
  namespace: other
  labels:
    app: twin
spec:
  containers:
    - name: c
      image: img
",
        );
        assert!(m4a_unit_collisions(&ctx(&m, None, &[])).is_empty());
    }

    #[test]
    fn m5b_unresolvable_named_target() {
        let m = statics(
            "\
apiVersion: v1
kind: Pod
metadata:
  name: web
  labels:
    app: web
spec:
  containers:
    - name: c
      image: img
      ports:
        - name: http
          containerPort: 80
---
apiVersion: v1
kind: Service
metadata:
  name: svc
spec:
  selector:
    app: web
  ports:
    - port: 443
      targetPort: https
",
        );
        let findings = m5_service_references(&ctx(&m, None, &[]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].id, MisconfigId::M5B);
        assert!(findings[0].detail.contains("https"));
    }

    #[test]
    fn port_rules_skip_units_without_observed_pods() {
        // A workload whose pods never came up (e.g. image pull failure in a
        // real cluster): no runtime evidence, so no M1/M3 claims about it.
        let m = statics(
            "\
apiVersion: v1
kind: Pod
metadata:
  name: web
  labels:
    app: web
spec:
  containers:
    - name: c
      image: img
      ports:
        - containerPort: 80
",
        );
        let runtime = RuntimeReport::default(); // no pods observed
        let ownership: Vec<(String, String)> = vec![];
        let c = ctx(&m, Some(&runtime), &ownership);
        assert!(m1_undeclared_open_ports(&c).is_empty());
        assert!(m3_declared_not_open(&c).is_empty());
    }

    #[test]
    fn m1_dedupes_across_replicas() {
        let m = statics(
            "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 3
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
        - name: c
          image: img
          ports:
            - containerPort: 80
",
        );
        let mut runtime = RuntimeReport::default();
        let mut ownership = Vec::new();
        for i in 0..3 {
            let pod = format!("default/web-{i}");
            runtime.pods.insert(
                pod.clone(),
                PodRuntime {
                    stable: vec![
                        ij_probe::ObservedSocket::tcp(80),
                        ij_probe::ObservedSocket::tcp(9100),
                    ],
                    dynamic: vec![],
                },
            );
            ownership.push((pod, "default/web".to_string()));
        }
        let c = ctx(&m, Some(&runtime), &ownership);
        let findings = m1_undeclared_open_ports(&c);
        assert_eq!(findings.len(), 1, "one finding per unit, not per replica");
        assert_eq!(findings[0].port, Some(9100));
    }

    #[test]
    fn m6_silent_on_empty_bundle() {
        let m = statics("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: only-config\n");
        assert!(m6_missing_policies(&ctx(&m, None, &[])).is_empty());
    }

    #[test]
    fn m2_protocol_specific_declarations() {
        // A UDP listener on a port that is declared as TCP only is still M1.
        let m = statics(
            "\
apiVersion: v1
kind: Pod
metadata:
  name: dns
  labels:
    app: dns
spec:
  containers:
    - name: c
      image: img
      ports:
        - containerPort: 53
",
        );
        let mut runtime = RuntimeReport::default();
        runtime.pods.insert(
            "default/dns".to_string(),
            PodRuntime {
                stable: vec![
                    ij_probe::ObservedSocket::tcp(53),
                    ij_probe::ObservedSocket::udp(53),
                ],
                dynamic: vec![],
            },
        );
        let ownership = vec![("default/dns".to_string(), "default/dns".to_string())];
        let c = ctx(&m, Some(&runtime), &ownership);
        let findings = m1_undeclared_open_ports(&c);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].protocol, Some(ij_model::Protocol::Udp));
    }
}
