//! The machine-readable rules (§4.2.1), one function per misconfiguration
//! family. Each rule reads the same per-application [`AppView`] and emits
//! findings; the engine decides which rules run (hybrid vs static-only vs
//! runtime-only).

use crate::finding::{Finding, MisconfigId};
use crate::model::{ComputeUnit, StaticModel};
use ij_model::{Service, TargetPort};
use ij_probe::{ObservedSocket, RuntimeReport};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

/// One application's rule facts, each derived once from a [`RuleContext`]
/// and read by every application rule: the native M1–M7 bodies, the rule
/// language's `unit`, `socket`, `service` and `service_port` scopes, and so
/// the guard. [`crate::Analyzer`] and the guard build one per call.
pub struct AppView<'a> {
    ctx: &'a RuleContext<'a>,
    /// One per compute unit of the static model, in model order.
    pub(crate) units: Vec<UnitFacts<'a>>,
    /// One per service of the static model, in model order.
    pub(crate) services: Vec<SvcFacts<'a>>,
    /// `(service, unit)` index pairs, one per unit a service's selector
    /// covers, by service then unit.
    selection: Vec<(usize, usize)>,
    /// The facts of every service port, by service then port.
    pub(crate) ports: Vec<PortFacts>,
}

/// One compute unit and what its pods showed at runtime. A pod belongs to
/// every unit of its owner's qualified name.
pub(crate) struct UnitFacts<'a> {
    pub(crate) unit: &'a ComputeUnit,
    /// Some pod of the unit was observed (rules about runtime deltas only
    /// make sense then).
    pub(crate) observed: bool,
    /// Some pod of the unit exhibited dynamic ports.
    pub(crate) has_dynamic: bool,
    /// The stable sockets of the unit's pods, sorted and deduplicated.
    pub(crate) stable: Vec<ObservedSocket>,
}

/// One service, with where its selection and its port facts sit in the
/// view.
pub(crate) struct SvcFacts<'a> {
    pub(crate) svc: &'a Service,
    pub(crate) selected: Range<usize>,
    pub(crate) ports: Range<usize>,
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

impl<'a> AppView<'a> {
    /// Derives the view: one pass over the pod ownership table for the
    /// units' runtime facts, one over the services for their selections
    /// and port facts.
    pub fn new(ctx: &'a RuleContext<'a>) -> Self {
        let mut units: Vec<UnitFacts<'a>> = ctx
            .statics
            .units
            .iter()
            .map(|unit| UnitFacts {
                unit,
                observed: false,
                has_dynamic: false,
                stable: Vec::new(),
            })
            .collect();
        for (pod, owner) in ctx.ownership {
            let Some(pr) = ctx.runtime.and_then(|rt| rt.pod(pod)) else {
                continue;
            };
            for facts in units.iter_mut().filter(|u| u.unit.name == *owner) {
                facts.observed = true;
                facts.has_dynamic |= pr.has_dynamic_ports();
                facts.stable.extend_from_slice(&pr.stable);
            }
        }
        for facts in &mut units {
            facts.stable.sort_unstable();
            facts.stable.dedup();
        }
        let mut services = Vec::with_capacity(ctx.statics.services.len());
        let (mut selection, mut ports) = (Vec::new(), Vec::new());
        for (idx, svc) in ctx.statics.services.iter().enumerate() {
            let (first, first_port) = (selection.len(), ports.len());
            let covered = (0..units.len()).filter(|&u| units[u].unit.selected_by(svc));
            selection.extend(covered.map(|u| (idx, u)));
            for sp in &svc.spec.ports {
                let selected = || selection[first..].iter().map(|&(_, u)| &units[u]);
                let resolved = match &sp.target_port {
                    TargetPort::Number(n) => Some(*n),
                    TargetPort::Name(name) => {
                        selected().find_map(|u| u.unit.resolve_port_name(name))
                    }
                };
                let protocol = sp.protocol;
                ports.push(PortFacts {
                    resolved,
                    declared: resolved
                        .is_some_and(|t| selected().any(|u| u.unit.declares(t, protocol))),
                    any_observed: selected().any(|u| u.observed),
                    open: resolved.is_some_and(|port| {
                        selected().any(|u| u.stable.contains(&ObservedSocket { port, protocol }))
                    }),
                });
            }
            services.push(SvcFacts {
                svc,
                selected: first..selection.len(),
                ports: first_port..ports.len(),
            });
        }
        AppView {
            ctx,
            units,
            services,
            selection,
            ports,
        }
    }

    /// The context the view was derived from.
    pub fn ctx(&self) -> &'a RuleContext<'a> {
        self.ctx
    }

    /// The units a service's selector covers, in unit order.
    pub(crate) fn selected(&self, svc: &SvcFacts<'_>) -> impl Iterator<Item = &UnitFacts<'a>> {
        let pairs = &self.selection[svc.selected.clone()];
        pairs.iter().map(|&(_, u)| &self.units[u])
    }

    /// The services covering the unit at index `unit`, in service order.
    pub(crate) fn covering(&self, unit: usize) -> impl Iterator<Item = &SvcFacts<'a>> {
        let pairs = self.selection.iter().filter(move |&&(_, u)| u == unit);
        pairs.map(|&(s, _)| &self.services[s])
    }
}

/// M1 — open ports that are not declared. Stable sockets only: dynamic ones
/// are M2's domain.
pub(crate) fn m1_undeclared_open_ports(view: &AppView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for facts in view.units.iter().filter(|u| u.observed) {
        for socket in &facts.stable {
            if !facts.unit.declares(socket.port, socket.protocol) {
                findings.push(
                    Finding::new(
                        MisconfigId::M1,
                        view.ctx.app,
                        &facts.unit.name,
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
pub(crate) fn m2_dynamic_ports(view: &AppView<'_>) -> Vec<Finding> {
    view.units
        .iter()
        .filter(|u| u.has_dynamic)
        .map(|u| {
            Finding::new(
                MisconfigId::M2,
                view.ctx.app,
                &u.unit.name,
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
/// paper's disjoint per-class accounting in Table 2. A named target counts
/// as the port this unit itself gives the name.
pub(crate) fn m3_declared_not_open(view: &AppView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (u, facts) in view.units.iter().enumerate().filter(|(_, f)| f.observed) {
        let unit = facts.unit;
        let targeted = |port: u16, protocol| {
            view.covering(u).flat_map(|s| &s.svc.spec.ports).any(|sp| {
                sp.protocol == protocol
                    && match &sp.target_port {
                        TargetPort::Number(n) => *n == port,
                        TargetPort::Name(name) => unit.resolve_port_name(name) == Some(port),
                    }
            })
        };
        for (i, (port, protocol)) in unit.declared_ports().enumerate() {
            // Each declared pair once, at its first declaration.
            if unit.declared_ports().position(|d| d == (port, protocol)) != Some(i)
                || targeted(port, protocol)
            {
                continue;
            }
            if !facts.stable.contains(&ObservedSocket { port, protocol }) {
                findings.push(
                    Finding::new(
                        MisconfigId::M3,
                        view.ctx.app,
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

/// M4A — compute unit collision: distinct units carrying identical,
/// non-empty label sets. One finding per collision group.
pub(crate) fn m4a_unit_collisions(view: &AppView<'_>) -> Vec<Finding> {
    collision_groups(&view.ctx.statics.units)
        .into_iter()
        .map(|group| {
            let names: Vec<&str> = group.iter().map(|u| u.name.as_str()).collect();
            Finding::new(
                MisconfigId::M4A,
                view.ctx.app,
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
pub(crate) fn m4b_service_collisions(view: &AppView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let shared = view
        .units
        .iter()
        .enumerate()
        .filter(|&(u, _)| view.covering(u).count() >= 2);
    for (u, facts) in shared {
        let names: Vec<String> = view
            .covering(u)
            .map(|s| s.svc.meta.qualified_name())
            .collect();
        findings.push(Finding::new(
            MisconfigId::M4B,
            view.ctx.app,
            &facts.unit.name,
            format!(
                "multiple services target this compute unit: {}",
                names.join(", ")
            ),
        ));
    }
    findings
}

/// M4C — compute unit subset collision: one service selecting several
/// *unrelated* units (units whose full label sets differ). One finding per
/// service.
pub(crate) fn m4c_subset_collisions(view: &AppView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in view.services.iter().filter(|s| s.selected.len() >= 2) {
        let distinct_label_sets: BTreeSet<String> = view
            .selected(s)
            .map(|u| u.unit.labels.to_string())
            .collect();
        if distinct_label_sets.len() >= 2 {
            let names: Vec<&str> = view.selected(s).map(|u| u.unit.name.as_str()).collect();
            findings.push(Finding::new(
                MisconfigId::M4C,
                view.ctx.app,
                s.svc.meta.qualified_name(),
                format!(
                    "service selector `{}` captures unrelated compute units: {}",
                    s.svc.spec.selector,
                    names.join(", ")
                ),
            ));
        }
    }
    findings
}

/// M5 family — services with incorrect references.
pub(crate) fn m5_service_references(view: &AppView<'_>) -> Vec<Finding> {
    let ctx = view.ctx;
    let mut findings = Vec::new();
    for s in &view.services {
        let svc = s.svc;
        // M5D: no selector, or a selector that matches nothing.
        if s.selected.is_empty() {
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
        for (sp, facts) in svc.spec.ports.iter().zip(&view.ports[s.ports.clone()]) {
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
pub(crate) fn m6_missing_policies(view: &AppView<'_>) -> Vec<Finding> {
    let ctx = view.ctx;
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
pub(crate) fn m7_host_network(view: &AppView<'_>) -> Vec<Finding> {
    view.units
        .iter()
        .filter(|u| u.unit.host_network)
        .map(|u| {
            Finding::new(
                MisconfigId::M7,
                view.ctx.app,
                &u.unit.name,
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
        let findings = m4b_service_collisions(&AppView::new(&ctx(&m, None, &[])));
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
        assert!(m4a_unit_collisions(&AppView::new(&ctx(&m, None, &[]))).is_empty());
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
        let findings = m5_service_references(&AppView::new(&ctx(&m, None, &[])));
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
        assert!(m1_undeclared_open_ports(&AppView::new(&c)).is_empty());
        assert!(m3_declared_not_open(&AppView::new(&c)).is_empty());
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
        let findings = m1_undeclared_open_ports(&AppView::new(&c));
        assert_eq!(findings.len(), 1, "one finding per unit, not per replica");
        assert_eq!(findings[0].port, Some(9100));
    }

    #[test]
    fn m6_silent_on_empty_bundle() {
        let m = statics("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: only-config\n");
        assert!(m6_missing_policies(&AppView::new(&ctx(&m, None, &[]))).is_empty());
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
        let findings = m1_undeclared_open_ports(&AppView::new(&c));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].protocol, Some(ij_model::Protocol::Udp));
    }

    /// Every enabled application rule of `reg` over `c`, canonically
    /// sorted, as `(class, object, port)`.
    fn registry_findings(
        reg: &crate::RuleRegistry,
        c: &RuleContext<'_>,
    ) -> Vec<(MisconfigId, String, Option<u16>)> {
        let mut findings: Vec<Finding> = reg
            .entries()
            .iter()
            .filter(|e| e.is_enabled())
            .flat_map(|e| e.run_app(c))
            .collect();
        crate::sort_canonical(&mut findings);
        findings
            .into_iter()
            .map(|f| (f.id, f.object, f.port))
            .collect()
    }

    /// The findings of the native registry, after checking that the
    /// built-in pack agrees with them on every class the pack covers.
    fn native_findings_agreeing_with_the_pack(
        c: &RuleContext<'_>,
    ) -> Vec<(MisconfigId, String, Option<u16>)> {
        let native = registry_findings(&crate::RuleRegistry::standard(), c);
        let pack = crate::RulePack::builtin();
        let classes: BTreeSet<MisconfigId> = pack.rules().map(|r| r.class()).collect();
        let mut with_pack = crate::RuleRegistry::standard();
        pack.register_into(&mut with_pack).unwrap();
        let covered = |findings: &[(MisconfigId, String, Option<u16>)]| -> Vec<_> {
            findings
                .iter()
                .filter(|f| classes.contains(&f.0))
                .cloned()
                .collect()
        };
        assert_eq!(
            covered(&registry_findings(&with_pack, c)),
            covered(&native),
            "the built-in pack disagrees with the native rules"
        );
        native
    }

    fn pod_runtime(stable: &[u16], dynamic: &[u16]) -> PodRuntime {
        PodRuntime {
            stable: stable
                .iter()
                .map(|&p| ij_probe::ObservedSocket::tcp(p))
                .collect(),
            dynamic: dynamic
                .iter()
                .map(|&p| ij_probe::ObservedSocket::tcp(p))
                .collect(),
        }
    }

    #[test]
    fn named_targets_resolve_per_unit_for_m3_and_through_the_first_unit_for_m5() {
        // `web` is 8080 on the first selected unit and 9090 on the second.
        let m = statics(
            "\
apiVersion: v1
kind: Pod
metadata:
  name: a
  labels:
    app: x
    tier: a
spec:
  containers:
    - name: c
      image: img
      ports:
        - name: web
          containerPort: 8080
---
apiVersion: v1
kind: Pod
metadata:
  name: b
  labels:
    app: x
    tier: b
spec:
  containers:
    - name: c
      image: img
      ports:
        - name: web
          containerPort: 9090
---
apiVersion: v1
kind: Service
metadata:
  name: svc
spec:
  selector:
    app: x
  ports:
    - port: 80
      targetPort: web
",
        );
        let ownership = vec![
            ("default/a".to_string(), "default/a".to_string()),
            ("default/b".to_string(), "default/b".to_string()),
        ];
        let run = |a: &[u16], b: &[u16]| {
            let mut runtime = RuntimeReport::default();
            runtime.pods.insert("default/a".into(), pod_runtime(a, &[]));
            runtime.pods.insert("default/b".into(), pod_runtime(b, &[]));
            native_findings_agreeing_with_the_pack(&ctx(&m, Some(&runtime), &ownership))
        };
        let m3_or_m5 = |findings: Vec<(MisconfigId, String, Option<u16>)>| -> Vec<_> {
            findings
                .into_iter()
                .filter(|f| f.0 == MisconfigId::M3 || f.0.as_str().starts_with("M5"))
                .collect()
        };

        // The second unit never opens its 9090. M3 resolves `web` against
        // that unit itself, so the port counts as service-targeted and M3
        // stays silent; M5 resolves `web` through the first unit, whose
        // 8080 is open.
        assert_eq!(m3_or_m5(run(&[8080], &[])), []);

        // Swap which unit listens: M5 still checks 8080, which no selected
        // unit opens, while M3 stays silent on both units.
        assert_eq!(
            m3_or_m5(run(&[], &[9090])),
            [(MisconfigId::M5A, "default/svc".to_string(), Some(8080))]
        );
    }

    #[test]
    fn units_sharing_a_qualified_name_share_their_pods_sockets() {
        // A Deployment and a StatefulSet both named `web`: runtime facts
        // are keyed by the owner's qualified name, so both units see the
        // pod `default/web-0`.
        let m = statics(
            "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
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
---
apiVersion: apps/v1
kind: StatefulSet
metadata:
  name: web
spec:
  selector:
    matchLabels:
      app: db
  template:
    metadata:
      labels:
        app: db
    spec:
      containers:
        - name: c
          image: img
          ports:
            - containerPort: 9000
",
        );
        let mut runtime = RuntimeReport::default();
        runtime
            .pods
            .insert("default/web-0".into(), pod_runtime(&[80, 9100], &[40000]));
        let ownership = vec![("default/web-0".to_string(), "default/web".to_string())];
        let findings = native_findings_agreeing_with_the_pack(&ctx(&m, Some(&runtime), &ownership));
        let web = |id, port| (id, "default/web".to_string(), port);
        let runtime_classes: Vec<_> = findings
            .into_iter()
            .filter(|f| matches!(f.0, MisconfigId::M1 | MisconfigId::M2 | MisconfigId::M3))
            .collect();
        assert_eq!(
            runtime_classes,
            [
                // The StatefulSet does not declare 80 and neither unit
                // declares 9100.
                web(MisconfigId::M1, Some(80)),
                web(MisconfigId::M1, Some(9100)),
                web(MisconfigId::M1, Some(9100)),
                web(MisconfigId::M2, None),
                web(MisconfigId::M2, None),
                // The StatefulSet's declared 9000 is never opened.
                web(MisconfigId::M3, Some(9000)),
            ]
        );
    }
}
