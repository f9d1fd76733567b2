//! Turns an [`AppSpec`] into an installable chart plus the container
//! behaviours that make the runtime deltas real.
//!
//! Every injection is realized with the minimal set of resources that
//! produces exactly one finding of its class and nothing else, so the corpus
//! census is fully determined by the plans (verified by tests in
//! `corpus.rs`).

use crate::spec::AppSpec;
use ij_chart::{Chart, CompiledChart};
use ij_cluster::{BehaviorRegistry, ContainerBehavior, ListenerSpec};
use ij_model::{
    Container, ContainerPort, Labels, Object, ObjectMeta, Pod, PodSpec, Service, ServicePort,
    Workload, WorkloadKind,
};
use std::sync::OnceLock;

/// Well-known ports used by the generated components.
pub mod ports {
    /// The main component's declared & open HTTP port.
    pub const MAIN: u16 = 8080;
    /// Base for M1 undeclared-open ports (`+ i`).
    pub const M1_BASE: u16 = 9200;
    /// Base for M3 declared-never-open ports (`+ i`).
    pub const M3_BASE: u16 = 7100;
    /// M5A component: open port / declared-but-closed target (`+ i`).
    pub const M5A_OPEN: u16 = 8060;
    /// Declared-but-closed port targeted by the M5A service.
    pub const M5A_CLOSED: u16 = 7450;
    /// M5B component port (open & declared).
    pub const M5B_OPEN: u16 = 8070;
    /// Undeclared target used by the M5B service (`+ i`).
    pub const M5B_GHOST: u16 = 9550;
    /// M5C component open port.
    pub const M5C_OPEN: u16 = 5432;
    /// M5C declared-but-closed headless target (`+ i`).
    pub const M5C_CLOSED: u16 = 7650;
    /// M4A collision pair port.
    pub const M4A: u16 = 8090;
    /// M4B double-service component port.
    pub const M4B: u16 = 8085;
    /// M4C subset component port.
    pub const M4C: u16 = 8095;
    /// Global (M4\*) component port.
    pub const M4STAR: u16 = 8055;
    /// hostNetwork exporter port (`+ i`).
    pub const EXPORTER_BASE: u16 = 9100;
    /// Base for clean (finding-free) extra components (`+ i`).
    pub const CLEAN_BASE: u16 = 8200;
}

/// A chart ready to install, with the behaviours backing its runtime story.
#[derive(Debug, Clone)]
pub struct BuiltApp {
    /// The source specification.
    pub spec: AppSpec,
    /// `(image, behaviour)` pairs for the cluster's registry.
    pub behaviors: Vec<(String, ContainerBehavior)>,
    // Private so the chart and its cached compilation can never desync:
    // a swapped-in chart with a stale `compiled` would render one chart
    // and analyze another. Read via `chart()`; build a fresh `BuiltApp`
    // to change the chart.
    chart: Chart,
    compiled: OnceLock<Result<CompiledChart, ij_chart::Error>>,
}

impl BuiltApp {
    /// Wraps a chart and its behaviours; the compiled render form is built
    /// lazily on first use.
    pub fn new(spec: AppSpec, chart: Chart, behaviors: Vec<(String, ContainerBehavior)>) -> Self {
        BuiltApp {
            spec,
            chart,
            behaviors,
            compiled: OnceLock::new(),
        }
    }

    /// The generated chart.
    pub fn chart(&self) -> &Chart {
        &self.chart
    }

    /// A registry holding only this app's behaviours.
    pub fn registry(&self) -> BehaviorRegistry {
        let mut reg = BehaviorRegistry::new();
        for (image, b) in &self.behaviors {
            reg.register(image.clone(), b.clone());
        }
        reg
    }

    /// The compiled chart: all template files parsed exactly once per app.
    /// The census pipeline renders through this instead of re-parsing the
    /// chart on every [`Chart::render`] call.
    pub fn compiled(&self) -> Result<&CompiledChart, ij_chart::Error> {
        self.compiled
            .get_or_init(|| self.chart.compile())
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// The label key shared by all of an app's own components (and used by its
/// synthesized/tight policies).
pub const INSTANCE_KEY: &str = "app.kubernetes.io/instance";

fn image(app: &str, component: &str) -> String {
    format!("sim/{app}/{component}")
}

fn component_labels(app: &str, component: &str) -> Labels {
    Labels::from_pairs([
        (INSTANCE_KEY, app),
        ("app.kubernetes.io/component", component),
    ])
}

fn deployment(app: &str, component: &str, labels: Labels, containers: Vec<Container>) -> Object {
    Object::Workload(Workload {
        kind: WorkloadKind::Deployment,
        meta: ObjectMeta::named(format!("{app}-{component}")),
        replicas: 1,
        selector: ij_model::LabelSelector::from_labels(labels.clone()),
        template: ij_model::PodTemplate {
            labels,
            spec: PodSpec {
                containers,
                host_network: false,
                node_name: None,
            },
        },
    })
}

/// Builds the chart and behaviour set for one specification.
pub fn build_app(spec: &AppSpec) -> BuiltApp {
    let app = spec.name.as_str();
    let plan = &spec.plan;
    let mut objects: Vec<Object> = Vec::new();
    let mut behaviors: Vec<(String, ContainerBehavior)> = Vec::new();

    // --- main component -----------------------------------------------
    let main_labels = component_labels(app, "server");
    let mut main_declared = vec![ContainerPort::named("http", ports::MAIN)];
    let mut main_opens = vec![ListenerSpec::tcp(ports::MAIN)];
    for i in 0..plan.m1 {
        // Open but undeclared.
        main_opens.push(ListenerSpec::tcp(ports::M1_BASE + i as u16));
    }
    for i in 0..plan.m3 {
        // Declared but never opened.
        main_declared.push(ContainerPort::tcp(ports::M3_BASE + i as u16));
    }
    let main_image = image(app, "server");
    if plan.m1 > 0 || plan.m3 > 0 {
        behaviors.push((main_image.clone(), ContainerBehavior::Listeners(main_opens)));
    }
    let mut server = deployment(
        app,
        "server",
        main_labels.clone(),
        vec![Container::new("server", &main_image).with_ports(main_declared)],
    );
    if let Object::Workload(w) = &mut server {
        w.replicas = plan.server_replicas.max(1);
    }
    objects.push(server);
    objects.push(Object::Service(Service::cluster_ip(
        ObjectMeta::named(format!("{app}-server")),
        main_labels.clone(),
        vec![ServicePort::tcp_to_name(ports::MAIN, "http").with_name("http")],
    )));

    // --- clean components: structure without findings -------------------
    // One well-formed deployment + service pair per unit: the declared port
    // is the only open port (unknown images behave exactly as declared) and
    // the service targets it by name, so no rule fires. The corpus
    // archetypes use these to vary application *shape* independently of the
    // injected ground truth.
    for i in 0..plan.clean_components {
        let component = format!("svc{i}");
        let labels = component_labels(app, &component);
        let port = ports::CLEAN_BASE + i as u16;
        objects.push(deployment(
            app,
            &component,
            labels.clone(),
            vec![Container::new("svc", image(app, &component))
                .with_ports(vec![ContainerPort::named("http", port)])],
        ));
        objects.push(Object::Service(Service::cluster_ip(
            ObjectMeta::named(format!("{app}-{component}")),
            labels,
            vec![ServicePort::tcp_to_name(port, "http").with_name("http")],
        )));
    }

    // --- M2: worker components with ephemeral listeners ----------------
    for i in 0..plan.m2 {
        let component = format!("worker{i}");
        let img = image(app, &component);
        behaviors.push((
            img.clone(),
            ContainerBehavior::Listeners(vec![ListenerSpec::ephemeral()]),
        ));
        objects.push(deployment(
            app,
            &component,
            component_labels(app, &component),
            vec![Container::new("worker", &img)],
        ));
    }

    // --- M4A: identical-label pairs ------------------------------------
    for i in 0..plan.m4a {
        let shared = Labels::from_pairs([
            (INSTANCE_KEY, app.to_string()),
            ("app.kubernetes.io/part-of", format!("{app}-shared{i}")),
        ]);
        for side in ["a", "b"] {
            let component = format!("peer{i}{side}");
            objects.push(deployment(
                app,
                &component,
                shared.clone(),
                vec![Container::new("peer", image(app, &component))
                    .with_ports(vec![ContainerPort::tcp(ports::M4A)])],
            ));
        }
    }

    // --- M4B: one component, two services -------------------------------
    for i in 0..plan.m4b {
        let component = format!("dup{i}");
        let labels = component_labels(app, &component);
        objects.push(deployment(
            app,
            &component,
            labels.clone(),
            vec![Container::new("dup", image(app, &component))
                .with_ports(vec![ContainerPort::tcp(ports::M4B)])],
        ));
        for side in ["lb", "direct"] {
            objects.push(Object::Service(Service::cluster_ip(
                ObjectMeta::named(format!("{app}-{component}-{side}")),
                labels.clone(),
                vec![ServicePort::tcp(ports::M4B)],
            )));
        }
    }

    // --- M4C: shared-subset components under one service ---------------
    for i in 0..plan.m4c {
        let share_key = format!("{app}-grp{i}");
        for variant in ["a", "b"] {
            let component = format!("mode{i}{variant}");
            let labels = Labels::from_pairs([
                (INSTANCE_KEY, app.to_string()),
                ("app.kubernetes.io/group", share_key.clone()),
                ("app.kubernetes.io/variant", variant.to_string()),
            ]);
            objects.push(deployment(
                app,
                &component,
                labels,
                vec![Container::new("mode", image(app, &component))
                    .with_ports(vec![ContainerPort::tcp(ports::M4C)])],
            ));
        }
        objects.push(Object::Service(Service::cluster_ip(
            ObjectMeta::named(format!("{app}-grp{i}")),
            Labels::from_pairs([("app.kubernetes.io/group", share_key)]),
            vec![ServicePort::tcp(ports::M4C)],
        )));
    }

    // --- M5A: service to a declared-but-closed port --------------------
    for i in 0..plan.m5a {
        let component = format!("store{i}");
        let labels = component_labels(app, &component);
        let img = image(app, &component);
        behaviors.push((
            img.clone(),
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(ports::M5A_OPEN)]),
        ));
        objects.push(deployment(
            app,
            &component,
            labels.clone(),
            vec![Container::new("store", &img).with_ports(vec![
                ContainerPort::tcp(ports::M5A_OPEN),
                ContainerPort::tcp(ports::M5A_CLOSED + i as u16),
            ])],
        ));
        objects.push(Object::Service(Service::cluster_ip(
            ObjectMeta::named(format!("{app}-{component}")),
            labels,
            vec![ServicePort::tcp_to(
                ports::M5A_OPEN,
                ports::M5A_CLOSED + i as u16,
            )],
        )));
    }

    // --- M5B: service to an undeclared port ----------------------------
    for i in 0..plan.m5b {
        let component = format!("api{i}");
        let labels = component_labels(app, &component);
        objects.push(deployment(
            app,
            &component,
            labels.clone(),
            vec![Container::new("api", image(app, &component))
                .with_ports(vec![ContainerPort::tcp(ports::M5B_OPEN)])],
        ));
        objects.push(Object::Service(Service::cluster_ip(
            ObjectMeta::named(format!("{app}-{component}")),
            labels,
            vec![ServicePort::tcp_to(
                ports::M5B_OPEN,
                ports::M5B_GHOST + i as u16,
            )],
        )));
    }

    // --- M5C: headless service to an unavailable port ------------------
    for i in 0..plan.m5c {
        let component = format!("db{i}");
        let labels = component_labels(app, &component);
        let img = image(app, &component);
        behaviors.push((
            img.clone(),
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(ports::M5C_OPEN)]),
        ));
        objects.push(deployment(
            app,
            &component,
            labels.clone(),
            vec![Container::new("db", &img).with_ports(vec![
                ContainerPort::tcp(ports::M5C_OPEN),
                ContainerPort::tcp(ports::M5C_CLOSED + i as u16),
            ])],
        ));
        objects.push(Object::Service(Service::headless(
            ObjectMeta::named(format!("{app}-{component}-headless")),
            labels,
            vec![ServicePort::tcp_to(
                ports::M5C_OPEN,
                ports::M5C_CLOSED + i as u16,
            )],
        )));
    }

    // --- M5D: services selecting nothing --------------------------------
    for i in 0..plan.m5d {
        objects.push(Object::Service(Service::cluster_ip(
            ObjectMeta::named(format!("{app}-ghost{i}")),
            Labels::from_pairs([("app.kubernetes.io/component", format!("ghost{i}"))]),
            vec![ServicePort::tcp(80)],
        )));
    }

    // --- M7: hostNetwork exporters --------------------------------------
    // Every exporter DaemonSet declares the ports of *all* exporters in the
    // app: they share each node's host namespace, so a pod of one exporter
    // observes the sibling's socket too — declaring the union keeps the M7
    // injection from leaking spurious M1 findings.
    let exporter_ports: Vec<ContainerPort> = (0..plan.m7)
        .map(|i| ContainerPort::tcp(ports::EXPORTER_BASE + i as u16))
        .collect();
    for i in 0..plan.m7 {
        let component = format!("exporter{i}");
        let labels = component_labels(app, &component);
        objects.push(Object::Workload(Workload {
            kind: WorkloadKind::DaemonSet,
            meta: ObjectMeta::named(format!("{app}-{component}")),
            replicas: 1,
            selector: ij_model::LabelSelector::from_labels(labels.clone()),
            template: ij_model::PodTemplate {
                labels,
                spec: PodSpec {
                    containers: vec![Container::new("exporter", image(app, &component))
                        .with_ports(exporter_ports.clone())],
                    host_network: true,
                    node_name: None,
                },
            },
        }));
        // The container actually opens only its own port; the siblings'
        // ports appear in the pod's host-namespace observation anyway.
        behaviors.push((
            image(app, &component),
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(ports::EXPORTER_BASE + i as u16)]),
        ));
    }

    // --- M4*: globally colliding components -----------------------------
    // Deliberately *without* the instance label: the label set must be
    // byte-identical across the applications sharing the token.
    for token in &plan.m4star_tokens {
        objects.push(Object::Pod(Pod::new(
            ObjectMeta::named(format!("{app}-global-{token}"))
                .with_labels(Labels::from_pairs([("app.kubernetes.io/part-of", *token)])),
            PodSpec {
                containers: vec![Container::new("shared", image(app, "global"))
                    .with_ports(vec![ContainerPort::tcp(ports::M4STAR)])],
                ..Default::default()
            },
        )));
    }

    // --- chart assembly --------------------------------------------------
    let mut builder = Chart::builder(app)
        .version(&spec.version)
        .description(format!("synthetic {} chart for {}", spec.org.as_str(), app))
        .values(ij_yaml::ymap! {
            "networkPolicy" => ij_yaml::ymap! {
                "enabled" => spec.plan.netpol.enabled_by_default(),
            },
        });
    // The policy text reads the objects, so render it before they move.
    let netpol = plan
        .netpol
        .defines_policy()
        .then(|| netpol_template(app, plan, &objects));
    for (i, obj) in objects.into_iter().enumerate() {
        // Attach the typed object itself: the compiled render layer clones
        // it per render, with no encode → emit → reparse → decode round trip.
        // `template_object` renders byte-identically to
        // `template(name, obj.to_manifest())`.
        let name = format!("{:02}-{}.yaml", i, obj.kind().to_lowercase());
        builder = builder.template_object(name, obj);
    }
    if let Some(netpol) = netpol {
        // Kept as a gated text template, the shape real charts use.
        builder = builder.template("zz-networkpolicy.yaml", netpol);
    }
    BuiltApp::new(spec.clone(), builder.build(), behaviors)
}

/// The NetworkPolicy template: gated on `networkPolicy.enabled`, selecting
/// all of the app's components via the instance label. Tight policies list
/// the union of declared ports; loose policies allow everything.
fn netpol_template(app: &str, plan: &crate::spec::Plan, objects: &[Object]) -> String {
    let loose = plan.netpol.is_loose();
    let mut out = String::new();
    out.push_str("{{- if .Values.networkPolicy.enabled }}\n");
    out.push_str("apiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\n");
    out.push_str(&format!("metadata:\n  name: {app}-default\n"));
    out.push_str("spec:\n  podSelector:\n    matchLabels:\n");
    out.push_str(&format!("      {INSTANCE_KEY}: {app}\n"));
    out.push_str("  policyTypes:\n    - Ingress\n  ingress:\n");
    if loose {
        // One rule with no peers and no ports: allow everything — the
        // "false sense of security" pattern of §4.3.2.
        out.push_str("    - {}\n");
    } else {
        // Union of declared `(port, protocol)` pairs in object order — the
        // same order `StaticModel::from_objects(objects)` would walk its
        // units, without materializing the model.
        let mut ports: Vec<(u16, ij_model::Protocol)> = Vec::new();
        for obj in objects {
            let containers = match obj {
                Object::Pod(p) => &p.spec.containers,
                Object::Workload(w) => &w.template.spec.containers,
                _ => continue,
            };
            for container in containers {
                for p in &container.ports {
                    let pair = (p.container_port, p.protocol);
                    if !ports.contains(&pair) {
                        ports.push(pair);
                    }
                }
            }
        }
        ports.sort();
        out.push_str("    - ports:\n");
        for (port, protocol) in ports {
            out.push_str(&format!("        - port: {port}\n"));
            if protocol != ij_model::Protocol::Tcp {
                out.push_str(&format!("          protocol: {}\n", protocol.as_str()));
            }
        }
    }
    out.push_str("{{- end }}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Org, Plan};
    use ij_chart::Release;

    fn build(plan: Plan) -> BuiltApp {
        build_app(&AppSpec::new("testapp", Org::Bitnami, "1.0.0", plan))
    }

    #[test]
    fn clean_app_renders_policy_and_two_objects() {
        let built = build(Plan::clean());
        let rendered = built
            .chart()
            .render(&Release::new("testapp", "default"))
            .unwrap();
        assert_eq!(rendered.of_kind("Deployment").count(), 1);
        assert_eq!(rendered.of_kind("Service").count(), 1);
        assert_eq!(rendered.of_kind("NetworkPolicy").count(), 1);
        assert!(built.behaviors.is_empty());
    }

    #[test]
    fn disabled_policy_not_rendered_but_defined() {
        let built = build(Plan {
            netpol: crate::spec::NetpolSpec::DefinedDisabled { loose: false },
            ..Default::default()
        });
        let rendered = built
            .chart()
            .render(&Release::new("testapp", "default"))
            .unwrap();
        assert_eq!(rendered.of_kind("NetworkPolicy").count(), 0);
        assert!(ij_core::chart_defines_network_policies(built.chart()));
        // Force-enable (the §4.3.2 methodology).
        let enabled = Release::new("testapp", "default")
            .with_values_yaml("networkPolicy:\n  enabled: true\n")
            .unwrap();
        let rendered = built.chart().render(&enabled).unwrap();
        assert_eq!(rendered.of_kind("NetworkPolicy").count(), 1);
    }

    #[test]
    fn injections_create_expected_resources() {
        let built = build(Plan {
            m1: 2,
            m2: 1,
            m3: 1,
            m4a: 1,
            m4b: 1,
            m4c: 1,
            m5a: 1,
            m5b: 1,
            m5c: 1,
            m5d: 1,
            m7: 1,
            ..Default::default()
        });
        let rendered = built
            .chart()
            .render(&Release::new("testapp", "default"))
            .unwrap();
        // server + worker + 2×peer + dup + 2×mode + store + api + db = 10
        assert_eq!(rendered.of_kind("Deployment").count(), 10);
        assert_eq!(rendered.of_kind("DaemonSet").count(), 1);
        // server + 2×dup + grp + store + api + headless-db + ghost = 8
        assert_eq!(rendered.of_kind("Service").count(), 8);
        // server (M1/M3 deltas), worker (ephemeral), store, db, exporter
        assert_eq!(built.behaviors.len(), 5);
    }

    #[test]
    fn m4star_component_has_token_only_labels() {
        let built = build(Plan {
            m4star_tokens: vec!["shared-stack"],
            ..Default::default()
        });
        let rendered = built
            .chart()
            .render(&Release::new("testapp", "default"))
            .unwrap();
        let pod = rendered.of_kind("Pod").next().unwrap();
        assert_eq!(pod.meta().labels.len(), 1);
        assert_eq!(
            pod.meta().labels.get("app.kubernetes.io/part-of"),
            Some("shared-stack")
        );
    }
}
