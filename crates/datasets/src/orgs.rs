//! The six-organization corpus: one chart per Table 2 application, whose
//! injected plans sum exactly to Table 2 of the paper (634 findings, 259
//! affected applications), with the named applications of Figures 3a/3b
//! carrying their published profiles and the §4.3.2 policy postures of
//! Figure 4b. (The paper's text says 287 applications; its own Table 2 rows
//! sum to 290 — this corpus follows the table.)

use crate::spec::{AppSpec, NetpolSpec, Org, Plan};

const MISSING: NetpolSpec = NetpolSpec::Missing;
const DISABLED: NetpolSpec = NetpolSpec::DefinedDisabled { loose: false };
const DISABLED_LOOSE: NetpolSpec = NetpolSpec::DefinedDisabled { loose: true };
const ENABLED: NetpolSpec = NetpolSpec::Enabled { loose: false };
const ENABLED_LOOSE: NetpolSpec = NetpolSpec::Enabled { loose: true };

/// The full corpus (290 charts — the sum of Table 2's dataset sizes) in
/// dataset order.
pub fn corpus() -> Vec<AppSpec> {
    let mut apps = Vec::with_capacity(290);
    apps.extend(banzai_cloud());
    apps.extend(bitnami());
    apps.extend(cncf());
    apps.extend(eea());
    apps.extend(prometheus_community());
    apps.extend(wikimedia());
    apps
}

fn spec(name: &str, org: Org, version: &str, plan: Plan) -> AppSpec {
    AppSpec::new(name, org, version, plan)
}

/// Cycles one-unit increments over a set of plans.
struct Spreader {
    cursor: usize,
}

impl Spreader {
    fn new() -> Self {
        Spreader { cursor: 0 }
    }

    fn spread(&mut self, plans: &mut [Plan], n: usize, bump: impl Fn(&mut Plan)) {
        if plans.is_empty() {
            return;
        }
        for _ in 0..n {
            bump(&mut plans[self.cursor % plans.len()]);
            self.cursor += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Banzai Cloud — 51 charts, all affected.
// Table 2 row: M1 13, M2 2, M3 17, M4A 8, M4B 4, M5B 2, M6 51.
// ---------------------------------------------------------------------------
fn banzai_cloud() -> Vec<AppSpec> {
    let org = Org::BanzaiCloud;
    let mut apps = Vec::new();
    // Figure 3b names two istio-operator variants with six concurrent types.
    for name in ["istio-operator", "istio-operator-stable"] {
        apps.push(spec(
            name,
            org,
            "2.1.4",
            Plan {
                m1: 2,
                m2: 1,
                m3: 2,
                m4a: 1,
                m5b: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ));
    }
    // Four operators with mid-weight profiles (Figure 4a's 5–9 band).
    let mediums = [
        ("kafka-operator", true),
        ("logging-operator", true),
        ("vault-operator", false),
        ("thanos-operator", false),
    ];
    for (name, with_m4b) in mediums {
        apps.push(spec(
            name,
            org,
            "0.9.2",
            Plan {
                m1: 1,
                m3: 2,
                m4a: 1,
                m4b: usize::from(with_m4b),
                netpol: MISSING,
                ..Default::default()
            },
        ));
    }
    // The remaining 45 charts: every one lacks policies; the residual
    // counts (M1 5, M3 5, M4A 2, M4B 2) spread across them.
    let names = [
        "allspark",
        "anchore-image-validator",
        "athens",
        "aws-asg-tags",
        "backyards",
        "cadence",
        "cluster-autoscaler-ca",
        "dast-operator",
        "ecr-exporter",
        "espejo",
        "etcd-backup",
        "fluentd-output",
        "gosecrets",
        "hollowtrees",
        "imps",
        "instance-terminator",
        "istio-ingress",
        "jwt-to-rbac",
        "k8s-objectmatcher",
        "kafka-schema-registry",
        "koperator-ui",
        "kube-metrics-adapter",
        "kurun",
        "log-socket",
        "logging-demo",
        "mysql-ha",
        "nodepool-labels-operator",
        "objectstore",
        "one-eye",
        "pipeline-ui",
        "pke-installer",
        "prometheus-jmx",
        "pvc-operator",
        "rawfile-csi",
        "satellite",
        "scale-target",
        "spot-config",
        "spot-scheduler",
        "supertubes",
        "telescopes",
        "terraform-runner",
        "thanos-swap",
        "vault-secrets-webhook",
        "velero-plugin",
        "zorp-ingress",
    ];
    let mut plans: Vec<Plan> = names.iter().map(|_| Plan::default()).collect();
    let mut sp = Spreader::new();
    sp.spread(&mut plans, 5, |p| p.m1 += 1);
    sp.spread(&mut plans, 5, |p| p.m3 += 1);
    sp.spread(&mut plans, 2, |p| p.m4a += 1);
    sp.spread(&mut plans, 2, |p| p.m4b += 1);
    for (name, plan) in names.iter().zip(plans) {
        apps.push(spec(name, org, "1.3.0", plan));
    }
    apps
}

// ---------------------------------------------------------------------------
// Bitnami — 158 charts (base catalog + AKS variants), all affected.
// Table 2 row: M1 106, M2 26, M3 40, M4A 25, M4B 10, M4* 5, M5A 2, M5B 14,
//              M5C 3, M6 156, M7 7.
// ---------------------------------------------------------------------------
fn bitnami() -> Vec<AppSpec> {
    let org = Org::Bitnami;
    let mut apps = vec![
        // Named applications of Figures 3a/3b, with their M4* partner
        // tokens.
        spec(
            "kube-prometheus",
            org,
            "8.15.3",
            Plan {
                m1: 6,
                m2: 1,
                m3: 2,
                m4a: 1,
                m4b: 1,
                m5b: 1,
                m7: 2,
                netpol: MISSING,
                m4star_tokens: vec!["kube-prometheus-stack-operator"],
                ..Default::default()
            },
        ),
        spec(
            "kube-prometheus-aks",
            org,
            "8.1.11",
            Plan {
                m1: 7,
                m2: 1,
                m3: 2,
                m4a: 1,
                m4b: 1,
                m5b: 1,
                m7: 2,
                netpol: MISSING,
                m4star_tokens: vec!["kube-prometheus-stack-operator"],
                ..Default::default()
            },
        ),
        spec(
            "metallb",
            org,
            "4.5.6",
            Plan {
                m1: 7,
                m2: 1,
                m7: 1,
                netpol: MISSING,
                m4star_tokens: vec!["metallb-system"],
                ..Default::default()
            },
        ),
        spec(
            "metallb-aks",
            org,
            "2.0.3",
            Plan {
                m1: 8,
                m2: 1,
                m7: 1,
                netpol: MISSING,
                m4star_tokens: vec!["metallb-system"],
                ..Default::default()
            },
        ),
        spec(
            "pinniped-aks",
            org,
            "0.4.5",
            Plan {
                m1: 4,
                m2: 1,
                m3: 2,
                m4a: 1,
                m5b: 1,
                m7: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "jaeger",
            org,
            "1.2.7",
            Plan {
                m1: 6,
                m2: 1,
                m3: 2,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "clickhouse",
            org,
            "3.5.5",
            Plan {
                m1: 2,
                m2: 1,
                m3: 1,
                m4a: 1,
                m5c: 1,
                netpol: MISSING,
                m4star_tokens: vec!["clickhouse-cluster"],
                ..Default::default()
            },
        ),
        spec(
            "clickhouse-aks",
            org,
            "1.0.3",
            Plan {
                m1: 2,
                m2: 1,
                m3: 1,
                m4b: 1,
                m5c: 1,
                netpol: MISSING,
                m4star_tokens: vec!["clickhouse-cluster"],
                ..Default::default()
            },
        ),
        spec(
            "zookeeper-aks",
            org,
            "10.2.4",
            Plan {
                m1: 1,
                m2: 1,
                m3: 1,
                m4a: 1,
                m5a: 1,
                netpol: MISSING,
                m4star_tokens: vec!["zookeeper-ensemble"],
                ..Default::default()
            },
        ),
        spec(
            "grafana-tempo-aks",
            org,
            "1.4.5",
            Plan {
                m1: 1,
                m2: 1,
                m3: 1,
                m4b: 1,
                m5b: 1,
                netpol: MISSING,
                m4star_tokens: vec!["tempo-stack"],
                ..Default::default()
            },
        ),
        // Two charts with policies enabled by default (hence no M6), still
        // affected through one undeclared port each.
        spec(
            "postgresql",
            org,
            "12.8.0",
            Plan {
                m1: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
        spec(
            "redis",
            org,
            "17.11.3",
            Plan {
                m1: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
        // Six heavy charts (Figure 4a's ≥10 band; the tight half follows in
        // the loop below). The three loose ones are the §4.3.2 Bitnami
        // "affected" charts; their server replicas are sized so the
        // reachable-pod count lands at the paper's 14 (1 dynamic).
        spec(
            "rabbitmq",
            org,
            "11.9.1",
            Plan {
                m1: 5,
                m2: 1,
                m3: 2,
                m4a: 1,
                server_replicas: 5,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "kafka",
            org,
            "22.1.5",
            Plan {
                m1: 5,
                m3: 2,
                m4a: 1,
                server_replicas: 4,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "harbor",
            org,
            "16.7.2",
            Plan {
                m1: 5,
                m3: 2,
                m4a: 1,
                server_replicas: 4,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
    ];
    for name in ["redis-cluster", "mongodb-sharded", "postgresql-ha"] {
        apps.push(spec(
            name,
            org,
            "8.6.1",
            Plan {
                m1: 5,
                m2: 1,
                m3: 2,
                m4a: 1,
                netpol: DISABLED,
                ..Default::default()
            },
        ));
    }

    // Ten mid-weight charts (5–6 findings each).
    let mediums = [
        "mysql",
        "mariadb",
        "cassandra",
        "elasticsearch",
        "etcd",
        "minio",
        "keycloak",
        "spark",
        "airflow",
        "consul",
    ];
    for (i, name) in mediums.iter().enumerate() {
        apps.push(spec(
            name,
            org,
            "10.2.1",
            Plan {
                m1: 2,
                m2: usize::from(i < 2),
                m3: 1,
                m4a: 1,
                netpol: DISABLED,
                ..Default::default()
            },
        ));
    }

    // The remaining 130 charts: base names plus AKS variants. The residual
    // Table 2 counts spread across them; 33 of them complete the 48
    // policy-defining charts of Figure 4b; M4* partners for the AKS-named
    // pairs live here.
    let light_names = light_bitnami_names();
    assert_eq!(light_names.len(), 130, "bitnami catalog arithmetic");
    let mut plans: Vec<Plan> = light_names.iter().map(|_| Plan::default()).collect();
    let mut sp = Spreader::new();
    sp.spread(&mut plans, 10, |p| p.m1 += 1);
    sp.spread(&mut plans, 10, |p| p.m2 += 1);
    sp.spread(&mut plans, 6, |p| p.m3 += 1);
    sp.spread(&mut plans, 4, |p| p.m4a += 1);
    sp.spread(&mut plans, 6, |p| p.m4b += 1);
    sp.spread(&mut plans, 1, |p| p.m5a += 1);
    sp.spread(&mut plans, 10, |p| p.m5b += 1);
    sp.spread(&mut plans, 1, |p| p.m5c += 1);
    for (i, plan) in plans.iter_mut().enumerate() {
        if i < 30 {
            plan.netpol = DISABLED;
        }
    }
    for (name, mut plan) in light_names.iter().zip(plans) {
        match *name {
            "zookeeper" => plan.m4star_tokens.push("zookeeper-ensemble"),
            "grafana-tempo" => plan.m4star_tokens.push("tempo-stack"),
            _ => {}
        }
        apps.push(spec(name, org, "6.4.2", plan));
    }
    apps
}

/// 130 further Bitnami chart names (base catalog plus `-aks` variants).
fn light_bitnami_names() -> Vec<&'static str> {
    vec![
        // Base catalog.
        "zookeeper",
        "grafana-tempo",
        "nginx",
        "wordpress",
        "apache",
        "tomcat",
        "memcached",
        "mongodb",
        "influxdb",
        "solr",
        "ghost",
        "drupal",
        "joomla",
        "magento",
        "moodle",
        "odoo",
        "opencart",
        "osclass",
        "phpbb",
        "prestashop",
        "redmine",
        "suitecrm",
        "dokuwiki",
        "mediawiki-bn",
        "matomo",
        "discourse",
        "harbor-scanner",
        "argo-workflows",
        "appsmith",
        "cert-manager-bn",
        "clamav",
        "concourse-bn",
        "contour",
        "dataplatform",
        "deepspeed",
        "ejbca",
        "external-dns",
        "fluent-bit",
        "fluentd",
        "flink",
        "grafana",
        "grafana-loki",
        "grafana-mimir",
        "haproxy",
        "jenkins",
        "jupyterhub",
        "kibana",
        "kong",
        "kubeapps",
        "kubernetes-event-exporter",
        "kuberay",
        "logstash",
        "mastodon",
        "milvus",
        "mxnet",
        "nats",
        "neo4j",
        "nessie",
        "nginx-ingress-controller",
        "oauth2-proxy",
        "parse",
        "pgpool",
        "phpmyadmin",
        "pytorch",
        "rediscommander",
        "rekor",
        "schema-registry",
        "sealed-secrets",
        "seaweedfs",
        "sonarqube",
        "supabase",
        "tensorflow",
        "thanos-bn",
        "traefik",
        "valkey",
        "vault-bn",
        "whereabouts",
        "wildfly",
        "zipkin",
        "multus",
        // AKS-tailored variants.
        "nginx-aks",
        "wordpress-aks",
        "apache-aks",
        "tomcat-aks",
        "memcached-aks",
        "mongodb-aks",
        "influxdb-aks",
        "solr-aks",
        "ghost-aks",
        "drupal-aks",
        "joomla-aks",
        "magento-aks",
        "moodle-aks",
        "odoo-aks",
        "opencart-aks",
        "osclass-aks",
        "phpbb-aks",
        "prestashop-aks",
        "redmine-aks",
        "suitecrm-aks",
        "dokuwiki-aks",
        "matomo-aks",
        "discourse-aks",
        "argo-workflows-aks",
        "appsmith-aks",
        "contour-aks",
        "ejbca-aks",
        "external-dns-aks",
        "fluent-bit-aks",
        "fluentd-aks",
        "flink-aks",
        "grafana-aks",
        "grafana-loki-aks",
        "haproxy-aks",
        "jenkins-aks",
        "jupyterhub-aks",
        "kibana-aks",
        "kong-aks",
        "kubeapps-aks",
        "logstash-aks",
        "nats-aks",
        "neo4j-aks",
        "oauth2-proxy-aks",
        "parse-aks",
        "pgpool-aks",
        "phpmyadmin-aks",
        "sealed-secrets-aks",
        "sonarqube-aks",
        "traefik-aks",
        "wildfly-aks",
    ]
}

// ---------------------------------------------------------------------------
// CNCF — 10 charts, 7 affected.
// Table 2 row: M1 10, M3 4, M5A 6, M6 7.
// ---------------------------------------------------------------------------
fn cncf() -> Vec<AppSpec> {
    let org = Org::Cncf;
    vec![
        spec(
            "linkerd",
            org,
            "2.13.4",
            Plan {
                m1: 2,
                m5a: 1,
                netpol: DISABLED,
                ..Default::default()
            },
        ),
        spec(
            "argo-cd",
            org,
            "5.36.0",
            Plan {
                m1: 2,
                m3: 1,
                m5a: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "flux2",
            org,
            "2.9.2",
            Plan {
                m1: 2,
                m3: 1,
                m5a: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "etcd-cluster",
            org,
            "9.0.4",
            Plan {
                m1: 2,
                m5a: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "envoy-gateway",
            org,
            "0.4.0",
            Plan {
                m1: 1,
                m5a: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "opentelemetry-collector",
            org,
            "0.62.0",
            Plan {
                m1: 1,
                m3: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "backstage",
            org,
            "1.8.2",
            Plan {
                m3: 1,
                m5a: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec("cert-manager", org, "1.12.2", Plan::clean()),
        spec("coredns", org, "1.24.1", Plan::clean()),
        spec("falco", org, "3.3.0", Plan::clean()),
    ]
}

// ---------------------------------------------------------------------------
// EEA — 19 charts, 8 affected, every chart ships enabled policies (M6 = 0).
// Table 2 row: M1 7, M3 1, M4B 1.
// ---------------------------------------------------------------------------
fn eea() -> Vec<AppSpec> {
    let org = Org::Eea;
    let mut apps = Vec::new();
    // Seven charts with one undeclared port each behind a loose policy;
    // replica sizing backs the §4.3.2 reachable-pod count (13).
    let loose_m1 = [
        ("nessus", 2),
        ("plone", 2),
        ("volto", 2),
        ("eea-website", 2),
        ("climate-adapt", 2),
        ("biodiversity", 2),
        ("copernicus-land", 1),
    ];
    for (name, replicas) in loose_m1 {
        apps.push(spec(
            name,
            org,
            "2.1.0",
            Plan {
                m1: 1,
                server_replicas: replicas,
                netpol: ENABLED_LOOSE,
                ..Default::default()
            },
        ));
    }
    // The eighth affected chart: configuration-only issues.
    apps.push(spec(
        "forests-portal",
        org,
        "1.4.1",
        Plan {
            m3: 1,
            m4b: 1,
            netpol: ENABLED_LOOSE,
            ..Default::default()
        },
    ));
    // Eleven clean charts with tight policies.
    for name in [
        "freshwater",
        "industry-emissions",
        "air-quality",
        "noise-portal",
        "marine-atlas",
        "soil-portal",
        "energy-dashboard",
        "transport-stats",
        "waste-tracker",
        "chemicals-portal",
        "land-monitor",
    ] {
        apps.push(spec(name, org, "1.0.3", Plan::clean()));
    }
    apps
}

// ---------------------------------------------------------------------------
// Prometheus Community — 25 charts, all affected.
// Table 2 row: M1 42, M2 4, M3 3, M5A 1, M5B 4, M6 25, M7 4.
// ---------------------------------------------------------------------------
fn prometheus_community() -> Vec<AppSpec> {
    let org = Org::PrometheusCommunity;
    let mut apps = vec![
        // Figure 3a/3b champion: kube-prometheus-stack, 20 findings, the
        // widest type spread the dataset permits.
        spec(
            "kube-prometheus-stack",
            org,
            "48.4.0",
            Plan {
                m1: 12,
                m2: 1,
                m3: 2,
                m5a: 1,
                m5b: 2,
                m7: 1,
                server_replicas: 15,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "prometheus",
            org,
            "23.4.0",
            Plan {
                m1: 9,
                m2: 1,
                m3: 1,
                m5b: 1,
                server_replicas: 9,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "prometheus-node-exporter",
            org,
            "4.22.0",
            Plan {
                m1: 5,
                m2: 1,
                m7: 1,
                server_replicas: 5,
                netpol: DISABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "prometheus-smartctl-exporter",
            org,
            "0.5.0",
            Plan {
                m1: 4,
                m7: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        // Two more defined-but-disabled charts complete Figure 4b's five.
        spec(
            "alertmanager",
            org,
            "0.33.1",
            Plan {
                m1: 1,
                netpol: DISABLED,
                ..Default::default()
            },
        ),
        spec(
            "pushgateway",
            org,
            "2.4.2",
            Plan {
                m1: 1,
                netpol: DISABLED,
                ..Default::default()
            },
        ),
    ];
    // Nineteen exporters with the residual counts.
    let names = [
        "blackbox-exporter",
        "snmp-exporter",
        "mysql-exporter",
        "postgres-exporter",
        "redis-exporter",
        "elasticsearch-exporter",
        "mongodb-exporter",
        "memcached-exporter",
        "consul-exporter",
        "statsd-exporter",
        "cloudwatch-exporter",
        "stackdriver-exporter",
        "json-exporter",
        "windows-exporter",
        "ipmi-exporter",
        "kafka-exporter",
        "nginx-exporter",
        "process-exporter",
        "systemd-exporter",
    ];
    let mut plans: Vec<Plan> = names.iter().map(|_| Plan::default()).collect();
    let mut sp = Spreader::new();
    sp.spread(&mut plans, 10, |p| p.m1 += 1);
    sp.spread(&mut plans, 1, |p| p.m2 += 1);
    sp.spread(&mut plans, 1, |p| p.m5b += 1);
    sp.spread(&mut plans, 1, |p| p.m7 += 1);
    for (name, plan) in names.iter().zip(plans) {
        apps.push(spec(name, org, "3.1.0", plan));
    }
    apps
}

// ---------------------------------------------------------------------------
// Wikimedia — 27 charts, 10 affected; 25 ship enabled (mostly tight,
// auto-generated) policies, 2 lack policies entirely.
// Table 2 row: M1 10, M2 3, M3 2, M4A 2, M4B 1, M4C 1, M5A 2, M5B 1, M6 2.
// ---------------------------------------------------------------------------
fn wikimedia() -> Vec<AppSpec> {
    let org = Org::Wikimedia;
    let mut apps = vec![
        spec(
            "ipoid",
            org,
            "1.1.0",
            Plan {
                m1: 1,
                m2: 1,
                m4a: 1,
                netpol: ENABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "mediawiki",
            org,
            "0.7.3",
            Plan {
                m1: 2,
                m3: 1,
                m5a: 1,
                server_replicas: 2,
                netpol: ENABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "citoid",
            org,
            "0.4.2",
            Plan {
                m1: 1,
                m2: 1,
                m4b: 1,
                netpol: ENABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "cxserver",
            org,
            "0.9.1",
            Plan {
                m1: 1,
                m2: 1,
                m4c: 1,
                netpol: ENABLED_LOOSE,
                ..Default::default()
            },
        ),
        spec(
            "echostore",
            org,
            "1.2.0",
            Plan {
                m1: 1,
                m3: 1,
                m5a: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
        spec(
            "eventgate",
            org,
            "1.5.4",
            Plan {
                m1: 1,
                m5b: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
        spec(
            "kartotherian",
            org,
            "0.3.8",
            Plan {
                m1: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "mathoid",
            org,
            "0.2.9",
            Plan {
                m1: 1,
                netpol: MISSING,
                ..Default::default()
            },
        ),
        spec(
            "ores",
            org,
            "1.0.6",
            Plan {
                m4a: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
        spec(
            "parsoid",
            org,
            "0.16.1",
            Plan {
                m1: 1,
                netpol: ENABLED,
                ..Default::default()
            },
        ),
    ];
    for name in [
        "proton",
        "push-notifications",
        "recommendation-api",
        "restbase",
        "session-store",
        "shellbox",
        "termbox",
        "wikifeeds",
        "zotero",
        "blubberoid",
        "changeprop",
        "chromium-render",
        "docker-registry",
        "image-suggestion",
        "linkrecommendation",
        "maps",
        "mobileapps",
    ] {
        apps.push(spec(name, org, "0.5.0", Plan::clean()));
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_core::MisconfigId;
    use std::collections::BTreeSet;

    /// Table 2 of the paper, verbatim.
    /// Columns: affected, total, M1, M2, M3, M4A, M4B, M4C, M4*, M5A, M5B,
    /// M5C, M5D, M6, M7.
    const TABLE2: [(&str, [usize; 15]); 6] = [
        (
            "Banzai Cloud",
            [51, 51, 13, 2, 17, 8, 4, 0, 0, 0, 2, 0, 0, 51, 0],
        ),
        (
            "Bitnami",
            [158, 158, 106, 26, 40, 25, 10, 0, 5, 2, 14, 3, 0, 156, 7],
        ),
        ("CNCF", [7, 10, 10, 0, 4, 0, 0, 0, 0, 6, 0, 0, 0, 7, 0]),
        ("EEA", [8, 19, 7, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
        (
            "Prometheus C.",
            [25, 25, 42, 4, 3, 0, 0, 0, 0, 1, 4, 0, 0, 25, 4],
        ),
        (
            "Wikimedia",
            [10, 27, 10, 3, 2, 2, 1, 1, 0, 2, 1, 0, 0, 2, 0],
        ),
    ];

    fn org_apps(org: Org) -> Vec<AppSpec> {
        corpus().into_iter().filter(|a| a.org == org).collect()
    }

    fn planned_m4star_per_org() -> std::collections::BTreeMap<Org, usize> {
        // One finding per token group, attributed to the org of the first
        // app carrying the token (all tokens here are intra-Bitnami).
        let mut groups: std::collections::BTreeMap<&str, Vec<Org>> = Default::default();
        for app in corpus() {
            for t in &app.plan.m4star_tokens {
                groups.entry(t).or_default().push(app.org);
            }
        }
        let mut out: std::collections::BTreeMap<Org, usize> = Default::default();
        for (token, orgs) in groups {
            assert!(orgs.len() >= 2, "token {token} has no partner");
            *out.entry(orgs[0]).or_default() += 1;
        }
        out
    }

    #[test]
    fn corpus_matches_table2_population() {
        // Note: the paper's text says 287 applications, but its own Table 2
        // rows sum to 290 (51+158+10+19+25+27). This corpus reproduces the
        // per-dataset counts of Table 2 exactly, hence 290 charts; the
        // discrepancy is documented in EXPERIMENTS.md.
        let apps = corpus();
        assert_eq!(apps.len(), 290);
        let names: BTreeSet<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names.len(), 290, "duplicate chart names");
    }

    #[test]
    fn plans_reproduce_table2_exactly() {
        let m4star = planned_m4star_per_org();
        for (org, (name, row)) in Org::ALL.iter().zip(TABLE2) {
            assert_eq!(org.as_str(), name);
            let apps = org_apps(*org);
            let [affected, total, m1, m2, m3, m4a, m4b, m4c, m4s, m5a, m5b, m5c, m5d, m6, m7] = row;
            assert_eq!(apps.len(), total, "{name}: total apps");
            assert_eq!(
                apps.iter()
                    .filter(|a| a.plan.expected_local_findings() > 0
                        || !a.plan.m4star_tokens.is_empty())
                    .count(),
                affected,
                "{name}: affected apps"
            );
            let sum =
                |id: MisconfigId| -> usize { apps.iter().map(|a| a.plan.expected_of(id)).sum() };
            assert_eq!(sum(MisconfigId::M1), m1, "{name}: M1");
            assert_eq!(sum(MisconfigId::M2), m2, "{name}: M2");
            assert_eq!(sum(MisconfigId::M3), m3, "{name}: M3");
            assert_eq!(sum(MisconfigId::M4A), m4a, "{name}: M4A");
            assert_eq!(sum(MisconfigId::M4B), m4b, "{name}: M4B");
            assert_eq!(sum(MisconfigId::M4C), m4c, "{name}: M4C");
            assert_eq!(m4star.get(org).copied().unwrap_or(0), m4s, "{name}: M4*");
            assert_eq!(sum(MisconfigId::M5A), m5a, "{name}: M5A");
            assert_eq!(sum(MisconfigId::M5B), m5b, "{name}: M5B");
            assert_eq!(sum(MisconfigId::M5C), m5c, "{name}: M5C");
            assert_eq!(sum(MisconfigId::M5D), m5d, "{name}: M5D");
            assert_eq!(sum(MisconfigId::M6), m6, "{name}: M6");
            assert_eq!(sum(MisconfigId::M7), m7, "{name}: M7");
        }
    }

    #[test]
    fn grand_totals_match_the_paper() {
        let apps = corpus();
        let local: usize = apps.iter().map(|a| a.plan.expected_local_findings()).sum();
        let global: usize = planned_m4star_per_org().values().sum();
        assert_eq!(local + global, 634, "the paper's 634 misconfigurations");
        assert_eq!(
            apps.iter().filter(|a| a.plan.expected_local_findings() > 0 || !a.plan.m4star_tokens.is_empty()).count(),
            259,
            "the paper's 259 affected applications"
        );
        assert_eq!(apps.len(), 290, "sum of Table 2 dataset sizes");
    }

    #[test]
    fn figure4b_policy_definitions() {
        // (dataset, charts defining policies) per Figure 4b.
        for (org, defined) in [
            (Org::Bitnami, 48),
            (Org::Cncf, 4),
            (Org::Eea, 19),
            (Org::PrometheusCommunity, 5),
            (Org::Wikimedia, 25),
            (Org::BanzaiCloud, 0),
        ] {
            let apps = org_apps(org);
            assert_eq!(
                apps.iter()
                    .filter(|a| a.plan.netpol.defines_policy())
                    .count(),
                defined,
                "{}: policy-defining charts",
                org.as_str()
            );
        }
    }

    #[test]
    fn concentration_matches_section_431() {
        let apps = corpus();
        let totals: Vec<usize> = apps
            .iter()
            .map(|a| a.plan.expected_local_findings())
            .collect();
        let total: usize = totals.iter().sum::<usize>() + 5; // + M4*
        let heavy: Vec<usize> = totals.iter().copied().filter(|&t| t >= 10).collect();
        let heavy_share = heavy.len() as f64 / apps.len() as f64;
        let heavy_findings = heavy.iter().sum::<usize>() as f64 / total as f64;
        // §4.3.1: ~5% of apps hold ≥10 findings ≈ 25% of the total.
        assert!(
            (0.03..=0.07).contains(&heavy_share),
            "heavy app share {heavy_share}"
        );
        assert!(
            (0.20..=0.30).contains(&heavy_findings),
            "heavy finding share {heavy_findings}"
        );
        let mid: Vec<usize> = totals
            .iter()
            .copied()
            .filter(|&t| (5..=9).contains(&t))
            .collect();
        let mid_share = mid.len() as f64 / apps.len() as f64;
        let mid_findings = mid.iter().sum::<usize>() as f64 / total as f64;
        // §4.3.1: ~8% of apps hold 5–9 findings ≈ 22% of the total.
        assert!(
            (0.05..=0.11).contains(&mid_share),
            "mid app share {mid_share}"
        );
        assert!(
            (0.15..=0.28).contains(&mid_findings),
            "mid finding share {mid_findings}"
        );
    }

    #[test]
    fn figure3_named_apps_lead_their_rankings() {
        let apps = corpus();
        let mut by_count: Vec<(&str, usize)> = apps
            .iter()
            .map(|a| (a.name.as_str(), a.plan.expected_local_findings()))
            .collect();
        by_count.sort_by_key(|e| std::cmp::Reverse(e.1));
        assert_eq!(by_count[0].0, "kube-prometheus-stack");
        let top10: Vec<&str> = by_count[..10].iter().map(|(n, _)| *n).collect();
        for name in [
            "kube-prometheus-stack",
            "kube-prometheus",
            "kube-prometheus-aks",
            "metallb",
            "metallb-aks",
            "pinniped-aks",
            "jaeger",
            "prometheus",
        ] {
            assert!(
                top10.contains(&name),
                "{name} missing from figure 3a top 10: {top10:?}"
            );
        }
        let mut by_types: Vec<(&str, usize)> = apps
            .iter()
            .map(|a| {
                let types = MisconfigId::ALL
                    .iter()
                    .filter(|&&id| a.plan.expected_of(id) > 0)
                    .count();
                (a.name.as_str(), types)
            })
            .collect();
        by_types.sort_by_key(|e| std::cmp::Reverse(e.1));
        let top: Vec<&str> = by_types[..12].iter().map(|(n, _)| *n).collect();
        for name in [
            "kube-prometheus-stack",
            "kube-prometheus",
            "clickhouse",
            "zookeeper-aks",
        ] {
            assert!(
                top.contains(&name),
                "{name} missing from figure 3b leaders: {top:?}"
            );
        }
    }
}
