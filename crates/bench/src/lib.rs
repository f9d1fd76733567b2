//! # ij-bench — regenerating every table and figure of the paper
//!
//! Each experiment of the evaluation section has a function here that runs
//! the full pipeline and renders the artifact as text; the `repro` binary
//! prints them. Timing is the repository benchmark's job (`perfbench/`);
//! this crate keeps the census memory and allocation gates beside it.
//!
//! | artifact | function |
//! |---|---|
//! | Table 2 (misconfiguration census) | [`table2`] |
//! | Table 3 (tool comparison) | [`table3`] |
//! | Figure 3a (top-10 by count) | [`fig3a`] |
//! | Figure 3b (top-10 by types) | [`fig3b`] |
//! | Figure 4a (distribution + concentration) | [`fig4a`] |
//! | Figure 4b (policy impact) | [`fig4b`] |
//! | §4.3.1 use-case averages | [`averages`] |
//! | defense ablation (ij-guard) | [`defense`] |
//! | ground-truth precision/recall | [`score`] |

use ij_baselines::run_comparison;
use ij_chart::Release;
use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
use ij_core::{Census, MisconfigId, StaticModel};
use ij_datasets::{build_app, corpus, representative_charts, CensusPipeline};
use ij_guard::{GuardAdmission, GuardPolicy, PolicySynthesizer};
use ij_model::{Container, Object, ObjectMeta, Pod, PodSpec};
use ij_probe::ReachMatrix;

/// Runs the census over the full corpus with default options: one worker,
/// since the result is byte-identical for every thread count (enforced by
/// the root determinism suites).
pub fn full_census() -> Census {
    CensusPipeline::builder()
        .build()
        .run(&corpus())
        .expect("the synthetic corpus renders and installs")
}

/// Peak resident-set size of this process in kibibytes, from the kernel's
/// `VmHWM` high-water mark — the number recorded in the `peak_rss` rows of
/// `BENCH_corpus.json`. Returns `None` off Linux (or if
/// `/proc/self/status` is unreadable); callers treat that as "cannot
/// measure", not as zero.
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Precision/recall of the hybrid analyzer against the corpus ground truth
/// (the measurement the original study could not make, §6.3).
pub fn score() -> String {
    let specs = corpus();
    let pipeline = CensusPipeline::builder().build();
    let mut results: Vec<(usize, Vec<ij_core::Finding>)> = Vec::new();
    for (i, app_spec) in specs.iter().enumerate() {
        let built = build_app(app_spec);
        let analysis = pipeline
            .analyze_one(&built)
            .expect("the synthetic corpus renders and installs");
        results.push((i, analysis.findings));
    }
    let report = ij_datasets::score_corpus(results.iter().map(|(i, f)| (&specs[*i], f.as_slice())));
    format!(
        "Ground-truth scoring of the hybrid analyzer over the full corpus
{}",
        report.render()
    )
}

/// Table 2: the misconfiguration census per dataset.
pub fn table2(census: &Census) -> String {
    let mut out = String::new();
    out.push_str("Table 2 — breakdown of network misconfigurations by dataset\n");
    out.push_str(&format!(
        "{:<14} {:>9} {:>5} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}\n",
        "Dataset", "Affected", "M1", "M2", "M3", "M4A", "M4B", "M4C", "M4*", "M5A", "M5B", "M5C",
        "M5D", "M6", "M7"
    ));
    let mut totals = [0usize; 13];
    let (mut aff, mut tot) = (0usize, 0usize);
    for row in census.table2() {
        out.push_str(&format!(
            "{:<14} {:>5}/{:<3}",
            row.dataset, row.affected, row.total_apps
        ));
        for (i, id) in MisconfigId::ALL.iter().enumerate() {
            out.push_str(&format!(" {:>4}", row.count(*id)));
            totals[i] += row.count(*id);
        }
        out.push('\n');
        aff += row.affected;
        tot += row.total_apps;
    }
    out.push_str(&format!("{:<14} {:>5}/{:<3}", "Total", aff, tot));
    for t in totals {
        out.push_str(&format!(" {:>4}", t));
    }
    out.push_str(&format!(
        "\nTotal misconfigurations: {}\n",
        census.total_misconfigurations()
    ));
    out
}

/// Table 3: the tool-comparison matrix.
pub fn table3() -> String {
    let mut out = String::new();
    out.push_str("Table 3 — misconfigurations detected by tools vs our solution\n");
    out.push_str(&format!("{:<14} {:<8} {:<9}", "Tool", "Version", "Type"));
    for id in MisconfigId::ALL {
        out.push_str(&format!(" {:>4}", id.as_str()));
    }
    out.push('\n');
    for row in run_comparison() {
        out.push_str(&format!(
            "{:<14} {:<8} {:<9}",
            row.tool, row.version, row.kind
        ));
        for id in MisconfigId::ALL {
            out.push_str(&format!(" {:>4}", row.cell(id).symbol()));
        }
        out.push('\n');
    }
    out
}

/// Figure 3a: the ten applications with the most misconfigurations, as a
/// horizontal bar chart with per-class stacking annotation.
pub fn fig3a(census: &Census) -> String {
    let mut out = String::new();
    out.push_str("Figure 3a — ten applications with the highest number of misconfigurations\n");
    for app in census.top_by_count(10) {
        out.push_str(&bar_line(
            &app.app,
            &app.dataset,
            &app.version,
            app.total(),
            app,
        ));
    }
    out
}

/// Figure 3b: the ten applications with the most distinct misconfiguration
/// types.
pub fn fig3b(census: &Census) -> String {
    let mut out = String::new();
    out.push_str("Figure 3b — ten applications with the most misconfiguration types\n");
    for app in census.top_by_types(10) {
        out.push_str(&bar_line(
            &app.app,
            &app.dataset,
            &app.version,
            app.types().len(),
            app,
        ));
    }
    out
}

fn bar_line(
    name: &str,
    dataset: &str,
    version: &str,
    magnitude: usize,
    app: &ij_core::AppReport,
) -> String {
    let classes: Vec<String> = MisconfigId::ALL
        .iter()
        .filter(|id| app.count_of(**id) > 0)
        .map(|id| format!("{}×{}", id, app.count_of(*id)))
        .collect();
    format!(
        "{:<38} {:>2} |{} {}\n",
        format!("{name} ({dataset}) {version}"),
        magnitude,
        "#".repeat(magnitude),
        classes.join(" ")
    )
}

/// Figure 4a: total misconfigurations per application (descending series)
/// plus the §4.3.1 concentration statistics.
pub fn fig4a(census: &Census) -> String {
    let dist = census.distribution();
    let mut out = String::new();
    out.push_str("Figure 4a — total misconfigurations per application (descending)\n");
    // Compact sparkline-style rendering: one bucket per line of ten apps.
    for (i, chunk) in dist.chunks(29).enumerate() {
        out.push_str(&format!(
            "apps {:>3}-{:<3} {}\n",
            i * 29 + 1,
            i * 29 + chunk.len(),
            chunk
                .iter()
                .map(|v| format!("{v:>2}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    let heavy = census.concentration(10);
    out.push_str(&format!(
        "apps with ≥10 findings: {:.1}% of apps, {:.1}% of all findings (paper: ~5% → 25%)\n",
        heavy.app_share * 100.0,
        heavy.finding_share * 100.0
    ));
    let mid_apps = dist.iter().filter(|&&t| (5..=9).contains(&t)).count();
    let mid_sum: usize = dist.iter().filter(|&&t| (5..=9).contains(&t)).sum();
    out.push_str(&format!(
        "apps with 5–9 findings: {:.1}% of apps, {:.1}% of all findings (paper: ~8% → 22%)\n",
        mid_apps as f64 / dist.len() as f64 * 100.0,
        mid_sum as f64 / census.total_misconfigurations() as f64 * 100.0
    ));
    out
}

/// Figure 4b: impact of (force-)enabling the charts' own NetworkPolicies.
pub fn fig4b() -> String {
    let rows = CensusPipeline::builder()
        .build()
        .policy_impact(&corpus())
        .expect("the synthetic corpus renders and installs");
    let mut out = String::new();
    out.push_str("Figure 4b — impact of network policies on endpoint reachability\n");
    out.push_str(&format!(
        "{:<14} {:>8} {:>9} {:>16} {:>9}\n",
        "Dataset", "Enabled", "Affected", "Pods (dynamic)", "Services"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>8} {:>9} {:>10} ({:>2}) {:>9}\n",
            row.dataset,
            row.enabled,
            row.affected,
            row.reachable_pods,
            row.reachable_dynamic_pods,
            row.reachable_services
        ));
    }
    out
}

/// §4.3.1: average misconfigurations per application by use case.
pub fn averages(census: &Census) -> String {
    let mut out = String::new();
    out.push_str("§4.3.1 — average misconfigurations per application by use case\n");
    for (label, datasets) in [
        ("sharing", &["Banzai Cloud", "Bitnami"][..]),
        ("production", &["CNCF", "Prometheus C."][..]),
        ("internal", &["EEA", "Wikimedia"][..]),
    ] {
        out.push_str(&format!(
            "{label:<12} avg {:.2} per app, {:>5.1}% of charts affected\n",
            census.average_per_app(datasets),
            census.affected_share(datasets) * 100.0
        ));
    }
    out
}

/// Outcome of the defense ablation for one misconfiguration class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefenseOutcome {
    /// The class under test.
    pub id: MisconfigId,
    /// The admission guard rejected the offending object at deploy time.
    pub blocked_at_admission: bool,
    /// Misconfigured endpoints reachable by an attacker before synthesis.
    pub reachable_before: usize,
    /// … and after applying synthesized NetworkPolicies.
    pub reachable_after: usize,
}

/// The defense ablation: per representative case, does the admission guard
/// block it, and does policy synthesis cut off the attack surface?
pub fn defense_outcomes() -> Vec<DefenseOutcome> {
    representative_charts()
        .into_iter()
        .map(|mut case| {
            // The representative charts carry tight enabled policies to keep
            // Table 3 cases pure; the defense ablation wants the Kubernetes
            // default posture (no policies) so synthesis has work to do.
            for spec in &mut case.apps {
                spec.plan.netpol = ij_datasets::NetpolSpec::Missing;
            }
            // Admission leg.
            let mut guarded = Cluster::new(ClusterConfig::default());
            // Strict mode: the generated charts apply workloads before their
            // services, so unmatched selectors are decidable at admission.
            let policy = GuardPolicy {
                check_unmatched_selectors: true,
                ..Default::default()
            };
            guarded.push_admission(Box::new(GuardAdmission::new(policy)));
            let mut blocked = false;
            for spec in &case.apps {
                // Built fresh and rendered exactly once: the parse-per-call
                // path is the right trade-off here (no compilation to
                // amortize).
                let built = build_app(spec);
                let rendered = built
                    .chart()
                    .render(&Release::new(&spec.name, "default"))
                    .expect("representative charts render");
                if guarded.install(&rendered).is_err() {
                    blocked = true;
                }
            }

            // Synthesis leg: unguarded install, measure attacker-reachable
            // misconfigured endpoints before/after synthesized policies.
            let mut registry = BehaviorRegistry::new();
            let builts: Vec<_> = case.apps.iter().map(build_app).collect();
            for b in &builts {
                for (image, behavior) in &b.behaviors {
                    registry.register(image.clone(), behavior.clone());
                }
            }
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 3,
                seed: 5,
                behaviors: registry,
            });
            let mut objects = Vec::new();
            for b in &builts {
                let rendered = b
                    .chart()
                    .render(&Release::new(&b.spec.name, "default"))
                    .expect("representative charts render");
                cluster.install(&rendered).expect("unguarded install");
                objects.extend(rendered.objects);
            }
            cluster
                .apply(Object::Pod(Pod::new(
                    ObjectMeta::named("attacker"),
                    PodSpec {
                        containers: vec![Container::new("sh", "attacker/recon")],
                        ..Default::default()
                    },
                )))
                .expect("unguarded apply");
            cluster.reconcile();

            let statics = StaticModel::from_objects(&objects);
            let before = reachable_misconfigured(&cluster, &statics);
            let synthesized = PolicySynthesizer::new().synthesize(&statics);
            for obj in synthesized.objects() {
                cluster.apply(obj).expect("policies admitted");
            }
            let after = reachable_misconfigured(&cluster, &statics);

            DefenseOutcome {
                id: case.id,
                blocked_at_admission: blocked,
                reachable_before: before,
                reachable_after: after,
            }
        })
        .collect()
}

/// Counts attacker-reachable endpoints that are misconfigured (undeclared
/// stable ports or dynamic ports). One [`ReachMatrix`] pass per call.
fn reachable_misconfigured(cluster: &Cluster, statics: &StaticModel) -> usize {
    let matrix = ReachMatrix::compute(cluster);
    let Some(attacker) = matrix.pod_index("default/attacker") else {
        return 0;
    };
    let mut count = 0;
    for (dst, rp) in cluster.pods().iter().enumerate() {
        let name = rp.qualified_name();
        if name.ends_with("/attacker") {
            continue;
        }
        let unit = rp.owner.clone().unwrap_or_else(|| name.clone());
        for socket in &rp.sockets {
            if socket.loopback_only {
                continue;
            }
            let declared = statics
                .unit(&unit)
                .map(|u| u.declares(socket.port, socket.protocol))
                .unwrap_or(true);
            if (socket.ephemeral || !declared)
                && matrix.connected(attacker, dst, socket.port, socket.protocol)
            {
                count += 1;
            }
        }
    }
    count
}

/// Renders the defense ablation.
pub fn defense() -> String {
    let mut out = String::new();
    out.push_str("Defense ablation — ij-guard admission + policy synthesis\n");
    out.push_str(&format!(
        "{:<6} {:>20} {:>18} {:>18}\n",
        "Class", "Blocked at admission", "Reachable before", "Reachable after"
    ));
    for o in defense_outcomes() {
        out.push_str(&format!(
            "{:<6} {:>20} {:>18} {:>18}\n",
            o.id.as_str(),
            if o.blocked_at_admission { "yes" } else { "no" },
            o.reachable_before,
            o.reachable_after
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_text_contains_totals() {
        let census = full_census();
        let text = table2(&census);
        assert!(text.contains("Total misconfigurations: 634"));
        assert!(text.contains("Banzai Cloud"));
    }

    #[test]
    fn fig3_rankings_render() {
        let census = full_census();
        let a = fig3a(&census);
        assert!(a.contains("kube-prometheus-stack"));
        let b = fig3b(&census);
        assert!(b.lines().count() >= 11);
    }

    #[test]
    fn defense_blocks_collision_classes_and_synthesis_closes_ports() {
        let outcomes = defense_outcomes();
        let by_id = |id: MisconfigId| {
            outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap_or_else(|| panic!("missing {id}"))
        };
        // The admission guard stops the statically-visible injections.
        for id in [
            MisconfigId::M4A,
            MisconfigId::M4Star,
            MisconfigId::M5B,
            MisconfigId::M5D,
            MisconfigId::M7,
        ] {
            assert!(by_id(id).blocked_at_admission, "{id} should be blocked");
        }
        // M1's undeclared port is attacker-reachable until synthesis cuts it.
        let m1 = by_id(MisconfigId::M1);
        assert!(!m1.blocked_at_admission);
        assert!(m1.reachable_before > 0);
        assert_eq!(m1.reachable_after, 0);
        // M2's dynamic ports are the residual risk policies cannot express.
        let m2 = by_id(MisconfigId::M2);
        assert!(m2.reachable_before > 0);
        assert_eq!(
            m2.reachable_after, 0,
            "synthesized deny-all covers the worker"
        );
    }
}
