//! The option block and result types of the evaluation harness, and the
//! rows of its Table-2 rendering. The harness itself — per-application fresh-cluster analysis (§4.2), the
//! cluster-wide pass, and the §4.3.2 policy-impact experiment — is
//! [`CensusPipeline`](crate::CensusPipeline).

use ij_core::{Analyzer, DatasetRow, Finding, MisconfigId, StaticModel};
use ij_probe::ProbeConfig;
use std::collections::BTreeMap;

/// Options for a corpus run.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Base seed; each application derives its own from this and its name.
    pub seed: u64,
    /// Probe configuration (noise injection, filters, double run).
    pub probe: ProbeConfig,
    /// Analyzer configuration (hybrid / static-only / runtime-only).
    pub analyzer: Analyzer,
    /// Worker nodes per ephemeral cluster.
    pub nodes: usize,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            seed: 42,
            probe: ProbeConfig::default(),
            analyzer: Analyzer::hybrid(),
            nodes: 3,
        }
    }
}

impl CorpusOptions {
    pub(crate) fn app_seed(&self, name: &str) -> u64 {
        // FNV-1a over the name, mixed with the base seed.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ self.seed
    }
}

/// The outcome of analyzing one application.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    /// Application name.
    pub app: String,
    /// Per-application findings (no M4\*).
    pub findings: Vec<Finding>,
    /// Static model, kept for the cluster-wide pass.
    pub statics: StaticModel,
}

/// One dataset row of the §4.3.2 policy-impact study (Figure 4b).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyImpact {
    /// Dataset name.
    pub dataset: String,
    /// Charts that define NetworkPolicies (force-enabled for the study).
    pub enabled: usize,
    /// Of those, charts where misconfigured endpoints stayed reachable.
    pub affected: usize,
    /// Pods with at least one reachable misconfigured port.
    pub reachable_pods: usize,
    /// Of those, pods whose reachable misconfigured port is dynamic.
    pub reachable_dynamic_pods: usize,
    /// Services that still forward to a misconfigured (undeclared) port.
    pub reachable_services: usize,
}

/// The rows of a Table-2 rendering: one line per dataset (affected over
/// analyzed applications, then the count of every class) and a `Total`
/// line summing them. `ij census` and `repro table2` print it between their
/// own header and closing line.
pub fn table2_rows(rows: &[DatasetRow]) -> String {
    let mut total = DatasetRow {
        dataset: "Total".to_string(),
        affected: rows.iter().map(|r| r.affected).sum(),
        total_apps: rows.iter().map(|r| r.total_apps).sum(),
        counts: BTreeMap::new(),
    };
    for (&id, &count) in rows.iter().flat_map(|r| &r.counts) {
        *total.counts.entry(id).or_default() += count;
    }
    let mut out = String::new();
    for row in rows.iter().chain([&total]) {
        let (name, affected, apps) = (&row.dataset, row.affected, row.total_apps);
        out.push_str(&format!("{name:<14} {affected:>5}/{apps:<3}"));
        for id in MisconfigId::ALL {
            out.push_str(&format!(" {:>4}", row.count(id)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_app;
    use crate::spec::{AppSpec, NetpolSpec, Org, Plan};
    use crate::CensusPipeline;
    use ij_core::{sort_canonical, MisconfigId};

    fn analyze_plan(plan: Plan) -> Vec<Finding> {
        let app_spec = AppSpec::new("probe-app", Org::Cncf, "1.0.0", plan);
        let built = build_app(&app_spec);
        CensusPipeline::builder()
            .build()
            .analyze_one(&built)
            .expect("corpus app analyzes")
            .findings
    }

    fn count(findings: &[Finding], id: MisconfigId) -> usize {
        findings.iter().filter(|f| f.id == id).count()
    }

    #[test]
    fn injected_plan_detected_exactly() {
        let plan = Plan {
            m1: 3,
            m2: 2,
            m3: 2,
            m4a: 1,
            m4b: 1,
            m4c: 1,
            m5a: 1,
            m5b: 2,
            m5c: 1,
            m5d: 1,
            m7: 2,
            netpol: NetpolSpec::Missing,
            ..Default::default()
        };
        let findings = analyze_plan(plan.clone());
        for id in MisconfigId::ALL {
            assert_eq!(
                count(&findings, id),
                plan.expected_of(id),
                "{id}: findings {findings:#?}"
            );
        }
        assert_eq!(findings.len(), plan.expected_local_findings());
    }

    #[test]
    fn clean_plan_yields_nothing() {
        let findings = analyze_plan(Plan::clean());
        assert!(findings.is_empty(), "unexpected: {findings:#?}");
    }

    #[test]
    fn disabled_policy_yields_single_m6() {
        let findings = analyze_plan(Plan {
            netpol: NetpolSpec::DefinedDisabled { loose: false },
            ..Default::default()
        });
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].id, MisconfigId::M6);
        assert!(findings[0].detail.contains("not enabled"));
    }

    #[test]
    fn census_over_small_slice() {
        let specs = vec![
            AppSpec::new(
                "alpha",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m1: 1,
                    m4star_tokens: vec!["shared"],
                    ..Default::default()
                },
            ),
            AppSpec::new(
                "beta",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m4star_tokens: vec!["shared"],
                    netpol: NetpolSpec::Enabled { loose: false },
                    ..Default::default()
                },
            ),
        ];
        let census = CensusPipeline::builder()
            .build()
            .run(&specs)
            .expect("corpus slice runs");
        assert_eq!(census.apps.len(), 2);
        // alpha: M1 + M6 + the global M4* (attributed to the first app).
        let alpha = &census.apps[0];
        assert_eq!(alpha.count_of(MisconfigId::M1), 1);
        assert_eq!(alpha.count_of(MisconfigId::M6), 1);
        assert_eq!(alpha.count_of(MisconfigId::M4Star), 1);
        // beta: policies enabled, clean except for its role as partner.
        assert_eq!(census.apps[1].total(), 0);
        assert_eq!(census.total_misconfigurations(), 3);
    }

    #[test]
    fn census_reports_stay_canonically_ordered_after_global_attribution() {
        // The M4* findings are attributed after the per-app pass; the
        // report must still come out in canonical (id, object, port) order,
        // i.e. with M4* *between* M4C and M5A, not appended at the end.
        let specs = vec![
            AppSpec::new(
                "order-alpha",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m1: 1,
                    m5d: 1,
                    m7: 1,
                    m4star_tokens: vec!["order-shared"],
                    netpol: NetpolSpec::Missing,
                    ..Default::default()
                },
            ),
            AppSpec::new(
                "order-beta",
                Org::Cncf,
                "1.0.0",
                Plan {
                    m4star_tokens: vec!["order-shared"],
                    netpol: NetpolSpec::Enabled { loose: false },
                    ..Default::default()
                },
            ),
        ];
        let census = CensusPipeline::builder()
            .build()
            .run(&specs)
            .expect("corpus slice runs");
        let alpha = &census.apps[0];
        let mut canonical = alpha.findings.clone();
        sort_canonical(&mut canonical);
        assert_eq!(alpha.findings, canonical, "report order must be canonical");
        let pos = |id: MisconfigId| {
            alpha
                .findings
                .iter()
                .position(|f| f.id == id)
                .unwrap_or_else(|| panic!("{id} missing from {:#?}", alpha.findings))
        };
        assert!(pos(MisconfigId::M4Star) < pos(MisconfigId::M5D));
        assert!(pos(MisconfigId::M5D) < pos(MisconfigId::M7));
    }

    #[test]
    fn policy_impact_loose_vs_tight() {
        let specs = vec![
            AppSpec::new(
                "tight-app",
                Org::Eea,
                "1.0.0",
                Plan {
                    m1: 2,
                    netpol: NetpolSpec::Enabled { loose: false },
                    ..Default::default()
                },
            ),
            AppSpec::new(
                "loose-app",
                Org::Eea,
                "1.0.0",
                Plan {
                    m1: 2,
                    server_replicas: 2,
                    netpol: NetpolSpec::Enabled { loose: true },
                    ..Default::default()
                },
            ),
        ];
        let rows = CensusPipeline::builder()
            .build()
            .policy_impact(&specs)
            .expect("policy study runs");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.enabled, 2);
        assert_eq!(row.affected, 1, "only the loose chart stays reachable");
        assert_eq!(row.reachable_pods, 2, "both replicas of the loose server");
        assert_eq!(row.reachable_services, 0);
    }

    /// Reference FNV-1a (64-bit), independent of the implementation inside
    /// `CorpusOptions::app_seed`, so a silent constant change fails here.
    fn fnv1a(name: &str) -> u64 {
        name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn app_seed_is_fnv1a_mixed_with_base_seed() {
        let opts = CorpusOptions {
            seed: 0xABCD,
            ..Default::default()
        };
        for name in ["redis", "kube-prometheus-stack", "a", ""] {
            assert_eq!(opts.app_seed(name), fnv1a(name) ^ 0xABCD, "name {name:?}");
        }
    }

    #[test]
    fn app_seed_is_stable_across_instances() {
        let a = CorpusOptions::default();
        let b = CorpusOptions::default();
        for name in ["redis", "harbor", "metallb"] {
            assert_eq!(a.app_seed(name), a.app_seed(name));
            assert_eq!(a.app_seed(name), b.app_seed(name));
        }
    }

    #[test]
    fn distinct_apps_get_distinct_seeds() {
        use std::collections::BTreeSet;
        let opts = CorpusOptions::default();
        let names: BTreeSet<String> = crate::corpus().into_iter().map(|a| a.name).collect();
        let seeds: BTreeSet<u64> = names.iter().map(|n| opts.app_seed(n)).collect();
        assert_eq!(
            seeds.len(),
            names.len(),
            "FNV-1a collision among corpus app names"
        );
    }

    #[test]
    fn base_seed_shifts_every_app_seed() {
        let a = CorpusOptions {
            seed: 1,
            ..Default::default()
        };
        let b = CorpusOptions {
            seed: 2,
            ..Default::default()
        };
        for app in crate::corpus() {
            assert_ne!(a.app_seed(&app.name), b.app_seed(&app.name), "{}", app.name);
        }
    }
}
