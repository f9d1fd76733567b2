//! The defense layer against the procedural corpus: for every rule the
//! guard checks, a generated application carrying that (and only that)
//! injection must be rejected by [`GuardAdmission`] at install time; clean
//! applications and those carrying only a class it does not check must be
//! admitted — and [`IncrementalAuditor`] must report the full
//! introduced/resolved delta arc on a generated application.

use ij_chart::Release;
use ij_cluster::{Cluster, ClusterConfig, InstallError};
use ij_datasets::{build_app, AppSpec, Archetype, CorpusGenerator, CorpusProfile, MisconfigMix};
use ij_guard::{GuardAdmission, GuardPolicy, IncrementalAuditor, PolicySynthesizer};
use ij_probe::{HostBaseline, RuntimeAnalyzer};

/// A generator whose every application carries exactly the injections of
/// `overrides` (rates on an otherwise clean mix) and nothing else. The
/// population is pure `DataPipeline` archetype, whose propensity scale is
/// 1.0 for every rule exercised here, so a rate of `1.0` means "exactly
/// one injection per app" (1.5 for M5B: one or two).
fn generated(overrides: &[(&str, f64)], apps: usize, seed: u64) -> CorpusGenerator {
    let mut mix = MisconfigMix::clean();
    for (rule, rate) in overrides {
        mix.set(rule, *rate).expect("known rule");
    }
    CorpusGenerator::new(
        CorpusProfile::builder()
            .name("guard-test")
            .weight(Archetype::MicroserviceMesh, 0)
            .weight(Archetype::Monolith, 0)
            .weight(Archetype::DataPipeline, 1)
            .weight(Archetype::HostNetworkLegacy, 0)
            .weight(Archetype::PolicyMature, 0)
            .mix(mix)
            .build()
            .with_apps(apps)
            .with_seed(seed),
    )
}

fn guarded_cluster(policy: GuardPolicy) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.push_admission(Box::new(GuardAdmission::new(policy)));
    cluster
}

/// Renders `spec` and installs it into a guarded cluster, returning the
/// denial (if any).
fn install_denied(spec: &AppSpec, policy: GuardPolicy) -> Option<String> {
    let built = build_app(spec);
    let rendered = built
        .chart()
        .render(&Release::new(&spec.name, "default"))
        .expect("generated charts render");
    let mut cluster = guarded_cluster(policy);
    match cluster.install(&rendered) {
        Ok(_) => None,
        Err(err) => {
            assert!(
                matches!(err, InstallError::Denied { .. }),
                "expected an admission denial, got {err}"
            );
            Some(err.to_string())
        }
    }
}

#[test]
fn admission_rejects_generated_label_collisions_m4() {
    for spec in generated(&[("m4a", 1.0)], 4, 11).iter() {
        assert_eq!(spec.plan.m4a, 1, "{}: scale-1 rate 1.0 is exact", spec.name);
        let denial = install_denied(&spec, GuardPolicy::default())
            .unwrap_or_else(|| panic!("{} was admitted", spec.name));
        assert!(denial.contains("label collision (M4)"), "{denial}");
    }
}

#[test]
fn admission_rejects_generated_undeclared_targets_m5b() {
    for spec in generated(&[("m5b", 1.0)], 4, 12).iter() {
        assert!(
            spec.plan.m5b >= 1,
            "{}: rate 1.5 injects at least one",
            spec.name
        );
        let denial = install_denied(&spec, GuardPolicy::default())
            .unwrap_or_else(|| panic!("{} was admitted", spec.name));
        assert!(denial.contains("M5B"), "{denial}");
    }
}

#[test]
fn admission_rejects_generated_targetless_services_m5d() {
    // The generated M5D service has a selector that matches nothing, which
    // is only decidable at admission in strict ordering mode (the charts
    // apply workloads before services, so the check is sound here).
    let strict = GuardPolicy {
        check_unmatched_selectors: true,
        ..Default::default()
    };
    for spec in generated(&[("m5d", 1.0)], 4, 13).iter() {
        assert_eq!(spec.plan.m5d, 1, "{}: scale-1 rate 1.0 is exact", spec.name);
        let denial = install_denied(&spec, strict.clone())
            .unwrap_or_else(|| panic!("{} was admitted", spec.name));
        assert!(denial.contains("M5D"), "{denial}");
    }
}

#[test]
fn admission_rejects_generated_host_network_m7() {
    for spec in generated(&[("m7", 1.0)], 4, 14).iter() {
        assert_eq!(spec.plan.m7, 1, "{}: scale-1 rate 1.0 is exact", spec.name);
        let denial = install_denied(&spec, GuardPolicy::default())
            .unwrap_or_else(|| panic!("{} was admitted", spec.name));
        assert!(denial.contains("M7"), "{denial}");
    }
}

#[test]
fn admission_rejects_cross_application_collisions_m4star() {
    // Every app in this population joins a shared collision token group;
    // with more apps than tokens, at least two share one. The first app of
    // such a pair installs cleanly; the second is the cross-application
    // impersonation the guard must stop (the check Kubernetes never makes).
    let generator = generated(&[("m4star", 1.0)], 20, 15);
    let specs: Vec<AppSpec> = generator.iter().collect();
    let (first, second) = specs
        .iter()
        .enumerate()
        .find_map(|(j, b)| {
            specs[..j]
                .iter()
                .find(|a| {
                    a.plan
                        .m4star_tokens
                        .iter()
                        .any(|t| b.plan.m4star_tokens.contains(t))
                })
                .map(|a| (a, b))
        })
        .expect("20 apps over 16 tokens must share one");

    let mut cluster = guarded_cluster(GuardPolicy::default());
    let install = |cluster: &mut Cluster, spec: &AppSpec| {
        let built = build_app(spec);
        let rendered = built
            .chart()
            .render(&Release::new(&spec.name, "default"))
            .expect("generated charts render");
        cluster.install(&rendered)
    };
    install(&mut cluster, first).expect("first token carrier is admitted");
    let err = install(&mut cluster, second).expect_err("second carrier collides");
    assert!(matches!(err, InstallError::Denied { .. }), "{err}");
    assert!(err.to_string().contains("label collision (M4)"), "{err}");
}

/// The strict guard: every class it checks, with unmatched selectors
/// decidable because the generated charts apply workloads first.
fn strict() -> GuardPolicy {
    GuardPolicy {
        check_unmatched_selectors: true,
        ..Default::default()
    }
}

#[test]
fn admission_admits_clean_generated_apps() {
    for spec in generated(&[], 40, 17).iter() {
        assert_eq!(spec.plan.expected_local_findings(), 0, "{}", spec.name);
        if let Some(denial) = install_denied(&spec, strict()) {
            panic!("{} is clean but was denied: {denial}", spec.name);
        }
    }
}

#[test]
fn admission_admits_classes_it_does_not_check() {
    // The "and only those" half of the guard's contract: runtime-only
    // classes (M1, M2, M3, M5A, M5C), the missing-policy posture (M6) and
    // the service-side collisions M4B and M4C (the charts apply a
    // service after the units it captures) are the auditor's, not
    // admission's.
    use ij_core::MisconfigId as M;
    let unchecked = [
        ("m1", M::M1),
        ("m2", M::M2),
        ("m3", M::M3),
        ("m4b", M::M4B),
        ("m4c", M::M4C),
        ("m5a", M::M5A),
        ("m5c", M::M5C),
        ("m6", M::M6),
    ];
    for (seed, (rule, id)) in (18..).zip(unchecked) {
        for spec in generated(&[(rule, 1.0)], 12, seed).iter() {
            let injected = spec.plan.expected_of(id);
            assert!(injected >= 1, "{}: no {id} injection", spec.name);
            assert_eq!(
                spec.plan.expected_local_findings(),
                injected,
                "{}",
                spec.name
            );
            if let Some(denial) = install_denied(&spec, strict()) {
                panic!("{} carries only {id} but was denied: {denial}", spec.name);
            }
        }
    }
}

#[test]
fn auditor_reports_the_full_delta_arc_on_a_generated_app() {
    // A generated app whose only findings are M6 (degraded policy posture)
    // and one M7 exporter. Round 1 introduces both; synthesizing policies
    // resolves M6 while M7 persists; round 3 is quiet.
    let spec = generated(&[("m6", 1.0), ("m7", 1.0)], 1, 16).spec(0);
    assert_eq!(spec.plan.m7, 1);
    assert!(spec.plan.netpol.yields_m6());

    let built = build_app(&spec);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        seed: 5,
        behaviors: built.registry(),
    });
    let baseline = HostBaseline::capture(&cluster);
    let rendered = built
        .chart()
        .render(&Release::new(&spec.name, "default"))
        .expect("generated charts render");
    cluster.install(&rendered).expect("unguarded install");

    let mut auditor = IncrementalAuditor::with_probe(RuntimeAnalyzer::default(), baseline);
    auditor.set_chart_defines_policies(
        &spec.name,
        ij_core::chart_defines_network_policies(built.chart()),
    );
    let first = auditor.tick(&cluster);
    fn ids<'a>(
        findings: impl IntoIterator<Item = &'a ij_core::Finding>,
    ) -> Vec<ij_core::MisconfigId> {
        let mut ids: Vec<_> = findings.into_iter().map(|f| f.id).collect();
        ids.dedup();
        ids
    }
    assert_eq!(
        ids(&first.introduced),
        vec![ij_core::MisconfigId::M6, ij_core::MisconfigId::M7]
    );
    assert!(first.resolved.is_empty());

    // Mitigation: synthesize least-privilege policies from the declared
    // ports and install them into the release. M6 resolves; M7 cannot be
    // policied away.
    let statics = ij_core::StaticModel::from_objects(cluster.objects());
    let outcome = PolicySynthesizer::new().synthesize(&statics);
    assert!(!outcome.policies.is_empty());
    cluster
        .install_objects(&spec.name, &outcome.objects())
        .expect("synthesized policies admitted");
    let second = auditor.tick(&cluster);
    assert_eq!(ids(&second.resolved), vec![ij_core::MisconfigId::M6]);
    assert_eq!(ids(auditor.current()), vec![ij_core::MisconfigId::M7]);
    assert!(second.introduced.is_empty(), "{:#?}", second.introduced);

    let third = auditor.tick(&cluster);
    assert!(third.is_quiet());
    assert_eq!(ids(auditor.current()), vec![ij_core::MisconfigId::M7]);
}
