//! Ablations of the design choices DESIGN.md calls out, measured against
//! the corpus ground truth (which the real study lacked):
//!
//! 1. hybrid vs static-only vs runtime-only analysis;
//! 2. single vs double runtime pass (M2 recall);
//! 3. UDP flakiness filter on/off (§5.1.2's ~8% false positives);
//! 4. host-baseline subtraction on/off (M7 over-reporting).

use inside_job::chart::Release;
use inside_job::cluster::{Cluster, ClusterConfig};
use inside_job::core::{Analyzer, MisconfigId};
use inside_job::datasets::{build_app, corpus, AppSpec, CensusPipeline, NetpolSpec, Org, Plan};
use inside_job::probe::{HostBaseline, ProbeConfig, RuntimeAnalyzer};

/// A representative slice: one org's worth of charts is plenty to measure
/// recall differences while keeping the test quick.
fn slice() -> Vec<AppSpec> {
    corpus()
        .into_iter()
        .filter(|a| a.org == Org::Wikimedia || a.org == Org::Cncf)
        .collect()
}

fn recall(analyzer: Analyzer, probe: ProbeConfig) -> (usize, usize) {
    let pipeline = CensusPipeline::builder()
        .analyzer(analyzer)
        .probe(probe)
        .build();
    let mut found = 0usize;
    let mut expected = 0usize;
    for spec in slice() {
        let built = build_app(&spec);
        let analysis = pipeline.analyze_one(&built).expect("corpus app analyzes");
        found += analysis.findings.len();
        expected += spec.plan.expected_local_findings();
    }
    (found, expected)
}

#[test]
fn hybrid_attains_full_recall_on_ground_truth() {
    let (found, expected) = recall(Analyzer::hybrid(), ProbeConfig::default());
    assert_eq!(found, expected);
}

#[test]
fn static_only_misses_runtime_classes() {
    let (found, expected) = recall(Analyzer::static_only(), ProbeConfig::default());
    assert!(
        found < expected,
        "static-only should under-detect: {found} vs {expected}"
    );
    // It must still find everything statically visible.
    let statically_expected: usize = slice()
        .iter()
        .map(|s| {
            MisconfigId::ALL
                .iter()
                .filter(|id| !id.needs_runtime())
                .map(|id| s.plan.expected_of(*id))
                .sum::<usize>()
        })
        .sum();
    assert_eq!(found, statically_expected);
}

#[test]
fn runtime_only_misses_relationship_classes() {
    let (found, expected) = recall(Analyzer::runtime_only(), ProbeConfig::default());
    assert!(found < expected);
    let runtime_expected: usize = slice()
        .iter()
        .map(|s| {
            s.plan.expected_of(MisconfigId::M1)
                + s.plan.expected_of(MisconfigId::M2)
                + s.plan.expected_of(MisconfigId::M3)
        })
        .sum();
    assert_eq!(found, runtime_expected);
}

#[test]
fn single_pass_loses_m2_and_misclassifies_m1() {
    let single = ProbeConfig {
        double_run: false,
        ..Default::default()
    };
    let pipeline = CensusPipeline::builder().probe(single).build();
    let spec = AppSpec::new(
        "m2-app",
        Org::Cncf,
        "1.0.0",
        Plan {
            m2: 2,
            netpol: NetpolSpec::Enabled { loose: false },
            ..Default::default()
        },
    );
    let built = build_app(&spec);
    let analysis = pipeline.analyze_one(&built).expect("corpus app analyzes");
    assert!(
        !analysis.findings.iter().any(|f| f.id == MisconfigId::M2),
        "single pass cannot distinguish dynamic ports"
    );
    // The ephemeral ports instead surface as (misleading) M1 findings.
    assert!(
        analysis.findings.iter().any(|f| f.id == MisconfigId::M1),
        "{:#?}",
        analysis.findings
    );
}

#[test]
fn udp_noise_filter_controls_false_positives() {
    // With injected UDP measurement noise and the filter off, spurious M2
    // findings appear; the filter removes them (§5.1.2: ~8% of raw findings
    // were such artifacts).
    let spec = AppSpec::new(
        "noisy-app",
        Org::Cncf,
        "1.0.0",
        Plan {
            m1: 1,
            netpol: NetpolSpec::Enabled { loose: false },
            ..Default::default()
        },
    );
    let built = build_app(&spec);

    let noisy_unfiltered = CensusPipeline::builder()
        .probe(ProbeConfig {
            udp_noise_rate: 1.0,
            filter_udp_flakiness: false,
            ..Default::default()
        })
        .build();
    let unfiltered = noisy_unfiltered
        .analyze_one(&built)
        .expect("corpus app analyzes");
    let spurious: Vec<_> = unfiltered
        .findings
        .iter()
        .filter(|f| f.id == MisconfigId::M2)
        .collect();
    assert!(
        !spurious.is_empty(),
        "noise leaks through without the filter"
    );

    let noisy_filtered = CensusPipeline::builder()
        .probe(ProbeConfig {
            udp_noise_rate: 1.0,
            filter_udp_flakiness: true,
            ..Default::default()
        })
        .build();
    let filtered = noisy_filtered
        .analyze_one(&built)
        .expect("corpus app analyzes");
    assert!(
        !filtered.findings.iter().any(|f| f.id == MisconfigId::M2),
        "{:#?}",
        filtered.findings
    );
    assert_eq!(
        filtered.findings.len(),
        spec.plan.expected_local_findings(),
        "with the filter, exactly the ground truth remains"
    );
}

#[test]
fn baseline_subtraction_prevents_m7_overreporting() {
    // A hostNetwork app analyzed without the pre-install baseline blames
    // node daemons (kubelet & co.) on the application as M1 findings.
    let spec = AppSpec::new(
        "hostnet-app",
        Org::Cncf,
        "1.0.0",
        Plan {
            m7: 1,
            netpol: NetpolSpec::Enabled { loose: false },
            ..Default::default()
        },
    );
    let built = build_app(&spec);
    let rendered = built
        .chart()
        .render(&Release::new("hostnet-app", "default"))
        .unwrap();

    let run = |baseline: HostBaseline| {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            seed: 4,
            behaviors: built.registry(),
        });
        let real_baseline = HostBaseline::capture(&cluster);
        cluster.install(&rendered).unwrap();
        let b = if baseline.is_empty() {
            baseline
        } else {
            real_baseline
        };
        let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &b);
        Analyzer::hybrid().analyze_app(
            "hostnet-app",
            &rendered.objects,
            &cluster,
            Some(&runtime),
            true,
        )
    };

    let with_baseline = run(HostBaseline::capture(&Cluster::new(
        ClusterConfig::default(),
    )));
    assert_eq!(
        with_baseline.len(),
        spec.plan.expected_local_findings(),
        "{with_baseline:#?}"
    );

    let without_baseline = run(HostBaseline::empty());
    let m1_spurious = without_baseline
        .iter()
        .filter(|f| f.id == MisconfigId::M1)
        .count();
    assert!(
        m1_spurious >= 3,
        "node daemons leak into the report without subtraction: {without_baseline:#?}"
    );
}

#[test]
fn registry_ablation_drops_exactly_one_class() {
    // 5. per-rule ablations via the RuleRegistry: disabling `m2` must drop
    //    the M2 findings and *only* them, app by app against the ground
    //    truth slice — everything else is byte-identical.
    let full = CensusPipeline::builder().build();
    let mut analyzer = Analyzer::hybrid();
    analyzer
        .registry
        .try_disable("m2")
        .expect("m2 is a standard rule");
    let ablated = CensusPipeline::builder().analyzer(analyzer).build();
    let mut dropped = 0usize;
    for spec in slice() {
        let built = build_app(&spec);
        let with = full
            .analyze_one(&built)
            .expect("corpus app analyzes")
            .findings;
        let without = ablated
            .analyze_one(&built)
            .expect("corpus app analyzes")
            .findings;
        let expected: Vec<_> = with
            .iter()
            .filter(|f| f.id != MisconfigId::M2)
            .cloned()
            .collect();
        dropped += with.len() - expected.len();
        assert_eq!(without, expected, "app {}", spec.name);
    }
    assert!(dropped > 0, "the slice must carry M2 findings to ablate");
}
