//! §4.3.2 / Figure 4b: the policy-impact study over the full corpus.
//! Paper-vs-measured deltas are documented in EXPERIMENTS.md.

use inside_job::datasets::{corpus, CensusPipeline};

#[test]
fn figure4b_policy_impact_shape() {
    let rows = CensusPipeline::builder()
        .build()
        .policy_impact(&corpus())
        .expect("policy study runs");
    let get = |name: &str| rows.iter().find(|r| r.dataset == name).unwrap();

    // Banzai Cloud defines no policies at all → absent from the table.
    assert!(rows.iter().all(|r| r.dataset != "Banzai Cloud"));

    // "Enabled" columns are exact (Figure 4b).
    assert_eq!(get("Bitnami").enabled, 48);
    assert_eq!(get("CNCF").enabled, 4);
    assert_eq!(get("EEA").enabled, 19);
    assert_eq!(get("Prometheus C.").enabled, 5);
    assert_eq!(get("Wikimedia").enabled, 25);

    // CNCF: policies actually mitigate everything (paper: affected 0).
    assert_eq!(get("CNCF").affected, 0);
    assert_eq!(get("CNCF").reachable_pods, 0);

    // Bitnami: 3 affected charts, 14 reachable pods (1 dynamic) — exact.
    let bitnami = get("Bitnami");
    assert_eq!(bitnami.affected, 3);
    assert_eq!(bitnami.reachable_pods, 14);
    assert_eq!(bitnami.reachable_dynamic_pods, 1);

    // Prometheus C.: 3 affected, 32 reachable pods (3 dynamic) — exact.
    let prom = get("Prometheus C.");
    assert_eq!(prom.affected, 3);
    assert_eq!(prom.reachable_pods, 32);
    assert_eq!(prom.reachable_dynamic_pods, 3);

    // EEA: paper reports 8 affected / 13 pods. Our "affected" requires a
    // *reachable misconfigured endpoint*; the eighth EEA chart's issues
    // (M3 + M4B) have no such endpoint, so it measures 7 — the 13 reachable
    // pods match.
    let eea = get("EEA");
    assert_eq!(eea.reachable_pods, 13);
    assert!(
        eea.affected == 7 || eea.affected == 8,
        "measured {}",
        eea.affected
    );

    // Wikimedia: paper reports 4 affected / 8 pods (5 dynamic).
    let wiki = get("Wikimedia");
    assert_eq!(wiki.affected, 4);
    assert_eq!(wiki.reachable_pods, 8);
    assert!(wiki.reachable_dynamic_pods >= 3);

    // In every dataset with loose policies, misconfigured endpoints stayed
    // reachable — the paper's core §4.3.2 claim.
    for name in ["Bitnami", "EEA", "Prometheus C.", "Wikimedia"] {
        assert!(get(name).reachable_pods > 0, "{name} should stay exposed");
    }
}
