//! End-to-end reproduction check: running the complete evaluation pipeline
//! over the full corpus must reproduce Table 2 of the paper exactly —
//! analyzer findings, not just injection plans.

use ij_core::MisconfigId;
use ij_datasets::{corpus, CensusPipeline};

/// Table 2, verbatim: affected, total, M1, M2, M3, M4A, M4B, M4C, M4*, M5A,
/// M5B, M5C, M5D, M6, M7.
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

const IDS: [MisconfigId; 13] = MisconfigId::ALL;

#[test]
fn full_pipeline_reproduces_table2() {
    let census = CensusPipeline::builder()
        .build()
        .run(&corpus())
        .expect("the full corpus runs");
    assert_eq!(census.total_misconfigurations(), 634, "the paper's total");
    assert_eq!(census.affected_apps().0, 259, "the paper's affected count");
    for (dataset, row) in TABLE2 {
        let measured = census.dataset_row(dataset);
        assert_eq!(measured.affected, row[0], "{dataset}: affected");
        assert_eq!(measured.total_apps, row[1], "{dataset}: total");
        for (i, id) in IDS.iter().enumerate() {
            assert_eq!(
                measured.count(*id),
                row[i + 2],
                "{dataset}: {id} (findings: {:#?})",
                census
                    .apps
                    .iter()
                    .filter(|a| a.dataset == dataset)
                    .flat_map(|a| a.findings.iter().filter(|f| f.id == *id))
                    .collect::<Vec<_>>()
            );
        }
    }
}
