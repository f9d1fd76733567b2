//! Regression checks for the vendored fixture charts and the committed
//! conformance artifacts.
//!
//! `CONFORMANCE.json` and `CONFORMANCE.md` are committed like the
//! `BENCH_corpus.json` pins: this suite re-runs the differential harness
//! over `fixtures/charts/` and byte-compares the fresh artifacts against
//! the committed ones, so any behavior change — a chart gaining support, a
//! pipeline pair drifting apart, a new finding — shows up as a reviewable
//! diff instead of a silent skew. Regenerate with:
//!
//! ```text
//! cargo run --bin ij -- conform fixtures/charts \
//!     --json CONFORMANCE.json --report CONFORMANCE.md
//! ```

use inside_job::datasets::{run_conformance, ChartStatus, ConformanceReport};
use std::fs;
use std::path::Path;

fn fixtures_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/charts"))
}

fn fresh_report() -> ConformanceReport {
    run_conformance(fixtures_dir()).expect("fixtures/charts walks")
}

#[test]
fn fixture_corpus_is_large_and_mostly_supported() {
    let report = fresh_report();
    assert!(
        report.charts.len() >= 10,
        "the vendored corpus shrank to {} chart(s)",
        report.charts.len()
    );
    assert!(
        report.conformant() >= 10,
        "only {} of {} fixture charts are conformant",
        report.conformant(),
        report.charts.len()
    );
    assert_eq!(
        report.divergent(),
        0,
        "pipeline divergence on vendored charts: {:?}",
        report
            .charts
            .iter()
            .filter(|c| matches!(c.status, ChartStatus::Divergent { .. }))
            .collect::<Vec<_>>()
    );
}

#[test]
fn committed_artifacts_match_a_fresh_run() {
    let report = fresh_report();
    let json = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("CONFORMANCE.json"))
        .expect("CONFORMANCE.json committed");
    assert_eq!(
        report.to_json(),
        json,
        "CONFORMANCE.json is stale; regenerate with \
         `cargo run --bin ij -- conform fixtures/charts --json CONFORMANCE.json \
         --report CONFORMANCE.md` and review the diff"
    );
    let markdown = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("CONFORMANCE.md"))
        .expect("CONFORMANCE.md committed");
    assert_eq!(report.to_markdown(), markdown, "CONFORMANCE.md is stale");
}

#[test]
fn every_unsupported_fixture_names_its_feature() {
    // No silent skips: a chart the harness cannot carry end-to-end must say
    // exactly which feature it died on, with a path relative to the
    // fixtures directory so the committed artifact is machine-independent.
    let report = fresh_report();
    for chart in &report.charts {
        if let ChartStatus::Unsupported { feature } = &chart.status {
            assert!(
                !feature.trim().is_empty(),
                "{}: empty unsupported-feature text",
                chart.chart
            );
            assert!(
                !feature.contains(&fixtures_dir().display().to_string()),
                "{}: absolute path leaked into the artifact: {feature}",
                chart.chart
            );
        }
    }
}

#[test]
fn conformant_charts_exercised_real_work() {
    // The harness must actually have rendered objects and compared policy
    // verdicts — a conformant chart with zero work would be vacuous.
    let report = fresh_report();
    let objects: usize = report.charts.iter().map(|c| c.objects).sum();
    let verdicts: usize = report.charts.iter().map(|c| c.verdicts).sum();
    assert!(
        objects >= 20,
        "only {objects} objects rendered across the corpus"
    );
    assert!(verdicts >= 100, "only {verdicts} policy verdicts compared");
    for chart in &report.charts {
        if matches!(chart.status, ChartStatus::Conformant) {
            assert!(
                chart.objects > 0,
                "{}: conformant but rendered nothing",
                chart.chart
            );
            assert!(
                chart.verdicts > 0,
                "{}: conformant but compared no verdicts",
                chart.chart
            );
        }
    }
}
