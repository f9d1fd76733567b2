//! The procedural corpus end to end: generated populations stream through
//! the census pipeline, the analyzer's findings match the generated ground
//! truth with per-rule precision/recall of exactly 1.0, and the CLI's
//! `--synthetic` census is byte-identical across thread counts.

use inside_job::core::MisconfigId;
use inside_job::datasets::{
    score_corpus, CensusPipeline, CorpusGenerator, CorpusProfile, MisconfigMix,
};
use std::process::Command;

fn generator(profile: &str, apps: usize, seed: u64) -> CorpusGenerator {
    CorpusGenerator::new(
        CorpusProfile::named(profile)
            .unwrap_or_else(|| panic!("profile {profile}"))
            .with_apps(apps)
            .with_seed(seed),
    )
}

/// The acceptance bar of the generator: the hybrid analyzer over a
/// generated population detects **exactly** the injected ground truth —
/// per-rule precision and recall of 1.0 (trivially including the static
/// rules), plus exact cluster-wide M4\* group accounting.
#[test]
fn generated_ground_truth_scores_perfectly() {
    // The baseline M4* rate (1.7%) needs a large population before two
    // apps share a token; raise it so this 400-app run always exercises
    // the cluster-wide accounting.
    let mut mix = MisconfigMix::baseline();
    mix.set("m4star", 0.1).expect("known rule");
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(400)
            .with_seed(7)
            .with_mix(mix),
    );
    let census = CensusPipeline::builder()
        .seed(7)
        .build()
        .run_generated_compact(&generator)
        .expect("generated corpus renders and installs")
        .resolve();
    assert_eq!(census.apps.len(), 400);

    // Reports come back in generation order, so spec i pairs with report i.
    let specs: Vec<_> = generator.iter().collect();
    let report = score_corpus(
        specs
            .iter()
            .zip(&census.apps)
            .map(|(spec, app)| (spec, app.findings.as_slice())),
    );
    for id in MisconfigId::ALL {
        if id == MisconfigId::M4Star {
            continue; // attributed cluster-wide; checked below
        }
        let class = report.class(id);
        assert_eq!(class.precision(), 1.0, "{id} precision: {class:?}");
        assert_eq!(class.recall(), 1.0, "{id} recall: {class:?}");
    }
    let overall = report.overall();
    assert!(
        overall.true_positives > 200,
        "population too quiet: {overall:?}"
    );
    assert_eq!(overall.false_positives, 0);
    assert_eq!(overall.false_negatives, 0);

    // M4*: one finding per shared-token group with at least two members.
    let expected = generator.describe();
    let m4star_found: usize = census
        .apps
        .iter()
        .map(|a| a.count_of(MisconfigId::M4Star))
        .sum();
    assert_eq!(m4star_found, expected.expected[&MisconfigId::M4Star]);
    assert!(m4star_found > 0, "a 400-app baseline population collides");
}

/// Every scenario of the matrix keeps the ground-truth property, not just
/// the baseline profile.
#[test]
fn every_scenario_profile_scores_perfectly() {
    for profile in CorpusProfile::scenario_matrix() {
        let name = profile.name().to_string();
        let generator = CorpusGenerator::new(profile.with_apps(40).with_seed(3));
        let census = CensusPipeline::builder()
            .seed(3)
            .build()
            .run_generated_compact(&generator)
            .expect("generated corpus renders and installs")
            .resolve();
        let specs: Vec<_> = generator.iter().collect();
        let report = score_corpus(
            specs
                .iter()
                .zip(&census.apps)
                .map(|(spec, app)| (spec, app.findings.as_slice())),
        );
        let overall = report.overall();
        assert_eq!(overall.false_positives, 0, "{name}: {overall:?}");
        assert_eq!(overall.false_negatives, 0, "{name}: {overall:?}");
    }
}

/// The acceptance bar verbatim: `ij census --synthetic 1000 --seed 7
/// --threads 8` completes and is byte-identical to `--threads 1`.
#[test]
fn cli_synthetic_census_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_ij"))
            .args([
                "census",
                "--synthetic",
                "1000",
                "--seed",
                "7",
                "--threads",
                threads,
            ])
            .output()
            .expect("spawn ij");
        assert!(
            out.status.success(),
            "--threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let eight = run("8");
    let one = run("1");
    assert!(!eight.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&eight),
        String::from_utf8_lossy(&one),
        "synthetic census diverged across thread counts"
    );
    let table = String::from_utf8_lossy(&eight).to_string();
    assert!(table.contains("across 1000 application(s)"), "{table}");
}

/// `ij corpus --describe --synthetic …` prints exactly the ground truth the
/// census then reproduces: every class count (M4\* groups included), the
/// total and the affected count line up. The `baseline` input is the
/// `ij census --synthetic 100 --seed 7` population at the default mix.
#[test]
fn describe_matches_the_census_it_predicts() {
    for (profile, apps, seed) in [("mesh-heavy", 120, 9), ("baseline", 100, 7)] {
        let generator = generator(profile, apps, seed);
        let summary = generator.describe();
        let census = CensusPipeline::builder()
            .seed(seed)
            .build()
            .run_generated_compact(&generator)
            .expect("generated corpus renders and installs")
            .resolve();
        for id in MisconfigId::ALL {
            let found: usize = census.apps.iter().map(|a| a.count_of(id)).sum();
            assert_eq!(found, summary.expected[&id], "{profile}: {id}");
        }
        assert_eq!(census.total_misconfigurations(), summary.expected_total());
        let affected = census.apps.iter().filter(|a| a.total() > 0).count();
        assert_eq!(affected, summary.affected, "{profile}");
    }
}
