//! The built-in rule pack against the native rules, end to end: loading
//! `packs/builtin.rules` must not change a byte of any census — same
//! findings, same order, same per-rule precision/recall — across every
//! scenario profile and thread count, and the committed pack must be
//! reproduced verbatim in `docs/RULES.md`.

use inside_job::core::{MisconfigId, RulePack, BUILTIN_PACK_SOURCE};
use inside_job::datasets::{score_corpus, CensusPipeline, CorpusGenerator, CorpusProfile};
use std::path::Path;

fn pipeline(seed: u64, threads: usize, pack: Option<&RulePack>) -> CensusPipeline {
    let mut builder = CensusPipeline::builder().seed(seed).threads(threads);
    if let Some(pack) = pack {
        builder = builder
            .rule_pack(pack)
            .expect("the built-in pack registers against the standard registry");
    }
    builder.build()
}

/// The tentpole acceptance bar: for every scenario profile, the census run
/// with the built-in pack (pack m1/m2/m6/m7 shadowing the natives, native
/// m5 disabled, pack m5a–m5d in its place) is **byte-identical** to the
/// native census — and stays identical when the pack run is parallelized.
#[test]
fn pack_census_is_byte_identical_to_native_for_every_profile() {
    let pack = RulePack::builtin();
    for profile in CorpusProfile::scenario_matrix() {
        let name = profile.name().to_string();
        let generator = CorpusGenerator::new(profile.with_apps(40).with_seed(11));
        let native = pipeline(11, 1, None)
            .run_generated_compact(&generator)
            .expect("native census runs")
            .resolve();
        for threads in [1, 2, 8] {
            let packed = pipeline(11, threads, Some(&pack))
                .run_generated_compact(&generator)
                .expect("pack census runs")
                .resolve();
            assert_eq!(
                native.apps, packed.apps,
                "{name}: pack census diverged from native at --threads {threads}"
            );
        }
    }
}

/// The pack detects exactly the injected ground truth: per-rule precision
/// and recall of 1.0 on a population large enough that every class fires.
#[test]
fn pack_rules_score_perfect_precision_and_recall() {
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(200)
            .with_seed(5),
    );
    let census = pipeline(5, 2, Some(&RulePack::builtin()))
        .run_generated_compact(&generator)
        .expect("pack census runs")
        .resolve();
    let specs: Vec<_> = generator.iter().collect();
    let report = score_corpus(
        specs
            .iter()
            .zip(&census.apps)
            .map(|(spec, app)| (spec, app.findings.as_slice())),
    );
    for id in MisconfigId::ALL {
        if id == MisconfigId::M4Star {
            continue; // attributed cluster-wide, not per-app
        }
        let class = report.class(id);
        assert_eq!(class.precision(), 1.0, "{id} precision: {class:?}");
        assert_eq!(class.recall(), 1.0, "{id} recall: {class:?}");
    }
    let overall = report.overall();
    assert_eq!(overall.false_positives, 0);
    assert_eq!(overall.false_negatives, 0);
    assert!(
        overall.true_positives > 100,
        "population too quiet to prove anything: {overall:?}"
    );
}

/// The committed pack file, the compiled-in source, and the documentation
/// agree: `packs/builtin.rules` is what `RulePack::builtin()` compiles,
/// and `docs/RULES.md` quotes it verbatim.
#[test]
fn builtin_pack_file_and_docs_stay_in_sync() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let on_disk = std::fs::read_to_string(root.join("packs/builtin.rules"))
        .expect("packs/builtin.rules readable");
    assert_eq!(
        on_disk, BUILTIN_PACK_SOURCE,
        "packs/builtin.rules and the compiled-in pack source diverged"
    );
    let docs = std::fs::read_to_string(root.join("docs/RULES.md")).expect("docs/RULES.md readable");
    assert!(
        docs.contains(BUILTIN_PACK_SOURCE),
        "docs/RULES.md must quote the built-in pack verbatim"
    );
}
