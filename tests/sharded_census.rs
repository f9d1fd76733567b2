//! Property tests for the sharded streaming census (interned findings).
//!
//! The contract under test is the determinism guarantee documented in
//! `docs/ARCHITECTURE.md`: for every scenario profile, the census produced
//! by `run_generated_compact` is byte-identical (after resolution, and in
//! its resolved `Debug` form) across every `(shards, threads)` combination,
//! and a `CompactFinding`'s FNV identity equals the identity of the owned
//! `Finding` it resolves to — so the incremental auditor's delta keys are
//! unchanged by the flat-memory representation.

use ij_datasets::{CensusPipeline, CorpusGenerator, CorpusProfile};

/// Small-but-representative population for each profile: big enough to
/// exercise every archetype weight, small enough to keep the full
/// profiles × shards × threads matrix in CI budget.
const APPS: usize = 18;
const SEED: u64 = 7;

fn generator_for(profile: CorpusProfile) -> CorpusGenerator {
    CorpusGenerator::new(profile.with_apps(APPS).with_seed(SEED))
}

#[test]
fn sharded_census_is_byte_identical_on_every_scenario_profile() {
    for profile in CorpusProfile::scenario_matrix() {
        let name = profile.name().to_string();
        let generator = generator_for(profile);
        let reference = CensusPipeline::builder()
            .build()
            .run_generated_compact(&generator)
            .expect("sequential census")
            .resolve();
        let expected = format!("{reference:#?}");
        for shards in [1usize, 2, 8] {
            for threads in [1usize, 2, 8] {
                let census = CensusPipeline::builder()
                    .shards(shards)
                    .threads(threads)
                    .build()
                    .run_generated_compact(&generator)
                    .expect("sharded census")
                    .resolve();
                assert_eq!(
                    format!("{census:#?}"),
                    expected,
                    "profile {name}: shards={shards} threads={threads} diverged"
                );
            }
        }
    }
}

#[test]
fn compact_identities_match_owned_identities_for_a_generated_corpus() {
    let generator = generator_for(CorpusProfile::named("baseline").expect("baseline profile"));
    let owned = CensusPipeline::builder()
        .build()
        .run_generated_compact(&generator)
        .expect("owned census")
        .resolve();
    let compact = CensusPipeline::builder()
        .shards(4)
        .threads(2)
        .build()
        .run_generated_compact(&generator)
        .expect("compact census");

    assert_eq!(owned.apps.len(), compact.apps.len());
    let mut findings = 0usize;
    for (oa, ca) in owned.apps.iter().zip(&compact.apps) {
        assert_eq!(oa.findings.len(), ca.findings.len());
        for (of, cf) in oa.findings.iter().zip(&ca.findings) {
            assert_eq!(
                of.identity(),
                cf.identity(compact.table()),
                "identity drifted for {} on {}",
                of.id,
                of.app
            );
            findings += 1;
        }
    }
    assert!(findings > 0, "corpus produced no findings to compare");
}
