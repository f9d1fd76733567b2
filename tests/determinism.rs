//! Reproducibility: the whole evaluation is a pure function of the seed —
//! independent of how many pipeline workers analyze the corpus.

use inside_job::core::MisconfigId;
use inside_job::datasets::{corpus, CensusPipeline, CorpusGenerator, CorpusProfile, Org};

/// FNV-1a 64 over a value's `{:#?}` rendering: the byte-level fingerprint
/// the pins below compare.
fn fnv64_debug(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:#?}")
        .bytes()
        .fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
}

#[test]
fn census_is_deterministic_across_runs() {
    let slice: Vec<_> = corpus()
        .into_iter()
        .filter(|a| a.org == Org::PrometheusCommunity)
        .collect();
    let pipeline = CensusPipeline::builder().build();
    let a = pipeline.run(&slice).expect("corpus slice runs");
    let b = pipeline.run(&slice).expect("corpus slice runs");
    assert_eq!(a.apps.len(), b.apps.len());
    for (x, y) in a.apps.iter().zip(b.apps.iter()) {
        assert_eq!(x.findings, y.findings, "app {}", x.app);
    }
}

#[test]
fn parallel_census_is_byte_identical_to_sequential() {
    // The acceptance bar of the pipeline redesign (re-verified across the
    // compiled render layer): a `threads(n)` census must equal the
    // sequential same-seed run byte for byte (via the canonical Debug
    // rendering), not merely in counts — for every worker count.
    let slice: Vec<_> = corpus()
        .into_iter()
        .filter(|a| a.org == Org::PrometheusCommunity)
        .collect();
    let sequential = CensusPipeline::builder()
        .build()
        .run(&slice)
        .expect("sequential census runs");
    for threads in [2usize, 4, 8] {
        let parallel = CensusPipeline::builder()
            .threads(threads)
            .build()
            .run(&slice)
            .expect("parallel census runs");
        assert_eq!(
            format!("{sequential:#?}"),
            format!("{parallel:#?}"),
            "threads({threads}) census diverged from the sequential run"
        );
    }
}

#[test]
fn policy_impact_is_byte_identical_through_the_render_cache() {
    // The §4.3.2 study re-renders the census apps with policies
    // force-enabled; a fresh pipeline, one that just ran a threaded
    // census, and a repeat must all produce the same rows, byte for byte.
    let slice: Vec<_> = corpus().into_iter().filter(|a| a.org == Org::Eea).collect();
    let fresh = CensusPipeline::builder()
        .build()
        .policy_impact(&slice)
        .expect("fresh policy impact runs");
    let shared = CensusPipeline::builder().threads(8).build();
    shared.run(&slice).expect("threaded census runs");
    let warm = shared
        .policy_impact(&slice)
        .expect("warm policy impact runs");
    let again = shared
        .policy_impact(&slice)
        .expect("cached policy impact runs");
    assert_eq!(format!("{fresh:#?}"), format!("{warm:#?}"));
    assert_eq!(format!("{warm:#?}"), format!("{again:#?}"));
}

#[test]
fn full_corpus_matches_the_pinned_fnv64_hashes() {
    // The reference bytes of the whole evaluation: the full-corpus census
    // and the policy-impact rows, rendered with `{:#?}` and hashed. Any
    // change to either, at any thread count, is a behaviour change.
    let specs = corpus();
    for threads in [1usize, 2] {
        let pipeline = CensusPipeline::builder().threads(threads).build();
        let census = pipeline.run(&specs).expect("the full corpus runs");
        assert_eq!(
            format!("{:016x}", fnv64_debug(&census)),
            "11f60f84036a458e",
            "threads({threads}) census bytes drifted"
        );
        let impact = pipeline.policy_impact(&specs).expect("policy study runs");
        assert_eq!(
            format!("{:016x}", fnv64_debug(&impact)),
            "3beb1d5f8e2965da",
            "threads({threads}) policy-impact bytes drifted"
        );
    }
}

#[test]
fn synthetic_generation_is_byte_identical_across_thread_counts() {
    // The generator synthesizes spec i inside whichever worker claims index
    // i, so this exercises the vendored xoshiro RNG from generation through
    // render, install, probe, and analysis: the same seed must produce a
    // byte-identical census no matter how many workers raced over it.
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(60)
            .with_seed(7),
    );
    let sequential = CensusPipeline::builder()
        .seed(7)
        .build()
        .run_generated_compact(&generator)
        .expect("sequential generated census runs")
        .resolve();
    for threads in [2usize, 4, 8] {
        let parallel = CensusPipeline::builder()
            .seed(7)
            .threads(threads)
            .build()
            .run_generated_compact(&generator)
            .expect("parallel generated census runs")
            .resolve();
        assert_eq!(
            format!("{sequential:#?}"),
            format!("{parallel:#?}"),
            "threads({threads}) generated census diverged from the sequential run"
        );
    }
}

#[test]
fn synthetic_population_is_a_pure_function_of_profile_and_seed() {
    let make = || {
        CorpusGenerator::new(
            CorpusProfile::named("legacy")
                .expect("legacy profile")
                .with_apps(48)
                .with_seed(0xC0FFEE),
        )
    };
    let (a, b) = (make(), make());
    // Index access, iteration, and a fresh generator all agree byte for
    // byte — and out-of-order access cannot perturb later specs.
    let backwards: Vec<_> = (0..48).rev().map(|i| a.spec(i)).collect();
    for (i, spec) in b.iter().enumerate() {
        assert_eq!(
            format!("{spec:?}"),
            format!("{:?}", backwards[47 - i]),
            "index {i}"
        );
    }
    assert_eq!(
        format!("{:#?}", a.describe()),
        format!("{:#?}", b.describe())
    );
}

#[test]
fn different_seed_same_census_shape() {
    // Ephemeral port numbers change with the seed, but the *findings* (which
    // never depend on the specific port value, only its class) must not.
    let slice: Vec<_> = corpus()
        .into_iter()
        .filter(|a| a.org == Org::Wikimedia)
        .collect();
    let run = |seed| {
        CensusPipeline::builder()
            .seed(seed)
            .build()
            .run(&slice)
            .expect("corpus slice runs")
    };
    let (a, b) = (run(42), run(0xDEADBEEF));
    for id in MisconfigId::ALL {
        let count =
            |c: &inside_job::core::Census| c.apps.iter().map(|r| r.count_of(id)).sum::<usize>();
        assert_eq!(count(&a), count(&b), "{id} count differs across seeds");
    }
}
