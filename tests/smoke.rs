//! End-to-end determinism smoke test.
//!
//! The whole evaluation is specified to be a pure function of the seed
//! (ROADMAP / crate docs), so two censuses over the same specs and options
//! must agree *byte for byte* — not just in finding counts, but in every
//! `Census` and `AppReport` field, including the ephemeral port numbers the
//! probe observes. This is the cheap canary for any future nondeterminism
//! (parallelism, hash-map ordering, time-dependent logic) sneaking into the
//! pipeline.

use inside_job::datasets::{AppSpec, CensusPipeline, NetpolSpec, Org, Plan};

/// A small corpus that still exercises the interesting machinery: runtime
/// deltas (M1/M2 incl. seeded ephemeral ports), label collisions, service
/// references, a cluster-wide M4* pair, hostNetwork, and a policy posture.
fn small_specs() -> Vec<AppSpec> {
    vec![
        AppSpec::new(
            "smoke-alpha",
            Org::Cncf,
            "1.0.0",
            Plan {
                m1: 2,
                m2: 1,
                m3: 1,
                m4a: 1,
                m7: 1,
                netpol: NetpolSpec::Missing,
                m4star_tokens: vec!["smoke-shared"],
                ..Default::default()
            },
        ),
        AppSpec::new(
            "smoke-beta",
            Org::Cncf,
            "1.0.0",
            Plan {
                m2: 1,
                m5a: 1,
                m5b: 1,
                m5d: 1,
                netpol: NetpolSpec::DefinedDisabled { loose: true },
                m4star_tokens: vec!["smoke-shared"],
                ..Default::default()
            },
        ),
        AppSpec::new("smoke-gamma", Org::Cncf, "1.0.0", Plan::clean()),
    ]
}

#[test]
fn same_seed_census_is_byte_identical() {
    let specs = small_specs();
    let pipeline = CensusPipeline::builder().seed(7).build();
    let first = pipeline.run(&specs).expect("smoke corpus runs");
    let second = pipeline.run(&specs).expect("smoke corpus runs");

    // Per-app first so a regression names the offending application…
    assert_eq!(first.apps.len(), second.apps.len());
    for (a, b) in first.apps.iter().zip(second.apps.iter()) {
        assert_eq!(
            format!("{a:#?}"),
            format!("{b:#?}"),
            "AppReport for {} differs between identical runs",
            a.app
        );
    }
    // …then the whole census, byte for byte.
    assert_eq!(
        format!("{first:#?}"),
        format!("{second:#?}"),
        "Census output differs between identical runs"
    );
}

#[test]
fn different_seed_keeps_finding_structure() {
    // Complement of the byte-identity test: the seed feeds only the
    // runtime's ephemeral draws, so a different seed must still produce the
    // same findings app by app (classes never depend on which port the OS
    // happened to assign).
    let specs = small_specs();
    let run = |seed| {
        CensusPipeline::builder()
            .seed(seed)
            .build()
            .run(&specs)
            .expect("smoke corpus runs")
    };
    let (a, b) = (run(7), run(1337));
    for (x, y) in a.apps.iter().zip(b.apps.iter()) {
        assert_eq!(x.findings, y.findings, "findings diverged for {}", x.app);
    }
}

#[test]
fn threaded_census_is_byte_identical_to_sequential() {
    // Same byte-identity bar as the same-seed test, but across thread
    // counts: worker scheduling must never leak into the census.
    let specs = small_specs();
    let sequential = CensusPipeline::builder()
        .seed(7)
        .build()
        .run(&specs)
        .expect("smoke corpus runs");
    for threads in [2, 4] {
        let parallel = CensusPipeline::builder()
            .seed(7)
            .threads(threads)
            .build()
            .run(&specs)
            .expect("smoke corpus runs");
        assert_eq!(
            format!("{sequential:#?}"),
            format!("{parallel:#?}"),
            "threads({threads}) census differs from the sequential run"
        );
    }
}
