//! The strongest property in the workspace: for *any* (bounded) injection
//! plan, the full pipeline — chart build, render, install, double-pass
//! probe, hybrid analysis — detects exactly the planned findings, class by
//! class. This is the precision/recall guarantee the real study could not
//! state for lack of ground truth (§6.3).

use ij_core::MisconfigId;
use ij_datasets::{build_app, AppSpec, CensusPipeline, NetpolSpec, Org, Plan};
use proptest::prelude::*;

fn arb_netpol() -> impl Strategy<Value = NetpolSpec> {
    prop_oneof![
        Just(NetpolSpec::Missing),
        Just(NetpolSpec::DefinedDisabled { loose: false }),
        Just(NetpolSpec::DefinedDisabled { loose: true }),
        Just(NetpolSpec::Enabled { loose: false }),
        Just(NetpolSpec::Enabled { loose: true }),
    ]
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        (0usize..=2, 0usize..=2, 0usize..=2),
        (0usize..=2, 0usize..=2, 0usize..=2),
        (0usize..=2, 0usize..=2, 0usize..=2, 0usize..=2),
        arb_netpol(),
        0usize..=2,
        (1u32..=3, 0usize..=2),
    )
        .prop_map(
            |(
                (m1, m2, m3),
                (m4a, m4b, m4c),
                (m5a, m5b, m5c, m5d),
                netpol,
                m7,
                (replicas, clean),
            )| Plan {
                m1,
                m2,
                m3,
                m4a,
                m4b,
                m4c,
                m5a,
                m5b,
                m5c,
                m5d,
                netpol,
                m7,
                server_replicas: replicas,
                clean_components: clean,
                m4star_tokens: vec![],
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_detects_exactly_the_plan(plan in arb_plan(), seed in 0u64..1000) {
        let spec = AppSpec::new("prop-app", Org::Bitnami, "0.0.1", plan.clone());
        let built = build_app(&spec);
        let analysis = CensusPipeline::builder()
            .seed(seed)
            .build()
            .analyze_one(&built)
            .expect("corpus app analyzes");
        for id in MisconfigId::ALL {
            let measured = analysis.findings.iter().filter(|f| f.id == id).count();
            prop_assert_eq!(
                measured,
                plan.expected_of(id),
                "{}: plan {:?}\nfindings {:#?}",
                id,
                plan,
                analysis.findings
            );
        }
    }
}
