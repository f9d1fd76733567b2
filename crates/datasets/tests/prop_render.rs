//! Compiled-render equivalence: for *any* (bounded) injection plan, any
//! release namespace, and either policy posture, the compile-once render
//! path ([`ij_chart::CompiledChart`]) must produce output byte-identical to
//! the parse-per-call seed path ([`ij_chart::Chart::render`]). This is the
//! acceptance bar of the compiled render layer, mirroring how the compiled
//! policy index was verified against the naive engine. The built-in corpus
//! is checked app by app as well: its named Figure 3a/3b profiles are
//! hand-written plans that `arb_plan` does not generate.

use ij_chart::{Release, RenderScratch};
use ij_datasets::{build_app, corpus, AppSpec, NetpolSpec, Org, Plan};
use ij_model::Object;
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

fn arb_release() -> impl Strategy<Value = Release> {
    (0usize..3, any::<bool>()).prop_map(|(ns, force_policies)| {
        let release = Release::new("prop-rel", ["default", "apps", "prod"][ns]);
        if force_policies {
            release
                .with_values_yaml("networkPolicy:\n  enabled: true\n")
                .expect("static values parse")
        } else {
            release
        }
    })
}

/// Every app of the built-in corpus (all 290, named profiles included)
/// renders byte-identically through the compiled and the seed path.
#[test]
fn compiled_render_matches_seed_path_on_the_whole_corpus() {
    let specs = corpus();
    assert_eq!(specs.len(), 290);
    for spec in &specs {
        let built = build_app(spec);
        let release = Release::new(&spec.name, "default");
        let naive = built.chart().render(&release).expect("seed path renders");
        let replay = built
            .compiled()
            .expect("corpus charts compile")
            .render(&release)
            .expect("compiled path renders");
        assert_eq!(
            format!("{naive:#?}"),
            format!("{replay:#?}"),
            "compiled render diverged from the seed path for {}",
            spec.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_render_is_byte_identical_to_seed_path(
        plan in arb_plan(),
        release in arb_release(),
    ) {
        let spec = AppSpec::new("prop-render", Org::Bitnami, "0.0.1", plan);
        let built = build_app(&spec);

        let naive = built.chart().render(&release).expect("seed path renders");
        let compiled = built.compiled().expect("corpus charts compile");
        let replay = compiled.render(&release).expect("compiled path renders");
        prop_assert_eq!(
            format!("{naive:#?}"),
            format!("{replay:#?}"),
            "compiled render diverged from the seed path"
        );

        // Replaying the cached ASTs again changes nothing.
        let again = compiled.render(&release).expect("second replay renders");
        prop_assert_eq!(format!("{replay:#?}"), format!("{again:#?}"));
    }

    /// The direct-to-Value hot path carries a determinism contract: emitting
    /// each [`ij_chart::CompiledChart::render_values`] document back to text
    /// and reparsing it must reproduce the document exactly, and decoding the
    /// stream under the release namespace must yield the oracle
    /// [`ij_chart::Chart::render`] objects byte-for-byte.
    #[test]
    fn render_values_emitted_and_reparsed_matches_oracle(
        plan in arb_plan(),
        release in arb_release(),
    ) {
        let spec = AppSpec::new("prop-values", Org::Bitnami, "0.0.1", plan);
        let built = build_app(&spec);

        let oracle = built.chart().render(&release).expect("seed path renders");
        let compiled = built.compiled().expect("corpus charts compile");
        let docs = compiled.render_values(&release).expect("value path renders");

        let mut decoded = Vec::with_capacity(docs.len());
        for doc in &docs {
            let emitted = ij_yaml::to_string(doc);
            let reparsed = ij_yaml::parse(&emitted).expect("emitted document reparses");
            prop_assert_eq!(
                format!("{doc:#?}"),
                format!("{reparsed:#?}"),
                "emit/reparse round-trip changed a rendered document"
            );
            let mut obj = Object::decode(&reparsed).expect("document decodes");
            if obj.kind() != "Namespace" && obj.meta().namespace == "default" {
                obj.meta_mut().namespace = release.namespace.clone();
            }
            decoded.push(obj);
        }
        prop_assert_eq!(
            format!("{:#?}", oracle.objects),
            format!("{decoded:#?}"),
            "render_values, emitted and reparsed, diverged from the oracle render"
        );
    }

    /// Worker scratch must not leak state between apps: rendering two
    /// different apps back-to-back through one reused [`RenderScratch`] and
    /// one reused staging vec must match what each app renders into fresh
    /// buffers.
    #[test]
    fn reused_scratch_matches_fresh_buffers(
        plan_a in arb_plan(),
        plan_b in arb_plan(),
        release in arb_release(),
    ) {
        let built_a = build_app(&AppSpec::new("prop-scr-a", Org::Bitnami, "0.0.1", plan_a));
        let built_b = build_app(&AppSpec::new("prop-scr-b", Org::Cncf, "0.0.2", plan_b));

        let mut scratch = RenderScratch::default();
        let mut staged = Vec::new();
        let mut reused = Vec::new();
        for built in [&built_a, &built_b] {
            let compiled = built.compiled().expect("corpus charts compile");
            staged.clear();
            compiled
                .render_objects_into(&release, &mut scratch, &mut staged)
                .expect("reused-scratch render succeeds");
            reused.push(format!("{staged:#?}"));
        }

        for (built, seen) in [&built_a, &built_b].into_iter().zip(&reused) {
            let fresh = built
                .compiled()
                .expect("corpus charts compile")
                .render(&release)
                .expect("fresh-buffer render succeeds");
            prop_assert_eq!(
                &format!("{:#?}", fresh.objects),
                seen,
                "reused worker scratch poisoned a later app's render"
            );
        }
    }
}
