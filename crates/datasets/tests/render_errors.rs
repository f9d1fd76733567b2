//! The corpus runner trusts its generated charts to render; hand-built
//! charts may not. These tests pin down the failure behaviour: `ij-chart`
//! returns typed errors, and the census pipeline surfaces them as
//! [`CensusError::Render`] naming the chart — never a panic.

use ij_chart::{Chart, Error, Release};
use ij_datasets::{build_app, AppSpec, BuiltApp, CensusError, CensusPipeline, Org, Plan};

/// A template that renders to structurally invalid YAML (a sequence item
/// where a mapping value is required).
const BAD_YAML_TEMPLATE: &str = "\
apiVersion: v1
kind: Service
metadata:
  name: broken
spec:
  - this is a sequence
  where: a mapping was required
";

fn malformed_chart() -> Chart {
    Chart::builder("malformed")
        .template("broken.yaml", BAD_YAML_TEMPLATE)
        .build()
}

#[test]
fn render_reports_invalid_yaml_with_template_name() {
    let err = malformed_chart()
        .render(&Release::new("x", "default"))
        .expect_err("malformed chart must not render");
    match err {
        Error::RenderedYaml { template, .. } => assert_eq!(template, "broken.yaml"),
        other => panic!("expected RenderedYaml, got {other:?}"),
    }
}

#[test]
fn render_reports_template_syntax_errors() {
    let err = Chart::builder("syntax")
        .template("bad.yaml", "value: {{ .Values.x") // unclosed action
        .build()
        .render(&Release::new("x", "default"))
        .expect_err("unclosed template action must not render");
    match err {
        Error::Template { template, .. } => assert_eq!(template, "bad.yaml"),
        other => panic!("expected Template, got {other:?}"),
    }
}

#[test]
fn analyze_one_returns_typed_render_error() {
    // Reuse a real built app for the spec/behaviours, then swap in a chart
    // that cannot render — the pipeline must return a typed error naming
    // the chart instead of panicking (the seed's behaviour).
    let spec = AppSpec::new("malformed-app", Org::Cncf, "0.0.1", Plan::clean());
    let base = build_app(&spec);
    let built = BuiltApp::new(base.spec.clone(), malformed_chart(), base.behaviors.clone());
    let err = CensusPipeline::builder()
        .build()
        .analyze_one(&built)
        .expect_err("malformed chart must surface an error");
    assert_eq!(err.app(), "malformed-app");
    match &err {
        CensusError::Render { app, source } => {
            assert_eq!(app, "malformed-app");
            assert!(matches!(source, Error::RenderedYaml { .. }), "{source:?}");
        }
        other => panic!("expected CensusError::Render, got {other:?}"),
    }
    // The rendered message names the chart, like the old panic did.
    assert!(err
        .to_string()
        .contains("chart malformed-app failed to render"));
    // std::error::Error wiring: the chart error is the source.
    assert!(std::error::Error::source(&err).is_some());
}
