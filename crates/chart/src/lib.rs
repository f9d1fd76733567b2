//! # ij-chart — a Helm-like chart engine
//!
//! Kubernetes applications are rarely deployed from raw manifests; they ship
//! as *charts*: parameterized template bundles with default values,
//! dependencies, and optional resources. The paper's whole evaluation operates
//! on Helm charts, and several misconfiguration classes (most notably M6,
//! "policies present but not enabled") only exist at the chart level.
//!
//! This crate implements the subset of Helm needed to express real-world
//! charts faithfully:
//!
//! * a template language with `{{ .Values.* }}` interpolation, `if`/`else`,
//!   `range`, pipelines (`|`) and the common helper functions (`default`,
//!   `quote`, `toYaml`, `indent`/`nindent`, `eq`, `not`, …), including
//!   whitespace-control markers (`{{-`, `-}}`);
//! * chart packaging: default values, templates, subchart dependencies with
//!   enable conditions, deep value overlays;
//! * a render pipeline producing typed [`ij_model::Object`]s for a release.
//!
//! Every production caller renders through [`Chart::compile`] →
//! [`CompiledChart::render`], the parse-once / render-many form (Helm's own
//! engine shape): template ASTs are cached, action-free files are
//! pre-decoded to objects, and each render builds one context per chart
//! level while borrowing everything else. Template evaluation itself is
//! copy-on-write — `.Values.a.b` lookups borrow from the values tree
//! instead of cloning the addressed subtree. [`Chart::render`] re-parses
//! every file per call; it is the oracle the compiled path is tested
//! against, with the same output and the same errors.
//!
//! ```
//! use ij_chart::{Chart, Release};
//!
//! let chart = Chart::builder("demo")
//!     .values_yaml("service:\n  port: 8080\n").unwrap()
//!     .template("svc.yaml", "\
//! apiVersion: v1
//! kind: Service
//! metadata:
//!   name: {{ .Release.Name }}-demo
//! spec:
//!   selector:
//!     app: demo
//!   ports:
//!     - port: {{ .Values.service.port }}
//! ")
//!     .build();
//! let release = chart
//!     .compile()
//!     .unwrap()
//!     .render(&Release::new("test", "default"))
//!     .unwrap();
//! assert_eq!(release.objects.len(), 1);
//! assert_eq!(release.objects[0].meta().name, "test-demo");
//! ```

mod chart;
mod compiled;
mod error;
mod fsload;
mod template;

pub use chart::{Chart, ChartBuilder, Dependency, Release, RenderedRelease, TemplateSource};
pub use compiled::{CompiledChart, RenderScratch};
pub use error::{Error, IngestError, Result};
