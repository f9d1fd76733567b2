//! # ij-datasets — the calibrated evaluation corpus
//!
//! The paper evaluates open-source Helm charts from six organizations.
//! Those exact charts (and their container images) are not reproducible
//! offline, so this crate generates a **synthetic corpus with the same
//! shape**: the same six datasets with the same per-dataset application
//! counts, each chart carrying an injected misconfiguration plan such that
//! the per-class counts sum exactly to Table 2 (634 findings, 259 affected
//! applications; the table's dataset sizes sum to 290 even though the text
//! says 287 — this corpus follows the table), the named applications of
//! Figures 3a/3b carry their published profiles, and the policy postures of
//! Figure 4b hold per dataset.
//!
//! Unlike the real study, the corpus has **ground truth**: every chart knows
//! which findings it should produce, so analyzer precision and recall are
//! testable (the paper notes the lack of ground truth as a limitation,
//! §6.3).
//!
//! The crate also ships the §2.1 proof-of-concept applications (Concourse
//! and Thanos) and the representative per-class charts used for the Table 3
//! tool comparison.
//!
//! ## The census pipeline
//!
//! [`CensusPipeline`] is the front door to the evaluation: a builder
//! configures the seed, probe, analyzer (including per-rule registry
//! ablations), worker-thread and shard counts, and an optional progress
//! observer; `run` executes baseline → install → double-pass probe → rule
//! evaluation → cluster-wide pass and returns a typed [`CensusError`]
//! instead of panicking when a chart fails to render or install. One
//! engine runs every census, from a slice of specs (`run`) or a streamed
//! [`CorpusGenerator`] (`run_generated_compact`), and is
//! deterministic: the census is byte-identical for every
//! `(threads, shards)` combination.
//!
//! ```
//! use ij_datasets::{corpus, CensusPipeline, Org};
//!
//! let eea: Vec<_> = corpus().into_iter().filter(|a| a.org == Org::Eea).collect();
//! let census = CensusPipeline::builder()
//!     .seed(42)
//!     .threads(2)
//!     .build()
//!     .run(&eea)
//!     .expect("the synthetic corpus renders and installs");
//! assert_eq!(census.apps.len(), eea.len());
//! ```

mod builder;
mod codeploy;
mod conform;
pub mod gen;
mod orgs;
mod pipeline;
mod poc;
mod representative;
mod runner;
mod score;
mod spec;

pub use builder::{build_app, ports, BuiltApp, INSTANCE_KEY};
pub use codeploy::{co_deploy, exposure, Exposure, ATTACKER};
pub use conform::{
    run_conformance, ChartConformance, ChartStatus, ConformanceError, ConformanceReport,
};
pub use gen::{
    apply_mutation, describe_builtin, Archetype, ChurnMutation, ChurnSession, CorpusGenerator,
    CorpusProfile, CorpusProfileBuilder, MisconfigMix, MixError, PopulationSummary, FLIP_TOKEN,
};
pub use orgs::corpus;
pub use pipeline::{
    CensusError, CensusObserver, CensusPipeline, CensusPipelineBuilder, CensusProgress,
    PhaseReport, PhaseTimings,
};
pub use poc::{concourse_behaviors, concourse_chart, thanos_behaviors, thanos_chart};
pub use representative::representative_charts;
pub use runner::{AppAnalysis, CorpusOptions, PolicyImpact};
pub use score::{score_corpus, ClassScore, ScoreReport};
pub use spec::{AppSpec, NetpolSpec, Org, Plan};
