//! # ij-core — the hybrid network-misconfiguration analyzer
//!
//! The paper's primary contribution: a solution that takes a Helm chart,
//! performs **static analysis** (parsing the rendered YAML for container
//! ports, service ports, labels, and selectors) and **runtime analysis**
//! (installing the application into an empty cluster and observing its
//! behaviour), then evaluates the combined evidence against machine-readable
//! rules for the thirteen misconfiguration classes of Table 1:
//!
//! | family | classes | evidence |
//! |---|---|---|
//! | port deltas | M1, M2, M3 | declaration ⟷ runtime sockets |
//! | label collisions | M4A, M4B, M4C, M4\* | labels & selectors (M4\* cluster-wide) |
//! | service references | M5A, M5B, M5C, M5D | service ports ⟷ declarations ⟷ runtime |
//! | isolation | M6, M7 | NetworkPolicies, hostNetwork |
//!
//! The typical flow mirrors §4.2 of the paper:
//!
//! ```
//! use ij_chart::{Chart, Release};
//! use ij_cluster::{Cluster, ClusterConfig};
//! use ij_core::{chart_defines_network_policies, Analyzer};
//! use ij_probe::{HostBaseline, RuntimeAnalyzer};
//!
//! let chart = Chart::builder("demo")
//!     .template("pod.yaml", "\
//! apiVersion: v1
//! kind: Pod
//! metadata:
//!   name: demo
//!   labels:
//!     app: demo
//! spec:
//!   containers:
//!     - name: demo
//!       image: demo/app
//!       ports:
//!         - containerPort: 8080
//! ")
//!     .build();
//!
//! // Fresh cluster per application (§4.2.1), baseline before install.
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! let baseline = HostBaseline::capture(&cluster);
//! let rendered = chart
//!     .compile()
//!     .unwrap()
//!     .render(&Release::new("demo", "default"))
//!     .unwrap();
//! cluster.install(&rendered).unwrap();
//!
//! // Runtime analysis: two observation passes around a restart.
//! let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
//!
//! // Rule evaluation.
//! let findings = Analyzer::hybrid().analyze_app(
//!     "demo",
//!     &rendered.objects,
//!     &cluster,
//!     Some(&runtime),
//!     chart_defines_network_policies(&chart),
//! );
//! // The well-behaved demo app only lacks network policies (M6).
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].id, ij_core::MisconfigId::M6);
//! ```
//!
//! ## The rule registry
//!
//! The analyzer evaluates its rules by iterating a [`RuleRegistry`] rather
//! than a hardcoded call list: every rule of Table 1 is a named entry
//! ([`RuleRegistry::standard`] registers `m1`–`m7` plus the cluster-wide
//! `m4star`), individually enable/disable-able for per-rule ablations, and
//! custom application rules can be registered next to the built-in ones:
//!
//! ```
//! use ij_core::Analyzer;
//!
//! // Per-rule ablation: everything except hostNetwork checks. A misspelt
//! // rule name is a typed error, not a silently unchanged analyzer.
//! let mut quiet = Analyzer::hybrid();
//! quiet.registry.try_disable("m7").expect("m7 is a standard rule");
//! assert!(!quiet.registry.try_get("m7").unwrap().is_enabled());
//! assert!(quiet.registry.try_get("m1").unwrap().is_enabled());
//! assert!(quiet.registry.try_disable("m8").is_err());
//! ```

mod compact;
mod disclosure;
mod engine;
mod finding;
pub mod lang;
mod model;
mod registry;
mod report;
mod rules;
mod symtab;

pub use compact::{
    m4_global_collisions_compact, m4_global_collisions_scoped, sort_canonical_compact,
    CompactAppReport, CompactCensus, CompactFinding, GlobalAppModel, GlobalService, GlobalUnit,
    M4Index, M4Owner, M4Part, M4Scope,
};
pub use disclosure::{disclosure_report, questionnaire, THREAT_MODEL};
pub use engine::{chart_defines_network_policies, Analyzer, AnalyzerOptions};
pub use finding::{canonical_cmp, sort_canonical, Finding, MisconfigId, Severity};
pub use lang::{CompiledRule, LangError, RulePack, TraceAtom, BUILTIN_PACK_SOURCE};
pub use model::{ComputeUnit, StaticModel};
pub use registry::{AppRule, RuleEntry, RuleOrigin, RuleRegistry, RuleScope, UnknownRule};
pub use report::{AppReport, Census, ConcentrationStats, DatasetRow};
pub use rules::{AppView, RuleContext};
pub use symtab::{Sym, SymMemo, SymbolTable};
