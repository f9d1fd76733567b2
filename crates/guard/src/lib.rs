//! # ij-guard — defending the cluster
//!
//! The paper's title promises *defense*, and its mitigation section (§3.5)
//! plus future-work direction (deriving network policies automatically from
//! declared connectivity) describe one. This crate implements that defense
//! on top of the analyzer:
//!
//! * [`GuardAdmission`] — a validating admission controller for the
//!   simulator's API server. It rejects (or warns about) objects that would
//!   introduce statically-detectable misconfigurations *before* they land in
//!   the cluster. The verdict is the analyzer's own rules run over the
//!   incoming object's neighbourhood in its namespace: label collisions
//!   with existing resources (M4A, and M4C for a service the object would
//!   join; the check Kubernetes itself never performs), hostNetwork pods
//!   (M7), services referencing undeclared ports (M5B) and services
//!   without targets (M5D).
//! * [`PolicySynthesizer`] — derives least-privilege NetworkPolicies from
//!   the declared ports of each compute unit, turning the default-allow
//!   cluster into declared-ports-only (mitigating M6 and cutting off every
//!   undeclared M1 port). Dynamic ports (M2) cannot be expressed statically;
//!   the synthesizer reports those as residual risks instead of silently
//!   ignoring them.
//! * [`IncrementalAuditor`] — the continuous auditor, the "monitoring
//!   tools that provide proactive advice" the paper calls for. It audits a
//!   whole multi-release cluster and reports finding deltas
//!   ([`AuditDelta`]), consuming the cluster's dirty-set summaries to
//!   re-analyze only dirtied releases (and, when labels moved, only the
//!   part of the cluster-wide label pass they touch), with the full
//!   recompute kept as the property-tested oracle. Objects applied outside
//!   any release are audited together as one more release,
//!   [`UNATTRIBUTED_RELEASE`], so a hand-deployed pod carrying a release's
//!   labels surfaces as `M4*`.

mod admission;
mod audit;
mod incremental;
mod synth;

pub use admission::{GuardAdmission, GuardPolicy};
pub use audit::AuditDelta;
pub use incremental::{IncrementalAuditor, UNATTRIBUTED_RELEASE};
pub use synth::{PolicySynthesizer, SynthesisOutcome};
