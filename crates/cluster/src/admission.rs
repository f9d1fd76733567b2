//! The admission chain: the API server hook where requests can be vetted
//! before objects are persisted.
//!
//! Kubernetes exposes this as validating/mutating admission webhooks; the
//! `ij-guard` crate plugs its defense in here. The review gets read access to
//! the current object set so that cross-object checks (label collisions
//! against *existing* resources — the M4\* case Kubernetes itself never
//! performs) are possible at admission time.

use crate::slots::Live;
use ij_model::Object;

/// What an admission controller decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Persist the object.
    Allow,
    /// Persist the object but surface warnings to the client.
    Warn(Vec<String>),
    /// Reject the request.
    Deny(String),
}

impl AdmissionOutcome {
    /// True unless the outcome is a denial.
    pub fn is_allowed(&self) -> bool {
        !matches!(self, AdmissionOutcome::Deny(_))
    }
}

/// The request under review.
#[derive(Debug)]
pub struct AdmissionReview<'a> {
    /// The incoming object.
    pub object: &'a Object,
    /// Objects already persisted in the cluster (cluster-wide), in apply
    /// order, among them the one the incoming object replaces if it has its
    /// kind, namespace and name.
    pub existing: Live<'a, Object>,
}

/// A validating admission controller.
pub trait AdmissionController: Send + Sync {
    /// Controller name, used in event logs and error messages.
    fn name(&self) -> &str;

    /// Reviews one create request.
    fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_is_not_allowed() {
        assert!(!AdmissionOutcome::Deny("nope".into()).is_allowed());
        assert!(AdmissionOutcome::Warn(vec!["careful".into()]).is_allowed());
    }
}
