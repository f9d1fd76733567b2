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
    use crate::{Cluster, ClusterConfig};
    use ij_model::{ObjectMeta, Pod, PodSpec};

    struct Decides(AdmissionOutcome);

    impl AdmissionController for Decides {
        fn name(&self) -> &str {
            "decides"
        }
        fn review(&self, _: &AdmissionReview<'_>) -> AdmissionOutcome {
            self.0.clone()
        }
    }

    #[test]
    fn deny_is_not_allowed() {
        let apply = |outcome: AdmissionOutcome| {
            let mut cluster = Cluster::new(ClusterConfig::default());
            cluster.push_admission(Box::new(Decides(outcome)));
            let pod = Pod::new(ObjectMeta::named("p"), PodSpec::default());
            cluster.apply(Object::Pod(pod)).is_ok()
        };
        assert!(!apply(AdmissionOutcome::Deny("nope".into())));
        assert!(apply(AdmissionOutcome::Warn(vec!["careful".into()])));
    }
}
