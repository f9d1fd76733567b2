//! The merged outcome of the runtime analysis.

use crate::snapshot::ObservedSocket;
use std::collections::BTreeMap;

/// Runtime observation for one pod.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PodRuntime {
    /// Sockets present in both runs: the application's steady listeners.
    pub stable: Vec<ObservedSocket>,
    /// Ephemeral-range sockets present in exactly one run: dynamic ports
    /// (the paper's M2 evidence).
    pub dynamic: Vec<ObservedSocket>,
}

impl PodRuntime {
    /// True when any dynamic port was observed.
    pub fn has_dynamic_ports(&self) -> bool {
        !self.dynamic.is_empty()
    }
}

/// Runtime observations for every pod of an installation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeReport {
    /// Pod qualified name → runtime observation.
    pub pods: BTreeMap<String, PodRuntime>,
    /// Spurious UDP observations dropped by the flakiness filter.
    pub udp_noise_filtered: usize,
}

impl RuntimeReport {
    /// Observation for one pod.
    pub fn pod(&self, qualified: &str) -> Option<&PodRuntime> {
        self.pods.get(qualified)
    }

    /// Total stable sockets across pods.
    pub fn stable_count(&self) -> usize {
        self.pods.values().map(|p| p.stable.len()).sum()
    }

    /// Total dynamic sockets across pods.
    pub fn dynamic_count(&self) -> usize {
        self.pods.values().map(|p| p.dynamic.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let mut report = RuntimeReport::default();
        report.pods.insert(
            "default/a".into(),
            PodRuntime {
                stable: vec![ObservedSocket::tcp(80), ObservedSocket::tcp(443)],
                dynamic: vec![ObservedSocket::tcp(40000)],
            },
        );
        report.pods.insert(
            "default/b".into(),
            PodRuntime {
                stable: vec![ObservedSocket::udp(53)],
                dynamic: vec![],
            },
        );
        assert_eq!(report.stable_count(), 3);
        assert_eq!(report.dynamic_count(), 1);
        assert!(report.pod("default/a").unwrap().has_dynamic_ports());
        assert!(report
            .pod("default/b")
            .unwrap()
            .stable
            .contains(&ObservedSocket::udp(53)));
        assert!(report.pod("default/c").is_none());
    }
}
