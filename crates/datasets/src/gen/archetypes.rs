//! The organization archetypes of the procedural corpus.
//!
//! Each archetype is a recognizable deployment style: it fixes the
//! *structural* envelope of a generated application (component count,
//! server replicas) and biases the *misconfiguration propensity* per rule
//! family. The rates themselves live in a
//! [`MisconfigMix`](crate::MisconfigMix); the archetype only scales them,
//! so one mix can drive very different populations.

use ij_core::MisconfigId;
use rand::{rngs::StdRng, Rng};

use crate::spec::Plan;

/// A deployment style the generator can synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Archetype {
    /// Many small, well-formed services around a replicated entry point —
    /// prone to label/selector mistakes (M4, M5) as the service mesh grows.
    MicroserviceMesh,
    /// One heavyweight server plus a couple of sidecars — prone to port
    /// drift between declaration and runtime (M1, M3).
    Monolith,
    /// A staged processing chain with transient workers — prone to
    /// OS-assigned dynamic ports (M2) and stale service targets.
    DataPipeline,
    /// A legacy estate of node agents on `hostNetwork: true` (M7), usually
    /// without any NetworkPolicy story.
    HostNetworkLegacy,
    /// A policy-mature organization: NetworkPolicies enabled and tight by
    /// default, very low misconfiguration rates across the board.
    PolicyMature,
}

impl Archetype {
    /// Every archetype, in generation order.
    pub const ALL: [Archetype; 5] = [
        Archetype::MicroserviceMesh,
        Archetype::Monolith,
        Archetype::DataPipeline,
        Archetype::HostNetworkLegacy,
        Archetype::PolicyMature,
    ];

    /// Short machine name (used as the generated chart-name prefix and in
    /// the population summary).
    pub(crate) fn slug(&self) -> &'static str {
        match self {
            Archetype::MicroserviceMesh => "mesh",
            Archetype::Monolith => "monolith",
            Archetype::DataPipeline => "pipeline",
            Archetype::HostNetworkLegacy => "legacy",
            Archetype::PolicyMature => "mature",
        }
    }

    /// Human-readable name.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Archetype::MicroserviceMesh => "microservice mesh",
            Archetype::Monolith => "monolith + sidecars",
            Archetype::DataPipeline => "data pipeline",
            Archetype::HostNetworkLegacy => "hostNetwork-heavy legacy",
            Archetype::PolicyMature => "policy-mature",
        }
    }

    /// The structural envelope: a finding-free base plan whose component
    /// count and replica spread match the deployment style. Injections are
    /// layered on top by [`MisconfigMix::sample_into`](crate::MisconfigMix).
    pub(crate) fn base_plan(&self, rng: &mut StdRng) -> Plan {
        let (replicas, clean) = match self {
            Archetype::MicroserviceMesh => (rng.gen_range(2u32..=5), rng.gen_range(3usize..=8)),
            Archetype::Monolith => (rng.gen_range(1u32..=2), rng.gen_range(0usize..=2)),
            Archetype::DataPipeline => (rng.gen_range(1u32..=3), rng.gen_range(2usize..=5)),
            Archetype::HostNetworkLegacy => (rng.gen_range(1u32..=2), rng.gen_range(0usize..=3)),
            Archetype::PolicyMature => (rng.gen_range(1u32..=4), rng.gen_range(1usize..=4)),
        };
        Plan {
            server_replicas: replicas,
            clean_components: clean,
            ..Default::default()
        }
    }

    /// Per-rule propensity multiplier applied to the profile's mix rates.
    pub(crate) fn scale(&self, id: MisconfigId) -> f64 {
        use MisconfigId::*;
        match self {
            Archetype::MicroserviceMesh => match id {
                M4A | M4B | M4C | M4Star => 2.0,
                M5A | M5B | M5C | M5D => 1.8,
                M2 => 0.5,
                _ => 1.0,
            },
            Archetype::Monolith => match id {
                M1 | M3 => 1.6,
                M4A | M4B | M4C | M4Star => 0.4,
                M5A | M5B | M5C | M5D => 0.6,
                _ => 1.0,
            },
            Archetype::DataPipeline => match id {
                M2 => 3.0,
                M5B | M5C => 1.5,
                _ => 1.0,
            },
            Archetype::HostNetworkLegacy => match id {
                M7 => 10.0,
                M1 => 1.4,
                M6 => 1.15,
                _ => 1.0,
            },
            Archetype::PolicyMature => match id {
                M6 => 0.08,
                _ => 0.25,
            },
        }
    }

    /// Probability that a *defined* policy is of the allow-everything
    /// flavour (the §4.3.2 "false sense of security" posture).
    pub(crate) fn loose_bias(&self) -> f64 {
        match self {
            Archetype::HostNetworkLegacy => 0.6,
            Archetype::PolicyMature => 0.1,
            _ => 0.3,
        }
    }
}

impl std::fmt::Display for Archetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn slugs_round_trip() {
        // Distinct slugs are what let a spec name's prefix name its
        // archetype.
        let slugs: std::collections::BTreeSet<&str> =
            Archetype::ALL.iter().map(Archetype::slug).collect();
        assert_eq!(slugs.len(), Archetype::ALL.len());
    }

    #[test]
    fn base_plans_are_finding_free() {
        let mut rng = StdRng::seed_from_u64(7);
        for a in Archetype::ALL {
            for _ in 0..32 {
                let plan = a.base_plan(&mut rng);
                assert_eq!(
                    plan.expected_local_findings() - usize::from(plan.netpol.yields_m6()),
                    0
                );
                assert!(plan.server_replicas >= 1);
            }
        }
    }

    #[test]
    fn policy_mature_damps_every_rule() {
        for id in MisconfigId::ALL {
            assert!(Archetype::PolicyMature.scale(id) < 1.0, "{id}");
        }
    }
}
