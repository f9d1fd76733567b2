//! Application specifications: which misconfigurations each synthetic chart
//! carries. These are the corpus ground truth — something the real study
//! lacked (§6.3 "lack of a ground truth") and which this reproduction uses
//! both to calibrate Table 2 and to measure analyzer precision/recall.

use ij_core::MisconfigId;

/// The six organizations of §4.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Org {
    /// Banzai Cloud (sharing).
    BanzaiCloud,
    /// Bitnami, including the AKS-tailored variants (sharing).
    Bitnami,
    /// Cloud Native Computing Foundation projects (production).
    Cncf,
    /// European Environment Agency (internal).
    Eea,
    /// Prometheus Community (production).
    PrometheusCommunity,
    /// Wikimedia Foundation (internal).
    Wikimedia,
}

impl Org {
    /// All organizations, Table 2 row order.
    pub const ALL: [Org; 6] = [
        Org::BanzaiCloud,
        Org::Bitnami,
        Org::Cncf,
        Org::Eea,
        Org::PrometheusCommunity,
        Org::Wikimedia,
    ];

    /// Display name matching Table 2.
    pub fn as_str(&self) -> &'static str {
        match self {
            Org::BanzaiCloud => "Banzai Cloud",
            Org::Bitnami => "Bitnami",
            Org::Cncf => "CNCF",
            Org::Eea => "EEA",
            Org::PrometheusCommunity => "Prometheus C.",
            Org::Wikimedia => "Wikimedia",
        }
    }
}

/// How the chart handles NetworkPolicies (the M6 axis plus the §4.3.2
/// policy-quality axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetpolSpec {
    /// The chart ships no NetworkPolicy at all → M6 ("missing").
    Missing,
    /// The chart defines a policy template gated behind
    /// `networkPolicy.enabled`, default off → M6 ("defined but disabled").
    /// The quality flag matters when §4.3.2 force-enables the policy.
    DefinedDisabled {
        /// See [`NetpolSpec::Enabled::loose`].
        loose: bool,
    },
    /// A policy is rendered and active by default → no M6.
    Enabled {
        /// `false`: the policy restricts ingress to the union of declared
        /// ports (tight). `true`: the policy allows all ports to the
        /// selected pods (loose) — misconfigured endpoints stay reachable,
        /// the §4.3.2 "affected" case.
        loose: bool,
    },
}

impl NetpolSpec {
    /// True when the chart's template set defines a policy (even if off).
    pub fn defines_policy(&self) -> bool {
        !matches!(self, NetpolSpec::Missing)
    }

    /// True when the (defined) policy is of the allow-everything flavour.
    pub(crate) fn is_loose(&self) -> bool {
        matches!(
            self,
            NetpolSpec::DefinedDisabled { loose: true } | NetpolSpec::Enabled { loose: true }
        )
    }

    /// True when a policy is rendered with default values.
    pub(crate) fn enabled_by_default(&self) -> bool {
        matches!(self, NetpolSpec::Enabled { .. })
    }

    /// True when M6 fires.
    pub fn yields_m6(&self) -> bool {
        !self.enabled_by_default()
    }
}

/// The misconfigurations injected into one chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Undeclared open ports on the main component.
    pub m1: usize,
    /// Worker components with ephemeral listeners.
    pub m2: usize,
    /// Declared-but-never-opened ports on the main component.
    pub m3: usize,
    /// Pairs of components with identical label sets.
    pub m4a: usize,
    /// Components targeted by two services each.
    pub m4b: usize,
    /// Services selecting two unrelated components via a shared subset.
    pub m4c: usize,
    /// Services targeting declared-but-unopened ports (ClusterIP).
    pub m5a: usize,
    /// Services targeting ports nothing declares.
    pub m5b: usize,
    /// Headless services whose target port is not available.
    pub m5c: usize,
    /// Services whose selector matches nothing.
    pub m5d: usize,
    /// NetworkPolicy posture.
    pub netpol: NetpolSpec,
    /// hostNetwork DaemonSet components.
    pub m7: usize,
    /// Replicas of the main server component (drives the §4.3.2 pod
    /// reachability counts).
    pub server_replicas: u32,
    /// Well-formed extra components (deployment + service pairs) that
    /// produce **no** findings. Structure-only: the synthetic-corpus
    /// archetypes use this to make a microservice mesh look different from
    /// a monolith without touching the ground truth.
    pub clean_components: usize,
    /// Cross-application collision tokens: apps sharing a token collide
    /// globally (M4\*). One finding is produced per token group.
    pub m4star_tokens: Vec<&'static str>,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            m1: 0,
            m2: 0,
            m3: 0,
            m4a: 0,
            m4b: 0,
            m4c: 0,
            m5a: 0,
            m5b: 0,
            m5c: 0,
            m5d: 0,
            netpol: NetpolSpec::Missing,
            m7: 0,
            server_replicas: 1,
            clean_components: 0,
            m4star_tokens: Vec::new(),
        }
    }
}

impl Plan {
    /// A plan with no misconfigurations at all (policies enabled & tight).
    pub fn clean() -> Self {
        Plan {
            netpol: NetpolSpec::Enabled { loose: false },
            ..Default::default()
        }
    }

    /// Expected per-app finding count, excluding M4\* (which is attributed
    /// at the cluster-wide pass).
    pub fn expected_local_findings(&self) -> usize {
        self.m1
            + self.m2
            + self.m3
            + self.m4a
            + self.m4b
            + self.m4c
            + self.m5a
            + self.m5b
            + self.m5c
            + self.m5d
            + usize::from(self.netpol.yields_m6())
            + self.m7
    }

    /// Expected count for one misconfiguration class (local classes only).
    pub fn expected_of(&self, id: MisconfigId) -> usize {
        match id {
            MisconfigId::M1 => self.m1,
            MisconfigId::M2 => self.m2,
            MisconfigId::M3 => self.m3,
            MisconfigId::M4A => self.m4a,
            MisconfigId::M4B => self.m4b,
            MisconfigId::M4C => self.m4c,
            MisconfigId::M4Star => 0,
            MisconfigId::M5A => self.m5a,
            MisconfigId::M5B => self.m5b,
            MisconfigId::M5C => self.m5c,
            MisconfigId::M5D => self.m5d,
            MisconfigId::M6 => usize::from(self.netpol.yields_m6()),
            MisconfigId::M7 => self.m7,
        }
    }
}

/// One synthetic chart in the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Chart name.
    pub name: String,
    /// Owning organization (dataset).
    pub org: Org,
    /// Version string (cosmetic, figure labels).
    pub version: String,
    /// Injected misconfigurations.
    pub plan: Plan,
}

impl AppSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, org: Org, version: impl Into<String>, plan: Plan) -> Self {
        AppSpec {
            name: name.into(),
            org,
            version: version.into(),
            plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accounting() {
        let plan = Plan {
            m1: 2,
            m2: 1,
            m3: 1,
            m4b: 1,
            netpol: NetpolSpec::Missing,
            m7: 1,
            ..Default::default()
        };
        assert_eq!(plan.expected_local_findings(), 7);
        assert_eq!(plan.expected_of(MisconfigId::M1), 2);
        assert_eq!(plan.expected_of(MisconfigId::M6), 1);
        let types = MisconfigId::ALL
            .iter()
            .filter(|&&id| plan.expected_of(id) > 0)
            .count();
        assert_eq!(types, 6);
    }

    #[test]
    fn clean_plan_has_no_findings() {
        let plan = Plan::clean();
        assert_eq!(plan.expected_local_findings(), 0);
        assert!(plan.m4star_tokens.is_empty());
        assert!(!plan.netpol.yields_m6());
    }

    #[test]
    fn netpol_semantics() {
        assert!(NetpolSpec::Missing.yields_m6());
        assert!(!NetpolSpec::Missing.defines_policy());
        assert!(NetpolSpec::DefinedDisabled { loose: false }.yields_m6());
        assert!(NetpolSpec::DefinedDisabled { loose: false }.defines_policy());
        assert!(!NetpolSpec::Enabled { loose: true }.yields_m6());
        assert!(NetpolSpec::Enabled { loose: true }.is_loose());
        assert!(!NetpolSpec::Missing.is_loose());
    }
}
