//! Misconfiguration taxonomy (Table 1 of the paper) and findings.

use ij_model::Protocol;
use std::cmp::Ordering;
use std::fmt;

/// The thirteen misconfiguration classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MisconfigId {
    /// Port open on container is not declared.
    M1,
    /// Container allocates dynamic (ephemeral) ports.
    M2,
    /// Port declared on container is not open.
    M3,
    /// Compute unit collision: identical label sets on unrelated units.
    M4A,
    /// Service label collision: multiple services target one compute unit.
    M4B,
    /// Compute unit subset collision: one service selects unrelated units.
    M4C,
    /// Global (cross-application) label collision.
    M4Star,
    /// Service targets a declared but unopened port.
    M5A,
    /// Service targets an undeclared port.
    M5B,
    /// Headless service port is not available.
    M5C,
    /// Service without target.
    M5D,
    /// Lack of (enabled) network policies.
    M6,
    /// Container binds to the host network.
    M7,
}

impl MisconfigId {
    /// Every class, in Table 1 order.
    pub const ALL: [MisconfigId; 13] = [
        MisconfigId::M1,
        MisconfigId::M2,
        MisconfigId::M3,
        MisconfigId::M4A,
        MisconfigId::M4B,
        MisconfigId::M4C,
        MisconfigId::M4Star,
        MisconfigId::M5A,
        MisconfigId::M5B,
        MisconfigId::M5C,
        MisconfigId::M5D,
        MisconfigId::M6,
        MisconfigId::M7,
    ];

    /// Paper spelling (`M4*` for the global collision).
    pub fn as_str(&self) -> &'static str {
        match self {
            MisconfigId::M1 => "M1",
            MisconfigId::M2 => "M2",
            MisconfigId::M3 => "M3",
            MisconfigId::M4A => "M4A",
            MisconfigId::M4B => "M4B",
            MisconfigId::M4C => "M4C",
            MisconfigId::M4Star => "M4*",
            MisconfigId::M5A => "M5A",
            MisconfigId::M5B => "M5B",
            MisconfigId::M5C => "M5C",
            MisconfigId::M5D => "M5D",
            MisconfigId::M6 => "M6",
            MisconfigId::M7 => "M7",
        }
    }

    /// Table 1 "Description" column.
    pub fn description(&self) -> &'static str {
        match self {
            MisconfigId::M1 => "Port open on container is not declared",
            MisconfigId::M2 => "Container allocates dynamic ports",
            MisconfigId::M3 => "Port declared on container is not open",
            MisconfigId::M4A => "Compute unit collision",
            MisconfigId::M4B => "Service label collision",
            MisconfigId::M4C => "Compute unit subset collision",
            MisconfigId::M4Star => "Global label collision",
            MisconfigId::M5A => "Service targets unopened port",
            MisconfigId::M5B => "Service targets undeclared port",
            MisconfigId::M5C => "Headless service port is not available",
            MisconfigId::M5D => "Service without target",
            MisconfigId::M6 => "Lack of network policies",
            MisconfigId::M7 => "Container binds to host network",
        }
    }

    /// Table 1 "Issue" column.
    pub(crate) fn issue(&self) -> &'static str {
        match self {
            MisconfigId::M1 => "Listening on all interfaces by default",
            MisconfigId::M2 => "Dynamic ports cannot be controlled",
            MisconfigId::M3 => "Missing checks on declared ports",
            MisconfigId::M4A | MisconfigId::M4B | MisconfigId::M4C | MisconfigId::M4Star => {
                "Missing checks on label collision"
            }
            MisconfigId::M5A | MisconfigId::M5B | MisconfigId::M5C | MisconfigId::M5D => {
                "Missing checks on declared ports / target labels"
            }
            MisconfigId::M6 => "No isolation between containers",
            MisconfigId::M7 => "Network policies do not apply to host",
        }
    }

    /// Table 1 "Possible attack(s)" column.
    pub(crate) fn possible_attacks(&self) -> &'static [&'static str] {
        match self {
            MisconfigId::M1 => &["Command and control", "Sensitive port information"],
            MisconfigId::M2 => &["Loosened security policies"],
            MisconfigId::M3 => &["Data interception / spoofing", "Data exfiltration"],
            MisconfigId::M4A | MisconfigId::M4B | MisconfigId::M4C | MisconfigId::M4Star => {
                &["Man in the middle", "Server impersonation"]
            }
            MisconfigId::M5A => &["Data interception"],
            MisconfigId::M5B => &["Data spoofing"],
            MisconfigId::M5C => &["Denial of service"],
            MisconfigId::M5D => &["Bypassing security checks"],
            MisconfigId::M6 => &["Data interception / spoofing", "Privilege escalation"],
            MisconfigId::M7 => &["Bypassing network controls"],
        }
    }

    /// Mitigation guidance (§3.5).
    pub fn mitigation(&self) -> &'static str {
        match self {
            MisconfigId::M1 => {
                "Declare every port the container opens in the resource configuration; \
                 mind ports that depend on optional chart parameters"
            }
            MisconfigId::M2 => {
                "Pin dynamic ports to static values via application configuration, or \
                 document the dynamic range so policy tooling does not mis-learn it"
            }
            MisconfigId::M3 => "Remove declarations for ports the application never opens",
            MisconfigId::M4A | MisconfigId::M4B | MisconfigId::M4C | MisconfigId::M4Star => {
                "Make label sets unique per component after understanding why they are shared"
            }
            MisconfigId::M5A | MisconfigId::M5B => {
                "Bind services only to ports that are declared and actually open"
            }
            MisconfigId::M5C => "Remove the port setting; headless services do not support it",
            MisconfigId::M5D => "Give every service a selector matching an existing compute unit",
            MisconfigId::M6 => {
                "Define and enable NetworkPolicies selecting every pod, allowing only \
                 necessary connections"
            }
            MisconfigId::M7 => {
                "Set hostNetwork to false unless functionality demands it; audit the pod \
                 in depth otherwise"
            }
        }
    }

    /// Severity as assessed through the disclosure feedback (§5.1.1): label
    /// collisions rated most critical, declared-but-closed ports least.
    pub fn severity(&self) -> Severity {
        match self {
            MisconfigId::M4A | MisconfigId::M4B | MisconfigId::M4C | MisconfigId::M4Star => {
                Severity::High
            }
            MisconfigId::M1 | MisconfigId::M2 | MisconfigId::M6 | MisconfigId::M7 => {
                Severity::Medium
            }
            MisconfigId::M5A | MisconfigId::M5B | MisconfigId::M5C | MisconfigId::M5D => {
                Severity::Medium
            }
            MisconfigId::M3 => Severity::Low,
        }
    }

    /// True for the class that only exists across applications.
    pub fn is_cluster_wide(&self) -> bool {
        matches!(self, MisconfigId::M4Star)
    }

    /// True when detection requires runtime observation.
    pub fn needs_runtime(&self) -> bool {
        matches!(
            self,
            MisconfigId::M1
                | MisconfigId::M2
                | MisconfigId::M3
                | MisconfigId::M5A
                | MisconfigId::M5C
        )
    }
}

impl fmt::Display for MisconfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse severity, per the disclosure assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Requires several other weaknesses to matter.
    Low,
    /// Exploitable in combination with application behaviour.
    Medium,
    /// Directly enables impersonation / man-in-the-middle.
    High,
}

/// One detected misconfiguration instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Misconfiguration class.
    pub id: MisconfigId,
    /// Application (release) the finding belongs to.
    pub app: String,
    /// Qualified name of the primary resource involved.
    pub object: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Port involved, when the finding is port-specific.
    pub port: Option<u16>,
    /// Protocol of that port.
    pub protocol: Option<Protocol>,
}

impl Finding {
    /// Creates a finding without port information.
    pub fn new(
        id: MisconfigId,
        app: impl Into<String>,
        object: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Finding {
            id,
            app: app.into(),
            object: object.into(),
            detail: detail.into(),
            port: None,
            protocol: None,
        }
    }

    /// Builder-style port attachment.
    pub fn with_port(mut self, port: u16, protocol: Protocol) -> Self {
        self.port = Some(port);
        self.protocol = Some(protocol);
        self
    }

    /// A 64-bit identity hash (FNV-1a) over every field, with separators so
    /// field boundaries cannot alias. Continuous-audit tooling keys finding
    /// multisets by this instead of comparing full structs: two findings are
    /// equal exactly when their identities collide (up to 64-bit hash
    /// collision odds), and counting identities gives multiset semantics —
    /// two identical findings in one round stay two findings.
    pub fn identity(&self) -> u64 {
        identity_over(
            self.id,
            &self.app,
            &self.object,
            &self.detail,
            self.port,
            self.protocol,
        )
    }
}

/// The identity hash over resolved field bytes. [`Finding::identity`] and
/// the interned `CompactFinding::identity` both delegate here, so the two
/// representations key continuous-audit multisets identically by
/// construction.
pub(crate) fn identity_over(
    id: MisconfigId,
    app: &str,
    object: &str,
    detail: &str,
    port: Option<u16>,
    protocol: Option<Protocol>,
) -> u64 {
    const SEP: &[u8] = &[0xff];
    let mut h = fnv1a(FNV_OFFSET, id.as_str().as_bytes());
    h = fnv1a(h, SEP);
    h = fnv1a(h, app.as_bytes());
    h = fnv1a(h, SEP);
    h = fnv1a(h, object.as_bytes());
    h = fnv1a(h, SEP);
    h = fnv1a(h, detail.as_bytes());
    h = fnv1a(h, SEP);
    h = match port {
        Some(p) => fnv1a(h, &[1, p as u8, (p >> 8) as u8]),
        None => fnv1a(h, &[0]),
    };
    match protocol {
        Some(proto) => fnv1a(h, proto.as_str().as_bytes()),
        None => fnv1a(h, &[0]),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} — {}", self.id, self.object, self.detail)
    }
}

/// Sorts findings into the canonical report order: by class (Table 1
/// order), then object, then port. Every rendered report — per-app
/// findings, census rows, disclosure output — uses this order, so both the
/// per-app pass and the cluster-wide M4\* attribution re-sort through it.
pub fn sort_canonical(findings: &mut [Finding]) {
    findings.sort_by(canonical_cmp);
}

/// The canonical report order [`sort_canonical`] sorts by, for callers that
/// sort something other than a `[Finding]` slice.
pub fn canonical_cmp(a: &Finding, b: &Finding) -> Ordering {
    (a.id, &a.object, a.port).cmp(&(b.id, &b.object, b.port))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_have_metadata() {
        for id in MisconfigId::ALL {
            assert!(!id.as_str().is_empty());
            assert!(!id.description().is_empty());
            assert!(!id.issue().is_empty());
            assert!(!id.mitigation().is_empty());
            assert!(!id.possible_attacks().is_empty());
        }
    }

    #[test]
    fn severity_ordering_matches_disclosure() {
        assert!(MisconfigId::M4A.severity() > MisconfigId::M1.severity());
        assert!(MisconfigId::M1.severity() > MisconfigId::M3.severity());
        assert_eq!(MisconfigId::M4Star.severity(), Severity::High);
    }

    #[test]
    fn cluster_wide_flag() {
        assert!(MisconfigId::M4Star.is_cluster_wide());
        assert!(!MisconfigId::M4A.is_cluster_wide());
    }

    #[test]
    fn runtime_requirements() {
        assert!(MisconfigId::M1.needs_runtime());
        assert!(MisconfigId::M2.needs_runtime());
        assert!(!MisconfigId::M4A.needs_runtime());
        assert!(!MisconfigId::M6.needs_runtime());
    }

    #[test]
    fn display_formats() {
        assert_eq!(MisconfigId::M4Star.to_string(), "M4*");
        let f = Finding::new(
            MisconfigId::M1,
            "app",
            "default/pod",
            "port 8080 open, undeclared",
        )
        .with_port(8080, Protocol::Tcp);
        assert!(f.to_string().contains("M1"));
        assert_eq!(f.port, Some(8080));
    }
}
