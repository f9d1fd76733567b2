//! The eleven emulated tools.

use crate::compare::{Detection, ToolInput};
use ij_core::{MisconfigId, StaticModel};

/// What evidence a tool can observe (§4.4.1's categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// Parses manifests before deployment; never sees the cluster.
    Static,
    /// Queries the API server of a running cluster; never parses charts and
    /// never inspects container runtime state.
    Runtime,
    /// Both manifests and the API server (still no socket inspection).
    Hybrid,
    /// Continuous security platform: API server + traffic recording.
    Platform,
}

/// An emulated security tool.
pub struct Tool {
    /// Tool name as in Table 3.
    pub name: &'static str,
    /// Version evaluated in the paper.
    pub version: &'static str,
    /// Observational envelope.
    pub kind: ToolKind,
    /// The tool's check suite: returns per-class detections over the
    /// evidence its envelope allows.
    check: fn(&ToolInput<'_>) -> Vec<(MisconfigId, Detection)>,
}

impl Tool {
    /// Runs the tool over a case and reports what it flags.
    pub(crate) fn run(&self, input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
        (self.check)(input)
    }

    /// Classes the tool cannot observe *in principle* (the Table 3 "—"
    /// cells): static tools never see runtime deltas (M1/M2/M3/M5A) or other
    /// releases (M4\*); runtime tools never see the cluster-wide
    /// (multi-manifest) dimension. Note the paper treats M5C as statically
    /// checkable — headless services should not carry port settings at all —
    /// so it is a miss (×), not a dash, for static tools.
    pub(crate) fn not_applicable(&self, id: MisconfigId) -> bool {
        match self.kind {
            ToolKind::Static => {
                matches!(
                    id,
                    MisconfigId::M1 | MisconfigId::M2 | MisconfigId::M3 | MisconfigId::M5A
                ) || id.is_cluster_wide()
            }
            ToolKind::Runtime => id.is_cluster_wide(),
            ToolKind::Hybrid | ToolKind::Platform => false,
        }
    }
}

// Shared single-resource checks --------------------------------------------

/// Any pod template with `hostNetwork: true` (the one networking issue
/// virtually every tool ships a rule for).
fn host_network_check(statics: &StaticModel) -> bool {
    statics.units.iter().any(|u| u.host_network)
}

/// "No NetworkPolicy anywhere in the bundle/namespace" — the CIS-derived
/// check (5.3.2).
fn missing_policy_check(statics: &StaticModel) -> bool {
    statics.policies.is_empty() && !statics.units.is_empty()
}

/// KubeLinter/kube-score's dangling-service lint: a service whose selector
/// matches no workload in the same bundle.
fn dangling_service_check(statics: &StaticModel) -> bool {
    statics
        .services
        .iter()
        .any(|s| statics.units_selected_by(s).is_empty())
}

/// Kubescape's duplicate-label hint: resources sharing a full label set or
/// one service capturing several differently-labeled workloads. It reports
/// a generic "resources share labels" control, so the paper scores it as
/// *partially* finding the M4 family.
fn duplicate_label_hint(statics: &StaticModel) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    let mut dup = false;
    for u in &statics.units {
        if !u.labels.is_empty() && !seen.insert((u.namespace.clone(), u.labels.to_string())) {
            dup = true;
        }
    }
    let subset = statics.services.iter().any(|s| {
        let sel = statics.units_selected_by(s);
        sel.len() >= 2
            && sel
                .iter()
                .map(|u| u.labels.to_string())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 2
    });
    let multi = statics.units.iter().any(|u| {
        statics
            .services
            .iter()
            .filter(|s| {
                !s.spec.selector.is_empty()
                    && s.meta.namespace == u.namespace
                    && u.labels.contains_all(&s.spec.selector)
            })
            .count()
            >= 2
    });
    dup || subset || multi
}

// Per-tool check suites ------------------------------------------------------

fn checkov(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if host_network_check(input.statics) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    if missing_policy_check(input.statics) {
        out.push((MisconfigId::M6, Detection::Found));
    }
    out
}

fn kubeaudit(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    // Same envelope as Checkov for the networking dimension.
    checkov(input)
}

fn kubelinter(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if host_network_check(input.statics) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    if dangling_service_check(input.statics) {
        out.push((MisconfigId::M5D, Detection::Found));
    }
    out
}

fn kube_score(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if dangling_service_check(input.statics) {
        out.push((MisconfigId::M5D, Detection::Found));
    }
    if missing_policy_check(input.statics) {
        out.push((MisconfigId::M6, Detection::Found));
    }
    out
}

fn kubesec(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if host_network_check(input.statics) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    out
}

fn sli_kube(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    kubesec(input)
}

fn kube_bench(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    // Reads running pod specs from the API; CIS networking checks reduce to
    // host namespace usage.
    let mut out = Vec::new();
    if input.cluster.pods().iter().any(|p| p.pod.spec.host_network) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    out
}

fn kubescape(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if host_network_check(input.statics) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    if missing_policy_check(input.statics) {
        out.push((MisconfigId::M6, Detection::Found));
    }
    if duplicate_label_hint(input.statics) {
        // A generic hint, not a precise collision diagnosis → partial for
        // whichever M4 sub-class the case exercises.
        for id in [MisconfigId::M4A, MisconfigId::M4B, MisconfigId::M4C] {
            out.push((id, Detection::Partial));
        }
    }
    out
}

fn trivy(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    let mut out = Vec::new();
    if host_network_check(input.statics)
        || input.cluster.pods().iter().any(|p| p.pod.spec.host_network)
    {
        out.push((MisconfigId::M7, Detection::Found));
    }
    out
}

fn neuvector(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    // Platforms watch API state and record traffic; they surface host
    // namespace exposure but raise no misconfiguration findings beyond it
    // (§4.4.3: "they do not make any effort in notifying the user about
    // potentially misconfigured resources").
    let mut out = Vec::new();
    if input.cluster.pods().iter().any(|p| p.pod.spec.host_network) {
        out.push((MisconfigId::M7, Detection::Found));
    }
    out
}

fn stackrox(input: &ToolInput<'_>) -> Vec<(MisconfigId, Detection)> {
    neuvector(input)
}

/// The eleven tools, Table 3 order.
pub(crate) fn all_tools() -> Vec<Tool> {
    vec![
        Tool {
            name: "Checkov",
            version: "3.2.23",
            kind: ToolKind::Static,
            check: checkov,
        },
        Tool {
            name: "Kubeaudit",
            version: "0.22.1",
            kind: ToolKind::Static,
            check: kubeaudit,
        },
        Tool {
            name: "KubeLinter",
            version: "0.6.8",
            kind: ToolKind::Static,
            check: kubelinter,
        },
        Tool {
            name: "Kube-score",
            version: "1.18.0",
            kind: ToolKind::Static,
            check: kube_score,
        },
        Tool {
            name: "Kubesec",
            version: "2.14.0",
            kind: ToolKind::Static,
            check: kubesec,
        },
        Tool {
            name: "SLI-KUBE",
            version: "N/A",
            kind: ToolKind::Static,
            check: sli_kube,
        },
        Tool {
            name: "Kube-bench",
            version: "0.7.1",
            kind: ToolKind::Runtime,
            check: kube_bench,
        },
        Tool {
            name: "Kubescape",
            version: "3.0.3",
            kind: ToolKind::Hybrid,
            check: kubescape,
        },
        Tool {
            name: "Trivy",
            version: "0.49.1",
            kind: ToolKind::Hybrid,
            check: trivy,
        },
        Tool {
            name: "NeuVector",
            version: "5.3.0",
            kind: ToolKind::Platform,
            check: neuvector,
        },
        Tool {
            name: "StackRox",
            version: "3.74.9",
            kind: ToolKind::Platform,
            check: stackrox,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_tools_in_table_order() {
        let tools = all_tools();
        assert_eq!(tools.len(), 11);
        assert_eq!(tools[0].name, "Checkov");
        assert_eq!(tools[10].name, "StackRox");
    }

    #[test]
    fn not_applicable_envelopes() {
        let tools = all_tools();
        let static_tool = &tools[0];
        assert!(static_tool.not_applicable(MisconfigId::M1));
        assert!(!static_tool.not_applicable(MisconfigId::M5C));
        assert!(static_tool.not_applicable(MisconfigId::M2));
        assert!(static_tool.not_applicable(MisconfigId::M4Star));
        assert!(!static_tool.not_applicable(MisconfigId::M6));
        let runtime_tool = tools.iter().find(|t| t.kind == ToolKind::Runtime).unwrap();
        assert!(runtime_tool.not_applicable(MisconfigId::M4Star));
        assert!(!runtime_tool.not_applicable(MisconfigId::M1));
        let hybrid = tools.iter().find(|t| t.kind == ToolKind::Hybrid).unwrap();
        assert!(!hybrid.not_applicable(MisconfigId::M4Star));
    }
}
