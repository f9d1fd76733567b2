//! Finding deltas between two audit rounds.

use std::collections::HashMap;

use ij_core::Finding;

/// What changed between two audit rounds. The findings open after a round
/// are [`IncrementalAuditor::current`](crate::IncrementalAuditor::current).
#[derive(Debug, Clone, Default)]
pub struct AuditDelta {
    /// Findings present now but not in the previous round.
    pub introduced: Vec<Finding>,
    /// Findings from the previous round that disappeared.
    pub resolved: Vec<Finding>,
}

impl AuditDelta {
    /// Diffs two finding lists as multisets, keyed by [`Finding::identity`].
    ///
    /// Each previous occurrence cancels at most one current occurrence, so
    /// two identical findings resolving down to one reports exactly one
    /// `resolved`. Output order follows input order, which keeps the delta
    /// deterministic for canonically sorted inputs. Runs in
    /// O(previous + current). This wrapper hashes every finding, then runs
    /// the one multiset diff over the identities; the incremental auditor
    /// runs that same diff on the identities it stored when each finding
    /// was made, so a tick hashes only the findings it re-derived.
    pub fn between(previous: &[Finding], current: &[Finding]) -> AuditDelta {
        let identities =
            |findings: &[Finding]| -> Vec<u64> { findings.iter().map(Finding::identity).collect() };
        let (previous_ids, current_ids) = (identities(previous), identities(current));
        let pick = |findings: &[Finding], mask: Vec<bool>| {
            findings
                .iter()
                .zip(mask)
                .filter(|(_, unmatched)| *unmatched)
                .map(|(f, _)| f.clone())
                .collect()
        };
        AuditDelta {
            introduced: pick(current, unmatched(&current_ids, &previous_ids)),
            resolved: pick(previous, unmatched(&previous_ids, &current_ids)),
        }
    }

    /// True when nothing changed.
    pub fn is_quiet(&self) -> bool {
        self.introduced.is_empty() && self.resolved.is_empty()
    }
}

/// The multiset diff of two identity lists: a mask over `ids` marking the
/// occurrences `other` does not cancel. Of an identity `other` holds `n`
/// times, the first `n` occurrences in `ids` are cancelled.
pub(crate) fn unmatched(ids: &[u64], other: &[u64]) -> Vec<bool> {
    let mut held: HashMap<u64, usize> = HashMap::with_capacity(other.len());
    for &id in other {
        *held.entry(id).or_default() += 1;
    }
    ids.iter()
        .map(|id| match held.get_mut(id) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalAuditor;
    use ij_cluster::{Cluster, ClusterConfig};
    use ij_core::MisconfigId;
    use ij_model::{Container, ContainerPort, Labels, Object, ObjectMeta, Pod, PodSpec};
    use ij_probe::{HostBaseline, RuntimeAnalyzer};

    #[test]
    fn detects_newly_introduced_misconfigurations() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let baseline = HostBaseline::capture(&cluster);
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named("web").with_labels(Labels::from_pairs([("app", "web")])),
                PodSpec {
                    containers: vec![
                        Container::new("c", "img/web").with_ports(vec![ContainerPort::tcp(8080)])
                    ],
                    ..Default::default()
                },
            )))
            .unwrap();
        cluster.reconcile();

        let mut auditor = IncrementalAuditor::with_probe(RuntimeAnalyzer::default(), baseline);
        let first = auditor.tick(&cluster);
        // Round 1: only M6 (no policies).
        assert_eq!(first.introduced.len(), 1);
        assert_eq!(first.introduced[0].id, MisconfigId::M6);

        // Someone deploys an imposter with colliding labels.
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named("imposter").with_labels(Labels::from_pairs([("app", "web")])),
                PodSpec {
                    containers: vec![
                        Container::new("c", "img/other").with_ports(vec![ContainerPort::tcp(8080)])
                    ],
                    ..Default::default()
                },
            )))
            .unwrap();
        cluster.reconcile();

        let second = auditor.tick(&cluster);
        assert!(second.introduced.iter().any(|f| f.id == MisconfigId::M4A));
        assert!(second.resolved.is_empty());
        assert!(auditor.current().iter().any(|f| f.id == MisconfigId::M6));

        // Nothing changes: quiet round.
        let third = auditor.tick(&cluster);
        assert!(third.is_quiet());
        assert!(!auditor.current().is_empty());
    }

    #[test]
    fn duplicate_findings_diff_as_a_multiset() {
        use ij_model::Protocol;

        let finding = Finding::new(
            MisconfigId::M1,
            "shop",
            "default/shop-server",
            "port 9200/TCP open but not declared",
        )
        .with_port(9200, Protocol::Tcp);

        // Two identical findings, one resolves: the naive Vec::contains diff
        // collapsed the pair and reported a quiet round.
        let down = AuditDelta::between(
            &[finding.clone(), finding.clone()],
            std::slice::from_ref(&finding),
        );
        assert_eq!(down.resolved.len(), 1, "one of two duplicates resolved");
        assert!(down.introduced.is_empty());
        assert!(
            !down.is_quiet(),
            "a resolved duplicate is not a quiet round"
        );

        // And the mirror image: a second identical finding appearing.
        let up = AuditDelta::between(
            std::slice::from_ref(&finding),
            &[finding.clone(), finding.clone()],
        );
        assert_eq!(up.introduced.len(), 1);
        assert!(up.resolved.is_empty());

        // Identity hashing separates near-identical findings.
        let other = finding.clone().with_port(9300, Protocol::Tcp);
        assert_ne!(finding.identity(), other.identity());
        assert_eq!(finding.identity(), finding.clone().identity());
    }
}
