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
    /// True when nothing changed.
    pub fn is_quiet(&self) -> bool {
        self.introduced.is_empty() && self.resolved.is_empty()
    }
}

/// The multiset diff of two identity lists ([`Finding::identity`]): a mask
/// over `ids` marking the occurrences `other` does not cancel. Of an
/// identity `other` holds `n` times, the first `n` occurrences in `ids` are
/// cancelled, so two identical findings resolving down to one leave exactly
/// one unmatched. Runs in O(ids + other).
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

        let id = finding.identity();
        let count = |mask: Vec<bool>| mask.into_iter().filter(|&u| u).count();

        // Two identical findings, one resolves: the naive Vec::contains diff
        // collapsed the pair and reported a quiet round.
        let (previous, current) = ([id, id], [id]);
        assert_eq!(
            count(unmatched(&previous, &current)),
            1,
            "one of two duplicates resolved"
        );
        assert_eq!(count(unmatched(&current, &previous)), 0);

        // And the mirror image: a second identical finding appearing.
        let (previous, current) = ([id], [id, id]);
        assert_eq!(count(unmatched(&current, &previous)), 1);
        assert_eq!(count(unmatched(&previous, &current)), 0);

        // The first occurrences are the ones cancelled, in input order.
        let distinct = id.wrapping_add(1);
        assert_eq!(unmatched(&[id, distinct, id], &[id]), [false, true, true]);

        // Identity hashing separates near-identical findings.
        let other = finding.clone().with_port(9300, Protocol::Tcp);
        assert_ne!(finding.identity(), other.identity());
        assert_eq!(finding.identity(), finding.clone().identity());
    }
}
