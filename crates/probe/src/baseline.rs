//! Pre-install host-port baseline (§4.2.2, second special case).

use ij_cluster::Cluster;
use ij_model::Protocol;
use std::collections::{BTreeSet, HashMap};

/// Ports open on each node *before* the application under analysis is
/// installed. Subtracted from hostNetwork pod observations so that node
/// daemons (kubelet, sshd, …) and unrelated components are not reported as
/// the application's ports.
#[derive(Debug, Clone, Default)]
pub struct HostBaseline {
    ports: HashMap<String, BTreeSet<(u16, Protocol)>>,
}

impl HostBaseline {
    /// Captures the current host sockets of every node.
    pub fn capture(cluster: &Cluster) -> Self {
        let mut ports: HashMap<String, BTreeSet<(u16, Protocol)>> = HashMap::new();
        for node in cluster.nodes() {
            let set = cluster
                .host_sockets(&node.name)
                .into_iter()
                .map(|(p, proto, _)| (p, proto))
                .collect();
            ports.insert(node.name.clone(), set);
        }
        HostBaseline { ports }
    }

    /// An empty baseline (nothing gets subtracted) — used in the ablation
    /// that shows M7 over-reporting without the subtraction step.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the baseline already held this port on the node.
    pub(crate) fn holds(&self, node: &str, port: u16, protocol: Protocol) -> bool {
        self.ports
            .get(node)
            .is_some_and(|s| s.contains(&(port, protocol)))
    }

    /// True when no node has baseline entries.
    pub fn is_empty(&self) -> bool {
        self.ports.values().all(BTreeSet::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{Cluster, ClusterConfig};

    #[test]
    fn baseline_captures_node_daemons() {
        let cluster = Cluster::new(ClusterConfig::default());
        let b = HostBaseline::capture(&cluster);
        assert!(b.holds("node-0", 10250, Protocol::Tcp));
        assert!(b.holds("node-0", 53, Protocol::Udp));
        assert!(!b.holds("node-0", 9100, Protocol::Tcp));
        assert!(!b.holds("missing-node", 10250, Protocol::Tcp));
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_baseline_holds_nothing() {
        let b = HostBaseline::empty();
        assert!(!b.holds("node-0", 10250, Protocol::Tcp));
        assert!(b.is_empty());
    }
}
