//! Cluster nodes and their host network namespaces.

use ij_model::Protocol;
use std::net::Ipv4Addr;

/// A worker node.
///
/// The host network namespace matters for M7: a `hostNetwork: true` pod's
/// sockets appear here, mixed in with the node's own daemons — which is why
/// the paper's runtime analysis needs a host-port baseline to subtract
/// (§4.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Node name (`node-0`, `node-1`, …).
    pub name: String,
    /// Node IP on the data-center network (`192.168.49.2` up).
    pub ip: Ipv4Addr,
    /// Ports the node's own system daemons hold open (kubelet, containerd
    /// metrics, sshd, …). Present before any pod is scheduled.
    pub baseline_ports: Vec<(u16, Protocol)>,
}

impl Node {
    /// Creates a node with the standard daemon baseline.
    pub(crate) fn new(index: usize) -> Self {
        Node {
            name: format!("node-{index}"),
            ip: Ipv4Addr::from(u32::from(Ipv4Addr::new(192, 168, 49, 2)) + index as u32),
            baseline_ports: vec![
                (22, Protocol::Tcp),    // sshd
                (10250, Protocol::Tcp), // kubelet API
                (10256, Protocol::Tcp), // kube-proxy health
                (9099, Protocol::Tcp),  // CNI health endpoint
                (53, Protocol::Udp),    // node-local DNS cache
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_get_distinct_ips() {
        let a = Node::new(0);
        let b = Node::new(1);
        assert_ne!(a.ip, b.ip);
        assert_eq!(a.name, "node-0");
    }

    #[test]
    fn baseline_contains_kubelet() {
        let n = Node::new(0);
        assert!(n.baseline_ports.contains(&(10250, Protocol::Tcp)));
        assert!(!n.baseline_ports.contains(&(10250, Protocol::Udp)));
        assert!(!n.baseline_ports.contains(&(8080, Protocol::Tcp)));
    }
}
