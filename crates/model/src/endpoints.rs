//! Endpoints: the concrete pod addresses behind a service, as computed by the
//! endpoints controller in the simulator.

use crate::meta::ObjectMeta;
use crate::pod::Protocol;
use std::net::Ipv4Addr;

/// A single ready address backing a service port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointAddress {
    /// Pod IP.
    pub ip: Ipv4Addr,
    /// Backing pod's qualified name (`namespace/name`).
    pub pod: String,
    /// Resolved numeric target port on that pod.
    pub port: u16,
    /// Protocol of the mapping.
    pub protocol: Protocol,
    /// Name of the service port this address backs (if the service named it).
    pub port_name: Option<String>,
}

/// The endpoints object for one service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoints {
    /// Mirrors the service's metadata.
    pub meta: ObjectMeta,
    /// Ready addresses. Empty when the service selects no running pod — the
    /// observable symptom of M5D.
    pub addresses: Vec<EndpointAddress>,
}

impl Endpoints {
    /// True when no pod backs the service.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Distinct backing pods.
    pub fn pod_count(&self) -> usize {
        let mut pods: Vec<&str> = self.addresses.iter().map(|a| a.pod.as_str()).collect();
        pods.sort_unstable();
        pods.dedup();
        pods.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_count_dedupes() {
        let ep = Endpoints {
            meta: ObjectMeta::named("svc"),
            addresses: vec![
                EndpointAddress {
                    ip: Ipv4Addr::new(10, 0, 0, 1),
                    pod: "default/a".into(),
                    port: 80,
                    protocol: Protocol::Tcp,
                    port_name: None,
                },
                EndpointAddress {
                    ip: Ipv4Addr::new(10, 0, 0, 1),
                    pod: "default/a".into(),
                    port: 443,
                    protocol: Protocol::Tcp,
                    port_name: None,
                },
                EndpointAddress {
                    ip: Ipv4Addr::new(10, 0, 0, 2),
                    pod: "default/b".into(),
                    port: 80,
                    protocol: Protocol::Tcp,
                    port_name: None,
                },
            ],
        };
        assert_eq!(ep.pod_count(), 2);
        assert!(!ep.is_empty());
    }
}
