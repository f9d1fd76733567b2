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
