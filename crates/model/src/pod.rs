//! Pods, containers, and declared container ports.

use crate::codec;
use crate::error::{Error, Result};
use crate::meta::ObjectMeta;
use ij_yaml::{Map, Value};
use std::fmt;

/// Transport protocol of a port. Kubernetes defaults to TCP everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Protocol {
    /// Transmission Control Protocol (the default).
    #[default]
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Stream Control Transmission Protocol (rare; supported for
    /// completeness).
    Sctp,
}

impl Protocol {
    pub(crate) fn decode(s: &str, ctx: &str) -> Result<Protocol> {
        match s {
            "TCP" => Ok(Protocol::Tcp),
            "UDP" => Ok(Protocol::Udp),
            "SCTP" => Ok(Protocol::Sctp),
            other => Err(Error::malformed(format!(
                "{ctx}: unknown protocol `{other}`"
            ))),
        }
    }

    /// Kubernetes wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Protocol::Tcp => "TCP",
            Protocol::Udp => "UDP",
            Protocol::Sctp => "SCTP",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A declared container port.
///
/// Per the paper (§3.4), this declaration is *documentative*: Kubernetes never
/// verifies that the container actually listens here (M3) nor that every open
/// socket is declared (M1). The analyzer's whole job is to close that gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerPort {
    /// Optional IANA-style name, referenced by services' named targetPorts.
    pub name: Option<String>,
    /// The declared port number.
    pub container_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Optional host port mapping (binds through the node).
    pub host_port: Option<u16>,
}

impl ContainerPort {
    /// A plain TCP port declaration.
    pub fn tcp(port: u16) -> Self {
        ContainerPort {
            name: None,
            container_port: port,
            protocol: Protocol::Tcp,
            host_port: None,
        }
    }

    /// A named TCP port declaration.
    pub fn named(name: impl Into<String>, port: u16) -> Self {
        ContainerPort {
            name: Some(name.into()),
            container_port: port,
            protocol: Protocol::Tcp,
            host_port: None,
        }
    }

    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<ContainerPort> {
        let container_port = codec::opt_int(map, "containerPort", ctx)?
            .ok_or_else(|| Error::malformed(format!("missing `{ctx}.containerPort`")))?;
        if !(1..=65535).contains(&container_port) {
            return Err(Error::malformed(format!(
                "{ctx}.containerPort: {container_port} out of range"
            )));
        }
        let protocol = match codec::opt_str(map, "protocol", ctx)? {
            Some(p) => Protocol::decode(&p, ctx)?,
            None => Protocol::Tcp,
        };
        let host_port = codec::opt_int(map, "hostPort", ctx)?
            .map(|p| {
                u16::try_from(p)
                    .map_err(|_| Error::malformed(format!("{ctx}.hostPort: {p} out of range")))
            })
            .transpose()?;
        Ok(ContainerPort {
            name: codec::opt_str(map, "name", ctx)?,
            container_port: container_port as u16,
            protocol,
            host_port,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(4);
        if let Some(n) = &self.name {
            m.push_unchecked("name", Value::str(n));
        }
        m.push_unchecked("containerPort", Value::Int(self.container_port as i64));
        if self.protocol != Protocol::Tcp {
            m.push_unchecked("protocol", Value::str(self.protocol.as_str()));
        }
        if let Some(hp) = self.host_port {
            m.push_unchecked("hostPort", Value::Int(hp as i64));
        }
        Value::Map(m)
    }
}

/// An environment variable. The simulator's container behaviour models read
/// these to decide deployment modes (e.g. a `CLUSTER_MODE` switch that opens
/// or closes ports), mirroring how real applications behave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvVar {
    /// Variable name.
    pub name: String,
    /// Literal value (valueFrom sources are out of scope).
    pub value: String,
}

/// A container within a pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container name, unique within the pod.
    pub name: String,
    /// Image reference; the simulator maps this to a behaviour model.
    pub image: String,
    /// Declared ports (purely documentative — see [`ContainerPort`]).
    pub ports: Vec<ContainerPort>,
    /// Environment.
    pub env: Vec<EnvVar>,
}

impl Container {
    /// Creates a container with no declared ports.
    pub fn new(name: impl Into<String>, image: impl Into<String>) -> Self {
        Container {
            name: name.into(),
            image: image.into(),
            ports: Vec::new(),
            env: Vec::new(),
        }
    }

    /// Builder-style port declaration.
    pub fn with_ports(mut self, ports: Vec<ContainerPort>) -> Self {
        self.ports = ports;
        self
    }

    /// Builder-style environment variable.
    pub fn with_env(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push(EnvVar {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Finds a declared port by its name.
    pub(crate) fn port_by_name(&self, name: &str) -> Option<&ContainerPort> {
        self.ports.iter().find(|p| p.name.as_deref() == Some(name))
    }

    /// Environment lookup.
    pub fn env_value(&self, name: &str) -> Option<&str> {
        self.env
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value.as_str())
    }

    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<Container> {
        let name = codec::req_str(map, "name", ctx)?;
        let image = codec::opt_str(map, "image", ctx)?.unwrap_or_default();
        let mut ports = Vec::new();
        for (i, p) in codec::opt_seq(map, "ports", ctx)?.iter().enumerate() {
            let pctx = format!("{ctx}.ports[{i}]");
            ports.push(ContainerPort::decode(codec::as_map(p, &pctx)?, &pctx)?);
        }
        let mut env = Vec::new();
        for (i, e) in codec::opt_seq(map, "env", ctx)?.iter().enumerate() {
            let ectx = format!("{ctx}.env[{i}]");
            let em = codec::as_map(e, &ectx)?;
            env.push(EnvVar {
                name: codec::req_str(em, "name", &ectx)?,
                value: codec::opt_str(em, "value", &ectx)?.unwrap_or_default(),
            });
        }
        Ok(Container {
            name,
            image,
            ports,
            env,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(4);
        m.push_unchecked("name", Value::str(&self.name));
        m.push_unchecked("image", Value::str(&self.image));
        if !self.ports.is_empty() {
            m.push_unchecked(
                "ports",
                Value::Seq(self.ports.iter().map(ContainerPort::encode).collect()),
            );
        }
        if !self.env.is_empty() {
            let env = self
                .env
                .iter()
                .map(|e| {
                    let mut em = Map::with_capacity(2);
                    em.push_unchecked("name", Value::str(&e.name));
                    em.push_unchecked("value", Value::str(&e.value));
                    Value::Map(em)
                })
                .collect();
            m.push_unchecked("env", Value::Seq(env));
        }
        Value::Map(m)
    }
}

/// Pod specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PodSpec {
    /// Containers sharing the pod's network namespace.
    pub containers: Vec<Container>,
    /// When true the pod binds directly into the node's network namespace,
    /// bypassing all NetworkPolicies (the paper's M7).
    pub host_network: bool,
    /// Scheduling pin: the node the pod must run on. The simulated
    /// scheduler honours it but never writes it; a running pod's node is
    /// kept beside the pod.
    pub node_name: Option<String>,
}

impl PodSpec {
    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<PodSpec> {
        let mut containers = Vec::new();
        for (i, c) in codec::opt_seq(map, "containers", ctx)?.iter().enumerate() {
            let cctx = format!("{ctx}.containers[{i}]");
            containers.push(Container::decode(codec::as_map(c, &cctx)?, &cctx)?);
        }
        Ok(PodSpec {
            containers,
            host_network: codec::opt_bool(map, "hostNetwork", ctx)?.unwrap_or(false),
            node_name: codec::opt_str(map, "nodeName", ctx)?,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(3);
        if self.host_network {
            m.push_unchecked("hostNetwork", Value::Bool(true));
        }
        if let Some(n) = &self.node_name {
            m.push_unchecked("nodeName", Value::str(n));
        }
        m.push_unchecked(
            "containers",
            Value::Seq(self.containers.iter().map(Container::encode).collect()),
        );
        Value::Map(m)
    }
}

/// A pod: the smallest deployable compute unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pod {
    /// Metadata (name, namespace, labels).
    pub meta: ObjectMeta,
    /// Desired specification.
    pub spec: PodSpec,
}

impl Pod {
    /// Creates a pod with the given metadata and spec.
    pub fn new(meta: ObjectMeta, spec: PodSpec) -> Self {
        Pod { meta, spec }
    }

    /// All declared ports across containers.
    pub fn declared_ports(&self) -> impl Iterator<Item = (&Container, &ContainerPort)> {
        self.spec
            .containers
            .iter()
            .flat_map(|c| c.ports.iter().map(move |p| (c, p)))
    }

    /// Resolves a named port to its number across all containers.
    pub fn resolve_port_name(&self, name: &str) -> Option<u16> {
        self.spec
            .containers
            .iter()
            .find_map(|c| c.port_by_name(name).map(|p| p.container_port))
    }

    pub(crate) fn decode(root: &Map) -> Result<Pod> {
        let meta = ObjectMeta::decode(root)?;
        let spec = match codec::opt_map(root, "spec", "pod")? {
            Some(m) => PodSpec::decode(m, "spec")?,
            None => PodSpec::default(),
        };
        Ok(Pod::new(meta, spec))
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(4);
        m.push_unchecked("apiVersion", Value::str("v1"));
        m.push_unchecked("kind", Value::str("Pod"));
        m.push_unchecked("metadata", self.meta.encode());
        m.push_unchecked("spec", self.spec.encode());
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_flink_style_pod() {
        // The motivating example from Figure 1 of the paper.
        let src = "\
apiVersion: v1
kind: Pod
metadata:
  name: flink
spec:
  containers:
    - name: flink
      image: bitnami/flink
      ports:
        - containerPort: 6121
        - containerPort: 6123
        - containerPort: 8081
";
        let v = ij_yaml::parse(src).unwrap();
        let pod = Pod::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(pod.meta.name, "flink");
        let ports: Vec<u16> = pod
            .declared_ports()
            .map(|(_, p)| p.container_port)
            .collect();
        assert_eq!(ports, vec![6121, 6123, 8081]);
        assert!(!pod.spec.host_network);
    }

    #[test]
    fn named_port_resolution() {
        let pod = Pod::new(
            ObjectMeta::named("web"),
            PodSpec {
                containers: vec![Container::new("web", "nginx")
                    .with_ports(vec![ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        );
        assert_eq!(pod.resolve_port_name("http"), Some(8080));
        assert_eq!(pod.resolve_port_name("https"), None);
    }

    #[test]
    fn port_range_validation() {
        let src = "name: c\nports:\n  - containerPort: 70000\n";
        let v = ij_yaml::parse(src).unwrap();
        assert!(Container::decode(v.as_map().unwrap(), "c").is_err());
    }

    #[test]
    fn udp_protocol_decodes() {
        let src = "containerPort: 53\nprotocol: UDP\n";
        let v = ij_yaml::parse(src).unwrap();
        let p = ContainerPort::decode(v.as_map().unwrap(), "p").unwrap();
        assert_eq!(p.protocol, Protocol::Udp);
    }

    #[test]
    fn pod_encode_round_trip() {
        let pod = Pod::new(
            ObjectMeta::named("web").with_labels(Labels::from_pairs([("app", "web")])),
            PodSpec {
                containers: vec![Container::new("web", "nginx:1.25")
                    .with_ports(vec![
                        ContainerPort::named("http", 8080),
                        ContainerPort {
                            protocol: Protocol::Udp,
                            ..ContainerPort::tcp(9090)
                        },
                    ])
                    .with_env("MODE", "cluster")],
                host_network: true,
                node_name: None,
            },
        );
        let encoded = pod.encode();
        let back = Pod::decode(encoded.as_map().unwrap()).unwrap();
        assert_eq!(pod.meta, back.meta);
        assert_eq!(pod.spec, back.spec);
    }

    use crate::meta::Labels;
}
