//! Services: virtual IPs, headless DNS records, and their port mappings.

use crate::codec;
use crate::error::{Error, Result};
use crate::meta::{Labels, ObjectMeta};
use crate::pod::Protocol;
use ij_yaml::{Map, Value};
use std::net::Ipv4Addr;

/// Service exposure type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceType {
    /// Cluster-internal virtual IP (the default).
    #[default]
    ClusterIp,
    /// ClusterIP plus a port on every node.
    NodePort,
    /// NodePort plus an external load balancer.
    LoadBalancer,
    /// A DNS CNAME, no proxying at all.
    ExternalName,
}

impl ServiceType {
    /// Kubernetes wire spelling.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ServiceType::ClusterIp => "ClusterIP",
            ServiceType::NodePort => "NodePort",
            ServiceType::LoadBalancer => "LoadBalancer",
            ServiceType::ExternalName => "ExternalName",
        }
    }
}

/// The port a service forwards to: either a number or the *name* of a
/// declared container port. Named targets make M5B subtler: the name may
/// resolve to nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetPort {
    /// Forward to this literal port on the pod.
    Number(u16),
    /// Forward to the declared container port with this name.
    Name(String),
}

/// One port mapping of a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePort {
    /// Optional mapping name (required when a service has several ports).
    pub name: Option<String>,
    /// The port the service itself listens on.
    pub port: u16,
    /// Where traffic is forwarded. Defaults to `port` when omitted.
    pub target_port: TargetPort,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Node port for NodePort/LoadBalancer services.
    pub node_port: Option<u16>,
}

impl ServicePort {
    /// A TCP mapping where the target equals the service port.
    pub fn tcp(port: u16) -> Self {
        ServicePort {
            name: None,
            port,
            target_port: TargetPort::Number(port),
            protocol: Protocol::Tcp,
            node_port: None,
        }
    }

    /// A TCP mapping to a different numeric target.
    pub fn tcp_to(port: u16, target: u16) -> Self {
        ServicePort {
            target_port: TargetPort::Number(target),
            ..ServicePort::tcp(port)
        }
    }

    /// A TCP mapping to a named container port.
    pub fn tcp_to_name(port: u16, target: impl Into<String>) -> Self {
        ServicePort {
            target_port: TargetPort::Name(target.into()),
            ..ServicePort::tcp(port)
        }
    }

    /// Builder-style name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    pub(crate) fn decode(map: &Map, ctx: &str) -> Result<ServicePort> {
        let port = codec::opt_int(map, "port", ctx)?
            .ok_or_else(|| Error::malformed(format!("missing `{ctx}.port`")))?;
        let port = u16::try_from(port)
            .map_err(|_| Error::malformed(format!("{ctx}.port: {port} out of range")))?;
        let target_port = match map.get("targetPort") {
            None | Some(Value::Null) => TargetPort::Number(port),
            Some(Value::Int(i)) => {
                let t = u16::try_from(*i)
                    .map_err(|_| Error::malformed(format!("{ctx}.targetPort: {i} out of range")))?;
                TargetPort::Number(t)
            }
            Some(Value::Str(s)) => match s.parse::<u16>() {
                Ok(n) => TargetPort::Number(n),
                Err(_) => TargetPort::Name(s.clone()),
            },
            Some(_) => return Err(Error::field(format!("{ctx}.targetPort"), "int or string")),
        };
        let protocol = match codec::opt_str(map, "protocol", ctx)? {
            Some(p) => Protocol::decode(&p, ctx)?,
            None => Protocol::Tcp,
        };
        let node_port = codec::opt_int(map, "nodePort", ctx)?
            .map(|p| {
                u16::try_from(p)
                    .map_err(|_| Error::malformed(format!("{ctx}.nodePort: {p} out of range")))
            })
            .transpose()?;
        Ok(ServicePort {
            name: codec::opt_str(map, "name", ctx)?,
            port,
            target_port,
            protocol,
            node_port,
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut m = Map::with_capacity(5);
        if let Some(n) = &self.name {
            m.push_unchecked("name", Value::str(n));
        }
        m.push_unchecked("port", Value::Int(self.port as i64));
        match &self.target_port {
            TargetPort::Number(n) if *n == self.port => {}
            TargetPort::Number(n) => {
                m.push_unchecked("targetPort", Value::Int(*n as i64));
            }
            TargetPort::Name(s) => {
                m.push_unchecked("targetPort", Value::str(s));
            }
        }
        if self.protocol != Protocol::Tcp {
            m.push_unchecked("protocol", Value::str(self.protocol.as_str()));
        }
        if let Some(np) = self.node_port {
            m.push_unchecked("nodePort", Value::Int(np as i64));
        }
        Value::Map(m)
    }
}

/// Service specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceSpec {
    /// Exposure type.
    pub service_type: ServiceType,
    /// Equality-based pod selector (services do not support
    /// matchExpressions). Empty means *no* selector — a service without
    /// target (M5D), unless endpoints are managed manually.
    pub selector: Labels,
    /// Port mappings.
    pub ports: Vec<ServicePort>,
    /// `clusterIP: None` marks a headless service, resolved purely via DNS.
    pub headless: bool,
    /// The virtual IP the simulator assigns at apply (none when headless);
    /// the codec neither reads nor writes it.
    pub cluster_ip: Option<Ipv4Addr>,
}

/// A Kubernetes Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Service {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Specification.
    pub spec: ServiceSpec,
}

impl Service {
    /// Creates a ClusterIP service.
    pub fn cluster_ip(meta: ObjectMeta, selector: Labels, ports: Vec<ServicePort>) -> Self {
        Service {
            meta,
            spec: ServiceSpec {
                selector,
                ports,
                ..Default::default()
            },
        }
    }

    /// Creates a headless service.
    pub fn headless(meta: ObjectMeta, selector: Labels, ports: Vec<ServicePort>) -> Self {
        let mut service = Service::cluster_ip(meta, selector, ports);
        service.spec.headless = true;
        service
    }

    /// True for headless services (`clusterIP: None`).
    pub fn is_headless(&self) -> bool {
        self.spec.headless
    }

    pub(crate) fn decode(root: &Map) -> Result<Service> {
        let meta = ObjectMeta::decode(root)?;
        let spec = codec::opt_map(root, "spec", "service")?
            .ok_or_else(|| Error::malformed("missing service `spec`"))?;
        let service_type = match codec::opt_str(spec, "type", "spec")?.as_deref() {
            None | Some("ClusterIP") => ServiceType::ClusterIp,
            Some("NodePort") => ServiceType::NodePort,
            Some("LoadBalancer") => ServiceType::LoadBalancer,
            Some("ExternalName") => ServiceType::ExternalName,
            Some(other) => {
                return Err(Error::malformed(format!(
                    "spec.type: unknown service type `{other}`"
                )))
            }
        };
        let selector = match codec::opt_map(spec, "selector", "spec")? {
            Some(m) => Labels::decode(m, "spec.selector")?,
            None => Labels::new(),
        };
        let headless = matches!(spec.get("clusterIP"), Some(Value::Str(s)) if s == "None")
            || matches!(spec.get("clusterIP"), Some(Value::Null) if spec.contains_key("clusterIP"));
        let mut ports = Vec::new();
        for (i, p) in codec::opt_seq(spec, "ports", "spec")?.iter().enumerate() {
            let pctx = format!("spec.ports[{i}]");
            ports.push(ServicePort::decode(codec::as_map(p, &pctx)?, &pctx)?);
        }
        Ok(Service {
            meta,
            spec: ServiceSpec {
                service_type,
                selector,
                ports,
                headless,
                ..Default::default()
            },
        })
    }

    pub(crate) fn encode(&self) -> Value {
        let mut spec = Map::with_capacity(4);
        if self.spec.service_type != ServiceType::ClusterIp {
            spec.push_unchecked("type", Value::str(self.spec.service_type.as_str()));
        }
        if self.spec.headless {
            spec.push_unchecked("clusterIP", Value::str("None"));
        }
        if !self.spec.selector.is_empty() {
            spec.push_unchecked("selector", self.spec.selector.encode());
        }
        if !self.spec.ports.is_empty() {
            spec.push_unchecked(
                "ports",
                Value::Seq(self.spec.ports.iter().map(ServicePort::encode).collect()),
            );
        }
        let mut m = Map::with_capacity(4);
        m.push_unchecked("apiVersion", Value::str("v1"));
        m.push_unchecked("kind", Value::str("Service"));
        m.push_unchecked("metadata", self.meta.encode());
        m.push_unchecked("spec", Value::Map(spec));
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_mysql_service() {
        // Mirrors Figure 2b of the paper.
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: mysql
  labels:
    app.kubernetes.io/part-of: mysql
spec:
  type: ClusterIP
  selector:
    app.kubernetes.io/part-of: mysql
  ports:
    - name: mysql
      port: 3306
      protocol: TCP
";
        let v = ij_yaml::parse(src).unwrap();
        let s = Service::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(s.spec.ports[0].port, 3306);
        assert_eq!(s.spec.ports[0].target_port, TargetPort::Number(3306));
        assert!(!s.is_headless());
        assert!(!s.spec.selector.is_empty());
    }

    #[test]
    fn headless_service() {
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: db-headless
spec:
  clusterIP: None
  selector:
    app: db
  ports:
    - port: 5432
";
        let v = ij_yaml::parse(src).unwrap();
        let s = Service::decode(v.as_map().unwrap()).unwrap();
        assert!(s.is_headless());
    }

    #[test]
    fn named_target_port() {
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  selector:
    app: web
  ports:
    - port: 80
      targetPort: http
";
        let v = ij_yaml::parse(src).unwrap();
        let s = Service::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(s.spec.ports[0].target_port, TargetPort::Name("http".into()));
    }

    #[test]
    fn service_without_selector() {
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: orphan
spec:
  ports:
    - port: 8080
";
        let v = ij_yaml::parse(src).unwrap();
        let s = Service::decode(v.as_map().unwrap()).unwrap();
        assert!(s.spec.selector.is_empty());
    }

    #[test]
    fn encode_round_trip() {
        let s = Service::headless(
            ObjectMeta::named("thanos-query"),
            Labels::from_pairs([("app", "thanos-query-frontend")]),
            vec![
                ServicePort::tcp_to(9090, 10902).with_name("http"),
                ServicePort::tcp_to_name(10901, "grpc").with_name("grpc"),
            ],
        );
        let v = s.encode();
        let back = Service::decode(v.as_map().unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
