//! Container runtime behaviour models.
//!
//! In the real study, the authors run the actual container images and read
//! `netstat` inside the pods. Here, an image name resolves to a
//! [`ContainerBehavior`] which says what the process *actually* does with
//! sockets — independently of what the manifest *declares*. The delta between
//! the two is exactly what M1/M2/M3 measure, so the substitution exercises
//! the same analyzer code path as a live container would.

use ij_model::{Container, ContainerPort, Protocol};
use std::borrow::Cow;
use std::collections::HashMap;

/// How a listener picks its port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortSpec {
    /// A fixed port number.
    Static(u16),
    /// An OS-assigned ephemeral port from the host range (32768–60999),
    /// re-drawn on every container start — the paper's M2.
    Ephemeral,
    /// Port taken from an environment variable, falling back to a default
    /// when unset. Models applications whose deployment mode is switched via
    /// env (the paper's "different deployment modes" M3 examples).
    FromEnv {
        /// Variable to read.
        var: String,
        /// Port used when the variable is unset or unparsable; `None` means
        /// the listener simply does not start.
        default: Option<u16>,
    },
}

/// One socket a container process opens when it starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenerSpec {
    /// Port selection.
    pub port: PortSpec,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Bound to `127.0.0.1` only. Loopback listeners are reachable from
    /// other containers in the *same pod* but not from the cluster network
    /// — the distinction Concourse got wrong (§2.1.1: tunnel endpoints that
    /// should have been loopback were cluster-reachable).
    pub loopback_only: bool,
    /// Only open when this `(env var, value)` pair is present on the
    /// container. `None` means always.
    pub when_env: Option<(String, String)>,
}

impl ListenerSpec {
    /// A plain TCP listener on all interfaces.
    pub fn tcp(port: u16) -> Self {
        ListenerSpec {
            port: PortSpec::Static(port),
            protocol: Protocol::Tcp,
            loopback_only: false,
            when_env: None,
        }
    }

    /// An ephemeral TCP listener (new port every start).
    pub fn ephemeral() -> Self {
        ListenerSpec {
            port: PortSpec::Ephemeral,
            protocol: Protocol::Tcp,
            loopback_only: false,
            when_env: None,
        }
    }

    /// Builder-style: restrict to loopback.
    pub fn loopback(mut self) -> Self {
        self.loopback_only = true;
        self
    }

    /// True when the gate (if any) is satisfied by the container's env.
    pub(crate) fn enabled_for(&self, container: &Container) -> bool {
        match &self.when_env {
            None => true,
            Some((var, want)) => container.env_value(var) == Some(want.as_str()),
        }
    }
}

/// What a container image does with sockets at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerBehavior {
    /// The well-behaved default: open exactly the declared container ports.
    /// Unknown images resolve to this, so a chart with no registered
    /// behaviour has no runtime/declaration delta.
    DeclaredPorts,
    /// An explicit list of listeners, *independent* of the declaration.
    Listeners(Vec<ListenerSpec>),
}

impl ContainerBehavior {
    /// The listeners a container opens, in order: its declared ports, or
    /// the explicit behaviour list filtered by env gates. Explicit specs
    /// are borrowed and declared ports become gate-free static specs, so
    /// the walk allocates nothing.
    pub(crate) fn listeners<'a>(
        &'a self,
        container: &'a Container,
    ) -> impl Iterator<Item = Cow<'a, ListenerSpec>> + 'a {
        let (declared, specs): (&[ContainerPort], &[ListenerSpec]) = match self {
            ContainerBehavior::DeclaredPorts => (&container.ports, &[]),
            ContainerBehavior::Listeners(specs) => (&[], specs),
        };
        declared
            .iter()
            .map(|p| {
                Cow::Owned(ListenerSpec {
                    port: PortSpec::Static(p.container_port),
                    protocol: p.protocol,
                    loopback_only: false,
                    when_env: None,
                })
            })
            .chain(
                specs
                    .iter()
                    .filter(move |s| s.enabled_for(container))
                    .map(Cow::Borrowed),
            )
    }
}

/// Maps image references to behaviours.
///
/// Lookup tries the exact reference first, then the reference with its tag
/// stripped — so `bitnami/flink:1.17` matches a behaviour registered for
/// `bitnami/flink`.
#[derive(Debug, Clone, Default)]
pub struct BehaviorRegistry {
    exact: HashMap<String, ContainerBehavior>,
}

impl BehaviorRegistry {
    /// An empty registry: every image behaves as declared.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a behaviour for an exact image reference (tag-insensitive).
    pub fn register(&mut self, image: impl Into<String>, behavior: ContainerBehavior) {
        self.exact.insert(image.into(), behavior);
    }

    /// Resolves an image reference to its behaviour.
    pub(crate) fn resolve(&self, image: &str) -> &ContainerBehavior {
        if let Some(b) = self.exact.get(image) {
            return b;
        }
        let untagged = image.split(':').next().unwrap_or(image);
        self.exact
            .get(untagged)
            .unwrap_or(&ContainerBehavior::DeclaredPorts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_behavior_opens_declared_ports() {
        let c = Container::new("flink", "bitnami/flink")
            .with_ports(vec![ContainerPort::tcp(6123), ContainerPort::tcp(8081)]);
        let b = ContainerBehavior::DeclaredPorts;
        let l: Vec<_> = b.listeners(&c).collect();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].port, PortSpec::Static(6123));
    }

    #[test]
    fn explicit_listeners_ignore_declaration() {
        // Figure 1: flink declares 6121/6123/8081 but actually opens
        // 6123, 8081, and an ephemeral port.
        let c = Container::new("flink", "bitnami/flink").with_ports(vec![
            ContainerPort::tcp(6121),
            ContainerPort::tcp(6123),
            ContainerPort::tcp(8081),
        ]);
        let b = ContainerBehavior::Listeners(vec![
            ListenerSpec::tcp(6123),
            ListenerSpec::tcp(8081),
            ListenerSpec::ephemeral(),
        ]);
        let l: Vec<_> = b.listeners(&c).collect();
        assert_eq!(l.len(), 3);
        assert!(l.iter().any(|s| s.port == PortSpec::Ephemeral));
        assert!(!l.iter().any(|s| s.port == PortSpec::Static(6121)));
    }

    #[test]
    fn env_gated_listener() {
        let spec = ListenerSpec {
            when_env: Some(("CLUSTER_MODE".into(), "true".into())),
            ..ListenerSpec::tcp(7077)
        };
        let off = Container::new("spark", "spark");
        let on = Container::new("spark", "spark").with_env("CLUSTER_MODE", "true");
        assert!(!spec.enabled_for(&off));
        assert!(spec.enabled_for(&on));
        let b = ContainerBehavior::Listeners(vec![spec]);
        assert_eq!(b.listeners(&off).count(), 0);
        assert_eq!(b.listeners(&on).count(), 1);
    }

    #[test]
    fn registry_resolution_order() {
        let mut reg = BehaviorRegistry::new();
        reg.register(
            "bitnami/flink",
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(1)]),
        );

        // Tag-stripped exact match.
        match reg.resolve("bitnami/flink:1.17") {
            ContainerBehavior::Listeners(l) => assert_eq!(l[0].port, PortSpec::Static(1)),
            _ => panic!(),
        }
        // Unknown image: declared ports.
        assert_eq!(
            reg.resolve("ghcr.io/other/app"),
            &ContainerBehavior::DeclaredPorts
        );
    }

    #[test]
    fn loopback_builder() {
        let s = ListenerSpec::tcp(2222).loopback();
        assert!(s.loopback_only);
    }
}
