//! Static extraction: the analyzer's view of a rendered application.

use ij_model::{ContainerPort, Labels, NetworkPolicy, Object, Protocol, Service};

/// A compute unit: a workload's pod template or a bare pod, with everything
/// the static rules need (labels, declared ports, host networking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeUnit {
    /// Qualified name of the defining object (`namespace/name`).
    pub name: String,
    /// Object kind (`Deployment`, `Pod`, …).
    pub kind: String,
    /// Namespace.
    pub namespace: String,
    /// Labels stamped onto the unit's pods.
    pub labels: Labels,
    /// Declared container ports as `(container name, port)` pairs.
    pub declared: Vec<(String, ContainerPort)>,
    /// True when the pod template binds to the host network.
    pub host_network: bool,
}

impl ComputeUnit {
    /// Declared `(port, protocol)` pairs.
    pub fn declared_ports(&self) -> impl Iterator<Item = (u16, Protocol)> + '_ {
        self.declared
            .iter()
            .map(|(_, p)| (p.container_port, p.protocol))
    }

    /// True when `(port, protocol)` is declared on any container.
    pub fn declares(&self, port: u16, protocol: Protocol) -> bool {
        self.declared_ports()
            .any(|(p, pr)| p == port && pr == protocol)
    }

    /// True when the service's selector covers this unit: a non-empty
    /// selector, in the unit's namespace, whose labels the unit carries.
    pub(crate) fn selected_by(&self, svc: &Service) -> bool {
        !svc.spec.selector.is_empty()
            && self.namespace == svc.meta.namespace
            && self.labels.contains_all(&svc.spec.selector)
    }

    /// Resolves a declared port name to its number.
    pub(crate) fn resolve_port_name(&self, name: &str) -> Option<u16> {
        self.declared
            .iter()
            .find(|(_, p)| p.name.as_deref() == Some(name))
            .map(|(_, p)| p.container_port)
    }
}

/// The static model of one rendered application.
#[derive(Debug, Clone, Default)]
pub struct StaticModel {
    /// Compute units.
    pub units: Vec<ComputeUnit>,
    /// Services.
    pub services: Vec<Service>,
    /// Network policies rendered (i.e. *enabled*) by the chart.
    pub policies: Vec<NetworkPolicy>,
}

impl StaticModel {
    /// Builds the model from rendered objects — a slice, or objects
    /// borrowed from anywhere (one release of a live cluster).
    pub fn from_objects<'a>(objects: impl IntoIterator<Item = &'a Object>) -> Self {
        let mut model = StaticModel::default();
        for obj in objects {
            match obj {
                Object::Pod(p) => model.units.push(ComputeUnit {
                    name: p.meta.qualified_name(),
                    kind: "Pod".to_string(),
                    namespace: p.meta.namespace.clone(),
                    labels: p.meta.labels.clone(),
                    declared: p
                        .spec
                        .containers
                        .iter()
                        .flat_map(|c| c.ports.iter().map(move |p| (c.name.clone(), p.clone())))
                        .collect(),
                    host_network: p.spec.host_network,
                }),
                Object::Workload(w) => model.units.push(ComputeUnit {
                    name: w.meta.qualified_name(),
                    kind: w.kind.as_str().to_string(),
                    namespace: w.meta.namespace.clone(),
                    labels: w.template.labels.clone(),
                    declared: w
                        .template
                        .spec
                        .containers
                        .iter()
                        .flat_map(|c| c.ports.iter().map(move |p| (c.name.clone(), p.clone())))
                        .collect(),
                    host_network: w.template.spec.host_network,
                }),
                Object::Service(s) => model.services.push(s.clone()),
                Object::NetworkPolicy(n) => model.policies.push(n.clone()),
                Object::Namespace(_) | Object::Opaque { .. } => {}
            }
        }
        model
    }

    /// Units in a namespace whose labels satisfy a service selector.
    pub fn units_selected_by(&self, svc: &Service) -> Vec<&ComputeUnit> {
        self.units.iter().filter(|u| u.selected_by(svc)).collect()
    }

    /// Finds a unit by qualified name.
    pub fn unit(&self, name: &str) -> Option<&ComputeUnit> {
        self.units.iter().find(|u| u.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_model::decode_manifests;

    const APP: &str = "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
        tier: front
    spec:
      hostNetwork: true
      containers:
        - name: web
          image: nginx
          ports:
            - name: http
              containerPort: 8080
            - containerPort: 9090
              protocol: UDP
---
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
---
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: lock
spec:
  podSelector: {}
";

    #[test]
    fn builds_units_services_policies() {
        let objects = decode_manifests(APP).unwrap();
        let m = StaticModel::from_objects(&objects);
        assert_eq!(m.units.len(), 1);
        assert_eq!(m.services.len(), 1);
        assert_eq!(m.policies.len(), 1);
        let u = &m.units[0];
        assert_eq!(u.kind, "Deployment");
        assert!(u.host_network);
        assert!(u.declares(8080, Protocol::Tcp));
        assert!(u.declares(9090, Protocol::Udp));
        assert!(!u.declares(9090, Protocol::Tcp));
        assert_eq!(u.resolve_port_name("http"), Some(8080));
        assert_eq!(u.resolve_port_name("nope"), None);
    }

    #[test]
    fn selection_respects_namespace_and_subset() {
        let objects = decode_manifests(APP).unwrap();
        let m = StaticModel::from_objects(&objects);
        let svc = &m.services[0];
        // Selector {app: web} is a subset of the unit labels {app, tier}.
        assert_eq!(m.units_selected_by(svc).len(), 1);
    }
}
