//! Socket snapshots and the double-run analyzer.

use crate::baseline::HostBaseline;
use crate::report::{PodRuntime, RuntimeReport};
use ij_cluster::Cluster;
use ij_model::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The ephemeral port range reserved by the host OS (§2.1.1).
pub const EPHEMERAL_RANGE: std::ops::RangeInclusive<u16> = 32768..=60999;

/// A socket as seen from the cluster network (loopback-only listeners are
/// invisible to a network-side probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObservedSocket {
    /// Port number.
    pub port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl ObservedSocket {
    /// TCP observation.
    pub fn tcp(port: u16) -> Self {
        ObservedSocket {
            port,
            protocol: Protocol::Tcp,
        }
    }

    /// UDP observation.
    pub fn udp(port: u16) -> Self {
        ObservedSocket {
            port,
            protocol: Protocol::Udp,
        }
    }

    /// True when the port falls into the OS ephemeral range.
    pub(crate) fn in_ephemeral_range(&self) -> bool {
        EPHEMERAL_RANGE.contains(&self.port)
    }
}

/// One observation pass over every pod in the cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Pod qualified name → observed sockets (sorted, deduplicated).
    pub pods: BTreeMap<String, Vec<ObservedSocket>>,
}

/// Probe configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Probability that a pod's snapshot contains one spurious UDP port —
    /// the §5.1.2 measurement pathology. `0.0` disables injection.
    pub udp_noise_rate: f64,
    /// Apply the flakiness filter: drop ephemeral-range UDP ports that
    /// appear in only one of the two runs.
    pub filter_udp_flakiness: bool,
    /// Take two snapshots around a pod restart (the §4.2.2 double-run that
    /// detects M2). With `false`, a single snapshot is taken and dynamic
    /// ports are indistinguishable from stable ones.
    pub double_run: bool,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            udp_noise_rate: 0.0,
            filter_udp_flakiness: true,
            double_run: true,
            seed: 1,
        }
    }
}

/// Runs the runtime-analysis methodology against a cluster.
#[derive(Debug, Clone, Default)]
pub struct RuntimeAnalyzer {
    /// Probe configuration.
    pub config: ProbeConfig,
}

impl RuntimeAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: ProbeConfig) -> Self {
        RuntimeAnalyzer { config }
    }

    /// Captures a single snapshot (with noise injection, baseline
    /// subtraction, and loopback filtering applied).
    pub(crate) fn snapshot(
        &self,
        cluster: &Cluster,
        baseline: &HostBaseline,
        noise_rng: &mut StdRng,
    ) -> Snapshot {
        let mut pods = BTreeMap::new();
        for rp in cluster.pods() {
            let mut observed = self.pod_sockets(cluster, baseline, rp);
            if self.config.udp_noise_rate > 0.0
                && noise_rng.gen_bool(self.config.udp_noise_rate.clamp(0.0, 1.0))
            {
                observed.push(ObservedSocket::udp(
                    noise_rng.gen_range(*EPHEMERAL_RANGE.start()..=*EPHEMERAL_RANGE.end()),
                ));
            }
            observed.sort();
            observed.dedup();
            pods.insert(rp.qualified_name(), observed);
        }
        Snapshot { pods }
    }

    /// What the network-side probe sees for one pod: its cluster-reachable
    /// sockets, or the baseline-subtracted host namespace for hostNetwork
    /// pods.
    fn pod_sockets(
        &self,
        cluster: &Cluster,
        baseline: &HostBaseline,
        rp: &ij_cluster::RunningPod,
    ) -> Vec<ObservedSocket> {
        if rp.pod.spec.host_network {
            // The probe sees the whole host namespace; subtract what the
            // node held before the application was installed.
            cluster
                .host_sockets(&rp.node)
                .into_iter()
                .filter(|(p, proto, _)| !baseline.holds(&rp.node, *p, *proto))
                .map(|(port, protocol, _)| ObservedSocket { port, protocol })
                .collect()
        } else {
            rp.sockets
                .iter()
                .filter(|s| !s.loopback_only)
                .map(|s| ObservedSocket {
                    port: s.port,
                    protocol: s.protocol,
                })
                .collect()
        }
    }

    /// A non-mutating observation pass for continuous audits: one snapshot,
    /// every observed port classified stable — the `double_run: false`
    /// shape, since without a restart dynamic ports are indistinguishable.
    ///
    /// Unlike [`RuntimeAnalyzer::analyze`] (which restarts pods and draws
    /// noise from one sequential generator), noise here comes from a
    /// per-pod generator seeded by `(config.seed, pod name)`. Each pod's
    /// observation is therefore a pure function of that pod's own state:
    /// installing or removing *other* pods cannot shift the noise sequence.
    /// That independence is what lets an incremental auditor reuse
    /// unchanged applications' runtime findings verbatim and still agree
    /// byte-for-byte with a full recompute.
    pub fn observe(&self, cluster: &Cluster, baseline: &HostBaseline) -> RuntimeReport {
        let mut pods = BTreeMap::new();
        for rp in cluster.pods() {
            let name = rp.qualified_name();
            let mut observed = self.pod_sockets(cluster, baseline, rp);
            if self.config.udp_noise_rate > 0.0 {
                let mut rng = StdRng::seed_from_u64(per_pod_seed(self.config.seed, &name));
                if rng.gen_bool(self.config.udp_noise_rate.clamp(0.0, 1.0)) {
                    observed.push(ObservedSocket::udp(
                        rng.gen_range(*EPHEMERAL_RANGE.start()..=*EPHEMERAL_RANGE.end()),
                    ));
                }
            }
            observed.sort();
            observed.dedup();
            pods.insert(
                name,
                PodRuntime {
                    stable: observed,
                    dynamic: Vec::new(),
                },
            );
        }
        RuntimeReport {
            pods,
            udp_noise_filtered: 0,
        }
    }

    /// Full analysis: snapshot, restart, snapshot again (when `double_run`),
    /// then merge into a [`RuntimeReport`] separating stable from dynamic
    /// ports and filtering UDP flakiness.
    pub fn analyze(&self, cluster: &mut Cluster, baseline: &HostBaseline) -> RuntimeReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let first = self.snapshot(cluster, baseline, &mut rng);
        if !self.config.double_run {
            let pods = first
                .pods
                .into_iter()
                .map(|(name, sockets)| {
                    (
                        name,
                        PodRuntime {
                            stable: sockets,
                            dynamic: Vec::new(),
                        },
                    )
                })
                .collect();
            return RuntimeReport {
                pods,
                udp_noise_filtered: 0,
            };
        }
        cluster.restart_pods();
        let second = self.snapshot(cluster, baseline, &mut rng);
        self.merge(first, second)
    }

    /// Combines two snapshots: ports in both runs are stable; ports in only
    /// one run are dynamic if in the ephemeral range (UDP singletons get
    /// dropped as flakiness when the filter is on).
    fn merge(&self, first: Snapshot, second: Snapshot) -> RuntimeReport {
        let mut pods = BTreeMap::new();
        let mut filtered = 0usize;
        let names: std::collections::BTreeSet<&String> =
            first.pods.keys().chain(second.pods.keys()).collect();
        for name in names {
            let empty = Vec::new();
            let a = first.pods.get(name).unwrap_or(&empty);
            let b = second.pods.get(name).unwrap_or(&empty);
            let mut stable = Vec::new();
            let mut dynamic = Vec::new();
            for s in a.iter().chain(b.iter()) {
                if stable.contains(s) || dynamic.contains(s) {
                    continue;
                }
                let in_both = a.contains(s) && b.contains(s);
                if in_both {
                    stable.push(*s);
                } else if s.in_ephemeral_range() {
                    if self.config.filter_udp_flakiness && s.protocol == Protocol::Udp {
                        // §5.1.2: single-occurrence ephemeral UDP ports are
                        // probe artifacts, not application listeners.
                        filtered += 1;
                    } else {
                        dynamic.push(*s);
                    }
                } else {
                    // A non-ephemeral port present in exactly one run: the
                    // listener raced the probe. Keep it as stable — it is a
                    // real port of the application.
                    stable.push(*s);
                }
            }
            stable.sort();
            dynamic.sort();
            pods.insert(name.clone(), PodRuntime { stable, dynamic });
        }
        RuntimeReport {
            pods,
            udp_noise_filtered: filtered,
        }
    }
}

/// Mixes the configured probe seed with a pod name (FNV-1a) so every pod
/// owns an independent noise stream.
fn per_pod_seed(seed: u64, pod: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in pod.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig, ContainerBehavior, ListenerSpec};
    use ij_model::{Container, ContainerPort, Labels, Object, ObjectMeta, Pod, PodSpec};

    fn cluster_with(behaviors: BehaviorRegistry, host_network: bool) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 1,
            seed: 3,
            behaviors,
        });
        let pod = Pod::new(
            ObjectMeta::named("app").with_labels(Labels::from_pairs([("app", "x")])),
            PodSpec {
                containers: vec![
                    Container::new("c", "img/app").with_ports(vec![ContainerPort::tcp(8080)])
                ],
                host_network,
                node_name: None,
            },
        );
        cluster.apply(Object::Pod(pod)).unwrap();
        cluster.reconcile();
        cluster
    }

    #[test]
    fn stable_ports_survive_double_run() {
        let mut cluster = cluster_with(BehaviorRegistry::new(), false);
        let baseline = HostBaseline::capture(&cluster);
        let report = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert_eq!(rt.stable, vec![ObservedSocket::tcp(8080)]);
        assert!(rt.dynamic.is_empty());
    }

    #[test]
    fn dynamic_ports_detected_by_double_run() {
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "img/app",
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(8080), ListenerSpec::ephemeral()]),
        );
        let mut cluster = cluster_with(behaviors, false);
        let baseline = HostBaseline::capture(&cluster);
        let report = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert_eq!(rt.stable, vec![ObservedSocket::tcp(8080)]);
        // The two draws land on different ports, so both runs contribute one.
        assert_eq!(rt.dynamic.len(), 2);
        assert!(rt.dynamic.iter().all(ObservedSocket::in_ephemeral_range));
    }

    #[test]
    fn single_run_cannot_see_dynamics() {
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "img/app",
            ContainerBehavior::Listeners(vec![ListenerSpec::ephemeral()]),
        );
        let mut cluster = cluster_with(behaviors, false);
        let baseline = HostBaseline::capture(&cluster);
        let analyzer = RuntimeAnalyzer::new(ProbeConfig {
            double_run: false,
            ..Default::default()
        });
        let report = analyzer.analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert_eq!(rt.stable.len(), 1, "ephemeral port misclassified as stable");
        assert!(rt.dynamic.is_empty());
    }

    #[test]
    fn loopback_listeners_invisible() {
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "img/app",
            ContainerBehavior::Listeners(vec![
                ListenerSpec::tcp(8080),
                ListenerSpec::tcp(6060).loopback(),
            ]),
        );
        let mut cluster = cluster_with(behaviors, false);
        let baseline = HostBaseline::capture(&cluster);
        let report = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert!(rt.stable.iter().chain(&rt.dynamic).all(|s| s.port != 6060));
    }

    #[test]
    fn host_network_baseline_subtraction() {
        let cluster = cluster_with(BehaviorRegistry::new(), true);
        let baseline = HostBaseline::capture(&cluster);
        // Note: the baseline here was captured *after* install, so it also
        // contains the app's own port; capture order matters. Re-do it the
        // right way: fresh cluster → baseline → install.
        let mut fresh = Cluster::new(ClusterConfig {
            nodes: 1,
            seed: 3,
            behaviors: BehaviorRegistry::new(),
        });
        let clean_baseline = HostBaseline::capture(&fresh);
        let pod = Pod::new(
            ObjectMeta::named("app"),
            PodSpec {
                containers: vec![
                    Container::new("c", "img/app").with_ports(vec![ContainerPort::tcp(9100)])
                ],
                host_network: true,
                node_name: None,
            },
        );
        fresh.apply(Object::Pod(pod)).unwrap();
        fresh.reconcile();
        let report = RuntimeAnalyzer::default().analyze(&mut fresh, &clean_baseline);
        let rt = &report.pods["default/app"];
        assert_eq!(
            rt.stable,
            vec![ObservedSocket::tcp(9100)],
            "node daemons subtracted"
        );

        // Without subtraction the kubelet & co. leak into the report.
        let report = RuntimeAnalyzer::default().analyze(&mut fresh, &HostBaseline::empty());
        let rt = &report.pods["default/app"];
        assert!(rt.stable.len() > 1, "baseline-less analysis over-reports");
        let _ = (cluster, baseline);
    }

    #[test]
    fn udp_noise_injected_and_filtered() {
        let noisy = ProbeConfig {
            udp_noise_rate: 1.0,
            filter_udp_flakiness: true,
            double_run: true,
            seed: 9,
        };
        let mut cluster = cluster_with(BehaviorRegistry::new(), false);
        let baseline = HostBaseline::capture(&cluster);
        let report = RuntimeAnalyzer::new(noisy.clone()).analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert_eq!(rt.stable, vec![ObservedSocket::tcp(8080)]);
        assert!(rt.dynamic.is_empty(), "noise filtered out");
        assert!(report.udp_noise_filtered >= 1);

        // Filter off: the spurious UDP ports surface as dynamic findings.
        let unfiltered = ProbeConfig {
            filter_udp_flakiness: false,
            ..noisy
        };
        let report = RuntimeAnalyzer::new(unfiltered).analyze(&mut cluster, &baseline);
        let rt = &report.pods["default/app"];
        assert!(
            !rt.dynamic.is_empty(),
            "unfiltered noise leaks into the report"
        );
    }

    #[test]
    fn observe_is_pure_and_per_pod_independent() {
        let mut cluster = cluster_with(BehaviorRegistry::new(), false);
        let baseline = HostBaseline::capture(&cluster);
        let analyzer = RuntimeAnalyzer::new(ProbeConfig {
            udp_noise_rate: 0.5,
            ..Default::default()
        });
        // Non-mutating and repeatable.
        let g = cluster.generation();
        let first = analyzer.observe(&cluster, &baseline);
        assert_eq!(cluster.generation(), g, "observe must not mutate");
        assert_eq!(first, analyzer.observe(&cluster, &baseline));
        assert!(first.pods["default/app"].dynamic.is_empty());

        // Adding an unrelated pod must not change what we see for the
        // original one (sequential noise draws would shift here).
        let before = first.pods["default/app"].clone();
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named("other"),
                PodSpec {
                    containers: vec![Container::new("c", "img/other")],
                    ..Default::default()
                },
            )))
            .unwrap();
        cluster.reconcile();
        let second = analyzer.observe(&cluster, &baseline);
        assert_eq!(second.pods["default/app"], before);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let mk = || {
            let mut cluster = cluster_with(BehaviorRegistry::new(), false);
            let baseline = HostBaseline::capture(&cluster);
            RuntimeAnalyzer::default().analyze(&mut cluster, &baseline)
        };
        assert_eq!(mk().pods, mk().pods);
    }
}
