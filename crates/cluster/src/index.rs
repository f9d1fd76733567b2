//! The compiled policy index: selectors resolved once, verdicts by integer.
//!
//! [`PolicyEngine`](crate::PolicyEngine) answers one connection question by
//! walking every policy and re-matching every label selector with string
//! comparisons. That is the right *oracle* but the wrong hot path: the
//! census asks the same question for every (source, destination, socket)
//! triple of a cluster, so the per-call work must be integer-cheap.
//!
//! [`PolicyIndex`] compiles the cluster's current policy set once:
//!
//! * every label key/value is interned ([`ij_model::LabelInterner`]) and
//!   every selector becomes a [`ij_model::SelectorMatcher`];
//! * every policy gets the bitset of pods it selects ([`PodSet`]) and every
//!   rule the bitset of pods its peers admit — peer evaluation happens once
//!   per (rule, pod), never per connection;
//! * every pod gets its ingress/egress policy slices, its parsed IPv4
//!   address, and its named-port table.
//!
//! A verdict is then two slice walks and a few bitset probes, and the batch
//! [`allowed_sources`](PolicyIndex::allowed_sources) computes a whole
//! destination column of the reachability matrix in one pass. The index is
//! cached inside [`Cluster`] behind a generation counter
//! and rebuilt only after a mutation; results are bit-for-bit identical to
//! the naive engine (property-tested in `tests/prop_netpol.rs`).

use crate::cluster::Cluster;
use crate::netpol::{parse_cidr, AllowReason, ConnectionVerdict};
use ij_model::{
    LabelInterner, LabelSet, NetworkPolicy, PolicyPort, PolicyType, Protocol, SelectorMatcher,
};
use std::collections::HashMap;

/// A fixed-size set of pod indices, one bit per running pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodSet {
    bits: Vec<u64>,
    len: usize,
}

impl PodSet {
    /// The empty set over `len` pods.
    pub(crate) fn empty(len: usize) -> Self {
        PodSet {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over `len` pods.
    pub(crate) fn full(len: usize) -> Self {
        let mut set = PodSet::empty(len);
        for (i, word) in set.bits.iter_mut().enumerate() {
            let remaining = len - i * 64;
            *word = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        set
    }

    /// Adds a pod.
    ///
    /// `i` must be below the number of pods the set ranges over. Unlike
    /// [`contains`](Self::contains) — which answers `false` for any
    /// out-of-range index — inserting out of range would either corrupt a
    /// phantom slack bit of the last word (breaking [`ones`](Self::ones)
    /// and the block-at-a-time kernels) or panic on the word index, so the
    /// bound is asserted up front in debug builds.
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(
            i < self.len,
            "insert({i}) out of range for capacity {}",
            self.len
        );
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Removes a pod. Like [`insert`](Self::insert), `i` must be below the
    /// number of pods the set ranges over (asserted in debug builds).
    pub(crate) fn remove(&mut self, i: usize) {
        debug_assert!(
            i < self.len,
            "remove({i}) out of range for capacity {}",
            self.len
        );
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test. Out-of-range indices are simply not members (the
    /// query form stays total; only the mutators assert their bounds).
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// In-place union, one `u64` block at a time. Both sets must range over
    /// the same pod count: a silent `zip` over mismatched word vectors
    /// would truncate the longer operand, so the capacities are asserted in
    /// debug builds (as in every other binary kernel here).
    pub(crate) fn union_with(&mut self, other: &PodSet) {
        debug_assert_eq!(self.len, other.len, "capacity mismatch in union_with");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// In-place intersection, one `u64` block at a time. Capacities must
    /// agree (asserted in debug builds).
    pub(crate) fn intersect_with(&mut self, other: &PodSet) {
        debug_assert_eq!(self.len, other.len, "capacity mismatch in intersect_with");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`), one `u64` block at a time.
    /// Capacities must agree (asserted in debug builds).
    pub(crate) fn difference_with(&mut self, other: &PodSet) {
        debug_assert_eq!(self.len, other.len, "capacity mismatch in difference_with");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// Iterates member indices in ascending order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// A compiled ingress/egress rule: the peers resolved to a pod bitset, the
/// port list kept for per-destination resolution of named ports.
#[derive(Debug, Clone)]
struct CompiledRule {
    /// Pods admitted as peers (`from` for ingress, `to` for egress).
    peer_pods: PodSet,
    /// Allowed ports; empty allows all.
    ports: Vec<PolicyPort>,
}

/// One compiled NetworkPolicy.
#[derive(Debug, Clone)]
struct CompiledPolicy {
    /// Pods the policy selects (same namespace + pod selector).
    matched: PodSet,
    applies_ingress: bool,
    applies_egress: bool,
    ingress: Vec<CompiledRule>,
    egress: Vec<CompiledRule>,
}

/// Per-pod data needed at verdict time.
#[derive(Debug, Clone)]
struct PodEntry {
    name: String,
    host_network: bool,
    /// Pod IP as an integer, ready for ipBlock masks.
    ip: u32,
    /// First-wins named container ports, matching
    /// [`ij_model::Pod::resolve_port_name`].
    named_ports: Vec<(String, u16)>,
}

/// A compiled ipBlock peer; malformed CIDRs never match.
#[derive(Debug, Clone)]
struct CompiledIpBlock {
    cidr: Option<(u32, u32)>,
    except: Vec<Option<(u32, u32)>>,
}

impl CompiledIpBlock {
    fn admits(&self, ip: u32) -> bool {
        let Some((net, mask)) = self.cidr else {
            return false;
        };
        if (ip & mask) != (net & mask) {
            return false;
        }
        !self
            .except
            .iter()
            .any(|e| matches!(e, Some((net, mask)) if (ip & mask) == (net & mask)))
    }
}

/// A compiled `from`/`to` peer.
#[derive(Debug, Clone)]
struct CompiledPeer {
    pod_selector: Option<SelectorMatcher>,
    namespace_selector: Option<SelectorMatcher>,
    ip_block: Option<CompiledIpBlock>,
}

/// The compiled policy index over one snapshot of a cluster.
///
/// Obtained from [`Cluster::policy_index`] (cached per generation). Pod
/// indices follow [`Cluster::pods`] order.
///
/// ```
/// use ij_cluster::{Cluster, ClusterConfig, ConnectionVerdict};
/// use ij_model::Protocol;
///
/// // A web pod declaring 8080, a client, and a policy allowing only
/// // ingress to the web pod on its declared port.
/// let manifests = "\
/// apiVersion: v1
/// kind: Pod
/// metadata:
///   name: web
///   labels:
///     app: web
/// spec:
///   containers:
///     - name: c
///       image: img/web
///       ports:
///         - containerPort: 8080
/// ---
/// apiVersion: v1
/// kind: Pod
/// metadata:
///   name: client
/// spec:
///   containers:
///     - name: c
///       image: img/client
/// ---
/// apiVersion: networking.k8s.io/v1
/// kind: NetworkPolicy
/// metadata:
///   name: web-8080
/// spec:
///   podSelector:
///     matchLabels:
///       app: web
///   policyTypes:
///     - Ingress
///   ingress:
///     - ports:
///         - port: 8080
/// ";
///
/// let mut cluster = Cluster::new(ClusterConfig::default());
/// for object in ij_model::decode_manifests(manifests).unwrap() {
///     cluster.apply(object).unwrap();
/// }
/// cluster.reconcile();
///
/// let index = cluster.policy_index(); // Arc-cached until the next mutation
/// let client = index.pod_index("default/client").unwrap();
/// let web = index.pod_index("default/web").unwrap();
/// assert!(matches!(
///     index.verdict(client, web, 8080, Protocol::Tcp),
///     ConnectionVerdict::Allowed(_)
/// ));
/// assert_eq!(
///     index.verdict(client, web, 9999, Protocol::Tcp),
///     ConnectionVerdict::DeniedIngress
/// );
/// // Batch form: one whole column of the reachability matrix.
/// assert!(index.allowed_sources(web, 8080, Protocol::Tcp).contains(client));
/// ```
#[derive(Debug, Clone)]
pub struct PolicyIndex {
    pods: Vec<PodEntry>,
    by_name: HashMap<String, usize>,
    policies: Vec<CompiledPolicy>,
    /// Per pod: indices of policies selecting it for ingress.
    ingress_of: Vec<Vec<u32>>,
    /// Per pod: indices of policies selecting it for egress.
    egress_of: Vec<Vec<u32>>,
    /// Pods with at least one egress policy and not on the host network —
    /// the only sources the batch pass must re-check individually.
    egress_constrained: PodSet,
}

/// Namespace intern table: name → dense id, plus the interned label set of
/// each namespace (declared labels + the implicit
/// `kubernetes.io/metadata.name`, as since v1.22).
#[derive(Debug, Default)]
struct NamespaceTable {
    ids: HashMap<String, usize>,
    sets: Vec<LabelSet>,
}

impl NamespaceTable {
    fn id(
        &mut self,
        ns: &str,
        declared: &HashMap<String, ij_model::Labels>,
        interner: &mut LabelInterner,
    ) -> usize {
        if let Some(&id) = self.ids.get(ns) {
            return id;
        }
        let mut labels = declared.get(ns).cloned().unwrap_or_default();
        labels.insert("kubernetes.io/metadata.name", ns);
        let id = self.sets.len();
        self.sets.push(interner.intern(&labels));
        self.ids.insert(ns.to_string(), id);
        id
    }
}

impl PolicyIndex {
    /// Compiles the cluster's current policies and pods.
    pub(crate) fn build(cluster: &Cluster) -> Self {
        let mut interner = LabelInterner::new();
        let pods_src = cluster.pods();
        let n = pods_src.len();

        let declared_ns: HashMap<String, ij_model::Labels> =
            cluster.namespace_labels().into_iter().collect();
        let mut namespaces = NamespaceTable::default();

        let mut pod_ns: Vec<usize> = Vec::with_capacity(n);
        let mut pod_labels: Vec<LabelSet> = Vec::with_capacity(n);
        let mut pods: Vec<PodEntry> = Vec::with_capacity(n);
        let mut by_name = HashMap::with_capacity(n);
        for (i, rp) in pods_src.iter().enumerate() {
            pod_ns.push(namespaces.id(&rp.pod.meta.namespace, &declared_ns, &mut interner));
            pod_labels.push(interner.intern(&rp.pod.meta.labels));
            let mut named_ports: Vec<(String, u16)> = Vec::new();
            for (_, port) in rp.pod.declared_ports() {
                if let Some(name) = &port.name {
                    if !named_ports.iter().any(|(n, _)| n == name) {
                        named_ports.push((name.clone(), port.container_port));
                    }
                }
            }
            let entry = PodEntry {
                name: rp.qualified_name(),
                host_network: rp.pod.spec.host_network,
                ip: u32::from(rp.ip),
                named_ports,
            };
            by_name.insert(entry.name.clone(), i);
            pods.push(entry);
        }

        // Resolve every policy namespace up front so the namespace table is
        // final before rule compilation reads its label sets.
        let policy_refs = cluster.network_policies();
        let policy_ns_ids: Vec<usize> = policy_refs
            .iter()
            .map(|np| namespaces.id(&np.meta.namespace, &declared_ns, &mut interner))
            .collect();
        let mut policies = Vec::with_capacity(policy_refs.len());
        for (np, &policy_ns) in policy_refs.iter().copied().zip(&policy_ns_ids) {
            policies.push(Self::compile_policy(
                np,
                policy_ns,
                &mut interner,
                &pods,
                &pod_ns,
                &pod_labels,
                &namespaces.sets,
            ));
        }

        let mut ingress_of = vec![Vec::new(); n];
        let mut egress_of = vec![Vec::new(); n];
        for (pi, policy) in policies.iter().enumerate() {
            for pod in policy.matched.ones() {
                if policy.applies_ingress {
                    ingress_of[pod].push(pi as u32);
                }
                if policy.applies_egress {
                    egress_of[pod].push(pi as u32);
                }
            }
        }
        // Egress-constrained = has-egress-policy \ host-network, as one
        // block-wise difference.
        let mut egress_constrained = PodSet::empty(n);
        let mut host_net = PodSet::empty(n);
        for i in 0..n {
            if !egress_of[i].is_empty() {
                egress_constrained.insert(i);
            }
            if pods[i].host_network {
                host_net.insert(i);
            }
        }
        egress_constrained.difference_with(&host_net);

        PolicyIndex {
            pods,
            by_name,
            policies,
            ingress_of,
            egress_of,
            egress_constrained,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_policy(
        np: &NetworkPolicy,
        policy_ns: usize,
        interner: &mut LabelInterner,
        pods: &[PodEntry],
        pod_ns: &[usize],
        pod_labels: &[LabelSet],
        ns_label_sets: &[LabelSet],
    ) -> CompiledPolicy {
        let n = pods.len();
        let selector = SelectorMatcher::compile(&np.spec.pod_selector, interner);
        let mut matched = PodSet::empty(n);
        for i in 0..n {
            if pod_ns[i] == policy_ns && selector.matches(&pod_labels[i]) {
                matched.insert(i);
            }
        }

        let mut compile_rules = |rules: &[ij_model::NetworkPolicyRule]| -> Vec<CompiledRule> {
            rules
                .iter()
                .map(|rule| {
                    let peer_pods = if rule.peers.is_empty() {
                        PodSet::full(n)
                    } else {
                        let compiled: Vec<CompiledPeer> = rule
                            .peers
                            .iter()
                            .map(|peer| CompiledPeer {
                                pod_selector: peer
                                    .pod_selector
                                    .as_ref()
                                    .map(|s| SelectorMatcher::compile(s, interner)),
                                namespace_selector: peer
                                    .namespace_selector
                                    .as_ref()
                                    .map(|s| SelectorMatcher::compile(s, interner)),
                                ip_block: peer.ip_block.as_ref().map(|b| CompiledIpBlock {
                                    cidr: parse_cidr(&b.cidr),
                                    except: b.except.iter().map(|e| parse_cidr(e)).collect(),
                                }),
                            })
                            .collect();
                        let mut set = PodSet::empty(n);
                        for i in 0..n {
                            let admitted = compiled.iter().any(|peer| {
                                if let Some(block) = &peer.ip_block {
                                    if block.admits(pods[i].ip) {
                                        return true;
                                    }
                                }
                                // A host-network peer presents the node IP;
                                // pod selectors never match it.
                                if pods[i].host_network {
                                    return false;
                                }
                                match (&peer.pod_selector, &peer.namespace_selector) {
                                    (None, None) => peer.ip_block.is_none(),
                                    (Some(ps), None) => {
                                        pod_ns[i] == policy_ns && ps.matches(&pod_labels[i])
                                    }
                                    (None, Some(ns)) => ns.matches(&ns_label_sets[pod_ns[i]]),
                                    (Some(ps), Some(ns)) => {
                                        ns.matches(&ns_label_sets[pod_ns[i]])
                                            && ps.matches(&pod_labels[i])
                                    }
                                }
                            });
                            if admitted {
                                set.insert(i);
                            }
                        }
                        set
                    };
                    CompiledRule {
                        peer_pods,
                        ports: rule.ports.clone(),
                    }
                })
                .collect()
        };

        CompiledPolicy {
            matched,
            applies_ingress: np.applies_to(PolicyType::Ingress),
            applies_egress: np.applies_to(PolicyType::Egress),
            ingress: compile_rules(&np.spec.ingress),
            egress: compile_rules(&np.spec.egress),
        }
    }

    /// Number of running pods the index covers.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Index of a pod by qualified `namespace/name`.
    pub fn pod_index(&self, qualified: &str) -> Option<usize> {
        self.by_name.get(qualified).copied()
    }

    /// Qualified name of the pod at `index`.
    pub fn pod_name(&self, index: usize) -> &str {
        &self.pods[index].name
    }

    fn ports_cover(&self, ports: &[PolicyPort], dst: usize, port: u16, protocol: Protocol) -> bool {
        if ports.is_empty() {
            return true;
        }
        let named = &self.pods[dst].named_ports;
        let resolve =
            |name: &str| -> Option<u16> { named.iter().find(|(n, _)| n == name).map(|(_, p)| *p) };
        ports.iter().any(|p| p.covers(port, protocol, &resolve))
    }

    fn ingress_allows(
        &self,
        policy: u32,
        src: usize,
        dst: usize,
        port: u16,
        protocol: Protocol,
    ) -> bool {
        self.policies[policy as usize]
            .ingress
            .iter()
            .any(|r| r.peer_pods.contains(src) && self.ports_cover(&r.ports, dst, port, protocol))
    }

    fn egress_allows(&self, policy: u32, dst: usize, port: u16, protocol: Protocol) -> bool {
        self.policies[policy as usize]
            .egress
            .iter()
            .any(|r| r.peer_pods.contains(dst) && self.ports_cover(&r.ports, dst, port, protocol))
    }

    /// Evaluates whether the pod at `src` may connect to the pod at `dst` on
    /// `(port, protocol)`. Identical to
    /// [`PolicyEngine::verdict`](crate::PolicyEngine::verdict) over the same
    /// cluster state.
    pub fn verdict(
        &self,
        src: usize,
        dst: usize,
        port: u16,
        protocol: Protocol,
    ) -> ConnectionVerdict {
        // M7: a destination on the host network is never policy-protected.
        if self.pods[dst].host_network {
            return ConnectionVerdict::Allowed(AllowReason::HostNetworkBypass);
        }
        let ingress = &self.ingress_of[dst];
        // Egress enforcement applies to the source — unless the source is on
        // the host network, where its traffic never hits the pod datapath.
        let egress: &[u32] = if self.pods[src].host_network {
            &[]
        } else {
            &self.egress_of[src]
        };
        if !ingress.is_empty()
            && !ingress
                .iter()
                .any(|&p| self.ingress_allows(p, src, dst, port, protocol))
        {
            return ConnectionVerdict::DeniedIngress;
        }
        if !egress.is_empty()
            && !egress
                .iter()
                .any(|&p| self.egress_allows(p, dst, port, protocol))
        {
            return ConnectionVerdict::DeniedEgress;
        }
        if ingress.is_empty() && egress.is_empty() {
            ConnectionVerdict::Allowed(AllowReason::DefaultAllow)
        } else {
            ConnectionVerdict::Allowed(AllowReason::PolicyRuleMatch)
        }
    }

    /// The whole source column of the reachability matrix for one
    /// destination socket: bit `i` is set iff pod `i` may connect to `dst`
    /// on `(port, protocol)` under the current policies. Equal to running
    /// [`verdict`](Self::verdict) for every source.
    pub fn allowed_sources(&self, dst: usize, port: u16, protocol: Protocol) -> PodSet {
        let n = self.pods.len();
        // M7: a host-network destination bypasses enforcement entirely —
        // the verdict short-circuits before even consulting egress.
        if self.pods[dst].host_network {
            return PodSet::full(n);
        }
        let mut allowed = if self.ingress_of[dst].is_empty() {
            PodSet::full(n)
        } else {
            let mut set = PodSet::empty(n);
            for &p in &self.ingress_of[dst] {
                for rule in &self.policies[p as usize].ingress {
                    if self.ports_cover(&rule.ports, dst, port, protocol) {
                        set.union_with(&rule.peer_pods);
                    }
                }
            }
            set
        };
        // Only sources that are both ingress-admitted *and* egress-
        // constrained need the per-source rule walk; the block-wise
        // intersection prunes the candidate list before any rule is read.
        let mut candidates = self.egress_constrained.clone();
        candidates.intersect_with(&allowed);
        for src in candidates.ones() {
            if !self.egress_of[src]
                .iter()
                .any(|&p| self.egress_allows(p, dst, port, protocol))
            {
                allowed.remove(src);
            }
        }
        allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::BehaviorRegistry;
    use crate::cluster::{Cluster, ClusterConfig};
    use ij_model::{
        Container, ContainerPort, LabelSelector, Labels, NetworkPolicy, Object, ObjectMeta, Pod,
        PodSpec,
    };

    type PodSpecTuple<'a> = (&'a str, &'a [(&'a str, &'a str)], bool);

    fn cluster_with_pods(specs: &[PodSpecTuple<'_>]) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            seed: 1,
            behaviors: BehaviorRegistry::new(),
        });
        for (name, labels, host) in specs {
            cluster
                .apply(Object::Pod(Pod::new(
                    ObjectMeta::named(*name)
                        .with_labels(Labels::from_pairs(labels.iter().copied())),
                    PodSpec {
                        containers: vec![Container::new("c", "img")
                            .with_ports(vec![ContainerPort::named("http", 8080)])],
                        host_network: *host,
                        node_name: None,
                    },
                )))
                .unwrap();
        }
        cluster.reconcile();
        cluster
    }

    #[test]
    fn podset_full_and_ones() {
        let full = PodSet::full(70);
        assert_eq!(full.ones().count(), 70);
        assert!(full.contains(69));
        assert!(!full.contains(70));
        let mut set = PodSet::empty(70);
        set.insert(0);
        set.insert(64);
        set.insert(69);
        assert_eq!(set.ones().collect::<Vec<_>>(), vec![0, 64, 69]);
        set.remove(64);
        assert_eq!(set.ones().count(), 2);
    }

    #[test]
    fn podset_block_kernels_match_per_bit_ops() {
        // 130 pods = two full words plus a partial third, so every kernel
        // crosses word boundaries and touches the slack bits.
        let n = 130;
        let mut a = PodSet::empty(n);
        let mut b = PodSet::empty(n);
        for i in (0..n).step_by(3) {
            a.insert(i);
        }
        for i in (0..n).step_by(5) {
            b.insert(i);
        }
        let expect = |f: fn(usize) -> bool| (0..n).filter(|&i| f(i)).collect::<Vec<_>>();

        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.ones().collect::<Vec<_>>(), expect(|i| i % 15 == 0));

        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(
            diff.ones().collect::<Vec<_>>(),
            expect(|i| i % 3 == 0 && i % 5 != 0)
        );

        let mut union = a.clone();
        union.union_with(&b);
        assert_eq!(
            union.ones().collect::<Vec<_>>(),
            expect(|i| i % 3 == 0 || i % 5 == 0)
        );

        // Slack bits stay zero through every kernel, so the words'
        // popcounts agree with the members.
        assert_eq!(
            union
                .bits
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            union.ones().count()
        );
    }

    #[test]
    fn podset_contains_is_total_but_mutators_are_bounded() {
        // The query form answers `false` out of range...
        let set = PodSet::full(70);
        assert!(set.contains(69));
        assert!(!set.contains(70));
        assert!(!set.contains(1 << 20));
        // ...and in-range mutation round-trips.
        let mut set = PodSet::empty(70);
        set.insert(69);
        assert!(set.contains(69));
        set.remove(69);
        assert_eq!(set.ones().count(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range for capacity 70")]
    fn podset_insert_rejects_slack_bits_in_debug() {
        // Index 70 lands inside the second word's slack region — without
        // the bound assert it would silently corrupt `count()`.
        PodSet::empty(70).insert(70);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range for capacity 70")]
    fn podset_remove_rejects_out_of_range_in_debug() {
        PodSet::full(70).remove(75);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn podset_set_ops_reject_capacity_mismatch_in_debug() {
        // A silent zip would truncate the longer operand instead.
        PodSet::full(70).union_with(&PodSet::full(130));
    }

    #[test]
    fn matched_bitset_tracks_selector() {
        let mut cluster = cluster_with_pods(&[
            ("web", &[("app", "web")], false),
            ("db", &[("app", "db")], false),
        ]);
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ObjectMeta::named("lock-db"),
                LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
            )))
            .unwrap();
        let index = PolicyIndex::build(&cluster);
        assert_eq!(index.policies.len(), 1);
        let db = index.pod_index("default/db").unwrap();
        let web = index.pod_index("default/web").unwrap();
        assert!(index.policies[0].matched.contains(db));
        assert!(!index.policies[0].matched.contains(web));
        assert_eq!(
            index.verdict(web, db, 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
        assert!(index.verdict(db, web, 8080, Protocol::Tcp).is_allowed());
    }

    #[test]
    fn allowed_sources_matches_per_pair_verdicts() {
        let mut cluster = cluster_with_pods(&[
            ("api", &[("app", "api")], false),
            ("db", &[("app", "db")], false),
            ("other", &[("app", "other")], false),
            ("exporter", &[("app", "exporter")], true),
        ]);
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::allow_ingress(
                ObjectMeta::named("allow-api"),
                LabelSelector::from_labels(Labels::from_pairs([("app", "db")])),
                vec![ij_model::NetworkPolicyPeer::pods(
                    LabelSelector::from_labels(Labels::from_pairs([("app", "api")])),
                )],
                vec![ij_model::PolicyPort::tcp(8080)],
            )))
            .unwrap();
        let index = PolicyIndex::build(&cluster);
        for dst in 0..index.pod_count() {
            for port in [8080u16, 9999] {
                let column = index.allowed_sources(dst, port, Protocol::Tcp);
                for src in 0..index.pod_count() {
                    assert_eq!(
                        column.contains(src),
                        index.verdict(src, dst, port, Protocol::Tcp).is_allowed(),
                        "src={src} dst={dst} port={port}"
                    );
                }
            }
        }
    }
}
