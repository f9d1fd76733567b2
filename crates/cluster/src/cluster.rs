//! The cluster facade: API server, controllers, scheduler, data plane.

use crate::admission::{AdmissionController, AdmissionOutcome, AdmissionReview};
use crate::behavior::{BehaviorRegistry, ContainerBehavior, PortSpec};
use crate::dirty::{DirtyEntry, DirtyLog, DirtyScope, DirtySummary, DIRTY_LOG_CAP};
use crate::index::PolicyIndex;
use crate::netpol::ConnectionVerdict;
use crate::node::Node;
use crate::release_index::{release_name, remap_positions, ReleaseIndex};
use crate::slots::{Live, Slots};
use ij_chart::RenderedRelease;
use ij_model::{
    EndpointAddress, Endpoints, Labels, NetworkPolicy, Object, ObjectMeta, Pod, Protocol, Service,
    TargetPort, WorkloadKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Seed for all randomness (ephemeral port draws).
    pub seed: u64,
    /// Container behaviour registry.
    pub behaviors: BehaviorRegistry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            seed: 42,
            behaviors: BehaviorRegistry::new(),
        }
    }
}

/// A socket held open by a container, as the ground truth the probe observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSocket {
    /// Port number.
    pub port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Bound to the loopback adapter only (unreachable from the cluster).
    pub loopback_only: bool,
    /// Drawn from the ephemeral range at container start.
    pub ephemeral: bool,
}

/// A scheduled, started pod.
#[derive(Debug, Clone)]
pub struct RunningPod {
    /// The pod object (labels, spec, …).
    pub pod: Pod,
    /// Node the pod runs on.
    pub node: String,
    /// Pod IP — a flat-network address, or the node IP for hostNetwork pods.
    pub ip: Ipv4Addr,
    /// Sockets currently open inside the pod's network namespace.
    pub sockets: Vec<OpenSocket>,
    /// Qualified name of the owning workload, if any.
    pub owner: Option<String>,
}

impl RunningPod {
    /// Qualified `namespace/name`.
    pub fn qualified_name(&self) -> String {
        self.pod.meta.qualified_name()
    }

    /// True when a cluster-reachable socket is open on `(port, protocol)`.
    pub fn listens_on(&self, port: u16, protocol: Protocol) -> bool {
        self.sockets
            .iter()
            .any(|s| s.port == port && s.protocol == protocol && !s.loopback_only)
    }
}

/// Why an install failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// An admission controller rejected an object.
    Denied {
        /// Controller that rejected.
        controller: String,
        /// Rejection reason.
        reason: String,
        /// Qualified name of the rejected object.
        object: String,
    },
    /// A live object of the same kind, namespace and name has another
    /// release: Helm's "exists and cannot be imported into the release".
    Conflict {
        /// Kind and qualified name of the live object.
        object: String,
        /// The live object's release, `None` when it has none.
        owner: Option<String>,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Denied {
                controller,
                reason,
                object,
            } => {
                write!(
                    f,
                    "admission controller `{controller}` denied `{object}`: {reason}"
                )
            }
            InstallError::Conflict { object, owner } => match owner {
                Some(owner) => write!(f, "`{object}` exists and belongs to release `{owner}`"),
                None => write!(f, "`{object}` exists and belongs to no release"),
            },
        }
    }
}

impl std::error::Error for InstallError {}

/// Result of a simulated connection attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectOutcome {
    /// TCP handshake (or UDP delivery) succeeded.
    Connected,
    /// Policy allowed the packet but nothing listens there.
    Refused,
    /// Dropped by the destination's ingress policy.
    DeniedIngress,
    /// Dropped by the source's egress policy.
    DeniedEgress,
}

/// Annotation key the installer stamps onto release objects.
pub const RELEASE_ANNOTATION: &str = "inside-job/release";

/// The cluster simulator. Like an API server, it keeps one object per
/// (kind, namespace, name): see [`Cluster::apply`].
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<Node>,
    /// Objects in apply order, with tombstones where removed ones were.
    objects: Slots<Object>,
    /// Running pods in start order, with tombstones where reaped ones were.
    pods: Slots<RunningPod>,
    admission: Vec<Box<dyn AdmissionController>>,
    rng: StdRng,
    pod_ips: AddressPool,
    cluster_ips: AddressPool,
    /// Bumped on every mutation of objects or pods; the policy-index cache
    /// key.
    generation: u64,
    /// Bounded ring of per-generation dirty entries backing
    /// [`Cluster::dirty_since`].
    dirty: DirtyLog,
    /// Cached compiled [`PolicyIndex`] for [`Cluster::policy_index`],
    /// tagged with the generation it was built at.
    index_cache: Mutex<Option<(u64, Arc<PolicyIndex>)>>,
    /// Positions of the workloads and bare pods applied or scaled since the
    /// last [`Cluster::reconcile`], which expands each of them, and of the
    /// services committed while the ClusterIP pool was spent, which it
    /// gives an address. An object stays here while one of its pods cannot
    /// be scheduled, or while no address is free, and leaves when it is
    /// removed.
    pending: Vec<usize>,
    /// Where each release's objects, each name's objects and each running
    /// pod sit; patched by every mutation, never rebuilt.
    release_index: ReleaseIndex,
}

impl Cluster {
    /// Boots a cluster. A zero-node config is honoured: pods stay Pending
    /// until nodes exist, they never crash the control loop.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.nodes).map(Node::new).collect();
        let rng = StdRng::seed_from_u64(config.seed);
        Cluster {
            config,
            nodes,
            objects: Slots::default(),
            pods: Slots::default(),
            admission: Vec::new(),
            rng,
            pod_ips: AddressPool::new([10, 244], POOL_CAPACITY),
            cluster_ips: AddressPool::new([10, 96], POOL_CAPACITY),
            generation: 0,
            dirty: DirtyLog::new(0, DIRTY_LOG_CAP),
            index_cache: Mutex::new(None),
            pending: Vec::new(),
            release_index: ReleaseIndex::default(),
        }
    }

    /// Installs an admission controller at the end of the chain.
    pub fn push_admission(&mut self, controller: Box<dyn AdmissionController>) {
        self.admission.push(controller);
    }

    /// Worker nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Marks the cluster mutated: bumps the generation (so the next
    /// [`Cluster::policy_index`] call recompiles) and records what the
    /// mutation touched for [`Cluster::dirty_since`].
    fn touch(&mut self, entry: DirtyEntry) {
        self.generation = self.generation.wrapping_add(1);
        self.dirty.record(entry);
    }

    /// The current mutation generation. Any change to objects or pods bumps
    /// it; equal generations guarantee an identical policy index.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Summarizes everything that changed since `cursor` — a generation
    /// previously returned by [`Cluster::generation`]. The backing log is a
    /// bounded ring ([`DIRTY_LOG_CAP`] entries): cursors that fell off its
    /// horizon yield a conservative everything-dirty summary, so incremental consumers degrade to a full
    /// recompute instead of ever missing a change.
    pub fn dirty_since(&self, cursor: u64) -> DirtySummary {
        self.dirty.summary_since(cursor, self.generation)
    }

    /// Registers (or replaces) a container behaviour at runtime. Serve-mode
    /// tenants register application behaviours as releases come and go;
    /// already-running pods keep their sockets until restarted.
    pub fn register_behavior(&mut self, image: impl Into<String>, behavior: ContainerBehavior) {
        self.config.behaviors.register(image, behavior);
    }

    /// The compiled policy index for the cluster's current state.
    ///
    /// The index is built on first use and cached until the next mutation
    /// (generation bump); repeated probes — the census hot path — share one
    /// compilation. The returned [`Arc`] stays valid (as a snapshot) even
    /// if the cluster mutates afterwards.
    pub fn policy_index(&self) -> Arc<PolicyIndex> {
        let mut cache = self.index_cache.lock().expect("index cache poisoned");
        if let Some((generation, index)) = &*cache {
            if *generation == self.generation {
                return Arc::clone(index);
            }
        }
        let index = Arc::new(PolicyIndex::build(self));
        *cache = Some((self.generation, Arc::clone(&index)));
        index
    }

    /// All persisted objects, in apply order.
    pub fn objects(&self) -> Live<'_, Object> {
        self.objects.view()
    }

    /// Running pods, in start order.
    pub fn pods(&self) -> Live<'_, RunningPod> {
        self.pods.view()
    }

    /// The objects of one release, in apply order: those whose
    /// [`RELEASE_ANNOTATION`] is `release`, or with `None` those without
    /// one. Served from the release index, so the cost follows the
    /// release's size, not the cluster's.
    pub fn release_objects<'a>(
        &'a self,
        release: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Object> + 'a {
        self.release_index
            .release(&self.objects, release)
            .map(|pos| &self.objects[pos])
    }

    /// The running pod with a qualified name.
    pub fn pod(&self, qualified: &str) -> Option<&RunningPod> {
        let (namespace, name) = split_qualified(qualified);
        self.release_index
            .pod(&self.pods, namespace, name)
            .map(|pos| &self.pods[pos])
    }

    /// The service named `namespace/name`.
    fn service(&self, namespace: &str, name: &str) -> Option<&Service> {
        self.release_index
            .named(&self.objects, namespace, name)
            .find_map(|pos| match &self.objects[pos] {
                Object::Service(s) => Some(s),
                _ => None,
            })
    }

    /// Persisted services.
    pub fn services(&self) -> impl Iterator<Item = &Service> {
        self.objects.iter().filter_map(|o| match o {
            Object::Service(s) => Some(s),
            _ => None,
        })
    }

    /// Persisted network policies.
    pub fn network_policies(&self) -> Vec<&NetworkPolicy> {
        self.objects
            .iter()
            .filter_map(|o| match o {
                Object::NetworkPolicy(n) => Some(n),
                _ => None,
            })
            .collect()
    }

    /// Namespace labels declared via Namespace objects.
    pub fn namespace_labels(&self) -> Vec<(String, Labels)> {
        self.objects
            .iter()
            .filter_map(|o| match o {
                Object::Namespace(m) => Some((m.name.clone(), m.labels.clone())),
                _ => None,
            })
            .collect()
    }

    /// Applies one object through the admission chain. It replaces the live
    /// object of its kind, namespace and name in place when both carry the
    /// same [`RELEASE_ANNOTATION`] or neither does; else [`InstallError::Conflict`].
    /// A denied or conflicting object changes nothing; an applied one shows
    /// in [`Cluster::objects`] and dirties its release for
    /// [`Cluster::dirty_since`].
    pub fn apply(&mut self, object: Object) -> Result<Vec<String>, InstallError> {
        let (end, mut replaced) = (self.objects.end(), Vec::new());
        let warnings = self.admit(object, end, &mut replaced)?;
        self.commit(end, replaced);
        Ok(warnings)
    }

    /// [`apply`](Self::apply) up to its [`commit`](Self::commit): installs
    /// commit their objects in one batch, so the ones at `uncommitted..`
    /// are searched too. An object from before `uncommitted` that is
    /// replaced for the first time goes on `undo` with its position.
    fn admit(
        &mut self,
        mut object: Object,
        uncommitted: usize,
        undo: &mut Vec<(usize, Object)>,
    ) -> Result<Vec<String>, InstallError> {
        let (kind, meta) = (object.kind(), object.meta());
        let live = self
            .release_index
            .named(&self.objects, &meta.namespace, &meta.name)
            .chain(uncommitted..self.objects.end())
            .find(|&pos| {
                let (o, m) = (&self.objects[pos], self.objects[pos].meta());
                o.kind() == kind && m.name == meta.name && m.namespace == meta.namespace
            });
        let owner = live.map(|pos| release_name(&self.objects[pos]));
        if owner.is_some_and(|owner| owner != release_name(&object)) {
            let object = format!("{kind} {}/{}", meta.namespace, meta.name);
            let owner = owner.flatten().map(Into::into);
            return Err(InstallError::Conflict { object, owner });
        }
        let mut warnings = Vec::new();
        for controller in &self.admission {
            let review = AdmissionReview {
                object: &object,
                existing: self.objects.view(),
            };
            match controller.review(&review) {
                AdmissionOutcome::Allow => {}
                AdmissionOutcome::Warn(mut w) => warnings.append(&mut w),
                AdmissionOutcome::Deny(reason) => {
                    return Err(InstallError::Denied {
                        controller: controller.name().to_string(),
                        reason,
                        object: object.qualified_name(),
                    });
                }
            }
        }
        // A replaced service's ClusterIP carries over; new ones get theirs
        // at commit.
        if let (Object::Service(s), Some(pos)) = (&mut object, live) {
            s.spec.cluster_ip = service_ip(&self.objects[pos]).filter(|_| !s.is_headless());
        }
        let scope = self.dirty.scope(release_name(&object));
        // Policies change verdicts and per-app policy rules, but not the
        // labelled object sets cluster-wide label analysis consumes.
        let labels = !matches!(object, Object::NetworkPolicy(_));
        if definer_meta(&object).is_some() {
            self.pending.push(live.unwrap_or(self.objects.end()));
        }
        if let Some(pos) = live {
            let old = std::mem::replace(&mut self.objects[pos], object);
            if pos < uncommitted && !undo.iter().any(|&(at, _)| at == pos) {
                undo.push((pos, old));
            }
        } else {
            self.objects.push(object);
        }
        self.touch(DirtyEntry { scope, labels });
        Ok(warnings)
    }

    /// Installs a release from its objects, taking each one: stamps it
    /// with a release annotation (so [`Cluster::uninstall`] can find it
    /// later), applies it, then reconciles. When an object is denied or
    /// conflicts, the applied ones are rolled back and the replaced ones
    /// restored (Helm-style atomic install); the rest are dropped. The census
    /// workers and the serve churn path move their rendered objects in, so
    /// an install allocates only what the cluster keeps.
    pub fn install_owned(
        &mut self,
        release_name: &str,
        objects: impl IntoIterator<Item = Object>,
    ) -> Result<Vec<String>, InstallError> {
        let objects = objects.into_iter();
        let (checkpoint, pending) = (self.objects.end(), self.pending.len());
        self.objects.reserve(objects.size_hint().0);
        let mut warnings = Vec::new();
        let mut undo = Vec::new();
        for mut obj in objects {
            obj.meta_mut()
                .annotations
                .insert(RELEASE_ANNOTATION.to_string(), release_name.to_string());
            match self.admit(obj, checkpoint, &mut undo) {
                Ok(mut w) => warnings.append(&mut w),
                Err(e) => {
                    // Restore what was replaced, then drop the appended
                    // objects; none of them was committed yet.
                    for (pos, old) in undo {
                        self.objects[pos] = old;
                    }
                    self.objects.truncate(checkpoint);
                    self.pending.truncate(pending);
                    self.touch(DirtyEntry::app(release_name, true));
                    return Err(e);
                }
            }
        }
        self.commit(checkpoint, undo);
        self.reconcile();
        Ok(warnings)
    }

    /// Ends an apply or install that appended the objects at `from..` and
    /// replaced the ones in `replaced`: indexes the appended ones, returns
    /// the ClusterIP of a replaced service to the pool unless its
    /// replacement holds it, and gives each non-headless service still
    /// without one the next free address. While the pool is spent, such a
    /// service goes on `pending` for [`Cluster::reconcile`] to retry.
    fn commit(&mut self, from: usize, replaced: Vec<(usize, Object)>) {
        self.release_index.add_objects(&self.objects, from);
        for (pos, old) in &replaced {
            let kept = service_ip(&self.objects[*pos]);
            if let Some(ip) = service_ip(old).filter(|&ip| kept != Some(ip)) {
                self.cluster_ips.release(ip);
            }
        }
        let replaced = replaced.into_iter().map(|(pos, _)| pos);
        for pos in replaced.chain(from..self.objects.end()) {
            self.assign_cluster_ip(pos);
        }
    }

    /// Gives the object at `pos`, if a non-headless service without a
    /// ClusterIP, the next free address, or puts it on `pending` while the
    /// pool is spent. True when it took one.
    fn assign_cluster_ip(&mut self, pos: usize) -> bool {
        match &mut self.objects[pos] {
            Object::Service(s) if !s.is_headless() && s.spec.cluster_ip.is_none() => {
                s.spec.cluster_ip = self.cluster_ips.allocate();
                if s.spec.cluster_ip.is_none() {
                    self.pending.push(pos);
                }
                s.spec.cluster_ip.is_some()
            }
            _ => false,
        }
    }

    /// [`install_owned`](Self::install_owned) from a copy of a rendered
    /// release.
    pub fn install(&mut self, release: &RenderedRelease) -> Result<Vec<String>, InstallError> {
        self.install_owned(&release.release_name, release.objects.iter().cloned())
    }

    /// [`install_owned`](Self::install_owned) from a copy of a borrowed
    /// object slice.
    pub fn install_objects(
        &mut self,
        release_name: &str,
        objects: &[Object],
    ) -> Result<Vec<String>, InstallError> {
        self.install_owned(release_name, objects.iter().cloned())
    }

    /// Uninstalls a release: removes every object stamped with its name
    /// (its services' ClusterIPs with them) and reaps the pods those
    /// objects defined, unless a remaining object still desires the same
    /// pod. Other releases are untouched, and are not visited: the
    /// release index yields the release's objects and the pods each of
    /// them may have expanded to, and their slots become tombstones (a
    /// compaction, once tombstones outnumber live slots, is amortized O(1)
    /// per removal). The release shows as dirty to [`Cluster::dirty_since`].
    pub fn uninstall(&mut self, release_name: &str) {
        let removed: Vec<usize> = self
            .release_index
            .release(&self.objects, Some(release_name))
            .collect();
        let mut reaped: Vec<usize> = Vec::new();
        for &pos in &removed {
            if let Some(meta) = definer_meta(&self.objects[pos]) {
                reaped.extend(self.release_index.pods_under(
                    &self.pods,
                    &meta.namespace,
                    &meta.name,
                ));
            }
        }
        if !removed.is_empty() {
            // `removed` is ascending (apply order).
            self.pending
                .retain(|pos| removed.binary_search(pos).is_err());
            for ip in removed
                .iter()
                .filter_map(|&pos| service_ip(&self.objects[pos]))
            {
                self.cluster_ips.release(ip);
            }
            if let Some(remap) = self
                .release_index
                .remove_objects(&mut self.objects, &removed)
            {
                remap_positions(&mut self.pending, remap, |pos| pos);
            }
        }
        reaped.sort_unstable();
        reaped.dedup();
        reaped.retain(|&pos| !self.desired(&self.pods[pos].pod.meta));
        self.reap(&reaped);
        self.touch(DirtyEntry::app(release_name, true));
    }

    /// True when some object desires the pod `pod`. Only an object named
    /// like the pod, or like a `-`-separated prefix of its name, can.
    fn desired(&self, pod: &ObjectMeta) -> bool {
        self.release_index
            .prefix_named(&self.objects, &pod.namespace, &pod.name)
            .any(|o| desires(o, &self.nodes, pod))
    }

    /// Takes the running pods at `positions` out, returning their
    /// addresses to the pool.
    fn reap(&mut self, positions: &[usize]) {
        for rp in positions.iter().map(|&pos| &self.pods[pos]) {
            self.pod_ips.release_pod(rp);
        }
        self.release_index.remove_pods(&mut self.pods, positions);
    }

    /// Runs the controller loop over the workloads and bare pods applied or
    /// scaled since the last call: expands each into pods (workloads first,
    /// then bare pods, each in object order), schedules and starts the
    /// missing ones —
    /// one pod per name: a name already running, or started by an object
    /// before it, is skipped — then reaps the running pods those names may
    /// have expanded to that no object desires any more (scale-downs). The
    /// release index answers every lookup, so objects and pods nobody
    /// touched are not visited and the cost follows the mutation, not the
    /// cluster. An object whose pods could not be scheduled (no worker
    /// nodes) stays pending and is retried by the next call. So does a
    /// service waiting for a ClusterIP: each call first gives it the lowest
    /// released address, if one is free. Idempotent.
    pub fn reconcile(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.pending);
        dirty.retain(|&pos| {
            let service = matches!(self.objects[pos], Object::Service(_));
            if service && self.assign_cluster_ip(pos) {
                let scope = self.dirty.scope(release_name(&self.objects[pos]));
                self.touch(DirtyEntry {
                    scope,
                    labels: false,
                });
            }
            !service
        });
        dirty.sort_unstable_by_key(|&pos| (!matches!(self.objects[pos], Object::Workload(_)), pos));
        dirty.dedup();
        // Pods started below take slots from here on.
        let running = self.pods.end();
        let starts: Vec<(usize, String)> = dirty
            .iter()
            .flat_map(|&pos| {
                let names = desired_pod_names(&self.objects[pos], &self.nodes);
                names.into_iter().map(move |name| (pos, name))
            })
            .collect();
        self.pods.reserve(starts.len());
        for (i, name) in starts {
            // One pod per name: a name already running, or started by an
            // object before this one (workloads come first), is skipped.
            let namespace = &self.objects[i].meta().namespace;
            let running = self.release_index.pod(&self.pods, namespace, &name);
            if running.is_some() {
                continue;
            }
            let (pod, owner) = match &self.objects[i] {
                Object::Workload(w) => (
                    Pod::new(
                        ObjectMeta {
                            name,
                            namespace: w.meta.namespace.clone(),
                            labels: w.template.labels.clone(),
                            annotations: Default::default(),
                        },
                        w.template.spec.clone(),
                    ),
                    Some(w.meta.qualified_name()),
                ),
                Object::Pod(p) => (p.clone(), None),
                _ => unreachable!("only workloads and bare pods are expanded"),
            };
            let scope = self.dirty.scope(release_name(&self.objects[i]));
            if !self.start_pod(pod, owner, scope) {
                self.pending.push(i);
            }
        }

        // Scale-down: a dirty object now desires fewer pods than are
        // running. Pods started above are desired by construction; older
        // ones are reaped only when no object at all desires them.
        let mut stale: Vec<usize> = Vec::new();
        for &pos in &dirty {
            let meta = self.objects[pos].meta();
            stale.extend(
                self.release_index
                    .pods_under(&self.pods, &meta.namespace, &meta.name)
                    .filter(|&pod| pod < running),
            );
        }
        stale.sort_unstable();
        stale.dedup();
        stale.retain(|&pos| !self.desired(&self.pods[pos].pod.meta));
        if stale.is_empty() {
            return;
        }
        let scopes: Vec<DirtyScope> = stale
            .iter()
            .map(|&pos| self.dirty.scope(self.release_of(&self.pods[pos])))
            .collect();
        self.reap(&stale);
        for scope in scopes {
            self.touch(DirtyEntry {
                scope,
                labels: false,
            });
        }
    }

    /// The release a running pod belongs to, resolved through its defining
    /// object: the owner workload, or the bare pod object itself, never
    /// another kind of object sharing its name.
    fn release_of<'a>(&'a self, rp: &'a RunningPod) -> Option<&'a str> {
        let (namespace, name) = match &rp.owner {
            Some(owner) => split_qualified(owner),
            None => (rp.pod.meta.namespace.as_str(), rp.pod.meta.name.as_str()),
        };
        self.release_index
            .named(&self.objects, namespace, name)
            .find(|&pos| match self.objects[pos] {
                Object::Workload(_) => rp.owner.is_some(),
                Object::Pod(_) => rp.owner.is_none(),
                _ => false,
            })
            .and_then(|pos| release_name(&self.objects[pos]))
            .or_else(|| {
                rp.pod
                    .meta
                    .annotations
                    .get(RELEASE_ANNOTATION)
                    .map(String::as_str)
            })
    }

    /// Updates a workload's replica count in place (`kubectl scale`),
    /// returning false when no workload with that qualified name exists.
    /// Call [`Cluster::reconcile`] to realize the change — spawn new pods
    /// or reap excess ones. The workload's release shows as dirty to
    /// [`Cluster::dirty_since`] at once.
    pub fn scale_workload(&mut self, qualified: &str, replicas: u32) -> bool {
        let (namespace, name) = split_qualified(qualified);
        let Some(pos) = self
            .release_index
            .named(&self.objects, namespace, name)
            .find(|&pos| matches!(self.objects[pos], Object::Workload(_)))
        else {
            return false;
        };
        let Object::Workload(w) = &mut self.objects[pos] else {
            unreachable!("found as a workload");
        };
        w.replicas = replicas;
        let scope = self.dirty.scope(release_name(&self.objects[pos]));
        self.pending.push(pos);
        self.touch(DirtyEntry {
            scope,
            labels: false,
        });
        true
    }

    /// Restarts every pod in place: containers re-draw their ephemeral
    /// ports, names, nodes and IPs stay. This is how the probe's second pass
    /// observes M2 (§4.2.2). Every release shows as dirty to
    /// [`Cluster::dirty_since`].
    pub fn restart_pods(&mut self) {
        for rp in self.pods.iter_mut() {
            rp.sockets = open_sockets(&self.config.behaviors, &mut self.rng, &rp.pod);
        }
        self.touch(DirtyEntry {
            scope: DirtyScope::AllApps,
            labels: false,
        });
    }

    /// Schedules and starts one pod, dirtying `scope` (its release); false
    /// when it stays Pending.
    fn start_pod(&mut self, pod: Pod, owner: Option<String>, scope: DirtyScope) -> bool {
        // No schedulable node: the pod stays Pending (Kubernetes semantics)
        // instead of crashing the control loop; the next reconcile retries.
        if self.nodes.is_empty() {
            return false;
        }
        // Scheduler: round-robin by current pod count, honouring nodeName.
        let node_idx = self.pods.live() % self.nodes.len();
        let node = match &pod.spec.node_name {
            Some(n) => self
                .nodes
                .iter()
                .find(|node| &node.name == n)
                .unwrap_or(&self.nodes[node_idx]),
            None => &self.nodes[node_idx],
        };
        let node_name = node.name.clone();
        // IPAM: flat pod network, or the node IP under hostNetwork.
        let ip = if pod.spec.host_network {
            node.ip
        } else if let Some(ip) = self.pod_ips.allocate() {
            ip
        } else {
            return false;
        };
        let sockets = open_sockets(&self.config.behaviors, &mut self.rng, &pod);
        let pos = self.pods.push(RunningPod {
            pod,
            node: node_name,
            ip,
            sockets,
            owner,
        });
        self.release_index.add_pod(&self.pods, pos);
        self.touch(DirtyEntry {
            scope,
            labels: false,
        });
        true
    }

    /// Simulates a connection from one pod to another. Verdicts come from
    /// the cached [`PolicyIndex`]; the naive
    /// [`PolicyEngine`](crate::PolicyEngine) remains available as the
    /// reference oracle for tests.
    pub fn connect(
        &self,
        src: &str,
        dst: &str,
        port: u16,
        protocol: Protocol,
    ) -> Option<ConnectOutcome> {
        let index = self.policy_index();
        let src_idx = index.pod_index(src)?;
        let dst_idx = index.pod_index(dst)?;
        let dst = self.indexed_pod(dst_idx);
        Some(match index.verdict(src_idx, dst_idx, port, protocol) {
            ConnectionVerdict::DeniedIngress => ConnectOutcome::DeniedIngress,
            ConnectionVerdict::DeniedEgress => ConnectOutcome::DeniedEgress,
            ConnectionVerdict::Allowed(_) => {
                if dst.listens_on(port, protocol) {
                    ConnectOutcome::Connected
                } else {
                    ConnectOutcome::Refused
                }
            }
        })
    }

    /// The pod a [`PolicyIndex`] of the current generation numbers `i`:
    /// the `i`-th live pod in start order.
    fn indexed_pod(&self, i: usize) -> &RunningPod {
        self.pods
            .nth(i)
            .expect("the policy index numbers the live pods")
    }

    /// Computes the endpoints object for every service, mirroring the
    /// endpoints controller: label selection plus target-port resolution.
    /// Numeric targets produce endpoints whether or not the port is open
    /// (which is why M5A requests black-hole); named targets that no
    /// container declares produce none.
    pub fn endpoints(&self) -> Vec<Endpoints> {
        self.services()
            .map(|svc| self.service_endpoints(svc))
            .collect()
    }

    /// The endpoints object of one service (see [`Cluster::endpoints`]).
    fn service_endpoints(&self, svc: &Service) -> Endpoints {
        let mut addresses = Vec::new();
        if !svc.spec.selector.is_empty() {
            for rp in self.pods.iter() {
                if rp.pod.meta.namespace != svc.meta.namespace {
                    continue;
                }
                if !rp.pod.meta.labels.contains_all(&svc.spec.selector) {
                    continue;
                }
                for sp in &svc.spec.ports {
                    let target = match &sp.target_port {
                        TargetPort::Number(n) => Some(*n),
                        TargetPort::Name(name) => rp.pod.resolve_port_name(name),
                    };
                    let Some(target) = target else { continue };
                    addresses.push(EndpointAddress {
                        ip: rp.ip,
                        pod: rp.qualified_name(),
                        port: target,
                        protocol: sp.protocol,
                        port_name: sp.name.clone(),
                    });
                }
            }
        }
        Endpoints {
            meta: svc.meta.clone(),
            addresses,
        }
    }

    /// Simulates a request from `src` to service `namespace/name:port`,
    /// returning the qualified names of the pods that would successfully
    /// receive it (after policy evaluation and listener checks). kube-proxy
    /// load-balances across these — which is precisely what makes the
    /// Thanos-style impersonation (§2.1.2) work: a malicious pod matching
    /// the selector joins this list.
    pub fn send_to_service(
        &self,
        src: &str,
        namespace: &str,
        name: &str,
        port: u16,
    ) -> Vec<String> {
        let index = self.policy_index();
        let Some(src_idx) = index.pod_index(src) else {
            return Vec::new();
        };
        let Some(svc) = self.service(namespace, name) else {
            return Vec::new();
        };
        let Some(sp) = svc.spec.ports.iter().find(|p| p.port == port) else {
            return Vec::new();
        };
        let endpoints = self.service_endpoints(svc);
        let mut receivers = Vec::new();
        for addr in &endpoints.addresses {
            if addr.port_name != sp.name {
                continue;
            }
            let Some(dst_idx) = index.pod_index(&addr.pod) else {
                continue;
            };
            if !index
                .verdict(src_idx, dst_idx, addr.port, sp.protocol)
                .is_allowed()
            {
                continue;
            }
            if self.indexed_pod(dst_idx).listens_on(addr.port, sp.protocol) {
                receivers.push(addr.pod.clone());
            }
        }
        receivers.sort();
        receivers.dedup();
        receivers
    }

    /// Sockets visible in a node's host network namespace: the node's own
    /// daemons plus every hostNetwork pod scheduled there. This is the M7
    /// observation problem the probe must subtract a baseline from.
    pub fn host_sockets(&self, node: &str) -> Vec<(u16, Protocol, Option<String>)> {
        let mut out: Vec<(u16, Protocol, Option<String>)> = Vec::new();
        if let Some(n) = self.nodes.iter().find(|n| n.name == node) {
            for &(p, proto) in &n.baseline_ports {
                out.push((p, proto, None));
            }
        }
        for rp in self.pods.iter() {
            if rp.pod.spec.host_network && rp.node == node {
                for s in &rp.sockets {
                    if !s.loopback_only {
                        out.push((s.port, s.protocol, Some(rp.qualified_name())));
                    }
                }
            }
        }
        out.sort_by_key(|a| (a.0, a.1));
        out
    }
}

/// The metadata of an object that defines pods: a workload or a bare pod.
fn definer_meta(o: &Object) -> Option<&ObjectMeta> {
    match o {
        Object::Workload(w) => Some(&w.meta),
        Object::Pod(p) => Some(&p.meta),
        _ => None,
    }
}

/// The ClusterIP a service holds.
fn service_ip(o: &Object) -> Option<Ipv4Addr> {
    match o {
        Object::Service(s) => s.spec.cluster_ip,
        _ => None,
    }
}

/// The addresses of a /16 in 254-host blocks, less the first: `.0.2`, …,
/// `.0.254`, `.1.1`, …, `.255.254`.
const POOL_CAPACITY: u32 = 256 * 254 - 1;

/// An address pool below a /16 prefix (pod IPs, ClusterIPs). It hands out
/// its addresses in order until `capacity` are spent, then the lowest
/// released one, so the addresses of a run that never spends the pool do
/// not depend on what it released.
struct AddressPool {
    prefix: [u8; 2],
    capacity: u32,
    /// Addresses handed out fresh so far.
    fresh: u32,
    released: BinaryHeap<Reverse<u32>>,
}

impl AddressPool {
    fn new(prefix: [u8; 2], capacity: u32) -> Self {
        AddressPool {
            prefix,
            capacity,
            fresh: 0,
            released: BinaryHeap::new(),
        }
    }

    /// The next address; `None` when every one is held.
    fn allocate(&mut self) -> Option<Ipv4Addr> {
        let n = if self.fresh < self.capacity {
            self.fresh += 1;
            self.fresh
        } else {
            self.released.pop()?.0
        };
        let [a, b] = self.prefix;
        Some(Ipv4Addr::from(
            u32::from_be_bytes([a, b, 0, 0]) + ((n / 254) << 8) + n % 254 + 1,
        ))
    }

    /// Returns an address [`AddressPool::allocate`] handed out.
    fn release(&mut self, ip: Ipv4Addr) {
        let [_, _, block, host] = ip.octets();
        self.released
            .push(Reverse(u32::from(block) * 254 + u32::from(host) - 1));
    }

    /// Returns a pod's address, unless it is its node's (hostNetwork).
    fn release_pod(&mut self, rp: &RunningPod) {
        if !rp.pod.spec.host_network {
            self.release(rp.ip);
        }
    }
}

/// Instantiates the behaviour model of every container in a pod: the
/// sockets its processes open, sorted by `(port, protocol)`. Listeners are
/// walked by reference, so only the kept sockets allocate.
fn open_sockets(behaviors: &BehaviorRegistry, rng: &mut StdRng, pod: &Pod) -> Vec<OpenSocket> {
    let mut sockets: Vec<OpenSocket> = Vec::new();
    let taken = |sockets: &[OpenSocket], port: u16, protocol: Protocol| {
        sockets
            .iter()
            .any(|s| s.port == port && s.protocol == protocol)
    };
    for container in &pod.spec.containers {
        for spec in behaviors.resolve(&container.image).listeners(container) {
            let port = match &spec.port {
                PortSpec::Static(p) => Some(*p),
                PortSpec::Ephemeral => {
                    // Draw until free within this pod (ranges are huge, so
                    // this terminates immediately in practice).
                    let mut p = rng.gen_range(32768..=60999u16);
                    while taken(&sockets, p, spec.protocol) {
                        p = rng.gen_range(32768..=60999u16);
                    }
                    Some(p)
                }
                PortSpec::FromEnv { var, default } => container
                    .env_value(var)
                    .and_then(|v| v.parse::<u16>().ok())
                    .or(*default),
            };
            let Some(port) = port else { continue };
            if taken(&sockets, port, spec.protocol) {
                continue; // two containers racing for one port: first wins
            }
            sockets.push(OpenSocket {
                port,
                protocol: spec.protocol,
                loopback_only: spec.loopback_only,
                ephemeral: matches!(spec.port, PortSpec::Ephemeral),
            });
        }
    }
    sockets.sort_by_key(|s| (s.port, s.protocol));
    sockets
}

/// A qualified `namespace/name` as its two parts.
fn split_qualified(qualified: &str) -> (&str, &str) {
    qualified.split_once('/').unwrap_or((qualified, ""))
}

/// The names of the pods an object desires: one per replica for
/// workloads (`name-<i>`, none at `replicas: 0`), one per node for
/// DaemonSets (`name-<node>`), the pod itself for a bare pod.
fn desired_pod_names(o: &Object, nodes: &[Node]) -> Vec<String> {
    match o {
        Object::Workload(w) if w.kind == WorkloadKind::DaemonSet => nodes
            .iter()
            .map(|node| format!("{}-{}", w.meta.name, node.name))
            .collect(),
        // `replicas: 0` is a deliberate scale-to-zero, not a typo: desire
        // no pods so reconcile reaps any still running.
        Object::Workload(w) => (0..w.replicas)
            .map(|i| format!("{}-{i}", w.meta.name))
            .collect(),
        Object::Pod(p) => vec![p.meta.name.clone()],
        _ => Vec::new(),
    }
}

/// True when `o` desires the pod `pod` — [`desired_pod_names`] as a
/// predicate, without allocating the names.
fn desires(o: &Object, nodes: &[Node], pod: &ObjectMeta) -> bool {
    match o {
        Object::Pod(p) => p.meta.name == pod.name && p.meta.namespace == pod.namespace,
        Object::Workload(w) if w.meta.namespace == pod.namespace => {
            let Some(suffix) = pod
                .name
                .strip_prefix(w.meta.name.as_str())
                .and_then(|rest| rest.strip_prefix('-'))
            else {
                return false;
            };
            if w.kind == WorkloadKind::DaemonSet {
                return nodes.iter().any(|node| node.name == suffix);
            }
            // Replica suffixes are canonical decimals below the count.
            let canonical = suffix.bytes().all(|b| b.is_ascii_digit())
                && (suffix == "0" || !suffix.starts_with('0'));
            canonical && suffix.parse::<u32>().is_ok_and(|i| i < w.replicas)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{ContainerBehavior, ListenerSpec};
    use ij_chart::{Chart, Release};
    use ij_model::Workload;
    use std::collections::HashSet;

    /// True when a pod could have been expanded from the object named
    /// `qualified`: same namespace, and the object's own name or a
    /// `name-<suffix>` of it.
    fn may_define(qualified: &str, pod: &ObjectMeta) -> bool {
        let (ns, name) = split_qualified(qualified);
        ns == pod.namespace
            && pod
                .name
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('-'))
    }

    impl Cluster {
        /// The virtual IP of the service named `namespace/name`, as it was
        /// assigned at apply; `None` when that service is headless or none
        /// exists.
        fn cluster_ip(&self, namespace: &str, name: &str) -> Option<Ipv4Addr> {
            self.service(namespace, name)?.spec.cluster_ip
        }

        /// Panics unless the release index equals one rebuilt from the
        /// objects and pods, and every pending entry is a pod-defining
        /// object or a service without a ClusterIP.
        fn assert_index_exact(&self, context: &str) {
            self.release_index
                .assert_exact(&self.objects, &self.pods, context);
            for &pos in &self.pending {
                let object = self.objects.get(pos);
                let waiting =
                    matches!(object, Some(Object::Service(s)) if s.spec.cluster_ip.is_none());
                assert!(
                    waiting || object.and_then(definer_meta).is_some(),
                    "{context}: pending entry {pos} is neither a pod-defining object nor a waiting service"
                );
            }
        }

        /// Panics unless no two live objects share a kind, namespace and
        /// name; every live non-headless service holds a ClusterIP and no
        /// other does; no two live services or pods hold one address; and
        /// the name lookup finds the ClusterIP of the service of each name.
        fn assert_identity_and_addresses(&self, names: &[&str], context: &str) {
            let mut identities = HashSet::new();
            for o in self.objects() {
                let meta = o.meta();
                assert!(
                    identities.insert((o.kind(), &meta.namespace, &meta.name)),
                    "{context}: two live {} {}",
                    o.kind(),
                    o.qualified_name()
                );
            }
            let mut seen = HashSet::new();
            for s in self.services() {
                let ip = s.spec.cluster_ip;
                assert_eq!(
                    ip.is_some(),
                    !s.is_headless(),
                    "{context}: service {} holds {ip:?}",
                    s.meta.qualified_name()
                );
                if let Some(ip) = ip {
                    assert!(seen.insert(ip), "{context}: ClusterIP {ip} held twice");
                }
            }
            for rp in self.pods().iter().filter(|rp| !rp.pod.spec.host_network) {
                assert!(seen.insert(rp.ip), "{context}: pod IP {} held twice", rp.ip);
            }
            for namespace in ["default", "prod"] {
                for &name in names {
                    let service = self
                        .services()
                        .find(|s| s.meta.namespace == namespace && s.meta.name == name);
                    let ip = service.and_then(|s| s.spec.cluster_ip);
                    assert_eq!(
                        self.cluster_ip(namespace, name),
                        ip,
                        "{context}: cluster_ip of {namespace}/{name}"
                    );
                }
            }
        }
    }

    fn demo_chart() -> Chart {
        Chart::builder("demo")
            .values_yaml("replicas: 2\n")
            .unwrap()
            .template(
                "deploy.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-web
spec:
  replicas: {{ .Values.replicas }}
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
        - name: web
          image: demo/web
          ports:
            - name: http
              containerPort: 8080
",
            )
            .template(
                "svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-web
spec:
  selector:
    app: web
  ports:
    - name: http
      port: 80
      targetPort: http
",
            )
            .build()
    }

    fn install_demo(behaviors: BehaviorRegistry) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 7,
            behaviors,
        });
        let rendered = demo_chart().render(&Release::new("d", "default")).unwrap();
        cluster.install(&rendered).unwrap();
        cluster
    }

    #[test]
    fn install_creates_pods_with_ips() {
        let cluster = install_demo(BehaviorRegistry::new());
        assert_eq!(cluster.pods().len(), 2);
        let ips: HashSet<Ipv4Addr> = cluster.pods().iter().map(|p| p.ip).collect();
        assert_eq!(ips.len(), 2, "distinct pod IPs");
        for p in cluster.pods() {
            assert!(p.ip.to_string().starts_with("10.244."));
            assert!(
                p.listens_on(8080, Protocol::Tcp),
                "default behaviour opens declared port"
            );
        }
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        cluster.reconcile();
        cluster.reconcile();
        assert_eq!(cluster.pods().len(), 2);
    }

    #[test]
    fn endpoints_resolve_named_target_port() {
        let cluster = install_demo(BehaviorRegistry::new());
        let ep = cluster
            .endpoints()
            .into_iter()
            .find(|ep| ep.meta.name == "d-web")
            .unwrap();
        assert_eq!(ep.addresses.len(), 2);
        assert!(ep.addresses.iter().all(|a| a.port == 8080));
    }

    #[test]
    fn service_routing_hits_listening_backends() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        // An attacker pod, no special privileges, somewhere in the cluster.
        let attacker = Pod::new(
            ij_model::ObjectMeta::named("attacker"),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("sh", "alpine")],
                ..Default::default()
            },
        );
        cluster.apply(Object::Pod(attacker)).unwrap();
        cluster.reconcile();
        let receivers = cluster.send_to_service("default/attacker", "default", "d-web", 80);
        assert_eq!(receivers.len(), 2);
    }

    #[test]
    fn impersonation_via_label_collision() {
        // Thanos-style (§2.1.2): a malicious pod matching the service's
        // selector starts receiving service traffic.
        let mut cluster = install_demo(BehaviorRegistry::new());
        let imposter = Pod::new(
            ij_model::ObjectMeta::named("imposter")
                .with_labels(Labels::from_pairs([("app", "web")])),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("sh", "attacker/listener")
                    .with_ports(vec![ij_model::ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        );
        cluster.apply(Object::Pod(imposter)).unwrap();
        cluster.reconcile();
        let receivers = cluster.send_to_service("default/d-web-0", "default", "d-web", 80);
        assert!(receivers.contains(&"default/imposter".to_string()));
    }

    #[test]
    fn ephemeral_ports_differ_across_restart() {
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "demo/web",
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(8080), ListenerSpec::ephemeral()]),
        );
        let mut cluster = install_demo(behaviors);
        let first = |cluster: &Cluster| cluster.pods().iter().next().unwrap().clone();
        let before: Vec<u16> = first(&cluster)
            .sockets
            .iter()
            .filter(|s| s.ephemeral)
            .map(|s| s.port)
            .collect();
        assert_eq!(before.len(), 1);
        assert!((32768..=60999).contains(&before[0]));
        cluster.restart_pods();
        let after: Vec<u16> = first(&cluster)
            .sockets
            .iter()
            .filter(|s| s.ephemeral)
            .map(|s| s.port)
            .collect();
        assert_ne!(before, after, "ephemeral port re-drawn on restart");
        assert!(
            first(&cluster).listens_on(8080, Protocol::Tcp),
            "static port stable"
        );
    }

    #[test]
    fn connect_honours_listeners_and_policies() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let attacker = Pod::new(
            ij_model::ObjectMeta::named("attacker"),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("sh", "alpine")],
                ..Default::default()
            },
        );
        cluster.apply(Object::Pod(attacker)).unwrap();
        cluster.reconcile();
        // Default allow: open port connects, closed port refuses.
        assert_eq!(
            cluster.connect("default/attacker", "default/d-web-0", 8080, Protocol::Tcp),
            Some(ConnectOutcome::Connected)
        );
        assert_eq!(
            cluster.connect("default/attacker", "default/d-web-0", 9999, Protocol::Tcp),
            Some(ConnectOutcome::Refused)
        );
        // A deny-all policy flips the verdict.
        let deny = NetworkPolicy::deny_all_ingress(
            ij_model::ObjectMeta::named("deny"),
            ij_model::LabelSelector::from_labels(Labels::from_pairs([("app", "web")])),
        );
        cluster.apply(Object::NetworkPolicy(deny)).unwrap();
        assert_eq!(
            cluster.connect("default/attacker", "default/d-web-0", 8080, Protocol::Tcp),
            Some(ConnectOutcome::DeniedIngress)
        );
    }

    #[test]
    fn loopback_sockets_unreachable() {
        let mut behaviors = BehaviorRegistry::new();
        behaviors.register(
            "demo/web",
            ContainerBehavior::Listeners(vec![ListenerSpec::tcp(2222).loopback()]),
        );
        let cluster = install_demo(behaviors);
        let first = cluster.pods().iter().next().unwrap();
        assert!(!first.listens_on(2222, Protocol::Tcp));
        assert!(first
            .sockets
            .iter()
            .any(|s| s.port == 2222 && s.loopback_only));
    }

    #[test]
    fn daemonset_runs_on_every_node() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let w = Workload::deployment(
            ij_model::ObjectMeta::named("exporter"),
            Labels::from_pairs([("app", "exporter")]),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("e", "exporter")
                    .with_ports(vec![ij_model::ContainerPort::tcp(9100)])],
                host_network: true,
                node_name: None,
            },
        )
        .with_kind(WorkloadKind::DaemonSet);
        cluster.apply(Object::Workload(w)).unwrap();
        cluster.reconcile();
        assert_eq!(cluster.pods().len(), 3);
        // hostNetwork pods take their node's IP and appear in host sockets.
        for p in cluster.pods() {
            assert!(p.ip.to_string().starts_with("192.168.49."));
        }
        let host = cluster.host_sockets("node-0");
        assert!(host
            .iter()
            .any(|(p, _, owner)| *p == 9100 && owner.is_some()));
        assert!(host
            .iter()
            .any(|(p, _, owner)| *p == 10250 && owner.is_none()));
    }

    #[test]
    fn headless_dns_returns_pod_ips() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let headless = Service::headless(
            ij_model::ObjectMeta::named("web-headless"),
            Labels::from_pairs([("app", "web")]),
            vec![ij_model::ServicePort::tcp(8080)],
        );
        cluster.apply(Object::Service(headless)).unwrap();
        // A headless service resolves to its backing pods' IPs...
        assert_eq!(cluster.cluster_ip("default", "web-headless"), None);
        let mut ips: Vec<String> = cluster
            .endpoints()
            .into_iter()
            .filter(|ep| ep.meta.name == "web-headless")
            .flat_map(|ep| ep.addresses)
            .map(|a| a.ip.to_string())
            .collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 2);
        assert!(ips.iter().all(|ip| ip.starts_with("10.244.")));
        // ...a normal service to its one virtual IP.
        let vip = cluster.cluster_ip("default", "d-web").unwrap();
        assert!(vip.to_string().starts_with("10.96."));
    }

    #[test]
    fn admission_denial_rolls_back_release() {
        struct DenyServices;
        impl AdmissionController for DenyServices {
            fn name(&self) -> &str {
                "deny-services"
            }
            fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome {
                if review.object.kind() == "Service" {
                    AdmissionOutcome::Deny("services are forbidden".into())
                } else {
                    AdmissionOutcome::Allow
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(DenyServices));
        let rendered = demo_chart().render(&Release::new("d", "default")).unwrap();
        let err = cluster.install(&rendered).unwrap_err();
        assert!(matches!(err, InstallError::Denied { .. }));
        assert!(cluster.objects().is_empty(), "rolled back");
        assert!(cluster.pods().is_empty());
    }

    /// Each running pod as `name node ip sockets`, in start order.
    fn pod_rows(cluster: &Cluster) -> Vec<String> {
        cluster
            .pods()
            .iter()
            .map(|rp| {
                let (name, node, ip) = (rp.qualified_name(), &rp.node, rp.ip);
                format!("{name} {node} {ip} {}", rp.sockets.len())
            })
            .collect()
    }

    #[test]
    fn watch_stream_delivers_lifecycle_events() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let bare = |name: &str, host_network: bool| {
            Object::Pod(Pod::new(
                ij_model::ObjectMeta::named(name),
                ij_model::PodSpec {
                    containers: vec![ij_model::Container::new("c", "img")
                        .with_ports(vec![ij_model::ContainerPort::tcp(9100)])],
                    host_network,
                    node_name: None,
                },
            ))
        };
        let object_rows = |cluster: &Cluster| -> Vec<String> {
            let objects = cluster.objects();
            objects
                .iter()
                .map(|o| format!("{} {}", o.kind(), o.qualified_name()))
                .collect()
        };
        assert_eq!(
            object_rows(&cluster),
            ["Deployment default/d-web", "Service default/d-web"]
        );
        assert_eq!(
            pod_rows(&cluster),
            [
                "default/d-web-0 node-0 10.244.0.2 1",
                "default/d-web-1 node-1 10.244.0.3 1",
            ]
        );
        cluster.apply(bare("late", false)).unwrap();
        cluster.reconcile();
        assert_eq!(
            pod_rows(&cluster)[2..],
            ["default/late node-2 10.244.0.4 1"]
        );
        // A hostNetwork pod holds its node's IP.
        cluster.apply(bare("exporter", true)).unwrap();
        cluster.reconcile();
        assert_eq!(cluster.nodes()[0].ip, Ipv4Addr::new(192, 168, 49, 2));
        assert_eq!(
            pod_rows(&cluster)[3..],
            ["default/exporter node-0 192.168.49.2 1"]
        );
        assert!(cluster.scale_workload("default/d-web", 1));
        cluster.reconcile();
        let running = [
            "default/d-web-0 node-0 10.244.0.2 1",
            "default/late node-2 10.244.0.4 1",
            "default/exporter node-0 192.168.49.2 1",
        ];
        assert_eq!(pod_rows(&cluster), running, "d-web-1 reaped");
        cluster.restart_pods();
        assert_eq!(pod_rows(&cluster), running, "restarts keep pods in place");
        cluster.push_admission(Box::new(DenyNamed));
        let objects = object_rows(&cluster);
        assert_eq!(
            cluster.apply(bare("denied", false)).unwrap_err(),
            InstallError::Denied {
                controller: "deny-named".into(),
                reason: "denied by name".into(),
                object: "default/denied".into(),
            }
        );
        assert_eq!(
            object_rows(&cluster),
            objects,
            "a denied object is not kept"
        );
        cluster.uninstall("d");
        assert_eq!(
            object_rows(&cluster),
            ["Pod default/late", "Pod default/exporter"]
        );
        assert_eq!(pod_rows(&cluster), running[1..]);
    }

    #[test]
    fn watch_sees_admission_denials() {
        struct DenyPods;
        impl AdmissionController for DenyPods {
            fn name(&self) -> &str {
                "deny-pods"
            }
            fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome {
                if review.object.kind() == "Pod" {
                    AdmissionOutcome::Deny("no pods".into())
                } else {
                    AdmissionOutcome::Allow
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(DenyPods));
        let pod = Pod::new(
            ij_model::ObjectMeta::named("p"),
            ij_model::PodSpec::default(),
        );
        assert_eq!(
            cluster.apply(Object::Pod(pod)),
            Err(InstallError::Denied {
                controller: "deny-pods".into(),
                reason: "no pods".into(),
                object: "default/p".into(),
            })
        );
        assert!(cluster.objects().is_empty());
        assert!(cluster.pending.is_empty());
    }

    #[test]
    fn uninstall_removes_only_the_release() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let second = demo_chart().render(&Release::new("e", "default")).unwrap();
        cluster.install(&second).unwrap();
        assert_eq!(cluster.pods().len(), 4);
        cluster.uninstall("d");
        assert_eq!(cluster.pods().len(), 2, "only release e's pods remain");
        assert!(cluster
            .pods()
            .iter()
            .all(|p| p.qualified_name().contains("e-web")));
        assert!(cluster.services().all(|s| s.meta.name == "e-web"));
        // Endpoints follow: the removed release's service is gone.
        let services: Vec<String> = cluster
            .endpoints()
            .into_iter()
            .map(|ep| ep.meta.name)
            .collect();
        assert_eq!(services, ["e-web"]);
    }

    #[test]
    fn policy_index_cached_until_mutation() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let first = cluster.policy_index();
        let second = cluster.policy_index();
        assert!(
            Arc::ptr_eq(&first, &second),
            "same generation must share one compilation"
        );
        let generation = cluster.generation();
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ij_model::ObjectMeta::named("deny"),
                ij_model::LabelSelector::everything(),
            )))
            .unwrap();
        assert_ne!(cluster.generation(), generation, "apply bumps generation");
        let third = cluster.policy_index();
        assert!(
            !Arc::ptr_eq(&first, &third),
            "mutation must invalidate the cached index"
        );
        let web = |index: &PolicyIndex, i: usize| {
            index
                .pod_index(&format!("default/d-web-{i}"))
                .expect("indexed")
        };
        assert_eq!(
            third.verdict(web(&third, 0), web(&third, 1), 8080, Protocol::Tcp),
            ConnectionVerdict::DeniedIngress
        );
        // The old Arc remains a consistent pre-mutation snapshot.
        assert!(first
            .verdict(web(&first, 0), web(&first, 1), 8080, Protocol::Tcp)
            .is_allowed());
    }

    #[test]
    fn restart_invalidates_the_index() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let before = cluster.policy_index();
        let g0 = cluster.generation();
        cluster.restart_pods();
        assert_ne!(cluster.generation(), g0);
        let after = cluster.policy_index();
        assert!(!Arc::ptr_eq(&before, &after), "a restart recompiles");
        assert_eq!(after.pod_count(), before.pod_count());
    }

    #[test]
    fn uninstall_releases_cluster_ips() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        assert!(cluster.cluster_ip("default", "d-web").is_some());
        cluster.uninstall("d");
        assert!(
            cluster.cluster_ip("default", "d-web").is_none(),
            "uninstalled service must not resolve a stale ClusterIP"
        );
        // Install/uninstall churn must not leak map entries for the name.
        for _ in 0..5 {
            let rendered = demo_chart().render(&Release::new("d", "default")).unwrap();
            cluster.install(&rendered).unwrap();
            cluster.uninstall("d");
        }
        assert!(cluster.cluster_ip("default", "d-web").is_none());
    }

    #[test]
    fn rollback_releases_cluster_ips_of_applied_services() {
        // Deny pods so the install fails *after* the service got its IP.
        struct DenyWorkloads;
        impl AdmissionController for DenyWorkloads {
            fn name(&self) -> &str {
                "deny-workloads"
            }
            fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome {
                if review.object.kind() == "Deployment" {
                    AdmissionOutcome::Deny("no workloads".into())
                } else {
                    AdmissionOutcome::Allow
                }
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(DenyWorkloads));
        // Render with the service template first so it lands before the
        // denied deployment.
        let chart = Chart::builder("demo")
            .template(
                "a-svc.yaml",
                "\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-web
spec:
  selector:
    app: web
  ports:
    - name: http
      port: 80
      targetPort: 8080
",
            )
            .template(
                "b-deploy.yaml",
                "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-web
spec:
  replicas: 1
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      containers:
        - name: web
          image: demo/web
",
            )
            .build();
        let rendered = chart.render(&Release::new("d", "default")).unwrap();
        cluster.install(&rendered).unwrap_err();
        assert!(cluster.objects().is_empty(), "rolled back");
        assert!(
            cluster.cluster_ip("default", "d-web").is_none(),
            "rollback must release the ClusterIP of already-applied services"
        );
    }

    /// A ClusterIP service named `name` in `default`, selecting `app: web`.
    fn web_service(name: &str) -> Object {
        Object::Service(Service::cluster_ip(
            ij_model::ObjectMeta::named(name),
            Labels::from_pairs([("app", "web")]),
            vec![ij_model::ServicePort::tcp(80)],
        ))
    }

    #[test]
    fn same_named_services_keep_their_cluster_ips() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.push_admission(Box::new(DenyNamed));
        let ip = |cluster: &Cluster| {
            cluster
                .cluster_ip("default", "shared")
                .map(|ip| ip.to_string())
        };
        cluster
            .install_objects("a", &[web_service("shared")])
            .unwrap();
        let first = ip(&cluster).expect("a's service has an address");
        // Another release's service of that name conflicts; the install
        // rolls back and the live service keeps its address.
        let err = cluster
            .install_objects("b", &[web_service("other"), web_service("shared")])
            .unwrap_err();
        assert_eq!(
            err,
            InstallError::Conflict {
                object: "Service default/shared".into(),
                owner: Some("a".into()),
            }
        );
        assert_eq!(cluster.services().count(), 1);
        assert_eq!(ip(&cluster).as_ref(), Some(&first));
        // Re-installing `a` replaces its service in place, address and all;
        // a denial later in the same install restores the replaced one.
        let mut headless = web_service("shared");
        if let Object::Service(s) = &mut headless {
            s.spec.headless = true;
        }
        cluster
            .install_objects("a", &[headless, web_service("denied")])
            .unwrap_err();
        assert_eq!(ip(&cluster).as_ref(), Some(&first));
        cluster
            .install_objects("a", &[web_service("shared")])
            .unwrap();
        assert_eq!(cluster.services().count(), 1);
        assert_eq!(ip(&cluster).as_ref(), Some(&first));
        // Once `a` is gone, `b` gets its own address.
        cluster.uninstall("a");
        cluster
            .install_objects("b", &[web_service("shared")])
            .unwrap();
        let second = ip(&cluster).expect("b's service has an address");
        assert_ne!(second, first, "no address is handed out twice");
    }

    /// Re-applying a workload replaces it in place: same apply position,
    /// the running pods keep running, and the reconcile that follows
    /// realizes only the new replica count.
    #[test]
    fn reapplied_workload_replaces_in_place() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let rendered = demo_chart()
            .render(
                &Release::new("d", "default")
                    .with_values_yaml("replicas: 3\n")
                    .unwrap(),
            )
            .unwrap();
        let before: Vec<String> = cluster
            .pods()
            .iter()
            .map(|rp| rp.qualified_name())
            .collect();
        let ip = cluster.cluster_ip("default", "d-web");
        cluster.install(&rendered).unwrap();
        assert_eq!(
            pod_rows(&cluster)[2..],
            ["default/d-web-2 node-2 10.244.0.4 1"]
        );
        assert_eq!(cluster.cluster_ip("default", "d-web"), ip);
        let kinds: Vec<&str> = cluster.objects().iter().map(Object::kind).collect();
        assert_eq!(kinds, ["Deployment", "Service"]);
        let after: Vec<String> = cluster
            .pods()
            .iter()
            .map(|rp| rp.qualified_name())
            .collect();
        assert_eq!(after[..2], before[..]);
        // An unannotated object of the same identity is not the release's.
        let Some(Object::Workload(w)) = cluster.objects().iter().next().cloned() else {
            unreachable!("the deployment comes first");
        };
        let mut bare = w;
        bare.meta.annotations = Default::default();
        let err = cluster.apply(Object::Workload(bare)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "`Deployment default/d-web` exists and belongs to release `d`"
        );
    }

    /// The reap of a scaled-down workload dirties the workload's release,
    /// not that of another kind of object sharing its name: a service, or
    /// a bare pod, which defines pods too.
    #[test]
    fn a_reap_dirties_the_definers_release() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let spec = ij_model::PodSpec {
            containers: vec![ij_model::Container::new("c", "img")],
            ..Default::default()
        };
        let mut web = Workload::deployment(
            ij_model::ObjectMeta::named("web"),
            Labels::from_pairs([("app", "web")]),
            spec,
        );
        web.replicas = 2;
        let bare = Pod::new(
            ij_model::ObjectMeta::named("web"),
            web.template.spec.clone(),
        );
        cluster
            .install_objects("a", &[web_service("web"), Object::Pod(bare)])
            .unwrap();
        cluster
            .install_objects("b", &[Object::Workload(web)])
            .unwrap();
        let cursor = cluster.generation();
        assert!(cluster.scale_workload("default/web", 1));
        cluster.reconcile();
        let summary = cluster.dirty_since(cursor);
        assert_eq!(summary.apps.iter().cloned().collect::<Vec<_>>(), ["b"]);
    }

    #[test]
    fn zero_replicas_spawn_no_pods_and_scale_down_reaps() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        assert_eq!(cluster.pods().len(), 2);
        let cursor = cluster.generation();
        assert!(cluster.scale_workload("default/d-web", 0));
        cluster.reconcile();
        assert!(
            cluster.pods().is_empty(),
            "replicas: 0 means zero pods, not one"
        );
        assert_eq!(cluster.pod_ips.released.len(), 2, "both reaps freed an IP");
        assert!(cluster.dirty_since(cursor).apps.contains("d"));
        // Scaling back up respawns pods; partial scale-down reaps only the
        // excess replica.
        assert!(cluster.scale_workload("default/d-web", 3));
        cluster.reconcile();
        assert_eq!(cluster.pods().len(), 3);
        assert!(cluster.scale_workload("default/d-web", 1));
        cluster.reconcile();
        let names: Vec<String> = cluster
            .pods()
            .iter()
            .map(|rp| rp.qualified_name())
            .collect();
        assert_eq!(names, ["default/d-web-0"]);
        assert!(!cluster.scale_workload("default/missing", 2));
    }

    #[test]
    fn workload_applied_with_zero_replicas_stays_at_zero() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let mut w = Workload::deployment(
            ij_model::ObjectMeta::named("idle"),
            Labels::from_pairs([("app", "idle")]),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("c", "img")],
                ..Default::default()
            },
        );
        w.replicas = 0;
        cluster.apply(Object::Workload(w)).unwrap();
        cluster.reconcile();
        assert!(cluster.pods().is_empty());
    }

    #[test]
    fn zero_node_cluster_leaves_pods_pending_instead_of_panicking() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 0,
            seed: 1,
            behaviors: BehaviorRegistry::new(),
        });
        let pod = Pod::new(
            ij_model::ObjectMeta::named("p"),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("c", "img")],
                ..Default::default()
            },
        );
        cluster.apply(Object::Pod(pod)).unwrap();
        cluster.reconcile(); // previously: divide-by-zero panic
        assert!(cluster.pods().is_empty());
        assert_eq!(cluster.pending, [0], "the pod waits for a node");
    }

    #[test]
    fn dirty_since_attributes_mutations_to_releases() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        let cursor = cluster.generation();
        assert!(cluster.dirty_since(cursor).is_clean());

        let second = demo_chart().render(&Release::new("e", "default")).unwrap();
        cluster.install(&second).unwrap();
        let s = cluster.dirty_since(cursor);
        assert!(!s.everything && !s.all_apps);
        assert_eq!(s.apps.iter().cloned().collect::<Vec<_>>(), vec!["e"]);
        assert!(s.labels);

        let cursor = cluster.generation();
        cluster.uninstall("d");
        let s = cluster.dirty_since(cursor);
        assert_eq!(s.apps.iter().cloned().collect::<Vec<_>>(), vec!["d"]);

        // A policy-only change leaves the label flag untouched.
        let cursor = cluster.generation();
        cluster
            .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                ij_model::ObjectMeta::named("deny"),
                ij_model::LabelSelector::everything(),
            )))
            .unwrap();
        let s = cluster.dirty_since(cursor);
        assert!(!s.labels && s.unattributed);

        // Restarts dirty every app's runtime state.
        let cursor = cluster.generation();
        cluster.restart_pods();
        let s = cluster.dirty_since(cursor);
        assert!(s.all_apps && !s.labels);

        // A stale cursor far older than the ring is conservative too.
        let s = cluster.dirty_since(u64::MAX);
        assert!(s.everything);
    }

    /// Today's full-scan reconcile body as a dry run, kept as the oracle of
    /// the scoped one: the pods it would start (desired, not running) and
    /// the running pods it would reap (running, not desired).
    fn full_scan_plan(cluster: &Cluster) -> (Vec<String>, Vec<String>) {
        let mut desired: Vec<String> = Vec::new();
        let workloads = cluster.objects().iter().filter_map(|o| match o {
            Object::Workload(w) => Some(w),
            _ => None,
        });
        for w in workloads {
            match w.kind {
                WorkloadKind::DaemonSet => {
                    for node in cluster.nodes() {
                        desired.push(format!(
                            "{}/{}-{}",
                            w.meta.namespace, w.meta.name, node.name
                        ));
                    }
                }
                _ => {
                    for i in 0..w.replicas {
                        desired.push(format!("{}/{}-{i}", w.meta.namespace, w.meta.name));
                    }
                }
            }
        }
        for o in cluster.objects() {
            if let Object::Pod(p) = o {
                desired.push(p.meta.qualified_name());
            }
        }
        let running: HashSet<String> = cluster.pods().iter().map(|p| p.qualified_name()).collect();
        let wanted: HashSet<&String> = desired.iter().collect();
        let start = desired
            .iter()
            .filter(|n| !running.contains(*n))
            .cloned()
            .collect();
        let reap = cluster
            .pods()
            .iter()
            .map(|p| p.qualified_name())
            .filter(|n| !wanted.contains(n))
            .collect();
        (start, reap)
    }

    /// Denies any object named `denied`, so installs exercise rollback.
    struct DenyNamed;
    impl AdmissionController for DenyNamed {
        fn name(&self) -> &str {
            "deny-named"
        }
        fn review(&self, review: &AdmissionReview<'_>) -> AdmissionOutcome {
            if review.object.meta().name == "denied" {
                AdmissionOutcome::Deny("denied by name".into())
            } else {
                AdmissionOutcome::Allow
            }
        }
    }

    /// A workload or bare pod drawn from small name pools, so qualified
    /// names repeat (duplicates across releases) and bare pods collide
    /// with replica names.
    fn random_definer(rng: &mut StdRng) -> Object {
        let namespace = ["default", "prod"][rng.gen_range(0..2usize)];
        let spec = ij_model::PodSpec {
            containers: vec![ij_model::Container::new("c", "img")
                .with_ports(vec![ij_model::ContainerPort::tcp(8080)])],
            ..Default::default()
        };
        if rng.gen_bool(0.3) {
            let name = ["web-0", "web-1", "api-2", "solo", "denied"][rng.gen_range(0..5usize)];
            let meta = ij_model::ObjectMeta::named(name).in_namespace(namespace);
            return Object::Pod(Pod::new(meta, spec));
        }
        let name = ["web", "api", "web-1", "denied"][rng.gen_range(0..4usize)];
        let meta = ij_model::ObjectMeta::named(name).in_namespace(namespace);
        let mut w = Workload::deployment(meta, Labels::from_pairs([("app", name)]), spec);
        w.replicas = rng.gen_range(0..4u32);
        if rng.gen_bool(0.2) {
            w = w.with_kind(WorkloadKind::DaemonSet);
        }
        Object::Workload(w)
    }

    /// Service names of the random streams: shared across releases and with
    /// workloads, so same-named services coexist.
    const SERVICE_NAMES: [&str; 4] = ["web", "api", "shared", "denied"];

    /// A service drawn from [`SERVICE_NAMES`], headless at times, selecting
    /// the workloads of its name.
    fn random_service(rng: &mut StdRng) -> Object {
        let namespace = ["default", "prod"][rng.gen_range(0..2usize)];
        let name = SERVICE_NAMES[rng.gen_range(0..SERVICE_NAMES.len())];
        let meta = ij_model::ObjectMeta::named(name).in_namespace(namespace);
        let selector = Labels::from_pairs([("app", name)]);
        let ports = vec![ij_model::ServicePort::tcp(8080)];
        Object::Service(if rng.gen_bool(0.3) {
            Service::headless(meta, selector, ports)
        } else {
            Service::cluster_ip(meta, selector, ports)
        })
    }

    /// A pod-defining object, or at times a service.
    fn random_object(rng: &mut StdRng) -> Object {
        if rng.gen_bool(0.3) {
            random_service(rng)
        } else {
            random_definer(rng)
        }
    }

    /// After every reconcile the full-scan oracle finds nothing left to
    /// start or reap, and a second reconcile neither bumps the generation
    /// nor records a dirty entry.
    fn assert_converged(cluster: &mut Cluster, context: &str) {
        let (start, reap) = full_scan_plan(cluster);
        assert!(reap.is_empty(), "{context}: full scan would reap {reap:?}");
        if cluster.nodes().is_empty() {
            assert!(cluster.pods().is_empty());
            // Nothing can start, so every object desiring pods stays
            // pending for the next reconcile.
            for o in cluster.objects() {
                let desires_pods = match o {
                    Object::Workload(w) => w.kind != WorkloadKind::DaemonSet && w.replicas > 0,
                    Object::Pod(_) => true,
                    _ => false,
                };
                if desires_pods {
                    assert!(
                        cluster
                            .pending
                            .iter()
                            .any(|&pos| cluster.objects[pos].qualified_name()
                                == o.qualified_name()),
                        "{context}: {} dropped from the pending set",
                        o.qualified_name()
                    );
                }
            }
        } else {
            assert!(
                start.is_empty(),
                "{context}: full scan would start {start:?}"
            );
        }
        let generation = cluster.generation();
        cluster.reconcile();
        assert_eq!(
            cluster.generation(),
            generation,
            "{context}: second reconcile"
        );
        assert!(cluster.dirty_since(generation).is_clean(), "{context}");
    }

    /// Uninstalls `release` and checks the reap against a full scan of a
    /// snapshot taken before it: the pods a removed pod-defining object
    /// may have expanded to that no remaining object desires go, and every
    /// other pod stays as it was, in order. Returns the number reaped.
    fn uninstall_checked(cluster: &mut Cluster, release: &str, context: &str) -> usize {
        let in_release = |o: &Object| {
            o.meta()
                .annotations
                .get(RELEASE_ANNOTATION)
                .map(String::as_str)
                == Some(release)
        };
        let pod_row = |rp: &RunningPod| (rp.qualified_name(), rp.node.clone(), rp.ip);
        let expected: Vec<_> = cluster
            .pods()
            .iter()
            .filter(|rp| {
                let meta = &rp.pod.meta;
                let removed = cluster.objects().iter().any(|o| {
                    in_release(o)
                        && definer_meta(o).is_some()
                        && may_define(&o.qualified_name(), meta)
                });
                let desired = cluster
                    .objects()
                    .iter()
                    .any(|o| !in_release(o) && desires(o, cluster.nodes(), meta));
                !removed || desired
            })
            .map(pod_row)
            .collect();
        let before = cluster.pods().len();
        cluster.uninstall(release);
        assert!(
            !cluster.objects().iter().any(in_release),
            "{context}: uninstall left objects of {release}"
        );
        let kept: Vec<_> = cluster.pods().iter().map(pod_row).collect();
        assert_eq!(kept, expected, "{context}: uninstall of {release}");
        before - kept.len()
    }

    /// `(qualified name, node, IP)` of a running pod: unique in the random
    /// streams, whose pods never use the host network.
    fn pod_row(rp: &RunningPod) -> (String, String, Ipv4Addr) {
        (rp.qualified_name(), rp.node.clone(), rp.ip)
    }

    /// What an apply or install came to.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Applied,
        Conflict,
        Denied,
    }

    impl Outcome {
        fn of<T>(result: Result<T, InstallError>) -> Outcome {
            match result {
                Ok(_) => Outcome::Applied,
                Err(InstallError::Conflict { .. }) => Outcome::Conflict,
                Err(InstallError::Denied { .. }) => Outcome::Denied,
            }
        }
    }

    /// A plain-`Vec` model of what [`Cluster::objects`] and
    /// [`Cluster::pods`] must list: objects in apply order, pods in start
    /// order, whatever tombstones or compactions lie beneath.
    #[derive(Default)]
    struct Reference {
        objects: Vec<Object>,
        pods: Vec<(String, String, Ipv4Addr)>,
        /// Objects the applied steps replaced in place.
        replaced: usize,
    }

    impl Reference {
        /// Applies `objects` as one step of `release` (`None`: a plain
        /// apply, unstamped). Each replaces the live object of its kind,
        /// namespace and name, which must belong to the same release, or
        /// else is appended; a conflict, or an object [`DenyNamed`] denies,
        /// undoes the whole step.
        fn apply(&mut self, release: Option<&str>, objects: &[Object]) -> Outcome {
            let mut next = self.objects.clone();
            let mut replaced = 0;
            for object in objects {
                let mut object = object.clone();
                if let Some(release) = release {
                    object
                        .meta_mut()
                        .annotations
                        .insert(RELEASE_ANNOTATION.to_string(), release.to_string());
                }
                let live = next.iter().position(|o| {
                    o.kind() == object.kind()
                        && o.meta().namespace == object.meta().namespace
                        && o.meta().name == object.meta().name
                });
                if live.is_some_and(|pos| release_name(&next[pos]) != release_name(&object)) {
                    return Outcome::Conflict;
                }
                if object.meta().name == "denied" {
                    return Outcome::Denied;
                }
                match live {
                    Some(pos) => {
                        next[pos] = object;
                        replaced += 1;
                    }
                    None => next.push(object),
                }
            }
            self.objects = next;
            self.replaced += replaced;
            Outcome::Applied
        }

        fn uninstall(&mut self, release: &str) {
            self.objects.retain(|o| release_name(o) != Some(release));
        }

        /// `kubectl scale` hits the first workload so named.
        fn scale(&mut self, namespace: &str, name: &str, replicas: u32) {
            let first = self.objects.iter_mut().find_map(|o| match o {
                Object::Workload(w) if w.meta.namespace == namespace && w.meta.name == name => {
                    Some(w)
                }
                _ => None,
            });
            if let Some(w) = first {
                w.replicas = replicas;
            }
        }

        /// Compares the cluster with the model after a step: the objects
        /// must match exactly, but for the ClusterIPs the cluster filled
        /// in; the pods that survived must keep their order ahead of the
        /// ones the step started. Returns how many pods the step started
        /// and how many it took out.
        fn check(&mut self, cluster: &Cluster, context: &str) -> (usize, usize) {
            let objects: Vec<Object> = cluster
                .objects()
                .iter()
                .cloned()
                .map(|mut o| {
                    if let Object::Service(s) = &mut o {
                        s.spec.cluster_ip = None;
                    }
                    o
                })
                .collect();
            assert!(
                objects == self.objects,
                "{context}: objects() differs from the reference"
            );
            assert_eq!(cluster.objects().len(), self.objects.len(), "{context}");
            let rows: Vec<_> = cluster.pods().iter().map(pod_row).collect();
            assert_eq!(rows.len(), cluster.pods().len(), "{context}");
            let before = self.pods.len();
            self.pods.retain(|row| rows.contains(row));
            let kept = self.pods.len();
            assert_eq!(rows[..kept], self.pods, "{context}: surviving pods");
            self.pods = rows;
            (self.pods.len() - kept, before - kept)
        }
    }

    /// The step mix of a random stream: the cumulative upper bounds (out of
    /// 100) of apply, install, scale, uninstall, uninstall-all and restart;
    /// the rest reconciles.
    type Mix = [u32; 6];

    /// Tallies of the random streams.
    #[derive(Default)]
    struct StreamStats {
        starts: usize,
        reaps: usize,
        uninstall_reaps: usize,
        /// Uninstalls whose compaction moved objects while `pending` held
        /// entries.
        loaded_compactions: usize,
        /// Objects applies and installs replaced in place.
        replaced: usize,
        /// Installs rolled back on a conflict with another release.
        conflicts: usize,
    }

    impl StreamStats {
        /// Panics unless both identity arms ran often enough to matter.
        fn assert_identity_arms(&self) {
            assert!(
                self.replaced >= 100 && self.conflicts >= 20,
                "{} replacements and {} conflict rollbacks",
                self.replaced,
                self.conflicts
            );
        }
    }

    /// The releases a random stream installs.
    const RELEASES: [&str; 3] = ["r1", "r2", "r3"];

    /// Drives one random stream of `steps` steps, checking the release
    /// index, object identity, the addresses and the reference model after
    /// each.
    fn random_stream(nodes: usize, seed: u64, steps: usize, mix: Mix, stats: &mut StreamStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes,
            seed,
            behaviors: BehaviorRegistry::new(),
        });
        cluster.push_admission(Box::new(DenyNamed));
        let mut reference = Reference::default();
        for step in 0..steps {
            let context = format!("nodes {nodes}, seed {seed}, step {step}");
            let mut sweep = false;
            let release = RELEASES[rng.gen_range(0..RELEASES.len())];
            let roll = rng.gen_range(0..100u32);
            if roll < mix[0] {
                let object = random_object(&mut rng);
                let outcome = Outcome::of(cluster.apply(object.clone()));
                assert_eq!(outcome, reference.apply(None, &[object]), "{context}");
            } else if roll < mix[1] {
                let objects: Vec<Object> = (0..rng.gen_range(1..4usize))
                    .map(|_| random_object(&mut rng))
                    .collect();
                let outcome = Outcome::of(cluster.install_objects(release, &objects));
                assert_eq!(
                    outcome,
                    reference.apply(Some(release), &objects),
                    "{context}"
                );
                match outcome {
                    Outcome::Applied => assert_converged(&mut cluster, &context),
                    Outcome::Conflict => stats.conflicts += 1,
                    Outcome::Denied => {}
                }
            } else if roll < mix[2] {
                let namespace = ["default", "prod"][rng.gen_range(0..2usize)];
                let name = ["web", "api", "web-1"][rng.gen_range(0..3usize)];
                let replicas = rng.gen_range(0..4u32);
                cluster.scale_workload(&format!("{namespace}/{name}"), replicas);
                reference.scale(namespace, name, replicas);
            } else if roll < mix[3] {
                let loaded = !cluster.pending.is_empty();
                let moved = cluster.objects.moved;
                stats.uninstall_reaps += uninstall_checked(&mut cluster, release, &context);
                reference.uninstall(release);
                sweep = true;
                if loaded && cluster.objects.moved > moved {
                    stats.loaded_compactions += 1;
                }
            } else if roll < mix[4] {
                // Empties the cluster of every release the stream installs.
                for release in RELEASES {
                    stats.uninstall_reaps += uninstall_checked(&mut cluster, release, &context);
                    reference.uninstall(release);
                }
                sweep = true;
            } else if roll < mix[5] {
                cluster.restart_pods();
            } else {
                cluster.reconcile();
                assert_converged(&mut cluster, &context);
            }
            let (started, gone) = reference.check(&cluster, &context);
            stats.starts += started;
            if !sweep {
                stats.reaps += gone;
            }
            let mut names: Vec<String> = cluster
                .pods()
                .iter()
                .map(|rp| rp.qualified_name())
                .collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(
                names.len(),
                before,
                "{context}: two running pods share a name"
            );
            cluster.assert_index_exact(&context);
            cluster.assert_identity_and_addresses(&SERVICE_NAMES, &context);
        }
        stats.replaced += reference.replaced;
        cluster.reconcile();
        let context = format!("nodes {nodes}, seed {seed}, end");
        assert_converged(&mut cluster, &context);
        let (started, reaped) = reference.check(&cluster, &context);
        stats.starts += started;
        stats.reaps += reaped;
    }

    #[test]
    fn scoped_reconcile_matches_the_full_scan_oracle() {
        let mut stats = StreamStats::default();
        for nodes in [3, 0] {
            for seed in 0..256u64 {
                random_stream(nodes, seed, 80, [20, 45, 60, 75, 78, 85], &mut stats);
            }
        }
        assert!(
            stats.starts > 0 && stats.reaps > 0 && stats.uninstall_reaps > 0,
            "the streams must start and reap pods"
        );
        stats.assert_identity_arms();
    }

    /// Longer streams with more uninstalls and almost no uninstall-alls: the slots
    /// fill with tombstones and compact many times, also while `pending`
    /// holds live entries that must be remapped.
    #[test]
    fn long_streams_compact_under_the_oracle() {
        let mut stats = StreamStats::default();
        for nodes in [3, 0] {
            for seed in 0..24u64 {
                random_stream(nodes, seed, 400, [25, 50, 62, 92, 93, 96], &mut stats);
            }
        }
        assert!(
            stats.loaded_compactions >= 20,
            "only {} compactions ran with pending entries",
            stats.loaded_compactions
        );
        stats.assert_identity_arms();
    }

    /// Removal work follows the removal: over install, uninstall and
    /// scale-to-zero churn, compactions move at most two slots per removed
    /// object or pod, and a call that reaps pods moves each surviving
    /// pod-index entry at most once, at 25 releases as at 400. Shifting the
    /// later entries down on every removal would move about half the
    /// cluster each time.
    #[test]
    fn removal_work_follows_the_release_not_the_cluster() {
        for releases in [25usize, 400] {
            let mut rng = StdRng::seed_from_u64(releases as u64);
            let mut cluster = Cluster::new(ClusterConfig::default());
            let objects = |r: usize| {
                let name = format!("app{r}");
                let labels = Labels::from_pairs([("app", name.as_str())]);
                let spec = ij_model::PodSpec {
                    containers: vec![ij_model::Container::new("c", "img")],
                    ..Default::default()
                };
                let meta = ij_model::ObjectMeta::named(name.as_str());
                let mut w = Workload::deployment(meta.clone(), labels.clone(), spec);
                w.replicas = 2;
                let service =
                    Service::cluster_ip(meta, labels, vec![ij_model::ServicePort::tcp(80)]);
                vec![Object::Workload(w), Object::Service(service)]
            };
            for r in 0..releases {
                cluster
                    .install_objects(&format!("r{r}"), &objects(r))
                    .unwrap();
            }
            let (mut removed_objects, mut removed_pods) = (0, 0);
            // Pod-index entries one reaping call moved, against the
            // entries that survived it.
            let entries_moved = |cluster: &mut Cluster, reap: &mut dyn FnMut(&mut Cluster)| {
                let moved = cluster.release_index.moved_entries;
                reap(cluster);
                let moved = cluster.release_index.moved_entries - moved;
                assert!(
                    moved <= cluster.pods().len(),
                    "{releases} releases: {moved} pod-index entries moved for {} surviving",
                    cluster.pods().len()
                );
                moved
            };
            let mut moved_entries = 0;
            for _ in 0..4 * releases {
                let r = rng.gen_range(0..releases);
                let (release, workload) = (format!("r{r}"), format!("default/app{r}"));
                let (objects_before, pods_before) = (cluster.objects().len(), cluster.pods().len());
                if rng.gen_bool(0.5) {
                    moved_entries += entries_moved(&mut cluster, &mut |c| c.uninstall(&release));
                    removed_objects += objects_before - cluster.objects().len();
                    removed_pods += pods_before - cluster.pods().len();
                    cluster.install_objects(&release, &objects(r)).unwrap();
                } else {
                    cluster.scale_workload(&workload, 0);
                    moved_entries += entries_moved(&mut cluster, &mut Cluster::reconcile);
                    removed_pods += pods_before - cluster.pods().len();
                    cluster.scale_workload(&workload, 2);
                    cluster.reconcile();
                }
            }
            assert!(
                moved_entries > 0,
                "{releases} releases: no reap moved an entry"
            );
            cluster.assert_index_exact(&format!("{releases} releases"));
            let (moved_objects, moved_pods) = (cluster.objects.moved, cluster.pods.moved);
            assert!(removed_objects > 0 && removed_pods > 0);
            assert!(
                moved_objects > 0 && moved_pods > 0,
                "{releases} releases: the churn must compact"
            );
            assert!(
                moved_objects <= 2 * removed_objects,
                "{releases} releases: {moved_objects} object slots moved for {removed_objects} removed"
            );
            assert!(
                moved_pods <= 2 * removed_pods,
                "{releases} releases: {moved_pods} pod slots moved for {removed_pods} reaped"
            );
        }
    }

    /// A workload `web` of one replica and a bare pod `web-0`, applied
    /// before the same reconcile, both desire `default/web-0`: the workload
    /// comes first and starts it, the bare pod starts nothing.
    #[test]
    fn one_reconcile_starts_one_pod_per_name() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let spec = ij_model::PodSpec {
            containers: vec![ij_model::Container::new("c", "img")],
            ..Default::default()
        };
        let labels = Labels::from_pairs([("app", "web")]);
        let mut web = Workload::deployment(
            ij_model::ObjectMeta::named("web"),
            labels.clone(),
            spec.clone(),
        );
        web.replicas = 1;
        let bare = Pod::new(
            ij_model::ObjectMeta::named("web-0").with_labels(labels),
            spec,
        );
        cluster.apply(Object::Pod(bare)).unwrap();
        cluster.apply(Object::Workload(web)).unwrap();
        cluster.reconcile();
        let pods: Vec<String> = cluster
            .pods()
            .iter()
            .map(|rp| rp.qualified_name())
            .collect();
        assert_eq!(pods, ["default/web-0"]);
        assert_eq!(cluster.pod_ips.fresh, 1, "one start drew one address");
        let owner = cluster.pods().iter().next().and_then(|rp| rp.owner.clone());
        assert_eq!(
            owner.as_deref(),
            Some("default/web"),
            "the workload comes first"
        );
    }

    /// A pool hands out fresh addresses first, then the lowest released
    /// one, and nothing once every address is held.
    #[test]
    fn address_pool_reuses_the_lowest_released_address_once_spent() {
        let mut pool = AddressPool::new([10, 244], 4);
        let mut take = || pool.allocate().map(|ip| ip.to_string());
        let fresh: Vec<_> = (0..4).map(|_| take().unwrap()).collect();
        assert_eq!(
            fresh,
            ["10.244.0.2", "10.244.0.3", "10.244.0.4", "10.244.0.5"]
        );
        assert_eq!(take(), None, "exhausted");
        for ip in ["10.244.0.4", "10.244.0.2"] {
            pool.release(ip.parse().unwrap());
        }
        let mut take = || pool.allocate().map(|ip| ip.to_string());
        assert_eq!(take().as_deref(), Some("10.244.0.2"));
        assert_eq!(take().as_deref(), Some("10.244.0.4"));
        assert_eq!(take(), None);
        // The production pool spans the /16 and numbers across its blocks.
        let mut pool = AddressPool::new([10, 96], POOL_CAPACITY);
        let last = (0..POOL_CAPACITY).map(|_| pool.allocate().unwrap()).last();
        assert_eq!(last, Some(Ipv4Addr::new(10, 96, 255, 254)));
        pool.release(Ipv4Addr::new(10, 96, 1, 1));
        assert_eq!(pool.allocate(), Some(Ipv4Addr::new(10, 96, 1, 1)));
        assert_eq!(pool.allocate(), None);
    }

    /// Reaped pods and removed services give their addresses back:
    /// a cluster that has spent its pod network starts pods again once
    /// others are reaped, and stays Pending while none is free.
    #[test]
    fn reaped_pods_and_removed_services_return_their_addresses() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        cluster.pod_ips = AddressPool::new([10, 244], 2);
        cluster.cluster_ips = AddressPool::new([10, 96], 1);
        cluster.pod_ips.fresh = 2;
        cluster.cluster_ips.fresh = 1;
        let rendered = demo_chart().render(&Release::new("e", "default")).unwrap();
        cluster.install(&rendered).unwrap();
        assert_eq!(cluster.pods().len(), 2, "e's pods wait for addresses");
        assert_eq!(cluster.cluster_ip("default", "e-web"), None);
        cluster.uninstall("e");
        cluster.uninstall("d");
        cluster.install(&rendered).unwrap();
        let ips: Vec<String> = cluster.pods().iter().map(|rp| rp.ip.to_string()).collect();
        assert_eq!(ips, ["10.244.0.2", "10.244.0.3"]);
        assert_eq!(
            cluster.cluster_ip("default", "e-web"),
            Some(Ipv4Addr::new(10, 96, 0, 2))
        );
        cluster.uninstall("e");
        assert_eq!(cluster.pod_ips.released.len(), 2);
        assert_eq!(cluster.cluster_ips.released.len(), 1);
    }

    /// A service committed while the ClusterIP pool is spent waits, and
    /// the next reconcile after an address frees gives it that address,
    /// dirtying its release.
    #[test]
    fn a_service_waiting_for_a_cluster_ip_gets_one_once_an_address_frees() {
        let mut cluster = install_demo(BehaviorRegistry::new());
        cluster.cluster_ips = AddressPool::new([10, 96], 1);
        cluster.cluster_ips.fresh = 1;
        let rendered = demo_chart().render(&Release::new("e", "default")).unwrap();
        cluster.install(&rendered).unwrap();
        assert_eq!(cluster.cluster_ip("default", "e-web"), None);
        cluster.reconcile();
        assert_eq!(cluster.cluster_ip("default", "e-web"), None, "none free");
        cluster.uninstall("d");
        let cursor = cluster.generation();
        cluster.reconcile();
        assert_eq!(
            cluster.cluster_ip("default", "e-web"),
            Some(Ipv4Addr::new(10, 96, 0, 2))
        );
        let summary = cluster.dirty_since(cursor);
        assert!(summary.apps.iter().eq(["e"]), "{:?}", summary.apps);
        cluster.assert_index_exact("after the retry");
        assert!(cluster.pending.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut behaviors = BehaviorRegistry::new();
            behaviors.register(
                "demo/web",
                ContainerBehavior::Listeners(vec![ListenerSpec::ephemeral()]),
            );
            let cluster = install_demo(behaviors);
            cluster.pods().iter().next().unwrap().sockets[0].port
        };
        assert_eq!(mk(), mk());
    }
}
