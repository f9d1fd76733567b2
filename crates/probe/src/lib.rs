//! # ij-probe — runtime analysis of a (simulated) cluster
//!
//! Implements the paper's runtime-analysis methodology (§4.2), modelled on
//! Kubesonde: after installing an application into a fresh cluster, observe
//! each pod's open sockets from the network side, then repeat the
//! observation after a restart to separate stable ports from dynamic
//! (ephemeral) ones. Two special cases get the same treatment as in the
//! paper:
//!
//! * **Host network (M7):** a `hostNetwork` pod's snapshot contains every
//!   socket on its node. A pre-install [`HostBaseline`] is captured and
//!   subtracted so node daemons are not attributed to the application
//!   (§4.2.2).
//! * **UDP flakiness (§5.1.2):** the real probe sporadically reported
//!   random UDP ports; those false positives amounted to ~8% of the raw
//!   findings. The same pathology is injected here (seeded), and the
//!   double-run filter removes single-occurrence ephemeral-range UDP ports.
//!   Both the injection rate and the filter are configurable so the
//!   false-positive ablation can be reproduced.
//!
//! The crate also provides the batch reachability matrix ([`ReachMatrix`])
//! behind the paper's §4.3.2 network-policy impact study: the full
//! src × dst × socket reachability computed in one pass over the cluster's
//! cached policy index, bit-for-bit identical to the sequential per-pair
//! probe it replaced.

mod baseline;
mod matrix;
mod reach;
mod report;
mod snapshot;
mod topology;

pub use baseline::HostBaseline;
pub use matrix::ReachMatrix;
pub use reach::{reachable_pod_endpoints, ReachableEndpoint};
pub use report::{PodRuntime, RuntimeReport};
pub use snapshot::{ObservedSocket, ProbeConfig, RuntimeAnalyzer, Snapshot};
pub use topology::connectivity_dot;
