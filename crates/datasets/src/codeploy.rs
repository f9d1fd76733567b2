//! The co-deployment harness shared by the cross-app experiments: the
//! §4.3.2 policy-impact study (Figure 4b), the §4.4 tool comparison
//! (Table 3) and the defense ablation all deploy charts side by side,
//! optionally next to an unrelated attacker pod, and count the
//! misconfigured sockets that pod can reach.

use crate::builder::BuiltApp;
use crate::pipeline::CensusError;
use ij_chart::{Release, RenderedRelease};
use ij_cluster::Cluster;
use ij_core::StaticModel;
use ij_model::{Container, Object, ObjectMeta, Pod, PodSpec, Protocol};
use ij_probe::ReachMatrix;

/// The attacker pod [`co_deploy`] adds: an unrelated workload in the
/// `default` namespace, the vantage point [`exposure`] counts from.
pub const ATTACKER: &str = "default/ij-attacker";

/// Deploys `apps` into one cluster. Every app's behaviours are registered
/// first; then each app's compiled chart is rendered as release
/// `<app name>` in `default`, with the app's values overlay (YAML) when it
/// has one, and installed, in order. With `attacker`, the [`ATTACKER`] pod
/// is applied and the cluster reconciled. Returns each app's rendered
/// release, in order.
pub fn co_deploy(
    cluster: &mut Cluster,
    apps: &[(&BuiltApp, Option<&str>)],
    attacker: bool,
) -> Result<Vec<RenderedRelease>, CensusError> {
    for (built, _) in apps {
        for (image, behavior) in &built.behaviors {
            cluster.register_behavior(image.clone(), behavior.clone());
        }
    }
    let mut rendered = Vec::with_capacity(apps.len());
    for (built, overlay) in apps {
        let app = &built.spec.name;
        let render_err = |source| CensusError::Render {
            app: app.clone(),
            source,
        };
        let mut release = Release::new(app, "default");
        if let Some(yaml) = overlay {
            release = release.with_values_yaml(yaml).map_err(render_err)?;
        }
        let release = built
            .compiled()
            .and_then(|compiled| compiled.render(&release))
            .map_err(render_err)?;
        cluster
            .install(&release)
            .map_err(|source| CensusError::Install {
                app: app.clone(),
                source,
            })?;
        rendered.push(release);
    }
    if attacker {
        let (_, name) = ATTACKER.split_once('/').expect("qualified name");
        cluster
            .apply(Object::Pod(Pod::new(
                ObjectMeta::named(name),
                PodSpec {
                    containers: vec![Container::new("sh", "attacker/recon")],
                    ..Default::default()
                },
            )))
            .map_err(|source| CensusError::Install {
                app: name.to_string(),
                source,
            })?;
        cluster.reconcile();
    }
    Ok(rendered)
}

/// What the [`ATTACKER`] pod reaches of the misconfigured sockets: those
/// that are ephemeral, or that their owning unit does not declare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exposure {
    /// Reachable misconfigured sockets, over every pod.
    pub sockets: usize,
    /// Pods with at least one reachable misconfigured socket.
    pub pods: usize,
    /// Of those pods, the ones with a reachable ephemeral socket.
    pub dynamic_pods: usize,
}

/// Counts the [`Exposure`] of `cluster` with one [`ReachMatrix`] pass;
/// `statics` holds the deployed manifests. Loopback-only sockets and the
/// attacker's own are skipped; without an attacker pod nothing is
/// reachable.
pub fn exposure(cluster: &Cluster, statics: &StaticModel) -> Exposure {
    let matrix = ReachMatrix::compute(cluster);
    let mut out = Exposure::default();
    let Some(attacker) = matrix.pod_index(ATTACKER) else {
        return out;
    };
    for (dst, rp) in cluster.pods().iter().enumerate() {
        let name = rp.qualified_name();
        if name == ATTACKER {
            continue;
        }
        let (mut hit, mut dynamic) = (false, false);
        for socket in &rp.sockets {
            let misconfigured = socket.ephemeral
                || !declared(
                    statics,
                    rp.owner.as_deref(),
                    &name,
                    socket.port,
                    socket.protocol,
                );
            if socket.loopback_only
                || !misconfigured
                || !matrix.connected(attacker, dst, socket.port, socket.protocol)
            {
                continue;
            }
            out.sockets += 1;
            hit = true;
            dynamic |= socket.ephemeral;
        }
        out.pods += usize::from(hit);
        out.dynamic_pods += usize::from(dynamic);
    }
    out
}

/// Whether the unit owning pod `pod` (its `owner`, else the pod itself)
/// declares `(port, protocol)`. A unit the manifests do not describe
/// declares everything, so it is never counted as misconfigured.
pub(crate) fn declared(
    statics: &StaticModel,
    owner: Option<&str>,
    pod: &str,
    port: u16,
    protocol: Protocol,
) -> bool {
    statics
        .unit(owner.unwrap_or(pod))
        .map(|u| u.declares(port, protocol))
        .unwrap_or(true)
}
