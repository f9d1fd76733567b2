//! Deterministic churn workloads: the mutation traffic the continuous-audit
//! serve mode replays against a tenant cluster.
//!
//! A [`ChurnSession`] draws applications from the same scenario matrix as
//! the synthetic corpus ([`CorpusGenerator`]) and emits a seeded stream of
//! [`ChurnMutation`]s — installs, uninstalls, label flips (helm-upgrade
//! style reinstalls with a toggled `part-of` marker), policy additions and
//! scale events. The stream is a pure function of the profile (name, seed,
//! app horizon): two sessions over the same profile produce byte-identical
//! mutations, which is what makes serve-mode runs and the `audit_churn`
//! bench reproducible.
//!
//! Mutations carry everything needed to apply them, so
//! [`apply_mutation`] is a stateless function of `(cluster, mutation)` —
//! the property tests replay one recorded stream against two clusters and
//! demand identical findings.

use crate::builder::{build_app, INSTANCE_KEY};
use crate::gen::CorpusGenerator;
use crate::pipeline::CensusError;
use crate::spec::AppSpec;
use ij_chart::Release;
use ij_cluster::{Cluster, RELEASE_ANNOTATION};
use ij_model::{LabelSelector, Labels, NetworkPolicy, Object, ObjectMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The `part-of` marker a [`ChurnMutation::LabelFlip`] toggles on an
/// application, moving it in and out of cluster-wide `M4*` collision
/// groups.
pub const FLIP_TOKEN: &str = "churn-hotfix";

/// Keep at least this many applications installed before the session rolls
/// destructive mutations.
const MIN_INSTALLED: usize = 3;

/// One step of the churn workload. Carries everything needed to apply it,
/// so application is stateless and replayable.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnMutation {
    /// Install a fresh application from the scenario matrix.
    Install {
        /// The generated specification to build and install.
        spec: AppSpec,
    },
    /// Uninstall a currently installed application.
    Uninstall {
        /// Release name.
        app: String,
    },
    /// Toggle the [`FLIP_TOKEN`] marker and reinstall (helm-upgrade
    /// semantics: the release's objects are replaced wholesale).
    LabelFlip {
        /// Release name.
        app: String,
        /// The updated specification after the flip.
        spec: AppSpec,
    },
    /// Apply a deny-all-ingress NetworkPolicy selecting the application's
    /// instance label, stamped with its release annotation.
    PolicyAdd {
        /// Release name.
        app: String,
        /// Qualified-unique policy object name.
        policy: String,
    },
    /// Scale the application's main server workload.
    Scale {
        /// Release name.
        app: String,
        /// Qualified workload name (`namespace/name`).
        workload: String,
        /// New replica count (0 is a deliberate scale-to-zero).
        replicas: u32,
    },
}

impl ChurnMutation {
    /// Short mutation class label for stats and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            ChurnMutation::Install { .. } => "install",
            ChurnMutation::Uninstall { .. } => "uninstall",
            ChurnMutation::LabelFlip { .. } => "label-flip",
            ChurnMutation::PolicyAdd { .. } => "policy-add",
            ChurnMutation::Scale { .. } => "scale",
        }
    }

    /// The release the mutation targets.
    pub fn app(&self) -> &str {
        match self {
            ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } => &spec.name,
            ChurnMutation::Uninstall { app }
            | ChurnMutation::PolicyAdd { app, .. }
            | ChurnMutation::Scale { app, .. } => app,
        }
    }
}

/// A seeded mutation stream over a corpus profile. The profile's app count
/// is the install horizon — the maximum number of distinct applications the
/// session can have installed simultaneously; sizing it at or above the
/// planned mutation count guarantees installs never starve.
#[derive(Debug, Clone)]
pub struct ChurnSession {
    generator: CorpusGenerator,
    rng: StdRng,
    installed: BTreeMap<String, AppSpec>,
    next_index: usize,
    policy_seq: usize,
}

impl ChurnSession {
    /// Wraps a profile (see [`CorpusProfile`](crate::CorpusProfile)); the
    /// mutation stream derives entirely from its name, seed and app count.
    pub fn new(generator: CorpusGenerator) -> Self {
        // Decorrelate the mutation rolls from per-app generation (which
        // uses the same base seed) via one splitmix64 round.
        let mut x = generator.profile().seed() ^ 0x6368_7572_6e5f_6d75; // "churn_mu"
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ChurnSession {
            generator,
            rng: StdRng::seed_from_u64(x ^ (x >> 31)),
            installed: BTreeMap::new(),
            next_index: 0,
            policy_seq: 0,
        }
    }

    /// Applications currently installed, by release name.
    pub fn installed(&self) -> impl Iterator<Item = &str> {
        self.installed.keys().map(String::as_str)
    }

    /// Marks the first `n` generator specs as installed and returns the
    /// corresponding [`ChurnMutation::Install`]s for the caller to apply —
    /// how the `audit_churn` bench starts from a populated steady state.
    pub fn preinstall(&mut self, n: usize) -> Vec<ChurnMutation> {
        (0..n)
            .filter_map(|_| self.next_install())
            .map(|spec| ChurnMutation::Install { spec })
            .collect()
    }

    /// The next not-yet-installed spec from the horizon, in index order
    /// (wrapping over slots freed by uninstalls).
    fn next_install(&mut self) -> Option<AppSpec> {
        let len = self.generator.len();
        for _ in 0..len {
            let idx = self.next_index % len;
            self.next_index += 1;
            let spec = self.generator.spec(idx);
            if !self.installed.contains_key(&spec.name) {
                self.installed.insert(spec.name.clone(), spec.clone());
                return Some(spec);
            }
        }
        None
    }

    /// A currently installed release, drawn uniformly.
    fn pick_app(&mut self) -> Option<String> {
        if self.installed.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.installed.len());
        self.installed.keys().nth(idx).cloned()
    }

    /// Draws the next mutation and updates the session's bookkeeping. The
    /// mix: ~30% installs (forced while fewer than three apps are
    /// installed), ~20% uninstalls, ~20% label flips, ~15% policy
    /// additions, ~15% scale events.
    pub fn next_mutation(&mut self) -> ChurnMutation {
        let roll: u32 = self.rng.gen_range(0u32..100);
        if self.installed.len() < MIN_INSTALLED || roll < 30 {
            if let Some(spec) = self.next_install() {
                return ChurnMutation::Install { spec };
            }
        }
        let app = self
            .pick_app()
            .expect("churn session always keeps apps installed");
        match roll {
            0..=49 => {
                self.installed.remove(&app);
                ChurnMutation::Uninstall { app }
            }
            50..=69 => {
                let mut spec = self.installed.get(&app).cloned().expect("picked installed");
                match spec
                    .plan
                    .m4star_tokens
                    .iter()
                    .position(|t| *t == FLIP_TOKEN)
                {
                    Some(pos) => {
                        spec.plan.m4star_tokens.remove(pos);
                    }
                    None => spec.plan.m4star_tokens.push(FLIP_TOKEN),
                }
                self.installed.insert(app.clone(), spec.clone());
                ChurnMutation::LabelFlip { app, spec }
            }
            70..=84 => {
                self.policy_seq += 1;
                let policy = format!("{app}-churn-deny-{}", self.policy_seq);
                ChurnMutation::PolicyAdd { app, policy }
            }
            _ => {
                let replicas = [0u32, 1, 2, 3][self.rng.gen_range(0..4usize)];
                let workload = format!("default/{app}-server");
                ChurnMutation::Scale {
                    app,
                    workload,
                    replicas,
                }
            }
        }
    }
}

/// Applies one mutation to a cluster: builds, renders and installs for
/// [`ChurnMutation::Install`]/[`ChurnMutation::LabelFlip`], and reconciles
/// after scale events. Stateless — the mutation carries everything.
pub fn apply_mutation(cluster: &mut Cluster, mutation: &ChurnMutation) -> Result<(), CensusError> {
    match mutation {
        ChurnMutation::Install { spec } => install_spec(cluster, spec),
        ChurnMutation::Uninstall { app } => {
            cluster.uninstall(app);
            Ok(())
        }
        ChurnMutation::LabelFlip { app, spec } => {
            cluster.uninstall(app);
            install_spec(cluster, spec)
        }
        ChurnMutation::PolicyAdd { app, policy } => {
            let mut meta = ObjectMeta::named(policy.as_str());
            meta.annotations
                .insert(RELEASE_ANNOTATION.to_string(), app.clone());
            let selector =
                LabelSelector::from_labels(Labels::from_pairs([(INSTANCE_KEY, app.as_str())]));
            cluster
                .apply(Object::NetworkPolicy(NetworkPolicy::deny_all_ingress(
                    meta, selector,
                )))
                .map(|_| ())
                .map_err(|source| CensusError::Install {
                    app: app.clone(),
                    source,
                })
        }
        ChurnMutation::Scale {
            workload, replicas, ..
        } => {
            cluster.scale_workload(workload, *replicas);
            cluster.reconcile();
            Ok(())
        }
    }
}

fn install_spec(cluster: &mut Cluster, spec: &AppSpec) -> Result<(), CensusError> {
    let built = build_app(spec);
    for (image, behavior) in &built.behaviors {
        cluster.register_behavior(image.clone(), behavior.clone());
    }
    let rendered = built
        .compiled()
        .map_err(|source| CensusError::Render {
            app: spec.name.clone(),
            source,
        })?
        .render(&Release::new(&spec.name, "default"))
        .map_err(|source| CensusError::Render {
            app: spec.name.clone(),
            source,
        })?;
    cluster
        .install_owned(&rendered.release_name, rendered.objects)
        .map(|_| ())
        .map_err(|source| CensusError::Install {
            app: spec.name.clone(),
            source,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusProfile;
    use ij_cluster::{BehaviorRegistry, ClusterConfig};

    fn session(seed: u64, horizon: usize) -> ChurnSession {
        ChurnSession::new(CorpusGenerator::new(
            CorpusProfile::named("baseline")
                .expect("known profile")
                .with_apps(horizon)
                .with_seed(seed),
        ))
    }

    fn fresh_cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: 3,
            seed: 11,
            behaviors: BehaviorRegistry::new(),
        })
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let mut a = session(7, 64);
        let mut b = session(7, 64);
        for _ in 0..50 {
            assert_eq!(a.next_mutation(), b.next_mutation());
        }
        let mut c = session(8, 64);
        let differs = (0..50).any(|_| a.next_mutation() != c.next_mutation());
        assert!(differs, "different seeds must diverge");
    }

    #[test]
    fn mutations_apply_cleanly_and_cover_every_kind() {
        let mut session = session(42, 128);
        let mut cluster = fresh_cluster();
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..120 {
            let mutation = session.next_mutation();
            kinds.insert(mutation.kind());
            apply_mutation(&mut cluster, &mutation).expect("churn mutations must apply");
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["install", "label-flip", "policy-add", "scale", "uninstall"],
            "the stream exercises the full mutation matrix"
        );
        // Session bookkeeping mirrors the cluster's installed releases.
        let installed: std::collections::BTreeSet<&str> = session.installed().collect();
        assert!(!installed.is_empty());
        for app in &installed {
            assert!(
                cluster.objects().iter().any(|o| o
                    .meta()
                    .annotations
                    .get(RELEASE_ANNOTATION)
                    .map(String::as_str)
                    == Some(app)),
                "installed app {app} has objects in the cluster"
            );
        }
    }

    #[test]
    fn label_flip_toggles_the_marker_token() {
        let mut s = session(3, 32);
        // Drive until a label flip shows up, applying everything.
        let mut cluster = fresh_cluster();
        for _ in 0..200 {
            let m = s.next_mutation();
            apply_mutation(&mut cluster, &m).unwrap();
            if let ChurnMutation::LabelFlip { app, spec } = &m {
                let count = spec
                    .plan
                    .m4star_tokens
                    .iter()
                    .filter(|t| **t == FLIP_TOKEN)
                    .count();
                assert!(count <= 1, "flip must toggle, not accumulate, for {app}");
                return;
            }
        }
        panic!("no label flip in 200 mutations");
    }

    #[test]
    fn preinstall_populates_without_duplicates() {
        let mut s = session(5, 16);
        let mutations = s.preinstall(10);
        assert_eq!(mutations.len(), 10);
        let mut cluster = fresh_cluster();
        for m in &mutations {
            assert!(matches!(m, ChurnMutation::Install { .. }));
            apply_mutation(&mut cluster, m).unwrap();
        }
        assert_eq!(s.installed().count(), 10);
        // The horizon caps distinct concurrent installs.
        assert_eq!(s.preinstall(100).len(), 6);
    }
}
