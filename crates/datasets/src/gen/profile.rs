//! Corpus profiles: how a synthetic population is composed.
//!
//! A [`CorpusProfile`] bundles everything the generator needs — population
//! size, base seed, archetype weights, and a [`MisconfigMix`] — behind a
//! builder. The named profiles of [`CorpusProfile::named`] form the
//! scenario matrix: one profile per deployment landscape the reproduction
//! wants to study (`ij census --synthetic N --profile <name>`).

use rand::{rngs::StdRng, Rng};

use super::archetypes::Archetype;
use super::inject::MisconfigMix;

/// A complete recipe for a synthetic population. Build via
/// [`CorpusProfile::builder`] or start from a named scenario with
/// [`CorpusProfile::named`].
#[derive(Debug, Clone)]
pub struct CorpusProfile {
    name: String,
    apps: usize,
    seed: u64,
    weights: Vec<(Archetype, u32)>,
    mix: MisconfigMix,
}

impl Default for CorpusProfile {
    fn default() -> Self {
        CorpusProfile::builder().build()
    }
}

impl CorpusProfile {
    /// Starts a profile from scratch (all archetypes evenly weighted,
    /// baseline mix, 100 applications, seed 42).
    pub fn builder() -> CorpusProfileBuilder {
        CorpusProfileBuilder::default()
    }

    /// The named scenario matrix. Every name accepted by the CLI's
    /// `--profile` flag resolves here:
    ///
    /// | name | population |
    /// |---|---|
    /// | `baseline` | all five archetypes, Table-2-calibrated rates |
    /// | `mesh-heavy` | dominated by microservice meshes |
    /// | `monolith-heavy` | dominated by monoliths + sidecars |
    /// | `pipeline-heavy` | dominated by data pipelines |
    /// | `legacy` | hostNetwork-heavy estates, few policies |
    /// | `policy-mature` | tight policies, rare misconfigurations |
    pub fn named(name: &str) -> Option<CorpusProfile> {
        let builder = match name {
            "baseline" => CorpusProfile::builder(),
            "mesh-heavy" => CorpusProfile::builder()
                .weight(Archetype::MicroserviceMesh, 6)
                .weight(Archetype::Monolith, 1)
                .weight(Archetype::DataPipeline, 1)
                .weight(Archetype::HostNetworkLegacy, 1)
                .weight(Archetype::PolicyMature, 1),
            "monolith-heavy" => CorpusProfile::builder()
                .weight(Archetype::MicroserviceMesh, 1)
                .weight(Archetype::Monolith, 6)
                .weight(Archetype::DataPipeline, 1)
                .weight(Archetype::HostNetworkLegacy, 1)
                .weight(Archetype::PolicyMature, 1),
            "pipeline-heavy" => CorpusProfile::builder()
                .weight(Archetype::MicroserviceMesh, 1)
                .weight(Archetype::Monolith, 1)
                .weight(Archetype::DataPipeline, 6)
                .weight(Archetype::HostNetworkLegacy, 1)
                .weight(Archetype::PolicyMature, 1),
            "legacy" => CorpusProfile::builder()
                .weight(Archetype::MicroserviceMesh, 1)
                .weight(Archetype::Monolith, 2)
                .weight(Archetype::DataPipeline, 1)
                .weight(Archetype::HostNetworkLegacy, 5)
                .weight(Archetype::PolicyMature, 0),
            "policy-mature" => CorpusProfile::builder()
                .weight(Archetype::MicroserviceMesh, 1)
                .weight(Archetype::Monolith, 1)
                .weight(Archetype::DataPipeline, 1)
                .weight(Archetype::HostNetworkLegacy, 0)
                .weight(Archetype::PolicyMature, 7)
                .mix(MisconfigMix::baseline().scaled(0.5)),
            _ => return None,
        };
        Some(builder.name(name).build())
    }

    /// Every name [`named`](Self::named) accepts, in documentation order.
    pub const NAMES: [&'static str; 6] = [
        "baseline",
        "mesh-heavy",
        "monolith-heavy",
        "pipeline-heavy",
        "legacy",
        "policy-mature",
    ];

    /// The full scenario matrix (one profile per [`NAMES`](Self::NAMES)
    /// entry), at the profile's default size and seed.
    pub fn scenario_matrix() -> Vec<CorpusProfile> {
        Self::NAMES
            .iter()
            .map(|n| CorpusProfile::named(n).expect("every listed name resolves"))
            .collect()
    }

    /// Profile name (for display).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Population size.
    pub(crate) fn apps(&self) -> usize {
        self.apps
    }

    /// Base seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection mix.
    pub fn mix(&self) -> &MisconfigMix {
        &self.mix
    }

    /// Same profile, different population size.
    pub fn with_apps(mut self, apps: usize) -> Self {
        self.apps = apps;
        self
    }

    /// Same profile, different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same profile, different mix.
    pub fn with_mix(mut self, mix: MisconfigMix) -> Self {
        self.mix = mix;
        self
    }

    /// Weighted archetype draw.
    pub(crate) fn pick_archetype(&self, rng: &mut StdRng) -> Archetype {
        let total: u64 = self.weights.iter().map(|(_, w)| u64::from(*w)).sum();
        debug_assert!(total > 0, "builder guarantees a positive total weight");
        let mut ticket = rng.gen_range(0..total);
        for (archetype, weight) in &self.weights {
            let weight = u64::from(*weight);
            if ticket < weight {
                return *archetype;
            }
            ticket -= weight;
        }
        // Unreachable with a positive total; keep a deterministic fallback.
        self.weights[self.weights.len() - 1].0
    }
}

/// Builder for [`CorpusProfile`]; obtained via [`CorpusProfile::builder`].
#[derive(Debug, Clone)]
pub struct CorpusProfileBuilder {
    name: String,
    weights: Vec<(Archetype, u32)>,
    mix: MisconfigMix,
}

impl Default for CorpusProfileBuilder {
    fn default() -> Self {
        CorpusProfileBuilder {
            name: "custom".to_string(),
            weights: Archetype::ALL.map(|a| (a, 1)).to_vec(),
            mix: MisconfigMix::baseline(),
        }
    }
}

impl CorpusProfileBuilder {
    /// Display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets one archetype's weight (replacing its previous weight).
    pub fn weight(mut self, archetype: Archetype, weight: u32) -> Self {
        match self.weights.iter_mut().find(|(a, _)| *a == archetype) {
            Some(slot) => slot.1 = weight,
            None => self.weights.push((archetype, weight)),
        }
        self
    }

    /// Replaces the injection mix.
    pub fn mix(mut self, mix: MisconfigMix) -> Self {
        self.mix = mix;
        self
    }

    /// Finalizes the profile. If every weight is zero the even default is
    /// restored, so a draw is always possible.
    pub fn build(self) -> CorpusProfile {
        let mut weights = self.weights;
        if weights.iter().all(|(_, w)| *w == 0) {
            weights = Archetype::ALL.map(|a| (a, 1)).to_vec();
        }
        CorpusProfile {
            name: self.name,
            apps: 100,
            seed: 42,
            weights,
            mix: self.mix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_named_profile_resolves() {
        for name in CorpusProfile::NAMES {
            let profile = CorpusProfile::named(name).expect(name);
            assert_eq!(profile.name(), name);
        }
        assert!(CorpusProfile::named("nope").is_none());
        assert_eq!(
            CorpusProfile::scenario_matrix().len(),
            CorpusProfile::NAMES.len()
        );
    }

    #[test]
    fn zero_weights_fall_back_to_even() {
        let profile = CorpusProfile::builder()
            .weight(Archetype::MicroserviceMesh, 0)
            .weight(Archetype::Monolith, 0)
            .weight(Archetype::DataPipeline, 0)
            .weight(Archetype::HostNetworkLegacy, 0)
            .weight(Archetype::PolicyMature, 0)
            .build();
        assert!(profile.weights.iter().any(|(_, w)| *w > 0));
    }

    #[test]
    fn zero_weight_archetypes_are_never_drawn() {
        let profile = CorpusProfile::named("legacy").expect("legacy profile");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..256 {
            assert_ne!(profile.pick_archetype(&mut rng), Archetype::PolicyMature);
        }
    }

    #[test]
    fn overrides_keep_the_rest_of_the_profile() {
        let profile = CorpusProfile::named("mesh-heavy")
            .expect("mesh-heavy")
            .with_apps(500)
            .with_seed(7);
        assert_eq!(profile.apps(), 500);
        assert_eq!(profile.seed(), 7);
        assert_eq!(profile.name(), "mesh-heavy");
    }
}
