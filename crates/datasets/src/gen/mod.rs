//! # Seeded procedural corpus generation
//!
//! The hand-written corpus of [`corpus`](crate::corpus) reproduces the
//! paper's Table 2 exactly — but it stops at 290 applications. This module
//! synthesizes populations at **arbitrary scale** with the same ground-truth
//! property: every generated chart knows precisely which findings it should
//! produce, so analyzer precision and recall stay measurable at 100, 1,000,
//! or 100,000 applications.
//!
//! Generation is a pure function: application `i` of a profile is fully
//! determined by `(profile, seed, i)` through a per-index xoshiro256\*\*
//! stream, so specs can be produced **on demand** (the census pipeline
//! streams them into workers instead of materializing the population) and
//! the same seed yields a byte-identical population at any thread count.
//!
//! ```
//! use ij_datasets::{CorpusGenerator, CorpusProfile};
//!
//! let generator = CorpusGenerator::new(
//!     CorpusProfile::named("mesh-heavy").unwrap().with_apps(50).with_seed(7),
//! );
//! let spec = generator.spec(17);
//! assert_eq!(spec, generator.spec(17), "generation is a pure function");
//! let summary = generator.describe();
//! assert_eq!(summary.apps, 50);
//! ```

mod archetypes;
mod churn;
mod inject;
mod profile;

pub use archetypes::Archetype;
pub use churn::{apply_mutation, ChurnMutation, ChurnSession, FLIP_TOKEN};
pub use inject::{MisconfigMix, MixError};
pub use profile::{CorpusProfile, CorpusProfileBuilder};

use crate::spec::{AppSpec, Org};
use ij_core::MisconfigId;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Deterministic procedural corpus: a [`CorpusProfile`] plus the per-index
/// generation function. See the [module docs](self) for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    profile: CorpusProfile,
}

impl CorpusGenerator {
    /// Wraps a profile.
    pub fn new(profile: CorpusProfile) -> Self {
        CorpusGenerator { profile }
    }

    /// The generating profile.
    pub fn profile(&self) -> &CorpusProfile {
        &self.profile
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.profile.apps()
    }

    /// True for an empty population.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generates application `index` (`0..len()`): a pure function of the
    /// profile and index — calling it twice, on any thread, yields the same
    /// spec.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn spec(&self, index: usize) -> AppSpec {
        self.generate(index).1
    }

    /// One generation pass: the archetype draw and everything derived from
    /// it share a single per-index RNG.
    fn generate(&self, index: usize) -> (Archetype, AppSpec) {
        assert!(
            index < self.len(),
            "spec index {index} out of range for a {}-app population",
            self.len()
        );
        let mut rng = self.rng_for(index);
        let archetype = self.profile.pick_archetype(&mut rng);
        let mut plan = archetype.base_plan(&mut rng);
        self.profile
            .mix()
            .sample_into(&mut plan, archetype, &mut rng);
        let version = format!(
            "{}.{}.{}",
            rng.gen_range(0u32..3),
            rng.gen_range(0u32..10),
            rng.gen_range(0u32..10)
        );
        // Round-robin dataset assignment keeps the Table-2 census renderer
        // meaningful for synthetic populations.
        let org = Org::ALL[index % Org::ALL.len()];
        let spec = AppSpec::new(
            format!("{}-{index:05}", archetype.slug()),
            org,
            version,
            plan,
        );
        (archetype, spec)
    }

    /// Streams the population in index order without materializing it.
    pub fn iter(&self) -> impl Iterator<Item = AppSpec> + '_ {
        (0..self.len()).map(|i| self.spec(i))
    }

    /// Summarizes the population (one transient pass over the generated
    /// specs): archetype composition, expected per-class findings, policy
    /// postures. This is what `ij corpus --describe` prints.
    pub fn describe(&self) -> PopulationSummary {
        PopulationSummary::from_specs(
            format!("synthetic profile `{}`", self.profile.name()),
            Some(self.profile.seed()),
            (0..self.len()).map(|i| {
                let (archetype, spec) = self.generate(i);
                (archetype.slug().to_string(), spec)
            }),
        )
    }

    /// The per-index RNG: the base seed and index mixed through splitmix64
    /// (so neighbouring indices get unrelated streams), feeding the
    /// vendored xoshiro256\*\* generator.
    fn rng_for(&self, index: usize) -> StdRng {
        let mut x = self
            .profile
            .seed()
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(x ^ (x >> 31))
    }
}

/// What a (synthetic or built-in) population looks like before any analysis
/// runs: group composition and the ground-truth expectation per rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSummary {
    /// What is being described (profile or corpus name).
    pub label: String,
    /// Generation seed, when the population is procedural.
    pub seed: Option<u64>,
    /// Population size.
    pub apps: usize,
    /// Applications per group (archetype slug or dataset name).
    pub groups: BTreeMap<String, usize>,
    /// Expected findings per class. M4\* counts token groups with at least
    /// two members (one cluster-wide finding each).
    pub expected: BTreeMap<MisconfigId, usize>,
    /// Applications expected to carry at least one finding.
    pub affected: usize,
    /// Applications whose chart defines a NetworkPolicy (even if disabled).
    pub policy_defining: usize,
    /// Applications whose policy is rendered with default values.
    pub policy_enabled: usize,
}

impl PopulationSummary {
    /// Builds a summary from `(group label, spec)` pairs. Specs are
    /// consumed one at a time, so callers can stream a generated
    /// population through without holding it in memory.
    pub(crate) fn from_specs(
        label: impl Into<String>,
        seed: Option<u64>,
        entries: impl IntoIterator<Item = (String, AppSpec)>,
    ) -> Self {
        let mut summary = PopulationSummary {
            label: label.into(),
            seed,
            apps: 0,
            groups: BTreeMap::new(),
            expected: BTreeMap::new(),
            affected: 0,
            policy_defining: 0,
            policy_enabled: 0,
        };
        // Tokens are `&'static str` from the closed shared pool, so group
        // accounting needs no string allocation, however large the
        // population.
        let mut token_members: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut tokened_apps: Vec<Vec<&'static str>> = Vec::new();
        let mut locally_affected: Vec<bool> = Vec::new();
        for (group, spec) in entries {
            summary.apps += 1;
            *summary.groups.entry(group).or_default() += 1;
            for id in MisconfigId::ALL {
                if id == MisconfigId::M4Star {
                    continue;
                }
                *summary.expected.entry(id).or_default() += spec.plan.expected_of(id);
            }
            summary.policy_defining += usize::from(spec.plan.netpol.defines_policy());
            summary.policy_enabled += usize::from(spec.plan.netpol.enabled_by_default());
            for token in &spec.plan.m4star_tokens {
                *token_members.entry(token).or_default() += 1;
            }
            locally_affected.push(spec.plan.expected_local_findings() > 0);
            tokened_apps.push(spec.plan.m4star_tokens.clone());
        }
        // One cluster-wide finding per token shared by ≥ 2 applications; an
        // app is affected when it has local findings or joins such a group.
        let colliding = token_members
            .iter()
            .filter(|(_, members)| **members >= 2)
            .count();
        summary.expected.insert(MisconfigId::M4Star, colliding);
        for (local, tokens) in locally_affected.iter().zip(&tokened_apps) {
            let collides = tokens
                .iter()
                .any(|t| token_members.get(t).copied().unwrap_or(0) >= 2);
            summary.affected += usize::from(*local || collides);
        }
        summary
    }

    /// Total expected findings across every class.
    pub fn expected_total(&self) -> usize {
        self.expected.values().sum()
    }

    /// Renders the summary as the `ij corpus --describe` text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {} application(s)", self.label, self.apps));
        if let Some(seed) = self.seed {
            out.push_str(&format!(", seed {seed}"));
        }
        out.push('\n');
        out.push_str(&format!("{:<14} {:>6}\n", "group", "apps"));
        for (group, count) in &self.groups {
            out.push_str(&format!("{group:<14} {count:>6}\n"));
        }
        out.push_str("expected findings:");
        for id in MisconfigId::ALL {
            out.push_str(&format!(
                " {} {}",
                id.as_str(),
                self.expected.get(&id).copied().unwrap_or(0)
            ));
        }
        out.push('\n');
        let pct = |n: usize| {
            if self.apps == 0 {
                0.0
            } else {
                n as f64 / self.apps as f64 * 100.0
            }
        };
        out.push_str(&format!(
            "total expected: {} finding(s); affected: {} ({:.1}%)\n",
            self.expected_total(),
            self.affected,
            pct(self.affected)
        ));
        out.push_str(&format!(
            "policies: {} defined ({:.1}%), {} enabled by default ({:.1}%)\n",
            self.policy_defining,
            pct(self.policy_defining),
            self.policy_enabled,
            pct(self.policy_enabled)
        ));
        out
    }
}

/// Summary of the built-in (hand-written) Table-2 corpus, grouped by
/// dataset — `ij corpus --describe` without `--synthetic`.
pub fn describe_builtin() -> PopulationSummary {
    PopulationSummary::from_specs(
        "built-in Table 2 corpus",
        None,
        crate::corpus()
            .into_iter()
            .map(|spec| (spec.org.as_str().to_string(), spec)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(profile: &str, apps: usize, seed: u64) -> CorpusGenerator {
        CorpusGenerator::new(
            CorpusProfile::named(profile)
                .expect("known profile")
                .with_apps(apps)
                .with_seed(seed),
        )
    }

    #[test]
    fn generation_is_pure_and_deterministic() {
        let a = tiny("baseline", 64, 7);
        let b = tiny("baseline", 64, 7);
        for i in 0..a.len() {
            assert_eq!(a.spec(i), b.spec(i), "index {i}");
            assert_eq!(format!("{:?}", a.spec(i)), format!("{:?}", b.spec(i)));
        }
    }

    #[test]
    fn different_seeds_and_indices_differ() {
        let a = tiny("baseline", 64, 7);
        let b = tiny("baseline", 64, 8);
        let diverged = (0..64)
            .filter(|&i| a.spec(i).plan != b.spec(i).plan)
            .count();
        assert!(
            diverged > 16,
            "only {diverged}/64 plans changed with the seed"
        );
        let names: std::collections::BTreeSet<String> = a.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 64, "generated names must be unique");
    }

    #[test]
    fn iter_matches_indexed_access() {
        let generator = tiny("pipeline-heavy", 24, 1);
        for (i, spec) in generator.iter().enumerate() {
            assert_eq!(spec, generator.spec(i));
        }
        assert_eq!(generator.iter().count(), 24);
    }

    #[test]
    fn archetype_matches_the_spec_prefix() {
        let generator = tiny("baseline", 48, 3);
        for i in 0..48 {
            let (archetype, spec) = generator.generate(i);
            assert_eq!(spec, generator.spec(i));
            assert!(
                spec.name.starts_with(archetype.slug()),
                "{} vs {archetype}",
                spec.name
            );
        }
    }

    #[test]
    fn describe_accounts_for_the_population() {
        let generator = tiny("baseline", 200, 5);
        let summary = generator.describe();
        assert_eq!(summary.apps, 200);
        assert_eq!(summary.groups.values().sum::<usize>(), 200);
        // Expected counts equal the sum over the generated plans.
        let m1: usize = generator.iter().map(|s| s.plan.m1).sum();
        assert_eq!(summary.expected[&MisconfigId::M1], m1);
        let rendered = summary.render();
        assert!(rendered.contains("200 application(s)"));
        assert!(rendered.contains("seed 5"));
        assert!(rendered.contains("M4*"));
    }

    #[test]
    fn legacy_profile_is_hostnetwork_heavy() {
        let baseline = tiny("baseline", 400, 11).describe();
        let legacy = tiny("legacy", 400, 11).describe();
        assert!(
            legacy.expected[&MisconfigId::M7] > 2 * baseline.expected[&MisconfigId::M7],
            "legacy M7 {} vs baseline {}",
            legacy.expected[&MisconfigId::M7],
            baseline.expected[&MisconfigId::M7]
        );
    }

    #[test]
    fn policy_mature_profile_is_quiet() {
        let baseline = tiny("baseline", 400, 11).describe();
        let mature = tiny("policy-mature", 400, 11).describe();
        assert!(
            mature.expected_total() * 2 < baseline.expected_total(),
            "mature {} vs baseline {}",
            mature.expected_total(),
            baseline.expected_total()
        );
        assert!(mature.policy_enabled > baseline.policy_enabled);
    }

    #[test]
    fn builtin_summary_matches_table2() {
        let summary = describe_builtin();
        assert_eq!(summary.apps, 290);
        assert_eq!(summary.expected_total(), 634);
        assert_eq!(summary.affected, 259);
        assert_eq!(summary.groups.len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        tiny("baseline", 4, 0).spec(4);
    }
}
