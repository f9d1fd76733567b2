//! Misconfiguration injectors: per-rule rates turned into concrete plans.
//!
//! A [`MisconfigMix`] holds one rate per Table-1 rule. For the counted
//! rules (M1–M5, M7) the rate is the *expected number of injections per
//! application*: `1.3` means "one guaranteed plus a 30% chance of a
//! second". M6 is the probability that the chart's NetworkPolicy posture
//! is degraded (missing or defined-but-disabled), and M4\* the probability
//! that the application joins one of the shared cross-application collision
//! token groups.
//!
//! Rates compose with the per-archetype propensity
//! [`scale`](crate::Archetype::scale), so one mix drives differently
//! shaped populations.

use ij_core::MisconfigId;
use rand::{rngs::StdRng, Rng};

use super::archetypes::Archetype;
use crate::spec::{NetpolSpec, Plan};

/// The fixed pool of cross-application collision tokens. Generated
/// applications that draw an M4\* injection pick one of these, so apps
/// sharing a token collide cluster-wide exactly like the hand-written
/// corpus pairs do. The pool is closed (ground truth counts token groups
/// with at least two members).
pub(crate) const SHARED_TOKENS: [&str; 16] = [
    "syn-ring-00",
    "syn-ring-01",
    "syn-ring-02",
    "syn-ring-03",
    "syn-ring-04",
    "syn-ring-05",
    "syn-ring-06",
    "syn-ring-07",
    "syn-ring-08",
    "syn-ring-09",
    "syn-ring-10",
    "syn-ring-11",
    "syn-ring-12",
    "syn-ring-13",
    "syn-ring-14",
    "syn-ring-15",
];

/// Hard cap on any single injected count, keeping generated charts bounded
/// (and every injector inside its reserved port range).
const MAX_PER_RULE: usize = 12;

/// A malformed mix specification (unknown rule name or unparsable rate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixError {
    /// What was wrong, suitable for CLI display.
    pub message: String,
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for MixError {}

/// Per-rule injection rates for the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MisconfigMix {
    /// Expected undeclared-open ports per app.
    pub m1: f64,
    /// Expected ephemeral-listener workers per app.
    pub m2: f64,
    /// Expected declared-never-open ports per app.
    pub m3: f64,
    /// Expected identical-label pairs per app.
    pub m4a: f64,
    /// Expected double-serviced components per app.
    pub m4b: f64,
    /// Expected shared-subset service groups per app.
    pub m4c: f64,
    /// Probability of joining a cross-application collision token group.
    pub m4star: f64,
    /// Expected declared-but-closed service targets per app.
    pub m5a: f64,
    /// Expected undeclared service targets per app.
    pub m5b: f64,
    /// Expected dangling headless targets per app.
    pub m5c: f64,
    /// Expected selector-matches-nothing services per app.
    pub m5d: f64,
    /// Probability of a degraded NetworkPolicy posture (yields M6).
    pub m6: f64,
    /// Expected hostNetwork DaemonSet components per app.
    pub m7: f64,
}

impl Default for MisconfigMix {
    fn default() -> Self {
        MisconfigMix::baseline()
    }
}

impl MisconfigMix {
    /// Rates calibrated to the per-application averages of the paper's
    /// Table 2 (≈ 2.2 findings per application, M6 on ~83% of charts).
    pub fn baseline() -> Self {
        MisconfigMix {
            m1: 0.65,
            m2: 0.12,
            m3: 0.23,
            m4a: 0.12,
            m4b: 0.055,
            m4c: 0.01,
            m4star: 0.017,
            m5a: 0.04,
            m5b: 0.072,
            m5c: 0.01,
            m5d: 0.005,
            m6: 0.83,
            m7: 0.04,
        }
    }

    /// No injections at all: every generated chart is clean (and ships an
    /// enabled policy, since the M6 probability is zero).
    pub fn clean() -> Self {
        MisconfigMix {
            m1: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4a: 0.0,
            m4b: 0.0,
            m4c: 0.0,
            m4star: 0.0,
            m5a: 0.0,
            m5b: 0.0,
            m5c: 0.0,
            m5d: 0.0,
            m6: 0.0,
            m7: 0.0,
        }
    }

    /// Every rate multiplied by `factor` (probabilities are clamped to
    /// `[0, 1]` at sampling time). A cheap way to derive a quieter or
    /// noisier variant of an existing mix.
    pub(crate) fn scaled(mut self, factor: f64) -> Self {
        for slot in [
            &mut self.m1,
            &mut self.m2,
            &mut self.m3,
            &mut self.m4a,
            &mut self.m4b,
            &mut self.m4c,
            &mut self.m4star,
            &mut self.m5a,
            &mut self.m5b,
            &mut self.m5c,
            &mut self.m5d,
            &mut self.m6,
            &mut self.m7,
        ] {
            *slot = (*slot * factor).max(0.0);
        }
        self
    }

    /// Sets one rule's rate by its lowercase name (`m1`…`m7`, `m4a`,
    /// `m4star`, …). Rates must be finite and non-negative.
    pub fn set(&mut self, rule: &str, rate: f64) -> Result<(), MixError> {
        if !rate.is_finite() || rate < 0.0 {
            return Err(MixError {
                message: format!("rate for `{rule}` must be a non-negative number, got `{rate}`"),
            });
        }
        let slot = match rule {
            "m1" => &mut self.m1,
            "m2" => &mut self.m2,
            "m3" => &mut self.m3,
            "m4a" => &mut self.m4a,
            "m4b" => &mut self.m4b,
            "m4c" => &mut self.m4c,
            "m4star" | "m4*" => &mut self.m4star,
            "m5a" => &mut self.m5a,
            "m5b" => &mut self.m5b,
            "m5c" => &mut self.m5c,
            "m5d" => &mut self.m5d,
            "m6" => &mut self.m6,
            "m7" => &mut self.m7,
            other => {
                return Err(MixError {
                    message: format!(
                        "unknown rule `{other}`; expected one of m1, m2, m3, m4a, m4b, m4c, \
                         m4star, m5a, m5b, m5c, m5d, m6, m7"
                    ),
                })
            }
        };
        *slot = rate;
        Ok(())
    }

    /// The rate for one rule.
    pub(crate) fn rate(&self, id: MisconfigId) -> f64 {
        use MisconfigId::*;
        match id {
            M1 => self.m1,
            M2 => self.m2,
            M3 => self.m3,
            M4A => self.m4a,
            M4B => self.m4b,
            M4C => self.m4c,
            M4Star => self.m4star,
            M5A => self.m5a,
            M5B => self.m5b,
            M5C => self.m5c,
            M5D => self.m5d,
            M6 => self.m6,
            M7 => self.m7,
        }
    }

    /// Applies a comma-separated `rule=rate` override list (the CLI's
    /// `--mix m1=0.2,m7=0.05` syntax) on top of the current rates.
    pub fn apply_overrides(&mut self, spec: &str) -> Result<(), MixError> {
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let Some((rule, rate)) = entry.split_once('=') else {
                return Err(MixError {
                    message: format!("expected `rule=rate`, got `{entry}`"),
                });
            };
            let rate: f64 = rate.trim().parse().map_err(|_| MixError {
                message: format!("invalid rate `{}` for rule `{}`", rate.trim(), rule.trim()),
            })?;
            self.set(rule.trim(), rate)?;
        }
        Ok(())
    }

    /// Samples this mix (scaled by the archetype's propensities) into a
    /// plan: counted rules become injection counts, M6 becomes the policy
    /// posture, M4\* becomes a shared-token membership draw.
    pub(crate) fn sample_into(&self, plan: &mut Plan, archetype: Archetype, rng: &mut StdRng) {
        use MisconfigId::*;
        let count = |rng: &mut StdRng, id: MisconfigId| {
            sample_count(self.rate(id) * archetype.scale(id), rng)
        };
        plan.m1 = count(rng, M1);
        plan.m2 = count(rng, M2);
        plan.m3 = count(rng, M3);
        plan.m4a = count(rng, M4A);
        plan.m4b = count(rng, M4B);
        plan.m4c = count(rng, M4C);
        plan.m5a = count(rng, M5A);
        plan.m5b = count(rng, M5B);
        plan.m5c = count(rng, M5C);
        plan.m5d = count(rng, M5D);
        plan.m7 = count(rng, M7);

        let degraded = rng.gen_bool((self.m6 * archetype.scale(M6)).clamp(0.0, 1.0));
        let loose = rng.gen_bool(archetype.loose_bias());
        plan.netpol = if degraded {
            if rng.gen_bool(0.5) {
                NetpolSpec::Missing
            } else {
                NetpolSpec::DefinedDisabled { loose }
            }
        } else {
            NetpolSpec::Enabled { loose }
        };

        if rng.gen_bool((self.m4star * archetype.scale(M4Star)).clamp(0.0, 1.0)) {
            plan.m4star_tokens
                .push(SHARED_TOKENS[rng.gen_range(0..SHARED_TOKENS.len())]);
        }
    }
}

/// Turns a non-negative rate into a count: the integer part is guaranteed,
/// the fractional part is one Bernoulli draw. Capped at [`MAX_PER_RULE`].
fn sample_count(rate: f64, rng: &mut StdRng) -> usize {
    let rate = rate.max(0.0);
    let whole = rate.floor();
    let extra = usize::from(rng.gen_bool(rate - whole));
    (whole as usize + extra).min(MAX_PER_RULE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The baseline mix with an override list applied.
    fn parse(spec: &str) -> Result<MisconfigMix, MixError> {
        let mut mix = MisconfigMix::baseline();
        mix.apply_overrides(spec)?;
        Ok(mix)
    }

    #[test]
    fn parse_overrides_known_rules() {
        let mix = parse("m1=0.2, m7=0.05,m4star=0.5").expect("valid mix");
        assert_eq!(mix.m1, 0.2);
        assert_eq!(mix.m7, 0.05);
        assert_eq!(mix.m4star, 0.5);
        // Untouched entries keep the baseline.
        assert_eq!(mix.m2, MisconfigMix::baseline().m2);
    }

    #[test]
    fn parse_rejects_unknown_rule_and_bad_rate() {
        assert!(parse("m9=1.0").is_err());
        assert!(parse("m1=lots").is_err());
        assert!(parse("m1").is_err());
        assert!(parse("m1=-0.5").is_err());
    }

    #[test]
    fn empty_override_list_is_baseline() {
        assert_eq!(parse("").expect("empty"), MisconfigMix::baseline());
    }

    #[test]
    fn sample_count_brackets_the_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let c = sample_count(1.4, &mut rng);
            assert!(c == 1 || c == 2, "{c}");
        }
        assert_eq!(sample_count(0.0, &mut rng), 0);
        assert_eq!(sample_count(99.0, &mut rng), MAX_PER_RULE);
    }

    #[test]
    fn clean_mix_yields_clean_enabled_plans() {
        let mut rng = StdRng::seed_from_u64(11);
        for archetype in Archetype::ALL {
            let mut plan = Plan::default();
            MisconfigMix::clean().sample_into(&mut plan, archetype, &mut rng);
            assert_eq!(plan.expected_local_findings(), 0, "{archetype}");
            assert!(plan.m4star_tokens.is_empty());
            assert!(plan.netpol.enabled_by_default());
        }
    }
}
