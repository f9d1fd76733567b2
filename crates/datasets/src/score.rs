//! Precision / recall scoring against corpus ground truth.
//!
//! The paper's §6.3 names the lack of ground truth as a limitation: the
//! authors could only validate findings through developer feedback. The
//! synthetic corpus removes that limitation — every chart knows its injected
//! plan — so analyzer configurations can be scored exactly.

use crate::spec::AppSpec;
use ij_core::{Finding, MisconfigId};
use std::collections::BTreeMap;

/// Detection counts for one misconfiguration class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassScore {
    /// Findings matching an injected misconfiguration.
    pub true_positives: usize,
    /// Findings with no corresponding injection.
    pub false_positives: usize,
    /// Injections the analyzer missed.
    pub false_negatives: usize,
}

impl ClassScore {
    /// Precision (1.0 when nothing was reported).
    pub fn precision(&self) -> f64 {
        let reported = self.true_positives + self.false_positives;
        if reported == 0 {
            1.0
        } else {
            self.true_positives as f64 / reported as f64
        }
    }

    /// Recall (1.0 when nothing was injected).
    pub fn recall(&self) -> f64 {
        let expected = self.true_positives + self.false_negatives;
        if expected == 0 {
            1.0
        } else {
            self.true_positives as f64 / expected as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub(crate) fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Per-class and aggregate scores for a corpus run.
#[derive(Debug, Clone, Default)]
pub struct ScoreReport {
    /// Per-class detection scores.
    pub classes: BTreeMap<MisconfigId, ClassScore>,
}

impl ScoreReport {
    /// Aggregate score across all classes.
    pub fn overall(&self) -> ClassScore {
        let mut total = ClassScore::default();
        for s in self.classes.values() {
            total.true_positives += s.true_positives;
            total.false_positives += s.false_positives;
            total.false_negatives += s.false_negatives;
        }
        total
    }

    /// Score for one class.
    pub fn class(&self, id: MisconfigId) -> ClassScore {
        self.classes.get(&id).copied().unwrap_or_default()
    }

    /// Renders a compact table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6} {:>4} {:>4} {:>4} {:>10} {:>7} {:>7}\n",
            "class", "TP", "FP", "FN", "precision", "recall", "F1"
        ));
        for id in MisconfigId::ALL {
            let s = self.class(id);
            if s == ClassScore::default() {
                continue;
            }
            out.push_str(&format!(
                "{:<6} {:>4} {:>4} {:>4} {:>10.3} {:>7.3} {:>7.3}\n",
                id.as_str(),
                s.true_positives,
                s.false_positives,
                s.false_negatives,
                s.precision(),
                s.recall(),
                s.f1()
            ));
        }
        let o = self.overall();
        out.push_str(&format!(
            "{:<6} {:>4} {:>4} {:>4} {:>10.3} {:>7.3} {:>7.3}\n",
            "all",
            o.true_positives,
            o.false_positives,
            o.false_negatives,
            o.precision(),
            o.recall(),
            o.f1()
        ));
        out
    }
}

/// Scores one application's findings against its plan. Per-class counting:
/// `min(found, expected)` are true positives; surplus findings are false
/// positives; shortfall is false negatives. (M4\* is attributed at the
/// cluster level, so it is scored only when `expected_m4star` is supplied.)
pub(crate) fn score_app(spec: &AppSpec, findings: &[Finding]) -> ScoreReport {
    let mut report = ScoreReport::default();
    for id in MisconfigId::ALL {
        if id == MisconfigId::M4Star {
            continue;
        }
        let expected = spec.plan.expected_of(id);
        let found = findings.iter().filter(|f| f.id == id).count();
        let tp = expected.min(found);
        let entry = report.classes.entry(id).or_default();
        entry.true_positives += tp;
        entry.false_positives += found - tp;
        entry.false_negatives += expected - tp;
    }
    report
}

/// Scores a whole corpus run (sum of per-app scores).
pub fn score_corpus<'a>(
    results: impl IntoIterator<Item = (&'a AppSpec, &'a [Finding])>,
) -> ScoreReport {
    let mut total = ScoreReport::default();
    for (spec, findings) in results {
        let app = score_app(spec, findings);
        for (id, s) in app.classes {
            let entry = total.classes.entry(id).or_default();
            entry.true_positives += s.true_positives;
            entry.false_positives += s.false_positives;
            entry.false_negatives += s.false_negatives;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_app;
    use crate::runner::CorpusOptions;
    use crate::spec::{NetpolSpec, Org, Plan};
    use crate::CensusPipeline;
    use ij_core::Analyzer;
    use ij_probe::ProbeConfig;

    fn spec() -> AppSpec {
        AppSpec::new(
            "scored",
            Org::Cncf,
            "1.0.0",
            Plan {
                m1: 2,
                m2: 1,
                m3: 1,
                m4a: 1,
                m5b: 1,
                netpol: NetpolSpec::Missing,
                ..Default::default()
            },
        )
    }

    fn analyze(built: &crate::BuiltApp, opts: CorpusOptions) -> crate::AppAnalysis {
        CensusPipeline::builder()
            .probe(opts.probe)
            .analyzer(opts.analyzer)
            .build()
            .analyze_one(built)
            .expect("corpus app analyzes")
    }

    #[test]
    fn hybrid_scores_perfectly() {
        let built = build_app(&spec());
        let analysis = analyze(&built, CorpusOptions::default());
        let report = score_app(&spec(), &analysis.findings);
        let o = report.overall();
        assert_eq!(o.false_positives, 0);
        assert_eq!(o.false_negatives, 0);
        assert!((report.overall().f1() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn static_only_keeps_precision_loses_recall() {
        let built = build_app(&spec());
        let opts = CorpusOptions {
            analyzer: Analyzer::static_only(),
            ..Default::default()
        };
        let analysis = analyze(&built, opts);
        let report = score_app(&spec(), &analysis.findings);
        assert!((report.overall().precision() - 1.0).abs() < 1e-9);
        assert!(report.overall().recall() < 1.0);
        assert_eq!(report.class(MisconfigId::M1).recall(), 0.0);
        assert_eq!(report.class(MisconfigId::M4A).recall(), 1.0);
    }

    #[test]
    fn noisy_unfiltered_probe_costs_precision() {
        let built = build_app(&spec());
        let opts = CorpusOptions {
            probe: ProbeConfig {
                udp_noise_rate: 1.0,
                filter_udp_flakiness: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let analysis = analyze(&built, opts);
        let report = score_app(&spec(), &analysis.findings);
        assert!(report.overall().precision() < 1.0, "{}", report.render());
        assert!((report.overall().recall() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_includes_overall_row() {
        let built = build_app(&spec());
        let analysis = analyze(&built, CorpusOptions::default());
        let report = score_app(&spec(), &analysis.findings);
        let text = report.render();
        assert!(text.contains("all"));
        assert!(text.contains("M1"));
    }
}
