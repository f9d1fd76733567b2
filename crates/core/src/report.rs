//! Aggregation of findings into the paper's tables and figures.

use crate::finding::{Finding, MisconfigId};
use std::collections::{BTreeMap, BTreeSet};

/// All findings for one application, tagged with its dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReport {
    /// Application (chart) name.
    pub app: String,
    /// Dataset / organization the chart belongs to.
    pub dataset: String,
    /// Chart version string (cosmetic, for figure labels).
    pub version: String,
    /// Findings of the per-app and cluster-wide passes.
    pub findings: Vec<Finding>,
}

impl AppReport {
    /// Total misconfiguration count.
    pub fn total(&self) -> usize {
        self.findings.len()
    }

    /// Distinct misconfiguration types present.
    pub fn types(&self) -> BTreeSet<MisconfigId> {
        self.findings.iter().map(|f| f.id).collect()
    }

    /// Count of one class.
    pub fn count_of(&self, id: MisconfigId) -> usize {
        self.findings.iter().filter(|f| f.id == id).count()
    }

    /// True when any finding exists.
    pub(crate) fn is_affected(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRow {
    /// Dataset name.
    pub dataset: String,
    /// Applications with ≥1 finding.
    pub affected: usize,
    /// Applications analyzed.
    pub total_apps: usize,
    /// Misconfiguration counts per class.
    pub counts: BTreeMap<MisconfigId, usize>,
}

impl DatasetRow {
    /// Total findings in the row.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Count for one class (0 when absent).
    pub fn count(&self, id: MisconfigId) -> usize {
        self.counts.get(&id).copied().unwrap_or(0)
    }
}

/// The complete evaluation census (the input to Table 2 and Figures 3–4).
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Per-application reports.
    pub apps: Vec<AppReport>,
}

impl Census {
    /// Dataset names in first-appearance order.
    pub(crate) fn datasets(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.apps {
            if seen.insert(a.dataset.clone()) {
                out.push(a.dataset.clone());
            }
        }
        out
    }

    /// Builds the Table 2 row for one dataset.
    pub fn dataset_row(&self, dataset: &str) -> DatasetRow {
        let apps: Vec<&AppReport> = self.apps.iter().filter(|a| a.dataset == dataset).collect();
        let mut counts: BTreeMap<MisconfigId, usize> = BTreeMap::new();
        for a in &apps {
            for f in &a.findings {
                *counts.entry(f.id).or_default() += 1;
            }
        }
        DatasetRow {
            dataset: dataset.to_string(),
            affected: apps.iter().filter(|a| a.is_affected()).count(),
            total_apps: apps.len(),
            counts,
        }
    }

    /// All Table 2 rows plus the implicit total row.
    pub fn table2(&self) -> Vec<DatasetRow> {
        self.datasets()
            .iter()
            .map(|d| self.dataset_row(d))
            .collect()
    }

    /// Grand total of misconfigurations (the paper's 634).
    pub fn total_misconfigurations(&self) -> usize {
        self.apps.iter().map(AppReport::total).sum()
    }

    /// Applications affected / total (the paper's 259 / 287).
    pub fn affected_apps(&self) -> (usize, usize) {
        (
            self.apps.iter().filter(|a| a.is_affected()).count(),
            self.apps.len(),
        )
    }

    /// Figure 3a: the `n` applications with the most misconfigurations,
    /// descending (ties broken by name for determinism).
    pub fn top_by_count(&self, n: usize) -> Vec<&AppReport> {
        let mut apps: Vec<&AppReport> = self.apps.iter().collect();
        apps.sort_by(|a, b| b.total().cmp(&a.total()).then(a.app.cmp(&b.app)));
        apps.truncate(n);
        apps
    }

    /// Figure 3b: the `n` applications with the most *distinct*
    /// misconfiguration types.
    pub fn top_by_types(&self, n: usize) -> Vec<&AppReport> {
        let mut apps: Vec<&AppReport> = self.apps.iter().collect();
        apps.sort_by(|a, b| {
            b.types()
                .len()
                .cmp(&a.types().len())
                .then(b.total().cmp(&a.total()))
                .then(a.app.cmp(&b.app))
        });
        apps.truncate(n);
        apps
    }

    /// Figure 4a: per-application totals, descending.
    pub fn distribution(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.apps.iter().map(AppReport::total).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The concentration statistics quoted in §4.3.1: the share of
    /// applications at or above `threshold` findings and the share of all
    /// findings they account for.
    pub fn concentration(&self, threshold: usize) -> ConcentrationStats {
        let total = self.total_misconfigurations().max(1);
        let heavy: Vec<usize> = self
            .apps
            .iter()
            .map(AppReport::total)
            .filter(|&t| t >= threshold)
            .collect();
        ConcentrationStats {
            threshold,
            app_share: heavy.len() as f64 / self.apps.len().max(1) as f64,
            finding_share: heavy.iter().sum::<usize>() as f64 / total as f64,
        }
    }

    /// Average misconfigurations per application across the given datasets
    /// (the sharing 3.35 / production 4.44 / internal 1.11 comparison).
    pub fn average_per_app(&self, datasets: &[&str]) -> f64 {
        let apps: Vec<&AppReport> = self
            .apps
            .iter()
            .filter(|a| datasets.contains(&a.dataset.as_str()))
            .collect();
        if apps.is_empty() {
            return 0.0;
        }
        apps.iter().map(|a| a.total()).sum::<usize>() as f64 / apps.len() as f64
    }

    /// Share of applications affected across the given datasets.
    pub fn affected_share(&self, datasets: &[&str]) -> f64 {
        let apps: Vec<&AppReport> = self
            .apps
            .iter()
            .filter(|a| datasets.contains(&a.dataset.as_str()))
            .collect();
        if apps.is_empty() {
            return 0.0;
        }
        apps.iter().filter(|a| a.is_affected()).count() as f64 / apps.len() as f64
    }
}

/// Output of [`Census::concentration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcentrationStats {
    /// Findings-per-app threshold.
    pub threshold: usize,
    /// Fraction of applications at/above the threshold.
    pub app_share: f64,
    /// Fraction of all findings those applications hold.
    pub finding_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(app: &str, dataset: &str, ids: &[MisconfigId]) -> AppReport {
        AppReport {
            app: app.to_string(),
            dataset: dataset.to_string(),
            version: "1.0.0".to_string(),
            findings: ids
                .iter()
                .map(|&id| Finding::new(id, app, format!("default/{app}"), "test"))
                .collect(),
        }
    }

    fn census() -> Census {
        Census {
            apps: vec![
                report(
                    "a",
                    "d1",
                    &[MisconfigId::M1, MisconfigId::M1, MisconfigId::M6],
                ),
                report("b", "d1", &[]),
                report(
                    "c",
                    "d2",
                    &[MisconfigId::M4A, MisconfigId::M6, MisconfigId::M7],
                ),
                report(
                    "d",
                    "d2",
                    &[
                        MisconfigId::M1,
                        MisconfigId::M2,
                        MisconfigId::M3,
                        MisconfigId::M5A,
                        MisconfigId::M6,
                    ],
                ),
            ],
        }
    }

    #[test]
    fn table_rows_count_by_class() {
        let c = census();
        let row = c.dataset_row("d1");
        assert_eq!(row.affected, 1);
        assert_eq!(row.total_apps, 2);
        assert_eq!(row.count(MisconfigId::M1), 2);
        assert_eq!(row.count(MisconfigId::M6), 1);
        assert_eq!(row.count(MisconfigId::M7), 0);
        assert_eq!(row.total(), 3);
        assert_eq!(c.total_misconfigurations(), 11);
        assert_eq!(c.affected_apps(), (3, 4));
    }

    #[test]
    fn rankings() {
        let c = census();
        let by_count = c.top_by_count(2);
        assert_eq!(by_count[0].app, "d");
        assert_eq!(by_count[1].app, "a");
        let by_types = c.top_by_types(1);
        assert_eq!(by_types[0].app, "d"); // five distinct types
        assert_eq!(by_types[0].types().len(), 5);
    }

    #[test]
    fn distribution_and_concentration() {
        let c = census();
        assert_eq!(c.distribution(), vec![5, 3, 3, 0]);
        let stats = c.concentration(5);
        assert!((stats.app_share - 0.25).abs() < 1e-9);
        assert!((stats.finding_share - 5.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn averages_by_group() {
        let c = census();
        assert!((c.average_per_app(&["d1"]) - 1.5).abs() < 1e-9);
        assert!((c.average_per_app(&["d2"]) - 4.0).abs() < 1e-9);
        assert!((c.affected_share(&["d1"]) - 0.5).abs() < 1e-9);
        assert_eq!(c.average_per_app(&["nope"]), 0.0);
    }

    #[test]
    fn datasets_in_first_appearance_order() {
        assert_eq!(
            census().datasets(),
            vec!["d1".to_string(), "d2".to_string()]
        );
    }
}
