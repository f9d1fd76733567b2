//! Representative charts for the tool comparison (§4.4.2): one minimal case
//! per misconfiguration class, exhibiting that class and nothing else.

use crate::spec::{AppSpec, NetpolSpec, Org, Plan};
use ij_core::MisconfigId;

/// One comparison case: the class under test and the chart(s) that exhibit
/// it. M4\* needs two applications (the collision is cross-application);
/// every other case is a single chart.
#[derive(Debug, Clone)]
pub struct RepresentativeCase {
    /// The misconfiguration class the case exercises.
    pub id: MisconfigId,
    /// The chart specifications to install.
    pub apps: Vec<AppSpec>,
}

/// Builds the thirteen representative cases.
pub fn representative_charts() -> Vec<RepresentativeCase> {
    // A tight enabled policy suppresses M6 so each case stays pure.
    let quiet = NetpolSpec::Enabled { loose: false };
    let case = |id: MisconfigId, plan: Plan| RepresentativeCase {
        id,
        apps: vec![AppSpec::new(
            format!("rep-{}", id.as_str().to_lowercase().replace('*', "star")),
            Org::Cncf,
            "1.0.0",
            plan,
        )],
    };
    vec![
        case(
            MisconfigId::M1,
            Plan {
                m1: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M2,
            Plan {
                m2: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M3,
            Plan {
                m3: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M4A,
            Plan {
                m4a: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M4B,
            Plan {
                m4b: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M4C,
            Plan {
                m4c: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        RepresentativeCase {
            id: MisconfigId::M4Star,
            apps: vec![
                AppSpec::new(
                    "rep-m4star-a",
                    Org::Cncf,
                    "1.0.0",
                    Plan {
                        netpol: quiet,
                        m4star_tokens: vec!["rep-shared"],
                        ..Default::default()
                    },
                ),
                AppSpec::new(
                    "rep-m4star-b",
                    Org::Cncf,
                    "1.0.0",
                    Plan {
                        netpol: quiet,
                        m4star_tokens: vec!["rep-shared"],
                        ..Default::default()
                    },
                ),
            ],
        },
        case(
            MisconfigId::M5A,
            Plan {
                m5a: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M5B,
            Plan {
                m5b: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M5C,
            Plan {
                m5c: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(
            MisconfigId::M5D,
            Plan {
                m5d: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
        case(MisconfigId::M6, Plan::default()),
        case(
            MisconfigId::M7,
            Plan {
                m7: 1,
                netpol: quiet,
                ..Default::default()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_app;
    use crate::CensusPipeline;

    #[test]
    fn thirteen_cases_one_per_class() {
        let cases = representative_charts();
        assert_eq!(cases.len(), 13);
        let ids: Vec<MisconfigId> = cases.iter().map(|c| c.id).collect();
        assert_eq!(ids, MisconfigId::ALL.to_vec());
    }

    #[test]
    fn each_case_exhibits_exactly_its_class() {
        for rep_case in representative_charts() {
            if rep_case.id == MisconfigId::M4Star {
                // Needs the cluster-wide pass over both apps.
                let census = CensusPipeline::builder()
                    .build()
                    .run(&rep_case.apps)
                    .expect("representative charts run");
                assert_eq!(census.total_misconfigurations(), 1);
                let finding = census
                    .apps
                    .iter()
                    .flat_map(|a| a.findings.iter())
                    .next()
                    .expect("one finding");
                assert_eq!(finding.id, MisconfigId::M4Star);
                continue;
            }
            let built = build_app(&rep_case.apps[0]);
            let analysis = CensusPipeline::builder()
                .build()
                .analyze_one(&built)
                .expect("corpus app analyzes");
            assert_eq!(
                analysis.findings.len(),
                1,
                "case {}: {:#?}",
                rep_case.id,
                analysis.findings
            );
            assert_eq!(analysis.findings[0].id, rep_case.id, "case {}", rep_case.id);
        }
    }
}
