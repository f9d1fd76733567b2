//! Generating a responsible-disclosure package (§5 / Appendix A.1).
//!
//! ```sh
//! cargo run --example disclosure
//! ```
//!
//! Audits the Wikimedia dataset and renders the markdown disclosure report
//! the paper's authors would send: threat model, per-class explanations and
//! mitigations, the affected charts with their concrete findings, and the
//! Figure 5 feedback questionnaire.

use inside_job::core::disclosure_report;
use inside_job::datasets::{corpus, CensusPipeline, Org};

fn main() {
    let wikimedia: Vec<_> = corpus()
        .into_iter()
        .filter(|a| a.org == Org::Wikimedia)
        .collect();
    println!(
        "analyzing {} Wikimedia charts and drafting the disclosure…\n",
        wikimedia.len()
    );
    let census = CensusPipeline::builder()
        .build()
        .run(&wikimedia)
        .expect("the synthetic corpus renders and installs");
    let report = disclosure_report(&census, "Wikimedia");
    println!("{report}");

    // The report is self-contained: threat model, mitigations, findings.
    assert!(report.contains("Threat model"));
    assert!(report.contains("Suggested mitigation"));
    assert!(report.contains("ipoid"));
    assert!(report.contains("Questionnaire"));
}
