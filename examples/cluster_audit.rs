//! Auditing a whole dataset and watching a live cluster for regressions.
//!
//! ```sh
//! cargo run --example cluster_audit
//! ```
//!
//! Part 1 runs the census pipeline over the CNCF dataset (ten charts, each
//! in its own fresh cluster, analyzed on four worker threads with a
//! progress observer) and prints its Table-2 row.
//! Part 2 attaches the continuous auditor to a live cluster and shows a
//! misconfiguration being introduced and caught between audit rounds. The
//! pods are applied by hand, outside any release, so the auditor reports
//! them under its unattributed release.

use inside_job::cluster::{Cluster, ClusterConfig};
use inside_job::core::MisconfigId;
use inside_job::datasets::{corpus, CensusPipeline, Org};
use inside_job::guard::IncrementalAuditor;
use inside_job::model::{Container, ContainerPort, Labels, Object, ObjectMeta, Pod, PodSpec};
use inside_job::probe::{HostBaseline, RuntimeAnalyzer};

fn main() {
    // --- Part 1: dataset audit -----------------------------------------
    let cncf: Vec<_> = corpus()
        .into_iter()
        .filter(|a| a.org == Org::Cncf)
        .collect();
    println!("auditing the {} CNCF charts…", cncf.len());
    let census = CensusPipeline::builder()
        .threads(4)
        .observer(|p| eprintln!("  [{}/{}] {}", p.completed, p.total, p.app))
        .build()
        .run(&cncf)
        .expect("the synthetic corpus renders and installs");
    let row = census.dataset_row("CNCF");
    println!(
        "CNCF: {}/{} applications affected, {} misconfigurations total",
        row.affected,
        row.total_apps,
        row.total()
    );
    for id in MisconfigId::ALL {
        if row.count(id) > 0 {
            println!(
                "  {:<4} {:>2}  — {}",
                id.as_str(),
                row.count(id),
                id.description()
            );
        }
    }
    assert_eq!(row.total(), 27, "the paper's CNCF row sums to 27");

    // --- Part 2: continuous audit ---------------------------------------
    println!("\nattaching the continuous auditor to a live cluster…");
    let mut cluster = Cluster::new(ClusterConfig::default());
    let baseline = HostBaseline::capture(&cluster);
    cluster
        .apply(Object::Pod(Pod::new(
            ObjectMeta::named("api").with_labels(Labels::from_pairs([("app", "api")])),
            PodSpec {
                containers: vec![Container::new("api", "acme/api")
                    .with_ports(vec![ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        )))
        .expect("apply");
    cluster.reconcile();

    let mut auditor = IncrementalAuditor::with_probe(RuntimeAnalyzer::default(), baseline);
    let round1 = auditor.tick(&cluster);
    println!(
        "round 1: {} finding(s) introduced (expected: M6 — no policies yet)",
        round1.introduced.len()
    );

    // Someone deploys a colliding pod between rounds.
    cluster
        .apply(Object::Pod(Pod::new(
            ObjectMeta::named("api-copy").with_labels(Labels::from_pairs([("app", "api")])),
            PodSpec {
                containers: vec![Container::new("api", "acme/api-fork")
                    .with_ports(vec![ContainerPort::named("http", 8080)])],
                ..Default::default()
            },
        )))
        .expect("apply");
    cluster.reconcile();

    let round2 = auditor.tick(&cluster);
    println!("round 2: {} new finding(s):", round2.introduced.len());
    for f in &round2.introduced {
        println!("  {f}");
    }
    assert!(
        round2.introduced.iter().any(|f| f.id == MisconfigId::M4A),
        "the collision is caught as a delta"
    );

    let round3 = auditor.tick(&cluster);
    assert!(
        round3.is_quiet(),
        "nothing changed; the auditor stays quiet"
    );
    println!("round 3: quiet (no changes)");
}
