//! CI memory-regression gate for the streaming flat-memory census.
//!
//! Runs the 25,000-app generated census in-process and asserts the process
//! peak RSS (`VmHWM`) stays under a calibrated ceiling. The measured peak
//! on the reference machine is ~65 MB; the since-removed materializing
//! owned-string path peaked at ~365 MB on the same population (see
//! `BENCH_corpus.json`), so a 200 MB ceiling gives ~3× headroom against
//! measurement noise while still failing loudly if the census ever goes
//! back to materializing specs or owned reports.
//!
//! Debug builds are skipped (unoptimized structures and the slow census
//! would make the bound meaningless and the test minutes-long); CI runs
//! this with `cargo test --release -p ij-bench --test rss_guard`.

use ij_datasets::{CensusPipeline, CorpusGenerator, CorpusProfile};

const APPS: usize = 25_000;
const CEILING_KB: u64 = 200_000;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "RSS bound is calibrated for release builds"
)]
fn streaming_census_peak_rss_stays_flat() {
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(APPS)
            .with_seed(7),
    );
    let census = CensusPipeline::builder()
        .seed(7)
        .build()
        .run_generated_compact(&generator)
        .expect("generated corpus renders and installs");
    assert_eq!(census.apps.len(), APPS);
    assert!(
        census.total_misconfigurations() > 0,
        "census produced nothing; the RSS bound would be vacuous"
    );
    let Some(peak_kb) = ij_bench::peak_rss_kb() else {
        eprintln!("VmHWM unavailable on this platform; skipping the bound");
        return;
    };
    assert!(
        peak_kb < CEILING_KB,
        "peak RSS {peak_kb} kB breached the {CEILING_KB} kB streaming ceiling \
         (~65 MB expected; the materializing path measures ~365 MB)"
    );
}
