//! Self-measuring census harness: runs one flat-memory generated census
//! and reports wall clock, per-app cost, interner arena size, and the
//! process peak RSS (`VmHWM`). One process per measurement — the kernel's
//! high-water mark never resets, so sweeping sizes means one invocation
//! per size:
//!
//! ```text
//! cargo run --release -p ij-bench --bin rss_census -- 100000 [shards] [threads]
//! ```
//!
//! The committed numbers in `BENCH_corpus.json` come from this harness
//! (reproduce instructions there); `tests/rss_guard.rs` runs the same
//! measurement in-process at 25k apps as the CI memory-regression gate.

use ij_datasets::{CensusPipeline, CorpusGenerator, CorpusProfile, PhaseTimings};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let apps: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| usage());
    let shards: usize = args
        .next()
        .map_or(1, |a| a.parse().unwrap_or_else(|_| usage()));
    let threads: usize = args
        .next()
        .map_or(1, |a| a.parse().unwrap_or_else(|_| usage()));

    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(apps)
            .with_seed(7),
    );
    let gen_start = Instant::now();
    let mut gen_findings = 0usize;
    for spec in generator.iter() {
        gen_findings += std::hint::black_box(spec.plan.expected_local_findings());
    }
    println!(
        "generate: {:.3}s total, {} ns/app ({gen_findings} expected findings)",
        gen_start.elapsed().as_secs_f64(),
        gen_start.elapsed().as_nanos() / apps.max(1) as u128,
    );

    let timings = Arc::new(PhaseTimings::default());
    let start = Instant::now();
    let census = CensusPipeline::builder()
        .seed(7)
        .shards(shards)
        .threads(threads)
        .timings(Arc::clone(&timings))
        .build()
        .run_generated_compact(&generator)
        .expect("generated corpus renders and installs");
    let elapsed = start.elapsed();

    let (affected, total_apps) = census.affected_apps();
    println!(
        "apps={total_apps} shards={shards} threads={threads} findings={} affected={affected}",
        census.total_misconfigurations(),
    );
    println!(
        "census: {:.3}s total, {} ns/app, arena {} bytes",
        elapsed.as_secs_f64(),
        elapsed.as_nanos() / apps.max(1) as u128,
        census.table().arena_bytes(),
    );
    let phases = timings.snapshot();
    println!(
        "phases: build {:.3}s, render {:.3}s, install {:.3}s, probe {:.3}s, analyze {:.3}s",
        phases.build.as_secs_f64(),
        phases.render.as_secs_f64(),
        phases.install.as_secs_f64(),
        phases.probe.as_secs_f64(),
        phases.analyze.as_secs_f64(),
    );
    match ij_bench::peak_rss_kb() {
        Some(kb) => println!("peak RSS (VmHWM): {kb} kB"),
        None => println!("peak RSS (VmHWM): unavailable on this platform"),
    }
}

fn usage() -> ! {
    eprintln!("usage: rss_census <apps> [shards] [threads]");
    std::process::exit(2);
}
