//! Naive re-parse rendering vs the compile-once layer, at three corpus
//! sizes.
//!
//! "Naive" is the seed behaviour: every `Chart::render` call re-lexes and
//! re-parses each template file, then round-trips the rendered text through
//! the YAML parser and object decoder. "Compiled" replays the cached
//! [`CompiledChart`] ASTs (action-free files are pre-decoded at compile
//! time). Both produce byte-identical `RenderedRelease`s — asserted at
//! setup — so the timings are an apples-to-apples measure of the speedup
//! recorded in `BENCH_render.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use ij_chart::{CompiledChart, Release};
use ij_datasets::{build_app, corpus, BuiltApp};
use std::hint::black_box;

fn bench_render_pipeline(c: &mut Criterion) {
    let all = corpus();
    let full = all.len();
    for (label, n) in [("small", 12usize), ("medium", 60), ("full", full)] {
        let builts: Vec<BuiltApp> = all.iter().take(n).map(build_app).collect();
        let releases: Vec<Release> = builts
            .iter()
            .map(|b| Release::new(&b.spec.name, "default"))
            .collect();
        let compiled: Vec<CompiledChart> = builts
            .iter()
            .map(|b| b.compiled().expect("corpus charts compile").clone())
            .collect();
        for ((built, release), compiled) in builts.iter().zip(&releases).zip(&compiled) {
            let naive = built.chart().render(release).expect("naive render");
            let replay = compiled.render(release).expect("compiled render");
            assert_eq!(
                format!("{naive:#?}"),
                format!("{replay:#?}"),
                "{label}: compiled render diverged for {}",
                built.spec.name
            );
        }

        c.bench_function(&format!("render_naive_{label}"), |b| {
            b.iter(|| {
                let mut objects = 0usize;
                for (built, release) in builts.iter().zip(&releases) {
                    objects += black_box(built.chart().render(release).expect("renders"))
                        .objects
                        .len();
                }
                objects
            })
        });
        c.bench_function(&format!("render_compiled_{label}"), |b| {
            b.iter(|| {
                let mut objects = 0usize;
                for (compiled, release) in compiled.iter().zip(&releases) {
                    objects += black_box(compiled.render(release).expect("renders"))
                        .objects
                        .len();
                }
                objects
            })
        });
    }
}

criterion_group!(render, bench_render_pipeline);
criterion_main!(render);
