//! The traced run's deterministic counters — per-layer operations,
//! allocations and bytes, plus the work counts — must repeat exactly: from
//! one run to the next, and between one and two worker threads on the
//! `census` workload's pool-and-merge shape.

use ij_perfbench::census::{self, CensusConfig};
use ij_perfbench::rule_layers;
use ij_perfbench::trace::{Aggregate, LayerCounts, Layers};
use ij_perfbench::WorkCounts;

const SMALL: CensusConfig = CensusConfig {
    apps: 300,
    ..census::CENSUS
};

type Counters = (LayerCounts, WorkCounts);

fn traced_counters(config: CensusConfig) -> Counters {
    let census = census::setup(config, 7).expect("census sets up");
    let mut layers = Layers::default();
    let rules = rule_layers(&mut layers, &census.pipeline.options().analyzer);
    let traced = census.run_traced(&rules).expect("traced census runs");
    census
        .check(&traced.census)
        .expect("traced census matches the ground truth");
    // One call's uncovered share depends on preemption; a run checks it on
    // the sum over its calls.
    census::Accounting::default()
        .add(&traced)
        .expect("layer spans nest in the threads' time");
    let (untraced, _, _) = census.run_untraced().expect("census runs");
    assert_eq!(traced.census.apps, untraced.apps, "traced census differs");
    let mut agg = Aggregate::default();
    for tracer in &traced.tracers {
        agg.add(&tracer.spans);
    }
    (agg.repeatable_counts(), traced.work)
}

#[test]
fn counters_repeat_across_runs() {
    assert_eq!(traced_counters(SMALL), traced_counters(SMALL));
}

#[test]
fn counters_do_not_depend_on_the_thread_count() {
    let two = traced_counters(SMALL);
    let one = traced_counters(CensusConfig {
        threads: 1,
        ..SMALL
    });
    assert_eq!(one, two);
    assert!(two.1.objects_rendered > 0 && two.1.symbols > 0);
}
