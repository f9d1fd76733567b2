//! CI allocation-regression gate for the census hot path.
//!
//! The render→emit→reparse round-trip was removed in favour of direct
//! Value evaluation with per-worker scratch reuse; the cheapest way to
//! notice that work creeping back in is to count allocator calls. This
//! test installs a counting `#[global_allocator]` (integration tests are
//! their own binaries, so the wrapper is scoped to this file), runs the
//! generated compact census at two sizes, and takes the delta per app —
//! fixed startup cost (profiles, chart compilation, interner tables)
//! cancels out, leaving the steady-state per-app allocation count.
//!
//! The measured steady state on the reference machine is ~820
//! allocations per app — that covers the whole per-app pipeline (spec
//! generation, chart build, compile, direct-to-Value render, install,
//! probe, analyze, retained findings), not just rendering. The 1,066
//! ceiling gives ~30% headroom against small legitimate changes while
//! failing loudly if text materialization, the encode → decode round
//! trip of generated chart objects, per-app buffer churn, or a copy of
//! each rendered object at install returns (each costs hundreds of extra
//! allocations per app in encoded documents, rendered strings, reparsed
//! document trees and cloned objects).
//!
//! The same census over two shards (still one thread, so the count is
//! deterministic) runs the spec-order shard merge, which rewrites each
//! report and model in place: it measures the same ~820 allocations per
//! app, under the same 1.3× ceiling. A merge that copies every report and
//! model again costs about a dozen more per app.
//!
//! The threaded arm runs that two-shard census on two threads, the shape
//! of the benchmark's `census` workload: one spawned worker plus the
//! calling thread. Which worker takes which app depends on scheduling, but
//! the per-app work does not, so it must stay under the same ceiling and
//! within 1% of the one-thread count. A pool that allocates per app (a
//! boxed message per finished app, a fresh scratch per claim) shows up
//! here.
//!
//! A second arm gates the `ij serve` path the same way: it counts the
//! allocations of one install mutation plus its incremental audit tick on
//! tenants preinstalled with 10, 100 and 400 releases, installing the same
//! releases into each. On the 10-release tenant that measures ~836, under
//! a 1,087 ceiling (1.3×): per-mutation work that every tenant pays alike,
//! such as a formatted line per object or pod, shows up there. A mutation
//! should cost what it touches, so a larger tenant may allocate at most
//! 1.5× as much per install as the 10-release one; work that scales with
//! the whole cluster (a full-scan reconcile, re-interning every release
//! for `M4*`) pushes the ratio towards the tenant-size ratio.
//!
//! Debug builds are skipped (unoptimized collections allocate on a
//! different schedule); CI runs this with
//! `cargo test --release -p ij-bench --test alloc_guard`.

use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
use ij_datasets::{
    apply_mutation, AppSpec, CensusPipeline, ChurnMutation, CorpusGenerator, CorpusProfile,
};
use ij_guard::IncrementalAuditor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every allocator entry point that hands out (or regrows) memory.
/// Deallocations are free-of-charge: the gate is about allocation churn.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The counter is process-wide: the arms take this lock so that tests
/// running on other threads never count into each other's window.
static SERIAL: Mutex<()> = Mutex::new(());

const SMALL: usize = 200;
const LARGE: usize = 1_200;
const PER_APP_CEILING: u64 = 1_066;
const SHARDED_PER_APP_CEILING: u64 = 1_066;
/// Largest allowed gap between the threaded and the one-thread count.
const THREADED_TOLERANCE: f64 = 0.01;

/// Serve arm: tenant sizes, measured installs, and the allowed growth.
const SMALL_TENANT: usize = 10;
const LARGE_TENANTS: [usize; 2] = [100, 400];
const INSTALLS: usize = 20;
const SERVE_PER_INSTALL_CEILING: u64 = 1_087;
const TENANT_RATIO_CEILING: f64 = 1.5;

fn census_allocs(apps: usize, threads: usize, shards: usize) -> u64 {
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(apps)
            .with_seed(7),
    );
    let pipeline = CensusPipeline::builder()
        .seed(7)
        .threads(threads)
        .shards(shards)
        .build();
    let before = ALLOCS.load(Ordering::Relaxed);
    let census = pipeline
        .run_generated_compact(&generator)
        .expect("generated corpus renders and installs");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(census.apps.len(), apps);
    assert!(
        census.total_misconfigurations() > 0,
        "census produced nothing; the allocation bound would be vacuous"
    );
    after - before
}

/// Steady-state allocations per app of a census on `threads` threads over
/// `shards` shards.
fn census_allocs_per_app(threads: usize, shards: usize) -> u64 {
    let small = census_allocs(SMALL, threads, shards);
    let large = census_allocs(LARGE, threads, shards);
    assert!(
        large > small,
        "larger census allocated less ({large} vs {small}); the delta is meaningless"
    );
    let per_app = (large - small) / (LARGE - SMALL) as u64;
    eprintln!(
        "alloc_guard: {threads} thread(s), {shards} shard(s): {small} allocs @ {SMALL} apps, {large} @ {LARGE}; \
         steady state {per_app} allocs/app"
    );
    per_app
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are calibrated for release builds"
)]
fn steady_state_census_allocations_stay_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_app = census_allocs_per_app(1, 1);
    assert!(
        per_app < PER_APP_CEILING,
        "steady-state census allocations regressed: {per_app} allocs/app \
         breached the {PER_APP_CEILING} ceiling (an encode → decode or \
         emit+reparse round trip costs hundreds more per app)"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are calibrated for release builds"
)]
fn sharded_census_merge_allocates_nothing_per_report() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_app = census_allocs_per_app(1, 2);
    assert!(
        per_app < SHARDED_PER_APP_CEILING,
        "steady-state allocations of a two-shard census regressed: {per_app} \
         allocs/app breached the {SHARDED_PER_APP_CEILING} ceiling (a merge \
         that copies each report and model costs about a dozen more per app)"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are calibrated for release builds"
)]
fn threaded_census_allocates_what_one_thread_does() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let one_thread = census_allocs_per_app(1, 2);
    let threaded = census_allocs_per_app(2, 2);
    assert!(
        threaded < SHARDED_PER_APP_CEILING,
        "steady-state allocations of a two-thread, two-shard census regressed: \
         {threaded} allocs/app breached the {SHARDED_PER_APP_CEILING} ceiling"
    );
    let gap = (threaded as f64 - one_thread as f64).abs() / one_thread as f64;
    assert!(
        gap <= THREADED_TOLERANCE,
        "a two-thread census allocates {threaded} per app against {one_thread} \
         on one thread ({:.1}% apart); the worker pool allocates per app",
        gap * 100.0
    );
}

/// One install mutation, as `ij serve` applies it.
fn install(cluster: &mut Cluster, auditor: &mut IncrementalAuditor, spec: AppSpec) {
    auditor.set_chart_defines_policies(&spec.name, spec.plan.netpol.defines_policy());
    apply_mutation(cluster, &ChurnMutation::Install { spec }).expect("install applies");
}

/// The first release every tenant installs under measurement: the releases
/// before it are the preinstalled ones.
const MEASURED: usize = LARGE_TENANTS[1];

/// Allocations per install mutation plus its incremental tick, averaged
/// over the releases `MEASURED..MEASURED + INSTALLS` of one generator, on
/// a tenant preinstalled with its first `releases` releases.
fn serve_allocs_per_install(releases: usize) -> u64 {
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("baseline profile")
            .with_apps(MEASURED + INSTALLS)
            .with_seed(7),
    );
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        seed: 7,
        behaviors: BehaviorRegistry::new(),
    });
    let mut auditor = IncrementalAuditor::new();
    for idx in 0..releases {
        install(&mut cluster, &mut auditor, generator.spec(idx));
    }
    let measured: Vec<AppSpec> = (MEASURED..MEASURED + INSTALLS)
        .map(|idx| generator.spec(idx))
        .collect();
    auditor.full_tick(&cluster);
    let before = ALLOCS.load(Ordering::Relaxed);
    for spec in measured {
        install(&mut cluster, &mut auditor, spec);
        auditor.tick(&cluster);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(auditor.tracked_apps(), releases + INSTALLS);
    (after - before) / INSTALLS as u64
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are calibrated for release builds"
)]
fn serve_install_allocations_do_not_scale_with_the_tenant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small = serve_allocs_per_install(SMALL_TENANT);
    assert!(
        small < SERVE_PER_INSTALL_CEILING,
        "an install plus its tick allocates {small} times on a \
         {SMALL_TENANT}-release tenant, breaching the \
         {SERVE_PER_INSTALL_CEILING} ceiling"
    );
    for tenant in LARGE_TENANTS {
        let large = serve_allocs_per_install(tenant);
        let ratio = large as f64 / small as f64;
        eprintln!(
            "alloc_guard: {small} allocs per install + tick @ {SMALL_TENANT} releases, \
             {large} @ {tenant}; ratio {ratio:.2} (ceiling {TENANT_RATIO_CEILING})"
        );
        assert!(
            ratio <= TENANT_RATIO_CEILING,
            "an install plus its tick allocates {ratio:.2}x as much on a \
             {tenant}-release tenant as on a {SMALL_TENANT}-release one \
             ({large} vs {small}); serve-path work scales with the cluster again"
        );
    }
}
