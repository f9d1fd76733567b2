//! The incremental-audit equivalence property: for *any* seeded churn
//! stream — installs, uninstalls, label flips, policy additions, scale
//! events over any scenario profile — the [`IncrementalAuditor`]'s finding
//! set and deltas are byte-identical to a full re-analysis after every
//! single mutation. The incremental path is an optimization, never a
//! different answer — also when pods and services are applied by hand,
//! outside any release, between the churn mutations.

use inside_job::cluster::{BehaviorRegistry, Cluster, ClusterConfig};
use inside_job::datasets::{
    apply_mutation, ChurnMutation, ChurnSession, CorpusGenerator, CorpusProfile,
};
use inside_job::guard::IncrementalAuditor;
use inside_job::model::{Labels, Object, ObjectMeta, Pod, PodSpec, Service, ServicePort};
use proptest::prelude::*;

const PROFILES: [&str; 6] = [
    "baseline",
    "mesh-heavy",
    "monolith-heavy",
    "pipeline-heavy",
    "legacy",
    "policy-mature",
];

fn harness(profile: &str, seed: u64) -> (Cluster, ChurnSession) {
    let generator = CorpusGenerator::new(
        CorpusProfile::named(profile)
            .expect("known profile")
            .with_apps(64)
            .with_seed(seed),
    );
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        seed,
        behaviors: BehaviorRegistry::new(),
    });
    (cluster, ChurnSession::new(generator))
}

/// Feeds the auditor the M6 "chart defines policies" bit the serve engine
/// would provide.
fn register_spec(auditors: &mut [&mut IncrementalAuditor], mutation: &ChurnMutation) {
    if let ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } = mutation {
        for auditor in auditors.iter_mut() {
            auditor.set_chart_defines_policies(&spec.name, spec.plan.netpol.defines_policy());
        }
    }
}

/// A pod (or a service selecting it) applied outside any release. It copies
/// the template labels and spec of the `step`-th installed workload, so it
/// collides with that release; with nothing installed it gets its own.
fn bare_object(cluster: &Cluster, step: usize, pod: bool) -> Object {
    let workloads: Vec<_> = cluster
        .objects()
        .iter()
        .filter_map(|o| match o {
            Object::Workload(w) => Some(w),
            _ => None,
        })
        .collect();
    let (namespace, labels, spec) = match workloads.get(step % workloads.len().max(1)) {
        Some(w) => (
            w.meta.namespace.clone(),
            w.template.labels.clone(),
            w.template.spec.clone(),
        ),
        None => (
            "default".to_string(),
            Labels::from_pairs([("app", "bare")]),
            PodSpec::default(),
        ),
    };
    let meta = ObjectMeta::named(format!("bare-{step}")).in_namespace(namespace);
    if pod {
        Object::Pod(Pod::new(meta.with_labels(labels), spec))
    } else {
        Object::Service(Service::cluster_ip(
            meta,
            labels,
            vec![ServicePort::tcp(80)],
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: after every mutation of a random stream, the
    /// incremental tick and a from-scratch full tick agree on the complete
    /// finding list and on every delta component.
    #[test]
    fn incremental_audit_equals_full_recompute(
        seed in 0u64..1_000_000,
        steps in 1usize..16,
        profile_idx in 0usize..PROFILES.len(),
    ) {
        let (mut cluster, mut session) = harness(PROFILES[profile_idx], seed);
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();

        for _ in 0..steps {
            let mutation = session.next_mutation();
            register_spec(&mut [&mut incremental, &mut oracle], &mutation);
            apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");

            let delta = incremental.tick(&cluster);
            let full = oracle.full_tick(&cluster);
            prop_assert_eq!(
                incremental.current(), oracle.current(),
                "finding sets diverged after `{}` of `{}`", mutation.kind(), mutation.app()
            );
            prop_assert_eq!(&delta.introduced, &full.introduced);
            prop_assert_eq!(&delta.resolved, &full.resolved);
        }
    }

    /// Bare objects are audited as one more release: pods wearing an
    /// installed workload's template labels (the imposter) and services
    /// selecting them, applied between churn mutations, keep every
    /// incremental tick equal to a full recompute.
    #[test]
    fn bare_objects_interleaved_with_churn_match_full_recompute(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0u8..4, 1..16),
        profile_idx in 0usize..PROFILES.len(),
    ) {
        let (mut cluster, mut session) = harness(PROFILES[profile_idx], seed);
        let mut incremental = IncrementalAuditor::new();
        let mut oracle = IncrementalAuditor::new();

        for (step, op) in ops.into_iter().enumerate() {
            let what = if op < 2 {
                let bare = bare_object(&cluster, step, op == 0);
                let what = format!("bare {} {}", bare.kind(), bare.qualified_name());
                cluster.apply(bare).expect("no admission chain");
                cluster.reconcile();
                what
            } else {
                let mutation = session.next_mutation();
                register_spec(&mut [&mut incremental, &mut oracle], &mutation);
                apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
                format!("`{}` of `{}`", mutation.kind(), mutation.app())
            };

            let delta = incremental.tick(&cluster);
            let full = oracle.full_tick(&cluster);
            prop_assert_eq!(
                incremental.current(), oracle.current(),
                "finding sets diverged after {}", what
            );
            prop_assert_eq!(&delta.introduced, &full.introduced);
            prop_assert_eq!(&delta.resolved, &full.resolved);
        }
    }

    /// A tick with no intervening mutation is quiet: nothing recomputed,
    /// nothing introduced or resolved, the previous findings persist.
    #[test]
    fn no_op_rounds_tick_quietly(
        seed in 0u64..1_000_000,
        steps in 1usize..8,
        profile_idx in 0usize..PROFILES.len(),
    ) {
        let (mut cluster, mut session) = harness(PROFILES[profile_idx], seed);
        let mut auditor = IncrementalAuditor::new();
        for _ in 0..steps {
            let mutation = session.next_mutation();
            register_spec(&mut [&mut auditor], &mutation);
            apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
            auditor.tick(&cluster);
        }
        let before = auditor.current().to_vec();
        let quiet = auditor.tick(&cluster);
        prop_assert!(quiet.is_quiet());
        prop_assert_eq!(auditor.current(), before.as_slice());
    }

    /// The whole engine is deterministic: replaying the same stream against
    /// a fresh cluster and auditor reproduces every delta byte-for-byte.
    #[test]
    fn audit_streams_are_deterministic(
        seed in 0u64..1_000_000,
        steps in 1usize..10,
        profile_idx in 0usize..PROFILES.len(),
    ) {
        let profile = PROFILES[profile_idx];
        let mut runs = Vec::new();
        for _ in 0..2 {
            let (mut cluster, mut session) = harness(profile, seed);
            let mut auditor = IncrementalAuditor::new();
            let mut deltas = Vec::new();
            for _ in 0..steps {
                let mutation = session.next_mutation();
                register_spec(&mut [&mut auditor], &mutation);
                apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
                let delta = auditor.tick(&cluster);
                deltas.push((mutation, delta.introduced, delta.resolved));
            }
            runs.push(deltas);
        }
        let second = runs.pop().expect("two runs");
        let first = runs.pop().expect("two runs");
        prop_assert_eq!(first, second);
    }
}

/// One long fixed stream beside the short random ones above: 60 mutations
/// of a `baseline` tenant at seed 7, long enough to cover every mutation
/// kind (install, uninstall, label flip, policy add, scale), with the
/// incremental tick checked against a full recompute after each.
#[test]
fn sixty_step_baseline_stream_equals_full_recompute() {
    let (mut cluster, mut session) = harness("baseline", 7);
    let mut incremental = IncrementalAuditor::new();
    let mut oracle = IncrementalAuditor::new();
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..60 {
        let mutation = session.next_mutation();
        kinds.insert(mutation.kind());
        register_spec(&mut [&mut incremental, &mut oracle], &mutation);
        apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
        let delta = incremental.tick(&cluster);
        let full = oracle.full_tick(&cluster);
        assert_eq!(
            incremental.current(),
            oracle.current(),
            "finding sets diverged after `{}` of `{}`",
            mutation.kind(),
            mutation.app()
        );
        assert_eq!(delta.introduced, full.introduced);
        assert_eq!(delta.resolved, full.resolved);
    }
    assert_eq!(kinds.len(), 5, "mutation kinds seen: {kinds:?}");
}

/// FNV-1a 64 step over raw bytes.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The serve-path byte pin: a 100-release `baseline` tenant at seed 7 under
/// 300 churn mutations, ticked after each. The fingerprint folds every
/// tick's introduced and resolved finding identities, the final pod table
/// and the cluster's event log. Pod start order fixes pod IPs and
/// ephemeral-port draws, so any change to the order in which `reconcile`
/// starts or reaps pods moves the hash.
#[test]
fn serve_path_matches_the_pinned_fnv64() {
    const RELEASES: usize = 100;
    const MUTATIONS: usize = 300;
    let generator = CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("known profile")
            .with_apps(RELEASES)
            .with_seed(7),
    );
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        seed: 7,
        behaviors: BehaviorRegistry::new(),
    });
    let mut session = ChurnSession::new(generator);
    let mut auditor = IncrementalAuditor::new();
    for mutation in session.preinstall(RELEASES) {
        register_spec(&mut [&mut auditor], &mutation);
        apply_mutation(&mut cluster, &mutation).expect("preinstall applies");
    }
    auditor.full_tick(&cluster);

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..MUTATIONS {
        let mutation = session.next_mutation();
        register_spec(&mut [&mut auditor], &mutation);
        apply_mutation(&mut cluster, &mutation).expect("churn mutations apply");
        let delta = auditor.tick(&cluster);
        for (tag, findings) in [(b'+', &delta.introduced), (b'-', &delta.resolved)] {
            for f in findings {
                h = fnv1a(h, &[tag]);
                h = fnv1a(h, &f.identity().to_le_bytes());
            }
        }
        h = fnv1a(h, b"\n");
    }
    for rp in cluster.pods() {
        let row = format!(
            "{} {} {} {:?}\n",
            rp.qualified_name(),
            rp.node,
            rp.ip,
            rp.sockets
        );
        h = fnv1a(h, row.as_bytes());
    }
    for event in cluster.events() {
        h = fnv1a(h, event.as_bytes());
        h = fnv1a(h, b"\n");
    }
    assert_eq!(format!("{h:016x}"), "ccbaadb7e89e4d84");
}
