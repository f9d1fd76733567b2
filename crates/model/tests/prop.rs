//! Property tests for label algebra and object codec round trips.

use ij_model::{
    decode_manifest, ContainerPort, LabelInterner, LabelSelector, Labels, NetworkPolicy,
    NetworkPolicyPeer, Object, ObjectMeta, PolicyPort, Protocol, SelectorMatcher, SelectorOp,
    SelectorRequirement, Service, ServicePort,
};
use proptest::prelude::*;

fn arb_labels() -> impl Strategy<Value = Labels> {
    prop::collection::btree_map("[a-z]{1,6}", "[a-z0-9]{1,6}", 0..5).prop_map(Labels)
}

fn arb_port() -> impl Strategy<Value = u16> {
    1u16..=65535
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Tcp),
        Just(Protocol::Udp),
        Just(Protocol::Sctp)
    ]
}

/// A deliberately narrow alphabet so selectors and label sets collide often
/// — the interesting cases for matcher equivalence.
fn arb_dense_labels() -> impl Strategy<Value = Labels> {
    prop::collection::btree_map("[ab]", "[xy]", 0..3).prop_map(Labels)
}

fn arb_selector() -> impl Strategy<Value = LabelSelector> {
    let op = prop_oneof![
        Just(SelectorOp::In),
        Just(SelectorOp::NotIn),
        Just(SelectorOp::Exists),
        Just(SelectorOp::DoesNotExist)
    ];
    let requirement = ("[abc]", op, prop::collection::vec("[xyz]", 0..3))
        .prop_map(|(key, op, values)| SelectorRequirement { key, op, values });
    (arb_dense_labels(), prop::collection::vec(requirement, 0..3)).prop_map(
        |(match_labels, match_expressions)| LabelSelector {
            match_labels,
            match_expressions,
        },
    )
}

proptest! {
    #[test]
    fn contains_all_is_reflexive(l in arb_labels()) {
        prop_assert!(l.contains_all(&l));
    }

    #[test]
    fn contains_all_is_transitive(a in arb_labels(), b in arb_labels(), c in arb_labels()) {
        if a.contains_all(&b) && b.contains_all(&c) {
            prop_assert!(a.contains_all(&c));
        }
    }

    #[test]
    fn empty_labels_are_bottom(l in arb_labels()) {
        prop_assert!(l.contains_all(&Labels::new()));
    }

    #[test]
    fn equality_selector_matches_iff_subset(pod in arb_labels(), sel in arb_labels()) {
        let selector = LabelSelector::from_labels(sel.clone());
        prop_assert_eq!(selector.matches(&pod), pod.contains_all(&sel));
    }

    /// The compiled [`SelectorMatcher`] agrees with the string-based
    /// [`LabelSelector::matches`] on every candidate label set, whichever
    /// order selector and candidates hit the intern table.
    #[test]
    fn compiled_selector_equals_naive(
        selector in arb_selector(),
        candidates in prop::collection::vec(arb_dense_labels(), 1..6),
        compile_first in any::<bool>(),
    ) {
        let mut interner = LabelInterner::new();
        if compile_first {
            let matcher = SelectorMatcher::compile(&selector, &mut interner);
            for labels in &candidates {
                let set = interner.intern(labels);
                prop_assert_eq!(matcher.matches(&set), selector.matches(labels), "{selector:?} vs {labels}");
            }
        } else {
            let sets: Vec<_> = candidates.iter().map(|l| interner.intern(l)).collect();
            let matcher = SelectorMatcher::compile(&selector, &mut interner);
            for (labels, set) in candidates.iter().zip(&sets) {
                prop_assert_eq!(matcher.matches(set), selector.matches(labels), "{selector:?} vs {labels}");
            }
        }
    }

    /// Interned `contains_all` is exactly the string subset relation.
    #[test]
    fn interned_contains_all_equals_subset(a in arb_dense_labels(), b in arb_dense_labels()) {
        let mut interner = LabelInterner::new();
        let set_a = interner.intern(&a);
        let matcher = SelectorMatcher::compile(&LabelSelector::from_labels(b.clone()), &mut interner);
        prop_assert_eq!(matcher.matches(&set_a), a.contains_all(&b));
    }

    #[test]
    fn service_round_trips(
        labels in arb_labels(),
        selector in arb_labels(),
        port in arb_port(),
        target in arb_port(),
        protocol in arb_protocol(),
        headless in any::<bool>(),
    ) {
        let mut sp = ServicePort::tcp_to(port, target);
        sp.protocol = protocol;
        let svc = if headless {
            Service::headless(
                ObjectMeta::named("svc").with_labels(labels),
                selector,
                vec![sp],
            )
        } else {
            Service::cluster_ip(
                ObjectMeta::named("svc").with_labels(labels),
                selector,
                vec![sp],
            )
        };
        let obj = Object::Service(svc.clone());
        let text = obj.to_manifest();
        let back = decode_manifest(&text)
            .unwrap_or_else(|e| panic!("decode failed: {e}\n{text}"));
        prop_assert_eq!(back, obj);
    }

    #[test]
    fn container_port_round_trips(
        port in arb_port(),
        protocol in arb_protocol(),
        named in any::<bool>(),
    ) {
        let mut p = ContainerPort::tcp(port);
        p.protocol = protocol;
        if named {
            p.name = Some("metrics".into());
        }
        let pod = ij_model::Pod::new(
            ObjectMeta::named("p"),
            ij_model::PodSpec {
                containers: vec![ij_model::Container::new("c", "img").with_ports(vec![p])],
                ..Default::default()
            },
        );
        let obj = Object::Pod(pod);
        let back = decode_manifest(&obj.to_manifest()).expect("decode");
        prop_assert_eq!(back, obj);
    }

    #[test]
    fn policy_port_range_covers_exactly_range(
        from in 1u16..=60000,
        len in 0u16..=500,
        probe in 1u16..=65535,
    ) {
        let to = from.saturating_add(len);
        let p = PolicyPort::tcp_range(from, to);
        let resolve = |_: &str| None;
        prop_assert_eq!(
            p.covers(probe, Protocol::Tcp, &resolve),
            (from..=to).contains(&probe)
        );
        prop_assert!(!p.covers(probe, Protocol::Udp, &resolve));
    }

    #[test]
    fn network_policy_round_trips(
        pod_sel in arb_labels(),
        peer_sel in arb_labels(),
        port in arb_port(),
    ) {
        let np = NetworkPolicy::allow_ingress(
            ObjectMeta::named("np").in_namespace("prod"),
            LabelSelector::from_labels(pod_sel),
            vec![NetworkPolicyPeer::pods(LabelSelector::from_labels(peer_sel))],
            vec![PolicyPort::tcp(port)],
        );
        let obj = Object::NetworkPolicy(np);
        let back = decode_manifest(&obj.to_manifest()).expect("decode");
        prop_assert_eq!(back, obj);
    }
}
