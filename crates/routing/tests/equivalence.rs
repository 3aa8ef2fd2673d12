//! Property tests pinning the generation engine (`engine::generation`) to
//! the invariants of the routing model: valley-free selections,
//! deterministic replay, validator immunity and path-length consistency.
//!
//! Random DAG-structured topologies (guaranteed by drawing provider links
//! from higher to lower fresh indices) exercise multi-homing, peering,
//! siblings, dual origins and filters. Agreement between engines is pinned
//! by `race_equivalence.rs` and `delta_equivalence.rs`, which compare the
//! closed-form and incremental engines against this one over the same
//! recipe shape.

use proptest::prelude::*;

use bgpsim_routing::{
    propagate, AsSet, FilterContext, NullObserver, PolicyConfig, PrefClass, SimNet, Workspace,
};
use bgpsim_topology::{AsId, AsIndex, LinkKind, Topology, TopologyBuilder};

/// A random topology recipe: `n` ASes; provider links always point from a
/// lower-index AS to a higher-index AS (so the p2c graph is acyclic, as the
/// Gao-Rexford stability theorem requires); peer and sibling links are
/// unconstrained.
#[derive(Debug, Clone)]
struct Recipe {
    n: u32,
    p2c: Vec<(u32, u32)>,
    p2p: Vec<(u32, u32)>,
    s2s: Vec<(u32, u32)>,
    origin_a: u32,
    origin_b: u32,
    validators: Vec<u32>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (4u32..24).prop_flat_map(|n| {
        let pair = (0..n, 0..n);
        (
            proptest::collection::vec(pair.clone(), 3..40),
            proptest::collection::vec(pair.clone(), 0..12),
            proptest::collection::vec(pair, 0..4),
            0..n,
            0..n,
            proptest::collection::vec(0..n, 0..6),
        )
            .prop_map(
                move |(p2c, p2p, s2s, origin_a, origin_b, validators)| Recipe {
                    n,
                    p2c,
                    p2p,
                    s2s,
                    origin_a,
                    origin_b,
                    validators,
                },
            )
    })
}

fn build(recipe: &Recipe) -> Topology {
    let mut b = TopologyBuilder::new();
    for i in 0..recipe.n {
        b.add_as(AsId::new(i + 1));
    }
    for &(x, y) in &recipe.p2c {
        if x != y {
            // Orient provider → customer from smaller to larger index:
            // guarantees an acyclic provider hierarchy.
            let (p, c) = if x < y { (x, y) } else { (y, x) };
            let _ = b.add_link(
                AsId::new(p + 1),
                AsId::new(c + 1),
                LinkKind::ProviderToCustomer,
            );
        }
    }
    for &(x, y) in &recipe.p2p {
        if x != y {
            let _ = b.add_link(AsId::new(x + 1), AsId::new(y + 1), LinkKind::PeerToPeer);
        }
    }
    for &(x, y) in &recipe.s2s {
        if x != y {
            let _ = b.add_link(
                AsId::new(x + 1),
                AsId::new(y + 1),
                LinkKind::SiblingToSibling,
            );
        }
    }
    b.build().expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every selected route is valley-free: once a path goes over a peer
    /// link or down a provider→customer link, it never goes up or across
    /// again. Verified by walking `learned_from` chains.
    #[test]
    fn selected_routes_are_valley_free(recipe in arb_recipe()) {
        let topo = build(&recipe);
        let net = SimNet::new(&topo);
        let a = AsIndex::new(recipe.origin_a);
        let b = AsIndex::new(recipe.origin_b);
        let mut origins = vec![a];
        if b != a {
            origins.push(b);
        }
        for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
            let p = propagate(
                &net,
                &origins,
                &FilterContext::none(),
                &policy,
                &mut Workspace::new(),
                &mut NullObserver,
            );
            for ix in topo.indices() {
                let Some(choice) = p.choice(ix) else { continue };
                // Walk to the origin collecting the relationship sequence
                // (receiver's view of each hop's sender).
                let mut rels = Vec::new();
                let mut cur = ix;
                let mut guard = 0;
                let mut at = p.choice(cur);
                while let Some(c) = at {
                    let Some(from) = c.learned_from else { break };
                    let rel = topo
                        .neighbors(cur)
                        .iter()
                        .find(|nb| nb.index == from)
                        .expect("learned_from is a neighbor")
                        .rel;
                    rels.push(rel);
                    cur = from;
                    at = p.choice(cur);
                    guard += 1;
                    prop_assert!(guard <= topo.num_ases(), "learned_from cycle");
                }
                prop_assert_eq!(cur, choice.origin, "chain must end at the origin");
                // Valley-free check on the reversed sequence (origin → ix):
                // phase 1: climb customer→provider; then ≤ 1 peer hop;
                // then descend provider→customer. Siblings are transparent.
                use bgpsim_topology::Relationship as R;
                let mut phase = 0; // 0 = climbing, 1 = after peer, 2 = descending
                for rel in rels.iter().rev() {
                    // `rel` is the *receiver's* view of the sender at each
                    // hop, walking origin → ix: Customer means the route
                    // went customer→provider (up).
                    match (*rel, phase) {
                        (R::Sibling, _) => {}
                        (R::Customer, 0) => {}
                        (R::Peer, 0) => phase = 1,
                        (R::Provider, _) => phase = 2,
                        (R::Customer, _) => {
                            return Err(TestCaseError::fail(format!(
                                "valley: route climbs after peer/descend at {}",
                                topo.id_of(ix)
                            )));
                        }
                        (R::Peer, _) => {
                            return Err(TestCaseError::fail(format!(
                                "valley: second peer crossing at {}",
                                topo.id_of(ix)
                            )));
                        }
                    }
                }
            }
        }
    }

    /// Deterministic replay: two fresh runs of the same scenario are
    /// identical, including convergence statistics.
    #[test]
    fn propagation_is_deterministic(recipe in arb_recipe()) {
        let topo = build(&recipe);
        let net = SimNet::new(&topo);
        let origins = [AsIndex::new(recipe.origin_a)];
        let run = |ws: &mut Workspace| {
            propagate(
                &net,
                &origins,
                &FilterContext::none(),
                &PolicyConfig::paper(),
                ws,
                &mut NullObserver,
            )
        };
        let a = run(&mut Workspace::new());
        let mut shared = Workspace::new();
        let b = run(&mut shared);
        let c = run(&mut shared); // workspace reuse must not leak state
        prop_assert_eq!(a.choices(), b.choices());
        prop_assert_eq!(b.choices(), c.choices());
        prop_assert_eq!(a.stats(), c.stats());
    }

    /// A validator AS is never polluted, and with universal deployment the
    /// attacker pollutes nobody.
    #[test]
    fn validators_are_immune(recipe in arb_recipe()) {
        let topo = build(&recipe);
        let net = SimNet::new(&topo);
        let t = AsIndex::new(recipe.origin_a);
        let a = AsIndex::new(recipe.origin_b);
        if t == a {
            return Ok(());
        }
        let validators = AsSet::from_members(
            &topo,
            recipe.validators.iter().map(|&v| AsIndex::new(v)),
        );
        let ctx = FilterContext::origin_validation(t, &validators);
        let p = propagate(
            &net,
            &[t, a],
            &ctx,
            &PolicyConfig::paper(),
            &mut Workspace::new(),
            &mut NullObserver,
        );
        for v in validators.iter() {
            if v == a {
                continue; // the attacker "pollutes" itself by definition
            }
            let polluted = matches!(p.choice(v), Some(c) if c.origin == a);
            prop_assert!(!polluted, "validator {} polluted", topo.id_of(v));
        }
        // Universal deployment: nobody is polluted.
        let everyone = AsSet::from_members(&topo, topo.indices());
        let ctx = FilterContext::origin_validation(t, &everyone);
        let p = propagate(
            &net,
            &[t, a],
            &ctx,
            &PolicyConfig::paper(),
            &mut Workspace::new(),
            &mut NullObserver,
        );
        prop_assert_eq!(p.captured_count(a), 0);
    }

    /// The origin's own selection is always itself, in both engines, and
    /// path lengths are consistent with `learned_from` chains.
    #[test]
    fn origins_and_lengths_are_consistent(recipe in arb_recipe()) {
        let topo = build(&recipe);
        let net = SimNet::new(&topo);
        let o = AsIndex::new(recipe.origin_a);
        let p = propagate(
            &net,
            &[o],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            &mut Workspace::new(),
            &mut NullObserver,
        );
        let c = p.choice(o).expect("origin routes to itself");
        prop_assert_eq!(c.origin, o);
        prop_assert_eq!(c.len, 0);
        prop_assert_eq!(c.class, PrefClass::Origin);
        for ix in topo.indices() {
            let Some(c) = p.choice(ix) else { continue };
            prop_assert_eq!(c.origin, o);
            // len equals the number of learned_from hops to the origin.
            let mut hops = 0u16;
            let mut cur = ix;
            while let Some(ch) = p.choice(cur) {
                match ch.learned_from {
                    Some(f) => {
                        hops += 1;
                        cur = f;
                    }
                    None => break,
                }
            }
            prop_assert_eq!(c.len, hops, "len mismatch at {}", topo.id_of(ix));
        }
    }
}
