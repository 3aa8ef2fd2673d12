//! Behavioral tests of the routing model on hand-built micro-topologies.
//!
//! Each test pins one rule from the paper's §III policy description.

use bgpsim_routing::{
    propagate, propagate_announcements, Announcement, AsSet, Decision, FilterContext, NullObserver,
    PolicyConfig, PrefClass, Propagation, SimNet, TraceRecorder, Workspace,
};
use bgpsim_topology::LinkKind::*;
use bgpsim_topology::{topology_from_triples, AsId, AsIndex, Topology};

fn run(topo: &Topology, origins: &[u32]) -> Propagation {
    run_with(
        topo,
        origins,
        &FilterContext::none(),
        &PolicyConfig::paper(),
    )
}

fn run_with(
    topo: &Topology,
    origins: &[u32],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
) -> Propagation {
    let net = SimNet::new(topo);
    let origins: Vec<AsIndex> = origins
        .iter()
        .map(|&n| topo.index_of(AsId::new(n)).unwrap())
        .collect();
    propagate(
        &net,
        &origins,
        filters,
        policy,
        &mut Workspace::new(),
        &mut NullObserver,
    )
}

fn ix(topo: &Topology, n: u32) -> AsIndex {
    topo.index_of(AsId::new(n)).unwrap()
}

#[test]
fn origin_keeps_its_own_route() {
    let topo = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
    let p = run(&topo, &[2]);
    let c = p.choice(ix(&topo, 2)).unwrap();
    assert_eq!(c.class, PrefClass::Origin);
    assert_eq!(c.len, 0);
    assert_eq!(c.learned_from, None);
}

#[test]
fn customer_route_preferred_over_peer_and_provider() {
    // AS5 can reach the origin three ways: via customer 4, via peer 3, via
    // provider 2 — all length 2. Customer must win.
    let topo = topology_from_triples(&[
        (5, 4, ProviderToCustomer), // 4 is 5's customer
        (5, 3, PeerToPeer),
        (2, 5, ProviderToCustomer), // 2 is 5's provider
        (4, 9, ProviderToCustomer),
        (3, 9, ProviderToCustomer),
        (2, 9, ProviderToCustomer),
    ]);
    let p = run(&topo, &[9]);
    let c = p.choice(ix(&topo, 5)).unwrap();
    assert_eq!(c.class, PrefClass::Customer);
    assert_eq!(c.learned_from, Some(ix(&topo, 4)));
}

#[test]
fn shorter_path_wins_within_class() {
    // Two customer paths to the origin: direct (len 1) and via a chain.
    let topo = topology_from_triples(&[
        (1, 9, ProviderToCustomer),
        (1, 2, ProviderToCustomer),
        (2, 9, ProviderToCustomer),
    ]);
    let p = run(&topo, &[9]);
    let c = p.choice(ix(&topo, 1)).unwrap();
    assert_eq!(c.len, 1);
    assert_eq!(c.learned_from, Some(ix(&topo, 9)));
}

#[test]
fn valley_free_blocks_peer_to_peer_transit() {
    // origin 9 — peer — 1 — peer — 2: AS2 must NOT hear the route via two
    // successive peer links.
    let topo = topology_from_triples(&[(9, 1, PeerToPeer), (1, 2, PeerToPeer)]);
    let p = run(&topo, &[9]);
    assert!(p.choice(ix(&topo, 1)).is_some());
    assert!(
        p.choice(ix(&topo, 2)).is_none(),
        "peer route re-exported to a peer"
    );
}

#[test]
fn valley_free_blocks_provider_route_up() {
    // 9's provider chain: 1 ← 9. 1 also buys from 2. A provider route at 1
    // (from 2? no —) build: 2 is provider of 1, 1 is provider of 9.
    // Origin 9 announces up to 1 (customer route at 1) — exportable to 2.
    // But a provider-learned route at 9 (if 1 announced something down)
    // must not go up. Construct: origin is 2 (top); 9 hears via 1
    // (provider route), and 9 peers with 8: 8 must not hear from 9.
    let topo = topology_from_triples(&[
        (2, 1, ProviderToCustomer),
        (1, 9, ProviderToCustomer),
        (9, 8, PeerToPeer),
    ]);
    let p = run(&topo, &[2]);
    assert_eq!(p.choice(ix(&topo, 9)).unwrap().class, PrefClass::Provider);
    assert!(
        p.choice(ix(&topo, 8)).is_none(),
        "provider route re-exported to a peer"
    );
}

#[test]
fn provider_routes_do_flow_down() {
    // origin 1 (top provider) → 2 → 3: everyone below hears it.
    let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (2, 3, ProviderToCustomer)]);
    let p = run(&topo, &[1]);
    let c3 = p.choice(ix(&topo, 3)).unwrap();
    assert_eq!(c3.class, PrefClass::Provider);
    assert_eq!(c3.len, 2);
}

#[test]
fn tier1_prefers_shortest_path_when_enabled() {
    // Tier-1 AS1 (no providers, has peer+customers) hears the origin two
    // ways: customer route of length 3 and peer route of length 2.
    // Paper policy: the shorter peer route wins at a tier-1.
    // Strict Gao-Rexford: the customer route wins.
    let topo = topology_from_triples(&[
        (1, 2, PeerToPeer),         // tier-1 clique: 1, 2
        (1, 3, ProviderToCustomer), // 1's customer chain: 3 → 4 → 9
        (3, 4, ProviderToCustomer),
        (4, 9, ProviderToCustomer),
        (2, 9, ProviderToCustomer), // 2 reaches origin directly
    ]);
    let paper = run(&topo, &[9]);
    let c = paper.choice(ix(&topo, 1)).unwrap();
    assert_eq!(
        c.class,
        PrefClass::Peer,
        "tier-1 takes the short peer route"
    );
    assert_eq!(c.len, 2);

    let strict = run_with(
        &topo,
        &[9],
        &FilterContext::none(),
        &PolicyConfig::strict_gao_rexford(),
    );
    let c = strict.choice(ix(&topo, 1)).unwrap();
    assert_eq!(
        c.class,
        PrefClass::Customer,
        "strict GR keeps the customer route"
    );
    assert_eq!(c.len, 3);
}

#[test]
fn hijack_splits_the_internet_between_origins() {
    // Target 9 under provider 1; attacker 8 under provider 2; 1 peers 2.
    // Each provider sticks with its own customer.
    let topo = topology_from_triples(&[
        (1, 9, ProviderToCustomer),
        (2, 8, ProviderToCustomer),
        (1, 2, PeerToPeer),
        (1, 5, ProviderToCustomer),
        (2, 6, ProviderToCustomer),
    ]);
    let p = run(&topo, &[9, 8]);
    let t = ix(&topo, 9);
    let a = ix(&topo, 8);
    // Providers keep their customers' routes.
    assert_eq!(p.choice(ix(&topo, 1)).unwrap().origin, t);
    assert_eq!(p.choice(ix(&topo, 2)).unwrap().origin, a);
    // Stubs inherit their provider's side.
    assert_eq!(p.choice(ix(&topo, 5)).unwrap().origin, t);
    assert_eq!(p.choice(ix(&topo, 6)).unwrap().origin, a);
    // The target itself is never polluted.
    assert_eq!(p.choice(t).unwrap().origin, t);
    assert_eq!(p.captured_count(a), 2); // AS2 and AS6
}

#[test]
fn origin_validation_blocks_and_shields_downstream() {
    // AS2 has two customers: a chain to the target (9 behind 1) and the
    // attacker 8 directly. Both give customer-class routes; the attacker's
    // is shorter, so unfiltered AS2 is polluted — and so is its provider 3.
    // With AS2 validating, both are shielded.
    let topo = topology_from_triples(&[
        (1, 9, ProviderToCustomer),
        (2, 1, ProviderToCustomer),
        (2, 8, ProviderToCustomer),
        (3, 2, ProviderToCustomer),
    ]);
    let net = SimNet::new(&topo);
    let t = ix(&topo, 9);
    let a = ix(&topo, 8);

    let baseline = run(&topo, &[9, 8]);
    assert_eq!(baseline.choice(ix(&topo, 2)).unwrap().origin, a);
    assert_eq!(baseline.choice(ix(&topo, 3)).unwrap().origin, a);

    let validators = AsSet::from_members(&topo, [ix(&topo, 2)]);
    let filters = FilterContext::origin_validation(t, &validators);
    let filtered = propagate(
        &net,
        &[t, a],
        &filters,
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut NullObserver,
    );
    // The validator itself takes the legitimate route...
    assert_eq!(filtered.choice(ix(&topo, 2)).unwrap().origin, t);
    // ...and shields its provider, which only hears routes through it.
    assert_eq!(filtered.choice(ix(&topo, 3)).unwrap().origin, t);
    assert!(filtered.stats().filter_rejected > 0);
}

#[test]
fn full_validation_deployment_stops_everything() {
    let topo = topology_from_triples(&[
        (1, 9, ProviderToCustomer),
        (1, 8, ProviderToCustomer),
        (1, 2, ProviderToCustomer),
        (2, 3, ProviderToCustomer),
    ]);
    let t = ix(&topo, 9);
    let a = ix(&topo, 8);
    let all: Vec<AsIndex> = topo.indices().collect();
    let validators = AsSet::from_members(&topo, all);
    let p = run_with(
        &topo,
        &[9, 8],
        &FilterContext::origin_validation(t, &validators),
        &PolicyConfig::paper(),
    );
    assert_eq!(p.captured_count(a), 0, "universal ROV blocks the hijack");
    // The legitimate route still reaches everyone.
    assert_eq!(
        p.choices()
            .iter()
            .filter(|c| matches!(c, Some(c) if c.origin == t))
            .count(),
        topo.num_ases() - 1
    );
}

#[test]
fn stub_defense_blocks_bogus_stub_announcements() {
    // Attacker 8 is a stub under provider 2; with stub defense its hijack
    // of AS9's prefix dies at 2: nobody is polluted.
    let topo = topology_from_triples(&[
        (1, 9, ProviderToCustomer),
        (1, 2, ProviderToCustomer),
        (2, 8, ProviderToCustomer),
    ]);
    let t = ix(&topo, 9);
    let ctx = FilterContext {
        stub_defense: true,
        authorized_origin: Some(t),
        ..FilterContext::none()
    };
    let p = run_with(&topo, &[9, 8], &ctx, &PolicyConfig::paper());
    assert_eq!(p.captured_count(ix(&topo, 8)), 0);
    assert!(p.stats().stub_rejected > 0);
    // A stub announcing its own (authorized) prefix is NOT blocked.
    let own_ctx = FilterContext {
        stub_defense: true,
        authorized_origin: Some(ix(&topo, 8)),
        ..FilterContext::none()
    };
    let own = run_with(&topo, &[8], &own_ctx, &PolicyConfig::paper());
    assert_eq!(own.reached_count(), topo.num_ases());
}

#[test]
fn sibling_group_propagates_and_inherits_class() {
    // 9 — (customer of) — 2; 2 sibling 3; 3 peers 4. A customer route
    // entering the sibling group must exit to a peer (class preserved).
    let topo = topology_from_triples(&[
        (2, 9, ProviderToCustomer),
        (2, 3, SiblingToSibling),
        (3, 4, PeerToPeer),
    ]);
    let p = run(&topo, &[9]);
    let c3 = p.choice(ix(&topo, 3)).unwrap();
    assert_eq!(c3.class, PrefClass::Customer, "sibling inherits class");
    assert_eq!(c3.len, 2);
    let c4 = p.choice(ix(&topo, 4)).unwrap();
    assert_eq!(c4.class, PrefClass::Peer);
    assert_eq!(c4.len, 3);
}

#[test]
fn sibling_group_does_not_leak_peer_routes_to_peers() {
    // Peer route enters the group; the other sibling must not export it to
    // its own peer (valley-free still applies to the group as one AS).
    let topo = topology_from_triples(&[
        (9, 2, PeerToPeer),
        (2, 3, SiblingToSibling),
        (3, 4, PeerToPeer),
    ]);
    let p = run(&topo, &[9]);
    assert_eq!(p.choice(ix(&topo, 3)).unwrap().class, PrefClass::Peer);
    assert!(p.choice(ix(&topo, 4)).is_none());
}

#[test]
fn loop_rejection_is_counted() {
    // A triangle of providers guarantees some announcements return to an
    // AS already on the path.
    let topo = topology_from_triples(&[
        (1, 2, PeerToPeer),
        (2, 3, PeerToPeer),
        (1, 3, PeerToPeer),
        (1, 9, ProviderToCustomer),
        (2, 9, ProviderToCustomer),
        (3, 9, ProviderToCustomer),
    ]);
    let net = SimNet::new(&topo);
    let mut trace = TraceRecorder::new();
    let p = propagate(
        &net,
        &[ix(&topo, 9)],
        &FilterContext::none(),
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut trace,
    );
    assert_eq!(p.reached_count(), 4);
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.decision == Decision::RejectedLoop),
        "triangle must produce loop rejections"
    );
    assert_eq!(p.stats().loop_rejected, {
        trace
            .events()
            .iter()
            .filter(|e| e.decision == Decision::RejectedLoop)
            .count() as u64
    });
}

#[test]
fn convergence_within_few_generations() {
    // The paper reports convergence within 5–10 generations; a 3-level
    // hierarchy converges in about tree depth + 1.
    let topo = topology_from_triples(&[
        (1, 2, ProviderToCustomer),
        (2, 3, ProviderToCustomer),
        (3, 9, ProviderToCustomer),
        (1, 4, ProviderToCustomer),
    ]);
    let p = run(&topo, &[9]);
    let g = p.stats().generations;
    assert!((4..=6).contains(&g), "generations {g}");
    assert!(!p.stats().truncated);
}

#[test]
fn generation_cap_truncates_gracefully() {
    let topo = topology_from_triples(&[
        (1, 2, ProviderToCustomer),
        (2, 3, ProviderToCustomer),
        (3, 9, ProviderToCustomer),
    ]);
    let policy = PolicyConfig {
        max_generations: 2,
        ..PolicyConfig::paper()
    };
    let p = run_with(&topo, &[9], &FilterContext::none(), &policy);
    assert!(p.stats().truncated);
    assert!(p.reached_count() < topo.num_ases());
}

#[test]
fn disconnected_ases_get_no_route() {
    let topo = topology_from_triples(&[(1, 9, ProviderToCustomer), (5, 6, PeerToPeer)]);
    let p = run(&topo, &[9]);
    assert!(p.choice(ix(&topo, 5)).is_none());
    assert!(p.choice(ix(&topo, 6)).is_none());
    assert_eq!(p.reached_count(), 2);
}

#[test]
fn deterministic_across_runs_and_workspace_reuse() {
    let topo = topology_from_triples(&[
        (1, 2, PeerToPeer),
        (1, 3, ProviderToCustomer),
        (2, 4, ProviderToCustomer),
        (3, 9, ProviderToCustomer),
        (4, 9, ProviderToCustomer),
        (3, 8, ProviderToCustomer),
        (4, 8, ProviderToCustomer),
    ]);
    let net = SimNet::new(&topo);
    let mut ws = Workspace::new();
    let origins = [ix(&topo, 9), ix(&topo, 8)];
    let first = propagate(
        &net,
        &origins,
        &FilterContext::none(),
        &PolicyConfig::paper(),
        &mut ws,
        &mut NullObserver,
    );
    for _ in 0..5 {
        let again = propagate(
            &net,
            &origins,
            &FilterContext::none(),
            &PolicyConfig::paper(),
            &mut ws,
            &mut NullObserver,
        );
        assert_eq!(first.choices(), again.choices());
        assert_eq!(first.stats(), again.stats());
    }
}

#[test]
fn forged_announcement_claims_origin_and_lengthens_path() {
    // 1 — 2 — 3 chain; 3 forges origin 9 (not even present nearby).
    let topo = topology_from_triples(&[
        (1, 2, ProviderToCustomer),
        (2, 3, ProviderToCustomer),
        (1, 9, ProviderToCustomer),
    ]);
    let net = SimNet::new(&topo);
    let victim = ix(&topo, 9);
    let forger = ix(&topo, 3);
    let p = propagate_announcements(
        &net,
        &[Announcement::forged(forger, victim)],
        &FilterContext::none(),
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut NullObserver,
    );
    // The forger's own selection reports the claimed origin with len 1.
    let c = p.choice(forger).unwrap();
    assert_eq!(c.origin, victim);
    assert_eq!(c.len, 1);
    assert_eq!(c.class, PrefClass::Origin);
    // A neighbor sees len 2 (the forged hop counts).
    let c2 = p.choice(ix(&topo, 2)).unwrap();
    assert_eq!(c2.len, 2);
    assert_eq!(c2.origin, victim);
    // The victim loop-rejects the forgery: its own ASN is on the path.
    assert!(p.choice(victim).is_none());
}

#[test]
fn forged_announcement_passes_origin_validation() {
    let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (1, 9, ProviderToCustomer)]);
    let net = SimNet::new(&topo);
    let victim = ix(&topo, 9);
    let forger = ix(&topo, 2);
    let validators = AsSet::from_members(&topo, topo.indices());
    let ctx = FilterContext::origin_validation(victim, &validators);
    let p = propagate_announcements(
        &net,
        &[Announcement::forged(forger, victim)],
        &ctx,
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut NullObserver,
    );
    // AS1 validates origins — and the claimed origin IS the victim, so the
    // forged route is installed.
    let c1 = p.choice(ix(&topo, 1)).unwrap();
    assert_eq!(c1.origin, victim);
    assert_eq!(c1.learned_from, Some(forger));
    assert_eq!(p.stats().filter_rejected, 0);
    assert!(!Announcement::honest(victim).is_forged());
    assert!(Announcement::forged(forger, victim).is_forged());
}

#[test]
#[should_panic(expected = "at least one origin")]
fn empty_origins_panics() {
    let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
    let net = SimNet::new(&topo);
    let _ = propagate(
        &net,
        &[],
        &FilterContext::none(),
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut NullObserver,
    );
}

#[test]
#[should_panic(expected = "duplicate origin")]
fn duplicate_origins_panic() {
    let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
    let net = SimNet::new(&topo);
    let o = ix(&topo, 1);
    let _ = propagate(
        &net,
        &[o, o],
        &FilterContext::none(),
        &PolicyConfig::paper(),
        &mut Workspace::new(),
        &mut NullObserver,
    );
}

/// The lab witness of DESIGN.md §12 (standard lab, AS1 ← AS577, siblings
/// 9871–5012–6324), shrunk to twelve ASes. Sibling chain 32–30–31 with one
/// provider each (12, 13, 11) under a common root 10 that also serves the
/// target 1. The attacker 2 sits at the bottom of a four-hop customer
/// chain below 13, and 13 in turn buys from 11 — so the attacker's
/// customer route displaces 13's provider route to the target at
/// generation 4 and 11's one generation later.
///
/// * Generation 5: 30's provider route is replaced by the attacker's
///   longer one; its rescan lands on sibling 31's `(1, len 4, Provider)`
///   (lower slot than 32's equal entry) and it exports `30 31 11 10 1`.
/// * Generation 6: 31 loop-rejects that export — dropping 30's slot — and
///   loses its own route to the target as 11 turns to the attacker; it
///   exports the attacker route.
/// * Generation 7: that export replaces the entry 30's best sat on. The
///   rescan picks sibling 32's `(1, len 4, Provider)`: the **same triple**
///   under a **different path**. 30 must re-announce — real BGP sends an
///   UPDATE on any path change — or 31, whose table no longer holds
///   anything from 30, stays on a six-hop route to the attacker although
///   its sibling holds a loop-free route to the target.
///
/// A last-export memo keyed on the triple alone suppressed exactly that
/// re-announcement, and the engine converged on a state that is not a
/// stable routing solution (race ≠ generation on 1 lab attack in 200).
#[test]
fn path_change_under_an_unchanged_triple_is_reannounced() {
    let topo = topology_from_triples(&[
        (10, 1, ProviderToCustomer),
        (10, 11, ProviderToCustomer),
        (10, 12, ProviderToCustomer),
        (10, 13, ProviderToCustomer),
        (11, 13, ProviderToCustomer),
        // 31 before 32: first mention fixes the index, hence 30's slot
        // order among its siblings.
        (11, 31, ProviderToCustomer),
        (12, 32, ProviderToCustomer),
        (13, 30, ProviderToCustomer),
        (13, 21, ProviderToCustomer),
        (21, 22, ProviderToCustomer),
        (22, 23, ProviderToCustomer),
        (23, 2, ProviderToCustomer),
        (30, 31, SiblingToSibling),
        (30, 32, SiblingToSibling),
    ]);
    let net = SimNet::new(&topo);
    let (target, attacker) = (ix(&topo, 1), ix(&topo, 2));
    let (mid, low, high) = (ix(&topo, 30), ix(&topo, 31), ix(&topo, 32));
    for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
        let mut trace = TraceRecorder::new();
        let p = propagate(
            &net,
            &[target, attacker],
            &FilterContext::none(),
            &policy,
            &mut Workspace::new(),
            &mut trace,
        );
        // The same-triple move: 31's attacker route replaces the entry
        // 30's best sat on, 30 lands on 32's equal triple — `Stored`, no
        // adoption counted...
        let moved = trace
            .events()
            .iter()
            .find(|e| (e.from, e.to, e.origin) == (low, mid, attacker))
            .expect("31 exports the attacker route to 30");
        assert_eq!(moved.decision, Decision::Stored);
        // ...and yet 30 re-announces in the next generation, to both
        // siblings.
        let reannounced: Vec<AsIndex> = trace
            .generation(moved.generation + 1)
            .filter(|e| e.from == mid)
            .map(|e| e.to)
            .collect();
        assert_eq!(reannounced, [low, high]);
        // End state: the whole chain routes to the target, 31 through its
        // siblings.
        let path = |x| p.path_to_origin(x).expect("routed");
        let asns = |x| -> Vec<u32> { path(x).iter().map(|&h| topo.id_of(h).value()).collect() };
        assert_eq!(asns(mid), [30, 32, 12, 10, 1]);
        assert_eq!(asns(low), [31, 30, 32, 12, 10, 1]);
        assert_eq!(asns(high), [32, 12, 10, 1]);
    }
}
