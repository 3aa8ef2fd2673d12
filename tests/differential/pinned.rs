//! Cases the property must keep passing whatever the random draw: every
//! hand-built regression and every recorded failing seed of the suites the
//! property replaced, each with its recipe verbatim (fields those suites
//! did not draw take their smallest values), plus the stream detector's
//! latency fixture with known ground truth.

use bgpsim_detection::ProbeSet;
use bgpsim_hijack::{Attack, Simulator};
use bgpsim_routing::PolicyConfig;
use bgpsim_stream::{
    run_stream, triggered_series, DetectorMode, EventKind, StreamEvent, StreamPlan, SERIES_LATENCY,
    SERIES_POLLUTION,
};
use bgpsim_topology::{topology_from_triples, AsId, LinkKind};

use crate::property;
use crate::recipe::Recipe;

/// The race solver's `(solves, converged)` tally of a passing case; a
/// failure panics with the shrunk literal.
fn holds(r: &Recipe) -> (u32, u32) {
    property(r).unwrap_or_else(|e| panic!("{e}"))
}

/// The topology that broke the first (snapshot-only) delta design. AS 12's
/// honest best is a customer-class route laundered through sibling 4,
/// which a provider-class attacker route can never dislodge *after*
/// convergence — but in the simultaneous race AS 12 adopts the attacker at
/// generation 1, before the sibling route exists, and tier-1 AS 4
/// (shortest-path-first) follows it. The paper policy admits both stable
/// states; only the raced one is correct. Tier-1 1's sibling 10 buys
/// transit, so the race solver declines the paper half. (Seed
/// `9c0a165720cb9a21`, pinned by both the race and the delta suites.)
#[test]
fn sibling_laundered_multistability() {
    assert_eq!(
        holds(&Recipe {
            n: 13,
            p2c: vec![(3, 12), (7, 7), (8, 0), (0, 12), (8, 7), (7, 9), (12, 9), (8, 6), (8, 2), (10, 5), (2, 3), (12, 9), (8, 10), (3, 9), (10, 11), (1, 6), (7, 1), (9, 12), (2, 6), (6, 4), (9, 9), (2, 7), (1, 7), (7, 6), (1, 12), (1, 11), (5, 2), (6, 3), (0, 9), (7, 11), (0, 9), (5, 7), (7, 0)],
            p2p: vec![(9, 2), (9, 0)],
            s2s: vec![(12, 4), (1, 10)],
            leaves: vec![],
            target: 11, attacker: 0, claim: 0,
            validators: vec![], revalidators: vec![],
            max_generations: 3, events: 8, tape_seed: 0, probe_seed: 0,
        }),
        (18, 9)
    );
}

/// A sibling chain 11–13–16–1 closed into a cycle by the provider edge
/// 1→11, with one origin below the chain at 14 and the other (2) isolated:
/// the case that once separated the generation engine from a plain
/// label-setting solver under strict Gao-Rexford. Tier-1 1's sibling 11
/// buys transit from it, so only the strict half races — in one round.
/// (Seed `b751d1f7b93093cd` of the race solver's suite.)
#[test]
fn sibling_chain_cycle() {
    assert_eq!(
        holds(&Recipe {
            n: 19,
            p2c: vec![(11, 14), (1, 11), (0, 0)],
            p2p: vec![],
            s2s: vec![(11, 13), (13, 16), (1, 16)],
            leaves: vec![],
            target: 2, attacker: 14, claim: 14,
            validators: vec![], revalidators: vec![],
            max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
        }),
        (18, 9)
    );
}

/// The lab divergence of DESIGN.md §12 (standard lab, AS1 ← AS577), shrunk
/// by hand to twelve ASes — `semantics.rs`
/// (`path_change_under_an_unchanged_triple_is_reannounced`) walks the
/// mechanism generation by generation. Sibling chain 11–9–10 with one
/// provider each (2, 3, 1) under root 0, target 8 below the root, attacker
/// 7 at the bottom of a customer chain below 3, which also buys from 1.
/// AS 9's best moves between two sibling paths under an unchanged
/// `(origin, len, class)`; unless it re-announces, AS 10 ends on a
/// six-hop route to the attacker where the race solver — and any stable
/// solution — has it on a five-hop route to the target.
#[test]
fn same_triple_path_change() {
    assert_eq!(
        holds(&Recipe {
            n: 12,
            p2c: vec![(0, 8), (0, 1), (0, 2), (0, 3), (1, 3), (1, 10), (2, 11), (3, 9), (3, 4), (4, 5), (5, 6), (6, 7)],
            p2p: vec![],
            s2s: vec![(9, 10), (9, 11)],
            leaves: vec![],
            target: 8, attacker: 7, claim: 7,
            validators: vec![], revalidators: vec![],
            max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
        }),
        (18, 18)
    );
}

/// Seed `91d7a03c85df5e21`, recorded by the race solver's suite.
#[test]
fn seed_91d7a03c() {
    holds(&Recipe {
        n: 11,
        p2c: vec![(0, 0), (2, 10), (8, 8), (2, 2), (6, 1), (1, 3), (3, 1), (8, 10), (2, 5), (2, 0), (7, 1), (3, 5), (2, 10), (1, 6), (6, 2), (9, 7), (7, 7), (9, 9), (8, 1), (7, 3), (1, 7), (2, 5), (7, 4), (5, 8), (3, 2), (8, 4), (8, 5), (4, 2), (9, 9), (4, 0), (4, 9), (1, 8), (10, 3), (4, 7)],
        p2p: vec![(4, 7), (6, 9), (6, 2), (3, 1), (10, 7), (6, 9), (8, 0), (7, 7), (8, 8), (4, 8), (10, 0)],
        s2s: vec![(2, 9)],
        leaves: vec![],
        target: 2, attacker: 9, claim: 9,
        validators: vec![], revalidators: vec![],
        max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
    });
}

/// Seed `273deb8a8e618d25`, recorded by the race solver's suite.
#[test]
fn seed_273deb8a() {
    holds(&Recipe {
        n: 22,
        p2c: vec![(18, 18), (4, 20), (6, 5), (0, 6), (4, 5), (6, 16), (5, 4), (14, 20), (3, 16)],
        p2p: vec![(1, 4), (21, 21), (9, 1), (16, 13), (13, 21), (20, 13), (2, 18), (5, 6), (0, 13), (19, 6), (5, 17)],
        s2s: vec![(4, 13), (13, 9)],
        leaves: vec![],
        target: 2, attacker: 17, claim: 17,
        validators: vec![18], revalidators: vec![],
        max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
    });
}

/// Seed `5162485344b60ea7`, recorded by the delta engine's suite.
#[test]
fn seed_51624853() {
    holds(&Recipe {
        n: 10,
        p2c: vec![(5, 6), (0, 9), (1, 6), (6, 2), (7, 9), (7, 4), (0, 6), (5, 3), (8, 4), (3, 2), (0, 4), (2, 0), (3, 3), (3, 5), (0, 1), (2, 3), (3, 5), (2, 9), (4, 2), (2, 0), (2, 9), (2, 7), (6, 9), (0, 5), (4, 8), (6, 2), (4, 3), (5, 0), (1, 0), (9, 4)],
        p2p: vec![(5, 8), (3, 0), (4, 2), (6, 3), (0, 7), (3, 6), (2, 7), (7, 9), (3, 0), (6, 6), (4, 1)],
        s2s: vec![(2, 9), (7, 2), (8, 4)],
        leaves: vec![(9, 9, 0), (5, 1, 1), (0, 4, 15), (6, 6, 1)],
        target: 13, attacker: 0, claim: 12,
        validators: vec![], revalidators: vec![],
        max_generations: 3, events: 8, tape_seed: 0, probe_seed: 0,
    });
}

/// Seed `06af22ac4074f725`, recorded by the delta engine's suite.
#[test]
fn seed_06af22ac() {
    holds(&Recipe {
        n: 17,
        p2c: vec![(11, 6), (11, 15), (11, 2), (12, 13), (4, 0), (16, 11), (13, 0), (12, 5), (10, 12), (15, 11), (14, 2), (15, 5), (15, 12), (10, 4), (16, 6), (2, 15), (1, 9), (9, 9), (10, 11), (8, 4), (5, 8), (15, 10), (1, 0), (4, 14), (3, 8)],
        p2p: vec![(9, 12), (9, 8), (14, 2), (8, 8), (14, 15), (10, 4), (12, 5), (13, 7), (2, 13), (16, 14), (9, 9)],
        s2s: vec![(8, 7)],
        leaves: vec![(10, 16, 19), (13, 0, 7), (16, 2, 10), (7, 6, 24), (3, 16, 10), (14, 11, 2), (15, 0, 15)],
        target: 12, attacker: 3, claim: 8,
        validators: vec![], revalidators: vec![],
        max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
    });
}

/// Seed `56d54c1bd399e0ee`, recorded by the delta engine's suite.
#[test]
fn seed_56d54c1b() {
    holds(&Recipe {
        n: 12,
        p2c: vec![(1, 2), (11, 9), (7, 7), (7, 7), (5, 5), (1, 3), (7, 8), (8, 1), (3, 3), (1, 4)],
        p2p: vec![(3, 7), (9, 11), (9, 11), (10, 9), (2, 4), (10, 5)],
        s2s: vec![(3, 3)],
        leaves: vec![],
        target: 15, attacker: 14, claim: 8,
        validators: vec![], revalidators: vec![5, 16, 18],
        max_generations: 4, events: 8, tape_seed: 0, probe_seed: 0,
    });
}

/// Seed `fbf6388e515fb9ea` of the race solver's suite (a forged-origin
/// hijack, 22 ASes), shrunk to 7. Tier-1 3 ranks by length alone; it hears
/// the target 2 at three hops through its sibling 6, which buys transit
/// from the target's peer 0, and the forged route at four hops from its
/// customer 4 (attacker 1 → sibling 5 → 4). Two states are stable: 3 on
/// the target route, or 3 on the forged one with 6 following it (a
/// customer-class route from a sibling beats a provider route), which
/// withdraws the shorter one. The synchronous race reaches the first; the
/// race solver's fixed point reached the second until it learned to
/// decline a tier-1 whose sibling buys transit.
#[test]
fn tier1_sibling_buys_transit() {
    assert_eq!(
        holds(&Recipe {
            n: 7,
            p2c: vec![(6, 0), (5, 4), (3, 4)],
            p2p: vec![(2, 0)],
            s2s: vec![(5, 1), (3, 6)],
            leaves: vec![],
            target: 2, attacker: 1, claim: 1,
            validators: vec![], revalidators: vec![],
            max_generations: 1, events: 8, tape_seed: 0, probe_seed: 0,
        }),
        (18, 9)
    );
}

/// An oscillation the oracle's round cap cuts off, shrunk from the first
/// draw of the unified recipe. Siblings 0–5–2 carry the attacker's route
/// to 2, a customer of tier-1 1, whose sibling 4 buys transit from 3 and
/// hears the target (leaf 6) across a peer link. Under the paper policy
/// no state is stable: the run is truncated with stale choices (AS 3
/// keeps an attacker route AS 4 has dropped), so valley-freeness and
/// lengths hold only for converged runs, and every engine must report
/// the truncated run's polluted set. The race solver declines the paper
/// half.
#[test]
fn truncated_oscillation() {
    assert_eq!(
        holds(&Recipe {
            n: 6,
            p2c: vec![(2, 1), (4, 3)],
            p2p: vec![],
            s2s: vec![(0, 5), (5, 2), (1, 4)],
            leaves: vec![(2, 2, 4)],
            target: 6, attacker: 0, claim: 0,
            validators: vec![], revalidators: vec![],
            max_generations: 1, events: 38, tape_seed: 471706, probe_seed: 531297,
        }),
        (18, 9)
    );
}

/// Hand-built stream ground truth: a hijack that is invisible under ROV at
/// the attacker's provider, then becomes visible the moment that validator
/// flips off — detection latency exactly 2 events.
#[test]
fn stream_latency_fixture() {
    // AS1 -- AS2 peer; AS1 -> {9, 5}, AS2 -> {8, 6} provider links.
    let topo = topology_from_triples(&[
        (1, 2, LinkKind::PeerToPeer),
        (1, 9, LinkKind::ProviderToCustomer),
        (2, 8, LinkKind::ProviderToCustomer),
        (1, 5, LinkKind::ProviderToCustomer),
        (2, 6, LinkKind::ProviderToCustomer),
    ]);
    let ix = |n: u32| topo.index_of(AsId::new(n)).unwrap();
    let attack = Attack::origin(ix(8), ix(9));
    // AS2 validates: the bogus announcement from its customer AS8 is
    // rejected at AS2 and propagates nowhere.
    let plan = StreamPlan {
        initial_validators: vec![ix(2)],
        targets: vec![ix(9)],
        stub_defense: false,
        events: vec![
            StreamEvent {
                seq: 0,
                kind: EventKind::HijackInject { attack },
            },
            StreamEvent {
                seq: 1,
                kind: EventKind::TargetReannounce { target: ix(9) },
            },
            StreamEvent {
                seq: 2,
                kind: EventKind::DefenseFlip { who: ix(2) },
            },
        ],
    };
    let probes = vec![ProbeSet::new("as6", vec![ix(6)])];
    let sim = Simulator::new(&topo, PolicyConfig::paper());
    for mode in [DetectorMode::Incremental, DetectorMode::Batch] {
        let out = run_stream(&sim, &probes, &plan, mode);
        assert_eq!(out.hijacks.len(), 1, "{mode:?}");
        let h = &out.hijacks[0];
        assert_eq!(h.injected_seq, 0);
        assert_eq!(h.detected_seq, Some(2), "{mode:?}");
        assert_eq!(h.latency(), Some(2), "{mode:?}");
        // While AS2 validates, the hijack pollutes nothing; once the flip
        // lands, AS2 and AS6 adopt the bogus route and the AS6 probe sees
        // it.
        let series = |name: &str| out.store.series(name).unwrap().range(0, u64::MAX);
        assert_eq!(
            series(SERIES_POLLUTION),
            vec![(0, 0.0), (1, 0.0), (2, 2.0)],
            "{mode:?}"
        );
        assert_eq!(
            series(&triggered_series(0)),
            vec![(0, 0.0), (1, 0.0), (2, 1.0)],
            "{mode:?}"
        );
        assert_eq!(series(SERIES_LATENCY), vec![(2, 2.0)], "{mode:?}");
        let s = out.summary();
        assert_eq!((s.injected, s.detected), (1, 1));
        assert_eq!(s.mean_latency, Some(2.0));
        assert_eq!(s.max_latency, Some(2));
    }
}
