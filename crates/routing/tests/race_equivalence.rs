//! Property tests pinning the race solver (`engine::race`) to the
//! generation engine, bit for bit.
//!
//! The race solver's contract is conditional: *whenever it converges*
//! (returns `Some`), every `Choice` (origin, learned_from, len, class)
//! equals the one a from-scratch generation run of the same announcement
//! set produces — and therefore so does every derived quantity, in
//! particular the polluted set (`captured_by`). On `None` the caller falls
//! back to the generation engine, so divergence is impossible by
//! construction there; the tests additionally record that convergence is
//! the overwhelmingly common case (strict Gao-Rexford must *always*
//! converge, in exactly one round).
//!
//! The matrix mirrors `delta_equivalence.rs`: random DAG-structured
//! topologies × {origin, forged-origin, sub-prefix} × {no filters, origin
//! validation, validators + defensive stub filters} × both policies, with
//! one shared `RaceWorkspace` across all scenarios of a case so state
//! leakage between runs would also fail. The sibling-laundered
//! multistability seed from the delta suite is pinned here too — it is the
//! known stress case for the tier-1 fixed point (the paper policy admits
//! two stable states there, and only the raced one is correct) — as are the
//! sibling-chain cycle that once separated the generation engine from a
//! plain label-setting solver under strict Gao-Rexford, and the
//! same-triple path change that once separated it from this solver on one
//! lab attack in 200.

use proptest::prelude::*;

use bgpsim_routing::{
    propagate_announcements, solve_race, Announcement, AsSet, FilterContext, NullObserver,
    PolicyConfig, RaceWorkspace, SimNet, Workspace, DEFAULT_MAX_ROUNDS,
};
use bgpsim_topology::{AsId, AsIndex, LinkKind, Topology, TopologyBuilder};

/// A random topology recipe, identical in shape to the one in
/// `delta_equivalence.rs`: provider links oriented small→large index keep
/// the provider hierarchy acyclic, as Gao-Rexford stability requires.
#[derive(Debug, Clone)]
struct Recipe {
    n: u32,
    p2c: Vec<(u32, u32)>,
    p2p: Vec<(u32, u32)>,
    s2s: Vec<(u32, u32)>,
    target: u32,
    attacker: u32,
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
                move |(p2c, p2p, s2s, target, attacker, validators)| Recipe {
                    n,
                    p2c,
                    p2p,
                    s2s,
                    target,
                    attacker,
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

/// Asserts one race solve against its from-scratch oracle. Returns whether
/// the solver converged (`false` means the caller-side fallback applies
/// and there is nothing to compare).
#[allow(clippy::too_many_arguments)]
fn assert_race_matches(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    rws: &mut RaceWorkspace,
    label: &str,
) -> Result<bool, TestCaseError> {
    let Some(raced) = solve_race(net, announcements, ctx, policy, DEFAULT_MAX_ROUNDS, rws) else {
        prop_assert!(
            policy.tier1_shortest_path,
            "[{}] strict Gao-Rexford has no tier-1 variables and must converge",
            label
        );
        return Ok(false);
    };
    let full = propagate_announcements(net, announcements, ctx, policy, ws, &mut NullObserver);
    prop_assert_eq!(
        raced.choices(),
        full.choices(),
        "[{}] race choices diverge from the generation engine",
        label
    );
    // Polluted set: identical because choices are — asserted directly so
    // the sweep-facing contract is pinned even if captured_by's derivation
    // changes.
    if let Some(last) = announcements.last() {
        prop_assert_eq!(
            raced.captured_by(last.announcer).collect::<Vec<_>>(),
            full.captured_by(last.announcer).collect::<Vec<_>>(),
            "[{}] polluted set diverges",
            label
        );
    }
    if !policy.tier1_shortest_path {
        prop_assert_eq!(
            raced.stats().generations,
            1,
            "[{}] strict Gao-Rexford must settle in one fixed-point round",
            label
        );
        prop_assert!(
            !full.stats().truncated,
            "[{}] the generation engine must converge on a Gao-Rexford topology",
            label
        );
    }
    // Packed-stamp determinism: re-solving over the reused workspace must
    // reproduce the same fixed point bit for bit.
    let again = solve_race(net, announcements, ctx, policy, DEFAULT_MAX_ROUNDS, rws);
    prop_assert_eq!(
        again.as_ref().map(|p| p.choices()),
        Some(raced.choices()),
        "[{}] repeated race solve diverges",
        label
    );
    Ok(true)
}

/// Runs the full scenario matrix for one recipe; shared by the property
/// test and the pinned regressions. Returns `(solves, converged)`.
fn assert_race_equivalence(recipe: &Recipe) -> Result<(u32, u32), TestCaseError> {
    let topo = build(recipe);
    let net = SimNet::new(&topo);
    let target = AsIndex::new(recipe.target);
    let attacker = AsIndex::new(recipe.attacker);
    if target == attacker {
        return Ok((0, 0));
    }
    let validators = AsSet::from_members(&topo, recipe.validators.iter().map(|&v| AsIndex::new(v)));
    let contexts = [
        ("none", FilterContext::none()),
        (
            "validators",
            FilterContext::origin_validation(target, &validators),
        ),
        (
            "validators+stub",
            FilterContext {
                authorized_origin: Some(target),
                validators: Some(&validators),
                stub_defense: true,
            },
        ),
    ];
    // One workspace pair across ALL scenarios: reuse must not leak state.
    let mut ws = Workspace::new();
    let mut rws = RaceWorkspace::new();
    let mut solves = 0;
    let mut converged = 0;
    for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
        for (ctx_name, ctx) in &contexts {
            let scenarios = [
                (
                    "origin",
                    vec![Announcement::honest(target), Announcement::honest(attacker)],
                ),
                (
                    "forged",
                    vec![
                        Announcement::honest(target),
                        Announcement::forged(attacker, target),
                    ],
                ),
                // Sub-prefix hijack: the bogus more-specific prefix has no
                // honest competition — a one-origin "race".
                ("subprefix", vec![Announcement::honest(attacker)]),
            ];
            for (kind, announcements) in &scenarios {
                solves += 1;
                converged += u32::from(assert_race_matches(
                    &net,
                    announcements,
                    ctx,
                    &policy,
                    &mut ws,
                    &mut rws,
                    &format!("{kind}/{ctx_name}"),
                )?);
            }
        }
    }
    Ok((solves, converged))
}

/// Pinned regression: the sibling-laundered multistability topology from
/// the delta suite. AS 12's honest best is a customer-class route
/// laundered through sibling 4; the paper policy admits two stable states
/// and only the raced one (AS 12 adopting the attacker at generation 1,
/// tier-1 AS 4 following) is correct. The race solver must either converge
/// to exactly that state or return `None` and defer to the generation
/// engine — never converge to the wrong fixed point.
#[test]
fn pinned_regression_sibling_laundered_multistability() {
    let recipe = Recipe {
        n: 13,
        p2c: vec![
            (3, 12),
            (7, 7),
            (8, 0),
            (0, 12),
            (8, 7),
            (7, 9),
            (12, 9),
            (8, 6),
            (8, 2),
            (10, 5),
            (2, 3),
            (12, 9),
            (8, 10),
            (3, 9),
            (10, 11),
            (1, 6),
            (7, 1),
            (9, 12),
            (2, 6),
            (6, 4),
            (9, 9),
            (2, 7),
            (1, 7),
            (7, 6),
            (1, 12),
            (1, 11),
            (5, 2),
            (6, 3),
            (0, 9),
            (7, 11),
            (0, 9),
            (5, 7),
            (7, 0),
        ],
        p2p: vec![(9, 2), (9, 0)],
        s2s: vec![(12, 4), (1, 10)],
        target: 11,
        attacker: 0,
        validators: vec![],
    };
    assert_race_equivalence(&recipe).unwrap();
}

/// Pinned regression carried over from the retired stable-solver suite
/// (`equivalence.rs::engines_agree_under_strict_gao_rexford`): a sibling
/// chain 11–13–16–1 closed into a cycle by the provider edge 1→11, with
/// one origin below the chain at 14 and the other (2) isolated. The shrunk
/// value is kept verbatim so the case survives RNG changes; every solve of
/// the matrix must converge, the strict Gao-Rexford half in one round.
#[test]
fn pinned_regression_sibling_chain_cycle() {
    let recipe = Recipe {
        n: 19,
        p2c: vec![(11, 14), (1, 11), (0, 0)],
        p2p: vec![],
        s2s: vec![(11, 13), (13, 16), (1, 16)],
        target: 2,
        attacker: 14,
        validators: vec![],
    };
    let (solves, converged) = assert_race_equivalence(&recipe).unwrap();
    assert_eq!((solves, converged), (18, 18));
}

/// Pinned regression: the lab divergence of DESIGN.md §12 (standard lab,
/// AS1 ← AS577), shrunk by hand to twelve ASes — `semantics.rs`
/// (`path_change_under_an_unchanged_triple_is_reannounced`) walks the
/// mechanism generation by generation. Sibling chain 11–9–10 with one
/// provider each (2, 3, 1) under root 0, target 8 below the root, attacker
/// 7 at the bottom of a customer chain below 3, which also buys from 1.
/// AS 9's best moves between two sibling paths under an unchanged
/// `(origin, len, class)`; unless it re-announces, AS 10 ends on a
/// six-hop route to the attacker where the race solver — and any stable
/// solution — has it on a five-hop route to the target. There is no seed
/// line for it: the recipe was built, not generated.
#[test]
fn pinned_regression_same_triple_path_change() {
    let recipe = Recipe {
        n: 12,
        p2c: vec![
            (0, 8),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 3),
            (1, 10),
            (2, 11),
            (3, 9),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
        ],
        p2p: vec![],
        s2s: vec![(9, 10), (9, 11)],
        target: 8,
        attacker: 7,
        validators: vec![],
    };
    let (solves, converged) = assert_race_equivalence(&recipe).unwrap();
    assert_eq!((solves, converged), (18, 18));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wherever the race solver converges, its outcome is bit-identical to
    /// the generation engine across attack kinds, filter contexts and
    /// policies; strict Gao-Rexford always converges in one round.
    #[test]
    fn race_matches_generation_engine(recipe in arb_recipe()) {
        let (solves, converged) = assert_race_equivalence(&recipe)?;
        // Half the matrix is strict Gao-Rexford and must have converged;
        // an always-None solver would be vacuously "equivalent".
        if solves > 0 {
            prop_assert!(converged >= solves / 2, "{converged}/{solves} converged");
        }
    }
}
