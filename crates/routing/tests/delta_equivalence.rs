//! Property tests pinning baseline + delta re-convergence to full
//! two-origin propagation, bit for bit.
//!
//! The delta engine (`engine::delta`) freezes the converged honest state
//! and re-converges it with the attacker's announcement injected. Its
//! contract is *bit-identical* results: for every AS the re-converged
//! `Choice` (origin, learned_from, len, class) equals the one a
//! from-scratch run of the combined announcement set produces — and
//! therefore so does every quantity derived from choices, in particular
//! the polluted set (`captured_by`). These tests enforce that on random
//! DAG-structured topologies across the attack shapes of §IV:
//!
//! * origin hijacks (honest competition for the same prefix),
//! * sub-prefix hijacks (no competition: empty baseline),
//! * forged-origin hijacks (the attacker prepends the victim's ASN, or
//!   that of an uninvolved AS),
//!
//! each under no filters, origin validation at random validators, and
//! validators + defensive stub filtering — for the paper policy, strict
//! Gao-Rexford, and the paper policy under a generation cap so small that
//! the race truncates. Leaves (no customers, no siblings, not a tier-1),
//! which the delta engine settles in closed form instead of stepping, are
//! grown on purpose: multi-homed, peering with each other and with the
//! core, and eligible as target, attacker, validator and forged origin.
//! A baseline is also replayed under validator sets it was not built
//! with, pinning that it depends on the target and stub defense only.
//! Workspaces (full and delta) are shared across all scenarios of a case,
//! so state leakage between runs would also fail.

use proptest::prelude::*;

use bgpsim_routing::{
    propagate_announcements, propagate_delta, propagate_delta_budgeted, Announcement, AsSet,
    Baseline, DeltaWorkspace, FilterContext, NullObserver, PolicyConfig, SimNet, Workspace,
};
use bgpsim_topology::{AsId, AsIndex, LinkKind, Topology, TopologyBuilder};

/// Most leaves a recipe grows; AS selectors range over the core plus this
/// many, and wrap onto the ASes that exist.
const MAX_LEAVES: u32 = 8;

/// A random topology recipe: the core has the shape used in
/// `equivalence.rs` (provider links oriented small→large index keep the
/// provider hierarchy acyclic, as Gao-Rexford stability requires), and
/// leaf `i` is appended at index `n + i`.
#[derive(Debug, Clone)]
struct Recipe {
    n: u32,
    p2c: Vec<(u32, u32)>,
    p2p: Vec<(u32, u32)>,
    s2s: Vec<(u32, u32)>,
    /// Per leaf: two core providers (multi-homed unless they coincide) and
    /// a peer selector — below `n` that core AS, otherwise another leaf.
    leaves: Vec<(u32, u32, u32)>,
    target: u32,
    attacker: u32,
    /// The origin a second forged injection claims.
    claim: u32,
    validators: Vec<u32>,
    /// A second validator set, replayed over baselines built without it.
    revalidators: Vec<u32>,
    /// A generation cap low enough to truncate the race.
    max_generations: u32,
}

impl Recipe {
    /// Resolves an AS selector onto the ASes the recipe builds.
    fn pick(&self, selector: u32) -> AsIndex {
        AsIndex::new(selector % (self.n + self.leaves.len() as u32))
    }
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (4u32..24).prop_flat_map(|n| {
        let pair = (0..n, 0..n);
        let any = 0..n + MAX_LEAVES;
        (
            (
                proptest::collection::vec(pair.clone(), 3..40),
                proptest::collection::vec(pair.clone(), 0..12),
                proptest::collection::vec(pair, 0..4),
                proptest::collection::vec((0..n, 0..n, any.clone()), 0..MAX_LEAVES as usize + 1),
            ),
            (any.clone(), any.clone(), any.clone()),
            proptest::collection::vec(any.clone(), 0..6),
            proptest::collection::vec(any, 0..6),
            1u32..5,
        )
            .prop_map(
                move |(
                    (p2c, p2p, s2s, leaves),
                    (target, attacker, claim),
                    validators,
                    revalidators,
                    max_generations,
                )| Recipe {
                    n,
                    p2c,
                    p2p,
                    s2s,
                    leaves,
                    target,
                    attacker,
                    claim,
                    validators,
                    revalidators,
                    max_generations,
                },
            )
    })
}

fn build(recipe: &Recipe) -> Topology {
    let mut b = TopologyBuilder::new();
    let leaves = recipe.leaves.len() as u32;
    for i in 0..recipe.n + leaves {
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
    for (i, &(p1, p2, peer)) in recipe.leaves.iter().enumerate() {
        let leaf = recipe.n + i as u32;
        for p in [p1, p2] {
            let _ = b.add_link(
                AsId::new(p + 1),
                AsId::new(leaf + 1),
                LinkKind::ProviderToCustomer,
            );
        }
        let peer = if peer < recipe.n {
            peer
        } else {
            recipe.n + (peer - recipe.n) % leaves
        };
        if peer != leaf {
            let _ = b.add_link(
                AsId::new(leaf + 1),
                AsId::new(peer + 1),
                LinkKind::PeerToPeer,
            );
        }
    }
    b.build().expect("non-empty")
}

/// Asserts one delta run against its from-scratch oracle: every choice
/// identical, and (as an explicit, if redundant, check) the polluted sets
/// identical both through the materialized propagation and through the
/// O(touched) view.
#[allow(clippy::too_many_arguments)]
fn assert_delta_matches(
    net: &SimNet<'_>,
    baseline: &Baseline,
    base_announcements: &[Announcement],
    injection: Announcement,
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    dws: &mut DeltaWorkspace,
    label: &str,
) -> Result<(), TestCaseError> {
    let delta = propagate_delta(
        net,
        baseline,
        &[injection],
        ctx,
        policy,
        dws,
        &mut NullObserver,
    );
    let mut combined = base_announcements.to_vec();
    combined.push(injection);
    let full = propagate_announcements(net, &combined, ctx, policy, ws, &mut NullObserver);
    for i in 0..net.num_ases() {
        let ix = AsIndex::new(i as u32);
        prop_assert_eq!(
            delta.choice(ix),
            full.choice(ix),
            "[{}] choice divergence at index {}",
            label,
            i
        );
    }
    let materialized = delta.to_propagation();
    prop_assert_eq!(
        materialized.choices(),
        full.choices(),
        "[{}] materialized choices diverge",
        label
    );
    // Polluted set (attacker's captures): identical because choices are —
    // asserted directly so the contract is pinned even if captured_by's
    // derivation changes.
    let attacker = injection.announcer;
    prop_assert_eq!(
        materialized.captured_by(attacker).collect::<Vec<_>>(),
        full.captured_by(attacker).collect::<Vec<_>>(),
        "[{}] polluted set diverges",
        label
    );
    // Touched completeness: an AS the delta run never touched must hold its
    // baseline choice (`choice()` falls through, so if full disagreed the
    // loop above already failed — this pins the fall-through itself).
    let touched: Vec<AsIndex> = delta.touched().collect();
    let stats = delta.stats();
    for i in 0..net.num_ases() {
        let ix = AsIndex::new(i as u32);
        if !touched.contains(&ix) {
            prop_assert_eq!(
                delta.choice(ix),
                baseline.propagation(net).choice(ix),
                "[{}] untouched AS {} lost its baseline choice",
                label,
                i
            );
        }
    }
    // Replay determinism: a second run of the same injection over the
    // reused workspace must reproduce the packed replay bit for bit.
    let again = propagate_delta(
        net,
        baseline,
        &[injection],
        ctx,
        policy,
        dws,
        &mut NullObserver,
    )
    .to_propagation();
    prop_assert_eq!(
        again.choices(),
        materialized.choices(),
        "[{}] repeated replay diverges",
        label
    );
    // Budgeted replay: the budget only ever decides whether to stop. A
    // replay that completes under one is the unbudgeted replay bit for bit
    // (the whole network as budget always completes; over a truncated
    // baseline every budget does), and a workspace an abandoned replay
    // left mid-race serves the next run like a fresh one.
    let truncated_baseline = baseline.propagation(net).stats().truncated;
    let cone = touched.len();
    for budget in [0, cone / 2, net.num_ases()] {
        let budgeted = propagate_delta_budgeted(
            net,
            baseline,
            &[injection],
            ctx,
            policy,
            dws,
            Some(budget),
            &mut NullObserver,
        );
        prop_assert!(
            budgeted.is_some() || (budget < net.num_ases() && !truncated_baseline),
            "[{}] budget {} abandoned a replay it must finish",
            label,
            budget
        );
        let Some(budgeted) = budgeted else {
            let next = propagate_delta(
                net,
                baseline,
                &[injection],
                ctx,
                policy,
                dws,
                &mut NullObserver,
            );
            prop_assert_eq!(next.stats(), stats, "[{}] after budget {}", label, budget);
            let next = next.to_propagation();
            prop_assert_eq!(
                next.choices(),
                materialized.choices(),
                "[{}] replay after an abandoned one (budget {}) diverges",
                label,
                budget
            );
            continue;
        };
        prop_assert_eq!(budgeted.stats(), stats, "[{}] budget {}", label, budget);
        prop_assert_eq!(
            &budgeted.touched().collect::<Vec<_>>(),
            &touched,
            "[{}] budget {}: cone diverges",
            label,
            budget
        );
        let budgeted = budgeted.to_propagation();
        prop_assert_eq!(
            budgeted.choices(),
            materialized.choices(),
            "[{}] budget {}: completed replay diverges",
            label,
            budget
        );
    }
    Ok(())
}

/// The filter context protecting `target`.
fn context<'a>(
    target: AsIndex,
    validators: Option<&'a AsSet>,
    stub_defense: bool,
) -> FilterContext<'a> {
    FilterContext {
        authorized_origin: Some(target),
        validators,
        stub_defense,
    }
}

/// Runs the full scenario matrix for one recipe; shared by the property
/// test and any future pinned regressions.
fn assert_delta_equivalence(recipe: &Recipe) -> Result<(), TestCaseError> {
    let topo = build(recipe);
    let net = SimNet::new(&topo);
    let target = recipe.pick(recipe.target);
    let attacker = recipe.pick(recipe.attacker);
    let claim = recipe.pick(recipe.claim);
    if target == attacker {
        return Ok(());
    }
    let set = |members: &[u32]| AsSet::from_members(&topo, members.iter().map(|&v| recipe.pick(v)));
    let validators = set(&recipe.validators);
    let revalidators = set(&recipe.revalidators);
    let contexts = [
        ("none", FilterContext::none()),
        ("validators", context(target, Some(&validators), false)),
        ("validators+stub", context(target, Some(&validators), true)),
    ];
    let policies = [
        ("paper", PolicyConfig::paper()),
        ("strict", PolicyConfig::strict_gao_rexford()),
        (
            "truncating",
            PolicyConfig {
                max_generations: recipe.max_generations,
                ..PolicyConfig::paper()
            },
        ),
    ];
    // One workspace pair across ALL scenarios: reuse must not leak state.
    let mut ws = Workspace::new();
    let mut dws = DeltaWorkspace::new();
    let honest = [Announcement::honest(target)];
    // The origin hijack competes for the target's prefix; the forgeries
    // claim the target's ASN, or a bystander's (which then rejects its own
    // ASN on the path, leaf or not).
    let mut injections = vec![
        ("origin", Announcement::honest(attacker)),
        ("forged", Announcement::forged(attacker, target)),
    ];
    if claim != attacker && claim != target {
        injections.push(("forged-bystander", Announcement::forged(attacker, claim)));
    }
    for (policy_name, policy) in &policies {
        for (ctx_name, ctx) in &contexts {
            let baseline = Baseline::build(&net, &honest, ctx, policy, &mut ws);
            // The packed layout accounts its own storage: a recorded
            // schedule can only add to the empty footprint for the same
            // network.
            prop_assert!(baseline.heap_bytes() >= Baseline::empty(&net, policy).heap_bytes());
            for &(kind, injection) in &injections {
                assert_delta_matches(
                    &net,
                    &baseline,
                    &honest,
                    injection,
                    ctx,
                    policy,
                    &mut ws,
                    &mut dws,
                    &format!("{kind}/{ctx_name}/{policy_name}"),
                )?;
            }
            // Sub-prefix hijack: the bogus more-specific prefix has no
            // honest competition — empty baseline, from-scratch oracle.
            let empty = Baseline::empty(&net, policy);
            assert_delta_matches(
                &net,
                &empty,
                &[],
                Announcement::honest(attacker),
                ctx,
                policy,
                &mut ws,
                &mut dws,
                &format!("subprefix/{ctx_name}/{policy_name}"),
            )?;
        }
        // A baseline does not depend on the validator set it was built
        // under: origin validation never rejects the authorized origin.
        for stub_defense in [false, true] {
            let replayed = context(target, Some(&revalidators), stub_defense);
            for (built_name, built_with) in [("none", None), ("others", Some(&validators))] {
                let built = context(target, built_with, stub_defense);
                let baseline = Baseline::build(&net, &honest, &built, policy, &mut ws);
                for &(kind, injection) in &injections[..2] {
                    assert_delta_matches(
                        &net,
                        &baseline,
                        &honest,
                        injection,
                        &replayed,
                        policy,
                        &mut ws,
                        &mut dws,
                        &format!(
                            "{kind}/revalidated from {built_name}, stub {stub_defense}/{policy_name}"
                        ),
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Pinned regression: the topology that broke the first (snapshot-only)
/// delta design. AS 12's honest best is a customer-class route laundered
/// through sibling 4, which a provider-class attacker route can never
/// dislodge *after* convergence — but in the simultaneous race AS 12
/// adopts the attacker at generation 1, before the sibling route exists,
/// and tier-1 AS 4 (shortest-path-first) follows it. The paper policy
/// admits both stable states; only schedule replay picks the raced one.
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
        leaves: vec![],
        target: 11,
        attacker: 0,
        claim: 0,
        validators: vec![],
        revalidators: vec![],
        max_generations: 3,
    };
    assert_delta_equivalence(&recipe).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Baseline + delta re-convergence is bit-identical to full
    /// propagation across attack kinds, filter contexts and policies.
    #[test]
    fn delta_matches_full_propagation(recipe in arb_recipe()) {
        assert_delta_equivalence(&recipe)?;
    }
}
