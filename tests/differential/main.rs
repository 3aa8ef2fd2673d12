//! The differential property: every production path from a scenario to
//! an answer is bit-identical to the generation engine, the oracle.
//!
//! One [`Recipe`] draws a topology and a scenario. [`check`] computes the
//! oracle once per scenario (attack kind × filter context × policy) and
//! holds every arm against it:
//!
//! * `oracle`: its own invariants — deterministic reruns, validators never
//!   polluted and, wherever it converged, origins select themselves,
//!   lengths are learned-from hop counts and paths are valley-free;
//! * `race`: the race solver, wherever it converges (strict Gao-Rexford
//!   always, in one round; at least half the solves of a case);
//! * `delta`: baseline replay under cone budgets 0, cone/2 and n, over
//!   baselines built with other validator sets, on reused workspaces;
//! * `evaluate`: `Simulator::evaluate` under every `EngineChoice`, with
//!   and without the target's shared baseline, and the `OutcomeView` its
//!   reader gets (there and through `Simulator::map_outcomes`): its count
//!   and its verdict on every AS;
//! * `stream`: the stream detector's incremental mode against its batch
//!   mode;
//! * `partition`: the whole sweep's rows against the oracle's polluted
//!   counts, and contiguous sweep chunks and stride shards, merged,
//!   against the whole sweep.
//!
//! A failing case is shrunk to a minimal recipe failing the same arm on
//! the same scenario, and printed as a literal that pastes into
//! `pinned.rs`. `differential_deep` runs the property on 20,000 cases:
//! `cargo test --release --test differential -- --ignored differential_deep`.

// Pinned recipes keep the layout `Recipe::literal` prints.
#[rustfmt::skip]
mod pinned;
mod recipe;

use std::fmt::Debug;

use bgpsim_fanout::ShardPlan;
use bgpsim_hijack::detection::ProbeSet;
use bgpsim_hijack::{
    Attack, AttackKind, Defense, EngineChoice, OutcomeView, Simulator, SweepMonitor,
};
use bgpsim_routing::{
    propagate_announcements, propagate_delta, propagate_delta_budgeted, solve_race, Announcement,
    AsSet, Baseline, Choice, DeltaWorkspace, FilterContext, NullObserver, PolicyConfig, PrefClass,
    Propagation, RaceWorkspace, SimNet, Workspace, DEFAULT_MAX_ROUNDS,
};
use bgpsim_stream::{
    run_stream, ChunkedSeries, DetectorMode, StreamConfig, StreamPlan, SERIES_POLLUTION,
};
use bgpsim_topology::{AsIndex, Relationship, Topology};
use proptest::prelude::*;

use recipe::{arb_recipe, shrink, Recipe};

/// The arm and scenario that diverged (`"<arm> <scenario>"`), and how.
#[derive(Debug)]
struct Failure {
    label: String,
    detail: String,
}

type Verdict<T = ()> = Result<T, Failure>;

/// Fails `label` unless `got == want`.
fn same<T: PartialEq + Debug>(label: &str, what: &str, got: T, want: T) -> Verdict {
    if got == want {
        return Ok(());
    }
    Err(Failure {
        label: label.to_string(),
        detail: format!("{what}: {got:?} != {want:?}"),
    })
}

/// Fails `label` unless two propagations choose alike, naming the ASes
/// that differ.
fn same_choices(
    label: &str,
    what: &str,
    got: &[Option<Choice>],
    want: &[Option<Choice>],
) -> Verdict {
    let differ: Vec<String> = (got.iter().zip(want).enumerate())
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("AS {i}: {g:?} != {w:?}"))
        .collect();
    if differ.is_empty() {
        return Ok(());
    }
    Err(Failure {
        label: label.to_string(),
        detail: format!("{what} differ at {}", differ.join("; ")),
    })
}

fn policies() -> [(&'static str, PolicyConfig); 2] {
    [
        ("paper", PolicyConfig::paper()),
        ("strict", PolicyConfig::strict_gao_rexford()),
    ]
}

const ENGINES: [EngineChoice; 4] = [
    EngineChoice::Auto,
    EngineChoice::Generation,
    EngineChoice::Delta,
    EngineChoice::Race,
];

/// Runs every arm on one recipe, or only the arm named `only`. Returns the
/// race solver's `(solves, converged)` tally.
fn check(r: &Recipe, only: Option<&str>) -> Verdict<(u32, u32)> {
    let on = |arm: &str| only.is_none_or(|o| o == arm);
    let topo = r.build();
    if on("stream") {
        stream(r, &topo)?;
    }
    let (target, attacker, claim) = (r.pick(r.target), r.pick(r.attacker), r.pick(r.claim));
    if target == attacker {
        return Ok((0, 0));
    }
    let net = SimNet::new(&topo);
    let members = |selectors: &[u32]| selectors.iter().map(|&v| r.pick(v)).collect::<Vec<_>>();
    let validators = AsSet::from_members(&topo, members(&r.validators));
    let revalidators = AsSet::from_members(&topo, members(&r.revalidators));
    let rov = Defense::validators(&topo, members(&r.validators));
    let defenses = [
        ("none", Defense::none()),
        ("rov", rov.clone()),
        ("rov+stub", rov.with_stub_defense()),
    ];
    let honest = Announcement::honest(target);
    let mut injections = vec![
        ("origin", Announcement::honest(attacker)),
        ("forged", Announcement::forged(attacker, target)),
    ];
    if claim != attacker && claim != target {
        injections.push(("forged-bystander", Announcement::forged(attacker, claim)));
    }
    // One workspace of each kind across all scenarios: reuse must not
    // leak state.
    let (mut ws, mut dws, mut rws) = (
        Workspace::new(),
        DeltaWorkspace::new(),
        RaceWorkspace::new(),
    );
    let (mut solves, mut converged) = (0, 0);
    let truncating = PolicyConfig {
        max_generations: r.max_generations,
        ..PolicyConfig::paper()
    };
    for (pname, policy) in policies().into_iter().chain([("truncating", truncating)]) {
        // The cap truncates the oracle and the replay of its schedule
        // alike; the race solver and the simulator answer converged races.
        let converges = pname != "truncating";
        let sims = ENGINES.map(|e| Simulator::new(&topo, policy).with_engine(e));
        for (dname, defense) in &defenses {
            let ctx = match *dname {
                "none" => FilterContext::none(),
                _ => defense.context_for(target),
            };
            let baseline = Baseline::build(&net, &[honest], &ctx, &policy, &mut ws);
            let empty = Baseline::empty(&net, &policy);
            same(
                &format!("delta {dname}/{pname}"),
                "a recorded schedule only adds to the empty footprint",
                baseline.heap_bytes() >= empty.heap_bytes(),
                true,
            )?;
            let mut scenarios: Vec<_> = injections
                .iter()
                .map(|&(kind, injection)| (kind, vec![honest, injection], &baseline))
                .collect();
            // Sub-prefix: the bogus more-specific prefix has no honest
            // competition, so its replay starts from an empty baseline.
            scenarios.push(("subprefix", vec![Announcement::honest(attacker)], &empty));
            for (kind, anns, base) in &scenarios {
                let label = |arm: &str| format!("{arm} {kind}/{dname}/{pname}");
                let oracle =
                    propagate_announcements(&net, anns, &ctx, &policy, &mut ws, &mut NullObserver);
                let injection = anns[anns.len() - 1];
                if on("delta") {
                    delta(
                        &net,
                        base,
                        injection,
                        &ctx,
                        &policy,
                        &oracle,
                        &mut dws,
                        &label("delta"),
                    )?;
                }
                if !converges {
                    continue;
                }
                if on("oracle") && *kind == "origin" {
                    // A truncated run is a snapshot of an oscillation
                    // (paper policy only), not a stable state.
                    if !oracle.stats().truncated {
                        invariants(&topo, &oracle, &label("oracle"))?;
                    }
                    let fresh = propagate_announcements(
                        &net,
                        anns,
                        &ctx,
                        &policy,
                        &mut Workspace::new(),
                        &mut NullObserver,
                    );
                    let (got, want) = (
                        (fresh.choices(), fresh.stats()),
                        (oracle.choices(), oracle.stats()),
                    );
                    same(&label("oracle"), "rerun on a fresh workspace", got, want)?;
                    for v in ctx.validators.iter().flat_map(|set| set.iter()) {
                        let polluted =
                            v != attacker && oracle.choice(v).is_some_and(|c| c.origin == attacker);
                        same(
                            &label("oracle"),
                            &format!("validator {v} polluted"),
                            polluted,
                            false,
                        )?;
                    }
                }
                if on("race") {
                    solves += 1;
                    converged += u32::from(race(
                        &net,
                        anns,
                        &ctx,
                        &policy,
                        &oracle,
                        claim,
                        &mut rws,
                        &label("race"),
                    )?);
                }
                let attack = match *kind {
                    "origin" => Attack::origin(attacker, target),
                    "forged" => Attack::forged_origin(attacker, target),
                    "subprefix" => Attack::sub_prefix(attacker, target),
                    _ => continue,
                };
                if on("evaluate") {
                    evaluate(&sims, attack, defense, &oracle, &label("evaluate"))?;
                }
            }
        }
        if converges && on("oracle") {
            // Universal deployment: nobody is polluted.
            let everyone = AsSet::from_members(&topo, topo.indices());
            let ctx = FilterContext::origin_validation(target, &everyone);
            let anns = [honest, Announcement::honest(attacker)];
            let p = propagate_announcements(&net, &anns, &ctx, &policy, &mut ws, &mut NullObserver);
            same(
                &format!("oracle universal/{pname}"),
                "polluted",
                p.captured_count(attacker),
                0,
            )?;
        }
        if converges && on("partition") {
            // One sweep route per policy: undefended, every engine races;
            // defended, the forced replay completes where the adaptive
            // route would abandon.
            let (sim, (dname, defense)) = match pname {
                "paper" => (&sims[0], &defenses[0]),
                _ => (&sims[2], &defenses[2]),
            };
            let label = format!("partition {:?}/{dname}/{pname}", sim.engine());
            partition(sim, target, defense, &label)?;
        }
        if on("delta") {
            // A baseline depends on the target and the stub defense only:
            // origin validation never rejects the authorized origin.
            for stub_defense in [false, true] {
                let filters = |validators| FilterContext {
                    authorized_origin: Some(target),
                    validators,
                    stub_defense,
                };
                for &(kind, injection) in &injections[..2] {
                    let anns = [honest, injection];
                    let ctx = filters(Some(&revalidators));
                    let oracle = propagate_announcements(
                        &net,
                        &anns,
                        &ctx,
                        &policy,
                        &mut ws,
                        &mut NullObserver,
                    );
                    for (built, with) in [("none", None), ("others", Some(&validators))] {
                        let baseline =
                            Baseline::build(&net, &[honest], &filters(with), &policy, &mut ws);
                        let label = format!(
                            "delta {kind}/revalidated from {built}, stub {stub_defense}/{pname}"
                        );
                        delta(
                            &net, &baseline, injection, &ctx, &policy, &oracle, &mut dws, &label,
                        )?;
                    }
                }
            }
        }
    }
    // Half the solves are strict Gao-Rexford and must have converged; an
    // always-`None` solver would be vacuously equivalent.
    same(
        "race",
        "at least half the solves converge",
        2 * converged >= solves,
        true,
    )?;
    Ok((solves, converged))
}

/// The oracle's invariants on an honest race: every learned-from chain
/// ends at an origin selecting itself, a selection's length is its
/// chain's hop count, and the chain is valley-free — read from the
/// selecting AS back to the origin: down from providers, across at most
/// one peer, then up from customers, siblings anywhere.
fn invariants(topo: &Topology, p: &Propagation, label: &str) -> Verdict {
    for ix in topo.indices() {
        let Some(choice) = p.choice(ix) else { continue };
        let (mut cur, mut hops, mut rank, mut peers) = (ix, 0u16, 0, 0);
        while let Some(from) = p.choice(cur).and_then(|c| c.learned_from) {
            let rel = topo
                .neighbors(cur)
                .iter()
                .find(|nb| nb.index == from)
                .map(|nb| nb.rel);
            let step = match rel {
                Some(Relationship::Provider) => 0,
                Some(Relationship::Peer) => {
                    peers += 1;
                    1
                }
                Some(Relationship::Customer) => 2,
                Some(Relationship::Sibling) => rank,
                None => 3,
            };
            same(
                label,
                &format!("valley-free neighbour hop from {ix}"),
                step >= rank && step < 3 && peers <= 1,
                true,
            )?;
            (cur, hops, rank) = (from, hops + 1, step);
            same(
                label,
                "learned-from chain is acyclic",
                usize::from(hops) <= topo.num_ases(),
                true,
            )?;
        }
        same(
            label,
            &format!("{ix} routes to its chain's end"),
            (choice.origin, choice.len),
            (cur, hops),
        )?;
        let end = p.choice(cur).map(|c| (c.len, c.class));
        same(
            label,
            "origin selects itself",
            end,
            Some((0, PrefClass::Origin)),
        )?;
    }
    Ok(())
}

/// One race solve against the oracle. Returns whether it converged.
#[allow(clippy::too_many_arguments)]
fn race(
    net: &SimNet<'_>,
    anns: &[Announcement],
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    oracle: &Propagation,
    claim: AsIndex,
    rws: &mut RaceWorkspace,
    label: &str,
) -> Verdict<bool> {
    let Some(raced) = solve_race(net, anns, ctx, policy, DEFAULT_MAX_ROUNDS, rws) else {
        same(
            label,
            "strict Gao-Rexford converges",
            policy.tier1_shortest_path,
            true,
        )?;
        return Ok(false);
    };
    // All four read-outs: the materialized map, per-AS lookups (a pulled
    // leaf found by search), and the polluted sets and counts a sweep
    // reads.
    let materialized = raced.to_propagation();
    same_choices(label, "choices", materialized.choices(), oracle.choices())?;
    let looked_up: Vec<Option<Choice>> = (0..net.num_ases() as u32)
        .map(|i| raced.choice(AsIndex::new(i)))
        .collect();
    same_choices(label, "looked-up choices", &looked_up, oracle.choices())?;
    // Every announcer, and the recipe's claim: a claimed origin that need
    // not announce, so a leaf one must loop-reject the forged routes its
    // peers and providers offer it.
    for o in anns.iter().map(|a| a.announcer).chain([claim]) {
        let want: Vec<AsIndex> = oracle.captured_by(o).collect();
        same(
            label,
            &format!("count captured by {o}"),
            raced.captured_count(o),
            want.len(),
        )?;
        same(
            label,
            &format!("captured by {o}"),
            raced.captured_by(o).collect(),
            want,
        )?;
    }
    if !policy.tier1_shortest_path {
        let rounds = (raced.stats().generations, oracle.stats().truncated);
        same(
            label,
            "strict Gao-Rexford settles in one round",
            rounds,
            (1, false),
        )?;
    }
    let again = solve_race(net, anns, ctx, policy, DEFAULT_MAX_ROUNDS, rws);
    same(
        label,
        "repeated solve",
        again.map(|r| r.to_propagation().choices().to_vec()),
        Some(materialized.choices().to_vec()),
    )?;
    Ok(true)
}

/// One replay of `injection` over `baseline` against the oracle: unbudgeted,
/// then on the same workspace under cone budgets 0, cone/2 and n. A
/// completed budgeted replay is the unbudgeted one bit for bit (budget n
/// always completes, so this is also the repeated replay); only a budget
/// below n over a converged baseline may abandon, and the replay after an
/// abandoned one is unaffected.
#[allow(clippy::too_many_arguments)]
fn delta(
    net: &SimNet<'_>,
    baseline: &Baseline,
    injection: Announcement,
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    oracle: &Propagation,
    dws: &mut DeltaWorkspace,
    label: &str,
) -> Verdict {
    let n = net.num_ases();
    let inj = [injection];
    let first = propagate_delta(net, baseline, &inj, ctx, policy, dws, &mut NullObserver);
    let (stats, touched): (_, Vec<AsIndex>) = (first.stats(), first.touched().collect());
    same_choices(
        label,
        "choices",
        first.to_propagation().choices(),
        oracle.choices(),
    )?;
    let base = baseline.propagation(net);
    for ix in (0..n as u32)
        .map(AsIndex::new)
        .filter(|ix| !touched.contains(ix))
    {
        same(
            label,
            &format!("untouched {ix} keeps its baseline choice"),
            first.choice(ix),
            base.choice(ix),
        )?;
    }
    for budget in [0, touched.len() / 2, n] {
        let what = format!("budget {budget}");
        match propagate_delta_budgeted(
            net,
            baseline,
            &inj,
            ctx,
            policy,
            dws,
            Some(budget),
            &mut NullObserver,
        ) {
            Some(budgeted) => {
                let cone: Vec<AsIndex> = budgeted.touched().collect();
                same(label, &what, (budgeted.stats(), &cone), (stats, &touched))?;
                same_choices(
                    label,
                    &what,
                    budgeted.to_propagation().choices(),
                    oracle.choices(),
                )?;
            }
            None => {
                let may_abandon = budget < n && !base.stats().truncated;
                same(label, &format!("{what} abandons"), may_abandon, true)?;
                let next =
                    propagate_delta(net, baseline, &inj, ctx, policy, dws, &mut NullObserver);
                same(label, &format!("replay after {what}"), next.stats(), stats)?;
                same_choices(
                    label,
                    &format!("replay after {what}"),
                    next.to_propagation().choices(),
                    oracle.choices(),
                )?;
            }
        }
    }
    Ok(())
}

/// The attack's polluted set: the ASes on a route with the attacker's
/// origin or, for a forged origin, whose learned-from chain ends at the
/// attacker — the attacker excluded. (On a converged run the two
/// coincide; a truncated one can hold stale chains.)
fn polluted(p: &Propagation, attack: Attack) -> Vec<AsIndex> {
    let attacker = attack.attacker;
    if attack.kind != AttackKind::ForgedOriginHijack {
        return p.captured_by(attacker).collect();
    }
    let n = p.choices().len();
    let chain_end = |mut cur: AsIndex| {
        for _ in 0..n {
            match p.choice(cur).and_then(|c| c.learned_from) {
                Some(from) => cur = from,
                None => break,
            }
        }
        cur
    };
    (0..n as u32)
        .map(AsIndex::new)
        .filter(|&ix| ix != attacker && p.choice(ix).is_some() && chain_end(ix) == attacker)
        .collect()
}

/// `Simulator::evaluate` on every engine, with and without the target's
/// shared baseline, against the oracle's polluted set; and the view its
/// reader gets, there and through `Simulator::map_outcomes`: its count is
/// the set's size, and the ASes it calls polluted are the set.
fn evaluate(
    sims: &[Simulator<'_>],
    attack: Attack,
    defense: &Defense,
    oracle: &Propagation,
    label: &str,
) -> Verdict {
    let want = (polluted(oracle, attack), oracle.stats().truncated);
    let verdicts = (want.0.len(), want.0.clone());
    let everyone: Vec<AsIndex> = (0..oracle.choices().len() as u32)
        .map(AsIndex::new)
        .collect();
    let read = |view: &OutcomeView<'_>| {
        let members = everyone.iter().copied().filter(|&x| view.is_polluted(x));
        (view.pollution_count(), members.collect::<Vec<_>>())
    };
    let none = SweepMonitor::none();
    for sim in sims {
        let shared = sim
            .baseline_key(attack.kind, attack.target, defense)
            .map(|key| sim.baseline_for(key, &none));
        for baseline in [None, shared.as_ref()] {
            let ((got, seen), _) = sim.evaluate(attack, defense, baseline, &none, |view| {
                (view.to_outcome(), read(view))
            });
            let what = format!("{:?}, shared baseline {}", sim.engine(), baseline.is_some());
            same(label, &what, (got.polluted, got.truncated), want.clone())?;
            let what = format!("{what}: the view's count and polluted ASes");
            same(label, &what, seen, verdicts.clone())?;
        }
        let mapped = sim.map_outcomes(&[attack], defense, read).remove(0);
        let what = format!(
            "{:?}, map_outcomes: the view's count and polluted ASes",
            sim.engine()
        );
        same(label, &what, mapped, verdicts.clone())?;
    }
    Ok(())
}

/// The stream detector's incremental mode against its batch oracle under
/// both policies, from the starting defense the tape seed picks: none, or
/// ROV or ROV + stub filtering, both churning validators mid-stream.
fn stream(r: &Recipe, topo: &Topology) -> Verdict {
    if topo.transit_ases().len() < 2 {
        return Ok(()); // nothing to attack from
    }
    let probes = [
        ProbeSet::tier1(topo),
        ProbeSet::random(topo, 4, r.probe_seed),
    ];
    let modes = [
        ("none", 0.0, false),
        ("rov", 0.4, false),
        ("rov+stub", 0.4, true),
    ];
    let (dname, validator_fraction, stub_defense) = modes[(r.tape_seed % 3) as usize];
    let plan = StreamPlan::generate(
        topo,
        &StreamConfig {
            events: r.events,
            seed: r.tape_seed,
            num_targets: 2,
            validator_fraction,
            stub_defense,
            flip_weight: if dname == "none" { 0 } else { 2 },
            reannounce_weight: 3,
            inject_weight: 3,
        },
    );
    for (pname, policy) in policies() {
        let label = format!("stream {dname}/{pname}");
        let sim = Simulator::new(topo, policy);
        let incremental = run_stream(&sim, &probes, &plan, DetectorMode::Incremental);
        same(
            &label,
            "records",
            incremental.hijacks.len(),
            plan.injected_hijacks(),
        )?;
        let samples = incremental
            .store
            .series(SERIES_POLLUTION)
            .map_or(0, ChunkedSeries::len);
        same(
            &label,
            "one pollution sample per event",
            samples,
            plan.events.len(),
        )?;
        same(
            &label,
            "outcome",
            incremental,
            run_stream(&sim, &probes, &plan, DetectorMode::Batch),
        )?;
    }
    Ok(())
}

/// A sweep counts what the oracle counts, and any order-preserving
/// partition of its pool re-interleaves to the whole sweep: contiguous
/// chunks replaying the caller's baseline, and stride shards merged by
/// their plan.
fn partition(sim: &Simulator<'_>, target: AsIndex, defense: &Defense, label: &str) -> Verdict {
    let pool: Vec<AsIndex> = sim.topology().indices().filter(|&a| a != target).collect();
    let whole = sim.sweep_attackers(target, &pool, defense);
    let ctx = defense.context_for(target);
    let mut ws = Workspace::new();
    let oracle: Vec<u32> = pool
        .iter()
        .map(|&attacker| {
            let anns = [Announcement::honest(target), Announcement::honest(attacker)];
            let p = propagate_announcements(
                sim.net(),
                &anns,
                &ctx,
                sim.policy(),
                &mut ws,
                &mut NullObserver,
            );
            p.captured_count(attacker) as u32
        })
        .collect();
    same(label, "rows against the oracle", &whole, &oracle)?;
    let none = SweepMonitor::none();
    let baseline = sim
        .baseline_key(AttackKind::OriginHijack, target, defense)
        .map(|key| sim.baseline_for(key, &none));
    // Few parts, each ragged on most pool sizes: a sweep of two or more
    // attackers spawns its worker threads, which dominate on these pools.
    let rows: Vec<u32> = pool
        .chunks(pool.len().div_ceil(2))
        .flat_map(|chunk| {
            sim.sweep_chunk_monitored(target, chunk, defense, baseline.as_ref(), &none)
        })
        .collect();
    same(label, "2 chunks", &rows, &whole)?;
    let plan = ShardPlan::new(pool.len(), 3);
    let rows: Vec<Vec<u32>> = (0..plan.num_shards)
        .map(|k| sim.sweep_attackers(target, &plan.members(&pool, k), defense))
        .collect();
    same(label, "3 shards", plan.merge(&rows), Ok(whole))
}

/// [`check`] with a failure shrunk to the smallest recipe failing the same
/// arm on the same scenario, reported as a literal.
fn property(r: &Recipe) -> Result<(u32, u32), TestCaseError> {
    check(r, None).map_err(|f| {
        let arm = f.label.split(' ').next().unwrap_or_default();
        let min = shrink(r, |c| {
            check(c, Some(arm)).is_err_and(|g| g.label == f.label)
        });
        let shrunk = check(&min, Some(arm))
            .err()
            .map_or(String::new(), |g| g.detail);
        TestCaseError::fail(format!(
            "[{}] {}\nshrunk to {} ASes ({shrunk}):\n{}",
            f.label,
            f.detail,
            min.total(),
            min.literal()
        ))
    })
}

// Tier-1's 256 cases, in two halves the test harness runs side by side.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn differential_half_1(recipe in arb_recipe()) {
        property(&recipe)?;
    }

    #[test]
    fn differential_half_2(recipe in arb_recipe()) {
        property(&recipe)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "deep run: cargo test --release --test differential -- --ignored differential_deep"]
    fn differential_deep(recipe in arb_recipe()) {
        property(&recipe)?;
    }
}
