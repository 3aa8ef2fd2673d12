//! Integration tests for sweep telemetry: exact counter pins on a fixed
//! topology, progress/cancellation behavior, and the invariant that
//! turning telemetry on never changes simulation outcomes.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use bgpsim_hijack::{
    Attack, AttackKind, Defense, Dispatch, EngineChoice, Simulator, SweepMonitor, SweepProgress,
    SweepTelemetry,
};
use bgpsim_routing::PolicyConfig;
use bgpsim_topology::gen::{generate, InternetParams};
use bgpsim_topology::{topology_from_triples, AsId, AsIndex, LinkKind::*, Topology};

use common::tiny_internet;

fn ix(topo: &Topology, n: u32) -> AsIndex {
    topo.index_of(AsId::new(n)).unwrap()
}

/// Five ASes: tier-1s 1 and 2 peer; 1 serves stubs 3 and 4, 2 serves 5.
fn topo5() -> Topology {
    topology_from_triples(&[
        (1, 2, PeerToPeer),
        (1, 3, ProviderToCustomer),
        (1, 4, ProviderToCustomer),
        (2, 5, ProviderToCustomer),
    ])
}

/// The counters a sweep over the fixed 5-AS topology must report are
/// fully determined (no randomness, single policy), so pin them exactly:
/// any engine change that alters message or generation accounting must
/// show up here as a conscious diff.
#[test]
fn telemetry_pins_exact_counts_on_fixed_topology() {
    let t = topo5();
    let sim = Simulator::new(&t, PolicyConfig::paper());
    let telemetry = SweepTelemetry::new();
    let monitor = SweepMonitor::none().with_telemetry(&telemetry);
    let attackers: Vec<AsIndex> = t.indices().collect();
    let sweep = sim.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);
    assert_eq!(sweep.len(), 4, "target excluded from the pool");

    let snap = telemetry.snapshot();
    assert_eq!(snap.attacks, 4);
    assert_eq!(
        snap.race_dispatches, 4,
        "undefended sweeps go to the closed-form race solver"
    );
    assert_eq!(
        snap.scratch_dispatches, 0,
        "this topology never needs the generation fallback"
    );
    assert_eq!(snap.delta_dispatches, 0);
    assert_eq!(snap.baselines_built, 0);
    assert_eq!(snap.skipped, 0);
    // The race solver passes no messages; its stats report the ASes its
    // passes routed (`accepted`) and fixed-point rounds (`generations`).
    // Stubs 3, 4 and 5 are leaves, pulled at read-out and not counted: a
    // tier-1 attacker's solve routes the two announcers and the other
    // tier-1 (3 ASes), a stub attacker's the two announcers and both
    // tier-1s (4).
    assert_eq!(snap.engine.runs, 4, "one race per attacker");
    assert_eq!(snap.engine.messages, 0);
    assert_eq!(snap.engine.accepted, 3 + 3 + 4 + 4);
    assert_eq!(snap.engine.loop_rejected, 0);
    assert_eq!(snap.engine.generations_total, 9);
    assert_eq!(snap.engine.max_generations, 3);
    assert_eq!(snap.engine.filter_rejected, 0);
    assert_eq!(snap.engine.stub_rejected, 0);
    assert_eq!(snap.engine.truncated_runs, 0);
    assert_eq!(
        snap.timed_attacks(),
        4,
        "every attack lands in the wall histogram"
    );
}

/// Forcing the generation engine restores the historical from-scratch
/// counters, so the engine-accounting pin from before the race solver
/// stays enforced through the override.
#[test]
fn generation_override_pins_scratch_counts() {
    let t = topo5();
    let sim = Simulator::new(&t, PolicyConfig::paper()).with_engine(EngineChoice::Generation);
    let telemetry = SweepTelemetry::new();
    let monitor = SweepMonitor::none().with_telemetry(&telemetry);
    let attackers: Vec<AsIndex> = t.indices().collect();
    sim.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);

    let snap = telemetry.snapshot();
    assert_eq!(snap.attacks, 4);
    assert_eq!(snap.scratch_dispatches, 4);
    assert_eq!(snap.race_dispatches, 0);
    assert_eq!(snap.race_wall_us, 0, "no race attempts under the override");
    assert_eq!(snap.engine.runs, 4);
    assert_eq!(snap.engine.messages, 24);
    assert_eq!(snap.engine.accepted, 12);
    assert_eq!(snap.engine.loop_rejected, 4);
    assert_eq!(snap.engine.generations_total, 9);
    assert_eq!(snap.engine.max_generations, 3);
}

/// A zero round cap forces every race attempt into the generation-engine
/// fallback: the scratch counter takes the dispatch, the race wall clock
/// still records the failed attempts, and the pollution rows are
/// bit-identical to the solver path.
#[test]
fn race_fallback_increments_scratch_and_matches() {
    let t = topo5();
    let telemetry = SweepTelemetry::new();
    let monitor = SweepMonitor::none().with_telemetry(&telemetry);
    let attackers: Vec<AsIndex> = t.indices().collect();

    let solver = Simulator::new(&t, PolicyConfig::paper());
    let solved = solver.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);
    let snap = telemetry.snapshot();
    assert_eq!(snap.race_dispatches, 4);
    assert_eq!(snap.scratch_dispatches, 0);

    let fallback = Simulator::new(&t, PolicyConfig::paper()).with_race_rounds(0);
    let fell_back =
        fallback.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);
    let snap = telemetry.snapshot();
    assert_eq!(snap.race_dispatches, 4, "no new race dispatches");
    assert_eq!(
        snap.scratch_dispatches, 4,
        "every attack fell back to the generation engine"
    );
    assert_eq!(solved.counts(), fell_back.counts(), "bit-identical rows");
}

#[test]
fn progress_ticks_once_per_attacker() {
    let t = topo5();
    let sim = Simulator::new(&t, PolicyConfig::paper());
    let seen: Mutex<Vec<SweepProgress>> = Mutex::new(Vec::new());
    let callback = |p: SweepProgress| seen.lock().unwrap().push(p);
    let monitor = SweepMonitor::none().with_progress(&callback);
    let attackers: Vec<AsIndex> = t.indices().collect();
    sim.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);

    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|p| p.completed);
    assert_eq!(seen.len(), 4);
    for (i, p) in seen.iter().enumerate() {
        assert_eq!(
            p.completed,
            i + 1,
            "each completion count fires exactly once"
        );
        assert_eq!(p.total, 4);
    }
    let last = seen.last().unwrap();
    assert!((last.fraction() - 1.0).abs() < 1e-12);
    assert_eq!(last.eta, Some(std::time::Duration::ZERO));
}

#[test]
fn cancellation_skips_remaining_attacks() {
    let t = topo5();
    let sim = Simulator::new(&t, PolicyConfig::paper());
    let telemetry = SweepTelemetry::new();
    let cancel = AtomicBool::new(true); // cancelled before the sweep starts
    let monitor = SweepMonitor::none()
        .with_telemetry(&telemetry)
        .with_cancel(&cancel);
    let attackers: Vec<AsIndex> = t.indices().collect();
    let sweep = sim.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);

    assert!(
        sweep.counts().iter().all(|&c| c == 0),
        "skipped rows report zero"
    );
    let snap = telemetry.snapshot();
    assert_eq!(snap.skipped, 4);
    assert_eq!(snap.attacks, 0);
    assert_eq!(snap.engine.runs, 0);
    // Un-cancelling resumes normal operation on the same monitor.
    cancel.store(false, Ordering::Relaxed);
    sim.sweep_result_monitored(ix(&t, 3), &attackers, &Defense::none(), &monitor);
    assert_eq!(telemetry.snapshot().attacks, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Attaching telemetry must never change what a sweep computes: the
    /// monitored counts equal the unmonitored ones row for row.
    #[test]
    fn monitored_sweep_matches_unmonitored(seed in 0u64..200, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let topo = &net.topology;
        let target = AsIndex::new((ti % topo.num_ases()) as u32);
        let attackers: Vec<AsIndex> = topo.indices().step_by(5).collect();
        let validators: Vec<AsIndex> = topo.indices().step_by(9).collect();
        let defense = Defense::validators(topo, validators);
        let sim = Simulator::new(topo, PolicyConfig::paper());

        let plain = sim.sweep_attackers(target, &attackers, &defense);
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let monitored =
            sim.sweep_attackers_monitored(target, &attackers, &defense, None, &monitor);
        prop_assert_eq!(&plain, &monitored);

        let snap = telemetry.snapshot();
        let expected = attackers.iter().filter(|&&a| a != target).count() as u64;
        prop_assert_eq!(snap.attacks, expected);
        prop_assert_eq!(snap.skipped, 0);
        prop_assert!(snap.engine.runs >= snap.delta_dispatches);
    }

    /// Same invariant for arbitrary attacks under both policies, through
    /// `evaluate` on whatever route each attack takes: telemetry-on and
    /// telemetry-off yield identical outcomes, both match the
    /// generation-engine oracle, a zero round cap turns every race —
    /// routed or finishing an abandoned replay — into its scratch fallback
    /// without changing an answer, and a cancelled monitor yields empty
    /// outcomes.
    #[test]
    fn monitored_evaluate_matches_unmonitored(
        seed in 0u64..200,
        ti in 0usize..150,
        strict in 0u8..2,
    ) {
        let net = tiny_internet(seed);
        let topo = &net.topology;
        let n = topo.num_ases();
        let target = AsIndex::new((ti % n) as u32);
        let policy = if strict == 1 {
            PolicyConfig::strict_gao_rexford()
        } else {
            PolicyConfig::paper()
        };
        let sim = Simulator::new(topo, policy);
        let fallback = Simulator::new(topo, policy).with_race_rounds(0);
        let validators: Vec<AsIndex> = topo.indices().step_by(11).collect();
        let attacks: Vec<Attack> = topo
            .indices()
            .step_by(13)
            .filter(|&a| a != target)
            .enumerate()
            .map(|(i, a)| match i % 3 {
                0 => Attack::origin(a, target),
                1 => Attack::sub_prefix(a, target),
                _ => Attack::forged_origin(a, target),
            })
            .collect();

        let none = SweepMonitor::none();
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let cancel = AtomicBool::new(true);
        let cancelled = SweepMonitor::none().with_telemetry(&telemetry).with_cancel(&cancel);
        let mut evaluated = 0u64;
        for defense in [Defense::none(), Defense::validators(topo, validators)] {
            // Every attack shares the target, hence the baseline, if any.
            let baseline = sim
                .baseline_key(AttackKind::OriginHijack, target, &defense)
                .map(|key| sim.baseline_for(key, &none));
            let baseline = baseline.as_ref();
            for &attack in &attacks {
                let oracle = sim.run(attack, &defense);
                // The adaptive route replays exactly the keyed attacks.
                let route = match sim.baseline_key(attack.kind, target, &defense) {
                    Some(_) => Dispatch::Delta,
                    None => Dispatch::Race,
                };
                let (plain, dispatch) =
                    sim.evaluate(attack, &defense, baseline, &none, |view| view.to_outcome());
                let (monitored, _) =
                    sim.evaluate(attack, &defense, baseline, &monitor, |view| view.to_outcome());
                evaluated += 1;
                prop_assert_eq!(&plain.polluted, &oracle.polluted);
                prop_assert_eq!(plain.truncated, oracle.truncated);
                prop_assert_eq!(&plain.polluted, &monitored.polluted);
                prop_assert_eq!(plain.generations, monitored.generations);
                prop_assert_eq!(plain.truncated, monitored.truncated);
                // The executor may legitimately fall back on its own: an
                // over-budget replay to the race solver, a race that does
                // not settle to the generation engine.
                let fell_back = matches!(
                    (route, dispatch),
                    (Dispatch::Delta, Dispatch::Race | Dispatch::Scratch)
                        | (Dispatch::Race, Dispatch::Scratch)
                );
                prop_assert!(dispatch == route || fell_back);

                let (capped, dispatch) =
                    fallback.evaluate(attack, &defense, baseline, &none, |view| view.to_outcome());
                prop_assert_eq!(&capped.polluted, &oracle.polluted);
                // With no race rounds nothing finishes on the race solver:
                // a replay completes, everything else ends from scratch.
                prop_assert!(
                    dispatch == Dispatch::Scratch
                        || (route, dispatch) == (Dispatch::Delta, Dispatch::Delta)
                );

                let (skipped, _) =
                    sim.evaluate(attack, &defense, baseline, &cancelled, |view| view.to_outcome());
                prop_assert!(skipped.polluted.is_empty());
            }
        }
        let snap = telemetry.snapshot();
        prop_assert_eq!(snap.attacks, evaluated);
        prop_assert_eq!(snap.skipped, evaluated);
        prop_assert_eq!(snap.baselines_built, 0);
    }
}

/// Budgeted replay (DESIGN.md §10). Under stub filtering with a
/// deployment too weak to keep cones local, some replays outgrow the
/// `n / 16` cone budget: the adaptive route abandons them and finishes on
/// the race solver. Rows and polluted sets must equal the generation
/// engine's for origin and forged-origin hijacks; an abandoned replay is
/// counted as `replays_abandoned` and under the engine that finished it,
/// never as a delta dispatch; and a forced `EngineChoice::Delta` or a
/// truncated baseline never abandons. Origin validation alone is raced on
/// the adaptive route, with no baseline, while the forced replay still
/// completes there.
#[test]
fn over_budget_replays_are_abandoned_and_match_generation() {
    let net = generate(&InternetParams::sized(400), 7);
    let topo = &net.topology;
    let policy = PolicyConfig::paper();
    let auto = Simulator::new(topo, policy);
    let forced = Simulator::new(topo, policy).with_engine(EngineChoice::Delta);
    let generation = Simulator::new(topo, policy).with_engine(EngineChoice::Generation);
    let target = *topo
        .stub_ases()
        .last()
        .expect("generated internets have stubs");
    let mut attackers = topo.transit_ases();
    attackers.extend(topo.stub_ases().into_iter().step_by(16));
    attackers.retain(|&a| a != target);
    let attacks = attackers.len() as u64;
    // One validating tier-1: localizing, so a forced engine replays, but
    // far too weak to contain a well-placed attacker.
    let weak = Defense::validators(topo, [topo.tier1s()[0]]);
    let filtered = weak.clone().with_stub_defense();

    let counted = |sim: &Simulator<'_>, defense: &Defense| {
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let rows = sim.sweep_attackers_monitored(target, &attackers, defense, None, &monitor);
        (rows, telemetry.snapshot())
    };
    for defense in [&weak, &filtered] {
        let case = format!("stub defense {}", defense.has_stub_defense());
        let oracle = generation.sweep_attackers(target, &attackers, defense);
        let (rows, snap) = counted(&forced, defense);
        assert_eq!(rows, oracle, "{case}");
        assert_eq!(
            (snap.replays_abandoned, snap.delta_dispatches),
            (0, attacks),
            "{case}"
        );
        assert_eq!(snap.baselines_built, 1, "{case}");

        let (rows, snap) = counted(&auto, defense);
        assert_eq!(rows, oracle, "{case}");
        assert_eq!(snap.attacks, attacks, "{case}");
        if defense.has_stub_defense() {
            continue;
        }
        assert_eq!(
            auto.baseline_key(AttackKind::OriginHijack, target, defense),
            None
        );
        assert_eq!(
            (
                snap.baselines_built,
                snap.delta_dispatches,
                snap.replays_abandoned
            ),
            (0, 0, 0),
            "origin validation alone is raced"
        );
        assert_eq!(snap.race_dispatches + snap.scratch_dispatches, attacks);
    }

    let key = auto
        .baseline_key(AttackKind::OriginHijack, target, &filtered)
        .expect("stub filtering replays");
    let (_, snap) = counted(&auto, &filtered);
    assert!(snap.replays_abandoned > 0, "no cone outgrew the budget");
    assert!(snap.delta_dispatches > 0, "no replay completed");
    assert_eq!(snap.delta_dispatches + snap.replays_abandoned, attacks);
    assert_eq!(
        snap.race_dispatches + snap.scratch_dispatches,
        snap.replays_abandoned,
        "an abandoned replay is counted by the engine that finished it"
    );
    assert!(
        snap.cone_max as usize <= topo.num_ases() / 16,
        "cone telemetry describes completed replays only"
    );

    // Full outcomes, forged origins included: whichever engine
    // finishes, the polluted set is the generation engine's.
    let baseline = auto.baseline_for(key, &SweepMonitor::none());
    let mut finished_by_race = 0;
    for &attacker in &attackers {
        for attack in [
            Attack::origin(attacker, target),
            Attack::forged_origin(attacker, target),
        ] {
            let (got, dispatch) = auto.evaluate(
                attack,
                &filtered,
                Some(&baseline),
                &SweepMonitor::none(),
                |view| view.to_outcome(),
            );
            assert_eq!(got.polluted, generation.run(attack, &filtered).polluted);
            finished_by_race += u32::from(dispatch == Dispatch::Race);
        }
    }
    assert!(finished_by_race > 0);

    // A baseline cut short by `max_generations` is always replayed to the
    // end: the race solver does not model truncation. So under stub
    // filtering a truncating policy replays every attack and answers the
    // truncated run, while origin validation alone is raced and answers
    // the converged race, as an undefended attack always was.
    let capped = PolicyConfig {
        max_generations: 2,
        ..policy
    };
    let auto = Simulator::new(topo, capped);
    let truncated = Simulator::new(topo, capped).with_engine(EngineChoice::Generation);
    let (rows, snap) = counted(&auto, &filtered);
    assert_eq!(
        rows,
        truncated.sweep_attackers(target, &attackers, &filtered)
    );
    assert!(snap.engine.truncated_runs > 0);
    assert_eq!(
        (snap.replays_abandoned, snap.delta_dispatches),
        (0, attacks)
    );
    let (rows, snap) = counted(&auto, &weak);
    assert_eq!(rows, generation.sweep_attackers(target, &attackers, &weak));
    assert_eq!((snap.engine.truncated_runs, snap.delta_dispatches), (0, 0));
}
