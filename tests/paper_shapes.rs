//! End-to-end integration tests: small-scale versions of every experiment,
//! asserting the paper's *qualitative* findings hold on the synthetic
//! substrate. (Absolute numbers live in EXPERIMENTS.md; these tests pin
//! the shapes — who wins, what ordering, where the gains appear.)

use bgpsim::experiments;
use bgpsim::topology::gen::InternetParams;
use bgpsim::{ExperimentConfig, Lab};

fn lab() -> &'static Lab {
    // One shared scale for all shape tests: ~2k ASes, strided sweeps. The
    // depth gradient needs a reasonably deep hierarchy; below ~1k ASes the
    // tier structure is too flat to reproduce the paper's orderings. Built
    // once and shared: every experiment is read-only over the lab.
    static LAB: std::sync::OnceLock<Lab> = std::sync::OnceLock::new();
    LAB.get_or_init(|| {
        let mut config = ExperimentConfig::quick();
        config.params = InternetParams::sized(2_000);
        config.attacker_stride = 3;
        config.detection_attacks = 300;
        Lab::new(config)
    })
}

fn fig2_result() -> &'static experiments::VulnerabilityResult {
    static R: std::sync::OnceLock<experiments::VulnerabilityResult> = std::sync::OnceLock::new();
    R.get_or_init(|| experiments::fig2(lab()))
}

fn fig5_result() -> &'static experiments::DeploymentResult {
    static R: std::sync::OnceLock<experiments::DeploymentResult> = std::sync::OnceLock::new();
    R.get_or_init(|| experiments::fig5(lab()))
}

/// §IV, fig. 2: vulnerability increases with depth; the tier-1 curve is
/// the most resistant; the deep stub the most vulnerable.
#[test]
fn fig2_vulnerability_grows_with_depth() {
    let r = fig2_result();
    let means: Vec<f64> = r
        .series
        .iter()
        .map(|s| s.curve.mean_successful_pollution())
        .collect();
    // Series order: tier-1, d1 multi, d1 single, d2, deep.
    let tier1 = means[0];
    let d1_multi = means[1];
    let d2 = means[3];
    let deep = means[4];
    assert!(
        tier1 < d2,
        "tier-1 ({tier1:.0}) must resist better than depth-2 ({d2:.0})"
    );
    // Adjacent depths compare single exemplars, so allow 15% sampling
    // noise; distant depths must separate cleanly.
    assert!(
        d1_multi <= d2 * 1.15,
        "depth-1 ({d1_multi:.0}) must not be clearly worse than depth-2 ({d2:.0})"
    );
    assert!(
        d2 <= deep * 1.05,
        "depth-2 ({d2:.0}) must not exceed the deep stub ({deep:.0})"
    );
    assert!(
        deep > 2.0 * tier1,
        "the deep stub must be far more vulnerable than tier-1"
    );
    assert!(
        deep > 1.5 * d1_multi,
        "the deep stub must be far more vulnerable than depth-1"
    );
}

/// §IV, fig. 2: multi-homing gives a slight improvement over
/// single-homing at the same depth.
#[test]
fn fig2_multihoming_helps_slightly() {
    let r = fig2_result();
    let d1_multi = r.series[1].curve.mean_successful_pollution();
    let d1_single = r.series[2].curve.mean_successful_pollution();
    // "a very slight improvement" — allow noise but forbid a big reversal.
    assert!(
        d1_multi <= d1_single * 1.25,
        "multi-homed ({d1_multi:.0}) should not be clearly worse than single-homed ({d1_single:.0})"
    );
}

/// §IV, fig. 3: a stub under a large tier-2 behaves like a depth-1 stub,
/// not like its nominal tier-1 depth.
#[test]
fn fig3_tier2_children_act_shallow() {
    let r = experiments::fig3(lab());
    // Series: [d1-under-tier1, (eff-d1-under-tier2)?, d2-under-tier1, ...]
    if r.series.len() >= 3 && r.series[1].label.contains("tier-2") {
        let d1_t1 = r.series[0].curve.mean_successful_pollution();
        let d1_t2 = r.series[1].curve.mean_successful_pollution();
        let d2_t1 = r.series[2].curve.mean_successful_pollution();
        // The tier-2 child should look closer to the depth-1 curve than to
        // the depth-2 curve. When the two reference exemplars themselves
        // sit within sampling noise of each other the distance ratio is
        // meaningless, so the comparison floors the deep distance at 10%
        // of the shallow curve.
        let dist_shallow = (d1_t2 - d1_t1).abs();
        let dist_deep = (d1_t2 - d2_t1).abs();
        assert!(
            dist_shallow <= dist_deep.max(d1_t1 * 0.10) * 1.5,
            "tier-2 child ({d1_t2:.0}) should track depth-1 ({d1_t1:.0}) not depth-2 ({d2_t1:.0})"
        );
    }
}

/// §IV, fig. 4: defensive stub filtering scales the curves down without
/// changing their general shape.
#[test]
fn fig4_stub_filters_scale_down() {
    let r = experiments::fig4(lab());
    for pair in r.series.chunks(2) {
        let all = &pair[0].curve;
        let filtered = &pair[1].curve;
        assert!(
            filtered.attackers_at_least(1) < all.attackers_at_least(1),
            "stub filtering must remove some successful attackers"
        );
        assert!(filtered.max_pollution() <= all.max_pollution());
    }
}

/// §V, figs. 5–6: random deployment barely moves the baseline; deploying
/// at the degree cohorts gives the real gains; gains are monotone along
/// the progression's degree phase.
#[test]
fn fig5_random_is_weak_and_cohorts_are_strong() {
    let r = fig5_result();
    let mean = |i: usize| r.outcomes[i].mean_successful_pollution();
    let baseline = mean(0);
    let random_small = mean(1);
    let strongest = r.outcomes.last().unwrap().mean_successful_pollution();
    assert!(
        random_small > baseline * 0.55,
        "a sprinkle of random filters ({random_small:.0}) should stay near baseline ({baseline:.0})"
    );
    assert!(
        strongest < baseline * 0.55,
        "the full cohort progression ({strongest:.0}) must break well below baseline ({baseline:.0})"
    );
    // Degree-cohort phase (indices 4..8) must be monotone non-increasing.
    for i in 4..r.outcomes.len() - 1 {
        assert!(
            mean(i + 1) <= mean(i) * 1.10,
            "cohort progression regressed at step {i}: {} -> {}",
            mean(i),
            mean(i + 1)
        );
    }
}

/// §V: the vulnerable target starts much worse than the resistant one and
/// needs deeper deployment for the same relief.
#[test]
fn fig6_vulnerable_target_needs_more() {
    let r5 = fig5_result();
    let r6 = &experiments::fig6(lab());
    assert!(
        r6.outcomes[0].mean_successful_pollution() > r5.outcomes[0].mean_successful_pollution(),
        "the deep target's baseline must be worse"
    );
    // Tier-1-only filtering helps the resistant target relatively more.
    let rel5 = r5.outcomes[3].mean_successful_pollution()
        / r5.outcomes[0].mean_successful_pollution().max(1.0);
    let rel6 = r6.outcomes[3].mean_successful_pollution()
        / r6.outcomes[0].mean_successful_pollution().max(1.0);
    // Single-exemplar targets put this ratio at a band edge; 0.75 still
    // forbids the deep target getting outsized relief from tier-1-only
    // filtering, which is the paper's qualitative point.
    assert!(
        rel6 >= rel5 * 0.75,
        "tier-1 filters should not help the deep target much more ({rel6:.2} vs {rel5:.2})"
    );
}

/// §V tables: the still-potent attackers under heavy deployment are
/// mostly low-depth ASes (the paper's tables show depths 1–2).
#[test]
fn tab_potent_attackers_are_shallow() {
    let r = fig5_result();
    let shallow = r
        .top_potent
        .iter()
        .filter(|row| row.depth.is_some_and(|d| d <= 2))
        .count();
    assert!(
        shallow * 2 >= r.top_potent.len(),
        "most still-potent attackers should sit at depth <= 2"
    );
}

/// §VI, fig. 7: the tier-1 probe configuration misses more attacks than
/// the high-degree cohort; missed attacks can still be large.
#[test]
fn fig7_probe_configurations_rank_correctly() {
    let r = experiments::fig7(lab());
    let tier1 = &r.reports[0];
    let cohort = &r.reports[2];
    assert!(
        cohort.miss_rate() <= tier1.miss_rate(),
        "degree cohort ({:.2}) must not miss more than tier-1 ({:.2})",
        cohort.miss_rate(),
        tier1.miss_rate()
    );
    // The paper's surprise: some undetected attacks are still sizeable.
    if tier1.miss_count() > 0 {
        assert!(tier1.max_missed_pollution() > 0);
    }
    // Histograms account for every attack.
    for rep in &r.reports {
        assert_eq!(rep.histogram().iter().sum::<usize>(), r.attacks);
    }
}

/// §VII: at least one self-interest action (re-homing or a single gateway
/// filter) materially improves regional containment.
#[test]
fn sec7_actions_help_the_region() {
    let r = experiments::sec7(lab());
    let baseline = r.scenarios[0].pollution.inside_fraction();
    let best = r.scenarios[1..]
        .iter()
        .map(|s| s.pollution.inside_fraction())
        .fold(f64::INFINITY, f64::min);
    assert!(baseline > 0.0);
    assert!(
        best < baseline,
        "no §VII action improved containment ({best:.2} vs {baseline:.2})"
    );
}

/// §III: convergence lands in the paper's 5–10 generation band (allowing
/// slack for deep synthetic chains).
#[test]
fn tab_model_convergence_band() {
    let r = experiments::tab_model(lab());
    assert!(
        (3.0..=14.0).contains(&r.mean_generations),
        "mean generations {} far outside the paper's band",
        r.mean_generations
    );
    assert_eq!(r.stats.unreachable, 0);
}

/// Full determinism across labs: same config, same results.
#[test]
fn experiments_are_reproducible() {
    let mut config = ExperimentConfig::quick();
    config.params = InternetParams::sized(400);
    config.detection_attacks = 100;
    let a = Lab::new(config.clone());
    let b = Lab::new(config);
    let fa = experiments::fig7(&a);
    let fb = experiments::fig7(&b);
    for (ra, rb) in fa.reports.iter().zip(&fb.reports) {
        assert_eq!(ra, rb);
    }
    let va = experiments::fig2(&a);
    let vb = experiments::fig2(&b);
    for (sa, sb) in va.series.iter().zip(&vb.series) {
        assert_eq!(sa.curve.sorted_counts(), sb.curve.sorted_counts());
    }
}

/// Fig. 2 sweeps are undefended exact-prefix races: every attack must
/// dispatch to the closed-form race solver, and on the quick lab none may
/// fall back to the generation engine. The counts are exact — a dispatch
/// regression (silently routing sweeps back through the slow path) shows
/// up here as a hard diff, not a perf mystery.
#[test]
fn fig2_dispatch_is_race_solver_only() {
    use bgpsim::hijack::{SweepMonitor, SweepTelemetry};

    let lab = lab();
    let telemetry = SweepTelemetry::new();
    let monitor = SweepMonitor::none().with_telemetry(&telemetry);
    let r = experiments::fig2_monitored(lab, &monitor);

    let attackers = lab.strided_attackers();
    let expected: u64 = r
        .series
        .iter()
        .map(|s| attackers.iter().filter(|&&a| a != s.target).count() as u64)
        .sum();
    let snap = telemetry.snapshot();
    assert_eq!(snap.attacks, expected, "one attack per (target, attacker)");
    assert_eq!(
        snap.race_dispatches, expected,
        "undefended sweeps all go to the race solver"
    );
    assert_eq!(
        snap.scratch_dispatches, 0,
        "no generation-engine fallback on the quick lab"
    );
    assert_eq!(snap.delta_dispatches, 0);
    assert_eq!(snap.baselines_built, 0);
}

/// Forcing `--engine generation` through the config must reproduce the
/// race-solver figures byte for byte: same lab, same CSV artifact.
#[test]
fn engine_override_reproduces_fig2_csv() {
    use bgpsim::hijack::EngineChoice;

    let mut config = ExperimentConfig::quick();
    config.params = InternetParams::sized(400);
    let raced = Lab::new(config.clone());
    config.engine = EngineChoice::Generation;
    let scratch = Lab::new(config);
    assert_eq!(
        experiments::fig2(&raced).to_csv(),
        experiments::fig2(&scratch).to_csv(),
        "engine choice is a pure performance knob"
    );
}

/// Delta replay settles leaves in closed form instead of stepping them
/// (DESIGN.md §10, "Leaf deferral"); at lab scale that covers 85 % of the
/// ASes of nearly every cone. Under tier-1-only ROV — a weak deployment,
/// cones in the thousands — with and without stub defense, a forced
/// replay's rows must equal the generation engine's for transit and stub
/// attackers alike: forced, because the adaptive route races origin
/// validation alone and abandons nearly every cone this size for the race
/// solver under stub defense, and it is `settle_leaves` and `recruit` on
/// large cones this test is here to run. The adaptive route rides beside
/// it, and the telemetry says which side each took.
#[test]
fn delta_rows_match_generation_on_the_standard_lab() {
    use bgpsim::defense::DeploymentStrategy;
    use bgpsim::hijack::{AttackKind, EngineChoice, Simulator, SweepMonitor, SweepTelemetry};

    let lab = Lab::new(ExperimentConfig::standard());
    let topo = lab.topology();
    let policy = lab.config().policy;
    let auto = Simulator::new(topo, policy);
    let replay = Simulator::new(topo, policy).with_engine(EngineChoice::Delta);
    let generation = Simulator::new(topo, policy).with_engine(EngineChoice::Generation);
    let target = lab.cast().vulnerable_stub;
    let (transit, stubs) = (topo.transit_ases(), topo.stub_ases());
    let mut attackers: Vec<_> = transit
        .iter()
        .step_by(transit.len() / 32)
        .copied()
        .collect();
    attackers.extend(stubs.iter().step_by(stubs.len() / 32));
    assert!(attackers.len() >= 64);
    let attacks = attackers.iter().filter(|&&a| a != target).count() as u64;
    let budget = (topo.num_ases() / bgpsim::routing::DEFAULT_CONE_BUDGET_DIVISOR) as u64;
    let rov = DeploymentStrategy::Tier1.defense(topo);
    for defense in [rov.clone(), rov.with_stub_defense()] {
        let case = format!("stub defense {}", defense.has_stub_defense());
        let expected = generation.sweep_attackers(target, &attackers, &defense);
        let key =
            |sim: &Simulator<'_>| sim.baseline_key(AttackKind::OriginHijack, target, &defense);
        assert!(key(&replay).is_some(), "{case}");
        assert_eq!(key(&auto).is_some(), defense.has_stub_defense(), "{case}");

        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let rows = replay.sweep_attackers_monitored(target, &attackers, &defense, None, &monitor);
        assert_eq!(rows, expected, "forced replay, {case}");
        let snap = telemetry.snapshot();
        assert_eq!(
            (snap.delta_dispatches, snap.replays_abandoned),
            (attacks, 0),
            "a forced replay completes whatever its cone, {case}"
        );
        assert!(
            snap.cone_max > 2 * budget,
            "cones past the adaptive budget of {budget} were replayed (max {}), {case}",
            snap.cone_max
        );

        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let rows = auto.sweep_attackers_monitored(target, &attackers, &defense, None, &monitor);
        assert_eq!(rows, expected, "adaptive, {case}");
        let snap = telemetry.snapshot();
        if !defense.has_stub_defense() {
            // Origin validation alone is raced: no baseline, no replay.
            assert_eq!(
                (
                    snap.baselines_built,
                    snap.delta_dispatches,
                    snap.replays_abandoned
                ),
                (0, 0, 0),
                "adaptive, {case}"
            );
            continue;
        }
        assert_eq!(snap.delta_dispatches + snap.replays_abandoned, attacks);
        assert!(
            snap.replays_abandoned > 0,
            "some cone outgrows {budget}, {case}"
        );
        assert!(
            snap.cone_max <= budget,
            "a completed adaptive replay stays within its budget, {case}"
        );
    }
}

/// The pair that once separated the race solver from the generation
/// engine (DESIGN.md §12): on the standard lab, AS577 attacking AS1 left
/// the generation engine's AS6324 on a six-hop route to the attacker,
/// because its sibling AS5012 had moved to another path under an unchanged
/// `(origin, len, class)` and never said so. Both engines must now count
/// the same pollution and put AS6324 on the route through its siblings.
#[test]
fn race_matches_generation_on_the_pinned_witness() {
    use bgpsim::hijack::{Defense, EngineChoice, Simulator};
    use bgpsim::routing::{propagate_announcements, Announcement, NullObserver, Workspace};
    use bgpsim::topology::AsId;

    let lab = Lab::new(ExperimentConfig::standard());
    let topo = lab.topology();
    let policy = lab.config().policy;
    let ix = |asn: u32| topo.index_of(AsId::new(asn)).expect("lab AS");
    let (target, attacker) = (ix(1), ix(577));
    let undefended = Defense::none();
    let race = Simulator::new(topo, policy).with_engine(EngineChoice::Race);
    let raced = race.sweep_attackers(target, &[attacker], &undefended);
    let stepped = propagate_announcements(
        race.net(),
        &[Announcement::honest(target), Announcement::honest(attacker)],
        &undefended.context_for(target),
        &policy,
        &mut Workspace::new(),
        &mut NullObserver,
    );
    assert_eq!(raced, [stepped.captured_by(attacker).count() as u32]);
    let path: Vec<u32> = stepped
        .path_to_origin(ix(6324))
        .expect("AS6324 is routed")
        .iter()
        .map(|&hop| topo.id_of(hop).value())
        .collect();
    assert_eq!(path, [6324, 5012, 9871, 416, 6, 1]);
}

/// The race solver and the generation engine must produce the same sweep
/// rows: five cast targets, the whole strided attacker pool, standard lab.
/// On a mismatch the test names the first `(target, attacker)` whose rows
/// differ and the first AS the two engines route to different origins,
/// with the route each chose. Ignored for its run time only (about a
/// minute in release; CI runs it with `--ignored`).
#[test]
#[ignore = "whole-lab scan, ~1 min in release; CI runs it with --ignored"]
fn race_rows_match_generation_on_the_standard_lab() {
    use bgpsim::hijack::{Defense, EngineChoice, Simulator};
    use bgpsim::routing::{
        propagate_announcements, solve_race, Announcement, NullObserver, Propagation,
        RaceWorkspace, Workspace, DEFAULT_MAX_ROUNDS,
    };
    use bgpsim::topology::AsIndex;

    let lab = Lab::new(ExperimentConfig::standard());
    let topo = lab.topology();
    let policy = lab.config().policy;
    let race = Simulator::new(topo, policy).with_engine(EngineChoice::Race);
    let generation = Simulator::new(topo, policy).with_engine(EngineChoice::Generation);
    let attackers = lab.strided_attackers();
    let undefended = Defense::none();
    let cast = lab.cast();
    for target in [
        cast.tier1,
        cast.resistant_stub,
        cast.single_homed_stub,
        cast.depth2_stub,
        cast.vulnerable_stub,
    ] {
        let raced = race.sweep_attackers(target, &attackers, &undefended);
        let stepped = generation.sweep_attackers(target, &attackers, &undefended);
        let Some(row) = raced.iter().zip(&stepped).position(|(r, g)| r != g) else {
            continue;
        };
        let attacker = attackers[row];
        let announcements = [Announcement::honest(target), Announcement::honest(attacker)];
        let filters = undefended.context_for(target);
        let r = solve_race(
            race.net(),
            &announcements,
            &filters,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut RaceWorkspace::new(),
        )
        .expect("a non-convergent race would have fallen back to the generation engine")
        .to_propagation();
        let g = propagate_announcements(
            race.net(),
            &announcements,
            &filters,
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        let origin = |p: &Propagation, ix: AsIndex| p.choice(ix).map(|c| c.origin);
        let ix = topo
            .indices()
            .find(|&ix| origin(&r, ix) != origin(&g, ix))
            .expect("differing counts imply a differing origin");
        let route = |p: &Propagation| {
            let path = p.path_to_origin(ix).map(|path| {
                path.iter()
                    .map(|&hop| topo.id_of(hop).value())
                    .collect::<Vec<_>>()
            });
            format!("{:?} via AS path {path:?}", p.choice(ix))
        };
        panic!(
            "target AS{} attacked by AS{}: race counts {} polluted, generation {}; \
             first AS routed to different origins is AS{}: race chose {}, generation chose {}",
            topo.id_of(target).value(),
            topo.id_of(attacker).value(),
            raced[row],
            stepped[row],
            topo.id_of(ix).value(),
            route(&r),
            route(&g),
        );
    }
}
