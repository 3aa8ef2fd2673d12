//! Layer probes: each crate's public calls, timed in isolation on a
//! seeded sample of the workload's own inputs.
//!
//! A traced run of every workload ends with the same probe suite over
//! that workload's lab, targets, attackers and defense. The probes say
//! what one call into a layer costs at this topology size; the spans of
//! the traced repetitions say how often the workload makes it.

use std::time::Instant;

use bgpsim::defense::DeploymentStrategy;
use bgpsim::detection::{random_transit_attacks, run_detection_experiment, ProbeSet};
use bgpsim::experiments::{LabeledCurve, VulnerabilityResult};
use bgpsim::hijack::{Attack, Defense, Simulator, SweepMonitor, SweepResult, SweepTelemetry};
use bgpsim::manifest::Json;
use bgpsim::routing::{
    propagate_announcements, propagate_delta, solve_race_observed, Announcement, Baseline,
    DeltaWorkspace, NullObserver, RaceWorkspace, SimNet, Workspace, DEFAULT_MAX_ROUNDS,
};
use bgpsim::topology::classify::{classify, effective_depth, ClassifyConfig};
use bgpsim::topology::gen::generate;
use bgpsim::topology::metrics::DepthMap;
use bgpsim::topology::AsIndex;
use bgpsim::Lab;

use crate::harness::{median_ms, set_rayon_threads, Ctx, Outcome};
use crate::stats::{median, percentile, tail, Rng};

/// Most probe targets (one baseline build each).
pub const MAX_TARGETS: usize = 4;
/// Attackers sampled per target: up to 256 sample attacks in all.
pub const SAMPLE_ATTACKERS: usize = 64;
/// Cap on the hijack sweep probe's pool.
const MAX_SWEEP_POOL: usize = 256;
/// Attacks in the detection probe.
const DETECTION_ATTACKS: usize = 64;
/// Sample outcomes rendered to and parsed from JSON.
const JSON_DOCS: usize = 16;

/// The slice of a workload's inputs the probes run on.
pub struct Inputs<'a> {
    pub lab: &'a Lab,
    /// Targets the workload attacks (the first [`MAX_TARGETS`] are used).
    pub targets: Vec<AsIndex>,
    /// The workload's attacker pool, to sample from.
    pub pool: Vec<AsIndex>,
    /// The defense the workload's own sweeps run under (may be none).
    pub sweep_defense: Defense,
    /// A localizing defense for the baseline and delta probes: the
    /// workload's own when it has one, else the top-cohort ROV + stub
    /// deployment.
    pub delta_defense: Defense,
}

/// Route-origin validation at the top degree cohort (the paper's
/// "degree >= 500" deployment, scaled like figs. 5/6) — the defense the
/// serve, fan-out and probe paths share.
pub fn top_cohort(lab: &Lab) -> DeploymentStrategy {
    DeploymentStrategy::scaled_progression(lab.config().seed, lab.config().scale())
        .into_iter()
        .find(|s| matches!(s, DeploymentStrategy::DegreeAtLeast(_)))
        .expect("the progression has degree cohorts")
}

/// The probe sets fig7 and the stream detector watch through.
pub fn fig7_probe_sets(lab: &Lab) -> Vec<ProbeSet> {
    let topo = lab.topology();
    let degree_threshold = ((500.0 * lab.config().scale().sqrt()).round() as usize).max(4);
    vec![
        ProbeSet::tier1(topo),
        ProbeSet::bgpmon_like(topo, 24, lab.config().seed ^ 0xb69),
        ProbeSet::degree_at_least(topo, degree_threshold),
    ]
}

/// Runs every probe and records the per-layer metrics every workload
/// reports. Call on the main thread after the workload's own threads
/// (servers, load generators) have stopped: the sweep probe raises the
/// rayon worker count to `ctx.threads` for its parallel side and puts it
/// back to one.
pub fn run(ctx: &Ctx, inputs: &Inputs<'_>, out: &mut Outcome) {
    let lab = inputs.lab;
    let config = lab.config().clone();
    let topo = lab.topology();
    let num_ases = topo.num_ases() as f64;
    let mut rng = Rng::new(ctx.seed ^ 0x70_726f_6265);

    // -- topology ---------------------------------------------------------
    let (generate_ms, _) = median_ms(3, || generate(&config.params, config.seed));
    out.put("topology.generate_ms", generate_ms, 3);
    let (classify_ms, _) = median_ms(3, || {
        let depths = DepthMap::to_tier1(topo);
        // The same tier-2 heuristic Lab::new applies.
        let classification = classify(
            topo,
            &ClassifyConfig {
                tier2_min_degree: ((300.0 * config.scale().sqrt()).round() as usize).max(12),
                tier2_min_tier1_adjacencies: 2,
            },
        );
        let effective = effective_depth(topo, &classification);
        (depths, classification, effective)
    });
    out.put("topology.classify_depth_ms", classify_ms, 3);

    // -- core: lab ---------------------------------------------------------
    let (lab_new_ms, _) = median_ms(3, || Lab::new(config.clone()));
    out.put("core.lab_new_ms", lab_new_ms, 3);

    // -- routing -----------------------------------------------------------
    let (simnet_ms, _) = median_ms(3, || SimNet::new(topo));
    out.put("routing.simnet_build_ms", simnet_ms, 3);

    let sim = lab.simulator();
    let net = sim.net();
    let policy = sim.policy();
    let targets: Vec<AsIndex> = inputs.targets.iter().copied().take(MAX_TARGETS).collect();
    let candidates: Vec<AsIndex> = inputs
        .pool
        .iter()
        .copied()
        .filter(|a| !targets.contains(a))
        .collect();
    let attackers = rng.sample(&candidates, SAMPLE_ATTACKERS);
    let attacks: Vec<Attack> = targets
        .iter()
        .flat_map(|&t| attackers.iter().map(move |&a| Attack::origin(a, t)))
        .collect();
    let n_attacks = attacks.len();
    let undefended = Defense::none();

    // The sweep probe below attacks the first target only, so its engine
    // share is priced with the costs of the first target's sample attacks
    // (the first `per_target` entries).
    let per_target = attackers.len();
    let mean_ns = |ns: &[f64]| ns[..per_target].iter().sum::<f64>() / per_target as f64;

    let mut rws = RaceWorkspace::new();
    let mut race_each = Vec::with_capacity(n_attacks);
    let mut race_captured = Vec::with_capacity(n_attacks);
    let mut rounds = 0u64;
    let mut settled = 0u64;
    let mut fallbacks = 0u64;
    for attack in &attacks {
        let announcements = [
            Announcement::honest(attack.target),
            Announcement::honest(attack.attacker),
        ];
        let filters = undefended.context_for(attack.target);
        let t = Instant::now();
        let result = solve_race_observed(
            net,
            &announcements,
            &filters,
            policy,
            DEFAULT_MAX_ROUNDS,
            &mut rws,
            &mut NullObserver,
        );
        race_each.push(t.elapsed().as_nanos() as f64);
        race_captured.push(
            result
                .as_ref()
                .map(|p| p.captured_by(attack.attacker).count()),
        );
        match result {
            Some(p) => {
                rounds += u64::from(p.stats().generations);
                settled += 1;
            }
            None => fallbacks += 1,
        }
    }
    let race_mean_ns = mean_ns(&race_each);
    out.put(
        "routing.race_ns_per_as",
        race_each.iter().sum::<f64>() / n_attacks as f64 / num_ases,
        n_attacks,
    );
    out.put(
        "routing.race_rounds_mean",
        rounds as f64 / settled.max(1) as f64,
        n_attacks,
    );
    out.put("routing.race_fallbacks", fallbacks as f64, n_attacks);

    let mut ws = Workspace::new();
    let mut generation_each = Vec::with_capacity(n_attacks);
    let mut messages = 0u64;
    let mut disagreements = 0u64;
    for (attack, raced) in attacks.iter().zip(&race_captured) {
        let announcements = [
            Announcement::honest(attack.target),
            Announcement::honest(attack.attacker),
        ];
        let filters = undefended.context_for(attack.target);
        let t = Instant::now();
        let p = propagate_announcements(
            net,
            &announcements,
            &filters,
            policy,
            &mut ws,
            &mut NullObserver,
        );
        generation_each.push(t.elapsed().as_nanos() as f64);
        messages += p.stats().messages;
        let captured = p.captured_by(attack.attacker).count();
        disagreements += u64::from(raced.is_some_and(|r| r != captured));
    }
    let generation_mean_ns = mean_ns(&generation_each);
    out.put(
        "routing.generation_ns_per_as",
        generation_each.iter().sum::<f64>() / n_attacks as f64 / num_ases,
        n_attacks,
    );
    out.put(
        "routing.race_disagreements",
        disagreements as f64,
        n_attacks,
    );
    out.put(
        "routing.generation_msgs_per_attack",
        messages as f64 / n_attacks as f64,
        n_attacks,
    );

    let mut build_ms = Vec::new();
    let baselines: Vec<Baseline> = targets
        .iter()
        .map(|&t| {
            let started = Instant::now();
            let baseline = Baseline::build(
                net,
                &[Announcement::honest(t)],
                &inputs.delta_defense.context_for(t),
                policy,
                &mut ws,
            );
            build_ms.push(started.elapsed().as_secs_f64() * 1e3);
            baseline
        })
        .collect();
    let baseline_ms = median(&build_ms);
    out.put("routing.baseline_build_ms", baseline_ms, build_ms.len());
    out.put(
        "routing.baseline_bytes_per_as",
        baselines[0].heap_bytes() as f64 / num_ases,
        1,
    );

    let mut dws = DeltaWorkspace::new();
    let mut delta_us = Vec::with_capacity(n_attacks);
    let mut cone = 0u64;
    for attack in &attacks {
        let ti = targets
            .iter()
            .position(|&t| t == attack.target)
            .expect("sample attacks target probe targets");
        let filters = inputs.delta_defense.context_for(attack.target);
        let t = Instant::now();
        let result = propagate_delta(
            net,
            &baselines[ti],
            &[Announcement::honest(attack.attacker)],
            &filters,
            policy,
            &mut dws,
            &mut NullObserver,
        );
        delta_us.push(t.elapsed().as_secs_f64() * 1e6);
        cone += result.touched().count() as u64;
    }
    let delta_mean_ns = delta_us[..per_target].iter().sum::<f64>() * 1e3 / per_target as f64;
    out.put(
        "routing.delta_us_p50",
        percentile(&delta_us, 50.0),
        n_attacks,
    );
    let (delta_tail, p) = tail(&delta_us, 95);
    out.put_noted(
        "routing.delta_us_p95",
        delta_tail,
        n_attacks,
        format!("p{p}"),
    );
    out.put(
        "routing.delta_cone_mean",
        cone as f64 / n_attacks as f64,
        n_attacks,
    );
    drop(baselines);

    // -- hijack: one sweep, telemetry attached, at n threads and at one ----
    let sweep_target = targets[0];
    let pool: Vec<AsIndex> = candidates.iter().copied().take(MAX_SWEEP_POOL).collect();
    let sweep_once = |sim: &Simulator<'_>| {
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let counts = sim.sweep_attackers_monitored(
            sweep_target,
            &pool,
            &inputs.sweep_defense,
            None,
            &monitor,
        );
        (counts, telemetry.snapshot())
    };
    set_rayon_threads(ctx.threads);
    sweep_once(&sim); // fills the simulator's workspace pools
    let (tn_ms, (counts, snapshot)) = median_ms(3, || sweep_once(&sim));
    set_rayon_threads(1);
    let (t1_ms, _) = median_ms(3, || sweep_once(&sim));
    out.put("hijack.sweep_call_ms", tn_ms, 3);
    out.put("hijack.dispatch_race", snapshot.race_dispatches as f64, 1);
    out.put("hijack.dispatch_delta", snapshot.delta_dispatches as f64, 1);
    out.put(
        "hijack.dispatch_scratch",
        snapshot.scratch_dispatches as f64,
        1,
    );
    let engine_ms = (snapshot.race_dispatches as f64 * race_mean_ns
        + snapshot.delta_dispatches as f64 * delta_mean_ns
        + snapshot.scratch_dispatches as f64 * generation_mean_ns)
        / 1e6
        + snapshot.baselines_built as f64 * build_ms[0];
    let share = 100.0 * engine_ms / (tn_ms * ctx.threads as f64);
    out.put("hijack.engine_share_pct", share, 3);
    out.put("hijack.unattributed_pct", 100.0 - share, 3);
    out.put(
        "hijack.parallel_efficiency_pct",
        100.0 * t1_ms / (ctx.threads as f64 * tn_ms),
        3,
    );
    let (curve_ms, result) = {
        let (pool, counts) = (pool.clone(), counts.clone());
        let t = Instant::now();
        let result = SweepResult::new(pool, counts);
        let points = result.curve().points();
        std::hint::black_box(points);
        (t.elapsed().as_secs_f64() * 1e3, result)
    };
    out.put("hijack.curve_us", curve_ms * 1e3, 1);

    // -- core + viz: render the probe sweep as a figure --------------------
    let figure = VulnerabilityResult {
        id: "probe",
        title: "Layer probe sweep".into(),
        subtitle: format!("{} ASes, {} attackers", topo.num_ases(), pool.len()),
        series: vec![LabeledCurve {
            label: lab.describe(sweep_target),
            target: sweep_target,
            curve: result.curve(),
        }],
        attackers: pool.len(),
    };
    let dir = ctx.scratch_dir();
    let (render_ms, written) = median_ms(3, || {
        let csv = figure.to_csv();
        (csv.len(), figure.write_artifacts(&dir))
    });
    out.check(written.1.is_ok(), || {
        format!("probe write_artifacts failed: {:?}", written.1)
    });
    out.put("core.render_ms", render_ms, 3);
    out.put(
        "core.render_share_pct",
        100.0 * render_ms / (tn_ms + render_ms),
        3,
    );
    let (chart_ms, svg) = median_ms(3, || figure.chart());
    out.put("viz.chart_ms", chart_ms, 3);
    out.put("viz.svg_kb", svg.len() as f64 / 1024.0, 1);

    // -- core: JSON over attack-response documents --------------------------
    let docs: Vec<Json> = attacks
        .iter()
        .take(JSON_DOCS)
        .map(|&attack| response_document(lab, &sim.run(attack, &undefended)))
        .collect();
    let t = Instant::now();
    let rendered: Vec<String> = docs.iter().map(Json::render_compact).collect();
    let write_us = t.elapsed().as_secs_f64() * 1e6;
    let kb = rendered.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let t = Instant::now();
    let parsed: Vec<bool> = rendered.iter().map(|s| Json::parse(s).is_ok()).collect();
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    out.check(parsed.iter().all(|&ok| ok), || {
        "a rendered probe document did not parse back".to_string()
    });
    out.put("core.json_write_us_per_kb", write_us / kb, docs.len());
    out.put("core.json_parse_us_per_kb", parse_us / kb, docs.len());

    // -- defense -------------------------------------------------------------
    let (select_ms, strategies) = median_ms(3, || {
        let strategies = DeploymentStrategy::scaled_progression(config.seed, config.scale());
        let defenses: Vec<Defense> = strategies.iter().map(|s| s.defense(topo)).collect();
        std::hint::black_box(defenses);
        strategies.len()
    });
    out.put("defense.select_ms", select_ms, 3);
    out.put("defense.strategies", strategies as f64, 1);

    // -- detection -----------------------------------------------------------
    let (sample_ms, detection_attacks) = median_ms(3, || {
        random_transit_attacks(topo, DETECTION_ATTACKS, config.seed ^ 0xa77ac)
    });
    out.put("detection.sample_ms", sample_ms, 3);
    let sets = fig7_probe_sets(lab);
    let (experiment_ms, _) = median_ms(3, || {
        run_detection_experiment(&sim, &sets, &detection_attacks, &undefended)
    });
    out.put("detection.experiment_ms", experiment_ms, 3);
    // What the engine alone costs on these very attacks (the experiment
    // above ran on one rayon worker too).
    let engine_started = Instant::now();
    for attack in &detection_attacks {
        std::hint::black_box(sim.run_observed(*attack, &undefended, &mut ws, &mut NullObserver));
    }
    let engine_ms = engine_started.elapsed().as_secs_f64() * 1e3;
    out.put(
        "detection.accounting_pct",
        100.0 * (1.0 - engine_ms / experiment_ms),
        3,
    );
}

/// A `POST /v1/attacks` response for `outcome`, in the server's shape.
fn response_document(lab: &Lab, outcome: &bgpsim::hijack::AttackOutcome) -> Json {
    let topo = lab.topology();
    let asn = |ix: AsIndex| Json::Num(f64::from(topo.id_of(ix).value()));
    Json::obj([
        (
            "result",
            Json::obj([
                ("attacker", asn(outcome.attack.attacker)),
                ("target", asn(outcome.attack.target)),
                ("kind", Json::str("origin")),
                (
                    "pollution_count",
                    Json::Num(outcome.pollution_count() as f64),
                ),
                (
                    "polluted",
                    Json::Arr(outcome.polluted.iter().map(|&ix| asn(ix)).collect()),
                ),
            ]),
        ),
        (
            "meta",
            Json::obj([
                ("engine", Json::str("generation")),
                ("cache", Json::str("bypass")),
                ("wall_us", Json::Num(0.0)),
            ]),
        ),
    ])
}
