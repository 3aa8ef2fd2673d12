//! `stream_detect`: the live path. One thread feeds a seeded event tape
//! to `StreamDetector::apply` one event at a time, appending to a
//! `StreamStore`, then reads the store back through `window_agg`.
//!
//! Every repetition starts a fresh detector on a tape of its own, drawn
//! from `--seed` and the repetition's index, so a run's medians are taken
//! over as many different tapes as it has repetitions.

use std::time::Instant;

use bgpsim::hijack::{Attack, Defense, Simulator};
use bgpsim::stream::{
    DetectorMode, EventKind, StreamConfig, StreamDetector, StreamPlan, StreamStore,
    SERIES_POLLUTION,
};
use bgpsim::topology::AsIndex;
use bgpsim::{ExperimentConfig, Lab};

use crate::harness::{measure, median_ms, set_up, trace_metrics, Ctx, Outcome};
use crate::probes;
use crate::stats::{percentile, tail, Rng};
use crate::table::TOPOLOGY_SEED;
use crate::trace::Tracer;

/// Events per repetition's tape: fifteen times the default weights' sum
/// (2 + 10 + 2), so every tape holds 30 flips, 150 re-announcements and
/// 30 injections.
const TAPE_EVENTS: usize = 210;
/// The warm-up applies this prefix of the generated plan.
const WARMUP_EVENTS: usize = 50;
/// `window_agg` reads per repetition.
const WINDOW_READS: usize = 50;
/// Events of the first tape the batch-oracle comparison covers.
const ORACLE_EVENTS: usize = 200;

struct Env {
    lab: Lab,
    /// `StreamPlan::generate`'s plan; [`tape`] redraws its events.
    plan: StreamPlan,
    plan_ms: f64,
}

struct Rep {
    wall: f64,
    apply_wall: f64,
    /// What kind each event of the repetition's tape was.
    kinds: Vec<EventKind>,
    /// Host time of each `apply`, in microseconds, in tape order.
    lag_us: Vec<f64>,
    window_us: Vec<f64>,
    windows_ok: bool,
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        events: TAPE_EVENTS,
        // The tracked targets and the initial validators are part of the
        // dataset, like the topology: which four targets the plan draws
        // moves the per-event cost by half.
        seed: TOPOLOGY_SEED,
        ..StreamConfig::default()
    }
}

/// Tape number `index` of `seed`: the generated plan with its events
/// drawn afresh. The mix is `StreamPlan::generate`'s — a flip toggles any
/// AS, a re-announcement picks a tracked target, an injection a tracked
/// target and a transit attacker other than it — but dealt, not rolled:
/// every tape holds the three kinds in exactly the configured 2/10/2
/// proportion, in seeded order, and each kind walks the tracked targets in
/// turn. A flip costs five times a re-announcement, so rolled tapes differ
/// in cost by the luck of their flip count, and that luck would read as
/// spread between seeds.
fn tape(env: &Env, seed: u64, index: u64) -> StreamPlan {
    let topo = env.lab.topology();
    let config = stream_config();
    let mut plan = env.plan.clone();
    let mut rng = Rng::new(seed ^ 0x7461_7065 ^ (index << 32));
    let transit = topo.transit_ases();
    let everyone: Vec<AsIndex> = topo.indices().collect();
    let weights = [
        config.flip_weight,
        config.reannounce_weight,
        config.inject_weight,
    ];
    let total: u32 = weights.iter().sum();
    assert_eq!(
        plan.events.len() % total as usize,
        0,
        "the tape length is a multiple of the weights' sum"
    );
    let per_weight = plan.events.len() / total as usize;
    let deck: Vec<usize> = (0..3)
        .flat_map(|kind| std::iter::repeat_n(kind, per_weight * weights[kind] as usize))
        .collect();
    let deck = rng.sample(&deck, deck.len());
    // Where each kind starts its walk over the targets.
    let mut turn = [0usize; 3].map(|_| rng.below(plan.targets.len()));
    for (event, kind) in plan.events.iter_mut().zip(deck) {
        let target = plan.targets[turn[kind] % plan.targets.len()];
        turn[kind] += 1;
        event.kind = match kind {
            0 => EventKind::DefenseFlip {
                who: everyone[rng.below(everyone.len())],
            },
            1 => EventKind::TargetReannounce { target },
            _ => {
                let attacker = loop {
                    let a = transit[rng.below(transit.len())];
                    if a != target {
                        break a;
                    }
                };
                EventKind::HijackInject {
                    attack: Attack::origin(attacker, target),
                }
            }
        };
    }
    plan
}

fn apply_tape(
    sim: &Simulator<'_>,
    sets: &[bgpsim::detection::ProbeSet],
    plan: &StreamPlan,
    events: usize,
    mode: DetectorMode,
) -> StreamStore {
    let mut store = StreamStore::sized_for(events);
    let mut detector = StreamDetector::new(sim, sets, plan, mode);
    for event in &plan.events[..events] {
        detector.apply(event, &mut store);
    }
    store
}

fn rep(
    sim: &Simulator<'_>,
    sets: &[bgpsim::detection::ProbeSet],
    plan: &StreamPlan,
    tracer: &mut Tracer,
    op: u64,
) -> Rep {
    let rep = tracer.enter("rep", op);
    let started = Instant::now();
    let mut store = StreamStore::sized_for(plan.events.len());
    let mut detector = StreamDetector::new(sim, sets, plan, DetectorMode::Incremental);
    let mut lag_us = Vec::with_capacity(plan.events.len());
    let apply_started = Instant::now();
    for event in &plan.events {
        let span = tracer.enter("stream.apply", event.seq);
        let t = Instant::now();
        detector.apply(event, &mut store);
        lag_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tracer.exit(span);
    }
    let apply_wall = apply_started.elapsed().as_secs_f64();
    let series = store
        .series(SERIES_POLLUTION)
        .expect("every event appends a pollution sample");
    let last = plan.events.len() as u64 - 1;
    let mut window_us = Vec::with_capacity(WINDOW_READS);
    let mut windows_ok = true;
    for i in 0..WINDOW_READS {
        // Windows of 8..=64 events, so the reads differ.
        let window = 8 + (i as u64 % 8) * 8;
        let span = tracer.enter("stream.window_agg", i as u64);
        let t = Instant::now();
        let windows = series.window_agg(0, last, window);
        window_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tracer.exit(span);
        windows_ok &= windows.iter().map(|w| w.count).sum::<usize>() == plan.events.len();
    }
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(rep);
    Rep {
        wall,
        apply_wall,
        kinds: plan.events.iter().map(|e| e.kind).collect(),
        lag_us,
        window_us,
        windows_ok,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (env, setups) = set_up(
        || {
            let mut config = ExperimentConfig::standard();
            config.seed = TOPOLOGY_SEED;
            let lab = Lab::new(config);
            let (plan_ms, plan) =
                median_ms(1, || StreamPlan::generate(lab.topology(), &stream_config()));
            let env = Env { lab, plan, plan_ms };
            let sim = env.lab.simulator();
            let sets = probes::fig7_probe_sets(&env.lab);
            // The generated plan's own events, so set-up costs the same
            // under every seed.
            apply_tape(
                &sim,
                &sets,
                &env.plan,
                WARMUP_EVENTS,
                DetectorMode::Incremental,
            );
            drop(sim);
            env
        },
        drop,
    );
    let lab = &env.lab;
    let sim = lab.simulator();
    let sets = probes::fig7_probe_sets(lab);

    let measured = measure(ctx, |tracer, op| {
        // A traced run alternates plain and traced repetitions: each pair
        // shares a tape, so trace.overhead_pct compares like with like.
        let index = if ctx.trace { op / 2 } else { op };
        rep(&sim, &sets, &tape(&env, ctx.seed, index), tracer, op)
    });
    let plan = &tape(&env, ctx.seed, 0);

    // Oracles, outside the timed loop.
    let all: Vec<&Rep> = measured.plain.iter().chain(&measured.traced).collect();
    for (i, r) in all.iter().enumerate() {
        out.attempted += (r.lag_us.len() + r.window_us.len()) as u64;
        out.check(r.windows_ok, || {
            format!("repetition {i}: window_agg lost or duplicated samples")
        });
    }
    let (incremental_ms, incremental) = median_ms(1, || {
        apply_tape(&sim, &sets, plan, ORACLE_EVENTS, DetectorMode::Incremental)
    });
    let (batch_ms, batch) = median_ms(1, || {
        apply_tape(&sim, &sets, plan, ORACLE_EVENTS, DetectorMode::Batch)
    });
    let to = ORACLE_EVENTS as u64 - 1;
    for name in batch.names() {
        let want = batch.series(name).map(|s| s.range(0, to));
        let got = incremental.series(name).map(|s| s.range(0, to));
        out.check(want == got, || {
            format!("series {name}: incremental detector differs from the batch oracle")
        });
    }
    out.check(batch.names() == incremental.names(), || {
        "incremental detector and batch oracle recorded different series".to_string()
    });

    let walls = |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.wall).collect() };
    if ctx.trace {
        trace_metrics(
            &mut out,
            &walls(&measured.plain),
            &walls(&measured.traced),
            measured.tracer.spans().len(),
        );
        layer_metrics(
            &mut out,
            env.plan_ms,
            &measured.plain,
            batch_ms / incremental_ms,
        );
        // The stream's own defense: its initial validators plus stub
        // filtering; its targets; its attackers.
        let mut defense = Defense::validators(lab.topology(), plan.initial_validators.clone());
        if plan.stub_defense {
            defense = defense.with_stub_defense();
        }
        let pool = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::HijackInject { attack } => Some(attack.attacker),
                _ => None,
            })
            .chain(lab.topology().transit_ases())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        probes::run(
            ctx,
            &probes::Inputs {
                lab,
                targets: plan.targets.clone(),
                pool,
                sweep_defense: defense.clone(),
                delta_defense: defense,
            },
            &mut out,
        );
        out.tracer = Some(measured.tracer);
    } else {
        let reps = &measured.plain;
        let rate: Vec<f64> = reps
            .iter()
            .map(|r| r.lag_us.len() as f64 / r.apply_wall)
            .collect();
        let lags: Vec<f64> = reps.iter().flat_map(|r| r.lag_us.iter().copied()).collect();
        let p50 = percentile(&lags, 50.0);
        let (p95, p) = tail(&lags, 95);
        // Each repetition's own median lag, for the quiet quartile.
        let rep_p50: Vec<f64> = reps.iter().map(|r| percentile(&r.lag_us, 50.0)).collect();
        out.put_median("setup_s", &setups);
        out.put_quiet("wall_s", &walls(reps));
        out.put_median("events_per_s", &rate);
        out.put_quiet("work_per_s", &rate);
        out.put("event_lag_p50_us", p50, lags.len());
        out.put_quiet("op_p50_us", &rep_p50);
        out.put_noted("event_lag_p95_us", p95, lags.len(), format!("p{p}"));
        out.put("peak_rss_mb", measured.peak_rss_mb, 1);
    }
    out
}

/// The `stream.*` layer metrics, from the untraced half's samples.
fn layer_metrics(out: &mut Outcome, plan_ms: f64, reps: &[Rep], oracle_speedup: f64) {
    out.put("stream.plan_generate_ms", plan_ms, 1);
    let by_kind = |want: fn(&EventKind) -> bool| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| {
                r.kinds
                    .iter()
                    .zip(&r.lag_us)
                    .filter(move |(kind, _)| want(kind))
                    .map(|(_, &us)| us)
            })
            .collect()
    };
    for (name, want) in [
        (
            "stream.apply_us_inject_p50",
            (|k| matches!(k, EventKind::HijackInject { .. })) as fn(&EventKind) -> bool,
        ),
        ("stream.apply_us_reannounce_p50", |k| {
            matches!(k, EventKind::TargetReannounce { .. })
        }),
        ("stream.apply_us_flip_p50", |k| {
            matches!(k, EventKind::DefenseFlip { .. })
        }),
    ] {
        let samples = by_kind(want);
        out.put(name, percentile(&samples, 50.0), samples.len());
    }
    let reads: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.window_us.iter().copied())
        .collect();
    out.put(
        "stream.window_agg_us",
        percentile(&reads, 50.0),
        reads.len(),
    );

    const PUSHES: usize = 100_000;
    let mut store = StreamStore::sized_for(PUSHES);
    let t = Instant::now();
    for seq in 0..PUSHES as u64 {
        store.push(SERIES_POLLUTION, seq, seq as f64);
    }
    let push_ns = t.elapsed().as_nanos() as f64 / PUSHES as f64;
    std::hint::black_box(store.total_samples());
    out.put("stream.store_push_ns", push_ns, PUSHES);

    out.put("stream.oracle_speedup_x", oracle_speedup, 1);
}
