//! `campaign_paper` and `campaign_defended`: figure runs through
//! `core::experiments`, the way `bgpsim run` drives them.
//!
//! Both are closed loops of short repetitions on one rayon worker: two
//! busy threads on a shared two-vCPU host measure where the host put the
//! vCPUs (README, "One busy thread"); what the sweeps gain from a second
//! thread is `hijack.parallel_efficiency_pct`'s to say.
//! `campaign_paper` runs fig2 (undefended, so every attack goes
//! to the race solver) and fig7 (the detection experiment, generation
//! engine) on the 42,697-AS lab; `campaign_defended` runs fig5 + fig6
//! (the §V progression: baseline builds plus delta replay) on the 10k-AS
//! lab. Each repetition ends by writing the figures' artifacts.
//!
//! `--seed` picks which residue class of ASes attacks in fig2, through
//! the figure's public sweep seam. fig5, fig6 and fig7 take every input
//! from the lab, and the lab is pinned (see `table::TOPOLOGY_SEED`), so
//! their timed work is the same for every seed.

use std::time::Instant;

use bgpsim::hijack::{Defense, EngineChoice, Simulator, SweepMonitor};
use bgpsim::topology::AsIndex;
use bgpsim::{experiments, ExperimentConfig, Lab};

use crate::harness::{measure, set_up, trace_metrics, Ctx, Outcome};
use crate::probes;
use crate::stats::{fnv1a, Rng};
use crate::table::TOPOLOGY_SEED;
use crate::trace::Tracer;

/// fig2 attacker stride at paper scale: 14 attackers x 5 targets.
const PAPER_STRIDE: usize = 3072;
/// fig7 attacks per repetition at paper scale.
const PAPER_DETECTION_ATTACKS: usize = 16;
/// fig5/fig6 transit-attacker stride at standard scale.
const DEFENDED_STRIDE: usize = 200;
/// Rows of the generation-engine equivalence oracle.
const ORACLE_ROWS: usize = 64;

/// One timed repetition.
struct Rep {
    wall: f64,
    sweep_wall: f64,
    sweep_attacks: usize,
    /// fig7 wall and attacks (`campaign_paper` only).
    detect: Option<(f64, usize)>,
    /// Wall of the call `op_p50_us` times: fig7, or fig5.
    op_wall: f64,
    artifacts_ok: bool,
    /// Hash of every CSV the repetition rendered.
    csv_hash: u64,
}

fn config(paper: bool) -> ExperimentConfig {
    let mut config = if paper {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::standard()
    };
    config.seed = TOPOLOGY_SEED;
    if paper {
        config.attacker_stride = PAPER_STRIDE;
        config.detection_attacks = PAPER_DETECTION_ATTACKS;
    } else {
        config.attacker_stride = DEFENDED_STRIDE;
    }
    config
}

/// fig2's attacker pool: every [`PAPER_STRIDE`]th AS, as
/// `Lab::strided_attackers` draws it, from the residue class `seed` picks.
fn paper_pool(lab: &Lab, seed: u64) -> Vec<AsIndex> {
    lab.topology()
        .indices()
        .skip(seed as usize % PAPER_STRIDE)
        .step_by(PAPER_STRIDE)
        .collect()
}

fn rep_paper(lab: &Lab, ctx: &Ctx, tracer: &mut Tracer, op: u64) -> Rep {
    let dir = ctx.scratch_dir();
    let pool = paper_pool(lab, ctx.seed);
    let rep = tracer.enter("rep", op);
    let started = Instant::now();
    // fig2 through its sweep seam — what `experiments::fig2` does, over
    // the seed's pool — so each per-target sweep gets its own span.
    let sim = lab.simulator();
    let undefended = Defense::none();
    let fig2 = tracer.span("core.fig2", op, |tracer| {
        experiments::fig2_with(lab, |target, _| {
            tracer.span("hijack.sweep_result", op, |_| {
                sim.sweep_result_monitored(target, &pool, &undefended, &SweepMonitor::none())
            })
        })
    });
    let sweep_wall = started.elapsed().as_secs_f64();
    let detect_started = Instant::now();
    let fig7 = tracer.span("core.fig7", op, |_| experiments::fig7(lab));
    let detect_wall = detect_started.elapsed().as_secs_f64();
    let artifacts_ok = tracer.span("core.write_artifacts", op, |_| {
        fig2.write_artifacts(&dir).is_ok() && fig7.write_artifacts(lab, &dir).is_ok()
    });
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(rep);
    let csv = format!("{}{}", fig2.to_csv(), fig7.to_csv());
    Rep {
        wall,
        sweep_wall,
        sweep_attacks: fig2.series.iter().map(|s| s.curve.num_attacks()).sum(),
        detect: Some((detect_wall, fig7.attacks)),
        op_wall: detect_wall,
        artifacts_ok,
        csv_hash: fnv1a(csv.as_bytes()),
    }
}

fn rep_defended(lab: &Lab, ctx: &Ctx, tracer: &mut Tracer, op: u64) -> Rep {
    let dir = ctx.scratch_dir();
    let rep = tracer.enter("rep", op);
    let started = Instant::now();
    let fig5 = tracer.span("core.fig5", op, |_| experiments::fig5(lab));
    let fig5_wall = started.elapsed().as_secs_f64();
    let fig6 = tracer.span("core.fig6", op, |_| experiments::fig6(lab));
    let sweep_wall = started.elapsed().as_secs_f64();
    let artifacts_ok = tracer.span("core.write_artifacts", op, |_| {
        fig5.write_artifacts(lab, &dir).is_ok() && fig6.write_artifacts(lab, &dir).is_ok()
    });
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(rep);
    let csv = format!("{}{}", fig5.to_csv(), fig6.to_csv());
    let attacks = |r: &experiments::DeploymentResult| -> usize {
        r.outcomes.iter().map(|o| o.sweep.len()).sum()
    };
    Rep {
        wall,
        sweep_wall,
        sweep_attacks: attacks(&fig5) + attacks(&fig6),
        detect: None,
        op_wall: fig5_wall,
        artifacts_ok,
        csv_hash: fnv1a(csv.as_bytes()),
    }
}

/// Attacker stride of the oracle and probe pool at paper scale: 445 ASes.
const PAPER_SAMPLE_STRIDE: usize = 96;

/// What the oracle and the probes sample from: the workload's targets, the
/// defense its own sweeps run under, and a pool of the same kind as its
/// attackers but denser than one repetition's — every 96th AS from the
/// seed's offset at paper scale, every transit AS for §V.
fn own_sweep(lab: &Lab, paper: bool, seed: u64) -> (Vec<AsIndex>, Vec<AsIndex>, Defense) {
    let cast = lab.cast();
    if paper {
        (
            vec![
                cast.vulnerable_stub,
                cast.resistant_stub,
                cast.depth2_stub,
                cast.tier1,
            ],
            lab.topology()
                .indices()
                .skip(seed as usize % PAPER_SAMPLE_STRIDE)
                .step_by(PAPER_SAMPLE_STRIDE)
                .collect(),
            Defense::none(),
        )
    } else {
        (
            vec![cast.resistant_stub, cast.vulnerable_stub],
            lab.topology().transit_ases(),
            probes::top_cohort(lab).defense(lab.topology()),
        )
    }
}

pub fn run(ctx: &Ctx, paper: bool) -> Outcome {
    let mut out = Outcome::default();
    let rep = if paper { rep_paper } else { rep_defended };
    let (lab, setups) = set_up(
        || {
            let lab = Lab::new(config(paper));
            rep(&lab, ctx, &mut Tracer::new(false, ctx.epoch), 0);
            lab
        },
        drop,
    );

    let measured = measure(ctx, |tracer, op| rep(&lab, ctx, tracer, op));

    // Oracles, outside the timed loop.
    let all: Vec<&Rep> = measured.plain.iter().chain(&measured.traced).collect();
    let first_hash = all[0].csv_hash;
    for (i, r) in all.iter().enumerate() {
        // Two figure calls and one artifact write per repetition.
        out.attempted += 2;
        out.check(r.artifacts_ok, || {
            format!("repetition {i}: write_artifacts failed")
        });
        out.check(r.csv_hash == first_hash, || {
            format!("repetition {i}: CSV bytes differ from the first repetition's")
        });
    }
    let (targets, pool, defense) = own_sweep(&lab, paper, ctx.seed);
    // A localizing defense, under which auto dispatch replays deltas: the
    // workload's own when it has one, else top-cohort ROV + stub filtering.
    let delta_defense = if defense.localizes() {
        defense.clone()
    } else {
        probes::top_cohort(&lab)
            .defense(lab.topology())
            .with_stub_defense()
    };
    let sample: Vec<AsIndex> = Rng::new(ctx.seed ^ 0x6f72_6163)
        .sample(&pool, ORACLE_ROWS + 1)
        .into_iter()
        .filter(|&a| a != targets[0])
        .take(ORACLE_ROWS)
        .collect();
    let auto = lab.simulator();
    let generation =
        Simulator::new(lab.topology(), lab.config().policy).with_engine(EngineChoice::Generation);
    // Delta replay must equal the generation engine row for row.
    let replayed = auto.sweep_attackers(targets[0], &sample, &delta_defense);
    let want = generation.sweep_attackers(targets[0], &sample, &delta_defense);
    for (i, (&a, &g)) in replayed.iter().zip(&want).enumerate() {
        out.check(a == g, || {
            format!(
                "attacker {:?}: delta replay polluted {a}, generation engine {g}",
                sample[i]
            )
        });
    }
    // The race solver does not: on about one undefended attack in 200 the
    // two settle one or two ASes apart (README, "Known divergence"). That
    // is a defect of the product, not of a run, so the undefended rows
    // are compared exactly and the mismatches reported, not failed.
    if !defense.localizes() {
        let raced = auto.sweep_attackers(targets[0], &sample, &defense);
        let want = generation.sweep_attackers(targets[0], &sample, &defense);
        let differ = raced.iter().zip(&want).filter(|(a, g)| a != g).count();
        out.notes.push(format!(
            "engine oracle: {differ} of {} undefended sample rows differ between the race solver \
             and the generation engine (reported, not failed)",
            raced.len()
        ));
    }

    let walls = |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.wall).collect() };
    if ctx.trace {
        trace_metrics(
            &mut out,
            &walls(&measured.plain),
            &walls(&measured.traced),
            measured.tracer.spans().len(),
        );
        probes::run(
            ctx,
            &probes::Inputs {
                lab: &lab,
                targets,
                pool,
                sweep_defense: defense,
                delta_defense,
            },
            &mut out,
        );
        out.tracer = Some(measured.tracer);
    } else {
        let reps = &measured.plain;
        let sweep_rate: Vec<f64> = reps
            .iter()
            .map(|r| r.sweep_attacks as f64 / r.sweep_wall)
            .collect();
        out.put_median("setup_s", &setups);
        out.put_quiet("wall_s", &walls(reps));
        out.put_median("sweep_attacks_per_s", &sweep_rate);
        out.put_quiet("work_per_s", &sweep_rate);
        if paper {
            let detect_rate: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.detect)
                .map(|(wall, attacks)| attacks as f64 / wall)
                .collect();
            out.put_median("detect_attacks_per_s", &detect_rate);
        }
        let op_us: Vec<f64> = reps.iter().map(|r| r.op_wall * 1e6).collect();
        out.put_quiet("op_p50_us", &op_us);
        out.put("peak_rss_mb", measured.peak_rss_mb, 1);
    }
    out
}
