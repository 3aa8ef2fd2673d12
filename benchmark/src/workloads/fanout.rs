//! `fanout_fleet`: the cost side of the fan-out tier on one host.
//!
//! One in-process `bgpsim-server` worker (rayon threads 1) behind one
//! `Coordinator`. A repetition fans the deep-stub target's sweep out over
//! the fleet twice — undefended, then under top-cohort ROV — so shard
//! planning, HTTP dispatch, job polling and the merge are all on the
//! clock, and the merged rows are checked against a local sweep.
//!
//! One worker, not the issue's two: two workers evaluate shards at once,
//! and two busy threads on a shared two-vCPU host measure where the host
//! put the vCPUs, not the fleet (README, "One busy thread"). The
//! coordinator deals, polls and merges the same way; its shards just come
//! back one after another.

use std::time::Instant;

use bgpsim::fanout::{Coordinator, FanoutConfig, Handshake, NoopObserver, ShardPlan, SweepRequest};
use bgpsim::hijack::Defense;
use bgpsim::manifest::SCHEMA_VERSION;
use bgpsim::topology::AsIndex;
use bgpsim::{ExperimentConfig, Lab};
use bgpsim_server::{spawn, ServerConfig, ServerHandle};

use crate::harness::{measure, median_ms, set_up, trace_metrics, Ctx, Outcome};
use crate::probes;
use crate::stats::median;
use crate::table::TOPOLOGY_SEED;
use crate::trace::Tracer;

const WORKERS: usize = 1;
/// Every 72nd AS attacks: 139 attackers per sweep, 2 shards of 69 or 70
/// (above the 64-attacker cut, so each shard is a polled job).
const POOL_STRIDE: usize = 72;

struct Env {
    workers: Vec<ServerHandle>,
    coordinator: Coordinator,
    lab: Lab,
    connect_ms: f64,
    shards_per_sweep: usize,
    target: AsIndex,
    pool: Vec<AsIndex>,
    undefended: SweepRequest,
    rov: SweepRequest,
    rov_defense: Defense,
}

struct Rep {
    wall: f64,
    rov_wall: f64,
    /// Merged rows of the undefended and the ROV sweep (`None`: the
    /// fleet returned an error).
    rows: [Option<Vec<u32>>; 2],
}

fn experiment() -> ExperimentConfig {
    let mut config = ExperimentConfig::standard();
    config.seed = TOPOLOGY_SEED;
    config
}

fn build(ctx: &Ctx) -> Env {
    let workers: Vec<ServerHandle> = (0..WORKERS)
        .map(|_| {
            let mut config = ServerConfig::new(experiment(), "standard");
            config.addr = "127.0.0.1:0".to_string();
            // One HTTP worker per coordinator connection, plus one for
            // the connection a retry would open.
            config.http_workers = 2;
            // The coordinator keeps one shard in flight per worker.
            config.sweep_workers = 1;
            spawn(config).expect("worker boots on an ephemeral port")
        })
        .collect();
    let lab = Lab::new(experiment());
    let topo = lab.topology();
    let fleet = FanoutConfig::new(workers.iter().map(|w| w.addr().to_string()).collect());
    let shards_per_sweep = WORKERS * fleet.shards_per_worker;
    let (connect_ms, coordinator) = median_ms(1, || {
        Coordinator::connect(
            fleet.clone(),
            &Handshake {
                schema_version: SCHEMA_VERSION,
                scale: "standard".to_string(),
                seed: TOPOLOGY_SEED,
                num_ases: topo.num_ases() as u64,
            },
        )
    });
    assert_eq!(
        coordinator.live_workers(),
        WORKERS,
        "handshake rejected a worker: {:?}",
        coordinator.rejected()
    );
    let target = lab.cast().vulnerable_stub;
    // `--seed` picks which residue class of ASes attacks.
    let pool: Vec<AsIndex> = topo
        .indices()
        .skip(ctx.seed as usize % POOL_STRIDE)
        .step_by(POOL_STRIDE)
        .filter(|&a| a != target)
        .collect();
    let asn = |ix: AsIndex| topo.id_of(ix).value();
    let strategy = probes::top_cohort(&lab);
    let undefended = SweepRequest {
        target_asn: asn(target),
        pool_asns: pool.iter().map(|&a| asn(a)).collect(),
        validator_asns: Vec::new(),
        stub_defense: false,
    };
    let rov = SweepRequest {
        validator_asns: strategy.select(topo).into_iter().map(asn).collect(),
        ..undefended.clone()
    };
    let rov_defense = strategy.defense(topo);
    Env {
        workers,
        coordinator,
        lab,
        connect_ms,
        shards_per_sweep,
        target,
        pool,
        undefended,
        rov,
        rov_defense,
    }
}

fn rep(env: &Env, tracer: &mut Tracer, op: u64) -> Rep {
    let rep = tracer.enter("rep", op);
    let started = Instant::now();
    let plain = tracer.span("fanout.run_sweep.undefended", op, |_| {
        env.coordinator.run_sweep(&env.undefended, &NoopObserver)
    });
    let rov_started = Instant::now();
    let rov = tracer.span("fanout.run_sweep.rov", op, |_| {
        env.coordinator.run_sweep(&env.rov, &NoopObserver)
    });
    let rov_wall = rov_started.elapsed().as_secs_f64();
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(rep);
    Rep {
        wall,
        rov_wall,
        rows: [plain.ok(), rov.ok()],
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (env, setups) = set_up(
        || {
            let env = build(ctx);
            rep(&env, &mut Tracer::new(false, ctx.epoch), 0);
            env
        },
        |env| {
            // The coordinator's keep-alive connections close first.
            drop(env.coordinator);
            for worker in env.workers {
                worker.stop().expect("a set-up's worker shuts down cleanly");
            }
        },
    );

    let measured = measure(ctx, |tracer, op| rep(&env, tracer, op));
    let stats = env.coordinator.stats();
    let Env {
        workers,
        coordinator,
        lab,
        connect_ms,
        shards_per_sweep,
        target,
        pool,
        rov_defense,
        ..
    } = env;
    drop(coordinator);
    for worker in workers {
        out.check(worker.stop().is_ok(), || {
            "a worker did not shut down cleanly".to_string()
        });
    }

    // Oracle: the merged rows are the local sweep's rows.
    let sim = lab.simulator();
    let local = [
        sim.sweep_attackers(target, &pool, &Defense::none()),
        sim.sweep_attackers(target, &pool, &rov_defense),
    ];
    let all: Vec<&Rep> = measured.plain.iter().chain(&measured.traced).collect();
    for (i, r) in all.iter().enumerate() {
        for (which, (rows, want)) in r.rows.iter().zip(&local).enumerate() {
            let name = ["undefended", "ROV"][which];
            out.check(rows.is_some(), || {
                format!("repetition {i}: the {name} fleet sweep failed")
            });
            out.check(rows.as_ref().is_none_or(|rows| rows == want), || {
                format!("repetition {i}: merged {name} rows differ from the local sweep's")
            });
        }
    }
    out.check(
        stats.shards_retried == 0 && stats.shards_hedged == 0,
        || {
            format!(
                "fleet retried {} and hedged {} shards on a healthy host",
                stats.shards_retried, stats.shards_hedged
            )
        },
    );

    let walls = |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.wall).collect() };
    let attacks = 2.0 * pool.len() as f64;
    if ctx.trace {
        trace_metrics(
            &mut out,
            &walls(&measured.plain),
            &walls(&measured.traced),
            measured.tracer.spans().len(),
        );
        // Set-up ran SETUP_REPS coordinators; `stats` is the last one's,
        // which served one warm-up repetition and every measured one.
        let reps = (all.len() + 1) as f64;
        out.put("fanout.connect_ms", connect_ms, 1);
        out.put("fanout.shards_total", stats.shards_total as f64 / reps, 1);
        out.put("fanout.shards_retried", stats.shards_retried as f64, 1);
        out.put("fanout.shards_hedged", stats.shards_hedged as f64, 1);
        let busy: Vec<f64> = stats
            .workers
            .iter()
            .map(|w| w.wall_us_sum as f64 / 1e3)
            .collect();
        let completed: u64 = stats.workers.iter().map(|w| w.shards_completed).sum();
        let busy_sum: f64 = busy.iter().sum();
        out.put(
            "fanout.shard_rtt_ms_mean",
            busy_sum / completed.max(1) as f64,
            completed as usize,
        );
        let mean = busy_sum / busy.len() as f64;
        let spread = busy.iter().copied().fold(f64::MIN, f64::max)
            - busy.iter().copied().fold(f64::MAX, f64::min);
        out.put(
            "fanout.worker_imbalance_pct",
            100.0 * spread / mean,
            busy.len(),
        );
        // The fleet against the same two sweeps run locally on as many
        // threads as the fleet has workers: one.
        let (local_ms, _) = median_ms(3, || {
            (
                sim.sweep_attackers(target, &pool, &Defense::none()),
                sim.sweep_attackers(target, &pool, &rov_defense),
            )
        });
        out.put(
            "fanout.overhead_pct",
            100.0 * (median(&walls(&measured.plain)) * 1e3 / local_ms - 1.0),
            measured.plain.len(),
        );
        let plan = ShardPlan::new(pool.len(), shards_per_sweep);
        let shards: Vec<Vec<u32>> = (0..plan.num_shards)
            .map(|k| plan.members(&local[0], k))
            .collect();
        let (merge_ms, merged) = median_ms(5, || plan.merge(&shards));
        out.check(merged.as_ref() == Ok(&local[0]), || {
            "ShardPlan::merge did not invert ShardPlan::members".to_string()
        });
        out.put("fanout.merge_us", merge_ms * 1e3, 5);
        probes::run(
            ctx,
            &probes::Inputs {
                lab: &lab,
                targets: vec![target],
                pool,
                sweep_defense: rov_defense.clone(),
                delta_defense: rov_defense,
            },
            &mut out,
        );
        out.tracer = Some(measured.tracer);
    } else {
        let reps = &measured.plain;
        let rate: Vec<f64> = reps.iter().map(|r| attacks / r.wall).collect();
        let op_us: Vec<f64> = reps.iter().map(|r| r.rov_wall * 1e6).collect();
        out.put_median("setup_s", &setups);
        out.put_quiet("wall_s", &walls(reps));
        out.put_median("sweep_attacks_per_s", &rate);
        out.put_quiet("work_per_s", &rate);
        out.put_quiet("op_p50_us", &op_us);
        out.put("peak_rss_mb", measured.peak_rss_mb, 1);
    }
    out
}
