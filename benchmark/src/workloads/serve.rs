//! `serve_whatif`: the engines one request at a time, over HTTP.
//!
//! An in-process `bgpsim_server::spawn` at standard scale answers a
//! closed loop on one keep-alive `fanout::client::Client` connection: the
//! client waits while the server works, so one thread is busy at a time.
//! One cycle runs four phases in order:
//!
//! * **warm** — singles on one (target, top-cohort ROV + stub defense),
//!   so after the first request every baseline lookup is a cache hit;
//! * **cold** — singles rotating over 32 targets against a 4-entry
//!   cache, so every lookup is a miss and pays a `Baseline::build`;
//! * **batch** — 64-attack undefended `:batch` envelopes;
//! * **contended** — one defended `POST /v1/sweeps` over the server's
//!   strided transit pool while the connection keeps sending warm singles
//!   (and polling the job) until the job is `done`. The one phase with two
//!   busy threads (the sweep worker and an HTTP worker): it reports its
//!   own metrics and stays out of the cycle's gated wall.
//!
//! The load generator keeps raw bodies and pulls fields out by substring
//! scan; nothing is parsed until timing has stopped.

use std::time::{Duration, Instant};

use bgpsim::fanout::client::Client;
use bgpsim::hijack::{Attack, Defense};
use bgpsim::manifest::Json;
use bgpsim::topology::AsIndex;
use bgpsim::{ExperimentConfig, Lab};
use bgpsim_server::{spawn, ServerConfig, ServerHandle};

use crate::harness::{measure, set_up, trace_metrics, Ctx, Outcome};
use crate::probes;
use crate::stats::{median, percentile, tail, Rng};
use crate::table::TOPOLOGY_SEED;
use crate::trace::Tracer;

const WARM_PER_CYCLE: usize = 40;
const SWEEP_POOL_STRIDE: usize = 32;
/// Every cold single asks for another target; a target comes back after
/// all the others, long after a 4-entry cache evicted it.
const COLD_PER_CYCLE: usize = 16;
const CACHE_CAPACITY: usize = 4;
const BATCH_SIZE: usize = 64;
/// One connection, so one HTTP worker serves it; the second is spare.
const HTTP_WORKERS: usize = 2;
/// One stored response per this many singles feeds the answer oracle.
const SAMPLE_EVERY: usize = 20;
/// The contended phase polls the job this often between singles.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// Warm-up: this many warm singles, then one batch.
const WARMUP_SINGLES: usize = 20;

/// One single-attack request, pre-rendered.
struct Single {
    attacker: AsIndex,
    target: AsIndex,
    body: String,
}

/// Batch envelopes rendered per run; cycle `k` sends number `k` modulo this.
const BATCHES: usize = 64;

/// Everything the cycles send, rendered before timing starts. Every cycle
/// takes the next slice of each list, so a run's numbers average over many
/// draws of the seed and not over one.
struct Schedule {
    /// One warm single per pool AS, in seeded order.
    warm: Vec<Single>,
    /// One cold single per pool AS as the target, in seeded order: a
    /// target comes back only after every other one.
    cold: Vec<Single>,
    batches: Vec<String>,
    sweep_body: String,
    /// The warm target's defense, for the answer oracle and the probes.
    defense: Defense,
    warm_target: AsIndex,
    cold_targets: Vec<AsIndex>,
    /// Where single and batch attackers are drawn from.
    pool: Vec<AsIndex>,
    /// The server's `"transit"` pool: what the sweep job sweeps.
    sweep_pool: Vec<AsIndex>,
}

struct Env {
    server: ServerHandle,
    lab: Lab,
    addr: String,
    schedule: Schedule,
    boot_ms: f64,
}

/// One timed request as the load generator keeps it.
struct Sample {
    us: f64,
    ok: bool,
    /// Index into the phase's request list and the raw body, for the
    /// 1-in-[`SAMPLE_EVERY`] requests the oracle checks.
    kept: Option<(usize, String)>,
}

struct Cycle {
    /// The whole cycle.
    wall: f64,
    /// Warm, cold and batch phases: the part with one busy thread.
    quiet_wall: f64,
    warm: Vec<Sample>,
    cold: Vec<Sample>,
    contended: Vec<Sample>,
    batch_wall: f64,
    /// The batch: HTTP 200, `meta.ok`, `meta.failed`.
    batch: (bool, u64, u64),
    /// Submit to `state:"done"`; `None` when the job was refused or
    /// ended in another state.
    sweep_job_s: Option<f64>,
}

fn experiment() -> ExperimentConfig {
    let mut config = ExperimentConfig::standard();
    config.seed = TOPOLOGY_SEED;
    // Sizes the server's "transit" sweep pool (every eighth transit AS).
    config.attacker_stride = SWEEP_POOL_STRIDE;
    config
}

fn asn(lab: &Lab, ix: AsIndex) -> u32 {
    lab.topology().id_of(ix).value()
}

fn schedule(ctx: &Ctx, lab: &Lab) -> Schedule {
    let topo = lab.topology();
    let mut rng = Rng::new(ctx.seed ^ 0x73_6572_7665);
    let strategy = probes::top_cohort(lab);
    let validators: Vec<String> = strategy
        .select(topo)
        .into_iter()
        .map(|ix| asn(lab, ix).to_string())
        .collect();
    let defense_json = format!(
        "\"defense\":{{\"validators\":[{}],\"stub_defense\":true}}",
        validators.join(",")
    );
    let defense = strategy.defense(topo).with_stub_defense();
    let warm_target = lab.cast().vulnerable_stub;
    // Singles come from transit ASes only: under stub filtering a stub
    // attacker is quenched at its first provider, and a request that
    // replays nothing would time the HTTP floor, not the engine.
    let pool: Vec<AsIndex> = topo
        .transit_ases()
        .into_iter()
        .filter(|&a| a != warm_target)
        .collect();
    let sweep_pool: Vec<AsIndex> = lab
        .strided_transit_attackers()
        .into_iter()
        .filter(|&a| a != warm_target)
        .collect();
    let single = |attacker: AsIndex, target: AsIndex| Single {
        attacker,
        target,
        body: format!(
            "{{{defense_json},\"attacker\":{},\"target\":{}}}",
            asn(lab, attacker),
            asn(lab, target)
        ),
    };
    let warm = rng
        .sample(&pool, pool.len())
        .into_iter()
        .map(|a| single(a, warm_target))
        .collect();
    let cold_targets = rng.sample(&pool, pool.len());
    let cold = cold_targets
        .iter()
        .map(|&target| {
            let attacker = loop {
                let a = pool[rng.below(pool.len())];
                if a != target {
                    break a;
                }
            };
            single(attacker, target)
        })
        .collect();
    let batches = (0..BATCHES)
        .map(|_| {
            let items: Vec<String> = rng
                .sample(&pool, BATCH_SIZE)
                .into_iter()
                .map(|a| {
                    format!(
                        "{{\"attacker\":{},\"target\":{}}}",
                        asn(lab, a),
                        asn(lab, warm_target)
                    )
                })
                .collect();
            format!("{{\"attacks\":[{}]}}", items.join(","))
        })
        .collect();
    let sweep_body = format!(
        "{{{defense_json},\"target\":{},\"attackers\":\"transit\"}}",
        asn(lab, warm_target)
    );
    Schedule {
        warm,
        cold,
        batches,
        sweep_body,
        defense,
        warm_target,
        cold_targets,
        pool,
        sweep_pool,
    }
}

/// The digits after the last `"key":` in `body`.
fn last_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let after = &body[body.rfind(&needle)? + needle.len()..];
    let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The string after the first `"key":"` in `body`.
fn first_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let after = &body[body.find(&needle)? + needle.len()..];
    after.split('"').next()
}

/// Sends `requests[i]` for every `i` in `indices`, one after another.
fn send_singles(
    client: &mut Client,
    requests: &[Single],
    indices: impl Iterator<Item = usize>,
    span: &'static str,
    tracer: &mut Tracer,
    op: u64,
) -> Vec<Sample> {
    indices
        .map(|i| {
            let id = tracer.enter(span, op);
            let t = Instant::now();
            let answer = client.request("POST", "/v1/attacks", &requests[i].body);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            tracer.exit(id);
            match answer {
                Ok((200, body)) => Sample {
                    us,
                    ok: true,
                    kept: (i % SAMPLE_EVERY == 0).then_some((i, body)),
                },
                _ => Sample {
                    us,
                    ok: false,
                    kept: None,
                },
            }
        })
        .collect()
}

fn cycle(s: &Schedule, client: &mut Client, tracer: &mut Tracer, op: u64) -> Cycle {
    let rep = tracer.enter("rep", op);
    let started = Instant::now();

    // Cycle `op` takes the `op`th slice of each list, wrapping around.
    let slice = |len: usize, per_cycle: usize| {
        (0..per_cycle).map(move |j| (op as usize * per_cycle + j) % len)
    };

    let phase = tracer.enter("phase.warm", op);
    let warm = send_singles(
        client,
        &s.warm,
        slice(s.warm.len(), WARM_PER_CYCLE),
        "server.attack.warm",
        tracer,
        op,
    );
    tracer.exit(phase);

    let phase = tracer.enter("phase.cold", op);
    let cold = send_singles(
        client,
        &s.cold,
        slice(s.cold.len(), COLD_PER_CYCLE),
        "server.attack.cold",
        tracer,
        op,
    );
    tracer.exit(phase);

    let phase = tracer.enter("phase.batch", op);
    let batch_started = Instant::now();
    let id = tracer.enter("server.attacks_batch", op);
    let envelope = &s.batches[op as usize % s.batches.len()];
    let answer = client.request("POST", "/v1/attacks:batch", envelope);
    tracer.exit(id);
    let batch = match answer {
        Ok((200, body)) => (
            true,
            last_u64(&body, "ok").unwrap_or(0),
            last_u64(&body, "failed").unwrap_or(u64::MAX),
        ),
        _ => (false, 0, BATCH_SIZE as u64),
    };
    let batch_wall = batch_started.elapsed().as_secs_f64();
    tracer.exit(phase);
    let quiet_wall = started.elapsed().as_secs_f64();

    // Contended: submit the sweep, then alternate warm singles with polls
    // until the job reports a terminal state.
    let phase = tracer.enter("phase.contended", op);
    let submitted = Instant::now();
    let id = tracer.enter("server.sweep_submit", op);
    let job = match client.request("POST", "/v1/sweeps", &s.sweep_body) {
        Ok((202, body)) => first_str(&body, "id").map(str::to_string),
        _ => None,
    };
    tracer.exit(id);
    let mut contended = Vec::new();
    let mut sweep_job_s = None;
    if let Some(job) = job {
        let poll_path = format!("/v1/jobs/{job}");
        let mut last_poll = Instant::now();
        let mut i = 0;
        loop {
            if last_poll.elapsed() >= POLL_EVERY {
                let id = tracer.enter("server.job_poll", op);
                let state = match client.request("GET", &poll_path, "") {
                    Ok((200, body)) => first_str(&body, "state").map(str::to_string),
                    _ => None,
                };
                tracer.exit(id);
                last_poll = Instant::now();
                match state.as_deref() {
                    Some("queued" | "running") => {}
                    Some("done") => {
                        sweep_job_s = Some(submitted.elapsed().as_secs_f64());
                        break;
                    }
                    _ => break,
                }
            }
            let one = i % s.warm.len()..i % s.warm.len() + 1;
            contended.extend(send_singles(
                client,
                &s.warm,
                one,
                "server.attack.contended",
                tracer,
                op,
            ));
            i += 1;
        }
    }
    tracer.exit(phase);

    let wall = started.elapsed().as_secs_f64();
    tracer.exit(rep);
    Cycle {
        wall,
        quiet_wall,
        warm,
        cold,
        contended,
        batch_wall,
        batch,
        sweep_job_s,
    }
}

fn boot() -> (ServerHandle, String, f64) {
    let started = Instant::now();
    let mut config = ServerConfig::new(experiment(), "standard");
    config.addr = "127.0.0.1:0".to_string();
    config.http_workers = HTTP_WORKERS;
    config.sweep_workers = 1;
    config.cache_capacity = CACHE_CAPACITY;
    let server = spawn(config).expect("server boots on an ephemeral port");
    let addr = server.addr().to_string();
    let healthy = Client::connect(&addr)
        .and_then(|mut c| c.request("GET", "/v1/healthz", ""))
        .is_ok_and(|(status, _)| status == 200);
    assert!(healthy, "server did not answer /v1/healthz with 200");
    let boot_ms = started.elapsed().as_secs_f64() * 1e3;
    (server, addr, boot_ms)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (env, setups) = set_up(
        || {
            let (server, addr, boot_ms) = boot();
            let lab = Lab::new(experiment());
            let schedule = schedule(ctx, &lab);
            let mut client = Client::connect(&addr).expect("connect to the in-process server");
            let mut quiet = Tracer::new(false, ctx.epoch);
            send_singles(
                &mut client,
                &schedule.warm,
                0..WARMUP_SINGLES,
                "",
                &mut quiet,
                0,
            );
            let _ = client.request("POST", "/v1/attacks:batch", &schedule.batches[0]);
            Env {
                server,
                lab,
                addr,
                schedule,
                boot_ms,
            }
        },
        |env| {
            env.server
                .stop()
                .expect("a set-up's server shuts down cleanly");
        },
    );
    let s = &env.schedule;
    let mut client = Client::connect(&env.addr).expect("connect to the in-process server");

    let measured = measure(ctx, |tracer, op| cycle(s, &mut client, tracer, op));

    let server_side = ctx.trace.then(|| server_layer_probes(&env, &mut client));
    drop(client);
    let Env {
        server,
        lab,
        schedule,
        boot_ms,
        ..
    } = env;
    out.check(server.stop().is_ok(), || {
        "server did not shut down cleanly".to_string()
    });
    let s = &schedule;

    // Oracles: only now are stored bodies parsed.
    let sim = lab.simulator();
    let all: Vec<&Cycle> = measured.plain.iter().chain(&measured.traced).collect();
    for (c, cycle) in all.iter().enumerate() {
        for (phase, samples, requests) in [
            ("warm", &cycle.warm, &s.warm),
            ("cold", &cycle.cold, &s.cold),
            ("contended", &cycle.contended, &s.warm),
        ] {
            for sample in samples {
                out.check(sample.ok, || {
                    format!("cycle {c}: a {phase} single was not a 200")
                });
                let Some((i, body)) = &sample.kept else {
                    continue;
                };
                if phase == "cold" {
                    // The phase is only cold if the rotation really
                    // outran the cache.
                    out.check(first_str(body, "cache") == Some("miss"), || {
                        format!("cycle {c} cold request {i}: baseline lookup was not a miss")
                    });
                }
                let request = &requests[*i];
                let want = sim
                    .run(Attack::origin(request.attacker, request.target), &s.defense)
                    .pollution_count() as f64;
                let got =
                    Json::parse(body).ok().and_then(|json| {
                        match bgpsim::fanout::client::get(&json, "result")
                            .and_then(|r| bgpsim::fanout::client::get(r, "pollution_count"))
                        {
                            Some(Json::Num(n)) => Some(*n),
                            _ => None,
                        }
                    });
                out.check(got == Some(want), || {
                    format!(
                        "cycle {c} {phase} request {i}: server said pollution_count {got:?}, \
                         Simulator::run says {want}"
                    )
                });
            }
        }
        let (ok, items_ok, items_failed) = cycle.batch;
        out.check(
            ok && items_failed == 0 && items_ok == BATCH_SIZE as u64,
            || {
                format!(
                    "cycle {c}: batch status ok={ok}, meta.ok={items_ok}, meta.failed={items_failed}"
                )
            },
        );
        out.check(cycle.sweep_job_s.is_some(), || {
            format!("cycle {c}: the sweep job was refused or did not reach state done")
        });
    }

    let walls = |cycles: &[Cycle]| -> Vec<f64> { cycles.iter().map(|c| c.wall).collect() };
    let latencies = |cycles: &[Cycle], pick: fn(&Cycle) -> &Vec<Sample>| -> Vec<f64> {
        cycles
            .iter()
            .flat_map(|c| pick(c).iter().filter(|s| s.ok).map(|s| s.us))
            .collect()
    };
    let batch_rate = |cycles: &[Cycle]| -> Vec<f64> {
        cycles
            .iter()
            .map(|c| c.batch.1 as f64 / c.batch_wall)
            .collect()
    };
    if ctx.trace {
        // The contended phase lasts as long as the job does, so how many
        // singles and polls it fits is not a count that repeats.
        let countable = measured
            .tracer
            .spans()
            .iter()
            .filter(|s| !matches!(s.name, "server.attack.contended" | "server.job_poll"))
            .count();
        trace_metrics(
            &mut out,
            &walls(&measured.plain),
            &walls(&measured.traced),
            countable,
        );
        let plain = &measured.plain;
        let side = server_side.expect("traced runs probe the server");
        out.put("server.boot_ms", boot_ms, 1);
        out.put("server.http_floor_us", side.healthz_us, side.floor_samples);
        out.put(
            "server.metrics_scrape_us",
            side.scrape_us,
            side.floor_samples,
        );
        out.put("server.cache_hit_ratio", side.hit_ratio, 1);
        out.put("server.cache_coalesced", side.coalesced, 1);
        let jobs = all.iter().filter(|c| c.sweep_job_s.is_some()).count() as f64;
        out.put("server.job_chunks", side.chunks / jobs, jobs as usize);
        // Server-side evaluation against client-side latency, on the
        // stored warm responses.
        let mut eval = Vec::new();
        let mut overhead = Vec::new();
        let mut kb = Vec::new();
        for cycle in plain {
            for sample in &cycle.warm {
                if let Some((_, body)) = &sample.kept {
                    if let Some(wall_us) = last_u64(body, "wall_us") {
                        eval.push(wall_us as f64);
                        overhead.push(sample.us - wall_us as f64);
                    }
                    kb.push(body.len() as f64 / 1024.0);
                }
            }
        }
        out.put("server.eval_us_p50", percentile(&eval, 50.0), eval.len());
        out.put(
            "server.overhead_us_p50",
            percentile(&overhead, 50.0),
            overhead.len(),
        );
        out.put(
            "server.response_kb_mean",
            kb.iter().sum::<f64>() / kb.len() as f64,
            kb.len(),
        );
        out.put(
            "server.batch_amortization_x",
            median(&batch_rate(plain)) / side.undefended_singles_per_s,
            plain.len(),
        );
        // The same sweep through Simulator on one thread, against the
        // job's wall with nobody else asking.
        let local_s = {
            let t = Instant::now();
            let rows = sim.sweep_attackers(s.warm_target, &s.sweep_pool, &s.defense);
            std::hint::black_box(rows);
            t.elapsed().as_secs_f64()
        };
        out.put(
            "server.job_overhead_pct",
            100.0 * (side.quiet_job_s / local_s - 1.0),
            1,
        );
        let mut targets = vec![s.warm_target];
        targets.extend(s.cold_targets.iter().take(probes::MAX_TARGETS));
        probes::run(
            ctx,
            &probes::Inputs {
                lab: &lab,
                targets,
                pool: s.pool.clone(),
                sweep_defense: s.defense.clone(),
                delta_defense: s.defense.clone(),
            },
            &mut out,
        );
        out.tracer = Some(measured.tracer);
    } else {
        let cycles = &measured.plain;
        let warm = latencies(cycles, |c| &c.warm);
        let cold = latencies(cycles, |c| &c.cold);
        let contended = latencies(cycles, |c| &c.contended);
        let jobs: Vec<f64> = cycles.iter().filter_map(|c| c.sweep_job_s).collect();
        // The gated three leave the contended phase out and take each
        // cycle's own numbers, for the quiet quartile.
        let quiet_walls: Vec<f64> = cycles.iter().map(|c| c.quiet_wall).collect();
        let cycle_warm_p50: Vec<f64> = cycles
            .iter()
            .map(|c| {
                let us: Vec<f64> = c.warm.iter().filter(|s| s.ok).map(|s| s.us).collect();
                percentile(&us, 50.0)
            })
            .collect();
        out.put_median("setup_s", &setups);
        out.put_quiet("wall_s", &quiet_walls);
        out.put("warm_p50_us", percentile(&warm, 50.0), warm.len());
        out.put_quiet("op_p50_us", &cycle_warm_p50);
        let (p95, p) = tail(&warm, 95);
        out.put_noted("warm_p95_us", p95, warm.len(), format!("p{p}"));
        out.put("cold_p50_us", percentile(&cold, 50.0), cold.len());
        out.put_median("batch_attacks_per_s", &batch_rate(cycles));
        out.put_quiet("work_per_s", &batch_rate(cycles));
        let (p95, p) = tail(&contended, 95);
        out.put_noted("contended_p95_us", p95, contended.len(), format!("p{p}"));
        out.put_median("sweep_job_s", &jobs);
        out.put("peak_rss_mb", measured.peak_rss_mb, 1);
    }
    out
}

/// What only the live server can tell: its floor latencies, its
/// counters, and an uncontended job.
struct ServerSide {
    healthz_us: f64,
    scrape_us: f64,
    floor_samples: usize,
    hit_ratio: f64,
    coalesced: f64,
    chunks: f64,
    undefended_singles_per_s: f64,
    quiet_job_s: f64,
}

fn server_layer_probes(env: &Env, client: &mut Client) -> ServerSide {
    const FLOOR_SAMPLES: usize = 200;
    const UNDEFENDED_SINGLES: usize = 64;
    let s = &env.schedule;
    // Counters first, before the probes below add lookups and chunks.
    let metrics = client
        .request("GET", "/v1/metrics", "")
        .map(|(_, body)| body)
        .unwrap_or_default();
    let counter = |prefix: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let lookups = |outcome: &str| {
        counter(&format!(
            "bgpsim_baseline_cache_lookups_total{{outcome=\"{outcome}\"}}"
        ))
    };
    let (hit, miss, coalesced) = (lookups("hit"), lookups("miss"), lookups("coalesced"));
    let chunks = counter("bgpsim_jobs_chunks_total ");

    let time_gets = |client: &mut Client, path: &str| -> f64 {
        let us: Vec<f64> = (0..FLOOR_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                let _ = client.request("GET", path, "");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        percentile(&us, 50.0)
    };
    let healthz_us = time_gets(client, "/v1/healthz");
    let scrape_us = time_gets(client, "/v1/metrics");

    // Sequential undefended singles: what the batch envelope amortizes.
    let started = Instant::now();
    for request in s.warm.iter().take(UNDEFENDED_SINGLES) {
        let body = format!(
            "{{\"attacker\":{},\"target\":{}}}",
            asn(&env.lab, request.attacker),
            asn(&env.lab, request.target)
        );
        let _ = client.request("POST", "/v1/attacks", &body);
    }
    let undefended_singles_per_s = UNDEFENDED_SINGLES as f64 / started.elapsed().as_secs_f64();

    // One sweep job with the server otherwise idle.
    let started = Instant::now();
    let job = match client.request("POST", "/v1/sweeps", &s.sweep_body) {
        Ok((202, body)) => first_str(&body, "id").map(str::to_string),
        _ => None,
    };
    let mut quiet_job_s = f64::NAN;
    if let Some(job) = job {
        let path = format!("/v1/jobs/{job}");
        loop {
            let state = match client.request("GET", &path, "") {
                Ok((200, body)) => first_str(&body, "state").map(str::to_string),
                _ => None,
            };
            match state.as_deref() {
                Some("queued" | "running") => std::thread::sleep(Duration::from_millis(1)),
                _ => break,
            }
        }
        quiet_job_s = started.elapsed().as_secs_f64();
    }
    ServerSide {
        healthz_us,
        scrape_us,
        floor_samples: FLOOR_SAMPLES,
        hit_ratio: hit / (hit + miss + coalesced).max(1.0),
        coalesced,
        chunks,
        undefended_singles_per_s,
        quiet_job_s,
    }
}
