//! `bgpsim` — command-line front end for the experiment suite.
//!
//! Runs any subset of the paper's figures at a chosen scale and writes
//! the artifacts plus a machine-readable `run_manifest.json` (full
//! configuration, per-figure wall time and telemetry counters, crate
//! version).
//!
//! ```text
//! bgpsim run --all --scale quick --out out
//! bgpsim run fig2 fig4 --seed 7 --stride 4 --jobs 2
//! bgpsim run fig2 --engine generation   # ablation: no race solver
//! bgpsim list
//! ```

use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bgpsim::detection::ProbeSet;
use bgpsim::experiments;
use bgpsim::fanout::{
    Coordinator, FanoutConfig, FanoutStats, Handshake, NoopObserver, SweepRequest,
};
use bgpsim::hijack::{EngineChoice, SweepMonitor, SweepProgress, SweepTelemetry};
use bgpsim::manifest::{
    FanoutManifest, FanoutWorkerRecord, FigureRecord, Json, RunManifest, SCHEMA_VERSION,
};
use bgpsim::stream::{run_stream, DetectorMode, StreamConfig, StreamOutcome, StreamPlan};
use bgpsim::viz::ProgressLine;
use bgpsim::{ExperimentConfig, Lab};
use bgpsim_server::ServerConfig;

/// Canonical run order; `--all` and `list` both use it.
const FIGURES: &[(&str, &str)] = &[
    ("fig1", "polar propagation snapshots of one attack"),
    ("fig2", "vulnerability by depth under the tier-1 hierarchy"),
    ("fig3", "vulnerability under large tier-2 providers"),
    ("fig4", "with/without defensive stub filters"),
    ("fig5", "incremental filter deployment, resistant target"),
    ("fig6", "incremental filter deployment, vulnerable target"),
    ("fig7", "detector configurations vs random attacks"),
    ("sec7", "regional self-interest validation"),
    ("model", "simulation substrate characteristics table"),
];

const USAGE: &str = "\
bgpsim — reproduce the ICDCS 2014 BGP origin-hijack study

USAGE:
    bgpsim run [FIGURE...] [OPTIONS]   run figures and write artifacts
    bgpsim stream [OPTIONS]            live update stream with incremental detection
    bgpsim serve [OPTIONS]             expose the lab as an HTTP service
    bgpsim fanout [OPTIONS]            shard the fig2 sweep across a worker fleet
    bgpsim list                        list figure ids
    bgpsim --help | --version

RUN OPTIONS:
    --all             run every figure (fig1..fig7, sec7, model)
    --scale NAME      scale preset: quick | standard | paper [standard]
                      quick ≈ 2,000 ASes (seconds per figure); standard
                      ≈ 10,000 ASes (the ~1-minute default); paper =
                      42,697 ASes, the study's measured topology size —
                      figs 2–4 take ~10 min each on one core in under
                      50 MB of RAM (see the README scale-tier table)
    --engine NAME     force the routing engine: auto | generation | delta |
                      race [auto]
    --seed N          override the master seed
    --stride N        override the attacker stride
    --jobs N          worker threads (0 = all cores) [0]
    --out DIR         output directory [out]
    --no-progress     suppress the stderr progress line

Artifacts land in DIR together with run_manifest.json (see DESIGN.md
for the schema). Per-figure wall times are in the manifest; no separate
bench-record file is written to DIR any more (benchmark/run.sh measures).

Run `bgpsim stream --help` for the stream options, `bgpsim serve --help`
for the service options, and `bgpsim fanout --help` for fleet sweeps.";

const STREAM_USAGE: &str = "\
bgpsim stream — ARTEMIS-style live update stream with incremental detection

Generates a seeded interleave of benign churn (defense flips, target
re-announcements) and ground-truth hijack injections, then detects
incrementally: one cached baseline per tracked target, delta-cone replay
per event. Writes stream_manifest.json (summary, throughput and windowed
series aggregates); no separate bench-record file is written any more.

USAGE:
    bgpsim stream [OPTIONS]

OPTIONS:
    --scale NAME      scale preset: quick | standard | paper [quick]
    --engine NAME     force the routing engine (see `bgpsim --help`) [auto]
    --seed N          override the master seed
    --events N        events to stream [2000]
    --targets N       tracked targets [4]
    --oracle          also run the from-scratch batch oracle and verify
                      the incremental run is bit-identical (slow)
    --jobs N          worker threads (0 = all cores) [0]
    --out DIR         output directory [out]

See DESIGN.md §15 for the event model and store layout.";

const SERVE_USAGE: &str = "\
bgpsim serve — expose one generated internet as an HTTP/1.1 JSON service

USAGE:
    bgpsim serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT  bind address [127.0.0.1:8080]; port 0 picks a free port
    --scale NAME      scale preset: quick | standard | paper [standard]
    --engine NAME     force the routing engine (see `bgpsim --help`) [auto]
    --seed N          override the master seed
    --jobs N          rayon worker threads for sweeps (0 = all cores) [0]
    --http-workers N  HTTP worker threads [4]
    --sweep-workers N sweep executor threads (fair-share chunk scheduling) [2]
    --cache N         baselines kept in the LRU cache [32]
    --cache-bytes N   byte budget across cached baselines; LRU eviction
                      keeps the sum under N (0 = entry bound only) [0]
    --queue N         unfinished sweep jobs admitted before 429 [16]
    --state-dir DIR   persist finished jobs; results survive a restart [off]
    --fanout-workers URL[,URL...]
                      deal sweep jobs to this fleet of bgpsim-server
                      workers instead of the local rayon pool; workers
                      must pass the compatibility handshake (schema
                      version, scale, seed, topology size) and the
                      server degrades to local execution with a warning
                      when none do [off]

ENDPOINTS:
    POST   /v1/attacks        run one attack       {\"attacker\":ASN,\"target\":ASN,...}
    POST   /v1/attacks:batch  run many attacks     {\"attacks\":[{...},...]}
    POST   /v1/sweeps     submit an async sweep    {\"target\":ASN,\"defense\":{...}}
                          honors an Idempotency-Key header (or body
                          \"idempotency_key\"): duplicates answer 200
                          with the original job id
    POST   /v1/stream     submit an update stream  {\"events\":N,\"seed\":N,\"targets\":N}
                          (same idempotency contract as /v1/sweeps)
    GET    /v1/stream/:id/range  live series slice  ?series=&from=&to=&agg=window&window=N
    GET    /v1/jobs       list retained jobs (newest first, capped at 100)
    GET    /v1/jobs/:id   job progress             DELETE cancels
    GET    /v1/results/:id  finished sweep rows / stream summary
    GET    /v1/healthz    liveness + lab facts (scale, cast ASNs)
    GET    /v1/metrics    Prometheus text exposition
    POST   /v1/shutdown   graceful drain and exit

There is no signal handling (std-only build): stop the server with
POST /v1/shutdown. See DESIGN.md §13 and the README quickstart.";

const FANOUT_USAGE: &str = "\
bgpsim fanout — shard the fig2 sweep across a fleet of bgpsim-server workers

Partitions each target's attacker pool into deterministic stride shards,
deals them to the workers over /v1/attacks:batch and /v1/sweeps, and
merges the per-shard rows positionally. The merged figure is
byte-identical to a single-node `bgpsim run fig2` at the same scale and
seed — CI pins that, including with a worker killed mid-sweep (failed
shards are retried on survivors; stragglers are hedged).

Workers must be bgpsim-server instances booted at the SAME scale and
seed (e.g. `bgpsim serve --scale quick --addr 127.0.0.1:8091`); the
registration handshake rejects mismatches. With zero usable workers the
sweep falls back to local in-process execution with a warning.

USAGE:
    bgpsim fanout --workers URL[,URL...] [OPTIONS]

OPTIONS:
    --workers URL[,URL...]  worker addresses (repeatable, comma-separated)
    --scale NAME      scale preset: quick | standard | paper [quick]
    --seed N          override the master seed
    --shards N        shards per worker (more = finer retry/hedge
                      granularity) [2]
    --jobs N          local worker threads for the fallback path [0]
    --out DIR         output directory [out]

Writes fig2.svg + fig2.csv and a run_manifest.json with a `fanout`
section (per-worker dispatch counters, retries, hedges); no separate
bench-record file is written any more. See DESIGN.md §17.";

struct RunOptions {
    figures: Vec<String>,
    scale: String,
    engine: EngineChoice,
    seed: Option<u64>,
    stride: Option<usize>,
    jobs: usize,
    out: PathBuf,
    progress: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("--version") | Some("-V") => {
            // The schema version travels with the binary so operators can
            // match a run_manifest.json / API response to the tool that
            // understands it without booting a lab.
            println!(
                "bgpsim {} (manifest schema v{})",
                env!("CARGO_PKG_VERSION"),
                bgpsim::manifest::SCHEMA_VERSION
            );
            ExitCode::SUCCESS
        }
        Some("list") => {
            for (id, what) in FIGURES {
                println!("{id:<6} {what}");
            }
            ExitCode::SUCCESS
        }
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(msg) => usage_error(&msg),
        },
        Some("stream") => match parse_stream(&args[1..]) {
            Ok(Some(opts)) => stream(&opts),
            Ok(None) => {
                println!("{STREAM_USAGE}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{STREAM_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("serve") => match parse_serve(&args[1..]) {
            Ok(Some(config)) => serve(config),
            Ok(None) => {
                println!("{SERVE_USAGE}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{SERVE_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("fanout") => match parse_fanout(&args[1..]) {
            Ok(Some(opts)) => fanout(&opts),
            Ok(None) => {
                println!("{FANOUT_USAGE}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{FANOUT_USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        figures: Vec::new(),
        scale: "standard".to_string(),
        engine: EngineChoice::Auto,
        seed: None,
        stride: None,
        jobs: 0,
        out: PathBuf::from("out"),
        progress: std::io::stderr().is_terminal(),
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--all" => all = true,
            "--scale" => opts.scale = value("--scale")?,
            "--engine" => opts.engine = EngineChoice::parse(&value("--engine")?)?,
            "--seed" => {
                opts.seed = Some(parse_num(&value("--seed")?, "--seed")?);
            }
            "--stride" => {
                let n: usize = parse_num(&value("--stride")?, "--stride")?;
                if n == 0 {
                    return Err("--stride must be at least 1".to_string());
                }
                opts.stride = Some(n);
            }
            "--jobs" => opts.jobs = parse_num(&value("--jobs")?, "--jobs")?,
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--no-progress" => opts.progress = false,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            id => {
                if !FIGURES.iter().any(|(known, _)| *known == id) {
                    return Err(format!(
                        "unknown figure {id:?}: run `bgpsim list` for valid ids"
                    ));
                }
                if !opts.figures.iter().any(|f| f == id) {
                    opts.figures.push(id.to_string());
                }
            }
        }
    }
    if all {
        opts.figures = FIGURES.iter().map(|(id, _)| id.to_string()).collect();
    }
    // Validate the scale up front so a typo fails before topology
    // generation, with the same message ExperimentConfig gives.
    ExperimentConfig::preset(&opts.scale)?;
    if opts.figures.is_empty() {
        return Err("nothing to run: name figures (e.g. `bgpsim run fig2`) or pass --all".into());
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} expects a number, got {s:?}"))
}

struct StreamOptions {
    scale: String,
    engine: EngineChoice,
    seed: Option<u64>,
    events: usize,
    targets: usize,
    oracle: bool,
    jobs: usize,
    out: PathBuf,
}

/// Parses `stream` options; `Ok(None)` means `--help` was asked for.
fn parse_stream(args: &[String]) -> Result<Option<StreamOptions>, String> {
    let mut opts = StreamOptions {
        scale: "quick".to_string(),
        engine: EngineChoice::Auto,
        seed: None,
        events: StreamConfig::default().events,
        targets: StreamConfig::default().num_targets,
        oracle: false,
        jobs: 0,
        out: PathBuf::from("out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--scale" => opts.scale = value("--scale")?,
            "--engine" => opts.engine = EngineChoice::parse(&value("--engine")?)?,
            "--seed" => opts.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--events" => {
                opts.events = parse_num(&value("--events")?, "--events")?;
                if opts.events == 0 {
                    return Err("--events must be at least 1".to_string());
                }
            }
            "--targets" => {
                opts.targets = parse_num(&value("--targets")?, "--targets")?;
                if opts.targets == 0 {
                    return Err("--targets must be at least 1".to_string());
                }
            }
            "--oracle" => opts.oracle = true,
            "--jobs" => opts.jobs = parse_num(&value("--jobs")?, "--jobs")?,
            "--out" => opts.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    ExperimentConfig::preset(&opts.scale)?;
    Ok(Some(opts))
}

/// Parses `serve` options into a ready [`ServerConfig`]; `Ok(None)`
/// means `--help` was asked for.
fn parse_serve(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut scale = "standard".to_string();
    let mut engine = EngineChoice::Auto;
    let mut seed: Option<u64> = None;
    let mut jobs: usize = 0;
    let mut addr = "127.0.0.1:8080".to_string();
    let mut http_workers: usize = 4;
    let mut sweep_workers: usize = 2;
    let mut cache_capacity: usize = 32;
    let mut cache_byte_budget: u64 = 0;
    let mut max_queued_jobs: usize = 16;
    let mut state_dir: Option<PathBuf> = None;
    let mut fanout_workers: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => addr = value("--addr")?,
            "--scale" => scale = value("--scale")?,
            "--engine" => engine = EngineChoice::parse(&value("--engine")?)?,
            "--seed" => seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--jobs" => jobs = parse_num(&value("--jobs")?, "--jobs")?,
            "--http-workers" => {
                http_workers = parse_num(&value("--http-workers")?, "--http-workers")?;
                if http_workers == 0 {
                    return Err("--http-workers must be at least 1".to_string());
                }
            }
            "--sweep-workers" => {
                sweep_workers = parse_num(&value("--sweep-workers")?, "--sweep-workers")?;
                if sweep_workers == 0 {
                    return Err("--sweep-workers must be at least 1".to_string());
                }
            }
            "--cache" => cache_capacity = parse_num(&value("--cache")?, "--cache")?,
            "--cache-bytes" => {
                cache_byte_budget = parse_num(&value("--cache-bytes")?, "--cache-bytes")?;
            }
            "--queue" => max_queued_jobs = parse_num(&value("--queue")?, "--queue")?,
            "--state-dir" => state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--fanout-workers" => {
                fanout_workers.extend(parse_worker_list(&value("--fanout-workers")?)?);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let mut experiment = ExperimentConfig::preset(&scale)?;
    experiment.engine = engine;
    if let Some(seed) = seed {
        experiment.seed = seed;
    }
    if jobs > 0 {
        std::env::set_var("RAYON_NUM_THREADS", jobs.to_string());
    }
    let mut config = ServerConfig::new(experiment, scale);
    config.addr = addr;
    config.http_workers = http_workers;
    config.sweep_workers = sweep_workers;
    config.cache_capacity = cache_capacity;
    config.cache_byte_budget = (cache_byte_budget > 0).then_some(cache_byte_budget);
    config.max_queued_jobs = max_queued_jobs;
    config.state_dir = state_dir;
    config.fanout_workers = fanout_workers;
    Ok(Some(config))
}

/// Splits a comma-separated worker list, rejecting empty entries.
fn parse_worker_list(raw: &str) -> Result<Vec<String>, String> {
    let workers: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err("worker list must name at least one URL".to_string());
    }
    Ok(workers)
}

fn serve(config: ServerConfig) -> ExitCode {
    eprintln!(
        "generating {}-AS internet (scale {}, seed {})...",
        config.experiment.params.num_ases, config.scale_name, config.experiment.seed
    );
    let started = Instant::now();
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let boot = Instant::now();
    let result = bgpsim_server::serve(&config, &shutdown, |bound| {
        eprintln!(
            "topology ready in {:.1}s; listening on http://{bound}/v1 \
             (healthz, metrics, attacks, sweeps; POST /v1/shutdown to stop)",
            boot.elapsed().as_secs_f64()
        );
    });
    match result {
        Ok(()) => {
            eprintln!(
                "server drained after {:.1}s; goodbye",
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct FanoutOptions {
    workers: Vec<String>,
    scale: String,
    seed: Option<u64>,
    shards_per_worker: usize,
    jobs: usize,
    out: PathBuf,
}

/// Parses `fanout` options; `Ok(None)` means `--help` was asked for.
fn parse_fanout(args: &[String]) -> Result<Option<FanoutOptions>, String> {
    let mut opts = FanoutOptions {
        workers: Vec::new(),
        scale: "quick".to_string(),
        seed: None,
        shards_per_worker: 2,
        jobs: 0,
        out: PathBuf::from("out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--workers" => opts
                .workers
                .extend(parse_worker_list(&value("--workers")?)?),
            "--scale" => opts.scale = value("--scale")?,
            "--seed" => opts.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--shards" => {
                opts.shards_per_worker = parse_num(&value("--shards")?, "--shards")?;
                if opts.shards_per_worker == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--jobs" => opts.jobs = parse_num(&value("--jobs")?, "--jobs")?,
            "--out" => opts.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.workers.is_empty() {
        return Err("--workers must name at least one bgpsim-server URL".to_string());
    }
    ExperimentConfig::preset(&opts.scale)?;
    Ok(Some(opts))
}

/// The `fanout` subcommand: fig2 with the attacker pool dealt to a
/// worker fleet, byte-identical to the single-node figure.
fn fanout(opts: &FanoutOptions) -> ExitCode {
    if opts.jobs > 0 {
        std::env::set_var("RAYON_NUM_THREADS", opts.jobs.to_string());
    }
    let effective_jobs = rayon::current_num_threads();
    let mut config = ExperimentConfig::preset(&opts.scale).expect("validated in parse_fanout");
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    eprintln!(
        "generating {}-AS internet (scale {}, seed {})...",
        config.params.num_ases, opts.scale, config.seed
    );
    let lab = Lab::new(config);
    eprintln!("topology ready in {:.1}s", started.elapsed().as_secs_f64());

    let expect = Handshake {
        schema_version: SCHEMA_VERSION,
        scale: opts.scale.clone(),
        seed: lab.config().seed,
        num_ases: lab.topology().num_ases() as u64,
    };
    let mut fanout_config = FanoutConfig::new(opts.workers.clone());
    fanout_config.shards_per_worker = opts.shards_per_worker;
    let coordinator = Coordinator::connect(fanout_config, &expect);
    for (addr, reason) in coordinator.rejected() {
        eprintln!("worker {addr} rejected: {reason}");
    }

    let topo = lab.topology();
    let sim = lab.simulator();
    let fig_started = Instant::now();
    let result = if coordinator.live_workers() == 0 {
        eprintln!(
            "warning: none of the {} workers are reachable and compatible; \
             falling back to local in-process execution",
            opts.workers.len()
        );
        experiments::fig2_monitored(&lab, &SweepMonitor::none())
    } else {
        eprintln!(
            "fan-out: {} of {} workers registered; sweeping fig2...",
            coordinator.live_workers(),
            opts.workers.len()
        );
        experiments::fig2_with(&lab, |target, pool| {
            // Same target filter as sweep_result_monitored, so the local
            // and fanned-out figures are built from identical pools.
            let pool: Vec<_> = pool.iter().copied().filter(|&a| a != target).collect();
            let request = SweepRequest {
                target_asn: topo.id_of(target).value(),
                pool_asns: pool.iter().map(|&a| topo.id_of(a).value()).collect(),
                validator_asns: Vec::new(),
                stub_defense: false,
            };
            let counts = match coordinator.run_sweep(&request, &NoopObserver) {
                Ok(counts) => counts,
                Err(e) => {
                    eprintln!(
                        "warning: fan-out sweep for target AS{} failed ({e}); \
                         running this target locally",
                        request.target_asn
                    );
                    sim.sweep_attackers(target, &pool, &bgpsim::hijack::Defense::none())
                }
            };
            bgpsim::hijack::SweepResult::new(pool, counts)
        })
    };
    let wall_ms = fig_started.elapsed().as_secs_f64() * 1e3;
    println!("{}\n", result.summary());
    let artifacts = match result.write_artifacts(&opts.out) {
        Ok(artifacts) => artifacts,
        Err(e) => {
            eprintln!("error: [fig2] could not write artifacts: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[fig2] {wall_ms:.0} ms, wrote {}", artifacts.join(", "));

    let total_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let manifest = RunManifest {
        version: env!("CARGO_PKG_VERSION").to_string(),
        scale: opts.scale.clone(),
        seed: lab.config().seed,
        attacker_stride: lab.config().attacker_stride,
        engine: lab.config().engine.name().to_string(),
        jobs: effective_jobs,
        num_ases: lab.topology().num_ases(),
        figures: vec![FigureRecord {
            id: "fig2".to_string(),
            wall_ms,
            artifacts,
            telemetry: None,
        }],
        total_wall_ms,
        fanout: Some(fanout_manifest(&coordinator.stats())),
    };
    let manifest_path = opts.out.join("run_manifest.json");
    if let Err(e) = std::fs::write(&manifest_path, manifest.render()) {
        eprintln!("error: cannot write {}: {e}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "fanout run complete in {:.1}s: {}",
        total_wall_ms / 1e3,
        manifest_path.display()
    );
    ExitCode::SUCCESS
}

/// Converts a coordinator snapshot into the manifest `fanout` section.
fn fanout_manifest(stats: &FanoutStats) -> FanoutManifest {
    FanoutManifest {
        workers: stats
            .workers
            .iter()
            .map(|w| FanoutWorkerRecord {
                addr: w.addr.clone(),
                alive: w.alive,
                shards_dispatched: w.shards_dispatched,
                shards_completed: w.shards_completed,
                failures: w.failures,
                wall_us_sum: w.wall_us_sum,
            })
            .collect(),
        rejected: stats.rejected.clone(),
        shards_total: stats.shards_total,
        shards_done: stats.shards_done,
        shards_retried: stats.shards_retried,
        shards_hedged: stats.shards_hedged,
    }
}

fn stream(opts: &StreamOptions) -> ExitCode {
    if opts.jobs > 0 {
        std::env::set_var("RAYON_NUM_THREADS", opts.jobs.to_string());
    }
    let mut config = ExperimentConfig::preset(&opts.scale).expect("validated in parse_stream");
    config.engine = opts.engine;
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    eprintln!(
        "generating {}-AS internet (scale {}, seed {})...",
        config.params.num_ases, opts.scale, config.seed
    );
    let lab = Lab::new(config);
    eprintln!("topology ready in {:.1}s", started.elapsed().as_secs_f64());

    let topo = lab.topology();
    let sim = lab.simulator();
    // Same probe cohort as fig7 so the live stream and the batch
    // detection experiment watch the internet through the same monitors.
    let degree_threshold = ((500.0 * lab.config().scale().sqrt()).round() as usize).max(4);
    let sets = vec![
        ProbeSet::tier1(topo),
        ProbeSet::bgpmon_like(topo, 24, lab.config().seed ^ 0xb69),
        ProbeSet::degree_at_least(topo, degree_threshold),
    ];
    let stream_config = StreamConfig {
        events: opts.events,
        seed: lab.config().seed ^ 0x57e4,
        num_targets: opts.targets,
        ..StreamConfig::default()
    };
    let plan = StreamPlan::generate(topo, &stream_config);
    eprintln!(
        "streaming {} events over {} targets ({} hijacks injected)...",
        plan.events.len(),
        plan.targets.len(),
        plan.injected_hijacks()
    );
    let detect_started = Instant::now();
    let outcome = run_stream(&sim, &sets, &plan, DetectorMode::Incremental);
    let wall_ms = detect_started.elapsed().as_secs_f64() * 1e3;
    if opts.oracle {
        eprintln!("re-running with the from-scratch batch oracle...");
        let oracle = run_stream(&sim, &sets, &plan, DetectorMode::Batch);
        if oracle != outcome {
            eprintln!("error: incremental run diverged from the batch oracle");
            return ExitCode::FAILURE;
        }
        eprintln!("oracle agrees: every series and detection is bit-identical");
    }
    let summary = outcome.summary();
    let events_per_sec = summary.events as f64 / (wall_ms / 1e3).max(1e-9);
    println!(
        "stream: {} events in {:.0} ms ({:.0} events/s); {} hijacks injected, {} detected{}",
        summary.events,
        wall_ms,
        events_per_sec,
        summary.injected,
        summary.detected,
        match summary.mean_latency {
            Some(mean) => format!(" (mean latency {mean:.1} events)"),
            None => String::new(),
        }
    );

    let manifest = stream_manifest(
        opts,
        &lab,
        &stream_config,
        &outcome,
        wall_ms,
        events_per_sec,
    );
    let manifest_path = opts.out.join("stream_manifest.json");
    if let Err(e) = std::fs::write(&manifest_path, manifest.render()) {
        eprintln!("error: cannot write {}: {e}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "stream complete in {:.1}s: {}",
        started.elapsed().as_secs_f64(),
        manifest_path.display()
    );
    ExitCode::SUCCESS
}

/// `Some(x)` renders as a number, `None` as `null` — absent latencies and
/// empty aggregation windows must not masquerade as zero.
fn opt_num(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::Num)
}

/// The `stream_manifest.json` document: configuration, summary, and a
/// windowed aggregate per series (min/max/mean, `null` on empty windows).
fn stream_manifest(
    opts: &StreamOptions,
    lab: &Lab,
    config: &StreamConfig,
    outcome: &StreamOutcome,
    wall_ms: f64,
    events_per_sec: f64,
) -> Json {
    let summary = outcome.summary();
    let window = (config.events as u64 / 8).max(1);
    let last_seq = config.events as u64 - 1;
    let series: Vec<Json> = outcome
        .store
        .names()
        .iter()
        .map(|name| {
            let s = outcome.store.series(name).expect("listed series exists");
            let windows: Vec<Json> = s
                .window_agg(0, last_seq, window)
                .iter()
                .map(|w| {
                    Json::obj([
                        ("start", Json::from(w.start)),
                        ("count", Json::from(w.count)),
                        ("min", opt_num(w.min)),
                        ("max", opt_num(w.max)),
                        ("mean", opt_num(w.mean)),
                    ])
                })
                .collect();
            Json::obj([
                ("name", Json::str(*name)),
                ("samples", Json::from(s.len())),
                ("evicted", Json::from(s.evicted())),
                ("windows", Json::Arr(windows)),
            ])
        })
        .collect();
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("tool", Json::str("bgpsim")),
        ("kind", Json::str("stream")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "config",
            Json::obj([
                ("scale", Json::str(&opts.scale)),
                ("seed", Json::from(lab.config().seed)),
                ("engine", Json::str(lab.config().engine.name())),
                ("num_ases", Json::from(lab.topology().num_ases())),
                ("events", Json::from(config.events)),
                ("stream_seed", Json::from(config.seed)),
                ("targets", Json::from(config.num_targets)),
                ("validator_fraction", Json::Num(config.validator_fraction)),
                ("stub_defense", Json::Bool(config.stub_defense)),
                ("flip_weight", Json::from(config.flip_weight)),
                ("reannounce_weight", Json::from(config.reannounce_weight)),
                ("inject_weight", Json::from(config.inject_weight)),
            ]),
        ),
        (
            "summary",
            Json::obj([
                ("events", Json::from(summary.events)),
                ("injected", Json::from(summary.injected)),
                ("detected", Json::from(summary.detected)),
                ("mean_latency_events", opt_num(summary.mean_latency)),
                (
                    "max_latency_events",
                    opt_num(summary.max_latency.map(|l| l as f64)),
                ),
                ("wall_ms", Json::Num(wall_ms)),
                ("events_per_sec", Json::Num(events_per_sec)),
            ]),
        ),
        ("series", Json::Arr(series)),
    ])
}

fn run(opts: &RunOptions) -> ExitCode {
    if opts.jobs > 0 {
        // The vendored rayon reads this on every parallel region, exactly
        // like upstream's global-pool override.
        std::env::set_var("RAYON_NUM_THREADS", opts.jobs.to_string());
    }
    // Resolve `--jobs 0` to the worker count sweeps actually run on, so
    // the manifest records real parallelism instead of the literal zero.
    let effective_jobs = rayon::current_num_threads();
    let mut config = ExperimentConfig::preset(&opts.scale).expect("validated in parse_run");
    config.engine = opts.engine;
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(stride) = opts.stride {
        config.attacker_stride = stride;
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }

    let started = Instant::now();
    eprintln!(
        "generating {}-AS internet (scale {}, seed {})...",
        config.params.num_ases, opts.scale, config.seed
    );
    let lab = Lab::new(config);
    eprintln!("topology ready in {:.1}s", started.elapsed().as_secs_f64());

    let mut records = Vec::new();
    for id in &opts.figures {
        let telemetry = SweepTelemetry::new();
        let fig_started = Instant::now();
        let line = ProgressLine::new(id.as_str());
        let print_progress = move |p: SweepProgress| {
            // Worker threads tick concurrently; thin the redraws so the
            // terminal is not the bottleneck.
            let step = (p.total / 200).max(1);
            if p.completed.is_multiple_of(step) || p.completed == p.total {
                eprint!(
                    "\r{}\x1b[K",
                    line.render(p.completed, p.total, p.elapsed, p.eta)
                );
            }
        };
        let mut monitor = SweepMonitor::none().with_telemetry(&telemetry);
        if opts.progress {
            monitor = monitor.with_progress(&print_progress);
        }
        let outcome = run_one(id, &lab, &monitor, &opts.out);
        if opts.progress {
            eprint!("\r\x1b[K");
        }
        let wall_ms = fig_started.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok((summary, artifacts)) => {
                println!("{summary}\n");
                eprintln!("[{id}] {:.0} ms, wrote {}", wall_ms, artifacts.join(", "));
                let snapshot = telemetry.snapshot();
                records.push(FigureRecord {
                    id: id.clone(),
                    wall_ms,
                    artifacts,
                    telemetry: (snapshot.attacks > 0).then_some(snapshot),
                });
            }
            Err(e) => {
                eprintln!("error: [{id}] could not write artifacts: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let total_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let manifest = RunManifest {
        version: env!("CARGO_PKG_VERSION").to_string(),
        scale: opts.scale.clone(),
        seed: lab.config().seed,
        attacker_stride: lab.config().attacker_stride,
        engine: lab.config().engine.name().to_string(),
        jobs: effective_jobs,
        num_ases: lab.topology().num_ases(),
        figures: records,
        total_wall_ms,
        fanout: None,
    };
    let manifest_path = opts.out.join("run_manifest.json");
    if let Err(e) = std::fs::write(&manifest_path, manifest.render()) {
        eprintln!("error: cannot write {}: {e}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "run complete in {:.1}s: {}",
        total_wall_ms / 1e3,
        manifest_path.display()
    );
    ExitCode::SUCCESS
}

/// Dispatches one figure id to its runner; returns (summary, artifacts).
fn run_one(
    id: &str,
    lab: &Lab,
    monitor: &SweepMonitor<'_>,
    dir: &Path,
) -> std::io::Result<(String, Vec<String>)> {
    Ok(match id {
        "fig1" => {
            let r = experiments::fig1(lab);
            (r.summary(lab), r.write_artifacts(dir)?)
        }
        "fig2" => {
            let r = experiments::fig2_monitored(lab, monitor);
            (r.summary(), r.write_artifacts(dir)?)
        }
        "fig3" => {
            let r = experiments::fig3_monitored(lab, monitor);
            (r.summary(), r.write_artifacts(dir)?)
        }
        "fig4" => {
            let r = experiments::fig4_monitored(lab, monitor);
            (r.summary(), r.write_artifacts(dir)?)
        }
        "fig5" => {
            let r = experiments::fig5_monitored(lab, monitor);
            (r.summary(lab), r.write_artifacts(lab, dir)?)
        }
        "fig6" => {
            let r = experiments::fig6_monitored(lab, monitor);
            (r.summary(lab), r.write_artifacts(lab, dir)?)
        }
        "fig7" => {
            let r = experiments::fig7(lab);
            (r.summary(lab), r.write_artifacts(lab, dir)?)
        }
        "sec7" => {
            let r = experiments::sec7(lab);
            (r.summary(lab), r.write_artifacts(dir)?)
        }
        "model" => {
            let r = experiments::tab_model(lab);
            (r.summary(), r.write_artifacts(dir)?)
        }
        other => unreachable!("figure id {other:?} validated in parse_run"),
    })
}
