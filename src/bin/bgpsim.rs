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

use bgpsim::experiments;
use bgpsim::fanout::{Coordinator, FanoutConfig, Handshake, NoopObserver, SweepRequest};
use bgpsim::hijack::{EngineChoice, SweepMonitor, SweepProgress, SweepTelemetry};
use bgpsim::manifest::{stream_summary_json, FigureRecord, Json, RunManifest, SCHEMA_VERSION};
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
    --engine NAME     routing engine: auto | generation | delta | race [auto]
                      auto races every attack (generation, the reference
                      engine, only catches a race that does not settle)
                      except under stub filtering, where it replays the
                      target's baseline and races a replay whose cone
                      outgrows its budget; generation and race force
                      every attack, on every topology an experiment
                      builds, onto one engine; delta replays under any
                      origin validation or stub filtering and never
                      abandons a replay for the race solver
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
deals each to a worker as an idempotency-keyed /v1/sweeps job, and
merges the per-shard rows positionally. The merged figure is
byte-identical to a single-node `bgpsim run fig2` at the same scale and
seed — CI pins that, including with a worker killed mid-sweep (failed
shards are retried on survivors).

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
    --shards N        shards per worker (more = finer retry
                      granularity) [2]
    --jobs N          local worker threads for the fallback path [0]
    --out DIR         output directory [out]

Writes fig2.svg + fig2.csv and a run_manifest.json with a `fanout`
section (per-worker dispatch counters, retries); no separate
bench-record file is written any more. See DESIGN.md §17.";

/// The subcommands that take options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Stream,
    Serve,
    Fanout,
}

impl Command {
    fn named(name: &str) -> Option<Command> {
        match name {
            "run" => Some(Command::Run),
            "stream" => Some(Command::Stream),
            "serve" => Some(Command::Serve),
            "fanout" => Some(Command::Fanout),
            _ => None,
        }
    }

    /// The text `--help` prints, and a usage error prints after its message.
    fn usage(self) -> &'static str {
        match self {
            Command::Run => USAGE,
            Command::Stream => STREAM_USAGE,
            Command::Serve => SERVE_USAGE,
            Command::Fanout => FANOUT_USAGE,
        }
    }

    /// The options this subcommand takes on top of [`COMMON`].
    fn table(self) -> &'static [OptionSpec] {
        match self {
            Command::Run => RUN,
            Command::Stream => STREAM,
            Command::Serve => SERVE,
            Command::Fanout => FANOUT,
        }
    }

    fn default_scale(self) -> &'static str {
        match self {
            Command::Run | Command::Serve => "standard",
            Command::Stream | Command::Fanout => "quick",
        }
    }
}

/// Every option of every subcommand; each reads the ones its table sets.
struct Options {
    scale: String,
    seed: Option<u64>,
    jobs: usize,
    engine: EngineChoice,
    out: PathBuf,
    /// `run`: figure ids in the order named (`--all`: every one, in
    /// canonical order), `--stride`, and whether to draw the progress line.
    figures: Vec<String>,
    stride: Option<usize>,
    progress: bool,
    /// `stream`: tape length, tracked targets, `--oracle`.
    events: usize,
    targets: usize,
    oracle: bool,
    /// `serve`: the service settings, on [`ServerConfig::new`]'s defaults
    /// until a flag says otherwise. Its `experiment` and `scale_name` are
    /// placeholders until `serve` fills them in from the options above.
    server: ServerConfig,
    /// `fanout`: the fleet, and `--shards`.
    workers: Vec<String>,
    shards_per_worker: Option<usize>,
}

/// One command-line option: its flag, and how it lands in [`Options`].
struct OptionSpec {
    flag: &'static str,
    take: Take,
}

enum Take {
    /// The flag stands alone.
    Switch(fn(&mut Options)),
    /// The flag is followed by a value.
    Value(fn(&mut Options, &str) -> Result<(), String>),
}

const fn switch(flag: &'static str, set: fn(&mut Options)) -> OptionSpec {
    OptionSpec {
        flag,
        take: Take::Switch(set),
    }
}

const fn value(
    flag: &'static str,
    set: fn(&mut Options, &str) -> Result<(), String>,
) -> OptionSpec {
    OptionSpec {
        flag,
        take: Take::Value(set),
    }
}

/// The options every subcommand takes.
const COMMON: &[OptionSpec] = &[
    value("--scale", |o, v| {
        o.scale = v.to_string();
        Ok(())
    }),
    value("--seed", |o, v| {
        o.seed = Some(parse_num(v, "--seed")?);
        Ok(())
    }),
    value("--jobs", |o, v| {
        o.jobs = parse_num(v, "--jobs")?;
        Ok(())
    }),
];

const ENGINE: OptionSpec = value("--engine", |o, v| {
    o.engine = EngineChoice::parse(v)?;
    Ok(())
});

const OUT: OptionSpec = value("--out", |o, v| {
    o.out = PathBuf::from(v);
    Ok(())
});

const RUN: &[OptionSpec] = &[
    ENGINE,
    OUT,
    switch("--all", |o| {
        o.figures = FIGURES.iter().map(|(id, _)| id.to_string()).collect();
    }),
    value("--stride", |o, v| {
        o.stride = Some(parse_positive(v, "--stride")?);
        Ok(())
    }),
    switch("--no-progress", |o| o.progress = false),
];

const STREAM: &[OptionSpec] = &[
    ENGINE,
    OUT,
    value("--events", |o, v| {
        o.events = parse_positive(v, "--events")?;
        Ok(())
    }),
    value("--targets", |o, v| {
        o.targets = parse_positive(v, "--targets")?;
        Ok(())
    }),
    switch("--oracle", |o| o.oracle = true),
];

const SERVE: &[OptionSpec] = &[
    ENGINE,
    value("--addr", |o, v| {
        o.server.addr = v.to_string();
        Ok(())
    }),
    value("--http-workers", |o, v| {
        o.server.http_workers = parse_positive(v, "--http-workers")?;
        Ok(())
    }),
    value("--sweep-workers", |o, v| {
        o.server.sweep_workers = parse_positive(v, "--sweep-workers")?;
        Ok(())
    }),
    value("--cache", |o, v| {
        o.server.cache_capacity = parse_num(v, "--cache")?;
        Ok(())
    }),
    value("--cache-bytes", |o, v| {
        let budget: u64 = parse_num(v, "--cache-bytes")?;
        o.server.cache_byte_budget = (budget > 0).then_some(budget);
        Ok(())
    }),
    value("--queue", |o, v| {
        o.server.max_queued_jobs = parse_num(v, "--queue")?;
        Ok(())
    }),
    value("--state-dir", |o, v| {
        o.server.state_dir = Some(PathBuf::from(v));
        Ok(())
    }),
    value("--fanout-workers", |o, v| {
        o.server.fanout_workers.extend(parse_worker_list(v)?);
        Ok(())
    }),
];

const FANOUT: &[OptionSpec] = &[
    OUT,
    value("--workers", |o, v| {
        o.workers.extend(parse_worker_list(v)?);
        Ok(())
    }),
    value("--shards", |o, v| {
        o.shards_per_worker = Some(parse_positive(v, "--shards")?);
        Ok(())
    }),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => println!("{USAGE}"),
        Some("--version" | "-V") => {
            // The schema version travels with the binary so operators can
            // match a run_manifest.json / API response to the tool that
            // understands it without booting a lab.
            println!(
                "bgpsim {} (manifest schema v{SCHEMA_VERSION})",
                env!("CARGO_PKG_VERSION")
            );
        }
        Some("list") => {
            for (id, what) in FIGURES {
                println!("{id:<6} {what}");
            }
        }
        Some(name) => {
            let Some(command) = Command::named(name) else {
                eprintln!("error: unknown subcommand {name:?}\n\n{USAGE}");
                return ExitCode::from(2);
            };
            return match parse(command, &args[1..]) {
                Ok(Some(opts)) => match command {
                    Command::Run => run(&opts),
                    Command::Stream => stream(&opts),
                    Command::Serve => serve(opts),
                    Command::Fanout => fanout(&opts),
                },
                Ok(None) => {
                    println!("{}", command.usage());
                    ExitCode::SUCCESS
                }
                Err(msg) => {
                    eprintln!("error: {msg}\n\n{}", command.usage());
                    ExitCode::from(2)
                }
            };
        }
    }
    ExitCode::SUCCESS
}

/// Parses `command`'s arguments against [`COMMON`] and its own table;
/// `Ok(None)` means `--help` was asked for.
fn parse(command: Command, args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        scale: command.default_scale().to_string(),
        seed: None,
        jobs: 0,
        engine: EngineChoice::Auto,
        out: PathBuf::from("out"),
        figures: Vec::new(),
        stride: None,
        progress: std::io::stderr().is_terminal(),
        events: StreamConfig::default().events,
        targets: StreamConfig::default().num_targets,
        oracle: false,
        server: ServerConfig::new(ExperimentConfig::standard(), ""),
        workers: Vec::new(),
        shards_per_worker: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let spec = COMMON
            .iter()
            .chain(command.table())
            .find(|spec| spec.flag == arg);
        match spec {
            Some(spec) => match spec.take {
                Take::Switch(set) => set(&mut opts),
                Take::Value(set) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{} needs a value", spec.flag))?;
                    set(&mut opts, value)?;
                }
            },
            // `run` names its figures positionally.
            None if command == Command::Run && !arg.starts_with('-') => {
                if !FIGURES.iter().any(|(known, _)| known == arg) {
                    return Err(format!(
                        "unknown figure {arg:?}: run `bgpsim list` for valid ids"
                    ));
                }
                if !opts.figures.contains(arg) {
                    opts.figures.push(arg.clone());
                }
            }
            None => return Err(format!("unknown option {arg:?}")),
        }
    }
    // Validate the scale up front so a typo fails before topology
    // generation, with the same message ExperimentConfig gives.
    ExperimentConfig::preset(&opts.scale)?;
    match command {
        Command::Run if opts.figures.is_empty() => {
            Err("nothing to run: name figures (e.g. `bgpsim run fig2`) or pass --all".into())
        }
        Command::Fanout if opts.workers.is_empty() => {
            Err("--workers must name at least one bgpsim-server URL".into())
        }
        _ => Ok(Some(opts)),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} expects a number, got {s:?}"))
}

/// [`parse_num`] for counts that must not be zero.
fn parse_positive(s: &str, flag: &str) -> Result<usize, String> {
    match parse_num(s, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
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

/// The lab configuration the options describe, announced on stderr —
/// generating it is the slow first step of every subcommand — with
/// `--jobs` applied to the rayon pool.
fn experiment(opts: &Options) -> ExperimentConfig {
    if opts.jobs > 0 {
        // The vendored rayon reads this on every parallel region, exactly
        // like upstream's global-pool override.
        std::env::set_var("RAYON_NUM_THREADS", opts.jobs.to_string());
    }
    let mut config = ExperimentConfig::preset(&opts.scale).expect("validated in parse");
    config.engine = opts.engine;
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(stride) = opts.stride {
        config.attacker_stride = stride;
    }
    eprintln!(
        "generating {}-AS internet (scale {}, seed {})...",
        config.params.num_ases, opts.scale, config.seed
    );
    config
}

/// What `run`, `stream` and `fanout` start with: the output directory,
/// and the lab with the instant its generation began.
fn boot(opts: &Options) -> Result<(Lab, Instant), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create {}: {e}", opts.out.display());
        return Err(ExitCode::FAILURE);
    }
    let config = experiment(opts);
    let started = Instant::now();
    let lab = Lab::new(config);
    eprintln!("topology ready in {:.1}s", started.elapsed().as_secs_f64());
    Ok((lab, started))
}

/// What they end with: the manifest on disk and one line saying so.
fn write_manifest(opts: &Options, name: &str, manifest: String, what: &str, secs: f64) -> ExitCode {
    let path = opts.out.join(name);
    if let Err(e) = std::fs::write(&path, manifest) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("{what} complete in {secs:.1}s: {}", path.display());
    ExitCode::SUCCESS
}

/// `run_manifest.json` for the figures a `run` or `fanout` produced.
fn write_run_manifest(
    opts: &Options,
    lab: &Lab,
    started: Instant,
    figures: Vec<FigureRecord>,
    fanout: Option<Json>,
    what: &str,
) -> ExitCode {
    let total_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let manifest = RunManifest {
        version: env!("CARGO_PKG_VERSION").to_string(),
        scale: opts.scale.clone(),
        seed: lab.config().seed,
        attacker_stride: lab.config().attacker_stride,
        engine: lab.config().engine.name().to_string(),
        // `--jobs 0` resolves to the worker count sweeps actually ran on,
        // so the manifest records real parallelism, not the literal zero.
        jobs: rayon::current_num_threads(),
        num_ases: lab.topology().num_ases(),
        figures,
        total_wall_ms,
        fanout,
    };
    write_manifest(
        opts,
        "run_manifest.json",
        manifest.render(),
        what,
        total_wall_ms / 1e3,
    )
}

fn serve(opts: Options) -> ExitCode {
    let experiment = experiment(&opts);
    let mut config = opts.server;
    config.experiment = experiment;
    config.scale_name = opts.scale;
    let started = Instant::now();
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let result = bgpsim_server::serve(&config, &shutdown, |bound| {
        eprintln!(
            "topology ready in {:.1}s; listening on http://{bound}/v1 \
             (healthz, metrics, attacks, sweeps; POST /v1/shutdown to stop)",
            started.elapsed().as_secs_f64()
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

/// The `fanout` subcommand: fig2 with the attacker pool dealt to a
/// worker fleet, byte-identical to the single-node figure.
fn fanout(opts: &Options) -> ExitCode {
    let (lab, started) = match boot(opts) {
        Ok(booted) => booted,
        Err(code) => return code,
    };
    let expect = Handshake {
        schema_version: SCHEMA_VERSION,
        scale: opts.scale.clone(),
        seed: lab.config().seed,
        num_ases: lab.topology().num_ases() as u64,
    };
    let mut fanout_config = FanoutConfig::new(opts.workers.clone());
    if let Some(shards) = opts.shards_per_worker {
        fanout_config.shards_per_worker = shards;
    }
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
    let figure = FigureRecord {
        id: "fig2".to_string(),
        wall_ms,
        artifacts,
        telemetry: None,
    };
    write_run_manifest(
        opts,
        &lab,
        started,
        vec![figure],
        Some(coordinator.stats().to_json()),
        "fanout run",
    )
}

fn stream(opts: &Options) -> ExitCode {
    let (lab, started) = match boot(opts) {
        Ok(booted) => booted,
        Err(code) => return code,
    };
    let topo = lab.topology();
    let sim = lab.simulator();
    let sets = lab.probe_cohort();
    let stream_config = StreamConfig {
        events: opts.events,
        seed: lab.stream_seed(),
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
    write_manifest(
        opts,
        "stream_manifest.json",
        manifest.render(),
        "stream",
        started.elapsed().as_secs_f64(),
    )
}

/// `Some(x)` renders as a number, `None` as `null` — an empty aggregation
/// window must not masquerade as zero.
fn opt_num(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::Num)
}

/// The `stream_manifest.json` document: configuration, summary, and a
/// windowed aggregate per series (min/max/mean, `null` on empty windows).
fn stream_manifest(
    opts: &Options,
    lab: &Lab,
    config: &StreamConfig,
    outcome: &StreamOutcome,
    wall_ms: f64,
    events_per_sec: f64,
) -> Json {
    // The summary every stream document carries, plus this run's timing.
    let Json::Obj(mut summary) = stream_summary_json(&outcome.summary()) else {
        unreachable!("a stream summary renders as an object");
    };
    summary.push(("wall_ms".to_string(), Json::Num(wall_ms)));
    summary.push(("events_per_sec".to_string(), Json::Num(events_per_sec)));
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
        ("summary", Json::Obj(summary)),
        ("series", Json::Arr(series)),
    ])
}

fn run(opts: &Options) -> ExitCode {
    let (lab, started) = match boot(opts) {
        Ok(booted) => booted,
        Err(code) => return code,
    };
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
    write_run_manifest(opts, &lab, started, records, None, "run")
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
        other => unreachable!("figure id {other:?} validated in parse"),
    })
}
