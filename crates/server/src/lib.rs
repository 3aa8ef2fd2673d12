//! `bgpsim-server`: the what-if query service.
//!
//! The CLI and experiment runners answer questions batch-style: generate
//! the Internet, run the sweep, print the figures, exit. This crate turns
//! the same lab into a *long-running* service: the topology is generated
//! once at startup, and operators then ask incremental questions over a
//! small HTTP/1.1 JSON API — "what if AS X hijacked AS Y under this
//! deployment?" (`POST /v1/attacks`), "re-run the §IV sweep against
//! this defense" (`POST /v1/sweeps`, asynchronous with progress and
//! cancellation), "watch a live update stream and detect hijacks as they
//! land" (`POST /v1/stream`, with mid-run time-series range queries on
//! `GET /v1/stream/:id/range`) — with Prometheus metrics and health
//! introspection on the side.
//!
//! # Architecture
//!
//! ```text
//!  accept loop (nonblocking, polls shutdown flag)
//!      │  bounded sync_channel (503 when full)
//!      ▼
//!  HTTP workers (std::thread::scope; keep-alive; pooled Scratch)
//!      │ POST /v1/sweeps        │ POST /v1/attacks, /v1/attacks:batch
//!      ▼                        ▼
//!  JobRegistry ══► executor pool ──►  BaselineCache (LRU, single-flight)
//!   (fair-share    (attacker-chunks,        │
//!    chunk ring)    rayon inside, panic     ▼
//!      │            isolation per chunk)  Simulator (borrows the Lab)
//!      ▼
//!  --state-dir (terminal jobs persisted as manifest JSON,
//!               reloaded on boot, corrupt files quarantined)
//! ```
//!
//! Everything is `std`: the no-new-dependencies policy means no tokio, no
//! hyper, no serde — framing is hand-rolled (the `http` module) and JSON is
//! the manifest crate's bidirectional [`bgpsim_core::manifest::Json`].
//! Threads are scoped so workers can borrow the `Simulator` (which
//! borrows the topology) without `Arc` gymnastics; the scope guarantees
//! the lab outlives every worker.
//!
//! The load-bearing middle layer is the baseline cache (`cache.rs`): repeat
//! queries against a warm (target, stub-defense setting) baseline — under
//! any validator deployment — skip the honest convergence entirely and
//! replay in microseconds. See `DESIGN.md` §13.
//!
//! The crate's API is what its callers use and nothing more: [`serve`]
//! (the CLI), [`spawn`] with its [`ServerHandle`] (tests, harness) and
//! [`ServerConfig`]. Everything else is private, so the compiler's
//! dead-code lint sees the whole job layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod cache;
mod http;
mod jobs;
mod metrics;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bgpsim_core::manifest::SCHEMA_VERSION;
use bgpsim_core::stream::{DetectorMode, StreamDetector, StreamSummary};
use bgpsim_core::{ExperimentConfig, Lab};
use bgpsim_fanout::{Coordinator, FanoutConfig, FanoutError, Handshake, SweepObserver};
use bgpsim_hijack::{
    AttackKind, Defense, Dispatch, Simulator, SweepMonitor, SweepProgress, SweepTelemetry,
};
use bgpsim_routing::Baseline;
use bgpsim_topology::AsIndex;
use rayon::prelude::*;

use cache::{BaselineCache, BaselineKey, CacheOutcome};
use http::{HttpConn, ReadOutcome, Response};
use jobs::{Chunk, ChunkResult, Job, JobRegistry, JobSpec, StreamSpec, SweepSpec};
use metrics::ServerMetrics;

/// How long the accept loop sleeps between polls when no connection is
/// pending — bounds shutdown latency.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Everything `serve` needs to boot.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lab configuration (scale, seed, engine, policy).
    pub experiment: ExperimentConfig,
    /// Human-readable scale label for `/v1/healthz` (`"quick"`,
    /// `"standard"`, `"paper"`, or `"custom"`).
    pub scale_name: String,
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port —
    /// the tests' default).
    pub addr: String,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Accepted connections waiting for a worker before new ones get 503.
    pub queue_capacity: usize,
    /// Unfinished sweep jobs (queued or running) the registry admits
    /// before new submissions get 429.
    pub max_queued_jobs: usize,
    /// Baselines the LRU cache retains.
    pub cache_capacity: usize,
    /// Optional bound on the cache's summed resident baseline heap bytes
    /// (`None` = entry-count bound only). At paper scale one baseline is
    /// tens of megabytes, so the entry cap alone can pin gigabytes.
    pub cache_byte_budget: Option<u64>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Idle keep-alive read timeout per connection.
    pub read_timeout: Duration,
    /// Sweep executor threads. Each runs one attacker-chunk at a time
    /// (rayon-parallel inside), so this bounds how many jobs make
    /// *simultaneous* progress; fair-share chunk scheduling keeps jobs
    /// from starving each other even at 1.
    pub sweep_workers: usize,
    /// Directory for terminal job/result records (persisted as manifest
    /// JSON, reloaded on boot). `None` disables persistence.
    pub state_dir: Option<PathBuf>,
    /// Fan-out worker addresses (`host:port` or `http://host:port`). When
    /// non-empty, sweep jobs are sharded across these `bgpsim-server`
    /// instances instead of the local rayon pool; workers whose
    /// compatibility handshake fails are rejected at boot, and the server
    /// degrades to local execution if none survive.
    pub fanout_workers: Vec<String>,
}

impl ServerConfig {
    /// Defaults for `experiment`, binding `127.0.0.1:8080`.
    pub fn new(experiment: ExperimentConfig, scale_name: impl Into<String>) -> ServerConfig {
        ServerConfig {
            experiment,
            scale_name: scale_name.into(),
            addr: "127.0.0.1:8080".to_string(),
            http_workers: 4,
            queue_capacity: 64,
            max_queued_jobs: 16,
            cache_capacity: 32,
            cache_byte_budget: None,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(2),
            sweep_workers: 2,
            state_dir: None,
            fanout_workers: Vec::new(),
        }
    }
}

/// Shared server state: one per `serve` call, borrowed by every worker.
pub(crate) struct ServerState<'t> {
    pub(crate) sim: Simulator<'t>,
    pub(crate) lab: &'t Lab,
    pub(crate) config: &'t ServerConfig,
    pub(crate) cache: BaselineCache,
    pub(crate) jobs: JobRegistry,
    pub(crate) metrics: ServerMetrics,
    pub(crate) telemetry: SweepTelemetry,
    pub(crate) shutdown: &'t AtomicBool,
    pub(crate) fanout: Option<Coordinator>,
}

/// A baseline as the cache handed it out, with how the lookup went.
pub(crate) type CachedBaseline = (Arc<Baseline>, CacheOutcome);

impl ServerState<'_> {
    /// The baseline each of `asks` — attacks of a kind on a target under a
    /// defense — replays, fetched through the cache. This is the one place
    /// the server decides *whether* a request needs a baseline (its route
    /// is [`Dispatch::Delta`]) and *which*: the key is `(target,
    /// stub_defense)`, all of a defense that [`Simulator::baseline_for`]
    /// reads, so every validator deployment shares the entry.
    ///
    /// Asks with equal keys share one lookup, distinct keys are fetched in
    /// parallel, and the cache's single-flight layer coalesces a build
    /// another request already started. Returns one slot per ask, in order
    /// (`None`: that route does not replay), and the number of lookups.
    pub(crate) fn baselines<'d>(
        &self,
        asks: impl IntoIterator<Item = (AttackKind, AsIndex, &'d Defense)>,
        monitor: &SweepMonitor<'_>,
    ) -> (Vec<Option<CachedBaseline>>, usize) {
        // Distinct keys, each with the first target and defense that named it.
        let mut groups: Vec<(BaselineKey, AsIndex, &Defense)> = Vec::new();
        let mut group_of: HashMap<BaselineKey, usize> = HashMap::new();
        let slots: Vec<Option<usize>> = asks
            .into_iter()
            .map(|(kind, target, defense)| {
                (self.sim.route(kind, defense) == Dispatch::Delta).then(|| {
                    let key = BaselineKey {
                        target: target.raw(),
                        stub_defense: defense.has_stub_defense(),
                    };
                    *group_of.entry(key).or_insert_with(|| {
                        groups.push((key, target, defense));
                        groups.len() - 1
                    })
                })
            })
            .collect();
        let fetched: Vec<CachedBaseline> = groups
            .par_iter()
            .map(|&(key, target, defense)| {
                self.cache
                    .get_or_build(key, || self.sim.baseline_for(target, defense, monitor))
            })
            .collect();
        let slots = slots
            .into_iter()
            .map(|slot| slot.map(|group| fetched[group].clone()))
            .collect();
        (slots, fetched.len())
    }
}

/// Runs the server until `shutdown` becomes true (a `POST /v1/shutdown`
/// sets it too), then drains: in-flight requests finish, queued and
/// running sweep jobs are cancelled, worker threads join.
///
/// `on_ready` fires once the listener is bound, with the actual local
/// address — the CLI logs it, tests use it to find the ephemeral port.
///
/// # Errors
///
/// Returns the bind error if the address cannot be bound; accept-time
/// errors are counted and survived.
pub fn serve(
    config: &ServerConfig,
    shutdown: &AtomicBool,
    on_ready: impl FnOnce(SocketAddr),
) -> io::Result<()> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Generating the Internet can take seconds at standard scale; bind
    // first so `on_ready` subscribers see the port, but only report ready
    // once the lab can actually answer.
    let lab = Lab::new(config.experiment.clone());
    let fanout = connect_fanout(config, &lab);
    let jobs = JobRegistry::new(config.max_queued_jobs, config.state_dir.clone());
    // Fan-out mode deals *shards*, not local rayon chunks: hand each sweep
    // job to the coordinator as one whole-pool chunk so the shard plan
    // covers the entire pool (usize::MAX >> 1 avoids the chunk-ring's
    // `start + chunk_size` overflow).
    let jobs = if fanout.is_some() {
        jobs.with_chunk_size(usize::MAX >> 1)
    } else {
        jobs
    };
    let state = ServerState {
        sim: lab.simulator(),
        lab: &lab,
        config,
        cache: BaselineCache::new(config.cache_capacity).with_byte_budget(config.cache_byte_budget),
        jobs,
        metrics: ServerMetrics::new(),
        telemetry: SweepTelemetry::new(),
        shutdown,
        fanout,
    };
    on_ready(addr);
    let (tx, rx) = mpsc::sync_channel::<std::net::TcpStream>(config.queue_capacity.max(1));
    let rx = Mutex::new(rx);
    thread::scope(|scope| {
        for _ in 0..config.http_workers.max(1) {
            scope.spawn(|| http_worker(&state, &rx));
        }
        for _ in 0..config.sweep_workers.max(1) {
            scope.spawn(|| sweep_executor(&state));
        }
        accept_loop(&state, &listener, &tx);
        // Drain: close the job registry (cancels queued + running sweeps,
        // wakes the executor) and drop the sender so workers exit after
        // finishing the connections already queued.
        state.jobs.close();
        drop(tx);
    });
    Ok(())
}

/// Probes `config.fanout_workers` with the compatibility handshake and
/// returns a live [`Coordinator`], or `None` (local execution) when the
/// list is empty or no worker passes — the server boots either way, it
/// just warns and degrades.
fn connect_fanout(config: &ServerConfig, lab: &Lab) -> Option<Coordinator> {
    if config.fanout_workers.is_empty() {
        return None;
    }
    let expect = Handshake {
        schema_version: SCHEMA_VERSION,
        scale: config.scale_name.clone(),
        seed: config.experiment.seed,
        num_ases: lab.topology().num_ases() as u64,
    };
    let coordinator =
        Coordinator::connect(FanoutConfig::new(config.fanout_workers.clone()), &expect);
    if coordinator.live_workers() == 0 {
        eprintln!(
            "warning: none of the {} fan-out workers are reachable and compatible; \
             sweeps will run locally in-process",
            config.fanout_workers.len()
        );
        None
    } else {
        eprintln!(
            "fan-out: {} of {} workers registered",
            coordinator.live_workers(),
            config.fanout_workers.len()
        );
        Some(coordinator)
    }
}

fn accept_loop(
    state: &ServerState<'_>,
    listener: &TcpListener,
    tx: &SyncSender<std::net::TcpStream>,
) {
    while !state.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                state.metrics.connection_accepted();
                match tx.try_send(stream) {
                    Ok(()) => state.metrics.queue_changed(1),
                    Err(TrySendError::Full(stream)) => {
                        state.metrics.connection_rejected();
                        reject_overloaded(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            // Transient accept errors (EMFILE, ECONNABORTED): back off and
            // keep serving.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answers 503 on a connection no worker will ever see.
fn reject_overloaded(stream: std::net::TcpStream) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let body = "{\"error\":\"server overloaded: connection queue full\"}\n";
    let _ = http::write_response_to(&mut stream, &Response::json(503, body.to_string()), true);
}

fn http_worker(state: &ServerState<'_>, rx: &Mutex<Receiver<std::net::TcpStream>>) {
    loop {
        // Hold the receiver lock only while popping, not while handling.
        let stream = {
            let rx = rx.lock().unwrap();
            rx.recv_timeout(Duration::from_millis(100))
        };
        match stream {
            Ok(stream) => {
                state.metrics.queue_changed(-1);
                handle_connection(state, stream);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Shutdown latency bound: check the flag between pops even
                // if the sender is still alive.
                if state.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_connection(state: &ServerState<'_>, stream: std::net::TcpStream) {
    let mut conn = HttpConn::new(stream, state.config.read_timeout);
    loop {
        match conn.read_request(state.config.max_body_bytes) {
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed { status, reason } => {
                state.metrics.malformed_request();
                let body = format!("{{\"error\":{:?}}}\n", reason);
                let _ = conn.write_response(&Response::json(status, body), true);
                return;
            }
            ReadOutcome::Request(request) => {
                let _guard = state.metrics.begin_request();
                let started = Instant::now();
                let (endpoint, response) = api::dispatch(state, &request);
                state
                    .metrics
                    .observe(endpoint, response.status, started.elapsed());
                // Close after the response when the client asked for it
                // or the server is draining.
                let close = request.wants_close() || state.shutdown.load(Ordering::Relaxed);
                if conn.write_response(&response, close).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// One sweep executor: pulls attacker-chunks from the fair-share ring and
/// runs each on the rayon pool. The pool has `config.sweep_workers` of
/// these, so several jobs progress simultaneously; the registry's
/// round-robin deal keeps any one job from monopolizing them.
///
/// Each chunk runs under `catch_unwind`: a panicking sweep comes back as
/// a [`ChunkResult::Failed`] chunk that marks *that job* failed, and the
/// executor keeps serving everyone else — combined with the registry's
/// poison-recovering locks, one bad job cannot take the job layer down.
fn sweep_executor(state: &ServerState<'_>) {
    while let Some(chunk) = state.jobs.next_chunk() {
        let result =
            catch_unwind(AssertUnwindSafe(|| run_chunk(state, &chunk))).unwrap_or_else(|panic| {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                ChunkResult::Failed(format!("job executor panicked: {detail}"))
            });
        state.jobs.finish(chunk, result);
    }
}

/// Runs one chunk: a slice of a sweep's attacker pool, or a stream job's
/// whole event tape.
fn run_chunk(state: &ServerState<'_>, chunk: &Chunk) -> ChunkResult {
    match &chunk.job.spec {
        JobSpec::Sweep(spec) => {
            let (rows, cache) = run_sweep_chunk(state, &chunk.job, spec, chunk);
            ChunkResult::Sweep { rows, cache }
        }
        JobSpec::Stream(spec) => ChunkResult::Stream(run_stream_chunk(state, &chunk.job, spec)),
    }
}

/// Runs one chunk of a job's sweep, updating the job's progress atomics
/// per attack. Sweeps that replay fetch the shared baseline per chunk —
/// after the first chunk that is always a cache hit, and the job's
/// reported outcome keeps the coldest chunk's answer.
fn run_sweep_chunk(
    state: &ServerState<'_>,
    job: &Job,
    spec: &SweepSpec,
    chunk: &Chunk,
) -> (Vec<u32>, &'static str) {
    if let Some(coordinator) = &state.fanout {
        match run_fanout_chunk(coordinator, job, spec) {
            Ok(rows) => return (rows, "fanout"),
            // The cancel flag is already set, so the registry discards
            // these rows and finalizes Cancelled; only the length matters.
            Err(FanoutError::Cancelled) => return (vec![0; spec.pool.len()], "fanout"),
            Err(e) => {
                eprintln!("warning: fan-out sweep for job {} failed ({e}); falling back to local execution", job.id);
                job.completed.store(0, Ordering::Relaxed);
            }
        }
    }
    let tick = job.progress_ticker();
    let progress = |_p: SweepProgress| tick(1);
    let monitor = SweepMonitor::none()
        .with_telemetry(&state.telemetry)
        .with_progress(&progress)
        .with_cancel(&job.cancel);
    let ask = (AttackKind::OriginHijack, spec.target, &spec.defense);
    let cached = state.baselines([ask], &monitor).0.pop().flatten();
    let rows = state.sim.sweep_chunk_monitored(
        spec.target,
        chunk.attackers(),
        &spec.defense,
        cached.as_ref().map(|(baseline, _)| &**baseline),
        &monitor,
    );
    (rows, cached.map_or("bypass", |(_, outcome)| outcome.name()))
}

/// Ticks a [`Job`]'s progress and shard atomics from coordinator
/// callbacks, and routes the job's cancel flag into the fan-out run.
struct JobShardObserver<'j, F> {
    job: &'j Job,
    tick: F,
}

impl<F: Fn(usize) + Sync> SweepObserver for JobShardObserver<'_, F> {
    fn on_plan(&self, shards: usize) {
        self.job
            .shards_total
            .store(shards as u64, Ordering::Relaxed);
    }

    fn on_shard_done(&self, attackers: usize) {
        self.job.shards_done.fetch_add(1, Ordering::Relaxed);
        // Progress advances a whole shard at a time: coarser ticks than
        // the local per-attack closure, same completed/ETA contract.
        (self.tick)(attackers);
    }

    fn on_retry(&self) {
        self.job.shards_retried.fetch_add(1, Ordering::Relaxed);
    }

    fn cancelled(&self) -> bool {
        self.job.cancel.load(Ordering::Relaxed)
    }
}

/// Runs a sweep job's (single, whole-pool) chunk through the fan-out
/// coordinator. The merged rows are bit-identical to what the local path
/// would produce — the `differential` test's partition arm pins that
/// equivalence.
fn run_fanout_chunk(
    coordinator: &Coordinator,
    job: &Job,
    spec: &SweepSpec,
) -> Result<Vec<u32>, FanoutError> {
    let observer = JobShardObserver {
        job,
        tick: job.progress_ticker(),
    };
    coordinator.run_sweep(&spec.request, &observer)
}

/// Runs a stream job's whole event tape through the incremental detector,
/// ticking the job's progress atomics and the stream counter bank per
/// event; the baselines the detector builds count on the server's
/// telemetry like any other. The store lock is held only for each event's appends, so
/// `GET /v1/stream/:id/range` reads a consistent mid-stream snapshot
/// between events. Cancellation is polled per event; a cancelled run
/// still reports the summary of the prefix it processed (the registry
/// discards it, matching sweep semantics).
fn run_stream_chunk(state: &ServerState<'_>, job: &Job, spec: &StreamSpec) -> StreamSummary {
    let sets = state.lab.probe_cohort();
    let mut detector =
        StreamDetector::new(&state.sim, &sets, &spec.plan, DetectorMode::Incremental)
            .with_baseline_telemetry(&state.telemetry);
    let tick = job.progress_ticker();
    let mut processed = 0;
    for event in &spec.plan.events {
        if job.cancel.load(Ordering::Relaxed) {
            break;
        }
        {
            let mut store = jobs::lock_recover(&spec.store);
            detector.apply(event, &mut store);
        }
        processed += 1;
        state.metrics.stream_event();
        tick(1);
    }
    let summary = StreamSummary::of(processed, &detector.finish());
    state
        .metrics
        .stream_finished(summary.injected as u64, summary.detected as u64);
    summary
}

/// Handle to a server running on a background thread (tests and the
/// `examples/loadgen` harness use this; the CLI runs [`serve`] directly
/// on the main thread).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the server thread.
    ///
    /// # Errors
    ///
    /// Propagates the server's exit error, mapping a panicked server
    /// thread to [`io::ErrorKind::Other`].
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Boots a server on a background thread and waits until it is ready to
/// answer requests.
///
/// # Errors
///
/// Returns the boot error (typically a failed bind) if the server exits
/// before reporting ready.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel::<SocketAddr>();
    let thread_shutdown = Arc::clone(&shutdown);
    let join = thread::Builder::new()
        .name("bgpsim-server".to_string())
        .spawn(move || {
            serve(&config, &thread_shutdown, move |addr| {
                let _ = ready_tx.send(addr);
            })
        })?;
    match ready_rx.recv() {
        Ok(addr) => Ok(ServerHandle {
            addr,
            shutdown,
            join,
        }),
        Err(_) => {
            // The server exited before signalling ready: surface its error.
            match join.join() {
                Ok(Ok(())) => Err(io::Error::other("server exited before becoming ready")),
                Ok(Err(e)) => Err(e),
                Err(_) => Err(io::Error::other("server thread panicked during boot")),
            }
        }
    }
}
