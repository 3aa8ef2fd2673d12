//! The fan-out coordinator: shard dispatch, retries, merging.
//!
//! A [`Coordinator`] owns a registered fleet of `bgpsim-server` workers
//! (each vetted at registration by a [`Handshake`] against its
//! `/v1/healthz`) and evaluates sweep requests by stride-sharding the
//! attacker pool ([`ShardPlan`]), dealing shards to workers over the
//! public HTTP API, and re-interleaving the per-shard rows into a
//! result byte-identical to a single-node sweep.
//!
//! Robustness model, in order of escalation:
//!
//! 1. **Keep-alive reconnect** — [`Client`] transparently reopens a
//!    closed connection and resends once; idempotency keys on
//!    `/v1/sweeps` make that resend safe against double-scheduling.
//! 2. **Bounded retries** — a failed shard goes back on the shared
//!    queue (any surviving worker may pick it up) until
//!    [`FanoutConfig::max_attempts`] dispatches have been burned, with
//!    capped exponential backoff on the failing worker's side.
//! 3. **Worker death** — three consecutive failures mark a worker dead
//!    for the rest of the coordinator's life; its queued work drains to
//!    the survivors.
//!
//! A straggler is bounded by [`FanoutConfig::shard_timeout`]: the shard
//! fails and is re-queued like any other failed dispatch.
//!
//! When every worker is dead or none registered, callers observe
//! [`FanoutError::NoWorkers`] and are expected to degrade to local
//! in-process execution.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

use bgpsim_core::manifest::Json;
use bgpsim_hijack::{wall_bucket, WALL_HIST_BUCKETS};

use crate::client::Client;
use crate::shard::ShardPlan;

/// Shards at or below this size go out as one synchronous
/// `POST /v1/attacks:batch` envelope; larger shards become async
/// `/v1/sweeps` jobs polled to completion. Matches the server's own
/// fair-share chunk size so a "small" shard is one scheduler quantum.
const BATCH_DISPATCH_MAX: usize = 64;

/// Consecutive failures after which a worker is declared dead.
const DEAD_AFTER: u32 = 3;

/// Read timeout on shard-dispatch connections. Individual requests are
/// short (submits, polls, batches); the long wait for a sweep happens
/// across many polls, each bounded by this.
const DISPATCH_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Read timeout for registration-time health probes.
const PROBE_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// What a worker must be to join the fleet. Checked against
/// `/v1/healthz` at registration: a worker simulating a different
/// topology (wrong seed, scale, or AS count) or speaking a different
/// schema would silently corrupt the merged result, so it is rejected
/// up front instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// Wire schema version (`bgpsim_core::manifest::SCHEMA_VERSION`).
    pub schema_version: u64,
    /// Scale preset name, e.g. `"quick"`.
    pub scale: String,
    /// Topology generation seed.
    pub seed: u64,
    /// Generated AS count — a belt-and-braces check that seed + scale
    /// really produced the same graph.
    pub num_ases: u64,
}

/// Tuning knobs for a [`Coordinator`]. `new` fills in defaults sized
/// for real fleets; tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Worker base URLs (`host:port`, `http://` prefix tolerated).
    pub workers: Vec<String>,
    /// Shards dealt per live worker. More than 1 lets a fast worker
    /// steal the tail instead of idling while the slowest finishes.
    pub shards_per_worker: usize,
    /// Total dispatch attempts a shard may burn before the whole sweep
    /// fails.
    pub max_attempts: u32,
    /// Wall-clock budget for one dispatched shard, submit to results.
    pub shard_timeout: Duration,
    /// Poll cadence for async sweep jobs.
    pub poll_interval: Duration,
}

impl FanoutConfig {
    /// Default configuration for the given worker URLs.
    pub fn new(workers: Vec<String>) -> FanoutConfig {
        FanoutConfig {
            workers,
            shards_per_worker: 2,
            max_attempts: 4,
            shard_timeout: Duration::from_secs(600),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// Why a fan-out sweep did not return a merged result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanoutError {
    /// No live workers — the caller should run locally instead.
    NoWorkers,
    /// The observer reported cancellation; outstanding shard jobs were
    /// abandoned (and cancelled server-side where reachable).
    Cancelled,
    /// A shard exhausted its attempts or every worker died mid-sweep.
    Failed(String),
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::NoWorkers => write!(f, "no live fan-out workers"),
            FanoutError::Cancelled => write!(f, "fan-out sweep cancelled"),
            FanoutError::Failed(message) => write!(f, "fan-out sweep failed: {message}"),
        }
    }
}

/// Progress hooks a [`Coordinator::run_sweep`] call reports into.
/// Implemented by the server's job layer (shard counters on the job)
/// and the CLI's progress line; [`NoopObserver`] for neither.
pub trait SweepObserver: Sync {
    /// The pool was split into `shards` shards.
    fn on_plan(&self, shards: usize) {
        let _ = shards;
    }
    /// A shard covering `attackers` pool members completed.
    fn on_shard_done(&self, attackers: usize) {
        let _ = attackers;
    }
    /// A failed shard went back on the queue.
    fn on_retry(&self) {}
    /// Polled between dispatches and while waiting on shard jobs;
    /// returning true abandons the sweep.
    fn cancelled(&self) -> bool {
        false
    }
}

/// A [`SweepObserver`] that ignores everything and never cancels.
pub struct NoopObserver;

impl SweepObserver for NoopObserver {}

/// One sweep to fan out, already resolved to wire terms (ASNs, not
/// topology indices) with the target filtered out of the pool — the
/// same normalization the server applies at submit.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The victim AS.
    pub target_asn: u32,
    /// Attacker pool, in the exact order the merged counts answer.
    pub pool_asns: Vec<u32>,
    /// ROV validator ASNs for the defense object.
    pub validator_asns: Vec<u32>,
    /// Whether the stub-defense heuristic is on.
    pub stub_defense: bool,
}

impl SweepRequest {
    /// The `POST /v1/sweeps` body that asks a worker this question: the
    /// target, the pool as an explicit attacker list, and the defense.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("target", Json::from(self.target_asn)),
            ("attackers", Json::u32s(&self.pool_asns)),
            (
                "defense",
                defense_to_json(&self.validator_asns, self.stub_defense),
            ),
        ])
    }
}

/// The wire `defense` object: `{"validators":[ASN…],"stub_defense":bool}`,
/// as request bodies carry it and `GET /v1/results/:id` echoes it.
pub fn defense_to_json(validator_asns: &[u32], stub_defense: bool) -> Json {
    Json::obj([
        ("validators", Json::u32s(validator_asns)),
        ("stub_defense", Json::Bool(stub_defense)),
    ])
}

/// Reads a request's `defense` value into canonical form: validator ASNs
/// sorted and deduplicated, plus the stub-defense flag. An absent or
/// `null` defense, like an absent or `null` member, means "none".
///
/// # Errors
///
/// Names the member that is not what the wire schema says it is.
pub fn defense_from_json(defense: Option<&Json>) -> Result<(Vec<u32>, bool), &'static str> {
    let spec = match defense {
        None | Some(Json::Null) => return Ok((Vec::new(), false)),
        Some(spec @ Json::Obj(_)) => spec,
        Some(_) => return Err("field \"defense\" must be an object"),
    };
    let mut validator_asns = match spec.get("validators") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_u32()
                    .ok_or("\"defense.validators\" entries must be ASNs")
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("\"defense.validators\" must be an array of ASNs"),
    };
    validator_asns.sort_unstable();
    validator_asns.dedup();
    let stub_defense = match spec.get("stub_defense") {
        None | Some(Json::Null) => false,
        Some(flag) => flag
            .as_bool()
            .ok_or("\"defense.stub_defense\" must be a bool")?,
    };
    Ok((validator_asns, stub_defense))
}

/// Per-worker registration record and cumulative counters.
struct Worker {
    addr: String,
    alive: AtomicBool,
    consecutive_failures: AtomicU32,
    shards_dispatched: AtomicU64,
    shards_completed: AtomicU64,
    failures: AtomicU64,
    wall_us_sum: AtomicU64,
    wall_hist: Vec<AtomicU64>,
}

impl Worker {
    fn new(addr: String) -> Worker {
        Worker {
            addr,
            alive: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            shards_dispatched: AtomicU64::new(0),
            shards_completed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            wall_us_sum: AtomicU64::new(0),
            wall_hist: (0..WALL_HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Point-in-time snapshot of one worker's counters, for `/v1/metrics`
/// and the manifest `fanout` section.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker address (`host:port`).
    pub addr: String,
    /// False once the worker hit [`DEAD_AFTER`] consecutive failures.
    pub alive: bool,
    /// Shards dealt to this worker (including retries).
    pub shards_dispatched: u64,
    /// Shards this worker answered successfully.
    pub shards_completed: u64,
    /// Failed dispatches.
    pub failures: u64,
    /// Total microseconds spent in successful shard round-trips.
    pub wall_us_sum: u64,
    /// log₂ µs histogram of successful shard round-trips (same
    /// bucketing as the server's own wall histograms).
    pub wall_hist: Vec<u64>,
}

/// Point-in-time snapshot of the whole coordinator.
#[derive(Debug, Clone)]
pub struct FanoutStats {
    /// Registered (accepted) workers.
    pub workers: Vec<WorkerStats>,
    /// Workers rejected at registration, with the reason.
    pub rejected: Vec<(String, String)>,
    /// Shards planned across all sweeps so far.
    pub shards_total: u64,
    /// Shards completed.
    pub shards_done: u64,
    /// Shards re-queued after a failed dispatch.
    pub shards_retried: u64,
    /// Always 0: the coordinator no longer hedges. Read by `benchmark/`
    /// (frozen); goes with its next revision.
    pub shards_hedged: u64,
}

impl FanoutStats {
    /// The `fanout` section of `run_manifest.json`: per-worker dispatch
    /// counters, rejected workers with the reason, and the shard totals.
    pub fn to_json(&self) -> Json {
        let workers = self.workers.iter().map(|w| {
            Json::obj([
                ("addr", Json::str(&w.addr)),
                ("alive", Json::Bool(w.alive)),
                ("shards_dispatched", Json::from(w.shards_dispatched)),
                ("shards_completed", Json::from(w.shards_completed)),
                ("failures", Json::from(w.failures)),
                ("wall_us_sum", Json::from(w.wall_us_sum)),
            ])
        });
        let rejected = self.rejected.iter().map(|(addr, reason)| {
            Json::obj([("addr", Json::str(addr)), ("reason", Json::str(reason))])
        });
        Json::obj([
            ("workers", Json::Arr(workers.collect())),
            ("rejected", Json::Arr(rejected.collect())),
            ("shards_total", Json::from(self.shards_total)),
            ("shards_done", Json::from(self.shards_done)),
            ("shards_retried", Json::from(self.shards_retried)),
        ])
    }
}

/// A registered fleet plus the dispatch machinery. Cheap to share
/// behind a reference: all mutable state is atomic.
pub struct Coordinator {
    config: FanoutConfig,
    workers: Vec<Worker>,
    rejected: Vec<(String, String)>,
    /// Per-boot nonce folded into idempotency keys: worker job ids
    /// restart from zero on reboot, so a key from a previous
    /// coordinator life must never alias a new shard onto an old job.
    nonce: u64,
    sweep_seq: AtomicU64,
    shards_total: AtomicU64,
    shards_done: AtomicU64,
    shards_retried: AtomicU64,
}

/// `host:port` from a worker URL; tolerates an `http://` prefix and a
/// trailing slash so copy-pasted base URLs register cleanly.
fn normalize_addr(url: &str) -> String {
    url.trim()
        .strip_prefix("http://")
        .unwrap_or(url.trim())
        .trim_end_matches('/')
        .to_string()
}

/// Poison-tolerant lock: shard state must survive a panicking peer
/// thread (the same stance the server's job registry takes).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Coordinator {
    /// Probes every configured worker's `/v1/healthz`, keeps the ones
    /// whose identity matches `expect`, and records the rest as
    /// rejected (with a warning on stderr). A coordinator with zero
    /// accepted workers is still constructed — [`Coordinator::run_sweep`]
    /// returns [`FanoutError::NoWorkers`] so callers can degrade to
    /// local execution.
    pub fn connect(config: FanoutConfig, expect: &Handshake) -> Coordinator {
        let mut workers = Vec::new();
        let mut rejected = Vec::new();
        for url in &config.workers {
            let addr = normalize_addr(url);
            match probe(&addr, expect) {
                Ok(()) => workers.push(Worker::new(addr)),
                Err(reason) => {
                    eprintln!("warning: rejecting fan-out worker {addr}: {reason}");
                    rejected.push((addr, reason));
                }
            }
        }
        let nonce = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Coordinator {
            config,
            workers,
            rejected,
            nonce,
            sweep_seq: AtomicU64::new(0),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            shards_retried: AtomicU64::new(0),
        }
    }

    /// Workers currently considered alive.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Workers rejected at registration, with reasons.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// Snapshot every counter for metrics and the run manifest.
    pub fn stats(&self) -> FanoutStats {
        FanoutStats {
            workers: self
                .workers
                .iter()
                .map(|w| WorkerStats {
                    addr: w.addr.clone(),
                    alive: w.alive.load(Ordering::Relaxed),
                    shards_dispatched: w.shards_dispatched.load(Ordering::Relaxed),
                    shards_completed: w.shards_completed.load(Ordering::Relaxed),
                    failures: w.failures.load(Ordering::Relaxed),
                    wall_us_sum: w.wall_us_sum.load(Ordering::Relaxed),
                    wall_hist: w
                        .wall_hist
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect(),
                })
                .collect(),
            rejected: self.rejected.clone(),
            shards_total: self.shards_total.load(Ordering::Relaxed),
            shards_done: self.shards_done.load(Ordering::Relaxed),
            shards_retried: self.shards_retried.load(Ordering::Relaxed),
            shards_hedged: 0,
        }
    }

    /// Fans `req` out across the live fleet and merges the per-shard
    /// rows into one counts vector, byte-identical to a single-node
    /// `sweep_attackers` over the same pool.
    pub fn run_sweep(
        &self,
        req: &SweepRequest,
        observer: &dyn SweepObserver,
    ) -> Result<Vec<u32>, FanoutError> {
        let live: Vec<&Worker> = self
            .workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .collect();
        if live.is_empty() {
            return Err(FanoutError::NoWorkers);
        }
        if req.pool_asns.is_empty() {
            return Ok(Vec::new());
        }
        let plan = ShardPlan::new(
            req.pool_asns.len(),
            live.len() * self.config.shards_per_worker.max(1),
        );
        observer.on_plan(plan.num_shards);
        self.shards_total
            .fetch_add(plan.num_shards as u64, Ordering::Relaxed);
        let ctx = RunCtx {
            req,
            plan,
            states: (0..plan.num_shards)
                .map(|_| ShardState::default())
                .collect(),
            queue: Mutex::new((0..plan.num_shards).collect()),
            done_count: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            last_error: Mutex::new("fan-out produced no result".to_string()),
            observer,
            key_base: format!(
                "fo{:x}-{}",
                self.nonce,
                self.sweep_seq.fetch_add(1, Ordering::Relaxed)
            ),
        };
        std::thread::scope(|scope| {
            for worker in &live {
                let ctx = &ctx;
                scope.spawn(move || self.worker_loop(worker, ctx));
            }
        });
        if ctx.cancelled.load(Ordering::Relaxed) {
            return Err(FanoutError::Cancelled);
        }
        if ctx.done_count.load(Ordering::Relaxed) != ctx.plan.num_shards {
            return Err(FanoutError::Failed(lock(&ctx.last_error).clone()));
        }
        let rows: Vec<Vec<u32>> = ctx
            .states
            .iter()
            .map(|st| lock(&st.result).take().expect("done shard holds its rows"))
            .collect();
        ctx.plan.merge(&rows).map_err(FanoutError::Failed)
    }

    /// One worker's dispatch loop: drain the shared queue until the sweep
    /// completes, aborts, or this worker dies.
    fn worker_loop(&self, worker: &Worker, ctx: &RunCtx<'_>) {
        let mut client: Option<Client> = None;
        loop {
            if ctx.abort.load(Ordering::Relaxed) {
                return;
            }
            if ctx.observer.cancelled() {
                ctx.cancelled.store(true, Ordering::Relaxed);
                ctx.abort.store(true, Ordering::Relaxed);
                return;
            }
            if ctx.done_count.load(Ordering::Relaxed) == ctx.plan.num_shards {
                return;
            }
            // An empty queue with shards still out means another worker
            // may yet fail one back onto it.
            let Some(shard) = lock(&ctx.queue).pop_front() else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let st = &ctx.states[shard];
            let attempt = st.attempts.fetch_add(1, Ordering::Relaxed) + 1;
            if attempt > self.config.max_attempts {
                *lock(&ctx.last_error) = format!(
                    "shard {shard} failed after {} attempts: {}",
                    self.config.max_attempts,
                    lock(&ctx.last_error)
                );
                ctx.abort.store(true, Ordering::Relaxed);
                return;
            }
            worker.shards_dispatched.fetch_add(1, Ordering::Relaxed);
            let begun = Instant::now();
            match self.dispatch_shard(&mut client, worker, ctx, shard) {
                Ok(rows) => {
                    worker.consecutive_failures.store(0, Ordering::Relaxed);
                    worker.shards_completed.fetch_add(1, Ordering::Relaxed);
                    let us = u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX);
                    worker.wall_us_sum.fetch_add(us, Ordering::Relaxed);
                    worker.wall_hist[wall_bucket(us)].fetch_add(1, Ordering::Relaxed);
                    *lock(&st.result) = Some(rows);
                    ctx.done_count.fetch_add(1, Ordering::Relaxed);
                    self.shards_done.fetch_add(1, Ordering::Relaxed);
                    ctx.observer.on_shard_done(ctx.plan.shard_len(shard));
                }
                Err(ShardError::Abandoned) => {}
                Err(ShardError::Failed(message)) => {
                    worker.failures.fetch_add(1, Ordering::Relaxed);
                    let fails = worker.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    *lock(&ctx.last_error) = format!("worker {}: {message}", worker.addr);
                    lock(&ctx.queue).push_back(shard);
                    self.shards_retried.fetch_add(1, Ordering::Relaxed);
                    ctx.observer.on_retry();
                    // A failed connection is suspect; reopen next time.
                    client = None;
                    if fails >= DEAD_AFTER {
                        worker.alive.store(false, Ordering::Relaxed);
                        return;
                    }
                    let backoff_ms = (50u64 << u64::from(fails - 1).min(5)).min(2_000);
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                }
            }
        }
    }

    /// Sends shard `shard` — itself a [`SweepRequest`], over the shard's
    /// members of the pool — in whichever form suits its size.
    fn dispatch_shard(
        &self,
        client_slot: &mut Option<Client>,
        worker: &Worker,
        ctx: &RunCtx<'_>,
        shard: usize,
    ) -> Result<Vec<u32>, ShardError> {
        let req = SweepRequest {
            target_asn: ctx.req.target_asn,
            pool_asns: ctx.plan.members(&ctx.req.pool_asns, shard),
            validator_asns: ctx.req.validator_asns.clone(),
            stub_defense: ctx.req.stub_defense,
        };
        if client_slot.is_none() {
            *client_slot = Some(
                Client::connect_with_timeout(&worker.addr, DISPATCH_READ_TIMEOUT)
                    .map_err(|e| ShardError::Failed(format!("connect: {e}")))?,
            );
        }
        let client = client_slot.as_mut().expect("client just ensured");
        if req.pool_asns.len() <= BATCH_DISPATCH_MAX {
            dispatch_batch(client, &req)
        } else {
            let key = format!("{}-shard{shard}", ctx.key_base);
            self.dispatch_sweep(client, ctx, &key, &req)
        }
    }

    /// Large shard: async sweep job with an idempotency key (stable
    /// across retries, so a resend after a timed-out submit dedupes
    /// server-side instead of double-scheduling), polled to completion.
    fn dispatch_sweep(
        &self,
        client: &mut Client,
        ctx: &RunCtx<'_>,
        key: &str,
        req: &SweepRequest,
    ) -> Result<Vec<u32>, ShardError> {
        let submitted = exchange(
            client.request_with_headers(
                "POST",
                "/v1/sweeps",
                &[("Idempotency-Key", key)],
                &req.to_json().render_compact(),
            ),
            "sweep submit",
            // 202 fresh, 200 deduped onto an earlier attempt's job.
            &[202, 200],
        )?;
        let id = submitted
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| ShardError::Failed("sweep submit response lacks \"id\"".to_string()))?;
        let deadline = Instant::now() + self.config.shard_timeout;
        loop {
            if ctx.abort.load(Ordering::Relaxed) || ctx.observer.cancelled() {
                // The sweep is over: stop billing the worker for it.
                let _ = client.request("DELETE", &format!("/v1/jobs/{id}"), "");
                return Err(ShardError::Abandoned);
            }
            if Instant::now() >= deadline {
                let _ = client.request("DELETE", &format!("/v1/jobs/{id}"), "");
                return Err(ShardError::Failed(format!(
                    "shard job {id} exceeded {:.0?}",
                    self.config.shard_timeout
                )));
            }
            let what = format!("poll {id}");
            let job = exchange(
                client.request("GET", &format!("/v1/jobs/{id}"), ""),
                &what,
                &[200],
            )?;
            match job.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued") | Some("running") => std::thread::sleep(self.config.poll_interval),
                Some(other) => {
                    return Err(ShardError::Failed(format!("shard job {id} ended {other}")))
                }
                None => {
                    return Err(ShardError::Failed(format!(
                        "{what} response lacks \"state\""
                    )))
                }
            }
        }
        let what = format!("results {id}");
        let results = exchange(
            client.request("GET", &format!("/v1/results/{id}"), ""),
            &what,
            &[200],
        )?;
        let counts = results
            .get("result")
            .and_then(|r| r.get("counts"))
            .and_then(Json::as_array)
            .ok_or_else(|| ShardError::Failed(format!("{what} lack result.counts")))?;
        if counts.len() != req.pool_asns.len() {
            return Err(ShardError::Failed(format!(
                "{what} carry {} counts for {} attackers",
                counts.len(),
                req.pool_asns.len()
            )));
        }
        let field = format!("{what}: a result.counts entry");
        counts.iter().map(|value| count(value, &field)).collect()
    }
}

/// Small shard: one synchronous batch request, counts read straight out
/// of `results[i].result.pollution_count`.
fn dispatch_batch(client: &mut Client, req: &SweepRequest) -> Result<Vec<u32>, ShardError> {
    let attacks = req.pool_asns.iter().map(|&attacker| {
        Json::obj([
            ("attacker", Json::from(attacker)),
            ("target", Json::from(req.target_asn)),
        ])
    });
    let body = Json::obj([
        (
            "defense",
            defense_to_json(&req.validator_asns, req.stub_defense),
        ),
        ("attacks", Json::Arr(attacks.collect())),
    ]);
    let response = exchange(
        client.request("POST", "/v1/attacks:batch", &body.render_compact()),
        "attacks:batch",
        &[200],
    )?;
    let entries = response
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| {
            ShardError::Failed("attacks:batch response lacks \"results\"".to_string())
        })?;
    if entries.len() != req.pool_asns.len() {
        return Err(ShardError::Failed(format!(
            "attacks:batch answered {} of {} attacks",
            entries.len(),
            req.pool_asns.len()
        )));
    }
    entries
        .iter()
        .map(|entry| {
            if let Some(message) = entry.get("error").and_then(Json::as_str) {
                return Err(ShardError::Failed(format!("batch item failed: {message}")));
            }
            let value = entry
                .get("result")
                .and_then(|result| result.get("pollution_count"))
                .ok_or_else(|| {
                    ShardError::Failed("batch item lacks result.pollution_count".to_string())
                })?;
            count(value, "batch item: result.pollution_count")
        })
        .collect()
}

/// A pollution count a worker sent, read strictly: anything but an
/// integer in `u32` range fails the shard, naming `field` — a lying or
/// broken worker must never merge as a nearby number.
fn count(value: &Json, field: &str) -> Result<u32, ShardError> {
    value.as_u32().ok_or_else(|| {
        ShardError::Failed(format!(
            "{field} is {}, not a count",
            value.render_compact()
        ))
    })
}

/// One request's outcome as a parsed document: the transport error, an
/// unexpected status or an unparseable body each fail the shard, named
/// after `what` was being asked.
fn exchange(
    response: std::io::Result<(u16, String)>,
    what: &str,
    expect: &[u16],
) -> Result<Json, ShardError> {
    let (status, body) = response.map_err(|e| ShardError::Failed(format!("{what}: {e}")))?;
    if !expect.contains(&status) {
        return Err(ShardError::Failed(format!(
            "{what} returned {status}: {}",
            excerpt(&body)
        )));
    }
    Json::parse(&body).map_err(|e| ShardError::Failed(format!("{what} response: {e}")))
}

/// Live state of one sweep run, shared across worker threads.
struct RunCtx<'a> {
    req: &'a SweepRequest,
    plan: ShardPlan,
    states: Vec<ShardState>,
    queue: Mutex<VecDeque<usize>>,
    done_count: AtomicUsize,
    abort: AtomicBool,
    cancelled: AtomicBool,
    last_error: Mutex<String>,
    observer: &'a dyn SweepObserver,
    key_base: String,
}

#[derive(Default)]
struct ShardState {
    result: Mutex<Option<Vec<u32>>>,
    attempts: AtomicU32,
}

#[derive(Debug)]
enum ShardError {
    /// The shard's result became unnecessary mid-dispatch (the sweep
    /// aborted or was cancelled); not a worker failure.
    Abandoned,
    Failed(String),
}

/// First line-ish of an error body, for diagnostics without dumping a
/// whole sweep result into a message.
fn excerpt(body: &str) -> String {
    let trimmed = body.trim();
    if trimmed.len() <= 200 {
        return trimmed.to_string();
    }
    let mut end = 200;
    while !trimmed.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &trimmed[..end])
}

/// Registration-time compatibility probe against `/v1/healthz`.
fn probe(addr: &str, expect: &Handshake) -> Result<(), String> {
    let mut client = Client::connect_with_timeout(addr, PROBE_READ_TIMEOUT)
        .map_err(|e| format!("unreachable: {e}"))?;
    let (status, body) = client
        .request("GET", "/v1/healthz", "")
        .map_err(|e| format!("healthz failed: {e}"))?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }
    let json = Json::parse(&body).map_err(|e| format!("healthz unparseable: {e}"))?;
    let text = |key: &str| json.get(key).and_then(Json::as_str);
    if text("status") != Some("ok") {
        return Err(format!(
            "worker is {}",
            text("status").unwrap_or("in an unknown state")
        ));
    }
    let check_num = |key: &str, want: u64| -> Result<(), String> {
        match json.get(key) {
            None => Err(format!(
                "worker does not advertise {key} (upgrade the worker)"
            )),
            Some(value) => match value.as_u64() {
                Some(got) if got == want => Ok(()),
                Some(got) => Err(format!("{key} mismatch: worker has {got}, expected {want}")),
                None => Err(format!(
                    "worker advertises {key} as {}, not an integer",
                    value.render_compact()
                )),
            },
        }
    };
    check_num("schema_version", expect.schema_version)?;
    check_num("seed", expect.seed)?;
    check_num("num_ases", expect.num_ases)?;
    match text("scale") {
        Some(got) if got == expect.scale => Ok(()),
        Some(got) => Err(format!(
            "scale mismatch: worker runs {got:?}, expected {:?}",
            expect.scale
        )),
        None => Err("worker does not advertise scale".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::serve_script;

    #[test]
    fn worker_urls_normalize() {
        assert_eq!(normalize_addr("http://h1:8080"), "h1:8080");
        assert_eq!(normalize_addr("h1:8080/"), "h1:8080");
        assert_eq!(normalize_addr(" http://h1:8080/ "), "h1:8080");
    }

    #[test]
    fn unreachable_workers_are_rejected_not_fatal() {
        // Port 9 (discard) on localhost is a safe nothing-listens bet.
        let config = FanoutConfig::new(vec!["127.0.0.1:9".to_string()]);
        let expect = Handshake {
            schema_version: 1,
            scale: "quick".to_string(),
            seed: 2014,
            num_ases: 100,
        };
        let coordinator = Coordinator::connect(config, &expect);
        assert_eq!(coordinator.live_workers(), 0);
        assert_eq!(coordinator.rejected().len(), 1);
        let req = SweepRequest {
            target_asn: 1,
            pool_asns: vec![2, 3],
            validator_asns: Vec::new(),
            stub_defense: false,
        };
        assert_eq!(
            coordinator.run_sweep(&req, &NoopObserver),
            Err(FanoutError::NoWorkers)
        );
    }

    fn coordinator_for(workers: Vec<Worker>) -> Coordinator {
        Coordinator {
            config: FanoutConfig::new(Vec::new()),
            workers,
            rejected: Vec::new(),
            nonce: 0,
            sweep_seq: AtomicU64::new(0),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            shards_retried: AtomicU64::new(0),
        }
    }

    #[test]
    fn empty_pool_short_circuits() {
        let coordinator = coordinator_for(vec![Worker::new("unused:0".to_string())]);
        let req = SweepRequest {
            target_asn: 1,
            pool_asns: Vec::new(),
            validator_asns: Vec::new(),
            stub_defense: false,
        };
        assert_eq!(coordinator.run_sweep(&req, &NoopObserver), Ok(Vec::new()));
    }

    fn two_attackers() -> SweepRequest {
        SweepRequest {
            target_asn: 1,
            pool_asns: vec![2, 3],
            validator_asns: vec![7],
            stub_defense: true,
        }
    }

    /// A worker's numbers are read strictly: a count that is negative,
    /// fractional, out of range or not a number fails the shard (to be
    /// re-queued like any failed dispatch) with a message naming the
    /// field. The parent coerced them: -3 merged as 0, 1e12 as u32::MAX,
    /// 2.7 as 2.
    #[test]
    fn a_lying_batch_worker_fails_the_shard() {
        let honest = "{\"result\":{\"pollution_count\":4}}";
        let (addr, stub) = serve_script(vec![format!(
            "{{\"results\":[{honest},{{\"result\":{{\"pollution_count\":5}}}}]}}"
        )]);
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(
            dispatch_batch(&mut client, &two_attackers()).unwrap(),
            vec![4, 5]
        );
        let seen = stub.join().unwrap();
        assert!(seen.starts_with("POST /v1/attacks:batch "), "{seen}");
        assert!(
            seen.ends_with(
                "{\"defense\":{\"validators\":[7],\"stub_defense\":true},\"attacks\":[\
                 {\"attacker\":2,\"target\":1},{\"attacker\":3,\"target\":1}]}"
            ),
            "{seen}"
        );
        for lie in ["-3", "1e12", "2.7", "\"7\"", "null", "4294967296"] {
            let body =
                format!("{{\"results\":[{honest},{{\"result\":{{\"pollution_count\":{lie}}}}}]}}");
            let (addr, stub) = serve_script(vec![body]);
            let mut client = Client::connect(&addr).unwrap();
            match dispatch_batch(&mut client, &two_attackers()) {
                Err(ShardError::Failed(message)) => {
                    assert!(
                        message.contains("result.pollution_count"),
                        "{lie}: {message}"
                    );
                }
                other => panic!("{lie} must fail the shard, got {other:?}"),
            }
            stub.join().unwrap();
        }
    }

    #[test]
    fn a_lying_sweep_worker_fails_the_shard() {
        let coordinator = coordinator_for(Vec::new());
        let req = two_attackers();
        let ctx = RunCtx {
            req: &req,
            plan: ShardPlan::new(2, 1),
            states: vec![ShardState::default()],
            queue: Mutex::new(VecDeque::new()),
            done_count: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            last_error: Mutex::new(String::new()),
            observer: &NoopObserver,
            key_base: "fo0-0".to_string(),
        };
        let script = |counts: &str| {
            serve_script(vec![
                "{\"id\":\"job-1\"}".to_string(),
                "{\"state\":\"done\"}".to_string(),
                format!("{{\"result\":{{\"counts\":{counts}}}}}"),
            ])
        };
        let (addr, stub) = script("[4,5]");
        let mut client = Client::connect(&addr).unwrap();
        let rows = coordinator.dispatch_sweep(&mut client, &ctx, "fo0-0-shard0", &req);
        assert_eq!(rows.unwrap(), vec![4, 5]);
        let seen = stub.join().unwrap();
        assert!(seen.contains("Idempotency-Key: fo0-0-shard0\r\n"), "{seen}");
        assert!(
            seen.contains(
                "{\"target\":1,\"attackers\":[2,3],\
                 \"defense\":{\"validators\":[7],\"stub_defense\":true}}"
            ),
            "{seen}"
        );
        for lie in ["[4,-3]", "[4,1e12]", "[4,2.7]", "[4,\"7\"]"] {
            let (addr, stub) = script(lie);
            let mut client = Client::connect(&addr).unwrap();
            match coordinator.dispatch_sweep(&mut client, &ctx, "fo0-0-shard0", &req) {
                Err(ShardError::Failed(message)) => {
                    assert!(message.contains("result.counts"), "{lie}: {message}");
                }
                other => panic!("{lie} must fail the shard, got {other:?}"),
            }
            stub.join().unwrap();
        }
    }

    #[test]
    fn a_fractional_handshake_is_rejected() {
        let expect = Handshake {
            schema_version: 1,
            scale: "quick".to_string(),
            seed: 2014,
            num_ases: 100,
        };
        let healthz = |seed: &str| {
            format!(
                "{{\"status\":\"ok\",\"schema_version\":1,\"scale\":\"quick\",\
                 \"seed\":{seed},\"num_ases\":100}}"
            )
        };
        let (addr, stub) = serve_script(vec![healthz("2014")]);
        assert_eq!(probe(&addr, &expect), Ok(()));
        stub.join().unwrap();
        // The parent read 2014.5 as 2014 and registered the worker.
        for lie in ["2014.5", "-2014", "\"2014\""] {
            let (addr, stub) = serve_script(vec![healthz(lie)]);
            let reason = probe(&addr, &expect).unwrap_err();
            assert!(reason.contains("seed"), "{lie}: {reason}");
            stub.join().unwrap();
        }
    }

    #[test]
    fn defense_reader_inverts_its_writer_and_canonicalizes() {
        // Identity on canonical (sorted, deduplicated) input...
        for (validators, stub) in [
            (vec![], false),
            (vec![], true),
            (vec![1, 7, 4_000_000_000], false),
            (vec![3], true),
        ] {
            let wire = defense_to_json(&validators, stub);
            assert_eq!(defense_from_json(Some(&wire)), Ok((validators, stub)));
        }
        // ...and everything else lands on the canonical form.
        let wire = defense_to_json(&[9, 2, 9, 5, 2], true);
        assert_eq!(defense_from_json(Some(&wire)), Ok((vec![2, 5, 9], true)));
        assert_eq!(defense_from_json(None), Ok((vec![], false)));
        assert_eq!(defense_from_json(Some(&Json::Null)), Ok((vec![], false)));
        let sparse = Json::parse("{\"validators\":null}").unwrap();
        assert_eq!(defense_from_json(Some(&sparse)), Ok((vec![], false)));
        for (bad, field) in [
            ("7", "\"defense\""),
            ("{\"validators\":7}", "defense.validators"),
            ("{\"validators\":[1,-2]}", "defense.validators"),
            ("{\"validators\":[1.5]}", "defense.validators"),
            ("{\"stub_defense\":1}", "defense.stub_defense"),
        ] {
            let err = defense_from_json(Some(&Json::parse(bad).unwrap())).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
    }

    #[test]
    fn stats_render_as_the_manifest_section() {
        let stats = FanoutStats {
            workers: vec![WorkerStats {
                addr: "127.0.0.1:8091".to_string(),
                alive: true,
                shards_dispatched: 5,
                shards_completed: 4,
                failures: 1,
                wall_us_sum: 12_345,
                wall_hist: vec![0; WALL_HIST_BUCKETS],
            }],
            rejected: vec![("127.0.0.1:9".to_string(), "unreachable".to_string())],
            shards_total: 4,
            shards_done: 4,
            shards_retried: 1,
            shards_hedged: 0,
        };
        assert_eq!(
            stats.to_json().render_compact(),
            "{\"workers\":[{\"addr\":\"127.0.0.1:8091\",\"alive\":true,\"shards_dispatched\":5,\
             \"shards_completed\":4,\"failures\":1,\"wall_us_sum\":12345}],\
             \"rejected\":[{\"addr\":\"127.0.0.1:9\",\"reason\":\"unreachable\"}],\
             \"shards_total\":4,\"shards_done\":4,\"shards_retried\":1}"
        );
    }
}
