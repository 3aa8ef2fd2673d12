//! Server-side counters and the Prometheus text exposition.
//!
//! Two counter banks feed `GET /v1/metrics`:
//!
//! * [`ServerMetrics`] (this module): HTTP-layer counters — requests and
//!   status classes per endpoint, per-endpoint latency histograms,
//!   connection accounting, queue depth.
//! * [`bgpsim_hijack::SweepTelemetry`] (shared with the CLI): simulation
//!   counters — dispatch per engine, messages, cones, per-attack wall
//!   times.
//!
//! Latency histograms reuse the sweep telemetry's log₂ bucketing
//! ([`wall_bucket`], microseconds) so client-observed and engine-observed
//! latencies line up bucket-for-bucket; the exposition converts the bank
//! to Prometheus' cumulative `le` form.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bgpsim_fanout::FanoutStats;
use bgpsim_hijack::{wall_bucket, TelemetrySnapshot, WALL_HIST_BUCKETS};

use crate::cache::CacheStats;
use crate::jobs::{JobCounts, SchedulerStats};

/// The routable endpoints, for per-endpoint labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `POST /v1/attacks`.
    Attacks,
    /// `POST /v1/attacks:batch`.
    AttacksBatch,
    /// `POST /v1/sweeps`.
    Sweeps,
    /// `GET|DELETE /v1/jobs/:id`.
    Jobs,
    /// `GET /v1/results/:id`.
    Results,
    /// `POST /v1/stream` and `GET /v1/stream/:id/range`.
    Stream,
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/metrics`.
    Metrics,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

impl Endpoint {
    /// Every endpoint, exposition order.
    pub(crate) const ALL: [Endpoint; 10] = [
        Endpoint::Attacks,
        Endpoint::AttacksBatch,
        Endpoint::Sweeps,
        Endpoint::Jobs,
        Endpoint::Results,
        Endpoint::Stream,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// Prometheus label value.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Endpoint::Attacks => "attacks",
            Endpoint::AttacksBatch => "attacks_batch",
            Endpoint::Sweeps => "sweeps",
            Endpoint::Jobs => "jobs",
            Endpoint::Results => "results",
            Endpoint::Stream => "stream",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Attacks => 0,
            Endpoint::AttacksBatch => 1,
            Endpoint::Sweeps => 2,
            Endpoint::Jobs => 3,
            Endpoint::Results => 4,
            Endpoint::Stream => 5,
            Endpoint::Healthz => 6,
            Endpoint::Metrics => 7,
            Endpoint::Shutdown => 8,
            Endpoint::Other => 9,
        }
    }
}

/// Per-endpoint request accounting.
#[derive(Debug, Default)]
struct EndpointStats {
    requests: AtomicU64,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency_hist: [AtomicU64; WALL_HIST_BUCKETS],
    latency_sum_us: AtomicU64,
}

/// HTTP-layer counter bank, shared read-mostly across worker threads.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    endpoints: [EndpointStats; 10],
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    malformed_requests: AtomicU64,
    in_flight: AtomicU64,
    // Signed: the increment (acceptor thread) and decrement (worker
    // claiming the connection) race, so the raw value can transiently dip
    // below zero. An unsigned gauge would wrap to ~2^64 at that moment.
    queue_depth: AtomicI64,
    // Stream-job activity: events the executor processed (ticked live,
    // so /v1/metrics shows mid-stream progress) and per-run outcomes.
    stream_events: AtomicU64,
    stream_runs: AtomicU64,
    stream_injected: AtomicU64,
    stream_detected: AtomicU64,
    started: Instant,
}

impl ServerMetrics {
    /// A zeroed bank; `started` anchors the uptime gauge.
    pub(crate) fn new() -> ServerMetrics {
        ServerMetrics {
            endpoints: Default::default(),
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            malformed_requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            stream_events: AtomicU64::new(0),
            stream_runs: AtomicU64::new(0),
            stream_injected: AtomicU64::new(0),
            stream_detected: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Counts one stream event processed by the executor.
    pub(crate) fn stream_event(&self) {
        self.stream_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a finished (or cancelled) stream run's detection outcome.
    pub(crate) fn stream_finished(&self, injected: u64, detected: u64) {
        self.stream_runs.fetch_add(1, Ordering::Relaxed);
        self.stream_injected.fetch_add(injected, Ordering::Relaxed);
        self.stream_detected.fetch_add(detected, Ordering::Relaxed);
    }

    /// Counts one accepted connection.
    pub(crate) fn connection_accepted(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection turned away with 503 (queue full).
    pub(crate) fn connection_rejected(&self) {
        self.rejected_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one unframable request (parse error, oversized head/body).
    pub(crate) fn malformed_request(&self) {
        self.malformed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjusts the accepted-but-unclaimed connection gauge.
    pub(crate) fn queue_changed(&self, delta: i64) {
        self.queue_depth.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current queue depth, clamped at zero: a decrement racing ahead of
    /// its increment reads as empty, never as ~2^64 pending connections.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// Marks a request entering a handler; the guard decrements on drop.
    pub(crate) fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Records one handled request.
    pub(crate) fn observe(&self, endpoint: Endpoint, status: u16, wall: Duration) {
        let stats = &self.endpoints[endpoint.index()];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &stats.status_2xx,
            400..=499 => &stats.status_4xx,
            _ => &stats.status_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        stats.latency_hist[wall_bucket(us)].fetch_add(1, Ordering::Relaxed);
        stats.latency_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Seconds since the bank was created (server start).
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

/// Decrements the in-flight gauge when a handler exits (however it
/// exits).
pub(crate) struct InFlightGuard<'a> {
    metrics: &'a ServerMetrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One sample line: `name{labels} value`, or `name value` without labels.
fn line(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// The `# HELP` / `# TYPE` pair that opens a metric family.
fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// A family of one unlabelled sample.
fn single(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    header(out, name, kind, help);
    line(out, name, "", value);
}

/// One log₂ wall-time bank in Prometheus' cumulative form: a `_bucket`
/// line per finite bound (bucket i counts samples below 2^i µs, so
/// `le="2^i"`), the `+Inf` bucket, `_sum` when the bank keeps one, and
/// `_count`. `labels` (possibly empty) precede `le` on every line.
fn histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    buckets: impl Iterator<Item = u64>,
    sum: Option<u64>,
) {
    let le = |bound: &str| match labels {
        "" => format!("le=\"{bound}\""),
        _ => format!("{labels},le=\"{bound}\""),
    };
    let bucket = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, count) in buckets.enumerate() {
        cumulative += count;
        if i + 1 < WALL_HIST_BUCKETS {
            line(out, &bucket, &le(&(1u64 << i).to_string()), cumulative);
        }
    }
    line(out, &bucket, &le("+Inf"), cumulative);
    if let Some(sum) = sum {
        line(out, &format!("{name}_sum"), labels, sum);
    }
    line(out, &format!("{name}_count"), labels, cumulative);
}

/// Renders the full Prometheus text exposition: HTTP counters, baseline
/// cache, job states, and the shared simulation telemetry.
pub(crate) fn render_prometheus(
    metrics: &ServerMetrics,
    cache: &CacheStats,
    jobs: &JobCounts,
    scheduler: &SchedulerStats,
    telemetry: &TelemetrySnapshot,
) -> String {
    let mut out = String::with_capacity(8 * 1024);

    // -- HTTP layer ------------------------------------------------------
    header(
        &mut out,
        "bgpsim_http_requests_total",
        "counter",
        "Handled requests by endpoint and status class.",
    );
    for endpoint in Endpoint::ALL {
        let stats = &metrics.endpoints[endpoint.index()];
        if stats.requests.load(Ordering::Relaxed) == 0 {
            continue;
        }
        for (class, counter) in [
            ("2xx", &stats.status_2xx),
            ("4xx", &stats.status_4xx),
            ("5xx", &stats.status_5xx),
        ] {
            let value = counter.load(Ordering::Relaxed);
            if value > 0 {
                line(
                    &mut out,
                    "bgpsim_http_requests_total",
                    &format!("endpoint=\"{}\",code=\"{class}\"", endpoint.label()),
                    value,
                );
            }
        }
    }
    header(
        &mut out,
        "bgpsim_http_request_duration_us",
        "histogram",
        "Request handling latency by endpoint, log2 buckets (microseconds).",
    );
    for endpoint in Endpoint::ALL {
        let stats = &metrics.endpoints[endpoint.index()];
        if stats.requests.load(Ordering::Relaxed) == 0 {
            continue;
        }
        histogram(
            &mut out,
            "bgpsim_http_request_duration_us",
            &format!("endpoint=\"{}\"", endpoint.label()),
            stats.latency_hist.iter().map(|b| b.load(Ordering::Relaxed)),
            Some(stats.latency_sum_us.load(Ordering::Relaxed)),
        );
    }
    for (name, help, value) in [
        (
            "bgpsim_http_connections_total",
            "Connections accepted.",
            metrics.connections.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_http_rejected_connections_total",
            "Connections turned away with 503 (worker queue full).",
            metrics.rejected_connections.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_http_malformed_requests_total",
            "Requests that could not be framed.",
            metrics.malformed_requests.load(Ordering::Relaxed),
        ),
    ] {
        single(&mut out, name, "counter", help, value);
    }
    for (name, help, value) in [
        (
            "bgpsim_http_in_flight",
            "Requests currently inside a handler.",
            metrics.in_flight.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_http_queue_depth",
            "Accepted connections waiting for a worker.",
            metrics.queue_depth(),
        ),
        (
            "bgpsim_uptime_seconds",
            "Seconds since the server started.",
            metrics.uptime().as_secs(),
        ),
    ] {
        single(&mut out, name, "gauge", help, value);
    }

    // -- Baseline cache --------------------------------------------------
    header(
        &mut out,
        "bgpsim_baseline_cache_lookups_total",
        "counter",
        "Baseline cache lookups by outcome (hit, miss, coalesced with an in-flight build).",
    );
    for (outcome, value) in [
        ("hit", cache.hits),
        ("miss", cache.misses),
        ("coalesced", cache.coalesced),
    ] {
        line(
            &mut out,
            "bgpsim_baseline_cache_lookups_total",
            &format!("outcome=\"{outcome}\""),
            value,
        );
    }
    single(
        &mut out,
        "bgpsim_baseline_cache_evictions_total",
        "counter",
        "Baselines evicted by the LRU bound.",
        cache.evictions,
    );
    single(
        &mut out,
        "bgpsim_baseline_cache_entries",
        "gauge",
        "Baselines currently resident (including in-flight builds).",
        cache.entries as u64,
    );
    single(
        &mut out,
        "bgpsim_baseline_cache_bytes",
        "gauge",
        "Summed heap bytes of resident ready baselines.",
        cache.bytes,
    );

    // -- Jobs ------------------------------------------------------------
    header(
        &mut out,
        "bgpsim_jobs",
        "gauge",
        "Retained sweep jobs by state.",
    );
    for (state, value) in [
        ("queued", jobs.queued),
        ("running", jobs.running),
        ("done", jobs.done),
        ("cancelled", jobs.cancelled),
        ("failed", jobs.failed),
    ] {
        line(
            &mut out,
            "bgpsim_jobs",
            &format!("state=\"{state}\""),
            value as u64,
        );
    }
    for (name, help, value) in [
        (
            "bgpsim_jobs_chunks_total",
            "Sweep chunks executed by the fair-share scheduler.",
            scheduler.chunks_executed,
        ),
        (
            "bgpsim_jobs_persisted_total",
            "Terminal job records written to the state directory.",
            scheduler.jobs_persisted,
        ),
        (
            "bgpsim_jobs_restored_total",
            "Job records reloaded from the state directory at boot.",
            scheduler.jobs_restored,
        ),
        (
            "bgpsim_state_files_quarantined_total",
            "Unreadable state files moved to quarantine/ at boot.",
            scheduler.files_quarantined,
        ),
    ] {
        single(&mut out, name, "counter", help, value);
    }

    // -- Update streams --------------------------------------------------
    for (name, help, value) in [
        (
            "bgpsim_stream_events_total",
            "Update-stream events processed by the executor (ticks live mid-stream).",
            metrics.stream_events.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_stream_runs_total",
            "Stream jobs executed to completion or cancellation.",
            metrics.stream_runs.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_stream_hijacks_injected_total",
            "Ground-truth hijacks injected across stream runs.",
            metrics.stream_injected.load(Ordering::Relaxed),
        ),
        (
            "bgpsim_stream_hijacks_detected_total",
            "Injected hijacks some probe eventually saw.",
            metrics.stream_detected.load(Ordering::Relaxed),
        ),
    ] {
        single(&mut out, name, "counter", help, value);
    }

    // -- Simulation telemetry (shared bank with the CLI) -----------------
    header(
        &mut out,
        "bgpsim_sim_dispatch_total",
        "counter",
        "Attacks dispatched, by engine.",
    );
    for (engine, value) in [
        ("race", telemetry.race_dispatches),
        ("scratch", telemetry.scratch_dispatches),
        ("delta", telemetry.delta_dispatches),
    ] {
        line(
            &mut out,
            "bgpsim_sim_dispatch_total",
            &format!("engine=\"{engine}\""),
            value,
        );
    }
    for (name, help, value) in [
        (
            "bgpsim_sim_attacks_total",
            "Attacks simulated.",
            telemetry.attacks,
        ),
        (
            "bgpsim_sim_attacks_skipped_total",
            "Attacks skipped after a cancellation.",
            telemetry.skipped,
        ),
        (
            "bgpsim_sim_baselines_built_total",
            "Shared target baselines constructed.",
            telemetry.baselines_built,
        ),
        (
            "bgpsim_sim_baseline_bytes_total",
            "Summed heap bytes of every baseline built.",
            telemetry.baseline_bytes,
        ),
        (
            "bgpsim_sim_engine_runs_total",
            "Engine re-convergences observed.",
            telemetry.engine.runs,
        ),
        (
            "bgpsim_sim_engine_messages_total",
            "Route announcements processed.",
            telemetry.engine.messages,
        ),
        (
            "bgpsim_sim_cone_sum_total",
            "Summed contamination-cone sizes over delta dispatches.",
            telemetry.cone_sum,
        ),
        (
            "bgpsim_sim_replays_abandoned_total",
            "Replays abandoned over their cone budget and finished from scratch.",
            telemetry.replays_abandoned,
        ),
    ] {
        single(&mut out, name, "counter", help, value);
    }
    single(
        &mut out,
        "bgpsim_sim_cone_max",
        "gauge",
        "Largest contamination cone seen in a delta dispatch.",
        telemetry.cone_max,
    );
    single(
        &mut out,
        "bgpsim_sim_baseline_bytes_peak",
        "gauge",
        "Largest single baseline heap footprint built so far.",
        telemetry.baseline_bytes_peak,
    );
    header(
        &mut out,
        "bgpsim_sim_attack_duration_us",
        "histogram",
        "Per-attack wall time, log2 buckets (microseconds).",
    );
    histogram(
        &mut out,
        "bgpsim_sim_attack_duration_us",
        "",
        telemetry.wall_hist.iter().copied(),
        None,
    );
    out
}

/// Renders the coordinator's fan-out section, appended to the main
/// exposition when the server was booted with `--fanout-workers`.
pub(crate) fn render_fanout(stats: &FanoutStats) -> String {
    let mut out = String::with_capacity(2 * 1024);
    header(
        &mut out,
        "bgpsim_fanout_workers",
        "gauge",
        "Registered fan-out workers by state (rejected = failed the boot handshake).",
    );
    let alive = stats.workers.iter().filter(|w| w.alive).count() as u64;
    for (state, value) in [
        ("alive", alive),
        ("dead", stats.workers.len() as u64 - alive),
        ("rejected", stats.rejected.len() as u64),
    ] {
        line(
            &mut out,
            "bgpsim_fanout_workers",
            &format!("state=\"{state}\""),
            value,
        );
    }
    header(
        &mut out,
        "bgpsim_fanout_shards_total",
        "counter",
        "Shards by outcome across all fanned-out sweeps (planned, done, retried).",
    );
    for (outcome, value) in [
        ("planned", stats.shards_total),
        ("done", stats.shards_done),
        ("retried", stats.shards_retried),
    ] {
        line(
            &mut out,
            "bgpsim_fanout_shards_total",
            &format!("outcome=\"{outcome}\""),
            value,
        );
    }
    header(
        &mut out,
        "bgpsim_fanout_worker_shards_total",
        "counter",
        "Per-worker shard dispatch accounting.",
    );
    for worker in &stats.workers {
        for (outcome, value) in [
            ("dispatched", worker.shards_dispatched),
            ("completed", worker.shards_completed),
            ("failed", worker.failures),
        ] {
            line(
                &mut out,
                "bgpsim_fanout_worker_shards_total",
                &format!("worker=\"{}\",outcome=\"{outcome}\"", worker.addr),
                value,
            );
        }
    }
    header(
        &mut out,
        "bgpsim_fanout_shard_duration_us",
        "histogram",
        "Per-worker successful shard round-trip wall time, log2 buckets (microseconds).",
    );
    for worker in &stats.workers {
        if worker.shards_completed == 0 {
            continue;
        }
        histogram(
            &mut out,
            "bgpsim_fanout_shard_duration_us",
            &format!("worker=\"{}\"", worker.addr),
            worker.wall_hist.iter().copied(),
            Some(worker.wall_us_sum),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_fanout::WorkerStats;
    use bgpsim_hijack::SweepTelemetry;

    #[test]
    fn observe_classifies_and_buckets() {
        let metrics = ServerMetrics::new();
        metrics.observe(Endpoint::Attacks, 200, Duration::from_micros(3));
        metrics.observe(Endpoint::Attacks, 422, Duration::from_micros(900));
        metrics.observe(Endpoint::Other, 500, Duration::from_micros(1));
        let stats = &metrics.endpoints[Endpoint::Attacks.index()];
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.status_2xx.load(Ordering::Relaxed), 1);
        assert_eq!(stats.status_4xx.load(Ordering::Relaxed), 1);
        assert_eq!(stats.latency_sum_us.load(Ordering::Relaxed), 903);
        assert_eq!(
            stats.latency_hist[wall_bucket(3)].load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn queue_gauge_never_underflows() {
        let metrics = ServerMetrics::new();
        // A decrement observed before its matching increment (the acceptor
        // and worker threads race) must read as empty, not ~2^64.
        metrics.queue_changed(-1);
        assert_eq!(metrics.queue_depth(), 0);
        // The raw value is still -1, so the late increment rebalances to
        // exactly zero instead of sticking at a phantom +1.
        metrics.queue_changed(1);
        assert_eq!(metrics.queue_depth(), 0);
        metrics.queue_changed(3);
        metrics.queue_changed(-1);
        assert_eq!(metrics.queue_depth(), 2);
    }

    #[test]
    fn in_flight_guard_balances() {
        let metrics = ServerMetrics::new();
        {
            let _a = metrics.begin_request();
            let _b = metrics.begin_request();
            assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 2);
        }
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
    }

    /// The exposition for a fixed snapshot, fan-out section included:
    /// well-formed, and byte for byte what the build before the shared
    /// `histogram` / `line` / `header` renderers wrote for it (the fixture),
    /// less the hedging series, which went with hedging.
    #[test]
    fn exposition_is_wellformed() {
        let metrics = ServerMetrics::new();
        metrics.observe(Endpoint::Attacks, 200, Duration::from_micros(5));
        metrics.observe(Endpoint::Attacks, 422, Duration::from_micros(900));
        metrics.observe(Endpoint::Jobs, 200, Duration::from_micros(70));
        metrics.observe(Endpoint::Other, 500, Duration::from_micros(1));
        metrics.connection_accepted();
        metrics.stream_event();
        metrics.stream_finished(4, 3);
        let telemetry = SweepTelemetry::new();
        telemetry.record_attack_wall(Duration::from_micros(5));
        telemetry.record_attack_wall(Duration::from_micros(300));
        telemetry.record_abandoned();
        let mut text = render_prometheus(
            &metrics,
            &CacheStats {
                hits: 2,
                misses: 1,
                coalesced: 3,
                evictions: 0,
                entries: 1,
                bytes: 4096,
            },
            &JobCounts::default(),
            &SchedulerStats {
                chunks_executed: 4,
                jobs_persisted: 2,
                jobs_restored: 1,
                files_quarantined: 0,
            },
            &telemetry.snapshot(),
        );
        let wall_hist = |samples: &[(usize, u64)]| {
            let mut hist = vec![0u64; WALL_HIST_BUCKETS];
            for &(bucket, count) in samples {
                hist[bucket] = count;
            }
            hist
        };
        text.push_str(&render_fanout(&FanoutStats {
            workers: vec![
                WorkerStats {
                    addr: "127.0.0.1:8091".to_string(),
                    alive: true,
                    shards_dispatched: 5,
                    shards_completed: 4,
                    failures: 1,
                    wall_us_sum: 12_345,
                    wall_hist: wall_hist(&[(10, 1), (12, 3)]),
                },
                WorkerStats {
                    addr: "127.0.0.1:8092".to_string(),
                    alive: false,
                    shards_dispatched: 3,
                    shards_completed: 0,
                    failures: 3,
                    wall_us_sum: 0,
                    wall_hist: wall_hist(&[]),
                },
            ],
            rejected: vec![("127.0.0.1:9".to_string(), "unreachable".to_string())],
            shards_total: 8,
            shards_done: 4,
            shards_retried: 3,
            shards_hedged: 0,
        }));
        // Every non-comment line is `name{labels} value` or `name value`.
        for l in text.lines() {
            if l.starts_with('#') {
                continue;
            }
            let (metric, value) = l.rsplit_once(' ').expect("metric line has a value");
            assert!(!metric.is_empty());
            assert!(
                value.parse::<u64>().is_ok(),
                "unparseable value in line {l:?}"
            );
        }
        // Cumulative le buckets are monotone.
        let mut last = 0u64;
        for l in text.lines() {
            if l.starts_with("bgpsim_sim_attack_duration_us_bucket") {
                let v: u64 = l.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(v >= last);
                last = v;
            }
        }
        let parent = include_str!("../tests/fixtures/metrics_exposition.txt")
            .replace(
                "(planned, done, retried, hedged).",
                "(planned, done, retried).",
            )
            .replace("bgpsim_fanout_shards_total{outcome=\"hedged\"} 0\n", "");
        assert_eq!(text, parent);
    }
}
