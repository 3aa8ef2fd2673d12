//! Endpoint handlers: JSON in, JSON out.
//!
//! The wire schema addresses ASes by **ASN** (the generated topology's
//! stable ids), never by internal index; handlers resolve ASNs through
//! [`bgpsim_topology::Topology::index_of`] and answer 422 for unknown
//! ones. Request bodies parse through the manifest crate's
//! [`Json::parse`] (the same bidirectional JSON the run manifests use),
//! so server documents and CLI manifests share one dialect.
//!
//! See `DESIGN.md` §13 for the full endpoint schema and the
//! byte-identity contract: the `result` sub-object of every response is a
//! pure function of (topology, attack, defense) — engine choice and
//! cache state only ever show up under `meta`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bgpsim_core::manifest::{stream_summary_json, Json, SCHEMA_VERSION};
use bgpsim_core::stream::{StreamConfig, StreamPlan, StreamStore};
use bgpsim_fanout::{defense_from_json, defense_to_json, SweepRequest};
use bgpsim_hijack::{
    Attack, AttackKind, AttackOutcome, Defense, Dispatch, SweepMonitor, SweepTelemetry,
    VulnerabilityCurve,
};
use bgpsim_routing::{ConvergenceStats, Observer};
use bgpsim_topology::{AsId, AsIndex, Topology};
use rayon::prelude::*;

use crate::http::{Request, Response};
use crate::jobs::{Job, JobSpec, JobState, StreamSpec, SubmitError, SweepSpec, ETA_UNKNOWN};
use crate::metrics::{render_prometheus, Endpoint};
use crate::{CachedBaseline, ServerState};

/// Attacker ASNs advertised in `/v1/healthz` for load generators.
const SAMPLE_ATTACKERS: usize = 64;

/// Most jobs rendered by `GET /v1/jobs` (newest first); the registry
/// retains more, but an enumeration response stays bounded.
const MAX_LISTED_JOBS: usize = 100;

/// Longest accepted idempotency key — keys are retained verbatim, so an
/// unbounded key would be a memory lever.
const MAX_IDEMPOTENCY_KEY_LEN: usize = 256;

/// Largest accepted `POST /v1/attacks:batch` batch. Big enough for a
/// whole transit-pool what-if in one request, small enough that a single
/// request cannot pin the rayon pool for minutes.
pub(crate) const MAX_BATCH_ATTACKS: usize = 4096;

/// Largest accepted `POST /v1/stream` event count. One event is one
/// detector pass; 100k events at quick scale is under a minute of
/// executor time, so a single stream cannot monopolize the job ring.
pub(crate) const MAX_STREAM_EVENTS: usize = 100_000;

/// Largest integer JSON can carry without silent precision loss
/// (IEEE-754 doubles are exact up to 2^53).
const JSON_SAFE_MAX: u64 = 1 << 53;

/// A `u64` as a JSON number, clamped to the JSON-safe integer range so
/// large values degrade to a saturated bound instead of silently rounding
/// to a nearby representable double.
fn json_u64(value: u64) -> Json {
    Json::Num(value.min(JSON_SAFE_MAX) as f64)
}

/// An error response in the making.
#[derive(Debug)]
struct ApiError {
    status: u16,
    message: String,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            message: message.into(),
        }
    }
}

fn error_body(message: &str) -> String {
    let mut body = Json::obj([("error", Json::str(message))]).render_compact();
    body.push('\n');
    body
}

fn json_response(status: u16, json: &Json) -> Response {
    let mut body = json.render_compact();
    body.push('\n');
    Response::json(status, body)
}

/// Routes one framed request to its handler; the endpoint tag feeds the
/// per-endpoint metrics.
pub(crate) fn dispatch(state: &ServerState<'_>, request: &Request) -> (Endpoint, Response) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let (endpoint, result) = match segments.as_slice() {
        ["v1", "healthz"] => (
            Endpoint::Healthz,
            expect_method(method, "GET").and_then(|()| handle_healthz(state)),
        ),
        ["v1", "metrics"] | ["metrics"] => (
            Endpoint::Metrics,
            expect_method(method, "GET").map(|()| handle_metrics(state)),
        ),
        ["v1", "attacks"] => (
            Endpoint::Attacks,
            expect_method(method, "POST").and_then(|()| handle_attack(state, request)),
        ),
        // One path segment: ':' is not a separator, so the whole
        // `attacks:batch` token arrives intact.
        ["v1", "attacks:batch"] => (
            Endpoint::AttacksBatch,
            expect_method(method, "POST").and_then(|()| handle_attack_batch(state, request)),
        ),
        ["v1", "sweeps"] => (
            Endpoint::Sweeps,
            expect_method(method, "POST").and_then(|()| handle_sweep_submit(state, request)),
        ),
        ["v1", "stream"] => (
            Endpoint::Stream,
            expect_method(method, "POST").and_then(|()| handle_stream_submit(state, request)),
        ),
        ["v1", "stream", id, "range"] => (
            Endpoint::Stream,
            expect_method(method, "GET").and_then(|()| handle_stream_range(state, id, request)),
        ),
        ["v1", "jobs"] => (
            Endpoint::Jobs,
            expect_method(method, "GET").and_then(|()| handle_jobs_list(state)),
        ),
        ["v1", "jobs", id] => (
            Endpoint::Jobs,
            match method {
                "GET" => handle_job_get(state, id),
                "DELETE" => handle_job_cancel(state, id),
                _ => Err(ApiError::new(
                    405,
                    format!("{method} not supported here (use GET or DELETE)"),
                )),
            },
        ),
        ["v1", "results", id] => (
            Endpoint::Results,
            expect_method(method, "GET").and_then(|()| handle_results(state, id)),
        ),
        ["v1", "shutdown"] => (
            Endpoint::Shutdown,
            expect_method(method, "POST").map(|()| handle_shutdown(state)),
        ),
        _ => (
            Endpoint::Other,
            Err(ApiError::new(
                404,
                format!("no route for {:?}", request.path),
            )),
        ),
    };
    let response = match result {
        Ok(response) => response,
        Err(e) => Response::json(e.status, error_body(&e.message)),
    };
    (endpoint, response)
}

fn expect_method(method: &str, want: &str) -> Result<(), ApiError> {
    if method == want {
        Ok(())
    } else {
        Err(ApiError::new(
            405,
            format!("{method} not supported here (use {want})"),
        ))
    }
}

// ---------------------------------------------------------------------------
// JSON plumbing

fn parse_body(request: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new(400, "request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::new(400, "request body is empty (expected JSON)"));
    }
    Json::parse(text).map_err(|e| ApiError::new(400, e.to_string()))
}

fn require_asn(json: &Json, key: &str) -> Result<u32, ApiError> {
    json.get(key)
        .ok_or_else(|| ApiError::new(422, format!("missing required field {key:?}")))?
        .as_u32()
        .ok_or_else(|| ApiError::new(422, format!("field {key:?} must be a non-negative ASN")))
}

fn resolve(topo: &Topology, asn: u32) -> Result<AsIndex, ApiError> {
    topo.index_of(AsId::new(asn))
        .ok_or_else(|| ApiError::new(422, format!("unknown ASN {asn}")))
}

fn parse_kind(json: &Json) -> Result<AttackKind, ApiError> {
    match json.get("kind") {
        None => Ok(AttackKind::OriginHijack),
        Some(Json::Str(s)) => match s.as_str() {
            "origin" => Ok(AttackKind::OriginHijack),
            "sub_prefix" => Ok(AttackKind::SubPrefixHijack),
            "forged_origin" => Ok(AttackKind::ForgedOriginHijack),
            other => Err(ApiError::new(
                422,
                format!(
                    "unknown attack kind {other:?}: valid kinds are \"origin\", \
                     \"sub_prefix\", \"forged_origin\""
                ),
            )),
        },
        Some(_) => Err(ApiError::new(422, "field \"kind\" must be a string")),
    }
}

fn kind_name(kind: AttackKind) -> &'static str {
    match kind {
        AttackKind::OriginHijack => "origin",
        AttackKind::SubPrefixHijack => "sub_prefix",
        AttackKind::ForgedOriginHijack => "forged_origin",
    }
}

/// A request's `defense`: the deployment resolved against the topology,
/// and the canonical (sorted, deduplicated) validator ASNs it came from.
struct ParsedDefense {
    defense: Defense,
    validator_asns: Vec<u32>,
}

fn parse_defense(topo: &Topology, json: &Json) -> Result<ParsedDefense, ApiError> {
    let (validator_asns, stub_defense) =
        defense_from_json(json.get("defense")).map_err(|message| ApiError::new(422, message))?;
    let validators: Vec<AsIndex> = validator_asns
        .iter()
        .map(|&asn| resolve(topo, asn))
        .collect::<Result<_, _>>()?;
    let mut defense = if validators.is_empty() {
        Defense::none()
    } else {
        Defense::validators(topo, validators)
    };
    if stub_defense {
        defense = defense.with_stub_defense();
    }
    Ok(ParsedDefense {
        defense,
        validator_asns,
    })
}

fn asn_array(topo: &Topology, indices: impl IntoIterator<Item = AsIndex>) -> Json {
    Json::Arr(
        indices
            .into_iter()
            .map(|ix| Json::Num(f64::from(topo.id_of(ix).value())))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// POST /v1/attacks

/// Forwards engine convergence counters to the shared telemetry bank.
struct TelemetrySink<'a>(&'a SweepTelemetry);

impl Observer for TelemetrySink<'_> {
    fn on_converged(&mut self, stats: &ConvergenceStats) {
        self.0.record_run(stats);
    }
}

/// The engine-invariant part of an attack response: identical bytes no
/// matter which engine or cache state produced the outcome (polluted sets
/// are pinned bit-identical across engines by the root package's
/// `differential` test). `generations`/`truncated`-style engine
/// bookkeeping deliberately stays out.
fn outcome_json(topo: &Topology, outcome: &AttackOutcome) -> Json {
    Json::obj([
        (
            "attacker",
            Json::Num(f64::from(topo.id_of(outcome.attack.attacker).value())),
        ),
        (
            "target",
            Json::Num(f64::from(topo.id_of(outcome.attack.target).value())),
        ),
        ("kind", Json::str(kind_name(outcome.attack.kind))),
        (
            "pollution_count",
            Json::Num(outcome.pollution_count() as f64),
        ),
        (
            "polluted",
            asn_array(topo, outcome.polluted.iter().copied()),
        ),
    ])
}

/// The `meta.engine` wire name of the engine that ran.
fn engine_name(dispatch: Dispatch) -> &'static str {
    match dispatch {
        Dispatch::Race => "race",
        Dispatch::Delta => "delta",
        Dispatch::Scratch => "generation",
    }
}

/// One attack document — a `/v1/attacks` body or an `attacks:batch`
/// entry: the attack, and its own defense when the document has a
/// `defense` key (a batch entry without one takes the batch default).
fn parse_attack(topo: &Topology, json: &Json) -> Result<(Attack, Option<Defense>), ApiError> {
    let attacker = resolve(topo, require_asn(json, "attacker")?)?;
    let target = resolve(topo, require_asn(json, "target")?)?;
    if attacker == target {
        return Err(ApiError::new(422, "attacker and target must differ"));
    }
    let kind = parse_kind(json)?;
    let defense = match json.get("defense") {
        None => None,
        Some(_) => Some(parse_defense(topo, json)?.defense),
    };
    let attack = Attack {
        attacker,
        target,
        kind,
    };
    Ok((attack, defense))
}

/// One answered attack: the engine-invariant `result` document, the
/// engine that ran, and how the baseline cache served it (`"bypass"`
/// when the route does not replay).
struct Answer {
    result: Json,
    engine: &'static str,
    cache: &'static str,
}

impl Answer {
    /// The `{"result", "meta"}` document; a single request's `meta` also
    /// says how long the answer took.
    fn into_json(self, wall_us: Option<u64>) -> Json {
        let mut meta = vec![
            ("engine".to_string(), Json::str(self.engine)),
            ("cache".to_string(), Json::str(self.cache)),
        ];
        if let Some(wall_us) = wall_us {
            meta.push(("wall_us".to_string(), json_u64(wall_us)));
        }
        Json::obj([("result", self.result), ("meta", Json::Obj(meta))])
    }
}

/// Answers `attacks`, in order — how `/v1/attacks` (a batch of one) and
/// `/v1/attacks:batch` both get their answers. The attacks that replay
/// fetch their baselines first, one lookup per distinct baseline
/// ([`ServerState::baselines`]; the second value returned is how many),
/// then every attack runs across the rayon pool with pooled per-worker
/// scratch space on the engine [`Simulator::route`] picks — notably the
/// closed-form race solver for undefended exact-prefix attacks.
///
/// [`Simulator::route`]: bgpsim_hijack::Simulator::route
fn answer_attacks(state: &ServerState<'_>, attacks: &[(Attack, &Defense)]) -> (Vec<Answer>, usize) {
    let topo = state.sim.topology();
    let monitor = SweepMonitor::none().with_telemetry(&state.telemetry);
    let asks = attacks
        .iter()
        .map(|&(attack, defense)| (attack.kind, attack.target, defense));
    let (cached, lookups) = state.baselines(asks, &monitor);
    let work: Vec<(Attack, &Defense, Option<CachedBaseline>)> = attacks
        .iter()
        .zip(cached)
        .map(|(&(attack, defense), cached)| (attack, defense, cached))
        .collect();
    let answers = work
        .par_iter()
        .map_init(
            || state.sim.scratch(),
            |scratch, (attack, defense, cached)| {
                let (outcome, dispatch) = state.sim.evaluate(
                    *attack,
                    defense,
                    cached.as_ref().map(|(baseline, _)| &**baseline),
                    scratch,
                    &monitor,
                    &mut TelemetrySink(&state.telemetry),
                );
                Answer {
                    result: outcome_json(topo, &outcome),
                    engine: engine_name(dispatch),
                    cache: cached
                        .as_ref()
                        .map_or("bypass", |(_, outcome)| outcome.name()),
                }
            },
        )
        .collect();
    (answers, lookups)
}

fn handle_attack(state: &ServerState<'_>, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let (attack, defense) = parse_attack(state.sim.topology(), &body)?;
    let defense = defense.unwrap_or_else(Defense::none);
    let started = Instant::now();
    let (mut answers, _) = answer_attacks(state, &[(attack, &defense)]);
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let answer = answers.pop().expect("one answer per attack");
    Ok(json_response(200, &answer.into_json(Some(wall_us))))
}

// ---------------------------------------------------------------------------
// POST /v1/attacks:batch

/// Evaluates N attack specs in one request.
///
/// Envelope problems (missing/empty/oversized `attacks` array, an
/// unparseable batch-level `defense`) fail the whole request; a bad
/// *entry* only fails that entry — its slot in `results` carries an
/// `error`/`status` object and every other entry still evaluates, through
/// [`answer_attacks`], so a batch answers at bulk-path speed, not N
/// single-request runs.
fn handle_attack_batch(state: &ServerState<'_>, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let topo = state.sim.topology();
    let items = match body.get("attacks") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err(ApiError::new(422, "field \"attacks\" must be an array")),
        None => return Err(ApiError::new(422, "missing required field \"attacks\"")),
    };
    if items.is_empty() {
        return Err(ApiError::new(422, "field \"attacks\" is empty"));
    }
    if items.len() > MAX_BATCH_ATTACKS {
        return Err(ApiError::new(
            413,
            format!(
                "batch of {} attacks exceeds the {MAX_BATCH_ATTACKS}-attack limit",
                items.len()
            ),
        ));
    }
    // The batch-level default defense is part of the envelope: if it does
    // not parse, no entry has well-defined semantics.
    let default_defense = parse_defense(topo, &body)?.defense;
    let started = Instant::now();
    let entries: Vec<Result<(Attack, Option<Defense>), ApiError>> = items
        .iter()
        .map(|item| {
            if !matches!(item, Json::Obj(_)) {
                return Err(ApiError::new(
                    422,
                    "each \"attacks\" entry must be an object",
                ));
            }
            parse_attack(topo, item)
        })
        .collect();
    let valid: Vec<(Attack, &Defense)> = entries
        .iter()
        .flatten()
        .map(|(attack, own)| (*attack, own.as_ref().unwrap_or(&default_defense)))
        .collect();
    let (answers, baseline_groups) = answer_attacks(state, &valid);
    // Error entries render in place so `results[i]` always answers
    // `attacks[i]`.
    let mut answers = answers.into_iter();
    let results: Vec<Json> = entries
        .iter()
        .map(|entry| match entry {
            Err(e) => Json::obj([
                ("error", Json::str(e.message.clone())),
                ("status", Json::Num(f64::from(e.status))),
            ]),
            Ok(_) => answers
                .next()
                .expect("one answer per valid entry")
                .into_json(None),
        })
        .collect();
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let response = Json::obj([
        ("results", Json::Arr(results)),
        (
            "meta",
            Json::obj([
                ("items", Json::Num(entries.len() as f64)),
                ("ok", Json::Num(valid.len() as f64)),
                ("failed", Json::Num((entries.len() - valid.len()) as f64)),
                ("baseline_groups", Json::Num(baseline_groups as f64)),
                ("wall_us", json_u64(wall_us)),
            ]),
        ),
    ]);
    Ok(json_response(200, &response))
}

// ---------------------------------------------------------------------------
// POST /v1/sweeps + job lifecycle

fn handle_sweep_submit(state: &ServerState<'_>, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let topo = state.sim.topology();
    let target = resolve(topo, require_asn(&body, "target")?)?;
    let parsed = parse_defense(topo, &body)?;
    let (pool, pool_kind): (Vec<AsIndex>, &'static str) = match body.get("attackers") {
        None => (state.lab.strided_transit_attackers(), "transit"),
        Some(Json::Str(s)) => match s.as_str() {
            "all" => (state.lab.strided_attackers(), "all"),
            "transit" => (state.lab.strided_transit_attackers(), "transit"),
            other => {
                return Err(ApiError::new(
                    422,
                    format!(
                        "unknown attacker pool {other:?}: use \"all\", \"transit\", \
                         or an explicit ASN array"
                    ),
                ))
            }
        },
        Some(Json::Arr(items)) => {
            let pool = items
                .iter()
                .map(|item| {
                    item.as_u32()
                        .ok_or_else(|| ApiError::new(422, "\"attackers\" entries must be ASNs"))
                        .and_then(|asn| resolve(topo, asn))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (pool, "explicit")
        }
        Some(_) => {
            return Err(ApiError::new(
                422,
                "\"attackers\" must be \"all\", \"transit\", or an ASN array",
            ))
        }
    };
    // Same pool semantics as Simulator::sweep_result_monitored: the target never
    // attacks itself, so its row is excluded rather than forced to zero.
    let pool: Vec<AsIndex> = pool.into_iter().filter(|&a| a != target).collect();
    if pool.is_empty() {
        return Err(ApiError::new(422, "attacker pool is empty"));
    }
    let spec = SweepSpec {
        target,
        request: SweepRequest {
            target_asn: topo.id_of(target).value(),
            pool_asns: pool.iter().map(|&ix| topo.id_of(ix).value()).collect(),
            validator_asns: parsed.validator_asns,
            stub_defense: parsed.defense.has_stub_defense(),
        },
        pool,
        defense: parsed.defense,
        pool_kind,
    };
    let (job, fresh) = submit(state, request, &body, JobSpec::Sweep(spec))?;
    let id = job.wire_id();
    let response = Json::obj([
        ("id", Json::str(id.clone())),
        ("state", Json::str(job.with_state(JobState::name))),
        ("total", Json::Num(job.total() as f64)),
        ("poll", Json::str(format!("/v1/jobs/{id}"))),
        ("results", Json::str(format!("/v1/results/{id}"))),
    ]);
    // 202 schedules; a duplicate idempotency key answers 200 with the
    // original job, scheduling nothing.
    Ok(json_response(if fresh { 202 } else { 200 }, &response))
}

/// Enqueues `spec` under the request's idempotency key: 429 when the
/// queue is full, 503 when the server is draining. The flag is false when
/// a duplicate key answered with the original job.
fn submit(
    state: &ServerState<'_>,
    request: &Request,
    body: &Json,
    spec: JobSpec,
) -> Result<(Arc<Job>, bool), ApiError> {
    let key = idempotency_key(request, body)?;
    state.jobs.submit(spec, key).map_err(|e| {
        let status = match e {
            SubmitError::QueueFull => 429,
            SubmitError::ShuttingDown => 503,
        };
        ApiError::new(status, e.message())
    })
}

/// Client idempotency key for a submission: the `Idempotency-Key`
/// header wins, then a `"idempotency_key"` body field; absent both, the
/// submission is unkeyed (every POST schedules).
fn idempotency_key(request: &Request, body: &Json) -> Result<Option<String>, ApiError> {
    let raw = match request.header("idempotency-key") {
        Some(value) => Some(value.to_string()),
        None => match body.get("idempotency_key") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => {
                return Err(ApiError::new(
                    422,
                    "field \"idempotency_key\" must be a string",
                ))
            }
        },
    };
    match raw {
        None => Ok(None),
        Some(key) => {
            let key = key.trim().to_string();
            if key.is_empty() {
                return Err(ApiError::new(422, "idempotency key must not be empty"));
            }
            if key.len() > MAX_IDEMPOTENCY_KEY_LEN {
                return Err(ApiError::new(
                    422,
                    format!("idempotency key exceeds {MAX_IDEMPOTENCY_KEY_LEN} bytes"),
                ));
            }
            Ok(Some(key))
        }
    }
}

/// The job a `job-<n>` path segment names, as `find` (a lookup, or a
/// cancellation) answers for its id; 404 when there is none.
fn job_named(
    wire_id: &str,
    find: impl FnOnce(u64) -> Option<Arc<Job>>,
) -> Result<Arc<Job>, ApiError> {
    find(parse_job_id(wire_id)?).ok_or_else(|| ApiError::new(404, format!("no job {wire_id:?}")))
}

fn parse_job_id(wire: &str) -> Result<u64, ApiError> {
    wire.strip_prefix("job-")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| {
            ApiError::new(
                404,
                format!("malformed job id {wire:?} (expected \"job-<n>\")"),
            )
        })
}

/// A job's `GET /v1/jobs/:id` document. Its state, terminal flag and
/// error come from one lock acquisition, so they always agree; progress
/// and ETA are the lock-free atomics executors tick.
fn job_json(job: &Job) -> Json {
    let (state, terminal, error) = job.with_state(|state| {
        let error = match state {
            JobState::Failed(message) => Some(message.clone()),
            _ => None,
        };
        (state.name(), state.is_terminal(), error)
    });
    let eta = job.eta_ms.load(Ordering::Relaxed);
    let mut pairs = vec![
        ("id".to_string(), Json::str(job.wire_id())),
        ("state".to_string(), Json::str(state)),
    ];
    match &job.spec {
        JobSpec::Sweep(spec) => {
            pairs.push(("kind".to_string(), Json::str("sweep")));
            pairs.push(("target".to_string(), Json::from(spec.request.target_asn)));
            pairs.push(("pool".to_string(), Json::str(spec.pool_kind)));
        }
        JobSpec::Stream(spec) => {
            pairs.push(("kind".to_string(), Json::str("stream")));
            pairs.push(("targets".to_string(), Json::u32s(&spec.target_asns)));
        }
    }
    pairs.extend([
        ("total".to_string(), Json::Num(job.total() as f64)),
        (
            "completed".to_string(),
            Json::Num(job.completed.load(Ordering::Relaxed) as f64),
        ),
        (
            "elapsed_ms".to_string(),
            json_u64(job.elapsed_ms.load(Ordering::Relaxed)),
        ),
        (
            "eta_ms".to_string(),
            // A terminal job has no remaining work: whatever estimate the
            // last progress tick left behind is stale, so report null
            // rather than freeze a misleading number. Live estimates clamp
            // to the 2^53 JSON-safe range — `u64 as f64` above that rounds
            // to a value that silently changes on a parse/render trip.
            if terminal || eta == ETA_UNKNOWN {
                Json::Null
            } else {
                json_u64(eta)
            },
        ),
    ]);
    // Shard progress appears only on jobs the sweep executor dealt to a
    // fan-out fleet; a purely local job never grows the object.
    let shards_total = job.shards_total.load(Ordering::Relaxed);
    if shards_total > 0 {
        pairs.push((
            "shards".to_string(),
            Json::obj([
                ("total", json_u64(shards_total)),
                ("done", json_u64(job.shards_done.load(Ordering::Relaxed))),
                (
                    "retried",
                    json_u64(job.shards_retried.load(Ordering::Relaxed)),
                ),
            ]),
        ));
    }
    if let Some(message) = error {
        pairs.push(("error".to_string(), Json::str(message)));
    }
    Json::Obj(pairs)
}

/// `GET /v1/jobs`: every retained job, newest first, capped at
/// [`MAX_LISTED_JOBS`] — operators and coordinators enumerate without
/// knowing ids, and the response stays bounded no matter the retention.
fn handle_jobs_list(state: &ServerState<'_>) -> Result<Response, ApiError> {
    let jobs = state.jobs.snapshot();
    let total = jobs.len();
    let items: Vec<Json> = jobs
        .iter()
        .rev()
        .take(MAX_LISTED_JOBS)
        .map(|job| job_json(job))
        .collect();
    let response = Json::obj([
        ("jobs", Json::Arr(items)),
        ("total", Json::Num(total as f64)),
        ("truncated", Json::Bool(total > MAX_LISTED_JOBS)),
    ]);
    Ok(json_response(200, &response))
}

fn handle_job_get(state: &ServerState<'_>, wire_id: &str) -> Result<Response, ApiError> {
    let job = job_named(wire_id, |id| state.jobs.get(id))?;
    Ok(json_response(200, &job_json(&job)))
}

fn handle_job_cancel(state: &ServerState<'_>, wire_id: &str) -> Result<Response, ApiError> {
    let job = job_named(wire_id, |id| state.jobs.cancel(id))?;
    Ok(json_response(200, &job_json(&job)))
}

fn handle_results(state: &ServerState<'_>, wire_id: &str) -> Result<Response, ApiError> {
    let job = job_named(wire_id, |id| state.jobs.get(id))?;
    job.with_state(|job_state| match job_state {
        JobState::Done(output) => {
            // A finished stream renders its summary; the per-event tape is
            // the /range endpoint's job (and is not persisted at all).
            if let JobSpec::Stream(spec) = &job.spec {
                let stream = output.stream.as_ref().ok_or_else(|| {
                    ApiError::new(
                        500,
                        format!("stream job {wire_id:?} finished without a summary"),
                    )
                })?;
                let response = Json::obj([
                    ("id", Json::str(job.wire_id())),
                    ("kind", Json::str("stream")),
                    ("targets", Json::u32s(&spec.target_asns)),
                    ("result", stream_summary_json(stream)),
                    (
                        "meta",
                        Json::obj([("wall_ms", Json::Num(output.wall_ms as f64))]),
                    ),
                ]);
                return Ok(json_response(200, &response));
            }
            let spec = job.spec.as_sweep().expect("non-stream jobs are sweeps");
            let request = &spec.request;
            let counts = &output.counts;
            let curve = VulnerabilityCurve::from_counts(counts.clone());
            let response = Json::obj([
                ("id", Json::str(job.wire_id())),
                ("target", Json::from(request.target_asn)),
                (
                    "defense",
                    defense_to_json(&request.validator_asns, request.stub_defense),
                ),
                ("pool", Json::str(spec.pool_kind)),
                (
                    "result",
                    Json::obj([
                        ("attackers", Json::u32s(&request.pool_asns)),
                        ("counts", Json::u32s(counts)),
                        (
                            "stats",
                            Json::obj([
                                ("attacks", Json::Num(curve.num_attacks() as f64)),
                                ("failed_attacks", Json::Num(curve.failed_attacks() as f64)),
                                ("max_pollution", Json::Num(f64::from(curve.max_pollution()))),
                                (
                                    "mean_successful_pollution",
                                    Json::Num(curve.mean_successful_pollution()),
                                ),
                                ("mean_pollution", Json::Num(curve.mean_pollution())),
                            ]),
                        ),
                    ]),
                ),
                (
                    "meta",
                    Json::obj([
                        ("cache", Json::str(output.cache)),
                        ("wall_ms", Json::Num(output.wall_ms as f64)),
                    ]),
                ),
            ]);
            Ok(json_response(200, &response))
        }
        other => Err(ApiError::new(
            409,
            format!(
                "job {wire_id:?} has no results (state: {}); poll /v1/jobs/{wire_id}",
                other.name()
            ),
        )),
    })
}

// ---------------------------------------------------------------------------
// POST /v1/stream + GET /v1/stream/:id/range

/// The value of `key` in a raw query string (`a=1&b=2`), if present. The
/// wire carries only identifiers and integers here, so no percent
/// decoding is needed (or done).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
}

fn query_u64(query: &str, key: &str) -> Result<Option<u64>, ApiError> {
    match query_param(query, key) {
        None | Some("") => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
            ApiError::new(
                422,
                format!("query parameter {key:?} must be a non-negative integer"),
            )
        }),
    }
}

/// Submits an update-stream job: a seeded interleave of benign churn and
/// labeled hijacks evaluated incrementally by the stream detector. The
/// body is optional — `{}` (or no body at all) runs the lab defaults;
/// `events`, `seed`, and `targets` (a tracked-target *count*, drawn
/// deterministically from the transit ASes) override them.
fn handle_stream_submit(state: &ServerState<'_>, request: &Request) -> Result<Response, ApiError> {
    let body = if request.body.iter().all(u8::is_ascii_whitespace) {
        Json::obj::<&str, _>([])
    } else {
        parse_body(request)?
    };
    let topo = state.sim.topology();
    let transit = topo.transit_ases().len();
    if transit < 2 {
        return Err(ApiError::new(
            422,
            "topology has fewer than two transit ASes; a stream needs distinct attackers",
        ));
    }
    let defaults = StreamConfig::default();
    // An integer field of the body: absent or `null` takes the default.
    let field =
        |key: &str, default: u64, range: std::ops::RangeInclusive<u64>, what: String| match body
            .get(key)
        {
            None | Some(Json::Null) => Ok(default),
            Some(value) => value
                .as_u64()
                .filter(|n| range.contains(n))
                .ok_or_else(|| ApiError::new(422, format!("field {key:?} must be {what}"))),
        };
    let events = field(
        "events",
        defaults.events as u64,
        1..=MAX_STREAM_EVENTS as u64,
        format!("an integer in 1..={MAX_STREAM_EVENTS}"),
    )? as usize;
    let seed = field(
        "seed",
        state.lab.stream_seed(),
        0..=JSON_SAFE_MAX,
        "a non-negative integer".to_string(),
    )?;
    let num_targets = field(
        "targets",
        defaults.num_targets.min(transit) as u64,
        1..=transit as u64,
        format!("a tracked-target count in 1..={transit}"),
    )? as usize;
    let config = StreamConfig {
        events,
        seed,
        num_targets,
        ..defaults
    };
    let plan = StreamPlan::generate(topo, &config);
    let target_asns: Vec<u32> = plan
        .targets
        .iter()
        .map(|&ix| topo.id_of(ix).value())
        .collect();
    let injected = plan.injected_hijacks();
    let spec = StreamSpec {
        config,
        plan,
        target_asns,
        injected,
        store: Arc::new(Mutex::new(StreamStore::sized_for(events))),
    };
    let (job, fresh) = submit(state, request, &body, JobSpec::Stream(spec))?;
    let id = job.wire_id();
    let mut pairs = vec![
        ("id".to_string(), Json::str(id.clone())),
        (
            "state".to_string(),
            Json::str(job.with_state(JobState::name)),
        ),
        ("kind".to_string(), Json::str("stream")),
        ("total".to_string(), Json::Num(job.total() as f64)),
    ];
    // A duplicate idempotency key can answer with a job submitted under
    // a different kind; only a real stream spec carries stream fields.
    if let Some(spec) = job.spec.as_stream() {
        pairs.push(("injected".to_string(), Json::Num(spec.injected as f64)));
        pairs.push(("targets".to_string(), Json::u32s(&spec.target_asns)));
        pairs.push((
            "range".to_string(),
            Json::str(format!("/v1/stream/{id}/range")),
        ));
    }
    pairs.push(("poll".to_string(), Json::str(format!("/v1/jobs/{id}"))));
    pairs.push((
        "results".to_string(),
        Json::str(format!("/v1/results/{id}")),
    ));
    Ok(json_response(
        if fresh { 202 } else { 200 },
        &Json::Obj(pairs),
    ))
}

/// Reads a slice of one stream metric series, live — the executor appends
/// per event under the store mutex, so a query mid-run sees a consistent
/// snapshot up to the last applied event. `agg=window` folds the span
/// into fixed-width min/max/mean windows; empty windows answer `null`
/// stats, never zeros.
fn handle_stream_range(
    state: &ServerState<'_>,
    wire_id: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let job = job_named(wire_id, |id| state.jobs.get(id))?;
    let spec = job.spec.as_stream().ok_or_else(|| {
        ApiError::new(
            409,
            format!("job {wire_id:?} is a sweep; /range applies only to stream jobs"),
        )
    })?;
    // Per-event samples are deliberately not persisted (summary-only
    // durability), so a job restored from disk has nothing to range over.
    // 410, not 404: the tape existed and is permanently gone.
    if job.restored {
        return Err(ApiError::new(
            410,
            format!(
                "job {wire_id:?} was restored from disk and only its summary survived; \
                 see /v1/results/{wire_id}"
            ),
        ));
    }
    let query = request.query.as_str();
    let series_name = query_param(query, "series").unwrap_or("pollution");
    let agg = query_param(query, "agg").unwrap_or("none");
    if agg != "none" && agg != "window" {
        return Err(ApiError::new(
            422,
            format!("unknown agg {agg:?}: use \"none\" or \"window\""),
        ));
    }
    let from_q = query_u64(query, "from")?;
    let to_q = query_u64(query, "to")?;
    let window = query_u64(query, "window")?.unwrap_or(64);
    if window == 0 {
        return Err(ApiError::new(
            422,
            "query parameter \"window\" must be positive",
        ));
    }
    let store = crate::jobs::lock_recover(&spec.store);
    let Some(series) = store.series(series_name) else {
        let names: Vec<&str> = store.names();
        return Err(ApiError::new(
            404,
            format!(
                "no samples in series {series_name:?} yet; series so far: [{}]",
                names.join(", ")
            ),
        ));
    };
    // A series exists only once a sample landed, so the bounds are Some.
    let from = from_q.or_else(|| series.earliest_seq()).unwrap_or(0);
    let to = to_q.or_else(|| series.latest_seq()).unwrap_or(0);
    let mut pairs = vec![
        ("id".to_string(), Json::str(job.wire_id())),
        (
            "state".to_string(),
            Json::str(job.with_state(JobState::name)),
        ),
        ("series".to_string(), Json::str(series_name)),
        (
            "completed".to_string(),
            Json::Num(job.completed.load(Ordering::Relaxed) as f64),
        ),
        ("from".to_string(), json_u64(from)),
        ("to".to_string(), json_u64(to)),
        ("appended".to_string(), json_u64(series.appended())),
        ("evicted".to_string(), json_u64(series.evicted())),
    ];
    if agg == "window" {
        let windows: Vec<Json> = series
            .window_agg(from, to, window)
            .into_iter()
            .map(|w| {
                Json::obj([
                    ("start", json_u64(w.start)),
                    ("count", Json::Num(w.count as f64)),
                    ("min", w.min.map_or(Json::Null, Json::Num)),
                    ("max", w.max.map_or(Json::Null, Json::Num)),
                    ("mean", w.mean.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect();
        pairs.push(("window".to_string(), json_u64(window)));
        pairs.push(("windows".to_string(), Json::Arr(windows)));
    } else {
        let samples: Vec<Json> = series
            .range(from, to)
            .into_iter()
            .map(|(seq, value)| Json::Arr(vec![json_u64(seq), Json::Num(value)]))
            .collect();
        pairs.push(("samples".to_string(), Json::Arr(samples)));
    }
    Ok(json_response(200, &Json::Obj(pairs)))
}

// ---------------------------------------------------------------------------
// Introspection

fn handle_healthz(state: &ServerState<'_>) -> Result<Response, ApiError> {
    let topo = state.sim.topology();
    let cast = state.lab.cast();
    let counts = state.jobs.counts();
    let draining = state.shutdown.load(Ordering::Relaxed);
    let sample: Vec<AsIndex> = topo
        .transit_ases()
        .into_iter()
        .take(SAMPLE_ATTACKERS)
        .collect();
    let response = Json::obj([
        (
            "status",
            Json::str(if draining { "draining" } else { "ok" }),
        ),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("scale", Json::str(state.config.scale_name.clone())),
        // Fleet handshake identity: a fan-out coordinator refuses any
        // worker whose (schema_version, scale, seed, num_ases) differ
        // from its own — same seed + scale must mean same topology.
        ("seed", json_u64(state.lab.config().seed)),
        ("engine", Json::str(state.sim.engine().name())),
        ("num_ases", Json::Num(topo.num_ases() as f64)),
        (
            "uptime_ms",
            Json::Num(state.metrics.uptime().as_millis() as f64),
        ),
        (
            "jobs",
            Json::obj([
                ("queued", Json::Num(counts.queued as f64)),
                ("running", Json::Num(counts.running as f64)),
                ("done", Json::Num(counts.done as f64)),
                ("cancelled", Json::Num(counts.cancelled as f64)),
                ("failed", Json::Num(counts.failed as f64)),
            ]),
        ),
        (
            "cache_entries",
            Json::Num(state.cache.stats().entries as f64),
        ),
        // Capacity introspection for fleet tooling: executor width, the
        // cache's byte budget (null = entry-count bound only), and
        // whether terminal jobs survive a restart.
        (
            "sweep_workers",
            Json::Num(state.config.sweep_workers as f64),
        ),
        (
            "cache_bytes",
            state.config.cache_byte_budget.map_or(Json::Null, json_u64),
        ),
        ("state_dir", Json::Bool(state.config.state_dir.is_some())),
        (
            "cast",
            Json::obj([
                (
                    "vulnerable_stub",
                    Json::Num(f64::from(topo.id_of(cast.vulnerable_stub).value())),
                ),
                (
                    "resistant_stub",
                    Json::Num(f64::from(topo.id_of(cast.resistant_stub).value())),
                ),
                (
                    "tier1",
                    Json::Num(f64::from(topo.id_of(cast.tier1).value())),
                ),
                (
                    "aggressive_attacker",
                    Json::Num(f64::from(topo.id_of(cast.aggressive_attacker).value())),
                ),
            ]),
        ),
        ("sample_attackers", asn_array(topo, sample)),
    ]);
    Ok(json_response(200, &response))
}

fn handle_metrics(state: &ServerState<'_>) -> Response {
    let mut text = render_prometheus(
        &state.metrics,
        &state.cache.stats(),
        &state.jobs.counts(),
        &state.jobs.scheduler_stats(),
        &state.telemetry.snapshot(),
    );
    if let Some(coordinator) = &state.fanout {
        text.push_str(&crate::metrics::render_fanout(&coordinator.stats()));
    }
    Response::text(200, text)
}

fn handle_shutdown(state: &ServerState<'_>) -> Response {
    state.shutdown.store(true, Ordering::SeqCst);
    json_response(200, &Json::obj([("status", Json::str("shutting down"))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_parse_strictly() {
        assert_eq!(parse_job_id("job-7").unwrap(), 7);
        assert!(parse_job_id("7").is_err());
        assert!(parse_job_id("job-").is_err());
        assert!(parse_job_id("job-x").is_err());
    }

    #[test]
    fn u64_rendering_stays_json_safe() {
        // Values inside the 2^53 window pass through exactly...
        assert_eq!(json_u64(0), Json::Num(0.0));
        assert_eq!(
            json_u64(JSON_SAFE_MAX - 1),
            Json::Num((JSON_SAFE_MAX - 1) as f64)
        );
        // ...and anything above saturates at the bound instead of rounding
        // to whichever double happens to be nearest (u64::MAX as f64 is
        // 2^64, off by over 6k billion).
        assert_eq!(json_u64(u64::MAX), Json::Num(JSON_SAFE_MAX as f64));
        assert_eq!(json_u64(JSON_SAFE_MAX + 1), Json::Num(JSON_SAFE_MAX as f64));
    }

    #[test]
    fn kind_parsing() {
        let body = Json::obj([("kind", Json::str("sub_prefix"))]);
        assert_eq!(parse_kind(&body).unwrap(), AttackKind::SubPrefixHijack);
        assert_eq!(
            parse_kind(&Json::obj::<&str, _>([])).unwrap(),
            AttackKind::OriginHijack
        );
        let bad = Json::obj([("kind", Json::str("exact"))]);
        assert!(parse_kind(&bad).is_err());
    }
}
