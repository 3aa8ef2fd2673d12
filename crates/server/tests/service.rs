//! End-to-end tests against a live `bgpsim-server` on an ephemeral port.
//!
//! Each test boots its own tiny (300-AS) lab so cache and job counters
//! start from zero, talks real HTTP over a `TcpStream`, and — where the
//! contract demands it — replays the same question against a direct
//! `Simulator` built from the identical `ExperimentConfig` to pin the
//! service's answers to the library's, value for value.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bgpsim_core::manifest::Json;
use bgpsim_core::{ExperimentConfig, Lab};
use bgpsim_fanout::client::Client;
use bgpsim_hijack::{Attack, Defense, EngineChoice};
use bgpsim_server::{spawn, ServerConfig, ServerHandle};
use bgpsim_topology::gen::InternetParams;

/// A unique per-test scratch directory (std-only; no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgpsim-service-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_experiment() -> ExperimentConfig {
    ExperimentConfig {
        params: InternetParams::tiny(),
        ..ExperimentConfig::quick()
    }
}

fn tiny_server() -> ServerHandle {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    spawn(config).expect("server boots")
}

/// One keep-alive connection to the server under test. Drop it before
/// `server.stop()`: a drain waits out idle connections' read timeout.
fn connect(server: &ServerHandle) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

fn text(client: &mut Client, method: &str, path: &str, body: &str) -> (u16, String) {
    client
        .request(method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

fn json(client: &mut Client, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, text) = text(client, method, path, body);
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}"));
    (status, parsed)
}

/// The value at a dotted path of keys, panicking with the path when one
/// is missing.
fn at<'a>(json: &'a Json, path: &str) -> &'a Json {
    path.split('.').fold(json, |value, key| {
        value
            .get(key)
            .unwrap_or_else(|| panic!("no {key:?} (of {path:?}) in {json:?}"))
    })
}

/// The cast member's ASN, from a `/v1/healthz` document.
fn cast(healthz: &Json, role: &str) -> u32 {
    at(healthz, "cast")
        .get(role)
        .and_then(Json::as_u32)
        .unwrap()
}

/// Reads one counter value out of the Prometheus exposition.
fn metric(client: &mut Client, name_and_labels: &str) -> u64 {
    let (status, text) = text(client, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    text.lines()
        .find(|line| line.starts_with(name_and_labels))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name_and_labels:?} not found"))
}

fn wait_done(client: &mut Client, job: &str) -> Json {
    for _ in 0..600 {
        let (status, body) = json(client, "GET", &format!("/v1/jobs/{job}"), "");
        assert_eq!(status, 200);
        let state = at(&body, "state").as_str().unwrap().to_string();
        if state == "done" {
            return body;
        }
        assert!(
            state == "queued" || state == "running",
            "job {job} ended as {state:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {job} did not finish");
}

#[test]
fn attack_matches_direct_simulator_and_warm_cache_is_faster() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (status, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(at(&healthz, "status").as_str().unwrap(), "ok");
    let target = cast(&healthz, "vulnerable_stub");
    let aggressive = cast(&healthz, "aggressive_attacker");
    // A stub attacker under stub defense is filtered at its providers, so
    // its delta replay is near-free and the cold/warm gap isolates the
    // baseline build the cache exists to amortize.
    let cheap_attacker = cast(&healthz, "resistant_stub");
    let cheap_body = format!(
        "{{\"attacker\":{cheap_attacker},\"target\":{target},\"defense\":{{\"stub_defense\":true}}}}"
    );

    let (status, cold) = json(&mut client, "POST", "/v1/attacks", &cheap_body);
    assert_eq!(status, 200, "cold attack failed: {cold:?}");
    assert_eq!(at(&cold, "meta.cache").as_str().unwrap(), "miss");
    let cold_wall = at(&cold, "meta.wall_us").as_u64().unwrap();
    // The cold build is accounted like a sweep's: counted, bytes included.
    assert_eq!(metric(&mut client, "bgpsim_sim_baselines_built_total"), 1);
    assert!(metric(&mut client, "bgpsim_sim_baseline_bytes_total") > 0);

    // Warm repeats hit the cache and skip the honest re-convergence.
    let mut warm_walls = Vec::new();
    for _ in 0..9 {
        let (status, warm) = json(&mut client, "POST", "/v1/attacks", &cheap_body);
        assert_eq!(status, 200);
        assert_eq!(at(&warm, "meta.cache").as_str().unwrap(), "hit");
        assert_eq!(at(&warm, "result"), at(&cold, "result"));
        warm_walls.push(at(&warm, "meta.wall_us").as_u64().unwrap());
    }
    warm_walls.sort_unstable();
    let warm_p50 = warm_walls[warm_walls.len() / 2];
    assert!(
        cold_wall >= 2 * warm_p50,
        "warm cache not faster: cold {cold_wall} µs vs warm p50 {warm_p50} µs"
    );

    // A different attacker against the same (target, defense) reuses the
    // baseline, and the service's answer must be value-identical to the
    // library's for both attacks.
    let (status, big) = json(
        &mut client,
        "POST",
        "/v1/attacks",
        &format!(
        "{{\"attacker\":{aggressive},\"target\":{target},\"defense\":{{\"stub_defense\":true}}}}"
    ),
    );
    assert_eq!(status, 200);
    assert_eq!(at(&big, "meta.cache").as_str().unwrap(), "hit");
    // `meta.engine` names what ran, not the route: the stub's replay stays
    // inside its cone budget, the aggressive attacker's outgrows it and is
    // finished by the race solver — against the same cached baseline.
    assert_eq!(at(&cold, "meta.engine").as_str().unwrap(), "delta");
    assert_eq!(at(&big, "meta.engine").as_str().unwrap(), "race");
    assert_eq!(metric(&mut client, "bgpsim_sim_replays_abandoned_total"), 1);

    let lab = Lab::new(tiny_experiment());
    let sim = lab.simulator();
    let topo = lab.topology();
    let t = topo.index_of(bgpsim_topology::AsId::new(target)).unwrap();
    // Singles whose route does not replay bypass the cache and run on the
    // route's engine like any other attack: the race solver, for
    // undefended exact-prefix and forged-origin hijacks and for a
    // sub-prefix one alike.
    let a = topo
        .index_of(bgpsim_topology::AsId::new(aggressive))
        .unwrap();
    for (kind, attack, engine) in [
        ("origin", Attack::origin(a, t), "race"),
        ("forged_origin", Attack::forged_origin(a, t), "race"),
        ("sub_prefix", Attack::sub_prefix(a, t), "race"),
    ] {
        let (status, open) = json(
            &mut client,
            "POST",
            "/v1/attacks",
            &format!("{{\"attacker\":{aggressive},\"target\":{target},\"kind\":\"{kind}\"}}"),
        );
        assert_eq!(status, 200, "{kind}: {open:?}");
        assert_eq!(at(&open, "meta.engine").as_str().unwrap(), engine, "{kind}");
        assert_eq!(at(&open, "meta.cache").as_str().unwrap(), "bypass");
        assert_eq!(
            at(&open, "result.pollution_count").as_u64().unwrap() as usize,
            sim.run(attack, &Defense::none()).pollution_count(),
            "{kind}"
        );
    }
    let defense = Defense::none().with_stub_defense();
    for (attacker, response) in [(cheap_attacker, &cold), (aggressive, &big)] {
        let a = topo.index_of(bgpsim_topology::AsId::new(attacker)).unwrap();
        let direct = sim.run(Attack::origin(a, t), &defense);
        let result = at(response, "result");
        assert_eq!(
            at(result, "pollution_count").as_u64().unwrap() as usize,
            direct.pollution_count()
        );
        // `polluted` is index-sorted and the service renders it in the
        // same order, so plain equality pins the full set.
        let direct_polluted: Vec<u32> = direct
            .polluted
            .iter()
            .map(|&ix| topo.id_of(ix).value())
            .collect();
        assert_eq!(
            at(result, "polluted").as_u32_array().unwrap(),
            direct_polluted
        );
    }

    assert_eq!(
        metric(
            &mut client,
            "bgpsim_baseline_cache_lookups_total{outcome=\"miss\"}"
        ),
        1
    );
    assert_eq!(
        metric(
            &mut client,
            "bgpsim_baseline_cache_lookups_total{outcome=\"hit\"}"
        ),
        10
    );
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn repeated_identical_sweeps_build_one_baseline_and_match_direct() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let body = format!(
        "{{\"target\":{target},\"defense\":{{\"stub_defense\":true}},\"attackers\":\"transit\"}}"
    );

    // The second sweep is submitted once the first is done, so it finds
    // the baseline cached rather than in flight (single-flight coalescing
    // is `cache::tests::concurrent_lookups_single_flight`'s business).
    let (status, first) = json(&mut client, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "submit failed: {first:?}");
    let first_id = at(&first, "id").as_str().unwrap().to_string();
    wait_done(&mut client, &first_id);
    let (status, second) = json(&mut client, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "submit failed: {second:?}");
    let second_id = at(&second, "id").as_str().unwrap().to_string();
    wait_done(&mut client, &second_id);

    // Exactly one baseline build; the second sweep reused it.
    assert_eq!(metric(&mut client, "bgpsim_sim_baselines_built_total"), 1);
    assert_eq!(
        metric(
            &mut client,
            "bgpsim_baseline_cache_lookups_total{outcome=\"miss\"}"
        ),
        1
    );

    let (status, results) = json(&mut client, "GET", &format!("/v1/results/{first_id}"), "");
    assert_eq!(status, 200);
    let (status, results2) = json(&mut client, "GET", &format!("/v1/results/{second_id}"), "");
    assert_eq!(status, 200);

    // Identical question, identical answer — and both identical to a
    // direct library sweep over the same pool.
    let lab = Lab::new(tiny_experiment());
    let sim = lab.simulator();
    let topo = lab.topology();
    let t = topo.index_of(bgpsim_topology::AsId::new(target)).unwrap();
    let pool: Vec<_> = lab
        .strided_transit_attackers()
        .into_iter()
        .filter(|&a| a != t)
        .collect();
    let direct = sim.sweep_attackers(t, &pool, &Defense::none().with_stub_defense());
    let direct_attackers: Vec<u32> = pool.iter().map(|&ix| topo.id_of(ix).value()).collect();

    for response in [&results, &results2] {
        let result = at(response, "result");
        assert_eq!(
            at(result, "attackers").as_u32_array().unwrap(),
            direct_attackers
        );
        assert_eq!(at(result, "counts").as_u32_array().unwrap(), direct);
    }
    assert_eq!(at(&results, "meta.cache").as_str().unwrap(), "miss");
    assert_eq!(at(&results2, "meta.cache").as_str().unwrap(), "hit");
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn full_queue_answers_429() {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.max_queued_jobs = 1;
    let server = spawn(config).expect("server boots");
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    // A full-pool sweep takes a millisecond or more and a submission on
    // a kept-alive connection some tens of microseconds, so the one-deep
    // queue overflows as soon as two submissions land while one sweep
    // runs. When that happens is the scheduler's business: keep
    // submitting until it does. (One connection per submission would pace
    // the client to the accept loop's 10 ms idle poll — slower than the
    // sweeps — and never overflow.)
    let body = format!("{{\"target\":{target},\"attackers\":\"all\"}}");
    let mut accepted = Vec::new();
    let mut rejected = false;
    for _ in 0..500 {
        let (status, response) = client.request("POST", "/v1/sweeps", &body).expect("submit");
        match status {
            202 => {
                let response = Json::parse(&response).expect("submission JSON");
                accepted.push(at(&response, "id").as_str().unwrap().to_string());
            }
            429 => {
                rejected = true;
                break;
            }
            other => panic!("unexpected status {other}: {response}"),
        }
    }
    assert!(
        rejected,
        "500 back-to-back submissions never overflowed the one-deep queue"
    );
    for id in &accepted {
        wait_done(&mut client, id);
    }
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn cancelled_job_reaches_a_terminal_state() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let body = format!("{{\"target\":{target}}}");
    // Two submissions: the second is queued behind the first, so the
    // DELETE usually lands before it starts (but a fast executor may
    // legitimately finish it — both outcomes are valid).
    let (_, first) = json(&mut client, "POST", "/v1/sweeps", &body);
    let (_, second) = json(&mut client, "POST", "/v1/sweeps", &body);
    let first_id = at(&first, "id").as_str().unwrap().to_string();
    let second_id = at(&second, "id").as_str().unwrap().to_string();
    let (status, cancelled) = json(&mut client, "DELETE", &format!("/v1/jobs/{second_id}"), "");
    assert_eq!(status, 200, "cancel failed: {cancelled:?}");
    wait_done(&mut client, &first_id);
    let mut state = String::new();
    for _ in 0..600 {
        let (_, job) = json(&mut client, "GET", &format!("/v1/jobs/{second_id}"), "");
        state = at(&job, "state").as_str().unwrap().to_string();
        if state == "cancelled" || state == "done" {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        state == "cancelled" || state == "done",
        "cancelled job stuck in {state:?}"
    );
    if state == "cancelled" {
        // No results for a cancelled job — the conflict names the state.
        let (status, body) = json(&mut client, "GET", &format!("/v1/results/{second_id}"), "");
        assert_eq!(status, 409, "expected conflict, got: {body:?}");
    }
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn error_paths() {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.max_body_bytes = 512;
    let server = spawn(config).expect("server boots");
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");

    let (status, _) = text(&mut client, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    // Update streams are `bgpsim stream`'s: the server routes neither
    // stream path.
    for (method, path) in [("POST", "/v1/stream"), ("GET", "/v1/stream/job-1/range")] {
        let (status, body) = text(&mut client, method, path, "{}");
        assert_eq!(status, 404, "{method} {path}");
        assert!(body.contains("no route for"), "{method} {path}: {body}");
    }
    let (status, _) = text(&mut client, "GET", "/v1/attacks", "");
    assert_eq!(status, 405);
    let (status, _) = text(&mut client, "POST", "/v1/attacks", "{not json");
    assert_eq!(status, 400);
    let (status, _) = text(
        &mut client,
        "POST",
        "/v1/attacks",
        "{\"attacker\":999999,\"target\":1}",
    );
    assert_eq!(status, 422);
    let (status, _) = text(
        &mut client,
        "POST",
        "/v1/attacks",
        &format!("{{\"attacker\":{target},\"target\":{target}}}"),
    );
    assert_eq!(status, 422);
    let (status, _) = text(&mut client, "GET", "/v1/jobs/job-999", "");
    assert_eq!(status, 404);
    let (status, _) = text(&mut client, "GET", "/v1/jobs/banana", "");
    assert_eq!(status, 404);
    // Declare an over-cap body without sending it: the server rejects on
    // the Content-Length alone, and not sending the payload avoids the
    // TCP reset a close-with-unread-data would trigger.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /v1/attacks HTTP/1.1\r\nHost: test\r\nContent-Length: 4096\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("413 response");
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 413"), "expected 413, got: {raw}");
    // Framing errors are counted for /v1/metrics.
    assert!(metric(&mut client, "bgpsim_http_malformed_requests_total") >= 1);
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn batch_attacks_match_singles_with_per_item_errors() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let stub = cast(&healthz, "resistant_stub");
    let aggressive = cast(&healthz, "aggressive_attacker");

    // The same two questions, asked one at a time...
    let mut single = |attacker: u32, defense: &str| {
        let (status, response) = json(
            &mut client,
            "POST",
            "/v1/attacks",
            &format!("{{\"attacker\":{attacker},\"target\":{target},\"defense\":{defense}}}"),
        );
        assert_eq!(status, 200, "single attack failed: {response:?}");
        response
    };
    let single_defended = single(stub, "{\"stub_defense\":true}");
    let single_undefended = single(aggressive, "null");

    // ...then as one batch, with two broken entries mixed in. The batch
    // default defense covers entry 0; entry 1 overrides it to none.
    let batch_body = format!(
        "{{\"defense\":{{\"stub_defense\":true}},\"attacks\":[\
         {{\"attacker\":{stub},\"target\":{target}}},\
         {{\"attacker\":{aggressive},\"target\":{target},\"defense\":null}},\
         {{\"attacker\":999999,\"target\":{target}}},\
         {{\"attacker\":{target},\"target\":{target}}}]}}"
    );
    let (status, batch) = json(&mut client, "POST", "/v1/attacks:batch", &batch_body);
    assert_eq!(status, 200, "batch failed: {batch:?}");
    let results = match at(&batch, "results") {
        Json::Arr(items) => items.clone(),
        other => panic!("results must be an array, got {other:?}"),
    };
    assert_eq!(results.len(), 4, "one result slot per input entry");

    // Valid slots carry byte-identical `result` objects to the single
    // endpoint's answers for the same questions.
    assert_eq!(at(&results[0], "result"), at(&single_defended, "result"));
    assert_eq!(
        at(&results[0], "meta.engine"),
        at(&single_defended, "meta.engine")
    );
    assert_eq!(at(&results[1], "result"), at(&single_undefended, "result"));
    // Broken slots answer in place without sinking the batch.
    assert_eq!(at(&results[2], "status").as_u64(), Some(422));
    assert!(at(&results[2], "error")
        .as_str()
        .unwrap()
        .contains("unknown ASN"));
    assert_eq!(at(&results[3], "status").as_u64(), Some(422));

    let meta = at(&batch, "meta");
    assert_eq!(at(meta, "items").as_u64(), Some(4));
    assert_eq!(at(meta, "ok").as_u64(), Some(2));
    assert_eq!(at(meta, "failed").as_u64(), Some(2));
    // Entry 0 is the only baseline-eligible entry (entry 1 is
    // undefended on the Auto engine → scratch path).
    assert_eq!(at(meta, "baseline_groups").as_u64(), Some(1));

    // Envelope-level problems fail the whole request.
    let (status, _) = text(&mut client, "POST", "/v1/attacks:batch", "{\"attacks\":[]}");
    assert_eq!(status, 422);
    let (status, _) = text(&mut client, "POST", "/v1/attacks:batch", "{\"attacks\":7}");
    assert_eq!(status, 422);
    let (status, _) = text(&mut client, "POST", "/v1/attacks:batch", "{}");
    assert_eq!(status, 422);

    // The endpoint has its own metrics label.
    assert_eq!(
        metric(
            &mut client,
            "bgpsim_http_requests_total{endpoint=\"attacks_batch\",code=\"2xx\"}"
        ),
        1
    );
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn concurrent_sweeps_make_joint_progress_under_fair_share() {
    // A 1000-AS lab (vs the usual 300) on the generation engine makes
    // each attack slow enough that three full-pool sweeps outlast the
    // short job's poll loop a hundredfold; raced closed-form they finish
    // within a poll interval or two.
    let experiment = ExperimentConfig {
        params: InternetParams::sized(1000),
        engine: EngineChoice::Generation,
        ..ExperimentConfig::quick()
    };
    let mut config = ServerConfig::new(experiment, "custom");
    config.addr = "127.0.0.1:0".to_string();
    // One executor makes the fairness property sharp: without chunked
    // round-robin dealing, a single worker would run the whole long job
    // before touching the short one.
    config.sweep_workers = 1;
    let server = spawn(config).expect("server boots");
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let attackers = at(&healthz, "sample_attackers").as_u32_array().unwrap();
    let short_pool: Vec<String> = attackers.iter().take(3).map(u32::to_string).collect();

    // Three paper-shaped long jobs (every AS attacks, scratch path)
    // followed by a three-attacker quick check. Under FIFO whole-job
    // scheduling the single worker would drain all three long sweeps
    // before touching the short one; under fair-share the short job's one
    // chunk is dealt in the first round-robin lap.
    let long_body = format!("{{\"target\":{target},\"attackers\":\"all\"}}");
    let mut long_ids = Vec::new();
    let mut long_total = 0u64;
    for _ in 0..3 {
        let (status, long) = json(&mut client, "POST", "/v1/sweeps", &long_body);
        assert_eq!(status, 202, "long submit failed: {long:?}");
        long_ids.push(at(&long, "id").as_str().unwrap().to_string());
        long_total = at(&long, "total").as_u64().unwrap();
    }
    assert!(
        long_total > 128,
        "long job too small ({long_total} attackers) to span multiple chunks"
    );
    let (status, short) = json(
        &mut client,
        "POST",
        "/v1/sweeps",
        &format!(
            "{{\"target\":{target},\"attackers\":[{}]}}",
            short_pool.join(",")
        ),
    );
    assert_eq!(status, 202, "short submit failed: {short:?}");
    let short_id = at(&short, "id").as_str().unwrap().to_string();

    // The short job finishes while the long backlog is still going.
    wait_done(&mut client, &short_id);
    let unfinished = long_ids
        .iter()
        .filter(|id| {
            let (_, job) = json(&mut client, "GET", &format!("/v1/jobs/{id}"), "");
            at(&job, "state").as_str().unwrap() != "done"
        })
        .count();
    assert!(
        unfinished > 0,
        "all three long sweeps finished before the short one — \
         fair-share never interleaved them"
    );
    for id in &long_ids {
        wait_done(&mut client, id);
    }

    // Every job answered correctly despite the interleaving.
    let (status, short_results) = json(&mut client, "GET", &format!("/v1/results/{short_id}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        at(&short_results, "result.counts")
            .as_u32_array()
            .unwrap()
            .len(),
        3
    );
    for id in &long_ids {
        let (status, long_results) = json(&mut client, "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 200);
        assert_eq!(
            at(&long_results, "result.counts")
                .as_u32_array()
                .unwrap()
                .len() as u64,
            long_total
        );
    }
    // The scheduler telemetry shows the chunked dealing: the long job
    // alone spans multiple 64-attacker chunks.
    assert!(
        metric(&mut client, "bgpsim_jobs_chunks_total") >= 4,
        "expected several chunks, scheduler reported {}",
        metric(&mut client, "bgpsim_jobs_chunks_total")
    );
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn results_survive_a_restart_byte_identically() {
    let state_dir = scratch_dir("restart");
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.state_dir = Some(state_dir.clone());
    let server = spawn(config.clone()).expect("server boots");
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let attackers = at(&healthz, "sample_attackers").as_u32_array().unwrap();
    let pool: Vec<String> = attackers.iter().take(4).map(u32::to_string).collect();
    let (status, submitted) = json(
        &mut client,
        "POST",
        "/v1/sweeps",
        &format!(
            "{{\"target\":{target},\"defense\":{{\"stub_defense\":true}},\
             \"attackers\":[{}]}}",
            pool.join(",")
        ),
    );
    assert_eq!(status, 202, "submit failed: {submitted:?}");
    let id = at(&submitted, "id").as_str().unwrap().to_string();
    wait_done(&mut client, &id);
    let (status, before) = text(&mut client, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    drop(client);
    server.stop().expect("clean shutdown");

    // Same state dir, fresh process state: the terminal record reloads
    // and the results body is byte-identical.
    let server = spawn(config).expect("restarted server boots");
    let mut client = connect(&server);
    let (status, after) = text(&mut client, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200, "results lost across restart: {after}");
    assert_eq!(before, after, "results changed across restart");
    let (_, job) = json(&mut client, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(at(&job, "state").as_str().unwrap(), "done");
    // Terminal jobs never report a stale ETA.
    assert_eq!(at(&job, "eta_ms"), &Json::Null);
    assert_eq!(metric(&mut client, "bgpsim_jobs_restored_total"), 1);
    // A restored record is retained, not rescheduled: nothing ran here.
    assert_eq!(metric(&mut client, "bgpsim_jobs_chunks_total"), 0);
    drop(client);
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn corrupt_state_files_quarantine_instead_of_failing_boot() {
    let state_dir = scratch_dir("quarantine");
    std::fs::write(state_dir.join("job-7.json"), b"{definitely not json").unwrap();
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.state_dir = Some(state_dir.clone());
    let server = spawn(config).expect("server boots despite corrupt state");
    let mut client = connect(&server);
    let (status, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(at(&healthz, "status").as_str().unwrap(), "ok");
    // The unreadable file moved aside rather than being deleted or
    // crashing the boot; nothing was restored from it.
    assert!(!state_dir.join("job-7.json").exists());
    assert!(state_dir.join("quarantine").join("job-7.json").exists());
    assert_eq!(
        metric(&mut client, "bgpsim_state_files_quarantined_total"),
        1
    );
    assert_eq!(metric(&mut client, "bgpsim_jobs_restored_total"), 0);
    let (status, _) = text(&mut client, "GET", "/v1/results/job-7", "");
    assert_eq!(status, 404);
    drop(client);
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn http_shutdown_drains_the_server() {
    let server = tiny_server();
    let addr = server.addr();
    let mut client = connect(&server);
    let (status, body) = json(&mut client, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(at(&body, "status").as_str().unwrap(), "shutting down");
    // The accept loop notices the flag and the whole scope drains;
    // stop() then joins an already-exiting thread.
    server.stop().expect("clean drain after HTTP shutdown");
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A listener backlog race can accept one last connection;
            // what matters is that nothing answers.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            s.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").ok();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

#[test]
fn idempotent_submissions_replay_the_original_job() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");

    // Body-field variant on /v1/sweeps: the duplicate answers 200 with
    // the original job id and schedules nothing new.
    let body = format!(
        "{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"sweep-a\"}}"
    );
    let (status, first) = json(&mut client, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "first keyed submit: {first:?}");
    let (status, dup) = json(&mut client, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 200, "duplicate keyed submit: {dup:?}");
    assert_eq!(
        at(&first, "id").as_str().unwrap(),
        at(&dup, "id").as_str().unwrap()
    );

    // A different key is a different job.
    let other = body.replace("sweep-a", "sweep-b");
    let (status, second) = json(&mut client, "POST", "/v1/sweeps", &other);
    assert_eq!(status, 202, "distinct key must schedule: {second:?}");
    assert_ne!(
        at(&first, "id").as_str().unwrap(),
        at(&second, "id").as_str().unwrap()
    );

    // Header variant wins over an unkeyed body.
    let plain = format!("{{\"target\":{target},\"attackers\":\"transit\"}}");
    let mut keyed = || {
        let (status, text) = client
            .request_with_headers(
                "POST",
                "/v1/sweeps",
                &[("Idempotency-Key", "sweep-hdr")],
                &plain,
            )
            .expect("header-keyed submit");
        (status, Json::parse(&text).expect("submission JSON"))
    };
    let (status, h1) = keyed();
    assert_eq!(status, 202, "header-keyed submit: {h1:?}");
    let (status, h2) = keyed();
    assert_eq!(status, 200, "header-keyed duplicate: {h2:?}");
    assert_eq!(
        at(&h1, "id").as_str().unwrap(),
        at(&h2, "id").as_str().unwrap()
    );

    // Malformed keys are rejected up front, not silently unkeyed.
    let (status, err) = json(
        &mut client,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"  \"}}"),
    );
    assert_eq!(status, 422, "blank key must be rejected: {err:?}");
    let (status, err) = json(
        &mut client,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":7}}"),
    );
    assert_eq!(status, 422, "non-string key must be rejected: {err:?}");

    for id in [
        at(&first, "id").as_str().unwrap().to_string(),
        at(&second, "id").as_str().unwrap().to_string(),
        at(&h1, "id").as_str().unwrap().to_string(),
    ] {
        wait_done(&mut client, &id);
    }
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn jobs_list_enumerates_newest_first() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");

    // Empty registry lists cleanly.
    let (status, empty) = json(&mut client, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(at(&empty, "total").as_u64(), Some(0));
    assert!(matches!(at(&empty, "truncated"), Json::Bool(false)));

    let mut ids = Vec::new();
    for key in ["list-a", "list-b", "list-c"] {
        let body = format!(
            "{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"{key}\"}}"
        );
        let (status, submitted) = json(&mut client, "POST", "/v1/sweeps", &body);
        assert_eq!(status, 202, "{submitted:?}");
        ids.push(at(&submitted, "id").as_str().unwrap().to_string());
    }
    for id in &ids {
        wait_done(&mut client, id);
    }

    let (status, listing) = json(&mut client, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(at(&listing, "total").as_u64(), Some(3));
    assert!(matches!(at(&listing, "truncated"), Json::Bool(false)));
    let jobs = match at(&listing, "jobs") {
        Json::Arr(items) => items,
        other => panic!("expected jobs array, got {other:?}"),
    };
    assert_eq!(jobs.len(), 3);
    // Newest first: the listing reverses submission order, and each
    // entry carries the same shape as GET /v1/jobs/{id}.
    let listed: Vec<&str> = jobs.iter().map(|j| at(j, "id").as_str().unwrap()).collect();
    let newest_first: Vec<&str> = ids.iter().rev().map(String::as_str).collect();
    assert_eq!(listed, newest_first);
    for job in jobs {
        assert_eq!(at(job, "kind").as_str().unwrap(), "sweep");
        assert_eq!(at(job, "state").as_str().unwrap(), "done");
    }
    drop(client);
    server.stop().expect("clean shutdown");
}

#[test]
fn healthz_reports_fleet_identity_and_capacity() {
    let server = tiny_server();
    let mut client = connect(&server);
    let (status, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);

    // Fleet handshake identity: a fan-out coordinator matches on
    // (schema_version, scale, seed, num_ases), all of which must be
    // advertised here.
    assert_eq!(at(&healthz, "seed").as_u64(), Some(tiny_experiment().seed));
    assert_eq!(at(&healthz, "scale").as_str().unwrap(), "custom");
    assert!(at(&healthz, "num_ases").as_u64().unwrap() > 0);

    // Capacity introspection: executor width, cache byte budget (null
    // when unbounded), and whether terminal jobs survive a restart.
    assert!(at(&healthz, "sweep_workers").as_u64().unwrap() >= 1);
    assert!(matches!(at(&healthz, "cache_bytes"), Json::Null));
    assert!(matches!(at(&healthz, "state_dir"), Json::Bool(false)));
    drop(client);
    server.stop().expect("clean shutdown");
}

/// §V walks one target through a progression of validator deployments, so
/// "same target, next deployment" is the question this service exists to
/// answer. Origin validation alone is raced, so those five deployments
/// bypass the cache. Under stub filtering a baseline depends on the target
/// only — validators never reject the authorized origin — so the other
/// five build one baseline, and every answer still equals the
/// generation-engine oracle under that request's own deployment.
#[test]
fn one_target_under_many_deployments_builds_one_baseline_per_stub_setting() {
    let server = tiny_server();
    let mut client = connect(&server);
    let lab = Lab::new(tiny_experiment());
    let (sim, topo) = (lab.simulator(), lab.topology());
    let target = lab.cast().vulnerable_stub;
    let target_asn = topo.id_of(target).value();
    let attackers: Vec<_> = topo.indices().step_by(7).filter(|&a| a != target).collect();
    assert!(attackers.len() >= 40);

    let (mut answers, mut replayed, mut raced) = (0, 0, 0);
    for stub_defense in [false, true] {
        // Nested cohorts, as in figs. 5-6: each deployment adds validators.
        for cohort in [1, 5, 10, 20, 40] {
            let validators = bgpsim_topology::select::top_k_by_degree(topo, cohort);
            let mut defense = Defense::validators(topo, validators.clone());
            if stub_defense {
                defense = defense.with_stub_defense();
            }
            let validator_asns: Vec<String> = validators
                .iter()
                .map(|&v| topo.id_of(v).value().to_string())
                .collect();
            for &attacker in &attackers {
                let body = format!(
                    "{{\"attacker\":{},\"target\":{target_asn},\"defense\":\
                     {{\"validators\":[{}],\"stub_defense\":{stub_defense}}}}}",
                    topo.id_of(attacker).value(),
                    validator_asns.join(",")
                );
                let (status, answer) = json(&mut client, "POST", "/v1/attacks", &body);
                assert_eq!(status, 200, "{answer:?}");
                let oracle: Vec<u32> = sim
                    .run(Attack::origin(attacker, target), &defense)
                    .polluted
                    .iter()
                    .map(|&ix| topo.id_of(ix).value())
                    .collect();
                assert_eq!(
                    at(&answer, "result.polluted").as_u32_array().unwrap(),
                    oracle,
                    "cohort {cohort}, stub defense {stub_defense}, attacker {attacker}"
                );
                // Under stub filtering only the first question finds the
                // cache cold; every later deployment is served by that
                // baseline. Without it nothing replays.
                let expect = match (stub_defense, answers % (5 * attackers.len())) {
                    (false, _) => "bypass",
                    (true, 0) => "miss",
                    (true, _) => "hit",
                };
                assert_eq!(at(&answer, "meta.cache").as_str(), Some(expect));
                match at(&answer, "meta.engine").as_str() {
                    Some("delta") if stub_defense => replayed += 1,
                    Some("race") if stub_defense => raced += 1,
                    Some("race") => {}
                    other => panic!("unexpected engine {other:?}, stub defense {stub_defense}"),
                }
                answers += 1;
            }
        }
    }
    assert_eq!(answers, 10 * attackers.len());
    assert!(
        replayed > 0 && raced > 0,
        "both sides of the cone budget should be exercised: {replayed} replayed, {raced} raced"
    );
    assert_eq!(metric(&mut client, "bgpsim_sim_baselines_built_total"), 1);
    assert_eq!(
        metric(
            &mut client,
            "bgpsim_baseline_cache_lookups_total{outcome=\"miss\"}"
        ),
        1
    );
    assert_eq!(
        metric(
            &mut client,
            "bgpsim_baseline_cache_lookups_total{outcome=\"hit\"}"
        ),
        answers as u64 / 2 - 1
    );
    drop(client);
    server.stop().expect("clean shutdown");
}

/// The golden records under `tests/fixtures/` (one per terminal shape,
/// written by the build before they were added; the registry's unit
/// tests pin that each sweep record re-serializes byte for byte): a
/// server booted on them answers `GET /v1/results/:id` for each sweep
/// exactly as that build did. The four stream-job records that build
/// also wrote (`job-7`, `-8`, `-9`, `-11`) are records this build cannot
/// read: quarantined, and their ids answer 404 and are never reused.
#[test]
fn golden_records_answer_results_as_the_build_that_wrote_them() {
    const STREAMS: [u64; 4] = [7, 8, 9, 11];
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let state_dir = scratch_dir("golden");
    for id in 1..=13 {
        let name = format!("job-{id}.json");
        std::fs::copy(fixtures.join(&name), state_dir.join(&name)).expect("copy fixture");
    }
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.state_dir = Some(state_dir.clone());
    let server = spawn(config).expect("server boots on the golden records");
    let mut client = connect(&server);
    assert_eq!(metric(&mut client, "bgpsim_jobs_restored_total"), 9);
    assert_eq!(
        metric(&mut client, "bgpsim_state_files_quarantined_total"),
        4
    );
    for id in 1..=13 {
        let (status, body) = text(&mut client, "GET", &format!("/v1/results/job-{id}"), "");
        if STREAMS.contains(&id) {
            assert_eq!(status, 404, "job-{id}: {body}");
            assert!(state_dir.join(format!("quarantine/job-{id}.json")).exists());
            continue;
        }
        let expected = std::fs::read_to_string(fixtures.join(format!("job-{id}.results")))
            .expect("recorded response");
        assert_eq!(format!("{status}\n{body}"), expected, "job-{id}");
    }
    let (_, healthz) = json(&mut client, "GET", "/v1/healthz", "");
    let target = cast(&healthz, "vulnerable_stub");
    let (status, next) = json(
        &mut client,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target}}}"),
    );
    assert_eq!(status, 202, "{next:?}");
    assert_eq!(at(&next, "id").as_str(), Some("job-14"));
    drop(client);
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&state_dir);
}
