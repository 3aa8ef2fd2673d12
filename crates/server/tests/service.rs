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

/// Blocking single-request HTTP client; opens a fresh connection each
/// time so tests cannot accidentally depend on keep-alive state.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, response_body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, response_body.to_string())
}

fn json(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, text) = http(addr, method, path, body);
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}"));
    (status, parsed)
}

/// Like [`json`] but with one extra request header (`"Name: value"`).
fn json_with_header(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    header: &str,
    body: &str,
) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{header}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, response_body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let parsed = Json::parse(response_body).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}"));
    (status, parsed)
}

fn get<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected object with {key:?}, got {other:?}"),
    }
}

fn num(json: &Json) -> f64 {
    match json {
        Json::Num(n) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn str_of(json: &Json) -> &str {
    match json {
        Json::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn u32s(json: &Json) -> Vec<u32> {
    match json {
        Json::Arr(items) => items.iter().map(|v| num(v) as u32).collect(),
        other => panic!("expected array, got {other:?}"),
    }
}

/// Reads one counter value out of the Prometheus exposition.
fn metric(addr: std::net::SocketAddr, name_and_labels: &str) -> u64 {
    let (status, text) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    text.lines()
        .find(|line| line.starts_with(name_and_labels))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name_and_labels:?} not found"))
}

fn wait_done(addr: std::net::SocketAddr, job: &str) -> Json {
    for _ in 0..600 {
        let (status, body) = json(addr, "GET", &format!("/v1/jobs/{job}"), "");
        assert_eq!(status, 200);
        let state = str_of(get(&body, "state")).to_string();
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
    let addr = server.addr();
    let (status, healthz) = json(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(str_of(get(&healthz, "status")), "ok");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let aggressive = num(get(get(&healthz, "cast"), "aggressive_attacker")) as u32;
    // A stub attacker under stub defense is filtered at its providers, so
    // its delta replay is near-free and the cold/warm gap isolates the
    // baseline build the cache exists to amortize.
    let cheap_attacker = num(get(get(&healthz, "cast"), "resistant_stub")) as u32;
    let cheap_body = format!(
        "{{\"attacker\":{cheap_attacker},\"target\":{target},\"defense\":{{\"stub_defense\":true}}}}"
    );

    let (status, cold) = json(addr, "POST", "/v1/attacks", &cheap_body);
    assert_eq!(status, 200, "cold attack failed: {cold:?}");
    assert_eq!(str_of(get(get(&cold, "meta"), "cache")), "miss");
    let cold_wall = num(get(get(&cold, "meta"), "wall_us"));
    // The cold build is accounted like a sweep's: counted, bytes included.
    assert_eq!(metric(addr, "bgpsim_sim_baselines_built_total"), 1);
    assert!(metric(addr, "bgpsim_sim_baseline_bytes_total") > 0);

    // Warm repeats hit the cache and skip the honest re-convergence.
    let mut warm_walls = Vec::new();
    for _ in 0..9 {
        let (status, warm) = json(addr, "POST", "/v1/attacks", &cheap_body);
        assert_eq!(status, 200);
        assert_eq!(str_of(get(get(&warm, "meta"), "cache")), "hit");
        assert_eq!(get(&warm, "result"), get(&cold, "result"));
        warm_walls.push(num(get(get(&warm, "meta"), "wall_us")));
    }
    warm_walls.sort_by(f64::total_cmp);
    let warm_p50 = warm_walls[warm_walls.len() / 2];
    assert!(
        cold_wall >= 2.0 * warm_p50,
        "warm cache not faster: cold {cold_wall} µs vs warm p50 {warm_p50} µs"
    );

    // A different attacker against the same (target, defense) reuses the
    // baseline, and the service's answer must be value-identical to the
    // library's for both attacks.
    let (status, big) = json(
        addr,
        "POST",
        "/v1/attacks",
        &format!(
        "{{\"attacker\":{aggressive},\"target\":{target},\"defense\":{{\"stub_defense\":true}}}}"
    ),
    );
    assert_eq!(status, 200);
    assert_eq!(str_of(get(get(&big, "meta"), "cache")), "hit");
    // `meta.engine` names what ran, not the route: the stub's replay stays
    // inside its cone budget, the aggressive attacker's outgrows it and is
    // finished by the race solver — against the same cached baseline.
    assert_eq!(str_of(get(get(&cold, "meta"), "engine")), "delta");
    assert_eq!(str_of(get(get(&big, "meta"), "engine")), "race");
    assert_eq!(metric(addr, "bgpsim_sim_replays_abandoned_total"), 1);

    let lab = Lab::new(tiny_experiment());
    let sim = lab.simulator();
    let topo = lab.topology();
    let t = topo.index_of(bgpsim_topology::AsId::new(target)).unwrap();
    // Singles whose route does not replay bypass the cache and run on the
    // route's engine like any other attack: the race solver for undefended
    // exact-prefix and forged-origin hijacks, the generation engine for a
    // sub-prefix one.
    let a = topo
        .index_of(bgpsim_topology::AsId::new(aggressive))
        .unwrap();
    for (kind, attack, engine) in [
        ("origin", Attack::origin(a, t), "race"),
        ("forged_origin", Attack::forged_origin(a, t), "race"),
        ("sub_prefix", Attack::sub_prefix(a, t), "generation"),
    ] {
        let (status, open) = json(
            addr,
            "POST",
            "/v1/attacks",
            &format!("{{\"attacker\":{aggressive},\"target\":{target},\"kind\":\"{kind}\"}}"),
        );
        assert_eq!(status, 200, "{kind}: {open:?}");
        assert_eq!(str_of(get(get(&open, "meta"), "engine")), engine, "{kind}");
        assert_eq!(str_of(get(get(&open, "meta"), "cache")), "bypass");
        assert_eq!(
            num(get(get(&open, "result"), "pollution_count")) as usize,
            sim.run(attack, &Defense::none()).pollution_count(),
            "{kind}"
        );
    }
    let defense = Defense::none().with_stub_defense();
    for (attacker, response) in [(cheap_attacker, &cold), (aggressive, &big)] {
        let a = topo.index_of(bgpsim_topology::AsId::new(attacker)).unwrap();
        let direct = sim.run(Attack::origin(a, t), &defense);
        let result = get(response, "result");
        assert_eq!(
            num(get(result, "pollution_count")) as usize,
            direct.pollution_count()
        );
        // `polluted` is index-sorted and the service renders it in the
        // same order, so plain equality pins the full set.
        let direct_polluted: Vec<u32> = direct
            .polluted
            .iter()
            .map(|&ix| topo.id_of(ix).value())
            .collect();
        assert_eq!(u32s(get(result, "polluted")), direct_polluted);
    }

    assert_eq!(
        metric(
            addr,
            "bgpsim_baseline_cache_lookups_total{outcome=\"miss\"}"
        ),
        1
    );
    assert_eq!(
        metric(addr, "bgpsim_baseline_cache_lookups_total{outcome=\"hit\"}"),
        10
    );
    server.stop().expect("clean shutdown");
}

#[test]
fn concurrent_identical_sweeps_build_one_baseline_and_match_direct() {
    let server = tiny_server();
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let body = format!(
        "{{\"target\":{target},\"defense\":{{\"stub_defense\":true}},\"attackers\":\"transit\"}}"
    );

    // Submit two identical sweeps back-to-back before either runs.
    let (status, first) = json(addr, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "submit failed: {first:?}");
    let (status, second) = json(addr, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "submit failed: {second:?}");
    let first_id = str_of(get(&first, "id")).to_string();
    let second_id = str_of(get(&second, "id")).to_string();
    wait_done(addr, &first_id);
    wait_done(addr, &second_id);

    // Exactly one baseline build; the second sweep reused it.
    assert_eq!(metric(addr, "bgpsim_sim_baselines_built_total"), 1);
    assert_eq!(
        metric(
            addr,
            "bgpsim_baseline_cache_lookups_total{outcome=\"miss\"}"
        ),
        1
    );

    let (status, results) = json(addr, "GET", &format!("/v1/results/{first_id}"), "");
    assert_eq!(status, 200);
    let (status, results2) = json(addr, "GET", &format!("/v1/results/{second_id}"), "");
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
        let result = get(response, "result");
        assert_eq!(u32s(get(result, "attackers")), direct_attackers);
        assert_eq!(u32s(get(result, "counts")), direct);
    }
    assert_eq!(str_of(get(get(&results, "meta"), "cache")), "miss");
    assert_eq!(str_of(get(get(&results2, "meta"), "cache")), "hit");
    server.stop().expect("clean shutdown");
}

#[test]
fn full_queue_answers_429() {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.max_queued_jobs = 1;
    let server = spawn(config).expect("server boots");
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    // A full-pool sweep takes a millisecond or more and a submission on
    // a kept-alive connection some tens of microseconds, so the one-deep
    // queue overflows as soon as two submissions land while one sweep
    // runs. When that happens is the scheduler's business: keep
    // submitting until it does. (One connection per submission would pace
    // the client to the accept loop's 10 ms idle poll — slower than the
    // sweeps — and never overflow.)
    let body = format!("{{\"target\":{target},\"attackers\":\"all\"}}");
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let mut accepted = Vec::new();
    let mut rejected = false;
    for _ in 0..500 {
        let (status, response) = client.request("POST", "/v1/sweeps", &body).expect("submit");
        match status {
            202 => {
                let response = Json::parse(&response).expect("submission JSON");
                accepted.push(str_of(get(&response, "id")).to_string());
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
        wait_done(addr, id);
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn cancelled_job_reaches_a_terminal_state() {
    let server = tiny_server();
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let body = format!("{{\"target\":{target}}}");
    // Two submissions: the second is queued behind the first, so the
    // DELETE usually lands before it starts (but a fast executor may
    // legitimately finish it — both outcomes are valid).
    let (_, first) = json(addr, "POST", "/v1/sweeps", &body);
    let (_, second) = json(addr, "POST", "/v1/sweeps", &body);
    let first_id = str_of(get(&first, "id")).to_string();
    let second_id = str_of(get(&second, "id")).to_string();
    let (status, cancelled) = json(addr, "DELETE", &format!("/v1/jobs/{second_id}"), "");
    assert_eq!(status, 200, "cancel failed: {cancelled:?}");
    wait_done(addr, &first_id);
    let mut state = String::new();
    for _ in 0..600 {
        let (_, job) = json(addr, "GET", &format!("/v1/jobs/{second_id}"), "");
        state = str_of(get(&job, "state")).to_string();
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
        let (status, body) = json(addr, "GET", &format!("/v1/results/{second_id}"), "");
        assert_eq!(status, 409, "expected conflict, got: {body:?}");
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn error_paths() {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.max_body_bytes = 512;
    let server = spawn(config).expect("server boots");
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;

    let (status, _) = http(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/attacks", "");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "POST", "/v1/attacks", "{not json");
    assert_eq!(status, 400);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/attacks",
        "{\"attacker\":999999,\"target\":1}",
    );
    assert_eq!(status, 422);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/attacks",
        &format!("{{\"attacker\":{target},\"target\":{target}}}"),
    );
    assert_eq!(status, 422);
    let (status, _) = http(addr, "GET", "/v1/jobs/job-999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/jobs/banana", "");
    assert_eq!(status, 404);
    // Declare an over-cap body without sending it: the server rejects on
    // the Content-Length alone, and not sending the payload avoids the
    // TCP reset a close-with-unread-data would trigger.
    let mut stream = TcpStream::connect(addr).unwrap();
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
    assert!(metric(addr, "bgpsim_http_malformed_requests_total") >= 1);
    server.stop().expect("clean shutdown");
}

#[test]
fn batch_attacks_match_singles_with_per_item_errors() {
    let server = tiny_server();
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let stub = num(get(get(&healthz, "cast"), "resistant_stub")) as u32;
    let aggressive = num(get(get(&healthz, "cast"), "aggressive_attacker")) as u32;

    // The same two questions, asked one at a time...
    let single = |attacker: u32, defense: &str| {
        let (status, response) = json(
            addr,
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
    let (status, batch) = json(addr, "POST", "/v1/attacks:batch", &batch_body);
    assert_eq!(status, 200, "batch failed: {batch:?}");
    let results = match get(&batch, "results") {
        Json::Arr(items) => items.clone(),
        other => panic!("results must be an array, got {other:?}"),
    };
    assert_eq!(results.len(), 4, "one result slot per input entry");

    // Valid slots carry byte-identical `result` objects to the single
    // endpoint's answers for the same questions.
    assert_eq!(get(&results[0], "result"), get(&single_defended, "result"));
    assert_eq!(
        str_of(get(get(&results[0], "meta"), "engine")),
        str_of(get(get(&single_defended, "meta"), "engine"))
    );
    assert_eq!(
        get(&results[1], "result"),
        get(&single_undefended, "result")
    );
    // Broken slots answer in place without sinking the batch.
    assert_eq!(num(get(&results[2], "status")) as u16, 422);
    assert!(str_of(get(&results[2], "error")).contains("unknown ASN"));
    assert_eq!(num(get(&results[3], "status")) as u16, 422);

    let meta = get(&batch, "meta");
    assert_eq!(num(get(meta, "items")) as usize, 4);
    assert_eq!(num(get(meta, "ok")) as usize, 2);
    assert_eq!(num(get(meta, "failed")) as usize, 2);
    // Entry 0 is the only baseline-eligible entry (entry 1 is
    // undefended on the Auto engine → scratch path).
    assert_eq!(num(get(meta, "baseline_groups")) as usize, 1);

    // Envelope-level problems fail the whole request.
    let (status, _) = http(addr, "POST", "/v1/attacks:batch", "{\"attacks\":[]}");
    assert_eq!(status, 422);
    let (status, _) = http(addr, "POST", "/v1/attacks:batch", "{\"attacks\":7}");
    assert_eq!(status, 422);
    let (status, _) = http(addr, "POST", "/v1/attacks:batch", "{}");
    assert_eq!(status, 422);

    // The endpoint has its own metrics label.
    assert_eq!(
        metric(
            addr,
            "bgpsim_http_requests_total{endpoint=\"attacks_batch\",code=\"2xx\"}"
        ),
        1
    );
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
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let attackers = u32s(get(&healthz, "sample_attackers"));
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
        let (status, long) = json(addr, "POST", "/v1/sweeps", &long_body);
        assert_eq!(status, 202, "long submit failed: {long:?}");
        long_ids.push(str_of(get(&long, "id")).to_string());
        long_total = num(get(&long, "total")) as u64;
    }
    assert!(
        long_total > 128,
        "long job too small ({long_total} attackers) to span multiple chunks"
    );
    let (status, short) = json(
        addr,
        "POST",
        "/v1/sweeps",
        &format!(
            "{{\"target\":{target},\"attackers\":[{}]}}",
            short_pool.join(",")
        ),
    );
    assert_eq!(status, 202, "short submit failed: {short:?}");
    let short_id = str_of(get(&short, "id")).to_string();

    // The short job finishes while the long backlog is still going.
    wait_done(addr, &short_id);
    let unfinished = long_ids
        .iter()
        .filter(|id| {
            let (_, job) = json(addr, "GET", &format!("/v1/jobs/{id}"), "");
            str_of(get(&job, "state")) != "done"
        })
        .count();
    assert!(
        unfinished > 0,
        "all three long sweeps finished before the short one — \
         fair-share never interleaved them"
    );
    for id in &long_ids {
        wait_done(addr, id);
    }

    // Every job answered correctly despite the interleaving.
    let (status, short_results) = json(addr, "GET", &format!("/v1/results/{short_id}"), "");
    assert_eq!(status, 200);
    assert_eq!(u32s(get(get(&short_results, "result"), "counts")).len(), 3);
    for id in &long_ids {
        let (status, long_results) = json(addr, "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 200);
        assert_eq!(
            u32s(get(get(&long_results, "result"), "counts")).len() as u64,
            long_total
        );
    }
    // The scheduler telemetry shows the chunked dealing: the long job
    // alone spans multiple 64-attacker chunks.
    assert!(
        metric(addr, "bgpsim_jobs_chunks_total") >= 4,
        "expected several chunks, scheduler reported {}",
        metric(addr, "bgpsim_jobs_chunks_total")
    );
    server.stop().expect("clean shutdown");
}

#[test]
fn results_survive_a_restart_byte_identically() {
    let state_dir = scratch_dir("restart");
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.state_dir = Some(state_dir.clone());
    let server = spawn(config.clone()).expect("server boots");
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;
    let attackers = u32s(get(&healthz, "sample_attackers"));
    let pool: Vec<String> = attackers.iter().take(4).map(u32::to_string).collect();
    let (status, submitted) = json(
        addr,
        "POST",
        "/v1/sweeps",
        &format!(
            "{{\"target\":{target},\"defense\":{{\"stub_defense\":true}},\
             \"attackers\":[{}]}}",
            pool.join(",")
        ),
    );
    assert_eq!(status, 202, "submit failed: {submitted:?}");
    let id = str_of(get(&submitted, "id")).to_string();
    wait_done(addr, &id);
    let (status, before) = http(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    server.stop().expect("clean shutdown");

    // Same state dir, fresh process state: the terminal record reloads
    // and the results body is byte-identical.
    let server = spawn(config).expect("restarted server boots");
    let addr = server.addr();
    let (status, after) = http(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200, "results lost across restart: {after}");
    assert_eq!(before, after, "results changed across restart");
    let (_, job) = json(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(str_of(get(&job, "state")), "done");
    // Terminal jobs never report a stale ETA.
    assert_eq!(get(&job, "eta_ms"), &Json::Null);
    assert_eq!(metric(addr, "bgpsim_jobs_restored_total"), 1);
    // A restored record is retained, not rescheduled: nothing ran here.
    assert_eq!(metric(addr, "bgpsim_jobs_chunks_total"), 0);
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
    let addr = server.addr();
    let (status, healthz) = json(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(str_of(get(&healthz, "status")), "ok");
    // The unreadable file moved aside rather than being deleted or
    // crashing the boot; nothing was restored from it.
    assert!(!state_dir.join("job-7.json").exists());
    assert!(state_dir.join("quarantine").join("job-7.json").exists());
    assert_eq!(metric(addr, "bgpsim_state_files_quarantined_total"), 1);
    assert_eq!(metric(addr, "bgpsim_jobs_restored_total"), 0);
    let (status, _) = http(addr, "GET", "/v1/results/job-7", "");
    assert_eq!(status, 404);
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn stream_round_trip_ranges_and_summary() {
    let server = tiny_server();
    let addr = server.addr();
    let (status, submitted) = json(addr, "POST", "/v1/stream", "{\"events\":400,\"targets\":2}");
    assert_eq!(status, 202, "stream submit failed: {submitted:?}");
    assert_eq!(str_of(get(&submitted, "kind")), "stream");
    assert_eq!(num(get(&submitted, "total")), 400.0);
    let injected = num(get(&submitted, "injected"));
    assert!(injected > 0.0, "seeded tape should inject hijacks");
    assert_eq!(u32s(get(&submitted, "targets")).len(), 2);
    let id = str_of(get(&submitted, "id")).to_string();
    assert_eq!(
        str_of(get(&submitted, "range")),
        format!("/v1/stream/{id}/range")
    );
    let job = wait_done(addr, &id);
    assert_eq!(str_of(get(&job, "kind")), "stream");
    assert_eq!(num(get(&job, "completed")), 400.0);

    // Raw range over the whole tape: pollution samples one per event, in
    // seq order, with no ring eviction at this size.
    let (status, range) = json(addr, "GET", &format!("/v1/stream/{id}/range"), "");
    assert_eq!(status, 200, "range failed: {range:?}");
    assert_eq!(str_of(get(&range, "series")), "pollution");
    assert_eq!(num(get(&range, "appended")), 400.0);
    assert_eq!(num(get(&range, "evicted")), 0.0);
    let samples = match get(&range, "samples") {
        Json::Arr(items) => items,
        other => panic!("expected samples array, got {other:?}"),
    };
    assert_eq!(samples.len(), 400);
    let seqs: Vec<u64> = samples
        .iter()
        .map(|s| match s {
            Json::Arr(pair) => num(&pair[0]) as u64,
            other => panic!("expected [seq, value] pair, got {other:?}"),
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs out of order");

    // Windowed aggregation: 8 full 50-event windows, each with stats.
    let (status, agg) = json(
        addr,
        "GET",
        &format!("/v1/stream/{id}/range?agg=window&window=50&from=0&to=399"),
        "",
    );
    assert_eq!(status, 200);
    let windows = match get(&agg, "windows") {
        Json::Arr(items) => items,
        other => panic!("expected windows array, got {other:?}"),
    };
    assert_eq!(windows.len(), 8);
    for w in windows {
        assert_eq!(num(get(w, "count")), 50.0);
        assert!(!matches!(get(w, "mean"), Json::Null));
    }

    // A series no event ever touched answers 404, not empty data.
    let (status, _) = http(
        addr,
        "GET",
        &format!("/v1/stream/{id}/range?series=no-such-series"),
        "",
    );
    assert_eq!(status, 404);

    // The summary matches the submit-time ground truth.
    let (status, results) = json(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200, "results failed: {results:?}");
    assert_eq!(str_of(get(&results, "kind")), "stream");
    let result = get(&results, "result");
    assert_eq!(num(get(result, "events")), 400.0);
    assert_eq!(num(get(result, "injected")), injected);
    let detected = num(get(result, "detected"));
    assert!(detected <= injected);
    if detected > 0.0 {
        assert!(num(get(result, "mean_latency_events")) >= 0.0);
    } else {
        assert_eq!(get(result, "mean_latency_events"), &Json::Null);
    }

    // Per-stream counters landed on /v1/metrics.
    assert_eq!(metric(addr, "bgpsim_stream_events_total"), 400);
    assert_eq!(metric(addr, "bgpsim_stream_runs_total"), 1);
    assert_eq!(
        metric(addr, "bgpsim_stream_hijacks_injected_total"),
        injected as u64
    );
    assert_eq!(
        metric(addr, "bgpsim_stream_hijacks_detected_total"),
        detected as u64
    );

    // /range on a sweep job is a category error, not a 404.
    let target = {
        let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
        num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32
    };
    let (status, sweep) = json(
        addr,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target}}}"),
    );
    assert_eq!(status, 202);
    let sweep_id = str_of(get(&sweep, "id")).to_string();
    let (status, _) = http(addr, "GET", &format!("/v1/stream/{sweep_id}/range"), "");
    assert_eq!(status, 409);
    server.stop().expect("clean shutdown");
}

#[test]
fn restored_streams_keep_their_summary_but_not_their_tape() {
    let state_dir = scratch_dir("stream-restart");
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.state_dir = Some(state_dir.clone());
    let server = spawn(config.clone()).expect("server boots");
    let addr = server.addr();
    let (status, submitted) = json(addr, "POST", "/v1/stream", "{\"events\":150}");
    assert_eq!(status, 202, "stream submit failed: {submitted:?}");
    let id = str_of(get(&submitted, "id")).to_string();
    wait_done(addr, &id);
    let (status, before) = http(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    server.stop().expect("clean shutdown");

    let server = spawn(config).expect("restarted server boots");
    let addr = server.addr();
    // The summary survives byte-identical...
    let (status, after) = http(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200, "stream summary lost across restart: {after}");
    assert_eq!(before, after, "stream summary changed across restart");
    // ...but per-event samples are summary-only by design: permanently
    // gone, which is 410, not 404.
    let (status, _) = http(addr, "GET", &format!("/v1/stream/{id}/range"), "");
    assert_eq!(status, 410);
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn http_shutdown_drains_the_server() {
    let server = tiny_server();
    let addr = server.addr();
    let (status, body) = json(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(str_of(get(&body, "status")), "shutting down");
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
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;

    // Body-field variant on /v1/sweeps: the duplicate answers 200 with
    // the original job id and schedules nothing new.
    let body = format!(
        "{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"sweep-a\"}}"
    );
    let (status, first) = json(addr, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "first keyed submit: {first:?}");
    let (status, dup) = json(addr, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 200, "duplicate keyed submit: {dup:?}");
    assert_eq!(str_of(get(&first, "id")), str_of(get(&dup, "id")));

    // A different key is a different job.
    let other = body.replace("sweep-a", "sweep-b");
    let (status, second) = json(addr, "POST", "/v1/sweeps", &other);
    assert_eq!(status, 202, "distinct key must schedule: {second:?}");
    assert_ne!(str_of(get(&first, "id")), str_of(get(&second, "id")));

    // Header variant wins over an unkeyed body.
    let plain = format!("{{\"target\":{target},\"attackers\":\"transit\"}}");
    let (status, h1) = json_with_header(
        addr,
        "POST",
        "/v1/sweeps",
        "Idempotency-Key: sweep-hdr",
        &plain,
    );
    assert_eq!(status, 202, "header-keyed submit: {h1:?}");
    let (status, h2) = json_with_header(
        addr,
        "POST",
        "/v1/sweeps",
        "Idempotency-Key: sweep-hdr",
        &plain,
    );
    assert_eq!(status, 200, "header-keyed duplicate: {h2:?}");
    assert_eq!(str_of(get(&h1, "id")), str_of(get(&h2, "id")));

    // /v1/stream honours the same contract.
    let stream_body = "{\"events\":50,\"targets\":1,\"idempotency_key\":\"tape-a\"}";
    let (status, s1) = json(addr, "POST", "/v1/stream", stream_body);
    assert_eq!(status, 202, "keyed stream submit: {s1:?}");
    let (status, s2) = json(addr, "POST", "/v1/stream", stream_body);
    assert_eq!(status, 200, "duplicate stream submit: {s2:?}");
    assert_eq!(str_of(get(&s1, "id")), str_of(get(&s2, "id")));

    // Malformed keys are rejected up front, not silently unkeyed.
    let (status, err) = json(
        addr,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"  \"}}"),
    );
    assert_eq!(status, 422, "blank key must be rejected: {err:?}");
    let (status, err) = json(
        addr,
        "POST",
        "/v1/sweeps",
        &format!("{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":7}}"),
    );
    assert_eq!(status, 422, "non-string key must be rejected: {err:?}");

    for id in [
        str_of(get(&first, "id")).to_string(),
        str_of(get(&second, "id")).to_string(),
        str_of(get(&h1, "id")).to_string(),
        str_of(get(&s1, "id")).to_string(),
    ] {
        wait_done(addr, &id);
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn jobs_list_enumerates_newest_first() {
    let server = tiny_server();
    let addr = server.addr();
    let (_, healthz) = json(addr, "GET", "/v1/healthz", "");
    let target = num(get(get(&healthz, "cast"), "vulnerable_stub")) as u32;

    // Empty registry lists cleanly.
    let (status, empty) = json(addr, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(num(get(&empty, "total")), 0.0);
    assert!(matches!(get(&empty, "truncated"), Json::Bool(false)));

    let mut ids = Vec::new();
    for key in ["list-a", "list-b", "list-c"] {
        let body = format!(
            "{{\"target\":{target},\"attackers\":\"transit\",\"idempotency_key\":\"{key}\"}}"
        );
        let (status, submitted) = json(addr, "POST", "/v1/sweeps", &body);
        assert_eq!(status, 202, "{submitted:?}");
        ids.push(str_of(get(&submitted, "id")).to_string());
    }
    for id in &ids {
        wait_done(addr, id);
    }

    let (status, listing) = json(addr, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(num(get(&listing, "total")), 3.0);
    assert!(matches!(get(&listing, "truncated"), Json::Bool(false)));
    let jobs = match get(&listing, "jobs") {
        Json::Arr(items) => items,
        other => panic!("expected jobs array, got {other:?}"),
    };
    assert_eq!(jobs.len(), 3);
    // Newest first: the listing reverses submission order, and each
    // entry carries the same shape as GET /v1/jobs/{id}.
    let listed: Vec<&str> = jobs.iter().map(|j| str_of(get(j, "id"))).collect();
    let newest_first: Vec<&str> = ids.iter().rev().map(String::as_str).collect();
    assert_eq!(listed, newest_first);
    for job in jobs {
        assert_eq!(str_of(get(job, "kind")), "sweep");
        assert_eq!(str_of(get(job, "state")), "done");
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn healthz_reports_fleet_identity_and_capacity() {
    let server = tiny_server();
    let addr = server.addr();
    let (status, healthz) = json(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);

    // Fleet handshake identity: a fan-out coordinator matches on
    // (schema_version, scale, seed, num_ases), all of which must be
    // advertised here.
    assert_eq!(num(get(&healthz, "seed")), tiny_experiment().seed as f64);
    assert_eq!(str_of(get(&healthz, "scale")), "custom");
    assert!(num(get(&healthz, "num_ases")) > 0.0);

    // Capacity introspection: executor width, cache byte budget (null
    // when unbounded), and whether terminal jobs survive a restart.
    assert!(num(get(&healthz, "sweep_workers")) >= 1.0);
    assert!(matches!(get(&healthz, "cache_bytes"), Json::Null));
    assert!(matches!(get(&healthz, "state_dir"), Json::Bool(false)));
    server.stop().expect("clean shutdown");
}
