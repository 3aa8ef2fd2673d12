//! Service-level fan-out tests: real `bgpsim-server` workers on
//! ephemeral ports, a coordinator dealing shards over live HTTP, and the
//! merged rows pinned byte-for-byte to a direct `Simulator` sweep built
//! from the identical `ExperimentConfig` — including with a worker killed
//! between sweeps (failed shards re-dispatch to the survivor) and through
//! the full `serve --fanout-workers` path where a coordinator *server*
//! deals its sweep jobs to the fleet.

use std::time::Duration;

use bgpsim::fanout::{
    Client, Coordinator, FanoutConfig, FanoutError, Handshake, NoopObserver, SweepRequest,
};
use bgpsim::manifest::{Json, SCHEMA_VERSION};
use bgpsim::{ExperimentConfig, Lab};
use bgpsim_hijack::Defense;
use bgpsim_server::{spawn, ServerConfig, ServerHandle};
use bgpsim_topology::gen::InternetParams;
use bgpsim_topology::AsIndex;

fn tiny_experiment() -> ExperimentConfig {
    ExperimentConfig {
        params: InternetParams::tiny(),
        ..ExperimentConfig::quick()
    }
}

fn tiny_worker() -> ServerHandle {
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    spawn(config).expect("worker boots")
}

fn handshake_for(lab: &Lab) -> Handshake {
    Handshake {
        schema_version: SCHEMA_VERSION,
        scale: "custom".to_string(),
        seed: lab.config().seed,
        num_ases: lab.topology().num_ases() as u64,
    }
}

/// The sweep every test replays: one cast target against a strided slice
/// of the pool, expressed both as indices (for the local oracle) and
/// ASNs (for the wire).
struct SweepCase {
    target: AsIndex,
    pool: Vec<AsIndex>,
    request: SweepRequest,
}

fn sweep_case(lab: &Lab) -> SweepCase {
    let topo = lab.topology();
    let target = lab.cast().vulnerable_stub;
    let pool: Vec<AsIndex> = lab
        .strided_attackers()
        .into_iter()
        .filter(|&a| a != target)
        .take(60)
        .collect();
    let request = SweepRequest {
        target_asn: topo.id_of(target).value(),
        pool_asns: pool.iter().map(|&a| topo.id_of(a).value()).collect(),
        validator_asns: Vec::new(),
        stub_defense: false,
    };
    SweepCase {
        target,
        pool,
        request,
    }
}

#[test]
fn two_workers_merge_byte_identically_and_survive_a_kill() {
    let lab = Lab::new(tiny_experiment());
    let case = sweep_case(&lab);
    let expected = lab
        .simulator()
        .sweep_attackers(case.target, &case.pool, &Defense::none());

    let w1 = tiny_worker();
    let w2 = tiny_worker();
    let mut config = FanoutConfig::new(vec![w1.addr().to_string(), w2.addr().to_string()]);
    // Many small shards so the post-kill run has real re-dispatch work.
    config.shards_per_worker = 4;
    let coordinator = Coordinator::connect(config, &handshake_for(&lab));
    assert_eq!(
        coordinator.live_workers(),
        2,
        "{:?}",
        coordinator.rejected()
    );

    let merged = coordinator
        .run_sweep(&case.request, &NoopObserver)
        .expect("fleet sweep");
    assert_eq!(merged, expected, "two-worker merge must be bit-identical");

    // Kill one worker; every shard dealt to it now fails and must be
    // re-dispatched to the survivor without changing a single byte.
    w2.stop().expect("worker stops");
    let merged = coordinator
        .run_sweep(&case.request, &NoopObserver)
        .expect("sweep survives a dead worker");
    assert_eq!(merged, expected, "post-kill merge must be bit-identical");

    let stats = coordinator.stats();
    assert!(
        stats.shards_retried > 0,
        "shards dealt to the dead worker must have been retried: {stats:?}"
    );
    // The short sweep may finish before the kill accrues enough
    // consecutive failures to flip `alive`, but the failed dispatches
    // themselves must be on the books.
    assert!(
        stats.workers.iter().any(|w| w.failures > 0),
        "the killed worker must have recorded failures: {stats:?}"
    );

    w1.stop().expect("worker stops");
}

#[test]
fn incompatible_and_unreachable_workers_leave_no_fleet() {
    let lab = Lab::new(tiny_experiment());
    let case = sweep_case(&lab);

    // Unreachable (discard port) and incompatible (wrong expected seed)
    // workers are both rejected at registration, not mid-sweep.
    let w = tiny_worker();
    let mut expect = handshake_for(&lab);
    expect.seed ^= 1;
    let coordinator = Coordinator::connect(
        FanoutConfig::new(vec!["127.0.0.1:9".to_string(), w.addr().to_string()]),
        &expect,
    );
    assert_eq!(coordinator.live_workers(), 0);
    assert_eq!(coordinator.rejected().len(), 2);
    assert!(matches!(
        coordinator.run_sweep(&case.request, &NoopObserver),
        Err(FanoutError::NoWorkers)
    ));
    w.stop().expect("worker stops");
}

// ---------------------------------------------------------------------
// `serve --fanout-workers`: the coordinator is itself a server, dealing
// its sweep jobs to the fleet.
// ---------------------------------------------------------------------

/// One request on `client`, parsed. Drop the client before stopping the
/// server it talks to: a drain waits out idle connections' read timeout.
fn json(client: &mut Client, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, text) = client
        .request(method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}"));
    (status, parsed)
}

/// Submits `case` as a `POST /v1/sweeps` with an explicit attacker list
/// and polls the job to `done`; returns its id and final job document.
fn sweep_to_done(client: &mut Client, case: &SweepCase) -> (String, Json) {
    let attackers: Vec<String> = case.request.pool_asns.iter().map(u32::to_string).collect();
    let body = format!(
        "{{\"target\":{},\"attackers\":[{}]}}",
        case.request.target_asn,
        attackers.join(",")
    );
    let (status, submitted) = json(client, "POST", "/v1/sweeps", &body);
    assert_eq!(status, 202, "{submitted:?}");
    let id = submitted
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    loop {
        let (status, job) = json(client, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        match job.get("state").and_then(Json::as_str) {
            Some("done") => return (id, job),
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("job reached {other:?}: {job:?}"),
        }
    }
}

/// The `result.counts` of a finished sweep, and its `meta.cache`.
fn sweep_results(client: &mut Client, id: &str) -> (Vec<u32>, String) {
    let (status, results) = json(client, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    let counts = results
        .get("result")
        .and_then(|result| result.get("counts"))
        .and_then(Json::as_u32_array)
        .expect("result.counts");
    let cache = results
        .get("meta")
        .and_then(|meta| meta.get("cache"))
        .and_then(Json::as_str)
        .expect("meta.cache");
    (counts, cache.to_string())
}

#[test]
fn serve_with_fanout_workers_deals_jobs_to_the_fleet() {
    let lab = Lab::new(tiny_experiment());
    let case = sweep_case(&lab);
    let expected = lab
        .simulator()
        .sweep_attackers(case.target, &case.pool, &Defense::none());

    let w1 = tiny_worker();
    let w2 = tiny_worker();
    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    config.fanout_workers = vec![w1.addr().to_string(), w2.addr().to_string()];
    let coordinator = spawn(config).expect("coordinator server boots");

    let mut client = Client::connect(&coordinator.addr().to_string()).expect("connect");
    let (id, job) = sweep_to_done(&mut client, &case);
    // The job must have been dealt as shards, not run locally.
    let shards = job.get("shards").expect("a fanned-out job reports shards");
    let count = |key: &str| shards.get(key).and_then(Json::as_u64).expect("shard count");
    assert!(count("total") >= 2, "{job:?}");
    assert_eq!(count("done"), count("total"));
    assert!(shards.get("retried").is_some() && shards.get("hedged").is_none());

    let (counts, cache) = sweep_results(&mut client, &id);
    assert_eq!(
        counts, expected,
        "served fan-out sweep must be bit-identical"
    );
    assert_eq!(cache, "fanout");

    // The coordinator's metrics expose the fan-out section.
    let (status, text) = client.request("GET", "/v1/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("bgpsim_fanout_workers{state=\"alive\"} 2"),
        "fanout metrics missing"
    );
    assert!(text.contains("bgpsim_fanout_shards_total{outcome=\"done\"}"));
    assert!(!text.contains("hedged"));

    drop(client);
    coordinator.stop().expect("coordinator stops");
    w1.stop().expect("worker stops");
    w2.stop().expect("worker stops");
}

#[test]
fn serve_with_unreachable_fleet_degrades_to_local_execution() {
    let lab = Lab::new(tiny_experiment());
    let case = sweep_case(&lab);
    let expected = lab
        .simulator()
        .sweep_attackers(case.target, &case.pool, &Defense::none());

    let mut config = ServerConfig::new(tiny_experiment(), "custom");
    config.addr = "127.0.0.1:0".to_string();
    // Discard port: nobody home. The server must boot anyway and answer
    // sweeps from the local rayon pool.
    config.fanout_workers = vec!["127.0.0.1:9".to_string()];
    let server = spawn(config).expect("server boots despite dead fleet");

    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let (id, job) = sweep_to_done(&mut client, &case);
    assert!(job.get("shards").is_none(), "nothing was dealt: {job:?}");
    let (counts, _) = sweep_results(&mut client, &id);
    assert_eq!(counts, expected, "local fallback must be bit-identical");

    drop(client);
    server.stop().expect("server stops");
}
