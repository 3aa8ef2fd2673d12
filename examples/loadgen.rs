//! Concurrent load generator for `bgpsim serve`.
//!
//! Bootstraps itself from `GET /v1/healthz` (the server advertises its
//! cast ASNs and a sample attacker pool exactly so clients need no
//! out-of-band knowledge of the generated topology), then hammers
//! `POST /v1/attacks` from several keep-alive connections and prints a
//! log₂ latency histogram — the same bucketing the server's own
//! `/v1/metrics` histograms use, so the two are directly comparable.
//!
//! ```text
//! bgpsim serve --scale quick &
//! cargo run --release --example loadgen -- --threads 8 --requests 200
//! ```
//!
//! The first requests are cold (the server builds the target's honest
//! baseline); everything after hits the baseline cache, which is the
//! point: the histogram shows the cold tail and the warm body in one
//! picture, and the closing `/v1/metrics` excerpt shows the cache's
//! hit/miss/coalesced ledger for the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bgpsim::fanout::client::Client;
use bgpsim::hijack::{wall_bucket, WALL_HIST_BUCKETS};
use bgpsim::manifest::Json;

struct Options {
    addr: String,
    threads: usize,
    requests: usize,
    defended: bool,
    /// Attacks per request: 0 sends one `POST /v1/attacks` per request,
    /// N > 0 sends N-attack `POST /v1/attacks:batch` envelopes.
    batch: usize,
    /// Also run async sweeps concurrently with the attack load.
    mix: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:8080".to_string(),
        threads: 4,
        requests: 200,
        defended: true,
        batch: 0,
        mix: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a number".to_string())?;
            }
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests expects a number".to_string())?;
            }
            // Undefended attacks bypass the baseline cache (the race
            // solver is already closed-form); useful as a contrast run.
            "--undefended" => opts.defended = false,
            "--batch" => {
                opts.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch expects a number".to_string())?;
            }
            "--mix" => opts.mix = true,
            "--help" | "-h" => {
                println!(
                    "loadgen — hammer a bgpsim server\n\n\
                     OPTIONS:\n    --addr HOST:PORT  [127.0.0.1:8080]\n    \
                     --threads N       concurrent connections [4]\n    \
                     --requests N      requests per thread [200]\n    \
                     --batch N         pack N attacks into each request\n    \
                     \u{20}                 (POST /v1/attacks:batch) [0 = one per request]\n    \
                     --mix             run async sweeps concurrently with the attacks\n    \
                     --undefended      send cache-bypassing undefended attacks"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.threads == 0 || opts.requests == 0 {
        return Err("--threads and --requests must be at least 1".to_string());
    }
    Ok(opts)
}

/// Pulls `meta.ok` out of a batch response without parsing the whole
/// body — a quick-scale batch answer carries thousands of polluted ASNs
/// per item, and a full client-side parse would bill the server's own
/// CPU for work no load generator needs.
fn batch_ok_count(response: &str) -> Option<u64> {
    let meta = &response[response.rfind("\"meta\"")?..];
    let after = &meta[meta.find("\"ok\":")? + 5..];
    let digits: String = after
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn main() -> std::process::ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            return std::process::ExitCode::from(2);
        }
    };

    // Bootstrap: ask the server who it is and whom it can attack.
    let mut client = match Client::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "error: cannot connect to {}: {e} (is `bgpsim serve` up?)",
                opts.addr
            );
            return std::process::ExitCode::FAILURE;
        }
    };
    let healthz = match client.request("GET", "/v1/healthz", "") {
        Ok((200, body)) => match Json::parse(&body) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: /v1/healthz returned unparseable JSON: {e}");
                return std::process::ExitCode::FAILURE;
            }
        },
        Ok((status, body)) => {
            eprintln!("error: /v1/healthz returned {status}: {body}");
            return std::process::ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: /v1/healthz failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let target = healthz
        .get("cast")
        .and_then(|cast| cast.get("vulnerable_stub"))
        .and_then(Json::as_u32)
        .expect("healthz advertises cast.vulnerable_stub");
    let attackers = healthz
        .get("sample_attackers")
        .and_then(Json::as_u32_array)
        .unwrap_or_default();
    assert!(!attackers.is_empty(), "healthz advertises sample_attackers");
    let per_request = opts.batch.max(1);
    eprintln!(
        "target AS{target}, {} candidate attackers, {} threads x {} requests x {} attack(s) ({}{})",
        attackers.len(),
        opts.threads,
        opts.requests,
        per_request,
        if opts.defended {
            "defended, cacheable"
        } else {
            "undefended, cache bypass"
        },
        if opts.mix {
            ", sweeps running alongside"
        } else {
            ""
        }
    );

    // Shared log2 histogram (µs) of per-REQUEST latency, same bucketing
    // as the server's; `attacks_ok` counts individual attacks for the
    // throughput line (requests × batch size in batch mode).
    let hist: Vec<AtomicU64> = (0..WALL_HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
    let sum_us = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let attacks_ok = AtomicU64::new(0);
    let sweeps_done = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..opts.threads {
            let hist = &hist;
            let sum_us = &sum_us;
            let errors = &errors;
            let attacks_ok = &attacks_ok;
            let attackers = &attackers;
            let opts = &opts;
            scope.spawn(move || {
                let mut client = match Client::connect(&opts.addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add((opts.requests * per_request) as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for i in 0..opts.requests {
                    // Stagger workers across the pool so concurrent
                    // requests exercise distinct attacks.
                    let pick = |j: usize| {
                        attackers[(worker + (i * per_request + j) * opts.threads) % attackers.len()]
                    };
                    let defense = if opts.defended {
                        "\"defense\":{\"stub_defense\":true},"
                    } else {
                        ""
                    };
                    let (path, body) = if opts.batch > 0 {
                        let mut items = String::new();
                        for j in 0..opts.batch {
                            if j > 0 {
                                items.push(',');
                            }
                            items.push_str(&format!(
                                "{{\"attacker\":{},\"target\":{target}}}",
                                pick(j)
                            ));
                        }
                        (
                            "/v1/attacks:batch",
                            format!("{{{defense}\"attacks\":[{items}]}}"),
                        )
                    } else {
                        (
                            "/v1/attacks",
                            format!("{{{defense}\"attacker\":{},\"target\":{target}}}", pick(0)),
                        )
                    };
                    let begin = Instant::now();
                    match client.request("POST", path, &body) {
                        Ok((200, response)) => {
                            let us = begin.elapsed().as_micros() as u64;
                            hist[wall_bucket(us)].fetch_add(1, Ordering::Relaxed);
                            sum_us.fetch_add(us, Ordering::Relaxed);
                            let ok = if opts.batch > 0 {
                                // The batch answers per item; count what
                                // actually succeeded.
                                batch_ok_count(&response).unwrap_or(0)
                            } else {
                                1
                            };
                            attacks_ok.fetch_add(ok, Ordering::Relaxed);
                            errors.fetch_add(per_request as u64 - ok, Ordering::Relaxed);
                        }
                        _ => {
                            errors.fetch_add(per_request as u64, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        if opts.mix {
            // One extra connection keeps async sweeps in flight while the
            // attack threads hammer, exercising the executor pool and the
            // HTTP workers at once.
            let sweeps_done = &sweeps_done;
            let opts = &opts;
            scope.spawn(move || {
                let mut client = match Client::connect(&opts.addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                for _ in 0..2 {
                    let body = format!("{{\"target\":{target},\"attackers\":\"transit\"}}");
                    let id = match client.request("POST", "/v1/sweeps", &body) {
                        Ok((202, response)) => match Json::parse(&response)
                            .ok()
                            .and_then(|json| Some(json.get("id")?.as_str()?.to_string()))
                        {
                            Some(id) => id,
                            None => return,
                        },
                        _ => return,
                    };
                    loop {
                        let state = match client.request("GET", &format!("/v1/jobs/{id}"), "") {
                            Ok((200, response)) => Json::parse(&response)
                                .ok()
                                .and_then(|json| Some(json.get("state")?.as_str()?.to_string())),
                            _ => return,
                        };
                        match state.as_deref() {
                            Some("done") => {
                                sweeps_done.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Some("queued") | Some("running") => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            _ => return,
                        }
                    }
                }
            });
        }
    });
    let wall = started.elapsed();

    // Report: histogram + quantiles from bucket upper bounds.
    let counts: Vec<u64> = hist.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let total: u64 = counts.iter().sum();
    let errors = errors.load(Ordering::Relaxed);
    println!(
        "\n{total} ok, {errors} errors in {:.2}s ({:.0} req/s)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9)
    );
    // Machine-parseable line: attacks/sec regardless of envelope shape,
    // so batch and single runs compare on the same axis.
    let attacks_ok = attacks_ok.load(Ordering::Relaxed);
    println!(
        "throughput: {:.0} attacks/s ({attacks_ok} attacks)",
        attacks_ok as f64 / wall.as_secs_f64().max(1e-9)
    );
    if opts.mix {
        println!("sweeps completed: {}", sweeps_done.load(Ordering::Relaxed));
    }
    if total == 0 || attacks_ok == 0 {
        return std::process::ExitCode::FAILURE;
    }
    println!("mean {} µs", sum_us.load(Ordering::Relaxed) / total);
    for (q, label) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
        let rank = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (bucket, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                println!("{label} < {} µs", 1u64 << bucket);
                break;
            }
        }
    }
    println!("\nlatency histogram (log2 µs buckets):");
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (bucket, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        println!("  < {:>10} µs  {count:>7}  {bar}", 1u64 << bucket);
    }

    // Close with the server's own cache ledger for this run.
    if let Ok((200, metrics)) = client.request("GET", "/v1/metrics", "") {
        println!("\nserver baseline cache:");
        for line in metrics.lines() {
            if line.starts_with("bgpsim_baseline_cache") {
                println!("  {line}");
            }
        }
    }
    std::process::ExitCode::SUCCESS
}
