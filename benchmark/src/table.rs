//! The single table of workloads and metrics.
//!
//! `--list`, the printed reports, `check_repeat.sh` and the repository's
//! `BENCHMARK.json` are all generated from the constants here; a unit
//! test fails when the committed `BENCHMARK.json` and this table diverge.

use std::fmt::Write as _;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`,
/// and the default for `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 2014;

/// The seed every lab, and the stream plan's targets and validators, are
/// generated from, whatever `--seed` says. The topology is the benchmark's
/// dataset: which AS the cast picks as "the deep stub" moves a sweep's
/// cost by tens of percent, and the driver judges steadiness across seeds.
/// `ExperimentConfig.seed` seeds the topology and every sample the figures
/// draw together, so fig5, fig6 and fig7 do the same work under every
/// `--seed`. `--seed` drives what the harness itself draws: fig2's
/// attacker class, the stream tapes' events, the request schedules, the
/// fleet's attacker class, and every oracle and probe sample.
pub const TOPOLOGY_SEED: u64 = 2014;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when
    /// it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, as `BENCHMARK.json` carries it.
    pub why: &'static str,
    /// Final sizes on the reference box (retuned from the issue's
    /// starting points so one repetition takes a few tenths of a second
    /// on one thread and a run sees forty or more).
    pub sizes: &'static str,
    /// Which of its own metrics the workload reports as `work_per_s`.
    pub work_is: &'static str,
    /// Which of its own calls the workload times for `op_p50_us`.
    pub op_is: &'static str,
}

pub const CAMPAIGN_PAPER: &str = "campaign_paper";
pub const CAMPAIGN_DEFENDED: &str = "campaign_defended";
pub const SERVE_WHATIF: &str = "serve_whatif";
pub const STREAM_DETECT: &str = "stream_detect";
pub const FANOUT_FLEET: &str = "fanout_fleet";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: CAMPAIGN_PAPER,
        why: "Paper tier in miniature (42,697 ASes): working set far above L2, race and generation engines do nearly all the work, delta, cache and HTTP none.",
        sizes: "paper scale; per repetition fig2 at attacker_stride 3072 over the seed's residue class (about 70 undefended attacks, race solver) + fig7 with 16 detection attacks (generation engine) + write_artifacts; one rayon worker",
        work_is: "sweep_attacks_per_s (fig2 attacks / fig2 wall)",
        op_is: "one experiments::fig7 call",
    },
    Workload {
        name: CAMPAIGN_DEFENDED,
        why: "Section V regime at 10k ASes: baseline builds and delta replay dominate, race is a minority; the figures' own strategy progression, one thread.",
        sizes: "standard scale; per repetition fig5 + fig6 at attacker_stride 200 (16 strategy sweeps, 14 baseline builds) + write_artifacts; one rayon worker",
        work_is: "sweep_attacks_per_s (fig5 + fig6 attacks / their wall)",
        op_is: "one experiments::fig5 call",
    },
    Workload {
        name: SERVE_WHATIF,
        why: "The same engines one request at a time over HTTP: warm against cold baseline-cache lookups, batch envelopes, and singles contending with a sweep job.",
        sizes: "standard scale; in-process server (http_workers 2, sweep_workers 1, cache_capacity 4, rayon threads 1), one keep-alive connection; per cycle 40 warm singles, 16 cold singles over 16 targets, one batch of 64 undefended attacks, one defended sweep job over every 32nd transit AS with the connection sending warm singles until it is done",
        work_is: "batch_attacks_per_s",
        op_is: "one warm POST /v1/attacks (a cycle's median)",
    },
    Workload {
        name: STREAM_DETECT,
        why: "The live path: per-event delta replay with memoization through StreamDetector, no sweeps and no HTTP; predicted unmoved by race or generation changes.",
        sizes: "standard scale; per repetition a fresh detector on a tape of its own: 210 events dealt from the seed in the default StreamConfig's mix (30 flips, 150 re-announcements, 30 injections over its 4 targets) applied one at a time on one thread into a StreamStore, then 50 window_agg reads",
        work_is: "events_per_s",
        op_is: "one StreamDetector::apply (a tape's median lag)",
    },
    Workload {
        name: FANOUT_FLEET,
        why: "Cost side of the fan-out tier on one host: shard planning, HTTP dispatch, polling and merge through an in-process worker.",
        sizes: "standard scale; 1 in-process worker server (rayon threads 1) + Coordinator, 2 polled shard jobs per sweep; per repetition run_sweep of the deep-stub target over the stride-72 pool (139 attackers) undefended, then under top-cohort ROV",
        work_is: "sweep_attacks_per_s (both sweeps' attacks / their wall)",
        op_is: "one Coordinator::run_sweep under top-cohort ROV",
    },
];

/// Every workload.
const ALL: &[&str] = &[];
const CAMPAIGNS_AND_FLEET: &[&str] = &[CAMPAIGN_PAPER, CAMPAIGN_DEFENDED, FANOUT_FLEET];
const SERVE: &[&str] = &[SERVE_WHATIF];
const STREAM: &[&str] = &[STREAM_DETECT];
const FLEET: &[&str] = &[FANOUT_FLEET];
const PAPER: &[&str] = &[CAMPAIGN_PAPER];

/// Who reads a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reported by every workload on the last line of a `--trace 0` run:
    /// `end_to_end` in `BENCHMARK.json`, gated by the driver.
    Gated,
    /// End-to-end, but native to some workloads only: printed by name and
    /// gated by `check_repeat.sh`, absent from the driver's line.
    Native,
    /// Reported by every workload on the last line of a `--trace 1` run:
    /// `per_layer` in `BENCHMARK.json`.
    Layer,
    /// A layer only some workloads exercise: printed by their traced run.
    LocalLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// (end-to-end metrics only; 0 for layer metrics).
    pub bound: f64,
    pub scope: Scope,
    /// Workloads that report it; empty means all.
    pub workloads: &'static [&'static str],
    /// A count that must repeat exactly between runs of one seed (‡).
    pub exact: bool,
    pub what: &'static str,
}

impl Metric {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    pub fn is_end_to_end(&self) -> bool {
        matches!(self.scope, Scope::Gated | Scope::Native)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    scope: Scope,
    workloads: &'static [&'static str],
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        scope,
        workloads,
        exact: false,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    scope: Scope,
    workloads: &'static [&'static str],
    exact: bool,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        scope,
        workloads,
        exact,
        what,
    }
}

use Better::{Higher, Lower};
use Scope::{Gated, Layer, LocalLayer, Native};

pub const METRICS: &[Metric] = &[
    // ---- end to end ------------------------------------------------------
    e2e("setup_s", "s", Lower, 0.25, Gated, ALL,
        "median of five set-ups: Lab::new, server/worker boot + handshake, tape generation, one warm-up repetition"),
    e2e("wall_s", "s", Lower, 0.25, Gated, ALL,
        "first quartile over repetitions of the repetition wall, artifacts included (serve_whatif: the warm, cold and batch phases of a cycle)"),
    e2e("work_per_s", "1/s", Higher, 0.25, Gated, ALL,
        "third quartile over repetitions of the workload's bulk rate: see `work_per_s is` per workload"),
    e2e("op_p50_us", "us", Lower, 0.25, Gated, ALL,
        "first quartile over repetitions of the workload's latency-critical call (its median within the repetition, where a repetition makes many): see `op_p50_us times` per workload"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, Gated, ALL,
        "VmHWM of the workload process once the timed loop has made 16 repetitions"),
    e2e("sweep_attacks_per_s", "1/s", Higher, 0.25, Native, CAMPAIGNS_AND_FLEET,
        "sweep attacks / time inside the figure or sweep calls, median over repetitions"),
    e2e("detect_attacks_per_s", "1/s", Higher, 0.25, Native, PAPER,
        "fig7 attacks / fig7 wall, median over repetitions"),
    e2e("warm_p50_us", "us", Lower, 0.25, Native, SERVE,
        "client-side latency of warm singles, median over requests"),
    e2e("warm_p95_us", "us", Lower, 0.25, Native, SERVE,
        "95th percentile of the same"),
    e2e("cold_p50_us", "us", Lower, 0.25, Native, SERVE,
        "client-side latency of cold singles (every lookup a miss, so a Baseline::build)"),
    e2e("batch_attacks_per_s", "1/s", Higher, 0.25, Native, SERVE,
        "OK items / batch-phase wall, median over cycles"),
    e2e("contended_p95_us", "us", Lower, 0.25, Native, SERVE,
        "95th percentile latency of warm singles sent while the sweep job runs"),
    e2e("sweep_job_s", "s", Lower, 0.25, Native, SERVE,
        "POST /v1/sweeps submit to state \"done\", median over cycles"),
    e2e("events_per_s", "1/s", Higher, 0.25, Native, STREAM,
        "events / apply-loop wall, median over repetitions"),
    e2e("event_lag_p50_us", "us", Lower, 0.25, Native, STREAM,
        "host time of one StreamDetector::apply (the detection-delay floor), median over events"),
    e2e("event_lag_p95_us", "us", Lower, 0.25, Native, STREAM,
        "95th percentile of the same"),
    // ---- per layer, every workload (probes on the workload's own lab) ----
    layer("topology.generate_ms", "ms", Lower, Layer, ALL, false,
        "gen::generate at the workload's scale and seed"),
    layer("topology.classify_depth_ms", "ms", Lower, Layer, ALL, false,
        "DepthMap::to_tier1 + classify + effective_depth"),
    layer("core.lab_new_ms", "ms", Lower, Layer, ALL, false, "Lab::new"),
    layer("core.render_ms", "ms", Lower, Layer, ALL, false,
        "to_csv + write_artifacts of the probe sweep's figure"),
    layer("core.render_share_pct", "%", Lower, Layer, ALL, false,
        "render time / (probe sweep + render)"),
    layer("core.json_parse_us_per_kb", "us/KB", Lower, Layer, ALL, false,
        "manifest::Json::parse over attack-response documents of the probe outcomes"),
    layer("core.json_write_us_per_kb", "us/KB", Lower, Layer, ALL, false,
        "Json::render_compact over the same documents"),
    layer("routing.simnet_build_ms", "ms", Lower, Layer, ALL, false, "SimNet::new"),
    layer("routing.race_ns_per_as", "ns", Lower, Layer, ALL, false,
        "solve_race_observed on the attack sample, one reused workspace, / ASes"),
    layer("routing.race_rounds_mean", "count", Lower, Layer, ALL, true,
        "mean fixed-point rounds over the sample"),
    layer("routing.race_fallbacks", "count", Lower, Layer, ALL, true,
        "sample attacks whose race did not settle"),
    layer("routing.race_disagreements", "count", Lower, Layer, ALL, true,
        "sample attacks on which the race solver and the generation engine capture different AS counts"),
    layer("routing.generation_ns_per_as", "ns", Lower, Layer, ALL, false,
        "propagate_announcements on the same sample / ASes"),
    layer("routing.generation_msgs_per_attack", "count", Lower, Layer, ALL, true,
        "mean messages delivered per sample attack"),
    layer("routing.baseline_build_ms", "ms", Lower, Layer, ALL, false,
        "Baseline::build per probe target under the probe defense"),
    layer("routing.baseline_bytes_per_as", "B", Lower, Layer, ALL, true,
        "Baseline::heap_bytes / ASes"),
    layer("routing.delta_us_p50", "us", Lower, Layer, ALL, false,
        "propagate_delta per sample attack under the probe defense"),
    layer("routing.delta_us_p95", "us", Lower, Layer, ALL, false,
        "tail of the same (highest percentile the sample supports)"),
    layer("routing.delta_cone_mean", "count", Lower, Layer, ALL, true,
        "mean DeltaResult::touched size"),
    layer("hijack.sweep_call_ms", "ms", Lower, Layer, ALL, false,
        "one Simulator::sweep_attackers_monitored over the probe pool on min(nproc, 4) threads, SweepTelemetry attached"),
    layer("hijack.dispatch_race", "count", Higher, Layer, ALL, true,
        "race dispatches of that sweep"),
    layer("hijack.dispatch_delta", "count", Higher, Layer, ALL, true,
        "delta dispatches of that sweep"),
    layer("hijack.dispatch_scratch", "count", Lower, Layer, ALL, true,
        "from-scratch generation dispatches of that sweep"),
    layer("hijack.engine_share_pct", "%", Higher, Layer, ALL, false,
        "sum(probe cost x dispatch count) / (sweep wall x threads)"),
    layer("hijack.unattributed_pct", "%", Lower, Layer, ALL, false,
        "100 - engine share: accounting, dispatch, thread spawn, imbalance"),
    layer("hijack.parallel_efficiency_pct", "%", Higher, Layer, ALL, false,
        "the same sweep at 1 thread: T1 / (n x Tn)"),
    layer("hijack.curve_us", "us", Lower, Layer, ALL, false,
        "SweepResult::new + curve + points"),
    layer("defense.select_ms", "ms", Lower, Layer, ALL, false,
        "DeploymentStrategy::scaled_progression + defense(topo) for each strategy"),
    layer("defense.strategies", "count", Lower, Layer, ALL, true,
        "strategies in the progression"),
    layer("detection.experiment_ms", "ms", Lower, Layer, ALL, false,
        "run_detection_experiment over 64 random transit attacks and the fig7 probe sets"),
    layer("detection.sample_ms", "ms", Lower, Layer, ALL, false, "random_transit_attacks"),
    layer("detection.accounting_pct", "%", Lower, Layer, ALL, false,
        "1 - generation-engine time on the same attacks / experiment wall, both on one thread"),
    layer("viz.chart_ms", "ms", Lower, Layer, ALL, false, "chart() of the probe figure"),
    layer("viz.svg_kb", "KB", Lower, Layer, ALL, true, "size of that chart"),
    layer("trace.overhead_pct", "%", Lower, Layer, ALL, false,
        "median traced repetition wall vs median untraced, same process"),
    layer("trace.spans", "count", Lower, Layer, ALL, true,
        "spans one traced repetition records"),
    // ---- per layer, only where the workload exercises the layer ----------
    layer("stream.plan_generate_ms", "ms", Lower, LocalLayer, STREAM, false, "StreamPlan::generate"),
    layer("stream.apply_us_inject_p50", "us", Lower, LocalLayer, STREAM, false,
        "apply on HijackInject events"),
    layer("stream.apply_us_reannounce_p50", "us", Lower, LocalLayer, STREAM, false,
        "apply on TargetReannounce events"),
    layer("stream.apply_us_flip_p50", "us", Lower, LocalLayer, STREAM, false,
        "apply on DefenseFlip events"),
    layer("stream.store_push_ns", "ns", Lower, LocalLayer, STREAM, false, "StreamStore::push"),
    layer("stream.window_agg_us", "us", Lower, LocalLayer, STREAM, false,
        "ChunkedSeries::window_agg over the whole tape"),
    layer("stream.oracle_speedup_x", "x", Higher, LocalLayer, STREAM, false,
        "DetectorMode::Batch wall / Incremental wall on a 200-event prefix"),
    layer("server.boot_ms", "ms", Lower, LocalLayer, SERVE, false, "spawn to first healthz 200"),
    layer("server.http_floor_us", "us", Lower, LocalLayer, SERVE, false,
        "p50 of GET /v1/healthz"),
    layer("server.eval_us_p50", "us", Lower, LocalLayer, SERVE, false,
        "meta.wall_us of sampled warm responses"),
    layer("server.overhead_us_p50", "us", Lower, LocalLayer, SERVE, false,
        "client latency - meta.wall_us on the same responses"),
    layer("server.response_kb_mean", "KB", Lower, LocalLayer, SERVE, false,
        "mean warm response body"),
    layer("server.cache_hit_ratio", "ratio", Higher, LocalLayer, SERVE, false,
        "bgpsim_baseline_cache_lookups_total hit / all"),
    layer("server.cache_coalesced", "count", Lower, LocalLayer, SERVE, false,
        "lookups coalesced with an in-flight build"),
    layer("server.metrics_scrape_us", "us", Lower, LocalLayer, SERVE, false,
        "p50 of GET /v1/metrics"),
    layer("server.job_chunks", "count", Lower, LocalLayer, SERVE, true,
        "bgpsim_jobs_chunks_total per sweep job"),
    layer("server.job_overhead_pct", "%", Lower, LocalLayer, SERVE, false,
        "uncontended job wall vs the same sweep through Simulator at 1 thread"),
    layer("server.batch_amortization_x", "x", Higher, LocalLayer, SERVE, false,
        "batch attacks/s / sequential undefended singles/s"),
    layer("fanout.connect_ms", "ms", Lower, LocalLayer, FLEET, false, "Coordinator::connect"),
    layer("fanout.overhead_pct", "%", Lower, LocalLayer, FLEET, false,
        "fleet wall vs local sweep_attackers on one thread"),
    layer("fanout.shards_total", "count", Lower, LocalLayer, FLEET, true,
        "shards per repetition"),
    layer("fanout.shards_retried", "count", Lower, LocalLayer, FLEET, true, "Coordinator::stats"),
    layer("fanout.shards_hedged", "count", Lower, LocalLayer, FLEET, true, "Coordinator::stats"),
    layer("fanout.shard_rtt_ms_mean", "ms", Lower, LocalLayer, FLEET, false,
        "dispatch to rows per shard"),
    layer("fanout.worker_imbalance_pct", "%", Lower, LocalLayer, FLEET, false,
        "(max - min) / mean of per-worker busy time"),
    layer("fanout.merge_us", "us", Lower, LocalLayer, FLEET, false, "ShardPlan::merge"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn metrics_in(scope: Scope) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.scope == scope)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The repository's `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"end_to_end\": [\n");
    let gated: Vec<&Metric> = metrics_in(Scope::Gated).collect();
    for (i, m) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name()),
            m.bound
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"per_layer\": [\n");
    let layers: Vec<&Metric> = metrics_in(Scope::Layer).collect();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name())
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// `--list`: every workload and every metric name with unit and direction.
pub fn list() -> String {
    let mut out = String::new();
    out.push_str("workloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "  {}\n    why: {}\n    sizes: {}",
            w.name, w.why, w.sizes
        );
        let _ = writeln!(
            out,
            "    work_per_s is: {}\n    op_p50_us times: {}",
            w.work_is, w.op_is
        );
    }
    for (title, scopes) in [
        (
            "end-to-end metrics (bound = allowed worsening vs the reference median)",
            &[Gated, Native][..],
        ),
        (
            "per-layer metrics (traced run; ‡ = a count that must repeat exactly)",
            &[Layer, LocalLayer][..],
        ),
    ] {
        let _ = writeln!(out, "{title}");
        for m in METRICS.iter().filter(|m| scopes.contains(&m.scope)) {
            let on = if m.workloads.is_empty() {
                "all".to_string()
            } else {
                m.workloads.join(",")
            };
            let bound = if m.is_end_to_end() {
                format!(" bound {:.0}%", m.bound * 100.0)
            } else {
                String::new()
            };
            let gate = match m.scope {
                Gated => " [driver-gated]",
                Layer => " [driver line]",
                Native | LocalLayer => "",
            };
            let exact = if m.exact { " ‡" } else { "" };
            let _ = writeln!(
                out,
                "  {:<34} {:<6} {:<6}{bound}{gate}{exact}  on {on}: {}",
                m.name,
                m.unit,
                m.better.name(),
                m.what
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is this table, rendered.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json and benchmark/src/table.rs diverge: regenerate with \
             `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_obeys_the_driver_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in METRICS {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            if m.is_end_to_end() {
                assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            }
            for w in m.workloads {
                assert!(
                    workload(w).is_some(),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
            if matches!(m.scope, Gated | Layer) {
                assert!(
                    m.workloads.is_empty(),
                    "{} must come from every workload",
                    m.name
                );
            }
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&metrics_in(Gated).count()));
        assert!((1..=128).contains(&metrics_in(Layer).count()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better, setup.scope), ("s", Lower, Gated));
        assert!(
            metrics_in(Gated).all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in &WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in METRICS {
            assert!(text.contains(m.name), "--list omits {}", m.name);
        }
    }
}
