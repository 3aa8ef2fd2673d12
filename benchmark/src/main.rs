//! The repo's benchmark. See `benchmark/README.md`.
//!
//! One binary, three ways in:
//!
//! * `--workload NAME [--seed N] [--seconds S] [--trace 0|1]` runs one
//!   workload in this process and ends its standard output with the
//!   driver's result line;
//! * no `--workload` runs every workload, each in its own process, first
//!   untraced and then traced, and prints every metric by name;
//! * `--check-repeat` runs that set twice and fails, naming the metric,
//!   unless the two sides agree.

mod harness;
mod probes;
mod repeat;
mod stats;
mod table;
mod trace;
mod workloads {
    pub mod campaign;
    pub mod fanout;
    pub mod serve;
    pub mod stream;
}

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Outcome};
use table::{Scope, CAMPAIGN_DEFENDED, CAMPAIGN_PAPER, FANOUT_FLEET, SERVE_WHATIF, STREAM_DETECT};

const USAGE: &str = "\
benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
benchmark/run.sh --list | --emit-benchmark-json
benchmark/check_repeat.sh [--seed N] [--seconds S]

  --workload NAME   run one workload in this process (default: all five, each in
                    its own process, untraced then traced)
  --seed N          seeds every input the harness draws: fig2's attacker class, the
                    stream tapes' events, the request schedules, the fleet's attacker
                    class, every oracle and probe sample; the topologies are pinned
                    (README, What --seed seeds) [2014]
  --seconds S       how long the timed loop runs [20]
  --trace [0|1]     1 (or bare): record spans, run the layer probes, report the
                    per-layer metrics; 0: report the end-to-end metrics [0]
  --list            every workload and metric name with unit and direction
  --emit-benchmark-json
                    BENCHMARK.json as generated from the table
  --check-repeat    run the full set twice and compare (see check_repeat.sh)";

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    mode: Mode,
}

#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Run,
    List,
    EmitJson,
    CheckRepeat,
    Help,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: table::DEFAULT_SEED,
        seconds: table::RUN_SECONDS as f64,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    table::workload(&name)
                        .ok_or_else(|| {
                            let names: Vec<&str> =
                                table::WORKLOADS.iter().map(|w| w.name).collect();
                            format!("unknown workload {name:?}: one of {}", names.join(", "))
                        })?
                        .name,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds expects a number in (0, 600]")?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--list" => args.mode = Mode::List,
            "--emit-benchmark-json" => args.mode = Mode::EmitJson,
            "--check-repeat" => args.mode = Mode::CheckRepeat,
            "--help" | "-h" => args.mode = Mode::Help,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Mode::List => {
            print!("{}", table::list());
            ExitCode::SUCCESS
        }
        Mode::EmitJson => {
            print!("{}", table::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::CheckRepeat => repeat::check_repeat(&args),
        Mode::Run => match args.workload {
            Some(workload) => run_one(workload, &args, epoch),
            None => repeat::run_suite(&args),
        },
    }
}

/// Runs one workload in this process and prints its report, ending with
/// the driver's result line.
fn run_one(workload: &'static str, args: &Args, epoch: Instant) -> ExitCode {
    let threads = harness::thread_cap();
    // Every timed loop keeps one thread busy at a time, so rayon gets one
    // worker. Set once, before any other thread exists; only the layer
    // probes' parallel sweep raises it, after the workload's threads ended.
    harness::set_rayon_threads(1);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        out_dir: std::path::PathBuf::from("benchmark/out"),
        epoch,
    };
    println!(
        "# bgpsim benchmark: workload={workload} seed={} seconds={} trace={} probe_threads={threads}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let started = Instant::now();
    let outcome = match workload {
        CAMPAIGN_PAPER => workloads::campaign::run(&ctx, true),
        CAMPAIGN_DEFENDED => workloads::campaign::run(&ctx, false),
        SERVE_WHATIF => workloads::serve::run(&ctx),
        STREAM_DETECT => workloads::stream::run(&ctx),
        FANOUT_FLEET => workloads::fanout::run(&ctx),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    };
    let _ = std::fs::remove_dir_all(ctx.scratch_dir());
    print!(
        "{}",
        report(&ctx, &outcome, started.elapsed().as_secs_f64())
    );
    // A run that got as far as its result line exits 0 and lets
    // `correct` and `failed` speak; the suite and repeat modes read them
    // and fail on anything but zero.
    ExitCode::SUCCESS
}

/// The report of one run: every metric by name with its unit, the span
/// summary of a traced run, the operation counts, a `full` line for the
/// suite and repeat modes, and last the driver's result line.
fn report(ctx: &Ctx, outcome: &Outcome, run_s: f64) -> String {
    let mut text = String::new();
    let wanted = if ctx.trace {
        [Scope::Layer, Scope::LocalLayer]
    } else {
        [Scope::Gated, Scope::Native]
    };
    for m in table::METRICS {
        if !wanted.contains(&m.scope) || !m.applies_to(ctx.workload) {
            continue;
        }
        let Some(v) = outcome.values.iter().find(|v| v.name == m.name) else {
            panic!("workload {} did not report {}", ctx.workload, m.name);
        };
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!(", {}", v.note)
        };
        let exact = if m.exact { " ‡" } else { "" };
        let _ = writeln!(
            text,
            "metric {:<34} = {:>16.4} {:<6} (n={}{note}){exact}",
            m.name, v.value, m.unit, v.samples
        );
    }
    for v in &outcome.values {
        let m = table::metric(v.name).expect("put() checked the name");
        assert!(
            wanted.contains(&m.scope) && m.applies_to(ctx.workload),
            "workload {} reported {} which the table does not list for this run",
            ctx.workload,
            v.name
        );
    }
    if let Some(tracer) = &outcome.tracer {
        let path = ctx.out_dir.join(format!("{}.trace.json", ctx.workload));
        match trace::write_json(&path, ctx.workload, ctx.seed, tracer.spans()) {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "trace: {} spans -> {}",
                    tracer.spans().len(),
                    path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(text, "trace: could not write {}: {e}", path.display());
            }
        }
        let _ = writeln!(
            text,
            "span {:<30} {:>8} {:>12} {:>12}",
            "name", "count", "total_ms", "self_ms"
        );
        for (name, t) in trace::totals_by_name(tracer.spans()) {
            let _ = writeln!(
                text,
                "span {name:<30} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for note in &outcome.notes {
        let _ = writeln!(text, "note: {note}");
    }
    for failure in &outcome.failures {
        let _ = writeln!(text, "failure: {failure}");
    }
    let _ = writeln!(
        text,
        "operations: attempted={} failed={} run_s={run_s:.1}",
        outcome.attempted, outcome.failed
    );

    // Everything, for the suite and repeat modes.
    let pairs: Vec<String> = outcome
        .values
        .iter()
        .map(|v| format!("\"{}\":{}", v.name, v.value))
        .collect();
    let _ = writeln!(
        text,
        "full {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"run_s\":{run_s},\"attempted\":{},\"failed\":{},\"values\":{{{}}}}}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace),
        outcome.attempted,
        outcome.failed,
        pairs.join(",")
    );

    // The driver's line: exactly the metrics BENCHMARK.json lists.
    let driver_scope = if ctx.trace {
        Scope::Layer
    } else {
        Scope::Gated
    };
    let metrics: Vec<String> = table::metrics_in(driver_scope)
        .map(|m| {
            let value = outcome
                .get(m.name)
                .unwrap_or_else(|| panic!("workload {} did not report {}", ctx.workload, m.name));
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        text,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_whatif",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some("serve_whatif"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse_args(&strings(&["--trace", "0", "--workload", "stream_detect"])).unwrap();
        assert!(!a.trace);
        assert_eq!(a.workload, Some("stream_detect"));
        // Bare --trace, as the issue's command line has it.
        let a = parse_args(&strings(&["--trace", "--seed", "3"])).unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 3);
        assert_eq!(parse_args(&[]).unwrap().seed, table::DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }
}
