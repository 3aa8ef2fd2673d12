//! The two multi-process modes: the full suite, and the repeatability
//! check that runs it twice.
//!
//! Every workload runs in a process of its own (this binary, re-invoked
//! with `--workload`), so no workload inherits another's warm allocator,
//! page cache residue or thread count. The parent reads each child's
//! `full` line.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use bgpsim::fanout::client::get;
use bgpsim::manifest::Json;

use crate::stats::quartiles;
use crate::table::{self, Scope};
use crate::Args;

/// Untraced runs per workload on each side of the repeat check.
const RUNS: usize = 3;

/// One child run, as its `full` line reports it.
#[derive(Debug, Clone)]
struct Run {
    run_s: f64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn number(json: &Json, key: &str) -> Option<f64> {
    match get(json, key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Runs one workload in a child process, echoing its report (indented)
/// when `echo` is set.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, echo: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        for line in stdout.lines() {
            if !line.starts_with("full ") && !line.starts_with('{') {
                println!("  {line}");
            }
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let full = stdout
        .lines()
        .find_map(|l| l.strip_prefix("full "))
        .ok_or_else(|| format!("{workload} printed no full line"))?;
    let json = Json::parse(full).map_err(|e| format!("{workload}: bad full line: {e}"))?;
    let values = match get(&json, "values") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => return Err(format!("{workload}: full line has no values")),
    };
    Ok(Run {
        run_s: number(&json, "run_s").unwrap_or(0.0),
        failed: number(&json, "failed").map_or(u64::MAX, |f| f as u64),
        values,
    })
}

/// `benchmark/run.sh` with no `--workload`: every workload, untraced
/// then traced, every metric by name.
pub fn run_suite(args: &Args) -> ExitCode {
    let mut failed_ops = 0u64;
    let mut errors = Vec::new();
    for w in &table::WORKLOADS {
        for trace in [false, true] {
            println!(
                "== {} ({}) ==",
                w.name,
                if trace { "traced" } else { "untraced" }
            );
            match child(w.name, args.seed, args.seconds, trace, true) {
                Ok(run) => failed_ops += run.failed,
                Err(e) => errors.push(e),
            }
        }
    }
    for e in &errors {
        println!("error: {e}");
    }
    println!(
        "suite: {failed_ops} failed operations, {} runs in error",
        errors.len()
    );
    if failed_ops == 0 && errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One side's runs of one workload: [`RUNS`] untraced, one traced.
type Side = (Vec<Run>, Vec<Run>);

/// Both sides of the repeat check: per workload, [`RUNS`] untraced runs on
/// seeds `seed..seed + RUNS` and one traced run on `seed`, for each side.
/// The sides take turns run by run, and swap who goes first each time, so
/// a slow phase of the host falls on both alike.
fn both_sides(args: &Args) -> Result<BTreeMap<&'static str, [Side; 2]>, String> {
    let mut sides = BTreeMap::new();
    for w in &table::WORKLOADS {
        let mut pair: [Side; 2] = Default::default();
        for k in 0..=RUNS {
            let (seed, trace) = if k < RUNS {
                (args.seed + k as u64, false)
            } else {
                (args.seed, true)
            };
            for side in [k % 2, 1 - k % 2] {
                let run = child(w.name, seed, args.seconds, trace, false)?;
                println!(
                    "side {}: {} seed {seed} {}: {:.1} s, {} failed",
                    ["A", "B"][side],
                    w.name,
                    if trace { "traced" } else { "untraced" },
                    run.run_s,
                    run.failed
                );
                let (plain, traced) = &mut pair[side];
                if trace { traced } else { plain }.push(run);
            }
        }
        sides.insert(w.name, pair);
    }
    Ok(sides)
}

/// `benchmark/check_repeat.sh`: two sets of runs of the same tree must
/// agree — every end-to-end median within that metric's own bound, every
/// ‡ count identical, no failed operation.
pub fn check_repeat(args: &Args) -> ExitCode {
    let sides = match both_sides(args) {
        Ok(sides) => sides,
        Err(e) => {
            println!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    println!(
        "\n{:<18} {:<22} {:>38} {:>38} {:>8} {:>6}",
        "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3", "differ", "bound"
    );
    for w in &table::WORKLOADS {
        let [a, b] = &sides[w.name];
        for run in a.0.iter().chain(&a.1).chain(&b.0).chain(&b.1) {
            if run.failed != 0 {
                problems.push(format!(
                    "{}: a run had {} failed operations",
                    w.name, run.failed
                ));
            }
        }
        for m in table::METRICS
            .iter()
            .filter(|m| m.is_end_to_end() && m.applies_to(w.name))
        {
            let column = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (column(&a.0), column(&b.0));
            if va.len() != RUNS || vb.len() != RUNS {
                problems.push(format!("{}: {} missing from a run", w.name, m.name));
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // Symmetric: neither side's median may be worse than the
            // other's by more than the bound.
            let differ = m
                .better
                .worsening(qa[1], qb[1])
                .max(m.better.worsening(qb[1], qa[1]));
            let verdict = if differ <= m.bound {
                ""
            } else {
                "  <-- outside bound"
            };
            println!(
                "{:<18} {:<22} {:>38} {:>38} {:>7.1}% {:>5.0}%{verdict}",
                w.name,
                m.name,
                format!("{:.4} / {:.4} / {:.4}", qa[0], qa[1], qa[2]),
                format!("{:.4} / {:.4} / {:.4}", qb[0], qb[1], qb[2]),
                differ * 100.0,
                m.bound * 100.0
            );
            if differ > m.bound {
                problems.push(format!(
                    "{}: {} medians {:.4} and {:.4} {} differ by {:.1}%, bound {:.0}%",
                    w.name,
                    m.name,
                    qa[1],
                    qb[1],
                    m.unit,
                    differ * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for m in table::METRICS.iter().filter(|m| {
            m.exact && matches!(m.scope, Scope::Layer | Scope::LocalLayer) && m.applies_to(w.name)
        }) {
            match (a.1[0].values.get(m.name), b.1[0].values.get(m.name)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => problems.push(format!(
                    "{}: count {} did not repeat exactly: {x:?} then {y:?}",
                    w.name, m.name
                )),
            }
        }
    }
    if problems.is_empty() {
        println!("\ncheck_repeat: the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!();
        for p in &problems {
            println!("check_repeat: {p}");
        }
        ExitCode::FAILURE
    }
}
