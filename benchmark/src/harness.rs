//! What every workload shares: the run context, the set-up and
//! measurement loops, the result record, and a few process-level probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::stats::{median, quartiles};
use crate::table::{self, Better};
use crate::trace::Tracer;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A timed loop never reports from fewer repetitions than this, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

/// `peak_rss_mb` is read once the timed loop has made this many
/// repetitions (or ends with fewer): a server's job store and the
/// allocator's arenas grow with the repetitions made, and how many fit
/// into a run is the host's doing.
const RSS_AFTER_REPS: usize = 16;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `min(nproc, 4)`: the thread count of the layer probes' parallel
    /// sweep. The timed loops keep one thread busy at a time.
    pub threads: usize,
    /// `benchmark/out` under the current directory: trace files and the
    /// artifacts the campaigns render.
    pub out_dir: PathBuf,
    pub epoch: Instant,
}

impl Ctx {
    /// A scratch directory of this run inside `out_dir`.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("tmp-{}-{}", self.workload, std::process::id()))
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind it (repetitions or requests).
    pub samples: usize,
    /// Printed beside the value, e.g. the percentile a tail really used.
    pub note: String,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or oracle, for the report.
    pub failures: Vec<String>,
    /// Lines for the report that are neither metrics nor failures.
    pub notes: Vec<String>,
    pub values: Vec<Value>,
    /// The spans of a traced run, for the trace file and the summary.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.put_noted(name, value, samples, String::new());
    }

    pub fn put_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        assert!(
            table::metric(name).is_some(),
            "metric {name} is not in the table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.push(Value {
            name,
            value,
            samples,
            note,
        });
    }

    /// A per-repetition timing or rate: the median over repetitions, with
    /// the quartiles printed beside it.
    pub fn put_median(&mut self, name: &'static str, values: &[f64]) {
        let [q1, median, q3] = quartiles(values);
        let note = format!("q1 {q1:.4}, q3 {q3:.4}");
        self.put_noted(name, median, values.len(), note);
    }

    /// A driver-gated timing or rate: the better quartile over
    /// repetitions (first for a time, third for a rate), with the median
    /// printed beside it.
    ///
    /// On a shared host interference only ever adds time: the median of a
    /// run follows the host's phases, the better quartile follows the
    /// program (README, "One busy thread").
    pub fn put_quiet(&mut self, name: &'static str, values: &[f64]) {
        let metric =
            table::metric(name).unwrap_or_else(|| panic!("metric {name} is not in the table"));
        let [q1, median, q3] = quartiles(values);
        let (quiet, which) = match metric.better {
            Better::Lower => (q1, "q1"),
            Better::Higher => (q3, "q3"),
        };
        let note = format!("{which} over repetitions, median {median:.4}");
        self.put_noted(name, quiet, values.len(), note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Counts one checked operation; `ok == false` is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Runs `build` [`SETUP_REPS`] times, keeps the last environment, and
/// returns it with every set-up's wall in seconds. `build` does the whole
/// set-up: lab, servers, handshake, tape, and one warm-up repetition.
///
/// `tear_down` ends an environment that is not kept, untimed, before the
/// next one is built: two labs, or two fleets, must never be alive at
/// once and inflate `peak_rss_mb`. Dropping is not enough for an
/// environment that owns a `ServerHandle`: only `stop()` ends the server's
/// threads, a dropped handle detaches them.
pub fn set_up<E>(mut build: impl FnMut() -> E, mut tear_down: impl FnMut(E)) -> (E, Vec<f64>) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = env.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        env = Some(build());
        walls.push(started.elapsed().as_secs_f64());
    }
    (env.expect("SETUP_REPS > 0"), walls)
}

/// Repetitions of one timed loop.
pub struct Measured<R> {
    /// Repetitions with tracing off: the end-to-end samples.
    pub plain: Vec<R>,
    /// Repetitions with spans recorded (`--trace 1` only).
    pub traced: Vec<R>,
    pub tracer: Tracer,
    /// `VmHWM` after [`RSS_AFTER_REPS`] repetitions, in MB.
    pub peak_rss_mb: f64,
}

/// Repeats `rep` for `ctx.seconds`. An untraced run makes only plain
/// repetitions. A traced run alternates plain and span-recording ones,
/// so one process yields both sides of `trace.overhead_pct` and slow
/// drift of the machine falls on both sides alike.
pub fn measure<R>(ctx: &Ctx, mut rep: impl FnMut(&mut Tracer, u64) -> R) -> Measured<R> {
    let mut tracer = Tracer::new(false, ctx.epoch);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut op = 0u64;
    let mut rss = None;
    while plain.len() < MIN_REPS || started.elapsed() < budget {
        plain.push(rep(&mut tracer, op));
        op += 1;
        if plain.len() == RSS_AFTER_REPS {
            rss = Some(peak_rss_mb());
        }
        if ctx.trace {
            tracer.set_enabled(true);
            traced.push(rep(&mut tracer, op));
            tracer.set_enabled(false);
            op += 1;
        }
    }
    Measured {
        plain,
        traced,
        tracer,
        peak_rss_mb: rss.unwrap_or_else(peak_rss_mb),
    }
}

/// `trace.overhead_pct` and `trace.spans` from the two sides of a traced
/// run; `spans` is how many spans the traced repetitions recorded.
pub fn trace_metrics(out: &mut Outcome, plain_walls: &[f64], traced_walls: &[f64], spans: usize) {
    let overhead = (median(traced_walls) / median(plain_walls) - 1.0) * 100.0;
    out.put("trace.overhead_pct", overhead, traced_walls.len());
    // Per repetition, so the count does not depend on how many
    // repetitions fit into the run.
    let per_rep = spans as f64 / traced_walls.len() as f64;
    out.put("trace.spans", per_rep, traced_walls.len());
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `min(nproc, 4)`.
pub fn thread_cap() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4)
}

/// Sets the worker count the vendored rayon reads on every parallel call.
/// Called once when the process starts; the layer probes call it again,
/// on the main thread while no other thread of the process runs, for the
/// one-thread side of `hijack.parallel_efficiency_pct`.
pub fn set_rayon_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Median wall of `f` over `n` runs, in milliseconds; returns the last
/// result too.
pub fn median_ms<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&walls), last.expect("n > 0"))
}
