//! Sweep-level telemetry, progress reporting, and cancellation.
//!
//! A paper-scale sweep (§IV: every one of 42,697 ASes attacks every
//! target) runs for minutes across all cores; this module makes such runs
//! *observable* without slowing them down. [`SweepTelemetry`] is a bank of
//! relaxed atomic counters shared read-only across rayon workers: engine
//! counters flow in once per re-convergence via the routing crate's
//! [`Observer::on_converged`] hook (never per message), dispatch counters
//! record which engine each attack used (closed-form race solver,
//! from-scratch generation race, or baseline-replay delta), and per-attack
//! wall times land in a log₂ histogram. [`SweepMonitor`] bundles an optional
//! telemetry sink with an optional progress callback and an optional
//! cancellation flag; [`SweepMonitor::none`] is inert and costs a handful
//! of predictable branches per *attack*, which is noise next to even the
//! cheapest re-convergence.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bgpsim_routing::{ConvergenceStats, EngineTelemetry, Observer};

/// Number of log₂ buckets in the per-attack wall-time histogram.
pub const WALL_HIST_BUCKETS: usize = 32;

/// Which engine one attack is routed to, or ran on (see
/// [`Simulator::evaluate`](crate::Simulator::evaluate)). The two can
/// differ downwards only: a [`Dispatch::Race`] route may run as
/// [`Dispatch::Scratch`] (fixed point did not settle), and an adaptive
/// [`Dispatch::Delta`] route may run as [`Dispatch::Race`] (replay
/// abandoned over its cone budget) or, through that, as
/// [`Dispatch::Scratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Closed-form race solver (tier-1 fixed point), generation engine on
    /// non-convergence.
    Race,
    /// From scratch through the generation engine: a route only under
    /// [`EngineChoice::Generation`](crate::EngineChoice::Generation),
    /// otherwise what ran when the race solver did not converge.
    Scratch,
    /// Baseline replay with contamination-cone elision (defended). As a
    /// route under adaptive dispatch: replay within a cone budget, race
    /// solver beyond it.
    Delta,
}

/// Thread-safe counter bank for one or more sweeps.
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization, and every increment happens-before the final read
/// because the sweep joins its workers before returning. Share one
/// collector across sweeps to aggregate a whole experiment.
#[derive(Debug, Default)]
pub struct SweepTelemetry {
    // Engine counters, summed over every observed re-convergence.
    runs: AtomicU64,
    messages: AtomicU64,
    accepted: AtomicU64,
    loop_rejected: AtomicU64,
    filter_rejected: AtomicU64,
    stub_rejected: AtomicU64,
    withdrawals: AtomicU64,
    generations_total: AtomicU64,
    max_generations: AtomicU64,
    truncated_runs: AtomicU64,
    // Sweep-level dispatch accounting.
    race_dispatches: AtomicU64,
    scratch_dispatches: AtomicU64,
    delta_dispatches: AtomicU64,
    baselines_built: AtomicU64,
    baseline_bytes: AtomicU64,
    baseline_bytes_peak: AtomicU64,
    attacks: AtomicU64,
    skipped: AtomicU64,
    // Wall time spent inside race-solver attempts (converged or not).
    race_wall_us: AtomicU64,
    // Contamination-cone sizes (delta dispatches, i.e. completed replays).
    cone_sum: AtomicU64,
    cone_max: AtomicU64,
    // Replays given up over budget and finished from scratch.
    replays_abandoned: AtomicU64,
    // Per-attack wall time, log₂-bucketed in microseconds.
    wall_hist: [AtomicU64; WALL_HIST_BUCKETS],
}

impl SweepTelemetry {
    /// Creates a collector with all counters at zero.
    #[must_use]
    pub fn new() -> SweepTelemetry {
        SweepTelemetry::default()
    }

    /// Adds one engine run's final counters (the sweep engines call this
    /// through [`Observer::on_converged`], once per re-convergence).
    pub fn record_run(&self, stats: &ConvergenceStats) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.messages.fetch_add(stats.messages, Ordering::Relaxed);
        self.accepted.fetch_add(stats.accepted, Ordering::Relaxed);
        self.loop_rejected
            .fetch_add(stats.loop_rejected, Ordering::Relaxed);
        self.filter_rejected
            .fetch_add(stats.filter_rejected, Ordering::Relaxed);
        self.stub_rejected
            .fetch_add(stats.stub_rejected, Ordering::Relaxed);
        self.withdrawals
            .fetch_add(stats.withdrawals, Ordering::Relaxed);
        self.generations_total
            .fetch_add(u64::from(stats.generations), Ordering::Relaxed);
        self.max_generations
            .fetch_max(u64::from(stats.generations), Ordering::Relaxed);
        self.truncated_runs
            .fetch_add(u64::from(stats.truncated), Ordering::Relaxed);
    }

    /// Counts one attack dispatched to `kind`.
    pub fn record_dispatch(&self, kind: Dispatch) {
        let counter = match kind {
            Dispatch::Race => &self.race_dispatches,
            Dispatch::Scratch => &self.scratch_dispatches,
            Dispatch::Delta => &self.delta_dispatches,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.attacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shared baseline construction.
    pub fn record_baseline(&self) {
        self.baselines_built.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one built baseline's resident heap footprint
    /// ([`Baseline::heap_bytes`](bgpsim_routing::Baseline::heap_bytes)):
    /// bytes accumulate across builds, and the largest single baseline is
    /// tracked separately — together they bound what a sweep's shared
    /// state costs in memory.
    pub fn record_baseline_bytes(&self, bytes: u64) {
        self.baseline_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.baseline_bytes_peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Counts one attack skipped because the sweep was cancelled.
    pub fn record_skipped(&self) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records wall time spent in one race-solver attempt. Recorded for
    /// every attempt — a non-convergent solve's cost is real even though
    /// the attack is then counted as a scratch dispatch.
    pub fn record_race_wall(&self, wall: Duration) {
        let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        self.race_wall_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one delta dispatch's contamination-cone size.
    pub fn record_cone(&self, size: u64) {
        self.cone_sum.fetch_add(size, Ordering::Relaxed);
        self.cone_max.fetch_max(size, Ordering::Relaxed);
    }

    /// Counts one replay abandoned because its cone outgrew the budget.
    /// The attack itself is counted by whichever engine finishes it.
    pub fn record_abandoned(&self) {
        self.replays_abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one attack's wall time into the log₂ histogram.
    pub fn record_attack_wall(&self, wall: Duration) {
        let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        self.wall_hist[wall_bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-integer copy of every counter, safe to read while other
    /// threads keep counting (each counter is individually consistent).
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TelemetrySnapshot {
            engine: EngineTelemetry {
                runs: get(&self.runs),
                messages: get(&self.messages),
                accepted: get(&self.accepted),
                loop_rejected: get(&self.loop_rejected),
                filter_rejected: get(&self.filter_rejected),
                stub_rejected: get(&self.stub_rejected),
                withdrawals: get(&self.withdrawals),
                generations_total: get(&self.generations_total),
                max_generations: get(&self.max_generations).try_into().unwrap_or(u32::MAX),
                truncated_runs: get(&self.truncated_runs),
            },
            race_dispatches: get(&self.race_dispatches),
            scratch_dispatches: get(&self.scratch_dispatches),
            delta_dispatches: get(&self.delta_dispatches),
            baselines_built: get(&self.baselines_built),
            baseline_bytes: get(&self.baseline_bytes),
            baseline_bytes_peak: get(&self.baseline_bytes_peak),
            attacks: get(&self.attacks),
            skipped: get(&self.skipped),
            race_wall_us: get(&self.race_wall_us),
            cone_sum: get(&self.cone_sum),
            cone_max: get(&self.cone_max),
            replays_abandoned: get(&self.replays_abandoned),
            wall_hist: std::array::from_fn(|i| get(&self.wall_hist[i])),
        }
    }
}

/// Log₂ bucket index for a duration in microseconds: bucket 0 is `< 1 µs`,
/// bucket `i ≥ 1` is `[2^(i-1), 2^i) µs`, saturating at the last bucket.
/// Public so every latency histogram in the workspace (sweep telemetry,
/// the server's per-endpoint metrics, the loadgen client) buckets
/// identically and their outputs stay comparable.
pub fn wall_bucket(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(WALL_HIST_BUCKETS - 1)
}

/// Plain-integer view of a [`SweepTelemetry`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Summed engine counters over every observed re-convergence.
    /// Baseline constructions are counted in `baselines_built` but their
    /// engine counters are not observed.
    pub engine: EngineTelemetry,
    /// Attacks dispatched to the closed-form race solver.
    pub race_dispatches: u64,
    /// Attacks dispatched to the from-scratch generation-engine race
    /// (including race-solver fallbacks after non-convergence).
    pub scratch_dispatches: u64,
    /// Attacks dispatched to baseline replay (delta engine).
    pub delta_dispatches: u64,
    /// Shared target baselines constructed.
    pub baselines_built: u64,
    /// Summed heap bytes of every baseline built (capacity-accounted, see
    /// `Baseline::heap_bytes` in the routing crate).
    pub baseline_bytes: u64,
    /// Heap bytes of the largest single baseline built.
    pub baseline_bytes_peak: u64,
    /// Attacks executed (sum of the three dispatch counters).
    pub attacks: u64,
    /// Attacks skipped because the sweep was cancelled.
    pub skipped: u64,
    /// Total wall time (µs) spent inside race-solver attempts, converged
    /// and non-convergent alike.
    pub race_wall_us: u64,
    /// Sum of contamination-cone sizes over delta dispatches (completed
    /// replays; an abandoned one records no cone).
    pub cone_sum: u64,
    /// Largest contamination cone seen in a delta dispatch.
    pub cone_max: u64,
    /// Replays abandoned because their cone outgrew the budget; each such
    /// attack is counted under the engine that finished it (`race`, or
    /// `scratch` after a race fallback), never under `delta`.
    pub replays_abandoned: u64,
    /// Per-attack wall times: bucket 0 is `< 1 µs`, bucket `i ≥ 1` counts
    /// attacks taking `[2^(i-1), 2^i)` µs.
    pub wall_hist: [u64; WALL_HIST_BUCKETS],
}

impl TelemetrySnapshot {
    /// Mean contamination-cone size over delta dispatches, or 0.0 if none
    /// ran.
    #[must_use]
    pub fn mean_cone(&self) -> f64 {
        if self.delta_dispatches == 0 {
            0.0
        } else {
            self.cone_sum as f64 / self.delta_dispatches as f64
        }
    }

    /// Total attacks with a recorded wall time.
    #[must_use]
    pub fn timed_attacks(&self) -> u64 {
        self.wall_hist.iter().sum()
    }
}

/// A progress report from a running sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Attacks finished so far (including skipped ones after a cancel).
    pub completed: usize,
    /// Attacks the sweep was asked to run.
    pub total: usize,
    /// Wall time since the sweep started.
    pub elapsed: Duration,
    /// Estimated remaining wall time, extrapolated from the mean pace so
    /// far; `None` until the first attack completes.
    pub eta: Option<Duration>,
}

impl SweepProgress {
    /// Completed fraction in `[0, 1]` (1.0 for an empty sweep).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.completed as f64 / self.total as f64
        }
    }
}

/// Instrumentation handles for one sweep: all optional, all borrowed.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::AtomicBool;
/// use bgpsim_hijack::{SweepMonitor, SweepTelemetry};
///
/// let telemetry = SweepTelemetry::new();
/// let cancel = AtomicBool::new(false);
/// let monitor = SweepMonitor::none()
///     .with_telemetry(&telemetry)
///     .with_cancel(&cancel);
/// assert!(monitor.telemetry.is_some());
/// ```
#[derive(Clone, Copy, Default)]
pub struct SweepMonitor<'a> {
    /// Counter sink; `None` skips all counting and all clock reads.
    pub telemetry: Option<&'a SweepTelemetry>,
    /// Called after every completed attack, from whichever worker thread
    /// finished it (the callback must be `Sync`; keep it cheap).
    pub on_progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    /// Cooperative cancellation: set to `true` (any ordering) and workers
    /// skip every attack they have not yet started, recording zero
    /// pollution / empty outcomes for the remainder.
    pub cancel: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for SweepMonitor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepMonitor")
            .field("telemetry", &self.telemetry.is_some())
            .field("on_progress", &self.on_progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl<'a> SweepMonitor<'a> {
    /// A fully inert monitor: no telemetry, no progress, no cancellation.
    #[must_use]
    pub fn none() -> SweepMonitor<'static> {
        SweepMonitor::default()
    }

    /// Attaches a telemetry collector.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &'a SweepTelemetry) -> SweepMonitor<'a> {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a progress callback.
    #[must_use]
    pub fn with_progress(
        mut self,
        callback: &'a (dyn Fn(SweepProgress) + Sync),
    ) -> SweepMonitor<'a> {
        self.on_progress = Some(callback);
        self
    }

    /// Attaches a cancellation flag.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'a AtomicBool) -> SweepMonitor<'a> {
        self.cancel = Some(cancel);
        self
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// Per-sweep progress bookkeeping shared across workers. Created once per
/// monitored sweep; wholly inert (no clock reads) when the monitor carries
/// no progress callback.
pub(crate) struct ProgressState<'a> {
    monitor: SweepMonitor<'a>,
    total: usize,
    start: Option<Instant>,
    completed: AtomicUsize,
}

impl<'a> ProgressState<'a> {
    pub(crate) fn new(monitor: SweepMonitor<'a>, total: usize) -> ProgressState<'a> {
        ProgressState {
            start: monitor.on_progress.map(|_| Instant::now()),
            monitor,
            total,
            completed: AtomicUsize::new(0),
        }
    }

    /// Marks one attack finished and fires the progress callback.
    pub(crate) fn tick(&self) {
        let Some(callback) = self.monitor.on_progress else {
            return;
        };
        let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.start.expect("start set with callback").elapsed();
        let remaining = self.total.saturating_sub(completed);
        let eta = (completed > 0).then(|| elapsed.mul_f64(remaining as f64 / completed as f64));
        callback(SweepProgress {
            completed,
            total: self.total,
            elapsed,
            eta,
        });
    }
}

/// Wraps one attack's work with the monitor's instrumentation: skips it
/// (returning `skipped`) after a cancel, times it when telemetry is on,
/// and ticks progress either way. With an inert monitor this is three
/// `None` checks around `work()`.
pub(crate) fn run_instrumented<R>(
    monitor: &SweepMonitor<'_>,
    progress: &ProgressState<'_>,
    skipped: R,
    work: impl FnOnce() -> R,
) -> R {
    if monitor.cancelled() {
        if let Some(telemetry) = monitor.telemetry {
            telemetry.record_skipped();
        }
        progress.tick();
        return skipped;
    }
    let started = monitor.telemetry.map(|_| Instant::now());
    let out = work();
    if let (Some(telemetry), Some(started)) = (monitor.telemetry, started) {
        telemetry.record_attack_wall(started.elapsed());
    }
    progress.tick();
    out
}

/// Observer adapter: forwards engine convergence counters into a shared
/// [`SweepTelemetry`], or does nothing when telemetry is off. Statically
/// dispatched; the per-message hooks keep their empty defaults, so the
/// only cost on the hot path is one predictable branch per engine *run*.
pub(crate) enum MaybeSink<'a> {
    Null,
    Sink(&'a SweepTelemetry),
}

impl<'a> MaybeSink<'a> {
    pub(crate) fn from_monitor(monitor: &SweepMonitor<'a>) -> MaybeSink<'a> {
        match monitor.telemetry {
            Some(t) => MaybeSink::Sink(t),
            None => MaybeSink::Null,
        }
    }
}

impl Observer for MaybeSink<'_> {
    fn on_converged(&mut self, stats: &ConvergenceStats) {
        if let MaybeSink::Sink(telemetry) = self {
            telemetry.record_run(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_buckets_are_log2() {
        assert_eq!(wall_bucket(0), 0);
        assert_eq!(wall_bucket(1), 1);
        assert_eq!(wall_bucket(2), 2);
        assert_eq!(wall_bucket(3), 2);
        assert_eq!(wall_bucket(4), 3);
        assert_eq!(wall_bucket(1023), 10);
        assert_eq!(wall_bucket(1024), 11);
        assert_eq!(wall_bucket(u64::MAX), WALL_HIST_BUCKETS - 1);
    }

    #[test]
    fn telemetry_counts_and_snapshots() {
        let t = SweepTelemetry::new();
        t.record_dispatch(Dispatch::Scratch);
        t.record_dispatch(Dispatch::Race);
        t.record_dispatch(Dispatch::Delta);
        t.record_dispatch(Dispatch::Delta);
        t.record_race_wall(Duration::from_micros(7));
        t.record_race_wall(Duration::from_micros(5));
        t.record_baseline();
        t.record_baseline_bytes(1000);
        t.record_baseline_bytes(400);
        t.record_cone(10);
        t.record_cone(4);
        t.record_abandoned();
        t.record_skipped();
        t.record_run(&ConvergenceStats {
            generations: 5,
            messages: 100,
            accepted: 40,
            loop_rejected: 3,
            filter_rejected: 2,
            stub_rejected: 1,
            withdrawals: 4,
            truncated: false,
        });
        t.record_attack_wall(Duration::from_micros(3));
        t.record_attack_wall(Duration::from_micros(3));
        let s = t.snapshot();
        assert_eq!(s.race_dispatches, 1);
        assert_eq!(s.delta_dispatches, 2);
        assert_eq!(s.scratch_dispatches, 1);
        assert_eq!(s.attacks, 4);
        assert_eq!(s.race_wall_us, 12);
        assert_eq!(s.baselines_built, 1);
        assert_eq!(s.baseline_bytes, 1400);
        assert_eq!(s.baseline_bytes_peak, 1000);
        assert_eq!(s.skipped, 1);
        assert_eq!(s.cone_sum, 14);
        assert_eq!(s.cone_max, 10);
        assert_eq!(s.replays_abandoned, 1);
        assert!((s.mean_cone() - 7.0).abs() < 1e-12);
        assert_eq!(s.engine.runs, 1);
        assert_eq!(s.engine.messages, 100);
        assert_eq!(s.engine.rejected(), 6);
        assert_eq!(s.engine.max_generations, 5);
        assert_eq!(s.wall_hist[2], 2);
        assert_eq!(s.timed_attacks(), 2);
    }

    #[test]
    fn progress_fraction_and_eta() {
        let p = SweepProgress {
            completed: 25,
            total: 100,
            elapsed: Duration::from_secs(5),
            eta: Some(Duration::from_secs(15)),
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        let empty = SweepProgress {
            completed: 0,
            total: 0,
            elapsed: Duration::ZERO,
            eta: None,
        };
        assert_eq!(empty.fraction(), 1.0);
    }

    #[test]
    fn monitor_builder_and_cancel() {
        let telemetry = SweepTelemetry::new();
        let cancel = AtomicBool::new(false);
        let monitor = SweepMonitor::none()
            .with_telemetry(&telemetry)
            .with_cancel(&cancel);
        assert!(!monitor.cancelled());
        cancel.store(true, Ordering::Relaxed);
        assert!(monitor.cancelled());
        assert!(SweepMonitor::none().telemetry.is_none());
    }
}
