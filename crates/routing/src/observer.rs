//! Observation hooks for propagation engines.
//!
//! The paper's polar visualizations (fig. 1) draw every announcement of
//! every generation, colored by whether it was accepted (red: the bogus
//! route polluted the AS) or rejected (green: the AS already had a
//! preferred path). Engines report each delivered message to an
//! [`Observer`]; [`NullObserver`] compiles to nothing for bulk sweeps and
//! [`TraceRecorder`] retains the full event stream for visualization.

use bgpsim_topology::AsIndex;

use crate::route::ConvergenceStats;

/// What happened to one delivered announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Accepted and became the receiver's best route.
    NewBest,
    /// Stored in the Adj-RIB-In but a preferred route already exists.
    Stored,
    /// Rejected: the receiver (or its sibling group) is already on the
    /// AS path.
    RejectedLoop,
    /// Rejected by a route-origin-validation filter.
    RejectedOrigin,
    /// Rejected by a provider's defensive stub filter.
    RejectedStub,
    /// A withdrawal: the sender no longer announces the prefix to this
    /// neighbor, and the stored entry (if any) was removed.
    Withdrawn,
}

impl Decision {
    /// Whether the announcement was installed (as best or alternate).
    #[must_use]
    pub fn is_installed(self) -> bool {
        matches!(self, Decision::NewBest | Decision::Stored)
    }
}

/// One delivered announcement, as seen by an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEvent {
    /// Generation in which the message was delivered (1-based).
    pub generation: u32,
    /// Sending AS.
    pub from: AsIndex,
    /// Receiving AS.
    pub to: AsIndex,
    /// Origin of the announced route.
    pub origin: AsIndex,
    /// AS-path length of the announced route at the receiver.
    pub len: u16,
    /// The receiver's decision.
    pub decision: Decision,
}

/// Receives engine events during a propagation.
///
/// All methods have empty defaults; implement only what you need. Engines
/// are generic over the observer so [`NullObserver`] adds zero overhead.
pub trait Observer {
    /// A new generation of messages is about to be delivered.
    fn on_generation_start(&mut self, generation: u32) {
        let _ = generation;
    }

    /// One announcement was delivered and decided on.
    fn on_message(&mut self, event: MessageEvent) {
        let _ = event;
    }

    /// The propagation converged (or hit its generation cap). Called once
    /// per engine run with the final counters — by the generation engine,
    /// the delta engine and [`crate::solve_race_observed`] alike, so a
    /// collector sees every run regardless of dispatch.
    fn on_converged(&mut self, stats: &ConvergenceStats) {
        let _ = stats;
    }
}

/// Observer that ignores everything (for bulk sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Aggregating counter collector over any number of engine runs.
///
/// Records one [`ConvergenceStats`] per [`Observer::on_converged`] call and
/// sums the counters, so a sweep can answer "how many messages did the
/// engine deliver in total, and how did rejects break down by reason?"
/// without touching the per-message hook — collection cost is one add per
/// *run*, not per message.
///
/// # Examples
///
/// ```
/// use bgpsim_routing::{ConvergenceStats, EngineTelemetry, Observer};
///
/// let mut t = EngineTelemetry::new();
/// t.on_converged(&ConvergenceStats {
///     generations: 3,
///     messages: 10,
///     accepted: 4,
///     ..ConvergenceStats::default()
/// });
/// assert_eq!(t.runs, 1);
/// assert_eq!(t.messages, 10);
/// assert_eq!(t.max_generations, 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Engine runs recorded.
    pub runs: u64,
    /// Total announcements delivered across all runs.
    pub messages: u64,
    /// Announcements that changed some AS's best route. The race solver
    /// reports its routed-AS count here (it delivers no messages).
    pub accepted: u64,
    /// Announcements rejected by the AS-path loop check.
    pub loop_rejected: u64,
    /// Announcements rejected by route-origin-validation filters.
    pub filter_rejected: u64,
    /// Announcements rejected by defensive stub filters.
    pub stub_rejected: u64,
    /// Withdrawals delivered.
    pub withdrawals: u64,
    /// Sum of generations-to-convergence over all runs.
    pub generations_total: u64,
    /// Largest single-run generation count seen.
    pub max_generations: u32,
    /// Runs that hit the generation cap before draining their queues.
    pub truncated_runs: u64,
}

impl EngineTelemetry {
    /// Creates a collector with all counters at zero.
    #[must_use]
    pub fn new() -> EngineTelemetry {
        EngineTelemetry::default()
    }

    /// Adds one run's final counters.
    pub fn record(&mut self, stats: &ConvergenceStats) {
        self.runs += 1;
        self.messages += stats.messages;
        self.accepted += stats.accepted;
        self.loop_rejected += stats.loop_rejected;
        self.filter_rejected += stats.filter_rejected;
        self.stub_rejected += stats.stub_rejected;
        self.withdrawals += stats.withdrawals;
        self.generations_total += u64::from(stats.generations);
        self.max_generations = self.max_generations.max(stats.generations);
        self.truncated_runs += u64::from(stats.truncated);
    }

    /// Folds another collector's counters into this one (for merging
    /// per-worker collectors after a parallel sweep).
    pub fn merge(&mut self, other: &EngineTelemetry) {
        self.runs += other.runs;
        self.messages += other.messages;
        self.accepted += other.accepted;
        self.loop_rejected += other.loop_rejected;
        self.filter_rejected += other.filter_rejected;
        self.stub_rejected += other.stub_rejected;
        self.withdrawals += other.withdrawals;
        self.generations_total += other.generations_total;
        self.max_generations = self.max_generations.max(other.max_generations);
        self.truncated_runs += other.truncated_runs;
    }

    /// Total announcements rejected, over all reject reasons.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.loop_rejected + self.filter_rejected + self.stub_rejected
    }
}

impl Observer for EngineTelemetry {
    fn on_converged(&mut self, stats: &ConvergenceStats) {
        self.record(stats);
    }
}

/// Observer that records every event, grouped by generation.
///
/// # Examples
///
/// ```
/// use bgpsim_routing::TraceRecorder;
///
/// let trace = TraceRecorder::new();
/// assert_eq!(trace.num_generations(), 0);
/// assert!(trace.events().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<MessageEvent>,
    generations: u32,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// All recorded events, in delivery order.
    pub fn events(&self) -> &[MessageEvent] {
        &self.events
    }

    /// Number of generations observed.
    pub fn num_generations(&self) -> u32 {
        self.generations
    }

    /// Events of one generation (1-based), in delivery order.
    pub fn generation(&self, generation: u32) -> impl Iterator<Item = &MessageEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| e.generation == generation)
    }

    /// Clears the recorder for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.generations = 0;
    }
}

impl Observer for TraceRecorder {
    fn on_generation_start(&mut self, generation: u32) {
        self.generations = self.generations.max(generation);
    }

    fn on_message(&mut self, event: MessageEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(generation: u32, decision: Decision) -> MessageEvent {
        MessageEvent {
            generation,
            from: AsIndex::new(0),
            to: AsIndex::new(1),
            origin: AsIndex::new(0),
            len: 1,
            decision,
        }
    }

    #[test]
    fn recorder_groups_by_generation() {
        let mut t = TraceRecorder::new();
        t.on_generation_start(1);
        t.on_message(ev(1, Decision::NewBest));
        t.on_message(ev(1, Decision::Stored));
        t.on_generation_start(2);
        t.on_message(ev(2, Decision::RejectedLoop));
        assert_eq!(t.num_generations(), 2);
        assert_eq!(t.generation(1).count(), 2);
        assert_eq!(t.generation(2).count(), 1);
        assert_eq!(t.events().len(), 3);
        t.clear();
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.num_generations(), 0);
    }

    #[test]
    fn telemetry_records_and_merges() {
        let run = |generations, messages, truncated| ConvergenceStats {
            generations,
            messages,
            accepted: messages / 2,
            loop_rejected: 1,
            filter_rejected: 2,
            stub_rejected: 3,
            withdrawals: 1,
            truncated,
        };
        let mut a = EngineTelemetry::new();
        a.on_converged(&run(4, 10, false));
        a.on_converged(&run(7, 20, true));
        let mut b = EngineTelemetry::new();
        b.on_converged(&run(2, 6, false));
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert_eq!(a.messages, 36);
        assert_eq!(a.accepted, 18);
        assert_eq!(a.rejected(), 18); // (1 + 2 + 3) per run
        assert_eq!(a.withdrawals, 3);
        assert_eq!(a.generations_total, 13);
        assert_eq!(a.max_generations, 7);
        assert_eq!(a.truncated_runs, 1);
    }

    #[test]
    fn decision_installed() {
        assert!(Decision::NewBest.is_installed());
        assert!(Decision::Stored.is_installed());
        assert!(!Decision::RejectedLoop.is_installed());
        assert!(!Decision::RejectedOrigin.is_installed());
        assert!(!Decision::RejectedStub.is_installed());
        assert!(!Decision::Withdrawn.is_installed());
    }
}
