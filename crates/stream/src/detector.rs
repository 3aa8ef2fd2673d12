//! Incremental stream detection, with a from-scratch batch oracle.
//!
//! The detector consumes a [`StreamPlan`] event by event, maintaining the
//! current defense deployment and the set of active hijacks. After every
//! event it re-scores each active hijack against every probe set and
//! appends the per-event metrics to a [`StreamStore`].
//!
//! Two modes share all of that state machinery and differ only in how an
//! active hijack is evaluated:
//!
//! * [`DetectorMode::Incremental`] — the live path. One [`Baseline`] of
//!   a target's honest convergence is cached per [`BaselineKey`] and each
//!   evaluation replays only the attacker's contamination cone
//!   ([`Simulator::evaluate`]; a cone that outgrows its budget is raced
//!   from scratch instead, inside the same call). Validators are not
//!   part of the key, so cached baselines survive defense flips.
//!   Propagation is likewise a pure function of (attack, defense), so
//!   each active hijack's score is memoized and replayed only when an
//!   event could have changed it — every other event is O(1) for that
//!   hijack. An attack with no [`Simulator::baseline_key`] (no stub
//!   filtering under the current defense: undefended and origin
//!   validation alone are raced, so no baseline is worth holding) builds
//!   none and runs on the routed engine from scratch.
//! * [`DetectorMode::Batch`] — the oracle. Every evaluation is a full
//!   from-scratch generation-engine run. Slow and trivially correct.
//!
//! The two modes are bit-identical on every series and every detection
//! (the root package's `differential` test pins this, next to the engine
//! arms it applies the same discipline to), which is what makes the
//! incremental path trustworthy.

use std::collections::{BTreeMap, HashMap};

use bgpsim_hijack::detection::ProbeSet;
use bgpsim_hijack::{
    Attack, BaselineKey, Defense, OutcomeView, Simulator, SweepMonitor, SweepTelemetry,
};
use bgpsim_routing::Baseline;
use bgpsim_topology::AsIndex;

use crate::event::{EventKind, StreamEvent, StreamPlan};
use crate::store::StreamStore;

/// Series name for the per-event total polluted-AS count.
pub const SERIES_POLLUTION: &str = "pollution";
/// Series name for per-event detection latencies (sparse: one sample per
/// hijack, at the event where a probe first saw it).
pub const SERIES_LATENCY: &str = "latency";

/// Series name for probe set `i`'s per-event triggered count.
pub fn triggered_series(set_index: usize) -> String {
    format!("triggered_{set_index}")
}

/// How active hijacks are evaluated. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Per-target baseline cache plus delta-cone replay.
    Incremental,
    /// From-scratch generation engine per evaluation (the oracle).
    Batch,
}

/// Ground truth and detection outcome for one injected hijack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HijackRecord {
    /// The injected attack.
    pub attack: Attack,
    /// Event seq at which it was injected.
    pub injected_seq: u64,
    /// Event seq at which any probe first saw it, if ever.
    pub detected_seq: Option<u64>,
}

impl HijackRecord {
    /// Detection latency in events (0 = seen at the injection event).
    pub fn latency(&self) -> Option<u64> {
        self.detected_seq.map(|d| d - self.injected_seq)
    }
}

/// Everything a finished stream run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Per-metric time series.
    pub store: StreamStore,
    /// One record per injection, in injection order.
    pub hijacks: Vec<HijackRecord>,
    /// Events processed.
    pub events: usize,
}

/// Aggregate numbers for manifests and API summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Events processed.
    pub events: usize,
    /// Hijacks injected.
    pub injected: usize,
    /// Hijacks some probe eventually saw.
    pub detected: usize,
    /// Mean detection latency in events, `None` with no detections.
    pub mean_latency: Option<f64>,
    /// Worst detection latency in events, `None` with no detections.
    pub max_latency: Option<u64>,
}

impl StreamSummary {
    /// Folds the per-injection records of a run that processed `events`
    /// events — the whole tape, or the prefix a cancelled run reached.
    pub fn of(events: usize, hijacks: &[HijackRecord]) -> StreamSummary {
        let latencies: Vec<u64> = hijacks.iter().filter_map(HijackRecord::latency).collect();
        StreamSummary {
            events,
            injected: hijacks.len(),
            detected: latencies.len(),
            mean_latency: if latencies.is_empty() {
                None
            } else {
                Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
            },
            max_latency: latencies.iter().max().copied(),
        }
    }
}

impl StreamOutcome {
    /// Aggregates the hijack records into a [`StreamSummary`].
    pub fn summary(&self) -> StreamSummary {
        StreamSummary::of(self.events, &self.hijacks)
    }
}

/// One active hijack's metrics under the current (attack, defense)
/// inputs; valid until an event touches either.
#[derive(Debug, Clone)]
struct Score {
    pollution: u64,
    /// Probes triggered, one count per probe set.
    triggered: Vec<u64>,
}

impl Score {
    /// The score `probe_sets` give the attack behind `outcome`.
    fn of(outcome: &OutcomeView<'_>, probe_sets: &[ProbeSet]) -> Score {
        Score {
            pollution: outcome.pollution_count() as u64,
            triggered: probe_sets
                .iter()
                .map(|set| set.triggered_by(outcome) as u64)
                .collect(),
        }
    }
}

/// The event-at-a-time stream detector. Drive it with
/// [`StreamDetector::apply`] (the server does, so range queries can read
/// the store mid-stream) or run a whole plan with [`run_stream`].
#[derive(Debug)]
pub struct StreamDetector<'a, 't> {
    sim: &'a Simulator<'t>,
    probe_sets: &'a [ProbeSet],
    mode: DetectorMode,
    stub_defense: bool,
    /// Validator membership bitmap, indexed by `AsIndex`.
    validators: Vec<bool>,
    /// Rebuilt from the bitmap whenever a flip lands.
    defense: Defense,
    /// One honest-convergence baseline per key an evaluated attack named,
    /// built lazily — one per tracked target, as stub filtering is fixed
    /// for the stream. Valid for the whole stream: no event changes what
    /// a [`BaselineKey`] names.
    baselines: HashMap<BaselineKey, Baseline>,
    /// Memoized per-target scores (incremental mode only), invalidated by
    /// any event that touches the score's inputs: defense flips (all),
    /// re-announcements and injections (that target).
    scores: HashMap<AsIndex, Score>,
    /// target -> index into `hijacks` of the currently active injection
    /// (BTreeMap so evaluation order is deterministic).
    active: BTreeMap<AsIndex, usize>,
    hijacks: Vec<HijackRecord>,
    /// Where the baselines this detector builds are counted, if anywhere
    /// ([`StreamDetector::with_baseline_telemetry`]).
    telemetry: Option<&'a SweepTelemetry>,
}

impl<'a, 't> StreamDetector<'a, 't> {
    /// Builds a detector over `plan`'s initial conditions. `plan` only
    /// seeds the starting validator set here — events are fed one at a
    /// time through [`StreamDetector::apply`].
    pub fn new(
        sim: &'a Simulator<'t>,
        probe_sets: &'a [ProbeSet],
        plan: &StreamPlan,
        mode: DetectorMode,
    ) -> StreamDetector<'a, 't> {
        let mut validators = vec![false; sim.topology().num_ases()];
        for &ix in &plan.initial_validators {
            validators[ix.usize()] = true;
        }
        let mut detector = StreamDetector {
            sim,
            probe_sets,
            mode,
            stub_defense: plan.stub_defense,
            validators,
            defense: Defense::none(),
            baselines: HashMap::new(),
            scores: HashMap::new(),
            active: BTreeMap::new(),
            hijacks: Vec::new(),
            telemetry: None,
        };
        detector.rebuild_defense();
        detector
    }

    /// Counts every baseline this detector builds — and its heap
    /// footprint — on `telemetry`, as a sweep's builds are counted. Only
    /// the builds: per-event evaluations stay off the sweep counters.
    #[must_use]
    pub fn with_baseline_telemetry(mut self, telemetry: &'a SweepTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    fn rebuild_defense(&mut self) {
        let members = self
            .validators
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v)
            .map(|(i, _)| AsIndex::new(i as u32));
        let defense = Defense::validators(self.sim.topology(), members);
        self.defense = if self.stub_defense {
            defense.with_stub_defense()
        } else {
            defense
        };
    }

    /// The defense currently in force.
    pub fn defense(&self) -> &Defense {
        &self.defense
    }

    /// Processes one event: updates deployment/attack state, re-scores
    /// every active hijack, and appends this event's samples to `store`.
    pub fn apply(&mut self, event: &StreamEvent, store: &mut StreamStore) {
        match event.kind {
            EventKind::DefenseFlip { who } => {
                self.validators[who.usize()] = !self.validators[who.usize()];
                self.rebuild_defense();
                // Every attack replay filters through the new validator
                // set, so all memoized scores are stale. The cached
                // baselines are not: validators are not in their keys.
                self.scores.clear();
            }
            EventKind::TargetReannounce { target } => {
                // Withdraw + re-announce converges back to the same fixed
                // point the cached baseline already holds (propagation is
                // deterministic), so the baseline stands; the update still
                // forces a fresh delta-cone replay of the target's active
                // hijack.
                self.scores.remove(&target);
            }
            EventKind::HijackInject { attack } => {
                self.hijacks.push(HijackRecord {
                    attack,
                    injected_seq: event.seq,
                    detected_seq: None,
                });
                // A newer injection replaces any active hijack on the
                // same target (the old record keeps whatever detection
                // state it reached).
                self.active.insert(attack.target, self.hijacks.len() - 1);
                self.scores.remove(&attack.target);
            }
        }

        // Re-score every active hijack under the (possibly new) defense.
        let mut pollution_total = 0u64;
        let mut triggered_total = vec![0u64; self.probe_sets.len()];
        let targets: Vec<AsIndex> = self.active.keys().copied().collect();
        for target in targets {
            let record_ix = self.active[&target];
            let attack = self.hijacks[record_ix].attack;
            // The batch oracle recomputes unconditionally; the incremental
            // path replays only when this event could have changed the
            // answer (propagation is deterministic, so a still-valid memo
            // is the same value a replay would produce — the differential
            // test's stream arm pins exactly this).
            let score = match self.scores.get(&target) {
                Some(score) if self.mode == DetectorMode::Incremental => score.clone(),
                _ => {
                    let score = self.score(attack);
                    if self.mode == DetectorMode::Incremental {
                        self.scores.insert(target, score.clone());
                    }
                    score
                }
            };
            pollution_total += score.pollution;
            let mut seen = false;
            for (si, &t) in score.triggered.iter().enumerate() {
                triggered_total[si] += t;
                seen |= t > 0;
            }
            let record = &mut self.hijacks[record_ix];
            if seen && record.detected_seq.is_none() {
                record.detected_seq = Some(event.seq);
                store.push(
                    SERIES_LATENCY,
                    event.seq,
                    (event.seq - record.injected_seq) as f64,
                );
            }
        }
        store.push(SERIES_POLLUTION, event.seq, pollution_total as f64);
        for (si, &t) in triggered_total.iter().enumerate() {
            store.push(&triggered_series(si), event.seq, t as f64);
        }
    }

    fn score(&mut self, attack: Attack) -> Score {
        let probe_sets = self.probe_sets;
        let score = move |outcome: &OutcomeView<'_>| Score::of(outcome, probe_sets);
        match self.mode {
            // The oracle: one full from-scratch generation-engine run.
            DetectorMode::Batch => score(&self.sim.run(attack, &self.defense).view()),
            DetectorMode::Incremental => {
                let key = self
                    .sim
                    .baseline_key(attack.kind, attack.target, &self.defense);
                let baseline = key.map(|key| {
                    &*self.baselines.entry(key).or_insert_with(|| {
                        let monitor = SweepMonitor {
                            telemetry: self.telemetry,
                            ..SweepMonitor::none()
                        };
                        self.sim.baseline_for(key, &monitor)
                    })
                });
                let (score, _) = self.sim.evaluate(
                    attack,
                    &self.defense,
                    baseline,
                    &SweepMonitor::none(),
                    score,
                );
                score
            }
        }
    }

    /// Consumes the detector, yielding the per-injection records.
    pub fn finish(self) -> Vec<HijackRecord> {
        self.hijacks
    }
}

/// Runs a whole plan through a fresh detector and store.
pub fn run_stream(
    sim: &Simulator<'_>,
    probe_sets: &[ProbeSet],
    plan: &StreamPlan,
    mode: DetectorMode,
) -> StreamOutcome {
    let mut store = StreamStore::sized_for(plan.events.len());
    let mut detector = StreamDetector::new(sim, probe_sets, plan, mode);
    for event in &plan.events {
        detector.apply(event, &mut store);
    }
    StreamOutcome {
        store,
        hijacks: detector.finish(),
        events: plan.events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamConfig;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::gen::{generate, InternetParams};

    fn plan_on_tiny(seed: u64, events: usize) -> (bgpsim_topology::Topology, StreamPlan) {
        let net = generate(&InternetParams::tiny(), 3);
        let config = StreamConfig {
            events,
            seed,
            num_targets: 3,
            validator_fraction: 0.3,
            stub_defense: true,
            flip_weight: 1,
            reannounce_weight: 2,
            inject_weight: 2,
        };
        let plan = StreamPlan::generate(&net.topology, &config);
        (net.topology, plan)
    }

    #[test]
    fn incremental_matches_batch_on_a_fixed_stream() {
        let (topo, plan) = plan_on_tiny(42, 120);
        let sim = Simulator::new(&topo, PolicyConfig::paper());
        let sets = vec![ProbeSet::tier1(&topo), ProbeSet::degree_at_least(&topo, 8)];
        let inc = run_stream(&sim, &sets, &plan, DetectorMode::Incremental);
        let batch = run_stream(&sim, &sets, &plan, DetectorMode::Batch);
        assert_eq!(inc, batch);
        assert_eq!(inc.events, 120);
        assert_eq!(inc.hijacks.len(), plan.injected_hijacks());
        // The dense series carry one sample per event.
        assert_eq!(
            inc.store.series(SERIES_POLLUTION).unwrap().len(),
            plan.events.len()
        );
        assert_eq!(
            inc.store.series(&triggered_series(0)).unwrap().len(),
            plan.events.len()
        );
    }

    #[test]
    fn detections_are_consistent_with_latency_series() {
        let (topo, plan) = plan_on_tiny(7, 200);
        let sim = Simulator::new(&topo, PolicyConfig::paper());
        let sets = vec![ProbeSet::degree_at_least(&topo, 4)];
        let out = run_stream(&sim, &sets, &plan, DetectorMode::Incremental);
        let summary = out.summary();
        assert_eq!(summary.injected, out.hijacks.len());
        let latency_samples = out
            .store
            .series(SERIES_LATENCY)
            .map_or(0, |s| s.len() as u64);
        assert_eq!(summary.detected as u64, latency_samples);
        for h in &out.hijacks {
            if let Some(d) = h.detected_seq {
                assert!(d >= h.injected_seq);
                assert_eq!(h.latency(), Some(d - h.injected_seq));
            }
        }
        if summary.detected > 0 {
            assert!(summary.mean_latency.is_some());
            assert!(summary.max_latency.is_some());
        }
    }

    #[test]
    fn churn_only_stream_detects_nothing() {
        let net = generate(&InternetParams::tiny(), 9);
        let config = StreamConfig {
            events: 60,
            seed: 5,
            num_targets: 2,
            validator_fraction: 0.2,
            stub_defense: false,
            flip_weight: 1,
            reannounce_weight: 1,
            inject_weight: 0,
        };
        let plan = StreamPlan::generate(&net.topology, &config);
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let sets = vec![ProbeSet::tier1(&net.topology)];
        let out = run_stream(&sim, &sets, &plan, DetectorMode::Incremental);
        assert!(out.hijacks.is_empty());
        let summary = out.summary();
        assert_eq!(summary.detected, 0);
        assert_eq!(summary.mean_latency, None);
        // Pollution is identically zero without attacks.
        let poll = out.store.series(SERIES_POLLUTION).unwrap();
        assert!(poll.range(0, u64::MAX).iter().all(|&(_, v)| v == 0.0));
        assert!(out.store.series(SERIES_LATENCY).is_none());
    }

    /// Stub filtering localizes every cone, so every origin hijack
    /// replays: the detector builds exactly one baseline per injected
    /// target, at that target's first injection, and no validator flip or
    /// re-announcement ever builds another.
    #[test]
    fn one_baseline_per_injected_target() {
        let (topo, plan) = plan_on_tiny(11, 300);
        assert!(plan.stub_defense);
        let sim = Simulator::new(&topo, PolicyConfig::paper());
        let sets = vec![ProbeSet::tier1(&topo)];
        let telemetry = SweepTelemetry::new();
        let built = || telemetry.snapshot().baselines_built;
        let mut detector = StreamDetector::new(&sim, &sets, &plan, DetectorMode::Incremental)
            .with_baseline_telemetry(&telemetry);
        let mut store = StreamStore::sized_for(plan.events.len());
        let mut injected = std::collections::HashSet::new();
        let (mut flips, mut reannounced) = (0, std::collections::HashSet::new());
        for event in &plan.events {
            let before = built();
            detector.apply(event, &mut store);
            let new_target = match event.kind {
                EventKind::HijackInject { attack } => injected.insert(attack.target),
                EventKind::DefenseFlip { .. } => {
                    flips += u32::from(!injected.is_empty());
                    false
                }
                EventKind::TargetReannounce { target } => {
                    if injected.contains(&target) {
                        reannounced.insert(target);
                    }
                    false
                }
            };
            assert_eq!(built() - before, u64::from(new_target), "event {event:?}");
        }
        // The tape exercises what could rebuild: flips with baselines
        // cached, and a re-announcement of every injected target.
        assert!(flips > 0);
        assert_eq!(injected.len(), plan.targets.len());
        assert_eq!(reannounced, injected);
        assert_eq!(built(), injected.len() as u64);
    }
}
