//! The update-stream event model and its seeded generator.
//!
//! A stream is a reproducible interleave of benign churn (defense
//! deployment flips, target re-announcements) and injected hijacks with
//! ground-truth labels. The generator is a pure function of the topology
//! and a [`StreamConfig`] — same seed, same stream — so every run (CLI,
//! server job, proptest oracle) replays the identical event sequence.

use bgpsim_hijack::Attack;
use bgpsim_topology::{AsIndex, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One update-stream event. `seq` is the 0-based position in the stream;
/// detection latency is measured in events between an injection's `seq`
/// and the first event at which any probe sees the hijack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Position in the stream (dense, starting at 0).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The three stream event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Benign churn: one AS toggles route-origin validation on or off.
    /// Changes the defense every active hijack is scored under, so every
    /// memoized score goes stale. Cached baselines do not: origin
    /// validation never rejects a target's honest announcement, so its
    /// honest convergence is the same under every validator set.
    DefenseFlip {
        /// The AS whose validator membership flips.
        who: AsIndex,
    },
    /// Benign churn: a tracked target withdraws and re-announces its
    /// prefix. Routing re-converges to the same fixed point, so the
    /// detector's cached baseline stays valid — but the update forces a
    /// fresh delta-cone replay of any active hijack on that target.
    TargetReannounce {
        /// The re-announcing target.
        target: AsIndex,
    },
    /// Ground truth: `attack.attacker` starts an origin hijack against the
    /// tracked target `attack.target`. The hijack stays active for the
    /// rest of the stream (or until replaced by a later injection against
    /// the same target).
    HijackInject {
        /// The labeled attack.
        attack: Attack,
    },
}

/// Generator parameters for a seeded stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Number of events to emit.
    pub events: usize,
    /// RNG seed; the whole plan is a pure function of (topology, config).
    pub seed: u64,
    /// Number of tracked targets, drawn from the transit ASes.
    pub num_targets: usize,
    /// Fraction of all ASes validating origins before the first event.
    pub validator_fraction: f64,
    /// Whether provider-side defensive stub filtering is on (fixed for the
    /// stream's lifetime; only validator membership churns).
    pub stub_defense: bool,
    /// Relative weight of [`EventKind::DefenseFlip`] events.
    pub flip_weight: u32,
    /// Relative weight of [`EventKind::TargetReannounce`] events.
    pub reannounce_weight: u32,
    /// Relative weight of [`EventKind::HijackInject`] events.
    pub inject_weight: u32,
}

impl Default for StreamConfig {
    /// The CLI/server default: a mostly-benign feed (one injection per
    /// ~14 events) over four targets under partial ROV plus stub
    /// filtering — the localizing regime where baseline replay shines.
    fn default() -> StreamConfig {
        StreamConfig {
            events: 2_000,
            seed: 2014,
            num_targets: 4,
            validator_fraction: 0.3,
            stub_defense: true,
            flip_weight: 2,
            reannounce_weight: 10,
            inject_weight: 2,
        }
    }
}

/// A fully materialized stream: initial conditions plus the event tape.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPlan {
    /// ASes validating origins before event 0, sorted.
    pub initial_validators: Vec<AsIndex>,
    /// The tracked targets, sorted.
    pub targets: Vec<AsIndex>,
    /// Whether stub filtering is on throughout.
    pub stub_defense: bool,
    /// The events, `seq` dense from 0.
    pub events: Vec<StreamEvent>,
}

impl StreamPlan {
    /// Generates the plan for `config` on `topo`. Deterministic: equal
    /// inputs produce equal plans.
    ///
    /// # Panics
    ///
    /// Panics when the topology has fewer than two transit ASes or
    /// `config.num_targets` is 0 (there would be nothing to track), or
    /// when every event weight is 0.
    pub fn generate(topo: &Topology, config: &StreamConfig) -> StreamPlan {
        let transit = topo.transit_ases();
        assert!(
            transit.len() >= 2,
            "need at least two transit ASes to build a stream"
        );
        assert!(config.num_targets > 0, "need at least one tracked target");
        let total_weight = config.flip_weight + config.reannounce_weight + config.inject_weight;
        assert!(total_weight > 0, "all event weights are zero");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut pool = transit.clone();
        pool.shuffle(&mut rng);
        let mut targets: Vec<AsIndex> = pool
            .iter()
            .copied()
            .take(config.num_targets.min(pool.len()))
            .collect();
        targets.sort_unstable();

        let n = topo.num_ases();
        let want = ((n as f64 * config.validator_fraction).round() as usize).min(n);
        let mut everyone: Vec<AsIndex> = topo.indices().collect();
        everyone.shuffle(&mut rng);
        let mut initial_validators: Vec<AsIndex> = everyone.iter().copied().take(want).collect();
        initial_validators.sort_unstable();

        let mut events = Vec::with_capacity(config.events);
        for seq in 0..config.events as u64 {
            let roll = rng.random_range(0..total_weight);
            let kind = if roll < config.flip_weight {
                EventKind::DefenseFlip {
                    who: everyone[rng.random_range(0..everyone.len())],
                }
            } else if roll < config.flip_weight + config.reannounce_weight {
                EventKind::TargetReannounce {
                    target: targets[rng.random_range(0..targets.len())],
                }
            } else {
                let target = targets[rng.random_range(0..targets.len())];
                // Rejection-sample a transit attacker distinct from the
                // target (at least one exists: transit.len() >= 2).
                let attacker = loop {
                    let a = transit[rng.random_range(0..transit.len())];
                    if a != target {
                        break a;
                    }
                };
                EventKind::HijackInject {
                    attack: Attack::origin(attacker, target),
                }
            };
            events.push(StreamEvent { seq, kind });
        }
        StreamPlan {
            initial_validators,
            targets,
            stub_defense: config.stub_defense,
            events,
        }
    }

    /// Number of injected hijacks in the plan (the ground-truth count).
    pub fn injected_hijacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::HijackInject { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::gen::{generate, InternetParams};

    fn config(events: usize, seed: u64) -> StreamConfig {
        StreamConfig {
            events,
            seed,
            num_targets: 3,
            validator_fraction: 0.25,
            stub_defense: true,
            flip_weight: 1,
            reannounce_weight: 2,
            inject_weight: 1,
        }
    }

    #[test]
    fn plans_are_seeded_and_reproducible() {
        let net = generate(&InternetParams::tiny(), 3);
        let a = StreamPlan::generate(&net.topology, &config(200, 7));
        let b = StreamPlan::generate(&net.topology, &config(200, 7));
        assert_eq!(a, b);
        assert_ne!(a, StreamPlan::generate(&net.topology, &config(200, 8)));
        assert_eq!(a.events.len(), 200);
        for (i, e) in a.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn plan_respects_config_shape() {
        let net = generate(&InternetParams::tiny(), 5);
        let topo = &net.topology;
        let plan = StreamPlan::generate(topo, &config(300, 1));
        assert_eq!(plan.targets.len(), 3);
        assert!(plan.targets.windows(2).all(|w| w[0] < w[1]));
        for &t in &plan.targets {
            assert!(topo.is_transit(t));
        }
        let expect = (topo.num_ases() as f64 * 0.25).round() as usize;
        assert_eq!(plan.initial_validators.len(), expect);
        assert!(plan.injected_hijacks() > 0);
        for e in &plan.events {
            match e.kind {
                EventKind::TargetReannounce { target } => {
                    assert!(plan.targets.contains(&target));
                }
                EventKind::HijackInject { attack } => {
                    assert!(plan.targets.contains(&attack.target));
                    assert!(topo.is_transit(attack.attacker));
                    assert_ne!(attack.attacker, attack.target);
                }
                EventKind::DefenseFlip { .. } => {}
            }
        }
    }

    #[test]
    fn zero_inject_weight_gives_pure_churn() {
        let net = generate(&InternetParams::tiny(), 3);
        let mut c = config(100, 2);
        c.inject_weight = 0;
        let plan = StreamPlan::generate(&net.topology, &c);
        assert_eq!(plan.injected_hijacks(), 0);
    }
}
