//! Deployment strategies for BGP hijack *detection* (§VI of the ICDCS 2014
//! paper).
//!
//! "IP hijack detectors work by collecting real-time BGP data sources by
//! peering with routers in multiple ASes… Any particular attack may be
//! seen by one, multiple, or possibly none of the BGP data sources which
//! act as probes."
//!
//! * [`ProbeSet`] — the paper's three configurations (tier-1, BGPmon-like,
//!   degree ≥ 500) plus random baselines.
//! * [`random_transit_attacks`] — the 8,000-attack workload generator.
//! * [`run_detection_experiment`] — scores every configuration against the
//!   same attack outcomes, yielding fig. 7's histograms and the
//!   undetected-attack tables ([`DetectionReport`]).
//! * [`optimize`] — §VII's "determine new probes that can improve
//!   detection accuracy": greedy maximum-coverage probe placement.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_hijack::detection::{random_transit_attacks, run_detection_experiment, ProbeSet};
//! use bgpsim_hijack::{Defense, Simulator};
//! use bgpsim_routing::PolicyConfig;
//! use bgpsim_topology::gen::{generate, InternetParams};
//!
//! let net = generate(&InternetParams::tiny(), 1);
//! let sim = Simulator::new(&net.topology, PolicyConfig::paper());
//! let sets = vec![ProbeSet::tier1(&net.topology)];
//! let attacks = random_transit_attacks(&net.topology, 100, 42);
//! let reports = run_detection_experiment(&sim, &sets, &attacks, &Defense::none());
//! println!("miss rate: {:.1}%", 100.0 * reports[0].miss_rate());
//! ```

mod experiment;
pub mod optimize;
mod probes;
mod report;

pub use experiment::{random_transit_attacks, run_detection_experiment};
pub use optimize::{greedy_probe_selection, CoverageMatrix, ProbePlan};
pub use probes::ProbeSet;
pub use report::{DetectionReport, MissedAttack};
