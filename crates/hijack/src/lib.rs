//! BGP origin-hijack attack simulation (§IV of the ICDCS 2014 paper).
//!
//! Builds on [`bgpsim_routing`] to model the paper's attack scenario: a
//! target AS legitimately originates a prefix, an attacker originates the
//! same prefix (or a more-specific one), and after joint convergence every
//! AS whose best route leads to the attacker is *polluted*.
//!
//! * [`Simulator`] — runs single attacks (optionally traced for
//!   visualization) and rayon-parallel sweeps over thousands of attackers.
//! * [`Defense`] — owned filter deployments (route-origin validation,
//!   provider-side stub filtering) reusable across attacks.
//! * [`defense`] — §V incremental filter-deployment strategies and their
//!   residual-pollution sweeps (figs. 5–6).
//! * [`detection`] — §VI probe configurations and coverage experiments
//!   (fig. 7), plus greedy probe placement.
//! * [`VulnerabilityCurve`] / [`SweepResult`] — the figs. 2–6
//!   complementary-cumulative presentation plus "top potent attackers"
//!   tables.
//! * [`aggressiveness`] — the attacker-side metric of §IV.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_hijack::{Attack, Defense, Simulator, SweepResult};
//! use bgpsim_routing::PolicyConfig;
//! use bgpsim_topology::gen::{generate, InternetParams};
//!
//! let net = generate(&InternetParams::tiny(), 7);
//! let sim = Simulator::new(&net.topology, PolicyConfig::paper());
//! let target = net.topology.stub_ases()[0];
//! let attackers: Vec<_> = net.topology.transit_ases();
//! let counts = sim.sweep_attackers(target, &attackers, &Defense::none());
//! let sweep = SweepResult::new(attackers, counts);
//! println!("worst attacker pollutes {} ASes", sweep.curve().max_pollution());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggressiveness;
mod attack;
pub mod defense;
pub mod detection;
mod pool;
mod simulator;
mod telemetry;
mod view;
mod vulnerability;

pub use aggressiveness::{aggressiveness, rank_by_aggressiveness};
pub use attack::{Attack, AttackKind, AttackOutcome};
pub use defense::Defense;
pub use simulator::{BaselineKey, EngineChoice, Simulator};
pub use telemetry::{
    wall_bucket, Dispatch, SweepMonitor, SweepProgress, SweepTelemetry, TelemetrySnapshot,
    WALL_HIST_BUCKETS,
};
pub use view::OutcomeView;
pub use vulnerability::{SweepResult, VulnerabilityCurve};
