//! BGP route propagation over AS-level topologies.
//!
//! This crate implements the routing model of *"Incremental Deployment
//! Strategies for Effective Detection and Prevention of BGP Origin
//! Hijacks"* (ICDCS 2014), §III:
//!
//! * `LOCAL_PREF` prefers customer routes over peer routes over provider
//!   routes; ties break to the shorter AS path; tier-1 routers always take
//!   the shortest path ([`policy`]).
//! * Valley-free export with sibling groups acting as one AS.
//! * Generation-stepped propagation until convergence, observable message
//!   by message ([`engine::generation`], [`Observer`]).
//! * Route-origin-validation filters and defensive stub filters
//!   ([`FilterContext`]), the paper's §V prevention mechanisms.
//!
//! Two accelerators reproduce that engine's outcome bit for bit:
//! [`engine::race`] computes the converged state in closed form (a
//! label-setting pass inside a tier-1 fixed point) and [`engine::delta`]
//! re-converges only what an extra announcement perturbs; property tests
//! pin both to the generation engine.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};
//! use bgpsim_routing::{propagate, FilterContext, NullObserver, PolicyConfig, SimNet, Workspace};
//!
//! // AS1 provides transit to AS2 and AS3; AS3 announces a prefix.
//! let topo = topology_from_triples(&[
//!     (1, 2, ProviderToCustomer),
//!     (1, 3, ProviderToCustomer),
//! ]);
//! let net = SimNet::new(&topo);
//! let origin = topo.index_of(AsId::new(3)).unwrap();
//! let routes = propagate(
//!     &net,
//!     &[origin],
//!     &FilterContext::none(),
//!     &PolicyConfig::paper(),
//!     &mut Workspace::new(),
//!     &mut NullObserver,
//! );
//! assert_eq!(routes.reached_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod filter;
mod net;
mod observer;
pub mod policy;
mod route;

pub use engine::delta::{
    propagate_delta, propagate_delta_budgeted, Baseline, DeltaResult, DeltaWorkspace,
    DEFAULT_CONE_BUDGET_DIVISOR,
};
pub use engine::generation::{propagate, propagate_announcements, Announcement, Workspace};
pub use engine::race::{
    solve_race, solve_race_observed, RaceResult, RaceWorkspace, DEFAULT_MAX_ROUNDS,
};
pub use filter::{AsSet, FilterContext};
pub use net::SimNet;
pub use observer::{
    Decision, EngineTelemetry, MessageEvent, NullObserver, Observer, TraceRecorder,
};
pub use policy::{PolicyConfig, PrefClass};
pub use route::{Choice, ConvergenceStats, Propagation};
