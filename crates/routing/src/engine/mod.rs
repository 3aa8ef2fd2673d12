//! Propagation engines.
//!
//! One reference implementation of the routing semantics and two
//! accelerators that must reproduce it bit for bit:
//!
//! * [`generation`] — the paper's step-wise message-passing simulator, with
//!   full observability (per-generation message events) and support for the
//!   tier-1 shortest-path rule. It is the oracle the root package's
//!   `differential` test compares every other engine against.
//! * [`delta`] re-converges a frozen, already-converged state after
//!   injecting additional announcements, running only the perturbed
//!   frontier through the *same* message-passing mechanics (shared via the
//!   `RibState` seam inside [`generation`]).
//! * [`race`] computes the converged state in closed form: a label-setting
//!   pass over `(class, length)` priorities, wrapped in a small fixed-point
//!   over the tier-1 clique's selections for the paper policy (tier-1
//!   shortest-path), falling back to [`generation`] when that fixed point
//!   does not settle.

pub mod delta;
pub mod generation;
pub mod race;

pub use delta::{
    propagate_delta, propagate_delta_budgeted, Baseline, DeltaResult, DeltaWorkspace,
    DEFAULT_CONE_BUDGET_DIVISOR,
};
pub use generation::{propagate, propagate_announcements, Announcement, Workspace};
pub use race::{solve_race, solve_race_observed, RaceWorkspace, DEFAULT_MAX_ROUNDS};
