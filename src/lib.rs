//! `bgpsim` — reproduction of *"Incremental Deployment Strategies for
//! Effective Detection and Prevention of BGP Origin Hijacks"* (Gersch,
//! Massey, Papadopoulos — ICDCS 2014).
//!
//! This facade re-exports the workspace: see [`bgpsim_core`] for the
//! experiment harness and the substrate crates
//! ([`topology`], [`routing`], [`hijack`] with its [`defense`] and
//! [`detection`] modules, [`stream`], [`viz`], [`fanout`]).
//!
//! ```
//! use bgpsim::{experiments, ExperimentConfig, Lab};
//!
//! let mut config = ExperimentConfig::quick();
//! config.params = bgpsim::topology::gen::InternetParams::tiny();
//! let lab = Lab::new(config);
//! println!("{}", experiments::tab_model(&lab).summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bgpsim_core::*;

/// Sharded sweep fan-out across `bgpsim-server` fleets (see
/// [`bgpsim_fanout`]).
pub use bgpsim_fanout as fanout;
