//! Reproduction harness for *"Incremental Deployment Strategies for
//! Effective Detection and Prevention of BGP Origin Hijacks"* (Gersch,
//! Massey, Papadopoulos — ICDCS 2014).
//!
//! This crate is the front door of the workspace: it re-exports the
//! substrate crates and provides [`Lab`] + [`experiments`] — one typed
//! runner per table and figure of the paper, each emitting plain-text
//! summaries, CSV data and SVG charts.
//!
//! # Layers
//!
//! * [`topology`] — AS graph, CAIDA parsing, synthetic Internet generator,
//!   depth/reach metrics.
//! * [`routing`] — the valley-free BGP propagation engines.
//! * [`hijack`] — origin/sub-prefix attacks, pollution sweeps, curves.
//! * [`defense`] — §V incremental filter-deployment strategies (the
//!   `hijack::defense` module).
//! * [`detection`] — §VI probe configurations and coverage experiments
//!   (the `hijack::detection` module).
//! * [`stream`] — ARTEMIS-style live update stream with incremental
//!   per-event detection over cached baselines.
//! * [`viz`] — SVG figures.
//! * [`experiments`] — one runner per table and figure; §VII's
//!   self-interest actions (re-homing, plans) live in
//!   [`experiments::selfinterest`].
//!
//! # Quick start
//!
//! ```
//! use bgpsim_core::{experiments, ExperimentConfig, Lab};
//!
//! let mut config = ExperimentConfig::quick();
//! config.params = bgpsim_core::topology::gen::InternetParams::tiny();
//! let lab = Lab::new(config);
//! let model = experiments::tab_model(&lab);
//! println!("{}", model.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod experiments;
mod lab;
pub mod manifest;
pub mod report;

pub use config::ExperimentConfig;
pub use lab::{Cast, Lab};

pub use bgpsim_hijack as hijack;
pub use bgpsim_hijack::{defense, detection};
pub use bgpsim_routing as routing;
pub use bgpsim_stream as stream;
pub use bgpsim_topology as topology;
pub use bgpsim_viz as viz;
