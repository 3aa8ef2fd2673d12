//! ARTEMIS-style live update stream over the hijack simulator.
//!
//! Real detectors do not score one-shot converged snapshots — they watch
//! a live BGP update feed and must re-detect as routes churn (ARTEMIS
//! "detects hijacks within seconds"). This crate turns the repo's batch
//! experiment machinery into that pipeline:
//!
//! * [`StreamPlan`] / [`StreamConfig`] — a seeded, reproducible interleave
//!   of benign churn (defense flips, target re-announcements) and
//!   ground-truth-labeled hijack injections.
//! * [`StreamDetector`] — the incremental detector: one cached
//!   [`bgpsim_routing::Baseline`] per tracked target, delta-cone replay
//!   per event, falling back to engine-per-attack dispatch when no
//!   defense localizes. [`DetectorMode::Batch`] is the from-scratch
//!   oracle it is pinned bit-identical to.
//! * [`StreamStore`] — a chunked ring per metric (pollution, per-set
//!   triggered counts, detection latency) with range queries and
//!   windowed min/max/mean aggregation.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_hijack::detection::ProbeSet;
//! use bgpsim_hijack::Simulator;
//! use bgpsim_routing::PolicyConfig;
//! use bgpsim_stream::{run_stream, DetectorMode, StreamConfig, StreamPlan};
//! use bgpsim_topology::gen::{generate, InternetParams};
//!
//! let net = generate(&InternetParams::tiny(), 1);
//! let sim = Simulator::new(&net.topology, PolicyConfig::paper());
//! let plan = StreamPlan::generate(
//!     &net.topology,
//!     &StreamConfig {
//!         events: 100,
//!         ..StreamConfig::default()
//!     },
//! );
//! let sets = vec![ProbeSet::tier1(&net.topology)];
//! let out = run_stream(&sim, &sets, &plan, DetectorMode::Incremental);
//! let s = out.summary();
//! println!("{} injected, {} detected", s.injected, s.detected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod event;
mod store;

pub use detector::{
    run_stream, triggered_series, DetectorMode, HijackRecord, StreamDetector, StreamOutcome,
    StreamSummary, SERIES_LATENCY, SERIES_POLLUTION,
};
pub use event::{EventKind, StreamConfig, StreamEvent, StreamPlan};
pub use store::{ChunkedSeries, StreamStore, WindowStats};
