//! AS-level Internet topology substrate for BGP origin-hijack simulation.
//!
//! This crate provides everything the routing and experiment layers need to
//! know about the inter-domain graph:
//!
//! * [`Topology`] — an immutable relationship graph (provider/customer,
//!   peer, sibling) in cache-friendly CSR form with deterministic neighbor
//!   ordering, built via [`TopologyBuilder`] or parsed from CAIDA
//!   AS-relationship files ([`parser`]).
//! * [`gen`] — a calibrated synthetic-Internet generator used when the real
//!   CAIDA snapshot is unavailable (see `DESIGN.md` §4 for the
//!   substitution rationale).
//! * [`metrics`] — the paper's vulnerability predictors: *depth* (provider
//!   hops to the tier-1/tier-2 core), *reach* (customer cones) and plain
//!   hop distances.
//! * [`classify`](mod@classify) / [`select`] — tier labels and deterministic selectors
//!   for "a depth-5 stub", "the 62 ASes with degree ≥ 500", etc.
//! * [`AddressSpace`], [`region`] — per-AS address-space weights and
//!   regional labels used by the §IV pollution metrics and §VII regional
//!   experiments.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_topology::gen::{generate, InternetParams};
//! use bgpsim_topology::metrics::DepthMap;
//!
//! // A ~300-AS Internet with a tier-1 clique, island region and ladders.
//! let net = generate(&InternetParams::tiny(), 42);
//! let depths = DepthMap::to_tier1(&net.topology);
//! assert_eq!(depths.num_unreachable(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addrspace;
mod asid;
mod builder;
pub mod classify;
mod error;
pub mod gen;
mod graph;
pub mod metrics;
pub mod parser;
pub mod region;
mod relationship;
pub mod select;
mod stats;

pub use addrspace::AddressSpace;
pub use asid::{AsId, AsIndex, ParseAsIdError};
pub use builder::{topology_from_triples, TopologyBuilder};
pub use classify::{classify, Classification, ClassifyConfig, TierClass};
pub use error::TopologyError;
pub use graph::{Neighbor, Topology};
pub use region::{RegionId, RegionMap};
pub use relationship::{LinkKind, Relationship};
pub use stats::TopologyStats;
