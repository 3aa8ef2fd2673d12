//! Synthetic Internet-scale AS topology generation.
//!
//! The paper drives every experiment from a CAIDA AS-relationship snapshot
//! (42,697 ASes, 139,156 links). That dataset cannot ship with this crate,
//! so this module generates a *calibrated synthetic Internet* with the
//! structural properties the experiments depend on:
//!
//! * a small tier-1 clique (17 at paper scale) of provider-free,
//!   fully-peered backbones;
//! * a band of large tier-2 transit providers multi-homed to the clique;
//! * a power-law transit degree distribution (so degree-threshold cohorts
//!   like "the 62 ASes with degree ≥ 500" exist and are small);
//! * a transit share near 15 % with stub depths reaching 6–7;
//! * regional locality, including one island region (the paper's New
//!   Zealand case study) whose only mainland connectivity runs through a
//!   few gateway providers;
//! * sibling groups, multi-homed stubs and per-AS address-space weights.
//!
//! Generation is fully deterministic given a seed. Anyone holding a real
//! `as-rel` file can bypass this module entirely via
//! [`crate::parser::from_caida_reader`].
//!
//! # Examples
//!
//! ```
//! use bgpsim_topology::gen::{InternetParams, generate};
//!
//! let net = generate(&InternetParams::tiny(), 42);
//! assert!(net.topology.num_ases() >= 250);
//! assert_eq!(net.topology.tier1s().len(), net.tier1_count);
//! ```

mod build;

pub use build::generate;

use crate::region::RegionId;

/// Parameters of the synthetic Internet model.
///
/// Use the presets ([`paper_scale`](InternetParams::paper_scale),
/// [`medium`](InternetParams::medium), [`small`](InternetParams::small),
/// [`tiny`](InternetParams::tiny)) and tweak fields as needed; all counts
/// scale with `num_ases`.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetParams {
    /// Total number of autonomous systems.
    pub num_ases: usize,
    /// Size of the tier-1 clique.
    pub tier1_count: usize,
    /// Number of large tier-2 providers attached to most of the clique.
    pub tier2_count: usize,
    /// Fraction of ASes that sell transit (CAIDA 2013: ≈ 0.148).
    pub transit_fraction: f64,
    /// Zipf exponent of transit attachment attractiveness (tail heaviness).
    pub zipf_exponent: f64,
    /// Rank offset flattening the head of the Zipf distribution.
    pub zipf_offset: f64,
    /// Probability that a stub is multi-homed (two providers).
    pub stub_multihome_fraction: f64,
    /// Probability that a multi-homed stub takes a third provider.
    pub stub_third_provider_prob: f64,
    /// Fraction of non-tier2 transit ASes arranged into deep chains.
    pub chain_fraction: f64,
    /// Maximum extra chain length below the attachment point.
    pub max_chain_len: usize,
    /// Target ratio of peer links to total links (CAIDA 2013: ≈ 0.35).
    pub peer_link_ratio: f64,
    /// Number of sibling organizations (each gets 2–4 member ASes).
    pub sibling_group_count: usize,
    /// Number of geographic regions (longitude slices).
    pub num_regions: u16,
    /// Optional isolated island region (§VII's New Zealand analogue).
    pub island: Option<IslandParams>,
    /// How many guaranteed "deep ladders" (provider chains with stubs at
    /// every depth) to graft on, so depth exemplars always exist.
    pub ladder_count: usize,
    /// Depth reached by each ladder.
    pub ladder_depth: usize,
    /// Candidate pool size for locality-biased provider sampling.
    pub locality_candidates: usize,
}

/// Parameters of the island region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandParams {
    /// Number of ASes in the island (the paper's NZ region has 187).
    pub size: usize,
    /// Number of gateway transit ASes connecting the island to the
    /// mainland.
    pub gateways: usize,
}

impl InternetParams {
    /// Full paper scale: ≈ 42,697 ASes / ≈ 139k links. Generation takes a
    /// few seconds; sweeps over it are example-sized, not test-sized.
    pub fn paper_scale() -> InternetParams {
        InternetParams::sized(42_697)
    }

    /// ≈ 10k ASes: the shape of paper-scale at a tenth of the cost.
    pub fn medium() -> InternetParams {
        InternetParams::sized(10_000)
    }

    /// ≈ 2k ASes: integration-test sized.
    pub fn small() -> InternetParams {
        InternetParams::sized(2_000)
    }

    /// ≈ 300 ASes: unit-test sized.
    pub fn tiny() -> InternetParams {
        InternetParams::sized(300)
    }

    /// A parameter set scaled to `num_ases`, keeping the paper-scale
    /// proportions.
    pub fn sized(num_ases: usize) -> InternetParams {
        let scale = num_ases as f64 / 42_697.0;
        let tier1_count = ((17.0 * scale.sqrt()).round() as usize).clamp(3, 17);
        let tier2_count = ((45.0 * scale.sqrt()).round() as usize).clamp(4, 60);
        let island_size = ((187.0 * scale).round() as usize).max(40);
        InternetParams {
            num_ases,
            tier1_count,
            tier2_count,
            transit_fraction: 0.148,
            zipf_exponent: 0.88,
            zipf_offset: 3.0,
            stub_multihome_fraction: 0.60,
            stub_third_provider_prob: 0.30,
            chain_fraction: 0.16,
            max_chain_len: 3,
            peer_link_ratio: 0.45,
            sibling_group_count: (num_ases / 400).max(1),
            num_regions: 24,
            island: Some(IslandParams {
                size: island_size,
                gateways: 3,
            }),
            ladder_count: 3,
            ladder_depth: 6,
            locality_candidates: 8,
        }
    }
}

impl Default for InternetParams {
    /// Defaults to [`InternetParams::medium`].
    fn default() -> Self {
        InternetParams::medium()
    }
}

/// A generated Internet: the topology plus the ground-truth metadata the
/// experiments need.
#[derive(Debug, Clone)]
pub struct GeneratedInternet {
    /// The relationship graph (tier-1 clique declared).
    pub topology: crate::Topology,
    /// Region of every AS.
    pub regions: crate::region::RegionMap,
    /// Address-space weight of every AS (/24-equivalents).
    pub address_space: crate::AddressSpace,
    /// Number of tier-1 ASes (they occupy dense indices `0..tier1_count`).
    pub tier1_count: usize,
    /// The island region id, when an island was requested.
    pub island_region: Option<RegionId>,
    /// The island's gateway transit ASes.
    pub island_gateways: Vec<crate::AsIndex>,
    /// Longitude in `[0, 1)` of every AS, for polar layouts.
    pub longitude: Vec<f64>,
}
