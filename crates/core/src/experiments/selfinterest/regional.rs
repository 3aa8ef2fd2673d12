//! Regional containment analysis (§VII).
//!
//! The paper's validation region is New Zealand: "This AS is located in
//! New Zealand, along with 186 other ASes. We wanted to see if IP
//! hijacking could be reduced just within the NZ region." Compromise is
//! measured as the number of *regional* ASes polluted, for attacks
//! launched both from inside and from outside the region.

use bgpsim_hijack::{Defense, Simulator, SweepMonitor};
use bgpsim_topology::metrics::DepthMap;
use bgpsim_topology::{AsIndex, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Structural facts about a region.
#[derive(Debug, Clone)]
pub(super) struct RegionalAnalysis {
    /// Transit members with at least one neighbor outside the region —
    /// the ASes able to carry other members' traffic across the boundary.
    /// (Leaked stubs with a foreign provider are *not* gateways: they
    /// cannot transit for anyone else.)
    pub(super) gateways: Vec<AsIndex>,
    /// The deepest (most vulnerable-looking) members, deepest first.
    pub(super) deepest_members: Vec<(AsIndex, u32)>,
}

/// Analyzes the topology of a region: §VII's "analyze the relevant AS
/// topology… Measure depth to assess potential vulnerability".
pub(super) fn analyze_region(topo: &Topology, members: &[AsIndex]) -> RegionalAnalysis {
    let member_set: std::collections::HashSet<AsIndex> = members.iter().copied().collect();
    let depths = DepthMap::to_tier1(topo);
    let gateways: Vec<AsIndex> = members
        .iter()
        .copied()
        .filter(|&m| {
            topo.is_transit(m)
                && topo
                    .neighbors(m)
                    .iter()
                    .any(|nb| !member_set.contains(&nb.index))
        })
        .collect();
    let mut deepest_members: Vec<(AsIndex, u32)> = members
        .iter()
        .copied()
        .filter_map(|m| depths.depth(m).map(|d| (m, d)))
        .collect();
    deepest_members.sort_by_key(|&(m, d)| (std::cmp::Reverse(d), m.raw()));
    deepest_members.truncate(10);
    RegionalAnalysis {
        gateways,
        deepest_members,
    }
}

/// Outcome of a regional containment measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalPollution {
    /// Mean number of regional ASes compromised per successful attack
    /// launched from *inside* the region.
    pub mean_from_inside: f64,
    /// Same, for a sample of attacks launched from *outside*.
    pub mean_from_outside: f64,
    /// Region size, for converting to the paper's percentages.
    pub region_size: usize,
}

impl RegionalPollution {
    /// Mean inside-attack compromise as a fraction of the region.
    pub fn inside_fraction(&self) -> f64 {
        self.mean_from_inside / self.region_size.max(1) as f64
    }

    /// Mean outside-attack compromise as a fraction of the region.
    pub fn outside_fraction(&self) -> f64 {
        self.mean_from_outside / self.region_size.max(1) as f64
    }
}

/// Measures regional compromise for attacks on `target`: every region
/// member attacks once, plus `outside_sample` random outside ASes
/// (seeded). Mirrors the paper's §VII methodology ("attacks generated from
/// each of the 187 ASes within the region… a sample of 200 attacks from
/// outside the region"). Zero-pollution attacks are excluded from the
/// means, matching the curves' "successful attack" convention.
pub(super) fn regional_containment(
    sim: &Simulator<'_>,
    target: AsIndex,
    members: &[AsIndex],
    outside_sample: usize,
    seed: u64,
    defense: &Defense,
) -> RegionalPollution {
    let inside: Vec<AsIndex> = members.iter().copied().filter(|&m| m != target).collect();
    let member_set: std::collections::HashSet<AsIndex> = members.iter().copied().collect();
    let mut outside: Vec<AsIndex> = sim
        .topology()
        .indices()
        .filter(|ix| !member_set.contains(ix) && *ix != target)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    outside.shuffle(&mut rng);
    outside.truncate(outside_sample);

    let mean_within = |attackers: &[AsIndex]| -> f64 {
        let counts = sim.sweep_attackers_monitored(
            target,
            attackers,
            defense,
            Some(members),
            &SweepMonitor::none(),
        );
        let successful: Vec<u32> = counts.into_iter().filter(|&c| c > 0).collect();
        if successful.is_empty() {
            0.0
        } else {
            successful.iter().map(|&c| c as u64).sum::<u64>() as f64 / successful.len() as f64
        }
    };
    RegionalPollution {
        mean_from_inside: mean_within(&inside),
        mean_from_outside: mean_within(&outside),
        region_size: members.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::gen::{generate, InternetParams};

    #[test]
    fn analysis_finds_gateways_and_depths() {
        let net = generate(&InternetParams::small(), 7);
        let region = net.island_region.expect("preset has an island");
        let members = net.regions.members(region);
        let analysis = analyze_region(&net.topology, members);
        assert!(!analysis.gateways.is_empty());
        assert!(analysis.gateways.len() < members.len());
        // Deepest entries carry their true depths, the maximum first.
        let depths = DepthMap::to_tier1(&net.topology);
        let deepest = members.iter().filter_map(|&m| depths.depth(m)).max();
        assert_eq!(analysis.deepest_members.first().map(|&(_, d)| d), deepest);
        for &(m, d) in &analysis.deepest_members {
            assert_eq!(depths.depth(m), Some(d));
        }
        assert!(!analysis.deepest_members.is_empty());
        // Deepest list is sorted deep-first.
        for w in analysis.deepest_members.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The generator's hub gateway (guaranteed island customers) is a
        // structural gateway; others may have attracted no customers.
        assert!(analysis.gateways.contains(&net.island_gateways[0]));
        // Every structural gateway is transit.
        for g in &analysis.gateways {
            assert!(net.topology.is_transit(*g));
        }
    }

    #[test]
    fn containment_measures_are_bounded_and_deterministic() {
        let net = generate(&InternetParams::small(), 7);
        let region = net.island_region.unwrap();
        let members = net.regions.members(region).to_vec();
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        // Deepest island member as target (the paper's AS55857 analogue).
        let analysis = analyze_region(&net.topology, &members);
        let target = analysis.deepest_members[0].0;
        let a = regional_containment(&sim, target, &members, 50, 1, &Defense::none());
        let b = regional_containment(&sim, target, &members, 50, 1, &Defense::none());
        assert_eq!(a, b);
        assert!(a.mean_from_inside >= 0.0);
        assert!(a.inside_fraction() <= 1.0);
        assert!(a.outside_fraction() <= 1.0);
        // Regional attacks compromise at least as much of the region as
        // external ones on average (they start inside the containment).
        assert!(a.mean_from_inside >= a.mean_from_outside * 0.5);
    }
}
