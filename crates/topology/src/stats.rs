//! Aggregate topology statistics — the paper's "simulation model" table.
//!
//! Section III of the paper characterizes its substrate: 42,697 ASes,
//! 139,156 relationships, 17 tier-1s, 6,318 transit ASes, 62 ASes with
//! degree ≥ 500. [`TopologyStats`] computes the same summary for any
//! topology so EXPERIMENTS.md can place measured values next to the
//! paper's.

use core::fmt;

use crate::metrics::DepthMap;
use crate::Topology;

/// Summary statistics of a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyStats {
    /// Total autonomous systems.
    pub num_ases: usize,
    /// Total links.
    pub num_links: usize,
    /// Provider-customer links.
    pub num_p2c: usize,
    /// Peer links.
    pub num_p2p: usize,
    /// Sibling links.
    pub num_s2s: usize,
    /// Tier-1 clique size.
    pub num_tier1: usize,
    /// ASes selling transit.
    pub num_transit: usize,
    /// Stub ASes.
    pub num_stubs: usize,
    /// Cohort sizes at the paper's degree thresholds (500, 300, 200, 100).
    pub degree_cohorts: [(usize, usize); 4],
    /// Histogram of depth-to-tier-1 (index = depth).
    pub depth_histogram: Vec<usize>,
    /// ASes with no provider chain to a tier-1.
    pub unreachable: usize,
    /// Maximum observed degree.
    pub max_degree: usize,
}

impl TopologyStats {
    /// Computes the full summary. Cost is `O(n + m)` plus one BFS.
    pub fn compute(topo: &Topology) -> TopologyStats {
        let depth = DepthMap::to_tier1(topo);
        let thresholds = [500usize, 300, 200, 100];
        let mut cohorts = [(0usize, 0usize); 4];
        for (slot, &k) in thresholds.iter().enumerate() {
            cohorts[slot] = (k, topo.indices().filter(|&ix| topo.degree(ix) >= k).count());
        }
        TopologyStats {
            num_ases: topo.num_ases(),
            num_links: topo.num_links(),
            num_p2c: topo.num_p2c_links(),
            num_p2p: topo.num_p2p_links(),
            num_s2s: topo.num_s2s_links(),
            num_tier1: topo.tier1s().len(),
            num_transit: topo.transit_ases().len(),
            num_stubs: topo.stub_ases().len(),
            degree_cohorts: cohorts,
            depth_histogram: depth.histogram(),
            unreachable: depth.num_unreachable(),
            max_degree: topo.indices().map(|ix| topo.degree(ix)).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for TopologyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ases:        {}", self.num_ases)?;
        writeln!(
            f,
            "links:       {} (p2c {}, p2p {}, s2s {})",
            self.num_links, self.num_p2c, self.num_p2p, self.num_s2s
        )?;
        writeln!(f, "tier-1:      {}", self.num_tier1)?;
        writeln!(
            f,
            "transit:     {} ({:.1}%)",
            self.num_transit,
            100.0 * self.num_transit as f64 / self.num_ases.max(1) as f64
        )?;
        writeln!(f, "stubs:       {}", self.num_stubs)?;
        for (k, c) in self.degree_cohorts {
            writeln!(f, "degree ≥{k:<4} {c}")?;
        }
        writeln!(f, "max degree:  {}", self.max_degree)?;
        write!(f, "depth hist:  ")?;
        for (d, c) in self.depth_histogram.iter().enumerate() {
            write!(f, "{d}:{c} ")?;
        }
        if self.unreachable > 0 {
            write!(f, "(unreachable {})", self.unreachable)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, InternetParams};
    use crate::topology_from_triples;
    use crate::LinkKind::*;

    #[test]
    fn stats_on_micro_topology() {
        let t = topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
        ]);
        let s = TopologyStats::compute(&t);
        assert_eq!(s.num_ases, 4);
        assert_eq!(s.num_links, 3);
        assert_eq!(s.num_tier1, 2);
        assert_eq!(s.num_transit, 2);
        assert_eq!(s.num_stubs, 2);
        assert_eq!(s.depth_histogram, vec![2, 1, 1]);
        assert_eq!(s.unreachable, 0);
        assert_eq!(s.max_degree, 2);
        let text = s.to_string();
        assert!(text.contains("tier-1:      2"));
    }

    #[test]
    fn generated_stats_are_consistent() {
        let net = generate(&InternetParams::tiny(), 2);
        let s = TopologyStats::compute(&net.topology);
        assert_eq!(s.num_transit + s.num_stubs, s.num_ases);
        assert_eq!(s.num_p2c + s.num_p2p + s.num_s2s, s.num_links);
        assert_eq!(s.unreachable, 0);
        let total_by_depth: usize = s.depth_histogram.iter().sum();
        assert_eq!(total_by_depth, s.num_ases);
    }
}
