//! The §VII step-wise security plan, generated per organization.
//!
//! "Rather than sit and wait, responsible organizations can start to take
//! pro-active actions immediately": analyze the relevant topology, reduce
//! vulnerability, publish route origins, filter, and use detection. This
//! module turns that prose into a concrete, data-driven checklist for a
//! specific target AS.

use core::fmt;

use bgpsim_topology::metrics::DepthMap;
use bgpsim_topology::{AsId, AsIndex, Topology};

use super::regional::analyze_region;

/// One concrete recommendation in a [`SecurityPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recommendation {
    /// Findings of the topology analysis step.
    Analysis {
        /// The target's depth (hops to the nearest tier-1), if connected.
        depth: Option<u32>,
        /// Number of providers (homing).
        providers: usize,
        /// Regional gateways the target's traffic funnels through.
        gateways: Vec<AsIndex>,
    },
    /// Re-home to reduce depth and increase non-overlapping reach.
    ReduceVulnerability {
        /// Levels to climb.
        levels: u32,
        /// Expected depth after re-homing.
        expected_depth: u32,
    },
    /// Publish authoritative route origins (ROVER / RPKI): prerequisite
    /// for every downstream defense.
    PublishOrigins,
    /// Deploy origin-validation filters at these ASes first (highest
    /// regional leverage per filter).
    DeployFilters {
        /// Suggested filter locations, best first.
        at: Vec<AsIndex>,
    },
    /// Subscribe to detection and verify these probes cover the region.
    UseDetection {
        /// Suggested vantage points, best first.
        probes: Vec<AsIndex>,
    },
}

/// A generated step-wise plan for one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityPlan {
    /// The AS the plan protects.
    pub target: AsIndex,
    /// Its autonomous-system number, for display.
    pub target_asn: AsId,
    /// The ordered recommendations.
    pub steps: Vec<Recommendation>,
}

impl SecurityPlan {
    /// Builds a plan for `target`, scoping the analysis to `region` (pass
    /// the whole AS list for a global view).
    ///
    /// The plan always includes the analysis, origin-publication, filter
    /// and detection steps; the re-homing step appears only when the
    /// target's depth exceeds 1 and a lower-depth provider is reachable.
    pub fn for_target(topo: &Topology, target: AsIndex, region: &[AsIndex]) -> SecurityPlan {
        let depths = DepthMap::to_tier1(topo);
        let analysis = analyze_region(topo, region);
        let depth = depths.depth(target);
        let mut steps = vec![Recommendation::Analysis {
            depth,
            providers: topo.num_providers(target),
            gateways: analysis.gateways.clone(),
        }];
        if let Some(d) = depth {
            if d > 1 {
                // Climbing one level per excess depth unit reaches depth 1.
                steps.push(Recommendation::ReduceVulnerability {
                    levels: d - 1,
                    expected_depth: 1,
                });
            }
        }
        steps.push(Recommendation::PublishOrigins);
        // Filters: gateways first (they throttle the whole region), then
        // the highest-degree region members.
        let mut filter_sites = analysis.gateways.clone();
        let mut by_degree: Vec<AsIndex> = region
            .iter()
            .copied()
            .filter(|ix| !filter_sites.contains(ix) && *ix != target)
            .collect();
        by_degree.sort_by_key(|&ix| (std::cmp::Reverse(topo.degree(ix)), ix.raw()));
        filter_sites.extend(by_degree.into_iter().take(3));
        steps.push(Recommendation::DeployFilters { at: filter_sites });
        // Detection: high-degree, non-overlapping vantage points outside
        // the region see attacks the region cannot.
        let region_set: std::collections::HashSet<AsIndex> = region.iter().copied().collect();
        let mut probes: Vec<AsIndex> = topo
            .indices()
            .filter(|ix| !region_set.contains(ix))
            .collect();
        probes.sort_by_key(|&ix| (std::cmp::Reverse(topo.degree(ix)), ix.raw()));
        probes.truncate(8);
        steps.push(Recommendation::UseDetection { probes });
        SecurityPlan {
            target,
            target_asn: topo.id_of(target),
            steps,
        }
    }

    /// Whether the plan recommends re-homing.
    pub fn recommends_rehoming(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, Recommendation::ReduceVulnerability { .. }))
    }
}

impl fmt::Display for SecurityPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "security plan for {}:", self.target_asn)?;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Recommendation::Analysis {
                    depth,
                    providers,
                    gateways,
                } => {
                    write!(f, "  {}. analyze: ", i + 1)?;
                    match depth {
                        Some(d) => write!(f, "depth {d}")?,
                        None => write!(f, "no tier-1 provider chain")?,
                    }
                    writeln!(
                        f,
                        ", {providers} provider(s), {} regional gateway(s)",
                        gateways.len()
                    )?;
                }
                Recommendation::ReduceVulnerability {
                    levels,
                    expected_depth,
                } => writeln!(
                    f,
                    "  {}. reduce vulnerability: re-home {levels} level(s) up (expected depth {expected_depth})",
                    i + 1
                )?,
                Recommendation::PublishOrigins => writeln!(
                    f,
                    "  {}. publish authoritative route origins (ROVER/RPKI)",
                    i + 1
                )?,
                Recommendation::DeployFilters { at } => writeln!(
                    f,
                    "  {}. deploy origin filters at {} site(s), gateways first",
                    i + 1,
                    at.len()
                )?,
                Recommendation::UseDetection { probes } => writeln!(
                    f,
                    "  {}. subscribe to detection; verify coverage via {} suggested probe(s)",
                    i + 1,
                    probes.len()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::gen::{generate, InternetParams};
    use bgpsim_topology::select;

    #[test]
    fn deep_target_gets_rehoming_advice() {
        let net = generate(&InternetParams::small(), 3);
        let depths = DepthMap::to_tier1(&net.topology);
        let deep = select::deepest_stub(&net.topology, &depths).unwrap();
        let region: Vec<AsIndex> = net.topology.indices().collect();
        let plan = SecurityPlan::for_target(&net.topology, deep, &region);
        assert!(plan.recommends_rehoming());
        assert!(plan.steps.len() >= 5);
        let text = plan.to_string();
        assert!(text.contains("re-home"));
        assert!(text.contains("publish"));
    }

    #[test]
    fn shallow_target_skips_rehoming() {
        let net = generate(&InternetParams::small(), 3);
        let depths = DepthMap::to_tier1(&net.topology);
        let shallow =
            select::stub_at_depth(&net.topology, &depths, 1, select::Homing::MultiHomed).unwrap();
        let region: Vec<AsIndex> = net.topology.indices().collect();
        let plan = SecurityPlan::for_target(&net.topology, shallow, &region);
        assert!(!plan.recommends_rehoming());
        assert_eq!(plan.steps.len(), 4);
    }

    #[test]
    fn island_plan_prioritizes_gateways() {
        let net = generate(&InternetParams::small(), 3);
        let region = net.island_region.unwrap();
        let members = net.regions.members(region).to_vec();
        let target = members[members.len() - 1];
        let plan = SecurityPlan::for_target(&net.topology, target, &members);
        let filters = plan
            .steps
            .iter()
            .find_map(|s| match s {
                Recommendation::DeployFilters { at } => Some(at.clone()),
                _ => None,
            })
            .expect("plan includes filters");
        // The hub gateway leads the suggested filter sites.
        assert!(filters.contains(&net.island_gateways[0]));
    }
}
