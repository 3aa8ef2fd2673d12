//! Incremental deployment strategies for origin-validation filters (§V).
//!
//! The paper compares a progression of deployments: random transit ASes
//! (100, 500), the 17 tier-1 ASes, and degree cohorts (62 ASes ≥ 500, 124
//! ≥ 300, 166 ≥ 200, 299 ≥ 100). [`DeploymentStrategy`] reproduces each as
//! a function of the topology, so the same experiment runs on any graph.

use core::fmt;

use bgpsim_topology::{select, AsIndex, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::Defense;

/// A rule choosing which ASes deploy route-origin validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentStrategy {
    /// Nobody filters (the baseline).
    None,
    /// `count` transit ASes chosen uniformly at random (seeded) — "various
    /// random ASes are motivated to deploy BGP security on their own".
    RandomTransit {
        /// Number of transit ASes to draw.
        count: usize,
        /// RNG seed, so deployments are reproducible.
        seed: u64,
    },
    /// The tier-1 clique ("the tier-1 ASes can act on their own, to
    /// everyone's benefit").
    Tier1,
    /// Every AS with total degree at least the threshold (the paper's 62 /
    /// 124 / 166 / 299 cohorts at thresholds 500 / 300 / 200 / 100).
    DegreeAtLeast(usize),
    /// The `k` highest-degree ASes.
    TopKByDegree(usize),
    /// An explicit deployment (e.g. §VII's single filter at a regional
    /// gateway).
    Custom(Vec<AsIndex>),
    /// Universal deployment (the unreachable ideal the paper measures
    /// against).
    Everyone,
}

impl DeploymentStrategy {
    /// Materializes the deployment set on a topology, in index order
    /// (random draws are seeded and therefore reproducible).
    pub fn select(&self, topo: &Topology) -> Vec<AsIndex> {
        let mut picked = match self {
            DeploymentStrategy::None => Vec::new(),
            DeploymentStrategy::RandomTransit { count, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut transit = topo.transit_ases();
                transit.shuffle(&mut rng);
                transit.truncate(*count);
                transit
            }
            DeploymentStrategy::Tier1 => topo.tier1s(),
            DeploymentStrategy::DegreeAtLeast(k) => select::by_degree_at_least(topo, *k),
            DeploymentStrategy::TopKByDegree(k) => select::top_k_by_degree(topo, *k),
            DeploymentStrategy::Custom(list) => list.clone(),
            DeploymentStrategy::Everyone => topo.indices().collect(),
        };
        picked.sort_unstable();
        picked.dedup();
        picked
    }

    /// Builds the [`Defense`] for this strategy on `topo`.
    pub fn defense(&self, topo: &Topology) -> Defense {
        match self {
            DeploymentStrategy::None => Defense::none(),
            other => Defense::validators(topo, other.select(topo)),
        }
    }

    /// The paper's §V progression, in increasing deployment strength:
    /// baseline, random 100 and 500, tier-1, then the four degree cohorts.
    pub fn paper_progression(seed: u64) -> Vec<DeploymentStrategy> {
        vec![
            DeploymentStrategy::None,
            DeploymentStrategy::RandomTransit { count: 100, seed },
            DeploymentStrategy::RandomTransit { count: 500, seed },
            DeploymentStrategy::Tier1,
            DeploymentStrategy::DegreeAtLeast(500),
            DeploymentStrategy::DegreeAtLeast(300),
            DeploymentStrategy::DegreeAtLeast(200),
            DeploymentStrategy::DegreeAtLeast(100),
        ]
    }

    /// A progression scaled for a reduced-size topology: random counts and
    /// degree thresholds shrink with `scale` (1.0 = paper scale).
    pub fn scaled_progression(seed: u64, scale: f64) -> Vec<DeploymentStrategy> {
        let count = |paper: usize| ((paper as f64 * scale).round() as usize).max(2);
        let deg = |paper: usize| ((paper as f64 * scale.sqrt()).round() as usize).max(4);
        vec![
            DeploymentStrategy::None,
            DeploymentStrategy::RandomTransit {
                count: count(100),
                seed,
            },
            DeploymentStrategy::RandomTransit {
                count: count(500),
                seed,
            },
            DeploymentStrategy::Tier1,
            DeploymentStrategy::DegreeAtLeast(deg(500)),
            DeploymentStrategy::DegreeAtLeast(deg(300)),
            DeploymentStrategy::DegreeAtLeast(deg(200)),
            DeploymentStrategy::DegreeAtLeast(deg(100)),
        ]
    }
}

impl fmt::Display for DeploymentStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentStrategy::None => write!(f, "baseline (no filters)"),
            DeploymentStrategy::RandomTransit { count, .. } => {
                write!(f, "random {count} transit ASes")
            }
            DeploymentStrategy::Tier1 => write!(f, "tier-1 ASes"),
            DeploymentStrategy::DegreeAtLeast(k) => write!(f, "degree >= {k}"),
            DeploymentStrategy::TopKByDegree(k) => write!(f, "top {k} by degree"),
            DeploymentStrategy::Custom(list) => write!(f, "custom ({} ASes)", list.len()),
            DeploymentStrategy::Everyone => write!(f, "everyone"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::gen::{generate, InternetParams};

    fn net() -> bgpsim_topology::gen::GeneratedInternet {
        generate(&InternetParams::tiny(), 5)
    }

    #[test]
    fn random_is_seeded_and_transit_only() {
        let net = net();
        let s = DeploymentStrategy::RandomTransit { count: 10, seed: 3 };
        let a = s.select(&net.topology);
        let b = s.select(&net.topology);
        assert_eq!(a, b, "same seed, same deployment");
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&ix| net.topology.is_transit(ix)));
        let c = DeploymentStrategy::RandomTransit { count: 10, seed: 4 }.select(&net.topology);
        assert_ne!(a, c, "different seed, different deployment");
    }

    #[test]
    fn random_caps_at_transit_count() {
        let net = net();
        let all_transit = net.topology.transit_ases().len();
        let s = DeploymentStrategy::RandomTransit {
            count: 10_000,
            seed: 1,
        };
        assert_eq!(s.select(&net.topology).len(), all_transit);
    }

    #[test]
    fn tier1_and_cohorts() {
        let net = net();
        assert_eq!(
            DeploymentStrategy::Tier1.select(&net.topology).len(),
            net.tier1_count
        );
        let big = DeploymentStrategy::DegreeAtLeast(10).select(&net.topology);
        assert!(!big.is_empty());
        assert!(big.iter().all(|&ix| net.topology.degree(ix) >= 10));
        let top = DeploymentStrategy::TopKByDegree(5).select(&net.topology);
        assert_eq!(top.len(), 5);
    }

    #[test]
    fn everyone_and_none() {
        let net = net();
        assert_eq!(
            DeploymentStrategy::Everyone.select(&net.topology).len(),
            net.topology.num_ases()
        );
        assert!(DeploymentStrategy::None.select(&net.topology).is_empty());
        assert_eq!(
            DeploymentStrategy::None
                .defense(&net.topology)
                .num_validators(),
            0
        );
    }

    #[test]
    fn progressions_grow() {
        let net = net();
        let strategies = DeploymentStrategy::scaled_progression(1, 0.05);
        assert_eq!(strategies.len(), 8);
        // The degree cohorts are nested: lower threshold ⇒ superset.
        let c500 = strategies[4].select(&net.topology);
        let c100 = strategies[7].select(&net.topology);
        assert!(c100.len() >= c500.len());
        for ix in &c500 {
            assert!(c100.contains(ix));
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(
            DeploymentStrategy::DegreeAtLeast(500).to_string(),
            "degree >= 500"
        );
        assert_eq!(DeploymentStrategy::Tier1.to_string(), "tier-1 ASes");
    }
}
