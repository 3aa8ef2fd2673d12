//! Tier classification of autonomous systems.
//!
//! The paper distinguishes tier-1 ASes (the ~17-member provider-free
//! clique), "large tier-2" providers (§IV re-defines depth relative to
//! these), other transit ASes, and stubs.

use crate::metrics::DepthMap;
use crate::{AsIndex, Topology};

/// Coarse tier of an AS in the provider hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierClass {
    /// Member of the provider-free top clique.
    Tier1,
    /// Large transit provider directly below the tier-1s.
    Tier2,
    /// Any other AS selling transit.
    OtherTransit,
    /// An AS with no customers.
    Stub,
}

/// Tunables for [`classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifyConfig {
    /// Minimum total degree for an AS to qualify as tier-2.
    pub tier2_min_degree: usize,
    /// Minimum number of distinct tier-1 providers or peers for an AS to
    /// qualify as tier-2.
    pub tier2_min_tier1_adjacencies: usize,
}

impl Default for ClassifyConfig {
    /// Defaults tuned so that, at the paper's scale, the tier-2 set is "the
    /// large tier-2 providers": degree ≥ 50 and at least two tier-1
    /// adjacencies.
    fn default() -> Self {
        ClassifyConfig {
            tier2_min_degree: 50,
            tier2_min_tier1_adjacencies: 2,
        }
    }
}

/// Per-AS tier labels for a topology.
#[derive(Debug, Clone)]
pub struct Classification {
    classes: Vec<TierClass>,
}

impl Classification {
    /// The tier of `ix`.
    pub fn class(&self, ix: AsIndex) -> TierClass {
        self.classes[ix.usize()]
    }

    /// All ASes with the given tier, in index order.
    pub fn of_class(&self, class: TierClass) -> Vec<AsIndex> {
        self.classes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == class)
            .map(|(i, _)| AsIndex::new(i as u32))
            .collect()
    }

    /// Count of ASes with the given tier.
    pub fn count(&self, class: TierClass) -> usize {
        self.classes.iter().filter(|&&c| c == class).count()
    }

    /// The raw label slice, indexed by dense AS index.
    pub fn as_slice(&self) -> &[TierClass] {
        &self.classes
    }

    /// Seed set for the paper's re-defined depth metric: tier-1 ∪ tier-2.
    pub fn depth_seeds(&self) -> Vec<AsIndex> {
        self.classes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| matches!(c, TierClass::Tier1 | TierClass::Tier2))
            .map(|(i, _)| AsIndex::new(i as u32))
            .collect()
    }
}

/// Classifies every AS.
///
/// Tier-1 membership comes from [`Topology::tier1s`] (declared metadata when
/// available, structural heuristic otherwise). Tier-2 is heuristic: a
/// transit AS, not tier-1, adjacent (as customer or peer) to at least
/// `tier2_min_tier1_adjacencies` tier-1s with total degree at least
/// `tier2_min_degree`.
pub fn classify(topo: &Topology, config: &ClassifyConfig) -> Classification {
    let n = topo.num_ases();
    let mut classes = vec![TierClass::Stub; n];
    let mut is_tier1 = vec![false; n];
    for t in topo.tier1s() {
        is_tier1[t.usize()] = true;
        classes[t.usize()] = TierClass::Tier1;
    }
    for ix in topo.indices() {
        if is_tier1[ix.usize()] {
            continue;
        }
        if topo.is_stub(ix) {
            classes[ix.usize()] = TierClass::Stub;
            continue;
        }
        let tier1_adj = topo
            .providers(ix)
            .chain(topo.peers(ix))
            .filter(|p| is_tier1[p.usize()])
            .count();
        classes[ix.usize()] = if topo.degree(ix) >= config.tier2_min_degree
            && tier1_adj >= config.tier2_min_tier1_adjacencies
        {
            TierClass::Tier2
        } else {
            TierClass::OtherTransit
        };
    }
    Classification { classes }
}

/// Computes the paper's re-defined depth: hops to the nearest tier-1 *or*
/// tier-2 AS (§IV, after figure 3).
pub fn effective_depth(topo: &Topology, classification: &Classification) -> DepthMap {
    DepthMap::compute(topo, classification.depth_seeds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology_from_triples, AsId, LinkKind::*};

    /// Two tier-1s, one fat tier-2 (degree boosted by stub customers), one
    /// small transit, several stubs.
    fn sample() -> Topology {
        let mut triples = vec![
            (1, 2, PeerToPeer),
            (1, 10, ProviderToCustomer),
            (2, 10, ProviderToCustomer),
            (1, 20, ProviderToCustomer),
            (20, 21, ProviderToCustomer),
        ];
        for stub in 100..160 {
            triples.push((10, stub, ProviderToCustomer));
        }
        topology_from_triples(&triples)
    }

    #[test]
    fn classifies_all_four_tiers() {
        let topo = sample();
        let c = classify(&topo, &ClassifyConfig::default());
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        assert_eq!(c.class(ix(1)), TierClass::Tier1);
        assert_eq!(c.class(ix(2)), TierClass::Tier1);
        assert_eq!(c.class(ix(10)), TierClass::Tier2);
        assert_eq!(c.class(ix(20)), TierClass::OtherTransit);
        assert_eq!(c.class(ix(21)), TierClass::Stub);
        assert_eq!(c.class(ix(150)), TierClass::Stub);
    }

    #[test]
    fn counts_and_of_class_agree() {
        let topo = sample();
        let c = classify(&topo, &ClassifyConfig::default());
        for class in [
            TierClass::Tier1,
            TierClass::Tier2,
            TierClass::OtherTransit,
            TierClass::Stub,
        ] {
            assert_eq!(c.count(class), c.of_class(class).len());
        }
        let total: usize = [
            TierClass::Tier1,
            TierClass::Tier2,
            TierClass::OtherTransit,
            TierClass::Stub,
        ]
        .iter()
        .map(|&cl| c.count(cl))
        .sum();
        assert_eq!(total, topo.num_ases());
    }

    #[test]
    fn effective_depth_treats_tier2_as_depth_zero() {
        let topo = sample();
        let c = classify(&topo, &ClassifyConfig::default());
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        let d = effective_depth(&topo, &c);
        // Stub under the fat tier-2 is depth 1, not 2.
        assert_eq!(d.depth(ix(150)), Some(1));
        assert_eq!(d.depth(ix(10)), Some(0));
        // Stub under the small transit is still depth 2.
        assert_eq!(d.depth(ix(21)), Some(2));
    }

    #[test]
    fn single_homed_small_transit_is_not_tier2() {
        let topo = sample();
        let c = classify(
            &topo,
            &ClassifyConfig {
                tier2_min_degree: 2,
                tier2_min_tier1_adjacencies: 2,
            },
        );
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        // AS20 has only one tier-1 adjacency.
        assert_eq!(c.class(ix(20)), TierClass::OtherTransit);
    }
}
