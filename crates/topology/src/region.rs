//! Geographic/administrative regions of the AS graph.
//!
//! Section VII of the paper analyzes the ~187 ASes of the New Zealand
//! region in isolation: regional attack containment, re-homing and gateway
//! filtering are all evaluated by counting compromised ASes *within the
//! region*. Regions here are just labels over the AS set.

use std::collections::HashMap;

use crate::{AsIndex, Topology};

/// Identifier of a region. Values are small and dense, assigned by the
/// generator or by the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub u16);

impl core::fmt::Display for RegionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Assignment of every AS to exactly one region.
#[derive(Debug, Clone)]
pub struct RegionMap {
    regions: Vec<RegionId>,
    members: HashMap<RegionId, Vec<AsIndex>>,
}

impl RegionMap {
    /// Builds a region map from a per-AS label vector.
    ///
    /// # Panics
    ///
    /// Panics if `regions.len() != topo.num_ases()`.
    pub fn from_labels(topo: &Topology, regions: Vec<RegionId>) -> RegionMap {
        assert_eq!(regions.len(), topo.num_ases(), "one region per AS required");
        let mut members: HashMap<RegionId, Vec<AsIndex>> = HashMap::new();
        for (i, &r) in regions.iter().enumerate() {
            members.entry(r).or_default().push(AsIndex::new(i as u32));
        }
        RegionMap { regions, members }
    }

    /// Puts every AS in a single region 0 (useful default).
    pub fn single(topo: &Topology) -> RegionMap {
        RegionMap::from_labels(topo, vec![RegionId(0); topo.num_ases()])
    }

    /// The region of `ix`.
    pub fn region_of(&self, ix: AsIndex) -> RegionId {
        self.regions[ix.usize()]
    }

    /// Members of `region`, in index order (empty if the region is unknown).
    pub fn members(&self, region: RegionId) -> &[AsIndex] {
        self.members.get(&region).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct regions.
    pub fn num_regions(&self) -> usize {
        self.members.len()
    }

    /// All region ids, sorted.
    pub fn region_ids(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self.members.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// ASes *outside* `region`, in index order.
    pub fn non_members(&self, region: RegionId) -> Vec<AsIndex> {
        self.regions
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != region)
            .map(|(i, _)| AsIndex::new(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology_from_triples, AsId, LinkKind::*};

    #[test]
    fn members_partition_the_as_set() {
        let topo = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
        ]);
        let labels = vec![RegionId(0), RegionId(1), RegionId(1), RegionId(0)];
        let map = RegionMap::from_labels(&topo, labels);
        assert_eq!(map.num_regions(), 2);
        assert_eq!(map.members(RegionId(0)).len(), 2);
        assert_eq!(map.members(RegionId(1)).len(), 2);
        assert_eq!(map.non_members(RegionId(0)).len(), 2);
        let ix2 = topo.index_of(AsId::new(2)).unwrap();
        assert_eq!(map.region_of(ix2), RegionId(1));
        assert_eq!(map.region_ids(), vec![RegionId(0), RegionId(1)]);
    }

    #[test]
    fn single_region_covers_everything() {
        let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
        let map = RegionMap::single(&topo);
        assert_eq!(map.num_regions(), 1);
        assert_eq!(map.members(RegionId(0)).len(), 2);
        assert!(map.members(RegionId(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "one region per AS")]
    fn wrong_length_panics() {
        let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
        let _ = RegionMap::from_labels(&topo, vec![RegionId(0)]);
    }
}
