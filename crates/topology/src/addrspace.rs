//! Per-AS address-space weights.
//!
//! Figure 1 of the paper reports that a single attack left "96% of the IP
//! address space" unable to reach the target: pollution is weighted by how
//! much address space each polluted AS originates, not just counted. This
//! module carries those weights (in /24-equivalents, the finest unit that
//! commonly appears in the global table).

use crate::{AsIndex, Topology};

/// Address space originated by each AS, in /24-equivalent units.
///
/// # Examples
///
/// ```
/// use bgpsim_topology::{topology_from_triples, AddressSpace, LinkKind::*};
///
/// let topo = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
/// let space = AddressSpace::uniform(&topo, 4);
/// assert_eq!(space.total(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    weights: Vec<u64>,
    total: u64,
}

impl AddressSpace {
    /// Builds an address-space map from explicit per-AS weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != topo.num_ases()`.
    pub fn from_weights(topo: &Topology, weights: Vec<u64>) -> AddressSpace {
        assert_eq!(weights.len(), topo.num_ases(), "one weight per AS required");
        let total = weights.iter().sum();
        AddressSpace { weights, total }
    }

    /// Gives every AS the same weight.
    pub fn uniform(topo: &Topology, weight: u64) -> AddressSpace {
        AddressSpace {
            weights: vec![weight; topo.num_ases()],
            total: weight * topo.num_ases() as u64,
        }
    }

    /// Weight of a single AS.
    pub fn weight(&self, ix: AsIndex) -> u64 {
        self.weights[ix.usize()]
    }

    /// Total address space across all ASes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of total address space held by the given set.
    ///
    /// Returns 0.0 for an empty universe.
    pub fn fraction_of<I>(&self, ases: I) -> f64
    where
        I: IntoIterator<Item = AsIndex>,
    {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = ases.into_iter().map(|ix| self.weight(ix)).sum();
        sum as f64 / self.total as f64
    }

    /// The raw weight slice, indexed by dense AS index.
    pub fn as_slice(&self) -> &[u64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology_from_triples, AsId, LinkKind::*};

    #[test]
    fn fraction_of_subset() {
        let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (1, 3, PeerToPeer)]);
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        let space = AddressSpace::from_weights(&topo, vec![6, 3, 1]);
        assert_eq!(space.total(), 10);
        assert!((space.fraction_of([ix(2), ix(3)]) - 0.4).abs() < 1e-12);
        assert_eq!(space.weight(ix(1)), 6);
    }

    #[test]
    #[should_panic(expected = "one weight per AS")]
    fn wrong_length_panics() {
        let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
        let _ = AddressSpace::from_weights(&topo, vec![1]);
    }

    #[test]
    fn zero_total_fraction_is_zero() {
        let topo = topology_from_triples(&[(1, 2, PeerToPeer)]);
        let space = AddressSpace::uniform(&topo, 0);
        let all: Vec<_> = topo.indices().collect();
        assert_eq!(space.fraction_of(all), 0.0);
    }
}
