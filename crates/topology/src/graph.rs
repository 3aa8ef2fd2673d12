//! The immutable AS-level topology graph.

use std::collections::HashMap;

use crate::{AsId, AsIndex, LinkKind, Relationship, TopologyBuilder};

/// One entry of an AS's neighbor list: the neighbor's dense index plus the
/// relationship *of that neighbor from the owning AS's perspective*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// Dense index of the neighboring AS.
    pub index: AsIndex,
    /// The neighbor's role relative to the owner (e.g. `Customer` means the
    /// neighbor buys transit from the owner).
    pub rel: Relationship,
}

/// An immutable AS-level Internet topology.
///
/// Stores the relationship graph in compressed-sparse-row (CSR) form with
/// each AS's neighbor list sorted by relationship class (customers, peers,
/// providers, siblings) and then by index, so iteration order — and
/// therefore every simulation built on top — is deterministic.
///
/// Construct via [`TopologyBuilder`], [`crate::parser::from_caida_str`], or
/// the synthetic generator in [`crate::gen`].
///
/// # Examples
///
/// ```
/// use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*, Relationship};
///
/// let topo = topology_from_triples(&[
///     (1, 2, ProviderToCustomer),
///     (1, 3, ProviderToCustomer),
///     (2, 3, PeerToPeer),
/// ]);
/// let a1 = topo.index_of(AsId::new(1)).unwrap();
/// assert_eq!(topo.customers(a1).count(), 2);
/// assert_eq!(topo.degree(a1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    ids: Vec<AsId>,
    index_of: HashMap<AsId, u32>,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Flattened neighbor lists, sorted by `(rel.order(), index)` per AS.
    nbrs: Vec<Neighbor>,
    /// Per-AS boundaries inside its neighbor slice: end of customers, end of
    /// peers, end of providers (end of siblings is the slice end).
    cuts: Vec<[u32; 3]>,
    /// Sibling-group id per AS (singleton groups for AS with no siblings).
    sibling_group: Vec<u32>,
    num_sibling_groups: u32,
    /// Declared tier-1 set (may be empty; see [`Topology::tier1s`]).
    tier1: Vec<AsIndex>,
    num_links: usize,
    links_p2c: usize,
    links_p2p: usize,
    links_s2s: usize,
}

impl Topology {
    pub(crate) fn from_parts(
        ids: Vec<AsId>,
        index_of: HashMap<AsId, u32>,
        links: Vec<(u32, u32, LinkKind)>,
        mut declared_tier1: Vec<u32>,
    ) -> Topology {
        let n = ids.len();
        let mut degree = vec![0u32; n];
        for &(a, b, _) in &links {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut nbrs = vec![
            Neighbor {
                index: AsIndex::new(0),
                rel: Relationship::Customer
            };
            offsets[n] as usize
        ];
        let mut fill = offsets.clone();
        let mut links_p2c = 0;
        let mut links_p2p = 0;
        let mut links_s2s = 0;
        for &(a, b, kind) in &links {
            match kind {
                LinkKind::ProviderToCustomer => links_p2c += 1,
                LinkKind::PeerToPeer => links_p2p += 1,
                LinkKind::SiblingToSibling => links_s2s += 1,
            }
            nbrs[fill[a as usize] as usize] = Neighbor {
                index: AsIndex::new(b),
                rel: kind.rel_at_a(),
            };
            fill[a as usize] += 1;
            nbrs[fill[b as usize] as usize] = Neighbor {
                index: AsIndex::new(a),
                rel: kind.rel_at_b(),
            };
            fill[b as usize] += 1;
        }
        // Sort each AS's slice by (relationship class, neighbor index) and
        // record the class boundaries.
        let mut cuts = vec![[0u32; 3]; n];
        for i in 0..n {
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            let slice = &mut nbrs[lo..hi];
            slice.sort_unstable_by_key(|nb| (nb.rel.order(), nb.index.raw()));
            let cut_of = |class_end: u8, slice: &[Neighbor]| -> u32 {
                (lo + slice.partition_point(|nb| nb.rel.order() < class_end)) as u32
            };
            cuts[i] = [cut_of(1, slice), cut_of(2, slice), cut_of(3, slice)];
        }
        // Sibling groups via union-find over sibling links.
        let mut uf: Vec<u32> = (0..n as u32).collect();
        fn find(uf: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while uf[root as usize] != root {
                root = uf[root as usize];
            }
            let mut cur = x;
            while uf[cur as usize] != root {
                let next = uf[cur as usize];
                uf[cur as usize] = root;
                cur = next;
            }
            root
        }
        for &(a, b, kind) in &links {
            if kind == LinkKind::SiblingToSibling {
                let (ra, rb) = (find(&mut uf, a), find(&mut uf, b));
                if ra != rb {
                    // Deterministic union: smaller root wins.
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    uf[hi as usize] = lo;
                }
            }
        }
        // Compact group ids in index order.
        let mut sibling_group = vec![u32::MAX; n];
        let mut next_group = 0u32;
        for i in 0..n as u32 {
            let root = find(&mut uf, i) as usize;
            if sibling_group[root] == u32::MAX {
                sibling_group[root] = next_group;
                next_group += 1;
            }
            sibling_group[i as usize] = sibling_group[root];
        }
        declared_tier1.sort_unstable();
        declared_tier1.dedup();
        Topology {
            ids,
            index_of,
            offsets,
            nbrs,
            cuts,
            sibling_group,
            num_sibling_groups: next_group,
            tier1: declared_tier1.into_iter().map(AsIndex::new).collect(),
            num_links: links.len(),
            links_p2c,
            links_p2p,
            links_s2s,
        }
    }

    /// Number of autonomous systems.
    pub fn num_ases(&self) -> usize {
        self.ids.len()
    }

    /// Number of inter-AS links (each counted once).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of provider-to-customer links.
    pub fn num_p2c_links(&self) -> usize {
        self.links_p2c
    }

    /// Number of peer-to-peer links.
    pub fn num_p2p_links(&self) -> usize {
        self.links_p2p
    }

    /// Number of sibling links.
    pub fn num_s2s_links(&self) -> usize {
        self.links_s2s
    }

    /// The ASN living at dense index `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of range for this topology.
    pub fn id_of(&self, ix: AsIndex) -> AsId {
        self.ids[ix.usize()]
    }

    /// Dense index of `asn`, or `None` if the AS is not in this topology.
    pub fn index_of(&self, asn: AsId) -> Option<AsIndex> {
        self.index_of.get(&asn).map(|&i| AsIndex::new(i))
    }

    /// Iterates over all dense indices, in order.
    pub fn indices(&self) -> impl ExactSizeIterator<Item = AsIndex> + Clone + '_ {
        (0..self.ids.len() as u32).map(AsIndex::new)
    }

    /// Iterates over all ASNs in dense-index order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = AsId> + Clone + '_ {
        self.ids.iter().copied()
    }

    /// Full neighbor list of `ix`, sorted by relationship class then index.
    pub fn neighbors(&self, ix: AsIndex) -> &[Neighbor] {
        let i = ix.usize();
        &self.nbrs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn class_slice(&self, ix: AsIndex, class: Relationship) -> &[Neighbor] {
        let i = ix.usize();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        let c = &self.cuts[i];
        let (s, e) = match class {
            Relationship::Customer => (lo, c[0] as usize),
            Relationship::Peer => (c[0] as usize, c[1] as usize),
            Relationship::Provider => (c[1] as usize, c[2] as usize),
            Relationship::Sibling => (c[2] as usize, hi),
        };
        &self.nbrs[s..e]
    }

    /// Relationship-class boundaries inside [`Topology::neighbors`]`(ix)`:
    /// customers occupy `[0, b[0])`, peers `[b[0], b[1])`, providers
    /// `[b[1], b[2])` and siblings `[b[2], degree)`. Lets hot loops walk
    /// only the classes a valley-free export may reach, without a
    /// per-edge relationship test.
    pub fn class_bounds(&self, ix: AsIndex) -> [usize; 3] {
        let i = ix.usize();
        let lo = self.offsets[i] as usize;
        let c = self.cuts[i];
        [c[0] as usize - lo, c[1] as usize - lo, c[2] as usize - lo]
    }

    /// The customers of `ix` (ASes buying transit from it).
    pub fn customers(&self, ix: AsIndex) -> impl ExactSizeIterator<Item = AsIndex> + Clone + '_ {
        self.class_slice(ix, Relationship::Customer)
            .iter()
            .map(|nb| nb.index)
    }

    /// The settlement-free peers of `ix`.
    pub fn peers(&self, ix: AsIndex) -> impl ExactSizeIterator<Item = AsIndex> + Clone + '_ {
        self.class_slice(ix, Relationship::Peer)
            .iter()
            .map(|nb| nb.index)
    }

    /// The transit providers of `ix`.
    pub fn providers(&self, ix: AsIndex) -> impl ExactSizeIterator<Item = AsIndex> + Clone + '_ {
        self.class_slice(ix, Relationship::Provider)
            .iter()
            .map(|nb| nb.index)
    }

    /// The siblings of `ix` (same organization).
    pub fn siblings(&self, ix: AsIndex) -> impl ExactSizeIterator<Item = AsIndex> + Clone + '_ {
        self.class_slice(ix, Relationship::Sibling)
            .iter()
            .map(|nb| nb.index)
    }

    /// Total number of neighbors of `ix` across all relationship classes.
    pub fn degree(&self, ix: AsIndex) -> usize {
        self.neighbors(ix).len()
    }

    /// Number of customers of `ix`.
    pub fn num_customers(&self, ix: AsIndex) -> usize {
        self.class_slice(ix, Relationship::Customer).len()
    }

    /// Number of providers of `ix`.
    pub fn num_providers(&self, ix: AsIndex) -> usize {
        self.class_slice(ix, Relationship::Provider).len()
    }

    /// Number of peers of `ix`.
    pub fn num_peers(&self, ix: AsIndex) -> usize {
        self.class_slice(ix, Relationship::Peer).len()
    }

    /// Whether `ix` sells transit to at least one customer.
    pub fn is_transit(&self, ix: AsIndex) -> bool {
        self.num_customers(ix) > 0
    }

    /// Whether `ix` is a stub (no customers).
    pub fn is_stub(&self, ix: AsIndex) -> bool {
        !self.is_transit(ix)
    }

    /// The sibling-group id of `ix`. ASes in the same organization share a
    /// group id; ASes without sibling links form singleton groups.
    pub fn sibling_group(&self, ix: AsIndex) -> u32 {
        self.sibling_group[ix.usize()]
    }

    /// Number of distinct sibling groups (equals `num_ases` when there are
    /// no sibling links).
    pub fn num_sibling_groups(&self) -> usize {
        self.num_sibling_groups as usize
    }

    /// Whether `a` and `b` belong to the same organization.
    pub fn same_organization(&self, a: AsIndex, b: AsIndex) -> bool {
        self.sibling_group(a) == self.sibling_group(b)
    }

    /// The tier-1 set.
    ///
    /// If the topology was built with declared tier-1 metadata (the
    /// synthetic generator always declares its clique), that set is
    /// returned. Otherwise a structural heuristic is used: every AS with no
    /// providers and at least one customer or peer. The heuristic is
    /// computed on each call; cache the result if used in a loop.
    pub fn tier1s(&self) -> Vec<AsIndex> {
        if !self.tier1.is_empty() {
            return self.tier1.clone();
        }
        self.indices()
            .filter(|&ix| {
                self.num_providers(ix) == 0
                    && (self.num_customers(ix) > 0 || self.num_peers(ix) > 0)
            })
            .collect()
    }

    /// Whether tier-1 membership was declared explicitly at build time.
    pub fn has_declared_tier1(&self) -> bool {
        !self.tier1.is_empty()
    }

    /// All transit ASes (at least one customer), in index order.
    pub fn transit_ases(&self) -> Vec<AsIndex> {
        self.indices().filter(|&ix| self.is_transit(ix)).collect()
    }

    /// All stub ASes (no customers), in index order.
    pub fn stub_ases(&self) -> Vec<AsIndex> {
        self.indices().filter(|&ix| self.is_stub(ix)).collect()
    }

    /// Reconstructs a [`TopologyBuilder`] holding the same ASes and links,
    /// for topology surgery (e.g. the re-homing experiments of §VII).
    ///
    /// Each link is emitted once, from the endpoint with the smaller dense
    /// index, so rebuilding yields identical indices for all original ASes.
    pub fn to_builder(&self) -> TopologyBuilder {
        let mut b = TopologyBuilder::with_capacity(self.num_ases(), self.num_links());
        for asn in self.ids() {
            b.add_as(asn);
        }
        for ix in self.indices() {
            for nb in self.neighbors(ix) {
                if nb.index.raw() > ix.raw() || nb.rel == Relationship::Customer {
                    // Emit from the canonical side exactly once: for
                    // asymmetric links the provider side emits; for
                    // symmetric links the smaller index emits.
                    let kind = match nb.rel {
                        Relationship::Customer => LinkKind::ProviderToCustomer,
                        Relationship::Peer => LinkKind::PeerToPeer,
                        Relationship::Sibling => LinkKind::SiblingToSibling,
                        Relationship::Provider => continue,
                    };
                    if kind != LinkKind::ProviderToCustomer && nb.index.raw() < ix.raw() {
                        continue;
                    }
                    let _ = b.add_link(self.id_of(ix), self.id_of(nb.index), kind);
                }
            }
        }
        for &t in &self.tier1 {
            b.declare_tier1(self.id_of(t));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology_from_triples, LinkKind::*};

    fn diamond() -> Topology {
        // 1 and 2 are tier-1-like peers; 3 buys from both; 4 buys from 3.
        topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
        ])
    }

    #[test]
    fn class_slices_partition_neighbors() {
        let t = diamond();
        for ix in t.indices() {
            let total = t.degree(ix);
            let parts = t.customers(ix).count()
                + t.peers(ix).count()
                + t.providers(ix).count()
                + t.siblings(ix).count();
            assert_eq!(total, parts);
        }
    }

    #[test]
    fn relationship_views_are_symmetric() {
        let t = diamond();
        let i1 = t.index_of(AsId::new(1)).unwrap();
        let i3 = t.index_of(AsId::new(3)).unwrap();
        assert!(t.customers(i1).any(|c| c == i3));
        assert!(t.providers(i3).any(|p| p == i1));
    }

    #[test]
    fn neighbor_lists_sorted_by_class_then_index() {
        let t = diamond();
        for ix in t.indices() {
            let ns = t.neighbors(ix);
            for w in ns.windows(2) {
                assert!(
                    (w[0].rel.order(), w[0].index.raw()) < (w[1].rel.order(), w[1].index.raw())
                );
            }
        }
    }

    #[test]
    fn transit_and_stub_classification() {
        let t = diamond();
        let i3 = t.index_of(AsId::new(3)).unwrap();
        let i4 = t.index_of(AsId::new(4)).unwrap();
        assert!(t.is_transit(i3));
        assert!(t.is_stub(i4));
        assert_eq!(t.transit_ases().len(), 3);
        assert_eq!(t.stub_ases().len(), 1);
    }

    #[test]
    fn tier1_heuristic_finds_provider_free_ases() {
        let t = diamond();
        assert!(!t.has_declared_tier1());
        let t1: Vec<_> = t.tier1s().iter().map(|&ix| t.id_of(ix)).collect();
        assert_eq!(t1, vec![AsId::new(1), AsId::new(2)]);
    }

    #[test]
    fn declared_tier1_wins_over_heuristic() {
        let mut b = TopologyBuilder::new();
        b.add_link(AsId::new(1), AsId::new(2), ProviderToCustomer)
            .unwrap();
        b.declare_tier1(AsId::new(1));
        let t = b.build().unwrap();
        assert!(t.has_declared_tier1());
        assert_eq!(t.tier1s().len(), 1);
    }

    #[test]
    fn sibling_groups_union_transitively() {
        let t = topology_from_triples(&[
            (1, 2, SiblingToSibling),
            (2, 3, SiblingToSibling),
            (4, 5, PeerToPeer),
        ]);
        let ix = |n| t.index_of(AsId::new(n)).unwrap();
        assert!(t.same_organization(ix(1), ix(3)));
        assert!(!t.same_organization(ix(1), ix(4)));
        assert_eq!(t.num_sibling_groups(), 3); // {1,2,3}, {4}, {5}
    }

    #[test]
    fn link_kind_counts() {
        let t = diamond();
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.num_p2c_links(), 3);
        assert_eq!(t.num_p2p_links(), 1);
        assert_eq!(t.num_s2s_links(), 0);
    }

    #[test]
    fn to_builder_roundtrip_preserves_structure() {
        let t = topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (4, 5, SiblingToSibling),
        ]);
        let t2 = t.to_builder().build().unwrap();
        assert_eq!(t2.num_ases(), t.num_ases());
        assert_eq!(t2.num_links(), t.num_links());
        assert_eq!(t2.num_p2c_links(), t.num_p2c_links());
        assert_eq!(t2.num_p2p_links(), t.num_p2p_links());
        assert_eq!(t2.num_s2s_links(), t.num_s2s_links());
        for ix in t.indices() {
            assert_eq!(t.id_of(ix), t2.id_of(ix));
            assert_eq!(t.neighbors(ix), t2.neighbors(ix));
        }
    }

    #[test]
    fn index_of_unknown_is_none() {
        let t = diamond();
        assert!(t.index_of(AsId::new(999)).is_none());
    }
}
