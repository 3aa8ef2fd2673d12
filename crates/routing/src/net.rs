//! Precomputed simulation view of a topology.
//!
//! Propagation engines address neighbors through the topology's CSR arrays
//! and need two extra lookups on the hot path: the *reverse slot* of every
//! directed edge (where the receiver stores its Adj-RIB-In entry for the
//! sender) and a tier-1 membership mask. [`SimNet`] computes both once so
//! thousands of simulations can share them, together with the race
//! solver's tables: a core adjacency its passes walk, with every edge
//! into a leaf dropped, and a leaf-major in-edge stream its read-out
//! pulls leaf selections from, addressed by feeder ids.

use bgpsim_topology::{AsIndex, Relationship, Topology};

/// Flag ORed into a leaf in-edge word ([`SimNet::leaf_in`]) when the
/// sender is the leaf's peer rather than its provider.
pub(crate) const LEAF_IN_PEER: u32 = 1 << 31;

/// Flag ORed into the last in-edge word of each leaf's row, so one flat
/// pass over [`SimNet::leaf_in`] knows where every row ends.
pub(crate) const LEAF_ROW_END: u32 = 1 << 30;

/// The feeder-id field of a leaf in-edge word: everything below the two
/// flag bits.
pub(crate) const FEEDER_MASK: u32 = LEAF_ROW_END - 1;

/// A topology plus the derived tables the engines need. Build once, share
/// across simulations (it is `Sync`; parallel sweeps borrow it).
#[derive(Debug)]
pub struct SimNet<'t> {
    topo: &'t Topology,
    /// For the directed edge stored at global CSR slot `e` (owner → nbr),
    /// the global CSR slot of the mirror edge (nbr → owner).
    reverse_slot: Vec<u32>,
    /// Global CSR slot of the first neighbor of each AS (length `n + 1`).
    offsets: Vec<u32>,
    /// Tier-1 membership mask.
    tier1: Vec<bool>,
    /// Tier-1 members in index order (the mask, materialized once so the
    /// race solver's per-run setup is O(|tier-1|), not O(n)).
    tier1_list: Vec<AsIndex>,
    /// Sibling-group id per AS.
    group: Vec<u32>,
    /// Whether no tier-1 has a provider or a sibling (see
    /// [`SimNet::tier1s_stand_alone`]).
    tier1s_stand_alone: bool,
    /// Every peering between two tier-1s, once per direction, as
    /// `[sender, receiver, receiver-side slot]`.
    tier1_peerings: Vec<[u32; 3]>,
    /// Stub mask (no customers), used by defensive stub filtering.
    stub: Vec<bool>,
    /// Leaf mask: no customers, no siblings, not a tier-1 (see
    /// [`SimNet::is_leaf`]).
    leaf: Vec<bool>,
    /// The race solver's pass adjacency: per AS, every neighbor that is not
    /// a leaf, in neighbor-list order, packed as the receiver's dense index
    /// in the low 32 bits and the mirror slot ([`SimNet::reverse_slot`])
    /// in the high 32. One sequential 8-byte load per edge, and no edge
    /// into a leaf: passes never offer a route to one.
    core_adj: Vec<u64>,
    /// Per AS, where its four relationship-class segments (customers,
    /// peers, providers, siblings) start in `core_adj`; one sentinel entry
    /// past the last AS ends the last sibling segment (length `n + 1`).
    core_cuts: Vec<[u32; 4]>,
    /// Feeder id → AS index: every AS with an edge into a leaf gets one.
    /// All non-leaves come first, in index order (so a dense per-feeder
    /// table's first `n - leaves` entries cover every non-leaf), then the
    /// leaves that peer with a leaf, in index order.
    feeders: Vec<u32>,
    /// Leaf-major in-edge stream: per leaf in ascending index order, one
    /// word per peer and provider in neighbor-list order, packed as the
    /// sender's feeder id, [`LEAF_IN_PEER`] for a peer, and
    /// [`LEAF_ROW_END`] on the row's last word. A leaf's row is its
    /// neighbor list, so the word at row position `j` is the edge the leaf
    /// stores at slot `slots_of(leaf).start + j`.
    leaf_in: Vec<u32>,
    /// Per leaf, ascending: its index and where its words in `leaf_in`
    /// end (they start where the previous leaf's end).
    leaf_rows: Vec<(u32, u32)>,
    /// Owner of each global slot — the O(1) inverse of [`SimNet::slots_of`].
    /// The delta engine's packed baseline log stores only the receiver-side
    /// slot per message and derives sender/receiver through this table, so
    /// it must be constant-time on the replay hot path (unlike the binary
    /// search in [`SimNet::owner_of_slot`], which this table now backs).
    slot_owner: Vec<u32>,
}

/// Converts a structural size to the `u32` index space every packed table
/// uses, with a loud failure instead of a silent wrap when a topology or
/// schedule outgrows it.
///
/// # Panics
///
/// Panics with a "scale exceeds u32 index space" message naming `what`.
pub(crate) fn checked_u32(v: usize, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("scale exceeds u32 index space: {what} = {v}"))
}

/// Converts a feeder number to the id a leaf in-edge word carries, with a
/// loud failure instead of a collision with the flag bits when a topology
/// outgrows the field.
///
/// # Panics
///
/// Panics with a "scale exceeds the leaf in-edge feeder id space"
/// message when `k` does not fit below [`LEAF_ROW_END`].
fn checked_feeder(k: usize) -> u32 {
    match u32::try_from(k) {
        Ok(id) if id <= FEEDER_MASK => id,
        _ => panic!("scale exceeds the leaf in-edge feeder id space (2^30): feeder id = {k}"),
    }
}

/// Where `rel` sits in a neighbor list's class order (customers, peers,
/// providers, siblings), spelled out rather than read off
/// [`Relationship`]'s declaration order.
fn class_rank(rel: Relationship) -> usize {
    match rel {
        Relationship::Customer => 0,
        Relationship::Peer => 1,
        Relationship::Provider => 2,
        Relationship::Sibling => 3,
    }
}

/// The mirror slot of every directed edge, in one sequential pass over
/// the slots.
///
/// A neighbor list is sorted by (class, index) and a pair of ASes shares
/// at most one link, so `x`'s class-`c` segment lists the ASes that see
/// `x` as `c.reversed()` in ascending index order. Visiting owners in
/// index order therefore meets the entries of each segment in order, and
/// one cursor per AS and class, advanced on every visit, is the mirror
/// slot.
fn reverse_slots(topo: &Topology, offsets: &[u32], total: usize) -> Vec<u32> {
    let mut cursor: Vec<[u32; 4]> = topo
        .indices()
        .map(|ix| {
            let base = offsets[ix.usize()];
            let b = topo.class_bounds(ix).map(|k| base + k as u32);
            [base, b[0], b[1], b[2]]
        })
        .collect();
    let mut reverse_slot = Vec::with_capacity(total);
    for ix in topo.indices() {
        for nb in topo.neighbors(ix) {
            let next = &mut cursor[nb.index.usize()][class_rank(nb.rel.reversed())];
            debug_assert_eq!(
                topo.neighbors(nb.index)[(*next - offsets[nb.index.usize()]) as usize],
                bgpsim_topology::Neighbor {
                    index: ix,
                    rel: nb.rel.reversed()
                },
                "adjacency is symmetric"
            );
            reverse_slot.push(*next);
            *next += 1;
        }
    }
    reverse_slot
}

impl<'t> SimNet<'t> {
    /// Builds the derived tables. `O(n + m)`.
    pub fn new(topo: &'t Topology) -> SimNet<'t> {
        let n = topo.num_ases();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut running = 0usize;
        for ix in topo.indices() {
            running += topo.degree(ix);
            offsets.push(checked_u32(running, "directed edge slots"));
        }
        let total = *offsets.last().expect("non-empty") as usize;
        let reverse_slot = reverse_slots(topo, &offsets, total);
        let mut tier1 = vec![false; n];
        let mut tier1_list = topo.tier1s();
        tier1_list.sort_unstable();
        for &t in &tier1_list {
            tier1[t.usize()] = true;
        }
        let group: Vec<u32> = topo.indices().map(|ix| topo.sibling_group(ix)).collect();
        // Neighbor lists run customers, peers, providers, siblings: a
        // tier-1 stands alone when its peers end its list.
        let tier1s_stand_alone = tier1_list
            .iter()
            .all(|&t| topo.class_bounds(t)[1] == topo.degree(t));
        let mut tier1_peerings = Vec::new();
        for &t in &tier1_list {
            let base = offsets[t.usize()];
            for (j, nb) in topo.neighbors(t).iter().enumerate() {
                if nb.rel == Relationship::Peer && tier1[nb.index.usize()] {
                    let slot = reverse_slot[base as usize + j];
                    tier1_peerings.push([t.raw(), nb.index.raw(), slot]);
                }
            }
        }
        let stub = topo.indices().map(|ix| topo.is_stub(ix)).collect();
        // Leaf = no customers, no siblings, not a tier-1: exports
        // peer-/provider-learned routes to nobody. Tier-1s are excluded
        // even at matching degree shape: the race solver treats them as
        // fixed-point variables (candidacy tallies, sentinel stamps).
        let leaf: Vec<bool> = topo
            .indices()
            .map(|ix| {
                let b = topo.class_bounds(ix);
                b[0] == 0 && b[2] == topo.degree(ix) && !tier1[ix.usize()]
            })
            .collect();
        let leaves = topo.indices().filter(|ix| leaf[ix.usize()]);
        let leaf_edges: usize = leaves.clone().map(|ix| topo.degree(ix)).sum();
        // Feeders: the non-leaves, then the leaves that peer with a leaf
        // (a leaf offers a route to nobody else).
        let peers_a_leaf = |ix: AsIndex| {
            let nbrs = topo.neighbors(ix);
            let b = topo.class_bounds(ix);
            nbrs[b[0]..b[1]].iter().any(|nb| leaf[nb.index.usize()])
        };
        let mut feeders: Vec<u32> = topo
            .indices()
            .filter(|ix| !leaf[ix.usize()])
            .chain(leaves.clone().filter(|&ix| peers_a_leaf(ix)))
            .map(AsIndex::raw)
            .collect();
        feeders.shrink_to_fit();
        let mut feeder_of = vec![u32::MAX; n];
        for (k, &x) in feeders.iter().enumerate() {
            feeder_of[x as usize] = checked_feeder(k);
        }
        let mut slot_owner = Vec::with_capacity(total);
        let mut core_adj = Vec::with_capacity(total - leaf_edges);
        let mut core_cuts = Vec::with_capacity(n + 1);
        let mut leaf_in = Vec::with_capacity(leaf_edges);
        let mut leaf_rows = Vec::with_capacity(leaves.count());
        for ix in topo.indices() {
            let base = offsets[ix.usize()];
            let nbrs = topo.neighbors(ix);
            slot_owner.extend(std::iter::repeat_n(ix.raw(), nbrs.len()));
            let b = topo.class_bounds(ix);
            let mut cuts = [0u32; 4];
            for (k, segment) in [0..b[0], b[0]..b[1], b[1]..b[2], b[2]..nbrs.len()]
                .into_iter()
                .enumerate()
            {
                cuts[k] = checked_u32(core_adj.len(), "core adjacency entries");
                for j in segment.filter(|&j| !leaf[nbrs[j].index.usize()]) {
                    let mirror = reverse_slot[base as usize + j];
                    core_adj.push(u64::from(nbrs[j].index.raw()) | (u64::from(mirror) << 32));
                }
            }
            core_cuts.push(cuts);
            if leaf[ix.usize()] {
                // A leaf's neighbors are its peers, then its providers.
                for nb in nbrs {
                    let peer = if nb.rel == Relationship::Peer {
                        LEAF_IN_PEER
                    } else {
                        0
                    };
                    leaf_in.push(feeder_of[nb.index.usize()] | peer);
                }
                if let Some(last) = leaf_in.last_mut() {
                    *last |= LEAF_ROW_END;
                }
                leaf_rows.push((ix.raw(), checked_u32(leaf_in.len(), "leaf in-edges")));
            }
        }
        core_cuts.push([checked_u32(core_adj.len(), "core adjacency entries"); 4]);
        SimNet {
            topo,
            reverse_slot,
            offsets,
            tier1,
            tier1_list,
            group,
            tier1s_stand_alone,
            tier1_peerings,
            stub,
            leaf,
            core_adj,
            core_cuts,
            feeders,
            leaf_in,
            leaf_rows,
            slot_owner,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Number of ASes.
    pub fn num_ases(&self) -> usize {
        self.topo.num_ases()
    }

    /// Total number of directed edge slots (`2 × num_links`).
    pub fn num_slots(&self) -> usize {
        self.reverse_slot.len()
    }

    /// Global CSR slot range of `ix`'s neighbor list.
    #[inline]
    pub fn slots_of(&self, ix: AsIndex) -> std::ops::Range<u32> {
        self.offsets[ix.usize()]..self.offsets[ix.usize() + 1]
    }

    /// The neighbor stored at `ix`'s local position `j`.
    #[inline]
    pub fn neighbor(&self, ix: AsIndex, j: usize) -> bgpsim_topology::Neighbor {
        self.topo.neighbors(ix)[j]
    }

    /// Mirror slot of the directed edge at global slot `e`.
    #[inline]
    pub fn reverse_slot(&self, e: u32) -> u32 {
        self.reverse_slot[e as usize]
    }

    /// The race solver's pass adjacency: every edge into a non-leaf,
    /// packed as receiver index | mirror slot << 32 (see
    /// [`SimNet::core_segments`]).
    #[inline]
    pub(crate) fn core_adj(&self) -> &[u64] {
        &self.core_adj
    }

    /// Boundaries of `x`'s customer, peer, provider and sibling segments
    /// in [`SimNet::core_adj`]: segment `k` is `cuts[k]..cuts[k + 1]`.
    #[inline]
    pub(crate) fn core_segments(&self, x: usize) -> [u32; 5] {
        let [c, p, v, s] = self.core_cuts[x];
        [c, p, v, s, self.core_cuts[x + 1][0]]
    }

    /// Feeder id → AS index ([`SimNet::leaf_in`]'s sender ids): every
    /// non-leaf in index order, then every leaf that peers with a leaf.
    #[inline]
    pub(crate) fn feeders(&self) -> &[u32] {
        &self.feeders
    }

    /// How many feeders are non-leaves: [`SimNet::feeders`]'s prefix of
    /// that length is every non-leaf, in index order.
    #[inline]
    pub(crate) fn core_feeders(&self) -> usize {
        self.num_ases() - self.leaf_rows.len()
    }

    /// Every leaf's in-edge words back to back, in ascending leaf order: a
    /// word packs the sender's feeder id ([`FEEDER_MASK`]),
    /// [`LEAF_IN_PEER`] for a peer, and [`LEAF_ROW_END`] on each row's
    /// last word.
    #[inline]
    pub(crate) fn leaf_in(&self) -> &[u32] {
        &self.leaf_in
    }

    /// Every leaf with its row of [`SimNet::leaf_in`], in ascending index
    /// order. Row position `j` is the leaf's neighbor `j`.
    pub(crate) fn leaf_rows(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let mut start = 0;
        self.leaf_rows.iter().map(move |&(leaf, end)| {
            let row = &self.leaf_in[start as usize..end as usize];
            start = end;
            (leaf, row)
        })
    }

    /// The in-edge row of one leaf (see [`SimNet::leaf_rows`]), found by
    /// binary search.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf.
    pub(crate) fn leaf_row(&self, leaf: u32) -> &[u32] {
        let k = self
            .leaf_rows
            .binary_search_by_key(&leaf, |&(ix, _)| ix)
            .expect("not a leaf");
        let start = if k == 0 { 0 } else { self.leaf_rows[k - 1].1 };
        &self.leaf_in[start as usize..self.leaf_rows[k].1 as usize]
    }

    /// The AS owning global slot `e` (one table load; hot-path safe — the
    /// delta engine derives senders and receivers of packed log entries
    /// through this on every replayed message).
    #[inline]
    pub fn owner_of_slot(&self, e: u32) -> AsIndex {
        AsIndex::new(self.slot_owner[e as usize])
    }

    /// Relationship and neighbor for a global slot owned by `owner`.
    #[inline]
    pub fn slot_entry(&self, owner: AsIndex, e: u32) -> bgpsim_topology::Neighbor {
        let local = (e - self.offsets[owner.usize()]) as usize;
        self.topo.neighbors(owner)[local]
    }

    /// Whether `ix` is tier-1.
    #[inline]
    pub fn is_tier1(&self, ix: AsIndex) -> bool {
        self.tier1[ix.usize()]
    }

    /// All tier-1 ASes, in ascending index order.
    #[inline]
    pub fn tier1_members(&self) -> &[AsIndex] {
        &self.tier1_list
    }

    /// Sibling group of `ix`.
    #[inline]
    pub fn group(&self, ix: AsIndex) -> u32 {
        self.group[ix.usize()]
    }

    /// Whether every tier-1 stands alone at the top: no provider, no
    /// sibling. Then a tier-1 hears only customer- and origin-class
    /// exports, from its customers and peers, and its own routes reach
    /// other ASes only as peer- or provider-class routes, or as candidacies
    /// of its tier-1 peers. The race solver's one-pass fixed point needs
    /// exactly this, and it also rules out the multistable corner of a
    /// customer-class route laundered through a tier-1's sibling (see
    /// [`crate::solve_race`]).
    #[inline]
    pub(crate) fn tier1s_stand_alone(&self) -> bool {
        self.tier1s_stand_alone
    }

    /// Every peering between two tier-1s, once per direction, as
    /// `[sender, receiver, receiver-side slot]`: the edges the race
    /// solver's clique rounds offer frozen tier-1 routes over.
    #[inline]
    pub(crate) fn tier1_peerings(&self) -> &[[u32; 3]] {
        &self.tier1_peerings
    }

    /// Whether `ix` is a stub.
    #[inline]
    pub fn is_stub(&self, ix: AsIndex) -> bool {
        self.stub[ix.usize()]
    }

    /// Whether `ix` is a leaf: no customers, no siblings, not a tier-1.
    /// A leaf holds only peer- and provider-class routes, which the
    /// valley-free export rule sends to nobody, so unless it originates
    /// the prefix itself nothing it learns can influence another AS.
    #[inline]
    pub fn is_leaf(&self, ix: AsIndex) -> bool {
        self.leaf[ix.usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::gen::{generate, InternetParams};
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};

    /// The cursor pass against a reference that finds every mirror by
    /// scanning the neighbor's whole list, on a fixture with all four
    /// classes (a sibling pair among them, one sibling also a provider's
    /// peer) and on generated labs.
    #[test]
    fn reverse_slots_are_involutive_and_correct() {
        let fixture = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, PeerToPeer),
            (2, 3, ProviderToCustomer),
            (3, 4, SiblingToSibling),
            (1, 4, ProviderToCustomer),
            (4, 2, PeerToPeer),
            (5, 1, ProviderToCustomer),
            (5, 4, SiblingToSibling),
        ]);
        let labs = [2, 7, 13, 29].map(|seed| generate(&InternetParams::tiny(), seed).topology);
        for topo in std::iter::once(&fixture).chain(&labs) {
            let net = SimNet::new(topo);
            assert_eq!(net.num_slots(), 2 * topo.num_links());
            let mut reference = Vec::with_capacity(net.num_slots());
            for ix in topo.indices() {
                for nb in topo.neighbors(ix) {
                    let pos = topo
                        .neighbors(nb.index)
                        .iter()
                        .position(|o| o.index == ix && o.rel == nb.rel.reversed())
                        .expect("adjacency is symmetric");
                    reference.push(net.slots_of(nb.index).start + pos as u32);
                }
            }
            assert_eq!(net.reverse_slot, reference);
            for ix in topo.indices() {
                for e in net.slots_of(ix) {
                    let r = net.reverse_slot(e);
                    assert_eq!(net.reverse_slot(r), e, "mirror is involutive");
                    let nb = net.slot_entry(ix, e);
                    assert_eq!(net.owner_of_slot(r), nb.index);
                    let back = net.slot_entry(nb.index, r);
                    assert_eq!(back.index, ix);
                    assert_eq!(back.rel, nb.rel.reversed());
                }
            }
        }
        let rels: Vec<Relationship> = fixture
            .indices()
            .flat_map(|ix| fixture.neighbors(ix).iter().map(|nb| nb.rel))
            .collect();
        assert!(Relationship::ALL.iter().all(|r| rels.contains(r)));
    }

    #[test]
    fn masks_and_groups() {
        let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (2, 3, SiblingToSibling)]);
        let net = SimNet::new(&topo);
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        assert!(net.is_tier1(ix(1)));
        assert!(!net.is_tier1(ix(2)));
        assert_eq!(net.group(ix(2)), net.group(ix(3)));
        assert!(!net.is_stub(ix(1)));
        assert!(net.is_stub(ix(3)));
        // AS3 is a stub but has a sibling, AS1 is a tier-1: neither is a
        // leaf.
        assert!(topo.indices().all(|x| !net.is_leaf(x)));
        let topo = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 3, PeerToPeer),
        ]);
        let net = SimNet::new(&topo);
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        assert!(!net.is_leaf(ix(1)));
        assert!(
            net.is_leaf(ix(2)) && net.is_leaf(ix(3)),
            "peer links keep a leaf a leaf"
        );
    }

    #[test]
    fn tier1s_stand_alone_and_their_peerings() {
        let topo = topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (3, 4, PeerToPeer),
        ]);
        let net = SimNet::new(&topo);
        assert!(net.tier1s_stand_alone());
        // Once per direction, with the receiver's slot for the sender; the
        // peering 3–4 is not between tier-1s.
        assert_eq!(net.tier1_peerings().len(), 2);
        for &[t, p, slot] in net.tier1_peerings() {
            assert!(net.is_tier1(AsIndex::new(t)) && net.is_tier1(AsIndex::new(p)));
            assert_eq!(net.owner_of_slot(slot).raw(), p);
            let nb = net.slot_entry(AsIndex::new(p), slot);
            assert_eq!((nb.index.raw(), nb.rel), (t, Relationship::Peer));
        }
        // A sibling stops a tier-1 standing alone, even one buying no
        // transit (4 has no provider, so it is no tier-1 itself).
        let topo = topology_from_triples(&[(1, 2, PeerToPeer), (2, 4, SiblingToSibling)]);
        assert!(!SimNet::new(&topo).tier1s_stand_alone());
    }

    #[test]
    fn owner_of_slot_is_consistent() {
        let topo = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 3, PeerToPeer),
        ]);
        let net = SimNet::new(&topo);
        for ix in topo.indices() {
            for e in net.slots_of(ix) {
                assert_eq!(net.owner_of_slot(e), ix);
            }
        }
    }

    /// Every directed edge lands in exactly one race table: edges into
    /// non-leaves in the core adjacency, in their class segment with their
    /// mirror slot; edges into leaves in the leaf's in-edge row, whose
    /// word `j` is the leaf's slot `slots_of(leaf).start + j`, carrying the
    /// sender's feeder id, the peer flag, and the row-end flag on exactly
    /// the last word.
    #[test]
    fn core_adjacency_and_leaf_rows_partition_the_edges() {
        let topo = topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (3, 5, ProviderToCustomer),
            (4, 5, PeerToPeer),
            (2, 6, ProviderToCustomer),
            (6, 7, SiblingToSibling),
            (2, 8, ProviderToCustomer),
        ]);
        let net = SimNet::new(&topo);
        let ix = |n| topo.index_of(AsId::new(n)).unwrap();
        let leaves: Vec<u32> = net.leaf_rows().map(|(leaf, _)| leaf).collect();
        assert_eq!(
            leaves,
            vec![ix(4).raw(), ix(5).raw(), ix(8).raw()],
            "6 and 7 are siblings"
        );
        // Feeders: every non-leaf in index order, then the leaves that
        // peer with a leaf (4 and 5, not 8), in index order.
        let core: Vec<u32> = topo
            .indices()
            .filter(|&x| !net.is_leaf(x))
            .map(AsIndex::raw)
            .collect();
        assert_eq!(net.core_feeders(), core.len());
        assert_eq!(net.feeders()[..core.len()], core[..]);
        assert_eq!(net.feeders()[core.len()..], [ix(4).raw(), ix(5).raw()]);
        let mut seen = 0;
        for x in topo.indices() {
            let segments = net.core_segments(x.usize());
            let rels = [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
                Relationship::Sibling,
            ];
            for (k, rel) in rels.into_iter().enumerate() {
                for &packed in &net.core_adj()[segments[k] as usize..segments[k + 1] as usize] {
                    let (r, mirror) = (AsIndex::new(packed as u32), (packed >> 32) as u32);
                    assert!(!net.is_leaf(r));
                    assert_eq!(net.owner_of_slot(mirror), r);
                    assert_eq!(net.slot_entry(r, mirror).index, x);
                    assert_eq!(net.slot_entry(r, mirror).rel, rel.reversed());
                    seen += 1;
                }
            }
        }
        let mut words = 0;
        for (leaf, row) in net.leaf_rows() {
            let leaf = AsIndex::new(leaf);
            assert_eq!(row, net.leaf_row(leaf.raw()));
            assert_eq!(row.len(), topo.degree(leaf));
            for (j, &w) in row.iter().enumerate() {
                let slot = net.slots_of(leaf).start + j as u32;
                let nb = net.slot_entry(leaf, slot);
                assert_eq!(net.feeders()[(w & FEEDER_MASK) as usize], nb.index.raw());
                assert_eq!(w & LEAF_IN_PEER != 0, nb.rel == Relationship::Peer);
                assert_eq!(w & LEAF_ROW_END != 0, j + 1 == row.len(), "row end");
                assert!(matches!(
                    nb.rel,
                    Relationship::Peer | Relationship::Provider
                ));
                seen += 1;
            }
            words += row.len();
        }
        assert_eq!(net.leaf_in().len(), words, "rows tile the stream");
        assert_eq!(seen, net.num_slots());
    }

    /// A feeder id must stay clear of the two flag bits.
    #[test]
    #[should_panic(
        expected = "scale exceeds the leaf in-edge feeder id space (2^30): feeder id = 1073741824"
    )]
    fn feeder_ids_stay_below_the_flag_bits() {
        assert_eq!(checked_feeder(FEEDER_MASK as usize), FEEDER_MASK);
        checked_feeder(LEAF_ROW_END as usize);
    }
}
