//! Precomputed simulation view of a topology.
//!
//! Propagation engines address neighbors through the topology's CSR arrays
//! and need two extra lookups on the hot path: the *reverse slot* of every
//! directed edge (where the receiver stores its Adj-RIB-In entry for the
//! sender) and a tier-1 membership mask. [`SimNet`] computes both once so
//! thousands of simulations can share them.

use bgpsim_topology::{AsIndex, Topology};

/// Marker ORed into the low (receiver) half of a packed adjacency entry
/// whose receiver is a race leaf (an AS with neither customers nor
/// siblings that is not a tier-1), letting the race solver's relax loop
/// skip leaves on the adjacency word alone. Dense AS indices stay far
/// below 2^31, so the bit is free.
pub(crate) const RACE_LEAF_BIT: u64 = 1 << 31;

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
    /// Stub mask (no customers), used by defensive stub filtering.
    stub: Vec<bool>,
    /// Leaf mask: no customers, no siblings, not a tier-1 (see
    /// [`SimNet::is_leaf`]).
    leaf: Vec<bool>,
    /// Per-slot packed edge for the race solver's relax loop: the
    /// receiver's dense index in the low 32 bits (leaf marker in
    /// [`RACE_LEAF_BIT`]), the mirror slot ([`SimNet::reverse_slot`]) in
    /// the high 32. One sequential 8-byte load per edge instead of
    /// parallel walks of two arrays.
    race_adj: Vec<u64>,
    /// Per-AS relationship-class boundaries as *absolute* slot positions
    /// (end of customers, of peers, of providers) — the slot-space mirror
    /// of [`Topology::class_bounds`].
    race_cuts: Vec<[u32; 3]>,
    /// Leaf-only adjacency for the race solver's post-convergence leaf
    /// sweep: per AS, its leaf customers then its leaf peers, packed like
    /// [`SimNet::race_adj`] (receiver index | mirror slot << 32, leaf
    /// marker in [`RACE_LEAF_BIT`] — always set here).
    leaf_adj: Vec<u64>,
    /// Per-AS bounds into `leaf_adj` (length `n + 1` interleaved with the
    /// customer/peer split): `[start, end of leaf customers, end]`.
    leaf_cuts: Vec<[u32; 3]>,
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

impl<'t> SimNet<'t> {
    /// Builds the derived tables. `O(n + m log d)`.
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
        let mut reverse_slot = vec![u32::MAX; total];
        for ix in topo.indices() {
            let base = offsets[ix.usize()];
            for (j, nb) in topo.neighbors(ix).iter().enumerate() {
                let slot = base + j as u32;
                if reverse_slot[slot as usize] != u32::MAX {
                    continue; // already filled from the mirror side
                }
                // Locate `ix` inside the neighbor's list. The neighbor sees
                // us with the reversed relationship; its list is sorted by
                // (class, index), so a linear scan of the class segment is
                // cheap and deterministic.
                let mirror_rel = nb.rel.reversed();
                let their_base = offsets[nb.index.usize()];
                let theirs = topo.neighbors(nb.index);
                let pos = theirs
                    .iter()
                    .position(|o| o.index == ix && o.rel == mirror_rel)
                    .expect("adjacency is symmetric");
                let mirror_slot = their_base + pos as u32;
                reverse_slot[slot as usize] = mirror_slot;
                reverse_slot[mirror_slot as usize] = slot;
            }
        }
        let mut tier1 = vec![false; n];
        assert!(n < (1 << 31), "AS index space exceeds the leaf-marker bit");
        let mut tier1_list = topo.tier1s();
        tier1_list.sort_unstable();
        for &t in &tier1_list {
            tier1[t.usize()] = true;
        }
        let group = topo.indices().map(|ix| topo.sibling_group(ix)).collect();
        let stub = topo.indices().map(|ix| topo.is_stub(ix)).collect();
        let mut race_adj = Vec::with_capacity(total);
        let mut race_cuts = Vec::with_capacity(n);
        let mut slot_owner = Vec::with_capacity(total);
        // Leaf = no customers, no siblings, not a tier-1: exports
        // peer-/provider-learned routes to nobody. Brands adjacency entries
        // and builds the leaf-only sweep tables for the race solver; the
        // delta engine reads the mask itself.
        let mut leaf = Vec::with_capacity(n);
        for ix in topo.indices() {
            let base = offsets[ix.usize()];
            for (j, nb) in topo.neighbors(ix).iter().enumerate() {
                let slot = base + j as u32;
                let mirror = reverse_slot[slot as usize];
                race_adj.push(u64::from(nb.index.raw()) | (u64::from(mirror) << 32));
                slot_owner.push(ix.raw());
            }
            let b = topo.class_bounds(ix);
            race_cuts.push([base + b[0] as u32, base + b[1] as u32, base + b[2] as u32]);
            // Tier-1s are excluded even at matching degree shape: the race
            // solver treats them as fixed-point variables (candidacy
            // tallies, sentinel stamps), never as skippable sinks.
            leaf.push(b[0] == 0 && b[2] == topo.degree(ix) && !tier1[ix.usize()]);
        }
        // Brand leaf receivers directly in the adjacency word so the race
        // solver's hot loop skips them without a second lookup.
        for packed in &mut race_adj {
            if leaf[*packed as u32 as usize] {
                *packed |= RACE_LEAF_BIT;
            }
        }
        let mut leaf_adj = Vec::new();
        let mut leaf_cuts = Vec::with_capacity(n);
        for ix in topo.indices() {
            let base = offsets[ix.usize()] as usize;
            let b = topo.class_bounds(ix);
            let start = leaf_adj.len() as u32;
            for local in [0..b[0], b[0]..b[1]] {
                for j in local {
                    let packed = race_adj[base + j];
                    if packed & RACE_LEAF_BIT != 0 {
                        leaf_adj.push(packed);
                    }
                }
            }
            let nbrs = topo.neighbors(ix);
            let mid = start + (0..b[0]).filter(|&j| leaf[nbrs[j].index.usize()]).count() as u32;
            leaf_cuts.push([start, mid, leaf_adj.len() as u32]);
        }
        SimNet {
            topo,
            reverse_slot,
            offsets,
            tier1,
            tier1_list,
            group,
            stub,
            leaf,
            race_adj,
            race_cuts,
            leaf_adj,
            leaf_cuts,
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

    /// Packed per-slot edges for the race solver's relax loop, indexed by
    /// global slot: receiver index in the low 32 bits, mirror slot in the
    /// high 32.
    #[inline]
    pub(crate) fn race_adj(&self) -> &[u64] {
        &self.race_adj
    }

    /// Absolute slot positions of `x`'s relationship-class boundaries
    /// (end of customers, of peers, of providers); with
    /// [`SimNet::slots_of`] they delimit the four class segments.
    #[inline]
    pub(crate) fn race_cuts(&self, x: usize) -> [u32; 3] {
        self.race_cuts[x]
    }

    /// Leaf-only packed adjacency (see `leaf_adj`).
    #[inline]
    pub(crate) fn leaf_adj(&self) -> &[u64] {
        &self.leaf_adj
    }

    /// Bounds of `x`'s leaf customers / leaf peers inside
    /// [`SimNet::leaf_adj`]: `[start, customer end, peer end]`.
    #[inline]
    pub(crate) fn leaf_cuts(&self, x: usize) -> [u32; 3] {
        self.leaf_cuts[x]
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
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};

    #[test]
    fn reverse_slots_are_involutive_and_correct() {
        let topo = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, PeerToPeer),
            (2, 3, ProviderToCustomer),
            (3, 4, SiblingToSibling),
        ]);
        let net = SimNet::new(&topo);
        assert_eq!(net.num_slots(), 2 * topo.num_links());
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
}
