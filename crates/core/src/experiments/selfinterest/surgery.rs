//! Topology surgery: rebuilding a topology with links removed and added.
//!
//! Section VII's experiments modify the graph — re-homing a vulnerable AS
//! to lower-depth providers — so §VII needs controlled edits of the
//! immutable [`Topology`].

use bgpsim_topology::{AsId, LinkKind, Relationship, Topology, TopologyBuilder, TopologyError};

/// Rebuilds `topo` with the unordered pairs in `remove` deleted and the
/// links in `add` inserted. ASNs (and, for surviving ASes, dense indices)
/// are preserved because the rebuild enumerates ASes in index order.
///
/// # Errors
///
/// Returns an error if an added link duplicates a surviving link or is a
/// self-loop. Removing a non-existent link is a no-op.
pub(super) fn rebuild_with(
    topo: &Topology,
    remove: &[(AsId, AsId)],
    add: &[(AsId, AsId, LinkKind)],
) -> Result<Topology, TopologyError> {
    let removed = |x: AsId, y: AsId| {
        remove
            .iter()
            .any(|&(a, b)| (a == x && b == y) || (a == y && b == x))
    };
    let mut builder = TopologyBuilder::with_capacity(topo.num_ases(), topo.num_links());
    for asn in topo.ids() {
        builder.add_as(asn);
    }
    for ix in topo.indices() {
        for nb in topo.neighbors(ix) {
            let kind = match nb.rel {
                Relationship::Customer => LinkKind::ProviderToCustomer,
                Relationship::Peer if nb.index.raw() > ix.raw() => LinkKind::PeerToPeer,
                Relationship::Sibling if nb.index.raw() > ix.raw() => LinkKind::SiblingToSibling,
                _ => continue,
            };
            let (a, b) = (topo.id_of(ix), topo.id_of(nb.index));
            if !removed(a, b) {
                builder.add_link(a, b, kind)?;
            }
        }
    }
    for &(a, b, kind) in add {
        builder.add_link(a, b, kind)?;
    }
    if topo.has_declared_tier1() {
        for t in topo.tier1s() {
            builder.declare_tier1(topo.id_of(t));
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::{topology_from_triples, LinkKind::*};

    #[test]
    fn remove_and_add_links() {
        let t = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (1, 4, PeerToPeer),
        ]);
        let t2 = rebuild_with(
            &t,
            &[(AsId::new(2), AsId::new(3))],
            &[(AsId::new(1), AsId::new(3), ProviderToCustomer)],
        )
        .unwrap();
        assert_eq!(t2.num_links(), 3);
        let i1 = t2.index_of(AsId::new(1)).unwrap();
        let i3 = t2.index_of(AsId::new(3)).unwrap();
        assert!(t2.customers(i1).any(|c| c == i3));
        let i2 = t2.index_of(AsId::new(2)).unwrap();
        assert_eq!(t2.num_customers(i2), 0);
        // Indices preserved.
        for ix in t.indices() {
            assert_eq!(t.id_of(ix), t2.id_of(ix));
        }
    }

    #[test]
    fn removal_is_direction_insensitive_and_lenient() {
        let t = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
        let t2 = rebuild_with(&t, &[(AsId::new(2), AsId::new(1))], &[]).unwrap();
        assert_eq!(t2.num_links(), 0);
        // Removing a non-existent link changes nothing.
        let t3 = rebuild_with(&t, &[(AsId::new(5), AsId::new(6))], &[]).unwrap();
        assert_eq!(t3.num_links(), 1);
    }

    #[test]
    fn duplicate_add_errors() {
        let t = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
        let r = rebuild_with(&t, &[], &[(AsId::new(1), AsId::new(2), PeerToPeer)]);
        assert!(r.is_err());
    }

    #[test]
    fn tier1_declaration_survives() {
        let mut b = bgpsim_topology::TopologyBuilder::new();
        b.add_link(AsId::new(1), AsId::new(2), ProviderToCustomer)
            .unwrap();
        b.declare_tier1(AsId::new(1));
        let t = b.build().unwrap();
        let t2 = rebuild_with(&t, &[], &[]).unwrap();
        assert!(t2.has_declared_tier1());
        assert_eq!(t2.tier1s().len(), 1);
    }
}
