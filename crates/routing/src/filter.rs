//! Route-origin validation and defensive filtering.
//!
//! Two defenses from the paper:
//!
//! * **Origin validation** (§V) — an AS that has deployed a blocking
//!   mechanism (prefix filters built from RPKI/ROVER data, PGBGP, …)
//!   rejects any announcement for a prefix whose origin is not the
//!   authorized origin, and therefore never propagates it.
//! * **Defensive stub filters** (§IV, fig. 4) — "transit suppliers should
//!   know the prefixes announced by their direct customers and defensively
//!   filter any bogus announcements from them": an AS drops announcements
//!   of the simulated prefix received directly from a stub neighbor
//!   (customer or peer) that is not the prefix's authorized origin. With
//!   this on, only transit ASes can attack — the paper's optimistic case.

use bgpsim_topology::{AsIndex, Relationship, Topology};

use crate::net::SimNet;

/// A compact bit set over dense AS indices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AsSet {
    words: Vec<u64>,
    len: usize,
}

impl AsSet {
    /// An empty set sized for `topo`.
    pub fn empty(topo: &Topology) -> AsSet {
        AsSet {
            words: vec![0; topo.num_ases().div_ceil(64)],
            len: topo.num_ases(),
        }
    }

    /// Builds a set from members.
    pub fn from_members<I>(topo: &Topology, members: I) -> AsSet
    where
        I: IntoIterator<Item = AsIndex>,
    {
        let mut s = AsSet::empty(topo);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// Adds `ix`. Returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of range for the topology this set was sized
    /// for.
    pub fn insert(&mut self, ix: AsIndex) -> bool {
        assert!(ix.usize() < self.len, "index {ix} out of range");
        let w = &mut self.words[ix.usize() / 64];
        let bit = 1u64 << (ix.usize() % 64);
        let newly = *w & bit == 0;
        *w |= bit;
        newly
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, ix: AsIndex) -> bool {
        self.words[ix.usize() / 64] & (1u64 << (ix.usize() % 64)) != 0
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates members in index order.
    pub fn iter(&self) -> impl Iterator<Item = AsIndex> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(AsIndex::new(wi as u32 * 64 + b))
            })
        })
    }
}

impl Extend<AsIndex> for AsSet {
    fn extend<T: IntoIterator<Item = AsIndex>>(&mut self, iter: T) {
        for ix in iter {
            self.insert(ix);
        }
    }
}

/// The defensive configuration active during one propagation.
///
/// `authorized_origin` is the legitimate originator of the prefix under
/// simulation; `validators` are the ASes performing route-origin
/// validation; `stub_defense` enables provider-side stub filtering
/// globally (the paper's "optimistic case").
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterContext<'a> {
    /// The prefix's legitimate origin (routes from it always validate).
    pub authorized_origin: Option<AsIndex>,
    /// ASes rejecting announcements whose origin is unauthorized.
    pub validators: Option<&'a AsSet>,
    /// Every AS filters bogus stub announcements on non-sibling edges:
    /// routes sent by an unauthorized stub *and* routes claiming an
    /// unauthorized stub as origin are dropped. The origin half contains a
    /// stub's hijack within its own organization even when a transit
    /// sibling re-announces it.
    pub stub_defense: bool,
}

impl<'a> FilterContext<'a> {
    /// No filtering at all (the paper's baseline).
    pub fn none() -> FilterContext<'a> {
        FilterContext::default()
    }

    /// Origin validation at `validators`, authorizing `origin`.
    pub fn origin_validation(origin: AsIndex, validators: &'a AsSet) -> FilterContext<'a> {
        FilterContext {
            authorized_origin: Some(origin),
            validators: Some(validators),
            stub_defense: false,
        }
    }

    /// Whether this context can never reject a route: no validators and no
    /// stub defense. An authorized origin alone rejects nothing, so the
    /// context every undefended attack runs under (the target authorized,
    /// nothing deployed) is inert. Hot loops use this to skip the per-edge
    /// filter predicates wholesale (the undefended sweeps of the paper's
    /// figures).
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.validators.is_none() && !self.stub_defense
    }

    /// Whether `receiver` rejects a route with the given `origin` under
    /// route-origin validation.
    #[inline]
    pub fn rejects_origin(&self, receiver: AsIndex, origin: AsIndex) -> bool {
        match (self.authorized_origin, self.validators) {
            (Some(auth), Some(v)) => origin != auth && v.contains(receiver),
            _ => false,
        }
    }

    /// Whether the defensive stub filter drops a route claiming `origin`
    /// that `sender` — `rel_at_receiver` to the AS hearing it — sent.
    ///
    /// A stub only ever originates, and its providers and peers know its
    /// prefixes; if it is not this prefix's authorized origin, any
    /// announcement it sends — and any route *claiming* it as origin — is
    /// bogus by definition. The origin match is what keeps a stub's hijack
    /// from being laundered through a transit sibling: the route crosses
    /// the internal sibling link unfiltered but is dropped on every edge
    /// leaving the organization. Together these match the paper's
    /// optimistic case, where "attacks now originate only from the transit
    /// ASes".
    #[inline]
    pub(crate) fn rejects_stub(
        &self,
        net: &SimNet<'_>,
        rel_at_receiver: Relationship,
        sender: AsIndex,
        origin: AsIndex,
    ) -> bool {
        self.stub_defense
            && rel_at_receiver != Relationship::Sibling
            && self.authorized_origin.is_some_and(|auth| {
                (net.is_stub(sender) && auth != sender) || (net.is_stub(origin) && auth != origin)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::{topology_from_triples, LinkKind::*};

    fn topo() -> Topology {
        topology_from_triples(&[(1, 2, ProviderToCustomer), (2, 3, ProviderToCustomer)])
    }

    #[test]
    fn set_insert_contains_iter() {
        let t = topo();
        let mut s = AsSet::empty(&t);
        assert_eq!(s.count(), 0);
        assert!(s.insert(AsIndex::new(1)));
        assert!(!s.insert(AsIndex::new(1)));
        s.extend([AsIndex::new(2)]);
        assert!(s.contains(AsIndex::new(1)));
        assert!(!s.contains(AsIndex::new(0)));
        assert_eq!(s.count(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![AsIndex::new(1), AsIndex::new(2)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let t = topo();
        let mut s = AsSet::empty(&t);
        s.insert(AsIndex::new(99));
    }

    #[test]
    fn filter_context_rejects_only_unauthorized_at_validators() {
        let t = topo();
        let v = AsSet::from_members(&t, [AsIndex::new(0)]);
        let ctx = FilterContext::origin_validation(AsIndex::new(2), &v);
        // Validator rejects a bogus origin.
        assert!(ctx.rejects_origin(AsIndex::new(0), AsIndex::new(1)));
        // Validator accepts the authorized origin.
        assert!(!ctx.rejects_origin(AsIndex::new(0), AsIndex::new(2)));
        // Non-validator accepts anything.
        assert!(!ctx.rejects_origin(AsIndex::new(1), AsIndex::new(1)));
        // Baseline rejects nothing.
        assert!(!FilterContext::none().rejects_origin(AsIndex::new(0), AsIndex::new(1)));
    }

    /// The undefended context a simulator builds for a target
    /// (`Defense::none().context_for(t)`: the target authorized, nothing
    /// deployed) is inert; a context with validators or stub filtering is
    /// not.
    #[test]
    fn undefended_contexts_are_inert() {
        let t = topo();
        let target = AsIndex::new(2);
        let undefended = FilterContext {
            authorized_origin: Some(target),
            validators: None,
            stub_defense: false,
        };
        assert!(FilterContext::none().is_inert());
        assert!(undefended.is_inert());
        let v = AsSet::from_members(&t, [AsIndex::new(0)]);
        assert!(!FilterContext::origin_validation(target, &v).is_inert());
        let stub = FilterContext {
            stub_defense: true,
            ..undefended
        };
        assert!(!stub.is_inert());
    }

    #[test]
    fn set_across_word_boundaries() {
        use bgpsim_topology::{AsId, LinkKind, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        for i in 0..130u32 {
            b.add_link(
                AsId::new(1000),
                AsId::new(i + 1),
                LinkKind::ProviderToCustomer,
            )
            .unwrap();
        }
        let t = b.build().unwrap();
        let mut s = AsSet::empty(&t);
        for i in [0u32, 63, 64, 127, 128, 130] {
            s.insert(AsIndex::new(i));
        }
        assert_eq!(s.count(), 6);
        assert!(s.contains(AsIndex::new(128)));
        assert!(!s.contains(AsIndex::new(129)));
    }
}
