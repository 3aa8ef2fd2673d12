//! Attack specifications and single-attack outcomes.

use std::ops::Range;

use bgpsim_routing::Announcement;
use bgpsim_topology::{AddressSpace, AsIndex};

use crate::view::OutcomeView;

/// The kind of prefix hijack being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttackKind {
    /// The attacker originates the target's exact prefix; the two
    /// announcements compete under normal route selection (the paper's
    /// primary scenario).
    #[default]
    OriginHijack,
    /// The attacker originates a more-specific prefix. Longest-prefix match
    /// means there is no competition: every AS that hears the bogus
    /// announcement is polluted regardless of its route to the target
    /// (listed as future work in the paper's §VIII; included as an
    /// extension).
    SubPrefixHijack,
    /// The attacker announces the target's exact prefix with a *forged AS
    /// path* that ends in the target's own ASN ("type-1" hijack). Origin
    /// validation sees the legitimate origin and passes the route — this
    /// is the attack class that motivates full path validation (S*BGP),
    /// discussed in the paper's §II. Included as an extension.
    ForgedOriginHijack,
}

/// One attacker / target pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attack {
    /// The AS originating the bogus announcement.
    pub attacker: AsIndex,
    /// The legitimate holder of the prefix.
    pub target: AsIndex,
    /// Exact-prefix or sub-prefix hijack.
    pub kind: AttackKind,
}

impl Attack {
    /// An origin hijack of `target`'s prefix by `attacker`.
    ///
    /// # Panics
    ///
    /// Panics if `attacker == target`.
    pub fn origin(attacker: AsIndex, target: AsIndex) -> Attack {
        assert_ne!(attacker, target, "an AS cannot hijack itself");
        Attack {
            attacker,
            target,
            kind: AttackKind::OriginHijack,
        }
    }

    /// A sub-prefix hijack of `target`'s prefix by `attacker`.
    ///
    /// # Panics
    ///
    /// Panics if `attacker == target`.
    pub fn sub_prefix(attacker: AsIndex, target: AsIndex) -> Attack {
        assert_ne!(attacker, target, "an AS cannot hijack itself");
        Attack {
            attacker,
            target,
            kind: AttackKind::SubPrefixHijack,
        }
    }

    /// A forged-origin (path-prepending) hijack of `target`'s prefix by
    /// `attacker`.
    ///
    /// # Panics
    ///
    /// Panics if `attacker == target`.
    pub fn forged_origin(attacker: AsIndex, target: AsIndex) -> Attack {
        assert_ne!(attacker, target, "an AS cannot hijack itself");
        Attack {
            attacker,
            target,
            kind: AttackKind::ForgedOriginHijack,
        }
    }

    /// The attacker's bogus announcement — what a replay injects into the
    /// target's honest baseline. A forged origin claims the target's ASN,
    /// so route-origin validation cannot distinguish it.
    pub(crate) fn injection(&self) -> Announcement {
        match self.kind {
            AttackKind::OriginHijack | AttackKind::SubPrefixHijack => {
                Announcement::honest(self.attacker)
            }
            AttackKind::ForgedOriginHijack => Announcement::forged(self.attacker, self.target),
        }
    }

    /// What a from-scratch engine propagates, as `&all[live]`: the target's
    /// honest announcement, then [`Attack::injection`] competing with it
    /// for the same prefix. A sub-prefix hijack has no competition —
    /// longest-prefix match sidesteps it — so only the bogus more-specific
    /// announcement is live.
    pub(crate) fn announcements(&self) -> ([Announcement; 2], Range<usize>) {
        let all = [Announcement::honest(self.target), self.injection()];
        match self.kind {
            AttackKind::SubPrefixHijack => (all, 1..2),
            AttackKind::OriginHijack | AttackKind::ForgedOriginHijack => (all, 0..2),
        }
    }
}

/// Result of simulating one attack.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The attack that was simulated.
    pub attack: Attack,
    /// ASes whose best route for the contested prefix leads to the
    /// attacker (excluding the attacker itself), in index order.
    pub polluted: Vec<AsIndex>,
    /// Generations until convergence.
    pub generations: u32,
    /// Whether the propagation hit the generation cap.
    pub truncated: bool,
}

impl AttackOutcome {
    /// Number of polluted ASes — the paper's headline metric.
    pub fn pollution_count(&self) -> usize {
        self.polluted.len()
    }

    /// Whether a specific AS was polluted.
    pub fn is_polluted(&self, ix: AsIndex) -> bool {
        self.polluted.binary_search(&ix).is_ok()
    }

    /// This outcome read as an [`OutcomeView`], for readers written
    /// against the view ([`crate::Simulator::map_outcomes`]'s).
    pub fn view(&self) -> OutcomeView<'_> {
        OutcomeView::listed(self)
    }

    /// Fraction of total address space originated by polluted ASes —
    /// fig. 1 reports "96 % of the internet address space can no longer
    /// reach the target".
    pub fn address_space_fraction(&self, space: &AddressSpace) -> f64 {
        space.fraction_of(self.polluted.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::{topology_from_triples, LinkKind::*, Topology};

    fn space(topo: &Topology) -> AddressSpace {
        AddressSpace::uniform(topo, 2)
    }

    #[test]
    #[should_panic(expected = "cannot hijack itself")]
    fn self_attack_panics() {
        let _ = Attack::origin(AsIndex::new(1), AsIndex::new(1));
    }

    #[test]
    fn outcome_accessors() {
        let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (1, 3, PeerToPeer)]);
        let outcome = AttackOutcome {
            attack: Attack::origin(AsIndex::new(0), AsIndex::new(1)),
            polluted: vec![AsIndex::new(2)],
            generations: 3,
            truncated: false,
        };
        assert_eq!(outcome.pollution_count(), 1);
        assert!(outcome.is_polluted(AsIndex::new(2)));
        assert!(!outcome.is_polluted(AsIndex::new(1)));
        let view = outcome.view();
        assert_eq!(view.pollution_count(), 1);
        assert!(view.is_polluted(AsIndex::new(2)) && !view.is_polluted(AsIndex::new(1)));
        assert_eq!(view.to_outcome().polluted, outcome.polluted);
        let f = outcome.address_space_fraction(&space(&topo));
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kinds_differ() {
        let a = Attack::origin(AsIndex::new(0), AsIndex::new(1));
        let s = Attack::sub_prefix(AsIndex::new(0), AsIndex::new(1));
        assert_ne!(a.kind, s.kind);
        assert_eq!(AttackKind::default(), AttackKind::OriginHijack);
    }
}
