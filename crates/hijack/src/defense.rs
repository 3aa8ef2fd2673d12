//! Owned defensive configurations, reusable across many attacks.
//!
//! [`bgpsim_routing::FilterContext`] borrows its validator set and binds a
//! specific authorized origin; [`Defense`] is the owning, attack-agnostic
//! form: the simulator derives a per-attack `FilterContext` from it by
//! plugging in the target under attack.

use bgpsim_routing::{AsSet, FilterContext};
use bgpsim_topology::{AsIndex, Topology};

/// A deployment of defensive mechanisms, independent of any particular
/// attack.
#[derive(Debug, Clone, Default)]
pub struct Defense {
    validators: Option<AsSet>,
    stub_defense: bool,
}

impl Defense {
    /// No defenses at all — the paper's baseline.
    pub fn none() -> Defense {
        Defense::default()
    }

    /// Route-origin validation deployed at the given ASes.
    pub fn validators<I>(topo: &Topology, members: I) -> Defense
    where
        I: IntoIterator<Item = AsIndex>,
    {
        Defense {
            validators: Some(AsSet::from_members(topo, members)),
            stub_defense: false,
        }
    }

    /// Enables provider-side defensive filtering of stub customers (the
    /// paper's §IV "optimistic case") on top of the current configuration.
    #[must_use]
    pub fn with_stub_defense(mut self) -> Defense {
        self.stub_defense = true;
        self
    }

    /// Only stub defense, no origin validation.
    pub fn stub_defense_only() -> Defense {
        Defense::none().with_stub_defense()
    }

    /// Number of ASes performing origin validation.
    pub fn num_validators(&self) -> usize {
        self.validators.as_ref().map_or(0, AsSet::count)
    }

    /// Whether the given AS validates origins under this defense.
    pub fn is_validator(&self, ix: AsIndex) -> bool {
        self.validators.as_ref().is_some_and(|v| v.contains(ix))
    }

    /// Whether provider-side stub filtering is enabled.
    pub fn has_stub_defense(&self) -> bool {
        self.stub_defense
    }

    /// Whether this defense can keep an attacker's contamination cone
    /// local (any origin validation or stub filtering deployed). This is
    /// the predicate [`crate::Simulator`]'s adaptive dispatch keys on:
    /// localizing defenses make baseline replay profitable, while against
    /// an undefended network the cone is the whole graph and racing the
    /// origins directly is cheaper. Whoever holds baselines asks
    /// [`crate::Simulator::baseline_key`], which weighs this predicate
    /// with the attack kind and the engine override, not this directly.
    pub fn localizes(&self) -> bool {
        self.num_validators() > 0 || self.stub_defense
    }

    /// Binds this defense to a prefix whose legitimate origin is
    /// `authorized`, producing the per-propagation filter context.
    pub fn context_for(&self, authorized: AsIndex) -> FilterContext<'_> {
        FilterContext {
            authorized_origin: Some(authorized),
            validators: self.validators.as_ref(),
            stub_defense: self.stub_defense,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::{topology_from_triples, LinkKind::*};

    #[test]
    fn construction_and_queries() {
        let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (2, 3, PeerToPeer)]);
        let d = Defense::validators(&topo, [AsIndex::new(0), AsIndex::new(2)]);
        assert_eq!(d.num_validators(), 2);
        assert!(d.is_validator(AsIndex::new(0)));
        assert!(!d.is_validator(AsIndex::new(1)));
        assert!(!d.has_stub_defense());
        let d = d.with_stub_defense();
        assert!(d.has_stub_defense());
        let ctx = d.context_for(AsIndex::new(1));
        assert_eq!(ctx.authorized_origin, Some(AsIndex::new(1)));
        assert!(ctx.stub_defense);
        assert!(ctx.rejects_origin(AsIndex::new(0), AsIndex::new(2)));
        assert!(!ctx.rejects_origin(AsIndex::new(0), AsIndex::new(1)));
    }

    #[test]
    fn none_rejects_nothing() {
        let d = Defense::none();
        assert_eq!(d.num_validators(), 0);
        let ctx = d.context_for(AsIndex::new(0));
        assert!(!ctx.rejects_origin(AsIndex::new(1), AsIndex::new(2)));
        // So the race solver runs its unfiltered pass for it.
        assert!(ctx.is_inert());
        assert!(!Defense::stub_defense_only()
            .context_for(AsIndex::new(0))
            .is_inert());
    }
}
