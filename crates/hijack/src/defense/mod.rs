//! Incremental deployment of BGP origin-hijack *prevention* (§V of the
//! ICDCS 2014 paper).
//!
//! "Given a mechanism for checking BGP origin security and rejecting bogus
//! routes, how many ASes must implement this mechanism to achieve a high
//! probability of stopping or at least minimizing an attack? Can the ASes
//! be chosen at random or must they be methodically chosen?"
//!
//! * [`Defense`] — an owned, attack-agnostic filter deployment.
//!   [`bgpsim_routing::FilterContext`] borrows its validator set and binds
//!   a specific authorized origin; the simulator derives a per-attack
//!   `FilterContext` from a `Defense` by plugging in the target under
//!   attack.
//! * [`DeploymentStrategy`] — the paper's §V progression (random transit,
//!   tier-1, degree cohorts) plus custom deployments.
//! * [`evaluate_strategies_monitored`] — residual-pollution sweeps per
//!   strategy, producing the figs. 5–6 curves.
//! * [`top_potent_attackers`] — the "top 5 still-potent attacks" tables.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_hijack::defense::{evaluate_strategies_monitored, DeploymentStrategy};
//! use bgpsim_hijack::{Simulator, SweepMonitor};
//! use bgpsim_routing::PolicyConfig;
//! use bgpsim_topology::gen::{generate, InternetParams};
//!
//! let net = generate(&InternetParams::tiny(), 1);
//! let sim = Simulator::new(&net.topology, PolicyConfig::paper());
//! let target = net.topology.stub_ases()[0];
//! let attackers = net.topology.transit_ases();
//! let outcomes = evaluate_strategies_monitored(
//!     &sim,
//!     target,
//!     &attackers,
//!     &[DeploymentStrategy::None, DeploymentStrategy::Tier1],
//!     &SweepMonitor::none(),
//! );
//! assert!(outcomes[1].mean_successful_pollution() <= outcomes[0].mean_successful_pollution() * 1.5);
//! ```

use bgpsim_routing::{AsSet, FilterContext};
use bgpsim_topology::{AsIndex, Topology};

mod evaluation;
mod strategy;

pub use evaluation::{
    evaluate_strategies_monitored, top_potent_attackers, PotentAttackerRow, StrategyOutcome,
};
pub use strategy::DeploymentStrategy;

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
