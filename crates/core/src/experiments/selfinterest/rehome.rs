//! Re-homing: moving an AS to lower-depth providers (§VII's "reduce
//! vulnerability" step).
//!
//! "The depth analysis may reveal some ASes to be more vulnerable than
//! others. If possible, increase resistance to attack by re-homing and
//! multi-homing these ASes to reduce depth." The paper's validation
//! experiment "re-homed AS55857 up two levels".

use bgpsim_topology::metrics::DepthMap;
use bgpsim_topology::{AsId, AsIndex, LinkKind, Topology, TopologyError};

use super::surgery::rebuild_with;

/// Error returned when a re-homing cannot be performed.
#[derive(Debug)]
pub(super) enum RehomeError {
    /// The AS has no providers to climb from.
    NoProviders,
    /// Climbing found no provider distinct from the current attachment.
    NoHigherProvider,
    /// Rebuilding the topology failed.
    Topology(TopologyError),
}

impl core::fmt::Display for RehomeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RehomeError::NoProviders => write!(f, "target has no providers"),
            RehomeError::NoHigherProvider => {
                write!(f, "no distinct provider found the requested levels up")
            }
            RehomeError::Topology(e) => write!(f, "topology rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for RehomeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RehomeError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for RehomeError {
    fn from(e: TopologyError) -> Self {
        RehomeError::Topology(e)
    }
}

/// The target's current providers and, in the same order, the ancestor
/// `levels` steps up each one's chain: every step climbs to the
/// lowest-depth provider, stopping at the top.
fn climb(
    topo: &Topology,
    target: AsIndex,
    levels: u32,
) -> Result<(Vec<AsIndex>, Vec<AsIndex>), RehomeError> {
    let depths = DepthMap::to_tier1(topo);
    let old_providers: Vec<AsIndex> = topo.providers(target).collect();
    if old_providers.is_empty() {
        return Err(RehomeError::NoProviders);
    }
    let ancestors = old_providers
        .iter()
        .map(|&provider| {
            let mut from = provider;
            for _ in 0..levels {
                let up = topo
                    .providers(from)
                    .min_by_key(|&p| (depths.depth(p).unwrap_or(u32::MAX), p.raw()));
                match up {
                    Some(p) => from = p,
                    None => break, // already at the top
                }
            }
            from
        })
        .collect();
    Ok((old_providers, ancestors))
}

/// Re-homes `target` `levels` steps up its provider chains: each current
/// provider is replaced by the ancestor reached by repeatedly climbing to
/// the lowest-depth provider. Duplicate ancestors collapse (re-homing can
/// reduce multi-homing if chains converge). Returns the rebuilt topology,
/// with the same ASNs and indices.
///
/// # Errors
///
/// See [`RehomeError`].
pub(super) fn rehome_up(
    topo: &Topology,
    target: AsIndex,
    levels: u32,
) -> Result<Topology, RehomeError> {
    let (old_providers, mut new_providers) = climb(topo, target, levels)?;
    new_providers.sort_unstable();
    new_providers.dedup();
    // Never attach an AS to itself.
    new_providers.retain(|&p| p != target);
    if new_providers == old_providers {
        return Err(RehomeError::NoHigherProvider);
    }
    // A provider in both sets keeps its link.
    let target_id = topo.id_of(target);
    let remove: Vec<(AsId, AsId)> = old_providers
        .iter()
        .filter(|p| !new_providers.contains(p))
        .map(|&p| (topo.id_of(p), target_id))
        .collect();
    let add: Vec<(AsId, AsId, LinkKind)> = new_providers
        .iter()
        .filter(|p| !old_providers.contains(p))
        .map(|&p| (topo.id_of(p), target_id, LinkKind::ProviderToCustomer))
        .collect();
    Ok(rebuild_with(topo, &remove, &add)?)
}

/// Multi-homes `target` upward: *adds* the providers `levels` steps up its
/// chains while keeping the existing ones. Depth drops exactly as with
/// [`rehome_up`], but the target's old neighborhood keeps its
/// customer-class routes to it — §VII recommends "re-homing *and
/// multi-homing*… to reduce depth, and to increase non-overlapping reach",
/// and under Gao-Rexford preference the additive form is the one that
/// never weakens anyone's existing protection. Returns the rebuilt
/// topology, with the same ASNs and indices.
///
/// # Errors
///
/// See [`RehomeError`]; returns [`RehomeError::NoHigherProvider`] when
/// every climbed ancestor is already a provider (nothing to add).
pub(super) fn multihome_up(
    topo: &Topology,
    target: AsIndex,
    levels: u32,
) -> Result<Topology, RehomeError> {
    let (old_providers, mut added) = climb(topo, target, levels)?;
    added.retain(|&p| p != target && !old_providers.contains(&p));
    added.sort_unstable();
    added.dedup();
    if added.is_empty() {
        return Err(RehomeError::NoHigherProvider);
    }
    let target_id = topo.id_of(target);
    let add: Vec<(AsId, AsId, LinkKind)> = added
        .iter()
        .map(|&p| (topo.id_of(p), target_id, LinkKind::ProviderToCustomer))
        .collect();
    Ok(rebuild_with(topo, &[], &add)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::{topology_from_triples, LinkKind::*};

    fn ix(t: &Topology, n: u32) -> AsIndex {
        t.index_of(AsId::new(n)).unwrap()
    }

    /// The providers of AS `n`, by ASN, in ascending order.
    fn providers_of(t: &Topology, n: u32) -> Vec<u32> {
        let mut asns: Vec<u32> = t.providers(ix(t, n)).map(|p| t.id_of(p).value()).collect();
        asns.sort_unstable();
        asns
    }

    /// Chain: 1 (tier-1) → 2 → 3 → 4 → 5 (deep stub).
    fn chain() -> Topology {
        topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (4, 5, ProviderToCustomer),
        ])
    }

    #[test]
    fn rehoming_reduces_depth_by_levels() {
        let t = chain();
        let target = ix(&t, 5);
        let before = DepthMap::to_tier1(&t).depth(target).unwrap();
        assert_eq!(before, 4);
        let r = rehome_up(&t, target, 2).unwrap();
        let after = DepthMap::to_tier1(&r).depth(ix(&r, 5)).unwrap();
        assert_eq!(after, 2);
        assert_eq!(providers_of(&t, 5), [4]);
        assert_eq!(providers_of(&r, 5), [2]);
    }

    #[test]
    fn climbing_past_the_top_saturates() {
        let t = chain();
        let r = rehome_up(&t, ix(&t, 5), 99).unwrap();
        assert_eq!(
            DepthMap::to_tier1(&r).depth(ix(&r, 5)).unwrap(),
            1,
            "climbs all the way to a tier-1 customer slot"
        );
    }

    #[test]
    fn no_providers_errors() {
        let t = chain();
        assert!(matches!(
            rehome_up(&t, ix(&t, 1), 1),
            Err(RehomeError::NoProviders)
        ));
    }

    #[test]
    fn multihomed_chains_may_converge() {
        // 5 is homed to two depth-2 transits that share a parent.
        let t = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (2, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
            (3, 5, ProviderToCustomer),
            (4, 5, ProviderToCustomer),
        ]);
        let r = rehome_up(&t, ix(&t, 5), 1).unwrap();
        assert_eq!(providers_of(&r, 5), [2]);
        assert_eq!(r.num_providers(ix(&r, 5)), 1);
    }

    #[test]
    fn multihome_adds_without_removing() {
        let t = chain();
        let r = multihome_up(&t, ix(&t, 5), 2).unwrap();
        let after = ix(&r, 5);
        assert_eq!(r.num_providers(after), 2, "old + new provider");
        assert_eq!(
            DepthMap::to_tier1(&r).depth(after),
            Some(2),
            "depth drops like rehome_up"
        );
        assert!(providers_of(&r, 5).contains(&4), "old provider kept");
        assert!(providers_of(&r, 5).contains(&2), "new provider added");
    }

    #[test]
    fn multihome_errors_when_nothing_to_add() {
        // Target directly under the top: climbing yields the same provider.
        let t = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
        assert!(matches!(
            multihome_up(&t, ix(&t, 2), 3),
            Err(RehomeError::NoHigherProvider)
        ));
    }

    #[test]
    fn zero_levels_is_a_noop_error() {
        let t = chain();
        assert!(matches!(
            rehome_up(&t, ix(&t, 5), 0),
            Err(RehomeError::NoHigherProvider)
        ));
    }
}
