//! Attacker aggressiveness — the dual of target vulnerability.
//!
//! "An attacker is considered to be aggressive if it can pollute many ASes
//! compared to the average case" (§IV). Aggressiveness is measured by
//! attacking a *sample of targets* from one attacker and averaging the
//! pollution; the paper observes it correlates negatively with attacker
//! depth.

use bgpsim_topology::AsIndex;

use crate::{Attack, Defense, Simulator};

/// Mean pollution achieved by `attacker` against each of `targets`
/// (entries equal to the attacker are skipped).
///
/// # Examples
///
/// ```
/// use bgpsim_hijack::{aggressiveness, Defense, Simulator};
/// use bgpsim_routing::PolicyConfig;
/// use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};
///
/// let topo = topology_from_triples(&[
///     (1, 2, ProviderToCustomer),
///     (1, 3, ProviderToCustomer),
/// ]);
/// let sim = Simulator::new(&topo, PolicyConfig::paper());
/// let a = topo.index_of(AsId::new(2)).unwrap();
/// let t = topo.index_of(AsId::new(3)).unwrap();
/// let score = aggressiveness(&sim, a, &[t], &Defense::none());
/// assert!(score >= 0.0);
/// ```
pub fn aggressiveness(
    sim: &Simulator<'_>,
    attacker: AsIndex,
    targets: &[AsIndex],
    defense: &Defense,
) -> f64 {
    let attacks: Vec<Attack> = targets
        .iter()
        .filter(|&&target| target != attacker)
        .map(|&target| Attack::origin(attacker, target))
        .collect();
    if attacks.is_empty() {
        return 0.0;
    }
    let counts = sim.map_outcomes(&attacks, defense, |outcome| {
        outcome.pollution_count() as u64
    });
    counts.iter().sum::<u64>() as f64 / counts.len() as f64
}

/// Ranks `attackers` by aggressiveness over the same target sample,
/// most aggressive first (ties by lower index).
pub fn rank_by_aggressiveness(
    sim: &Simulator<'_>,
    attackers: &[AsIndex],
    targets: &[AsIndex],
    defense: &Defense,
) -> Vec<(AsIndex, f64)> {
    let mut scored: Vec<(AsIndex, f64)> = attackers
        .iter()
        .map(|&a| (a, aggressiveness(sim, a, targets, defense)))
        .collect();
    scored.sort_by(|&(ia, sa), &(ib, sb)| {
        sb.partial_cmp(&sa)
            .expect("aggressiveness is never NaN")
            .then(ia.raw().cmp(&ib.raw()))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*, Topology};

    fn ix(topo: &Topology, n: u32) -> AsIndex {
        topo.index_of(AsId::new(n)).unwrap()
    }

    /// A shallow transit (2) and a deep stub (5) as attackers: the shallow
    /// one must score higher against the same targets.
    fn topo() -> Topology {
        topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
            (4, 5, ProviderToCustomer),
            (3, 6, ProviderToCustomer),
            (3, 7, ProviderToCustomer),
        ])
    }

    #[test]
    fn shallow_attacker_is_more_aggressive() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let targets = vec![ix(&t, 6), ix(&t, 7)];
        let shallow = aggressiveness(&sim, ix(&t, 2), &targets, &Defense::none());
        let deep = aggressiveness(&sim, ix(&t, 5), &targets, &Defense::none());
        assert!(
            shallow >= deep,
            "shallow {shallow} should out-pollute deep {deep}"
        );
    }

    #[test]
    fn ranking_is_sorted() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let targets = vec![ix(&t, 6), ix(&t, 7)];
        let attackers = vec![ix(&t, 5), ix(&t, 2), ix(&t, 4)];
        let ranked = rank_by_aggressiveness(&sim, &attackers, &targets, &Defense::none());
        assert_eq!(ranked.len(), 3);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn attacker_in_targets_is_skipped() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let a = ix(&t, 2);
        let score = aggressiveness(&sim, a, &[a], &Defense::none());
        assert_eq!(score, 0.0);
    }
}
