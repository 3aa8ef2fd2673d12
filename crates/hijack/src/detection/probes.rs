//! Detector vantage-point (probe) configurations (§VI).
//!
//! "IP hijack detectors are only as good as the quantity, topological
//! diversity, and geographical dispersion of the vantage points (probes)
//! they have available." The paper evaluates three configurations: the 17
//! tier-1 ASes, the 24 ASes peered with CSU's BGPmon, and the 62 ASes with
//! degree ≥ 500.

use bgpsim_topology::{select, AsIndex, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::OutcomeView;

/// A named set of monitoring vantage points.
///
/// A probe *sees* an attack when its own converged best route for the
/// hijacked prefix leads to the attacker — i.e. when the probe itself is
/// polluted and therefore receives (and would report) the bogus
/// announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSet {
    name: String,
    probes: Vec<AsIndex>,
}

impl ProbeSet {
    /// Builds a probe set from explicit members (sorted, deduplicated).
    pub fn new(name: impl Into<String>, mut probes: Vec<AsIndex>) -> ProbeSet {
        probes.sort_unstable();
        probes.dedup();
        ProbeSet {
            name: name.into(),
            probes,
        }
    }

    /// Case 1: every tier-1 AS ("a tier-1's position in the internet
    /// topology would give them wide visibility").
    pub fn tier1(topo: &Topology) -> ProbeSet {
        ProbeSet::new("tier-1 probes", topo.tier1s())
    }

    /// Case 3: every AS with degree at least `k` ("these large backbone
    /// networks are highly inter-connected").
    pub fn degree_at_least(topo: &Topology, k: usize) -> ProbeSet {
        ProbeSet::new(
            format!("degree >= {k} probes"),
            select::by_degree_at_least(topo, k),
        )
    }

    /// Case 2: a BGPmon-like peering — `count` ASes with the mixed profile
    /// of a real route-monitor's volunteer peers: roughly one sixth large
    /// transit providers, two thirds mid-size transit, the rest small or
    /// stub networks. Seeded and reproducible.
    pub fn bgpmon_like(topo: &Topology, count: usize, seed: u64) -> ProbeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_degree: Vec<AsIndex> = topo.indices().collect();
        by_degree.sort_by_key(|&ix| std::cmp::Reverse(topo.degree(ix)));
        let n = by_degree.len();
        let mut large: Vec<AsIndex> = by_degree[..n / 50].to_vec();
        let mut medium: Vec<AsIndex> = by_degree[n / 50..n / 5]
            .iter()
            .copied()
            .filter(|&ix| topo.is_transit(ix))
            .collect();
        let mut small: Vec<AsIndex> = by_degree[n / 5..].to_vec();
        large.shuffle(&mut rng);
        medium.shuffle(&mut rng);
        small.shuffle(&mut rng);
        let mut probes = Vec::with_capacity(count);
        // Draws up to `want` *new* members off the front of a shuffled
        // pool; drained members never come back, so the top-up pass below
        // only ever sees leftovers.
        fn draw(pool: &mut Vec<AsIndex>, want: usize, probes: &mut Vec<AsIndex>) {
            let mut added = 0;
            while added < want {
                let Some(ix) = pool.pop() else { break };
                if !probes.contains(&ix) {
                    probes.push(ix);
                    added += 1;
                }
            }
        }
        let large_want = (count / 12).max(1);
        let medium_want = count / 3;
        draw(&mut large, large_want, &mut probes);
        draw(&mut medium, medium_want, &mut probes);
        draw(&mut small, count.saturating_sub(probes.len()), &mut probes);
        // Top up from whatever remains — medium first (keeping the profile
        // transit-heavy), then large, then small — so the set always
        // reaches `count` unless the pools themselves run dry.
        for pool in [&mut medium, &mut large, &mut small] {
            draw(pool, count.saturating_sub(probes.len()), &mut probes);
        }
        // Last resort: the degree-sorted middle slice filters out
        // non-transit ASes, so on tiny topologies the three pools together
        // can still fall short of `count` — sweep the whole topology.
        if probes.len() < count {
            by_degree.shuffle(&mut rng);
            draw(&mut by_degree, count - probes.len(), &mut probes);
        }
        ProbeSet::new(format!("bgpmon-like ({count} peers)"), probes)
    }

    /// `count` probes drawn uniformly at random (for ablations).
    pub fn random(topo: &Topology, count: usize, seed: u64) -> ProbeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all: Vec<AsIndex> = topo.indices().collect();
        all.shuffle(&mut rng);
        all.truncate(count);
        ProbeSet::new(format!("random ({count} probes)"), all)
    }

    /// The configuration's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The vantage points, in index order.
    pub fn probes(&self) -> &[AsIndex] {
        &self.probes
    }

    /// The probes that see the attack behind `outcome`, in index order. A
    /// probe co-located at the attacker or at the target never counts: the
    /// attacker trivially "sees" its own bogus route, which would inflate
    /// detection rates whenever a random attack lands on a probe AS.
    pub(crate) fn triggered<'a>(
        &'a self,
        outcome: &'a OutcomeView<'_>,
    ) -> impl Iterator<Item = AsIndex> + 'a {
        let attack = outcome.attack();
        self.probes
            .iter()
            .copied()
            .filter(move |&p| p != attack.attacker && p != attack.target && outcome.is_polluted(p))
    }

    /// How many probes see the attack behind `outcome` — the count every
    /// detector in the workspace scores by; a probe at the attacker or at
    /// the target is never one of them. An owned
    /// [`AttackOutcome`](crate::AttackOutcome) is read through its
    /// [`view`](crate::AttackOutcome::view).
    pub fn triggered_by(&self, outcome: &OutcomeView<'_>) -> usize {
        self.triggered(outcome).count()
    }

    /// Number of vantage points.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::gen::{generate, InternetParams};

    #[test]
    fn tier1_probes_match_clique() {
        let net = generate(&InternetParams::tiny(), 3);
        let p = ProbeSet::tier1(&net.topology);
        assert_eq!(p.len(), net.tier1_count);
        assert!(p.name().contains("tier-1"));
    }

    #[test]
    fn degree_probes_filter_by_degree() {
        let net = generate(&InternetParams::tiny(), 3);
        let p = ProbeSet::degree_at_least(&net.topology, 10);
        assert!(!p.is_empty());
        assert!(p.probes().iter().all(|&ix| net.topology.degree(ix) >= 10));
    }

    #[test]
    fn bgpmon_like_is_seeded_and_mixed() {
        let net = generate(&InternetParams::small(), 3);
        let a = ProbeSet::bgpmon_like(&net.topology, 24, 9);
        let b = ProbeSet::bgpmon_like(&net.topology, 24, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        let c = ProbeSet::bgpmon_like(&net.topology, 24, 10);
        assert_ne!(a, c);
        // Mixed profile: contains at least one large-degree AS and several
        // smaller ones.
        let degrees: Vec<usize> = a
            .probes()
            .iter()
            .map(|&ix| net.topology.degree(ix))
            .collect();
        let max = *degrees.iter().max().unwrap();
        let min = *degrees.iter().min().unwrap();
        assert!(max > 4 * min.max(1), "profile not mixed: {degrees:?}");
    }

    /// The draw pools are degree-stratified and the middle stratum drops
    /// non-transit ASes, so a naive draw can come up short; the top-up
    /// passes must always deliver exactly `count` probes whenever the
    /// topology has that many ASes.
    #[test]
    fn bgpmon_like_always_fills_count() {
        let net = generate(&InternetParams::tiny(), 3);
        let n = net.topology.num_ases();
        for count in [1, 7, 24, n / 2, n] {
            for seed in 0..8 {
                let p = ProbeSet::bgpmon_like(&net.topology, count, seed);
                assert_eq!(p.len(), count, "count {count} seed {seed}");
            }
        }
    }

    #[test]
    fn random_and_new_dedupe() {
        let net = generate(&InternetParams::tiny(), 3);
        let p = ProbeSet::random(&net.topology, 10, 1);
        assert_eq!(p.len(), 10);
        let q = ProbeSet::new("x", vec![AsIndex::new(1), AsIndex::new(1)]);
        assert_eq!(q.len(), 1);
    }
}
