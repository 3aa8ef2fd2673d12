//! Property tests for hijack-simulation invariants on generated Internets.

mod common;

use proptest::prelude::*;

use bgpsim_hijack::{Attack, Defense, Simulator, SweepResult};
use bgpsim_routing::PolicyConfig;
use bgpsim_topology::AsIndex;

use common::tiny_internet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sub-prefix hijack (no route competition) pollutes a superset of
    /// the corresponding origin hijack, absent filters.
    #[test]
    fn subprefix_dominates_origin_hijack(seed in 0u64..500, ai in 0usize..150, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let n = net.topology.num_ases();
        let (a, t) = (AsIndex::new((ai % n) as u32), AsIndex::new((ti % n) as u32));
        if a == t {
            return Ok(());
        }
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let origin = sim.run(Attack::origin(a, t), &Defense::none());
        let sub = sim.run(Attack::sub_prefix(a, t), &Defense::none());
        for &p in &origin.polluted {
            prop_assert!(
                sub.is_polluted(p),
                "AS {p} polluted by origin hijack but not sub-prefix hijack"
            );
        }
    }

    /// Attacks never pollute the target, never count the attacker, and
    /// never exceed n − 2 pollution.
    #[test]
    fn pollution_bounds(seed in 0u64..500, ai in 0usize..150, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let n = net.topology.num_ases();
        let (a, t) = (AsIndex::new((ai % n) as u32), AsIndex::new((ti % n) as u32));
        if a == t {
            return Ok(());
        }
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let o = sim.run(Attack::origin(a, t), &Defense::none());
        prop_assert!(!o.is_polluted(t), "target polluted");
        prop_assert!(!o.is_polluted(a), "attacker counted as polluted");
        prop_assert!(o.pollution_count() <= n - 2);
        prop_assert!(!o.truncated);
    }

    /// Universal origin validation stops every origin hijack completely,
    /// while the legitimate prefix still propagates.
    #[test]
    fn universal_rov_is_airtight(seed in 0u64..500, ai in 0usize..150, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let n = net.topology.num_ases();
        let (a, t) = (AsIndex::new((ai % n) as u32), AsIndex::new((ti % n) as u32));
        if a == t {
            return Ok(());
        }
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let defense = Defense::validators(&net.topology, net.topology.indices());
        let o = sim.run(Attack::origin(a, t), &defense);
        prop_assert_eq!(o.pollution_count(), 0);
    }

    /// Validators themselves are never polluted, whatever the deployment.
    #[test]
    fn validators_never_polluted(
        seed in 0u64..500,
        ai in 0usize..150,
        ti in 0usize..150,
        picks in proptest::collection::vec(0usize..150, 0..20),
    ) {
        let net = tiny_internet(seed);
        let n = net.topology.num_ases();
        let (a, t) = (AsIndex::new((ai % n) as u32), AsIndex::new((ti % n) as u32));
        if a == t {
            return Ok(());
        }
        let members: Vec<AsIndex> = picks.iter().map(|&p| AsIndex::new((p % n) as u32)).collect();
        let defense = Defense::validators(&net.topology, members.iter().copied());
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let o = sim.run(Attack::origin(a, t), &defense);
        for &v in &members {
            if v != a {
                prop_assert!(!o.is_polluted(v), "validator {v} polluted");
            }
        }
    }

    /// Stub defense means stub attackers pollute at most their own
    /// organization (sibling routes are internal and never filtered).
    #[test]
    fn stub_attackers_neutralized_by_stub_defense(seed in 0u64..500, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let topo = &net.topology;
        let stubs = topo.stub_ases();
        let t = AsIndex::new((ti % topo.num_ases()) as u32);
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let defense = Defense::stub_defense_only();
        for &s in stubs.iter().take(5) {
            if s == t {
                continue;
            }
            let o = sim.run(Attack::origin(s, t), &defense);
            for &p in &o.polluted {
                prop_assert!(
                    topo.same_organization(p, s),
                    "stub {} polluted {} outside its organization",
                    s,
                    p
                );
            }
        }
    }

    /// Forged-origin hijacks evade origin validation but never pollute the
    /// victim itself, and without defenses never beat the plain hijack.
    #[test]
    fn forged_origin_invariants(seed in 0u64..300, ai in 0usize..150, ti in 0usize..150) {
        let net = tiny_internet(seed);
        let n = net.topology.num_ases();
        let (a, t) = (AsIndex::new((ai % n) as u32), AsIndex::new((ti % n) as u32));
        if a == t {
            return Ok(());
        }
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let plain = sim.run(Attack::origin(a, t), &Defense::none());
        let forged = sim.run(Attack::forged_origin(a, t), &Defense::none());
        prop_assert!(!forged.is_polluted(t), "victim accepted its own forged path");
        prop_assert!(
            forged.pollution_count() <= plain.pollution_count(),
            "forged ({}) beat plain ({})",
            forged.pollution_count(),
            plain.pollution_count()
        );
        // Universal ROV: plain is dead, forged survives whenever it could
        // pollute at all.
        let everyone = Defense::validators(&net.topology, net.topology.indices());
        let plain_rov = sim.run(Attack::origin(a, t), &everyone);
        prop_assert_eq!(plain_rov.pollution_count(), 0);
        let forged_rov = sim.run(Attack::forged_origin(a, t), &everyone);
        prop_assert_eq!(
            forged_rov.pollution_count(),
            forged.pollution_count(),
            "ROV must not affect a forged-origin hijack at all"
        );
    }

    /// Sweeps agree with individual runs and are deterministic.
    #[test]
    fn sweeps_are_consistent(seed in 0u64..200) {
        let net = tiny_internet(seed);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let target = topo.stub_ases()[0];
        let attackers: Vec<AsIndex> = topo.transit_ases().into_iter().take(12).collect();
        let c1 = sim.sweep_attackers(target, &attackers, &Defense::none());
        let c2 = sim.sweep_attackers(target, &attackers, &Defense::none());
        prop_assert_eq!(&c1, &c2);
        let sweep = SweepResult::new(attackers.clone(), c1.clone());
        for (i, (&attacker, &count)) in attackers.iter().zip(&c1).enumerate() {
            if attacker == target {
                continue;
            }
            let o = sim.run(Attack::origin(attacker, target), &Defense::none());
            prop_assert_eq!(o.pollution_count() as u32, count, "row {}", i);
        }
        prop_assert_eq!(sweep.curve().num_attacks(), attackers.len());
    }
}

/// The checked-in regressions from `properties.proptest-regressions`
/// (seed = 0 / seed = 427, both ti = 0) shrank to the same mechanism:
/// a stub attacker whose *transit* sibling launders the hijack out of the
/// organization. The stub's own exports are filtered at its providers and
/// peers, but the route crosses the internal sibling link unfiltered,
/// inherits Origin preference, and the transit sibling re-exports it —
/// with a non-stub sender — to the rest of the graph. Pinned here as an
/// explicit topology so the case survives RNG changes.
#[test]
fn pinned_regression_stub_sibling_laundering() {
    use bgpsim_topology::{AsId, LinkKind, TopologyBuilder};

    let mut b = TopologyBuilder::new();
    for asn in 1..=6 {
        b.add_as(AsId::new(asn));
    }
    let p2c = LinkKind::ProviderToCustomer;
    b.add_link(AsId::new(1), AsId::new(3), p2c).unwrap(); // P → S (stub attacker)
    b.add_link(AsId::new(1), AsId::new(2), p2c).unwrap(); // P → T (transit sibling)
    b.add_link(AsId::new(1), AsId::new(4), p2c).unwrap(); // P → V (target)
    b.add_link(AsId::new(1), AsId::new(6), p2c).unwrap(); // P → X (bystander)
    b.add_link(AsId::new(2), AsId::new(5), p2c).unwrap(); // T → C (T's customer)
    b.add_link(AsId::new(2), AsId::new(3), LinkKind::SiblingToSibling)
        .unwrap(); // T ~ S
    let topo = b.build().unwrap();

    let s = topo.index_of(AsId::new(3)).unwrap();
    let t = topo.index_of(AsId::new(4)).unwrap();
    assert!(topo.is_stub(s));
    assert!(topo.is_transit(topo.index_of(AsId::new(2)).unwrap()));

    let sim = Simulator::new(&topo, PolicyConfig::paper());
    let o = sim.run(Attack::origin(s, t), &Defense::stub_defense_only());
    for &p in &o.polluted {
        assert!(
            topo.same_organization(p, s),
            "stub {} polluted {} outside its organization",
            topo.id_of(s),
            topo.id_of(p)
        );
    }
}
