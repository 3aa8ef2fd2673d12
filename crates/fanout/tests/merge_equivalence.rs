//! The fan-out contract: stride-sharding an attacker pool and merging
//! the per-shard sweep rows positionally is **bit-identical** to sweeping
//! the whole pool on one node — across random topologies, shard counts,
//! and both routing policies. This is what lets the coordinator retry
//! shards freely, on any worker: shard evaluation is pure, so any correct
//! execution of the plan produces the same bytes.

use proptest::prelude::*;

use bgpsim_fanout::ShardPlan;
use bgpsim_hijack::{Defense, Simulator};
use bgpsim_routing::PolicyConfig;
use bgpsim_topology::gen::{generate, InternetParams};
use bgpsim_topology::AsIndex;

fn tiny_internet(seed: u64) -> bgpsim_topology::gen::GeneratedInternet {
    let mut p = InternetParams::sized(120);
    p.island = None;
    p.ladder_count = 1;
    generate(&p, seed)
}

/// The shard counts the service tier actually produces (1 worker × 1
/// shard up to e.g. 2 workers × 3 shards, plus a ragged prime).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// merge(sweep(shard_0), …, sweep(shard_{n-1})) == sweep(pool),
    /// byte for byte, for every shard count and both policies.
    #[test]
    fn merge_matches_single_node(
        seed in 0u64..200,
        ti in 0usize..120,
        shard_sel in 0usize..SHARD_COUNTS.len(),
        strict in 0usize..2,
        defended in 0usize..2,
    ) {
        let (strict, defended) = (strict == 1, defended == 1);
        let net = tiny_internet(seed);
        let topo = &net.topology;
        let n = topo.num_ases();
        let target = AsIndex::new((ti % n) as u32);
        let policy = if strict {
            PolicyConfig::strict_gao_rexford()
        } else {
            PolicyConfig::paper()
        };
        let defense = if defended {
            // A deployed defense exercises the baseline-backed sweep path.
            Defense::validators(topo, topo.transit_ases().into_iter().take(8))
        } else {
            Defense::none()
        };
        let sim = Simulator::new(topo, policy);
        let pool: Vec<AsIndex> = topo
            .indices()
            .filter(|&a| a != target)
            .step_by(2)
            .collect();

        let single = sim.sweep_attackers(target, &pool, &defense);

        let num_shards = SHARD_COUNTS[shard_sel];
        let plan = ShardPlan::new(pool.len(), num_shards);
        let shard_rows: Vec<Vec<u32>> = (0..plan.num_shards)
            .map(|k| {
                let members = plan.members(&pool, k);
                sim.sweep_attackers(target, &members, &defense)
            })
            .collect();
        let merged = plan.merge(&shard_rows).expect("well-formed shard rows");

        prop_assert_eq!(&merged, &single, "seed {} shards {}", seed, num_shards);
    }
}
