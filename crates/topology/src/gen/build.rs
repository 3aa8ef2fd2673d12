//! The synthetic-Internet construction algorithm.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gen::{GeneratedInternet, InternetParams};
use crate::region::{RegionId, RegionMap};
use crate::{AddressSpace, AsId, AsIndex, LinkKind, TopologyBuilder};

/// Node roles planned before any link is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Tier1,
    Tier2,
    Transit,
    Stub,
    IslandGateway,
    IslandTransit,
    IslandStub,
    LadderTransit,
    LadderStub,
}

/// Weighted sampler over transit ASes with a locality re-ranking step.
struct TransitSampler {
    /// Cumulative weights aligned with `items`.
    cum: Vec<f64>,
    items: Vec<u32>,
}

impl TransitSampler {
    fn new(items: Vec<u32>, weights: &[f64]) -> TransitSampler {
        let mut cum = Vec::with_capacity(items.len());
        let mut acc = 0.0;
        for &i in &items {
            acc += weights[i as usize];
            cum.push(acc);
        }
        TransitSampler { cum, items }
    }

    fn total(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// One weighted draw.
    fn sample(&self, rng: &mut StdRng) -> u32 {
        let t = rng.random_range(0.0..self.total());
        let pos = self.cum.partition_point(|&c| c <= t);
        self.items[pos.min(self.items.len() - 1)]
    }

    /// Draws `k` candidates and keeps the one closest (in circular
    /// longitude) to `theta`. Returns `u32::MAX` if the sampler is empty.
    fn sample_local(&self, rng: &mut StdRng, theta: f64, longitude: &[f64], k: usize) -> u32 {
        if self.items.is_empty() || self.total() <= 0.0 {
            return u32::MAX;
        }
        let mut best = u32::MAX;
        let mut best_d = f64::INFINITY;
        for _ in 0..k.max(1) {
            let c = self.sample(rng);
            let d = circ_dist(theta, longitude[c as usize]);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }
}

fn circ_dist(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// Generates a synthetic Internet. Deterministic for a given `(params,
/// seed)` pair.
///
/// # Panics
///
/// Panics if the parameters are degenerate (e.g. `num_ases` too small to
/// hold the tier-1 clique, island and ladders). The presets are always
/// valid.
pub fn generate(params: &InternetParams, seed: u64) -> GeneratedInternet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.num_ases;
    let t1 = params.tier1_count;
    let t2 = params.tier2_count;

    // ---- Plan the index layout -------------------------------------------------
    let (island_size, island_gw) = match params.island {
        Some(p) => (p.size, p.gateways.max(1).min(p.size)),
        None => (0, 0),
    };
    // Per ladder: a transit chain of (depth-1) plus two stubs per depth level.
    let ladder_chain = params.ladder_depth.saturating_sub(1);
    let ladder_block = ladder_chain + 2 * params.ladder_depth;
    let ladder_total = params.ladder_count * ladder_block;
    let mainland = n
        .checked_sub(island_size + ladder_total)
        .expect("num_ases too small for island + ladders");
    assert!(
        mainland > t1 + t2 + 8,
        "num_ases too small for the requested tier counts"
    );
    let transit_target = ((n as f64) * params.transit_fraction).round() as usize;
    let island_transit = if island_size > 0 {
        ((island_size as f64) * 0.10).round() as usize + island_gw
    } else {
        0
    };
    let mainland_other_transit = transit_target
        .saturating_sub(t1 + t2 + island_transit + params.ladder_count * ladder_chain)
        .clamp(4, mainland - t1 - t2 - 4);

    // Index ranges (dense indices are assigned in this order).
    let r_tier1 = 0..t1;
    let r_tier2 = t1..t1 + t2;
    let r_transit = t1 + t2..t1 + t2 + mainland_other_transit;
    let r_stub = r_transit.end..mainland;
    let r_ladder = mainland..mainland + ladder_total;
    let r_island = r_ladder.end..n;
    debug_assert_eq!(r_island.end, n);

    let mut role = vec![Role::Stub; n];
    for i in r_tier1.clone() {
        role[i] = Role::Tier1;
    }
    for i in r_tier2.clone() {
        role[i] = Role::Tier2;
    }
    for i in r_transit.clone() {
        role[i] = Role::Transit;
    }
    for i in r_ladder.clone() {
        role[i] = Role::LadderStub; // refined below
    }
    for i in r_island.clone() {
        role[i] = Role::IslandStub; // refined below
    }

    // ---- Longitude and regions -------------------------------------------------
    // The island occupies a dedicated narrow slice and a dedicated region id.
    let island_region = if island_size > 0 {
        Some(RegionId(params.num_regions))
    } else {
        None
    };
    let island_theta = 0.5; // center of the island slice
    let mut longitude = vec![0.0f64; n];
    let mut region = vec![RegionId(0); n];
    for i in 0..n {
        if r_island.contains(&i) {
            longitude[i] = island_theta + rng.random_range(-0.01..0.01);
            region[i] = island_region.expect("island indices imply island");
        } else {
            longitude[i] = rng.random_range(0.0..1.0);
            region[i] = RegionId((longitude[i] * params.num_regions as f64) as u16);
        }
    }
    // Tier-1s are spread evenly so every region has a nearby backbone.
    for (k, i) in r_tier1.clone().enumerate() {
        longitude[i] = k as f64 / t1 as f64;
        region[i] = RegionId((longitude[i] * params.num_regions as f64) as u16);
    }

    // ---- Attachment attractiveness (Zipf over mainland transits) ---------------
    let mut weight = vec![0.0f64; n];
    let mainland_transits: Vec<u32> = r_tier1
        .clone()
        .chain(r_tier2.clone())
        .chain(r_transit.clone())
        .map(|i| i as u32)
        .collect();
    for (rank, &i) in mainland_transits.iter().enumerate() {
        weight[i as usize] =
            1.0 / ((rank as f64 + 1.0 + params.zipf_offset).powf(params.zipf_exponent));
    }

    let mut builder = TopologyBuilder::with_capacity(n, n * 4);
    for i in 0..n {
        builder.add_as(AsId::new(i as u32 + 1));
    }
    for i in r_tier1.clone() {
        builder.declare_tier1(AsId::new(i as u32 + 1));
    }
    let link = |builder: &mut TopologyBuilder, a: usize, b: usize, kind: LinkKind| -> bool {
        let (a, b) = (AsId::new(a as u32 + 1), AsId::new(b as u32 + 1));
        if a == b || builder.has_link(a, b) {
            return false;
        }
        builder.add_link(a, b, kind).expect("checked link");
        true
    };

    // ---- Tier-1 clique ----------------------------------------------------------
    for i in r_tier1.clone() {
        for j in i + 1..t1 {
            link(&mut builder, i, j, LinkKind::PeerToPeer);
        }
    }

    // ---- Tier-2 multi-homing to the clique --------------------------------------
    for i in r_tier2.clone() {
        let homes = rng.random_range(2..=5.min(t1));
        let mut picked = Vec::new();
        while picked.len() < homes {
            let p = rng.random_range(0..t1);
            if !picked.contains(&p) {
                picked.push(p);
                link(&mut builder, p, i, LinkKind::ProviderToCustomer);
            }
        }
    }

    // ---- Other mainland transit: preferential attachment + chains ---------------
    // Only lower-index transits are candidate providers, so p2c stays acyclic.
    let sampler_all = TransitSampler::new(mainland_transits.clone(), &weight);
    let mut chain_prev: Option<usize> = None;
    let mut chain_left = 0usize;
    for i in r_transit.clone() {
        if chain_left > 0 {
            // Continue an existing chain: single provider, the previous link.
            let prev = chain_prev.expect("chain in progress");
            link(&mut builder, prev, i, LinkKind::ProviderToCustomer);
            chain_prev = Some(i);
            chain_left -= 1;
            continue;
        }
        if rng.random_bool(params.chain_fraction) && params.max_chain_len >= 2 {
            chain_left = rng.random_range(1..params.max_chain_len);
            chain_prev = Some(i);
        }
        let nproviders =
            1 + usize::from(rng.random_bool(0.45)) + usize::from(rng.random_bool(0.15));
        let mut got = 0;
        let mut attempts = 0;
        while got < nproviders && attempts < 64 {
            attempts += 1;
            let p = sampler_all.sample_local(
                &mut rng,
                longitude[i],
                &longitude,
                params.locality_candidates,
            ) as usize;
            if p >= i {
                continue; // keep the provider DAG acyclic
            }
            if link(&mut builder, p, i, LinkKind::ProviderToCustomer) {
                got += 1;
            }
        }
        if got == 0 {
            // Guarantee connectivity: fall back to a random tier-1.
            let p = rng.random_range(0..t1);
            link(&mut builder, p, i, LinkKind::ProviderToCustomer);
        }
    }

    // ---- Mainland stubs ----------------------------------------------------------
    for i in r_stub.clone() {
        let mut nproviders = 1;
        if rng.random_bool(params.stub_multihome_fraction) {
            nproviders = 2;
            if rng.random_bool(params.stub_third_provider_prob) {
                nproviders = 3;
            }
        }
        let mut got = 0;
        let mut attempts = 0;
        while got < nproviders && attempts < 64 {
            attempts += 1;
            let p = sampler_all.sample_local(
                &mut rng,
                longitude[i],
                &longitude,
                params.locality_candidates,
            ) as usize;
            if link(&mut builder, p, i, LinkKind::ProviderToCustomer) {
                got += 1;
            }
        }
        if got == 0 {
            let p = rng.random_range(0..t1);
            link(&mut builder, p, i, LinkKind::ProviderToCustomer);
        }
    }

    // ---- Ladders: guaranteed depth exemplars -------------------------------------
    // Each ladder hangs a transit chain off a tier-1 and attaches one
    // single-homed and one multi-homed stub at every depth 1..=ladder_depth.
    // Multi-homed ladder stubs take their second provider from the *next*
    // ladder at the same level, preserving their depth.
    let mut ladder_transits: Vec<Vec<usize>> = Vec::with_capacity(params.ladder_count);
    {
        let mut cursor = r_ladder.start;
        for l in 0..params.ladder_count {
            let anchor = l % t1.max(1);
            let chain = Vec::with_capacity(ladder_chain);
            let mut prev = anchor;
            for _ in 0..ladder_chain {
                let c = cursor;
                cursor += 1;
                role[c] = Role::LadderTransit;
                link(&mut builder, prev, c, LinkKind::ProviderToCustomer);
                prev = c;
            }
            ladder_transits.push(chain.clone());
            ladder_transits[l] = {
                let start = cursor - ladder_chain;
                (start..cursor).collect()
            };
            // Stub indices for this ladder follow its chain.
            cursor += 2 * params.ladder_depth;
        }
        // Second pass: attach stubs now that every chain exists.
        let mut cursor = r_ladder.start;
        for l in 0..params.ladder_count {
            let anchor = l % t1.max(1);
            cursor += ladder_chain;
            let provider_at = |level: usize, ladder: &Vec<usize>| -> usize {
                if level == 0 {
                    anchor
                } else {
                    ladder[level - 1]
                }
            };
            for level in 0..params.ladder_depth {
                let single = cursor;
                let multi = cursor + 1;
                cursor += 2;
                role[single] = Role::LadderStub;
                role[multi] = Role::LadderStub;
                let p = provider_at(level, &ladder_transits[l]);
                link(&mut builder, p, single, LinkKind::ProviderToCustomer);
                link(&mut builder, p, multi, LinkKind::ProviderToCustomer);
                // Second home at the same depth, from the next ladder (or a
                // second tier-1 for level 0).
                if params.ladder_count > 1 {
                    let other = (l + 1) % params.ladder_count;
                    let p2 = if level == 0 {
                        let alt = other % t1.max(1);
                        if alt != anchor {
                            alt
                        } else {
                            (anchor + 1) % t1.max(1)
                        }
                    } else {
                        ladder_transits[other][level - 1]
                    };
                    link(&mut builder, p2, multi, LinkKind::ProviderToCustomer);
                } else if t1 > 1 {
                    link(
                        &mut builder,
                        (anchor + 1) % t1,
                        multi,
                        LinkKind::ProviderToCustomer,
                    );
                }
            }
        }
        debug_assert_eq!(cursor, r_ladder.end);
    }

    // ---- Island region -------------------------------------------------------------
    let mut island_gateways: Vec<AsIndex> = Vec::new();
    if island_size > 0 {
        let gw_range = r_island.start..r_island.start + island_gw;
        let it_count = island_transit - island_gw;
        let it_range = gw_range.end..gw_range.end + it_count;
        let is_range = it_range.end..n;
        // Gateways buy mainland transit (from tier-2s) and peer together.
        for g in gw_range.clone() {
            role[g] = Role::IslandGateway;
            island_gateways.push(AsIndex::new(g as u32));
            let homes = rng.random_range(1..=2usize);
            for _ in 0..homes {
                let p = t1 + rng.random_range(0..t2);
                link(&mut builder, p, g, LinkKind::ProviderToCustomer);
            }
        }
        for a in gw_range.clone() {
            for b in a + 1..gw_range.end {
                link(&mut builder, a, b, LinkKind::PeerToPeer);
            }
        }
        // Island transits: the first gateway acts as the region's dominant
        // hub (the paper's VOCUS analogue) — most transits buy from it —
        // while a chain bias keeps real depth (§VII's target sits at
        // depth 5).
        let hub = gw_range.start;
        let mut prev_it: Option<usize> = None;
        for (k, i) in it_range.clone().enumerate() {
            role[i] = Role::IslandTransit;
            let deep = prev_it.is_some() && rng.random_bool(0.55);
            let p = if deep {
                prev_it.expect("deep implies previous transit")
            } else if k == 0 || rng.random_bool(0.75) {
                hub
            } else {
                gw_range.start + rng.random_range(0..island_gw)
            };
            link(&mut builder, p, i, LinkKind::ProviderToCustomer);
            // Occasional second home to the hub keeps it dominant.
            if rng.random_bool(0.25) {
                link(&mut builder, hub, i, LinkKind::ProviderToCustomer);
            }
            // A few island transits buy mainland transit directly (the
            // paper's NZ has members homed to Australian providers).
            if rng.random_bool(0.15) {
                let p = sampler_all.sample(&mut rng) as usize;
                link(&mut builder, p, i, LinkKind::ProviderToCustomer);
            }
            prev_it = Some(i);
        }
        // Island stubs attach to island transits (or gateways when there
        // are no inner transits); a fraction leak to mainland providers,
        // matching regions whose members multi-home abroad.
        for i in is_range.clone() {
            role[i] = Role::IslandStub;
            let pool_start = if it_count > 0 {
                it_range.start
            } else {
                gw_range.start
            };
            let pool_len = if it_count > 0 { it_count } else { island_gw };
            let homes = 1 + usize::from(rng.random_bool(0.4));
            let mut got = 0;
            let mut attempts = 0;
            while got < homes && attempts < 32 {
                attempts += 1;
                let p = pool_start + rng.random_range(0..pool_len);
                if link(&mut builder, p, i, LinkKind::ProviderToCustomer) {
                    got += 1;
                }
            }
            if rng.random_bool(0.18) {
                let p = sampler_all.sample(&mut rng) as usize;
                link(&mut builder, p, i, LinkKind::ProviderToCustomer);
            }
        }
    }

    // ---- Peer links ------------------------------------------------------------------
    let p2c_so_far = builder.num_links();
    let ratio = params.peer_link_ratio.clamp(0.0, 0.8);
    let peer_target = ((p2c_so_far as f64) * ratio / (1.0 - ratio)) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    let stub_lo = r_stub.start;
    let stub_len = r_stub.len();
    while added < peer_target && attempts < peer_target * 20 + 100 {
        attempts += 1;
        let a = sampler_all.sample(&mut rng) as usize;
        let b = if stub_len > 0 && rng.random_bool(0.15) {
            // Content-network style peering: a transit peers with a stub.
            stub_lo + rng.random_range(0..stub_len)
        } else {
            sampler_all.sample_local(
                &mut rng,
                longitude[a],
                &longitude,
                params.locality_candidates,
            ) as usize
        };
        if a == b {
            continue;
        }
        if link(&mut builder, a, b, LinkKind::PeerToPeer) {
            added += 1;
        }
    }

    // ---- Sibling groups -----------------------------------------------------------
    let mut formed = 0usize;
    let mut attempts = 0usize;
    while formed < params.sibling_group_count && attempts < params.sibling_group_count * 30 + 30 {
        attempts += 1;
        if stub_len < 8 {
            break;
        }
        let a = stub_lo + rng.random_range(0..stub_len);
        let size = rng.random_range(2..=4usize);
        let mut members = vec![a];
        let mut tries = 0;
        while members.len() < size && tries < 24 {
            tries += 1;
            let b = stub_lo + rng.random_range(0..stub_len);
            if region[b] == region[a] && !members.contains(&b) {
                members.push(b);
            }
        }
        if members.len() >= 2 {
            let mut ok = true;
            for w in members.windows(2) {
                ok &= link(&mut builder, w[0], w[1], LinkKind::SiblingToSibling);
            }
            if ok {
                formed += 1;
            }
        }
    }

    // ---- Freeze and derive metadata -------------------------------------------------
    let topology = builder.build().expect("generator topologies are non-empty");
    let regions = RegionMap::from_labels(&topology, region);
    let mut space = vec![0u64; n];
    for ix in topology.indices() {
        let i = ix.usize();
        let deg = topology.degree(ix) as f64;
        space[i] = match role[i] {
            Role::Tier1 => 256 + (deg.powf(1.1) * 4.0) as u64,
            Role::Tier2 | Role::IslandGateway => 64 + (deg.powf(1.1) * 2.0) as u64,
            Role::Transit | Role::IslandTransit | Role::LadderTransit => {
                8 + (deg.powf(1.05)) as u64
            }
            Role::Stub | Role::IslandStub | Role::LadderStub => {
                // Mostly tiny originators with a skewed tail.
                let r: f64 = rng.random_range(0.0..1.0);
                1 + (16.0 * r.powi(4)) as u64
            }
        };
    }
    let address_space = AddressSpace::from_weights(&topology, space);
    GeneratedInternet {
        topology,
        regions,
        address_space,
        tier1_count: t1,
        island_region,
        island_gateways,
        longitude,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifyConfig};
    use crate::metrics::DepthMap;

    #[test]
    fn tiny_generation_is_deterministic() {
        let p = InternetParams::tiny();
        let a = generate(&p, 7);
        let b = generate(&p, 7);
        assert_eq!(a.topology.num_ases(), b.topology.num_ases());
        assert_eq!(a.topology.num_links(), b.topology.num_links());
        for ix in a.topology.indices() {
            assert_eq!(a.topology.neighbors(ix), b.topology.neighbors(ix));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = InternetParams::tiny();
        let a = generate(&p, 1);
        let b = generate(&p, 2);
        let same = a
            .topology
            .indices()
            .all(|ix| a.topology.neighbors(ix) == b.topology.neighbors(ix));
        assert!(!same, "distinct seeds should yield distinct graphs");
    }

    #[test]
    fn tier1_clique_is_complete_and_provider_free() {
        let net = generate(&InternetParams::tiny(), 3);
        let t = &net.topology;
        let t1s = t.tier1s();
        assert_eq!(t1s.len(), net.tier1_count);
        for &a in &t1s {
            assert_eq!(t.num_providers(a), 0, "tier-1 {a} must not buy transit");
            for &b in &t1s {
                if a != b {
                    assert!(t.peers(a).any(|p| p == b), "tier-1s {a} and {b} must peer");
                }
            }
        }
    }

    #[test]
    fn everyone_reaches_tier1_via_providers() {
        let net = generate(&InternetParams::tiny(), 11);
        let d = DepthMap::to_tier1(&net.topology);
        assert_eq!(d.num_unreachable(), 0, "all ASes need a provider chain up");
    }

    #[test]
    fn depth_exemplars_exist_up_to_ladder_depth() {
        let p = InternetParams::tiny();
        let net = generate(&p, 5);
        let d = DepthMap::to_tier1(&net.topology);
        let hist = d.histogram();
        for depth in 1..=p.ladder_depth {
            assert!(
                hist.get(depth).copied().unwrap_or(0) > 0,
                "no AS at depth {depth}; histogram {hist:?}"
            );
        }
    }

    #[test]
    fn transit_share_is_near_target() {
        let p = InternetParams::small();
        let net = generate(&p, 9);
        let share = net.topology.transit_ases().len() as f64 / net.topology.num_ases() as f64;
        assert!(
            (0.08..=0.30).contains(&share),
            "transit share {share} out of range"
        );
    }

    #[test]
    fn island_is_mostly_isolated_behind_gateways() {
        let p = InternetParams::small();
        let net = generate(&p, 13);
        let t = &net.topology;
        let island = net.island_region.expect("preset has an island");
        let members = net.regions.members(island);
        assert!(members.len() >= 12);
        // Non-gateway members connect to the mainland only by *buying
        // transit* there (the leakage fraction); most have island-only
        // neighborhoods, and nobody sells transit or peers across the
        // boundary except the gateways.
        let gw: std::collections::HashSet<_> = net.island_gateways.iter().copied().collect();
        let mut fully_internal = 0usize;
        for &m in members {
            if gw.contains(&m) {
                continue;
            }
            let mut internal = true;
            for nb in t.neighbors(m) {
                if net.regions.region_of(nb.index) != island {
                    internal = false;
                    assert_eq!(
                        nb.rel,
                        crate::Relationship::Provider,
                        "island AS {m} has a non-provider mainland link"
                    );
                }
            }
            fully_internal += usize::from(internal);
        }
        let non_gateway = members.len() - gw.len();
        assert!(
            fully_internal as f64 >= 0.6 * non_gateway as f64,
            "too much leakage: {fully_internal}/{non_gateway} internal"
        );
        // Gateways do connect to the mainland.
        assert!(net
            .island_gateways
            .iter()
            .any(|&g| { t.providers(g).any(|p| net.regions.region_of(p) != island) }));
        // The hub (first gateway) dominates: it has the most island
        // customers among the gateways.
        let hub = net.island_gateways[0];
        let island_customers = |g: crate::AsIndex| {
            t.customers(g)
                .filter(|&c| net.regions.region_of(c) == island)
                .count()
        };
        for &g in &net.island_gateways[1..] {
            assert!(island_customers(hub) >= island_customers(g));
        }
    }

    #[test]
    fn degree_cohorts_are_monotone_and_small() {
        let net = generate(&InternetParams::small(), 17);
        let t = &net.topology;
        let count_at_least = |k: usize| t.indices().filter(|&ix| t.degree(ix) >= k).count();
        let c50 = count_at_least(50);
        let c25 = count_at_least(25);
        let c10 = count_at_least(10);
        assert!(c50 <= c25 && c25 <= c10);
        assert!(c10 < t.num_ases() / 6, "degree tail too fat: {c10}");
        assert!(c50 >= 1, "no high-degree cores generated");
    }

    #[test]
    fn classification_finds_tier2s() {
        let net = generate(&InternetParams::small(), 21);
        let c = classify(
            &net.topology,
            &ClassifyConfig {
                tier2_min_degree: 10,
                tier2_min_tier1_adjacencies: 2,
            },
        );
        assert!(c.count(crate::classify::TierClass::Tier2) > 0);
    }

    #[test]
    fn address_space_favors_the_core() {
        let net = generate(&InternetParams::tiny(), 23);
        let t1 = net.topology.tier1s()[0];
        let some_stub = net.topology.stub_ases()[0];
        assert!(net.address_space.weight(t1) > net.address_space.weight(some_stub));
        assert!(net.address_space.total() > 0);
    }

    #[test]
    fn no_island_when_disabled() {
        let mut p = InternetParams::tiny();
        p.island = None;
        let net = generate(&p, 3);
        assert!(net.island_region.is_none());
        assert!(net.island_gateways.is_empty());
        assert_eq!(net.regions.num_regions() as u16, {
            // all regions are longitude slices
            let mut ids = net.regions.region_ids();
            ids.retain(|r| r.0 >= p.num_regions);
            assert!(ids.is_empty());
            net.regions.num_regions() as u16
        });
    }

    #[test]
    fn longitudes_and_regions_are_consistent() {
        let p = InternetParams::tiny();
        let net = generate(&p, 8);
        assert_eq!(net.longitude.len(), net.topology.num_ases());
        for ix in net.topology.indices() {
            let theta = net.longitude[ix.usize()];
            assert!(
                (-0.02..1.02).contains(&theta),
                "longitude {theta} out of band"
            );
            let region = net.regions.region_of(ix);
            if Some(region) == net.island_region {
                continue; // island has a dedicated id beyond the slices
            }
            assert!(
                region.0 < p.num_regions,
                "mainland region {region} out of range"
            );
        }
        // Region membership lists partition the AS set.
        let total: usize = net
            .regions
            .region_ids()
            .iter()
            .map(|&r| net.regions.members(r).len())
            .sum();
        assert_eq!(total, net.topology.num_ases());
    }

    #[test]
    fn address_space_total_is_positive_and_stable() {
        let p = InternetParams::tiny();
        let a = generate(&p, 12);
        let b = generate(&p, 12);
        assert_eq!(a.address_space.total(), b.address_space.total());
        assert!(a.address_space.total() > a.topology.num_ases() as u64);
    }

    #[test]
    fn sibling_groups_are_formed() {
        let mut p = InternetParams::small();
        p.sibling_group_count = 5;
        let net = generate(&p, 31);
        assert!(net.topology.num_s2s_links() >= 5);
        assert!(net.topology.num_sibling_groups() < net.topology.num_ases());
        // Groups are drawn from stubs only, so no declared tier-1 shares an
        // organization with another AS: the race solver declines a
        // tier-1 with a sibling under the paper policy, and no lab has one.
        let t = &net.topology;
        for tier1 in t.tier1s() {
            let orgs = t.indices().filter(|&ix| t.same_organization(ix, tier1));
            assert_eq!(orgs.count(), 1, "tier-1 {tier1} has a sibling");
        }
    }
}
