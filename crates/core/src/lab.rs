//! The experiment laboratory: one generated Internet plus the cast of
//! representative ASes every figure needs.

use bgpsim_hijack::detection::ProbeSet;
use bgpsim_hijack::Simulator;
use bgpsim_topology::classify::{classify, effective_depth, Classification, ClassifyConfig};
use bgpsim_topology::gen::{generate, GeneratedInternet};
use bgpsim_topology::metrics::DepthMap;
use bgpsim_topology::{select, AsIndex, Topology};

use crate::config::ExperimentConfig;

/// The named roles the paper's experiments revolve around, selected from
/// the synthetic topology by the same criteria the paper states for its
/// real ASes (see `DESIGN.md` §4, "Named ASes").
#[derive(Debug, Clone)]
pub struct Cast {
    /// AS98 analogue: depth-1, multi-homed, relatively attack resistant.
    pub resistant_stub: AsIndex,
    /// AS35 analogue: depth-1, single-homed.
    pub single_homed_stub: AsIndex,
    /// Depth-2 stub (the concavity flip happens between depths 1 and 2).
    pub depth2_stub: AsIndex,
    /// AS55857 analogue: the deepest stub — "very vulnerable".
    pub vulnerable_stub: AsIndex,
    /// Its depth (paper: 5).
    pub vulnerable_depth: u32,
    /// A tier-1 AS, for the most-resistant curve.
    pub tier1: AsIndex,
    /// AS4 analogue: an aggressive low-depth, high-degree transit.
    pub aggressive_attacker: AsIndex,
    /// Stubs under large tier-2 providers at effective depths 1 and 2
    /// (fig. 3's cast), when present.
    pub tier2_stub_depth1: Option<AsIndex>,
    /// See [`Cast::tier2_stub_depth1`].
    pub tier2_stub_depth2: Option<AsIndex>,
}

/// A generated Internet plus derived metrics and the experiment cast.
#[derive(Debug)]
pub struct Lab {
    config: ExperimentConfig,
    net: GeneratedInternet,
    depths: DepthMap,
    classification: Classification,
    effective_depths: DepthMap,
    cast: Cast,
}

impl Lab {
    /// Generates the Internet for `config` and selects the cast.
    ///
    /// # Panics
    ///
    /// Panics if the generated topology lacks the structures the paper's
    /// experiments require (depth-1 and deep stubs); the generator's
    /// ladders guarantee them for all presets.
    pub fn new(config: ExperimentConfig) -> Lab {
        let net = generate(&config.params, config.seed);
        let topo = &net.topology;
        let depths = DepthMap::to_tier1(topo);
        // Scale the tier-2 degree heuristic with topology size.
        // "Large tier-2 providers" means the top transit band, not any
        // multi-homed AS: use the paper's degree >= 300 cohort threshold,
        // scaled like the fig. 5/6 deployment cohorts.
        let classify_config = ClassifyConfig {
            tier2_min_degree: ((300.0 * config.scale().sqrt()).round() as usize).max(12),
            tier2_min_tier1_adjacencies: 2,
        };
        let classification = classify(topo, &classify_config);
        let effective_depths = effective_depth(topo, &classification);
        let cast = Lab::pick_cast(topo, &depths, &effective_depths);
        Lab {
            config,
            net,
            depths,
            classification,
            effective_depths,
            cast,
        }
    }

    fn pick_cast(topo: &Topology, depths: &DepthMap, eff: &DepthMap) -> Cast {
        use select::Homing;
        // Exemplars are chosen with *comparable homing* (2-3 providers for
        // the multi-homed roles) so the depth gradient is not confounded
        // by one stub happening to be massively multi-homed.
        let stub_with = |depth: u32, min_p: usize, max_p: usize| {
            topo.indices().find(|&ix| {
                topo.is_stub(ix)
                    && depths.depth(ix) == Some(depth)
                    && (min_p..=max_p).contains(&topo.num_providers(ix))
                    && topo.num_peers(ix) == 0
            })
        };
        let resistant_stub = stub_with(1, 2, 3)
            .or_else(|| select::stub_at_depth(topo, depths, 1, Homing::MultiHomed))
            .expect("generator guarantees a depth-1 multi-homed stub");
        let single_homed_stub = stub_with(1, 1, 1)
            .or_else(|| select::stub_at_depth(topo, depths, 1, Homing::SingleHomed))
            .expect("generator guarantees a depth-1 single-homed stub");
        let depth2_stub = stub_with(2, 2, 3)
            .or_else(|| select::stub_at_depth(topo, depths, 2, Homing::Any))
            .expect("generator guarantees a depth-2 stub");
        let vulnerable_stub = select::deepest_stub(topo, depths).expect("topology has stubs");
        let vulnerable_depth = depths
            .depth(vulnerable_stub)
            .expect("deepest stub is connected");
        let tier1 = topo.tier1s()[0];
        let aggressive_attacker =
            select::aggressive_transit(topo, depths).expect("topology has transit ASes");
        // Fig. 3 cast: stubs whose *effective* depth (tier-1 ∪ tier-2
        // seeds) is small although their tier-1 depth is larger — i.e.
        // stubs that actually live under a tier-2.
        let under_tier2 = |want_eff: u32| {
            topo.indices().find(|&ix| {
                topo.is_stub(ix)
                    && eff.depth(ix) == Some(want_eff)
                    && depths.depth(ix).is_some_and(|d| d > want_eff)
                    && topo.num_providers(ix) <= 3
                    && topo.num_peers(ix) == 0
            })
        };
        Cast {
            resistant_stub,
            single_homed_stub,
            depth2_stub,
            vulnerable_stub,
            vulnerable_depth,
            tier1,
            aggressive_attacker,
            tier2_stub_depth1: under_tier2(1),
            tier2_stub_depth2: under_tier2(2),
        }
    }

    /// The configuration the lab was built with.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The generated Internet (topology + regions + address space).
    pub fn net(&self) -> &GeneratedInternet {
        &self.net
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.net.topology
    }

    /// Depth to the nearest tier-1.
    pub fn depths(&self) -> &DepthMap {
        &self.depths
    }

    /// Tier labels.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The paper's re-defined depth (tier-1 ∪ tier-2 seeds).
    pub fn effective_depths(&self) -> &DepthMap {
        &self.effective_depths
    }

    /// The selected cast.
    pub fn cast(&self) -> &Cast {
        &self.cast
    }

    /// Builds a simulator over this lab's topology, dispatching through the
    /// configured [`EngineChoice`](bgpsim_hijack::EngineChoice). Each call
    /// builds a fresh [`SimNet`](bgpsim_routing::SimNet): 7.0–7.4 ms on the
    /// 42,697-AS paper lab (one thread, 2-vCPU Xeon VM), about a quarter of
    /// a 16-attack fig. 7 run there, so build one per experiment run and
    /// share it.
    pub fn simulator(&self) -> Simulator<'_> {
        self.simulator_over(&self.net.topology)
    }

    /// A simulator under this lab's policy and engine over another
    /// topology — a what-if variant of the lab's own, such as §VII's
    /// re-homed target.
    pub fn simulator_over<'t>(&self, topo: &'t Topology) -> Simulator<'t> {
        Simulator::new(topo, self.config.policy).with_engine(self.config.engine)
    }

    /// All ASes, strided per the configuration — the fig. 2 attacker pool.
    pub fn strided_attackers(&self) -> Vec<AsIndex> {
        self.net
            .topology
            .indices()
            .step_by(self.config.attacker_stride.max(1))
            .collect()
    }

    /// Transit ASes, strided per the configuration — the §V attacker pool.
    pub fn strided_transit_attackers(&self) -> Vec<AsIndex> {
        self.net
            .topology
            .transit_ases()
            .into_iter()
            .step_by(self.config.attacker_stride.max(1))
            .collect()
    }

    /// The §VI probe cohort in the paper's case order: every tier-1, a
    /// BGPmon-like 24-peer mix, and every AS above a degree threshold
    /// that scales like the §V deployment cohorts. Fig. 7 and `bgpsim
    /// stream` watch the internet through these same monitors.
    pub fn probe_cohort(&self) -> Vec<ProbeSet> {
        let topo = &self.net.topology;
        let degree_threshold = ((500.0 * self.config.scale().sqrt()).round() as usize).max(4);
        vec![
            ProbeSet::tier1(topo),
            ProbeSet::bgpmon_like(topo, 24, self.config.seed ^ 0xb69),
            ProbeSet::degree_at_least(topo, degree_threshold),
        ]
    }

    /// Seed of the default update-stream tape a bare `bgpsim stream`
    /// runs.
    pub fn stream_seed(&self) -> u64 {
        self.config.seed ^ 0x57e4
    }

    /// Human-readable description of an AS for tables: ASN, degree, depth.
    pub fn describe(&self, ix: AsIndex) -> String {
        let topo = &self.net.topology;
        match self.depths.depth(ix) {
            Some(d) => format!(
                "{} (degree {}, depth {})",
                topo.id_of(ix),
                topo.degree(ix),
                d
            ),
            None => format!("{} (degree {}, detached)", topo.id_of(ix), topo.degree(ix)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_selects_a_complete_cast() {
        let lab = Lab::new(ExperimentConfig::quick());
        let cast = lab.cast();
        let topo = lab.topology();
        assert!(topo.is_stub(cast.resistant_stub));
        assert!(topo.num_providers(cast.resistant_stub) >= 2);
        assert_eq!(topo.num_providers(cast.single_homed_stub), 1);
        assert_eq!(lab.depths().depth(cast.depth2_stub), Some(2));
        assert!(cast.vulnerable_depth >= 4, "deep stub should be deep");
        assert!(topo.is_transit(cast.aggressive_attacker));
        assert_eq!(lab.depths().depth(cast.tier1), Some(0));
    }

    /// `--engine` and the policy reach every simulator an experiment
    /// builds, the ones over what-if topologies included.
    #[test]
    fn simulators_keep_the_configured_engine_and_policy() {
        use bgpsim_hijack::EngineChoice;
        use bgpsim_routing::PolicyConfig;
        let mut config = ExperimentConfig::quick();
        config.engine = EngineChoice::Generation;
        config.policy = PolicyConfig::strict_gao_rexford();
        let lab = Lab::new(config);
        let what_if = bgpsim_topology::topology_from_triples(&[(
            1,
            2,
            bgpsim_topology::LinkKind::ProviderToCustomer,
        )]);
        for sim in [lab.simulator(), lab.simulator_over(&what_if)] {
            assert_eq!(sim.engine(), EngineChoice::Generation);
            assert_eq!(*sim.policy(), PolicyConfig::strict_gao_rexford());
        }
        assert_eq!(lab.simulator_over(&what_if).topology().num_ases(), 2);
    }

    #[test]
    fn striding_reduces_pools() {
        let mut config = ExperimentConfig::quick();
        config.attacker_stride = 4;
        let lab = Lab::new(config);
        let all = lab.topology().num_ases();
        let strided = lab.strided_attackers().len();
        assert!(strided <= all / 4 + 1);
        assert!(strided > 0);
    }

    #[test]
    fn fig3_cast_lives_under_tier2() {
        let lab = Lab::new(ExperimentConfig::quick());
        if let Some(s) = lab.cast().tier2_stub_depth1 {
            assert_eq!(lab.effective_depths().depth(s), Some(1));
            assert!(lab.depths().depth(s).unwrap() > 1);
        }
    }

    #[test]
    fn describe_is_informative() {
        let lab = Lab::new(ExperimentConfig::quick());
        let text = lab.describe(lab.cast().resistant_stub);
        assert!(text.contains("degree"));
        assert!(text.contains("depth 1"));
    }
}
