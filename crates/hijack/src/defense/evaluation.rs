//! Evaluating deployment strategies against attack sweeps (§V).

use std::collections::HashMap;

use bgpsim_topology::metrics::DepthMap;
use bgpsim_topology::{AsIndex, Topology};

use super::{Defense, DeploymentStrategy};
use crate::{AttackKind, Simulator, SweepMonitor, SweepResult};

/// Outcome of one strategy against one target.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The strategy evaluated.
    pub strategy: DeploymentStrategy,
    /// How many ASes the strategy deployed on this topology.
    pub deployed: usize,
    /// The attacker sweep under this deployment.
    pub sweep: SweepResult,
}

impl StrategyOutcome {
    /// Mean pollution over successful attacks, the paper's headline number
    /// per strategy.
    pub fn mean_successful_pollution(&self) -> f64 {
        self.sweep.curve().mean_successful_pollution()
    }

    /// Attackers still achieving at least `x` polluted ASes.
    pub fn attackers_at_least(&self, x: u32) -> usize {
        self.sweep.curve().attackers_at_least(x)
    }

    /// Worst remaining attack.
    pub fn max_pollution(&self) -> u32 {
        self.sweep.curve().max_pollution()
    }
}

/// Runs the full §V experiment: for each strategy, sweep every attacker
/// against `target` and collect the residual-pollution distribution.
///
/// The target is excluded from every deployment set — a defended target
/// would trivially never be polluted anyway, and keeping it out isolates
/// the *network-side* effect the paper studies. The target is likewise
/// excluded from the attacker pool (it cannot attack itself), so curve
/// statistics like `failed_attacks` count real attacks only.
///
/// Sweep instrumentation (telemetry counters, per-attack progress,
/// cancellation) in `monitor` is forwarded to every strategy's sweep.
///
/// Strategies whose sweeps replay share the target's honest baseline:
/// each is built once per [`crate::BaselineKey`], which every
/// validator deployment with one stub setting shares.
pub fn evaluate_strategies_monitored(
    sim: &Simulator<'_>,
    target: AsIndex,
    attackers: &[AsIndex],
    strategies: &[DeploymentStrategy],
    monitor: &SweepMonitor<'_>,
) -> Vec<StrategyOutcome> {
    let pool: Vec<AsIndex> = attackers.iter().copied().filter(|&a| a != target).collect();
    let mut baselines = HashMap::new();
    strategies
        .iter()
        .map(|strategy| {
            let mut members = strategy.select(sim.topology());
            members.retain(|&ix| ix != target);
            let deployed = members.len();
            let defense = Defense::validators(sim.topology(), members);
            let baseline = sim
                .baseline_key(AttackKind::OriginHijack, target, &defense)
                .map(|key| {
                    &*baselines
                        .entry(key)
                        .or_insert_with(|| sim.baseline_for(key, monitor))
                });
            let counts = sim.sweep_chunk_monitored(target, &pool, &defense, baseline, monitor);
            StrategyOutcome {
                strategy: strategy.clone(),
                deployed,
                sweep: SweepResult::new(pool.clone(), counts),
            }
        })
        .collect()
}

/// One row of the paper's "top 5 still-potent attacks" tables: ASN,
/// pollution achieved, degree and depth of the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PotentAttackerRow {
    /// The attacker.
    pub attacker: AsIndex,
    /// ASes it still pollutes under the deployment.
    pub pollution: u32,
    /// Its total degree.
    pub degree: usize,
    /// Its depth (hops to the nearest tier-1), if connected.
    pub depth: Option<u32>,
}

/// Extracts the top-`k` still-potent attackers from a sweep, annotated
/// with the degree and depth columns the paper prints.
pub fn top_potent_attackers(
    topo: &Topology,
    depths: &DepthMap,
    sweep: &SweepResult,
    k: usize,
) -> Vec<PotentAttackerRow> {
    sweep
        .top_attackers(k)
        .into_iter()
        .map(|(attacker, pollution)| PotentAttackerRow {
            attacker,
            pollution,
            degree: topo.degree(attacker),
            depth: depths.depth(attacker),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::gen::{generate, InternetParams};

    #[test]
    fn stronger_deployments_reduce_mean_pollution() {
        let net = generate(&InternetParams::tiny(), 11);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let target = topo.stub_ases()[0];
        let attackers: Vec<AsIndex> = topo.transit_ases().into_iter().take(40).collect();
        let strategies = [
            DeploymentStrategy::None,
            DeploymentStrategy::Tier1,
            DeploymentStrategy::TopKByDegree(25),
            DeploymentStrategy::Everyone,
        ];
        let outcomes = evaluate_strategies_monitored(
            &sim,
            target,
            &attackers,
            &strategies,
            &SweepMonitor::none(),
        );
        assert_eq!(outcomes.len(), 4);
        let baseline = outcomes[0].mean_successful_pollution();
        let everyone = outcomes[3].mean_successful_pollution();
        assert!(baseline > 0.0);
        assert_eq!(everyone, 0.0, "universal deployment blocks everything");
        assert!(
            outcomes[2].mean_successful_pollution() <= baseline,
            "top-25 must not exceed baseline"
        );
        // Deployment sizes recorded.
        assert_eq!(outcomes[0].deployed, 0);
        assert!(outcomes[1].deployed >= 3);
    }

    /// One honest baseline serves the whole progression, and sharing it
    /// changes no row: each strategy's sweep equals one that built its own
    /// baseline under its own validators.
    #[test]
    fn one_baseline_serves_every_strategy() {
        use crate::SweepTelemetry;

        let net = generate(&InternetParams::tiny(), 11);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let target = topo.stub_ases()[0];
        let attackers: Vec<AsIndex> = topo.indices().step_by(3).collect();
        let strategies = DeploymentStrategy::paper_progression(5);
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        let outcomes =
            evaluate_strategies_monitored(&sim, target, &attackers, &strategies, &monitor);
        assert_eq!(telemetry.snapshot().baselines_built, 1);
        for (strategy, outcome) in strategies.iter().zip(&outcomes) {
            let mut members = strategy.select(topo);
            members.retain(|&ix| ix != target);
            let own = sim.sweep_result_monitored(
                target,
                &attackers,
                &Defense::validators(topo, members),
                &SweepMonitor::none(),
            );
            assert_eq!(outcome.sweep.attackers(), own.attackers(), "{strategy}");
            assert_eq!(outcome.sweep.counts(), own.counts(), "{strategy}");
        }
    }

    #[test]
    fn target_is_excluded_from_deployments() {
        let net = generate(&InternetParams::tiny(), 11);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        // Pick a tier-1 as the target: Tier1 strategy would include it.
        let target = topo.tier1s()[0];
        let attackers = vec![topo.stub_ases()[0]];
        let outcomes = evaluate_strategies_monitored(
            &sim,
            target,
            &attackers,
            &[DeploymentStrategy::Tier1],
            &SweepMonitor::none(),
        );
        assert_eq!(outcomes[0].deployed, topo.tier1s().len() - 1);
    }

    #[test]
    fn potent_rows_are_annotated_and_sorted() {
        let net = generate(&InternetParams::tiny(), 13);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let target = topo.stub_ases()[1];
        let attackers: Vec<AsIndex> = topo.transit_ases().into_iter().take(30).collect();
        let counts = sim.sweep_attackers(target, &attackers, &Defense::none());
        let sweep = SweepResult::new(attackers, counts);
        let depths = DepthMap::to_tier1(topo);
        let rows = top_potent_attackers(topo, &depths, &sweep, 5);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[0].pollution >= w[1].pollution);
        }
        for r in &rows {
            assert_eq!(r.degree, topo.degree(r.attacker));
        }
    }
}
