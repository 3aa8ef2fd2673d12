//! Figures 5–6 and the "still-potent attackers" tables: incremental
//! prevention deployment (§V).

use std::path::Path;

use bgpsim_hijack::defense::{
    evaluate_strategies_monitored, top_potent_attackers, DeploymentStrategy, PotentAttackerRow,
    StrategyOutcome,
};
use bgpsim_hijack::SweepMonitor;
use bgpsim_topology::AsIndex;

use crate::lab::Lab;
use crate::report::{write_artifact, TextTable};

/// Result of the incremental-deployment experiment for one target.
#[derive(Debug)]
pub struct DeploymentResult {
    /// `fig5` (resistant target) or `fig6` (vulnerable target).
    pub id: &'static str,
    /// Chart title.
    pub title: String,
    /// The target under attack.
    pub target: AsIndex,
    /// Per-strategy outcomes, in progression order.
    pub outcomes: Vec<StrategyOutcome>,
    /// The §V table: top still-potent attackers under the strongest
    /// deployment.
    pub top_potent: Vec<PotentAttackerRow>,
    /// Attackers swept per strategy.
    pub attackers: usize,
}

impl DeploymentResult {
    /// Stats table: one row per strategy.
    pub fn stats_table(&self, lab: &Lab) -> TextTable {
        let n = lab.topology().num_ases() as f64;
        let mut t = TextTable::new([
            "deployment",
            "filters",
            "mean pollution (successful)",
            "% of ASes",
            "max pollution",
        ]);
        for o in &self.outcomes {
            let mean = o.mean_successful_pollution();
            t.row([
                o.strategy.to_string(),
                o.deployed.to_string(),
                format!("{mean:.0}"),
                format!("{:.1}%", 100.0 * mean / n),
                o.max_pollution().to_string(),
            ]);
        }
        t
    }

    /// The paper's "top 5 still-potent attacks" table.
    pub fn potent_table(&self, lab: &Lab) -> TextTable {
        let mut t = TextTable::new(["attacker", "pollution", "degree", "depth"]);
        for r in &self.top_potent {
            t.row([
                lab.topology().id_of(r.attacker).to_string(),
                r.pollution.to_string(),
                r.degree.to_string(),
                r.depth.map_or("-".into(), |d| d.to_string()),
            ]);
        }
        t
    }

    /// CSV of all per-strategy curves.
    pub fn to_csv(&self) -> String {
        let mut t = TextTable::new(["deployment", "filters", "pollution", "attackers_at_least"]);
        for o in &self.outcomes {
            for (x, y) in o.sweep.curve().points() {
                t.row([
                    o.strategy.to_string(),
                    o.deployed.to_string(),
                    x.to_string(),
                    y.to_string(),
                ]);
            }
        }
        t.to_csv()
    }

    /// Renders the per-strategy CCDF chart.
    pub fn chart(&self, lab: &Lab) -> String {
        let mut chart = bgpsim_viz::CcdfChart::new(self.title.clone()).subtitle(format!(
            "target {}; {} transit attackers per deployment",
            lab.describe(self.target),
            self.attackers
        ));
        for o in &self.outcomes {
            chart.add_series(
                format!("{} ({})", o.strategy, o.deployed),
                o.sweep.curve().points(),
            );
        }
        chart.render()
    }

    /// Writes `<id>.svg` / `<id>.csv` / `<id>_potent.csv` into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, lab: &Lab, dir: &Path) -> std::io::Result<Vec<String>> {
        let svg = format!("{}.svg", self.id);
        let csv = format!("{}.csv", self.id);
        let potent = format!("{}_potent.csv", self.id);
        write_artifact(dir, &svg, &self.chart(lab))?;
        write_artifact(dir, &csv, &self.to_csv())?;
        write_artifact(dir, &potent, &self.potent_table(lab).to_csv())?;
        Ok(vec![svg, csv, potent])
    }

    /// Human-readable summary.
    pub fn summary(&self, lab: &Lab) -> String {
        format!(
            "{} — {}\n{}\ntop still-potent attackers under {}:\n{}",
            self.id,
            self.title,
            self.stats_table(lab).render(),
            self.outcomes
                .last()
                .map(|o| o.strategy.to_string())
                .unwrap_or_default(),
            self.potent_table(lab).render()
        )
    }
}

fn run_for(
    lab: &Lab,
    id: &'static str,
    title: String,
    target: AsIndex,
    monitor: &SweepMonitor<'_>,
) -> DeploymentResult {
    let sim = lab.simulator();
    let attackers = lab.strided_transit_attackers();
    let strategies =
        DeploymentStrategy::scaled_progression(lab.config().seed, lab.config().scale());
    let outcomes = evaluate_strategies_monitored(&sim, target, &attackers, &strategies, monitor);
    let strongest = outcomes.last().expect("progression is non-empty");
    let top_potent = top_potent_attackers(
        lab.topology(),
        lab.depths(),
        &strongest.sweep,
        lab.config().top_k,
    );
    DeploymentResult {
        id,
        title,
        target,
        outcomes,
        top_potent,
        attackers: attackers.len(),
    }
}

/// Runs fig. 5: incremental deployment protecting the resistant depth-1
/// target.
pub fn fig5(lab: &Lab) -> DeploymentResult {
    fig5_monitored(lab, &SweepMonitor::none())
}

/// [`fig5`] with sweep instrumentation.
pub fn fig5_monitored(lab: &Lab, monitor: &SweepMonitor<'_>) -> DeploymentResult {
    run_for(
        lab,
        "fig5",
        "Incremental filtering, depth-1 (resistant) target".into(),
        lab.cast().resistant_stub,
        monitor,
    )
}

/// Runs fig. 6: the same progression protecting the vulnerable deep
/// target.
pub fn fig6(lab: &Lab) -> DeploymentResult {
    fig6_monitored(lab, &SweepMonitor::none())
}

/// [`fig6`] with sweep instrumentation.
pub fn fig6_monitored(lab: &Lab, monitor: &SweepMonitor<'_>) -> DeploymentResult {
    run_for(
        lab,
        "fig6",
        format!(
            "Incremental filtering, depth-{} (vulnerable) target",
            lab.cast().vulnerable_depth
        ),
        lab.cast().vulnerable_stub,
        monitor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::Lab;

    fn tiny_lab() -> Lab {
        let mut config = ExperimentConfig::quick();
        config.params = bgpsim_topology::gen::InternetParams::tiny();
        config.attacker_stride = 2;
        Lab::new(config)
    }

    #[test]
    fn progression_improves_protection() {
        let lab = tiny_lab();
        let r = fig5(&lab);
        assert_eq!(r.outcomes.len(), 8);
        let baseline = r.outcomes[0].mean_successful_pollution();
        let strongest = r.outcomes.last().unwrap().mean_successful_pollution();
        assert!(
            strongest < baseline,
            "strongest deployment ({strongest}) must beat baseline ({baseline})"
        );
        assert_eq!(r.top_potent.len(), lab.config().top_k.min(r.attackers));
        assert!(r.summary(&lab).contains("fig5"));
        assert!(r.chart(&lab).contains("<svg"));
    }

    #[test]
    fn fig6_targets_the_deep_stub() {
        let lab = tiny_lab();
        let r = fig6(&lab);
        assert_eq!(r.target, lab.cast().vulnerable_stub);
        // The vulnerable target's baseline is worse than the resistant
        // target's baseline (the premise of figs. 5 vs 6).
        let r5 = fig5(&lab);
        assert!(
            r.outcomes[0].mean_successful_pollution() >= r5.outcomes[0].mean_successful_pollution()
        );
    }
}
