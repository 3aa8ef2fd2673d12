//! The simulation-model table (§III): topology statistics and convergence
//! behavior.

use std::path::Path;

use bgpsim_hijack::detection::random_transit_attacks;
use bgpsim_hijack::Defense;
use bgpsim_routing::{NullObserver, Workspace};
use bgpsim_topology::TopologyStats;

use crate::lab::Lab;
use crate::report::{write_artifact, TextTable};

/// Result of the model-characterization run.
#[derive(Debug)]
pub struct ModelResult {
    /// Structural statistics of the generated Internet.
    pub stats: TopologyStats,
    /// Mean generations to convergence over a sample of attacks (the paper
    /// reports 5–10).
    pub mean_generations: f64,
    /// Minimum and maximum observed generations.
    pub generations_range: (u32, u32),
    /// Mean messages delivered per propagation.
    pub mean_messages: f64,
    /// Size of the convergence sample.
    pub sample: usize,
}

impl ModelResult {
    /// Paper-vs-measured comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "paper (CAIDA 2013)", "this run"]);
        t.row([
            "ASes".to_string(),
            "42,697".into(),
            self.stats.num_ases.to_string(),
        ]);
        t.row([
            "relationships".to_string(),
            "139,156".into(),
            self.stats.num_links.to_string(),
        ]);
        t.row([
            "tier-1 ASes".to_string(),
            "17".into(),
            self.stats.num_tier1.to_string(),
        ]);
        t.row([
            "transit ASes".to_string(),
            "6,318 (14.8%)".into(),
            format!(
                "{} ({:.1}%)",
                self.stats.num_transit,
                100.0 * self.stats.num_transit as f64 / self.stats.num_ases as f64
            ),
        ]);
        for (k, c) in self.stats.degree_cohorts {
            let paper = match k {
                500 => "62",
                300 => "124",
                200 => "166",
                100 => "299",
                _ => "-",
            };
            t.row([
                format!("ASes with degree >= {k}"),
                paper.to_string(),
                c.to_string(),
            ]);
        }
        t.row([
            "convergence (generations)".to_string(),
            "5-10".into(),
            format!(
                "{:.1} mean, {}..{}",
                self.mean_generations, self.generations_range.0, self.generations_range.1
            ),
        ]);
        t
    }

    /// Writes the comparison CSV.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        write_artifact(dir, "tab_model.csv", &self.table().to_csv())?;
        Ok(vec!["tab_model.csv".into()])
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "tab_model — simulation substrate\n{}\ndepth histogram: {:?}",
            self.table().render(),
            self.stats.depth_histogram
        )
    }
}

/// Characterizes the lab's topology and convergence behavior.
pub fn tab_model(lab: &Lab) -> ModelResult {
    let stats = TopologyStats::compute(lab.topology());
    let sim = lab.simulator();
    let sample = 50usize.min(lab.config().detection_attacks);
    let attacks = random_transit_attacks(lab.topology(), sample, lab.config().seed ^ 0x300d);
    let mut ws = Workspace::new();
    let mut total_gens = 0u64;
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    for &attack in &attacks {
        let o = sim.run_observed(attack, &Defense::none(), &mut ws, &mut NullObserver);
        total_gens += o.generations as u64;
        lo = lo.min(o.generations);
        hi = hi.max(o.generations);
    }
    // Message volume via traced runs on a small sub-sample (the outcome
    // type does not carry per-run message counts).
    let probe = attacks.len().min(5);
    let mut msgs = 0usize;
    for &attack in &attacks[..probe] {
        let mut trace = bgpsim_routing::TraceRecorder::new();
        let _ = sim.run_observed(attack, &Defense::none(), &mut ws, &mut trace);
        msgs += trace.events().len();
    }
    ModelResult {
        stats,
        mean_generations: total_gens as f64 / attacks.len() as f64,
        generations_range: (lo, hi),
        mean_messages: msgs as f64 / probe as f64,
        sample: attacks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::Lab;

    #[test]
    fn model_table_compares_to_paper() {
        let mut config = ExperimentConfig::quick();
        config.params = bgpsim_topology::gen::InternetParams::tiny();
        let lab = Lab::new(config);
        let r = tab_model(&lab);
        assert!(r.mean_generations >= 2.0);
        assert!(r.generations_range.0 <= r.generations_range.1);
        assert!(r.mean_messages > 0.0);
        let text = r.table().render();
        assert!(text.contains("42,697"));
        assert!(text.contains("convergence"));
        assert!(r.summary().contains("tab_model"));
    }
}
