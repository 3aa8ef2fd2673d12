//! Figure 7 and the undetected-attack tables: detector deployment (§VI).

use std::path::Path;

use bgpsim_hijack::detection::{random_transit_attacks, run_detection_experiment, DetectionReport};
use bgpsim_hijack::Defense;

use crate::lab::Lab;
use crate::report::{write_artifact, TextTable};

/// Result of the three-configuration detection experiment.
#[derive(Debug)]
pub struct DetectionResult {
    /// One report per probe configuration, in the paper's case order.
    pub reports: Vec<DetectionReport>,
    /// Number of random attacks simulated.
    pub attacks: usize,
}

impl DetectionResult {
    /// Miss-rate comparison table (the paper's 34 % / 11 % / 3 % line).
    pub fn miss_table(&self) -> TextTable {
        let mut t = TextTable::new([
            "configuration",
            "probes",
            "missed",
            "miss rate",
            "mean missed pollution",
            "max missed pollution",
        ]);
        for r in &self.reports {
            t.row([
                r.name().to_string(),
                r.num_probes().to_string(),
                r.miss_count().to_string(),
                format!("{:.1}%", 100.0 * r.miss_rate()),
                format!("{:.0}", r.mean_missed_pollution()),
                r.max_missed_pollution().to_string(),
            ]);
        }
        t
    }

    /// The per-case "top undetected attacks" table.
    pub fn undetected_table(&self, lab: &Lab, case: usize, k: usize) -> TextTable {
        let mut t = TextTable::new(["attacker", "target", "pollution"]);
        if let Some(r) = self.reports.get(case) {
            for m in r.top_missed(k) {
                t.row([
                    lab.topology().id_of(m.attacker).to_string(),
                    lab.topology().id_of(m.target).to_string(),
                    m.pollution.to_string(),
                ]);
            }
        }
        t
    }

    /// CSV with every configuration's histogram and per-bin means.
    pub fn to_csv(&self) -> String {
        let mut t = TextTable::new([
            "configuration",
            "probes_triggered",
            "attacks",
            "mean_pollution",
        ]);
        for r in &self.reports {
            for (k, (&count, &mean)) in r
                .histogram()
                .iter()
                .zip(r.mean_pollution_by_triggered())
                .enumerate()
            {
                t.row([
                    r.name().to_string(),
                    k.to_string(),
                    count.to_string(),
                    // Empty bins stay blank — "no attacks in this bin" is
                    // not a 0.0 mean.
                    match mean {
                        Some(mean) => format!("{mean:.1}"),
                        None => String::new(),
                    },
                ]);
            }
        }
        t.to_csv()
    }

    /// Writes one chart per configuration plus the CSVs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, lab: &Lab, dir: &Path) -> std::io::Result<Vec<String>> {
        let mut written = Vec::new();
        for (i, r) in self.reports.iter().enumerate() {
            // The chart never draws a point for an empty bin (it filters on
            // histogram counts), so flattening `None` to 0.0 here is purely
            // to satisfy its dense-slice input.
            let means: Vec<f64> = r
                .mean_pollution_by_triggered()
                .iter()
                .map(|m| m.unwrap_or(0.0))
                .collect();
            let chart = bgpsim_viz::DetectionChart::new(
                format!("Case {}: {}", i + 1, r.name()),
                format!(
                    "{} random transit-to-transit attacks; missed {} ({:.1}%)",
                    r.total_attacks(),
                    r.miss_count(),
                    100.0 * r.miss_rate()
                ),
                r.histogram(),
                &means,
            );
            let name = format!("fig7_case{}.svg", i + 1);
            write_artifact(dir, &name, &chart.render())?;
            written.push(name);
            let tname = format!("fig7_case{}_undetected.csv", i + 1);
            write_artifact(
                dir,
                &tname,
                &self.undetected_table(lab, i, lab.config().top_k).to_csv(),
            )?;
            written.push(tname);
        }
        write_artifact(dir, "fig7.csv", &self.to_csv())?;
        written.push("fig7.csv".into());
        Ok(written)
    }

    /// Human-readable summary.
    pub fn summary(&self, lab: &Lab) -> String {
        let mut out = format!(
            "fig7 — detector coverage ({} random attacks)\n{}",
            self.attacks,
            self.miss_table().render()
        );
        for (i, r) in self.reports.iter().enumerate() {
            out.push_str(&format!(
                "\ntop undetected attacks, case {} ({}):\n{}",
                i + 1,
                r.name(),
                self.undetected_table(lab, i, lab.config().top_k).render()
            ));
        }
        out
    }
}

/// Runs the fig. 7 experiment: three probe configurations scored against
/// the same random attacks.
pub fn fig7(lab: &Lab) -> DetectionResult {
    let sim = lab.simulator();
    let topo = lab.topology();
    let sets = lab.probe_cohort();
    let attacks = random_transit_attacks(
        topo,
        lab.config().detection_attacks,
        lab.config().seed ^ 0xa77ac,
    );
    let reports = run_detection_experiment(&sim, &sets, &attacks, &Defense::none());
    DetectionResult {
        reports,
        attacks: attacks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::Lab;

    #[test]
    fn fig7_produces_three_ordered_cases() {
        let mut config = ExperimentConfig::quick();
        config.params = bgpsim_topology::gen::InternetParams::tiny();
        config.detection_attacks = 120;
        let lab = Lab::new(config);
        let r = fig7(&lab);
        assert_eq!(r.reports.len(), 3);
        for rep in &r.reports {
            assert_eq!(rep.total_attacks(), 120);
        }
        // The qualitative fig. 7 finding: the degree cohort misses no more
        // than the tier-1 configuration.
        let tier1_miss = r.reports[0].miss_rate();
        let cohort_miss = r.reports[2].miss_rate();
        assert!(
            cohort_miss <= tier1_miss + 1e-9,
            "degree cohort ({cohort_miss}) should not miss more than tier-1 ({tier1_miss})"
        );
        assert!(r.summary(&lab).contains("fig7"));
        assert!(r.to_csv().contains("probes_triggered"));
    }
}
