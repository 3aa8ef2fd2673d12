//! Detection-experiment reports (fig. 7 and the undetected-attack tables).

use core::fmt;

use bgpsim_topology::AsIndex;

/// An attack that no probe of a configuration observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissedAttack {
    /// The attacking AS.
    pub attacker: AsIndex,
    /// The hijacked AS.
    pub target: AsIndex,
    /// How many ASes the attack polluted while staying invisible.
    pub pollution: u32,
}

/// Fig. 7 data for one probe configuration: how many attacks were seen by
/// 0, 1, 2, … probes, the mean attack size per bin, and the full list of
/// missed attacks.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    name: String,
    num_probes: usize,
    total_attacks: usize,
    /// `histogram[k]` = number of attacks seen by exactly `k` probes.
    histogram: Vec<usize>,
    /// `mean_pollution_by_triggered[k]` = mean pollution of those attacks
    /// (`None` when no attack triggered exactly `k` probes).
    mean_pollution_by_triggered: Vec<Option<f64>>,
    /// Attacks seen by zero probes, most polluting first.
    missed: Vec<MissedAttack>,
}

impl DetectionReport {
    pub(crate) fn new(
        name: String,
        num_probes: usize,
        total_attacks: usize,
        histogram: Vec<usize>,
        mean_pollution_by_triggered: Vec<Option<f64>>,
        missed: Vec<MissedAttack>,
    ) -> DetectionReport {
        DetectionReport {
            name,
            num_probes,
            total_attacks,
            histogram,
            mean_pollution_by_triggered,
            missed,
        }
    }

    /// Configuration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vantage points in the configuration.
    pub fn num_probes(&self) -> usize {
        self.num_probes
    }

    /// Number of attacks simulated.
    pub fn total_attacks(&self) -> usize {
        self.total_attacks
    }

    /// `histogram()[k]` = attacks seen by exactly `k` probes.
    pub fn histogram(&self) -> &[usize] {
        &self.histogram
    }

    /// Mean pollution of attacks seen by exactly `k` probes (`None` for
    /// empty bins — distinguishing "no such attacks" from "zero mean
    /// pollution") — the paper's overlaid line chart.
    pub fn mean_pollution_by_triggered(&self) -> &[Option<f64>] {
        &self.mean_pollution_by_triggered
    }

    /// Attacks that escaped detection entirely, most polluting first.
    pub fn missed_attacks(&self) -> &[MissedAttack] {
        &self.missed
    }

    /// Number of attacks seen by zero probes.
    pub fn miss_count(&self) -> usize {
        self.histogram.first().copied().unwrap_or(0)
    }

    /// Number of attacks seen by at least one probe.
    pub fn detected_count(&self) -> usize {
        self.total_attacks - self.miss_count()
    }

    /// Fraction of attacks missed (the paper's 34 % / 11 % / 3 %).
    pub fn miss_rate(&self) -> f64 {
        if self.total_attacks == 0 {
            return 0.0;
        }
        self.miss_count() as f64 / self.total_attacks as f64
    }

    /// Mean pollution of the missed attacks.
    pub fn mean_missed_pollution(&self) -> f64 {
        if self.missed.is_empty() {
            return 0.0;
        }
        self.missed.iter().map(|m| m.pollution as u64).sum::<u64>() as f64
            / self.missed.len() as f64
    }

    /// Largest attack that escaped detection.
    pub fn max_missed_pollution(&self) -> u32 {
        self.missed.first().map_or(0, |m| m.pollution)
    }

    /// The `k` largest undetected attacks — the paper's per-case tables.
    pub fn top_missed(&self, k: usize) -> &[MissedAttack] {
        &self.missed[..k.min(self.missed.len())]
    }
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} probes, {} attacks): missed {} ({:.1}%), avg missed pollution {:.0}, max {}",
            self.name,
            self.num_probes,
            self.total_attacks,
            self.miss_count(),
            100.0 * self.miss_rate(),
            self.mean_missed_pollution(),
            self.max_missed_pollution()
        )?;
        write!(f, "  seen-by histogram:")?;
        for (k, &c) in self.histogram.iter().enumerate() {
            if c > 0 {
                write!(f, " {k}:{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> DetectionReport {
        DetectionReport::new(
            "test".into(),
            3,
            10,
            vec![2, 3, 4, 1],
            vec![Some(100.0), Some(50.0), Some(75.0), Some(200.0)],
            vec![
                MissedAttack {
                    attacker: AsIndex::new(5),
                    target: AsIndex::new(6),
                    pollution: 150,
                },
                MissedAttack {
                    attacker: AsIndex::new(7),
                    target: AsIndex::new(8),
                    pollution: 50,
                },
            ],
        )
    }

    #[test]
    fn rates_and_counts() {
        let r = report();
        assert_eq!(r.miss_count(), 2);
        assert_eq!(r.detected_count(), 8);
        assert!((r.miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(r.mean_missed_pollution(), 100.0);
        assert_eq!(r.max_missed_pollution(), 150);
        assert_eq!(r.top_missed(1).len(), 1);
        assert_eq!(r.top_missed(10).len(), 2);
    }

    #[test]
    fn display_contains_key_numbers() {
        let text = report().to_string();
        assert!(text.contains("missed 2 (20.0%)"));
        assert!(text.contains("0:2"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = DetectionReport::new("e".into(), 0, 0, vec![0], vec![None], vec![]);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.mean_missed_pollution(), 0.0);
        assert_eq!(r.max_missed_pollution(), 0);
    }
}
