//! Probe-placement optimization.
//!
//! Section VII tells operators to "understand the set of probes used in
//! the detector and run simulations to see if there are any blind spots…
//! If necessary, determine new probes that can improve detection
//! accuracy." This module operationalizes that: given a workload of
//! simulated attacks, it greedily selects the vantage points that maximize
//! marginal coverage — the classic approximation for the (submodular)
//! maximum-coverage objective, with a guaranteed `1 − 1/e` factor.

use bgpsim_topology::AsIndex;

use super::probes::ProbeSet;
use crate::{Attack, Defense, Simulator};

/// Which attacks each candidate vantage point would observe.
#[derive(Debug, Clone)]
pub struct CoverageMatrix {
    candidates: Vec<AsIndex>,
    /// `seen[c]` = indices (into the attack list) observed by candidate `c`.
    seen: Vec<Vec<u32>>,
    num_attacks: usize,
}

impl CoverageMatrix {
    /// Simulates every attack once and records, for each candidate, the
    /// attacks whose pollution reaches it.
    pub fn build(
        sim: &Simulator<'_>,
        attacks: &[Attack],
        candidates: &[AsIndex],
        defense: &Defense,
    ) -> CoverageMatrix {
        let rows: Vec<Vec<u32>> = sim.map_outcomes(attacks, defense, |outcome| {
            candidates
                .iter()
                .enumerate()
                .filter(|&(_, &c)| outcome.is_polluted(c))
                .map(|(ci, _)| ci as u32)
                .collect()
        });
        let mut seen = vec![Vec::new(); candidates.len()];
        for (ai, row) in rows.iter().enumerate() {
            for &ci in row {
                seen[ci as usize].push(ai as u32);
            }
        }
        CoverageMatrix {
            candidates: candidates.to_vec(),
            seen,
            num_attacks: attacks.len(),
        }
    }

    /// The candidate vantage points, in input order.
    pub fn candidates(&self) -> &[AsIndex] {
        &self.candidates
    }

    /// Number of attacks in the workload.
    pub fn num_attacks(&self) -> usize {
        self.num_attacks
    }

    /// Attacks observed by candidate `ci`.
    pub fn observed_by(&self, ci: usize) -> &[u32] {
        &self.seen[ci]
    }

    /// Fraction of the workload a probe set would detect (≥ 1 probe sees
    /// the attack). `members` are indices into [`CoverageMatrix::candidates`].
    pub fn coverage_of(&self, members: &[usize]) -> f64 {
        if self.num_attacks == 0 {
            return 0.0;
        }
        let mut covered = vec![false; self.num_attacks];
        for &ci in members {
            for &ai in &self.seen[ci] {
                covered[ai as usize] = true;
            }
        }
        covered.iter().filter(|&&c| c).count() as f64 / self.num_attacks as f64
    }
}

/// Result of a greedy probe selection.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// Chosen vantage points, in selection order (most valuable first).
    pub probes: Vec<AsIndex>,
    /// Workload coverage after each selection step (monotone
    /// non-decreasing; `coverage_steps[k]` is the detection rate with the
    /// first `k + 1` probes).
    pub coverage_steps: Vec<f64>,
}

impl ProbePlan {
    /// Final detection rate of the full plan.
    pub fn final_coverage(&self) -> f64 {
        self.coverage_steps.last().copied().unwrap_or(0.0)
    }

    /// Converts the plan into a [`ProbeSet`].
    pub fn into_probe_set(self, name: impl Into<String>) -> ProbeSet {
        ProbeSet::new(name, self.probes)
    }
}

/// Greedily selects up to `k` probes from the matrix's candidates,
/// maximizing marginal attack coverage at each step (ties break toward
/// the lower AS index; candidates adding nothing are skipped, so the plan
/// may be shorter than `k`).
pub fn greedy_probe_selection(matrix: &CoverageMatrix, k: usize) -> ProbePlan {
    let n = matrix.candidates.len();
    let mut covered = vec![false; matrix.num_attacks];
    let mut chosen: Vec<usize> = Vec::new();
    let mut probes = Vec::new();
    let mut coverage_steps = Vec::new();
    let mut covered_count = 0usize;
    for _ in 0..k.min(n) {
        let mut best: Option<(usize, usize)> = None; // (gain, candidate)
        for ci in 0..n {
            if chosen.contains(&ci) {
                continue;
            }
            let gain = matrix.seen[ci]
                .iter()
                .filter(|&&ai| !covered[ai as usize])
                .count();
            let better = match best {
                None => gain > 0,
                Some((bg, bci)) => {
                    gain > bg
                        || (gain == bg
                            && gain > 0
                            && matrix.candidates[ci].raw() < matrix.candidates[bci].raw())
                }
            };
            if better {
                best = Some((gain, ci));
            }
        }
        let Some((gain, ci)) = best else { break };
        chosen.push(ci);
        probes.push(matrix.candidates[ci]);
        for &ai in &matrix.seen[ci] {
            if !covered[ai as usize] {
                covered[ai as usize] = true;
                covered_count += 1;
            }
        }
        debug_assert!(gain > 0);
        coverage_steps.push(covered_count as f64 / matrix.num_attacks.max(1) as f64);
    }
    ProbePlan {
        probes,
        coverage_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::random_transit_attacks;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::gen::{generate, InternetParams};

    fn setup() -> (bgpsim_topology::gen::GeneratedInternet, Vec<Attack>) {
        let net = generate(&InternetParams::tiny(), 5);
        let attacks = random_transit_attacks(&net.topology, 80, 3);
        (net, attacks)
    }

    #[test]
    fn matrix_matches_outcomes() {
        let (net, attacks) = setup();
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let candidates: Vec<AsIndex> = net.topology.transit_ases().into_iter().take(20).collect();
        let m = CoverageMatrix::build(&sim, &attacks, &candidates, &Defense::none());
        assert_eq!(m.num_attacks(), 80);
        // Spot-check one candidate against a direct simulation.
        let ci = 3;
        let direct: Vec<u32> = attacks
            .iter()
            .enumerate()
            .filter(|(_, &a)| sim.run(a, &Defense::none()).is_polluted(candidates[ci]))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(m.observed_by(ci), direct.as_slice());
    }

    #[test]
    fn greedy_coverage_is_monotone_and_beats_first_pick() {
        let (net, attacks) = setup();
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        let candidates: Vec<AsIndex> = net.topology.transit_ases();
        let m = CoverageMatrix::build(&sim, &attacks, &candidates, &Defense::none());
        let plan = greedy_probe_selection(&m, 8);
        assert!(!plan.probes.is_empty());
        for w in plan.coverage_steps.windows(2) {
            assert!(w[1] >= w[0], "coverage must be monotone");
        }
        assert!(plan.final_coverage() >= plan.coverage_steps[0]);
        assert!(plan.final_coverage() <= 1.0);
        // Greedy-k must cover at least as much as any single candidate.
        let best_single = (0..candidates.len())
            .map(|ci| m.coverage_of(&[ci]))
            .fold(0.0f64, f64::max);
        assert!(plan.final_coverage() >= best_single - 1e-12);
        // Plan converts into a usable probe set.
        let set = plan.into_probe_set("optimized");
        assert!(!set.is_empty());
    }

    #[test]
    fn greedy_stops_when_nothing_more_is_covered() {
        let (net, attacks) = setup();
        let sim = Simulator::new(&net.topology, PolicyConfig::paper());
        // Candidates that see nothing: stubs far from everything may still
        // see attacks, so instead ask for far more probes than useful and
        // check the plan stops growing once coverage saturates.
        let candidates: Vec<AsIndex> = net.topology.transit_ases();
        let m = CoverageMatrix::build(&sim, &attacks, &candidates, &Defense::none());
        let plan = greedy_probe_selection(&m, candidates.len());
        // After saturation no zero-gain probes are appended.
        let final_cov = plan.final_coverage();
        let with_fewer = greedy_probe_selection(&m, plan.probes.len());
        assert_eq!(with_fewer.final_coverage(), final_cov);
    }
}
