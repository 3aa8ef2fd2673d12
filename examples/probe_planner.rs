//! §VII's detection advice, operationalized: find blind spots in an
//! existing detector configuration and greedily pick the extra vantage
//! points that close them.
//!
//! Compares a BGPmon-like 24-peer configuration against a greedy
//! maximum-coverage plan of the same size, on the same attack workload.

use bgpsim_core::detection::{
    greedy_probe_selection, random_transit_attacks, run_detection_experiment, CoverageMatrix,
};
use bgpsim_core::hijack::Defense;
use bgpsim_core::topology::select;
use bgpsim_core::{ExperimentConfig, Lab};

fn main() {
    let lab = Lab::new(ExperimentConfig::from_env());
    let topo = lab.topology();
    let sim = lab.simulator();
    let attacks = random_transit_attacks(topo, lab.config().detection_attacks.min(1_000), 99);

    // Case 2 of the §VI cohort: the BGPmon-like 24-peer configuration.
    let existing = lab.probe_cohort().swap_remove(1);

    // Candidates: the 200 highest-degree ASes (realistic peering targets).
    let candidates = select::top_k_by_degree(topo, 200);
    let matrix = CoverageMatrix::build(&sim, &attacks, &candidates, &Defense::none());
    let plan = greedy_probe_selection(&matrix, existing.len());
    println!(
        "greedy plan: {} probes reach {:.1}% coverage on {} attacks",
        plan.probes.len(),
        100.0 * plan.final_coverage(),
        attacks.len()
    );
    for (i, (&p, &cov)) in plan.probes.iter().zip(&plan.coverage_steps).enumerate() {
        if i < 8 {
            println!(
                "  {}. {} -> {:.1}% cumulative",
                i + 1,
                lab.describe(p),
                100.0 * cov
            );
        }
    }

    let optimized = plan.into_probe_set("greedy max-coverage (same size)");
    let reports =
        run_detection_experiment(&sim, &[existing, optimized], &attacks, &Defense::none());
    println!();
    for r in &reports {
        println!("{r}");
    }
    let (before, after) = (reports[0].miss_rate(), reports[1].miss_rate());
    println!(
        "\nmiss rate {:.1}% -> {:.1}% with the same number of probes",
        100.0 * before,
        100.0 * after
    );
}
