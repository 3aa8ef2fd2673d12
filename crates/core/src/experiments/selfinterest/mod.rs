//! Section VII: pragmatic self-interest actions, validated on the island
//! region (the paper's New Zealand case study).
//!
//! "Security is a process, not a product. BGP security will not happen in
//! a single step… Rather than sit and wait, responsible organizations can
//! start to take pro-active actions immediately."
//!
//! * `regional` — scoped topology analysis and the paper's regional
//!   compromise metric ([`RegionalPollution`]).
//! * `rehome` — the "reduce vulnerability" transforms (§VII re-homed its
//!   NZ target two levels up), over `surgery`'s controlled topology edits.
//! * [`SecurityPlan`] — the full five-step recommendation pipeline for a
//!   concrete target.
//! * [`sec7`] — the validation that runs them all on the island region.
//!
//! # Quick start
//!
//! ```
//! use bgpsim_core::experiments::selfinterest::SecurityPlan;
//! use bgpsim_core::topology::gen::{generate, InternetParams};
//!
//! let net = generate(&InternetParams::tiny(), 1);
//! let target = net.topology.stub_ases()[0];
//! let everyone: Vec<_> = net.topology.indices().collect();
//! let plan = SecurityPlan::for_target(&net.topology, target, &everyone);
//! println!("{plan}");
//! ```

use std::path::Path;

use bgpsim_hijack::Defense;
use bgpsim_topology::{AsIndex, Topology};

use crate::lab::Lab;
use crate::report::{write_artifact, TextTable};

mod plan;
mod regional;
mod rehome;
mod surgery;

pub use plan::{Recommendation, SecurityPlan};
pub use regional::RegionalPollution;
use regional::{analyze_region, regional_containment};
use rehome::{multihome_up, rehome_up, RehomeError};

/// One measured scenario of the §VII validation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (baseline / re-homed / gateway filter).
    pub label: String,
    /// Regional compromise metrics.
    pub pollution: RegionalPollution,
}

/// Result of the §VII experiments.
#[derive(Debug)]
pub struct SelfInterestResult {
    /// The protected target (deepest island stub).
    pub target: AsIndex,
    /// Island size.
    pub region_size: usize,
    /// Island gateways found by the structural analysis.
    pub gateways: Vec<AsIndex>,
    /// Baseline, re-homing and gateway-filter scenarios, in order.
    pub scenarios: Vec<Scenario>,
    /// Depth of the target before and after re-homing.
    pub depth_before: u32,
    /// See [`SelfInterestResult::depth_before`].
    pub depth_after: Option<u32>,
    /// The generated step-wise plan.
    pub plan: SecurityPlan,
}

impl SelfInterestResult {
    /// The §VII comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "scenario",
            "mean regional ASes compromised (inside attacks)",
            "% of region",
            "mean (outside attacks)",
            "% of region",
        ]);
        for s in &self.scenarios {
            t.row([
                s.label.clone(),
                format!("{:.0}", s.pollution.mean_from_inside),
                format!("{:.0}%", 100.0 * s.pollution.inside_fraction()),
                format!("{:.0}", s.pollution.mean_from_outside),
                format!("{:.0}%", 100.0 * s.pollution.outside_fraction()),
            ]);
        }
        t
    }

    /// Writes the scenario CSV and the plan text.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        write_artifact(dir, "sec7_region.csv", &self.table().to_csv())?;
        write_artifact(dir, "sec7_plan.txt", &self.plan.to_string())?;
        Ok(vec!["sec7_region.csv".into(), "sec7_plan.txt".into()])
    }

    /// Human-readable summary.
    pub fn summary(&self, lab: &Lab) -> String {
        format!(
            "sec7 — island region ({} ASes, {} gateways), target {} (depth {} -> {})\n{}\n{}",
            self.region_size,
            self.gateways.len(),
            lab.describe(self.target),
            self.depth_before,
            self.depth_after
                .map_or("unchanged".to_string(), |d| d.to_string()),
            self.table().render(),
            self.plan
        )
    }
}

/// Runs the §VII validation: baseline regional containment, the re-homing
/// experiment ("re-homed AS55857 up two levels") and the single
/// gateway-filter experiment.
pub fn sec7(lab: &Lab) -> SelfInterestResult {
    let topo = lab.topology();
    let region = lab
        .net()
        .island_region
        .expect("experiment presets generate an island region");
    let members: Vec<AsIndex> = lab.net().regions.members(region).to_vec();
    let analysis = analyze_region(topo, &members);
    // Deepest island member = the AS55857 analogue.
    let target = analysis.deepest_members[0].0;
    let depth_before = analysis.deepest_members[0].1;
    let outside_sample = 200;
    let seed = lab.config().seed ^ 0x5ec7;
    let sim = lab.simulator();

    let mut scenarios = vec![Scenario {
        label: "baseline".into(),
        pollution: regional_containment(
            &sim,
            target,
            &members,
            outside_sample,
            seed,
            &Defense::none(),
        ),
    }];

    // Re-homing experiment. The paper climbed its depth-5 target two
    // levels, landing just below the regional hub; islands here can be
    // deeper, so climb however many levels it takes to land one step
    // below the hub's own depth (minimum two, the paper's step).
    let hub_depth = analysis
        .gateways
        .iter()
        .filter_map(|&g| lab.depths().depth(g))
        .min()
        .unwrap_or(1);
    let levels = depth_before.saturating_sub(hub_depth + 1).max(2);
    let mut depth_after = None;
    // Both §VII homing actions: strict re-homing (replace providers) and
    // additive multi-homing upward. Under Gao-Rexford preference the two
    // can differ sharply — replacement forfeits the old subtree's
    // customer-class protection — which is why the paper pairs "re-homing
    // and multi-homing".
    type HomingTransform = fn(&Topology, AsIndex, u32) -> Result<Topology, RehomeError>;
    let variants: [(&str, HomingTransform); 2] =
        [("re-homed", rehome_up), ("multi-homed", multihome_up)];
    for (what, transform) in variants {
        if let Ok(new_topo) = transform(topo, target, levels) {
            let new_target = new_topo
                .index_of(topo.id_of(target))
                .expect("homing changes preserve ASNs");
            let d = bgpsim_topology::metrics::DepthMap::to_tier1(&new_topo).depth(new_target);
            if depth_after.is_none() {
                depth_after = d;
            }
            let sim2 = lab.simulator_over(&new_topo);
            let members2: Vec<AsIndex> = members
                .iter()
                .map(|&m| new_topo.index_of(topo.id_of(m)).expect("same AS set"))
                .collect();
            scenarios.push(Scenario {
                label: format!("{what} {levels} level(s) up"),
                pollution: regional_containment(
                    &sim2,
                    new_target,
                    &members2,
                    outside_sample,
                    seed,
                    &Defense::none(),
                ),
            });
        }
    }

    // Gateway filter experiment: one origin-validation filter at the
    // highest-degree gateway (the paper's single filter at VOCUS).
    let gateway = analysis
        .gateways
        .iter()
        .copied()
        .max_by_key(|&g| (topo.degree(g), std::cmp::Reverse(g.raw())))
        .expect("island has gateways");
    let defense = Defense::validators(topo, [gateway]);
    scenarios.push(Scenario {
        label: format!("single filter at gateway {}", topo.id_of(gateway)),
        pollution: regional_containment(&sim, target, &members, outside_sample, seed, &defense),
    });

    let plan = SecurityPlan::for_target(topo, target, &members);
    SelfInterestResult {
        target,
        region_size: members.len(),
        gateways: analysis.gateways,
        scenarios,
        depth_before,
        depth_after,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::Lab;

    #[test]
    fn sec7_improves_containment() {
        let lab = Lab::new(ExperimentConfig::quick());
        let r = sec7(&lab);
        assert!(r.scenarios.len() >= 2, "baseline plus at least one action");
        let baseline = r.scenarios[0].pollution;
        assert!(
            baseline.mean_from_inside > 0.0,
            "baseline attacks must land"
        );
        // At reduced scale individual actions can be noisy; require that
        // at least one action materially improves inside containment and
        // that none blows it up. (EXPERIMENTS.md evaluates the paper's
        // 60% → 25% / 40% numbers at standard scale.)
        let best = r.scenarios[1..]
            .iter()
            .map(|s| s.pollution.mean_from_inside)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < baseline.mean_from_inside,
            "no action improved inside containment (baseline {}, best {best})",
            baseline.mean_from_inside
        );
        assert!(r.summary(&lab).contains("sec7"));
        assert!(!r.table().is_empty());
    }

    #[test]
    fn rehoming_reduces_depth_when_it_applies() {
        let lab = Lab::new(ExperimentConfig::quick());
        let r = sec7(&lab);
        if let Some(after) = r.depth_after {
            assert!(after < r.depth_before);
        }
    }
}
