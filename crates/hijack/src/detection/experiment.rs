//! The §VI detection experiment: random attacks vs. probe configurations.

use bgpsim_topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::probes::ProbeSet;
use super::report::{DetectionReport, MissedAttack};
use crate::{Attack, Defense, Simulator};

/// Draws `count` random origin-hijack attacks with both endpoints chosen
/// uniformly from the transit ASes ("attackers and targets were chosen
/// from the 6318 transit ASes"), seeded and reproducible.
///
/// # Panics
///
/// Panics if the topology has fewer than two transit ASes.
pub fn random_transit_attacks(topo: &Topology, count: usize, seed: u64) -> Vec<Attack> {
    let transit = topo.transit_ases();
    assert!(
        transit.len() >= 2,
        "need at least two transit ASes to draw attacks"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attacks = Vec::with_capacity(count);
    while attacks.len() < count {
        let a = transit[rng.random_range(0..transit.len())];
        let t = transit[rng.random_range(0..transit.len())];
        if a != t {
            attacks.push(Attack::origin(a, t));
        }
    }
    attacks
}

/// Runs every attack once and scores every probe configuration against the
/// same outcomes (detectors are passive: they do not perturb routing, so
/// one propagation serves all configurations).
///
/// Probes count by [`ProbeSet::triggered_by`]'s vantage-point rule: one
/// co-located at the attacker (or at the target) is never a detection.
///
/// Returns one report per probe set, in input order.
pub fn run_detection_experiment(
    sim: &Simulator<'_>,
    probe_sets: &[ProbeSet],
    attacks: &[Attack],
    defense: &Defense,
) -> Vec<DetectionReport> {
    // Per attack: pollution count plus, per probe set, how many probes saw it.
    let rows: Vec<(u32, Vec<u32>)> = sim.map_outcomes(attacks, defense, |outcome| {
        let triggered = probe_sets
            .iter()
            .map(|set| set.triggered_by(outcome) as u32)
            .collect();
        (outcome.pollution_count() as u32, triggered)
    });

    probe_sets
        .iter()
        .enumerate()
        .map(|(si, set)| {
            let mut histogram = vec![0usize; set.len() + 1];
            let mut pollution_sum = vec![0u64; set.len() + 1];
            let mut missed = Vec::new();
            for (attack, (pollution, triggered)) in attacks.iter().zip(&rows) {
                let k = triggered[si] as usize;
                histogram[k] += 1;
                pollution_sum[k] += *pollution as u64;
                if k == 0 {
                    missed.push(MissedAttack {
                        attacker: attack.attacker,
                        target: attack.target,
                        pollution: *pollution,
                    });
                }
            }
            missed.sort_by_key(|m| (std::cmp::Reverse(m.pollution), m.attacker.raw()));
            // Empty bins are `None`, not 0.0: "no attacks triggered
            // exactly k probes" and "the attacks triggering k probes
            // polluted nothing" are different facts, and downstream
            // CSV/JSON consumers need to tell them apart.
            let mean_pollution_by_triggered = histogram
                .iter()
                .zip(&pollution_sum)
                .map(|(&count, &sum)| {
                    if count == 0 {
                        None
                    } else {
                        Some(sum as f64 / count as f64)
                    }
                })
                .collect();
            DetectionReport::new(
                set.name().to_string(),
                set.len(),
                attacks.len(),
                histogram,
                mean_pollution_by_triggered,
                missed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_routing::PolicyConfig;
    use bgpsim_topology::gen::{generate, InternetParams};
    use bgpsim_topology::AsIndex;

    #[test]
    fn random_attacks_are_transit_to_transit_and_seeded() {
        let net = generate(&InternetParams::tiny(), 3);
        let a = random_transit_attacks(&net.topology, 50, 7);
        let b = random_transit_attacks(&net.topology, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for atk in &a {
            assert!(net.topology.is_transit(atk.attacker));
            assert!(net.topology.is_transit(atk.target));
            assert_ne!(atk.attacker, atk.target);
        }
        assert_ne!(a, random_transit_attacks(&net.topology, 50, 8));
    }

    #[test]
    fn reports_are_consistent() {
        let net = generate(&InternetParams::tiny(), 5);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let sets = vec![ProbeSet::tier1(topo), ProbeSet::degree_at_least(topo, 8)];
        let attacks = random_transit_attacks(topo, 60, 1);
        let reports = run_detection_experiment(&sim, &sets, &attacks, &Defense::none());
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.total_attacks(), 60);
            assert_eq!(r.histogram().iter().sum::<usize>(), 60);
            assert_eq!(r.missed_attacks().len(), r.histogram()[0]);
            assert_eq!(r.miss_count() + r.detected_count(), 60);
        }
    }

    #[test]
    fn missed_attacks_match_probe_checks() {
        let net = generate(&InternetParams::tiny(), 9);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let set = ProbeSet::tier1(topo);
        let attacks = random_transit_attacks(topo, 30, 2);
        let reports =
            run_detection_experiment(&sim, std::slice::from_ref(&set), &attacks, &Defense::none());
        let missed: Vec<Attack> = reports[0]
            .missed_attacks()
            .iter()
            .map(|m| Attack::origin(m.attacker, m.target))
            .collect();
        let seen: Vec<Vec<AsIndex>> =
            sim.map_outcomes(&missed, &Defense::none(), |v| set.triggered(v).collect());
        for triggered in seen {
            assert!(
                triggered.is_empty(),
                "attack recorded as missed but probes {triggered:?} saw it"
            );
        }
    }

    /// A probe parked on the attacker (or the target) must not count as a
    /// detection: the attacker always "sees" its own hijack.
    #[test]
    fn attacker_and_target_probes_never_trigger() {
        let net = generate(&InternetParams::tiny(), 11);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let attacks = random_transit_attacks(topo, 20, 4);
        // A probe set of exactly {attacker, target} sees nothing.
        let endpoint_hits: Vec<usize> = sim.map_outcomes(&attacks, &Defense::none(), |v| {
            let attack = v.attack();
            ProbeSet::new("endpoints", vec![attack.attacker, attack.target])
                .triggered(v)
                .count()
        });
        for (attack, hits) in attacks.iter().zip(endpoint_hits) {
            assert_eq!(hits, 0, "attacker/target probes triggered for {attack:?}");
        }
        // In the batch experiment, adding the attacker and target to a
        // probe set must not change any triggered count: compare a clean
        // set against the same set plus every attack endpoint.
        let clean = ProbeSet::tier1(topo);
        let mut padded = clean.probes().to_vec();
        for atk in &attacks {
            padded.push(atk.attacker);
            padded.push(atk.target);
        }
        let padded = ProbeSet::new("padded", padded);
        let reports = run_detection_experiment(
            &sim,
            &[clean.clone(), padded.clone()],
            &attacks,
            &Defense::none(),
        );
        // Histograms may differ in length (padded has more probes) but a
        // per-attack cross-check pins the exclusion directly.
        let seen: Vec<(Vec<AsIndex>, Vec<AsIndex>)> =
            sim.map_outcomes(&attacks, &Defense::none(), |v| {
                (clean.triggered(v).collect(), padded.triggered(v).collect())
            });
        for (&attack, (seen_clean, seen_padded)) in attacks.iter().zip(seen) {
            for p in &seen_padded {
                assert_ne!(*p, attack.attacker);
                assert_ne!(*p, attack.target);
            }
            // Every extra trigger in the padded set is a genuine non-
            // endpoint vantage point, never a free attacker-side probe.
            assert!(seen_padded.len() >= seen_clean.len());
        }
        assert_eq!(reports[0].total_attacks(), attacks.len());
        assert_eq!(reports[1].total_attacks(), attacks.len());
    }

    /// The experiment runs on the routed executor; under a defense that
    /// localizes cones every report must still be the one the
    /// generation-engine oracle gives, attack by attack.
    #[test]
    fn detection_under_a_localizing_defense_matches_the_oracle() {
        for seed in [2, 13, 29] {
            let net = generate(&InternetParams::tiny(), seed);
            let topo = &net.topology;
            let sim = Simulator::new(topo, PolicyConfig::paper());
            let sets = [ProbeSet::tier1(topo), ProbeSet::random(topo, 12, seed)];
            let attacks = random_transit_attacks(topo, 40, seed);
            let validators = Defense::validators(
                topo,
                ProbeSet::random(topo, 30, !seed).probes().iter().copied(),
            );
            for defense in [validators.clone(), validators.with_stub_defense()] {
                assert!(defense.localizes());
                let oracle: Vec<_> = attacks.iter().map(|&a| sim.run(a, &defense)).collect();
                let reports = run_detection_experiment(&sim, &sets, &attacks, &defense);
                for (set, report) in sets.iter().zip(&reports) {
                    let mut histogram = vec![0usize; set.len() + 1];
                    let mut sums = vec![0u64; set.len() + 1];
                    let mut missed = Vec::new();
                    for outcome in &oracle {
                        let k = set.triggered_by(&outcome.view());
                        histogram[k] += 1;
                        sums[k] += outcome.pollution_count() as u64;
                        if k == 0 {
                            missed.push(MissedAttack {
                                attacker: outcome.attack.attacker,
                                target: outcome.attack.target,
                                pollution: outcome.pollution_count() as u32,
                            });
                        }
                    }
                    missed.sort_by_key(|m| (std::cmp::Reverse(m.pollution), m.attacker.raw()));
                    let means: Vec<Option<f64>> = histogram
                        .iter()
                        .zip(&sums)
                        .map(|(&n, &sum)| (n > 0).then(|| sum as f64 / n as f64))
                        .collect();
                    assert_eq!(report.histogram(), histogram, "seed {seed}");
                    assert_eq!(report.mean_pollution_by_triggered(), means, "seed {seed}");
                    assert_eq!(report.missed_attacks(), missed, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn bigger_attacks_trigger_more_probes_on_average() {
        let net = generate(&InternetParams::small(), 5);
        let topo = &net.topology;
        let sim = Simulator::new(topo, PolicyConfig::paper());
        let set = ProbeSet::degree_at_least(topo, 10);
        let attacks = random_transit_attacks(topo, 120, 3);
        let reports =
            run_detection_experiment(&sim, std::slice::from_ref(&set), &attacks, &Defense::none());
        let r = &reports[0];
        // The paper's line chart: mean pollution grows with the number of
        // triggered probes. Check the coarse trend: mean pollution among
        // attacks triggering ≥ half the probes exceeds that of attacks
        // triggering < half (when both bins exist).
        let half = set.len() / 2;
        let (mut lo_sum, mut lo_n, mut hi_sum, mut hi_n) = (0.0, 0usize, 0.0, 0usize);
        for (k, (&count, &mean)) in r
            .histogram()
            .iter()
            .zip(r.mean_pollution_by_triggered())
            .enumerate()
        {
            let Some(mean) = mean else {
                assert_eq!(count, 0, "bin {k} has attacks but no mean");
                continue;
            };
            assert!(count > 0, "bin {k} has a mean but no attacks");
            if k < half {
                lo_sum += mean * count as f64;
                lo_n += count;
            } else {
                hi_sum += mean * count as f64;
                hi_n += count;
            }
        }
        if lo_n > 0 && hi_n > 0 {
            assert!(
                hi_sum / hi_n as f64 > lo_sum / lo_n as f64,
                "mean pollution should grow with triggered probes"
            );
        }
    }
}
