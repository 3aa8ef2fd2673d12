//! §IV/§V sweep cost: full two-origin propagation per attacker vs the
//! baseline-reuse delta engine vs the strict-Gao-Rexford stable solver.
//!
//! Every group runs the same 64-attacker origin-hijack sweep against one
//! deep stub target on a ~2k-AS synthetic Internet, single-threaded so the
//! ratios are free of scheduler noise. The delta side pays for its
//! baseline (honest convergence + recorded message schedule) inside every
//! iteration — in a real sweep that cost is amortized over every other AS
//! as an attacker, so measured speedups are lower bounds.
//!
//! Three regimes, deliberately all measured:
//!
//! * `defended` — a strong §V deployment (origin validation at the
//!   top-100 ASes by degree plus defensive stub filtering) against
//!   attackers strided over every AS, most of them stubs. Filtering
//!   quenches most attacker routes near the source, contamination cones
//!   collapse to a handful of ASes, and schedule replay is 1–2 orders of
//!   magnitude faster than re-racing both origins.
//! * `large_cone` — the weak end of the figs. 5–6 progression: tier-1-only
//!   origin validation against transit attackers. `Simulator` still
//!   dispatches to the delta engine, but cones run to half the network
//!   and replay costs about as much as the full race; this is where most
//!   of a fig. 5/6 run is spent, and where leaf deferral pays.
//! * `undefended` — no filtering at all. An exact-prefix hijack then
//!   perturbs nearly every AS (§IV: up to ~96% pollution), the cone is the
//!   whole graph, and replaying the honest schedule *on top of* the race
//!   costs more than the race alone. Kept honest here; `Simulator` races
//!   from scratch in this regime.
//!
//! `stable_solver` is the strict-Gao-Rexford comparator: the closed-form
//! solver computes the unique stable state directly (no message race
//! exists under that policy), which bounds what any incremental scheme
//! could hope for.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bgpsim_core::defense::DeploymentStrategy;
use bgpsim_core::routing::{
    propagate_announcements, propagate_delta, solve, Announcement, Baseline, DeltaWorkspace,
    FilterContext, NullObserver, PolicyConfig, SimNet, Workspace,
};
use bgpsim_core::topology::gen::{generate, GeneratedInternet, InternetParams};
use bgpsim_core::topology::metrics::DepthMap;
use bgpsim_core::topology::select;
use bgpsim_topology::AsIndex;

struct Lab {
    net: GeneratedInternet,
    target: AsIndex,
    /// 64 attackers strided over every AS.
    attackers: Vec<AsIndex>,
    /// 64 attackers strided over the transit ASes.
    transit_attackers: Vec<AsIndex>,
}

fn lab() -> Lab {
    let net = generate(&InternetParams::sized(2_000), 7);
    let topo = &net.topology;
    let depths = DepthMap::to_tier1(topo);
    let target = select::deepest_stub(topo, &depths).expect("stubs exist");
    let n = topo.num_ases();
    let attackers: Vec<AsIndex> = (0..n)
        .step_by(n / 64)
        .map(|i| AsIndex::new(i as u32))
        .filter(|&ix| ix != target)
        .take(64)
        .collect();
    let transit = topo.transit_ases();
    let transit_attackers: Vec<AsIndex> = transit
        .iter()
        .step_by(transit.len() / 64)
        .copied()
        .take(64)
        .collect();
    Lab {
        net,
        target,
        attackers,
        transit_attackers,
    }
}

fn full_sweep(
    sim_net: &SimNet<'_>,
    target: AsIndex,
    attackers: &[AsIndex],
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
) -> usize {
    let mut total = 0usize;
    for &attacker in attackers {
        let p = propagate_announcements(
            sim_net,
            &[Announcement::honest(target), Announcement::honest(attacker)],
            ctx,
            policy,
            ws,
            &mut NullObserver,
        );
        total += p.captured_count(attacker);
    }
    total
}

fn delta_sweep(
    sim_net: &SimNet<'_>,
    target: AsIndex,
    attackers: &[AsIndex],
    ctx: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    dws: &mut DeltaWorkspace,
) -> usize {
    // Baseline built inside the measured region: one honest convergence
    // plus its schedule, amortized over the 64 attackers.
    let baseline = Baseline::build(sim_net, &[Announcement::honest(target)], ctx, policy, ws);
    let mut total = 0usize;
    for &attacker in attackers {
        let delta = propagate_delta(
            sim_net,
            &baseline,
            &[Announcement::honest(attacker)],
            ctx,
            policy,
            dws,
            &mut NullObserver,
        );
        total += delta
            .touched()
            .filter(|&ix| {
                ix != attacker && delta.choice(ix).is_some_and(|ch| ch.origin == attacker)
            })
            .count();
    }
    total
}

fn bench_sweep(c: &mut Criterion) {
    let lab = lab();
    let sim_net = SimNet::new(&lab.net.topology);
    let policy = PolicyConfig::paper();
    let mut ws = Workspace::new();
    let mut dws = DeltaWorkspace::new();

    // Both engines over one (attacker pool, filter context) regime.
    let mut regime =
        |name: &str, samples: usize, attackers: &[AsIndex], ctx: &FilterContext<'_>| {
            let mut g = c.benchmark_group(format!("sweep_delta/{name}"));
            g.sample_size(samples);
            g.bench_function("full_64_attackers", |b| {
                b.iter(|| {
                    black_box(full_sweep(
                        &sim_net, lab.target, attackers, ctx, &policy, &mut ws,
                    ))
                })
            });
            g.bench_function("delta_64_attackers", |b| {
                b.iter(|| {
                    black_box(delta_sweep(
                        &sim_net, lab.target, attackers, ctx, &policy, &mut ws, &mut dws,
                    ))
                })
            });
            g.finish();
        };

    // §V defended regime: ROV at the top-100 ASes by degree + stub defense.
    let defense = DeploymentStrategy::TopKByDegree(100)
        .defense(&lab.net.topology)
        .with_stub_defense();
    regime(
        "defended",
        20,
        &lab.attackers,
        &defense.context_for(lab.target),
    );

    // Weak-deployment regime: tier-1-only ROV against transit attackers,
    // cones in the hundreds to a thousand of the 2k ASes.
    let tier1 = DeploymentStrategy::Tier1.defense(&lab.net.topology);
    regime(
        "large_cone",
        20,
        &lab.transit_attackers,
        &tier1.context_for(lab.target),
    );

    // Undefended regime: the cone is the whole network, delta loses — kept
    // as an honest negative result (Simulator races from scratch here).
    let ctx = FilterContext::none();
    regime("undefended", 10, &lab.attackers, &ctx);

    // Strict Gao-Rexford comparator: the closed-form stable solver, the
    // engine `Simulator` dispatches to under that policy.
    let strict = PolicyConfig::strict_gao_rexford();
    {
        let mut g = c.benchmark_group("sweep_delta/stable");
        g.sample_size(20);
        g.bench_function("solver_64_attackers", |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &attacker in &lab.attackers {
                    let p = solve(&sim_net, &[lab.target, attacker], &ctx, &strict);
                    total += p.captured_by(attacker).count();
                }
                black_box(total)
            })
        });
        g.finish();
    }
}

criterion_group!(sweep_delta, bench_sweep);
criterion_main!(sweep_delta);
