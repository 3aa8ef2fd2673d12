//! The hijack simulator: one route, one executor.
//!
//! Every attack is answered the same way: one private route table picks
//! the engine, and one private executor runs it. Every result is read through
//! one [`OutcomeView`]: [`Simulator::evaluate`] hands it to its caller's
//! reader, and the sweep entry points count pollution off it, one row per
//! attacker, in parallel.
//!
//! Routing is *adaptive*. Against an undefended network an exact-prefix
//! hijack perturbs nearly every AS (the paper's §IV observation that
//! attackers pollute up to ~96% of the network), so incremental
//! re-convergence has nothing to skip: such attacks go to the closed-form
//! race solver ([`bgpsim_routing::solve_race`]) — one tier-1 fixed point
//! instead of full message-passing convergence — with the from-scratch
//! generation engine only as the fallback for the rare multistable
//! topology where the fixed point does not settle. When the defense
//! (origin validation and/or defensive stub filtering) can quench the
//! attacker's routes, all attacks against one target share the target's
//! honest convergence: [`Simulator::baseline_key`] names it, and
//! [`Simulator::baseline_for`] builds one [`Baseline`]
//! (converged state plus recorded message schedule), shared read-only
//! across rayon workers, and [`propagate_delta_budgeted`] re-converges
//! only the attacker's contamination cone — the §V regime, where an
//! attack costs microseconds under a strong deployment. Under a weak one
//! some cones run to thousands of ASes and a replay would cost more than
//! racing from scratch, so the replay carries a cone budget: past it the
//! executor abandons the replay and finishes the attack on the race
//! solver, inside the same route. Outcomes are bit-identical on every
//! route (the root package's `differential` test pins this under both
//! the paper policy and strict Gao-Rexford). The benchmark
//! harness (`benchmark/`) measures the regimes: `campaign_paper` is the
//! race route, `campaign_defended` the delta route. [`EngineChoice`]
//! overrides the adaptive route for debugging and ablation.

use std::time::Instant;

use bgpsim_routing::{
    propagate_announcements, propagate_delta_budgeted, solve_race_observed, Announcement, Baseline,
    DeltaWorkspace, FilterContext, NullObserver, Observer, PolicyConfig, Propagation,
    RaceWorkspace, SimNet, Workspace, DEFAULT_CONE_BUDGET_DIVISOR, DEFAULT_MAX_ROUNDS,
};
use bgpsim_topology::{AsIndex, Topology};
use rayon::prelude::*;

use crate::attack::{Attack, AttackKind, AttackOutcome};
use crate::defense::Defense;
use crate::pool::WorkspacePool;
use crate::telemetry::{run_instrumented, Dispatch, MaybeSink, ProgressState, SweepMonitor};
use crate::view::{OutcomeView, Solved};
use crate::vulnerability::SweepResult;

/// Engine selection for the simulator's adaptive route.
///
/// [`EngineChoice::Auto`] (the default) picks the fastest engine whose
/// preconditions hold per attack; `Generation` and `Race` force every
/// attack onto one engine for debugging and ablation, at whatever cost,
/// and `Delta` routes like `Auto` but never gives a replay up. All
/// engines produce bit-identical polluted sets (the root package's
/// `differential` test pins this); only `generations` bookkeeping differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Adaptive: race solver (generation fallback) when undefended or
    /// for a sub-prefix hijack; baseline-replay delta when a localizing
    /// defense is deployed, given up for the race solver when a cone
    /// outgrows its budget.
    #[default]
    Auto,
    /// Always the step-wise generation engine, from scratch.
    Generation,
    /// Routes like [`EngineChoice::Auto`], but a baseline replay is never
    /// abandoned, whatever the cone: the unbudgeted reference the
    /// budgeted replay is tested against. Attacks that `Auto` does not
    /// replay (no localizing defense, or a sub-prefix hijack) run where
    /// `Auto` runs them.
    Delta,
    /// Always the closed-form race solver, generation engine on
    /// non-convergence.
    Race,
}

impl EngineChoice {
    /// Parses a CLI-style engine name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names (mirroring the scale
    /// preset errors) when `name` is not one of them.
    pub fn parse(name: &str) -> Result<EngineChoice, String> {
        match name {
            "auto" => Ok(EngineChoice::Auto),
            "generation" => Ok(EngineChoice::Generation),
            "delta" => Ok(EngineChoice::Delta),
            "race" => Ok(EngineChoice::Race),
            other => Err(format!(
                "unknown engine {other:?}: valid engines are \"auto\", \"generation\", \
                 \"delta\", \"race\""
            )),
        }
    }

    /// The canonical CLI name ([`EngineChoice::parse`] round-trips it).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::Auto => "auto",
            EngineChoice::Generation => "generation",
            EngineChoice::Delta => "delta",
            EngineChoice::Race => "race",
        }
    }
}

impl std::str::FromStr for EngineChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineChoice, String> {
        EngineChoice::parse(s)
    }
}

/// Which shared [`Baseline`] a replayed attack needs — the one place the
/// rule "validators never change a target's honest convergence" lives.
/// A baseline depends on the attacked target and on whether providers
/// filter their stub customers, and on nothing else a [`Defense`] holds:
/// origin validation rejects only origins other than the authorized one,
/// and the honest run's one origin *is* the authorized one. So one
/// baseline per key serves every validator deployment — the paper's §V
/// progression of deployments against one target, or a stream's
/// validator churn — and callers that hold baselines (a cache, a
/// per-stream map, a strategy sweep) key them on this.
///
/// Only [`Simulator::baseline_key`] forms one, and only for an attack
/// that replays; it names a baseline of that simulator's topology and
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaselineKey {
    target: AsIndex,
    stub_defense: bool,
}

/// Per-thread engine scratch space: one workspace per engine, each sized
/// on first use and reused without clearing (epoch stamps) thereafter —
/// so a worker on the delta route, whose over-budget replays finish on
/// the race solver (and, rarely, the generation engine), ends up sizing
/// all three. Every entry point checks one out of the simulator's pool.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    ws: Workspace,
    dws: DeltaWorkspace,
    rws: RaceWorkspace,
}

/// Simulates origin and sub-prefix hijacks on one topology.
///
/// Owns the precomputed [`SimNet`] so repeated attacks share its tables,
/// and a pool of engine workspaces every entry point checks out of; the
/// parallel sweep methods distribute attacks across rayon workers.
///
/// Every caller reaches the engines through the routed executor:
/// [`Simulator::evaluate`] for one attack, the `sweep_*` methods for many
/// attackers on one target, [`Simulator::map_outcomes`] for unrelated
/// attacks. [`Simulator::run`] and [`Simulator::run_observed`] bypass the
/// route for the generation engine and exist to be compared against.
///
/// # Examples
///
/// ```
/// use bgpsim_hijack::{Attack, Defense, Simulator, SweepMonitor};
/// use bgpsim_routing::PolicyConfig;
/// use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};
///
/// let topo = topology_from_triples(&[
///     (1, 9, ProviderToCustomer),
///     (1, 8, ProviderToCustomer),
/// ]);
/// let sim = Simulator::new(&topo, PolicyConfig::paper());
/// let t = topo.index_of(AsId::new(9)).unwrap();
/// let a = topo.index_of(AsId::new(8)).unwrap();
/// let attack = Attack::origin(a, t);
/// let (count, _engine) = sim.evaluate(
///     attack,
///     &Defense::none(),
///     None,
///     &SweepMonitor::none(),
///     |view| view.pollution_count(),
/// );
/// assert_eq!(count, sim.run(attack, &Defense::none()).pollution_count());
/// ```
#[derive(Debug)]
pub struct Simulator<'t> {
    net: SimNet<'t>,
    policy: PolicyConfig,
    engine: EngineChoice,
    /// Fixed-point round cap handed to the race solver; rounds exhausted
    /// means generation-engine fallback.
    race_rounds: u32,
    /// Parked scratch spaces, reused across calls: the vendored rayon
    /// re-runs `map_init`'s init closure per worker per call, so without
    /// pooling every sweep chunk would reallocate O(ASes + slots) per
    /// worker (see `pool.rs`).
    pool: WorkspacePool<Scratch>,
}

impl<'t> Simulator<'t> {
    /// Builds a simulator over `topo` with the given policy and adaptive
    /// engine routing.
    pub fn new(topo: &'t Topology, policy: PolicyConfig) -> Simulator<'t> {
        Simulator {
            net: SimNet::new(topo),
            policy,
            engine: EngineChoice::Auto,
            race_rounds: DEFAULT_MAX_ROUNDS,
            pool: WorkspacePool::default(),
        }
    }

    /// Forces every attack onto one engine instead of adaptive routing.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineChoice) -> Simulator<'t> {
        self.engine = engine;
        self
    }

    /// Overrides the race solver's fixed-point round cap (default
    /// [`DEFAULT_MAX_ROUNDS`]). A cap of 0 makes every race attempt fall
    /// back to the generation engine — useful for exercising the fallback
    /// path in tests.
    #[must_use]
    pub fn with_race_rounds(mut self, rounds: u32) -> Simulator<'t> {
        self.race_rounds = rounds;
        self
    }

    /// The active engine selection.
    pub fn engine(&self) -> EngineChoice {
        self.engine
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.net.topology()
    }

    /// The precomputed simulation network.
    pub fn net(&self) -> &SimNet<'t> {
        &self.net
    }

    /// The active policy configuration.
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// Which engine answers an attack of `kind` under `defense` — the one
    /// place the engine override, the attack kind and the defense are
    /// weighed against each other.
    ///
    /// [`Dispatch::Delta`] means "replay against the target's shared
    /// honest baseline", which callers outside this crate learn only
    /// through [`Simulator::baseline_key`]. Replay pays off once a
    /// defense keeps contamination cones local; without any filtering
    /// every AS adopts or at least hears the bogus route, the cone is the
    /// whole network, and replay measured ~3× slower than racing the two
    /// origins closed-form. Sub-prefix hijacks never replay: the bogus
    /// more-specific prefix has no honest competition to start from, so
    /// its one origin is raced. [`Dispatch::Scratch`] is a route only
    /// under [`EngineChoice::Generation`].
    ///
    /// [`Dispatch::Race`] falls back to the generation engine when the
    /// tier-1 fixed point does not settle, and an adaptive
    /// [`Dispatch::Delta`] replay whose cone outgrows its budget is
    /// finished by the race solver; neither changes the route (the
    /// baseline is still needed to find out), and [`Simulator::evaluate`]
    /// reports which engine ran. The policy is not consulted: every route is pinned
    /// bit-identical under both the paper policy and strict Gao-Rexford.
    pub(crate) fn route(&self, kind: AttackKind, defense: &Defense) -> Dispatch {
        let replayable = kind != AttackKind::SubPrefixHijack;
        match self.engine {
            EngineChoice::Generation => Dispatch::Scratch,
            EngineChoice::Auto | EngineChoice::Delta if replayable && defense.localizes() => {
                Dispatch::Delta
            }
            EngineChoice::Auto | EngineChoice::Delta | EngineChoice::Race => Dispatch::Race,
        }
    }

    /// The shared baseline an attack of `kind` on `target` under `defense`
    /// replays against, or `None` when its route does not replay (no
    /// localizing defense, a sub-prefix hijack, or an engine override that
    /// never replays). Fetch or build [`Simulator::baseline_for`] of the
    /// key exactly when there is one; see [`BaselineKey`] for why the
    /// validator set is not part of it.
    pub fn baseline_key(
        &self,
        kind: AttackKind,
        target: AsIndex,
        defense: &Defense,
    ) -> Option<BaselineKey> {
        (self.route(kind, defense) == Dispatch::Delta).then(|| BaselineKey {
            target,
            stub_defense: defense.has_stub_defense(),
        })
    }

    /// Builds the honest convergence `key` names: the key's target
    /// announcing alone, authorized, with no validators and the key's
    /// stub-defense setting ([`Baseline::build`]). The build runs in a
    /// pooled workspace and is counted (once, with its heap footprint) on
    /// the monitor's telemetry.
    pub fn baseline_for(&self, key: BaselineKey, monitor: &SweepMonitor<'_>) -> Baseline {
        let filters = FilterContext {
            authorized_origin: Some(key.target),
            validators: None,
            stub_defense: key.stub_defense,
        };
        let baseline = Baseline::build(
            &self.net,
            &[Announcement::honest(key.target)],
            &filters,
            &self.policy,
            &mut self.pool.checkout().ws,
        );
        if let Some(t) = monitor.telemetry {
            t.record_baseline();
            t.record_baseline_bytes(baseline.heap_bytes() as u64);
        }
        baseline
    }

    /// Simulates one attack on the generation engine with a pooled
    /// workspace — the oracle every other route is compared against, and
    /// nothing else: tests, the stream detector's batch mode and the
    /// benchmark harness call it; production code asks
    /// [`Simulator::evaluate`].
    pub fn run(&self, attack: Attack, defense: &Defense) -> AttackOutcome {
        self.run_observed(
            attack,
            defense,
            &mut self.pool.checkout().ws,
            &mut NullObserver,
        )
    }

    /// Simulates one attack on the generation engine with a
    /// caller-provided workspace and observer: [`Simulator::run`] for the
    /// callers that want the message-passing engine's own trace (pass a
    /// [`bgpsim_routing::TraceRecorder`] to capture every message for
    /// visualization). Anything that only needs the outcome asks
    /// [`Simulator::evaluate`].
    pub fn run_observed<O: Observer>(
        &self,
        attack: Attack,
        defense: &Defense,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> AttackOutcome {
        let solved = Solved::Network(self.generate(attack, defense, ws, obs));
        OutcomeView::of(attack, &solved).to_outcome()
    }

    /// Simulates one attack on the engine the adaptive route picks and
    /// returns what `read` makes of it, with the engine that actually ran:
    /// [`Dispatch::Scratch`] when the race solver fell back, and — on the
    /// adaptive [`Dispatch::Delta`] route — [`Dispatch::Race`] (or, through
    /// the same fallback, `Scratch`) when the replay's cone outgrew its
    /// budget and the attack was finished from scratch.
    ///
    /// `read` gets an [`OutcomeView`] that answers off the engine pass
    /// itself, so a reader that only counts pollution or tests a few ASes
    /// never pays for the polluted list; `|view| view.to_outcome()` reads
    /// the full [`AttackOutcome`].
    ///
    /// `baseline` is read only when the attack has a
    /// [`Simulator::baseline_key`]: pass that key's baseline there (built
    /// once, or fetched from a cache). `None` means no shared baseline, so
    /// no replay — building one for a single attack costs far more than
    /// the replay it enables — and the attack is raced from scratch
    /// instead.
    ///
    /// Polluted sets are bit-identical to [`Simulator::run`] on every
    /// route; `generations` bookkeeping depends on the engine (waves,
    /// replay waves, or fixed-point rounds). The monitor is honoured as in
    /// a sweep of one: telemetry counts the dispatch, the engine pass and
    /// the wall time, and a set cancellation flag hands `read` a view with
    /// nothing polluted. The engine workspaces come from the simulator's
    /// pool, so a caller in steady state allocates nothing.
    pub fn evaluate<T>(
        &self,
        attack: Attack,
        defense: &Defense,
        baseline: Option<&Baseline>,
        monitor: &SweepMonitor<'_>,
        read: impl Fn(&OutcomeView<'_>) -> T,
    ) -> (T, Dispatch) {
        let route = match self.route(attack.kind, defense) {
            Dispatch::Delta if baseline.is_none() => Dispatch::Race,
            route => route,
        };
        let progress = ProgressState::new(*monitor, 1);
        run_instrumented(monitor, &progress, None, || {
            let mut scratch = self.pool.checkout();
            let (solved, dispatch) =
                self.solve(attack, defense, route, baseline, &mut scratch, monitor);
            Some((read(&OutcomeView::of(attack, &solved)), dispatch))
        })
        .unwrap_or_else(|| (read(&OutcomeView::skipped(attack)), route))
    }

    /// Evaluates unrelated attacks — any kind, any target, so no baseline
    /// is shared and none is replayed — on all rayon workers, and returns
    /// what `read` makes of every attack's [`OutcomeView`], in input
    /// order. The §VI detection experiment, the probe planner and the
    /// aggressiveness metric are this loop; each only counts pollution and
    /// tests probes, so no attack's polluted set is ever listed.
    pub fn map_outcomes<T, F>(&self, attacks: &[Attack], defense: &Defense, read: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&OutcomeView<'_>) -> T + Sync,
    {
        attacks
            .par_iter()
            .map(|&attack| {
                self.evaluate(attack, defense, None, &SweepMonitor::none(), &read)
                    .0
            })
            .collect()
    }

    /// Attacks `target` from every AS in `attackers` (skipping the target
    /// itself) and returns one pollution count per attacker, in input
    /// order. Runs on all rayon workers.
    ///
    /// This is the paper's §IV measurement: "sequentially attacking a
    /// target AS by each of the 42,696 other ASes and recording the number
    /// of polluted ASes".
    pub fn sweep_attackers(
        &self,
        target: AsIndex,
        attackers: &[AsIndex],
        defense: &Defense,
    ) -> Vec<u32> {
        self.sweep_attackers_monitored(target, attackers, defense, None, &SweepMonitor::none())
    }

    /// [`Simulator::sweep_attackers`], counting only polluted ASes inside
    /// `region` when given (§VII's regional containment metric), with
    /// instrumentation: the monitor's telemetry collector receives engine
    /// counters, dispatch counts, cone sizes and per-attack wall times;
    /// its progress callback fires after every attacker; setting its
    /// cancellation flag makes the remaining attackers report zero
    /// pollution (the sweep still returns one row per attacker, in order).
    ///
    /// On the [`Dispatch::Delta`] route the honest propagation of `target`
    /// runs once; each attacker re-converges incrementally from that
    /// shared baseline, so counting is O(contamination cone) per attacker,
    /// not O(network).
    pub fn sweep_attackers_monitored(
        &self,
        target: AsIndex,
        attackers: &[AsIndex],
        defense: &Defense,
        region: Option<&[AsIndex]>,
        monitor: &SweepMonitor<'_>,
    ) -> Vec<u32> {
        let mask = region.map(|members| {
            let mut m = vec![false; self.net.num_ases()];
            for &ix in members {
                m[ix.usize()] = true;
            }
            m
        });
        self.sweep(target, attackers, defense, mask.as_deref(), None, monitor)
    }

    /// Runs one contiguous chunk of a larger sweep, for callers that
    /// interleave several sweeps (the server's fair-share executor runs
    /// jobs one attacker-chunk at a time so a long sweep cannot starve a
    /// short one).
    ///
    /// Concatenating the rows of consecutive chunks is bit-identical to
    /// one [`Simulator::sweep_attackers_monitored`] call over the whole
    /// pool: every attacker row is independent — the sweep loop shares
    /// only the read-only baseline.
    ///
    /// When the sweep has a [`Simulator::baseline_key`] the caller **must**
    /// pass that key's baseline (built once, or fetched from a cache);
    /// passing `None` would rebuild it on every chunk and turn an
    /// O(baseline + pool) sweep into O(chunks × baseline). Whoever built
    /// the baseline counted it; no build is recorded here.
    pub fn sweep_chunk_monitored(
        &self,
        target: AsIndex,
        chunk: &[AsIndex],
        defense: &Defense,
        baseline: Option<&Baseline>,
        monitor: &SweepMonitor<'_>,
    ) -> Vec<u32> {
        self.sweep(target, chunk, defense, None, baseline, monitor)
    }

    /// Sweeps `target` from every AS in `attackers` *except the target
    /// itself* and returns the paired [`SweepResult`].
    ///
    /// This is the entry point the figs. 2–6 stats tables must use: a raw
    /// [`Simulator::sweep_attackers`] keeps the target's forced-zero row,
    /// which [`crate::VulnerabilityCurve::failed_attacks`] would then count
    /// as a "failed attack" — an off-by-one on every table. Excluding the
    /// target at sweep level keeps curve semantics ("attacks that polluted
    /// nobody") honest.
    pub fn sweep_result_monitored(
        &self,
        target: AsIndex,
        attackers: &[AsIndex],
        defense: &Defense,
        monitor: &SweepMonitor<'_>,
    ) -> SweepResult {
        let pool: Vec<AsIndex> = attackers.iter().copied().filter(|&a| a != target).collect();
        let counts = self.sweep_attackers_monitored(target, &pool, defense, None, monitor);
        SweepResult::new(pool, counts)
    }

    /// The sweep loop: one parallel pass of exact-prefix origin hijacks on
    /// `target`, one pooled [`Scratch`] per worker, counting pollution
    /// (inside `mask`, when given) straight off each engine pass.
    fn sweep(
        &self,
        target: AsIndex,
        attackers: &[AsIndex],
        defense: &Defense,
        mask: Option<&[bool]>,
        baseline: Option<&Baseline>,
        monitor: &SweepMonitor<'_>,
    ) -> Vec<u32> {
        // The sweep is homogeneous, so one route serves every attacker.
        let route = self.route(AttackKind::OriginHijack, defense);
        // Built once here, when the caller supplied none, and shared by
        // the whole pool.
        let built = self
            .baseline_key(AttackKind::OriginHijack, target, defense)
            .filter(|_| baseline.is_none())
            .map(|key| self.baseline_for(key, monitor));
        let baseline = baseline.or(built.as_ref());
        let progress = ProgressState::new(*monitor, attackers.len());
        attackers
            .par_iter()
            .map_init(
                || self.pool.checkout(),
                |scratch, &attacker| {
                    if attacker == target {
                        progress.tick();
                        return 0;
                    }
                    run_instrumented(monitor, &progress, 0, || {
                        let attack = Attack::origin(attacker, target);
                        let (solved, _) =
                            self.solve(attack, defense, route, baseline, scratch, monitor);
                        let view = OutcomeView::of(attack, &solved);
                        let count = match mask {
                            None => view.pollution_count(),
                            Some(mask) => view.count_within(mask),
                        };
                        count as u32
                    })
                },
            )
            .collect()
    }

    /// The executor: one engine pass for one attack on `route`, counted and
    /// observed on the monitor's telemetry. Returns the pass and the engine
    /// that actually ran.
    ///
    /// On the adaptive [`Dispatch::Delta`] route the replay runs under a
    /// cone budget (`num_ases /` [`DEFAULT_CONE_BUDGET_DIVISOR`]): one whose
    /// cone outgrows it is abandoned and the attack finished from scratch
    /// by the race solver — exactly as the race solver itself falls back
    /// to the generation engine — so an attack costs about the cheaper of
    /// a replay and a race whatever the deployment.
    /// [`EngineChoice::Delta`] means "never abandon a replay" and carries
    /// no budget. An abandoned replay counts as nothing but its
    /// abandonment.
    ///
    /// Off the delta route the attack is raced closed-form, deferring to
    /// the generation engine when the tier-1 fixed point does not settle
    /// within the configured round cap; [`Dispatch::Scratch`] goes
    /// straight to the generation engine.
    fn solve<'r>(
        &'r self,
        attack: Attack,
        defense: &'r Defense,
        route: Dispatch,
        baseline: Option<&'r Baseline>,
        scratch: &'r mut Scratch,
        monitor: &SweepMonitor<'_>,
    ) -> (Solved<'r, 't>, Dispatch) {
        let obs = &mut MaybeSink::from_monitor(monitor);
        if route == Dispatch::Delta {
            let baseline = baseline.expect("the delta route always carries a baseline");
            let budget = (self.engine == EngineChoice::Auto)
                .then(|| self.net.num_ases() / DEFAULT_CONE_BUDGET_DIVISOR);
            let replayed = propagate_delta_budgeted(
                &self.net,
                baseline,
                &[attack.injection()],
                &defense.context_for(attack.target),
                &self.policy,
                &mut scratch.dws,
                budget,
                obs,
            );
            if let Some(delta) = replayed {
                if let Some(t) = monitor.telemetry {
                    t.record_dispatch(Dispatch::Delta);
                    t.record_cone(delta.touched().count() as u64);
                }
                return (Solved::Cone(delta), Dispatch::Delta);
            }
            if let Some(t) = monitor.telemetry {
                t.record_abandoned();
            }
        }
        if route != Dispatch::Scratch {
            let (all, live) = attack.announcements();
            let started = monitor.telemetry.map(|_| Instant::now());
            let raced = solve_race_observed(
                &self.net,
                &all[live],
                &defense.context_for(attack.target),
                &self.policy,
                self.race_rounds,
                &mut scratch.rws,
                obs,
            );
            if let (Some(t), Some(started)) = (monitor.telemetry, started) {
                t.record_race_wall(started.elapsed());
            }
            if let Some(raced) = raced {
                if let Some(t) = monitor.telemetry {
                    t.record_dispatch(Dispatch::Race);
                }
                return (Solved::Race(raced), Dispatch::Race);
            }
        }
        if let Some(t) = monitor.telemetry {
            t.record_dispatch(Dispatch::Scratch);
        }
        let p = self.generate(attack, defense, &mut scratch.ws, obs);
        (Solved::Network(p), Dispatch::Scratch)
    }

    /// One attack with every announcement propagated from scratch through
    /// the generation engine.
    fn generate<O: Observer>(
        &self,
        attack: Attack,
        defense: &Defense,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Propagation {
        let (all, live) = attack.announcements();
        propagate_announcements(
            &self.net,
            &all[live],
            &defense.context_for(attack.target),
            &self.policy,
            ws,
            obs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SweepTelemetry;
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*, Topology};
    use std::sync::atomic::AtomicBool;

    fn ix(topo: &Topology, n: u32) -> AsIndex {
        topo.index_of(AsId::new(n)).unwrap()
    }

    /// Two providers peering, each with customers.
    fn topo() -> Topology {
        topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 9, ProviderToCustomer),
            (2, 8, ProviderToCustomer),
            (1, 5, ProviderToCustomer),
            (2, 6, ProviderToCustomer),
        ])
    }

    #[test]
    fn origin_hijack_outcome() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let outcome = sim.run(Attack::origin(ix(&t, 8), ix(&t, 9)), &Defense::none());
        // Attacker's side of the mesh: 2 and 6.
        assert_eq!(outcome.pollution_count(), 2);
        assert!(outcome.is_polluted(ix(&t, 2)));
        assert!(outcome.is_polluted(ix(&t, 6)));
        assert!(!outcome.is_polluted(ix(&t, 9)));
        assert!(!outcome.truncated);
        assert!(outcome.generations >= 1);
    }

    #[test]
    fn sub_prefix_hijack_pollutes_everyone_reachable() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let outcome = sim.run(Attack::sub_prefix(ix(&t, 8), ix(&t, 9)), &Defense::none());
        // No competition: every other AS (including the target) follows the
        // more-specific bogus prefix.
        assert_eq!(outcome.pollution_count(), t.num_ases() - 1);
        assert!(outcome.is_polluted(ix(&t, 9)));
    }

    #[test]
    fn sub_prefix_hijack_still_blocked_by_validators() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let all: Vec<AsIndex> = t.indices().collect();
        let defense = Defense::validators(&t, all);
        let outcome = sim.run(Attack::sub_prefix(ix(&t, 8), ix(&t, 9)), &defense);
        assert_eq!(outcome.pollution_count(), 0);
    }

    #[test]
    fn forged_origin_evades_universal_rov() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let all: Vec<AsIndex> = t.indices().collect();
        let defense = Defense::validators(&t, all);
        let (a, tgt) = (ix(&t, 8), ix(&t, 9));
        // Universal origin validation stops the plain origin hijack...
        let plain = sim.run(Attack::origin(a, tgt), &defense);
        assert_eq!(plain.pollution_count(), 0);
        // ...but the forged-origin path sails through ROV.
        let forged = sim.run(Attack::forged_origin(a, tgt), &defense);
        assert!(
            forged.pollution_count() > 0,
            "forged-origin hijack must evade origin validation"
        );
        // The victim itself still rejects the forgery (its own ASN is on
        // the bogus path), so it is never polluted.
        assert!(!forged.is_polluted(tgt));
    }

    #[test]
    fn forged_origin_is_weaker_than_unvalidated_origin_hijack() {
        // The forged path is one hop longer, so with no defenses it
        // captures no more than the plain hijack.
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let (a, tgt) = (ix(&t, 8), ix(&t, 9));
        let plain = sim.run(Attack::origin(a, tgt), &Defense::none());
        let forged = sim.run(Attack::forged_origin(a, tgt), &Defense::none());
        assert!(forged.pollution_count() <= plain.pollution_count());
    }

    /// The whole dispatch rule, one row per (engine, kind, defense), and
    /// the baseline key that follows from it: one exactly on the replaying
    /// cells, the same under every validator set with one stub setting,
    /// another under the other. The policy column is deliberately inert:
    /// strict Gao-Rexford routes exactly like the paper policy.
    #[test]
    fn route_table() {
        use AttackKind::{
            ForgedOriginHijack as Forged, OriginHijack as Origin, SubPrefixHijack as Sub,
        };
        use Dispatch::{Delta, Race, Scratch};
        use EngineChoice::{Auto, Generation};
        let t = topo();
        let target = ix(&t, 9);
        let open = Defense::none();
        // Two validator sets under each stub setting.
        let localizing = [
            Defense::stub_defense_only(),
            Defense::validators(&t, vec![ix(&t, 1)]).with_stub_defense(),
            Defense::validators(&t, vec![ix(&t, 1)]),
            Defense::validators(&t, vec![ix(&t, 2), ix(&t, 5)]),
        ];
        assert!(!open.localizes());
        // (engine, kind, route when undefended, route under a localizing defense)
        let table = [
            (Auto, Origin, Race, Delta),
            (Auto, Forged, Race, Delta),
            (Auto, Sub, Race, Race),
            (Generation, Origin, Scratch, Scratch),
            (Generation, Forged, Scratch, Scratch),
            (Generation, Sub, Scratch, Scratch),
            (EngineChoice::Delta, Origin, Race, Delta),
            (EngineChoice::Delta, Forged, Race, Delta),
            (EngineChoice::Delta, Sub, Race, Race),
            (EngineChoice::Race, Origin, Race, Race),
            (EngineChoice::Race, Forged, Race, Race),
            (EngineChoice::Race, Sub, Race, Race),
        ];
        for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
            for (engine, kind, undefended, defended) in table {
                let sim = Simulator::new(&t, policy).with_engine(engine);
                let key = |defense| sim.baseline_key(kind, target, defense);
                let case = format!("{engine:?} {kind:?}");
                assert_eq!(sim.route(kind, &open), undefended, "{case}");
                assert_eq!(key(&open).is_some(), undefended == Delta, "{case}");
                for defense in &localizing {
                    assert!(defense.localizes());
                    assert_eq!(sim.route(kind, defense), defended, "{case}");
                    assert_eq!(key(defense).is_some(), defended == Delta, "{case}");
                }
                let [stub, stub_rov, rov, other_rov] = localizing.each_ref().map(key);
                assert_eq!(stub, stub_rov, "{case}: validators are not in the key");
                assert_eq!(rov, other_rov, "{case}: validators are not in the key");
                if defended == Delta {
                    assert_ne!(stub, rov, "{case}: the stub setting is");
                }
            }
        }
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let target = ix(&t, 9);
        let attackers: Vec<AsIndex> = t.indices().collect();
        let counts = sim.sweep_attackers(target, &attackers, &Defense::none());
        assert_eq!(counts.len(), attackers.len());
        for (&attacker, &count) in attackers.iter().zip(&counts) {
            if attacker == target {
                assert_eq!(count, 0, "target row must be zero");
                continue;
            }
            let single = sim.run(Attack::origin(attacker, target), &Defense::none());
            assert_eq!(
                single.pollution_count() as u32,
                count,
                "sweep mismatch for attacker {attacker}"
            );
        }
    }

    #[test]
    fn regional_mask_restricts_counts() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let target = ix(&t, 9);
        let attackers = vec![ix(&t, 8)];
        let region = vec![ix(&t, 6)];
        for defense in [Defense::none(), Defense::validators(&t, vec![ix(&t, 5)])] {
            let within = sim.sweep_attackers_monitored(
                target,
                &attackers,
                &defense,
                Some(&region),
                &SweepMonitor::none(),
            );
            assert_eq!(within, vec![1]); // only AS6 counted
            let total = sim.sweep_attackers(target, &attackers, &defense);
            assert!(total[0] > within[0]);
        }
    }

    /// Chunks replaying a caller-supplied baseline concatenate to the
    /// self-building whole sweep, and count no baseline build of their
    /// own. The chunks run on a forced-replay simulator: five ASes leave
    /// the adaptive route a cone budget of zero, under which no replay
    /// would complete and the property would go unexercised.
    #[test]
    fn chunked_sweep_concatenation_matches_whole_sweep() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let replay = Simulator::new(&t, PolicyConfig::paper()).with_engine(EngineChoice::Delta);
        let target = ix(&t, 9);
        let attackers: Vec<AsIndex> = t.indices().filter(|&a| a != target).collect();
        let all: Vec<AsIndex> = t.indices().collect();
        let defense = Defense::validators(&t, all).with_stub_defense();
        let whole = sim.sweep_attackers(target, &attackers, &defense);
        assert_eq!(replay.sweep_attackers(target, &attackers, &defense), whole);
        let key = replay.baseline_key(AttackKind::OriginHijack, target, &defense);
        let baseline = replay.baseline_for(key.unwrap(), &SweepMonitor::none());
        let telemetry = SweepTelemetry::new();
        let monitor = SweepMonitor::none().with_telemetry(&telemetry);
        for chunk_size in [1, 2, attackers.len()] {
            let mut rows = Vec::new();
            for chunk in attackers.chunks(chunk_size) {
                rows.extend(replay.sweep_chunk_monitored(
                    target,
                    chunk,
                    &defense,
                    Some(&baseline),
                    &monitor,
                ));
            }
            assert_eq!(rows, whole, "chunk_size {chunk_size} diverged");
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.baselines_built, 0, "caller owns the build count");
        assert_eq!(snapshot.delta_dispatches, 3 * attackers.len() as u64);
        assert_eq!(snapshot.replays_abandoned, 0, "a forced replay completes");
        // The adaptive route takes the same chunks through the same
        // baseline; with a budget of zero the race solver finishes each.
        let adaptive = SweepTelemetry::new();
        let rows = sim.sweep_chunk_monitored(
            target,
            &attackers,
            &defense,
            Some(&baseline),
            &SweepMonitor::none().with_telemetry(&adaptive),
        );
        assert_eq!(rows, whole);
        let snapshot = adaptive.snapshot();
        assert_eq!(
            (snapshot.delta_dispatches, snapshot.replays_abandoned),
            (0, attackers.len() as u64)
        );
        // A self-building sweep counts its one build, bytes included.
        replay.sweep_attackers_monitored(target, &attackers, &defense, None, &monitor);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.baselines_built, 1);
        assert_eq!(snapshot.baseline_bytes, baseline.heap_bytes() as u64);
        // Undefended: no baseline exists, chunks race from scratch.
        let whole_open = sim.sweep_attackers(target, &attackers, &Defense::none());
        let mut rows = Vec::new();
        for chunk in attackers.chunks(2) {
            rows.extend(sim.sweep_chunk_monitored(target, chunk, &Defense::none(), None, &monitor));
        }
        assert_eq!(rows, whole_open);
    }

    #[test]
    fn sweep_result_excludes_target_row() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let target = ix(&t, 9);
        let attackers: Vec<AsIndex> = t.indices().collect();
        let sweep =
            sim.sweep_result_monitored(target, &attackers, &Defense::none(), &SweepMonitor::none());
        assert_eq!(sweep.len(), attackers.len() - 1);
        assert!(!sweep.attackers().contains(&target));
        // The raw sweep keeps the target's forced-zero row, which the
        // curve then counts as one spurious "failed attack"; the
        // target-excluding sweep must report exactly one fewer.
        let raw = crate::VulnerabilityCurve::from_counts(sim.sweep_attackers(
            target,
            &attackers,
            &Defense::none(),
        ));
        assert_eq!(sweep.curve().failed_attacks() + 1, raw.failed_attacks());
        // On this topology exactly one real attacker fails (AS5: its
        // provider AS1 tie-breaks to the target's equal-length customer
        // route, so AS5's announcement never leaves its access link) —
        // the corrected count is 1, where the raw curve reported 2.
        assert_eq!(sweep.curve().failed_attacks(), 1);
        // The per-attacker counts themselves are unchanged.
        for (attacker, count) in sweep.iter() {
            let single = sim.run(Attack::origin(attacker, target), &Defense::none());
            assert_eq!(single.pollution_count() as u32, count);
        }
    }

    /// Every route — adaptive and forced, with the target's shared
    /// baseline and with none (no baseline, no replay: the race leg), race
    /// solver and its generation fallback — must agree with the
    /// generation-engine oracle [`Simulator::run`] on everything except
    /// `generations`.
    fn assert_evaluate_matches_run(policy: PolicyConfig) {
        let t = topo();
        let mut attacks = Vec::new();
        for &(a, tgt) in &[(8, 9), (6, 9), (5, 8), (1, 9)] {
            attacks.push(Attack::origin(ix(&t, a), ix(&t, tgt)));
            attacks.push(Attack::forged_origin(ix(&t, a), ix(&t, tgt)));
            attacks.push(Attack::sub_prefix(ix(&t, a), ix(&t, tgt)));
        }
        let none = SweepMonitor::none();
        for defense in [
            Defense::none(),
            Defense::validators(&t, vec![ix(&t, 1), ix(&t, 2)]),
        ] {
            for engine in [
                EngineChoice::Auto,
                EngineChoice::Generation,
                EngineChoice::Delta,
                EngineChoice::Race,
            ] {
                for race_rounds in [DEFAULT_MAX_ROUNDS, 0] {
                    let sim = Simulator::new(&t, policy)
                        .with_engine(engine)
                        .with_race_rounds(race_rounds);
                    for &attack in &attacks {
                        let oracle = sim.run(attack, &defense);
                        let route = sim.route(attack.kind, &defense);
                        let shared = sim
                            .baseline_key(attack.kind, attack.target, &defense)
                            .map(|key| sim.baseline_for(key, &none));
                        for baseline in [None, shared.as_ref()] {
                            // No baseline, no replay. With one, six ASes
                            // leave the adaptive route a cone budget of
                            // zero: every replay it starts is abandoned
                            // and finished by the race solver. A forced
                            // replay carries no budget.
                            let raced = route == Dispatch::Race
                                || (route == Dispatch::Delta
                                    && (baseline.is_none() || engine == EngineChoice::Auto));
                            let ran = match (raced, race_rounds) {
                                (true, 0) => Dispatch::Scratch,
                                (true, _) => Dispatch::Race,
                                (false, _) => route,
                            };
                            let (got, dispatch) =
                                sim.evaluate(attack, &defense, baseline, &none, |view| {
                                    view.to_outcome()
                                });
                            let case = format!("{engine:?} rounds={race_rounds} {attack:?}");
                            assert_eq!(dispatch, ran, "{case}");
                            assert_eq!(got.attack, attack, "{case}");
                            assert_eq!(got.polluted, oracle.polluted, "{case}");
                            assert_eq!(got.truncated, oracle.truncated, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn evaluate_matches_generation_engine_under_paper_policy() {
        assert_evaluate_matches_run(PolicyConfig::paper());
    }

    #[test]
    fn evaluate_matches_generation_engine_under_strict_policy() {
        assert_evaluate_matches_run(PolicyConfig::strict_gao_rexford());
    }

    /// No shared baseline, so no replay: a defended attack handed no
    /// baseline is raced, not given a throwaway baseline of its own.
    #[test]
    fn evaluate_without_a_baseline_builds_none() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let defense = Defense::validators(&t, vec![ix(&t, 1), ix(&t, 2)]);
        let attack = Attack::origin(ix(&t, 8), ix(&t, 9));
        assert_eq!(sim.route(attack.kind, &defense), Dispatch::Delta);
        let telemetry = SweepTelemetry::new();
        let (outcome, dispatch) = sim.evaluate(
            attack,
            &defense,
            None,
            &SweepMonitor::none().with_telemetry(&telemetry),
            |view| view.to_outcome(),
        );
        assert_eq!(dispatch, Dispatch::Race);
        assert_eq!(outcome.polluted, sim.run(attack, &defense).polluted);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.baselines_built, 0);
        assert_eq!(
            (snapshot.race_dispatches, snapshot.delta_dispatches),
            (1, 0)
        );
        assert_eq!(snapshot.replays_abandoned, 0, "no replay was started");
    }

    #[test]
    fn cancelled_evaluate_reports_an_empty_outcome() {
        let t = topo();
        let sim = Simulator::new(&t, PolicyConfig::paper());
        let telemetry = SweepTelemetry::new();
        let cancel = AtomicBool::new(true);
        let monitor = SweepMonitor::none()
            .with_telemetry(&telemetry)
            .with_cancel(&cancel);
        let attack = Attack::origin(ix(&t, 8), ix(&t, 9));
        let (outcome, dispatch) = sim.evaluate(attack, &Defense::none(), None, &monitor, |view| {
            view.to_outcome()
        });
        assert_eq!(outcome.attack, attack);
        assert!(outcome.polluted.is_empty());
        assert_eq!(dispatch, Dispatch::Race, "the route, though nothing ran");
        let snapshot = telemetry.snapshot();
        assert_eq!((snapshot.skipped, snapshot.attacks), (1, 0));
    }

    #[test]
    fn engine_choice_parses_cli_names() {
        for engine in [
            EngineChoice::Auto,
            EngineChoice::Generation,
            EngineChoice::Delta,
            EngineChoice::Race,
        ] {
            assert_eq!(engine.name().parse::<EngineChoice>().unwrap(), engine);
        }
        for unknown in ["fast", "stable"] {
            let err = EngineChoice::parse(unknown).unwrap_err();
            assert!(err.contains("valid engines"), "{err}");
        }
    }

    /// Every forced engine must reproduce adaptive dispatch's sweep rows
    /// exactly, defended and undefended alike, under both policies.
    #[test]
    fn sweep_engine_overrides_match_auto() {
        let t = topo();
        let target = ix(&t, 9);
        let attackers: Vec<AsIndex> = t.indices().collect();
        for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
            for defense in [
                Defense::none(),
                Defense::validators(&t, vec![ix(&t, 1), ix(&t, 2)]),
            ] {
                let auto = Simulator::new(&t, policy);
                let expected = auto.sweep_attackers(target, &attackers, &defense);
                for engine in [
                    EngineChoice::Generation,
                    EngineChoice::Delta,
                    EngineChoice::Race,
                ] {
                    let sim = Simulator::new(&t, policy).with_engine(engine);
                    assert_eq!(
                        sim.sweep_attackers(target, &attackers, &defense),
                        expected,
                        "{engine:?} diverges from auto"
                    );
                }
            }
        }
    }
}
