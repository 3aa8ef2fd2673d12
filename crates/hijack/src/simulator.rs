//! The hijack simulator: one route, one executor.
//!
//! Every attack is answered the same way: [`Simulator::route`] picks the
//! engine, and one private executor runs it. [`Simulator::evaluate`] reads
//! a full [`AttackOutcome`] off the result; the sweep entry points count
//! pollution off it directly, one row per attacker, in parallel.
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
//! honest convergence: [`Simulator::baseline_for`] builds one [`Baseline`]
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

use std::ops::DerefMut;
use std::time::Instant;

use bgpsim_routing::{
    propagate_announcements, propagate_delta_budgeted, solve_race_observed, Announcement, Baseline,
    DeltaResult, DeltaWorkspace, NullObserver, Observer, PolicyConfig, Propagation, RaceWorkspace,
    SimNet, Workspace, DEFAULT_CONE_BUDGET_DIVISOR, DEFAULT_MAX_ROUNDS,
};
use bgpsim_topology::{AsIndex, Topology};
use rayon::prelude::*;

use crate::attack::{Attack, AttackKind, AttackOutcome};
use crate::defense::Defense;
use crate::pool::WorkspacePool;
use crate::telemetry::{run_instrumented, Dispatch, MaybeSink, ProgressState, SweepMonitor};
use crate::vulnerability::SweepResult;

/// Engine selection for [`Simulator::route`].
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

/// Per-thread engine scratch space: one workspace per engine, each sized
/// on first use and reused without clearing (epoch stamps) thereafter —
/// so a worker on the delta route, whose over-budget replays finish on
/// the race solver (and, rarely, the generation engine), ends up sizing
/// all three. Check one out with [`Simulator::scratch`], or own one for
/// the lifetime of a long-running caller.
#[derive(Debug, Default)]
pub struct Scratch {
    ws: Workspace,
    dws: DeltaWorkspace,
    rws: RaceWorkspace,
}

/// One engine pass, before pollution is read off it.
enum Solved<'r, 't> {
    /// A full per-AS selection map (race solver or generation engine).
    Network(Propagation),
    /// A contamination cone over the shared baseline (delta replay).
    Cone(DeltaResult<'r, 't>),
}

/// Simulates origin and sub-prefix hijacks on one topology.
///
/// Owns the precomputed [`SimNet`] so repeated attacks share its tables;
/// the parallel sweep methods distribute attacks across rayon workers with
/// one pooled [`Scratch`] per thread.
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
/// use bgpsim_routing::{NullObserver, PolicyConfig};
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
/// let (outcome, _engine) = sim.evaluate(
///     attack,
///     &Defense::none(),
///     None,
///     &mut sim.scratch(),
///     &SweepMonitor::none(),
///     &mut NullObserver,
/// );
/// assert_eq!(outcome.polluted, sim.run(attack, &Defense::none()).polluted);
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

    /// Checks a [`Scratch`] out of the simulator's pool. It returns to the
    /// pool on drop with its warmed allocations intact, so per-request and
    /// per-rayon-worker callers allocate nothing in steady state.
    pub fn scratch(&self) -> impl DerefMut<Target = Scratch> + '_ {
        self.pool.checkout()
    }

    /// Which engine answers an attack of `kind` under `defense` — the one
    /// place the engine override, the attack kind and the defense are
    /// weighed against each other.
    ///
    /// [`Dispatch::Delta`] means "replay against the target's shared
    /// honest baseline ([`Simulator::baseline_for`])", so it is also the
    /// cacheability predicate serving layers need: build or fetch that
    /// baseline exactly when the route says so. Replay pays off once a
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
    pub fn route(&self, kind: AttackKind, defense: &Defense) -> Dispatch {
        let replayable = kind != AttackKind::SubPrefixHijack;
        match self.engine {
            EngineChoice::Generation => Dispatch::Scratch,
            EngineChoice::Auto | EngineChoice::Delta if replayable && defense.localizes() => {
                Dispatch::Delta
            }
            EngineChoice::Auto | EngineChoice::Delta | EngineChoice::Race => Dispatch::Race,
        }
    }

    /// Builds `target`'s honest convergence under `defense`: the shared
    /// state every [`Dispatch::Delta`] attack on `target` replays. Of the
    /// defense only [`Defense::has_stub_defense`] shapes it — validators
    /// never reject the authorized origin — so one baseline serves every
    /// validator deployment with the same stub-defense setting
    /// ([`Baseline::build`]). The build runs in a pooled workspace and is
    /// counted (once, with its heap footprint) on the monitor's telemetry.
    pub fn baseline_for(
        &self,
        target: AsIndex,
        defense: &Defense,
        monitor: &SweepMonitor<'_>,
    ) -> Baseline {
        let baseline = Baseline::build(
            &self.net,
            &[Announcement::honest(target)],
            &defense.context_for(target),
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
        let (p, _) = self.propagate_full(attack, defense, None, ws, &SweepMonitor::none(), obs);
        network_outcome(attack, &p)
    }

    /// Simulates one attack on the engine [`Simulator::route`] picks,
    /// returning the outcome and the engine that actually ran:
    /// [`Dispatch::Scratch`] when the race solver fell back, and — on the
    /// adaptive [`Dispatch::Delta`] route — [`Dispatch::Race`] (or, through
    /// the same fallback, `Scratch`) when the replay's cone outgrew its
    /// budget and the attack was finished from scratch.
    ///
    /// `baseline` is read on the [`Dispatch::Delta`] route only: pass the
    /// target's [`Simulator::baseline_for`] there (built once per target
    /// and stub-defense setting, or fetched from a cache). `None` means no
    /// shared baseline, so no replay — building one for a single attack
    /// costs far more than the replay it enables — and the attack is
    /// raced from scratch instead.
    ///
    /// Polluted sets are bit-identical to [`Simulator::run`] on every
    /// route; `generations` bookkeeping depends on the engine (waves,
    /// replay waves, or fixed-point rounds). The monitor is honoured as in
    /// a sweep of one: telemetry counts the dispatch and wall time, and a
    /// set cancellation flag yields an empty outcome.
    pub fn evaluate<O: Observer>(
        &self,
        attack: Attack,
        defense: &Defense,
        baseline: Option<&Baseline>,
        scratch: &mut Scratch,
        monitor: &SweepMonitor<'_>,
        obs: &mut O,
    ) -> (AttackOutcome, Dispatch) {
        let route = match self.route(attack.kind, defense) {
            Dispatch::Delta if baseline.is_none() => Dispatch::Race,
            route => route,
        };
        let skipped = AttackOutcome {
            attack,
            polluted: Vec::new(),
            generations: 0,
            truncated: false,
        };
        let progress = ProgressState::new(*monitor, 1);
        run_instrumented(monitor, &progress, (skipped, route), || {
            let (solved, dispatch) =
                self.solve(attack, defense, route, baseline, scratch, monitor, obs);
            let outcome = match solved {
                Solved::Network(p) => network_outcome(attack, &p),
                Solved::Cone(delta) => {
                    let polluted = match attack.kind {
                        AttackKind::OriginHijack => {
                            // Sort to restore the index-order contract.
                            let mut polluted: Vec<AsIndex> =
                                cone_captured(&delta, attack.attacker).collect();
                            polluted.sort_unstable();
                            polluted
                        }
                        // Forged paths claim the target's origin, so
                        // pollution is a property of the learned-from
                        // chain (the memoized walk needs the full
                        // selection map).
                        _ => polluted_set(&delta.to_propagation(), attack),
                    };
                    AttackOutcome {
                        attack,
                        polluted,
                        generations: delta.stats().generations,
                        truncated: delta.stats().truncated,
                    }
                }
            };
            (outcome, dispatch)
        })
    }

    /// Evaluates unrelated attacks — any kind, any target, so no baseline
    /// is shared and none is replayed — on all rayon workers, one pooled
    /// [`Scratch`] each, and returns what `read` makes of every outcome,
    /// in input order. The §VI detection experiment, the probe planner and
    /// the aggressiveness metric are this loop; each outcome is dropped as
    /// soon as it is read.
    pub fn map_outcomes<T, F>(&self, attacks: &[Attack], defense: &Defense, read: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&AttackOutcome) -> T + Sync,
    {
        attacks
            .par_iter()
            .map_init(
                || self.pool.checkout(),
                |scratch, &attack| {
                    let (outcome, _) = self.evaluate(
                        attack,
                        defense,
                        None,
                        scratch,
                        &SweepMonitor::none(),
                        &mut NullObserver,
                    );
                    read(&outcome)
                },
            )
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
    /// When the sweep routes to [`Dispatch::Delta`] the caller **must**
    /// pass the target's [`Simulator::baseline_for`] (built once, or
    /// fetched from a cache); passing `None` would rebuild it on every
    /// chunk and turn an O(baseline + pool) sweep into O(chunks ×
    /// baseline). Whoever built the baseline counted it; no build is
    /// recorded here.
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
        let built = (route == Dispatch::Delta && baseline.is_none())
            .then(|| self.baseline_for(target, defense, monitor));
        let baseline = baseline.or(built.as_ref());
        let in_mask = |ix: &AsIndex| mask.is_none_or(|m| m[ix.usize()]);
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
                        let mut obs = MaybeSink::from_monitor(monitor);
                        let (solved, _) = self
                            .solve(attack, defense, route, baseline, scratch, monitor, &mut obs);
                        let count = match solved {
                            Solved::Network(p) => p.captured_by(attacker).filter(in_mask).count(),
                            Solved::Cone(delta) => {
                                cone_captured(&delta, attacker).filter(in_mask).count()
                            }
                        };
                        count as u32
                    })
                },
            )
            .collect()
    }

    /// The executor: one engine pass for one attack on `route`, counted on
    /// the monitor's telemetry. Returns the pass and the engine that
    /// actually ran.
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
    #[allow(clippy::too_many_arguments)]
    fn solve<'r, O: Observer>(
        &'r self,
        attack: Attack,
        defense: &Defense,
        route: Dispatch,
        baseline: Option<&'r Baseline>,
        scratch: &'r mut Scratch,
        monitor: &SweepMonitor<'_>,
        obs: &mut O,
    ) -> (Solved<'r, 't>, Dispatch) {
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
        let rws = (route != Dispatch::Scratch).then_some(&mut scratch.rws);
        let (p, dispatch) =
            self.propagate_full(attack, defense, rws, &mut scratch.ws, monitor, obs);
        (Solved::Network(p), dispatch)
    }

    /// One attack with every announcement propagated from scratch: through
    /// the closed-form race solver when `rws` is given, deferring to the
    /// generation engine when its tier-1 fixed point does not settle
    /// within the configured round cap, and straight through the
    /// generation engine otherwise.
    fn propagate_full<O: Observer>(
        &self,
        attack: Attack,
        defense: &Defense,
        rws: Option<&mut RaceWorkspace>,
        ws: &mut Workspace,
        monitor: &SweepMonitor<'_>,
        obs: &mut O,
    ) -> (Propagation, Dispatch) {
        let ctx = defense.context_for(attack.target);
        let (all, live) = attack.announcements();
        let announcements = &all[live];
        if let Some(rws) = rws {
            let started = monitor.telemetry.map(|_| Instant::now());
            let raced = solve_race_observed(
                &self.net,
                announcements,
                &ctx,
                &self.policy,
                self.race_rounds,
                rws,
                obs,
            );
            if let (Some(t), Some(started)) = (monitor.telemetry, started) {
                t.record_race_wall(started.elapsed());
            }
            if let Some(p) = raced {
                if let Some(t) = monitor.telemetry {
                    t.record_dispatch(Dispatch::Race);
                }
                return (p, Dispatch::Race);
            }
        }
        if let Some(t) = monitor.telemetry {
            t.record_dispatch(Dispatch::Scratch);
        }
        let p = propagate_announcements(&self.net, announcements, &ctx, &self.policy, ws, obs);
        (p, Dispatch::Scratch)
    }
}

/// The outcome read off a full selection map.
fn network_outcome(attack: Attack, p: &Propagation) -> AttackOutcome {
    AttackOutcome {
        attack,
        polluted: polluted_set(p, attack),
        generations: p.stats().generations,
        truncated: p.stats().truncated,
    }
}

/// The ASes a replayed origin hijack captured, in cone (not index) order.
/// The baseline routes only to the target, so every AS now routing to the
/// attacker changed its selection and is in the cone: reading `touched` is
/// exhaustive.
fn cone_captured<'d>(
    delta: &'d DeltaResult<'_, '_>,
    attacker: AsIndex,
) -> impl Iterator<Item = AsIndex> + 'd {
    delta
        .touched()
        .filter(move |&ix| ix != attacker && delta.choice(ix).is_some_and(|c| c.origin == attacker))
}

/// Computes the polluted set for an outcome: for honest hijacks, every AS
/// whose selected route origin is the attacker; for forged-origin hijacks,
/// every AS whose selection chain physically terminates at the attacker
/// (the route *claims* the target as origin — that is the evasion).
fn polluted_set(p: &Propagation, attack: Attack) -> Vec<AsIndex> {
    match attack.kind {
        AttackKind::OriginHijack | AttackKind::SubPrefixHijack => {
            p.captured_by(attack.attacker).collect()
        }
        AttackKind::ForgedOriginHijack => {
            // Memoized chain walk: does the learned_from chain end at the
            // attacker?
            let n = p.choices().len();
            let mut state = vec![0u8; n]; // 0 unknown, 1 clean, 2 polluted
            let mut stack: Vec<AsIndex> = Vec::new();
            let mut polluted = Vec::new();
            for i in 0..n {
                let mut cur = AsIndex::new(i as u32);
                stack.clear();
                let verdict = loop {
                    match state[cur.usize()] {
                        1 => break 1,
                        2 => break 2,
                        _ => {}
                    }
                    let Some(choice) = p.choice(cur) else { break 1 };
                    match choice.learned_from {
                        None => break if cur == attack.attacker { 2 } else { 1 },
                        Some(from) => {
                            stack.push(cur);
                            cur = from;
                        }
                    }
                };
                state[cur.usize()] = verdict;
                for &visited in &stack {
                    state[visited.usize()] = verdict;
                }
                if verdict == 2 && state[i] == 2 && i != attack.attacker.usize() {
                    polluted.push(AsIndex::new(i as u32));
                }
            }
            polluted
        }
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

    /// The whole dispatch rule, one row per (engine, kind, defense). The
    /// policy column is deliberately inert: strict Gao-Rexford routes
    /// exactly like the paper policy.
    #[test]
    fn route_table() {
        use AttackKind::{
            ForgedOriginHijack as Forged, OriginHijack as Origin, SubPrefixHijack as Sub,
        };
        use Dispatch::{Delta, Race, Scratch};
        use EngineChoice::{Auto, Generation};
        let t = topo();
        let open = Defense::none();
        let localizing = [
            Defense::stub_defense_only(),
            Defense::validators(&t, vec![ix(&t, 1)]),
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
                assert_eq!(sim.route(kind, &open), undefended, "{engine:?} {kind:?}");
                for defense in &localizing {
                    assert!(defense.localizes());
                    assert_eq!(sim.route(kind, defense), defended, "{engine:?} {kind:?}");
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
        let baseline = replay.baseline_for(target, &defense, &SweepMonitor::none());
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
        let mut scratch = Scratch::default();
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
                        let shared = (route == Dispatch::Delta)
                            .then(|| sim.baseline_for(attack.target, &defense, &none));
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
                            let (got, dispatch) = sim.evaluate(
                                attack,
                                &defense,
                                baseline,
                                &mut scratch,
                                &none,
                                &mut NullObserver,
                            );
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
            &mut Scratch::default(),
            &SweepMonitor::none().with_telemetry(&telemetry),
            &mut NullObserver,
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
        let (outcome, dispatch) = sim.evaluate(
            attack,
            &Defense::none(),
            None,
            &mut Scratch::default(),
            &monitor,
            &mut NullObserver,
        );
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
