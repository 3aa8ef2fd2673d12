//! Reading a solved attack: [`OutcomeView`].

use std::borrow::Cow;

use bgpsim_routing::{Choice, DeltaResult, Propagation, RaceResult};
use bgpsim_topology::AsIndex;

use crate::attack::{Attack, AttackKind, AttackOutcome};

/// One engine pass, before pollution is read off it.
pub(crate) enum Solved<'r, 't> {
    /// A full per-AS selection map (generation engine).
    Network(Propagation),
    /// The race solver's converged workspace, read out on demand.
    Race(RaceResult<'r, 't>),
    /// A contamination cone over the shared baseline (delta replay).
    Cone(DeltaResult<'r, 't>),
}

/// A borrowed, read-only view of one solved attack: how many ASes it
/// polluted and whether a given AS is one of them, answered straight off
/// the engine pass that solved it.
///
/// Counting and membership cost what the engine's own read-out costs: a
/// raced attack counts in one pass over the race solver's workspace and
/// answers membership per AS, a replayed one reads its contamination cone.
/// Nothing lists the polluted set unless [`OutcomeView::to_outcome`] is
/// asked for it. A forged-origin attack is the exception: its pollution is
/// a property of whole learned-from chains, so the view walks them once
/// and answers off that list.
///
/// [`Simulator::evaluate`](crate::Simulator::evaluate) and
/// [`Simulator::map_outcomes`](crate::Simulator::map_outcomes) hand one to
/// their reader; [`AttackOutcome::view`] reads an owned outcome the same
/// way.
#[derive(Debug)]
pub struct OutcomeView<'v> {
    attack: Attack,
    verdicts: Verdicts<'v>,
    generations: u32,
    truncated: bool,
}

/// Where an [`OutcomeView`] reads its answers from.
#[derive(Debug)]
enum Verdicts<'v> {
    Network(&'v Propagation),
    Race(&'v RaceResult<'v, 'v>),
    Cone(&'v DeltaResult<'v, 'v>),
    /// The polluted set itself, in index order.
    Listed(Cow<'v, [AsIndex]>),
}

impl<'v> OutcomeView<'v> {
    /// The view of `attack` solved by `solved`.
    pub(crate) fn of(attack: Attack, solved: &'v Solved<'v, 'v>) -> OutcomeView<'v> {
        let stats = match solved {
            Solved::Network(p) => p.stats(),
            Solved::Race(raced) => raced.stats(),
            Solved::Cone(delta) => delta.stats(),
        };
        let verdicts = match (attack.kind, solved) {
            (AttackKind::ForgedOriginHijack, Solved::Network(p)) => {
                Verdicts::Listed(Cow::Owned(chain_captured(p, attack.attacker)))
            }
            (AttackKind::ForgedOriginHijack, Solved::Race(raced)) => Verdicts::Listed(Cow::Owned(
                chain_captured(&raced.to_propagation(), attack.attacker),
            )),
            (AttackKind::ForgedOriginHijack, Solved::Cone(delta)) => Verdicts::Listed(Cow::Owned(
                chain_captured(&delta.to_propagation(), attack.attacker),
            )),
            (_, Solved::Network(p)) => Verdicts::Network(p),
            (_, Solved::Race(raced)) => Verdicts::Race(raced),
            (_, Solved::Cone(delta)) => Verdicts::Cone(delta),
        };
        OutcomeView {
            attack,
            verdicts,
            generations: stats.generations,
            truncated: stats.truncated,
        }
    }

    /// The view of an attack that was never solved: nothing polluted.
    pub(crate) fn skipped(attack: Attack) -> OutcomeView<'static> {
        OutcomeView {
            attack,
            verdicts: Verdicts::Listed(Cow::Borrowed(&[])),
            generations: 0,
            truncated: false,
        }
    }

    /// The view of an owned outcome ([`AttackOutcome::view`]).
    pub(crate) fn listed(outcome: &'v AttackOutcome) -> OutcomeView<'v> {
        OutcomeView {
            attack: outcome.attack,
            verdicts: Verdicts::Listed(Cow::Borrowed(&outcome.polluted)),
            generations: outcome.generations,
            truncated: outcome.truncated,
        }
    }

    /// The attack that was solved.
    pub fn attack(&self) -> Attack {
        self.attack
    }

    /// Number of polluted ASes, counted without listing them
    /// ([`AttackOutcome::pollution_count`]).
    pub fn pollution_count(&self) -> usize {
        let attacker = self.attack.attacker;
        match &self.verdicts {
            Verdicts::Network(p) => p.captured_count(attacker),
            Verdicts::Race(raced) => raced.captured_count(attacker),
            Verdicts::Cone(delta) => cone_captured(delta, attacker).count(),
            Verdicts::Listed(polluted) => polluted.len(),
        }
    }

    /// Whether `ix` was polluted ([`AttackOutcome::is_polluted`]): it
    /// selected a route the attacker originates, and is not the attacker.
    pub fn is_polluted(&self, ix: AsIndex) -> bool {
        let attacker = self.attack.attacker;
        let captured =
            |c: Option<Choice>| ix != attacker && c.is_some_and(|c| c.origin == attacker);
        match &self.verdicts {
            Verdicts::Network(p) => captured(p.choice(ix)),
            Verdicts::Race(raced) => captured(raced.choice(ix)),
            Verdicts::Cone(delta) => captured(delta.choice(ix)),
            Verdicts::Listed(polluted) => polluted.binary_search(&ix).is_ok(),
        }
    }

    /// How many polluted ASes `mask` holds.
    pub(crate) fn count_within(&self, mask: &[bool]) -> usize {
        let mut count = 0;
        self.for_each_polluted(|ix| count += usize::from(mask[ix.usize()]));
        count
    }

    /// The full outcome, its polluted set listed in index order.
    pub fn to_outcome(&self) -> AttackOutcome {
        let mut polluted = Vec::new();
        self.for_each_polluted(|ix| polluted.push(ix));
        if matches!(self.verdicts, Verdicts::Cone(_)) {
            // A cone runs in recruitment order.
            polluted.sort_unstable();
        }
        AttackOutcome {
            attack: self.attack,
            polluted,
            generations: self.generations,
            truncated: self.truncated,
        }
    }

    /// Calls `f` on every polluted AS: in index order, except off a cone.
    fn for_each_polluted(&self, f: impl FnMut(AsIndex)) {
        let attacker = self.attack.attacker;
        match &self.verdicts {
            Verdicts::Network(p) => p.captured_by(attacker).for_each(f),
            Verdicts::Race(raced) => raced.captured_by(attacker).for_each(f),
            Verdicts::Cone(delta) => cone_captured(delta, attacker).for_each(f),
            Verdicts::Listed(polluted) => polluted.iter().copied().for_each(f),
        }
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

/// The ASes a forged-origin hijack polluted, in index order: every AS
/// whose learned-from chain physically ends at the attacker (the route
/// *claims* the target as origin — that is the evasion). A memoized walk.
fn chain_captured(p: &Propagation, attacker: AsIndex) -> Vec<AsIndex> {
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
                None => break if cur == attacker { 2 } else { 1 },
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
        if verdict == 2 && state[i] == 2 && i != attacker.usize() {
            polluted.push(AsIndex::new(i as u32));
        }
    }
    polluted
}
