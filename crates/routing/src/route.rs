//! Route representations and propagation outcomes.

use bgpsim_topology::AsIndex;

use crate::policy::PrefClass;

/// The route an AS selected after convergence, in compact form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The origin AS of the selected route.
    pub origin: AsIndex,
    /// The neighbor the route was learned from (`None` if `origin` is the
    /// AS itself).
    pub learned_from: Option<AsIndex>,
    /// AS-path length (number of links to the origin; 0 at the origin).
    pub len: u16,
    /// Preference class under which the route was accepted.
    pub class: PrefClass,
}

/// Result of one propagation: per-AS selections plus convergence stats.
#[derive(Debug, Clone)]
pub struct Propagation {
    choices: Vec<Option<Choice>>,
    stats: ConvergenceStats,
}

/// Counters describing how a propagation converged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvergenceStats {
    /// Generations executed before the message queues drained.
    pub generations: u32,
    /// Total announcements delivered.
    pub messages: u64,
    /// Announcements that changed some AS's best route.
    pub accepted: u64,
    /// Announcements rejected by the AS-path loop check.
    pub loop_rejected: u64,
    /// Announcements rejected by route-origin-validation filters.
    pub filter_rejected: u64,
    /// Announcements rejected by defensive stub filters.
    pub stub_rejected: u64,
    /// Withdrawals delivered (implicit route removals).
    pub withdrawals: u64,
    /// True if the generation cap was hit before the queues drained.
    pub truncated: bool,
}

impl Propagation {
    pub(crate) fn new(choices: Vec<Option<Choice>>, stats: ConvergenceStats) -> Propagation {
        Propagation { choices, stats }
    }

    /// The selection of `ix`, or `None` if no route reached it.
    pub fn choice(&self, ix: AsIndex) -> Option<Choice> {
        self.choices[ix.usize()]
    }

    /// Resident heap footprint of the per-AS selection map in bytes
    /// (capacity-based, like [`Baseline::heap_bytes`](crate::Baseline::heap_bytes)).
    pub fn heap_bytes(&self) -> usize {
        self.choices.capacity() * std::mem::size_of::<Option<Choice>>()
    }

    /// Per-AS selections, indexed by dense AS index.
    pub fn choices(&self) -> &[Option<Choice>] {
        &self.choices
    }

    /// Convergence counters.
    pub fn stats(&self) -> ConvergenceStats {
        self.stats
    }

    /// ASes whose selected route originates at `origin`, excluding `origin`
    /// itself. For a hijack simulation with the attacker as `origin`, these
    /// are exactly the *polluted* ASes.
    pub fn captured_by(&self, origin: AsIndex) -> impl Iterator<Item = AsIndex> + '_ {
        self.choices
            .iter()
            .enumerate()
            .filter(move |(i, c)| {
                *i != origin.usize() && matches!(c, Some(ch) if ch.origin == origin)
            })
            .map(|(i, _)| AsIndex::new(i as u32))
    }

    /// Count of ASes captured by `origin` (see [`Propagation::captured_by`]).
    pub fn captured_count(&self, origin: AsIndex) -> usize {
        self.captured_by(origin).count()
    }

    /// Number of ASes that selected *some* route.
    pub fn reached_count(&self) -> usize {
        self.choices.iter().filter(|c| c.is_some()).count()
    }

    /// Reconstructs the AS path from `ix` to its route's origin by walking
    /// the `learned_from` chain. The returned path starts at `ix` and ends
    /// at the origin (so its length is `choice.len + 1`). Returns `None`
    /// if `ix` selected no route.
    ///
    /// # Panics
    ///
    /// Panics if the stored choices are inconsistent (a `learned_from`
    /// chain that does not terminate) — impossible for engine-produced
    /// propagations, whose loop prevention forbids cycles.
    pub fn path_to_origin(&self, ix: AsIndex) -> Option<Vec<AsIndex>> {
        let mut path = vec![ix];
        let mut cur = self.choice(ix)?;
        let mut guard = self.choices.len() + 1;
        while let Some(from) = cur.learned_from {
            path.push(from);
            cur = self.choice(from).expect("learned_from chains are routed");
            guard = guard
                .checked_sub(1)
                .expect("learned_from chain exceeds AS count — cycle");
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_by_excludes_the_origin() {
        let o = AsIndex::new(0);
        let mk = |origin| {
            Some(Choice {
                origin,
                learned_from: None,
                len: 1,
                class: PrefClass::Customer,
            })
        };
        let p = Propagation::new(
            vec![mk(o), mk(o), mk(AsIndex::new(1)), None],
            ConvergenceStats::default(),
        );
        assert_eq!(p.captured_count(o), 1);
        assert_eq!(p.reached_count(), 3);
        assert_eq!(p.captured_by(o).collect::<Vec<_>>(), vec![AsIndex::new(1)]);
        assert!(p.choice(AsIndex::new(3)).is_none());
    }

    #[test]
    fn path_reconstruction_walks_learned_from() {
        let o = AsIndex::new(0);
        let chain = |origin, from: Option<u32>, len| {
            Some(Choice {
                origin,
                learned_from: from.map(AsIndex::new),
                len,
                class: PrefClass::Customer,
            })
        };
        // 2 -> 1 -> 0 (origin).
        let p = Propagation::new(
            vec![
                chain(o, None, 0),
                chain(o, Some(0), 1),
                chain(o, Some(1), 2),
                None,
            ],
            ConvergenceStats::default(),
        );
        let path = p.path_to_origin(AsIndex::new(2)).unwrap();
        assert_eq!(
            path,
            vec![AsIndex::new(2), AsIndex::new(1), AsIndex::new(0)]
        );
        assert_eq!(
            path.len() as u16,
            p.choice(AsIndex::new(2)).unwrap().len + 1
        );
        assert_eq!(p.path_to_origin(AsIndex::new(0)).unwrap(), vec![o]);
        assert!(p.path_to_origin(AsIndex::new(3)).is_none());
    }
}
