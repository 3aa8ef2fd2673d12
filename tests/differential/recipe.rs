//! The one recipe space every arm of the property draws from: its
//! strategy, its builder, a shrinker and a printer for the shrunk result.

use bgpsim_topology::{AsId, AsIndex, LinkKind, Topology, TopologyBuilder};
use proptest::collection::vec;
use proptest::prelude::*;

/// Most leaves a recipe grows; AS selectors range over the core plus this
/// many, and wrap onto the ASes that exist.
const MAX_LEAVES: u32 = 8;

/// A random topology and scenario. The core is `n` ASes whose provider
/// links are oriented small → large index (an acyclic provider hierarchy,
/// as Gao-Rexford stability requires); leaf `i` is appended at index
/// `n + i`. AS selectors wrap onto the ASes the recipe builds.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    pub n: u32,
    pub p2c: Vec<(u32, u32)>,
    pub p2p: Vec<(u32, u32)>,
    pub s2s: Vec<(u32, u32)>,
    /// Per leaf: two core providers (multi-homed unless they coincide) and
    /// a peer selector — below `n` that core AS, otherwise another leaf.
    pub leaves: Vec<(u32, u32, u32)>,
    pub target: u32,
    pub attacker: u32,
    /// The origin a second forged injection claims, when it is neither the
    /// target nor the attacker.
    pub claim: u32,
    pub validators: Vec<u32>,
    /// A second validator set, replayed over baselines built without it.
    pub revalidators: Vec<u32>,
    /// A generation cap low enough to truncate the race.
    pub max_generations: u32,
    /// The stream arm's tape length.
    pub events: usize,
    pub tape_seed: u64,
    /// Seed of the stream arm's random probe set.
    pub probe_seed: u64,
}

pub fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (4u32..24).prop_flat_map(|n| {
        let pair = (0..n, 0..n);
        let any = 0..n + MAX_LEAVES;
        (
            (
                vec(pair.clone(), 3..40),
                vec(pair.clone(), 0..12),
                vec(pair, 0..4),
                vec((0..n, 0..n, any.clone()), 0..MAX_LEAVES as usize + 1),
            ),
            (any.clone(), any.clone(), any.clone()),
            (vec(any.clone(), 0..6), vec(any, 0..6)),
            (1u32..5, 8usize..40, 0u64..1_000_000, 0u64..1_000_000),
        )
            .prop_map(
                move |(
                    (p2c, p2p, s2s, leaves),
                    (target, attacker, claim),
                    (validators, revalidators),
                    (max_generations, events, tape_seed, probe_seed),
                )| Recipe {
                    n,
                    p2c,
                    p2p,
                    s2s,
                    leaves,
                    target,
                    attacker,
                    claim,
                    validators,
                    revalidators,
                    max_generations,
                    events,
                    tape_seed,
                    probe_seed,
                },
            )
    })
}

impl Recipe {
    /// Number of ASes the recipe builds.
    pub fn total(&self) -> u32 {
        self.n + self.leaves.len() as u32
    }

    /// Resolves an AS selector onto the ASes the recipe builds.
    pub fn pick(&self, selector: u32) -> AsIndex {
        AsIndex::new(selector % self.total())
    }

    /// Resolves a leaf's peer selector to an AS index.
    fn leaf_peer(&self, peer: u32) -> u32 {
        if peer < self.n {
            peer
        } else {
            self.n + (peer - self.n) % self.leaves.len() as u32
        }
    }

    /// The topology, AS `i` getting ASN `i + 1`. Self-links and repeated
    /// links are skipped.
    pub fn build(&self) -> Topology {
        let mut b = TopologyBuilder::new();
        for i in 0..self.total() {
            b.add_as(AsId::new(i + 1));
        }
        let mut link = |x: u32, y: u32, kind| {
            if x != y {
                let _ = b.add_link(AsId::new(x + 1), AsId::new(y + 1), kind);
            }
        };
        for &(x, y) in &self.p2c {
            link(x.min(y), x.max(y), LinkKind::ProviderToCustomer);
        }
        for &(x, y) in &self.p2p {
            link(x, y, LinkKind::PeerToPeer);
        }
        for &(x, y) in &self.s2s {
            link(x, y, LinkKind::SiblingToSibling);
        }
        for (i, &(p1, p2, peer)) in self.leaves.iter().enumerate() {
            let leaf = self.n + i as u32;
            link(p1, leaf, LinkKind::ProviderToCustomer);
            link(p2, leaf, LinkKind::ProviderToCustomer);
            link(leaf, self.leaf_peer(peer), LinkKind::PeerToPeer);
        }
        b.build().expect("non-empty")
    }

    /// The same recipe with every selector resolved to the AS index it
    /// picks, so removing an AS can renumber them.
    fn normalized(&self) -> Recipe {
        let total = self.total();
        let mut r = self.clone();
        for (leaf, &(_, _, peer)) in r.leaves.iter_mut().zip(&self.leaves) {
            leaf.2 = self.leaf_peer(peer);
        }
        for s in [&mut r.target, &mut r.attacker, &mut r.claim] {
            *s %= total;
        }
        for v in r.validators.iter_mut().chain(&mut r.revalidators) {
            *v %= total;
        }
        r
    }

    /// A normalized recipe without AS `k`, higher indices shifted down:
    /// its links, its validator entries and (if it is one) its leaf go,
    /// a leaf peering with it peers with nobody, and a forged claim on it
    /// falls back to the attacker. `None` for the target, the attacker
    /// and the sole provider of a leaf.
    fn without_as(&self, k: u32) -> Option<Recipe> {
        if k == self.target || k == self.attacker {
            return None;
        }
        let shift = |x: u32| x - u32::from(x > k);
        let links = |links: &[(u32, u32)]| {
            links
                .iter()
                .filter(|&&(x, y)| x != k && y != k)
                .map(|&(x, y)| (shift(x), shift(y)))
                .collect()
        };
        let members = |set: &[u32]| set.iter().filter(|&&v| v != k).map(|&v| shift(v)).collect();
        let mut leaves = Vec::new();
        for (i, &(p1, p2, peer)) in self.leaves.iter().enumerate() {
            let leaf = self.n + i as u32;
            let (p1, p2) = match (p1 == k, p2 == k) {
                (true, true) => return None,
                (true, false) => (p2, p2),
                (false, true) => (p1, p1),
                (false, false) => (p1, p2),
            };
            if leaf != k {
                let peer = if peer == k { leaf } else { peer };
                leaves.push((shift(p1), shift(p2), shift(peer)));
            }
        }
        Some(Recipe {
            n: self.n - u32::from(k < self.n),
            p2c: links(&self.p2c),
            p2p: links(&self.p2p),
            s2s: links(&self.s2s),
            leaves,
            target: shift(self.target),
            attacker: shift(self.attacker),
            claim: shift(if self.claim == k {
                self.attacker
            } else {
                self.claim
            }),
            validators: members(&self.validators),
            revalidators: members(&self.revalidators),
            ..self.clone()
        })
    }

    /// Every one-step reduction of a normalized recipe, largest first.
    fn reductions(&self) -> Vec<Recipe> {
        let mut out: Vec<Recipe> = (0..self.total())
            .filter_map(|k| self.without_as(k))
            .collect();
        fn drop_each<T>(r: &Recipe, out: &mut Vec<Recipe>, field: fn(&mut Recipe) -> &mut Vec<T>) {
            for i in 0..field(&mut r.clone()).len() {
                let mut smaller = r.clone();
                field(&mut smaller).remove(i);
                out.push(smaller);
            }
        }
        drop_each(self, &mut out, |r| &mut r.p2c);
        drop_each(self, &mut out, |r| &mut r.p2p);
        drop_each(self, &mut out, |r| &mut r.s2s);
        drop_each(self, &mut out, |r| &mut r.validators);
        drop_each(self, &mut out, |r| &mut r.revalidators);
        if self.max_generations > 1 {
            out.push(Recipe {
                max_generations: self.max_generations - 1,
                ..self.clone()
            });
        }
        out
    }

    /// The recipe as a Rust literal in the layout `pinned.rs` keeps.
    pub fn literal(&self) -> String {
        format!(
            "Recipe {{\n    n: {},\n    p2c: vec!{:?},\n    p2p: vec!{:?},\n    s2s: vec!{:?},\n    \
             leaves: vec!{:?},\n    target: {}, attacker: {}, claim: {},\n    \
             validators: vec!{:?}, revalidators: vec!{:?},\n    \
             max_generations: {}, events: {}, tape_seed: {}, probe_seed: {},\n}}",
            self.n,
            self.p2c,
            self.p2p,
            self.s2s,
            self.leaves,
            self.target,
            self.attacker,
            self.claim,
            self.validators,
            self.revalidators,
            self.max_generations,
            self.events,
            self.tape_seed,
            self.probe_seed,
        )
    }
}

/// Shrinks a failing recipe: a greedy fixpoint over single reductions
/// (drop an AS, a link, a leaf, a validator or a revalidator; lower
/// `max_generations`), taking each one for which `still_fails` holds.
pub fn shrink(recipe: &Recipe, still_fails: impl Fn(&Recipe) -> bool) -> Recipe {
    let mut best = recipe.normalized();
    'search: loop {
        for smaller in best.reductions() {
            if still_fails(&smaller) {
                best = smaller;
                continue 'search;
            }
        }
        return best;
    }
}
