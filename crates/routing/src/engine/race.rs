//! Closed-form two-origin race solver for the paper policy.
//!
//! Under strict Gao-Rexford preference route preference strictly degrades
//! along every export edge, so one label-setting (Dijkstra-style) pass over
//! `(class, len)` priorities computes the stable solution. The tier-1
//! shortest-path override ([`PolicyConfig::tier1_shortest_path`]) breaks the
//! monotonicity that pass relies on — a tier-1 AS may prefer a short
//! *provider-class* route over a longer customer route, so `(class, len)`
//! priorities no longer settle in decreasing order everywhere. The break is
//! confined to the handful of tier-1 nodes, though. With every tier-1
//! selection held constant, each remaining relaxation strictly degrades
//! `(class asc-by-pref, len)` — receiver class never exceeds sender class
//! (valley-free export plus sibling class inheritance) and length always
//! grows — so a bucket queue over `(class, len)` settles each AS exactly
//! once, with the standard slot tie-break. One such pass is split around a
//! fixed point over the tier-1 selections:
//!
//! 1. **The upper drain.** Seed the origins and drain the origin- and
//!    customer-class buckets. Every variable tier-1 is pre-settled, and an
//!    offer to one lands in its candidacy tally instead.
//! 2. **Clique rounds.** Freeze every tier-1's selection (initially:
//!    none). Each round starts from a saved copy of the upper drain's
//!    tally, adds the offers each routed tier-1's frozen customer-class
//!    route makes to its tier-1 peers, and re-derives every tier-1
//!    selection length-first ([`tier1_key`]) from the tally (Jacobi style:
//!    all tier-1s re-select from the same tally). Rounds repeat until the
//!    selections stop changing.
//! 3. **The lower drain.** Inject the fixed point's frozen routes and
//!    drain the peer- and provider-class buckets.
//!
//! The split is exact when no tier-1 has a provider or a sibling
//! (`SimNet::tier1s_stand_alone`). A tier-1 then hears only customer-
//! and origin-class exports, and a frozen tier-1 route lands only in the
//! peer and provider classes or in a tier-1 peer's tally, while nothing a
//! peer- or provider-class AS exports reaches a tier-1. So the upper drain
//! and its tally are the same whatever the tier-1s select, and the three
//! steps compute the very pass a loop of full conditioned passes would
//! keep last, for one pass plus O(clique) work per round.
//!
//! On a fixed point the combined assignment is self-consistent, i.e. a
//! stable routing solution, and the empty initialization makes the
//! iteration track the generation engine's synchronous race (tier-1s hear
//! nothing before anyone else does). Where the stable solution is unique —
//! the delta engine's analysis shows multistability under this policy
//! requires routes laundered through sibling links — every fixed point is
//! *the* race outcome; the root package's `differential` test pins
//! bit-identical [`Propagation`] choices against the generation engine
//! under both policies. A tier-1 whose sibling buys transit is the
//! multistable corner where a fixed point can be the wrong stable state;
//! the solver declines it together with every other topology where a
//! tier-1 has a provider or a sibling. Other corners can oscillate
//! instead of converging, so the iteration carries a bounded round cap.
//! Both report `None`; callers (see `bgpsim_hijack::Simulator`) then fall
//! back to the generation engine, which is always correct.
//!
//! Unlike a plain label-setting pass, this one needs per-ASN loop checks:
//! frozen tier-1 routes carry paths from the clique rounds (whose ASNs are
//! not settled by the drains), and forged-origin seeds carry the victim's
//! ASN, so "receiver already settled" no longer implies "receiver not on
//! the path". Paths live in a per-solve arena exactly like the generation
//! engine's.
//!
//! Under strict Gao-Rexford the tier-1 variable set is empty, the pass is
//! unconditioned, and the solver converges in one round — the loop checks
//! then never fire, since every path ASN is already settled when its
//! export arrives.
//!
//! The pass decides only the ASes whose routes can matter to another AS.
//! A *leaf* ([`SimNet::is_leaf`]: no customers, no siblings, not a tier-1)
//! re-exports nothing it learns, so the drains walk a core adjacency with
//! every edge into a leaf dropped, and a leaf that does not announce is
//! never labeled at all. Its selection is *pulled* when the result is read
//! ([`RaceResult`]): the best of its peers' and providers' final routes.
//! A converged solve snapshots those routes once, one `u64` per *feeder*
//! (an AS with an edge into a leaf, `SimNet::feeders`), so the read-out
//! streams the 4-byte leaf in-edge words and that dense table instead of
//! gathering 32-byte pass records: a pollution count is one branch-free
//! pass over the words ([`RaceResult::captured_count`]).

use bgpsim_topology::{AsIndex, Relationship};

use crate::engine::generation::{Announcement, PathNode, NONE};
use crate::filter::{AsSet, FilterContext};
use crate::net::{SimNet, FEEDER_MASK, LEAF_IN_PEER, LEAF_ROW_END};
use crate::observer::Observer;
use crate::policy::{standard_key, tier1_key, PolicyConfig, PrefClass};
use crate::route::{Choice, ConvergenceStats, Propagation};

/// Default cap on fixed-point rounds before [`solve_race`] gives up.
///
/// The tier-1 clique is tiny and densely meshed, so real topologies
/// converge in a handful of rounds (typically 2–4); a run that needs more
/// is almost certainly oscillating between stable states.
pub const DEFAULT_MAX_ROUNDS: u32 = 16;

/// Length capacity of the bucket queue (`4 * STRIDE` buckets in total).
///
/// Keeping it a small constant keeps every bucket header hot in L1 —
/// sizing it by AS count, as path lengths in principle require, spreads
/// the headers over hundreds of kilobytes for lengths that never occur
/// (real AS paths stay in the low tens). A pass that would need a longer
/// path aborts the solve instead ([`RaceWorkspace::overflow`]), making the
/// caller fall back to the generation engine, which is always correct.
const STRIDE: usize = 64;

/// Per-AS pass state, one 32-byte record (a `u64` and five `u32`s,
/// padded) so a relax visit touches a single cache line: the comparison
/// key up front (every way a candidate can be rejected — receiver
/// settled, receiver a pre-settled tier-1, offer no better — is served by
/// one load), the label payload behind it.
///
/// * Settling sets [`SETTLED_BIT`] in `key`: every live offer loses the
///   comparison (real keys keep the bit clear), and the class / len / slot
///   fields stay decodable for exports and materialization. The bucket
///   drain detects duplicate entries on the same bit.
/// * Pre-settled tier-1s instead hold the all-ones sentinel: offers lose
///   the same comparison, and the relax loop recognizes the sentinel to
///   divert the offer into the tier-1 candidacy tally (see `relax_from`).
///   Once the fixed point lands, a routed one's stamp is rewritten to its
///   frozen export and an unrouted one's unlabeled, so the read-out
///   treats every decided AS alike.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    /// [`standard_key`] of the current label, [`SETTLED_BIT`] included
    /// once settled; `u64::MAX` for pre-settled tier-1s; garbage unless
    /// `labeled` is current.
    key: u64,
    /// Epoch when `key` (and the label fields below) was last written.
    labeled: u32,
    /// Epoch mark: "may appear on an in-flight path while unsettled" —
    /// set for ASNs carried by frozen tier-1 paths (the tier-1 itself
    /// included) and forged-origin seeds. Every other path hop is settled
    /// when it is appended, so a receiver that fails both this and the key
    /// test cannot be on the offered path and the loop walk is skipped
    /// (see `relax_from`).
    dirty: u32,
    /// Origin AS of the current label.
    origin: u32,
    /// Arena node of the route's path as received (not including self).
    node: u32,
    /// Sender the route was learned from (`NONE` for self-originated
    /// seeds), recorded so materialization needs no slot lookup.
    from: u32,
}

const _: () = assert!(std::mem::size_of::<Stamp>() == 32);

/// ORed into a key when its AS can no longer be relabeled: at settle
/// time, and from birth for origin seeds (an origin never abandons its
/// own announcement — a sibling re-exporting it would otherwise win the
/// slot tie-break at equal class and length). Real keys keep the bit
/// clear, so one comparison rejects both "offer no better" and "receiver
/// settled", while the bit sits above the class field and leaves the
/// `key_*` decoders unaffected. Distinct from the all-ones tier-1
/// sentinel: bits 50–62 of a settled key are always zero.
const SETTLED_BIT: u64 = 1 << 63;

/// The class and length fields of a [`standard_key`]: an offer in the
/// read-out's snapshot ([`RaceWorkspace::offer`]) keeps these and carries
/// the route's origin in the low 32 bits instead of the tie slot.
const ROUTE_BITS: u64 = 0x0003_FFFF_0000_0000;

/// ORed into a feeder's snapshot offer when the stub filter drops its
/// route on every edge into a leaf: the feeder is a stub other than the
/// authorized origin, or the route claims one as its origin
/// (`FilterContext::rejects_stub` on a non-sibling edge, and a leaf has no
/// sibling). The streamed count reads the bit as "offers nothing";
/// [`best_offer`] strips it and applies the filters edge by edge.
const STUB_DROPPED: u64 = 1 << 63;

/// The class field of a [`standard_key`].
#[inline]
fn key_class(key: u64) -> u8 {
    (key >> 48) as u8
}

/// The length field of a [`standard_key`].
#[inline]
fn key_len(key: u64) -> u16 {
    !((key >> 32) as u16)
}

/// One tier-1 AS's frozen selection between rounds. The fixed-point test
/// compares these for equality, so the path is materialized (arena nodes
/// do not survive a round).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrozenChoice {
    origin: u32,
    /// Receiver-side slot the route was learned on.
    slot: u32,
    len: u16,
    class: u8,
    /// AS path as received, nearest hop first (the sender, then the
    /// sender's own path).
    path: Vec<u32>,
}

/// The bucket classes the upper drain settles: origin, then customer.
const UPPER: [usize; 2] = [3, 2];

/// The bucket classes the lower drain settles: peer, then provider.
const LOWER: [usize; 2] = [1, 0];

/// Reusable scratch state for [`solve_race`]; create one per thread.
///
/// Epoch-stamped like [`crate::Workspace`]: per-AS arrays are invalidated
/// by bumping a counter once per solve, so back-to-back solves never
/// memset the big arrays. Epoch 0 means "never used"; on wrap the stamps
/// are cleared and the counter restarts at 1.
#[derive(Debug, Default)]
pub struct RaceWorkspace {
    epoch: u32,
    /// Per-AS pass state (variable tier-1s are pre-settled).
    stamp: Vec<Stamp>,
    /// Path arena, cleared each solve; each clique round truncates it back
    /// to the upper drain's length.
    arena: Vec<PathNode>,
    /// Bucket queue: `class * STRIDE + len`. The drains clear every bucket
    /// they pass; `begin` clears the rest, which a solve that bailed out
    /// between the drains leaves behind.
    buckets: Vec<Vec<u32>>,
    /// Highest populated length bucket per class, -1 when empty.
    hi: [i64; 4],
    /// Set when the pass met a path longer than the bucket queue can order
    /// ([`STRIDE`]); the solve returns `None`.
    overflow: bool,
    /// Per-AS index into `frozen`, `NONE` unless the AS is a variable
    /// tier-1 of the current run.
    t1_index: Vec<u32>,
    /// Variable tier-1 members of the current run (tier-1s that are not
    /// announcers); cleared by the next `begin`.
    t1_nodes: Vec<u32>,
    frozen: Vec<Option<FrozenChoice>>,
    next: Vec<Option<FrozenChoice>>,
    /// Per variable tier-1: best candidacy offered so far as `(tier1_key,
    /// origin, arena node)`, tallied by the relax loop itself and by the
    /// clique rounds — `derive_tier1` only materializes winners. A zero
    /// key means no offer.
    t1_best: Vec<(u64, u32, u32)>,
    /// `t1_best` as the upper drain left it: every clique round starts
    /// from this copy.
    t1_upper: Vec<(u64, u32, u32)>,
    /// Per variable tier-1, the arena node of the path its frozen route
    /// exports to its peers (itself first), `NONE` when it exports none;
    /// rebuilt each clique round.
    t1_out: Vec<u32>,
    /// The current run's announcers: the only leaves the pass labels, so
    /// the read-out reads them from their stamps instead of pulling them.
    announcers: Vec<u32>,
    /// The leaves among the current run's announcers and claimed origins,
    /// ascending and distinct: the only leaves whose selection the
    /// announcer rule or the loop check can touch, which the streamed
    /// read-out ignores and corrects for afterwards.
    special_leaves: Vec<u32>,
    /// The read-out's snapshot, written once per converged solve: per
    /// feeder ([`SimNet::feeders`]), its final route as [`ROUTE_BITS`] of
    /// its key over its origin, [`STUB_DROPPED`] when the stub filter
    /// drops it on the way to a leaf, 0 when it has none.
    offer: Vec<u64>,
}

impl RaceWorkspace {
    /// Creates an empty workspace; arrays are sized on first use.
    pub fn new() -> RaceWorkspace {
        RaceWorkspace::default()
    }

    /// Starts a solve: undoes the previous run's tier-1 registrations,
    /// bumps the label/settled epoch and clears the arena.
    fn begin(&mut self, net: &SimNet<'_>, announcements: &[Announcement]) {
        let n = net.num_ases();
        if self.stamp.len() < n {
            self.stamp.resize(n, Stamp::default());
            self.t1_index.resize(n, NONE);
        }
        // Self-healing even if the previous run bailed out early.
        for &t in &self.t1_nodes {
            self.t1_index[t as usize] = NONE;
        }
        self.t1_nodes.clear();
        self.frozen.clear();
        self.next.clear();
        self.t1_best.clear();
        self.t1_out.clear();
        self.overflow = false;
        self.hi = [-1; 4];
        if self.buckets.is_empty() {
            self.buckets.resize_with(4 * STRIDE, Vec::new);
        }
        self.buckets.iter_mut().for_each(Vec::clear);
        self.announcers.clear();
        self.announcers
            .extend(announcements.iter().map(|a| a.announcer.raw()));
        self.special_leaves.clear();
        self.special_leaves.extend(
            announcements
                .iter()
                .flat_map(|a| [a.announcer, a.claimed_origin])
                .filter(|&x| net.is_leaf(x))
                .map(AsIndex::raw),
        );
        self.special_leaves.sort_unstable();
        self.special_leaves.dedup();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(Stamp::default());
            self.epoch = 1;
        }
        self.arena.clear();
    }
}

/// Walks an arena path chain checking for `asn`.
fn path_contains(arena: &[PathNode], mut node: u32, asn: u32) -> bool {
    while node != NONE {
        let pn = arena[node as usize];
        if pn.asn == asn {
            return true;
        }
        node = pn.parent;
    }
    false
}

/// Computes the stable race outcome of `announcements` under `policy`,
/// or `None` — fall back to the generation engine — when the answer may
/// not be the one the synchronous race reaches:
///
/// * the policy has the tier-1 shortest-path override and some tier-1
///   has a provider or a sibling (`SimNet::tier1s_stand_alone`): the
///   one-pass fixed point needs tier-1s that hear only customer- and
///   origin-class routes, and a customer-class route laundered through a
///   sibling that buys transit gives the fixed point two stable states,
///   of which timing picks one;
/// * the tier-1 fixed point did not settle within `max_rounds` rounds;
/// * the pass met a path longer than the bucket queue orders (`STRIDE`).
///
/// Strict Gao-Rexford has no tier-1 variables, so it always converges,
/// in one round.
///
/// The outcome is a [`RaceResult`] borrowing `ws`; leaves that do not
/// announce are selected when it is read. Selections, tie-breaks and
/// filter semantics match [`crate::propagate_announcements`] bit for bit
/// wherever the solver converges (the root package's `differential` test
/// pins this under both policies, forged origins included); only the
/// [`ConvergenceStats`] differ — no messages flow, so `accepted` reports
/// the ASes the pass routed (every routed AS but the pulled leaves) and
/// `generations` reports fixed-point rounds.
///
/// # Panics
///
/// Panics if `announcements` is empty, contains duplicate announcers, or
/// references ASes out of range for `net`.
pub fn solve_race<'r, 't>(
    net: &'r SimNet<'t>,
    announcements: &[Announcement],
    filters: &FilterContext<'r>,
    policy: &PolicyConfig,
    max_rounds: u32,
    ws: &'r mut RaceWorkspace,
) -> Option<RaceResult<'r, 't>> {
    assert!(!announcements.is_empty(), "at least one origin required");
    let n = net.num_ases();
    for a in announcements {
        assert!(
            a.announcer.usize() < n && a.claimed_origin.usize() < n,
            "announcement references an AS out of range"
        );
    }
    if policy.tier1_shortest_path && !net.tier1s_stand_alone() {
        return None;
    }
    ws.begin(net, announcements);

    // The variable set: tier-1s whose selection the fixed point iterates
    // on. Announcers are excluded — an origin's own route always wins, so
    // its selection is a constant of the race.
    if policy.tier1_shortest_path {
        for &t in net.tier1_members() {
            if announcements.iter().any(|a| a.announcer == t) {
                continue;
            }
            ws.t1_index[t.usize()] = ws.t1_nodes.len() as u32;
            ws.t1_nodes.push(t.raw());
            ws.frozen.push(None);
            ws.next.push(None);
            ws.t1_best.push((0, NONE, NONE));
            ws.t1_out.push(NONE);
        }
    }

    // Monomorphize the drains on whether filters can fire at all: the
    // undefended sweeps (the fig. 2–4 workload) run inert contexts, and
    // the per-edge predicates are pure overhead there.
    let (settled, rounds) = if filters.is_inert() {
        fixed_point::<false>(net, announcements, filters, max_rounds, ws)
    } else {
        fixed_point::<true>(net, announcements, filters, max_rounds, ws)
    }?;

    // Converged. The variable tier-1s still hold the pass sentinel: a
    // routed one takes its confirmed export (the lower drain injected its
    // origin and path), an unrouted one is unlabeled.
    let RaceWorkspace {
        epoch,
        stamp,
        t1_nodes,
        frozen,
        offer,
        ..
    } = &mut *ws;
    let mut routed_tier1s = 0u64;
    for (&t, f) in t1_nodes.iter().zip(frozen.iter()) {
        let st = &mut stamp[t as usize];
        match f {
            Some(f) => {
                st.key = standard_key(PrefClass::from_u8(f.class), f.len, f.slot) | SETTLED_BIT;
                st.from = net.slot_entry(AsIndex::new(t), f.slot).index.raw();
                routed_tier1s += 1;
            }
            None => st.labeled = 0,
        }
    }
    // Every decided route a leaf can hear, read off the stamps once.
    let snapshot = |x: u32| {
        let st = stamp[x as usize];
        (st.labeled == *epoch).then(|| ((st.key & ROUTE_BITS) | u64::from(st.origin), st.origin))
    };
    offer.clear();
    match filters.authorized_origin.filter(|_| filters.stub_defense) {
        None => offer.extend(
            net.feeders()
                .iter()
                .map(|&x| snapshot(x).map_or(0, |(off, _)| off)),
        ),
        Some(auth) => {
            let bogus = |x: u32| net.is_stub(AsIndex::new(x)) && x != auth.raw();
            offer.extend(net.feeders().iter().map(|&x| {
                snapshot(x).map_or(0, |(off, origin)| {
                    if bogus(x) || bogus(origin) {
                        off | STUB_DROPPED
                    } else {
                        off
                    }
                })
            }));
        }
    }
    Some(RaceResult {
        net,
        filters: *filters,
        stats: ConvergenceStats {
            accepted: announcements.len() as u64 + settled + routed_tier1s,
            generations: rounds,
            ..ConvergenceStats::default()
        },
        ws,
    })
}

/// [`solve_race`] reporting the final counters through
/// [`Observer::on_converged`] when it succeeds (telemetry must not count a
/// run that the caller is about to redo in the generation engine).
pub fn solve_race_observed<'r, 't, O: Observer>(
    net: &'r SimNet<'t>,
    announcements: &[Announcement],
    filters: &FilterContext<'r>,
    policy: &PolicyConfig,
    max_rounds: u32,
    ws: &'r mut RaceWorkspace,
    obs: &mut O,
) -> Option<RaceResult<'r, 't>> {
    let raced = solve_race(net, announcements, filters, policy, max_rounds, ws)?;
    obs.on_converged(&raced.stats());
    Some(raced)
}

/// The conditioned pass, split around the tier-1 fixed point: the upper
/// drain, clique rounds until the tier-1 selections repeat, the lower
/// drain. Returns how many ASes the drains settled and how many rounds
/// ran, or `None` past `max_rounds` or on an overflow.
fn fixed_point<const FILTERED: bool>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    max_rounds: u32,
    ws: &mut RaceWorkspace,
) -> Option<(u64, u32)> {
    seed::<FILTERED>(net, announcements, filters, ws);
    let mut settled = drain::<FILTERED>(net, filters, ws, UPPER);
    if ws.overflow {
        return None;
    }
    ws.t1_upper.clone_from(&ws.t1_best);
    let upper_arena = ws.arena.len();
    let mut rounds = 0u32;
    loop {
        if rounds >= max_rounds {
            return None;
        }
        rounds += 1;
        ws.arena.truncate(upper_arena);
        clique_round(net, filters, ws);
        derive_tier1(ws);
        if ws.next == ws.frozen {
            break;
        }
        std::mem::swap(&mut ws.frozen, &mut ws.next);
    }
    ws.arena.truncate(upper_arena);
    inject::<FILTERED>(net, filters, ws);
    settled += drain::<FILTERED>(net, filters, ws, LOWER);
    (!ws.overflow).then_some((settled, rounds))
}

/// Opens the pass: pre-settles every variable tier-1, seeds the origins
/// and exports their routes.
fn seed<const FILTERED: bool>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    ws: &mut RaceWorkspace,
) {
    let RaceWorkspace {
        epoch,
        stamp,
        arena,
        buckets,
        hi,
        overflow,
        t1_index,
        t1_nodes,
        t1_best,
        ..
    } = ws;
    let epoch = *epoch;

    // Pre-settle every variable tier-1 with the sentinel before anything
    // exports: offers into them lose the key comparison and are diverted
    // into the candidacy tally instead (`solve_race` rewrites these stamps
    // from `frozen` once the fixed point lands). Field updates only —
    // `dirty` marks must survive across this loop.
    for &t in t1_nodes.iter() {
        stamp[t as usize].key = u64::MAX;
        stamp[t as usize].labeled = epoch;
    }

    // Origins settle at birth — [`SETTLED_BIT`] from the start, and they
    // export directly instead of through the bucket queue (whose drain
    // would read the set bit as "already drained"). Seed every origin
    // before relaxing any: an earlier origin's export must not mislabel a
    // later one.
    for a in announcements {
        let o = a.announcer.raw() as usize;
        assert!(
            stamp[o].labeled != epoch,
            "duplicate origin {}",
            a.announcer
        );
        let (node, len) = if a.is_forged() {
            let node = arena.len() as u32;
            arena.push(PathNode {
                asn: a.claimed_origin.raw(),
                parent: NONE,
            });
            stamp[a.claimed_origin.usize()].dirty = epoch;
            (node, 1)
        } else {
            (NONE, 0)
        };
        stamp[o].origin = a.claimed_origin.raw();
        stamp[o].node = node;
        stamp[o].from = NONE;
        stamp[o].key = standard_key(PrefClass::Origin, len, NONE) | SETTLED_BIT;
        stamp[o].labeled = epoch;
    }
    for a in announcements {
        let o = a.announcer.raw() as usize;
        let xkey = stamp[o].key & !SETTLED_BIT;
        relax_from::<FILTERED>(
            net,
            filters,
            epoch,
            stamp,
            arena,
            buckets,
            overflow,
            t1_index,
            t1_best,
            hi,
            xkey,
            a.announcer.raw(),
        );
    }
}

/// Drains the buckets of `classes` best-first and returns how many ASes
/// settled. Pushes from a settling AS always land in a strictly worse
/// bucket (receiver class never exceeds sender class, length grows), so
/// every bucket's candidates are final when its turn comes and the
/// processed bucket can be cleared in place.
fn drain<const FILTERED: bool>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    ws: &mut RaceWorkspace,
    classes: [usize; 2],
) -> u64 {
    let RaceWorkspace {
        epoch,
        stamp,
        arena,
        buckets,
        hi,
        overflow,
        t1_index,
        t1_best,
        ..
    } = ws;
    let epoch = *epoch;
    let mut settled = 0;
    for c in classes {
        let mut l = 0i64;
        while l <= hi[c] {
            let b = c * STRIDE + l as usize;
            let mut queue = std::mem::take(&mut buckets[b]);
            for &x in &queue {
                let key = stamp[x as usize].key;
                // The settled bit makes a duplicate entry fail this
                // stale-entry check too.
                if key & SETTLED_BIT != 0
                    || (key_class(key) as usize, i64::from(key_len(key))) != (c, l)
                {
                    continue; // the improved label pops elsewhere
                }
                stamp[x as usize].key = key | SETTLED_BIT;
                settled += 1;
                relax_from::<FILTERED>(
                    net, filters, epoch, stamp, arena, buckets, overflow, t1_index, t1_best, hi,
                    key, x,
                );
            }
            queue.clear();
            buckets[b] = queue;
            l += 1;
        }
    }
    settled
}

/// One clique round: resets the candidacy tally to the upper drain's copy
/// and adds the offers each routed variable tier-1's frozen route makes to
/// its variable tier-1 peers — exactly what injecting the frozen routes
/// into the pass would tally. A peer hears customer-class routes only,
/// and the stub filter, the origin filter and the loop check apply as in
/// `relax_from`.
fn clique_round(net: &SimNet<'_>, filters: &FilterContext<'_>, ws: &mut RaceWorkspace) {
    let RaceWorkspace {
        arena,
        t1_index,
        t1_nodes,
        frozen,
        t1_best,
        t1_upper,
        t1_out,
        ..
    } = ws;
    t1_best.copy_from_slice(t1_upper);
    for ((&t, f), out) in t1_nodes.iter().zip(frozen.iter()).zip(t1_out.iter_mut()) {
        *out = NONE;
        let Some(f) = f else { continue };
        if f.class != PrefClass::Customer.as_u8()
            || filters.rejects_stub(
                net,
                Relationship::Peer,
                AsIndex::new(t),
                AsIndex::new(f.origin),
            )
        {
            continue;
        }
        let mut node = NONE;
        for &asn in f.path.iter().rev().chain([&t]) {
            let next = arena.len() as u32;
            arena.push(PathNode { asn, parent: node });
            node = next;
        }
        *out = node;
    }
    for &[t, p, slot] in net.tier1_peerings() {
        let (k, kp) = (t1_index[t as usize], t1_index[p as usize]);
        if k == NONE || kp == NONE || t1_out[k as usize] == NONE {
            continue;
        }
        let Some(f) = &frozen[k as usize] else {
            continue;
        };
        if filters.rejects_origin(AsIndex::new(p), AsIndex::new(f.origin)) || f.path.contains(&p) {
            continue;
        }
        let tkey = tier1_key(PrefClass::Peer, f.len + 1, slot);
        let best = &mut t1_best[kp as usize];
        if tkey > best.0 {
            *best = (tkey, f.origin, t1_out[k as usize]);
        }
    }
}

/// Closes the pass: injects the fixed point's routed tier-1 selections
/// and exports them. Every ASN on a frozen path is marked dirty, so the
/// lower drain's loop checks walk the paths it can be on.
fn inject<const FILTERED: bool>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    ws: &mut RaceWorkspace,
) {
    let RaceWorkspace {
        epoch,
        stamp,
        arena,
        buckets,
        hi,
        overflow,
        t1_index,
        t1_nodes,
        frozen,
        t1_best,
        ..
    } = ws;
    let epoch = *epoch;
    for (&t, f) in t1_nodes.iter().zip(frozen.iter()) {
        let Some(f) = f else { continue };
        let mut node = NONE;
        for &asn in f.path.iter().rev() {
            let next = arena.len() as u32;
            arena.push(PathNode { asn, parent: node });
            stamp[asn as usize].dirty = epoch;
            node = next;
        }
        stamp[t as usize].origin = f.origin;
        stamp[t as usize].node = node;
        // The tier-1's own hop now rides on in-flight paths, so loop
        // checks against it must walk the arena.
        stamp[t as usize].dirty = epoch;
        relax_from::<FILTERED>(
            net,
            filters,
            epoch,
            stamp,
            arena,
            buckets,
            overflow,
            t1_index,
            t1_best,
            hi,
            standard_key(PrefClass::from_u8(f.class), f.len, f.slot),
            t,
        );
    }
}

/// Exports `x`'s current label to every eligible neighbor, improving their
/// labels under [`standard_key`]. Filter and loop semantics mirror
/// `generation::deliver`, restructured for the hot path:
///
/// - Neighbor lists are sorted customers / peers / providers / siblings
///   ([`Topology::class_bounds`]), and [`may_export`] depends only on the
///   receiver's class, so the export rule becomes a choice of segments —
///   everyone for customer/origin-class routes, the customer and sibling
///   segments otherwise — with no per-edge relationship test.
/// - The segments come from the core adjacency ([`SimNet::core_adj`]),
///   which holds no edge into a leaf: a leaf re-exports nothing it
///   learns, so its label cannot influence a pass, and [`RaceResult`]
///   pulls it once at read-out instead.
/// - The key comparison runs before the filter and loop predicates; all
///   are pure, so only the evaluation order changes, and most candidates
///   die on the one-load comparison.
/// - The loop check walks the arena only for receivers stamped `dirty`
///   this pass. Every other path hop was settled when it was appended, and
///   the receiver just passed the not-settled test, so it cannot be on the
///   path. Under strict Gao-Rexford nothing is dirty and the walks vanish
///   entirely.
#[allow(clippy::too_many_arguments)]
fn relax_from<const FILTERED: bool>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    epoch: u32,
    stamp: &mut [Stamp],
    arena: &mut Vec<PathNode>,
    buckets: &mut [Vec<u32>],
    overflow: &mut bool,
    t1_index: &[u32],
    t1_best: &mut [(u64, u32, u32)],
    hi: &mut [i64; 4],
    xkey: u64,
    x: u32,
) {
    let xi = AsIndex::new(x);
    let lab = stamp[x as usize];
    let export_class = PrefClass::from_u8(key_class(xkey));
    let origin = AsIndex::new(lab.origin);
    // The exported path appends `x`; created lazily, once per settle.
    let mut out_node = NONE;
    let segments = net.core_segments(x as usize);
    let adj = net.core_adj();
    let rcv_len = key_len(xkey) + 1;
    if rcv_len as usize >= STRIDE {
        // Beyond the bucket queue's length capacity; abandon the solve
        // (the caller re-runs in the generation engine).
        *overflow = true;
        return;
    }

    // One relationship class per segment, so everything derived from it —
    // receiver class, bucket, stub predicate, the class/len fields of the
    // key — hoists out of the per-edge loop. No echo suppression is
    // needed: the route's sender is either settled (it exported at settle
    // time, strictly before `x`) or a tier-1 whose candidacy loop check
    // sees itself on the offered path.
    let mut relax_segment =
        |lo: u32, end: u32, rcv_class: PrefClass, rel_at_receiver: Relationship| {
            if lo == end {
                return;
            }
            if FILTERED && filters.rejects_stub(net, rel_at_receiver, xi, origin) {
                return; // sender- and origin-based: constant over the segment
            }
            let c = rcv_class.as_u8() as usize;
            // [`standard_key`] with the slot field zeroed (`!u32::MAX`);
            // each edge ORs its inverted tie slot back in.
            let kbase = standard_key(rcv_class, rcv_len, u32::MAX);
            let bucket_idx = c * STRIDE + rcv_len as usize;
            let mut pushed = false;
            for &packed in &adj[lo as usize..end as usize] {
                let r = packed as u32 as usize;
                let st = stamp[r];
                let rcv_slot = (packed >> 32) as u32;
                let key = kbase | u64::from(!rcv_slot);
                // One comparison rejects settled receivers too (their key
                // carries [`SETTLED_BIT`] or the tier-1 sentinel).
                if st.labeled == epoch && key <= st.key {
                    if st.key == u64::MAX {
                        // Variable tier-1: tally the candidacy under the
                        // length-first tier-1 order instead. Filter and
                        // loop semantics match the label path below.
                        if FILTERED && filters.rejects_origin(AsIndex::new(r as u32), origin) {
                            continue;
                        }
                        if st.dirty == epoch && path_contains(arena, lab.node, r as u32) {
                            continue;
                        }
                        let tkey = tier1_key(rcv_class, rcv_len, rcv_slot);
                        let k = t1_index[r] as usize;
                        if tkey > t1_best[k].0 {
                            if out_node == NONE {
                                out_node = arena.len() as u32;
                                arena.push(PathNode {
                                    asn: x,
                                    parent: lab.node,
                                });
                            }
                            t1_best[k] = (tkey, lab.origin, out_node);
                        }
                    }
                    continue;
                }
                if FILTERED && filters.rejects_origin(AsIndex::new(r as u32), origin) {
                    continue;
                }
                // Per-ASN loop check over x's own path (r != x, so the
                // exported path containing r reduces to this).
                if st.dirty == epoch && path_contains(arena, lab.node, r as u32) {
                    continue;
                }
                if out_node == NONE {
                    out_node = arena.len() as u32;
                    arena.push(PathNode {
                        asn: x,
                        parent: lab.node,
                    });
                }
                stamp[r] = Stamp {
                    key,
                    labeled: epoch,
                    dirty: st.dirty,
                    origin: lab.origin,
                    node: out_node,
                    from: x,
                };
                buckets[bucket_idx].push(r as u32);
                pushed = true;
            }
            if pushed {
                hi[c] = hi[c].max(i64::from(rcv_len));
            }
        };

    // Customers see their provider's export; providers see their
    // customer's; peers see a peer's; siblings inherit the sender's class.
    // Valley-free export reaches peers and providers only for
    // customer/origin-class routes ([`may_export`]).
    let [customers, peers, providers, siblings, end] = segments;
    relax_segment(
        customers,
        peers,
        PrefClass::Provider,
        Relationship::Provider,
    );
    if matches!(export_class, PrefClass::Customer | PrefClass::Origin) {
        relax_segment(peers, providers, PrefClass::Peer, Relationship::Peer);
        relax_segment(
            providers,
            siblings,
            PrefClass::Customer,
            Relationship::Customer,
        );
    }
    relax_segment(siblings, end, export_class, Relationship::Sibling);
}

/// Materializes every variable tier-1's next selection from the
/// candidacy tally of the current round ([`RaceWorkspace::t1_best`]),
/// writing into `ws.next`. All tier-1s re-select from the same tally
/// (Jacobi style); the winning offer's arena path is copied out because
/// the next round truncates the arena.
fn derive_tier1(ws: &mut RaceWorkspace) {
    let RaceWorkspace {
        arena,
        next,
        t1_best,
        ..
    } = ws;
    for (k, &(tkey, origin, node)) in t1_best.iter().enumerate() {
        // Recycle last round's path allocation for this slot, if any.
        let recycled = next[k].take().map(|mut c| {
            c.path.clear();
            c.path
        });
        if tkey == 0 {
            continue; // no eligible offer this round
        }
        let mut path = recycled.unwrap_or_default();
        let mut n = node;
        while n != NONE {
            let pn = arena[n as usize];
            path.push(pn.asn);
            n = pn.parent;
        }
        next[k] = Some(FrozenChoice {
            origin,
            slot: !(tkey as u32),
            len: !((tkey >> 34) as u16),
            class: ((tkey >> 32) & 3) as u8,
            path,
        });
    }
}

/// The converged outcome of one [`solve_race`], borrowing its workspace
/// (zero materialization cost).
///
/// The pass decides every AS except the leaves ([`SimNet::is_leaf`])
/// that do not announce; the read-out pulls each of those, as it is asked
/// for, from the final routes of its peers and providers, which the solve
/// snapshotted per feeder when it converged, so a sweep that only counts
/// pollution never builds a per-AS map.
/// [`RaceResult::choice`] is O(1) for a decided AS and O(log leaves +
/// degree) for a pulled one; [`RaceResult::captured_count`] is one pass
/// over the snapshot and the leaf in-edge words, and
/// [`RaceResult::captured_by`] walks every AS once, in index order;
/// [`RaceResult::to_propagation`] materializes a full [`Propagation`]
/// when an owned result is needed.
#[derive(Debug)]
pub struct RaceResult<'r, 't> {
    net: &'r SimNet<'t>,
    ws: &'r RaceWorkspace,
    filters: FilterContext<'r>,
    stats: ConvergenceStats,
}

impl RaceResult<'_, '_> {
    /// The selection of `ix`, or `None` if no route reached it.
    pub fn choice(&self, ix: AsIndex) -> Option<Choice> {
        let i = ix.raw();
        if self.net.is_leaf(ix) && !self.announces(i) {
            self.pull(i, self.net.leaf_row(i))
        } else {
            self.decided(i)
        }
    }

    /// ASes whose selected route originates at `origin`, excluding
    /// `origin` itself, in index order: the polluted ASes when `origin` is
    /// an attacker (see [`Propagation::captured_by`]).
    pub fn captured_by(&self, origin: AsIndex) -> impl Iterator<Item = AsIndex> + '_ {
        let o = origin.raw();
        let mut leaves = self.net.leaf_rows().peekable();
        // The snapshot's non-leaf prefix, in index order.
        let mut core = self.ws.offer.iter();
        (0..self.net.num_ases() as u32)
            .filter(move |&i| {
                let hit = match leaves.next_if(|&(leaf, _)| leaf == i) {
                    Some((leaf, row)) => self.leaf_captured(leaf, row, o),
                    None => core.next().is_some_and(|&off| routes_to(off, o)),
                };
                hit && i != o
            })
            .map(AsIndex::new)
    }

    /// How many ASes [`RaceResult::captured_by`] lists, counted without
    /// listing them (see [`Propagation::captured_count`]).
    ///
    /// One branch-free pass: the decided ASes off the snapshot's non-leaf
    /// prefix, and every leaf off the in-edge words, each edge scored
    /// `((peer, !(len + 1), !position) << 1) | (origin == o)` and each
    /// row's maximum deciding its leaf. The pass applies neither the
    /// announcer rule nor the loop check, so the leaves either can touch —
    /// the announcers and claimed origins — are recounted exactly
    /// afterwards.
    ///
    /// Filters become masks on the same pass. The stub filter is an edge
    /// mask: an edge whose route it drops offers nothing (a flag the solve
    /// sets on its per-feeder snapshot). Origin validation is a row mask when `origin` is
    /// not the authorized origin: a validating leaf rejects every route
    /// `origin` originates, so its row cannot count. A count of the
    /// authorized origin under validators is the one case no mask
    /// expresses — there a validating leaf picks among the authorized
    /// routes alone — and it walks [`RaceResult::captured_by`] instead.
    pub fn captured_count(&self, origin: AsIndex) -> usize {
        let validators = match (self.filters.authorized_origin, self.filters.validators) {
            (Some(auth), Some(v)) if auth != origin => Some(v),
            (Some(_), Some(_)) => return self.captured_by(origin).count(),
            _ => None,
        };
        let o = origin.raw();
        let offer = &self.ws.offer;
        let streamed = match validators {
            None => {
                let mut streamed = 0;
                stream_leaves(self.net.leaf_in(), offer, o, |end, hit| {
                    streamed += end & hit
                });
                streamed
            }
            Some(v) => stream_unvalidated(self.net, offer, o, v),
        };
        let mut count = self.captured_core(o).count() + streamed as usize;
        for &leaf in &self.ws.special_leaves {
            let row = self.net.leaf_row(leaf);
            let exact = leaf != o && self.leaf_captured(leaf, row, o);
            let mut guess = 0;
            stream_leaves(row, offer, o, |end, hit| guess |= end & hit);
            let masked = validators.is_some_and(|v| v.contains(AsIndex::new(leaf)));
            count = count + usize::from(exact) - usize::from(guess == 1 && !masked);
        }
        count
    }

    /// Convergence counters: fixed-point rounds as `generations`, and the
    /// ASes the pass routed as `accepted` (see [`solve_race`]).
    pub fn stats(&self) -> ConvergenceStats {
        self.stats
    }

    /// Materializes the full per-AS selection map (O(n)).
    pub fn to_propagation(&self) -> Propagation {
        Propagation::new(self.selections().collect(), self.stats)
    }

    /// Every AS's selection in index order, stepping through the leaf rows
    /// alongside.
    fn selections(&self) -> impl Iterator<Item = Option<Choice>> + '_ {
        let mut leaves = self.net.leaf_rows().peekable();
        (0..self.net.num_ases() as u32).map(move |i| match leaves.next_if(|&(leaf, _)| leaf == i) {
            Some((leaf, row)) if !self.announces(leaf) => self.pull(leaf, row),
            _ => self.decided(i),
        })
    }

    /// The non-leaves whose route originates at `o`, `o` excluded, in
    /// index order: the snapshot's non-leaf prefix.
    fn captured_core(&self, o: u32) -> impl Iterator<Item = u32> + '_ {
        let core = &self.net.feeders()[..self.net.core_feeders()];
        (core.iter().zip(&self.ws.offer))
            .filter(move |&(&x, &off)| x != o && routes_to(off, o))
            .map(|(&x, _)| x)
    }

    /// Whether the leaf with in-edge `row` selects a route originated by
    /// `o`: by its stamp if it announces, else by the low bit of its best
    /// offer ([`best_offer`]).
    fn leaf_captured(&self, leaf: u32, row: &[u32], o: u32) -> bool {
        if self.announces(leaf) {
            self.decided(leaf).is_some_and(|c| c.origin.raw() == o)
        } else {
            self.best_offer(leaf, row, o) & 1 != 0
        }
    }

    /// Whether `x` announces in this run (the only leaves the pass
    /// labels).
    fn announces(&self, x: u32) -> bool {
        self.ws.announcers.contains(&x)
    }

    /// The selection the pass left in `i`'s stamp. Both drains ran to the
    /// end, so a labeled key carries [`SETTLED_BIT`]; the decoders ignore
    /// it.
    fn decided(&self, i: u32) -> Option<Choice> {
        let st = self.ws.stamp[i as usize];
        (st.labeled == self.ws.epoch).then(|| Choice {
            origin: AsIndex::new(st.origin),
            learned_from: (st.from != NONE).then(|| AsIndex::new(st.from)),
            len: key_len(st.key),
            class: PrefClass::from_u8(key_class(st.key)),
        })
    }

    /// The selection of a leaf that does not announce: its best offer
    /// ([`best_offer`]), decoded through the row word it came from.
    fn pull(&self, leaf: u32, row: &[u32]) -> Option<Choice> {
        // Scored against the leaf itself, whose own routes the loop check
        // drops: the verdict bit stays 0.
        let best = self.best_offer(leaf, row, leaf);
        (best != 0).then(|| {
            let w = row[!((best >> 1) as u32) as usize];
            let feeder = (w & FEEDER_MASK) as usize;
            Choice {
                origin: AsIndex::new(self.ws.offer[feeder] as u32),
                learned_from: Some(AsIndex::new(self.net.feeders()[feeder])),
                len: !((best >> 33) as u16),
                class: if w & LEAF_IN_PEER != 0 {
                    PrefClass::Peer
                } else {
                    PrefClass::Provider
                },
            }
        })
    }

    fn best_offer(&self, leaf: u32, row: &[u32], o: u32) -> u64 {
        if self.filters.is_inert() {
            best_offer::<false>(self.net, self.ws, &self.filters, leaf, row, o)
        } else {
            best_offer::<true>(self.net, self.ws, &self.filters, leaf, row, o)
        }
    }
}

/// Whether a snapshot offer is a route originated by `o` (0, no route,
/// carries origin bits 0 too).
#[inline]
fn routes_to(off: u64, o: u32) -> bool {
    (off as u32 == o) & (off != 0)
}

/// The best offer a leaf that does not announce hears over its in-edge
/// `row` ([`SimNet::leaf_rows`]), from the feeders' snapshot, as the
/// [`edge_score`] against `o` of the winning edge (0 if none): the best
/// under [`standard_key`] among its peers' and providers' final routes,
/// exactly as a pass would have offered them (`relax_from`) — a peer
/// hears only customer- and origin-class routes, the leaf's own slot
/// breaks ties, and the stub and origin filters apply. The row runs in
/// slot order, so the lowest slot is the earliest edge, and the score's
/// position bits say which edge won. Its low bit says whether the
/// selection originates at `o`.
///
/// The loop check needs no arena walk. A leaf that does not announce
/// exports nothing, so it can sit on an offered path only as a forged
/// route's claimed origin, the path's tail, which the route's `origin`
/// holds: the dirty-path check reduces to comparing the two.
fn best_offer<const FILTERED: bool>(
    net: &SimNet<'_>,
    ws: &RaceWorkspace,
    filters: &FilterContext<'_>,
    leaf: u32,
    row: &[u32],
    o: u32,
) -> u64 {
    let mut best = 0u64;
    for (j, &w) in row.iter().enumerate() {
        let feeder = (w & FEEDER_MASK) as usize;
        let off = ws.offer[feeder] & !STUB_DROPPED;
        let no_loop = 0u64.wrapping_sub(u64::from(off as u32 != leaf));
        let score = edge_score(w, off, j as u32, o) & no_loop;
        if FILTERED && score > best {
            let sender = AsIndex::new(net.feeders()[feeder]);
            let origin = AsIndex::new(off as u32);
            let rel = if w & LEAF_IN_PEER != 0 {
                Relationship::Peer
            } else {
                Relationship::Provider
            };
            if filters.rejects_stub(net, rel, sender, origin)
                || filters.rejects_origin(AsIndex::new(leaf), origin)
            {
                continue;
            }
        }
        best = best.max(score);
    }
    best
}

/// One flat pass over leaf in-edge `words` ([`SimNet::leaf_in`], or one
/// row of it), calling `row_end(end, hit)` after every word: `end` is 1 on
/// a row's last word, where `hit` is 1 if that row's leaf would select a
/// route originated by `o`, ignoring the announcer rule, the loop check
/// and every filter. Branch-free: the row's best offer is the maximum of
/// its edge scores ([`edge_score`]), reset at each row end.
#[inline]
fn stream_leaves(words: &[u32], offer: &[u64], o: u32, mut row_end: impl FnMut(u64, u64)) {
    let (mut best, mut position) = (0u64, 0u32);
    for &w in words {
        let score = edge_score(w, offer[(w & FEEDER_MASK) as usize], position, o);
        best = best.max(score);
        let end = u64::from(w & LEAF_ROW_END != 0);
        row_end(end, best & 1);
        let keep = end.wrapping_sub(1);
        best &= keep;
        position = (position + 1) & keep as u32;
    }
}

/// [`stream_leaves`] over all of [`SimNet::leaf_in`], counting the rows
/// whose leaf would select a route originated by `o` and is not one of
/// `validators`. A validator rejects every origin but the authorized one,
/// so when `o` is not the authorized origin a validating leaf's row never
/// counts. Rows are matched to leaves by a cursor into
/// [`SimNet::leaf_row_ends`]: a leaf with no peer or provider has an empty
/// row, which ends where the previous one does and contributes no word,
/// so the cursor skips it.
fn stream_unvalidated(net: &SimNet<'_>, offer: &[u64], o: u32, validators: &AsSet) -> u64 {
    let rows = net.leaf_row_ends();
    // The row the next word belongs to: the first that ends past it.
    let mut k = rows.partition_point(|&(_, end)| end == 0);
    let (mut consumed, mut streamed) = (0u32, 0u64);
    stream_leaves(net.leaf_in(), offer, o, |end, hit| {
        let open = u64::from(!validators.contains(AsIndex::new(rows[k].0)));
        streamed += end & hit & open;
        consumed += 1;
        k += end as usize;
        while rows.get(k).is_some_and(|&(_, row_end)| row_end == consumed) {
            k += 1;
        }
    });
    streamed
}

/// The score of one leaf in-edge word `w` at row `position` carrying the
/// snapshot offer `off`: `((peer, !(len + 1), !position) << 1) | (origin
/// == o)`, so the row maximum is the leaf's selection under
/// [`standard_key`] (class, then length, then the lowest slot) with its
/// verdict in the low bit. An edge that offers nothing — no route, a
/// route the stub filter drops ([`STUB_DROPPED`]), or a peer's route that
/// is not customer- or origin-class — scores 0.
#[inline]
fn edge_score(w: u32, off: u64, position: u32, o: u32) -> u64 {
    let peer = u64::from(w & LEAF_IN_PEER != 0);
    // Positive: a route, and not one the stub filter drops.
    let routed = (off as i64) > 0;
    let usable = routed & ((peer == 0) | (key_class(off) >= PrefClass::Customer.as_u8()));
    // `!(len + 1)`: the offer holds `!len`, and lengths stay far below
    // the field's top.
    let len = u64::from(((off >> 32) as u16).wrapping_sub(1));
    let score =
        (peer << 49) | (len << 33) | (u64::from(!position) << 1) | u64::from(off as u32 == o);
    score & 0u64.wrapping_sub(u64::from(usable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::generation::propagate_announcements;
    use crate::observer::NullObserver;
    use crate::Workspace;
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*, Topology};

    fn ix(topo: &Topology, n: u32) -> AsIndex {
        topo.index_of(AsId::new(n)).unwrap()
    }

    /// Two tier-1s peering over customer cones — the tier-1 override is
    /// active and the solver must match the generation engine exactly.
    fn topo() -> Topology {
        topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 9, ProviderToCustomer),
            (2, 8, ProviderToCustomer),
            (1, 5, ProviderToCustomer),
            (2, 6, ProviderToCustomer),
            (5, 7, ProviderToCustomer),
        ])
    }

    fn assert_matches_generation(topo: &Topology, announcements: &[Announcement]) {
        let net = SimNet::new(topo);
        let policy = PolicyConfig::paper();
        let ctx = FilterContext::none();
        let expected = propagate_announcements(
            &net,
            announcements,
            &ctx,
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        let mut rws = RaceWorkspace::new();
        let got = solve_race(
            &net,
            announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut rws,
        )
        .expect("fixed point must converge on this topology");
        assert_eq!(got.to_propagation().choices(), expected.choices());
        // The random-access and counting read-outs agree with the map.
        for x in topo.indices() {
            assert_eq!(got.choice(x), expected.choice(x), "AS {x}");
        }
        for a in announcements {
            assert!(got
                .captured_by(a.announcer)
                .eq(expected.captured_by(a.announcer)));
        }
    }

    #[test]
    fn two_origin_race_matches_generation_engine() {
        let t = topo();
        assert_matches_generation(
            &t,
            &[
                Announcement::honest(ix(&t, 9)),
                Announcement::honest(ix(&t, 8)),
            ],
        );
    }

    #[test]
    fn forged_origin_matches_generation_engine() {
        let t = topo();
        assert_matches_generation(
            &t,
            &[
                Announcement::honest(ix(&t, 9)),
                Announcement::forged(ix(&t, 8), ix(&t, 9)),
            ],
        );
    }

    #[test]
    fn tier1_announcer_is_a_fixed_seed() {
        let t = topo();
        assert_matches_generation(
            &t,
            &[
                Announcement::honest(ix(&t, 9)),
                Announcement::honest(ix(&t, 2)),
            ],
        );
    }

    #[test]
    fn zero_round_cap_reports_non_convergence() {
        let t = topo();
        let net = SimNet::new(&t);
        let mut rws = RaceWorkspace::new();
        let result = solve_race(
            &net,
            &[Announcement::honest(ix(&t, 9))],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            0,
            &mut rws,
        );
        assert!(result.is_none(), "a zero cap must force the fallback path");
    }

    #[test]
    fn strict_gao_rexford_converges_in_one_round() {
        let t = topo();
        let net = SimNet::new(&t);
        let announcements = [
            Announcement::honest(ix(&t, 9)),
            Announcement::honest(ix(&t, 8)),
        ];
        let policy = PolicyConfig::strict_gao_rexford();
        let mut rws = RaceWorkspace::new();
        let p = solve_race(
            &net,
            &announcements,
            &FilterContext::none(),
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut rws,
        )
        .expect("no tier-1 variables: one pass settles everything");
        assert_eq!(p.stats().generations, 1, "one fixed-point round");
        let expected = propagate_announcements(
            &net,
            &announcements,
            &FilterContext::none(),
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        assert_eq!(p.to_propagation().choices(), expected.choices());
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let t = topo();
        let net = SimNet::new(&t);
        let policy = PolicyConfig::paper();
        let ctx = FilterContext::none();
        let mut ws = RaceWorkspace::new();
        let announcements = [
            Announcement::honest(ix(&t, 9)),
            Announcement::honest(ix(&t, 8)),
        ];
        let first = solve_race(
            &net,
            &announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut ws,
        )
        .expect("converges")
        .to_propagation();
        // Interleave a different solve, then repeat the first.
        let other = [
            Announcement::honest(ix(&t, 7)),
            Announcement::forged(ix(&t, 6), ix(&t, 7)),
        ];
        solve_race(&net, &other, &ctx, &policy, DEFAULT_MAX_ROUNDS, &mut ws).expect("converges");
        let again = solve_race(
            &net,
            &announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut ws,
        )
        .expect("converges")
        .to_propagation();
        assert_eq!(first.choices(), again.choices());
        assert_eq!(first.stats(), again.stats());
    }

    /// Epoch wrap-around: stamps are cleared at the wrap so stale labels
    /// from the old cycle can never leak into post-wrap solves. The first
    /// solve labels at epoch 1, the epoch the wrap restarts at, so a stamp
    /// the wrap failed to clear would read as current.
    #[test]
    fn epoch_wraparound_clears_stamps() {
        let t = topo();
        let net = SimNet::new(&t);
        let policy = PolicyConfig::paper();
        let ctx = FilterContext::none();
        let announcements = [
            Announcement::honest(ix(&t, 9)),
            Announcement::honest(ix(&t, 8)),
        ];
        let mut ws = RaceWorkspace::new();
        let first = solve_race(
            &net,
            &announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut ws,
        )
        .expect("converges")
        .to_propagation();
        assert_eq!(ws.epoch, 1);
        // One epoch per solve: the next solve's bump crosses the wrap.
        ws.epoch = u32::MAX;
        let wrapped = solve_race(
            &net,
            &announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut ws,
        )
        .expect("converges")
        .to_propagation();
        assert!(ws.epoch < u32::MAX - 1, "the pass counter wrapped");
        assert!(ws
            .stamp
            .iter()
            .all(|s| s.labeled <= ws.epoch && s.dirty <= ws.epoch));
        assert_eq!(first.choices(), wrapped.choices());
    }

    #[test]
    #[should_panic(expected = "duplicate origin")]
    fn duplicate_announcer_panics() {
        let t = topo();
        let net = SimNet::new(&t);
        let _ = solve_race(
            &net,
            &[
                Announcement::honest(ix(&t, 9)),
                Announcement::forged(ix(&t, 9), ix(&t, 8)),
            ],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            DEFAULT_MAX_ROUNDS,
            &mut RaceWorkspace::new(),
        );
    }

    /// Solves one race under `ctx` and checks the streamed count against
    /// the exact walk and the generation engine for every origin in it:
    /// each announcer and each claimed origin. Returns whether the solve
    /// converged.
    fn assert_counts_match_walk(
        net: &SimNet<'_>,
        anns: &[Announcement],
        ctx: &FilterContext<'_>,
        rws: &mut RaceWorkspace,
        case: &str,
    ) -> bool {
        let policy = PolicyConfig::paper();
        let oracle = propagate_announcements(
            net,
            anns,
            ctx,
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        let Some(raced) = solve_race(net, anns, ctx, &policy, DEFAULT_MAX_ROUNDS, rws) else {
            return false;
        };
        for o in anns.iter().flat_map(|a| [a.announcer, a.claimed_origin]) {
            let walked = raced.captured_by(o).count();
            assert_eq!(
                raced.captured_count(o),
                walked,
                "{case}: count captured by {o}"
            );
            assert_eq!(walked, oracle.captured_count(o), "{case}: walk of {o}");
        }
        true
    }

    /// The filtered count is the unfiltered stream with masks: the stub
    /// filter drops edges, a validating leaf's row cannot count an origin
    /// other than the authorized one, and a count of the authorized origin
    /// under validators walks. It must equal the exact walk for the
    /// target, the attacker and the claimed origin, under validators, stub
    /// filtering and both, for origin, forged and forged-bystander races —
    /// including targets that are stubs feeding a leaf, whose routes the
    /// stub filter exempts.
    #[test]
    fn filtered_counts_match_the_walk_for_every_origin() {
        use bgpsim_topology::gen::{generate, InternetParams};

        let (mut solved, mut exempt_feeders) = (0, 0);
        let mut rws = RaceWorkspace::new();
        for seed in [1, 2, 3] {
            let internet = generate(&InternetParams::tiny(), seed);
            let topo = &internet.topology;
            let net = SimNet::new(topo);
            let validators = AsSet::from_members(topo, topo.indices().step_by(3));
            let (transit, stubs) = (topo.transit_ases(), topo.stub_ases());
            let feeding_stubs: Vec<AsIndex> = net
                .feeders()
                .iter()
                .map(|&x| AsIndex::new(x))
                .filter(|&x| net.is_stub(x))
                .collect();
            exempt_feeders += feeding_stubs.len();
            let targets = stubs
                .iter()
                .step_by(53)
                .chain(feeding_stubs.iter().take(4))
                .copied();
            for target in targets {
                let attackers = transit.iter().step_by(13).chain(stubs.iter().step_by(83));
                for (k, &attacker) in attackers.enumerate().filter(|&(_, &a)| a != target) {
                    let claim = stubs[(k * 7 + 3) % stubs.len()];
                    let mut injections = vec![
                        ("origin", Announcement::honest(attacker)),
                        ("forged", Announcement::forged(attacker, target)),
                    ];
                    if claim != attacker && claim != target {
                        injections
                            .push(("forged-bystander", Announcement::forged(attacker, claim)));
                    }
                    let contexts = [
                        ("validators", Some(&validators), false),
                        ("stub", None, true),
                        ("both", Some(&validators), true),
                    ];
                    for (dname, validators, stub_defense) in contexts {
                        let ctx = FilterContext {
                            authorized_origin: Some(target),
                            validators,
                            stub_defense,
                        };
                        for &(kind, injection) in &injections {
                            let anns = [Announcement::honest(target), injection];
                            let case = format!("seed {seed} {kind}/{dname} {target} vs {attacker}");
                            solved += u32::from(assert_counts_match_walk(
                                &net, &anns, &ctx, &mut rws, &case,
                            ));
                        }
                    }
                }
            }
        }
        assert!(exempt_feeders > 0, "no stub feeds a leaf");
        assert!(solved > 1_000, "only {solved} races converged");
    }

    /// A leaf with no peer or provider has an empty row: it ends where the
    /// previous row does and contributes no word to the flat stream, so
    /// the row mask must not shift the leaves after it onto the wrong
    /// validator bits. Leaf 11, after the isolated 10, validates and hears
    /// only the attacker's route through 2; leaf 12 hears the target's
    /// route through 1, and leaf 13, which does not validate, is polluted
    /// through 2. Shifted by one row, 11 would count and 13 would not.
    #[test]
    fn an_empty_row_keeps_the_row_mask_aligned() {
        use bgpsim_topology::TopologyBuilder;

        let mut b = TopologyBuilder::new();
        let id = AsId::new;
        for asn in [1, 2, 3, 4, 10, 11, 12, 13] {
            b.add_as(id(asn));
        }
        b.declare_tier1(id(1));
        b.declare_tier1(id(2));
        b.add_link(id(1), id(2), PeerToPeer).unwrap();
        for (provider, customer) in [(1, 3), (2, 4), (2, 11), (1, 12), (2, 13)] {
            b.add_link(id(provider), id(customer), ProviderToCustomer)
                .unwrap();
        }
        let t = b.build().unwrap();
        let net = SimNet::new(&t);
        assert!(net.is_leaf(ix(&t, 10)) && net.is_leaf(ix(&t, 11)));
        let (target, attacker) = (ix(&t, 3), ix(&t, 4));
        let validators = AsSet::from_members(&t, [ix(&t, 11)]);
        let mut rws = RaceWorkspace::new();
        for stub_defense in [false, true] {
            let ctx = FilterContext {
                authorized_origin: Some(target),
                validators: Some(&validators),
                stub_defense,
            };
            for injection in [
                Announcement::honest(attacker),
                Announcement::forged(attacker, target),
            ] {
                let anns = [Announcement::honest(target), injection];
                let case = format!("stub defense {stub_defense} {injection:?}");
                assert!(assert_counts_match_walk(&net, &anns, &ctx, &mut rws, &case));
            }
        }
        let ctx = FilterContext::origin_validation(target, &validators);
        let anns = [Announcement::honest(target), Announcement::honest(attacker)];
        let raced = solve_race(
            &net,
            &anns,
            &ctx,
            &PolicyConfig::paper(),
            DEFAULT_MAX_ROUNDS,
            &mut rws,
        )
        .unwrap();
        // AS2 and leaf 13; validating 11 stays unrouted.
        assert_eq!(raced.captured_count(attacker), 2);
        assert_eq!(raced.choice(ix(&t, 11)), None);
    }
}
