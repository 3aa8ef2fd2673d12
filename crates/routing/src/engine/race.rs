//! Closed-form two-origin race solver for the paper policy.
//!
//! Under strict Gao-Rexford preference route preference strictly degrades
//! along every export edge, so one label-setting (Dijkstra-style) pass over
//! `(class, len)` priorities computes the stable solution. The tier-1
//! shortest-path override ([`PolicyConfig::tier1_shortest_path`]) breaks the
//! monotonicity that pass relies on — a tier-1 AS may prefer a short
//! *provider-class* route over a longer customer route, so `(class, len)`
//! priorities no longer settle in decreasing order everywhere. The break is
//! confined to the handful of tier-1 nodes, though, which suggests a
//! fixed-point decomposition:
//!
//! 1. **Freeze** every tier-1 AS's current selection (initially: none).
//! 2. **One conditioned label-setting pass** over all other ASes. With
//!    tier-1 selections held constant, every remaining relaxation strictly
//!    degrades `(class asc-by-pref, len)` — receiver class never exceeds
//!    sender class (valley-free export plus sibling class inheritance) and
//!    length always grows — so a bucket queue over `(class, len)` settles
//!    each AS exactly once, with the standard slot tie-break.
//! 3. **Re-derive** every tier-1 selection length-first ([`tier1_key`])
//!    from its neighbors' routes in the pass (Jacobi style: all tier-1s
//!    re-select simultaneously from the same pass).
//! 4. Repeat from 2 until the tier-1 selections stop changing.
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
//! multistable corner where a fixed point can be the wrong stable state,
//! so the solver declines that shape outright; other corners can
//! oscillate instead of converging, so the iteration carries a bounded
//! round cap. Both report `None`; callers (see `bgpsim_hijack::Simulator`)
//! then fall back to the generation engine, which is always correct.
//!
//! Unlike a plain label-setting pass, this one needs per-ASN loop checks:
//! frozen tier-1 routes carry paths from the previous round (whose ASNs are
//! not settled in this pass), and forged-origin seeds carry the victim's
//! ASN, so "receiver already settled" no longer implies "receiver not on
//! the path". Paths live in a per-pass arena exactly like the generation
//! engine's.
//!
//! Under strict Gao-Rexford the tier-1 variable set is empty, the first
//! pass is unconditioned, and the solver converges in one round — the loop
//! checks then never fire, since every path ASN is already settled when its
//! export arrives.

use bgpsim_topology::{AsIndex, Relationship};

use crate::engine::generation::{Announcement, PathNode, NONE};
use crate::filter::FilterContext;
use crate::net::{SimNet, RACE_LEAF_BIT};
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

/// Per-AS pass state, one 24-byte record so a relax visit touches a
/// single cache line: the comparison key up front (every way a candidate
/// can be rejected — receiver settled, receiver a pre-settled tier-1,
/// offer no better — is served by one load), the label payload behind
/// it.
///
/// * Settling sets [`SETTLED_BIT`] in `key`: every live offer loses the
///   comparison (real keys keep the bit clear), and the class / len / slot
///   fields stay decodable for exports and materialization. The bucket
///   drain detects duplicate entries on the same bit.
/// * Pre-settled tier-1s instead hold the all-ones sentinel: offers lose
///   the same comparison, and the relax loop recognizes the sentinel to
///   divert the offer into the tier-1 candidacy tally (see `relax_from`).
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

/// ORed into a key when its AS can no longer be relabeled: at settle
/// time, and from birth for origin seeds (an origin never abandons its
/// own announcement — a sibling re-exporting it would otherwise win the
/// slot tie-break at equal class and length). Real keys keep the bit
/// clear, so one comparison rejects both "offer no better" and "receiver
/// settled", while the bit sits above the class field and leaves the
/// `key_*` decoders unaffected. Distinct from the all-ones tier-1
/// sentinel: bits 50–62 of a settled key are always zero.
const SETTLED_BIT: u64 = 1 << 63;

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
/// do not survive a pass).
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

/// Reusable scratch state for [`solve_race`]; create one per thread.
///
/// Epoch-stamped like [`crate::Workspace`]: per-AS arrays are invalidated
/// by bumping a counter once per *pass* (several passes per solve), so
/// back-to-back solves never memset the big arrays. Epoch 0 means "never
/// used"; on wrap the stamps are cleared and the counter restarts at 1.
#[derive(Debug, Default)]
pub struct RaceWorkspace {
    epoch: u32,
    /// Per-AS pass state (tier-1s are pre-settled each pass).
    stamp: Vec<Stamp>,
    /// Path arena, cleared each pass.
    arena: Vec<PathNode>,
    /// Bucket queue: `class * STRIDE + len`, all empty between passes
    /// (every pushed bucket is drained and cleared by the pass loop).
    buckets: Vec<Vec<u32>>,
    /// Set when a pass met a path longer than the bucket queue can order
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
    /// Per variable tier-1: best candidacy offered during the current pass
    /// as `(tier1_key, origin, arena node)`, tallied by the relax loop
    /// itself — `derive_tier1` only materializes winners. A zero key means
    /// no offer.
    t1_best: Vec<(u64, u32, u32)>,
    /// Non-leaf ASes settled by the current pass's bucket drain, in settle
    /// order; `finalize_leaves` replays their exports into leaf receivers
    /// once, after the fixed point lands.
    settled: Vec<u32>,
}

impl RaceWorkspace {
    /// Creates an empty workspace; arrays are sized on first use.
    pub fn new() -> RaceWorkspace {
        RaceWorkspace::default()
    }

    fn begin(&mut self, net: &SimNet<'_>) {
        let n = net.num_ases();
        if self.stamp.len() < n {
            self.stamp.resize(n, Stamp::default());
            self.t1_index.resize(n, NONE);
        }
        // Undo the previous run's tier-1 registrations (self-healing even
        // if that run bailed out early).
        for &t in &self.t1_nodes {
            self.t1_index[t as usize] = NONE;
        }
        self.t1_nodes.clear();
        self.frozen.clear();
        self.next.clear();
        self.t1_best.clear();
        self.overflow = false;
        if self.buckets.is_empty() {
            self.buckets.resize_with(4 * STRIDE, Vec::new);
        }
    }

    /// Starts a pass: bumps the label/settled epoch and clears the arena.
    fn begin_pass(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(Stamp::default());
            self.epoch = 1;
        }
        self.arena.clear();
        self.settled.clear();
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
///   has a sibling that buys transit
///   (`SimNet::tier1_sibling_buys_transit`): a customer-class route
///   laundered through that sibling gives the tier-1 fixed point two
///   stable states, and which one the race reaches depends on timing;
/// * the tier-1 fixed point did not settle within `max_rounds` rounds;
/// * a pass met a path longer than the bucket queue orders (`STRIDE`).
///
/// Strict Gao-Rexford has no tier-1 variables, so it always converges,
/// in one round.
///
/// Selections, tie-breaks and filter semantics match
/// [`crate::propagate_announcements`] bit for bit wherever the solver
/// converges (the root package's `differential` test pins this under both
/// policies, forged origins included); only the [`ConvergenceStats`]
/// differ — no messages flow, so `accepted` reports routed ASes and
/// `generations` reports fixed-point rounds.
///
/// # Panics
///
/// Panics if `announcements` is empty, contains duplicate announcers, or
/// references ASes out of range for `net`.
pub fn solve_race(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    max_rounds: u32,
    ws: &mut RaceWorkspace,
) -> Option<Propagation> {
    assert!(!announcements.is_empty(), "at least one origin required");
    let n = net.num_ases();
    for a in announcements {
        assert!(
            a.announcer.usize() < n && a.claimed_origin.usize() < n,
            "announcement references an AS out of range"
        );
    }
    if policy.tier1_shortest_path && net.tier1_sibling_buys_transit() {
        return None;
    }
    ws.begin(net);

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
        }
    }

    // Monomorphize the pass on whether filters can fire at all: the
    // undefended sweeps (the fig. 2–4 workload) run inert contexts, and
    // the per-edge predicates are pure overhead there.
    let filtered = !filters.is_inert();
    let mut rounds = 0u32;
    loop {
        if rounds >= max_rounds {
            return None;
        }
        rounds += 1;
        if filtered {
            run_pass::<true>(net, announcements, filters, ws);
        } else {
            run_pass::<false>(net, announcements, filters, ws);
        }
        if ws.overflow {
            return None;
        }
        derive_tier1(ws);
        if ws.next == ws.frozen {
            break;
        }
        std::mem::swap(&mut ws.frozen, &mut ws.next);
    }

    if filtered {
        finalize_leaves::<true>(net, announcements, filters, ws);
    } else {
        finalize_leaves::<false>(net, announcements, filters, ws);
    }

    // Converged: materialize choices from the final pass labels, with the
    // tier-1 variables taken from their (confirmed) frozen selections.
    let epoch = ws.epoch;
    let mut accepted = 0u64;
    let choices: Vec<Option<Choice>> = (0..n)
        .map(|i| {
            // The sender behind a receiver-side slot is that slot's
            // neighbor — the low half of the packed adjacency entry.
            let sender_at = |slot: u32| {
                AsIndex::new(net.race_adj()[slot as usize] as u32 & !RACE_LEAF_BIT as u32)
            };
            let choice = if ws.t1_index[i] != NONE {
                ws.frozen[ws.t1_index[i] as usize].as_ref().map(|f| Choice {
                    origin: AsIndex::new(f.origin),
                    learned_from: Some(sender_at(f.slot)),
                    len: f.len,
                    class: PrefClass::from_u8(f.class),
                })
            } else if ws.stamp[i].labeled == epoch {
                // The pass fully drained, so the key carries
                // [`SETTLED_BIT`]; the decoders ignore it.
                let st = ws.stamp[i];
                Some(Choice {
                    origin: AsIndex::new(st.origin),
                    learned_from: if st.from == NONE {
                        None
                    } else {
                        Some(AsIndex::new(st.from))
                    },
                    len: key_len(st.key),
                    class: PrefClass::from_u8(key_class(st.key)),
                })
            } else {
                None
            };
            accepted += u64::from(choice.is_some());
            choice
        })
        .collect();
    Some(Propagation::new(
        choices,
        ConvergenceStats {
            accepted,
            generations: rounds,
            ..ConvergenceStats::default()
        },
    ))
}

/// [`solve_race`] reporting the final counters through
/// [`Observer::on_converged`] when it succeeds (telemetry must not count a
/// run that the caller is about to redo in the generation engine).
pub fn solve_race_observed<O: Observer>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    max_rounds: u32,
    ws: &mut RaceWorkspace,
    obs: &mut O,
) -> Option<Propagation> {
    let p = solve_race(net, announcements, filters, policy, max_rounds, ws)?;
    obs.on_converged(&p.stats());
    Some(p)
}

/// One conditioned label-setting pass: origins seed, frozen tier-1
/// selections inject, then the bucket queue settles everyone else in
/// strictly degrading `(class, len)` order.
fn run_pass<const FILTERED: bool>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    ws: &mut RaceWorkspace,
) {
    ws.begin_pass();
    let RaceWorkspace {
        epoch,
        stamp,
        arena,
        buckets,
        overflow,
        t1_index,
        t1_nodes,
        frozen,
        t1_best,
        settled,
        ..
    } = ws;
    let epoch = *epoch;
    t1_best.fill((0, NONE, NONE));
    // Highest populated length bucket per class, -1 when empty.
    let mut hi = [-1i64; 4];

    // Pre-settle every variable tier-1 with the sentinel before anything
    // exports: offers into them lose the key comparison and are diverted
    // into the candidacy tally instead (materialization reads tier-1 state
    // from `frozen`, never from here). Field updates only — `dirty` marks
    // must survive across this loop.
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
            &mut hi,
            xkey,
            a.announcer.raw(),
        );
    }

    // Inject the frozen tier-1 selections: export the routed ones.
    for (k, &t) in t1_nodes.iter().enumerate() {
        let Some(f) = &frozen[k] else { continue };
        let mut node = NONE;
        for &asn in f.path.iter().rev() {
            let next = arena.len() as u32;
            arena.push(PathNode { asn, parent: node });
            stamp[asn as usize].dirty = epoch;
            node = next;
        }
        stamp[t as usize].origin = f.origin;
        stamp[t as usize].node = node;
        // The tier-1's own hop now rides on in-flight paths, so candidacy
        // loop checks against it must walk the arena.
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
            &mut hi,
            standard_key(PrefClass::from_u8(f.class), f.len, f.slot),
            t,
        );
    }

    // Drain buckets best-first. Pushes from a settling AS always land in a
    // strictly worse bucket (receiver class never exceeds sender class,
    // length grows), so every bucket's candidates are final when its turn
    // comes and the processed bucket can be cleared in place.
    for c in (0..4usize).rev() {
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
                settled.push(x);
                relax_from::<FILTERED>(
                    net, filters, epoch, stamp, arena, buckets, overflow, t1_index, t1_best,
                    &mut hi, key, x,
                );
            }
            queue.clear();
            buckets[b] = queue;
            l += 1;
        }
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
    let range = net.slots_of(xi);
    let cuts = net.race_cuts(x as usize);
    let adj = net.race_adj();
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
            // Peer-/provider-class routes export only to customers and
            // siblings, so a leaf receiver ([`SimNet::race_leaf`]) of such
            // a route re-exports nothing and influences nothing inside a
            // pass; such receivers are skipped here and labeled once from
            // their senders' final routes after the fixed point lands.
            // Leaves appear only in these two segments: providers have a
            // customer and sibling-segment receivers have a sibling.
            let queue_free = c <= PrefClass::Peer.as_u8() as usize;
            // [`standard_key`] with the slot field zeroed (`!u32::MAX`);
            // each edge ORs its inverted tie slot back in.
            let kbase = standard_key(rcv_class, rcv_len, u32::MAX);
            let bucket_idx = c * STRIDE + rcv_len as usize;
            let mut pushed = false;
            for &packed in &adj[lo as usize..end as usize] {
                if queue_free && packed & RACE_LEAF_BIT != 0 {
                    continue; // labeled after convergence (`finalize_leaves`)
                }
                let r = (packed as u32 & !RACE_LEAF_BIT as u32) as usize;
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
    relax_segment(
        range.start,
        cuts[0],
        PrefClass::Provider,
        Relationship::Provider,
    );
    if matches!(export_class, PrefClass::Customer | PrefClass::Origin) {
        relax_segment(cuts[0], cuts[1], PrefClass::Peer, Relationship::Peer);
        relax_segment(
            cuts[1],
            cuts[2],
            PrefClass::Customer,
            Relationship::Customer,
        );
    }
    relax_segment(cuts[2], range.end, export_class, Relationship::Sibling);
}

/// Labels every leaf by replaying the final pass's exports into leaf
/// receivers, once, after the fixed point lands. Passes skip leaf
/// receivers (see `relax_from`): a leaf's label influences nothing inside
/// a pass — it exports nothing and is never a variable tier-1 — so
/// recomputing it every pass is wasted work. The senders are exactly the
/// ASes that exported during the final pass (origin seeds, routed frozen
/// tier-1s, and the drained settle list, whose stamps all still hold
/// their final routes), and selection, tie-break, filter and loop
/// semantics mirror the offers `relax_from` suppressed.
fn finalize_leaves<const FILTERED: bool>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    ws: &mut RaceWorkspace,
) {
    let RaceWorkspace {
        epoch,
        stamp,
        arena,
        t1_nodes,
        frozen,
        settled,
        ..
    } = ws;
    let epoch = *epoch;
    for a in announcements {
        let o = a.announcer.raw();
        let xkey = stamp[o as usize].key & !SETTLED_BIT;
        relax_leaves::<FILTERED>(net, filters, epoch, stamp, arena, xkey, o);
    }
    for (k, &t) in t1_nodes.iter().enumerate() {
        let Some(f) = &frozen[k] else { continue };
        let xkey = standard_key(PrefClass::from_u8(f.class), f.len, f.slot);
        relax_leaves::<FILTERED>(net, filters, epoch, stamp, arena, xkey, t);
    }
    for &x in settled.iter() {
        let xkey = stamp[x as usize].key & !SETTLED_BIT;
        relax_leaves::<FILTERED>(net, filters, epoch, stamp, arena, xkey, x);
    }
}

/// `relax_from`, reduced to the offers it suppressed: exports `x`'s final
/// route to the leaf receivers among its customers and peers (the only
/// segments where leaves occur — a provider has a customer, and
/// sibling-segment receivers have siblings). The sweep walks
/// [`SimNet::leaf_adj`], so only leaf receivers are ever visited.
/// Max-key selection needs no settle order, so there is no queue:
/// labels improve in place.
fn relax_leaves<const FILTERED: bool>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    epoch: u32,
    stamp: &mut [Stamp],
    arena: &[PathNode],
    xkey: u64,
    x: u32,
) {
    let cuts = net.leaf_cuts(x as usize);
    if cuts[0] == cuts[2] {
        return; // no leaf neighbors at all
    }
    let xi = AsIndex::new(x);
    let lab = stamp[x as usize];
    let export_class = PrefClass::from_u8(key_class(xkey));
    let origin = AsIndex::new(lab.origin);
    let adj = net.leaf_adj();
    let rcv_len = key_len(xkey) + 1;

    let mut relax_segment = |lo: u32, end: u32, rcv_class: PrefClass, rel: Relationship| {
        if lo == end {
            return;
        }
        if FILTERED && filters.rejects_stub(net, rel, xi, origin) {
            return;
        }
        let kbase = standard_key(rcv_class, rcv_len, u32::MAX);
        for &packed in &adj[lo as usize..end as usize] {
            let r = (packed as u32 & !RACE_LEAF_BIT as u32) as usize;
            let st = stamp[r];
            let key = kbase | u64::from(!((packed >> 32) as u32));
            // Announcer leaves sit settled and reject every offer here.
            if st.labeled == epoch && key <= st.key {
                continue;
            }
            if FILTERED && filters.rejects_origin(AsIndex::new(r as u32), origin) {
                continue;
            }
            if st.dirty == epoch && path_contains(arena, lab.node, r as u32) {
                continue;
            }
            stamp[r] = Stamp {
                key,
                labeled: epoch,
                dirty: st.dirty,
                origin: lab.origin,
                node: NONE, // a leaf's path is never read
                from: x,
            };
        }
    };
    relax_segment(
        cuts[0],
        cuts[1],
        PrefClass::Provider,
        Relationship::Provider,
    );
    if matches!(export_class, PrefClass::Customer | PrefClass::Origin) {
        relax_segment(cuts[1], cuts[2], PrefClass::Peer, Relationship::Peer);
    }
}

/// Materializes every variable tier-1's next selection from the
/// candidacy tally the pass built ([`RaceWorkspace::t1_best`]), writing
/// into `ws.next`. All tier-1s re-select from the same pass (Jacobi
/// style); the winning offer's arena path is copied out because arena
/// nodes do not survive a pass.
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
            continue; // no eligible offer this pass
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
        let got = solve_race(
            &net,
            announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut RaceWorkspace::new(),
        )
        .expect("fixed point must converge on this topology");
        assert_eq!(got.choices(), expected.choices());
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
        let result = solve_race(
            &net,
            &[Announcement::honest(ix(&t, 9))],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            0,
            &mut RaceWorkspace::new(),
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
        let p = solve_race(
            &net,
            &announcements,
            &FilterContext::none(),
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut RaceWorkspace::new(),
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
        assert_eq!(p.choices(), expected.choices());
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
        .expect("converges");
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
        .expect("converges");
        assert_eq!(first.choices(), again.choices());
        assert_eq!(first.stats(), again.stats());
    }

    /// Epoch wrap-around: stamps are cleared at the wrap so stale labels
    /// from the old cycle can never leak into post-wrap passes.
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
        .expect("converges");
        ws.epoch = u32::MAX - 1;
        let wrapped = solve_race(
            &net,
            &announcements,
            &ctx,
            &policy,
            DEFAULT_MAX_ROUNDS,
            &mut ws,
        )
        .expect("converges");
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
}
