//! The generation-stepped message-passing engine.
//!
//! This is the paper's simulator (§III): "BGP announcements are propagated
//! to neighboring ASes in step-wise fashion… Generation after generation of
//! message propagation continues until convergence is reached."
//!
//! # Model
//!
//! Every AS keeps a per-neighbor Adj-RIB-In with standard BGP replacement
//! semantics: a new announcement from a neighbor replaces that neighbor's
//! previous one; an announcement that fails the loop check or a filter
//! *removes* the previous entry (it is unusable, per RFC 4271 decision
//! processing); and when an AS's new best route is no longer exportable to
//! a neighbor it previously announced to, it sends a withdrawal. After any
//! Adj-RIB-In change the AS re-selects and, if its best *route* changed —
//! origin, length, class **or AS path** — re-exports in the next
//! generation, as real BGP sends an UPDATE on any path change. The
//! last-export memo is therefore keyed on route identity (`RouteId`:
//! the selection triple plus the best's path node), which guarantees the
//! property the rest of the crate builds on: at convergence every AS's
//! last export phase carried its final selection, so every neighbour
//! holds exactly what that selection exports and no loop check ran
//! against a path nobody uses any more. That makes the converged state a
//! stable routing solution — `engine::race` is the closed-form
//! cross-check — and makes `engine::delta`'s closed-form leaf settling
//! exact; `tests/semantics.rs`
//! (`path_change_under_an_unchanged_triple_is_reannounced`) pins it. (A
//! memo keyed on the triple alone suppressed the re-announcement of a
//! same-triple path change and left one lab attack in 200 on a state that
//! is not a solution: DESIGN §12.)
//!
//! * Preference: customer > peer > provider `LOCAL_PREF`, then shorter AS
//!   path, then lowest neighbor slot (a deterministic stand-in for the
//!   paper's keep-first rule — equal-preference candidates always arrive in
//!   the same generation, so only intra-generation order matters).
//! * Tier-1 ASes compare path length first when
//!   [`PolicyConfig::tier1_shortest_path`] is set.
//! * Export follows the valley-free matrix in [`crate::policy::may_export`].
//! * Sibling groups behave as one AS for preference and export: routes
//!   cross sibling links keeping their external preference class.
//! * Loop prevention is per-ASN, as in real BGP: an AS rejects any
//!   announcement whose AS path already contains itself. (Organizations may
//!   legitimately carry both sibling and provider links between their own
//!   ASes, so group-level rejection would break real topologies.)
//!
//! # One engine, two backing stores
//!
//! The wave loop, delivery and re-selection logic are written once, generic
//! over `RibState` — an abstract view of the engine's mutable tables.
//! [`Workspace`] backs a from-scratch propagation; `engine::delta` layers a
//! copy-on-write overlay over a frozen `RibSnapshot` to re-converge
//! incrementally from a previously converged state. Because both run the
//! *same* mechanics, their converged results are identical by construction
//! wherever the stable solution is unique (and property tests enforce the
//! bit-level agreement).

use bgpsim_topology::{AsIndex, Relationship};

use crate::filter::FilterContext;
use crate::net::SimNet;
use crate::observer::{Decision, MessageEvent, Observer};
use crate::policy::{may_export, standard_key, tier1_key, PolicyConfig, PrefClass};
use crate::route::{Choice, ConvergenceStats, Propagation};

pub(crate) const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdjEntry {
    pub(crate) origin: u32,
    pub(crate) len: u16,
    pub(crate) class: u8,
    pub(crate) node: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Best {
    /// `NONE` when the AS currently has no route.
    pub(crate) origin: u32,
    /// Receiver-side slot the route was learned on (`NONE` if self-originated).
    pub(crate) slot: u32,
    pub(crate) len: u16,
    pub(crate) class: u8,
    pub(crate) node: u32,
    pub(crate) key: u64,
}

pub(crate) const NO_ROUTE: Best = Best {
    origin: NONE,
    slot: NONE,
    len: 0,
    class: 0,
    node: NONE,
    key: 0,
};

/// Identity of a selected route as its neighbours see it: `(origin, len,
/// class)` plus the best's AS-path arena node. Every delivered message
/// carries a node of its own, so equal triples with different nodes are
/// different AS paths — and an AS that moves between them must
/// re-announce.
pub(crate) type RouteId = (u32, u16, u8, u32);

/// [`NO_ROUTE`]'s identity, also the memo of an AS that never exported.
pub(crate) const NO_ROUTE_ID: RouteId = (NONE, 0, 0, NONE);

impl Best {
    #[inline]
    pub(crate) fn route_id(&self) -> RouteId {
        (self.origin, self.len, self.class, self.node)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    pub(crate) to: u32,
    /// Receiver-side slot identifying the sender.
    pub(crate) slot: u32,
    /// `NONE` encodes a withdrawal.
    pub(crate) origin: u32,
    pub(crate) len: u16,
    pub(crate) class: u8,
    pub(crate) node: u32,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct PathNode {
    pub(crate) asn: u32,
    pub(crate) parent: u32,
}

/// The engine's mutable tables, abstracted so the same wave loop can run
/// over a plain [`Workspace`] or over a delta overlay (`engine::delta`).
///
/// Presence semantics: `best` / `last_export` / `adj` return `None` when
/// nothing has been recorded for this run (for an overlay: neither in the
/// overlay nor in the baseline). A recorded best of [`NO_ROUTE`] (origin
/// `NONE`) is `Some` — "selected nothing after a withdrawal" is distinct
/// from "never selected".
pub(crate) trait RibState {
    /// The Adj-RIB-In entry stored at receiver-side `slot`, if any.
    fn adj(&self, slot: u32) -> Option<AdjEntry>;
    /// Stores an Adj-RIB-In entry at `slot`.
    fn set_adj(&mut self, slot: u32, e: AdjEntry);
    /// Removes the entry at `slot`, returning whether one was present.
    fn clear_adj(&mut self, slot: u32) -> bool;
    /// The recorded selection of AS `ix`, if any.
    fn best(&self, ix: u32) -> Option<Best>;
    /// Records the selection of AS `ix`.
    fn set_best(&mut self, ix: u32, b: Best);
    /// Whether an announcement is outstanding on sender-side `slot`.
    fn sent(&self, slot: u32) -> bool;
    /// Sets/clears the outstanding-announcement flag on sender-side `slot`.
    fn set_sent(&mut self, slot: u32, on: bool);
    /// The identity of the route AS `ix` last exported, if any.
    fn last_export(&self, ix: u32) -> Option<RouteId>;
    /// Records the identity of the route AS `ix` last exported.
    fn set_last_export(&mut self, ix: u32, id: RouteId);
    /// Resolves an AS-path arena node.
    fn node(&self, node: u32) -> PathNode;
    /// Appends an AS-path arena node, returning its index.
    fn push_node(&mut self, pn: PathNode) -> u32;
    /// Marks `ix` for re-export in wave `wave`; `true` if newly marked
    /// this wave (the caller then queues it).
    fn try_mark_dirty(&mut self, ix: u32, wave: u32) -> bool;
}

/// Walks an AS-path chain checking for `asn` (per-ASN loop prevention).
fn path_contains<S: RibState>(state: &S, mut node: u32, asn: u32) -> bool {
    while node != NONE {
        let pn = state.node(node);
        if pn.asn == asn {
            return true;
        }
        node = pn.parent;
    }
    false
}

/// The engine's message queues, owned separately from the [`RibState`] so
/// the wave loop can hold `&mut` to both at once. Reused across runs to
/// amortize allocation.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// ASes whose best changed and must export next wave.
    pub(crate) dirty: Vec<u32>,
    pub(crate) cur: Vec<Msg>,
    pub(crate) next: Vec<Msg>,
}

impl Queues {
    fn clear(&mut self) {
        self.dirty.clear();
        self.cur.clear();
        self.next.clear();
    }
}

/// Reusable scratch state for [`propagate`].
///
/// A workspace amortizes all allocation across simulations: per-AS and
/// per-edge tables are invalidated by epoch stamps instead of clearing, so
/// back-to-back propagations on the same [`SimNet`] avoid memsetting the
/// large arrays. Create one per thread and reuse it for every simulation in
/// a sweep.
#[derive(Debug, Default)]
pub struct Workspace {
    epoch: u32,
    adj: Vec<AdjEntry>,
    adj_epoch: Vec<u32>,
    /// Sender-side record of whether an announcement is outstanding on a
    /// directed edge (for withdrawal generation).
    sent_epoch: Vec<u32>,
    best: Vec<Best>,
    best_epoch: Vec<u32>,
    /// Identity of the last exported route per AS, to suppress no-op exports.
    last_export: Vec<RouteId>,
    last_export_epoch: Vec<u32>,
    /// `(epoch << 32) | wave` tag deduplicating the dirty queue per wave.
    dirty_tag: Vec<u64>,
    arena: Vec<PathNode>,
    queues: Queues,
}

impl Workspace {
    /// Creates an empty workspace; arrays are sized on first use.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    fn begin(&mut self, net: &SimNet<'_>) {
        let n = net.num_ases();
        let slots = net.num_slots();
        if self.best.len() < n {
            self.best.resize(n, NO_ROUTE);
            self.best_epoch.resize(n, 0);
            self.last_export.resize(n, NO_ROUTE_ID);
            self.last_export_epoch.resize(n, 0);
            self.dirty_tag.resize(n, 0);
        }
        if self.adj.len() < slots {
            self.adj.resize(
                slots,
                AdjEntry {
                    origin: NONE,
                    len: 0,
                    class: 0,
                    node: NONE,
                },
            );
            self.adj_epoch.resize(slots, 0);
            self.sent_epoch.resize(slots, 0);
        }
        // Epoch 0 marks "never used"; on wrap, clear all stamps.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.adj_epoch.fill(0);
            self.sent_epoch.fill(0);
            self.best_epoch.fill(0);
            self.last_export_epoch.fill(0);
            self.dirty_tag.fill(0);
            self.epoch = 1;
        }
        self.arena.clear();
        self.queues.clear();
    }

    /// Freezes the converged state of the propagation that just ran in this
    /// workspace. Must be called before the next `begin` (the snapshot
    /// reads the current epoch's stamps). Array lengths are taken from
    /// `net`, not from the (possibly larger, reused) workspace arrays.
    pub(crate) fn snapshot(&self, net: &SimNet<'_>) -> RibSnapshot {
        let n = net.num_ases();
        let slots = net.num_slots();
        let mut sent_bits = vec![0u64; slots.div_ceil(64)];
        for s in 0..slots {
            if self.sent_epoch[s] == self.epoch {
                sent_bits[s / 64] |= 1 << (s % 64);
            }
        }
        RibSnapshot {
            adj_word: (0..slots)
                .map(|s| {
                    if self.adj_epoch[s] == self.epoch {
                        let e = self.adj[s];
                        pack_triple(e.origin, e.len, e.class)
                    } else {
                        ADJ_ABSENT
                    }
                })
                .collect(),
            adj_node: (0..slots)
                .map(|s| {
                    if self.adj_epoch[s] == self.epoch {
                        self.adj[s].node
                    } else {
                        NONE
                    }
                })
                .collect(),
            sent_bits,
            best_word: (0..n)
                .map(|i| {
                    if self.best_epoch[i] == self.epoch {
                        let b = self.best[i];
                        pack_triple(b.origin, b.len, b.class) | best_flags(&b)
                    } else {
                        0
                    }
                })
                .collect(),
            best_link: (0..n)
                .map(|i| {
                    if self.best_epoch[i] == self.epoch {
                        let b = self.best[i];
                        u64::from(b.slot) | (u64::from(b.node) << 32)
                    } else {
                        0
                    }
                })
                .collect(),
            last_export_word: (0..n)
                .map(|i| {
                    if self.last_export_epoch[i] == self.epoch {
                        let (o, l, c, _) = self.last_export[i];
                        pack_triple(o, l, c) | EXPORT_PRESENT
                    } else {
                        0
                    }
                })
                .collect(),
            last_export_node: (0..n)
                .map(|i| {
                    if self.last_export_epoch[i] == self.epoch {
                        self.last_export[i].3
                    } else {
                        NONE
                    }
                })
                .collect(),
            arena: self.arena.clone(),
        }
    }
}

impl RibState for Workspace {
    #[inline]
    fn adj(&self, slot: u32) -> Option<AdjEntry> {
        (self.adj_epoch[slot as usize] == self.epoch).then(|| self.adj[slot as usize])
    }

    #[inline]
    fn set_adj(&mut self, slot: u32, e: AdjEntry) {
        self.adj[slot as usize] = e;
        self.adj_epoch[slot as usize] = self.epoch;
    }

    #[inline]
    fn clear_adj(&mut self, slot: u32) -> bool {
        let had = self.adj_epoch[slot as usize] == self.epoch;
        self.adj_epoch[slot as usize] = 0;
        had
    }

    #[inline]
    fn best(&self, ix: u32) -> Option<Best> {
        (self.best_epoch[ix as usize] == self.epoch).then(|| self.best[ix as usize])
    }

    #[inline]
    fn set_best(&mut self, ix: u32, b: Best) {
        self.best[ix as usize] = b;
        self.best_epoch[ix as usize] = self.epoch;
    }

    #[inline]
    fn sent(&self, slot: u32) -> bool {
        self.sent_epoch[slot as usize] == self.epoch
    }

    #[inline]
    fn set_sent(&mut self, slot: u32, on: bool) {
        self.sent_epoch[slot as usize] = if on { self.epoch } else { 0 };
    }

    #[inline]
    fn last_export(&self, ix: u32) -> Option<RouteId> {
        (self.last_export_epoch[ix as usize] == self.epoch).then(|| self.last_export[ix as usize])
    }

    #[inline]
    fn set_last_export(&mut self, ix: u32, id: RouteId) {
        self.last_export[ix as usize] = id;
        self.last_export_epoch[ix as usize] = self.epoch;
    }

    #[inline]
    fn node(&self, node: u32) -> PathNode {
        self.arena[node as usize]
    }

    #[inline]
    fn push_node(&mut self, pn: PathNode) -> u32 {
        let i = self.arena.len() as u32;
        self.arena.push(pn);
        i
    }

    #[inline]
    fn try_mark_dirty(&mut self, ix: u32, wave: u32) -> bool {
        let tag = ((self.epoch as u64) << 32) | wave as u64;
        if self.dirty_tag[ix as usize] != tag {
            self.dirty_tag[ix as usize] = tag;
            true
        } else {
            false
        }
    }
}

/// One recorded delivery of a race run: the message, the generation it was
/// delivered in, and whether its processing *removed* the receiver's
/// Adj-RIB-In entry (withdrawal or filter/loop rejection) rather than
/// storing it. Enough to replay the receiver's table timeline without
/// re-running filters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogDelivery {
    pub(crate) gen: u32,
    pub(crate) msg: Msg,
    pub(crate) removed: bool,
}

/// One recorded export phase of a race run: AS `asn` exported (or
/// withdrew) the route `route`, producing the messages delivered in
/// generation `gen`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogExport {
    pub(crate) gen: u32,
    pub(crate) asn: u32,
    pub(crate) route: RouteId,
}

/// The full message schedule of one propagation, recorded during
/// [`run_waves`]. `engine::delta` replays it to re-converge a baseline
/// with extra announcements on the *same* generation timeline as a
/// from-scratch race, which is what makes delta results bit-identical.
#[derive(Debug, Clone, Default)]
pub(crate) struct RaceLog {
    /// Every delivery, in delivery order (so grouped by ascending `gen`).
    pub(crate) deliveries: Vec<LogDelivery>,
    /// Every non-suppressed export phase, in order of ascending `gen`.
    pub(crate) exports: Vec<LogExport>,
}

/// Packed `origin | len << 32 | class << 48` word shared by the snapshot's
/// adjacency, selection and last-export tables. An `origin` of [`NONE`]
/// still packs losslessly (it occupies exactly the low 32 bits), so the
/// withdrawal-selected [`NO_ROUTE`] round-trips.
#[inline]
fn pack_triple(origin: u32, len: u16, class: u8) -> u64 {
    u64::from(origin) | (u64::from(len) << 32) | (u64::from(class) << 48)
}

/// Absent adjacency sentinel: entries always carry a real origin (unusable
/// announcements *remove* entries), so `origin == NONE` in the packed word
/// means "no entry stored".
const ADJ_ABSENT: u64 = NONE as u64;

/// `best_word` flag bits (byte 56..64): presence plus a 2-bit tag naming
/// how to reconstitute the selection key on read.
const BEST_PRESENT: u64 = 1 << 56;
const KEY_SHIFT: u32 = 57;
/// Key tags: `NO_ROUTE`'s literal 0, a seeded origin's `u64::MAX`, or a
/// recomputation through [`standard_key`] / [`tier1_key`].
const KEY_ZERO: u64 = 0;
const KEY_SEEDED: u64 = 1;
const KEY_STANDARD: u64 = 2;
const KEY_TIER1: u64 = 3;

const EXPORT_PRESENT: u64 = 1 << 56;

/// Frozen converged engine state — the backing store for incremental
/// re-convergence (`engine::delta`).
///
/// The layout is struct-of-arrays with sentinel-keyed packed words (the
/// race engine's packed-key playbook) instead of the obvious
/// `Vec<Option<AdjEntry>>` / `Vec<Option<Best>>`: at paper scale the
/// `Option` tags and padding alone cost hundreds of megabytes across a
/// sweep's baselines. Presence semantics are preserved exactly — including
/// the three-way distinction between "never selected" (`None`), "selected
/// nothing after a withdrawal" (`Some(NO_ROUTE)`) and a real selection —
/// via explicit present bits where the origin sentinel is not enough.
/// Selection keys are not stored at all; a 2-bit tag says whether to
/// rebuild them with [`standard_key`] or [`tier1_key`] (or use the two
/// literal sentinels), which costs a few ALU ops on the rare fall-through
/// read in exchange for 8 bytes per AS.
#[derive(Debug, Clone)]
pub(crate) struct RibSnapshot {
    /// Per-slot `origin | len << 32 | class << 48` ([`ADJ_ABSENT`] when no
    /// entry is stored).
    adj_word: Vec<u64>,
    /// Per-slot AS-path arena node of the stored entry (valid only where
    /// `adj_word` is present).
    adj_node: Vec<u32>,
    /// Outstanding-announcement flags, one bit per slot.
    sent_bits: Vec<u64>,
    /// Per-AS `origin | len << 32 | class << 48 | flags << 56` (present
    /// bit plus key tag in the flags byte).
    best_word: Vec<u64>,
    /// Per-AS `slot | node << 32` of the selection (valid only where
    /// present).
    best_link: Vec<u64>,
    /// Per-AS packed last-export triple with [`EXPORT_PRESENT`].
    last_export_word: Vec<u64>,
    /// Per-AS path node of the last exported route (valid only where
    /// `last_export_word` is present).
    last_export_node: Vec<u32>,
    pub(crate) arena: Vec<PathNode>,
}

impl RibSnapshot {
    /// A snapshot of the converged state of *zero* announcements: every
    /// table empty. Re-converging from it is a from-scratch propagation.
    pub(crate) fn empty(net: &SimNet<'_>) -> RibSnapshot {
        RibSnapshot {
            adj_word: vec![ADJ_ABSENT; net.num_slots()],
            adj_node: vec![NONE; net.num_slots()],
            sent_bits: vec![0; net.num_slots().div_ceil(64)],
            best_word: vec![0; net.num_ases()],
            best_link: vec![0; net.num_ases()],
            last_export_word: vec![0; net.num_ases()],
            last_export_node: vec![NONE; net.num_ases()],
            arena: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn adj(&self, slot: u32) -> Option<AdjEntry> {
        let w = self.adj_word[slot as usize];
        (w as u32 != NONE).then(|| AdjEntry {
            origin: w as u32,
            len: (w >> 32) as u16,
            class: (w >> 48) as u8,
            node: self.adj_node[slot as usize],
        })
    }

    #[inline]
    pub(crate) fn sent(&self, slot: u32) -> bool {
        (self.sent_bits[(slot / 64) as usize] >> (slot % 64)) & 1 != 0
    }

    #[inline]
    pub(crate) fn best(&self, ix: u32) -> Option<Best> {
        let w = self.best_word[ix as usize];
        if w & BEST_PRESENT == 0 {
            return None;
        }
        let (len, class) = ((w >> 32) as u16, (w >> 48) as u8);
        let link = self.best_link[ix as usize];
        let slot = link as u32;
        let key = match w >> KEY_SHIFT {
            KEY_ZERO => 0,
            KEY_SEEDED => u64::MAX,
            KEY_STANDARD => standard_key(PrefClass::from_u8(class), len, slot),
            _ => tier1_key(PrefClass::from_u8(class), len, slot),
        };
        Some(Best {
            origin: w as u32,
            slot,
            len,
            class,
            node: (link >> 32) as u32,
            key,
        })
    }

    #[inline]
    pub(crate) fn last_export(&self, ix: u32) -> Option<RouteId> {
        let w = self.last_export_word[ix as usize];
        (w & EXPORT_PRESENT != 0).then(|| {
            (
                w as u32,
                (w >> 32) as u16,
                (w >> 48) as u8,
                self.last_export_node[ix as usize],
            )
        })
    }

    /// Number of AS rows (diagnostics and size checks).
    pub(crate) fn num_ases(&self) -> usize {
        self.best_word.len()
    }

    /// Number of slot rows.
    pub(crate) fn num_slots(&self) -> usize {
        self.adj_word.len()
    }

    /// Resident heap footprint of the snapshot's tables, in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.adj_word.capacity() * 8
            + self.adj_node.capacity() * 4
            + self.sent_bits.capacity() * 8
            + self.best_word.capacity() * 8
            + self.best_link.capacity() * 8
            + self.last_export_word.capacity() * 8
            + self.last_export_node.capacity() * 4
            + self.arena.capacity() * std::mem::size_of::<PathNode>()
    }
}

/// The flags byte of a packed selection: present bit plus the tag that
/// reconstitutes `b.key` on read. The tag is *derived* (by comparing the
/// stored key against each reconstruction) rather than threaded from the
/// policy, so `snapshot` needs no policy handle and a key that several
/// tags reproduce picks any of them soundly.
fn best_flags(b: &Best) -> u64 {
    let kind = if b.key == 0 {
        KEY_ZERO
    } else if b.key == u64::MAX {
        KEY_SEEDED
    } else if b.key == standard_key(PrefClass::from_u8(b.class), b.len, b.slot) {
        KEY_STANDARD
    } else {
        assert_eq!(
            b.key,
            tier1_key(PrefClass::from_u8(b.class), b.len, b.slot),
            "selection key must be reconstructible from (class, len, slot)"
        );
        KEY_TIER1
    };
    BEST_PRESENT | (kind << KEY_SHIFT)
}

#[inline]
pub(crate) fn key_for(tier1_len_first: bool, class: PrefClass, len: u16, slot: u32) -> u64 {
    if tier1_len_first {
        tier1_key(class, len, slot)
    } else {
        standard_key(class, len, slot)
    }
}

/// One initial announcement of the simulated prefix.
///
/// The honest case has `claimed_origin == announcer` (the AS originates its
/// own prefix). A *forged-origin* announcement — the classic
/// origin-validation evasion, where the attacker prepends the victim's ASN
/// so the route appears to originate legitimately — has
/// `claimed_origin != announcer`: the announced AS path starts as
/// `[announcer, claimed_origin]`, path length 1. Loop detection still sees
/// the claimed origin on the path, so the real origin itself always rejects
/// the forgery, exactly as in real BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Announcement {
    /// The AS injecting the announcement.
    pub announcer: AsIndex,
    /// The origin the announcement claims.
    pub claimed_origin: AsIndex,
}

impl Announcement {
    /// An honest origination by `origin`.
    pub fn honest(origin: AsIndex) -> Announcement {
        Announcement {
            announcer: origin,
            claimed_origin: origin,
        }
    }

    /// A forged-origin announcement: `announcer` claims `victim`'s ASN as
    /// the origin of the path.
    pub fn forged(announcer: AsIndex, victim: AsIndex) -> Announcement {
        Announcement {
            announcer,
            claimed_origin: victim,
        }
    }

    /// Whether the announcement misrepresents its origin.
    pub fn is_forged(&self) -> bool {
        self.announcer != self.claimed_origin
    }
}

/// Seeds one announcement into the state and queues its origin for the
/// first export wave. Shared by from-scratch and delta propagation.
///
/// # Panics
///
/// Panics if the announcer or claimed origin is out of range, or if the
/// announcer already self-originates (duplicate announcer, or — for a
/// delta run — an announcer that already originates in the baseline).
pub(crate) fn seed_announcement<S: RibState>(
    net: &SimNet<'_>,
    state: &mut S,
    q: &mut Queues,
    a: &Announcement,
) {
    let o = a.announcer;
    assert!(o.usize() < net.num_ases(), "origin {o} out of range");
    assert!(
        a.claimed_origin.usize() < net.num_ases(),
        "claimed origin out of range"
    );
    assert!(
        !matches!(state.best(o.raw()), Some(b) if b.slot == NONE && b.origin != NONE),
        "duplicate origin {o}"
    );
    let (node, len) = if a.is_forged() {
        // The forged path already carries the victim's ASN behind the
        // announcer, so downstream loop checks (and the victim itself)
        // see it.
        let node = state.push_node(PathNode {
            asn: a.claimed_origin.raw(),
            parent: NONE,
        });
        (node, 1)
    } else {
        (NONE, 0)
    };
    state.set_best(
        o.raw(),
        Best {
            origin: a.claimed_origin.raw(),
            slot: NONE,
            len,
            class: PrefClass::Origin.as_u8(),
            node,
            key: u64::MAX,
        },
    );
    if state.try_mark_dirty(o.raw(), 0) {
        q.dirty.push(o.raw());
    }
}

/// Runs one propagation to convergence and returns every AS's selection.
///
/// `origins` all announce the same prefix in generation 0; for a hijack
/// simulation pass `[target, attacker]` and a [`FilterContext`] authorizing
/// the target. The result is deterministic: it does not depend on thread
/// scheduling or map iteration order.
///
/// # Panics
///
/// Panics if `origins` is empty, contains duplicates, or contains an index
/// out of range for `net`.
///
/// # Examples
///
/// ```
/// use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};
/// use bgpsim_routing::{propagate, FilterContext, NullObserver, PolicyConfig, SimNet, Workspace};
///
/// let topo = topology_from_triples(&[(1, 2, ProviderToCustomer)]);
/// let net = SimNet::new(&topo);
/// let origin = topo.index_of(AsId::new(2)).unwrap();
/// let result = propagate(
///     &net,
///     &[origin],
///     &FilterContext::none(),
///     &PolicyConfig::paper(),
///     &mut Workspace::new(),
///     &mut NullObserver,
/// );
/// assert_eq!(result.reached_count(), 2);
/// ```
pub fn propagate<O: Observer>(
    net: &SimNet<'_>,
    origins: &[AsIndex],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    obs: &mut O,
) -> Propagation {
    let announcements: Vec<Announcement> =
        origins.iter().map(|&o| Announcement::honest(o)).collect();
    propagate_announcements(net, &announcements, filters, policy, ws, obs)
}

/// Like [`propagate`], but with full control over each initial
/// [`Announcement`], enabling forged-origin hijacks.
///
/// For a forged announcement the injecting AS's own selection reports the
/// *claimed* origin (that is the point of the forgery); use
/// [`Propagation::path_to_origin`] terminating at the announcer to decide
/// who was actually captured (see `bgpsim_hijack`).
///
/// # Panics
///
/// Panics if `announcements` is empty, contains duplicate announcers, or
/// references ASes out of range for `net`.
pub fn propagate_announcements<O: Observer>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    obs: &mut O,
) -> Propagation {
    propagate_recorded(net, announcements, filters, policy, ws, obs, None)
}

/// [`propagate_announcements`] with an optional [`RaceLog`] recorder —
/// the entry point `engine::delta` uses to capture a replayable baseline.
pub(crate) fn propagate_recorded<O: Observer>(
    net: &SimNet<'_>,
    announcements: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    ws: &mut Workspace,
    obs: &mut O,
    log: Option<&mut RaceLog>,
) -> Propagation {
    assert!(!announcements.is_empty(), "at least one origin required");
    ws.begin(net);
    let mut stats = ConvergenceStats::default();
    let mut q = std::mem::take(&mut ws.queues);
    for a in announcements {
        seed_announcement(net, ws, &mut q, a);
    }
    run_waves(net, filters, policy, ws, &mut q, &mut stats, obs, log);
    ws.queues = q;
    obs.on_converged(&stats);

    let epoch = ws.epoch;
    let choices: Vec<Option<Choice>> = (0..net.num_ases())
        .map(|i| {
            if ws.best_epoch[i] != epoch {
                return None;
            }
            let b = ws.best[i];
            if b.origin == NONE {
                return None;
            }
            Some(Choice {
                origin: AsIndex::new(b.origin),
                learned_from: if b.slot == NONE {
                    None
                } else {
                    Some(net.slot_entry(AsIndex::new(i as u32), b.slot).index)
                },
                len: b.len,
                class: PrefClass::from_u8(b.class),
            })
        })
        .collect();
    Propagation::new(choices, stats)
}

/// Runs the export phase of one dirty AS: suppression check, last-export
/// memo, per-neighbor announce/withdraw. Messages go to `sink` as
/// `(sender_side_slot, msg)`. Returns the identity of the exported route,
/// or `None` if the phase was suppressed (best route — path included —
/// unchanged since the last export). Shared verbatim by [`run_waves`] and
/// the delta replay loop.
pub(crate) fn export_from<S: RibState>(
    net: &SimNet<'_>,
    state: &mut S,
    x: u32,
    sink: &mut impl FnMut(u32, Msg),
) -> Option<RouteId> {
    let xi = AsIndex::new(x);
    let b = state.best(x).expect("dirty AS has a recorded selection");
    let exported = b.route_id();
    if state.last_export(x) == Some(exported) {
        return None;
    }
    state.set_last_export(x, exported);
    let has_route = b.origin != NONE;
    let class = PrefClass::from_u8(b.class);
    // The path node for external exports appends this AS's sibling
    // group; created lazily, once per export phase.
    let mut out_node = NONE;
    let base = net.slots_of(xi).start;
    for (j, nb) in net.topology().neighbors(xi).iter().enumerate() {
        let slot_here = base + j as u32;
        if has_route && may_export(class, nb.rel) {
            if out_node == NONE {
                out_node = state.push_node(PathNode {
                    asn: x,
                    parent: b.node,
                });
            }
            state.set_sent(slot_here, true);
            sink(
                slot_here,
                Msg {
                    to: nb.index.raw(),
                    slot: net.reverse_slot(slot_here),
                    origin: b.origin,
                    len: b.len + 1,
                    class: b.class,
                    node: out_node,
                },
            );
        } else if state.sent(slot_here) {
            // Previously announced, now ineligible: withdraw.
            state.set_sent(slot_here, false);
            sink(
                slot_here,
                Msg {
                    to: nb.index.raw(),
                    slot: net.reverse_slot(slot_here),
                    origin: NONE,
                    len: 0,
                    class: 0,
                    node: NONE,
                },
            );
        }
    }
    Some(exported)
}

/// Runs export/delivery waves until the message queues drain (or the
/// generation cap trips). The single source of truth for propagation
/// mechanics — both from-scratch and delta runs call exactly this (the
/// delta replay loop reuses [`export_from`] and [`deliver`] directly).
///
/// When `log` is provided, every export phase and delivery is recorded so
/// the run can later serve as a replayable baseline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_waves<S: RibState, O: Observer>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    state: &mut S,
    q: &mut Queues,
    stats: &mut ConvergenceStats,
    obs: &mut O,
    mut log: Option<&mut RaceLog>,
) {
    let mut generation = 0u32;
    loop {
        // ---- Export phase: every AS whose best changed re-announces. ----
        for di in 0..q.dirty.len() {
            let x = q.dirty[di];
            let route = export_from(net, state, x, &mut |_, m| q.next.push(m));
            if let (Some(route), Some(l)) = (route, log.as_deref_mut()) {
                // Messages pushed here are delivered in generation + 1.
                l.exports.push(LogExport {
                    gen: generation + 1,
                    asn: x,
                    route,
                });
            }
        }
        q.dirty.clear();

        if q.next.is_empty() {
            break;
        }
        generation += 1;
        if generation > policy.max_generations {
            stats.truncated = true;
            break;
        }
        stats.generations = generation;
        obs.on_generation_start(generation);
        std::mem::swap(&mut q.cur, &mut q.next);

        // ---- Delivery phase. ----
        for mi in 0..q.cur.len() {
            let msg = q.cur[mi];
            stats.messages += 1;
            let r = AsIndex::new(msg.to);
            let entry = net.slot_entry(r, msg.slot);
            let (from, rel) = (entry.index, entry.rel);

            let decision = deliver(net, filters, policy, state, q, generation, msg, rel, from);
            if let Some(l) = log.as_deref_mut() {
                l.deliveries.push(LogDelivery {
                    gen: generation,
                    msg,
                    removed: matches!(
                        decision,
                        Decision::Withdrawn
                            | Decision::RejectedLoop
                            | Decision::RejectedOrigin
                            | Decision::RejectedStub
                    ),
                });
            }
            match decision {
                Decision::NewBest => stats.accepted += 1,
                Decision::RejectedLoop => stats.loop_rejected += 1,
                Decision::RejectedOrigin => stats.filter_rejected += 1,
                Decision::RejectedStub => stats.stub_rejected += 1,
                Decision::Withdrawn => stats.withdrawals += 1,
                Decision::Stored => {}
            }
            obs.on_message(MessageEvent {
                generation,
                from,
                to: r,
                origin: AsIndex::new(msg.origin),
                len: msg.len,
                decision,
            });
        }
        q.cur.clear();
    }
}

/// Applies filters, the loop check, Adj-RIB-In replacement/removal and
/// route re-selection for one delivered message. Returns the decision.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver<S: RibState>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    state: &mut S,
    q: &mut Queues,
    generation: u32,
    msg: Msg,
    rel: Relationship,
    from: AsIndex,
) -> Decision {
    let r = AsIndex::new(msg.to);
    let tier1 = policy.tier1_shortest_path && net.is_tier1(r);

    // An unusable or withdrawn announcement removes the stored entry.
    let unusable = if msg.origin == NONE {
        Some(Decision::Withdrawn)
    } else if filters.rejects_origin(r, AsIndex::new(msg.origin)) {
        Some(Decision::RejectedOrigin)
    } else if filters.rejects_stub(net, rel, from, AsIndex::new(msg.origin)) {
        Some(Decision::RejectedStub)
    } else if path_contains(state, msg.node, r.raw()) {
        Some(Decision::RejectedLoop)
    } else {
        None
    };
    if let Some(decision) = unusable {
        let had_entry = state.clear_adj(msg.slot);
        if had_entry && state.best(r.raw()).is_some_and(|b| b.slot == msg.slot) {
            // The removed entry was the best route: re-select.
            let new_best = rescan(net, state, r, tier1).unwrap_or(NO_ROUTE);
            state.set_best(r.raw(), new_best);
            if state.try_mark_dirty(r.raw(), generation) {
                q.dirty.push(r.raw());
            }
        }
        return decision;
    }

    let class = match PrefClass::from_sender_rel(rel) {
        Some(c) => c,
        None => PrefClass::from_u8(msg.class), // sibling: inherit
    };
    state.set_adj(
        msg.slot,
        AdjEntry {
            origin: msg.origin,
            len: msg.len,
            class: class.as_u8(),
            node: msg.node,
        },
    );

    let cur_best = state.best(r.raw());
    let had = cur_best.is_some_and(|b| b.origin != NONE);
    if had && cur_best.expect("had implies recorded").slot == NONE {
        // The receiver originates this prefix; its own route wins.
        return Decision::Stored;
    }
    let ckey = key_for(tier1, class, msg.len, msg.slot);
    let cand = Best {
        origin: msg.origin,
        slot: msg.slot,
        len: msg.len,
        class: class.as_u8(),
        node: msg.node,
        key: ckey,
    };
    let mut rerouted = false;
    let decision = if !had {
        state.set_best(r.raw(), cand);
        Decision::NewBest
    } else {
        let old = cur_best.expect("had implies recorded");
        if old.slot == msg.slot {
            // Implicit replacement of the current best's entry.
            let new_best = if ckey >= old.key {
                cand
            } else {
                rescan(net, state, r, tier1).expect("entry was just stored")
            };
            let changed =
                (old.origin, old.len, old.class) != (new_best.origin, new_best.len, new_best.class);
            // The best may have moved to another AS path under the same
            // triple. Neighbours must hear of it (their loop checks run
            // against the path), so the AS is marked for re-export — but
            // the decision stays `Stored`: `NewBest` counts adoptions, and
            // an AS re-routing within one origin has adopted nothing new.
            rerouted = old.node != new_best.node;
            state.set_best(r.raw(), new_best);
            if changed {
                Decision::NewBest
            } else {
                Decision::Stored
            }
        } else if ckey > old.key {
            state.set_best(r.raw(), cand);
            Decision::NewBest
        } else {
            Decision::Stored
        }
    };
    if (decision == Decision::NewBest || rerouted) && state.try_mark_dirty(r.raw(), generation) {
        q.dirty.push(r.raw());
    }
    decision
}

/// Re-selects the best entry of `r` by scanning its Adj-RIB-In.
pub(crate) fn rescan<S: RibState>(
    net: &SimNet<'_>,
    state: &S,
    r: AsIndex,
    tier1: bool,
) -> Option<Best> {
    let mut best: Option<Best> = None;
    for slot in net.slots_of(r) {
        let Some(e) = state.adj(slot) else { continue };
        let key = key_for(tier1, PrefClass::from_u8(e.class), e.len, slot);
        if best.is_none_or(|b| key > b.key) {
            best = Some(Best {
                origin: e.origin,
                slot,
                len: e.len,
                class: e.class,
                node: e.node,
                key,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*};

    /// Satellite: epoch wrap-around. A workspace whose epoch counter sits
    /// just below `u32::MAX` must survive the wrap: the wrap clears every
    /// stamp array (otherwise stale entries from epoch `k` would read as
    /// valid once the counter cycles back to `k`), and propagations across
    /// the wrap must match a fresh workspace bit for bit.
    #[test]
    fn epoch_wraparound_clears_stamps() {
        let topo = topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (2, 3, PeerToPeer),
        ]);
        let net = SimNet::new(&topo);
        let o = topo.index_of(AsId::new(4)).unwrap();
        let a = topo.index_of(AsId::new(3)).unwrap();
        let policy = PolicyConfig::paper();
        let ctx = FilterContext::none();

        let mut ws = Workspace::new();
        // Prime the arrays at a normal epoch, then push the counter to the
        // edge so the next begin() lands on u32::MAX and the one after
        // wraps to 0 (which begin() must remap to a cleared epoch 1).
        let first = propagate(&net, &[o], &ctx, &policy, &mut ws, &mut NullObserver);
        ws.epoch = u32::MAX - 1;
        let at_max = propagate(&net, &[o, a], &ctx, &policy, &mut ws, &mut NullObserver);
        assert_eq!(ws.epoch, u32::MAX);
        let wrapped = propagate(&net, &[o], &ctx, &policy, &mut ws, &mut NullObserver);
        assert_eq!(ws.epoch, 1, "wrap must land on cleared epoch 1");

        // Every stamp array was cleared at the wrap, so the only valid
        // stamps afterwards belong to the post-wrap run.
        assert!(ws.best_epoch.iter().all(|&e| e <= 1));
        assert!(ws.adj_epoch.iter().all(|&e| e <= 1));
        assert!(ws.sent_epoch.iter().all(|&e| e <= 1));
        assert!(ws.last_export_epoch.iter().all(|&e| e <= 1));
        assert!(ws.dirty_tag.iter().all(|&t| (t >> 32) <= 1));

        // Results across the wrap match fresh workspaces exactly.
        let fresh_dual = propagate(
            &net,
            &[o, a],
            &ctx,
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        assert_eq!(at_max.choices(), fresh_dual.choices());
        assert_eq!(at_max.stats(), fresh_dual.stats());
        assert_eq!(wrapped.choices(), first.choices());
        assert_eq!(wrapped.stats(), first.stats());
    }

    /// The snapshot freezes exactly the converged state: bests mirror the
    /// returned choices, and a workspace reused afterwards does not
    /// disturb the frozen copy.
    #[test]
    fn snapshot_mirrors_converged_state() {
        let topo = topology_from_triples(&[(1, 2, ProviderToCustomer), (1, 3, ProviderToCustomer)]);
        let net = SimNet::new(&topo);
        let o = topo.index_of(AsId::new(3)).unwrap();
        let mut ws = Workspace::new();
        let p = propagate(
            &net,
            &[o],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            &mut ws,
            &mut NullObserver,
        );
        let snap = ws.snapshot(&net);
        assert_eq!(snap.num_ases(), net.num_ases());
        assert_eq!(snap.num_slots(), net.num_slots());
        for i in 0..net.num_ases() {
            let ix = AsIndex::new(i as u32);
            match (p.choice(ix), snap.best(i as u32)) {
                (Some(c), Some(b)) => {
                    assert_eq!(c.origin.raw(), b.origin);
                    assert_eq!(c.len, b.len);
                    assert_eq!(c.class.as_u8(), b.class);
                }
                (None, b) => assert!(b.is_none() || b.expect("checked").origin == NONE),
                (Some(_), None) => panic!("choice without snapshot best at {ix}"),
            }
        }
    }

    /// The packed snapshot must round-trip every engine table bit for bit:
    /// adjacency entries, sent flags, selections *including the
    /// reconstituted key*, and last-export memos — under both the standard
    /// and the tier-1 key encodings, and for a forged seed (the
    /// `u64::MAX` key tag).
    #[test]
    fn packed_snapshot_round_trips_engine_state() {
        let topo = topology_from_triples(&[
            (1, 2, PeerToPeer),
            (1, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (4, 5, ProviderToCustomer),
        ]);
        let net = SimNet::new(&topo);
        let o = topo.index_of(AsId::new(5)).unwrap();
        let a = topo.index_of(AsId::new(3)).unwrap();
        for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
            let mut ws = Workspace::new();
            let announcements = [Announcement::honest(o), Announcement::forged(a, o)];
            propagate_announcements(
                &net,
                &announcements,
                &FilterContext::none(),
                &policy,
                &mut ws,
                &mut NullObserver,
            );
            let snap = ws.snapshot(&net);
            for i in 0..net.num_ases() as u32 {
                assert_eq!(snap.best(i), RibState::best(&ws, i), "best {i}");
                assert_eq!(
                    snap.last_export(i),
                    RibState::last_export(&ws, i),
                    "last_export {i}"
                );
            }
            for s in 0..net.num_slots() as u32 {
                assert_eq!(snap.adj(s), RibState::adj(&ws, s), "adj {s}");
                assert_eq!(snap.sent(s), RibState::sent(&ws, s), "sent {s}");
            }
            assert!(snap.heap_bytes() > 0);
        }
    }
}
