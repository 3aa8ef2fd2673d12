//! Incremental re-convergence by race replay (§IV sweep accelerator).
//!
//! The paper's §IV measurement re-runs a two-origin propagation for every
//! (attacker, target) pair — tens of thousands of full simulations per
//! figure, each repeating the *same* honest convergence of the target's
//! announcement while the attacker's routes perturb only a fraction of the
//! network. This module factors the repetition out without changing a
//! single delivered message:
//!
//! 1. [`Baseline::build`] runs the honest propagation **once**, freezing
//!    both the converged per-AS state (`RibSnapshot`) and the complete
//!    per-generation message schedule (the race log).
//! 2. [`propagate_delta`] re-runs the race with the attacker's
//!    announcement added, but simulates live only the *contamination
//!    cone*: ASes whose message stream differs from the recorded honest
//!    schedule. Everything outside the cone provably evolves exactly as in
//!    the baseline, so its work — the bulk of the race — is skipped and
//!    its final state is read from the snapshot.
//!
//! # Equivalence guarantee
//!
//! Delta results are bit-identical to a from-scratch propagation of the
//! combined announcement set — **by construction**, not merely where the
//! stable solution is unique. The argument: the engine's race is a
//! deterministic synchronous process, and within one generation the
//! post-delivery state of an AS depends only on the *set* of messages it
//! received (each directed edge carries at most one message per
//! generation, and selection keys are total orders). An AS is recruited
//! into the cone the moment its generation-`g` message set deviates from
//! the recorded schedule — a cone member's exports are compared
//! content-and-path against the log, so equal re-exports do not recruit.
//! On recruitment the AS's exact race state at generation `g` is
//! reconstructed by replaying its recorded message history, after which it
//! runs live through the *same* `deliver`/`export_from` mechanics as a
//! full run. By induction, every AS ends in exactly the state the full
//! race would give it. The root package's `differential` test pins the
//! bit-level agreement (choices and polluted sets) across origin,
//! sub-prefix and forged-origin injections under all filter contexts.
//!
//! This construction matters because the paper policy's tier-1
//! shortest-path rule breaks Gao-Rexford uniqueness: rare topologies
//! (sibling-laundered customer routes racing a shorter provider path)
//! have several stable solutions, and "inject after convergence" would
//! land in a different one than the simultaneous race. Replaying the
//! schedule keeps the timing — and therefore the outcome — identical.
//!
//! # Leaf deferral
//!
//! A *leaf* ([`SimNet::is_leaf`]: no customers, no siblings, not a tier-1
//! — 85 % of the standard lab) learns only peer- and provider-class
//! routes, which [`may_export`] sends to nobody, so unless it announces
//! the prefix itself its Adj-RIB-In can influence no other AS. The replay
//! therefore never steps such a leaf: when a deviating message would
//! recruit one it is only noted, nothing is delivered to it, and after the
//! loop ends `settle_leaves` gives it its selection in closed form —
//! the best admissible export among its neighbours' *final* selections
//! (overlay for cone members, snapshot otherwise). That is exact, not
//! approximate: the engine's last-export memo is keyed on route identity
//! (triple *and* path node, see `engine::generation`), which guarantees
//! that at convergence every AS's last export phase carried its final
//! selection — `tests/semantics.rs`
//! (`path_change_under_an_unchanged_triple_is_reannounced`) pins it — so
//! each slot of the leaf's table holds precisely what that neighbour's
//! final selection exports (or nothing), filtered by tests that depend
//! only on the two ASes and the origin; and the engine keeps
//! `best == rescan(table)` under a total order of keys, so the arrival
//! order the replay skipped cannot matter. No timing argument is
//! involved, which is why the multistable topologies above are covered
//! too. A leaf that announces — an injection's announcer, or a baseline
//! origin such as a stub target — is not deferred: the former is replayed
//! like any cone member, the latter keeps its seeded route whatever it
//! hears and is skipped.
//!
//! The closed form presumes a converged race. If the baseline was
//! truncated by [`PolicyConfig::max_generations`] deferral is off, and if
//! the replay itself truncates the attack is replayed a second time with
//! every leaf stepped, so truncated outcomes stay bit-identical to the
//! generation engine's as well.
//!
//! [`ConvergenceStats`] and per-message [`Observer`] events are *not* part
//! of the guarantee: a delta run steps, counts and reports only the
//! messages it actually processed — deliveries into the cone, deferred
//! leaves excluded — which is the point of the exercise. (A run replayed
//! twice after truncating reports the stepped events of both passes and
//! the stats of the second.) [`Observer::on_converged`] fires once.
//!
//! # Budgeted replay
//!
//! Replay cost grows with the cone — every recruit reconstructs an AS's
//! race state from its recorded history, then steps its messages — while a
//! from-scratch race solve costs the same whatever the attack. Under a
//! weak deployment a sizeable minority of attackers contaminate thousands
//! of ASes and the replay loses to the solve two- to fourfold.
//! [`propagate_delta_budgeted`] therefore takes a cone budget and gives up
//! (`None`) the moment the cone would outgrow it, checked once per
//! generation *before* that generation's recruits are reconstructed; the
//! caller finishes the attack on the race solver. An abandoned replay
//! reports nothing but the per-message events it had already stepped —
//! "work stepped", like the twice-replayed truncation case above — and
//! [`Observer::on_converged`] does not fire. A replay that completes is
//! the unbudgeted replay bit for bit.
//!
//! # Sharing
//!
//! A [`Baseline`] is immutable and `Sync`: one baseline per sweep target
//! is shared read-only across rayon workers, each worker holding its own
//! [`DeltaWorkspace`] (epoch-stamped like [`Workspace`], so back-to-back
//! attackers on one worker reuse the overlay arrays without clearing).

use bgpsim_topology::AsIndex;

use crate::engine::generation::{
    self, deliver, export_from, key_for, rescan, seed_announcement, AdjEntry, Announcement, Best,
    Msg, PathNode, Queues, RaceLog, RibSnapshot, RibState, RouteId, Workspace, NONE, NO_ROUTE,
    NO_ROUTE_ID,
};
use crate::filter::FilterContext;
use crate::net::{checked_u32, SimNet};
use crate::observer::{Decision, MessageEvent, NullObserver, Observer};
use crate::policy::{may_export, PolicyConfig, PrefClass};
use crate::route::{Choice, ConvergenceStats, Propagation};

/// Default cone budget of a budgeted replay, as a fraction of the network:
/// [`propagate_delta_budgeted`]'s caller passes `num_ases /` this, so a
/// replay is abandoned once its cone passes one sixteenth of the ASes.
///
/// Measured, not derived (EXPERIMENTS.md, "Cone budget sweep"): the total
/// over a figs. 5–6 progression is flat within 3 % from `n/16` to `n/64`
/// on both the 10k and the 42.7k lab, and too small is the wrong side to
/// err on — a tight budget sends mid-size cones, which a replay still
/// wins, to the race solver.
pub const DEFAULT_CONE_BUDGET_DIVISOR: usize = 16;

/// Generation budget of the packed log words: 13 bits. Schedules that run
/// deeper cannot be packed; every shipped `PolicyConfig::max_generations`
/// preset sits orders of magnitude below this.
const MAX_PACKED_GEN: u32 = (1 << 13) - 1;

/// One baseline delivery, packed into 16 bytes (the unpacked field-per-item
/// form was 36): the receiver-side slot identifies the directed edge, so
/// the receiver, the sender and the sender-side slot are all recovered in
/// O(1) from [`SimNet`]'s slot tables instead of being stored.
#[derive(Debug, Clone, Copy, Default)]
struct PackedReplay {
    /// Receiver-side slot (its owner is the receiver; its mirror is the
    /// sender side).
    slot: u32,
    /// Announced origin; [`NONE`] encodes a withdrawal.
    origin: u32,
    /// AS-path arena node ([`NONE`] for withdrawals).
    node: u32,
    /// `gen (13) | len << 13 (16) | class << 29 (2) | removed << 31 (1)`.
    meta: u32,
}

impl PackedReplay {
    fn pack(gen: u32, msg: &Msg, removed: bool) -> PackedReplay {
        debug_assert!(gen <= MAX_PACKED_GEN && msg.class < 4);
        PackedReplay {
            slot: msg.slot,
            origin: msg.origin,
            node: msg.node,
            meta: gen
                | (u32::from(msg.len) << 13)
                | (u32::from(msg.class) << 29)
                | (u32::from(removed) << 31),
        }
    }

    #[inline]
    fn gen(self) -> u32 {
        self.meta & MAX_PACKED_GEN
    }

    #[inline]
    fn len(self) -> u16 {
        (self.meta >> 13) as u16
    }

    #[inline]
    fn class(self) -> u8 {
        ((self.meta >> 29) & 0x3) as u8
    }

    #[inline]
    fn removed(self) -> bool {
        self.meta >> 31 != 0
    }

    /// Reassembles the delivered [`Msg`] for receiver `to` — always the
    /// owner of `self.slot`, which callers walking a receiver's log range
    /// already know.
    #[inline]
    fn msg(self, to: u32) -> Msg {
        Msg {
            to,
            slot: self.slot,
            origin: self.origin,
            len: self.len(),
            class: self.class(),
            node: self.node,
        }
    }
}

/// One recorded export phase, packed into 12 bytes: the identity of the
/// exported route plus the generation the phase ran in.
#[derive(Debug, Clone, Copy, Default)]
struct ExportEntry {
    /// Exported origin ([`NONE`] for a no-route export).
    origin: u32,
    /// `gen (13) | len << 13 (16) | class << 29 (2)`.
    meta: u32,
    /// AS-path arena node of the exported best.
    node: u32,
}

impl ExportEntry {
    fn pack(gen: u32, (origin, len, class, node): RouteId) -> ExportEntry {
        debug_assert!(gen <= MAX_PACKED_GEN && class < 4);
        ExportEntry {
            origin,
            meta: gen | (u32::from(len) << 13) | (u32::from(class) << 29),
            node,
        }
    }

    #[inline]
    fn gen(self) -> u32 {
        self.meta & MAX_PACKED_GEN
    }

    #[inline]
    fn route(self) -> RouteId {
        (
            self.origin,
            (self.meta >> 13) as u16,
            ((self.meta >> 29) & 0x3) as u8,
            self.node,
        )
    }
}

/// A frozen converged propagation — state snapshot plus full message
/// schedule — reusable across many [`propagate_delta`] calls.
///
/// Build one per target and share it read-only across threads; every
/// per-attacker delta run borrows it immutably (see [`Baseline::build`]
/// for what a baseline does and does not depend on).
#[derive(Debug, Clone)]
pub struct Baseline {
    snap: RibSnapshot,
    /// Convergence counters of the frozen honest run. The per-AS
    /// selections themselves are *not* stored — [`Baseline::base_choice`]
    /// reconstructs each from the packed snapshot, so the old O(ASes)
    /// `Propagation` duplicate is gone from the resident footprint.
    stats: ConvergenceStats,
    policy: PolicyConfig,
    /// The authorized origin and stub-defense setting the frozen run
    /// filtered under, asserted at delta time; `None` for
    /// [`Baseline::empty`], which froze no decision and serves any context.
    filtered_under: Option<(Option<AsIndex>, bool)>,
    /// Packed delivery log, grouped by receiver: receiver `x`'s deliveries
    /// are `log[in_off[x]..in_off[x + 1]]` in delivery order (ascending
    /// generation). Grouping the log itself by receiver makes the
    /// delivery-side index implicit — there is no `in_dat` array.
    log: Vec<PackedReplay>,
    /// Last generation with recorded deliveries (0 for an empty log).
    last_gen: u32,
    /// Per-receiver offsets into `log` (see `log`). The replay loop walks
    /// ranges with per-AS cursors so each generation costs O(cone), not
    /// O(log).
    in_off: Vec<u32>,
    /// Per-sender CSR of positions in `log`, ascending generation (within
    /// one generation: ascending sender-side slot, the export-phase
    /// order).
    out_off: Vec<u32>,
    out_dat: Vec<u32>,
    /// Per-AS export phases as a CSR: AS `x`'s phases are
    /// `exp_dat[exp_off[x]..exp_off[x + 1]]`, ascending generation.
    exp_off: Vec<u32>,
    exp_dat: Vec<ExportEntry>,
}

/// Counting-sort CSR offsets for `len` items keyed by `key(i)` in `0..n`.
/// The length is checked up front: a schedule outgrowing the u32 index
/// space fails loudly instead of silently wrapping into corrupt indices.
fn csr_offsets(n: usize, len: usize, key: impl Fn(usize) -> u32) -> Vec<u32> {
    checked_u32(len, "CSR-indexed schedule length");
    let mut off = vec![0u32; n + 1];
    for i in 0..len {
        off[key(i) as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    off
}

impl Baseline {
    /// Runs `announcements` to convergence from scratch (through the
    /// caller's reusable `ws`), freezing the converged state and the full
    /// message schedule.
    ///
    /// A baseline depends on (`net`, `policy`, `announcements`,
    /// `filters.authorized_origin`, `filters.stub_defense`) — the frozen
    /// state and log embed this run's preference keys and stub-filter
    /// decisions — and delta runs must agree on all of them: `policy`, the
    /// authorized origin and the stub defense are recorded here and
    /// asserted at delta time, the rest is the caller's responsibility.
    /// It does **not** depend on `filters.validators` as long as every
    /// announcement claims the authorized origin: origin validation
    /// rejects only other origins, so no validator ever drops a message of
    /// this run. One honest baseline per target therefore serves every
    /// deployment of validators a sweep or a stream walks through.
    ///
    /// # Panics
    ///
    /// Propagates the panics of
    /// [`propagate_announcements`](crate::propagate_announcements) (empty
    /// announcements, duplicate announcers, indices out of range).
    pub fn build(
        net: &SimNet<'_>,
        announcements: &[Announcement],
        filters: &FilterContext<'_>,
        policy: &PolicyConfig,
        ws: &mut Workspace,
    ) -> Baseline {
        let mut race = RaceLog::default();
        let result = generation::propagate_recorded(
            net,
            announcements,
            filters,
            policy,
            ws,
            &mut NullObserver,
            Some(&mut race),
        );
        let n = net.num_ases();
        let deliveries = &race.deliveries;
        let last_gen = deliveries.last().map_or(0, |d| d.gen);
        // Both recorders emit ascending generations, so the last entry
        // carries the maximum (exports can reach one past `last_gen`).
        let max_gen = race
            .exports
            .last()
            .map_or(last_gen, |e| e.gen.max(last_gen));
        assert!(
            max_gen <= MAX_PACKED_GEN,
            "schedule reached generation {max_gen}, beyond the packed 13-bit \
             budget ({MAX_PACKED_GEN}); lower policy.max_generations"
        );
        // Receiver-grouped packed log: stable counting sort by receiver,
        // remembering each delivery's sorted position (`perm`) so the
        // sender-side index below preserves the original per-sender order
        // (ascending generation, then ascending sender-side slot).
        let in_off = csr_offsets(n, deliveries.len(), |i| deliveries[i].msg.to);
        let mut cur = in_off.clone();
        let mut log = vec![PackedReplay::default(); deliveries.len()];
        let mut perm = vec![0u32; deliveries.len()];
        for (i, d) in deliveries.iter().enumerate() {
            let c = &mut cur[d.msg.to as usize];
            perm[i] = *c;
            log[*c as usize] = PackedReplay::pack(d.gen, &d.msg, d.removed);
            *c += 1;
        }
        let sender_of = |i: usize| {
            net.owner_of_slot(net.reverse_slot(deliveries[i].msg.slot))
                .raw()
        };
        let out_off = csr_offsets(n, deliveries.len(), sender_of);
        let mut cur = out_off.clone();
        let mut out_dat = vec![0u32; deliveries.len()];
        for i in 0..deliveries.len() {
            let c = &mut cur[sender_of(i) as usize];
            out_dat[*c as usize] = perm[i];
            *c += 1;
        }
        // Export phases, CSR-packed the same way (stable by AS, ascending
        // generation within each).
        let exports = &race.exports;
        let exp_off = csr_offsets(n, exports.len(), |i| exports[i].asn);
        let mut cur = exp_off.clone();
        let mut exp_dat = vec![ExportEntry::default(); exports.len()];
        for e in exports {
            let c = &mut cur[e.asn as usize];
            exp_dat[*c as usize] = ExportEntry::pack(e.gen, e.route);
            *c += 1;
        }
        Baseline {
            snap: ws.snapshot(net),
            stats: result.stats(),
            policy: *policy,
            filtered_under: Some((filters.authorized_origin, filters.stub_defense)),
            log,
            last_gen,
            in_off,
            out_off,
            out_dat,
            exp_off,
            exp_dat,
        }
    }

    /// The converged state of *zero* announcements: every table empty, no
    /// recorded schedule. A delta run from it is exactly a from-scratch
    /// propagation of the injected announcements (useful for sub-prefix
    /// hijacks, where the bogus more-specific prefix has no honest
    /// competition to race against).
    pub fn empty(net: &SimNet<'_>, policy: &PolicyConfig) -> Baseline {
        let n = net.num_ases();
        Baseline {
            snap: RibSnapshot::empty(net),
            stats: ConvergenceStats::default(),
            policy: *policy,
            filtered_under: None,
            log: Vec::new(),
            last_gen: 0,
            in_off: vec![0; n + 1],
            out_off: vec![0; n + 1],
            out_dat: Vec::new(),
            exp_off: vec![0; n + 1],
            exp_dat: Vec::new(),
        }
    }

    /// The baseline selection of `ix`, reconstructed from the packed
    /// snapshot (the frozen `best` entry plus the slot→neighbor map).
    pub(crate) fn base_choice(&self, net: &SimNet<'_>, ix: AsIndex) -> Option<Choice> {
        let b = self.snap.best(ix.raw())?;
        if b.origin == NONE {
            return None;
        }
        Some(Choice {
            origin: AsIndex::new(b.origin),
            learned_from: if b.slot == NONE {
                None
            } else {
                Some(net.slot_entry(ix, b.slot).index)
            },
            len: b.len,
            class: PrefClass::from_u8(b.class),
        })
    }

    /// Materializes the converged honest propagation this baseline froze
    /// (O(ASes)). The selections are rebuilt from the packed snapshot —
    /// they are not kept resident.
    pub fn propagation(&self, net: &SimNet<'_>) -> Propagation {
        let choices = (0..net.num_ases())
            .map(|i| self.base_choice(net, AsIndex::new(i as u32)))
            .collect();
        Propagation::new(choices, self.stats)
    }

    /// Resident heap footprint of this baseline in bytes: the packed
    /// snapshot tables plus the packed delivery schedule with its CSR
    /// indices and the export log. Computed from vector capacities, so it
    /// reflects what the allocator actually holds.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.snap.heap_bytes()
            + self.log.capacity() * size_of::<PackedReplay>()
            + self.exp_dat.capacity() * size_of::<ExportEntry>()
            + (self.in_off.capacity()
                + self.out_off.capacity()
                + self.out_dat.capacity()
                + self.exp_off.capacity())
                * size_of::<u32>()
    }
}

const TOMBSTONE: AdjEntry = AdjEntry {
    origin: NONE,
    len: 0,
    class: 0,
    node: NONE,
};

/// Reusable scratch buffers for the replay loop, owned separately from
/// the overlay arrays so the loop can hold `&mut` to both at once.
#[derive(Debug, Default)]
struct ReplayScratch {
    /// This generation's live exports as `(sender_side_slot, msg)`,
    /// grouped per sender (ranges recorded in the workspace), ascending
    /// slot within a group.
    live: Vec<(u32, Msg)>,
    /// Live messages matched against an identical log entry (not
    /// re-delivered; the log copy is).
    consumed: Vec<bool>,
    recruits: Vec<u32>,
}

/// Per-thread scratch state for [`propagate_delta`]: a copy-on-write
/// overlay over a [`Baseline`]'s frozen tables.
///
/// Reads fall through to the baseline until the delta run writes a cell;
/// epoch stamps (as in [`Workspace`]) invalidate all overlay writes at the
/// next run without clearing, so a sweep's thousands of attacker runs cost
/// no per-run memset. Create one per rayon worker.
#[derive(Debug, Default)]
pub struct DeltaWorkspace {
    epoch: u32,
    adj: Vec<AdjEntry>,
    adj_stamp: Vec<u32>,
    sent: Vec<bool>,
    sent_stamp: Vec<u32>,
    best: Vec<Best>,
    best_stamp: Vec<u32>,
    last_export: Vec<RouteId>,
    last_export_stamp: Vec<u32>,
    dirty_tag: Vec<u64>,
    /// Extension of the baseline's AS-path arena; node index
    /// `baseline.arena.len() + i` resolves here, so delta paths chain into
    /// frozen baseline paths without copying them.
    arena: Vec<PathNode>,
    /// ASes recruited into the cone (selection recorded) this run, in
    /// recruitment order; settled leaves follow the replayed members.
    touched: Vec<u32>,
    /// Leaves a deviating message reached this run, awaiting
    /// [`settle_leaves`] (deduplicated by `deferred_stamp`).
    deferred: Vec<u32>,
    deferred_stamp: Vec<u32>,
    /// Per-AS cursor into the baseline's receiver-grouped `log` /
    /// sender-side `out_dat` CSR — only meaningful for cone members
    /// (written on recruitment), so no stamps.
    in_cur: Vec<u32>,
    out_cur: Vec<u32>,
    /// Per-AS range of this generation's live exports in the scratch
    /// buffer, valid when `live_tag` matches `(epoch, generation)`.
    live_lo: Vec<u32>,
    live_hi: Vec<u32>,
    live_tag: Vec<u64>,
    /// Per-log-entry "invalidated this run" stamp (baseline-log sized).
    tomb_stamp: Vec<u32>,
    queues: Queues,
    scratch: ReplayScratch,
}

impl DeltaWorkspace {
    /// Creates an empty workspace; arrays are sized on first use.
    pub fn new() -> DeltaWorkspace {
        DeltaWorkspace::default()
    }

    fn begin(&mut self, baseline: &Baseline) {
        let n = baseline.snap.num_ases();
        let slots = baseline.snap.num_slots();
        if self.best.len() < n {
            self.best.resize(n, NO_ROUTE);
            self.best_stamp.resize(n, 0);
            self.last_export.resize(n, NO_ROUTE_ID);
            self.last_export_stamp.resize(n, 0);
            self.dirty_tag.resize(n, 0);
            self.deferred_stamp.resize(n, 0);
            self.in_cur.resize(n, 0);
            self.out_cur.resize(n, 0);
            self.live_lo.resize(n, 0);
            self.live_hi.resize(n, 0);
            self.live_tag.resize(n, 0);
        }
        if self.adj.len() < slots {
            self.adj.resize(slots, TOMBSTONE);
            self.adj_stamp.resize(slots, 0);
            self.sent.resize(slots, false);
            self.sent_stamp.resize(slots, 0);
        }
        if self.tomb_stamp.len() < baseline.log.len() {
            self.tomb_stamp.resize(baseline.log.len(), 0);
        }
        // Epoch 0 marks "never used"; on wrap, clear all stamps.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.adj_stamp.fill(0);
            self.sent_stamp.fill(0);
            self.best_stamp.fill(0);
            self.last_export_stamp.fill(0);
            self.dirty_tag.fill(0);
            self.deferred_stamp.fill(0);
            self.live_tag.fill(0);
            self.tomb_stamp.fill(0);
            self.epoch = 1;
        }
        self.arena.clear();
        self.touched.clear();
        self.deferred.clear();
        self.queues.dirty.clear();
        self.queues.cur.clear();
        self.queues.next.clear();
    }
}

/// The overlay view the replay loop runs over: writes go to the
/// [`DeltaWorkspace`], reads fall through to the frozen snapshot. Cone
/// membership is `best_stamp` — every recruitment records a selection.
struct DeltaState<'a> {
    snap: &'a RibSnapshot,
    ws: &'a mut DeltaWorkspace,
    /// Length of the baseline arena: the boundary between frozen and
    /// extension path nodes.
    arena_base: u32,
    /// Whether leaves are set aside for [`settle_leaves`] instead of being
    /// recruited (see the module docs, "Leaf deferral").
    defer: bool,
}

impl DeltaState<'_> {
    #[inline]
    fn in_cone(&self, ix: u32) -> bool {
        self.ws.best_stamp[ix as usize] == self.ws.epoch
    }

    /// The message stream of out-of-cone `to` deviates from the schedule
    /// this generation: queue it for recruitment — or, for a leaf under
    /// deferral, only note it for [`settle_leaves`] and report `true` so the
    /// caller drops the message instead of delivering it.
    fn deviates(&mut self, net: &SimNet<'_>, to: u32, recruits: &mut Vec<u32>) -> bool {
        if !(self.defer && net.is_leaf(AsIndex::new(to))) {
            recruits.push(to);
            return false;
        }
        if self.ws.deferred_stamp[to as usize] != self.ws.epoch {
            self.ws.deferred_stamp[to as usize] = self.ws.epoch;
            self.ws.deferred.push(to);
        }
        true
    }

    /// Whether a live message's payload matches a logged delivery,
    /// including the full AS-path chain (triples can coincide across
    /// different paths, and paths drive downstream loop checks).
    fn msg_matches(&self, a: &Msg, e: PackedReplay) -> bool {
        if (a.origin, a.len, a.class) != (e.origin, e.len(), e.class()) {
            return false;
        }
        let (mut x, mut y) = (a.node, e.node);
        while x != NONE && y != NONE {
            if x == y {
                return true; // identical shared suffix
            }
            let (px, py) = (self.node(x), self.node(y));
            if px.asn != py.asn {
                return false;
            }
            x = px.parent;
            y = py.parent;
        }
        x == y
    }
}

impl RibState for DeltaState<'_> {
    #[inline]
    fn adj(&self, slot: u32) -> Option<AdjEntry> {
        if self.ws.adj_stamp[slot as usize] == self.ws.epoch {
            let e = self.ws.adj[slot as usize];
            (e.origin != NONE).then_some(e)
        } else {
            self.snap.adj(slot)
        }
    }

    #[inline]
    fn set_adj(&mut self, slot: u32, e: AdjEntry) {
        self.ws.adj[slot as usize] = e;
        self.ws.adj_stamp[slot as usize] = self.ws.epoch;
    }

    #[inline]
    fn clear_adj(&mut self, slot: u32) -> bool {
        let had = self.adj(slot).is_some();
        self.ws.adj[slot as usize] = TOMBSTONE;
        self.ws.adj_stamp[slot as usize] = self.ws.epoch;
        had
    }

    #[inline]
    fn best(&self, ix: u32) -> Option<Best> {
        if self.ws.best_stamp[ix as usize] == self.ws.epoch {
            Some(self.ws.best[ix as usize])
        } else {
            self.snap.best(ix)
        }
    }

    #[inline]
    fn set_best(&mut self, ix: u32, b: Best) {
        if self.ws.best_stamp[ix as usize] != self.ws.epoch {
            self.ws.best_stamp[ix as usize] = self.ws.epoch;
            self.ws.touched.push(ix);
        }
        self.ws.best[ix as usize] = b;
    }

    #[inline]
    fn sent(&self, slot: u32) -> bool {
        if self.ws.sent_stamp[slot as usize] == self.ws.epoch {
            self.ws.sent[slot as usize]
        } else {
            self.snap.sent(slot)
        }
    }

    #[inline]
    fn set_sent(&mut self, slot: u32, on: bool) {
        self.ws.sent[slot as usize] = on;
        self.ws.sent_stamp[slot as usize] = self.ws.epoch;
    }

    #[inline]
    fn last_export(&self, ix: u32) -> Option<RouteId> {
        if self.ws.last_export_stamp[ix as usize] == self.ws.epoch {
            Some(self.ws.last_export[ix as usize])
        } else {
            self.snap.last_export(ix)
        }
    }

    #[inline]
    fn set_last_export(&mut self, ix: u32, id: RouteId) {
        self.ws.last_export[ix as usize] = id;
        self.ws.last_export_stamp[ix as usize] = self.ws.epoch;
    }

    #[inline]
    fn node(&self, node: u32) -> PathNode {
        if node < self.arena_base {
            self.snap.arena[node as usize]
        } else {
            self.ws.arena[(node - self.arena_base) as usize]
        }
    }

    #[inline]
    fn push_node(&mut self, pn: PathNode) -> u32 {
        let i = self.arena_base + self.ws.arena.len() as u32;
        self.ws.arena.push(pn);
        i
    }

    #[inline]
    fn try_mark_dirty(&mut self, ix: u32, wave: u32) -> bool {
        let tag = ((self.ws.epoch as u64) << 32) | wave as u64;
        if self.ws.dirty_tag[ix as usize] != tag {
            self.ws.dirty_tag[ix as usize] = tag;
            true
        } else {
            false
        }
    }
}

/// Reconstructs AS `x`'s exact race state as of the moment generation
/// `g`'s messages are about to be delivered, and enters it into the cone:
/// Adj-RIB-In from its recorded delivery history (generations `< g`),
/// selection by re-scan (origins keep their seeded route), last-export
/// memo and outstanding-announcement flags from its recorded export
/// history (generations `<= g` — the export phase that produced
/// generation `g`'s messages has already run).
fn recruit(
    net: &SimNet<'_>,
    baseline: &Baseline,
    policy: &PolicyConfig,
    state: &mut DeltaState<'_>,
    x: u32,
    g: u32,
) {
    let xi = AsIndex::new(x);
    for slot in net.slots_of(xi) {
        state.ws.adj[slot as usize] = TOMBSTONE;
        state.ws.adj_stamp[slot as usize] = state.ws.epoch;
        state.ws.sent[slot as usize] = false;
        state.ws.sent_stamp[slot as usize] = state.ws.epoch;
    }
    let mut ic = baseline.in_off[x as usize];
    let in_hi = baseline.in_off[x as usize + 1];
    while ic < in_hi {
        let e = baseline.log[ic as usize];
        if e.gen() >= g {
            break;
        }
        ic += 1;
        if e.removed() {
            state.ws.adj[e.slot as usize] = TOMBSTONE;
        } else {
            // Stored class is the *receiver-side* classification (the
            // logged message carries the sender-side one), exactly as
            // `deliver` computes it.
            let rel = net.slot_entry(xi, e.slot).rel;
            let class = match PrefClass::from_sender_rel(rel) {
                Some(c) => c.as_u8(),
                None => e.class(), // sibling: inherit
            };
            state.ws.adj[e.slot as usize] = AdjEntry {
                origin: e.origin,
                len: e.len(),
                class,
                node: e.node,
            };
        }
    }
    state.ws.in_cur[x as usize] = ic;
    let mut oc = baseline.out_off[x as usize];
    let out_hi = baseline.out_off[x as usize + 1];
    while oc < out_hi {
        let e = baseline.log[baseline.out_dat[oc as usize] as usize];
        if e.gen() > g {
            break;
        }
        oc += 1;
        state.ws.sent[net.reverse_slot(e.slot) as usize] = e.origin != NONE;
    }
    state.ws.out_cur[x as usize] = oc;
    // Origins keep their seeded self-route (constant through the race);
    // everyone else selects by re-scanning the reconstructed table. The
    // memo is the route identity the last recorded export phase carried:
    // its node indexes the frozen arena, exactly like the nodes of the
    // reconstructed table, so "same path as last exported" compares as it
    // did in the recorded race. The `NO_ROUTE_ID` sentinel is safe: it
    // only ever coincides with a no-route export phase, which emits
    // nothing an AS that never exported could need to emit (all its sent
    // flags are false).
    let b = match baseline.snap.best(x) {
        Some(b) if b.slot == NONE && b.origin != NONE => b,
        _ => {
            let tier1 = policy.tier1_shortest_path && net.is_tier1(xi);
            rescan(net, state, xi, tier1).unwrap_or(NO_ROUTE)
        }
    };
    state.set_best(x, b);
    let mut le = NO_ROUTE_ID;
    for ei in baseline.exp_off[x as usize]..baseline.exp_off[x as usize + 1] {
        let e = baseline.exp_dat[ei as usize];
        if e.gen() > g {
            break;
        }
        le = e.route();
    }
    state.set_last_export(x, le);
}

/// Re-runs the race with `injections` added, simulating only the
/// contamination cone against the baseline's recorded schedule. See the
/// module docs for the bit-identity argument.
///
/// `policy` must be the baseline's, and `filters` must agree with the
/// context it was built under on the authorized origin and on stub
/// defense (all three asserted); the validator set is free to differ (see
/// [`Baseline::build`]).
///
/// This is the unbudgeted replay: it always runs to the end, whatever the
/// cone grows to. [`propagate_delta_budgeted`] is the form that gives up.
/// Two names for one algorithm only because the frozen benchmark harness
/// calls this signature; the two fold back into one, and this wrapper
/// goes, when the harness can move (ROADMAP item 1 (v)).
///
/// # Panics
///
/// Panics if `injections` is empty or contains an announcer that already
/// originates (among the injections or in the baseline), if any index is
/// out of range, if `policy`, `filters.authorized_origin` or
/// `filters.stub_defense` differs from the baseline's, or if the baseline
/// was built for a differently-sized network.
pub fn propagate_delta<'r, 't, O: Observer>(
    net: &'r SimNet<'t>,
    baseline: &'r Baseline,
    injections: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    dws: &'r mut DeltaWorkspace,
    obs: &mut O,
) -> DeltaResult<'r, 't> {
    propagate_delta_budgeted(net, baseline, injections, filters, policy, dws, None, obs)
        .expect("a replay without a budget is never abandoned")
}

/// [`propagate_delta`] under a cone budget: the replay is abandoned —
/// `None`, the mirror of [`solve_race`](crate::solve_race)'s
/// `max_rounds → None` — as soon as its cone would outgrow `budget` ASes.
/// A replay pays per cone member (state reconstruction on recruitment,
/// then every message stepped), so past a few percent of the network a
/// from-scratch race solve is cheaper; the caller finishes an abandoned
/// attack there (`bgpsim_hijack::Simulator` passes `num_ases /`
/// [`DEFAULT_CONE_BUDGET_DIVISOR`]).
///
/// The cone is counted as replayed members plus deferred leaves plus the
/// ASes about to be recruited, once per generation and *before* they are
/// recruited: cones jump from hundreds to thousands inside one generation,
/// and reconstruction is the expensive part. A replay that returns `Some`
/// is the unbudgeted replay bit for bit — the budget only ever decides
/// whether to stop. An abandoned one reports nothing but the per-message
/// observer events it had already stepped: no [`Observer::on_converged`],
/// no result. The workspace is reusable afterwards like after any run.
///
/// With `budget == None` nothing is ever abandoned. Neither is a replay
/// over a baseline truncated by [`PolicyConfig::max_generations`], nor the
/// second pass of a replay that truncated itself (module docs, "Leaf
/// deferral"): the solver that would finish them does not model
/// truncation.
///
/// # Panics
///
/// As [`propagate_delta`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_delta_budgeted<'r, 't, O: Observer>(
    net: &'r SimNet<'t>,
    baseline: &'r Baseline,
    injections: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    dws: &'r mut DeltaWorkspace,
    budget: Option<usize>,
    obs: &mut O,
) -> Option<DeltaResult<'r, 't>> {
    assert!(!injections.is_empty(), "at least one injection required");
    assert_eq!(
        *policy, baseline.policy,
        "delta policy must match the baseline's"
    );
    if let Some(built) = baseline.filtered_under {
        assert_eq!(
            (filters.authorized_origin, filters.stub_defense),
            built,
            "delta authorized origin and stub defense must match the baseline's"
        );
    }
    assert_eq!(
        (baseline.snap.num_ases(), baseline.snap.num_slots()),
        (net.num_ases(), net.num_slots()),
        "baseline was built for a different network"
    );
    // Leaf deferral's closed form holds for a converged race only: a
    // truncated one is replayed again with every leaf stepped. The budget
    // follows the same rule.
    let defer = !baseline.stats.truncated;
    let budget = budget.filter(|_| defer);
    let mut stats = replay_once(
        net, baseline, injections, filters, policy, dws, obs, defer, budget,
    )?;
    if defer && stats.truncated {
        stats = replay_once(
            net, baseline, injections, filters, policy, dws, obs, false, None,
        )
        .expect("a replay without a budget is never abandoned");
    }
    obs.on_converged(&stats);
    Some(DeltaResult {
        net,
        baseline,
        dws: &*dws,
        stats,
    })
}

/// One pass of [`propagate_delta`] over a freshly begun workspace: seed the
/// injections, replay the race, and — with `defer` — settle the leaves the
/// replay set aside. `None` when the cone outgrew `budget`.
#[allow(clippy::too_many_arguments)]
fn replay_once<O: Observer>(
    net: &SimNet<'_>,
    baseline: &Baseline,
    injections: &[Announcement],
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    dws: &mut DeltaWorkspace,
    obs: &mut O,
    defer: bool,
    budget: Option<usize>,
) -> Option<ConvergenceStats> {
    dws.begin(baseline);
    let mut stats = ConvergenceStats::default();
    let mut q = std::mem::take(&mut dws.queues);
    let mut sc = std::mem::take(&mut dws.scratch);
    let completed = {
        let mut state = DeltaState {
            snap: &baseline.snap,
            ws: &mut *dws,
            arena_base: baseline.snap.arena.len() as u32,
            defer,
        };
        for a in injections {
            let o = a.announcer;
            assert!(o.usize() < net.num_ases(), "origin {o} out of range");
            if !state.in_cone(o.raw()) {
                // Race state at generation 0: empty tables (an announcer
                // that is a baseline origin keeps its seeded route and
                // trips the duplicate check in `seed_announcement`).
                recruit(net, baseline, policy, &mut state, o.raw(), 0);
            }
            seed_announcement(net, &mut state, &mut q, a);
        }
        let completed = replay(
            net, baseline, filters, policy, &mut state, &mut q, &mut sc, &mut stats, obs, budget,
        );
        if completed && !stats.truncated {
            settle_leaves(net, filters, &mut state);
        }
        completed
    };
    dws.queues = q;
    dws.scratch = sc;
    completed.then_some(stats)
}

/// Settles every deferred leaf in closed form. A leaf's Adj-RIB-In feeds
/// no other AS, and at convergence each of its slots holds exactly its
/// neighbour's last export, so its selection is the best admissible export
/// among its neighbours' *final* selections — whatever order the messages
/// arrived in. The tests applied per neighbour are the ones [`deliver`]
/// applies per message. The loop check reduces to the origin comparison: a
/// leaf that announces nothing exports nothing, so it sits on an AS path
/// only as the claimed origin of a forgery.
fn settle_leaves(net: &SimNet<'_>, filters: &FilterContext<'_>, state: &mut DeltaState<'_>) {
    for di in 0..state.ws.deferred.len() {
        let x = state.ws.deferred[di];
        if matches!(state.snap.best(x), Some(b) if b.slot == NONE && b.origin != NONE) {
            // A baseline origin keeps its seeded route whatever it hears.
            continue;
        }
        let xi = AsIndex::new(x);
        let mut best: Option<Best> = None;
        for (slot, nb) in net.slots_of(xi).zip(net.topology().neighbors(xi)) {
            let Some(theirs) = state.best(nb.index.raw()) else {
                continue;
            };
            let origin = theirs.origin;
            if origin == NONE
                || origin == x
                || !may_export(PrefClass::from_u8(theirs.class), nb.rel.reversed())
                || filters.rejects_origin(xi, AsIndex::new(origin))
                || filters.rejects_stub(net, nb.rel, nb.index, AsIndex::new(origin))
            {
                continue;
            }
            let class = PrefClass::from_sender_rel(nb.rel).expect("a leaf has no sibling links");
            let len = theirs.len + 1;
            let key = key_for(false, class, len, slot);
            if best.is_none_or(|b| key > b.key) {
                best = Some(Best {
                    origin,
                    slot,
                    len,
                    class: class.as_u8(),
                    node: theirs.node,
                    key,
                });
            }
        }
        // The winner's path is its sender's with the sender prepended, as
        // the message would have carried it.
        if let Some(b) = &mut best {
            b.node = state.push_node(PathNode {
                asn: net.slot_entry(xi, b.slot).index.raw(),
                parent: b.node,
            });
        }
        state.set_best(x, best.unwrap_or(NO_ROUTE));
    }
}

/// The replay loop: the race's export/delivery waves, with out-of-cone
/// work elided against the baseline schedule. Per generation the loop
/// touches only cone members — their scheduled entries are reached
/// through per-AS cursors into the baseline's CSR indices, so the cost is
/// O(cone activity), independent of the size of the rest of the log.
/// Returns `false` when the cone outgrew `budget` and the replay was
/// abandoned mid-race (the state is then meaningless).
#[allow(clippy::too_many_arguments)]
fn replay<O: Observer>(
    net: &SimNet<'_>,
    baseline: &Baseline,
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    state: &mut DeltaState<'_>,
    q: &mut Queues,
    sc: &mut ReplayScratch,
    stats: &mut ConvergenceStats,
    obs: &mut O,
    budget: Option<usize>,
) -> bool {
    let mut generation = 0u32;
    loop {
        // ---- Export phase: live exports from dirty cone members. ----
        sc.live.clear();
        for di in 0..q.dirty.len() {
            let x = q.dirty[di];
            let lo = sc.live.len() as u32;
            export_from(net, state, x, &mut |islot, m| sc.live.push((islot, m)));
            state.ws.live_lo[x as usize] = lo;
            state.ws.live_hi[x as usize] = sc.live.len() as u32;
            state.ws.live_tag[x as usize] =
                ((state.ws.epoch as u64) << 32) | (generation + 1) as u64;
        }
        q.dirty.clear();

        if sc.live.is_empty() && generation >= baseline.last_gen {
            break;
        }
        generation += 1;
        if generation > policy.max_generations {
            stats.truncated = true;
            break;
        }
        stats.generations = generation;
        obs.on_generation_start(generation);

        sc.consumed.clear();
        sc.consumed.resize(sc.live.len(), false);
        sc.recruits.clear();
        let live_tag = ((state.ws.epoch as u64) << 32) | generation as u64;

        // ---- Classification: per cone member, merge-join this
        // generation's scheduled exports against its live ones (both
        // ascending by sender-side slot). A scheduled message either is
        // reproduced exactly (the schedule stands) or is invalidated
        // (tombstoned; its receiver's stream deviates, so the receiver is
        // recruited). Live messages with no scheduled counterpart recruit
        // their receivers likewise. Under deferral a leaf receiver is noted
        // for `settle_leaves` instead and its message dropped. Members
        // recruited *this* generation are not senders here: their
        // generation-`g` exports were computed from identical state, so
        // their schedule stands.
        let senders = state.ws.touched.len();
        for ti in 0..senders {
            let s = state.ws.touched[ti];
            let mut cur = state.ws.out_cur[s as usize];
            let end = baseline.out_off[s as usize + 1];
            let (mut li, lhi) = if state.ws.live_tag[s as usize] == live_tag {
                (state.ws.live_lo[s as usize], state.ws.live_hi[s as usize])
            } else {
                (0, 0)
            };
            while cur < end {
                let idx = baseline.out_dat[cur as usize] as usize;
                let e = baseline.log[idx];
                if e.gen() != generation {
                    break;
                }
                cur += 1;
                let islot = net.reverse_slot(e.slot);
                while li < lhi && sc.live[li as usize].0 < islot {
                    li += 1;
                }
                if li < lhi
                    && sc.live[li as usize].0 == islot
                    && state.msg_matches(&sc.live[li as usize].1, e)
                {
                    sc.consumed[li as usize] = true;
                    li += 1;
                } else {
                    state.ws.tomb_stamp[idx] = state.ws.epoch;
                    let to = net.owner_of_slot(e.slot).raw();
                    if !state.in_cone(to) {
                        state.deviates(net, to, &mut sc.recruits);
                    }
                }
            }
            state.ws.out_cur[s as usize] = cur;
        }
        for (li, &(_, m)) in sc.live.iter().enumerate() {
            if !sc.consumed[li] && !state.in_cone(m.to) {
                // A deferred leaf's message is dropped, not delivered.
                sc.consumed[li] = state.deviates(net, m.to, &mut sc.recruits);
            }
        }
        sc.recruits.sort_unstable();
        sc.recruits.dedup();
        // The budget check sits before the recruits are paid for:
        // reconstruction is the expensive part of a growing cone.
        let cone = state.ws.touched.len() + state.ws.deferred.len() + sc.recruits.len();
        if budget.is_some_and(|budget| cone > budget) {
            return false;
        }
        for ri in 0..sc.recruits.len() {
            let x = sc.recruits[ri];
            if !state.in_cone(x) {
                recruit(net, baseline, policy, state, x, generation);
            }
        }

        // ---- Delivery phase: each cone member's scheduled messages
        // still standing (out-of-cone receivers process theirs
        // virtually), then live messages replacing or extending the
        // schedule. Members recruited this generation receive their
        // scheduled generation-`g` messages here too.
        for ti in 0..state.ws.touched.len() {
            let x = state.ws.touched[ti];
            loop {
                let cur = state.ws.in_cur[x as usize];
                if cur >= baseline.in_off[x as usize + 1] {
                    break;
                }
                let e = baseline.log[cur as usize];
                if e.gen() != generation {
                    break;
                }
                state.ws.in_cur[x as usize] = cur + 1;
                if state.ws.tomb_stamp[cur as usize] != state.ws.epoch {
                    deliver_one(
                        net,
                        filters,
                        policy,
                        state,
                        q,
                        generation,
                        e.msg(x),
                        stats,
                        obs,
                    );
                }
            }
        }
        for li in 0..sc.live.len() {
            if !sc.consumed[li] {
                let m = sc.live[li].1;
                deliver_one(net, filters, policy, state, q, generation, m, stats, obs);
            }
        }
    }
    true
}

/// Delivers one message into the cone: the same mechanics and accounting
/// as the full engine's delivery loop.
#[allow(clippy::too_many_arguments)]
fn deliver_one<O: Observer>(
    net: &SimNet<'_>,
    filters: &FilterContext<'_>,
    policy: &PolicyConfig,
    state: &mut DeltaState<'_>,
    q: &mut Queues,
    generation: u32,
    msg: Msg,
    stats: &mut ConvergenceStats,
    obs: &mut O,
) {
    stats.messages += 1;
    let r = AsIndex::new(msg.to);
    let entry = net.slot_entry(r, msg.slot);
    let (from, rel) = (entry.index, entry.rel);
    let decision = deliver(net, filters, policy, state, q, generation, msg, rel, from);
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

/// The converged result of one delta run, borrowing the workspace (zero
/// materialization cost).
///
/// [`DeltaResult::choice`] is O(1) per AS; [`DeltaResult::touched`]
/// iterates only the cone — for hijack sweeps the polluted set is a
/// subset of it, so counting pollution is O(cone), not O(n).
/// [`DeltaResult::to_propagation`] materializes a full [`Propagation`]
/// (O(n)) when an owned result is needed.
#[derive(Debug)]
pub struct DeltaResult<'r, 't> {
    net: &'r SimNet<'t>,
    baseline: &'r Baseline,
    dws: &'r DeltaWorkspace,
    stats: ConvergenceStats,
}

impl DeltaResult<'_, '_> {
    /// The selection of `ix` after re-convergence: the cone's if this run
    /// recruited `ix`, the baseline's otherwise.
    pub fn choice(&self, ix: AsIndex) -> Option<Choice> {
        let i = ix.usize();
        if self.dws.best_stamp[i] == self.dws.epoch {
            let b = self.dws.best[i];
            if b.origin == NONE {
                return None;
            }
            Some(Choice {
                origin: AsIndex::new(b.origin),
                learned_from: if b.slot == NONE {
                    None
                } else {
                    Some(self.net.slot_entry(ix, b.slot).index)
                },
                len: b.len,
                class: PrefClass::from_u8(b.class),
            })
        } else {
            self.baseline.base_choice(self.net, ix)
        }
    }

    /// The cone: ASes whose state this run simulated live or settled as
    /// deferred leaves (a superset of the ASes whose final selection
    /// differs from the baseline). Every AS not yielded kept its baseline
    /// selection exactly.
    pub fn touched(&self) -> impl Iterator<Item = AsIndex> + '_ {
        self.dws.touched.iter().map(|&ix| AsIndex::new(ix))
    }

    /// Convergence counters of the *delta* run only: messages delivered
    /// into the cone, and the race generations the replay stepped through
    /// (not comparable to a from-scratch run's message counts).
    pub fn stats(&self) -> ConvergenceStats {
        self.stats
    }

    /// The baseline this run re-converged from.
    pub fn baseline(&self) -> &Baseline {
        self.baseline
    }

    /// Materializes the full per-AS selection map (O(n)), carrying this
    /// delta run's stats.
    pub fn to_propagation(&self) -> Propagation {
        let choices = (0..self.net.num_ases())
            .map(|i| self.choice(AsIndex::new(i as u32)))
            .collect();
        Propagation::new(choices, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::generation::propagate_announcements;
    use bgpsim_topology::{topology_from_triples, AsId, LinkKind::*, Topology};

    fn diamond() -> Topology {
        topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
            (3, 4, ProviderToCustomer),
            (2, 3, PeerToPeer),
            (1, 5, ProviderToCustomer),
        ])
    }

    fn assert_delta_matches_full(
        net: &SimNet<'_>,
        target: AsIndex,
        injection: Announcement,
        policy: &PolicyConfig,
    ) {
        let ctx = FilterContext::none();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(net, &[Announcement::honest(target)], &ctx, policy, &mut ws);
        let mut dws = DeltaWorkspace::new();
        let delta = propagate_delta(
            net,
            &baseline,
            &[injection],
            &ctx,
            policy,
            &mut dws,
            &mut NullObserver,
        );
        let full = propagate_announcements(
            net,
            &[Announcement::honest(target), injection],
            &ctx,
            policy,
            &mut ws,
            &mut NullObserver,
        );
        for i in 0..net.num_ases() {
            let ix = AsIndex::new(i as u32);
            assert_eq!(delta.choice(ix), full.choice(ix), "divergence at {ix}");
        }
        let p = delta.to_propagation();
        assert_eq!(p.choices(), full.choices());
    }

    #[test]
    fn delta_matches_full_on_diamond() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let a = topo.index_of(AsId::new(5)).unwrap();
        for policy in [PolicyConfig::paper(), PolicyConfig::strict_gao_rexford()] {
            assert_delta_matches_full(&net, t, Announcement::honest(a), &policy);
            assert_delta_matches_full(&net, t, Announcement::forged(a, t), &policy);
        }
    }

    #[test]
    fn empty_baseline_is_from_scratch() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let a = topo.index_of(AsId::new(5)).unwrap();
        let policy = PolicyConfig::paper();
        let baseline = Baseline::empty(&net, &policy);
        assert_eq!(baseline.propagation(&net).reached_count(), 0);
        let mut dws = DeltaWorkspace::new();
        let delta = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(a)],
            &FilterContext::none(),
            &policy,
            &mut dws,
            &mut NullObserver,
        );
        let full = propagate_announcements(
            &net,
            &[Announcement::honest(a)],
            &FilterContext::none(),
            &policy,
            &mut Workspace::new(),
            &mut NullObserver,
        );
        let p = delta.to_propagation();
        assert_eq!(p.choices(), full.choices());
        assert_eq!(
            p.captured_by(a).collect::<Vec<_>>(),
            full.captured_by(a).collect::<Vec<_>>()
        );
        // From an empty baseline every routed AS is in the cone, the
        // deferred leaf (the diamond's AS 4) included.
        let touched: Vec<AsIndex> = delta.touched().collect();
        for ix in topo.indices().filter(|&ix| full.choice(ix).is_some()) {
            assert!(
                touched.contains(&ix),
                "routed AS {ix} missing from the cone"
            );
        }
        // The stats are not compared: the leaf is settled in closed form,
        // so the messages a full run delivers to it are never stepped or
        // counted here.
        assert!(!delta.stats().truncated);
    }

    #[test]
    fn untouched_ases_keep_baseline_choices() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let a = topo.index_of(AsId::new(5)).unwrap();
        let ctx = FilterContext::none();
        let policy = PolicyConfig::paper();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(&net, &[Announcement::honest(t)], &ctx, &policy, &mut ws);
        let mut dws = DeltaWorkspace::new();
        let delta = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(a)],
            &ctx,
            &policy,
            &mut dws,
            &mut NullObserver,
        );
        let touched: Vec<AsIndex> = delta.touched().collect();
        for i in 0..net.num_ases() {
            let ix = AsIndex::new(i as u32);
            if !touched.contains(&ix) {
                assert_eq!(delta.choice(ix), baseline.propagation(&net).choice(ix));
            }
        }
    }

    /// A budget the cone outgrows abandons the replay — `None`, and no
    /// `on_converged` — one it fits completes over the workspace the
    /// abandoned runs left behind, and a truncated baseline is replayed to
    /// the end regardless. (The root package's `differential` test pins
    /// that a completed budgeted replay is the unbudgeted one bit for bit.)
    #[test]
    fn budgeted_replay_abandons_only_over_budget() {
        #[derive(Default)]
        struct Converged(u32);
        impl Observer for Converged {
            fn on_converged(&mut self, _: &ConvergenceStats) {
                self.0 += 1;
            }
        }
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let inject = [Announcement::honest(topo.index_of(AsId::new(5)).unwrap())];
        let ctx = FilterContext::none();
        let policy = PolicyConfig::paper();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(&net, &[Announcement::honest(t)], &ctx, &policy, &mut ws);
        let mut dws = DeltaWorkspace::new();
        let cone = propagate_delta(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut dws,
            &mut NullObserver,
        )
        .touched()
        .count();
        assert!(cone > 1);

        let mut obs = Converged::default();
        for budget in 0..cone - 1 {
            let abandoned = propagate_delta_budgeted(
                &net,
                &baseline,
                &inject,
                &ctx,
                &policy,
                &mut dws,
                Some(budget),
                &mut obs,
            );
            assert!(abandoned.is_none(), "budget {budget} of a {cone}-AS cone");
        }
        assert_eq!(obs.0, 0, "an abandoned replay never converged");
        let within = propagate_delta_budgeted(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut dws,
            Some(net.num_ases()),
            &mut obs,
        )
        .expect("the whole network always fits");
        assert_eq!(obs.0, 1);
        assert_eq!(within.touched().count(), cone);

        let capped = PolicyConfig {
            max_generations: 1,
            ..policy
        };
        let cut = Baseline::build(&net, &[Announcement::honest(t)], &ctx, &capped, &mut ws);
        assert!(cut.stats.truncated);
        assert!(propagate_delta_budgeted(
            &net,
            &cut,
            &inject,
            &ctx,
            &capped,
            &mut dws,
            Some(0),
            &mut NullObserver,
        )
        .is_some());
    }

    /// Satellite: epoch wrap-around for the overlay workspace, mirroring
    /// the `Workspace` wrap test — stamps must clear at the wrap and runs
    /// across it must match a fresh overlay workspace.
    #[test]
    fn delta_workspace_epoch_wraparound() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let a = topo.index_of(AsId::new(5)).unwrap();
        let ctx = FilterContext::none();
        let policy = PolicyConfig::paper();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(&net, &[Announcement::honest(t)], &ctx, &policy, &mut ws);
        let inject = [Announcement::honest(a)];

        let mut dws = DeltaWorkspace::new();
        // Prime the arrays, then force the counter to the wrap edge.
        let first = propagate_delta(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut dws,
            &mut NullObserver,
        )
        .to_propagation();
        dws.epoch = u32::MAX - 1;
        let at_max = propagate_delta(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut dws,
            &mut NullObserver,
        )
        .to_propagation();
        assert_eq!(dws.epoch, u32::MAX);
        let wrapped = propagate_delta(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut dws,
            &mut NullObserver,
        )
        .to_propagation();
        assert_eq!(dws.epoch, 1, "wrap must land on cleared epoch 1");
        assert!(dws.best_stamp.iter().all(|&e| e <= 1));
        assert!(dws.adj_stamp.iter().all(|&e| e <= 1));
        assert!(dws.sent_stamp.iter().all(|&e| e <= 1));
        assert!(dws.last_export_stamp.iter().all(|&e| e <= 1));
        assert!(dws.dirty_tag.iter().all(|&t| (t >> 32) <= 1));

        let fresh = propagate_delta(
            &net,
            &baseline,
            &inject,
            &ctx,
            &policy,
            &mut DeltaWorkspace::new(),
            &mut NullObserver,
        )
        .to_propagation();
        assert_eq!(at_max.choices(), fresh.choices());
        assert_eq!(wrapped.choices(), first.choices());
        assert_eq!(wrapped.stats(), first.stats());
    }

    /// Satellite: pins `heap_bytes()` on a fixed 5-AS topology — the
    /// packed element sizes, the closed-form footprint of an empty
    /// baseline, and that a built baseline accounts every vector at its
    /// packed element size. Every expectation is spelled in `size_of`
    /// terms, so a layout change moves the two packed-size pins and
    /// nothing else.
    #[test]
    fn heap_bytes_pinned_on_five_as_topology() {
        use std::mem::size_of;
        assert_eq!(size_of::<PackedReplay>(), 16);
        assert_eq!(size_of::<ExportEntry>(), 12);
        let (word, half) = (size_of::<u64>(), size_of::<u32>());
        let topo = diamond();
        let net = SimNet::new(&topo);
        let (n, slots) = (net.num_ases(), net.num_slots());
        assert_eq!((n, slots), (5, 12));
        let policy = PolicyConfig::paper();
        let empty = Baseline::empty(&net, &policy);
        // Packed snapshot: per slot an adj word and its path node, one
        // sent bit per slot in 64-bit words, per AS three words (best
        // word, best link, last-export triple) and the last-export path
        // node; then three (n + 1)-entry CSR offset arrays. No frozen
        // per-AS result rides along — choices reconstruct from the
        // snapshot.
        let snap_bytes = slots * (word + half) + slots.div_ceil(64) * word + n * (3 * word + half);
        assert_eq!(empty.snap.heap_bytes(), snap_bytes);
        assert_eq!(empty.heap_bytes(), snap_bytes + 3 * (n + 1) * half);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let mut ws = Workspace::new();
        let built = Baseline::build(
            &net,
            &[Announcement::honest(t)],
            &FilterContext::none(),
            &policy,
            &mut ws,
        );
        assert!(!built.log.is_empty() && !built.exp_dat.is_empty());
        let schedule = built.log.capacity() * size_of::<PackedReplay>()
            + built.exp_dat.capacity() * size_of::<ExportEntry>()
            + (built.out_dat.capacity()
                + built.in_off.capacity()
                + built.out_off.capacity()
                + built.exp_off.capacity())
                * half;
        assert_eq!(built.heap_bytes(), built.snap.heap_bytes() + schedule);
    }

    #[test]
    #[should_panic(expected = "duplicate origin")]
    fn injecting_a_baseline_origin_panics() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let policy = PolicyConfig::paper();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(
            &net,
            &[Announcement::honest(t)],
            &FilterContext::none(),
            &policy,
            &mut ws,
        );
        let mut dws = DeltaWorkspace::new();
        let _ = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(t)],
            &FilterContext::none(),
            &policy,
            &mut dws,
            &mut NullObserver,
        );
    }

    #[test]
    #[should_panic(expected = "match the baseline")]
    fn policy_mismatch_panics() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let t = topo.index_of(AsId::new(4)).unwrap();
        let a = topo.index_of(AsId::new(5)).unwrap();
        let mut ws = Workspace::new();
        let baseline = Baseline::build(
            &net,
            &[Announcement::honest(t)],
            &FilterContext::none(),
            &PolicyConfig::paper(),
            &mut ws,
        );
        let mut dws = DeltaWorkspace::new();
        let _ = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(a)],
            &FilterContext::none(),
            &PolicyConfig::strict_gao_rexford(),
            &mut dws,
            &mut NullObserver,
        );
    }

    /// A replay for another target than the baseline's: without the
    /// check, the frozen honest run of T answers for T′ and the count is
    /// silently wrong.
    #[test]
    #[should_panic(expected = "authorized origin and stub defense")]
    fn target_mismatch_panics() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let [t, other, a] = [4, 3, 5].map(|n| topo.index_of(AsId::new(n)).unwrap());
        let policy = PolicyConfig::paper();
        let for_target = |ix| FilterContext {
            authorized_origin: Some(ix),
            ..FilterContext::none()
        };
        let baseline = Baseline::build(
            &net,
            &[Announcement::honest(t)],
            &for_target(t),
            &policy,
            &mut Workspace::new(),
        );
        let _ = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(a)],
            &for_target(other),
            &policy,
            &mut DeltaWorkspace::new(),
            &mut NullObserver,
        );
    }

    /// A stub-off baseline replayed with stub filtering on: its frozen
    /// schedule carries stub announcements the replay's filters drop.
    #[test]
    #[should_panic(expected = "authorized origin and stub defense")]
    fn stub_defense_mismatch_panics() {
        let topo = diamond();
        let net = SimNet::new(&topo);
        let [t, a] = [4, 5].map(|n| topo.index_of(AsId::new(n)).unwrap());
        let policy = PolicyConfig::paper();
        let filters = |stub_defense| FilterContext {
            authorized_origin: Some(t),
            validators: None,
            stub_defense,
        };
        let baseline = Baseline::build(
            &net,
            &[Announcement::honest(t)],
            &filters(false),
            &policy,
            &mut Workspace::new(),
        );
        let _ = propagate_delta(
            &net,
            &baseline,
            &[Announcement::honest(a)],
            &filters(true),
            &policy,
            &mut DeltaWorkspace::new(),
            &mut NullObserver,
        );
    }
}
