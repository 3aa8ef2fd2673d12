//! The shared baseline cache: LRU with single-flight coalescing.
//!
//! Building a [`Baseline`] (the target's honest convergence plus its
//! recorded message schedule) dominates the cost of the first query
//! against any (target, stub-defense setting) pair; replaying an attacker
//! against a built baseline costs microseconds. A long-running service
//! therefore keeps baselines in a bounded cache shared by every worker
//! thread.
//!
//! Two properties matter under concurrency:
//!
//! * **Single-flight**: when several requests need the same missing
//!   baseline at once, exactly one thread builds it while the others
//!   block on a condvar and receive the same [`Arc`] — N identical
//!   concurrent sweeps cost one build, not N (the integration suite pins
//!   this through the hit/miss/coalesced counters).
//! * **Bounded**: eviction is least-recently-*used* by a monotonic touch
//!   stamp; in-flight builds are never evicted.
//!
//! Counters are relaxed atomics exported on `/v1/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use bgpsim_routing::Baseline;

use crate::jobs::lock_recover;

/// Cache key: exactly what a baseline depends on
/// ([`bgpsim_hijack::Simulator::baseline_for`]) — the attacked target and
/// whether providers filter their stub customers. Validators are not in
/// it: they never reject the authorized origin, so the target's honest
/// convergence is the same under every validator deployment, and asking
/// about one target under a progression of deployments (the paper's §V)
/// builds one baseline, not one per deployment. The topology is fixed for
/// a server's lifetime, so it is not part of the key either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BaselineKey {
    /// Raw index of the target AS.
    pub(crate) target: u32,
    /// [`bgpsim_hijack::Defense::has_stub_defense`] of the deployment.
    pub(crate) stub_defense: bool,
}

/// How a [`BaselineCache::get_or_build`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// The baseline was already resident.
    Hit,
    /// This call built the baseline.
    Miss,
    /// Another thread was already building it; this call waited and
    /// shares the result.
    Coalesced,
}

impl CacheOutcome {
    /// Wire name used in response `meta` blocks.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// Plain-integer counter snapshot for `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Lookups satisfied by a resident baseline.
    pub(crate) hits: u64,
    /// Lookups that built the baseline.
    pub(crate) misses: u64,
    /// Lookups that waited on another thread's in-flight build.
    pub(crate) coalesced: u64,
    /// Ready entries evicted to stay within capacity (entry count or byte
    /// budget).
    pub(crate) evictions: u64,
    /// Entries currently resident (including in-flight builds).
    pub(crate) entries: usize,
    /// Summed [`Baseline::heap_bytes`] of resident ready baselines.
    pub(crate) bytes: u64,
}

enum Slot {
    /// A thread is building this baseline; waiters sleep on the condvar.
    Building,
    Ready(Arc<Baseline>),
}

struct Entry {
    slot: Slot,
    /// Monotonic last-touch stamp; smallest stamp is evicted first.
    stamp: u64,
    /// [`Baseline::heap_bytes`] of the ready baseline (0 while building),
    /// cached so eviction bookkeeping never re-walks the baseline.
    bytes: u64,
}

struct CacheInner {
    entries: HashMap<BaselineKey, Entry>,
    tick: u64,
    /// Sum of every ready entry's `bytes`.
    bytes: u64,
}

/// Bounded single-flight LRU of built baselines. See the module docs.
pub(crate) struct BaselineCache {
    capacity: usize,
    /// Optional bound on summed resident [`Baseline::heap_bytes`]. At
    /// paper scale a single baseline is tens of megabytes, so an
    /// entry-count cap alone can silently pin gigabytes; the byte budget
    /// evicts LRU-first until within budget (the newest entry always
    /// survives, even alone over budget — evicting it would force its
    /// coalesced waiters to rebuild).
    byte_budget: Option<u64>,
    inner: Mutex<CacheInner>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BaselineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BaselineCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

/// Removes the `Building` placeholder if the build unwinds, so waiters
/// retry the build instead of sleeping forever.
struct BuildGuard<'a> {
    cache: &'a BaselineCache,
    key: BaselineKey,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // This drop runs *during* the build panic's unwind — locking
            // with a plain unwrap here could double-panic and abort.
            let mut inner = lock_recover(&self.cache.inner);
            inner.entries.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

impl BaselineCache {
    /// Creates a cache holding at most `capacity` ready baselines
    /// (minimum 1), with no byte budget.
    pub(crate) fn new(capacity: usize) -> BaselineCache {
        BaselineCache {
            capacity: capacity.max(1),
            byte_budget: None,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Additionally bounds the summed heap bytes of resident baselines
    /// (`None` disables the byte budget).
    pub(crate) fn with_byte_budget(mut self, budget: Option<u64>) -> BaselineCache {
        self.byte_budget = budget;
        self
    }

    /// Returns the baseline for `key`, building it with `build` exactly
    /// once across all concurrent callers. `build` runs without the cache
    /// lock held, so resident entries stay readable during a build.
    pub(crate) fn get_or_build(
        &self,
        key: BaselineKey,
        build: impl FnOnce() -> Baseline,
    ) -> (Arc<Baseline>, CacheOutcome) {
        let mut waited = false;
        // Poison recovery throughout: the build closure runs *outside*
        // the lock and the BuildGuard un-publishes a panicked build, so a
        // poisoned mutex only ever guards structurally-consistent state.
        let mut inner = lock_recover(&self.inner);
        loop {
            // Resolve the entry's state without holding a borrow across
            // the bookkeeping below.
            let resident = match inner.entries.get(&key) {
                Some(entry) => match &entry.slot {
                    Slot::Ready(baseline) => Some(Some(Arc::clone(baseline))),
                    Slot::Building => Some(None),
                },
                None => None,
            };
            match resident {
                Some(Some(baseline)) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(entry) = inner.entries.get_mut(&key) {
                        entry.stamp = tick;
                    }
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    self.counter(outcome).fetch_add(1, Ordering::Relaxed);
                    return (baseline, outcome);
                }
                Some(None) => {
                    waited = true;
                    inner = self
                        .ready
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    inner.tick += 1;
                    let stamp = inner.tick;
                    inner.entries.insert(
                        key,
                        Entry {
                            slot: Slot::Building,
                            stamp,
                            bytes: 0,
                        },
                    );
                    drop(inner);
                    let mut guard = BuildGuard {
                        cache: self,
                        key,
                        armed: true,
                    };
                    let baseline = Arc::new(build());
                    guard.armed = false;
                    let bytes = baseline.heap_bytes() as u64;
                    let mut inner = lock_recover(&self.inner);
                    if let Some(entry) = inner.entries.get_mut(&key) {
                        entry.slot = Slot::Ready(Arc::clone(&baseline));
                        entry.bytes = bytes;
                        inner.bytes += bytes;
                    }
                    self.evict_over_capacity(&mut inner);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.ready.notify_all();
                    return (baseline, CacheOutcome::Miss);
                }
            }
        }
    }

    fn counter(&self, outcome: CacheOutcome) -> &AtomicU64 {
        match outcome {
            CacheOutcome::Hit => &self.hits,
            CacheOutcome::Miss => &self.misses,
            CacheOutcome::Coalesced => &self.coalesced,
        }
    }

    /// Evicts the least-recently-used *ready* entries until within the
    /// entry-count capacity and, when configured, the byte budget.
    /// In-flight builds are exempt: evicting one would strand its
    /// waiters. The byte budget never evicts the last ready entry, so a
    /// single over-budget baseline still serves its coalesced waiters.
    fn evict_over_capacity(&self, inner: &mut CacheInner) {
        loop {
            let over_count = inner.entries.len() > self.capacity;
            let ready = |inner: &CacheInner| {
                inner
                    .entries
                    .values()
                    .filter(|e| matches!(e.slot, Slot::Ready(_)))
                    .count()
            };
            let over_bytes = self
                .byte_budget
                .is_some_and(|budget| inner.bytes > budget && ready(inner) > 1);
            if !over_count && !over_bytes {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            match victim {
                Some(key) => {
                    if let Some(entry) = inner.entries.remove(&key) {
                        inner.bytes -= entry.bytes;
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = lock_recover(&self.inner);
            (inner.entries.len(), inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_routing::{Announcement, FilterContext, PolicyConfig, SimNet, Workspace};
    use bgpsim_topology::{topology_from_triples, AsIndex, LinkKind::*, Topology};

    fn test_topology() -> Topology {
        topology_from_triples(&[
            (1, 2, ProviderToCustomer),
            (1, 3, ProviderToCustomer),
            (2, 4, ProviderToCustomer),
        ])
    }

    fn build_baseline(topo: &Topology, target: u32) -> Baseline {
        let net = SimNet::new(topo);
        let policy = PolicyConfig::paper();
        let ctx = FilterContext::default();
        Baseline::build(
            &net,
            &[Announcement::honest(AsIndex::new(target))],
            &ctx,
            &policy,
            &mut Workspace::new(),
        )
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let topo = test_topology();
        let cache = BaselineCache::new(4);
        let key = BaselineKey {
            target: 0,
            stub_defense: true,
        };
        let (first, outcome) = cache.get_or_build(key, || build_baseline(&topo, 0));
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache.get_or_build(key, || panic!("must not rebuild"));
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_ready_entry() {
        let topo = test_topology();
        let cache = BaselineCache::new(2);
        let key = |t| BaselineKey {
            target: t,
            stub_defense: false,
        };
        cache.get_or_build(key(0), || build_baseline(&topo, 0));
        cache.get_or_build(key(1), || build_baseline(&topo, 1));
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_build(key(0), || panic!("resident"));
        cache.get_or_build(key(2), || build_baseline(&topo, 2));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // 1 was evicted; 0 survived the eviction.
        cache.get_or_build(key(0), || panic!("0 must have survived"));
        let (_, outcome) = cache.get_or_build(key(1), || build_baseline(&topo, 1));
        assert_eq!(outcome, CacheOutcome::Miss);
    }

    #[test]
    fn byte_budget_evicts_lru_but_keeps_newest() {
        let topo = test_topology();
        // Entry capacity far above what the byte budget admits: a budget
        // of one baseline's bytes means every insert evicts its
        // predecessor, but never the entry just published.
        let one = build_baseline(&topo, 0).heap_bytes() as u64;
        assert!(one > 0);
        let cache = BaselineCache::new(16).with_byte_budget(Some(one));
        let key = |t| BaselineKey {
            target: t,
            stub_defense: false,
        };
        cache.get_or_build(key(0), || build_baseline(&topo, 0));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0));
        assert_eq!(stats.bytes, one);
        cache.get_or_build(key(1), || build_baseline(&topo, 1));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "over budget must evict the LRU");
        assert_eq!(stats.entries, 1, "the just-published entry survives");
        cache.get_or_build(key(1), || panic!("1 must be resident"));
        let (_, outcome) = cache.get_or_build(key(0), || build_baseline(&topo, 0));
        assert_eq!(outcome, CacheOutcome::Miss, "0 was evicted");
    }

    #[test]
    fn stats_bytes_tracks_residency() {
        let topo = test_topology();
        let cache = BaselineCache::new(2);
        let key = |t| BaselineKey {
            target: t,
            stub_defense: false,
        };
        let (a, _) = cache.get_or_build(key(0), || build_baseline(&topo, 0));
        let (b, _) = cache.get_or_build(key(1), || build_baseline(&topo, 1));
        assert_eq!(
            cache.stats().bytes,
            (a.heap_bytes() + b.heap_bytes()) as u64
        );
        // Capacity eviction releases the victim's bytes.
        let (c, _) = cache.get_or_build(key(2), || build_baseline(&topo, 2));
        assert_eq!(
            cache.stats().bytes,
            (b.heap_bytes() + c.heap_bytes()) as u64
        );
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let topo = test_topology();
        let cache = BaselineCache::new(4);
        let key = BaselineKey {
            target: 0,
            stub_defense: false,
        };
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_build(key, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so other threads arrive
                        // while the build is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        build_baseline(&topo, 0)
                    });
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn panicking_build_releases_waiters() {
        let topo = test_topology();
        let cache = BaselineCache::new(4);
        let key = BaselineKey {
            target: 0,
            stub_defense: false,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(key, || panic!("build failed"));
        }));
        assert!(result.is_err());
        // The placeholder is gone; the next caller builds afresh.
        let (_, outcome) = cache.get_or_build(key, || build_baseline(&topo, 0));
        assert_eq!(outcome, CacheOutcome::Miss);
    }
}
