//! Asynchronous jobs: a fair-share chunk scheduler with progress,
//! cancellation, bounded retention, and terminal-state persistence.
//!
//! `POST /v1/sweeps` enqueues a sweep [`Job`] and returns immediately.
//! Jobs are not handed to executors whole: the registry slices each job's
//! attacker pool into fixed-size chunks and deals chunks round-robin
//! across every runnable job ([`JobRegistry::next_chunk`]), so a
//! paper-scale sweep shares the executor pool with a three-attacker
//! quickie instead of starving it. Each chunk still runs on the rayon
//! pool internally — fairness is scheduled *between* jobs, parallelism
//! happens *inside* chunks. Every chunk comes back through
//! [`JobRegistry::finish`], with its rows or its failure
//! ([`ChunkResult`]). A sweep is the only job kind.
//!
//! Each job has one lock, over what the scheduler decides about it
//! ([`Sched`]: state, dealt cursor, chunks in flight, assembled output,
//! persisted flag). What executors tick and `GET /v1/jobs/:id` reads
//! lock-free — the cancel flag, progress, ETA, shard counters — are
//! relaxed atomics; `DELETE` flips the cancel flag (under the lock),
//! which the sweep engine polls per attack
//! ([`bgpsim_hijack::SweepMonitor`]). Locks nest registry → job, never
//! the other way.
//!
//! Every lock acquisition recovers from poisoning
//! (`unwrap_or_else(PoisonError::into_inner)`): a panicking executor must
//! never take `/v1/jobs` down with it. The executor reports panics as a
//! [`ChunkResult::Failed`] chunk, which marks the job `failed` and keeps
//! scheduling everyone else.
//!
//! When the registry is built with a state directory, terminal jobs
//! (done, cancelled, failed) are serialized through
//! [`bgpsim_core::manifest::Json`] to `job-<id>.json` and reloaded on the
//! next boot, so `GET /v1/results/:id` survives a restart. Unreadable
//! state files are quarantined (moved aside), never fatal; a record of a
//! job kind this build does not run is one of them. Ids keep growing past
//! every `job-<id>.json` name seen, restored or quarantined, so no id is
//! handed out twice.
//!
//! Retention is bounded: once more than [`JobRegistry::MAX_RETAINED`]
//! jobs exist, the oldest *finished* jobs are forgotten (their ids then
//! answer 404). Queued and running jobs are never evicted.
//!
//! The `model` test module holds the registry to a sequential reference
//! model over seeded random op sequences.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bgpsim_core::manifest::{Json, SCHEMA_VERSION};
use bgpsim_fanout::SweepRequest;
use bgpsim_hijack::Defense;
use bgpsim_topology::AsIndex;

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Registry state stays consistent under poisoning because every terminal
/// transition is idempotent and every counter is monotonic — serving
/// slightly stale data beats poisoning every future request.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the executor needs to run one sweep, resolved and
/// validated at submission time so a queued job cannot fail on bad input.
#[derive(Debug, Clone)]
pub(crate) struct SweepSpec {
    /// Attacked target.
    pub(crate) target: AsIndex,
    /// Attacker pool, already strided and with the target filtered out.
    pub(crate) pool: Vec<AsIndex>,
    /// Resolved defense deployment.
    pub(crate) defense: Defense,
    /// The same sweep in wire terms — target ASN, the pool's ASNs
    /// index-aligned with `pool`, sorted and deduplicated validator ASNs,
    /// the stub-defense flag: what job and result documents echo, and
    /// what a fan-out coordinator deals to its fleet as is.
    pub(crate) request: SweepRequest,
    /// Wire name of the attacker pool (`"all"`, `"transit"`,
    /// `"explicit"`), echoed in documents.
    pub(crate) pool_kind: &'static str,
}

/// A finished job's payload.
#[derive(Debug, Clone)]
pub(crate) struct JobOutput {
    /// One pollution count per pool attacker, in pool order.
    pub(crate) counts: Vec<u32>,
    /// How the baseline cache served this sweep (`"bypass"` when the
    /// sweep did not use it; the coldest outcome across chunks otherwise).
    pub(crate) cache: &'static str,
    /// Wall time from first chunk dispatched to last chunk finished.
    pub(crate) wall_ms: u64,
}

/// Lifecycle of a job.
#[derive(Debug)]
pub(crate) enum JobState {
    /// Waiting for its first chunk to be dispatched.
    Queued,
    /// At least one chunk dispatched; sweeping.
    Running,
    /// Finished; results available on `/v1/results/:id`.
    Done(JobOutput),
    /// Cancelled before or during the sweep; no results retained.
    Cancelled,
    /// The sweep failed (executor panic) or the server shut down first.
    Failed(String),
}

impl JobState {
    /// Wire name of the state.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job can no longer change state.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Cancelled | JobState::Failed(_)
        )
    }
}

/// Sentinel for "ETA unknown" in [`Job::eta_ms`].
pub(crate) const ETA_UNKNOWN: u64 = u64::MAX;

/// Every name a job's `meta.cache` can carry, with its rank. Ranks order
/// outcomes coldest-last so a job reports the most expensive thing that
/// happened to it: one missed chunk makes the whole sweep a `"miss"` even
/// though later chunks hit. `"fanout"` marks a sweep dealt to remote
/// workers: no local cache story at all, but still worth surfacing over
/// the `"bypass"` default (a fanout job runs as one whole-pool chunk, so it
/// never competes with real cache outcomes).
///
/// [`JobRegistry::finish`] admits a name only through [`cache_rank`]
/// and restore resolves the persisted string through [`cache_name`], so a
/// name a job can finish with is by construction one restore accepts.
const CACHE_NAMES: [(&str, u8); 5] = [
    ("bypass", 0),
    ("hit", 1),
    ("fanout", 1),
    ("coalesced", 2),
    ("miss", 3),
];

/// The [`CACHE_NAMES`] entry for `name`, if it is one.
fn cache_name(name: &str) -> Option<(&'static str, u8)> {
    CACHE_NAMES
        .iter()
        .copied()
        .find(|&(known, _)| known == name)
}

/// Rank of a cache outcome (unknown names rank with `"bypass"`).
fn cache_rank(name: &str) -> u8 {
    cache_name(name).map_or(0, |(_, rank)| rank)
}

/// What the scheduler decides about one job: everything behind the job's
/// one lock.
#[derive(Debug)]
struct Sched {
    state: JobState,
    /// First work unit not yet dealt to an executor.
    dealt: usize,
    /// Chunks dealt out but not yet returned.
    in_flight: usize,
    /// When the first chunk was dealt.
    started: Option<Instant>,
    /// Sweep rows assembled so far, in pool order.
    counts: Vec<u32>,
    /// The coldest cache outcome any chunk reported.
    cache: &'static str,
    /// The first failure any chunk reported.
    failure: Option<String>,
    /// Whether the terminal record has been written to the state
    /// directory (it is written once).
    persisted: bool,
}

impl Sched {
    fn new(spec: &SweepSpec) -> Sched {
        Sched {
            state: JobState::Queued,
            dealt: 0,
            in_flight: 0,
            started: None,
            counts: vec![0; spec.pool.len()],
            cache: "bypass",
            failure: None,
            persisted: false,
        }
    }

    /// Moves to `next` unless already terminal (a cancelled job stays
    /// cancelled even if the executor later reports completion).
    fn transition(&mut self, next: JobState) {
        if !self.state.is_terminal() {
            self.state = next;
        }
    }
}

/// One submitted job.
#[derive(Debug)]
pub(crate) struct Job {
    /// Monotonic id; `job-<id>` on the wire.
    pub(crate) id: u64,
    /// The sweep to run.
    pub(crate) spec: SweepSpec,
    sched: Mutex<Sched>,
    /// Set by `DELETE /v1/jobs/:id`, a failed chunk or shutdown, always
    /// under the job's lock; polled per attack by the engine.
    pub(crate) cancel: AtomicBool,
    /// Attacks finished so far (progress callback).
    pub(crate) completed: AtomicUsize,
    /// Wall time so far, milliseconds.
    pub(crate) elapsed_ms: AtomicU64,
    /// Estimated remaining time, milliseconds ([`ETA_UNKNOWN`] until the
    /// first attack completes).
    pub(crate) eta_ms: AtomicU64,
    /// Fan-out shard progress, all zero unless the sweep executor dealt
    /// this job to remote workers: shards planned, completed and re-queued
    /// after a failure. Surfaced as the `shards` object on
    /// `GET /v1/jobs/:id`.
    pub(crate) shards_total: AtomicU64,
    /// Shards completed (see [`Job::shards_total`]).
    pub(crate) shards_done: AtomicU64,
    /// Shards re-queued after a failed dispatch.
    pub(crate) shards_retried: AtomicU64,
}

impl Job {
    fn new(id: u64, spec: SweepSpec) -> Job {
        Job {
            id,
            sched: Mutex::new(Sched::new(&spec)),
            spec,
            cancel: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            elapsed_ms: AtomicU64::new(0),
            eta_ms: AtomicU64::new(ETA_UNKNOWN),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            shards_retried: AtomicU64::new(0),
        }
    }

    fn sched(&self) -> MutexGuard<'_, Sched> {
        lock_recover(&self.sched)
    }

    /// Wire id (`job-<n>`).
    pub(crate) fn wire_id(&self) -> String {
        format!("job-{}", self.id)
    }

    /// The progress denominator: the pool's attacks.
    pub(crate) fn total(&self) -> usize {
        self.spec.request.pool_asns.len()
    }

    /// Runs `f` against the current state (one lock acquisition, so one
    /// consistent snapshot).
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&JobState) -> R) -> R {
        f(&self.sched().state)
    }

    /// The job's progress tick: `tick(n)` records `n` more finished work
    /// attacks and refreshes `elapsed_ms` and `eta_ms` (elapsed × remaining /
    /// done). Job-level, not chunk-level — several chunks of one job may
    /// tick concurrently from different executors. The start instant is
    /// read once here, so a tick takes no lock.
    pub(crate) fn progress_ticker(&self) -> impl Fn(usize) + '_ {
        let started_at = self.sched().started;
        let total = self.total();
        move |n| {
            let done = self.completed.fetch_add(n, Ordering::Relaxed) + n;
            if let Some(started) = started_at {
                let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                self.elapsed_ms.store(elapsed_ms, Ordering::Relaxed);
                let eta_ms = if done == 0 || done > total {
                    ETA_UNKNOWN
                } else {
                    elapsed_ms.saturating_mul((total - done) as u64) / done as u64
                };
                self.eta_ms.store(eta_ms, Ordering::Relaxed);
            }
        }
    }
}

/// One unit of executor work: pool attackers `[start, end)` of a sweep
/// job. Handed back, by value, to [`JobRegistry::finish`].
#[derive(Debug)]
pub(crate) struct Chunk {
    /// The job this chunk belongs to.
    pub(crate) job: Arc<Job>,
    /// First pool position of the chunk (inclusive).
    pub(crate) start: usize,
    /// Last pool position of the chunk (exclusive).
    pub(crate) end: usize,
}

impl Chunk {
    /// The chunk's slice of the job's attacker pool.
    pub(crate) fn attackers(&self) -> &[AsIndex] {
        &self.job.spec.pool[self.start..self.end]
    }
}

/// How a chunk comes back to [`JobRegistry::finish`].
#[derive(Debug)]
pub(crate) enum ChunkResult {
    /// A sweep chunk's rows, one per attacker of the chunk in pool order,
    /// and how the baseline cache served it.
    Sweep {
        /// Pollution counts.
        rows: Vec<u32>,
        /// A [`CACHE_NAMES`] name.
        cache: &'static str,
    },
    /// The chunk died (executor panic), with the message the job fails
    /// with.
    Failed(String),
}

/// Why [`JobRegistry::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// As many unfinished jobs as the admission bound allows.
    QueueFull,
    /// The registry is closed: the server is draining.
    ShuttingDown,
}

impl SubmitError {
    /// The error message a client sees.
    pub(crate) fn message(self) -> &'static str {
        match self {
            SubmitError::QueueFull => "job queue is full",
            SubmitError::ShuttingDown => "server is shutting down",
        }
    }
}

struct RegistryInner {
    /// Every retained job, oldest first.
    jobs: VecDeque<Arc<Job>>,
    /// Round-robin ring of jobs with undealt chunks. A job appears at
    /// most once; it is pushed to the back after each chunk is dealt and
    /// drops out once fully dealt, cancelled or terminal.
    ring: VecDeque<Arc<Job>>,
    /// Client idempotency keys → job id, oldest first, bounded by
    /// [`JobRegistry::MAX_IDEMPOTENCY_KEYS`]. A resubmission under a
    /// retained key returns the original job instead of scheduling a
    /// duplicate.
    idempotency: VecDeque<(String, u64)>,
    next_id: u64,
    closed: bool,
}

/// Counters for `/v1/metrics`: scheduler and persistence activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SchedulerStats {
    /// Chunks finished (successfully or not) by the executor pool.
    pub(crate) chunks_executed: u64,
    /// Terminal job records written to the state directory.
    pub(crate) jobs_persisted: u64,
    /// Terminal jobs reloaded from the state directory at boot.
    pub(crate) jobs_restored: u64,
    /// Unreadable state files moved to quarantine at boot.
    pub(crate) files_quarantined: u64,
}

/// Owns every job, the fair-share chunk ring, and the state directory.
pub(crate) struct JobRegistry {
    inner: Mutex<RegistryInner>,
    /// Signals executors: ring non-empty or registry closed.
    pending: Condvar,
    max_queued: usize,
    chunk_size: usize,
    state_dir: Option<PathBuf>,
    chunks_executed: AtomicU64,
    jobs_persisted: AtomicU64,
    jobs_restored: u64,
    files_quarantined: u64,
}

/// Per-state job counts for `/v1/healthz` and `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JobCounts {
    /// Jobs waiting for their first chunk.
    pub(crate) queued: usize,
    /// Jobs currently sweeping.
    pub(crate) running: usize,
    /// Jobs finished with results.
    pub(crate) done: usize,
    /// Jobs cancelled.
    pub(crate) cancelled: usize,
    /// Jobs failed.
    pub(crate) failed: usize,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("counts", &self.counts())
            .finish()
    }
}

impl JobRegistry {
    /// Finished jobs retained before the oldest are forgotten.
    pub(crate) const MAX_RETAINED: usize = 256;

    /// Idempotency keys retained (FIFO) before the oldest are forgotten.
    pub(crate) const MAX_IDEMPOTENCY_KEYS: usize = 1024;

    /// Attackers per scheduling chunk: small enough that a short job
    /// never waits behind more than one chunk of a long one, large enough
    /// that per-chunk overhead (cache lookup, dispatch) stays negligible
    /// against the rayon fan-out inside the chunk.
    pub(crate) const CHUNK_ATTACKERS: usize = 64;

    /// A registry admitting at most `max_queued` unfinished jobs that
    /// persists terminal jobs to `state_dir` (when given) and reloads the
    /// ones already there, quarantining unreadable files instead of
    /// failing the boot ([`SchedulerStats`] counts both).
    pub(crate) fn new(max_queued: usize, state_dir: Option<PathBuf>) -> JobRegistry {
        let Restored {
            jobs: restored,
            quarantined,
            last_id,
        } = match &state_dir {
            Some(dir) => restore_jobs(dir),
            None => Restored::default(),
        };
        JobRegistry {
            jobs_restored: restored.len() as u64,
            inner: Mutex::new(RegistryInner {
                next_id: last_id + 1,
                jobs: restored.into(),
                ring: VecDeque::new(),
                idempotency: VecDeque::new(),
                closed: false,
            }),
            pending: Condvar::new(),
            max_queued: max_queued.max(1),
            chunk_size: JobRegistry::CHUNK_ATTACKERS,
            state_dir,
            chunks_executed: AtomicU64::new(0),
            jobs_persisted: AtomicU64::new(0),
            files_quarantined: quarantined as u64,
        }
    }

    /// Overrides the scheduling chunk size (tests use 1 to force
    /// fine-grained interleaving).
    #[must_use]
    pub(crate) fn with_chunk_size(mut self, chunk_size: usize) -> JobRegistry {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Scheduler/persistence counter snapshot.
    pub(crate) fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            chunks_executed: self.chunks_executed.load(Ordering::Relaxed),
            jobs_persisted: self.jobs_persisted.load(Ordering::Relaxed),
            jobs_restored: self.jobs_restored,
            files_quarantined: self.files_quarantined,
        }
    }

    /// Enqueues a sweep job under an optional client
    /// idempotency key. Returns `(job, fresh)`: a resubmission under a
    /// retained key returns the original job with `fresh == false` and
    /// schedules nothing — a coordinator retrying a timed-out submit
    /// cannot double-schedule its shard. Keys are retained FIFO up to
    /// [`JobRegistry::MAX_IDEMPOTENCY_KEYS`]; a key whose job has since
    /// been forgotten is treated as fresh.
    ///
    /// The admission bound counts every *unfinished* job (queued or
    /// running), not just queued ones: under fair-share scheduling a
    /// job's first chunk is dealt almost immediately, so a queued-only
    /// bound would admit an unbounded backlog of jobs all nominally
    /// "running". Restored jobs are terminal by construction and never
    /// count.
    pub(crate) fn submit(
        &self,
        spec: SweepSpec,
        key: Option<String>,
    ) -> Result<(Arc<Job>, bool), SubmitError> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if let Some(key) = &key {
            if let Some(id) = inner
                .idempotency
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, id)| id)
            {
                if let Some(job) = inner.jobs.iter().find(|j| j.id == id).cloned() {
                    return Ok((job, false));
                }
                // The job aged out of retention; the key is stale.
                inner.idempotency.retain(|(k, _)| k != key);
            }
        }
        let active = inner
            .jobs
            .iter()
            .filter(|j| !j.with_state(JobState::is_terminal))
            .count();
        if active >= self.max_queued {
            return Err(SubmitError::QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, spec));
        inner.jobs.push_back(Arc::clone(&job));
        inner.ring.push_back(Arc::clone(&job));
        if let Some(key) = key {
            inner.idempotency.push_back((key, id));
            while inner.idempotency.len() > JobRegistry::MAX_IDEMPOTENCY_KEYS {
                inner.idempotency.pop_front();
            }
        }
        // Forget the oldest finished jobs beyond the retention bound.
        while inner.jobs.len() > JobRegistry::MAX_RETAINED {
            let Some(pos) = inner
                .jobs
                .iter()
                .position(|j| j.with_state(JobState::is_terminal))
            else {
                break;
            };
            inner.jobs.remove(pos);
        }
        drop(inner);
        self.pending.notify_one();
        Ok((job, true))
    }

    /// Every retained job, oldest first (callers cap what they render).
    pub(crate) fn snapshot(&self) -> Vec<Arc<Job>> {
        lock_recover(&self.inner).jobs.iter().cloned().collect()
    }

    /// Looks up a retained job by numeric id.
    pub(crate) fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock_recover(&self.inner)
            .jobs
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Blocks until a chunk of work is available or the registry closes
    /// (`None` means shut down). Chunks are dealt round-robin across every
    /// job with undealt attackers: after a chunk is taken from the front
    /// job, that job goes to the back of the ring, so N concurrent jobs
    /// each receive ~every Nth chunk regardless of pool size.
    pub(crate) fn next_chunk(&self) -> Option<Chunk> {
        let mut inner = lock_recover(&self.inner);
        loop {
            while let Some(job) = inner.ring.pop_front() {
                let total = job.spec.pool.len();
                let mut sched = job.sched();
                // A cancelled job leaves the ring for good: with nothing
                // in flight it is already terminal, otherwise its last
                // chunk back finalizes it.
                if sched.state.is_terminal()
                    || job.cancel.load(Ordering::Relaxed)
                    || sched.dealt >= total
                {
                    continue;
                }
                let start = sched.dealt;
                let end = (start + self.chunk_size).min(total);
                sched.dealt = end;
                sched.in_flight += 1;
                if start == 0 {
                    sched.state = JobState::Running;
                    sched.started = Some(Instant::now());
                }
                drop(sched);
                if end < total {
                    inner.ring.push_back(Arc::clone(&job));
                    // Cascade: there is more work than this executor is
                    // about to take, so wake another one.
                    self.pending.notify_one();
                }
                return Some(Chunk { job, start, end });
            }
            if inner.closed {
                return None;
            }
            inner = self
                .pending
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands a dealt chunk back: its rows land at their pool positions,
    /// and a failure stops the job being dealt
    /// (and tells its other in-flight chunks to bail). When this was the
    /// job's last chunk out and nothing is left to deal, the job
    /// finalizes — `failed` with the first failure, else `cancelled` if
    /// cancelled (a cancelled job's rows are not results),
    /// else `done` with the assembled output — and is persisted. Every
    /// other job keeps running.
    pub(crate) fn finish(&self, chunk: Chunk, result: ChunkResult) {
        self.chunks_executed.fetch_add(1, Ordering::Relaxed);
        let job = &chunk.job;
        let mut sched = job.sched();
        match result {
            ChunkResult::Sweep { rows, cache } => {
                debug_assert_eq!(rows.len(), chunk.end - chunk.start);
                let n = rows.len().min(chunk.end - chunk.start);
                sched.counts[chunk.start..chunk.start + n].copy_from_slice(&rows[..n]);
                if cache_rank(cache) > cache_rank(sched.cache) {
                    sched.cache = cache;
                }
            }
            ChunkResult::Failed(message) => {
                sched.failure.get_or_insert(message);
                sched.dealt = job.spec.pool.len();
                job.cancel.store(true, Ordering::Relaxed);
            }
        }
        sched.in_flight -= 1;
        // A cancelled job is never fully dealt (the scheduler stops
        // dealing it), so the cancel flag alone must finalize it once its
        // in-flight chunks drain — otherwise it is stuck `running` forever
        // and holds an admission slot.
        let cancelled = job.cancel.load(Ordering::Relaxed);
        if sched.in_flight > 0 || (sched.dealt < job.spec.pool.len() && !cancelled) {
            return;
        }
        let next = if let Some(message) = sched.failure.take() {
            JobState::Failed(message)
        } else if cancelled {
            JobState::Cancelled
        } else {
            JobState::Done(JobOutput {
                counts: std::mem::take(&mut sched.counts),
                cache: sched.cache,
                wall_ms: sched.started.map_or(0, |t| t.elapsed().as_millis() as u64),
            })
        };
        sched.transition(next);
        self.persist(job, sched);
    }

    /// Requests cancellation of a job. Jobs with no chunk in flight
    /// (queued, or running between chunks) become `cancelled`
    /// immediately; a running chunk notices the flag per attack and the
    /// job finalizes when its chunks drain. Returns the job, or `None` if
    /// the id is unknown.
    pub(crate) fn cancel(&self, id: u64) -> Option<Arc<Job>> {
        let job = self.get(id)?;
        let mut sched = job.sched();
        job.cancel.store(true, Ordering::Relaxed);
        if sched.in_flight == 0 {
            // Between chunks (or never started): nothing will report
            // back, so finalize here; the ring drops cancelled jobs.
            sched.transition(JobState::Cancelled);
        }
        self.persist(&job, sched);
        Some(job)
    }

    /// Closes the registry: refuses new submissions, fails queued jobs,
    /// cancels running ones, and wakes the executors so they can exit.
    pub(crate) fn close(&self) {
        let jobs = {
            let mut inner = lock_recover(&self.inner);
            inner.closed = true;
            inner.ring.clear();
            inner.jobs.iter().cloned().collect::<Vec<_>>()
        };
        self.pending.notify_all();
        for job in jobs {
            let mut sched = job.sched();
            job.cancel.store(true, Ordering::Relaxed);
            if matches!(sched.state, JobState::Queued) {
                sched.state = JobState::Failed("server shut down".to_string());
            } else if sched.in_flight == 0 {
                // Running but between chunks: nothing will report back.
                sched.transition(JobState::Cancelled);
            }
            self.persist(&job, sched);
        }
    }

    /// Per-state counts over retained jobs.
    pub(crate) fn counts(&self) -> JobCounts {
        let inner = lock_recover(&self.inner);
        let mut counts = JobCounts::default();
        for job in &inner.jobs {
            job.with_state(|state| match state {
                JobState::Queued => counts.queued += 1,
                JobState::Running => counts.running += 1,
                JobState::Done(_) => counts.done += 1,
                JobState::Cancelled => counts.cancelled += 1,
                JobState::Failed(_) => counts.failed += 1,
            });
        }
        counts
    }

    // -----------------------------------------------------------------
    // Persistence

    /// Writes a terminal job's record to the state directory, once: the
    /// record is rendered under the job's lock (`sched`, consumed) and
    /// written after it is released. Failures are swallowed: persistence
    /// is best-effort durability, not a correctness dependency of the
    /// running server.
    fn persist(&self, job: &Job, mut sched: MutexGuard<'_, Sched>) {
        let Some(dir) = &self.state_dir else { return };
        if !sched.state.is_terminal() || sched.persisted {
            return;
        }
        sched.persisted = true;
        let mut text = job_to_doc(job, &sched.state).render_compact();
        drop(sched);
        text.push('\n');
        let path = dir.join(format!("job-{}.json", job.id));
        let tmp = dir.join(format!("job-{}.json.tmp", job.id));
        // Write-then-rename so a crash mid-write leaves a quarantinable
        // .tmp, never a torn job-<id>.json.
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.jobs_persisted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serializes a terminal job in `state` to its on-disk record: the
/// sweep's wire terms flat beside its progress, then the output or error.
/// The golden records under `tests/fixtures/` pin the layout byte for
/// byte, so records written by older builds restore unchanged.
fn job_to_doc(job: &Job, state: &JobState) -> Json {
    let request = &job.spec.request;
    let mut pairs = vec![
        ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
        ("id".to_string(), Json::from(job.id)),
        ("state".to_string(), Json::str(state.name())),
        ("target".to_string(), Json::from(request.target_asn)),
        ("pool".to_string(), Json::str(job.spec.pool_kind)),
        ("attackers".to_string(), Json::u32s(&request.pool_asns)),
        (
            "validators".to_string(),
            Json::u32s(&request.validator_asns),
        ),
        ("stub_defense".to_string(), Json::Bool(request.stub_defense)),
        ("total".to_string(), Json::from(job.total())),
        (
            "completed".to_string(),
            Json::from(job.completed.load(Ordering::Relaxed)),
        ),
        (
            "elapsed_ms".to_string(),
            Json::from(job.elapsed_ms.load(Ordering::Relaxed)),
        ),
    ];
    match state {
        JobState::Done(output) => pairs.push((
            "output".to_string(),
            Json::obj([
                ("counts", Json::u32s(&output.counts)),
                ("cache", Json::str(output.cache)),
                ("wall_ms", Json::from(output.wall_ms)),
            ]),
        )),
        JobState::Failed(message) => {
            pairs.push(("error".to_string(), Json::str(message.clone())));
        }
        _ => {}
    }
    Json::Obj(pairs)
}

/// Parses a `"done"` record's output object, whose counts must be
/// `pool_width` long.
fn output_from_doc(doc: &Json, pool_width: usize) -> Option<JobOutput> {
    let output = doc.get("output")?;
    let counts = output.get("counts")?.as_u32_array()?;
    if counts.len() != pool_width {
        return None;
    }
    Some(JobOutput {
        counts,
        cache: cache_name(output.get("cache")?.as_str()?)?.0,
        wall_ms: output.get("wall_ms")?.as_u64()?,
    })
}

/// Deserializes one state-directory record; `None` means the file is
/// corrupt (and should be quarantined). A record with no sweep terms,
/// such as a stream job an older build wrote, is one.
fn job_from_doc(doc: &Json) -> Option<Arc<Job>> {
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    let id = count("id")?;
    let total = usize::try_from(count("total")?).ok()?;
    let completed = count("completed").unwrap_or(0) as usize;
    let elapsed_ms = count("elapsed_ms").unwrap_or(0);
    let pool_kind = match doc.get("pool")?.as_str()? {
        "all" => "all",
        "transit" => "transit",
        "explicit" => "explicit",
        _ => return None,
    };
    let pool_asns = doc.get("attackers")?.as_u32_array()?;
    // A sweep's total is its pool width; a record that disagrees with
    // itself is corrupt.
    if pool_asns.len() != total {
        return None;
    }
    let spec = SweepSpec {
        // Runtime fields are placeholders: restored jobs are terminal and
        // never scheduled, so only the echoed wire terms (ASNs, pool kind,
        // defense description) matter.
        target: AsIndex::new(0),
        pool: Vec::new(),
        defense: Defense::none(),
        request: SweepRequest {
            target_asn: doc.get("target")?.as_u32()?,
            pool_asns,
            validator_asns: doc.get("validators")?.as_u32_array()?,
            stub_defense: doc.get("stub_defense").and_then(Json::as_bool) == Some(true),
        },
        pool_kind,
    };
    let state = match doc.get("state")?.as_str()? {
        "done" => JobState::Done(output_from_doc(doc, total)?),
        "cancelled" => JobState::Cancelled,
        "failed" => JobState::Failed(
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown failure (restored)")
                .to_string(),
        ),
        // A non-terminal state on disk is a corrupt record: the registry
        // only ever persists terminal jobs.
        _ => return None,
    };
    Some(Arc::new(Job {
        // Never scheduled (its placeholder pool is empty, so there is
        // nothing to deal) and already on disk: never rewritten.
        sched: Mutex::new(Sched {
            state,
            persisted: true,
            ..Sched::new(&spec)
        }),
        completed: AtomicUsize::new(completed),
        elapsed_ms: AtomicU64::new(elapsed_ms),
        ..Job::new(id, spec)
    }))
}

/// What [`restore_jobs`] found in a state directory.
#[derive(Default)]
struct Restored {
    /// The restored jobs, oldest first, newest
    /// [`JobRegistry::MAX_RETAINED`] only.
    jobs: Vec<Arc<Job>>,
    /// Files moved to quarantine.
    quarantined: usize,
    /// The largest id any `job-<id>.json` name or restored record carries,
    /// quarantined ones included (0 when there is none): the registry
    /// numbers new jobs past it, so a quarantined record's id is never
    /// handed to a different job.
    last_id: u64,
}

/// The id a `job-<id>.json` file name carries.
fn record_id(name: &str) -> Option<u64> {
    name.strip_prefix("job-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Scans `dir` for `job-*.json` records, quarantining unreadable ones, and
/// reads the ids already in `dir/quarantine/`.
fn restore_jobs(dir: &Path) -> Restored {
    let _ = std::fs::create_dir_all(dir);
    let names = |dir: &Path| -> Vec<(String, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|entry| Some((entry.file_name().into_string().ok()?, entry.path())))
            .collect()
    };
    let mut found = Restored {
        last_id: names(&dir.join("quarantine"))
            .iter()
            .filter_map(|(name, _)| record_id(name))
            .max()
            .unwrap_or(0),
        ..Restored::default()
    };
    for (name, path) in names(dir) {
        if !name.starts_with("job-") || !name.ends_with(".json") {
            continue;
        }
        found.last_id = found.last_id.max(record_id(&name).unwrap_or(0));
        let job = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| job_from_doc(&doc));
        match job {
            Some(job) => {
                found.last_id = found.last_id.max(job.id);
                found.jobs.push(job);
            }
            None => {
                quarantine(dir, &path);
                found.quarantined += 1;
            }
        }
    }
    found.jobs.sort_by_key(|j| j.id);
    if found.jobs.len() > JobRegistry::MAX_RETAINED {
        let drop_n = found.jobs.len() - JobRegistry::MAX_RETAINED;
        found.jobs.drain(..drop_n);
    }
    found
}

/// Moves an unreadable state file into `<dir>/quarantine/` so the
/// operator can inspect it and the next boot does not trip over it again.
fn quarantine(dir: &Path, path: &Path) {
    let quarantine_dir = dir.join("quarantine");
    let _ = std::fs::create_dir_all(&quarantine_dir);
    if let Some(name) = path.file_name() {
        let _ = std::fs::rename(path, quarantine_dir.join(name));
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn open(max_queued: usize) -> JobRegistry {
        JobRegistry::new(max_queued, None)
    }

    fn submit(registry: &JobRegistry, spec: SweepSpec) -> Result<Arc<Job>, SubmitError> {
        registry.submit(spec, None).map(|(job, _)| job)
    }

    fn rows(rows: &[u32], cache: &'static str) -> ChunkResult {
        ChunkResult::Sweep {
            rows: rows.to_vec(),
            cache,
        }
    }

    fn spec() -> SweepSpec {
        spec_with_pool(2)
    }

    fn spec_with_pool(n: u32) -> SweepSpec {
        SweepSpec {
            target: AsIndex::new(0),
            pool: (1..=n).map(AsIndex::new).collect(),
            defense: Defense::none(),
            request: SweepRequest {
                target_asn: 1,
                pool_asns: (2..=n + 1).collect(),
                validator_asns: Vec::new(),
                stub_defense: false,
            },
            pool_kind: "explicit",
        }
    }

    /// A unique per-test scratch directory (std-only; no tempfile crate).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgpsim-jobs-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_chunk_finish() {
        let registry = open(4);
        let job = submit(&registry, spec()).unwrap();
        assert_eq!(job.wire_id(), "job-1");
        assert_eq!(registry.counts().queued, 1);
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, job.id);
        assert_eq!((chunk.start, chunk.end), (0, 2));
        assert_eq!(registry.counts().running, 1);
        registry.finish(chunk, rows(&[1, 2], "bypass"));
        assert_eq!(registry.counts().done, 1);
        let done = registry.get(1).unwrap();
        done.with_state(|s| match s {
            JobState::Done(output) => assert_eq!(output.counts, vec![1, 2]),
            other => panic!("expected done, got {}", other.name()),
        });
        assert!(registry.get(99).is_none());
        assert_eq!(registry.scheduler_stats().chunks_executed, 1);
    }

    #[test]
    fn chunks_round_robin_across_jobs() {
        let registry = open(4).with_chunk_size(1);
        let a = submit(&registry, spec_with_pool(2)).unwrap();
        let b = submit(&registry, spec_with_pool(2)).unwrap();
        // Fair share: A, B, A, B — not A, A, B, B.
        let order: Vec<(u64, usize)> = (0..4)
            .map(|_| {
                let chunk = registry.next_chunk().unwrap();
                let key = (chunk.job.id, chunk.start);
                registry.finish(chunk, rows(&[0], "bypass"));
                key
            })
            .collect();
        assert_eq!(order, vec![(a.id, 0), (b.id, 0), (a.id, 1), (b.id, 1)]);
        assert_eq!(registry.counts().done, 2);
    }

    #[test]
    fn interleaved_chunks_assemble_in_pool_order() {
        let registry = open(4).with_chunk_size(2);
        submit(&registry, spec_with_pool(5)).unwrap();
        let c1 = registry.next_chunk().unwrap();
        let c2 = registry.next_chunk().unwrap();
        let c3 = registry.next_chunk().unwrap();
        assert_eq!((c1.start, c2.start, c3.start), (0, 2, 4));
        // Finish out of order; assembly is positional.
        registry.finish(c3, rows(&[50], "hit"));
        registry.finish(c1, rows(&[10, 20], "miss"));
        assert_eq!(registry.counts().running, 1, "still one chunk out");
        registry.finish(c2, rows(&[30, 40], "hit"));
        registry.get(1).unwrap().with_state(|s| match s {
            JobState::Done(output) => {
                assert_eq!(output.counts, vec![10, 20, 30, 40, 50]);
                // One missed chunk makes the whole sweep a miss.
                assert_eq!(output.cache, "miss");
            }
            other => panic!("expected done, got {}", other.name()),
        });
    }

    #[test]
    fn queue_bound_enforced() {
        let registry = open(2);
        let a = submit(&registry, spec()).unwrap();
        submit(&registry, spec()).unwrap();
        assert_eq!(
            submit(&registry, spec()).unwrap_err(),
            SubmitError::QueueFull
        );
        // Dealing a chunk moves the job to `running`; it still occupies
        // its admission slot — only finishing frees one.
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, a.id);
        assert_eq!(
            submit(&registry, spec()).unwrap_err(),
            SubmitError::QueueFull
        );
        // The default chunk width covers spec()'s whole 2-attacker pool,
        // so this one completion makes the job terminal and frees a slot.
        registry.finish(chunk, rows(&[1, 1], "bypass"));
        assert!(a.with_state(JobState::is_terminal));
        submit(&registry, spec()).unwrap();
    }

    #[test]
    fn cancel_queued_job_skips_execution() {
        let registry = open(4);
        let a = submit(&registry, spec()).unwrap();
        let b = submit(&registry, spec()).unwrap();
        let cancelled = registry.cancel(a.id).unwrap();
        assert_eq!(cancelled.with_state(JobState::name), "cancelled");
        // The scheduler's next deal skips the cancelled job entirely.
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, b.id);
    }

    #[test]
    fn cancel_with_chunk_in_flight_finalizes_when_it_drains() {
        // Regression: the scheduler drops a cancelled job with an
        // in-flight chunk off the ring without finalizing it, and the
        // job's pool is never fully dealt — it used to stay `running`
        // forever, permanently occupying an admission slot.
        let registry = open(2).with_chunk_size(1);
        let doomed = submit(&registry, spec_with_pool(3)).unwrap();
        let in_flight = registry.next_chunk().unwrap();
        registry.cancel(doomed.id).unwrap();
        assert_eq!(
            doomed.with_state(JobState::name),
            "running",
            "a chunk is still out; cancellation is deferred"
        );
        // The scheduler pops the cancelled job off the ring (and must not
        // deal it); a second job gives it something else to return.
        let other = submit(&registry, spec()).unwrap();
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, other.id);
        // The in-flight chunk drains — the job must finalize even though
        // its pool was never fully dealt.
        registry.finish(in_flight, rows(&[0], "bypass"));
        assert_eq!(doomed.with_state(JobState::name), "cancelled");
        // And its admission slot is free again.
        registry.finish(chunk, rows(&[0], "bypass"));
        submit(&registry, spec()).unwrap();
    }

    #[test]
    fn cancelled_jobs_stay_cancelled() {
        let registry = open(4);
        let job = submit(&registry, spec()).unwrap();
        registry.cancel(job.id).unwrap();
        job.sched().transition(JobState::Done(JobOutput {
            counts: Vec::new(),
            cache: "bypass",
            wall_ms: 0,
        }));
        assert_eq!(job.with_state(JobState::name), "cancelled");
    }

    #[test]
    fn failed_chunk_fails_job_but_not_registry() {
        let registry = open(4).with_chunk_size(1);
        let doomed = submit(&registry, spec_with_pool(3)).unwrap();
        let chunk = registry.next_chunk().unwrap();
        registry.finish(chunk, ChunkResult::Failed("executor panicked".to_string()));
        assert_eq!(doomed.with_state(JobState::name), "failed");
        doomed.with_state(|s| match s {
            JobState::Failed(message) => assert!(message.contains("panicked")),
            other => panic!("expected failed, got {}", other.name()),
        });
        // The remaining pool is never dealt, and new jobs still run.
        let healthy = submit(&registry, spec()).unwrap();
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, healthy.id);
    }

    #[test]
    fn poisoned_job_state_recovers() {
        // Regression: a panic while holding the state lock used to poison
        // it, turning every later `/v1/jobs` request into a panic.
        let registry = open(4);
        let job = submit(&registry, spec()).unwrap();
        let poisoned = Arc::clone(&job);
        let _ = std::thread::spawn(move || {
            poisoned.with_state(|_| panic!("induced executor panic"));
        })
        .join();
        // Every state-touching path still answers.
        assert_eq!(job.with_state(JobState::name), "queued");
        assert_eq!(registry.counts().queued, 1);
        let after = submit(&registry, spec()).unwrap();
        assert_eq!(after.id, job.id + 1);
        let chunk = registry.next_chunk().unwrap();
        registry.finish(chunk, rows(&[1, 2], "bypass"));
    }

    #[test]
    fn close_drains_and_fails_queued() {
        let registry = open(4);
        let job = submit(&registry, spec()).unwrap();
        registry.close();
        assert!(registry.next_chunk().is_none());
        assert_eq!(job.with_state(JobState::name), "failed");
        assert!(submit(&registry, spec()).is_err());
    }

    #[test]
    fn terminal_jobs_survive_restart() {
        // Every outcome a sweep can finish with, "fanout" (a coordinator
        // with --state-dir) included, must restore rather than quarantine.
        for (cache, _) in CACHE_NAMES {
            let dir = scratch_dir("restart");
            let counts;
            {
                let registry = JobRegistry::new(4, Some(dir.clone()));
                let report = registry.scheduler_stats();
                assert_eq!(report, SchedulerStats::default());
                submit(&registry, spec()).unwrap();
                let chunk = registry.next_chunk().unwrap();
                registry.finish(chunk, rows(&[7, 9], cache));
                counts = vec![7, 9];
                assert_eq!(registry.scheduler_stats().jobs_persisted, 1);
            }
            let registry = JobRegistry::new(4, Some(dir.clone()));
            let report = registry.scheduler_stats();
            assert_eq!(report.jobs_restored, 1, "{cache}");
            assert_eq!(report.files_quarantined, 0, "{cache}");
            let job = registry.get(1).expect("restored job answers by id");
            job.with_state(|s| match s {
                JobState::Done(output) => {
                    assert_eq!(output.counts, counts);
                    assert_eq!(output.cache, cache);
                }
                other => panic!("expected done, got {}", other.name()),
            });
            // Ids keep growing past the restored ones.
            let fresh = submit(&registry, spec()).unwrap();
            assert_eq!(fresh.id, 2);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_state_files_are_quarantined() {
        let dir = scratch_dir("quarantine");
        std::fs::write(dir.join("job-3.json"), "{not json at all").unwrap();
        std::fs::write(dir.join("job-4.json"), "{\"id\":4,\"state\":\"running\"}").unwrap();
        // A sweep's total is its pool width: a record claiming 5 of a
        // 4-attacker pool disagrees with itself.
        std::fs::write(
            dir.join("job-5.json"),
            "{\"schema_version\":1,\"id\":5,\"state\":\"cancelled\",\"target\":4211,\
             \"pool\":\"explicit\",\"attackers\":[17,3,998,41],\"validators\":[],\
             \"stub_defense\":false,\"total\":5,\"completed\":0,\"elapsed_ms\":0}\n",
        )
        .unwrap();
        let registry = JobRegistry::new(4, Some(dir.clone()));
        let report = registry.scheduler_stats();
        assert_eq!(report.jobs_restored, 0);
        assert_eq!(report.files_quarantined, 3);
        assert!(registry.get(3).is_none());
        assert!(dir.join("quarantine/job-3.json").exists());
        assert!(dir.join("quarantine/job-4.json").exists());
        assert!(dir.join("quarantine/job-5.json").exists());
        assert!(!dir.join("job-3.json").exists());
        // The registry still works — corrupt files cost nothing but a move
        // — and numbers past the quarantined ids: a client polling `job-5`
        // across the restart must not find a different job there.
        assert_eq!(submit(&registry, spec()).unwrap().id, 6);
        // Nor after the next restart, which finds those records only in
        // quarantine/.
        drop(registry);
        let registry = JobRegistry::new(4, Some(dir.clone()));
        assert_eq!(registry.scheduler_stats().files_quarantined, 0);
        assert!(submit(&registry, spec()).unwrap().id > 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_and_failed_jobs_persist_too() {
        let dir = scratch_dir("terminal");
        {
            let registry = JobRegistry::new(4, Some(dir.clone()));
            let a = submit(&registry, spec()).unwrap();
            registry.cancel(a.id).unwrap();
            submit(&registry, spec()).unwrap();
            let chunk = registry.next_chunk().unwrap();
            registry.finish(chunk, ChunkResult::Failed("induced".to_string()));
        }
        let registry = JobRegistry::new(4, Some(dir.clone()));
        let report = registry.scheduler_stats();
        assert_eq!(report.jobs_restored, 2);
        assert_eq!(
            registry.get(1).unwrap().with_state(JobState::name),
            "cancelled"
        );
        registry.get(2).unwrap().with_state(|s| match s {
            JobState::Failed(message) => assert_eq!(message, "induced"),
            other => panic!("expected failed, got {}", other.name()),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Every terminal shape a sweep record can have — done over explicit,
    /// `"transit"` and `"all"` pools with and without a defense and under
    /// each cache outcome (`"fanout"` included), cancelled and failed — as
    /// the build before this test wrote it: each restores, and
    /// re-serializes byte for byte. That build also wrote four stream-job
    /// records (`job-7`, `-8`, `-9`, `-11`); this one runs no stream jobs,
    /// so those read as corrupt and are quarantined.
    /// (`tests/service.rs` asks a server booted on the same directory for
    /// each record's `/v1/results`.)
    #[test]
    fn golden_records_restore_and_reserialize_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let (mut sweeps, mut streams) = (0, 0);
        for entry in std::fs::read_dir(&dir).expect("fixtures directory") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let name = path.file_name().unwrap().to_str().unwrap();
            if ["job-7.json", "job-8.json", "job-9.json", "job-11.json"].contains(&name) {
                assert!(job_from_doc(&doc).is_none(), "{name} restored");
                streams += 1;
                continue;
            }
            let job =
                job_from_doc(&doc).unwrap_or_else(|| panic!("{} quarantined", path.display()));
            assert!(job.with_state(JobState::is_terminal));
            assert_eq!(
                job.with_state(|state| job_to_doc(&job, state))
                    .render_compact()
                    + "\n",
                text,
                "{}",
                path.display()
            );
            sweeps += 1;
        }
        assert_eq!(
            (sweeps, streams),
            (9, 4),
            "a golden record went missing from {}",
            dir.display()
        );
    }
}
