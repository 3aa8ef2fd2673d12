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
//! happens *inside* chunks.
//!
//! `POST /v1/stream` enqueues a *stream* job ([`JobSpec::Stream`])
//! through the same registry: one schedulable unit (the whole event
//! tape — events are strictly ordered, so there is nothing to slice),
//! progress ticked per event, and a shared [`StreamStore`] that
//! `GET /v1/stream/:id/range` reads live while the executor is still
//! appending. Fair share still holds: the stream's single chunk takes
//! one executor slot and every other job keeps rotating through the
//! rest.
//!
//! Progress lands in relaxed atomics that `GET /v1/jobs/:id` reads
//! lock-free; `DELETE` flips the job's cancellation flag, which the sweep
//! engine polls per attack ([`bgpsim_hijack::SweepMonitor`]).
//!
//! Every lock acquisition recovers from poisoning
//! (`unwrap_or_else(PoisonError::into_inner)`): a panicking executor must
//! never take `/v1/jobs` down with it. The executor reports panics
//! through [`JobRegistry::fail_chunk`], which marks the in-flight job
//! `failed` and keeps scheduling everyone else.
//!
//! When the registry is built with a state directory, terminal jobs
//! (done, cancelled, failed) are serialized through
//! [`bgpsim_core::manifest::Json`] to `job-<id>.json` and reloaded on the
//! next boot, so `GET /v1/results/:id` survives a restart. Unreadable
//! state files are quarantined (moved aside), never fatal.
//!
//! Retention is bounded: once more than [`JobRegistry::MAX_RETAINED`]
//! jobs exist, the oldest *finished* jobs are forgotten (their ids then
//! answer 404). Queued and running jobs are never evicted.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bgpsim_core::manifest::{stream_summary_from_json, stream_summary_json, Json, SCHEMA_VERSION};
use bgpsim_core::stream::{StreamConfig, StreamPlan, StreamStore, StreamSummary};
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
pub struct SweepSpec {
    /// Attacked target.
    pub target: AsIndex,
    /// Attacker pool, already strided and with the target filtered out.
    pub pool: Vec<AsIndex>,
    /// Resolved defense deployment.
    pub defense: Defense,
    /// The same sweep in wire terms — target ASN, the pool's ASNs
    /// index-aligned with `pool`, sorted and deduplicated validator ASNs,
    /// the stub-defense flag: what job and result documents echo, and
    /// what a fan-out coordinator deals to its fleet as is.
    pub request: SweepRequest,
    /// Wire name of the attacker pool (`"all"`, `"transit"`,
    /// `"explicit"`), echoed in documents.
    pub pool_kind: &'static str,
}

/// Everything the executor needs to run one update stream, resolved at
/// submission time. The store is shared (`Arc<Mutex>`) because range
/// queries read it *while* the executor appends — that live view is the
/// point of a stream job.
#[derive(Debug)]
pub struct StreamSpec {
    /// Generator parameters (echoed in documents; the plan below is
    /// already materialized from them).
    pub config: StreamConfig,
    /// The materialized event tape.
    pub plan: StreamPlan,
    /// Tracked targets' ASNs, index-aligned with `plan.targets`.
    pub target_asns: Vec<u32>,
    /// Ground-truth hijack injections in the plan.
    pub injected: usize,
    /// The live time-series store `GET /v1/stream/:id/range` reads.
    pub store: Arc<Mutex<StreamStore>>,
}

/// What a [`Job`] runs: a §IV pollution sweep or a live update stream.
#[derive(Debug)]
pub enum JobSpec {
    /// Attacker-pool sweep, chunked across executors.
    Sweep(SweepSpec),
    /// Update stream, one chunk covering the whole event tape.
    Stream(StreamSpec),
}

impl JobSpec {
    /// Schedulable units: one per pool attacker for sweeps; a single
    /// all-events unit for streams (events are strictly ordered, so a
    /// stream cannot be sliced across executors).
    fn work_units(&self) -> usize {
        match self {
            JobSpec::Sweep(spec) => spec.pool.len(),
            JobSpec::Stream(_) => 1,
        }
    }

    /// Progress denominator surfaced as the job's `total`: attacks for
    /// sweeps, events for streams.
    fn progress_total(&self) -> usize {
        match self {
            JobSpec::Sweep(spec) => spec.pool.len(),
            JobSpec::Stream(spec) => spec.plan.events.len(),
        }
    }

    /// The sweep spec, when this is a sweep job.
    pub fn as_sweep(&self) -> Option<&SweepSpec> {
        match self {
            JobSpec::Sweep(spec) => Some(spec),
            JobSpec::Stream(_) => None,
        }
    }

    /// The stream spec, when this is a stream job.
    pub fn as_stream(&self) -> Option<&StreamSpec> {
        match self {
            JobSpec::Sweep(_) => None,
            JobSpec::Stream(spec) => Some(spec),
        }
    }
}

/// A finished job's payload.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// One pollution count per pool attacker, in pool order (empty for
    /// stream jobs).
    pub counts: Vec<u32>,
    /// How the baseline cache served this sweep (`"bypass"` when the
    /// sweep did not use it; the coldest outcome across chunks otherwise).
    pub cache: &'static str,
    /// Wall time from first chunk dispatched to last chunk finished.
    pub wall_ms: u64,
    /// Stream summary, for stream jobs only: over the events processed,
    /// fewer than the plan's when cancelled mid-tape.
    pub stream: Option<StreamSummary>,
}

/// Lifecycle of a job.
#[derive(Debug)]
pub enum JobState {
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
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Cancelled | JobState::Failed(_)
        )
    }
}

/// Sentinel for "ETA unknown" in [`Job::eta_ms`].
pub const ETA_UNKNOWN: u64 = u64::MAX;

/// Chunk-assembled sweep rows, plus the coldest cache outcome seen and
/// the first failure (if any). Stream jobs leave `counts` empty and
/// deposit their summary in `stream`.
#[derive(Debug)]
struct Partial {
    counts: Vec<u32>,
    cache: &'static str,
    failure: Option<String>,
    stream: Option<StreamSummary>,
}

/// Every name a job's `meta.cache` can carry, with its rank. Ranks order
/// outcomes coldest-last so a job reports the most expensive thing that
/// happened to it: one missed chunk makes the whole sweep a `"miss"` even
/// though later chunks hit. `"fanout"` marks a sweep dealt to remote
/// workers: no local cache story at all, but still worth surfacing over
/// the `"bypass"` default (a fanout job runs as one whole-pool chunk, so it
/// never competes with real cache outcomes).
///
/// [`JobRegistry::finish_chunk`] admits a name only through [`cache_rank`]
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

/// One submitted job.
#[derive(Debug)]
pub struct Job {
    /// Monotonic id; `job-<id>` on the wire.
    pub id: u64,
    /// The work to run.
    pub spec: JobSpec,
    state: Mutex<JobState>,
    /// Set by `DELETE /v1/jobs/:id`; polled per attack by the engine.
    pub cancel: AtomicBool,
    /// Attacks finished so far (progress callback).
    pub completed: AtomicUsize,
    /// Total attacks in the sweep.
    pub total: AtomicUsize,
    /// Wall time so far, milliseconds.
    pub elapsed_ms: AtomicU64,
    /// Estimated remaining time, milliseconds ([`ETA_UNKNOWN`] until the
    /// first attack completes).
    pub eta_ms: AtomicU64,
    /// True for jobs reloaded from the state directory at boot; they are
    /// terminal forever and never scheduled.
    pub restored: bool,
    /// First pool index not yet dealt to an executor. Mutated only under
    /// the registry lock.
    next_attacker: AtomicUsize,
    /// Chunks dealt out but not yet reported back. Mutated only under the
    /// registry lock.
    chunks_in_flight: AtomicUsize,
    /// When the first chunk was dispatched.
    started: Mutex<Option<Instant>>,
    partial: Mutex<Partial>,
    /// Guards the one-shot terminal-state write to the state directory.
    persisted: AtomicBool,
    /// Fan-out shard progress, all zero unless the sweep executor dealt
    /// this job to remote workers: shards planned, completed and re-queued
    /// after a failure. Surfaced as the `shards` object on
    /// `GET /v1/jobs/:id`.
    pub shards_total: AtomicU64,
    /// Shards completed (see [`Job::shards_total`]).
    pub shards_done: AtomicU64,
    /// Shards re-queued after a failed dispatch.
    pub shards_retried: AtomicU64,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Job {
        let counts = match &spec {
            JobSpec::Sweep(sweep) => vec![0; sweep.pool.len()],
            JobSpec::Stream(_) => Vec::new(),
        };
        let total = spec.progress_total();
        Job {
            id,
            partial: Mutex::new(Partial {
                counts,
                cache: "bypass",
                failure: None,
                stream: None,
            }),
            spec,
            state: Mutex::new(JobState::Queued),
            cancel: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            total: AtomicUsize::new(total),
            elapsed_ms: AtomicU64::new(0),
            eta_ms: AtomicU64::new(ETA_UNKNOWN),
            restored: false,
            next_attacker: AtomicUsize::new(0),
            chunks_in_flight: AtomicUsize::new(0),
            started: Mutex::new(None),
            persisted: AtomicBool::new(false),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            shards_retried: AtomicU64::new(0),
        }
    }

    /// Wire id (`job-<n>`).
    pub fn wire_id(&self) -> String {
        format!("job-{}", self.id)
    }

    /// Runs `f` against the current state.
    pub fn with_state<R>(&self, f: impl FnOnce(&JobState) -> R) -> R {
        f(&lock_recover(&self.state))
    }

    /// Transitions to `next` unless already terminal (a cancelled job
    /// stays cancelled even if the executor later reports completion).
    pub fn transition(&self, next: JobState) {
        let mut state = lock_recover(&self.state);
        if !state.is_terminal() {
            *state = next;
        }
    }

    /// When the first chunk of this job was dispatched (`None` while
    /// queued).
    pub fn started_at(&self) -> Option<Instant> {
        *lock_recover(&self.started)
    }

    /// The job's progress tick: `tick(n)` records `n` more finished work
    /// units and refreshes `elapsed_ms` and `eta_ms` (elapsed × remaining /
    /// done). Job-level, not chunk-level — several chunks of one job may
    /// tick concurrently from different executors. The start instant and
    /// the total are read once here, so a tick takes no lock.
    pub fn progress_ticker(&self) -> impl Fn(usize) + '_ {
        let started_at = self.started_at();
        let total = self.total.load(Ordering::Relaxed);
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
/// job, or the entire event tape of a stream job (`start..end` is `0..1`).
#[derive(Debug)]
pub struct Chunk {
    /// The job this chunk belongs to.
    pub job: Arc<Job>,
    /// First work-unit index of the chunk (inclusive).
    pub start: usize,
    /// Last work-unit index of the chunk (exclusive).
    pub end: usize,
}

impl Chunk {
    /// The chunk's slice of a sweep job's attacker pool (empty for a
    /// stream chunk — its work is the whole event tape).
    pub fn attackers(&self) -> &[AsIndex] {
        match &self.job.spec {
            JobSpec::Sweep(spec) => &spec.pool[self.start..self.end],
            JobSpec::Stream(_) => &[],
        }
    }
}

struct RegistryInner {
    /// Every retained job, oldest first.
    jobs: VecDeque<Arc<Job>>,
    /// Round-robin ring of jobs with undealt chunks. A job appears at
    /// most once; it is pushed to the back after each chunk is dealt and
    /// drops out once fully dealt (or terminal).
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
pub struct SchedulerStats {
    /// Chunks finished (successfully or not) by the executor pool.
    pub chunks_executed: u64,
    /// Terminal job records written to the state directory.
    pub jobs_persisted: u64,
    /// Terminal jobs reloaded from the state directory at boot.
    pub jobs_restored: u64,
    /// Unreadable state files moved to quarantine at boot.
    pub files_quarantined: u64,
}

/// What [`JobRegistry::with_state_dir`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Terminal jobs reloaded into the registry.
    pub restored: usize,
    /// Unreadable files moved to `<state-dir>/quarantine/`.
    pub quarantined: usize,
}

/// Owns every job, the fair-share chunk ring, and the state directory.
pub struct JobRegistry {
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
pub struct JobCounts {
    /// Jobs waiting for their first chunk.
    pub queued: usize,
    /// Jobs currently sweeping.
    pub running: usize,
    /// Jobs finished with results.
    pub done: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Jobs failed.
    pub failed: usize,
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
    pub const MAX_RETAINED: usize = 256;

    /// Idempotency keys retained (FIFO) before the oldest are forgotten.
    pub const MAX_IDEMPOTENCY_KEYS: usize = 1024;

    /// Attackers per scheduling chunk: small enough that a short job
    /// never waits behind more than one chunk of a long one, large enough
    /// that per-chunk overhead (cache lookup, dispatch) stays negligible
    /// against the rayon fan-out inside the chunk.
    pub const CHUNK_ATTACKERS: usize = 64;

    /// A registry accepting at most `max_queued` unstarted jobs, with no
    /// persistence.
    pub fn new(max_queued: usize) -> JobRegistry {
        JobRegistry::with_state_dir(max_queued, None).0
    }

    /// A registry that persists terminal jobs to `state_dir` (when given)
    /// and reloads the ones already there, quarantining unreadable files
    /// instead of failing the boot.
    pub fn with_state_dir(
        max_queued: usize,
        state_dir: Option<PathBuf>,
    ) -> (JobRegistry, RestoreReport) {
        let mut report = RestoreReport::default();
        let mut jobs = VecDeque::new();
        let mut next_id = 1;
        if let Some(dir) = &state_dir {
            let (restored, quarantined) = restore_jobs(dir);
            report.restored = restored.len();
            report.quarantined = quarantined;
            for job in restored {
                next_id = next_id.max(job.id + 1);
                jobs.push_back(job);
            }
        }
        let registry = JobRegistry {
            inner: Mutex::new(RegistryInner {
                jobs,
                ring: VecDeque::new(),
                idempotency: VecDeque::new(),
                next_id,
                closed: false,
            }),
            pending: Condvar::new(),
            max_queued: max_queued.max(1),
            chunk_size: JobRegistry::CHUNK_ATTACKERS,
            state_dir,
            chunks_executed: AtomicU64::new(0),
            jobs_persisted: AtomicU64::new(0),
            jobs_restored: report.restored as u64,
            files_quarantined: report.quarantined as u64,
        };
        (registry, report)
    }

    /// Overrides the scheduling chunk size (tests use 1 to force
    /// fine-grained interleaving).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> JobRegistry {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Scheduler/persistence counter snapshot.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            chunks_executed: self.chunks_executed.load(Ordering::Relaxed),
            jobs_persisted: self.jobs_persisted.load(Ordering::Relaxed),
            jobs_restored: self.jobs_restored,
            files_quarantined: self.files_quarantined,
        }
    }

    /// Enqueues a job (sweep or stream), returning the job handle, or an
    /// error message when the queue is full (HTTP 429) or the server is
    /// draining (HTTP 503).
    ///
    /// The admission bound counts every *unfinished* job (queued or
    /// running), not just queued ones: under fair-share scheduling a
    /// job's first chunk is dealt almost immediately, so a queued-only
    /// bound would admit an unbounded backlog of jobs all nominally
    /// "running". Restored jobs are terminal by construction and never
    /// count.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, &'static str> {
        self.submit_keyed(spec, None).map(|(job, _)| job)
    }

    /// [`JobRegistry::submit`] with an optional client idempotency key.
    /// Returns `(job, fresh)`: a resubmission under a retained key
    /// returns the original job with `fresh == false` and schedules
    /// nothing — a coordinator retrying a timed-out submit cannot
    /// double-schedule its shard. Keys are retained FIFO up to
    /// [`JobRegistry::MAX_IDEMPOTENCY_KEYS`]; a key whose job has since
    /// been forgotten is treated as fresh.
    pub fn submit_keyed(
        &self,
        spec: JobSpec,
        key: Option<String>,
    ) -> Result<(Arc<Job>, bool), &'static str> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err("server is shutting down");
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
            .filter(|j| j.with_state(|s| !s.is_terminal()))
            .count();
        if active >= self.max_queued {
            return Err("job queue is full");
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
    pub fn snapshot(&self) -> Vec<Arc<Job>> {
        lock_recover(&self.inner).jobs.iter().cloned().collect()
    }

    /// Looks up a retained job by numeric id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
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
    pub fn next_chunk(&self) -> Option<Chunk> {
        let mut inner = lock_recover(&self.inner);
        loop {
            while let Some(job) = inner.ring.pop_front() {
                if job.with_state(JobState::is_terminal) {
                    continue;
                }
                if job.cancel.load(Ordering::Relaxed) {
                    // Reap a cancelled job with nothing in flight; one
                    // with chunks still out finalizes when they drain.
                    if job.chunks_in_flight.load(Ordering::Relaxed) == 0 {
                        job.transition(JobState::Cancelled);
                        self.persist_terminal(&job);
                    }
                    continue;
                }
                let total = job.spec.work_units();
                let start = job.next_attacker.load(Ordering::Relaxed);
                if start >= total {
                    continue; // fully dealt; finish_chunk finalizes
                }
                let end = (start + self.chunk_size).min(total);
                job.next_attacker.store(end, Ordering::Relaxed);
                job.chunks_in_flight.fetch_add(1, Ordering::Relaxed);
                if start == 0 {
                    job.transition(JobState::Running);
                    *lock_recover(&job.started) = Some(Instant::now());
                }
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

    /// Reports a chunk's rows back. When this was the job's last
    /// outstanding chunk, assembles the output and finalizes the job.
    pub fn finish_chunk(&self, chunk: &Chunk, rows: &[u32], cache: &'static str) {
        debug_assert_eq!(rows.len(), chunk.end - chunk.start);
        {
            let mut partial = lock_recover(&chunk.job.partial);
            let n = rows.len().min(chunk.end - chunk.start);
            partial.counts[chunk.start..chunk.start + n].copy_from_slice(&rows[..n]);
            if cache_rank(cache) > cache_rank(partial.cache) {
                partial.cache = cache;
            }
        }
        self.chunk_done(&chunk.job, None);
    }

    /// Reports a stream chunk's summary back and finalizes the job (a
    /// stream job has exactly one chunk). A cancelled stream still lands
    /// here with its partial summary — `chunk_done` keeps the terminal
    /// state `cancelled`, which discards it, matching sweep semantics.
    pub fn finish_stream_chunk(&self, chunk: &Chunk, summary: StreamSummary) {
        {
            let mut partial = lock_recover(&chunk.job.partial);
            partial.stream = Some(summary);
        }
        self.chunk_done(&chunk.job, None);
    }

    /// Reports a chunk that died (executor panic). The job stops being
    /// scheduled and finalizes as `failed` once in-flight chunks drain;
    /// every other job keeps running.
    pub fn fail_chunk(&self, chunk: &Chunk, message: impl Into<String>) {
        self.chunk_done(&chunk.job, Some(message.into()));
    }

    fn chunk_done(&self, job: &Arc<Job>, failure: Option<String>) {
        self.chunks_executed.fetch_add(1, Ordering::Relaxed);
        let mut terminal: Option<JobState> = None;
        {
            let _inner = lock_recover(&self.inner);
            if let Some(message) = failure {
                let mut partial = lock_recover(&job.partial);
                partial.failure.get_or_insert(message);
                drop(partial);
                // Stop dealing the rest of the pool and hasten in-flight
                // chunks to bail (the sweep engine polls the flag).
                job.next_attacker
                    .store(job.spec.work_units(), Ordering::Relaxed);
                job.cancel.store(true, Ordering::Relaxed);
            }
            let in_flight = job.chunks_in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
            let fully_dealt = job.next_attacker.load(Ordering::Relaxed) >= job.spec.work_units();
            // A cancelled job never becomes fully dealt (the scheduler
            // stops dealing it), so the cancel flag alone must finalize it
            // once its in-flight chunks drain — otherwise it is stuck
            // `running` forever and leaks an admission slot.
            if in_flight == 0 && (fully_dealt || job.cancel.load(Ordering::Relaxed)) {
                let mut partial = lock_recover(&job.partial);
                terminal = Some(if let Some(message) = partial.failure.take() {
                    JobState::Failed(message)
                } else if job.cancel.load(Ordering::Relaxed) {
                    // A cancelled sweep returns zero rows for skipped
                    // attackers — not real results, so they are discarded.
                    JobState::Cancelled
                } else {
                    let wall = job
                        .started_at()
                        .map_or(0, |t| t.elapsed().as_millis() as u64);
                    JobState::Done(JobOutput {
                        counts: std::mem::take(&mut partial.counts),
                        cache: partial.cache,
                        wall_ms: wall,
                        stream: partial.stream.take(),
                    })
                });
            }
        }
        if let Some(next) = terminal {
            job.transition(next);
            self.persist_terminal(job);
        }
    }

    /// Requests cancellation of a job. Jobs with no chunk in flight
    /// (queued, or running between chunks) become `cancelled`
    /// immediately; a running chunk notices the flag per attack and the
    /// job finalizes when its chunks drain. Returns the job, or `None` if
    /// the id is unknown.
    pub fn cancel(&self, id: u64) -> Option<Arc<Job>> {
        let job = {
            let inner = lock_recover(&self.inner);
            let job = inner.jobs.iter().find(|j| j.id == id).cloned()?;
            job.cancel.store(true, Ordering::Relaxed);
            if job.chunks_in_flight.load(Ordering::Relaxed) == 0 {
                // Between chunks (or never started): nothing will report
                // back, so finalize here; the ring skips terminal jobs.
                job.transition(JobState::Cancelled);
            }
            job
        };
        self.persist_terminal(&job);
        Some(job)
    }

    /// Closes the registry: refuses new submissions, cancels every
    /// not-yet-terminal job, and wakes the executors so they can exit.
    pub fn close(&self) {
        let mut to_persist = Vec::new();
        {
            let mut inner = lock_recover(&self.inner);
            inner.closed = true;
            for job in &inner.jobs {
                job.cancel.store(true, Ordering::Relaxed);
                let queued = job.with_state(|s| matches!(s, JobState::Queued));
                if queued {
                    job.transition(JobState::Failed("server shut down".to_string()));
                    to_persist.push(Arc::clone(job));
                } else if job.chunks_in_flight.load(Ordering::Relaxed) == 0 {
                    // Running but between chunks: nothing will report back.
                    job.transition(JobState::Cancelled);
                    to_persist.push(Arc::clone(job));
                }
            }
            inner.ring.clear();
        }
        self.pending.notify_all();
        for job in to_persist {
            self.persist_terminal(&job);
        }
    }

    /// Per-state counts over retained jobs.
    pub fn counts(&self) -> JobCounts {
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

    /// Writes a terminal job's record to the state directory, once.
    /// Failures are swallowed: persistence is best-effort durability, not
    /// a correctness dependency of the running server.
    fn persist_terminal(&self, job: &Arc<Job>) {
        let Some(dir) = &self.state_dir else { return };
        if !job.with_state(JobState::is_terminal) {
            return;
        }
        if job.persisted.swap(true, Ordering::Relaxed) {
            return;
        }
        let doc = job_to_doc(job);
        let path = dir.join(format!("job-{}.json", job.id));
        let tmp = dir.join(format!("job-{}.json.tmp", job.id));
        let mut text = doc.render_compact();
        text.push('\n');
        // Write-then-rename so a crash mid-write leaves a quarantinable
        // .tmp, never a torn job-<id>.json.
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.jobs_persisted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serializes a terminal job to its on-disk record. Sweep records keep
/// the pre-stream field layout (no `kind`, the defense flat beside the
/// pool) so documents written by older builds restore unchanged — the
/// golden records under `tests/fixtures/` pin both directions; stream
/// records carry `"kind":"stream"`.
fn job_to_doc(job: &Job) -> Json {
    let mut pairs = vec![
        ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
        ("id".to_string(), Json::from(job.id)),
        (
            "state".to_string(),
            Json::str(job.with_state(JobState::name)),
        ),
    ];
    match &job.spec {
        JobSpec::Sweep(spec) => {
            let request = &spec.request;
            pairs.extend([
                ("target".to_string(), Json::from(request.target_asn)),
                ("pool".to_string(), Json::str(spec.pool_kind)),
                ("attackers".to_string(), Json::u32s(&request.pool_asns)),
                (
                    "validators".to_string(),
                    Json::u32s(&request.validator_asns),
                ),
                ("stub_defense".to_string(), Json::Bool(request.stub_defense)),
            ]);
        }
        JobSpec::Stream(spec) => pairs.extend([
            ("kind".to_string(), Json::str("stream")),
            ("events".to_string(), Json::from(spec.config.events)),
            ("stream_seed".to_string(), Json::from(spec.config.seed)),
            ("targets".to_string(), Json::u32s(&spec.target_asns)),
            ("injected".to_string(), Json::from(spec.injected)),
        ]),
    }
    pairs.extend([
        (
            "total".to_string(),
            Json::from(job.total.load(Ordering::Relaxed)),
        ),
        (
            "completed".to_string(),
            Json::from(job.completed.load(Ordering::Relaxed)),
        ),
        (
            "elapsed_ms".to_string(),
            Json::from(job.elapsed_ms.load(Ordering::Relaxed)),
        ),
    ]);
    job.with_state(|state| match state {
        JobState::Done(output) => {
            let mut out = vec![
                ("counts".to_string(), Json::u32s(&output.counts)),
                ("cache".to_string(), Json::str(output.cache)),
                ("wall_ms".to_string(), Json::from(output.wall_ms)),
            ];
            if let Some(stream) = &output.stream {
                out.push(("stream".to_string(), stream_summary_json(stream)));
            }
            pairs.push(("output".to_string(), Json::Obj(out)));
        }
        JobState::Failed(message) => {
            pairs.push(("error".to_string(), Json::str(message.clone())));
        }
        _ => {}
    });
    Json::Obj(pairs)
}

/// Parses the `"done"` output object shared by both record kinds.
/// `expect_counts` is the sweep pool width (`None` for stream records,
/// whose counts must be empty).
fn output_from_doc(doc: &Json, expect_counts: Option<usize>) -> Option<JobOutput> {
    let output = doc.get("output")?;
    let counts = output.get("counts")?.as_u32_array()?;
    if counts.len() != expect_counts.unwrap_or(0) {
        return None;
    }
    Some(JobOutput {
        counts,
        cache: cache_name(output.get("cache")?.as_str()?)?.0,
        wall_ms: output.get("wall_ms")?.as_u64()?,
        stream: match output.get("stream") {
            None => None,
            Some(stream) => Some(stream_summary_from_json(stream)?),
        },
    })
}

/// Deserializes one state-directory record; `None` means the file is
/// corrupt (and should be quarantined).
fn job_from_doc(doc: &Json) -> Option<Arc<Job>> {
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    let id = count("id")?;
    let is_stream = doc.get("kind").and_then(Json::as_str) == Some("stream");
    let total = usize::try_from(count("total")?).ok()?;
    let completed = count("completed").unwrap_or(0) as usize;
    let elapsed_ms = count("elapsed_ms").unwrap_or(0);
    let spec = if is_stream {
        let target_asns = doc.get("targets")?.as_u32_array()?;
        JobSpec::Stream(StreamSpec {
            // Runtime fields are placeholders: restored jobs are terminal
            // and never scheduled, and per-event samples are not persisted
            // (range queries on a restored stream answer 410).
            config: StreamConfig {
                events: total,
                seed: count("stream_seed").unwrap_or(0),
                num_targets: target_asns.len().max(1),
                ..StreamConfig::default()
            },
            plan: StreamPlan {
                initial_validators: Vec::new(),
                targets: Vec::new(),
                stub_defense: false,
                events: Vec::new(),
            },
            target_asns,
            injected: count("injected").unwrap_or(0) as usize,
            store: Arc::new(Mutex::new(StreamStore::new(1, 1))),
        })
    } else {
        let pool_kind = match doc.get("pool")?.as_str()? {
            "all" => "all",
            "transit" => "transit",
            "explicit" => "explicit",
            _ => return None,
        };
        JobSpec::Sweep(SweepSpec {
            // Runtime fields are placeholders: restored jobs are terminal
            // and never scheduled, so only the echoed wire terms (ASNs,
            // pool kind, defense description) matter.
            target: AsIndex::new(0),
            pool: Vec::new(),
            defense: Defense::none(),
            request: SweepRequest {
                target_asn: doc.get("target")?.as_u32()?,
                pool_asns: doc.get("attackers")?.as_u32_array()?,
                validator_asns: doc.get("validators")?.as_u32_array()?,
                stub_defense: doc.get("stub_defense").and_then(Json::as_bool) == Some(true),
            },
            pool_kind,
        })
    };
    let state = match doc.get("state")?.as_str()? {
        "done" => {
            let expect_counts = spec.as_sweep().map(|s| s.request.pool_asns.len());
            let output = output_from_doc(doc, expect_counts)?;
            if is_stream && output.stream.is_none() {
                return None;
            }
            JobState::Done(output)
        }
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
        state: Mutex::new(state),
        completed: AtomicUsize::new(completed),
        total: AtomicUsize::new(total),
        elapsed_ms: AtomicU64::new(elapsed_ms),
        restored: true,
        // Fully dealt, and already on disk: never scheduled or rewritten.
        next_attacker: AtomicUsize::new(spec.work_units()),
        persisted: AtomicBool::new(true),
        ..Job::new(id, spec)
    }))
}

/// Scans `dir` for `job-*.json` records, quarantining unreadable ones.
/// Returns the restored jobs (oldest first, newest [`JobRegistry::MAX_RETAINED`]
/// only) and the number of files quarantined.
fn restore_jobs(dir: &Path) -> (Vec<Arc<Job>>, usize) {
    let _ = std::fs::create_dir_all(dir);
    let mut restored: Vec<Arc<Job>> = Vec::new();
    let mut quarantined = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (restored, quarantined);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("job-") || !name.ends_with(".json") {
            continue;
        }
        let job = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| job_from_doc(&doc));
        match job {
            Some(job) => restored.push(job),
            None => {
                quarantine(dir, &path);
                quarantined += 1;
            }
        }
    }
    restored.sort_by_key(|j| j.id);
    if restored.len() > JobRegistry::MAX_RETAINED {
        let drop_n = restored.len() - JobRegistry::MAX_RETAINED;
        restored.drain(..drop_n);
    }
    (restored, quarantined)
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
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        spec_with_pool(2)
    }

    fn spec_with_pool(n: u32) -> JobSpec {
        JobSpec::Sweep(SweepSpec {
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
        })
    }

    fn stream_spec(events: usize) -> JobSpec {
        JobSpec::Stream(StreamSpec {
            config: StreamConfig {
                events,
                seed: 7,
                num_targets: 2,
                ..StreamConfig::default()
            },
            plan: StreamPlan {
                initial_validators: Vec::new(),
                targets: vec![AsIndex::new(3), AsIndex::new(5)],
                stub_defense: true,
                // An empty tape is fine here: registry tests never
                // evaluate events, only schedule the single chunk.
                events: Vec::new(),
            },
            target_asns: vec![4, 6],
            injected: 3,
            store: Arc::new(Mutex::new(StreamStore::sized_for(events))),
        })
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
        let registry = JobRegistry::new(4);
        let job = registry.submit(spec()).unwrap();
        assert_eq!(job.wire_id(), "job-1");
        assert_eq!(registry.counts().queued, 1);
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, job.id);
        assert_eq!((chunk.start, chunk.end), (0, 2));
        assert_eq!(registry.counts().running, 1);
        registry.finish_chunk(&chunk, &[1, 2], "bypass");
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
        let registry = JobRegistry::new(4).with_chunk_size(1);
        let a = registry.submit(spec_with_pool(2)).unwrap();
        let b = registry.submit(spec_with_pool(2)).unwrap();
        // Fair share: A, B, A, B — not A, A, B, B.
        let order: Vec<(u64, usize)> = (0..4)
            .map(|_| {
                let chunk = registry.next_chunk().unwrap();
                let key = (chunk.job.id, chunk.start);
                registry.finish_chunk(&chunk, &[0], "bypass");
                key
            })
            .collect();
        assert_eq!(order, vec![(a.id, 0), (b.id, 0), (a.id, 1), (b.id, 1)]);
        assert_eq!(registry.counts().done, 2);
    }

    #[test]
    fn interleaved_chunks_assemble_in_pool_order() {
        let registry = JobRegistry::new(4).with_chunk_size(2);
        registry.submit(spec_with_pool(5)).unwrap();
        let c1 = registry.next_chunk().unwrap();
        let c2 = registry.next_chunk().unwrap();
        let c3 = registry.next_chunk().unwrap();
        assert_eq!((c1.start, c2.start, c3.start), (0, 2, 4));
        // Finish out of order; assembly is positional.
        registry.finish_chunk(&c3, &[50], "hit");
        registry.finish_chunk(&c1, &[10, 20], "miss");
        assert_eq!(registry.counts().running, 1, "still one chunk out");
        registry.finish_chunk(&c2, &[30, 40], "hit");
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
        let registry = JobRegistry::new(2);
        let a = registry.submit(spec()).unwrap();
        registry.submit(spec()).unwrap();
        assert_eq!(registry.submit(spec()).unwrap_err(), "job queue is full");
        // Dealing a chunk moves the job to `running`; it still occupies
        // its admission slot — only finishing frees one.
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, a.id);
        assert_eq!(registry.submit(spec()).unwrap_err(), "job queue is full");
        // The default chunk width covers spec()'s whole 2-attacker pool,
        // so this one completion makes the job terminal and frees a slot.
        registry.finish_chunk(&chunk, &[1, 1], "bypass");
        assert!(a.with_state(JobState::is_terminal));
        registry.submit(spec()).unwrap();
    }

    #[test]
    fn cancel_queued_job_skips_execution() {
        let registry = JobRegistry::new(4);
        let a = registry.submit(spec()).unwrap();
        let b = registry.submit(spec()).unwrap();
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
        let registry = JobRegistry::new(2).with_chunk_size(1);
        let doomed = registry.submit(spec_with_pool(3)).unwrap();
        let in_flight = registry.next_chunk().unwrap();
        registry.cancel(doomed.id).unwrap();
        assert_eq!(
            doomed.with_state(JobState::name),
            "running",
            "a chunk is still out; cancellation is deferred"
        );
        // The scheduler pops the cancelled job off the ring (and must not
        // deal it); a second job gives it something else to return.
        let other = registry.submit(spec()).unwrap();
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, other.id);
        // The in-flight chunk drains — the job must finalize even though
        // its pool was never fully dealt.
        registry.finish_chunk(&in_flight, &[0], "bypass");
        assert_eq!(doomed.with_state(JobState::name), "cancelled");
        // And its admission slot is free again.
        registry.finish_chunk(&chunk, &[0], "bypass");
        registry.submit(spec()).unwrap();
    }

    #[test]
    fn cancelled_jobs_stay_cancelled() {
        let registry = JobRegistry::new(4);
        let job = registry.submit(spec()).unwrap();
        registry.cancel(job.id).unwrap();
        job.transition(JobState::Done(JobOutput {
            counts: Vec::new(),
            cache: "bypass",
            wall_ms: 0,
            stream: None,
        }));
        assert_eq!(job.with_state(JobState::name), "cancelled");
    }

    #[test]
    fn stream_job_is_one_chunk_with_event_progress() {
        let registry = JobRegistry::new(4);
        let job = registry.submit(stream_spec(50)).unwrap();
        assert!(job.spec.as_stream().is_some());
        // The whole tape is a single schedulable unit...
        let chunk = registry.next_chunk().unwrap();
        assert_eq!((chunk.start, chunk.end), (0, 1));
        assert!(chunk.attackers().is_empty());
        assert_eq!(registry.counts().running, 1);
        // ...and nothing else of this job is ever dealt.
        let other = registry.submit(spec()).unwrap();
        let next = registry.next_chunk().unwrap();
        assert_eq!(next.job.id, other.id);
        // Per-event progress ticks the job atomics, not chunk accounting.
        chunk.job.completed.store(37, Ordering::Relaxed);
        registry.finish_stream_chunk(
            &chunk,
            StreamSummary {
                events: 50,
                injected: 3,
                detected: 2,
                mean_latency: Some(1.5),
                max_latency: Some(3),
            },
        );
        job.with_state(|s| match s {
            JobState::Done(output) => {
                assert!(output.counts.is_empty());
                let stream = output.stream.as_ref().expect("stream summary");
                assert_eq!(stream.detected, 2);
            }
            other => panic!("expected done, got {}", other.name()),
        });
    }

    #[test]
    fn cancelled_stream_job_discards_its_summary() {
        let registry = JobRegistry::new(4);
        let job = registry.submit(stream_spec(50)).unwrap();
        let chunk = registry.next_chunk().unwrap();
        registry.cancel(job.id).unwrap();
        // The executor notices the flag mid-tape and reports what it had;
        // cancellation wins, matching sweep semantics.
        registry.finish_stream_chunk(
            &chunk,
            StreamSummary {
                events: 12,
                injected: 1,
                detected: 0,
                mean_latency: None,
                max_latency: None,
            },
        );
        assert_eq!(job.with_state(JobState::name), "cancelled");
    }

    #[test]
    fn stream_jobs_persist_summary_only_and_restore_terminal() {
        let dir = scratch_dir("stream");
        {
            let (registry, _) = JobRegistry::with_state_dir(4, Some(dir.clone()));
            let job = registry.submit(stream_spec(50)).unwrap();
            {
                let mut store = lock_recover(&job.spec.as_stream().unwrap().store);
                store.push("pollution", 0, 9.0);
            }
            let chunk = registry.next_chunk().unwrap();
            registry.finish_stream_chunk(
                &chunk,
                StreamSummary {
                    events: 50,
                    injected: 3,
                    detected: 0,
                    // No detections: the record must round-trip the
                    // nulls, not resurrect them as zeros.
                    mean_latency: None,
                    max_latency: None,
                },
            );
        }
        let (registry, report) = JobRegistry::with_state_dir(4, Some(dir.clone()));
        assert_eq!(report.restored, 1);
        let job = registry.get(1).expect("restored stream job answers");
        assert!(job.restored);
        let spec = job.spec.as_stream().expect("restored as a stream job");
        assert_eq!(spec.target_asns, vec![4, 6]);
        // Summary-only persistence: per-event samples are gone.
        assert_eq!(lock_recover(&spec.store).total_samples(), 0);
        job.with_state(|s| match s {
            JobState::Done(output) => {
                let stream = output.stream.as_ref().expect("stream summary");
                assert_eq!(stream.injected, 3);
                assert_eq!(stream.mean_latency, None);
                assert_eq!(stream.max_latency, None);
            }
            other => panic!("expected done, got {}", other.name()),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_chunk_fails_job_but_not_registry() {
        let registry = JobRegistry::new(4).with_chunk_size(1);
        let doomed = registry.submit(spec_with_pool(3)).unwrap();
        let chunk = registry.next_chunk().unwrap();
        registry.fail_chunk(&chunk, "executor panicked");
        assert_eq!(doomed.with_state(JobState::name), "failed");
        doomed.with_state(|s| match s {
            JobState::Failed(message) => assert!(message.contains("panicked")),
            other => panic!("expected failed, got {}", other.name()),
        });
        // The remaining pool is never dealt, and new jobs still run.
        let healthy = registry.submit(spec()).unwrap();
        let chunk = registry.next_chunk().unwrap();
        assert_eq!(chunk.job.id, healthy.id);
    }

    #[test]
    fn poisoned_job_state_recovers() {
        // Regression: a panic while holding the state lock used to poison
        // it, turning every later `/v1/jobs` request into a panic.
        let registry = JobRegistry::new(4);
        let job = registry.submit(spec()).unwrap();
        let poisoned = Arc::clone(&job);
        let _ = std::thread::spawn(move || {
            poisoned.with_state(|_| panic!("induced executor panic"));
        })
        .join();
        // Every state-touching path still answers.
        assert_eq!(job.with_state(JobState::name), "queued");
        assert_eq!(registry.counts().queued, 1);
        let after = registry.submit(spec()).unwrap();
        assert_eq!(after.id, job.id + 1);
        let chunk = registry.next_chunk().unwrap();
        registry.finish_chunk(&chunk, &[1, 2], "bypass");
    }

    #[test]
    fn close_drains_and_fails_queued() {
        let registry = JobRegistry::new(4);
        let job = registry.submit(spec()).unwrap();
        registry.close();
        assert!(registry.next_chunk().is_none());
        assert_eq!(job.with_state(JobState::name), "failed");
        assert!(registry.submit(spec()).is_err());
    }

    #[test]
    fn terminal_jobs_survive_restart() {
        // Every outcome a sweep can finish with, "fanout" (a coordinator
        // with --state-dir) included, must restore rather than quarantine.
        for (cache, _) in CACHE_NAMES {
            let dir = scratch_dir("restart");
            let counts;
            {
                let (registry, report) = JobRegistry::with_state_dir(4, Some(dir.clone()));
                assert_eq!(report, RestoreReport::default());
                registry.submit(spec()).unwrap();
                let chunk = registry.next_chunk().unwrap();
                registry.finish_chunk(&chunk, &[7, 9], cache);
                counts = vec![7, 9];
                assert_eq!(registry.scheduler_stats().jobs_persisted, 1);
            }
            let (registry, report) = JobRegistry::with_state_dir(4, Some(dir.clone()));
            assert_eq!(report.restored, 1, "{cache}");
            assert_eq!(report.quarantined, 0, "{cache}");
            let job = registry.get(1).expect("restored job answers by id");
            assert!(job.restored);
            job.with_state(|s| match s {
                JobState::Done(output) => {
                    assert_eq!(output.counts, counts);
                    assert_eq!(output.cache, cache);
                }
                other => panic!("expected done, got {}", other.name()),
            });
            // Ids keep growing past the restored ones.
            let fresh = registry.submit(spec()).unwrap();
            assert_eq!(fresh.id, 2);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_state_files_are_quarantined() {
        let dir = scratch_dir("quarantine");
        std::fs::write(dir.join("job-3.json"), "{not json at all").unwrap();
        std::fs::write(dir.join("job-4.json"), "{\"id\":4,\"state\":\"running\"}").unwrap();
        let (registry, report) = JobRegistry::with_state_dir(4, Some(dir.clone()));
        assert_eq!(report.restored, 0);
        assert_eq!(report.quarantined, 2);
        assert!(registry.get(3).is_none());
        assert!(dir.join("quarantine/job-3.json").exists());
        assert!(dir.join("quarantine/job-4.json").exists());
        assert!(!dir.join("job-3.json").exists());
        // The registry still works — corrupt files cost nothing but a move.
        registry.submit(spec()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_and_failed_jobs_persist_too() {
        let dir = scratch_dir("terminal");
        {
            let (registry, _) = JobRegistry::with_state_dir(4, Some(dir.clone()));
            let a = registry.submit(spec()).unwrap();
            registry.cancel(a.id).unwrap();
            registry.submit(spec()).unwrap();
            let chunk = registry.next_chunk().unwrap();
            registry.fail_chunk(&chunk, "induced");
        }
        let (registry, report) = JobRegistry::with_state_dir(4, Some(dir.clone()));
        assert_eq!(report.restored, 2);
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
    /// Every terminal shape a record can have — sweeps done over explicit,
    /// `"transit"` and `"all"` pools with and without a defense and under
    /// each cache outcome (`"fanout"` included), streams done with, without
    /// (`null` latencies) and with instant (zero) detections, cancelled and
    /// failed jobs of both kinds — as the parent of the PR that introduced
    /// this test wrote it: each restores, and re-serializes byte for byte.
    /// (`tests/service.rs` asks a server booted on the same directory for
    /// each record's `/v1/results`.)
    #[test]
    fn golden_records_restore_and_reserialize_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("fixtures directory") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let job =
                job_from_doc(&doc).unwrap_or_else(|| panic!("{} quarantined", path.display()));
            assert!(job.restored && job.with_state(JobState::is_terminal));
            assert_eq!(
                job_to_doc(&job).render_compact() + "\n",
                text,
                "{}",
                path.display()
            );
            seen += 1;
        }
        assert_eq!(
            seen,
            13,
            "a golden record went missing from {}",
            dir.display()
        );
    }
}
