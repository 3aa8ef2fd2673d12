//! A sequential reference model of [`JobRegistry`], and the seeded
//! random-op test that holds the registry to it.
//!
//! The model is the scheduler's contract written as plain data: the
//! retained job ids, a ring of ids, the idempotency-key table, the
//! records on disk, and per job its state, dealt cursor, chunks in
//! flight and assembled output. Each sequence drives the model and a
//! real registry through the same ops — submissions (keyed and not,
//! sweeps of 1–9 attackers, under admission bounds of 1–5 and chunk
//! widths of 1, 2, 3 and 64), deals, chunks returned with rows or as a
//! failure, cancellations (of live, finished and unknown ids), closes and, on
//! sequences with a state directory, restarts — and compares everything
//! the registry shows after every op. One sequence in 64 runs long
//! enough to push more than [`JobRegistry::MAX_RETAINED`] jobs through.
//!
//! A failure prints its seed; `run_sequence(seed)` replays it.

use std::collections::{BTreeMap, VecDeque};

use super::*;

/// Sequences the default run covers.
const SEQUENCES: u64 = 2_000;

/// Sequences the ignored deep run covers (seeds after the default's).
const DEEP_SEQUENCES: u64 = 20_000;

#[test]
fn scheduler_model() {
    run_sequences(0..SEQUENCES);
}

#[test]
#[ignore = "20,000 sequences; CI runs it in release"]
fn scheduler_model_deep() {
    run_sequences(SEQUENCES..SEQUENCES + DEEP_SEQUENCES);
}

/// Runs every seed in `seeds`, then asserts the sequences reached each
/// corner the model exists for.
fn run_sequences(seeds: std::ops::Range<u64>) {
    let mut seen = Coverage::default();
    for seed in seeds {
        seen.add(&run_sequence(seed));
    }
    eprintln!("scheduler model coverage: {seen:?}");
    let Coverage {
        evictions,
        dedupes,
        full,
        closed,
        deferred_cancels,
        failures,
        restarts,
        restored,
    } = seen;
    for (corner, count) in [
        ("retention evictions", evictions),
        ("idempotent resubmissions", dedupes),
        ("full-queue refusals", full),
        ("closed-registry refusals", closed),
        ("cancels with a chunk in flight", deferred_cancels),
        ("failed chunks", failures),
        ("restarts", restarts),
        ("restored jobs", restored),
    ] {
        assert!(count > 0, "no sequence reached {corner}");
    }
}

/// How often a run reached the corners worth reaching.
#[derive(Debug, Default)]
struct Coverage {
    evictions: u64,
    dedupes: u64,
    full: u64,
    closed: u64,
    deferred_cancels: u64,
    failures: u64,
    restarts: u64,
    restored: u64,
}

impl Coverage {
    fn add(&mut self, other: &Coverage) {
        self.evictions += other.evictions;
        self.dedupes += other.dedupes;
        self.full += other.full;
        self.closed += other.closed;
        self.deferred_cancels += other.deferred_cancels;
        self.failures += other.failures;
        self.restarts += other.restarts;
        self.restored += other.restored;
    }
}

// ---------------------------------------------------------------------
// The registry side of the ops whose shape differs from the model's, and
// the registry state the model reads.

fn open(max_queued: usize, chunk: usize, dir: Option<PathBuf>) -> JobRegistry {
    JobRegistry::new(max_queued, dir).with_chunk_size(chunk)
}

fn submit(
    registry: &JobRegistry,
    spec: SweepSpec,
    key: Option<String>,
) -> Result<(Arc<Job>, bool), Refusal> {
    registry.submit(spec, key).map_err(|e| match e {
        SubmitError::QueueFull => Refusal::Full,
        SubmitError::ShuttingDown => Refusal::Closed,
    })
}

fn finish(registry: &JobRegistry, chunk: Chunk, outcome: Outcome) {
    let result = match outcome {
        Outcome::Rows(rows, cache) => ChunkResult::Sweep { rows, cache },
        Outcome::Failed(message) => ChunkResult::Failed(message),
    };
    registry.finish(chunk, result);
}

/// Whether `next_chunk` would return at once rather than block.
fn dealable(registry: &JobRegistry) -> bool {
    let inner = lock_recover(&registry.inner);
    inner.ring.iter().any(|job| {
        let sched = job.sched();
        !sched.state.is_terminal()
            && !job.cancel.load(Ordering::Relaxed)
            && sched.dealt < job.spec.pool.len()
    })
}

fn observe(job: &Job) -> State {
    job.with_state(|state| match state {
        JobState::Queued => State::Queued,
        JobState::Running => State::Running,
        JobState::Done(output) => State::Done {
            counts: output.counts.clone(),
            cache: output.cache,
        },
        JobState::Cancelled => State::Cancelled,
        JobState::Failed(message) => State::Failed(message.clone()),
    })
}

// ---------------------------------------------------------------------
// The model.

/// What a chunk comes back with.
#[derive(Debug, Clone)]
enum Outcome {
    Rows(Vec<u32>, &'static str),
    Failed(String),
}

/// Why a submission was refused.
#[derive(Debug, PartialEq)]
enum Refusal {
    Full,
    Closed,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Queued,
    Running,
    Done {
        counts: Vec<u32>,
        cache: &'static str,
    },
    Cancelled,
    Failed(String),
}

impl State {
    fn terminal(&self) -> bool {
        !matches!(self, State::Queued | State::Running)
    }
}

#[derive(Debug, Clone)]
struct ModelJob {
    /// Pool width: schedulable units and progress denominator alike.
    units: usize,
    state: State,
    cancel: bool,
    dealt: usize,
    in_flight: usize,
    completed: usize,
    rows: Vec<u32>,
    cache: &'static str,
    failure: Option<String>,
    persisted: bool,
}

/// A dealt chunk: job id and unit range.
type Dealt = (u64, usize, usize);

struct Model {
    /// Every job of this registry's life, by id.
    jobs: BTreeMap<u64, ModelJob>,
    /// Retained ids, oldest first.
    retained: VecDeque<u64>,
    ring: VecDeque<u64>,
    keys: VecDeque<(String, u64)>,
    next_id: u64,
    closed: bool,
    max_queued: usize,
    chunk: usize,
    chunks_executed: u64,
    jobs_persisted: u64,
    jobs_restored: u64,
    /// The records on disk, by id — `None` without a state directory.
    disk: Option<BTreeMap<u64, ModelJob>>,
}

impl Model {
    /// A registry booted on `disk` (or on no directory at all).
    fn boot(max_queued: usize, chunk: usize, disk: Option<BTreeMap<u64, ModelJob>>) -> Model {
        let mut model = Model {
            jobs: BTreeMap::new(),
            retained: VecDeque::new(),
            ring: VecDeque::new(),
            keys: VecDeque::new(),
            next_id: 1,
            closed: false,
            max_queued: max_queued.max(1),
            chunk,
            chunks_executed: 0,
            jobs_persisted: 0,
            jobs_restored: 0,
            disk,
        };
        if let Some(disk) = &model.disk {
            let skip = disk.len().saturating_sub(JobRegistry::MAX_RETAINED);
            for (&id, record) in disk.iter().skip(skip) {
                let job = ModelJob {
                    persisted: true,
                    cancel: false,
                    in_flight: 0,
                    ..record.clone()
                };
                model.jobs.insert(id, job);
                model.retained.push_back(id);
                model.next_id = id + 1;
                model.jobs_restored += 1;
            }
        }
        model
    }

    fn submit(&mut self, units: usize, key: Option<String>) -> Result<(u64, bool), Refusal> {
        if self.closed {
            return Err(Refusal::Closed);
        }
        if let Some(key) = &key {
            if let Some(&(_, id)) = self.keys.iter().find(|(k, _)| k == key) {
                if self.retained.contains(&id) {
                    return Ok((id, false));
                }
                self.keys.retain(|(k, _)| k != key);
            }
        }
        let active = self
            .retained
            .iter()
            .filter(|id| !self.jobs[id].state.terminal())
            .count();
        if active >= self.max_queued {
            return Err(Refusal::Full);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            ModelJob {
                units,
                state: State::Queued,
                cancel: false,
                dealt: 0,
                in_flight: 0,
                completed: 0,
                rows: vec![0; units],
                cache: "bypass",
                failure: None,
                persisted: false,
            },
        );
        self.retained.push_back(id);
        self.ring.push_back(id);
        if let Some(key) = key {
            self.keys.push_back((key, id));
            while self.keys.len() > JobRegistry::MAX_IDEMPOTENCY_KEYS {
                self.keys.pop_front();
            }
        }
        while self.retained.len() > JobRegistry::MAX_RETAINED {
            let Some(pos) = self
                .retained
                .iter()
                .position(|id| self.jobs[id].state.terminal())
            else {
                break;
            };
            self.retained.remove(pos);
        }
        Ok((id, true))
    }

    /// The next chunk; `Some(None)` once closed, `None` when the
    /// registry would block.
    fn deal(&mut self) -> Option<Option<Dealt>> {
        while let Some(id) = self.ring.pop_front() {
            let chunk = self.chunk;
            let job = self.jobs.get_mut(&id).expect("ring ids are jobs");
            if job.state.terminal() {
                continue;
            }
            if job.cancel {
                assert!(
                    job.in_flight > 0,
                    "a cancelled job with nothing in flight is already terminal"
                );
                continue;
            }
            let start = job.dealt;
            if start >= job.units {
                continue;
            }
            let end = (start + chunk).min(job.units);
            job.dealt = end;
            job.in_flight += 1;
            if start == 0 {
                job.state = State::Running;
            }
            if end < job.units {
                self.ring.push_back(id);
            }
            return Some(Some((id, start, end)));
        }
        self.closed.then_some(None)
    }

    fn finish(&mut self, (id, start, end): Dealt, outcome: Outcome) {
        self.chunks_executed += 1;
        let job = self.jobs.get_mut(&id).expect("dealt ids are jobs");
        match outcome {
            Outcome::Rows(rows, cache) => {
                job.rows[start..end].copy_from_slice(&rows);
                if cache_rank(cache) > cache_rank(job.cache) {
                    job.cache = cache;
                }
            }
            Outcome::Failed(message) => {
                job.failure.get_or_insert(message);
                job.dealt = job.units;
                job.cancel = true;
            }
        }
        job.in_flight -= 1;
        if job.in_flight == 0 && (job.dealt >= job.units || job.cancel) {
            let next = if let Some(message) = job.failure.take() {
                State::Failed(message)
            } else if job.cancel {
                State::Cancelled
            } else {
                State::Done {
                    counts: std::mem::take(&mut job.rows),
                    cache: job.cache,
                }
            };
            if !job.state.terminal() {
                job.state = next;
            }
            self.persist(id);
        }
    }

    fn cancel(&mut self, id: u64) -> bool {
        if !self.retained.contains(&id) {
            return false;
        }
        let job = self.jobs.get_mut(&id).expect("retained ids are jobs");
        job.cancel = true;
        if job.in_flight == 0 && !job.state.terminal() {
            job.state = State::Cancelled;
        }
        self.persist(id);
        true
    }

    fn close(&mut self) {
        self.closed = true;
        let retained: Vec<u64> = self.retained.iter().copied().collect();
        for id in retained {
            let job = self.jobs.get_mut(&id).expect("retained ids are jobs");
            job.cancel = true;
            if job.state == State::Queued {
                job.state = State::Failed("server shut down".to_string());
            } else if job.in_flight == 0 && !job.state.terminal() {
                job.state = State::Cancelled;
            }
            self.persist(id);
        }
        self.ring.clear();
    }

    /// Writes a terminal job's record, once (with a state directory).
    fn persist(&mut self, id: u64) {
        let job = self.jobs.get_mut(&id).expect("persisted ids are jobs");
        let Some(disk) = &mut self.disk else { return };
        if !job.state.terminal() || job.persisted {
            return;
        }
        job.persisted = true;
        disk.insert(id, job.clone());
        self.jobs_persisted += 1;
    }

    fn counts(&self) -> JobCounts {
        let mut counts = JobCounts::default();
        for id in &self.retained {
            match self.jobs[id].state {
                State::Queued => counts.queued += 1,
                State::Running => counts.running += 1,
                State::Done { .. } => counts.done += 1,
                State::Cancelled => counts.cancelled += 1,
                State::Failed(_) => counts.failed += 1,
            }
        }
        counts
    }
}

// ---------------------------------------------------------------------
// The driver.

/// SplitMix64: a small seeded generator (the crate depends on no RNG).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Names the failing seed when a sequence panics.
struct SeedGuard(u64);

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("scheduler model diverged on seed {}", self.0);
        }
    }
}

fn sweep_spec(n: usize) -> SweepSpec {
    let n = n as u32;
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

fn run_sequence(seed: u64) -> Coverage {
    let mut seen = Coverage::default();
    let _guard = SeedGuard(seed);
    let mut rng = Rng(seed ^ 0x005E_ED0F_5C4E_D01E);
    let long = rng.one_in(64);
    let ops = if long { 1_500 } else { 8 + rng.below(72) };
    let max_queued = 1 + rng.below(5);
    let chunk = [1, 2, 3, 64][rng.below(4)];
    let dir = rng.one_in(4).then(|| {
        let dir =
            std::env::temp_dir().join(format!("bgpsim-jobs-model-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let mut model = Model::boot(max_queued, chunk, dir.as_ref().map(|_| BTreeMap::new()));
    let mut registry = open(max_queued, chunk, dir.clone());
    let mut held: Vec<(Chunk, Dealt)> = Vec::new();
    for step in 0..ops {
        let roll = rng.below(100);
        match roll {
            0..=29 => {
                let units = 1 + rng.below(9);
                let key = rng.one_in(3).then(|| format!("k{}", rng.below(6)));
                let full_before = model.retained.len() >= JobRegistry::MAX_RETAINED;
                let want = model.submit(units, key.clone());
                let got =
                    submit(&registry, sweep_spec(units), key).map(|(job, fresh)| (job.id, fresh));
                assert_eq!(got, want, "step {step}: submit");
                match want {
                    Ok((_, true)) if full_before => seen.evictions += 1,
                    Ok((_, true)) => {}
                    Ok((_, false)) => seen.dedupes += 1,
                    Err(Refusal::Full) => seen.full += 1,
                    Err(Refusal::Closed) => seen.closed += 1,
                }
            }
            30..=54 => match model.deal() {
                None => assert!(!dealable(&registry), "step {step}: registry has a chunk"),
                Some(want) => {
                    let chunk = registry.next_chunk();
                    let got = chunk.as_ref().map(|c| (c.job.id, c.start, c.end));
                    assert_eq!(got, want, "step {step}: deal");
                    if let (Some(chunk), Some(dealt)) = (chunk, want) {
                        held.push((chunk, dealt));
                    }
                }
            },
            55..=77 if !held.is_empty() => {
                let (chunk, dealt) = held.swap_remove(rng.below(held.len()));
                let outcome = if roll >= 75 {
                    seen.failures += 1;
                    Outcome::Failed(format!("chunk {step} panicked"))
                } else {
                    let rows = (dealt.1..dealt.2)
                        .map(|_| rng.below(1_000) as u32)
                        .collect();
                    Outcome::Rows(rows, CACHE_NAMES[rng.below(CACHE_NAMES.len())].0)
                };
                // Executors tick progress before handing the chunk back.
                let ticks = match &outcome {
                    Outcome::Rows(rows, _) => rows.len(),
                    Outcome::Failed(_) => 0,
                };
                chunk.job.progress_ticker()(ticks);
                model.jobs.get_mut(&dealt.0).expect("held").completed += ticks;
                model.finish(dealt, outcome.clone());
                finish(&registry, chunk, outcome);
            }
            78..=91 => {
                // The newest job, which is likely live (always, on long
                // sequences: they exist to fill retention); otherwise
                // any id, unknown ones included.
                let id = if long || rng.one_in(2) {
                    model.next_id.saturating_sub(1)
                } else {
                    rng.below(model.next_id as usize + 1) as u64
                };
                if model.retained.contains(&id) && model.jobs[&id].in_flight > 0 {
                    seen.deferred_cancels += 1;
                }
                let want = model.cancel(id);
                let got = registry.cancel(id).map(|job| job.id);
                assert_eq!(got, want.then_some(id), "step {step}: cancel {id}");
            }
            92 if (dir.is_some() || !long) && rng.one_in(3) => {
                model.close();
                registry.close();
                assert!(registry.next_chunk().is_none(), "step {step}: closed");
            }
            93 | 94 if dir.is_some() => {
                if rng.one_in(2) {
                    model.close();
                    registry.close();
                }
                held.clear();
                drop(registry);
                model = Model::boot(max_queued, chunk, model.disk.take());
                registry = open(max_queued, chunk, dir.clone());
                seen.restarts += 1;
                seen.restored += model.jobs_restored;
            }
            _ => {}
        }
        check(&model, &registry, dir.as_deref(), step);
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    seen
}

/// Everything the registry shows, against the model.
fn check(model: &Model, registry: &JobRegistry, dir: Option<&Path>, step: usize) {
    let jobs = registry.snapshot();
    let ids: Vec<u64> = jobs.iter().map(|job| job.id).collect();
    assert!(
        ids.iter().eq(model.retained.iter()),
        "step {step}: retained {ids:?}, model {:?}",
        model.retained
    );
    for job in &jobs {
        let want = &model.jobs[&job.id];
        let id = job.id;
        assert_eq!(observe(job), want.state, "step {step}: job {id} state");
        assert_eq!(
            job.completed.load(Ordering::Relaxed),
            want.completed,
            "step {step}: job {id} completed"
        );
        assert_eq!(job.total(), want.units, "step {step}: job {id} total");
        assert_eq!(
            job.cancel.load(Ordering::Relaxed),
            want.cancel,
            "step {step}: job {id} cancel flag"
        );
    }
    assert_eq!(registry.counts(), model.counts(), "step {step}: counts");
    let stats = registry.scheduler_stats();
    assert_eq!(
        (
            stats.chunks_executed,
            stats.jobs_persisted,
            stats.jobs_restored
        ),
        (
            model.chunks_executed,
            model.jobs_persisted,
            model.jobs_restored
        ),
        "step {step}: scheduler stats"
    );
    if let (Some(dir), Some(disk)) = (dir, &model.disk) {
        let mut on_disk: Vec<u64> = std::fs::read_dir(dir)
            .expect("state dir")
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                name.strip_prefix("job-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()
            })
            .collect();
        on_disk.sort_unstable();
        assert!(
            on_disk.iter().eq(disk.keys()),
            "step {step}: records on disk {on_disk:?}"
        );
    }
}
