//! The worker-pool supervisor: a fixed set of runner threads (std threads +
//! channels, no async runtime) pulling partition tasks from a shared queue.
//! Each task spawns one supervised `sparqlog-shard-worker`
//! ([`sparqlog_shard::supervise`]) over exactly one log, with an optional
//! stall timeout fed by liveness heartbeats.
//!
//! # Fault model
//!
//! A worker that dies (pipe EOF, bad exit status, undecodable snapshot) or
//! stalls (no frame for longer than the stall timeout — heartbeats count)
//! is restarted with bounded exponential backoff
//! (`backoff × 2^(attempt−1)`, capped at 2 s) up to `max_restarts` times; the
//! partition is re-run from scratch, which is safe because a partition
//! merges into its job **only** when its snapshot decodes completely, and
//! at most once ([`crate::job`]). A partition that exhausts its budget
//! fails the whole job with the last structured error.
//!
//! Every transition lands in the [`EventLog`]: `worker-start` (with pid and
//! analysis threads), `worker-death`, `partition-recovered` (with the
//! death-to-merge latency), `job-complete`, `job-failed`.
//!
//! # Snapshot store
//!
//! With a [`SnapshotStore`] attached, submit hashes each log's canonical
//! identity first — outside the store lock, the job's logs spread over the
//! available cores — and then looks the keys up under the lock and loads
//! the snapshots found after it: logs whose analysis the store already
//! holds merge immediately (`store-hit`, no worker process) when the
//! store-hit rule ([`PersistedLog::usable_under`]) allows it under the job's
//! policy; a stored snapshot that fails to load is a `store-error`, and its
//! log runs again and stages a fresh snapshot that supersedes the damaged
//! record. The rest run as usual and each snapshot is staged into the store
//! just before its partition merges. When the last
//! partition merges, the job's manifest is staged and everything is
//! committed durably in one fsync (`store-commit`) — so a restarted daemon
//! warm-starts the job and a resubmission is pure store hits. A job whose
//! commit succeeded then drops its in-memory results and keeps only their
//! keys ([`JobState::release_logs`]). Only after that commit has been
//! attempted does the job read as `Complete` to clients
//! ([`JobState::commit_pending`]).

use crate::client::backoff_delay;
use crate::events::EventLog;
use crate::job::{JobState, Jobs};
use sparqlog_core::analysis::Population;
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::workers_override;
use sparqlog_core::{file_identity, PersistedLog, RecoveryPolicy};
use sparqlog_obs::{self as obs, EventRecord};
use sparqlog_persist::{JobLog, JobRecord, SnapshotRef, SnapshotStore};
use sparqlog_shard::supervise::{worker_thread_budget, WorkerLaunch};
use sparqlog_shard::worker::AssignedLog;
use sparqlog_shard::{LogSpec, WorkerCommand};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervision tuning (a subset of the server config).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How to launch workers.
    pub worker: WorkerCommand,
    /// Concurrent worker processes (0 = available parallelism).
    pub slots: usize,
    /// `--workers` per worker process (0 = the cores divided among the
    /// workers running when it starts; see [`worker_thread_budget`]).
    pub worker_threads: usize,
    /// Kill a worker whose pipe is silent this long (None = EOF-only).
    /// Only this timeout reads a worker's activity clock, so only under it
    /// does a worker heartbeat, four times per timeout.
    pub stall_timeout: Option<Duration>,
    /// Restarts allowed per partition before the job fails.
    pub max_restarts: u32,
    /// First restart backoff (doubles per attempt, up to 2 s).
    pub backoff: Duration,
}

/// The longest wait before a worker restart.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            worker: WorkerCommand::new("sparqlog-shard-worker"),
            slots: 0,
            worker_threads: 0,
            stall_timeout: None,
            max_restarts: 5,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One unit of work: one log of one job.
#[derive(Debug, Clone)]
struct PartitionTask {
    job: u64,
    partition: usize,
    population: Population,
    recovery: RecoveryPolicy,
    log: LogSpec,
    /// The log's canonical identity, when a store is attached and the log
    /// was hashable at submit time (its completed snapshot persists under
    /// this key).
    key: Option<u128>,
}

/// The runners' shared state, under one lock.
#[derive(Debug, Default)]
struct Queue {
    tasks: VecDeque<PartitionTask>,
    /// Partitions claimed and still running.
    active: usize,
    /// Set when the supervisor drops: runners exit once `tasks` is empty.
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    config: SupervisorConfig,
    queue: Mutex<Queue>,
    /// Notified when a task is queued and at shutdown.
    available: Condvar,
    /// Notified when the last running partition finishes on an empty queue.
    idle: Condvar,
    jobs: Arc<Jobs>,
    events: Arc<EventLog>,
    store: Option<Arc<Mutex<SnapshotStore>>>,
    /// `available_parallelism()`, read once at start: it re-reads the
    /// cgroup files on every call, a cost each submit would otherwise pay.
    cores: usize,
    /// Runner threads, so the most worker processes alive at once.
    slots: usize,
}

/// The supervisor: owns the runner threads and the task queue.
#[derive(Debug)]
pub struct Supervisor {
    shared: Arc<Shared>,
    runners: Vec<JoinHandle<()>>,
}

impl Supervisor {
    /// Starts the runner pool. With a `store`, submitted logs already
    /// persisted merge without spawning a worker, and completed work is
    /// committed back (see the [module docs](self)).
    pub fn start(
        config: SupervisorConfig,
        jobs: Arc<Jobs>,
        events: Arc<EventLog>,
        store: Option<Arc<Mutex<SnapshotStore>>>,
    ) -> Supervisor {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let slots = if config.slots > 0 {
            config.slots
        } else {
            cores
        };
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::default(),
            available: Condvar::new(),
            idle: Condvar::new(),
            jobs,
            events,
            store,
            cores,
            slots,
        });
        let runners = (0..slots)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(&shared))
            })
            .collect();
        Supervisor { shared, runners }
    }

    /// Registers a job for `logs` and enqueues one partition per log —
    /// except, with a store attached, partitions whose log is already
    /// persisted under its canonical identity: those merge immediately
    /// from the store (`store-hit`) and spawn no worker. Returns
    /// `(job_id, partitions)`.
    pub fn submit(
        &self,
        population: Population,
        recovery: RecoveryPolicy,
        logs: Vec<LogSpec>,
    ) -> (u64, u64) {
        let partitions = logs.len() as u64;
        let job = self.shared.jobs.create(population, recovery, logs.clone());
        obs::global().counter("serve_jobs_submitted_total").incr();
        self.shared.events.emit(format!(
            "event=job-accepted job={job} partitions={partitions} recovery={}",
            recovery.resolve().spelling()
        ));

        // Identity pass: hash each log (no parsing), then pull store hits.
        // Hashing is the expensive half and touches no shared state, so it
        // runs before the store lock is taken — concurrent submits hash in
        // parallel and serialise only on the lookups; the hits decode after
        // the lock is released. A hit is taken only when the store-hit rule
        // allows it under this job's policy.
        let mut keys: Vec<Option<u128>> = vec![None; logs.len()];
        let mut hits: Vec<Option<Arc<PersistedLog>>> = vec![None; logs.len()];
        if let Some(store) = &self.shared.store {
            keys = hash_identities(population, &logs, self.shared.cores);
            // An unhashable log stays keyless; the worker will report it.
            let located: Vec<_> = {
                let guard = store.lock().expect("snapshot store");
                let locate = |key: &Option<u128>| key.and_then(|key| guard.locate(key));
                keys.iter().map(locate).collect()
            };
            for (partition, located) in located.iter().enumerate() {
                match located.as_ref().map(SnapshotRef::load) {
                    Some(Ok(hit)) if hit.usable_under(recovery) => {
                        hits[partition] = Some(Arc::new(hit));
                    }
                    Some(Err(error)) => {
                        // Re-analysed under its key: the fresh snapshot
                        // supersedes the damaged record when it is staged.
                        self.shared.events.emit_record(
                            EventRecord::new("store-error")
                                .with("job", job)
                                .with("partition", partition)
                                .with("error", error),
                        );
                    }
                    _ => {}
                }
            }
        }
        self.shared
            .jobs
            .with(job, |state| state.keys = keys.clone());

        let mut completed_now = false;
        for (partition, hit) in hits.iter().enumerate() {
            let Some(hit) = hit else {
                continue;
            };
            completed_now |= merge_partition(
                &self.shared,
                job,
                partition,
                Arc::clone(hit),
                CacheStats::default(),
                0,
                |merged| {
                    self.shared.events.emit(format!(
                        "event=store-hit job={job} partition={partition} merged={merged}"
                    ));
                },
            );
        }
        if completed_now {
            publish_completion(&self.shared, job);
        }

        let mut queue = self.shared.queue.lock().expect("supervisor queue");
        let misses = logs.into_iter().enumerate().zip(&hits);
        for ((partition, log), _) in misses.filter(|(_, hit)| hit.is_none()) {
            queue.tasks.push_back(PartitionTask {
                job,
                partition,
                population,
                recovery,
                log,
                key: keys[partition],
            });
        }
        drop(queue);
        self.shared.available.notify_all();
        (job, partitions)
    }

    /// Blocks until no partition is queued or running, or `timeout`
    /// elapses; returns whether the pool went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let queue = self.shared.queue.lock().expect("supervisor queue");
        let busy = |queue: &mut Queue| queue.active > 0 || !queue.tasks.is_empty();
        let (_queue, waited) = self
            .shared
            .idle
            .wait_timeout_while(queue, timeout, busy)
            .expect("supervisor queue");
        !waited.timed_out()
    }
}

impl Drop for Supervisor {
    /// Drains and stops the pool: runners finish the queue (and their
    /// in-flight partitions), then exit.
    fn drop(&mut self) {
        self.shared.queue.lock().expect("supervisor queue").shutdown = true;
        self.shared.available.notify_all();
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
    }
}

fn runner_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("supervisor queue");
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            // Claimed under the lock, so `wait_idle` never sees "queue
            // empty, nothing active" mid-handoff.
            queue.active += 1;
            let concurrency = concurrent_workers(shared.slots, queue.active, queue.tasks.len());
            drop(queue);
            run_partition(shared, &task, concurrency);
            queue = shared.queue.lock().expect("supervisor queue");
            queue.active -= 1;
            if queue.active == 0 && queue.tasks.is_empty() {
                shared.idle.notify_all();
            }
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.available.wait(queue).expect("supervisor queue");
        }
    }
}

/// How many worker processes a just-claimed partition shares the machine
/// with, itself included: the `active` partitions (the claim counted) plus
/// the `queued` ones the idle runners are about to claim, at most `slots`.
fn concurrent_workers(slots: usize, active: usize, queued: usize) -> usize {
    slots.min(active + queued)
}

/// Runs one partition to success, fatal job failure, or restart exhaustion,
/// its workers sized for the `concurrency` counted when it was claimed.
fn run_partition(shared: &Shared, task: &PartitionTask, concurrency: usize) {
    let config = &shared.config;
    let events = &shared.events;
    let job = task.job;
    let partition = task.partition;
    let pinned = workers_override();
    let worker_threads =
        worker_thread_budget(config.worker_threads, shared.cores, concurrency, pinned);
    // What the worker runs: the `--workers` passed, or the pinned value it
    // inherits (the budget passes nothing only when one is pinned).
    let threads = worker_threads.or(pinned).unwrap_or_default();
    let mut attempt = 0u32;
    let mut first_failure: Option<Instant> = None;
    loop {
        // A job failed by another partition is not worth more processes.
        let abandoned = shared
            .jobs
            .with(job, |state| state.failed.is_some())
            .unwrap_or(true);
        if abandoned {
            events.emit(format!(
                "event=partition-abandoned job={job} partition={partition}"
            ));
            return;
        }

        let launch = WorkerLaunch {
            command: config.worker.clone(),
            shard: partition,
            population: task.population,
            // Passed verbatim: the worker itself streams a budget leniently,
            // and the job table meters the budget once at the last merge.
            recovery: task.recovery,
            worker_threads,
            heartbeat: config.stall_timeout.map(|stall| stall / 4),
            logs: vec![AssignedLog {
                index: partition as u64,
                label: task.log.label.clone(),
                path: task.log.path.clone(),
            }],
        };
        let outcome = match launch.spawn() {
            Ok(handle) => {
                events.emit(format!(
                    "event=worker-start job={job} partition={partition} attempt={attempt} pid={} threads={threads}",
                    handle.pid()
                ));
                handle.join(config.stall_timeout)
            }
            Err(error) => Err(error),
        };

        match outcome {
            Ok(output) => {
                let mut frames = output.snapshot.logs;
                let valid = frames.len() == 1 && frames[0].index == partition as u64;
                if !valid {
                    fail_job(
                        shared,
                        job,
                        partition,
                        &format!(
                            "partition {partition}: snapshot reported {} frames (expected 1 for log index {partition})",
                            frames.len()
                        ),
                    );
                    return;
                }
                let frame = frames.remove(0);
                // The worker's own pipeline/cache metrics rode home on the
                // epilogue frame; fold them into this process's registry so
                // the service's Metrics answer spans every worker.
                obs::global().absorb(&output.snapshot.epilogue.metrics);
                let log = Arc::new(PersistedLog {
                    summary: frame.summary,
                    analysis: frame.analysis,
                });
                // Staged *before* the merge (and before the job lock — the
                // store lock is never held across it): whichever partition
                // completes the job then finds every sibling's snapshot
                // already staged, so one commit makes snapshots and manifest
                // durable together.
                if let (Some(store), Some(key)) = (&shared.store, task.key) {
                    let staged = store
                        .lock()
                        .expect("snapshot store")
                        .record_snapshot(key, &log);
                    if let Err(error) = staged {
                        events.emit_record(
                            EventRecord::new("store-error")
                                .with("job", job)
                                .with("partition", partition)
                                .with("error", error),
                        );
                    }
                }
                let completed_now = merge_partition(
                    shared,
                    job,
                    partition,
                    log,
                    output.snapshot.epilogue.cache,
                    output.bytes,
                    |merged| {
                        if let Some(since) = first_failure {
                            let latency_ms = since.elapsed().as_millis() as u64;
                            events.emit(format!(
                                "event=partition-recovered job={job} partition={partition} attempt={attempt} latency_ms={latency_ms}"
                            ));
                            obs::global()
                                .histogram("serve_recovery_latency_ms")
                                .record(latency_ms);
                        }
                        events.emit(format!(
                            "event=partition-complete job={job} partition={partition} merged={merged}"
                        ));
                    },
                );
                if completed_now {
                    publish_completion(shared, job);
                }
                return;
            }
            Err(error) => {
                first_failure.get_or_insert_with(Instant::now);
                events.emit_record(
                    EventRecord::new("worker-death")
                        .with("job", job)
                        .with("partition", partition)
                        .with("attempt", attempt)
                        .with("error", &error),
                );
                shared.jobs.with(job, |state| state.restarts += 1);
                obs::global().counter("serve_worker_restarts_total").incr();
                attempt += 1;
                if attempt > config.max_restarts {
                    fail_job(
                        shared,
                        job,
                        partition,
                        &format!(
                            "partition {partition} failed after {} restarts: {error}",
                            config.max_restarts
                        ),
                    );
                    return;
                }
                std::thread::sleep(backoff_delay(config.backoff, BACKOFF_CAP, attempt));
            }
        }
    }
}

/// Hashes every log's canonical identity (`None` = unreadable right now),
/// the logs claimed by index across up to `cores` scoped threads, the
/// caller's included — a one-log job spawns nothing.
fn hash_identities(population: Population, logs: &[LogSpec], cores: usize) -> Vec<Option<u128>> {
    let _span = obs::global().histogram("serve_identity_us").span();
    let threads = cores.min(logs.len());
    // Relaxed: the counter only hands out indices; the keys are published
    // by the mutex and the scope's joins.
    let next = AtomicUsize::new(0);
    let keys = Mutex::new(vec![None; logs.len()]);
    let claim = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(log) = logs.get(index) else {
            return;
        };
        let key = file_identity(population, &log.label, &log.path).ok();
        keys.lock().expect("identity keys")[index] = key;
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(claim);
        }
        claim();
    });
    keys.into_inner().expect("identity keys")
}

/// Merges one finished partition into its job and logs the outcome.
/// `emit` (called with whether the slot merged) and the completion/failure
/// events run while the job-table lock is still held: a client that observes
/// the job as settled is guaranteed to find those events already logged.
/// Returns whether this merge completed the job — the caller then owes a
/// [`publish_completion`].
fn merge_partition(
    shared: &Shared,
    job: u64,
    partition: usize,
    log: Arc<PersistedLog>,
    cache: CacheStats,
    snapshot_bytes: u64,
    emit: impl FnOnce(bool),
) -> bool {
    let events = &shared.events;
    let merge = |state: &mut JobState| {
        let was_failed = state.failed.is_some();
        let merged = state.merge_partition(partition, log, cache, snapshot_bytes);
        emit(merged);
        if merged && state.is_complete() {
            events.emit(format!("event=job-complete job={job}"));
            obs::global().counter("serve_jobs_completed_total").incr();
            // With a store, clients keep seeing `Running` until the
            // completion commit has been attempted.
            state.commit_pending = shared.store.is_some();
            return true;
        }
        if !was_failed {
            // The only way a merge can fail a job: the final partition
            // pushed the defect rate over the budget.
            if let Some(error) = state.failed.as_deref() {
                events.emit_record(
                    EventRecord::new("job-failed")
                        .with("job", job)
                        .with("partition", partition)
                        .with("error", error),
                );
                obs::global().counter("serve_jobs_failed_total").incr();
            }
        }
        false
    };
    shared.jobs.with(job, merge).unwrap_or(false)
}

/// Makes a job whose last partition just merged visible as `Complete`: on a
/// store-backed daemon only after its completion commit has been attempted
/// (`store-commit`, `store-skip` or `store-error` is logged by then), and,
/// when that commit left every log in the store, with its slots released.
/// Called outside the job lock — the commit fsyncs.
fn publish_completion(shared: &Shared, job: u64) {
    let stored = match &shared.store {
        Some(store) => persist_completion(store, &shared.jobs, &shared.events, job),
        None => false,
    };
    shared.jobs.with(job, |state| {
        if stored {
            state.release_logs();
        }
        state.commit_pending = false;
        obs::global()
            .histogram("serve_job_ms")
            .record(state.age().as_millis() as u64);
    });
}

/// Stages the completed job's manifest and commits everything durably.
/// Only called once the job is complete; skipped (with an event) if any
/// partition's log has no key (it was unhashable at submit time), since a
/// manifest with a missing key could not warm-start. Returns whether the
/// commit succeeded with every log's snapshot in the store, so the job may
/// drop its own copies.
fn persist_completion(
    store: &Arc<Mutex<SnapshotStore>>,
    jobs: &Jobs,
    events: &EventLog,
    job: u64,
) -> bool {
    let manifest = jobs.with(job, |state| {
        if !state.keys.iter().all(Option::is_some) {
            return None;
        }
        Some(JobRecord {
            population: state.population,
            recovery: state.recovery,
            logs: state
                .logs
                .iter()
                .zip(&state.keys)
                .map(|(log, key)| JobLog {
                    key: key.expect("checked above"),
                    label: log.label.clone(),
                    path: log.path.to_string_lossy().into_owned(),
                })
                .collect(),
        })
    });
    let Some(manifest) = manifest else {
        return false; // job vanished (cannot happen today, but don't panic)
    };
    let Some(manifest) = manifest else {
        events.emit(format!("event=store-skip job={job} reason=unkeyed-log"));
        return false;
    };
    let mut guard = store.lock().expect("snapshot store");
    let staged = match guard.record_job(&manifest) {
        Ok(staged) => staged,
        Err(error) => {
            events.emit_record(
                EventRecord::new("store-error")
                    .with("job", job)
                    .with("error", error),
            );
            return false;
        }
    };
    match guard.commit() {
        Ok(seq) => {
            events.emit(format!(
                "event=store-commit job={job} seq={seq} staged={staged} snapshots={}",
                guard.snapshots()
            ));
            // A snapshot whose staging failed is not in the store.
            let stored = |log: &JobLog| guard.locate(log.key).is_some();
            manifest.logs.iter().all(stored)
        }
        Err(error) => {
            events.emit_record(
                EventRecord::new("store-error")
                    .with("job", job)
                    .with("error", error),
            );
            false
        }
    }
}

fn fail_job(shared: &Shared, job: u64, partition: usize, message: &str) {
    shared.jobs.with(job, |state| {
        if state.failed.is_none() {
            state.failed = Some(message.to_string());
            obs::global().counter("serve_jobs_failed_total").incr();
        }
        // Inside the lock for the same reason as the completion events: a
        // client that sees the failed phase must also see the failure event.
        shared.events.emit_record(
            EventRecord::new("job-failed")
                .with("job", job)
                .with("partition", partition)
                .with("error", message),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobReport;

    #[test]
    fn backoff_doubles_and_caps() {
        // The one formula behind worker restarts (here) and client
        // reconnects (`Client::connect_with_retry`).
        let (first, cap) = (Duration::from_millis(50), Duration::from_millis(300));
        let delays = [1, 2, 3, 4, 30].map(|attempt| backoff_delay(first, cap, attempt));
        assert_eq!(delays, [50, 100, 200, 300, 300].map(Duration::from_millis));
    }

    #[test]
    fn claim_time_concurrency_counts_running_and_queued_partitions_up_to_the_slots() {
        assert_eq!(concurrent_workers(2, 1, 0), 1);
        assert_eq!(concurrent_workers(2, 1, 1), 2);
        assert_eq!(concurrent_workers(2, 2, 0), 2);
        assert_eq!(concurrent_workers(2, 1, 4), 2);
        assert_eq!(concurrent_workers(2, 2, 3), 2);
    }

    #[test]
    fn spawn_failures_exhaust_restarts_and_fail_the_job() {
        let jobs = Arc::new(Jobs::default());
        let events = Arc::new(EventLog::new());
        let config = SupervisorConfig {
            worker: WorkerCommand::new("/definitely/not/a/real/worker"),
            slots: 1,
            max_restarts: 1,
            backoff: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::start(config, Arc::clone(&jobs), Arc::clone(&events), None);
        let (job, partitions) = supervisor.submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            vec![LogSpec::new("ghost", "/tmp/none.log")],
        );
        assert_eq!(partitions, 1);
        assert!(jobs.wait_all_settled(Duration::from_secs(10)));
        assert!(supervisor.wait_idle(Duration::from_secs(10)));
        let status = jobs.with(job, |state| state.status()).unwrap();
        assert_eq!(status.phase, crate::protocol::JobPhase::Failed);
        assert_eq!(status.restarts, 2); // initial attempt + 1 allowed restart
        assert!(
            status.error.contains("failed after 1 restarts"),
            "{}",
            status.error
        );
        let lines = events.for_job(job);
        assert!(
            lines.iter().any(|l| l.contains("event=worker-death")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("event=job-failed")),
            "{lines:?}"
        );
        drop(supervisor);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sparqlog-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A one-log file `label.log` in `dir`.
    fn write_log(dir: &std::path::Path, label: &str) -> LogSpec {
        let log = LogSpec::new(label, dir.join(format!("{label}.log")));
        std::fs::write(&log.path, "ASK { ?s ?p ?o }\n").unwrap();
        log
    }

    /// A store in `dir` holding, for each `(log, defects)`, an empty
    /// snapshot with that many defects under the log's current identity,
    /// and a one-slot supervisor over it whose worker never launches: a
    /// partition either merges from the store or fails its job.
    fn store_only(
        dir: &std::path::Path,
        logs: &[(&LogSpec, u64)],
    ) -> (
        Supervisor,
        Arc<Jobs>,
        Arc<EventLog>,
        Arc<Mutex<SnapshotStore>>,
    ) {
        let (mut store, _) = SnapshotStore::open(dir.join("store.sqps")).unwrap();
        for (log, defects) in logs {
            let mut errors = sparqlog_core::ErrorTally::default();
            for position in 0..*defects {
                errors.record(sparqlog_core::ErrorKind::InvalidUtf8, position);
            }
            let summary = sparqlog_core::LogSummary {
                label: log.label.clone(),
                counts: Default::default(),
                errors,
            };
            let snapshot = PersistedLog {
                summary,
                analysis: Default::default(),
            };
            let key = file_identity(Population::Unique, &log.label, &log.path).unwrap();
            assert!(store.record_snapshot(key, &snapshot).unwrap());
        }
        store.commit().unwrap();
        let store = Arc::new(Mutex::new(store));
        let jobs = Arc::new(Jobs::default());
        let events = Arc::new(EventLog::new());
        let config = SupervisorConfig {
            worker: WorkerCommand::new("/definitely/not/a/real/worker"),
            slots: 1,
            max_restarts: 0,
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::start(
            config,
            Arc::clone(&jobs),
            Arc::clone(&events),
            Some(Arc::clone(&store)),
        );
        (supervisor, jobs, events, store)
    }

    /// Where `job`'s partitions went once it settled: the ones merged from
    /// the store, and the ones sent to the (unlaunchable) worker.
    fn routed(jobs: &Jobs, events: &EventLog, job: u64) -> [Vec<u64>; 2] {
        assert!(jobs.wait_all_settled(Duration::from_secs(10)));
        let records = events.records_for_job(job);
        ["store-hit", "worker-death"].map(|event| {
            let records = records.iter().filter(|record| record.event() == event);
            records
                .filter_map(|record| record.u64("partition"))
                .collect()
        })
    }

    #[test]
    fn store_hits_follow_the_hit_rule_and_the_current_identity() {
        let dir = scratch("routing");
        let logs = vec![write_log(&dir, "clean"), write_log(&dir, "dirty")];
        let (supervisor, jobs, events, _store) = store_only(&dir, &[(&logs[0], 0), (&logs[1], 1)]);
        let submit = |policy| {
            supervisor
                .submit(Population::Unique, policy, logs.clone())
                .0
        };
        // Strict must re-analyse a log with defects to reproduce its
        // failure; a recovering policy takes the stored result.
        let job = submit(RecoveryPolicy::Strict);
        assert_eq!(routed(&jobs, &events, job), [vec![0], vec![1]]);
        let job = submit(RecoveryPolicy::Lenient);
        assert_eq!(routed(&jobs, &events, job), [vec![0, 1], vec![]]);
        let phase = jobs.with(job, |state| state.phase());
        assert_eq!(phase, Some(crate::protocol::JobPhase::Complete));
        // Appending to a log changes its identity: only it misses.
        let mut file = std::fs::OpenOptions::new().append(true).open(&logs[0].path);
        std::io::Write::write_all(file.as_mut().unwrap(), b"ASK { ?x ?y ?z }\n").unwrap();
        let job = submit(RecoveryPolicy::Lenient);
        assert_eq!(routed(&jobs, &events, job), [vec![1], vec![0]]);
        drop(supervisor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_and_warm_started_jobs_hold_no_logs() {
        let dir = scratch("release");
        let log = write_log(&dir, "a");
        // Every log is a store hit, so the unlaunchable worker never runs.
        let (supervisor, jobs, events, store) = store_only(&dir, &[(&log, 0)]);
        let (job, _) = supervisor.submit(Population::Unique, RecoveryPolicy::Lenient, vec![log]);
        let (phase, holds) = jobs
            .with(job, |state| (state.phase(), state.holds_logs()))
            .unwrap();
        assert_eq!(phase, crate::protocol::JobPhase::Complete);
        // The commit succeeded, so the store is the one copy of the log.
        assert!(!holds, "a committed job kept its slots");
        assert!(events
            .for_job(job)
            .iter()
            .any(|l| l.contains("event=store-commit")));
        let report = |jobs: &Jobs, job| {
            let pending = jobs.with(job, |state| state.pending_report(true)).unwrap();
            pending.render(Some(&store)).unwrap()
        };
        let served = report(&jobs, job);
        assert!(served.complete);
        // A restarted daemon restores the job from its committed manifest,
        // holding no log either, and renders the same report.
        let restored = Jobs::default();
        crate::server::warm_start(&store, &restored, &EventLog::new());
        let (phase, holds) = restored
            .with(1, |state| (state.phase(), state.holds_logs()))
            .unwrap();
        assert_eq!(phase, crate::protocol::JobPhase::Complete);
        assert!(!holds, "a warm-started job holds its logs");
        assert_eq!(report(&restored, 1), JobReport { job: 1, ..served });
        drop(supervisor);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
