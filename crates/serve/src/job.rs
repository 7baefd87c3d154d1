//! Job state: each accepted job is split into one partition per log (the
//! reassignment unit — a log never splits, preserving the Unique-population
//! fold), and completed partitions fill the job's [`LogSlots`], keyed by
//! input position. Reports render from whatever has merged so far; once
//! every slot is filled the report is byte-identical to the in-process
//! fused engine's over the same files (the same argument as the batch
//! coordinator's — see `sparqlog_shard::coordinator`).
//!
//! Double-count safety: a partition's snapshot merges **only** when it
//! decodes completely (log frame + epilogue), and a slot fills **at most
//! once** — a restarted worker whose predecessor died mid-stream can never
//! add to an already-filled slot, so no query occurrence is ever folded
//! twice.
//!
//! # Lifecycle
//!
//! 1. *Running*: partitions fill the slots, from workers or straight from
//!    the snapshot store (`store-hit`). The fill of the last slot meters the
//!    error budget once.
//! 2. *Commit pending* (store-backed daemon only): every slot is filled and
//!    the completion commit is under way; clients still read `Running`.
//! 3. *Complete* or *Failed*. On a store-backed daemon whose completion
//!    commit succeeded, with every log's snapshot in the store, the job then
//!    drops its slots ([`JobState::release_logs`]) and keeps only each
//!    log's key, its total and its error count: the store is the one copy,
//!    and a report loads the logs back out of it. A store-less daemon's job,
//!    and one whose commit was skipped or failed, keeps its slots — they
//!    are its only copy. A warm-started job is registered already released.
//!
//! A report is taken in two steps so that neither the job table's lock nor
//! the store's is held while logs decode or the report renders:
//! [`JobState::pending_report`] under the job lock, then
//! [`PendingReport::render`] after it.

use crate::protocol::{JobPhase, JobReport, JobStatus};
use sparqlog_core::analysis::{CorpusAnalysis, Population};
use sparqlog_core::cache::CacheStats;
use sparqlog_core::report;
use sparqlog_core::{LogSlots, PersistedLog, RecoveryPolicy};
use sparqlog_persist::{SnapshotRef, SnapshotStore};
use sparqlog_shard::LogSpec;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job's per-log results live.
#[derive(Debug)]
enum Held {
    /// In memory: slot `i` holds log `i`'s summary + analysis once its
    /// partition has merged.
    Slots(Box<LogSlots>),
    /// Only in the snapshot store, under the job's `keys`: every slot was
    /// filled and committed, so just the merged error count stays.
    Stored {
        /// Malformed entries across every log.
        errors: u64,
    },
}

/// One job's mutable state.
#[derive(Debug)]
pub struct JobState {
    /// The job id.
    pub id: u64,
    /// The population the job folds.
    pub population: Population,
    /// The submitted recovery policy. Workers stream leniently when it
    /// recovers; an `ErrorBudget` is metered **once**, by the slots, when
    /// the last partition merges (a budget is a whole-run rate, not
    /// per-worker).
    pub recovery: RecoveryPolicy,
    /// The submitted logs, in report order (partition `i` = log `i`).
    pub logs: Vec<LogSpec>,
    /// Each log's canonical identity (`sparqlog_core::file_identity`),
    /// when a snapshot store is attached and the log was hashable at
    /// submit time. Used to persist completed partitions, to write the
    /// job manifest that warm-starts the job after a daemon restart, and,
    /// once the job has released its logs, to load them for a report.
    pub keys: Vec<Option<u128>>,
    /// Where the per-log results are: in slots, or only in the store.
    held: Held,
    /// Worker restarts performed for this job.
    pub restarts: u64,
    /// The first fatal failure, if any.
    pub failed: Option<String>,
    /// Merged worker cache counters.
    pub cache: CacheStats,
    /// Total decoded snapshot bytes.
    pub snapshot_bytes: u64,
    /// Set by the supervisor, in the critical section that merges the last
    /// partition of a job on a store-backed daemon, and cleared once the
    /// completion commit has been attempted. While set the job still reads
    /// as `Running`: a client that sees `Complete` can rely on the commit
    /// (or its `store-skip` / `store-error` event) having happened.
    pub commit_pending: bool,
    /// When the job was accepted.
    accepted: Instant,
}

impl JobState {
    fn new(
        id: u64,
        population: Population,
        recovery: RecoveryPolicy,
        logs: Vec<LogSpec>,
    ) -> JobState {
        JobState {
            id,
            population,
            recovery,
            keys: vec![None; logs.len()],
            held: Held::Slots(Box::new(LogSlots::new(logs.len(), recovery))),
            logs,
            restarts: 0,
            failed: None,
            cache: CacheStats::default(),
            snapshot_bytes: 0,
            commit_pending: false,
            accepted: Instant::now(),
        }
    }

    /// The job's lifecycle phase.
    pub fn phase(&self) -> JobPhase {
        if self.failed.is_some() {
            JobPhase::Failed
        } else if self.is_complete() {
            JobPhase::Complete
        } else {
            JobPhase::Running
        }
    }

    /// Whether every partition has merged and, on a store-backed daemon,
    /// the completion commit has been attempted.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.logs.len() && self.failed.is_none() && !self.commit_pending
    }

    /// Whether the job can make no further progress (complete or failed).
    pub fn is_settled(&self) -> bool {
        self.failed.is_some() || self.is_complete()
    }

    /// Whether the job still holds its per-log results in memory (false
    /// once it has released them to the store).
    pub fn holds_logs(&self) -> bool {
        matches!(self.held, Held::Slots(_))
    }

    /// Time since the job was accepted.
    pub fn age(&self) -> Duration {
        self.accepted.elapsed()
    }

    /// Partitions merged so far.
    fn completed(&self) -> usize {
        match &self.held {
            Held::Slots(slots) => slots.filled(),
            Held::Stored { .. } => self.logs.len(),
        }
    }

    /// Malformed entries across the partitions merged so far.
    fn errors(&self) -> u64 {
        match &self.held {
            Held::Slots(slots) => slots.errors().total(),
            Held::Stored { errors } => *errors,
        }
    }

    /// Merges one completed partition. Returns `false` (and changes
    /// nothing) if the slot was already filled — the no-double-count
    /// guarantee for restarted partitions. The merge that fills the last
    /// slot fails the job if the run is over its error budget.
    pub fn merge_partition(
        &mut self,
        partition: usize,
        log: Arc<PersistedLog>,
        cache: CacheStats,
        snapshot_bytes: u64,
    ) -> bool {
        // A released job's slots were all filled.
        let Held::Slots(slots) = &mut self.held else {
            return false;
        };
        if slots.fill(partition, log).is_err() {
            return false;
        }
        if let Some(error) = slots.over_budget() {
            self.failed.get_or_insert_with(|| error.to_string());
        }
        self.cache.merge(&cache);
        self.snapshot_bytes += snapshot_bytes;
        true
    }

    /// Drops the job's slots, keeping only its keys and counts, once the
    /// store holds every log: call it after the completion commit
    /// succeeded with every key persisted. Refuses (returning `false`,
    /// changing nothing) unless every slot is filled, the job has not
    /// failed and every log has a key.
    pub fn release_logs(&mut self) -> bool {
        let Held::Slots(slots) = &self.held else {
            return false;
        };
        let keyed = self.keys.iter().all(Option::is_some);
        if !slots.is_full() || self.failed.is_some() || !keyed {
            return false;
        }
        let errors = slots.errors().total();
        self.held = Held::Stored { errors };
        true
    }

    /// The job's progress snapshot.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id,
            phase: self.phase(),
            total: self.logs.len() as u64,
            completed: self.completed() as u64,
            restarts: self.restarts,
            errors: self.errors(),
            error: self.failed.clone().unwrap_or_default(),
        }
    }

    /// What a report over the partitions merged so far renders from, taken
    /// under the job-table lock: the filled slots' shared results, or the
    /// keys of a job that released its logs. [`PendingReport::render`] does
    /// the rest after the lock is released.
    pub fn pending_report(&self, full: bool) -> PendingReport {
        let source = match &self.held {
            Held::Slots(slots) => Source::Slots(slots.logs().cloned().collect()),
            Held::Stored { .. } => Source::Stored(self.keys.iter().flatten().copied().collect()),
        };
        PendingReport {
            header: JobReport {
                job: self.id,
                complete: self.is_complete(),
                completed: self.completed() as u64,
                total: self.logs.len() as u64,
                errors: self.errors(),
                text: String::new(),
            },
            full,
            source,
        }
    }
}

/// A report taken from a job but not yet rendered (see
/// [`JobState::pending_report`]).
#[derive(Debug)]
pub struct PendingReport {
    /// Every field but the text.
    header: JobReport,
    full: bool,
    source: Source,
}

#[derive(Debug)]
enum Source {
    /// The filled slots' results (input order, gaps skipped).
    Slots(Vec<Arc<PersistedLog>>),
    /// The keys of a released job's logs, in input order.
    Stored(Vec<u128>),
}

impl PendingReport {
    /// Renders the report: input order, gaps skipped, "Total" row
    /// re-merged. A released job's logs are loaded from `store` first and
    /// merged the same way. When the job is complete the text is
    /// byte-identical to the fused engine's report over the same files.
    ///
    /// Fails when a released job's log cannot be loaded: missing from the
    /// store, or its record no longer checks (`InvalidData`).
    pub fn render(self, store: Option<&Mutex<SnapshotStore>>) -> io::Result<JobReport> {
        let datasets = match self.source {
            Source::Slots(logs) => logs.iter().map(|log| log.analysis.clone()).collect(),
            Source::Stored(keys) => {
                let store = store.ok_or_else(|| io::Error::other("no snapshot store attached"))?;
                let logs = load_logs(store, &keys)?;
                logs.into_iter().map(|log| log.analysis).collect()
            }
        };
        let corpus = CorpusAnalysis::from_datasets(datasets);
        let text = if self.full {
            report::full_report(&corpus)
        } else {
            report::table1(&corpus)
        };
        Ok(JobReport {
            text,
            ..self.header
        })
    }
}

/// Loads the logs under `keys`, in order: located under the store's lock,
/// read and decoded after it is released.
pub(crate) fn load_logs(
    store: &Mutex<SnapshotStore>,
    keys: &[u128],
) -> io::Result<Vec<PersistedLog>> {
    let located: Option<Vec<SnapshotRef>> = {
        let guard = store.lock().expect("snapshot store");
        keys.iter().map(|&key| guard.locate(key)).collect()
    };
    let located = located.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "a stored log is missing from the store",
        )
    })?;
    located.iter().map(SnapshotRef::load).collect()
}

/// The server's job table: id allocation, per-job state behind one lock,
/// and a condvar so waiters (drain, `Wait` requests) block until jobs settle.
/// [`Jobs::default`] is empty; ids start at 1, since job 0 means "every
/// job" to an events request.
#[derive(Debug, Default)]
pub struct Jobs {
    accepted: AtomicU64,
    table: Mutex<BTreeMap<u64, JobState>>,
    settled: Condvar,
    /// Set once by [`Jobs::close`], under the table lock.
    closed: AtomicBool,
}

impl Jobs {
    /// Jobs accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Registers a new job and returns its id.
    pub fn create(
        &self,
        population: Population,
        recovery: RecoveryPolicy,
        logs: Vec<LogSpec>,
    ) -> u64 {
        let id = self.accepted.fetch_add(1, Ordering::AcqRel) + 1;
        let mut table = self.table.lock().expect("jobs lock");
        table.insert(id, JobState::new(id, population, recovery, logs));
        id
    }

    /// Runs `f` over the job's state, or `None` for an unknown id.
    pub fn with<T>(&self, job: u64, f: impl FnOnce(&mut JobState) -> T) -> Option<T> {
        let mut table = self.table.lock().expect("jobs lock");
        let result = table.get_mut(&job).map(f);
        // Any mutation may have settled the job; wake waiters cheaply.
        self.settled.notify_all();
        result
    }

    /// Ends every [`Jobs::wait_settled`], pending or future: a stopping
    /// daemon calls it so its sessions answer their `Wait`s and can be
    /// joined.
    pub fn close(&self) {
        let _table = self.table.lock().expect("jobs lock");
        // Under the lock: a waiter checks the flag and starts waiting
        // without letting go of it, so it cannot miss this wake-up.
        self.closed.store(true, Ordering::Release);
        self.settled.notify_all();
    }

    /// Blocks until every job settles or `timeout` elapses. Returns whether
    /// everything settled.
    pub fn wait_all_settled(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut table = self.table.lock().expect("jobs lock");
        loop {
            if table.values().all(|job| job.is_settled()) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .settled
                .wait_timeout(table, deadline - now)
                .expect("jobs lock");
            table = guard;
        }
    }

    /// Blocks until `job` settles, `timeout` elapses or the table closes
    /// ([`Jobs::close`]), woken by the mutation that settles the job or by
    /// the close. Returns the job's status at that moment — still `Running`
    /// on timeout or close — or `None` for an unknown id.
    pub fn wait_settled(&self, job: u64, timeout: Duration) -> Option<JobStatus> {
        // A timeout too large for the clock means "no deadline".
        let deadline = Instant::now().checked_add(timeout);
        let mut table = self.table.lock().expect("jobs lock");
        loop {
            let state = table.get(&job)?;
            let remaining =
                deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let closed = self.closed.load(Ordering::Acquire);
            if state.is_settled() || remaining == Some(Duration::ZERO) || closed {
                return Some(state.status());
            }
            table = match remaining {
                Some(remaining) => {
                    self.settled
                        .wait_timeout(table, remaining)
                        .expect("jobs lock")
                        .0
                }
                None => self.settled.wait(table).expect("jobs lock"),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_core::analysis::DatasetAnalysis;
    use sparqlog_core::corpus::LogSummary;

    fn sample_logs(n: usize) -> Vec<LogSpec> {
        (0..n)
            .map(|i| LogSpec::new(format!("log{i}"), format!("/tmp/log{i}.log")))
            .collect()
    }

    fn empty_summary() -> LogSummary {
        LogSummary {
            label: "log".to_string(),
            counts: Default::default(),
            errors: Default::default(),
        }
    }

    fn log_of(summary: LogSummary) -> Arc<PersistedLog> {
        Arc::new(PersistedLog {
            summary,
            analysis: DatasetAnalysis::default(),
        })
    }

    fn merge_empty(job: &mut JobState, partition: usize) -> bool {
        job.merge_partition(partition, log_of(empty_summary()), CacheStats::default(), 0)
    }

    #[test]
    fn partitions_merge_once_and_phase_progresses() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(2));
        assert_eq!(id, 1);
        assert_eq!(jobs.accepted(), 1);

        let summary = empty_summary();
        let merged = jobs
            .with(id, |job| {
                assert_eq!(job.phase(), JobPhase::Running);
                job.merge_partition(0, log_of(summary.clone()), CacheStats::default(), 10)
            })
            .unwrap();
        assert!(merged);
        // A restarted duplicate of partition 0 must not double-count.
        let merged_again = jobs
            .with(id, |job| {
                job.merge_partition(0, log_of(summary.clone()), CacheStats::default(), 10)
            })
            .unwrap();
        assert!(!merged_again);
        jobs.with(id, |job| {
            assert_eq!(job.status().completed, 1);
            assert_eq!(job.phase(), JobPhase::Running);
            assert!(!job.pending_report(false).header.complete);
            assert!(job.merge_partition(1, log_of(summary.clone()), CacheStats::default(), 12));
            assert_eq!(job.phase(), JobPhase::Complete);
            assert!(job.pending_report(true).header.complete);
            assert_eq!(job.snapshot_bytes, 22);
        });
        assert!(jobs.wait_all_settled(Duration::ZERO));
        assert!(jobs.wait_all_settled(Duration::from_millis(10)));
    }

    #[test]
    fn a_default_table_has_accepted_nothing_and_numbers_jobs_from_one() {
        // Job 0 would read as "every job" to `Request::Events`.
        let jobs = Jobs::default();
        assert_eq!(jobs.accepted(), 0);
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        assert_eq!(id, 1);
        assert_eq!(jobs.accepted(), 1);
    }

    #[test]
    fn failures_settle_a_job() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Valid, RecoveryPolicy::Strict, sample_logs(1));
        assert!(!jobs.wait_all_settled(Duration::ZERO));
        jobs.with(id, |job| {
            job.restarts = 3;
            job.failed = Some("shard 0: worker exited with status 3".to_string());
        });
        assert!(jobs.wait_all_settled(Duration::ZERO));
        let status = jobs.with(id, |job| job.status()).unwrap();
        assert_eq!(status.phase, JobPhase::Failed);
        assert_eq!(status.restarts, 3);
        assert!(status.error.contains("status 3"));
        assert!(jobs.with(99, |_| ()).is_none());
    }

    #[test]
    fn wait_settled_is_woken_by_a_merge_on_another_thread() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        // The merger starts only once the waiter has seen the job running,
        // and with an hour-long timeout only the merge can end the wait.
        let looked = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                looked.wait();
                jobs.with(id, |job| assert!(merge_empty(job, 0)));
            });
            let phase = jobs.with(id, |job| job.phase()).unwrap();
            assert_eq!(phase, JobPhase::Running);
            looked.wait();
            let status = jobs.wait_settled(id, Duration::from_secs(3600)).unwrap();
            assert_eq!(status.phase, JobPhase::Complete);
            assert_eq!(status.completed, 1);
        });
    }

    #[test]
    fn wait_settled_times_out_running_and_knows_no_unknown_job() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        for timeout in [Duration::ZERO, Duration::from_millis(30)] {
            let status = jobs.wait_settled(id, timeout).unwrap();
            assert_eq!(status.phase, JobPhase::Running);
        }
        assert!(jobs.wait_settled(99, Duration::ZERO).is_none());
        // u64::MAX milliseconds overflows the clock: no deadline, not a panic.
        jobs.with(id, |job| job.failed = Some("boom".to_string()));
        let status = jobs
            .wait_settled(id, Duration::from_millis(u64::MAX))
            .unwrap();
        assert_eq!(status.phase, JobPhase::Failed);
    }

    #[test]
    fn wait_settled_returns_when_the_table_closes() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        std::thread::scope(|scope| {
            // With no deadline, only the close can end the wait, whether
            // it comes before the waiter blocks or after.
            let waiter = scope.spawn(|| jobs.wait_settled(id, Duration::MAX));
            jobs.close();
            let status = waiter.join().unwrap().unwrap();
            assert_eq!(status.phase, JobPhase::Running);
        });
        // A closed table answers later waits at once.
        let status = jobs.wait_settled(id, Duration::MAX).unwrap();
        assert_eq!(status.phase, JobPhase::Running);
    }

    #[test]
    fn a_pending_commit_keeps_a_merged_job_running_for_clients() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        jobs.with(id, |job| {
            assert!(merge_empty(job, 0));
            job.commit_pending = true;
            assert_eq!(job.status().phase, JobPhase::Running);
            assert!(!job.pending_report(false).header.complete);
        });
        assert!(!jobs.wait_all_settled(Duration::ZERO));
        let status = jobs.wait_settled(id, Duration::ZERO).unwrap();
        assert_eq!(status.phase, JobPhase::Running);
        jobs.with(id, |job| job.commit_pending = false);
        assert!(jobs.wait_all_settled(Duration::ZERO));
        let status = jobs.wait_settled(id, Duration::ZERO).unwrap();
        assert_eq!(status.phase, JobPhase::Complete);
    }

    #[test]
    fn budget_is_metered_once_when_the_last_partition_merges() {
        use sparqlog_core::ErrorKind;

        let dirty = |defects: u64, total: u64| {
            let mut summary = empty_summary();
            summary.counts.total = total;
            for position in 0..defects {
                summary.errors.record(ErrorKind::InvalidUtf8, position);
            }
            summary
        };

        // 2 defects in 10_000 entries: within budget:2, over budget:1.
        for (max_per_10k, expect_failed) in [(2u32, false), (1u32, true)] {
            let jobs = Jobs::default();
            let id = jobs.create(
                Population::Unique,
                RecoveryPolicy::ErrorBudget { max_per_10k },
                sample_logs(2),
            );
            jobs.with(id, |job| {
                assert!(job.merge_partition(0, log_of(dirty(2, 5_000)), CacheStats::default(), 1));
                // Not judged until the last partition merges.
                assert_eq!(job.phase(), JobPhase::Running);
                assert!(job.merge_partition(1, log_of(dirty(0, 5_000)), CacheStats::default(), 1));
                let status = job.status();
                assert_eq!(status.errors, 2);
                if expect_failed {
                    assert_eq!(status.phase, JobPhase::Failed);
                    assert!(status.error.contains("error budget exceeded"), "{status:?}");
                } else {
                    assert_eq!(status.phase, JobPhase::Complete);
                }
            });
        }
    }
}
