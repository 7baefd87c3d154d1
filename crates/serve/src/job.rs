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

use crate::protocol::{JobPhase, JobReport, JobStatus};
use sparqlog_core::analysis::Population;
use sparqlog_core::cache::CacheStats;
use sparqlog_core::report;
use sparqlog_core::{LogSlots, PersistedLog, RecoveryPolicy};
use sparqlog_shard::LogSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a condvar wait may sleep before re-checking its deadline and
/// cancel flag (wake-ups on settle are immediate; this only bounds how
/// late a stopping daemon notices).
const WAIT_SLICE: Duration = Duration::from_millis(100);

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
    /// submit time. Used to persist completed partitions and to write the
    /// job manifest that warm-starts the job after a daemon restart.
    pub keys: Vec<Option<u128>>,
    /// Completed partitions: slot `i` holds log `i`'s summary + analysis,
    /// shared with the snapshot store when it came from there.
    slots: LogSlots,
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
            slots: LogSlots::new(logs.len(), recovery),
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
        self.slots.is_full() && self.failed.is_none() && !self.commit_pending
    }

    /// Whether the job can make no further progress (complete or failed).
    pub fn is_settled(&self) -> bool {
        self.failed.is_some() || self.is_complete()
    }

    /// Time since the job was accepted.
    pub fn age(&self) -> Duration {
        self.accepted.elapsed()
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
        if self.slots.fill(partition, log).is_err() {
            return false;
        }
        if let Some(error) = self.slots.over_budget() {
            self.failed.get_or_insert_with(|| error.to_string());
        }
        self.cache.merge(&cache);
        self.snapshot_bytes += snapshot_bytes;
        true
    }

    /// The job's progress snapshot.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id,
            phase: self.phase(),
            total: self.slots.total() as u64,
            completed: self.slots.filled() as u64,
            restarts: self.restarts,
            errors: self.slots.errors().total(),
            error: self.failed.clone().unwrap_or_default(),
        }
    }

    /// Renders the report over the partitions merged so far (input order,
    /// gaps skipped, "Total" row re-merged). When the job is complete this
    /// is byte-identical to the fused engine's report over the same files.
    pub fn report(&self, full: bool) -> JobReport {
        let corpus = self.slots.corpus();
        JobReport {
            job: self.id,
            complete: self.is_complete(),
            completed: self.slots.filled() as u64,
            total: self.slots.total() as u64,
            errors: self.slots.errors().total(),
            text: if full {
                report::full_report(&corpus)
            } else {
                report::table1(&corpus)
            },
        }
    }
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

    /// Whether every registered job has settled (complete or failed).
    pub fn all_settled(&self) -> bool {
        let table = self.table.lock().expect("jobs lock");
        table.values().all(|job| job.is_settled())
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
                .wait_timeout(table, (deadline - now).min(WAIT_SLICE))
                .expect("jobs lock");
            table = guard;
        }
    }

    /// Blocks until `job` settles, `timeout` elapses or `cancel` turns true
    /// (checked every 100 ms), woken by the mutation that settles
    /// the job. Returns the job's status at that moment — still `Running`
    /// on timeout or cancellation — or `None` for an unknown id.
    pub fn wait_settled(
        &self,
        job: u64,
        timeout: Duration,
        cancel: &AtomicBool,
    ) -> Option<JobStatus> {
        // A timeout too large for the clock means "no deadline".
        let deadline = Instant::now().checked_add(timeout);
        let mut table = self.table.lock().expect("jobs lock");
        loop {
            let state = table.get(&job)?;
            let remaining = deadline.map_or(WAIT_SLICE, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            if state.is_settled() || remaining.is_zero() || cancel.load(Ordering::Acquire) {
                return Some(state.status());
            }
            let (guard, _) = self
                .settled
                .wait_timeout(table, remaining.min(WAIT_SLICE))
                .expect("jobs lock");
            table = guard;
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
            assert!(!job.report(false).complete);
            assert!(job.merge_partition(1, log_of(summary.clone()), CacheStats::default(), 12));
            assert_eq!(job.phase(), JobPhase::Complete);
            assert!(job.report(true).complete);
            assert_eq!(job.snapshot_bytes, 22);
        });
        assert!(jobs.all_settled());
        assert!(jobs.wait_all_settled(std::time::Duration::from_millis(10)));
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
        assert!(!jobs.all_settled());
        jobs.with(id, |job| {
            job.restarts = 3;
            job.failed = Some("shard 0: worker exited with status 3".to_string());
        });
        assert!(jobs.all_settled());
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
        let cancel = AtomicBool::new(false);
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
            let status = jobs
                .wait_settled(id, Duration::from_secs(3600), &cancel)
                .unwrap();
            assert_eq!(status.phase, JobPhase::Complete);
            assert_eq!(status.completed, 1);
        });
    }

    #[test]
    fn wait_settled_times_out_running_and_knows_no_unknown_job() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        let cancel = AtomicBool::new(false);
        for timeout in [Duration::ZERO, Duration::from_millis(30)] {
            let status = jobs.wait_settled(id, timeout, &cancel).unwrap();
            assert_eq!(status.phase, JobPhase::Running);
        }
        assert!(jobs.wait_settled(99, Duration::ZERO, &cancel).is_none());
        // u64::MAX milliseconds overflows the clock: no deadline, not a panic.
        jobs.with(id, |job| job.failed = Some("boom".to_string()));
        let status = jobs
            .wait_settled(id, Duration::from_millis(u64::MAX), &cancel)
            .unwrap();
        assert_eq!(status.phase, JobPhase::Failed);
    }

    #[test]
    fn wait_settled_returns_when_the_cancel_flag_turns_true() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        let cancel = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| jobs.wait_settled(id, Duration::from_secs(3600), &cancel));
            // No notification accompanies the flag: the waiter must find it
            // on its own, within a wait slice.
            cancel.store(true, Ordering::Release);
            let status = waiter.join().unwrap().unwrap();
            assert_eq!(status.phase, JobPhase::Running);
        });
    }

    #[test]
    fn a_pending_commit_keeps_a_merged_job_running_for_clients() {
        let jobs = Jobs::default();
        let id = jobs.create(Population::Unique, RecoveryPolicy::Lenient, sample_logs(1));
        jobs.with(id, |job| {
            assert!(merge_empty(job, 0));
            job.commit_pending = true;
            assert_eq!(job.status().phase, JobPhase::Running);
            assert!(!job.report(false).complete);
        });
        assert!(!jobs.all_settled());
        let cancel = AtomicBool::new(false);
        let status = jobs.wait_settled(id, Duration::ZERO, &cancel).unwrap();
        assert_eq!(status.phase, JobPhase::Running);
        jobs.with(id, |job| job.commit_pending = false);
        assert!(jobs.all_settled());
        let status = jobs.wait_settled(id, Duration::ZERO, &cancel).unwrap();
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
