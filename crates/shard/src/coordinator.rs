//! The shard coordinator: partitions a corpus across N worker *processes*,
//! decodes their framed snapshots, merges them commutatively, and produces a
//! [`CorpusAnalysis`] proven byte-identical to the single-process fused
//! engine's.
//!
//! # Partitioning and byte-identity
//!
//! Logs are assigned to shards **round-robin at log granularity** (shard `i`
//! of `n` gets logs `i, i + n, i + 2n, …`). A log never splits across
//! shards, because the *Unique* population folds each distinct fingerprint
//! once **per log** — a fingerprint straddling two shards of one log would
//! double-fold. At log granularity every per-log [`DatasetAnalysis`] a
//! worker computes is exactly what the unsharded fused engine computes for
//! that log (per-dataset folds never read other logs), so reassembling the
//! datasets in input order and re-merging the "Total" row reproduces the
//! single-process report byte for byte, at any shard count and any
//! per-worker thread count. (Summaries of a log *split* across processes
//! can still be combined with [`LogSummary::merge`] — the wire format
//! supports it — but the report path deliberately never needs to.)
//!
//! # Fault model
//!
//! Every failure is a structured [`ShardError`] naming the shard: spawn
//! failures, workers that exit early or abnormally (non-zero status or
//! killed mid-stream — their captured stderr rides along), truncated
//! frames, codec version mismatches, and snapshots whose log set disagrees
//! with the assignment. The coordinator never hangs on a dead worker: a
//! dying process closes its stdout pipe, the decoder sees EOF, and the exit
//! status is read with `wait` (no busy polling, no timeouts needed).

use crate::codec::DecodeError;
use crate::snapshot::WorkerSnapshot;
use crate::supervise::WorkerLaunch;
use crate::worker::AssignedLog;
use sparqlog_core::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::LogSummary;
use sparqlog_core::{BudgetExceeded, RecoveryPolicy};
use std::fmt;
use std::io;
use std::path::PathBuf;

/// One log of the corpus to analyse: a dataset label and the file holding
/// its entries (one per line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSpec {
    /// The dataset label.
    pub label: String,
    /// Path of the log file.
    pub path: PathBuf,
}

impl LogSpec {
    /// Creates a log spec.
    pub fn new(label: impl Into<String>, path: impl Into<PathBuf>) -> LogSpec {
        LogSpec {
            label: label.into(),
            path: path.into(),
        }
    }
}

/// How to launch a worker process. The coordinator appends the per-shard
/// arguments (`--shard`, `--population`, `--workers`, `--log …`) after
/// `args`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// The worker executable.
    pub program: PathBuf,
    /// Arguments placed before the coordinator's own.
    pub args: Vec<String>,
    /// Extra environment variables for the worker processes.
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command for the given executable with no extra arguments.
    pub fn new(program: impl Into<PathBuf>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Adds an environment variable for the worker processes.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> WorkerCommand {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Resolves the worker binary the way the shipped tooling does: the
    /// `SPARQLOG_SHARD_WORKER` environment variable if set, otherwise the
    /// `sparqlog-shard-worker` binary next to the current executable (where
    /// Cargo puts workspace binaries built by the same profile).
    pub fn resolve_default() -> io::Result<WorkerCommand> {
        if let Ok(path) = std::env::var("SPARQLOG_SHARD_WORKER") {
            return Ok(WorkerCommand::new(path));
        }
        let exe = std::env::current_exe()?;
        let dir = exe.parent().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "current executable has no parent")
        })?;
        let name = format!("sparqlog-shard-worker{}", std::env::consts::EXE_SUFFIX);
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(WorkerCommand::new(candidate));
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "worker binary {name} not found next to {} — build it with \
                 `cargo build -p sparqlog` or point SPARQLOG_SHARD_WORKER at it",
                exe.display()
            ),
        ))
    }
}

/// Tuning knobs of a sharded run. The report never depends on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOptions {
    /// Worker processes; `0` uses [`default_shards`] (which honours the
    /// `SPARQLOG_SHARDS` environment override).
    pub shards: usize,
    /// Fused-engine threads *per worker process* (passed as `--workers`).
    /// `0` divides the machine's parallelism across the spawned shards
    /// (N processes each defaulting to N threads would oversubscribe the
    /// host quadratically) — unless `SPARQLOG_WORKERS` is set, in which
    /// case the workers inherit it untouched.
    pub worker_threads: usize,
    /// How to launch workers.
    pub worker: WorkerCommand,
    /// The malformed-entry recovery policy, forwarded to every worker as
    /// `--recovery`. A budgeted policy runs the workers leniently; the
    /// budget itself is metered here, once, over the merged tallies.
    pub recovery: RecoveryPolicy,
}

impl ShardOptions {
    /// Options with the default shard count, worker threads and recovery.
    pub fn new(worker: WorkerCommand) -> ShardOptions {
        ShardOptions {
            shards: 0,
            worker_threads: 0,
            worker,
            recovery: RecoveryPolicy::Auto,
        }
    }
}

/// The shard count used when [`ShardOptions::shards`] is 0: the
/// `SPARQLOG_SHARDS` environment variable if set to a positive integer,
/// otherwise the available parallelism. The override exists so CI can pin
/// the process matrix (the same pattern as `SPARQLOG_WORKERS`).
pub fn default_shards() -> usize {
    if let Some(n) = std::env::var("SPARQLOG_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A failure of a sharded run. Every process-level variant names the shard.
#[derive(Debug)]
pub enum ShardError {
    /// The corpus was empty.
    NoLogs,
    /// Spawning a worker process failed.
    Spawn {
        /// The shard whose worker could not start.
        shard: usize,
        /// The spawn failure.
        error: io::Error,
    },
    /// Reading a worker's stdout failed at the transport level.
    Stream {
        /// The shard whose pipe failed.
        shard: usize,
        /// The I/O failure.
        error: io::Error,
    },
    /// A worker's snapshot did not decode: truncated frame, codec version
    /// mismatch, bad magic, invalid field, missing epilogue, …
    Decode {
        /// The shard whose snapshot was bad.
        shard: usize,
        /// The structured decode failure (with stream offset).
        error: DecodeError,
    },
    /// A worker exited with a non-zero status or was killed by a signal —
    /// including workers that died mid-stream.
    Worker {
        /// The shard whose worker failed.
        shard: usize,
        /// The exit code, if the process exited (None = killed by signal).
        code: Option<i32>,
        /// The worker's captured stderr (trimmed).
        stderr: String,
    },
    /// A worker kept its pipe open but produced no frame (log, epilogue or
    /// heartbeat) for longer than the supervisor's stall timeout, and was
    /// killed. Only raised when a stall timeout is configured
    /// ([`crate::supervise::WorkerHandle::join`]); the batch coordinator
    /// relies on pipe EOF alone.
    Stalled {
        /// The shard whose worker wedged.
        shard: usize,
        /// How long the pipe had been silent when the worker was killed.
        waited_ms: u64,
    },
    /// A worker reported a log index outside the corpus.
    UnknownLog {
        /// The reporting shard.
        shard: usize,
        /// The out-of-range index.
        index: u64,
    },
    /// Two frames claimed the same log.
    DuplicateLog {
        /// The shard whose frame collided.
        shard: usize,
        /// The index reported twice.
        index: u64,
    },
    /// No shard reported this log.
    MissingLog {
        /// The index never reported.
        index: usize,
        /// Its label.
        label: String,
    },
    /// The merged end-of-run defect rate exceeded the configured error
    /// budget ([`ShardOptions::recovery`]). Carries the structured failure
    /// with the merged tally preserved for postmortems.
    Budget {
        /// The budget failure.
        error: BudgetExceeded,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoLogs => write!(f, "no logs to analyse"),
            ShardError::Spawn { shard, error } => {
                write!(f, "shard {shard}: failed to spawn worker: {error}")
            }
            ShardError::Stream { shard, error } => {
                write!(f, "shard {shard}: failed to read worker snapshot: {error}")
            }
            ShardError::Decode { shard, error } => {
                write!(f, "shard {shard}: snapshot decode failed: {error}")
            }
            ShardError::Worker {
                shard,
                code,
                stderr,
            } => {
                match code {
                    Some(code) => write!(f, "shard {shard}: worker exited with status {code}")?,
                    None => write!(f, "shard {shard}: worker was killed before finishing")?,
                }
                if !stderr.is_empty() {
                    write!(f, "; stderr: {stderr}")?;
                }
                Ok(())
            }
            ShardError::Stalled { shard, waited_ms } => {
                write!(
                    f,
                    "shard {shard}: worker stalled ({waited_ms} ms without a frame) and was killed"
                )
            }
            ShardError::UnknownLog { shard, index } => {
                write!(
                    f,
                    "shard {shard}: snapshot reported unknown log index {index}"
                )
            }
            ShardError::DuplicateLog { shard, index } => {
                write!(
                    f,
                    "shard {shard}: snapshot reported log index {index} twice"
                )
            }
            ShardError::MissingLog { index, label } => {
                write!(f, "no shard reported log {index} ({label})")
            }
            ShardError::Budget { error } => write!(f, "{error}"),
        }
    }
}

impl ShardError {
    /// The shard this error names, if any (corpus-level failures like
    /// [`ShardError::NoLogs`] and [`ShardError::MissingLog`] name none).
    pub fn shard(&self) -> Option<usize> {
        match self {
            ShardError::NoLogs | ShardError::MissingLog { .. } | ShardError::Budget { .. } => None,
            ShardError::Spawn { shard, .. }
            | ShardError::Stream { shard, .. }
            | ShardError::Decode { shard, .. }
            | ShardError::Worker { shard, .. }
            | ShardError::Stalled { shard, .. }
            | ShardError::UnknownLog { shard, .. }
            | ShardError::DuplicateLog { shard, .. } => Some(*shard),
        }
    }
}

impl std::error::Error for ShardError {}

/// The collected failure of [`analyze_sharded_all`]: every shard error the
/// run produced, in shard order, instead of only the first. Always holds at
/// least one error.
#[derive(Debug)]
pub struct ShardFailure {
    /// The per-shard (and corpus-level) errors, in shard order.
    pub errors: Vec<ShardError>,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.errors.len() {
            0 => write!(f, "sharded run failed with no recorded error"),
            1 => write!(f, "{}", self.errors[0]),
            n => {
                write!(f, "{n} failures:")?;
                for error in &self.errors {
                    write!(f, "\n  - {error}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ShardFailure {}

impl From<ShardError> for ShardFailure {
    fn from(error: ShardError) -> ShardFailure {
        ShardFailure {
            errors: vec![error],
        }
    }
}

/// Per-shard observability of a sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunStats {
    /// The shard number.
    pub shard: usize,
    /// Logs this shard analysed.
    pub logs: usize,
    /// Size of the decoded snapshot in bytes (header + frames).
    pub snapshot_bytes: u64,
}

/// The result of a sharded run: per-log summaries and the corpus analysis
/// in the original input order (byte-identical to the single-process fused
/// engine's), plus merged cache counters and per-shard snapshot stats.
#[derive(Debug, Clone)]
pub struct ShardedAnalysis {
    /// Per-log summaries, in input order.
    pub summaries: Vec<LogSummary>,
    /// The corpus analysis (datasets in input order + the "Total" row).
    pub corpus: CorpusAnalysis,
    /// The workers' cache counters, summed. `distinct` is summed across
    /// per-process caches, so canonical forms shared between shards count
    /// once per shard — an upper bound on the corpus-wide distinct count.
    pub cache: CacheStats,
    /// Per-shard run stats, one entry per spawned worker.
    pub shard_stats: Vec<ShardRunStats>,
}

impl ShardedAnalysis {
    /// Worker processes that ran.
    pub fn shards(&self) -> usize {
        self.shard_stats.len()
    }

    /// Total snapshot bytes decoded across all shards.
    pub fn snapshot_bytes(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.snapshot_bytes).sum()
    }
}

/// Round-robin assignment of `log_count` logs to at most `shards` shards:
/// shard `i` gets logs `i, i + n, i + 2n, …`. Returns only non-empty
/// assignments (at most `min(shards, log_count)` of them), each sorted
/// ascending.
pub fn partition(log_count: usize, shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.clamp(1, log_count.max(1));
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for index in 0..log_count {
        assignments[index % shards].push(index);
    }
    assignments.retain(|a| !a.is_empty());
    assignments
}

/// One worker's decoded output.
struct ShardOutput {
    snapshot: WorkerSnapshot,
    bytes: u64,
}

/// Spawns the worker for one shard via the shared supervision layer
/// ([`crate::supervise`]), streams its snapshot, and turns every failure
/// into a [`ShardError`] naming the shard. The batch path runs without
/// heartbeats or stall timeouts: a dead worker always closes its pipe, and
/// a batch run has no other clients to protect from a slow shard.
fn run_shard(
    shard: usize,
    spawned_shards: usize,
    assignment: &[usize],
    logs: &[LogSpec],
    population: Population,
    options: &ShardOptions,
) -> Result<ShardOutput, ShardError> {
    let launch = WorkerLaunch {
        command: options.worker.clone(),
        shard,
        population,
        worker_threads: worker_thread_budget(options.worker_threads, spawned_shards),
        heartbeat: None,
        recovery: options.recovery,
        logs: assignment
            .iter()
            .map(|&index| AssignedLog {
                index: index as u64,
                label: logs[index].label.clone(),
                path: logs[index].path.clone(),
            })
            .collect(),
    };
    let output = launch.spawn()?.join(None)?;
    Ok(ShardOutput {
        snapshot: output.snapshot,
        bytes: output.bytes,
    })
}

/// The `--workers` value to pass a worker process, if any: an explicit
/// `worker_threads` wins; otherwise, unless the user took control of the
/// worker pools via `SPARQLOG_WORKERS` (which the workers inherit), the
/// machine's parallelism is divided across the spawned shards — N worker
/// processes each defaulting to N threads would oversubscribe the host
/// quadratically.
fn worker_thread_budget(worker_threads: usize, spawned_shards: usize) -> Option<usize> {
    if worker_threads > 0 {
        return Some(worker_threads);
    }
    if std::env::var_os("SPARQLOG_WORKERS").is_some() {
        return None;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Some((cores / spawned_shards.max(1)).max(1))
}

/// Analyses a corpus of on-disk logs across worker processes and merges the
/// result (see the [module docs](self) for the partitioning argument).
///
/// The report rendered from the returned [`CorpusAnalysis`] is
/// byte-identical to running the fused single-process engine over the same
/// files — `tests/shard.rs` proves it across shard counts and worker
/// matrices.
pub fn analyze_sharded(
    logs: &[LogSpec],
    population: Population,
    options: &ShardOptions,
) -> Result<ShardedAnalysis, ShardError> {
    analyze_sharded_all(logs, population, options).map_err(|mut failure| {
        // The errors are in shard order, so "first" is deterministic.
        failure.errors.remove(0)
    })
}

/// [`analyze_sharded`], but a partial failure reports **every** failing
/// shard (in shard order) instead of only the first — the shape the
/// `sparqlog-shard` CLI renders as a per-shard error table and the CI fault
/// jobs assert on.
pub fn analyze_sharded_all(
    logs: &[LogSpec],
    population: Population,
    options: &ShardOptions,
) -> Result<ShardedAnalysis, ShardFailure> {
    if logs.is_empty() {
        return Err(ShardError::NoLogs.into());
    }
    let shards = if options.shards > 0 {
        options.shards
    } else {
        default_shards()
    };
    let assignments = partition(logs.len(), shards);
    let spawned_shards = assignments.len();

    // One decoding thread per worker process; results keep shard order so
    // the first failing shard is reported deterministically.
    let results: Vec<Result<ShardOutput, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .enumerate()
            .map(|(shard, assignment)| {
                scope.spawn(move || {
                    run_shard(shard, spawned_shards, assignment, logs, population, options)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard threads must not panic"))
            .collect()
    });

    let mut outputs = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok(output) => outputs.push(output),
            Err(error) => errors.push(error),
        }
    }
    if !errors.is_empty() {
        return Err(ShardFailure { errors });
    }

    // Reassemble the corpus in input order.
    let mut slots: Vec<Option<(LogSummary, DatasetAnalysis)>> =
        (0..logs.len()).map(|_| None).collect();
    let mut cache = CacheStats::default();
    let mut shard_stats = Vec::with_capacity(outputs.len());
    let registry = sparqlog_obs::global();
    for (shard, output) in outputs.into_iter().enumerate() {
        cache.merge(&output.snapshot.epilogue.cache);
        // Fold the worker process's metrics into this process's registry:
        // the per-stage pipeline latencies measured inside the worker
        // surface wherever the coordinator's snapshot is served from.
        registry.absorb(&output.snapshot.epilogue.metrics);
        if sparqlog_obs::enabled() {
            registry.counter("shard_workers_total").incr();
            registry
                .counter("shard_snapshot_bytes_total")
                .add(output.bytes);
            registry
                .counter("shard_log_frames_total")
                .add(output.snapshot.logs.len() as u64);
        }
        shard_stats.push(ShardRunStats {
            shard,
            logs: output.snapshot.logs.len(),
            snapshot_bytes: output.bytes,
        });
        for frame in output.snapshot.logs {
            let index = usize::try_from(frame.index)
                .ok()
                .filter(|&i| i < logs.len())
                .ok_or(ShardError::UnknownLog {
                    shard,
                    index: frame.index,
                })?;
            let slot = &mut slots[index];
            if slot.is_some() {
                return Err(ShardError::DuplicateLog {
                    shard,
                    index: frame.index,
                }
                .into());
            }
            *slot = Some((frame.summary, frame.analysis));
        }
    }

    let mut summaries = Vec::with_capacity(logs.len());
    let mut datasets = Vec::with_capacity(logs.len());
    for (index, slot) in slots.into_iter().enumerate() {
        let Some((summary, analysis)) = slot else {
            return Err(ShardError::MissingLog {
                index,
                label: logs[index].label.clone(),
            }
            .into());
        };
        summaries.push(summary);
        datasets.push(analysis);
    }

    // The deterministic tail of the single-process engine: merge the
    // per-dataset analyses (exact integer sums and maxima) into the "Total"
    // row, in input order.
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    for dataset in &datasets {
        combined.merge(dataset);
    }
    let corpus = CorpusAnalysis { datasets, combined };
    // A budgeted policy is metered exactly once, here, over the merged
    // tallies — the workers streamed leniently, so every partition's
    // defects are present and the verdict matches the unsharded engines.
    if let Err(error) = corpus.enforce_budget(options.recovery) {
        let budget = error
            .get_ref()
            .and_then(|payload| payload.downcast_ref::<BudgetExceeded>())
            .cloned()
            .expect("enforce_budget fails only with a BudgetExceeded payload");
        return Err(ShardError::Budget { error: budget }.into());
    }
    Ok(ShardedAnalysis {
        summaries,
        corpus,
        cache,
        shard_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_round_robin_and_total() {
        assert_eq!(partition(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(partition(3, 8), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(partition(4, 1), vec![vec![0, 1, 2, 3]]);
        assert_eq!(partition(0, 3), Vec::<Vec<usize>>::new());
        // Every log lands in exactly one shard.
        for (logs, shards) in [(13, 4), (7, 7), (20, 3)] {
            let assignments = partition(logs, shards);
            let mut seen: Vec<usize> = assignments.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..logs).collect::<Vec<_>>());
            assert!(assignments
                .iter()
                .all(|a| a.windows(2).all(|w| w[0] < w[1])));
        }
    }

    #[test]
    fn worker_thread_budget_divides_the_machine() {
        // Explicit thread counts always win.
        assert_eq!(worker_thread_budget(5, 4), Some(5));
        // With SPARQLOG_WORKERS unset (never set by the test harness), the
        // parallelism is divided across shards, never below one thread.
        if std::env::var_os("SPARQLOG_WORKERS").is_none() {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            assert_eq!(worker_thread_budget(0, 1), Some(cores));
            assert_eq!(worker_thread_budget(0, cores * 2), Some(1));
        }
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let options = ShardOptions::new(WorkerCommand::new("/nonexistent"));
        let error = analyze_sharded(&[], Population::Unique, &options).unwrap_err();
        assert!(matches!(error, ShardError::NoLogs));
    }

    #[test]
    fn spawn_failure_names_the_shard() {
        let options = ShardOptions {
            shards: 1,
            worker_threads: 0,
            worker: WorkerCommand::new("/definitely/not/a/real/worker/binary"),
            recovery: RecoveryPolicy::Auto,
        };
        let logs = [LogSpec::new("x", "/tmp/does-not-matter.log")];
        let error = analyze_sharded(&logs, Population::Unique, &options).unwrap_err();
        let ShardError::Spawn { shard: 0, .. } = error else {
            panic!("expected a spawn error, got {error}");
        };
        assert!(format!("{error}").contains("shard 0"));
    }

    #[test]
    fn shard_error_messages_name_the_shard() {
        let samples: Vec<ShardError> = vec![
            ShardError::Decode {
                shard: 3,
                error: DecodeError {
                    kind: crate::codec::DecodeErrorKind::UnexpectedEof,
                    offset: 17,
                },
            },
            ShardError::Worker {
                shard: 5,
                code: None,
                stderr: "boom".to_string(),
            },
            ShardError::UnknownLog { shard: 2, index: 9 },
            ShardError::DuplicateLog { shard: 4, index: 1 },
        ];
        for (error, shard) in samples.iter().zip([3usize, 5, 2, 4]) {
            assert!(
                format!("{error}").contains(&format!("shard {shard}")),
                "{error}"
            );
        }
    }
}
