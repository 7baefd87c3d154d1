//! Reusable worker-process supervision: spawn a `sparqlog-shard-worker`,
//! decode its snapshot on a background thread while draining stderr, track
//! per-frame liveness, and resolve the outcome with the same structured
//! error precedence the batch [coordinator](crate::coordinator) proved out.
//!
//! Extracted from the coordinator so the long-running `sparqlog-serve`
//! supervisor and the one-shot `analyze_sharded` path share one spawn /
//! decode / diagnose implementation instead of drifting copies — and one
//! thread policy, [`worker_thread_budget`].
//!
//! # Lifecycle
//!
//! ```text
//! WorkerLaunch::spawn ─┬─ stderr drain thread (read_to_string)
//!                      ├─ decode thread (read_snapshot_observed → channel,
//!                      │   touching the ActivityClock per frame)
//!                      └─ WorkerHandle ── join(stall_timeout)
//! ```
//!
//! [`WorkerHandle::join`] blocks until the snapshot decodes (or fails). If
//! a stall timeout is given it wakes at each stall deadline to re-read the
//! [`ActivityClock`]: a worker whose pipe has produced *no frame* (log,
//! epilogue or heartbeat) for the whole timeout is killed and reported as
//! [`ShardError::Stalled`] — the only failure shape EOF-based detection
//! cannot see, since a wedged process keeps its pipe open indefinitely.

use crate::codec::StreamError;
use crate::coordinator::{ShardError, WorkerCommand};
use crate::snapshot::{read_snapshot_observed, WorkerSnapshot};
use crate::worker::AssignedLog;
use sparqlog_core::analysis::Population;
use sparqlog_core::RecoveryPolicy;
use std::io::{BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A monotonic last-activity clock shared between a decode thread (which
/// touches it per decoded frame) and a supervisor (which reads the idle
/// time). Millisecond resolution is ample for stall detection.
#[derive(Debug)]
pub struct ActivityClock {
    start: Instant,
    last_ms: AtomicU64,
}

impl ActivityClock {
    /// A clock whose last activity is *now*.
    pub fn new() -> ActivityClock {
        ActivityClock {
            start: Instant::now(),
            last_ms: AtomicU64::new(0),
        }
    }

    /// Records activity at the current instant.
    pub fn touch(&self) {
        let elapsed = self.start.elapsed().as_millis() as u64;
        self.last_ms.fetch_max(elapsed, Ordering::Release);
    }

    /// Time since the last recorded activity.
    pub fn idle(&self) -> Duration {
        let elapsed = self.start.elapsed().as_millis() as u64;
        Duration::from_millis(elapsed.saturating_sub(self.last_ms.load(Ordering::Acquire)))
    }
}

impl Default for ActivityClock {
    fn default() -> ActivityClock {
        ActivityClock::new()
    }
}

/// Everything needed to launch one supervised worker process.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
    /// How to invoke the worker binary (program, leading args, env).
    pub command: WorkerCommand,
    /// The shard number the worker reports as (names it in errors).
    pub shard: usize,
    /// The population to fold.
    pub population: Population,
    /// `--workers` to pass, if any (None = the worker sizes its own pool,
    /// e.g. from an inherited `SPARQLOG_WORKERS`); see
    /// [`worker_thread_budget`].
    pub worker_threads: Option<usize>,
    /// `--heartbeat-ms` to pass, if any (None = no liveness frames).
    pub heartbeat: Option<Duration>,
    /// The malformed-entry recovery policy to pass as `--recovery`.
    /// [`RecoveryPolicy::Auto`] omits the flag, leaving the worker to
    /// resolve its own `SPARQLOG_RECOVERY` environment.
    pub recovery: RecoveryPolicy,
    /// The logs to assign, in the consumer's index space.
    pub logs: Vec<AssignedLog>,
}

/// The `--workers` value to pass a worker process, if any: an `explicit`
/// count (> 0) wins; otherwise, unless the user pinned the worker pools
/// (`workers_override`, the positive `SPARQLOG_WORKERS` value, which the
/// workers inherit and honour themselves — then `None`), the machine's
/// `cores` are divided among the `concurrent_workers` processes running at
/// once, never below one thread. N worker processes each defaulting to N
/// threads would oversubscribe the host quadratically.
pub fn worker_thread_budget(
    explicit: usize,
    cores: usize,
    concurrent_workers: usize,
    workers_override: Option<usize>,
) -> Option<usize> {
    if explicit > 0 {
        return Some(explicit);
    }
    if workers_override.is_some() {
        return None;
    }
    Some((cores / concurrent_workers.max(1)).max(1))
}

impl WorkerLaunch {
    /// Spawns the worker with piped stdio and starts the stderr-drain and
    /// snapshot-decode threads.
    pub fn spawn(&self) -> Result<WorkerHandle, ShardError> {
        let shard = self.shard;
        let mut command = Command::new(&self.command.program);
        command.args(&self.command.args);
        for (key, value) in &self.command.envs {
            command.env(key, value);
        }
        command.arg("--shard").arg(shard.to_string());
        command.arg("--population").arg(self.population.spelling());
        if let Some(threads) = self.worker_threads {
            command.arg("--workers").arg(threads.to_string());
        }
        if let Some(period) = self.heartbeat {
            command
                .arg("--heartbeat-ms")
                .arg(period.as_millis().max(1).to_string());
        }
        if self.recovery != RecoveryPolicy::Auto {
            command.arg("--recovery").arg(self.recovery.spelling());
        }
        for log in &self.logs {
            command
                .arg("--log")
                .arg(log.index.to_string())
                .arg(&log.label)
                .arg(&log.path);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());

        let mut child = command
            .spawn()
            .map_err(|error| ShardError::Spawn { shard, error })?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr_pipe = child.stderr.take().expect("stderr was piped");

        // Drain stderr on its own thread while stdout decodes: a worker that
        // writes more than one pipe buffer of diagnostics must not be able
        // to wedge itself (blocked in a stderr write) and the supervisor
        // (blocked reading stdout) against each other.
        let stderr_thread = std::thread::spawn(move || {
            let mut stderr = String::new();
            let mut pipe = stderr_pipe;
            let _ = pipe.read_to_string(&mut stderr);
            stderr
        });

        let activity = Arc::new(ActivityClock::new());
        let clock = Arc::clone(&activity);
        let (sender, frames) = mpsc::channel();
        let decode_thread = std::thread::spawn(move || {
            let decoded = read_snapshot_observed(BufReader::new(stdout), |_frame| clock.touch());
            // The receiver may already have given up (stall kill); a closed
            // channel is fine.
            let _ = sender.send(decoded);
        });

        Ok(WorkerHandle {
            shard,
            pid,
            child,
            activity,
            frames,
            stderr_thread: Some(stderr_thread),
            decode_thread: Some(decode_thread),
        })
    }
}

/// A successfully supervised worker's output.
#[derive(Debug, Clone)]
pub struct WorkerOutput {
    /// The decoded snapshot.
    pub snapshot: WorkerSnapshot,
    /// Size of the decoded snapshot stream in bytes.
    pub bytes: u64,
    /// The worker's captured stderr (trimmed; usually empty on success).
    pub stderr: String,
}

/// A running supervised worker: the child process plus its drain/decode
/// threads and liveness clock.
#[derive(Debug)]
pub struct WorkerHandle {
    shard: usize,
    pid: u32,
    child: Child,
    activity: Arc<ActivityClock>,
    frames: mpsc::Receiver<Result<(WorkerSnapshot, u64), StreamError>>,
    stderr_thread: Option<JoinHandle<String>>,
    decode_thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The worker's OS process id (for observability and kill tests).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Waits for the worker to finish and resolves its outcome.
    ///
    /// With `stall_timeout` set, a worker that produces no frame for the
    /// whole timeout is killed and reported as [`ShardError::Stalled`];
    /// heartbeat frames count as activity, so a slow-but-beating worker is
    /// never killed. Without it, this blocks until the pipe closes (the
    /// batch coordinator's behaviour — a dead worker always closes it).
    pub fn join(mut self, stall_timeout: Option<Duration>) -> Result<WorkerOutput, ShardError> {
        let shard = self.shard;
        let mut stalled_for: Option<Duration> = None;
        let decoded = loop {
            let received = match stall_timeout {
                None => self.frames.recv().map_err(mpsc::RecvTimeoutError::from),
                Some(limit) => {
                    let idle = self.activity.idle();
                    if idle >= limit {
                        // Kill closes the pipe; the decode thread sees EOF
                        // and sends promptly — drain it so the threads can
                        // be joined.
                        let _ = self.child.kill();
                        let _ = self.frames.recv();
                        stalled_for = Some(idle);
                        break Err(StreamError::Io(std::io::Error::other("worker stalled")));
                    }
                    // Until the stall deadline; a frame since moves it on.
                    self.frames.recv_timeout(limit - idle)
                }
            };
            match received {
                Ok(decoded) => break decoded,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The decode thread never sends only if it panicked.
                    return Err(ShardError::Stream {
                        shard,
                        error: std::io::Error::other("snapshot decode thread died"),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
        };

        // The stdout pipe is drained (or the worker killed): `wait` returns
        // as soon as the process exits.
        let status = self
            .child
            .wait()
            .map_err(|error| ShardError::Stream { shard, error })?;
        if let Some(thread) = self.decode_thread.take() {
            let _ = thread.join();
        }
        let stderr = self
            .stderr_thread
            .take()
            .and_then(|thread| thread.join().ok())
            .unwrap_or_default()
            .trim()
            .to_string();

        if let Some(waited) = stalled_for {
            return Err(ShardError::Stalled {
                shard,
                waited_ms: waited.as_millis() as u64,
            });
        }
        if !status.success() {
            // A structured decode diagnosis (bad magic, version skew,
            // invalid field) outranks the exit status: closing the pipe on
            // such an error kills a still-writing worker with EPIPE, and
            // reporting that secondary death would bury the root cause.
            // Plain truncation (EOF-shaped errors), by contrast, *is* the
            // symptom of the dead worker, so there the exit status and
            // stderr are the diagnosis.
            if let Err(StreamError::Decode(error)) = &decoded {
                if !matches!(
                    error.kind,
                    crate::codec::DecodeErrorKind::UnexpectedEof
                        | crate::codec::DecodeErrorKind::MissingEpilogue
                ) {
                    return Err(ShardError::Decode {
                        shard,
                        error: error.clone(),
                    });
                }
            }
            return Err(ShardError::Worker {
                shard,
                code: status.code(),
                stderr,
            });
        }
        match decoded {
            Ok((snapshot, bytes)) => Ok(WorkerOutput {
                snapshot,
                bytes,
                stderr,
            }),
            Err(StreamError::Decode(error)) => Err(ShardError::Decode { shard, error }),
            Err(StreamError::Io(error)) => Err(ShardError::Stream { shard, error }),
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // A handle dropped without join (supervisor shutting down) must not
        // leak the process or wedge its threads: kill, reap, detach.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(thread) = self.decode_thread.take() {
            let _ = thread.join();
        }
        if let Some(thread) = self.stderr_thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_clock_reports_idle_time() {
        let clock = ActivityClock::new();
        clock.touch();
        assert!(clock.idle() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(30));
        assert!(clock.idle() >= Duration::from_millis(20));
        clock.touch();
        assert!(clock.idle() < Duration::from_millis(20));
    }

    #[test]
    fn worker_thread_budget_divides_the_machine() {
        // One worker gets every core; as many workers as cores, or more,
        // get one thread each.
        assert_eq!(worker_thread_budget(0, 8, 1, None), Some(8));
        assert_eq!(worker_thread_budget(0, 8, 3, None), Some(2));
        assert_eq!(worker_thread_budget(0, 8, 8, None), Some(1));
        assert_eq!(worker_thread_budget(0, 2, 5, None), Some(1));
        assert_eq!(worker_thread_budget(0, 1, 0, None), Some(1));
        // Explicit thread counts always win.
        assert_eq!(worker_thread_budget(5, 8, 4, None), Some(5));
        assert_eq!(worker_thread_budget(5, 8, 4, Some(3)), Some(5));
        // A pinned pool size is left to the workers, which inherit it.
        assert_eq!(worker_thread_budget(0, 8, 4, Some(3)), None);
        assert_eq!(worker_thread_budget(0, 8, 1, Some(3)), None);
    }

    #[test]
    fn spawn_failure_is_a_structured_shard_error() {
        let launch = WorkerLaunch {
            command: WorkerCommand::new("/definitely/not/a/real/worker/binary"),
            shard: 7,
            population: Population::Unique,
            worker_threads: None,
            heartbeat: None,
            recovery: RecoveryPolicy::Auto,
            logs: vec![AssignedLog {
                index: 0,
                label: "x".to_string(),
                path: "/tmp/none.log".into(),
            }],
        };
        let error = launch.spawn().unwrap_err();
        let ShardError::Spawn { shard: 7, .. } = error else {
            panic!("expected a spawn error, got {error}");
        };
    }
}
