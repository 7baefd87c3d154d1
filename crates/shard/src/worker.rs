//! The shard worker: runs the fused single-pass engine
//! ([`analyze_streams_with`]) over its assigned partition of logs and writes
//! a framed binary snapshot (see [`crate::codec`] / [`crate::snapshot`]) to
//! a byte sink — in production, its stdout, consumed by the
//! [coordinator](crate::coordinator) or the `sparqlog-serve` supervisor.
//!
//! The worker is a *mode*, not a policy: it analyses exactly the
//! `(index, label, path)` triples it is told to, with the population and
//! thread count it is told to use, and reports one [`LogFrame`] per log plus
//! an [`EpilogueFrame`] of counters. All partitioning decisions live in the
//! coordinator.
//!
//! Every frame — log, epilogue and heartbeat — goes out through
//! [`Frame::write_checked_to`] as one codec frame with a CRC32C trailer, so
//! a consumer catches in-flight corruption at the exact frame that broke
//! instead of failing later inside an unrelated field decode.
//!
//! # Command line
//!
//! ```text
//! --shard <index>                      this worker's shard number (errors/logging)
//! --population <unique|valid>          which population to fold
//! --workers <n>                        fused-engine threads (0 = default)
//! --heartbeat-ms <n>                   liveness heartbeat period (0/absent = off)
//! --recovery <strict|lenient|budget:n> malformed-entry policy (default: env/strict)
//! --log <index> <label> <path>         one assigned log (repeated)
//! ```
//!
//! A budgeted policy streams *leniently* inside the worker: the budget is a
//! whole-run rate, so only the coordinator — which sees the merged tallies —
//! can meter it. The worker's job is to tally defects and keep going.
//!
//! # Liveness
//!
//! With `--heartbeat-ms` set, the stream header is written (and flushed)
//! *before* analysis starts, and a side thread interleaves
//! [`Frame::Heartbeat`] frames into the output while the analysis runs, so
//! a supervisor watching the pipe can distinguish a slow worker from a
//! wedged one. The heartbeat thread is stopped **while the writer lock is
//! still held** after the epilogue — a beat after the epilogue would be a
//! `TrailingFrame` to the decoder.
//!
//! # Fault injection (tests only)
//!
//! All fault-injection behaviour is defined by [`crate::faults`] — the
//! modes, their env knobs (`SPARQLOG_SHARD_FAULT`, shard scoping, once-only
//! flag files, the delay duration) and the exit status — so the worker, the
//! coordinator tests and the CI fault matrix cannot drift apart.

use crate::codec::write_stream_header;
use crate::faults::{self, FaultMode, WORKER_FAULT_EXIT};
use crate::snapshot::{EpilogueFrame, Frame, HeartbeatFrame, LogFrame};
use sparqlog_core::analysis::Population;
use sparqlog_core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog_core::RecoveryPolicy;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One log assigned to this worker: its index in the coordinator's corpus
/// order, its dataset label, and the file to stream it from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignedLog {
    /// Index in the coordinator's input order (echoed back in the frame).
    pub index: u64,
    /// The dataset label.
    pub label: String,
    /// Path of the log file (one entry per line).
    pub path: PathBuf,
}

/// A parsed worker invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// This worker's shard number (used in error messages).
    pub shard: usize,
    /// The population to fold.
    pub population: Population,
    /// Fused-engine worker threads (0 = `default_workers()`).
    pub workers: usize,
    /// Liveness heartbeat period (`--heartbeat-ms`; `None` = no heartbeats).
    pub heartbeat: Option<Duration>,
    /// The malformed-entry recovery policy (`--recovery`); a budgeted
    /// policy runs leniently here and is metered by the coordinator.
    pub recovery: RecoveryPolicy,
    /// The assigned logs, in coordinator order.
    pub logs: Vec<AssignedLog>,
}

/// Parses the worker command line (everything after the program name).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<WorkerConfig, String> {
    let mut args = args.into_iter();
    let mut config = WorkerConfig {
        shard: 0,
        population: Population::Unique,
        workers: 0,
        heartbeat: None,
        recovery: RecoveryPolicy::Auto,
        logs: Vec::new(),
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--shard" => {
                let value = args.next().ok_or("--shard needs a value")?;
                config.shard = value
                    .parse()
                    .map_err(|_| format!("invalid --shard value {value:?}"))?;
            }
            "--population" => {
                let value = args.next().ok_or("--population needs a value")?;
                config.population = Population::parse(&value)
                    .ok_or_else(|| format!("unknown population {value:?}"))?;
            }
            "--workers" => {
                let value = args.next().ok_or("--workers needs a value")?;
                config.workers = value
                    .parse()
                    .map_err(|_| format!("invalid --workers value {value:?}"))?;
            }
            "--heartbeat-ms" => {
                let value = args.next().ok_or("--heartbeat-ms needs a value")?;
                let millis: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --heartbeat-ms value {value:?}"))?;
                config.heartbeat = (millis > 0).then(|| Duration::from_millis(millis));
            }
            "--recovery" => {
                let value = args.next().ok_or("--recovery needs a value")?;
                config.recovery = RecoveryPolicy::parse(&value)
                    .ok_or_else(|| format!("invalid --recovery value {value:?}"))?;
            }
            "--log" => {
                let index = args.next().ok_or("--log needs <index> <label> <path>")?;
                let label = args.next().ok_or("--log needs <index> <label> <path>")?;
                let path = args.next().ok_or("--log needs <index> <label> <path>")?;
                config.logs.push(AssignedLog {
                    index: index
                        .parse()
                        .map_err(|_| format!("invalid --log index {index:?}"))?,
                    label,
                    path: PathBuf::from(path),
                });
            }
            other => return Err(format!("unknown worker flag {other:?}")),
        }
    }
    if config.logs.is_empty() {
        return Err("a worker needs at least one --log assignment".to_string());
    }
    Ok(config)
}

/// Analyses the assigned logs and writes the framed snapshot to `out`.
///
/// The per-log [`DatasetAnalysis`](sparqlog_core::analysis::DatasetAnalysis)
/// records are exactly what the single-process fused engine would compute
/// for these logs — per-dataset folds never depend on which other logs share
/// the run — which is what makes the coordinator's merged report
/// byte-identical to the unsharded one.
///
/// The writer must be `Send`: with a heartbeat period configured, a scoped
/// side thread shares it (behind a mutex) to interleave liveness frames.
pub fn run(config: &WorkerConfig, out: &mut (impl Write + Send)) -> io::Result<()> {
    let fault = faults::injected(config.shard);
    match fault {
        Some(FaultMode::Die) => {
            eprintln!("injected fault: die (shard {})", config.shard);
            std::process::exit(WORKER_FAULT_EXIT);
        }
        Some(FaultMode::WrongVersion) => {
            out.write_all(&crate::codec::MAGIC)?;
            out.write_all(&[crate::codec::VERSION.wrapping_add(1)])?;
            return out.flush();
        }
        Some(FaultMode::Truncate) => {
            write_stream_header(out)?;
            // Declare a 64-byte frame but deliver only 10 bytes of it.
            out.write_all(&[64])?;
            out.write_all(&[0u8; 10])?;
            return out.flush();
        }
        Some(FaultMode::StderrFlood) => {
            // Several pipe buffers of diagnostics *before* any stdout is
            // written: without a concurrent stderr drain, the coordinator
            // (blocked reading stdout) and this worker (blocked writing
            // stderr) would deadlock. The run then proceeds normally.
            let line = "injected fault: stderr-flood padding line\n".repeat(64);
            let stderr = io::stderr();
            let mut handle = stderr.lock();
            for _ in 0..128 {
                handle.write_all(line.as_bytes())?;
            }
            handle.flush()?;
        }
        _ => {}
    }

    let readers: Vec<Box<dyn LogReader>> = config
        .logs
        .iter()
        .map(|log| {
            FileLogReader::open(log.label.clone(), &log.path)
                .map(|reader| Box::new(reader) as Box<dyn LogReader>)
        })
        .collect::<io::Result<_>>()?;

    // The header goes out (and is flushed) before the analysis starts:
    // liveness observation begins the moment the worker is healthy, not
    // after its possibly-long first fold.
    write_stream_header(out)?;
    out.flush()?;

    if fault == Some(FaultMode::Stall) {
        // A wedged worker: header written, then nothing — no frames and no
        // heartbeats (the beat thread is not running yet). Only a
        // heartbeat/stall timeout can tell this apart from a slow analysis.
        eprintln!("injected fault: stall (shard {})", config.shard);
        std::thread::sleep(faults::STALL);
    }

    let stop = AtomicBool::new(false);
    let shared = Mutex::new(out);
    std::thread::scope(|scope| {
        let beat = config.heartbeat.map(|period| {
            let (shared, stop) = (&shared, &stop);
            scope.spawn(move || heartbeat_loop(period, shared, stop))
        });
        let result = stream_frames(config, fault, readers, &shared, &stop);
        // Error paths must release the heartbeat thread too — and every path
        // wakes it, so the scope's join (and with it the process's exit and
        // the consumer's EOF) never waits out the rest of a beat period.
        stop.store(true, Ordering::Release);
        if let Some(beat) = &beat {
            beat.thread().unpark();
        }
        result
    })
}

/// Interleaves heartbeat frames into the shared writer every `period` until
/// `stop` is set. Parks between beats — [`run`] unparks it right after
/// setting `stop`, so shutdown is immediate — and re-checks `stop` *after*
/// taking the writer lock: the analysis thread sets it while holding the lock
/// after the epilogue, so no beat can trail the epilogue.
fn heartbeat_loop<W: Write>(period: Duration, shared: &Mutex<&mut W>, stop: &AtomicBool) {
    let mut seq = 0u64;
    loop {
        let deadline = Instant::now() + period;
        loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            // A park may return early (spuriously, or on the unpark that
            // follows `stop`); both re-check above.
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::park_timeout(deadline - now);
        }
        let Ok(mut guard) = shared.lock() else {
            return;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        seq += 1;
        let beat = Frame::Heartbeat(HeartbeatFrame { seq });
        if beat
            .write_checked_to(&mut **guard)
            .and_then(|()| guard.flush())
            .is_err()
        {
            // Broken pipe: the consumer is gone. The analysis thread will
            // hit the same error on its next frame; just stop beating.
            return;
        }
    }
}

/// The analysis half of [`run`]: folds the readers and streams log frames +
/// the epilogue through the shared writer.
fn stream_frames<W: Write>(
    config: &WorkerConfig,
    fault: Option<FaultMode>,
    readers: Vec<Box<dyn LogReader>>,
    shared: &Mutex<&mut W>,
    stop: &AtomicBool,
) -> io::Result<()> {
    if fault == Some(FaultMode::Delay) {
        // A slow-but-healthy worker: heartbeats keep flowing while this
        // thread sleeps, so a supervisor must NOT kill it.
        eprintln!("injected fault: delay (shard {})", config.shard);
        std::thread::sleep(faults::delay_duration());
    }
    // A budgeted run streams leniently in the worker: the budget is a
    // whole-run rate, enforced once by the coordinator over merged tallies.
    let recovery = match config.recovery.resolve() {
        RecoveryPolicy::ErrorBudget { .. } => RecoveryPolicy::Lenient,
        policy => policy,
    };
    let fused = analyze_streams_with(
        readers,
        config.population,
        FusedOptions {
            workers: config.workers,
            batch: 0,
            recovery,
        },
    )?;

    let frames = config
        .logs
        .iter()
        .zip(fused.summaries)
        .zip(fused.corpus.datasets);
    let mut written = 0u64;
    for ((assigned, summary), analysis) in frames {
        let mut guard = shared.lock().expect("writer lock");
        Frame::from(LogFrame {
            index: assigned.index,
            summary,
            analysis,
        })
        .write_checked_to(&mut **guard)?;
        written += 1;
        if fault == Some(FaultMode::AbortMidStream) {
            // Simulate a worker killed mid-stream: the first frame reaches
            // the pipe, then the process dies abruptly — no epilogue, no
            // clean exit status.
            guard.flush()?;
            eprintln!("injected fault: abort-mid-stream (shard {})", config.shard);
            std::process::abort();
        }
    }
    let mut guard = shared.lock().expect("writer lock");
    // Counted before the snapshot below so the shard layer shows up in the
    // registry this worker ships home.
    sparqlog_obs::global()
        .counter("shard_log_frames_streamed_total")
        .add(written);
    Frame::Epilogue(EpilogueFrame {
        log_frames: written,
        cache: fused.stats.cache.unwrap_or_default(),
        fused: fused.fused,
        // The worker's whole registry rides home in the epilogue: the
        // coordinator absorbs it, so per-stage pipeline latencies measured
        // in this process surface in the coordinator's (and daemon's)
        // metrics. Empty when SPARQLOG_METRICS=0.
        metrics: sparqlog_obs::global().snapshot(),
    })
    .write_checked_to(&mut **guard)?;
    // Stop the heartbeat thread while the writer is still held: it re-checks
    // the flag under this same lock, so no beat can follow the epilogue.
    stop.store(true, Ordering::Release);
    guard.flush()
}

/// The worker binary's entry point: parses `args`, streams the snapshot to
/// stdout, and maps failures to exit codes (2 = bad usage, 1 = runtime
/// error). Usage and runtime errors go to stderr, where the coordinator
/// captures them for its structured shard errors.
pub fn run_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let config = match parse_args(args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("sparqlog-shard-worker: {message}");
            return 2;
        }
    };
    // `Stdout` (not `StdoutLock`) so the writer is `Send` for the heartbeat
    // thread; the BufWriter keeps per-write locking off the hot path.
    let mut out = io::BufWriter::new(io::stdout());
    match run(&config, &mut out) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("sparqlog-shard-worker: shard {}: {error}", config.shard);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::read_snapshot;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_reads_every_flag() {
        let config = parse_args(args(&[
            "--shard",
            "2",
            "--population",
            "valid",
            "--workers",
            "4",
            "--heartbeat-ms",
            "250",
            "--recovery",
            "budget:5",
            "--log",
            "0",
            "DBpedia15",
            "/tmp/a.log",
            "--log",
            "3",
            "label with spaces",
            "/tmp/b.log",
        ]))
        .unwrap();
        assert_eq!(config.shard, 2);
        assert_eq!(config.population, Population::Valid);
        assert_eq!(config.workers, 4);
        assert_eq!(config.heartbeat, Some(Duration::from_millis(250)));
        assert_eq!(
            config.recovery,
            RecoveryPolicy::ErrorBudget { max_per_10k: 5 }
        );
        assert_eq!(config.logs.len(), 2);
        assert_eq!(config.logs[1].index, 3);
        assert_eq!(config.logs[1].label, "label with spaces");
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(args(&[])).is_err()); // no logs
        assert!(parse_args(args(&["--population", "everything"])).is_err());
        assert!(parse_args(args(&["--log", "0", "l"])).is_err()); // missing path
        assert!(parse_args(args(&["--frobnicate"])).is_err());
        assert!(parse_args(args(&["--heartbeat-ms", "soon"])).is_err());
        assert!(parse_args(args(&["--recovery", "yolo"])).is_err());
        // Zero disables heartbeats rather than erroring.
        let config = parse_args(args(&["--heartbeat-ms", "0", "--log", "0", "l", "/tmp/x"]));
        assert_eq!(config.unwrap().heartbeat, None);
    }

    fn sample_log(dir: &std::path::Path) -> PathBuf {
        let path = dir.join("log.txt");
        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "SELECT ?x WHERE {{ ?x a <http://C> }}").unwrap();
        writeln!(file, "SELECT  ?x WHERE {{ ?x a <http://C> }}").unwrap();
        writeln!(file, "ASK {{ ?a <http://p> ?b }}").unwrap();
        writeln!(file, "not sparql").unwrap();
        path
    }

    #[test]
    fn worker_streams_a_decodable_snapshot() {
        let dir = std::env::temp_dir().join(format!("sparqlog-worker-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_log(&dir);

        let config = WorkerConfig {
            shard: 0,
            population: Population::Valid,
            workers: 1,
            heartbeat: None,
            recovery: RecoveryPolicy::Strict,
            logs: vec![AssignedLog {
                index: 7,
                label: "unit".to_string(),
                path: path.clone(),
            }],
        };
        let mut stream = Vec::new();
        run(&config, &mut stream).unwrap();
        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        assert_eq!(bytes, stream.len() as u64);
        assert_eq!(snapshot.logs.len(), 1);
        let frame = &snapshot.logs[0];
        assert_eq!(frame.index, 7);
        assert_eq!(frame.summary.label, "unit");
        assert_eq!(frame.summary.counts.total, 4);
        assert_eq!(frame.summary.counts.valid, 3);
        assert_eq!(frame.summary.counts.unique, 2);
        assert_eq!(snapshot.epilogue.log_frames, 1);
        assert_eq!(snapshot.epilogue.cache.distinct, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeating_worker_still_streams_a_valid_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-worker-heartbeat-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_log(&dir);

        // An aggressive 1 ms period: even if beats race the (fast) analysis,
        // the stream must stay decodable — no beat may trail the epilogue.
        let config = WorkerConfig {
            shard: 0,
            population: Population::Unique,
            workers: 1,
            heartbeat: Some(Duration::from_millis(1)),
            recovery: RecoveryPolicy::Strict,
            logs: vec![AssignedLog {
                index: 0,
                label: "unit".to_string(),
                path,
            }],
        };
        let mut stream = Vec::new();
        run(&config, &mut stream).unwrap();
        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        assert_eq!(bytes, stream.len() as u64);
        assert_eq!(snapshot.logs.len(), 1);
        assert_eq!(snapshot.epilogue.log_frames, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_heartbeating_worker_returns_as_soon_as_its_work_is_done() {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-worker-prompt-exit-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.txt");
        std::fs::write(&path, "ASK { ?a <http://p> ?b }\n").unwrap();

        // The daemon's default period. A beat thread that only notices
        // `stop` at the end of a sleep step (20 ms) would make 50 runs take
        // at least a second; woken by `run`, they take a few ms each.
        let config = WorkerConfig {
            shard: 0,
            population: Population::Unique,
            workers: 1,
            heartbeat: Some(Duration::from_millis(200)),
            recovery: RecoveryPolicy::Strict,
            logs: vec![AssignedLog {
                index: 0,
                label: "unit".to_string(),
                path,
            }],
        };
        let start = Instant::now();
        for _ in 0..50 {
            let mut stream = Vec::new();
            run(&config, &mut stream).unwrap();
            let (snapshot, _) = read_snapshot(stream.as_slice()).unwrap();
            assert_eq!(snapshot.logs[0].summary.counts.total, 1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "50 heartbeat-enabled runs took {elapsed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
