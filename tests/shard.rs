//! The multi-process sharded analysis subsystem, exercised over real
//! process boundaries: the coordinator's merged report must be
//! byte-identical to the single-process fused engine's across a shard-count
//! × worker-thread matrix, and every worker fault (early exit, kill
//! mid-stream, truncated frame, codec version mismatch) must surface as a
//! structured error naming the shard — never a hang or a panic.
//!
//! The shard counts honour the `SPARQLOG_SHARDS` environment override (the
//! CI determinism matrix pins 1/2/4 there); without it the full 1/2/4 list
//! runs locally.

use sparqlog::core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog::core::report::full_report;
use sparqlog::core::Population;
use sparqlog::obs::env;
use sparqlog::shard::{
    analyze_sharded, DecodeErrorKind, LogSpec, ShardError, ShardOptions, WorkerCommand,
};
use sparqlog::synth::{generate_single_day_log, Dataset};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The worker binary built alongside this test (same package, same profile).
const WORKER: &str = env!("CARGO_BIN_EXE_sparqlog-shard-worker");

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sparqlog-shard-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a duplicate-heavy corpus (three synthesized day logs, each tiled
/// three times, with cross-log duplicates) to one file per log.
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();
    for (i, dataset) in [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 60, 500 + i as u64);
        let mut entries = Vec::new();
        for _ in 0..3 {
            entries.extend(day.entries.iter().cloned());
        }
        raw.push((day.dataset.label().to_string(), entries));
    }
    // Cross-log duplicates: the first log's head reappears in the last log.
    let head: Vec<String> = raw[0].1.iter().take(20).cloned().collect();
    raw[2].1.extend(head);

    raw.into_iter()
        .enumerate()
        .map(|(index, (label, entries))| {
            let path = dir.join(format!("{index:02}.log"));
            let mut file =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("create log file"));
            for entry in &entries {
                assert!(!entry.contains('\n'), "synthesized entries are single-line");
                writeln!(file, "{entry}").expect("write log line");
            }
            file.flush().expect("flush log file");
            LogSpec::new(label, path)
        })
        .collect()
}

/// The single-process fused reference over the same on-disk files.
fn fused_reference(
    logs: &[LogSpec],
    population: Population,
) -> (String, Vec<sparqlog::core::LogSummary>) {
    let readers: Vec<Box<dyn LogReader>> = logs
        .iter()
        .map(|log| {
            Box::new(FileLogReader::open(log.label.clone(), &log.path).expect("open log"))
                as Box<dyn LogReader>
        })
        .collect();
    let fused = analyze_streams_with(readers, population, FusedOptions::default())
        .expect("fused reference run");
    (full_report(&fused.corpus), fused.summaries)
}

/// The shard counts to exercise: `SPARQLOG_SHARDS` pins one (CI matrix),
/// otherwise the full acceptance list.
fn shard_counts() -> Vec<usize> {
    env::positive(env::SHARDS).map_or(vec![1, 2, 4], |n| vec![n])
}

fn options(shards: usize, worker_threads: usize) -> ShardOptions {
    ShardOptions {
        shards,
        worker_threads,
        worker: WorkerCommand::new(WORKER),
        recovery: Default::default(),
    }
}

#[test]
fn coordinator_report_is_byte_identical_to_the_fused_engine() {
    let scratch = Scratch::new("matrix");
    let logs = write_corpus(scratch.path());
    for population in [Population::Unique, Population::Valid] {
        let (reference_report, reference_summaries) = fused_reference(&logs, population);
        for shards in shard_counts() {
            for worker_threads in [1, 2, 8] {
                let sharded = analyze_sharded(&logs, population, &options(shards, worker_threads))
                    .unwrap_or_else(|error| {
                        panic!("{shards} shards × {worker_threads} workers: {error}")
                    });
                assert_eq!(
                    full_report(&sharded.corpus),
                    reference_report,
                    "report diverged: {population:?}, {shards} shards, {worker_threads} workers"
                );
                assert_eq!(
                    sharded.summaries, reference_summaries,
                    "summaries diverged: {population:?}, {shards} shards, {worker_threads} workers"
                );
                assert_eq!(sharded.shards(), shards.min(logs.len()));
                assert!(sharded.snapshot_bytes() > 0);
                assert!(sharded
                    .shard_stats
                    .iter()
                    .all(|s| s.logs > 0 && s.snapshot_bytes > 0));
                // Every occurrence the workers saw is accounted for in the
                // merged cache counters.
                let valid: u64 = sharded.summaries.iter().map(|s| s.counts.valid).sum();
                assert_eq!(sharded.cache.hits + sharded.cache.misses, valid);
            }
        }
    }
}

#[test]
fn killed_worker_mid_stream_is_a_structured_error_naming_the_shard() {
    let scratch = Scratch::new("kill");
    let logs = write_corpus(scratch.path());
    // Shard 1 aborts (SIGABRT — a kill mid-stream) after flushing its first
    // complete frame; shard 0 stays healthy.
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "abort-mid-stream")
        .env(env::SHARD_FAULT_SHARD, "1");
    let error = analyze_sharded(&logs, Population::Unique, &options).unwrap_err();
    let ShardError::Worker { shard, code, .. } = &error else {
        panic!("expected a worker failure, got {error}");
    };
    assert_eq!(*shard, 1);
    assert_eq!(*code, None, "an aborted worker has no exit code");
    assert!(format!("{error}").contains("shard 1"), "{error}");
}

#[test]
fn truncated_frame_is_a_structured_decode_error() {
    let scratch = Scratch::new("truncate");
    let logs = write_corpus(scratch.path());
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "truncate")
        .env(env::SHARD_FAULT_SHARD, "0");
    let error = analyze_sharded(&logs, Population::Unique, &options).unwrap_err();
    let ShardError::Decode {
        shard: 0,
        error: decode,
    } = &error
    else {
        panic!("expected a decode failure on shard 0, got {error}");
    };
    assert_eq!(decode.kind, DecodeErrorKind::UnexpectedEof);
    assert!(format!("{error}").contains("shard 0"), "{error}");
}

#[test]
fn codec_version_mismatch_is_reported_per_shard() {
    let scratch = Scratch::new("version");
    let logs = write_corpus(scratch.path());
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "wrong-version")
        .env(env::SHARD_FAULT_SHARD, "1");
    let error = analyze_sharded(&logs, Population::Unique, &options).unwrap_err();
    let ShardError::Decode {
        shard: 1,
        error: decode,
    } = &error
    else {
        panic!("expected a decode failure on shard 1, got {error}");
    };
    assert!(
        matches!(decode.kind, DecodeErrorKind::UnsupportedVersion { .. }),
        "{decode:?}"
    );
    assert!(format!("{error}").contains("shard 1"), "{error}");
}

#[test]
fn early_exit_surfaces_the_status_and_stderr() {
    let scratch = Scratch::new("die");
    let logs = write_corpus(scratch.path());
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "die")
        .env(env::SHARD_FAULT_SHARD, "0");
    let error = analyze_sharded(&logs, Population::Unique, &options).unwrap_err();
    let ShardError::Worker {
        shard: 0,
        code: Some(3),
        stderr,
    } = &error
    else {
        panic!("expected worker exit 3 on shard 0, got {error}");
    };
    assert!(stderr.contains("injected fault: die"), "stderr: {stderr:?}");
    assert!(format!("{error}").contains("shard 0"), "{error}");
}

#[test]
fn a_stderr_flooding_worker_does_not_deadlock_the_coordinator() {
    // The worker writes several pipe buffers to stderr before its first
    // stdout byte; without the coordinator's concurrent stderr drain this
    // would wedge both processes forever. The run must complete — and still
    // produce the byte-identical report.
    let scratch = Scratch::new("stderr-flood");
    let logs = write_corpus(scratch.path());
    let (reference_report, _) = fused_reference(&logs, Population::Unique);
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "stderr-flood")
        .env(env::SHARD_FAULT_SHARD, "0");
    let sharded =
        analyze_sharded(&logs, Population::Unique, &options).expect("flooded worker completes");
    assert_eq!(full_report(&sharded.corpus), reference_report);
}

#[test]
fn a_missing_log_file_is_a_worker_error_not_a_hang() {
    let scratch = Scratch::new("missing-file");
    let mut logs = write_corpus(scratch.path());
    logs.push(LogSpec::new(
        "ghost",
        scratch.path().join("does-not-exist.log"),
    ));
    let error = analyze_sharded(&logs, Population::Unique, &options(2, 1)).unwrap_err();
    let ShardError::Worker {
        code: Some(1),
        stderr,
        ..
    } = &error
    else {
        panic!("expected a worker runtime failure, got {error}");
    };
    assert!(!stderr.is_empty());
}
