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

mod common;

use common::{fused_reference, tiled_day_logs, write_logs, Scratch, THREE_DATASETS, WORKER};
use sparqlog::core::report::full_report;
use sparqlog::core::Population;
use sparqlog::obs::env;
use sparqlog::shard::{
    analyze_sharded, analyze_sharded_all, DecodeErrorKind, LogSpec, ShardError, ShardOptions,
    WorkerCommand,
};
use std::path::Path;
use std::process::Command;

/// Writes a duplicate-heavy corpus (three synthesized day logs, each tiled
/// three times, with cross-log duplicates) to one file per log.
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    write_logs(dir, &tiled_day_logs(&THREE_DATASETS, 60, 500, 3, 20))
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
        let reference = fused_reference(&logs, population);
        let reference_report = full_report(&reference.corpus);
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
                    sharded.summaries, reference.summaries,
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
    let reference = fused_reference(&logs, Population::Unique);
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "stderr-flood")
        .env(env::SHARD_FAULT_SHARD, "0");
    let sharded =
        analyze_sharded(&logs, Population::Unique, &options).expect("flooded worker completes");
    assert_eq!(full_report(&sharded.corpus), full_report(&reference.corpus));
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

#[test]
fn every_failing_shard_is_reported_in_shard_order() {
    let scratch = Scratch::new("die-all");
    let logs = write_corpus(scratch.path());
    // No `SPARQLOG_SHARD_FAULT_SHARD` scope: every worker dies.
    let mut options = options(2, 1);
    options.worker = WorkerCommand::new(WORKER).env(env::SHARD_FAULT, "die");
    let failure = analyze_sharded_all(&logs, Population::Unique, &options).unwrap_err();
    let shards: Vec<usize> = failure
        .errors
        .iter()
        .map(|error| match error {
            ShardError::Worker { shard, .. } => *shard,
            other => panic!("expected a worker failure, got {other}"),
        })
        .collect();
    assert_eq!(shards, [0, 1], "{failure}");
}

#[test]
fn the_cli_prints_one_error_row_per_failing_shard() {
    let scratch = Scratch::new("cli-die-all");
    let logs = write_corpus(scratch.path());
    let output = Command::new(env!("CARGO_BIN_EXE_sparqlog-shard"))
        .arg("--shards")
        .arg("2")
        .args(
            logs.iter()
                .map(|log| format!("{}={}", log.label, log.path.display())),
        )
        .env(env::SHARD_WORKER, WORKER)
        .env(env::SHARD_FAULT, "die")
        .env_remove(env::SHARD_FAULT_SHARD)
        .output()
        .expect("run sparqlog-shard");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("2 shard(s) failed"), "{stderr}");
    let rows: Vec<&str> = stderr
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|first| first.parse::<usize>().is_ok())
        .collect();
    assert_eq!(rows, ["0", "1"], "{stderr}");
}
