//! Observability must be free of observable side effects: every engine's
//! report is byte-identical with metrics enabled and disabled, across the
//! in-process, sharded, and served pipelines and a worker-count matrix —
//! and identical to the uninstrumented oracle's.
//! Alongside the identity line: histogram merge commutativity (a property
//! the cross-process absorb path depends on) and event-journal round-trips.
//!
//! Metrics enablement is process-global (`sparqlog::obs::set_enabled`), so
//! every test that toggles it serializes on [`OBS_LOCK`] — the rest of the
//! suite runs with whatever the environment selected.

mod common;

use common::{
    readers, serve_config, start_server, submit_specs, tiled_day_logs, write_logs, Scratch, SETTLE,
    WORKER,
};
use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{analyze_streams_with, FusedOptions};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, RawLog, RecoveryPolicy};
use sparqlog::obs::{env, EventRecord, LatencyHistogram};
use sparqlog::serve::{Client, JobPhase, ServeConfig};
use sparqlog::shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
use sparqlog::synth::Dataset;
use std::path::Path;
use std::sync::Mutex;

/// Serializes tests that flip the process-global metrics switch.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Writes a duplicate-heavy corpus (two synthesized day logs, tiled, with
/// cross-log duplicates and one malformed entry) to one file per log. The
/// malformed entry keeps the error counters honest, so every engine below
/// runs lenient.
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    let mut raw = tiled_day_logs(&[Dataset::DBpedia15, Dataset::WikiData17], 40, 1300, 3, 10);
    // The same lines again, and respelled: layout variants the entry memo
    // resolves by their token stream.
    let respelled: Vec<String> = raw[0].entries[..10]
        .iter()
        .map(|e| format!("\t{e}  # respelled"))
        .collect();
    raw[1].entries.extend(respelled);
    raw[1].entries.push("THIS IS NOT SPARQL {{{".to_string());
    write_logs(dir, &raw)
}

fn fused_report(logs: &[LogSpec], workers: usize) -> String {
    let options = FusedOptions {
        workers,
        recovery: RecoveryPolicy::Lenient,
        ..FusedOptions::default()
    };
    let fused =
        analyze_streams_with(readers(logs), Population::Unique, options).expect("fused run");
    full_report(&fused.corpus)
}

/// The oracle's report over the same files (which hold valid UTF-8, one
/// entry per line).
fn oracle_report(logs: &[LogSpec]) -> String {
    let raw: Vec<RawLog> = logs
        .iter()
        .map(|log| {
            let text = std::fs::read_to_string(&log.path).expect("read log file");
            RawLog::new(
                log.label.clone(),
                text.lines().map(str::to_string).collect(),
            )
        })
        .collect();
    full_report(&analyze_reference(&raw, Population::Unique))
}

#[test]
fn fused_and_oracle_reports_are_byte_identical_with_metrics_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap();
    let scratch = Scratch::new("fused");
    let logs = write_corpus(scratch.path());
    let registry = sparqlog::obs::global();
    let oracle = oracle_report(&logs);

    for workers in [1usize, 2, 8] {
        sparqlog::obs::set_enabled(false);
        registry.reset();
        let off = fused_report(&logs, workers);
        assert!(
            registry.snapshot().is_empty(),
            "a disabled run must record nothing ({workers} workers)"
        );

        sparqlog::obs::set_enabled(true);
        let on = fused_report(&logs, workers);
        let snapshot = registry.snapshot();
        sparqlog::obs::set_enabled(false);

        assert_eq!(
            on, off,
            "fused report diverged under instrumentation ({workers} workers)"
        );
        assert_eq!(on, oracle, "fused vs oracle ({workers} workers)");
        for name in [
            "pipeline_runs_total",
            "pipeline_batches_total",
            "pipeline_entries_total",
            "pipeline_valid_total",
            "pipeline_errors_total",
            "pipeline_read_bytes_total",
            "pipeline_distinct_forms_total",
            "pipeline_analysis_classes_total",
            "cache_misses_total",
            "memo_probes_total",
            "memo_hits_total",
            "memo_token_hits_total",
        ] {
            assert!(
                snapshot.counter(name).is_some(),
                "missing counter {name} after an enabled fused run ({workers} workers)"
            );
        }
        // Every entry of this corpus is under the byte cap, so each one is
        // probed; the logs are tiled three times, so with one worker every
        // line of the second and third tiling is a byte-identical repeat.
        let counter = |name| snapshot.counter(name).unwrap_or(0);
        assert_eq!(
            counter("memo_probes_total"),
            counter("pipeline_entries_total")
        );
        // Each class is one distinct record, shared by one or more forms.
        let classes = counter("pipeline_analysis_classes_total");
        assert!(
            0 < classes && classes <= counter("pipeline_distinct_forms_total"),
            "{classes} classes over {} forms",
            counter("pipeline_distinct_forms_total")
        );
        assert!(counter("memo_hits_total") < counter("memo_probes_total"));
        // Token hits are the share of the hits a layout variant earned.
        assert!(counter("memo_token_hits_total") <= counter("memo_hits_total"));
        if workers == 1 {
            assert!(counter("memo_token_hits_total") > 0);
            assert!(
                3 * counter("memo_hits_total") >= counter("memo_probes_total"),
                "{} hits in {} probes",
                counter("memo_hits_total"),
                counter("memo_probes_total")
            );
        }
        for name in ["pipeline_read_us", "pipeline_parse_us", "pipeline_merge_us"] {
            assert!(
                snapshot.histogram(name).is_some(),
                "missing histogram {name} after an enabled fused run ({workers} workers)"
            );
        }
    }

    registry.reset();
}

#[test]
fn sharded_reports_are_byte_identical_with_metrics_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap();
    let scratch = Scratch::new("shard");
    let logs = write_corpus(scratch.path());
    let registry = sparqlog::obs::global();

    for worker_threads in [1usize, 2, 8] {
        let run = |metrics: bool| {
            // Worker processes pick the switch up from their environment;
            // the coordinator side follows the in-process override.
            sparqlog::obs::set_enabled(metrics);
            let options = ShardOptions {
                shards: 2,
                worker_threads,
                worker: WorkerCommand::new(WORKER)
                    .env(env::METRICS, if metrics { "1" } else { "0" }),
                recovery: RecoveryPolicy::Lenient,
            };
            let sharded =
                analyze_sharded(&logs, Population::Unique, &options).expect("sharded run");
            full_report(&sharded.corpus)
        };

        registry.reset();
        let off = run(false);
        assert!(
            registry.snapshot().is_empty(),
            "a disabled sharded run must record nothing"
        );
        let on = run(true);
        let snapshot = registry.snapshot();
        sparqlog::obs::set_enabled(false);
        registry.reset();

        assert_eq!(
            on, off,
            "sharded report diverged under instrumentation ({worker_threads} worker threads)"
        );
        // Coordinator-side counters plus worker registries absorbed from
        // the epilogue frames.
        assert_eq!(snapshot.counter("shard_workers_total"), Some(2));
        for name in [
            "shard_snapshot_bytes_total",
            "shard_log_frames_streamed_total",
            "pipeline_runs_total",
            "pipeline_valid_total",
            "pipeline_distinct_forms_total",
            "pipeline_analysis_classes_total",
            "memo_probes_total",
            "memo_hits_total",
            "memo_token_hits_total",
        ] {
            assert!(
                snapshot.counter(name).is_some(),
                "missing counter {name} after an enabled sharded run"
            );
        }
        let counter = |name| snapshot.counter(name).unwrap_or(0);
        assert!(
            counter("pipeline_analysis_classes_total") <= counter("pipeline_distinct_forms_total")
        );
        assert!(
            snapshot.histogram("pipeline_parse_us").is_some(),
            "worker parse latencies should ride home in the epilogue"
        );
    }
}

#[test]
fn serve_reports_are_byte_identical_and_metrics_cover_every_layer() {
    let _guard = OBS_LOCK.lock().unwrap();
    let scratch = Scratch::new("serve");
    let logs = write_corpus(scratch.path());
    let registry = sparqlog::obs::global();

    sparqlog::obs::set_enabled(false);
    registry.reset();
    let reference = fused_report(&logs, 2);

    let run = |metrics: bool, store: &Path| {
        sparqlog::obs::set_enabled(metrics);
        let config = ServeConfig {
            store_path: Some(store.to_path_buf()),
            ..serve_config(
                WorkerCommand::new(WORKER).env(env::METRICS, if metrics { "1" } else { "0" }),
            )
        };
        let (addr, handle, runner) = start_server(config);

        let mut client = Client::connect(&addr).expect("connect");
        let specs = submit_specs(&logs);
        let (job, _partitions) = client
            .submit(Population::Unique, RecoveryPolicy::Lenient, specs)
            .expect("submit");
        let status = client.wait_settled(job, SETTLE).expect("settle");
        assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
        let report = client.report(job, true).expect("report");
        let (snapshot, text) = client.metrics().expect("metrics");
        drop(client);
        handle.stop();
        runner.join().expect("server thread").expect("server run");
        (report.text, snapshot, text)
    };

    registry.reset();
    let (off_report, off_snapshot, off_text) = run(false, &scratch.path().join("store-off.sqsn"));
    assert!(off_snapshot.is_empty(), "disabled server reported metrics");
    assert!(off_text.is_empty());

    registry.reset();
    let (on_report, on_snapshot, on_text) = run(true, &scratch.path().join("store-on.sqsn"));
    sparqlog::obs::set_enabled(false);
    registry.reset();

    assert_eq!(off_report, reference, "served report diverged from fused");
    assert_eq!(on_report, reference, "instrumented served report diverged");

    // The acceptance bar: one Metrics answer spanning all five layers.
    for name in [
        "pipeline_valid_total", // pipeline (absorbed from workers)
        "pipeline_distinct_forms_total",
        "pipeline_analysis_classes_total",
        "cache_misses_total", // cache (absorbed from workers)
        "memo_probes_total",  // the entry memo in front of it
        "memo_hits_total",
        "memo_token_hits_total",
        "shard_log_frames_streamed_total", // shard (worker epilogue)
        "persist_opens_total",             // persist (the job store)
        "serve_sessions_total",            // serve (the daemon itself)
        "serve_jobs_submitted_total",
        "serve_jobs_completed_total",
        "serve_requests_total",
        "serve_wait_requests_total",
    ] {
        assert!(
            on_snapshot.counter(name).is_some(),
            "metrics answer missing {name}: {on_text}"
        );
    }
    let counter = |name| on_snapshot.counter(name).unwrap_or(0);
    assert!(counter("pipeline_analysis_classes_total") <= counter("pipeline_distinct_forms_total"));
    // The identity pass hashed every log: they were written just now, so
    // inside the racy margin, and no stamp could be trusted or hit.
    assert_eq!(
        counter("serve_identity_hashed_total"),
        logs.len() as u64,
        "{on_text}"
    );
    assert_eq!(counter("serve_identity_memo_hits_total"), 0, "{on_text}");
    // The served path's own latencies: the identity pass of the submit and
    // job-accepted → client-visible `Complete`.
    for name in ["serve_identity_us", "serve_job_ms"] {
        assert_eq!(
            on_snapshot.histogram(name).map(|histogram| histogram.count),
            Some(1),
            "metrics answer missing {name}: {on_text}"
        );
    }
    assert!(
        on_text.contains("sparqlog_pipeline_valid_total"),
        "text exposition missing the pipeline layer: {on_text}"
    );
}

#[test]
fn event_records_round_trip_through_the_journal_format() {
    let record = EventRecord::new("worker-death")
        .with("job", 7u64)
        .with("partition", 3u64)
        .with("attempt", 1u64)
        .with("error", "shard 3: worker exited with status 3");
    let line = format!("t=1234 seq=9 {}", record.render());
    let parsed = EventRecord::parse(&line).expect("parse journal line");
    assert_eq!(parsed.timestamp_ms(), Some(1234));
    assert_eq!(parsed.seq(), Some(9));
    assert_eq!(parsed.event(), "worker-death");
    assert_eq!(parsed.u64("partition"), Some(3));
    assert_eq!(
        parsed.get("error"),
        Some("shard 3: worker exited with status 3")
    );
}

proptest! {
    /// Merging histogram snapshots is commutative and lossless on counts:
    /// the property the coordinator's absorb path relies on when worker
    /// epilogues arrive in arbitrary completion order.
    #[test]
    fn histogram_merge_is_commutative(
        left in proptest::collection::vec(0u64..1_000_000, 0..64),
        right in proptest::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let _guard = OBS_LOCK.lock().unwrap();
        sparqlog::obs::set_enabled(true);
        let a = LatencyHistogram::new();
        for value in &left {
            a.record(*value);
        }
        let b = LatencyHistogram::new();
        for value in &right {
            b.record(*value);
        }
        sparqlog::obs::set_enabled(false);

        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());

        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count, (left.len() + right.len()) as u64);
        let sum: u64 = left.iter().chain(right.iter()).sum();
        prop_assert_eq!(ab.sum, sum);
        let max = left.iter().chain(right.iter()).copied().max().unwrap_or(0);
        prop_assert_eq!(ab.max, max);
        if ab.count > 0 {
            prop_assert_eq!(ab.quantile(1.0), Some(max));
        }
    }

    /// Arbitrary field values survive a render → parse round trip modulo
    /// the documented flattening (quotes become apostrophes, line breaks
    /// become spaces).
    #[test]
    fn event_record_render_parse_round_trips(
        values in proptest::collection::vec("[ -~]{0,24}", 1..8),
    ) {
        let mut record = EventRecord::new("prop");
        for (index, value) in values.iter().enumerate() {
            record.push(&format!("k{index}"), value);
        }
        let parsed = EventRecord::parse(&record.render()).expect("round trip");
        for (index, value) in values.iter().enumerate() {
            let expected: String = value
                .chars()
                .map(|ch| if ch == '"' { '\'' } else { ch })
                .collect();
            prop_assert_eq!(parsed.get(&format!("k{index}")), Some(expected.as_str()));
        }
    }
}
