//! Malformed-input hardening, exercised end-to-end over an adversarial
//! fixture corpus: NUL bytes, lone carriage returns, truncated strings and
//! IRIs, an 8 MiB single-line entry, 10k-deep nested groups, an
//! invalid-UTF-8 line, all interleaved with valid entries. In Lenient mode
//! the engine — in-process, sharded, served — and the sequential oracle must
//! produce byte-identical reports and error tallies at any worker count; Strict
//! mode must fail with an actionable error naming the log and line; an
//! error budget must pass or fail on its exact boundary with the tally
//! preserved; and a panic planted in a worker process must be caught and
//! recorded as a `worker-panic` tally instead of killing the run.

mod common;

use common::{
    memory_readers, readers, serve_config, start_server, submit_specs, Scratch, SETTLE, WORKER,
};
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{analyze_streams_with, FusedOptions};
use sparqlog::core::report::full_report;
use sparqlog::core::{BudgetExceeded, ErrorKind, ErrorTally, Population, RawLog, RecoveryPolicy};
use sparqlog::obs::env;
use sparqlog::serve::{Client, JobPhase};
use sparqlog::shard::{analyze_sharded, LogSpec, ShardError, ShardOptions, WorkerCommand};
use std::path::Path;

const VALID_A: &str = "SELECT ?x WHERE { ?x a <http://example.org/Widget> }";
const VALID_B: &str = "ASK { ?a <http://example.org/p> ?b }";
const VALID_C: &str = "SELECT DISTINCT ?s WHERE { ?s <http://example.org/q> ?o } LIMIT 10";

/// The adversarial fixture corpus: one log with every malformed shape
/// interleaved between valid entries, plus one clean log.
///
/// The adversarial log's entries, by 0-based position:
///
/// | 0 | valid                          |
/// | 1 | NUL bytes                      |
/// | 2 | lone `\r`s                     |
/// | 3 | truncated string literal       |
/// | 4 | truncated IRI                  |
/// | 5 | invalid UTF-8                  |
/// | 6 | valid                          |
/// | 7 | 8 MiB single-line entry        |
/// | 8 | 10k-deep nested groups         |
/// | 9 | valid (duplicate of entry 0)   |
///
/// Expected Lenient tally: `lex + syntax == 4` (1–4), `invalid_utf8 == 1`,
/// `oversize_entry == 1`, `depth_exceeded == 1` — 7 errors, 3 defects,
/// 10 total entries, 3 valid, 2 unique.
fn adversarial_corpus() -> [(&'static str, Vec<Vec<u8>>); 2] {
    let mut deep: Vec<u8> = b"ASK ".to_vec();
    deep.extend(std::iter::repeat_n(b'{', 10_000));
    deep.extend(std::iter::repeat_n(b'}', 10_000));
    let dirty: Vec<Vec<u8>> = vec![
        VALID_A.into(),
        b"\x00\x00\x00".to_vec(),
        b"lone\rcarriage\rreturns".to_vec(),
        br#"SELECT ?x WHERE { ?x <http://example.org/p> "unterminated"#.to_vec(),
        b"SELECT ?x WHERE { ?x <http://example.org/trunc".to_vec(),
        b"SELECT ?\xff\xfe WHERE { ?x ?p ?o }".to_vec(),
        VALID_B.into(),
        vec![b'x'; 8 << 20],
        deep,
        VALID_A.into(),
    ];

    let clean: Vec<Vec<u8>> = vec![VALID_A.into(), VALID_B.into(), VALID_C.into()];
    [("adversarial", dirty), ("clean", clean)]
}

/// Writes the fixture corpus to one newline-terminated file per log.
fn write_adversarial_corpus(dir: &Path) -> Vec<LogSpec> {
    adversarial_corpus()
        .into_iter()
        .map(|(label, entries)| {
            let path = dir.join(format!("{label}.log"));
            let mut bytes = Vec::new();
            for entry in &entries {
                bytes.extend_from_slice(entry);
                bytes.push(b'\n');
            }
            std::fs::write(&path, bytes).expect("write log file");
            LogSpec::new(label, path)
        })
        .collect()
}

/// The fixture corpus as the oracle takes it. An invalid-UTF-8 line is a
/// reader-level defect that never reaches a parser, so no `RawLog` can hold
/// one: a placeholder that is not SPARQL stands in for it here and fails
/// to parse instead, at the same position. Every other shape is carried
/// over byte for byte.
fn adversarial_raw_logs() -> Vec<RawLog> {
    adversarial_corpus()
        .into_iter()
        .map(|(label, entries)| {
            let entries = entries
                .iter()
                .map(|entry| {
                    String::from_utf8(entry.clone()).unwrap_or("(invalid UTF-8)".to_string())
                })
                .collect();
            RawLog::new(label, entries)
        })
        .collect()
}

fn fused_options(workers: usize, recovery: RecoveryPolicy) -> FusedOptions {
    FusedOptions {
        workers,
        batch: 0,
        recovery,
    }
}

/// Asserts the expected tally shape of the adversarial log (see
/// [`write_adversarial_corpus`]).
fn assert_adversarial_tally(tally: &ErrorTally) {
    assert_eq!(tally.lex + tally.syntax, 4, "{tally:?}");
    assert_eq!(tally.count(ErrorKind::InvalidUtf8), 1, "{tally:?}");
    assert_eq!(tally.count(ErrorKind::OversizeEntry), 1, "{tally:?}");
    assert_eq!(tally.count(ErrorKind::DepthExceeded), 1, "{tally:?}");
    assert_eq!(tally.count(ErrorKind::WorkerPanic), 0, "{tally:?}");
    assert_eq!(tally.total(), 7, "{tally:?}");
    assert_eq!(tally.defects(), 3, "{tally:?}");
    // Every offending position fits under the exemplar cap, so the
    // exemplar list is the exact (position-sorted) error map of the log.
    let positions: Vec<u64> = tally.exemplars.iter().map(|&(_, pos)| pos).collect();
    assert_eq!(positions, vec![1, 2, 3, 4, 5, 7, 8], "{tally:?}");
}

#[test]
fn lenient_reports_and_tallies_are_byte_identical_across_every_engine() {
    let scratch = Scratch::new("matrix");
    let logs = write_adversarial_corpus(scratch.path());

    for population in [Population::Unique, Population::Valid] {
        // Reference: single-threaded fused run.
        let reference = analyze_streams_with(
            readers(&logs),
            population,
            fused_options(1, RecoveryPolicy::Lenient),
        )
        .expect("lenient fused run recovers every malformed entry");
        let reference_report = full_report(&reference.corpus);
        assert_adversarial_tally(&reference.summaries[0].errors);
        assert!(reference.summaries[1].errors.is_empty());
        assert_eq!(reference.summaries[0].counts.total, 10);
        assert_eq!(reference.summaries[0].counts.valid, 3);
        assert_eq!(reference.summaries[0].counts.unique, 2);
        assert!(
            reference_report.contains("worker-panic"),
            "report must render the error table:\n{reference_report}"
        );

        // Fused at higher worker counts and batch sizes.
        for workers in [2, 8] {
            for batch in [1, 64] {
                let fused = analyze_streams_with(
                    readers(&logs),
                    population,
                    FusedOptions {
                        workers,
                        batch,
                        recovery: RecoveryPolicy::Lenient,
                    },
                )
                .expect("lenient fused run");
                assert_eq!(
                    full_report(&fused.corpus),
                    reference_report,
                    "fused report diverged at {workers} workers, batch {batch}"
                );
                assert_eq!(fused.summaries, reference.summaries);
            }
        }

        // The oracle, against the engine over the same in-memory entries:
        // reports, counts and tallies agree on every adversarial shape, and
        // the offending positions are those of the file-backed run.
        let raw = adversarial_raw_logs();
        let oracle = analyze_reference(&raw, population);
        for workers in [1, 2, 8] {
            let in_memory = analyze_streams_with(
                memory_readers(&raw),
                population,
                fused_options(workers, RecoveryPolicy::Lenient),
            )
            .expect("lenient fused run");
            assert_eq!(
                full_report(&in_memory.corpus),
                full_report(&oracle),
                "fused vs oracle diverged at {workers} workers"
            );
            for (summary, dataset) in in_memory.summaries.iter().zip(&oracle.datasets) {
                assert_eq!(summary.counts, dataset.counts);
                assert_eq!(summary.errors, dataset.errors);
            }
        }
        assert_eq!(oracle.datasets[0].counts, reference.summaries[0].counts);
        let tally = &oracle.datasets[0].errors;
        assert_eq!(tally.count(ErrorKind::OversizeEntry), 1, "{tally:?}");
        assert_eq!(tally.count(ErrorKind::DepthExceeded), 1, "{tally:?}");
        assert_eq!(tally.lex + tally.syntax, 5, "{tally:?}");
        let positions = |tally: &ErrorTally| -> Vec<u64> {
            tally.exemplars.iter().map(|&(_, pos)| pos).collect()
        };
        assert_eq!(positions(tally), positions(&reference.summaries[0].errors));

        // Sharded, across a process boundary.
        for shards in [1, 2] {
            for worker_threads in [1, 2, 8] {
                let options = ShardOptions {
                    shards,
                    worker_threads,
                    worker: WorkerCommand::new(WORKER),
                    recovery: RecoveryPolicy::Lenient,
                };
                let sharded =
                    analyze_sharded(&logs, population, &options).unwrap_or_else(|error| {
                        panic!("{shards} shards × {worker_threads} workers: {error}")
                    });
                assert_eq!(
                    full_report(&sharded.corpus),
                    reference_report,
                    "sharded report diverged at {shards} shards, {worker_threads} workers"
                );
                assert_eq!(sharded.summaries, reference.summaries);
            }
        }
    }
}

#[test]
fn strict_utf8_failure_names_the_log_and_line() {
    let scratch = Scratch::new("strict");
    let logs = write_adversarial_corpus(scratch.path());
    let error = analyze_streams_with(
        readers(&logs),
        Population::Unique,
        fused_options(1, RecoveryPolicy::Strict),
    )
    .expect_err("strict mode must fail on the invalid-UTF-8 line");
    let message = error.to_string();
    assert!(message.contains("adversarial"), "{message}");
    // The bad bytes sit on 1-based line 6 of the adversarial log.
    assert!(message.contains("line 6"), "{message}");
    assert!(message.contains("valid UTF-8"), "{message}");
}

#[test]
fn error_budget_passes_and_fails_on_its_exact_boundary() {
    let scratch = Scratch::new("budget");
    let logs = write_adversarial_corpus(scratch.path());
    // 3 defects in 13 entries across both logs. The budget compares
    // defects/total against max_per_10k/10_000 exactly: 3/13 ≈ 2307.7 per
    // 10k, so 2308 passes and 2307 fails.
    let within = analyze_streams_with(
        readers(&logs),
        Population::Unique,
        fused_options(2, RecoveryPolicy::ErrorBudget { max_per_10k: 2308 }),
    )
    .expect("a defect rate on the budget boundary passes");
    assert_adversarial_tally(&within.summaries[0].errors);

    let error = analyze_streams_with(
        readers(&logs),
        Population::Unique,
        fused_options(2, RecoveryPolicy::ErrorBudget { max_per_10k: 2307 }),
    )
    .expect_err("one fewer per-10k must trip the budget");
    let over_budget = |budget: &BudgetExceeded| {
        assert_eq!(budget.defects, 3);
        assert_eq!(budget.total, 13);
        assert_eq!(budget.max_per_10k, 2307);
        // The tally survives the failure: the caller still sees what went
        // wrong.
        assert_adversarial_tally(&budget.tally);
    };
    over_budget(
        error
            .get_ref()
            .and_then(|payload| payload.downcast_ref::<BudgetExceeded>())
            .expect("budget failures carry the BudgetExceeded payload"),
    );

    // The shard coordinator meters the same budget once, over the tallies
    // its leniently streaming workers shipped, and reaches the same verdict.
    let sharded = |max_per_10k| {
        let options = ShardOptions {
            recovery: RecoveryPolicy::ErrorBudget { max_per_10k },
            ..ShardOptions::new(WorkerCommand::new(WORKER))
        };
        analyze_sharded(&logs, Population::Unique, &options)
    };
    let within = sharded(2308).expect("a sharded run on the budget boundary passes");
    assert_adversarial_tally(&within.summaries[0].errors);
    match sharded(2307) {
        Err(ShardError::Budget { error }) => over_budget(&error),
        other => panic!("expected a sharded budget failure, got {other:?}"),
    }
}

#[test]
fn planted_worker_panic_is_caught_and_tallied_across_the_process_boundary() {
    let scratch = Scratch::new("drill");
    let entries = [
        VALID_A,
        "SELECT ?drill WHERE { ?drill a <http://example.org/PanicDrill> }",
        VALID_B,
    ];
    let path = scratch.path().join("drill.log");
    std::fs::write(&path, entries.join("\n") + "\n").expect("write log");
    let logs = vec![LogSpec::new("drill", path)];

    let options = ShardOptions {
        shards: 1,
        worker_threads: 2,
        worker: WorkerCommand::new(WORKER).env(env::PANIC_DRILL, "PanicDrill"),
        recovery: RecoveryPolicy::Lenient,
    };
    let sharded =
        analyze_sharded(&logs, Population::Unique, &options).expect("the panic must be contained");
    let tally = &sharded.summaries[0].errors;
    assert_eq!(tally.count(ErrorKind::WorkerPanic), 1, "{tally:?}");
    assert_eq!(tally.total(), 1, "{tally:?}");
    assert_eq!(
        tally.exemplars,
        vec![(ErrorKind::WorkerPanic.wire_code(), 1)]
    );
    assert_eq!(sharded.summaries[0].counts.valid, 2);
    assert!(
        full_report(&sharded.corpus).contains("worker-panic@1"),
        "{}",
        full_report(&sharded.corpus)
    );
}

#[test]
fn served_jobs_honor_the_policy_and_report_identical_tallies() {
    let scratch = Scratch::new("serve");
    let logs = write_adversarial_corpus(scratch.path());
    let reference = analyze_streams_with(
        readers(&logs),
        Population::Unique,
        fused_options(1, RecoveryPolicy::Lenient),
    )
    .expect("fused reference");
    let reference_report = full_report(&reference.corpus);

    let (addr, handle, runner) = start_server(serve_config(WorkerCommand::new(WORKER)));
    let mut client = Client::connect(&addr).expect("connect");

    // Lenient submit: completes with the full merged tally on status and a
    // report byte-identical to the in-process engine's.
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Lenient,
            submit_specs(&logs),
        )
        .expect("submit lenient");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    assert_eq!(status.errors, 7);
    let report = client.report(job, true).expect("report");
    assert!(report.complete);
    assert_eq!(report.errors, 7);
    assert_eq!(report.text, reference_report);

    // Budgeted submit under the defect rate: the job fails at the final
    // merge with the tally preserved.
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::ErrorBudget { max_per_10k: 2307 },
            submit_specs(&logs),
        )
        .expect("submit budgeted");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Failed, "{}", status.error);
    assert!(
        status.error.contains("error budget exceeded"),
        "{}",
        status.error
    );
    assert_eq!(status.errors, 7, "the tally survives the failed job");
    let events = client.events(job).expect("events");
    assert!(
        events.iter().any(|line| line.contains("event=job-failed")),
        "{events:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}
