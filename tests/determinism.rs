//! Multi-threaded determinism: `analyze_streams` must produce identical
//! summaries and reports regardless of worker count, batch size (and
//! therefore which worker parses and folds what), or the racy order in
//! which workers claim batches and fold chunks.

use sparqlog::core::analysis::Population;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{
    analyze_streams_with, FusedAnalysis, FusedOptions, LogReader, SliceLogReader,
};
use sparqlog::core::report::full_report;
use sparqlog::core::RawLog;
use sparqlog::synth::{generate_corpus, CorpusConfig};

fn corpus_logs() -> Vec<RawLog> {
    let corpus = generate_corpus(CorpusConfig {
        scale: 2e-6,
        seed: 9,
        max_entries_per_dataset: 120,
    });
    corpus
        .logs
        .iter()
        .map(|l| RawLog::new(l.dataset.label(), l.entries.clone()))
        .collect()
}

fn fused(logs: &[RawLog], population: Population, workers: usize, batch: usize) -> FusedAnalysis {
    let readers: Vec<Box<dyn LogReader + '_>> = logs
        .iter()
        .map(|l| Box::new(SliceLogReader::of(l)) as Box<dyn LogReader + '_>)
        .collect();
    let options = FusedOptions {
        workers,
        batch,
        ..FusedOptions::default()
    };
    analyze_streams_with(readers, population, options).expect("in-memory streams cannot fail")
}

#[test]
fn analysis_is_identical_across_worker_counts_and_chunk_schedules() {
    let logs = corpus_logs();
    for population in [Population::Unique, Population::Valid] {
        let reference = format!("{:?}", fused(&logs, population, 1, 0).corpus);
        // Every worker count × batch size must reproduce the single-threaded
        // analysis bit-for-bit; batch sizes of 1 and 7 shuffle the batch
        // boundaries and hand queries of the same dataset to different
        // workers.
        for workers in [1, 2, 8] {
            for batch in [0, 1, 7, 64] {
                let run = fused(&logs, population, workers, batch);
                assert_eq!(
                    reference,
                    format!("{:?}", run.corpus),
                    "non-deterministic analysis: {population:?}, {workers} workers, batch {batch}"
                );
            }
        }
        // The racy batch-claim order differs between repeated runs; the
        // analysis must not.
        for _ in 0..3 {
            let run = fused(&logs, population, 8, 2);
            assert_eq!(reference, format!("{:?}", run.corpus));
        }
    }
}

#[test]
fn parallel_ingestion_is_identical_to_sequential() {
    // Eight workers on small batches against the oracle's plain loop over
    // each log: same counts, same error tallies, entry position by entry
    // position.
    let logs = corpus_logs();
    let parallel = fused(&logs, Population::Unique, 8, 16);
    let sequential = analyze_reference(&logs, Population::Unique);
    assert_eq!(parallel.summaries.len(), sequential.datasets.len());
    for (p, s) in parallel.summaries.iter().zip(&sequential.datasets) {
        assert_eq!(p.label, s.label);
        assert_eq!(p.counts, s.counts, "{}", p.label);
        assert_eq!(p.errors, s.errors, "{}", p.label);
    }
}

#[test]
fn streaming_ingestion_is_deterministic_across_schedules() {
    // Worker count and batch size shuffle which worker parses which batch
    // and whose occurrence map counts which duplicate; the per-log
    // summaries (counts, fingerprint/occurrence lists, tallies) and the
    // report must not move. Each log is a lane of its own: the 13 skewed
    // logs give every worker a lane and leave the others to join; one log
    // puts every worker on one lane, and two logs at 8 workers have more
    // workers than lanes.
    let logs = corpus_logs();
    let joined = RawLog::new(
        "joined",
        logs.iter().flat_map(|l| l.entries.clone()).collect(),
    );
    let shapes = [
        ("13 logs", logs.clone()),
        ("1 log", vec![joined]),
        ("2 logs", logs[..2].to_vec()),
    ];
    for (shape, logs) in &shapes {
        let reference = fused(logs, Population::Valid, 1, 0);
        let report = full_report(&reference.corpus);
        for workers in [1, 2, 8] {
            for batch in [1, 7, 512] {
                let streamed = fused(logs, Population::Valid, workers, batch);
                let at = format!("{shape}, workers {workers}, batch {batch}");
                assert_eq!(streamed.summaries, reference.summaries, "{at}");
                assert_eq!(full_report(&streamed.corpus), report, "{at}");
            }
        }
    }
}

#[test]
fn shuffled_log_order_only_permutes_dataset_rows() {
    // Reversing the logs permutes the per-dataset rows but must leave each
    // row and the combined totals untouched.
    let logs = corpus_logs();
    let reversed: Vec<_> = logs.iter().rev().cloned().collect();
    let forward = fused(&logs, Population::Unique, 0, 0).corpus;
    let backward = fused(&reversed, Population::Unique, 0, 0).corpus;
    for d in &forward.datasets {
        let twin = backward
            .datasets
            .iter()
            .find(|b| b.label == d.label)
            .expect("every dataset row survives reordering");
        assert_eq!(format!("{d:?}"), format!("{twin:?}"));
    }
    assert_eq!(
        format!("{:?}", forward.combined.counts),
        format!("{:?}", backward.combined.counts)
    );
    assert_eq!(
        format!("{:?}", forward.combined.keywords),
        format!("{:?}", backward.combined.keywords)
    );
}
