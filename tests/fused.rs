//! The fused ingest→analyze streaming engine: differential proof that
//! `analyze_streams` renders corpus reports byte-identical to the sequential
//! oracle (`baseline::analyze_reference`), which analyses every occurrence
//! from scratch through throwaway interners — over a fixed duplicate-heavy
//! corpus and synthesized logs, worker counts 1/2/8, batch sizes that force
//! duplicates to straddle batch boundaries, both populations, and
//! file-backed streams — plus the occurrence-weighted fold's equivalence to
//! repeated folds.

mod common;

use common::{duplicate_heavy_corpus, memory_readers, Scratch};
use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{
    analyze_streams, analyze_streams_with, FileLogReader, FusedOptions, LogReader, RawLog,
};
use sparqlog::core::report::full_report;
use sparqlog::core::{DatasetAnalysis, Population, QueryAnalysis};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};

#[test]
fn fused_matches_oracle_on_the_fixed_corpus_across_workers_and_batches() {
    let raw = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = analyze_reference(&raw, population);
        let reference_report = full_report(&reference);
        for workers in [1, 2, 8] {
            // Batch 7 splits the tiled logs mid-repeat, so duplicates of one
            // canonical form land in different batches (and, at >1 workers,
            // in different workers' occurrence maps).
            for batch in [0, 7] {
                let fused = analyze_streams_with(
                    memory_readers(&raw),
                    population,
                    FusedOptions {
                        workers,
                        batch,
                        recovery: Default::default(),
                    },
                )
                .unwrap();
                assert_eq!(
                    full_report(&fused.corpus),
                    reference_report,
                    "fused vs oracle diverged: {population:?}, {workers} workers, batch {batch}"
                );
                for (summary, dataset) in fused.summaries.iter().zip(&reference.datasets) {
                    assert_eq!(summary.counts, dataset.counts);
                }
            }
        }
    }
}

#[test]
fn file_backed_streams_match_in_memory_streams() {
    let raw = duplicate_heavy_corpus();
    let scratch = Scratch::new("crlf");
    let mut file_readers: Vec<Box<dyn LogReader + 'static>> = Vec::new();
    for (index, log) in raw.iter().enumerate() {
        let path = scratch.path().join(format!("{index}.log"));
        // CRLF terminators and a missing trailing newline exercise the
        // word-at-a-time line scanner's edge cases end to end.
        let mut bytes = log.entries.join("\r\n").into_bytes();
        if index == 0 {
            bytes.extend_from_slice(b"\r\n");
        }
        std::fs::write(&path, bytes).unwrap();
        file_readers.push(Box::new(
            FileLogReader::open(log.label.clone(), &path).unwrap(),
        ));
    }
    let from_files = analyze_streams(file_readers, Population::Valid).unwrap();
    let from_memory = analyze_streams(memory_readers(&raw), Population::Valid).unwrap();
    assert_eq!(from_files.summaries, from_memory.summaries);
    assert_eq!(
        full_report(&from_files.corpus),
        full_report(&from_memory.corpus)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fused and oracle reports agree on any synthesized corpus, for any
    /// worker count and batch size, on both populations.
    #[test]
    fn fused_reports_match_oracle_on_synthesized_corpora(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        workers in 1usize..9,
        batch in 1usize..24,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..40).map(|_| synth.fresh_query()).collect();
        // Force duplicates, including across what will be batch boundaries.
        let tiled: Vec<String> = entries.iter().take(20).cloned().collect();
        entries.extend(tiled);
        entries.push("garbage entry".to_string());
        let raw = vec![RawLog::new("prop", entries)];
        for population in [Population::Unique, Population::Valid] {
            let fused = analyze_streams_with(
                memory_readers(&raw),
                population,
                FusedOptions {
                    workers,
                    batch,
                    recovery: Default::default(),
                },
            ).unwrap();
            let reference = analyze_reference(&raw, population);
            prop_assert_eq!(
                full_report(&fused.corpus),
                full_report(&reference),
                "fused differential diverged: {:?}, {} workers, batch {}",
                population, workers, batch
            );
            prop_assert_eq!(fused.summaries[0].counts, reference.datasets[0].counts);
        }
    }

    /// The occurrence-weighted fold equals repeated folds, query by query:
    /// `add_times(qa, n)` must match `n` calls to `add(qa)` bit for bit.
    #[test]
    fn weighted_fold_equals_repeated_folds(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        times in 0u64..12,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        for _ in 0..4 {
            let text = synth.fresh_query();
            let qa = QueryAnalysis::of_text(&text).expect("synthesized queries parse");
            let mut weighted = DatasetAnalysis::default();
            weighted.add_times(&qa, times);
            let mut repeated = DatasetAnalysis::default();
            for _ in 0..times {
                repeated.add(&qa);
            }
            prop_assert_eq!(
                format!("{weighted:?}"),
                format!("{repeated:?}"),
                "weighted fold diverges for {} x {}", times, text
            );
        }
    }

    /// The per-log summary's first-occurrence accounting matches the
    /// sequential oracle's for any entry mix.
    #[test]
    fn summary_counts_match_sequential_ingest(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        batch in 1usize..16,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..24).map(|_| synth.fresh_query()).collect();
        entries.push(String::new());
        entries.push("DESCRIBE <http://r>".to_string());
        entries.extend(entries.clone());
        let raw = RawLog::new("prop", entries);
        let fused = analyze_streams_with(
            memory_readers(std::slice::from_ref(&raw)),
            Population::Unique,
            FusedOptions {
                workers: 3,
                batch,
                recovery: Default::default(),
            },
        ).unwrap();
        let reference = analyze_reference(std::slice::from_ref(&raw), Population::Unique);
        prop_assert_eq!(fused.summaries[0].counts, reference.datasets[0].counts);
    }
}
