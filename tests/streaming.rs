//! The streaming input side: property tests proving the
//! zero-materialization `CanonicalHasher` fingerprint equal to the
//! materializing one on generated queries, edge-case coverage for the
//! streaming log readers, and duplicate elimination across batch and
//! cache-shard boundaries.

use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{
    analyze_streams, analyze_streams_cached, analyze_streams_with, canonical_fingerprint,
    CorpusCounts, FileLogReader, FusedOptions, LineLogReader, LogReader, MemoryLogReader, RawLog,
    SliceLogReader,
};
use sparqlog::core::report::full_report;
use sparqlog::core::Population;
use sparqlog::parser::{
    canonical_fingerprint_of_ref, parse_query_in, to_canonical_string_ref, Arena,
};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};
use std::io::Cursor;

/// The Table-1 counts of a single streamed log.
fn counts_of(reader: impl LogReader + 'static) -> CorpusCounts {
    let fused = analyze_streams(vec![Box::new(reader)], Population::Unique).unwrap();
    fused.summaries[0].counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streamed fingerprint (canonical walk hashed directly, no string)
    /// equals the materializing fingerprint (canonical string built, then
    /// hashed) for every query the synthesizer produces, on every dataset
    /// profile.
    #[test]
    fn streamed_fingerprint_matches_materialized(seed in 0u64..10_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut arena = Arena::new();
        for _ in 0..5 {
            let text = synth.fresh_query();
            arena.reset();
            let query = parse_query_in(&text, &arena).expect("synthesized queries parse");
            prop_assert_eq!(
                canonical_fingerprint_of_ref(&query),
                canonical_fingerprint(&to_canonical_string_ref(&query)),
                "streamed fingerprint diverges for {}", text
            );
        }
    }

    /// The streaming engine equals the sequential materializing oracle for
    /// any batch size and worker count on a synthesized log with injected
    /// duplicates and garbage.
    #[test]
    fn streaming_matches_reference_on_synthesized_logs(
        seed in 0u64..5_000,
        batch in 1usize..32,
        workers in 1usize..5,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::WikiData17), seed);
        let mut entries: Vec<String> = (0..30).map(|_| synth.fresh_query()).collect();
        entries.push(entries[0].clone()); // duplicate across batch boundaries
        entries.push("garbage entry".to_string());
        let log = RawLog::new("prop", entries);
        let reference = analyze_reference(std::slice::from_ref(&log), Population::Unique);
        let readers: Vec<Box<dyn LogReader + '_>> =
            vec![Box::new(SliceLogReader::of(&log)) as Box<dyn LogReader + '_>];
        let streamed = analyze_streams_with(
            readers,
            Population::Unique,
            FusedOptions {
                workers,
                batch,
                recovery: Default::default(),
            },
        )
        .expect("in-memory streams cannot fail");
        prop_assert_eq!(streamed.summaries[0].counts, reference.datasets[0].counts);
        prop_assert_eq!(&streamed.summaries[0].errors, &reference.datasets[0].errors);
        prop_assert_eq!(full_report(&streamed.corpus), full_report(&reference));
    }
}

#[test]
fn empty_log_streams_to_zero_counts() {
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new("empty", vec![]))];
    let fused = analyze_streams(readers, Population::Valid).unwrap();
    assert_eq!(fused.summaries.len(), 1);
    assert_eq!(fused.summaries[0].label, "empty");
    assert_eq!(fused.summaries[0].counts, CorpusCounts::default());
    assert_eq!(fused.summaries[0].counts.unique, 0);
    assert_eq!(fused.corpus.combined.keywords.total_queries, 0);
}

#[test]
fn empty_stream_yields_no_entries() {
    let mut reader = LineLogReader::new("empty", Cursor::new(&b""[..]));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 0);
    assert!(batch.is_empty());
}

#[test]
fn line_reader_handles_missing_trailing_newline() {
    let text = "ASK { ?x <http://p> ?y }\nSELECT ?x WHERE { ?x a <http://C> }";
    let mut reader = LineLogReader::new("tail", Cursor::new(text.as_bytes()));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
    assert_eq!(batch[0], "ASK { ?x <http://p> ?y }");
    assert_eq!(batch[1], "SELECT ?x WHERE { ?x a <http://C> }");
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 0);
}

#[test]
fn line_reader_strips_crlf_terminators() {
    let text = "ASK { ?x <http://p> ?y }\r\nDESCRIBE <http://r>\r\n";
    let mut reader = LineLogReader::new("crlf", Cursor::new(text.as_bytes()));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
    assert_eq!(batch[0], "ASK { ?x <http://p> ?y }");
    assert_eq!(batch[1], "DESCRIBE <http://r>");
}

#[test]
fn line_reader_keeps_blank_lines_as_invalid_entries() {
    // A blank line is an entry that fails to parse — it must count towards
    // `total` but not `valid`, exactly like an empty string in a RawLog.
    let text = "ASK { ?x <http://p> ?y }\n\nASK { ?x <http://p> ?y }\n";
    let counts = counts_of(LineLogReader::new(
        "blanks",
        Cursor::new(text.as_bytes().to_vec()),
    ));
    assert_eq!((counts.total, counts.valid, counts.unique), (3, 2, 1));
}

#[test]
fn file_reader_streams_a_log_from_disk() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("streaming_file_reader.log");
    std::fs::write(
        &path,
        "SELECT ?x WHERE { ?x a <http://C> }\nSELECT   ?x   WHERE { ?x a <http://C> }\nnot sparql\nASK { ?s <http://p> ?o }",
    )
    .unwrap();
    let counts = counts_of(FileLogReader::open("disk", &path).unwrap());
    // Whitespace variants collapse.
    assert_eq!((counts.total, counts.valid, counts.unique), (4, 3, 2));
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_reader_size_hint_estimates_from_metadata() {
    // A file-backed reader must report a metadata-based entry estimate so
    // the ingestion pool can clamp its worker count (a tiny log should not
    // spawn a full pool), and the estimate must shrink as lines are read.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("streaming_size_hint.log");
    let line = "SELECT ?x WHERE { ?x a <http://C> }\n";
    std::fs::write(&path, line.repeat(100)).unwrap();
    let mut reader = FileLogReader::open("disk", &path).unwrap();
    let hint = reader.size_hint().expect("file readers must hint");
    // bytes / 128-byte average, rounded up: in the right order of magnitude
    // for 100 x 36-byte lines, and never zero for a non-empty file.
    assert_eq!(hint, (line.len() * 100).div_ceil(128));
    let mut batch = Vec::new();
    reader.read_batch(&mut batch, 10).unwrap();
    let after = reader.size_hint().expect("hint persists while reading");
    assert_eq!(after, hint.saturating_sub(10));

    // An empty file hints zero entries; in-memory line readers still
    // decline to guess.
    let empty = dir.join("streaming_size_hint_empty.log");
    std::fs::write(&empty, "").unwrap();
    assert_eq!(
        FileLogReader::open("disk", &empty).unwrap().size_hint(),
        Some(0)
    );
    assert_eq!(
        LineLogReader::new("mem", Cursor::new(b"x\n".to_vec())).size_hint(),
        None
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&empty).ok();
}

#[test]
fn shard_boundary_duplicates_are_eliminated() {
    // Duplicates must collapse regardless of cache shard count and batch
    // size: equal fingerprints always land in the same shard, and batch
    // boundaries (which split the duplicates over both workers' occurrence
    // maps) must not reset the dedup state.
    let entries: Vec<String> = (0..40)
        .map(|i| format!("SELECT ?x WHERE {{ ?x <http://p{}> ?y }}", i % 7))
        .collect();
    let log = RawLog::new("dups", entries);
    for shards in [1, 2, 16, 128] {
        for batch in [1, 3, 64] {
            let readers: Vec<Box<dyn LogReader + '_>> =
                vec![Box::new(SliceLogReader::of(&log)) as Box<dyn LogReader + '_>];
            let cache = AnalysisCache::with_shards(shards);
            let streamed = analyze_streams_cached(
                readers,
                Population::Unique,
                FusedOptions {
                    workers: 2,
                    batch,
                    recovery: Default::default(),
                },
                &cache,
            )
            .unwrap();
            let counts = streamed.summaries[0].counts;
            assert_eq!(
                (counts.total, counts.valid, counts.unique),
                (40, 40, 7),
                "shards {shards}, batch {batch}"
            );
            assert_eq!(cache.len(), 7);
        }
    }
}
