//! The streaming input side: property tests proving the
//! zero-materialization `CanonicalHasher` fingerprint equal to the
//! materializing one on generated queries and the line reader equal to a
//! per-line oracle on random byte streams, edge-case coverage for the
//! streaming log readers, and duplicate elimination across batch and
//! cache-shard boundaries.

use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{
    analyze_streams, analyze_streams_cached, analyze_streams_with, canonical_fingerprint,
    CorpusCounts, EntryBlock, FileLogReader, FusedOptions, LineLogReader, LogReader,
    MemoryLogReader, RawLog, SliceLogReader,
};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, ReaderDefect, RecoveryPolicy};
use sparqlog::parser::{
    canonical_fingerprint_of_ref, parse_query_in, to_canonical_string_ref, Arena,
};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};
use std::io::{BufReader, Cursor};

/// The Table-1 counts of a single streamed log.
fn counts_of(reader: impl LogReader + 'static) -> CorpusCounts {
    let fused = analyze_streams(vec![Box::new(reader)], Population::Unique).unwrap();
    fused.summaries[0].counts
}

/// The byte pieces the reader property draws its streams from: text, the
/// three terminator spellings, a valid two-byte character, and bytes no
/// UTF-8 text holds (a lone continuation byte, a lead byte cut short).
const PIECES: [&[u8]; 9] = [
    b"a",
    b"SELECT",
    b" ",
    b"\n",
    b"\r\n",
    b"\r",
    "\u{e9}".as_bytes(),
    b"\x80",
    b"\xc3",
];

/// What a reader must make of `bytes`, one line at a time: split on `\n`,
/// strip one `\r` only where a `\n` follows it, and check each line as
/// UTF-8 on its own. An invalid line is its 1-based line number.
fn oracle_lines(bytes: &[u8]) -> Vec<Result<String, u64>> {
    let mut lines: Vec<&[u8]> = bytes.split(|&byte| byte == b'\n').collect();
    // The piece after a final `\n` (or of an empty stream) is no line.
    let unterminated = lines.pop().filter(|last| !last.is_empty());
    let mut out: Vec<Result<String, u64>> = lines
        .iter()
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .chain(unterminated)
        .map(|line| String::from_utf8(line.to_vec()).map_err(|_| 0))
        .collect();
    for (number, line) in out.iter_mut().enumerate() {
        if line.is_err() {
            *line = Err(number as u64 + 1);
        }
    }
    out
}

/// Drains `reader` with `read` and a max taken in turn from `maxes`,
/// collecting each call's entries and each defect's line number.
fn drain_lines<R>(
    reader: &mut R,
    maxes: &[usize],
    mut read: impl FnMut(&mut R, &mut Vec<String>, usize) -> std::io::Result<usize>,
) -> Vec<Result<String, u64>> {
    let mut out = Vec::new();
    for &max in maxes.iter().cycle() {
        let mut entries = Vec::new();
        let read = read(reader, &mut entries, max);
        assert!(
            entries.len() <= max,
            "{} entries for max {max}",
            entries.len()
        );
        let ended = matches!(read, Ok(0));
        out.extend(entries.into_iter().map(Ok));
        if let Err(error) = read {
            let defect = error
                .get_ref()
                .and_then(|payload| payload.downcast_ref::<ReaderDefect>())
                .unwrap_or_else(|| panic!("not a reader defect: {error}"));
            assert_eq!(defect.label, "prop");
            out.push(Err(defect.line));
        }
        if ended {
            return out;
        }
    }
    unreachable!("maxes is never empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `LineLogReader` over any buffer capacity, with any batch limit per
    /// call, yields exactly the oracle's lines and defect line numbers, and
    /// the `read_batch` adapter yields the same.
    #[test]
    fn line_reader_matches_the_per_line_oracle(
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..160),
        capacity in 1usize..=64,
        maxes in prop::collection::vec(1usize..12, 1..8),
    ) {
        let bytes: Vec<u8> = pieces.iter().flat_map(|&piece| PIECES[piece]).copied().collect();
        let oracle = oracle_lines(&bytes);
        let open = || LineLogReader::new("prop", BufReader::with_capacity(capacity, &bytes[..]));

        let mut block = EntryBlock::new();
        let blocks = drain_lines(&mut open(), &maxes, |reader, entries, max| {
            block.clear();
            let read = reader.read_block(&mut block, max);
            entries.extend(block.iter().map(str::to_owned));
            read
        });
        prop_assert_eq!(&blocks, &oracle, "bytes {:?}", bytes);
        let batches = drain_lines(&mut open(), &maxes, |reader, entries, max| {
            reader.read_batch(entries, max)
        });
        prop_assert_eq!(&batches, &oracle, "bytes {:?}", bytes);
    }
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

#[test]
fn defects_across_a_batch_boundary_tally_the_same_at_every_worker_count() {
    // Lines long enough that the file's size hint asks for several 512-entry
    // batches, so the pool keeps its workers; invalid lines at positions 511
    // and 512 end one batch and start the next.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let line = |i: usize| {
        format!(
            "SELECT ?x WHERE {{ ?x <http://example.org/a/rather/long/property/name/{}> ?y }} # {}\n",
            i % 37,
            "-".repeat(64)
        )
    };
    let write_log = |name: &str, defects: &[usize]| {
        let mut bytes = Vec::new();
        for i in 0..2000 {
            if defects.contains(&i) {
                bytes.extend_from_slice(b"SELECT \xff\n");
            } else {
                bytes.extend_from_slice(line(i).as_bytes());
            }
        }
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    };
    let run = |logs: &[(&str, &std::path::Path)], workers: usize, recovery: RecoveryPolicy| {
        let readers = logs
            .iter()
            .map(|&(label, path)| Box::new(FileLogReader::open(label, path).unwrap()) as _)
            .collect();
        let options = FusedOptions {
            workers,
            batch: 0,
            recovery,
        };
        analyze_streams_with(readers, Population::Valid, options)
    };

    let lenient = write_log("streaming_boundary_lenient.log", &[511, 512]);
    let summaries: Vec<_> = [1, 2, 8]
        .map(|workers| {
            run(&[("edge", &lenient)], workers, RecoveryPolicy::Lenient)
                .unwrap()
                .summaries
        })
        .into();
    let errors = &summaries[0][0].errors;
    assert_eq!((errors.invalid_utf8, errors.total()), (2, 2));
    let positions: Vec<u64> = errors.exemplars.iter().map(|&(_, at)| at).collect();
    assert_eq!(positions, [511, 512]);
    assert_eq!(summaries[0][0].counts.total, 2000);
    assert_eq!(summaries[1], summaries[0], "2 workers");
    assert_eq!(summaries[2], summaries[0], "8 workers");

    // Strict: the one defect fails the run. With a defect in each of two
    // logs, read at once, the first log's is reported, as reading them in
    // order would; the runs repeat because which lane fails first is up to
    // the schedule.
    let strict = write_log("streaming_boundary_strict.log", &[512]);
    for logs in [
        &[("edge", &*strict)][..],
        &[("edge", &strict), ("later", &strict)],
    ] {
        for workers in [1, 2, 8] {
            for _ in 0..16 {
                let error = run(logs, workers, RecoveryPolicy::Strict).unwrap_err();
                assert_eq!(
                    error.to_string(),
                    "log \"edge\", line 513: stream did not contain valid UTF-8",
                    "{} logs, {workers} workers",
                    logs.len()
                );
            }
        }
    }
    std::fs::remove_file(&lenient).ok();
    std::fs::remove_file(&strict).ok();
}
