//! Property tests of the snapshot codec: round-trips over arbitrary
//! [`LogSummary`] / tally values and over analyses of synthesized corpora,
//! the tally laws of the ten flat records, golden bytes that pin the wire
//! layout, plus the structured decode errors — truncated input at *every*
//! strict prefix length, wrong version bytes, bad magic, bad tags, trailing
//! bytes.

use proptest::prelude::*;
use sparqlog_algebra::tally::Tally;
use sparqlog_algebra::{
    FragmentTally, KeywordTally, OpSetTally, OperatorSet, ProjectionTally, TripleHistogram,
};
use sparqlog_core::analysis::{DatasetAnalysis, FragmentSizeHistogram, HypertreeTally, Population};
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::{
    analyze_streams, CorpusCounts, FusedStats, LogReader, LogSummary, MemoryLogReader,
};
use sparqlog_core::{ErrorKind, ErrorTally, QueryAnalysis};
use sparqlog_graph::ShapeTally;
use sparqlog_obs::{HistogramSnapshot, MetricsSnapshot};
use sparqlog_paths::{PathExpressionType, PathTally, TypeEntry};
use sparqlog_shard::codec::{
    write_stream_header, DecodeError, DecodeErrorKind, Decoder, Encoder, StreamError, MAGIC,
    VERSION,
};
use sparqlog_shard::snapshot::{read_snapshot, EpilogueFrame, Frame, LogFrame, Snapshot};
use sparqlog_synth::{generate_single_day_log, Dataset};
use std::collections::BTreeMap;

/// Builds a `u128` fingerprint from two generated halves.
fn fingerprint(hi: u64, lo: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
}

/// An analysed dataset with non-trivial values in every tally family.
fn analysed_dataset(entries: &[String], label: &str) -> DatasetAnalysis {
    let readers: Vec<Box<dyn LogReader>> =
        vec![Box::new(MemoryLogReader::new(label, entries.to_vec()))];
    let fused = analyze_streams(readers, Population::Unique).expect("in-memory streams");
    fused.corpus.datasets.into_iter().next().unwrap()
}

/// Entries of a synthesized day log (varied, real-shaped queries).
fn synthesized_entries(dataset: Dataset, count: usize, seed: u64) -> Vec<String> {
    generate_single_day_log(dataset, count as u64, seed).entries
}

/// A flat tally built from generated counters, through its field view.
fn tally_from<T: Tally>(counters: &[u64]) -> T {
    let mut encoder = Encoder::new();
    for &counter in counters {
        encoder.put_varint(counter);
    }
    let bytes = encoder.into_bytes();
    T::take_fields(&mut Decoder::new(&bytes)).unwrap()
}

/// The laws of one flat record `$ty` over generated counters `x`, `y` and
/// scales `(n, a, b)`, through its inherent `merge` / `scale`: the wire
/// round trip, a commutative `merge`, `scale(n)` as `n` merges into
/// `Default`, `scale(a)` then `scale(b)` as `scale(a * b)`, and one
/// `observe` scaled by `n` as `n` of them — the one law that tells a `max`
/// field from a `sum` field.
macro_rules! check_tally_laws {
    ($ty:ty, $x:expr, $y:expr, $scales:expr, $observe:expr) => {{
        let (n, a, b): (u64, u64, u64) = $scales;
        let observe: &dyn Fn(&mut $ty) = &$observe;
        let scaled = |tally: &$ty, times: u64| {
            let mut tally = tally.clone();
            tally.scale(times);
            tally
        };
        let (x, y): ($ty, $ty) = (tally_from($x), tally_from($y));
        assert_eq!(<$ty>::from_bytes(&x.to_bytes()).unwrap(), x, "round trip");
        let (mut xy, mut yx) = (x.clone(), y.clone());
        xy.merge(&y);
        yx.merge(&x);
        assert_eq!(xy, yx, "merge commutes");
        let mut merged = <$ty>::default();
        (0..n).for_each(|_| merged.merge(&x));
        assert_eq!(scaled(&x, n), merged, "scale(n) is n merges");
        assert_eq!(
            scaled(&scaled(&x, a), b),
            scaled(&x, a * b),
            "scales compose"
        );
        let (mut once, mut repeated) = (<$ty>::default(), <$ty>::default());
        observe(&mut once);
        (0..n).for_each(|_| observe(&mut repeated));
        assert_eq!(scaled(&once, n), repeated, "one observation scaled by n");
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_tallies_round_trip_and_obey_the_tally_laws(
        x in prop::collection::vec(0u64..1 << 20, 30..31),
        y in prop::collection::vec(0u64..1 << 20, 30..31),
        scales in (1u64..=5, 1u64..=5, 1u64..=5),
        observed in (1u32..40, 0usize..6, 0usize..200),
    ) {
        let (triples, width, nodes) = observed;
        // One observation per record, from a chain query of `triples`
        // triples (or, for the hypertree tally, from the generated widths).
        let chain: String =
            (0..triples).map(|i| format!("?x{i} <http://p> ?x{} . ", i + 1)).collect();
        let qa = QueryAnalysis::of_text(&format!("SELECT * WHERE {{ {chain}}}")).unwrap();
        let s = &qa.structural;
        check_tally_laws!(CorpusCounts, &x, &y, scales, |_| {});
        check_tally_laws!(CacheStats, &x, &y, scales, |_| {});
        check_tally_laws!(FusedStats, &x, &y, scales, |_| {});
        check_tally_laws!(KeywordTally, &x, &y, scales, |t| t.add(&qa.features));
        check_tally_laws!(TripleHistogram, &x, &y, scales, |t| t.add(&qa.features));
        check_tally_laws!(ProjectionTally, &x, &y, scales, |t| {
            t.record(qa.form, qa.projection, qa.has_subqueries)
        });
        check_tally_laws!(FragmentTally, &x, &y, scales, |t| t.add(&s.fragments));
        check_tally_laws!(ShapeTally, &x, &y, scales, |t| {
            t.add(s.shape.as_ref().unwrap(), s.treewidth.unwrap_or(1))
        });
        check_tally_laws!(FragmentSizeHistogram, &x, &y, scales, |t| t.add(triples));
        check_tally_laws!(HypertreeTally, &x, &y, scales, |t| {
            t.add(width, nodes, width % 2 == 0)
        });
    }

    #[test]
    fn arbitrary_log_summaries_round_trip(
        label in "[ -~]{0,40}",
        pairs in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX), 0..32),
        total in 0u64..=u64::MAX,
    ) {
        // Occurrence lists are sorted by fingerprint in real summaries, but
        // the codec must round-trip any list faithfully.
        let occurrences: Vec<(u128, u64)> = pairs
            .iter()
            .map(|&(hi, lo, count)| (fingerprint(hi, lo), count))
            .collect();
        // An arbitrary (but derived, hence reproducible) error tally: the
        // codec must carry any kind/position mix faithfully.
        let mut errors = ErrorTally::default();
        for &(hi, lo, _) in &pairs {
            errors.record(ErrorKind::ALL[(hi % 6) as usize], lo);
        }
        let summary = LogSummary {
            label,
            counts: CorpusCounts {
                total,
                // Wrapping: the codec must carry any u64, overflow-free sums
                // are the engine's concern, not the wire format's.
                valid: occurrences
                    .iter()
                    .fold(1u64, |sum, &(_, count)| sum.wrapping_add(count)),
                unique: occurrences.len() as u64,
                bodyless: total / 2,
            },
            occurrences,
            errors,
        };
        prop_assert_eq!(LogSummary::from_bytes(&summary.to_bytes()).unwrap(), summary);
    }

    #[test]
    fn arbitrary_path_tallies_round_trip(
        entries in prop::collection::vec(
            (0u8..25, 0u64..=u64::MAX, 0usize..1000, 0usize..1000),
            0..25,
        ),
        total in 0u64..=u64::MAX,
    ) {
        let mut by_type = BTreeMap::new();
        for &(code, count, min_k, max_k) in &entries {
            let ty = PathExpressionType::from_code(code).unwrap();
            by_type.insert(ty, TypeEntry {
                count,
                min_k: (min_k % 3 != 0).then_some(min_k),
                max_k: (max_k % 4 != 0).then_some(max_k),
            });
        }
        let tally = PathTally {
            total,
            negated_literal: total / 3,
            inverse_literal: total / 5,
            by_type,
            with_inverse: total / 7,
            potentially_hard: total / 11,
        };
        prop_assert_eq!(PathTally::from_bytes(&tally.to_bytes()).unwrap(), tally);
    }

    #[test]
    fn synthesized_dataset_analyses_round_trip(
        count in 20usize..60,
        seed in 0u64..5000,
        dataset_pick in 0usize..3,
    ) {
        let dataset = [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13][dataset_pick];
        let analysis = analysed_dataset(
            &synthesized_entries(dataset, count, seed),
            dataset.label(),
        );
        let bytes = analysis.to_bytes();
        prop_assert_eq!(DatasetAnalysis::from_bytes(&bytes).unwrap(), analysis);
    }

    #[test]
    fn every_strict_prefix_of_an_encoding_fails_to_decode(
        count in 10usize..30,
        seed in 0u64..1000,
    ) {
        // Truncation anywhere must yield an error — never a silently wrong
        // value. (UnexpectedEof for a short field; TrailingBytes can never
        // occur on a prefix, but a prefix may end exactly between fields,
        // where `finish()` catches the missing tail as UnexpectedEof on the
        // next read.)
        let analysis = analysed_dataset(
            &synthesized_entries(Dataset::DBpedia15, count, seed),
            "prefix-test",
        );
        let bytes = analysis.to_bytes();
        // Cover all short prefixes and a sample of longer ones (the full
        // quadratic sweep would be slow at 24 cases).
        let step = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(
                DatasetAnalysis::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                bytes.len()
            );
        }
    }

    #[test]
    fn log_frames_round_trip_through_the_stream(
        count in 10usize..40,
        seed in 0u64..1000,
        index in 0u64..64,
    ) {
        let entries = synthesized_entries(Dataset::WikiData17, count, seed);
        let analysis = analysed_dataset(&entries, "stream-test");
        let frame = LogFrame {
            index,
            summary: LogSummary {
                label: analysis.label.clone(),
                counts: analysis.counts,
                occurrences: vec![(fingerprint(seed, count as u64), 2)],
                errors: analysis.errors.clone(),
            },
            analysis,
        };
        let epilogue = EpilogueFrame {
            log_frames: 1,
            cache: CacheStats { hits: seed, misses: count as u64, distinct: 3 },
            fused: FusedStats {
                batches: 1,
                peak_inflight_entries: count,
                distinct_forms: 3,
            },
            metrics: MetricsSnapshot {
                counters: vec![("pipeline_entries_total".to_string(), count as u64)],
                gauges: vec![("cache_distinct_forms".to_string(), -(seed as i64))],
                histograms: vec![(
                    "pipeline_parse_us".to_string(),
                    HistogramSnapshot {
                        count: 2,
                        sum: seed + 10,
                        max: seed + 9,
                        buckets: vec![(1, 1), (seed.max(2), 1)],
                    },
                )],
            },
        };
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        Frame::from(frame.clone()).write_to(&mut stream).unwrap();
        Frame::Epilogue(epilogue.clone()).write_to(&mut stream).unwrap();
        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        prop_assert_eq!(bytes, stream.len() as u64);
        prop_assert_eq!(&snapshot.logs[..], std::slice::from_ref(&frame));
        prop_assert_eq!(snapshot.epilogue, epilogue);

        // Every strict prefix of the framed stream is a structured error.
        let step = (stream.len() / 48).max(1);
        for cut in (0..stream.len()).step_by(step) {
            prop_assert!(
                read_snapshot(&stream[..cut]).is_err(),
                "stream prefix of {cut}/{} bytes decoded successfully",
                stream.len()
            );
        }
    }
}

#[test]
fn wrong_version_and_bad_magic_are_rejected_up_front() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAGIC);
    stream.push(VERSION + 1);
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert_eq!(
        error.kind,
        DecodeErrorKind::UnsupportedVersion { found: VERSION + 1 }
    );

    let StreamError::Decode(error) = read_snapshot(&b"XXXX\x01"[..]).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert_eq!(error.kind, DecodeErrorKind::BadMagic { found: *b"XXXX" });
}

#[test]
fn unknown_wire_codes_are_invalid_value_errors() {
    // A PathTally whose map declares one entry with an unknown type code.
    let mut encoder = Encoder::new();
    encoder.put_varint(1); // total
    encoder.put_varint(0); // negated_literal
    encoder.put_varint(0); // inverse_literal
    encoder.put_usize(1); // map length
    encoder.put_u8(200); // bogus type code
    let bytes = encoder.into_bytes();
    let mut decoder = Decoder::new(&bytes);
    let error = PathTally::decode(&mut decoder).unwrap_err();
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "path-expression-type code",
                value: 200
            }
        ),
        "{error:?}"
    );
}

#[test]
fn duplicate_map_keys_are_rejected() {
    use sparqlog_algebra::{OpSetTally, OperatorSet};
    // An OpSetTally whose map declares the same operator set twice: the
    // second entry must fail the decode, not silently overwrite the first
    // (which would leave entries that no longer sum to the encoded total).
    let mut encoder = Encoder::new();
    encoder.put_usize(2); // map length
    encoder.put_u8(OperatorSet::FILTER);
    encoder.put_varint(3);
    encoder.put_u8(OperatorSet::FILTER); // duplicate key
    encoder.put_varint(4);
    encoder.put_varint(0); // other_features
    encoder.put_varint(7); // total
    let bytes = encoder.into_bytes();
    let error = OpSetTally::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "duplicate operator-set key",
                ..
            }
        ),
        "{error:?}"
    );
}

#[test]
fn trailing_bytes_after_a_value_are_rejected() {
    let counts = CorpusCounts {
        total: 9,
        valid: 8,
        unique: 7,
        bodyless: 1,
    };
    let mut bytes = counts.to_bytes();
    bytes.push(0);
    let error = CorpusCounts::from_bytes(&bytes).unwrap_err();
    assert_eq!(error.kind, DecodeErrorKind::TrailingBytes { remaining: 1 });
}

/// A minimal log frame (default tallies) for the framing-level tests.
fn tiny_log_frame() -> Frame {
    Frame::from(LogFrame {
        index: 0,
        summary: LogSummary {
            label: "crc-test".to_string(),
            counts: CorpusCounts::default(),
            occurrences: Vec::new(),
            errors: ErrorTally::default(),
        },
        analysis: DatasetAnalysis {
            label: "crc-test".to_string(),
            ..DatasetAnalysis::default()
        },
    })
}

fn tiny_epilogue() -> Frame {
    Frame::Epilogue(EpilogueFrame {
        log_frames: 1,
        ..EpilogueFrame::default()
    })
}

#[test]
fn checksummed_streams_round_trip_and_catch_silent_corruption() {
    let frame = tiny_log_frame();
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    let header_len = stream.len();
    let payload = frame.to_payload();
    frame.write_checked_to(&mut stream).unwrap();
    tiny_epilogue().write_checked_to(&mut stream).unwrap();

    // The checked stream decodes, and the checksum frames are invisible to
    // the snapshot (no extra logs, same epilogue).
    let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
    assert_eq!(bytes, stream.len() as u64);
    assert_eq!(snapshot.logs.len(), 1);

    // Flip the low bit of the log payload's last byte: the frame still
    // *decodes* (a terminal varint changes value, nothing else moves), so
    // without the checksum this corruption would be silent — the CRC frame
    // right behind it must catch it.
    let mut length_prefix = Encoder::new();
    length_prefix.put_usize(payload.len());
    let corrupt_at = header_len + length_prefix.into_bytes().len() + payload.len() - 1;
    let mut corrupted = stream.clone();
    corrupted[corrupt_at] ^= 1;
    let StreamError::Decode(error) = read_snapshot(corrupted.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(error.kind, DecodeErrorKind::ChecksumMismatch { .. }),
        "{error:?}"
    );
}

#[test]
fn orphan_and_misaligned_checksum_frames_are_structured_errors() {
    use sparqlog_shard::codec::crc32c;
    use sparqlog_shard::snapshot::CrcFrame;

    // A checksum frame with nothing before it to cover.
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    Frame::Crc(CrcFrame { crc: 7, covered: 9 })
        .write_to(&mut stream)
        .unwrap();
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "checksum frame with no frame to cover",
                ..
            }
        ),
        "{error:?}"
    );

    // A checksum frame declaring the wrong coverage length (misaligned —
    // it would otherwise be verified against the wrong frame).
    let frame = tiny_log_frame();
    let payload = frame.to_payload();
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    frame.write_to(&mut stream).unwrap();
    Frame::Crc(CrcFrame {
        crc: crc32c(&payload),
        covered: payload.len() as u64 + 1,
    })
    .write_to(&mut stream)
    .unwrap();
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "checksum coverage length",
                ..
            }
        ),
        "{error:?}"
    );
}

#[test]
fn summaries_split_across_processes_merge_to_the_whole() {
    // The wire format's cross-process merge hook: summaries of two halves of
    // one log, round-tripped through the codec, merge back to the whole-log
    // summary.
    let entries = synthesized_entries(Dataset::BioP13, 40, 77);
    let (first_half, second_half) = entries.split_at(entries.len() / 2);
    let whole = summary_of(&entries);
    let first = LogSummary::from_bytes(&summary_of(first_half).to_bytes()).unwrap();
    let second = LogSummary::from_bytes(&summary_of(second_half).to_bytes()).unwrap();
    let mut merged = first;
    merged.merge(&second);
    assert_eq!(merged, whole);
}

// ---------------------------------------------------------------------------
// Golden bytes. The round-trip properties cannot see a reordered field
// (encode and decode would move together); these literal bytes can, and
// they decode back with every irregular member non-empty. A new field or
// a new order is a `VERSION` bump and an update here.
// ---------------------------------------------------------------------------

/// A 10-byte varint, and its bytes.
const X: u64 = u64::MAX;
const MAX: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

/// Every flat record with a distinct value per field, spanning 1-, 2-, 3-,
/// 5- and 10-byte varints; the irregular members are small but non-empty.
fn golden_records() -> (DatasetAnalysis, CacheStats, FusedStats) {
    let cache = CacheStats {
        hits: 129,
        misses: X,
        distinct: 16_384,
    };
    let fused = FusedStats {
        batches: 3,
        peak_inflight_entries: 2_000_000,
        distinct_forms: X - 1,
    };
    let filter = OperatorSet::from_bits(OperatorSet::FILTER).unwrap();
    let entry = TypeEntry {
        count: 4,
        min_k: Some(0),
        max_k: Some(usize::MAX - 1),
    };
    let dataset = DatasetAnalysis {
        label: "g".to_string(),
        counts: CorpusCounts {
            total: 1,
            valid: 300,
            unique: 70_000,
            bodyless: X,
        },
        errors: ErrorTally {
            lex: X,
            syntax: 2,
            exemplars: vec![(1, 300), (5, X)],
            ..ErrorTally::default()
        },
        keywords: KeywordTally {
            total_queries: X,
            select: 1,
            ask: 2,
            describe: 3,
            construct: 130,
            distinct: 131,
            limit: 16_400,
            offset: 16_401,
            order_by: 4,
            filter: 5,
            and: 132,
            union: 133,
            opt: 16_402,
            graph: 6,
            not_exists: 7,
            minus: 134,
            exists: 8,
            count: 9,
            max: 135,
            min: 16_403,
            avg: 10,
            sum: 11,
            group_by: 136,
            having: 12,
            service: 13,
            bind: 137,
            values: 16_404,
            reduced: 14,
            subquery: 15,
            property_path: X - 1,
        },
        triples: TripleHistogram {
            buckets: [1, 2, 3, 130, 131, 16_400, 4, 5, 6, 7, 8],
            eleven_plus: 9,
            select_ask_queries: 132,
            all_queries: X,
            triple_sum: 16_401,
            max_triples: u32::MAX,
        },
        opsets: OpSetTally {
            pure: BTreeMap::from([(filter, 5)]),
            other_features: 6,
            total: 7,
        },
        projection: ProjectionTally {
            select_yes: 1,
            ask_yes: 130,
            no: 16_400,
            unknown: X,
            not_applicable: 2,
            with_subqueries: 131,
            total: 3,
        },
        fragments: FragmentTally {
            select_ask: X,
            aof: 1,
            cq: 2,
            cqf: 130,
            well_designed: 16_400,
            cqof: 3,
            aof_var_predicate: 131,
            wide_interface: 4,
        },
        shapes_cq: ShapeTally {
            single_edge: 1,
            chain: 2,
            chain_set: 130,
            star: 3,
            tree: 16_400,
            forest: 4,
            cycle: 131,
            flower: 5,
            flower_set: 6,
            treewidth_le2: 132,
            treewidth_3: 7,
            treewidth_ge4: 16_401,
            total: X,
        },
        sizes_cqf: FragmentSizeHistogram {
            buckets: [1, 2, 130, 3, 16_400, 4, 5, 131, 6],
            eleven_plus: 7,
            one_triple: 132,
            total: X,
            max_triples: 70_000,
        },
        cycle_lengths: BTreeMap::from([(3, 9)]),
        hypertree: HypertreeTally {
            total: X,
            width1: 1,
            width2: 130,
            width3: 16_400,
            wider_or_unknown: 2,
            over_100_nodes: 3,
            max_nodes: 131,
        },
        paths: PathTally {
            total: 1,
            negated_literal: 2,
            inverse_literal: 3,
            by_type: BTreeMap::from([(PathExpressionType::ALL[0], entry)]),
            with_inverse: 5,
            potentially_hard: 6,
        },
        single_edge_with_constants: 300,
        ..DatasetAnalysis::default()
    };
    (dataset, cache, fused)
}

const COUNTS: &[u8] = &[
    0x01, 0xac, 0x02, 0xf0, 0xa2, 0x04, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
];
const CACHE: &[u8] = &[
    0x81, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x80, 0x80, 0x01,
];
const FUSED: &[u8] = &[
    0x03, 0x80, 0x89, 0x7a, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
];
const KEYWORDS: &[u8] = &[
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x02, 0x03, 0x82, 0x01, 0x83,
    0x01, 0x90, 0x80, 0x01, 0x91, 0x80, 0x01, 0x04, 0x05, 0x84, 0x01, 0x85, 0x01, 0x92, 0x80, 0x01,
    0x06, 0x07, 0x86, 0x01, 0x08, 0x09, 0x87, 0x01, 0x93, 0x80, 0x01, 0x0a, 0x0b, 0x88, 0x01, 0x0c,
    0x0d, 0x89, 0x01, 0x94, 0x80, 0x01, 0x0e, 0x0f, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x01,
];
const TRIPLES: &[u8] = &[
    0x01, 0x02, 0x03, 0x82, 0x01, 0x83, 0x01, 0x90, 0x80, 0x01, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09,
    0x84, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x91, 0x80, 0x01, 0xff,
    0xff, 0xff, 0xff, 0x0f,
];
const PROJECTION: &[u8] = &[
    0x01, 0x82, 0x01, 0x90, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
    0x02, 0x83, 0x01, 0x03,
];
const FRAGMENTS: &[u8] = &[
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x02, 0x82, 0x01, 0x90, 0x80,
    0x01, 0x03, 0x83, 0x01, 0x04,
];
const SHAPES: &[u8] = &[
    0x01, 0x02, 0x82, 0x01, 0x03, 0x90, 0x80, 0x01, 0x04, 0x83, 0x01, 0x05, 0x06, 0x84, 0x01, 0x07,
    0x91, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
];
const SIZES: &[u8] = &[
    0x01, 0x02, 0x82, 0x01, 0x03, 0x90, 0x80, 0x01, 0x04, 0x05, 0x83, 0x01, 0x06, 0x07, 0x84, 0x01,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0xf0, 0xa2, 0x04,
];
const HYPERTREE: &[u8] = &[
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x82, 0x01, 0x90, 0x80, 0x01,
    0x02, 0x03, 0x83, 0x01,
];

#[test]
fn golden_bytes_pin_the_wire_layout() {
    let (dataset, cache, fused) = golden_records();
    let records: [(&str, Vec<u8>, &[u8]); 10] = [
        ("CorpusCounts", dataset.counts.to_bytes(), COUNTS),
        ("CacheStats", cache.to_bytes(), CACHE),
        ("FusedStats", fused.to_bytes(), FUSED),
        ("KeywordTally", dataset.keywords.to_bytes(), KEYWORDS),
        ("TripleHistogram", dataset.triples.to_bytes(), TRIPLES),
        ("ProjectionTally", dataset.projection.to_bytes(), PROJECTION),
        ("FragmentTally", dataset.fragments.to_bytes(), FRAGMENTS),
        ("ShapeTally", dataset.shapes_cq.to_bytes(), SHAPES),
        ("FragmentSizeHistogram", dataset.sizes_cqf.to_bytes(), SIZES),
        ("HypertreeTally", dataset.hypertree.to_bytes(), HYPERTREE),
    ];
    for (name, actual, expected) in &records {
        assert_eq!(actual.as_slice(), *expected, "{name}: wire bytes moved");
    }

    // The dataset: label, counts, errors (six counts, two exemplars), the
    // tallies in member order with three all-zero shape / size tallies, one
    // opset, one cycle length, one path type (`min_k` 0, `max_k`
    // `usize::MAX - 1`), 300.
    let dataset_bytes = [
        &[0x01, b'g'][..],
        COUNTS,
        MAX,
        &[0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0xac, 0x02, 0x05],
        MAX,
        KEYWORDS,
        TRIPLES,
        &[0x01, OperatorSet::FILTER, 0x05, 0x06, 0x07],
        PROJECTION,
        FRAGMENTS,
        SHAPES,
        &[0x00; 39],
        SIZES,
        &[0x00; 13],
        &[0x01, 0x03, 0x09],
        HYPERTREE,
        &[0x01, 0x02, 0x03, 0x01, 0x00, 0x04, 0x01],
        MAX,
        &[0x05, 0x06, 0xac, 0x02],
    ]
    .concat();
    assert_eq!(dataset.to_bytes(), dataset_bytes, "DatasetAnalysis");
    assert_eq!(
        DatasetAnalysis::from_bytes(&dataset_bytes).unwrap(),
        dataset
    );

    // A log frame: tag, index, the summary (two occurrences, fingerprints
    // little-endian; no errors), then the dataset.
    let frame = Frame::from(LogFrame {
        index: 2,
        summary: LogSummary {
            label: "ü".to_string(),
            counts: dataset.counts,
            occurrences: vec![((1 << 120) | 5, 3), (u128::MAX, X)],
            errors: ErrorTally::default(),
        },
        analysis: dataset,
    });
    let frame_bytes = [
        &[0x01, 0x02, 0x02, 0xc3, 0xbc][..],
        COUNTS,
        &[0x02, 0x05],
        &[0x00; 14],
        &[0x01, 0x03],
        &[0xff; 16],
        MAX,
        &[0x00; 7],
        &dataset_bytes,
    ]
    .concat();
    assert_eq!(frame.to_payload(), frame_bytes, "LogFrame payload");
    assert_eq!(Frame::from_payload(&frame_bytes, 0).unwrap(), frame);
}

#[test]
fn a_max_triples_beyond_u32_is_a_length_overflow_at_its_varint() {
    // Fifteen zero counters, then a `max_triples` varint of 2^32.
    let bytes = [&[0x00; 15][..], &[0x80, 0x80, 0x80, 0x80, 0x10]].concat();
    let error = TripleHistogram::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        error,
        DecodeError {
            kind: DecodeErrorKind::LengthOverflow { value: 1 << 32 },
            offset: 20,
        }
    );
}

fn summary_of(entries: &[String]) -> LogSummary {
    use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
        "merge-test",
        entries.to_vec(),
    ))];
    analyze_streams(readers, Population::Valid)
        .expect("in-memory streams")
        .summaries
        .remove(0)
}
