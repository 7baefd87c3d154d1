//! [`Snapshot`] encode/decode implementations for every record that crosses
//! the process boundary: [`LogSummary`], [`CorpusCounts`], every tally
//! behind [`DatasetAnalysis`], [`CacheStats`], and the framed worker stream
//! ([`LogFrame`] / [`EpilogueFrame`]) the coordinator consumes.
//!
//! The wire rule for the fifteen tallies (declared with
//! [`sparqlog_algebra::tally!`], [`DatasetAnalysis`] and everything in it)
//! is their [`Field`] view, field by field in declaration order: every
//! scalar is one varint and a `[u64; N]` is `N` varints; an `Option<usize>`
//! is one varint (`0` for `None`, `v + 1` for `Some(v)`); a string, a map or
//! an exemplar list is its length and then its contents, with map keys and
//! exemplar codes one raw byte (cycle lengths, the one `usize` key, a
//! varint). A `u32` or `usize` that does not fit fails with
//! [`LengthOverflow`](DecodeErrorKind::LengthOverflow), an unknown code or a
//! repeated map key with [`InvalidValue`](DecodeErrorKind::InvalidValue). A
//! field cannot be forgotten by the codec, but a new or reordered field
//! changes the bytes: it needs a [`VERSION`](crate::codec::VERSION) bump and
//! an update of the golden bytes in `tests/codec.rs`. The records that are
//! not tallies ([`LogSummary`], the metric snapshots of `sparqlog-obs`,
//! which has no dependencies, and the frames) are written out below; they
//! decode fields in the exact order they encode them. Nothing about the wire
//! layout depends on Rust struct layout.
//!
//! ```
//! use sparqlog_core::corpus::{CorpusCounts, LogSummary};
//! use sparqlog_shard::snapshot::Snapshot;
//!
//! let summary = LogSummary {
//!     label: "DBpedia15".to_string(),
//!     counts: CorpusCounts { total: 5, valid: 4, unique: 2, ..Default::default() },
//!     errors: Default::default(),
//! };
//! let bytes = summary.to_bytes();
//! assert_eq!(LogSummary::from_bytes(&bytes).unwrap(), summary);
//! ```

use crate::codec::{write_frame, Decoder, Encoder};
use crate::codec::{DecodeError, DecodeErrorKind};
use sparqlog_algebra::tally::Field;
use sparqlog_algebra::{FragmentTally, KeywordTally, OpSetTally, ProjectionTally, TripleHistogram};
use sparqlog_core::analysis::{
    DatasetAnalysis, FragmentSizeHistogram, HypertreeTally, PathTally, TypeEntry,
};
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::{CorpusCounts, FusedStats, LogSummary};
use sparqlog_core::recover::ErrorTally;
use sparqlog_graph::ShapeTally;
use sparqlog_obs::{HistogramSnapshot, MetricsSnapshot};
use std::io::{self, Write};

/// A value with a binary snapshot representation in the shard wire format.
pub trait Snapshot: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Encoder);

    /// Decodes one value from the cursor.
    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut encoder = Encoder::new();
        self.encode(&mut encoder);
        encoder.into_bytes()
    }

    /// Decodes from a byte slice, requiring every byte to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut decoder = Decoder::new(bytes);
        let value = Self::decode(&mut decoder)?;
        decoder.finish()?;
        Ok(value)
    }
}

/// The tallies: each is its [`Field`] view on the wire, field by field in
/// declaration order (`sparqlog_algebra::tally!`).
macro_rules! tally_snapshot {
    ($($tally:ty),* $(,)?) => {$(
        impl Snapshot for $tally {
            fn encode(&self, out: &mut Encoder) {
                Field::put(self, out);
            }

            fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Field::take(input)
            }
        }
    )*};
}

tally_snapshot!(
    CorpusCounts,
    CacheStats,
    FusedStats,
    KeywordTally,
    TripleHistogram,
    ProjectionTally,
    FragmentTally,
    ShapeTally,
    FragmentSizeHistogram,
    HypertreeTally,
    ErrorTally,
    OpSetTally,
    TypeEntry,
    PathTally,
    DatasetAnalysis,
);

impl Snapshot for LogSummary {
    fn encode(&self, out: &mut Encoder) {
        let LogSummary {
            label,
            counts,
            errors,
        } = self;
        out.put_str(label);
        counts.encode(out);
        errors.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(LogSummary {
            label: input.take_str()?,
            counts: CorpusCounts::decode(input)?,
            errors: ErrorTally::decode(input)?,
        })
    }
}

/// Gauges are signed; the codec's varints are not. ZigZag maps small
/// magnitudes of either sign to short varints.
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

/// Fails unless `key`, just read, sorts strictly after the last key of
/// `entries`: histogram merges, registry merges and metric lookups assume
/// ascending, distinct keys. The error reports the entry's index.
fn ascending<K: Ord, V>(
    input: &Decoder<'_>,
    entries: &[(K, V)],
    key: &K,
    what: &'static str,
) -> Result<(), DecodeError> {
    match entries.last() {
        Some((last, _)) if last >= key => Err(input.invalid(what, entries.len() as u64)),
        _ => Ok(()),
    }
}

impl Snapshot for HistogramSnapshot {
    fn encode(&self, out: &mut Encoder) {
        let HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        } = self;
        out.put_varint(*count);
        out.put_varint(*sum);
        out.put_varint(*max);
        out.put_usize(buckets.len());
        for &(bound, bucket_count) in buckets {
            out.put_varint(bound);
            out.put_varint(bucket_count);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = input.take_varint()?;
        let sum = input.take_varint()?;
        let max = input.take_varint()?;
        let length = input.take_usize()?;
        let mut buckets = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let bound = input.take_varint()?;
            ascending(input, &buckets, &bound, "histogram bucket order")?;
            let bucket_count = input.take_varint()?;
            buckets.push((bound, bucket_count));
        }
        Ok(HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        })
    }
}

impl Snapshot for MetricsSnapshot {
    fn encode(&self, out: &mut Encoder) {
        let MetricsSnapshot {
            counters,
            gauges,
            histograms,
        } = self;
        out.put_usize(counters.len());
        for (name, value) in counters {
            out.put_str(name);
            out.put_varint(*value);
        }
        out.put_usize(gauges.len());
        for (name, value) in gauges {
            out.put_str(name);
            out.put_varint(zigzag(*value));
        }
        out.put_usize(histograms.len());
        for (name, histogram) in histograms {
            out.put_str(name);
            histogram.encode(out);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let length = input.take_usize()?;
        let mut counters = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let name = input.take_str()?;
            ascending(input, &counters, &name, "metric name order")?;
            let value = input.take_varint()?;
            counters.push((name, value));
        }
        let length = input.take_usize()?;
        let mut gauges = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let name = input.take_str()?;
            ascending(input, &gauges, &name, "metric name order")?;
            let value = unzigzag(input.take_varint()?);
            gauges.push((name, value));
        }
        let length = input.take_usize()?;
        let mut histograms = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let name = input.take_str()?;
            ascending(input, &histograms, &name, "metric name order")?;
            let histogram = HistogramSnapshot::decode(input)?;
            histograms.push((name, histogram));
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

// ---------------------------------------------------------------------------
// The framed worker stream.
// ---------------------------------------------------------------------------
//
// Each frame below is the payload of one codec frame, so each carries its
// own CRC32C trailer (`crate::codec`).

/// Frame tag: one analysed log (index + summary + per-dataset analysis).
pub const FRAME_LOG: u8 = 1;

/// Frame tag: the worker epilogue (frame count + cache + residency stats).
pub const FRAME_EPILOGUE: u8 = 2;

/// Frame tag: a liveness heartbeat (sequence number only, no payload data).
pub const FRAME_HEARTBEAT: u8 = 3;

/// One analysed log as the worker ships it: the log's index in the
/// *coordinator's* corpus order, its [`LogSummary`], and its full
/// [`DatasetAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogFrame {
    /// Index of this log in the coordinator's input order.
    pub index: u64,
    /// The fused engine's per-log summary (label, Table-1 counts, error
    /// tally).
    pub summary: LogSummary,
    /// The full per-dataset analysis — every tally of the report.
    pub analysis: DatasetAnalysis,
}

/// The final frame of a worker snapshot: a self-check of the stream plus the
/// run's observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpilogueFrame {
    /// How many [`LogFrame`]s the worker streamed before this epilogue.
    pub log_frames: u64,
    /// The worker's analysis-cache counters.
    pub cache: CacheStats,
    /// The worker's fused-engine residency counters.
    pub fused: FusedStats,
    /// The worker process's full metric registry snapshot — per-stage
    /// latency histograms and layer counters — absorbed by the coordinator
    /// (or serve supervisor) into its own registry, so a daemon's
    /// `Metrics` answer covers work done in worker processes. Empty when
    /// the worker ran with metrics disabled.
    pub metrics: MetricsSnapshot,
}

/// A liveness heartbeat: a worker that has nothing to report yet but wants
/// its supervisor to know it is alive (long analyses can go seconds between
/// log frames). Carries a monotonically increasing sequence number so a
/// supervisor can distinguish fresh beats from a replayed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatFrame {
    /// Monotonically increasing beat number (first beat is 1).
    pub seq: u64,
}

/// A decoded snapshot frame. The log variant is boxed: a [`LogFrame`]
/// carries a full [`DatasetAnalysis`] and would otherwise dominate the enum
/// size.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One analysed log.
    Log(Box<LogFrame>),
    /// The stream epilogue.
    Epilogue(EpilogueFrame),
    /// A liveness heartbeat (carries no analysis data).
    Heartbeat(HeartbeatFrame),
}

impl From<LogFrame> for Frame {
    fn from(frame: LogFrame) -> Frame {
        Frame::Log(Box::new(frame))
    }
}

impl Frame {
    /// Encodes the frame payload (tag byte + body).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut encoder = Encoder::new();
        match self {
            Frame::Log(frame) => {
                encoder.put_u8(FRAME_LOG);
                encoder.put_varint(frame.index);
                frame.summary.encode(&mut encoder);
                frame.analysis.encode(&mut encoder);
            }
            Frame::Epilogue(frame) => {
                encoder.put_u8(FRAME_EPILOGUE);
                encoder.put_varint(frame.log_frames);
                frame.cache.encode(&mut encoder);
                frame.fused.encode(&mut encoder);
                frame.metrics.encode(&mut encoder);
            }
            Frame::Heartbeat(frame) => {
                encoder.put_u8(FRAME_HEARTBEAT);
                encoder.put_varint(frame.seq);
            }
        }
        encoder.into_bytes()
    }

    /// Decodes a frame payload whose first stream byte sits at `base_offset`
    /// (for error reporting).
    pub fn from_payload(payload: &[u8], base_offset: u64) -> Result<Frame, DecodeError> {
        let mut decoder = Decoder::with_base_offset(payload, base_offset);
        let tag = decoder.take_u8()?;
        let frame = match tag {
            FRAME_LOG => {
                let index = decoder.take_varint()?;
                let summary = LogSummary::decode(&mut decoder)?;
                let analysis = DatasetAnalysis::decode(&mut decoder)?;
                Frame::Log(Box::new(LogFrame {
                    index,
                    summary,
                    analysis,
                }))
            }
            FRAME_EPILOGUE => {
                let log_frames = decoder.take_varint()?;
                let cache = CacheStats::decode(&mut decoder)?;
                let fused = FusedStats::decode(&mut decoder)?;
                let metrics = MetricsSnapshot::decode(&mut decoder)?;
                Frame::Epilogue(EpilogueFrame {
                    log_frames,
                    cache,
                    fused,
                    metrics,
                })
            }
            FRAME_HEARTBEAT => {
                let seq = decoder.take_varint()?;
                Frame::Heartbeat(HeartbeatFrame { seq })
            }
            tag => {
                return Err(DecodeError {
                    kind: DecodeErrorKind::BadFrameTag { tag },
                    offset: base_offset,
                })
            }
        };
        decoder.finish()?;
        Ok(frame)
    }

    /// Writes the frame to a stream as one checksummed codec frame
    /// ([`write_frame`]: length prefix, payload, CRC32C trailer).
    pub fn write_checked_to(&self, out: &mut impl Write) -> io::Result<()> {
        write_frame(out, &self.to_payload())
    }
}

/// A worker's complete decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// The analysed logs, in the order the worker streamed them.
    pub logs: Vec<LogFrame>,
    /// The epilogue counters.
    pub epilogue: EpilogueFrame,
}

/// Reads one complete worker snapshot (header, log frames, epilogue, EOF)
/// from a byte stream. Returns the snapshot and its total size in bytes.
///
/// Structured failures: a stream ending mid-frame is
/// [`DecodeErrorKind::UnexpectedEof`]; a frame whose checksum trailer does
/// not match is [`DecodeErrorKind::ChecksumMismatch`]; a stream ending
/// cleanly before the epilogue is [`DecodeErrorKind::MissingEpilogue`];
/// frames after the epilogue are [`DecodeErrorKind::TrailingFrame`]; an
/// epilogue whose declared count disagrees with the streamed frames is
/// [`DecodeErrorKind::FrameCountMismatch`].
pub fn read_snapshot(
    reader: impl std::io::Read,
) -> Result<(WorkerSnapshot, u64), crate::codec::StreamError> {
    read_snapshot_observed(reader, |_| {})
}

/// [`read_snapshot`] with a frame observer: `observe` is called on every
/// decoded frame (including [`Frame::Heartbeat`]s, which carry no analysis
/// data and are otherwise skipped) *as it arrives*. This is the supervision
/// hook — a liveness clock touched per frame distinguishes a slow worker
/// from a wedged one while the stream is still incomplete.
pub fn read_snapshot_observed(
    reader: impl std::io::Read,
    mut observe: impl FnMut(&Frame),
) -> Result<(WorkerSnapshot, u64), crate::codec::StreamError> {
    let mut frames = crate::codec::FrameReader::new(reader);
    frames.read_header()?;
    let mut logs = Vec::new();
    loop {
        let Some((payload, base)) = frames.next_frame()? else {
            return Err(crate::codec::StreamError::Decode(DecodeError {
                kind: DecodeErrorKind::MissingEpilogue,
                offset: frames.offset(),
            }));
        };
        let frame = Frame::from_payload(&payload, base)?;
        observe(&frame);
        match frame {
            Frame::Log(frame) => logs.push(*frame),
            Frame::Heartbeat(_) => {}
            Frame::Epilogue(epilogue) => {
                if epilogue.log_frames != logs.len() as u64 {
                    return Err(crate::codec::StreamError::Decode(DecodeError {
                        kind: DecodeErrorKind::FrameCountMismatch {
                            declared: epilogue.log_frames,
                            seen: logs.len() as u64,
                        },
                        offset: base,
                    }));
                }
                let bytes = frames.offset();
                if frames.next_frame()?.is_some() {
                    return Err(crate::codec::StreamError::Decode(DecodeError {
                        kind: DecodeErrorKind::TrailingFrame,
                        offset: bytes,
                    }));
                }
                return Ok((WorkerSnapshot { logs, epilogue }, bytes));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_core::analysis::Population;
    use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
    use sparqlog_paths::PathExpressionType;
    use std::collections::BTreeMap;

    fn analysed_dataset() -> DatasetAnalysis {
        let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
            "snapshot-test",
            vec![
                "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5"
                    .to_string(),
                "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }".to_string(),
                "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }".to_string(),
                "SELECT ?x WHERE { ?x <http://p> <http://const> }".to_string(),
                "DESCRIBE <http://r>".to_string(),
                "garbage".to_string(),
            ],
        ))];
        let fused = analyze_streams(readers, Population::Unique).expect("in-memory streams");
        fused.corpus.datasets.into_iter().next().unwrap()
    }

    #[test]
    fn an_analysed_dataset_round_trips() {
        let dataset = analysed_dataset();
        let decoded = DatasetAnalysis::from_bytes(&dataset.to_bytes()).unwrap();
        assert_eq!(dataset, decoded);
        assert!(!dataset.cycle_lengths.is_empty());
        assert!(!dataset.paths.by_type.is_empty());
        assert!(!dataset.opsets.pure.is_empty());
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut by_type = BTreeMap::new();
        for ty in PathExpressionType::ALL {
            by_type.insert(
                ty,
                TypeEntry {
                    count: u64::MAX,
                    min_k: Some(0),
                    max_k: Some(usize::MAX - 1),
                },
            );
        }
        let paths = PathTally {
            total: u64::MAX,
            negated_literal: 1,
            inverse_literal: 2,
            by_type,
            with_inverse: 3,
            potentially_hard: 4,
        };
        let decoded = PathTally::from_bytes(&paths.to_bytes()).unwrap();
        assert_eq!(decoded, paths);

        let summary = LogSummary {
            label: "ünïcode / label".to_string(),
            counts: CorpusCounts {
                total: u64::MAX,
                valid: u64::MAX - 1,
                unique: 7,
                bodyless: 0,
            },
            errors: ErrorTally {
                lex: u64::MAX,
                syntax: 1,
                invalid_utf8: 2,
                oversize_entry: 3,
                depth_exceeded: 4,
                worker_panic: 5,
                exemplars: vec![(0, 0), (5, u64::MAX)],
            },
        };
        assert_eq!(
            LogSummary::from_bytes(&summary.to_bytes()).unwrap(),
            summary
        );
    }

    #[test]
    fn frames_round_trip_and_reject_bad_tags() {
        let dataset = analysed_dataset();
        let frame = Frame::from(LogFrame {
            index: 3,
            summary: LogSummary {
                label: dataset.label.clone(),
                counts: dataset.counts,
                errors: dataset.errors.clone(),
            },
            analysis: dataset,
        });
        let payload = frame.to_payload();
        let decoded = Frame::from_payload(&payload, 11).unwrap();
        assert_eq!(frame, decoded);

        let mut bad = payload.clone();
        bad[0] = 99;
        assert_eq!(
            Frame::from_payload(&bad, 0).unwrap_err().kind,
            DecodeErrorKind::BadFrameTag { tag: 99 }
        );
    }

    #[test]
    fn snapshot_stream_round_trips_and_validates_the_epilogue() {
        let dataset = analysed_dataset();
        let log = LogFrame {
            index: 0,
            summary: LogSummary {
                label: dataset.label.clone(),
                counts: dataset.counts,
                errors: Default::default(),
            },
            analysis: dataset,
        };
        let epilogue = EpilogueFrame {
            log_frames: 1,
            cache: CacheStats {
                hits: 10,
                misses: 4,
                distinct: 4,
            },
            fused: FusedStats {
                batches: 2,
                peak_inflight_entries: 6,
                distinct_forms: 4,
            },
            metrics: MetricsSnapshot {
                counters: vec![
                    ("cache_hits_total".to_string(), 10),
                    ("pipeline_entries_total".to_string(), 14),
                ],
                gauges: vec![("cache_distinct_forms".to_string(), 4)],
                histograms: vec![(
                    "pipeline_read_us".to_string(),
                    HistogramSnapshot {
                        count: 2,
                        sum: 30,
                        max: 20,
                        buckets: vec![(10, 2)],
                    },
                )],
            },
        };
        let mut stream = Vec::new();
        crate::codec::write_stream_header(&mut stream).unwrap();
        Frame::from(log.clone())
            .write_checked_to(&mut stream)
            .unwrap();
        Frame::Epilogue(epilogue.clone())
            .write_checked_to(&mut stream)
            .unwrap();

        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        assert_eq!(bytes, stream.len() as u64);
        assert_eq!(snapshot.logs.len(), 1);
        assert_eq!(snapshot.logs[0].summary, log.summary);
        assert_eq!(snapshot.epilogue, epilogue);

        // Missing epilogue: stream ends cleanly after the log frame.
        let mut early = Vec::new();
        crate::codec::write_stream_header(&mut early).unwrap();
        Frame::from(log.clone())
            .write_checked_to(&mut early)
            .unwrap();
        let crate::codec::StreamError::Decode(error) = read_snapshot(early.as_slice()).unwrap_err()
        else {
            panic!("expected decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::MissingEpilogue);

        // Count mismatch.
        let mut mismatched = Vec::new();
        crate::codec::write_stream_header(&mut mismatched).unwrap();
        Frame::from(log.clone())
            .write_checked_to(&mut mismatched)
            .unwrap();
        Frame::Epilogue(EpilogueFrame {
            log_frames: 2,
            ..epilogue
        })
        .write_checked_to(&mut mismatched)
        .unwrap();
        let crate::codec::StreamError::Decode(error) =
            read_snapshot(mismatched.as_slice()).unwrap_err()
        else {
            panic!("expected decode error");
        };
        assert_eq!(
            error.kind,
            DecodeErrorKind::FrameCountMismatch {
                declared: 2,
                seen: 1
            }
        );

        // Trailing frame after the epilogue.
        let mut trailing = stream.clone();
        Frame::from(log).write_checked_to(&mut trailing).unwrap();
        let crate::codec::StreamError::Decode(error) =
            read_snapshot(trailing.as_slice()).unwrap_err()
        else {
            panic!("expected decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::TrailingFrame);
    }

    #[test]
    fn metric_names_and_bucket_bounds_must_ascend() {
        let out_of_order = |what| DecodeErrorKind::InvalidValue { what, value: 1 };
        let counters = vec![("b_total".to_string(), 1), ("a_total".to_string(), 2)];
        let metrics = MetricsSnapshot {
            counters,
            ..MetricsSnapshot::default()
        };
        let error = MetricsSnapshot::from_bytes(&metrics.to_bytes()).unwrap_err();
        assert_eq!(error.kind, out_of_order("metric name order"));
        let buckets = vec![(8, 1), (8, 1)];
        let histogram = HistogramSnapshot {
            buckets,
            ..HistogramSnapshot::default()
        };
        let error = HistogramSnapshot::from_bytes(&histogram.to_bytes()).unwrap_err();
        assert_eq!(error.kind, out_of_order("histogram bucket order"));
    }

    #[test]
    fn heartbeats_round_trip_are_observed_and_do_not_count_as_log_frames() {
        let beat = Frame::Heartbeat(HeartbeatFrame { seq: 42 });
        let decoded = Frame::from_payload(&beat.to_payload(), 5).unwrap();
        assert_eq!(beat, decoded);

        let dataset = analysed_dataset();
        let log = LogFrame {
            index: 0,
            summary: LogSummary {
                label: dataset.label.clone(),
                counts: dataset.counts,
                errors: Default::default(),
            },
            analysis: dataset,
        };
        let epilogue = EpilogueFrame {
            log_frames: 1,
            ..EpilogueFrame::default()
        };
        // Heartbeats interleaved before, between and directly ahead of the
        // epilogue: the declared log-frame count (1) must still match.
        let mut stream = Vec::new();
        crate::codec::write_stream_header(&mut stream).unwrap();
        Frame::Heartbeat(HeartbeatFrame { seq: 1 })
            .write_checked_to(&mut stream)
            .unwrap();
        Frame::from(log.clone())
            .write_checked_to(&mut stream)
            .unwrap();
        Frame::Heartbeat(HeartbeatFrame { seq: 2 })
            .write_checked_to(&mut stream)
            .unwrap();
        Frame::Epilogue(epilogue.clone())
            .write_checked_to(&mut stream)
            .unwrap();

        let mut observed = Vec::new();
        let (snapshot, bytes) = read_snapshot_observed(stream.as_slice(), |frame| {
            observed.push(match frame {
                Frame::Log(_) => "log",
                Frame::Epilogue(_) => "epilogue",
                Frame::Heartbeat(_) => "heartbeat",
            });
        })
        .unwrap();
        assert_eq!(bytes, stream.len() as u64);
        assert_eq!(snapshot.logs.len(), 1);
        assert_eq!(snapshot.epilogue, epilogue);
        assert_eq!(observed, ["heartbeat", "log", "heartbeat", "epilogue"]);

        // The plain reader skips them identically.
        let (snapshot, _) = read_snapshot(stream.as_slice()).unwrap();
        assert_eq!(snapshot.logs.len(), 1);
    }
}
