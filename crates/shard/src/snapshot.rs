//! [`Snapshot`] encode/decode implementations for every record that crosses
//! the process boundary: [`LogSummary`], [`CorpusCounts`], every tally
//! behind [`DatasetAnalysis`], [`CacheStats`], and the framed worker stream
//! ([`LogFrame`] / [`EpilogueFrame`]) the coordinator consumes.
//!
//! The wire rule for the ten flat tallies (declared with
//! [`sparqlog_algebra::tally!`]) is their field view: every scalar is one
//! varint, in declaration order, and a `[u64; N]` is `N` varints; a `u32` or
//! `usize` that does not fit fails with
//! [`LengthOverflow`](DecodeErrorKind::LengthOverflow). A field cannot be
//! forgotten by the codec, but a new or reordered field changes the bytes:
//! it needs a [`VERSION`](crate::codec::VERSION) bump and an update of the
//! golden bytes in `tests/codec.rs`. The irregular records (maps, options,
//! capped lists, the frames) are written out below; they decode fields in
//! the exact order they encode them. Nothing about the wire layout depends
//! on Rust struct layout.
//!
//! ```
//! use sparqlog_core::corpus::{CorpusCounts, LogSummary};
//! use sparqlog_shard::snapshot::Snapshot;
//!
//! let summary = LogSummary {
//!     label: "DBpedia15".to_string(),
//!     counts: CorpusCounts { total: 5, valid: 4, unique: 2, ..Default::default() },
//!     occurrences: vec![(17, 2), (99, 2)],
//!     errors: Default::default(),
//! };
//! let bytes = summary.to_bytes();
//! assert_eq!(LogSummary::from_bytes(&bytes).unwrap(), summary);
//! ```

use crate::codec::{write_frame, Decoder, Encoder};
use crate::codec::{DecodeError, DecodeErrorKind};
use sparqlog_algebra::opsets::OperatorSet;
use sparqlog_algebra::tally::Tally;
use sparqlog_algebra::{FragmentTally, KeywordTally, OpSetTally, ProjectionTally, TripleHistogram};
use sparqlog_core::analysis::{DatasetAnalysis, FragmentSizeHistogram, HypertreeTally};
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::{CorpusCounts, FusedStats, LogSummary};
use sparqlog_core::recover::ErrorTally;
use sparqlog_graph::ShapeTally;
use sparqlog_obs::{HistogramSnapshot, MetricsSnapshot};
use sparqlog_paths::{PathExpressionType, PathTally, TypeEntry};
use std::collections::BTreeMap;
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

/// The flat tallies: each is its [`Tally`] field view on the wire, every
/// counter one varint in declaration order (`sparqlog_algebra::tally!`).
macro_rules! tally_snapshot {
    ($($tally:ty),* $(,)?) => {$(
        impl Snapshot for $tally {
            fn encode(&self, out: &mut Encoder) {
                self.put_fields(out);
            }

            fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Self::take_fields(input)
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
);

impl Snapshot for ErrorTally {
    fn encode(&self, out: &mut Encoder) {
        let ErrorTally {
            lex,
            syntax,
            invalid_utf8,
            oversize_entry,
            depth_exceeded,
            worker_panic,
            exemplars,
        } = self;
        for value in [
            *lex,
            *syntax,
            *invalid_utf8,
            *oversize_entry,
            *depth_exceeded,
            *worker_panic,
        ] {
            out.put_varint(value);
        }
        out.put_usize(exemplars.len());
        for &(code, position) in exemplars {
            out.put_u8(code);
            out.put_varint(position);
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let lex = input.take_varint()?;
        let syntax = input.take_varint()?;
        let invalid_utf8 = input.take_varint()?;
        let oversize_entry = input.take_varint()?;
        let depth_exceeded = input.take_varint()?;
        let worker_panic = input.take_varint()?;
        let length = input.take_usize()?;
        let mut exemplars = Vec::with_capacity(length.min(1 << 8));
        for _ in 0..length {
            // The wire code is stored raw: the taxonomy is append-only, so
            // a newer worker's code decodes (and re-encodes) losslessly.
            let code = input.take_u8()?;
            let position = input.take_varint()?;
            exemplars.push((code, position));
        }
        Ok(ErrorTally {
            lex,
            syntax,
            invalid_utf8,
            oversize_entry,
            depth_exceeded,
            worker_panic,
            exemplars,
        })
    }
}

impl Snapshot for LogSummary {
    fn encode(&self, out: &mut Encoder) {
        let LogSummary {
            label,
            counts,
            occurrences,
            errors,
        } = self;
        out.put_str(label);
        counts.encode(out);
        out.put_usize(occurrences.len());
        for &(fingerprint, count) in occurrences {
            out.put_u128(fingerprint);
            out.put_varint(count);
        }
        errors.encode(out);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let label = input.take_str()?;
        let counts = CorpusCounts::decode(input)?;
        let length = input.take_usize()?;
        let mut occurrences = Vec::with_capacity(length.min(1 << 16));
        for _ in 0..length {
            let fingerprint = input.take_u128()?;
            let count = input.take_varint()?;
            occurrences.push((fingerprint, count));
        }
        let errors = ErrorTally::decode(input)?;
        Ok(LogSummary {
            label,
            counts,
            occurrences,
            errors,
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
            let value = input.take_varint()?;
            counters.push((name, value));
        }
        let length = input.take_usize()?;
        let mut gauges = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let name = input.take_str()?;
            let value = unzigzag(input.take_varint()?);
            gauges.push((name, value));
        }
        let length = input.take_usize()?;
        let mut histograms = Vec::with_capacity(length.min(1 << 10));
        for _ in 0..length {
            let name = input.take_str()?;
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

impl Snapshot for OpSetTally {
    fn encode(&self, out: &mut Encoder) {
        let OpSetTally {
            pure,
            other_features,
            total,
        } = self;
        out.put_usize(pure.len());
        for (set, count) in pure {
            out.put_u8(set.bits());
            out.put_varint(*count);
        }
        out.put_varint(*other_features);
        out.put_varint(*total);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let length = input.take_usize()?;
        let mut pure = BTreeMap::new();
        for _ in 0..length {
            let bits = input.take_u8()?;
            let Some(set) = OperatorSet::from_bits(bits) else {
                return Err(input.invalid("operator-set bits", u64::from(bits)));
            };
            let count = input.take_varint()?;
            if pure.insert(set, count).is_some() {
                return Err(input.invalid("duplicate operator-set key", u64::from(bits)));
            }
        }
        let other_features = input.take_varint()?;
        let total = input.take_varint()?;
        Ok(OpSetTally {
            pure,
            other_features,
            total,
        })
    }
}

impl Snapshot for TypeEntry {
    fn encode(&self, out: &mut Encoder) {
        let TypeEntry {
            count,
            min_k,
            max_k,
        } = *self;
        out.put_varint(count);
        out.put_opt_usize(min_k);
        out.put_opt_usize(max_k);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = input.take_varint()?;
        let min_k = input.take_opt_usize()?;
        let max_k = input.take_opt_usize()?;
        Ok(TypeEntry {
            count,
            min_k,
            max_k,
        })
    }
}

impl Snapshot for PathTally {
    fn encode(&self, out: &mut Encoder) {
        let PathTally {
            total,
            negated_literal,
            inverse_literal,
            by_type,
            with_inverse,
            potentially_hard,
        } = self;
        out.put_varint(*total);
        out.put_varint(*negated_literal);
        out.put_varint(*inverse_literal);
        out.put_usize(by_type.len());
        for (ty, entry) in by_type {
            out.put_u8(ty.code());
            entry.encode(out);
        }
        out.put_varint(*with_inverse);
        out.put_varint(*potentially_hard);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let total = input.take_varint()?;
        let negated_literal = input.take_varint()?;
        let inverse_literal = input.take_varint()?;
        let length = input.take_usize()?;
        let mut by_type = BTreeMap::new();
        for _ in 0..length {
            let code = input.take_u8()?;
            let Some(ty) = PathExpressionType::from_code(code) else {
                return Err(input.invalid("path-expression-type code", u64::from(code)));
            };
            let entry = TypeEntry::decode(input)?;
            if by_type.insert(ty, entry).is_some() {
                return Err(input.invalid("duplicate path-expression-type key", u64::from(code)));
            }
        }
        let with_inverse = input.take_varint()?;
        let potentially_hard = input.take_varint()?;
        Ok(PathTally {
            total,
            negated_literal,
            inverse_literal,
            by_type,
            with_inverse,
            potentially_hard,
        })
    }
}

impl Snapshot for DatasetAnalysis {
    fn encode(&self, out: &mut Encoder) {
        let DatasetAnalysis {
            label,
            counts,
            errors,
            keywords,
            triples,
            opsets,
            projection,
            fragments,
            shapes_cq,
            shapes_cqf,
            shapes_cqof,
            sizes_cq,
            sizes_cqf,
            sizes_cqof,
            cycle_lengths,
            hypertree,
            paths,
            single_edge_with_constants,
        } = self;
        out.put_str(label);
        counts.encode(out);
        errors.encode(out);
        keywords.encode(out);
        triples.encode(out);
        opsets.encode(out);
        projection.encode(out);
        fragments.encode(out);
        shapes_cq.encode(out);
        shapes_cqf.encode(out);
        shapes_cqof.encode(out);
        sizes_cq.encode(out);
        sizes_cqf.encode(out);
        sizes_cqof.encode(out);
        out.put_usize(cycle_lengths.len());
        for (&girth, &count) in cycle_lengths {
            out.put_usize(girth);
            out.put_varint(count);
        }
        hypertree.encode(out);
        paths.encode(out);
        out.put_varint(*single_edge_with_constants);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let label = input.take_str()?;
        let counts = CorpusCounts::decode(input)?;
        let errors = ErrorTally::decode(input)?;
        let keywords = KeywordTally::decode(input)?;
        let triples = TripleHistogram::decode(input)?;
        let opsets = OpSetTally::decode(input)?;
        let projection = ProjectionTally::decode(input)?;
        let fragments = FragmentTally::decode(input)?;
        let shapes_cq = ShapeTally::decode(input)?;
        let shapes_cqf = ShapeTally::decode(input)?;
        let shapes_cqof = ShapeTally::decode(input)?;
        let sizes_cq = FragmentSizeHistogram::decode(input)?;
        let sizes_cqf = FragmentSizeHistogram::decode(input)?;
        let sizes_cqof = FragmentSizeHistogram::decode(input)?;
        let length = input.take_usize()?;
        let mut cycle_lengths = BTreeMap::new();
        for _ in 0..length {
            let girth = input.take_usize()?;
            let count = input.take_varint()?;
            if cycle_lengths.insert(girth, count).is_some() {
                return Err(input.invalid("duplicate cycle-length key", girth as u64));
            }
        }
        let hypertree = HypertreeTally::decode(input)?;
        let paths = PathTally::decode(input)?;
        let single_edge_with_constants = input.take_varint()?;
        Ok(DatasetAnalysis {
            label,
            counts,
            errors,
            keywords,
            triples,
            opsets,
            projection,
            fragments,
            shapes_cq,
            shapes_cqf,
            shapes_cqof,
            sizes_cq,
            sizes_cqf,
            sizes_cqof,
            cycle_lengths,
            hypertree,
            paths,
            single_edge_with_constants,
        })
    }
}

// ---------------------------------------------------------------------------
// The framed worker stream.
// ---------------------------------------------------------------------------

/// Frame tag: one analysed log (index + summary + per-dataset analysis).
pub const FRAME_LOG: u8 = 1;

/// Frame tag: the worker epilogue (frame count + cache + residency stats).
pub const FRAME_EPILOGUE: u8 = 2;

/// Frame tag: a liveness heartbeat (sequence number only, no payload data).
pub const FRAME_HEARTBEAT: u8 = 3;

/// Frame tag: a CRC32C checksum covering the immediately preceding frame's
/// payload. An **append-only** addition to the tag space (the codec version
/// stays put): streams without checksum frames remain decodable, and a
/// decoder that sees one verifies the preceding frame on the spot — so
/// in-flight corruption surfaces as a structured
/// [`DecodeErrorKind::ChecksumMismatch`] *at the frame that broke*, not as a
/// confusing [`DecodeErrorKind::TrailingBytes`] deep inside a later field
/// decode.
pub const FRAME_CRC: u8 = 4;

/// One analysed log as the worker ships it: the log's index in the
/// *coordinator's* corpus order, its [`LogSummary`], and its full
/// [`DatasetAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogFrame {
    /// Index of this log in the coordinator's input order.
    pub index: u64,
    /// The fused engine's per-log summary (Table-1 counts + fingerprint /
    /// occurrence pairs).
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

/// A checksum over the immediately preceding frame's payload bytes, written
/// by [`Frame::write_checked_to`] and verified by [`read_snapshot`]. Carries
/// the covered payload length too, so a misaligned checksum (covering the
/// wrong frame) is caught as a structured error rather than a spurious
/// mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcFrame {
    /// CRC32C of the preceding frame's payload bytes.
    pub crc: u32,
    /// Byte length of the covered payload.
    pub covered: u64,
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
    /// A checksum of the preceding frame.
    Crc(CrcFrame),
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
            Frame::Crc(frame) => {
                encoder.put_u8(FRAME_CRC);
                encoder.put_u32(frame.crc);
                encoder.put_varint(frame.covered);
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
            FRAME_CRC => {
                let crc = decoder.take_u32()?;
                let covered = decoder.take_varint()?;
                Frame::Crc(CrcFrame { crc, covered })
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

    /// Writes the frame (length prefix + payload) to a stream.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        write_frame(out, &self.to_payload())
    }

    /// Writes the frame followed by a [`FRAME_CRC`] frame covering its
    /// payload — the checksummed form the worker streams its log and
    /// epilogue frames in. The two frames go out back-to-back (callers hold
    /// the writer lock across the pair), so a verifying reader always finds
    /// the checksum right behind the frame it covers.
    pub fn write_checked_to(&self, out: &mut impl Write) -> io::Result<()> {
        let payload = self.to_payload();
        write_frame(out, &payload)?;
        let check = Frame::Crc(CrcFrame {
            crc: crate::codec::crc32c(&payload),
            covered: payload.len() as u64,
        });
        write_frame(out, &check.to_payload())
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
/// [`DecodeErrorKind::UnexpectedEof`]; one ending cleanly before the
/// epilogue is [`DecodeErrorKind::MissingEpilogue`]; frames after the
/// epilogue are [`DecodeErrorKind::TrailingFrame`]; an epilogue whose
/// declared count disagrees with the streamed frames is
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
    // Checksum of the last coverable (log / epilogue) frame's payload, used
    // to verify a FRAME_CRC that follows it. Streams without checksum
    // frames decode exactly as before — the tag is append-only.
    let mut covered: Option<(u32, u64)> = None;
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
            Frame::Log(frame) => {
                covered = Some((crate::codec::crc32c(&payload), payload.len() as u64));
                logs.push(*frame);
            }
            Frame::Heartbeat(_) => {}
            Frame::Crc(check) => verify_crc_frame(covered.take(), check, base)?,
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
                // At most one trailing frame is legal: the epilogue's own
                // checksum. Anything else after the epilogue is still a
                // structured TrailingFrame fault.
                let epilogue_crc = (crate::codec::crc32c(&payload), payload.len() as u64);
                if let Some((payload, base)) = frames.next_frame()? {
                    let frame = Frame::from_payload(&payload, base)?;
                    observe(&frame);
                    let Frame::Crc(check) = frame else {
                        return Err(crate::codec::StreamError::Decode(DecodeError {
                            kind: DecodeErrorKind::TrailingFrame,
                            offset: base,
                        }));
                    };
                    verify_crc_frame(Some(epilogue_crc), check, base)?;
                    if frames.next_frame()?.is_some() {
                        return Err(crate::codec::StreamError::Decode(DecodeError {
                            kind: DecodeErrorKind::TrailingFrame,
                            offset: frames.offset(),
                        }));
                    }
                }
                let bytes = frames.offset();
                return Ok((WorkerSnapshot { logs, epilogue }, bytes));
            }
        }
    }
}

/// Checks a [`CrcFrame`] against the preceding frame's payload checksum.
/// `covered` is `None` when there is no preceding coverable frame (an orphan
/// checksum — a framing bug, reported as an invalid value rather than a
/// mismatch).
fn verify_crc_frame(
    covered: Option<(u32, u64)>,
    check: CrcFrame,
    offset: u64,
) -> Result<(), crate::codec::StreamError> {
    let Some((crc, length)) = covered else {
        return Err(crate::codec::StreamError::Decode(DecodeError {
            kind: DecodeErrorKind::InvalidValue {
                what: "checksum frame with no frame to cover",
                value: u64::from(check.crc),
            },
            offset,
        }));
    };
    if check.covered != length {
        return Err(crate::codec::StreamError::Decode(DecodeError {
            kind: DecodeErrorKind::InvalidValue {
                what: "checksum coverage length",
                value: check.covered,
            },
            offset,
        }));
    }
    if check.crc != crc {
        return Err(crate::codec::StreamError::Decode(DecodeError {
            kind: DecodeErrorKind::ChecksumMismatch {
                expected: check.crc,
                found: crc,
            },
            offset,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_core::analysis::Population;
    use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};

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
            occurrences: vec![(0, 1), (u128::MAX, u64::MAX)],
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
                occurrences: vec![(42, 2)],
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
                occurrences: vec![(5, 1), (9, 3)],
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
        Frame::from(log.clone()).write_to(&mut stream).unwrap();
        Frame::Epilogue(epilogue.clone())
            .write_to(&mut stream)
            .unwrap();

        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        assert_eq!(bytes, stream.len() as u64);
        assert_eq!(snapshot.logs.len(), 1);
        assert_eq!(snapshot.logs[0].summary, log.summary);
        assert_eq!(snapshot.epilogue, epilogue);

        // Missing epilogue: stream ends cleanly after the log frame.
        let mut early = Vec::new();
        crate::codec::write_stream_header(&mut early).unwrap();
        Frame::from(log.clone()).write_to(&mut early).unwrap();
        let crate::codec::StreamError::Decode(error) = read_snapshot(early.as_slice()).unwrap_err()
        else {
            panic!("expected decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::MissingEpilogue);

        // Count mismatch.
        let mut mismatched = Vec::new();
        crate::codec::write_stream_header(&mut mismatched).unwrap();
        Frame::from(log.clone()).write_to(&mut mismatched).unwrap();
        Frame::Epilogue(EpilogueFrame {
            log_frames: 2,
            ..epilogue
        })
        .write_to(&mut mismatched)
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
        Frame::from(log).write_to(&mut trailing).unwrap();
        let crate::codec::StreamError::Decode(error) =
            read_snapshot(trailing.as_slice()).unwrap_err()
        else {
            panic!("expected decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::TrailingFrame);
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
                occurrences: vec![(5, 1)],
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
            .write_to(&mut stream)
            .unwrap();
        Frame::from(log.clone()).write_to(&mut stream).unwrap();
        Frame::Heartbeat(HeartbeatFrame { seq: 2 })
            .write_to(&mut stream)
            .unwrap();
        Frame::Epilogue(epilogue.clone())
            .write_to(&mut stream)
            .unwrap();

        let mut observed = Vec::new();
        let (snapshot, bytes) = read_snapshot_observed(stream.as_slice(), |frame| {
            observed.push(match frame {
                Frame::Log(_) => "log",
                Frame::Epilogue(_) => "epilogue",
                Frame::Heartbeat(_) => "heartbeat",
                Frame::Crc(_) => "crc",
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
