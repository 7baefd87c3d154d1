//! The dependency-free binary snapshot codec: varint integers, raw
//! little-endian 128-bit hashes, checksummed length-prefixed frames behind a
//! magic / version header, and structured decode errors that carry the byte
//! offset of the fault.
//!
//! The wire format is deliberately tiny and explicit — it is the contract
//! between coordinator and worker *processes*, between the service and its
//! clients, and (frames only) the record layout of the snapshot store, so it
//! must not depend on the Rust type layout, the allocator or any
//! serialization framework:
//!
//! * **varint** — unsigned LEB128, at most 10 bytes for a `u64`. All counts
//!   and lengths use it (corpus tallies are overwhelmingly small integers).
//! * **128-bit hashes** (the store's log identities) — raw 16-byte
//!   little-endian `u128`. They are uniform hash outputs; varint coding
//!   would *expand* them.
//! * **strings** — varint byte length + UTF-8 bytes.
//! * **stream header** — the 4-byte magic [`MAGIC`] followed by the
//!   [`VERSION`] byte. A decoder refuses any other version up front, which
//!   is what lets the coordinator surface a version-skewed worker as a
//!   structured error instead of garbage tallies.
//! * **frames** — `[varint len][payload][crc32c LE]`: the payload's length,
//!   the payload, and the [`crc32c`] of the payload as 4 little-endian bytes.
//!   [`write_frame`] is the one writer and [`FrameReader::next_frame`] the
//!   one reader; the reader checks the trailer before it hands a payload
//!   out, so a corrupted frame fails as
//!   [`ChecksumMismatch`](DecodeErrorKind::ChecksumMismatch) at that frame's
//!   offset instead of decoding as some other value. The payload's first
//!   byte is a tag (see [`crate::snapshot`]).
//!
//! Every decode error is a [`DecodeError`]: a [`DecodeErrorKind`] plus the
//! stream offset where decoding stopped, so a coordinator can report *which
//! byte* of *which shard's* snapshot went wrong.

use sparqlog_algebra::tally::{CounterSink, CounterSource, Field};
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic prefix of a snapshot stream (`SQSN`: SparQlog SNapshot).
pub const MAGIC: [u8; 4] = *b"SQSN";

/// The codec version this build writes and accepts.
///
/// * 2: the per-log error tally in
///   [`LogSummary`](sparqlog_core::fused::LogSummary) and
///   [`DatasetAnalysis`](sparqlog_core::analysis::DatasetAnalysis) frames.
/// * 3: every frame carries its CRC32C trailer.
/// * 4: log frames carry no fingerprint list.
pub const VERSION: u8 = 4;

/// Upper bound on a single frame's payload (256 MiB), far above any real
/// snapshot: a longer length prefix is corrupt, and fails before any byte
/// of its payload is read.
pub const MAX_FRAME_BYTES: u64 = 1 << 28;

/// What went wrong while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeErrorKind {
    /// The stream ended in the middle of a header, frame length, frame
    /// payload or checksum — a truncated snapshot (e.g. a worker that died
    /// mid-write).
    UnexpectedEof,
    /// The stream does not start with [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The stream's version byte is not [`VERSION`] — a worker built against
    /// a different codec revision.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// A varint ran past 10 bytes without terminating.
    VarintOverflow,
    /// A decoded length does not fit the platform's `usize` or the field's
    /// integer width.
    LengthOverflow {
        /// The offending value.
        value: u64,
    },
    /// A frame declared a payload larger than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The declared payload length.
        length: u64,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A field carried a value outside its domain (unknown enum code,
    /// invalid flag bits, non-boolean byte).
    InvalidValue {
        /// Which field kind was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A frame payload began with an unknown frame tag.
    BadFrameTag {
        /// The tag byte found.
        tag: u8,
    },
    /// A frame payload had bytes left over after its last field.
    TrailingBytes {
        /// How many undecoded bytes remained.
        remaining: usize,
    },
    /// The stream ended cleanly (at a frame boundary) before the epilogue
    /// frame — a worker that exited early without finishing its snapshot.
    MissingEpilogue,
    /// A frame followed the epilogue frame.
    TrailingFrame,
    /// The epilogue's declared log-frame count disagrees with the frames
    /// actually streamed.
    FrameCountMismatch {
        /// The count the epilogue declared.
        declared: u64,
        /// The log frames seen before it.
        seen: u64,
    },
    /// A frame's CRC32C trailer did not match its payload — the bytes were
    /// corrupted in flight (or at rest), not merely truncated.
    ChecksumMismatch {
        /// The checksum the frame's trailer declared.
        expected: u32,
        /// The checksum computed over the received payload.
        found: u32,
    },
}

/// A structured decode failure: the fault and the stream offset (in bytes
/// from the start of the snapshot) where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub kind: DecodeErrorKind,
    /// Byte offset into the snapshot stream.
    pub offset: u64,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DecodeErrorKind::UnexpectedEof => write!(f, "truncated snapshot"),
            DecodeErrorKind::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            DecodeErrorKind::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported codec version {found} (this build speaks {VERSION})"
                )
            }
            DecodeErrorKind::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            DecodeErrorKind::LengthOverflow { value } => {
                write!(f, "length {value} overflows the target integer")
            }
            DecodeErrorKind::FrameTooLarge { length } => {
                write!(
                    f,
                    "frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            DecodeErrorKind::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeErrorKind::InvalidValue { what, value } => {
                write!(f, "invalid {what} value {value}")
            }
            DecodeErrorKind::BadFrameTag { tag } => write!(f, "unknown frame tag {tag}"),
            DecodeErrorKind::TrailingBytes { remaining } => {
                write!(f, "{remaining} undecoded bytes at the end of a frame")
            }
            DecodeErrorKind::MissingEpilogue => {
                write!(f, "stream ended before the epilogue frame")
            }
            DecodeErrorKind::TrailingFrame => write!(f, "frame after the epilogue"),
            DecodeErrorKind::FrameCountMismatch { declared, seen } => {
                write!(
                    f,
                    "epilogue declared {declared} log frames but {seen} were streamed"
                )
            }
            DecodeErrorKind::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch (declared {expected:#010x}, computed {found:#010x})"
                )
            }
        }?;
        write!(f, " at byte offset {}", self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// A failure while reading a snapshot stream: either the transport failed
/// ([`StreamError::Io`]) or the bytes arrived but did not decode
/// ([`StreamError::Decode`]).
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The bytes did not decode.
    Decode(DecodeError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(error) => write!(f, "snapshot stream I/O error: {error}"),
            StreamError::Decode(error) => write!(f, "snapshot decode error: {error}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DecodeError> for StreamError {
    fn from(error: DecodeError) -> StreamError {
        StreamError::Decode(error)
    }
}

// ---------------------------------------------------------------------------
// CRC32C.
// ---------------------------------------------------------------------------

/// The reflected Castagnoli polynomial (CRC32C) — the checksum of iSCSI,
/// ext4 and btrfs, chosen over CRC32 (IEEE) for its better error-detection
/// properties on storage-sized payloads.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// The slice-by-8 lookup tables for [`crc32c`], built at compile time:
/// `CRC32C_TABLES[0][b]` is the checksum register after byte `b`, and
/// `CRC32C_TABLES[k][b]` after `b` followed by `k` zero bytes. Eight lookups
/// then advance the register over eight bytes at once, with no chain from
/// one byte's lookup to the next — fast enough for snapshot-sized payloads
/// without SIMD or a carryless-multiply intrinsic.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][index] = crc;
        index += 1;
    }
    let mut k = 1;
    while k < 8 {
        index = 0;
        while index < 256 {
            let previous = tables[k - 1][index];
            tables[k][index] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            index += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC32C (Castagnoli) checksum of `bytes`, eight bytes per
/// step (slice-by-8) and the last `len % 8` bytes one at a time.
///
/// Dependency-free by design, like the rest of the codec: the workspace
/// builds offline, so the checksum is compile-time tables instead of a
/// crates.io import. The standard test vector pins the exact polynomial,
/// reflection and final inversion:
///
/// ```
/// assert_eq!(sparqlog_shard::codec::crc32c(b"123456789"), 0xE306_9283);
/// ```
pub fn crc32c(bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    let crc = words.iter().fold(!0u32, |crc, word| {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = (u64::from_le_bytes(*word) ^ u64::from(crc))
            .to_le_bytes()
            .map(usize::from);
        CRC32C_TABLES[7][b0]
            ^ CRC32C_TABLES[6][b1]
            ^ CRC32C_TABLES[5][b2]
            ^ CRC32C_TABLES[4][b3]
            ^ CRC32C_TABLES[3][b4]
            ^ CRC32C_TABLES[2][b5]
            ^ CRC32C_TABLES[1][b6]
            ^ CRC32C_TABLES[0][b7]
    });
    !tail.iter().fold(crc, |crc, &byte| {
        (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
    })
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// An append-only byte buffer with the codec's primitive writers.
#[derive(Debug, Default)]
pub struct Encoder {
    bytes: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.bytes.push(u8::from(value));
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                self.bytes.push(byte);
                return;
            }
            self.bytes.push(byte | 0x80);
        }
    }

    /// Writes a `usize` as a varint.
    pub fn put_usize(&mut self, value: usize) {
        self.put_varint(value as u64);
    }

    /// Writes a canonical fingerprint as 16 raw little-endian bytes.
    pub fn put_u128(&mut self, value: u128) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a string as varint length + UTF-8 bytes.
    pub fn put_str(&mut self, value: &str) {
        self.put_usize(value.len());
        self.bytes.extend_from_slice(value.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A cursor over a byte slice with the codec's primitive readers. Offsets in
/// errors are relative to the enclosing stream when constructed with
/// [`Decoder::with_base_offset`].
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    position: usize,
    base: u64,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `bytes` with error offsets counted from 0.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder::with_base_offset(bytes, 0)
    }

    /// Creates a decoder whose error offsets are `base + position` — used
    /// when `bytes` is a frame payload at a known position in a stream.
    pub fn with_base_offset(bytes: &'a [u8], base: u64) -> Decoder<'a> {
        Decoder {
            bytes,
            position: 0,
            base,
        }
    }

    fn fail(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            kind,
            offset: self.base + self.position as u64,
        }
    }

    /// Undecoded bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.position
    }

    /// Builds a structured invalid-value error pointing at the byte just
    /// consumed — for domain validation a higher-level decoder performs
    /// *after* reading a raw value (unknown enum code, invalid flag bits).
    pub fn invalid(&self, what: &'static str, value: u64) -> DecodeError {
        DecodeError {
            kind: DecodeErrorKind::InvalidValue { what, value },
            offset: (self.base + self.position as u64).saturating_sub(1),
        }
    }

    /// Fails with [`DecodeErrorKind::TrailingBytes`] unless every byte was
    /// consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(self.fail(DecodeErrorKind::TrailingBytes { remaining })),
        }
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        let Some(&byte) = self.bytes.get(self.position) else {
            return Err(self.fail(DecodeErrorKind::UnexpectedEof));
        };
        self.position += 1;
        Ok(byte)
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(self.fail(DecodeErrorKind::InvalidValue {
                what: "boolean",
                value: u64::from(value),
            })),
        }
    }

    /// Reads an unsigned LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8()?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(self.fail(DecodeErrorKind::VarintOverflow));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.fail(DecodeErrorKind::VarintOverflow))
    }

    /// Reads a varint that must fit a `usize` (else
    /// [`DecodeErrorKind::LengthOverflow`]).
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        Field::take(self)
    }

    /// Reads a 16-byte little-endian fingerprint.
    pub fn take_u128(&mut self) -> Result<u128, DecodeError> {
        let end = self.position + 16;
        let Some(slice) = self.bytes.get(self.position..end) else {
            return Err(self.fail(DecodeErrorKind::UnexpectedEof));
        };
        let array: [u8; 16] = slice.try_into().expect("slice is exactly 16 bytes");
        self.position = end;
        Ok(u128::from_le_bytes(array))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, DecodeError> {
        let length = self.take_usize()?;
        let end = match self.position.checked_add(length) {
            Some(end) if end <= self.bytes.len() => end,
            _ => return Err(self.fail(DecodeErrorKind::UnexpectedEof)),
        };
        let slice = &self.bytes[self.position..end];
        let text = std::str::from_utf8(slice)
            .map_err(|_| self.fail(DecodeErrorKind::InvalidUtf8))?
            .to_string();
        self.position = end;
        Ok(text)
    }
}

/// A tally's counters go out as varints, its wire codes as raw bytes, in
/// declaration order.
impl CounterSink for Encoder {
    fn put(&mut self, value: u64) {
        self.put_varint(value);
    }

    fn put_byte(&mut self, value: u8) {
        self.put_u8(value);
    }

    fn put_str(&mut self, value: &str) {
        Encoder::put_str(self, value);
    }
}

/// A tally's counters come back as varints; one that does not fit its
/// field is a [`DecodeErrorKind::LengthOverflow`] just past its varint.
impl CounterSource for Decoder<'_> {
    type Error = DecodeError;

    fn take(&mut self) -> Result<u64, DecodeError> {
        self.take_varint()
    }

    fn take_byte(&mut self) -> Result<u8, DecodeError> {
        self.take_u8()
    }

    fn take_str(&mut self) -> Result<String, DecodeError> {
        Decoder::take_str(self)
    }

    fn overflow(&self, value: u64) -> DecodeError {
        self.fail(DecodeErrorKind::LengthOverflow { value })
    }

    fn invalid(&self, what: &'static str, value: u64) -> DecodeError {
        Decoder::invalid(self, what, value)
    }
}

// ---------------------------------------------------------------------------
// Stream framing.
// ---------------------------------------------------------------------------

/// Writes the stream header, [`MAGIC`] + [`VERSION`], in a single
/// `write_all`, so an unbuffered socket sends it in one piece.
pub fn write_stream_header(out: &mut impl Write) -> io::Result<()> {
    let [m0, m1, m2, m3] = MAGIC;
    out.write_all(&[m0, m1, m2, m3, VERSION])
}

/// Writes one frame, `[varint len][payload][crc32c LE]`, in a single
/// `write_all`, so a writer that passes large writes straight through
/// (`BufWriter`, a socket) never sends a frame in pieces.
pub fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut length = Encoder::new();
    length.put_usize(payload.len());
    let mut frame = length.into_bytes();
    frame.reserve(payload.len() + 4);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.write_all(&frame)
}

/// The most payload bytes [`FrameReader::next_frame`] reserves before they
/// arrive: a frame's length prefix is only a claim until its bytes are
/// read, so a corrupt prefix costs at most this much memory up front.
const RESERVE_BYTES: u64 = 64 << 10;

/// An incremental reader of frames: an optional stream header first (see
/// [`FrameReader::read_header`]), then frames until a clean end-of-stream.
/// Tracks the byte offset so every error names the position it happened
/// at, and so callers can report snapshot sizes.
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: R,
    offset: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(reader: R) -> FrameReader<R> {
        FrameReader::at_offset(reader, 0)
    }

    /// Wraps a byte stream whose first byte sits at `offset` of a larger
    /// file, so offsets and errors count from the file's start.
    pub fn at_offset(reader: R, offset: u64) -> FrameReader<R> {
        FrameReader { reader, offset }
    }

    /// The wrapped stream, e.g. to answer over the socket frames arrive on.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.reader
    }

    /// Bytes consumed so far — after the stream drains, the snapshot size.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn fail(&self, kind: DecodeErrorKind) -> StreamError {
        StreamError::Decode(DecodeError {
            kind,
            offset: self.offset,
        })
    }

    /// Reads one byte; `Ok(None)` on end of stream.
    fn next_byte(&mut self) -> Result<Option<u8>, StreamError> {
        let mut byte = [0u8; 1];
        loop {
            match self.reader.read(&mut byte) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.offset += 1;
                    return Ok(Some(byte[0]));
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(StreamError::Io(error)),
            }
        }
    }

    fn read_exact(&mut self, buffer: &mut [u8]) -> Result<(), StreamError> {
        let mut filled = 0;
        while filled < buffer.len() {
            match self.reader.read(&mut buffer[filled..]) {
                Ok(0) => return Err(self.fail(DecodeErrorKind::UnexpectedEof)),
                Ok(n) => {
                    filled += n;
                    self.offset += n as u64;
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(StreamError::Io(error)),
            }
        }
        Ok(())
    }

    /// Reads and validates the stream header. Call once, before the first
    /// [`FrameReader::next_frame`].
    pub fn read_header(&mut self) -> Result<(), StreamError> {
        let mut magic = [0u8; 4];
        self.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(StreamError::Decode(DecodeError {
                kind: DecodeErrorKind::BadMagic { found: magic },
                offset: 0,
            }));
        }
        let Some(version) = self.next_byte()? else {
            return Err(self.fail(DecodeErrorKind::UnexpectedEof));
        };
        if version != VERSION {
            return Err(StreamError::Decode(DecodeError {
                kind: DecodeErrorKind::UnsupportedVersion { found: version },
                offset: 4,
            }));
        }
        Ok(())
    }

    /// Reads the next frame's payload, or `Ok(None)` on a clean end of
    /// stream (EOF exactly at a frame boundary). A stream that ends inside a
    /// length prefix, payload or trailer fails with
    /// [`DecodeErrorKind::UnexpectedEof`]; a trailer that does not match the
    /// payload fails with [`DecodeErrorKind::ChecksumMismatch`] at the
    /// frame's first byte. Returns the payload and its base offset in the
    /// stream (for error reporting inside the payload).
    pub fn next_frame(&mut self) -> Result<Option<(Vec<u8>, u64)>, StreamError> {
        let start = self.offset;
        // Varint length, read byte-by-byte so a clean EOF is only accepted
        // before the first byte.
        let Some(first) = self.next_byte()? else {
            return Ok(None);
        };
        let mut length = u64::from(first & 0x7F);
        let mut byte = first;
        let mut shift = 7u32;
        while byte & 0x80 != 0 {
            if shift >= 64 {
                return Err(self.fail(DecodeErrorKind::VarintOverflow));
            }
            let Some(next) = self.next_byte()? else {
                return Err(self.fail(DecodeErrorKind::UnexpectedEof));
            };
            byte = next;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(self.fail(DecodeErrorKind::VarintOverflow));
            }
            length |= bits << shift;
            shift += 7;
        }
        if length > MAX_FRAME_BYTES {
            return Err(self.fail(DecodeErrorKind::FrameTooLarge { length }));
        }
        let base = self.offset;
        // Payload and trailer in one read: on an unbuffered socket a
        // separate trailer read would cost a system call per frame.
        let framed = length + 4;
        let mut payload = Vec::with_capacity(framed.min(RESERVE_BYTES) as usize);
        let read = (&mut self.reader)
            .take(framed)
            .read_to_end(&mut payload)
            .map_err(StreamError::Io)?;
        self.offset += read as u64;
        if (read as u64) < framed {
            return Err(self.fail(DecodeErrorKind::UnexpectedEof));
        }
        let trailer: [u8; 4] = payload[length as usize..].try_into().expect("4 bytes");
        payload.truncate(length as usize);
        let (expected, found) = (u32::from_le_bytes(trailer), crc32c(&payload));
        if expected != found {
            return Err(StreamError::Decode(DecodeError {
                kind: DecodeErrorKind::ChecksumMismatch { expected, found },
                offset: start,
            }));
        }
        Ok(Some((payload, base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32c_matches_the_published_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // One flipped bit anywhere changes the checksum.
        let bytes = b"the quick brown fox".to_vec();
        let reference = crc32c(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), reference, "bit {bit}");
        }
    }

    /// The byte-at-a-time loop slice-by-8 replaced: one lookup per byte,
    /// each waiting on the one before.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-8 against the bytewise oracle over random lengths up to
        /// 4 KiB, so every length mod 8 and every start alignment occurs.
        #[test]
        fn crc32c_slice_by_8_equals_the_bytewise_oracle(
            bytes in prop::collection::vec(0u8..=255, 0..4097),
            offset in 0usize..8,
        ) {
            let bytes = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32c(bytes), crc32c_bytewise(bytes));
        }
    }

    #[test]
    fn varints_round_trip_across_the_width_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut encoder = Encoder::new();
            encoder.put_varint(value);
            let bytes = encoder.into_bytes();
            let mut decoder = Decoder::new(&bytes);
            assert_eq!(decoder.take_varint().unwrap(), value);
            decoder.finish().unwrap();
        }
    }

    #[test]
    fn varint_overflow_is_detected() {
        // Eleven continuation bytes can never be a valid u64.
        let bytes = [0xFFu8; 11];
        let mut decoder = Decoder::new(&bytes);
        assert_eq!(
            decoder.take_varint().unwrap_err().kind,
            DecodeErrorKind::VarintOverflow
        );
        // Ten bytes whose top bits exceed 64 bits of payload.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut decoder = Decoder::new(&bytes);
        assert_eq!(
            decoder.take_varint().unwrap_err().kind,
            DecodeErrorKind::VarintOverflow
        );
    }

    #[test]
    fn primitives_round_trip() {
        let mut encoder = Encoder::new();
        encoder.put_u8(7);
        encoder.put_bool(true);
        encoder.put_bool(false);
        Field::put(&u32::MAX, &mut encoder);
        encoder.put_u128(u128::MAX - 5);
        encoder.put_str("héllo");
        encoder.put_str("");
        for value in [None, Some(0), Some(41)] {
            Field::put(&value, &mut encoder);
        }
        let bytes = encoder.into_bytes();
        let mut decoder = Decoder::new(&bytes);
        assert_eq!(decoder.take_u8().unwrap(), 7);
        assert!(decoder.take_bool().unwrap());
        assert!(!decoder.take_bool().unwrap());
        assert_eq!(<u32 as Field>::take(&mut decoder).unwrap(), u32::MAX);
        assert_eq!(decoder.take_u128().unwrap(), u128::MAX - 5);
        assert_eq!(decoder.take_str().unwrap(), "héllo");
        assert_eq!(decoder.take_str().unwrap(), "");
        for value in [None, Some(0), Some(41)] {
            assert_eq!(<Option<usize> as Field>::take(&mut decoder).unwrap(), value);
        }
        decoder.finish().unwrap();
    }

    #[test]
    fn invalid_primitive_values_are_structured_errors() {
        let mut decoder = Decoder::new(&[2]);
        assert!(matches!(
            decoder.take_bool().unwrap_err().kind,
            DecodeErrorKind::InvalidValue {
                what: "boolean",
                value: 2
            }
        ));
        let mut encoder = Encoder::new();
        encoder.put_varint(u64::from(u32::MAX) + 1);
        let bytes = encoder.into_bytes();
        let mut decoder = Decoder::new(&bytes);
        assert!(matches!(
            <u32 as Field>::take(&mut decoder).unwrap_err().kind,
            DecodeErrorKind::LengthOverflow { .. }
        ));
        let mut encoder = Encoder::new();
        encoder.put_usize(5);
        encoder.put_u8(0xFF); // not UTF-8 at this length
        let mut bytes = encoder.into_bytes();
        bytes.extend_from_slice(&[0xFE, 0xFD, 0xFC, 0xFB]);
        let mut decoder = Decoder::new(&bytes);
        assert_eq!(
            decoder.take_str().unwrap_err().kind,
            DecodeErrorKind::InvalidUtf8
        );
    }

    #[test]
    fn trailing_bytes_fail_finish_with_the_count() {
        let mut encoder = Encoder::new();
        encoder.put_varint(1);
        encoder.put_varint(2);
        let bytes = encoder.into_bytes();
        let mut decoder = Decoder::new(&bytes);
        decoder.take_varint().unwrap();
        assert_eq!(
            decoder.finish().unwrap_err().kind,
            DecodeErrorKind::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[0x80; 300]).unwrap();
        let mut reader = FrameReader::new(stream.as_slice());
        reader.read_header().unwrap();
        let (payload, base) = reader.next_frame().unwrap().unwrap();
        assert_eq!(payload, b"alpha");
        assert_eq!(base, 6); // magic(4) + version(1) + length(1)
        assert_eq!(reader.next_frame().unwrap().unwrap().0, b"");
        assert_eq!(reader.next_frame().unwrap().unwrap().0.len(), 300);
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.offset(), stream.len() as u64);
    }

    #[test]
    fn header_faults_are_structured() {
        let mut reader = FrameReader::new(&b"NOPE\x01"[..]);
        let StreamError::Decode(error) = reader.read_header().unwrap_err() else {
            panic!("expected a decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::BadMagic { found: *b"NOPE" });

        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(VERSION + 1);
        let mut reader = FrameReader::new(stream.as_slice());
        let StreamError::Decode(error) = reader.read_header().unwrap_err() else {
            panic!("expected a decode error");
        };
        assert_eq!(
            error.kind,
            DecodeErrorKind::UnsupportedVersion { found: VERSION + 1 }
        );

        let mut reader = FrameReader::new(&MAGIC[..3]);
        let StreamError::Decode(error) = reader.read_header().unwrap_err() else {
            panic!("expected a decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_frames_fail_with_eof_and_offset() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        write_frame(&mut stream, b"0123456789").unwrap();
        // Cut the stream inside the payload (the last 4 bytes are the
        // trailer).
        stream.truncate(stream.len() - 8);
        let mut reader = FrameReader::new(stream.as_slice());
        reader.read_header().unwrap();
        let StreamError::Decode(error) = reader.next_frame().unwrap_err() else {
            panic!("expected a decode error");
        };
        assert_eq!(error.kind, DecodeErrorKind::UnexpectedEof);
        assert_eq!(error.offset, stream.len() as u64);
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_before_allocation() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        let mut length = Encoder::new();
        length.put_varint(MAX_FRAME_BYTES + 1);
        stream.extend_from_slice(&length.into_bytes());
        let mut reader = FrameReader::new(stream.as_slice());
        reader.read_header().unwrap();
        let StreamError::Decode(error) = reader.next_frame().unwrap_err() else {
            panic!("expected a decode error");
        };
        assert!(matches!(error.kind, DecodeErrorKind::FrameTooLarge { .. }));
    }
}
