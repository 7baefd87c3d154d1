//! The input side of the engine: raw logs, the Table-1 counts, the
//! streaming [`LogReader`]s and the batch source the workers drain.
//!
//! A log reaches the engine as a [`LogReader`] — in-memory entries
//! ([`MemoryLogReader`], [`SliceLogReader`]) or a buffered line-oriented
//! stream ([`LineLogReader`] / [`FileLogReader`]: one entry per line, `\n`
//! or `\r\n` terminated). The fused engine ([`analyze_streams`], defined in
//! [`crate::fused`] and re-exported here) pulls batches from the readers
//! through one shared, position-assigning batch source, so raw entries live
//! only for the duration of their batch and a malformed line is tallied at
//! the same entry position whatever the worker count.
//!
//! [`RawLog`] is the fully resident form of a log: what the synthetic corpus
//! generator produces and what the sequential oracle
//! ([`crate::baseline::analyze_reference`]) consumes.

use crate::recover::{reader_defect, ErrorTally, ReaderDefect};
use serde::{Deserialize, Serialize};
use sparqlog_parser::bytescan::find_newline;
use sparqlog_parser::ErrorKind;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, BufRead, BufReader};

pub use sparqlog_parser::{canonical_fingerprint, CanonicalHasher};

pub use crate::fused::{
    analyze_streams, analyze_streams_cached, analyze_streams_with, FusedAnalysis, FusedOptions,
    FusedStats, LogSummary,
};

/// One raw log: a label (dataset name) and its entries in log order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawLog {
    /// The dataset label (e.g. `"DBpedia15"`).
    pub label: String,
    /// The raw log entries.
    pub entries: Vec<String>,
}

impl RawLog {
    /// Creates a raw log.
    pub fn new(label: impl Into<String>, entries: Vec<String>) -> RawLog {
        RawLog {
            label: label.into(),
            entries,
        }
    }
}

sparqlog_algebra::tally! {
    /// The Table-1 accounting for one dataset.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CorpusCounts {
        /// Total log entries.
        sum pub total: u64,
        /// Entries that parse as SPARQL queries.
        sum pub valid: u64,
        /// Distinct valid queries (after canonicalization).
        sum pub unique: u64,
        /// Valid queries without a body (the paper reports 4.47 % corpus-wide,
        /// almost all of them DESCRIBE queries).
        sum pub bodyless: u64,
    }
}

/// The worker count used by the engine's pools when no explicit
/// count is given: the `SPARQLOG_WORKERS` environment variable if set to a
/// positive integer, otherwise the available parallelism. The override exists
/// so CI can pin the pools to 1/2/8 workers and assert that reports stay
/// byte-identical on real multi-core runners.
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("SPARQLOG_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Entries per parse chunk: large enough to amortize scheduling, small
/// enough that a single large log spreads over every core.
pub(crate) const INGEST_CHUNK: usize = 512;

// ---------------------------------------------------------------------------
// Streaming log readers.
// ---------------------------------------------------------------------------

/// A source of raw log entries consumed incrementally, batch by batch, so the
/// ingestion pipeline never needs a full `&[RawLog]` resident in memory.
///
/// Implementations: [`MemoryLogReader`] (owned entries, moved out),
/// [`SliceLogReader`] (borrowed entries), and [`LineLogReader`] /
/// [`FileLogReader`] (buffered line-oriented streams: one line per entry,
/// `\n` or `\r\n` terminated, with or without a trailing newline).
pub trait LogReader: Send {
    /// The dataset label of this log.
    fn label(&self) -> &str;

    /// Appends up to `max` entries to `batch` and returns how many were
    /// appended. Returning `0` signals the end of the log.
    fn read_batch(&mut self, batch: &mut Vec<String>, max: usize) -> io::Result<usize>;

    /// How many entries remain, when cheaply known (in-memory readers). The
    /// pool uses the hint to avoid spawning more workers than there are
    /// batches; `None` (the default, and what stream-backed readers return)
    /// leaves the worker count untouched.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`LogReader`] over an owned entry list; entries are *moved* into the
/// pipeline batch by batch, so the raw log shrinks as ingestion progresses.
#[derive(Debug)]
pub struct MemoryLogReader {
    label: String,
    entries: std::vec::IntoIter<String>,
}

impl MemoryLogReader {
    /// Creates a reader that drains `entries` in order.
    pub fn new(label: impl Into<String>, entries: Vec<String>) -> MemoryLogReader {
        MemoryLogReader {
            label: label.into(),
            entries: entries.into_iter(),
        }
    }
}

impl LogReader for MemoryLogReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn read_batch(&mut self, batch: &mut Vec<String>, max: usize) -> io::Result<usize> {
        let mut appended = 0;
        while appended < max {
            let Some(entry) = self.entries.next() else {
                break;
            };
            batch.push(entry);
            appended += 1;
        }
        Ok(appended)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// A [`LogReader`] over borrowed entries (e.g. a [`RawLog`] the caller keeps
/// owning); batches are cloned out.
#[derive(Debug)]
pub struct SliceLogReader<'a> {
    label: &'a str,
    entries: &'a [String],
    position: usize,
}

impl<'a> SliceLogReader<'a> {
    /// Creates a reader over a label and a borrowed entry slice.
    pub fn new(label: &'a str, entries: &'a [String]) -> SliceLogReader<'a> {
        SliceLogReader {
            label,
            entries,
            position: 0,
        }
    }

    /// Creates a reader over a borrowed [`RawLog`].
    pub fn of(log: &'a RawLog) -> SliceLogReader<'a> {
        SliceLogReader::new(&log.label, &log.entries)
    }
}

impl LogReader for SliceLogReader<'_> {
    fn label(&self) -> &str {
        self.label
    }

    fn read_batch(&mut self, batch: &mut Vec<String>, max: usize) -> io::Result<usize> {
        let end = (self.position + max).min(self.entries.len());
        let appended = end - self.position;
        batch.extend(self.entries[self.position..end].iter().cloned());
        self.position = end;
        Ok(appended)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len() - self.position)
    }
}

/// The assumed average log-line length (bytes, terminator included) used to
/// turn a file size into an entry-count estimate for worker clamping. Real
/// SPARQL log lines run one to a few hundred bytes; the estimate only has to
/// be in the right order of magnitude — it sizes the worker pool, never the
/// result.
const ESTIMATED_LINE_BYTES: u64 = 128;

/// A [`LogReader`] over any buffered byte stream, one entry per line. Lines
/// are terminated by `\n` or `\r\n` (the terminator is stripped); a final
/// line without a trailing newline still counts as an entry, and an empty
/// stream yields no entries.
///
/// Line boundaries are found by scanning the buffered bytes a machine word
/// at a time (the parser's SWAR `find_newline` search) rather than per
/// character; a line that straddles buffer refills accumulates in a carry
/// buffer whose allocation is moved — not copied — into the produced entry.
#[derive(Debug)]
pub struct LineLogReader<R> {
    label: String,
    reader: R,
    /// Bytes of a line whose terminator has not been seen yet (the line
    /// straddles a buffer refill, or the stream ended without a newline).
    pending: Vec<u8>,
    /// Lines produced so far; makes the 1-based line number of a malformed
    /// line available to the [`ReaderDefect`] error payload.
    line: u64,
    /// Estimated entries remaining, when the stream's total size is known up
    /// front (file-backed readers); decremented as lines are read.
    estimated_remaining: Option<usize>,
}

impl<R: BufRead + Send> LineLogReader<R> {
    /// Creates a line reader over a buffered stream (no size hint — the
    /// worker clamp of [`analyze_streams_with`] leaves the pool unchanged).
    pub fn new(label: impl Into<String>, reader: R) -> LineLogReader<R> {
        LineLogReader {
            label: label.into(),
            reader,
            pending: Vec::new(),
            line: 0,
            estimated_remaining: None,
        }
    }

    /// Creates a line reader with an up-front estimate of how many entries
    /// the stream holds, so the ingestion pool can clamp its worker count
    /// for stream-backed sources too.
    pub fn with_estimated_entries(
        label: impl Into<String>,
        reader: R,
        entries: usize,
    ) -> LineLogReader<R> {
        LineLogReader {
            label: label.into(),
            reader,
            pending: Vec::new(),
            line: 0,
            estimated_remaining: Some(entries),
        }
    }

    /// Converts raw line bytes (`\n` already excluded) into the entry
    /// string. A trailing `\r` is stripped only when a `\n` terminator was
    /// actually found — `BufRead::read_line` semantics: an unterminated
    /// final line ending in `\r` keeps that byte. Invalid UTF-8 surfaces as
    /// an `InvalidData` error whose [`ReaderDefect`] payload names the log
    /// and the 1-based line number, so a strict-mode failure points at the
    /// offending line and a lenient run can tally it.
    fn finish_entry(&mut self, mut line: Vec<u8>, newline_terminated: bool) -> io::Result<String> {
        self.line += 1;
        if newline_terminated && line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                ReaderDefect {
                    label: self.label.clone(),
                    line: self.line,
                },
            )
        })
    }

    /// Reads the next line, or `None` at end of stream.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let buffer = self.reader.fill_buf()?;
            if buffer.is_empty() {
                // End of stream: an unterminated final line is still an entry.
                if self.pending.is_empty() {
                    return Ok(None);
                }
                let pending = std::mem::take(&mut self.pending);
                return self.finish_entry(pending, false).map(Some);
            }
            match find_newline(buffer) {
                Some(position) => {
                    let line = if self.pending.is_empty() {
                        buffer[..position].to_vec()
                    } else {
                        let mut line = std::mem::take(&mut self.pending);
                        line.extend_from_slice(&buffer[..position]);
                        line
                    };
                    self.reader.consume(position + 1);
                    return self.finish_entry(line, true).map(Some);
                }
                None => {
                    self.pending.extend_from_slice(buffer);
                    let consumed = buffer.len();
                    self.reader.consume(consumed);
                }
            }
        }
    }
}

impl<R: BufRead + Send> LogReader for LineLogReader<R> {
    fn label(&self) -> &str {
        &self.label
    }

    fn read_batch(&mut self, batch: &mut Vec<String>, max: usize) -> io::Result<usize> {
        let mut appended = 0;
        while appended < max {
            let Some(line) = self.next_line()? else {
                break;
            };
            batch.push(line);
            appended += 1;
        }
        if let Some(remaining) = &mut self.estimated_remaining {
            *remaining = remaining.saturating_sub(appended);
        }
        Ok(appended)
    }

    fn size_hint(&self) -> Option<usize> {
        self.estimated_remaining
    }
}

/// A buffered line reader over a file on disk.
pub type FileLogReader = LineLogReader<BufReader<std::fs::File>>;

impl FileLogReader {
    /// Opens a log file for streaming ingestion. For regular files, the byte
    /// length (from metadata) divided by an average-line estimate seeds
    /// [`LogReader::size_hint`], so worker clamping works for file-backed
    /// ingestion too: a 4-line quickstart log no longer spawns a full pool.
    /// Non-regular files (FIFOs, character devices) report no meaningful
    /// length and get no hint, leaving the pool unclamped. The estimate
    /// never affects results, only the schedule.
    pub fn open(
        label: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> io::Result<FileLogReader> {
        let file = std::fs::File::open(path)?;
        let metadata = file.metadata()?;
        let reader = BufReader::new(file);
        if !metadata.is_file() {
            return Ok(LineLogReader::new(label, reader));
        }
        let estimated =
            usize::try_from(metadata.len().div_ceil(ESTIMATED_LINE_BYTES)).unwrap_or(usize::MAX);
        Ok(LineLogReader::with_estimated_entries(
            label, reader, estimated,
        ))
    }
}

/// A pass-through hasher for canonical fingerprints: the keys are already
/// uniform 128-bit FNV-1a outputs, so hashing them again (SipHash, the
/// `HashSet` default) is pure overhead. Folds the two halves instead.
#[derive(Debug, Default, Clone)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a non-u128 key is hashed; fold bytes in so the
        // hasher stays correct for any key type.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u128(&mut self, value: u128) {
        self.0 = value as u64 ^ (value >> 64) as u64;
    }
}

/// The `BuildHasher` for fingerprint-keyed tables (the occurrence maps, the
/// [`AnalysisCache`](crate::cache::AnalysisCache)): fingerprints pass
/// through [`FingerprintHasher`] unhashed.
pub type FingerprintBuildHasher = BuildHasherDefault<FingerprintHasher>;

/// A multiply-rotate hasher for the analysis records the
/// [`AnalysisCache`](crate::cache::AnalysisCache) interns into classes.
/// A record's derived `Hash` issues dozens of small integer writes (one per
/// flag, counter and discriminant); each costs one rotate, xor and multiply
/// here, where SipHash would pay a full round per write. Unlike SipHash it
/// does not resist keys crafted to collide — the trade the fingerprint
/// tables already make: a log's author reaches a record only through the
/// flags and counts the analyses report.
#[derive(Debug, Default, Clone)]
pub(crate) struct RecordHasher(u64);

impl RecordHasher {
    /// ⌊2⁶⁴/φ⌋: odd, so the multiply is a bijection, with well-spread bits.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for RecordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Records hash through the integer writes below; a byte slice only
        // arrives from a key type with text in it.
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// The `BuildHasher` of the analysis cache's class table: records hash
/// through [`RecordHasher`].
pub(crate) type RecordBuildHasher = BuildHasherDefault<RecordHasher>;

/// The tag of one claimed batch: which log it belongs to, its sequence
/// number within that log, and the 0-based position of its first entry.
/// Positions are assigned here, under the single batch-source lock, which
/// is what makes error-exemplar positions identical for every worker count
/// and batch schedule.
pub(crate) type BatchTag = (usize, usize, u64);

/// The shared batch dispenser: readers are drained one batch at a time under
/// a short lock; parsing and fingerprinting happen outside it.
pub(crate) struct BatchSource<'a> {
    pub(crate) readers: Vec<Box<dyn LogReader + 'a>>,
    pub(crate) current: usize,
    pub(crate) sequence: usize,
    pub(crate) totals: Vec<u64>,
    pub(crate) batch_size: usize,
    /// Whether reader-level defects (malformed lines) recover: tallied
    /// per log here, at the source, instead of failing the run.
    pub(crate) recover: bool,
    /// Per-log reader-defect tallies (only [`ErrorKind::InvalidUtf8`] so
    /// far); merged into the per-log parse tallies at end of run.
    pub(crate) tallies: Vec<ErrorTally>,
}

impl<'a> BatchSource<'a> {
    pub(crate) fn new(
        readers: Vec<Box<dyn LogReader + 'a>>,
        batch_size: usize,
        recover: bool,
    ) -> BatchSource<'a> {
        let log_count = readers.len();
        BatchSource {
            readers,
            current: 0,
            sequence: 0,
            totals: vec![0; log_count],
            batch_size,
            recover,
            tallies: vec![ErrorTally::default(); log_count],
        }
    }

    /// Fills `batch` with the next batch and returns its [`BatchTag`], or
    /// `None` when every reader is exhausted.
    ///
    /// A recoverable reader defect (a malformed line, when `recover` is
    /// set) is tallied here and consumes one entry position; the partially
    /// filled batch — the valid lines read before the defect — is returned
    /// immediately so every batch stays position-contiguous. On a real I/O
    /// error (or any reader error in strict mode) the source marks itself
    /// exhausted so other workers drain out.
    pub(crate) fn next_batch(&mut self, batch: &mut Vec<String>) -> io::Result<Option<BatchTag>> {
        loop {
            if self.current >= self.readers.len() {
                return Ok(None);
            }
            let before = batch.len();
            match self.readers[self.current].read_batch(batch, self.batch_size) {
                Ok(0) => {
                    self.current += 1;
                    self.sequence = 0;
                }
                Ok(appended) => {
                    let start = self.totals[self.current];
                    self.totals[self.current] += appended as u64;
                    let tag = (self.current, self.sequence, start);
                    self.sequence += 1;
                    return Ok(Some(tag));
                }
                Err(error) => {
                    // Lines read before the defect are already in `batch`.
                    let appended = (batch.len() - before) as u64;
                    if self.recover && reader_defect(&error) {
                        let start = self.totals[self.current];
                        self.tallies[self.current].record(ErrorKind::InvalidUtf8, start + appended);
                        // The defective line occupies an entry position of
                        // its own, after the lines that preceded it.
                        self.totals[self.current] += appended + 1;
                        if appended > 0 {
                            let tag = (self.current, self.sequence, start);
                            self.sequence += 1;
                            return Ok(Some(tag));
                        }
                        continue;
                    }
                    self.current = self.readers.len();
                    return Err(error);
                }
            }
        }
    }
}

/// When every reader can say how much work remains, don't spawn more workers
/// than there are batches (a 4-entry quickstart log on a 64-core machine
/// needs one worker, not 64 no-op threads). Batches never span readers, so
/// the batch count is the *per-reader* sum of ceilings — eight 100-entry
/// logs are eight claimable batches, not one.
pub(crate) fn clamp_workers(
    readers: &[Box<dyn LogReader + '_>],
    workers: usize,
    batch_size: usize,
) -> usize {
    match readers
        .iter()
        .map(|r| r.size_hint())
        .try_fold(0usize, |sum, hint| {
            hint.map(|n| sum + n.div_ceil(batch_size))
        }) {
        Some(batches) => workers.min(batches.max(1)),
        None => workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Population;

    fn counts_of(entries: &[&str]) -> CorpusCounts {
        analyze_streams(
            crate::fused::test_readers(&[("test", entries)]),
            Population::Unique,
        )
        .expect("in-memory streams")
        .summaries[0]
            .counts
    }

    #[test]
    fn counts_total_valid_unique() {
        let counts = counts_of(&[
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT   ?x   WHERE { ?x a <http://C> }", // duplicate modulo whitespace
            "not a sparql query at all",
            "ASK { <http://s> <http://p> <http://o> }",
            "DESCRIBE <http://r>",
        ]);
        assert_eq!(counts.total, 5);
        assert_eq!(counts.valid, 4);
        assert_eq!(counts.unique, 3);
        assert_eq!(counts.bodyless, 1);
    }

    #[test]
    fn duplicates_with_different_prefixes_collapse() {
        let counts = counts_of(&[
            "PREFIX dbo: <http://dbpedia.org/ontology/> SELECT ?x WHERE { ?x a dbo:Film }",
            "PREFIX o: <http://dbpedia.org/ontology/> SELECT ?x WHERE { ?x a o:Film }",
        ]);
        assert_eq!(counts.valid, 2);
        assert_eq!(counts.unique, 1);
    }
    #[test]
    fn fingerprint_reexports_reach_the_parser_implementation() {
        // Behaviour is covered in parser::display; this only pins the
        // compatibility re-exports.
        let canonical = "SELECT ?x WHERE { ?x <http://p> ?y }";
        assert_eq!(
            canonical_fingerprint(canonical),
            sparqlog_parser::canonical_fingerprint(canonical)
        );
        let mut hasher = CanonicalHasher::new();
        let _ = std::fmt::Write::write_str(&mut hasher, canonical);
        assert_eq!(hasher.finish(), canonical_fingerprint(canonical));
    }

    #[test]
    fn find_newline_agrees_with_naive_search_at_every_offset() {
        // Newlines at every position of a buffer spanning several machine
        // words, including none at all and bytes ≥ 0x80 (the SWAR trick's
        // borrow propagation must never mis-report the first match).
        for len in 0..40 {
            let mut bytes: Vec<u8> = (0..len).map(|i| 0x41 + (i as u8 % 26)).collect();
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for position in 0..len {
                let saved = bytes[position];
                bytes[position] = b'\n';
                if position > 0 {
                    bytes[position - 1] = 0xC3; // non-ASCII noise before the hit
                }
                assert_eq!(find_newline(&bytes), Some(position), "len {len}");
                bytes[position] = saved;
                if position > 0 {
                    bytes[position - 1] = 0x41 + ((position - 1) as u8 % 26);
                }
            }
        }
        // Two newlines: the first wins.
        assert_eq!(find_newline(b"ab\ncd\nef"), Some(2));
    }

    #[test]
    fn unterminated_final_line_keeps_a_trailing_carriage_return() {
        // `read_line` semantics: `\r` is only part of a `\r\n` terminator;
        // at end of stream with no `\n`, it is a data byte.
        let mut reader = LineLogReader::new("t", io::Cursor::new(b"first\r\nlast\r".to_vec()));
        let mut batch = Vec::new();
        assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
        assert_eq!(batch, vec!["first".to_string(), "last\r".to_string()]);
    }

    #[test]
    fn corpus_counts_merge() {
        let mut a = CorpusCounts {
            total: 10,
            valid: 8,
            unique: 5,
            bodyless: 1,
        };
        let b = CorpusCounts {
            total: 2,
            valid: 2,
            unique: 2,
            bodyless: 0,
        };
        a.merge(&b);
        assert_eq!(a.total, 12);
        assert_eq!(a.valid, 10);
        assert_eq!(a.unique, 7);
    }
}
